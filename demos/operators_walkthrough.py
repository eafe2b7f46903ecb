"""The two recombination operators, step by step, on a hand-built mesh.

The position-merge operator walks two routes stage by stage and, at each
stage, keeps whichever node is cheaper to reach from the source; with the
replacement probability forced to 1 every stage is merged, so the output is
fully determined by the source-cost table.  The two-point crossover swaps
an independently chosen window from each parent; the raw children may have
gaps or revisits, which the repair pass then stitches with cheapest
connecting segments.

Run:  python3 demos/operators_walkthrough.py
"""

from meshroute import Link, MeshTopology, Node, PenaltyCoeffs, QosRequest
from meshroute.routing import (RouteContext, combine_paths, crossover_children,
                               repair_path)

LINK = dict(channel=1, bandwidth=11.0, delay=1.0, jitter=0.5,
            loss_prob=0.01, i_factor=0.0)


def build_mesh() -> MeshTopology:
    """14 nodes, gateway 13; costs chosen so 7 beats 2, 5 beats 4, 9 beats 10
    when measured from source 1."""
    edges = {(1, 2): 6.0, (1, 7): 3.0, (2, 4): 3.0, (7, 5): 2.0,
             (5, 9): 3.0, (5, 10): 4.0, (4, 9): 8.0, (9, 13): 2.0,
             (10, 13): 2.0}
    nodes = [Node(i, 10.0 * i, 0.0, (1, 6)) for i in range(14)]
    links = [Link(u, v, cost=c, **LINK) for (u, v), c in edges.items()]
    return MeshTopology(nodes, links, {13}, transmission_range=10_000.0)


def main() -> None:
    topo = build_mesh()
    req = QosRequest(5.0, 100.0, 100.0, 0.0)
    ctx = RouteContext(topo, 1, req, PenaltyCoeffs.for_request(req, topo))

    a = [1, 2, 4, 9, 13]
    b = [1, 7, 5, 10, 13]
    print("source-cost table:",
          {n: round(topo.shortest_path_cost(ctx.source, n), 1)
           for n in (2, 7, 4, 5, 9, 10)})
    merged = combine_paths(a, b, ctx, replace_prob=1.0)
    print(f"merge {a} (+) {b} -> {merged}")
    print("  stage by stage the cheaper-from-source node wins: "
          "7 over 2, 5 over 4, 9 over 10\n")

    p1 = [1, 2, 4, 9, 5, 10, 13]
    p2 = [1, 7, 5, 9, 13]
    c1, c2 = crossover_children(p1, p2, cuts=((1, 3), (2, 3)))
    print("crossover windows [1:3) and [2:3):")
    print(f"  parent 1 {p1}\n  parent 2 {p2}")
    print(f"  child 1  {c1}  (revisits 5)\n  child 2  {c2}  (7-4 is no link)")
    print(f"  repaired {repair_path(c1, ctx)} and {repair_path(c2, ctx)}\n")

    broken = [1, 7, 9, 13]          # 7-9 is not a link in this mesh
    print(f"repair {broken} -> {repair_path(broken, ctx)}")


if __name__ == "__main__":
    main()
