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

from meshroute import (
    Link,
    MeshTopology,
    Node,
    PenaltyCoeffs,
    QosRequest,
    RouteContext,
    combine_paths,
    crossover_children,
    repair_path,
)

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

    p1 = [1, 7, 5, 8, 12, 15, 21, 24, 25]
    p2 = [1, 7, 5, 10, 17, 19, 22, 25]
    c1, c2 = crossover_children(p1, p2, cuts=((3, 4), (3, 7)))
    print(f"crossover windows [3:4) and [3:7):")
    print(f"  parent 1 {p1}\n  parent 2 {p2}")
    print(f"  child 1  {c1}\n  child 2  {c2}")
    print("  (raw children; in the solver a repair pass stitches them into "
          "routes)\n")

    broken = [1, 7, 9, 13]          # 7-9 is not a link in this mesh
    print(f"repair {broken} -> {repair_path(broken, ctx)}")


if __name__ == "__main__":
    main()
