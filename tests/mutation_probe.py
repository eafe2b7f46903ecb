"""Mutation probe: does Tier-1 kill each listed mutant of the solver?

Each mutant is one small source edit that a test should notice.  For each,
the probe copies the repository into a temporary directory, applies the
edit there, runs the test suite minus criterion 4 (a wall-clock check that
can fail on unchanged code), pins first and acceptance tests last, and
prints ``killed`` with the first failing test, ``timed out`` once the run
passes TIMEOUT_S, or ``survived``.  The exit status is non-zero if any
mutant survived or timed out.  The working tree is never modified.

Run from the repository root:  python3 tests/mutation_probe.py

The file name does not match ``test_*.py``, so pytest does not collect it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Seconds one mutant's test run may take; an unmutated run takes under a
# minute, so a mutant that outlasts this never ends and is cut off.
TIMEOUT_S = 300

# (name, file, original text, mutated text); the original must occur once.
MUTANTS = [
    ("hybrid GA share uses tournament selection",
     "src/meshroute/routing.py",
     'tournament=(config.algorithm == "ga")',
     "tournament=True"),
    ("mutate detour may pass through a gateway",
     "src/meshroute/routing.py",
     "forbidden = (set(path) | set(ctx.gateways)) - {path[k - 1], path[k + 1]}",
     "forbidden = set(path) - {path[k - 1], path[k + 1]}"),
    ("simulate_path takes the max of the per-hop jitter draws",
     "src/meshroute/simulation.py",
     "jitter_samples.sum(axis=1)",
     "jitter_samples.max(axis=1)"),
    ("summary mean_avg_delay_ms is a median",
     "src/meshroute/cli.py",
     "statistics.mean(s.avg_delay for s in sims)",
     "statistics.median(s.avg_delay for s in sims)"),
    ("_tournament breaks exact ties toward the second pick",
     "src/meshroute/routing.py",
     "return a if a.fitness.total <= b.fitness.total else b",
     "return a if a.fitness.total < b.fitness.total else b"),
    ("trap cut test is strict",
     "src/meshroute/topology.py",
     "if low[u] >= disc[p]:",
     "if low[u] > disc[p]:"),
    ("a gateway's low-link is its discovery order, not the root's",
     "src/meshroute/topology.py",
     "low[v] = 0 if v in gateways else order",
     "low[v] = order"),
    ("a run stops one stagnant iteration late",
     "src/meshroute/routing.py",
     "t - last_improve >= STAGNATION_WINDOW",
     "t - last_improve > STAGNATION_WINDOW"),
    ("mutate detour may revisit the route",
     "src/meshroute/routing.py",
     "forbidden = (set(path) | set(ctx.gateways)) - {path[k - 1], path[k + 1]}",
     "forbidden = set(ctx.gateways) - {path[k - 1], path[k + 1]}"),
    ("has_node accepts a bool",
     "src/meshroute/topology.py",
     "isinstance(u, (int, np.integer)) and not isinstance(u, bool)",
     "isinstance(u, (int, np.integer))"),
    ("dedupe never stops retrying",
     "src/meshroute/routing.py",
     "retries = 0",
     "retries = DEDUPE_RETRIES"),
    ("the first duplicate of a call never retries",
     "src/meshroute/routing.py",
     "retries = DEDUPE_RETRIES",
     "retries = 0"),
    ("repair does not cut at the first gateway",
     "src/meshroute/routing.py",
     "return seq[:end + 1]",
     "return seq"),
    ("merge ties take the other route's node",
     "src/meshroute/routing.py",
     "if cost[other[k]] < cost[out[k]]:",
     "if cost[other[k]] <= cost[out[k]]:"),
    ("the second crossover window may end past its own parent",
     "src/meshroute/routing.py",
     "b2 = rng.randrange(a2, len(p2))",
     "b2 = rng.randrange(a2, len(p1))"),
    ("a duplicate link overwrites the first",
     "src/meshroute/topology.py",
     "if v in table[u]:",
     "if False:"),
    ("is_finite accepts inf",
     "src/meshroute/topology.py",
     "and math.isfinite(x))",
     "and not math.isnan(x))"),
    ("the crossover skip compares a child with the other parent",
     "src/meshroute/routing.py",
     "p1 if raw1 == p1 else",
     "p1 if raw1 == p2 else"),
    ("the gateway tree starts from the gateways in set order",
     "src/meshroute/topology.py",
     "self._gateway_key = tuple(sorted(self.gateways))",
     "self._gateway_key = tuple(self.gateways)"),
    ("is_finite lets an int too large for a float through",
     "src/meshroute/topology.py",
     "    except OverflowError:\n        return False",
     "    except OverflowError:\n        return True"),
    ("a document's int too large for a float escapes as OverflowError",
     "src/meshroute/topology.py",
     "except (KeyError, TypeError, OverflowError) as exc:",
     "except (KeyError, TypeError) as exc:"),
    ("the merge never sets its replaced flag, so loops stay",
     "src/meshroute/routing.py",
     "replaced = True",
     "replaced = False"),
    ("the interference mean divides by the node count",
     "src/meshroute/qos.py",
     "i_sum / hops",
     "i_sum / len(path)"),
    ("the bandwidth minimum keeps the last of equal values",
     "src/meshroute/qos.py",
     "if link.bandwidth < min_bw:",
     "if link.bandwidth <= min_bw:"),
    ("the walk lists a step's options in reverse",
     "src/meshroute/routing.py",
     "options.append(v)",
     "options.insert(0, v)"),
    ("crossover takes its share worst first",
     "src/meshroute/routing.py",
     "ga_set = [p for p in rest if",
     "ga_set = [p for p in reversed(rest) if"),
    ("components are labelled by their highest id",
     "src/meshroute/topology.py",
     "low[max(a, b)] = min(a, b)",
     "low[min(a, b)] = max(a, b)"),
    ("a duplicate draws one walk fewer",
     "src/meshroute/routing.py",
     "range(retries + 1)",
     "range(retries)"),
    ("penalty adds its terms in reverse order",
     "src/meshroute/qos.py",
     "for term in terms.values():",
     "for term in reversed(terms.values()):"),
    ("simulate_path sums link delays in reverse order",
     "src/meshroute/simulation.py",
     "for link in links:",
     "for link in reversed(links):"),
    ("a stitch stops once its target is reached, not settled",
     "src/meshroute/topology.py",
     "if not settled[v]:",
     "if pred[v] == -1 and not settled[v]:"),
    ("a stitch search marks only its target settled",
     "src/meshroute/topology.py",
     "settled[w] = 1",
     "settled[v] = 1"),
    ("an unreachable stitch target gives its origin alone",
     "src/meshroute/topology.py",
     "            else:\n                return None\n",
     "            else:\n                return [u]\n"),
    ("a stitch starts its search afresh",
     "src/meshroute/topology.py",
     "search = searches.get(u)",
     "search = None"),
    ("the radio draw skips the shuffle's draw",
     "src/meshroute/topology.py",
     "np.tile([NUM_CHANNELS - 1, NUM_CHANNELS, 2], n)",
     "np.tile([NUM_CHANNELS - 1, NUM_CHANNELS, 1], n)"),
    ("the half-word is dropped between the radio and link draws",
     "src/meshroute/topology.py",
     'buffered, half = state["has_uint32"], state["uinteger"]',
     'buffered, half = 0, state["uinteger"]'),
    ("a fetch takes one word more than its draws use",
     "src/meshroute/topology.py",
     "(halves - buffered + 1) // 2",
     "(halves - buffered + 3) // 2"),
    ("a pool of one makes a bounded draw",
     "src/meshroute/topology.py",
     "        if k > 1:\n",
     "        if k >= 1:\n"),
    ("a link channel takes the low bits of its draw",
     "src/meshroute/topology.py",
     "pool[x * k >> 32]",
     "pool[x % k]"),
    ("the unused half-word is not handed back",
     "src/meshroute/topology.py",
     "    bits.state = state\n",
     ""),
    ("default_source ranks equal costs by descending id",
     "src/meshroute/topology.py",
     "key=cost.__getitem__))",
     "key=lambda n: (cost[n], -n)))"),
    ("k-means leaves after its first iteration",
     "src/meshroute/topology.py",
     "        if np.array_equal(centers, previous):\n            break\n",
     "        break\n"),
    ("the interference pass ignores a co-channel link at the second endpoint",
     "src/meshroute/topology.py",
     "if at_u[channel] > 1 or at_v[channel] > 1:",
     "if at_u[channel] > 1:"),
]

# Equivalent edits, not run, each with the reason it cannot be told apart:
# - "gbest merge reads C1" (routing.oplus_update, ``C2 * rng.random()`` to
#   ``C1 * rng.random()``): C1 == C2 == 1.5, so every run is unchanged; only
#   a test that sets the two apart (test_gbest_merge_uses_c2) sees it.
# - "the search yields a node after relaxing its links"
#   (MeshTopology._search): a settled node's distance and predecessor chain
#   are final either way, so every caller reads the same rows; a stopped
#   search has only done more work.
# - "the search drops its stale-entry test" (``if d > dist[u]: continue``):
#   a stale entry's distance exceeds its node's, so relaxing from it
#   improves nothing, and its second yield comes after the node settled,
#   which no stitch or path query waits for.
# - "the lower radio is ``np.where(a <= b, a, b)``" (for ``np.minimum(a, b)``
#   in generate_topology, and likewise for ``np.maximum``): Floyd's second
#   draw never equals the first, so a and b never tie and every order rule
#   agrees.
# - "k-means runs all 12 iterations" (_pick_gateways without its fixed-point
#   break): an iteration that leaves the centres bitwise unchanged gives
#   the same centres again, so the gateways agree; it only costs time.

# Moot edits, not run, because the code they mutated is gone:
# - "a Lemire rejection is accepted": the generator makes its radio draws
#   with numpy's own integers(), and its link draws in pools of 2 or 4
#   channels, ranges that divide 2**32, where Lemire's method never
#   rejects; so it keeps no rejection test to mutate.

IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache",
                                ".hypothesis", "*.egg-info")


def apply(copy: Path, rel: str, original: str, mutated: str) -> None:
    path = copy / rel
    text = path.read_text()
    if text.count(original) != 1:
        raise SystemExit(f"{rel}: expected one occurrence of {original!r}")
    path.write_text(text.replace(original, mutated))


def ordered_test_files(root: Path) -> list[str]:
    """Every test file, the pins first and the acceptance gate last.

    Most mutants first fail a pin, and ``-x`` stops at the first failure,
    so the slow acceptance tests run only for mutants nothing else kills.
    """
    order = {"test_behaviour_pin.py": 0, "test_acceptance.py": 2}
    files = sorted((order.get(p.name, 1), p.name)
                   for p in (root / "tests").glob("test_*.py"))
    return [f"tests/{name}" for _, name in files]


def probe(name: str, rel: str, original: str, mutated: str) -> str:
    with tempfile.TemporaryDirectory(prefix="meshroute-mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=IGNORE)
        apply(copy, rel, original, mutated)
        env = {**os.environ, "PYTHONPATH": str(copy / "src")}
        try:
            out = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-x", "-p",
                 "no:cacheprovider", "-k", "not criterion_4",
                 *ordered_test_files(copy)],
                cwd=copy, env=env, capture_output=True, text=True,
                timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return f"timed out after {TIMEOUT_S} s"
    if out.returncode == 0:
        return "survived"
    if out.returncode != 1:
        return f"error (pytest exit {out.returncode})"
    failed = [line.split()[1] for line in out.stdout.splitlines()
              if line.startswith("FAILED ")]
    return f"killed by {failed[0] if failed else 'a failing test'}"


def main() -> int:
    kinds = ("killed", "timed out", "survived", "error")
    counts = Counter()
    for name, rel, original, mutated in MUTANTS:
        verdict = probe(name, rel, original, mutated)
        counts[next(k for k in kinds if verdict.startswith(k))] += 1
        print(f"{name}: {verdict}", flush=True)
    print(f"{counts['killed']} killed, {counts['timed out']} timed out, "
          f"{counts['survived']} survived and {counts['error']} errors "
          f"of {len(MUTANTS)} mutants")
    return 1 if counts["survived"] or counts["timed out"] else 0


if __name__ == "__main__":
    sys.exit(main())
