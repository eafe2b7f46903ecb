"""meshroute benchmark: end-to-end metrics, output checks and layer tracing.

Run from the root of a meshroute checkout:

    python3 perfbench/run.py --workload queries-125 --seed 1 --seconds 20 --trace 0

One process drives the program as a closed loop with one client: the next
operation starts when the previous one has returned.  Inputs come only from
--seed.  With --trace 0 the run times operations with no instrumentation and
reports the end-to-end metrics; with --trace 1 it times a fixed prefix of the
operations untraced, then again with every layer wrapped in a span (see
tracer.py), and reports the per-layer metrics and the tracing overhead.
Every output is checked outside the timed region; the last line of standard
output is one JSON object, and the exit code is 1 when a check failed.
See perfbench/README.md for the workloads and the layer map.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import hashlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from tracer import CHECK_SPAN, LAYER_METRICS, OP_SPAN, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

SETUP_REPS = 3
ALGORITHMS = ("pso", "ga", "hybrid")
# The `meshroute bench` default request: bw 5, delay 10, jitter 2.5, beta 0,
# strict penalties, 10k packets per simulated route.
REQUEST = (5.0, 10.0, 2.5, 0.0)
PACKETS = 10_000
# Source distance percentiles for default_source(topo, p).
PERCENTILES = tuple(round(0.05 * k, 2) for k in range(1, 20))
QUERY_NODES = 125
QUERY_TOPOLOGIES = 24
SWEEP_NODES = 200

# Wall-time fields of RunResult.to_dict(); everything else is deterministic.
WALL_TIME_FIELDS = ("wall_time_ms", "time_to_best_ms", "iteration_times_ms")

# Times are reported in reference seconds.  The host's speed drifts by 1.5x
# and more within minutes on a shared machine, for plain Python code too, so
# a fixed reference kernel is timed before and after every operation and
# set-up (and at points inside long operations), and each stretch of
# measured time between two kernel samples is scaled by REF_S over the mean
# of those two samples: a reference second is a second on a host that runs
# the kernel in exactly REF_S.  The kernel must never change.
REF_S = 0.001


def reference_kernel() -> float:
    """Fixed pure-Python work of the solver's kind: dict, list and float
    operations and a sort."""
    counts: dict[int, int] = {}
    recent: list[int] = []
    acc = 0.0
    for i in range(2200):
        k = (i * 7919) % 1031
        counts[k] = counts.get(k, 0) + 1
        if k not in recent[-8:]:
            recent.append(k)
        acc += math.sqrt(i)
    return acc + len(sorted(counts)) + len(recent)


def kernel_s() -> float:
    t0 = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - t0


END_TO_END = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("peak_rss_mb", "MB"),
    ("pdr_mean", "ratio"),
]


def load_program():
    """Import meshroute from this checkout's src/, or exit non-zero."""
    if not (SRC / "meshroute" / "__init__.py").is_file():
        sys.exit(f"perfbench: {SRC / 'meshroute'} not found; "
                 "run from the root of a meshroute checkout")
    sys.path.insert(0, str(SRC))
    import meshroute
    if Path(meshroute.__file__).resolve().parent != SRC / "meshroute":
        sys.exit(f"perfbench: imported meshroute from {meshroute.__file__}, "
                 f"expected {SRC / 'meshroute'}")


def stripped(result) -> dict:
    d = result.to_dict()
    for key in WALL_TIME_FIELDS:
        d.pop(key)
    return d


@dataclass
class Solve:
    """One checked route: its inputs, result and (if simulated) delivery."""
    topo: object
    source: int
    req: object
    coeffs: object
    result: object
    sim: object = None
    problems: list[str] = field(default_factory=list)


def check_solve(solve: Solve, m) -> list[str]:
    """Problems with one solve's outputs; the empty list means correct."""
    r = solve.result
    path = r.best_path
    problems = []
    if not m.validate_path(solve.topo, path):
        problems.append(f"best route {path} fails validate_path")
    elif path[0] != solve.source or path[-1] not in solve.topo.gateways:
        problems.append(f"best route {path} does not run from source "
                        f"{solve.source} to a gateway")
    elif m.fitness(solve.topo, path, solve.req, solve.coeffs).total \
            != r.best_fitness.total:
        problems.append("recomputed fitness differs from best_fitness.total")
    if any(b > a for a, b in zip(r.fitness_trace, r.fitness_trace[1:])):
        problems.append("fitness_trace increases")
    if solve.sim is not None and not 0.0 <= solve.sim.pdr <= 1.0:
        problems.append(f"pdr {solve.sim.pdr} outside [0, 1]")
    return problems


class Original:
    """The program's functions as imported before any tracing patch, so
    output checks never run through the tracer."""

    def __init__(self):
        from meshroute import cli, qos, routing, simulation, topology
        self.cli, self.qos, self.routing = cli, qos, routing
        self.simulation, self.topology = simulation, topology
        self.validate_path = topology.validate_path
        self.fitness = qos.fitness
        self.simulate_path = simulation.simulate_path


class Workload:
    """Inputs built by setup(), operations by op(i), checks by check().

    Operation i always gets the same inputs for a seed.  The first
    `quality_ops` operations form the quality set: quality metrics and the
    behaviour hash cover exactly those, so they repeat for a seed.
    """

    name = ""
    op_is = ""
    quality_ops = 0
    stride = 1
    trace_ops_per_s = 0.0

    def __init__(self, seed: int, m: Original):
        self.seed = seed
        self.m = m
        self.quality: list[tuple[bool, float, float, float]] = []
        self.digest = hashlib.sha256()
        self.runner: Runner | None = None  # set by the Runner that runs it

    def setup(self) -> None:
        raise NotImplementedError

    def op(self, i: int):
        raise NotImplementedError

    def check(self, i: int, out) -> list[str]:
        raise NotImplementedError

    def install(self, tracer) -> None:
        """Hook the program for checks made during an operation."""

    def uninstall(self) -> None:
        pass

    def record(self, i: int, solve: Solve, pdr: float, delay: float) -> None:
        if i < self.quality_ops:
            fb = solve.result.best_fitness
            self.quality.append((fb.feasible, fb.total, pdr, delay))
            self.digest.update(json.dumps(stripped(solve.result),
                                          sort_keys=True).encode())

    def request(self):
        return self.m.qos.QosRequest(*REQUEST)


class QueryWorkload(Workload):
    """Route queries on prebuilt 125-node topologies with a warm cache."""

    name = f"queries-{QUERY_NODES}"
    op_is = "one solve: run plus simulate_path (solves_per_s, solve_ms_p50/p90)"
    quality_ops = 6 * QUERY_TOPOLOGIES
    stride = QUERY_TOPOLOGIES
    trace_ops_per_s = 3.0

    def setup(self) -> None:
        m = self.m
        rng = random.Random(self.seed)
        self.topos = []
        per_topo = []
        for k in range(QUERY_TOPOLOGIES):
            topo = m.topology.generate_topology(m.topology.TopologyParams(
                QUERY_NODES, rng_seed=self.seed * 1000 + k))
            self.topos.append(topo)
            queries = [(k, m.cli.default_source(topo, p), alg)
                       for p in PERCENTILES for alg in self.algorithms()]
            rng.shuffle(queries)
            per_topo.append(queries)
        # Operation i runs on topology i % QUERY_TOPOLOGIES, and runs end on
        # a multiple of `stride`, so every run weighs all topologies alike.
        self.queries = [(qid, *q) for qid, q in enumerate(
            q for batch in zip(*per_topo) for q in batch)]

    def algorithms(self):
        return ALGORITHMS

    def query(self, i: int):
        qid, k, source, algorithm = self.queries[i % len(self.queries)]
        config = self.m.routing.HybridConfig(
            rng_seed=self.seed * 100_000 + qid, algorithm=algorithm)
        return qid, k, source, config

    def op(self, i: int) -> Solve:
        m = self.m
        qid, k, source, config = self.query(i)
        topo = self.topos[k]
        req = self.request()
        coeffs = m.qos.PenaltyCoeffs.for_request(req, topo)
        result = m.routing.run(topo, source, req, coeffs, config)
        sim = m.simulation.simulate_path(
            topo, result.best_path, m.simulation.TrafficSpec(PACKETS, qid))
        return Solve(topo, source, req, coeffs, result, sim)

    def check(self, i: int, solve: Solve) -> list[str]:
        if i == 0:
            for topo in self.topos:
                self.digest.update(topo.to_json().encode())
        self.record(i, solve, solve.sim.pdr, solve.sim.avg_delay)
        return check_solve(solve, self.m)


class ColdRouteWorkload(QueryWorkload):
    """`meshroute route --source`: parse a topology document, then one
    hybrid solve on the fresh topology, whose Dijkstra cache starts empty."""

    name = f"cold-route-{QUERY_NODES}"
    op_is = "one solve: from_json plus a hybrid run (solves_per_s, solve_ms_p50/p90)"
    quality_ops = 5 * QUERY_TOPOLOGIES

    def algorithms(self):
        return ("hybrid",)

    def setup(self) -> None:
        super().setup()
        self.docs = [topo.to_json() for topo in self.topos]

    def op(self, i: int) -> Solve:
        m = self.m
        qid, k, source, config = self.query(i)
        topo = m.topology.MeshTopology.from_json(self.docs[k])
        req = self.request()
        coeffs = m.qos.PenaltyCoeffs.for_request(req, topo)
        result = m.routing.run(topo, source, req, coeffs, config)
        # Checked against the equal prebuilt topology, so the fresh one (and
        # its cache) is freed when the operation ends.
        return Solve(self.topos[k], source, req, coeffs, result), qid

    def check(self, i: int, out) -> list[str]:
        solve, qid = out
        if i < self.quality_ops:
            solve.sim = self.m.simulate_path(
                solve.topo, solve.result.best_path,
                self.m.simulation.TrafficSpec(PACKETS, qid))
        problems = check_solve(solve, self.m)
        if i < self.quality_ops:
            if i == 0:
                for topo in self.topos:
                    self.digest.update(topo.to_json().encode())
            self.record(i, solve, solve.sim.pdr, solve.sim.avg_delay)
        return problems


class SweepWorkload(Workload):
    """`meshroute bench` sweeps: one operation is cli.run_bench over one
    fresh topology seed at SWEEP_NODES nodes, all three algorithms, one
    worker, CSVs written to disk."""

    name = f"sweep-{SWEEP_NODES}"
    op_is = "one sweep instance (ops_per_s is instances_per_s)"
    quality_ops = 16
    trace_ops_per_s = 0.25

    def setup(self) -> None:
        # Nothing is built ahead of a sweep: its set-up is the start-up of a
        # fresh interpreter that imports the CLI.
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        subprocess.run([sys.executable, "-c", "import meshroute.cli"],
                       env=env, cwd=ROOT, check=True)
        self.out_dir = OUT / "sweep"
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.solves: list[Solve] = []

    def plan(self, i: int):
        return self.m.cli.ExperimentPlan(
            node_sizes=[SWEEP_NODES], algorithms=list(ALGORITHMS),
            seeds_per_cell=1, base_seed=self.seed * 10_007 + i)

    def op(self, i: int):
        self.solves = []
        plan = self.plan(i)
        self.m.cli.run_bench(plan, str(self.out_dir), workers=1)
        return plan

    def install(self, tracer) -> None:
        # An instance lasts about a second, over which the host's speed
        # moves, so the reference kernel is also sampled after generation,
        # source selection and each solve.  cli.run is wrapped so every solve
        # is checked on its topology while that topology is alive.  Both are
        # left out of the operation's time.
        cli = self.m.cli
        self._restore = {name: cli.__dict__[name] for name in
                         ("generate_topology", "default_source", "run")}

        def sampled(fn, check=None):
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                with self.runner.off_clock(tracer):
                    if check is not None:
                        check(args, result)
                    self.runner.sample_kernel()
                return result
            return wrapper

        cli.generate_topology = sampled(cli.generate_topology)
        cli.default_source = sampled(cli.default_source)
        cli.run = sampled(cli.run, self.check_solve)

    def uninstall(self) -> None:
        for name, fn in self._restore.items():
            setattr(self.m.cli, name, fn)

    def check_solve(self, args, result) -> None:
        solve = Solve(*args[:4], result)
        solve.problems = check_solve(solve, self.m)
        if not self.solves and self.current < self.quality_ops:
            self.digest.update(solve.topo.to_json().encode())
        solve.topo = None
        self.solves.append(solve)

    def check(self, i: int, plan) -> list[str]:
        problems = [p for s in self.solves for p in s.problems]
        if len(self.solves) != len(ALGORITHMS):
            return problems + [f"{len(self.solves)} solves, expected "
                               f"{len(ALGORITHMS)}"]
        rows = {}
        for table in ("convergence_time", "pdr", "delay", "fitness_trace",
                      "summary"):
            with open(self.out_dir / f"{table}.csv", newline="") as fh:
                rows[table] = list(csv.DictReader(fh))
            for row in rows[table]:
                for key, value in row.items():
                    if key != "algorithm" and not math.isfinite(float(value)):
                        problems.append(f"{table}.csv: {key}={value}")
        expected = sorted((a, str(plan.base_seed)) for a in ALGORITHMS)
        for table in ("convergence_time", "pdr", "delay"):
            got = sorted((r["algorithm"], r["seed"]) for r in rows[table])
            if got != expected:
                problems.append(f"{table}.csv rows {got}, expected {expected}")
        if problems:
            return problems
        by_alg = {t: {r["algorithm"]: r for r in rows[t]}
                  for t in ("convergence_time", "pdr", "delay")}
        for solve in self.solves:
            alg = solve.result.algorithm
            if float(by_alg["convergence_time"][alg]["best_total"]) \
                    != solve.result.best_fitness.total:
                problems.append(f"{alg}: CSV best_total differs from the run")
            pdr = float(by_alg["pdr"][alg]["pdr"])
            if not 0.0 <= pdr <= 1.0:
                problems.append(f"{alg}: pdr {pdr} outside [0, 1]")
            self.record(i, solve, pdr,
                        float(by_alg["delay"][alg]["avg_delay_ms"]))
        return problems


WORKLOADS = {w.name: w for w in (SweepWorkload, QueryWorkload,
                                 ColdRouteWorkload)}


class Runner:
    """Times operations in a closed loop and tallies check failures.

    An operation's measured time is split at each reference-kernel sample
    taken inside it; each piece is scaled by REF_S over the mean of the
    kernel times at its two ends.
    """

    def __init__(self, workload: Workload):
        self.w = workload
        workload.runner = self
        self.attempted = 0
        self.failed = 0
        self.raw: list[float] = []  # operation seconds as measured
        self.kernel_samples: list[float] = []
        # Clock of the current operation: its start, time excluded so far,
        # start of the current off-clock stretch, and the kernel samples as
        # (operation time so far, kernel seconds).
        self._t0 = 0.0
        self._excluded = 0.0
        self._off_start = 0.0
        self._marks: list[tuple[float, float]] = []

    def sample_kernel(self) -> None:
        """Time the reference kernel; call it inside off_clock()."""
        self._marks.append((self._off_start - self._t0 - self._excluded,
                            kernel_s()))
        self.kernel_samples.append(self._marks[-1][1])

    @contextlib.contextmanager
    def off_clock(self, tracer=None):
        """Work inside an operation that is not part of it: output checks
        and kernel samples.  Traced, it is a CHECK_SPAN with the tracer
        paused."""
        self._off_start = time.perf_counter()
        span = tracer.open(CHECK_SPAN) if tracer is not None else None
        pause = tracer.pause() if tracer is not None else \
            contextlib.nullcontext()
        try:
            with pause:
                yield
        finally:
            if span is not None:
                tracer.close(span)
            self._excluded += time.perf_counter() - self._off_start

    def one(self, i: int, tracer=None) -> float:
        """Run and check operation i; returns its time in reference seconds."""
        w = self.w
        w.current = i
        self.attempted += 1
        # The previous operation's last kernel sample opens this one.
        self._marks = [(0.0, self._marks[-1][1] if self._marks
                        else kernel_s())]
        out = None
        span = None
        self._excluded = 0.0
        self._t0 = time.perf_counter()
        try:
            if tracer is not None:
                tracer.op_id = i + 1
                span = tracer.open(OP_SPAN)
            out = w.op(i)
        except Exception:
            traceback.print_exc(file=sys.stderr)
        finally:
            if span is not None:
                tracer.close(span)
        self._off_start = time.perf_counter()
        elapsed = self._off_start - self._t0 - self._excluded
        if out is None:
            problems = ["operation raised"]
        else:
            try:
                with tracer.pause() if tracer else contextlib.nullcontext():
                    problems = w.check(i, out)
            except Exception:
                problems = [traceback.format_exc()]
        if problems:
            self.failed += 1
            print(f"op {i}: " + "; ".join(problems), file=sys.stderr)
        self.sample_kernel()
        marks = self._marks
        ref = sum((e1 - e0) * REF_S / ((k0 + k1) / 2)
                  for (e0, k0), (e1, k1) in zip(marks, marks[1:]))
        self.raw.append(elapsed)
        if tracer is not None:
            tracer.scale[i + 1] = ref / elapsed
        return ref

    @contextlib.contextmanager
    def hooked(self, tracer=None):
        """Tracing patches (when given) and the workload's check hooks."""
        if tracer is not None:
            tracer.install()
        self.w.install(tracer)
        try:
            yield
        finally:
            self.w.uninstall()
            if tracer is not None:
                tracer.restore()


def machine_info() -> dict:
    import networkx
    import numpy
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "networkx": networkx.__version__, "nproc": os.cpu_count(),
            "cpu": cpu}


def timed_setup(w: Workload) -> float:
    """One set-up of the workload, in reference seconds."""
    before = kernel_s()
    t0 = time.perf_counter()
    w.setup()
    elapsed = time.perf_counter() - t0
    return elapsed * REF_S / ((before + kernel_s()) / 2)


def untraced_run(w: Workload, seconds: float) -> tuple[Runner, dict, dict]:
    setup_s = [timed_setup(w) for _ in range(SETUP_REPS)]
    gc.collect()
    runner = Runner(w)
    times: list[float] = []
    with runner.hooked():
        while (sum(runner.raw) < seconds or len(times) < w.quality_ops
               or len(times) % w.stride):
            times.append(runner.one(len(times)))
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    feasible, totals, pdrs, delays = zip(*w.quality)
    metrics = {
        "setup_s": statistics.median(setup_s),
        "ops_per_s": len(times) / sum(times),
        "op_ms_p50": 1000.0 * statistics.median(times),
        "peak_rss_mb": peak_mb,
        "pdr_mean": statistics.fmean(pdrs),
    }
    info = {
        "ops": len(times),
        # Needs 100 operations to have ten beyond it; the sweep runs ~20.
        "op_ms_p90": 1000.0 * statistics.quantiles(times, n=10)[8],
        "measured_ops_per_s": len(times) / sum(runner.raw),
        "measured_op_ms_p50": 1000.0 * statistics.median(runner.raw),
        "kernel_ms_median": 1000.0 * statistics.median(runner.kernel_samples),
        "failed_frac": runner.failed / runner.attempted,
        "quality_solves": len(w.quality),
        "feasible_frac": statistics.fmean(feasible),
        "delay_ms_mean": statistics.fmean(delays),
        "best_total_gmean": math.exp(statistics.fmean(map(math.log, totals))),
        "behaviour_sha256": w.digest.hexdigest(),
    }
    return runner, metrics, info


def traced_run(w: Workload, seconds: float) -> tuple[Runner, dict, dict]:
    tracer = Tracer()
    before = kernel_s()
    tracer.install()
    try:
        w.setup()
    finally:
        tracer.restore()
    tracer.scale[0] = REF_S / ((before + kernel_s()) / 2)
    gc.collect()
    # Each operation runs untraced, then traced, so drift on the machine
    # affects both sides of the overhead alike.
    runner = Runner(w)
    untraced = []
    count = math.ceil(seconds * w.trace_ops_per_s / w.stride) * w.stride
    for i in range(count):
        with runner.hooked():
            untraced.append(runner.one(i))
        with runner.hooked(tracer):
            runner.one(i, tracer)
    OUT.mkdir(exist_ok=True)
    spans_file = OUT / f"spans-{w.name}-seed{w.seed}.npz"
    tracer.save(str(spans_file))
    metrics = tracer.layer_metrics(untraced)
    info = {"spans_file": str(spans_file.relative_to(ROOT))}
    return runner, metrics, info


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    load_program()
    w = WORKLOADS[args.workload](args.seed, Original())
    if args.trace:
        units = LAYER_METRICS
        runner, metrics, info = traced_run(w, args.seconds)
    else:
        units = END_TO_END
        runner, metrics, info = untraced_run(w, args.seconds)

    print(f"workload {w.name}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print("machine " + json.dumps(machine_info()))
    print(f"  an op is {w.op_is}; times are in reference seconds (REF_S)")
    for name, unit in units:
        print(f"  {name:<44} {metrics[name]:.6g} {unit}")
    for key, value in info.items():
        print(f"  {key:<44} {value}")
    print(f"  {'attempted':<44} {runner.attempted}")
    print(f"  {'failed':<44} {runner.failed}")
    correct = runner.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
