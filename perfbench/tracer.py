"""Span recorder and layer instrumentation for the traced benchmark run.

`Tracer.install()` replaces each layer function of meshroute with a wrapper
that records one span per call: name, start, end, parent span and operation
id.  Every name is patched where its caller looks it up (for example both
`meshroute.routing.run` and `meshroute.cli.run`), and `restore()` puts the
originals back.  Spans are held in flat arrays and written out at the end;
`layer_metrics()` turns them into per-layer calls, busy time, self time
(span time minus the time of its child spans) and the counters below.

Counters are gathered in the same wrappers, so every ratio is measured where
the work happens.  Each ratio's base is named in LAYER_METRICS.
"""

from __future__ import annotations

import contextlib
import importlib
import math
import time
import weakref
from array import array
from collections import Counter

import numpy as np

# Spans of the benchmark's own code; they are not layers of the program.
OP_SPAN = "bench.op"
CHECK_SPAN = "bench.check"

# (layer name, [(module, attribute), ...]) for plain functions.  Each layer
# is patched in every namespace a caller resolves it from.
FUNCTION_LAYERS = [
    ("topology.generate_topology", [("topology", "generate_topology"),
                                    ("cli", "generate_topology")]),
    ("topology.validate_path", [("routing", "validate_path"),
                                ("qos", "validate_path"),
                                ("simulation", "validate_path")]),
    ("cli.run_bench", [("cli", "run_bench")]),
    ("cli.run_cell", [("cli", "run_cell")]),
    ("cli.default_source", [("cli", "default_source")]),
    ("cli.write_bench_outputs", [("cli", "write_bench_outputs")]),
    ("routing.run", [("routing", "run"), ("cli", "run"), ("simulation", "run")]),
    ("routing.init_swarm", [("routing", "init_swarm")]),
    ("routing.random_walk_path", [("routing", "random_walk_path")]),
    ("routing.dedupe", [("routing", "dedupe")]),
    ("routing.elitism_split", [("routing", "elitism_split")]),
    ("routing.oplus_update", [("routing", "oplus_update")]),
    ("routing.combine_paths", [("routing", "combine_paths")]),
    ("routing.repair_path", [("routing", "repair_path")]),
    ("routing.two_point_crossover", [("routing", "two_point_crossover")]),
    ("routing.mutate", [("routing", "mutate")]),
    ("qos.fitness", [("routing", "fitness"), ("qos", "fitness")]),
    ("qos.path_metrics", [("qos", "path_metrics")]),
    ("simulation.simulate_path", [("simulation", "simulate_path"),
                                  ("cli", "simulate_path")]),
]

# Methods of MeshTopology; shortest_path and shortest_path_cost share one
# Dijkstra cache, so they form one layer.
METHOD_LAYERS = [
    ("topology.shortest_path", "shortest_path_cost"),
    ("topology.shortest_path", "shortest_path"),
]
CLASSMETHOD_LAYERS = [
    ("topology.from_json", "from_json"),
]

# Every per-layer metric the traced run reports: (name, unit).  Ratios name
# their base in the comment beside them.
LAYER_METRICS = [
    ("topology.generate_topology.calls", "count"),
    ("topology.generate_topology.busy_s", "s"),
    ("topology.generate_topology.setup_busy_s", "s"),
    ("topology.shortest_path.calls", "count"),
    ("topology.shortest_path.busy_s", "s"),
    # Topology/source pairs first requested during the operations: each one
    # is one Dijkstra run.
    ("topology.shortest_path.sources", "count"),
    ("topology.from_json.calls", "count"),
    ("topology.from_json.busy_s", "s"),
    ("topology.validate_path.calls", "count"),
    ("topology.validate_path.self_s", "s"),
    ("cli.run_cell.self_s", "s"),
    ("cli.default_source.calls", "count"),
    ("cli.default_source.busy_s", "s"),
    ("cli.default_source.setup_busy_s", "s"),
    ("cli.write_bench_outputs.busy_s", "s"),
    ("routing.run.calls", "count"),
    ("routing.run.busy_s", "s"),
    ("routing.run.self_s", "s"),
    ("routing.run.iterations", "count"),
    # Share of runs whose best route is feasible; base routing.run.calls.
    ("routing.run.feasible_frac", "ratio"),
    # Geometric mean of best_fitness.total over those runs.
    ("routing.run.best_total_gmean", "fitness"),
    ("routing.init_swarm.self_s", "s"),
    ("routing.random_walk_path.calls", "count"),
    ("routing.random_walk_path.self_s", "s"),
    # Walks drawn inside dedupe; base routing.random_walk_path.calls.
    ("routing.random_walk_path.from_dedupe_share", "ratio"),
    ("routing.dedupe.calls", "count"),
    ("routing.dedupe.self_s", "s"),
    ("routing.dedupe.replaced", "count"),
    # Walks drawn inside dedupe per replaced particle; base dedupe.replaced.
    ("routing.dedupe.walks_per_replacement", "walks/repl"),
    # Replacements still duplicate after all retries.
    ("routing.dedupe.unresolved", "count"),
    ("routing.elitism_split.self_s", "s"),
    ("routing.oplus_update.calls", "count"),
    ("routing.oplus_update.self_s", "s"),
    # Updates that leave the particle on its route; base oplus_update.calls.
    ("routing.oplus_update.noop_ratio", "ratio"),
    ("routing.combine_paths.calls", "count"),
    ("routing.combine_paths.self_s", "s"),
    ("routing.repair_path.calls", "count"),
    ("routing.repair_path.self_s", "s"),
    # Repairs returning None; base repair_path.calls.
    ("routing.repair_path.fail_ratio", "ratio"),
    ("routing.two_point_crossover.calls", "count"),
    ("routing.two_point_crossover.self_s", "s"),
    # Children that fell back to their base parent (short parents or failed
    # repair); base 2 x two_point_crossover.calls.
    ("routing.two_point_crossover.fallback_ratio", "ratio"),
    ("routing.mutate.calls", "count"),
    ("routing.mutate.self_s", "s"),
    # Calls that returned a different route; base mutate.calls.
    ("routing.mutate.changed_ratio", "ratio"),
    ("qos.fitness.calls", "count"),
    ("qos.fitness.busy_s", "s"),
    ("qos.fitness.self_s", "s"),
    # Calls on a path already scored in the same run; base fitness.calls.
    ("qos.fitness.repeat_ratio", "ratio"),
    ("qos.path_metrics.self_s", "s"),
    ("simulation.simulate_path.calls", "count"),
    ("simulation.simulate_path.busy_s", "s"),
    ("trace.ops", "count"),
    ("trace.spans", "count"),
    ("trace.op_ms_untraced", "ms"),
    ("trace.op_ms_traced", "ms"),
    # (traced op time / untraced op time) - 1 over the same operations.
    ("trace.overhead_frac", "ratio"),
    # Layer self time inside operations / traced operation time.
    ("trace.layer_coverage", "ratio"),
]


def _ratio(num: float, base: float) -> float:
    return num / base if base else 0.0


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self._stack: list[int] = []
        self.op_id = 0
        self.counters: Counter = Counter()
        self._sources: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._scored: set = set()
        self._patches: list[tuple[object, str, object]] = []
        self.paused = False
        # Reference-speed factor per operation id (0 is the set-up); span
        # times are multiplied by it, as the end-to-end times are.
        self.scale: dict[int, float] = {}

    # -- spans ---------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name.append(self._name_id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def parent_name(self) -> str | None:
        # Name of the span enclosing the innermost open span.
        if len(self._stack) < 2:
            return None
        return self.names[self.name[self._stack[-2]]]

    @contextlib.contextmanager
    def pause(self):
        """Calls made meanwhile (output checks) record no span or count."""
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    def wrap(self, name: str, fn, after=None):
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, kwargs, result)
                return result
            finally:
                self.close(idx)
        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- counters (run inside the span they count) ---------------------------

    def _counting_phase(self) -> bool:
        return self.op_id > 0

    def _after_shortest_path(self, args, kwargs, result):
        topo, source = args[0], args[1]
        seen = self._sources.setdefault(topo, set())
        if source not in seen:
            seen.add(source)
            if self._counting_phase():
                self.counters["topology.shortest_path.sources"] += 1

    def _after_run(self, args, kwargs, result):
        self._scored = set()
        if not self._counting_phase():
            return
        self.counters["routing.run.iterations"] += result.iterations_executed
        self.counters["routing.run.feasible"] += result.best_fitness.feasible
        self.counters["routing.run.log_total"] += math.log(result.best_fitness.total)

    def _after_dedupe(self, args, kwargs, result):
        swarm = args[0]
        self.counters["routing.dedupe.replaced"] += sum(
            1 for before, after in zip(swarm, result) if before is not after)
        self.counters["routing.dedupe.unresolved"] += (
            len(result) - len({tuple(p.path) for p in result}))

    def _after_oplus(self, args, kwargs, result):
        self.counters["routing.oplus_update.noop"] += result == args[0].path

    def _after_repair(self, args, kwargs, result):
        if result is None:
            self.counters["routing.repair_path.failed"] += 1
            if self.parent_name() == "routing.two_point_crossover":
                self.counters["routing.two_point_crossover.fallback"] += 1

    def _after_crossover(self, args, kwargs, result):
        if len(args[0]) < 3 or len(args[1]) < 3:
            self.counters["routing.two_point_crossover.fallback"] += 2

    def _after_mutate(self, args, kwargs, result):
        self.counters["routing.mutate.changed"] += result != args[0]

    def _after_fitness(self, args, kwargs, result):
        key = tuple(args[1])
        if key in self._scored:
            self.counters["qos.fitness.repeat"] += 1
        else:
            self._scored.add(key)

    # -- patching ------------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Patch every layer; the patches stay until restore()."""
        hooks = {
            "routing.run": self._after_run,
            "routing.dedupe": self._after_dedupe,
            "routing.oplus_update": self._after_oplus,
            "routing.repair_path": self._after_repair,
            "routing.two_point_crossover": self._after_crossover,
            "routing.mutate": self._after_mutate,
            "qos.fitness": self._after_fitness,
        }
        for layer, sites in FUNCTION_LAYERS:
            for module_name, attr in sites:
                module = importlib.import_module(f"meshroute.{module_name}")
                original = module.__dict__[attr]
                self._patch(module, attr,
                            self.wrap(layer, original, hooks.get(layer)))
        cls = importlib.import_module("meshroute.topology").MeshTopology
        for layer, attr in METHOD_LAYERS:
            self._patch(cls, attr, self.wrap(layer, cls.__dict__[attr],
                                             self._after_shortest_path))
        for layer, attr in CLASSMETHOD_LAYERS:
            original = cls.__dict__[attr].__func__
            self._patch(cls, attr, classmethod(self.wrap(layer, original)))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def save(self, path: str) -> None:
        """Write every span; `names[name[i]]` is span i's layer."""
        np.savez(path, names=np.array(self.names), start=np.asarray(self.start),
                 end=np.asarray(self.end), name=np.asarray(self.name),
                 parent=np.asarray(self.parent), op=np.asarray(self.op))

    def layer_metrics(self, untraced_op_s: list[float]) -> dict[str, float]:
        """Per-layer metrics over operation spans (op id >= 1).

        ``untraced_op_s`` times the same operations with tracing off.  Output
        checks that run inside an operation sit in CHECK_SPAN spans and are
        left out of the operation's time.
        """
        n = len(self.start)
        start = np.asarray(self.start)
        name = np.asarray(self.name, dtype=np.int64)
        parent = np.asarray(self.parent, dtype=np.int64)
        op = np.asarray(self.op, dtype=np.int64)
        scale = np.ones(int(op.max()) + 1)
        for op_id, factor in self.scale.items():
            scale[op_id] = factor
        dur = (np.asarray(self.end) - start) * scale[op]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=n)
        self_time = dur - child
        in_ops = op > 0
        k = len(self.names)

        def per_name(mask, weights=None):
            w = None if weights is None else weights[mask]
            return np.bincount(name[mask], weights=w, minlength=k)

        calls = per_name(in_ops)
        busy = per_name(in_ops, dur)
        own = per_name(in_ops, self_time)
        setup_busy = per_name(op == 0, dur)
        ids = self._name_ids

        def get(arr, layer):
            return float(arr[ids[layer]]) if layer in ids else 0.0

        c = self.counters
        out: dict[str, float] = {}
        for metric, _unit in LAYER_METRICS:
            layer, _, kind = metric.rpartition(".")
            if kind == "calls":
                out[metric] = get(calls, layer)
            elif kind == "busy_s":
                out[metric] = get(busy, layer)
            elif kind == "self_s":
                out[metric] = get(own, layer)
            elif kind == "setup_busy_s":
                out[metric] = get(setup_busy, layer)

        walks_in_dedupe = 0.0
        if "routing.random_walk_path" in ids and "routing.dedupe" in ids:
            walk = in_ops & (name == ids["routing.random_walk_path"])
            walks_in_dedupe = float(np.count_nonzero(
                name[parent[walk]] == ids["routing.dedupe"]))
        runs = get(calls, "routing.run")
        out.update({
            "topology.shortest_path.sources":
                float(c["topology.shortest_path.sources"]),
            "routing.run.iterations": float(c["routing.run.iterations"]),
            "routing.run.feasible_frac":
                _ratio(c["routing.run.feasible"], runs),
            "routing.run.best_total_gmean":
                math.exp(_ratio(c["routing.run.log_total"], runs)),
            "routing.random_walk_path.from_dedupe_share":
                _ratio(walks_in_dedupe, get(calls, "routing.random_walk_path")),
            "routing.dedupe.replaced": float(c["routing.dedupe.replaced"]),
            "routing.dedupe.walks_per_replacement":
                _ratio(walks_in_dedupe, c["routing.dedupe.replaced"]),
            "routing.dedupe.unresolved": float(c["routing.dedupe.unresolved"]),
            "routing.oplus_update.noop_ratio":
                _ratio(c["routing.oplus_update.noop"],
                       get(calls, "routing.oplus_update")),
            "routing.repair_path.fail_ratio":
                _ratio(c["routing.repair_path.failed"],
                       get(calls, "routing.repair_path")),
            "routing.two_point_crossover.fallback_ratio":
                _ratio(c["routing.two_point_crossover.fallback"],
                       2 * get(calls, "routing.two_point_crossover")),
            "routing.mutate.changed_ratio":
                _ratio(c["routing.mutate.changed"], get(calls, "routing.mutate")),
            "qos.fitness.repeat_ratio":
                _ratio(c["qos.fitness.repeat"], get(calls, "qos.fitness")),
        })

        op_s = get(busy, OP_SPAN) - get(busy, CHECK_SPAN)
        layer_self = sum(float(own[i]) for i, nm in enumerate(self.names)
                         if not nm.startswith("bench."))
        ops = len(untraced_op_s)
        out.update({
            "trace.ops": float(ops),
            "trace.spans": float(np.count_nonzero(in_ops)),
            "trace.op_ms_untraced": 1000.0 * sum(untraced_op_s) / ops,
            "trace.op_ms_traced": 1000.0 * op_s / ops,
            "trace.overhead_frac": op_s / sum(untraced_op_s) - 1.0,
            "trace.layer_coverage": _ratio(layer_self, op_s),
        })
        return out
