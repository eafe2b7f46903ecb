"""The benchmark's hooks into the program.

perfbench/tracer.py replaces layer functions by name in the modules whose
callers look them up, and the sweep workload wraps `cli.generate_topology`,
`cli.default_source` and `cli.run` and expects one `run` call per
(instance, algorithm).  A rename or a changed call shape breaks the
benchmark; these tests make it break here first.
"""

import importlib
import importlib.util
from collections import Counter
from pathlib import Path

from meshroute import cli
from meshroute.cli import ExperimentPlan

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

PLAN = dict(node_sizes=[10, 12], seeds_per_cell=2, max_iterations=5,
            packet_count=100)


def load_tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def patched_sites(tracer_module):
    """(module, attribute) of every plain function the tracer patches."""
    return [(importlib.import_module(f"meshroute.{module}"), attr)
            for _, sites in tracer_module.FUNCTION_LAYERS
            for module, attr in sites]


def test_tracer_installs_records_and_restores(tmp_path):
    tracer_module = load_tracer_module()
    sites = patched_sites(tracer_module)
    originals = [module.__dict__[attr] for module, attr in sites]
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        for (module, attr), original in zip(sites, originals):
            assert module.__dict__[attr] is not original, (module, attr)
        cli.run_bench(ExperimentPlan(**{**PLAN, "node_sizes": [10],
                                        "seeds_per_cell": 1}),
                      str(tmp_path))
    finally:
        tracer.restore()
    for (module, attr), original in zip(sites, originals):
        assert module.__dict__[attr] is original, (module, attr)
    calls = Counter(tracer.names[i] for i in tracer.name)
    assert calls["cli.run_bench"] == 1
    assert calls["cli.run_cell"] == 1
    assert calls["topology.generate_topology"] == 1
    assert calls["cli.default_source"] == 1
    assert calls["routing.run"] == 3
    assert calls["simulation.simulate_path"] == 3


def test_sweep_builds_each_instance_once(tmp_path, monkeypatch):
    """The sweep workload checks every solve from its `cli.run` arguments
    and fails an instance without exactly one solve per algorithm."""
    calls = {"generate_topology": [], "default_source": [], "run": []}
    for name, record in calls.items():
        original = getattr(cli, name)

        def recording(*args, _original=original, _record=record, **kwargs):
            result = _original(*args, **kwargs)
            _record.append((args, kwargs, result))
            return result
        monkeypatch.setattr(cli, name, recording)

    plan = ExperimentPlan(**PLAN)
    cli.run_bench(plan, str(tmp_path))
    instances = len(plan.node_sizes) * plan.seeds_per_cell
    assert len(calls["generate_topology"]) == instances
    assert len(calls["run"]) == instances * len(plan.algorithms)
    assert all(len(args) >= 4 and not kwargs
               for args, kwargs, _ in calls["run"])
    # Every algorithm solves the instance's one topology from its one source.
    topologies = [topo for _, _, topo in calls["generate_topology"]]
    assert [args[0] for args, _, _ in calls["default_source"]] == topologies
    sources = [source for _, _, source in calls["default_source"]]
    assert [(args[0], args[1], args[4].algorithm)
            for args, _, _ in calls["run"]] == [
        (topo, source, alg) for topo, source in zip(topologies, sources)
        for alg in plan.algorithms]
