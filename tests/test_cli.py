import csv
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

from meshroute.topology import MeshTopology
from meshroute.qos import FitnessBreakdown, PenaltyCoeffs, QosRequest
from meshroute.routing import RunResult
from meshroute.simulation import SimResult
from meshroute import cli
from meshroute.cli import (ExperimentPlan, default_source, main, run_bench,
                           write_bench_outputs)

from conftest import make_topo, without_wall_times
from oracle import oracle_best


SRC = Path(__file__).resolve().parent.parent / "src"


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def test_module_entry_point_prints_no_warning():
    # Importing meshroute must not import meshroute.cli, or runpy warns
    # that the module it is about to run is already in sys.modules.
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [
               str(SRC), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-m", "meshroute.cli", "--help"],
                         env=env, capture_output=True, text=True)
    assert out.returncode == 0
    assert out.stderr == ""


class TestGen:
    def test_writes_topology_and_reports_counts(self, tmp_path, capsys):
        out = tmp_path / "topo.json"
        rc = main(["gen", "--nodes", "25", "--seed", "42", "--out", str(out)])
        assert rc == 0
        topo = MeshTopology.from_json(out.read_text())
        assert topo.node_count == 25
        assert len(topo.gateways) == 3
        captured = capsys.readouterr().out
        assert "25 nodes" in captured

    def test_single_node_is_usage_error(self, tmp_path, capsys):
        rc = main(["gen", "--nodes", "1", "--out", str(tmp_path / "t.json")])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_negative_seed_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "t.json"
        rc = main(["gen", "--nodes", "25", "--seed", "-1", "--out", str(out)])
        assert rc == 2
        assert "rng_seed" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("area", [["nan", "1000"], ["inf", "1000"],
                                      ["1000", "nan"]])
    def test_non_finite_area_is_usage_error(self, tmp_path, capsys, area):
        out = tmp_path / "t.json"
        rc = main(["gen", "--nodes", "25", "--area", *area, "--out", str(out)])
        assert rc == 2
        assert "error" in capsys.readouterr().err
        assert not out.exists()

    def test_same_flags_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert main(["gen", "--nodes", "25", "--seed", "7",
                         "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestRoute:
    @pytest.fixture
    def topo_file(self, tmp_path):
        out = tmp_path / "topo.json"
        main(["gen", "--nodes", "12", "--seed", "3", "--out", str(out)])
        return str(out)

    def test_two_node_topology(self, tmp_path, capsys):
        out = tmp_path / "two.json"
        main(["gen", "--nodes", "2", "--area", "1", "1", "--gateways", "1",
              "--out", str(out)])
        capsys.readouterr()
        assert main(["route", str(out)]) == 0
        text = capsys.readouterr().out
        assert "best path:" in text
        assert "iteration" in text

    def test_seeded_runs_identical(self, topo_file, capsys):
        outputs = []
        for _ in range(2):
            assert main(["route", topo_file, "--algorithm", "hybrid",
                         "--seed", "7", "--json"]) == 0
            outputs.append(without_wall_times(
                json.loads(capsys.readouterr().out)))
        assert outputs[0] == outputs[1]

    def test_matches_oracle_on_small_topology(self, topo_file, capsys):
        assert main(["route", topo_file, "--seed", "5", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        topo = MeshTopology.from_json(open(topo_file).read())
        req = QosRequest(5.0, 10.0, 2.5, 0.0)
        coeffs = PenaltyCoeffs.for_request(req, topo)
        source = default_source(topo)
        _, fb = oracle_best(topo, source, req, coeffs)
        assert data["best_fitness"]["total"] == pytest.approx(fb.total)

    def test_gateway_source_is_usage_error(self, topo_file, capsys):
        topo = MeshTopology.from_json(open(topo_file).read())
        gateway = min(topo.gateways)
        assert main(["route", topo_file, "--source", str(gateway)]) == 2
        assert "error: source is a gateway" in capsys.readouterr().err

    @pytest.mark.parametrize("source_args", [[], ["--source", "0"]])
    def test_unreachable_gateway_is_usage_error(self, tmp_path, capsys,
                                                source_args):
        # Gateway 2 has no link: no node can reach it.
        doc = tmp_path / "cut.json"
        doc.write_text(make_topo(3, {(0, 1): {}}, gateways={2}).to_json())
        assert main(["route", str(doc), *source_args]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_missing_file_errors(self, capsys):
        assert main(["route", "/nonexistent/topo.json"]) == 1
        assert "cannot load" in capsys.readouterr().err

    def test_negative_link_endpoint_errors(self, tmp_path, capsys):
        # Node -1 must not index its way to node 2.
        doc = make_topo(3, {(0, 1): {}, (1, 2): {}}, gateways={2}).to_dict()
        doc["links"][1].update(u=-1, v=1)
        path = tmp_path / "negative.json"
        path.write_text(json.dumps(doc))
        assert main(["route", str(path), "--source", "0"]) == 1
        assert "error: cannot load" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [("range", "abc"), ("range", -1),
                                              ("x", "abc"), ("range", True),
                                              ("x", True)])
    def test_malformed_number_errors(self, tmp_path, capsys, field, value):
        # "range" "abc" once escaped as a plain ValueError (exit 2); the
        # others loaded and ran.
        doc = make_topo(3, {(0, 1): {}, (1, 2): {}}, gateways={2}).to_dict()
        {"range": doc, "x": doc["nodes"][1]}[field][field] = value
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(doc))
        assert main(["route", str(path), "--source", "0"]) == 1
        assert "error: cannot load" in capsys.readouterr().err

    def test_bool_node_id_errors(self, tmp_path, capsys):
        # True == 1, so node {"id": true} used to load as node 1 and the
        # route came out as 0-True-2 with fitness inf.
        doc = make_topo(3, {(0, 1): {}, (1, 2): {}}, gateways={2}).to_dict()
        doc["nodes"][1]["id"] = True
        doc["links"][0]["v"] = True
        path = tmp_path / "bool.json"
        path.write_text(json.dumps(doc))
        assert main(["route", str(path), "--source", "0"]) == 1
        assert "error: cannot load" in capsys.readouterr().err


class TestBench:
    PLAN = dict(node_sizes=[12], algorithms=["hybrid"], seeds_per_cell=2,
                max_iterations=20, packet_count=500)

    def test_row_accounting(self, tmp_path):
        run_bench(ExperimentPlan(**self.PLAN), str(tmp_path))
        traces = read_csv(tmp_path / "fitness_trace.csv")
        seeds = {r["seed"] for r in traces}
        assert len(seeds) == 2
        assert len(read_csv(tmp_path / "pdr.csv")) == 2
        assert len(read_csv(tmp_path / "delay.csv")) == 2
        assert len(read_csv(tmp_path / "convergence_time.csv")) == 2

    def test_summary_has_all_cells_and_correct_medians(self, tmp_path):
        plan = ExperimentPlan(node_sizes=[10, 12], algorithms=["pso", "hybrid"],
                              seeds_per_cell=3, max_iterations=15,
                              packet_count=200)
        run_bench(plan, str(tmp_path))
        summary = read_csv(tmp_path / "summary.csv")
        assert len(summary) == 4
        raw = read_csv(tmp_path / "pdr.csv")
        for row in summary:
            cell = [float(r["pdr"]) for r in raw
                    if r["size"] == row["size"]
                    and r["algorithm"] == row["algorithm"]]
            assert float(row["mean_pdr"]) == pytest.approx(
                statistics.mean(cell))

    def test_rerun_identical_except_wall_time(self, tmp_path):
        plan = ExperimentPlan(**self.PLAN)
        run_bench(plan, str(tmp_path / "a"))
        run_bench(plan, str(tmp_path / "b"))
        for name in ("fitness_trace.csv", "pdr.csv", "delay.csv",
                     "convergence_time.csv", "summary.csv"):
            a, b = (read_csv(tmp_path / side / name) for side in "ab")
            assert ([without_wall_times(row) for row in a]
                    == [without_wall_times(row) for row in b])

    def test_rows_replay_exactly(self, tmp_path):
        from meshroute.cli import run_cell
        plan = ExperimentPlan(**self.PLAN)
        run_bench(plan, str(tmp_path))
        original = read_csv(tmp_path / "convergence_time.csv")
        assert len(original) == plan.seeds_per_cell
        for index, row in enumerate(original):
            [((size, algorithm, seed), rerun, _)] = run_cell(12, index, plan)
            assert (size, algorithm) == (12, "hybrid")
            assert row["seed"] == str(seed)
            assert row["best_total"] == repr(rerun.best_fitness.total)
            assert row["iterations_to_best"] == str(rerun.iterations_to_best)

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "plan.json"
        cfg.write_text(json.dumps(self.PLAN))
        out_dir = tmp_path / "out"
        rc = main(["bench", "--config", str(cfg), "--seeds", "1",
                   "--out-dir", str(out_dir)])
        assert rc == 0
        assert len(read_csv(out_dir / "pdr.csv")) == 1

    @pytest.mark.parametrize("document", [
        {"swarmsize": 30},
        [1, 2],
        {"swarm_size": 2.5},
        {"seeds_per_cell": True},
        {"packet_count": 0},
        {"node_sizes": [12, 12]},
        {"algorithms": ["hybrid", "hybrid"]},
        # Once swept at 1 Mbps.
        {"bw_req": True},
    ], ids=["unknown-key", "not-an-object", "float-count", "bool-count",
            "zero-packets", "repeated-size", "repeated-algorithm",
            "bool-bw-req"])
    def test_bad_plan_file_rejected_on_load(self, tmp_path, capsys,
                                            monkeypatch, document):
        if isinstance(document, dict):
            document = {**self.PLAN, **document}
        cfg = tmp_path / "plan.json"
        cfg.write_text(json.dumps(document))

        def generate_topology(params):
            raise AssertionError("a bad plan reached the sweep")
        monkeypatch.setattr(cli, "generate_topology", generate_topology)
        rc = main(["bench", "--config", str(cfg),
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("flags", [
        ["--sizes", "25", "25"],
        ["--algorithms", "pso", "pso"],
        ["--workers", "0"],
        ["--workers", "-3"],
    ], ids=["repeated-size", "repeated-algorithm", "zero-workers",
            "negative-workers"])
    def test_bad_flags_rejected_before_the_sweep(self, tmp_path, capsys,
                                                 monkeypatch, flags):
        # Repeats once wrote one instance's rows several times, and summary
        # cells counted them as seeds; workers below 1 once ran serially.
        def generate_topology(params):
            raise AssertionError("a bad plan reached the sweep")
        monkeypatch.setattr(cli, "generate_topology", generate_topology)
        rc = main(["bench", "--seeds", "1", *flags,
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_summary_delay_is_the_cell_mean(self, tmp_path):
        # Delays 1, 2 and 6 ms: the mean is 3, the median 2.
        fit = FitnessBreakdown(objective=2.0, penalty=0.0, total=2.0,
                               feasible=True)
        runs = [([25, "pso", seed],
                 RunResult(best_path=[0, 1], best_fitness=fit,
                           fitness_trace=[2.0], incumbent_paths=[[0, 1]],
                           iterations_executed=1, iterations_to_best=1,
                           wall_time_ms=0.0, time_to_best_ms=0.0, seed=seed,
                           algorithm="pso"),
                 SimResult(pdr=1.0, avg_delay=delay, delivered_count=10,
                           packet_count=10))
                for seed, delay in enumerate([1.0, 2.0, 6.0])]
        write_bench_outputs(runs, str(tmp_path))
        [row] = read_csv(tmp_path / "summary.csv")
        assert float(row["mean_avg_delay_ms"]) == 3.0

    def test_missing_plan_file_errors(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        assert main(["bench", "--config", str(missing),
                     "--out-dir", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith(
            f"error: cannot load {missing}:")

    def test_parallel_matches_serial(self, tmp_path):
        plan = ExperimentPlan(node_sizes=[10], algorithms=["pso", "hybrid"],
                              seeds_per_cell=2, max_iterations=10,
                              packet_count=100)
        run_bench(plan, str(tmp_path / "serial"), workers=1)
        run_bench(plan, str(tmp_path / "par"), workers=2)
        assert (tmp_path / "serial" / "pdr.csv").read_bytes() == \
            (tmp_path / "par" / "pdr.csv").read_bytes()
