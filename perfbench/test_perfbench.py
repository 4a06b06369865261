"""Self-tests of the benchmark, at a tiny scale.

Run from the repository root: python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import layers  # noqa: E402
import outputs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from virtree.cli import main as cli_main  # noqa: E402
from virtree.scenario import build_scenario  # noqa: E402


def _scenario(tmp_path, name: str, raw: dict) -> str:
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(raw))
    return str(path)


TINY_ADJACENT = {
    "topology": {"workers_per_cluster": 2, "clusters_per_region": 2, "regions_per_hub": 4},
    "coordinator": {"K": 3, "T_min": 2},
    "strategy": "adjacent",
    "commands": [{"time": 0.5, "origin": 0, "scope": {"kind": "global"}}],
    "seed": 5, "horizon": 40.0,
}
TINY_TREE = {
    "topology": {"workers_per_cluster": 2, "clusters_per_region": 2, "regions_per_hub": 2,
                 "hubs_per_domain": 2, "domains": 2},
    "coordinator": {"K": 3, "T_min": 2},
    "strategy": "hierarchical",
    "commands": [{"time": 0.5, "origin": 0, "scope": {"kind": "domain", "id": 1}}],
    "seed": 6, "horizon": 15.0,
}


def _run(tmp_path, name: str, raw: dict) -> tuple[str, str]:
    scenario = _scenario(tmp_path, name, raw)
    out = str(tmp_path / f"out-{name}")
    assert cli_main(["run", "--scenario", scenario, "--out", out]) == 0
    return scenario, out


def _rewrite_json(path: str, edit):
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    edit(obj)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


@pytest.mark.parametrize("workload", sorted(workloads.GENERATORS))
def test_generator_is_deterministic_per_seed(workload):
    text = workloads.scenario_text(workload, 3)
    assert text == workloads.scenario_text(workload, 3)
    assert text != workloads.scenario_text(workload, 4)
    build_scenario(json.loads(text))  # valid input for the CLI


def test_conserved_gate(tmp_path):
    _, out = _run(tmp_path, "adj", TINY_ADJACENT)
    path = os.path.join(out, "metrics.json")
    assert outputs.check_conserved(outputs.read_json(path)) == []
    _rewrite_json(path, lambda m: m.update(conserved=False))
    assert outputs.check_conserved(outputs.read_json(path))


def test_oracle_gate_catches_missing_and_duplicate_executions(tmp_path):
    scenario, out = _run(tmp_path, "adj", TINY_ADJACENT)
    trace = os.path.join(out, "trace.jsonl")
    assert outputs.check_oracle(trace, scenario) == []
    with open(trace, encoding="utf-8") as fh:
        lines = fh.readlines()
    first = next(i for i, line in enumerate(lines) if '"execute_cluster"' in line)

    dropped = tmp_path / "dropped.jsonl"
    dropped.write_text("".join(lines[:first] + lines[first + 1:]))
    assert any("missing" in f for f in outputs.check_oracle(str(dropped), scenario))

    doubled = tmp_path / "doubled.jsonl"
    doubled.write_text("".join(lines + [lines[first]]))
    assert any("more than once" in f for f in outputs.check_oracle(str(doubled), scenario))


def test_hop_gate(tmp_path):
    _, out = _run(tmp_path, "tree", TINY_TREE)
    path = os.path.join(out, "metrics.json")
    metrics = outputs.read_json(path)
    assert max(m["max_hop"] for m in metrics["messages"].values()) == 8
    assert outputs.check_hop_bound(metrics, 5) == []
    _rewrite_json(path, lambda m: m["messages"]["0:0"].update(max_hop=9))
    assert outputs.check_hop_bound(outputs.read_json(path), 5)


def test_containment_gate(tmp_path):
    _, out = _run(tmp_path, "tree", TINY_TREE)
    path = os.path.join(out, "metrics.json")
    assert outputs.check_containment(outputs.read_json(path)) == []
    _rewrite_json(path, lambda m: m.update(cross_region_maintenance=1))
    assert outputs.check_containment(outputs.read_json(path))


def test_liveness_gate(tmp_path):
    scenario = _scenario(tmp_path, "k", TINY_ADJACENT)
    out = str(tmp_path / "k")
    assert cli_main(["sweep", "--scenario", scenario, "--param", "K", "--values", "1,2",
                     "--trials", "2000", "--out", out]) == 0
    rows = outputs.read_csv_rows(os.path.join(out, "sweep.csv"))
    assert outputs.check_k_rows(rows) == []
    rows[1]["within_3sigma"] = "False"
    assert outputs.check_k_rows(rows) == ["liveness: K=2 outside the 3-sigma band of 1 - p^K"]
    assert outputs.check_k_rows([])


def test_repetitions_must_agree():
    ref = {"hashes": {"trace.jsonl": "a"}, "counts": {"trace_records": 3}}
    assert run.consistency_failures(ref, json.loads(json.dumps(ref))) == []
    assert run.consistency_failures(ref, {**ref, "hashes": {"trace.jsonl": "b"}})
    assert run.consistency_failures(ref, {**ref, "counts": {"trace_records": 4}})
    failed = {**ref, "failures": ["oracle: 0:0 missing"]}
    assert run.inherited_failures(failed, json.loads(json.dumps(ref))) == [
        "same outputs as the checked repetition: oracle: 0:0 missing"]


def test_exit_code_and_timeout_are_failures():
    status, code, _ = run.run_child([sys.executable, "-c", "raise SystemExit(3)"], 30)
    assert (status, code) == ("exit", 3)
    status, code, _ = run.run_child(
        [sys.executable, "-c", "import time; time.sleep(30)"], 0.5)
    assert (status, code) == ("timeout", None)


def test_traced_run_leaves_outputs_identical(tmp_path):
    scenario = _scenario(tmp_path, "tree", TINY_TREE)
    plain, traced = str(tmp_path / "plain"), str(tmp_path / "traced")
    assert cli_main(["run", "--scenario", scenario, "--out", plain]) == 0
    tracer = layers.Tracer()
    tracer.install()
    try:
        assert cli_main(["run", "--scenario", scenario, "--out", traced]) == 0
    finally:
        tracer.uninstall()
    assert tracer.absent == []
    for name in ("trace.jsonl", "metrics.json"):
        assert (outputs.sha256_file(os.path.join(plain, name))
                == outputs.sha256_file(os.path.join(traced, name)))
    m = layers.per_layer_metrics(tracer, {}, 1.0, 1.0)
    assert m["alg3.route.calls.apex"][0] == 1
    assert m["alg3.leaf.calls"][0] > 0 and m["alg1.receive.calls"][0] == 0
    st = tracer.stats["simkernel.run"]
    assert 0 < st[2] < st[1]  # self time excludes the nested handler spans


def test_tracer_reports_missing_targets_absent(tmp_path):
    scenario = _scenario(tmp_path, "tree", TINY_TREE)
    targets = dict(layers.TARGETS)
    targets["alg3.covers"] = ("virtree.hierarchical", "TreeLinks.no_such_method")
    targets["simkernel.run"] = ("virtree.simkernel", "NoSuchKernel.run")
    tracer = layers.Tracer()
    tracer.install(targets)
    try:
        assert cli_main(["run", "--scenario", scenario,
                         "--out", str(tmp_path / "out")]) == 0
    finally:
        tracer.uninstall()
    assert tracer.absent == ["simkernel.run", "alg3.covers"]
    m = layers.per_layer_metrics(tracer, {}, 1.0, 1.0)
    for name in ("alg3.covers.calls", "alg3.covers_per_route", "simkernel.loop_self_s",
                 "simkernel.events_per_s", "alg3.self_s"):
        assert m[name][0] is None
    assert m["alg3.leaf.calls"][0] > 0


def test_child_repetition_end_to_end(tmp_path, monkeypatch):
    """One real child process on a tiny scenario passes every gate."""
    monkeypatch.chdir(ROOT)
    scenario = _scenario(tmp_path, "adj", TINY_ADJACENT)
    r = run.repetition("adjacent-flood", scenario, str(tmp_path / "out"),
                       check=True, traced=True, timeout=60)
    assert r["failures"] == []
    assert r["wall_s"] > 0 and r["setup_s"] > 0 and r["peak_rss_mb"] > 0
    assert r["model"]["goal_fraction"] == 1.0
    assert r["tracer"]["absent"] == []
