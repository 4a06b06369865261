"""Smoke test of scripts/bench_global_scale.py, the harness behind the
global-command scale figures: both sides run from this checkout, on the
smallest size of each strategy's shape."""

import importlib.util
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_script():
    path = os.path.join(ROOT, "scripts", "bench_global_scale.py")
    spec = importlib.util.spec_from_file_location("bench_global_scale", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("strategy, size, horizon, pairs, failures", [
    ("adjacent", "100", "5", 2, []),
    ("hierarchical", "10000", "2", 1, []),
    ("adjacent", "200", "5", 1, ["--kills", "20", "--targets", "12"]),
], ids=["adjacent", "hierarchical", "adjacent-kills-and-targets"])
def test_pairs_of_one_checkout_write_identical_outputs(tmp_path, strategy, size, horizon,
                                                       pairs, failures):
    out = tmp_path / "bench.json"
    assert load_script().main([
        "--parent", ROOT, "--change", ROOT, "--strategy", strategy, "--sizes", size,
        "--horizon", horizon, "--pairs", str(pairs), "--work", str(tmp_path / "work"),
        "--out", str(out), *failures]) == 0
    row = json.loads(out.read_text(encoding="utf-8"))["sizes"][size]
    assert row["outputs_identical"] and row["reports_equal"]
    assert len(row["parent"]["runs"]) == len(row["change"]["runs"]) == pairs
    assert 0 <= row["pairs_won"] <= pairs


def test_kills_and_targets_are_distinct_workers():
    sc = load_script().scenario("adjacent", 200, 5.0, kills=20, targets=12)
    killed = [f["worker"] for f in sc["failures"]]
    targets = sc["commands"][0]["targets"]
    assert len(set(killed) | set(targets)) == 32 and targets == sorted(targets)
    assert all(0.5 <= f["time"] <= 5.0 and f["action"] == "kill" for f in sc["failures"])
