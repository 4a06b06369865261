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


@pytest.mark.parametrize("strategy, size, horizon, pairs", [
    ("adjacent", "100", "5", 2),
    ("hierarchical", "10000", "2", 1),
], ids=["adjacent", "hierarchical"])
def test_pairs_of_one_checkout_write_identical_outputs(tmp_path, strategy, size, horizon,
                                                       pairs):
    out = tmp_path / "bench.json"
    assert load_script().main([
        "--parent", ROOT, "--change", ROOT, "--strategy", strategy, "--sizes", size,
        "--horizon", horizon, "--pairs", str(pairs), "--work", str(tmp_path / "work"),
        "--out", str(out)]) == 0
    row = json.loads(out.read_text(encoding="utf-8"))["sizes"][size]
    assert row["outputs_identical"] and row["reports_equal"]
    assert len(row["parent"]["runs"]) == len(row["change"]["runs"]) == pairs
    assert 0 <= row["pairs_won"] <= pairs
