"""Reading a run's output files: hashes, exact counts, model metrics and gates.

Everything here works on files the virtree CLI wrote, so the self-tests can
feed it deliberately corrupted copies.  Each ``check_*`` function returns a
list of failure descriptions; empty means the output passed that gate.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import statistics


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def output_files(workload: str, out_dir: str) -> dict[str, str]:
    """Name -> path of every file a repetition must leave on disk."""
    if workload == "sweep-trials":
        return {"strategy_sweep.csv": os.path.join(out_dir, "strategy", "sweep.csv"),
                "k_sweep.csv": os.path.join(out_dir, "K", "sweep.csv")}
    return {"trace.jsonl": os.path.join(out_dir, "trace.jsonl"),
            "metrics.json": os.path.join(out_dir, "metrics.json")}


def hashes_and_counts(workload: str, out_dir: str) -> tuple[dict, dict]:
    """sha256 of every output file, plus trace record and byte counts."""
    files = output_files(workload, out_dir)
    hashes = {name: sha256_file(path) for name, path in files.items()}
    counts = {}
    trace = files.get("trace.jsonl")
    if trace:
        with open(trace, "rb") as fh:
            counts["trace_records"] = sum(1 for _ in fh)
        counts["trace_bytes"] = os.path.getsize(trace)
    return hashes, counts


def read_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def read_csv_rows(path: str) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


# -- simulated-model metrics -------------------------------------------------

def model_metrics_run(metrics: dict) -> tuple[dict, dict]:
    """End-to-end model metrics of one ``run`` and the sample counts behind them.

    Latency samples are the fully executed commands (first injection to last
    goal execution); transmissions are alg2 broadcasts + alg1 relays + alg3
    forwards.
    """
    msgs = metrics["messages"].values()
    total = sum(m["goals_total"] for m in msgs)
    done = sum(m["goals_executed"] for m in msgs)
    lats = [m["latency"] for m in msgs
            if m["latency"] is not None and m["goals_executed"] == m["goals_total"]]
    totals = metrics["totals"]
    out = {
        "goal_fraction": done / total if total else 1.0,
        "sim_latency_p50_s": statistics.median(lats) if lats else 0.0,
        "sim_latency_max_s": max(lats) if lats else 0.0,
        "transmissions": (totals.get("alg2.broadcast", 0) + totals.get("alg1.relay", 0)
                          + totals.get("alg3.forward", 0)),
        "live_region_fraction": metrics["live_region_fraction"],
    }
    bases = {"goal_fraction": f"{done}/{total} goal clusters",
             "sim_latency_p50_s": f"{len(lats)} fully executed commands",
             "sim_latency_max_s": f"{len(lats)} fully executed commands"}
    return out, bases


def model_metrics_sweep(rows: list[dict]) -> tuple[dict, dict]:
    """Model metrics of a strategy sweep: one sample per swept strategy.

    The CLI reports per-strategy means over trials, so latency p50/max are
    taken over those per-strategy mean latencies and transmissions is the
    sum of the per-trial means.
    """
    lats = [float(r["mean_latency"]) for r in rows]
    out = {
        "goal_fraction": statistics.fmean(float(r["goal_fraction"]) for r in rows),
        "sim_latency_p50_s": statistics.median(lats),
        "sim_latency_max_s": max(lats),
        "transmissions": sum(float(r["transmissions"]) for r in rows),
        "live_region_fraction": statistics.fmean(float(r["live_region_fraction"])
                                                 for r in rows),
    }
    trials = "+".join(r["trials"] for r in rows)
    base = f"{len(rows)} strategy means over {trials} trials"
    return out, {k: base for k in out}


def model_metrics(workload: str, out_dir: str) -> tuple[dict, dict]:
    files = output_files(workload, out_dir)
    if workload == "sweep-trials":
        return model_metrics_sweep(read_csv_rows(files["strategy_sweep.csv"]))
    return model_metrics_run(read_json(files["metrics.json"]))


# -- correctness gates -------------------------------------------------------

def check_conserved(metrics: dict) -> list[str]:
    if metrics.get("conserved") is not True:
        return ["metrics.json: message accounting not conserved"]
    return []


def check_oracle(trace_path: str, scenario_path: str) -> list[str]:
    """Delivery must match virtree's BFS reachability oracle.

    Only execution records matter to the oracle, so only those lines are
    parsed; the oracle itself has no cluster limit (the CLI's 64-cluster cap
    belongs to ``oracle-check``).
    """
    from virtree.metrics import TraceRecord
    from virtree.oracle import check_trace
    from virtree.scenario import load_scenario_file
    from virtree.topology import build_topology

    sc = load_scenario_file(scenario_path)
    topo = build_topology(sc.config, sc.seed, adjacency=sc.adjacency_override)
    records = []
    with open(trace_path, encoding="utf-8") as fh:
        for line in fh:
            if '"execute_' in line:
                records.append(TraceRecord.from_obj(json.loads(line)))
    return [f"oracle: {m}" for m in check_trace(records, topo, sc.strategy, sc.commands)]


def check_hop_bound(metrics: dict, num_layers: int) -> list[str]:
    """Tree routing takes at most 2 * (num_layers - 1) hops (the acceptance bound)."""
    bound = 2 * (num_layers - 1)
    return [f"hop bound: message {mid} took {m['max_hop']} hops > {bound}"
            for mid, m in sorted(metrics["messages"].items()) if m["max_hop"] > bound]


def check_containment(metrics: dict) -> list[str]:
    n = metrics.get("cross_region_maintenance")
    return [] if n == 0 else [f"containment: {n} cross-region maintenance records"]


def check_k_rows(rows: list[dict]) -> list[str]:
    bad = [r["value"] for r in rows if r.get("within_3sigma") != "True"]
    out = [f"liveness: K={v} outside the 3-sigma band of 1 - p^K" for v in bad]
    return out if rows else ["liveness: K sweep wrote no rows"]


def run_checks(workload: str, out_dir: str, scenario_path: str) -> list[str]:
    """Every output gate the workload is subject to."""
    files = output_files(workload, out_dir)
    if workload == "sweep-trials":
        return check_k_rows(read_csv_rows(files["k_sweep.csv"]))
    metrics = read_json(files["metrics.json"])
    failures = check_conserved(metrics)
    if workload in ("adjacent-flood", "tree-commands"):
        failures += check_oracle(files["trace.jsonl"], scenario_path)
    if workload == "tree-commands":
        num_layers = read_json(scenario_path)["topology"].get("num_layers", 5)
        failures += check_hop_bound(metrics, num_layers)
    if workload == "failure-churn":
        failures += check_containment(metrics)
    return failures
