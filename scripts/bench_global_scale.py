"""Wall time, peak RSS and trace sha256 of one global command at 10k-1M workers.

Usage, from the repository root:

    python3 scripts/bench_global_scale.py --parent DIR --change DIR
        [--strategy hierarchical|adjacent] [--sizes 10000,100000,1000000]
        [--horizon 10] [--kills 0] [--targets 0] [--pairs 1]
        [--out BENCH.json] [--work DIR]

DIR is the root of a checkout; its ``src`` goes first on PYTHONPATH.  For
each size the script writes one scenario, a single global command from
cluster 0, with horizon ``--horizon`` (default 10) and the default
maintenance round period of 1.  Then it runs ``virtree run`` on it in
``--pairs`` pairs (default 1), one run from each checkout a pair and one
process at a time; the parent goes first in the odd pairs (1st, 3rd, ...)
and the change in the even ones, so neither side always runs on a cooler
or a warmer host.  The shape depends on ``--strategy``:

* ``hierarchical`` (the default): 10 workers per cluster, 10 clusters per
  region, 10 regions per hub and 10 hubs per domain, with ``size / 10,000``
  domains (an apex above them from 20k workers on);
* ``adjacent``: one hub of ``size / 100`` regions on the default grid
  adjacency, each region 10 clusters of 10 workers.

``--kills K`` and ``--targets T`` add failures and targets, meant for the
adjacent shape: K + T distinct workers drawn with ``random.Random(5)``, the
first K each killed at a uniform time in [0.5, horizon], the other T the
command's targets.

Per run it records wall time from process start to exit, peak RSS, the
sha256 of ``trace.jsonl`` and ``metrics.json``, and the sha256 of the report
without its ``totals`` and ``conservation`` counters, which a change of the
trace format alone leaves equal.  Each side keeps every run and reports the
median wall time and peak RSS over its runs; ``pairs_won`` counts the pairs
whose change ran faster than its parent.  Peak RSS is ``ru_maxrss`` from
``os.wait4``: the largest resident set of the run's processes.  ``run``
encodes its trace in its own process, so that is the run itself; only a
checkout whose ``run`` forks a trace writer process (trace format 1 did,
given two usable CPUs) has that writer counted in it as well.  Outputs are
deleted once hashed, so the 1M runs leave nothing behind.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time

# strategy -> (fixed topology keys, workers per unit, the key counting units)
SHAPES = {
    "hierarchical": ({"num_layers": 5, "workers_per_cluster": 10, "clusters_per_region": 10,
                      "regions_per_hub": 10, "hubs_per_domain": 10}, 10_000, "domains"),
    "adjacent": ({"num_layers": 5, "workers_per_cluster": 10, "clusters_per_region": 10,
                  "hubs_per_domain": 1, "domains": 1}, 100, "regions_per_hub"),
}


def scenario(strategy: str, workers: int, horizon: float, kills: int = 0,
             targets: int = 0) -> dict:
    shape, per_unit, unit = SHAPES[strategy]
    if workers % per_unit:
        raise SystemExit(f"{strategy}: size {workers} is not a multiple of {per_unit}")
    rng = random.Random(5)
    drawn = rng.sample(range(workers), kills + targets)
    return {
        "topology": {**shape, unit: workers // per_unit},
        "strategy": strategy,
        "commands": [{"time": 0.5, "origin": 0, "scope": {"kind": "global"},
                      "targets": sorted(drawn[kills:])}],
        "failures": [{"time": rng.uniform(0.5, horizon), "kind": "worker", "action": "kill",
                      "worker": w} for w in drawn[:kills]],
        "seed": 8,
        "horizon": horizon,
    }


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            h.update(chunk)
    return h.hexdigest()


def report_sha256(metrics_path: str) -> str:
    with open(metrics_path, encoding="utf-8") as fh:
        report = json.load(fh)
    del report["totals"], report["conservation"]
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()


def run_once(checkout: str, scenario_path: str, out: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(checkout), "src"))
    cmd = [sys.executable, "-m", "virtree.cli", "run", "--scenario", scenario_path,
           "--out", out]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)  # reaps it, with its rusage
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)  # Popen must not wait again
    if proc.returncode:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}")
    result = {"wall_s": round(wall, 3), "peak_rss_mb": round(usage.ru_maxrss / 1024, 1),
              "trace_bytes": os.path.getsize(os.path.join(out, "trace.jsonl")),
              "trace_sha256": sha256_file(os.path.join(out, "trace.jsonl")),
              "metrics_sha256": sha256_file(os.path.join(out, "metrics.json")),
              "report_sha256": report_sha256(os.path.join(out, "metrics.json"))}
    shutil.rmtree(out)
    return result


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="root of the parent checkout")
    ap.add_argument("--change", required=True, help="root of the changed checkout")
    ap.add_argument("--strategy", choices=sorted(SHAPES), default="hierarchical",
                    help="dissemination strategy, which also picks the shape")
    ap.add_argument("--sizes", default="10000,100000,1000000",
                    help="comma-separated worker counts, multiples of 10000 "
                         "(hierarchical) or 100 (adjacent)")
    ap.add_argument("--horizon", type=float, default=10.0,
                    help="simulated horizon of each run (one maintenance round per second)")
    ap.add_argument("--kills", type=int, default=0,
                    help="workers killed at uniform times in [0.5, horizon]")
    ap.add_argument("--targets", type=int, default=0,
                    help="workers the command targets, distinct from the killed ones")
    ap.add_argument("--pairs", type=int, default=1,
                    help="runs per checkout and size, alternating which goes first")
    ap.add_argument("--out", default="BENCH.json", help="result file")
    ap.add_argument("--work", default=".bench_global_scale",
                    help="scratch directory for scenarios and run outputs")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    if min(args.kills, args.targets) < 0:
        ap.error("--kills and --targets must be at least 0")

    os.makedirs(args.work, exist_ok=True)
    sizes = {}
    for workers in (int(x) for x in args.sizes.split(",")):
        path = os.path.join(args.work, f"global_{args.strategy}_{workers}_"
                                       f"{args.kills}k_{args.targets}t.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(scenario(args.strategy, workers, args.horizon, args.kills,
                               args.targets), fh, indent=2)
        runs = {"parent": [], "change": []}
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for label in order:
                checkout = args.parent if label == "parent" else args.change
                run = run_once(checkout, path, os.path.join(args.work, f"{label}_{workers}"))
                runs[label].append(run)
                print(f"{workers} workers, pair {pair + 1}, {label}: {run}", flush=True)
        row = {label: {"wall_s": round(statistics.median(r["wall_s"] for r in side), 3),
                       "peak_rss_mb": round(statistics.median(r["peak_rss_mb"] for r in side), 1),
                       "runs": side}
               for label, side in runs.items()}
        every = runs["parent"] + runs["change"]
        row["outputs_identical"] = all(
            r[k] == every[0][k] for r in every for k in ("trace_sha256", "metrics_sha256"))
        row["reports_equal"] = all(r["report_sha256"] == every[0]["report_sha256"]
                                   for r in every)
        row["pairs_won"] = sum(c["wall_s"] < p["wall_s"]
                               for p, c in zip(runs["parent"], runs["change"]))
        row["change_over_parent_wall"] = round(row["change"]["wall_s"]
                                               / row["parent"]["wall_s"], 3)
        sizes[str(workers)] = row

    shape, per_unit, unit = SHAPES[args.strategy]
    result = {
        "what": f"one global command, {args.strategy} strategy, horizon {args.horizon:g}, "
                f"{args.kills} kills, {args.targets} targets: `virtree run` wall time and "
                f"peak RSS, {args.pairs} run(s) per checkout and size, medians",
        "command": "python3 scripts/bench_global_scale.py --parent PARENT --change CHANGE "
                   f"--strategy {args.strategy} --sizes {args.sizes} "
                   f"--horizon {args.horizon:g} --kills {args.kills} --targets {args.targets} "
                   f"--pairs {args.pairs}",
        "machine": {"cpu": cpu_model(), "cpus": os.cpu_count(),
                    "usable_cpus": len(os.sched_getaffinity(0))
                    if hasattr(os, "sched_getaffinity") else None,
                    "python": platform.python_version(), "system": platform.system()},
        "scenario": {**shape, unit: f"workers / {per_unit}", "command": "global, origin 0",
                     "horizon": args.horizon, "round_period": 1.0,
                     "kills": args.kills, "targets": args.targets},
        "sizes": sizes,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
