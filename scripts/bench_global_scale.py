"""Wall time, peak RSS and trace sha256 of one global command at 10k-1M workers.

Usage, from the repository root:

    python3 scripts/bench_global_scale.py --parent DIR --change DIR
        [--sizes 10000,100000,1000000] [--out BENCH.json] [--work DIR]

DIR is the root of a checkout; its ``src`` goes first on PYTHONPATH.  For
each size the script writes one hierarchical scenario, a single global
command over 10 workers per cluster, 10 clusters per region, 10 regions per
hub and 10 hubs per domain, with ``size / 10,000`` domains (an apex above
them from 20k workers on), horizon 10 and the default maintenance round
period.  Then it runs ``virtree run`` on it once from each checkout, parent
first, one process at a time.

Per run it records wall time from process start to exit, peak RSS, and the
sha256 of ``trace.jsonl`` and ``metrics.json``.  Peak RSS is ``ru_maxrss``
from ``os.wait4``: the largest resident set of the run's processes, the
forked trace writer included.  Outputs are deleted once hashed, so the 1M
runs (a trace of about 190 MB) leave nothing behind.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time

SHAPE = {"num_layers": 5, "workers_per_cluster": 10, "clusters_per_region": 10,
         "regions_per_hub": 10, "hubs_per_domain": 10}
WORKERS_PER_DOMAIN = 10_000


def scenario(workers: int) -> dict:
    if workers % WORKERS_PER_DOMAIN:
        raise SystemExit(f"size {workers} is not a multiple of {WORKERS_PER_DOMAIN}")
    return {
        "topology": {**SHAPE, "domains": workers // WORKERS_PER_DOMAIN},
        "strategy": "hierarchical",
        "commands": [{"time": 0.5, "origin": 0, "scope": {"kind": "global"}}],
        "seed": 8,
        "horizon": 10.0,
    }


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            h.update(chunk)
    return h.hexdigest()


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
              "metrics_sha256": sha256_file(os.path.join(out, "metrics.json"))}
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
    ap.add_argument("--sizes", default="10000,100000,1000000",
                    help="comma-separated worker counts, multiples of 10000")
    ap.add_argument("--out", default="BENCH.json", help="result file")
    ap.add_argument("--work", default=".bench_global_scale",
                    help="scratch directory for scenarios and run outputs")
    args = ap.parse_args(argv)

    os.makedirs(args.work, exist_ok=True)
    sizes = {}
    for workers in (int(x) for x in args.sizes.split(",")):
        path = os.path.join(args.work, f"global_{workers}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(scenario(workers), fh, indent=2)
        row = {}
        for label, checkout in (("parent", args.parent), ("change", args.change)):
            row[label] = run_once(checkout, path, os.path.join(args.work, f"{label}_{workers}"))
            print(f"{workers} workers, {label}: {row[label]}", flush=True)
        row["outputs_identical"] = all(
            row["parent"][k] == row["change"][k] for k in ("trace_sha256", "metrics_sha256"))
        row["change_over_parent_wall"] = round(row["change"]["wall_s"] / row["parent"]["wall_s"], 3)
        sizes[str(workers)] = row

    result = {
        "what": "one global command, hierarchical strategy, horizon 10: `virtree run` "
                "wall time and peak RSS, one run per checkout and size",
        "command": "python3 scripts/bench_global_scale.py --parent PARENT --change CHANGE "
                   f"--sizes {args.sizes}",
        "machine": {"cpu": cpu_model(), "cpus": os.cpu_count(),
                    "usable_cpus": len(os.sched_getaffinity(0))
                    if hasattr(os, "sched_getaffinity") else None,
                    "python": platform.python_version(), "system": platform.system()},
        "scenario": {**SHAPE, "domains": "workers / 10000", "command": "global, origin 0",
                     "horizon": 10.0, "round_period": 1.0},
        "sizes": sizes,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
