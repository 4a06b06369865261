"""virtree benchmark: seeded workloads through the CLI, with correctness gates.

Usage, from the repository root:

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1] [--record-baseline]

For each workload the scenario is generated from ``--seed``; then repetitions
run one at a time, each in a fresh child process calling
``virtree.cli.main`` (``run`` or ``sweep``), until ``--seconds`` of
measurement are spent.  End-to-end metrics are medians over the repetitions.
With ``--trace 1`` the repetitions are followed by one traced repetition that
wraps every module's entry points in spans and prints per-layer metrics.

Every repetition is one attempted operation.  It fails when the child exits
non-zero or times out, when its output hashes differ from the other
repetitions', or when an output gate fails (see outputs.py).  The gates run on
the first repetition that writes its outputs; the others write the same bytes
or fail, so they share its verdict.  Output hashes and exact counts are also
compared with ``baseline.json``; a mismatch is reported, not failed, so a
change that alters the trace on purpose stays possible.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  The self-tests run with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SEED = 1
# Not used while the benchmark was written; check claims on it too.
HELD_OUT_SEED = 7919
DEFAULT_SECONDS = 25
OUT_ROOT = ".perfbench_out"
BASELINE = os.path.join(HERE, "baseline.json")
MIN_REPS = 3
DEADLINE_S = 170.0  # the whole invocation must end well within 180 s per workload

# End-to-end metrics in the result line (and BENCHMARK.json).  Simulated
# latencies are in simulated seconds ("sim_s"): deterministic per seed, not
# host time.
E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
             "goal_fraction": "ratio", "sim_latency_p50_s": "sim_s",
             "transmissions": "count", "live_region_fraction": "ratio"}
# Printed, not in the result line: on failure-churn the slowest command is
# one a revival released from parking in some seeds only, so its spread
# across seeds is wider than any bound the benchmark may set.
PRINTED_UNITS = {"sim_latency_max_s": "sim_s"}

# Which protocol layer each run workload targets; the traced run reports
# whether that layer has the largest self-time share among alg1..alg4.
TARGET_LAYERS = {"adjacent-flood": ("alg1", "alg2"), "tree-commands": ("alg3",),
                 "failure-churn": ("alg4",)}


def run_child(cmd: list[str], timeout: float) -> tuple[str, int | None, str]:
    """(status, exit code, stderr tail); status is "ok", "exit" or "timeout"."""
    proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                            env={**os.environ, "PYTHONPATH": os.path.abspath("src")})
    try:
        _, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return "timeout", None, ""
    tail = err.decode("utf-8", "replace").strip().splitlines()[-3:]
    return ("ok" if proc.returncode == 0 else "exit"), proc.returncode, " | ".join(tail)


def repetition(workload: str, scenario: str, out_dir: str, check: bool, traced: bool,
               timeout: float) -> dict:
    """Run one child; returns its result dict with a "failures" list."""
    os.makedirs(out_dir, exist_ok=True)
    job_path = os.path.join(out_dir, "job.json")
    result_path = os.path.join(out_dir, "result.json")
    with open(job_path, "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "scenario": scenario, "out": out_dir,
                   "check": check, "traced": traced}, fh)
    if os.path.exists(result_path):
        os.remove(result_path)
    status, code, err = run_child(
        [sys.executable, os.path.join(HERE, "child.py"), job_path, result_path], timeout)
    if status == "timeout":
        return {"failures": ["timeout"]}
    if status != "ok":
        return {"failures": [f"exit code {code}: {err}"]}
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    result.setdefault("failures", [])
    return result


def consistency_failures(reference: dict, result: dict) -> list[str]:
    """Hashes and exact counts must equal those of the run's first repetition."""
    out = []
    for key in ("hashes", "counts"):
        if result.get(key) != reference.get(key):
            out.append(f"{key} differ from the first repetition: "
                       f"{result.get(key)} != {reference.get(key)}")
    return out


def inherited_failures(reference: dict, result: dict) -> list[str]:
    """A repetition that wrote the checked outputs again fails where they failed."""
    differ = consistency_failures(reference, result)
    if differ:
        return differ
    return [f"same outputs as the checked repetition: {f}" for f in reference["failures"]]


def measure(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    """All repetitions of one workload: results, failures and timing."""
    start = time.monotonic()
    wdir = os.path.join(OUT_ROOT, workload)
    if os.path.isdir(wdir):
        shutil.rmtree(wdir)
    os.makedirs(wdir)
    scenario = os.path.join(wdir, "scenario.json")
    with open(scenario, "w", encoding="utf-8") as fh:
        fh.write(workloads.scenario_text(workload, seed))
    out_dir = os.path.join(wdir, "out")

    def remaining():
        return DEADLINE_S - (time.monotonic() - start)

    reps: list[dict] = []
    reference = None  # the first repetition that wrote its outputs; fully checked
    while True:
        t0 = time.monotonic()
        r = repetition(workload, scenario, out_dir, check=reference is None, traced=False,
                       timeout=remaining())
        rep_s = time.monotonic() - t0
        if reference is None and "hashes" in r:
            reference = r
        elif reference is not None and "hashes" in r:
            r["failures"] += inherited_failures(reference, r)
        reps.append(r)
        if "timeout" in r["failures"] or remaining() < 3 * rep_s:
            break
        # leave room for the traced repetition, which runs about twice as long
        budget = seconds - (2 * rep_s if traced else 0.0)
        if len(reps) >= MIN_REPS and time.monotonic() - start + rep_s > budget:
            break
    traced_rep = None
    if traced and remaining() > 0:
        traced_rep = repetition(workload, scenario, out_dir, check=False, traced=True,
                                timeout=remaining())
        if reference is not None and "hashes" in traced_rep:
            traced_rep["failures"] += inherited_failures(reference, traced_rep)
    return {"reps": reps, "traced": traced_rep, "reference": reference,
            "elapsed_s": time.monotonic() - start}


def median_of(reps: list[dict], key: str):
    """(median, sample count, min, max) of one measured key over repetitions."""
    values = [r[key] for r in reps if r.get(key) is not None]
    if not values:
        return None, 0, None, None
    return statistics.median(values), len(values), min(values), max(values)


def baseline_report(workload: str, seed: int, reference: dict | None,
                    traced_counts: dict | None) -> tuple[str, dict]:
    """Compare hashes and exact counts with baseline.json (information only)."""
    entry = {}
    if reference:
        entry = {"hashes": reference["hashes"], "counts": dict(reference["counts"])}
        if traced_counts:
            entry["counts"].update(traced_counts)
    try:
        with open(BASELINE, encoding="utf-8") as fh:
            base = json.load(fh).get(workload, {}).get(str(seed))
    except FileNotFoundError:
        base = None
    if base is None:
        return f"no baseline recorded for seed {seed}", entry
    diffs = [f"hashes.{k}" for k, v in base["hashes"].items()
             if entry.get("hashes", {}).get(k) != v]
    diffs += [f"counts.{k} {entry['counts'][k]} != {v}"
              for k, v in base["counts"].items()
              if k in entry.get("counts", {}) and entry["counts"][k] != v]
    if not diffs:
        return f"matches baseline (seed {seed})", entry
    return f"differs from baseline (seed {seed}): " + "; ".join(diffs), entry


def rebuild_tracer(data: dict) -> layers.Tracer:
    """A Tracer holding the aggregates a traced child wrote out."""
    tracer = layers.Tracer()
    tracer.stats = data["stats"]
    tracer.edges = {(p, c): v for p, c, v in data["edges"]}
    tracer.counters = data["counters"]
    tracer.absent = data["absent"]
    return tracer


def exact_counts(tracer: layers.Tracer) -> dict:
    """Events and call counts from the traced run, which must repeat exactly."""
    out = {f"{name}.calls": st[0] for name, st in sorted(tracer.stats.items())}
    out.update(sorted(tracer.counters.items()))
    out["simkernel.events"] = layers.events(tracer)
    return out


def report_workload(workload: str, seed: int, m: dict, traced: bool) -> tuple[dict, int, int]:
    """Print one workload's results; returns (metrics, attempted, failed)."""
    reps, ref = m["reps"], m["reference"]
    attempted = len(reps) + (1 if m["traced"] else 0)
    failed_reps = [r for r in reps + ([m["traced"]] if m["traced"] else []) if r["failures"]]
    print(f"== {workload} (seed {seed}): {len(reps)} repetitions in {m['elapsed_s']:.1f} s")
    for i, r in enumerate(failed_reps):
        for f in r["failures"][:5]:
            print(f"   FAILED ({i + 1}): {f}")
        if len(r["failures"]) > 5:
            print(f"   FAILED ({i + 1}): ... {len(r['failures']) - 5} more")
    print(f"   operations failed/attempted: {len(failed_reps)}/{attempted}")

    e2e: dict = {}
    for key in ("wall_s", "setup_s", "peak_rss_mb"):
        med, n, lo, hi = median_of(reps, key)
        if med is not None:
            e2e[key] = med
            print(f"   {key:<18} {med:.6g} {E2E_UNITS[key]}   "
                  f"(median of {n} repetitions, range {lo:.6g}..{hi:.6g})")
    wall = e2e.get("wall_s")
    if ref and "model" in ref:
        for name, value in ref["model"].items():
            base = ref["model_bases"].get(name)
            unit = E2E_UNITS.get(name) or PRINTED_UNITS[name]
            print(f"   {name:<18} {value:.6g} {unit}" + (f"   ({base})" if base else ""))
        e2e.update((k, v) for k, v in ref["model"].items() if k in E2E_UNITS)

    traced_counts = None
    metrics = {k: (v, E2E_UNITS[k]) for k, v in e2e.items()}
    if traced:
        metrics = {}
        tr = m["traced"]
        if tr and "tracer" in tr:
            tracer = rebuild_tracer(tr["tracer"])
            traced_counts = exact_counts(tracer)
            metrics = print_layers(workload, tracer, tr["wall_s"], ref or tr,
                                   wall or tr["wall_s"])
    verdict, entry = baseline_report(workload, seed, ref, traced_counts)
    for name, digest in entry.get("hashes", {}).items():
        print(f"   sha256 {name:<18} {digest}")
    for name, count in entry.get("counts", {}).items():
        print(f"   count {name:<32} {count}")
    print(f"   outputs: {verdict}")
    return metrics, attempted, len(failed_reps)


def print_layers(workload: str, tracer: layers.Tracer, traced_wall: float, ref: dict,
                 untraced_wall: float) -> dict:
    """Print spans, protocol shares and per-layer metrics; returns the present ones."""
    per_layer = layers.per_layer_metrics(tracer, ref.get("counts", {}), traced_wall,
                                         untraced_wall)
    print(f"   traced wall {traced_wall:.4f} s vs untraced median {untraced_wall:.4f} s")
    print(f"   {'span':<32}{'calls':>10}{'total_s':>11}{'self_s':>11}")
    for name, (calls, total, self_s) in sorted(tracer.stats.items(),
                                               key=lambda kv: -kv[1][2]):
        if calls:
            print(f"   {name:<32}{calls:>10}{total:>11.4f}{self_s:>11.4f}")
    shares = {layer: per_layer[f"{layer}.self_s"][0] for layer in layers.PROTOCOL_SPANS}
    known = {k: v for k, v in shares.items() if v is not None}
    total_alg = sum(known.values())
    if total_alg > 0:
        print("   protocol self-time shares: " + ", ".join(
            f"{k} {v / total_alg:.1%}" for k, v in known.items())
            + f" (base {total_alg:.4f} s)")
        target = TARGET_LAYERS.get(workload)
        if target:
            top = max(known, key=known.get)
            print(f"   target layer {'/'.join(target)} has the largest share: "
                  f"{'yes' if top in target else 'no, ' + top}")
    leaders = per_layer["alg2.leader.calls"][0]
    if leaders:
        print(f"   alg2.useful_ratio base: {leaders} leader receives")
    routes = sum(per_layer[f"alg3.route.calls.{x}"][0] or 0 for x in layers.ROUTE_LAYERS)
    if routes:
        print(f"   alg3.covers_per_route base: {routes} interior routes")
    for name, (value, unit) in per_layer.items():
        shown = "absent" if value is None else f"{value:.6g} {unit}"
        print(f"   {name:<36} {shown}")
    if tracer.absent:
        print("   absent targets: " + ", ".join(tracer.absent))
    return {k: v for k, v in per_layer.items() if v[0] is not None}


def record_baseline(workload: str, seed: int, m: dict):
    ref, tr = m["reference"], m["traced"]
    if not ref or not tr or tr["failures"]:
        raise SystemExit("cannot record a baseline from a failed run")
    _, entry = baseline_report(workload, seed, ref,
                               exact_counts(rebuild_tracer(tr["tracer"])))
    try:
        with open(BASELINE, encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        data = {}
    data.setdefault(workload, {})[str(seed)] = entry
    with open(BASELINE, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"   recorded baseline for {workload} seed {seed}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all",
                   choices=["all", *workloads.GENERATORS])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help=f"workload seed (default {DEFAULT_SEED}; {HELD_OUT_SEED} is held out "
                        "for checking claims)")
    p.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-baseline", action="store_true",
                   help="store this run's hashes and exact counts in baseline.json "
                        "(needs --trace 1)")
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "virtree", "cli.py")):
        print("perfbench: run from the repository root (src/virtree not found)",
              file=sys.stderr)
        return 2
    if args.record_baseline and not args.trace:
        p.error("--record-baseline needs --trace 1")

    names = list(workloads.GENERATORS) if args.workload == "all" else [args.workload]
    metrics: dict = {}
    attempted = failed = 0
    for name in names:
        m = measure(name, args.seed, args.seconds, bool(args.trace))
        w_metrics, a, f = report_workload(name, args.seed, m, bool(args.trace))
        attempted += a
        failed += f
        if args.record_baseline:
            record_baseline(name, args.seed, m)
        prefix = "" if len(names) == 1 else f"{name}."
        metrics.update({prefix + k: {"value": v, "unit": u}
                        for k, (v, u) in w_metrics.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
