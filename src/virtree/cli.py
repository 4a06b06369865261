"""Command-line front end.

Subcommands: run, sweep, oracle-check, validate.  Exit codes: 0 success,
2 invalid scenario, 3 I/O error, 4 oracle mismatch.  Usage errors from
argparse also exit 2, matching the invalid-input meaning.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from statistics import fmean

from .coordinators import liveness_trials, predicted_liveness
from .errors import OracleMismatch, ScenarioInvalid
from .metrics import TRANSMISSION_EVENTS, dump_trace, liveness_estimate
from .oracle import check_trace
from .scenario import load_scenario_file, validate_scenario
from .simkernel import run as run_scenario
from .topology import build_topology, derive_seed, goal_clusters_for_scope


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--scenario", required=True, help="path to a scenario JSON file")
    p.add_argument("--seed", type=int, default=None,
                   help="override the scenario seed")
    p.add_argument("--set", dest="overrides", action="append", default=[],
                   metavar="KEY=VALUE",
                   help="override a scenario field by dotted path, e.g. delays.alpha=2.0 "
                        "(repeatable)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="virtree",
        description="Deterministic simulator for virtual-tree hierarchy coordination")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario, write trace and metrics")
    _add_common(p_run)
    p_run.add_argument("--out", default="out", help="output directory (default: out)")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="sweep one parameter over repeated trials")
    _add_common(p_sweep)
    p_sweep.add_argument("--param", required=True,
                         choices=("p", "K", "regions", "strategy"),
                         help="which knob to sweep")
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated sweep values")
    p_sweep.add_argument("--trials", type=int, default=100,
                         help="trials per value (default: 100)")
    p_sweep.add_argument("--p", dest="base_p", type=float, default=0.1,
                         help="coordinator failure probability for K sweeps (default: 0.1)")
    p_sweep.add_argument("--out", default="out", help="output directory (default: out)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_oracle = sub.add_parser("oracle-check",
                              help="run a scenario and compare against the BFS oracle")
    _add_common(p_oracle)
    p_oracle.set_defaults(func=cmd_oracle_check)

    p_val = sub.add_parser("validate", help="validate a scenario file and exit")
    _add_common(p_val)
    p_val.set_defaults(func=cmd_validate)
    return parser


def cmd_run(args) -> int:
    sc = load_scenario_file(args.scenario, args.overrides, args.seed)
    trace, report = run_scenario(sc)
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "trace.jsonl"), "w", encoding="utf-8") as fh:
        fh.write(dump_trace(trace))
    with open(os.path.join(args.out, "metrics.csv"), "w", encoding="utf-8") as fh:
        fh.write(report.to_csv())
    with open(os.path.join(args.out, "metrics.json"), "w", encoding="utf-8") as fh:
        json.dump(report.to_json_obj(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    done = sum(1 for m in report.messages.values()
               if m.goals_executed == m.goals_total)
    print(f"run ok: {len(trace)} trace records, {len(report.messages)} commands "
          f"({done} fully executed), live regions {report.live_region_fraction:.3f}")
    return 0


def cmd_validate(args) -> int:
    sc = load_scenario_file(args.scenario, args.overrides, args.seed)
    print(f"scenario ok: {sc.config.n_workers} workers, {sc.config.n_clusters} clusters, "
          f"{sc.config.n_regions} regions, strategy {sc.strategy}")
    return 0


def cmd_oracle_check(args) -> int:
    sc = load_scenario_file(args.scenario, args.overrides, args.seed)
    if sc.failures:
        raise ScenarioInvalid("failures", "oracle-check requires a failure-free scenario")
    # failure-free, so the run leaves this topology as built
    topo = build_topology(sc.config, sc.seed, adjacency=sc.adjacency_override)
    for i, cmd in enumerate(sc.commands):
        goals = goal_clusters_for_scope(topo, cmd.scope)
        outside = [t for t in sorted(cmd.targets) if topo.cluster_of[t] not in goals]
        if outside:
            raise ScenarioInvalid(
                f"commands[{i}].targets",
                f"oracle-check needs targets inside goal clusters; {outside} are not")
    trace, _report = run_scenario(sc)
    mismatches = check_trace(trace, topo, sc.strategy, sc.commands)
    if mismatches:
        for line in mismatches:
            print(f"oracle mismatch: {line}", file=sys.stderr)
        raise OracleMismatch(f"{len(mismatches)} disagreement(s) with the BFS oracle")
    print(f"oracle-check ok: {len(sc.commands)} command(s) agree with BFS reachability")
    return 0


def _parse_values(param: str, text: str) -> list:
    items = [x.strip() for x in text.split(",") if x.strip()]
    if not items:
        raise ScenarioInvalid("--values", "no sweep values given")
    try:
        if param == "p":
            return [float(x) for x in items]
        if param in ("K", "regions"):
            return [int(x) for x in items]
    except ValueError as e:
        raise ScenarioInvalid("--values", str(e)) from None
    return items  # strategy names


def cmd_sweep(args) -> int:
    sc = load_scenario_file(args.scenario, args.overrides, args.seed)
    values = _parse_values(args.param, args.values)
    if args.trials < 1:
        raise ScenarioInvalid("--trials", "must be >= 1")
    # every sweep value is checked before the first trial and before --out exists
    if args.param in ("p", "K"):
        if args.param == "K":
            _check_liveness_point("--p", args.base_p, 1)
        points = [(v, sc.config.coordinator_k) if args.param == "p" else (args.base_p, v)
                  for v in values]
        for p, k in points:
            _check_liveness_point("--values", p, k)
    else:
        variants = [_sweep_variant(sc, args.param, v) for v in values]
    os.makedirs(args.out, exist_ok=True)
    out_path = os.path.join(args.out, "sweep.csv")
    rows: list[str] = []

    if args.param in ("p", "K"):
        # coordinator liveness study: direct Monte-Carlo over the roster
        rows.append("param,value,trials,live_fraction,predicted,ci_low,ci_high,within_3sigma")
        for v, (p, k) in zip(values, points):
            outcomes = liveness_trials(p, k, args.trials, sc.seed)
            est = liveness_estimate(outcomes, p, k)
            rows.append(f"{args.param},{v},{est.trials},{est.fraction},"
                        f"{est.predicted},{est.ci_low},{est.ci_high},{est.within_3sigma}")
    else:
        rows.append("param,value,trials,goal_fraction,mean_latency,transmissions,"
                    "live_region_fraction")
        for v, variant in zip(values, variants):
            frac, lat, tx, live = [], [], [], []
            for trial in range(args.trials):
                trial_sc = replace(variant, seed=derive_seed(sc.seed, "sweep", str(v), trial))
                _trace, report = run_scenario(trial_sc)
                total = sum(m.goals_total for m in report.messages.values())
                done = sum(m.goals_executed for m in report.messages.values())
                frac.append(done / total if total else 1.0)
                lats = [m.latency for m in report.messages.values() if m.latency is not None]
                lat.append(fmean(lats) if lats else 0.0)
                tx.append(sum(report.totals.get(k, 0) for k in TRANSMISSION_EVENTS))
                live.append(report.live_region_fraction)
            rows.append(f"{args.param},{v},{args.trials},{fmean(frac)},"
                        f"{fmean(lat)},{fmean(tx)},{fmean(live)}")

    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(rows) + "\n")
    print(f"sweep ok: {len(values)} value(s) x {args.trials} trial(s) -> {out_path}")
    return 0


def _check_liveness_point(flag: str, p: float, k: int):
    try:
        predicted_liveness(p, k)
    except ValueError as e:
        raise ScenarioInvalid(flag, str(e)) from None


def _sweep_variant(sc, param: str, value):
    """The scenario one strategy or regions sweep value runs, validated whole."""
    if param == "strategy":
        variant = replace(sc, strategy=value)
    else:  # regions: rescale the region count, keeping cluster/worker shape
        if sc.adjacency_override is not None:
            raise ScenarioInvalid("--param",
                                  "regions sweep cannot rescale an explicit adjacency override")
        variant = replace(sc, config=replace(sc.config, regions_per_hub=value,
                                             hubs_per_domain=1, domains=1))
    try:
        validate_scenario(variant)
    except ScenarioInvalid as e:
        raise ScenarioInvalid("--values", f"{value}: {e}") from None
    return variant


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ScenarioInvalid as e:
        print(f"invalid scenario: {e}", file=sys.stderr)
        return 2
    except OracleMismatch as e:
        print(f"oracle mismatch: {e}", file=sys.stderr)
        return 4
    except OSError as e:
        print(f"io error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
