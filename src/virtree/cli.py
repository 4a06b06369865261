"""Command-line front end.

Subcommands: run, sweep, oracle-check, validate.  Exit codes: 0 success,
2 invalid scenario, 3 I/O error, 4 oracle mismatch.  Usage errors from
argparse also exit 2, matching the invalid-input meaning.
"""

from __future__ import annotations

import argparse
import gc
import json
import marshal
import os
import signal
import sys
from dataclasses import replace
from itertools import chain
from statistics import fmean

from .coordinators import liveness_trials, predicted_liveness
from .errors import OracleMismatch, ScenarioInvalid
from .metrics import TRANSMISSION_EVENTS, dump_trace, liveness_estimate
from .oracle import check_trace
from .scenario import MAX_WORKERS, load_scenario_file, validate_scenario
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
    os.makedirs(args.out, exist_ok=True)
    # the trace streams into a temporary file that replaces trace.jsonl only
    # once the run has returned, so a failed run leaves the earlier outputs
    trace_path = os.path.join(args.out, "trace.jsonl")
    tmp_path = f"{trace_path}.{os.getpid()}.tmp"
    try:
        with open(tmp_path, "w", encoding="utf-8") as fh, _TraceWriter(fh) as sink:
            _, report = run_scenario(sc, sink=sink)
        os.replace(tmp_path, trace_path)
    except BaseException:
        os.unlink(tmp_path)
        raise
    with open(os.path.join(args.out, "metrics.csv"), "w", encoding="utf-8") as fh:
        fh.write(report.to_csv())
    with open(os.path.join(args.out, "metrics.json"), "w", encoding="utf-8") as fh:
        json.dump(report.to_json_obj(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    done = sum(1 for m in report.messages.values()
               if m.goals_executed == m.goals_total)
    records = sum(report.totals.values())
    print(f"run ok: {records} trace records, {len(report.messages)} commands "
          f"({done} fully executed), live regions {report.live_region_fraction:.3f}")
    return 0


class _TraceWriter:
    """The trace sink of ``run``: writes each batch to ``fh`` as JSON lines.

    Where ``os.fork`` exists and two CPUs are usable, the first batch handed
    over before ``run_end`` forks a writer process, and every batch from then
    on goes to it down a pipe, so encoding overlaps the simulation.  A batch
    travels as a length-prefixed ``marshal`` dump of one flat tuple, five
    fields a record, down a pipe widened to PIPE_SIZE where the platform lets
    it, so the kernel seldom waits on the writer; the writer holds one batch
    at a time.  Otherwise, and for a trace that fits in one batch,
    the batches are encoded here.  Leaving the ``with`` block waits for the
    writer and raises the exception it failed with, if any.
    """

    def __init__(self, fh):
        self.fh = fh
        self.pid = None
        self.can_fork = hasattr(os, "fork") and _usable_cpus() > 1

    def __enter__(self):
        return self

    def __call__(self, batch):
        if self.pid is None:
            if not self.can_fork or batch[-1].event == "run_end":
                self.fh.write(dump_trace(batch))
                return
            self._start()
        data = marshal.dumps(tuple(chain.from_iterable(batch)))
        self.pipe.write(len(data).to_bytes(8, "little"))
        self.pipe.write(data)
        self.pipe.flush()

    def _start(self):
        import fcntl  # POSIX only, as os.fork is

        batch_r, batch_w = os.pipe()
        try:
            fcntl.fcntl(batch_w, fcntl.F_SETPIPE_SZ, PIPE_SIZE)
        except (AttributeError, OSError):  # not Linux, or above the system's limit
            pass
        error_r, error_w = os.pipe()
        pid = os.fork()
        if pid == 0:
            os.close(batch_w)
            os.close(error_r)
            _write_batches(batch_r, error_w, self.fh)
        os.close(batch_r)
        os.close(error_w)
        self.pid, self.pipe, self.error_fd = pid, open(batch_w, "wb"), error_r

    def __exit__(self, *exc_info):
        if self.pid is None:
            return
        pid, self.pid = self.pid, None
        try:
            self.pipe.close()  # end of input: the writer drains the pipe and exits
        except BrokenPipeError:  # the writer has already exited
            pass
        with open(self.error_fd, "rb") as fh:
            error = fh.read()
        _, status = os.waitpid(pid, 0)
        if error:
            import pickle  # imported only on failure, to keep it out of a run's RSS
            raise pickle.loads(error)
        if status:
            raise ChildProcessError(f"trace writer process ended with wait status {status}")


# Bytes the batch pipe buffers: a few marshalled batches of about 270 KB.
PIPE_SIZE = 1 << 20


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _write_batches(batch_fd: int, error_fd: int, fh):
    """The body of the writer process; ends it with ``os._exit``.

    ``os._exit`` skips the clean-up of the interpreter state inherited from the
    parent, such as flushing its buffered stdout a second time.  A failure is
    sent back pickled; SIGINT is left to the parent, which ends the writer by
    closing the pipe.
    """
    status = 1
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        # the writer makes no reference cycles, and a collection would walk
        # (and copy) every object inherited from the parent
        gc.disable()
        with open(batch_fd, "rb") as pipe:
            while header := pipe.read(8):
                size = int.from_bytes(header, "little")
                data = pipe.read(size)
                if len(data) < size:  # the parent aborted mid-batch
                    break
                flat = iter(marshal.loads(data))
                fh.write(dump_trace(zip(flat, flat, flat, flat, flat)))
        fh.close()
        status = 0
    except BaseException as e:
        import pickle
        os.write(error_fd, pickle.dumps(e))
    finally:
        os._exit(status)


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
            live = liveness_trials(p, k, args.trials, sc.seed)
            est = liveness_estimate(live, args.trials, p, k)
            rows.append(f"{args.param},{v},{est.trials},{est.fraction},"
                        f"{est.predicted},{est.ci_low},{est.ci_high},{est.within_3sigma}")
    else:
        rows.append("param,value,trials,goal_fraction,mean_latency,transmissions,"
                    "live_region_fraction")
        for v, variant in zip(values, variants):
            frac, lat, tx, live = [], [], [], []
            for trial in range(args.trials):
                trial_sc = replace(variant, seed=derive_seed(sc.seed, "sweep", str(v), trial))
                # only the report is read, so each batch is dropped once folded
                _trace, report = run_scenario(trial_sc, sink=_discard)
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


def _discard(batch):
    pass


def _check_liveness_point(flag: str, p: float, k: int):
    try:
        predicted_liveness(p, k)
    except ValueError as e:
        raise ScenarioInvalid(flag, str(e)) from None
    if k > MAX_WORKERS:  # liveness_trials builds a K-worker region
        raise ScenarioInvalid(flag, f"coordinator count must be <= {MAX_WORKERS}, got {k}")


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
