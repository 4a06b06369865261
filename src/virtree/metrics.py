"""Trace records and the metrics derived from them.

A trace is a flat list of records; every function here is a pure function of
that list, so a report can be rebuilt from a saved trace file alone.  Records
serialize as one canonical JSON object per line (sorted keys, no spaces),
which is also what the byte-identity determinism checks compare.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

# ``message_totals`` keys that are one radio transmission each: worker relays
# and leader broadcasts (adjacent strategy), tree forwards (hierarchical).
TRANSMISSION_EVENTS = ("alg1.relay", "alg2.broadcast", "alg3.forward")


@dataclass(frozen=True)
class TraceRecord:
    """One simulation event observation.

    time/seq give the deterministic total order; comp tags the algorithm
    ("alg1".."alg4" or "kernel"); event names what happened; data carries the
    ids, message snapshot fields and any aux values.
    """

    time: float
    seq: int
    comp: str
    event: str
    data: dict

    def to_obj(self) -> dict:
        obj = {"time": self.time, "seq": self.seq, "comp": self.comp,
               "event": self.event}
        obj.update(self.data)
        return obj

    def to_json_line(self) -> str:
        return json.dumps(self.to_obj(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_obj(cls, obj: dict) -> "TraceRecord":
        data = {k: v for k, v in obj.items()
                if k not in ("time", "seq", "comp", "event")}
        return cls(time=obj["time"], seq=obj["seq"], comp=obj["comp"],
                   event=obj["event"], data=data)


def dump_trace(trace: list[TraceRecord]) -> str:
    return "".join(rec.to_json_line() + "\n" for rec in trace)


def parse_trace(text: str) -> list[TraceRecord]:
    return [TraceRecord.from_obj(json.loads(line))
            for line in text.splitlines() if line.strip()]


@dataclass
class PerMessage:
    msg_id: str
    injected_at: float
    completed_at: float | None = None
    latency: float | None = None
    max_hop: int = 0
    goals_total: int = 0
    goals_executed: int = 0
    targets_total: int = 0
    targets_executed: int = 0


@dataclass
class LivenessEstimate:
    trials: int
    live: int
    fraction: float
    predicted: float
    ci_low: float
    ci_high: float
    within_3sigma: bool


@dataclass
class MetricsReport:
    strategy: str
    messages: dict[str, PerMessage] = field(default_factory=dict)
    totals: dict[str, int] = field(default_factory=dict)
    recovery_samples: list[tuple[int, int]] = field(default_factory=list)
    unrestored_regions: list[int] = field(default_factory=list)
    live_region_fraction: float | None = None
    cross_region_maintenance: int = 0
    conservation: dict[str, int] = field(default_factory=dict)
    conserved: bool = True

    def to_json_obj(self) -> dict:
        return {
            "strategy": self.strategy,
            "messages": {k: vars(v) for k, v in sorted(self.messages.items())},
            "totals": dict(sorted(self.totals.items())),
            "recovery_samples": [list(s) for s in self.recovery_samples],
            "unrestored_regions": self.unrestored_regions,
            "live_region_fraction": self.live_region_fraction,
            "cross_region_maintenance": self.cross_region_maintenance,
            "conservation": dict(sorted(self.conservation.items())),
            "conserved": self.conserved,
        }

    def to_csv(self) -> str:
        """Flat long-format table.

        Columns, in order: section,key,value.  Row order: one `run` row per
        scalar (strategy, live_region_fraction, cross_region_maintenance,
        conserved), then `totals` rows sorted by key, then `conservation`
        rows sorted by key, then `message` rows sorted by msg id with the
        key spelled `<msg_id>.<field>`, then `recovery` rows (key = region,
        value = rounds, in sample order), then `unrestored` rows.
        """
        lines = ["section,key,value"]
        lines.append(f"run,strategy,{self.strategy}")
        lines.append(f"run,live_region_fraction,{self.live_region_fraction}")
        lines.append(f"run,cross_region_maintenance,{self.cross_region_maintenance}")
        lines.append(f"run,conserved,{self.conserved}")
        for k, v in sorted(self.totals.items()):
            lines.append(f"totals,{k},{v}")
        for k, v in sorted(self.conservation.items()):
            lines.append(f"conservation,{k},{v}")
        for mid, pm in sorted(self.messages.items()):
            for fname in ("injected_at", "completed_at", "latency", "max_hop",
                          "goals_total", "goals_executed", "targets_total",
                          "targets_executed"):
                lines.append(f"message,{mid}.{fname},{getattr(pm, fname)}")
        for region, rounds in self.recovery_samples:
            lines.append(f"recovery,{region},{rounds}")
        for region in self.unrestored_regions:
            lines.append(f"unrestored,{region},1")
        return "\n".join(lines) + "\n"


def recovery_latency(trace: list[TraceRecord]) -> tuple[list[tuple[int, int]], list[int]]:
    """Per-region breach durations in maintenance rounds.

    A breach opens at the first round observing alive_before < t_min and
    closes at the first round whose roster ends at >= t_min again; the sample
    is the inclusive round count.  Regions still breached when the trace ends
    are reported separately as unrestored.
    """
    open_breach: dict[int, int] = {}
    samples: list[tuple[int, int]] = []
    for rec in trace:
        if rec.comp != "alg4":
            continue
        region = rec.data["region"]
        rnd = rec.data["round"]
        if rec.event == "region_dead":
            open_breach.setdefault(region, rnd)
            continue
        if rec.event != "round":
            continue
        breached = rec.data["alive_before"] < rec.data["t_min"]
        if breached and region not in open_breach:
            open_breach[region] = rnd
        if region in open_breach and rec.data["size_after"] >= rec.data["t_min"]:
            samples.append((region, rnd - open_breach.pop(region) + 1))
    return samples, sorted(open_breach)


def containment_check(trace: list[TraceRecord]) -> int:
    """Count maintenance records that touched a foreign region (contract: 0)."""
    return sum(1 for rec in trace
               if rec.comp == "alg4"
               and rec.data.get("src_region") != rec.data.get("dst_region"))


def message_totals(trace: list[TraceRecord]) -> dict[str, int]:
    totals: dict[str, int] = {}
    for rec in trace:
        key = f"{rec.comp}.{rec.event}"
        totals[key] = totals.get(key, 0) + 1
    return totals


def liveness_estimate(outcomes: list[bool], p: float, k: int) -> LivenessEstimate:
    """Observed live fraction with a 3-sigma binomial band around 1 - p**k.

    Sigma uses the predicted proportion so the band stays defined when every
    trial came up live.
    """
    from .coordinators import predicted_liveness

    n = len(outcomes)
    if n == 0:
        raise ValueError("liveness estimate needs at least one trial")
    live = sum(1 for x in outcomes if x)
    fraction = live / n
    predicted = predicted_liveness(p, k)
    sigma = math.sqrt(predicted * (1.0 - predicted) / n)
    ci_low, ci_high = predicted - 3 * sigma, predicted + 3 * sigma
    return LivenessEstimate(
        trials=n, live=live, fraction=fraction, predicted=predicted,
        ci_low=ci_low, ci_high=ci_high,
        within_3sigma=ci_low <= fraction <= ci_high,
    )


def _msg_stats(trace: list[TraceRecord]) -> dict[str, PerMessage]:
    msgs: dict[str, PerMessage] = {}
    for rec in trace:
        mid = rec.data.get("msg_id")
        if mid is None:
            continue
        if rec.comp == "kernel" and rec.event == "command_injected":
            msgs[mid] = PerMessage(
                msg_id=mid, injected_at=rec.time,
                goals_total=rec.data["goals_total"],
                targets_total=rec.data["targets_total"],
            )
            continue
        pm = msgs.get(mid)
        if pm is None:
            continue
        hop = rec.data.get("hop")
        if hop is not None and hop > pm.max_hop:
            pm.max_hop = hop
        if rec.event == "execute_cluster":
            pm.goals_executed += 1
            pm.completed_at = rec.time
            pm.latency = round(rec.time - pm.injected_at, 9)
        if rec.event == "execute_worker" and rec.data.get("targeted"):
            pm.targets_executed += 1
    return msgs


def build_report(trace: list[TraceRecord], strategy: str) -> MetricsReport:
    samples, unrestored = recovery_latency(trace)
    report = MetricsReport(
        strategy=strategy,
        messages=_msg_stats(trace),
        totals=message_totals(trace),
        recovery_samples=samples,
        unrestored_regions=unrestored,
        cross_region_maintenance=containment_check(trace),
    )
    for rec in trace:
        if rec.comp == "kernel" and rec.event == "run_end":
            report.live_region_fraction = rec.data["live_region_fraction"]
            report.conservation = dict(rec.data["conservation"])
            report.conserved = rec.data["conserved"]
    return report
