"""Trace records and the metrics derived from them.

A trace is a flat sequence of records.  ``build_report`` folds records into a
report one batch at a time, so the kernel can build it while the run streams
its trace out, and the same fold rebuilds a report from a saved trace file
alone.  Records serialize as one canonical JSON object per line (sorted keys,
no spaces), which is also what the byte-identity determinism checks compare.

``_SHAPES`` declares trace format 4: each record shape the kernel writes, and
what readers pick records out for.  ``dump_trace`` writes a record on a shape
through that shape's line function: one f-string built from source at import,
as ``collections.namedtuple`` builds its methods, with the sorted keys as
literals and each value converted inline by its declared type.  A record off
every shape goes through one C encoder built at import from ``_ENCODER``'s
settings.  Both give the bytes ``json.dumps`` gives with those settings, and
raise where it raises.
"""

from __future__ import annotations

import json
import math
from collections.abc import Callable
from dataclasses import dataclass, field, fields
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import NamedTuple

# The settings of every trace line; NaN and infinities are not JSON and raise.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), allow_nan=False)

if c_make_encoder is None:  # not CPython: the same settings, in pure Python
    def _encode(obj: dict, _indent_level: int) -> tuple[str]:
        return (_ENCODER.encode(obj),)
else:
    # No circular-reference markers: one shared markers dict would keep the id
    # of an object whose encoding failed, and trace data is never circular.
    _encode = c_make_encoder(
        None, _ENCODER.default, encode_basestring_ascii, None,
        _ENCODER.key_separator, _ENCODER.item_separator, _ENCODER.sort_keys,
        _ENCODER.skipkeys, _ENCODER.allow_nan)


class TraceRecord(NamedTuple):
    """One trace record: time and seq give the deterministic total order, and
    ``_SHAPES`` lists each comp and event with the keys of its data."""

    time: float
    seq: int
    comp: str
    event: str
    data: dict

    @classmethod
    def from_obj(cls, obj: dict) -> "TraceRecord":
        data = dict(obj)
        return cls(data.pop("time"), data.pop("seq"), data.pop("comp"), data.pop("event"),
                   data)


class _Shape(NamedTuple):
    comp: str
    event: str
    fields: dict  # each data key in emit order -> its value's exact type, None if always None
    transmission: bool = False  # the record is one radio transmission
    executes: str | None = None  # an execution: the data key naming the cluster or worker


# Every record shape the kernel writes, and what readers pick records out for.
_SHAPES = (
    _Shape("kernel", "run_start", {"format": int, "strategy": str, "seed": int, "horizon": float,
                                   "workers": int, "clusters": int, "regions": int,
                                   "route_mode": str}),
    _Shape("alg1", "relay", {"worker": int, "from_worker": int, "msg_id": str, "fanout": int,
                             "hop": int}, transmission=True),
    _Shape("alg1", "execute_worker", {"worker": int, "msg_id": str, "hop": int,
                                      "from_worker": int}, executes="worker"),
    *[shape for comp in ("alg2", "alg3") for shape in (  # a leader's visit, either strategy
        _Shape(comp, "process", {"cluster": int, "msg_id": str, "hop": int, "visited": list}),
        _Shape(comp, "execute_cluster", {"cluster": int, "msg_id": str, "missed": list},
               executes="cluster"),
        _Shape(comp, "execute_worker", {"worker": int, "msg_id": str, "hop": int},
               executes="worker"))],
    _Shape("alg2", "schedule", {"cluster": int, "msg_id": str, "distance": int, "delay": float}),
    _Shape("alg2", "broadcast", {"cluster": int, "msg_id": str, "hop": int}, transmission=True),
    _Shape("alg2", "broadcast_cancelled", {"cluster": int, "msg_id": str}),
    _Shape("alg3", "route", {"node": str, "msg_id": str, "n_out": int, "hop": int}),
    _Shape("alg3", "forward", {"src": str, "dst": str, "msg_id": str, "hop": int},
           transmission=True),
    _Shape("alg3", "noroute_parked", {"node": str, "msg_id": str}),
    _Shape("alg3", "noroute_retry", {"node": str, "msg_id": str, "ok": bool}),
    _Shape("alg3", "delivery_failed", {"node": str, "msg_id": str}),
    _Shape("alg4", "round", {"region": int, "round": int, "removed": list, "promoted": list,
                             "size_after": int, "alive_before": int, "t_min": int}),
    _Shape("alg4", "region_dead", {"region": int, "round": int, "t_min": int}),
    _Shape("kernel", "command_injected",
           {"msg_id": str, "origin": int, "goals_total": int, "targets_total": int}),
    _Shape("kernel", "failure", {"worker": int}),
    _Shape("kernel", "recovery", {"worker": int}),
    # old: the killed holder, or None when a revive fills a vacancy, which
    # it always can: each scope it fills holds the holder just filled below
    _Shape("kernel", "role_reelect", {"layer": int, "scope": int, "old": int, "new": int}),
    _Shape("kernel", "role_reelect", {"layer": int, "scope": int, "old": None, "new": int}),
    _Shape("kernel", "role_vacant", {"layer": int, "scope": int, "old": int}),
    _Shape("kernel", "drop_dead", {"worker": int, "msg_id": str}),
    _Shape("kernel", "drop_dead", {"cluster": int, "msg_id": str}),
    _Shape("kernel", "drop_jam", {"link_class": str, "msg_id": str, "dest": str}),
    _Shape("kernel", "link_jam", {"link_class": str, "drop": float}),
    _Shape("kernel", "link_clear", {"link_class": str}),
    _Shape("kernel", "link_change", {"action": str, "edge": list}),
    _Shape("kernel", "run_end",
           {"live_region_fraction": float, "conservation": dict, "conserved": bool}),
)

# ``MetricsReport.totals`` keys of the transmissions, and of the executions -> id key
TRANSMISSION_EVENTS = {f"{s.comp}.{s.event}" for s in _SHAPES if s.transmission}
EXECUTIONS = {f"{s.comp}.{s.event}": s.executes for s in _SHAPES if s.executes}

# A declared type's f-string field for the value named v: what the C encoder
# writes for a value of exactly that type.  A dict, and a list that is not
# empty, go through the C encoder.
_FIELDS = {int: "{%(v)s}", str: "{_str(%(v)s)}", float: "{%(v)s!r}",
           bool: '{"true" if %(v)s else "false"}',
           list: '{"".join(_encode(%(v)s, 0)) if %(v)s else "[]"}',
           dict: '{"".join(_encode(%(v)s, 0))}'}


# A line function; its body is one f-string, the record's JSON text.
_LINE_SOURCE = '''\
def line(stamp, seq, data):
    if len(data) != %(n)d:
        return None
    try:
        %(fetch)s
    except KeyError:
        return None
    if not (%(checks)s):
        return None
    return f'{{%(body)s}}\\n'
'''


def _literal(text: str) -> str:
    """JSON text as the literal part of a single-quoted f-string.  Text
    that ``encode_basestring_ascii`` wrote holds no line break, so only
    these four characters need escaping."""
    return (text.replace("\\", "\\\\").replace("'", "\\'")
            .replace("{", "{{").replace("}", "}}"))


def _line_function(comp: str, event: str, fields: dict) -> Callable:
    """The line function of one shape: ``line(stamp, seq, data)`` returns
    the JSON line of a record whose time, a finite float, is written
    ``stamp``, or None when data's keys or value types are not the shape's
    or seq is not an int.

    The merged record's keys are sorted once, here, and its values encoded
    in that order, as the C encoder encodes them: a list or dict that cannot
    be encoded raises there."""
    names = {key: f"v{i}" for i, key in enumerate(fields)}
    checks = ["type(seq) is int"]
    # key -> its value as f-string text: a JSON literal or a field
    values = {"comp": _literal(encode_basestring_ascii(comp)),
              "event": _literal(encode_basestring_ascii(event)),
              "seq": "{seq}", "time": "{stamp}"}
    for key, kind in fields.items():
        name = names[key]
        if kind is None:
            checks.append(f"{name} is None")
            values[key] = "null"
            continue
        checks.append(f"type({name}) is {kind.__name__}")
        if kind is float:
            checks.append(f"_isfinite({name})")
        values[key] = _FIELDS[kind] % {"v": name}
    body = ",".join(_literal(encode_basestring_ascii(key) + ":") + values[key]
                    for key in sorted(values))
    fetch = "; ".join(f"{names[key]} = data[{key!r}]" for key in fields)
    source = _LINE_SOURCE % {"n": len(fields), "fetch": fetch,
                             "checks": " and ".join(checks), "body": body}
    namespace = {"_str": encode_basestring_ascii, "_encode": _encode,
                 "_isfinite": math.isfinite}
    exec(source, namespace)
    return namespace["line"]


def _either(first: Callable, second: Callable) -> Callable:
    """One line function for two shapes of one comp and event."""
    return lambda stamp, seq, data: first(stamp, seq, data) or second(stamp, seq, data)


def _lines() -> dict[tuple[str, str], Callable]:
    """(comp, event) -> the line function of its shapes, tried in table order."""
    lines: dict[tuple[str, str], Callable] = {}
    for comp, event, fields, *_ in _SHAPES:
        line, other = _line_function(comp, event, fields), lines.get((comp, event))
        lines[comp, event] = line if other is None else _either(other, line)
    return lines


_LINES = _lines()


def dump_trace(records: list[TraceRecord]) -> str:
    """The canonical JSONL text of a trace or of one batch of it.

    A line is the JSON object of the record's four fields and its data keys
    together, all keys sorted as one set; a data key named like one of the
    four fields replaces that field.  A record of a known shape whose time
    is a finite float is written by its line function, any other by the C
    encoder: the same bytes.
    """
    chunks: list[str] = []
    lines = _LINES
    last = stamp = None  # the last record's time, and its text when a finite float
    for time, seq, comp, event, data in records:
        if time is not last:  # the records of one event share the kernel's time object
            last = time
            stamp = repr(time) if type(time) is float and math.isfinite(time) else None
        line = lines.get((comp, event))
        if line is not None and stamp is not None:
            try:
                text = line(stamp, seq, data)
            except (TypeError, ValueError):  # raised again below, as the C encoder words it
                text = None
            if text is not None:
                chunks.append(text)
                continue
        chunks += _encode({"time": time, "seq": seq, "comp": comp, "event": event,
                           **data}, 0)
        chunks.append("\n")
    return "".join(chunks)


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
    # region -> maintenance round its still-open breach began in
    open_breaches: dict[int, int] = field(default_factory=dict)
    live_region_fraction: float | None = None
    cross_region_maintenance: int | None = None  # None until run_start gives the shape
    workers_per_region: int | None = None
    conservation: dict[str, int] = field(default_factory=dict)
    conserved: bool = True

    @property
    def unrestored_regions(self) -> list[int]:
        """Regions whose breach had not closed by the last record folded in."""
        return sorted(self.open_breaches)

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
            for f in fields(pm)[1:]:  # after msg_id
                lines.append(f"message,{mid}.{f.name},{getattr(pm, f.name)}")
        for region, rounds in self.recovery_samples:
            lines.append(f"recovery,{region},{rounds}")
        for region in self.unrestored_regions:
            lines.append(f"unrestored,{region},1")
        return "\n".join(lines) + "\n"


def liveness_estimate(live: int, trials: int, p: float, k: int) -> LivenessEstimate:
    """``live`` out of ``trials`` as a fraction, with a 3-sigma binomial band
    around 1 - p**k.

    Sigma uses the predicted proportion so the band stays defined when every
    trial came up live.  The arguments are trusted: the CLI checks trials >= 1.
    """
    from .coordinators import predicted_liveness

    fraction = live / trials
    predicted = predicted_liveness(p, k)
    sigma = math.sqrt(predicted * (1.0 - predicted) / trials)
    ci_low, ci_high = predicted - 3 * sigma, predicted + 3 * sigma
    return LivenessEstimate(
        trials=trials, live=live, fraction=fraction, predicted=predicted,
        ci_low=ci_low, ci_high=ci_high,
        within_3sigma=ci_low <= fraction <= ci_high,
    )


def build_report(records: list[TraceRecord], strategy: str,
                 report: MetricsReport | None = None) -> MetricsReport:
    """Fold trace records into a metrics report.

    Without ``report`` this builds a fresh report from a whole trace.  Passing
    the report returned for the previous batch continues the fold, so folding
    a trace batch by batch gives the same report as folding it at once.

    Recovery: a region's breach opens at the first round observing
    alive_before < t_min (or at region_dead) and closes at the first round
    whose roster ends at >= t_min again; the sample is the inclusive round
    count.  Breaches still open are the unrestored regions.  The trace
    leaves out only rounds that can neither open nor close a breach (see
    ``simkernel._Kernel.handle_maintenance``).  Containment counts the
    rounds whose ``removed`` or ``promoted`` names a worker of another
    region, by the row-major shape on ``run_start`` (contract: 0).  A
    message's max hop is the largest ``hop`` of its records: formats 3 and 4
    write no worker receive, whose hop is on the record that sent the copy.
    """
    if report is None:
        report = MetricsReport(strategy=strategy)
    totals = report.totals
    msgs = report.messages
    breaches = report.open_breaches
    for time, _, comp, event, data in records:
        key = f"{comp}.{event}"
        totals[key] = totals.get(key, 0) + 1
        if comp == "alg4":
            region, rnd = data["region"], data["round"]
            if event == "region_dead":
                breaches.setdefault(region, rnd)
            elif event == "round":
                n = report.workers_per_region
                if n and any(w // n != region for w in data["removed"] + data["promoted"]):
                    report.cross_region_maintenance += 1
                if data["alive_before"] < data["t_min"]:
                    breaches.setdefault(region, rnd)
                if region in breaches and data["size_after"] >= data["t_min"]:
                    report.recovery_samples.append((region, rnd - breaches.pop(region) + 1))
            continue
        if comp == "kernel":  # no kernel record carries a hop or is an execution
            if event == "run_start":
                report.workers_per_region = data["workers"] // data["regions"]
                report.cross_region_maintenance = 0
            elif event == "run_end":
                report.live_region_fraction = data["live_region_fraction"]
                report.conservation = dict(data["conservation"])
                report.conserved = data["conserved"]
            elif event == "command_injected":
                mid = data["msg_id"]
                msgs[mid] = PerMessage(msg_id=mid, injected_at=time,
                                       goals_total=data["goals_total"],
                                       targets_total=data["targets_total"])
            continue
        pm = msgs.get(data.get("msg_id"))
        if pm is None:
            continue
        hop = data.get("hop")
        if hop is not None and hop > pm.max_hop:
            pm.max_hop = hop
        if key in EXECUTIONS:
            if EXECUTIONS[key] == "cluster":
                pm.goals_executed += 1
                pm.completed_at = time
                pm.latency = round(time - pm.injected_at, 9)
            else:
                pm.targets_executed += 1
    return report
