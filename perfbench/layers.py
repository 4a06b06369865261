"""Per-layer attribution for the traced run, from outside the package.

The traced run wraps public (and, where no public entry exists yet, private)
callables of each virtree module in timing spans.  Every span records its
parent, so a span's self time is its duration minus the time of the spans
nested in it.  Spans are aggregated per name (calls, total, self) and per
parent -> child edge instead of being stored one by one, which keeps the
hot leaf calls (``covers``, ``emit``, ``push``, ``copy``) cheap and the
memory flat.

A target that no longer exists (renamed or removed) is skipped and reported
absent; every metric derived from it is left out and the run completes.
"""

from __future__ import annotations

import importlib
import time

# span name -> (module, dotted attribute).  Module-level functions are
# wrapped where their caller looks them up: simkernel imports monitor_round,
# reelect_role, build_topology and build_report by name, and cli imports
# load_scenario_file, dump_trace, run (as run_scenario) and liveness_trials.
TARGETS = {
    "cli.main": ("virtree.cli", "main"),
    "cli.cmd_sweep": ("virtree.cli", "cmd_sweep"),
    "cli.run_scenario": ("virtree.cli", "run_scenario"),
    "scenario.load": ("virtree.cli", "load_scenario_file"),
    "metrics.dump_trace": ("virtree.cli", "dump_trace"),
    "coordinators.liveness": ("virtree.cli", "liveness_trials"),
    "topology.build": ("virtree.simkernel", "build_topology"),
    "metrics.build_report": ("virtree.simkernel", "build_report"),
    "simkernel.run": ("virtree.simkernel", "_Kernel.run"),
    "simkernel.handler.delivery": ("virtree.simkernel", "_Kernel.handle_delivery"),
    "simkernel.handler.broadcast": ("virtree.simkernel", "_Kernel.handle_broadcast"),
    "simkernel.handler.maintenance": ("virtree.simkernel", "_Kernel.handle_maintenance"),
    "simkernel.handler.failure": ("virtree.simkernel", "_Kernel.handle_failure"),
    "simkernel.handler.recovery": ("virtree.simkernel", "_Kernel.revive_worker"),
    "simkernel.kill": ("virtree.simkernel", "_Kernel.kill_worker"),
    "simkernel.park": ("virtree.simkernel", "_Kernel.park"),
    "simkernel.send": ("virtree.simkernel", "_Kernel.send"),
    "simkernel.push": ("virtree.simkernel", "_Kernel.push"),
    "simkernel.emit": ("virtree.simkernel", "_Kernel.emit"),
    "alg1.receive": ("virtree.adjacent", "worker_on_receive"),
    "alg1.reachable": ("virtree.adjacent", "reachable_workers"),
    "alg2.leader": ("virtree.adjacent", "leader_on_receive_deferred"),
    "alg3.leaf": ("virtree.hierarchical", "leader_on_receive_immediate"),
    "alg3.route": ("virtree.hierarchical", "route_interior"),
    "alg3.covers": ("virtree.hierarchical", "TreeLinks.covers"),
    "messages.copy": ("virtree.messages", "Message.copy"),
    "alg4.round": ("virtree.simkernel", "monitor_round"),
    "alg4.select": ("virtree.coordinators", "select_replacements"),
    "topology.reelect": ("virtree.simkernel", "reelect_role"),
}

HANDLERS = ("delivery", "broadcast", "maintenance", "failure", "recovery")
ROUTE_LAYERS = ("layer3", "layer4", "layer5", "apex")

# Protocol layers and the spans whose self time they own.
PROTOCOL_SPANS = {
    "alg1": ("alg1.receive", "alg1.reachable"),
    "alg2": ("alg2.leader",),
    "alg3": ("alg3.leaf", "alg3.covers") + tuple(f"alg3.route.{x}" for x in ROUTE_LAYERS),
    "alg4": ("alg4.round", "alg4.select"),
}


def resolve(module: str, attr: str):
    """(owner object, attribute name, current value) or None when missing."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = getattr(owner, name, None)
    return None if value is None else (owner, name, value)


class Tracer:
    """Aggregated parent-linked spans plus a few counters taken at the calls."""

    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.edges: dict[tuple[str, str], float] = {}
        self.counters: dict[str, float] = {}
        self.absent: list[str] = []
        self._stack: list[list] = []  # [name, child_s] per open span
        self._undo: list[tuple] = []

    def _stat(self, name: str) -> list:
        return self.stats.setdefault(name, [0, 0.0, 0.0])

    def _close(self, name: str, frame: list, dt: float):
        st = self.stats.get(name) or self._stat(name)
        st[0] += 1
        st[1] += dt
        st[2] += dt - frame[1]
        stack = self._stack
        if stack:
            parent = stack[-1]
            parent[1] += dt
            key = (parent[0], name)
            self.edges[key] = self.edges.get(key, 0.0) + dt

    def wrap(self, name: str, fn, namer=None, observe=None):
        """Time every call of fn as a span; namer picks a per-call span name."""
        stack = self._stack
        clock = time.perf_counter
        close = self._close

        def wrapper(*args, **kwargs):
            span = namer(args) if namer else name
            frame = [span, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                close(span, frame, dt)
            if observe:
                observe(args, result)
            return result

        return wrapper

    def install(self, targets: dict = TARGETS):
        for name, (module, attr) in targets.items():
            found = resolve(module, attr)
            if found is None:
                self.absent.append(name)
                continue
            owner, attr_name, fn = found
            namer, observe = self._hooks(name)
            self._undo.append((owner, attr_name, fn))
            setattr(owner, attr_name, self.wrap(name, fn, namer, observe))
            # a present target reads 0 when never called, not absent
            spans = ([f"alg3.route.{x}" for x in ROUTE_LAYERS] if name == "alg3.route"
                     else [name])
            for span in spans:
                self._stat(span)

    def uninstall(self):
        for owner, attr_name, fn in reversed(self._undo):
            setattr(owner, attr_name, fn)
        self._undo.clear()

    def bump(self, key: str, n: float = 1):
        self.counters[key] = self.counters.get(key, 0) + n

    def _hooks(self, name: str):
        """Per-target span naming and result observers (counts at the call)."""
        if name == "alg3.route":
            def namer(args):
                node, links = args[0], args[4]
                if node[0] > links.num_layers:
                    return "alg3.route.apex"
                return f"alg3.route.layer{node[0]}"
            return namer, None
        if name == "alg1.receive":
            def observe(args, actions):
                n = sum(1 for a in actions if type(a).__name__ == "ReportToLeader")
                if n:
                    self.bump("alg1.reports_sent", n)
            return None, observe
        if name == "alg2.leader":
            def observe(args, decision):
                if decision.outcome != "drop":
                    self.bump("alg2.useful")
            return None, observe
        if name == "simkernel.push":
            def observe(args, _result):
                n = len(args[0].heap)
                if n > self.counters.get("simkernel.heap_peak", 0):
                    self.counters["simkernel.heap_peak"] = n
            return None, observe
        return None, None


def _ratio(num, den):
    if num is None or den is None:
        return None
    return num / den if den else 0.0


def _sum(values):
    values = list(values)
    return None if any(v is None for v in values) else sum(values)


def events(tr: Tracer):
    """Kernel events processed: one handler call per popped event."""
    return _sum(tr.stats[f"simkernel.handler.{h}"][0]
                if f"simkernel.handler.{h}" in tr.stats else None for h in HANDLERS)


def per_layer_metrics(tr: Tracer, trace_counts: dict, traced_wall: float,
                      untraced_wall: float) -> dict:
    """Metric name -> (value, unit); a value of None means its target is absent."""
    def stat(i):
        return lambda name: tr.stats[name][i] if name in tr.stats else None
    c, t, s = stat(0), stat(1), stat(2)

    def present(name):
        return name in tr.stats

    routes = [f"alg3.route.{x}" for x in ROUTE_LAYERS]
    route_calls = _sum(c(n) for n in routes)
    n_events = events(tr)
    ctr = tr.counters
    m = {
        "alg1.receive.calls": (c("alg1.receive"), "count"),
        "alg1.receive_s": (t("alg1.receive"), "s"),
        "alg1.reachable.calls": (c("alg1.reachable"), "count"),
        "alg1.reachable_s": (t("alg1.reachable"), "s"),
        "alg1.reports_sent": (ctr.get("alg1.reports_sent", 0)
                              if present("alg1.receive") else None, "count"),
        "alg2.leader.calls": (c("alg2.leader"), "count"),
        "alg2.leader_s": (t("alg2.leader"), "s"),
        "alg2.useful_ratio": (_ratio(ctr.get("alg2.useful", 0) if present("alg2.leader")
                                     else None, c("alg2.leader")), "ratio"),
        "alg3.leaf.calls": (c("alg3.leaf"), "count"),
        "alg3.leaf_s": (t("alg3.leaf"), "s"),
    }
    for x, name in zip(ROUTE_LAYERS, routes):
        m[f"alg3.route.calls.{x}"] = (c(name), "count")
        m[f"alg3.route_s.{x}"] = (t(name), "s")
    m.update({
        "alg3.covers.calls": (c("alg3.covers"), "count"),
        "alg3.covers_s": (t("alg3.covers"), "s"),
        "alg3.covers_per_route": (_ratio(c("alg3.covers"), route_calls), "ratio"),
        "messages.copy.calls": (c("messages.copy"), "count"),
        "messages.copy_s": (t("messages.copy"), "s"),
        "alg4.round.calls": (c("alg4.round"), "count"),
        "alg4.round_s": (t("alg4.round"), "s"),
        "alg4.select.calls": (c("alg4.select"), "count"),
        "alg4.select_s": (t("alg4.select"), "s"),
        "topology.reelect.calls": (c("topology.reelect"), "count"),
        "topology.reelect_s": (t("topology.reelect"), "s"),
        "simkernel.kill_s": (t("simkernel.kill"), "s"),
        "simkernel.parked": (c("simkernel.park"), "count"),
        "simkernel.events": (n_events, "count"),
        "simkernel.events_per_s": (_ratio(n_events, t("simkernel.run")), "1/s"),
        "simkernel.push.calls": (c("simkernel.push"), "count"),
        "simkernel.push_s": (t("simkernel.push"), "s"),
        "simkernel.heap_peak": (ctr.get("simkernel.heap_peak", 0)
                                if present("simkernel.push") else None, "count"),
        "simkernel.send_s": (t("simkernel.send"), "s"),
        "simkernel.emit.calls": (c("simkernel.emit"), "count"),
        "simkernel.emit_s": (t("simkernel.emit"), "s"),
        "simkernel.loop_self_s": (s("simkernel.run"), "s"),
    })
    for h in HANDLERS:
        m[f"simkernel.handler_self_s.{h}"] = (s(f"simkernel.handler.{h}"), "s")
    sweep_trials = (tr.edges.get(("cli.cmd_sweep", "cli.run_scenario"), 0.0)
                    if present("cli.cmd_sweep") and present("cli.run_scenario") else None)
    m.update({
        "metrics.build_report_s": (t("metrics.build_report"), "s"),
        "metrics.dump_trace_s": (t("metrics.dump_trace"), "s"),
        "metrics.trace_records": (trace_counts.get("trace_records", 0), "count"),
        "metrics.trace_bytes": (trace_counts.get("trace_bytes", 0), "B"),
        "scenario.load_s": (t("scenario.load"), "s"),
        "topology.build_s": (t("topology.build"), "s"),
        "cli.sweep.trial_s": (sweep_trials, "s"),
        "coordinators.liveness_s": (t("coordinators.liveness"), "s"),
        "trace.overhead_s": (traced_wall - untraced_wall, "s"),
    })
    for layer, spans in PROTOCOL_SPANS.items():
        m[f"{layer}.self_s"] = (_sum(s(n) for n in spans), "s")
    return m
