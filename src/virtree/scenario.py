"""Scenario input model, file loading, overrides and validation.

A scenario file is a single JSON object.  Top-level keys: topology, delays,
strategy, routing, link_latencies, coordinator, failures, commands, seed,
horizon.  Only topology, seed and horizon are required; everything else has a
documented default.

Every rule a scenario must satisfy lives in this module.  ``build_scenario``
checks keys and types: unknown keys anywhere are rejected, bools are never
numbers or ids, and numbers must be finite.  ``validate_scenario`` checks
values.  Both raise ScenarioInvalid naming the offending field path; the
topology builder, the delay model and the kernel trust what they are given.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .adjacent import DelayParams
from .errors import ScenarioInvalid
from .hierarchical import MODE_LCA, MODE_ROOT
from .topology import SCOPE_LAYERS, HierarchyConfig

DEFAULT_LATENCIES = {"cluster": 0.1, "region": 0.2, "adjacent": 0.5, "tree": 1.0}

STRATEGIES = ("adjacent", "hierarchical")

# The kernel schedules every maintenance round up front, one heap event each.
MAX_MAINTENANCE_ROUNDS = 100_000

# Building a topology costs about 22 B and 0.4 us per worker (CPython 3.11),
# so the cap keeps the build under about 22 MB and half a second.
MAX_WORKERS = 1_000_000


@dataclass(frozen=True)
class CommandSpec:
    time: float
    origin: int
    scope: tuple
    targets: frozenset[int] = frozenset()
    payload: bytes = b""


@dataclass(frozen=True)
class FailureSpec:
    time: float
    kind: str  # "worker" | "region" | "link" | "adjacency"
    action: str  # kill | revive | jam | clear | add | remove
    worker: int | None = None
    region: int | None = None
    link_class: str | None = None
    drop: float = 1.0
    edge: tuple[int, int] | None = None


@dataclass
class Scenario:
    config: HierarchyConfig
    seed: int
    horizon: float
    strategy: str = "adjacent"
    delay: DelayParams = field(default_factory=DelayParams)
    adjacency_override: list[tuple[int, int]] | None = None
    link_latencies: dict[str, float] = field(default_factory=lambda: dict(DEFAULT_LATENCIES))
    commands: list[CommandSpec] = field(default_factory=list)
    failures: list[FailureSpec] = field(default_factory=list)
    round_period: float = 1.0
    eager_refill: bool = False
    single_promotion: bool = False
    route_mode: str = MODE_LCA


_TOP_KEYS = {"topology", "delays", "strategy", "routing", "link_latencies",
             "coordinator", "failures", "commands", "seed", "horizon"}
_FANOUT_KEYS = ("workers_per_cluster", "clusters_per_region", "regions_per_hub",
                "hubs_per_domain", "domains")
_TOPOLOGY_KEYS = {"num_layers", "adjacency", *_FANOUT_KEYS}
_DELAY_KEYS = ("alpha", "beta", "epsilon")
_COORD_KEYS = {"K", "T_min", "round_period", "eager_refill", "single_promotion"}
_ROUTING_KEYS = {"mode"}
_COMMAND_KEYS = {"time", "origin", "scope", "targets", "payload"}
_FAILURE_KEYS = {"time", "kind", "action", "worker", "region", "link_class",
                 "drop", "edge"}
_SCOPE_KEYS = {"kind", "id"}


def validate_scenario(sc: Scenario):
    """Value checks on a whole scenario; raises ScenarioInvalid naming the field.

    Types are the parser's job: this assumes every number is finite and every
    id an int, as ``build_scenario`` guarantees.
    """
    cfg = sc.config
    if not 2 <= cfg.num_layers <= 5:
        raise ScenarioInvalid("topology.num_layers", f"must be in 2..5, got {cfg.num_layers}")
    for name in _FANOUT_KEYS:
        if getattr(cfg, name) < 1:
            raise ScenarioInvalid(f"topology.{name}", f"must be >= 1, got {getattr(cfg, name)}")
    if cfg.n_workers > MAX_WORKERS:
        raise ScenarioInvalid("topology", f"must hold at most {MAX_WORKERS} workers, "
                                          f"got {cfg.n_workers}")
    region_size = cfg.workers_per_cluster * cfg.clusters_per_region
    if not 1 <= cfg.coordinator_k <= region_size:
        raise ScenarioInvalid("coordinator.K", f"must be in 1..{region_size} (the region "
                                               f"size), got {cfg.coordinator_k}")
    if not 1 <= cfg.t_min <= cfg.coordinator_k:
        raise ScenarioInvalid("coordinator.T_min", f"must be in 1..K={cfg.coordinator_k}, "
                                                   f"got {cfg.t_min}")
    if sc.strategy not in STRATEGIES:
        raise ScenarioInvalid("strategy", f"must be one of {STRATEGIES}, got {sc.strategy!r}")
    if sc.route_mode not in (MODE_LCA, MODE_ROOT):
        raise ScenarioInvalid("routing.mode", f"must be 'lca' or 'root', got {sc.route_mode!r}")
    if not sc.horizon > 0:
        raise ScenarioInvalid("horizon", f"must be > 0, got {sc.horizon}")
    if not 0 <= sc.seed < 2 ** 64:
        raise ScenarioInvalid("seed", "must fit in an unsigned 64-bit integer")
    if not sc.round_period > 0:
        raise ScenarioInvalid("coordinator.round_period", f"must be > 0, got {sc.round_period}")
    if sc.horizon / sc.round_period > MAX_MAINTENANCE_ROUNDS:
        raise ScenarioInvalid("coordinator.round_period",
                              f"horizon / round_period must be <= {MAX_MAINTENANCE_ROUNDS} "
                              f"maintenance rounds, got {sc.horizon / sc.round_period:.6g}")
    for name in _DELAY_KEYS:
        if getattr(sc.delay, name) < 0:
            raise ScenarioInvalid(f"delays.{name}", f"must be >= 0, got {getattr(sc.delay, name)}")
    d = sc.delay  # the largest delay: distance <= 4 layers, load <= 1 per command
    if not math.isfinite(d.alpha * len(SCOPE_LAYERS) + d.beta * len(sc.commands) + d.epsilon):
        raise ScenarioInvalid("delays", f"alpha * {len(SCOPE_LAYERS)} + beta * "
                                        f"{len(sc.commands)} commands + epsilon must be finite")
    for name, value in sc.link_latencies.items():
        if name not in DEFAULT_LATENCIES:
            raise ScenarioInvalid(f"link_latencies.{name}", "unknown link class")
        if value < 0:
            raise ScenarioInvalid(f"link_latencies.{name}", f"must be >= 0, got {value}")
    if sc.adjacency_override is not None:
        for i, edge in enumerate(sc.adjacency_override):
            a, b = edge
            if a == b:
                raise ScenarioInvalid(f"topology.adjacency[{i}]", "self-loops not allowed")
            for r in edge:
                if not 0 <= r < cfg.n_regions:
                    raise ScenarioInvalid(f"topology.adjacency[{i}]",
                                          f"region {r} out of range (have {cfg.n_regions})")
    for i, cmd in enumerate(sc.commands):
        if cmd.time < 0:
            raise ScenarioInvalid(f"commands[{i}].time", "must be >= 0")
        if not 0 <= cmd.origin < cfg.n_clusters:
            raise ScenarioInvalid(f"commands[{i}].origin",
                                  f"cluster {cmd.origin} out of range (have {cfg.n_clusters})")
        kind = cmd.scope[0] if cmd.scope else None
        if kind in SCOPE_LAYERS:
            sid = cmd.scope[1] if len(cmd.scope) > 1 else None
            have = cfg.n_scopes(SCOPE_LAYERS[kind])
            if sid is None or not 0 <= sid < have:
                raise ScenarioInvalid(f"commands[{i}].scope",
                                      f"{kind} id {sid} out of range (have {have})")
        elif kind != "global":
            raise ScenarioInvalid(f"commands[{i}].scope", f"unknown scope kind {kind!r}")
        for t in cmd.targets:
            if not 0 <= t < cfg.n_workers:
                raise ScenarioInvalid(f"commands[{i}].targets",
                                      f"worker {t} out of range (have {cfg.n_workers})")
    for i, f in enumerate(sc.failures):
        if f.time < 0:
            raise ScenarioInvalid(f"failures[{i}].time", "must be >= 0")
        if f.kind == "worker":
            if f.action not in ("kill", "revive"):
                raise ScenarioInvalid(f"failures[{i}].action", f"worker supports kill/revive, got {f.action!r}")
            if f.worker is None or not 0 <= f.worker < cfg.n_workers:
                raise ScenarioInvalid(f"failures[{i}].worker",
                                      f"worker {f.worker} out of range (have {cfg.n_workers})")
        elif f.kind == "region":
            if f.action != "kill":
                raise ScenarioInvalid(f"failures[{i}].action", f"region supports kill, got {f.action!r}")
            if f.region is None or not 0 <= f.region < cfg.n_regions:
                raise ScenarioInvalid(f"failures[{i}].region",
                                      f"region {f.region} out of range (have {cfg.n_regions})")
        elif f.kind == "link":
            if f.action not in ("jam", "clear"):
                raise ScenarioInvalid(f"failures[{i}].action", f"link supports jam/clear, got {f.action!r}")
            if f.link_class not in DEFAULT_LATENCIES:
                raise ScenarioInvalid(f"failures[{i}].link_class", f"unknown link class {f.link_class!r}")
            if not 0.0 <= f.drop <= 1.0:
                raise ScenarioInvalid(f"failures[{i}].drop", f"must be in [0, 1], got {f.drop}")
        elif f.kind == "adjacency":
            if f.action not in ("add", "remove"):
                raise ScenarioInvalid(f"failures[{i}].action", f"adjacency supports add/remove, got {f.action!r}")
            if f.edge is None or len(f.edge) != 2 or f.edge[0] == f.edge[1]:
                raise ScenarioInvalid(f"failures[{i}].edge", "need two distinct region ids")
            for r in f.edge:
                if not 0 <= r < cfg.n_regions:
                    raise ScenarioInvalid(f"failures[{i}].edge",
                                          f"region {r} out of range (have {cfg.n_regions})")
        else:
            raise ScenarioInvalid(f"failures[{i}].kind", f"unknown failure kind {f.kind!r}")


def _check(val, types, name: str):
    """The one type rule: bools are never numbers, and numbers are finite."""
    if types in (int, float) and isinstance(val, bool):
        ok = False
    elif types is float:
        ok = isinstance(val, (int, float))
    else:
        ok = isinstance(val, types)
    if not ok:
        want = "number" if types is float else types.__name__
        raise ScenarioInvalid(name, f"expected {want}, got {type(val).__name__}")
    if types is float:
        try:
            val = float(val)
        except OverflowError:  # an integer literal beyond the float range
            val = math.inf
        if not math.isfinite(val):
            raise ScenarioInvalid(name, f"must be a finite number, got {val}")
    return val


def _reject_unknown(obj: dict, allowed, path: str):
    unknown = sorted(set(obj).difference(allowed))
    if unknown:
        raise ScenarioInvalid(f"{path}.{unknown[0]}" if path else unknown[0],
                              "unknown key")


def _need(obj: dict, key: str, types, path: str):
    if key not in obj:
        raise ScenarioInvalid(f"{path}{key}", "missing required key")
    return _typed(obj, key, types, path)


def _typed(obj: dict, key: str, types, path: str, default=None):
    return _check(obj[key], types, f"{path}{key}") if key in obj else default


def _pair(row, name: str) -> tuple[int, int]:
    if not (isinstance(row, list) and len(row) == 2):
        raise ScenarioInvalid(name, "expected a [region, region] pair")
    return _check(row[0], int, name), _check(row[1], int, name)


def build_scenario(raw: dict) -> Scenario:
    """Parse and fully validate a raw scenario dict into a Scenario."""
    if not isinstance(raw, dict):
        raise ScenarioInvalid("json", "scenario must be a JSON object")
    _reject_unknown(raw, _TOP_KEYS, "")

    topo_raw = _need(raw, "topology", dict, "")
    _reject_unknown(topo_raw, _TOPOLOGY_KEYS, "topology")
    coord_raw = _typed(raw, "coordinator", dict, "", default={})
    _reject_unknown(coord_raw, _COORD_KEYS, "coordinator")
    config = HierarchyConfig(
        num_layers=_typed(topo_raw, "num_layers", int, "topology.", default=5),
        workers_per_cluster=_need(topo_raw, "workers_per_cluster", int, "topology."),
        clusters_per_region=_need(topo_raw, "clusters_per_region", int, "topology."),
        regions_per_hub=_typed(topo_raw, "regions_per_hub", int, "topology.", default=1),
        hubs_per_domain=_typed(topo_raw, "hubs_per_domain", int, "topology.", default=1),
        domains=_typed(topo_raw, "domains", int, "topology.", default=1),
        coordinator_k=_typed(coord_raw, "K", int, "coordinator.", default=5),
        t_min=_typed(coord_raw, "T_min", int, "coordinator.", default=3),
    )

    adjacency = None
    if "adjacency" in topo_raw:
        rows = _typed(topo_raw, "adjacency", list, "topology.")
        adjacency = [_pair(row, f"topology.adjacency[{i}]") for i, row in enumerate(rows)]

    delays_raw = _typed(raw, "delays", dict, "", default={})
    _reject_unknown(delays_raw, _DELAY_KEYS, "delays")
    delay = DelayParams(
        alpha=_typed(delays_raw, "alpha", float, "delays.", default=1.0),
        beta=_typed(delays_raw, "beta", float, "delays.", default=0.1),
        epsilon=_typed(delays_raw, "epsilon", float, "delays.", default=0.05),
    )

    routing_raw = _typed(raw, "routing", dict, "", default={})
    _reject_unknown(routing_raw, _ROUTING_KEYS, "routing")
    route_mode = _typed(routing_raw, "mode", str, "routing.", default=MODE_LCA)

    lat_raw = _typed(raw, "link_latencies", dict, "", default={})
    link_latencies = dict(DEFAULT_LATENCIES)
    for k in lat_raw:
        link_latencies[k] = _typed(lat_raw, k, float, "link_latencies.")

    commands = []
    for i, c in enumerate(_typed(raw, "commands", list, "", default=[])):
        path = f"commands[{i}]."
        if not isinstance(c, dict):
            raise ScenarioInvalid(f"commands[{i}]", "expected an object")
        _reject_unknown(c, _COMMAND_KEYS, f"commands[{i}]")
        scope_raw = _need(c, "scope", dict, path)
        _reject_unknown(scope_raw, _SCOPE_KEYS, f"{path}scope")
        kind = _need(scope_raw, "kind", str, f"{path}scope.")
        scope = (kind,) if kind == "global" else (kind, _typed(scope_raw, "id", int, f"{path}scope."))
        targets = [_check(t, int, f"{path}targets")
                   for t in _typed(c, "targets", list, path, default=[])]
        payload_hex = _typed(c, "payload", str, path, default="")
        try:
            payload = bytes.fromhex(payload_hex)
        except ValueError:
            raise ScenarioInvalid(f"{path}payload", "expected a hex string") from None
        commands.append(CommandSpec(
            time=_need(c, "time", float, path),
            origin=_need(c, "origin", int, path),
            scope=scope,
            targets=frozenset(targets),
            payload=payload,
        ))

    failures = []
    for i, f in enumerate(_typed(raw, "failures", list, "", default=[])):
        path = f"failures[{i}]."
        if not isinstance(f, dict):
            raise ScenarioInvalid(f"failures[{i}]", "expected an object")
        _reject_unknown(f, _FAILURE_KEYS, f"failures[{i}]")
        failures.append(FailureSpec(
            time=_need(f, "time", float, path),
            kind=_need(f, "kind", str, path),
            action=_need(f, "action", str, path),
            worker=_typed(f, "worker", int, path),
            region=_typed(f, "region", int, path),
            link_class=_typed(f, "link_class", str, path),
            drop=_typed(f, "drop", float, path, default=1.0),
            edge=_pair(f["edge"], f"{path}edge") if "edge" in f else None,
        ))

    sc = Scenario(
        config=config,
        seed=_need(raw, "seed", int, ""),
        horizon=_need(raw, "horizon", float, ""),
        strategy=_typed(raw, "strategy", str, "", default="adjacent"),
        delay=delay,
        adjacency_override=adjacency,
        link_latencies=link_latencies,
        commands=commands,
        failures=failures,
        round_period=_typed(coord_raw, "round_period", float, "coordinator.", default=1.0),
        eager_refill=_typed(coord_raw, "eager_refill", bool, "coordinator.", default=False),
        single_promotion=_typed(coord_raw, "single_promotion", bool, "coordinator.", default=False),
        route_mode=route_mode,
    )
    validate_scenario(sc)
    return sc


def apply_overrides(raw: dict, assignments: list[str]) -> dict:
    """Apply ``--set dotted.path=value`` pairs to a raw scenario dict.

    Values parse as JSON when possible and fall back to plain strings, so
    ``strategy=hierarchical`` and ``delays.alpha=2.0`` both work.  List
    indices are not supported.
    """
    if not isinstance(raw, dict):
        raise ScenarioInvalid("json", "scenario must be a JSON object")
    for item in assignments:
        if "=" not in item:
            raise ScenarioInvalid("--set", f"expected key=value, got {item!r}")
        key, text = item.split("=", 1)
        parts = key.split(".")
        if "" in parts:
            raise ScenarioInvalid("--set", f"empty key segment in {item!r}")
        try:
            value = json.loads(text)
        except ValueError:
            value = text
        except RecursionError:
            raise ScenarioInvalid("--set", f"{key}: value nested too deeply") from None
        node = raw
        for part in parts[:-1]:
            nxt = node.get(part)
            if nxt is None:
                nxt = node[part] = {}
            if not isinstance(nxt, dict):
                raise ScenarioInvalid(key, f"{part} is not an object")
            node = nxt
        node[parts[-1]] = value
    return raw


def load_scenario_file(path: str, overrides: list[str] | None = None,
                       seed: int | None = None) -> Scenario:
    """Read, override, validate.  OSError propagates for the CLI's IO exit.

    ``seed`` acts as a last ``--set seed=N``, so it is validated with the rest.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.loads(fh.read())
        except ValueError as e:  # not UTF-8, not JSON, or an integer too long to parse
            raise ScenarioInvalid("json", f"scenario file is not valid JSON: {e}") from None
        except RecursionError:
            raise ScenarioInvalid("json", "scenario file is nested too deeply") from None
    if seed is not None:
        overrides = [*(overrides or []), f"seed={seed}"]
    if overrides:
        raw = apply_overrides(raw, overrides)
    return build_scenario(raw)
