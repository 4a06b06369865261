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

``build_scenario`` reads the file in one pass, each object through the field
table of its kind (``_TOP``, ``_TOPOLOGY``, ``_COMMAND``, ``_FAILURE`` and so
on): key -> (type, default), where a required key has no default, in the
order the fields are checked.  ``_read`` tests the keys with one superset
test, then takes an exact JSON value of the right type as it is and sends
anything else, and every composite field (a scope, a target list, a hex
payload, a region pair), through ``_check``, the one type rule.  A field's
path, such as ``failures[12].worker``, is built only to name it in an error.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from math import isfinite
from typing import NamedTuple

from .adjacent import DelayParams
from .errors import ScenarioInvalid
from .hierarchical import MODE_LCA, MODE_ROOT
from .topology import SCOPE_LAYERS, HierarchyConfig

DEFAULT_LATENCIES = {"cluster": 0.1, "region": 0.2, "adjacent": 0.5, "tree": 1.0}

STRATEGIES = ("adjacent", "hierarchical")

# The kernel queues one maintenance round at a time and counts a quiet
# stretch of rounds at once, but a region below T_min with no candidate is
# visited every round, and writes a record each time.
MAX_MAINTENANCE_ROUNDS = 100_000

# At 10 workers a cluster a topology keeps about 15 B per worker of role
# bindings and region graph, and the first re-selection draws 8 B and about
# 1 us per worker of energy (CPython 3.11), and each region's first 8 B per
# worker of it for its energy order: the cap keeps them under about 35 MB and
# a few seconds.
MAX_WORKERS = 1_000_000


class CommandSpec(NamedTuple):
    time: float
    origin: int
    scope: tuple
    targets: frozenset[int] = frozenset()


class FailureSpec(NamedTuple):
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


_FANOUT_KEYS = ("workers_per_cluster", "clusters_per_region", "regions_per_hub",
                "hubs_per_domain", "domains")

_REQUIRED = object()  # the default of a key that must be present


class _Table(dict):
    """One object kind's fields: key -> (type, default), in the order they are read.

    The type is a JSON type or a reader function for a composite value
    (``_pair``, ``_scope``, ``_ids``, ``_hex``); a required key's default is
    _REQUIRED.  ``allowed``, the key set, is what the unknown-key test uses;
    ``rows`` holds the (key, type, default) rows that ``_read`` walks.
    """

    def __init__(self, *rows, **named):
        super().__init__(*rows, **named)
        self.allowed = frozenset(self)
        self.rows = tuple((key, typ, default) for key, (typ, default) in self.items())


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
    n_workers, n_clusters, n_regions = cfg.n_workers, cfg.n_clusters, cfg.n_regions
    if n_workers > MAX_WORKERS:
        raise ScenarioInvalid("topology", f"must hold at most {MAX_WORKERS} workers, "
                                          f"got {n_workers}")
    n_scopes = {kind: cfg.n_scopes(layer) for kind, layer in SCOPE_LAYERS.items()}
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
    for name in _DELAYS:
        if getattr(sc.delay, name) < 0:
            raise ScenarioInvalid(f"delays.{name}", f"must be >= 0, got {getattr(sc.delay, name)}")
    d = sc.delay  # the largest delay: distance <= 4 layers, load <= 1 per command
    if not isfinite(d.alpha * len(SCOPE_LAYERS) + d.beta * len(sc.commands) + d.epsilon):
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
                if not 0 <= r < n_regions:
                    raise ScenarioInvalid(f"topology.adjacency[{i}]",
                                          f"region {r} out of range (have {n_regions})")
    for i, cmd in enumerate(sc.commands):
        if cmd.time < 0:
            raise ScenarioInvalid(f"commands[{i}].time", "must be >= 0")
        if not 0 <= cmd.origin < n_clusters:
            raise ScenarioInvalid(f"commands[{i}].origin",
                                  f"cluster {cmd.origin} out of range (have {n_clusters})")
        kind = cmd.scope[0] if cmd.scope else None
        if kind in n_scopes:
            sid = cmd.scope[1] if len(cmd.scope) > 1 else None
            have = n_scopes[kind]
            if sid is None or not 0 <= sid < have:
                raise ScenarioInvalid(f"commands[{i}].scope",
                                      f"{kind} id {sid} out of range (have {have})")
        elif kind != "global":
            raise ScenarioInvalid(f"commands[{i}].scope", f"unknown scope kind {kind!r}")
        for t in cmd.targets:
            if not 0 <= t < n_workers:
                raise ScenarioInvalid(f"commands[{i}].targets",
                                      f"worker {t} out of range (have {n_workers})")
    for i, f in enumerate(sc.failures):
        if f.time < 0:
            raise ScenarioInvalid(f"failures[{i}].time", "must be >= 0")
        if f.kind == "worker":
            if f.action not in ("kill", "revive"):
                raise ScenarioInvalid(f"failures[{i}].action", f"worker supports kill/revive, got {f.action!r}")
            if f.worker is None or not 0 <= f.worker < n_workers:
                raise ScenarioInvalid(f"failures[{i}].worker",
                                      f"worker {f.worker} out of range (have {n_workers})")
        elif f.kind == "region":
            if f.action != "kill":
                raise ScenarioInvalid(f"failures[{i}].action", f"region supports kill, got {f.action!r}")
            if f.region is None or not 0 <= f.region < n_regions:
                raise ScenarioInvalid(f"failures[{i}].region",
                                      f"region {f.region} out of range (have {n_regions})")
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
                if not 0 <= r < n_regions:
                    raise ScenarioInvalid(f"failures[{i}].edge",
                                          f"region {r} out of range (have {n_regions})")
        else:
            raise ScenarioInvalid(f"failures[{i}].kind", f"unknown failure kind {f.kind!r}")


def _check(val, typ, where: str, i, key):
    """The one type rule: bools are never numbers, and numbers are finite.

    A reader function in a table's type column reads its composite value
    instead.  The field's path, ``where.format(i)`` then ``key``, is built
    only to name it in an error.
    """
    if not isinstance(typ, type):
        return typ(val, where, i, key)
    if typ in (int, float) and isinstance(val, bool):
        ok = False
    elif typ is float:
        ok = isinstance(val, (int, float))
    else:
        ok = isinstance(val, typ)
    if not ok:
        want = "number" if typ is float else typ.__name__
        raise ScenarioInvalid(f"{where.format(i)}{key}",
                              f"expected {want}, got {type(val).__name__}")
    if typ is float:
        try:
            val = float(val)
        except OverflowError:  # an integer literal beyond the float range
            val = math.inf
        if not isfinite(val):
            raise ScenarioInvalid(f"{where.format(i)}{key}", f"must be a finite number, got {val}")
    return val


def _reject_unknown(obj: dict, allowed, where: str, i=None):
    unknown = sorted(set(obj).difference(allowed))
    if unknown:
        raise ScenarioInvalid(f"{where.format(i)}{unknown[0]}", "unknown key")


def _read(obj: dict, table: _Table, where: str, i=None, keys=None) -> list:
    """Check ``obj``'s keys against ``table``, then read its fields in table
    order (or only ``keys``, in that order): the order errors are found in.

    An exact JSON value of the field's type (an int that is not a bool, a
    finite float, a str, list or dict) is taken as it is; any other value,
    and every composite one, goes through ``_check``.  ``where`` is a path
    template formatted with ``i``, the object's index in its list.
    """
    if not table.allowed.issuperset(obj):
        _reject_unknown(obj, table.allowed, where, i)
    values = []
    for key, typ, default in (table.rows if keys is None
                              else [(k, *table[k]) for k in keys]):
        if key in obj:
            val = obj[key]
            if type(val) is not typ or typ is float and not isfinite(val):
                val = _check(val, typ, where, i, key)
        elif default is _REQUIRED:
            raise ScenarioInvalid(f"{where.format(i)}{key}", "missing required key")
        else:
            val = default
        values.append(val)
    return values


def _pair(row, where: str, i, key) -> tuple[int, int]:
    if not (isinstance(row, list) and len(row) == 2):
        raise ScenarioInvalid(f"{where.format(i)}{key}", "expected a [region, region] pair")
    return _check(row[0], int, where, i, key), _check(row[1], int, where, i, key)


def _scope(val, where: str, i, key) -> tuple:
    """("global",) or (kind, id): a global scope's id is never read."""
    _check(val, dict, where, i, key)
    where = f"{where}{key}."
    (kind,) = _read(val, _SCOPE, where, i, keys=("kind",))
    return (kind,) if kind == "global" else (kind, *_read(val, _SCOPE, where, i, keys=("id",)))


def _ids(val, where: str, i, key) -> frozenset[int]:
    _check(val, list, where, i, key)
    for t in val:
        if type(t) is not int:
            _check(t, int, where, i, key)
    return frozenset(val)


def _hex(val, where: str, i, key) -> bytes:
    _check(val, str, where, i, key)
    try:
        return bytes.fromhex(val)
    except ValueError:
        raise ScenarioInvalid(f"{where.format(i)}{key}", "expected a hex string") from None


_TOP = _Table(topology=(dict, _REQUIRED), coordinator=(dict, {}), delays=(dict, {}),
              routing=(dict, {}), link_latencies=(dict, {}), commands=(list, []),
              failures=(list, []), seed=(int, _REQUIRED), horizon=(float, _REQUIRED),
              strategy=(str, "adjacent"))
_TOPOLOGY = _Table(num_layers=(int, 5), workers_per_cluster=(int, _REQUIRED),
                   clusters_per_region=(int, _REQUIRED), regions_per_hub=(int, 1),
                   hubs_per_domain=(int, 1), domains=(int, 1), adjacency=(list, None))
_SHAPE_KEYS = ("num_layers", *_FANOUT_KEYS)
_COORDINATOR = _Table(K=(int, 5), T_min=(int, 3), round_period=(float, 1.0),
                      eager_refill=(bool, False), single_promotion=(bool, False))
_DELAYS = _Table(alpha=(float, 1.0), beta=(float, 0.1), epsilon=(float, 0.05))
_ROUTING = _Table(mode=(str, MODE_LCA))
_COMMAND = _Table(scope=(_scope, _REQUIRED), targets=(_ids, frozenset()), payload=(_hex, b""),
                  time=(float, _REQUIRED), origin=(int, _REQUIRED))
_SCOPE = _Table(kind=(str, _REQUIRED), id=(int, None))
# in FailureSpec's field order, so that a row of values is a FailureSpec
_FAILURE = _Table(time=(float, _REQUIRED), kind=(str, _REQUIRED), action=(str, _REQUIRED),
                  worker=(int, None), region=(int, None), link_class=(str, None),
                  drop=(float, 1.0), edge=(_pair, None))


def build_scenario(raw: dict) -> Scenario:
    """Parse and fully validate a raw scenario dict into a Scenario.

    The fields are read in the order below, so that of two bad fields the
    same one is always named.
    """
    if not isinstance(raw, dict):
        raise ScenarioInvalid("json", "scenario must be a JSON object")
    topo_raw, coord_raw = _read(raw, _TOP, "", keys=("topology", "coordinator"))
    _reject_unknown(topo_raw, _TOPOLOGY.allowed, "topology.")
    _reject_unknown(coord_raw, _COORDINATOR.allowed, "coordinator.")
    shape = _read(topo_raw, _TOPOLOGY, "topology.", keys=_SHAPE_KEYS)
    k, t_min = _read(coord_raw, _COORDINATOR, "coordinator.", keys=("K", "T_min"))
    config = HierarchyConfig(**dict(zip(_SHAPE_KEYS, shape)), coordinator_k=k, t_min=t_min)

    (rows,) = _read(topo_raw, _TOPOLOGY, "topology.", keys=("adjacency",))
    adjacency = None if rows is None else [_pair(row, "topology.adjacency[{}]", j, "")
                                           for j, row in enumerate(rows)]
    (delays_raw,) = _read(raw, _TOP, "", keys=("delays",))
    delay = DelayParams(*_read(delays_raw, _DELAYS, "delays."))
    (routing_raw,) = _read(raw, _TOP, "", keys=("routing",))
    (route_mode,) = _read(routing_raw, _ROUTING, "routing.")
    (lat_raw,) = _read(raw, _TOP, "", keys=("link_latencies",))
    # any key reads here: validate_scenario names an unknown link class
    lat_table = _Table((k, (float, _REQUIRED)) for k in lat_raw)
    link_latencies = {**DEFAULT_LATENCIES,
                      **dict(zip(lat_raw, _read(lat_raw, lat_table, "link_latencies.")))}

    (commands_raw,) = _read(raw, _TOP, "", keys=("commands",))
    commands = []
    for i, c in enumerate(commands_raw):
        if not isinstance(c, dict):
            raise ScenarioInvalid(f"commands[{i}]", "expected an object")
        # a payload is read, so a bad one is rejected, but no copy carries it
        scope, targets, _payload, time, origin = _read(c, _COMMAND, "commands[{}].", i)
        commands.append(CommandSpec(time, origin, scope, targets))

    (failures_raw,) = _read(raw, _TOP, "", keys=("failures",))
    failures = []
    for i, f in enumerate(failures_raw):
        if not isinstance(f, dict):
            raise ScenarioInvalid(f"failures[{i}]", "expected an object")
        failures.append(FailureSpec._make(_read(f, _FAILURE, "failures[{}].", i)))

    seed, horizon, strategy = _read(raw, _TOP, "", keys=("seed", "horizon", "strategy"))
    round_period, eager_refill, single_promotion = _read(
        coord_raw, _COORDINATOR, "coordinator.",
        keys=("round_period", "eager_refill", "single_promotion"))
    sc = Scenario(
        config=config,
        seed=seed,
        horizon=horizon,
        strategy=strategy,
        delay=delay,
        adjacency_override=adjacency,
        link_latencies=link_latencies,
        commands=commands,
        failures=failures,
        round_period=round_period,
        eager_refill=eager_refill,
        single_promotion=single_promotion,
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
