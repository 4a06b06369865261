"""Region-scoped redundant coordinator maintenance.

Each region keeps K active coordinators; peers monitor each other once per
maintenance round, remove the failed, and when fewer than T_min remain promote
the fittest region-local candidates.  Nothing here ever looks outside the
region, which is what keeps repair traffic contained.

A round is a pure function of a region's roster, a tuple of worker ids:
``monitor_round`` returns the new roster, or None for a dead region, and the
caller keeps it.  K and T_min are read from ``topo.config``.

A region stays live while at least one coordinator is alive, so independent
failures with probability p leave it live with probability 1 - p**K.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import repeat, starmap

from .topology import RegionId, Topology, WorkerId, derive_seed

Roster = tuple[WorkerId, ...]


def initial_roster(topo: Topology, region: RegionId) -> Roster:
    """The region's K lowest worker ids."""
    return tuple(topo.workers_in_region(region)[:topo.config.coordinator_k])


def candidate_metric(connectivity: float, load: int, energy: float) -> float:
    """Fitness of a promotion candidate.

    0.5 * connectivity + 0.3 * (1 - load_norm) + 0.2 * energy.  Connectivity
    is the alive fraction of the worker's region peers; load is normalised as
    load / (load + 1) so any pending-work count maps into [0, 1).
    """
    load_norm = load / (load + 1)
    return 0.5 * connectivity + 0.3 * (1.0 - load_norm) + 0.2 * energy


def region_live(roster: Roster, topo: Topology) -> bool:
    """True while at least one active coordinator is alive (safety floor)."""
    return any(topo.is_alive(w) for w in roster)


def select_replacements(roster: Roster, region: RegionId, topo: Topology, need: int,
                        load_of=None) -> list[WorkerId]:
    """Pick up to `need` promotion candidates, best metric first.

    Candidates are alive region workers not already in the roster; ties break
    toward the lower worker id.  May return fewer than asked when the region
    is running out of healthy workers.
    """
    if need <= 0:
        return []
    taken = set(roster)
    members = topo.workers_in_region(region)
    alive = [w for w in members if topo.is_alive(w)]
    # every candidate is alive, so its alive peers are the others alive
    connectivity = (len(alive) - 1) / (len(members) - 1) if len(members) > 1 else 1.0
    scored = []
    for w in alive:
        if w in taken:
            continue
        load = load_of(w) if load_of else 0
        m = candidate_metric(connectivity, load, topo.energy[w])
        scored.append((-m, w))
    scored.sort()
    return [w for _, w in scored[:need]]


@dataclass
class RoundOutcome:
    active: Roster
    removed: list[WorkerId]
    promoted: list[WorkerId]
    alive_before: int

    @property
    def size_after(self) -> int:
        return len(self.active)


def monitor_round(roster: Roster, region: RegionId, topo: Topology, load_of=None,
                  eager_refill: bool = False,
                  single_promotion: bool = False) -> RoundOutcome | None:
    """One synchronized maintenance round for a region.

    Removes coordinators that died since the previous round (one-round
    detection), then refills toward T_min (or K with eager_refill) when the
    alive count breached T_min.  single_promotion caps the refill at one
    promotion per round.  Returns None when no alive coordinator remains to
    run the round at all.

    Nothing is edited: the new roster is the outcome's ``active``, and
    virtual-role bindings are left exactly as they were.
    """
    alive = tuple(filter(topo.is_alive, roster))
    if not alive:
        return None
    removed = [w for w in roster if not topo.is_alive(w)]
    cfg, promoted = topo.config, []
    if len(alive) < cfg.t_min:
        need = (cfg.coordinator_k if eager_refill else cfg.t_min) - len(alive)
        if single_promotion:
            need = min(need, 1)
        promoted = select_replacements(alive, region, topo, need, load_of)
    return RoundOutcome(alive + tuple(promoted), removed, promoted, len(alive))


def predicted_liveness(p: float, k: int) -> float:
    """Closed-form region liveness 1 - p**k for failure probability p.
    The arguments are trusted: the CLI checks p in [0, 1] and k >= 1."""
    return 1.0 - p ** k


def liveness_trials(p: float, k: int, trials: int, seed: int) -> int:
    """Monte-Carlo region liveness: how many of ``trials`` trials, each failing
    the coordinators iid with p, leave the region live.

    Every trial takes K draws, one per coordinator, from one sha256-derived
    stream, so results are reproducible from (p, k, seed) alone; the region
    is live when any coordinator survives, as ``region_live`` asks.  Only
    the count is kept, so memory does not grow with ``trials``.  Kept
    simulator-free on purpose: the validation budget is 1e5 trials per
    parameter point.  The arguments are trusted, as in ``predicted_liveness``.
    """
    rng = random.Random(derive_seed(seed, "liveness", k, repr(p)))
    # trials*k draws in stream order; zip over one iterator groups them k to
    # a trial, so every trial takes all K.  float(p): an int's __le__ returns
    # NotImplemented for a float draw, which is truthy
    survives = map(float(p).__le__, starmap(rng.random, repeat((), trials * k)))
    return sum(map(any, zip(*[survives] * k)))
