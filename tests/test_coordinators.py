import random
import tracemalloc
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from virtree.coordinators import (
    candidate_metric,
    initial_roster,
    liveness_trials,
    monitor_round,
    predicted_liveness,
    region_live,
    select_replacements,
)
from virtree.metrics import liveness_estimate
from virtree.topology import HierarchyConfig, build_topology, derive_seed


def reference_liveness(p, k, trials, seed):
    """liveness_trials one trial at a time, K draws each from the same stream."""
    rng = random.Random(derive_seed(seed, "liveness", k, repr(p)))
    live = 0
    for _ in range(trials):
        draws = [rng.random() for _ in range(k)]
        live += any(r >= p for r in draws)
    return live


def make_topo(**kw):
    kw.setdefault("workers_per_cluster", 4)
    kw.setdefault("clusters_per_region", 2)
    kw.setdefault("coordinator_k", 5)
    kw.setdefault("t_min", 3)
    return build_topology(HierarchyConfig(**kw), seed=3)


class TestRoster:
    def test_initial_roster_lowest_ids(self, topo32):
        assert initial_roster(topo32, 1) == (8, 9, 10, 11, 12)

    def test_region_live_until_last_coordinator(self, topo32):
        roster = initial_roster(topo32, 0)
        for w in (0, 1, 2, 3):
            topo32.mark_dead(w)
        assert region_live(roster, topo32)
        topo32.mark_dead(4)
        assert not region_live(roster, topo32)


class TestCandidateMetric:
    def test_weighted_sum(self):
        # all peers alive, zero load: 0.5*1 + 0.3*1 + 0.2*0.5
        assert candidate_metric(1.0, 0, 0.5) == pytest.approx(0.9)

    def test_load_normalisation(self):
        assert candidate_metric(1.0, 1, 0.5) == pytest.approx(0.75)

    def test_connectivity_term(self):
        # 3 of 7 peers dead
        assert candidate_metric(4 / 7, 0, 0.5) == pytest.approx(0.5 * 4 / 7 + 0.3 + 0.1)


class TestSelectReplacements:
    def test_best_metric_first(self):
        topo = make_topo()
        roster = initial_roster(topo, 0)
        topo.energy[5:8] = array("d", [0.3, 0.9, 0.5])
        assert select_replacements(roster, 0, topo, 2) == [6, 7]

    def test_tie_breaks_to_lowest_id(self):
        topo = make_topo()
        roster = initial_roster(topo, 0)
        topo.energy[5:8] = array("d", [0.5, 0.5, 0.5])
        assert select_replacements(roster, 0, topo, 2) == [5, 6]

    def test_dead_and_rostered_excluded(self):
        topo = make_topo()
        roster = initial_roster(topo, 0)
        topo.mark_dead(6)
        picked = select_replacements(roster, 0, topo, 3)
        assert 6 not in picked
        assert not set(picked) & set(roster)

    def test_nothing_needed_picks_nothing(self):
        topo = make_topo()
        assert select_replacements(initial_roster(topo, 0), 0, topo, 0) == []

    def test_load_aware(self):
        topo = make_topo()
        roster = initial_roster(topo, 0)
        topo.energy[5:8] = array("d", [0.5, 0.5, 0.5])
        assert select_replacements(roster, 0, topo, 1, load_of=lambda w: 3 if w == 5 else 0) == [6]

    def test_matches_per_candidate_peer_scan(self):
        # reference: every candidate scored, its connectivity counted from its
        # own peers, then one full sort.  Energies come from a small set and
        # loads are 0 or more, so metrics tie: at equal energy and load, and
        # across energies (0.95 at load 1 scores as 0.2 at load 0 at most
        # connectivities), where a later candidate in energy order may win
        # on its lower id.  need may exceed the candidates left.
        rng = random.Random(11)
        for trial in range(300):
            topo = make_topo(workers_per_cluster=5, clusters_per_region=4)
            members = topo.workers_in_region(0)
            topo.energy[members.start:members.stop] = array(
                "d", (rng.choice((0.2, 0.25, 0.95, 1.0)) for _ in members))
            for w in rng.sample(members, rng.randrange(len(members) - 1)):
                topo.mark_dead(w)
            roster = initial_roster(topo, 0)
            load = {w: rng.choice((0, 1, 1, 3)) for w in members}

            def metric(w):
                peers = [p for p in members if p != w]
                conn = sum(1 for p in peers if topo.is_alive(p)) / len(peers)
                return candidate_metric(conn, load[w], topo.energy[w])
            ranked = sorted((-metric(w), w) for w in members
                            if topo.is_alive(w) and w not in roster)
            need = rng.randrange(1, len(members))
            assert select_replacements(roster, 0, topo, need, load.get) == \
                [w for _, w in ranked[:need]]


class TestMonitorRound:
    def test_quiet_round_changes_nothing(self):
        topo = make_topo()
        out = monitor_round(initial_roster(topo, 0), 0, topo)
        assert (out.removed, out.promoted) == ([], [])
        assert out.alive_before == out.size_after == 5
        assert out.active == (0, 1, 2, 3, 4)

    def test_single_failure_removed_no_promotion(self):
        topo = make_topo()
        topo.mark_dead(2)
        out = monitor_round(initial_roster(topo, 0), 0, topo)
        assert out.removed == [2]
        assert out.promoted == []
        assert out.active == (0, 1, 3, 4)
        assert out.size_after == 4  # still >= T_min
        assert out.size_after >= topo.config.t_min

    def test_exactly_t_min_alive_needs_no_promotion(self):
        topo = make_topo()
        topo.mark_dead(0)
        topo.mark_dead(1)
        out = monitor_round(initial_roster(topo, 0), 0, topo)
        assert out.removed == [0, 1]
        assert out.promoted == []
        assert out.size_after == 3  # exactly T_min is still fine
        assert out.size_after >= topo.config.t_min

    def test_breach_refills_to_t_min_same_round(self):
        topo = make_topo()
        for w in (0, 1, 2):
            topo.mark_dead(w)
        out = monitor_round(initial_roster(topo, 0), 0, topo)
        assert out.removed == [0, 1, 2]
        assert out.alive_before == 2
        assert len(out.promoted) == 1
        assert out.active == (3, 4, *out.promoted)
        assert out.size_after == 3
        assert out.size_after >= topo.config.t_min

    def test_eager_refill_restores_k(self):
        topo = make_topo()
        for w in (0, 1, 2):
            topo.mark_dead(w)
        out = monitor_round(initial_roster(topo, 0), 0, topo, eager_refill=True)
        assert len(out.promoted) == 3
        assert out.size_after == 5

    def test_single_promotion_takes_extra_round(self):
        topo = make_topo()
        for w in (0, 1, 2, 3):
            topo.mark_dead(w)
        first = monitor_round(initial_roster(topo, 0), 0, topo, single_promotion=True)
        assert len(first.promoted) == 1
        assert first.size_after == 2
        assert first.size_after < topo.config.t_min
        second = monitor_round(first.active, 0, topo, single_promotion=True)
        assert len(second.promoted) == 1
        assert second.size_after == 3
        assert second.size_after >= topo.config.t_min

    def test_degraded_when_region_out_of_candidates(self):
        topo = build_topology(HierarchyConfig(2, 2, coordinator_k=4, t_min=3), seed=3)
        roster = initial_roster(topo, 0)  # the whole region
        topo.mark_dead(0)
        topo.mark_dead(1)
        out = monitor_round(roster, 0, topo)
        assert out.promoted == []
        assert out.size_after == 2
        assert out.size_after < topo.config.t_min

    def test_all_dead_returns_none(self):
        topo = make_topo()
        for w in (0, 1, 2, 3, 4):
            topo.mark_dead(w)
        assert monitor_round(initial_roster(topo, 0), 0, topo) is None

    def test_roster_repair_leaves_roles_alone(self):
        topo = make_topo()
        before = {layer: dict(holders) for layer, holders in topo.roles.items()}
        for w in (0, 1, 2):
            topo.mark_dead(w)
        monitor_round(initial_roster(topo, 0), 0, topo)
        assert topo.roles == before

    def test_region_processing_order_irrelevant(self):
        outcomes = {}
        for order in ((0, 1), (1, 0)):
            topo = make_topo(regions_per_hub=2)
            rosters = [initial_roster(topo, r) for r in topo.regions]
            for w in (0, 1, 2, 8, 9, 10):
                topo.mark_dead(w)
            outcomes[order] = [monitor_round(rosters[r], r, topo) for r in order]
        assert outcomes[(0, 1)][0] == outcomes[(1, 0)][1]  # region 0
        assert outcomes[(0, 1)][1] == outcomes[(1, 0)][0]  # region 1


@st.composite
def rounds(draw):
    """A shape with K and T_min, a region in it, a dead set, a roster of
    distinct region workers in any order, a load per worker and both refill
    flags."""
    k = draw(st.integers(1, 5))
    cfg = HierarchyConfig(draw(st.integers(1, 3)), draw(st.integers(1, 3)),
                          draw(st.integers(1, 2)), coordinator_k=k,
                          t_min=draw(st.integers(1, k)))
    topo = build_topology(cfg, seed=draw(st.integers(0, 9)))
    for w in draw(st.sets(st.sampled_from(range(cfg.n_workers)))):
        topo.mark_dead(w)
    region = draw(st.sampled_from(topo.regions))
    members = topo.workers_in_region(region)
    roster = tuple(draw(st.lists(st.sampled_from(members), unique=True, max_size=k)))
    load = draw(st.lists(st.integers(0, 3), min_size=cfg.n_workers,
                         max_size=cfg.n_workers))
    flags = {"eager_refill": draw(st.booleans()), "single_promotion": draw(st.booleans())}
    return topo, region, roster, load, flags


class TestMonitorRoundIsPure:
    @settings(max_examples=300, deadline=None)
    @given(rounds())
    def test_same_inputs_same_outcome(self, case):
        # the kernel keeps each region's roster: a second call on the same
        # inputs returns an equal outcome, and neither edits the topology (a
        # roster is a tuple, so no call can edit the one it is given)
        topo, region, roster, load, flags = case
        before = ({layer: dict(h) for layer, h in topo.roles.items()}, set(topo.dead),
                  topo.energy.tolist())
        first, again = (monitor_round(roster, region, topo, load.__getitem__, **flags)
                        for _ in range(2))
        assert first == again
        assert (topo.roles, topo.dead, topo.energy.tolist()) == before
        assert (first is None) == (not any(map(topo.is_alive, roster)))
        if first is not None:
            assert type(first.active) is tuple
            assert len(set(first.active)) == first.size_after
            assert all(map(topo.is_alive, first.active))


class TestLiveness:
    def test_closed_form(self):
        assert predicted_liveness(0.1, 3) == pytest.approx(0.999)
        assert predicted_liveness(0.0, 4) == 1.0
        assert predicted_liveness(1.0, 5) == 0.0

    def test_trials_reproducible(self):
        a = liveness_trials(0.3, 2, 200, seed=77)
        b = liveness_trials(0.3, 2, 200, seed=77)
        assert a == b
        assert 0 <= a <= 200
        assert liveness_trials(0.3, 2, 200, seed=78) != a

    def test_trials_match_closed_form(self):
        live = liveness_trials(0.5, 2, 4000, seed=11)
        est = liveness_estimate(live, 4000, 0.5, 2)
        assert est.predicted == pytest.approx(0.75)
        assert est.within_3sigma

    @pytest.mark.parametrize("p", [0, 1, 0.0, 0.05, 0.3, 0.5, 0.9, 1.0])
    def test_trials_equal_per_trial_reference(self, p):
        # int 0 and 1 included: int.__le__ of a float draw is NotImplemented
        for k in range(1, 8):
            for trials in (1, 3, 37, 101):
                for seed in (1, 77, 20260819):
                    assert (liveness_trials(p, k, trials, seed)
                            == reference_liveness(p, k, trials, seed)), (p, k, trials, seed)

    def test_trials_memory_does_not_grow_with_trials(self):
        tracemalloc.start()
        try:
            liveness_trials(0.5, 1, 200_000, seed=5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024
