import pytest

from virtree.coordinators import (
    CoordinatorSet,
    candidate_metric,
    liveness_trials,
    monitor_round,
    predicted_liveness,
    region_live,
    select_replacements,
)
from virtree.errors import RegionDead
from virtree.metrics import liveness_estimate
from virtree.topology import HierarchyConfig, build_topology


def make_topo(**kw):
    kw.setdefault("workers_per_cluster", 4)
    kw.setdefault("clusters_per_region", 2)
    kw.setdefault("coordinator_k", 5)
    kw.setdefault("t_min", 3)
    return build_topology(HierarchyConfig(**kw), seed=3)


class TestRoster:
    def test_initial_roster_lowest_ids(self, topo32):
        cs = CoordinatorSet.initial(topo32, 1)
        assert cs.active == [8, 9, 10, 11, 12]
        assert (cs.k, cs.t_min) == (5, 3)

    def test_region_live_until_last_coordinator(self, topo32):
        cs = CoordinatorSet.initial(topo32, 0)
        for w in (0, 1, 2, 3):
            topo32.mark_dead(w)
        assert region_live(cs, topo32)
        topo32.mark_dead(4)
        assert not region_live(cs, topo32)


class TestCandidateMetric:
    def test_weighted_sum(self):
        topo = make_topo()
        topo.energy[6] = 0.5
        # all peers alive, zero load: 0.5*1 + 0.3*1 + 0.2*0.5
        assert candidate_metric(topo, 6, load=0) == pytest.approx(0.9)

    def test_load_normalisation(self):
        topo = make_topo()
        topo.energy[6] = 0.5
        assert candidate_metric(topo, 6, load=1) == pytest.approx(0.75)

    def test_connectivity_term(self):
        topo = make_topo()
        topo.energy[6] = 0.5
        for w in (0, 1, 2):  # 3 of 7 peers dead
            topo.mark_dead(w)
        assert candidate_metric(topo, 6) == pytest.approx(0.5 * 4 / 7 + 0.3 + 0.1)


class TestSelectReplacements:
    def test_best_metric_first(self):
        topo = make_topo()
        cs = CoordinatorSet.initial(topo, 0)
        topo.energy.update({5: 0.3, 6: 0.9, 7: 0.5})
        assert select_replacements(cs, topo, 2) == [6, 7]

    def test_tie_breaks_to_lowest_id(self):
        topo = make_topo()
        cs = CoordinatorSet.initial(topo, 0)
        topo.energy.update({5: 0.5, 6: 0.5, 7: 0.5})
        assert select_replacements(cs, topo, 2) == [5, 6]

    def test_dead_and_rostered_excluded(self):
        topo = make_topo()
        cs = CoordinatorSet.initial(topo, 0)
        topo.mark_dead(6)
        picked = select_replacements(cs, topo, 3)
        assert 6 not in picked
        assert not set(picked) & set(cs.active)

    def test_load_aware(self):
        topo = make_topo()
        cs = CoordinatorSet.initial(topo, 0)
        topo.energy.update({5: 0.5, 6: 0.5, 7: 0.5})
        assert select_replacements(cs, topo, 1, load_of=lambda w: 3 if w == 5 else 0) == [6]


class TestMonitorRound:
    def test_quiet_round_changes_nothing(self):
        topo = make_topo()
        cs = CoordinatorSet.initial(topo, 0)
        out = monitor_round(cs, topo)
        assert (out.removed, out.promoted) == ([], [])
        assert out.size_before == out.size_after == 5
        assert cs.active == [0, 1, 2, 3, 4]

    def test_single_failure_removed_no_promotion(self):
        topo = make_topo()
        cs = CoordinatorSet.initial(topo, 0)
        topo.mark_dead(2)
        out = monitor_round(cs, topo)
        assert out.removed == [2]
        assert out.promoted == []
        assert out.size_after == 4  # still >= T_min
        assert not out.degraded

    def test_exactly_t_min_alive_needs_no_promotion(self):
        topo = make_topo()
        cs = CoordinatorSet.initial(topo, 0)
        topo.mark_dead(0)
        topo.mark_dead(1)
        out = monitor_round(cs, topo)
        assert out.removed == [0, 1]
        assert out.promoted == []
        assert out.size_after == 3  # exactly T_min is still fine
        assert not out.degraded

    def test_breach_refills_to_t_min_same_round(self):
        topo = make_topo()
        cs = CoordinatorSet.initial(topo, 0)
        for w in (0, 1, 2):
            topo.mark_dead(w)
        out = monitor_round(cs, topo)
        assert out.removed == [0, 1, 2]
        assert out.alive_before == 2
        assert len(out.promoted) == 1
        assert out.size_after == 3
        assert not out.degraded

    def test_eager_refill_restores_k(self):
        topo = make_topo()
        cs = CoordinatorSet.initial(topo, 0)
        for w in (0, 1, 2):
            topo.mark_dead(w)
        out = monitor_round(cs, topo, eager_refill=True)
        assert len(out.promoted) == 3
        assert out.size_after == 5

    def test_single_promotion_takes_extra_round(self):
        topo = make_topo()
        cs = CoordinatorSet.initial(topo, 0)
        for w in (0, 1, 2, 3):
            topo.mark_dead(w)
        first = monitor_round(cs, topo, single_promotion=True)
        assert len(first.promoted) == 1
        assert first.size_after == 2
        assert first.degraded
        second = monitor_round(cs, topo, single_promotion=True)
        assert len(second.promoted) == 1
        assert second.size_after == 3
        assert not second.degraded

    def test_degraded_when_region_out_of_candidates(self):
        topo = build_topology(HierarchyConfig(2, 2, coordinator_k=4, t_min=3), seed=3)
        cs = CoordinatorSet.initial(topo, 0)  # roster is the whole region
        topo.mark_dead(0)
        topo.mark_dead(1)
        out = monitor_round(cs, topo)
        assert out.promoted == []
        assert out.size_after == 2
        assert out.degraded

    def test_all_dead_raises_region_dead(self):
        topo = make_topo()
        cs = CoordinatorSet.initial(topo, 0)
        for w in (0, 1, 2, 3, 4):
            topo.mark_dead(w)
        with pytest.raises(RegionDead):
            monitor_round(cs, topo)

    def test_roster_repair_leaves_roles_alone(self):
        topo = make_topo()
        cs = CoordinatorSet.initial(topo, 0)
        before = {layer: dict(holders) for layer, holders in topo.roles.items()}
        for w in (0, 1, 2):
            topo.mark_dead(w)
        monitor_round(cs, topo)
        assert topo.roles == before

    def test_region_processing_order_irrelevant(self):
        outcomes = {}
        for order in ((0, 1), (1, 0)):
            topo = make_topo(regions_per_hub=2)
            coords = {r: CoordinatorSet.initial(topo, r) for r in topo.regions}
            for w in (0, 1, 2, 8, 9, 10):
                topo.mark_dead(w)
            outcomes[order] = [monitor_round(coords[r], topo) for r in order]
        assert outcomes[(0, 1)][0] == outcomes[(1, 0)][1]  # region 0
        assert outcomes[(0, 1)][1] == outcomes[(1, 0)][0]  # region 1


class TestLiveness:
    def test_closed_form(self):
        assert predicted_liveness(0.1, 3) == pytest.approx(0.999)
        assert predicted_liveness(0.0, 4) == 1.0
        assert predicted_liveness(1.0, 5) == 0.0

    def test_argument_checks(self):
        with pytest.raises(ValueError):
            predicted_liveness(-0.1, 3)
        with pytest.raises(ValueError):
            predicted_liveness(1.5, 3)
        with pytest.raises(ValueError):
            predicted_liveness(0.1, 0)

    def test_trials_reproducible(self):
        a = liveness_trials(0.3, 2, 200, seed=77)
        b = liveness_trials(0.3, 2, 200, seed=77)
        assert a == b
        assert len(a) == 200
        assert liveness_trials(0.3, 2, 200, seed=78) != a

    def test_trials_match_closed_form(self):
        outcomes = liveness_trials(0.5, 2, 4000, seed=11)
        est = liveness_estimate(outcomes, 0.5, 2)
        assert est.predicted == pytest.approx(0.75)
        assert est.within_3sigma
