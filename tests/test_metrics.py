import json

import pytest

from virtree.metrics import (
    TRANSMISSION_EVENTS,
    TraceRecord,
    build_report,
    containment_check,
    dump_trace,
    liveness_estimate,
    message_totals,
    parse_trace,
    recovery_latency,
)
from virtree.scenario import CommandSpec, Scenario
from virtree.simkernel import run
from virtree.topology import HierarchyConfig


def rec(comp, event, time=1.0, seq=0, **data):
    return TraceRecord(time=time, seq=seq, comp=comp, event=event, data=data)


def alg4_round(region, rnd, alive_before, size_after, t_min=3, **extra):
    return rec("alg4", "round", time=float(rnd), seq=rnd, region=region,
               src_region=region, dst_region=region, round=rnd,
               alive_before=alive_before, size_after=size_after, t_min=t_min,
               **extra)


class TestTraceSerialization:
    def test_canonical_json_line(self):
        r = rec("alg1", "receive", time=1.5, seq=3, worker=7, hop=2)
        line = r.to_json_line()
        assert line == '{"comp":"alg1","event":"receive","hop":2,"seq":3,"time":1.5,"worker":7}'
        assert " " not in line

    def test_round_trip(self):
        records = [
            rec("kernel", "run_start", time=0.0, seq=0, strategy="adjacent"),
            rec("alg2", "process", time=0.25, seq=1, cluster=4,
                visited=[0, 4], executed_here=True),
        ]
        assert parse_trace(dump_trace(records)) == records

    def test_parse_skips_blank_lines(self):
        text = dump_trace([rec("alg1", "relay")]) + "\n\n"
        assert len(parse_trace(text)) == 1


class TestRecoveryLatency:
    def test_same_round_repair_is_one(self):
        trace = [alg4_round(0, 1, alive_before=2, size_after=3)]
        assert recovery_latency(trace) == ([(0, 1)], [])

    def test_multi_round_breach(self):
        trace = [
            alg4_round(0, 1, alive_before=1, size_after=2),
            alg4_round(0, 2, alive_before=2, size_after=3),
        ]
        assert recovery_latency(trace) == ([(0, 2)], [])

    def test_unrestored_region_reported(self):
        trace = [
            alg4_round(0, 1, alive_before=1, size_after=2),
            alg4_round(1, 1, alive_before=3, size_after=3),
        ]
        assert recovery_latency(trace) == ([], [0])

    def test_region_dead_opens_breach(self):
        trace = [
            rec("alg4", "region_dead", time=2.0, seq=0, region=0, src_region=0,
                dst_region=0, round=2, t_min=3),
            alg4_round(0, 3, alive_before=1, size_after=3),
        ]
        assert recovery_latency(trace) == ([(0, 2)], [])

    def test_healthy_rounds_produce_nothing(self):
        trace = [alg4_round(0, r, alive_before=5, size_after=5) for r in (1, 2, 3)]
        assert recovery_latency(trace) == ([], [])


class TestCounters:
    def test_containment_flags_foreign_touch(self):
        ok = alg4_round(0, 1, alive_before=5, size_after=5)
        bad = rec("alg4", "round", region=0, src_region=0, dst_region=1, round=1,
                  alive_before=5, size_after=5, t_min=3)
        assert containment_check([ok]) == 0
        assert containment_check([ok, bad]) == 1

    def test_transmission_counters(self):
        trace = [
            rec("alg2", "broadcast", cluster=0),
            rec("alg1", "relay", worker=1),
            rec("alg3", "forward", src="(2, 0)", dst="(3, 0)"),
            rec("alg2", "schedule", cluster=0),  # scheduling is not a send
        ]
        totals = message_totals(trace)
        assert sum(totals.get(k, 0) for k in TRANSMISSION_EVENTS) == 3


class TestLivenessEstimate:
    def test_band_and_fraction(self):
        outcomes = [True] * 75 + [False] * 25
        est = liveness_estimate(outcomes, 0.5, 2)
        assert est.fraction == 0.75
        assert est.predicted == 0.75
        assert est.ci_low < 0.75 < est.ci_high
        assert est.within_3sigma

    def test_outlier_flagged(self):
        est = liveness_estimate([False] * 400, 0.1, 3)
        assert not est.within_3sigma

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            liveness_estimate([], 0.1, 3)


class TestBuildReport:
    @pytest.fixture()
    def run_result(self):
        sc = Scenario(config=HierarchyConfig(2, 2, 2, coordinator_k=3, t_min=2),
                      seed=4, horizon=12.0,
                      commands=[CommandSpec(time=0.5, origin=0, scope=("region", 1),
                                            targets=frozenset({4}))])
        return run(sc)

    def test_per_message_stats(self, run_result):
        trace, report = run_result
        pm = report.messages["0:0"]
        assert pm.injected_at == 0.5
        assert pm.goals_total == 2
        assert pm.goals_executed == 2
        assert pm.targets_total == 1
        assert pm.targets_executed == 1
        assert pm.completed_at is not None
        assert pm.latency == pytest.approx(pm.completed_at - 0.5)
        assert pm.max_hop >= 1

    def test_totals_and_conservation_mirror_trace(self, run_result):
        trace, report = run_result
        assert report.totals["kernel.command_injected"] == 1
        assert report.totals["alg2.schedule"] == report.conservation["broadcasts_scheduled"]
        assert report.live_region_fraction == 1.0
        assert report.conserved
        rebuilt = build_report(parse_trace(dump_trace(trace)), report.strategy)
        assert rebuilt == report

    def test_csv_layout(self, run_result):
        _, report = run_result
        lines = report.to_csv().splitlines()
        assert lines[0] == "section,key,value"
        assert lines[1] == "run,strategy,adjacent"
        sections = [line.split(",", 1)[0] for line in lines[1:]]
        order = {"run": 0, "totals": 1, "conservation": 2, "message": 3,
                 "recovery": 4, "unrestored": 5}
        ranks = [order[s] for s in sections]
        assert ranks == sorted(ranks)
        assert "message,0:0.goals_executed,2" in lines

    def test_json_obj_shape(self, run_result):
        _, report = run_result
        obj = report.to_json_obj()
        assert set(obj) == {"strategy", "messages", "totals", "recovery_samples",
                            "unrestored_regions", "live_region_fraction",
                            "cross_region_maintenance", "conservation", "conserved"}
        json.dumps(obj)  # JSON-compatible throughout
        assert obj["messages"]["0:0"]["goals_executed"] == 2
