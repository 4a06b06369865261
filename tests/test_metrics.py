import importlib.util
import inspect
import json
import math
import re
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import parse_trace
from virtree import metrics
from virtree.metrics import (
    TRANSMISSION_EVENTS,
    TraceRecord,
    build_report,
    dump_trace,
    liveness_estimate,
)
from virtree.scenario import CommandSpec, FailureSpec, Scenario
from virtree.simkernel import run
from virtree.topology import HierarchyConfig


def rec(comp, event, time=1.0, seq=0, **data):
    return TraceRecord(time=time, seq=seq, comp=comp, event=event, data=data)


def alg4_round(region, rnd, alive_before, size_after, t_min=3, removed=(), promoted=()):
    return rec("alg4", "round", time=float(rnd), seq=rnd, region=region, round=rnd,
               removed=list(removed), promoted=list(promoted),
               alive_before=alive_before, size_after=size_after, t_min=t_min)


class TestTraceSerialization:
    def test_canonical_json_line(self):
        r = rec("alg1", "receive", time=1.5, seq=3, worker=7, hop=2)
        line = dump_trace([r])
        assert line == '{"comp":"alg1","event":"receive","hop":2,"seq":3,"time":1.5,"worker":7}\n'
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


# strings a JSON encoder must escape, plus arbitrary text
STRINGS = st.sampled_from(['"', "\\", 'a"b\\c', "\x00\x1f\n\t\x7f", "é中\U0001f600",
                           "\u2028"]) | st.text()
SCALARS = (st.none() | st.booleans() | st.integers()
           | st.integers(min_value=-2**200, max_value=2**200)
           | st.sampled_from([1e-9, 1e16, -0.0, 0.1, 1.5]) | st.floats() | STRINGS)
VALUES = st.recursive(SCALARS, lambda inner: st.lists(inner, max_size=4)
                      | st.dictionaries(STRINGS, inner, max_size=4), max_leaves=12)
RECORDS = st.builds(TraceRecord, time=st.floats(), seq=st.integers(min_value=0),
                    comp=STRINGS, event=STRINGS,
                    data=st.dictionaries(STRINGS, VALUES, max_size=6))


def expected_text(records):
    """What ``dump_trace`` must write: ``json.dumps`` of each record's fields
    and data merged, with the trace's settings.  NaN and infinities are not
    JSON: this raises ValueError for them, as ``dump_trace`` must."""
    return "".join(
        json.dumps({"time": r.time, "seq": r.seq, "comp": r.comp, "event": r.event, **r.data},
                   sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"
        for r in records)


# values of each type a shape declares: ints negative and beyond 64 bits,
# strings that need escaping and that are not ASCII, floats at the edges of
# repr's notation, and lists and dicts empty and nested
TYPED_INTS = st.integers() | st.integers(min_value=-2**200, max_value=2**200)
TYPED_FLOATS = (st.sampled_from([-0.0, 1e16, 5e-324, 1e-9, 0.1])
                | st.floats(allow_nan=False, allow_infinity=False))
TYPED_NESTED = st.recursive(
    st.none() | st.booleans() | TYPED_INTS | TYPED_FLOATS | STRINGS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(STRINGS, inner, max_size=3),
    max_leaves=8)
TYPED_LISTS = (st.sampled_from([[], [[]], [1, [2, [3, []]]]])
               | st.lists(TYPED_NESTED, max_size=4))
TYPED_DICTS = (st.sampled_from([{}, {"b": {}, "a": [1, {"c": None}]}])
               | st.dictionaries(STRINGS, TYPED_NESTED, max_size=4))
TYPED = {int: TYPED_INTS, str: STRINGS, float: TYPED_FLOATS, bool: st.booleans(),
         list: TYPED_LISTS, dict: TYPED_DICTS, None: st.none()}

# The shapes dump_trace writes through a line function, beside records one
# step off them: each must give what json.dumps gives, bytes or error.
RELAY = rec("alg1", "relay", time=2.5, seq=9, worker=4, from_worker=1, msg_id="0:0",
            fanout=7, hop=3)
SCHEDULE = rec("alg2", "schedule", time=0.5, seq=4, cluster=2, msg_id="0:1", distance=1,
               delay=1.25)
FORWARD = rec("alg3", "forward", time=3.0, seq=12, src="(3, 0)", dst="(2, 1)",
              msg_id="1:0", hop=2)
PROCESS = rec("alg3", "process", time=3.0, seq=13, cluster=1, msg_id="1:0", hop=2,
              visited=[0, 1])
VACANT = rec("kernel", "role_vacant", time=1.0, seq=2, layer=2, scope=1, old=3)
RUN_END = rec("kernel", "run_end", time=9.0, seq=40, live_region_fraction=0.5,
              conservation={"b": 1, "a": 2}, conserved=True)


def changed(record, **data):
    return record._replace(data={**record.data, **data})


def without(record, key):
    return record._replace(data={k: v for k, v in record.data.items() if k != key})


NEAR_MISSES = [pytest.param(r, id=name) for name, r in {
    "on-its-shape": FORWARD,
    "bool-for-int": changed(RELAY, worker=True),
    "bool-for-int-in-seq": RELAY._replace(seq=False),
    "int-time": FORWARD._replace(time=3),
    "str-for-int": changed(FORWARD, hop="2"),
    "int-for-float": changed(SCHEDULE, delay=1),
    "none-for-int": changed(VACANT, scope=None),
    "nan-in-a-float-field": changed(SCHEDULE, delay=math.nan),
    "inf-in-a-float-field": changed(SCHEDULE, delay=math.inf),
    "minus-inf-in-a-float-field": changed(SCHEDULE, delay=-math.inf),
    "nan-time": FORWARD._replace(time=math.nan),
    "inf-time": FORWARD._replace(time=math.inf),
    "nan-in-a-list": changed(PROCESS, visited=[0, math.nan]),
    "set-in-a-list": changed(PROCESS, visited=[{1}]),
    "tuple-for-list": changed(PROCESS, visited=(0, 1)),
    "nan-in-a-dict": changed(RUN_END, conservation={"a": math.nan}),
    "keys-of-two-types-in-a-dict": changed(RUN_END, conservation={1: 2, "a": 3}),
    "list-for-dict": changed(RUN_END, conservation=[1]),
    "missing-key": without(FORWARD, "hop"),
    "extra-key": changed(FORWARD, ttl=4),
    "key-renamed": changed(without(FORWARD, "hop"), hops=2),
    "data-key-named-time": changed(FORWARD, time="late"),
    "data-key-named-comp": changed(without(FORWARD, "hop"), comp="alg9"),
    "keys-in-another-order": FORWARD._replace(data=dict(reversed(FORWARD.data.items()))),
}.items()]


def test_readme_lists_every_record():
    # README's record table is the schema, row for row, so the prose cannot drift
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = text[text.index("| record | data keys | role |"):].split("\n\n")[0]
    rows = dict.fromkeys(
        (f"`{s.comp}.{s.event}`", ", ".join(f"`{key}`" for key in s.fields),
         "transmission" if s.transmission
         else f"execution, id `{s.executes}`" if s.executes else "")
        for s in metrics._SHAPES)
    assert [tuple(cell.strip() for cell in line.strip("|").split("|"))
            for line in table.splitlines()[2:]] == list(rows)


class TestDumpTraceEncoding:
    @settings(deadline=None)  # no time limit per example: speed is not what this checks
    @given(st.lists(RECORDS, max_size=5))
    def test_matches_json_dumps(self, records):
        try:
            expected = expected_text(records)
        except ValueError:
            with pytest.raises(ValueError):
                dump_trace(records)
        else:
            assert dump_trace(records) == expected

    @pytest.mark.parametrize("shape", metrics._SHAPES, ids=lambda s: "{}.{}({})".format(
        s[0], s[1], ",".join(k if t else f"{k}=None" for k, t in s[2].items())))
    @settings(deadline=None, max_examples=60)
    @given(draw=st.data())
    def test_every_shape_matches_json_dumps(self, shape, draw):
        comp, event, fields, *_ = shape
        record = TraceRecord(time=draw.draw(TYPED_FLOATS), seq=draw.draw(TYPED_INTS),
                             comp=comp, event=event,
                             data={key: draw.draw(TYPED[kind]) for key, kind in fields.items()})
        expected = expected_text([record])
        # written by the shape's line function, not the C encoder
        assert metrics._LINES[comp, event](repr(record.time), record.seq,
                                           record.data) == expected
        assert dump_trace([record]) == expected

    @pytest.mark.parametrize("record", NEAR_MISSES)
    def test_near_misses_give_what_json_dumps_gives(self, record):
        try:
            expected = expected_text([record, FORWARD])
        except (TypeError, ValueError) as err:
            with pytest.raises(type(err), match=f"^{re.escape(str(err))}$"):
                dump_trace([record, FORWARD])
        else:
            assert dump_trace([record, FORWARD]) == expected

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_float_raises(self, value):
        with pytest.raises(ValueError):
            dump_trace([rec("alg2", "schedule", delay=value)])
        with pytest.raises(ValueError):
            dump_trace([rec("alg2", "schedule", time=value)])

    def test_unserializable_value_raises_and_encoder_recovers(self):
        with pytest.raises(TypeError):
            dump_trace([rec("alg1", "receive", worker={1, 2})])
        good = rec("alg1", "receive", worker=[1, {"k": 2}])
        assert dump_trace([good]) == (
            '{"comp":"alg1","event":"receive","seq":0,"time":1.0,"worker":[1,{"k":2}]}\n')


@pytest.fixture
def pure_metrics(monkeypatch):
    """A second copy of ``virtree.metrics``, loaded as where no C encoder
    exists, so its ``_encode`` is the pure-Python fallback; the shared module
    is left as it is."""
    spec = importlib.util.spec_from_file_location("virtree_metrics_pure", metrics.__file__)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    with monkeypatch.context() as patch:
        patch.setattr(json.encoder, "c_make_encoder", None)
        spec.loader.exec_module(module)
    assert inspect.isfunction(module._encode) and not inspect.isfunction(metrics._encode)
    return module


class TestPurePythonEncoder:
    @pytest.mark.parametrize("strategy", ["adjacent", "hierarchical"])
    def test_same_bytes_as_the_c_encoder_on_a_run(self, pure_metrics, strategy):
        sc = Scenario(config=HierarchyConfig(2, 2, 2, coordinator_k=3, t_min=2), seed=5,
                      horizon=12.0, strategy=strategy,
                      commands=[CommandSpec(time=0.5, origin=0, scope=("global",)),
                                CommandSpec(time=1.0, origin=3, scope=("region", 0),
                                            targets=frozenset({1}))],
                      failures=[FailureSpec(time=2.0, kind="worker", action="kill", worker=2)])
        trace, _ = run(sc)
        assert len(trace) > 20
        assert pure_metrics.dump_trace(trace) == dump_trace(trace)

    @pytest.mark.parametrize("encoder", ["c", "pure"])
    def test_nan_raises(self, pure_metrics, encoder):
        dump = dump_trace if encoder == "c" else pure_metrics.dump_trace
        with pytest.raises(ValueError):
            dump([rec("alg2", "schedule", delay=math.nan)])


def recovery(trace):
    report = build_report(trace, "hierarchical")
    return report.recovery_samples, report.unrestored_regions


class TestRecoveryLatency:
    def test_same_round_repair_is_one(self):
        trace = [alg4_round(0, 1, alive_before=2, size_after=3)]
        assert recovery(trace) == ([(0, 1)], [])

    def test_multi_round_breach(self):
        trace = [
            alg4_round(0, 1, alive_before=1, size_after=2),
            alg4_round(0, 2, alive_before=2, size_after=3),
        ]
        assert recovery(trace) == ([(0, 2)], [])

    def test_unrestored_region_reported(self):
        trace = [
            alg4_round(0, 1, alive_before=1, size_after=2),
            alg4_round(1, 1, alive_before=3, size_after=3),
        ]
        assert recovery(trace) == ([], [0])

    def test_region_dead_opens_breach(self):
        trace = [
            rec("alg4", "region_dead", time=2.0, seq=0, region=0, src_region=0,
                dst_region=0, round=2, t_min=3),
            alg4_round(0, 3, alive_before=1, size_after=3),
        ]
        assert recovery(trace) == ([(0, 2)], [])

    def test_healthy_rounds_produce_nothing(self):
        trace = [alg4_round(0, r, alive_before=5, size_after=5) for r in (1, 2, 3)]
        assert recovery(trace) == ([], [])

    def test_breach_carried_across_batches(self):
        first = build_report([alg4_round(0, 1, alive_before=1, size_after=2)], "hierarchical")
        assert (first.recovery_samples, first.unrestored_regions) == ([], [0])
        report = build_report([alg4_round(0, 2, alive_before=2, size_after=3)],
                              "hierarchical", first)
        assert (report.recovery_samples, report.unrestored_regions) == ([(0, 2)], [])


class TestCounters:
    def test_containment_flags_foreign_touch(self):
        # 16 workers in 2 regions: region 0 is workers 0-7, region 1 workers 8-15
        start = rec("kernel", "run_start", time=0.0, workers=16, regions=2)
        ok = alg4_round(1, 1, alive_before=1, size_after=3, removed=[8, 9],
                        promoted=[14, 15])
        foreign_promoted = alg4_round(1, 2, alive_before=2, size_after=3, promoted=[7])
        foreign_removed = alg4_round(0, 2, alive_before=1, size_after=3, removed=[8],
                                     promoted=[6, 7])
        foreign_both = alg4_round(0, 3, alive_before=1, size_after=3, removed=[15],
                                  promoted=[8, 9])
        assert build_report([start, ok], "adjacent").cross_region_maintenance == 0
        for bad in (foreign_promoted, foreign_removed, foreign_both):
            assert build_report([start, ok, bad], "adjacent").cross_region_maintenance == 1
        report = build_report([start, foreign_removed], "adjacent")
        report = build_report([foreign_promoted, foreign_both], "adjacent", report)
        assert report.cross_region_maintenance == 3

    def test_format_3_round_folds_like_format_4(self):
        # format 3 also wrote the fields format 4 leaves to the reader
        start = rec("kernel", "run_start", time=0.0, workers=16, regions=2)
        new = alg4_round(1, 1, alive_before=1, size_after=3, removed=[8, 9], promoted=[15])
        old = new._replace(data=dict(new.data, src_region=1, dst_region=1, size_before=3,
                                     degraded=False))
        assert build_report([start, old], "adjacent") == build_report([start, new], "adjacent")

    def test_containment_unknown_before_run_start(self):
        # without the shape the rounds cannot be checked: the count is not 0
        bad = alg4_round(0, 1, alive_before=1, size_after=3, promoted=[100])
        assert build_report([bad], "adjacent").cross_region_maintenance is None

    def test_transmission_counters(self):
        trace = [
            rec("alg2", "broadcast", cluster=0),
            rec("alg1", "relay", worker=1),
            rec("alg3", "forward", src="(2, 0)", dst="(3, 0)"),
            rec("alg2", "schedule", cluster=0),  # scheduling is not a send
        ]
        totals = build_report(trace, "adjacent").totals
        assert sum(totals.get(k, 0) for k in TRANSMISSION_EVENTS) == 3


class TestLivenessEstimate:
    def test_band_and_fraction(self):
        est = liveness_estimate(75, 100, 0.5, 2)
        assert est.fraction == 0.75
        assert est.predicted == 0.75
        assert est.ci_low < 0.75 < est.ci_high
        assert est.within_3sigma

    def test_outlier_flagged(self):
        est = liveness_estimate(0, 400, 0.1, 3)
        assert not est.within_3sigma


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
        # a recovered and an unrestored region added, so every section is written
        report = replace(run_result[1], recovery_samples=[(0, 2)], open_breaches={1: 3})
        lines = report.to_csv().splitlines()
        assert lines[0] == "section,key,value"
        assert lines[1] == "run,strategy,adjacent"
        sections = [line.split(",", 1)[0] for line in lines[1:]]
        order = {"run": 0, "totals": 1, "conservation": 2, "message": 3,
                 "recovery": 4, "unrestored": 5}
        ranks = [order[s] for s in sections]
        assert ranks == sorted(ranks)
        assert "message,0:0.goals_executed,2" in lines
        assert lines[-2:] == ["recovery,0,2", "unrestored,1,1"]

    def test_json_obj_shape(self, run_result):
        _, report = run_result
        obj = report.to_json_obj()
        assert set(obj) == {"strategy", "messages", "totals", "recovery_samples",
                            "unrestored_regions", "live_region_fraction",
                            "cross_region_maintenance", "conservation", "conserved"}
        json.dumps(obj)  # JSON-compatible throughout
        assert obj["messages"]["0:0"]["goals_executed"] == 2
