import bisect
import errno
import hashlib
import itertools
import json
import os
import subprocess
import sys
import time
import tracemalloc

import pytest

from conftest import parse_trace
import virtree
from virtree import cli, simkernel
from virtree.cli import main
from virtree.errors import ConservationError, ScenarioInvalid
from virtree.metrics import build_report, dump_trace
from virtree.scenario import MAX_WORKERS, apply_overrides, build_scenario
from virtree.simkernel import _Kernel, run
from virtree.topology import derive_seed


def base_dict(**extra):
    d = {
        "topology": {"workers_per_cluster": 2, "clusters_per_region": 2,
                     "regions_per_hub": 2},
        "coordinator": {"K": 2, "T_min": 1},
        "commands": [{"time": 0.5, "origin": 0,
                      "scope": {"kind": "region", "id": 1}}],
        "seed": 9,
        "horizon": 12.0,
    }
    d.update(extra)
    return d


def field_id(value):
    """A build_scenario error row's id: the field its message names."""
    return value.split(": ")[0] if isinstance(value, str) else None


def whole(mutate, message):
    """A row whose id is its whole message: a plain row's id is its field,
    which several rows name."""
    return pytest.param(mutate, message, id=message)


def write_scenario(tmp_path, name="sc.json", **extra):
    path = tmp_path / name
    path.write_text(json.dumps(base_dict(**extra)))
    return str(path)


class TestBuildScenario:
    def test_defaults_materialized(self):
        sc = build_scenario({"topology": {"workers_per_cluster": 4,
                                          "clusters_per_region": 2},
                             "seed": 1, "horizon": 5.0})
        assert sc.strategy == "adjacent"
        assert sc.route_mode == "lca"
        assert (sc.delay.alpha, sc.delay.beta, sc.delay.epsilon) == (1.0, 0.1, 0.05)
        assert sc.config.coordinator_k == 5
        assert sc.round_period == 1.0
        assert sc.link_latencies["tree"] == 1.0

    def test_command_payload_accepted(self, tmp_path, capsys):
        # a valid hex payload is read and checked; the command is otherwise
        # the one the same file without it gives
        raw = base_dict()
        raw["commands"][0]["payload"] = "01ff"
        assert build_scenario(raw).commands[0][:4] == build_scenario(base_dict()).commands[0][:4]
        path = tmp_path / "sc.json"
        path.write_text(json.dumps(raw))
        assert main(["validate", "--scenario", str(path)]) == 0
        assert capsys.readouterr().out.startswith("scenario ok: ")

    @pytest.mark.parametrize("mutate,message", [
        (lambda d: d.update(warp=1), "warp: unknown key"),
        (lambda d: d["topology"].update(rows=3), "topology.rows: unknown key"),
        (lambda d: d.update(delays={"gamma": 1.0}), "delays.gamma: unknown key"),
        (lambda d: d["coordinator"].update(quorum=2), "coordinator.quorum: unknown key"),
        (lambda d: d.update(routing={"style": "x"}), "routing.style: unknown key"),
        (lambda d: d["commands"][0].update(speed=1), "commands[0].speed: unknown key"),
        (lambda d: d["commands"][0]["scope"].update(level=1),
         "commands[0].scope.level: unknown key"),
        (lambda d: d.update(failures=[{"time": 0.0, "kind": "worker",
                                       "action": "kill", "worker": 0, "blast": 1}]),
         "failures[0].blast: unknown key"),
        # the first unknown key in sorted order is named
        whole(lambda d: d["commands"][0].update(zeta=1, beta=2), "commands[0].beta: unknown key"),
        # an unknown key wins over a bad type beside it
        whole(lambda d: d["commands"][0].update(time="soon", speed=1),
              "commands[0].speed: unknown key"),
        whole(lambda d: d.update(failures=[{"time": "x", "kind": 1, "action": "kill",
                                            "worker": True, "blast": 1}]),
              "failures[0].blast: unknown key"),
        whole(lambda d: d["topology"].update(domains="two", rows=3), "topology.rows: unknown key"),
    ], ids=field_id)
    def test_unknown_keys_rejected_with_path(self, mutate, message):
        raw = base_dict()
        mutate(raw)
        with pytest.raises(ScenarioInvalid) as err:
            build_scenario(raw)
        assert (err.value.field, str(err.value)) == (message.split(": ")[0], message)

    @pytest.mark.parametrize("mutate,message", [
        (lambda d: d["topology"].update(workers_per_cluster=True),
         "topology.workers_per_cluster: expected int, got bool"),
        (lambda d: d.update(horizon="soon"), "horizon: expected number, got str"),
        (lambda d: d.update(seed=1.5), "seed: expected int, got float"),
        (lambda d: d["commands"][0].update(targets=[1, "two"]),
         "commands[0].targets: expected int, got str"),
        (lambda d: d["commands"][0].update(payload="zz"),
         "commands[0].payload: expected a hex string"),
        (lambda d: d["topology"].update(adjacency=[[0]]),
         "topology.adjacency[0]: expected a [region, region] pair"),
        (lambda d: d.update(link_latencies={"tree": True}),
         "link_latencies.tree: expected number, got bool"),
        (lambda d: d["commands"][0].update(targets=[True]),
         "commands[0].targets: expected int, got bool"),
        (lambda d: d["topology"].update(adjacency=[[True, 0]]),
         "topology.adjacency[0]: expected int, got bool"),
        (lambda d: d.update(failures=[{"time": 1.0, "kind": "adjacency",
                                       "action": "add", "edge": [True, 0]}]),
         "failures[0].edge: expected int, got bool"),
        (lambda d: d.update(commands=[1]), "commands[0]: expected an object"),
        (lambda d: d.update(failures=[1]), "failures[0]: expected an object"),
        # every command field: missing, and of a wrong type
        whole(lambda d: d["commands"][0].pop("time"), "commands[0].time: missing required key"),
        whole(lambda d: d["commands"][0].pop("origin"), "commands[0].origin: missing required key"),
        whole(lambda d: d["commands"][0].pop("scope"), "commands[0].scope: missing required key"),
        whole(lambda d: d["commands"][0]["scope"].pop("kind"),
              "commands[0].scope.kind: missing required key"),
        whole(lambda d: d["commands"][0].update(time=float("inf")),
              "commands[0].time: must be a finite number, got inf"),
        whole(lambda d: d["commands"][0].update(time=json.loads("1e999")),
              "commands[0].time: must be a finite number, got inf"),
        whole(lambda d: d["commands"][0].update(time=float("nan")),
              "commands[0].time: must be a finite number, got nan"),
        whole(lambda d: d["commands"][0].update(origin=True),
              "commands[0].origin: expected int, got bool"),
        whole(lambda d: d["commands"][0].update(origin=0.0),
              "commands[0].origin: expected int, got float"),
        whole(lambda d: d["commands"][0].update(scope="region"),
              "commands[0].scope: expected dict, got str"),
        whole(lambda d: d["commands"][0]["scope"].update(kind=3),
              "commands[0].scope.kind: expected str, got int"),
        whole(lambda d: d["commands"][0]["scope"].update(id="1"),
              "commands[0].scope.id: expected int, got str"),
        whole(lambda d: d["commands"][0].update(targets=3),
              "commands[0].targets: expected list, got int"),
        whole(lambda d: d["commands"][0].update(payload=5),
              "commands[0].payload: expected str, got int"),
        # every failure field: missing, and of a wrong type
        whole(lambda d: d.update(failures=[{"kind": "worker", "action": "kill", "worker": 0}]),
              "failures[0].time: missing required key"),
        whole(lambda d: d.update(failures=[{"time": 1.0, "action": "kill", "worker": 0}]),
              "failures[0].kind: missing required key"),
        whole(lambda d: d.update(failures=[{"time": 1.0, "kind": "worker", "worker": 0}]),
              "failures[0].action: missing required key"),
        whole(lambda d: d.update(failures=[{"time": "1", "kind": "worker", "action": "kill",
                                            "worker": 0}]),
              "failures[0].time: expected number, got str"),
        whole(lambda d: d.update(failures=[{"time": json.loads("1e999"), "kind": "worker",
                                            "action": "kill", "worker": 0}]),
              "failures[0].time: must be a finite number, got inf"),
        whole(lambda d: d.update(failures=[{"time": 1.0, "kind": None, "action": "kill",
                                            "worker": 0}]),
              "failures[0].kind: expected str, got NoneType"),
        whole(lambda d: d.update(failures=[{"time": 1.0, "kind": "worker", "action": ["kill"],
                                            "worker": 0}]),
              "failures[0].action: expected str, got list"),
        whole(lambda d: d.update(failures=[{"time": 1.0, "kind": "worker", "action": "kill",
                                            "worker": True}]),
              "failures[0].worker: expected int, got bool"),
        whole(lambda d: d.update(failures=[{"time": 1.0, "kind": "region", "action": "kill",
                                            "region": 1.0}]),
              "failures[0].region: expected int, got float"),
        whole(lambda d: d.update(failures=[{"time": 1.0, "kind": "link", "action": "jam",
                                            "link_class": 2}]),
              "failures[0].link_class: expected str, got int"),
        whole(lambda d: d.update(failures=[{"time": 1.0, "kind": "link", "action": "jam",
                                            "link_class": "tree", "drop": "all"}]),
              "failures[0].drop: expected number, got str"),
        whole(lambda d: d.update(failures=[{"time": 1.0, "kind": "link", "action": "jam",
                                            "link_class": "tree", "drop": 10 ** 400}]),
              "failures[0].drop: must be a finite number, got inf"),
        whole(lambda d: d.update(failures=[{"time": 1.0, "kind": "adjacency", "action": "add",
                                            "edge": "0-1"}]),
              "failures[0].edge: expected a [region, region] pair"),
        whole(lambda d: d.update(failures=[{"time": 1.0, "kind": "adjacency", "action": "add",
                                            "edge": [0, 1, 2]}]),
              "failures[0].edge: expected a [region, region] pair"),
        whole(lambda d: d.update(failures=[{"time": 1.0, "kind": "adjacency", "action": "add",
                                            "edge": [0, 1.0]}]),
              "failures[0].edge: expected int, got float"),
        # with two bad fields the first one read is named: scope before time
        # in a command, then in field order; objects in file order
        whole(lambda d: d["commands"][0].update(time="soon", scope={"kind": 1}),
              "commands[0].scope.kind: expected str, got int"),
        whole(lambda d: d["commands"][0].update(time="soon", origin=True),
              "commands[0].time: expected number, got str"),
        whole(lambda d: d["commands"][0].update(payload=5, targets=[True]),
              "commands[0].targets: expected int, got bool"),
        whole(lambda d: d.update(failures=[{"time": 1.0, "kind": "link", "action": "jam",
                                            "worker": True, "drop": "all"}]),
              "failures[0].worker: expected int, got bool"),
        whole(lambda d: d.update(failures=[{"time": 1.0, "kind": "worker", "action": "kill",
                                            "worker": 0},
                                           {"time": "x", "kind": "worker", "action": "kill",
                                            "worker": 0}]),
              "failures[1].time: expected number, got str"),
        whole(lambda d: d.update(seed="x", failures=[1]), "failures[0]: expected an object"),
        whole(lambda d: d.update(failures=[1], commands=[2]), "commands[0]: expected an object"),
        whole(lambda d: d.update(delays="fast", topology={"workers_per_cluster": True,
                                                          "clusters_per_region": 2}),
              "topology.workers_per_cluster: expected int, got bool"),
        whole(lambda d: d.update(coordinator={"K": "five"},
                                 topology={"workers_per_cluster": 2, "clusters_per_region": 2,
                                           "adjacency": 1}),
              "coordinator.K: expected int, got str"),
        whole(lambda d: d.update(coordinator={"round_period": "x", "quorum": 1}),
              "coordinator.quorum: unknown key"),
        whole(lambda d: d.update(coordinator={"round_period": "x"}, horizon="soon"),
              "horizon: expected number, got str"),
    ], ids=field_id)
    def test_type_errors_name_the_field(self, mutate, message):
        raw = base_dict()
        mutate(raw)
        with pytest.raises(ScenarioInvalid) as err:
            build_scenario(raw)
        assert (err.value.field, str(err.value)) == (message.split(": ")[0], message)

    def test_missing_required_key(self):
        raw = base_dict()
        del raw["seed"]
        with pytest.raises(ScenarioInvalid) as err:
            build_scenario(raw)
        assert err.value.field == "seed"

    def test_config_error_names_the_exact_field(self):
        raw = base_dict()
        raw["coordinator"]["K"] = 99
        with pytest.raises(ScenarioInvalid) as err:
            build_scenario(raw)
        assert err.value.field == "coordinator.K"


class TestApplyOverrides:
    def test_json_and_string_values(self):
        raw = {"delays": {"alpha": 1.0}}
        apply_overrides(raw, ["delays.alpha=2.5", "strategy=hierarchical",
                              "coordinator.K=3"])
        assert raw["delays"]["alpha"] == 2.5
        assert raw["strategy"] == "hierarchical"
        assert raw["coordinator"] == {"K": 3}

    def test_creates_missing_objects(self):
        raw = {}
        apply_overrides(raw, ["routing.mode=root"])
        assert raw == {"routing": {"mode": "root"}}

    def test_missing_equals_rejected(self):
        with pytest.raises(ScenarioInvalid):
            apply_overrides({}, ["seed"])

    def test_scalar_in_path_rejected(self):
        with pytest.raises(ScenarioInvalid):
            apply_overrides({"seed": 1}, ["seed.low=1"])

    @pytest.mark.parametrize("item", ["=5", ".=1", "topology.=3", "a..b=1"])
    def test_empty_key_segment_rejected(self, item):
        with pytest.raises(ScenarioInvalid) as err:
            apply_overrides({"topology": {}}, [item])
        assert err.value.field == "--set"
        assert repr(item) in str(err.value)


class TestCli:
    def test_validate_ok(self, tmp_path, capsys):
        assert main(["validate", "--scenario", write_scenario(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "scenario ok" in out
        assert "8 workers" in out

    def test_run_writes_outputs(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        code = main(["run", "--scenario", write_scenario(tmp_path),
                     "--out", str(out_dir)])
        assert code == 0
        trace = parse_trace((out_dir / "trace.jsonl").read_text())
        assert (trace[0].event, trace[0].data["format"]) == ("run_start", 4)
        metrics = json.loads((out_dir / "metrics.json").read_text())
        assert metrics["conserved"] is True
        csv_text = (out_dir / "metrics.csv").read_text()
        assert csv_text.startswith("section,key,value\n")
        assert "run ok:" in capsys.readouterr().out

    def test_seed_and_set_overrides_reach_the_run(self, tmp_path):
        out_dir = tmp_path / "out"
        code = main(["run", "--scenario", write_scenario(tmp_path),
                     "--seed", "99", "--set", "strategy=hierarchical",
                     "--out", str(out_dir)])
        assert code == 0
        start = parse_trace((out_dir / "trace.jsonl").read_text())[0]
        assert start.data["seed"] == 99
        assert start.data["strategy"] == "hierarchical"

    def test_invalid_field_exits_2(self, tmp_path, capsys):
        code = main(["validate", "--scenario", write_scenario(tmp_path),
                     "--set", "horizon=0"])
        assert code == 2
        assert "invalid scenario" in capsys.readouterr().err

    @pytest.mark.parametrize("assignment, field", [
        ("delays.alpha=NaN", "delays.alpha"),
        ("link_latencies.adjacent=NaN", "link_latencies.adjacent"),
        ("horizon=Infinity", "horizon"),
        ("horizon=-Infinity", "horizon"),
        ("horizon=" + "9" * 400, "horizon"),
        ("coordinator.round_period=NaN", "coordinator.round_period"),
        ('commands=[{"time": NaN, "origin": 0, "scope": {"kind": "global"}}]',
         "commands[0].time"),
        ('failures=[{"time": Infinity, "kind": "worker", "action": "kill", "worker": 0}]',
         "failures[0].time"),
        ('failures=[{"time": 1.0, "kind": "link", "action": "jam", "link_class": "tree", '
         '"drop": NaN}]', "failures[0].drop"),
    ], ids=["alpha", "latency", "horizon-inf", "horizon-neg-inf", "horizon-huge-int",
            "round-period", "command-time", "failure-time", "drop"])
    def test_non_finite_number_exits_2(self, tmp_path, capsys, assignment, field):
        code = main(["run", "--scenario", write_scenario(tmp_path),
                     "--set", assignment, "--out", str(tmp_path / "out")])
        assert code == 2
        assert f"invalid scenario: {field}: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("delays, code", [
        ({"alpha": 1e308}, 2),
        ({"beta": 1e308, "alpha": 1e308 / 4}, 2),
        ({"epsilon": 1.7e308, "alpha": 1e307}, 2),
        ({"alpha": 1e307, "beta": 1e307, "epsilon": 1e307}, 0),
    ], ids=["alpha", "beta", "epsilon", "finite"])
    def test_delay_bound_must_be_finite(self, tmp_path, capsys, delays, code):
        # each coefficient is finite, but the largest delay a leader could
        # draw, alpha * 4 + beta * commands + epsilon, may not be
        path = write_scenario(
            tmp_path, delays=delays, seed=1, horizon=30.0,
            topology={"workers_per_cluster": 2, "clusters_per_region": 2,
                      "regions_per_hub": 4},
            commands=[{"time": 0.5, "origin": 0, "scope": {"kind": "region", "id": 3}}])
        out_dir = tmp_path / "out"
        assert main(["run", "--scenario", path, "--out", str(out_dir)]) == code
        if code:
            assert "invalid scenario: delays: " in capsys.readouterr().err
        else:
            trace = parse_trace((out_dir / "trace.jsonl").read_text())
            assert [rec.data["delay"] > 1e306 for rec in trace
                    if rec.event == "schedule"] == [True]

    @pytest.mark.parametrize("assignment", ["coordinator.round_period=1e-9",
                                            "horizon=1e300"])
    def test_too_many_maintenance_rounds_exits_2(self, tmp_path, capsys, assignment):
        code = main(["validate", "--scenario", write_scenario(tmp_path), "--set", assignment])
        assert code == 2
        assert "invalid scenario: coordinator.round_period: " in capsys.readouterr().err

    def test_too_many_workers_exits_2(self, tmp_path, capsys):
        # the base scenario has 4 clusters
        path = write_scenario(tmp_path)
        at_cap = f"topology.workers_per_cluster={MAX_WORKERS // 4}"
        assert main(["validate", "--scenario", path, "--set", at_cap]) == 0
        for wpc in (MAX_WORKERS // 4 + 1, 100_000_000):
            code = main(["validate", "--scenario", path,
                         "--set", f"topology.workers_per_cluster={wpc}"])
            assert code == 2
            assert "invalid scenario: topology: " in capsys.readouterr().err

    def test_maintenance_round_cap_boundary(self, tmp_path):
        path = write_scenario(tmp_path)
        assert main(["validate", "--scenario", path, "--set", "horizon=100000"]) == 0
        assert main(["validate", "--scenario", path, "--set", "horizon=100000.5"]) == 2

    def test_bad_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["validate", "--scenario", str(path)]) == 2

    @pytest.mark.parametrize("content, extra", [
        (b"\xff\xfe{}", []),
        (b'{"seed": ' + b"9" * 5000 + b"}", []),
        (b"[1, 2]", ["--set", "seed=1"]),
        (b"[1, 2]", ["--seed", "1"]),
        (b"[1]", []),
    ], ids=["not-utf8", "overlong-int", "array-with-set", "array-with-seed", "array"])
    def test_malformed_file_exits_2(self, tmp_path, capsys, content, extra):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        assert main(["validate", "--scenario", str(path), *extra]) == 2
        assert "invalid scenario: json: " in capsys.readouterr().err

    @pytest.mark.parametrize("failure, field", [
        ('{"time": 1.0, "kind": "worker", "action": "jam", "worker": 0}', "failures[0].action"),
        ('{"time": 1.0, "kind": "link", "action": "kill", "link_class": "tree"}',
         "failures[0].action"),
        ('{"time": 1.0, "kind": "adjacency", "action": "add", "edge": [0, 9]}',
         "failures[0].edge"),
    ], ids=["worker-jam", "link-kill", "edge-out-of-range"])
    def test_bad_failure_exits_2_naming_the_field(self, tmp_path, capsys, failure, field):
        # the base scenario has 2 regions
        code = main(["validate", "--scenario", write_scenario(tmp_path),
                     "--set", f"failures=[{failure}]"])
        assert code == 2
        assert f"invalid scenario: {field}: " in capsys.readouterr().err

    def test_deeply_nested_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000 + "]" * 200_000)
        assert main(["validate", "--scenario", str(path)]) == 2
        assert "invalid scenario: json: " in capsys.readouterr().err

    def test_deeply_nested_override_exits_2(self, tmp_path, capsys):
        deep = "[" * 20_000 + "]" * 20_000
        path = write_scenario(tmp_path)
        assert main(["validate", "--scenario", path, "--set", f"seed={deep}"]) == 2
        assert "invalid scenario: --set: seed: " in capsys.readouterr().err

    def test_missing_file_exits_3(self, tmp_path, capsys):
        code = main(["validate", "--scenario", str(tmp_path / "absent.json")])
        assert code == 3
        assert "io error" in capsys.readouterr().err


class TestCliOracleCheck:
    def test_agreement_both_strategies(self, tmp_path, capsys):
        path = write_scenario(tmp_path)
        for strategy in ("adjacent", "hierarchical"):
            code = main(["oracle-check", "--scenario", path,
                         "--set", f"strategy={strategy}"])
            assert code == 0
            assert "oracle-check ok" in capsys.readouterr().out

    def test_mismatch_exits_4(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("virtree.cli.check_trace",
                            lambda *args, **kwargs: ["bogus disagreement"])
        code = main(["oracle-check", "--scenario", write_scenario(tmp_path)])
        assert code == 4
        err = capsys.readouterr().err
        assert "bogus disagreement" in err

    def test_streams_the_run_through_a_sink(self, tmp_path, capsys, monkeypatch):
        # the kernel hands over batches of three records: the run still
        # agrees, and one whose cluster executions are lost exits 4
        monkeypatch.setattr(simkernel, "TRACE_BATCH", 3)
        sinks, batches, lost = [], [], set()

        def streamed(sc, sink=None):
            sinks.append(sink)

            def lossy(batch):
                batches.append(len(batch))
                sink([rec for rec in batch if rec.event not in lost])
            return run(sc, sink=lossy)

        monkeypatch.setattr(cli, "run_scenario", streamed)
        path = write_scenario(tmp_path)
        for strategy in ("adjacent", "hierarchical"):
            assert main(["oracle-check", "--scenario", path,
                         "--set", f"strategy={strategy}"]) == 0
            assert "oracle-check ok" in capsys.readouterr().out
        lost.add("execute_cluster")
        assert main(["oracle-check", "--scenario", path]) == 4
        assert "executed clusters disagree with BFS oracle" in capsys.readouterr().err
        assert len(sinks) == 3 and all(sinks)
        assert len(batches) > 3 * len(sinks) and max(batches) < 10

    def test_failures_rejected(self, tmp_path, capsys):
        path = write_scenario(
            tmp_path, failures=[{"time": 1.0, "kind": "worker",
                                 "action": "kill", "worker": 0}])
        assert main(["oracle-check", "--scenario", path]) == 2

    def test_agreement_beyond_64_clusters(self, tmp_path, capsys):
        path = write_scenario(
            tmp_path,
            topology={"workers_per_cluster": 1, "clusters_per_region": 5,
                      "regions_per_hub": 14},
            commands=[{"time": 0.5, "origin": 0, "scope": {"kind": "global"}}])
        for strategy in ("adjacent", "hierarchical"):
            code = main(["oracle-check", "--scenario", path,
                         "--set", f"strategy={strategy}"])
            assert code == 0
            assert "oracle-check ok" in capsys.readouterr().out

    def test_target_outside_goals_rejected(self, tmp_path):
        path = write_scenario(
            tmp_path,
            commands=[{"time": 0.5, "origin": 0,
                       "scope": {"kind": "cluster", "id": 0},
                       "targets": [7]}])  # worker 7 lives in cluster 3
        assert main(["oracle-check", "--scenario", path]) == 2


class TestCliSweep:
    def test_p_sweep_table(self, tmp_path):
        out_dir = tmp_path / "out"
        code = main(["sweep", "--scenario", write_scenario(tmp_path),
                     "--param", "p", "--values", "0.0,0.5", "--trials", "200",
                     "--out", str(out_dir)])
        assert code == 0
        lines = (out_dir / "sweep.csv").read_text().splitlines()
        assert lines[0].startswith("param,value,trials,live_fraction,predicted")
        assert len(lines) == 3
        row0 = lines[1].split(",")
        assert row0[:3] == ["p", "0.0", "200"]
        assert float(row0[4]) == 1.0  # K=2: predicted 1 - 0**2

    def test_k_sweep_uses_base_p(self, tmp_path):
        out_dir = tmp_path / "out"
        code = main(["sweep", "--scenario", write_scenario(tmp_path),
                     "--param", "K", "--values", "1,2", "--trials", "100",
                     "--p", "0.5", "--out", str(out_dir)])
        assert code == 0
        lines = (out_dir / "sweep.csv").read_text().splitlines()
        predicted = [float(line.split(",")[4]) for line in lines[1:]]
        assert predicted == [0.5, 0.75]

    def test_strategy_sweep_runs_full_sims(self, tmp_path):
        out_dir = tmp_path / "out"
        code = main(["sweep", "--scenario", write_scenario(tmp_path),
                     "--param", "strategy", "--values", "adjacent,hierarchical",
                     "--trials", "2", "--out", str(out_dir)])
        assert code == 0
        lines = (out_dir / "sweep.csv").read_text().splitlines()
        assert lines[0].startswith("param,value,trials,goal_fraction")
        for line in lines[1:]:
            cells = line.split(",")
            assert float(cells[3]) == 1.0  # every goal executed
            assert float(cells[5]) > 0     # some transmissions happened

    def test_strategy_trial_keeps_no_trace(self, tmp_path):
        # a trial's report is folded batch by batch, so its peak memory stays
        # well below that of a run that keeps its whole trace: about 22,000
        # records, five batches
        raw = dict(STREAM_SCENARIO, strategy="hierarchical",
                   commands=STREAM_SCENARIO["commands"]
                   + [{"time": round(14.0 + 0.1 * i, 1), "origin": (3 * i) % 60,
                       "scope": {"kind": "global"}} for i in range(100)])
        path = tmp_path / "flood.json"
        path.write_text(json.dumps(raw))
        sc = build_scenario(raw)
        tracemalloc.start()
        try:
            records = len(run(sc)[0])
            run_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            assert main(["sweep", "--scenario", str(path), "--param", "strategy",
                         "--values", "hierarchical", "--trials", "1",
                         "--out", str(tmp_path / "out")]) == 0
            sweep_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert records >= 5 * simkernel.TRACE_BATCH
        assert sweep_peak < run_peak / 2

    def test_regions_sweep_rescales_topology(self, tmp_path):
        out_dir = tmp_path / "out"
        code = main(["sweep", "--scenario", write_scenario(
                        tmp_path,
                        commands=[{"time": 0.5, "origin": 0,
                                   "scope": {"kind": "region", "id": 0}}]),
                     "--param", "regions", "--values", "1,2", "--trials", "2",
                     "--out", str(out_dir)])
        assert code == 0
        assert len((out_dir / "sweep.csv").read_text().splitlines()) == 3

    def test_regions_sweep_rejects_adjacency_override(self, tmp_path):
        path = write_scenario(tmp_path)
        with open(path) as fh:
            raw = json.load(fh)
        raw["topology"]["adjacency"] = [[0, 1]]
        with open(path, "w") as fh:
            json.dump(raw, fh)
        assert main(["sweep", "--scenario", path, "--param", "regions",
                     "--values", "1,2", "--trials", "1",
                     "--out", str(tmp_path / "out")]) == 2

    @pytest.mark.parametrize("args, message", [
        (["--param", "regions", "--values", "0"],
         "--values: 0: topology.regions_per_hub: must be >= 1, got 0"),
        (["--param", "K", "--values", "0"], "--values: coordinator count must be >= 1, got 0"),
        (["--param", "p", "--values", "2"],
         "--values: failure probability must lie in [0, 1], got 2.0"),
        (["--param", "K", "--values", "abc"],
         "--values: invalid literal for int() with base 10: 'abc'"),
        (["--param", "K", "--values", "3", "--p", "1.5"],
         "--p: failure probability must lie in [0, 1], got 1.5"),
        (["--param", "K", "--values", ","], "--values: no sweep values given"),
        (["--param", "K", "--values", "3", "--trials", "0"], "--trials: must be >= 1"),
    ], ids=["regions-0", "K-0", "p-2", "K-abc", "base-p-1.5", "no-values", "trials-0"])
    def test_bad_values_exit_2_naming_the_field(self, tmp_path, capsys, args, message):
        # args come after --trials 1, so a --trials among them wins
        code = main(["sweep", "--scenario", write_scenario(tmp_path), "--trials", "1",
                     *args, "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == f"invalid scenario: {message}\n"

    @pytest.mark.parametrize("args", [
        ["--param", "regions", "--values", "2,0"],
        ["--param", "strategy", "--values", "adjacent,teleport"],
        ["--param", "K", "--values", "2,0"],
        ["--param", "p", "--values", "0.1,2"],
        ["--param", "regions", "--values", f"2,{MAX_WORKERS}"],
        ["--param", "K", "--values", f"2,{MAX_WORKERS + 1}"],
    ], ids=["regions", "strategy", "K", "p", "regions-over-cap", "K-over-cap"])
    def test_bad_value_rejected_before_any_trial(self, tmp_path, capsys, monkeypatch, args):
        def no_trial(*_):
            pytest.fail("a trial ran before every value was checked")

        monkeypatch.setattr("virtree.cli.run_scenario", no_trial)
        monkeypatch.setattr("virtree.cli.liveness_trials", no_trial)
        out_dir = tmp_path / "out"
        code = main(["sweep", "--scenario", write_scenario(tmp_path), *args,
                     "--trials", "3", "--out", str(out_dir)])
        assert code == 2
        assert "invalid scenario: --values: " in capsys.readouterr().err
        assert not out_dir.exists()

    def test_unknown_strategy_value_rejected(self, tmp_path):
        assert main(["sweep", "--scenario", write_scenario(tmp_path),
                     "--param", "strategy", "--values", "teleport",
                     "--trials", "1", "--out", str(tmp_path / "out")]) == 2


SWEEP_VALUES = {"strategy": "adjacent,hierarchical", "regions": "1,2"}


def sweep_on_cpus(tmp_path, monkeypatch, cpus, param="strategy", trials=7):
    """Run a sweep as if ``cpus`` CPUs were usable; returns (exit code,
    sweep.csv bytes or None, number of helpers forked)."""
    forks = []
    real_fork = os.fork

    def counted_fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr("virtree.cli.os.sched_getaffinity", lambda pid: set(range(cpus)))
    monkeypatch.setattr("virtree.cli.os.fork", counted_fork)
    out_dir = tmp_path / f"{param}-{trials}-{cpus}"
    path = write_scenario(tmp_path, commands=[{"time": 0.5, "origin": 0,
                                               "scope": {"kind": "region", "id": 0}}])
    code = main(["sweep", "--scenario", path, "--param", param,
                 "--values", SWEEP_VALUES[param], "--trials", str(trials),
                 "--out", str(out_dir)])
    csv = out_dir / "sweep.csv"
    return code, csv.read_bytes() if csv.exists() else None, len(forks)


def trial_seed(value, trial):
    return derive_seed(base_dict()["seed"], "sweep", value, trial)


def open_fds():
    return sorted(os.listdir("/proc/self/fd"))


def assert_no_helper_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestCliSweepHelpers:
    """Strategy and regions trials run in one forked helper per usable CPU
    but the first; sweep.csv must not depend on how many there are."""

    @pytest.mark.parametrize("param", ["strategy", "regions"])
    @pytest.mark.parametrize("trials", [1, 2, 7])
    def test_csv_identical_for_any_cpu_count(self, tmp_path, monkeypatch, param, trials):
        runs = {cpus: sweep_on_cpus(tmp_path, monkeypatch, cpus, param, trials)
                for cpus in (1, 2, 3)}
        one = runs[1][1]
        assert one is not None and len(one.splitlines()) == 3
        for cpus, (code, csv, forks) in runs.items():
            assert code == 0
            assert csv == one, cpus
            assert forks == 2 * (min(cpus, trials) - 1)  # per sweep value
        assert_no_helper_left()

    @pytest.mark.parametrize("error, expect", [
        (lambda: ConservationError({"sent": 1}), None),
        (lambda: ScenarioInvalid("commands", "bad trial"), 2),
    ], ids=["conservation", "scenario-invalid"])
    def test_helper_error_raises_as_serial(self, tmp_path, monkeypatch, capsys, error, expect):
        # trial 5 lies in the last helper's chunk (2..3 and 4..6 with 3 CPUs)
        failing = trial_seed("hierarchical", 5)

        def failing_run(sc, sink):
            if sc.seed == failing:
                raise error()
            return run(sc, sink=sink)

        monkeypatch.setattr("virtree.cli.run_scenario", failing_run)
        outcomes = []
        for cpus in (1, 3):
            fds = open_fds()
            if expect is None:
                with pytest.raises(ConservationError) as info:
                    sweep_on_cpus(tmp_path, monkeypatch, cpus)
                outcomes.append((str(info.value), info.value.counters))
            else:
                code, csv, forks = sweep_on_cpus(tmp_path, monkeypatch, cpus)
                outcomes.append((code, csv, capsys.readouterr().err))
            assert open_fds() == fds
            assert_no_helper_left()
        assert outcomes[0] == outcomes[1]
        if expect is not None:
            assert outcomes[0] == (2, None, "invalid scenario: commands: bad trial\n")

    def test_failing_first_trial_forks_nothing(self, tmp_path, monkeypatch, capsys):
        def invalid_run(sc, sink):
            raise ScenarioInvalid("commands", "bad trial")

        monkeypatch.setattr("virtree.cli.run_scenario", invalid_run)
        assert sweep_on_cpus(tmp_path, monkeypatch, 3) == (2, None, 0)
        assert capsys.readouterr().err == "invalid scenario: commands: bad trial\n"

    @pytest.mark.parametrize("fault", ["short-data", "no-fork"])
    def test_lost_helper_chunk_reruns_here(self, tmp_path, monkeypatch, fault):
        serial = sweep_on_cpus(tmp_path, monkeypatch, 1)[1]
        here = os.getpid()
        trials_here = []

        def counted_run(sc, sink):
            if os.getpid() == here:
                trials_here.append(sc.seed)
            return run(sc, sink=sink)

        def no_fork():
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

        monkeypatch.setattr("virtree.cli.run_scenario", counted_run)
        if fault == "short-data":
            real_dumps = cli.marshal.dumps
            monkeypatch.setattr("virtree.cli.marshal.dumps", lambda x: real_dumps(x)[:-3])
        else:
            monkeypatch.setattr("virtree.cli.os.fork", no_fork)
        fds = open_fds()
        assert sweep_on_cpus(tmp_path, monkeypatch, 3)[:2] == (0, serial)
        assert len(trials_here) == 2 * 7
        assert open_fds() == fds
        assert_no_helper_left()

    def test_interrupt_in_own_chunk_kills_helpers(self, tmp_path, monkeypatch):
        here = os.getpid()
        interrupt_at = trial_seed("adjacent", 1)  # 0..1 are this process's chunk

        def interrupted_run(sc, sink):
            if os.getpid() != here:
                time.sleep(30)  # a helper still running when this process stops
            elif sc.seed == interrupt_at:
                raise KeyboardInterrupt
            return run(sc, sink=sink)

        monkeypatch.setattr("virtree.cli.run_scenario", interrupted_run)
        fds = open_fds()
        t0 = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            sweep_on_cpus(tmp_path, monkeypatch, 3)
        assert time.monotonic() - t0 < 10
        assert open_fds() == fds
        assert_no_helper_left()


# Region 5 is killed at t=3 and three of its workers revive at t=12, so its
# breach opens at its region_dead record and closes at its first round after
# the revival, a quiet round; kills, jams and revives ride along.
STREAM_SCENARIO = {
    "topology": {"workers_per_cluster": 2, "clusters_per_region": 3,
                 "regions_per_hub": 5, "hubs_per_domain": 2, "domains": 2},
    "coordinator": {"K": 3, "T_min": 2, "round_period": 0.05},
    "commands": [{"time": 2.5, "origin": 2, "scope": {"kind": "global"}},
                 {"time": 4.0, "origin": 7, "scope": {"kind": "domain", "id": 1}},
                 {"time": 9.0, "origin": 50, "scope": {"kind": "region", "id": 2}}],
    "failures": (
        [{"time": 1.0, "kind": "worker", "action": "kill", "worker": w} for w in (0, 1, 13)]
        + [{"time": 2.0, "kind": "link", "action": "jam", "link_class": c, "drop": 0.3}
           for c in ("cluster", "adjacent", "tree")]
        + [{"time": 3.0, "kind": "region", "action": "kill", "region": 5}]
        + [{"time": 6.0, "kind": "link", "action": "clear", "link_class": c}
           for c in ("cluster", "adjacent", "tree")]
        + [{"time": 12.0, "kind": "worker", "action": "revive", "worker": w}
           for w in (30, 31, 32, 1)]),
    "seed": 3,
    "horizon": 30.0,
}


# sha256 of dump_trace(run(sc)[0]) for STREAM_SCENARIO, trace format 4;
# perfbench's hashes do not cover the adjacent strategy under failures,
# re-elections and jams
STREAM_TRACE_SHA256 = {
    "adjacent": "ab7a7895c4dd44d0a43afce9a69bc32691e90950b3381ab0529983e9a43545ae",
    "hierarchical": "35bb3b8481414bd6df71e8767561b472fa502490309d1fd156b0c1ed40788a95",
}

# sha256 of the sorted-key JSON of STREAM_SCENARIO's report without its
# totals and conservation counters, recorded from trace format 1: formats 2
# to 4 write fewer records and count more, and change nothing else
STREAM_REPORT_SHA256 = {
    "adjacent": "bfe9acb28f818fae838ee463bc4103f5c48dee7e3be119d3789d3b51296d3dbe",
    "hierarchical": "7a8ecc578c02ac4efaf21c6c0eec7821eded2cdc71537195ffd3b4acee0180c2",
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("strategy", sorted(STREAM_TRACE_SHA256))
def test_stream_scenario_trace_is_pinned(strategy):
    trace, report = run(build_scenario(dict(STREAM_SCENARIO, strategy=strategy)))
    assert sha256(dump_trace(trace)) == STREAM_TRACE_SHA256[strategy]
    obj = report.to_json_obj()
    del obj["totals"], obj["conservation"]
    assert sha256(json.dumps(obj, sort_keys=True)) == STREAM_REPORT_SHA256[strategy]


def write_stream_scenario(tmp_path, strategy="hierarchical"):
    path = tmp_path / f"stream-{strategy}.json"
    path.write_text(json.dumps(dict(STREAM_SCENARIO, strategy=strategy)))
    return str(path)


# Records a trace batch holds in the streaming tests, so that STREAM_SCENARIO
# spans several batches
SMALL_BATCH = 64


class TestCliRunStreaming:
    @pytest.mark.parametrize("strategy", ["adjacent", "hierarchical"])
    def test_streamed_outputs_equal_the_in_memory_run(self, tmp_path, monkeypatch, strategy):
        monkeypatch.setattr(simkernel, "TRACE_BATCH", SMALL_BATCH)
        path = write_stream_scenario(tmp_path, strategy)
        sc = build_scenario(dict(STREAM_SCENARIO, strategy=strategy))
        trace, report = run(sc)
        batches = []
        assert run(sc, sink=batches.append) == ([], report)
        assert list(itertools.chain.from_iterable(batches)) == trace
        assert len(batches) >= 3
        # region 5's breach opens in one batch and closes in a later one
        ends = list(itertools.accumulate(len(b) for b in batches))
        opened = next(r.seq for r in trace if r.event == "region_dead"
                      and r.data["region"] == 5)
        closed = next(r.seq for r in trace if r.seq > opened and r.event == "round"
                      and r.data["region"] == 5
                      and r.data["size_after"] >= r.data["t_min"])
        assert bisect.bisect_right(ends, opened) < bisect.bisect_right(ends, closed)
        assert (5, 181) in report.recovery_samples

        out_dir = tmp_path / "out"
        assert main(["run", "--scenario", path, "--out", str(out_dir)]) == 0
        text = (out_dir / "trace.jsonl").read_text(encoding="utf-8")
        assert text == dump_trace(trace)
        rebuilt = build_report(parse_trace(text), strategy)
        assert rebuilt == report
        assert (out_dir / "metrics.json").read_text(encoding="utf-8") == \
            json.dumps(rebuilt.to_json_obj(), indent=2, sort_keys=True) + "\n"
        assert sorted(os.listdir(out_dir)) == ["metrics.csv", "metrics.json", "trace.jsonl"]

    def test_run_makes_no_process(self, tmp_path, monkeypatch):
        def no_fork():
            raise OSError(errno.EAGAIN, "no process may be made")

        monkeypatch.setattr(os, "fork", no_fork)
        path = write_stream_scenario(tmp_path, "adjacent")
        out_dir = tmp_path / "out"
        assert main(["run", "--scenario", path, "--out", str(out_dir)]) == 0
        trace, _ = run(build_scenario(dict(STREAM_SCENARIO, strategy="adjacent")))
        assert (out_dir / "trace.jsonl").read_text(encoding="utf-8") == dump_trace(trace)

    # the hash seeds make string hashing differ from the test process's: the
    # trace must not depend on it
    @pytest.mark.parametrize("flags, hash_seed", [([], None), (["-O"], None),
                                                  ([], "0"), ([], "987654")],
                             ids=["python", "python-O", "python-hashseed-0",
                                  "python-hashseed-987654"])
    def test_real_process_run(self, tmp_path, flags, hash_seed):
        path = write_stream_scenario(tmp_path)
        out_dir = tmp_path / "out"
        src = os.path.dirname(os.path.dirname(os.path.abspath(virtree.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        if hash_seed is not None:
            env["PYTHONHASHSEED"] = hash_seed
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "virtree.cli", "run", "--scenario", path,
             "--out", str(out_dir)],
            capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("run ok: ")
        assert proc.stdout.count("\n") == 1
        trace, _ = run(build_scenario(dict(STREAM_SCENARIO, strategy="hierarchical")))
        assert (out_dir / "trace.jsonl").read_text(encoding="utf-8") == dump_trace(trace)

    @pytest.mark.parametrize("failure", ["enospc", "non-json-value"])
    def test_failed_trace_write_leaves_earlier_outputs(self, tmp_path, monkeypatch, capsys,
                                                       failure):
        path = write_stream_scenario(tmp_path)
        out_dir = tmp_path / "out"
        assert main(["run", "--scenario", path, "--out", str(out_dir)]) == 0
        before = {name: (out_dir / name).read_bytes() for name in os.listdir(out_dir)}
        capsys.readouterr()

        argv = ["run", "--scenario", path, "--out", str(out_dir)]
        if failure == "enospc":
            def full_disk(batch):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

            monkeypatch.setattr(cli, "dump_trace", full_disk)
            assert main(argv) == 3
            assert f"io error: [Errno {errno.ENOSPC}]" in capsys.readouterr().err
        else:
            def poisoned_run(sc, sink):
                def poison(batch):
                    batch[-1].data["bad"] = {1}  # a set is not JSON
                    sink(batch)
                return run(sc, sink=poison)

            monkeypatch.setattr(cli, "run_scenario", poisoned_run)
            with pytest.raises(TypeError, match="set is not JSON serializable"):
                main(argv)
        after = {name: (out_dir / name).read_bytes() for name in os.listdir(out_dir)}
        assert after == before

    def test_unopenable_trace_file_names_its_error(self, tmp_path, monkeypatch, capsys):
        def no_tmp(path, *args, **kw):
            if str(path).endswith(".tmp"):
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)
            return open(path, *args, **kw)

        monkeypatch.setattr(cli, "open", no_tmp, raising=False)
        out_dir = tmp_path / "out"
        assert main(["run", "--scenario", write_scenario(tmp_path), "--out", str(out_dir)]) == 3
        assert (f"io error: [Errno {errno.EACCES}] {os.strerror(errno.EACCES)}"
                in capsys.readouterr().err)
        assert os.listdir(out_dir) == []

    @pytest.mark.parametrize("abort_in", ["schedule_initial", "flush"],
                             ids=["first-event", "after-a-batch"])
    def test_aborted_run_leaves_earlier_outputs(self, tmp_path, monkeypatch, abort_in):
        path = write_stream_scenario(tmp_path)
        out_dir = tmp_path / "out"
        assert main(["run", "--scenario", path, "--out", str(out_dir)]) == 0
        before = {name: (out_dir / name).read_bytes() for name in os.listdir(out_dir)}

        class Abort(Exception):
            pass

        original = getattr(_Kernel, abort_in)
        flushed = []

        def aborting(self):
            original(self)
            flushed.append(self.rec_seq)
            raise Abort

        monkeypatch.setattr(_Kernel, abort_in, aborting)
        monkeypatch.setattr(simkernel, "TRACE_BATCH", SMALL_BATCH)
        with pytest.raises(Abort):
            main(["run", "--scenario", path, "--out", str(out_dir)])
        if abort_in == "flush":  # the first batch was written before the abort
            assert SMALL_BATCH <= flushed[0] < SMALL_BATCH * 2
        after = {name: (out_dir / name).read_bytes() for name in os.listdir(out_dir)}
        assert after == before
