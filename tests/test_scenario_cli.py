import json

import pytest

from virtree.cli import main
from virtree.errors import ScenarioInvalid
from virtree.metrics import parse_trace
from virtree.scenario import apply_overrides, build_scenario


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

    def test_command_payload_decoded(self):
        raw = base_dict()
        raw["commands"][0]["payload"] = "01ff"
        assert build_scenario(raw).commands[0].payload == b"\x01\xff"

    @pytest.mark.parametrize("mutate,field", [
        (lambda d: d.update(warp=1), "warp"),
        (lambda d: d["topology"].update(rows=3), "topology.rows"),
        (lambda d: d.update(delays={"gamma": 1.0}), "delays.gamma"),
        (lambda d: d["coordinator"].update(quorum=2), "coordinator.quorum"),
        (lambda d: d.update(routing={"style": "x"}), "routing.style"),
        (lambda d: d["commands"][0].update(speed=1), "commands[0].speed"),
        (lambda d: d["commands"][0]["scope"].update(level=1), "commands[0].scope.level"),
        (lambda d: d.update(failures=[{"time": 0.0, "kind": "worker",
                                       "action": "kill", "worker": 0, "blast": 1}]),
         "failures[0].blast"),
    ])
    def test_unknown_keys_rejected_with_path(self, mutate, field):
        raw = base_dict()
        mutate(raw)
        with pytest.raises(ScenarioInvalid) as err:
            build_scenario(raw)
        assert err.value.field == field

    @pytest.mark.parametrize("mutate,field", [
        (lambda d: d["topology"].update(workers_per_cluster=True),
         "topology.workers_per_cluster"),
        (lambda d: d.update(horizon="soon"), "horizon"),
        (lambda d: d.update(seed=1.5), "seed"),
        (lambda d: d["commands"][0].update(targets=[1, "two"]), "commands[0].targets"),
        (lambda d: d["commands"][0].update(payload="zz"), "commands[0].payload"),
        (lambda d: d["topology"].update(adjacency=[[0]]), "topology.adjacency[0]"),
        (lambda d: d.update(link_latencies={"tree": True}), "link_latencies.tree"),
        (lambda d: d["commands"][0].update(targets=[True]), "commands[0].targets"),
        (lambda d: d["topology"].update(adjacency=[[True, 0]]), "topology.adjacency[0]"),
        (lambda d: d.update(failures=[{"time": 1.0, "kind": "adjacency",
                                       "action": "add", "edge": [True, 0]}]),
         "failures[0].edge"),
    ])
    def test_type_errors_name_the_field(self, mutate, field):
        raw = base_dict()
        mutate(raw)
        with pytest.raises(ScenarioInvalid) as err:
            build_scenario(raw)
        assert err.value.field == field

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
        assert trace[0].event == "run_start"
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

    @pytest.mark.parametrize("assignment", ["coordinator.round_period=1e-9",
                                            "horizon=1e300"])
    def test_too_many_maintenance_rounds_exits_2(self, tmp_path, capsys, assignment):
        code = main(["validate", "--scenario", write_scenario(tmp_path), "--set", assignment])
        assert code == 2
        assert "invalid scenario: coordinator.round_period: " in capsys.readouterr().err

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
    ], ids=["not-utf8", "overlong-int", "array-with-set", "array-with-seed"])
    def test_malformed_file_exits_2(self, tmp_path, capsys, content, extra):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        assert main(["validate", "--scenario", str(path), *extra]) == 2
        assert "invalid scenario" in capsys.readouterr().err

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
        raw = json.loads(open(path).read())
        raw["topology"]["adjacency"] = [[0, 1]]
        open(path, "w").write(json.dumps(raw))
        assert main(["sweep", "--scenario", path, "--param", "regions",
                     "--values", "1,2", "--trials", "1",
                     "--out", str(tmp_path / "out")]) == 2

    @pytest.mark.parametrize("args, field", [
        (["--param", "regions", "--values", "0"], "--values"),
        (["--param", "K", "--values", "0"], "--values"),
        (["--param", "p", "--values", "2"], "--values"),
        (["--param", "K", "--values", "abc"], "--values"),
        (["--param", "K", "--values", "3", "--p", "1.5"], "--p"),
    ], ids=["regions-0", "K-0", "p-2", "K-abc", "base-p-1.5"])
    def test_bad_values_exit_2_naming_the_field(self, tmp_path, capsys, args, field):
        code = main(["sweep", "--scenario", write_scenario(tmp_path), *args,
                     "--trials", "1", "--out", str(tmp_path / "out")])
        assert code == 2
        assert f"invalid scenario: {field}: " in capsys.readouterr().err

    @pytest.mark.parametrize("args", [
        ["--param", "regions", "--values", "2,0"],
        ["--param", "strategy", "--values", "adjacent,teleport"],
        ["--param", "K", "--values", "2,0"],
        ["--param", "p", "--values", "0.1,2"],
    ], ids=["regions", "strategy", "K", "p"])
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
