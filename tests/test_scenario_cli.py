import bisect
import errno
import itertools
import json
import os
import subprocess
import sys
import tracemalloc

import pytest

import virtree
from virtree import cli
from virtree.cli import main
from virtree.errors import ScenarioInvalid
from virtree.metrics import build_report, dump_trace, parse_trace
from virtree.scenario import MAX_WORKERS, apply_overrides, build_scenario
from virtree.simkernel import _Kernel, run


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

    def test_strategy_trial_keeps_no_trace(self, tmp_path):
        # a trial's report is folded batch by batch, so its peak memory stays
        # well below that of a run that keeps its whole trace
        path = write_stream_scenario(tmp_path)
        sc = build_scenario(dict(STREAM_SCENARIO, strategy="hierarchical"))
        tracemalloc.start()
        try:
            run(sc)
            run_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            assert main(["sweep", "--scenario", path, "--param", "strategy",
                         "--values", "hierarchical", "--trials", "1",
                         "--out", str(tmp_path / "out")]) == 0
            sweep_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
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


# Enough records for several trace batches.  Region 5 is killed at t=3 and
# three of its workers revive at t=12, so its breach stays open across
# thousands of maintenance records; kills, jams and revives ride along.
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


def write_stream_scenario(tmp_path, strategy="hierarchical"):
    path = tmp_path / f"stream-{strategy}.json"
    path.write_text(json.dumps(dict(STREAM_SCENARIO, strategy=strategy)))
    return str(path)


def use_cpus(monkeypatch, n):
    """Make ``n`` CPUs usable to ``run``; returns the list of forks it makes."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
    forks = []
    real_fork = os.fork

    def fork():
        forks.append(os.getpid())
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    return forks


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestCliRunStreaming:
    @pytest.mark.parametrize("strategy", ["adjacent", "hierarchical"])
    def test_streamed_outputs_equal_the_in_memory_run(self, tmp_path, monkeypatch, strategy):
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

        # two usable CPUs: a forked writer encodes; one: the run encodes in-process
        for cpus, forks_made in ((2, 1), (1, 0)):
            forks = use_cpus(monkeypatch, cpus)
            out_dir = tmp_path / f"out-{cpus}"
            assert main(["run", "--scenario", path, "--out", str(out_dir)]) == 0
            assert len(forks) == forks_made
            text = (out_dir / "trace.jsonl").read_text(encoding="utf-8")
            assert text == dump_trace(trace)
            rebuilt = build_report(parse_trace(text), strategy)
            assert rebuilt == report
            assert (out_dir / "metrics.json").read_text(encoding="utf-8") == \
                json.dumps(rebuilt.to_json_obj(), indent=2, sort_keys=True) + "\n"
            assert sorted(os.listdir(out_dir)) == ["metrics.csv", "metrics.json", "trace.jsonl"]
            assert_no_child_left()

    def test_one_batch_trace_is_written_without_a_writer(self, tmp_path, monkeypatch):
        forks = use_cpus(monkeypatch, 2)
        out_dir = tmp_path / "out"
        assert main(["run", "--scenario", write_scenario(tmp_path),
                     "--out", str(out_dir)]) == 0
        assert forks == []
        trace, _ = run(build_scenario(base_dict()))
        assert (out_dir / "trace.jsonl").read_text(encoding="utf-8") == dump_trace(trace)

    @pytest.mark.parametrize("flags", [[], ["-O"]], ids=["python", "python-O"])
    def test_real_process_run(self, tmp_path, flags):
        path = write_stream_scenario(tmp_path)
        out_dir = tmp_path / "out"
        src = os.path.dirname(os.path.dirname(os.path.abspath(virtree.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "virtree.cli", "run", "--scenario", path,
             "--out", str(out_dir)],
            capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        # one line: the writer process flushes none of the parent's buffered output
        assert proc.stdout.startswith("run ok: ")
        assert proc.stdout.count("\n") == 1
        trace, _ = run(build_scenario(dict(STREAM_SCENARIO, strategy="hierarchical")))
        assert (out_dir / "trace.jsonl").read_text(encoding="utf-8") == dump_trace(trace)

    @pytest.mark.parametrize("cpus", [2, 1], ids=["writer-process", "in-process"])
    @pytest.mark.parametrize("failure", ["enospc", "non-json-value"])
    def test_failed_trace_write_leaves_earlier_outputs(self, tmp_path, monkeypatch, capsys,
                                                       cpus, failure):
        path = write_stream_scenario(tmp_path)
        out_dir = tmp_path / "out"
        assert main(["run", "--scenario", path, "--out", str(out_dir)]) == 0
        before = {name: (out_dir / name).read_bytes() for name in os.listdir(out_dir)}
        capsys.readouterr()

        forks = use_cpus(monkeypatch, cpus)
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
        assert len(forks) == (cpus == 2)
        after = {name: (out_dir / name).read_bytes() for name in os.listdir(out_dir)}
        assert after == before
        assert_no_child_left()

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

        def aborting(self):
            original(self)
            raise Abort

        monkeypatch.setattr(_Kernel, abort_in, aborting)
        forks = use_cpus(monkeypatch, 2)
        with pytest.raises(Abort):
            main(["run", "--scenario", path, "--out", str(out_dir)])
        assert len(forks) == (abort_in == "flush")
        after = {name: (out_dir / name).read_bytes() for name in os.listdir(out_dir)}
        assert after == before
        assert_no_child_left()
