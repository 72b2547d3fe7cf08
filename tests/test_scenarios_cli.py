"""Built-in scenarios, artifact reproducibility, and the command line."""

import argparse
import dataclasses
import hashlib
import importlib
import json
import re
from pathlib import Path

import numpy as np
import pytest

from reluflow import campaigns, scenarios
from reluflow.campaigns import run_campaign
from reluflow.cli import _descent, build_parser, main
from reluflow.dataset import save_dataset
from reluflow.errors import PreconditionError, StructuralError
from reluflow.flow import Trajectory, simulate_flow, simulate_linear_flow, write_run
from reluflow.scenarios import (
    builtin_scenario,
    fixture_dataset,
    fixture_path,
    run_scenario,
)

# content-addressed pins of the packaged example datasets
FIXTURE_SHA256 = {
    "example-5-1": "e016e1feae758fcdba5854718e059c8758bb70dfad9a5ed51cf8a87b60a363cc",
    "example-5-2": "8c1b9b0e9443d98682f8979cc62ecfbe168db303757fad942a0d5ef354602917",
    "example-5-3": "04752fa5de8631851d9cd962a87512adec12c4ebef258eec48a096fd539ffa6f",
}


class TestFixtures:
    def test_fixture_hashes_are_pinned(self):
        for name, expected in FIXTURE_SHA256.items():
            digest = hashlib.sha256(fixture_path(name).read_bytes()).hexdigest()
            assert digest == expected, f"{name} fixture drifted"

    def test_printed_values_match(self):
        ds = fixture_dataset("example-5-2")
        np.testing.assert_array_equal(
            ds.x, [[1.0, 1.0, 2.0], [0.0, 2.0, 0.0], [2.0, 0.0, 0.0]]
        )
        np.testing.assert_array_equal(ds.y, [0.05, 6.0, 0.5])
        ds = fixture_dataset("example-5-3")
        np.testing.assert_array_equal(
            ds.x,
            [[1.0, 1.0, 1.0, 0.0], [0.0, 2.0, 0.0, 1.0], [1.0, 1.0, 2.0, 0.0]],
        )
        np.testing.assert_array_equal(ds.y, [0.1, 0.2, 4.0, 0.1])
        ds = fixture_dataset("example-5-1")
        assert ds.d == 2 and ds.n == 5
        np.testing.assert_array_equal(ds.x[0], [0.8858, 0.4338, 0.6739, 0.0221, 0.2322])
        np.testing.assert_array_equal(ds.y, [0.6111, 0.9397, 1.8694, 2.7104, 1.3089])

    def test_unknown_scenario_is_rejected(self):
        with pytest.raises(StructuralError):
            builtin_scenario("example-9-9")

    @pytest.mark.parametrize("name", ["example-5-1", "example-5-2", "example-5-3"])
    def test_seed_must_be_a_nonnegative_integer(self, name):
        for seed in (True, -1, 1.5, "3"):
            with pytest.raises(StructuralError, match="seed must be a nonnegative integer"):
                builtin_scenario(name, seed=seed)
        assert builtin_scenario(name, seed=np.int64(3)).name == name


class TestScenarios:
    @pytest.mark.parametrize("name", ["example-5-1", "example-5-2", "example-5-3"])
    def test_builtin_scenarios_pass(self, name, tmp_path):
        result = run_scenario(builtin_scenario(name), tmp_path / name)
        assert result.passed, result.checks
        assert (tmp_path / name / f"{name}-report.json").exists()

    def test_expectations_pass_across_seeds(self, tmp_path):
        for seed in (0, 1, 2, 3):
            for name in ("example-5-2", "example-5-3"):
                result = run_scenario(
                    builtin_scenario(name, seed=seed), tmp_path / f"{name}-{seed}"
                )
                assert result.passed, (name, seed, result.checks)

    def test_outputs_are_byte_identical_under_a_fixed_seed(self, tmp_path):
        for engine in ("exact", "gd"):
            outs = []
            for run_dir in ("a", "b"):
                out_dir = tmp_path / engine / run_dir
                run_scenario(builtin_scenario("example-5-2", seed=5), out_dir, engine=engine)
                blob = b""
                for path in sorted(out_dir.iterdir()):
                    blob += path.name.encode() + path.read_bytes()
                outs.append(hashlib.sha256(blob).hexdigest())
            assert outs[0] == outs[1], engine

    @pytest.mark.parametrize("name", ["example-5-1", "example-5-2", "example-5-3"])
    def test_starts_by_label_and_only_linear_is_unrectified(self, name, tmp_path, monkeypatch):
        scenario = builtin_scenario(name)
        for w0 in scenario.runs.values():
            assert isinstance(w0, np.ndarray) and not w0.flags.writeable
        with pytest.raises(TypeError):
            scenario.runs["extra"] = np.zeros(scenario.dataset.d)
        written = []

        def record(out_dir, stem, tr):
            written.append((stem, tr))
            return write_run(out_dir, stem, tr)

        monkeypatch.setattr(scenarios, "write_run", record)
        result = run_scenario(scenario, tmp_path)
        labels = list(scenario.runs)
        assert [stem for stem, _ in written] == [f"{name}-{label}" for label in labels]
        assert list(result.artifacts) == [f"{name}-{label}{suffix}" for label in labels
                                          for suffix in (".csv", "-events.jsonl")]
        for label, (_, tr) in zip(labels, written):
            assert isinstance(tr, Trajectory) and tr.linear == (label == "linear"), label
        assert ("linear" in labels) == (name != "example-5-1")

    @staticmethod
    def recorded_runs(name, tmp_path, monkeypatch):
        """Scenario ``name``, its runs by label as it writes them, and one of its checks by name."""
        scenario = builtin_scenario(name)
        runs = {}

        def record(out_dir, stem, tr):
            runs[stem.removeprefix(f"{name}-")] = tr
            return write_run(out_dir, stem, tr)

        monkeypatch.setattr(scenarios, "write_run", record)
        assert run_scenario(scenario, tmp_path).passed
        return runs, lambda check, results: next(e for e in scenario.expectations if e.name == check).fn(results)

    def test_small_ball_runs_share_one_terminal_bitwise(self, tmp_path, monkeypatch):
        runs, check = self.recorded_runs("example-5-1", tmp_path, monkeypatch)
        assert check("small-ball-runs-share-one-terminal", runs) == (True, "terminal spread 0.00e+00")
        cluster = runs["cluster-3"]
        off = dataclasses.replace(cluster, terminal_point=np.nextafter(cluster.terminal_point, np.inf))
        ok, detail = check("small-ball-runs-share-one-terminal", runs | {"cluster-3": off})
        assert not ok and detail != "terminal spread 0.00e+00", detail

    def test_relu_and_linear_terminals_agree_bitwise(self, tmp_path, monkeypatch):
        runs, check = self.recorded_runs("example-5-3", tmp_path, monkeypatch)
        assert check("relu-and-linear-terminals-agree", runs) == (True, "terminal gap 0.00e+00")
        off = dataclasses.replace(runs["relu"], terminal_point=np.nextafter(runs["relu"].terminal_point, np.inf))
        ok, detail = check("relu-and-linear-terminals-agree", runs | {"relu": off})
        assert not ok and detail != "terminal gap 0.00e+00", detail

    def test_flows_coincide_only_from_one_start(self, tmp_path, monkeypatch):
        runs, check = self.recorded_runs("example-5-2", tmp_path, monkeypatch)
        assert check("flows-coincide-before-the-event", runs) == (True, "max pre-event gap 0.00e+00")
        ds, w0 = runs["relu"].dataset, runs["relu"].segments[0].w_start
        off = simulate_flow(ds, np.nextafter(w0, np.inf))
        assert [(e.kind, e.index) for e in off.events] == [("deactivation", 0)]
        ok, detail = check("flows-coincide-before-the-event", runs | {"relu": off})
        assert not ok and detail.startswith("first segments start at"), detail

    def test_descent_proxy_checks_event_sequence_only(self, tmp_path):
        result = run_scenario(
            builtin_scenario("example-5-2"), tmp_path, engine="gd", iters=10000
        )
        names = [name for name, _, _ in result.checks]
        assert names == ["one-deactivation-of-index-0", "no-reactivation"]
        assert result.passed

    @pytest.mark.parametrize("options", [{"lr": 0.1}, {"iters": 50}, {"lr": 0.005, "iters": 20000}])
    def test_the_exact_engine_refuses_descent_options(self, options, tmp_path):
        # not ignored: the exact engine reads neither a step nor an iteration count, not even the defaults
        with pytest.raises(PreconditionError, match="^lr and iters need engine 'gd', not 'exact'$"):
            run_scenario(builtin_scenario("example-5-2"), tmp_path / "out", **options)
        assert not (tmp_path / "out").exists()


class TestCampaignInterface:
    def test_zero_trials_is_an_empty_pass(self):
        report = run_campaign("crossing-bound", seed=0, trials=0)
        assert report.passed
        assert report.results == ()

    def test_unknown_campaign_is_rejected(self):
        with pytest.raises(StructuralError):
            run_campaign("does-not-exist", seed=0, trials=1)

    def test_seed_must_be_a_nonnegative_integer(self):
        for seed in (True, -1, 1.5, "3"):
            with pytest.raises(StructuralError, match="seed must be a nonnegative integer"):
                run_campaign("crossing-bound", seed=seed, trials=1)
        assert run_campaign("crossing-bound", seed=np.int64(3), trials=1).trials == 1

    def test_trials_must_be_a_nonnegative_integer(self):
        for trials in (True, -1, 1.5, "2"):
            with pytest.raises(StructuralError, match="trials must be a nonnegative integer"):
                run_campaign("crossing-bound", seed=0, trials=trials)
        assert len(run_campaign("crossing-bound", seed=0, trials=np.int64(2)).results) == 2

    def test_a_numpy_seed_is_written_as_an_integer(self):
        report = run_campaign("crossing-bound", np.int64(3), trials=1)
        assert json.loads(json.dumps(report.to_json()))["seed"] == 3
        assert type(report.seed) is int and type(report.trials) is int

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_a_certified_flow_ends_on_the_linear_terminal_bitwise(self, seed, monkeypatch):
        assert run_campaign("no-deactivation", seed, trials=1).passed

        def one_ulp_off(ds, w0):
            lin = simulate_linear_flow(ds, w0)
            return dataclasses.replace(lin, terminal_point=np.nextafter(lin.terminal_point, np.inf))

        monkeypatch.setattr(campaigns, "simulate_linear_flow", one_ulp_off)
        (result,) = run_campaign("no-deactivation", seed, trials=1).results
        assert not result.passed and result.detail.startswith("certified flow makes 0 events"), result.detail

    def test_deterministic_under_seed(self):
        a = run_campaign("crossing-bound", seed=9, trials=10)
        b = run_campaign("crossing-bound", seed=9, trials=10)
        assert [r.detail for r in a.results] == [r.detail for r in b.results]


@pytest.fixture()
def dataset_file(tmp_path, ds_deactivation):
    path = tmp_path / "data.json"
    save_dataset(ds_deactivation, path)
    return path


class TestCli:
    def test_validate_passes_and_fails(self, dataset_file, tmp_path, capsys):
        assert main(["validate", "--dataset", str(dataset_file)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["passed"]
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps({"x": [[1.0, 0.0]], "y": [-1.0], "assumptions": []})
        )
        assert main(["validate", "--dataset", str(bad), "--require", "A2"]) == 1

    def test_validate_names_a_non_string_flag(self, tmp_path, capsys):
        path = tmp_path / "flags.json"
        path.write_text(json.dumps({"x": [[1.0, 0.0]], "y": [1.0], "assumptions": ["A1", 3]}))
        assert main(["validate", "--dataset", str(path)]) == 2
        assert capsys.readouterr().err == "error: unknown assumption flags: [3]\n"

    def test_flow_writes_artifacts(self, dataset_file, tmp_path, capsys):
        out = tmp_path / "artifacts"
        code = main(
            [
                "flow",
                "--dataset",
                str(dataset_file),
                "--w0",
                "0.0001,0.00005,0.00008",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["events"][0][:2] == ["deactivation", 0]
        csv_text = (out / "flow.csv").read_text()
        assert csv_text.splitlines()[0] == "t,w_1,w_2,w_3,loss,norm,g,pattern"
        events = [
            json.loads(line)
            for line in (out / "flow-events.jsonl").read_text().splitlines()
        ]
        assert events[0]["kind"] == "deactivation"
        assert events[0]["index"] == 0

    def test_linear_flow_and_landscape(self, dataset_file, tmp_path, capsys):
        out = tmp_path / "artifacts"
        assert (
            main(
                [
                    "linear-flow",
                    "--dataset",
                    str(dataset_file),
                    "--w0",
                    "0,0,0",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        summary = json.loads(capsys.readouterr().out)
        np.testing.assert_allclose(summary["terminal_point"], [0.25, 2.875, -0.1], atol=1e-9)
        assert main(["landscape", "--dataset", str(dataset_file), "--out", str(out)]) == 0
        assert (out / "census.jsonl").exists()

    def test_landscape_computes_the_census_once(self, dataset_file, tmp_path, monkeypatch):
        from reluflow import cli, landscape

        calls = []
        census = landscape.minima_census

        def counted(ds):
            calls.append(ds)
            return census(ds)

        monkeypatch.setattr(cli, "minima_census", counted)
        monkeypatch.setattr(landscape, "minima_census", counted)
        assert main(["landscape", "--dataset", str(dataset_file), "--out", str(tmp_path)]) == 0
        assert len(calls) == 1

    def test_criteria_report(self, dataset_file, tmp_path, capsys):
        out = tmp_path / "artifacts"
        code = main(
            [
                "criteria",
                "--dataset",
                str(dataset_file),
                "--w0",
                "0.0001,0.0001,0.0001",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        report = json.loads((out / "certificates.json").read_text())
        assert set(report["no_deactivation"]) == {"0", "1", "2"}
        assert report["crossings"]
        assert "b1" in report["crossings"][0]

    def test_backprop_report(self, tmp_path, capsys):
        net_file = tmp_path / "net.json"
        net_file.write_text(json.dumps({"weights": [[[1.0, 0.5]], [[2.0]]]}))
        out = tmp_path / "artifacts"
        code = main(
            [
                "backprop",
                "--net",
                str(net_file),
                "--x",
                "1.0,2.0",
                "--y",
                "1.0",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        report = json.loads((out / "backprop.json").read_text())
        assert report["depth"] == 2
        assert len(report["layers"]) == 2

    def test_backprop_rejects_malformed_json(self, tmp_path, capsys):
        net_file = tmp_path / "net.json"
        net_file.write_text('{"weights": [[[1.0, 0.5]],')
        argv = ["backprop", "--net", str(net_file), "--x", "1,2", "--y", "1"]
        assert main(argv + ["--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error: malformed JSON")

    def test_a_report_with_a_non_finite_number_is_not_written(self, tmp_path, capsys):
        # weights of 1e200 overflow the forward pass: the report would hold
        # Infinity and NaN, which are not JSON
        net_file = tmp_path / "net.json"
        net_file.write_text(json.dumps({"weights": [[[1e200]], [[1e200]]]}))
        out = tmp_path / "out"
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["backprop", "--net", str(net_file), "--x", "1", "--y", "1", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out / 'backprop.json'}: Out of range float values")
        assert err.count("\n") == 1
        assert not (out / "backprop.json").exists()

    def test_an_overflow_is_reported_once(self, tmp_path):
        # run as a process, so that a numpy warning would reach its stderr
        import os
        import subprocess
        import sys

        import reluflow

        net_file = tmp_path / "net.json"
        net_file.write_text(json.dumps({"weights": [[[1e200]], [[1e200]]]}))
        src = str(Path(reluflow.__file__).resolve().parents[1])
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-m", "reluflow.cli", "backprop", "--net", str(net_file), "--x", "1", "--y", "1",
             "--out", str(tmp_path / "out")],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: cannot write ") and proc.stderr.count("\n") == 1, proc.stderr

    @pytest.mark.parametrize("w0", ["1,,2", "1,2,", ""])
    def test_an_empty_vector_field_is_an_error(self, w0, tmp_path, capsys):
        argv = ["flow", "--dataset", str(fixture_path("example-5-1")), "--w0", w0, "--out", str(tmp_path)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"error: cannot parse vector {w0!r}: could not convert string to float: ''\n"
        assert not (tmp_path / "flow.csv").exists()

    def test_reproduce_and_campaign_exit_codes(self, tmp_path):
        assert (
            main(["reproduce", "example-5-2", "--out", str(tmp_path / "repro")]) == 0
        )
        assert (
            main(
                [
                    "campaign",
                    "crossing-bound",
                    "--trials",
                    "5",
                    "--seed",
                    "1",
                    "--out",
                    str(tmp_path / "camp"),
                ]
            )
            == 0
        )
        assert (tmp_path / "camp" / "campaign-crossing-bound.json").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["reproduce", "example-5-1", "--seed", "-1"],
            ["reproduce", "example-5-2", "--seed", "-1"],
            ["campaign", "crossing-bound", "--seed", "-1"],
        ],
    )
    def test_negative_seed_exits_2_with_one_error_line(self, argv, tmp_path, capsys):
        assert main(argv + ["--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err == "error: seed must be a nonnegative integer, got -1\n"

    def test_reports_are_written_as_printed(self, dataset_file, tmp_path, capsys):
        def report_text(obj):
            return json.dumps(obj, indent=2, sort_keys=True) + "\n"

        net_file = tmp_path / "net.json"
        net_file.write_text(json.dumps({"weights": [[[1.0, 0.5]], [[2.0]]]}))
        data = ["--dataset", str(dataset_file)]
        commands = {
            "landscape-summary.json": ["landscape", *data],
            "certificates.json": ["criteria", *data, "--w0", "0.0001,0.0001,0.0001"],
            "backprop.json": ["backprop", "--net", str(net_file), "--x", "1,2", "--y", "1"],
        }
        for name, argv in commands.items():
            out = tmp_path / name
            assert main(argv + ["--out", str(out)]) == 0
            printed = capsys.readouterr().out
            assert (out / name).read_text(encoding="utf-8") == printed
            assert printed == report_text(json.loads(printed)), name
        out = tmp_path / "campaign"
        main(["campaign", "crossing-bound", "--trials", "3", "--seed", "1", "--out", str(out)])
        text = (out / "campaign-crossing-bound.json").read_text(encoding="utf-8")
        assert text == report_text(run_campaign("crossing-bound", seed=1, trials=3).to_json())
        assert text.endswith("}\n")
        out = tmp_path / "scenario"
        result = run_scenario(builtin_scenario("example-5-2"), out)
        text = (out / "example-5-2-report.json").read_text(encoding="utf-8")
        assert text == report_text(result.to_json()) and text.endswith("}\n")
        runs = [f"example-5-2-{label}{suffix}" for label in ("relu", "linear")
                for suffix in (".csv", "-events.jsonl")]
        assert list(result.artifacts) == runs
        assert all((out / name).is_file() for name in runs)

    def test_augment_bias_flag(self, tmp_path, capsys):
        path = tmp_path / "one.json"
        path.write_text(json.dumps({"x": [[1.0]], "y": [2.0], "assumptions": []}))
        code = main(
            ["validate", "--dataset", str(path), "--augment-bias", "--require", "A1,A2"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["d"] == 2  # the constant coordinate was appended

    def test_missing_arguments_error_cleanly(self, dataset_file, capsys):
        assert main(["flow", "--dataset", str(dataset_file)]) == 2
        assert "error" in capsys.readouterr().err

    def test_descent_proxy_engine(self, dataset_file, tmp_path, capsys):
        out = tmp_path / "gd"
        code = main(
            [
                "flow",
                "--dataset",
                str(dataset_file),
                "--w0",
                "0.0001,0.00005,0.00008",
                "--engine",
                "gd",
                "--lr",
                "0.005",
                "--iters",
                "5000",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["engine"] == "gd"
        assert summary["events"] == [["deactivation", 0]]
        assert (out / "flow.csv").exists()

    def test_descent_proxy_rejects_a_nonpositive_step(self, dataset_file, tmp_path, capsys):
        argv = ["flow", "--dataset", str(dataset_file), "--w0", "1,0,0", "--engine", "gd"]
        assert main(argv + ["--lr", "0", "--out", str(tmp_path)]) == 2
        assert "lr must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("option", [["--lr", "0"], ["--iters", "-5"], ["--engine", "exact", "--lr", "0.01"]])
    @pytest.mark.parametrize("command", ["flow", "reproduce"])
    def test_descent_options_need_the_descent_engine(self, command, option, dataset_file, tmp_path, capsys):
        if command == "flow":
            argv = ["flow", "--dataset", str(dataset_file), "--w0", "0.0001,0.00005,0.00008"]
        else:
            argv = ["reproduce", "example-5-2"]
        assert main(argv + option + ["--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == "error: --lr and --iters need --engine gd\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [
        ["flow", "--dataset", str(fixture_path("example-5-1")), "--w0", "0.3,0.3"],
        ["reproduce", "example-5-3"],
    ])
    def test_a_descent_that_overflows_exits_2(self, argv, tmp_path, capsys):
        # not a summary with -Infinity, which is not JSON, nor inf and nan CSV rows
        assert main(argv + ["--engine", "gd", "--lr", "1e300", "--iters", "50", "--out", str(tmp_path)]) == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", "error: descent left the finite range at iteration 2\n")

    def test_the_horizon_needs_the_exact_engine(self, dataset_file, tmp_path, capsys):
        # the descent proxy has no horizon: --t-max is refused before --out is made, not ignored
        argv = ["flow", "--dataset", str(dataset_file), "--w0", "0.0001,0.00005,0.00008", "--engine", "gd",
                "--iters", "3000", "--t-max", "0.001", "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: --t-max needs --engine exact\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", [["flow"], ["reproduce", "example-5-2"]])
    def test_the_descent_engine_keeps_its_defaults(self, command):
        args = build_parser().parse_args(command + ["--engine", "gd"])
        assert _descent(args) == (0.005, 20000)
        args = build_parser().parse_args(command + ["--engine", "gd", "--lr", "0.5", "--iters", "7"])
        assert _descent(args) == (0.5, 7)

    def test_each_subcommand_takes_only_the_options_it_reads(self):
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        options = {
            name: {o for a in p._actions for o in a.option_strings if o not in ("-h", "--help")}
            for name, p in sub.choices.items()
        }
        dataset = {"--dataset", "--augment-bias"}
        flow = {"--w0"}
        engine = {"--engine", "--lr", "--iters"}
        assert options == {
            "validate": dataset | {"--require"},
            "landscape": dataset | {"--out"},
            "flow": dataset | flow | engine | {"--t-max", "--out"},
            "linear-flow": dataset | flow | {"--out"},
            "criteria": dataset | flow | {"--t-max", "--w-gm", "--out"},
            "backprop": {"--net", "--x", "--y", "--out"},
            "reproduce": engine | {"--seed", "--out"},
            "campaign": {"--trials", "--seed", "--out"},
        }

    def test_criteria_rejects_unrealizable_data(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps(
                {"x": [[1.0, 0.0], [1.0, 0.1], [0.0, 1.0]], "y": [1.0, 2.0, 3.0]}
            )
        )
        code = main(["criteria", "--dataset", str(path), "--w0", "1,1"])
        assert code == 2
        assert "interpolating" in capsys.readouterr().err

    def test_criteria_rejects_vectors_of_the_wrong_length(self, dataset_file, tmp_path, capsys):
        argv = ["criteria", "--dataset", str(dataset_file), "--out", str(tmp_path)]
        assert main(argv + ["--w0", "0.0001,0.0001"]) == 2
        assert capsys.readouterr().err.startswith("error: w0 must have length 3")
        assert main(argv + ["--w0", "0.0001,0.0001,0.0001", "--w-gm", "1,2"]) == 2
        assert capsys.readouterr().err.startswith("error: reference point must have length 3")

    def test_criteria_rejects_a_non_finite_reference_point(self, dataset_file, tmp_path, capsys):
        argv = ["criteria", "--dataset", str(dataset_file), "--out", str(tmp_path)]
        assert main(argv + ["--w0", "0.01,0.02,0.01", "--w-gm", "nan,nan,nan"]) == 2
        assert capsys.readouterr().err.startswith("error: reference point must be finite")

    def test_a_missing_input_file_is_an_error(self, tmp_path, capsys):
        missing = str(tmp_path / "nofile.json")
        assert main(["landscape", "--dataset", missing, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot read {missing}")
        argv = ["backprop", "--net", missing, "--x", "1,2", "--y", "1", "--out", str(tmp_path)]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot read {missing}")

    def test_console_script_round_trip(self, tmp_path):
        # the entry point must work as a real subprocess; it imports the
        # same package sources as this test, installed or not
        import os
        import subprocess
        import sys

        import reluflow

        src = str(Path(reluflow.__file__).resolve().parents[1])
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-m", "reluflow.cli", "reproduce", "example-5-2",
             "--out", str(tmp_path)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.count("[PASS]") == 5


class TestTolerancesTable:
    def test_every_row_names_a_constant_with_its_value(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        table = readme.split("\n## Tolerances\n", 1)[1].split("\n## ", 1)[0]
        rows = re.findall(r"^\| `(\w+)` \| ([^|]+?) \| `(\w+)` \|", table, flags=re.MULTILINE)
        assert len(rows) == len(re.findall(r"^\| `", table, flags=re.MULTILINE)) >= 10
        for name, value, module in rows:
            assert getattr(importlib.import_module(f"reluflow.{module}"), name) == float(value), name
