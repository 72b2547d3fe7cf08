"""Built-in scenarios, artifact reproducibility, and the command line."""

import hashlib
import json

import numpy as np
import pytest

from reluflow.campaigns import run_campaign
from reluflow.cli import main
from reluflow.dataset import save_dataset
from reluflow.errors import StructuralError
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

    def test_descent_proxy_checks_event_sequence_only(self, tmp_path):
        result = run_scenario(
            builtin_scenario("example-5-2"), tmp_path, engine="gd", iters=10000
        )
        names = [name for name, _, _ in result.checks]
        assert names == ["one-deactivation-of-index-0", "no-reactivation"]
        assert result.passed


class TestCampaignInterface:
    def test_zero_trials_is_an_empty_pass(self):
        report = run_campaign("crossing-bound", seed=0, trials=0)
        assert report.passed
        assert report.results == ()

    def test_unknown_campaign_is_rejected(self):
        with pytest.raises(StructuralError):
            run_campaign("does-not-exist", seed=0, trials=1)

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

    def test_env_var_overrides_out(self, dataset_file, tmp_path, monkeypatch):
        override = tmp_path / "env-out"
        monkeypatch.setenv("RELUFLOW_OUT", str(override))
        code = main(
            [
                "landscape",
                "--dataset",
                str(dataset_file),
                "--out",
                str(tmp_path / "ignored"),
            ]
        )
        assert code == 0
        assert (override / "census.jsonl").exists()
        assert not (tmp_path / "ignored").exists()

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

    def test_console_script_round_trip(self, tmp_path):
        # the entry point must work as a real subprocess; it imports the
        # same package sources as this test, installed or not
        import os
        import subprocess
        import sys
        from pathlib import Path

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
