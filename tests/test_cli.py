import csv
import json
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest

from mvsapce.benchmark import BeamConfig, ExperimentPlan, beam_samples, run_beam_experiment
from mvsapce.mvsa_engine import FitDiagnostics, load_model, predict, save_model
from mvsapce.polynomial_basis import DistributionSpec, Marginal
from mvsapce.regression import load_data_csv, rmse, write_data_csv

from conftest import build_model


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "mvsapce.cli", *map(str, args)],
        capture_output=True,
        text=True,
    )


def last_json_line(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def fit_assets(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    spec = DistributionSpec.of([Marginal.normal(0.0, 1.0), Marginal.normal(0.0, 1.0)])
    rng = np.random.default_rng(0)
    x = rng.normal(size=(40, 2))
    y = 3.0 + x[:, :1]  # exactly representable, so the fit interpolates
    data = root / "data.csv"
    write_data_csv(data, x, y)
    dist = root / "dist.json"
    dist.write_text(json.dumps(spec.to_json()))
    model = root / "model.json"
    proc = run_cli(
        "fit", "--data", data, "--inputs", 2, "--outputs", 1,
        "--dist", dist, "--out", model,
    )
    assert proc.returncode == 0, proc.stderr
    return {"root": root, "spec": spec, "x": x, "y": y, "data": data, "dist": dist, "model": model}


class TestFit:
    def test_success_writes_model_and_diagnostics(self, fit_assets):
        assert fit_assets["model"].exists()
        proc = run_cli(
            "fit", "--data", fit_assets["data"], "--inputs", 2, "--outputs", 1,
            "--dist", fit_assets["dist"], "--out", fit_assets["root"] / "model2.json",
        )
        assert proc.returncode == 0
        payload = last_json_line(proc)
        assert payload["status"] == "ok"
        assert payload["basis_size"] >= 2
        assert payload["condition_number"] <= 100.0
        assert "fit_seconds" in payload
        saved = json.loads((fit_assets["root"] / "model2.json").read_text())["diagnostics"]
        assert list(saved) == [field.name for field in fields(FitDiagnostics)]
        assert {name: payload[name] for name in saved} == saved

    def test_zero_outputs_exits_2(self, fit_assets, tmp_path):
        x_only = tmp_path / "x_only.csv"
        write_data_csv(x_only, fit_assets["x"], np.empty((len(fit_assets["x"]), 0)))
        proc = run_cli(
            "fit", "--data", x_only, "--inputs", 2, "--outputs", 0,
            "--dist", fit_assets["dist"], "--out", tmp_path / "m.json",
        )
        assert proc.returncode == 2, proc.stderr
        assert last_json_line(proc)["kind"] == "data error"
        assert not (tmp_path / "m.json").exists()

    def test_width_mismatch_exits_2(self, fit_assets, tmp_path):
        dist3 = tmp_path / "dist3.json"
        dist3.write_text(json.dumps([{"kind": "normal", "params": [0.0, 1.0]}] * 3))
        proc = run_cli(
            "fit", "--data", fit_assets["data"], "--inputs", 3, "--outputs", 1,
            "--dist", dist3, "--out", tmp_path / "m.json",
        )
        assert proc.returncode == 2
        assert "x1,x2,x3" in proc.stderr and "x1,x2" in proc.stderr

    def test_bad_kappa_exits_3(self, fit_assets, tmp_path):
        for kappa in ("0.5", "inf"):
            proc = run_cli(
                "fit", "--data", fit_assets["data"], "--inputs", 2, "--outputs", 1,
                "--dist", fit_assets["dist"], "--out", tmp_path / "m.json", "--kappa", kappa,
            )
            assert proc.returncode == 3, kappa
            assert "kappa" in proc.stderr, kappa
            assert not (tmp_path / "m.json").exists()

    def test_unknown_flag_exits_3(self, fit_assets, tmp_path):
        proc = run_cli(
            "fit", "--data", fit_assets["data"], "--inputs", 2, "--outputs", 1,
            "--dist", fit_assets["dist"], "--out", tmp_path / "m.json", "--bogus", 1,
        )
        assert proc.returncode == 3
        assert last_json_line(proc)["status"] == "error"

    def test_td_init(self, fit_assets, tmp_path):
        proc = run_cli(
            "fit", "--data", fit_assets["data"], "--inputs", 2, "--outputs", 1,
            "--dist", fit_assets["dist"], "--out", tmp_path / "m.json", "--init", "td:1",
        )
        assert proc.returncode == 0

    def test_overflowing_design_exits_2(self, fit_assets, tmp_path):
        # td:2 puts He_2(x1) in the first design, and He_2(1e200) overflows
        x = fit_assets["x"].copy()
        x[5, 0] = 1e200
        data = tmp_path / "far.csv"
        write_data_csv(data, x, fit_assets["y"])
        proc = run_cli(
            "fit", "--data", data, "--inputs", 2, "--outputs", 1,
            "--dist", fit_assets["dist"], "--out", tmp_path / "m.json", "--init", "td:2",
        )
        assert proc.returncode == 2, proc.stderr
        assert last_json_line(proc)["error"] == "term (2, 0) is not finite at input row 5"
        assert proc.stderr == "mvsapce: data error: term (2, 0) is not finite at input row 5\n"

    def test_oversized_td_init_exits_3_without_enumerating(self, tmp_path, monkeypatch, capsys):
        from mvsapce import cli

        prefix = f"{tmp_path}/"
        assert cli.main(["beam-data", "--M", "10", "--seed", "0", "--test-size", "1", "--prefix", prefix]) == 0

        def enumeration_forbidden(*args):
            raise AssertionError("total_degree_set was called")

        # td:8 in 20 inputs has C(28, 8) = 3,108,105 members
        monkeypatch.setattr(cli, "total_degree_set", enumeration_forbidden)
        code = cli.main([
            "fit", "--data", f"{prefix}train.csv", "--inputs", "20", "--outputs", "10",
            "--dist", f"{prefix}dist.json", "--init", "td:8", "--out", f"{prefix}m.json",
        ])
        assert code == 3
        payload = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert payload["kind"] == "configuration error"
        assert payload["error"] == "initial set size 3108105 must be smaller than the sample count 150"
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize(
        "params",
        [[0, "abc"], [0, None], 5],
        ids=["non-numeric", "null", "not-a-list"],
    )
    def test_malformed_dist_params_exit_2(self, fit_assets, tmp_path, params):
        dist = tmp_path / "dist.json"
        dist.write_text(json.dumps([{"kind": "normal", "params": params}] * 2))
        proc = run_cli(
            "fit", "--data", fit_assets["data"], "--inputs", 2, "--outputs", 1,
            "--dist", dist, "--out", tmp_path / "m.json",
        )
        assert proc.returncode == 2, proc.stderr
        assert last_json_line(proc)["kind"] == "data error"


class TestUnreadableInputs:
    NOT_UTF8 = b"\xff\xfe\x00\x81 not text"

    @pytest.mark.parametrize(
        "command, flag, kind",
        [
            ("predict", "--model", "directory"),
            ("predict", "--model", "not-utf8"),
            ("predict", "--data", "directory"),
            ("predict", "--data", "not-utf8"),
            ("fit", "--dist", "not-utf8"),
            ("fit", "--data", "not-utf8"),
            ("uq", "--model", "directory"),
        ],
    )
    def test_exits_2(self, fit_assets, tmp_path, command, flag, kind):
        bad = tmp_path / "bad"
        if kind == "directory":
            bad.mkdir()
        else:
            bad.write_bytes(b"x1,x2,y1\n" + self.NOT_UTF8 + b"\n" if flag == "--data" else self.NOT_UTF8)
        args = {
            "fit": {"--data": fit_assets["data"], "--inputs": 2, "--outputs": 1,
                    "--dist": fit_assets["dist"], "--out": tmp_path / "m.json"},
            "predict": {"--model": fit_assets["model"], "--data": fit_assets["data"],
                        "--out": tmp_path / "o.csv"},
            "uq": {"--model": fit_assets["model"], "--out-prefix": tmp_path / "u_"},
        }[command]
        args[flag] = bad
        proc = run_cli(command, *[part for item in args.items() for part in item])
        assert proc.returncode == 2, proc.stderr
        payload = last_json_line(proc)
        assert payload["status"] == "error" and payload["kind"] == "data error"


class TestUnwritableOutputs:
    @pytest.mark.parametrize("command", ["fit", "predict", "uq", "compare", "beam-data"])
    def test_exits_3(self, fit_assets, tmp_path, command):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        args = {
            "fit": ["fit", "--data", fit_assets["data"], "--inputs", 2, "--outputs", 1,
                    "--dist", fit_assets["dist"], "--out", tmp_path / "missing" / "m.json"],
            "predict": ["predict", "--model", fit_assets["model"], "--data", fit_assets["data"],
                        "--out", tmp_path / "missing" / "p.csv"],
            "uq": ["uq", "--model", fit_assets["model"], "--out-prefix", blocker / "u_"],
            "compare": ["compare", "--Q", 25, "--M", 5, "--seeds", 0, "--methods", "td:1",
                        "--test-size", 10, "--mcs-samples", 100, "--out-dir", blocker / "out"],
            "beam-data": ["beam-data", "--M", 2, "--train-size", 5, "--test-size", 5, "--seed", 0,
                          "--prefix", blocker / "b_"],
        }[command]
        proc = run_cli(*args)
        assert proc.returncode == 3, proc.stderr
        assert last_json_line(proc)["kind"] == "configuration error"
        assert "cannot write" in proc.stderr


class TestPredict:
    def test_round_trip_on_training_data(self, fit_assets, tmp_path):
        out = tmp_path / "preds.csv"
        proc = run_cli("predict", "--model", fit_assets["model"], "--data", fit_assets["data"], "--out", out)
        assert proc.returncode == 0
        with out.open() as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["y1"]
        got = np.array([[float(v) for v in row] for row in rows[1:]])
        assert np.max(np.abs(got - fit_assets["y"])) < 1e-8

    def test_missing_model_exits_2(self, fit_assets, tmp_path):
        proc = run_cli("predict", "--model", tmp_path / "none.json", "--data", fit_assets["data"], "--out", tmp_path / "o.csv")
        assert proc.returncode == 2

    def test_header_only_input_gives_header_only_output(self, fit_assets, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("x1,x2\n")
        out = tmp_path / "out.csv"
        proc = run_cli("predict", "--model", fit_assets["model"], "--data", empty, "--out", out)
        assert proc.returncode == 0
        assert out.read_bytes() == b"y1\r\n"

    def test_non_finite_design_exits_2(self, fit_assets, tmp_path):
        # He_k(1e200) overflows for every k >= 2, and the model has such terms in x1
        assert max(index[0] for index in load_model(fit_assets["model"]).basis) >= 2
        far = tmp_path / "far.csv"
        write_data_csv(far, np.array([[0.5, -0.5], [1e200, 0.0]]), np.zeros((2, 1)))
        out = tmp_path / "preds.csv"
        proc = run_cli("predict", "--model", fit_assets["model"], "--data", far, "--out", out)
        assert proc.returncode == 2, proc.stderr
        payload = last_json_line(proc)
        assert payload["kind"] == "data error"
        assert "is not finite at input row 1" in payload["error"]
        assert proc.stderr == f"mvsapce: data error: {payload['error']}\n"
        assert not out.exists()


def _malformed_models():
    valid = {
        "format_version": 1,
        "spec": [{"kind": "normal", "params": [0.0, 1.0]}] * 2,
        "basis": [[0, 0], [1, 0]],
        "coefficients": [[1.0], [2.0]],
        "diagnostics": {
            "condition_number": 1.0, "iterations": 1, "pruned_count": 0, "max_total_degree": 1,
            "max_univariate_degree": 1, "basis_size": 2, "termination": "fixed",
        },
    }
    ragged = dict(valid, coefficients=[[1.0], [2.0, 3.0]])
    bad_diagnostics = dict(valid, diagnostics=dict(valid["diagnostics"], iterations="abc"))
    all_nan = dict(valid, coefficients=[[float("nan")], [float("nan")]])
    return {"ragged": ragged, "array": [valid], "diagnostics": bad_diagnostics, "nan": all_nan}


class TestMalformedModel:
    @pytest.mark.parametrize("name", sorted(_malformed_models()))
    def test_predict_exits_2(self, fit_assets, tmp_path, name):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(_malformed_models()[name]))
        proc = run_cli("predict", "--model", path, "--data", fit_assets["data"], "--out", tmp_path / "o.csv")
        assert proc.returncode == 2, proc.stderr
        payload = last_json_line(proc)
        assert payload["status"] == "error" and payload["kind"] == "data error"


class TestUq:
    def test_writes_three_reports(self, fit_assets, tmp_path):
        prefix = tmp_path / "run_"
        proc = run_cli("uq", "--model", fit_assets["model"], "--out-prefix", prefix)
        assert proc.returncode == 0
        for name in ("moments", "sobol", "generalized"):
            assert (tmp_path / f"run_{name}.csv").exists()

    def test_single_output_generalized_equals_sobol(self, fit_assets, tmp_path):
        prefix = tmp_path / "s_"
        run_cli("uq", "--model", fit_assets["model"], "--out-prefix", prefix)
        with (tmp_path / "s_sobol.csv").open() as handle:
            sobol = list(csv.DictReader(handle))
        with (tmp_path / "s_generalized.csv").open() as handle:
            gen = list(csv.DictReader(handle))
        for s_row, g_row in zip(sobol, gen):
            assert float(s_row["first_y1"]) == pytest.approx(float(g_row["generalized_first"]), abs=1e-14)
            assert float(s_row["total_y1"]) == pytest.approx(float(g_row["generalized_total"]), abs=1e-14)

    def test_mean_only_model_masks_everything(self, tmp_path):
        spec = DistributionSpec.of([Marginal.normal(0.0, 1.0)] * 2)
        model = build_model(spec, [(0, 0)], [[4.0, -1.0]])
        path = tmp_path / "mean_only.json"
        save_model(model, path)
        proc = run_cli("uq", "--model", path, "--out-prefix", tmp_path / "m_")
        assert proc.returncode == 0
        payload = last_json_line(proc)
        assert payload["zero_variance_outputs"] == 2
        assert payload["generalized_defined"] is False
        with (tmp_path / "m_moments.csv").open() as handle:
            rows = list(csv.DictReader(handle))
        assert all(row["zero_variance"] == "1" for row in rows)
        assert all(float(row["variance"]) == 0.0 for row in rows)


class TestBenchmarkCommands:
    def test_seeds_flag_is_required(self, tmp_path):
        proc = run_cli("compare", "--Q", "30", "--M", 6, "--methods", "mvsa", "--out-dir", tmp_path)
        assert proc.returncode == 3

    def test_small_run_produces_report_files(self, tmp_path):
        proc = run_cli(
            "compare", "--Q", "30", "--M", 6, "--seeds", "0,1", "--methods", "mvsa",
            "--test-size", 40, "--mcs-samples", 600, "--out-dir", tmp_path / "out",
        )
        assert proc.returncode == 0, proc.stderr
        payload = last_json_line(proc)
        assert payload["failures"] == 0
        for name in ("rmse", "moments", "timing", "degrees", "summary"):
            assert payload["files"][name].startswith(str(tmp_path / "out"))
        summary = json.loads(open(payload["files"]["summary"]).read())
        assert list(summary["aggregates"].keys()) == ["mvsa"]

    def test_td_only_run_is_valid(self, tmp_path):
        proc = run_cli(
            "compare", "--Q", "25", "--M", 5, "--seeds", "2",
            "--methods", "td:2", "--test-size", 30, "--mcs-samples", 400,
            "--out-dir", tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        summary = json.loads(open(last_json_line(proc)["files"]["summary"]).read())
        assert set(summary["aggregates"]) == {"td:2"}
        assert summary["failures"] == []

    @pytest.mark.parametrize(
        "flag, value",
        [("--kappa", "0.5"), ("--kappa", "inf"), ("--seeds", "-1"), ("--methods", ""), ("--mcs-seed", "-1")],
        ids=["kappa", "infinite-kappa", "negative-seed", "no-methods", "negative-mcs-seed"],
    )
    def test_invalid_compare_plan_exits_3(self, tmp_path, flag, value):
        plan = {"--seeds": "0", "--methods": "mvsa", flag: value}
        proc = run_cli(
            "compare", "--Q", "25", "--M", 5, "--test-size", 30, "--mcs-samples", 400,
            "--out-dir", tmp_path, *[part for item in plan.items() for part in item],
        )
        assert proc.returncode == 3, proc.stderr
        assert last_json_line(proc)["kind"] == "configuration error"

    def test_compare_defaults_include_td_baselines(self, tmp_path):
        proc = run_cli(
            "compare", "--Q", "25", "--M", 5, "--seeds", "3",
            "--test-size", 30, "--mcs-samples", 400, "--out-dir", tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        summary = json.loads(open(last_json_line(proc)["files"]["summary"]).read())
        assert set(summary["aggregates"]) == {"mvsa", "td:2", "td:3"}

    def test_repeat_runs_are_byte_identical_except_timing(self, tmp_path):
        args = (
            "compare", "--Q", "30", "--M", 6, "--seeds", "0,1", "--methods", "mvsa",
            "--test-size", 40, "--mcs-samples", 600,
        )
        first = run_cli(*args, "--out-dir", tmp_path / "a")
        second = run_cli(*args, "--out-dir", tmp_path / "b")
        assert first.returncode == 0 and second.returncode == 0
        files_a = last_json_line(first)["files"]
        files_b = last_json_line(second)["files"]
        for name in ("rmse", "moments", "degrees", "summary"):
            with open(files_a[name], "rb") as fa, open(files_b[name], "rb") as fb:
                assert fa.read() == fb.read(), name


class TestBeamData:
    def test_files_match_library_draws(self, tmp_path):
        proc = run_cli(
            "beam-data", "--M", 4, "--train-size", 20, "--test-size", 10, "--seed", 5,
            "--prefix", tmp_path / "cli" / "b_",
        )
        assert proc.returncode == 0, proc.stderr
        payload = last_json_line(proc)
        assert payload["status"] == "ok" and payload["inputs"] == 20 and payload["outputs"] == 4
        config = BeamConfig(response_dim=4)
        train, test = beam_samples(config, 20, 10, 5)
        for name, data in (("train.csv", train), ("test.csv", test)):
            write_data_csv(tmp_path / name, data.inputs, data.responses)
            assert (tmp_path / "cli" / f"b_{name}").read_bytes() == (tmp_path / name).read_bytes()
        dist = json.loads((tmp_path / "cli" / "b_dist.json").read_text())
        assert dist == config.distribution_spec().to_json()
        assert payload["files"]["dist.json"] == str(tmp_path / "cli" / "b_dist.json")

    @pytest.mark.parametrize(
        "flag, value, message",
        [("--M", 0, "response_dim"), ("--train-size", 0, "sample size"), ("--seed", -1, "seed")],
        ids=["no-outputs", "no-rows", "negative-seed"],
    )
    def test_invalid_flags_exit_3(self, tmp_path, flag, value, message):
        flags = {"--seed": 0, "--M": 3, "--test-size": 5, flag: value}
        proc = run_cli(
            "beam-data", "--prefix", tmp_path / "b_", *[part for item in flags.items() for part in item]
        )
        assert proc.returncode == 3, proc.stderr
        assert last_json_line(proc)["kind"] == "configuration error"
        assert message in proc.stderr and not list(tmp_path.iterdir())

    def test_fit_on_beam_data_matches_compare_cell(self, tmp_path):
        # Both paths draw a cell's data through beam_samples, so fitting the
        # CLI files reproduces the experiment's adaptive fit and test RMSE.
        prefix = tmp_path / "b_"
        proc = run_cli("beam-data", "--M", 10, "--train-size", 50, "--test-size", 30, "--seed", 3, "--prefix", prefix)
        assert proc.returncode == 0, proc.stderr
        model_path = tmp_path / "model.json"
        proc = run_cli(
            "fit", "--data", f"{prefix}train.csv", "--inputs", 20, "--outputs", 10,
            "--dist", f"{prefix}dist.json", "--out", model_path,
        )
        assert proc.returncode == 0, proc.stderr
        model = load_model(model_path)
        test = load_data_csv(f"{prefix}test.csv", 20, 10)

        plan = ExperimentPlan(training_sizes=(50,), test_size=30, seeds=(3,), methods=("mvsa",), mcs_samples=100)
        (cell,) = run_beam_experiment(BeamConfig(response_dim=10), plan).cells
        assert cell.ok
        assert cell.diagnostics == model.diagnostics
        np.testing.assert_array_equal(cell.rmse, rmse(predict(model, test.inputs), test.responses))
