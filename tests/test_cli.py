import csv
import json
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest

from mvsapce.benchmark import BeamConfig, ExperimentPlan, beam_rows, run_beam_experiment
from mvsapce.errors import ConfigError
from mvsapce.multi_index import parse_total_degree, total_degree_set
from mvsapce.mvsa_engine import FitDiagnostics, load_model, predict, save_model
from mvsapce.polynomial_basis import DistributionSpec, Marginal
from mvsapce.regression import load_data_csv, rmse, write_data_csv

from conftest import build_model, refuses_huge_allocations


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
    spec = DistributionSpec([Marginal.normal(0.0, 1.0), Marginal.normal(0.0, 1.0)])
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
        assert last_json_line(proc)["error"] == "term (2, 0) is not finite at input row 6"
        assert proc.stderr == "mvsapce: data error: term (2, 0) is not finite at input row 6\n"

    @pytest.mark.parametrize(
        "scale, outputs, message",
        [
            (1e300, 5, "sensitivity indicator of term (0, 0, 0) is not finite"),
            (1e300, 60, "sensitivity indicator of term (0, 0, 0) is not finite"),
            (1e307, 1000, "the Q x Q factor of the responses is not finite: their row norms overflow"),
        ],
        ids=["M<=Q", "M>Q", "M>Q-factor"],
    )
    def test_overflowing_responses_exit_2(self, tmp_path, scale, outputs, message):
        # Finite responses near 1e300 give coefficients whose squares
        # overflow; near 1e307 the row norms over 1000 outputs overflow too.
        rng = np.random.default_rng(26)
        x = rng.uniform(-1.0, 1.0, (40, 3))
        y = scale * (1.0 + 0.5 * x[:, :1] + 0.1 * rng.normal(size=(40, outputs)))
        data, dist = tmp_path / "huge.csv", tmp_path / "dist.json"
        write_data_csv(data, x, y)
        dist.write_text(json.dumps(DistributionSpec([Marginal.uniform(-1.0, 1.0)] * 3).to_json()))
        proc = run_cli(
            "fit", "--data", data, "--inputs", 3, "--outputs", outputs,
            "--dist", dist, "--out", tmp_path / "m.json",
        )
        assert proc.returncode == 2, proc.stderr
        assert last_json_line(proc)["error"] == message
        assert proc.stderr == f"mvsapce: data error: {message}\n"
        assert not (tmp_path / "m.json").exists()

    def test_oversized_td_init_exits_3_without_enumerating(self, tmp_path, monkeypatch, capsys):
        from mvsapce import cli, mvsa_engine

        prefix = f"{tmp_path}/"
        assert cli.main(["beam-data", "--M", "10", "--seed", "0", "--test-size", "1", "--prefix", prefix]) == 0

        def enumeration_forbidden(*args):
            raise AssertionError("total_degree_set was called")

        # td:8 in 20 inputs has C(28, 8) = 3,108,105 members
        monkeypatch.setattr(mvsa_engine, "total_degree_set", enumeration_forbidden)
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
        "entry",
        [
            {"kind": "normal", "params": [0, "abc"]},
            {"kind": "normal", "params": [0, None]},
            {"kind": "normal", "params": 5},
            {"kind": "gamma", "params": [0, 1]},
            {"kind": "normal", "params": [0, -1]},
            {"kind": "uniform", "params": [1, 1]},
            {"kind": "normal", "params": [0, 1, 2]},
            ["normal", [0, 1]],
            {"kind": "normal", "params": "12"},
            {"kind": "normal", "params": {"0": 0, "1": 1}},
            {"kind": "lognormal", "params": [True, 1]},
            {"kind": "normal", "params": ["0.1_5", 0.0075]},
            {"kind": "lognormal", "params": [1e4, 1e308]},
            {"kind": "lognormal", "params": [1.0, 5e-324]},
        ],
        ids=["non-numeric", "null", "not-a-list", "unknown-kind", "negative-std", "uniform-bounds",
             "three-params", "not-an-object", "string-params", "object-params", "boolean-params", "quoted-number",
             "lognormal-ratio-overflows", "lognormal-sigma-underflows"],
    )
    def test_malformed_dist_params_exit_2(self, fit_assets, tmp_path, entry):
        dist = tmp_path / "dist.json"
        dist.write_text(json.dumps([{"kind": "normal", "params": [0, 1]}, entry]))
        proc = run_cli(
            "fit", "--data", fit_assets["data"], "--inputs", 2, "--outputs", 1,
            "--dist", dist, "--out", tmp_path / "m.json",
        )
        assert proc.returncode == 2, proc.stderr
        payload = last_json_line(proc)
        assert payload["kind"] == "data error"
        assert payload["error"].startswith("distribution spec entry 1 ")
        assert len(proc.stderr.splitlines()) == 1
        assert not (tmp_path / "m.json").exists()

    def test_header_only_data_exits_2(self, fit_assets, tmp_path):
        data = tmp_path / "empty.csv"
        data.write_text("x1,x2,y1\n")
        proc = run_cli(
            "fit", "--data", data, "--inputs", 2, "--outputs", 1,
            "--dist", fit_assets["dist"], "--out", tmp_path / "m.json",
        )
        assert proc.returncode == 2, proc.stderr
        assert last_json_line(proc)["error"] == "training data must contain at least one row"
        assert not (tmp_path / "m.json").exists()


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
        # and writes nothing to stderr: no loadtxt warning about an empty body
        empty = tmp_path / "empty.csv"
        out = tmp_path / "out.csv"
        for text in [b"x1,x2\n", b"x1,x2\r\n"]:
            empty.write_bytes(text)
            proc = run_cli("predict", "--model", fit_assets["model"], "--data", empty, "--out", out)
            assert proc.returncode == 0
            assert out.read_bytes() == b"y1\r\n"
            assert proc.stderr == ""

    @pytest.mark.parametrize(
        "text, message",
        [
            ("x1,z2\n0.5,0.5\n", "expected header x1,x2 (2 inputs, 0 outputs), got x1,z2"),
            ("x1,x2\n0.5\n", "row 1 has 1 fields, expected 2"),
            ("x1,x2\n0.5,abc\n", "row 1: could not convert"),
            ("", "expected header x1,x2 (2 inputs, 0 outputs), got "),
            ('"x1",x2\n0.5,0.5\n', 'expected header x1,x2 (2 inputs, 0 outputs), got "x1",x2'),
        ],
        ids=["bad-header", "ragged-row", "non-numeric", "empty-file", "quoted-header"],
    )
    def test_malformed_data_exits_2(self, fit_assets, tmp_path, text, message):
        data = tmp_path / "bad.csv"
        data.write_text(text)
        out = tmp_path / "o.csv"
        proc = run_cli("predict", "--model", fit_assets["model"], "--data", data, "--out", out)
        assert proc.returncode == 2, proc.stderr
        payload = last_json_line(proc)
        assert payload["kind"] == "data error" and message in payload["error"]
        assert not out.exists()

    def test_parse_and_domain_faults_in_first_data_row_say_row_1(self, fit_assets, tmp_path):
        data = tmp_path / "first.csv"
        out = tmp_path / "o.csv"
        errors = []
        for field in ["abc", "inf"]:
            data.write_text(f"x1,x2\n{field},0.5\n0.1,0.2\n")
            proc = run_cli("predict", "--model", fit_assets["model"], "--data", data, "--out", out)
            assert proc.returncode == 2, proc.stderr
            errors.append(last_json_line(proc)["error"])
        assert errors == [
            f"{data}: row 1: could not convert string to float: 'abc'",
            "row 1, x1: non-finite value for normal marginal",
        ]
        assert not out.exists()

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
        assert "is not finite at input row 2" in payload["error"]
        assert proc.stderr == f"mvsapce: data error: {payload['error']}\n"
        assert not out.exists()

    def test_overflowing_prediction_exits_2(self, fit_assets, tmp_path):
        # The design column x1 = 1e300 is finite; its product with 1e10 is not.
        model = tmp_path / "model.json"
        save_model(build_model(fit_assets["spec"], [(0, 0), (1, 0)], [0.0, 1e10]), model)
        far = tmp_path / "far.csv"
        write_data_csv(far, np.array([[0.5, -0.5], [1e300, 0.0]]), np.zeros((2, 1)))
        out = tmp_path / "preds.csv"
        proc = run_cli("predict", "--model", model, "--data", far, "--out", out)
        assert proc.returncode == 2, proc.stderr
        assert last_json_line(proc)["error"] == "prediction is not finite at input row 2"
        assert proc.stderr == "mvsapce: data error: prediction is not finite at input row 2\n"
        assert not out.exists()


def _valid_model():
    return {
        "format_version": 1,
        "spec": [{"kind": "normal", "params": [0.0, 1.0]}] * 2,
        "basis": [[0, 0], [1, 0]],
        "coefficients": [[1.0], [2.0]],
        "diagnostics": {
            "condition_number": 1.0, "iterations": 1, "pruned_count": 0, "max_total_degree": 1,
            "max_univariate_degree": 1, "basis_size": 2, "termination": "fixed",
        },
    }


def _malformed_models():
    valid = _valid_model()
    normal = valid["spec"][0]

    def with_spec(entry):
        return dict(valid, spec=[normal, entry])

    def with_basis(entry):
        return dict(valid, basis=[[0, 0], entry])

    def with_diagnostics(**changes):
        return dict(valid, diagnostics=dict(valid["diagnostics"], **changes))

    return {
        "ragged": dict(valid, coefficients=[[1.0], [2.0, 3.0]]),
        "string-coefficients": dict(valid, coefficients=[["a"], ["b"]]),
        "huge-int-coefficient": dict(valid, coefficients=[[10**400], [1.0]]),
        "array": [valid],
        "diagnostics": with_diagnostics(iterations="abc"),
        "nan": dict(valid, coefficients=[[float("nan")], [float("nan")]]),
        "unknown-kind": with_spec({"kind": "gamma", "params": [0.0, 1.0]}),
        "negative-std": with_spec({"kind": "normal", "params": [0.0, -1.0]}),
        "uniform-bounds": with_spec({"kind": "uniform", "params": [1.0, 1.0]}),
        "string-params": with_spec({"kind": "normal", "params": "12"}),
        "float-entry": with_basis([1.7, 0]),
        "string-entry": with_basis(["1", 0]),
        "basis-size": with_diagnostics(basis_size=999),
        "float-iterations": with_diagnostics(iterations=2.7),
        "int-termination": with_diagnostics(termination=5),
        # JSON true and false are not numbers, though Python reads them as 1 and 0.
        "true-version": dict(valid, format_version=True),
        "true-params": with_spec({"kind": "normal", "params": [True, 1.0]}),
        "true-entry": with_basis([True, 0]),
        "true-coefficient": dict(valid, coefficients=[[1.0], [True]]),
        "true-pruned-count": with_diagnostics(pruned_count=True),
        "false-condition-number": with_diagnostics(condition_number=False),
        "degree-31": dict(
            with_basis([31, 0]), diagnostics=dict(valid["diagnostics"], max_total_degree=31, max_univariate_degree=31)
        ),
    }


class TestMalformedModel:
    def _run(self, fit_assets, tmp_path, command, payload):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(payload))
        if command == "predict":
            return run_cli("predict", "--model", path, "--data", fit_assets["data"], "--out", tmp_path / "out_.csv")
        return run_cli("uq", "--model", path, "--out-prefix", tmp_path / "out_")

    def _assert_data_error(self, proc, tmp_path):
        assert proc.returncode == 2, proc.stderr
        payload = last_json_line(proc)
        assert payload["status"] == "error" and payload["kind"] == "data error"
        assert len(proc.stderr.splitlines()) == 1
        assert list(tmp_path.glob("out_*")) == []

    @pytest.mark.parametrize("command", ["predict", "uq"])
    def test_valid_payload_exits_0(self, fit_assets, tmp_path, command):
        proc = self._run(fit_assets, tmp_path, command, _valid_model())
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""

    @pytest.mark.parametrize("name", sorted(_malformed_models()))
    def test_predict_exits_2(self, fit_assets, tmp_path, name):
        proc = self._run(fit_assets, tmp_path, "predict", _malformed_models()[name])
        self._assert_data_error(proc, tmp_path)

    @pytest.mark.parametrize("name", sorted(_malformed_models()))
    def test_uq_exits_2(self, fit_assets, tmp_path, name):
        proc = self._run(fit_assets, tmp_path, "uq", _malformed_models()[name])
        self._assert_data_error(proc, tmp_path)


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
        spec = DistributionSpec([Marginal.normal(0.0, 1.0)] * 2)
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

    @pytest.mark.parametrize(
        "dim, degree, outputs, value, message",
        [
            (2, 1, 1, 1e300, "variance of output 1 is not finite"),
            (3, 2, 1000, 3e152, "variance summed over all outputs is not finite"),
        ],
        ids=["output", "summed"],
    )
    def test_overflowing_variance_exits_2(self, tmp_path, dim, degree, outputs, value, message):
        basis = total_degree_set(dim, degree)
        path = tmp_path / "huge.json"
        spec = DistributionSpec([Marginal.normal(0.0, 1.0)] * dim)
        save_model(build_model(spec, basis, np.full((len(basis), outputs), value)), path)
        proc = run_cli("uq", "--model", path, "--out-prefix", tmp_path / "out_")
        assert proc.returncode == 2, proc.stderr
        assert last_json_line(proc)["error"] == message
        assert proc.stderr == f"mvsapce: data error: {message}\n"
        assert list(tmp_path.glob("out_*")) == []

    def test_model_with_overflowing_variance_still_predicts(self, fit_assets, tmp_path):
        path = tmp_path / "huge.json"
        save_model(build_model(fit_assets["spec"], total_degree_set(2, 1), np.full((3, 1), 1e300)), path)
        out = tmp_path / "preds.csv"
        proc = run_cli("predict", "--model", path, "--data", fit_assets["data"], "--out", out)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        assert np.isfinite(np.loadtxt(out, delimiter=",", skiprows=1)).all()


class TestBenchmarkCommands:
    def test_td_above_degree_cap_exits_3_before_sampling(self, tmp_path, monkeypatch, capsys):
        from mvsapce import benchmark, cli

        def sampling_forbidden(*args, **kwargs):
            raise AssertionError("monte_carlo_reference was called")

        monkeypatch.setattr(benchmark, "monte_carlo_reference", sampling_forbidden)
        code = cli.main([
            "compare", "--Q", "30", "--seeds", "0", "--methods", "mvsa,td:31", "--out-dir", f"{tmp_path}/td31",
        ])
        assert code == 3
        payload = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert payload["kind"] == "configuration error"
        assert payload["error"] == "total degree must lie in 0..30, got 31"
        assert list(tmp_path.iterdir()) == []

    def test_td_whose_design_cannot_be_held_exits_3_before_sampling(self, tmp_path, monkeypatch, capsys):
        # td:30 in 20 inputs is within the degree cap but has C(50, 30), about 4.7e13, terms: no 30-row design of
        # that many columns can be allocated, so the method is refused before its set is enumerated.  td:2 and
        # td:3 at N = 20 still run (test_compare_defaults_include_td_baselines).
        from mvsapce import benchmark, cli

        def forbidden(*args, **kwargs):
            raise AssertionError("the reference was drawn or the set enumerated")

        monkeypatch.setattr(benchmark, "monte_carlo_reference", forbidden)
        monkeypatch.setattr(benchmark, "total_degree_set", forbidden)
        code = cli.main([
            "compare", "--Q", "30", "--M", "3", "--seeds", "0", "--test-size", "10", "--mcs-samples", "200",
            "--methods", "mvsa,td:30", "--out-dir", f"{tmp_path}/td30",
        ])
        assert code == 3
        captured = capsys.readouterr()
        assert len(captured.err.splitlines()) == 1
        payload = json.loads(captured.out.splitlines()[-1])
        assert payload["kind"] == "configuration error"
        k = 47129212243960
        assert payload["error"] == f"td:30 has {k} terms in 20 inputs: its 30 x {k} design is too large"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("count", ["100000000000000", "9223372036854775807"])
    def test_dummy_count_whose_spec_cannot_be_held_exits_3(self, tmp_path, capsys, count):
        # The spec's list of 1e14 marginals cannot be allocated: a configuration error naming the count.
        from mvsapce import cli

        code = cli.main(["compare", "--Q", "30", "--M", "3", "--seeds", "0", "--test-size", "10",
                         "--mcs-samples", "200", "--methods", "mvsa", "--dummy-count", count,
                         "--out-dir", f"{tmp_path}/dummies"])
        captured = capsys.readouterr()
        assert code == 3 and len(captured.err.splitlines()) == 1
        assert json.loads(captured.out.splitlines()[-1])["error"] == f"{count} dummy inputs are too many to hold"
        assert list(tmp_path.iterdir()) == []

    def test_a_thousand_dummy_inputs_fit(self, tmp_path, capsys):
        # 1005 inputs: every fit enumerates its initial total-degree set, one level per input when that
        # recursed, past Python's recursion limit.  Ten rows keep the prune of the 1006-term extended set short.
        from mvsapce import cli

        config = BeamConfig(response_dim=2, dummy_count=1000)
        data = beam_rows(config, 10, 0, test=False)
        write_data_csv(tmp_path / "train.csv", data.inputs, data.responses)
        (tmp_path / "dist.json").write_text(json.dumps(config.distribution_spec().to_json()))
        code = cli.main(["fit", "--data", f"{tmp_path}/train.csv", "--inputs", "1005", "--outputs", "2",
                         "--dist", f"{tmp_path}/dist.json", "--out", f"{tmp_path}/model.json"])
        assert (code, capsys.readouterr().err) == (0, "")
        assert load_model(tmp_path / "model.json").spec.dim == 1005

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
        "flag, value, rule",
        [
            ("--kappa", "0.5", "kappa"), ("--kappa", "inf", "kappa"), ("--seeds", "-1", "seeds"),
            ("--methods", "", "methods"), ("--methods", "mvsa,mvsa", "methods"),
            ("--mcs-seed", "-1", "--mcs-seed"), ("--Q", "30,30", "training sizes"),
            ("--Q", "0", "training sizes"),
        ],
        ids=[
            "kappa", "infinite-kappa", "negative-seed", "no-methods", "duplicate-methods",
            "negative-mcs-seed", "duplicate-Q", "zero-Q",
        ],
    )
    def test_invalid_compare_plan_exits_3(self, tmp_path, flag, value, rule):
        plan = {"--Q": "25", "--seeds": "0", "--methods": "mvsa", flag: value}
        proc = run_cli(
            "compare", "--M", 5, "--test-size", 30, "--mcs-samples", 400,
            "--out-dir", tmp_path, *[part for item in plan.items() for part in item],
        )
        assert proc.returncode == 3, proc.stderr
        assert last_json_line(proc)["kind"] == "configuration error"
        assert rule in last_json_line(proc)["error"]
        assert list(tmp_path.iterdir()) == []

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


REFUSED_TOKENS = ["td: 2", "td:+2", "td:2\n", "td:0_2", "td:\u0662", "td:\uff12", "td:", "td:" + "9" * 5000]


class TestTotalDegreeGrammar:
    """td:<p> takes one or more ASCII digits, wherever a token enters."""

    def _exit_code(self, entry, token, fit_assets, tmp_path, capsys):
        """The CLI's exit code for ``token`` at ``entry``; 3 (ConfigError) or 0 for the library entry points."""
        from mvsapce import cli

        if entry in ("parse_total_degree", "ExperimentPlan"):
            try:
                if entry == "parse_total_degree":
                    assert parse_total_degree(token) == int(token[3:])
                else:
                    ExperimentPlan(training_sizes=(25,), methods=("mvsa", token))
            except ConfigError:
                return 3
            return 0
        if entry == "fit --init":
            argv = [
                "fit", "--data", fit_assets["data"], "--inputs", 2, "--outputs", 1,
                "--dist", fit_assets["dist"], "--out", tmp_path / "m.json", "--init", token,
            ]
        else:
            argv = [
                "compare", "--Q", 25, "--M", 5, "--seeds", 0, "--test-size", 30, "--mcs-samples", 400,
                "--methods", token, "--out-dir", tmp_path / "cmp",
            ]
        code = cli.main([str(arg) for arg in argv])
        stderr = capsys.readouterr().err
        assert len(stderr.splitlines()) == (1 if code else 0), stderr
        return code

    @pytest.mark.parametrize("entry", ["parse_total_degree", "ExperimentPlan", "fit --init", "compare --methods"])
    @pytest.mark.parametrize(
        "token, code",
        [(token, 3) for token in REFUSED_TOKENS] + [("td:0", 0), ("td:2", 0), ("td:02", 0)],
        ids=["space", "plus", "newline", "underscore", "arabic-indic", "fullwidth", "empty", "5000-digits",
             "td0", "td2", "td02"],
    )
    def test_token(self, fit_assets, tmp_path, capsys, entry, token, code):
        assert self._exit_code(entry, token, fit_assets, tmp_path, capsys) == code
        assert (tmp_path / "m.json").exists() == (code == 0 and entry == "fit --init")
        assert (tmp_path / "cmp").exists() == (code == 0 and entry == "compare --methods")


REFUSED_COUNTS = ["3_0", " 30", "+30", "\u0663\u0660", "30\n", "-1", "99999999999999999999"]


class TestFlagGrammar:
    """Integer flags take ASCII digits only; --kappa takes what a data field takes."""

    def _run(self, subcommand, flags, fit_assets, tmp_path, capsys):
        """The CLI's exit code and stderr for ``subcommand`` run in-process with valid flags updated by ``flags``."""
        from mvsapce import cli

        valid = {
            "fit": {
                "--data": fit_assets["data"], "--inputs": 2, "--outputs": 1,
                "--dist": fit_assets["dist"], "--out": tmp_path / "m.json",
            },
            "compare": {
                "--Q": 25, "--M": 5, "--seeds": 0, "--test-size": 30, "--mcs-samples": 400,
                "--mcs-seed": 99, "--dummy-count": 1, "--methods": "mvsa", "--out-dir": tmp_path / "cmp",
            },
            "beam-data": {"--M": 3, "--train-size": 5, "--test-size": 5, "--seed": 0, "--prefix": tmp_path / "b_"},
        }[subcommand]
        argv = [subcommand] + [str(part) for item in {**valid, **flags}.items() for part in item]
        code = cli.main(argv)
        return code, capsys.readouterr().err

    @pytest.mark.parametrize(
        "text", REFUSED_COUNTS, ids=["underscore", "space", "plus", "arabic-indic", "newline", "minus", "above-maxsize"]
    )
    @pytest.mark.parametrize(
        "subcommand, flag",
        [("fit", "--inputs"), ("fit", "--outputs")]
        + [
            ("compare", flag)
            for flag in ("--Q", "--M", "--seeds", "--test-size", "--mcs-samples", "--mcs-seed", "--dummy-count")
        ]
        + [("beam-data", flag) for flag in ("--M", "--train-size", "--test-size", "--seed")],
    )
    def test_integer_flag_refuses(self, fit_assets, tmp_path, capsys, subcommand, flag, text):
        code, stderr = self._run(subcommand, {flag: text}, fit_assets, tmp_path, capsys)
        assert code == 3
        assert len(stderr.splitlines()) == 1 and f"argument {flag}: expected ASCII digits" in stderr, stderr
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("text", ["\u0661\u0660\u0660", "1_00"], ids=["arabic-indic", "underscore"])
    @pytest.mark.parametrize("subcommand", ["fit", "compare"])
    def test_kappa_refuses_what_a_data_field_refuses(self, fit_assets, tmp_path, capsys, subcommand, text):
        code, stderr = self._run(subcommand, {"--kappa": text}, fit_assets, tmp_path, capsys)
        assert code == 3
        assert len(stderr.splitlines()) == 1 and "argument --kappa: could not convert" in stderr, stderr
        assert list(tmp_path.iterdir()) == []

    def test_kappa_takes_what_a_data_field_takes(self, fit_assets, tmp_path, capsys):
        code, stderr = self._run("fit", {"--kappa": " 1E2 "}, fit_assets, tmp_path, capsys)
        assert code == 0 and stderr == ""
        assert load_model(tmp_path / "m.json").diagnostics == load_model(fit_assets["model"]).diagnostics


@refuses_huge_allocations
@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["compare", "--Q", 30, "--M", 5, "--seeds", 0, "--test-size", 100000000000, "--mcs-samples", 1000,
             "--methods", "mvsa"],
            "a sample of 100000000000 input rows is too large: ",
        ),
        (
            ["beam-data", "--M", 5, "--seed", 0, "--train-size", 20, "--test-size", 100000000000],
            "a sample of 100000000000 input rows is too large: ",
        ),
        (
            ["beam-data", "--M", 200000000000, "--seed", 0, "--train-size", 1, "--test-size", 1],
            "the 1 x 200000000000 beam response (rows x outputs) is too large: ",
        ),
    ],
    ids=["compare-test-size", "beam-data-test-size", "beam-data-outputs"],
)
def test_unallocatable_size_exits_3(tmp_path, argv, message):
    # Each size asks numpy for more than 1 TiB, which is refused at once.
    out = ["--prefix", tmp_path / "b_"] if argv[0] == "beam-data" else ["--out-dir", tmp_path / "cmp"]
    proc = run_cli(*argv, *out)
    assert proc.returncode == 3, proc.stderr
    assert last_json_line(proc)["kind"] == "configuration error"
    assert proc.stderr.startswith(f"mvsapce: configuration error: {message}")
    assert len(proc.stderr.splitlines()) == 1 and not list(tmp_path.iterdir())


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
        train, test = beam_rows(config, 20, 5, test=False), beam_rows(config, 10, 5, test=True)
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
        # Both paths draw a cell's data through beam_rows, so fitting the
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
