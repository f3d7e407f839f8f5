"""Acceptance gate: every release-blocking criterion at its pinned tolerance.

Each criterion prints one PASS/FAIL line (visible with ``pytest -s`` or on
failure).  The beam protocol runs at full desk scale: 20 inputs, 1000
outputs, training sizes 50/100/150, test size 1000, ten seeds, and a
100k-sample Monte-Carlo moment reference.
"""

import json
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest

import mvsapce as mv
from mvsapce.multi_index import total_degree_set
from mvsapce.polynomial_basis import HERMITE, LEGENDRE
from mvsapce.regression import DesignBuilder, solve_with_condition, write_data_csv

from conftest import build_model, quadrature_gram, tensor_quadrature_gram
from reference import random_downward_closed_truth, replay_expansion

KAPPA = 100.0
TRAINING_SIZES = (50, 100, 150)
SEEDS = tuple(range(10))
TEST_SIZE = 1000
MCS_SAMPLES = 100_000
MCS_SEED = 123456789
EXPECTED_MAX_TOTAL_DEGREE = {50: 3, 100: 4, 150: 5}


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({name}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({name}): PASS")


@pytest.fixture(scope="module")
def beam_runs():
    """Full beam protocol: adaptive fits everywhere, TD p=2 at Q=150."""
    config = mv.BeamConfig(response_dim=1000)
    spec = config.distribution_spec()
    reference = mv.monte_carlo_reference(config.response, spec, MCS_SAMPLES, MCS_SEED)
    runs = {}
    td_max_rmse = {}
    for q in TRAINING_SIZES:
        for seed in SEEDS:
            x_train = mv.sample_inputs(spec, q, [seed, 0])
            x_test = mv.sample_inputs(spec, TEST_SIZE, [seed, 1])
            data = mv.TrainingData(x_train, config.response(x_train))
            y_test = config.response(x_test)
            started = time.perf_counter()
            model = mv.fit_mvsa(data, spec, mv.MvsaConfig(kappa=KAPPA))
            fit_seconds = time.perf_counter() - started
            errors = mv.rmse(mv.predict(model, x_test), y_test)
            runs[(q, seed)] = {
                "model": model,
                "fit_seconds": fit_seconds,
                "max_rmse": float(np.max(errors)),
            }
            if q == 150:
                td_model = mv.fit_fixed(data, spec, total_degree_set(spec.dim, 2))
                td_errors = mv.rmse(mv.predict(td_model, x_test), y_test)
                td_max_rmse[seed] = float(np.max(td_errors))
    return {
        "config": config,
        "spec": spec,
        "reference": reference,
        "runs": runs,
        "td_max_rmse": td_max_rmse,
    }


@pytest.fixture(scope="module")
def recovery_runs(uniform_3d_module):
    """Twenty seeded sparse ground truths with downward-closed supports."""
    spec = uniform_3d_module
    cases = []
    started = time.perf_counter()
    for seed in range(20):
        rng = np.random.default_rng([seed, 101])
        size = int(rng.integers(3, 9))
        support = random_downward_closed_truth(rng, 3, size)
        truth = rng.uniform(0.5, 2.0, (size, 2)) * rng.choice([-1.0, 1.0], (size, 2))
        q = 10 * size
        x_train = mv.sample_inputs(spec, q, [seed, 0])
        x_test = mv.sample_inputs(spec, 200, [seed, 1])
        y_train = DesignBuilder(spec, x_train).matrix(support) @ truth
        y_test = DesignBuilder(spec, x_test).matrix(support) @ truth
        model = mv.fit_mvsa(
            mv.TrainingData(x_train, y_train), spec, mv.MvsaConfig(kappa=KAPPA)
        )
        test_rmse = mv.rmse(mv.predict(model, x_test), y_test)
        cases.append(
            {
                "seed": seed,
                "support": support,
                "truth": truth,
                "q": q,
                "model": model,
                "max_test_rmse": float(np.max(test_rmse)),
            }
        )
    return {"cases": cases, "elapsed": time.perf_counter() - started}


@pytest.fixture(scope="module")
def uniform_3d_module():
    return mv.DistributionSpec([mv.Marginal.uniform(-1.0, 1.0)] * 3)


def test_criterion_1_orthonormality():
    with criterion(1, "orthonormality suite"):
        started = time.perf_counter()
        for family in (HERMITE, LEGENDRE):
            gram = quadrature_gram(family, max_degree=10, n_nodes=16)
            assert np.max(np.abs(gram - np.eye(11))) < 1e-10
        for families in (
            (HERMITE, HERMITE),
            (LEGENDRE, LEGENDRE, LEGENDRE),
            (HERMITE, LEGENDRE, HERMITE),
        ):
            indices = total_degree_set(len(families), 6).indices
            gram = tensor_quadrature_gram(families, indices, n_nodes=8)
            assert np.max(np.abs(gram - np.eye(len(indices)))) < 1e-9
        assert time.perf_counter() - started < 1.0


def test_criterion_2_oracle_recovery(recovery_runs):
    with criterion(2, "oracle recovery"):
        assert recovery_runs["elapsed"] < 10.0
        for case in recovery_runs["cases"]:
            model = case["model"]
            positions = {k: i for i, k in enumerate(model.basis.indices)}
            support = set(case["support"].indices)
            for row, index in enumerate(case["support"].indices):
                assert index in positions, (case["seed"], index)
                fitted = model.coefficients[positions[index]]
                assert np.max(np.abs(fitted - case["truth"][row])) < 1e-8
            for index, position in positions.items():
                if index not in support:
                    assert np.max(np.abs(model.coefficients[position])) < 1e-8
            assert case["max_test_rmse"] < 1e-8


def test_criterion_3_beam_protocol(beam_runs):
    with criterion(3, "beam benchmark vs total-degree and reference"):
        # (a) accuracy floor: two orders of magnitude below TD p=2
        mvsa_mean = np.mean([beam_runs["runs"][(150, s)]["max_rmse"] for s in SEEDS])
        td_mean = np.mean([beam_runs["td_max_rmse"][s] for s in SEEDS])
        assert td_mean >= 100.0 * mvsa_mean
        # (b) moment estimates against the 100k-sample reference
        reference = beam_runs["reference"]
        for seed in SEEDS:
            model = beam_runs["runs"][(150, seed)]["model"]
            report = mv.moments(model)
            mean_err = np.max(np.abs(report.mean - reference.mean) / np.abs(reference.mean))
            std_err = np.max(np.abs(report.std - reference.std) / np.abs(reference.std))
            assert mean_err < 0.005, (seed, mean_err)
            assert std_err < 0.05, (seed, std_err)
        # (c) basis degrees follow the expected growth, within one degree
        for q in TRAINING_SIZES:
            for seed in SEEDS:
                degree = beam_runs["runs"][(q, seed)]["model"].diagnostics.max_total_degree
                assert abs(degree - EXPECTED_MAX_TOTAL_DEGREE[q]) <= 1, (q, seed, degree)


def test_criterion_4_dummy_inputs_are_inert(beam_runs):
    with criterion(4, "dummy-input generalized totals"):
        for seed in SEEDS:
            model = beam_runs["runs"][(150, seed)]["model"]
            _, gen_total = mv.generalized_sobol(model)
            assert np.max(gen_total[5:]) < 1e-6, (seed, float(np.max(gen_total[5:])))


def test_criterion_5_termination_guarantees(beam_runs, recovery_runs):
    with criterion(5, "termination guarantees"):
        for (q, seed), run in beam_runs["runs"].items():
            model = run["model"]
            assert len(model.basis) <= q
            assert model.diagnostics.condition_number <= KAPPA
            replay_expansion(model.trace)
        for case in recovery_runs["cases"]:
            model = case["model"]
            assert len(model.basis) <= case["q"]
            assert model.diagnostics.condition_number <= KAPPA
            replay_expansion(model.trace)


def test_criterion_6_consistency_identities():
    with criterion(6, "consistency identities"):
        spec3 = mv.DistributionSpec([mv.Marginal.normal(0.0, 1.0)] * 3)
        basis = total_degree_set(3, 3)
        rng = np.random.default_rng(2718)
        # single-output generalized indices coincide with Sobol indices
        scalar_model = build_model(spec3, basis, rng.normal(size=(len(basis), 1)))
        first, total = mv.sobol_indices(scalar_model)
        gen_first, gen_total = mv.generalized_sobol(scalar_model)
        assert np.max(np.abs(gen_first - first[:, 0])) <= 1e-14
        assert np.max(np.abs(gen_total - total[:, 0])) <= 1e-14
        # variance-weighted-average identity for vector outputs
        vector_model = build_model(spec3, basis, rng.normal(size=(len(basis), 6)))
        report = mv.moments(vector_model)
        first, total = mv.sobol_indices(vector_model)
        gen_first, gen_total = mv.generalized_sobol(vector_model)
        aggregated = report.variance.sum()
        assert np.max(np.abs(gen_first * aggregated - first @ report.variance)) <= 1e-12 * aggregated
        assert np.max(np.abs(gen_total * aggregated - total @ report.variance)) <= 1e-12 * aggregated
        # joint multi-column solve equals column-wise solves
        design = rng.normal(size=(50, 12))
        rhs = rng.normal(size=(50, 5))
        joint, _ = solve_with_condition(design, rhs)
        for m in range(rhs.shape[1]):
            single, _ = solve_with_condition(design, rhs[:, m])
            assert np.max(np.abs(joint[:, m] - single)) <= 1e-12


def test_criterion_7_fit_performance(beam_runs):
    with criterion(7, "adaptive fit wall-clock bound"):
        worst = max(beam_runs["runs"][(150, s)]["fit_seconds"] for s in SEEDS)
        assert worst < 10.0, worst


def _run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "mvsapce.cli", *map(str, args)],
        capture_output=True,
        text=True,
    )


def test_criterion_8_byte_identical_reports(tmp_path):
    with criterion(8, "byte-identical reruns"):
        # benchmark reports (timing.csv is the one wall-clock artifact and
        # is excluded from the byte-identity contract)
        args = (
            "compare", "--Q", "40", "--M", 30, "--seeds", "0,1",
            "--test-size", 100, "--mcs-samples", 2000, "--methods", "mvsa,td:2",
        )
        first = _run_cli(*args, "--out-dir", tmp_path / "a")
        second = _run_cli(*args, "--out-dir", tmp_path / "b")
        assert first.returncode == 0, first.stderr
        assert second.returncode == 0, second.stderr
        files_a = json.loads(first.stdout.strip().splitlines()[-1])["files"]
        files_b = json.loads(second.stdout.strip().splitlines()[-1])["files"]
        for name in ("rmse", "moments", "degrees", "summary"):
            with open(files_a[name], "rb") as fa, open(files_b[name], "rb") as fb:
                assert fa.read() == fb.read(), name
        # fit, predict, and uq artifacts
        spec = mv.DistributionSpec([mv.Marginal.normal(0.0, 1.0)] * 2)
        rng = np.random.default_rng(77)
        x = rng.normal(size=(50, 2))
        y = np.column_stack([np.exp(0.2 * x[:, 0]), x[:, 0] * x[:, 1]])
        data_csv = tmp_path / "data.csv"
        write_data_csv(data_csv, x, y)
        dist = tmp_path / "dist.json"
        dist.write_text(json.dumps(spec.to_json()))
        for label in ("m1", "m2"):
            result = _run_cli(
                "fit", "--data", data_csv, "--inputs", 2, "--outputs", 2,
                "--dist", dist, "--out", tmp_path / f"{label}.json",
            )
            assert result.returncode == 0, result.stderr
            assert _run_cli(
                "predict", "--model", tmp_path / f"{label}.json",
                "--data", data_csv, "--out", tmp_path / f"{label}_pred.csv",
            ).returncode == 0
            assert _run_cli(
                "uq", "--model", tmp_path / f"{label}.json",
                "--out-prefix", tmp_path / f"{label}_",
            ).returncode == 0
        assert (tmp_path / "m1.json").read_bytes() == (tmp_path / "m2.json").read_bytes()
        assert (tmp_path / "m1_pred.csv").read_bytes() == (tmp_path / "m2_pred.csv").read_bytes()
        for name in ("moments", "sobol", "generalized"):
            assert (
                (tmp_path / f"m1_{name}.csv").read_bytes()
                == (tmp_path / f"m2_{name}.csv").read_bytes()
            )
