import json

import numpy as np
import pytest

from mvsapce.benchmark import (
    BeamConfig,
    CellResult,
    ExperimentPlan,
    ExperimentReport,
    beam_deflection_rows,
    plan_hash,
    run_beam_experiment,
    sample_inputs,
    write_experiment_report,
)
from mvsapce.errors import ConfigError, DataError, DomainError
from mvsapce.mvsa_engine import FitDiagnostics
from mvsapce.polynomial_basis import DistributionSpec, Marginal
from mvsapce.uq import MomentReport

NOMINAL = np.array([0.15, 0.3, 5.0, 3e10, 1e4])


class TestBeamDeflection:
    def test_zero_at_supports(self):
        # the grid excludes the supports; evaluating the closed form at
        # l = 0 and l = L directly gives zero deflection
        w, h, length, modulus, load = NOMINAL
        for ell in (0.0, length):
            value = load * ell * (length**3 - 2 * ell**2 * length + ell**3) / (2 * modulus * w * h**3)
            assert value == 0.0

    def test_midpoint_closed_form(self):
        # at l = L/2 the formula reduces to 5 P L^4 / (32 E w h^3)
        w, h, length, modulus, load = NOMINAL
        deflection = beam_deflection_rows([NOMINAL], 999)[0]
        expected = 5.0 * load * length**4 / (32.0 * modulus * w * h**3)
        assert deflection[499] == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(8.0375e-3, rel=1e-4)

    def test_symmetry(self):
        deflection = beam_deflection_rows([NOMINAL], 999)[0]
        assert np.allclose(deflection, deflection[::-1], rtol=1e-12, atol=0.0)

    def test_strictly_positive_inside(self):
        assert np.all(beam_deflection_rows([NOMINAL], 50)[0] > 0.0)

    def test_linear_in_load(self):
        doubled = NOMINAL.copy()
        doubled[4] *= 2.0
        twice, once = beam_deflection_rows([doubled, NOMINAL], 100)
        assert np.array_equal(twice, 2.0 * once)

    def test_inverse_in_youngs_modulus(self):
        doubled = NOMINAL.copy()
        doubled[3] *= 2.0
        half, once = beam_deflection_rows([doubled, NOMINAL], 100)
        assert np.array_equal(half, once / 2.0)

    def test_dummies_are_ignored(self):
        padded = np.concatenate([NOMINAL, [10.0, 12.0, 9.0]])
        assert np.array_equal(beam_deflection_rows([padded], 64), beam_deflection_rows([NOMINAL], 64))

    def test_rows_match_scalar_version(self):
        # each row of a batch equals that row evaluated on its own
        rng = np.random.default_rng(0)
        rows = NOMINAL * rng.uniform(0.9, 1.1, size=(6, 5))
        batch = beam_deflection_rows(rows, 33)
        for q in range(6):
            assert np.array_equal(batch[q], beam_deflection_rows(rows[q:q + 1], 33)[0])

    def test_rejects_nonpositive_parameters(self):
        bad = NOMINAL.copy()
        bad[0] = 0.0
        with pytest.raises(DomainError):
            beam_deflection_rows([bad], 10)
        with pytest.raises(DomainError):
            beam_deflection_rows(np.vstack([NOMINAL, bad]), 10)

    def test_rejects_short_parameter_vector(self):
        with pytest.raises(DataError):
            beam_deflection_rows([[1.0, 2.0]], 10)


class TestBeamConfig:
    def test_distribution_spec_layout(self):
        spec = BeamConfig().distribution_spec()
        assert spec.dim == 20
        assert all(m.kind == "lognormal" for m in spec.marginals)
        assert spec.marginals[0].params == (0.15, 0.0075)
        assert spec.marginals[3].params == (3e10, 4.5e9)
        assert spec.marginals[5].params == (10.0, 1.0)

    def test_dummy_count_controls_dimension(self):
        assert BeamConfig(dummy_count=0).n_inputs == 5
        assert BeamConfig(dummy_count=3).distribution_spec().dim == 8

    def test_validation(self):
        with pytest.raises(ConfigError):
            BeamConfig(response_dim=0)
        with pytest.raises(ConfigError):
            BeamConfig(dummy_count=-1)


class TestSampleInputs:
    def test_deterministic_per_seed(self):
        spec = BeamConfig().distribution_spec()
        a = sample_inputs(spec, 40, seed=5)
        b = sample_inputs(spec, 40, seed=5)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, sample_inputs(spec, 40, seed=6))

    def test_uniform_mean(self):
        spec = DistributionSpec.of([Marginal.uniform(0.0, 1.0)])
        draws = sample_inputs(spec, 10**6, seed=11)
        assert abs(draws.mean() - 0.5) < 2e-3

    def test_lognormal_std(self):
        spec = DistributionSpec.of([Marginal.lognormal(0.15, 0.0075)])
        draws = sample_inputs(spec, 10**6, seed=12)
        assert draws.std(ddof=1) == pytest.approx(0.0075, rel=0.02)

    def test_rejects_empty_sample(self):
        with pytest.raises(ConfigError):
            sample_inputs(BeamConfig().distribution_spec(), 0, seed=0)


class TestExperimentPlan:
    def test_validation(self):
        with pytest.raises(ConfigError):
            ExperimentPlan(training_sizes=())
        with pytest.raises(ConfigError):
            ExperimentPlan(training_sizes=(50,), seeds=(1, 1))
        with pytest.raises(ConfigError):
            ExperimentPlan(training_sizes=(50,), seeds=(1, 2), mcs_seed=2)
        with pytest.raises(ConfigError):
            ExperimentPlan(training_sizes=(50,), methods=("lar",))
        with pytest.raises(ConfigError):
            ExperimentPlan(training_sizes=(50,), methods=("td:x",))

    def test_hash_tracks_content(self):
        config = BeamConfig(response_dim=10)
        a = ExperimentPlan(training_sizes=(30,), seeds=(0,))
        b = ExperimentPlan(training_sizes=(30,), seeds=(1,))
        assert plan_hash(config, a) != plan_hash(config, b)
        assert plan_hash(config, a) == plan_hash(config, a)


@pytest.fixture(scope="module")
def small_report():
    config = BeamConfig(response_dim=10)
    plan = ExperimentPlan(
        training_sizes=(30,),
        test_size=50,
        seeds=(0, 1),
        methods=("mvsa", "td:2"),
        mcs_samples=2000,
    )
    return config, plan, run_beam_experiment(config, plan)


class TestRunBeamExperiment:
    def test_structure(self, small_report):
        config, plan, report = small_report
        assert len(report.cells) == 4
        for cell in report.cells:
            assert cell.ok
            assert cell.rmse.shape == (10,)
            assert cell.mean.shape == (10,)
            assert cell.fit_seconds >= 0.0
        assert report.reference.mean.shape == (10,)

    def test_deterministic_cells(self, small_report):
        config, plan, report = small_report
        rerun = run_beam_experiment(config, plan)
        for a, b in zip(report.cells, rerun.cells):
            assert a.method == b.method and a.seed == b.seed
            assert np.array_equal(a.rmse, b.rmse)
            assert np.array_equal(a.mean, b.mean)
            assert a.diagnostics == b.diagnostics

    def test_adaptive_beats_underdetermined_baseline(self, small_report):
        # td:2 has 231 columns against 30 samples here, exactly the regime
        # where the adaptive basis pays off
        _, _, report = small_report
        mvsa = {c.seed: np.max(c.rmse) for c in report.cells if c.method == "mvsa"}
        td = {c.seed: np.max(c.rmse) for c in report.cells if c.method == "td:2"}
        for seed in mvsa:
            assert mvsa[seed] < td[seed]

    def test_fit_failures_are_recorded(self, monkeypatch):
        import mvsapce.benchmark as bench

        def failing(data, spec, basis):
            raise DataError("synthetic failure")

        # Only the td:1 cell makes a fixed-basis fit.
        monkeypatch.setattr(bench, "fit_fixed", failing)
        config = BeamConfig(response_dim=5)
        plan = ExperimentPlan(
            training_sizes=(20,), test_size=10, seeds=(0,), methods=("mvsa", "td:1"),
            mcs_samples=500,
        )
        report = run_beam_experiment(config, plan)
        failed = [c for c in report.cells if not c.ok]
        assert len(failed) == 1
        assert failed[0].method == "td:1"
        assert "synthetic failure" in failed[0].error
        assert any(c.ok for c in report.cells)


class TestReportFiles:
    def test_files_and_summary(self, small_report, tmp_path):
        config, plan, report = small_report
        files = write_experiment_report(report, tmp_path)
        tag = plan_hash(config, plan)
        assert files["rmse"].endswith(f"rmse_{tag}.csv")
        for name in ("rmse", "moments", "timing", "degrees", "summary"):
            assert (tmp_path / f"{name}_{tag}.{'json' if name == 'summary' else 'csv'}").exists()
        summary = json.loads((tmp_path / f"summary_{tag}.json").read_text())
        assert summary["plan_hash"] == tag
        assert summary["rng_algorithm"] == "pcg64"
        stats = summary["aggregates"]["mvsa"]["30"]
        assert stats["completed_seeds"] == 2
        assert stats["max_rmse"]["min"] <= stats["max_rmse"]["mean"] <= stats["max_rmse"]["max"]
        assert summary["failures"] == []
        # timing stays out of the summary; it is the one wall-clock artifact
        assert "fit_seconds" not in json.dumps(summary)

    def test_report_files_deterministic_except_timing(self, small_report, tmp_path):
        config, plan, report = small_report
        first = write_experiment_report(report, tmp_path / "a")
        rerun = run_beam_experiment(config, plan)
        second = write_experiment_report(rerun, tmp_path / "b")
        for name in ("rmse", "moments", "degrees", "summary"):
            with open(first[name], "rb") as fa, open(second[name], "rb") as fb:
                assert fa.read() == fb.read()

    def test_report_bytes_are_pinned(self, tmp_path):
        # One ok and one failed cell, built by hand: no fit, so no BLAS.
        config = BeamConfig(response_dim=2, dummy_count=0)
        plan = ExperimentPlan(
            training_sizes=(30,), test_size=10, seeds=(0,), methods=("mvsa", "td:2"),
            mcs_samples=100, mcs_seed=7,
        )
        reference = MomentReport(
            mean=np.array([1.0, 2.0]), variance=np.array([0.25, 0.0625]), std=np.array([0.5, 0.25])
        )
        diagnostics = FitDiagnostics(
            condition_number=12.5, iterations=4, pruned_count=1, max_total_degree=2,
            max_univariate_degree=2, basis_size=6, termination="ill_conditioned",
        )
        cells = (
            CellResult(
                method="mvsa", training_size=30, seed=0, ok=True, rmse=np.array([0.125, 0.25]),
                mean=np.array([1.0, 2.5]), std=np.array([0.5, 0.5]), fit_seconds=0.75,
                diagnostics=diagnostics,
            ),
            CellResult(method="td:2", training_size=30, seed=0, ok=False, error="synthetic failure"),
        )
        report = ExperimentReport(config=config, plan=plan, reference=reference, cells=cells)
        files = write_experiment_report(report, tmp_path)
        header = b"method,Q,seed,output_index_or_aggregate,value\r\n"
        expected = {
            "rmse": header + b"mvsa,30,0,1,0.125\r\nmvsa,30,0,2,0.25\r\nmvsa,30,0,max,0.25\r\n",
            "moments": header + (
                b"mcs,0,7,mean:1,1.0\r\nmcs,0,7,mean:2,2.0\r\nmcs,0,7,std:1,0.5\r\nmcs,0,7,std:2,0.25\r\n"
                b"mvsa,30,0,mean:1,1.0\r\nmvsa,30,0,mean:2,2.5\r\nmvsa,30,0,std:1,0.5\r\nmvsa,30,0,std:2,0.5\r\n"
            ),
            "timing": header + b"mvsa,30,0,fit_seconds,0.75\r\n",
            "degrees": header + (
                b"mvsa,30,0,max_total_degree,2\r\nmvsa,30,0,max_univariate_degree,2\r\n"
                b"mvsa,30,0,basis_size,6\r\nmvsa,30,0,condition_number,12.5\r\n"
                b"mvsa,30,0,iterations,4\r\nmvsa,30,0,pruned_count,1\r\n"
            ),
            "summary": (
                b'{"plan_hash": "3e5d0003f9e2", "config": {"response_dim": 2, "dummy_count": 0, '
                b'"width": [0.15, 0.0075], "height": [0.3, 0.015], "length": [5.0, 0.05], '
                b'"youngs_modulus": [30000000000.0, 4500000000.0], "load": [10000.0, 2000.0], '
                b'"dummy": [10.0, 1.0]}, "plan": {"training_sizes": [30], "test_size": 10, '
                b'"seeds": [0], "methods": ["mvsa", "td:2"], "kappa": 100.0, "mcs_samples": 100, '
                b'"mcs_seed": 7}, "rng_algorithm": "pcg64", "aggregates": {"mvsa": {"30": '
                b'{"completed_seeds": 1, "max_rmse": {"mean": 0.25, "min": 0.25, "max": 0.25}, '
                b'"mean_rel_error_max": {"mean": 0.25, "min": 0.25, "max": 0.25}, '
                b'"std_rel_error_max": {"mean": 1.0, "min": 1.0, "max": 1.0}, '
                b'"max_total_degree": {"mean": 2.0, "min": 2.0, "max": 2.0}, '
                b'"max_univariate_degree": {"mean": 2.0, "min": 2.0, "max": 2.0}, '
                b'"basis_size": {"mean": 6.0, "min": 6.0, "max": 6.0}}}, '
                b'"td:2": {"30": {"completed_seeds": 0}}}, '
                b'"failures": [{"method": "td:2", "Q": 30, "seed": 0, "error": "synthetic failure"}]}\n'
            ),
        }
        assert sorted(files) == sorted(expected)
        for name, content in expected.items():
            assert open(files[name], "rb").read() == content, name
