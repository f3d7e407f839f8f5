import csv
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvsapce.benchmark import BeamConfig
from mvsapce.errors import ConfigError, DataError
from mvsapce.multi_index import total_degree_set
from mvsapce.mvsa_engine import fit_fixed, predict
from mvsapce.polynomial_basis import DistributionSpec, Marginal
from mvsapce.regression import TrainingData
from mvsapce.uq import (
    _BLOCK_ELEMENTS,
    MC_BATCH_SIZE,
    _block_rows,
    _variance,
    generalized_sobol,
    moments,
    monte_carlo_reference,
    sensitivity_report,
    sobol_indices,
    write_generalized_csv,
    write_moments_csv,
    write_sobol_csv,
    write_uq_report_json,
)

from conftest import build_model


def normals(dim):
    return DistributionSpec([Marginal.normal(0.0, 1.0)] * dim)


class TestMoments:
    def test_constant_and_linear_term(self):
        model = build_model(normals(1), [(0,), (1,)], [[5.0], [2.0]])
        report = moments(model)
        assert report.mean[0] == 5.0
        assert report.variance[0] == 4.0
        assert report.std[0] == 2.0
        assert report.constant_term_present

    def test_mean_only_model_has_zero_variance(self):
        report = moments(build_model(normals(2), [(0, 0)], [[3.0, -1.0]]))
        assert np.array_equal(report.variance, [0.0, 0.0])
        assert np.array_equal(report.std, [0.0, 0.0])

    def test_missing_constant_term_is_flagged(self):
        report = moments(build_model(normals(1), [(1,)], [[2.0]]))
        assert not report.constant_term_present
        assert np.array_equal(report.mean, [0.0])
        assert report.variance[0] == 4.0

    def test_additive_model_against_monte_carlo(self):
        # f = X1 + 2 X2 on standard normals: mean 0, variance 5
        spec = normals(2)
        model = build_model(spec, [(0, 0), (1, 0), (0, 1)], [[0.0], [1.0], [2.0]])
        report = moments(model)
        assert report.mean[0] == 0.0
        assert report.variance[0] == 5.0
        reference = monte_carlo_reference(lambda rows: predict(model, rows), spec, 10**6, seed=99)
        # 4-sigma Monte-Carlo confidence: sd(mean) = sqrt(5/n),
        # sd(variance) ~ sqrt(2/n) * variance
        n = 10**6
        assert abs(reference.mean[0] - 0.0) < 4.0 * np.sqrt(5.0 / n)
        assert abs(reference.variance[0] - 5.0) < 4.0 * np.sqrt(2.0 / n) * 5.0


class TestBlockedVariance:
    """The variance squares and sums row blocks, with the bits of one masked sum."""

    @pytest.mark.parametrize("width", [1, 2, 9, 1000])
    def test_bits_equal_the_masked_one_pass_sum(self, width):
        # Two full row blocks and part of a third; M = 1 sums pairwise in one
        # block, so its rows outnumber a block of any wider M.
        rows = 2 * (_BLOCK_ELEMENTS if width == 1 else _block_rows(10**9, width)) + 5
        rng = np.random.default_rng(width)
        degrees = rng.integers(0, 2, size=(rows, 3))
        degrees[::7] = 0
        coefficients = rng.normal(size=(rows, width)) * np.exp(rng.uniform(-20.0, 20.0, size=(rows, 1)))
        squared = coefficients * coefficients
        expected = squared[degrees.sum(axis=1) > 0].sum(axis=0)
        assert _variance(degrees, coefficients).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("width", [1, 1000])
    def test_moments_of_a_fit_equal_the_masked_sum(self, width):
        basis = total_degree_set(3, 3)
        coefficients = np.random.default_rng(5).normal(size=(len(basis), width))
        variance = moments(build_model(normals(3), basis, coefficients)).variance
        squared = coefficients * coefficients
        mask = np.asarray(basis.indices).sum(axis=1) > 0
        assert variance.tobytes() == squared[mask].sum(axis=0).tobytes()

    def test_moments_allocate_less_than_half_of_one_coefficient_array(self):
        basis = total_degree_set(20, 3)
        model = build_model(normals(20), basis, np.random.default_rng(6).normal(size=(len(basis), 1000)))
        assert model.coefficients.shape == (1771, 1000)
        tracemalloc.start()
        try:
            moments(model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * model.coefficients.nbytes

    def test_predict_holds_one_design(self):
        basis = total_degree_set(20, 3)
        spec = normals(20)
        model = build_model(spec, basis, np.random.default_rng(7).normal(size=(len(basis), 1000)))
        x = spec.sample(1000, np.random.default_rng(8))
        design_bytes = len(x) * len(basis) * 8
        outputs_bytes = len(x) * model.n_outputs * 8
        tracemalloc.start()
        try:
            predict(model, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The design, the outputs and the builder's inputs and tables: no
        # second copy of the design.
        assert peak < 1.25 * design_bytes + outputs_bytes


class TestSobolIndices:
    def test_additive_model(self):
        model = build_model(normals(2), [(0, 0), (1, 0), (0, 1)], [[0.0], [1.0], [2.0]])
        first, total = sobol_indices(model)
        assert first[:, 0] == pytest.approx([0.2, 0.8], abs=1e-15)
        assert total[:, 0] == pytest.approx([0.2, 0.8], abs=1e-15)

    def test_pure_interaction(self):
        model = build_model(normals(2), [(0, 0), (1, 1)], [[0.0], [1.5]])
        first, total = sobol_indices(model)
        assert np.array_equal(first[:, 0], [0.0, 0.0])
        assert np.array_equal(total[:, 0], [1.0, 1.0])

    def test_mixed_main_and_interaction(self):
        # f = X1 + X1 X2: V = 2, S1F = 0.5, S1T = 1, S2F = 0, S2T = 0.5
        model = build_model(
            normals(2), [(0, 0), (1, 0), (1, 1)], [[0.0], [1.0], [1.0]]
        )
        first, total = sobol_indices(model)
        assert first[:, 0] == pytest.approx([0.5, 0.0], abs=1e-15)
        assert total[:, 0] == pytest.approx([1.0, 0.5], abs=1e-15)

    def test_zero_variance_output_is_masked(self):
        model = build_model(
            normals(2), [(0, 0), (1, 0)], [[1.0, 2.0], [1.0, 0.0]]
        )
        first, total = sobol_indices(model)
        assert first[0, 0] == 1.0
        assert first[0, 1] == 0.0 and total[0, 1] == 0.0
        report = sensitivity_report(model)
        assert list(report.zero_variance_outputs) == [False, True]

    def test_inert_input_is_exactly_zero(self):
        model = build_model(
            normals(3), [(0, 0, 0), (2, 0, 0), (1, 0, 1)], [[0.1], [0.7], [0.3]]
        )
        first, total = sobol_indices(model)
        assert total[1, 0] == 0.0
        _, gen_total = generalized_sobol(model)
        assert gen_total[1] == 0.0


class TestGeneralizedSobol:
    def test_symmetric_pair(self):
        model = build_model(
            normals(2), [(0, 0), (1, 0), (0, 1)], [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
        )
        gen_first, gen_total = generalized_sobol(model)
        assert gen_first == pytest.approx([0.5, 0.5], abs=1e-15)
        assert gen_total == pytest.approx([0.5, 0.5], abs=1e-15)

    def test_additive_pair(self):
        # Y = (X1, X1 + X2): aggregated variance 3, G1 = 2/3, G2 = 1/3
        model = build_model(
            normals(2), [(0, 0), (1, 0), (0, 1)], [[0.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
        )
        gen_first, _ = generalized_sobol(model)
        assert gen_first == pytest.approx([2.0 / 3.0, 1.0 / 3.0], rel=1e-14)

    def test_single_output_equals_sobol(self):
        rng = np.random.default_rng(23)
        basis = total_degree_set(3, 3)
        model = build_model(normals(3), basis, rng.normal(size=(len(basis), 1)))
        first, total = sobol_indices(model)
        gen_first, gen_total = generalized_sobol(model)
        assert np.max(np.abs(gen_first - first[:, 0])) <= 1e-14
        assert np.max(np.abs(gen_total - total[:, 0])) <= 1e-14

    def test_all_constant_response_flagged_not_defined(self):
        model = build_model(normals(2), [(0, 0)], [[4.0, 4.0]])
        gen_first, gen_total = generalized_sobol(model)
        assert np.array_equal(gen_first, [0.0, 0.0])
        assert np.array_equal(gen_total, [0.0, 0.0])
        assert not sensitivity_report(model).generalized_defined

    @given(seed=st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=30, deadline=None)
    def test_weighted_average_identity_and_bounds(self, seed):
        rng = np.random.default_rng(seed)
        basis = total_degree_set(3, 3)
        coeffs = rng.normal(size=(len(basis), 4)) * rng.choice([0.0, 1.0], (len(basis), 4))
        model = build_model(normals(3), basis, coeffs)
        report = moments(model)
        first, total = sobol_indices(model)
        gen_first, gen_total = generalized_sobol(model)
        defined = report.variance > 0
        # bounds
        assert np.all(first >= 0.0) and np.all(total <= 1.0 + 1e-12)
        assert np.all(first <= total + 1e-15)
        assert np.all(first[:, defined].sum(axis=0) <= 1.0 + 1e-12)
        assert np.all(gen_first <= gen_total + 1e-15)
        # generalized indices are the variance-weighted averages of the
        # per-output indices
        if report.variance.sum() > 0:
            lhs_first = gen_first * report.variance.sum()
            rhs_first = first @ report.variance
            assert np.max(np.abs(lhs_first - rhs_first)) <= 1e-12 * max(1.0, report.variance.sum())
            lhs_total = gen_total * report.variance.sum()
            rhs_total = total @ report.variance
            assert np.max(np.abs(lhs_total - rhs_total)) <= 1e-12 * max(1.0, report.variance.sum())


class TestOverflowingVariance:
    """A variance that overflows is a DataError, never inf or nan behind a warning."""

    @pytest.mark.parametrize("report", [moments, sensitivity_report])
    def test_output_variance_names_the_first_bad_output(self, report):
        coefficients = [[1.0, 1e300, 1e300], [1.0, 1e300, 1e300], [1.0, 1e300, 1e300]]
        model = build_model(normals(2), [(0, 0), (1, 0), (0, 1)], coefficients)
        with pytest.raises(DataError, match="^variance of output 2 is not finite$"):
            report(model)

    def test_summed_variance(self):
        basis = total_degree_set(3, 2)
        model = build_model(normals(3), basis, np.full((len(basis), 1000), 3e152))
        assert np.isfinite(moments(model).variance).all()
        with pytest.raises(DataError, match="^variance summed over all outputs is not finite$"):
            sensitivity_report(model)

    def test_overflowing_mean_square_leaves_indices_finite(self):
        model = build_model(normals(2), [(0, 0), (1, 0), (0, 1)], [[1e300], [1.0], [2.0]])
        assert moments(model).mean[0] == 1e300
        report = sensitivity_report(model)
        assert np.array_equal(report.per_output_first, [[0.2], [0.8]])
        assert np.array_equal(report.generalized_total, [0.2, 0.8])


class TestFittedModelConsistency:
    def test_sobol_of_fitted_additive_model(self):
        rng = np.random.default_rng(31)
        spec = normals(2)
        x = rng.normal(size=(60, 2))
        y = x[:, :1] + 2.0 * x[:, 1:2]
        model = fit_fixed(TrainingData(x, y), spec, total_degree_set(2, 1))
        first, total = sobol_indices(model)
        assert first[:, 0] == pytest.approx([0.2, 0.8], abs=1e-10)
        assert total[:, 0] == pytest.approx([0.2, 0.8], abs=1e-10)


class TestMonteCarloReference:
    def test_constant_function_has_exactly_zero_variance(self):
        spec = normals(1)
        report = monte_carlo_reference(lambda rows: np.full((len(rows), 1), 2.5), spec, 1000, seed=0)
        assert report.variance[0] == 0.0

    def test_identity_on_standard_normal(self):
        spec = normals(1)
        report = monte_carlo_reference(lambda rows: rows, spec, 10**6, seed=1)
        assert abs(report.mean[0]) < 5e-3
        assert abs(report.variance[0] - 1.0) < 1e-2

    def test_vectorized_1d_outputs_are_one_output(self):
        spec = normals(2)
        flat = monte_carlo_reference(lambda rows: rows[:, 0] * rows[:, 1], spec, 5000, seed=7)
        column = monte_carlo_reference(lambda rows: rows[:, :1] * rows[:, 1:2], spec, 5000, seed=7)
        assert flat.mean.shape == flat.variance.shape == (1,)
        assert np.array_equal(flat.mean, column.mean)
        assert np.array_equal(flat.variance, column.variance)

    def test_deterministic_per_seed(self):
        spec = normals(2)
        f = lambda rows: rows[:, :1] * rows[:, 1:2]
        a = monte_carlo_reference(f, spec, 5000, seed=7)
        b = monte_carlo_reference(f, spec, 5000, seed=7)
        assert np.array_equal(a.mean, b.mean)
        assert np.array_equal(a.variance, b.variance)

    @pytest.mark.parametrize("width", [1, 2, 9, 1000])
    def test_matches_two_pass_reference_and_leaves_outputs_alone(self, width):
        # Spans two full batches and a partial one.  f hands back an array
        # it keeps, which the reference must read but never write.  Widths 9
        # and 1000 take several row blocks per batch, 1 and 2 one block.
        spec = normals(2)
        samples = 2 * MC_BATCH_SIZE + 17
        rates = np.linspace(0.1, 2.0, width)
        returned = []

        def f(rows):
            y = np.exp(rows[:, :1] * rates) * rows[:, 1:2]
            returned.append((y, y.copy()))
            return y

        report = monte_carlo_reference(f, spec, samples, seed=3)
        assert len(returned) == 3
        for y, original in returned:
            assert np.array_equal(y, original)
        y = np.vstack([original for _, original in returned])
        d = y - y[0]
        sum_d = np.zeros(width)
        sum_d2 = np.zeros(width)
        for start in range(0, samples, MC_BATCH_SIZE):
            batch = d[start:start + MC_BATCH_SIZE]
            sum_d += batch.sum(axis=0)
            sum_d2 += (batch * batch).sum(axis=0)
        mean_d = sum_d / samples
        variance = np.maximum(sum_d2 - samples * mean_d * mean_d, 0.0) / (samples - 1)
        assert np.array_equal(report.mean, y[0] + mean_d)
        assert np.array_equal(report.variance, variance)

    def test_holds_one_batch_of_outputs(self):
        # The beam response at M = 1000 allocates its 4096 x 1000 result
        # and block-sized temporaries; the reference adds one row block.
        config = BeamConfig(response_dim=1000)
        batch_bytes = MC_BATCH_SIZE * 1000 * 8
        tracemalloc.start()
        try:
            monte_carlo_reference(config.response, config.distribution_spec(), 2 * MC_BATCH_SIZE + 17, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * batch_bytes

    @pytest.mark.parametrize(
        "f, shape",
        [(lambda rows: 1.0, "()"), (lambda rows: rows[1:], "(9, 1)")],
        ids=["scalar", "short"],
    )
    def test_vectorized_output_of_another_length_is_refused(self, f, shape):
        message = f"returned shape {shape} for 10 inputs on samples 0..9"
        with pytest.raises(DataError, match=re.escape(message)):
            monte_carlo_reference(f, normals(1), 10, seed=0)

    @pytest.mark.parametrize("width", [1, 2, 4])
    def test_batch_of_another_width_is_refused(self, width):
        # Width 1 would broadcast against the first batch's three outputs.
        def f(rows):
            return np.ones((len(rows), 3 if len(rows) == MC_BATCH_SIZE else width))

        message = f"{width} outputs per sample on samples {MC_BATCH_SIZE}..{MC_BATCH_SIZE + 4}, 3 "
        with pytest.raises(DataError, match=re.escape(message)):
            monte_carlo_reference(f, normals(1), MC_BATCH_SIZE + 5, seed=0)

    @pytest.mark.parametrize(
        "f, shape",
        [(lambda rows: np.zeros((len(rows), 0)), "(0,)"),
         (lambda rows: np.zeros((len(rows), 2, 2)), "(2, 2)")],
        ids=["empty", "matrix"],
    )
    def test_outputs_that_are_not_a_vector_are_refused(self, f, shape):
        with pytest.raises(DataError, match=re.escape(f"shape {shape} per sample on samples 0..9")):
            monte_carlo_reference(f, normals(1), 10, seed=0)

    def test_non_finite_output_names_its_samples(self):
        bad = MC_BATCH_SIZE + 40

        def f(rows):
            y = np.ones((len(rows), 1000))
            if len(rows) < MC_BATCH_SIZE:
                y[bad - MC_BATCH_SIZE, 7] = np.nan
            return y

        with pytest.raises(DataError, match="non-finite model output") as caught:
            monte_carlo_reference(f, normals(1), MC_BATCH_SIZE + 100, seed=0)
        low, high = map(int, str(caught.value).rsplit(" ", 1)[1].split(".."))
        assert MC_BATCH_SIZE <= low <= bad <= high < MC_BATCH_SIZE + 100

    def test_complex_vectorized_outputs_name_their_samples(self):
        message = "model outputs on samples 0..9 are not a numeric array: outputs hold complex"
        with pytest.raises(DataError, match=re.escape(message)):
            monte_carlo_reference(lambda rows: rows + 1j, normals(1), 10, seed=0)

    def test_failure_names_sample_index(self):
        spec = normals(1)

        def broken(rows):
            raise RuntimeError("boom")

        with pytest.raises(DataError, match=re.escape("samples 0..9")):
            monte_carlo_reference(broken, spec, 10, seed=0)

    def test_requires_two_samples(self):
        with pytest.raises(ConfigError):
            monte_carlo_reference(lambda rows: rows, normals(1), 1, seed=0)

    @pytest.mark.parametrize("samples", [10.5, "10"])
    def test_sample_count_must_be_an_integer(self, samples):
        with pytest.raises(ConfigError, match=r"^Monte-Carlo sample count must be an integer, got "):
            monte_carlo_reference(lambda rows: rows, normals(1), samples, seed=0)

    @pytest.mark.parametrize("vectorized", [False, 1])
    def test_vectorized_is_accepted_only_as_true(self, vectorized):
        with pytest.raises(ConfigError, match=rf"^vectorized must be True, got {vectorized!r}"):
            monte_carlo_reference(lambda rows: rows, normals(1), 10, seed=0, vectorized=vectorized)


class TestReportFiles:
    def test_csv_outputs_parse_back(self, tmp_path):
        model = build_model(
            normals(2), [(0, 0), (1, 0), (0, 1)], [[1.0, 1.0], [1.0, 0.0], [0.0, 0.0]]
        )
        report = moments(model)
        sens = sensitivity_report(model)
        write_moments_csv(report, tmp_path / "moments.csv")
        write_sobol_csv(sens, tmp_path / "sobol.csv")
        write_generalized_csv(sens, tmp_path / "generalized.csv")
        with (tmp_path / "moments.csv").open() as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 2
        assert float(rows[0]["mean"]) == 1.0
        assert rows[1]["zero_variance"] == "1"
        with (tmp_path / "sobol.csv").open() as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 2
        assert float(rows[0]["first_y1"]) == 1.0
        with (tmp_path / "generalized.csv").open() as handle:
            rows = list(csv.DictReader(handle))
        assert [r["input"] for r in rows] == ["1", "2"]

    def test_json_report_round_trips(self, tmp_path):
        import json

        model = build_model(
            normals(2), [(0, 0), (1, 0), (0, 1)], [[1.0, 1.0], [1.0, 0.0], [0.0, 0.0]]
        )
        path = tmp_path / "report.json"
        write_uq_report_json(model, path)
        payload = json.loads(path.read_text())
        assert payload["moments"]["mean"] == [1.0, 1.0]
        assert payload["moments"]["variance"] == [1.0, 0.0]
        assert payload["sensitivity"]["zero_variance_outputs"] == [False, True]
        assert payload["sensitivity"]["generalized_first"][0] == 1.0
        assert payload["rng_algorithm"] == "pcg64"

    def test_report_bytes_are_pinned(self, tmp_path):
        # Dyadic coefficients make every square and sum exact, so these
        # bytes do not depend on the BLAS build or its summation order.
        spec = DistributionSpec([Marginal.normal(0.0, 1.0), Marginal.uniform(-1.0, 1.0)])
        model = build_model(
            spec,
            [(0, 0), (1, 0), (0, 1), (1, 1)],
            [[1.5, -2.0, 3.0], [0.5, 0.0, 0.0], [0.25, 1.0, 0.0], [0.25, 0.0, 0.0]],
        )
        sens = sensitivity_report(model)
        write_moments_csv(moments(model), tmp_path / "moments.csv")
        write_sobol_csv(sens, tmp_path / "sobol.csv")
        write_generalized_csv(sens, tmp_path / "generalized.csv")
        write_uq_report_json(model, tmp_path / "report.json")
        assert (tmp_path / "moments.csv").read_bytes() == (
            b"output,mean,variance,std,zero_variance\r\n"
            b"1,1.5,0.375,0.6123724356957945,0\r\n"
            b"2,-2.0,1.0,1.0,0\r\n"
            b"3,3.0,0.0,0.0,1\r\n"
        )
        assert (tmp_path / "sobol.csv").read_bytes() == (
            b"input,first_y1,first_y2,first_y3,total_y1,total_y2,total_y3\r\n"
            b"1,0.6666666666666666,0.0,0.0,0.8333333333333334,0.0,0.0\r\n"
            b"2,0.16666666666666666,1.0,0.0,0.3333333333333333,1.0,0.0\r\n"
        )
        assert (tmp_path / "generalized.csv").read_bytes() == (
            b"input,generalized_first,generalized_total\r\n"
            b"1,0.18181818181818182,0.22727272727272727\r\n"
            b"2,0.7727272727272727,0.8181818181818182\r\n"
        )
        assert (tmp_path / "report.json").read_bytes() == (
            b'{"moments": {"mean": [1.5, -2.0, 3.0], "variance": [0.375, 1.0, 0.0], '
            b'"std": [0.6123724356957945, 1.0, 0.0], "constant_term_present": true}, '
            b'"sensitivity": {"per_output_first": [[0.6666666666666666, 0.0, 0.0], '
            b'[0.16666666666666666, 1.0, 0.0]], "per_output_total": [[0.8333333333333334, 0.0, 0.0], '
            b'[0.3333333333333333, 1.0, 0.0]], "generalized_first": [0.18181818181818182, 0.7727272727272727], '
            b'"generalized_total": [0.22727272727272727, 0.8181818181818182], '
            b'"zero_variance_outputs": [false, false, true], "generalized_defined": true}, '
            b'"rng_algorithm": "pcg64"}\n'
        )

    def test_masked_report_bytes_are_pinned(self, tmp_path):
        # No zero index and no variance anywhere: the mean is the flagged
        # zero row, and every per-output and generalized index is masked.
        spec = DistributionSpec([Marginal.normal(0.0, 1.0), Marginal.uniform(-1.0, 1.0)])
        model = build_model(spec, [(1, 0), (0, 1)], [[0.0, -0.0], [0.0, 0.0]])
        sens = sensitivity_report(model)
        write_moments_csv(moments(model), tmp_path / "moments.csv")
        write_sobol_csv(sens, tmp_path / "sobol.csv")
        write_generalized_csv(sens, tmp_path / "generalized.csv")
        write_uq_report_json(model, tmp_path / "report.json")
        assert (tmp_path / "moments.csv").read_bytes() == (
            b"output,mean,variance,std,zero_variance\r\n"
            b"1,0.0,0.0,0.0,1\r\n"
            b"2,0.0,0.0,0.0,1\r\n"
        )
        assert (tmp_path / "sobol.csv").read_bytes() == (
            b"input,first_y1,first_y2,total_y1,total_y2\r\n"
            b"1,0.0,0.0,0.0,0.0\r\n"
            b"2,0.0,0.0,0.0,0.0\r\n"
        )
        assert (tmp_path / "generalized.csv").read_bytes() == (
            b"input,generalized_first,generalized_total\r\n"
            b"1,0.0,0.0\r\n"
            b"2,0.0,0.0\r\n"
        )
        assert (tmp_path / "report.json").read_bytes() == (
            b'{"moments": {"mean": [0.0, 0.0], "variance": [0.0, 0.0], "std": [0.0, 0.0], '
            b'"constant_term_present": false}, '
            b'"sensitivity": {"per_output_first": [[0.0, 0.0], [0.0, 0.0]], '
            b'"per_output_total": [[0.0, 0.0], [0.0, 0.0]], "generalized_first": [0.0, 0.0], '
            b'"generalized_total": [0.0, 0.0], "zero_variance_outputs": [true, true], '
            b'"generalized_defined": false}, '
            b'"rng_algorithm": "pcg64"}\n'
        )
