import json
import math
import sys

import numpy as np
import pytest

from mvsapce import mvsa_engine
from mvsapce.benchmark import BeamConfig, sample_inputs
from mvsapce.errors import ConfigError, DataError
from mvsapce.multi_index import MultiIndexSet, total_degree_set
from mvsapce.mvsa_engine import (
    FitDiagnostics,
    MvsaConfig,
    PceModel,
    _response_factor,
    expand_basis,
    fit_fixed,
    fit_mvsa,
    load_model,
    model_from_json,
    model_to_json,
    predict,
    prune_basis,
    save_model,
    sensitivity_indicators,
)
from mvsapce.polynomial_basis import DistributionSpec, Marginal
from mvsapce.regression import DesignBuilder, TrainingData, solve_with_condition

from conftest import build_model
from reference import lstsq_with_condition, reference_expand, reference_prune, replay_expansion


def normal_spec(dim):
    return DistributionSpec([Marginal.normal(0.0, 1.0)] * dim)


class TestSensitivityIndicators:
    def test_sum_of_squares(self):
        assert sensitivity_indicators(np.array([[3.0, 4.0]]))[0] == 25.0

    def test_zero_row(self):
        assert sensitivity_indicators(np.zeros((1, 5)))[0] == 0.0

    def test_three_outputs(self):
        assert sensitivity_indicators(np.array([[1.0, -2.0, 2.0]]))[0] == 9.0


class TestConfigValidation:
    def test_kappa_must_exceed_one(self):
        with pytest.raises(ConfigError):
            MvsaConfig(kappa=0.5)
        with pytest.raises(ConfigError):
            MvsaConfig(kappa=1.0)

    def test_initial_degree_must_be_non_negative(self):
        with pytest.raises(ConfigError, match="initial_degree"):
            MvsaConfig(initial_degree=-1)

    @pytest.mark.parametrize(
        "value", [1.5, "1", sys.maxsize + 1, True], ids=["float", "text", "above-maxsize", "boolean"]
    )
    def test_initial_degree_must_be_an_integer_up_to_maxsize(self, value):
        data = TrainingData(np.zeros((30, 2)), np.zeros((30, 1)))
        with pytest.raises(ConfigError, match="initial_degree must be"):
            fit_mvsa(data, normal_spec(2), MvsaConfig(initial_degree=value))

    @pytest.mark.parametrize("kappa", ["100", None, 100 + 0j], ids=["text", "none", "complex"])
    def test_kappa_must_be_a_real_number(self, kappa):
        with pytest.raises(ConfigError, match="kappa must be a real number"):
            MvsaConfig(kappa=kappa)

    def test_initial_set_must_be_smaller_than_sample_count(self):
        config = MvsaConfig(initial_degree=1)
        data = TrainingData(np.zeros((3, 2)), np.zeros((3, 1)))
        with pytest.raises(ConfigError):
            fit_mvsa(data, normal_spec(2), config)


class TestExpansion:
    def test_constant_response_yields_constant_model(self):
        rng = np.random.default_rng(1)
        data = TrainingData(rng.normal(size=(25, 2)), np.full((25, 3), 7.0))
        extended, trace = expand_basis(DesignBuilder(normal_spec(2), data.inputs), data.responses, MvsaConfig())
        # every accepted indicator sits at the numerical noise floor
        assert all(step.eta < 1e-20 for step in trace.steps)
        assert trace.termination in ("underdetermined", "ill_conditioned")
        model = fit_mvsa(data, normal_spec(2))
        report = predict(model, rng.normal(size=(10, 2)))
        assert np.allclose(report, 7.0, rtol=1e-10)
        zero_row = model.basis.indices.index((0, 0))
        assert np.allclose(model.coefficients[zero_row], 7.0, rtol=1e-12)
        others = np.delete(model.coefficients, zero_row, axis=0)
        if others.size:
            assert np.max(np.abs(others)) < 1e-12

    def test_exact_tie_breaks_toward_lexicographic_smallest(self):
        # an identically-zero response makes every indicator exactly 0.0,
        # so acceptance is driven purely by the lexicographic tie-break
        rng = np.random.default_rng(2)
        data = TrainingData(rng.normal(size=(20, 2)), np.zeros((20, 3)))
        _, trace = expand_basis(DesignBuilder(normal_spec(2), data.inputs), data.responses, MvsaConfig())
        assert [s.added for s in trace.steps[:3]] == [(0, 1), (0, 2), (0, 3)]
        assert all(s.eta == 0.0 for s in trace.steps[:3])

    def test_pure_square_expansion(self):
        # f(x) = x^2 = psi_0 + sqrt(2) psi_2 in the orthonormal basis
        rng = np.random.default_rng(7)
        x = rng.normal(size=(30, 1))
        data = TrainingData(x, x**2)
        extended, trace = expand_basis(DesignBuilder(normal_spec(1), x), data.responses, MvsaConfig())
        added = [step.added for step in trace.steps]
        assert added[0] == (1,) and added[1] == (2,)
        assert {(0,), (1,), (2,)}.issubset(set(extended))
        # once degree 2 is a candidate its indicator dominates the noise
        # indicator that admitted degree 1
        assert trace.steps[1].eta == pytest.approx(2.0, rel=1e-10)
        assert trace.steps[1].eta > trace.steps[0].eta
        replay_expansion(trace)

    def test_inert_input_is_never_preferred(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(50, 2))
        data = TrainingData(x, x[:, :1])
        extended, trace = expand_basis(DesignBuilder(normal_spec(2), x), data.responses, MvsaConfig())
        assert trace.steps[0].added == (1, 0)
        meaningful = [s.added for s in trace.steps if s.eta > 1e-16]
        assert all(k[1] == 0 for k in meaningful)

    def test_accepted_index_attains_maximum_indicator(self):
        # the reference re-solves the extended system at every step: the
        # accepted index must carry the largest indicator among the
        # admissible candidates, with the lexicographic tie-break
        rng = np.random.default_rng(9)
        x = rng.normal(size=(35, 2))
        y = np.column_stack([np.exp(0.3 * x[:, 0]), np.cos(x[:, 1])])
        spec = normal_spec(2)
        builder = DesignBuilder(spec, x)
        _, trace = expand_basis(builder, y, MvsaConfig())
        _, added, etas, *_ = reference_expand(TrainingData(x, y), spec, MvsaConfig(), builder)
        assert [step.added for step in trace.steps] == added
        assert [step.eta for step in trace.steps] == pytest.approx(etas, rel=1e-12)


class TestPruning:
    def test_satisfying_basis_is_untouched(self, uniform_3d):
        rng = np.random.default_rng(2)
        x = rng.uniform(-1, 1, (40, 3))
        basis = total_degree_set(3, 2)
        design = DesignBuilder(uniform_3d, x).matrix(basis)
        data = TrainingData(x, design @ rng.normal(size=(len(basis), 2)))
        builder = DesignBuilder(uniform_3d, x)
        kept, removed = prune_basis(builder, data.responses, basis, MvsaConfig())
        assert kept == basis
        assert removed == ()
        assert np.allclose(
            solve_with_condition(builder.matrix(kept), data.responses)[0],
            np.linalg.lstsq(design, data.responses, rcond=1e-12)[0],
            atol=1e-13,
        )

    def test_duplicate_columns_drop_smaller_eta_member(self):
        # identical input columns make the (1,0) and (0,1) design columns
        # collinear, forcing an infinite condition number; the first removal
        # must be exactly the degenerate-pair member with the smaller
        # indicator under the min-norm solve
        rng = np.random.default_rng(4)
        column = rng.normal(size=(30, 1))
        x = np.hstack([column, column])
        data = TrainingData(x, 2.0 * column)
        spec = normal_spec(2)
        basis = MultiIndexSet([(0, 0), (1, 0), (0, 1)])
        builder = DesignBuilder(spec, x)
        assert lstsq_with_condition(builder.matrix(basis), data.responses)[1] == np.inf
        ref_removed = reference_prune(data, basis, MvsaConfig(), builder)[3]
        kept, removed = prune_basis(builder, data.responses, basis, MvsaConfig())
        assert len(ref_removed) == 1 and list(removed) == ref_removed
        assert len(kept) == 2 and (0, 0) in kept
        assert solve_with_condition(builder.matrix(kept), data.responses)[1] <= 100.0

    def test_oversized_basis_removes_current_argmin_each_step(self, uniform_3d):
        # two more indices than samples: every removal must match an
        # independent re-ranking of the indicators after each re-solve
        rng = np.random.default_rng(8)
        x = rng.uniform(-1, 1, (8, 3))
        y = 1.0 + x[:, :1] + 0.5 * x[:, 1:2] ** 2
        data = TrainingData(x, y)
        basis = total_degree_set(3, 2)  # 10 indices, Q = 8
        config = MvsaConfig()
        builder = DesignBuilder(uniform_3d, x)
        kept, removed = prune_basis(builder, data.responses, basis, config)
        assert len(kept) <= 8
        assert solve_with_condition(builder.matrix(kept), data.responses)[1] <= config.kappa
        ref_basis, _, _, ref_removed = reference_prune(data, basis, config, DesignBuilder(uniform_3d, x))
        assert list(removed) == ref_removed
        assert kept == ref_basis

    def test_zero_index_protection_toggle(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(3, 1))
        data = TrainingData(x, np.ones((3, 1)))
        basis = total_degree_set(1, 5)  # 6 > Q = 3 forces removals
        protected, _ = prune_basis(DesignBuilder(normal_spec(1), x), data.responses, basis, MvsaConfig())
        assert (0,) in protected

    def test_requires_zero_index(self):
        data = TrainingData(np.zeros((5, 1)), np.zeros((5, 1)))
        with pytest.raises(ConfigError):
            prune_basis(DesignBuilder(normal_spec(1), data.inputs), data.responses, MultiIndexSet([(1,)]), MvsaConfig())

    def test_assembles_one_design_per_call(self, uniform_3d):
        # 20 terms over Q = 8 rows: every removal deletes a column from the
        # one design, and the removals and the kept basis's solve match the
        # reference's, which builds a fresh design for each basis.
        rng = np.random.default_rng(9)
        x = rng.uniform(-1, 1, (8, 3))
        y = np.column_stack([1.0 + x[:, 0] * x[:, 1], x[:, 2] ** 3])
        builder = DesignBuilder(uniform_3d, x)
        calls = []
        real_matrix = builder.matrix

        def spy(basis):
            calls.append(len(basis))
            return real_matrix(basis)

        builder.matrix = spy
        kept, removed = prune_basis(builder, y, total_degree_set(3, 3), MvsaConfig())
        assert calls == [20] and len(removed) >= 12
        ref_basis, ref_coeffs, ref_cond, ref_removed = reference_prune(
            TrainingData(x, y), total_degree_set(3, 3), MvsaConfig(), builder
        )
        assert list(removed) == ref_removed and kept == ref_basis
        coeffs, cond = solve_with_condition(builder.matrix(kept), y)
        assert np.array_equal(coeffs, ref_coeffs) and cond == ref_cond


def _phase(name, builder, responses):
    """Run the phase ``name`` over 2 uniform inputs, the prune on td:3."""
    if name == "expand":
        return expand_basis(builder, responses, MvsaConfig())
    return prune_basis(builder, responses, total_degree_set(2, 3), MvsaConfig())


class TestRightHandSide:
    """Both phases take a real, finite Q x M right-hand side, Q the builder's rows, and refuse anything else."""

    @pytest.fixture
    def cell(self):
        spec = DistributionSpec([Marginal.uniform(-1.0, 1.0)] * 2)
        x = spec.sample(30, np.random.default_rng(31))
        return DesignBuilder(spec, x), np.column_stack([x[:, 0] + x[:, 1] ** 2, x[:, 0] * x[:, 1]])

    @pytest.mark.parametrize("phase", ["expand", "prune"])
    @pytest.mark.parametrize(
        "malform, message",
        [
            (lambda y: y[:, 0], r"^responses must form a 30 x M array, one row per input row; got \(30,\)$"),
            (lambda y: y[:-1], r"^responses must form a 30 x M array, one row per input row; got \(29, 2\)$"),
            (lambda y: [list(row) for row in y[:-1]] + [[1.0]], r"^the responses are not a numeric array: "),
            (lambda y: y + 1j, r"^the responses are not a numeric array: responses hold complex values"),
            (lambda y: y.astype(str), r"^the responses are not a numeric array: responses hold text"),
            (lambda y: np.where(np.arange(30)[:, None] == 4, [[1.0, np.nan]], y), r"^row 5, y2: non-finite value$"),
            (lambda y: np.where(np.arange(30)[:, None] == 0, [[np.inf, 1.0]], y), r"^row 1, y1: non-finite value$"),
        ],
        ids=["1-D", "rows", "ragged-list", "complex", "text", "nan", "inf"],
    )
    def test_malformed_responses_are_a_data_error(self, cell, phase, malform, message):
        builder, y = cell
        with pytest.raises(DataError, match=message):
            _phase(phase, builder, malform(y))

    @pytest.mark.parametrize("phase", ["expand", "prune"])
    def test_a_nested_list_decides_as_its_array(self, cell, phase):
        builder, y = cell
        assert _phase(phase, builder, y.tolist()) == _phase(phase, builder, y)


class TestResponseFactor:
    """When M > Q the adaptive steps solve against a Q x r factor of Y, r its numerical rank."""

    @pytest.mark.parametrize("rank", [3, 30])
    def test_factor_reproduces_the_gram_matrix(self, rank):
        rng = np.random.default_rng(21 + rank)
        y = rng.normal(size=(30, rank)) @ rng.normal(size=(rank, 80))
        factor = _response_factor(y)
        assert factor.shape == (30, rank)
        gram = y @ y.T
        assert np.max(np.abs(factor @ factor.T - gram)) <= 1e-13 * np.max(np.abs(gram))

    @pytest.mark.parametrize("q", [50, 100, 150])
    def test_beam_responses_have_width_one(self, q):
        # The deflection is P L^4 / (E w h^3) times a fixed shape of the
        # grid position m / (M + 1), so Y has rank 1.
        config = BeamConfig(response_dim=1000)
        x = sample_inputs(config.distribution_spec(), q, [0, 0])
        assert _response_factor(config.response(x)).shape == (q, 1)

    def test_zero_responses_give_an_empty_factor(self):
        assert _response_factor(np.zeros((30, 80))).shape == (30, 0)

    def test_few_outputs_are_used_as_they_are(self):
        y = np.random.default_rng(23).normal(size=(30, 30))
        assert _response_factor(y) is y

    def test_unconverged_svd_is_a_data_error(self, monkeypatch):
        def failing_svd(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", failing_svd)
        y = np.random.default_rng(28).normal(size=(30, 80))
        with pytest.raises(DataError, match=r"^the SVD of the responses' Q x Q factor did not converge"):
            _response_factor(y)

    def test_overflowing_factor_is_a_data_error(self):
        # Finite responses whose row norms over 1000 outputs exceed the
        # largest float: R has inf and NaN entries.
        y = 1e307 * (1.0 + 0.1 * np.random.default_rng(27).normal(size=(40, 1000)))
        with pytest.raises(DataError, match=r"^the Q x Q factor of the responses is not finite"):
            _response_factor(y)


class TestNonFiniteIndicators:
    """An eta that overflows is a DataError naming the term, not a choice by position."""

    @pytest.mark.parametrize("m", [5, 60], ids=["M<=Q", "M>Q"])
    def test_expansion_names_the_term(self, uniform_3d, m):
        rng = np.random.default_rng(24)
        x = rng.uniform(-1, 1, (40, 3))
        y = 1e300 * (1.0 + 0.5 * x[:, :1] + 0.1 * rng.normal(size=(40, m)))
        with pytest.raises(DataError, match=r"^sensitivity indicator of term \(0, 0, 0\) is not finite$"):
            fit_mvsa(TrainingData(x, y), uniform_3d)

    @pytest.mark.parametrize(
        "q, degree, kappa, m",
        [(8, 2, 100.0, 2), (8, 2, 100.0, 20), (40, 3, 1.5, 2), (40, 3, 1.5, 60)],
        ids=["M<=Q", "M>Q", "tall-M<=Q", "tall-M>Q"],
    )
    def test_pruning_names_the_term(self, uniform_3d, q, degree, kappa, m):
        # 10 terms over 8 samples: the first solve must rank them.  20 terms
        # over 40 samples at kappa 1.5: the first removal is ranked on the
        # prune's QR factor, whose Q^T Y and residual overflow.
        rng = np.random.default_rng(25)
        x = rng.uniform(-1, 1, (q, 3))
        y = 1e300 * (1.0 + 0.5 * x[:, :1] + 0.1 * rng.normal(size=(q, m)))
        builder = DesignBuilder(uniform_3d, x)
        with pytest.raises(DataError, match=r"^sensitivity indicator of term \(0, 0, 0\) is not finite$"):
            prune_basis(builder, _response_factor(y), total_degree_set(3, degree), MvsaConfig(kappa=kappa))


class TestDecisionGuard:
    """``_clear`` tells two etas apart only by a gap wider than _CLOSE of the larger and 1e4 rounding bounds."""

    @pytest.mark.parametrize(
        "low, high, err",
        [(2.0, 2.0, 0.0), (1.0, 1.0 + 1e-9, 0.0), (1.0, 2.0, 1e-4), (1.0, 2.0, math.inf), (1.0, 2.0, math.nan)],
        ids=["exact-tie", "within-close", "within-bound", "infinite-err", "nan-err"],
    )
    def test_unclear_gaps(self, low, high, err):
        assert not mvsa_engine._clear(low, high, err)

    def test_gap_past_both_limits_is_clear(self):
        assert mvsa_engine._clear(1.0, 2.0, 1e-5)
        assert mvsa_engine._clear(0.0, 1e-300, 0.0)


class TestFitMvsa:
    def test_sparse_recovery(self, uniform_3d):
        rng = np.random.default_rng(12)
        support = MultiIndexSet([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)])
        truth = rng.uniform(0.5, 2.0, size=(5, 2))
        x = rng.uniform(-1, 1, (100, 3))
        y = DesignBuilder(uniform_3d, x).matrix(support) @ truth
        model = fit_mvsa(TrainingData(x, y), uniform_3d)
        positions = {k: i for i, k in enumerate(model.basis.indices)}
        assert all(k in positions for k in support)
        for row, k in enumerate(support):
            assert np.max(np.abs(model.coefficients[positions[k]] - truth[row])) < 1e-8
        x_test = rng.uniform(-1, 1, (50, 3))
        y_test = DesignBuilder(uniform_3d, x_test).matrix(support) @ truth
        assert np.max(np.abs(predict(model, x_test) - y_test)) < 1e-8

    def test_single_sample_rejected_before_any_solve(self):
        # the initial set must be strictly smaller than the sample count
        data = TrainingData(np.array([[0.3, -0.2]]), np.array([[5.0, -1.0]]))
        with pytest.raises(ConfigError):
            fit_mvsa(data, normal_spec(2))

    @pytest.mark.parametrize("m", [3, 40], ids=["M<=Q", "M>Q"])
    def test_sets_up_once_per_fit(self, monkeypatch, m):
        # One design builder and one response factor serve expansion and
        # pruning; when M > Q, only the final solve sees all M outputs.
        counts = {"builders": 0, "factors": 0, "full_solves": 0}

        class CountingBuilder(mvsa_engine.DesignBuilder):
            def __init__(self, *args):
                counts["builders"] += 1
                super().__init__(*args)

        def counting_factor(responses):
            counts["factors"] += 1
            return _response_factor(responses)

        def counting_solve(matrix, rhs):
            counts["full_solves"] += rhs.shape[1] == m
            return solve_with_condition(matrix, rhs)

        monkeypatch.setattr(mvsa_engine, "DesignBuilder", CountingBuilder)
        monkeypatch.setattr(mvsa_engine, "_response_factor", counting_factor)
        monkeypatch.setattr(mvsa_engine, "solve_with_condition", counting_solve)
        rng = np.random.default_rng(13)
        x = rng.normal(size=(30, 2))
        y = np.column_stack([np.sin(k * x[:, 0]) + x[:, 1] ** 2 for k in range(1, m + 1)])
        model = fit_mvsa(TrainingData(x, y), normal_spec(2))
        assert model.trace.steps and model.n_outputs == m
        assert counts["builders"] == 1 and counts["factors"] == 1
        if m > len(x):
            assert counts["full_solves"] == 1

    def test_duplicate_rows_degrade_to_termination_not_exception(self):
        # identical sample rows collapse the design rank; the fit must end
        # through the ill-conditioning exit and prune back to the constant
        row = np.array([[0.4, -1.1]])
        data = TrainingData(np.repeat(row, 6, axis=0), np.full((6, 2), 3.0))
        model = fit_mvsa(data, normal_spec(2))
        assert model.trace.termination == "ill_conditioned"
        assert model.basis.indices == ((0, 0),)
        assert np.allclose(model.coefficients, [[3.0, 3.0]], rtol=1e-14)

    def test_two_samples_reduce_to_tiny_model(self):
        # expansion is immediately underdetermined and pruning trims the
        # extended set down to the sample count
        rng = np.random.default_rng(22)
        x = rng.normal(size=(2, 2))
        data = TrainingData(x, np.array([[5.0], [5.0]]))
        model = fit_mvsa(data, normal_spec(2))
        assert len(model.basis) <= 2
        assert (0, 0) in model.basis
        assert model.diagnostics.condition_number <= 100.0

    def test_loop_guard_invariants(self):
        rng = np.random.default_rng(21)
        x = rng.normal(size=(40, 3))
        y = np.column_stack([np.exp(0.3 * x[:, 0]), x[:, 1] * x[:, 0]])
        model = fit_mvsa(TrainingData(x, y), normal_spec(3))
        assert len(model.basis) <= 40
        assert model.diagnostics.condition_number <= 100.0
        replay_expansion(model.trace)

    def test_determinism(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(35, 2))
        y = np.column_stack([x[:, 0] ** 2, np.sin(x[:, 1])])
        data = TrainingData(x, y)
        a = fit_mvsa(data, normal_spec(2))
        b = fit_mvsa(data, normal_spec(2))
        assert a.basis == b.basis
        assert np.array_equal(a.coefficients, b.coefficients)
        assert a.diagnostics == b.diagnostics

    def test_response_scaling_invariance(self):
        # a response outside the polynomial span keeps every indicator well
        # above the rounding noise floor, where argmax/argmin selections are
        # scale-invariant
        rng = np.random.default_rng(14)
        x = rng.normal(size=(45, 2))
        y = np.column_stack([np.exp(0.4 * x[:, 0]), np.sin(x[:, 0] * x[:, 1])])
        alpha = 3.7
        base = fit_mvsa(TrainingData(x, y), normal_spec(2))
        scaled = fit_mvsa(TrainingData(x, alpha * y), normal_spec(2))
        assert scaled.basis == base.basis
        assert [s.added for s in scaled.trace.steps] == [s.added for s in base.trace.steps]
        assert np.allclose(scaled.coefficients, alpha * base.coefficients, rtol=1e-12)
        assert np.allclose(
            sensitivity_indicators(scaled.coefficients),
            alpha**2 * sensitivity_indicators(base.coefficients),
            rtol=1e-10,
        )


class TestFitFixed:
    def test_affine_model_coefficients(self):
        rng = np.random.default_rng(15)
        x = rng.normal(size=(50, 2))
        y = 3.0 + x[:, :1]
        model = fit_fixed(TrainingData(x, y), normal_spec(2), total_degree_set(2, 1))
        coeff = {k: model.coefficients[i, 0] for i, k in enumerate(model.basis.indices)}
        assert coeff[(0, 0)] == pytest.approx(3.0, abs=1e-10)
        assert coeff[(1, 0)] == pytest.approx(1.0, abs=1e-10)
        assert coeff[(0, 1)] == pytest.approx(0.0, abs=1e-10)

    def test_mean_only_basis(self):
        rng = np.random.default_rng(16)
        x = rng.normal(size=(20, 1))
        y = np.column_stack([x[:, 0], 2.0 * x[:, 0]])
        model = fit_fixed(TrainingData(x, y), normal_spec(1), total_degree_set(1, 0))
        assert np.allclose(model.coefficients, y.mean(axis=0, keepdims=True), atol=1e-12)

    def test_min_norm_interpolates_at_full_row_rank(self):
        rng = np.random.default_rng(17)
        x = rng.uniform(-1, 1, (5, 1))
        spec = DistributionSpec([Marginal.uniform(-1, 1)])
        y = np.tanh(2 * x)
        model = fit_fixed(TrainingData(x, y), spec, total_degree_set(1, 9))
        assert model.diagnostics.condition_number == np.inf
        assert np.max(np.abs(predict(model, x) - y)) < 1e-8


class TestPceModel:
    @pytest.mark.parametrize(
        "coefficients, error",
        [
            (np.zeros(2), r"must form a 2 x M array, M >= 1; got shape \(2,\)"),
            (np.zeros((2, 0)), r"got shape \(2, 0\)"),
            (np.zeros((2, 1, 1)), r"got shape \(2, 1, 1\)"),
            (np.zeros((3, 1)), r"got shape \(3, 1\)"),
            (np.array([[1.0], [np.inf]]), "non-finite entries in model coefficients"),
            (np.array([[np.nan, 1.0], [1.0, 1.0]]), "non-finite entries in model coefficients"),
            ([[1.0], [2.0, 3.0]], "model coefficients are not a numeric array: setting an array element"),
            ([["a"], ["b"]], "model coefficients are not a numeric array: coefficients hold text, not real numbers"),
            ([[10**400], [1.0]], "model coefficients are not a numeric array: int too large"),
            (np.array([[1 + 2j], [3 + 0j]]), "model coefficients are not a numeric array: coefficients hold complex"),
            ([[1, 2], [3, 4]], None),
        ],
        ids=[
            "1d", "no-columns", "3d", "row-count", "inf", "nan", "ragged", "strings", "huge-int", "complex", "int-list",
        ],
    )
    def test_coefficient_rules(self, coefficients, error):
        basis = MultiIndexSet([(0,), (1,)])
        diagnostics = FitDiagnostics.of(basis, 1.0, 0, 0, "fixed")

        def build():
            return PceModel(spec=normal_spec(1), basis=basis, coefficients=coefficients, diagnostics=diagnostics)

        if error is not None:
            with pytest.raises(DataError, match=error):
                build()
            return
        model = build()
        assert model.coefficients.dtype == np.float64
        assert np.array_equal(model.coefficients, [[1.0, 2.0], [3.0, 4.0]])
        assert model.n_outputs == 2


class TestPredict:
    def test_mean_only_prediction(self, standard_normal_2d):
        model = build_model(standard_normal_2d, [(0, 0)], [[4.0, -2.0]])
        out = predict(model, np.zeros((3, 2)))
        assert np.array_equal(out, np.tile([4.0, -2.0], (3, 1)))

    def test_width_mismatch(self, standard_normal_2d):
        model = build_model(standard_normal_2d, [(0, 0)], [[1.0]])
        with pytest.raises(DataError):
            predict(model, np.zeros((3, 1)))

    def test_empty_input(self, standard_normal_2d):
        model = build_model(standard_normal_2d, [(0, 0)], [[1.0, 2.0, 3.0]])
        assert predict(model, np.empty((0, 2))).shape == (0, 3)

    @pytest.mark.parametrize(
        "inputs, message",
        [
            ([[0.5j, 0.0]], "inputs hold complex values"),
            ([["a", 0.0]], "inputs hold text, not real numbers$"),
            # A float conversion would read '0_5' as 5.
            ([["0_5", "0"]], "inputs hold text, not real numbers$"),
        ],
        ids=["complex", "text", "numeric-text"],
    )
    def test_rejects_inputs_that_are_not_real_numbers(self, standard_normal_2d, inputs, message):
        model = build_model(standard_normal_2d, [(0, 0)], [[1.0]])
        with pytest.raises(DataError, match=f"^inputs are not a numeric array: {message}"):
            predict(model, inputs)


class TestPersistence:
    def test_round_trip_prediction_is_bit_identical(self, tmp_path):
        rng = np.random.default_rng(18)
        x = rng.normal(size=(40, 2))
        y = np.column_stack([x[:, 0] ** 2 + x[:, 1], x[:, 0] * x[:, 1]])
        model = fit_mvsa(TrainingData(x, y), normal_spec(2))
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        fresh = rng.normal(size=(25, 2))
        assert np.array_equal(predict(model, fresh), predict(loaded, fresh))
        assert loaded.basis == model.basis
        assert loaded.diagnostics == model.diagnostics

    def test_json_layout(self, standard_normal_2d):
        model = build_model(standard_normal_2d, [(0, 0), (1, 0)], [[1.0], [2.0]])
        payload = model_to_json(model)
        assert payload["format_version"] == 1
        assert payload["basis"] == [[0, 0], [1, 0]]
        assert payload["coefficients"] == [[1.0], [2.0]]
        assert payload["spec"][0] == {"kind": "normal", "params": [0.0, 1.0]}
        restored = model_from_json(json.loads(json.dumps(payload)))
        assert restored.basis == model.basis
        assert np.array_equal(restored.coefficients, model.coefficients)

    def test_saved_bytes_are_pinned(self, tmp_path):
        # Built by hand: floats as their repr, an infinite condition number as Infinity.
        diagnostics = FitDiagnostics(
            condition_number=float("inf"), iterations=1, pruned_count=0, max_total_degree=1,
            max_univariate_degree=1, basis_size=2, termination="ill_conditioned",
        )
        model = PceModel(
            spec=normal_spec(1),
            basis=MultiIndexSet([(0,), (1,)]),
            coefficients=np.array([[0.1, -0.0, 1e-05], [1e16, 5e-324, 2.0]]),
            diagnostics=diagnostics,
        )
        path = tmp_path / "model.json"
        save_model(model, path)
        assert path.read_bytes() == (
            b'{"format_version": 1, "spec": [{"kind": "normal", "params": [0.0, 1.0]}], '
            b'"basis": [[0], [1]], "coefficients": [[0.1, -0.0, 1e-05], [1e+16, 5e-324, 2.0]], '
            b'"diagnostics": {"condition_number": Infinity, "iterations": 1, "pruned_count": 0, '
            b'"max_total_degree": 1, "max_univariate_degree": 1, "basis_size": 2, '
            b'"termination": "ill_conditioned"}}\n'
        )

    def test_load_errors(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            load_model(tmp_path / "none.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(DataError, match="invalid JSON"):
            load_model(bad)
        wrong = tmp_path / "wrong.json"
        wrong.write_text('{"format_version": 99}')
        with pytest.raises(DataError, match="format_version"):
            load_model(wrong)
