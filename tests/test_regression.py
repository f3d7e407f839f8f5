import csv
import io
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from mvsapce.errors import DataError, DomainError
from mvsapce.multi_index import MultiIndexSet, total_degree_set
from mvsapce.mvsa_engine import fit_fixed
from mvsapce.polynomial_basis import DEGREE_CAP, DistributionSpec, Marginal, univariate_table
from mvsapce.regression import (
    DesignBuilder,
    TrainingData,
    load_data_csv,
    load_inputs_csv,
    rmse,
    solve_with_condition,
    write_csv_table,
    write_data_csv,
    write_json_file,
    write_responses_csv,
)

from reference import brute_force_design


def solver_condition(design):
    """The condition number that the one solve path reports for ``design``."""
    return solve_with_condition(design, np.zeros((design.shape[0], 1)))[1]


class TestTrainingData:
    def test_rejects_non_finite(self):
        with pytest.raises(DataError, match="^row 2, x1: non-finite value$"):
            TrainingData(np.array([[1.0], [np.nan]]), np.array([[1.0], [2.0]]))
        with pytest.raises(DataError, match="^row 1, y1: non-finite value$"):
            TrainingData(np.array([[1.0]]), np.array([[np.inf]]))
        # the first bad row, then its first bad column
        responses = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, -np.inf], [np.nan, 8.0, 9.0]])
        with pytest.raises(DataError, match="^row 2, y3: non-finite value$"):
            TrainingData(np.zeros((3, 2)), responses)

    def test_rejects_row_mismatch(self):
        with pytest.raises(DataError):
            TrainingData(np.zeros((3, 2)), np.zeros((2, 1)))

    def test_rejects_zero_response_columns(self):
        with pytest.raises(DataError, match="response column"):
            TrainingData(np.zeros((3, 2)), np.zeros((3, 0)))

    def test_promotes_vector_responses(self):
        data = TrainingData(np.zeros((4, 2)), np.arange(4.0))
        assert data.responses.shape == (4, 1)
        assert data.inputs.shape[1] == 2 and data.n_outputs == 1

    @pytest.mark.parametrize(
        "inputs, responses, shapes",
        [
            (np.ones((5, 2)), np.ones((5, 2, 2)), "inputs (5, 2) and responses (5, 2, 2)"),
            (np.ones((5, 2, 1)), np.ones(5), "inputs (5, 2, 1) and responses (5, 1)"),
            (np.ones((1, 2)), 3.0, "inputs (1, 2) and responses ()"),
        ],
        ids=["3-d-responses", "3-d-inputs", "0-d-responses"],
    )
    def test_rejects_arrays_that_are_not_2d(self, inputs, responses, shapes):
        # 1-D responses become a column first; anything else not 2-D is refused.
        with pytest.raises(DataError, match=rf"^training data must be 2-D, got {re.escape(shapes)}$"):
            TrainingData(inputs, responses)

    def test_rejects_non_numeric_entries(self):
        message = "^training data are not numeric arrays: inputs hold text, not real numbers$"
        with pytest.raises(DataError, match=message):
            TrainingData([["a"]], [[1.0]])
        with pytest.raises(DataError, match="^training data are not numeric arrays: .*inhomogeneous"):
            TrainingData([[1.0], [1.0, 2.0]], [[1.0], [2.0]])

    def test_rejects_numeric_text(self):
        # A float conversion would read '1_0' as 10 and ' 2 ' as 2, which the
        # data files' number grammar refuses.
        message = "^training data are not numeric arrays: {} hold text, not real numbers$"
        with pytest.raises(DataError, match=message.format("inputs")):
            TrainingData([["1_0"], [" 2 "], ["3"]], ["1", "2", "3e0"])
        with pytest.raises(DataError, match=message.format("responses")):
            TrainingData(np.ones((3, 1)), ["1", "2", "3e0"])
        with pytest.raises(DataError, match=message.format("inputs")):
            TrainingData(np.array([["1_0"], [" 2 "], ["3"]], dtype=object), np.array(["1", "2", "3e0"], dtype=object))

    def test_rejects_complex_entries(self):
        # A float conversion would keep 1, 2 and 0 and only warn.
        with pytest.raises(DataError, match="^training data are not numeric arrays: inputs hold complex values"):
            TrainingData(np.array([[1 + 2j], [2 + 0j], [3j]]), np.ones(3))
        with pytest.raises(DataError, match="^training data are not numeric arrays: responses hold complex values"):
            TrainingData(np.ones((3, 1)), np.array([1.0, 2.0, 3.0 + 0j]))


class TestAssembleDesign:
    def test_constant_basis_gives_ones(self, standard_normal_2d):
        design = DesignBuilder(standard_normal_2d, np.zeros((5, 2))).matrix(MultiIndexSet([(0, 0)]))
        assert np.array_equal(design, np.ones((5, 1)))

    def test_first_degree_row(self):
        spec = DistributionSpec([Marginal.normal(0, 1)])
        design = DesignBuilder(spec, [[0.5]]).matrix(MultiIndexSet([(0,), (1,)]))
        assert np.allclose(design, [[1.0, 0.5]], rtol=0, atol=0)

    def test_hermite_degree_two_zero_crossing(self, standard_normal_2d):
        # He_2(1) = 0, so the (2, 0) column vanishes at x1 = 1
        basis = MultiIndexSet([(0, 0), (2, 0)])
        design = DesignBuilder(standard_normal_2d, [[1.0, -1.0]]).matrix(basis)
        assert design[0, 0] == 1.0
        assert abs(design[0, 1]) < 1e-15

    def test_matches_legendre_closed_form(self, uniform_3d):
        # On U[-1, 1] inputs are their own reference variable, and each entry
        # is prod_n sqrt(2 k_n + 1) P_{k_n}(x_n) with numpy's Legendre series.
        rng = np.random.default_rng(3)
        basis = total_degree_set(3, 3)
        x = rng.uniform(-1, 1, (6, 3))
        design = DesignBuilder(uniform_3d, x).matrix(basis)
        for q in range(6):
            for j, index in enumerate(basis):
                expected = 1.0
                for x_n, k_n in zip(x[q], index):
                    expected *= np.sqrt(2 * k_n + 1) * np.polynomial.legendre.legval(x_n, [0] * k_n + [1])
                assert design[q, j] == pytest.approx(expected, rel=1e-12)

    def test_domain_error_carries_row_context(self):
        spec = DistributionSpec([Marginal.lognormal(1.0, 0.1)])
        with pytest.raises(DataError, match="^row 2, x1: "):
            DesignBuilder(spec, [[1.0], [-2.0]]).matrix(MultiIndexSet([(0,)]))
        uniform = DistributionSpec([Marginal.uniform(-1.0, 1.0)])
        with pytest.raises(DomainError, match="^row 3, x1: "):
            DesignBuilder(uniform, [[0.5], [1.0], [1.5]])

    @pytest.mark.parametrize(
        "inputs, message",
        [
            (np.array([[0.5 + 0j, 0.0]]), "^inputs are not a numeric array: inputs hold complex values"),
            ([["a", 0.0]], "^inputs are not a numeric array: inputs hold text, not real numbers$"),
        ],
        ids=["complex", "text"],
    )
    def test_rejects_inputs_that_are_not_real_numbers(self, standard_normal_2d, inputs, message):
        with pytest.raises(DataError, match=message):
            DesignBuilder(standard_normal_2d, inputs)
        with pytest.raises(DataError, match=message):
            standard_normal_2d.standardize_rows(inputs)

    def test_rejects_index_of_wrong_length(self, standard_normal_2d):
        builder = DesignBuilder(standard_normal_2d, np.zeros((3, 2)))
        with pytest.raises(DataError, match=r"term \(0, 1, 0\) has 3 entries, the inputs have 2"):
            builder.matrix([(0, 0), (0, 1, 0)])
        with pytest.raises(DataError, match="has 1 entries"):
            builder.matrix(MultiIndexSet([(0,), (1,)]))

    def test_rejects_non_finite_column(self, standard_normal_2d):
        # He_2(1e200) overflows; the error names the term and the first bad row
        builder = DesignBuilder(standard_normal_2d, [[0.0, 1.0], [1e200, 0.0], [-1e200, 0.0]])
        assert np.array_equal(builder.column((1, 0)), [0.0, 1e200, -1e200])
        with pytest.raises(DataError, match=r"term \(2, 0\) is not finite at input row 2"):
            builder.matrix([(0, 0), (2, 0)])
        with pytest.raises(DataError, match=r"term \(1, 1\) is not finite at input row 1"):
            DesignBuilder(standard_normal_2d, [[1e160, 1e160]]).column((1, 1))


MIXED_4D = DistributionSpec(
    [Marginal.normal(0.0, 1.0), Marginal.uniform(-1.0, 1.0), Marginal.lognormal(2.0, 0.5), Marginal.uniform(0.0, 3.0)]
)


def mixed_inputs(rows, seed=0):
    return MIXED_4D.sample(rows, np.random.default_rng(seed))


class TestDesignGather:
    """matrix() builds every column of a call in one pass."""

    def test_td3_equals_products_in_increasing_input_order(self):
        x = mixed_inputs(40)
        basis = total_degree_set(4, 3)
        z = MIXED_4D.standardize_rows(x)
        tables = [univariate_table(family, 3, z[:, n]) for n, family in enumerate(m.family for m in MIXED_4D.marginals)]
        expected = np.ones((40, len(basis)))
        for j, index in enumerate(basis):
            for n, degree in enumerate(index):
                if degree:
                    expected[:, j] = expected[:, j] * tables[n][:, degree]
        assert np.array_equal(DesignBuilder(MIXED_4D, x).matrix(basis), expected)

    def test_warm_builder_matches_fresh_builder(self):
        x = mixed_inputs(30, seed=1)
        terms = list(total_degree_set(4, 3))
        warm = DesignBuilder(MIXED_4D, x)
        warm.matrix(terms[::3][::-1])
        warm.column(terms[7])
        # terms built before and new ones interleaved, not in lexicographic order, one repeat
        order = [terms[i] for i in np.random.default_rng(2).permutation(len(terms))]
        order.insert(5, order[20])
        fresh = DesignBuilder(MIXED_4D, x).matrix(order)
        assert np.array_equal(warm.matrix(order), fresh)
        assert np.array_equal(fresh[:, 5], fresh[:, 21])
        reference = DesignBuilder(MIXED_4D, x).matrix(terms)
        assert np.array_equal(fresh, reference[:, [terms.index(t) for t in order]])
        assert np.array_equal(DesignBuilder(MIXED_4D, x).column(order[3]), fresh[:, 3])

    def test_fresh_and_warm_designs_are_the_same_bytes(self):
        # A builder that has built some of the columns before and a fresh
        # one give the same bytes and the same F-ordered layout.
        x = mixed_inputs(25, seed=4)
        terms = list(total_degree_set(4, 3))
        warm = DesignBuilder(MIXED_4D, x)
        warm.matrix(terms[1::4])
        fresh = DesignBuilder(MIXED_4D, x).matrix(terms)
        again = warm.matrix(terms)
        assert fresh.tobytes(order="A") == again.tobytes(order="A")
        assert fresh.flags.f_contiguous and again.flags.f_contiguous

    def test_a_write_into_a_design_leaves_later_designs_alone(self):
        x = mixed_inputs(25, seed=5)
        terms = list(total_degree_set(4, 2))
        builder = DesignBuilder(MIXED_4D, x)
        expected = builder.matrix(terms).copy()
        written = builder.matrix(terms)
        written[:] = np.nan
        builder.column(terms[3])[:] = np.nan
        assert np.array_equal(builder.matrix(terms), expected)
        assert np.array_equal(builder.matrix(terms[::-1]), expected[:, ::-1])
        assert np.array_equal(builder.column(terms[3]), expected[:, 3])

    @pytest.mark.parametrize("basis", [[], MultiIndexSet([], dim=4)], ids=["list", "set"])
    def test_empty_basis_gives_a_q_by_0_design(self, basis):
        design = DesignBuilder(MIXED_4D, mixed_inputs(7)).matrix(basis)
        assert design.shape == (7, 0) and design.dtype == np.float64

    def test_first_non_finite_term_in_basis_order(self):
        # He_3 of x1 overflows at rows 1 and 2, He_2 only at row 2
        x = mixed_inputs(4, seed=3)
        x[1, 0] = 1e110
        x[2, 0] = 1e200
        builder = DesignBuilder(MIXED_4D, x)
        builder.matrix([(0, 0, 0, 0), (1, 0, 0, 0)])
        basis = [(0, 0, 0, 0), (0, 1, 0, 1), (3, 0, 0, 0), (1, 0, 0, 0), (2, 0, 0, 0)]
        with pytest.raises(DataError, match=r"term \(3, 0, 0, 0\) is not finite at input row 2"):
            builder.matrix(basis)
        with pytest.raises(DataError, match=r"term \(2, 0, 0, 0\) is not finite at input row 3"):
            builder.matrix(basis[::-1])

    # Terms with no factor, with one, with prefixes shared or not in the call, repeated, and up to DEGREE_CAP.
    GATHER_TERMS = [
        (3, 0, 2, 0), (0, 0, 0, 0), (1, 0, 0, 0), (0, 0, 0, DEGREE_CAP), (1, 2, 0, 0), (1, 2, 0, 0), (1, 2, 3, 0),
        (1, 2, 3, 4), (1, 2, 0, 5), (1, 2, 3, DEGREE_CAP), (DEGREE_CAP, DEGREE_CAP, DEGREE_CAP, DEGREE_CAP),
        (0, DEGREE_CAP, 0, 1), (0, 1, 0, 0), (2, 0, 0, 0), (3, 0, 0, 0), (0, 0, 2, 0), (0, 7, 0, 0), (0, 7, 1, 0),
    ]

    @pytest.mark.parametrize(
        "spec",
        [
            DistributionSpec([Marginal.normal(0.0, 1.0)] * 4),
            DistributionSpec([Marginal.uniform(-1.0, 1.0)] * 4),
            MIXED_4D,
        ],
        ids=["hermite", "legendre", "mixed"],
    )
    def test_gather_equals_the_brute_force_product_bit_for_bit(self, spec):
        x = spec.sample(50, np.random.default_rng(6))
        builder = DesignBuilder(spec, x)
        # The lexicographic order puts every prefix before its term; the given one puts some after.
        for terms in (self.GATHER_TERMS, sorted(self.GATHER_TERMS), self.GATHER_TERMS[::-1]):
            expected = brute_force_design(spec, x, terms)
            assert np.isfinite(expected).all()
            assert np.array_equal(builder.matrix(terms), expected)
            assert np.array_equal(DesignBuilder(spec, x).matrix(terms), expected)
            assert np.array_equal(builder.matrix([list(term) for term in terms]), expected)
        for term in self.GATHER_TERMS:
            assert np.array_equal(builder.column(term), brute_force_design(spec, x, [term])[:, 0])

    def test_overflowing_product_of_a_shared_prefix_is_one_data_error_without_a_warning(self):
        # x1 = x2 = 1e160 at row 2: each factor is finite, their product is not, and (1, 1, 0) is the prefix
        # of (1, 1, 1).
        spec = DistributionSpec([Marginal.normal(0.0, 1.0)] * 3)
        x = spec.sample(3, np.random.default_rng(7))
        x[1, :2] = 1e160
        builder = DesignBuilder(spec, x)
        terms = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (1, 1, 1)]
        assert np.isfinite(builder.matrix(terms[:3])).all()
        assert np.isinf(brute_force_design(spec, x, terms)[1, 3:]).all()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match=r"^term \(1, 1, 0\) is not finite at input row 2$"):
                builder.matrix(terms)
            with pytest.raises(DataError, match=r"^term \(1, 1, 1\) is not finite at input row 2$"):
                builder.matrix(terms[::-1])

    def test_wrong_length_in_a_batch(self):
        builder = DesignBuilder(MIXED_4D, mixed_inputs(3))
        builder.matrix([(0, 0, 0, 0), (1, 0, 0, 0)])
        with pytest.raises(DataError, match=r"^term \(0, 2, 0\) has 3 entries, the inputs have 4$"):
            builder.matrix([(1, 0, 0, 0), (0, 0, 1, 0), (0, 2, 0), (0, 1)])


class TestSolveOls:
    def test_exact_representation_with_scaled_orthonormal_columns(self):
        rng = np.random.default_rng(0)
        q_factor, _ = np.linalg.qr(rng.normal(size=(4, 2)))
        design = 2.0 * q_factor
        rhs = 2.0 * q_factor[:, :1]
        coeffs, _ = solve_with_condition(design, rhs)
        assert np.allclose(coeffs, [[1.0], [0.0]], atol=1e-14)

    def test_identity_design_returns_rhs(self):
        rhs = np.arange(12.0).reshape(4, 3)
        assert np.allclose(solve_with_condition(np.eye(4), rhs)[0], rhs, atol=1e-14)

    def test_min_norm_underdetermined(self):
        coeffs, cond = solve_with_condition(np.array([[1.0, 1.0]]), np.array([2.0]))
        assert np.allclose(coeffs, [1.0, 1.0], atol=1e-14)
        assert cond == np.inf

    def test_rejects_non_finite(self, standard_normal_2d):
        # the solve itself is unchecked: a non-finite design entry stops at
        # DesignBuilder, a non-finite response at TrainingData, so a fit
        # never hands either to LAPACK
        x = np.array([[0.0, 0.0], [1e200, 1.0], [1.0, -1.0], [0.5, 2.0]])
        data = TrainingData(x, np.arange(4.0))
        with pytest.raises(DataError, match="not finite at input row 2"):
            fit_fixed(data, standard_normal_2d, total_degree_set(2, 2))
        with pytest.raises(DataError, match="^row 1, y1: non-finite value$"):
            TrainingData(np.eye(2), np.array([np.inf, 0.0]))

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(11)
        design = rng.normal(size=(40, 7))
        rhs = rng.normal(size=(40, 3))
        coeffs, _ = solve_with_condition(design, rhs)
        residual = rhs - design @ coeffs
        assert np.max(np.abs(design.T @ residual)) <= 1e-8 * np.max(np.abs(rhs))

    def test_exact_recovery(self, uniform_3d):
        rng = np.random.default_rng(5)
        basis = total_degree_set(3, 2)
        truth = rng.normal(size=(len(basis), 4))
        x = rng.uniform(-1, 1, (80, 3))
        design = DesignBuilder(uniform_3d, x).matrix(basis)
        recovered, _ = solve_with_condition(design, design @ truth)
        assert np.max(np.abs(recovered - truth)) <= 1e-8

    @given(
        n_rows=st.integers(min_value=2, max_value=12),
        n_cols=st.integers(min_value=1, max_value=6),
        n_rhs=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=40, deadline=None)
    def test_multi_rhs_equals_columnwise(self, n_rows, n_cols, n_rhs, seed):
        rng = np.random.default_rng(seed)
        design = rng.normal(size=(n_rows, n_cols))
        rhs = rng.normal(size=(n_rows, n_rhs))
        # nearly singular draws amplify last-ulp solver differences past
        # any fixed entrywise bound; the equivalence targets posed systems
        s = np.linalg.svd(design, compute_uv=False)
        assume(s[-1] > 1e-6 * s[0])
        joint, _ = solve_with_condition(design, rhs)
        for m in range(n_rhs):
            single, _ = solve_with_condition(design, rhs[:, m])
            assert np.max(np.abs(joint[:, m] - single)) <= 1e-12


class TestConditionNumber:
    def test_single_ones_column(self):
        assert solver_condition(np.ones((6, 1))) == 1.0

    def test_diagonal(self):
        assert solver_condition(np.diag([2.0, 1.0])) == pytest.approx(2.0, rel=1e-14)

    def test_near_collinear_is_infinite(self):
        design = np.array([[1.0, 1.0], [0.0, 1e-16], [0.0, 0.0]])
        assert solver_condition(design) == np.inf

    def test_underdetermined_is_infinite(self):
        assert solver_condition(np.ones((2, 5))) == np.inf

    def test_invariant_under_column_permutation_and_scaling(self):
        rng = np.random.default_rng(9)
        design = rng.normal(size=(20, 6))
        base = solver_condition(design)
        permuted = design[:, rng.permutation(6)]
        assert solver_condition(permuted) == pytest.approx(base, rel=1e-12)
        assert solver_condition(3.5 * design) == pytest.approx(base, rel=1e-12)


class TestRmse:
    def test_zero_for_equal_inputs(self):
        values = np.arange(8.0).reshape(4, 2)
        assert np.array_equal(rmse(values, values), np.zeros(2))

    def test_known_errors(self):
        out = rmse(np.array([[3.0], [4.0]]), np.zeros((2, 1)))
        assert out[0] == pytest.approx(5.0 / np.sqrt(2.0), rel=1e-15)

    def test_constant_offset(self):
        actual = np.random.default_rng(1).normal(size=(10, 3))
        assert np.allclose(rmse(actual + 0.25, actual), 0.25, rtol=1e-12)

    @pytest.mark.parametrize("shape", [(7,), (33, 1), (33, 4), (1000, 1000)])
    def test_bits_equal_the_one_pass_formula(self, shape):
        rng = np.random.default_rng(len(shape) + shape[0])
        predicted = rng.normal(size=shape)
        actual = predicted + 1e-3 * rng.normal(size=shape)
        expected = np.sqrt(np.mean((predicted - actual) ** 2, axis=0))
        assert rmse(predicted, actual).tobytes() == np.atleast_1d(expected).tobytes()

    def test_shape_mismatch(self):
        with pytest.raises(DataError):
            rmse(np.zeros((2, 1)), np.zeros((3, 1)))

    @pytest.mark.parametrize(
        "values",
        [np.float64(1.0), np.zeros(0), np.zeros((0, 3)), np.zeros((2, 2, 1))],
        ids=["0-d", "no-rows-1d", "no-rows-2d", "3-d"],
    )
    def test_rejects_shapes_without_rows_of_outputs(self, values):
        # The shape is refused before any mean, so no empty-slice warning escapes.
        message = rf"^RMSE needs 1-D or 2-D values with at least one row, got shape {re.escape(str(values.shape))}$"
        with pytest.raises(DataError, match=message):
            rmse(values, values.copy())

    @pytest.mark.parametrize(
        "predicted, actual, message",
        [
            ([1.0 + 1j], [1.0], "^RMSE needs numeric arrays: predicted values hold complex values"),
            ([1.0], np.array([1.0 + 0j]), "^RMSE needs numeric arrays: actual values hold complex values"),
            (["a"], ["b"], "^RMSE needs numeric arrays: predicted values hold text, not real numbers$"),
            (["1_0"], [" 10"], "^RMSE needs numeric arrays: predicted values hold text, not real numbers$"),
            (np.array(["1_0"], dtype=object), [10.0], "^RMSE needs numeric arrays: predicted values hold text"),
            (np.array([1.0, "2"], dtype=object), [1.0, 2.0], "^RMSE needs numeric arrays: predicted values hold text"),
            ([1.0], np.array([b"1"], dtype=object), "^RMSE needs numeric arrays: actual values hold text"),
        ],
        ids=["complex-predicted", "complex-actual", "text", "numeric-text", "object-text", "object-mixed", "bytes"],
    )
    def test_rejects_values_that_are_not_real_numbers(self, predicted, actual, message):
        with pytest.raises(DataError, match=message):
            rmse(predicted, actual)

    def test_overflowing_error_names_the_output(self):
        # (1e200)^2 overflows; the first bad output is named, numbered from 1
        with pytest.raises(DataError, match=r"^RMSE of output 2 is not finite$"):
            rmse(np.array([[0.0, 1e200, 1e200]]), np.zeros((1, 3)))
        with pytest.raises(DataError, match=r"^RMSE of output 1 is not finite$"):
            rmse(np.array([[1e200]]), np.array([[0.0]]))


class TestCsvInterface:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        inputs = rng.normal(size=(7, 3))
        responses = rng.normal(size=(7, 2))
        path = tmp_path / "data.csv"
        write_data_csv(path, inputs, responses)
        data = load_data_csv(path, 3, 2)
        assert np.array_equal(data.inputs, inputs)
        assert np.array_equal(data.responses, responses)

    def test_header_mismatch_names_widths(self, tmp_path):
        path = tmp_path / "data.csv"
        write_data_csv(path, np.zeros((2, 3)), np.zeros((2, 1)))
        with pytest.raises(DataError, match="2 inputs"):
            load_data_csv(path, 2, 2)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            load_data_csv(tmp_path / "absent.csv", 1, 1)

    def test_non_numeric_cell(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x1,y1\n1.0,oops\n")
        with pytest.raises(DataError, match="row 1"):
            load_data_csv(path, 1, 1)

    def test_header_only_inputs(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("x1,x2\n")
        assert load_inputs_csv(path, 2).shape == (0, 2)

    def test_inputs_ignore_response_columns(self, tmp_path):
        path = tmp_path / "full.csv"
        write_data_csv(path, np.ones((3, 2)), np.zeros((3, 2)))
        assert load_inputs_csv(path, 2).shape == (3, 2)

    def test_write_responses_header(self, tmp_path):
        path = tmp_path / "y.csv"
        write_responses_csv(path, np.empty((0, 3)))
        assert path.read_text().splitlines()[0] == "y1,y2,y3"

    def test_data_bytes_are_pinned(self, tmp_path):
        # Each float is written as its repr, built here by hand.
        path = tmp_path / "data.csv"
        write_data_csv(path, np.array([[-0.0, 5e-324]]), np.array([[1e16, 1e-05, 0.1]]))
        assert path.read_bytes() == b"x1,x2,y1,y2,y3\r\n-0.0,5e-324,1e+16,1e-05,0.1\r\n"

    def test_responses_bytes_are_pinned(self, tmp_path):
        path = tmp_path / "y.csv"
        write_responses_csv(path, np.array([[0.1, -0.0], [1e16, 5e-324], [1e-05, 2.0]]))
        assert path.read_bytes() == b"y1,y2\r\n0.1,-0.0\r\n1e+16,5e-324\r\n1e-05,2.0\r\n"

    @pytest.mark.parametrize(
        "header, message",
        [("x1", "x1,x2 (2 inputs, 0 outputs), got x1"), ("x1,x2,z1", "x1,x2,y1 (2 inputs, 1 outputs), got x1,x2,z1")],
        ids=["short", "wrong-trailing-name"],
    )
    def test_inputs_header_error_names_expected_header(self, tmp_path, header, message):
        path = tmp_path / "bad.csv"
        path.write_text(header + "\n0.5,0.5\n")
        with pytest.raises(DataError) as error:
            load_inputs_csv(path, 2)
        assert str(error.value) == f"{path}: expected header {message}"


def is_data_field(text: str) -> bool:
    """The data-field grammar, written out: no ASCII separator or ``_``, ASCII once stripped, and float() reads it."""
    if any(char in text for char in "\x1c\x1d\x1e\x1f_") or not text.strip().isascii():
        return False
    try:
        float(text)
    except ValueError:
        return False
    return True


def reference_read(text: str, width: int):
    """Rows of a data file's body by the data-field grammar, or the message for its first bad row."""
    # str.splitlines would also split at U+001C..U+001E; a data file's lines end at CR, LF or CRLF only.
    lines = re.split(r"\r\n|\r|\n", text)[1:]
    rows = []
    for q, line in enumerate((line for line in lines if line), start=1):
        fields = line.split(",")
        if len(fields) != width:
            return f"row {q} has {len(fields)} fields, expected {width}"
        for field in fields:
            if not is_data_field(field):
                return f"row {q}: could not convert string to float: {field!r}"
        rows.append([float(field) for field in fields])
    return np.array(rows).reshape(len(rows), width)


def read_outcome(path, width: int):
    """The rows ``load_inputs_csv`` returns, or its message without the path."""
    try:
        return load_inputs_csv(path, width)
    except DataError as error:
        return str(error).removeprefix(f"{path}: ")


def same_outcome(got, expected) -> bool:
    if isinstance(expected, str) or isinstance(got, str):
        return got == expected
    # bitwise, so -0.0 and the nan bits count
    return got.shape == expected.shape and np.array_equal(got.view(np.uint64), expected.view(np.uint64))


# Field texts of the second column of a two-column row, after a good row.
READER_DECISIONS = {
    "spaces": (" 1.5 ", [[1.5, 2.0]]),
    "tab": ("\t1", [[1.0, 2.0]]),
    "underscore": ("1_0", "row 2: could not convert string to float: '1_0'"),
    "quoted": ('"1.5"', "row 2: could not convert string to float: '\"1.5\"'"),
    "arabic-indic-digit": ("\u0661", "row 2: could not convert string to float: '\u0661'"),
    "plus": ("+1", [[1.0, 2.0]]),
    "leading-point": (".5", [[0.5, 2.0]]),
    "capital-exponent": ("1E5", [[1e5, 2.0]]),
    "inf": ("inf", [[math.inf, 2.0]]),
    "minus-inf": ("-inf", [[-math.inf, 2.0]]),
    "infinity": ("Infinity", [[math.inf, 2.0]]),
    "nan": ("nan", [[math.nan, 2.0]]),
    "overflow-to-inf": ("1e400", [[math.inf, 2.0]]),
    "empty-field": ("", "row 2: could not convert string to float: ''"),
    "hex": ("0x10", "row 2: could not convert string to float: '0x10'"),
    "comment-mark": ("#1", "row 2: could not convert string to float: '#1'"),
    # loadtxt strips U+001C..U+001F around a number; float() does not
    "file-separator": ("\x1c1", "row 2: could not convert string to float: '\\x1c1'"),
}


class TestReaderDecisions:
    """What the reader accepts and rejects: an ASCII number with optional whitespace, field by field."""

    @pytest.mark.parametrize(
        "body, expected",
        [(f"{text},2", rows) for text, rows in READER_DECISIONS.values()]
        + [
            ("1,2,", "row 2 has 3 fields, expected 2"),
            ("   ", "row 2 has 1 fields, expected 2"),
            ("\r\n\r\n3,4", [[3.0, 4.0]]),
            ("\r\n5,x", "row 2: could not convert string to float: 'x'"),
        ],
        ids=list(READER_DECISIONS) + ["trailing-comma", "whitespace-line", "blank-lines", "blank-line-then-bad"],
    )
    def test_field_texts(self, tmp_path, body, expected):
        # A good first row, so the decision is made at row 2.
        path = tmp_path / "data.csv"
        path.write_bytes(f"x1,x2\r\n0.5,-0.0\r\n{body}\r\n".encode("utf-8"))
        expected = expected if isinstance(expected, str) else np.array([[0.5, -0.0]] + expected)
        assert same_outcome(read_outcome(path, 2), expected)

    @given(
        rows=st.lists(
            st.lists(
                st.one_of(
                    st.floats().map(repr),
                    st.text(alphabet=list("0123456789.eE+-_ \t\"#xinfa,\r\n\x1c\x1e\x1f\x85\u0661\u00a0"), max_size=6),
                ),
                min_size=1,
                max_size=3,
            ),
            max_size=4,
        ),
        newline=st.sampled_from(["\r\n", "\n", "\r"]),
    )
    @example(rows=[["1", "2"], ["3\x1e", "4"]], newline="\n")
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_matches_the_per_field_loop(self, tmp_path, rows, newline):
        text = "x1,x2" + newline + "".join(",".join(row) + newline for row in rows)
        path = tmp_path / "data.csv"
        path.write_bytes(text.encode("utf-8"))
        assert same_outcome(read_outcome(path, 2), reference_read(text, 2))

    @given(
        body=st.one_of(
            st.binary(max_size=40), st.text(max_size=40).map(lambda text: text.encode("utf-8", "surrogatepass"))
        )
    )
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_refuses_only_with_data_errors(self, tmp_path, body):
        path = tmp_path / "data.csv"
        path.write_bytes(b"x1,x2\r\n" + body)
        try:
            assert load_inputs_csv(path, 2).shape[1] == 2
        except DataError:
            pass

    def test_header_only_body_has_its_width(self, tmp_path, recwarn):
        path = tmp_path / "data.csv"
        for body in ["", "\r\n", "\r\n\r\n"]:
            path.write_bytes(f"x1,x2,y1\r\n{body}".encode("utf-8"))
            assert load_inputs_csv(path, 2).shape == (0, 2)
        assert not recwarn.list


class TestWriterBytes:
    """write_csv_table writes what csv.writer writes, for the rows the toolkit writes."""

    ROWS = [
        [-0.0, 5e-324, 1e16, 1e-05, 0.1],
        [1, -7, 0, 2, 10**20],
        [1e300, -math.inf, math.inf, math.nan, -1e-300],
        # report rows: a method token, Q, seed, an output key, a value
        ["mvsa", 30, 0, "mean:1", 3.25],
        ["td:02", 150, 9, "std:1000", 5e-324],
        ["mcs", 0, 123456789, "mean:12", -0.0],
    ]

    def test_matches_csv_writer(self, tmp_path):
        header = ["method", "Q", "seed", "key", "value"]
        expected = io.StringIO(newline="")
        writer = csv.writer(expected)
        writer.writerow(header)
        writer.writerows(self.ROWS)
        path = tmp_path / "t.csv"
        write_csv_table(path, header, iter(self.ROWS))
        assert path.read_bytes() == expected.getvalue().encode("utf-8")

    @given(
        values=st.lists(
            st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=3, max_size=3),
            min_size=1,
            max_size=5,
        )
    )
    @example(values=[[-0.0, 5e-324, -2.2250738585072014e-308]])
    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_finite_doubles_round_trip_bitwise(self, tmp_path, values):
        array = np.array(values)
        path = tmp_path / "data.csv"
        write_data_csv(path, array[:, :2], array[:, 2:])
        data = load_data_csv(path, 2, 1)
        assert np.array_equal(np.hstack([data.inputs, data.responses]).view(np.uint64), array.view(np.uint64))


class TestJsonFile:
    def test_unencodable_payload_leaves_no_file(self, tmp_path):
        path = tmp_path / "out.json"
        with pytest.raises(TypeError):
            write_json_file(path, {"fine": 1.0, "bad": object()})
        assert not path.exists()
