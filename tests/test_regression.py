import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mvsapce.errors import DataError, DomainError
from mvsapce.multi_index import MultiIndexSet, total_degree_set
from mvsapce.mvsa_engine import fit_fixed
from mvsapce.polynomial_basis import DistributionSpec, Marginal
from mvsapce.regression import (
    DesignBuilder,
    TrainingData,
    load_data_csv,
    load_inputs_csv,
    rmse,
    solve_with_condition,
    write_data_csv,
    write_responses_csv,
)


def solver_condition(design):
    """The condition number that the one solve path reports for ``design``."""
    return solve_with_condition(design, np.zeros((design.shape[0], 1)))[1]


class TestTrainingData:
    def test_rejects_non_finite(self):
        with pytest.raises(DataError):
            TrainingData(np.array([[1.0], [np.nan]]), np.array([[1.0], [2.0]]))
        with pytest.raises(DataError):
            TrainingData(np.array([[1.0]]), np.array([[np.inf]]))

    def test_rejects_row_mismatch(self):
        with pytest.raises(DataError):
            TrainingData(np.zeros((3, 2)), np.zeros((2, 1)))

    def test_rejects_zero_response_columns(self):
        with pytest.raises(DataError, match="response column"):
            TrainingData(np.zeros((3, 2)), np.zeros((3, 0)))

    def test_promotes_vector_responses(self):
        data = TrainingData(np.zeros((4, 2)), np.arange(4.0))
        assert data.responses.shape == (4, 1)
        assert data.n_inputs == 2 and data.n_outputs == 1


class TestAssembleDesign:
    def test_constant_basis_gives_ones(self, standard_normal_2d):
        design = DesignBuilder(standard_normal_2d, np.zeros((5, 2))).matrix(MultiIndexSet([(0, 0)]))
        assert np.array_equal(design, np.ones((5, 1)))

    def test_first_degree_row(self):
        spec = DistributionSpec.of([Marginal.normal(0, 1)])
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
        spec = DistributionSpec.of([Marginal.lognormal(1.0, 0.1)])
        with pytest.raises(DataError, match="row 1"):
            DesignBuilder(spec, [[1.0], [-2.0]]).matrix(MultiIndexSet([(0,)]))
        uniform = DistributionSpec.of([Marginal.uniform(-1.0, 1.0)])
        with pytest.raises(DomainError, match="row 2"):
            DesignBuilder(uniform, [[0.5], [1.0], [1.5]])

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
        with pytest.raises(DataError, match=r"term \(2, 0\) is not finite at input row 1"):
            builder.matrix([(0, 0), (2, 0)])
        with pytest.raises(DataError, match=r"term \(1, 1\) is not finite at input row 0"):
            DesignBuilder(standard_normal_2d, [[1e160, 1e160]]).column((1, 1))


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
        with pytest.raises(DataError, match="not finite at input row 1"):
            fit_fixed(data, standard_normal_2d, total_degree_set(2, 2))
        with pytest.raises(DataError, match="non-finite entries in responses"):
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

    def test_shape_mismatch(self):
        with pytest.raises(DataError):
            rmse(np.zeros((2, 1)), np.zeros((3, 1)))


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
