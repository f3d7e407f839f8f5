import math
import warnings

import numpy as np
import pytest

from mvsapce.errors import ConfigError, DataError, DomainError
from mvsapce.polynomial_basis import (
    HERMITE,
    LEGENDRE,
    DistributionSpec,
    Marginal,
    real_array,
    univariate_table,
)
from mvsapce.regression import DesignBuilder

from conftest import quadrature_gram, tensor_quadrature_gram


class TestMarginalValidation:
    def test_rejects_nonpositive_std(self):
        with pytest.raises(ConfigError):
            Marginal.normal(0.0, 0.0)
        with pytest.raises(ConfigError):
            Marginal.lognormal(1.0, -0.1)

    def test_rejects_nonpositive_lognormal_mean(self):
        with pytest.raises(ConfigError):
            Marginal.lognormal(0.0, 1.0)

    @pytest.mark.parametrize(
        "mean, std", [(1e4, 1e308), (1.0, 5e-324)], ids=["ratio-squared-overflows", "sigma-underflows"]
    )
    def test_rejects_lognormal_std_far_from_the_mean_scale(self, mean, std):
        # (std/mean)^2 overflowed in log_parameters, or the log-scale sigma rounded to 0 and standardize
        # divided by it; both are refused at construction, without a warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match=r"^lognormal marginal requires 1e-160 <= std/mean <= 1e154, got "):
                Marginal.lognormal(mean, std)

    @pytest.mark.parametrize("std", [1e-160, 1e154])
    def test_lognormal_at_the_std_bounds_has_a_finite_positive_sigma(self, std):
        mu, sigma = Marginal.lognormal(1.0, std).log_parameters()
        assert math.isfinite(mu) and 0.0 < sigma < math.inf

    def test_rejects_empty_uniform_interval(self):
        with pytest.raises(ConfigError):
            Marginal.uniform(2.0, 2.0)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ConfigError):
            Marginal("beta", (1.0, 2.0))

    @pytest.mark.parametrize(
        "params",
        [(0, 1, 2), (0.0,), 5.0, ("a", 1.0), (None, 1.0), (10**400, 1.0),
         ("0.1_5", 1.0), (b"0.15", 1.0), "12", (True, 1.0), (0.0, np.True_)],
        ids=["three", "one", "scalar", "text", "none", "too-large",
             "underscore-text", "bytes", "string", "true", "numpy-true"],
    )
    def test_params_must_be_two_numbers(self, params):
        with pytest.raises(ConfigError, match=r"^normal marginal params must be two numbers, got "):
            Marginal("normal", params)

    def test_family_assignment(self):
        assert Marginal.normal(0, 1).family == HERMITE
        assert Marginal.lognormal(1, 1).family == HERMITE
        assert Marginal.uniform(0, 1).family == LEGENDRE


class TestStandardize:
    def test_standard_normal_is_identity(self):
        assert Marginal.normal(0.0, 1.0).standardize(1.3) == pytest.approx(1.3, abs=0)

    def test_uniform_midpoint_maps_to_zero(self):
        assert Marginal.uniform(0.0, 1.0).standardize(0.5) == 0.0

    def test_lognormal_moment_matched_at_mean(self):
        # Moment matching in closed form: sigma^2 = ln(1 + (s/m)^2),
        # mu = ln m - sigma^2 / 2, so x = m maps to sigma / 2.
        sigma = math.sqrt(math.log(1.0 + (0.0075 / 0.15) ** 2))
        z = Marginal.lognormal(0.15, 0.0075).standardize(0.15)
        assert z == pytest.approx(sigma / 2.0, rel=1e-14)
        assert z == pytest.approx(0.024984, abs=5e-7)

    def test_lognormal_moment_matching_against_samples(self):
        # The (mu, sigma) conversion is correct iff samples drawn with it
        # reproduce the requested mean and std of the lognormal variable.
        marginal = Marginal.lognormal(0.15, 0.0075)
        draws = marginal.sample(10**6, np.random.default_rng(42))
        assert draws.mean() == pytest.approx(0.15, rel=2e-4)
        assert draws.std(ddof=1) == pytest.approx(0.0075, rel=0.02)

    def test_lognormal_rejects_nonpositive_x(self):
        with pytest.raises(DomainError):
            Marginal.lognormal(1.0, 0.5).standardize(0.0)

    @pytest.mark.parametrize(
        "x", ["1_0", np.array(["1_0"]), np.array([1.0, "2"], dtype=object), b"3"],
        ids=["text", "string-array", "object-array", "bytes"],
    )
    def test_text_is_refused(self, x):
        # A float conversion would read "1_0" as 10.
        with pytest.raises(DataError, match="^normal marginal values are not a numeric array: values hold text"):
            Marginal.normal(0.0, 1.0).standardize(x)

    def test_float_columns_are_read_in_place(self):
        # standardize_rows hands each marginal a strided column of its float inputs.
        column = np.ones((4, 3))[:, 1]
        assert real_array(column, "values", "context") is column

    def test_uniform_rejects_outside_support(self):
        with pytest.raises(DomainError):
            Marginal.uniform(0.0, 1.0).standardize(1.5)

    def test_spec_error_names_component(self):
        spec = DistributionSpec([Marginal.normal(0, 1), Marginal.lognormal(1, 0.5)])
        with pytest.raises(DomainError, match="^row 1, x2: "):
            spec.standardize_rows([[0.0, -3.0]])

    def test_rows_error_names_row_and_component(self):
        spec = DistributionSpec([Marginal.uniform(0, 1)])
        with pytest.raises(DomainError, match="^row 3, x1: "):
            spec.standardize_rows([[0.5], [0.1], [7.0]])

    def test_rows_error_row_matches_reason(self):
        # Row 0 is outside the lognormal support, but the non-finite check
        # runs first, so the reported row must be the non-finite one.
        spec = DistributionSpec([Marginal.lognormal(1, 0.5)])
        with pytest.raises(DomainError) as raised:
            spec.standardize_rows([[-1.0], [1.0], [np.nan]])
        assert str(raised.value) == "row 3, x1: non-finite value for lognormal marginal"

    @pytest.mark.parametrize(
        "marginal, target_var",
        [
            (Marginal.normal(2.0, 3.0), 1.0),
            (Marginal.lognormal(0.15, 0.0075), 1.0),
            (Marginal.uniform(-2.0, 5.0), 1.0 / 3.0),
        ],
    )
    def test_standardize_pushes_reference_law(self, marginal, target_var):
        draws = marginal.sample(10**6, np.random.default_rng(7))
        z = marginal.standardize(draws)
        assert abs(z.mean()) < 5e-3
        assert abs(z.var(ddof=1) - target_var) < 5e-3


def psi(family, degree, z):
    """Orthonormal polynomial of one degree at one point, from the table."""
    return univariate_table(family, degree, z)[0, degree]


def psi_multi(spec, index, x):
    """Tensor-product polynomial at one physical input row, from the design."""
    return DesignBuilder(spec, [x]).matrix([index])[0, 0]


class TestUnivariatePolynomials:
    def test_constant_term(self):
        assert psi(HERMITE, 0, 2.7) == 1.0

    def test_hermite_degree_two(self):
        # He_2(z) = z^2 - 1 with norm sqrt(2!)
        assert psi(HERMITE, 2, 0.0) == pytest.approx(-1.0 / math.sqrt(2.0), rel=1e-15)

    def test_legendre_degree_one(self):
        # P_1(z) = z with norm sqrt(3)
        assert psi(LEGENDRE, 1, 0.5) == pytest.approx(0.5 * math.sqrt(3.0), rel=1e-15)

    def test_degree_cap_guard(self):
        with pytest.raises(ConfigError):
            psi(HERMITE, 31, 0.0)
        assert math.isfinite(psi(HERMITE, 30, 1.0))

    def test_unknown_family(self):
        with pytest.raises(ConfigError):
            univariate_table("laguerre", 2, 0.0)

    @pytest.mark.parametrize("family", [HERMITE, LEGENDRE])
    def test_orthonormality_by_quadrature(self, family):
        gram = quadrature_gram(family, max_degree=10, n_nodes=16)
        assert np.max(np.abs(gram - np.eye(11))) < 1e-10


class TestMultivariatePolynomials:
    def test_zero_index_is_one(self, standard_normal_2d):
        assert psi_multi(standard_normal_2d, (0, 0), [12.0, -4.0]) == 1.0

    def test_first_degree_product(self, standard_normal_2d):
        a, b = 0.7, -1.9
        assert psi_multi(standard_normal_2d, (1, 1), [a, b]) == pytest.approx(a * b, rel=1e-14)

    def test_legendre_tensor_value(self):
        spec = DistributionSpec([Marginal.uniform(-1, 1)] * 2)
        # P_2(0.3) = (3 * 0.09 - 1) / 2 = -0.365, norm sqrt(5)
        expected = math.sqrt(5.0) * (3 * 0.3**2 - 1.0) / 2.0
        assert psi_multi(spec, (2, 0), [0.3, 0.9]) == pytest.approx(expected, rel=1e-14)

    def test_dimension_mismatch(self, standard_normal_2d):
        with pytest.raises(DataError):
            psi_multi(standard_normal_2d, (1,), [0.0, 0.0])

    @pytest.mark.parametrize(
        "families",
        [
            (HERMITE, HERMITE),
            (LEGENDRE, LEGENDRE, LEGENDRE),
            (HERMITE, LEGENDRE, HERMITE),
        ],
    )
    def test_tensor_orthonormality(self, families):
        from mvsapce.multi_index import total_degree_set

        indices = total_degree_set(len(families), 6).indices
        gram = tensor_quadrature_gram(families, indices, n_nodes=8)
        assert np.max(np.abs(gram - np.eye(len(indices)))) < 1e-9


class TestSerialization:
    def test_round_trip(self):
        spec = DistributionSpec(
            [Marginal.normal(1, 2), Marginal.lognormal(3, 0.5), Marginal.uniform(-1, 4)]
        )
        assert DistributionSpec.from_json(spec.to_json()) == spec

    def test_rejects_malformed_payload(self):
        with pytest.raises(DataError):
            DistributionSpec.from_json([])
        with pytest.raises(DataError):
            DistributionSpec.from_json([{"kind": "normal"}])
        with pytest.raises(DataError):
            DistributionSpec.from_json([{"kind": "normal", "params": [0.0]}])
        # JSON true would otherwise read as 1.0: lognormal(1.0, 1.0)
        for params, shown in [([True, 1], r"\(True, 1\)"), ([1.0, False], r"\(1\.0, False\)")]:
            message = f"^distribution spec entry 0 .*: lognormal marginal params must be two numbers, got {shown}$"
            with pytest.raises(DataError, match=message):
                DistributionSpec.from_json([{"kind": "lognormal", "params": params}])

    def test_rejects_quoted_params(self):
        # Python's float would read "0.1_5" as 0.15.
        message = r"^distribution spec entry 0 .*: normal marginal params must be two numbers, got \('0\.1_5', 0\.0075\)$"
        with pytest.raises(DataError, match=message):
            DistributionSpec.from_json([{"kind": "normal", "params": ["0.1_5", 0.0075]}])

    @pytest.mark.parametrize(
        "params", [[1e4, 1e308], [1.0, 5e-324]], ids=["ratio-squared-overflows", "sigma-underflows"]
    )
    def test_lognormal_std_far_from_the_mean_scale_names_the_entry(self, params):
        payload = [{"kind": "normal", "params": [0.0, 1.0]}, {"kind": "lognormal", "params": params}]
        message = r"^distribution spec entry 1 .*: lognormal marginal requires 1e-160 <= std/mean <= 1e154, got "
        with pytest.raises(DataError, match=message):
            DistributionSpec.from_json(payload)

    def test_params_that_are_not_two_numbers_name_the_entry(self):
        payload = [{"kind": "normal", "params": [0.0, 1.0]}, {"kind": "uniform", "params": [0.0, 1.0, 2.0]}]
        message = r"^distribution spec entry 1 .*: uniform marginal params must be two numbers, got \(0\.0, 1\.0, 2\.0\)$"
        with pytest.raises(DataError, match=message):
            DistributionSpec.from_json(payload)
