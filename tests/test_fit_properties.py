"""Properties of the adaptive fit on random downward-closed truths.

Each example draws 2-4 inputs, Q = 20-80 samples and M = 1-5 outputs of a
random polynomial with small noise, and checks what every fit must hold
whatever the data: the limits K <= Q and cond <= kappa, the zero index,
a downward-closed expansion, one of the three stopping conditions, and
exact equivariance under scaling the responses by a power of two.  The
pruned basis itself need not be downward-closed: pruning drops the
weakest terms wherever they sit.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvsapce.errors import ConfigError
from mvsapce.mvsa_engine import MvsaConfig, fit_mvsa
from mvsapce.polynomial_basis import DEGREE_CAP, DistributionSpec, Marginal
from mvsapce.regression import DesignBuilder, TrainingData

from reference import random_downward_closed_truth, replay_expansion

EXAMPLES = settings(max_examples=25, deadline=None)


@st.composite
def problems(draw, outputs=st.integers(1, 5)):
    """A (data, spec) pair drawn around a random downward-closed truth."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.integers(2, 4))
    q = draw(st.integers(20, 80))
    m = draw(outputs)
    spec = DistributionSpec(
        [Marginal.uniform(-1.0, 1.0) if rng.random() < 0.5 else Marginal.normal(0.0, 1.0) for _ in range(dim)]
    )
    support = random_downward_closed_truth(rng, dim, int(rng.integers(2, 8)))
    x = spec.sample(q, rng)
    y = DesignBuilder(spec, x).matrix(support) @ rng.normal(size=(len(support), m))
    return TrainingData(x, y + 1e-3 * rng.normal(size=y.shape)), spec


def assert_fit_invariants(model, data, kappa=MvsaConfig.kappa):
    assert len(model.basis) <= data.n_samples
    assert model.diagnostics.condition_number <= kappa
    assert (0,) * model.basis.dim in model.basis
    assert model.trace.termination in ("underdetermined", "ill_conditioned", "degree_cap")
    assert model.diagnostics.max_univariate_degree <= DEGREE_CAP
    replay_expansion(model.trace)


@given(problem=problems(), k=st.integers(-20, 20))
@EXAMPLES
def test_scaling_responses_by_power_of_two_scales_coefficients_exactly(problem, k):
    data, spec = problem
    model = fit_mvsa(data, spec)
    scaled = fit_mvsa(TrainingData(data.inputs, data.responses * 2.0**k), spec)
    assert scaled.basis == model.basis
    assert np.array_equal(scaled.coefficients, model.coefficients * 2.0**k)
    assert scaled.diagnostics == model.diagnostics


@given(problem=problems())
@EXAMPLES
def test_fit_invariants(problem):
    data, spec = problem
    assert_fit_invariants(fit_mvsa(data, spec), data)


@given(problem=problems())
@EXAMPLES
def test_fit_invariants_with_every_row_duplicated(problem):
    data, spec = problem
    doubled = TrainingData(np.vstack([data.inputs] * 2), np.vstack([data.responses] * 2))
    assert_fit_invariants(fit_mvsa(doubled, spec), doubled)


@given(problem=problems(outputs=st.just(1)))
@EXAMPLES
def test_fit_invariants_single_output(problem):
    data, spec = problem
    assert data.n_outputs == 1
    assert_fit_invariants(fit_mvsa(data, spec), data)


def test_expansion_that_reaches_the_degree_cap_stops_there():
    # One uniform input and Q = 120: the design stays conditioned below
    # kappa = 100 up to degree 30.  Once that degree is accepted its one
    # forward neighbor, degree 31, passes the cap, so the frontier is empty
    # and the expansion ends on "degree_cap".
    spec = DistributionSpec([Marginal.uniform(-1.0, 1.0)])
    x = spec.sample(120, np.random.default_rng(0))
    data = TrainingData(x, np.column_stack([np.exp(x[:, 0]), np.sin(3 * x[:, 0])]))
    model = fit_mvsa(data, spec)
    assert_fit_invariants(model, data)
    assert model.trace.termination == "degree_cap"
    assert [step.added for step in model.trace.steps] == [(p,) for p in range(1, DEGREE_CAP + 1)]


@pytest.mark.parametrize("dim, degree", [(2, 1), (2, 3), (3, 2), (4, 1)])
def test_initial_degree_one_sample_below_the_size_limit(dim, degree):
    # Q = C(N + p, p) + 1 is the smallest sample count td:<p> accepts.
    size = math.comb(dim + degree, degree)
    rng = np.random.default_rng(dim * 10 + degree)
    spec = DistributionSpec([Marginal.normal(0.0, 1.0)] * dim)
    x = spec.sample(size + 1, rng)
    data = TrainingData(x, np.column_stack([np.sin(x).sum(axis=1), x[:, 0] ** 2]))
    model = fit_mvsa(data, spec, MvsaConfig(initial_degree=degree))
    assert len(model.trace.initial) == size
    assert_fit_invariants(model, data)
    with pytest.raises(ConfigError, match=f"initial set size {size} must be smaller than the sample count {size}"):
        fit_mvsa(TrainingData(x[:size], data.responses[:size]), spec, MvsaConfig(initial_degree=degree))
