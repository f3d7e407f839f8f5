"""The adaptive loop against the plain lstsq-only reference of the same algorithm.

``reference`` holds the reference and says what it leaves out; the engine
must make the same decisions and end on bit-identical coefficients.
"""

import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvsapce import mvsa_engine
from mvsapce.benchmark import BeamConfig, sample_inputs
from mvsapce.multi_index import MultiIndexSet, total_degree_set
from mvsapce.mvsa_engine import MvsaConfig, _accept, _response_factor, expand_basis, fit_mvsa, prune_basis
from mvsapce.polynomial_basis import DistributionSpec, Marginal
from mvsapce.regression import DesignBuilder, TrainingData, solve_with_condition

from reference import admissible_frontier, assert_lexicographic_steps, random_downward_closed_truth
from reference import reference_expand, reference_prune


def counted(function, *args, name="solve_with_condition"):
    """``function(*args)`` and the shapes of the first arguments of the ``mvsa_engine.<name>`` calls it made: by
    default the designs of its ``solve_with_condition`` calls, and with ``name="_factored"`` the triangles whose
    singular values it took."""
    calls = []
    real = getattr(mvsa_engine, name)

    def counting(matrix, *rest):
        calls.append(matrix.shape)
        return real(matrix, *rest)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mvsa_engine, name, counting)
        result = function(*args)
    return result, calls


def step_tiers(function, *args):
    """``function(*args)`` and, for each ``_StepSolver.solve`` call it made, (tier, K0): the tier that decided the
    step, "running" when neither ``_bounded``, ``_factored`` nor ``solve_with_condition`` was called, else the last
    of them called, and K0, the triangle size at the last call before it, the step's own included, at which
    ``_bounded`` or ``_factored`` bounded cond from above, the anchor of the running bound (None before the first)."""
    tiers, anchor = [], None
    real_solve = mvsa_engine._StepSolver.solve

    def spy_solve(solver, *rest):
        tiers.append(["running", anchor])
        return real_solve(solver, *rest)

    def spy(name):
        real = getattr(mvsa_engine, name)

        def spying(matrix, *rest):
            nonlocal anchor
            result = real(matrix, *rest)
            tiers[-1][0] = name
            if name != "solve_with_condition" and result is not None:
                anchor = tiers[-1][1] = len(matrix)
            return result

        return spying

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mvsa_engine._StepSolver, "solve", spy_solve)
        for name in ("_bounded", "_factored", "solve_with_condition"):
            patch.setattr(mvsa_engine, name, spy(name))
        result = function(*args)
    return result, [tuple(tier) for tier in tiers]


def assert_expansion_is_the_reference(extended, trace, data, spec, config):
    """``expand_basis``'s result added the reference's indices, stopped as it did and ended on its extended set."""
    builder = DesignBuilder(spec, data.inputs)
    ref_extended, ref_added, *_, ref_termination = reference_expand(data, spec, config, builder)
    assert [step.added for step in trace.steps] == ref_added
    assert trace.termination == ref_termination
    assert extended.indices == ref_extended.indices


def assert_matches_reference(data, spec, config=None):
    config = config or MvsaConfig()
    builder = DesignBuilder(spec, data.inputs)
    ref_extended, ref_added, ref_etas, ref_conds, ref_totals, ref_termination = reference_expand(
        data, spec, config, builder
    )
    ref_basis, ref_coeffs, ref_cond, ref_removed = reference_prune(data, ref_extended, config, builder)

    # The expansion and a prune run on the responses a fit hands them: the
    # Q x r factor when M > Q.
    engine_builder = DesignBuilder(spec, data.inputs)
    factor = _response_factor(data.responses)
    ((extended, trace), tiers), reruns = counted(step_tiers, expand_basis, engine_builder, factor, config)
    assert [step.added for step in trace.steps] == ref_added
    assert trace.termination == ref_termination
    assert len(reruns) == sum(tier == "solve_with_condition" for tier, _ in tiers)
    # A step decided on the running bound reports ab, with cond <= ab <= (K0^(1/4) + c) cond, K0 its anchor's
    # size and c the columns appended since; one decided on u reports u, with cond <= u <= K^(1/4) cond; one that
    # took R's singular values reports R's condition number, within rounding of lstsq's, and a step on lstsq
    # reports lstsq's.  A bound at or near kappa is always one of the exact values.  The eta of a step on the
    # factor is within rounding of lstsq's, far inside the 1e-8 guard that sends close decisions back to lstsq.
    for step, cond, (tier, anchor) in zip(trace.steps, ref_conds, tiers):
        size = step.extended_size
        factor_bound = anchor**0.25 + size - anchor if tier == "running" else size**0.25
        assert cond <= step.condition_bound * (1 + 1e-12) <= factor_bound * cond * (1 + 2e-12)
        if step.condition_bound >= config.kappa * (1 - mvsa_engine._CLOSE):
            assert step.condition_bound == pytest.approx(cond, rel=1e-12)
    if data.n_outputs <= data.n_samples:
        for step, eta, total in zip(trace.steps, ref_etas, ref_totals):
            assert step.eta == pytest.approx(eta, rel=0, abs=1e-10 * total)
    else:
        assert [step.eta for step in trace.steps] == pytest.approx(ref_etas, rel=1e-8, abs=1e-300)
    assert extended.indices == ref_extended.indices

    # A fit's own prune runs on the factor, the first; the prune only
    # decides, so the bitwise check below reads the fit's final solve.
    prune_solves = []
    for rhs in (factor, data.responses):
        (basis, removed), solves = counted(prune_basis, engine_builder, rhs, extended, config)
        prune_solves.append(len(solves))
        assert list(removed) == ref_removed
        assert basis.indices == ref_basis.indices

    model = fit_mvsa(data, spec, config)
    assert [step.added for step in model.trace.steps] == ref_added
    assert model.basis.indices == ref_basis.indices
    assert model.diagnostics.pruned_count == len(ref_removed)
    assert model.coefficients.shape == ref_coeffs.shape
    assert np.array_equal(model.coefficients, ref_coeffs)
    assert model.diagnostics.condition_number == ref_cond
    return model, len(reruns), prune_solves[0]


def beam_cell(q, seed, response_dim=1000):
    config = BeamConfig(response_dim=response_dim)
    spec = config.distribution_spec()
    x = sample_inputs(spec, q, [seed, 0])
    return TrainingData(x, config.response(x)), spec


#: The expansion's lstsq reruns and the prune's lstsq solves of each beam cell.  Each prune decides every
#: step on its factor, its stop included, except at (50, 2), whose expansion ends past _FACTOR_COND_LIMIT:
#: its last step reruns, and its first removal solves on lstsq too.
BEAM_SOLVES = {(q, seed): (0, 0) for q in (50, 100, 150) for seed in range(4)} | {(50, 2): (1, 1)}

#: The exact SVDs of R (``_factored`` calls) of each beam cell's expansion and of its fit's prune.  The expansion
#: takes one for each step whose running bound ab and bound u did not prove cond <= kappa (1 - _CLOSE), and none for
#: the step that ends it past kappa, which ``_certified`` proves from below, except at (50, 2), whose last step is
#: past _FACTOR_COND_LIMIT.  The prune takes one for its stop and one for each removal the certificate leaves open:
#: (50, 2)'s builds its own triangle, and its first removal on that triangle takes one to bound cond from above.
BEAM_SVDS = {
    (50, 0): (1, 1), (50, 1): (0, 1), (50, 2): (1, 3), (50, 3): (0, 1),
    (100, 0): (1, 5), (100, 1): (0, 1), (100, 2): (0, 1), (100, 3): (0, 1),
    (150, 0): (1, 1), (150, 1): (2, 2), (150, 2): (1, 1), (150, 3): (3, 1),
}

#: The ``_bounded`` calls of each beam cell's expansion: one for its first step, which has no running bound yet,
#: one for its last, which ends it past kappa, and one for each other step whose running bound ab did not prove
#: cond <= kappa (1 - _CLOSE) or whose rounding bound left its winner open.  Each cell takes 11-50 steps.
BEAM_BOUNDED = {
    (50, 0): 4, (50, 1): 4, (50, 2): 3, (50, 3): 3,
    (100, 0): 6, (100, 1): 5, (100, 2): 6, (100, 3): 7,
    (150, 0): 8, (150, 1): 12, (150, 2): 9, (150, 3): 12,
}


def factored_steps(function, *args):
    """``function(*args)``'s ``_factored`` calls: the size of each triangle and the residual it was given."""
    steps, real = [], mvsa_engine._factored

    def spy(r, projected, residual):
        steps.append((len(r), residual))
        return real(r, projected, residual)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mvsa_engine, "_factored", spy)
        function(*args)
    return steps


def assert_prune_starts_from_the_expansion(data, spec, config):
    """A fit's prune starts from its expansion's factor and last (cond, eta, err, bounds) step when the expansion
    ended ill-conditioned on it intact: that step is past kappa, its bounds hold cond and 1 / sigma_K from
    above, and the fit then takes one SVD fewer than ``expand_basis`` and ``prune_basis`` called apart, whose
    first SVD bounds a prune of its own from above; its prune's other SVDs are theirs, and it makes as many lstsq
    solves besides its final one.  Returns whether the factor was handed over and the fit's SVD counts
    (expansion, prune)."""
    builder, factor = DesignBuilder(spec, data.inputs), _response_factor(data.responses)
    extended, _ = expand_basis(builder, factor, config)
    solver = mvsa_engine._expand(builder, factor, config)[2]
    if solver is not None:
        cond, _, _, (upper, inverse) = solver.step
        sigma = np.linalg.svd(builder.matrix(solver.position), compute_uv=False)
        assert config.kappa < cond <= sigma[0] / sigma[-1] * (1 + 1e-12) <= upper * (1 + 2e-12)
        assert 1 / sigma[-1] <= inverse * (1 + 1e-12)
    expansion = factored_steps(expand_basis, builder, factor, config)
    prune = factored_steps(prune_basis, builder, factor, extended, config)[solver is not None:]
    fit = factored_steps(fit_mvsa, data, spec, config)
    assert fit[: len(expansion)] == expansion
    # The handed-over residual is ||Y||^2 - ||Q^T Y||^2 plus the deleted columns' part, which loses digits to
    # cancellation against a fresh QR's.
    assert [k for k, _ in fit[len(expansion):]] == [k for k, _ in prune]
    assert [res for _, res in fit[len(expansion):]] == pytest.approx([res for _, res in prune], rel=1e-3, abs=1e-300)
    _, reruns = counted(expand_basis, builder, factor, config)
    _, prune_solves = counted(prune_basis, builder, factor, extended, config)
    _, fit_solves = counted(fit_mvsa, data, spec, config)
    assert len(fit_solves) == len(reruns) + len(prune_solves) + 1
    return solver is not None, len(expansion), len(fit) - len(expansion)


@pytest.mark.parametrize("q, seed", [(q, seed) for q in (50, 100, 150) for seed in range(4)])
def test_beam_cells_with_compressed_responses(q, seed):
    data, spec = beam_cell(q, seed)
    assert data.n_outputs > data.n_samples
    config = MvsaConfig(kappa=100.0)
    model, reruns, prune_solves = assert_matches_reference(data, spec, config)
    assert model.trace.steps and model.diagnostics.pruned_count > 0
    assert (reruns, prune_solves) == BEAM_SOLVES[q, seed]
    # Every expansion but (50, 2)'s ends on its intact factor.
    handed = (q, seed) != (50, 2)
    assert assert_prune_starts_from_the_expansion(data, spec, config) == (handed, *BEAM_SVDS[q, seed])
    bounded = counted(expand_basis, DesignBuilder(spec, data.inputs), _response_factor(data.responses), config,
                      name="_bounded")[1]
    assert len(bounded) == BEAM_BOUNDED[q, seed]


@pytest.mark.parametrize("q, seed", [(q, seed) for q in (50, 100, 150) for seed in range(4)])
def test_beam_cells_with_few_outputs(q, seed):
    # The benchmark's regime: M = 10 <= Q, so both phases solve against Y itself.  Y has rank 1, as at
    # M = 1000, and every count is the same as there.
    data, spec = beam_cell(q, seed, response_dim=10)
    assert data.n_outputs <= data.n_samples
    config = MvsaConfig(kappa=100.0)
    model, reruns, prune_solves = assert_matches_reference(data, spec, config)
    assert model.trace.steps and model.diagnostics.pruned_count > 0
    assert (reruns, prune_solves) == BEAM_SOLVES[q, seed]
    handed = (q, seed) != (50, 2)
    assert assert_prune_starts_from_the_expansion(data, spec, config) == (handed, *BEAM_SVDS[q, seed])
    bounded = counted(expand_basis, DesignBuilder(spec, data.inputs), data.responses, config, name="_bounded")[1]
    assert len(bounded) == BEAM_BOUNDED[q, seed]


@pytest.mark.parametrize("case", range(6))
def test_random_truths_with_few_outputs(case):
    rng = np.random.default_rng(1000 + case)
    dim = int(rng.integers(2, 5))
    spec = DistributionSpec(
        [Marginal.uniform(-1.0, 1.0) if rng.random() < 0.5 else Marginal.normal(0.0, 1.0) for _ in range(dim)]
    )
    support = random_downward_closed_truth(rng, dim, int(rng.integers(3, 9)))
    q = int(rng.integers(30, 80))
    m = int(rng.integers(1, 8))
    x = spec.sample(q, rng)
    y = DesignBuilder(spec, x).matrix(support) @ rng.normal(size=(len(support), m))
    y = y + 1e-3 * rng.normal(size=y.shape)
    data = TrainingData(x, y)
    assert data.n_outputs <= data.n_samples
    assert_matches_reference(data, spec)


@pytest.mark.parametrize("seed", range(3))
def test_low_rank_field_with_more_outputs_than_samples(seed):
    # Three polynomial fields with output-varying weights: M > Q and Y has
    # rank 3, so the steps solve against a Q x 3 factor.
    # Each field has all 84 terms of total degree 6, more than the fit can
    # reach, with coefficients decaying in the degree, so no residual falls
    # to rounding.
    rng = np.random.default_rng(2000 + seed)
    spec = DistributionSpec([Marginal.uniform(-1.0, 1.0), Marginal.normal(0.0, 1.0), Marginal.uniform(-1.0, 1.0)])
    q, m = 60, 400
    x = spec.sample(q, rng)
    support = total_degree_set(3, 6)
    decay = 0.5 ** np.asarray(support.indices).sum(axis=1)
    t = np.linspace(0.0, 1.0, m)
    weights = np.vstack([np.ones(m), np.sin(np.pi * t), t * t])
    fields = DesignBuilder(spec, x).matrix(support) @ (decay[:, None] * rng.normal(size=(len(support), 3)))
    data = TrainingData(x, fields @ weights)
    assert data.n_outputs > data.n_samples
    model, fallbacks, _ = assert_matches_reference(data, spec)
    assert model.trace.steps
    # The factor decides most steps on the Q x 3 right-hand side.
    assert fallbacks < len(model.trace.steps)


@pytest.mark.parametrize("m", [3, 80])
def test_wide_extended_set_prunes_in_the_reference_order(m):
    # From td:2 in six inputs (28 terms) the extended set has 84 terms over
    # Q = 40 rows, so the expansion stops at once and the prune deletes at
    # least 44 columns from its one design, each the reference's victim.
    rng = np.random.default_rng(2500 + m)
    spec = DistributionSpec([Marginal.uniform(-1.0, 1.0), Marginal.normal(0.0, 1.0)] * 3)
    x = spec.sample(40, rng)
    support = total_degree_set(6, 2)
    y = DesignBuilder(spec, x).matrix(support) @ rng.normal(size=(len(support), m)) + 1e-2 * rng.normal(size=(40, m))
    model, *_ = assert_matches_reference(TrainingData(x, y), spec, MvsaConfig(initial_degree=2))
    assert model.trace.termination == "underdetermined" and not model.trace.steps
    assert model.diagnostics.pruned_count >= 44


def test_zero_responses_with_more_outputs_than_samples():
    # Y = 0 has rank 0, so the steps solve against a Q x 0 factor: every eta
    # is 0, as on Y, and the lexicographic tie-break makes each decision.
    # The factor's gap 0 is within the guard of a summed eta 0, so every
    # step reruns on lstsq.
    spec = DistributionSpec([Marginal.uniform(-1.0, 1.0), Marginal.normal(0.0, 1.0)])
    x = spec.sample(30, np.random.default_rng(3000))
    data = TrainingData(x, np.zeros((30, 50)))
    assert _response_factor(data.responses).shape == (30, 0)
    model, fallbacks, _ = assert_matches_reference(data, spec)
    assert model.trace.steps and not np.any(model.coefficients)
    assert fallbacks >= len(model.trace.steps)
    assert_lexicographic_steps(model.trace)


def test_exact_tie_reruns_on_lstsq_and_takes_the_lexicographic_winner():
    # M <= Q zero responses: lstsq's etas are exactly 0, so every decision
    # is an exact tie, which reruns on lstsq and goes to the smallest index.
    spec = DistributionSpec([Marginal.uniform(-1.0, 1.0), Marginal.normal(0.0, 1.0)])
    x = spec.sample(30, np.random.default_rng(3000))
    model, fallbacks, _ = assert_matches_reference(TrainingData(x, np.zeros((30, 2))), spec)
    assert model.trace.steps and fallbacks >= len(model.trace.steps)
    assert_lexicographic_steps(model.trace)


def test_exact_tie_in_the_prune_reruns_on_lstsq_and_removes_the_lexicographic_victim():
    # Zero responses, M <= Q: every eta is exactly 0 on the prune's factor
    # as on lstsq, so each removal is an exact tie, which the factor leaves
    # to lstsq, and lstsq removes the smallest index but the zero one.  The
    # stop is clear on the factor, so it makes no solve.
    spec = DistributionSpec([Marginal.uniform(-1.0, 1.0), Marginal.normal(0.0, 1.0)])
    x = spec.sample(30, np.random.default_rng(3000))
    basis, config, builder = total_degree_set(2, 4), MvsaConfig(kappa=3.0), DesignBuilder(spec, x)
    assert config.kappa < np.linalg.cond(builder.matrix(basis)) < mvsa_engine._FACTOR_COND_LIMIT
    (_, removed), solves = counted(prune_basis, builder, np.zeros((30, 2)), basis, config)
    assert len(removed) >= 2 and len(solves) == len(removed)
    assert list(removed) == sorted(basis.indices[1:])[: len(removed)]


def test_prune_past_the_factor_limit_removes_on_lstsq_and_stops_on_the_factor():
    # At kappa = 1e4 the prune starts above the factor's limit (about 4.5e3),
    # where no removal can be decided on R, so every removal solves on lstsq.
    # The basis it keeps is conditioned below the limit and clearly below
    # kappa, so its stop is decided on R and makes no solve.
    data, spec = beam_cell(100, 0, response_dim=10)
    config, builder = MvsaConfig(kappa=1e4), DesignBuilder(spec, data.inputs)
    extended, _ = expand_basis(builder, data.responses, config)
    assert solve_with_condition(builder.matrix(extended), data.responses)[1] > mvsa_engine._FACTOR_COND_LIMIT
    (basis, removed), solves = counted(prune_basis, builder, data.responses, extended, config)
    assert len(removed) >= 2 and len(solves) == len(removed)
    ref_basis, _, _, ref_removed = reference_prune(data, extended, config, builder)
    assert list(removed) == ref_removed
    assert basis.indices == ref_basis.indices
    # No step past the limit bounds cond from above, so no removal is tried on the certificate either.
    assert counted(prune_basis, builder, data.responses, extended, config, name="_certified")[1] == []


def test_expansion_to_the_degree_cap_matches_the_reference():
    # One input at Q = 120: both expansions accept degrees 1 to DEGREE_CAP
    # and stop there, since degree 31 has no polynomial table.
    spec = DistributionSpec([Marginal.uniform(-1.0, 1.0)])
    x = spec.sample(120, np.random.default_rng(0))
    data = TrainingData(x, np.column_stack([np.exp(x[:, 0]), np.sin(3 * x[:, 0])]))
    model, *_ = assert_matches_reference(data, spec)
    assert model.trace.termination == "degree_cap"


def test_near_tie_reruns_on_lstsq():
    # Inputs closed under swapping x1 and x2 with a response symmetric in
    # them: the etas of (1, 0) and (0, 1) agree up to rounding, so the
    # first step is close and reruns on lstsq, whose decisions the engine
    # keeps.
    spec = DistributionSpec([Marginal.uniform(-1.0, 1.0)] * 3)
    half = spec.sample(20, np.random.default_rng(3100))
    x = np.vstack([half, half[:, [1, 0, 2]]])
    y = (x[:, :1] + x[:, 1:2] + 0.3 * x[:, 2:] ** 2) * [1.0, -0.5]
    model, fallbacks, _ = assert_matches_reference(TrainingData(x, y), spec)
    assert fallbacks >= 1
    assert {model.trace.steps[0].added, model.trace.steps[1].added} == {(1, 0, 0), (0, 1, 0)}


def test_handed_over_prune_falls_to_lstsq_in_the_extended_order():
    # The near-tie cell above: its expansion ends ill-conditioned on an intact factor, whose columns are in
    # append order, not the extended set's.  The fit's prune starts from that factor and that step.  The
    # responses lie in the span of a few terms, so the weakest etas are rounding noise that the guard cannot
    # tell apart: the first removal gathers its design on lstsq in the extended set's order, and the prune
    # keeps its basis in that order.
    spec = DistributionSpec([Marginal.uniform(-1.0, 1.0)] * 3)
    half = spec.sample(20, np.random.default_rng(3100))
    x = np.vstack([half, half[:, [1, 0, 2]]])
    y = (x[:, :1] + x[:, 1:2] + 0.3 * x[:, 2:] ** 2) * [1.0, -0.5]
    data, builder = TrainingData(x, y), DesignBuilder(spec, x)
    handed, designs = [], []
    real_prune, real_solve = mvsa_engine._prune, mvsa_engine.solve_with_condition

    def spy_solve(design, rhs):
        designs.append(design.copy())
        return real_solve(design, rhs)

    def spy_prune(builder, responses, basis, config, solver):
        handed.append((list(basis.indices), solver and list(solver.position), solver and solver.step[1].copy()))
        with pytest.MonkeyPatch.context() as inner:
            inner.setattr(mvsa_engine, "solve_with_condition", spy_solve)
            return real_prune(builder, responses, basis, config, solver)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mvsa_engine, "_prune", spy_prune)
        model = fit_mvsa(data, spec)
    [(extended, appended, eta)] = handed
    assert appended and sorted(appended) == sorted(extended) and appended != extended
    cond, _, err, _ = mvsa_engine._expand(builder, y, MvsaConfig())[2].step
    assert abs(cond - 100.0) > mvsa_engine._CLOSE * 100.0
    eta[appended.index((0, 0, 0))] = np.inf
    assert not mvsa_engine._clear(*np.partition(eta, 1)[:2], err)
    assert designs and np.array_equal(designs[0], builder.matrix(extended))
    ref_basis, _, _, ref_removed = reference_prune(data, MultiIndexSet(extended), MvsaConfig(), builder)
    assert model.basis.indices == ref_basis.indices == tuple(index for index in extended if index in ref_basis)
    assert model.diagnostics.pruned_count == len(ref_removed)


def test_dependent_column_breaks_the_factor_down():
    # x1 takes two values, so its degree-2 column lies in the span of the
    # degree-0 and degree-1 ones: appending it breaks the factor down, the
    # step reruns on lstsq, and the expansion stops as the reference does.
    spec = DistributionSpec([Marginal.uniform(-1.0, 1.0), Marginal.normal(0.0, 1.0)])
    rng = np.random.default_rng(3200)
    x = np.column_stack([rng.choice([-0.5, 0.5], 40), rng.normal(size=40)])
    y = np.column_stack([2.0 * x[:, 0] + x[:, 1], x[:, 0] * x[:, 1]]) + 1e-3 * rng.normal(size=(40, 2))
    broken = []
    real_solve = mvsa_engine._StepSolver.solve

    def spy(solver, *args):
        result = real_solve(solver, *args)
        # A solver drops its factor when the factor breaks down.
        broken.append(solver.position is None)
        return result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mvsa_engine._StepSolver, "solve", spy)
        model, fallbacks, _ = assert_matches_reference(TrainingData(x, y), spec)
    assert broken[-1] is True and fallbacks >= 1
    assert model.trace.termination == "ill_conditioned"


def test_column_whose_squared_norm_overflows_breaks_the_factor_down_without_a_warning():
    # x1 ~ N(0, 1) under a normal law of std 1e-155: its degree-1 column reaches about 1e155, so its squared
    # norm overflows.  Appending it breaks the factor down, the steps run on lstsq as the reference does, and
    # no RuntimeWarning is raised.
    rng = np.random.default_rng(3230)
    spec = DistributionSpec([Marginal.normal(0.0, 1e-155), Marginal.normal(0.0, 1.0), Marginal.uniform(-1.0, 1.0)])
    x = np.column_stack([rng.normal(size=40), rng.normal(size=40), rng.uniform(-1.0, 1.0, 40)])
    y = np.column_stack([x[:, 1] + x[:, 2] ** 2, x[:, 1] * x[:, 2]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model, fallbacks, _ = assert_matches_reference(TrainingData(x, y), spec)
    assert fallbacks >= 1 and model.trace.termination == "ill_conditioned"


def test_condition_number_at_kappa_reruns_on_lstsq():
    # kappa is set to lstsq's condition number of the first step, whose
    # extended set is sorted as the reference's, so the design is the
    # reference's to the bit.  The factor's condition number is then within
    # _CLOSE of kappa: the step reruns on lstsq, whose condition number equals
    # kappa, and is accepted as the reference accepts it.
    rng = np.random.default_rng(3250)
    spec = DistributionSpec([Marginal.uniform(-1.0, 1.0), Marginal.normal(0.0, 1.0), Marginal.uniform(-1.0, 1.0)])
    x = spec.sample(40, rng)
    y = np.column_stack([x[:, 0] + 0.5 * x[:, 1] ** 2, x[:, 1] * x[:, 2]]) + 1e-2 * rng.normal(size=(40, 2))
    data, builder = TrainingData(x, y), DesignBuilder(spec, x)
    kappa = reference_expand(data, spec, MvsaConfig(), builder)[3][0]
    first_step = (len(x), 1 + spec.dim)
    for config, close in ((MvsaConfig(), False), (MvsaConfig(kappa=kappa), True)):
        (extended, trace), reruns = counted(expand_basis, builder, data.responses, config)
        assert (first_step in reruns) is close
        assert_expansion_is_the_reference(extended, trace, data, spec, config)
    assert trace.steps[0].condition_bound == kappa
    assert len(trace.steps) == 1 and trace.termination == "ill_conditioned"


def test_condition_number_at_kappa_in_the_prune_reruns_on_lstsq():
    # kappa is set to lstsq's condition number of the basis the reference
    # keeps at kappa = 10, whose design the prune's lstsq sees to the bit.
    # The factor's condition number of that basis is then within _CLOSE of
    # kappa: the last step reruns on lstsq, whose condition number equals
    # kappa, and the prune stops where the reference stops.  At kappa = 10
    # the factor decides every step, the stop included.
    rng = np.random.default_rng(3260)
    spec = DistributionSpec([Marginal.uniform(-1.0, 1.0), Marginal.normal(0.0, 1.0), Marginal.uniform(-1.0, 1.0)])
    x = spec.sample(40, rng)
    y = np.column_stack([x[:, 0] + 0.5 * x[:, 1] ** 2, x[:, 1] * x[:, 2]]) + 1e-2 * rng.normal(size=(40, 2))
    data, builder, basis = TrainingData(x, y), DesignBuilder(spec, x), total_degree_set(3, 3)
    kept_at_ten, _, kappa, _ = reference_prune(data, basis, MvsaConfig(kappa=10.0), builder)
    last_step = (len(x), len(kept_at_ten))
    for config, close in ((MvsaConfig(kappa=10.0), False), (MvsaConfig(kappa=kappa), True)):
        (kept, removed), solves = counted(prune_basis, builder, data.responses, basis, config)
        assert solves == ([last_step] if close else [])
        ref_basis, _, _, ref_removed = reference_prune(data, basis, config, builder)
        assert list(removed) == ref_removed and len(removed) >= 2
        assert kept.indices == ref_basis.indices == kept_at_ten.indices


def test_factor_storage_follows_the_appended_columns():
    # Q = 4000 rows and an expansion that ends on a few dozen terms: the
    # factor holds O(Q K) numbers, far below one Q x Q array (128 MB).
    spec = DistributionSpec([Marginal.uniform(-1.0, 1.0), Marginal.normal(0.0, 1.0)])
    x = spec.sample(4000, np.random.default_rng(3300))
    y = np.column_stack([x[:, 0] ** 3 + x[:, 1], np.sin(x[:, 0] * x[:, 1])])
    builder = DesignBuilder(spec, x)
    tracemalloc.start()
    try:
        extended, trace = expand_basis(builder, y, MvsaConfig())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert trace.steps and len(extended) < 100
    assert peak < 4000 * 4000 * 8 // 8, peak


class ColumnsBuilder:
    """A stand-in design builder whose term (j,) is column j of ``design``."""

    def __init__(self, design):
        self.design = design

    def matrix(self, terms):
        return self.design[:, [j for j, in terms]]


# (K, log of cond to the base _FACTOR_COND_LIMIT): both ends of each range, then random draws.
BOUND_CASES = [(1, 0.0), (1, 1.0), (2, 1.0), (150, 0.0), (150, 1.0)] + list(
    zip(np.random.default_rng(3450).integers(1, 151, 15).tolist(), np.random.default_rng(3451).random(15).tolist())
)


def graded_design(k, cond, seed):
    """A (k + 10) x k design with singular values from ``cond`` down to 1, geometrically spaced."""
    rng = np.random.default_rng(seed)
    left, _ = np.linalg.qr(rng.normal(size=(k + 10, k)))
    right, _ = np.linalg.qr(rng.normal(size=(k, k)))
    return (left * np.geomspace(cond, 1.0, k)) @ right.T


@pytest.mark.parametrize("k, log_cond", BOUND_CASES)
def test_kept_inverse_and_condition_bound_of_random_triangles(k, log_cond, monkeypatch):
    # A design with singular values from cond down to 1, appended in three
    # steps as the expansion appends its columns: the kept R^-1 is the
    # inverse of R to cond K eps, and cond(R) <= u <= K^(1/4) cond(R).
    design = graded_design(k, mvsa_engine._FACTOR_COND_LIMIT**log_cond, 3460 + k)
    solver, terms = mvsa_engine._StepSolver(np.zeros((len(design), 1))), [(j,) for j in range(k)]
    for stop in (k // 3, 2 * k // 3, k):
        assert solver._append(ColumnsBuilder(design), terms[:stop])
    r, r_inv = solver.r[:k, :k], solver.r_inv[:k, :k]
    exact, inverse = np.linalg.cond(r), np.linalg.inv(r)
    assert np.linalg.norm(r_inv - inverse) <= exact * k * np.finfo(float).eps * np.linalg.norm(inverse)
    # u itself: _bounded decides nothing past _FACTOR_COND_LIMIT, which u may pass here by up to K^(1/4).
    monkeypatch.setattr(mvsa_engine, "_FACTOR_COND_LIMIT", np.inf)
    bound, *_ = mvsa_engine._bounded(r, r_inv, solver.projected[:k], 0.0, np.inf)
    assert exact <= bound * (1 + 1e-12)
    assert bound <= k**0.25 * exact * (1 + 1e-12)


@pytest.mark.parametrize("anchor", ["_bounded", "_factored"])
@pytest.mark.parametrize("k, log_cond", BOUND_CASES + [(3, 2.2), (60, 2.2), (150, 2.2)])
def test_running_bound_brackets_the_condition_number_of_bordered_triangles(k, log_cond, anchor, monkeypatch):
    # A design of k + 15 columns with singular values from cond (up to about 1e8) down to 1.  A solve on its
    # first K0 = k columns anchors the running bound on u or, with _bounded left out, on R's singular values;
    # then 1-5 columns at a time are bordered on.  After c columns, cond(R) <= ab <= (K0^(1/4) + c) cond(R), the
    # running step's eta is _bounded's to the bit, and its Frobenius gamma term is at least _bounded's.
    design = graded_design(k + 15, mvsa_engine._FACTOR_COND_LIMIT**log_cond, 3500 + k)
    rng = np.random.default_rng(3510 + k)
    solver, terms = mvsa_engine._StepSolver(rng.normal(size=(len(design), 2))), [(j,) for j in range(k + 15)]
    builder = ColumnsBuilder(design)
    monkeypatch.setattr(mvsa_engine, "_FACTOR_COND_LIMIT", np.inf)
    with pytest.MonkeyPatch.context() as patch:
        if anchor == "_factored":
            patch.setattr(mvsa_engine, "_bounded", lambda *args: None)
        # At kappa = inf no step is decided on the factor, so this one solves on lstsq.
        [(tier, size)] = step_tiers(lambda: solver.solve(builder, terms[:k], k, np.inf))[1]
    assert (tier, size) == ("solve_with_condition", k) and np.isfinite(solver.squares).all()
    stop = k
    while stop < k + 15:
        stop = min(stop + int(rng.integers(1, 6)), k + 15)
        assert solver._append(builder, terms[:stop])
        r, r_inv, projected = solver.r[:stop, :stop], solver.r_inv[:stop, :stop], solver.projected[:stop]
        sigma = np.linalg.svd(r, compute_uv=False)
        exact, bound = sigma[0] / sigma[-1], math.sqrt(solver.squares[0] * solver.squares[1])
        assert exact * (1 - 1e-12) <= bound <= (k**0.25 + stop - k) * exact * (1 + 1e-12)
        running = solver._running(r_inv, projected, 0.0, np.inf)
        bounded = mvsa_engine._bounded(r, r_inv, projected, 0.0, np.inf)
        assert running[0] == pytest.approx(bound, rel=1e-15)
        assert np.array_equal(running[1], bounded[1])
        gammas = [err - mvsa_engine._rounding(eta, 0.0, *bounds) for _, eta, err, bounds in (running, bounded)]
        assert gammas[0] >= gammas[1] * (1 - 1e-12) > 0


# Near-singular triangles besides BOUND_CASES: cond about 1e8, 1e12 and 1e16.
@pytest.mark.parametrize("k, log_cond", BOUND_CASES + [(3, 2.2), (60, 2.2), (60, 3.3), (150, 3.3), (60, 4.4)])
def test_certificate_bounds_the_condition_number_from_below(k, log_cond):
    # L <= cond(R) whatever steers x: R's own inverse Gram, formed from np.linalg.inv (inaccurate past 1e8, and
    # overflowing near 1e16, where L is NaN and decides nothing), or a random symmetric matrix.  cond(R) is known
    # from its SVD to within K eps sigma_1 on sigma_K, so above 1e12 the check only bounds L by sigma_1 /
    # (sigma_K - K eps sigma_1).  On R's own inverse Gram and up to the factor's limit, five power steps bring L
    # within a factor of 2 of cond.
    r = np.linalg.qr(graded_design(k, mvsa_engine._FACTOR_COND_LIMIT**log_cond, 3470 + k), mode="r")
    sigma = np.linalg.svd(r, compute_uv=False)
    slack = sigma[-1] - k * np.finfo(float).eps * sigma[0]
    cond = sigma[0] / slack if slack > 0 else np.inf
    inverse = np.linalg.inv(r)
    noise = np.random.default_rng(3480 + k).normal(size=(k, k))
    for steering in (inverse @ inverse.T, noise @ noise.T):
        lower, v, x = mvsa_engine._certified(r, steering)
        assert not lower > cond * (1 + 1e-12)
    # A warm start from the vectors of an earlier call, normalized unless L is NaN.
    assert np.isnan(lower) or np.linalg.norm(v) == pytest.approx(1.0) == np.linalg.norm(x)
    assert not mvsa_engine._certified(r, inverse @ inverse.T, v, x)[0] > cond * (1 + 1e-12)
    if log_cond <= 1.0:
        assert mvsa_engine._certified(r, inverse @ inverse.T)[0] >= cond / 2


def test_no_decision_from_below_past_the_factor_limit():
    # cond(R) = 1e4 lies past _FACTOR_COND_LIMIT, where R's condition number may differ from lstsq's by more than
    # the decision window: the certificate proves cond > kappa = 100, but _bounded decides nothing and _factored
    # drops the step, so it falls to lstsq.
    r = np.linalg.qr(graded_design(5, 1e4, 3490), mode="r")
    r_inv, projected = np.linalg.inv(r), np.ones((5, 1))
    assert mvsa_engine._certified(r, r_inv @ r_inv.T)[0] > 100.0 * (1 + mvsa_engine._CLOSE)
    assert mvsa_engine._bounded(r, r_inv, projected, 0.0, 100.0) is None
    assert mvsa_engine._factored(r, projected, 0.0) is None


@pytest.mark.parametrize("q, seed", [(50, 2), (100, 0), (150, 0)])
def test_prune_keeps_the_inverse_gram_through_its_deletions(q, seed):
    # Each certificate of a prune is steered by the inverse Gram W of its triangle: handed over from the
    # expansion's R^-1, or formed from the prune's own triangle ((50, 2) builds one), then carried through each
    # deletion as its Schur complement.  W stays within cond(R)^2 K eps of a fresh inverse of R^T R, and every L
    # it gives is at most cond(R).
    data, spec = beam_cell(q, seed, response_dim=10)
    calls, real = [], mvsa_engine._certified

    def spy(r, w, *rest):
        calls.append((r.copy(), w.copy()))
        return real(r, w, *rest)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mvsa_engine, "_certified", spy)
        fit_mvsa(data, spec, MvsaConfig(kappa=100.0))
    # The first call ends the expansion, on the W it forms itself.
    assert len(calls) >= 3
    for r, w in calls[1:]:
        fresh, cond = np.linalg.inv(r.T @ r), np.linalg.cond(r)
        assert np.linalg.norm(w - fresh) <= cond**2 * len(r) * np.finfo(float).eps * np.linalg.norm(fresh)
        assert real(r, w)[0] <= cond * (1 + 1e-12)


@pytest.mark.parametrize("seed", range(4))
def test_noisy_cells_near_the_factor_limit_match_the_reference(seed):
    # Noise as large as the signal at kappa = 4e3: a least-squares solve's
    # eta then errs mostly by its cond^2 * residual term, which widens the
    # guard past _CLOSE, and every decision stays lstsq's.
    rng = np.random.default_rng(3400 + seed)
    spec = DistributionSpec([Marginal.uniform(-1.0, 1.0), Marginal.normal(0.0, 1.0), Marginal.uniform(-1.0, 1.0)])
    x = spec.sample(60, rng)
    support = random_downward_closed_truth(rng, 3, 5)
    y = DesignBuilder(spec, x).matrix(support) @ rng.normal(size=(len(support), 3)) + rng.normal(size=(60, 3))
    data, config = TrainingData(x, y), MvsaConfig(kappa=4e3)
    extended, trace = expand_basis(DesignBuilder(spec, data.inputs), data.responses, config)
    assert len(trace.steps) >= 5
    assert_expansion_is_the_reference(extended, trace, data, spec, config)


@st.composite
def small_cells(draw):
    """(data, spec, config): 1-3 Legendre or Hermite inputs, Q = 8-40 rows, M = 1-4 outputs, and an
    initial set td:0, td:1 or td:2 smaller than Q."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.integers(1, 3))
    spec = DistributionSpec(
        [Marginal.uniform(-1.0, 1.0) if draw(st.booleans()) else Marginal.normal(0.0, 1.0) for _ in range(dim)]
    )
    q = draw(st.integers(8, 40))
    m = draw(st.integers(1, 4))
    x = spec.sample(q, rng)
    support = random_downward_closed_truth(rng, dim, int(rng.integers(1, 6)))
    y = DesignBuilder(spec, x).matrix(support) @ rng.normal(size=(len(support), m))
    y = y + draw(st.sampled_from([0.0, 1e-3, 1.0])) * rng.normal(size=y.shape)
    kappa = draw(st.sampled_from([3.0, 100.0, 1e4]))
    degree = draw(st.sampled_from([p for p in (0, 1, 2) if math.comb(dim + p, p) < q]))
    return TrainingData(x, y), spec, MvsaConfig(kappa=kappa, initial_degree=degree)


@given(cell=small_cells())
@settings(max_examples=40, deadline=None)
def test_factored_decisions_equal_the_lstsq_reference(cell):
    data, spec, config = cell
    extended, trace = expand_basis(DesignBuilder(spec, data.inputs), data.responses, config)
    assert_expansion_is_the_reference(extended, trace, data, spec, config)


@given(cell=small_cells())
@settings(max_examples=40, deadline=None)
def test_factored_prunes_equal_the_lstsq_reference(cell):
    data, spec, config = cell
    builder = DesignBuilder(spec, data.inputs)
    extended, _ = expand_basis(builder, data.responses, config)
    ref_basis, _, _, ref_removed = reference_prune(data, extended, config, builder)
    basis, removed = prune_basis(builder, data.responses, extended, config)
    assert list(removed) == ref_removed
    assert basis.indices == ref_basis.indices


def accepted(indices, dim):
    """(basis, missing, frontier) after ``_accept`` takes ``indices`` in turn, starting from the zero index."""
    basis, missing, frontier = [], {}, [(0,) * dim]
    for index in indices:
        _accept(index, basis, missing, frontier)
    return basis, missing, frontier


def assert_missing_counts(basis, missing):
    """Each index ``missing`` counts lies outside ``basis``, and its count is its number of backward neighbors
    outside ``basis``, at least 1, at least one of them being in it."""
    members = set(basis)
    for index, count in missing.items():
        backward = [index[:m] + (k_m - 1,) + index[m + 1:] for m, k_m in enumerate(index) if k_m]
        assert index not in members
        assert count == sum(neighbor not in members for neighbor in backward) < len(backward)
        assert count >= 1


@pytest.mark.parametrize("dim", [1, 2, 3, 5, 20])
@pytest.mark.parametrize("degree", [0, 1, 2, 3])
def test_accepting_the_initial_set_seeds_the_brute_force_frontier(dim, degree):
    initial = total_degree_set(dim, degree)
    basis, missing, frontier = accepted(initial, dim)
    assert basis == list(initial)
    assert frontier == admissible_frontier(initial)
    assert_missing_counts(basis, missing)


# At Q <= 231 the td:1 extended set (21 terms and 210 candidates) outgrows the rows before the first step.
@pytest.mark.parametrize("q, seed, degree", [(100, 1, 0), (150, 0, 0), (300, 0, 1)], ids=["100-1", "150-0", "td1-300"])
def test_incremental_frontier_equals_brute_force(q, seed, degree):
    data, spec = beam_cell(q, seed, response_dim=20)
    trace = fit_mvsa(data, spec, MvsaConfig(kappa=100.0, initial_degree=degree)).trace
    assert len(trace.steps) > 10
    basis, missing, frontier = accepted(trace.initial, spec.dim)
    assert frontier == admissible_frontier(basis)
    for step in trace.steps:
        _accept(step.added, basis, missing, frontier)
        assert frontier == admissible_frontier(basis)
        assert len(basis) + len(frontier) == len(set(basis) | set(frontier))
        assert_missing_counts(basis, missing)
        assert not set(missing) & set(frontier)


FIT_ONE_CELL = """
import sys
import numpy as np
from mvsapce.benchmark import BeamConfig, sample_inputs
from mvsapce.mvsa_engine import MvsaConfig, fit_mvsa
from mvsapce.regression import TrainingData

config = BeamConfig(response_dim=1000)
spec = config.distribution_spec()
x = sample_inputs(spec, 150, [0, 0])
model = fit_mvsa(TrainingData(x, config.response(x)), spec, MvsaConfig(kappa=100.0))
np.savez(sys.argv[1], basis=np.array(model.basis.indices), coefficients=model.coefficients)
"""


def test_blas_thread_count_keeps_basis_and_coefficients(tmp_path):
    # The thread count must be set before numpy loads BLAS, so each fit runs
    # in its own process.
    src = Path(__file__).resolve().parents[1] / "src"
    results = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        out = tmp_path / f"fit{threads}.npz"
        proc = subprocess.run(
            [sys.executable, "-c", FIT_ONE_CELL, str(out)], env=env, capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        with np.load(out) as saved:
            results[threads] = (saved["basis"], saved["coefficients"])
    (basis1, coeffs1), (basis2, coeffs2) = results["1"], results["2"]
    assert np.array_equal(basis1, basis2)
    assert coeffs1.shape == coeffs2.shape
    # Relative to the largest coefficient: terms near zero differ by a few
    # 1e-18 absolute, far above 1e-12 of their own size.
    assert np.max(np.abs(coeffs1 - coeffs2)) <= 1e-12 * np.max(np.abs(coeffs1))
