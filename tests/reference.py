"""Brute-force references of the adaptive fit, shared by the test modules.

They solve every step against all M outputs with ``np.linalg.lstsq``,
rebuild the admissible set with ``admissible_forward_neighbors`` and prune
with ``without_index``: no solve or frontier code of the engine, whose
decisions must equal theirs.  ``brute_force_design`` builds a design
without ``DesignBuilder``'s gather, whose bits must equal its.  Without a ``test_`` prefix the module is not
collected; tests import it as they import ``conftest``.
"""

import numpy as np

from mvsapce.multi_index import MultiIndexSet, total_degree_set
from mvsapce.mvsa_engine import sensitivity_indicators
from mvsapce.polynomial_basis import DEGREE_CAP, univariate_table


def lstsq_with_condition(design, rhs):
    """Min-norm lstsq coefficients (singular values below 1e-12 of the largest count as zero) and the condition
    number from lstsq's singular values: +inf for a wide or empty design or sigma_min <= 1e-15 sigma_max."""
    coeffs, _, _, s = np.linalg.lstsq(design, rhs, rcond=1e-12)
    if design.shape[1] > design.shape[0] or len(s) == 0 or s[-1] <= s[0] * 1e-15:
        return coeffs, float("inf")
    return coeffs, float(s[0]) / float(s[-1])


def brute_force_design(spec, x, terms):
    """The Q x K design of ``terms``: each column a column of ones times, in increasing input order, the
    ``univariate_table`` column of each nonzero degree, from a table built to that degree alone."""
    z = spec.standardize_rows(x)
    design = np.ones((len(z), len(terms)))
    # An overflow shows as inf or nan in the design, not as a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        for j, index in enumerate(terms):
            for n, degree in enumerate(index):
                if degree:
                    design[:, j] = design[:, j] * univariate_table(spec.marginals[n].family, degree, z[:, n])[:, degree]
    return design


def admissible_frontier(basis):
    """The admissible forward neighbors of the downward-closed ``basis``, in lexicographic order."""
    return list(MultiIndexSet(basis).admissible_forward_neighbors().indices)


def replay_expansion(trace):
    """Replay ``trace``: each step adds one admissible index to a downward-closed set; returns the expanded set."""
    current = trace.initial
    assert current.is_downward_closed()
    for step in trace.steps:
        assert step.added in current.admissible_forward_neighbors()
        current = current.with_index(step.added)
        assert current.is_downward_closed()
    return current


def assert_lexicographic_steps(trace):
    """Each step of ``trace`` added the smallest index of its frontier."""
    basis = list(trace.initial)
    for step in trace.steps:
        assert step.added == admissible_frontier(basis)[0]
        basis.append(step.added)


def reference_expand(data, spec, config, builder):
    """The lstsq-only expansion over the admissible forward neighbors of degree at most DEGREE_CAP: the extended
    set, the added indices, their etas, the condition numbers and summed etas of the steps, and the termination."""
    basis = total_degree_set(spec.dim, config.initial_degree)
    added, etas, conds, totals = [], [], [], []
    while True:
        neighbors = basis.admissible_forward_neighbors()
        admissible = MultiIndexSet([index for index in neighbors if max(index) <= DEGREE_CAP], dim=spec.dim)
        extended = basis.union(admissible)
        if len(extended) > data.n_samples:
            termination = "underdetermined"
            break
        if not admissible:
            termination = "degree_cap"
            break
        coeffs, cond = lstsq_with_condition(builder.matrix(extended), data.responses)
        if cond > config.kappa:
            termination = "ill_conditioned"
            break
        eta = sensitivity_indicators(coeffs)
        offset = len(basis)
        best = max(range(len(admissible)), key=lambda i: (eta[offset + i], -i))
        added.append(admissible.indices[best])
        etas.append(float(eta[offset + best]))
        conds.append(cond)
        totals.append(float(eta.sum()))
        basis = basis.with_index(added[-1])
    return extended, added, etas, conds, totals, termination


def reference_prune(data, basis, config, builder):
    """The lstsq-only prune: the kept basis, its coefficients and condition number, and the removed indices."""
    zero = (0,) * basis.dim
    removed = []
    while True:
        coeffs, cond = lstsq_with_condition(builder.matrix(basis), data.responses)
        if cond <= config.kappa and len(basis) <= data.n_samples:
            return basis, coeffs, cond, removed
        eta = sensitivity_indicators(coeffs)
        candidates = [(eta[i], index) for i, index in enumerate(basis.indices) if index != zero]
        victim = min(candidates)[1]
        basis = basis.without_index(victim)
        removed.append(victim)


def random_downward_closed_truth(rng, dim, size):
    """A downward-closed support of ``size`` indices of total degree at most 4, grown at random from zero."""
    support = total_degree_set(dim, 0)
    while len(support) < size:
        candidates = [k for k in support.admissible_forward_neighbors() if sum(k) <= 4]
        support = support.with_index(candidates[rng.integers(len(candidates))])
    return support
