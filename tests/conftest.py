"""Shared oracles and builders for the test suite."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from mvsapce.multi_index import MultiIndexSet
from mvsapce.mvsa_engine import FitDiagnostics, PceModel
from mvsapce.polynomial_basis import HERMITE, LEGENDRE, DistributionSpec, Marginal, univariate_table


#: The larger fixed-seed fuzz run, selected with ``--hypothesis-profile fuzz``: test_fuzz.py's tests then take
#: its example count in place of their 50.
settings.register_profile("fuzz", max_examples=500, derandomize=True, deadline=None)


def _overcommits_always() -> bool:
    try:
        return Path("/proc/sys/vm/overcommit_memory").read_text().strip() == "1"
    except OSError:
        return True


#: Tests that ask numpy for more than 1 TiB and expect the request refused at
#: once, as Linux does in its heuristic and strict overcommit modes.  Where
#: every allocation may be granted, the sample would be written, so they skip.
refuses_huge_allocations = pytest.mark.skipif(
    _overcommits_always(), reason="the kernel may grant a 1 TiB allocation"
)


def gauss_rule(family, n_nodes):
    """Probability-weighted Gauss rule for one reference law.

    Returns nodes and weights such that sum(w * g(x)) estimates E[g] under
    the standard normal (hermite) or the uniform law on [-1, 1] (legendre).
    """
    if family == HERMITE:
        nodes, weights = np.polynomial.hermite_e.hermegauss(n_nodes)
        return nodes, weights / np.sqrt(2.0 * np.pi)
    if family == LEGENDRE:
        nodes, weights = np.polynomial.legendre.leggauss(n_nodes)
        return nodes, weights / 2.0
    raise ValueError(family)


def quadrature_gram(family, max_degree, n_nodes):
    """Gram matrix E[psi_k psi_l] for degrees 0..max_degree by quadrature."""
    nodes, weights = gauss_rule(family, n_nodes)
    table = univariate_table(family, max_degree, nodes)
    return table.T @ (weights[:, None] * table)


def tensor_quadrature_gram(families, indices, n_nodes):
    """Gram matrix of tensor-product polynomials by tensor quadrature."""
    rules = [gauss_rule(family, n_nodes) for family in families]
    grids = np.meshgrid(*[r[0] for r in rules], indexing="ij")
    weight = np.ones(grids[0].shape)
    for w in np.meshgrid(*[r[1] for r in rules], indexing="ij"):
        weight = weight * w
    points = np.column_stack([g.ravel() for g in grids])
    weight = weight.ravel()
    max_deg = max(max(index) for index in indices)
    tables = [
        univariate_table(family, max_deg, points[:, n])
        for n, family in enumerate(families)
    ]
    design = np.ones((points.shape[0], len(indices)))
    for column, index in enumerate(indices):
        for n, degree in enumerate(index):
            if degree:
                design[:, column] *= tables[n][:, degree]
    return design.T @ (weight[:, None] * design)


def build_model(spec, indices, coefficients):
    """PceModel assembled directly from a basis and a coefficient matrix."""
    basis = indices if isinstance(indices, MultiIndexSet) else MultiIndexSet(indices)
    coefficients = np.asarray(coefficients, dtype=float)
    if coefficients.ndim == 1:
        coefficients = coefficients[:, None]
    diagnostics = FitDiagnostics(
        condition_number=1.0,
        iterations=0,
        pruned_count=0,
        max_total_degree=basis.max_total_degree(),
        max_univariate_degree=basis.max_univariate_degree(),
        basis_size=len(basis),
        termination="fixed",
    )
    return PceModel(spec=spec, basis=basis, coefficients=coefficients, diagnostics=diagnostics)


@pytest.fixture
def standard_normal_2d():
    return DistributionSpec([Marginal.normal(0.0, 1.0), Marginal.normal(0.0, 1.0)])


@pytest.fixture
def uniform_3d():
    return DistributionSpec([Marginal.uniform(-1.0, 1.0)] * 3)
