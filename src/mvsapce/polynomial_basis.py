"""Input distributions, standardization, and orthonormal polynomial evaluation.

Each marginal input distribution is mapped onto a reference variable for
which a classical orthonormal polynomial family exists: normal and lognormal
marginals standardize to a standard normal (probabilists' Hermite family),
uniform marginals to the uniform law on [-1, 1] (Legendre family).  All
polynomials are evaluated through normalized three-term recurrences so that
E[psi_k^2] = 1 under the reference law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigError, DataError, DomainError

#: Hard ceiling on univariate degrees; guards the recurrences against
#: overflow long before adaptive fits reach such degrees in practice.
DEGREE_CAP = 30

HERMITE = "hermite"
LEGENDRE = "legendre"


@dataclass(frozen=True)
class Marginal:
    """One marginal input distribution in physical units.

    Parameters
    ----------
    kind : str
        One of ``"normal"``, ``"lognormal"``, ``"uniform"``.
    params : tuple of float
        ``(mean, std)`` for normal and lognormal (moments of the lognormal
        variable itself, not of its logarithm), ``(lower, upper)`` for
        uniform.
    """

    kind: str
    params: tuple[float, float]

    def __post_init__(self):
        if self.kind not in ("normal", "lognormal", "uniform"):
            raise ConfigError(f"unknown marginal kind {self.kind!r}")
        a, b = (float(v) for v in self.params)
        object.__setattr__(self, "params", (a, b))
        if not (math.isfinite(a) and math.isfinite(b)):
            raise ConfigError(f"non-finite parameters for {self.kind} marginal")
        if self.kind in ("normal", "lognormal") and b <= 0.0:
            raise ConfigError(f"{self.kind} marginal requires std > 0, got {b}")
        if self.kind == "lognormal" and a <= 0.0:
            raise ConfigError(f"lognormal marginal requires mean > 0, got {a}")
        if self.kind == "uniform" and not a < b:
            raise ConfigError(f"uniform marginal requires lower < upper, got ({a}, {b})")

    @classmethod
    def normal(cls, mean, std):
        return cls("normal", (mean, std))

    @classmethod
    def lognormal(cls, mean, std):
        return cls("lognormal", (mean, std))

    @classmethod
    def uniform(cls, lower, upper):
        return cls("uniform", (lower, upper))

    @property
    def family(self) -> str:
        """Orthonormal polynomial family of the reference variable."""
        return LEGENDRE if self.kind == "uniform" else HERMITE

    def log_parameters(self) -> tuple[float, float]:
        """Moment-matched (mu, sigma) of log(X) for a lognormal marginal.

        With (m, s) the mean and standard deviation of the lognormal
        variable itself, sigma^2 = ln(1 + (s/m)^2) and
        mu = ln(m) - sigma^2 / 2.
        """
        if self.kind != "lognormal":
            raise ConfigError("log_parameters is defined for lognormal marginals only")
        m, s = self.params
        sigma_sq = math.log1p((s / m) ** 2)
        mu = math.log(m) - 0.5 * sigma_sq
        return mu, math.sqrt(sigma_sq)

    def standardize(self, x):
        """Map physical values onto the reference variable.

        Accepts a scalar or ndarray; raises DomainError for values outside
        the support.
        """
        x = np.asarray(x, dtype=float)
        if not np.all(np.isfinite(x)):
            raise DomainError(f"non-finite value for {self.kind} marginal")
        if self.kind == "normal":
            mean, std = self.params
            return (x - mean) / std
        if self.kind == "lognormal":
            if np.any(x <= 0.0):
                raise DomainError("lognormal marginal requires x > 0")
            mu, sigma = self.log_parameters()
            return (np.log(x) - mu) / sigma
        lower, upper = self.params
        if np.any(x < lower) or np.any(x > upper):
            raise DomainError(f"value outside uniform support [{lower}, {upper}]")
        return 2.0 * (x - lower) / (upper - lower) - 1.0

    def sample(self, size: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``size`` independent realizations in physical units."""
        if self.kind == "normal":
            mean, std = self.params
            return rng.normal(mean, std, size)
        if self.kind == "lognormal":
            mu, sigma = self.log_parameters()
            return rng.lognormal(mu, sigma, size)
        lower, upper = self.params
        return rng.uniform(lower, upper, size)

    def to_dict(self) -> dict:
        return {"kind": self.kind, "params": list(self.params)}

    @classmethod
    def from_dict(cls, payload: dict) -> "Marginal":
        try:
            kind = payload["kind"]
            params = payload["params"]
        except (KeyError, TypeError) as exc:
            raise DataError(f"malformed marginal entry: {payload!r}") from exc
        try:
            if len(params) != 2:
                raise DataError(f"marginal params must have length 2, got {params!r}")
            values = (float(params[0]), float(params[1]))
        except (TypeError, ValueError) as exc:
            raise DataError(f"malformed marginal params {params!r}: {exc}") from None
        return cls(kind, values)


@dataclass(frozen=True)
class DistributionSpec:
    """Ordered collection of independent marginal distributions."""

    marginals: tuple[Marginal, ...]

    def __post_init__(self):
        marginals = tuple(self.marginals)
        object.__setattr__(self, "marginals", marginals)
        if len(marginals) < 1:
            raise ConfigError("DistributionSpec requires at least one marginal")

    @classmethod
    def of(cls, marginals: Iterable[Marginal]) -> "DistributionSpec":
        return cls(tuple(marginals))

    @property
    def dim(self) -> int:
        return len(self.marginals)

    @property
    def families(self) -> tuple[str, ...]:
        return tuple(m.family for m in self.marginals)

    def standardize_rows(self, inputs) -> np.ndarray:
        """Standardize a Q x N matrix column by column."""
        x = np.asarray(inputs, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.dim:
            raise DataError(
                f"expected inputs of shape (Q, {self.dim}), got {x.shape}"
            )
        out = np.empty_like(x)
        for n, marginal in enumerate(self.marginals):
            try:
                out[:, n] = marginal.standardize(x[:, n])
            except DomainError as exc:
                bad = _first_offending_row(marginal, x[:, n])
                raise DomainError(f"row {bad}, input component {n}: {exc}") from None
        return out

    def sample(self, size: int, rng: np.random.Generator) -> np.ndarray:
        """Draw a ``size`` x N matrix of independent rows, column by column."""
        out = np.empty((size, self.dim))
        for n, marginal in enumerate(self.marginals):
            out[:, n] = marginal.sample(size, rng)
        return out

    def to_json(self) -> list[dict]:
        return [m.to_dict() for m in self.marginals]

    @classmethod
    def from_json(cls, payload: Sequence[dict]) -> "DistributionSpec":
        if not isinstance(payload, (list, tuple)) or len(payload) == 0:
            raise DataError("distribution spec JSON must be a non-empty array")
        return cls(tuple(Marginal.from_dict(entry) for entry in payload))


def _first_offending_row(marginal: Marginal, column: np.ndarray) -> int:
    for q, value in enumerate(column):
        try:
            marginal.standardize(value)
        except DomainError:
            return q
    return -1


def univariate_table(family: str, max_degree: int, z) -> np.ndarray:
    """Evaluate orthonormal polynomials of all degrees 0..max_degree.

    Parameters
    ----------
    family : str
        ``"hermite"`` (probabilists', orthonormal under the standard normal)
        or ``"legendre"`` (orthonormal under the uniform law on [-1, 1]).
    max_degree : int
        Highest degree to evaluate; must not exceed ``DEGREE_CAP``.
    z : array_like
        Points in the reference variable.

    Returns
    -------
    ndarray of shape (len(z), max_degree + 1)
        Column k holds psi_k(z).
    """
    if max_degree < 0:
        raise ConfigError(f"degree must be non-negative, got {max_degree}")
    if max_degree > DEGREE_CAP:
        raise ConfigError(
            f"degree {max_degree} exceeds the cap {DEGREE_CAP}"
        )
    z = np.atleast_1d(np.asarray(z, dtype=float))
    table = np.empty((z.size, max_degree + 1))
    table[:, 0] = 1.0
    if max_degree >= 1:
        table[:, 1] = z
    if family == HERMITE:
        # psi_{k+1} = (z psi_k - sqrt(k) psi_{k-1}) / sqrt(k + 1)
        for k in range(1, max_degree):
            table[:, k + 1] = (z * table[:, k] - math.sqrt(k) * table[:, k - 1]) / math.sqrt(k + 1)
    elif family == LEGENDRE:
        # Monic-free Legendre recurrence, then per-degree normalization
        # sqrt(2k + 1) for the uniform density 1/2 on [-1, 1].
        for k in range(1, max_degree):
            table[:, k + 1] = ((2 * k + 1) * z * table[:, k] - k * table[:, k - 1]) / (k + 1)
        norms = np.sqrt(2.0 * np.arange(max_degree + 1) + 1.0)
        table *= norms
    else:
        raise ConfigError(f"unknown polynomial family {family!r}")
    return table
