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
from functools import partial
from typing import Sequence

import numpy as np

from .errors import ConfigError, DataError, DomainError, require

#: Hard ceiling on univariate degrees; guards the recurrences against
#: overflow long before adaptive fits reach such degrees in practice.
DEGREE_CAP = 30

HERMITE = "hermite"
LEGENDRE = "legendre"


def real_array(values, name: str, context: str) -> np.ndarray:
    """``values`` as a float array, the same object when it is one already.

    A DataError starting with ``context`` when they are complex, whose
    imaginary parts a float conversion would drop with only a warning, or
    text (a string array, or an object array with any ``str`` or ``bytes``
    entry), which a float conversion would read by Python's ``float``
    grammar (``'1_0'`` as 10), not the data files' number grammar; both
    name ``name``.  Any other entry that is not a number is a DataError
    quoting numpy's message about the entry as given.
    """
    try:
        array = np.asarray(values)
        kind = array.dtype.kind
        # Only an object array is scanned: a float array passes untouched.
        text = kind in "SU" or (kind == "O" and any(isinstance(v, (str, bytes)) for v in array.flat))
        if text or kind == "c":
            raise DataError(f"{context}: {name} hold {'text' if text else 'complex values'}, not real numbers")
        return array.astype(float, copy=False)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"{context}: {exc}") from None


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
        try:
            params = tuple(self.params)
            # float() would read True as 1.0 and the text '0.1_5' as 0.15.
            if any(isinstance(v, (bool, np.bool_, str, bytes)) for v in params):
                raise TypeError
            a, b = (float(v) for v in params)
        except (TypeError, ValueError, OverflowError):
            raise ConfigError(f"{self.kind} marginal params must be two numbers, got {self.params!r}") from None
        object.__setattr__(self, "params", (a, b))
        if not (math.isfinite(a) and math.isfinite(b)):
            raise ConfigError(f"non-finite parameters for {self.kind} marginal")
        if self.kind in ("normal", "lognormal") and b <= 0.0:
            raise ConfigError(f"{self.kind} marginal requires std > 0, got {b}")
        if self.kind == "lognormal" and a <= 0.0:
            raise ConfigError(f"lognormal marginal requires mean > 0, got {a}")
        # Past these bounds (std/mean)^2 overflows, or the log-scale sigma rounds to 0 (``log_parameters``).
        if self.kind == "lognormal" and not 1e-160 <= b / a <= 1e154:
            raise ConfigError(f"lognormal marginal requires 1e-160 <= std/mean <= 1e154, got {b / a}")
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
        the support, with ``row`` the flat position of the first one, and
        DataError for values that are not real numbers (text included).
        """
        x = real_array(x, "values", f"{self.kind} marginal values are not a numeric array")
        flat = x.reshape(-1)  # flat positions; a view of standardize_rows' 1-D columns
        require(np.isfinite(flat), partial(DomainError, f"non-finite value for {self.kind} marginal"))
        if self.kind == "normal":
            mean, std = self.params
            return (x - mean) / std
        if self.kind == "lognormal":
            require(flat > 0.0, partial(DomainError, "lognormal marginal requires x > 0"))
            mu, sigma = self.log_parameters()
            return (np.log(x) - mu) / sigma
        lower, upper = self.params
        outside = partial(DomainError, f"value outside uniform support [{lower}, {upper}]")
        require((flat >= lower) & (flat <= upper), outside)
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


@dataclass(frozen=True)
class DistributionSpec:
    """Ordered collection of independent marginal distributions."""

    marginals: tuple[Marginal, ...]

    def __post_init__(self):
        marginals = tuple(self.marginals)
        object.__setattr__(self, "marginals", marginals)
        if len(marginals) < 1:
            raise ConfigError("DistributionSpec requires at least one marginal")

    @property
    def dim(self) -> int:
        return len(self.marginals)

    def standardize_rows(self, inputs) -> np.ndarray:
        """Standardize a Q x N matrix column by column; a DomainError names its row from 1 and its column x<n>.

        One row may be given 1-D.  Inputs that are complex or not numbers are a DataError."""
        x = np.atleast_2d(real_array(inputs, "inputs", "inputs are not a numeric array"))
        if x.ndim != 2 or x.shape[1] != self.dim:
            raise DataError(
                f"expected inputs of shape (Q, {self.dim}), got {x.shape}"
            )
        out = np.empty_like(x)
        for n, marginal in enumerate(self.marginals):
            try:
                out[:, n] = marginal.standardize(x[:, n])
            except DomainError as exc:
                raise DomainError(f"row {exc.row + 1}, x{n + 1}: {exc}") from None
        return out

    def sample(self, size: int, rng: np.random.Generator) -> np.ndarray:
        """Draw a ``size`` x N matrix of independent rows, column by column."""
        out = np.empty((size, self.dim))
        for n, marginal in enumerate(self.marginals):
            out[:, n] = marginal.sample(size, rng)
        return out

    def to_json(self) -> list[dict]:
        return [{"kind": m.kind, "params": list(m.params)} for m in self.marginals]

    @classmethod
    def from_json(cls, payload: Sequence[dict]) -> "DistributionSpec":
        """Decode a spec file's array; any fault in an entry is a DataError naming its position."""
        if not isinstance(payload, (list, tuple)) or len(payload) == 0:
            raise DataError("distribution spec JSON must be a non-empty array")
        marginals = []
        for n, entry in enumerate(payload):
            try:
                if not isinstance(entry["params"], list):
                    raise TypeError(f"params must be an array, got {type(entry['params']).__name__}")
                marginals.append(Marginal(entry["kind"], tuple(entry["params"])))
            except (KeyError, TypeError, ValueError, OverflowError, ConfigError) as exc:
                raise DataError(f"distribution spec entry {n} {entry!r}: {exc}") from None
        return cls(tuple(marginals))


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
