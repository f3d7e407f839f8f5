"""Multi-index set algebra for tensor-product polynomial bases.

A multi-index is a length-N tuple of non-negative integers giving the
univariate degree per input dimension.  Sets preserve insertion order
because that order defines the design-matrix columns downstream; generated
sets and neighbor lists are emitted in lexicographic order so every run of
the toolkit produces identical bases.
"""

from __future__ import annotations

import operator
import sys
from typing import Iterable, Iterator, Sequence

from .errors import ConfigError, DataError
from .polynomial_basis import DEGREE_CAP

MultiIndex = tuple[int, ...]


class MultiIndexSet:
    """Ordered, duplicate-free collection of multi-indices of one dimension."""

    __slots__ = ("indices", "dim", "_members")

    def __init__(self, indices: Iterable[Sequence[int]], dim: int | None = None):
        normalized = []
        members = set()
        for raw in indices:
            try:
                index = tuple(map(operator.index, raw))
            except TypeError:
                raise DataError(f"multi-index {raw!r} has a non-integer entry") from None
            if any(v < 0 for v in index):
                raise DataError(f"multi-index {index} has a negative entry")
            if index in members:
                raise DataError(f"duplicate multi-index {index}")
            members.add(index)
            normalized.append(index)
        if normalized:
            lengths = {len(index) for index in normalized}
            if len(lengths) > 1:
                raise DataError(f"inconsistent multi-index lengths: {sorted(lengths)}")
            inferred = lengths.pop()
            if dim is not None and dim != inferred:
                raise DataError(f"declared dimension {dim} does not match indices of length {inferred}")
            dim = inferred
        elif dim is None:
            raise DataError("dimension is required for an empty multi-index set")
        self.indices: tuple[MultiIndex, ...] = tuple(normalized)
        self.dim: int = dim
        self._members: frozenset[MultiIndex] = frozenset(members)

    def __len__(self) -> int:
        return len(self.indices)

    def __iter__(self) -> Iterator[MultiIndex]:
        return iter(self.indices)

    def __contains__(self, index) -> bool:
        return tuple(index) in self._members

    def __eq__(self, other) -> bool:
        return isinstance(other, MultiIndexSet) and self.indices == other.indices

    def __repr__(self) -> str:
        return f"MultiIndexSet(dim={self.dim}, size={len(self)})"

    # -- set construction ---------------------------------------------------

    def with_index(self, index: Sequence[int]) -> "MultiIndexSet":
        """New set with ``index`` appended, preserving existing order."""
        return MultiIndexSet(self.indices + (tuple(index),), dim=self.dim)

    def without_index(self, index: Sequence[int]) -> "MultiIndexSet":
        """New set with ``index`` removed, preserving order of the rest."""
        index = tuple(index)
        if index not in self._members:
            raise DataError(f"multi-index {index} not in set")
        return MultiIndexSet(
            tuple(k for k in self.indices if k != index), dim=self.dim
        )

    def union(self, extra: Iterable[Sequence[int]]) -> "MultiIndexSet":
        """Append the members of ``extra`` that are not already present."""
        appended = list(self.indices)
        seen = set(self._members)
        for raw in extra:
            index = tuple(raw)
            if index not in seen:
                appended.append(index)
                seen.add(index)
        return MultiIndexSet(appended, dim=self.dim)

    # -- structure ------------------------------------------------------------

    def is_downward_closed(self) -> bool:
        """True iff every backward neighbor of every member is a member."""
        return all(is_admissible(index, self._members) for index in self.indices)

    def forward_neighbors(self) -> "MultiIndexSet":
        """All increments k + e_n of members that are not themselves members."""
        found = set()
        for index in self.indices:
            for n in range(self.dim):
                neighbor = index[:n] + (index[n] + 1,) + index[n + 1:]
                if neighbor not in self._members:
                    found.add(neighbor)
        return MultiIndexSet(sorted(found), dim=self.dim)

    def admissible_forward_neighbors(self) -> "MultiIndexSet":
        """Forward neighbors whose every backward neighbor is a member.

        Requires a downward-closed set; adding any member of the result (or
        all of them) keeps the set downward-closed.
        """
        if not self.is_downward_closed():
            raise ConfigError("admissible neighbors require a downward-closed set")
        admissible = [k for k in self.forward_neighbors() if is_admissible(k, self._members)]
        return MultiIndexSet(admissible, dim=self.dim)

    def max_total_degree(self) -> int:
        return max((sum(index) for index in self.indices), default=0)

    def max_univariate_degree(self) -> int:
        return max((max(index) for index in self.indices), default=0)

    # -- serialization --------------------------------------------------------

    def to_json(self) -> list[list[int]]:
        return [list(index) for index in self.indices]


def is_admissible(index: MultiIndex, members) -> bool:
    """True iff every backward neighbor k - e_n (k_n > 0) of ``index`` is in ``members``."""
    return all(
        index[:n] + (k_n - 1,) + index[n + 1:] in members for n, k_n in enumerate(index) if k_n
    )


def _total_degree_indices(dim: int, budget: int) -> Iterator[MultiIndex]:
    """Indices of l1-norm at most ``budget`` in lexicographic order, by an odometer rather than one recursion level
    per input: raise the last entry, or at the budget zero the last nonzero entry and raise the one before it."""
    index, total = [0] * dim, 0
    while True:
        yield tuple(index)
        if total < budget:
            index[-1], total = index[-1] + 1, total + 1
            continue
        last = max((n for n in range(1, dim) if index[n]), default=0)
        if not last:
            return
        total -= index[last] - 1
        index[last], index[last - 1] = 0, index[last - 1] + 1


def total_degree_set(dim: int, degree: int) -> MultiIndexSet:
    """All multi-indices with l1-norm at most ``degree``, lexicographic.

    A degree above ``DEGREE_CAP`` is rejected before it is enumerated.
    """
    if dim < 1:
        raise ConfigError(f"dimension must be >= 1, got {dim}")
    if not 0 <= degree <= DEGREE_CAP:
        raise ConfigError(f"total degree must lie in 0..{DEGREE_CAP}, got {degree}")
    return MultiIndexSet(_total_degree_indices(dim, degree), dim=dim)


def parse_count(text: str) -> int:
    """The integer in 0..sys.maxsize that ``text`` writes in ASCII digits only; ConfigError for any other text."""
    try:
        # int() also refuses more digits than sys.get_int_max_str_digits().
        if text.isascii() and text.isdigit() and (value := int(text)) <= sys.maxsize:
            return value
    except ValueError:
        pass
    raise ConfigError(f"expected ASCII digits of an integer up to {sys.maxsize}, got {text!r}")


def as_integer(name: str, value) -> int:
    """``value`` as an int, by ``operator.index``, at most sys.maxsize; ConfigError naming ``name`` otherwise."""
    try:
        # operator.index would read True as 1.
        if isinstance(value, bool):
            raise TypeError
        integer = operator.index(value)
    except TypeError:
        raise ConfigError(f"{name} must be an integer, got {value!r}") from None
    if integer > sys.maxsize:
        raise ConfigError(f"{name} must be at most {sys.maxsize}, got {integer}")
    return integer


def parse_total_degree(token: str) -> int | None:
    """Degree p of a ``td:<p>`` token, p by ``parse_count``; None when ``token`` has another form."""
    if not token.startswith("td:"):
        return None
    try:
        return parse_count(token[3:])
    except ConfigError:
        raise ConfigError(f"malformed total-degree token {token!r}") from None
