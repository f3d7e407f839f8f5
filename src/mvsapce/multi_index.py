"""Multi-index set algebra for tensor-product polynomial bases.

A multi-index is a length-N tuple of non-negative integers giving the
univariate degree per input dimension.  Sets preserve insertion order
because that order defines the design-matrix columns downstream; generated
sets and neighbor lists are emitted in lexicographic order so every run of
the toolkit produces identical bases.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from .errors import ConfigError, DataError

MultiIndex = tuple[int, ...]


class MultiIndexSet:
    """Ordered, duplicate-free collection of multi-indices of one dimension."""

    __slots__ = ("indices", "dim", "_members")

    def __init__(self, indices: Iterable[Sequence[int]], dim: int | None = None):
        normalized = []
        members = set()
        for raw in indices:
            index = tuple(int(v) for v in raw)
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
            index = tuple(int(v) for v in raw)
            if index not in seen:
                appended.append(index)
                seen.add(index)
        return MultiIndexSet(appended, dim=self.dim)

    # -- structure ------------------------------------------------------------

    def is_downward_closed(self) -> bool:
        """True iff every backward neighbor of every member is a member."""
        for index in self.indices:
            for n, k_n in enumerate(index):
                if k_n != 0:
                    backward = index[:n] + (k_n - 1,) + index[n + 1:]
                    if backward not in self._members:
                        return False
        return True

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
        admissible = []
        for neighbor in self.forward_neighbors():
            ok = True
            for n, k_n in enumerate(neighbor):
                if k_n != 0:
                    backward = neighbor[:n] + (k_n - 1,) + neighbor[n + 1:]
                    if backward not in self._members:
                        ok = False
                        break
            if ok:
                admissible.append(neighbor)
        return MultiIndexSet(admissible, dim=self.dim)

    def max_total_degree(self) -> int:
        return max((sum(index) for index in self.indices), default=0)

    def max_univariate_degree(self) -> int:
        return max((max(index) for index in self.indices), default=0)

    # -- serialization --------------------------------------------------------

    def to_json(self) -> list[list[int]]:
        return [list(index) for index in self.indices]


def zero_set(dim: int) -> MultiIndexSet:
    """The singleton set containing only the zero multi-index."""
    if dim < 1:
        raise ConfigError(f"dimension must be >= 1, got {dim}")
    return MultiIndexSet([(0,) * dim])


def _total_degree_indices(dim: int, budget: int) -> Iterator[MultiIndex]:
    if dim == 1:
        for k in range(budget + 1):
            yield (k,)
        return
    for first in range(budget + 1):
        for rest in _total_degree_indices(dim - 1, budget - first):
            yield (first,) + rest


def total_degree_set(dim: int, degree: int) -> MultiIndexSet:
    """All multi-indices with l1-norm at most ``degree``, lexicographic."""
    if dim < 1:
        raise ConfigError(f"dimension must be >= 1, got {dim}")
    if degree < 0:
        raise ConfigError(f"degree must be >= 0, got {degree}")
    return MultiIndexSet(_total_degree_indices(dim, degree), dim=dim)


def parse_total_degree(token: str) -> int | None:
    """Degree p of a ``td:<p>`` token; None when ``token`` has another form."""
    if not token.startswith("td:"):
        return None
    try:
        degree = int(token[3:])
    except ValueError:
        raise ConfigError(f"malformed total-degree token {token!r}") from None
    if degree < 0:
        raise ConfigError(f"total-degree token needs degree >= 0, got {token!r}")
    return degree
