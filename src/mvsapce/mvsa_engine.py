"""Sensitivity-adaptive basis expansion, pruning, and fitted-model handling.

The adaptive fit grows a downward-closed multi-index set one term at a
time, always accepting the admissible forward neighbor whose coefficients
contribute the most aggregated response variance, and stops as soon as the
least-squares problem would become underdetermined or ill-conditioned.
The extended set reached at that point is then pruned back, removing the
weakest terms until both the sample-size and the condition-number limits
hold again.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import get_type_hints

import numpy as np

from .errors import ConfigError, DataError
from .multi_index import MultiIndex, MultiIndexSet, zero_set
from .polynomial_basis import DistributionSpec
from .regression import (
    DesignBuilder,
    TrainingData,
    read_json_file,
    solve_with_condition,
    write_json_file,
)

MODEL_FORMAT_VERSION = 1


@dataclass(frozen=True)
class MvsaConfig:
    """Knobs of the adaptive fit.

    kappa is the largest tolerated spectral condition number of the design
    matrix (finite, above 1); initial_set defaults to the zero index;
    max_iterations, when given, caps the number of accepted expansion steps.
    """

    kappa: float = 100.0
    initial_set: MultiIndexSet | None = None
    max_iterations: int | None = None

    def __post_init__(self):
        if not (math.isfinite(self.kappa) and self.kappa > 1.0):
            raise ConfigError(f"kappa must be finite and exceed 1, got {self.kappa}")
        if self.max_iterations is not None and self.max_iterations < 1:
            raise ConfigError(f"max_iterations must be >= 1, got {self.max_iterations}")

    def resolve_initial_set(self, dim: int) -> MultiIndexSet:
        if self.initial_set is None:
            return zero_set(dim)
        if self.initial_set.dim != dim:
            raise ConfigError(
                f"initial set dimension {self.initial_set.dim} does not match inputs ({dim})"
            )
        if not self.initial_set.is_downward_closed():
            raise ConfigError("initial multi-index set must be downward-closed")
        return self.initial_set


@dataclass(frozen=True)
class ExpansionStep:
    """One accepted expansion: which index entered and on what evidence.

    ``eta`` comes from the step's own solve, which runs against the
    compressed responses when M > Q: it equals the full-response value up
    to rounding.
    """

    added: MultiIndex
    eta: float
    condition_number: float
    extended_size: int


@dataclass(frozen=True)
class ExpansionTrace:
    initial: MultiIndexSet
    steps: tuple[ExpansionStep, ...]
    termination: str


@dataclass(frozen=True)
class PruneResult:
    basis: MultiIndexSet
    coefficients: np.ndarray
    removed: tuple[MultiIndex, ...]
    condition_number: float


@dataclass(frozen=True)
class FitDiagnostics:
    condition_number: float
    iterations: int
    pruned_count: int
    max_total_degree: int
    max_univariate_degree: int
    basis_size: int
    termination: str

    @classmethod
    def of(
        cls, basis: MultiIndexSet, cond: float, iterations: int, pruned: int, termination: str
    ) -> "FitDiagnostics":
        """Diagnostics of a fit that ended on ``basis`` with condition ``cond``."""
        return cls(
            condition_number=cond,
            iterations=iterations,
            pruned_count=pruned,
            max_total_degree=basis.max_total_degree(),
            max_univariate_degree=basis.max_univariate_degree(),
            basis_size=len(basis),
            termination=termination,
        )

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in get_type_hints(type(self))}

    @classmethod
    def from_dict(cls, payload: dict) -> "FitDiagnostics":
        # Each field is coerced by its annotated type (float, int or str).
        return cls(**{name: kind(payload[name]) for name, kind in get_type_hints(cls).items()})


@dataclass(frozen=True)
class PceModel:
    """Fitted expansion: distribution spec, basis, and K x M coefficients.

    Immutable once constructed; safe to share across threads for
    prediction and post-processing.
    """

    spec: DistributionSpec
    basis: MultiIndexSet
    coefficients: np.ndarray
    diagnostics: FitDiagnostics
    trace: ExpansionTrace | None = field(default=None, compare=False)

    def __post_init__(self):
        coeffs = np.asarray(self.coefficients, dtype=float)
        if coeffs.ndim == 1:
            coeffs = coeffs[:, None]
        if coeffs.shape[0] != len(self.basis):
            raise DataError(
                f"coefficient rows ({coeffs.shape[0]}) do not match basis size ({len(self.basis)})"
            )
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def n_outputs(self) -> int:
        return self.coefficients.shape[1]


def sensitivity_indicators(coefficients) -> np.ndarray:
    """Per-term aggregated variance contribution: eta_k = sum_m c_{m,k}^2."""
    coeffs = np.asarray(coefficients, dtype=float)
    if coeffs.ndim == 1:
        coeffs = coeffs[:, None]
    return np.sum(coeffs * coeffs, axis=1)


def check_initial_size(size: int, n_samples: int) -> None:
    """An initial set must be smaller than the sample count; ConfigError otherwise."""
    if size >= n_samples:
        raise ConfigError(f"initial set size {size} must be smaller than the sample count {n_samples}")


def _response_factor(responses: np.ndarray) -> np.ndarray:
    """Right-hand side of the adaptive steps: Y itself, or a Q x Q factor of it.

    eta_k = sum_m c_{k,m}^2 depends on Y only through Y Y^T.  When M > Q, a
    thin QR Y^T = Q_y R gives Y Y^T = R^T R, so solving against R^T yields
    the same indicators (up to rounding) and, since the condition number
    depends on the design alone, the same condition number, at a cost per
    solve independent of M.
    """
    n_samples, n_outputs = responses.shape
    if n_outputs <= n_samples:
        return responses
    return np.linalg.qr(responses.T, mode="r").T


def _admit_successors(chosen: MultiIndex, members: set, frontier: list) -> None:
    """Insert into the sorted ``frontier`` each k + e_n that ``chosen`` makes admissible.

    ``members`` is the downward-closed basis, already holding ``chosen``.
    Accepting an index can only make its own forward neighbors admissible
    (the active/old bookkeeping of dimension-adaptive sparse grids), and
    none of those can already be a member or on the frontier.
    """
    for n in range(len(chosen)):
        candidate = chosen[:n] + (chosen[n] + 1,) + chosen[n + 1:]
        if all(
            candidate[:j] + (k_j - 1,) + candidate[j + 1:] in members
            for j, k_j in enumerate(candidate)
            if k_j and j != n
        ):
            bisect.insort(frontier, candidate)


def expand_basis(
    data: TrainingData,
    spec: DistributionSpec,
    config: MvsaConfig | None = None,
    _builder: DesignBuilder | None = None,
    _factor: np.ndarray | None = None,
) -> tuple[MultiIndexSet, ExpansionTrace]:
    """Adaptive basis expansion; returns the final extended set and a trace.

    Each pass forms the extended set (current basis plus all admissible
    forward neighbors), stops before solving if that set outgrows the sample
    count, solves the least-squares problem otherwise, stops if the design
    is conditioned worse than kappa, and else accepts the single admissible
    index with the largest sensitivity indicator (ties broken toward the
    lexicographically smallest index).
    """
    config = config or MvsaConfig()
    if data.n_inputs != spec.dim:
        raise DataError(f"data width {data.n_inputs} does not match spec dimension {spec.dim}")
    initial = config.resolve_initial_set(spec.dim)
    check_initial_size(len(initial), data.n_samples)
    builder = _builder or DesignBuilder(spec, data.inputs)
    rhs = _response_factor(data.responses) if _factor is None else _factor
    basis = list(initial.indices)
    members = set(basis)
    frontier = list(initial.admissible_forward_neighbors().indices)
    steps: list[ExpansionStep] = []
    while True:
        extended = basis + frontier
        if len(extended) > data.n_samples:
            termination = "underdetermined"
            break
        coeffs, cond = solve_with_condition(builder.matrix(extended), rhs)
        if cond > config.kappa:
            termination = "ill_conditioned"
            break
        eta = sensitivity_indicators(coeffs)
        # The frontier sits after the current basis, in sorted order, so the
        # first maximum is the lexicographic winner.
        offset = len(basis)
        best = int(np.argmax(eta[offset:]))
        chosen = frontier.pop(best)
        steps.append(
            ExpansionStep(
                added=chosen,
                eta=float(eta[offset + best]),
                condition_number=cond,
                extended_size=len(extended),
            )
        )
        basis.append(chosen)
        members.add(chosen)
        _admit_successors(chosen, members, frontier)
        if config.max_iterations is not None and len(steps) >= config.max_iterations:
            termination = "max_iterations"
            break
    trace = ExpansionTrace(initial=initial, steps=tuple(steps), termination=termination)
    return MultiIndexSet(extended, dim=spec.dim), trace


def prune_basis(
    data: TrainingData,
    spec: DistributionSpec,
    basis: MultiIndexSet,
    config: MvsaConfig | None = None,
    _builder: DesignBuilder | None = None,
    _factor: np.ndarray | None = None,
) -> PruneResult:
    """Remove minimum-sensitivity terms until size and conditioning hold.

    While the design is conditioned worse than kappa or the basis outsizes
    the sample count, re-solves the least-squares problem and drops the
    index with the smallest sensitivity indicator (lexicographic tie-break;
    the zero index is exempt).  Returns the final basis together with a
    fresh solve on it against all outputs.
    """
    config = config or MvsaConfig()
    zero = (0,) * basis.dim
    if zero not in basis:
        raise ConfigError("prune_basis expects the zero multi-index in the basis")
    builder = _builder or DesignBuilder(spec, data.inputs)
    rhs = _response_factor(data.responses) if _factor is None else _factor
    kept = list(basis.indices)
    removed: list[MultiIndex] = []
    while True:
        matrix = builder.matrix(kept)
        coeffs, cond = solve_with_condition(matrix, rhs)
        if cond <= config.kappa and len(kept) <= data.n_samples:
            if rhs is not data.responses:
                coeffs, cond = solve_with_condition(matrix, data.responses)
            return PruneResult(
                basis=MultiIndexSet(kept, dim=basis.dim),
                coefficients=coeffs,
                removed=tuple(removed),
                condition_number=cond,
            )
        eta = sensitivity_indicators(coeffs)
        # A lone all-ones column has condition number 1 and size 1 <= Q, so
        # the loop returns before the zero index is the only one left.
        victim = min((eta[i], index) for i, index in enumerate(kept) if index != zero)[1]
        kept.remove(victim)
        removed.append(victim)


def fit_mvsa(
    data: TrainingData,
    spec: DistributionSpec,
    config: MvsaConfig | None = None,
) -> PceModel:
    """Full adaptive fit: expansion, pruning, and final solve.

    The responses are compressed once per fit and shared by both phases.
    """
    config = config or MvsaConfig()
    builder = DesignBuilder(spec, data.inputs)
    factor = _response_factor(data.responses)
    extended, trace = expand_basis(data, spec, config, _builder=builder, _factor=factor)
    result = prune_basis(data, spec, extended, config, _builder=builder, _factor=factor)
    diagnostics = FitDiagnostics.of(
        result.basis, result.condition_number, len(trace.steps), len(result.removed), trace.termination
    )
    return PceModel(
        spec=spec,
        basis=result.basis,
        coefficients=result.coefficients,
        diagnostics=diagnostics,
        trace=trace,
    )


def fit_fixed(data: TrainingData, spec: DistributionSpec, basis: MultiIndexSet) -> PceModel:
    """Single least-squares solve on a fixed basis, min-norm if needed.

    No adaptivity and no condition-number enforcement; the diagnostics
    record the condition number as observed.
    """
    if len(basis) == 0:
        raise ConfigError("fixed-basis fit requires a non-empty basis")
    if data.n_inputs != spec.dim:
        raise DataError(f"data width {data.n_inputs} does not match spec dimension {spec.dim}")
    builder = DesignBuilder(spec, data.inputs)
    coeffs, cond = solve_with_condition(builder.matrix(basis), data.responses)
    diagnostics = FitDiagnostics.of(basis, cond, 0, 0, "fixed")
    return PceModel(spec=spec, basis=basis, coefficients=coeffs, diagnostics=diagnostics)


def predict(model: PceModel, inputs) -> np.ndarray:
    """Evaluate the expansion at new inputs; returns a Q' x M matrix."""
    inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
    if inputs.shape[1] != model.spec.dim:
        raise DataError(
            f"inputs have width {inputs.shape[1]}, model expects {model.spec.dim}"
        )
    if inputs.shape[0] == 0:
        return np.empty((0, model.n_outputs))
    builder = DesignBuilder(model.spec, inputs)
    return builder.matrix(model.basis) @ model.coefficients


# -- persistence ----------------------------------------------------------------


def model_to_json(model: PceModel) -> dict:
    return {
        "format_version": MODEL_FORMAT_VERSION,
        "spec": model.spec.to_json(),
        "basis": model.basis.to_json(),
        "coefficients": [[float(v) for v in row] for row in model.coefficients],
        "diagnostics": model.diagnostics.to_dict(),
    }


def model_from_json(payload: dict) -> PceModel:
    """Rebuild a model from its JSON payload; any malformed field is a DataError."""
    if not isinstance(payload, dict):
        raise DataError(f"model JSON must be an object, got {type(payload).__name__}")
    try:
        version = payload["format_version"]
        if version != MODEL_FORMAT_VERSION:
            raise DataError(f"unsupported model format_version {version}")
        spec = DistributionSpec.from_json(payload["spec"])
        basis = MultiIndexSet(payload["basis"], dim=spec.dim)
        coefficients = np.asarray(payload["coefficients"], dtype=float)
        diagnostics = FitDiagnostics.from_dict(payload["diagnostics"])
    except KeyError as exc:
        raise DataError(f"model JSON is missing field {exc}") from None
    except (TypeError, ValueError) as exc:
        raise DataError(f"malformed model JSON: {exc}") from None
    # PceModel checks that the row count K matches the basis.
    if coefficients.ndim != 2 or coefficients.shape[1] < 1:
        raise DataError(f"coefficients must form a K x M array, M >= 1; got shape {coefficients.shape}")
    if not np.all(np.isfinite(coefficients)):
        raise DataError("non-finite entries in model coefficients")
    return PceModel(spec=spec, basis=basis, coefficients=coefficients, diagnostics=diagnostics)


def save_model(model: PceModel, path) -> None:
    write_json_file(path, model_to_json(model))


def load_model(path) -> PceModel:
    return model_from_json(read_json_file(path, "model"))
