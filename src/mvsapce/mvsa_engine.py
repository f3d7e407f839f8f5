"""Sensitivity-adaptive basis expansion, pruning, and fitted-model handling.

The adaptive fit grows a downward-closed multi-index set one term at a
time, always accepting the admissible forward neighbor whose coefficients
contribute the most aggregated response variance, and stops as soon as the
least-squares problem would become underdetermined or ill-conditioned, or
when every admissible forward neighbor passes the degree cap.  The
extended set reached at that point is then pruned back, removing the
weakest terms until both the sample-size and the condition-number limits
hold again.
"""

from __future__ import annotations

import bisect
import math
import numbers
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import ConfigError, DataError, require
from .multi_index import MultiIndex, MultiIndexSet, as_integer, total_degree_set
from .polynomial_basis import DEGREE_CAP, DistributionSpec, real_array
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
    matrix (finite, above 1); the expansion starts from the total-degree
    set of degree initial_degree, by default the zero index alone.
    """

    kappa: float = 100.0
    initial_degree: int = 0

    def __post_init__(self):
        if not isinstance(self.kappa, numbers.Real):
            raise ConfigError(f"kappa must be a real number, got {self.kappa!r}")
        if not (math.isfinite(self.kappa) and self.kappa > 1.0):
            raise ConfigError(f"kappa must be finite and exceed 1, got {self.kappa}")
        object.__setattr__(self, "initial_degree", as_integer("initial_degree", self.initial_degree))
        if self.initial_degree < 0:
            raise ConfigError(f"initial_degree must be >= 0, got {self.initial_degree}")


@dataclass(frozen=True)
class ExpansionStep:
    """One accepted expansion: which index entered and on what evidence.

    ``eta`` comes from the step's own solve against the responses
    ``expand_basis`` was given, which in a fit are the Q x r factor of the
    responses when M > Q (r the numerical rank of Y): it then equals the
    full-response value up to rounding.  The step was solved by the
    expansion's ``_StepSolver``: on its QR factor, so that ``eta`` equals
    lstsq's within rounding, or, when the decision was close or the factor
    had broken down, on lstsq, whose values it then reports.
    ``condition_bound`` is at least the design's condition number cond: the
    running bound ab, at most (K0^(1/4) + c) cond (K0 the extended size at
    the last step ``_bounded`` or ``_factored`` bounded, c the columns
    appended since), or else ``_bounded``'s u, at most K^(1/4) cond (K the
    extended size), when that bound proved the step below kappa; else, and
    always near kappa, cond itself, from R's singular values or lstsq's.
    Models, predictions and reports are byte-identical to an lstsq-only
    expansion at a fixed numeric environment.
    """

    added: MultiIndex
    eta: float
    condition_bound: float
    extended_size: int


@dataclass(frozen=True)
class ExpansionTrace:
    initial: MultiIndexSet
    steps: tuple[ExpansionStep, ...]
    termination: str


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


@dataclass(frozen=True)
class PceModel:
    """Fitted expansion: distribution spec, basis, and K x M coefficients.

    The coefficients must be real and finite, with K = len(basis) rows and
    M >= 1 columns; anything else is a DataError.  Immutable once
    constructed; safe to share across threads for prediction and
    post-processing.
    """

    spec: DistributionSpec
    basis: MultiIndexSet
    coefficients: np.ndarray
    diagnostics: FitDiagnostics
    trace: ExpansionTrace | None = field(default=None, compare=False)

    def __post_init__(self):
        coeffs = real_array(self.coefficients, "coefficients", "model coefficients are not a numeric array")
        if coeffs.ndim != 2 or coeffs.shape[0] != len(self.basis) or coeffs.shape[1] < 1:
            raise DataError(
                f"coefficients must form a {len(self.basis)} x M array, M >= 1; got shape {coeffs.shape}"
            )
        require(np.isfinite(coeffs), lambda *_: DataError("non-finite entries in model coefficients"))
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def n_outputs(self) -> int:
        return self.coefficients.shape[1]


def sensitivity_indicators(coefficients: np.ndarray) -> np.ndarray:
    """Per-term aggregated variance contribution of a K x M array: eta_k = sum_m c_{k,m}^2."""
    return np.sum(coefficients * coefficients, axis=1)


def _finite_indicators(coefficients: np.ndarray, terms) -> np.ndarray:
    """``sensitivity_indicators`` of a step's solve; DataError naming the first of ``terms`` whose eta is not finite."""
    # An overflow is reported below, not as a warning.
    with np.errstate(over="ignore"):
        eta = sensitivity_indicators(coefficients)
    require(np.isfinite(eta), lambda k: DataError(f"sensitivity indicator of term {terms[k]} is not finite"))
    return eta


def _right_hand_side(builder: DesignBuilder, responses) -> np.ndarray:
    """``responses`` as a phase's float right-hand side: real, 2-D, one row per input row of ``builder`` and
    finite, a Q x 0 array included; anything else is a DataError."""
    rhs = real_array(responses, "responses", "the responses are not a numeric array")
    if rhs.ndim != 2 or len(rhs) != len(builder.z):
        raise DataError(f"responses must form a {len(builder.z)} x M array, one row per input row; got {rhs.shape}")
    require(np.isfinite(rhs), lambda q, m: DataError(f"row {q + 1}, y{m + 1}: non-finite value"))
    return rhs


def _response_factor(responses: np.ndarray) -> np.ndarray:
    """Right-hand side of the adaptive steps: Y itself, or a Q x r factor of it.

    eta_k = sum_m c_{k,m}^2 depends on Y only through Y Y^T.  When M > Q, a
    thin QR Y^T = Q_y R and an SVD R = U S V^T give Y Y^T = V S^2 V^T, so
    solving against F = V_r S_r yields the same indicators up to rounding
    and, since the condition number depends on the design alone, the same
    condition number, with a right-hand side whose width is r, not M or Q
    (the beam's Y has r = 1).  r is
    the numerical rank of Y by ``np.linalg.matrix_rank``'s rule: the
    singular values above s_1 * max(Q, M) * eps.  All-zero responses give
    r = 0 and a Q x 0 factor, whose indicators are all zero as Y's are.
    Finite responses whose row norms overflow give a non-finite R, and an
    SVD that does not converge has no rank: both are a DataError.
    """
    n_samples, n_outputs = responses.shape
    if n_outputs <= n_samples:
        return responses
    r_factor = np.linalg.qr(responses.T, mode="r")
    overflow = "the Q x Q factor of the responses is not finite: their row norms overflow"
    require(np.isfinite(r_factor), lambda *_: DataError(overflow))
    try:
        _, sigma, vt = np.linalg.svd(r_factor)
    except np.linalg.LinAlgError as exc:
        raise DataError(f"the SVD of the responses' Q x Q factor did not converge: {exc}") from None
    rank = int(np.count_nonzero(sigma > sigma[0] * max(n_samples, n_outputs) * np.finfo(float).eps))
    return vt[:rank].T * sigma[:rank]


def _accept(chosen: MultiIndex, basis: list, missing: dict, frontier: list) -> None:
    """Move ``chosen`` from the sorted ``frontier`` into ``basis`` and insert each k + e_n it makes admissible.

    ``frontier`` holds the admissible forward neighbors of the downward-closed
    ``basis`` up to ``DEGREE_CAP`` in each input, and ``missing`` counts the
    backward neighbors outside ``basis`` of each other index an acceptance
    reached.  Accepting k can only make its own forward neighbors k + e_n
    admissible (the active/old bookkeeping of dimension-adaptive sparse
    grids): each counts one fewer, from its nonzero entries when first
    reached, as every member among its backward neighbors reached it, and
    enters the frontier at 0.  A neighbor of degree DEGREE_CAP + 1 has no
    polynomial table, so it is never reached.
    """
    del frontier[bisect.bisect_left(frontier, chosen)]
    basis.append(chosen)
    nonzero = len(chosen) - chosen.count(0)
    for n, k_n in enumerate(chosen):
        if k_n < DEGREE_CAP:
            up = chosen[:n] + (k_n + 1,) + chosen[n + 1:]
            left = missing.pop(up, nonzero + (k_n == 0)) - 1
            if left:
                missing[up] = left
            else:
                bisect.insort(frontier, up)


#: Relative width of a close decision.  A step decided on a QR factor reruns
#: on lstsq when its condition number is within this fraction of kappa, or
#: when the two etas it tells apart are within this fraction of the larger
#: one or within 1e4 times their rounding bounds (see ``_clear``).  Exact
#: ties always reach lstsq.
_CLOSE = 1e-8

#: Largest condition number a factor decides at (about 4.5e3): a
#: condition number from R and lstsq's differ by about cond * eps
#: relative, which stays 1e4 times below _CLOSE up to here.  The
#: expansion only appends columns, so its condition number never falls: a
#: factor past the limit is dropped and the rest of the expansion runs on
#: lstsq.  A prune step past it runs on lstsq.
_FACTOR_COND_LIMIT = _CLOSE / (1e4 * np.finfo(float).eps)

#: Power steps of each of ``_certified``'s two vectors.
_POWER_STEPS = 5


def _rounding(eta: np.ndarray, residual: float, cond: float, inverse: float) -> float:
    """4 eps cond (||C||_F + ``residual`` ``inverse``), under the caller's ``np.errstate``: with cond >= cond(R),
    inverse >= 1 / sigma_K and ``residual`` = ||Y - A C||_F, it bounds the Frobenius error of a least-squares C
    with indicators ``eta`` (Golub & Van Loan, Thm. 5.3.1)."""
    return 4 * np.finfo(float).eps * cond * (math.sqrt(float(eta.sum())) + residual * inverse)


def _certified(r: np.ndarray, w: np.ndarray, v=None, x=None):
    """(L, v, x): L <= cond(R) from ``_POWER_STEPS`` power steps of v on R^T R and of x on ``w`` ~ R^-1 R^-T,
    from ones and w's column of largest diagonal unless given; v and x return normalized for a warm start.

    Any v and x give sigma_1 >= ||R v|| / ||v|| and sigma_K <= ||R x|| / ||x||, and a computed R v errs by at most
    gamma_K |R| |v| <= 2 K eps |R| |v|, so L = (||R v|| - 2 K eps || |R| |v| ||) ||x|| / ((||R x|| + 2 K eps
    || |R| |x| ||) ||v||) holds, up to the norms' rounding, whatever ``w`` is: it only steers x (Higham, ch. 15,
    condition estimation).  L is NaN when a vector overflows or vanishes."""
    if v is None:
        v, x = np.ones(len(r)), w[:, np.argmax(np.diagonal(w))]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(_POWER_STEPS):
            v, x = (r @ v) @ r, w @ x
        pair = np.column_stack([v, x])
        norms, image = np.linalg.norm(pair, axis=0), np.linalg.norm(r @ pair, axis=0)
        slack = 2 * len(r) * np.finfo(float).eps * np.linalg.norm(np.abs(r) @ np.abs(pair), axis=0)
        lower = (image[0] - slack[0]) * norms[1] / ((image[1] + slack[1]) * norms[0])
        return float(lower), v / norms[0], x / norms[1]


def _factored(r: np.ndarray, projected: np.ndarray, residual: float):
    """(cond, eta, err, (cond, 1 / sigma_K)) of the solve R C = Q^T Y, or None when R's condition number exceeds
    _FACTOR_COND_LIMIT.  cond comes from R's singular values, and err is ``_rounding``'s.  An overflow is reported
    by the caller's finite check, not as a warning."""
    sigma = np.linalg.svd(r, compute_uv=False)
    if not sigma[0] <= _FACTOR_COND_LIMIT * sigma[-1]:
        return None
    cond = float(sigma[0]) / float(sigma[-1])
    with np.errstate(over="ignore", invalid="ignore"):
        eta, bounds = sensitivity_indicators(np.linalg.solve(r, projected)), (cond, 1 / float(sigma[-1]))
        return cond, eta, _rounding(eta, residual, *bounds), bounds


def _bounded(r: np.ndarray, r_inv: np.ndarray, projected: np.ndarray, residual: float, kappa: float):
    """(cond, eta, err, (u, ||R^-1||_S8)) of C = R^-1 Q^T Y from a kept inverse ``r_inv`` of R, with no SVD.

    u = (||(R^T R)^2||_F ||(R^-1 R^-T)^2||_F)^(1/4) is the product of the Schatten 8-norms of R and R^-1, so
    cond(R) <= u <= K^(1/4) cond(R).  With u <= _FACTOR_COND_LIMIT, cond is u if u <= kappa (1 - _CLOSE), else
    ``_certified``'s L if L > kappa (1 + _CLOSE); otherwise None.  err is ``_rounding``'s with u and ||R^-1||_S8
    >= 1/sigma_K, plus gamma_K (|| |R^-1| |R| |C| ||_F + || |R^-1| |Q^T Y| ||_F): an inverse X of R bordered one
    column at a time has |X R - I| <= gamma_K |X| |R| (Higham, ch. 14), so X Q^T Y - C = (X R - I) C, and
    X Q^T Y rounds by at most gamma_K |X| |Q^T Y|.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        gram, inverse_gram = r.T @ r, r_inv @ r_inv.T
        inverse_norm = math.sqrt(math.sqrt(float(np.linalg.norm(inverse_gram @ inverse_gram))))
        cond = bound = math.sqrt(math.sqrt(float(np.linalg.norm(gram @ gram)))) * inverse_norm
        if not bound <= _FACTOR_COND_LIMIT:
            return None
        if bound > kappa * (1 - _CLOSE):
            cond = _certified(r, inverse_gram)[0]
            if not cond > kappa * (1 + _CLOSE):
                return None
        coeffs = r_inv @ projected
        eta = sensitivity_indicators(coeffs)
        eps, magnitude = np.finfo(float).eps, np.abs(r_inv)
        gamma = len(r) * eps / (1 - len(r) * eps)
        rounding = float(np.linalg.norm(magnitude @ (np.abs(r) @ np.abs(coeffs))))
        rounding += float(np.linalg.norm(magnitude @ np.abs(projected)))
        err = _rounding(eta, residual, bound, inverse_norm) + gamma * rounding
    return cond, eta, err, (bound, inverse_norm)


def _clear(low: float, high: float, err: float) -> bool:
    """Whether etas low <= high of coefficients off by at most ``err`` are apart: each eta then errs by at most
    beta(eta) = err (2 sqrt(eta) + err), and the gap must exceed _CLOSE high and 1e4 (beta(low) + beta(high)).
    An exact tie or a non-finite err is never clear."""
    gap = high - low
    # Two comparisons, so that a NaN err is not clear either.
    return gap > _CLOSE * high and gap > 1e4 * err * (2 * math.sqrt(low) + 2 * math.sqrt(high) + 2 * err)


def _weakest(eta: np.ndarray, err: float, columns: list, zero: MultiIndex):
    """The term of ``columns`` with the smallest eta but ``zero``, or None when an eta is not finite or ``_clear``
    does not tell the two weakest apart."""
    if np.isfinite(eta).all():
        eta[columns.index(zero)] = np.inf
        if len(eta) < 3 or _clear(*np.partition(eta, 1)[:2], err):
            return columns[int(np.argmin(eta))]
    return None


class _StepSolver:
    """Solves the expansion steps on a thin QR factor A = Q R of their design columns, or on lstsq.

    The factor holds Q^T (the orthonormal columns as rows), the triangle R, its inverse and Q^T responses of the
    columns in the order they were appended, and ``step``, the last step's (cond, eta, err, bounds); each column
    borders R^-1 in O(K^2).  Its storage starts at the first append, sized to that step's columns, and doubles when
    it fills (at most Q rows), so a fit that ends on K terms holds O(Q K) numbers.  Columns are added by classical
    Gram-Schmidt with one reorthogonalization, which keeps Q orthonormal to working precision while the design is
    numerically of full rank (Giraud et al., Numer. Math. 101, 2005).

    ``squares`` is (a^2, b^2, ||R||_F^2, ||R^-1||_F^2), each column adding its squared norms in R and R^-1 to both
    pairs: a >= sigma_1 and b >= 1 / sigma_K carry over from the last step that bounded them (infinite before it),
    as a column c raises a squared spectral norm by at most ||c||^2 and bordering keeps R^-1's earlier columns
    (Golub & Van Loan, Sec. 2.3; Higham, ch. 14).
    """

    def __init__(self, responses: np.ndarray):
        self.responses = responses
        self.position: dict[MultiIndex, int] | None = {}
        self.qt = np.empty((0, len(responses)))
        self.r = np.zeros((0, 0))
        self.r_inv = np.zeros((0, 0))
        self.projected = np.empty((0, responses.shape[1]))
        self.step = None
        self.squares = np.array([np.inf, np.inf, 0.0, 0.0])
        # ||Y||_F^2 - ||Q^T Y||_F^2: the squared residual of the current columns.
        with np.errstate(over="ignore"):
            self.unexplained = float(np.vdot(responses, responses))

    def _append(self, builder: DesignBuilder, terms) -> bool:
        """Append the columns of the ``terms`` not factored yet; False when Gram-Schmidt breaks down at a
        column with (almost) no part outside the earlier ones."""
        new = [term for term in terms if term not in self.position]
        grow = len(self.position) + len(new) - len(self.r)
        if grow > 0:
            grow = min(max(grow, len(self.r)), len(self.responses) - len(self.r))
            self.qt = np.pad(self.qt, ((0, grow), (0, 0)))
            self.r = np.pad(self.r, ((0, grow), (0, grow)))
            self.r_inv = np.pad(self.r_inv, ((0, grow), (0, grow)))
            self.projected = np.pad(self.projected, ((0, grow), (0, 0)))
        # An overflow breaks the factor down, is reported by the eta check, or leaves the step to _factored, not
        # as a warning.
        with np.errstate(over="ignore", invalid="ignore"):
            for term, column in zip(new, builder.matrix(new).T):
                k = len(self.position)
                qt = self.qt[:k]
                h = qt @ column
                v = column - h @ qt
                again = qt @ v
                v -= again @ qt
                rho = float(np.linalg.norm(v))
                # The condition number is at least ||column|| / rho; also false for a norm that overflows.
                if not rho * _FACTOR_COND_LIMIT > np.linalg.norm(column):
                    return False
                self.qt[k] = v / rho
                self.r[:k, k] = h + again
                self.r[k, k] = rho
                # The bordered inverse: [[R, h], [0, rho]]^-1 = [[R^-1, -R^-1 h / rho], [0, 1 / rho]].
                self.r_inv[:k, k] = self.r_inv[:k, :k] @ self.r[:k, k] / -rho
                self.r_inv[k, k] = 1 / rho
                bordered, inverse = self.r[:k + 1, k], self.r_inv[:k + 1, k]
                self.squares += (bordered @ bordered, inverse @ inverse) * 2
                self.projected[k] = self.qt[k] @ self.responses
                self.unexplained -= float(self.projected[k] @ self.projected[k])
                self.position[term] = k
        return True

    def _running(self, r_inv: np.ndarray, projected: np.ndarray, residual: float, kappa: float):
        """(ab, eta, err, (ab, b)) of C = R^-1 Q^T Y on ``squares``' a and b, or None unless ab <= kappa (1 -
        _CLOSE) and ab <= _FACTOR_COND_LIMIT.  err is ``_rounding``'s with ab and b, plus gamma_K ||R^-1||_F
        (||R||_F ||C||_F + ||Q^T Y||_F), which bounds ``_bounded``'s gamma_K term with no K x K product."""
        with np.errstate(over="ignore", invalid="ignore"):
            upper, inverse, norm, inverse_norm = map(float, np.sqrt(self.squares))
            if not upper * inverse <= min(kappa * (1 - _CLOSE), _FACTOR_COND_LIMIT):
                return None
            eta, gamma = sensitivity_indicators(r_inv @ projected), len(r_inv) * np.finfo(float).eps
            scale = norm * math.sqrt(float(eta.sum())) + float(np.linalg.norm(projected))
            err = _rounding(eta, residual, upper * inverse, inverse) + gamma / (1 - gamma) * inverse_norm * scale
        return upper * inverse, eta, err, (upper * inverse, inverse)

    def _decided(self, step, extended: list, offset: int, kappa: float):
        """(eta of ``extended``, cond) of ``step`` when it decides clearly, eta None past ``kappa``; else None."""
        cond, eta, err, _ = step
        if abs(cond - kappa) > _CLOSE * kappa:
            if cond > kappa:
                return None, cond
            eta = eta[[self.position[term] for term in extended]]
            frontier = eta[offset:]
            if np.isfinite(eta).all() and (len(frontier) < 2 or _clear(*np.partition(frontier, -2)[-2:], err)):
                return eta, cond
        return None

    def solve(self, builder: DesignBuilder, extended: list, offset: int, kappa: float):
        """(eta of ``extended``, cond) of one step, eta None when the design is conditioned worse than ``kappa``.

        ``extended`` is the step's basis followed by its frontier from
        ``offset`` on.  The step is decided on the factor when its decisions
        are clear, else on ``solve_with_condition``, which also names a term
        whose eta is not finite; a factor that broke down or passed
        _FACTOR_COND_LIMIT is dropped, since appending never lowers the
        condition number, and every later step runs on lstsq.  Each tier
        below is tried only when the one before leaves the step open: the
        running bound ab below kappa (``_running``); ``_bounded``, from R and
        R^-1 without an SVD, below kappa by the bound u and past it, ending
        the expansion, by ``_certified``'s L; R's singular values
        (``_factored``), whose step, like ``_bounded``'s, resets a and b.
        The winner is decided on the factor only when ``_clear`` tells the
        two largest frontier etas apart under the step's rounding bound.
        The cond returned is ab, u, L or the condition number itself.
        """
        step = decision = None
        if self.position is not None and self._append(builder, extended):
            k = len(self.position)
            r, r_inv, projected = self.r[:k, :k], self.r_inv[:k, :k], self.projected[:k]
            residual = math.sqrt(max(self.unexplained, 0.0))
            step = self._running(r_inv, projected, residual, kappa)
            decision = step and self._decided(step, extended, offset, kappa)
            if decision is None:
                step = _bounded(r, r_inv, projected, residual, kappa) or _factored(r, projected, residual)
                if step is not None:
                    with np.errstate(over="ignore"):
                        self.squares[:2] = np.square([step[3][0] / step[3][1], step[3][1]])
                    decision = self._decided(step, extended, offset, kappa)
        self.step = step
        if step is None:
            self.position = self.qt = self.r = self.r_inv = self.projected = None
        if decision is not None:
            return decision
        coeffs, cond = solve_with_condition(builder.matrix(extended), self.responses)
        if cond > kappa:
            return None, cond
        return _finite_indicators(coeffs, extended), cond


def expand_basis(
    builder: DesignBuilder,
    responses: np.ndarray,
    config: MvsaConfig,
) -> tuple[MultiIndexSet, ExpansionTrace]:
    """Adaptive basis expansion; returns the final extended set and a trace.

    Each pass forms the extended set (current basis plus all admissible
    forward neighbors of degree at most ``DEGREE_CAP`` in each input), stops
    before solving if that set outgrows the sample count ``len(responses)``
    ("underdetermined") or if no neighbor is left ("degree_cap": every
    forward neighbor passes the cap), solves the least-squares problem
    otherwise, stops if the design is conditioned worse than kappa
    ("ill_conditioned"), and else accepts the single admissible index with
    the largest sensitivity indicator (ties broken toward the
    lexicographically smallest index).

    Each pass makes one ``_StepSolver.solve`` call.  It solves on one thin
    QR factor of the extended set's columns, which takes only the columns
    each step appends; its eta equals lstsq's within rounding, and its
    condition check reads bounds from R and R^-1, from above and below,
    with R's singular values only near kappa (see ``_StepSolver.solve``).  A step whose
    decision is close (see ``_CLOSE``), and every step after the factor
    breaks down, reruns
    ``solve_with_condition`` on the whole extended design, so every decision
    is lstsq's and the models, predictions and reports built from the
    result are byte-identical to an lstsq-only expansion at a fixed numeric
    environment.
    """
    return _expand(builder, responses, config)[:2]


def _expand(builder: DesignBuilder, responses, config: MvsaConfig):
    """``expand_basis``'s extended set and trace, and its step solver when the expansion ended ill-conditioned
    on the solver's intact factor, which then holds exactly the extended set's columns; else None."""
    responses = _right_hand_side(builder, responses)
    dim, n_samples = builder.spec.dim, len(responses)
    # The initial set has C(N + p, p) members; reject an oversized one before
    # enumerating it, which at N = 20 takes seconds from p = 6 on.
    size = math.comb(dim + config.initial_degree, config.initial_degree)
    if size >= n_samples:
        raise ConfigError(f"initial set size {size} must be smaller than the sample count {n_samples}")
    initial = total_degree_set(dim, config.initial_degree)
    basis, missing, frontier = [], {}, [(0,) * dim]
    # In lexicographic order each member follows its backward neighbors, so
    # it is on the frontier when its turn comes.
    for index in initial.indices:
        _accept(index, basis, missing, frontier)
    steps: list[ExpansionStep] = []
    solver = _StepSolver(responses)
    while True:
        extended = basis + frontier
        if len(extended) > n_samples:
            termination = "underdetermined"
            break
        if not frontier:
            termination = "degree_cap"
            break
        offset = len(basis)
        eta, cond = solver.solve(builder, extended, offset, config.kappa)
        if eta is None:
            termination = "ill_conditioned"
            break
        # The frontier sits after the current basis, in sorted order, so the
        # first maximum is the lexicographic winner.
        best = int(np.argmax(eta[offset:]))
        chosen = frontier[best]
        steps.append(
            ExpansionStep(
                added=chosen,
                eta=float(eta[offset + best]),
                condition_bound=cond,
                extended_size=len(extended),
            )
        )
        _accept(chosen, basis, missing, frontier)
    trace = ExpansionTrace(initial=initial, steps=tuple(steps), termination=termination)
    intact = termination == "ill_conditioned" and solver.position is not None
    return MultiIndexSet(extended, dim=dim), trace, solver if intact else None


def prune_basis(
    builder: DesignBuilder,
    responses: np.ndarray,
    basis: MultiIndexSet,
    config: MvsaConfig,
) -> tuple[MultiIndexSet, tuple[MultiIndex, ...]]:
    """Remove minimum-sensitivity terms until size and conditioning hold; returns the kept basis, in
    ``basis`` order, and the removed terms in removal order.

    While the design is conditioned worse than kappa or the basis outsizes
    the sample count ``len(responses)``, drops the index with the smallest
    sensitivity indicator (lexicographic tie-break; the zero index is
    exempt).  The prune only decides: ``fit_mvsa`` makes the solve a model
    keeps.

    While the basis outsizes the sample count, each step solves on
    ``solve_with_condition``.  From there on a triangle [R | Q^T Y] decides,
    that of one QR of [A | Y] or, in a fit whose expansion ended
    ill-conditioned on its intact factor, that factor's, whose first step
    is the expansion's last; each removal deletes its column from it (Golub
    & Van Loan, Sec. 6.5).  A step whose condition number on R is more than
    _CLOSE kappa away from kappa and at most _FACTOR_COND_LIMIT is decided
    there: below kappa the prune stops, and above it the weakest term goes
    when ``_clear`` tells the two weakest apart.  Once a step has bounded
    cond(R) and 1 / sigma_K from above, ``_certified`` proves each later
    removal past kappa with no SVD, on those bounds.  Every other step
    solves on lstsq, on the kept terms in ``basis`` order, so the decisions
    are lstsq's.
    """
    return _prune(builder, responses, basis, config, None)


def _prune(builder: DesignBuilder, responses, basis: MultiIndexSet, config: MvsaConfig, solver):
    """``prune_basis``, starting from ``solver``'s factor and last step when ``_expand`` handed one over."""
    responses = _right_hand_side(builder, responses)
    zero = (0,) * basis.dim
    if zero not in basis:
        raise ConfigError("prune_basis expects the zero multi-index in the basis")
    kept = list(basis.indices)
    removed: list[MultiIndex] = []
    # ||Y - A C||_F^2 is unexplained plus the squared trailing block of the triangle, whose columns are
    # ``columns``; a prune handed a factor gathers its design only for a step on lstsq.
    design, triangle, step = None if solver else builder.matrix(kept), None, None
    # ``bounds`` (cond(R), 1 / sigma_K) of the last step past kappa hold on, since no deletion raises either
    # (Golub & Van Loan, Sec. 8.6).  w ~ R^-1 R^-T, from the handed-over R^-1 or formed once bounds hold, follows
    # each deletion as its Schur complement and, with v and x, steers ``_certified``.
    bounds = w = v = x = None
    if solver is not None:
        k, columns, step = len(solver.position), list(solver.position), solver.step
        triangle = np.hstack([solver.r[:k, :k], solver.projected[:k]])
        w = solver.r_inv[:k, :k] @ solver.r_inv[:k, :k].T
    unexplained = max(solver.unexplained, 0.0) if solver else 0.0
    while True:
        k, victim = len(kept), None
        if k <= len(responses):
            if triangle is None:
                triangle, columns = np.linalg.qr(np.hstack([design, responses]), mode="r"), list(kept)
            r, projected = triangle[:k, :k], triangle[:k, k:]
            with np.errstate(over="ignore", invalid="ignore"):
                residual = math.sqrt(unexplained + float(np.vdot(triangle[k:, k:], triangle[k:, k:])))
            if step is None and bounds is not None:
                if w is None:
                    inverse = np.linalg.inv(r)
                    w = inverse @ inverse.T
                lower, v, x = _certified(r, w, v, x)
                if lower > config.kappa * (1 + _CLOSE):
                    with np.errstate(over="ignore", invalid="ignore"):
                        eta = sensitivity_indicators(np.linalg.solve(r, projected))
                        victim = _weakest(eta, _rounding(eta, residual, *bounds), columns, zero)
            if victim is None:
                step = step or _factored(r, projected, residual)
                if step is not None and abs(step[0] - config.kappa) > _CLOSE * config.kappa:
                    cond, eta, err, bounds = step
                    if cond < config.kappa:
                        break
                    victim = _weakest(eta, err, columns, zero)
            step = None
        if victim is None:
            design = builder.matrix(kept) if design is None else design
            coeffs, cond = solve_with_condition(design, responses)
            if cond <= config.kappa and k <= len(responses):
                break
            eta = _finite_indicators(coeffs, kept)
            # A lone all-ones column has condition number 1 and size 1 <= Q, so
            # the loop stops before the zero index is the only one left.
            victim = min((eta[i], index) for i, index in enumerate(kept) if index != zero)[1]
        removed.append(victim)
        if design is not None:
            design = np.delete(design, kept.index(victim), axis=1)
        kept.remove(victim)
        if triangle is not None:
            position = columns.index(victim)
            del columns[position]
            triangle = np.delete(triangle, position, axis=1)
            tail = np.linalg.qr(triangle[position:, position:], mode="r")
            triangle = triangle[:position + len(tail)]
            triangle[position:, position:] = tail
            if w is not None:
                column, pivot = np.delete(w[position], position), w[position, position]
                with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                    w = np.delete(np.delete(w, position, 0), position, 1) - np.outer(column, column / pivot)
                if v is not None:
                    v, x = np.delete(v, position), np.delete(x, position)
    return MultiIndexSet(kept, dim=basis.dim), tuple(removed)


def fit_mvsa(
    data: TrainingData,
    spec: DistributionSpec,
    config: MvsaConfig | None = None,
) -> PceModel:
    """Full adaptive fit: expansion, pruning, and the one final solve.

    The one design builder and the responses, compressed once when M > Q,
    are shared by both phases, which only choose terms; the kept basis is
    then solved against all outputs here, on every path.
    """
    config = config or MvsaConfig()
    builder = DesignBuilder(spec, data.inputs)
    factor = _response_factor(data.responses)
    extended, trace, solver = _expand(builder, factor, config)
    basis, removed = _prune(builder, factor, extended, config, solver)
    coefficients, cond = solve_with_condition(builder.matrix(basis), data.responses)
    diagnostics = FitDiagnostics.of(basis, cond, len(trace.steps), len(removed), trace.termination)
    return PceModel(spec=spec, basis=basis, coefficients=coefficients, diagnostics=diagnostics, trace=trace)


def fit_fixed(data: TrainingData, spec: DistributionSpec, basis: MultiIndexSet) -> PceModel:
    """Single least-squares solve on a fixed basis, min-norm if needed.

    No adaptivity and no condition-number enforcement; the diagnostics
    record the condition number as observed.
    """
    if len(basis) == 0:
        raise ConfigError("fixed-basis fit requires a non-empty basis")
    builder = DesignBuilder(spec, data.inputs)
    coeffs, cond = solve_with_condition(builder.matrix(basis), data.responses)
    diagnostics = FitDiagnostics.of(basis, cond, 0, 0, "fixed")
    return PceModel(spec=spec, basis=basis, coefficients=coeffs, diagnostics=diagnostics)


def predict(model: PceModel, inputs) -> np.ndarray:
    """Evaluate the expansion at new inputs; returns a Q' x M matrix.

    DataError naming the first input row (from 1) whose prediction is not
    finite, which a finite design can still produce when its product with
    the coefficients overflows.
    """
    design = DesignBuilder(model.spec, inputs).matrix(model.basis)
    # An overflow is reported by the finite check below, not as a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        outputs = design @ model.coefficients
    require(np.isfinite(outputs), lambda q, _: DataError(f"prediction is not finite at input row {q + 1}"))
    return outputs


# -- persistence ----------------------------------------------------------------


def model_to_json(model: PceModel) -> dict:
    return {
        "format_version": MODEL_FORMAT_VERSION,
        "spec": model.spec.to_json(),
        "basis": model.basis.to_json(),
        "coefficients": model.coefficients.tolist(),
        "diagnostics": asdict(model.diagnostics),
    }


def _holds_boolean(value) -> bool:
    """True if a decoded JSON value is true or false, or holds one in its arrays and objects."""
    if isinstance(value, dict):
        value = list(value.values())
    if not isinstance(value, list):
        return isinstance(value, bool)
    types = set(map(type, value))
    return bool in types or ((list in types or dict in types) and any(map(_holds_boolean, value)))


def model_from_json(payload: dict) -> PceModel:
    """Rebuild a model from its JSON payload; any malformed field, JSON true or false included, is a DataError."""
    if not isinstance(payload, dict):
        raise DataError(f"model JSON must be an object, got {type(payload).__name__}")
    try:
        for name in ("format_version", "spec", "basis", "coefficients", "diagnostics"):
            if _holds_boolean(payload.get(name)):
                raise DataError(f"model field {name!r} holds a boolean, not a number")
        version = payload["format_version"]
        if version != MODEL_FORMAT_VERSION:
            raise DataError(f"unsupported model format_version {version}")
        spec = DistributionSpec.from_json(payload["spec"])
        basis = MultiIndexSet(payload["basis"], dim=spec.dim)
        coefficients = payload["coefficients"]
        stored = payload["diagnostics"]
        # Rebuilt from the four observed fields, so the comparison below also
        # checks every type and the fields that follow from the basis.
        diagnostics = FitDiagnostics.of(
            basis, float(stored["condition_number"]), int(stored["iterations"]),
            int(stored["pruned_count"]), str(stored["termination"]),
        )
    except KeyError as exc:
        raise DataError(f"model JSON is missing field {exc}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"malformed model JSON: {exc}") from None
    if asdict(diagnostics) != stored:
        raise DataError(f"model diagnostics {stored} differ from {asdict(diagnostics)}, rebuilt from the basis")
    if diagnostics.max_univariate_degree > DEGREE_CAP:
        raise DataError(f"model basis has degree {diagnostics.max_univariate_degree} above the cap {DEGREE_CAP}")
    # PceModel converts the coefficients and checks their shape and finiteness.
    return PceModel(spec=spec, basis=basis, coefficients=coefficients, diagnostics=diagnostics)


def save_model(model: PceModel, path) -> None:
    write_json_file(path, model_to_json(model))


def load_model(path) -> PceModel:
    return model_from_json(read_json_file(path, "model"))
