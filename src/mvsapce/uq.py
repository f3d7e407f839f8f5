"""Moments, Sobol indices, and generalized sensitivity indices of a fit.

All estimates are read directly off the orthonormal-expansion coefficients:
the constant term is the mean, summed squared coefficients are variances,
and partitioning those sums by which dimensions a multi-index activates
yields first-order and total-effect indices.  For vector-valued responses
the same sums aggregated over outputs give the generalized indices (trace
ratios of the covariance decomposition).  A seeded Monte-Carlo estimator
provides reference moments.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from .errors import ConfigError, DataError, require
from .multi_index import as_integer
from .mvsa_engine import PceModel
from .polynomial_basis import DistributionSpec, real_array
from .regression import write_csv_table, write_json_file

#: Generator behind every seeded draw in the toolkit; recorded in reports
#: so published numbers can be regenerated.
RNG_ALGORITHM = "pcg64"

#: Rows per Monte-Carlo batch.  Batches are sampled column by column, so
#: the batch size is part of a reference's reproducibility.
MC_BATCH_SIZE = 4096

#: Elements in one row block of the Monte-Carlo accumulation and of the beam
#: kernel (256 KiB of doubles), so that a block's temporaries stay in cache.
_BLOCK_ELEMENTS = 32768


def _block_rows(n_rows: int, width: int) -> int:
    """Rows per block of ``n_rows`` rows ``width`` elements wide: at least one."""
    return max(1, min(n_rows, _BLOCK_ELEMENTS // max(width, 1)))


@dataclass(frozen=True)
class MomentReport:
    """Per-output mean, variance, and standard deviation."""

    mean: np.ndarray
    variance: np.ndarray
    std: np.ndarray
    constant_term_present: bool = True


@dataclass(frozen=True)
class SensitivityReport:
    """First-order and total-effect indices, per output and aggregated.

    Outputs with zero variance are masked: their per-output columns are
    reported as 0 and flagged in ``zero_variance_outputs``.  When every
    output has zero variance the generalized indices are undefined and
    ``generalized_defined`` is False.
    """

    per_output_first: np.ndarray
    per_output_total: np.ndarray
    generalized_first: np.ndarray
    generalized_total: np.ndarray
    zero_variance_outputs: np.ndarray
    generalized_defined: bool


def _variance(degrees: np.ndarray, coefficients: np.ndarray) -> np.ndarray:
    """Per-output variance: squared coefficients summed over the non-constant rows.

    The rows are squared and summed in blocks of about ``_BLOCK_ELEMENTS``
    values in numpy's row order for ``sum(axis=0)`` (one block when M = 1,
    whose sum is pairwise), so the bits are those of
    ``squared[mask].sum(axis=0)`` and no K x M temporary exists.  A
    DataError names the first output, numbered from 1 as in moments.csv,
    that is not finite.
    """
    rows = np.flatnonzero(degrees.sum(axis=1) > 0)
    width = coefficients.shape[1]
    if len(rows) == 0:
        return np.zeros(width)
    block = len(rows) if width == 1 else _block_rows(len(rows), width)
    buffer = np.empty((block + 1, width))
    variance = None
    # An overflow is reported by the finite check below, not as a warning.
    with np.errstate(over="ignore"):
        for start in range(0, len(rows), block):
            chunk = rows[start:start + block]
            squared = buffer[1:len(chunk) + 1]
            np.take(coefficients, chunk, axis=0, out=squared)
            np.square(squared, out=squared)
            variance = _continue_sum(buffer, len(chunk), variance)
    require(np.isfinite(variance), lambda m: DataError(f"variance of output {m + 1} is not finite"))
    return variance


def moments(model: PceModel) -> MomentReport:
    """Mean and variance estimates read off the expansion coefficients.

    The mean is the coefficient row of the zero multi-index (zeros with a
    flag when the basis lacks it); the variance is the sum of squared
    coefficients over all other rows.
    """
    degrees = np.asarray(model.basis.indices, dtype=int)
    variance = _variance(degrees, model.coefficients)
    zero = (0,) * model.basis.dim
    if zero in model.basis:
        row = model.basis.indices.index(zero)
        mean = model.coefficients[row].copy()
        present = True
    else:
        mean = np.zeros(model.n_outputs)
        present = False
    return MomentReport(
        mean=mean,
        variance=variance,
        std=np.sqrt(variance),
        constant_term_present=present,
    )


def sobol_indices(model: PceModel) -> tuple[np.ndarray, np.ndarray]:
    """First-order and total-effect indices per (input, output).

    Returns two N x M matrices; columns of zero-variance outputs are zero
    (see sensitivity_report for the explicit mask).
    """
    report = sensitivity_report(model)
    return report.per_output_first, report.per_output_total


def generalized_sobol(model: PceModel) -> tuple[np.ndarray, np.ndarray]:
    """Aggregated-variance sensitivity indices over all outputs.

    The numerators and the total variance are summed over outputs before
    taking the ratio; for a single output this reduces exactly to the
    per-output indices.  Returns zero vectors when the aggregated variance
    vanishes (see sensitivity_report for the defined flag).
    """
    report = sensitivity_report(model)
    return report.generalized_first, report.generalized_total


def sensitivity_report(model: PceModel) -> SensitivityReport:
    """Full sensitivity post-processing with zero-variance masking.

    Row n of the total selector marks the indices active in dimension n;
    row n of the first-order selector those active in dimension n only.
    """
    degrees = np.asarray(model.basis.indices, dtype=int)
    variance = _variance(degrees, model.coefficients)
    with np.errstate(over="ignore"):
        squared = model.coefficients * model.coefficients
        aggregated = float(variance.sum())
    require(np.isfinite(aggregated), lambda: DataError("variance summed over all outputs is not finite"))
    # The constant row holds no variance; zeroed, a mean whose square
    # overflows cannot turn the indices into nan.
    squared[degrees.sum(axis=1) == 0] = 0.0
    total_sel = degrees.T > 0
    first_sel = total_sel & (degrees.T == degrees.sum(axis=1))
    first_num = first_sel.astype(float) @ squared
    total_num = total_sel.astype(float) @ squared
    # Per output: columns of zero-variance outputs stay 0 and are flagged.
    defined = variance > 0.0
    first = np.divide(first_num, variance, out=np.zeros_like(first_num), where=defined)
    total = np.divide(total_num, variance, out=np.zeros_like(total_num), where=defined)
    # Generalized: numerators and variance summed over outputs before the ratio.
    gen_first = np.divide(
        first_num.sum(axis=1), aggregated, out=np.zeros(len(first_num)), where=aggregated > 0.0
    )
    gen_total = np.divide(
        total_num.sum(axis=1), aggregated, out=np.zeros(len(total_num)), where=aggregated > 0.0
    )
    return SensitivityReport(
        per_output_first=first,
        per_output_total=total,
        generalized_first=gen_first,
        generalized_total=gen_total,
        zero_variance_outputs=variance == 0.0,
        generalized_defined=aggregated > 0.0,
    )


def monte_carlo_reference(
    f: Callable,
    spec: DistributionSpec,
    samples: int,
    seed,
    *,
    vectorized: bool = True,
) -> MomentReport:
    """Seeded Monte-Carlo moments of ``f`` under the input distribution.

    ``f`` maps a Q x N batch of inputs to Q x M outputs, a Q-vector counting
    as one output; every sample must give the same M >= 1 finite values, or
    a ``DataError`` names the samples.  ``vectorized`` is accepted only as
    True, the one form of ``f``; any other value is a ``ConfigError``.
    Draws are consumed in batches of ``MC_BATCH_SIZE`` from a single pcg64
    stream, so results are deterministic per seed.  One pass over the
    samples sums the values shifted by the first sample's outputs and their
    squares (the shifted-data algorithm), and the variance is the unbiased
    estimator.

    ``f`` is called once per batch and its output is read, never written.
    Each batch's sums are taken over row blocks of about ``_BLOCK_ELEMENTS``
    values in numpy's row order for ``sum(axis=0)`` over the whole batch, so
    the bits are those of the one-pass sums while the working set beyond
    ``f``'s output is one block: the reference holds one batch of outputs
    (``MC_BATCH_SIZE`` x M doubles) whatever ``samples`` is.
    """
    if vectorized is not True:
        raise ConfigError(f"vectorized must be True, got {vectorized!r}")
    samples = as_integer("Monte-Carlo sample count", samples)
    if samples < 2:
        raise ConfigError(f"Monte-Carlo reference needs at least 2 samples, got {samples}")
    rng = np.random.default_rng(seed)
    count = 0
    offset = None
    while count < samples:
        n = min(MC_BATCH_SIZE, samples - count)
        y = _batch_outputs(f, spec.sample(n, rng), count)
        if offset is None:
            offset = y[0].copy()
            sum_d = np.zeros_like(offset)
            sum_d2 = np.zeros_like(offset)
            block = _block_rows(MC_BATCH_SIZE, offset.size)
            buffer = np.empty((block + 1, offset.size))
        elif y.shape[1] != offset.size:
            raise DataError(
                f"model returned {y.shape[1]} outputs per sample on samples "
                f"{count}..{count + n - 1}, {offset.size} on the first batch"
            )
        batch_d = batch_d2 = None
        for start in range(0, n, block):
            rows = y[start:start + block]
            where = f"samples {count + start}..{count + start + len(rows) - 1}"
            require(np.isfinite(rows), lambda *_: DataError(f"non-finite model output within {where}"))
            d = buffer[1:len(rows) + 1]
            np.subtract(rows, offset, out=d)
            batch_d = _continue_sum(buffer, len(rows), batch_d)
            np.square(d, out=d)
            batch_d2 = _continue_sum(buffer, len(rows), batch_d2)
        # Drop this batch before f builds the next one.
        del y, rows
        sum_d += batch_d
        sum_d2 += batch_d2
        count += n
    mean_d = sum_d / samples
    mean = offset + mean_d
    variance = np.maximum(sum_d2 - samples * mean_d * mean_d, 0.0) / (samples - 1)
    return MomentReport(mean=mean, variance=variance, std=np.sqrt(variance))


def _batch_outputs(f: Callable, x: np.ndarray, first: int) -> np.ndarray:
    """``f`` on one batch of input rows as an n x M float array, M >= 1."""
    n = len(x)
    where = f"samples {first}..{first + n - 1}"
    try:
        y = f(x)
    except Exception as exc:
        raise DataError(f"model evaluation failed on {where}: {exc}") from exc
    y = real_array(y, "outputs", f"model outputs on {where} are not a numeric array")
    if y.shape[:1] != (n,):
        raise DataError(f"model returned shape {y.shape} for {n} inputs on {where}")
    if y.ndim == 1:
        y = y[:, None]
    if y.ndim != 2 or y.shape[1] == 0:
        raise DataError(
            f"model returned outputs of shape {y.shape[1:]} per sample on {where}, "
            "expected M >= 1 values"
        )
    return y


def _continue_sum(buffer: np.ndarray, count: int, running):
    """``sum(axis=0)`` of buffer rows 1..count, continuing ``running``.

    From the second block of a batch on, the running sum goes in row 0 and
    is reduced with the block, so the additions happen in the order of one
    ``sum(axis=0)`` over the whole batch.
    """
    if running is None:
        return buffer[1:count + 1].sum(axis=0)
    buffer[0] = running
    return buffer[:count + 1].sum(axis=0)


# -- report serialization -------------------------------------------------------


def write_moments_csv(report: MomentReport, path) -> None:
    """One row per output: index, mean, variance, std, zero-variance flag."""
    columns = zip(report.mean.tolist(), report.variance.tolist(), report.std.tolist())
    rows = (
        [m, mean, variance, std, int(variance == 0.0)]
        for m, (mean, variance, std) in enumerate(columns, 1)
    )
    write_csv_table(path, ["output", "mean", "variance", "std", "zero_variance"], rows)


def write_sobol_csv(report: SensitivityReport, path) -> None:
    """One row per input: first-order then total-effect values per output."""
    n_outputs = report.per_output_first.shape[1]
    header = (
        ["input"]
        + [f"first_y{m + 1}" for m in range(n_outputs)]
        + [f"total_y{m + 1}" for m in range(n_outputs)]
    )
    rows = (
        [n + 1] + first.tolist() + total.tolist()
        for n, (first, total) in enumerate(zip(report.per_output_first, report.per_output_total))
    )
    write_csv_table(path, header, rows)


def write_generalized_csv(report: SensitivityReport, path) -> None:
    """One row per input: generalized first-order and total-effect indices."""
    columns = zip(report.generalized_first.tolist(), report.generalized_total.tolist())
    rows = ([n, first, total] for n, (first, total) in enumerate(columns, 1))
    write_csv_table(path, ["input", "generalized_first", "generalized_total"], rows)


def _report_json(report) -> dict:
    """A report's fields in declaration order, arrays as nested lists."""
    return {f.name: np.asarray(getattr(report, f.name)).tolist() for f in fields(report)}


def write_uq_report_json(model: PceModel, path) -> None:
    """Combined moments and sensitivity report as one JSON file."""
    payload = {
        "moments": _report_json(moments(model)),
        "sensitivity": _report_json(sensitivity_report(model)),
        "rng_algorithm": RNG_ALGORITHM,
    }
    write_json_file(path, payload)
