"""Design-matrix assembly and multi-right-hand-side least squares.

One orthonormal-basis design matrix serves all response components at once:
``DesignBuilder(spec, x).matrix(basis)`` builds it, and a single SVD
factorization in ``solve_with_condition`` resolves every column of the
right-hand side, falling back to the minimum-2-norm solution when the
system is rank-deficient or underdetermined.
"""

from __future__ import annotations

import csv
import json
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError
from .polynomial_basis import DistributionSpec, univariate_table

#: Relative cutoff under which singular values are treated as zero in the
#: least-squares solve (min-norm behavior below the cutoff).
OLS_RANK_RTOL = 1e-12

#: Relative floor under which the smallest singular value counts as zero
#: when computing condition numbers.
COND_SINGULARITY_RTOL = 1e-15


@dataclass(frozen=True)
class TrainingData:
    """Paired input and response samples, one row per model evaluation."""

    inputs: np.ndarray
    responses: np.ndarray

    def __post_init__(self):
        inputs = np.atleast_2d(np.asarray(self.inputs, dtype=float))
        responses = np.asarray(self.responses, dtype=float)
        if responses.ndim == 1:
            responses = responses[:, None]
        if inputs.shape[0] != responses.shape[0]:
            raise DataError(
                f"inputs have {inputs.shape[0]} rows but responses have {responses.shape[0]}"
            )
        if inputs.shape[0] < 1:
            raise DataError("training data must contain at least one row")
        if responses.shape[1] < 1:
            raise DataError("training data must contain at least one response column")
        if not np.all(np.isfinite(inputs)):
            raise DataError("non-finite entries in inputs")
        if not np.all(np.isfinite(responses)):
            raise DataError("non-finite entries in responses")
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "responses", responses)

    @property
    def n_samples(self) -> int:
        return self.inputs.shape[0]

    @property
    def n_inputs(self) -> int:
        return self.inputs.shape[1]

    @property
    def n_outputs(self) -> int:
        return self.responses.shape[1]


class DesignBuilder:
    """Reusable design-matrix assembler for one fixed input sample.

    Standardizes the inputs once and caches per-dimension univariate
    tables and per-multi-index columns, so that repeated assemblies over
    growing or shrinking bases (as in adaptive fitting) cost only the new
    columns.
    """

    def __init__(self, spec: DistributionSpec, inputs):
        self.spec = spec
        self.z = spec.standardize_rows(np.atleast_2d(np.asarray(inputs, dtype=float)))
        self._tables: list[np.ndarray | None] = [None] * spec.dim
        self._columns: dict[tuple[int, ...], np.ndarray] = {}

    @property
    def n_rows(self) -> int:
        return self.z.shape[0]

    def _table(self, n: int, degree: int) -> np.ndarray:
        table = self._tables[n]
        if table is None or table.shape[1] <= degree:
            table = univariate_table(self.spec.families[n], degree, self.z[:, n])
            self._tables[n] = table
        return table

    def column(self, index: tuple[int, ...]) -> np.ndarray:
        """Values of the term ``index`` at every input row; DataError if the
        index length is not the input width or a value is not finite."""
        cached = self._columns.get(index)
        if cached is not None:
            return cached
        if len(index) != self.spec.dim:
            raise DataError(f"term {index} has {len(index)} entries, the inputs have {self.spec.dim}")
        col = np.ones(self.n_rows)
        # An overflow is reported by the finite check below, not as a warning.
        with np.errstate(over="ignore", invalid="ignore"):
            for n, degree in enumerate(index):
                if degree:
                    col = col * self._table(n, degree)[:, degree]
        if not np.isfinite(col).all():
            row = int(np.flatnonzero(~np.isfinite(col))[0])
            raise DataError(f"term {index} is not finite at input row {row}")
        self._columns[index] = col
        return col

    def matrix(self, basis) -> np.ndarray:
        """Columns in ``basis`` order: a MultiIndexSet or a sequence of index tuples."""
        return np.column_stack([self.column(index) for index in basis])


def solve_with_condition(matrix: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, float]:
    """K x M least-squares coefficients for all columns of ``rhs``, and the condition number.

    Min-norm when rank-deficient or underdetermined (singular values below
    ``OLS_RANK_RTOL`` times the largest count as zero); the condition number
    comes from lstsq's own singular values.  Unchecked: DesignBuilder and
    TrainingData reject non-finite entries.
    """
    coeffs, _, _, s = np.linalg.lstsq(matrix, rhs, rcond=OLS_RANK_RTOL)
    return coeffs, condition_from_singular_values(s, matrix.shape[0], matrix.shape[1])


def condition_from_singular_values(s: np.ndarray, n_rows: int, n_cols: int) -> float:
    """sigma_max / sigma_min from precomputed singular values; +inf when the
    matrix is wide or sigma_min <= ``COND_SINGULARITY_RTOL`` * sigma_max."""
    if n_cols > n_rows:
        return float("inf")
    smax = float(s[0]) if len(s) else 0.0
    smin = float(s[-1]) if len(s) else 0.0
    if smin <= smax * COND_SINGULARITY_RTOL:
        return float("inf")
    return smax / smin


def rmse(predicted, actual) -> np.ndarray:
    """Root-mean-square error per response column."""
    pred = np.asarray(predicted, dtype=float)
    act = np.asarray(actual, dtype=float)
    if pred.shape != act.shape:
        raise DataError(f"shape mismatch: predicted {pred.shape} vs actual {act.shape}")
    if pred.ndim == 1:
        pred = pred[:, None]
        act = act[:, None]
    return np.sqrt(np.mean((pred - act) ** 2, axis=0))


@contextmanager
def _output_errors(path):
    """An output file or directory that cannot be created is a ConfigError."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from None


def make_output_dir(path) -> None:
    """Create an output directory and its parents unless it exists."""
    with _output_errors(path):
        Path(path).mkdir(parents=True, exist_ok=True)


def write_json_file(path, payload) -> None:
    """Write ``payload`` as one line of JSON followed by a newline."""
    with _output_errors(path), Path(path).open("w", encoding="utf-8") as handle:
        json.dump(payload, handle)
        handle.write("\n")


def read_json_file(path, what: str):
    """Parse a JSON file; a missing, unreadable or invalid file is a DataError."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"{what} file not found: {path}")
    try:
        with path.open(encoding="utf-8") as handle:
            return json.load(handle)
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: invalid JSON ({exc})") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {what} file {path}: {exc}") from None


# -- CSV interface ------------------------------------------------------------
#
# Data files carry a header row x1,...,xN,y1,...,yM; the widths N and M come
# from the caller (CLI flags or experiment config), never from guessing.


def _expected_header(n_inputs: int, n_outputs: int) -> list[str]:
    return [f"x{i + 1}" for i in range(n_inputs)] + [f"y{j + 1}" for j in range(n_outputs)]


def _read_rows(path) -> tuple[list[str], list[list[str]]]:
    path = Path(path)
    if not path.exists():
        raise DataError(f"file not found: {path}")
    try:
        with path.open(newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            rows = [row for row in reader if row]
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    if header is None:
        raise DataError(f"empty CSV file: {path}")
    return [name.strip() for name in header], rows


def _parse_matrix(rows: list[list[str]], width: int, path) -> np.ndarray:
    if not rows:
        return np.empty((0, width))
    out = np.empty((len(rows), width))
    for q, row in enumerate(rows):
        if len(row) != width:
            raise DataError(f"{path}: row {q + 1} has {len(row)} fields, expected {width}")
        try:
            out[q] = [float(v) for v in row]
        except ValueError as exc:
            raise DataError(f"{path}: row {q + 1}: {exc}") from None
    return out


def load_data_csv(path, n_inputs: int, n_outputs: int) -> TrainingData:
    """Load a paired x/y data file with header ``x1..xN,y1..yM``."""
    header, rows = _read_rows(path)
    expected = _expected_header(n_inputs, n_outputs)
    if header != expected:
        raise DataError(
            f"{path}: expected header {','.join(expected)} "
            f"({n_inputs} inputs, {n_outputs} outputs), got {','.join(header)}"
        )
    data = _parse_matrix(rows, n_inputs + n_outputs, path)
    if data.shape[0] == 0:
        raise DataError(f"{path}: no data rows")
    return TrainingData(inputs=data[:, :n_inputs], responses=data[:, n_inputs:])


def load_inputs_csv(path, n_inputs: int) -> np.ndarray:
    """Load input columns ``x1..xN`` from a data file, ignoring y columns."""
    header, rows = _read_rows(path)
    expected_x = _expected_header(n_inputs, 0)
    if header[:n_inputs] != expected_x:
        raise DataError(
            f"{path}: expected leading columns {','.join(expected_x)} "
            f"({n_inputs} inputs), got {','.join(header[:n_inputs])}"
        )
    extra = len(header) - n_inputs
    if extra and header[n_inputs:] != _expected_header(0, extra):
        raise DataError(f"{path}: trailing columns must be y1..yM, got {','.join(header[n_inputs:])}")
    data = _parse_matrix(rows, len(header), path)
    return data[:, :n_inputs]


def write_csv_table(path, header, rows) -> None:
    """Write a header row, then stream ``rows`` (excel dialect: CRLF, minimal quoting)."""
    with _output_errors(path), Path(path).open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def write_data_csv(path, inputs: np.ndarray, responses: np.ndarray) -> None:
    """Write a paired x/y data file with header ``x1..xN,y1..yM``."""
    inputs = np.atleast_2d(inputs)
    responses = np.atleast_2d(responses)
    header = _expected_header(inputs.shape[1], responses.shape[1])
    rows = ([repr(float(v)) for v in row] for row in np.hstack([inputs, responses]))
    write_csv_table(path, header, rows)


def write_responses_csv(path, responses: np.ndarray) -> None:
    """Write responses only, header ``y1..yM``."""
    responses = np.atleast_2d(responses)
    rows = ([repr(float(v)) for v in row] for row in responses)
    write_csv_table(path, _expected_header(0, responses.shape[1]), rows)
