"""Design-matrix assembly and multi-right-hand-side least squares.

One orthonormal-basis design matrix serves all response components at once:
``DesignBuilder(spec, x).matrix(basis)`` builds it afresh from cached
univariate tables, and ``solve_with_condition`` resolves every column of the
right-hand side with a single SVD factorization, falling back to the
minimum-2-norm solution when the system is rank-deficient or underdetermined.
That is the solve of every fixed-basis fit and of every adaptive fit's one
final solve, whose coefficients and condition number a model keeps, of
every prune step while the basis outsizes the sample count, and of the
expansion and prune steps whose decision is close; the other steps are
decided on QR factors in ``mvsa_engine``.
"""

from __future__ import annotations

import json
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, require
from .polynomial_basis import DistributionSpec, real_array, univariate_table

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
        context = "training data are not numeric arrays"
        inputs = np.atleast_2d(real_array(self.inputs, "inputs", context))
        responses = real_array(self.responses, "responses", context)
        if responses.ndim == 1:
            responses = responses[:, None]
        if inputs.ndim != 2 or responses.ndim != 2:
            raise DataError(f"training data must be 2-D, got inputs {inputs.shape} and responses {responses.shape}")
        if inputs.shape[0] != responses.shape[0]:
            raise DataError(
                f"inputs have {inputs.shape[0]} rows but responses have {responses.shape[0]}"
            )
        if inputs.shape[0] < 1:
            raise DataError("training data must contain at least one row")
        if responses.shape[1] < 1:
            raise DataError("training data must contain at least one response column")
        for name, values in (("x", inputs), ("y", responses)):
            require(np.isfinite(values), lambda q, n: DataError(f"row {q + 1}, {name}{n + 1}: non-finite value"))
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "responses", responses)

    @property
    def n_samples(self) -> int:
        return self.inputs.shape[0]

    @property
    def n_outputs(self) -> int:
        return self.responses.shape[1]


class DesignBuilder:
    """Reusable design-matrix assembler for one fixed input sample.

    Standardizes the inputs once and caches each input's univariate table,
    extended when a higher degree is asked for; it caches no columns.  Each
    column is the product of its nonzero univariate factors taken in
    increasing input order, so it has the same bits whichever call built
    it, and every design ``matrix`` returns is a fresh, writable array.
    """

    def __init__(self, spec: DistributionSpec, inputs):
        self.spec = spec
        self.z = spec.standardize_rows(inputs)
        self._tables: list[np.ndarray | None] = [None] * spec.dim

    def _table(self, n: int, degree: int) -> np.ndarray:
        """psi_0..psi_degree of input n, one row per degree."""
        table = self._tables[n]
        if table is None or table.shape[0] <= degree:
            table = np.ascontiguousarray(univariate_table(self.spec.marginals[n].family, degree, self.z[:, n]).T)
            self._tables[n] = table
        return table

    def column(self, index: tuple[int, ...]) -> np.ndarray:
        """Values of the term ``index`` at every input row: the one-term case of ``matrix``."""
        return self.matrix([index])[:, 0]

    def matrix(self, basis) -> np.ndarray:
        """Q x K design with columns in ``basis`` order: a MultiIndexSet or a sequence of index tuples.

        Built term by term as the transpose of a K x Q block; DataError naming
        the first bad term if its length is not the input width or a value
        (input row from 1) is not finite.
        """
        terms, dim = list(map(tuple, basis)), self.spec.dim
        for index in terms:
            if len(index) != dim:
                raise DataError(f"term {index} has {len(index)} entries, the inputs have {dim}")
        block = np.empty((len(terms), len(self.z)))
        rows, zeros = {}, (0,) * dim
        # An overflow is reported by the finite check below, not as a warning.
        with np.errstate(over="ignore", invalid="ignore"):
            for n, top in enumerate(map(max, zip(*terms))):
                if top:
                    self._table(n, top)
            for index, row in zip(terms, block):
                last = dim - 1
                while last >= 0 and not index[last]:
                    last -= 1
                # The row of its prefix, the term without its last factor, when that is a term before it.
                prefix = rows.get(index[:last] + zeros[last:]) if last >= 0 else None
                if prefix is not None:
                    np.multiply(prefix, self._tables[last][index[last]], out=row)
                else:
                    row[:] = 1.0
                    for n in range(last + 1):
                        if index[n]:
                            row *= self._tables[n][index[n]]
                rows[index] = row
        require(np.isfinite(block), lambda k, q: DataError(f"term {terms[k]} is not finite at input row {q + 1}"))
        return block.T


def solve_with_condition(matrix: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, float]:
    """K x M least-squares coefficients for all columns of ``rhs``, and the condition number.

    Min-norm when rank-deficient or underdetermined (singular values below
    ``OLS_RANK_RTOL`` times the largest count as zero).  The condition number
    comes from lstsq's own singular values; it is +inf for a wide or empty
    design or when sigma_min <= ``COND_SINGULARITY_RTOL`` * sigma_max.
    Unchecked: DesignBuilder and TrainingData reject non-finite entries.
    """
    coeffs, _, _, s = np.linalg.lstsq(matrix, rhs, rcond=OLS_RANK_RTOL)
    if matrix.shape[1] > matrix.shape[0] or len(s) == 0 or s[-1] <= s[0] * COND_SINGULARITY_RTOL:
        return coeffs, float("inf")
    return coeffs, float(s[0]) / float(s[-1])


def rmse(predicted, actual) -> np.ndarray:
    """Root-mean-square error per column of 1-D or 2-D arrays with rows; DataError otherwise, for values that
    are complex or not numbers, or at a non-finite RMSE."""
    pred = real_array(predicted, "predicted values", "RMSE needs numeric arrays")
    act = real_array(actual, "actual values", "RMSE needs numeric arrays")
    if pred.shape != act.shape:
        raise DataError(f"shape mismatch: predicted {pred.shape} vs actual {act.shape}")
    if pred.ndim not in (1, 2) or len(pred) == 0:
        raise DataError(f"RMSE needs 1-D or 2-D values with at least one row, got shape {pred.shape}")
    # An overflow is reported by the finite check below, not as a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        errors = (pred - act).reshape(len(pred), -1)
        np.square(errors, out=errors)
        errors = np.sqrt(np.mean(errors, axis=0))
    require(np.isfinite(errors), lambda m: DataError(f"RMSE of output {m + 1} is not finite"))
    return errors


@contextmanager
def _output_errors(path):
    """An output file or directory that cannot be created is a ConfigError."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from None


@contextmanager
def _input_errors(path, what: str):
    """A missing, unreadable or non-UTF-8 input file is a DataError."""
    try:
        yield
    except FileNotFoundError:
        raise DataError(f"{what} file not found: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {what} file {path}: {exc}") from None


def make_output_dir(path) -> None:
    """Create an output directory and its parents unless it exists."""
    with _output_errors(path):
        Path(path).mkdir(parents=True, exist_ok=True)


def write_json_file(path, payload) -> None:
    """Write ``payload`` as one line of JSON followed by a newline."""
    # dumps runs the C encoder, and a payload it cannot encode leaves no file.
    text = json.dumps(payload) + "\n"
    with _output_errors(path), Path(path).open("w", encoding="utf-8") as handle:
        handle.write(text)


def read_json_file(path, what: str):
    """Parse a JSON file; a missing, unreadable or invalid file is a DataError."""
    with _input_errors(path, what), Path(path).open(encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}: invalid JSON ({exc})") from None


# -- CSV interface ------------------------------------------------------------
#
# Data files carry a header row x1,...,xN,y1,...,yM; the widths N and M come
# from the caller (CLI flags or experiment config), never from guessing.


def _expected_header(n_inputs: int, n_outputs: int) -> list[str]:
    return [f"x{i + 1}" for i in range(n_inputs)] + [f"y{j + 1}" for j in range(n_outputs)]


#: The ASCII separators: loadtxt strips them around a number as whitespace, float() rejects them.
_SEPARATORS = "\x1c\x1d\x1e\x1f"


def _loadtxt(lines) -> np.ndarray:
    """The rows of ``lines`` (strings) in one streamed ``np.loadtxt`` call, at least 2-D;
    ValueError at a field that is not a number or a line that holds an ASCII separator."""

    def guarded():
        for line in lines:
            if any(char in line for char in _SEPARATORS):
                raise ValueError("separator character in a data line")
            yield line

    with warnings.catch_warnings():
        # A body without rows warns; its (0, 1) array is read as having no rows.
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        return np.loadtxt(guarded(), delimiter=",", comments=None, ndmin=2)


def parse_number(text: str) -> float:
    """The number in one data field: an ASCII number with optional whitespace, as ``np.loadtxt`` reads it
    (no ``_``, no quotes), holding no ASCII separator; ValueError for any other text."""
    try:
        values = _loadtxt([text])
        if values.shape == (1, 1):
            return float(values[0, 0])
    except ValueError:
        pass
    raise ValueError(f"could not convert string to float: {text!r}")


def _read_table(path, n_inputs: int, n_outputs: int | None) -> np.ndarray:
    """The rows of a data file with header ``x1..xN,y1..yM``; ``n_outputs=None`` takes M from the header.

    Every field is read by ``parse_number``'s grammar, and the body is parsed in one ``np.loadtxt``
    call. Where that call refuses or finds another width, the body is scanned again only to name the
    first bad row (rows numbered from 1 without blank lines) and, in that row, its first bad field.
    """
    with _input_errors(path, "data"), Path(path).open(newline="", encoding="utf-8") as handle:
        # An empty file has an empty header, which no expected header matches.
        header = [name.strip() for name in handle.readline().rstrip("\r\n").split(",")]
        if n_outputs is None:
            n_outputs = max(len(header) - n_inputs, 0)
        expected = _expected_header(n_inputs, n_outputs)
        if header != expected:
            raise DataError(
                f"{path}: expected header {','.join(expected)} "
                f"({n_inputs} inputs, {n_outputs} outputs), got {','.join(header)}"
            )
        width = len(expected)
        try:
            data = _loadtxt(handle)
            if data.shape[1] == width or data.size == 0:
                return data.reshape(len(data), width)
            # Rows of another width: the scan below stops at row 1.
            refusal = f"rows have {data.shape[1]} fields"
        except ValueError as exc:
            refusal = exc
        handle.seek(0)
        handle.readline()
        for q, line in enumerate(filter(None, (line.rstrip("\r\n") for line in handle)), start=1):
            fields = line.split(",")
            if len(fields) != width:
                raise DataError(f"{path}: row {q} has {len(fields)} fields, expected {width}")
            try:
                _loadtxt([line])
            except ValueError:
                for field in fields:
                    try:
                        parse_number(field)
                    except ValueError as exc:
                        raise DataError(f"{path}: row {q}: {exc}") from None
    # Not reached while the scan and np.loadtxt agree; then numpy's refusal is the message.
    raise DataError(f"{path}: {refusal}")


def load_data_csv(path, n_inputs: int, n_outputs: int) -> TrainingData:
    """Load a paired x/y data file with header ``x1..xN,y1..yM``."""
    data = _read_table(path, n_inputs, n_outputs)
    return TrainingData(inputs=data[:, :n_inputs], responses=data[:, n_inputs:])


def load_inputs_csv(path, n_inputs: int) -> np.ndarray:
    """Load input columns ``x1..xN`` from a data file, ignoring y columns."""
    return _read_table(path, n_inputs, None)[:, :n_inputs]


def write_csv_table(path, header, rows) -> None:
    """Write a header row, then stream ``rows``, each as its fields' ``str`` joined by commas, with CRLF.

    ``str`` of a float is its shortest round-trip ``repr``, the one float format of every file the
    toolkit writes. No field may hold ``,``, ``"``, CR or LF and no row may be empty. That holds, as
    fields are numbers, generated names (``x1``, ``first_y3``, ``mean:1``, ``mcs``) and validated method
    tokens (``mvsa``, ``td:`` and ASCII digits), so nothing needs quoting and the bytes are the csv module's.
    """
    with _output_errors(path), Path(path).open("w", newline="", encoding="utf-8") as handle:
        handle.write(",".join(header) + "\r\n")
        handle.writelines(",".join(map(str, row)) + "\r\n" for row in rows)


def write_data_csv(path, inputs: np.ndarray, responses: np.ndarray) -> None:
    """Write a paired x/y data file with header ``x1..xN,y1..yM``."""
    inputs = np.atleast_2d(inputs)
    responses = np.atleast_2d(responses)
    header = _expected_header(inputs.shape[1], responses.shape[1])
    rows = (row.tolist() for row in np.hstack([inputs, responses], dtype=float))
    write_csv_table(path, header, rows)


def write_responses_csv(path, responses: np.ndarray) -> None:
    """Write responses only, header ``y1..yM``."""
    responses = np.atleast_2d(np.asarray(responses, dtype=float))
    write_csv_table(path, _expected_header(0, responses.shape[1]), (row.tolist() for row in responses))
