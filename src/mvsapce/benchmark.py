"""Beam deflection benchmark and the method-comparison experiment harness.

The test problem is a simply supported beam under uniform load whose
deflection is evaluated on a grid of interior points along its length.
Five lognormal physical parameters (width, height, length, Young's
modulus, load) drive the response; a configurable number of lognormal
dummy inputs inflate the input dimension without affecting the output,
which is what makes the case discriminating for adaptive basis selection.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, DomainError, MvsaError, require
from .multi_index import as_integer, parse_total_degree, total_degree_set
from .mvsa_engine import FitDiagnostics, MvsaConfig, fit_fixed, fit_mvsa, predict
from .polynomial_basis import DEGREE_CAP, DistributionSpec, Marginal, real_array
from .regression import TrainingData, make_output_dir, rmse, write_csv_table, write_json_file
from .uq import RNG_ALGORITHM, MomentReport, _block_rows, moments, monte_carlo_reference


@dataclass(frozen=True)
class BeamConfig:
    """Beam benchmark setup: response grid size and parameter table.

    Each physical parameter is lognormal with the given (mean, std) of the
    variable itself; every dummy input is lognormal(10, 1) and ignored by
    the model.
    """

    response_dim: int = 1000
    dummy_count: int = 15
    width: tuple[float, float] = (0.15, 0.0075)
    height: tuple[float, float] = (0.3, 0.015)
    length: tuple[float, float] = (5.0, 0.05)
    youngs_modulus: tuple[float, float] = (3e10, 4.5e9)
    load: tuple[float, float] = (1e4, 2e3)
    dummy: tuple[float, float] = (10.0, 1.0)

    def __post_init__(self):
        for name in ("response_dim", "dummy_count"):
            object.__setattr__(self, name, as_integer(name, getattr(self, name)))
        if self.response_dim < 1:
            raise ConfigError(f"response_dim must be >= 1, got {self.response_dim}")
        if self.dummy_count < 0:
            raise ConfigError(f"dummy_count must be >= 0, got {self.dummy_count}")

    def distribution_spec(self) -> DistributionSpec:
        physical = [self.width, self.height, self.length, self.youngs_modulus, self.load]
        marginals = [Marginal.lognormal(*params) for params in physical]
        try:
            marginals += [Marginal.lognormal(*self.dummy)] * self.dummy_count
        except MemoryError:
            raise ConfigError(f"{self.dummy_count} dummy inputs are too many to hold") from None
        return DistributionSpec(marginals)

    def response(self, inputs: np.ndarray) -> np.ndarray:
        """Vectorized beam response for a Q x N input matrix."""
        return beam_deflection_rows(inputs, self.response_dim)


def beam_deflection_rows(inputs, n_points: int) -> np.ndarray:
    """Deflection on the interior grid l_m = m L / (M + 1), m = 1..M, per row.

    Each row of the Q x N matrix holds (w, h, L, E, P) first; any further
    entries (dummy inputs) are ignored.  Returns Q x M.  A parameter that
    is not positive, nan included, is a DomainError; complex inputs and
    entries that are not numbers are a DataError.

    The Q x M result is allocated once, first, and filled a block of rows
    at a time (about ``uq._BLOCK_ELEMENTS`` values per block), so the
    temporaries are block-sized.  Every element goes through the same
    operations whatever the block, so the bits do not depend on the
    blocking.  A result that numpy cannot allocate is a ConfigError naming
    its row and output counts.
    """
    x = np.atleast_2d(real_array(inputs, "inputs", "beam inputs are not a numeric array"))
    if x.shape[1] < 5:
        raise DataError(f"beam model needs 5 physical parameters, got width {x.shape[1]}")
    require(x[:, :5] > 0.0, lambda *_: DomainError("beam parameters must all be positive"))
    try:
        result = np.empty((len(x), n_points))
    except MemoryError as exc:
        raise ConfigError(
            f"the {len(x)} x {n_points} beam response (rows x outputs) is too large: {exc}"
        ) from None
    w, h, length, modulus, load = (x[:, j][:, None] for j in range(5))
    # load * l * (L**3 - 2 l**2 L + l**3) / (2 E w h**3), one operation at a
    # time on the result block and one cube buffer.  Each step is the
    # elementwise operation the one-line expression performs, so the result
    # has the same bits; l**3 stays a power, since a product of squares
    # rounds differently.
    grid = np.arange(1, n_points + 1)[None, :]
    step = length / (n_points + 1)
    length_cubed = length**3
    denominator = 2.0 * modulus * w * h**3
    block = _block_rows(len(x), n_points)
    cube_buffer = np.empty((block, n_points))
    for start in range(0, len(x), block):
        rows = slice(start, start + block)
        ell = result[rows]
        cube = cube_buffer[:len(ell)]
        np.multiply(grid, step[rows], out=ell)
        np.power(ell, 3, out=cube)
        np.square(ell, out=ell)
        ell *= 2.0
        ell *= length[rows]
        np.subtract(length_cubed[rows], ell, out=ell)
        cube += ell
        np.multiply(grid, step[rows], out=ell)
        ell *= load[rows]
        ell *= cube
        ell /= denominator[rows]
    return result


def sample_inputs(spec: DistributionSpec, size: int, seed) -> np.ndarray:
    """Draw ``size`` independent input rows; deterministic per seed.

    ``seed`` is anything accepted by numpy's default_rng (an int or a
    sequence of ints for derived streams).  A sample that numpy cannot
    allocate is a ConfigError naming its row count.
    """
    size = as_integer("sample size", size)
    if size < 1:
        raise ConfigError(f"sample size must be >= 1, got {size}")
    try:
        return spec.sample(size, np.random.default_rng(seed))
    except MemoryError as exc:
        raise ConfigError(f"a sample of {size} input rows is too large: {exc}") from None


def beam_rows(config: BeamConfig, size: int, seed: int, test: bool) -> TrainingData:
    """``size`` beam rows and their responses: training rows from the stream [seed, 0], test rows from [seed, 1],
    so a cell's data depends on its seed alone and every training size of one seed shares its test set."""
    seed = as_integer("seed", seed)
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
    inputs = sample_inputs(config.distribution_spec(), size, [seed, int(test)])
    return TrainingData(inputs=inputs, responses=config.response(inputs))


@dataclass(frozen=True)
class ExperimentPlan:
    """Training sizes, seeds, and methods of one comparison run."""

    training_sizes: tuple[int, ...]
    test_size: int = 1000
    seeds: tuple[int, ...] = tuple(range(10))
    methods: tuple[str, ...] = ("mvsa", "td:2", "td:3")
    kappa: float = 100.0
    mcs_samples: int = 100_000
    mcs_seed: int = 123456789

    def __post_init__(self):
        for name in ("test_size", "mcs_samples", "mcs_seed"):
            object.__setattr__(self, name, as_integer(name, getattr(self, name)))
        for name in ("training_sizes", "seeds"):
            values = tuple(as_integer(f"{name} entry", value) for value in getattr(self, name))
            object.__setattr__(self, name, values)
        object.__setattr__(self, "methods", tuple(self.methods))
        sizes = self.training_sizes
        if not sizes or len(set(sizes)) != len(sizes) or min(sizes) < 1:
            raise ConfigError(f"plan training sizes must be non-empty, distinct and >= 1, got {sizes}")
        if self.test_size < 1:
            raise ConfigError(f"test_size must be >= 1, got {self.test_size}")
        if len(set(self.seeds)) != len(self.seeds) or not self.seeds:
            raise ConfigError("plan seeds must be non-empty and distinct")
        if min(self.seeds + (self.mcs_seed,)) < 0:
            raise ConfigError("plan seeds and mcs_seed must be non-negative")
        if self.mcs_seed in self.seeds:
            raise ConfigError("mcs_seed must lie outside the plan's seed list")
        if self.mcs_samples < 2:
            raise ConfigError(f"mcs_samples must be >= 2, got {self.mcs_samples}")
        # Distinct by meaning: td:2 and td:02 name the same basis.
        if len({_parse_method(method) for method in self.methods}) != len(self.methods) or not self.methods:
            raise ConfigError("plan methods must be non-empty and distinct")
        MvsaConfig(kappa=self.kappa)  # the adaptive fit's own kappa check


def _parse_method(method: str) -> int | None:
    """Validate a method name; returns the TD degree or None for mvsa."""
    if method == "mvsa":
        return None
    degree = parse_total_degree(method)
    if degree is None:
        raise ConfigError(f"unknown method {method!r} (expected 'mvsa' or 'td:<p>')")
    return degree


@dataclass(frozen=True)
class CellResult:
    """Outcome of one (method, Q, seed) cell."""

    method: str
    training_size: int
    seed: int
    ok: bool
    error: str = ""
    rmse: np.ndarray | None = None
    mean: np.ndarray | None = None
    std: np.ndarray | None = None
    fit_seconds: float = float("nan")
    diagnostics: FitDiagnostics | None = None


@dataclass(frozen=True)
class ExperimentReport:
    config: BeamConfig
    plan: ExperimentPlan
    reference: MomentReport
    cells: tuple[CellResult, ...]


def plan_hash(config: BeamConfig, plan: ExperimentPlan) -> str:
    payload = json.dumps({"config": asdict(config), "plan": asdict(plan)}, sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:12]


def run_beam_experiment(config: BeamConfig, plan: ExperimentPlan) -> ExperimentReport:
    """Execute the full comparison protocol for the beam case.

    For every training size and seed, all requested methods are fitted on
    the training set ``beam_rows`` draws, and per-output test RMSE,
    moment estimates, fit time, and basis diagnostics are collected.  The
    test set depends on the seed alone, so the loop runs seed by seed: it
    draws and evaluates each seed's test set once, then every training
    size's data; the cells still come in (training size, seed, method)
    order.  A single Monte-Carlo moment reference, drawn with the dedicated
    mcs_seed, is shared by all cells.  Fit failures are recorded in their
    cell and the run continues.
    """
    spec = config.distribution_spec()
    # Each method's basis, None for mvsa, is built once and shared by its cells; built first, so a degree above
    # the cap, or K terms whose design or index entries numpy cannot allocate, fail before any sample.
    bases, rows = {}, max(plan.test_size, *plan.training_sizes, spec.dim)
    for method in plan.methods:
        degree = _parse_method(method)
        if degree is not None and degree <= DEGREE_CAP:
            size = math.comb(spec.dim + degree, degree)
            try:
                np.empty((rows, size))
            except (MemoryError, ValueError):
                raise ConfigError(f"{method} has {size} terms in {spec.dim} inputs: "
                                  f"its {rows} x {size} design is too large") from None
        bases[method] = None if degree is None else total_degree_set(spec.dim, degree)
    reference = monte_carlo_reference(config.response, spec, plan.mcs_samples, plan.mcs_seed)
    mvsa_config = MvsaConfig(kappa=plan.kappa)
    cells: dict[tuple[int, int], list[CellResult]] = {}
    for seed in plan.seeds:
        test = beam_rows(config, plan.test_size, seed, test=True)
        for q in plan.training_sizes:
            data = beam_rows(config, q, seed, test=False)
            cells[q, seed] = [
                _run_cell(data, test, spec, bases[method], mvsa_config, method=method, training_size=q, seed=seed)
                for method in plan.methods
            ]
        del test  # one test set is alive at a time
    ordered = tuple(cell for q in plan.training_sizes for seed in plan.seeds for cell in cells[q, seed])
    return ExperimentReport(config=config, plan=plan, reference=reference, cells=ordered)


def _run_cell(data, test, spec, basis, mvsa_config, **key) -> CellResult:
    """Fit one method on ``data`` (adaptive when ``basis`` is None) and score it on ``test``."""
    try:
        started = time.perf_counter()
        if basis is None:
            model = fit_mvsa(data, spec, mvsa_config)
        else:
            model = fit_fixed(data, spec, basis)
        fit_seconds = time.perf_counter() - started
        cell_rmse = rmse(predict(model, test.inputs), test.responses)
        moment_report = moments(model)
    except MvsaError as exc:
        return CellResult(**key, ok=False, error=str(exc))
    return CellResult(
        **key,
        ok=True,
        rmse=cell_rmse,
        mean=moment_report.mean,
        std=moment_report.std,
        fit_seconds=fit_seconds,
        diagnostics=model.diagnostics,
    )


# -- report files ---------------------------------------------------------------
#
# One CSV per metric with a common (method, Q, seed, output_index_or_aggregate,
# value) layout, plus a JSON summary.  File names carry the plan hash.  All
# files except timing.csv are byte-identical across reruns with identical
# flags; timing is wall-clock by nature and is kept out of the summary for
# that reason.


_METRICS = ("rmse", "moments", "timing", "degrees")
_REPORT_HEADER = ("method", "Q", "seed", "output_index_or_aggregate", "value")


def _per_output(prefix: str, values: np.ndarray) -> list[tuple[str, float]]:
    return [(f"{prefix}{m + 1}", v) for m, v in enumerate(values.tolist())]


def _cell_values(metric: str, cell: CellResult):
    """(output_index_or_aggregate, value) pairs of one completed cell."""
    if metric == "rmse":
        return _per_output("", cell.rmse) + [("max", float(np.max(cell.rmse)))]
    if metric == "moments":
        return _per_output("mean:", cell.mean) + _per_output("std:", cell.std)
    if metric == "timing":
        return [("fit_seconds", cell.fit_seconds)]
    diag = cell.diagnostics
    return [
        ("max_total_degree", diag.max_total_degree),
        ("max_univariate_degree", diag.max_univariate_degree),
        ("basis_size", diag.basis_size),
        ("condition_number", diag.condition_number),
        ("iterations", diag.iterations),
        ("pruned_count", diag.pruned_count),
    ]


def _report_rows(report: ExperimentReport, metric: str):
    """Long-format rows of one metric file, streamed cell by cell."""
    if metric == "moments":
        reference = report.reference
        for key, value in _per_output("mean:", reference.mean) + _per_output("std:", reference.std):
            yield "mcs", 0, report.plan.mcs_seed, key, value
    for cell in report.cells:
        if cell.ok:
            for key, value in _cell_values(metric, cell):
                yield cell.method, cell.training_size, cell.seed, key, value


def write_experiment_report(report: ExperimentReport, out_dir) -> dict[str, str]:
    """Write the metric CSVs and the JSON summary; returns the file map."""
    out_dir = Path(out_dir)
    make_output_dir(out_dir)
    tag = plan_hash(report.config, report.plan)
    paths = {metric: out_dir / f"{metric}_{tag}.csv" for metric in _METRICS}
    for metric in _METRICS:
        write_csv_table(paths[metric], _REPORT_HEADER, _report_rows(report, metric))
    paths["summary"] = out_dir / f"summary_{tag}.json"
    write_json_file(paths["summary"], _summary_payload(report, tag))
    return {name: str(path) for name, path in paths.items()}


def _aggregate(values) -> dict:
    values = [float(v) for v in values]
    return {
        "mean": sum(values) / len(values),
        "min": min(values),
        "max": max(values),
    }


def _max_rel_error(estimate: np.ndarray, reference: np.ndarray) -> float:
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.max(np.abs(estimate - reference) / np.abs(reference)))


def _summary_payload(report: ExperimentReport, tag: str) -> dict:
    reference = report.reference
    aggregates: dict[str, dict] = {}
    for method in report.plan.methods:
        aggregates[method] = {}
        for q in report.plan.training_sizes:
            group = [
                c for c in report.cells
                if c.ok and c.method == method and c.training_size == q
            ]
            if not group:
                aggregates[method][str(q)] = {"completed_seeds": 0}
                continue
            aggregates[method][str(q)] = {
                "completed_seeds": len(group),
                "max_rmse": _aggregate(np.max(c.rmse) for c in group),
                "mean_rel_error_max": _aggregate(_max_rel_error(c.mean, reference.mean) for c in group),
                "std_rel_error_max": _aggregate(_max_rel_error(c.std, reference.std) for c in group),
                "max_total_degree": _aggregate(c.diagnostics.max_total_degree for c in group),
                "max_univariate_degree": _aggregate(c.diagnostics.max_univariate_degree for c in group),
                "basis_size": _aggregate(c.diagnostics.basis_size for c in group),
            }
    failures = [
        {
            "method": c.method,
            "Q": c.training_size,
            "seed": c.seed,
            "error": c.error,
        }
        for c in report.cells
        if not c.ok
    ]
    return {
        "plan_hash": tag,
        "config": asdict(report.config),
        "plan": asdict(report.plan),
        "rng_algorithm": RNG_ALGORITHM,
        "aggregates": aggregates,
        "failures": failures,
    }
