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
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, DomainError, MvsaError
from .multi_index import parse_total_degree, total_degree_set
from .mvsa_engine import FitDiagnostics, MvsaConfig, fit_fixed, fit_mvsa, predict
from .polynomial_basis import DistributionSpec, Marginal
from .regression import TrainingData, make_output_dir, rmse, write_csv_table, write_json_file
from .uq import RNG_ALGORITHM, MomentReport, moments, monte_carlo_reference


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
        if self.response_dim < 1:
            raise ConfigError(f"response_dim must be >= 1, got {self.response_dim}")
        if self.dummy_count < 0:
            raise ConfigError(f"dummy_count must be >= 0, got {self.dummy_count}")

    @property
    def n_inputs(self) -> int:
        return 5 + self.dummy_count

    def distribution_spec(self) -> DistributionSpec:
        physical = [self.width, self.height, self.length, self.youngs_modulus, self.load]
        marginals = [Marginal.lognormal(*params) for params in physical]
        marginals += [Marginal.lognormal(*self.dummy)] * self.dummy_count
        return DistributionSpec.of(marginals)

    def response(self, inputs: np.ndarray) -> np.ndarray:
        """Vectorized beam response for a Q x N input matrix."""
        return beam_deflection_rows(inputs, self.response_dim)


def beam_deflection_rows(inputs, n_points: int) -> np.ndarray:
    """Deflection on the interior grid l_m = m L / (M + 1), m = 1..M, per row.

    Each row of the Q x N matrix holds (w, h, L, E, P) first; any further
    entries (dummy inputs) are ignored.  Returns Q x M.
    """
    x = np.atleast_2d(np.asarray(inputs, dtype=float))
    if x.shape[1] < 5:
        raise DataError(f"beam model needs 5 physical parameters, got width {x.shape[1]}")
    if np.min(x[:, :5]) <= 0.0:
        raise DomainError("beam parameters must all be positive")
    w, h, length, modulus, load = (x[:, j][:, None] for j in range(5))
    ell = np.arange(1, n_points + 1)[None, :] * (length / (n_points + 1))
    return load * ell * (length**3 - 2.0 * ell**2 * length + ell**3) / (2.0 * modulus * w * h**3)


def sample_inputs(spec: DistributionSpec, size: int, seed) -> np.ndarray:
    """Draw ``size`` independent input rows; deterministic per seed.

    ``seed`` is anything accepted by numpy's default_rng (an int or a
    sequence of ints for derived streams).
    """
    if size < 1:
        raise ConfigError(f"sample size must be >= 1, got {size}")
    return spec.sample(size, np.random.default_rng(seed))


def beam_samples(
    config: BeamConfig, train_size: int, test_size: int, seed: int
) -> tuple[TrainingData, TrainingData]:
    """Training and test sets of one beam cell.

    Training rows come from the stream [seed, 0], test rows from
    [seed, 1], so a cell's data depends on its seed alone.
    """
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
    spec = config.distribution_spec()
    train_x = sample_inputs(spec, train_size, [seed, 0])
    test_x = sample_inputs(spec, test_size, [seed, 1])
    return (
        TrainingData(inputs=train_x, responses=config.response(train_x)),
        TrainingData(inputs=test_x, responses=config.response(test_x)),
    )


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
        object.__setattr__(self, "training_sizes", tuple(int(q) for q in self.training_sizes))
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        object.__setattr__(self, "methods", tuple(self.methods))
        if not self.training_sizes:
            raise ConfigError("plan needs at least one training size")
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
        if not self.methods:
            raise ConfigError("plan needs at least one method")
        for method in self.methods:
            _parse_method(method)
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

    For every training size and seed, ``beam_samples`` draws one training
    and one test set, all requested methods are fitted on the same data,
    and per-output test RMSE, moment estimates, fit time, and basis
    diagnostics are collected.  A single Monte-Carlo moment
    reference, drawn with the dedicated mcs_seed, is shared by all cells.
    Fit failures are recorded in their cell and the run continues.
    """
    spec = config.distribution_spec()
    reference = monte_carlo_reference(
        config.response,
        spec,
        plan.mcs_samples,
        plan.mcs_seed,
        vectorized=True,
    )
    # Each method's basis, None for mvsa, is built once and shared by its cells.
    bases = {}
    for method in plan.methods:
        degree = _parse_method(method)
        bases[method] = None if degree is None else total_degree_set(spec.dim, degree)
    mvsa_config = MvsaConfig(kappa=plan.kappa)
    cells: list[CellResult] = []
    for q in plan.training_sizes:
        for seed in plan.seeds:
            data, test = beam_samples(config, q, plan.test_size, seed)
            for method in plan.methods:
                key = {"method": method, "training_size": q, "seed": seed}
                try:
                    started = time.perf_counter()
                    basis = bases[method]
                    if basis is None:
                        model = fit_mvsa(data, spec, mvsa_config)
                    else:
                        model = fit_fixed(data, spec, basis)
                    fit_seconds = time.perf_counter() - started
                    cell_rmse = rmse(predict(model, test.inputs), test.responses)
                    moment_report = moments(model)
                except MvsaError as exc:
                    cells.append(CellResult(**key, ok=False, error=str(exc)))
                    continue
                cells.append(
                    CellResult(
                        **key,
                        ok=True,
                        rmse=cell_rmse,
                        mean=moment_report.mean,
                        std=moment_report.std,
                        fit_seconds=fit_seconds,
                        diagnostics=model.diagnostics,
                    )
                )
    return ExperimentReport(config=config, plan=plan, reference=reference, cells=tuple(cells))


# -- report files ---------------------------------------------------------------
#
# One CSV per metric with a common (method, Q, seed, output_index_or_aggregate,
# value) layout, plus a JSON summary.  File names carry the plan hash.  All
# files except timing.csv are byte-identical across reruns with identical
# flags; timing is wall-clock by nature and is kept out of the summary for
# that reason.


_METRICS = ("rmse", "moments", "timing", "degrees")
_REPORT_HEADER = ("method", "Q", "seed", "output_index_or_aggregate", "value")


def _per_output(prefix: str, values) -> list[tuple[str, str]]:
    return [(f"{prefix}{m + 1}", repr(float(v))) for m, v in enumerate(values)]


def _cell_values(metric: str, cell: CellResult):
    """(output_index_or_aggregate, value) pairs of one completed cell."""
    if metric == "rmse":
        return _per_output("", cell.rmse) + [("max", repr(float(np.max(cell.rmse))))]
    if metric == "moments":
        return _per_output("mean:", cell.mean) + _per_output("std:", cell.std)
    if metric == "timing":
        return [("fit_seconds", repr(float(cell.fit_seconds)))]
    diag = cell.diagnostics
    return [
        ("max_total_degree", diag.max_total_degree),
        ("max_univariate_degree", diag.max_univariate_degree),
        ("basis_size", diag.basis_size),
        ("condition_number", repr(float(diag.condition_number))),
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
