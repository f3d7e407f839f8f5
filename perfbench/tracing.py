"""Span tracer that wraps the program's public functions from outside.

``install`` replaces each traced function or method with a wrapper that
records a span (name, start, end, parent, operation id) and restores the
originals on ``uninstall``.  A module-level function is replaced in every
program module that binds it, since ``from .x import f`` copies the name
(``fit_mvsa`` lives in ``mvsa_engine`` but is also called through
``benchmark``, ``cli`` and the package namespace).  "Solve" is every
``numpy.linalg`` lstsq, svd or qr call.  Nothing under ``src/`` changes.

A span's self time is its duration minus the time its child spans cover.
Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

#: (module, attribute path, span name).  Span names are the metric prefixes.
SPANS = (
    ("polynomial_basis", "univariate_table", "polynomial_basis.univariate_table"),
    ("polynomial_basis", "DistributionSpec.standardize_rows", "polynomial_basis.standardize_rows"),
    ("multi_index", "MultiIndexSet.admissible_forward_neighbors", "multi_index.admissible_forward_neighbors"),
    ("multi_index", "MultiIndexSet.union", "multi_index.union"),
    ("multi_index", "MultiIndexSet.with_index", "multi_index.with_index"),
    ("multi_index", "MultiIndexSet.without_index", "multi_index.without_index"),
    ("regression", "DesignBuilder.matrix", "regression.DesignBuilder.matrix"),
    ("regression", "load_data_csv", "regression.load_data_csv"),
    ("regression", "load_inputs_csv", "regression.load_inputs_csv"),
    ("regression", "write_responses_csv", "regression.write_responses_csv"),
    ("regression", "write_data_csv", "regression.write_data_csv"),
    ("mvsa_engine", "fit_mvsa", "mvsa_engine.fit_mvsa"),
    ("mvsa_engine", "expand_basis", "mvsa_engine.expand_basis"),
    ("mvsa_engine", "prune_basis", "mvsa_engine.prune_basis"),
    ("mvsa_engine", "sensitivity_indicators", "mvsa_engine.sensitivity_indicators"),
    ("mvsa_engine", "fit_fixed", "mvsa_engine.fit_fixed"),
    ("mvsa_engine", "predict", "mvsa_engine.predict"),
    ("mvsa_engine", "save_model", "mvsa_engine.save_model"),
    ("mvsa_engine", "load_model", "mvsa_engine.load_model"),
    ("uq", "moments", "uq.moments"),
    ("uq", "sobol_indices", "uq.sobol_indices"),
    ("uq", "generalized_sobol", "uq.generalized_sobol"),
    ("uq", "sensitivity_report", "uq.sensitivity_report"),
    ("uq", "monte_carlo_reference", "uq.monte_carlo_reference"),
    ("uq", "write_moments_csv", "uq.write_moments_csv"),
    ("uq", "write_sobol_csv", "uq.write_sobol_csv"),
    ("uq", "write_generalized_csv", "uq.write_generalized_csv"),
    ("uq", "write_uq_report_json", "uq.write_uq_report_json"),
    ("benchmark", "beam_deflection_rows", "benchmark.beam_deflection_rows"),
    ("benchmark", "sample_inputs", "benchmark.sample_inputs"),
    ("benchmark", "run_beam_experiment", "benchmark.run_beam_experiment"),
    ("benchmark", "write_experiment_report", "benchmark.write_experiment_report"),
)
SOLVERS = ("lstsq", "svd", "qr")
SOLVE = "regression.solve"
UQ_WRITERS = ("uq.write_moments_csv", "uq.write_sobol_csv", "uq.write_generalized_csv", "uq.write_uq_report_json")
#: Self-time shares are reported per program module, with the solve apart.
MODULES = ("polynomial_basis", "multi_index", "regression", "mvsa_engine", "uq", "benchmark", "cli")


def _size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _solve_flops(name, args, kwargs) -> tuple[int, int]:
    """Right-hand-side width and a computed flop count of one solve.

    Textbook dense counts (Golub & Van Loan), m >= n the long side:
    SVD values 4mn^2 + 8n^3, least squares through the SVD that plus
    2 nrhs (mn + n^2), Householder QR 2mn^2 - 2n^3/3.  Computed from the
    shapes, not measured.
    """
    a = args[0]
    rows, cols = a.shape[-2], a.shape[-1]
    m, n = max(rows, cols), min(rows, cols)
    if name == "lstsq":
        b = args[1] if len(args) > 1 else kwargs["b"]
        nrhs = 1 if b.ndim == 1 else b.shape[1]
        return nrhs, 4 * m * n * n + 8 * n**3 + 2 * nrhs * (m * n + n * n)
    if name == "svd":
        return 0, 4 * m * n * n + 8 * n**3
    return 0, 2 * m * n * n - (2 * n**3) // 3


class Tracer:
    """In-memory spans and counters for one traced pass."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.calls: Counter = Counter()
        self.total_s: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self._open: list[list] = []
        self._next_id = 0
        self._op = 0
        self._patches: list[tuple] = []

    # -- spans --------------------------------------------------------------

    def _enter(self, name: str) -> None:
        self._next_id += 1
        parent = self._open[-1][0] if self._open else None
        self._open.append([self._next_id, name, parent, time.perf_counter(), 0.0])

    def _exit(self) -> None:
        end = time.perf_counter()
        span_id, name, parent, start, child_s = self._open.pop()
        duration = end - start
        self.calls[name] += 1
        self.total_s[name] += duration
        self.self_s[name] += duration - child_s
        if self._open:
            self._open[-1][4] += duration
        self.spans.append((span_id, name, parent, start, end, self._op))

    @contextmanager
    def operation(self, name: str):
        """A root span; every span under it shares one operation id."""
        self._op += 1
        self._enter(name)
        try:
            yield
        finally:
            self._exit()

    def _spanned(self, name, fn, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit()
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    # -- patching -------------------------------------------------------------

    def _replace(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _replace_everywhere(self, original, wrapper) -> None:
        for name, module in list(sys.modules.items()):
            if name == "mvsapce" or name.startswith("mvsapce."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._replace(module, attr, wrapper)

    def install(self) -> None:
        import numpy.linalg

        # cli binds fit_mvsa, predict and the CSV functions by name; import it
        # first so that its names are replaced too.
        importlib.import_module("mvsapce.cli")
        hooks = self._hooks()
        for module_name, path, name in SPANS:
            owner = sys.modules[f"mvsapce.{module_name}"]
            *classes, attr = path.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            original = getattr(owner, attr)
            wrapper = self._spanned(name, original, hooks.get(name))
            if classes:
                self._replace(owner, attr, wrapper)
            else:
                self._replace_everywhere(original, wrapper)
        for solver in SOLVERS:
            self._replace(numpy.linalg, solver, self._spanned(SOLVE, getattr(numpy.linalg, solver), self._solve_hook(solver)))
        self._count_sets(sys.modules["mvsapce.multi_index"].MultiIndexSet)
        self._count_columns(sys.modules["mvsapce.regression"].DesignBuilder)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _hooks(self) -> dict:
        counts = self.counts

        def bytes_to(counter, position):
            def hook(args, kwargs, result):
                counts[counter] += _size(args[position] if len(args) > position else None)
            return hook

        def fit_done(args, kwargs, model):
            counts["mvsa_engine.expansion_steps"] += model.diagnostics.iterations
            counts["mvsa_engine.prune_steps"] += model.diagnostics.pruned_count

        def mc_done(args, kwargs, result):
            counts["uq.mc_samples"] += kwargs.get("samples", args[2] if len(args) > 2 else 0)

        def report_done(args, kwargs, files):
            counts["benchmark.report_bytes"] += sum(_size(path) for path in files.values())

        hooks = {
            "regression.load_data_csv": bytes_to("regression.csv_bytes_read", 0),
            "regression.load_inputs_csv": bytes_to("regression.csv_bytes_read", 0),
            "regression.write_data_csv": bytes_to("regression.csv_bytes_written", 0),
            "regression.write_responses_csv": bytes_to("regression.csv_bytes_written", 0),
            "mvsa_engine.fit_mvsa": fit_done,
            "mvsa_engine.save_model": bytes_to("mvsa_engine.model_json_bytes", 1),
            "uq.monte_carlo_reference": mc_done,
            "benchmark.write_experiment_report": report_done,
        }
        for writer in UQ_WRITERS:
            hooks[writer] = bytes_to("uq.report_bytes", 1)
        return hooks

    def _solve_hook(self, solver):
        def hook(args, kwargs, result):
            rhs, flops = _solve_flops(solver, args, kwargs)
            self.counts["regression.solve.rhs_cols"] += rhs
            self.counts["regression.solve.flops_computed"] += flops
        return hook

    def _count_sets(self, cls) -> None:
        original = cls.__init__
        counts = self.counts

        @functools.wraps(original)
        def init(obj, indices, *args, **kwargs):
            indices = list(indices)
            counts["multi_index.sets_built"] += 1
            counts["multi_index.entries_validated"] += len(indices)
            original(obj, indices, *args, **kwargs)

        self._replace(cls, "__init__", init)

    def _count_columns(self, cls) -> None:
        original = cls.column
        counts = self.counts

        @functools.wraps(original)
        def column(builder, index):
            counts["regression.DesignBuilder.column.calls"] += 1
            if tuple(int(v) for v in index) in getattr(builder, "_columns", ()):
                counts["regression.column_cache_hits"] += 1
            return original(builder, index)

        self._replace(cls, "column", column)

    # -- results --------------------------------------------------------------

    def write_spans(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as handle:
            for span_id, name, parent, start, end, op in self.spans:
                handle.write(json.dumps({"id": span_id, "name": name, "parent": parent, "start": start, "end": end, "op": op}) + "\n")

    def metrics(self) -> dict:
        """Per-layer metrics named as in BENCHMARK.json (values only)."""
        out = {}
        for _, _, name in SPANS:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_ms"] = 1000.0 * self.self_s[name]
        out["mvsa_engine.fit_mvsa.ms"] = 1000.0 * self.total_s["mvsa_engine.fit_mvsa"]
        out["regression.solve.calls"] = self.calls[SOLVE]
        out["regression.solve.self_ms"] = 1000.0 * self.self_s[SOLVE]
        out["uq.write_reports.self_ms"] = 1000.0 * sum(self.self_s[name] for name in UQ_WRITERS)
        mc_s = self.total_s["uq.monte_carlo_reference"]
        out["uq.mc_samples_per_s"] = self.counts["uq.mc_samples"] / mc_s if mc_s else 0.0
        columns = self.counts["regression.DesignBuilder.column.calls"]
        out["regression.column_cache_hit_ratio"] = self.counts["regression.column_cache_hits"] / columns if columns else 0.0
        steps = self.counts["mvsa_engine.expansion_steps"] + self.counts["mvsa_engine.prune_steps"]
        out["mvsa_engine.solve_yield"] = steps / self.calls[SOLVE] if self.calls[SOLVE] else 0.0
        out.update(self.counts)
        out.update(self.shares())
        return out

    def shares(self) -> dict:
        """Self time per program module as a share (%) of all operation time."""
        root_s = sum(end - start for _, _, parent, start, end, _ in self.spans if parent is None)
        buckets = defaultdict(float)
        for name, seconds in self.self_s.items():
            bucket = SOLVE if name == SOLVE else name.split(".")[0]
            buckets[bucket] += seconds
        out = {f"{module}.self_share": 100.0 * buckets[module] / root_s if root_s else 0.0 for module in MODULES}
        out[f"{SOLVE}.self_share"] = 100.0 * buckets[SOLVE] / root_s if root_s else 0.0
        return out
