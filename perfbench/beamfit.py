"""beam-fit workload: ``fit_mvsa`` on beam cells, in a fresh process.

A cell is one training set: N = 20 inputs (5 physical, 15 dummies), kappa
100.  A triple is the three cells Q = 50, 100, 150 of one cell seed, and a
pass is the triples of the ten cell seeds derived from the benchmark seed,
each drawn as ``[cell_seed, 0]``, the draw ``mvsapce compare`` makes.  An
untraced run fits triples in a closed loop (one client; the next fit starts
when the previous one has been checked) until its time is up: first pass 0,
then fresh draws ``[cell_seed, 0, p]`` for p = 1, 2, ...  The timed
operation is one triple.  Cells differ in cost by tens of percent (the basis
size each reaches sets the index-set work), so a run reports the median over
the thirty-odd triples it fits rather than the time of one pass of ten.

    python3 perfbench/beamfit.py JOB.json RESULT.json

run.py starts this as a child so that peak RSS and set-up time belong to
the workload alone.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import harness
from tracing import Tracer

SETUP_REPEATS = 9


def build_triple(mv, config, spec, cell_seed: int, p: int):
    """The three cells of ``cell_seed`` in pass ``p``: (label, Q, training data) each."""
    cells = []
    for q in harness.TRAINING_SIZES:
        x = mv.sample_inputs(spec, q, [cell_seed, 0] if p == 0 else [cell_seed, 0, p])
        cells.append(((p, cell_seed, q), q, mv.TrainingData(x, config.response(x))))
    return cells


def build_pass(mv, config, seed: int):
    """The inputs of pass 0: (label, Q, training data) per cell."""
    spec = config.distribution_spec()
    cells = []
    for cell_seed in harness.cell_seeds(seed):
        cells += build_triple(mv, config, spec, cell_seed, 0)
    return spec, cells


class FitRecorder:
    """Times fits, checks every output, and keeps a basis digest per cell."""

    def __init__(self, mv, spec, reference):
        self.mv = mv
        self.spec = spec
        self.reference = reference
        self.config = mv.MvsaConfig(kappa=harness.KAPPA)
        self.seconds: list[float] = []
        self.failures: list[dict] = []
        self.digests: dict[tuple, str] = {}
        self.attempted = 0

    def fit_pass(self, cells, tracer: Tracer | None = None) -> float:
        """Fit every cell in turn; returns the summed fit time."""
        done = len(self.seconds)
        for label, q, data in cells:
            self.fit(label, q, data, tracer)
        return sum(self.seconds[done:])

    def fit(self, label, q: int, data, tracer: Tracer | None = None) -> None:
        self.attempted += 1
        started = time.perf_counter()
        try:
            with tracer.operation("harness.fit") if tracer else nullcontext():
                model = self.mv.fit_mvsa(data, self.spec, self.config)
        except Exception as exc:  # a raising fit is a failed operation; keep going
            self.failures.append({"cell": label, "problems": [f"{type(exc).__name__}: {exc}"]})
            return
        self.seconds.append(time.perf_counter() - started)
        trace = (model.trace.initial.indices, [step.added for step in model.trace.steps])
        problems = harness.fit_failures(
            model.basis.indices,
            model.coefficients,
            model.diagnostics.condition_number,
            q,
            self.reference,
            trace,
        )
        self.digests[label] = harness.digest(model.basis.to_json())
        if problems:
            self.failures.append({"cell": label, "problems": problems})

    def pass_digest(self, labels) -> str:
        return harness.digest([self.digests.get(label) for label in labels])

    def fit_metrics(self) -> dict:
        value, percentile = harness.tail(self.seconds)
        return {
            "fits_per_s": len(self.seconds) / sum(self.seconds),
            "fit_ms_p50": 1000.0 * harness.summary(self.seconds)["median"],
            "fit_ms_tail": 1000.0 * value,
            "fit_ms_tail_percentile": percentile,
        }


def setup_job(mv, job: dict) -> dict:
    """Set-up timing: build the pass-0 inputs ``SETUP_REPEATS`` times."""
    config = mv.BeamConfig(response_dim=job["response_dim"])
    setup_s = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        build_pass(mv, config, job["seed"])
        setup_s.append(time.perf_counter() - started)
    return {"setup_s": setup_s, "attempted": 0, "failures": []}


def loop_job(mv, job: dict) -> dict:
    """Untraced run: triples in a closed loop for ``seconds``.

    A triple's time is the sum of its three fit times; building its cells
    and the checks between fits are not counted.
    """
    config = mv.BeamConfig(response_dim=job["response_dim"])
    spec = config.distribution_spec()
    seeds = harness.cell_seeds(job["seed"])
    recorder = FitRecorder(mv, spec, job["reference"])
    warm = build_triple(mv, config, spec, seeds[0], 0)
    mv.fit_mvsa(warm[0][2], spec, recorder.config)  # warm-up, discarded
    triples = []
    started = time.perf_counter()
    while not triples or harness.room_for(triples[-1], started, job["seconds"]):
        p, j = divmod(len(triples), len(seeds))
        triples.append(recorder.fit_pass(build_triple(mv, config, spec, seeds[j], p)))
    return {
        "triple_s": triples,
        "fit_s": recorder.seconds,
        "attempted": recorder.attempted,
        "failures": recorder.failures,
        "basis_digest": recorder.pass_digest([(0, cell_seed, q) for cell_seed in seeds for q in harness.TRAINING_SIZES]),
    }


def traced_job(mv, job: dict) -> dict:
    """Traced run: one traced pass 0, after an untraced one.

    The untraced pass over the same cells gives the tracing overhead and
    the bases the traced pass must reproduce exactly.
    """
    config = mv.BeamConfig(response_dim=job["response_dim"])
    spec, cells = build_pass(mv, config, job["seed"])
    mv.fit_mvsa(cells[0][2], spec, mv.MvsaConfig(kappa=harness.KAPPA))  # warm-up, discarded
    layers = {}
    failures = []
    plain = None
    if job["untraced_pass"]:
        plain = FitRecorder(mv, spec, job["reference"])
        plain_s = plain.fit_pass(cells)
        failures += plain.failures
        layers.update(plain.fit_metrics())
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.operation("harness.setup"):
            spec, cells = build_pass(mv, config, job["seed"])
        traced = FitRecorder(mv, spec, job["reference"])
        traced_s = traced.fit_pass(cells, tracer)
    finally:
        tracer.uninstall()
    failures += traced.failures
    layers.update(tracer.metrics())
    labels = [label for label, _, _ in cells]
    if plain is not None:
        if plain.pass_digest(labels) != traced.pass_digest(labels):
            failures.append({"cell": None, "problems": ["traced and untraced passes fitted different bases"]})
        layers["trace_overhead_ms"] = 1000.0 * (traced_s - plain_s)
        layers["trace_overhead_pct"] = 100.0 * (traced_s - plain_s) / plain_s
    tracer.write_spans(Path(job["spans_path"]))
    return {
        "attempted": (plain.attempted if plain else 0) + traced.attempted,
        "failures": failures,
        "basis_digest": traced.pass_digest(labels),
        "layers": layers,
    }


def main(argv: list[str]) -> int:
    job = json.loads(Path(argv[1]).read_text(encoding="utf-8"))
    mv = harness.import_program()
    result = {"setup": setup_job, "loop": loop_job, "traced": traced_job}[job["mode"]](mv, job)
    Path(argv[2]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
