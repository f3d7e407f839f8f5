"""cli-pipeline and beam-protocol workloads: the ``mvsapce`` CLI as a user runs it.

Every timed operation is a fresh Python process running ``mvsapce.cli`` as
``python -m`` does (the ``mvsapce`` console script's entry point) under
``peakrss.py``, so its wall time includes interpreter start and imports.  Traced runs call ``cli.main`` in-process
as well, to split process overhead from the command's own work.
"""

from __future__ import annotations

import csv
import io
import json
import statistics
import time
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

import harness
from tracing import Tracer

STEPS = ("fit", "predict", "uq")
SETUP_REPEATS = 3
#: Training files of distinct cells, used in turn, so a run's fit times do
#: not hang on one cell's basis size.
TRAIN_FILES = 3
TRAIN_ROWS = 150
TEST_ROWS = 1000
RESPONSE_DIM = 1000
PLAN_CELLS = len(harness.TRAINING_SIZES) * harness.CELL_SEEDS * 3  # mvsa, td:2, td:3


class Ledger:
    """Operations attempted and the failures among them."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[dict] = []

    def record(self, operation: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failures.append({"operation": operation, "problems": problems})


def status_problems(exit_code: int, payload: dict | None) -> list[str]:
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    if payload is None or payload.get("status") != "ok":
        problems.append(f"diagnostics line is not ok: {payload}")
    return problems


def cli_argv(args: list[str]) -> list[str]:
    return ["-m", "mvsapce.cli", *args]


def run_in_process(cli, args: list[str]) -> tuple[float, int, dict | None]:
    """``cli.main`` in this process: wall time, exit code, diagnostics line."""
    buffer = io.StringIO()
    started = time.perf_counter()
    with redirect_stdout(buffer):
        code = cli.main(args)
    wall = time.perf_counter() - started
    lines = buffer.getvalue().strip().splitlines()
    try:
        payload = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        payload = None
    return wall, code, payload


# -- cli-pipeline -------------------------------------------------------------------


def write_pipeline_inputs(mv, work: Path, seed: int) -> None:
    """Set-up: train CSVs of three beam cells, one test CSV, the distribution spec."""
    config = mv.BeamConfig(response_dim=RESPONSE_DIM)
    spec = config.distribution_spec()
    cell_seeds = harness.cell_seeds(seed)[:TRAIN_FILES]
    for j, cell_seed in enumerate(cell_seeds):
        x_train = mv.sample_inputs(spec, TRAIN_ROWS, [cell_seed, 0])
        mv.regression.write_data_csv(work / f"train{j}.csv", x_train, config.response(x_train))
    x_test = mv.sample_inputs(spec, TEST_ROWS, [cell_seeds[0], 1])
    mv.regression.write_data_csv(work / "test.csv", x_test, config.response(x_test))
    (work / "dist.json").write_text(json.dumps(spec.to_json()), encoding="utf-8")


class Pipeline:
    """Argument lists and output paths of one fit -> predict -> uq chain."""

    def __init__(self, work: Path, train: int, tag: str):
        self.work = work
        self.train = train
        self.model = work / f"model{train}{tag}.json"
        self.predictions = work / f"predictions{train}{tag}.csv"
        self.uq_prefix = str(work / f"uq{train}{tag}_")

    def args(self, step: str) -> list[str]:
        if step == "fit":
            return [
                "fit", "--data", str(self.work / f"train{self.train}.csv"), "--inputs", str(harness.N_INPUTS),
                "--outputs", str(RESPONSE_DIM), "--dist", str(self.work / "dist.json"),
                "--kappa", str(harness.KAPPA), "--out", str(self.model),
            ]
        if step == "predict":
            return ["predict", "--model", str(self.model), "--data", str(self.work / "test.csv"), "--out", str(self.predictions)]
        return ["uq", "--model", str(self.model), "--out-prefix", self.uq_prefix]

    def uq_files(self) -> list[str]:
        return [self.uq_prefix + name for name in ("moments.csv", "sobol.csv", "generalized.csv")]


class PipelineChecker:
    """Output checks of the pipeline; every rerun must reproduce the bytes.

    The model must satisfy the fit checks (K <= Q, cond <= kappa, moments
    against the reference); the predictions must match an in-process
    ``predict`` on the same model; the moments report must match the
    moments read off the model's coefficients.
    """

    def __init__(self, mv, work: Path, reference: dict):
        self.mv = mv
        self.work = work
        self.reference = reference
        self.digests: dict[str, str] = {}
        self._verdicts: dict[str, list[str]] = {}

    def _verdict(self, kind: str, paths, check) -> list[str]:
        """Check new bytes once; later runs must reproduce them exactly."""
        try:
            found = harness.file_digest(*paths)
            if kind not in self._verdicts:
                self._verdicts[kind] = check()
                self.digests[kind] = found
        except (KeyError, OSError, ValueError, self.mv.MvsaError) as exc:
            return [f"unreadable {kind} output: {type(exc).__name__}: {exc}"]
        if self.digests[kind] != found:
            return [f"{kind} output differs from the first run"]
        return self._verdicts[kind]

    def check(self, step: str, pipeline: Pipeline) -> list[str]:
        if step == "fit":
            return self._verdict(f"model{pipeline.train}", [pipeline.model], lambda: self._check_model(pipeline))
        if step == "predict":
            return self._verdict(f"predictions{pipeline.train}", [pipeline.predictions], lambda: self._check_predictions(pipeline))
        return self._verdict(f"uq{pipeline.train}", pipeline.uq_files(), lambda: self._check_uq(pipeline))

    def _check_model(self, pipeline: Pipeline) -> list[str]:
        model = json.loads(pipeline.model.read_text(encoding="utf-8"))
        return harness.fit_failures(
            model["basis"], model["coefficients"], model["diagnostics"]["condition_number"],
            TRAIN_ROWS, self.reference,
        )

    def _check_predictions(self, pipeline: Pipeline) -> list[str]:
        model = self.mv.load_model(pipeline.model)
        inputs = self.mv.regression.load_inputs_csv(self.work / "test.csv", harness.N_INPUTS)
        expected = self.mv.predict(model, inputs)
        got = np.loadtxt(pipeline.predictions, delimiter=",", skiprows=1, ndmin=2)
        if got.shape != expected.shape or np.max(np.abs(got - expected)) > 1e-12 * np.max(np.abs(expected)):
            return ["predictions CSV disagrees with in-process predict"]
        return []

    def _check_uq(self, pipeline: Pipeline) -> list[str]:
        model = json.loads(pipeline.model.read_text(encoding="utf-8"))
        table = np.loadtxt(pipeline.uq_files()[0], delimiter=",", skiprows=1, ndmin=2)
        reported = {"mean": table[:, 1], "std": table[:, 3]}
        mean_err, std_err = harness.moment_errors(model["basis"], model["coefficients"], reported)
        if not (mean_err < 1e-12 and std_err < 1e-12):
            return [f"moments report disagrees with the model: mean {mean_err:.3g}, std {std_err:.3g}"]
        return []


def subprocess_pipeline(pipeline, checker, ledger, label: str) -> dict:
    done = {}
    for step in STEPS:
        finished = harness.run_child(cli_argv(pipeline.args(step)), pipeline.work, harness.program_env(), f"{step}{label}")
        problems = status_problems(finished.exit_code, finished.last_json())
        ledger.record(f"cli {step}", problems or checker.check(step, pipeline))
        done[step] = finished
    return done


def cli_pipeline(mv, work: Path, seed: int, seconds: float, reference: dict) -> dict:
    """Untraced run: warm-up pipeline, then pipelines for ``seconds``.

    Pipeline i fits training file i mod 3; at least one pipeline per file.
    """
    setup_s = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        write_pipeline_inputs(mv, work, seed)
        setup_s.append(time.perf_counter() - started)
    checker = PipelineChecker(mv, work, reference)
    ledger = Ledger()
    subprocess_pipeline(Pipeline(work, 0, ""), checker, ledger, "warmup")  # cold file cache, discarded
    runs = []
    started = time.perf_counter()
    op_s = []
    while len(runs) < TRAIN_FILES or harness.room_for(op_s[-1], started, seconds):
        pipeline = Pipeline(work, len(runs) % TRAIN_FILES, "")
        runs.append(subprocess_pipeline(pipeline, checker, ledger, str(len(runs))))
        op_s.append(sum(runs[-1][step].wall_s for step in STEPS))
    fit_seconds = [(run["fit"].last_json() or {}).get("fit_seconds", float("nan")) for run in runs]
    detail = {f"cli_{step}_s": harness.summary([run[step].wall_s for run in runs]) for step in STEPS}
    detail["cli_fit_in_process_s"] = harness.summary(fit_seconds)
    detail["peak_rss_mb_by_step"] = {step: [run[step].peak_rss_mb for run in runs] for step in STEPS}
    return {
        "setup_s": setup_s,
        "op_s": op_s,
        # The pipeline's peak is its largest step's (predict); each step's
        # median over the run's pipelines, then the largest step.
        "peak_rss_mb": max(statistics.median(run[step].peak_rss_mb for run in runs) for step in STEPS),
        "ledger": ledger,
        "digests": checker.digests,
        "detail": detail,
    }


def cli_pipeline_traced(mv, work: Path, seed: int, reference: dict) -> dict:
    """Traced run: one subprocess pipeline, one in-process, one traced."""
    from mvsapce import cli

    write_pipeline_inputs(mv, work, seed)
    checker = PipelineChecker(mv, work, reference)
    ledger = Ledger()
    layers = {"cli.import_ms": harness.import_ms(work)}
    sub = subprocess_pipeline(Pipeline(work, 0, ""), checker, ledger, "sub")
    for step in STEPS:
        layers[f"cli_{step}_s"] = sub[step].wall_s
    plain, traced = Pipeline(work, 0, "_plain"), Pipeline(work, 0, "_traced")
    plain_walls = {}
    outcomes = []
    for step in STEPS:
        wall, code, payload = run_in_process(cli, plain.args(step))
        plain_walls[step] = wall
        outcomes.append((plain, step, code, payload))
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.operation("harness.setup"):
            write_pipeline_inputs(mv, work, seed)
        traced_s = 0.0
        for step in STEPS:
            with tracer.operation(f"cli.{step}"):
                wall, code, payload = run_in_process(cli, traced.args(step))
            traced_s += wall
            outcomes.append((traced, step, code, payload))
    finally:
        tracer.uninstall()
    for pipeline, step, code, payload in outcomes:
        problems = status_problems(code, payload)
        ledger.record(f"in-process {step}", problems or checker.check(step, pipeline))
    layers.update(tracer.metrics())
    for step in STEPS:
        layers[f"cli.{step}.ms"] = 1000.0 * plain_walls[step]
    plain_s = sum(plain_walls.values())
    layers["cli.process_overhead_ms"] = 1000.0 * (sum(sub[step].wall_s for step in STEPS) - plain_s)
    layers["trace_overhead_ms"] = 1000.0 * (traced_s - plain_s)
    layers["trace_overhead_pct"] = 100.0 * (traced_s - plain_s) / plain_s
    return {"ledger": ledger, "digests": checker.digests, "layers": layers, "tracer": tracer}


# -- beam-protocol --------------------------------------------------------------------


def compare_args(seed: int, out_dir: Path) -> list[str]:
    """``mvsapce compare`` with its default methods (mvsa, td:2, td:3)."""
    return [
        "compare", "--Q", ",".join(str(q) for q in harness.TRAINING_SIZES), "--M", str(RESPONSE_DIM),
        "--seeds", ",".join(str(s) for s in harness.cell_seeds(seed)), "--out-dir", str(out_dir),
    ]


def warmup_args(seed: int, out_dir: Path) -> list[str]:
    return [
        "compare", "--Q", "30", "--M", "10", "--seeds", str(harness.cell_seeds(seed)[0]),
        "--methods", "mvsa", "--test-size", "10", "--mcs-samples", "1000", "--out-dir", str(out_dir),
    ]


def build_protocol_inputs(mv, seed: int) -> None:
    """Set-up: draw every cell's training and test set and its beam response.

    These are the draws the compare process makes itself; building them
    here measures the input-building cost that a change to sampling or the
    beam response would move.
    """
    config = mv.BeamConfig(response_dim=RESPONSE_DIM)
    spec = config.distribution_spec()
    for q in harness.TRAINING_SIZES:
        for cell_seed in harness.cell_seeds(seed):
            config.response(mv.sample_inputs(spec, q, [cell_seed, 0]))
            config.response(mv.sample_inputs(spec, TEST_ROWS, [cell_seed, 1]))


class ProtocolChecker:
    """Checks one compare run; report bytes must repeat across runs."""

    def __init__(self):
        self.digest: str | None = None
        self.mvsa_fit_s: list[float] = []

    def check(self, code: int, payload: dict | None) -> list[str]:
        problems = status_problems(code, payload)
        if problems:
            return problems
        try:
            return self._check_reports(payload)
        except (KeyError, OSError, ValueError) as exc:
            return [f"unreadable compare output: {type(exc).__name__}: {exc}"]

    def _check_reports(self, payload: dict) -> list[str]:
        problems = []
        if payload.get("failures") != 0 or payload.get("cells") != PLAN_CELLS:
            problems.append(f"{payload.get('failures')} failed of {payload.get('cells')} cells")
        files = payload["files"]
        summary = json.loads(Path(files["summary"]).read_text(encoding="utf-8"))
        if summary["failures"]:
            problems.append(f"summary lists failed cells: {summary['failures'][:3]}")
        for method, by_q in summary["aggregates"].items():
            for q, agg in by_q.items():
                if agg["completed_seeds"] != harness.CELL_SEEDS:
                    problems.append(f"{method} Q={q}: {agg['completed_seeds']} seeds completed")
        best = summary["aggregates"]["mvsa"]["150"]
        if not (best["mean_rel_error_max"]["max"] < harness.MEAN_TOL and best["std_rel_error_max"]["max"] < harness.STD_TOL):
            problems.append("mvsa Q=150 moments miss the criterion-3 tolerances")
        with open(files["degrees"], newline="", encoding="utf-8") as handle:
            for method, q, seed, name, value in list(csv.reader(handle))[1:]:
                if method != "mvsa":
                    continue
                if name == "basis_size" and int(value) > int(q):
                    problems.append(f"mvsa Q={q} seed {seed}: basis size {value}")
                if name == "condition_number" and not float(value) <= harness.KAPPA:
                    problems.append(f"mvsa Q={q} seed {seed}: condition number {value}")
        with open(files["timing"], newline="", encoding="utf-8") as handle:
            self.mvsa_fit_s += [float(row[4]) for row in list(csv.reader(handle))[1:] if row[0] == "mvsa"]
        # timing.csv is the one wall-clock artifact; the rest must repeat byte for byte
        found = harness.file_digest(*(files[kind] for kind in ("rmse", "moments", "degrees", "summary")))
        if self.digest is None:
            self.digest = found
        elif found != self.digest:
            problems.append("report files differ from the first compare run")
        return problems


def beam_protocol(mv, work: Path, seed: int, seconds: float) -> dict:
    """Untraced run: warm-up, then compare processes for ``seconds``."""
    setup_s = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        build_protocol_inputs(mv, seed)
        setup_s.append(time.perf_counter() - started)
    env = harness.program_env()
    ledger = Ledger()
    warm = harness.run_child(cli_argv(warmup_args(seed, work / "warmup")), work, env, "warmup")
    ledger.record("warm-up compare", status_problems(warm.exit_code, warm.last_json()))
    checker = ProtocolChecker()
    runs = []
    started = time.perf_counter()
    while not runs or harness.room_for(runs[-1].wall_s, started, seconds):
        finished = harness.run_child(cli_argv(compare_args(seed, work / "compare")), work, env, f"compare{len(runs)}")
        ledger.record("compare", checker.check(finished.exit_code, finished.last_json()))
        runs.append(finished)
    return {
        "setup_s": setup_s,
        "op_s": [run.wall_s for run in runs],
        "peak_rss_mb": max(run.peak_rss_mb for run in runs),
        "ledger": ledger,
        "digests": {"reports": checker.digest},
        "detail": {"protocol_s": harness.summary([run.wall_s for run in runs]), "mvsa_fit_s": harness.summary(checker.mvsa_fit_s)},
    }


def beam_protocol_traced(mv, work: Path, seed: int) -> dict:
    """Traced run: the compare in-process untraced, then traced.

    Process overhead (interpreter start, imports, exit) does not depend on
    the plan, so it is measured on the small warm-up compare, as a process
    and in-process, rather than by a third full run.
    """
    from mvsapce import cli

    ledger = Ledger()
    checker = ProtocolChecker()
    layers = {"cli.import_ms": harness.import_ms(work)}
    small = harness.run_child(cli_argv(warmup_args(seed, work / "small_sub")), work, harness.program_env(), "small")
    ledger.record("small compare", status_problems(small.exit_code, small.last_json()))
    small_s, code, payload = run_in_process(cli, warmup_args(seed, work / "small_plain"))
    ledger.record("in-process small compare", status_problems(code, payload))
    plain_s, code, payload = run_in_process(cli, compare_args(seed, work / "plain"))
    ledger.record("in-process compare", checker.check(code, payload))
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.operation("harness.setup"):
            build_protocol_inputs(mv, seed)
        with tracer.operation("cli.compare"):
            traced_s, code, payload = run_in_process(cli, compare_args(seed, work / "traced"))
    finally:
        tracer.uninstall()
    ledger.record("traced compare", checker.check(code, payload))
    layers.update(tracer.metrics())
    layers["cli.compare.ms"] = 1000.0 * plain_s
    layers["cli.process_overhead_ms"] = 1000.0 * (small.wall_s - small_s)
    layers["trace_overhead_ms"] = 1000.0 * (traced_s - plain_s)
    layers["trace_overhead_pct"] = 100.0 * (traced_s - plain_s) / plain_s
    return {"ledger": ledger, "digests": {"reports": checker.digest}, "layers": layers, "tracer": tracer}
