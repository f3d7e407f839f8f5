"""Benchmark of the mvsapce toolkit: one workload, one run, one JSON result.

    python3 perfbench/run.py --workload beam-fit-m10 --seed 1 --seconds 20 --trace 0

Runs from the root of a checkout and measures the sources under ``src/``.
With ``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json from
an untraced run; with ``--trace 1`` the per-layer metrics from a traced
run.  The last line of standard output is the result object; the line
before it is the full record (numeric environment, timing summaries with
sample counts, digests, failures), also written under perfbench/results/.
Exit code 2 means the benchmark could not run here and printed no result.
See perfbench/README.md for why each workload and metric exists.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

import cliwork
import harness

#: What one timed operation is, per workload (README.md explains why).
OPERATIONS = {
    "beam-fit-m10": "one triple of fit_mvsa calls: Q 50, 100 and 150 of one cell seed",
    "cli-pipeline": "one mvsapce fit -> predict -> uq pipeline (three processes)",
    "beam-protocol": "one mvsapce compare process",
}
DEADLINE_S = 175
SETUP_PROCESSES = 3


def _deadline(signum, frame):
    raise TimeoutError(f"run exceeded {DEADLINE_S} s")


def _terminated(signum, frame):
    # Unwind so that a running child is killed and reaped on the way out.
    raise SystemExit(128 + signum)


def declared_metrics() -> dict:
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def beam_fit(mv, workload: str, args, work: Path) -> dict:
    response_dim = 10
    job = {
        "mode": "loop",
        "seed": args.seed,
        "response_dim": response_dim,
        "seconds": args.seconds,
        "reference": harness.mc_reference(mv, response_dim),
    }
    if args.trace:
        return beam_fit_traced(workload, dict(job, mode="traced"), work, args.seed)
    # Building the inputs takes milliseconds and varies by some 30% from one
    # process to the next, so set-up is timed in several fresh processes.
    setup_s = []
    for i in range(SETUP_PROCESSES):
        setup_s += run_fit_child(dict(job, mode="setup"), work, f"setup{i}", harness.program_env())["setup_s"]
    child = run_fit_child(job, work, "fit", harness.program_env())
    triple_s, fit_s = child["triple_s"], child["fit_s"]
    fit_tail, fit_percentile = harness.tail(fit_s)
    return {
        "attempted": child["attempted"],
        "failures": child["failures"],
        "metrics": {
            "op_ms_p50": 1000.0 * statistics.median(triple_s),
            "ops_per_s": len(triple_s) / sum(triple_s),
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": child["peak_rss_mb"],
        },
        "detail": {
            "operation": OPERATIONS[workload],
            "op_ms": harness.summary([1000.0 * s for s in triple_s]),
            "fit_ms": harness.summary([1000.0 * s for s in fit_s]),
            "fit_ms_tail": 1000.0 * fit_tail,
            "fit_ms_tail_percentile": fit_percentile,
            "fits_per_s": len(fit_s) / sum(fit_s),
            "setup_s": harness.summary(setup_s),
            "digests": {"bases": child["basis_digest"]},
        },
    }


def beam_fit_traced(workload: str, job: dict, work: Path, seed: int) -> dict:
    spans = harness.RESULTS_DIR / f"{workload}-seed{seed}.spans.jsonl"
    child = run_fit_child(dict(job, untraced_pass=True, spans_path=str(spans)), work, "fit", harness.program_env())
    return {
        "attempted": child["attempted"],
        "failures": child["failures"],
        "layers": child["layers"],
        "detail": {"digests": {"bases": child["basis_digest"]}},
    }


def single_thread_solve(mv, work: Path, seed: int) -> dict:
    """The solve's self time at one BLAS thread, on the M = 1000 fits of beam-protocol.

    A traced pass over the protocol's 30 mvsa cells, in a child whose BLAS
    is pinned to one thread before numpy is imported.
    """
    job = {
        "mode": "traced",
        "seed": seed,
        "response_dim": cliwork.RESPONSE_DIM,
        "reference": harness.mc_reference(mv, cliwork.RESPONSE_DIM),
        "untraced_pass": False,
        "spans_path": str(work / "1thread.spans.jsonl"),
    }
    pinned = harness.program_env(**{name: "1" for name in harness.THREAD_VARS})
    return run_fit_child(job, work, "fit1", pinned)


def run_fit_child(job: dict, work: Path, stem: str, env: dict) -> dict:
    job_path, result_path = work / f"{stem}.job.json", work / f"{stem}.result.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    args = [str(harness.BENCH_DIR / "beamfit.py"), str(job_path), str(result_path)]
    finished = harness.run_child(args, work, env, stem)
    if finished.exit_code != 0:
        return {"attempted": 1, "failures": [{"operation": "beam-fit child", "problems": [finished.stderr[-2000:]]}],
                "fit_s": [], "triple_s": [], "setup_s": [], "layers": {}, "basis_digest": None, "peak_rss_mb": finished.peak_rss_mb}
    result = json.loads(result_path.read_text(encoding="utf-8"))
    result["peak_rss_mb"] = finished.peak_rss_mb
    return result


def cli_workload(mv, workload: str, args, work: Path) -> dict:
    if workload == "cli-pipeline":
        reference = harness.mc_reference(mv, cliwork.RESPONSE_DIM)
        if args.trace:
            out = cliwork.cli_pipeline_traced(mv, work, args.seed, reference)
        else:
            out = cliwork.cli_pipeline(mv, work, args.seed, args.seconds, reference)
    elif args.trace:
        out = cliwork.beam_protocol_traced(mv, work, args.seed)
    else:
        out = cliwork.beam_protocol(mv, work, args.seed, args.seconds)
    ledger = out["ledger"]
    result = {"attempted": ledger.attempted, "failures": ledger.failures, "detail": {"digests": out["digests"]}}
    if args.trace:
        out["tracer"].write_spans(harness.RESULTS_DIR / f"{workload}-seed{args.seed}.spans.jsonl")
        result["layers"] = out["layers"]
        if workload == "beam-protocol":
            single = single_thread_solve(mv, work, args.seed)
            result["layers"]["regression.solve.self_ms_1thread"] = single["layers"].get("regression.solve.self_ms", 0)
            result["attempted"] += single["attempted"]
            result["failures"] = result["failures"] + single["failures"]
        return result
    op_s = out["op_s"]
    result["metrics"] = {
        "op_ms_p50": 1000.0 * statistics.median(op_s),
        "ops_per_s": len(op_s) / sum(op_s),
        "setup_s": statistics.median(out["setup_s"]),
        "peak_rss_mb": out["peak_rss_mb"],
    }
    result["detail"].update(out["detail"])
    result["detail"].update({
        "operation": OPERATIONS[workload],
        "op_ms": harness.summary([1000.0 * s for s in op_s]),
        "setup_s": harness.summary(out["setup_s"]),
    })
    return result


def assemble(outcome: dict, declared: dict, trace: bool) -> dict:
    """The result object: exactly the declared metrics of this run kind."""
    failed = len(outcome["failures"])
    attempted = max(outcome["attempted"], 1)
    if trace:
        values = dict(outcome["layers"], fail_ratio=failed / attempted)
        names = declared["per_layer"]
        values = {name: values.get(name, 0) for name in names}
    else:
        names = declared["end_to_end"]
        values = outcome["metrics"]
        missing = set(names) - set(values)
        if missing:
            raise RuntimeError(f"end-to-end metrics not measured: {sorted(missing)}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": names[name]} for name in names},
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(OPERATIONS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or harness.MCS_SEED in harness.cell_seeds(args.seed):
        parser.error(f"--seed {args.seed} is negative or collides with the Monte-Carlo seed")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGALRM, _deadline)
    signal.signal(signal.SIGTERM, _terminated)
    signal.alarm(DEADLINE_S)
    work = harness.WORK_ROOT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        declared = declared_metrics()
        mv = harness.import_program()
        environment = harness.numeric_environment()
        harness.check_threads(environment)
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        harness.RESULTS_DIR.mkdir(parents=True, exist_ok=True)
        started = time.perf_counter()
        cpu_before = harness.cpu_ticks()
        if args.workload.startswith("beam-fit"):
            outcome = beam_fit(mv, args.workload, args, work)
        else:
            outcome = cli_workload(mv, args.workload, args, work)
        result = assemble(outcome, declared, bool(args.trace))
    except (harness.SetupError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"perfbench: cannot run: {exc}", file=sys.stderr)
        return 2
    finally:
        signal.alarm(0)
        shutil.rmtree(work, ignore_errors=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "run_wall_s": time.perf_counter() - started,
        "cpu_steal_pct": harness.steal_pct(cpu_before, harness.cpu_ticks()),
        "environment": environment,
        "failures": outcome["failures"][:20],
        **outcome.get("detail", {}),
        "result": result,
    }
    if args.trace:
        record["layers_all"] = outcome["layers"]
    (harness.RESULTS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8"
    )
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
