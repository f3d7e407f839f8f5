"""Command-line front end: fit, predict, uq, compare, beam-data.

Exit codes: 0 success, 2 data error, 3 configuration error, 1 internal
error.  Every invocation ends with one JSON diagnostics line on standard
output; human-readable messages go to standard error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict
from pathlib import Path

from .benchmark import (
    BeamConfig,
    ExperimentPlan,
    beam_rows,
    plan_hash,
    run_beam_experiment,
    write_experiment_report,
)
from .errors import ConfigError, DataError
from .multi_index import parse_count, parse_total_degree
from .mvsa_engine import MvsaConfig, fit_mvsa, load_model, predict, save_model
from .polynomial_basis import DistributionSpec
from .regression import (
    load_data_csv,
    load_inputs_csv,
    make_output_dir,
    parse_number,
    read_json_file,
    write_data_csv,
    write_json_file,
    write_responses_csv,
)
from .uq import (
    moments,
    sensitivity_report,
    write_generalized_csv,
    write_moments_csv,
    write_sobol_csv,
)


class _Parser(argparse.ArgumentParser):
    # Flag misuse (unknown flags, bad values, missing required flags) is a
    # configuration error under the exit-code contract, not an argparse
    # usage exit.
    def error(self, message):
        raise ConfigError(message)


def _initial_degree(token: str) -> int:
    """Total degree p of the initial set named by ``--init``: zero (p = 0) or td:<p>."""
    degree = 0 if token == "zero" else parse_total_degree(token)
    if degree is None:
        raise ConfigError(f"--init must be 'zero' or 'td:<p>', got {token!r}")
    return degree


def _count(text: str) -> int:
    """An integer flag's value, by ``parse_count``; a refusal goes through argparse, which names the flag."""
    try:
        return parse_count(text)
    except ConfigError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _int_list(text: str) -> tuple[int, ...]:
    """A comma-separated list flag's values, each by ``_count``."""
    return tuple(_count(part) for part in text.split(",") if part != "")


def _kappa(text: str) -> float:
    """A ``--kappa`` value, read as a data field is (``parse_number``)."""
    try:
        return parse_number(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _cmd_fit(args) -> dict:
    spec = DistributionSpec.from_json(read_json_file(args.dist, "distribution spec"))
    if spec.dim != args.inputs:
        raise DataError(
            f"--inputs {args.inputs} does not match distribution spec with {spec.dim} marginals"
        )
    data = load_data_csv(args.data, args.inputs, args.outputs)
    config = MvsaConfig(kappa=args.kappa, initial_degree=_initial_degree(args.init))
    started = time.perf_counter()
    model = fit_mvsa(data, spec, config)
    fit_seconds = time.perf_counter() - started
    save_model(model, args.out)
    return {
        "command": "fit",
        "model": str(args.out),
        **asdict(model.diagnostics),
        "oversampling_ratio": data.n_samples / model.diagnostics.basis_size,
        "fit_seconds": fit_seconds,
    }


def _cmd_predict(args) -> dict:
    model = load_model(args.model)
    inputs = load_inputs_csv(args.data, model.spec.dim)
    outputs = predict(model, inputs)
    write_responses_csv(args.out, outputs)
    return {
        "command": "predict",
        "rows": int(inputs.shape[0]),
        "outputs": model.n_outputs,
        "out": str(args.out),
    }


def _cmd_uq(args) -> dict:
    model = load_model(args.model)
    moment_report = moments(model)
    sens = sensitivity_report(model)
    files = {name: f"{args.out_prefix}{name}.csv" for name in ("moments", "sobol", "generalized")}
    make_output_dir(Path(files["moments"]).parent)
    write_moments_csv(moment_report, files["moments"])
    write_sobol_csv(sens, files["sobol"])
    write_generalized_csv(sens, files["generalized"])
    return {
        "command": "uq",
        "files": files,
        "outputs": model.n_outputs,
        "zero_variance_outputs": int(sens.zero_variance_outputs.sum()),
        "generalized_defined": sens.generalized_defined,
        "constant_term_present": moment_report.constant_term_present,
    }


def _cmd_compare(args) -> dict:
    config = BeamConfig(response_dim=args.M, dummy_count=args.dummy_count)
    plan = ExperimentPlan(
        training_sizes=args.Q,
        test_size=args.test_size,
        seeds=args.seeds,
        methods=tuple(part for part in args.methods.split(",") if part),
        kappa=args.kappa,
        mcs_samples=args.mcs_samples,
        mcs_seed=args.mcs_seed,
    )
    report = run_beam_experiment(config, plan)
    files = write_experiment_report(report, args.out_dir)
    return {
        "command": "compare",
        "plan_hash": plan_hash(config, plan),
        "cells": len(report.cells),
        "failures": sum(1 for c in report.cells if not c.ok),
        "files": files,
    }


def _cmd_beam_data(args) -> dict:
    config = BeamConfig(response_dim=args.M)
    train = beam_rows(config, args.train_size, args.seed, test=False)
    test = beam_rows(config, args.test_size, args.seed, test=True)
    files = {name: f"{args.prefix}{name}" for name in ("train.csv", "test.csv", "dist.json")}
    make_output_dir(Path(files["dist.json"]).parent)
    write_data_csv(files["train.csv"], train.inputs, train.responses)
    write_data_csv(files["test.csv"], test.inputs, test.responses)
    spec = config.distribution_spec()
    write_json_file(files["dist.json"], spec.to_json())
    return {"command": "beam-data", "files": files, "inputs": spec.dim, "outputs": args.M}


def build_parser() -> _Parser:
    parser = _Parser(prog="mvsapce", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    fit = sub.add_parser("fit", help="fit an adaptive expansion from a CSV data file")
    fit.add_argument("--data", required=True, help="training CSV with header x1..xN,y1..yM")
    fit.add_argument("--inputs", type=_count, required=True, help="number of input columns N")
    fit.add_argument("--outputs", type=_count, required=True, help="number of output columns M")
    fit.add_argument("--dist", required=True, help="distribution spec JSON file")
    fit.add_argument("--kappa", type=_kappa, default=MvsaConfig.kappa)
    fit.add_argument("--init", default="zero", help="initial basis: zero or td:<p>")
    fit.add_argument("--out", required=True, help="output model JSON path")
    fit.set_defaults(handler=_cmd_fit)

    pred = sub.add_parser("predict", help="evaluate a fitted model on new inputs")
    pred.add_argument("--model", required=True)
    pred.add_argument("--data", required=True, help="CSV with columns x1..xN (y columns ignored)")
    pred.add_argument("--out", required=True, help="output CSV with columns y1..yM")
    pred.set_defaults(handler=_cmd_predict)

    uq = sub.add_parser("uq", help="moments and sensitivity reports for a fitted model")
    uq.add_argument("--model", required=True)
    uq.add_argument("--out-prefix", required=True, help="prefix for moments/sobol/generalized CSVs")
    uq.set_defaults(handler=_cmd_uq)

    compare = sub.add_parser("compare", help="compare adaptive and total-degree fits on the beam case")
    compare.add_argument("--Q", type=_int_list, required=True, help="comma-separated training sizes")
    compare.add_argument("--M", type=_count, default=BeamConfig.response_dim, help="response dimension")
    compare.add_argument("--seeds", type=_int_list, required=True, help="comma-separated seed list")
    compare.add_argument(
        "--methods", default=",".join(ExperimentPlan.methods), help="comma-separated methods (mvsa, td:<p>)"
    )
    compare.add_argument("--out-dir", required=True, help="directory for the report files")
    compare.add_argument("--test-size", type=_count, default=ExperimentPlan.test_size)
    compare.add_argument("--mcs-samples", type=_count, default=ExperimentPlan.mcs_samples)
    compare.add_argument("--mcs-seed", type=_count, default=ExperimentPlan.mcs_seed)
    compare.add_argument("--kappa", type=_kappa, default=ExperimentPlan.kappa)
    compare.add_argument("--dummy-count", type=_count, default=BeamConfig.dummy_count)
    compare.set_defaults(handler=_cmd_compare)

    beam = sub.add_parser("beam-data", help="write beam training/test CSVs and their distribution spec")
    beam.add_argument("--M", type=_count, default=100, help="response dimension")
    beam.add_argument("--train-size", type=_count, default=150)
    beam.add_argument("--test-size", type=_count, default=1000)
    beam.add_argument("--seed", type=_count, required=True)
    beam.add_argument("--prefix", default="beam_", help="path prefix of train.csv, test.csv and dist.json")
    beam.set_defaults(handler=_cmd_beam_data)

    return parser


def _fail(kind: str, exc: Exception, code: int) -> int:
    print(f"mvsapce: {kind}: {exc}", file=sys.stderr)
    print(json.dumps({"status": "error", "kind": kind, "error": str(exc), "exit_code": code}))
    return code


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        payload = args.handler(args)
    except DataError as exc:
        return _fail("data error", exc, 2)
    except ConfigError as exc:
        return _fail("configuration error", exc, 3)
    except Exception as exc:  # internal error, but keep the diagnostic contract
        return _fail("internal error", exc, 1)
    print(json.dumps({"status": "ok", **payload}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
