"""Mutation fuzzing of the CLI's JSON inputs: a spec or model file with one or two of its values replaced either
works or is refused with exit 2 or 3 and one stderr line, and no warning is raised on the way."""

import contextlib
import io
import json
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvsapce import cli
from mvsapce.mvsa_engine import load_model

#: The JSON texts a value is replaced by: null, strings, booleans, integers around the degree cap, a fraction,
#: the float extremes, a literal that overflows to infinity, NaN and the infinities, and empty containers.
POOL = [
    "null", '""', '"text"', "true", "false", "0", "-1", "30", "31", "1.5",
    "1e308", "-1e308", "5e-324", "1e400", "NaN", "Infinity", "-Infinity", "[]", "{}",
]


def paths(value, path=()):
    """The path of ``value`` and of every value nested in it, as tuples of keys and list positions."""
    yield path
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        yield from paths(item, path + (key,))


def mutated(document, replacements) -> str:
    """JSON text of ``document`` with the value at each path replaced by its raw JSON text."""
    document = json.loads(json.dumps(document))
    marks = {}
    # Deeper paths first, so that a replaced container does not hide a path inside it.
    for path, text in sorted(replacements, key=lambda item: -len(item[0])):
        mark = f"@mutation{len(marks)}@"
        marks[json.dumps(mark)] = text
        if not path:
            document = mark
            continue
        parent = document
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = mark
    text = json.dumps(document)
    for mark, raw in marks.items():
        text = text.replace(mark, raw)
    return text


def run(*argv):
    """(exit code, stderr lines) of ``cli.main(argv)`` in-process, with every warning raised as an error."""
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = cli.main([str(arg) for arg in argv])
    return code, err.getvalue().splitlines()


def assert_works_or_refuses(code, lines):
    assert code in (0, 2, 3), lines
    assert len(lines) == (0 if code == 0 else 1), lines


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A beam training and test CSV, their spec, a model fitted on them, and both files decoded."""
    root = tmp_path_factory.mktemp("fuzz")
    assert run("beam-data", "--M", 3, "--seed", 0, "--train-size", 60, "--test-size", 5, "--prefix", f"{root}/")[0] == 0
    model = root / "model.json"
    fitted = run("fit", "--data", root / "train.csv", "--inputs", 20, "--outputs", 3,
                 "--dist", root / "dist.json", "--out", model)
    assert fitted == (0, [])
    documents = {name: json.loads((root / f"{name}.json").read_text()) for name in ("dist", "model")}
    return root, documents


def mutations(document):
    """Strategy: one or two distinct paths of ``document``, each with a text from POOL."""
    every = list(paths(document))
    return st.lists(st.tuples(st.sampled_from(every), st.sampled_from(POOL)), min_size=1, max_size=2,
                    unique_by=lambda item: item[0])


@given(data=st.data())
@settings(max_examples=50, deadline=None, derandomize=True)
def test_mutated_spec_fits_or_is_refused(files, data):
    root, documents = files
    (root / "mutated_dist.json").write_text(mutated(documents["dist"], data.draw(mutations(documents["dist"]))))
    out = root / "mutated_fit.json"
    code, lines = run("fit", "--data", root / "train.csv", "--inputs", 20, "--outputs", 3,
                      "--dist", root / "mutated_dist.json", "--out", out)
    assert_works_or_refuses(code, lines)
    if code == 0:
        load_model(out)


@given(data=st.data())
@settings(max_examples=50, deadline=None, derandomize=True)
def test_mutated_model_predicts_and_reports_or_is_refused(files, data):
    root, documents = files
    (root / "mutated_model.json").write_text(mutated(documents["model"], data.draw(mutations(documents["model"]))))
    for argv in (("predict", "--model", root / "mutated_model.json", "--data", root / "test.csv",
                  "--out", root / "mutated_predictions.csv"),
                 ("uq", "--model", root / "mutated_model.json", "--out-prefix", f"{root}/mutated_uq_")):
        assert_works_or_refuses(*run(*argv))


def test_spec_whose_design_columns_overflow_fits_without_a_warning(files):
    # A normal law of std 1e-155 for x1 makes its degree-1 column about 1e154, whose squared norm overflows.
    root, documents = files
    spec = json.loads(json.dumps(documents["dist"]))
    spec[0] = {"kind": "normal", "params": [0.0, 1e-155]}
    (root / "tiny_dist.json").write_text(json.dumps(spec))
    assert run("fit", "--data", root / "train.csv", "--inputs", 20, "--outputs", 3,
               "--dist", root / "tiny_dist.json", "--out", root / "tiny_model.json") == (0, [])
