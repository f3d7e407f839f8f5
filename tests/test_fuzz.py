"""Mutation fuzzing of the CLI's inputs: a spec or model file with one or two of its values replaced, a training
or test CSV with one byte mutation, or a compare run with one to three of its flags changed either works or is
refused with exit 2 or 3 and one stderr line, and no warning is raised on the way.

Each test runs 50 derandomized examples; ``--hypothesis-profile fuzz`` (registered in conftest.py) runs the
profile's larger fixed-seed count instead."""

import contextlib
import io
import json
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvsapce import cli
from mvsapce.mvsa_engine import load_model

FUZZ = settings() if settings.get_current_profile_name() == "fuzz" else settings(
    max_examples=50, deadline=None, derandomize=True
)

#: The JSON texts a value is replaced by: null, strings, booleans, integers around the degree cap, a fraction,
#: the float extremes, a literal that overflows to infinity, NaN and the infinities, and empty containers.
POOL = [
    "null", '""', '"text"', "true", "false", "0", "-1", "30", "31", "1.5",
    "1e308", "-1e308", "5e-324", "1e400", "NaN", "Infinity", "-Infinity", "[]", "{}",
]

#: The bytes a CSV mutation inserts: separators, a quote, a NUL, a byte that is not UTF-8, and the POOL tokens.
CSV_POOL = [b",", b"\n", b"\r\n", b"\r", b" ", b'"', b"\x00", b"\xff"] + [token.encode() for token in POOL]

#: The compare run the flag mutations start from, a few tenths of a second in-process.
COMPARE = {"--Q": "30", "--M": "3", "--seeds": "0", "--test-size": "10", "--mcs-samples": "200",
           "--methods": "mvsa,td:1"}

#: Counts within sys.maxsize whose arrays no machine can hold.
UNHOLDABLE = ["100000000000000", "9223372036854775807"]

#: The values a compare flag mutation sets: counts and lists, each valid one small, or unholdable, or past
#: sys.maxsize; methods, with degrees past what can be held or past the cap; and malformed text.
FLAG_POOL = [
    "", " ", "0", "1", "2", "-1", "3_0", "+3", "1.5", "1e3", "nan", "inf", "abc", "30", "5,30", "30,30", "0,1",
    *UNHOLDABLE, "99999999999999999999",
    "mvsa", "td:0", "td:1", "td:2", "td:02", "td:30", "td:31", "td: 1", "mvsa,mvsa", "mvsa,td:2", "mvsa,td:30",
]

#: The flags a mutation sets or drops: the base run's and the optional ones.
FLAGS = list(COMPARE) + ["--kappa", "--dummy-count", "--mcs-seed", "--out-dir"]


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
@FUZZ
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
@FUZZ
def test_mutated_model_predicts_and_reports_or_is_refused(files, data):
    root, documents = files
    (root / "mutated_model.json").write_text(mutated(documents["model"], data.draw(mutations(documents["model"]))))
    for argv in (("predict", "--model", root / "mutated_model.json", "--data", root / "test.csv",
                  "--out", root / "mutated_predictions.csv"),
                 ("uq", "--model", root / "mutated_model.json", "--out-prefix", f"{root}/mutated_uq_")):
        assert_works_or_refuses(*run(*argv))


def byte_mutations(size):
    """Strategy: one mutation of a ``size``-byte file, as (kind, position, argument): flip a byte by xor with 1-255,
    insert a CSV_POOL entry, delete a run of 1-64 bytes, or truncate.  Positions are drawn uniformly, where
    integers would cluster in the header."""
    position = st.sampled_from(range(size))
    return st.one_of(
        st.tuples(st.just("flip"), position, st.integers(1, 255)),
        st.tuples(st.just("insert"), position, st.sampled_from(CSV_POOL)),
        st.tuples(st.just("delete"), position, st.integers(1, 64)),
        st.tuples(st.just("truncate"), position, st.none()),
    )


def mutated_bytes(content: bytes, mutation) -> bytes:
    """``content`` with one mutation of ``byte_mutations`` applied."""
    kind, at, argument = mutation
    if kind == "flip":
        return content[:at] + bytes([content[at] ^ argument]) + content[at + 1:]
    if kind == "insert":
        return content[:at] + argument + content[at:]
    if kind == "delete":
        return content[:at] + content[at + argument:]
    return content[:at]


@given(data=st.data())
@FUZZ
def test_mutated_training_csv_fits_or_is_refused(files, data):
    root, _ = files
    content = (root / "train.csv").read_bytes()
    (root / "mutated_train.csv").write_bytes(mutated_bytes(content, data.draw(byte_mutations(len(content)))))
    out = root / "mutated_train_model.json"
    code, lines = run("fit", "--data", root / "mutated_train.csv", "--inputs", 20, "--outputs", 3,
                      "--dist", root / "dist.json", "--out", out)
    assert_works_or_refuses(code, lines)
    if code == 0:
        load_model(out)


@given(data=st.data())
@FUZZ
def test_mutated_test_csv_predicts_or_is_refused(files, data):
    root, _ = files
    content = (root / "test.csv").read_bytes()
    (root / "mutated_test.csv").write_bytes(mutated_bytes(content, data.draw(byte_mutations(len(content)))))
    assert_works_or_refuses(*run("predict", "--model", root / "model.json", "--data", root / "mutated_test.csv",
                                 "--out", root / "mutated_test_predictions.csv"))


def flag_changes():
    """Strategy: one to three distinct flags of FLAGS, each set to a FLAG_POOL value or dropped (None).

    A Monte-Carlo reference is drawn a block at a time, so one of 1e14 or more samples allocates nothing large and
    runs for days rather than being refused, the README's case of a count that allocates but runs too long: the
    UNHOLDABLE values are left out for --mcs-samples."""
    values = {flag: FLAG_POOL + [None] for flag in FLAGS}
    values["--mcs-samples"] = [value for value in values["--mcs-samples"] if value not in UNHOLDABLE]
    flags = st.lists(st.sampled_from(FLAGS), min_size=1, max_size=3, unique=True)
    return flags.flatmap(lambda names: st.tuples(*(st.tuples(st.just(n), st.sampled_from(values[n])) for n in names)))


@given(data=st.data())
@FUZZ
def test_mutated_compare_flags_run_or_are_refused(tmp_path_factory, data):
    # Each example writes below a directory of its own; a mutated --out-dir names a path inside it.
    root = tmp_path_factory.mktemp("compare")
    flags = dict(COMPARE, **{"--out-dir": f"{root}/out"})
    for flag, value in data.draw(flag_changes()):
        if value is None:
            flags.pop(flag, None)
        else:
            flags[flag] = f"{root}/{value}" if flag == "--out-dir" else value
    assert_works_or_refuses(*run("compare", *[part for item in flags.items() for part in item]))


def test_spec_whose_design_columns_overflow_fits_without_a_warning(files):
    # A normal law of std 1e-155 for x1 makes its degree-1 column about 1e154, whose squared norm overflows.
    root, documents = files
    spec = json.loads(json.dumps(documents["dist"]))
    spec[0] = {"kind": "normal", "params": [0.0, 1e-155]}
    (root / "tiny_dist.json").write_text(json.dumps(spec))
    assert run("fit", "--data", root / "train.csv", "--inputs", 20, "--outputs", 3,
               "--dist", root / "tiny_dist.json", "--out", root / "tiny_model.json") == (0, [])
