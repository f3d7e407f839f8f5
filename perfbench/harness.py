"""Shared pieces of the benchmark: paths, child processes, statistics, checks.

Nothing here imports the program at module load; ``import_program`` puts the
checkout's ``src`` first on ``sys.path`` so the sources under test are the
ones measured, never an installed copy.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = BENCH_DIR / ".work"
RESULTS_DIR = BENCH_DIR / "results"

#: Problem constants shared by every workload (the beam protocol of the
#: acceptance suite: kappa 100, 100k-sample Monte-Carlo reference).
KAPPA = 100.0
N_INPUTS = 20
TRAINING_SIZES = (50, 100, 150)
CELL_SEEDS = 10
MCS_SAMPLES = 100_000
MCS_SEED = 123456789
#: Criterion-3 moment tolerances for Q = 150 fits against the reference.
MEAN_TOL = 0.005
STD_TOL = 0.05

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class SetupError(RuntimeError):
    """The benchmark cannot run in this checkout or environment."""


def import_program():
    """Import ``mvsapce`` from the checkout's ``src`` directory."""
    package = SRC / "mvsapce"
    if not (package / "__init__.py").is_file():
        raise SetupError(f"program sources not found: {package}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import mvsapce

    if Path(mvsapce.__file__).resolve().parent != package.resolve():
        raise SetupError(f"imported mvsapce from {mvsapce.__file__}, not from {package}")
    return mvsapce


def program_env(**extra) -> dict:
    """Environment for a child that imports the program from ``src``."""
    env = dict(os.environ)
    previous = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + previous if previous else "")
    env.update(extra)
    return env


def cell_seeds(seed: int) -> list[int]:
    """The ten cell seeds a benchmark seed stands for."""
    return [CELL_SEEDS * seed + j for j in range(CELL_SEEDS)]


# -- child processes ------------------------------------------------------------


@dataclass(frozen=True)
class Finished:
    wall_s: float
    exit_code: int
    peak_rss_mb: float
    stdout: str
    stderr: str

    def last_json(self) -> dict | None:
        lines = self.stdout.strip().splitlines()
        try:
            payload = json.loads(lines[-1]) if lines else None
        except json.JSONDecodeError:
            return None
        return payload if isinstance(payload, dict) else None


def run_child(args: list[str], work: Path, env: dict, stem: str) -> Finished:
    """Run ``python3 <args>`` to completion; wall time and its own peak RSS.

    The peak RSS is the child's ``VmHWM``, recorded by ``peakrss.py`` at its
    exit (see there why not ``ru_maxrss``).  Should the child die before it
    can record it, ``ru_maxrss`` from ``os.wait4`` stands in: an upper bound.
    """
    out_path = work / f"{stem}.stdout"
    err_path = work / f"{stem}.stderr"
    peak_path = work / f"{stem}.peak_kib"
    peak_path.unlink(missing_ok=True)
    argv = [sys.executable, str(BENCH_DIR / "peakrss.py"), str(peak_path), *args]
    with out_path.open("wb") as out, err_path.open("wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=work, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    try:
        peak_kib = int(peak_path.read_text(encoding="ascii"))
    except (OSError, ValueError):
        peak_kib = usage.ru_maxrss
    return Finished(
        wall_s=wall,
        exit_code=proc.returncode,
        peak_rss_mb=peak_kib / 1024.0,
        stdout=out_path.read_text(encoding="utf-8", errors="replace"),
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
    )


def import_ms(work: Path, repeats: int = 3) -> float:
    """Median wall time of a fresh ``import mvsapce.cli``, in ms."""
    code = "import time; t = time.perf_counter(); import mvsapce.cli; print(time.perf_counter() - t)"
    times = []
    for i in range(repeats):
        done = run_child(["-c", code], work, program_env(), f"import{i}")
        if done.exit_code != 0:
            raise SetupError(f"import mvsapce.cli failed: {done.stderr.strip()}")
        times.append(1000.0 * float(done.stdout.strip()))
    return statistics.median(times)


# -- statistics -----------------------------------------------------------------


def room_for(last_s: float, started: float, seconds: float) -> bool:
    """Whether one more operation as long as the last would end within ``seconds``.

    Closed loops start another operation only then, so a run measures for
    at most about ``seconds`` however long one operation takes.
    """
    return time.perf_counter() - started + last_s <= seconds


def summary(values) -> dict:
    """Median, quartiles, extremes and sample count of a timing series."""
    values = [float(v) for v in values]
    if not values:
        return {"n": 0}
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {
        "n": len(values),
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "min": min(values),
        "max": max(values),
    }


def tail(values) -> tuple[float, int]:
    """The highest whole percentile with at least ten samples beyond it.

    Nearest-rank value and the percentile used.  A series of ten or fewer
    samples has no such percentile; its slowest sample is reported as
    percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100
    percentile = (100 * (n - 10)) // n
    rank = -(-percentile * n // 100)
    return ordered[rank - 1], percentile


# -- digests and checks -----------------------------------------------------------


def digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode("utf-8")).hexdigest()[:16]


def file_digest(*paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(Path(path).read_bytes())
    return h.hexdigest()[:16]


def _backward_closed(index, members) -> bool:
    return all(
        index[:n] + (k - 1,) + index[n + 1:] in members for n, k in enumerate(index) if k
    )


def replay_is_downward_closed(initial, added) -> bool:
    """Replay an expansion trace; every step must keep the set downward-closed."""
    members = {tuple(index) for index in initial}
    if not all(_backward_closed(index, members) for index in members):
        return False
    for index in added:
        index = tuple(index)
        if index in members or not _backward_closed(index, members):
            return False
        members.add(index)
    return True


def moment_errors(basis, coefficients, reference) -> tuple[float, float]:
    """Max relative mean and std errors of an orthonormal expansion.

    Reads the moments straight off the coefficients (constant term is the
    mean, the other squared coefficients sum to the variance), independent
    of the program's own post-processing.
    """
    import numpy as np

    coefficients = np.asarray(coefficients, dtype=float)
    zero = (0,) * len(basis[0])
    is_zero = np.array([tuple(index) == zero for index in basis])
    mean = coefficients[is_zero].sum(axis=0)
    std = np.sqrt((coefficients[~is_zero] ** 2).sum(axis=0))
    ref_mean = np.asarray(reference["mean"])
    ref_std = np.asarray(reference["std"])
    return (
        float(np.max(np.abs(mean - ref_mean) / np.abs(ref_mean))),
        float(np.max(np.abs(std - ref_std) / np.abs(ref_std))),
    )


def fit_failures(basis, coefficients, condition_number, q, reference=None, trace=None) -> list[str]:
    """Output checks of one adaptive fit; an empty list means it passed.

    K <= Q, cond <= kappa, a downward-closed trace replay when a trace is
    given, and at Q = 150 the criterion-3 moment tolerances.
    """
    problems = []
    if len(basis) > q:
        problems.append(f"basis size {len(basis)} exceeds Q={q}")
    if not condition_number <= KAPPA:
        problems.append(f"condition number {condition_number} exceeds kappa={KAPPA}")
    if trace is not None and not replay_is_downward_closed(trace[0], trace[1]):
        problems.append("expansion trace replay is not downward-closed")
    if reference is not None and q == 150:
        mean_err, std_err = moment_errors(basis, coefficients, reference)
        if not (mean_err < MEAN_TOL and std_err < STD_TOL):
            problems.append(f"moments off the reference: mean {mean_err:.3g}, std {std_err:.3g}")
    return problems


def mc_reference(mv, response_dim: int) -> dict:
    """The program's own 100k-sample Monte-Carlo moment reference.

    Cached under the work directory per response size and source digest,
    since it costs seconds and is the same for every run of one checkout.
    """
    cache = WORK_ROOT / f"mc-reference-M{response_dim}-{source_digest()}.json"
    if cache.is_file():
        return json.loads(cache.read_text(encoding="utf-8"))
    config = mv.BeamConfig(response_dim=response_dim)
    report = mv.monte_carlo_reference(
        config.response, config.distribution_spec(), MCS_SAMPLES, MCS_SEED, vectorized=True
    )
    reference = {"mean": report.mean.tolist(), "std": report.std.tolist()}
    WORK_ROOT.mkdir(parents=True, exist_ok=True)
    partial = cache.with_suffix(f".{os.getpid()}.tmp")
    partial.write_text(json.dumps(reference), encoding="utf-8")
    partial.replace(cache)
    return reference


# -- numeric environment ----------------------------------------------------------


def _openblas_call(prefixes: tuple[str, ...], restype):
    """Call the first exported OpenBLAS query among ``prefixes``; None if absent."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            libs = {line.split()[-1] for line in handle if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for suffix in ("64_", "_64_", ""):
            for prefix in prefixes:
                fn = getattr(lib, prefix + suffix, None)
                if fn is not None:
                    fn.restype = restype
                    fn.argtypes = []
                    return fn()
    return None


def numeric_environment() -> dict:
    """nproc, BLAS, thread setting, numpy/Python versions, source revision."""
    import numpy as np

    build = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = _openblas_call(("scipy_openblas_get_num_threads", "openblas_get_num_threads"), ctypes.c_int)
    config = _openblas_call(("scipy_openblas_get_config", "openblas_get_config"), ctypes.c_char_p)
    env = {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": build.get("name"),
        "blas_version": build.get("version"),
        "blas_config": config.decode() if config else None,
        "blas_threads": threads,
        "blas_thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
        "numpy": np.__version__,
        "python": platform.python_version(),
        "source_sha256": source_digest(),
    }
    env.update(git_state())
    return env


def check_threads(env: dict) -> None:
    """Fail fast when BLAS would run more threads than there are CPUs."""
    requested = [int(v) for v in env["blas_thread_env"].values() if v and v.strip().isdigit()]
    threads = max([env["blas_threads"] or 0, *requested])
    if threads > env["nproc"]:
        raise SetupError(f"BLAS would use {threads} threads on {env['nproc']} CPUs")


def cpu_ticks() -> list[int] | None:
    """The machine-wide CPU time counters (user, nice, system, idle, ..., steal)."""
    try:
        with open("/proc/stat", encoding="utf-8") as handle:
            return [int(v) for v in handle.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def steal_pct(before, after) -> float | None:
    """Share of CPU time the hypervisor took away between two readings.

    On a shared virtual machine this explains most run-to-run drift in the
    wall times, so every record carries it.
    """
    if not before or not after or len(before) < 8:
        return None
    delta = [b - a for a, b in zip(before, after)]
    return 100.0 * delta[7] / sum(delta) if sum(delta) else None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode("utf-8"))
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_state() -> dict:
    """Revision and dirty flag; null outside a git checkout."""
    if not (ROOT / ".git").exists():
        return {"git_revision": None, "git_dirty": None}

    def git(*args):
        return subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()

    try:
        return {
            "git_revision": git("rev-parse", "HEAD"),
            "git_dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
        }
    except (OSError, subprocess.CalledProcessError):
        return {"git_revision": None, "git_dirty": None}

