"""Run a Python program in this process and record this process's peak RSS.

    python3 perfbench/peakrss.py OUT.txt -m module [args...]
    python3 perfbench/peakrss.py OUT.txt script.py [args...]
    python3 perfbench/peakrss.py OUT.txt -c code

The kernel's peak RSS of a child (``ru_maxrss`` from ``wait4``) is at least
the peak of the parent it was forked from, since the high-water mark of the
address space it replaced at ``exec`` is carried over; once the benchmark
process has read a large predictions CSV, every later child would report
that.  ``VmHWM`` in ``/proc/self/status`` covers only the address space
mapped since ``exec``, so this wrapper writes it (in KiB) to OUT.txt when
the program exits.
"""

import atexit
import os
import runpy
import sys


def record_peak(path: str) -> None:
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                with open(path, "w", encoding="ascii") as out:
                    out.write(line.split()[1])
                return


def main() -> None:
    out, *argv = sys.argv[1:]
    atexit.register(record_peak, out)
    if argv[0] == "-c":
        sys.argv = ["-c", *argv[2:]]
        exec(compile(argv[1], "<string>", "exec"), {"__name__": "__main__"})
    elif argv[0] == "-m":
        sys.argv = [argv[1], *argv[2:]]
        sys.path[0] = os.getcwd()  # as ``python -m`` does
        runpy.run_module(argv[1], run_name="__main__", alter_sys=True)
    else:
        sys.argv = argv
        runpy.run_path(argv[0], run_name="__main__")


if __name__ == "__main__":
    main()
