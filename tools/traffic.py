"""List the lines of ``src/qprep`` that real traffic never runs.

Traffic is every command of the three benchmark workloads of
``bench/workloads.py`` (imported read-only, inputs written from ``--seed``
at ``--scale``), run in one process in a temporary directory, and, unless
``--no-checks`` is given, the ten reproduction checks of ``qprep
reproduce``.  A line tracer (``sys.settrace`` and ``threading.settrace``,
so the side-by-side solves count too) records the lines run in the files
of ``src/qprep``, from before the first import of the package.  For each
module the tool then prints the executable lines (those the compiled code
maps an instruction to) that never ran, leaving out the lines of ``raise``
statements: refusals are for the tests to reach, not traffic.

    python tools/traffic.py [--scale toy|full] [--seed N] [--no-checks]

prints one ``count  module  lines`` row per module, the lines as ranges
``a-b``, and the total.  A command that exits non-zero or a check that
fails is reported on stderr, and the exit code is then 1.  Standard
library and NumPy only.
"""

import argparse
import ast
import os
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "qprep"


def executable_lines(source, path):
    """The lines that some instruction of the module's code maps to."""
    lines = set()
    stack = [compile(source, str(path), "exec")]
    while stack:
        code = stack.pop()
        # a module's code starts with an instruction at line 0
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def raise_lines(source):
    """The lines spanned by every ``raise`` statement."""
    return {line for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Raise)
            for line in range(node.lineno, node.end_lineno + 1)}


def ranges(lines):
    """``[3, 4, 5, 9]`` -> ``"3-5, 9"``."""
    out, lines = [], sorted(lines)
    start = prev = None
    for line in lines + [None]:
        if line is not None and prev is not None and line == prev + 1:
            prev = line
            continue
        if start is not None:
            out.append(str(start) if start == prev else f"{start}-{prev}")
        start = prev = line
    return ", ".join(out)


class LineTracer:
    """Lines run, per file of ``src/qprep``, by this process's threads."""

    def __init__(self, paths):
        self.hits = {str(p): set() for p in paths}

    def _call(self, frame, event, arg):
        hits = self.hits.get(frame.f_code.co_filename)
        if hits is None:
            return None

        def line(frame, event, arg):
            if event == "line":
                hits.add(frame.f_lineno)
            return line
        return line

    def __enter__(self):
        threading.settrace(self._call)
        sys.settrace(self._call)
        return self

    def __exit__(self, *exc):
        sys.settrace(None)
        threading.settrace(None)


def run_traffic(scale, seed, checks, work):
    """Run the workloads' commands (and the checks); the failures."""
    import numpy as np

    from workloads import WORKLOADS

    failures = []
    for name, workload in WORKLOADS.items():
        inputs = os.path.join(work, name, "inputs")
        os.makedirs(inputs)
        cmds, _ = workload(np.random.default_rng(seed), inputs, scale)
        out_dir = os.path.join(work, name, "out")
        os.makedirs(out_dir)
        for cmd in cmds:
            code, _ = cmd.execute(out_dir)
            if code != 0:
                failures.append(f"{name}: {cmd.label} exited {code}")
    if checks:
        from qprep import acceptance

        failures += [result.line() for result in
                     (check() for check in acceptance.CHECKS)
                     if not result.passed]
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--scale", choices=("toy", "full"), default="toy")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--no-checks", action="store_true",
                        help="leave out the ten reproduction checks")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    paths = sorted(SRC.glob("*.py"))
    with tempfile.TemporaryDirectory() as work, LineTracer(paths) as tracer:
        failures = run_traffic(args.scale, args.seed, not args.no_checks,
                               work)
    total = 0
    for path in paths:
        source = path.read_text(encoding="utf-8")
        unrun = (executable_lines(source, path) - raise_lines(source)
                 - tracer.hits[str(path)])
        total += len(unrun)
        print("%6d  %-14s %s" % (len(unrun), path.name, ranges(unrun)))
    print("%6d  total" % total)
    for failure in failures:
        print("failed: " + failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
