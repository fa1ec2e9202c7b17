"""``tools/traffic.py`` lists the lines that the workloads never run."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _tool():
    spec = importlib.util.spec_from_file_location(
        "traffic", ROOT / "tools" / "traffic.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_ranges_and_skipped_raise_lines():
    tool = _tool()
    assert tool.ranges([9, 3, 4, 5, 11]) == "3-5, 9, 11"
    assert tool.ranges([]) == ""
    source = ("def f(x):\n"
              "    if x:\n"
              "        raise ValueError(\n"
              "            'no')\n"
              "    return x\n")
    assert tool.executable_lines(source, "f.py") >= {1, 2, 3, 5}
    assert tool.raise_lines(source) == {3, 4}


def test_toy_traffic_reports_lines_that_exist():
    # a fresh process, so the tracer sees the package's first import
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "traffic.py"), "--no-checks"],
        capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stderr == ""
    *rows, total = out.stdout.splitlines()
    modules = sorted((ROOT / "src" / "qprep").glob("*.py"))
    assert [row.split()[1] for row in rows] == [p.name for p in modules]
    counted, reported = 0, {}
    for row, path in zip(rows, modules):
        count, _, *spans = row.replace(",", " ").split()
        text = path.read_text(encoding="utf-8").splitlines()
        lines = [n for span in spans
                 for lo, _, hi in [span.partition("-")]
                 for n in range(int(lo), int(hi or lo) + 1)]
        assert len(lines) == int(count)
        assert all(1 <= n <= len(text) and text[n - 1].strip()
                   for n in lines), path.name
        counted += len(lines)
        reported[path.name] = set(lines)
    assert total.split() == [str(counted), "total"]
    # the package is imported under the tracer, so the lines its import
    # runs are not reported
    cli = (ROOT / "src" / "qprep" / "cli.py").read_text().splitlines()
    assert cli.index("def main():") + 1 not in reported["cli.py"]
