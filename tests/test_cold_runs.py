"""``tools/cold_runs.py`` times commands as fresh processes."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _tool():
    spec = importlib.util.spec_from_file_location(
        "cold_runs", ROOT / "tools" / "cold_runs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_cold_estimate_cost_run(capsys):
    tool = _tool()
    assert tool.main(["--runs", "1", "--commands", "estimate-cost"]) == 0
    header, row = capsys.readouterr().out.splitlines()
    assert header.split()[:2] == ["command", "tree"]
    name, tree, wall, *rest = row.replace("[", " ").replace(",", " ") \
        .replace("]", " ").split()
    assert (name, tree) == ("estimate-cost", "0")
    # one run: the median and both quartiles are that run
    assert float(wall) > 0 and rest[:2] == [wall, wall]
    assert float(rest[2]) > 0
