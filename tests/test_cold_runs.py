"""``tools/cold_runs.py`` times commands as fresh processes."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _tool():
    spec = importlib.util.spec_from_file_location(
        "cold_runs", ROOT / "tools" / "cold_runs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _rows(out):
    """``{command: [wall, cpu, rss]}``, each a ``[median, q1, q3]``, of
    tree 0 in the tool's output."""
    header, *rows = out.splitlines()
    assert header.split()[:2] == ["command", "tree"]
    table = {}
    for row in rows:
        name, tree, *values = row.replace("[", " ").replace(",", " ") \
            .replace("]", " ").split()
        assert tree == "0" and len(values) == 9
        table[name] = [[float(v) for v in values[i:i + 3]]
                       for i in range(0, 9, 3)]
    return table


def test_one_cold_estimate_cost_run(capsys):
    tool = _tool()
    assert tool.main(["--runs", "1", "--commands", "estimate-cost"]) == 0
    (name, columns), = _rows(capsys.readouterr().out).items()
    assert name == "estimate-cost"
    for median, q1, q3 in columns:
        # one run: the median and both quartiles are that run
        assert median > 0 and q1 == q3 == median


def test_peak_rss_is_each_process_own():
    # a (2,2) build holds dim-784 matrices; estimate-cost imports no NumPy.
    # A running maximum over all children would give the later, smaller
    # command the build's peak.  The tool runs as its own small process:
    # Linux starts a child's peak RSS at its parent's.
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "cold_runs.py"), "--runs", "1",
         "--commands", "ham-build,estimate-cost"],
        check=True, capture_output=True, text=True, timeout=120).stdout
    table = _rows(out)
    assert table["estimate-cost"][2][0] < table["ham-build"][2][0]


def test_savez_layout_is_read_off_the_mapped_route(tmp_path, capsys):
    import numpy as np

    from qprep import hamiltonian as ham

    a = np.random.default_rng(5).normal(size=(40, 40))
    ham.save_hamiltonian(ham.DenseHamiltonian(a + a.T), tmp_path / "h.npz")
    tool = _tool()
    tool.savez_layout(tmp_path / "h.npz", tmp_path / "old.npz")
    ours = ham.npz_archive(tmp_path / "h.npz")
    theirs = ham.npz_archive(tmp_path / "old.npz")
    assert ours.keys() == theirs.keys()
    for name, array in ours.items():
        assert array.tobytes() == theirs[name].tobytes()
    # a view of the map is read-only; the unaligned matrix is read into an
    # array of its own
    assert not ours["entries"].flags.writeable
    assert theirs["entries"].flags.writeable
    assert tool.main(["--runs", "1", "--commands",
                      "qpe-stats-ham-savez"]) == 0
    assert list(_rows(capsys.readouterr().out)) == ["qpe-stats-ham-savez"]


def test_legacy_layout_drops_the_eigensystem(tmp_path, capsys):
    import numpy as np

    from qprep import hamiltonian as ham

    a = np.random.default_rng(6).normal(size=(30, 30))
    ham.save_hamiltonian(ham.DenseHamiltonian(a + a.T), tmp_path / "h.npz")
    tool = _tool()
    tool.savez_layout(tmp_path / "h.npz", tmp_path / "legacy.npz",
                      drop=("eigenvalues", "eigenvectors"))
    ours = ham.npz_archive(tmp_path / "h.npz")
    legacy = ham.npz_archive(tmp_path / "legacy.npz")
    assert sorted(legacy) == ["basis_labels", "entries"]
    for name, array in legacy.items():
        assert array.tobytes() == ours[name].tobytes()
    assert ham.load_hamiltonian(tmp_path / "legacy.npz").eigen is None
    assert tool.main(["--runs", "1", "--commands",
                      "qpe-stats-ham-legacy"]) == 0
    assert list(_rows(capsys.readouterr().out)) == ["qpe-stats-ham-legacy"]


def test_paper_size_load_builds_its_archive_once(monkeypatch, capsys):
    tool = _tool()
    calls = []

    def run(src, argv, work):
        calls.append(argv)
        return 1.0, 2.0, 3.0

    # the build and the loads are the real commands' argv; no process runs
    monkeypatch.setattr(tool, "run", run)
    assert "qpe-stats-ham-3136" not in tool.DEFAULT
    assert tool.main(["--runs", "2", "--commands",
                      "qpe-stats-ham-3136"]) == 0
    build = [*tool.COMMANDS["ham-build-3136"][:-1], "h33.npz"]
    load = tool.COMMANDS["qpe-stats-ham-3136"]
    assert build[build.index("--na"):build.index("--out")] \
        == ["--na", "3", "--nb", "3"]
    assert load[:3] == ["qpe-stats", "--ham", "h33.npz"]
    assert calls == [build, load, load]
    assert list(_rows(capsys.readouterr().out)) == ["qpe-stats-ham-3136"]


def test_convert_to_sos_expands_the_tree_own_mps(tmp_path, monkeypatch,
                                                 capsys):
    import random

    import numpy as np

    from qprep import states

    import oracles

    tool = _tool()
    build = [*tool.COMMANDS["convert-to-mps"][:-1], "state.npz"]
    load = tool.COMMANDS["convert-to-sos"]
    assert build[:5] == ["convert", "--input", "state.json", "--to", "mps"]
    assert load[:5] == ["convert", "--input", "state.npz", "--to", "sos"]
    # the seeded state round-trips through both commands of this tree
    tool.write_inputs(random.Random(1), tmp_path)
    for argv in (build, load):
        tool.run(ROOT / "src", argv, tmp_path)
    state = states.load_sos(tmp_path / "state.json")
    back = states.load_sos(tmp_path / "back.json")
    assert len(state.terms) == len(back.terms) == tool.SOS_TERMS
    assert max(states.load_mps(tmp_path / "state.npz").bond_dims) == 64
    fid = abs(np.vdot(oracles.sos_to_statevector(state),
                      oracles.sos_to_statevector(back))) ** 2 \
        / (state.norm() * back.norm()) ** 2
    assert fid > 1 - 1e-10
    calls = []

    def run(src, argv, work):
        calls.append(argv)
        return 1.0, 2.0, 3.0

    # the archive is made once per tree, before the timed runs
    monkeypatch.setattr(tool, "run", run)
    assert tool.main(["--runs", "2", "--commands", "convert-to-sos"]) == 0
    assert calls == [build, load, load]
    assert list(_rows(capsys.readouterr().out)) == ["convert-to-sos"]


def test_levels_commands_run_on_the_seeded_levels_file(tmp_path):
    import random

    tool = _tool()
    assert "refine-qetu-levels" in tool.DEFAULT
    tool.write_inputs(random.Random(1), tmp_path)
    for name in ("refine-qetu-levels", "refine-cqpe-levels",
                 "qpe-stats-levels"):
        wall, cpu, rss = tool.run(ROOT / "src", tool.COMMANDS[name], tmp_path)
        assert wall > 0 and cpu > 0 and rss > 0
