"""The BLAS thread policy of a CLI command.

A command runs on one OpenBLAS thread, and only one-block eigensolves of
order ``hamiltonian._EIGH_PARALLEL_MIN`` and up widen the pool to the
command's full width: ``--threads`` or ``QPREP_THREADS``, capped at the
CPUs the process may run on, or the width found when the command started.
The two spin-flip blocks of a sector never widen it: from order
``hamiltonian._EIGH_PAIR_MIN`` and at a full width of 2 or more they solve
at the same time, one BLAS thread each.  The width found is restored on
every exit path.  The workers are parked (shut down) when a widened block
ends and when ``cli.main`` starts, so none spins after it.
"""

import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import qprep
from qprep import blas, cli, hamiltonian
from qprep.hamiltonian import FciDump, dump_fcidump

needs_openblas = pytest.mark.skipif(
    blas.width() is None, reason="NumPy's OpenBLAS was not found")
needs_shutdown = pytest.mark.skipif(
    blas.width() is None or blas._openblas()[2] is None,
    reason="NumPy's OpenBLAS has no blas_thread_shutdown_")
needs_two_cpus = pytest.mark.skipif(
    blas._cpus() < 2, reason="a full width of 2 needs two CPUs")

# CPU time an idle 0.2 s may cost with the workers parked; a worker that
# spins after a threaded call costs about 0.1 s of it.
IDLE_CPU_S = 0.025
SRC = str(Path(qprep.__file__).resolve().parents[1])


def _idle_cpu_s():
    start = time.process_time()
    time.sleep(0.2)
    return time.process_time() - start


def _child(code):
    """Run ``code`` in a fresh interpreter on this source tree; its
    standard output."""
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True,
                          timeout=120).stdout


def _integrals(n_orb):
    """Seeded integrals of ``n_orb`` orbitals, the two-body ones 8-fold
    symmetric."""
    rng = np.random.default_rng(41)
    h = rng.normal(size=(n_orb, n_orb))
    g = 0.1 * rng.normal(size=(n_orb,) * 4)
    g = g + g.transpose(1, 0, 2, 3)
    g = g + g.transpose(0, 1, 3, 2)
    g = g + g.transpose(2, 3, 0, 1)
    return FciDump(n_orb, 4, 0, 0.3, h + h.T, g)


def _fcidump(tmp_path, n_orb):
    """:func:`_integrals` as an FCIDUMP file."""
    path = tmp_path / f"h{n_orb}.fcidump"
    path.write_text(dump_fcidump(_integrals(n_orb)))
    return path


def _build(fcidump, na, nb, out, *flags):
    return ["ham", "build", "--fcidump", str(fcidump), "--na", str(na),
            "--nb", str(nb), "--out", str(out), *flags]


@pytest.fixture
def eigh_calls(monkeypatch):
    """``(order, pool width, thread ident, start, end)`` of every
    ``np.linalg.eigh`` call in the order they start, the width read inside
    the call and the times by ``time.perf_counter``."""
    calls = []
    solve = np.linalg.eigh

    def spy(a, *args, **kwargs):
        record = [np.shape(a)[-1], blas.width(), threading.get_ident(),
                  time.perf_counter()]
        calls.append(record)
        try:
            return solve(a, *args, **kwargs)
        finally:
            record.append(time.perf_counter())

    monkeypatch.setattr(np.linalg, "eigh", spy)
    return calls


def _widths(calls):
    """``(order, pool width)`` of each :func:`eigh_calls` record."""
    return [(c[0], c[1]) for c in calls]


@needs_openblas
@pytest.mark.parametrize("found, flags, env, full", [
    (2, (), None, 2),
    (1, (), None, 1),
    pytest.param(1, ("--threads", "2"), None, 2, marks=needs_two_cpus),
    (2, ("--threads", "1"), None, 1),
    pytest.param(1, (), "2", 2, marks=needs_two_cpus),
    (2, ("--threads", "1"), "2", 1)])
def test_only_large_eigensolves_get_the_full_pool(
        tmp_path, capsys, monkeypatch, eigh_calls, found, flags, env, full):
    if env is not None:
        monkeypatch.setenv("QPREP_THREADS", env)
    fcidump = _fcidump(tmp_path, 8)
    with blas.limit(found):
        # (1,3): dim 448, one block; (1,2): dim 224, one block; (2,2): dim
        # 784 as two spin-flip blocks, the even one holding the 28 fixed
        # points and one vector of each of the 378 pairs
        for na, nb in ((1, 3), (1, 2), (2, 2)):
            assert cli.dispatch(_build(fcidump, na, nb, tmp_path / "h.npz",
                                       *flags)) == cli.EXIT_OK
        assert blas.width() == found
    capsys.readouterr()
    assert sorted(_widths(eigh_calls)) \
        == [(224, 1), (378, 1), (406, 1), (448, full)]


def _overlap(one, other):
    """Whether the ``[start, end]`` spans of two :func:`eigh_calls`
    records overlap."""
    return one[3] < other[4] and other[3] < one[4]


@needs_openblas
@pytest.mark.parametrize("found, flags, threads", [
    pytest.param(2, (), 2, marks=needs_two_cpus),
    pytest.param(1, ("--threads", "2"), 2, marks=needs_two_cpus),
    (2, ("--threads", "1"), 1),
    (1, (), 1)])
def test_flip_blocks_solve_side_by_side_on_one_thread_each(
        tmp_path, capsys, eigh_calls, found, flags, threads):
    fcidump = _fcidump(tmp_path, 8)
    with blas.limit(found):
        assert cli.dispatch(_build(fcidump, 2, 2, tmp_path / "h.npz",
                                   *flags)) == cli.EXIT_OK
        assert blas.width() == found
    capsys.readouterr()
    assert sorted(c[0] for c in eigh_calls) == [378, 406]
    assert [c[1] for c in eigh_calls] == [1, 1]
    assert len({c[2] for c in eigh_calls}) == threads
    assert _overlap(*eigh_calls) == (threads == 2)
    # the caller solves the even block
    even = next(c for c in eigh_calls if c[0] == 406)
    assert even[2] == threading.get_ident()


@pytest.mark.parametrize("flags, beside", [
    pytest.param(("--threads", "2"), True, marks=needs_two_cpus),
    (("--threads", "1"), False)])
def test_ham_crcs_run_beside_the_measure_only_from_width_2(
        tmp_path, capsys, monkeypatch, flags, beside):
    from qprep import hamiltonian, spectra

    path = tmp_path / "h.npz"
    assert cli.dispatch(_build(_fcidump(tmp_path, 4), 2, 2, path)) \
        == cli.EXIT_OK
    capsys.readouterr()
    events = []

    def check_crcs(members, check=hamiltonian._check_crcs):
        events.append(("crcs", threading.current_thread().name))
        check(members)
        events.append(("crcs passed", threading.current_thread().name))

    def measure(h, psi, solve=spectra.exact_spectral_measure):
        events.append(("measure", threading.current_thread().name))
        return solve(h, psi)

    monkeypatch.setattr(hamiltonian, "_check_crcs", check_crcs)
    monkeypatch.setattr(spectra, "exact_spectral_measure", measure)
    assert cli.dispatch(["qpe-stats", "--ham", str(path), "--k", "4",
                         *flags]) == cli.EXIT_OK
    main = threading.current_thread().name
    assert ("measure", main) in events
    crc_threads = {name for event, name in events if event != "measure"}
    if beside:
        assert crc_threads == {"qprep-beside"}
    else:
        # one thread, CRC-32s first
        assert crc_threads == {main}
        assert [event for event, _ in events] == ["crcs", "crcs passed",
                                                  "measure"]
    # the helper was joined, after it checked every member
    assert ("crcs passed", "qprep-beside" if beside else main) in events
    assert not any(t.name == "qprep-beside" for t in threading.enumerate())


@needs_openblas
@pytest.mark.parametrize("who, raised", [
    pytest.param("helper", 378, marks=needs_two_cpus), ("caller", 406),
    pytest.param("both", 378, marks=needs_two_cpus)])
def test_a_failed_block_solve_exits_3_and_leaves_no_thread(
        tmp_path, capsys, monkeypatch, who, raised):
    solve = np.linalg.eigh
    main = threading.get_ident()

    def failing(a, *args, **kwargs):
        if who == "both" or (threading.get_ident() == main) == (
                who == "caller"):
            raise np.linalg.LinAlgError("order %d did not converge"
                                        % len(a))
        return solve(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", failing)
    fcidump = _fcidump(tmp_path, 8)
    before = threading.active_count()
    with blas.limit(2):
        code = cli.dispatch(_build(fcidump, 2, 2, tmp_path / "h.npz",
                                   "--threads", "2"))
        assert blas.width() == 2
    assert code == cli.EXIT_NUMERICAL
    # the odd block's (order 378) solves on the helper, and its refusal
    # is the one raised when both fail
    assert "order %d did not converge" % raised in capsys.readouterr().err
    assert threading.active_count() == before
    assert not (tmp_path / "h.npz").exists()


@needs_two_cpus
@pytest.mark.parametrize("fails", [False, True])
def test_beside_runs_its_job_on_a_helper_from_width_2(fails):
    main = threading.get_ident()
    ran = []

    def job():
        assert threading.get_ident() != main
        # finishes well after beside returns: the wait must join it
        time.sleep(0.1)
        ran.append("job")
        if fails:
            raise ValueError("job")
        return "value"

    before = threading.active_count()
    with blas.command(2):
        wait = blas.beside(job)
        assert ran == []
        if fails:
            with pytest.raises(ValueError, match="job"):
                wait()
        else:
            assert wait() == "value"
    assert ran == ["job"]
    assert threading.active_count() == before


@pytest.mark.parametrize("threads", [1, None])
@pytest.mark.parametrize("fails", [False, True])
def test_beside_on_one_thread_runs_its_job_at_once(threads, fails):
    main = threading.get_ident()
    ran = []

    def job():
        assert threading.get_ident() == main
        ran.append("job")
        if fails:
            raise ValueError("job")
        return "value"

    # --threads 1, and outside a command
    with blas.command(threads) if threads else blas.limit(None):
        if fails:
            with pytest.raises(ValueError, match="job"):
                blas.beside(job)
        else:
            wait = blas.beside(job)
            assert ran == ["job"]
            assert wait() == "value"
    assert ran == ["job"]


@needs_openblas
def test_threads_are_capped_at_the_cpus_the_process_may_use(
        tmp_path, capsys, monkeypatch, eigh_calls):
    cpus = len(os.sched_getaffinity(0))
    fcidump = _fcidump(tmp_path, 8)
    with blas.limit(1):
        # one CPU over: a missing cap would start one thread too many
        assert cli.dispatch(_build(fcidump, 1, 3, tmp_path / "h.npz",
                                   "--threads", str(cpus + 1))
                            ) == cli.EXIT_OK
        monkeypatch.setenv("QPREP_THREADS", str(cpus + 1))
        assert cli.dispatch(_build(fcidump, 1, 3, tmp_path / "h.npz")
                            ) == cli.EXIT_OK
        assert blas.width() == 1
    capsys.readouterr()
    assert _widths(eigh_calls) == [(448, cpus)] * 2


@needs_openblas
def test_outside_a_command_eigh_keeps_the_width_it_finds(eigh_calls):
    n = hamiltonian._EIGH_PARALLEL_MIN
    a = np.random.default_rng(5).normal(size=(n, n))
    for found in (1, 2):
        with blas.limit(found):
            hamiltonian.DenseHamiltonian(a + a.T).eigensystem()
            with blas.full_pool():
                assert blas.width() == found
            # the two flip blocks, one after the other on this thread,
            # the odd one first
            hamiltonian.build_ci_matrix(_integrals(8), 2, 2).eigensystem()
            assert blas.beside(lambda: "job")() == "job"
    assert [tuple(c[:3]) for c in eigh_calls] \
        == [(order, found, threading.get_ident()) for found in (1, 2)
            for order in (n, 378, 406)]
    assert not _overlap(*eigh_calls[1:3]) and not _overlap(*eigh_calls[4:])


@needs_openblas
@pytest.mark.parametrize("found", [1, 2])
def test_width_is_restored_on_every_exit(tmp_path, capsys, monkeypatch,
                                         found):
    fcidump = _fcidump(tmp_path, 4)
    cases = [
        (cli.EXIT_OK, _build(fcidump, 2, 2, tmp_path / "h.npz")),
        (cli.EXIT_OK, _build(fcidump, 2, 2, tmp_path / "h.npz",
                             "--threads", "3")),
        (cli.EXIT_USAGE, _build(fcidump, 2, 2, tmp_path / "h.npz",
                                "--threads", "0")),
        (cli.EXIT_INPUT, _build(tmp_path / "missing", 2, 2,
                                tmp_path / "h.npz", "--threads", "2")),
        (cli.EXIT_NUMERICAL, _build(fcidump, 2, 2, tmp_path / "h.npz",
                                    "--dim-cap", "5")),
    ]
    monkeypatch.setattr(blas, "_parked", False)
    # first as a process that never parked, then with the workers parked
    for parked in (False, True):
        if parked:
            blas.park()
        with blas.limit(found):
            for code, argv in cases:
                assert cli.dispatch(argv) == code, argv
                assert blas.width() == found, argv
            monkeypatch.setenv("QPREP_THREADS", "lots")
            assert cli.dispatch(cases[0][1]) == cli.EXIT_INPUT
            assert blas.width() == found
            monkeypatch.delenv("QPREP_THREADS")
    capsys.readouterr()


@needs_openblas
def test_small_block_builds_do_not_depend_on_the_pool_found(tmp_path,
                                                            capsys):
    # (2,2) of 7 orbitals: two flip blocks of order 231 and 210; (2,2) of
    # 8: two of order 406 and 378; (1,2) of 8: one block of order 224.  Each
    # solves on one thread whatever the width the command starts from (the
    # flip blocks one after the other at width 1, side by side at 2), so
    # the files match to the byte.
    files = {}
    for found in (1, 2):
        for n_orb, na, nb in ((7, 2, 2), (8, 2, 2), (8, 1, 2)):
            out = tmp_path / f"{n_orb}-{na}{nb}-{found}.npz"
            with blas.limit(found):
                assert cli.dispatch(_build(_fcidump(tmp_path, n_orb), na, nb,
                                           out)) == cli.EXIT_OK
            files.setdefault((n_orb, na, nb), []).append(out.read_bytes())
    capsys.readouterr()
    for key, (narrow, wide) in files.items():
        assert narrow == wide, key


def test_dispatch_does_not_export_thread_variables(tmp_path, capsys,
                                                   monkeypatch):
    names = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS")
    for name in names:
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv("QPREP_THREADS", "1")
    argv = _build(_fcidump(tmp_path, 4), 2, 1, tmp_path / "h.npz")
    assert cli.dispatch([*argv, "--threads", "1"]) == cli.EXIT_OK
    assert cli.dispatch(argv) == cli.EXIT_OK
    capsys.readouterr()
    assert not [name for name in names if name in os.environ]


def test_without_openblas_every_call_is_a_no_op(monkeypatch):
    monkeypatch.setattr(blas, "_openblas", lambda: None)
    assert blas.width() is None
    with blas.command(2):
        with blas.full_pool():
            with blas.limit(1):
                assert blas.width() is None


@needs_shutdown
def test_no_worker_spins_after_a_wide_build(tmp_path, capsys, monkeypatch,
                                            eigh_calls):
    monkeypatch.setattr(blas, "_parked", False)
    fcidump = _fcidump(tmp_path, 8)
    with blas.limit(2):
        for out in ("a.npz", "b.npz"):
            # (1,3): one block of order 448
            assert cli.dispatch(_build(fcidump, 1, 3,
                                       tmp_path / out)) == cli.EXIT_OK
            assert _idle_cpu_s() < IDLE_CPU_S
            assert blas.width() == 2
    capsys.readouterr()
    # the second build, started with the workers parked, still solves on
    # the full pool
    assert _widths(eigh_calls) == [(448, 2)] * 2
    assert (tmp_path / "a.npz").read_bytes() \
        == (tmp_path / "b.npz").read_bytes()


@needs_openblas
def test_a_process_that_never_widens_never_parks(tmp_path, capsys,
                                                 monkeypatch):
    parks = []
    monkeypatch.setattr(blas, "_parked", False)
    monkeypatch.setattr(blas, "park", lambda: parks.append(1))
    fcidump = _fcidump(tmp_path, 8)
    matrix = tmp_path / "h.npz"
    with blas.limit(2):
        # (1,2): dim 224, one block below the full-pool order; (2,2): two
        # flip blocks, solved side by side without widening the pool
        assert cli.dispatch(_build(fcidump, 1, 2, matrix)) == cli.EXIT_OK
        assert cli.dispatch(_build(fcidump, 2, 2, tmp_path / "h22.npz")
                            ) == cli.EXIT_OK
        assert cli.dispatch(["qpe-stats", "--ham", str(matrix), "--k",
                             "4"]) == cli.EXIT_OK
    capsys.readouterr()
    assert parks == []


@needs_shutdown
def test_main_parks_the_workers_the_library_load_starts():
    spent = _child(
        "import sys, time\n"
        "from qprep import cli\n"
        "sys.argv = ['qprep', 'estimate-cost', '--n-spatial', '10',\n"
        "            '--d-values', '16', '--chi-values', '4']\n"
        "try:\n"
        "    cli.main()\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code\n"
        "start = time.process_time()\n"
        "time.sleep(0.2)\n"
        "print(time.process_time() - start)\n")
    assert float(spent.split()[-1]) < IDLE_CPU_S


@needs_openblas
def test_without_the_shutdown_symbol_widths_are_unchanged(
        tmp_path, capsys, monkeypatch, eigh_calls):
    get, put, _ = blas._openblas()
    monkeypatch.setattr(blas, "_openblas", lambda: (get, put, None))
    monkeypatch.setattr(blas, "_parked", False)
    blas.park()
    assert not blas._parked
    fcidump = _fcidump(tmp_path, 8)
    for found in (1, 2):
        with blas.limit(found):
            assert cli.dispatch(_build(fcidump, 1, 3, tmp_path / "h.npz")
                                ) == cli.EXIT_OK
            assert blas.width() == found
    capsys.readouterr()
    assert _widths(eigh_calls) == [(448, 1), (448, 2)]
    assert not blas._parked


@needs_shutdown
def test_park_and_restart_cycles_do_not_grow_the_peak_rss():
    grown = _child(
        "import resource\n"
        "import numpy as np\n"
        "from qprep import blas\n"
        "a = np.random.default_rng(3).normal(size=(400, 400))\n"
        "a = a + a.T\n"
        "def cycle():\n"
        "    with blas.command(2), blas.full_pool():\n"
        "        np.linalg.eigh(a)\n"
        "cycle()\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "for _ in range(50):\n"
        "    cycle()\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)\n")
    # ru_maxrss is in KiB on Linux
    assert int(grown.split()[-1]) < 5 * 1024
