"""Time README commands as cold processes, one or two source trees side by
side.

Each run is a fresh ``python -m qprep.cli`` process with ``PYTHONPATH`` at
one tree's ``src``, so it pays the imports and the BLAS start-up that every
command line pays.  For each command the trees alternate, run after run,
so drift in the host's speed falls on both alike.  The inputs (an
8-orbital FCIDUMP, a levels file, determinant bitstrings, a 64-determinant
SOS state on 12 spin orbitals, the dim-784 matrix of the FCIDUMP's (2,2)
sector and the MPS of the SOS state, not timed) come from ``--seed``;
each tree runs in a directory of its own, from a copy of its ``src``
without ``__pycache__``, and its own ``ham build`` writes that matrix
there, so each tree loads the archive layout it writes (the block layout,
where the tree stores a balanced sector's eigensystem as its two spin-flip
blocks).  ``qpe-stats-ham-savez`` loads the dense layout, that archive's
matrix, labels and dense eigensystem written by ``numpy.savez`` (stored
and unaligned) as older qprep versions wrote them, by a short script
running on the tree itself.  ``qpe-stats-ham-legacy`` loads the archive
rewritten member by member by ``zipfile`` in that layout, without the
eigensystem members of either layout, as qprep wrote archives before it
stored them, so the command pays the one-block eigensolve of order 784.
In the same way
each tree's own ``convert --to mps`` writes the MPS archive (bond
dimensions up to 64) that ``convert-to-sos`` expands.

    python tools/cold_runs.py --src ../parent/src --src src --runs 10

prints, per command and tree, the median and quartiles of the wall time
and of the child's CPU time (user + system) in ms, and of the child's
peak resident set size in MB (each process's own, from ``os.wait4``; Linux
starts it at this tool's own peak, about 15 MB).  Two commands at the
paper's size run only when named in ``--commands``: ``ham-build-3136``
builds the (3,3) sector of the same FCIDUMP (dim 3136, flip blocks of
order 1540 and 1596), and ``qpe-stats-ham-3136`` loads that matrix (a
158 MB archive, which each tree's own ``ham build`` writes once, not
timed).  Standard library only.
"""

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import zipfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
N_ORB = 8
# the SOS state: half-filled determinants over SOS_SITES spatial orbitals
SOS_SITES = 6
SOS_TERMS = 64

COMMANDS = {
    "estimate-cost": ["estimate-cost", "--n-spatial", "100", "--d-values",
                      "1024,4096", "--chi-values", "16,64"],
    "qpe-stats-gaussian": ["qpe-stats", "--gaussian", "0.06", "0.02",
                           "--k", "6"],
    "qpe-stats-levels": ["qpe-stats", "--levels", "levels.csv", "--k", "6"],
    "qpe-stats-ham": ["qpe-stats", "--ham", "h22.npz", "--k", "6"],
    "qpe-stats-ham-savez": ["qpe-stats", "--ham", "h22-savez.npz", "--k",
                            "6"],
    "qpe-stats-ham-legacy": ["qpe-stats", "--ham", "h22-legacy.npz", "--k",
                             "6"],
    "compress": ["compress", "--input", "dets.txt"],
    "refine-cqpe-levels": ["refine", "cqpe", "--levels", "levels.csv", "--k",
                           "6", "--accept", "3"],
    "refine-qetu-levels": ["refine", "qetu", "--levels", "levels.csv",
                           "--el", "0.0", "--eu", "0.3"],
    "refine-case-study": ["refine", "case-study"],
    "ham-build": ["ham", "build", "--fcidump", "h8.fcidump", "--na", "2",
                  "--nb", "2", "--out", "built.npz"],
    "ham-build-3136": ["ham", "build", "--fcidump", "h8.fcidump", "--na",
                       "3", "--nb", "3", "--out", "built.npz"],
    "convert-to-mps": ["convert", "--input", "state.json", "--to", "mps",
                       "--out", "converted.npz"],
    "convert-to-sos": ["convert", "--input", "state.npz", "--to", "sos",
                       "--out", "back.json"],
    "qpe-stats-ham-3136": ["qpe-stats", "--ham", "h33.npz", "--k", "6"],
}
# the archive each command loads, and the command that writes it
ARCHIVES = {"qpe-stats-ham": ("h22.npz", "ham-build"),
            "qpe-stats-ham-savez": ("h22.npz", "ham-build"),
            "qpe-stats-ham-legacy": ("h22.npz", "ham-build"),
            "qpe-stats-ham-3136": ("h33.npz", "ham-build-3136"),
            "convert-to-sos": ("state.npz", "convert-to-mps")}
DEFAULT = [name for name in COMMANDS if not name.endswith("-3136")]
# the eigensystem members of the dense and of the block layout
EIGEN_MEMBERS = ("eigenvalues", "eigenvectors", "partner", "sign",
                 "even_eigenvalues", "even_eigenvectors", "odd_eigenvalues",
                 "odd_eigenvectors")
# run on a tree: argv[1]'s archive rewritten as argv[2] in the dense
# layout, by numpy.savez, with the eigensystem of one eigh of the matrix
# (no qprep accessor, so the script runs on any tree)
DENSE_SAVEZ = """import sys
import numpy as np
from qprep.hamiltonian import load_hamiltonian
h = load_hamiltonian(sys.argv[1])
evals, evecs = np.linalg.eigh(h.entries)
np.savez(sys.argv[2], entries=h.entries, basis_labels=h.basis_labels,
         eigenvalues=evals, eigenvectors=evecs)
"""


def write_inputs(rng, work):
    """The seeded input files of :data:`COMMANDS` in ``work``."""
    lines = ["&FCI NORB=%d,NELEC=4,MS2=0,\n&END\n" % N_ORB]
    # one value per index class (p >= q, r >= s, pq >= rs): the parser
    # fills in the eight orders
    pairs = [(p, q) for p in range(1, N_ORB + 1) for q in range(1, p + 1)]
    for i, (p, q) in enumerate(pairs):
        for r, s in pairs[:i + 1]:
            lines.append(" %.16E %d %d %d %d\n"
                         % (rng.gauss(0, 0.1), p, q, r, s))
    for p, q in pairs:
        lines.append(" %.16E %d %d 0 0\n" % (rng.gauss(0, 1), p, q))
    lines.append(" %.16E 0 0 0 0\n" % 0.3)
    (work / "h8.fcidump").write_text("".join(lines))
    levels = sorted(rng.uniform(0.05, 0.95) for _ in range(256))
    (work / "levels.csv").write_text("".join(
        "%r,%r\n" % (e, rng.uniform(0.1, 1.0)) for e in levels))
    dets = set()
    while len(dets) < 128:
        occupied = set(rng.sample(range(60), 15))
        dets.add("".join("1" if i in occupied else "0" for i in range(60)))
    (work / "dets.txt").write_text("\n".join(sorted(dets)) + "\n")
    occs = set()
    while len(occs) < SOS_TERMS:
        occupied = set(rng.sample(range(2 * SOS_SITES), SOS_SITES))
        occs.add("".join("1" if i in occupied else "0"
                         for i in range(2 * SOS_SITES)))
    (work / "state.json").write_text(json.dumps({
        "n_spin_orbitals": 2 * SOS_SITES,
        "terms": [{"re": rng.gauss(0, 1), "im": rng.gauss(0, 1), "occ": occ}
                  for occ in sorted(occs)]}))


def savez_layout(src, dst, drop=()):
    """Rewrite the npz archive ``src`` as ``dst`` the way ``numpy.savez``
    writes each member: stored, through ``open(name, "w",
    force_zip64=True)``, so a zip64 extra field and no padding precede the
    unaligned array data.  The members named in ``drop`` (without
    ``.npy``) are left out."""
    with zipfile.ZipFile(src) as old, zipfile.ZipFile(dst, "w") as new:
        for info in old.infolist():
            if info.filename.removesuffix(".npy") in drop:
                continue
            with new.open(info.filename, "w", force_zip64=True) as member:
                member.write(old.read(info))


def run(src, argv, work):
    """Wall and CPU ms and peak RSS in MB of one cold command."""
    env = dict(os.environ, PYTHONPATH=str(src))
    args = [sys.executable, "-m", "qprep.cli", *argv]
    start = time.perf_counter()
    with subprocess.Popen(args, cwd=work, env=env,
                          stdout=subprocess.DEVNULL) as child:
        # this child's own rusage; RUSAGE_CHILDREN's ru_maxrss is the
        # largest over every child waited for so far
        _, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - start
        child.returncode = os.waitstatus_to_exitcode(status)
    if child.returncode:
        raise subprocess.CalledProcessError(child.returncode, args)
    # ru_maxrss is in KiB on Linux
    return (1e3 * wall, 1e3 * (usage.ru_utime + usage.ru_stime),
            usage.ru_maxrss / 1024)


def _quartiles(values):
    """``(q1, median, q3)``."""
    if len(values) == 1:
        return values * 3
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", action="append", type=Path,
                    help="a tree's src directory; give one or two "
                         "(default: this checkout's)")
    ap.add_argument("--runs", type=int, default=10,
                    help="processes per command and tree")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--commands", default=",".join(DEFAULT),
                    help="comma-separated names from: "
                         + ", ".join(COMMANDS))
    args = ap.parse_args(argv)
    trees = [p.resolve() for p in args.src or [ROOT / "src"]]
    names = args.commands.split(",")
    if not 1 <= len(trees) <= 2 or args.runs < 1 \
            or not set(names) <= set(COMMANDS):
        ap.error("need one or two --src trees, --runs >= 1 and known "
                 "--commands")
    with tempfile.TemporaryDirectory() as tmp:
        works = [Path(tmp) / str(t) for t in range(len(trees))]
        for t, work in enumerate(works):
            # each tree runs from a copy without its __pycache__: with
            # PYTHONDONTWRITEBYTECODE set, a module whose cache in one tree
            # is stale is compiled on every run (three such modules cost
            # about 40 ms and 2.4 MB a run)
            shutil.copytree(trees[t], work / "src",
                            ignore=shutil.ignore_patterns("__pycache__"))
            trees[t] = work / "src"
            write_inputs(random.Random(args.seed), work)
            for archive, build in sorted({ARCHIVES[name] for name in names
                                          if name in ARCHIVES}):
                run(trees[t], [*COMMANDS[build][:-1], archive], work)
            if "qpe-stats-ham-savez" in names:
                subprocess.run([sys.executable, "-c", DENSE_SAVEZ, "h22.npz",
                                "h22-savez.npz"], cwd=work, check=True,
                               env=dict(os.environ, PYTHONPATH=str(trees[t])))
            if "qpe-stats-ham-legacy" in names:
                savez_layout(work / "h22.npz", work / "h22-legacy.npz",
                             drop=EIGEN_MEMBERS)
        print("%-20s %-4s %28s %28s %28s" % (
            "command", "tree", "wall ms: median [q1, q3]",
            "cpu ms: median [q1, q3]", "peak RSS MB: median [q1, q3]"))
        for name in names:
            times = [[] for _ in trees]
            for i in range(args.runs):
                # alternate which tree goes first
                for t in (range(len(trees)) if i % 2 == 0
                          else reversed(range(len(trees)))):
                    times[t].append(run(trees[t], COMMANDS[name],
                                        works[t]))
            for t, samples in enumerate(times):
                row = []
                for column in zip(*samples):
                    q1, med, q3 = _quartiles(column)
                    row.append("%8.1f [%7.1f, %7.1f]" % (med, q1, q3))
                print("%-20s %-4d %28s %28s %28s" % (name, t, *row))
    return 0


if __name__ == "__main__":
    sys.exit(main())
