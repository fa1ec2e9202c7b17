"""One fresh benchmark process: import, run batches, check outputs, report.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``.  It first imports qprep and the numpy/scipy modules the commands
use and prints ``ready`` with a host-speed probe taken after them, so the
parent can time set-up; with
``--setup-only`` it stops there.  Otherwise it warms up on the workload at
toy size, writes the full inputs from the seed and runs ``--batches``
batches of the command list, each command starting after the previous one
returned and after a host-speed probe.  Each batch's outputs are checked
after its timed region and then deleted.  At the end it reads its peak RSS
and prints one JSON line with the raw timings.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import sys
import time


def _parse(argv):
    ap = argparse.ArgumentParser(description="one benchmark process")
    ap.add_argument("--setup-only", action="store_true",
                    help="exit once the imports are done")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--batches", type=int, help="measured batches")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: trace every other measured batch")
    ap.add_argument("--scale", default="full")
    ap.add_argument("--work", help="directory for this run")
    return ap.parse_args(argv)


# ---------------------------------------------------------------------------
# Batches and output checks
# ---------------------------------------------------------------------------

# Iterations of the host-speed probe: about 2.3 ms at full speed on the
# reference box.
PROBE_LOOPS = 40_000


def probe():
    """Seconds a fixed pure-Python loop takes now, the faster of two tries.

    The host's speed drifts by up to 1.8x for minutes at a time, evenly
    across every command; dividing by the probe taken just before a
    command removes that drift from its timing.
    """
    best = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        acc = 0
        for i in range(PROBE_LOOPS):
            acc += i * i
        best = min(best, time.perf_counter() - start)
    return best


def run_batch(cmds, out_dir, tracer=None):
    """Run every command once, in order, each after a host-speed probe;
    time each command and the whole batch."""
    os.makedirs(out_dir)
    latencies, cpus, probes, results = [], [], [], []
    if tracer is not None:
        tracer.install()
    try:
        t0 = time.perf_counter()
        for cmd in cmds:
            probes.append(probe())
            c_start, start = time.process_time(), time.perf_counter()
            code, stdout = cmd.execute(out_dir)
            latencies.append(time.perf_counter() - start)
            cpus.append(time.process_time() - c_start)
            results.append((code, stdout))
        wall = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()
    return {"out_dir": out_dir, "wall": wall, "latencies": latencies,
            "cpus": cpus, "probes": probes, "results": results,
            "traced": tracer is not None}


def _digest(cmd, out_dir, code, stdout):
    h = hashlib.sha256(f"{code}\0{stdout}".encode())
    for path in cmd.outputs(out_dir):
        h.update(path[len(out_dir):].encode())
        try:
            with open(path, "rb") as fh:
                h.update(fh.read())
        except OSError:
            h.update(b"\0missing")
    return h.hexdigest()


def validate(cmds, batch, verdicts):
    """Check every output of one batch once per distinct content.

    ``verdicts`` maps "<command index>:<output digest>" to None (passed) or
    the failure reason, and is extended in place, so later batches skip
    outputs already checked.  Returns the failures.
    """
    from workloads import check_output

    failures = []
    for i, (cmd, (code, stdout)) in enumerate(zip(cmds, batch["results"])):
        key = f"{i}:{_digest(cmd, batch['out_dir'], code, stdout)}"
        if key not in verdicts:
            verdicts[key] = check_output(cmd, batch["out_dir"], code, stdout)
        if verdicts[key] is not None:
            failures.append({"command": cmd.label,
                             "reason": verdicts[key]})
    batch["failed"] = len(failures)
    return failures


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------

def _blas_threads():
    """Thread count of the OpenBLAS numpy loaded, or None if not found."""
    import ctypes
    import glob

    import numpy

    libdir = os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                          "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment():
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
    }


def main(argv=None):
    args = _parse(argv)
    # The set-up every CLI invocation pays; the parent times up to "ready".
    import numpy
    import scipy.integrate  # noqa: F401
    import scipy.linalg  # noqa: F401
    import scipy.special  # noqa: F401
    import scipy.stats  # noqa: F401

    import qprep.cli  # noqa: F401
    import qprep.encodesim  # noqa: F401
    import qprep.gf2  # noqa: F401
    import qprep.hamiltonian  # noqa: F401
    import qprep.leakage  # noqa: F401
    import qprep.qpestats  # noqa: F401
    import qprep.refine  # noqa: F401
    import qprep.resources  # noqa: F401
    import qprep.spectra  # noqa: F401
    import qprep.states  # noqa: F401
    print("ready", probe(), flush=True)
    if args.setup_only:
        return 0

    from layers import Tracer, per_layer_values
    from run import PER_LAYER
    from workloads import WORKLOADS

    def workload(scale, name):
        inputs = os.path.join(args.work, name)
        os.makedirs(inputs)
        rng = numpy.random.default_rng(args.seed)
        return WORKLOADS[args.workload](rng, inputs, scale)

    # Warm-up: the same commands at toy size load lazy imports and reach
    # every code path once, so no full-size batch is spent on it.
    run_batch(workload("toy", "warm-up-inputs")[0],
              os.path.join(args.work, "warm-up"))
    cmds, info = workload(args.scale, "inputs")

    batches, layers, failures, verdicts = [], [], [], {}
    for b in range(args.batches):
        tracer = Tracer() if args.trace and b % 2 == 0 else None
        batch = run_batch(cmds, os.path.join(args.work, f"b{b}"), tracer)
        if tracer is not None:
            layers.append(per_layer_values(tracer, PER_LAYER))
            tracer.reset()
        failures += [dict(f, batch=b) for f in
                     validate(cmds, batch, verdicts)]
        shutil.rmtree(batch["out_dir"])
        batches.append(batch)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    print(json.dumps({
        "labels": [cmd.label for cmd in cmds],
        "batches": [{key: batch[key] for key in
                     ("wall", "latencies", "cpus", "probes", "traced",
                      "failed")}
                    for batch in batches],
        "attempted": len(cmds) * len(batches),
        "failures": failures,
        "peak_rss_mb": peak_rss_mb,
        "layers": layers,
        "inputs": info,
        "environment": environment(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
