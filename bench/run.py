"""qprep benchmark: one closed-loop client driving the CLI in-process.

Usage (from the repository root)::

    python3 bench/run.py --workload ham_pipeline --seed 1 --seconds 30 --trace 0

A run first starts a few fresh processes that only import qprep, for
``setup_s``.  Then one worker process (``worker.py``) imports qprep, warms
up on the same commands at toy size, writes the inputs for ``--seed`` under
``.bench_work/`` and runs ``round(seconds / BATCH_SECONDS)`` batches of the
workload's command list, timing a host-speed probe before each command.
It checks every output after the timed region of its batch.  A traced run
alternates traced and untraced batches.  Every end-to-end timing is
rescaled by its probe to the reference box's full speed.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  The line before it holds run details
and the environment.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# A run measures round(seconds / BATCH_SECONDS) batches, at least
# MIN_BATCHES; a batch takes 1.5 to 2.3 s at full speed on the reference box.
# A fixed count, not a time, keeps cmd_ms.tail on the same rank of the same
# commands whatever the host's speed.
BATCH_SECONDS = 2.5
MIN_BATCHES = 4
# The probe's time (worker.probe) at full speed on the reference box.  A
# time times PROBE_SECONDS / probe is that time at the reference speed.
PROBE_SECONDS = 0.0023
# Fresh processes that only import, for setup_s; the measuring worker's own
# import time is one more sample.
SETUP_PROCESSES = 2
WORKER_TIMEOUT = 150

END_TO_END = {
    "run_s": "ref_s", "cpu_s": "ref_s", "cmd_ms.p50": "ref_ms",
    "cmd_ms.tail": "ref_ms", "peak_rss_mb": "MB", "setup_s": "s",
}

_SELF = "s"
PER_LAYER = {
    "cli.dispatch.self_s": _SELF, "cli.commands": "count",
    "cli.failed": "count", "cli.fail_ratio": "ratio",
    "hamiltonian.layer.self_s": _SELF,
    "hamiltonian.parse_fcidump.self_s": _SELF,
    "hamiltonian.build_ci_matrix.self_s": _SELF,
    "hamiltonian.build_ci_matrix.calls": "count",
    "hamiltonian.ci_pairs_visited": "count",
    "hamiltonian.ci_pair_hit_ratio": "ratio",
    "hamiltonian.normalize_spectrum.self_s": _SELF,
    "hamiltonian.DenseHamiltonian.eigensystem.self_s": _SELF,
    "hamiltonian.eigensolves_per_measure": "ratio",
    "hamiltonian.load_hamiltonian.self_s": _SELF,
    "hamiltonian.save_hamiltonian.self_s": _SELF,
    "spectra.layer.self_s": _SELF,
    "spectra.exact_spectral_measure.self_s": _SELF,
    "spectra.resolvent_distribution.self_s": _SELF,
    "spectra.resolvent_solves": "count",
    "spectra.resolvent_gflop": "Gflop",
    "spectra.coarse_qpe_sample.self_s": _SELF,
    "spectra.cqpe_shots": "count",
    "spectra.kde.self_s": _SELF,
    "spectra.moments_from_measure.self_s": _SELF,
    "spectra.qpe_kernel_probs.self_s": _SELF,
    "spectra.qpe_kernel_probs.calls": "count",
    "spectra.SpectralMeasure.self_s": _SELF,
    "spectra.SpectralMeasure.calls": "count",
    "spectra.SpectralMeasure.levels": "count",
    "qpestats.layer.self_s": _SELF,
    "qpestats.qpe_outcome_distribution.self_s": _SELF,
    "qpestats.qpe_outcome_distribution.calls": "count",
    "qpestats.kernel_evals": "count",
    "qpestats.kernel_evals_per_s": "1/s",
    "qpestats.kernel_bytes": "B",
    "qpestats.expected_min.self_s": _SELF,
    "qpestats.goldilocks_report.self_s": _SELF,
    "leakage.layer.self_s": _SELF,
    "leakage.leak_prob_exact.self_s": _SELF,
    "leakage.exact_bin_evals": "count",
    "leakage.leak_prob_approx.self_s": _SELF,
    "leakage.leak_prob_integral.self_s": _SELF,
    "leakage.diagnose_leakage.self_s": _SELF,
    "refine.layer.self_s": _SELF,
    "refine.coarse_qpe_postselect.self_s": _SELF,
    "refine.cqpe_useful_ratio": "ratio",
    "refine.qetu_filter.self_s": _SELF,
    "refine.symmetric_filter.self_s": _SELF,
    "refine.gaussian_case_study.self_s": _SELF,
    "gf2.layer.self_s": _SELF,
    "gf2.select_substrings.self_s": _SELF,
    "gf2.find_signature_vectors.self_s": _SELF,
    "gf2.compress.check.total_s": _SELF,
    "gf2.compress.nocheck.total_s": _SELF,
    "gf2.input_bits": "count",
    "encodesim.layer.self_s": _SELF,
    "encodesim.plan_encoding.self_s": _SELF,
    "encodesim.simulate_sos_encoding.self_s": _SELF,
    "encodesim.simulate_mps_circuit.self_s": _SELF,
    "encodesim.cnots_applied": "count",
    "encodesim.uncompute_ops": "count",
    "encodesim.mps_gates": "count",
    "states.layer.self_s": _SELF,
    "states.sos_to_mps.self_s": _SELF,
    "states.mps_to_sos.self_s": _SELF,
    "states.load_sos.self_s": _SELF,
    "states.save_sos.self_s": _SELF,
    "states.load_mps.self_s": _SELF,
    "states.save_mps.self_s": _SELF,
    "resources.layer.self_s": _SELF,
    "resources.cost_sweep.self_s": _SELF,
    "trace.overhead_s": "ref_s",
    "trace.traced_run_s": "ref_s",
    "trace.untraced_run_s": "ref_s",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("ham_pipeline", "readout_law",
                             "compress_encode"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="measured time at full speed; sets the number of "
                         "batches")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: report per-layer metrics from a traced run")
    ap.add_argument("--scale", choices=("full", "toy"), default="full",
                    help="input sizes; toy is for the smoke test")
    return ap.parse_args(argv)


def tail_latency(latencies):
    """Latency at the highest percentile leaving at least 10 commands above
    it, with that percentile; None below 20 commands."""
    n = len(latencies)
    if n < 20:
        return None, None
    ordered = sorted(latencies)
    return ordered[n - 11], 100.0 * (n - 10) / n


def spawn_worker(args):
    """Run one fresh worker process; returns (set-up seconds unscaled,
    set-up seconds at the reference speed, its stdout)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args]
    env = dict(os.environ, PYTHONPATH=SRC)
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True)
    try:
        ready = proc.stdout.readline().split()
        setup = time.perf_counter() - t0
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0 or len(ready) != 2 or ready[0] != "ready":
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return setup, setup * PROBE_SECONDS / float(ready[1]), out


def per_command(batches, key, scaled):
    """One list per command of its ``key`` samples over the batches; with
    ``scaled``, each rescaled to the reference speed by its probe."""
    return [[b[key][i] * (PROBE_SECONDS / b["probes"][i] if scaled else 1.0)
             for b in batches] for i in range(len(batches[0][key]))]


def timings(batches, scaled=True):
    """run_s, cpu_s, cmd_ms.p50, cmd_ms.tail, tail percentile, samples."""
    lat = per_command(batches, "latencies", scaled)
    cpu = per_command(batches, "cpus", scaled)
    pool = [t for xs in lat for t in xs]
    tail, tail_pct = tail_latency(pool)
    return {
        "run_s": sum(statistics.median(xs) for xs in lat),
        "cpu_s": sum(statistics.median(xs) for xs in cpu),
        "cmd_ms.p50": 1000.0 * statistics.median(pool),
        "cmd_ms.tail": None if tail is None else 1000.0 * tail,
        "cmd_ms.tail_percentile": tail_pct,
        "commands_timed": len(pool),
    }


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "qprep", "cli.py")):
        print(f"error: no qprep sources under {SRC}", file=sys.stderr)
        return 2

    run_dir = os.path.join(ROOT, ".bench_work",
                           f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        setups = [spawn_worker(["--setup-only"])[:2]
                  for _ in range(SETUP_PROCESSES)]
        *setup, out = spawn_worker([
            "--workload", args.workload, "--seed", str(args.seed),
            "--batches", str(max(MIN_BATCHES,
                                 round(args.seconds / BATCH_SECONDS))),
            "--trace", str(args.trace),
            "--scale", args.scale, "--work", run_dir])
        setups.append(tuple(setup))
        report = json.loads(out.strip().splitlines()[-1])
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(run_dir))
        except OSError:
            pass

    attempted = report["attempted"]
    failed = len(report["failures"])
    untraced = [b for b in report["batches"] if not b["traced"]]
    timed = timings(untraced)
    run_s = timed["run_s"]
    if args.trace:
        layers = report["layers"]
        metrics = {name: statistics.median(s[name] for s in layers)
                   for name in layers[0]}
        traced_run_s = timings(
            [b for b in report["batches"] if b["traced"]])["run_s"]
        metrics.update({
            "cli.commands": len(report["labels"]), "cli.failed": failed,
            "cli.fail_ratio": failed / attempted,
            "trace.traced_run_s": traced_run_s,
            "trace.untraced_run_s": run_s,
            "trace.overhead_s": traced_run_s - run_s,
        })
        units = PER_LAYER
    else:
        metrics = dict(timed, peak_rss_mb=report["peak_rss_mb"],
                       setup_s=statistics.median(s for _, s in setups))
        units = END_TO_END
    labels = report["labels"]
    details = {
        "workload": args.workload, "seed": args.seed, "scale": args.scale,
        "trace": args.trace, "load": "closed loop, one client, in-process",
        "batches": len(report["batches"]),
        "commands_per_batch": len(labels),
        "batch_wall_s": [b["wall"] for b in report["batches"]],
        "commands_timed": timed["commands_timed"],
        "cmd_ms.tail_percentile": timed["cmd_ms.tail_percentile"],
        "host_slowdown": statistics.median(
            p for b in untraced for p in b["probes"]) / PROBE_SECONDS,
        "unscaled": {k: v for k, v in timings(untraced, scaled=False).items()
                     if k in END_TO_END},
        "fail_ratio": failed / attempted,
        "setup_s_samples": [s for _, s in setups],
        "setup_s_unscaled": [s for s, _ in setups],
        "inputs": report["inputs"],
        "failures": report["failures"][:20],
        "command_ref_ms_median": {
            label: 1000.0 * statistics.median(xs) for label, xs in
            zip(labels, per_command(untraced, "latencies", True))},
        "environment": report["environment"],
    }
    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units if metrics[name] is not None},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
