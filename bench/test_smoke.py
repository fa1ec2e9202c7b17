"""Smoke test of the benchmark itself, at toy input sizes.

Run from the repository root with ``python3 -m pytest bench/test_smoke.py``.
Each workload runs through ``bench/run.py`` once untraced and twice traced;
the test asserts every metric named in ``BENCHMARK.json`` is emitted, that
nothing failed, and that the computed work counters repeat exactly.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, Command, check_output  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)

# Per-layer metrics that are counts or ratios rather than timings.
COUNTERS = [name for name, unit in run.PER_LAYER.items()
            if unit not in ("s", "ref_s", "1/s")]


def _bench(workload, trace, seed=3):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "2", "--trace",
         str(trace), "--scale", "toy"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["details"], json.loads(lines[-1])


def test_spec_matches_the_metric_tables():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_untraced_run_emits_every_end_to_end_metric(workload):
    details, result = _bench(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and details["fail_ratio"] == 0
    assert set(result["metrics"]) == set(run.END_TO_END)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == run.END_TO_END[name]
        assert metric["value"] > 0
    assert details["cmd_ms.tail_percentile"] is not None
    assert details["environment"]["nproc"] >= 1


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_run_emits_every_layer_metric(workload):
    _, first = _bench(workload, 1)
    _, second = _bench(workload, 1)
    assert first["correct"] is True and first["failed"] == 0
    assert set(first["metrics"]) == set(run.PER_LAYER)
    assert first["metrics"]["cli.fail_ratio"]["value"] == 0
    for name in COUNTERS:
        assert first["metrics"][name] == second["metrics"][name], name
    if workload == "ham_pipeline":
        per_measure = first["metrics"]["hamiltonian.eigensolves_per_measure"]
        assert per_measure["value"] == 2.0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_checker_rejects_nan_output(tmp_path):
    # A zero-width Gaussian makes the moment series divide by zero; the
    # CLI exits 0 but the CSV holds NaN, which must count as a failure.
    cmd = Command("nan series",
                  ["energy-dist", "--gaussian", "0.06", "0.0", "--method",
                   "series", "--out", "{out}/nan.csv"],
                  check=lambda out_dir, stdout: checks.read_csv(
                      os.path.join(out_dir, "nan.csv"), ("E", "P")))
    code, stdout = cmd.execute(str(tmp_path))
    assert code == 0
    assert check_output(cmd, str(tmp_path), code, stdout) is not None


def test_checker_rejects_wrong_signatures():
    dets = ["0011", "0101", "1001", "0110"]
    good = {"selected_rows": [0, 1, 2, 3], "u_vectors": ["8", "4", "2"],
            "signatures": ["1", "2", "4", "3"]}
    checks.signature_check(dets, good)
    for sigs in (["1", "2", "4", "4"], ["1", "2", "4", "5"]):
        with pytest.raises(checks.CheckFailed):
            checks.signature_check(dets, dict(good, signatures=sigs))
