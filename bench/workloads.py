"""The three benchmark workloads as fixed batches of commands.

A workload turns a seed into input files and a batch of commands.  Each
command is either an argv list for ``qprep.cli.dispatch`` or, where no CLI
command reaches a function, a direct library call.  Argument strings may
hold ``{out}``, the batch's own output directory, so no batch overwrites
another's files and every output can be checked after the timed region.
"""

import contextlib
import io
import json
import math
import os

import numpy as np

import checks
import gen
from checks import CheckFailed, require

EXIT_FAILED = 3

# Sizes per scale.  "full" is the benchmark; "toy" is the smoke-test size.
# At full size a batch takes 1.5 to 2.3 s on the reference box at full
# speed, so that a run of 12 batches stays near 30 s when the host is slow.
SCALES = {
    "full": {
        "norb": 8, "main_sector": (2, 2), "side_sector": (1, 2),
        "resolvent_points": 192, "n_states": 1,
        "n_levels": 4096, "k_low": 10, "k_mid": 12, "k_high": 13,
        "cqpe_shots": 4096,
        "compress": ((64, 60, True), (64, 60, False), (128, 60, True),
                     (128, 60, False), (256, 120, False), (512, 80, False)),
        "sos": ((12, 64), (12, 64)), "mps_sos": (8, 12),
    },
    "toy": {
        "norb": 4, "main_sector": (2, 1), "side_sector": (1, 1),
        "resolvent_points": 32, "n_states": 1,
        "n_levels": 128, "k_low": 4, "k_mid": 5, "k_high": 6,
        "cqpe_shots": 64,
        "compress": ((8, 12, True), (8, 12, False), (16, 16, False)),
        "sos": ((8, 8),), "mps_sos": (6, 4),
    },
}


class Command:
    """One closed-loop request: run it, then (later) check its outputs."""

    def __init__(self, label, argv=None, call=None, check=None):
        self.label = label
        self.argv = argv
        self.call = call
        self.check = check

    def resolve(self, out_dir):
        return [a.replace("{out}", out_dir) for a in self.argv]

    def outputs(self, out_dir):
        """Output files this command writes in ``out_dir``."""
        if self.argv is None:
            return []
        return [a for a in self.resolve(out_dir) if a.startswith(out_dir)]

    def execute(self, out_dir):
        """Run once; returns (exit code, captured stdout)."""
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), \
                contextlib.redirect_stderr(io.StringIO()):
            if self.argv is not None:
                from qprep import cli

                code = cli.dispatch(self.resolve(out_dir))
            else:
                try:
                    buf.write(self.call(out_dir))
                    code = 0
                except Exception as exc:  # noqa: BLE001 - counted as failed
                    buf.write(f"error: {exc!r}")
                    code = EXIT_FAILED
        return code, buf.getvalue()


def _p(path):
    return os.path.join("{out}", path)


def _out(out_dir, name):
    return os.path.join(out_dir, name)


# ---------------------------------------------------------------------------
# Reference measures, computed once per input and only when checked
# ---------------------------------------------------------------------------

class RefMeasure:
    """Lazily computed (energies, weights) of a measure source."""

    def __init__(self, loader):
        self._loader = loader
        self._value = None

    def get(self, out_dir):
        if self._value is None:
            self._value = self._loader(out_dir)
        return self._value


def _levels_ref(path):
    return RefMeasure(lambda out_dir: checks.read_levels(path))


def _gaussian_ref(mean, sigma, n_levels=4096):
    def load(out_dir):
        from scipy.stats import norm

        edges = np.linspace(mean - 6 * sigma, mean + 6 * sigma, n_levels + 1)
        mass = np.diff(norm.cdf(edges, mean, sigma))
        return (edges[:-1] + edges[1:]) / 2, mass / mass.sum()
    return RefMeasure(load)


def _ham_ref(npz_name, state_path):
    """Exact measure of a state in the normalized frame, by plain NumPy."""
    def load(out_dir):
        with np.load(_out(out_dir, npz_name), allow_pickle=False) as data:
            h = np.array(data["entries"])
        rows = np.loadtxt(state_path, delimiter=",", ndmin=2)
        psi = rows[:, 0] + (1j * rows[:, 1] if rows.shape[1] == 2 else 0)
        evals, evecs = np.linalg.eigh(h)
        scale = 0.8 / (evals[-1] - evals[0])
        energies = scale * evals + 0.1 - scale * evals[0]
        probs = np.abs(evecs.T @ (psi / np.linalg.norm(psi))) ** 2
        return energies, probs
    return RefMeasure(load)


# ---------------------------------------------------------------------------
# Checks shared by the spectrum commands
# ---------------------------------------------------------------------------

def _close(a, b, what, rel=1e-8, abs_=1e-12):
    require(math.isclose(a, b, rel_tol=rel, abs_tol=abs_),
            f"{what}: {a!r} differs from reference {b!r}")


def _check_qpe_stats(ref, k, target, reps):
    def check(out_dir, stdout):
        rep = checks.parse_json(stdout)
        e, w = ref.get(out_dir)
        require(rep["outcomes"] == 2 ** k, "wrong outcome count")
        require(0.0 <= rep["mean_readout"] < 1.0, "mean readout off range")
        _close(rep["spectral_p_below"], float(w[e <= target].sum()),
               "spectral_p_below")
        grid = np.arange(2 ** k)
        bins = grid[grid / 2 ** k <= target]
        ref_out = sum(float(w[i:i + 256] @ checks.fejer_mass(
            e[i:i + 256], k, bins)) for i in range(0, e.size, 256))
        _close(rep["outcome_p_below"], ref_out, "outcome_p_below")
        _close(rep["expected_min"],
               checks.expected_min_reference(e, w, reps), "expected_min")
        if "distribution" in rep:
            total = sum(row[2] for row in rep["distribution"])
            require(abs(total - 1.0) <= 1e-10,
                    "outcome probabilities do not sum to 1")
    return check


def _check_goldilocks(ref, et, budget):
    def check(out_dir, stdout):
        rep = checks.parse_json(stdout)
        e, w = ref.get(out_dir)
        p = float(w[e <= et].sum())
        _close(rep["p_below_target"], p, "p_below_target")
        need = math.ceil(1 / p) if p > 0 else None
        label = ("Easy" if p > 0.5 else
                 "Goldilocks" if need is not None and need <= budget
                 else "Hard")
        require(rep["class"] == label, f"class {rep['class']} != {label}")
    return check


def _check_leakage(ref, k, epsilon, e0, smooth):
    def check(out_dir, stdout):
        rep = checks.parse_json(stdout)
        e, w = ref.get(out_dir)
        _close(rep["exact"], checks.leak_reference(e, w, k, epsilon, e0),
               "exact leakage", rel=1e-7, abs_=1e-13)
        require(rep["approx"] >= 0.0, "negative approximate leakage")
        require((rep["integral"] is not None) == smooth,
                "integral form present iff the source is smooth")
        diag = rep["diagnosis"]
        require(0.0 <= diag["energy_cdf"] <= 1.0 + 1e-10
                and 0.0 <= diag["outcome_cdf"] <= 1.0 + 1e-10,
                "diagnosis CDFs off range")
    return check


def _check_cqpe(ref, k, accept, posterior):
    def check(out_dir, stdout):
        rep = checks.parse_json(stdout)
        e, w = ref.get(out_dir)
        acc = sorted({x % 2 ** k for x in accept})
        gain = checks.fejer_mass(e, k, acc)
        success = float(w @ gain)
        _close(rep["success_prob"], success, "success_prob")
        require(rep["query_cost"] == 2 ** k, "query cost is not 2^k")
        post = checks.read_csv(_out(out_dir, posterior), ("E", "weight"))
        require(abs(post[:, 1].sum() - 1.0) <= 1e-10,
                "posterior weights do not sum to 1")
        require(np.allclose(post[:, 1], w * gain / success, rtol=1e-7,
                            atol=1e-14), "posterior differs from reference")
    return check


def _check_qetu(posterior):
    def check(out_dir, stdout):
        rep = checks.parse_json(stdout)
        require(0.0 < rep["success_prob"] <= 1.0 + 1e-6,
                "success probability off range")
        post = checks.read_csv(_out(out_dir, posterior), ("E", "weight"))
        require(abs(post[:, 1].sum() - 1.0) <= 1e-10,
                "posterior weights do not sum to 1")
    return check


def _check_density(out_name, points, nonnegative, sidecar=None):
    def check(out_dir, stdout):
        data = checks.read_csv(_out(out_dir, out_name), ("E", "P"))
        require(data.shape[0] == points, "wrong grid length")
        if nonnegative:
            require(bool(np.all(data[:, 1] >= 0)), "negative density")
        if sidecar is not None:
            side = checks.read_json(_out(out_dir, sidecar))
            require(abs(side["raw_moments"][0] - 1.0) <= 1e-10,
                    "measure weights do not sum to 1")
    return check


def _check_resolvent(npz_name, out_name, sidecar, points, eta):
    def check(out_dir, stdout):
        data = checks.read_csv(_out(out_dir, out_name), ("E", "P"))
        require(data.shape[0] == points, "wrong grid length")
        side = checks.read_json(_out(out_dir, sidecar))
        require(abs(side["raw_moments"][0] - 1.0) <= 1e-10,
                "measure weights do not sum to 1")
        curve, raw1 = checks.lorentzian_reference(
            _out(out_dir, npz_name), side, data[:, 0], eta)
        err = float(np.max(np.abs(data[:, 1] - curve)))
        require(err <= 1e-8 * float(np.max(np.abs(curve))),
                f"resolvent differs from Lorentzian broadening by {err:.3g}")
        _close(side["raw_moments"][1], raw1, "sidecar mean", rel=1e-9,
               abs_=1e-12)
    return check


def _check_ham_build(npz_name, dim):
    def check(out_dir, stdout):
        rep = checks.parse_json(stdout)
        require(rep["dim"] == dim, f"dim {rep['dim']} != {dim}")
        with np.load(_out(out_dir, npz_name), allow_pickle=False) as data:
            h = np.array(data["entries"])
        require(h.shape == (dim, dim), "matrix shape")
        require(bool(np.all(np.isfinite(h))), "non-finite matrix entry")
        require(bool(np.array_equal(h, h.T)), "matrix is not symmetric")
    return check


def _check_case_study(out_dir, stdout):
    rep = checks.parse_json(stdout)
    require(rep["all_passed"] is True, "case study reports a failed row")
    require(len(rep["rows"]) == 12, "case study lost rows")


# ---------------------------------------------------------------------------
# ham_pipeline
# ---------------------------------------------------------------------------

def ham_pipeline(rng, inputs, scale):
    s = SCALES[scale]
    n = s["norb"]
    fcidump = os.path.join(inputs, "h.fcidump")
    na, nb = s["main_sector"]
    sa, sb = s["side_sector"]
    gen.write_fcidump(rng, fcidump, n, na + nb, na - nb)
    dim = math.comb(n, na) * math.comb(n, nb)
    side_dim = math.comb(n, sa) * math.comb(n, sb)
    cmds = [
        Command(f"ham build ({na},{nb})",
                ["ham", "build", "--fcidump", fcidump, "--na", str(na),
                 "--nb", str(nb), "--out", _p("main.npz")],
                check=_check_ham_build("main.npz", dim)),
        Command(f"ham build ({sa},{sb})",
                ["ham", "build", "--fcidump", fcidump, "--na", str(sa),
                 "--nb", str(sb), "--out", _p("side.npz")],
                check=_check_ham_build("side.npz", side_dim)),
        Command("energy-dist resolvent",
                ["energy-dist", "--ham", _p("side.npz"), "--method",
                 "resolvent", "--eta", "0.02", "--grid-points",
                 str(s["resolvent_points"]), "--out", _p("resolvent.csv"),
                 "--sidecar", _p("resolvent.json")],
                check=_check_resolvent("side.npz", "resolvent.csv",
                                       "resolvent.json",
                                       s["resolvent_points"], 0.02)),
    ]
    for i in range(s["n_states"]):
        state = os.path.join(inputs, f"state{i}.csv")
        gen.write_state_csv(rng, state, dim, complex_amps=bool(i % 2))
        ref = _ham_ref("main.npz", state)
        src = ["--ham", _p("main.npz"), "--state", state]
        k = s["k_low"]
        target = round(float(rng.uniform(0.15, 0.3)), 6)
        reps = int(rng.integers(3, 8))
        e0 = round(float(rng.uniform(0.1, 0.14)), 6)
        eps = 2.0 ** -8
        accept = sorted({int(x) for x in rng.integers(0, 4, size=2)})
        post = f"post{i}.csv"
        cmds += [
            Command(f"qpe-stats ham s{i}",
                    ["qpe-stats", *src, "--k", str(k - 2), "--target",
                     str(target), "--reps", str(reps)],
                    check=_check_qpe_stats(ref, k - 2, target, reps)),
            Command(f"goldilocks ham s{i}",
                    ["goldilocks", *src, "--et", str(target),
                     "--budget", "100"],
                    check=_check_goldilocks(ref, target, 100)),
            Command(f"leakage ham s{i}",
                    ["leakage", *src, "--k", str(k), "--epsilon", str(eps),
                     "--e0", str(e0)],
                    check=_check_leakage(ref, k, eps, e0, smooth=False)),
            Command(f"refine cqpe ham s{i}",
                    ["refine", "cqpe", *src, "--k", "4", "--accept",
                     ",".join(map(str, accept)), "--posterior-out",
                     _p(post)],
                    check=_check_cqpe(ref, 4, accept, post)),
            Command(f"energy-dist series ham s{i}",
                    ["energy-dist", *src, "--method", "series",
                     "--out", _p(f"series{i}.csv"),
                     "--sidecar", _p(f"series{i}.json")],
                    check=_check_density(f"series{i}.csv", 512, False,
                                         f"series{i}.json")),
        ]
    info = {"norb": n, "main_dim": dim, "side_dim": side_dim,
            "states": s["n_states"]}
    return cmds, info


# ---------------------------------------------------------------------------
# readout_law
# ---------------------------------------------------------------------------

def readout_law(rng, inputs, scale):
    s = SCALES[scale]
    n_levels = s["n_levels"]
    k_lo, k_mid, k_hi = s["k_low"], s["k_mid"], s["k_high"]
    srcs = []
    for name, peaks in (("A", 3), ("B", 2)):
        path = os.path.join(inputs, f"levels{name}.csv")
        lo, hi, centres = gen.write_levels_csv(rng, path, n_levels, peaks)
        srcs.append((path, lo, hi, centres))
    (pa, lo_a, hi_a, ca), (pb, lo_b, hi_b, cb) = srcs
    mean = round(float(rng.uniform(0.08, 0.2)), 6)
    sigma = round(float(rng.uniform(0.015, 0.03)), 6)
    ref_a, ref_b = _levels_ref(pa), _levels_ref(pb)
    ref_g = _gaussian_ref(mean, sigma)
    gauss = ["--gaussian", str(mean), str(sigma)]
    eps = 2.0 ** -8

    def r6(x):
        return round(float(x), 6)

    t_a, t_b = r6(ca[0]), r6(lo_b + 0.3 * (cb[0] - lo_b))
    e0_a, e0_g = r6(lo_a + 0.01), r6(mean - 2 * sigma)
    acc_b = sorted({int(round(cb[0] * 2 ** k_mid)) + d for d in (-1, 0, 1)})
    el, eu = r6(lo_a + 0.25 * (hi_a - lo_a)), r6(lo_a + 0.75 * (hi_a - lo_a))
    gl, gu = r6(mean - 2 * sigma), r6(mean + 2 * sigma)
    cmds = [
        Command("qpe-stats levelsA k_lo",
                ["qpe-stats", "--levels", pa, "--k", str(k_lo), "--target",
                 str(t_a), "--reps", "5"],
                check=_check_qpe_stats(ref_a, k_lo, t_a, 5)),
        Command("qpe-stats levelsB k_hi",
                ["qpe-stats", "--levels", pb, "--k", str(k_hi), "--target",
                 str(t_b), "--reps", "20"],
                check=_check_qpe_stats(ref_b, k_hi, t_b, 20)),
        Command("qpe-stats gaussian k_mid",
                ["qpe-stats", *gauss, "--k", str(k_mid - 1), "--target",
                 str(r6(mean - sigma)), "--reps", "10", "--full"],
                check=_check_qpe_stats(ref_g, k_mid - 1, r6(mean - sigma),
                                       10)),
        Command("leakage levelsA k_mid",
                ["leakage", "--levels", pa, "--k", str(k_mid), "--epsilon",
                 str(eps), "--e0", str(e0_a)],
                check=_check_leakage(ref_a, k_mid, eps, e0_a, smooth=False)),
        Command("leakage gaussian k_lo",
                ["leakage", *gauss, "--k", str(k_lo), "--epsilon", str(eps),
                 "--e0", str(e0_g)],
                check=_check_leakage(ref_g, k_lo, eps, e0_g, smooth=True)),
        Command("refine cqpe levelsB k_mid",
                ["refine", "cqpe", "--levels", pb, "--k", str(k_mid),
                 "--accept", ",".join(map(str, acc_b)), "--posterior-out",
                 _p("postB.csv")],
                check=_check_cqpe(ref_b, k_mid, acc_b, "postB.csv")),
        Command("refine qetu levelsA",
                ["refine", "qetu", "--levels", pa, "--el", str(el), "--eu",
                 str(eu), "--posterior-out", _p("qetuA.csv")],
                check=_check_qetu("qetuA.csv")),
        Command("refine qetu gaussian",
                ["refine", "qetu", *gauss, "--el", str(gl), "--eu", str(gu),
                 "--degree", "120", "--posterior-out", _p("qetuG.csv")],
                check=_check_qetu("qetuG.csv")),
        Command("goldilocks levelsA",
                ["goldilocks", "--levels", pa, "--et", str(e0_a),
                 "--budget", "1000"],
                check=_check_goldilocks(ref_a, e0_a, 1000)),
        Command("energy-dist cqpe levelsB",
                ["energy-dist", "--levels", pb, "--method", "cqpe", "--k",
                 str(k_lo), "--shots", str(s["cqpe_shots"]), "--seed",
                 str(int(rng.integers(2 ** 32))), "--out", _p("cqpeB.csv")],
                check=_check_density("cqpeB.csv", 512, True)),
        Command("energy-dist series levelsA",
                ["energy-dist", "--levels", pa, "--method", "series",
                 "--out", _p("seriesA.csv"), "--sidecar",
                 _p("seriesA.json")],
                check=_check_density("seriesA.csv", 512, False,
                                     "seriesA.json")),
        Command("energy-dist series gaussian",
                ["energy-dist", *gauss, "--method", "series", "--order",
                 "6", "--out", _p("seriesG.csv")],
                check=_check_density("seriesG.csv", 512, False)),
        Command("refine case-study",
                ["refine", "case-study", "--n-levels", str(n_levels)],
                check=_check_case_study if scale == "full" else None),
    ]
    info = {"levels": n_levels, "k": [k_lo, k_mid, k_hi]}
    return cmds, info


# ---------------------------------------------------------------------------
# compress_encode
# ---------------------------------------------------------------------------

def _check_compress(dets, out_name):
    def check(out_dir, stdout):
        checks.signature_check(dets, checks.read_json(_out(out_dir, out_name)))
    return check


def _check_encode(report):
    def check(out_dir, stdout):
        rep = checks.read_json(_out(out_dir, report))
        require(rep["fidelity"] >= 1 - 1e-10,
                f"encoder fidelity 1-{1 - rep['fidelity']:.2e}")
        require(rep["ancilla_residual"] <= 1e-10, "ancilla residual")
    return check


def _check_to_mps(exact):
    def check(out_dir, stdout):
        rep = checks.parse_json(stdout)
        if exact:
            require(rep["fidelity"] >= 1 - 1e-10, "lossy MPS conversion")
        with np.load(rep["output"], allow_pickle=False) as data:
            require(all(bool(np.all(np.isfinite(data[f])))
                        for f in data.files if f.startswith("tensor_")),
                    "non-finite MPS tensor")
    return check


def _check_to_sos(original, back_name, n_terms):
    def check(out_dir, stdout):
        rep = checks.parse_json(stdout)
        require(rep["n_terms"] == n_terms, "round trip changed term count")
        with open(original, encoding="utf-8") as fh:
            orig = json.load(fh)
        back = checks.read_json(_out(out_dir, back_name))
        require(checks.sos_overlap(orig, back) >= 1 - 1e-10,
                "round trip changed the state")
    return check


def _mps_circuit_call(npz_name):
    def call(out_dir):
        from qprep import encodesim, states

        mps = states.load_mps(_out(out_dir, npz_name))
        norm = mps.norm()
        prepared = states.MpsState([mps.tensors[0] / norm]
                                   + list(mps.tensors[1:]),
                                   mps.local_dim, canonical_form="left")
        res = encodesim.simulate_mps_circuit(prepared, use_householder=True)
        return json.dumps({"fidelity": res.fidelity,
                           "ancilla_residual": res.ancilla_residual,
                           "n_gates": res.n_gates})
    return call


def _check_mps_circuit(out_dir, stdout):
    rep = checks.parse_json(stdout)
    require(rep["fidelity"] >= 1 - 1e-10, "MPS circuit fidelity")
    require(rep["ancilla_residual"] <= 1e-10, "MPS circuit ancilla residual")


def compress_encode(rng, inputs, scale):
    s = SCALES[scale]
    cmds = []
    input_bits = 0
    for i, (n_det, width, check) in enumerate(s["compress"]):
        path = os.path.join(inputs, f"dets{i}.txt")
        dets = gen.write_determinants(rng, path, n_det, width)
        input_bits += n_det * width
        out = f"compress{i}.json"
        argv = ["compress", "--input", path, "--out", _p(out)]
        if check:
            argv.append("--check")
        cmds.append(Command(f"compress D={n_det} w={width}"
                            + (" check" if check else ""), argv,
                            check=_check_compress(dets, out)))
    for i, (n_so, n_det) in enumerate(s["sos"]):
        sos = os.path.join(inputs, f"sos{i}.json")
        gen.write_sos_json(rng, sos, n_so, n_det)
        cmds += [
            Command(f"simulate-encode sos{i}",
                    ["simulate-encode", "--sos", sos, "--report",
                     _p(f"encode{i}.json")],
                    check=_check_encode(f"encode{i}.json")),
            Command(f"convert sos{i} to mps",
                    ["convert", "--input", sos, "--to", "mps", "--out",
                     _p(f"sos{i}.npz")],
                    check=_check_to_mps(exact=True)),
            Command(f"convert sos{i} back",
                    ["convert", "--input", _p(f"sos{i}.npz"), "--to", "sos",
                     "--out", _p(f"back{i}.json")],
                    check=_check_to_sos(sos, f"back{i}.json", n_det)),
        ]
    n_so, n_det = s["mps_sos"]
    small = os.path.join(inputs, "mps_source.json")
    gen.write_sos_json(rng, small, n_so, n_det)
    d_values = ",".join(str(int(x)) for x in
                        sorted(rng.choice(np.arange(64, 8193), 3,
                                          replace=False)))
    cmds += [
        Command("convert small to mps",
                ["convert", "--input", small, "--to", "mps", "--out",
                 _p("small.npz")],
                check=_check_to_mps(exact=True)),
        Command("simulate_mps_circuit householder",
                call=_mps_circuit_call("small.npz"),
                check=_check_mps_circuit),
        Command("estimate-cost",
                ["estimate-cost", "--n-spatial",
                 str(int(rng.integers(20, 200))), "--d-values", d_values,
                 "--chi-values", "16,64,256", "--out", _p("cost.csv")],
                check=lambda out_dir, stdout: checks.read_cost_csv(
                    _out(out_dir, "cost.csv"))),
    ]
    info = {"input_bits": input_bits}
    return cmds, info


WORKLOADS = {
    "ham_pipeline": ham_pipeline,
    "readout_law": readout_law,
    "compress_encode": compress_encode,
}


def check_output(cmd, out_dir, code, stdout):
    """None if the command succeeded with valid output, else the reason."""
    if code != 0:
        return f"exit code {code}"
    try:
        if cmd.check is not None:
            cmd.check(out_dir, stdout)
    except CheckFailed as exc:
        return str(exc)
    except (OSError, KeyError, TypeError, ValueError, IndexError) as exc:
        return f"unreadable output: {exc!r}"
    return None
