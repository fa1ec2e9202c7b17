"""Command-line front end.

One command per process, plain-text output: tables as CSV, structured
results as JSON (``--pretty`` to indent).  Exit codes are stable so shell
pipelines can branch on them:

    0  success
    1  usage error (bad flags, unknown command)
    2  input could not be parsed (missing file, malformed FCIDUMP/CSV/JSON)
    3  numerical failure or refused computation (cap exceeded, solver error,
       empty postselection)

Every command accepts ``--seed`` (64-bit), ``--threads`` (BLAS threads of
the large eigensolves, ``QPREP_THREADS`` as fallback, capped at the CPUs the
process may run on) and ``--config FILE`` with ``key=value`` lines
mirroring the command's own flags; explicit flags win over the file.
Reruns with equal flags, seed and input files produce byte-identical
output.

A command runs on one BLAS thread; only one-block eigensolves of order 320
and up widen NumPy's OpenBLAS pool, to ``--threads`` or to the width it had
when the command started.  At such a width of 2 or more, the two large
spin-flip blocks of a sector solve side by side, one BLAS thread each
(:mod:`qprep.blas`).  Heavy imports happen inside the
handlers, so a command loads only what it uses.
"""

import argparse
import contextlib
import functools
import json
import math
import os
import re
import sys

from . import blas

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_NUMERICAL = 3

# Exception type names (checked against the full MRO) that mean the inputs
# parsed fine but the computation itself failed or was refused.  Name-based
# so the classifier never has to import numpy.
_NUMERICAL_NAMES = frozenset({
    "DigitCapExceeded",
    "DimensionCapExceeded",
    "BudgetExceeded",
    "TermBudgetExceeded",
    "DegenerateWindow",
    "OrderUnsupported",
    "PosteriorUndefined",
    "LinAlgError",
})

# ---------------------------------------------------------------------------
# Small argument/IO helpers
# ---------------------------------------------------------------------------

def _seed_value(text):
    try:
        value = int(text, 0)
    except ValueError:
        raise argparse.ArgumentTypeError(f"seed {text!r} is not an integer")
    if not 0 <= value < 2 ** 64:
        raise argparse.ArgumentTypeError("seed must fit in 64 bits")
    return value


def _in_range(conv, lo, hi=math.inf, open_lo=False, open_hi=False):
    """argparse type: ``conv(text)`` within [lo, hi], with the end marked by
    ``open_lo``/``open_hi`` excluded, else a usage error."""
    def parse(text):
        try:
            value = conv(text)
        except ValueError:
            value = math.nan
        if not ((lo < value if open_lo else lo <= value)
                and (value < hi if open_hi else value <= hi)):
            raise argparse.ArgumentTypeError(
                f"{text!r} must be a {conv.__name__} in "
                f"{'(' if open_lo else '['}{lo}, "
                f"{hi}{')' if open_hi else ']'}")
        return value
    return parse


_positive_int = _in_range(int, 1)
_nonnegative_int = _in_range(int, 0)
_unit_float = _in_range(float, 0.0, 1.0)
_positive_float = _in_range(float, 0.0, sys.float_info.max, open_lo=True)
_finite_float = _in_range(float, -sys.float_info.max, sys.float_info.max)


# --shots and --n-levels size arrays before any check downstream can run.
_capped_count = _in_range(int, 1, 2 ** 20)


class _GaussianArgs(argparse.Action):
    """--gaussian MEAN SIGMA: both finite (by the type), SIGMA > 0, and the
    discretization's ends MEAN +- 6 SIGMA finite and apart from MEAN."""

    def __call__(self, parser, namespace, values, option_string):
        mean, sigma = values
        if not sigma > 0:
            raise argparse.ArgumentError(self, f"sigma {sigma!r} must be > 0")
        ends = (mean - 6 * sigma, mean + 6 * sigma)
        if not all(math.isfinite(end) and end != mean for end in ends):
            raise argparse.ArgumentError(
                self, f"mean +- 6 sigma must be finite and differ from the "
                      f"mean {mean!r} (sigma {sigma!r})")
        setattr(namespace, self.dest, values)


def _even_degree(text):
    value = _in_range(int, 2)(text)
    if value % 2:
        raise argparse.ArgumentTypeError(f"{text!r} must be an even int >= 2")
    return value


def _int_list(text):
    try:
        return [int(tok, 0) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a comma-separated integer list")


def _positive_int_list(text):
    values = _int_list(text)
    if any(v < 1 for v in values):
        raise argparse.ArgumentTypeError(
            f"{text!r}: every value must be a positive integer")
    return values


def _write_text(text, path):
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _emit_json(obj, args, path=None):
    indent = 2 if getattr(args, "pretty", False) else None
    text = json.dumps(obj, indent=indent, sort_keys=True,
                      allow_nan=False) + "\n"
    _write_text(text, path if path is not None else getattr(args, "out", None))


def _emit_csv(header, rows, path):
    """Write ``header`` and ``rows`` as CSV, refusing non-finite floats.

    ``rows`` is a float table (a 2-D array or rows of floats), checked in
    one pass, or rows of ints and strings, which need no numpy.  Fields are
    written with ``str``: floats in their shortest round-trip form, and no
    field qprep writes needs quoting.
    """
    text = [",".join(map(str, header)) + "\n"]
    if len(rows) and any(isinstance(v, float) for v in rows[0]):
        import numpy as np

        table = np.asarray(rows, dtype=float)
        if not np.isfinite(table).all():
            raise ValueError("refusing to write a non-finite value")
        # one format string for the table: %r of a float is its str
        line = ",".join(["%r"] * table.shape[1]) + "\n"
        text.append(line * len(table) % tuple(table.ravel().tolist()))
    else:
        text += (",".join(map(str, row)) + "\n" for row in rows)
    _write_text("".join(text), path)


def _thread_count(args):
    """``--threads``, else ``QPREP_THREADS``, else None."""
    n = getattr(args, "threads", None)
    if n is None:
        env = os.environ.get("QPREP_THREADS")
        if not env:
            return None
        try:
            n = int(env)
        except ValueError:
            raise ValueError(f"QPREP_THREADS={env!r} is not an integer")
    if n < 1:
        raise ValueError("thread count must be >= 1")
    return n


# ---------------------------------------------------------------------------
# Config files: key=value lines mirroring the command's flags
# ---------------------------------------------------------------------------

def _read_config(path):
    mapping = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ValueError(
                    f"line {line_no}: expected key=value, got {line!r}")
            mapping[key.strip().replace("-", "_")] = value.strip()
    return mapping


def _config_tokens(subparser, mapping):
    """argv tokens for a config mapping: ``--key=VALUE`` per pair (the flag
    and then each value for a several-value flag), the bare flag for a true
    boolean, nothing for a false one.

    Each value first goes through the flag's own conversion and action, so a
    bad file is an input error rather than a usage error.
    """
    actions = {a.dest: a for a in subparser._actions if a.option_strings}
    tokens = []
    for key, text in mapping.items():
        if key in ("help", "config"):
            raise ValueError(f"config key {key!r} is not settable from a file")
        action = actions.get(key)
        if action is None:
            raise ValueError(f"unknown config key {key!r}")
        flag = action.option_strings[0]
        if action.nargs == 0:
            if text.lower() in ("1", "true", "yes", "on"):
                tokens.append(flag)
            continue
        parts = [text] if action.nargs is None else text.split()
        if action.nargs is not None and len(parts) != action.nargs:
            raise ValueError(f"config key {key!r} needs {action.nargs} values")
        action(subparser, argparse.Namespace(),
               subparser._get_values(action, parts), flag)
        # argparse reads a token such as -x as a flag: "--key=VALUE"
        # keeps a single value whole, and a leading space (which int() and
        # float() ignore) marks each of several values as a value
        tokens += ([f"{flag}={text}"] if action.nargs is None
                   else [flag, *(" " + p for p in parts)])
    return tokens


def _long_option(flag, options):
    """The long option of ``options`` that ``flag`` names, as argparse
    reads it: the option itself or a prefix of no other one; else None."""
    if flag in options or not flag.startswith("--"):
        return flag if flag in options else None
    matches = [o for o in options if o.startswith(flag)]
    return matches[0] if len(matches) == 1 else None


def _config_path(args, options):
    """The FILE argparse reads for ``--config`` in ``args``: the flag as
    given, with ``=FILE``, or as any prefix that names no other option
    (``--conf``)."""
    for i, tok in enumerate(args):
        if tok == "--":
            break
        flag, eq, value = tok.partition("=")
        if _long_option(flag, options) == "--config":
            return value if eq else (args[i + 1] if i + 1 < len(args)
                                     else None)
    return None


def _expand_config(argv, registry):
    """Splice ``--config FILE`` in as argv tokens right after the command
    path, so explicit flags, parsed later, still win over the file."""
    for n in (2, 1):
        subparser = registry.get(tuple(argv[:n]))
        if subparser is not None:
            break
    else:
        return argv  # no command: let argparse produce the usage error
    cfg_path = _config_path(argv[n:], subparser._option_string_actions)
    if cfg_path is None:
        return argv
    with _refusals_naming(cfg_path):
        tokens = _config_tokens(subparser, _read_config(cfg_path))
    return argv[:n] + tokens + argv[n:]


# ---------------------------------------------------------------------------
# Shared spectrum loading
# ---------------------------------------------------------------------------

def _add_common(sp, out=True):
    sp.add_argument("--seed", type=_seed_value, default=0,
                    help="64-bit RNG seed; equal seeds give equal bytes")
    sp.add_argument("--threads", type=_positive_int, metavar="N",
                    help="BLAS threads for one-block eigensolves of order "
                         ">= 320, at most the CPUs available; at 2 or more "
                         "the two spin-flip blocks solve side by side, one "
                         "thread each, and the rest of the command runs on "
                         "one (falls back to QPREP_THREADS, then to the pool "
                         "NumPy started with)")
    sp.add_argument("--config", metavar="FILE",
                    help="key=value defaults for this command's flags")
    sp.add_argument("--pretty", action="store_true",
                    help="indent JSON output")
    if out:
        sp.add_argument("--out", metavar="FILE",
                        help="write the primary output here instead of "
                             "stdout")


def _add_measure_args(sp):
    sp.add_argument("--gaussian", nargs=2, type=_finite_float,
                    action=_GaussianArgs, metavar=("MEAN", "SIGMA"),
                    help="discretized normal energy distribution "
                         "(normalized frame)")
    sp.add_argument("--levels", metavar="CSV",
                    help="energy,weight rows; weights are renormalized")
    sp.add_argument("--ham", metavar="FILE",
                    help="Hamiltonian (.npz or .csv); the spectrum is "
                         "affinely mapped into the readout frame")
    sp.add_argument("--state", metavar="CSV",
                    help="with --ham: amplitude rows re[,im]; "
                         "default is the uniform state")
    sp.add_argument("--n-levels", type=_capped_count, default=4096,
                    metavar="N",
                    help="discretization levels for --gaussian, at most "
                         "2^20 (default 4096)")


def _add_posterior_args(sp):
    """The flags that :func:`_emit_refinement` reads, for each refine
    command."""
    sp.add_argument("--et", type=_finite_float, metavar="E",
                    help="also report posterior weight at or below E")
    sp.add_argument("--posterior-out", metavar="FILE",
                    help="write the posterior levels as CSV")


def _is_numerical(exc):
    return bool({cls.__name__ for cls in type(exc).__mro__}
                & _NUMERICAL_NAMES)


@contextlib.contextmanager
def _refusals_naming(path):
    """Re-raise a ValueError from the block, or a flag's refusal of a
    ``--config`` value, with ``path`` in front; a numerical refusal keeps
    its class, and so its exit code."""
    try:
        yield
    except (ValueError, argparse.ArgumentError) as exc:
        cls = type(exc) if _is_numerical(exc) else ValueError
        raise cls(f"{path}: {exc}") from exc


def _load_state_vector(path, dim):
    import numpy as np

    from .hamiltonian import csv_rows

    with _refusals_naming(path):
        rows = csv_rows(path)
        bad = np.flatnonzero(~np.all(np.isfinite(rows), axis=1))
        if bad.size:
            raise ValueError(f"amplitude row {bad[0] + 1} is not finite")
        if rows.shape[1] == 1:
            vec = rows[:, 0].astype(complex)
        elif rows.shape[1] == 2:
            vec = rows[:, 0] + 1j * rows[:, 1]
        else:
            raise ValueError("state file needs one or two columns (re[,im])")
        if vec.shape[0] != dim:
            raise ValueError(f"state has {vec.shape[0]} amplitudes, "
                             f"Hamiltonian dim is {dim}")
        if not vec.any():
            raise ValueError("cannot take the measure of the zero state")
    return vec


def _load_measure(args):
    """Build the SpectralMeasure a command works on.

    Exactly one of --gaussian/--levels/--ham must be given.  The --ham
    route normalizes the spectrum and records the affine map on the
    returned measure, so original units stay recoverable.
    """
    import numpy as np

    chosen = [name for name in ("gaussian", "levels", "ham")
              if getattr(args, name) is not None]
    if len(chosen) != 1:
        raise ValueError(
            "pick exactly one spectrum source: --gaussian, --levels or --ham")
    if args.gaussian is not None:
        from .refine import gaussian_levels

        mean, sigma = args.gaussian
        return gaussian_levels(mean, sigma, n_levels=args.n_levels)
    if args.levels is not None:
        from .hamiltonian import csv_rows
        from .spectra import SpectralMeasure

        with _refusals_naming(args.levels):
            rows = csv_rows(args.levels)
            if rows.shape[1] != 2:
                raise ValueError("levels file needs energy,weight columns")
            if not np.all(np.isfinite(rows)):
                raise ValueError("levels file holds non-finite values")
            negative = np.flatnonzero(rows[:, 1] < 0)
            if negative.size:
                raise ValueError(
                    f"level weight in row {negative[0] + 1} is negative")
            energies, inverse = np.unique(rows[:, 0], return_inverse=True)
            weights = np.zeros(energies.shape)
            with np.errstate(over="ignore", invalid="ignore"):
                np.add.at(weights, inverse, rows[:, 1])
                total = weights.sum()
            if not np.isfinite(total):
                # the sum overflowed: scaled by the largest weight first,
                # as --state amplitudes are, the measure stays the same
                weights[:] = 0.0
                np.add.at(weights, inverse, rows[:, 1] / rows[:, 1].max())
                total = weights.sum()
            if total <= 0:
                raise ValueError("level weights must have a positive total")
            return SpectralMeasure(
                np.column_stack((energies, weights / total)))
    from .hamiltonian import load_hamiltonian
    from .spectra import exact_spectral_measure

    with _refusals_naming(args.ham):
        h = load_hamiltonian(args.ham)
    if args.state is not None:
        psi = _load_state_vector(args.state, h.dim)
    else:
        psi = np.full(h.dim, h.dim ** -0.5)
    with _refusals_naming(args.ham):
        # the solve refuses levels beyond the float range, and the
        # normalizer a spread beyond it
        return exact_spectral_measure(h, psi)


# ---------------------------------------------------------------------------
# Command handlers (heavy imports stay local)
# ---------------------------------------------------------------------------

def cmd_compress(args):
    from .gf2 import compress

    with _refusals_naming(args.input):
        with open(args.input, encoding="utf-8") as fh:
            dets = [line.strip() for line in fh
                    if line.strip() and not line.lstrip().startswith("#")]
        if not dets:
            raise ValueError("no determinant bitstrings found")
        smap = compress(dets, check=args.check)
    _emit_json(smap.as_dict(), args)
    return EXIT_OK


def cmd_estimate_cost(args):
    from .resources import cost_sweep

    det_counts = args.d_values or []
    chi_values = args.chi_values or []
    if not det_counts and not chi_values:
        raise ValueError("give --d-values and/or --chi-values to sweep")
    rows = cost_sweep(args.n_spatial, det_counts=det_counts,
                      chi_values=chi_values, d=args.local_dim,
                      b=args.rotation_bits, n_sites=args.n_sites)
    _emit_csv(("param", "method", "toffoli", "clean_qubits", "dirty_qubits"),
              [(param, r.method, r.toffoli, r.clean_qubits, r.dirty_qubits)
               for param, r in rows], args.out)
    return EXIT_OK


def cmd_ham_build(args):
    from .hamiltonian import build_ci_matrix, parse_fcidump, save_hamiltonian

    with _refusals_naming(args.fcidump):
        with open(args.fcidump, encoding="utf-8") as fh:
            fd = parse_fcidump(fh.read())
        h = build_ci_matrix(fd, args.na, args.nb, dim_cap=args.dim_cap)
    save_hamiltonian(h, args.out)
    _emit_json({"n_orbitals": fd.n_orb, "n_alpha": args.na,
                "n_beta": args.nb, "dim": h.dim,
                "matrix": args.out}, args, path="-")
    return EXIT_OK


def cmd_convert(args):
    from .states import (load_mps, load_sos, mps_to_sos, save_mps, save_sos,
                         sos_to_mps)

    load = load_sos if args.to == "mps" else load_mps
    with _refusals_naming(args.input):
        source = load(args.input)
    if args.to == "mps":
        mps, fidelity = sos_to_mps(source, chi_max=args.chi_max)
        save_mps(mps, args.out)
        summary = {"to": "mps", "n_sites": len(mps.tensors),
                   "max_bond": max(t.shape[2] for t in mps.tensors),
                   "fidelity": float(fidelity), "output": args.out}
    else:
        state = mps_to_sos(source, threshold=args.threshold,
                           term_budget=args.term_budget)
        if not state.terms:
            raise RuntimeError("no determinant has squared amplitude above "
                               f"--threshold {args.threshold!r}")
        save_sos(state, args.out)
        summary = {"to": "sos", "n_terms": len(state.terms),
                   "output": args.out}
    _emit_json(summary, args, path="-")
    return EXIT_OK


def cmd_simulate_encode(args):
    from .encodesim import simulate_sos_encoding
    from .states import load_sos

    with _refusals_naming(args.sos):
        state = load_sos(args.sos).normalize()
    res = simulate_sos_encoding(state)
    report = {
        "n_system": res.n_system,
        "n_enumeration": res.n_enumeration,
        "n_identification": res.n_identification,
        "n_qubits": res.n_qubits,
        "fidelity": float(res.fidelity),
        "ancilla_residual": float(res.ancilla_residual),
        "gate_tallies": {"cnots_applied": res.n_cnots_applied,
                         "uncompute_ops": res.n_uncompute_ops},
    }
    _emit_json(report, args, path=args.report)
    return EXIT_OK


def cmd_energy_dist(args):
    import numpy as np

    from .spectra import (MomentSet, broaden, coarse_qpe_sample,
                          default_grid, gram_charlier, kde,
                          moments_from_measure)

    grid = default_grid(args.grid_points)
    if args.method == "resolvent" and args.ham is None:
        raise ValueError("--method resolvent needs --ham")
    measure = _load_measure(args)
    if args.method == "resolvent":
        # -(1/pi) Im <psi|(H - E + i eta)^-1|psi> is exactly the Lorentzian
        # broadening of the state's spectral measure.
        grid, values = broaden(measure, args.eta, grid)
    elif args.method == "series":
        ms = moments_from_measure(measure, args.order)
        density = gram_charlier(ms, args.order)
        values = density(grid)
    else:  # cqpe
        samples = coarse_qpe_sample(measure, args.k, args.shots, args.seed)
        grid, values = kde(samples, bandwidth=2.0 ** -args.k, grid=grid)

    normalizer = measure.normalizer
    if normalizer is not None:
        # Report in the Hamiltonian's original units: map the grid back and
        # scale the density by the Jacobian of the affine map.
        grid_out = normalizer.invert(grid)
        values_out = values * normalizer.scale
    else:
        grid_out, values_out = grid, values
    _emit_csv(("E", "P"), np.column_stack((grid_out, values_out)), args.out)

    if args.sidecar is not None:
        if normalizer is None:
            frame, energies = "readout", measure.energies
        else:
            frame, energies = "original", normalizer.invert(measure.energies)
        ms = MomentSet.from_raw([float(np.dot(measure.probs, energies ** n))
                                 for n in range(args.order + 1)])
        sidecar = {
            "method": args.method,
            "frame": frame,
            "raw_moments": [float(m) for m in ms.raw],
            "mean": float(ms.mean),
            "sigma": float(ms.sigma),
            "cumulants": (None if ms.kappa is None
                          else [float(k) for k in ms.kappa]),
            "energy_map": (None if normalizer is None else
                           {"scale": float(normalizer.scale),
                            "shift": float(normalizer.shift)}),
        }
        _emit_json(sidecar, args, path=args.sidecar)
    return EXIT_OK


def cmd_qpe_stats(args):
    from .qpestats import cdf_below, expected_min, qpe_outcome_distribution

    measure = _load_measure(args)
    dist = qpe_outcome_distribution(measure, args.k)
    report = {
        "k": args.k,
        "outcomes": 2 ** args.k,
        "mean_readout": float(dist.energies @ dist.probs),
    }
    if args.target is not None:
        report["target"] = args.target
        report["outcome_p_below"] = cdf_below(dist, args.target)
        report["spectral_p_below"] = cdf_below(measure, args.target)
    if args.reps is not None:
        report["reps"] = args.reps
        report["expected_min"] = float(expected_min(measure, args.reps))
    if args.full:
        report["distribution"] = [
            [x, e, p] for x, (e, p) in enumerate(dist.levels.tolist())]
    _emit_json(report, args)
    return EXIT_OK


def cmd_goldilocks(args):
    from .qpestats import goldilocks_report

    measure = _load_measure(args)
    report = goldilocks_report(measure, args.et, args.budget,
                               easy_threshold=args.easy_threshold)
    _emit_json(report.as_dict(), args)
    return EXIT_OK


def cmd_leakage(args):
    from .leakage import (LeakageSetup, diagnose_leakage, leak_prob_approx,
                          leak_prob_exact, leak_prob_integral)

    measure = _load_measure(args)
    setup = LeakageSetup(args.k, args.epsilon, args.e0)
    integral = None
    if args.gaussian is not None:
        # A smooth source admits the integral form of the estimate too.
        import numpy as np

        mean, sigma = args.gaussian

        def density(e):
            z = (e - mean) / sigma
            return np.exp(-z ** 2 / 2.0) / np.sqrt(2 * np.pi) / sigma

        integral = float(leak_prob_integral(
            density, setup, e_max=min(1.0, mean + 8 * sigma)))
    diagnosis = diagnose_leakage(measure, args.k, args.reps,
                                 flag_factor=args.flag_factor)
    _emit_json({
        "k": args.k,
        "epsilon": args.epsilon,
        "e0": args.e0,
        "exact": float(leak_prob_exact(measure, setup)),
        "approx": float(leak_prob_approx(measure, setup)),
        "integral": integral,
        "diagnosis": diagnosis.as_dict(),
    }, args)
    return EXIT_OK


def _emit_refinement(report, result, args):
    """Shared tail of the refine commands: the posterior summary, its weight
    at or below --et, the --posterior-out CSV, then the JSON report."""
    from .qpestats import cdf_below

    report.update(success_prob=float(result.success_prob),
                  query_cost=result.query_cost,
                  posterior_mean=float(result.posterior.mean()))
    if args.et is not None:
        report["p_below_target"] = float(
            cdf_below(result.posterior, args.et))
    if args.posterior_out is not None:
        _emit_csv(("E", "weight"), result.posterior.levels,
                  args.posterior_out)
    _emit_json(report, args)
    return EXIT_OK


def cmd_refine_cqpe(args):
    from .refine import coarse_qpe_postselect

    measure = _load_measure(args)
    result = coarse_qpe_postselect(measure, args.k, set(args.accept))
    return _emit_refinement(
        {"k": args.k,
         "accepted": sorted({x % 2 ** args.k for x in args.accept})},
        result, args)


def cmd_refine_qetu(args):
    from .refine import (qetu_angle_map, qetu_filter, qetu_params,
                         symmetric_filter)

    measure = _load_measure(args)
    angle_map = qetu_angle_map(float(measure.energies.min()),
                               float(measure.energies.max()),
                               args.angle_margin)
    mu, k_steep = qetu_params(float(angle_map.apply(args.el)),
                              float(angle_map.apply(args.eu)),
                              zeta=args.zeta)
    poly = symmetric_filter(k_steep, mu, args.degree)
    result = qetu_filter(measure, poly, angle_map=angle_map)
    return _emit_refinement(
        {"el": args.el, "eu": args.eu, "degree": args.degree,
         "mu": float(mu), "k_steep": float(k_steep)},
        result, args)


def cmd_refine_case_study(args):
    from .refine import gaussian_case_study

    report = gaussian_case_study(n_levels=args.n_levels)
    _emit_json(report.as_dict(), args)
    return EXIT_OK


def cmd_reproduce(args):
    from . import acceptance

    # CheckResult.line() holds no timing, so a rerun is byte-identical.
    results = [check() for check in acceptance.CHECKS]
    _write_text("".join(r.line() + "\n" for r in results), args.out)
    if args.h6 is not None:
        with _refusals_naming(args.h6), open(args.h6, encoding="utf-8") as fh:
            protocol = acceptance.h6_protocol_report(fh.read())
        _emit_json(protocol, args, path="-")
    return EXIT_OK if all(r.passed for r in results) else EXIT_NUMERICAL


# ---------------------------------------------------------------------------
# Parser construction and dispatch
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """argparse with two more readings: a token that starts with ``-``
    or ``-.`` and a digit is a value (``-1e-3`` too, not only ``-0.001``),
    and ``--flag=V1 V2 ...`` gives a flag of several values all of them
    (plain argparse takes V1 as the only one and fails)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def parse_known_args(self, args, namespace):
        # argparse passes both, positionally, from parse_args and from a
        # command group to its subparser
        args = sys.argv[1:] if args is None else list(args)
        options = self._option_string_actions
        split = []
        for i, tok in enumerate(args):
            if tok == "--":
                split += args[i:]
                break
            flag, eq, value = tok.partition("=")
            action = options.get(_long_option(flag, options)) if eq else None
            nargs = getattr(action, "nargs", None)
            several = isinstance(nargs, int) and nargs > 1
            split += [flag, value] if several else [tok]
        return super().parse_known_args(split, namespace)


@functools.cache
def build_parser():
    """Return ``(parser, registry)``, registry mapping each command path to
    its subparser.  Built once per process: nothing modifies either after
    this returns (``--config`` becomes argv tokens instead)."""
    parser = _Parser(
        prog="qprep",
        description="Sum-of-Slaters / MPS state preparation toolkit: "
                    "compression, cost models, CI Hamiltonians, encoding "
                    "simulation, energy distributions and refinement.")
    groups = {(): parser.add_subparsers(dest="command", metavar="COMMAND")}
    registry = {}

    def add(path, handler, help_text, description=None, measure=False,
            out=True):
        """Register the command ``path``; without a handler it is a group
        whose subcommands are added under ``path`` too."""
        sp = groups[path[:-1]].add_parser(
            path[-1], help=help_text, description=description or help_text)
        registry[path] = sp
        if handler is None:
            groups[path] = sp.add_subparsers(dest="mode", metavar="MODE")
        else:
            sp.set_defaults(handler=handler)
            if measure:
                _add_measure_args(sp)
            _add_common(sp, out=out)
        return sp

    sp = add(("compress",), cmd_compress,
             "GF(2) signature compression of determinant bitstrings")
    sp.add_argument("--input", required=True, metavar="FILE",
                    help="one occupation bitstring per line")
    sp.add_argument("--check", action="store_true",
                    help="also assert, at every level of the signature "
                         "search, that the kernel avoids every substring "
                         "and every pairwise difference")

    sp = add(("estimate-cost",), cmd_estimate_cost,
             "Toffoli/qubit cost sweep for the encoding methods")
    sp.add_argument("--n-spatial", type=_positive_int, required=True,
                    metavar="N", help="spatial orbital count")
    sp.add_argument("--d-values", type=_positive_int_list,
                    metavar="D1,D2,...",
                    help="determinant counts for the basic/compressed rows")
    sp.add_argument("--chi-values", type=_positive_int_list,
                    metavar="X1,X2,...",
                    help="bond dimensions for the MPS rows")
    sp.add_argument("--local-dim", type=_in_range(int, 2), default=4,
                    metavar="d", help="MPS local dimension (default 4)")
    sp.add_argument("--rotation-bits", type=_positive_int, default=10,
                    metavar="b",
                    help="bits per synthesized rotation (default 10)")
    sp.add_argument("--n-sites", type=_positive_int, metavar="L",
                    help="MPS site count (default: one per spatial orbital)")

    add(("ham",), None, "CI Hamiltonian construction")
    sp = add(("ham", "build"), cmd_ham_build,
             "build a sector CI matrix from an FCIDUMP file",
             description="Parse an FCIDUMP file and assemble the dense CI "
                         "matrix of one (n_alpha, n_beta) sector.",
             out=False)
    sp.add_argument("--fcidump", required=True, metavar="FILE")
    sp.add_argument("--na", type=_nonnegative_int, required=True,
                    help="alpha electrons")
    sp.add_argument("--nb", type=_nonnegative_int, required=True,
                    help="beta electrons")
    sp.add_argument("--out", required=True, metavar="FILE",
                    help="matrix output (.npz, or .csv for plain text)")
    sp.add_argument("--dim-cap", type=_positive_int, default=4096,
                    metavar="N",
                    help="refuse sectors larger than this (default 4096)")

    sp = add(("convert",), cmd_convert,
             "convert between sum-of-Slaters and MPS state files",
             out=False)
    sp.add_argument("--input", required=True, metavar="FILE")
    sp.add_argument("--to", required=True, choices=("mps", "sos"))
    sp.add_argument("--out", required=True, metavar="FILE",
                    help="converted state output (JSON for sos, .npz "
                         "for mps)")
    sp.add_argument("--chi-max", type=_positive_int, default=64, metavar="X",
                    help="bond-dimension cap for --to mps (default 64)")
    sp.add_argument("--threshold", default=1e-10,
                    type=_in_range(float, 0.0, sys.float_info.max),
                    help="amplitude cutoff for --to sos (default 1e-10)")
    sp.add_argument("--term-budget", type=_positive_int, default=1_000_000,
                    help="refuse extractions beyond this many terms")

    sp = add(("simulate-encode",), cmd_simulate_encode,
             "simulate the enumeration-register encoding of a state",
             out=False)
    sp.add_argument("--sos", required=True, metavar="FILE",
                    help="sum-of-Slaters JSON input")
    sp.add_argument("--report", metavar="FILE",
                    help="write the JSON report here (default stdout)")

    sp = add(("energy-dist",), cmd_energy_dist,
             "energy distribution of a state: moment series, resolvent "
             "(Lorentzian-broadened exact measure), or sampled coarse "
             "readout", measure=True)
    sp.add_argument("--method", required=True,
                    choices=("series", "resolvent", "cqpe"))
    sp.add_argument("--order", type=_in_range(int, 2), default=8,
                    metavar="N",
                    help="moment order for the series and sidecar, >= 2 "
                         "(default 8)")
    sp.add_argument("--eta", type=_positive_float, default=0.01,
                    help="Lorentzian half-width of the resolvent, finite "
                         "and > 0 (default 0.01); the resolvent curve is "
                         "the exact Lorentzian broadening of the measure")
    sp.add_argument("--k", type=_positive_int, default=6,
                    help="readout digits for cqpe (default 6)")
    sp.add_argument("--shots", type=_capped_count, default=4096,
                    help="cqpe sample count, at most 2^20 (default 4096)")
    sp.add_argument("--grid-points", type=_in_range(int, 2), default=512,
                    metavar="N",
                    help="energy grid resolution, >= 2 (default 512)")
    sp.add_argument("--sidecar", metavar="FILE",
                    help="write moments/cumulants JSON here")

    sp = add(("qpe-stats",), cmd_qpe_stats,
             "exact k-digit readout statistics of a spectrum", measure=True)
    sp.add_argument("--k", type=_positive_int, required=True,
                    help="readout digits")
    sp.add_argument("--target", type=_finite_float, metavar="E",
                    help="report P(readout <= E) and P(spectrum <= E)")
    sp.add_argument("--reps", type=_positive_int, metavar="K",
                    help="report the expected minimum of K readouts")
    sp.add_argument("--full", action="store_true",
                    help="include the full outcome table")

    sp = add(("goldilocks",), cmd_goldilocks,
             "classify a target energy as easy / Goldilocks / out of reach",
             measure=True)
    sp.add_argument("--et", type=_finite_float, required=True, metavar="E",
                    help="target energy (readout frame)")
    sp.add_argument("--budget", type=_positive_int, required=True,
                    metavar="K",
                    help="repetition budget")
    sp.add_argument("--easy-threshold", default=0.5,
                    type=_in_range(float, 0.0, 1.0, open_lo=True),
                    help="single-shot hit probability above which the "
                         "target counts as easy, in (0, 1] (default 0.5)")

    sp = add(("leakage",), cmd_leakage,
             "probability of readouts below the tolerated-error window",
             measure=True)
    sp.add_argument("--k", type=_positive_int, required=True,
                    help="readout digits")
    sp.add_argument("--epsilon", type=_positive_float, required=True,
                    help="tolerated energy error (> 0)")
    sp.add_argument("--e0", type=_unit_float, default=0.0,
                    help="reference ground energy in [0, 1] (default 0)")
    sp.add_argument("--reps", type=_positive_int, default=10,
                    help="repetitions for the diagnosis (default 10)")
    sp.add_argument("--flag-factor", type=_positive_float, default=2.0,
                    help="readout/energy CDF ratio that raises the flag, "
                         "> 0 (default 2)")

    add(("refine",), None, "posterior refinement of a prepared state")
    sp = add(("refine", "cqpe"), cmd_refine_cqpe,
             "postselect on accepted coarse-readout outcomes",
             description="Bayesian update of the spectrum after "
                         "postselecting a set of k-digit readout outcomes.",
             measure=True)
    sp.add_argument("--k", type=_positive_int, required=True,
                    help="readout digits")
    sp.add_argument("--accept", type=_int_list, required=True,
                    metavar="X1,X2,...", help="accepted register outcomes")
    _add_posterior_args(sp)

    sp = add(("refine", "qetu"), cmd_refine_qetu,
             "apply an erf-style symmetric filter window",
             description="Filter the spectrum with a Chebyshev approximation "
                         "of a symmetric erf window over [el, eu], mapped "
                         "onto the QETU angle interval.",
             measure=True)
    sp.add_argument("--el", type=_finite_float, required=True,
                    help="window lower edge (readout frame)")
    sp.add_argument("--eu", type=_finite_float, required=True,
                    help="window upper edge (readout frame)")
    sp.add_argument("--degree", type=_even_degree, default=200,
                    help="polynomial degree, even and >= 2 (default 200)")
    sp.add_argument("--zeta", type=_positive_float, default=1.0,
                    help="steepness softening factor, > 0 (default 1)")
    sp.add_argument("--angle-margin", default=0.1,
                    type=_in_range(float, 0.0, math.pi / 2, open_lo=True,
                                   open_hi=True),
                    help="gap kept between the mapped spectrum and the "
                         "angle-interval ends, in (0, pi/2) (default 0.1)")
    _add_posterior_args(sp)

    sp = add(("refine", "case-study"), cmd_refine_case_study,
             "run the bundled Gaussian refinement case study",
             description="Re-derive the twelve reference numbers of the "
                         "bundled Gaussian refinement walkthrough and report "
                         "each comparison.")
    sp.add_argument("--n-levels", type=_capped_count, default=4096,
                    metavar="N",
                    help="discretization levels, at most 2^20 (default 4096)")

    sp = add(("reproduce",), cmd_reproduce,
             "re-derive every headline number and print pass/fail lines")
    sp.add_argument("--h6", metavar="FCIDUMP",
                    help="also run the six-orbital chain protocol on this "
                         "FCIDUMP file and print its JSON report")

    return parser, registry


def dispatch(argv=None):
    """Run one command; returns the process exit code."""
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser, registry = build_parser()
    if not argv:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        argv = _expand_config(argv, registry)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help, 2 for usage errors.
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    handler = getattr(args, "handler", None)
    if handler is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        with blas.command(_thread_count(args)):
            return handler(args)
    except Exception as exc:  # noqa: BLE001 - single classification point
        print(f"error: {exc}", file=sys.stderr)
        if _is_numerical(exc):
            return EXIT_NUMERICAL
        if isinstance(exc, (OSError, ValueError, KeyError)):
            return EXIT_INPUT
        return EXIT_NUMERICAL


def main():
    # a cold process: stop the workers OpenBLAS starts when it loads
    blas.park()
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
