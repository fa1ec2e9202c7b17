"""Per-layer tracing from outside the package.

A :class:`Tracer` wraps the public functions of each qprep module (the
layers) and rebinds every module attribute that refers to them, so callers
that resolve a function at call time (the ``cli`` handlers) and callers
that bound it at import time (``qpestats``, ``leakage``, ``refine``) both
hit the wrapper.  Each wrapper records one span; a layer's self time is its
span duration minus the spans it caused.  Spans are aggregated in memory
per name (calls, total, self) and dropped by :meth:`Tracer.reset`.

Calls to functions with a work counter keep their arguments and result
until the batch ends; :func:`work_counters` derives the counts from them
outside the timed region.
"""

import functools
import inspect
import sys
import time

LAYERS = ("cli", "hamiltonian", "spectra", "qpestats", "leakage", "refine",
          "gf2", "encodesim", "states", "resources")

# Functions whose calls are kept for the work counters.
_RECORDED = frozenset({
    "hamiltonian.build_ci_matrix",
    "spectra.resolvent_distribution",
    "spectra.exact_spectral_measure",
    "spectra.coarse_qpe_sample",
    "spectra.SpectralMeasure",
    "qpestats.qpe_outcome_distribution",
    "leakage.leak_prob_exact",
    "refine.coarse_qpe_postselect",
    "gf2.compress",
    "encodesim.simulate_sos_encoding",
    "encodesim.simulate_mps_circuit",
})

# Dense eigensolvers counted (not spanned) for eigensolves_per_measure.
_EIGENSOLVERS = (("numpy.linalg", "eigh"), ("numpy.linalg", "eigvalsh"),
                 ("scipy.linalg", "eigh"), ("scipy.linalg", "eigvalsh"))


def _compress_span(args, kwargs):
    check = kwargs.get("check", args[1] if len(args) > 1 else False)
    return "gf2.compress.check" if check else "gf2.compress.nocheck"


class Tracer:
    """Installs span wrappers on the qprep layers; aggregates self time."""

    def __init__(self):
        self.stats = {}        # span name -> [calls, total_s, self_s]
        self.calls = []        # (name, args, kwargs, result) of _RECORDED
        self.eigensolves = 0
        self._stack = []
        self._patches = []

    # -- wrappers -------------------------------------------------------

    def _span(self, name, fn, namer=None):
        stats, stack, calls = self.stats, self._stack, self.calls
        record = name in _RECORDED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                key = namer(args, kwargs) if namer else name
                st = stats.get(key)
                if st is None:
                    st = stats[key] = [0, 0.0, 0.0]
                st[0] += 1
                st[1] += dur
                st[2] += dur - frame[0]
            if record:
                calls.append((name, args, kwargs, result))
            return result

        return traced

    def _counter(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.eigensolves += 1
            return fn(*args, **kwargs)

        return counted

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    # -- install / remove -----------------------------------------------

    def install(self):
        import importlib

        modules = {name: importlib.import_module("qprep." + name)
                   for name in LAYERS}
        wrappers = {}              # id(original) -> wrapper
        originals = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                if layer == "cli" and attr != "dispatch":
                    continue   # handler time counts as dispatch self time
                namer = _compress_span if (layer, attr) == ("gf2", "compress") \
                    else None
                wrappers[id(obj)] = self._span(f"{layer}.{attr}", obj, namer)
                originals[id(obj)] = obj
        # Rebind every module-level reference, including import-time
        # ``from .x import f`` copies in other qprep modules.
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "qprep"
                                   or modname.startswith("qprep.")):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and originals[id(obj)] is obj:
                    self._set(mod, attr, wrappers[id(obj)])
        ham, spectra = modules["hamiltonian"], modules["spectra"]
        self._set(ham.DenseHamiltonian, "eigensystem",
                  self._span("hamiltonian.DenseHamiltonian.eigensystem",
                             ham.DenseHamiltonian.eigensystem))
        self._set(spectra.SpectralMeasure, "__post_init__",
                  self._span("spectra.SpectralMeasure",
                             spectra.SpectralMeasure.__post_init__))
        for modname, attr in _EIGENSOLVERS:
            mod = importlib.import_module(modname)
            self._set(mod, attr, self._counter(getattr(mod, attr)))
        return self

    def uninstall(self):
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def reset(self):
        self.stats.clear()
        self.calls.clear()
        self.eigensolves = 0


# ---------------------------------------------------------------------------
# Work counters, computed from recorded calls after the batch
# ---------------------------------------------------------------------------

def _arg(args, kwargs, index, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def _levels(m):
    from qprep.spectra import as_measure

    return as_measure(m)


def work_counters(tracer):
    """Counts of work a batch asked for, derived from inputs and outputs.

    They depend only on the generated inputs, so they repeat exactly for a
    seed.  Flop and byte figures are computed from sizes, not measured.
    """
    import numpy as np

    c = dict.fromkeys((
        "hamiltonian.ci_pairs_visited", "ci_nonzero", "measures",
        "spectra.resolvent_solves", "spectra.resolvent_gflop",
        "spectra.cqpe_shots", "spectra.SpectralMeasure.levels",
        "qpestats.kernel_evals", "leakage.exact_bin_evals",
        "cqpe_accepted", "cqpe_bins", "gf2.input_bits",
        "encodesim.cnots_applied", "encodesim.uncompute_ops",
        "encodesim.mps_gates"), 0)
    for name, args, kwargs, result in tracer.calls:
        if name == "hamiltonian.build_ci_matrix":
            dim = result.dim
            c["hamiltonian.ci_pairs_visited"] += dim * (dim - 1) // 2
            c["ci_nonzero"] += int(np.count_nonzero(np.triu(result.entries, 1)))
        elif name == "spectra.exact_spectral_measure":
            c["measures"] += 1
        elif name == "spectra.resolvent_distribution":
            n = _arg(args, kwargs, 0, "h")
            n = n.dim if hasattr(n, "dim") else len(n)
            solves = len(result[0])
            c["spectra.resolvent_solves"] += solves
            # complex LU (8/3 n^3) plus the solve and residual (16 n^2)
            c["spectra.resolvent_gflop"] += solves * (8 / 3 * n ** 3
                                                      + 16 * n ** 2) / 1e9
        elif name == "spectra.coarse_qpe_sample":
            c["spectra.cqpe_shots"] += int(_arg(args, kwargs, 2, "shots"))
        elif name == "spectra.SpectralMeasure":
            c["spectra.SpectralMeasure.levels"] += len(args[0].levels)
        elif name == "qpestats.qpe_outcome_distribution":
            k = int(_arg(args, kwargs, 1, "k"))
            c["qpestats.kernel_evals"] += len(
                _levels(_arg(args, kwargs, 0, "m")).levels) * 2 ** k
        elif name == "leakage.leak_prob_exact":
            measure = _levels(_arg(args, kwargs, 0, "m"))
            setup = _arg(args, kwargs, 1, "setup")
            cut = _arg(args, kwargs, 2, "exclude_below")
            cut = setup.exclude_below if cut is None else cut
            counted = int(np.sum(measure.energies > cut))
            bins = max(0, setup.x_upper - setup.window_low)
            c["leakage.exact_bin_evals"] += counted * bins
        elif name == "refine.coarse_qpe_postselect":
            size = 2 ** int(_arg(args, kwargs, 1, "k"))
            accepted = _arg(args, kwargs, 2, "accepted")
            c["cqpe_accepted"] += len({int(x) % size for x in accepted})
            c["cqpe_bins"] += size
        elif name == "gf2.compress":
            nus = list(_arg(args, kwargs, 0, "nus"))
            c["gf2.input_bits"] += sum(len(s) for s in nus)
        elif name == "encodesim.simulate_sos_encoding":
            c["encodesim.cnots_applied"] += result.n_cnots_applied
            c["encodesim.uncompute_ops"] += result.n_uncompute_ops
        elif name == "encodesim.simulate_mps_circuit":
            c["encodesim.mps_gates"] += result.n_gates
    out = {k: v for k, v in c.items() if "." in k}
    out["hamiltonian.ci_pair_hit_ratio"] = (
        c["ci_nonzero"] / c["hamiltonian.ci_pairs_visited"]
        if c["hamiltonian.ci_pairs_visited"] else 0.0)
    out["hamiltonian.eigensolves_per_measure"] = (
        tracer.eigensolves / c["measures"] if c["measures"] else 0.0)
    out["refine.cqpe_useful_ratio"] = (
        c["cqpe_accepted"] / c["cqpe_bins"] if c["cqpe_bins"] else 0.0)
    # one float64 written per kernel value
    out["qpestats.kernel_bytes"] = 8 * c["qpestats.kernel_evals"]
    return out


def span_stat(tracer, name, stat):
    """``calls``, ``total_s`` or ``self_s`` of one span name (0 if unseen)."""
    st = tracer.stats.get(name)
    if st is None:
        return 0
    return {"calls": st[0], "total_s": st[1], "self_s": st[2]}[stat]


def layer_self_s(tracer, layer):
    return sum(st[2] for name, st in tracer.stats.items()
               if name.split(".", 1)[0] == layer)


def per_layer_values(tracer, spec):
    """Evaluate one traced batch against the per-layer metric list.

    ``spec`` maps metric names to units; names ending in ``.self_s``,
    ``.total_s`` or ``.calls`` read span aggregates, ``<layer>.layer.self_s``
    sums a layer, and the rest come from :func:`work_counters`.
    """
    counters = work_counters(tracer)
    qod = tracer.stats.get("qpestats.qpe_outcome_distribution")
    counters["qpestats.kernel_evals_per_s"] = (
        counters["qpestats.kernel_evals"] / qod[1] if qod and qod[1] > 0
        else 0.0)
    values = {}
    for name in spec:
        if name in counters:
            values[name] = counters[name]
        elif name.endswith(".layer.self_s"):
            values[name] = layer_self_s(tracer, name.split(".", 1)[0])
        elif name.rsplit(".", 1)[1] in ("self_s", "total_s", "calls"):
            span, stat = name.rsplit(".", 1)
            values[name] = span_stat(tracer, span, stat)
    return values
