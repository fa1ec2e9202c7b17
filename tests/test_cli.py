import hashlib
import json
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from qprep import blas, cli


TWO_ORBITAL = """&FCI NORB=2,NELEC=2,MS2=0,
 ORBSYM=1,1,
 ISYM=1,
&END
 0.2 1 1 1 1
 0.1 2 1 1 1
-1.0 1 1 0 0
-0.5 2 2 0 0
 0.7 0 0 0 0
"""

GAUSSIAN = ["--gaussian", "0.06", "0.02"]


def run_json(capsys, argv):
    code = cli.dispatch(argv)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return json.loads(captured.out)


# ---------------------------------------------------------------------------
# Usage surface and exit codes
# ---------------------------------------------------------------------------

def test_no_arguments_is_a_usage_error(capsys):
    assert cli.dispatch([]) == cli.EXIT_USAGE
    assert "usage" in capsys.readouterr().err


def test_unknown_command_is_a_usage_error(capsys):
    assert cli.dispatch(["frobnicate"]) == cli.EXIT_USAGE
    capsys.readouterr()


def test_help_exits_clean(capsys):
    assert cli.dispatch(["--help"]) == cli.EXIT_OK
    assert cli.dispatch(["refine", "--help"]) == cli.EXIT_OK
    capsys.readouterr()


def test_bare_command_groups_are_usage_errors(capsys):
    assert cli.dispatch(["refine"]) == cli.EXIT_USAGE
    assert cli.dispatch(["ham"]) == cli.EXIT_USAGE
    capsys.readouterr()


def test_seed_must_fit_in_64_bits(capsys):
    argv = ["qpe-stats", *GAUSSIAN, "--k", "3", "--seed"]
    assert cli.dispatch(argv + ["-1"]) == cli.EXIT_USAGE
    assert cli.dispatch(argv + [str(2 ** 64)]) == cli.EXIT_USAGE
    assert cli.dispatch(argv + [str(2 ** 64 - 1)]) == cli.EXIT_OK
    capsys.readouterr()


def test_missing_input_file_is_an_input_error(capsys):
    assert cli.dispatch(["compress", "--input", "/no/such/file"]) \
        == cli.EXIT_INPUT
    capsys.readouterr()


def test_malformed_fcidump_reports_line_number(tmp_path, capsys):
    bad = tmp_path / "bad.fcidump"
    bad.write_text("&FCI NORB=2,NELEC=2,MS2=0,\n&END\n 0.2 1 1 x 1\n")
    code = cli.dispatch(["ham", "build", "--fcidump", str(bad),
                         "--na", "1", "--nb", "1",
                         "--out", str(tmp_path / "h.npz")])
    captured = capsys.readouterr()
    assert code == cli.EXIT_INPUT
    assert captured.err.startswith(f"error: {bad}: line 3")


def test_dimension_cap_is_a_numerical_refusal(tmp_path, capsys):
    fc = tmp_path / "two.fcidump"
    fc.write_text(TWO_ORBITAL)
    code = cli.dispatch(["ham", "build", "--fcidump", str(fc),
                         "--na", "1", "--nb", "1", "--dim-cap", "2",
                         "--out", str(tmp_path / "h.npz")])
    capsys.readouterr()
    assert code == cli.EXIT_NUMERICAL


def test_empty_postselection_is_a_numerical_failure(tmp_path, capsys):
    levels = tmp_path / "zero.csv"
    levels.write_text("0.0,1.0\n")
    code = cli.dispatch(["refine", "cqpe", "--levels", str(levels),
                         "--k", "3", "--accept", "4"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_NUMERICAL
    assert "accepted" in captured.err


def test_readout_digits_over_the_cap_are_refused(capsys):
    # 2^40 outcomes: refused with exit 3 before anything of that size exists
    code = cli.dispatch(["qpe-stats", "--gaussian", "0.1", "0.02",
                         "--k", "40"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_NUMERICAL
    assert "cap" in captured.err


def test_zero_width_gaussian_is_refused_not_nan(tmp_path, capsys):
    out = tmp_path / "series.csv"
    code = cli.dispatch(["energy-dist", "--gaussian", "0.06", "0.0",
                         "--method", "series", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == cli.EXIT_USAGE
    assert "--gaussian" in captured.err and "sigma" in captured.err
    assert not out.exists()


@pytest.mark.parametrize("mean, sigma", [
    ("0.5", "1e-300"),     # mean +- 6 sigma round to the mean
    ("1e308", "1e308"),    # mean + 6 sigma overflows
])
def test_unrepresentable_gaussian_is_a_usage_error(mean, sigma, capsys):
    code = cli.dispatch(["qpe-stats", "--gaussian", mean, sigma, "--k", "4"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_USAGE
    assert "--gaussian" in captured.err and "6 sigma" in captured.err


def test_narrow_gaussian_is_accepted(capsys):
    report = run_json(capsys, ["qpe-stats", "--gaussian", "0.5", "1e-12",
                               "--k", "4"])
    # 0.5 is a 4-digit readout, so the outcome law sits on it
    assert report["outcomes"] == 16
    assert math.isclose(report["mean_readout"], 0.5, abs_tol=1e-12)


@pytest.mark.parametrize("argv, same_as", [
    (["qpe-stats", "--gaussian", "-1e-3", "0.02", "--k", "4"],
     ["qpe-stats", "--gaussian", "-0.001", "0.02", "--k", "4"]),
    (["qpe-stats", "--gaussian=-1e-3", "0.02", "--k", "4"],
     ["qpe-stats", "--gaussian", "-0.001", "0.02", "--k", "4"]),
    (["qpe-stats", "--gauss=-1e-3", "0.02", "--k", "4"],
     ["qpe-stats", "--gaussian", "-0.001", "0.02", "--k", "4"]),
    (["qpe-stats", "--gaussian", "0.5", "0.02", "--target", "-1e-3",
      "--k", "4"],
     ["qpe-stats", "--gaussian", "0.5", "0.02", "--target", "-0.001",
      "--k", "4"]),
    (["goldilocks", "--gaussian", "0.5", "0.02", "--et", "-1e-3",
      "--budget", "100"],
     ["goldilocks", "--gaussian", "0.5", "0.02", "--et", "-0.001",
      "--budget", "100"])],
    ids=["gaussian", "gaussian=", "gauss=", "target", "et"])
def test_negative_value_with_an_exponent_is_a_value(argv, same_as, capsys):
    assert cli.dispatch(argv) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert cli.dispatch(same_as) == cli.EXIT_OK
    assert out == capsys.readouterr().out != ""


def test_levels_file_with_nan_weight_is_an_input_error(tmp_path, capsys):
    levels = tmp_path / "nan.csv"
    levels.write_text("0.2,0.5\n0.4,nan\n")
    code = cli.dispatch(["qpe-stats", "--levels", str(levels), "--k", "3"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_INPUT
    assert "non-finite" in captured.err


def test_negative_level_weight_is_refused_naming_the_row(tmp_path, capsys):
    # a weight of -1e-11 is within the measure's rounding allowance, but
    # its file can no longer print a probability above 1
    levels = tmp_path / "lv_neg.csv"
    levels.write_text("0.1,1\n0.1,1\n0.7,-1e-11\n")
    _refused_naming(capsys, levels,
                    ["qpe-stats", "--levels", str(levels), "--k", "4",
                     "--target", "0.15"],
                    "level weight in row 3 is negative")
    levels.write_text("E,weight\n0.1,0.5\n0.2,-0.0\n0.3,0.5\n")
    assert cli.dispatch(["qpe-stats", "--levels", str(levels),
                         "--k", "4"]) == cli.EXIT_OK
    assert capsys.readouterr().err == ""


def test_levels_whose_weights_overflow_their_sum_are_scaled(tmp_path,
                                                           capsys):
    import argparse

    huge, unit = tmp_path / "huge.csv", tmp_path / "unit.csv"
    huge.write_text("0.5,1e308\n0.6,1e308\n")
    unit.write_text("0.5,1\n0.6,1\n")
    measure = cli._load_measure(argparse.Namespace(
        gaussian=None, levels=str(huge), ham=None))
    assert measure.probs.tolist() == [0.5, 0.5]
    argv = ["qpe-stats", "--k", "3", "--target", "0.5", "--levels"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.dispatch(argv + [str(huge)])
    captured = capsys.readouterr()
    assert code == cli.EXIT_OK
    assert captured.err == "" and caught == []
    assert cli.dispatch(argv + [str(unit)]) == cli.EXIT_OK
    assert capsys.readouterr().out == captured.out


def test_csv_output_refuses_non_finite_values():
    with pytest.raises(ValueError, match="non-finite"):
        cli._emit_csv(("E", "P"), [(0.1, 0.2), (0.3, float("nan"))], "-")


@pytest.mark.parametrize("argv", [
    ["qpe-stats", *GAUSSIAN, "--k", "0"],
    ["qpe-stats", *GAUSSIAN, "--k", "3", "--reps", "0"],
    ["goldilocks", *GAUSSIAN, "--et", "0.0", "--budget", "0"],
    ["energy-dist", *GAUSSIAN, "--method", "cqpe", "--shots", "0"],
    ["leakage", *GAUSSIAN, "--k", "6", "--epsilon", "0.01", "--e0", "1.5"],
    ["energy-dist", *GAUSSIAN, "--method", "resolvent", "--eta", "0"],
    ["energy-dist", *GAUSSIAN, "--method", "resolvent", "--eta", "-0.1"],
    ["energy-dist", *GAUSSIAN, "--method", "resolvent", "--eta", "inf"],
    ["energy-dist", *GAUSSIAN, "--method", "series", "--grid-points", "0"],
    ["energy-dist", *GAUSSIAN, "--method", "series", "--grid-points", "1"],
    ["leakage", *GAUSSIAN, "--k", "6", "--epsilon", "0"],
    ["qpe-stats", *GAUSSIAN, "--k", "3", "--n-levels", "0"],
    ["refine", "case-study", "--n-levels", "0"],
    ["energy-dist", *GAUSSIAN, "--method", "series", "--order", "1"],
    ["refine", "qetu", *GAUSSIAN, "--el", "0.0", "--eu", "0.1",
     "--degree", "3"],
    ["refine", "qetu", *GAUSSIAN, "--el", "0.0", "--eu", "0.1",
     "--degree", "0"],
    ["refine", "qetu", *GAUSSIAN, "--el", "0.0", "--eu", "0.1",
     "--degree", "4098"],
    ["refine", "qetu", *GAUSSIAN, "--el", "0.0", "--eu", "0.1",
     "--zeta", "0"],
    ["refine", "qetu", *GAUSSIAN, "--el", "0.0", "--eu", "0.1",
     "--angle-margin", "0"],
    ["refine", "qetu", *GAUSSIAN, "--el", "0.0", "--eu", "0.1",
     "--angle-margin", "1.5708"],
    ["goldilocks", *GAUSSIAN, "--et", "0.0", "--budget", "5",
     "--easy-threshold", "0"],
    ["goldilocks", *GAUSSIAN, "--et", "0.0", "--budget", "5",
     "--easy-threshold", "1.5"],
    ["leakage", *GAUSSIAN, "--k", "6", "--epsilon", "0.01",
     "--flag-factor", "0"],
    ["qpe-stats", *GAUSSIAN, "--k", "3", "--threads", "0"],
    ["ham", "build", "--fcidump", "f", "--out", "h.npz", "--na", "1",
     "--nb", "1", "--dim-cap", "0"],
    ["ham", "build", "--fcidump", "f", "--out", "h.npz", "--na=-1",
     "--nb", "1"],
    ["ham", "build", "--fcidump", "f", "--out", "h.npz", "--na", "1",
     "--nb=-1"],
    ["qpe-stats", "--gaussian", "0.06", "-0.01", "--k", "3"],
    ["energy-dist", "--gaussian", "0.06", "0", "--method", "series"],
    ["energy-dist", *GAUSSIAN, "--method", "cqpe", "--shots", "1048577"],
    ["qpe-stats", *GAUSSIAN, "--k", "3", "--n-levels", "1048577"],
    ["refine", "case-study", "--n-levels", "1048577"],
], ids=["k", "reps", "budget", "shots", "e0", "eta-zero", "eta-negative",
        "eta-inf", "grid-points-zero", "grid-points-one", "epsilon",
        "n-levels", "case-study-n-levels", "order-one", "degree-odd",
        "degree-zero", "degree-above-cap", "zeta-zero", "angle-margin-zero",
        "angle-margin-half-pi", "easy-threshold-zero",
        "easy-threshold-above-one", "flag-factor-zero", "threads-zero",
        "dim-cap-zero", "na-negative", "nb-negative", "sigma-negative",
        "sigma-zero", "shots-above-cap", "n-levels-above-cap",
        "case-study-n-levels-above-cap"])
def test_readout_flag_ranges_are_usage_errors(argv, capsys):
    assert cli.dispatch(argv) == cli.EXIT_USAGE
    assert "must" in capsys.readouterr().err


def test_degree_above_the_cap_is_refused_before_the_filter_is_built(
        capsys):
    import tracemalloc

    # degree 40,000 would ask for a 12.8 GB interpolation matrix
    tracemalloc.start()
    try:
        code = cli.dispatch(["refine", "qetu", *GAUSSIAN, "--el", "0.0",
                             "--eu", "0.1", "--degree", "40000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == cli.EXIT_USAGE
    assert "'40000' must be an int in [2, 4096]" in capsys.readouterr().err
    assert peak < 10_000_000


def _typed_flags():
    """(command path, flag, nargs) for every option with a type converter,
    found by walking the parser, so a flag added later is covered too."""
    _, registry = cli.build_parser()
    return [(path, action.option_strings[0], action.nargs)
            for path, sp in sorted(registry.items())
            for action in sp._actions
            if action.option_strings and action.type is not None]


TYPED_FLAGS = _typed_flags()


def test_typed_flags_cover_every_float_flag():
    flags = {flag for _, flag, _ in TYPED_FLAGS}
    assert flags >= {"--gaussian", "--target", "--et", "--el", "--eu",
                     "--zeta", "--flag-factor", "--easy-threshold",
                     "--angle-margin", "--eta", "--threshold", "--e0",
                     "--epsilon"}


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("path, flag, nargs", TYPED_FLAGS,
                         ids=[" ".join((*p, f)) for p, f, _ in TYPED_FLAGS])
def test_non_finite_flag_values_are_usage_errors(path, flag, nargs, value,
                                                 capsys):
    # every float-typed flag refuses non-finite values; the integer ones
    # refuse them as non-integers
    if isinstance(nargs, int) and nargs > 1:
        argv = [*path, flag, *["0.5"] * (nargs - 1), value]
    else:
        argv = [*path, f"{flag}={value}"]
    code = cli.dispatch(argv)
    captured = capsys.readouterr()
    assert code == cli.EXIT_USAGE
    assert captured.out == ""
    assert flag in captured.err
    # argparse reads a lone "-inf" as an option, so only there the value
    # never reaches the converter
    if argv[-1] != "-inf":
        assert repr(value) in captured.err


@pytest.mark.parametrize("argv", [
    ["convert", "--input", "s.json", "--to", "sos", "--out", "o.json",
     "--threshold", "nan"],
    ["convert", "--input", "s.json", "--to", "sos", "--out", "o.json",
     "--threshold", "inf"],
    ["convert", "--input", "s.json", "--to", "sos", "--out", "o.json",
     "--threshold", "-0.5"],
    ["convert", "--input", "s.json", "--to", "mps", "--out", "o.npz",
     "--chi-max", "0"],
    ["convert", "--input", "s.json", "--to", "sos", "--out", "o.json",
     "--term-budget", "0"],
    ["estimate-cost", "--n-spatial", "4", "--chi-values", "4",
     "--rotation-bits", "-5"],
    ["estimate-cost", "--n-spatial", "4", "--chi-values", "4",
     "--rotation-bits", "0"],
    ["estimate-cost", "--n-spatial", "4", "--chi-values", "4",
     "--local-dim", "1"],
    ["estimate-cost", "--n-spatial", "0", "--chi-values", "4"],
    ["estimate-cost", "--n-spatial", "4", "--chi-values", "4",
     "--n-sites", "0"],
    ["estimate-cost", "--n-spatial", "4", "--d-values", "0,-3"],
    ["estimate-cost", "--n-spatial", "4", "--chi-values", "0"],
], ids=["threshold-nan", "threshold-inf", "threshold-negative", "chi-max",
        "term-budget", "rotation-bits-negative", "rotation-bits-zero",
        "local-dim", "n-spatial", "n-sites", "d-values", "chi-values"])
def test_state_and_cost_flag_ranges_are_usage_errors(argv, capsys):
    assert cli.dispatch(argv) == cli.EXIT_USAGE
    assert "must" in capsys.readouterr().err


def test_expansion_keeping_no_determinant_is_refused(tmp_path, capsys):
    from qprep import states

    mps = tmp_path / "product.npz"
    states.save_mps(states.sos_to_mps(
        states.SosState(4, [(1.0, "1001")]), chi_max=1)[0], mps)
    out = tmp_path / "back.json"
    code = cli.dispatch(["convert", "--input", str(mps), "--to", "sos",
                         "--out", str(out), "--threshold", "1.5"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_NUMERICAL
    assert "--threshold 1.5" in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_unsupported_series_order_is_a_numerical_refusal(capsys):
    code = cli.dispatch(["energy-dist", *GAUSSIAN, "--method", "series",
                         "--order", "12"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_NUMERICAL
    assert "order" in captured.err


def test_out_of_range_config_value_is_an_input_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("k = 0\n")
    code = cli.dispatch(["qpe-stats", *GAUSSIAN, "--config", str(cfg)])
    capsys.readouterr()
    assert code == cli.EXIT_INPUT


def test_spectrum_source_must_be_unique(capsys):
    assert cli.dispatch(["qpe-stats", "--k", "3"]) == cli.EXIT_INPUT
    assert cli.dispatch(["qpe-stats", "--k", "3", *GAUSSIAN,
                         "--levels", "x.csv"]) == cli.EXIT_INPUT
    capsys.readouterr()


def test_bad_threads_are_rejected(capsys, monkeypatch):
    argv = ["qpe-stats", *GAUSSIAN, "--k", "3"]
    assert cli.dispatch(argv + ["--threads", "0"]) == cli.EXIT_USAGE
    monkeypatch.setenv("QPREP_THREADS", "lots")
    assert cli.dispatch(argv) == cli.EXIT_INPUT
    capsys.readouterr()


# ---------------------------------------------------------------------------
# Config files
# ---------------------------------------------------------------------------

def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_config_file_supplies_required_flags(tmp_path, capsys):
    cfg = tmp_path / "refine.cfg"
    cfg.write_text("k = 4\naccept = 0\n")
    report = run_json(capsys, ["refine", "cqpe", *GAUSSIAN,
                               "--config", str(cfg)])
    assert report["k"] == 4
    assert report["accepted"] == [0]
    # the shared parser took none of it: both flags are required again
    assert cli.dispatch(["refine", "cqpe", *GAUSSIAN]) == cli.EXIT_USAGE
    assert "--k, --accept" in capsys.readouterr().err


def test_explicit_flags_override_the_config(tmp_path, capsys):
    cfg = tmp_path / "refine.cfg"
    cfg.write_text("k = 4\naccept = 0\n")
    report = run_json(capsys, ["refine", "cqpe", *GAUSSIAN,
                               "--config", str(cfg), "--accept", "3"])
    assert report["accepted"] == [3]


def test_unknown_config_key_is_an_input_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus = 1\n")
    code = cli.dispatch(["refine", "cqpe", *GAUSSIAN, "--config", str(cfg),
                         "--k", "4", "--accept", "0"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_INPUT
    assert "bogus" in captured.err


def test_config_handles_multivalue_and_boolean_keys(tmp_path, capsys):
    cfg = tmp_path / "stats.cfg"
    cfg.write_text("gaussian = 0.06 0.02\nk = 4\nfull = true\n")
    report = run_json(capsys, ["qpe-stats", "--config", str(cfg)])
    assert report["k"] == 4
    assert len(report["distribution"]) == 16


@pytest.mark.parametrize("form", ["--conf FILE", "--conf=FILE",
                                  "--c FILE", "--config=FILE"])
def test_config_flag_prefix_reads_the_file(tmp_path, capsys, form):
    # argparse takes any unambiguous prefix for --config, and so does the
    # splice of the file
    cfg = tmp_path / "f.cfg"
    cfg.write_text("full = yes\n")
    argv = ["qpe-stats", *GAUSSIAN, "--k", "2"]
    report = run_json(capsys, argv + form.replace("FILE", str(cfg)).split())
    assert len(report["distribution"]) == 4
    assert report == run_json(capsys, argv + ["--config", str(cfg)])


def test_ambiguous_config_prefix_is_a_usage_error(tmp_path, capsys):
    # estimate-cost has --chi-values and --config: argparse refuses --c,
    # and the file (which would be an input error) is never read
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus = 1\n")
    code = cli.dispatch(["estimate-cost", "--d-values", "4", "--c",
                         str(cfg)])
    assert code == cli.EXIT_USAGE
    assert "ambiguous" in capsys.readouterr().err


def test_config_false_boolean_and_signed_value(tmp_path, capsys):
    cfg = tmp_path / "stats.cfg"
    cfg.write_text("gaussian = -1e-3 0.02\nk = 4\nfull = no\n"
                   "target = -1e-3\n")
    report = run_json(capsys, ["qpe-stats", "--config", str(cfg)])
    assert "distribution" not in report
    assert report == run_json(capsys, ["qpe-stats", "--gaussian", "-0.001",
                                       "0.02", "--k", "4", "--target=-1e-3"])


@pytest.mark.parametrize("line", [
    "gaussian = 0.06",           # two values needed
    "gaussian = 0.06 -0.01",     # refused by the flag's action
    "method = exact",            # not one of the choices
    "help = 1",
])
def test_config_value_refused_by_its_flag_is_an_input_error(
        tmp_path, capsys, line):
    # a later line replaces the earlier value of its key
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"gaussian = 0.06 0.02\nmethod = series\n{line}\n")
    code = cli.dispatch(["energy-dist", "--config", str(cfg)])
    captured = capsys.readouterr()
    assert code == cli.EXIT_INPUT
    assert captured.out == ""


# ---------------------------------------------------------------------------
# Statistics commands against frozen values
# ---------------------------------------------------------------------------

def test_qpe_stats_matches_frozen_readout_weight(capsys):
    report = run_json(capsys, ["qpe-stats", *GAUSSIAN, "--k", "4",
                               "--target", "0.0312", "--reps", "5"])
    assert report["outcomes"] == 16
    assert report["outcome_p_below"] == pytest.approx(0.10370127, rel=1e-6)
    assert 0 < report["spectral_p_below"] < report["outcome_p_below"]
    assert 0 < report["expected_min"] < 0.06


def test_goldilocks_classification(capsys):
    report = run_json(capsys, ["goldilocks", *GAUSSIAN,
                               "--et", "0.0", "--budget", "1000"])
    assert report["class"] == "Goldilocks"
    assert report["required_reps"] == 741


def test_leakage_report_matches_frozen_value(capsys):
    report = run_json(capsys, ["leakage", *GAUSSIAN, "--k", "10",
                               "--epsilon", "0.00390625"])
    assert report["exact"] == pytest.approx(9.119328e-4, rel=1e-5)
    assert report["approx"] == pytest.approx(report["exact"], rel=0.05)
    assert report["integral"] is not None
    assert report["diagnosis"]["flagged"] is False


def test_refine_cqpe_posterior(tmp_path, capsys):
    post = tmp_path / "post.csv"
    report = run_json(capsys, ["refine", "cqpe", *GAUSSIAN, "--k", "4",
                               "--accept", "0", "--et", "0.0312",
                               "--posterior-out", str(post)])
    assert report["success_prob"] == pytest.approx(0.10370127, rel=1e-6)
    assert report["p_below_target"] == pytest.approx(0.453275, rel=1e-4)
    assert report["query_cost"] == 16
    rows = np.loadtxt(post, delimiter=",", skiprows=1, ndmin=2)
    assert rows[:, 1].sum() == pytest.approx(1.0, abs=1e-9)
    assert np.all(np.diff(rows[:, 0]) >= 0)


def test_refine_qetu_window(capsys):
    report = run_json(capsys, ["refine", "qetu", *GAUSSIAN,
                               "--el", "0.0", "--eu", "0.12",
                               "--degree", "200", "--et", "0.0312"])
    assert report["query_cost"] == 200
    assert 0 < report["mu"] < 1
    assert report["k_steep"] > 0
    # matches the bundled case study's window up to the support convention
    assert report["success_prob"] == pytest.approx(0.2014, abs=5e-3)
    assert report["p_below_target"] > 0.1


@pytest.mark.parametrize("zeta", ["1e-320", "5e-324"])
def test_refine_qetu_refuses_a_zeta_that_leaves_no_width(tmp_path, capsys,
                                                         zeta):
    # zeta times the cosine width is subnormal (its steepness overflows)
    # or underflows to zero
    levels = tmp_path / "levels.csv"
    levels.write_text("0.1,0.5\n0.4,0.3\n0.8,0.2\n")
    code = cli.dispatch(["refine", "qetu", "--levels", str(levels),
                         "--el", "0", "--eu", "0.3", "--degree", "40",
                         "--zeta", zeta])
    assert code == cli.EXIT_INPUT
    assert "softening factor" in capsys.readouterr().err


def test_refine_case_study_emits_twelve_rows(capsys):
    report = run_json(capsys, ["refine", "case-study"])
    assert report["all_passed"] is True
    assert len(report["rows"]) == 12
    names = [row["name"] for row in report["rows"]]
    assert names[0] == "p_below_prior"
    assert names[-1] == "coarse_query_cost"
    assert all(row["passed"] for row in report["rows"])


# ---------------------------------------------------------------------------
# File pipelines
# ---------------------------------------------------------------------------

def test_ham_build_then_energy_dist(tmp_path, capsys):
    fc = tmp_path / "two.fcidump"
    fc.write_text(TWO_ORBITAL)
    matrix = tmp_path / "h.npz"
    summary = run_json(capsys, ["ham", "build", "--fcidump", str(fc),
                                "--na", "1", "--nb", "1",
                                "--out", str(matrix)])
    assert summary["dim"] == 4
    assert matrix.exists()

    dist = tmp_path / "dist.csv"
    sidecar = tmp_path / "dist.json"
    code = cli.dispatch(["energy-dist", "--ham", str(matrix),
                         "--method", "resolvent", "--eta", "0.02",
                         "--grid-points", "64", "--out", str(dist),
                         "--sidecar", str(sidecar)])
    capsys.readouterr()
    assert code == cli.EXIT_OK
    lines = dist.read_text().splitlines()
    assert lines[0] == "E,P"
    rows = np.loadtxt(dist, delimiter=",", skiprows=1, ndmin=2)
    assert rows.shape == (64, 2)
    assert np.all(rows[:, 1] >= 0)
    side = json.loads(sidecar.read_text())
    assert side["frame"] == "original"
    assert side["energy_map"] is not None
    # original-units mean must match the eigen-decomposed measure
    assert rows[:, 0].min() < side["mean"] < rows[:, 0].max()
    assert len(side["cumulants"]) == 9
    assert side["cumulants"][2] == pytest.approx(1.0)


def _build_pipeline_matrix(tmp_path, capsys, n_alpha=2, n_beta=1):
    """``ham build`` of a seeded 4-orbital sector, (2,1) (dim 24) unless
    named, plus a complex state CSV for it."""
    from qprep.hamiltonian import FciDump, dump_fcidump

    rng = np.random.default_rng(31)
    h = rng.normal(size=(4, 4))
    g = 0.1 * rng.normal(size=(4,) * 4)
    g = g + g.transpose(1, 0, 2, 3)
    g = g + g.transpose(0, 1, 3, 2)
    g = g + g.transpose(2, 3, 0, 1)
    fc = tmp_path / "h.fcidump"
    fc.write_text(dump_fcidump(FciDump(4, n_alpha + n_beta,
                                       n_alpha - n_beta, 0.4, h + h.T, g)))
    dim = math.comb(4, n_alpha) * math.comb(4, n_beta)
    state = tmp_path / "state.csv"
    np.savetxt(state, rng.normal(size=(dim, 2)), delimiter=",")
    matrix = tmp_path / "h.npz"
    summary = run_json(capsys, ["ham", "build", "--fcidump", str(fc),
                                "--na", str(n_alpha), "--nb", str(n_beta),
                                "--out", str(matrix)])
    assert summary["dim"] == dim
    return matrix, state


def _measure_commands(matrix, state, out):
    """The --ham measure commands of one benchmark batch."""
    src = ["--ham", str(matrix), "--state", str(state)]
    return [
        ["qpe-stats", *src, "--k", "8", "--target", "0.2", "--reps", "5"],
        ["goldilocks", *src, "--et", "0.2", "--budget", "100"],
        ["leakage", *src, "--k", "10", "--epsilon", str(2.0 ** -8),
         "--e0", "0.12"],
        ["refine", "cqpe", *src, "--k", "4", "--accept", "0,2",
         "--posterior-out", str(out / "post.csv")],
        ["energy-dist", *src, "--method", "series",
         "--out", str(out / "series.csv"),
         "--sidecar", str(out / "series.json")],
        ["energy-dist", "--ham", str(matrix), "--method", "resolvent",
         "--eta", "0.02", "--grid-points", "48",
         "--out", str(out / "resolvent.csv")],
    ]


def _pinned_commands(tmp_path, capsys):
    """Name -> (argv, written files) of the measure commands whose output
    bytes are pinned, over seeded --ham/--state, --levels and --gaussian
    inputs."""
    matrix, state = _build_pipeline_matrix(tmp_path, capsys)
    levels = tmp_path / "levels.csv"
    rng = np.random.default_rng(37)
    np.savetxt(levels, np.column_stack((np.sort(rng.uniform(0.05, 0.95, 40)),
                                        rng.uniform(0.0, 1.0, 40))),
               delimiter=",")
    sources = {"ham": ["--ham", str(matrix), "--state", str(state)],
               "levels": ["--levels", str(levels)],
               "gaussian": [*GAUSSIAN, "--n-levels", "512"]}
    commands = {}
    for name, src in sources.items():
        out = tmp_path / name
        out.mkdir()
        files = {ext: [out / f"{ext}.csv", out / f"{ext}.json"]
                 for ext in ("series", "cqpe")}
        commands.update({
            f"{name} qpe-stats": (["qpe-stats", *src, "--k", "6", "--full",
                                   "--target", "0.2", "--reps", "5"], []),
            f"{name} goldilocks": (["goldilocks", *src, "--et", "0.2",
                                    "--budget", "100"], []),
            f"{name} leakage": (["leakage", *src, "--k", "8", "--epsilon",
                                 str(2.0 ** -6), "--e0", "0.12"], []),
            f"{name} refine cqpe": (["refine", "cqpe", *src, "--k", "4",
                                     "--accept", "0,2", "--et", "0.2",
                                     "--posterior-out", str(out / "post.csv")],
                                    [out / "post.csv"]),
            f"{name} refine qetu": (["refine", "qetu", *src, "--el", "0.0",
                                     "--eu", "0.3", "--degree", "40",
                                     "--et", "0.2", "--posterior-out",
                                     str(out / "qetu.csv")],
                                    [out / "qetu.csv"]),
            f"{name} series": (["energy-dist", *src, "--method", "series",
                                "--order", "6", "--grid-points", "48",
                                "--out", str(files["series"][0]),
                                "--sidecar", str(files["series"][1])],
                               files["series"]),
            f"{name} cqpe": (["energy-dist", *src, "--method", "cqpe",
                              "--k", "6", "--shots", "500", "--seed", "5",
                              "--grid-points", "48",
                              "--out", str(files["cqpe"][0]),
                              "--sidecar", str(files["cqpe"][1])],
                             files["cqpe"]),
        })
    commands["ham resolvent"] = (
        ["energy-dist", "--ham", str(matrix), "--method", "resolvent",
         "--eta", "0.02", "--grid-points", "48",
         "--out", str(tmp_path / "resolvent.csv")],
        [tmp_path / "resolvent.csv"])
    commands["gaussian series stdout"] = (
        ["energy-dist", *sources["gaussian"], "--method", "series",
         "--order", "6", "--grid-points", "48", "--out", "-"], [])
    commands["estimate-cost"] = (
        ["estimate-cost", "--n-spatial", "40", "--d-values", "64,1000",
         "--chi-values", "4,16", "--out", str(tmp_path / "cost.csv")],
        [tmp_path / "cost.csv"])
    return commands


# sha256 (first 16 hex digits) of each pinned command's exit code, stdout
# and written files, recorded before the outcome law became a
# SpectralMeasure and the Lorentzian lost its kernel class; the stdout
# series and estimate-cost digests were recorded before the CSV writer lost
# csv.writer, the refine qetu digests when the window filter became the
# interpolant of the exact erf window, and every gaussian digest except
# goldilocks when the Gaussian's CDF came from math.erfc
PINNED_OUTPUTS = {
    "ham qpe-stats": "329a25f8ffc5fcae",
    "ham goldilocks": "bd3c52de68e6660b",
    "ham leakage": "bf4fc1c4e563dd8a",
    "ham refine cqpe": "24030aff0c8a25f2",
    "ham refine qetu": "a4a3c54dc1cd27f1",
    "ham series": "ca372fe5bed43fc5",
    "ham cqpe": "12c41105be2c8469",
    "levels qpe-stats": "1676386cb797879e",
    "levels goldilocks": "2587e0c7c37dbe6e",
    "levels leakage": "c918f0e2f21cda7c",
    "levels refine cqpe": "4eb5fbf3bf854e92",
    "levels refine qetu": "19a047e471c5b3ad",
    "levels series": "4afca7a318ef7341",
    "levels cqpe": "b9e4e8edd069c5ac",
    "gaussian qpe-stats": "cb44863fefaf2707",
    "gaussian goldilocks": "d18e44f0b7ff95c7",
    "gaussian leakage": "ea6c40806a8d011a",
    "gaussian refine cqpe": "b8e46f95b495ac62",
    "gaussian refine qetu": "07b4c53df5eb6ecd",
    "gaussian series": "afe627e79bf63b4c",
    "gaussian cqpe": "2d26c9fd4fe44694",
    "ham resolvent": "7bc0604f24607169",
    "gaussian series stdout": "11760769c8393b06",
    "estimate-cost": "34b36be06af7da2f",
}


def _pinned_digests(tmp_path, capsys):
    digests = {}
    for name, (argv, files) in _pinned_commands(tmp_path, capsys).items():
        code = cli.dispatch(argv)
        sha = hashlib.sha256(b"%d\n" % code)
        sha.update(capsys.readouterr().out.encode())
        for path in files:
            sha.update(path.read_bytes())
        digests[name] = sha.hexdigest()[:16]
    return digests


def test_measure_command_bytes_are_pinned(tmp_path, capsys):
    assert _pinned_digests(tmp_path, capsys) == PINNED_OUTPUTS


def test_pinned_bytes_do_not_need_openblas(tmp_path, capsys, monkeypatch):
    # without NumPy's OpenBLAS the thread policy is a no-op
    monkeypatch.setattr(blas, "_openblas", lambda: None)
    assert _pinned_digests(tmp_path, capsys) == PINNED_OUTPUTS


def test_ham_pipeline_diagonalizes_once_at_build(tmp_path, capsys,
                                                 eigensolves):
    matrix, state = _build_pipeline_matrix(tmp_path, capsys)
    old = tmp_path / "old.npz"
    with np.load(matrix) as data:
        np.savez(old, entries=data["entries"],
                 basis_labels=data["basis_labels"])
    stdout = {}
    for name, path in (("new", matrix), ("old", old)):
        out = tmp_path / name
        out.mkdir()
        stdout[name] = []
        for argv in _measure_commands(path, state, out):
            assert cli.dispatch(argv) == cli.EXIT_OK, argv
            stdout[name].append(capsys.readouterr().out)
        if name == "new":
            # the build's eigh is the only one of the whole batch
            assert eigensolves == ["eigh"]
    # a file without the eigensystem is diagonalized once per command, and
    # every output is the same to the byte
    assert eigensolves == ["eigh"] * 7
    assert stdout["new"] == stdout["old"]
    assert all(stdout["new"][:4])
    files = sorted(p.name for p in (tmp_path / "new").iterdir())
    assert files == ["post.csv", "resolvent.csv", "series.csv",
                     "series.json"]
    for name in files:
        assert (tmp_path / "new" / name).read_bytes() \
            == (tmp_path / "old" / name).read_bytes(), name


def test_balanced_archive_without_eigensystem_is_one_block(tmp_path, capsys,
                                                         eigensolves):
    # the build solves the (2,2) sector as its flip blocks, 21 + 15; the
    # same matrix rewritten without its eigensystem has lost the flip
    matrix, state = _build_pipeline_matrix(tmp_path, capsys, 2, 2)
    assert sorted(eigensolves.dims) == [15, 21]
    old = tmp_path / "old.npz"
    with np.load(matrix) as data:
        np.savez(old, entries=data["entries"],
                 basis_labels=data["basis_labels"])
    for argv in _measure_commands(old, state, tmp_path):
        eigensolves.clear()
        assert cli.dispatch(argv) == cli.EXIT_OK, argv
        assert eigensolves == ["eigh"] and eigensolves.dims == [36], argv


def test_every_eigensolve_runs_inside_the_eigensystem_span(tmp_path, capsys,
                                                           monkeypatch):
    # a profiler that times DenseHamiltonian.eigensystem by setting a
    # wrapper on the class sees the build's block solves and the one-block
    # solve of a --ham archive that stores no eigensystem
    from qprep.hamiltonian import DenseHamiltonian

    depth, inside = [0], []
    eigensystem, eigh = DenseHamiltonian.eigensystem, np.linalg.eigh

    def span(self):
        depth[0] += 1
        try:
            return eigensystem(self)
        finally:
            depth[0] -= 1

    def spy(a, *args, **kwargs):
        inside.append(depth[0] > 0)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(DenseHamiltonian, "eigensystem", span)
    monkeypatch.setattr(np.linalg, "eigh", spy)
    matrix, state = _build_pipeline_matrix(tmp_path, capsys, 2, 2)
    old = tmp_path / "old.npz"
    with np.load(matrix) as data:
        np.savez(old, entries=data["entries"],
                 basis_labels=data["basis_labels"])
    assert cli.dispatch(["qpe-stats", "--ham", str(old), "--state",
                         str(state), "--k", "8"]) == cli.EXIT_OK
    capsys.readouterr()
    # two flip blocks at the build, one block at the measure
    assert inside == [True] * 3
    capsys.readouterr()


def _tamper(arrays, case):
    evals, evecs = arrays["eigenvalues"], arrays["eigenvectors"]
    n = evals.shape[0]
    swap = [1, 0, *range(2, n)]
    if case == "other matrix":
        a = np.random.default_rng(32).normal(size=(n, n))
        arrays["eigenvectors"] = np.linalg.eigh(a + a.T)[1]
    elif case == "swapped eigenvalues":
        arrays["eigenvalues"] = evals[swap]
    elif case == "swapped eigenvectors":
        arrays["eigenvectors"] = evecs[:, swap]
    elif case == "nan eigenvector":
        arrays["eigenvectors"] = evecs.copy()
        arrays["eigenvectors"][3, 2] = np.nan
    elif case == "wrong shape":
        arrays["eigenvectors"] = evecs[:, :-1]
    else:
        del arrays["eigenvalues"]


@pytest.mark.parametrize("case", [
    "other matrix", "swapped eigenvalues", "swapped eigenvectors",
    "nan eigenvector", "wrong shape", "no eigenvalues"])
def test_mismatched_stored_eigensystem_is_an_input_error(tmp_path, capsys,
                                                         case):
    matrix, state = _build_pipeline_matrix(tmp_path, capsys)
    with np.load(matrix) as data:
        arrays = dict(data)
    _tamper(arrays, case)
    bad = tmp_path / "bad.npz"
    np.savez(bad, **arrays)
    code = cli.dispatch(["qpe-stats", "--ham", str(bad), "--state",
                         str(state), "--k", "4"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_INPUT
    assert captured.out == ""
    assert str(bad) in captured.err


@pytest.mark.parametrize("suffix", [".npz", ".csv"])
@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_non_finite_matrix_is_an_input_error(tmp_path, capsys, suffix, bad):
    a = np.eye(3)
    a[0, 1] = a[1, 0] = float(bad)
    path = tmp_path / ("h" + suffix)
    if suffix == ".csv":
        np.savetxt(path, a, delimiter=",")
    else:
        np.savez(path, entries=a, basis_labels=np.array([]))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.dispatch(["qpe-stats", "--ham", str(path), "--k", "4"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_INPUT
    assert captured.out == ""
    assert "non-finite matrix entry" in captured.err
    assert str(path) in captured.err
    assert caught == []


def test_huge_saved_matrix_loads_without_a_warning(tmp_path, capsys):
    from qprep.hamiltonian import DenseHamiltonian, save_hamiltonian

    a = np.random.default_rng(11).normal(size=(50, 50))
    path = tmp_path / "h.npz"
    save_hamiltonian(DenseHamiltonian((a + a.T) * 1e200), path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.dispatch(["qpe-stats", "--ham", str(path), "--k", "4"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_OK
    assert captured.err == "" and caught == []


def test_levels_beyond_the_float_range_are_refused_naming_the_file(
        tmp_path, capsys):
    # levels near +-2e308 at the full scale; a quarter of it loads (half
    # of it spreads beyond the float range: the test below)
    a = np.random.default_rng(0).normal(size=(50, 50))
    for name, matrix, want in (("huge.csv", (a + a.T) * 1e307,
                                cli.EXIT_NUMERICAL),
                               ("quarter.csv", (a + a.T) / 4 * 1e307,
                                cli.EXIT_OK)):
        path = tmp_path / name
        np.savetxt(path, matrix, delimiter=",")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.dispatch(["qpe-stats", "--ham", str(path), "--k", "4"])
        captured = capsys.readouterr()
        assert code == want and caught == [], captured.err
        if want:
            assert captured.err == (f"error: {path}: solved levels or "
                                    "eigenvectors are not finite\n")


@pytest.mark.parametrize("route,scale", [
    ("csv", 0.5e307), ("csv", 0.8e307), ("archive", 0.5e307),
    ("archive", 0.8e307), ("no eigensystem", 0.5e307),
    ("no eigensystem", 0.8e307)])
def test_overflowing_level_spread_is_refused_naming_the_file(
        tmp_path, capsys, route, scale):
    from qprep.hamiltonian import DenseHamiltonian, save_hamiltonian, save_npz

    a = np.random.default_rng(0).normal(size=(50, 50))
    matrix = (a + a.T) * scale
    levels = np.linalg.eigvalsh(matrix)
    path = tmp_path / ("h.csv" if route == "csv" else "h.npz")
    if route == "csv":
        np.savetxt(path, matrix, delimiter=",")
    elif route == "archive":
        save_hamiltonian(DenseHamiltonian(matrix), path)
    else:
        save_npz(path, {"entries": matrix, "basis_labels": np.array([])})
    for argv in (["qpe-stats", "--k", "4"],
                 ["energy-dist", "--method", "series"]):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.dispatch([*argv, "--ham", str(path)])
        captured = capsys.readouterr()
        assert code == cli.EXIT_NUMERICAL and caught == [], captured.err
        assert captured.out == ""
        assert captured.err == (f"error: {path}: the levels span [%.6g, "
                                "%.6g], a spread beyond the float range\n"
                                % (levels[0], levels[-1]))


def test_huge_fcidump_integrals_are_refused_naming_the_file(tmp_path,
                                                            capsys):
    fc = tmp_path / "big.fcidump"
    argv = ["ham", "build", "--fcidump", str(fc), "--na", "1", "--nb", "1",
            "--out", str(tmp_path / "h.npz")]
    for value, want in (("1e308", cli.EXIT_INPUT), ("1e300", cli.EXIT_OK)):
        fc.write_text(TWO_ORBITAL.replace(" 0.2 1 1 1 1",
                                          f" {value} 1 1 1 1"))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.dispatch(argv)
            captured = capsys.readouterr()
            assert code == want and caught == [], captured.err
            if want:
                assert captured.err.startswith(
                    f"error: {fc}: integrals too large for the (1, 1) "
                    "sector")
                assert not (tmp_path / "h.npz").exists()
                continue
            code = cli.dispatch(["qpe-stats", "--ham",
                                 str(tmp_path / "h.npz"), "--k", "4"])
            captured = capsys.readouterr()
        assert code == cli.EXIT_OK and caught == [], captured.err
        assert captured.err == ""


def _middle_payload_byte(path, member):
    """Offset of the middle stored byte of ``member`` in the zip at
    ``path``: past its local header (30 bytes, name and extra field)."""
    import struct
    import zipfile

    with zipfile.ZipFile(path) as archive:
        info = archive.getinfo(member)
    raw = path.read_bytes()
    start = info.header_offset + 30 + sum(struct.unpack(
        "<HH", raw[info.header_offset + 26:info.header_offset + 30]))
    return start + info.compress_size // 2


def _refused_naming(capsys, path, argv, reason):
    code = cli.dispatch(argv)
    captured = capsys.readouterr()
    assert code == cli.EXIT_INPUT, captured.err
    assert captured.out == ""
    assert str(path) in captured.err and reason in captured.err


@pytest.mark.parametrize("damage, reason", [
    ("flipped byte", "Bad CRC-32 for file 'eigenvectors.npy'"),
    # np.savez members are not aligned: read from the file, not mapped
    ("flipped savez byte", "Bad CRC-32 for file 'entries.npy'"),
    ("truncated", "not a zip file"),
    ("not a zip", "not an npz archive"),
    ("npy file", "not an npz archive"),
    ("no labels", "archive has no basis_labels")])
def test_damaged_npz_is_an_input_error(tmp_path, capsys, damage, reason):
    matrix, state = _build_pipeline_matrix(tmp_path, capsys)
    raw = bytearray(matrix.read_bytes())
    bad = tmp_path / "bad.npz"
    if damage == "flipped byte":
        raw[_middle_payload_byte(matrix, "eigenvectors.npy")] ^= 0x10
    elif damage == "flipped savez byte":
        with np.load(matrix) as data:
            np.savez(bad, **data)
        raw = bytearray(bad.read_bytes())
        raw[_middle_payload_byte(bad, "entries.npy")] ^= 0x10
    elif damage == "truncated":
        raw = raw[:len(raw) // 2]
    elif damage == "not a zip":
        raw = b"energy,weight\n0.1,1.0\n"
    if damage == "npy file":
        with open(bad, "wb") as f:
            np.save(f, np.eye(24))
    elif damage == "no labels":
        with np.load(matrix) as data:
            np.savez(bad, entries=data["entries"])
    else:
        bad.write_bytes(raw)
    _refused_naming(capsys, bad, ["qpe-stats", "--ham", str(bad),
                                  "--state", str(state), "--k", "4"], reason)


@pytest.mark.parametrize("compression", ["ZIP_DEFLATED", "ZIP_LZMA",
                                         "ZIP_BZIP2"])
def test_lzma_or_bzip2_member_is_an_input_error(tmp_path, capsys,
                                                compression):
    import io
    import zipfile

    # the .npy header and the zip64 size agree on 2**40 float64; only
    # stored members are read, so each is refused by its compression
    # before anything is allocated
    header = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        header, {"descr": "<f8", "fortran_order": False, "shape": (2 ** 40,)})
    member = header.getvalue() + bytes(24)
    bad = tmp_path / "bad.npz"
    with zipfile.ZipFile(bad, "w", getattr(zipfile, compression)) as archive:
        archive.writestr("entries.npy", member)
        archive.filelist[-1].file_size = len(member) - 24 + 8 * 2 ** 40
    _refused_naming(capsys, bad, ["qpe-stats", "--ham", str(bad), "--k", "4"],
                    "entries.npy: is compressed by ")


def _encrypted(path):
    """Set general-purpose flag bit 0 (encrypted) of every member of the
    zip at ``path``, in its local and its central header."""
    import struct
    import zipfile

    raw = bytearray(path.read_bytes())
    with zipfile.ZipFile(path) as archive:
        infos = archive.infolist()
    central = struct.unpack_from("<L", raw, raw.rindex(b"PK\x05\x06") + 16)[0]
    for info in infos:
        raw[info.header_offset + 6] |= 1
        assert raw[central:central + 4] == b"PK\x01\x02"
        raw[central + 8] |= 1
        central += 46 + sum(struct.unpack_from("<3H", raw, central + 28))
    path.write_bytes(raw)


@pytest.mark.parametrize("writer", ["save_npz", "np.savez"])
def test_encrypted_member_is_an_input_error(tmp_path, capsys, writer):
    from qprep.hamiltonian import DenseHamiltonian, save_hamiltonian

    a = np.random.default_rng(41).normal(size=(4, 4))
    bad = tmp_path / "enc.npz"
    if writer == "save_npz":
        save_hamiltonian(DenseHamiltonian(a + a.T), bad)
    else:
        np.savez(bad, entries=a + a.T, basis_labels=np.array([]))
    _encrypted(bad)
    _refused_naming(capsys, bad, ["qpe-stats", "--ham", str(bad), "--k", "3",
                                  "--target", "0.5"],
                    "entries.npy: is encrypted; only stored, unencrypted "
                    "members are read")


def test_payload_past_the_end_of_the_file_is_an_input_error(tmp_path,
                                                           capsys):
    import struct
    import zipfile

    matrix, state = _build_pipeline_matrix(tmp_path, capsys)
    raw = bytearray(matrix.read_bytes())
    with zipfile.ZipFile(matrix) as archive:
        info = archive.getinfo("eigenvectors.npy")
    # the .npy header and the central directory both claim 99 columns of
    # the 24 stored, so header and sizes agree but run past the file's end
    at = raw.index(b"(24, 24)", info.header_offset)
    raw[at:at + 8] = b"(24, 99)"
    size = info.file_size + 24 * 75 * 8
    central = raw.rindex(b"eigenvectors.npy") - 46
    assert raw[central:central + 4] == b"PK\x01\x02"
    struct.pack_into("<LL", raw, central + 20, size, size)
    assert info.header_offset + size > len(raw)
    bad = tmp_path / "bad.npz"
    bad.write_bytes(raw)
    _refused_naming(capsys, bad, ["qpe-stats", "--ham", str(bad),
                                  "--state", str(state), "--k", "4"],
                    "eigenvectors.npy: size does not fit its header")


def test_two_builds_of_one_input_write_identical_bytes(tmp_path, capsys):
    import zipfile

    files = []
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        files.append(_build_pipeline_matrix(tmp_path / name, capsys)[0])
    assert files[0].read_bytes() == files[1].read_bytes()
    # not the clock: two builds a second apart give the same bytes too
    with zipfile.ZipFile(files[0]) as archive:
        assert {info.date_time for info in archive.infolist()} \
            == {(1980, 1, 1, 0, 0, 0)}
    # a rebuild over an existing file writes the same bytes again
    again = _build_pipeline_matrix(tmp_path / "a", capsys)[0]
    assert again.read_bytes() == files[1].read_bytes()
    assert sorted(p.name for p in (tmp_path / "a").iterdir()) \
        == ["h.fcidump", "h.npz", "state.csv"]


@pytest.mark.parametrize("mutation, reason", [
    ("asymmetric entry", "not Hermitian"),
    ("nan eigenvector", "non-finite eigensystem value"),
    ("swapped eigenvector columns", "does not match"),
    ("flipped payload byte", "Bad CRC-32 for file 'entries.npy'")])
def test_mutated_saved_matrix_is_refused_naming_the_file(tmp_path, capsys,
                                                         mutation, reason):
    from qprep.hamiltonian import DenseHamiltonian, save_hamiltonian

    # dim 300 spans three tiles of the Hermiticity pass; the bumped entry
    # sits in an off-diagonal tile
    a = np.random.default_rng(34).normal(size=(300, 300))
    path = tmp_path / "h.npz"
    save_hamiltonian(DenseHamiltonian(a + a.T), path)
    if mutation == "flipped payload byte":
        raw = bytearray(path.read_bytes())
        raw[_middle_payload_byte(path, "entries.npy")] ^= 0x01
        path.write_bytes(raw)
    else:
        with np.load(path) as data:
            arrays = {name: data[name].copy() for name in data.files}
        entries, evecs = arrays["entries"], arrays["eigenvectors"]
        if mutation == "asymmetric entry":
            entries[5, 250] += 1e-9 * np.max(np.abs(entries))
        elif mutation == "nan eigenvector":
            evecs[200, 7] = np.nan
        else:
            evecs[:, [3, 4]] = evecs[:, [4, 3]]
        np.savez(path, **arrays)
    _refused_naming(capsys, path, ["goldilocks", "--ham", str(path),
                                   "--et", "0.2", "--budget", "100"], reason)


def _entry_offset(path, i, j):
    """File offset of float64 entry (i, j) of the C-order ``entries``
    matrix in the npz at ``path``: past the member's local header (30
    bytes, name and extra field) and its ``.npy`` header (10 bytes and the
    length these give)."""
    import struct
    import zipfile

    with zipfile.ZipFile(path) as archive:
        info = archive.getinfo("entries.npy")
    raw = path.read_bytes()
    start = info.header_offset + 30 + sum(struct.unpack(
        "<HH", raw[info.header_offset + 26:info.header_offset + 30]))
    data = start + 10 + int.from_bytes(raw[start + 8:start + 10], "little")
    n = math.isqrt((start + info.file_size - data) // 8)
    return data + 8 * (i * n + j)


@pytest.mark.parametrize("flags", [(), ("--threads", "2"),
                                   ("--threads", "1")])
@pytest.mark.parametrize("damage, hidden", [
    ("flipped off-diagonal byte", "not Hermitian"),
    ("nan entry", "non-finite matrix entry"),
    ("inf entry", "non-finite matrix entry"),
    ("flipped diagonal byte", "eigensystem does not match"),
    ("huge diagonal entry", "eigensystem does not match"),
    ("no labels", "archive has no basis_labels")])
def test_bad_crc_is_the_refusal_reported_over_any_later_check(
        tmp_path, capsys, flags, damage, hidden):
    import struct

    from qprep.hamiltonian import (DenseHamiltonian, _hamiltonian_of,
                                   _npz_members, save_hamiltonian, save_npz)

    # dim 300 spans three tiles of the Hermiticity pass; (5, 250) sits in
    # an off-diagonal tile
    a = np.random.default_rng(35).normal(size=(300, 300))
    path = tmp_path / "h.npz"
    save_hamiltonian(DenseHamiltonian(a + a.T), path)
    if damage == "no labels":
        with np.load(path) as data:
            save_npz(path, {name: data[name] for name in data.files
                            if name != "basis_labels"})
    raw = bytearray(path.read_bytes())
    at = _entry_offset(path, *((7, 7) if "diagonal" in damage
                               and "off" not in damage else (5, 250)))
    if damage.startswith("flipped") or damage == "no labels":
        raw[at + 3] ^= 0x10
    else:
        value = {"nan": np.nan, "inf": np.inf, "huge": 1e300}[
            damage.split()[0]]
        raw[at:at + 8] = struct.pack("<d", value)
    path.write_bytes(raw)
    # the CRC-32 aside, the damage fails the check named by hidden
    with pytest.raises(ValueError, match=hidden):
        _hamiltonian_of(_npz_members(path))
    _only_the_crc_is_reported(capsys, path, "entries.npy",
                              ["qpe-stats", "--ham", str(path), "--k", "4",
                               *flags])


def _only_the_crc_is_reported(capsys, path, member, argv):
    """``argv`` exits 2 with the bad CRC-32 of ``member`` of the archive at
    ``path`` as its one line on stderr, nothing on stdout and no warning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.dispatch(argv)
    captured = capsys.readouterr()
    assert code == cli.EXIT_INPUT
    assert captured.out == ""
    assert captured.err == "error: %s: Bad CRC-32 for file %r\n" \
        % (path, member)
    assert caught == []


def _block_archive(tmp_path):
    """``(path, h)``: the balanced (3,3) sector of seeded 6-orbital
    integrals (dim 400, flip blocks of order 190 and 210), saved in the
    block layout."""
    from qprep.hamiltonian import FciDump, build_ci_matrix, save_hamiltonian

    rng = np.random.default_rng(36)
    h = rng.normal(size=(6, 6))
    g = 0.1 * rng.normal(size=(6,) * 4)
    g = g + g.transpose(1, 0, 2, 3)
    g = g + g.transpose(0, 1, 3, 2)
    g = g + g.transpose(2, 3, 0, 1)
    dense = build_ci_matrix(FciDump(6, 6, 0, 0.4, h + h.T, g), 3, 3)
    path = tmp_path / "h.npz"
    save_hamiltonian(dense, path)
    with np.load(path) as data:
        assert set(data.files) >= {"partner", "even_eigenvectors"}
    return path, dense


@pytest.mark.parametrize("flags", [(), ("--threads", "2"),
                                   ("--threads", "1")])
@pytest.mark.parametrize("damage, member, hidden", [
    ("flipped off-diagonal byte", "entries", "not Hermitian"),
    ("nan entry", "entries", "non-finite matrix entry"),
    ("huge diagonal entry", "entries", "eigensystem does not match"),
    ("flipped partner byte", "partner", "partner is not an involution"),
    ("flipped sign byte", "sign", "signs are not all"),
    ("flipped eigenvector byte", "odd_eigenvectors",
     "eigensystem does not match"),
    ("no labels", "entries", "archive has no basis_labels")])
def test_bad_crc_of_a_block_layout_archive_is_the_refusal_reported(
        tmp_path, capsys, flags, damage, member, hidden):
    import struct

    from qprep.hamiltonian import _hamiltonian_of, _npz_members, save_npz

    path, dense = _block_archive(tmp_path)
    if damage == "no labels":
        with np.load(path) as data:
            save_npz(path, {name: data[name] for name in data.files
                            if name != "basis_labels"})
    raw = bytearray(path.read_bytes())
    if member == "entries":
        off = np.abs(dense.entries - np.diag(np.diag(dense.entries)))
        at = _entry_offset(path, *((7, 7) if damage.endswith(
            "diagonal entry") else np.unravel_index(np.argmax(off),
                                                   off.shape)))
    else:
        at = _middle_payload_byte(path, member + ".npy") // 8 * 8
    if damage.startswith("flipped") or damage == "no labels":
        # a mantissa bit of a float; of an integer, a bit far past the
        # basis size
        raw[at + (3 if member != "partner" else 5)] ^= 0x10
    else:
        value = {"nan": np.nan, "huge": 1e300}[damage.split()[0]]
        raw[at:at + 8] = struct.pack("<d", value)
    path.write_bytes(raw)
    with pytest.raises(ValueError, match=hidden):
        _hamiltonian_of(_npz_members(path))
    _only_the_crc_is_reported(capsys, path, member + ".npy",
                              ["qpe-stats", "--ham", str(path), "--k", "4",
                               *flags])


@pytest.mark.parametrize("mutation, reason", [
    ("missing half", "archive has no odd_eigenvalues or odd_eigenvectors"),
    ("swapped halves", "even block shapes (15,) and (15, 15) do not fit"),
    ("partner not an involution", "partner is not an involution"),
    ("sign of 0.5", "signs are not all +-1"),
    ("sign of -1 on half a pair", "signs are not all +-1"),
    ("swapped block columns", "eigensystem does not match the matrix"),
    ("blocks of another matrix", "eigensystem does not match the matrix"),
    ("both layouts", "both a dense and a block eigensystem")])
def test_damaged_block_layout_is_refused_naming_the_file(tmp_path, capsys,
                                                         mutation, reason):
    # the (2,2) sector of 4 orbitals: 6 even fixed points and 15 pairs,
    # blocks of order 21 and 15
    matrix, state = _build_pipeline_matrix(tmp_path, capsys, 2, 2)
    with np.load(matrix) as data:
        arrays = {name: data[name].copy() for name in data.files}
    partner, sign = arrays["partner"], arrays["sign"]
    pair = np.flatnonzero(partner != np.arange(len(partner)))[0]
    if mutation == "missing half":
        del arrays["odd_eigenvalues"], arrays["odd_eigenvectors"]
    elif mutation == "swapped halves":
        for kind in ("eigenvalues", "eigenvectors"):
            arrays["even_" + kind], arrays["odd_" + kind] = \
                arrays["odd_" + kind], arrays["even_" + kind]
    elif mutation == "partner not an involution":
        # one end of a pair a fixed point: its partner still points to it
        partner[pair] = pair
    elif mutation == "sign of 0.5":
        sign[3] = 0.5
    elif mutation == "sign of -1 on half a pair":
        sign[pair] = -sign[pair]
    elif mutation == "swapped block columns":
        arrays["even_eigenvectors"][:, [3, 4]] = \
            arrays["even_eigenvectors"][:, [4, 3]]
    elif mutation == "blocks of another matrix":
        arrays["entries"] = arrays["entries"] + np.diag(
            np.linspace(0.0, 1e-3, len(partner)))
    else:
        arrays["eigenvalues"], arrays["eigenvectors"] = np.linalg.eigh(
            arrays["entries"])
    bad = tmp_path / "bad.npz"
    np.savez(bad, **arrays)
    _refused_naming(capsys, bad, ["goldilocks", "--ham", str(bad), "--et",
                                  "0.2", "--budget", "100"], reason)


@pytest.mark.parametrize("flags", [(), ("--threads", "2"),
                                   ("--threads", "1")])
@pytest.mark.parametrize("layout", ["dense", "blocks"])
@pytest.mark.parametrize("bad_state, reason", [
    ("wrong length", "amplitudes, Hamiltonian dim is"),
    ("zero state", "cannot take the measure of the zero state")])
def test_bad_crc_is_reported_over_a_bad_state(tmp_path, capsys, flags,
                                              layout, bad_state, reason):
    from qprep.hamiltonian import DenseHamiltonian, save_hamiltonian

    if layout == "blocks":
        path, dense = _block_archive(tmp_path)
    else:
        a = np.random.default_rng(36).normal(size=(300, 300))
        dense = DenseHamiltonian(a + a.T)
        path = tmp_path / "h.npz"
        save_hamiltonian(dense, path)
    good = path.read_bytes()
    state = tmp_path / "state.csv"
    rows = np.random.default_rng(37).normal(size=(dense.dim, 2))
    if bad_state == "wrong length":
        rows = rows[1:]
    else:
        rows[...] = 0.0
    np.savetxt(state, rows, delimiter=",")
    argv = ["qpe-stats", "--ham", str(path), "--state", str(state), "--k",
            "4", *flags]
    # a good archive: the state file is the one named
    _refused_naming(capsys, state, argv, reason)
    cli.dispatch(argv)
    assert str(path) not in capsys.readouterr().err
    # the lowest bit of an off-diagonal entry: 1 ulp passes every check
    # but the CRC-32, and the state read and the measure run beside it
    raw = bytearray(good)
    raw[_entry_offset(path, 5, 250 if dense.dim > 250 else 9)] ^= 0x01
    path.write_bytes(raw)
    _only_the_crc_is_reported(capsys, path, "entries.npy", argv)


def test_zero_state_is_refused_naming_the_state_file(tmp_path, capsys):
    matrix, state = _build_pipeline_matrix(tmp_path, capsys)
    rows = np.loadtxt(state, delimiter=",")
    np.savetxt(state, 0.0 * rows, delimiter=",")
    argv = ["qpe-stats", "--ham", str(matrix), "--state", str(state),
            "--k", "4"]
    _refused_naming(capsys, state, argv,
                    "cannot take the measure of the zero state")
    cli.dispatch(argv)
    assert str(matrix) not in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_non_finite_state_amplitude_is_an_input_error(tmp_path, capsys,
                                                      bad):
    matrix, state = _build_pipeline_matrix(tmp_path, capsys)
    rows = np.loadtxt(state, delimiter=",")
    rows[6, 1] = float(bad)
    np.savetxt(state, rows, delimiter=",")
    _refused_naming(capsys, state, ["qpe-stats", "--ham", str(matrix),
                                    "--state", str(state), "--k", "4"],
                    "amplitude row 7 is not finite")


@pytest.mark.parametrize("source, text, reason", [
    ("levels", "0.1,0.5,1\n", "levels file needs energy,weight columns"),
    ("levels", "", "file holds no rows"),
    ("state", "1\n1\n1\n", "state has 3 amplitudes, Hamiltonian dim is 24"),
    ("state", "1,0,0\n" * 24, "state file needs one or two columns"),
    ("state", "# no amplitudes\n", "file holds no rows"),
    ("levels", "E,weight\n", "file holds no rows"),
    ("levels", "E,weight\n0.1,w\n0.2,0.5\n", "could not convert string 'w'"),
    ("levels", "0.1,weight\n0.2,0.5\n", "could not convert string 'weight'"),
    ("state", "re\n" + "1\n" * 23 + "one\n", "could not convert string 'one'"),
], ids=["levels-columns", "levels-empty", "state-length", "state-columns",
        "state-empty", "levels-header-only", "levels-bad-first-row",
        "levels-mixed-first-line", "state-bad-later-row"])
def test_levels_and_state_refusals_name_the_file(tmp_path, capsys, source,
                                                 text, reason):
    path = tmp_path / f"bad_{source}.csv"
    path.write_text(text)
    if source == "levels":
        argv = ["goldilocks", "--levels", str(path)]
    else:
        matrix, _ = _build_pipeline_matrix(tmp_path, capsys)
        argv = ["goldilocks", "--ham", str(matrix), "--state", str(path)]
    _refused_naming(capsys, path, [*argv, "--et", "0.2", "--budget", "10"],
                    reason)


def test_ham_csv_is_read_as_levels_and_state_files_are(tmp_path, capsys):
    from qprep.hamiltonian import load_hamiltonian

    # the 1 x 1 matrix of an empty sector loads from .csv as from .npz
    fc = tmp_path / "two.fcidump"
    fc.write_text(TWO_ORBITAL)
    stats = ["qpe-stats", "--k", "4", "--target", "0.3", "--ham"]
    reports = []
    for ext in ("npz", "csv"):
        matrix = tmp_path / f"h0.{ext}"
        run_json(capsys, ["ham", "build", "--fcidump", str(fc), "--na", "0",
                          "--nb", "0", "--out", str(matrix)])
        reports.append(run_json(capsys, [*stats, str(matrix)]))
    assert reports[0] == reports[1]
    # one all-text header line is skipped; np.savetxt's complex cells
    # (1+2j) are numbers, not a header
    real = np.array([[1.0, 0.5], [0.5, 2.0]])
    hermitian = np.array([[1.0, 0.5j], [-0.5j, 2.0]])
    for name, matrix, header in (("header", real, "a,b\n"),
                                 ("complex", hermitian, ""),
                                 ("complex header", hermitian, "re,im\n")):
        path = tmp_path / f"{name}.csv"
        np.savetxt(path, matrix, delimiter=",")
        path.write_text(header + path.read_text())
        entries = load_hamiltonian(path).entries
        assert entries.dtype == matrix.dtype
        assert np.array_equal(entries, matrix)
        run_json(capsys, [*stats, str(path)])
    # an empty file is refused naming it, with no warning from numpy
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.dispatch([*stats, str(empty)])
    captured = capsys.readouterr()
    assert code == cli.EXIT_INPUT and caught == []
    assert captured.err == f"error: {empty}: file holds no rows\n"


def test_goldilocks_reads_the_refine_posterior_back(tmp_path, capsys):
    post = tmp_path / "post.csv"
    run_json(capsys, ["refine", "qetu", *GAUSSIAN, "--el", "0.0",
                      "--eu", "0.12", "--degree", "40",
                      "--posterior-out", str(post)])
    assert post.read_text().startswith("E,weight\n")
    report = run_json(capsys, ["goldilocks", "--levels", str(post),
                               "--et", "0.05", "--budget", "100"])
    rows = np.loadtxt(post, delimiter=",", skiprows=1)
    below = rows[rows[:, 0] <= 0.05, 1].sum() / rows[:, 1].sum()
    assert 0 < below < 1
    assert report["p_below_target"] == pytest.approx(below, rel=1e-12)


def test_subnormal_weight_below_target_gets_exact_repetitions(tmp_path,
                                                              capsys):
    levels = tmp_path / "lv.csv"
    levels.write_text("0.1,1e-320\n0.5,1\n")
    report = run_json(capsys, ["goldilocks", "--levels", str(levels),
                               "--et", "0.2", "--budget", "10"])
    assert report["class"] == "Hard"
    assert report["p_below_target"] == 1e-320
    assert report["required_reps"] == math.ceil(1 / Fraction(1e-320))


@pytest.mark.parametrize("amplitude", ["1e300", "1e-320", repr(2.0 ** 996),
                                       repr(2.0 ** -1070)])
def test_state_whose_norm_overflows_or_underflows_is_measured(
        tmp_path, capsys, amplitude):
    # the measure divides the state by a power of two before its norm: a
    # power-of-two multiple of the unit state gives the unit state's bytes,
    # any other multiple its values up to the rounding of the division
    matrix, _ = _build_pipeline_matrix(tmp_path, capsys)
    stdout = []
    for value in ("1", amplitude):
        state = tmp_path / f"state_{value}.csv"
        state.write_text("%s\n" % value * 24)
        code = cli.dispatch(["goldilocks", "--ham", str(matrix), "--state",
                             str(state), "--et", "0.2", "--budget", "100"])
        captured = capsys.readouterr()
        assert code == cli.EXIT_OK and captured.err == ""
        stdout.append(captured.out)
    if math.frexp(float(amplitude))[0] == 0.5:
        assert stdout[0] == stdout[1]
    else:
        assert json.loads(stdout[1]) == pytest.approx(json.loads(stdout[0]),
                                                      rel=1e-14)


def test_energy_dist_resolvent_matches_the_solver(tmp_path, capsys):
    from qprep.acceptance import _resolvent_curve
    from qprep.hamiltonian import DenseHamiltonian, save_hamiltonian
    from qprep.spectra import default_grid

    import oracles

    rng = np.random.default_rng(21)
    a = rng.normal(size=(30, 30))
    h = DenseHamiltonian(a + a.T)
    matrix = tmp_path / "h.npz"
    save_hamiltonian(h, matrix)
    paths = [tmp_path / name for name in ("a.csv", "b.csv")]
    for path in paths:
        code = cli.dispatch(["energy-dist", "--ham", str(matrix),
                             "--method", "resolvent", "--eta", "0.03",
                             "--grid-points", "48", "--out", str(path)])
        assert code == cli.EXIT_OK
    capsys.readouterr()
    assert paths[0].read_bytes() == paths[1].read_bytes()
    rows = np.loadtxt(paths[0], delimiter=",", skiprows=1)
    _, norm = oracles.normalize_spectrum(h)
    grid = default_grid(48)
    solved = _resolvent_curve(h, np.full(30, 30 ** -0.5), norm, 0.03, grid)
    assert np.allclose(rows[:, 0], norm.invert(grid), rtol=1e-12, atol=0)
    assert np.allclose(rows[:, 1], solved * norm.scale, rtol=1e-12, atol=0)


def test_energy_dist_series_and_readout_frame(tmp_path, capsys):
    out = tmp_path / "series.csv"
    sidecar = tmp_path / "series.json"
    code = cli.dispatch(["energy-dist", *GAUSSIAN, "--method", "series",
                         "--order", "6", "--grid-points", "32",
                         "--out", str(out), "--sidecar", str(sidecar)])
    capsys.readouterr()
    assert code == cli.EXIT_OK
    side = json.loads(sidecar.read_text())
    assert side["frame"] == "readout"
    assert side["energy_map"] is None
    assert side["mean"] == pytest.approx(0.06, abs=1e-5)
    assert side["sigma"] == pytest.approx(0.02, rel=1e-3)


def test_energy_dist_cqpe_seed_determinism(tmp_path, capsys):
    paths = [tmp_path / name for name in ("a.csv", "b.csv", "c.csv")]
    for path, seed in zip(paths, ("11", "11", "12")):
        code = cli.dispatch(["energy-dist", *GAUSSIAN, "--method", "cqpe",
                             "--k", "6", "--shots", "300",
                             "--grid-points", "32", "--seed", seed,
                             "--out", str(path)])
        assert code == cli.EXIT_OK
    capsys.readouterr()
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert paths[0].read_bytes() != paths[2].read_bytes()


def test_compress_command(tmp_path, capsys):
    dets = tmp_path / "dets.txt"
    dets.write_text("# leading comment\n110100\n101010\n011001\n")
    report = run_json(capsys, ["compress", "--input", str(dets), "--check"])
    assert set(report) >= {"signatures", "u_vectors", "selected_rows"}
    assert len(report["signatures"]) == 3
    assert len(set(report["signatures"])) == 3


@pytest.mark.parametrize("lines,named", [
    ("0121\n0110\n1100\n", "bitstring 1 ('0121')"),
    ("0120\n0100\n1000\n0010\n", "bitstring 1 ('0120')"),
    ("0110\n01a0\n", "bitstring 2 ('01a0')"),
    ("0110\n011\n1100\n", "bitstring 2 ('011') has 3 characters"),
    ("0112\n", "bitstring 1 ('0112')"),
    ("1 0\n", "bitstring 1 ('1 0')"),
    ("0110\n0110\n", "not pairwise distinct"),
    ("\n", "no determinant bitstrings found"),
    (b"\xff0110\n", "can't decode byte 0xff in position 0"),
])
@pytest.mark.parametrize("check", [False, True])
def test_malformed_compress_input_is_an_input_error(tmp_path, capsys, lines,
                                                     named, check):
    # every refusal names the file, a non-UTF-8 one included
    dets = tmp_path / "dets.txt"
    if isinstance(lines, bytes):
        dets.write_bytes(lines)
    else:
        dets.write_text("# comment\n" + lines)
    argv = ["compress", "--input", str(dets)] + (["--check"] if check else [])
    code = cli.dispatch(argv)
    captured = capsys.readouterr()
    assert code == cli.EXIT_INPUT
    assert f"{dets}: " in captured.err and named in captured.err
    assert captured.out == ""


def test_convert_round_trip(tmp_path, capsys):
    terms = {"110100": 0.8, "101010": -0.5, "011001": 0.33166247903554}
    sos = tmp_path / "state.json"
    sos.write_text(json.dumps({
        "n_spin_orbitals": 6,
        "terms": [{"re": amp, "im": 0.0, "occ": occ}
                  for occ, amp in terms.items()],
    }))
    mps = tmp_path / "state.npz"
    summary = run_json(capsys, ["convert", "--input", str(sos),
                                "--to", "mps", "--out", str(mps)])
    assert summary["fidelity"] == pytest.approx(1.0, abs=1e-12)

    back = tmp_path / "back.json"
    summary = run_json(capsys, ["convert", "--input", str(mps),
                                "--to", "sos", "--out", str(back)])
    assert summary["n_terms"] == 3
    recovered = {t["occ"]: t["re"]
                 for t in json.loads(back.read_text())["terms"]}
    for occ, amp in terms.items():
        assert recovered[occ] == pytest.approx(amp, abs=1e-12)


@pytest.mark.parametrize("damage, reason", [
    ("text", "not an npz archive"),
    ("npy file", "not an npz archive"),
    ("truncated", "not a zip file")])
def test_mps_file_that_is_not_an_npz_archive_is_an_input_error(
        tmp_path, capsys, damage, reason):
    bad = tmp_path / "state.npz"
    if damage == "text":
        bad.write_text("not a state\n")
    elif damage == "npy file":
        with open(bad, "wb") as f:
            np.save(f, np.ones((1, 2, 1)))
    else:
        from qprep.states import MpsState, save_mps

        save_mps(MpsState([np.ones((1, 2, 1))], 2, None), bad)
        bad.write_bytes(bad.read_bytes()[:-40])
    _refused_naming(capsys, bad, ["convert", "--input", str(bad), "--to",
                                  "sos", "--out", str(tmp_path / "s.json")],
                    reason)


@pytest.mark.parametrize("members, reason", [
    ({"local_dim": None}, "archive has no local_dim"),
    ({"canonical": None}, "archive has no canonical"),
    # a gap in the numbering
    ({"tensor_1": None, "tensor_2": np.ones((1, 2, 1))},
     "archive has no tensor_1"),
    ({"local_dim": np.array([2, 2])}, "local_dim is not a single value"),
    ({"canonical": np.array(["", ""])}, "canonical is not a single value")],
    ids=["no local_dim", "no canonical", "no tensor_1", "local_dim (2,)",
         "canonical (2,)"])
def test_mps_archive_without_its_members_is_an_input_error(tmp_path, capsys,
                                                          members, reason):
    arrays = {"local_dim": np.array(2), "canonical": np.array(""),
              "tensor_0": np.ones((1, 2, 1)), "tensor_1": np.ones((1, 2, 1)),
              **members}
    bad = tmp_path / "state.npz"
    np.savez(bad, **{k: v for k, v in arrays.items() if v is not None})
    _refused_naming(capsys, bad, ["convert", "--input", str(bad), "--to",
                                  "sos", "--out", str(tmp_path / "s.json")],
                    reason)


@pytest.mark.parametrize("damage, reason", [
    ("deflated", "local_dim.npy: is compressed by deflate"),
    ("encrypted", "local_dim.npy: is encrypted")],
    ids=["deflated", "encrypted"])
def test_deflated_or_encrypted_mps_member_is_an_input_error(tmp_path, capsys,
                                                           damage, reason):
    from qprep.states import MpsState, save_mps

    bad = tmp_path / "state.npz"
    if damage == "deflated":
        np.savez_compressed(bad, local_dim=np.array(2),
                            canonical=np.array(""),
                            tensor_0=np.ones((1, 2, 1)))
    else:
        save_mps(MpsState([np.ones((1, 2, 1))], 2, None), bad)
        _encrypted(bad)
    _refused_naming(capsys, bad, ["convert", "--input", str(bad), "--to",
                                  "sos", "--out", str(tmp_path / "s.json")],
                    reason)


def test_simulate_encode_report(tmp_path, capsys):
    sos = tmp_path / "state.json"
    sos.write_text(json.dumps({
        "n_spin_orbitals": 6,
        "terms": [{"re": 0.8, "im": 0.0, "occ": "110100"},
                  {"re": -0.6, "im": 0.0, "occ": "101010"}],
    }))
    report_path = tmp_path / "encode.json"
    code = cli.dispatch(["simulate-encode", "--sos", str(sos),
                         "--report", str(report_path)])
    capsys.readouterr()
    assert code == cli.EXIT_OK
    report = json.loads(report_path.read_text())
    assert report["fidelity"] == pytest.approx(1.0, abs=1e-12)
    assert report["ancilla_residual"] <= 1e-20
    assert report["n_system"] == 6
    assert report["n_enumeration"] == 1
    assert report["gate_tallies"]["cnots_applied"] >= 0


def test_simulate_encode_has_no_out_flag(tmp_path, capsys):
    # --report is the one place the report goes besides stdout
    sos = tmp_path / "state.json"
    sos.write_text(json.dumps({
        "n_spin_orbitals": 2,
        "terms": [{"re": 1.0, "im": 0.0, "occ": "10"}]}))
    code = cli.dispatch(["simulate-encode", "--sos", str(sos),
                         "--out", str(tmp_path / "x.json")])
    assert code == cli.EXIT_USAGE
    assert "--out" in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("amp", [1e-300, 1e-200, 1e-120, 1e100, 1e160,
                                 1e200, 1e300])
def test_extreme_sos_amplitudes_are_scaled_first(tmp_path, capsys, amp):
    # both commands divide by a power of two near the largest |amplitude|
    # before any square, so neither norm over- nor underflows
    sos = tmp_path / "state.json"
    sos.write_text(json.dumps({
        "n_spin_orbitals": 4,
        "terms": [{"re": amp, "im": 0.0, "occ": "1100"},
                  {"re": amp, "im": 0.0, "occ": "0011"}]}))
    out = tmp_path / "state.npz"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        codes = [cli.dispatch(["convert", "--input", str(sos), "--to", "mps",
                               "--out", str(out)]),
                 cli.dispatch(["simulate-encode", "--sos", str(sos)])]
    captured = capsys.readouterr()
    assert codes == [cli.EXIT_OK, cli.EXIT_OK]
    assert captured.err == "" and caught == []
    converted, encoded = map(json.loads, captured.out.splitlines())
    assert abs(converted["fidelity"] - 1.0) <= 1e-15
    assert encoded["fidelity"] == pytest.approx(1.0, abs=1e-15)
    from qprep.states import load_mps

    # site 0 of the left-canonical form carries the norm, sqrt(2) amp
    site0 = load_mps(out).tensors[0]
    assert np.linalg.norm(site0 / amp) == pytest.approx(math.sqrt(2),
                                                         rel=1e-14)


FLOAT_RANGE = [5e-324, 1e-320, 1e-300, 1e-200, 1e-100, 1.0, 1e100, 1e200,
               1e300, 1.7e308]
READERS = ["--state", "--levels", "sos json", "mps site 0", "mps site 0 left",
           "mps last site", "mps last site left", "--ham csv"]


def _reader_run(tmp_path, reader, value):
    """(input file, argv) of a command that reads ``value`` through
    ``reader``: as every amplitude or weight of the file, as one MPS entry,
    or in the matrix [[value, value / 2], [value / 2, 0]]."""
    from qprep.states import MpsState, left_canonicalize, save_mps

    if reader == "--state":
        np.savetxt(tmp_path / "h.csv", [[0.3, 0.1, 0.0, 0.0],
                                         [0.1, -0.2, 0.05, 0.0],
                                         [0.0, 0.05, 0.1, 0.2],
                                         [0.0, 0.0, 0.2, 0.4]], delimiter=",")
        path = tmp_path / "state.csv"
        path.write_text("%r\n%r\n%r\n%r\n" % (value, value, -value, value))
        return path, ["qpe-stats", "--ham", str(tmp_path / "h.csv"),
                      "--state", str(path), "--k", "4"]
    if reader == "--levels":
        path = tmp_path / "levels.csv"
        path.write_text("0.1,%r\n0.5,%r\n" % (value, value))
        return path, ["qpe-stats", "--levels", str(path), "--k", "4"]
    if reader == "sos json":
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"n_spin_orbitals": 4, "terms": [
            {"re": value, "im": 0.0, "occ": "1100"},
            {"re": value, "im": 0.0, "occ": "0011"}]}))
        return path, ["convert", "--input", str(path), "--to", "mps",
                      "--out", str(tmp_path / "out.npz")]
    if reader.startswith("mps"):
        # one determinant, 1100: digit 3 on site 0, digit 0 on site 1
        first, last = np.zeros((1, 4, 1)), np.zeros((1, 4, 1))
        first[0, 3, 0], last[0, 0, 0] = 1.0, 1.0
        if "site 0" in reader:
            first[0, 3, 0] = value
        else:
            last[0, 0, 0] = value
        m = MpsState([first, last])
        path = tmp_path / "state.npz"
        save_mps(left_canonicalize(m) if reader.endswith("left") else m, path)
        return path, ["convert", "--input", str(path), "--to", "sos",
                      "--threshold", "0", "--out", str(tmp_path / "out.json")]
    path = tmp_path / "h.csv"
    np.savetxt(path, [[value, value / 2], [value / 2, 0.0]], delimiter=",")
    return path, ["qpe-stats", "--ham", str(path), "--k", "4"]


@pytest.mark.parametrize("value", FLOAT_RANGE)
@pytest.mark.parametrize("reader", READERS)
def test_every_reader_takes_the_float_range(tmp_path, capsys, reader,
                                            value):
    # each reader scales by a power of two before it squares or sums, so
    # every value runs silently, or is refused naming its file
    outputs = []
    for v in (1.0, value):
        path, argv = _reader_run(tmp_path, reader, v)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.dispatch(argv)
        captured = capsys.readouterr()
        assert caught == [], captured.err
        if reader == "--ham csv" and value == 1.7e308 and v == value:
            # levels near +-2e308 are not finite after the solve
            assert code == cli.EXIT_NUMERICAL
            assert captured.err.startswith(f"error: {path}: ")
            return
        assert code == cli.EXIT_OK and captured.err == "", captured.err
        outputs.append(json.loads(captured.out))
    if reader.startswith("mps"):
        terms = json.loads((tmp_path / "out.json").read_text())["terms"]
        assert [(t["re"], t["im"], t["occ"]) for t in terms] \
            == [(pytest.approx(value, rel=1e-15), 0.0, "1100")]
    elif reader == "sos json":
        assert outputs[1]["fidelity"] == pytest.approx(1.0, abs=1e-15)
    elif reader != "--ham csv":
        # a multiple of the state or the weights has the same measure
        assert outputs[1] == pytest.approx(outputs[0], rel=1e-14)


def _seeded_sos_files(tmp_path):
    """The H6 three-determinant state and seeded random states up to the
    D = 64 simulation cap, written as SOS JSON files."""
    from qprep.states import occupation_from_spatial

    c = np.sqrt(0.86 ** 2 + 2 * 0.36 ** 2)
    states = {"h6": (12, [(0.86 / c, occupation_from_spatial("222000")),
                          (-0.36 / c, occupation_from_spatial("b2aa0b")),
                          (-0.36 / c, occupation_from_spatial("a2bb0a"))])}
    for seed, (n_sys, n_det) in enumerate([(4, 1), (5, 7), (8, 16),
                                           (10, 33), (12, 64)]):
        rng = np.random.default_rng(100 + seed)
        occs = set()
        while len(occs) < n_det:
            occs.add("".join(rng.choice(["0", "1"], size=n_sys)))
        amps = rng.normal(size=n_det) + 1j * rng.normal(size=n_det)
        states[f"D={n_det}"] = (n_sys, list(zip(amps, sorted(occs))))
    files = {}
    for name, (n_sys, terms) in states.items():
        files[name] = tmp_path / f"{name}.json"
        files[name].write_text(json.dumps({
            "n_spin_orbitals": n_sys,
            "terms": [{"re": float(np.real(a)), "im": float(np.imag(a)),
                       "occ": occ} for a, occ in terms]}))
    return files


# sha256 (first 16 hex digits) of the exit code and report bytes, recorded
# while the encoder still went through an EncodingPlan object
PINNED_ENCODE_REPORTS = {
    "h6": "bc57596aadf95c93",
    "D=1": "deba5b75287fe88d",
    "D=7": "4714189fad22b85a",
    "D=16": "9901736053288214",
    "D=33": "785a9b4a15b84ca1",
    "D=64": "7a4f75d36e694975",
}


def test_simulate_encode_report_bytes_are_pinned(tmp_path, capsys):
    digests = {}
    for name, path in _seeded_sos_files(tmp_path).items():
        report = tmp_path / f"{name}.report.json"
        code = cli.dispatch(["simulate-encode", "--sos", str(path),
                             "--report", str(report)])
        capsys.readouterr()
        sha = hashlib.sha256(b"%d\n" % code)
        sha.update(report.read_bytes())
        digests[name] = sha.hexdigest()[:16]
    assert digests == PINNED_ENCODE_REPORTS


def _damage_sos(obj, case):
    if case == "string re":
        obj["terms"][0]["re"] = "0.8"
    elif case == "null terms":
        obj["terms"] = None
    elif case == "list term":
        obj["terms"][0] = [0.8, 0.0, "1100"]
    elif case == "nan amplitude":
        obj["terms"][0]["re"] = float("nan")
    elif case == "numeric occ":
        obj["terms"][0]["occ"] = 1100


@pytest.mark.parametrize("case, reason", [
    ("string re", "not an SOS state (TypeError"),
    ("null terms", "not an SOS state (TypeError"),
    ("list term", "not an SOS state (TypeError"),
    ("nan amplitude", "amplitude of 1100 is not finite"),
    ("numeric occ", "bad occupation string 1100"),
], ids=["string-re", "null-terms", "list-term", "nan-amplitude",
        "numeric-occ"])
def test_malformed_sos_file_is_refused_naming_it(tmp_path, capsys, case,
                                                 reason):
    obj = {"n_spin_orbitals": 4,
           "terms": [{"re": 0.8, "im": 0.0, "occ": "1100"},
                     {"re": 0.6, "im": 0.0, "occ": "0011"}]}
    _damage_sos(obj, case)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    out = tmp_path / "out.npz"
    _refused_naming(capsys, path, ["convert", "--input", str(path),
                                   "--to", "mps", "--out", str(out)], reason)
    _refused_naming(capsys, path, ["simulate-encode", "--sos", str(path)],
                    reason)
    assert not out.exists()


def test_odd_spin_orbital_count_is_refused_naming_the_sos_file(tmp_path,
                                                              capsys):
    path = tmp_path / "odd.json"
    path.write_text(json.dumps({"n_spin_orbitals": 3, "terms": [
        {"re": 1.0, "im": 0.0, "occ": "110"}]}))
    out = tmp_path / "out.npz"
    code = cli.dispatch(["convert", "--input", str(path), "--to", "mps",
                         "--out", str(out)])
    captured = capsys.readouterr()
    assert code == cli.EXIT_INPUT
    assert captured.out == ""
    assert captured.err == \
        "error: %s: need an even number of spin orbitals\n" % path
    assert not out.exists()


def test_non_finite_mps_file_is_refused_naming_it(tmp_path, capsys):
    from qprep.states import SosState, save_mps, sos_to_mps

    mps, _ = sos_to_mps(SosState(4, [(0.8, "1100"), (0.6, "0011")]),
                        chi_max=2)
    mps.tensors[0][0, 3, 0] = np.nan
    path = tmp_path / "nan.npz"
    save_mps(mps, path)
    out = tmp_path / "out.json"
    _refused_naming(capsys, path, ["convert", "--input", str(path),
                                   "--to", "sos", "--out", str(out)],
                    "site tensor 0 is not finite")
    assert not out.exists()


def test_estimate_cost_header_and_frozen_point(capsys):
    code = cli.dispatch(["estimate-cost", "--n-spatial", "100",
                         "--d-values", "1024", "--chi-values", "16"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_OK
    lines = captured.out.splitlines()
    assert lines[0] == "param,method,toffoli,clean_qubits,dirty_qubits"
    table = {tuple(row.split(",")[:2]): row.split(",")
             for row in lines[1:]}
    assert table[("1024", "sos_basic")][2] == "23552"
    assert ("16", "mps_select") in table


def test_estimate_cost_is_exact_past_two_to_the_52(capsys):
    code = cli.dispatch(["estimate-cost", "--n-spatial", "100",
                         "--d-values", str(2 ** 53 + 1)])
    lines = capsys.readouterr().out.splitlines()
    assert code == cli.EXIT_OK
    assert lines[1] == "9007199254740993,sos_basic,999799117276250223,467,0"


def test_estimate_cost_prices_a_determinant_count_past_the_float_range(
        capsys):
    d = 10 ** 400
    code = cli.dispatch(["estimate-cost", "--n-spatial", "100",
                         "--d-values", str(d)])
    lines = capsys.readouterr().out.splitlines()
    assert code == cli.EXIT_OK
    L = 1329  # 2^1328 < 10^400 <= 2^1329
    assert lines[1] == "%d,sos_basic,%d,%d,0" % (d, (2 * L + 3) * d,
                                                   200 + 5 * L - 3)
    assert lines[2].startswith("%d,sos_tradeoff," % d)
    assert lines[3] == "%d,sos_prior,%d,399,0" % (d, 199 * (d - 1))


def test_levels_source_merges_duplicates(tmp_path, capsys):
    levels = tmp_path / "levels.csv"
    levels.write_text("0.25,1.0\n0.25,1.0\n0.75,2.0\n")
    report = run_json(capsys, ["qpe-stats", "--levels", str(levels),
                               "--k", "2", "--full"])
    dist = {x: p for x, _, p in report["distribution"]}
    assert dist[1] == pytest.approx(0.5)
    assert dist[3] == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# reproduce
# ---------------------------------------------------------------------------

def test_h6_and_config_refusals_name_their_file_once(tmp_path, capsys,
                                                     recorded_checks):
    bad = tmp_path / "bad.fcidump"
    bad.write_text("not an FCIDUMP\n")
    code = cli.dispatch(["reproduce", "--out", str(tmp_path / "checks.txt"),
                         "--h6", str(bad)])
    captured = capsys.readouterr()
    assert code == cli.EXIT_INPUT
    assert captured.err == (f"error: {bad}: line 1: file does not start "
                            "with an &FCI namelist\n")
    cfg = tmp_path / "c.cfg"
    for text, reason in (
            (b"k 3\n", "line 1: expected key=value, got 'k 3'"),
            (b"bogus = 1\n", "unknown config key 'bogus'"),
            (b"help = 1\n", "config key 'help' is not settable from a file"),
            (b"gaussian = 0.06\n", "config key 'gaussian' needs 2 values"),
            (b"gaussian = 0.06 -0.01\n",
             "argument --gaussian: sigma -0.01 must be > 0"),
            (b"k = 0\n", "argument --k: '0' must be an int in [1, inf]"),
            (b"k = \xff\n", "'utf-8' codec can't decode byte 0xff in "
                            "position 4: invalid start byte")):
        cfg.write_bytes(text)
        code = cli.dispatch(["qpe-stats", *GAUSSIAN, "--config", str(cfg)])
        captured = capsys.readouterr()
        assert code == cli.EXIT_INPUT and captured.out == ""
        assert captured.err == f"error: {cfg}: {reason}\n"


def test_reproduce_all_checks_and_h6_protocol(tmp_path, capsys,
                                              recorded_checks):
    diag = [-2.0, -1.5, -1.0, 1.0, 1.5, 2.0]
    lines = ["&FCI NORB=6,NELEC=6,MS2=0,", "&END"]
    lines += [" 0.05 %d %d %d %d" % (p, p, p, p) for p in range(1, 7)]
    lines += [" %.1f %d %d 0 0" % (e, p + 1, p + 1)
              for p, e in enumerate(diag)]
    lines += [" 0.02 2 1 1 1", " 0.1 4 1 4 1", " 0.0 0 0 0 0"]
    fc = tmp_path / "six.fcidump"
    fc.write_text("\n".join(lines) + "\n")

    check_lines = tmp_path / "checks.txt"
    code = cli.dispatch(["reproduce", "--out", str(check_lines),
                         "--h6", str(fc)])
    captured = capsys.readouterr()
    assert code == cli.EXIT_OK
    rows = check_lines.read_text().splitlines()
    assert len(rows) == 10
    assert all(row.startswith("[PASS]") for row in rows)
    assert [int(row.split()[1]) for row in rows] == list(range(1, 11))
    protocol = json.loads(captured.out)
    assert protocol["correlation_lowers_energy"] is True
    assert protocol["dominant_weight"] > 0.5
    # recorded when the ground vector was a column of the dense
    # eigenvectors, before it came from the blocks' orbit transform
    assert hashlib.sha256(captured.out.encode()).hexdigest()[:16] \
        == "aa43214bb1f3ab5f"
