import hashlib
import json
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from qprep import cli


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
    assert "line 3" in captured.err


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


def test_levels_file_with_nan_weight_is_an_input_error(tmp_path, capsys):
    levels = tmp_path / "nan.csv"
    levels.write_text("0.2,0.5\n0.4,nan\n")
    code = cli.dispatch(["qpe-stats", "--levels", str(levels), "--k", "3"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_INPUT
    assert "non-finite" in captured.err


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
        "degree-zero", "zeta-zero", "angle-margin-zero",
        "angle-margin-half-pi", "easy-threshold-zero",
        "easy-threshold-above-one", "flag-factor-zero", "threads-zero",
        "dim-cap-zero", "na-negative", "nb-negative", "sigma-negative",
        "sigma-zero", "shots-above-cap", "n-levels-above-cap",
        "case-study-n-levels-above-cap"])
def test_readout_flag_ranges_are_usage_errors(argv, capsys):
    assert cli.dispatch(argv) == cli.EXIT_USAGE
    assert "must" in capsys.readouterr().err


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


def _build_pipeline_matrix(tmp_path, capsys):
    """``ham build`` of a seeded 4-orbital (2,1) sector (dim 24) plus a
    complex state CSV for it."""
    from qprep.hamiltonian import FciDump, dump_fcidump

    rng = np.random.default_rng(31)
    h = rng.normal(size=(4, 4))
    g = 0.1 * rng.normal(size=(4,) * 4)
    g = g + g.transpose(1, 0, 2, 3)
    g = g + g.transpose(0, 1, 3, 2)
    g = g + g.transpose(2, 3, 0, 1)
    fc = tmp_path / "h.fcidump"
    fc.write_text(dump_fcidump(FciDump(4, 3, 1, 0.4, h + h.T, g)))
    state = tmp_path / "state.csv"
    np.savetxt(state, rng.normal(size=(24, 2)), delimiter=",")
    matrix = tmp_path / "h.npz"
    summary = run_json(capsys, ["ham", "build", "--fcidump", str(fc),
                                "--na", "2", "--nb", "1",
                                "--out", str(matrix)])
    assert summary["dim"] == 24
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
    return commands


# sha256 (first 16 hex digits) of each pinned command's exit code, stdout
# and written files, recorded before the outcome law became a
# SpectralMeasure and the Lorentzian lost its kernel class
PINNED_OUTPUTS = {
    "ham qpe-stats": "329a25f8ffc5fcae",
    "ham goldilocks": "bd3c52de68e6660b",
    "ham leakage": "bf4fc1c4e563dd8a",
    "ham refine cqpe": "24030aff0c8a25f2",
    "ham series": "ca372fe5bed43fc5",
    "ham cqpe": "12c41105be2c8469",
    "levels qpe-stats": "1676386cb797879e",
    "levels goldilocks": "2587e0c7c37dbe6e",
    "levels leakage": "c918f0e2f21cda7c",
    "levels refine cqpe": "4eb5fbf3bf854e92",
    "levels series": "4afca7a318ef7341",
    "levels cqpe": "b9e4e8edd069c5ac",
    "gaussian qpe-stats": "8728d93c8d2c82da",
    "gaussian goldilocks": "d18e44f0b7ff95c7",
    "gaussian leakage": "42a082980ab99c6f",
    "gaussian refine cqpe": "e87a83b1e9bbbf21",
    "gaussian series": "ffb7e17ee0dda170",
    "gaussian cqpe": "60a1094aaa0037f1",
    "ham resolvent": "7bc0604f24607169",
}


def test_measure_command_bytes_are_pinned(tmp_path, capsys):
    digests = {}
    for name, (argv, files) in _pinned_commands(tmp_path, capsys).items():
        code = cli.dispatch(argv)
        sha = hashlib.sha256(b"%d\n" % code)
        sha.update(capsys.readouterr().out.encode())
        for path in files:
            sha.update(path.read_bytes())
        digests[name] = sha.hexdigest()[:16]
    assert digests == PINNED_OUTPUTS


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
    ("truncated", "not a zip file"),
    ("not a zip", "not an npz archive"),
    ("npy file", "not an npz archive"),
    ("no labels", "archive has no basis_labels")])
def test_damaged_npz_is_an_input_error(tmp_path, capsys, damage, reason):
    matrix, state = _build_pipeline_matrix(tmp_path, capsys)
    raw = bytearray(matrix.read_bytes())
    if damage == "flipped byte":
        raw[_middle_payload_byte(matrix, "eigenvectors.npy")] ^= 0x10
    elif damage == "truncated":
        raw = raw[:len(raw) // 2]
    elif damage == "not a zip":
        raw = b"energy,weight\n0.1,1.0\n"
    bad = tmp_path / "bad.npz"
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
], ids=["levels-columns", "levels-empty", "state-length", "state-columns",
        "state-empty"])
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


def test_subnormal_weight_below_target_gets_exact_repetitions(tmp_path,
                                                              capsys):
    levels = tmp_path / "lv.csv"
    levels.write_text("0.1,1e-320\n0.5,1\n")
    report = run_json(capsys, ["goldilocks", "--levels", str(levels),
                               "--et", "0.2", "--budget", "10"])
    assert report["class"] == "Hard"
    assert report["p_below_target"] == 1e-320
    assert report["required_reps"] == math.ceil(1 / Fraction(1e-320))


@pytest.mark.parametrize("amplitude", ["1e300", "1e-320"])
def test_state_whose_norm_overflows_or_underflows_is_measured(
        tmp_path, capsys, amplitude):
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
    assert stdout[0] == stdout[1]


def test_energy_dist_resolvent_matches_the_solver(tmp_path, capsys):
    from qprep.hamiltonian import DenseHamiltonian, save_hamiltonian
    from qprep.spectra import default_grid, resolvent_distribution

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
    h_norm, norm = oracles.normalize_spectrum(h)
    grid, solved = resolvent_distribution(h_norm, np.ones(30), 0.03,
                                          default_grid(48))
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
])
@pytest.mark.parametrize("check", [False, True])
def test_malformed_compress_input_is_an_input_error(tmp_path, capsys, lines,
                                                     named, check):
    dets = tmp_path / "dets.txt"
    dets.write_text("# comment\n" + lines)
    argv = ["compress", "--input", str(dets)] + (["--check"] if check else [])
    code = cli.dispatch(argv)
    captured = capsys.readouterr()
    assert code == cli.EXIT_INPUT
    assert named in captured.err
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
