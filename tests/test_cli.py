import io
import warnings
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

import sympwave as sw
from sympwave.cli import main


def test_kernel_subcommand(tmp_path):
    out = tmp_path / "k.csv"
    code = main(["kernel", "--preset", "h3", "--psi", "exp:1.0",
                 "--t-list", "10,20", "--R", "0.5", "--out", str(out)])
    assert code == 0
    rows = sw.read_csv(str(out))
    assert len(rows) == 2
    assert rows[0].get("t") == 10.0


def test_cfun_subcommand(tmp_path):
    out = tmp_path / "c.csv"
    code = main(["cfun", "--preset", "h3", "--lambda-max", "2.0",
                 "--steps", "5", "--out", str(out)])
    assert code == 0
    rows = sw.read_csv(str(out))
    assert len(rows) == 5
    # density is lambda^2 for this preset
    assert rows[-1].get("density") == pytest.approx(4.0, rel=1e-9)


def test_stphase_subcommand(tmp_path):
    out = tmp_path / "s.csv"
    assert main(["stphase", "--x-list", "30", "--N", "2", "--M", "1",
                 "--out", str(out)]) == 0
    rows = sw.read_csv(str(out))
    assert rows[0].get("abs_err") < 1e-7


def test_svg_output(tmp_path):
    out = tmp_path / "k.svg"
    assert main(["kernel", "--preset", "h3", "--psi", "exp:1.0",
                 "--t-list", "10,20,40", "--R", "0.5", "--out", str(out)]) == 0
    assert out.read_text().startswith("<svg")


def test_usage_error_exit_code(tmp_path, capsys):
    code = main(["kernel", "--preset", "bogus", "--psi", "exp:1.0",
                 "--t-list", "10", "--R", "1.0", "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "usage error" in capsys.readouterr().err


def test_divergence_exit_code(tmp_path, capsys):
    code = main(["kernel", "--preset", "h3", "--psi", "rational:2.0",
                 "--t-list", "10", "--R", "1.0", "--out", str(tmp_path / "x.csv")])
    assert code == 3
    assert "divergence" in capsys.readouterr().err


def test_unresolved_exit_code(capsys):
    # the a2 Plancherel density at r = 128 outgrows the largest proxy degree, 4096
    code = main(["model", "--preset", "a2", "--symbol", "plancherel",
                 "--r", "128", "--h-list", "5"])
    assert code == 3
    captured = capsys.readouterr()
    assert "numeric error" in captured.err and "Traceback" not in captured.err
    assert "at degree 4096" in captured.err and captured.out == ""


def test_oversized_transform_exit_code(capsys):
    # exp:1e-6 decays so slowly that its transform would need 23M Filon panels
    code = main(["kernel", "--preset", "h3", "--psi", "exp:1e-6",
                 "--t-list", "10", "--R", "0.5"])
    assert code == 3
    captured = capsys.readouterr()
    assert "numeric error" in captured.err and "rmax" in captured.err
    assert "23033713 Filon panels" in captured.err and captured.out == ""


def test_io_error_exit_code(capsys):
    code = main(["kernel", "--preset", "h3", "--psi", "exp:1.0",
                 "--t-list", "10", "--R", "1.0", "--out", "/no-such-dir/x.csv"])
    assert code == 4


def test_config_file_with_cli_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("experiment = kernel\npreset = h3\npsi = exp:1.0\n"
                   "t-list = 10\nR = 0.5\n")
    out = tmp_path / "k.csv"
    code = main(["kernel", "--config", str(cfg), "--t-list", "10,20,30",
                 "--out", str(out)])
    assert code == 0
    assert len(sw.read_csv(str(out))) == 3  # CLI list overrode the config


def test_empty_list_is_success(tmp_path):
    out = tmp_path / "k.csv"
    code = main(["kernel", "--preset", "h3", "--psi", "exp:1.0",
                 "--t-list", "", "--R", "0.5", "--out", str(out)])
    assert code == 0


def test_stdout_rendering(capsys):
    assert main(["cfun", "--preset", "h3", "--lambda-max", "1.0", "--steps", "2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "lambda_1,density"
    assert len(lines) == 3


def test_model_subcommand_plancherel(tmp_path):
    out = tmp_path / "m.csv"
    code = main(["model", "--preset", "a2", "--symbol", "plancherel",
                 "--r", "1.0", "--h-list", "12", "--out", str(out)])
    assert code == 0
    row = sw.read_csv(str(out))[0]
    gap = abs(complex(row.get("direct_re"), row.get("direct_im"))
              - complex(row.get("main_re"), row.get("main_im"))
              - complex(row.get("R0_re"), row.get("R0_im"))
              - complex(row.get("R1_re"), row.get("R1_im"))
              - complex(row.get("R2_re"), row.get("R2_im")))
    assert gap <= 1e-6 * abs(complex(row.get("direct_re"), row.get("direct_im"))) + 1e-9
    assert row.get("bound_ratio") > 0.0


@pytest.mark.parametrize("argv", [
    ["cfun", "--preset", "h3", "--lambda-max", "2.0", "--steps", "abc"],
    ["kernel", "--preset", "h3", "--psi", "exp:1.0", "--t-list", "10", "--R", "abc"],
    ["kernel", "--preset", "h3", "--psi", "exp:1.0", "--t-list", "1:10:x:lin", "--R", "0.5"],
    ["dispersive", "--preset", "h3", "--psi", "exp:1.0", "--p", "1", "--t-list", "10"],
])
def test_malformed_or_out_of_range_input_exit_code(argv, capsys):
    assert main(argv) == 2
    assert "usage error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["cfun", "--preset", "h3", "--lambda-max", "2", "--steps", "2", "--direction", "1,2"],
    ["cfun", "--preset", "h3", "--lambda-max", "2", "--steps", "2", "--direction", "0"],
    ["cfun", "--preset", "a2", "--lambda-max", "2", "--steps", "2", "--direction", "0,0"],
    ["kernel", "--preset", "h3", "--psi", "exp:1.0", "--t-list", "10", "--R", "-1"],
    ["kernel", "--preset", "h3", "--psi", "exp:1.0", "--t-list", "nan,inf", "--R", "0.5"],
    ["cfun", "--preset", "h3", "--lambda-max", "nan", "--steps", "2"],
    ["kernel", "--preset", "h3", "--psi", "exp:inf", "--t-list", "10", "--R", "0.5"],
    ["kernel", "--preset", "h3", "--psi", "exp:nan", "--t-list", "10", "--R", "0.5"],
    ["kernel", "--preset", "h3", "--psi", "exp:1.0", "--t-list", "5", "--R", "800"],
    ["kernel", "--preset", "h4", "--psi", "exp:1.0", "--t-list", "5", "--R", "400"],
    ["dispersive", "--preset", "h3", "--psi", "exp:1.0", "--p", "2.3", "--t-list", "10"],
    ["dispersive", "--preset", "h3", "--psi", "exp:1.0", "--p", "2.2", "--t-list", "10"],
    ["stphase", "--x-list", "300", "--N", "40", "--M", "1"],
    ["stphase", "--x-list", "300", "--N", "62"],
    ["stphase", "--x-list", "300", "--N", "2", "--M", "30"],
    ["stphase", "--x-list", "", "--N", "40"],
    ["model", "--preset", "a2", "--r", "1", "--h-list", "", "--M", "-1"],
    ["dispersive", "--preset", "h3", "--psi", "exp:1", "--p", "1", "--t-list", ""],
], ids=["direction-length", "direction-zero-rank1", "direction-zero-rank2",
        "negative-radius", "non-finite-times", "non-finite-lambda-max",
        "infinite-profile-parameter", "nan-profile-parameter", "radius-past-double-range",
        "radius-past-sinh-range", "bound-radius-past-polar-weight", "bound-radius-past-double-range",
        "expansion-terms-N-40", "expansion-terms-N-62", "expansion-terms-M-30",
        "expansion-terms-empty-grid", "boundary-terms-empty-grid", "bound-exponent-empty-grid"])
def test_invalid_input_exit_code(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "usage error" in captured.err and captured.out == ""


# -- every spec gets rows or a documented exit code ---------------------------------

# valid and malformed values of each flag; sizes and radii are bounded so that
# an example runs in about a second and allocates little.  A tiny profile
# parameter such as exp:1e-6 exits 3 before its transform's panels are allocated
_BAD = ["nan", "inf", "-1", "x", "", None]      # None leaves the flag out
_PRESETS = (["h2", "h3", "h4", "ch2", "a2"], ["bogus", "", None])
_POOLS = {
    "cfun": {"preset": _PRESETS, "lambda-max": (["0", "3", "1e3"], _BAD),
             "steps": (["0", "1", "40"], ["2.5", *_BAD]),
             "direction": (["1", "1,0", "1,2", None], ["0,0", "1,2,3", "nan,1", "a"])},
    "stphase": {"demo": (["cos", None], ["sin", ""]),
                "x-list": (["20", "20,300", "", "20:60:3:log"], ["0", "-5", "1:2:3", "x", "nan",
                                                                None]),
                "N": (["1", "2", "3", None], ["0", "70", *_BAD]),
                "M": (["1", "2", None], ["0", "30", *_BAD])},
    "model": {"preset": (["a2"], ["h3", "bogus", "", None]),
              "symbol": (["gauss", "plancherel", None], ["bogus", ""]),
              "r": (["0.5", "1", "2"], ["0", *_BAD]),
              "h-list": (["5", "1,40", "0", "", "2:8:2:lin"], ["-3", "nan", None]),
              "M": (["0", "1", "2", None], ["-1", "x"])},
    "kernel": {"preset": (["h2", "h3", "h4", "ch2"], ["a2", "bogus", "", None]),
               "psi": (["exp:1.0", "rational:8", "bump:2", "exp:1e-6"],
                       ["rational:2.0", "exp:nan", "exp:-1", "exp:0", "foo:1", "exp", "", None]),
               "t-list": (["5", "5,40", "-5", "0", ""], ["nan", "x", None]),
               "R": (["0", "0.5", "2"], _BAD)},
    "dispersive": {"preset": (["h3", "h4", "ch2"], ["a2", "bogus", "", None]),
                   "psi": (["exp:1.0", "exp:1e-6"],
                           ["rational:2.0", "exp:nan", "foo:1", "", None]),
                   "t-list": (["10", "-10", ""], ["nan", "x", None]),
                   "p": (["4"], ["2", "1.5", *_BAD])},
}


@st.composite
def cli_cases(draw):
    """A subcommand with valid flags, except, in about half the cases, one
    malformed or missing flag."""
    experiment = draw(st.sampled_from(sorted(_POOLS)))
    pools = _POOLS[experiment]
    broken = draw(st.sampled_from([*pools, *[None] * len(pools)]))
    argv = [experiment]
    for flag, (valid, bad) in pools.items():
        value = draw(st.sampled_from(bad if flag == broken else valid))
        if value is not None:
            argv.append(f"--{flag}={value}")
    return argv


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(cli_cases())
def test_every_spec_gets_rows_or_a_documented_exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            code = main(argv)
        except SystemExit as exc:        # argparse's own usage errors
            code = exc.code
    event(f"{argv[0]} exit {code}")
    assert code in (0, 2, 3, 4), (argv, code, err.getvalue())
    if code == 0:
        lines = out.getvalue().splitlines()
        assert all(len(line.split(",")) == len(lines[0].split(",")) for line in lines)
        for line in lines[1:]:
            [float(tok) for tok in line.split(",")]
    else:
        assert err.getvalue(), argv
