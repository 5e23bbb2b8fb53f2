import io
import os
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

import sympwave as sw
from sympwave.cli import main
from sympwave.harness import EXPERIMENTS


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
    # p is a dispersive key: a config file may serve both experiments
    cfg.write_text("experiment = kernel\npreset = h3\npsi = exp:1.0\n"
                   "t-list = 10\nR = 0.5\np = 4\n")
    out = tmp_path / "k.csv"
    code = main(["kernel", "--config", str(cfg), "--t-list", "10,20,30",
                 "--out", str(out)])
    assert code == 0
    assert len(sw.read_csv(str(out))) == 3  # CLI list overrode the config


def test_empty_list_is_success(tmp_path, capsys):
    argv = ["kernel", "--preset", "h3", "--psi", "exp:1.0", "--t-list", "", "--R", "0.5"]
    out = tmp_path / "k.csv"
    assert main(argv + ["--out", str(out)]) == 0
    assert out.read_bytes() == b"\n"
    assert main(argv) == 0
    assert capsys.readouterr().out == ""


def test_stdout_is_the_out_file(tmp_path, capsys):
    argv = ["cfun", "--preset", "a2", "--lambda-max", "10", "--steps", "200"]
    out = tmp_path / "c.csv"
    assert main(argv + ["--out", str(out)]) == 0
    assert main(argv) == 0
    assert capsys.readouterr().out.encode() == out.read_bytes()


def test_ragged_rows_exit_code(monkeypatch, capsys):
    rows = [sw.SweepRecord(inputs=(("x", 1.0),), outputs=(("y", 2.0),)),
            sw.SweepRecord(inputs=(("x", 1.0),), outputs=(("y", 2.0j),))]
    monkeypatch.setitem(EXPERIMENTS, "cfun", EXPERIMENTS["cfun"]._replace(run=lambda spec: rows))
    assert main(["cfun", "--preset", "h3", "--lambda-max", "1", "--steps", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "row 1 has columns x,y_re,y_im" in captured.err


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


# -- the CLI is built from harness.EXPERIMENTS --------------------------------------

# `sympwave [experiment] --help` at 80 columns, pinned: each flag, its order and
# its metavar are part of the CLI that scripts and config files rely on
_HELP = {
    "": """\
usage: sympwave [-h] {cfun,stphase,model,kernel,dispersive} ...

spectral-density, stationary-phase and wave-kernel sweeps

positional arguments:
  {cfun,stphase,model,kernel,dispersive}
    cfun                Plancherel density along a ray
    stphase             boundary expansion vs direct quadrature
    model               radial-density decomposition sweep
    kernel              wave-kernel values on a time grid
    dispersive          convolution-bound integral on a time grid

options:
  -h, --help            show this help message and exit
""",
    "cfun": """\
usage: sympwave cfun [-h] [--preset PRESET] [--lambda-max LAMBDA_MAX]
                     [--steps STEPS] [--direction DIRECTION] [--config CONFIG]
                     [--out OUT]

options:
  -h, --help            show this help message and exit
  --preset PRESET
  --lambda-max LAMBDA_MAX
  --steps STEPS
  --direction DIRECTION
  --config CONFIG       key = value file with defaults
  --out OUT             output path (.csv or .svg)
""",
    "stphase": """\
usage: sympwave stphase [-h] [--demo DEMO] [--x-list X_LIST] [--N N] [--M M]
                        [--config CONFIG] [--out OUT]

options:
  -h, --help       show this help message and exit
  --demo DEMO
  --x-list X_LIST
  --N N
  --M M
  --config CONFIG  key = value file with defaults
  --out OUT        output path (.csv or .svg)
""",
    "model": """\
usage: sympwave model [-h] [--preset PRESET] [--symbol SYMBOL] [--r R]
                      [--h-list H_LIST] [--M M] [--config CONFIG] [--out OUT]

options:
  -h, --help       show this help message and exit
  --preset PRESET
  --symbol SYMBOL
  --r R
  --h-list H_LIST
  --M M
  --config CONFIG  key = value file with defaults
  --out OUT        output path (.csv or .svg)
""",
    "kernel": """\
usage: sympwave kernel [-h] [--preset PRESET] [--psi PSI] [--t-list T_LIST]
                       [--R R] [--config CONFIG] [--out OUT]

options:
  -h, --help       show this help message and exit
  --preset PRESET
  --psi PSI
  --t-list T_LIST
  --R R
  --config CONFIG  key = value file with defaults
  --out OUT        output path (.csv or .svg)
""",
    "dispersive": """\
usage: sympwave dispersive [-h] [--preset PRESET] [--psi PSI] [--p P]
                           [--t-list T_LIST] [--config CONFIG] [--out OUT]

options:
  -h, --help       show this help message and exit
  --preset PRESET
  --psi PSI
  --p P
  --t-list T_LIST
  --config CONFIG  key = value file with defaults
  --out OUT        output path (.csv or .svg)
""",
}


@pytest.mark.parametrize("experiment", list(_HELP), ids=[e or "sympwave" for e in _HELP])
def test_help_text_is_unchanged(experiment, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main([experiment, "--help"] if experiment else ["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == _HELP[experiment]


@pytest.mark.parametrize("argv", [
    ["cfun", "--preset", "h3", "--lambda-max", "2.0", "--steps", "abc"],
    ["kernel", "--preset", "h3", "--psi", "exp:1.0", "--t-list", "10", "--R", "abc"],
    ["kernel", "--preset", "h3", "--psi", "exp:1.0", "--t-list", "1:10:x:lin", "--R", "0.5"],
    ["dispersive", "--preset", "h3", "--psi", "exp:1.0", "--p", "1", "--t-list", "10"],
])
def test_malformed_or_out_of_range_input_exit_code(argv, capsys):
    assert main(argv) == 2
    assert "usage error" in capsys.readouterr().err


@pytest.mark.parametrize("argv,message", [
    (["model", "--preset", "a2", "--r", "0", "--h-list", "10"], "needs r > 0, got r = 0.0\n"),
    (["model", "--preset", "a2", "--r", "0", "--h-list", "10", "--M", "9"],
     "needs r > 0, got r = 0.0\n"),
    (["model", "--preset", "a2", "--r", "1", "--h-list", "10", "--M", "9"],
     "needs 0 <= M <= 3, got M = 9\n"),
])
def test_model_usage_error_names_the_limit_that_failed(argv, message, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.endswith(message) and err.count(" = ") == 1, err


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
    ["model", "--preset", "a2", "--r", "1", "--h-list", "10", "--M", "4"],
    ["model", "--preset", "a2", "--r", "1", "--h-list", "10", "--M", "9"],
    ["dispersive", "--preset", "h3", "--psi", "exp:1", "--p", "1", "--t-list", ""],
    ["kernel", "--preset", "h3", "--psi", "exp:1", "--t-list", "1:2:-1:lin", "--R", "0.5"],
    ["kernel", "--preset", "h3", "--psi", "exp:1", "--t-list", "1:0:3:log", "--R", "0.5"],
    ["stphase", "--x-list", "1:-5:3:log", "--N", "2", "--M", "1"],
    ["kernel", "--preset", "h3", "--psi", "exp:1", "--t-list", "1e17", "--R", "0"],
    ["kernel", "--preset", "h3", "--psi", "exp:1", "--t-list", "1e300", "--R", "0.5"],
    ["dispersive", "--preset", "h3", "--psi", "exp:1", "--p", "4", "--t-list", "1e17"],
    ["cfun", "--config", b"\xff\xfepreset = h3\n", "--lambda-max", "2", "--steps", "2"],
    ["cfun", "--preset", "h3", "--lambda-max", "2", "--steps", "100000000000"],
    ["kernel", "--preset", "h3", "--psi", "exp:1", "--t-list", "0:1:100000000000:lin", "--R", "1"],
    ["cfun", "--preset", "h3", "--lambda-max", "1e160", "--steps", "3"],
    ["cfun", "--preset", "a2", "--lambda-max", "1e160", "--steps", "3"],
    ["cfun", "--preset", "ch2", "--lambda-max=-1e160", "--steps", "3"],
    ["cfun", "--config", b"preset = h3\ndirecion = 1,2\n", "--lambda-max", "2", "--steps", "2"],
], ids=["direction-length", "direction-zero-rank1", "direction-zero-rank2",
        "negative-radius", "non-finite-times", "non-finite-lambda-max",
        "infinite-profile-parameter", "nan-profile-parameter", "radius-past-double-range",
        "radius-past-sinh-range", "bound-radius-past-polar-weight", "bound-radius-past-double-range",
        "expansion-terms-N-40", "expansion-terms-N-62", "expansion-terms-M-30",
        "expansion-terms-empty-grid", "boundary-terms-empty-grid", "boundary-terms-M-4",
        "boundary-terms-M-9", "bound-exponent-empty-grid",
        "negative-step-count", "log-grid-zero-end", "log-grid-negative-end",
        "time-past-table-at-origin", "time-past-table-and-double-power", "bound-time-past-table",
        "config-not-utf8", "steps-past-cap", "grid-steps-past-cap", "density-overflow-h3",
        "density-overflow-a2", "density-overflow-ch2", "config-key-of-no-experiment"])
def test_invalid_input_exit_code(argv, tmp_path, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(_write_config(argv, tmp_path)) == 2
    captured = capsys.readouterr()
    assert "usage error" in captured.err and captured.out == ""
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv,message", [
    (["cfun", "--config", b"\xff\xfepreset = h3\n"], "run.cfg is not UTF-8 text"),
    (["cfun", "--preset", "h3", "--lambda-max", "2", "--steps", "1000001"],
     "steps must be from 0 to 1000000, got 1000001"),
    (["kernel", "--preset", "h3", "--psi", "exp:1", "--t-list", "0:1:1000001:lin", "--R", "1"],
     "needs a step count from 0 to 1000000"),
    (["cfun", "--preset", "h3", "--lambda-max", "1e160", "--steps", "3"],
     "the h3 density overflows past |lambda| = 1.341e+154 along this direction"),
    (["cfun", "--config", b"preset = h3\ndirecion = 1,2\n"], "no experiment has a key 'direcion'"),
    (["stphase", "--x-list", "1e-80", "--N", "9", "--M", "1"],
     "x = 1e-80 is too small for N = 9, M = 1 and p = 2: x^-5 overflows; "
     "the smallest x that fits is 2.23389e-62"),
    (["stphase", "--x-list", "1e-40", "--N", "2", "--M", "9"],
     "x = 1e-40 is too small for N = 2, M = 9 and p = 2: x^-9 overflows; "
     "the smallest x that fits is 5.61669e-35"),
])
def test_usage_error_names_what_failed(argv, message, tmp_path, capsys):
    assert main(_write_config(argv, tmp_path)) == 2
    assert message in capsys.readouterr().err


def test_overflowing_expansion_exits_2_with_runtime_warnings_as_errors():
    # at x = 1e-58 the R1 integrand overflows in numpy; that must reach the
    # non-finite total's usage error, not escape as a RuntimeWarning (exit 1)
    src = os.path.dirname(os.path.dirname(sw.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "sympwave.cli",
                           "stphase", "--x-list", "1e-58", "--N", "9", "--M", "1"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == ("usage error: the expansion at x = 1e-58 with N = 9 and M = 1 "
                           "overflows: its total is (nan+nanj)\n")


def _write_config(argv, tmp_path):
    """argv with a bytes item written to run.cfg and replaced by its path."""
    path = tmp_path / "run.cfg"
    for item in argv:
        if isinstance(item, bytes):
            path.write_bytes(item)
    return [str(path) if isinstance(item, bytes) else item for item in argv]


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
                "x-list": (["20", "20,300", "", "20:60:3:log", "1e-80"],
                           ["0", "-5", "1:2:3", "x", "nan", "5e-324", None]),
                "N": (["1", "2", "3", None], ["0", "70", *_BAD]),
                "M": (["1", "2", None], ["0", "30", *_BAD])},
    "model": {"preset": (["a2"], ["h3", "bogus", "", None]),
              "symbol": (["gauss", "plancherel", None], ["bogus", ""]),
              "r": (["0.5", "1", "2"], ["0", *_BAD]),
              "h-list": (["5", "1,40", "0", "", "2:8:2:lin"], ["-3", "nan", None]),
              "M": (["0", "1", "2", "3", None], ["-1", "4", "30", "x"])},
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


def test_pools_cover_every_key_of_every_experiment():
    assert {name: set(pools) for name, pools in _POOLS.items()} == \
        {name: set(experiment.keys) for name, experiment in EXPERIMENTS.items()}


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
