import pytest

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
    # the a2 Plancherel density at r = 16 outgrows the pole amplitudes' largest proxy degree
    code = main(["model", "--preset", "a2", "--symbol", "plancherel",
                 "--r", "16", "--h-list", "5"])
    assert code == 3
    captured = capsys.readouterr()
    assert "numeric error" in captured.err and "Traceback" not in captured.err
    assert captured.out == ""


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
], ids=["direction-length", "direction-zero-rank1", "direction-zero-rank2",
        "negative-radius", "non-finite-times", "non-finite-lambda-max",
        "infinite-profile-parameter", "nan-profile-parameter"])
def test_invalid_input_exit_code(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "usage error" in captured.err and captured.out == ""
