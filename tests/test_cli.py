"""Command-line surface: outputs, determinism, error reporting."""

import csv
import os
import warnings

import numpy as np
import pytest

from diffocean.cli import main
from diffocean.snapshot import read_snapshot

SMALL = """
seed = 42

[grid]
nx = 16
ny = 12
Lx = 1.6e6
Ly = 1.2e6
H = 200.0
f0 = -1e-4
beta = 2e-11

[physics]
A_h = 3435.5036038313715
r_bot = 1e-5
tau0 = 0.1
kappa_T = 300.0
lambda_relax = 1e-7
T_star_south = 25.0
T_star_north = 5.0

[stepping]
dt = 250.0
n_steps = 40

[initial]
noise_u = 0.1

[output]
directory = out
snapshot_every = 20

[gradcheck]
spinup_steps = 20
n_list = 1,2

[reconstruct]
l_steps = 2
iters = 8

[calibrate]
spinup_steps = 20
window_steps = 60
obs_every = 20
iters = 8

[sensitivity]
n_a = 3
n_r = 3

[benchmark]
n_list = 2,4
repetitions = 3
"""


@pytest.fixture()
def small_conf(tmp_path):
    path = tmp_path / "small.conf"
    path.write_text(SMALL)
    return str(path)


def read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def test_run_writes_outputs_and_is_deterministic(small_conf, tmp_path, capsys):
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["run", "--config", small_conf, "--out", out1]) == 0
    assert main(["run", "--config", small_conf, "--out", out2]) == 0
    final1 = (tmp_path / "a" / "state_final.dosn").read_bytes()
    final2 = (tmp_path / "b" / "state_final.dosn").read_bytes()
    assert final1 == final2
    assert os.path.exists(os.path.join(out1, "resolved.conf"))
    assert os.path.exists(os.path.join(out1, "state_000020.dosn"))
    rows = read_csv(os.path.join(out1, "diagnostics.csv"))
    assert len(rows) == 40
    assert set(rows[0]) == {"step", "time", "sum_eta", "total_energy", "transport_sv"}


def test_run_seed_override_changes_outputs(small_conf, tmp_path):
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["run", "--config", small_conf, "--out", out1]) == 0
    assert main(["run", "--config", small_conf, "--out", out2, "--seed", "43"]) == 0
    a = (tmp_path / "a" / "state_final.dosn").read_bytes()
    b = (tmp_path / "b" / "state_final.dosn").read_bytes()
    assert a != b


def test_outputs_are_create_only(small_conf, tmp_path, capsys):
    out = str(tmp_path / "a")
    assert main(["run", "--config", small_conf, "--out", out]) == 0
    assert main(["run", "--config", small_conf, "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "\n" not in err.strip()
    assert main(["run", "--config", small_conf, "--out", out, "--force"]) == 0


def test_config_error_is_one_line_and_nonzero(small_conf, capsys, tmp_path):
    code = main(
        ["run", "--config", small_conf, "--out", str(tmp_path / "x"),
         "--set", "physics.A_h=-5"]
    )
    assert code == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("error: ConfigError:")
    assert "\n" not in err


@pytest.mark.parametrize("n_list", ["", "0"])
def test_gradcheck_without_a_step_count_is_a_one_line_error(small_conf, tmp_path, capsys, n_list):
    out = tmp_path / "gc"
    code = main(["gradcheck", "--config", small_conf, "--out", str(out),
                 "--set", f"gradcheck.n_list={n_list}"])
    assert code == 1 and not out.exists()
    err = capsys.readouterr().err.strip()
    assert err.startswith("error: ConfigError:") and "gradcheck.n_list" in err
    assert "\n" not in err


@pytest.mark.parametrize("command", ["calibrate", "sensitivity"])
def test_an_empty_observation_window_is_a_one_line_error(small_conf, tmp_path, capsys, command):
    """obs_every longer than the window leaves no observation step: the
    command stops with one DomainError line and no NumPy warning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([command, "--config", small_conf, "--out", str(tmp_path / command),
                     "--set", "calibrate.obs_every=100"])
    assert code == 1 and not caught
    err = capsys.readouterr().err.strip()
    assert err.startswith("error: DomainError:") and "\n" not in err


def test_sensitivity_around_a_zero_truth_is_a_one_line_error(small_conf, tmp_path, capsys):
    code = main(["sensitivity", "--config", small_conf, "--out", str(tmp_path / "s"),
                 "--set", "physics.r_bot=0"])
    assert code == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("error: DomainError:") and "r_bot" in err
    assert "\n" not in err


@pytest.mark.parametrize("case", ["config_is_a_directory", "config_is_not_utf8", "out_is_a_file"])
def test_os_level_failures_are_one_line_config_errors(small_conf, tmp_path, capsys, case):
    """A config path naming a directory, a config file that is not UTF-8
    and an --out naming an existing file each give one ConfigError line
    that names the path."""
    config, out = small_conf, tmp_path / "out"
    if case == "config_is_a_directory":
        config = named = str(tmp_path)
    elif case == "config_is_not_utf8":
        path = tmp_path / "latin1.conf"
        path.write_bytes(("# caf\xe9" + SMALL).encode("latin-1"))
        config = named = str(path)
    else:
        out.write_text("")
        named = str(out)
    assert main(["run", "--config", config, "--out", str(out)]) == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("error: ConfigError:") and named in err
    assert "\n" not in err


def test_gradcheck_subcommand_accuracy(small_conf, tmp_path):
    out = str(tmp_path / "gc")
    assert main(["gradcheck", "--config", small_conf, "--out", out,
                 "--set", "gradcheck.n_list=1"]) == 0
    rows = read_csv(os.path.join(out, "gradcheck.csv"))
    assert {r["mode"] for r in rows} == {"jvp", "vjp"}
    for row in rows:
        assert row["n_steps"] == "1"
        assert float(row["accuracy"]) >= 0.99
        # 17 significant digits surviving the round trip
        assert float(row["ad_value"]) == pytest.approx(float(row["fd_value"]), rel=1e-6)


def test_reconstruct_subcommand(small_conf, tmp_path):
    out = str(tmp_path / "rec")
    assert main(["reconstruct", "--config", small_conf, "--out", out]) == 0
    rows = read_csv(os.path.join(out, "history.csv"))
    assert list(rows[0]) == ["iter", "loss", "distance", "grad_norm", "alpha"]
    losses = [float(r["loss"]) for r in rows]
    assert losses[-1] < losses[0]
    ref = read_snapshot(os.path.join(out, "reference_initial.dosn"))
    rec = read_snapshot(os.path.join(out, "recovered_initial.dosn"))
    pert = read_snapshot(os.path.join(out, "perturbed_initial.dosn"))
    err_rec = np.sum((rec.T.values - ref.T.values) ** 2)
    err_pert = np.sum((pert.T.values - ref.T.values) ** 2)
    assert err_rec < err_pert


def test_calibrate_subcommand(small_conf, tmp_path):
    out = str(tmp_path / "calib")
    assert main(["calibrate", "--config", small_conf, "--out", out,
                 "--set", "calibrate.init_scale_Ah=1.2",
                 "--set", "calibrate.init_scale_rbot=0.8"]) == 0
    rows = read_csv(os.path.join(out, "history.csv"))
    assert list(rows[0]) == ["iter", "loss", "A_h", "r_bot", "grad_norm", "alpha"]
    assert float(rows[-1]["loss"]) < float(rows[0]["loss"])
    assert abs(float(rows[-1]["r_bot"]) - 1e-5) < abs(float(rows[0]["r_bot"]) - 1e-5)


def test_sensitivity_subcommand(small_conf, tmp_path):
    out = str(tmp_path / "sens")
    assert main(["sensitivity", "--config", small_conf, "--out", out]) == 0
    rows = read_csv(os.path.join(out, "sensitivity.csv"))
    assert list(rows[0]) == ["A_h", "r_bot", "loss", "dL_dAh", "dL_drbot"]
    assert len(rows) == 9
    losses = [float(r["loss"]) for r in rows]
    assert all(np.isfinite(losses))


def test_sensitivity_reports_configured_decades(small_conf, tmp_path, capsys):
    out = str(tmp_path / "sens2")
    assert main(["sensitivity", "--config", small_conf, "--out", out,
                 "--set", "sensitivity.decades=2"]) == 0
    assert "3x3 grid over 2 decades around (A_h=" in capsys.readouterr().out
    rows = read_csv(os.path.join(out, "sensitivity.csv"))
    assert float(rows[-1]["A_h"]) / float(rows[0]["A_h"]) == pytest.approx(1e4)


def test_benchmark_subcommand(small_conf, tmp_path):
    out = str(tmp_path / "bench")
    assert main(["benchmark", "--config", small_conf, "--out", out]) == 0
    rows = read_csv(os.path.join(out, "timing.csv"))
    assert list(rows[0]) == ["n_steps", "forward_ms", "vjp_ms"]
    assert [r["n_steps"] for r in rows] == ["2", "4"]
    for row in rows:
        assert float(row["vjp_ms"]) > 0


def test_gradcheck_on_acc_mini_first_step(tmp_path):
    out = str(tmp_path / "gc")
    assert main(["gradcheck", "--config", "acc-mini.conf", "--out", out,
                 "--set", "gradcheck.n_list=1"]) == 0
    rows = read_csv(os.path.join(out, "gradcheck.csv"))
    assert {r["mode"] for r in rows} == {"jvp", "vjp"}
    for row in rows:
        assert float(row["accuracy"]) >= 0.99


def test_resolved_config_is_parseable(small_conf, tmp_path):
    from diffocean.config import parse_config

    out = str(tmp_path / "echo")
    assert main(["run", "--config", small_conf, "--out", out,
                 "--set", "physics.A_h=777.0"]) == 0
    cfg = parse_config(os.path.join(out, "resolved.conf"))
    assert cfg.physics.A_h == 777.0
