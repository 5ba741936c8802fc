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


# acc-mini.conf on an 8x6 grid: a quick run of the shipped configuration
ACC_MINI_8x6 = ["--config", "acc-mini.conf", "--set", "grid.nx=8", "--set", "grid.ny=6"]


@pytest.mark.parametrize(
    "command, override",
    [("run", "grid.Lx=inf"), ("sensitivity", "sensitivity.decades=400")],
    ids=["infinite-Lx", "overflowing-decades"],
)
def test_a_value_without_a_finite_meaning_is_one_config_error_line(
    tmp_path, capsys, command, override
):
    """A non-finite number, and a decades value whose grid factor
    10**decades overflows, are refused when the config is parsed."""
    out = tmp_path / command
    code = main([command, *ACC_MINI_8x6, "--set", override, "--out", str(out)])
    assert code == 1 and not out.exists()
    err = capsys.readouterr().err.strip()
    assert err.startswith("error: ConfigError:") and "\n" not in err


def _one_error_line(capsys, named):
    err = capsys.readouterr().err.strip()
    assert err.startswith(f"error: {named}:") and "\n" not in err
    return err


@pytest.mark.parametrize("axis", ["x", "y"])
def test_a_grid_spacing_whose_square_overflows_is_one_domain_error_line(tmp_path, capsys, axis):
    """An extent whose cell spacing squares past the float range is refused
    when the grid is built, before the damping bound divides by it."""
    code = main(["run", *ACC_MINI_8x6, "--set", f"grid.L{axis}=1e300",
                 "--out", str(tmp_path / "r")])
    assert code == 1
    assert f"d{axis} = " in _one_error_line(capsys, "DomainError")


@pytest.mark.parametrize("sigma_frac", ["1e200", "1e-300"], ids=["overflow", "underflow"])
def test_a_gaussian_width_without_a_finite_square_is_one_domain_error_line(
    tmp_path, capsys, sigma_frac
):
    """The perturbation divides by 2*sigma**2: a sigma whose square
    overflows, or underflows to zero, is refused and reconstructs nothing,
    with no NumPy warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["reconstruct", *ACC_MINI_8x6, "--set", f"reconstruct.sigma_frac={sigma_frac}",
                     "--out", str(tmp_path / "r")])
    assert code == 1
    assert "sigma" in _one_error_line(capsys, "DomainError")


def test_a_gradcheck_step_past_the_probe_scale_is_one_config_error_line(tmp_path, capsys):
    """The probes scale r_bot by rbot_scale +- eps, so eps must stay below
    rbot_scale; the error names both keys."""
    out = tmp_path / "gc"
    code = main(["gradcheck", *ACC_MINI_8x6, "--set", "gradcheck.eps=1e300", "--out", str(out)])
    assert code == 1 and not out.exists()
    err = _one_error_line(capsys, "ConfigError")
    assert "gradcheck.eps" in err and "gradcheck.rbot_scale" in err


def test_a_rejected_overflowing_trial_prints_no_warning(tmp_path, capsys):
    """At alpha = 1e300 every trial overflows exp and is rejected; the run
    still exits 0, and no NumPy warning reaches the user."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["calibrate", *ACC_MINI_8x6, "--out", str(tmp_path / "c"),
                     "--set", "calibrate.alpha=1e300", "--set", "calibrate.iters=1"])
    assert code == 0 and capsys.readouterr().err == ""


def test_a_negative_seed_is_one_config_error_line(tmp_path, capsys):
    out = tmp_path / "r"
    assert main(["run", *ACC_MINI_8x6, "--seed", "-1", "--out", str(out)]) == 1
    assert not out.exists()
    assert "seed" in _one_error_line(capsys, "ConfigError")


def test_observations_that_overflow_are_one_non_finite_error_line(tmp_path, capsys):
    """At f0 = 1e30 the reference streamfunction's mean square overflows,
    which would scale every loss and gradient to zero: the calibration is
    refused, with no NumPy warning."""
    out = tmp_path / "c"
    window = ["calibrate.spinup_steps=2", "calibrate.window_steps=6",
              "calibrate.obs_every=3", "calibrate.iters=2", "grid.f0=1e30"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["calibrate", *ACC_MINI_8x6, "--out", str(out),
                     *[arg for o in window for arg in ("--set", o)]])
    assert code == 1 and os.listdir(out) == []
    assert "step 3" in _one_error_line(capsys, "NonFiniteError")


@pytest.mark.parametrize(
    "override",
    ["physics.g=1e-300", "physics.rho0=1e308", "grid.f0=1e300", "initial.noise_u=1e300"],
)
def test_a_floating_point_error_is_one_error_line_and_no_warning(tmp_path, capsys, override):
    """Every subcommand runs with NumPy floating-point errors raised, so a
    run the config accepts but whose numbers overflow prints one named
    error line, no warning, and leaves no output file."""
    out = tmp_path / "r"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["run", *ACC_MINI_8x6, "--set", override, "--out", str(out)])
    assert code == 1 and os.listdir(out) == []
    _one_error_line(capsys, "NonFiniteError")


def test_a_refused_run_does_not_block_its_rerun(small_conf, tmp_path, capsys):
    """A run refused after set-up removes what it wrote, resolved.conf
    included, so the corrected rerun into the same directory runs."""
    out = str(tmp_path / "s")
    assert main(["sensitivity", "--config", small_conf, "--out", out,
                 "--set", "physics.r_bot=0"]) == 1
    assert capsys.readouterr().err.startswith("error: DomainError:")
    assert os.listdir(out) == []
    assert main(["sensitivity", "--config", small_conf, "--out", out]) == 0
    assert sorted(os.listdir(out)) == ["resolved.conf", "sensitivity.csv"]


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


def test_a_diagnostic_that_overflows_is_one_non_finite_error_line(tmp_path, capsys):
    """With a tiny g the balanced initial eta is near the float limit, so
    the first step's total energy squares past it: the error names the
    diagnostic and the model time, not NumPy's operation."""
    code = main(["run", *ACC_MINI_8x6, "--set", "physics.g=1e-300",
                 "--out", str(tmp_path / "r")])
    assert code == 1
    err = _one_error_line(capsys, "NonFiniteError")
    assert "diagnostic 'total_energy' at model time " in err


@pytest.mark.parametrize(
    "override, named",
    [("physics.g=1e-306", "g = 1e-306"), ("physics.g=1e-308", "g = 1e-308"),
     ("initial.noise_eta=1e308", "noise_eta = 1e+308")],
)
def test_an_initial_elevation_that_overflows_is_one_non_finite_error_line(
    tmp_path, capsys, override, named
):
    """Dividing by a tiny g overflows the geostrophic elevation of the
    initial state, and a huge noise_eta its bump: the error names the
    initial elevation, g and noise_eta, with no NumPy warning and no
    output left behind."""
    out = tmp_path / "r"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["run", *ACC_MINI_8x6, "--set", override, "--out", str(out)])
    assert code == 1 and os.listdir(out) == []
    err = _one_error_line(capsys, "NonFiniteError")
    assert "initial elevation is not finite" in err and named in err
