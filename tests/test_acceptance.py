"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a PASS line when its assertions hold (visible with -s).
Run order follows the criteria numbering; the slowest experiments are the
calibration (minutes) and the sensitivity grid.
"""

import numpy as np
import pytest

from diffocean import scenarios
from diffocean.autodiff import DiffSelector, jvp, random_direction, tree, vjp
from diffocean.calibrate import (
    calibrate_params,
    gaussian_perturbation,
    reconstruct_initial_state,
    reference_bsf_observations,
    sensitivity_grid,
)
from diffocean.config import parse_config
from diffocean.dyncore import (
    PhysParams,
    StepConfig,
    step,
    step_n,
    total_energy,
)
from diffocean.errors import ConfigError
from diffocean.gradcheck import (
    accuracy_over_steps,
    cost_scaling,
    grad_error,
    loglog_slope,
)
from diffocean.grid import make_channel_grid
from diffocean.scenarios import linear_profile_field
from diffocean.snapshot import read_snapshot, write_snapshot
from helpers import (
    dissipative_test_setup,
    random_state,
    ravel,
    state_aggregate_loss,
    unravel,
)


def report(name, detail):
    print(f"\nACCEPTANCE {name} PASS — {detail}", flush=True)


def state_bytes(s):
    return tuple(
        np.asarray(getattr(s, n).values).tobytes() for n in ("u", "v", "eta", "T")
    )


def random_params(g, rng):
    drag_mode = "linear" if rng.random() < 0.5 else "quadratic"
    return PhysParams(
        A_h=float(10.0 ** rng.uniform(1, 4)),
        r_bot=float(10.0 ** rng.uniform(-6, -4)),
        drag_mode=drag_mode,
        C_d=float(10.0 ** rng.uniform(-4, -2)),
        g=9.81,
        rho0=1024.0,
        tau0=float(rng.uniform(0.0, 0.3)),
        kappa_T=float(10.0 ** rng.uniform(1, 3)),
        lambda_relax=float(10.0 ** rng.uniform(-8, -6)),
        T_star=linear_profile_field(g, 25.0, 5.0),
    )


def test_c01_purity_and_determinism():
    """C1: 100 random (state, params) pairs, bitwise purity and determinism."""
    g = make_channel_grid(12, 10, 1.2e6, 1.0e6, 300.0, -1e-4, 2e-11)
    c = StepConfig(dt=200.0)
    rng = np.random.default_rng(101)
    for _ in range(100):
        s = random_state(g, rng, amp=0.1)
        p = random_params(g, rng)
        before = state_bytes(s)
        time_before = np.float64(s.time).tobytes()
        out1 = step(s, p, g, c)
        assert state_bytes(s) == before
        assert np.float64(s.time).tobytes() == time_before
        out2 = step(s, p, g, c)
        assert state_bytes(out1) == state_bytes(out2)
        assert out1.time == out2.time
        roll1 = step_n(s, 3, p, g, c)
        assert state_bytes(s) == before
        roll2 = step_n(s, 3, p, g, c)
        assert state_bytes(roll1) == state_bytes(roll2)
    report("C1", "purity & determinism over 100 random (state, params) pairs")


def test_c02_gradient_validation_single_step(acc_mini_spun):
    """C2: single-step E <= 1e-6 on the normalized loss, 20 directions."""
    cfg, g, p, c, w = acc_mini_spun
    loss = state_aggregate_loss(p, g, c, 1)
    worst = 0.0
    for seed in range(20):
        for mode in ("jvp", "vjp"):
            rep = grad_error(loss, w, eps=1e-4, seed=seed, mode=mode, n_steps=1)
            assert rep.error <= 1e-6, (seed, mode, rep.error)
            worst = max(worst, rep.error)
    report("C2", f"E <= 1e-6 for 20 directions, both modes (worst {worst:.3e})")


def test_c03_transpose_identity_and_dense_jacobian(acc_mini_spun):
    """C3: <v, Jk> = <J^T v, k> on 1..8-step rollouts; dense J on a 4x4 grid."""
    cfg, g, p, c, w = acc_mini_spun
    for n in range(1, 9):
        f = lambda s: step_n(s, n, p, g, c)
        k = random_direction(w, seed=300 + n)
        v = random_direction(w, seed=400 + n)
        _, jk = jvp(f, w, k)
        jt_v = vjp(f, w)[1](v)
        lhs = tree.tree_dot(v, jk)
        rhs = tree.tree_dot(jt_v, k)
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs)), n

    g4 = make_channel_grid(4, 4, 4e5, 4e5, 100.0, -1e-4, 2e-11)
    p4 = PhysParams(
        A_h=500.0, r_bot=1e-5, tau0=0.1, kappa_T=100.0, lambda_relax=1e-7,
        T_star=linear_profile_field(g4, 20.0, 10.0),
    )
    c4 = StepConfig(dt=500.0)
    rng = np.random.default_rng(33)
    s4 = random_state(g4, rng, amp=0.05)
    f4 = lambda s: step(s, p4, g4, c4)
    leaves = tree.leaf_values(s4)
    dim = sum(np.size(v) for v in leaves)
    assert dim == 64

    jac_fwd = np.zeros((dim, dim))
    jac_rev = np.zeros((dim, dim))
    _, rebuild = tree.flatten(s4)
    _, pullback4 = vjp(f4, s4)
    for i in range(dim):
        e = np.zeros(dim)
        e[i] = 1.0
        k_tree = rebuild(unravel(e, leaves))
        _, tangent = jvp(f4, s4, k_tree)
        jac_fwd[:, i] = ravel(tree.leaf_values(tangent))
        gradient = pullback4(k_tree)
        jac_rev[i, :] = ravel(tree.leaf_values(gradient))
    assert np.max(np.abs(jac_fwd - jac_rev)) <= 1e-10
    report(
        "C3",
        "transpose identity <= 1e-10 rel on 1..8 steps; dense 64x64 Jacobian "
        f"agrees elementwise (max diff {np.max(np.abs(jac_fwd - jac_rev)):.2e})",
    )


def test_c04_accuracy_degradation_trend(acc_mini_spun):
    """C4: accuracy >= 0.99 at n=1; mean acc over {16,32} <= mean over {1,2}."""
    cfg, g, p, c, w = acc_mini_spun
    family = scenarios.rbot_loss_family(w, p, g, c, rbot_scale=cfg.gradcheck.rbot_scale)
    reports = accuracy_over_steps(
        family, [1, 2, 4, 8, 16, 32], eps=cfg.gradcheck.eps, seed=cfg.seed
    )
    accs = {(r.n_steps, r.mode): r.accuracy for r in reports}
    for mode in ("jvp", "vjp"):
        assert accs[(1, mode)] is not None and accs[(1, mode)] >= 0.99
    short = np.mean([accs[(n, m)] for n in (1, 2) for m in ("jvp", "vjp")])
    long = np.mean([accs[(n, m)] for n in (16, 32) for m in ("jvp", "vjp")])
    assert long <= short
    report(
        "C4",
        f"accuracy at n=1 >= 0.99 (both modes); mean over {{16,32}} = {long:.12f} "
        f"<= mean over {{1,2}} = {short:.12f}",
    )


def test_c05_vjp_cost_scales_linearly(acc_mini_spun):
    """C5: log-log slope of vjp time in [0.8, 1.2]; doubling ratios in [1.5, 3]."""
    cfg, g, p, c, w = acc_mini_spun
    family = scenarios.reconstruction_cost_family(w, p, g, c)
    n_list = [8, 16, 32, 64, 128]
    rows = cost_scaling(family, n_list, repetitions=15, select=DiffSelector.only("T"))
    times = {r.n_steps: r.vjp_ms for r in rows}
    fwd = {r.n_steps: r.forward_ms for r in rows}
    slope = loglog_slope(n_list, [times[n] for n in n_list])
    assert 0.8 <= slope <= 1.2, times
    for n in (16, 32, 64):
        ratio = times[2 * n] / times[n]
        assert 1.5 <= ratio <= 3.0, (n, ratio, times)
        fwd_ratio = fwd[2 * n] / fwd[n]
        assert 1.5 <= fwd_ratio <= 3.0, (n, fwd_ratio, fwd)
    report("C5", f"vjp time log-log slope {slope:.3f}; doubling ratios within [1.5, 3]")


def test_c06_toy_reconstruction(acc_mini_setup):
    """C6: Gaussian bump, l=4: loss and distance both fall 1000x within 500 iters."""
    cfg, g, p, c = acc_mini_setup
    base = scenarios.build_initial_state(cfg, g, p)
    sigma = cfg.reconstruct.sigma_frac * g.Lx
    perturbed = gaussian_perturbation(
        base.T, g, cfg.reconstruct.amplitude, sigma, (0.5 * g.Lx, 0.5 * g.Ly)
    )
    history, recovered = reconstruct_initial_state(
        perturbed, cfg.reconstruct.l_steps, cfg.reconstruct.alpha, 120,
        base_state=base, params=p, g=g, stepcfg=c,
    )
    assert history.final.iteration <= 500
    loss0, lossN = history.records[0].loss, history.final.loss
    dist0 = history.records[0].metrics["distance"]
    distN = history.final.metrics["distance"]
    assert lossN <= 1e-3 * loss0, (loss0, lossN)
    assert distN <= 1e-3 * dist0, (dist0, distN)
    report(
        "C6",
        f"loss {loss0:.3e} -> {lossN:.3e} ({loss0 / max(lossN, 1e-300):.1e}x), "
        f"distance {dist0:.3e} -> {distN:.3e} in {history.final.iteration} iterations",
    )


@pytest.fixture(scope="module")
def calibration_obs(acc_mini_setup):
    cfg, g, p, c = acc_mini_setup
    state0 = scenarios.build_initial_state(cfg, g, p)
    start = step_n(state0, cfg.calibrate.spinup_steps, p, g, c)
    indices = range(
        cfg.calibrate.obs_every,
        cfg.calibrate.window_steps + 1,
        cfg.calibrate.obs_every,
    )
    obs = reference_bsf_observations(start, p, g, c, indices)
    return start, obs


def test_c07_parameter_calibration(acc_mini_setup, calibration_obs):
    """C7: recover (A_h, r_bot) within 5% from (1.5x, 0.5x) in <= 300 iterations."""
    cfg, g, p, c = acc_mini_setup
    start, obs = calibration_obs
    truth_a, truth_r = float(p.A_h), float(p.r_bot)
    init = (
        cfg.calibrate.init_scale_Ah * truth_a,
        cfg.calibrate.init_scale_rbot * truth_r,
    )
    history, (a_est, r_est) = calibrate_params(
        obs, init, state0=start, base_params=p, g=g, stepcfg=c,
        alpha=cfg.calibrate.alpha, iters=min(cfg.calibrate.iters, 300),
    )
    assert history.final.iteration <= 300
    a_err = abs(a_est - truth_a) / truth_a
    r_err = abs(r_est - truth_r) / truth_r
    assert a_err <= 0.05, (a_est, truth_a)
    assert r_err <= 0.05, (r_est, truth_r)
    report(
        "C7",
        f"A_h {a_est:.1f} ({100 * a_err:.2f}% off), r_bot {r_est:.3e} "
        f"({100 * r_err:.2f}% off) after {history.final.iteration} iterations",
    )


def test_c08_sensitivity_structure(acc_mini_setup, calibration_obs):
    """C8: corner gradients aim within 90 deg of truth; truth cell is flattest."""
    cfg, g, p, c = acc_mini_setup
    start, obs = calibration_obs
    truth_a, truth_r = float(p.A_h), float(p.r_bot)
    n_a, n_r = cfg.sensitivity.n_a, cfg.sensitivity.n_r
    factor = 10.0 ** cfg.sensitivity.decades
    result = sensitivity_grid(
        (truth_a / factor, truth_a * factor),
        (truth_r / factor, truth_r * factor),
        n_a, n_r,
        obs=obs, state0=start, base_params=p, g=g, stepcfg=c,
    )
    assert np.all(np.isfinite(result.loss))

    log_a = np.log(result.A_values)
    log_r = np.log(result.r_values)
    grad_a = result.dL_dAh * result.A_values[:, None]
    grad_r = result.dL_drbot * result.r_values[None, :]
    for i in (0, n_a - 1):
        for j in (0, n_r - 1):
            direction = (np.log(truth_a) - log_a[i], np.log(truth_r) - log_r[j])
            inner = -grad_a[i, j] * direction[0] - grad_r[i, j] * direction[1]
            assert inner > 0.0, (i, j)

    magnitudes = np.hypot(grad_a, grad_r)
    truth_cell = (n_a // 2, n_r // 2)
    rank = int(np.sum(magnitudes < magnitudes[truth_cell]))
    allowed = max(1, int(np.ceil(0.05 * magnitudes.size)))
    assert rank < allowed, (rank, allowed)
    report(
        "C8",
        f"4 corner gradients point within 90 deg of the truth cell; truth-cell "
        f"gradient rank {rank} of {magnitudes.size} (smallest 5% = {allowed})",
    )


def test_c09_conservation_and_dissipation(acc_mini_setup):
    """C9: sum(eta) drift <= 1e-10 relative over 1000 steps; energy decays."""
    cfg, g, p, c = acc_mini_setup
    s = scenarios.build_initial_state(cfg, g, p, seed=909)
    s.eta.values[:] += 0.05 * np.random.default_rng(909).standard_normal(g.shape)
    total0 = np.sum(s.eta.values)
    scale = np.sum(np.abs(s.eta.values))
    drift = 0.0
    for _ in range(1000):
        s = step(s, p, g, c)
        drift = max(drift, abs(np.sum(s.eta.values) - total0))
    assert drift <= 1e-10 * scale

    ge, pe, ce, se = dissipative_test_setup(seed=7)
    energies = [total_energy(se, pe, ge)]
    for _ in range(100):
        se = step(se, pe, ge, ce)
        energies.append(total_energy(se, pe, ge))
    diffs = np.diff(energies)
    assert np.all(diffs <= 1e-12 * energies[0])
    report(
        "C9",
        f"sum(eta) drift {drift / scale:.2e} relative over 1000 steps; "
        f"energy non-increasing each of 100 unforced steps "
        f"(total decay {1 - energies[-1] / energies[0]:.1%})",
    )


def test_c10_io_contract(tmp_path):
    """C10: 100 bitwise snapshot round-trips; parser rejects invariants with lines."""
    rng = np.random.default_rng(1010)
    for i in range(100):
        nx = int(rng.integers(4, 24))
        ny = int(rng.integers(4, 24))
        g = make_channel_grid(nx, ny, 2e6, 1.5e6, 250.0, -1e-4, 2e-11)
        s = random_state(g, rng, amp=float(10.0 ** rng.integers(-4, 3)))
        s.time = float(rng.random() * 1e8)
        path = tmp_path / f"state_{i}.dosn"
        write_snapshot(s, path)
        back = read_snapshot(path, grid=g)
        assert state_bytes(back) == state_bytes(s)
        assert np.float64(back.time).tobytes() == np.float64(s.time).tobytes()

    base = (
        "seed = 1\n[grid]\nnx = 16\nny = 12\nLx = 1.6e6\nLy = 1.2e6\nH = 200.0\n"
        "f0 = -1e-4\nbeta = 2e-11\n[stepping]\ndt = 200.0\n[output]\ndirectory = o\n"
    )
    bad_lines = [
        "[physics]\nA_h = -1\n",
        "[physics]\nr_bot = -1e-6\n",
        "[physics]\nrho0 = 0\n",
        "[physics]\nwind_band = 1.5\n",
        "[gradcheck]\neps = -1e-4\n",
        "[calibrate]\nobs_every = 0\n",
    ]
    for i, bad in enumerate(bad_lines):
        text = base + bad
        path = tmp_path / f"bad_{i}.conf"
        path.write_text(text)
        lineno = len(text.rstrip("\n").split("\n"))
        with pytest.raises(ConfigError, match=f":{lineno}:"):
            parse_config(str(path))
    report(
        "C10",
        "100 snapshot round-trips bitwise; 6 invariant-violating configs "
        "rejected with line numbers",
    )
