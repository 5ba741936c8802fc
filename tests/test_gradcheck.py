"""Finite-difference validation machinery."""

import numpy as np
import pytest

from diffocean import scenarios
from diffocean.autodiff import DiffSelector
from diffocean.config import parse_config
from diffocean.errors import DomainError, NonFiniteError
from diffocean.gradcheck import (
    accuracy_over_steps,
    cost_scaling,
    fd_directional,
    grad_error,
    loglog_slope,
)
from helpers import random_state, state_aggregate_loss


@pytest.fixture(scope="module")
def acc_mini():
    cfg = parse_config("acc-mini.conf")
    g = scenarios.build_grid(cfg)
    p = scenarios.build_params(cfg, g)
    c = scenarios.build_step_config(cfg)
    w = scenarios.gradcheck_reference_state(cfg, g, p, c)
    return cfg, g, p, c, w


def test_fd_directional_exact_for_quadratic():
    got = fd_directional(lambda x: x * x, 3.0, 1.0, eps=1e-4)
    assert got == pytest.approx(6.0, abs=1e-9)


def test_fd_directional_cubic_taylor():
    got = fd_directional(lambda x: x**3, 1.0, 1.0, eps=1e-2)
    assert got == pytest.approx(3.0001, rel=1e-9)  # 3 + eps^2 exactly


def test_fd_directional_requires_unit_direction():
    with pytest.raises(DomainError):
        fd_directional(lambda x: x * x, 1.0, 2.0, eps=1e-4)
    with pytest.raises(DomainError):
        fd_directional(lambda x: x * x, 1.0, 1.0, eps=0.0)


def test_fd_directional_rejects_nonfinite_probe():
    def loss(x):
        return float("nan")

    with pytest.raises(NonFiniteError):
        fd_directional(loss, 1.0, 1.0, eps=1e-3)


def test_fd_directional_counts_two_evaluations():
    calls = []

    def loss(x):
        calls.append(x)
        return x * x

    fd_directional(loss, 2.0, 1.0, eps=1e-3)
    assert len(calls) == 2


def test_fd_directional_model_loss_is_finite(acc_mini):
    cfg, g, p, c, w = acc_mini
    loss = state_aggregate_loss(p, g, c, 1)
    from diffocean.autodiff import random_direction

    k = random_direction(w, seed=0)
    value = fd_directional(loss, w, k, eps=1e-4)
    assert np.isfinite(value)


def test_grad_error_single_step_below_threshold(acc_mini):
    cfg, g, p, c, w = acc_mini
    loss = state_aggregate_loss(p, g, c, 1)
    for mode in ("jvp", "vjp"):
        report = grad_error(loss, w, eps=1e-4, seed=11, mode=mode, n_steps=1)
        assert report.error <= 1e-6
        assert report.accuracy is not None and report.accuracy >= 0.99


def test_grad_error_constant_loss_reports_undefined():
    report = grad_error(lambda x: 42.0 * 0.0 + 7.0 - 7.0, 1.0, seed=0)
    assert report.ad_value == 0.0
    assert report.fd_value == 0.0
    assert report.error == 0.0
    assert report.accuracy is None
    assert report.row()["accuracy"] == "undefined"


def test_grad_error_modes_agree(acc_mini):
    cfg, g, p, c, w = acc_mini
    loss = state_aggregate_loss(p, g, c, 2)
    r_jvp = grad_error(loss, w, eps=1e-4, seed=3, mode="jvp")
    r_vjp = grad_error(loss, w, eps=1e-4, seed=3, mode="vjp")
    assert abs(r_jvp.ad_value - r_vjp.ad_value) <= 1e-10 * abs(r_jvp.ad_value)
    assert r_jvp.fd_value == r_vjp.fd_value


def test_grad_error_deterministic(acc_mini):
    cfg, g, p, c, w = acc_mini
    loss = state_aggregate_loss(p, g, c, 1)
    a = grad_error(loss, w, eps=1e-4, seed=9, mode="vjp")
    b = grad_error(loss, w, eps=1e-4, seed=9, mode="vjp")
    assert np.float64(a.ad_value).tobytes() == np.float64(b.ad_value).tobytes()
    assert np.float64(a.fd_value).tobytes() == np.float64(b.fd_value).tobytes()


def test_grad_error_eps_sweep_second_order_then_floor(acc_mini):
    cfg, g, p, c, w = acc_mini
    loss, point = scenarios.rbot_loss_family(w, p, g, c, rbot_scale=0.5)(32)
    errors = {
        eps: grad_error(loss, point, eps=eps, seed=5, mode="jvp").error
        for eps in (1e-3, 1e-4, 1e-5)
    }
    # second-order regime from 1e-3 to 1e-4, then the round-off floor
    assert errors[1e-4] < errors[1e-3]
    assert errors[1e-4] < 0.1 * errors[1e-3]
    assert errors[1e-5] > 1e-2 * errors[1e-4]  # no longer shrinking like eps^2


def test_accuracy_over_steps_requires_sorted_list():
    family = lambda n: (lambda x: x * x, 1.0)
    with pytest.raises(DomainError):
        accuracy_over_steps(family, [4, 2, 1])


def test_accuracy_over_steps_linear_loss_is_exact():
    def family(n):
        return (lambda r: 3.5 * r), 1.0

    reports = accuracy_over_steps(family, [1, 2, 4], seed=2)
    assert len(reports) == 6
    for report in reports:
        assert report.accuracy is not None
        assert report.accuracy >= 1.0 - 1e-9


def test_accuracy_over_steps_model_family(acc_mini):
    cfg, g, p, c, w = acc_mini
    family = scenarios.rbot_loss_family(w, p, g, c, rbot_scale=0.5)
    reports = accuracy_over_steps(family, [1, 4], eps=1e-4, seed=cfg.seed)
    by_key = {(r.n_steps, r.mode): r for r in reports}
    assert set(by_key) == {(1, "jvp"), (1, "vjp"), (4, "jvp"), (4, "vjp")}
    for report in reports:
        assert report.accuracy is not None and report.accuracy >= 0.99
    # transpose-identity specialization: modes agree far beyond FD accuracy
    for n in (1, 4):
        a, b = by_key[(n, "jvp")].ad_value, by_key[(n, "vjp")].ad_value
        assert abs(a - b) <= 1e-10 * abs(a)


def test_cost_scaling_runs_and_is_roughly_linear():
    g = scenarios.make_channel_grid(16, 12, 1.6e6, 1.2e6, 300.0, -1e-4, 0.0)
    p = scenarios.PhysParams(
        A_h=300.0, r_bot=1e-5, tau0=0.05,
        T_star=scenarios.linear_profile_field(g, 12.0, 8.0),
    )
    c = scenarios.StepConfig(dt=200.0)
    rng = np.random.default_rng(0)
    w = random_state(g, rng, amp=0.05)
    family = scenarios.reconstruction_cost_family(w, p, g, c)
    rows = cost_scaling(family, [8, 16, 32], repetitions=3,
                        select=DiffSelector.only("T"))
    assert [r.n_steps for r in rows] == [8, 16, 32]
    for row in rows:
        assert row.forward_ms > 0 and row.vjp_ms > 0
    slope = loglog_slope([r.n_steps for r in rows], [r.vjp_ms for r in rows])
    assert 0.5 <= slope <= 1.5  # tight bounds are the acceptance suite's job


def test_loglog_slope_needs_two_distinct_positive_x():
    assert loglog_slope([1, 2, 4], [3.0, 6.0, 12.0]) == pytest.approx(1.0)
    for xs in ([8], [0, 8], [8, 8], [-1, 8]):
        with pytest.raises(DomainError, match="two distinct positive x"):
            loglog_slope(xs, [1.0] * len(xs))


def test_cost_scaling_requires_three_repetitions():
    family = lambda n: (lambda x: x * x, 1.0)
    with pytest.raises(DomainError):
        cost_scaling(family, [1], repetitions=2)


def test_bsf_loss_differentiable_in_state_and_parameters(acc_mini):
    """End to end: d(bsf mse)/d{u, v, eta, T, A_h, r_bot} checks out at 1 step."""
    from dataclasses import replace

    from diffocean.calibrate import reference_bsf_observations
    from diffocean.dyncore import bsf_mse_loss, step_n

    cfg, g, p, c, w = acc_mini
    obs = reference_bsf_observations(w, p, g, c, [1])
    ref_psi = obs.psi[0]
    norm = obs.norm

    def loss(pair):
        state, params = pair
        out = step_n(state, 1, params, g, c)
        return bsf_mse_loss(out, ref_psi, g) / norm

    point = (w, replace(p, A_h=1.2 * float(p.A_h), r_bot=0.8 * float(p.r_bot)))
    sel = DiffSelector.only("u", "v", "eta", "T", "A_h", "r_bot")
    for mode in ("jvp", "vjp"):
        rep = grad_error(loss, point, select=sel, eps=1e-4, seed=21, mode=mode)
        # the direction mixes raw parameter axes spanning 9 orders of
        # magnitude, so agreement is judged relative, not absolute
        assert rep.accuracy is not None and rep.accuracy >= 0.999
