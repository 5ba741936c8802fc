"""Inverse problems: perturbation recovery, parameter calibration, sensitivity."""

import hashlib
import tracemalloc
import warnings
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from diffocean import calibrate, scenarios
from diffocean.autodiff import Tape, TapeBox, grad, jvp, vjp
from diffocean.autodiff.engine import Program
from diffocean.autodiff import primitives as ops
from diffocean.calibrate import (
    BsfObservations,
    OptimHistory,
    OptimRecord,
    bsf_calibration_loss,
    calibrate_params,
    gaussian_perturbation,
    reconstruct_initial_state,
    reference_bsf_observations,
    sensitivity_grid,
    temperature_mismatch_loss,
    _trial_value,
)
from diffocean.dyncore import (
    PhysParams,
    StepConfig,
    barotropic_streamfunction,
    bsf_mse_loss,
    flow_only,
    step,
    step_n,
)
from diffocean.errors import DampingError, DivergenceError, DomainError, NonFiniteError
from diffocean.grid import Field, Staggering, make_channel_grid
from diffocean.scenarios import linear_profile_field
from helpers import dissipative_test_setup


@pytest.fixture(scope="module")
def small_setup():
    """Scaled-down channel: same physics, quick to roll out."""
    g = make_channel_grid(32, 24, 2e6, 1.5e6, 400.0, -1e-4, 2e-11)
    p = PhysParams(
        A_h=3435.5036038313715,
        r_bot=1e-5,
        tau0=0.1,
        kappa_T=500.0,
        lambda_relax=1e-7,
        T_star=linear_profile_field(g, 25.0, 5.0),
    )
    c = StepConfig(dt=200.0)
    state0 = scenarios.initial_state(g, p, seed=77, noise_u=0.1)
    start = step_n(state0, 40, p, g, c)
    return g, p, c, start


def test_gaussian_perturbation_zero_amplitude_is_bitwise_copy():
    g = make_channel_grid(16, 12, 1e6, 1e6, 100.0, 0.0, 0.0)
    rng = np.random.default_rng(0)
    f = Field(rng.standard_normal(g.shape), Staggering.CENTER)
    out = gaussian_perturbation(f, g, 0.0, 1e5, (5e5, 5e5))
    assert out.values.tobytes() == f.values.tobytes()
    assert out.values is not f.values


def test_gaussian_perturbation_center_value():
    g = make_channel_grid(16, 12, 1.6e6, 1.2e6, 100.0, 0.0, 0.0)
    f = Field(np.full(g.shape, 2.0), Staggering.CENTER)
    # center an exact cell: (i + 0.5) dx, (j + 0.5) dy
    xc, yc = g.x_center[7], g.y_center[5]
    out = gaussian_perturbation(f, g, 1.5, 2e5, (xc, yc))
    assert out.values[7, 5] == pytest.approx(3.5, rel=1e-15)
    assert out.values.max() == out.values[7, 5]


def test_gaussian_perturbation_integral():
    g = make_channel_grid(64, 48, 4e6, 3e6, 100.0, 0.0, 0.0)
    f = Field(np.zeros(g.shape), Staggering.CENTER)
    sigma = 3.0 * g.dx
    out = gaussian_perturbation(f, g, 1.0, sigma, (2e6, 1.5e6))
    got = np.sum(out.values)
    expected = 2 * np.pi * sigma**2 / (g.dx * g.dy)
    assert got == pytest.approx(expected, rel=0.01)


def test_gaussian_perturbation_periodic_in_x():
    g = make_channel_grid(16, 12, 1.6e6, 1.2e6, 100.0, 0.0, 0.0)
    f = Field(np.zeros(g.shape), Staggering.CENTER)
    out = gaussian_perturbation(f, g, 1.0, 2e5, (0.0, 0.6e6))
    # cell centers sit half a cell off the origin: column 0 pairs with -1
    np.testing.assert_allclose(out.values[0, :], out.values[-1, :], rtol=1e-12)
    np.testing.assert_allclose(out.values[1, :], out.values[-2, :], rtol=1e-12)


def test_gaussian_perturbation_requires_positive_sigma():
    g = make_channel_grid(8, 8, 1e6, 1e6, 100.0, 0.0, 0.0)
    f = Field(np.zeros(g.shape), Staggering.CENTER)
    with pytest.raises(DomainError):
        gaussian_perturbation(f, g, 1.0, 0.0, (0.0, 0.0))


def test_history_rejects_non_increasing_iterations():
    h = OptimHistory([])
    h.append(OptimRecord(0, 1.0, {}, 0.1, 0.5))
    with pytest.raises(DomainError):
        h.append(OptimRecord(0, 0.5, {}, 0.1, 0.5))


def test_reconstruct_identical_start_has_zero_loss_and_gradient(small_setup):
    g, p, c, start = small_setup
    history, recovered = reconstruct_initial_state(
        start.T, 2, 0.25, 3,
        base_state=start, params=p, g=g, stepcfg=c,
    )
    assert history.records[0].loss == 0.0
    assert history.records[0].grad_norm == 0.0
    assert len(history.records) == 1  # a zero gradient ends the descent
    assert history.final.loss == 0.0
    assert recovered.values.tobytes() == start.T.values.tobytes()


def test_reconstruct_single_cell_descent(small_setup):
    g, p, c, start = small_setup
    perturbed = Field(start.T.values.copy(), Staggering.CENTER)
    perturbed.values[10, 10] += 1.0
    history, _ = reconstruct_initial_state(
        perturbed, 1, 0.25, 2,
        base_state=start, params=p, g=g, stepcfg=c,
    )
    losses = history.column("loss")
    assert losses[1] < losses[0]
    assert losses[2] <= losses[1]


def test_reconstruct_takes_each_gradient_once(small_setup, monkeypatch):
    """The step-size search's gradient is the descent's first one: iters=2
    visits 3 points and takes 3 gradients. The pinned history is the one
    the search and the descent gave when each took its own gradient."""
    g, p, c, start = small_setup
    calls = []

    def counted_grad(*args, **kwargs):
        calls.append(1)
        return grad(*args, **kwargs)

    monkeypatch.setattr(calibrate, "grad", counted_grad)
    perturbed = Field(start.T.values.copy(), Staggering.CENTER)
    perturbed.values[10, 10] += 1.0
    history, _ = reconstruct_initial_state(
        perturbed, 1, 0.25, 2,
        base_state=start, params=p, g=g, stepcfg=c,
    )
    assert len(calls) == 3
    assert [float.hex(r.loss) for r in history.records] == [
        "0x1.ffb06eede0134p-1", "0x1.0027c0b7fcf4cp-2", "0x1.0077693678ea0p-4"
    ]
    assert [float.hex(r.grad_norm) for r in history.records] == [
        "0x1.ffb0708ec6114p+0", "0x1.fffff061480bep-1", "0x1.0027c187af072p-1"
    ]
    assert [float.hex(r.metrics["distance"]) for r in history.records] == [
        "0x1.0000000000000p+0", "0x1.004f98e17bfa6p-2", "0x1.009f5107445fap-4"
    ]
    assert history.column("alpha") == [0.25, 0.25, 0.25]


def test_reconstruct_descent_property_and_freezing(small_setup):
    g, p, c, start = small_setup
    sigma = g.Lx / 16
    perturbed = gaussian_perturbation(
        start.T, g, 1.0, sigma, (0.5 * g.Lx, 0.5 * g.Ly)
    )
    frozen_before = tuple(
        np.asarray(getattr(start, n).values).tobytes() for n in ("u", "v", "eta")
    )
    params_before = (float(p.A_h), float(p.r_bot), p.T_star.values.tobytes())
    history, recovered = reconstruct_initial_state(
        perturbed, 4, 0.25, 15,
        base_state=start, params=p, g=g, stepcfg=c,
    )
    losses = history.column("loss")
    assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))
    distances = history.column("distance")
    assert distances[-1] < distances[0]
    assert recovered.staggering is Staggering.CENTER
    # the closed-over fields and parameters are bitwise untouched
    frozen_after = tuple(
        np.asarray(getattr(start, n).values).tobytes() for n in ("u", "v", "eta")
    )
    assert frozen_after == frozen_before
    assert (float(p.A_h), float(p.r_bot), p.T_star.values.tobytes()) == params_before


def test_reconstruct_divergence_names_the_requested_alpha(small_setup):
    """No step of the three-point search lowers the loss here; the error
    names the candidates and the alpha the caller passed."""
    g, p, c, start = small_setup
    perturbed = Field(start.T.values.copy(), Staggering.CENTER)
    perturbed.values[10, 10] += 1.0
    with pytest.raises(DivergenceError) as err:
        reconstruct_initial_state(
            perturbed, 1, 5.0, 12,
            base_state=start, params=p, g=g, stepcfg=c,
        )
    message = str(err.value)
    assert "(1.25, 5.0, 20.0)" in message
    assert message.endswith("try a smaller alpha than 5.0")


def test_reconstruct_refuses_a_search_that_raises_the_loss(small_setup):
    """At alpha = 1e3 the smallest candidate step already takes the loss
    from 1 to 2.5e5, so the descent does not start: three such steps would
    take it to 1.5e16."""
    g, p, c, start = small_setup
    perturbed = Field(start.T.values.copy(), Staggering.CENTER)
    perturbed.values[10, 10] += 1.0
    with pytest.raises(DivergenceError, match=r"\(250\.0, 1000\.0, 4000\.0\)"):
        reconstruct_initial_state(
            perturbed, 1, 1e3, 3,
            base_state=start, params=p, g=g, stepcfg=c,
        )


def test_reconstruct_stops_after_ten_loss_increases(small_setup, monkeypatch):
    """A step that raises the loss on every iterate ends the descent at the
    tenth increase; the error names that step and the requested alpha."""
    g, p, c, start = small_setup
    monkeypatch.setattr(calibrate, "_three_point_alpha", lambda *args: 1.25)
    perturbed = Field(start.T.values.copy(), Staggering.CENTER)
    perturbed.values[10, 10] += 1.0
    with pytest.raises(DivergenceError) as err:
        reconstruct_initial_state(
            perturbed, 1, 5.0, 12,
            base_state=start, params=p, g=g, stepcfg=c,
        )
    message = str(err.value)
    assert message.startswith("loss increased over 10 consecutive iterations")
    assert "chosen step 1.25" in message
    assert message.endswith("try a smaller alpha than 5.0")


def test_observations_validated():
    g = make_channel_grid(8, 8, 1e6, 1e6, 100.0, 0.0, 0.0)
    psi = Field(np.zeros(g.shape), Staggering.CENTER)
    with pytest.raises(DomainError):
        BsfObservations(step_indices=(2, 1), psi=[psi, psi], norm=1.0)
    with pytest.raises(DomainError):
        BsfObservations(step_indices=(1,), psi=[psi, psi], norm=1.0)


def test_observations_whose_mean_square_overflows_are_refused():
    """A reference streamfunction whose mean square overflows would make
    the loss scale 1/norm zero, and every loss and gradient with it: it is
    refused with a NonFiniteError naming the observation step, and no
    NumPy warning."""
    g, p, c, s = dissipative_test_setup(seed=4)
    s = replace(s, u=replace(s.u, values=1e160 * s.u.values))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteError, match="observed at step 2 "):
            reference_bsf_observations(s, p, g, c, [2, 4])


def test_calibration_loss_zero_at_truth(small_setup):
    g, p, c, start = small_setup
    obs = reference_bsf_observations(start, p, g, c, [20, 40])
    loss = bsf_calibration_loss(obs, start, p, g, c)
    assert float(loss((float(p.A_h), float(p.r_bot)))) == 0.0


def test_calibrate_gradient_vanishes_at_truth(small_setup):
    g, p, c, start = small_setup
    obs = reference_bsf_observations(start, p, g, c, [20, 40])
    history, _ = calibrate_params(
        obs, (float(p.A_h), float(p.r_bot)),
        state0=start, base_params=p, g=g, stepcfg=c, alpha=1.0, iters=1,
    )
    at_truth = history.records[0].grad_norm
    perturbed_history, _ = calibrate_params(
        obs, (1.5 * float(p.A_h), 0.5 * float(p.r_bot)),
        state0=start, base_params=p, g=g, stepcfg=c, alpha=1.0, iters=1,
    )
    away = perturbed_history.records[0].grad_norm
    assert at_truth <= 1e-6 * away


def test_calibrate_recovers_small_perturbation(small_setup):
    g, p, c, start = small_setup
    obs = reference_bsf_observations(start, p, g, c, range(10, 101, 10))
    truth_a, truth_r = float(p.A_h), float(p.r_bot)
    history, (a_est, r_est) = calibrate_params(
        obs, (1.3 * truth_a, 0.7 * truth_r),
        state0=start, base_params=p, g=g, stepcfg=c, alpha=25.0, iters=40,
    )
    assert abs(r_est - truth_r) / truth_r < 0.05
    assert abs(a_est - truth_a) / truth_a < abs(1.3 * truth_a - truth_a) / truth_a
    losses = history.column("loss")
    assert losses[-1] < 1e-2 * losses[0]
    assert all(x > 0 for x in history.column("A_h"))
    assert all(x > 0 for x in history.column("r_bot"))


def test_calibrate_more_observations_do_not_hurt(small_setup):
    g, p, c, start = small_setup
    truth_a, truth_r = float(p.A_h), float(p.r_bot)
    init = (1.3 * truth_a, 0.7 * truth_r)

    def recovery_error(indices):
        obs = reference_bsf_observations(start, p, g, c, indices)
        _, (a_est, r_est) = calibrate_params(
            obs, init, state0=start, base_params=p, g=g, stepcfg=c,
            alpha=25.0, iters=15,
        )
        return np.hypot(
            np.log(a_est / truth_a), np.log(r_est / truth_r)
        )

    single = recovery_error([10])
    ten = recovery_error(range(10, 101, 10))
    assert ten <= single


def test_gradients_pinned_bitwise(small_setup):
    """The sweep calls each node's cotangent rules in argument order, so
    changing what the tape keeps or which rules it calls must leave every
    gradient bit as it is: the calibration gradient over (log A_h, log
    r_bot), and a reconstruction gradient over the initial T."""
    g, p, c, start = small_setup
    obs = reference_bsf_observations(start, p, g, c, [20, 40])
    raw_loss = bsf_calibration_loss(obs, start, p, g, c)
    theta = (float(np.log(1.3 * p.A_h)), float(np.log(0.7 * p.r_bot)))
    loss, (ga, gr) = grad(lambda t: raw_loss((ops.exp(t[0]), ops.exp(t[1]))), theta)
    assert [float.hex(v) for v in (loss, ga, gr)] == [
        "0x1.257cba597c870p-12", "-0x1.19a1e8ad85d0fp-12", "-0x1.7f903434dff43p-10"
    ]

    perturbed = gaussian_perturbation(start.T, g, 1.0, g.Lx / 16, (0.5 * g.Lx, 0.5 * g.Ly))
    loss, gT = grad(temperature_mismatch_loss(start, 5, p, g, c), perturbed)
    gT = np.asarray(gT.values)
    assert [float.hex(v) for v in (loss, float(gT[10, 10]), float(gT[16, 12]))] == [
        "0x1.91f08a92cf988p+3", "0x1.19cba4f5db9d9p-5", "0x1.e0994a735f293p+0"
    ]
    assert hashlib.sha256(gT.tobytes()).hexdigest() == (
        "000f01f1ba513697845ee9bf200d944e93a2ae58530a37c2f6f51916ce02e018"
    )


def test_calibration_loss_runs_flow_only_and_equals_the_full_state_loss(small_setup):
    """The observations and the calibration loss run without the tracer.
    Their streamfunctions, the loss, its vjp gradient and its two-direction
    jvp equal bit for bit those of the same loss on the full state, built
    here from step_n and bsf_mse_loss. T is not checked: a start state
    with a non-finite T gives the same bits."""
    g, p, c, start = small_setup
    indices = (7, 16)  # 9 steps run as checkpoint groups when taped
    obs = reference_bsf_observations(start, p, g, c, indices)
    psi = [barotropic_streamfunction(step_n(start, n, p, g, c), g).values for n in indices]
    assert [q.values.tobytes() for q in obs.psi] == [q.tobytes() for q in psi]
    norm = float(np.mean([np.mean(np.square(q)) for q in psi]))
    assert obs.norm == norm

    def full_loss(pair):
        params = replace(p, A_h=pair[0], r_bot=pair[1])
        state, done, total = start, 0, None
        for n, ref in zip(indices, obs.psi):
            state, done = step_n(state, n - done, params, g, c), n
            mse = bsf_mse_loss(state, ref, g)
            total = mse if total is None else ops.add(total, mse)
        return ops.mul(1.0 / norm / len(indices), total)

    def bits(loss):
        x = (1.3 * float(p.A_h), 0.7 * float(p.r_bot))
        value, pullback = vjp(loss, x)
        primal, slopes = jvp(loss, x, tuple(np.eye(2)))
        numbers = (loss(x), value, *pullback(1.0), primal, *np.asarray(slopes))
        return [float.hex(float(v)) for v in numbers]

    want = bits(full_loss)
    assert bits(bsf_calibration_loss(obs, start, p, g, c)) == want
    nan_T = replace(start, T=Field(np.full(g.shape, np.nan), Staggering.CENTER))
    assert bits(bsf_calibration_loss(obs, nan_T, p, g, c)) == want


def test_losses_that_read_the_tracer_refuse_a_flow_only_state(small_setup, monkeypatch):
    """The temperature mismatch loss and the reconstruction name the
    missing T once, before any step runs."""
    g, p, c, start = small_setup
    flow = flow_only(start)

    def no_step(*args):
        raise AssertionError("a step ran")

    monkeypatch.setattr(calibrate, "step_n", no_step)
    with pytest.raises(DomainError, match="carries no tracer T"):
        temperature_mismatch_loss(flow, 2, p, g, c)
    with pytest.raises(DomainError, match="carries no tracer T"):
        reconstruct_initial_state(
            start.T, 2, 0.25, 3, base_state=flow, params=p, g=g, stepcfg=c
        )


def _step_loop(s, n, p, g, c):
    """step_n without checkpoint groups: every step recorded on the tape."""
    for _ in range(n):
        s = step(s, p, g, c)
    return s


def _theta_problem(setup, indices):
    """The calibration loss over (log A_h, log r_bot) with observations at
    indices, and the point (1.3x, 0.7x) truth."""
    g, p, c, start = setup
    raw_loss = bsf_calibration_loss(
        reference_bsf_observations(start, p, g, c, indices), start, p, g, c
    )
    theta = (float(np.log(1.3 * p.A_h)), float(np.log(0.7 * p.r_bot)))
    return (lambda t: raw_loss((ops.exp(t[0]), ops.exp(t[1])))), theta


@pytest.mark.parametrize("n", [1, 2, 7, 16])
def test_checkpointed_gradients_equal_full_tape_bitwise(small_setup, monkeypatch, n):
    """A taped step_n records ceil(sqrt(n))-step checkpoint groups; the
    gradients through it equal, bit for bit, those through a loop of step
    that records every step: the calibration gradient over (log A_h,
    log r_bot), and a reconstruction gradient over the initial T."""
    g, p, c, start = small_setup
    loss_theta, theta = _theta_problem(small_setup, sorted({max(n // 2, 1), n}))
    mismatch = temperature_mismatch_loss(start, n, p, g, c)
    perturbed = gaussian_perturbation(start.T, g, 1.0, g.Lx / 16, (0.5 * g.Lx, 0.5 * g.Ly))

    def gradients():
        loss, (ga, gr) = grad(loss_theta, theta)
        t_loss, gT = grad(mismatch, perturbed)
        gT = np.asarray(gT.values)
        assert ga != 0.0 and gr != 0.0 and np.any(gT)
        return [float.hex(v) for v in (loss, ga, gr, t_loss)], gT.tobytes()

    checkpointed = gradients()
    monkeypatch.setattr(calibrate, "step_n", _step_loop)
    assert gradients() == checkpointed


def test_checkpointed_gradient_memory(small_setup, monkeypatch):
    """A gradient over step_n(256) keeps 16 input states and one 16-step
    group's tape at a time, well under a quarter of a tape of every step."""
    loss_theta, theta = _theta_problem(small_setup, [256])

    def peak_bytes():
        tracemalloc.start()
        try:
            grad(loss_theta, theta)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    checkpointed = peak_bytes()
    monkeypatch.setattr(calibrate, "step_n", _step_loop)
    assert checkpointed < peak_bytes() / 4


def test_checkpointed_gradient_records_what_a_full_tape_records(small_setup, monkeypatch):
    """The sweep records each checkpoint group once more, and nothing else:
    a gradient through step_n records as many primitives as one through a
    loop of step. With only T taped, u, v and eta stay plain, as on a tape
    of every step, so no group records or sweeps their chains."""
    g, p, c, start = small_setup
    loss_theta, theta = _theta_problem(small_setup, [9, 16])
    mismatch = temperature_mismatch_loss(start, 16, p, g, c)
    recorded = []
    record, record_program = Tape._record, Program._record

    def counting(self, *args):
        recorded.append(args[0].name)
        return record(self, *args)

    def counting_program(self, tape, inputs):
        # a taped step records its taped primitives as one program node
        at = len(tape.nodes)
        outs = record_program(self, tape, inputs)
        recorded.extend([None] * len(tape.nodes[at].plan.backward))
        return outs

    monkeypatch.setattr(Tape, "_record", counting)
    monkeypatch.setattr(Program, "_record", counting_program)

    def counts():
        out = []
        for f, x in ((loss_theta, theta), (mismatch, start.T)):
            recorded.clear()
            grad(f, x)
            out.append(len(recorded))
        return out

    checkpointed = counts()
    monkeypatch.setattr(calibrate, "step_n", _step_loop)
    assert counts() == checkpointed

    tape = Tape()
    boxed = replace(start, T=replace(start.T, values=tape.leaf(start.T.values)))
    out = step_n(boxed, 16, p, g, c)
    taped = [isinstance(f.values, TapeBox) for f in (out.u, out.v, out.eta, out.T)]
    assert taped == [False, False, False, True]


def test_pullback_called_twice_gives_the_same_bits(small_setup):
    _, pullback = vjp(*_theta_problem(small_setup, [7]))
    first, second = pullback(1.0), pullback(1.0)
    assert [float.hex(v) for v in first] == [float.hex(v) for v in second]


def test_calibrate_histories_reproducible(small_setup):
    g, p, c, start = small_setup
    obs = reference_bsf_observations(start, p, g, c, [20, 40])
    init = (1.2 * float(p.A_h), 0.8 * float(p.r_bot))
    run = lambda: calibrate_params(
        obs, init, state0=start, base_params=p, g=g, stepcfg=c,
        alpha=10.0, iters=5,
    )[0]
    h1, h2 = run(), run()
    for a, b in zip(h1.records, h2.records):
        assert np.float64(a.loss).tobytes() == np.float64(b.loss).tobytes()
        assert a.metrics == b.metrics
        assert np.float64(a.grad_norm).tobytes() == np.float64(b.grad_norm).tobytes()


def test_calibrate_survives_blowup_and_records_accepted_alpha(small_setup):
    # At alpha = 5000 the first trial step takes r_bot past the explicit
    # damping bound; that trial must be refused before it overflows, count
    # as rejected and the step be halved, not abort the run.
    g, p, c, start = small_setup
    obs = reference_bsf_observations(start, p, g, c, [20, 40])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        history, _ = calibrate_params(
            obs, (1.5 * float(p.A_h), 0.5 * float(p.r_bot)),
            state0=start, base_params=p, g=g, stepcfg=c, alpha=5000.0, iters=3,
        )
    assert len(history.records) == 4
    losses = history.column("loss")
    assert all(b < a for a, b in zip(losses, losses[1:]))
    assert history.records[0].alpha in [5000.0 / 2**k for k in range(1, 21)]
    assert history.final.alpha == 5000.0


def test_descent_refuses_a_non_finite_gradient():
    """sqrt(t0 - 1) + t1 * t1 at (1, 1) has the gradient (inf, 2). No step
    along it lowers the loss, so the descent would stop as if converged;
    instead it raises NonFiniteError naming the iterate."""

    def loss_theta(theta):
        return ops.sqrt(theta[0] - 1.0) + theta[1] * theta[1]

    def describe(theta, grads):
        return {"t0": theta[0], "t1": theta[1]}, float(np.hypot(*grads))

    with np.errstate(divide="ignore"):
        loss_value, grads = grad(loss_theta, (1.0, 1.0))
    assert grads == (np.inf, 2.0)
    with pytest.raises(
        NonFiniteError, match=r"^gradient norm not finite at iteration 0: t0=1.0, t1=1.0$"
    ):
        calibrate._descend(
            (1.0, 1.0), loss_value, grads, partial(calibrate._backtrack, loss_theta),
            5, 1.0, describe,
        )


@pytest.mark.parametrize("outcome", [NonFiniteError, DampingError, np.nan, np.inf])
def test_trial_value_counts_blowup_as_inf(outcome):
    def loss(x):
        if isinstance(outcome, type):
            raise outcome("trial blew up")
        return outcome

    assert _trial_value(loss, 1.0) == np.inf
    assert _trial_value(lambda x: 2.0 * x, 1.5) == 3.0


def test_calibrate_nan_observation_raises_at_the_start(small_setup):
    g, p, c, start = small_setup
    obs = BsfObservations((20,), [Field(np.full(g.shape, np.nan))], 1.0)
    init = (1.5 * float(p.A_h), 0.5 * float(p.r_bot))
    theta = (float(np.log(init[0])), float(np.log(init[1])))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NonFiniteError) as err:
            calibrate_params(
                obs, init, state0=start, base_params=p, g=g, stepcfg=c, iters=3
            )
    # the iteration-0 parameters, as the descent reads them back from theta
    assert str(err.value).endswith(
        f"A_h={np.exp(theta[0])}, r_bot={np.exp(theta[1])}"
    )


def test_calibrate_rejects_nonpositive_init(small_setup):
    g, p, c, start = small_setup
    obs = reference_bsf_observations(start, p, g, c, [20])
    with pytest.raises(DomainError):
        calibrate_params(
            obs, (-1.0, 1e-5), state0=start, base_params=p, g=g, stepcfg=c
        )


@pytest.fixture(scope="module")
def small_grid_result(small_setup):
    g, p, c, start = small_setup
    obs = reference_bsf_observations(start, p, g, c, [20, 40])
    truth_a, truth_r = float(p.A_h), float(p.r_bot)
    result = sensitivity_grid(
        (truth_a / 10, truth_a * 10), (truth_r / 10, truth_r * 10), 3, 3,
        obs=obs, state0=start, base_params=p, g=g, stepcfg=c,
    )
    return result, truth_a, truth_r


def test_sensitivity_grid_populated_and_truth_is_minimum(small_grid_result):
    result, truth_a, truth_r = small_grid_result
    assert result.loss.shape == (3, 3)
    assert np.all(np.isfinite(result.loss))
    assert result.A_values[1] == pytest.approx(truth_a, rel=1e-12)
    assert result.r_values[1] == pytest.approx(truth_r, rel=1e-12)
    # geomspace reproduces the truth only to round-off, so the center-cell
    # loss is tiny rather than exactly zero
    assert result.loss[1, 1] <= 1e-25
    mags = np.hypot(
        result.dL_dAh * result.A_values[:, None],
        result.dL_drbot * result.r_values[None, :],
    )
    assert mags[1, 1] == np.min(mags)


def test_sensitivity_corner_gradients_point_toward_truth(small_grid_result):
    result, truth_a, truth_r = small_grid_result
    la = np.log(result.A_values)
    lr = np.log(result.r_values)
    for i in (0, 2):
        for j in (0, 2):
            ga = result.dL_dAh[i, j] * result.A_values[i]
            gr = result.dL_drbot[i, j] * result.r_values[j]
            to_truth = (np.log(truth_a) - la[i], np.log(truth_r) - lr[j])
            inner = -ga * to_truth[0] - gr * to_truth[1]
            assert inner > 0.0


def test_sensitivity_grid_equals_one_direction_jvps_bitwise(
    small_setup, small_grid_result
):
    """One stacked pass per cell gives bitwise the two one-direction passes."""
    result, _, _ = small_grid_result
    g, p, c, start = small_setup
    obs = reference_bsf_observations(start, p, g, c, [20, 40])
    loss = bsf_calibration_loss(obs, start, p, g, c)
    for i, a in enumerate(result.A_values):
        for j, r in enumerate(result.r_values):
            x = (float(a), float(r))
            value, d_a = jvp(loss, x, (1.0, 0.0))
            _, d_r = jvp(loss, x, (0.0, 1.0))
            for grid_values, single in (
                (result.loss, value), (result.dL_dAh, d_a), (result.dL_drbot, d_r)
            ):
                assert grid_values[i, j].tobytes() == np.float64(single).tobytes()


@pytest.mark.xfail(
    strict=True,
    reason=(
        "At 62.5 km spacing the viscous cutoff 2*pi*sqrt(A_h/r_bot) = 116 km "
        "is below the resolvable 2*dx, so bottom friction out-damps lateral "
        "viscosity at every wavelength the desk-scale channel can carry; the "
        "full ocean model resolves that band and sees the opposite ordering."
    ),
)
def test_sensitivity_A_h_dominates_in_log_coordinates(small_grid_result):
    result, _, _ = small_grid_result
    ga = np.abs(result.dL_dAh * result.A_values[:, None])
    gr = np.abs(result.dL_drbot * result.r_values[None, :])
    assert np.sum(ga > gr) > ga.size / 2


def test_sensitivity_grid_records_unstable_cells_as_nan(small_setup):
    # r_bot = 1 per second gives r_bot*dt = 200, far past the damping bound
    # of 2; those cells are NaN and the rest of the grid is still sampled.
    g, p, c, start = small_setup
    obs = reference_bsf_observations(start, p, g, c, [20])
    truth_a = float(p.A_h)
    result = sensitivity_grid(
        (truth_a / 10, truth_a * 10), (1e-5, 1.0), 3, 3,
        obs=obs, state0=start, base_params=p, g=g, stepcfg=c,
    )
    assert result.r_values[2] * c.dt > 2.0
    for values in (result.loss, result.dL_dAh, result.dL_drbot):
        assert np.all(np.isnan(values[:, 2]))
        assert np.all(np.isfinite(values[:, :2]))


def test_sensitivity_grid_validates_sample_counts(small_setup):
    g, p, c, start = small_setup
    obs = reference_bsf_observations(start, p, g, c, [20])
    with pytest.raises(DomainError):
        sensitivity_grid((1.0, 10.0), (1e-6, 1e-4), 2, 3,
                         obs=obs, state0=start, base_params=p, g=g, stepcfg=c)


@pytest.mark.parametrize(
    "A_range, r_range, axis",
    [
        ((0.0, 10.0), (1e-6, 1e-4), "A_h"),
        ((1.0, 10.0), (1e-6, -1e-4), "r_bot"),
        ((1.0, 10.0), (float("nan"), 1e-4), "r_bot"),
    ],
    ids=["zero", "negative", "nan"],
)
def test_sensitivity_grid_refuses_a_range_end_that_is_not_positive(
    small_setup, monkeypatch, A_range, r_range, axis
):
    """A log grid needs positive ends: the axis is named before the loss
    is built."""
    g, p, c, start = small_setup
    obs = reference_bsf_observations(start, p, g, c, [20])

    def no_loss(*args):
        raise AssertionError("the loss was built")

    monkeypatch.setattr(calibrate, "bsf_calibration_loss", no_loss)
    with pytest.raises(DomainError, match=f"the {axis} range .* positive ends"):
        sensitivity_grid(A_range, r_range, 3, 3,
                         obs=obs, state0=start, base_params=p, g=g, stepcfg=c)
