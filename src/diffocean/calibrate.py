"""Gradient-based inverse problems on the channel model.

Two experiments: recovering a perturbed initial temperature field from the
state after a few steps, and calibrating (A_h, r_bot) from barotropic
streamfunction snapshots of a reference run. A sensitivity grid maps the
calibration loss and its forward-mode gradient over parameter space.

Both experiments run one descent loop (_descend) and differ only in their
step: reconstruction takes a fixed size that a three-point search picks
from the first gradient, and calibration backtracks from alpha on every
iterate.

Calibration runs gradient descent on (log A_h, log r_bot): the two
parameters live eight orders of magnitude apart and their gradients are
strongly anisotropic, so log coordinates are the minimal preconditioning
that makes a single learning rate workable, and they keep both parameters
positive by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .autodiff import grad, jvp, unbox, vjp
from .autodiff import primitives as ops
from .dyncore import (
    ModelState,
    PhysParams,
    StepConfig,
    barotropic_streamfunction,
    bsf_mse_loss,
    flow_only,
    has_tracer,
    step_n,
)
from .errors import DampingError, DivergenceError, DomainError, NonFiniteError
from .grid import Field, GridSpec, Staggering

MAX_HALVINGS = 20
# A trial run that raises one of these counts as blown up.
_BLOWUP = (NonFiniteError, DampingError)


@dataclass
class OptimRecord:
    iteration: int
    loss: float
    metrics: dict  # distance-to-truth or raw parameter values
    grad_norm: float
    alpha: float


@dataclass
class OptimHistory:
    """Per-iteration log of a gradient-descent run; refuses, by iterate, a
    record whose loss or gradient norm is not finite."""

    records: list[OptimRecord]

    def append(self, record: OptimRecord):
        if self.records and record.iteration <= self.records[-1].iteration:
            raise DomainError("history iterations must increase strictly")
        for what, value in (("loss", record.loss), ("gradient norm", record.grad_norm)):
            if not np.isfinite(value):
                named = ", ".join(f"{k}={v}" for k, v in record.metrics.items())
                raise NonFiniteError(
                    f"{what} not finite at iteration {record.iteration}: {named}"
                )
        self.records.append(record)

    @property
    def final(self) -> OptimRecord:
        return self.records[-1]

    def column(self, key: str) -> list:
        if key in ("iteration", "loss", "grad_norm", "alpha"):
            return [getattr(r, key) for r in self.records]
        return [r.metrics[key] for r in self.records]


def gaussian_perturbation(
    f: Field, g: GridSpec, amplitude: float, sigma: float, center: tuple[float, float]
) -> Field:
    """Add a Gaussian bump at cell centers, periodic in the zonal distance.

    The bump divides by 2*sigma**2, so sigma must be positive and that
    width a positive finite float.
    """
    if sigma <= 0:
        raise DomainError(f"sigma must be positive, got {sigma}")
    try:
        width = 2.0 * sigma**2
    except OverflowError:  # a float's ** raises where NumPy's gives inf
        width = math.inf
    if not 0.0 < width < math.inf:
        raise DomainError(f"sigma = {sigma:g} m: 2*sigma**2 is not a positive finite float")
    xc, yc = center
    dx_abs = np.abs(g.x_center - xc)
    dist_x = np.minimum(dx_abs, g.Lx - dx_abs)[:, np.newaxis]
    dist_y = (g.y_center - yc)[np.newaxis, :]
    bump = amplitude * np.exp(-(dist_x**2 + dist_y**2) / width)
    if amplitude == 0.0:
        return Field(np.array(unbox(f.values)), f.staggering)
    return Field(unbox(f.values) + bump, f.staggering)


def reconstruct_initial_state(
    perturbed_T0: Field,
    l: int,
    alpha: float,
    iters: int,
    *,
    base_state: ModelState,
    params: PhysParams,
    g: GridSpec,
    stepcfg: StepConfig,
) -> tuple[OptimHistory, Field]:
    """Recover the initial temperature by descending the l-step L2 mismatch.

    base_state is the reference, and the descent starts from it with T =
    perturbed_T0. The loss is a function of T alone: velocities, elevation
    and all physical parameters are closed over. The step size is the best
    of alpha/4, alpha and 4*alpha along the first gradient, fixed for the
    whole descent; DivergenceError when none of them lowers the loss, or
    when the loss rises over ten consecutive iterates. The history records
    the loss and the squared distance to the reference initial T at every
    iterate. DomainError when base_state is flow-only (carries no T).
    """
    if l < 1:
        raise DomainError(f"rollout length must be at least 1, got {l}")
    loss_of = temperature_mismatch_loss(base_state, l, params, g, stepcfg)
    ref_values = np.asarray(unbox(base_state.T.values))
    loss0, gfield = grad(loss_of, perturbed_T0)
    gT = np.asarray(gfield.values)
    chosen = _three_point_alpha(loss_of, perturbed_T0, loss0, gT, alpha)
    # round-off chatter at the loss floor is not divergence
    floor = 1e-14 * max(loss0, 1e-300)
    increases = 0

    def fixed_step(T, gT, loss_value, a):
        nonlocal increases
        T = T - a * gT
        value, gfield = grad(loss_of, T)
        increases = increases + 1 if value > loss_value + floor else 0
        if increases >= 10:
            raise DivergenceError(
                f"loss increased over {increases} consecutive iterations "
                f"at the chosen step {a} (alpha = {alpha}); try a "
                f"smaller alpha than {alpha}"
            )
        return a, T, value, np.asarray(gfield.values)

    def describe(T, gT):
        distance = float(np.sum((np.asarray(unbox(T.values)) - ref_values) ** 2))
        return {"distance": distance}, float(np.sqrt(np.sum(gT * gT)))

    return _descend(perturbed_T0, loss0, gT, fixed_step, iters, chosen, describe)


def temperature_mismatch_loss(
    reference: ModelState, n: int, params: PhysParams, g: GridSpec, stepcfg: StepConfig
):
    """loss(T0): sum of squared differences of T after n steps from the
    reference state with its initial temperature replaced by the Field T0.

    The target is T after n steps from the reference state, so the loss
    vanishes at the reference T. The velocities, elevation and parameters
    are closed over, so only T0 is differentiated. DomainError when the
    reference is flow-only (carries no T).
    """
    if not has_tracer(reference):
        raise DomainError(
            "the reference of the temperature mismatch loss carries no tracer T "
            "(its T is Field(None))"
        )
    target_T = np.asarray(unbox(step_n(reference, n, params, g, stepcfg).T.values))

    def loss(T0: Field):
        out = step_n(replace(reference, T=T0), n, params, g, stepcfg)
        return ops.asum(ops.power(ops.sub(out.T.values, target_T), p=2.0))

    return loss


def _trial(evaluate, x):
    """evaluate(x), a (value, extra) pair, with the value as a float; (inf,
    None) when the trial run blows up, is refused as unstable, or its value
    is not finite. Floating-point errors inside the trial neither warn nor
    raise, whatever the caller's np.errstate: the trial is judged by its
    value alone."""
    try:
        with np.errstate(all="ignore"):
            value, extra = evaluate(x)
    except _BLOWUP:
        return np.inf, None
    value = float(unbox(value))
    return (value, extra) if np.isfinite(value) else (np.inf, None)


def _trial_value(loss, x) -> float:
    """loss(x) as a float; inf when the trial run blows up or is unstable."""
    return _trial(lambda y: (loss(y), None), x)[0]


def _three_point_alpha(loss_of, T0, loss0, gT, alpha0: float) -> float:
    """The best of {alpha0/4, alpha0, 4*alpha0} along the gradient gT at
    T0, whose loss is loss0; DivergenceError when none lowers it."""
    if not np.any(gT):
        return alpha0
    candidates = (0.25 * alpha0, alpha0, 4.0 * alpha0)
    values = [_trial_value(loss_of, T0 - a * gT) for a in candidates]
    best = int(np.argmin(values))
    if values[best] < loss0:
        return candidates[best]
    raise DivergenceError(
        f"no step of {candidates} lowers the loss {loss0} (alpha = {alpha0}); "
        f"try a smaller alpha than {alpha0}"
    )


def _descend(x, loss, gradient, step, iters, alpha, describe):
    """Gradient descent from x, whose loss and gradient are given.

    describe(x, gradient) gives an iterate's (metrics, gradient norm), and
    step(x, gradient, loss, alpha) the next iterate as (accepted step size,
    x, loss, gradient), or None when it finds no step. The descent stops
    after iters steps, at a zero gradient, or when step returns None. Each
    record carries the step size accepted from its iterate; the last one
    keeps alpha. Returns (history, x at the last iterate). A non-finite
    loss or gradient norm raises NonFiniteError (OptimHistory.append),
    since no step along a non-finite gradient lowers the loss.
    """
    history = OptimHistory([])
    for it in range(iters + 1):
        metrics, gnorm = describe(x, gradient)
        record = OptimRecord(it, loss, metrics, gnorm, alpha)
        history.append(record)
        if it == iters or gnorm == 0.0:
            break
        taken = step(x, gradient, loss, alpha)
        if taken is None:
            break  # no step lowers the loss: converged
        record.alpha, x, loss, gradient = taken
    return history, x


@dataclass
class BsfObservations:
    """Reference streamfunction snapshots at prescribed step indices."""

    step_indices: tuple[int, ...]
    psi: list[Field]
    norm: float  # mean square of the reference streamfunction, for scaling

    def __post_init__(self):
        if len(self.step_indices) != len(self.psi):
            raise DomainError("one streamfunction snapshot per step index required")
        if list(self.step_indices) != sorted(set(self.step_indices)):
            raise DomainError("step indices must be strictly increasing")


def reference_bsf_observations(
    state0: ModelState,
    params: PhysParams,
    g: GridSpec,
    stepcfg: StepConfig,
    step_indices,
) -> BsfObservations:
    """Run the reference trajectory and collect streamfunction snapshots;
    DomainError for an empty set of step indices, and NonFiniteError, with
    no NumPy warning, naming the first observation step whose
    streamfunction or its mean square is not finite.

    The streamfunction reads u alone, so the trajectory runs from
    flow_only(state0): the tracer is neither computed nor checked.
    """
    step_indices = tuple(int(i) for i in step_indices)
    if not step_indices:
        raise DomainError("no observation step: the set of step indices is empty")
    snapshots, squares = [], []
    states = _states_at(flow_only(state0), step_indices, params, g, stepcfg)
    for index, state in zip(step_indices, states):
        # refused below, not printed: the running mean names the first step
        # at which the scale is lost
        with np.errstate(over="ignore", invalid="ignore"):
            psi = np.asarray(unbox(barotropic_streamfunction(state, g).values))
            squares.append(np.mean(np.square(psi)))
            norm = float(np.mean(squares))
        if not np.isfinite(norm):
            raise NonFiniteError(
                f"the reference streamfunction observed at step {index} is not "
                f"finite or its mean square overflows"
            )
        snapshots.append(Field(psi, Staggering.CENTER))
    return BsfObservations(step_indices=step_indices, psi=snapshots, norm=norm)


def _states_at(state, indices, params, g, stepcfg):
    """Yield the trajectory from state at each of the increasing step indices."""
    done = 0
    for target in indices:
        state = step_n(state, target - done, params, g, stepcfg)
        done = target
        yield state


def bsf_calibration_loss(
    obs: BsfObservations,
    state0: ModelState,
    base_params: PhysParams,
    g: GridSpec,
    stepcfg: StepConfig,
):
    """Mean over observation times of the BSF mean squared error.

    Returns loss(params_pair) where params_pair = (A_h, r_bot); the value
    is scaled by the constant reference magnitude so it is O(1) at typical
    mis-specifications (same minimizer, portable learning rates).

    The loss reads u alone and T never feeds back into the flow, so every
    evaluation starts from flow_only(state0): T is neither computed,
    checked for finiteness nor differentiated. The value, its gradient and
    its tangents are bitwise those of the full state.
    """
    scale = 1.0 / obs.norm if obs.norm > 0 else 1.0
    state0 = flow_only(state0)

    def loss(pair):
        a_h, r_bot = pair
        params = replace(base_params, A_h=a_h, r_bot=r_bot)
        states = _states_at(state0, obs.step_indices, params, g, stepcfg)
        total = None
        for state, psi_ref in zip(states, obs.psi):
            mse = bsf_mse_loss(state, psi_ref, g)
            total = mse if total is None else ops.add(total, mse)
        return ops.mul(scale / len(obs.psi), total)

    return loss


def calibrate_params(
    obs: BsfObservations,
    init: tuple[float, float],
    *,
    state0: ModelState,
    base_params: PhysParams,
    g: GridSpec,
    stepcfg: StepConfig,
    alpha: float = 25.0,
    iters: int = 300,
) -> tuple[OptimHistory, tuple[float, float]]:
    """Recover (A_h, r_bot) from streamfunction observations.

    Plain gradient descent on (log A_h, log r_bot) with a fixed alpha and
    halve-on-increase backtracking (at most 20 halvings per iterate). A
    trial whose forward run blows up (NonFiniteError) or is refused as
    unstable (DampingError) counts as a rejected step, like one that raises
    the loss. The history records raw-space parameter values and, on each
    iterate a step was taken from, the step size accepted there
    (alpha / 2^halvings); the last iterate keeps alpha.

    Every trial runs through vjp, so the gradient at an accepted trial is
    its pullback, with no second forward run; only iterate 0 takes a grad.
    """
    a0, r0 = init
    if a0 <= 0 or r0 <= 0:
        raise DomainError(f"initial parameters must be positive, got {init}")
    raw_loss = bsf_calibration_loss(obs, state0, base_params, g, stepcfg)

    def loss_theta(theta):
        return raw_loss((ops.exp(theta[0]), ops.exp(theta[1])))

    def describe(theta, grads):
        metrics = {"A_h": float(np.exp(theta[0])), "r_bot": float(np.exp(theta[1]))}
        return metrics, float(np.hypot(*grads))

    theta = (float(np.log(a0)), float(np.log(r0)))
    loss_value, grads = grad(loss_theta, theta)
    history, _ = _descend(
        theta, loss_value, grads, partial(_backtrack, loss_theta), iters, alpha, describe
    )
    final = history.final.metrics
    return history, (final["A_h"], final["r_bot"])


def _backtrack(loss_theta, theta, grads, loss_value, alpha):
    """First of alpha, alpha/2, ... whose step does not raise the loss.

    Returns (accepted step size, new theta, its loss, its gradient), or
    None when every halving was rejected. The gradient is the accepted
    trial's pullback, so it costs no second forward run.
    """
    ga, gr = grads
    a = alpha
    for _ in range(MAX_HALVINGS + 1):
        candidate = (theta[0] - a * ga, theta[1] - a * gr)
        value, pullback = _trial(partial(vjp, loss_theta), candidate)
        if value <= loss_value:
            return a, candidate, value, pullback(1.0)
        pullback = None  # drop the rejected record before the next trial
        a *= 0.5
    return None


@dataclass
class SensitivityGrid:
    """Loss and raw-space gradient samples over an (A_h, r_bot) rectangle."""

    A_values: np.ndarray
    r_values: np.ndarray
    loss: np.ndarray  # shape (n_a, n_r)
    dL_dAh: np.ndarray
    dL_drbot: np.ndarray

    def rows(self):
        for i, a in enumerate(self.A_values):
            for j, r in enumerate(self.r_values):
                yield {
                    "A_h": float(a),
                    "r_bot": float(r),
                    "loss": float(self.loss[i, j]),
                    "dL_dAh": float(self.dL_dAh[i, j]),
                    "dL_drbot": float(self.dL_drbot[i, j]),
                }


def sensitivity_grid(
    A_range: tuple[float, float],
    r_range: tuple[float, float],
    n_a: int,
    n_r: int,
    *,
    obs: BsfObservations,
    state0: ModelState,
    base_params: PhysParams,
    g: GridSpec,
    stepcfg: StepConfig,
) -> SensitivityGrid:
    """Sample the calibration loss and its forward-mode gradient on a log grid.

    Each cell is one forward pass: a single jvp pushes both parameter
    directions as a stack. A cell whose run blows up or is refused as
    unstable (DampingError) is recorded as NaN, not raised. DomainError for
    fewer than 3 samples on an axis or a range end that is not positive and
    finite.
    """
    if n_a < 3 or n_r < 3:
        raise DomainError("sensitivity grid needs at least 3 samples per axis")
    for axis, ends in (("A_h", A_range), ("r_bot", r_range)):
        if not all(0 < end < np.inf for end in ends):
            raise DomainError(
                f"the {axis} range {tuple(ends)} of a log grid must have finite "
                f"positive ends"
            )
    A_values = np.geomspace(A_range[0], A_range[1], n_a)
    r_values = np.geomspace(r_range[0], r_range[1], n_r)
    raw_loss = bsf_calibration_loss(obs, state0, base_params, g, stepcfg)

    loss = np.full((n_a, n_r), np.nan)
    dA = np.full((n_a, n_r), np.nan)
    dr = np.full((n_a, n_r), np.nan)
    directions = tuple(np.eye(2))  # d/dA_h and d/dr_bot
    for i, a in enumerate(A_values):
        for j, r in enumerate(r_values):
            value, slopes = _trial(lambda x: jvp(raw_loss, x, directions), (float(a), float(r)))
            if slopes is not None:
                loss[i, j], (dA[i, j], dr[i, j]) = value, slopes
    return SensitivityGrid(
        A_values=A_values, r_values=r_values, loss=loss, dL_dAh=dA, dL_drbot=dr
    )
