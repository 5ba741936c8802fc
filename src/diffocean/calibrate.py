"""Gradient-based inverse problems on the channel model.

Two experiments: recovering a perturbed initial temperature field from the
state after a few steps, and calibrating (A_h, r_bot) from barotropic
streamfunction snapshots of a reference run. A sensitivity grid maps the
calibration loss and its forward-mode gradient over parameter space.

Calibration runs gradient descent on (log A_h, log r_bot): the two
parameters live eight orders of magnitude apart and their gradients are
strongly anisotropic, so log coordinates are the minimal preconditioning
that makes a single learning rate workable, and they keep both parameters
positive by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .autodiff import DiffSelector, grad, jvp, unbox, vjp
from .autodiff import primitives as ops
from .dyncore import (
    ModelState,
    PhysParams,
    StepConfig,
    barotropic_streamfunction,
    bsf_mse_loss,
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
    """Per-iteration log of a gradient-descent run."""

    records: list[OptimRecord]

    def append(self, record: OptimRecord):
        if self.records and record.iteration <= self.records[-1].iteration:
            raise DomainError("history iterations must increase strictly")
        if not np.isfinite(record.loss):
            raise NonFiniteError(f"loss not finite at iteration {record.iteration}")
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
    """Add a Gaussian bump at cell centers, periodic in the zonal distance."""
    if sigma <= 0:
        raise DomainError(f"sigma must be positive, got {sigma}")
    xc, yc = center
    dx_abs = np.abs(g.x_center - xc)
    dist_x = np.minimum(dx_abs, g.Lx - dx_abs)[:, np.newaxis]
    dist_y = (g.y_center - yc)[np.newaxis, :]
    bump = amplitude * np.exp(-(dist_x**2 + dist_y**2) / (2.0 * sigma**2))
    if amplitude == 0.0:
        return Field(np.array(unbox(f.values)), f.staggering)
    return Field(unbox(f.values) + bump, f.staggering)


def reconstruct_initial_state(
    ref_T0: Field,
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

    Only T is differentiated; velocities, elevation, and all physical
    parameters stay frozen. The history records the loss and the squared
    distance to the reference initial field at every iterate.
    """
    if l < 1:
        raise DomainError(f"rollout length must be at least 1, got {l}")
    loss_of = temperature_mismatch_loss(
        replace(base_state, T=ref_T0), l, params, g, stepcfg
    )
    ref_values = np.asarray(unbox(ref_T0.values))
    selector = DiffSelector.only("T")
    state0 = replace(base_state, T=perturbed_T0)
    chosen, first = _three_point_alpha(loss_of, state0, selector, alpha)

    history = OptimHistory([])
    increases = 0
    prev_loss = None
    floor = None  # round-off chatter at the loss floor is not divergence
    for it in range(iters + 1):
        loss_value, gstate = first if it == 0 else grad(loss_of, state0, select=selector)
        gT = np.asarray(gstate.T.values)
        distance = float(np.sum((np.asarray(unbox(state0.T.values)) - ref_values) ** 2))
        history.append(
            OptimRecord(
                iteration=it,
                loss=loss_value,
                metrics={"distance": distance},
                grad_norm=float(np.sqrt(np.sum(gT * gT))),
                alpha=chosen,
            )
        )
        if floor is None:
            floor = 1e-14 * max(loss_value, 1e-300)
        if prev_loss is not None and loss_value > prev_loss + floor:
            increases += 1
            if increases >= 10:
                raise DivergenceError(
                    f"loss increased over {increases} consecutive iterations "
                    f"at the chosen step {chosen} (alpha = {alpha}); try a "
                    f"smaller alpha than {alpha}"
                )
        else:
            increases = 0
        prev_loss = loss_value
        if it == iters:
            break
        state0 = replace(state0, T=state0.T - chosen * gT)
    return history, state0.T


def temperature_mismatch_loss(
    reference: ModelState, n: int, params: PhysParams, g: GridSpec, stepcfg: StepConfig
):
    """loss(state0): sum of squared differences of T after n steps.

    The target is T after n steps from the reference state, so the loss
    vanishes at the reference.
    """
    target_T = np.asarray(unbox(step_n(reference, n, params, g, stepcfg).T.values))

    def loss(state0: ModelState):
        out = step_n(state0, n, params, g, stepcfg)
        return ops.asum(ops.power(ops.sub(out.T.values, target_T), p=2.0))

    return loss


def _trial(evaluate, x):
    """evaluate(x), a (value, extra) pair, with the value as a float; (inf,
    None) when the trial run blows up, is refused as unstable, or its value
    is not finite."""
    try:
        value, extra = evaluate(x)
    except _BLOWUP:
        return np.inf, None
    value = float(unbox(value))
    return (value, extra) if np.isfinite(value) else (np.inf, None)


def _trial_value(loss, x) -> float:
    """loss(x) as a float; inf when the trial run blows up or is unstable."""
    return _trial(lambda y: (loss(y), None), x)[0]


def _three_point_alpha(loss_of, state0, selector, alpha0: float):
    """Pick the best of {alpha0/4, alpha0, 4*alpha0} from one gradient.

    Returns (alpha, (loss, gradient) at state0), so the descent starts from
    the gradient taken here.
    """
    first = grad(loss_of, state0, select=selector)
    gT = np.asarray(first[1].T.values)
    if not np.any(gT):
        return alpha0, first
    best_alpha, best_loss = alpha0, np.inf
    for candidate in (0.25 * alpha0, alpha0, 4.0 * alpha0):
        trial = replace(state0, T=state0.T - candidate * gT)
        value = _trial_value(loss_of, trial)
        if value < best_loss:
            best_alpha, best_loss = candidate, value
    return best_alpha, first


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
    """Run the reference trajectory and collect streamfunction snapshots."""
    step_indices = tuple(int(i) for i in step_indices)
    snapshots = []
    for state in _states_at(state0, step_indices, params, g, stepcfg):
        psi = barotropic_streamfunction(state, g)
        snapshots.append(Field(np.asarray(unbox(psi.values)), Staggering.CENTER))
    norm = float(np.mean([np.mean(np.square(p.values)) for p in snapshots]))
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
    """
    scale = 1.0 / obs.norm if obs.norm > 0 else 1.0

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

    theta = (float(np.log(a0)), float(np.log(r0)))
    history = OptimHistory([])
    pullback = None  # of the trial accepted at theta; None at iterate 0
    for it in range(iters + 1):
        if pullback is None:
            loss_value, (ga, gr) = grad(loss_theta, theta)
        else:
            ga, gr = pullback(1.0)
            # drop the accepted record before the next trials, so that one
            # record is alive at a time
            pullback = accepted = None
        if not np.isfinite(loss_value):
            raise NonFiniteError(
                f"calibration loss not finite at A_h={np.exp(theta[0])}, "
                f"r_bot={np.exp(theta[1])}"
            )
        gnorm = float(np.hypot(ga, gr))
        record = OptimRecord(
            iteration=it,
            loss=loss_value,
            metrics={"A_h": float(np.exp(theta[0])), "r_bot": float(np.exp(theta[1]))},
            grad_norm=gnorm,
            alpha=alpha,
        )
        history.append(record)
        if it == iters or gnorm == 0.0:
            break
        accepted = _backtrack(loss_theta, theta, (ga, gr), loss_value, alpha)
        if accepted is None:
            break  # no descent step within the halving budget: converged
        record.alpha, theta, loss_value, pullback = accepted
    final = history.final.metrics
    return history, (final["A_h"], final["r_bot"])


def _backtrack(loss_theta, theta, grads, loss_value, alpha):
    """First of alpha, alpha/2, ... whose step does not raise the loss.

    Returns (accepted step size, new theta, its loss, its pullback), or
    None when every halving was rejected.
    """
    ga, gr = grads
    a = alpha
    for _ in range(MAX_HALVINGS + 1):
        candidate = (theta[0] - a * ga, theta[1] - a * gr)
        value, pullback = _trial(partial(vjp, loss_theta), candidate)
        if value <= loss_value:
            return a, candidate, value, pullback
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
    unstable (DampingError) is recorded as NaN, not raised.
    """
    if n_a < 3 or n_r < 3:
        raise DomainError("sensitivity grid needs at least 3 samples per axis")
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
