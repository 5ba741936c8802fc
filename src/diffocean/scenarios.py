"""Builders wiring configuration values into model objects and experiments.

The canonical desk-scale setup ("acc-mini", shipped as a config file) is a
wind-forced re-entrant channel whose initial state carries a seeded,
divergence-free multiscale velocity perturbation on top of a meridional
temperature profile. The perturbation matters: transient decay of small
scales is what makes lateral viscosity observable in the streamfunction
record, while the wind-driven spin-up constrains bottom friction.
"""

from __future__ import annotations

import numpy as np

from . import calibrate
from .autodiff import primitives as ops
from .config import RunConfig
from .dyncore import (
    FIELDS,
    ModelState,
    PhysParams,
    StepConfig,
    linear_profile_field,
    step_n,
)
from .errors import NonFiniteError
from .grid import Field, GridSpec, make_channel_grid


def build_grid(cfg: RunConfig) -> GridSpec:
    return make_channel_grid(**dict(cfg.grid.items()))


def build_params(cfg: RunConfig, g: GridSpec) -> PhysParams:
    """The [physics] keys by name, T_star_south and T_star_north made
    into the relaxation target T_star."""
    p = dict(cfg.physics.items())
    south, north = p.pop("T_star_south"), p.pop("T_star_north")
    return PhysParams(**p, T_star=linear_profile_field(g, south, north))


def build_step_config(cfg: RunConfig) -> StepConfig:
    s = cfg.stepping
    return StepConfig(dt=s.dt, boundary=s.boundary)


def _smooth(a: np.ndarray, passes: int) -> np.ndarray:
    """Iterated 3-point smoothing, periodic in x, clamped in y."""
    for _ in range(passes):
        a = (np.roll(a, 1, axis=0) + a + np.roll(a, -1, axis=0)) / 3.0
        b = np.empty_like(a)
        b[:, 1:-1] = (a[:, :-2] + a[:, 1:-1] + a[:, 2:]) / 3.0
        b[:, 0] = (a[:, 0] + a[:, 1]) / 2.0
        b[:, -1] = (a[:, -2] + a[:, -1]) / 2.0
        a = b
    return a


def solenoidal_noise(
    g: GridSpec, rng: np.random.Generator, rms: float
) -> tuple[np.ndarray, np.ndarray]:
    """Random divergence-free (u, v) from a corner streamfunction.

    The streamfunction lives on cell corners with constant (zero) wall
    rows, so the discrete divergence vanishes identically and the wall v
    row is exactly zero. Two smoothing levels mix grid-scale and broad
    structure so that both friction parameters act on the field.
    """
    fine = _smooth(rng.standard_normal((g.nx, g.ny + 1)), 1)
    broad = _smooth(rng.standard_normal((g.nx, g.ny + 1)), 8)
    # Fine scales carry most of the variance: lateral viscosity acts on
    # them, bottom friction acts everywhere, so the mix keeps both
    # parameters visible in the streamfunction record.
    psi = 3.0 * fine / max(np.std(fine), 1e-30) + broad / max(np.std(broad), 1e-30)
    psi[:, 0] = 0.0
    psi[:, -1] = 0.0

    rolled = np.roll(psi, -1, axis=0)
    u = -(rolled[:, 1:] - rolled[:, :-1]) / g.dy
    v = (rolled[:, 1:] - psi[:, 1:]) / g.dx
    scale = np.sqrt(np.mean(u * u) + np.mean(v * v))
    if scale > 0 and rms > 0:
        u *= rms / scale
        v *= rms / scale
    else:
        u = np.zeros_like(u)
        v = np.zeros_like(v)
    return u, v


def _geostrophic_eta(u: np.ndarray, g: GridSpec, gravity: float) -> np.ndarray:
    """Surface elevation balancing f*u = -g * d(eta)/dy, zero domain mean."""
    if gravity == 0.0:
        return np.zeros_like(u)
    integrand = -(g.f_at_u * u) * g.dy / gravity
    eta = np.cumsum(integrand, axis=1)
    return eta - np.mean(eta)


def initial_state(
    g: GridSpec,
    params: PhysParams,
    seed: int,
    noise_u: float = 0.05,
    noise_eta: float = 0.0,
) -> ModelState:
    """Seeded initial condition: T profile plus balanced solenoidal noise.

    NonFiniteError if the elevation is not finite: a tiny g overflows the
    balance, a huge noise_eta the bump. Either is computed without a NumPy
    warning and refused here, before any step."""
    rng = np.random.default_rng(seed)
    u, v = solenoidal_noise(g, rng, noise_u)
    with np.errstate(over="ignore", invalid="ignore"):
        eta = _geostrophic_eta(u, g, float(params.g))
        if noise_eta > 0:
            bump = _smooth(rng.standard_normal(g.shape), 4)
            eta = eta + noise_eta * bump / max(np.std(bump), 1e-30)
    if not np.isfinite(eta).all():
        raise NonFiniteError(
            f"the initial elevation is not finite at g = {float(params.g)} m/s^2 "
            f"and noise_eta = {noise_eta} m"
        )
    T = np.asarray(params.T_star.values).copy()
    fields = zip(FIELDS.items(), (u, v, eta, T))
    return ModelState(**{name: Field(a, stag) for (name, stag), a in fields}, time=0.0)


def build_initial_state(cfg: RunConfig, g: GridSpec, params: PhysParams, seed=None) -> ModelState:
    ini = cfg.initial
    return initial_state(
        g,
        params,
        seed=cfg.seed if seed is None else seed,
        noise_u=ini.noise_u,
        noise_eta=ini.noise_eta,
    )


# -- gradient-check wiring ------------------------------------------------------

def gradcheck_reference_state(
    cfg: RunConfig, g: GridSpec, params: PhysParams, c: StepConfig
) -> ModelState:
    """Evaluation point for gradient checks: the spun-up acc-mini state."""
    state0 = build_initial_state(cfg, g, params)
    return step_n(state0, cfg.gradcheck.spinup_steps, params, g, c)


def rbot_loss_family(
    w: ModelState,
    params: PhysParams,
    g: GridSpec,
    c: StepConfig,
    rbot_scale: float = 0.5,
):
    """loss_family(n): streamfunction mismatch as a function of r_bot.

    Reference streamfunctions come from the truth parameters; the probe
    point scales r_bot by `rbot_scale` so the objective has a healthy
    gradient. The differentiated coordinate is the dimensionless multiple
    s = r_bot / truth, which keeps finite-difference probes proportional
    to the parameter magnitude (and positive).
    """

    def family(n: int):
        obs = calibrate.reference_bsf_observations(w, params, g, c, [n])
        raw = calibrate.bsf_calibration_loss(obs, w, params, g, c)
        a_truth = float(params.A_h)
        r_truth = float(params.r_bot)

        def loss(s):
            return raw((a_truth, ops.mul(s, r_truth)))

        return loss, float(rbot_scale)

    return family


def reconstruction_cost_family(
    w: ModelState, params: PhysParams, g: GridSpec, c: StepConfig
):
    """loss_family(n) matching the initial-field optimization workload:
    the n-step temperature mismatch as a function of the initial T."""

    def family(n: int):
        return calibrate.temperature_mismatch_loss(w, n, params, g, c), w.T

    return family
