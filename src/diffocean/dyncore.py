"""Purely functional shallow-water dynamical core with a temperature tracer.

One forward-backward step updates surface elevation from the divergence,
then momentum from the updated elevation (rotation, lateral viscosity,
bottom drag, wind stress), then advects and diffuses temperature with the
updated flow. Momentum is linearized; the tracer is advected by the
evolving velocities, so losses built on the trajectory remain nonlinear in
the physical parameters.

The tracer is passive: no equation of state, so T never feeds back into
u, v or eta. A state whose T is Field(None), a field with no values,
carries the flow alone, and step neither computes nor checks T for it.
A loss that reads only the flow (the streamfunction calibration loss)
runs that way; u, v and eta are bitwise those of the full step.

step traces its arithmetic (_step_body) once per structure key (the grid,
the step config, the drag mode and wind band, whether the state carries
T, the staggerings and the leaf shapes) and replays the recorded program
on every later call, plain or boxed; the stability, shape and finiteness
checks and the time advance still run on every step, outside the program.

step/step_n never mutate their input state and are bitwise deterministic;
concurrent rollouts from shared immutable states are safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from operator import attrgetter

import numpy as np

from .autodiff import TapeBox, trace, tree, unbox
from .autodiff import primitives as ops
from .errors import CFLError, DampingError, DomainError, NonFiniteError, ShapeError
from .grid import Field, GridSpec, Staggering, ddx, ddy, divergence, interp, laplacian

CFL_SAFETY = 0.7


@dataclass
class ModelState:
    """Prognostic fields plus model time; the unit of the pure step.

    T is Field(None) in a flow-only state: a loss that reads only u, v or
    eta need not compute the passive tracer. The field stays a Field, so
    code that reads T.values sees None rather than failing on a missing
    field.
    """

    u: Field
    v: Field
    eta: Field
    T: Field
    time: float = 0.0


tree.register_container(ModelState, children=("u", "v", "eta", "T"), aux=("time",))


@dataclass
class PhysParams:
    """Differentiable physical parameters of the channel model."""

    A_h: float = 0.0  # lateral viscosity, m^2/s
    r_bot: float = 0.0  # linear bottom friction, 1/s
    drag_mode: str = "linear"  # "linear" or "quadratic"
    C_d: float = 0.0  # quadratic drag coefficient (quadratic mode only)
    g: float = 9.81  # gravity, m/s^2
    rho0: float = 1024.0  # reference density, kg/m^3
    tau0: float = 0.0  # peak eastward wind stress, N/m^2
    wind_band: float = 0.5  # southern fraction of the domain under wind
    kappa_T: float = 0.0  # tracer diffusivity, m^2/s
    lambda_relax: float = 0.0  # surface temperature relaxation rate, 1/s
    T_star: Field = None  # relaxation target at centers, degC

    def __post_init__(self):
        if self.drag_mode not in ("linear", "quadratic"):
            raise DomainError(f"unknown drag mode {self.drag_mode!r}")
        for name in ("A_h", "r_bot", "C_d", "g", "kappa_T", "lambda_relax"):
            value = getattr(self, name)
            if isinstance(value, (int, float)) and value < 0:
                raise DomainError(f"{name} must be non-negative, got {value}")
        if isinstance(self.rho0, (int, float)) and self.rho0 <= 0:
            raise DomainError(f"rho0 must be positive, got {self.rho0}")
        if not 0.0 < self.wind_band <= 1.0:
            raise DomainError(f"wind_band must lie in (0, 1], got {self.wind_band}")
        if self.T_star is None:
            raise DomainError("T_star, the relaxation target at centers, is required")


# The scalar leaves of PhysParams in tree order; T_star's values follow them.
_PARAM_SCALARS = ("A_h", "r_bot", "C_d", "g", "rho0", "tau0", "kappa_T", "lambda_relax")
_param_scalars = attrgetter(*_PARAM_SCALARS)
tree.register_container(
    PhysParams, children=(*_PARAM_SCALARS, "T_star"), aux=("drag_mode", "wind_band")
)


@dataclass(frozen=True)
class StepConfig:
    """Time stepping parameters and scheme constants."""

    dt: float
    boundary: str = "free-slip"

    def __post_init__(self):
        if self.dt <= 0:
            raise CFLError(f"time step must be positive, got {self.dt}")
        if self.boundary not in ("free-slip", "no-slip"):
            raise DomainError(f"unknown boundary kind {self.boundary!r}")


def cfl_limit(g: GridSpec, gravity: float) -> float:
    """Largest stable dt for the gravity-wave speed sqrt(g*H).

    Python float arithmetic, which runs on every step: math.sqrt is
    np.sqrt bitwise, and a negative or NaN g*H gives a NaN speed (so a
    NaN limit, which no dt passes) as np.sqrt does."""
    c = _wave_speed(g, gravity)
    if c == 0.0:
        return math.inf
    return CFL_SAFETY / (c * max(1.0 / g.dx, 1.0 / g.dy))


def _wave_speed(g: GridSpec, gravity) -> float:
    gh = float(unbox(gravity)) * g.H
    return math.sqrt(gh) if gh >= 0.0 else math.nan


def check_cfl(c: StepConfig, p: PhysParams, g: GridSpec):
    limit = cfl_limit(g, p.g)
    if not c.dt < limit:
        raise CFLError(
            f"dt = {c.dt} s violates the CFL bound {limit:.6g} s "
            f"(sqrt(gH) = {_wave_speed(g, p.g):.6g} m/s)"
        )


def check_damping(c: StepConfig, p: PhysParams, g: GridSpec):
    """Forward-Euler bound dt * rate <= 2 on the explicit damping terms.

    4 * (1/dx^2 + 1/dy^2) bounds the 5-point Laplacian's eigenvalues;
    momentum adds linear drag to viscosity, the tracer relaxation to diffusion.
    """
    k2 = 4.0 * (1.0 / g.dx**2 + 1.0 / g.dy**2)
    drag = float(unbox(p.r_bot)) if p.drag_mode == "linear" else 0.0
    for name, rate in (
        ("momentum", drag + float(unbox(p.A_h)) * k2),
        ("tracer", float(unbox(p.lambda_relax)) + float(unbox(p.kappa_T)) * k2),
    ):
        if not c.dt * rate <= 2.0:
            raise DampingError(
                f"dt = {c.dt} s violates the explicit {name} damping bound "
                f"dt * rate <= 2 (rate = {rate:.6g} 1/s)"
            )


def wind_stress_profile(g: GridSpec, tau0, band: float) -> Field:
    """Zonally uniform eastward wind stress over the southern band.

    tau_x(y) = tau0 * sin^2(pi * y / (band * Ly)) for y below band*Ly, else 0;
    the profile vanishes at both band edges. The values are one (1, ny) row
    that broadcasts over x.
    """
    if not 0.0 < band <= 1.0:
        raise DomainError(f"wind band must lie in (0, 1], got {band}")
    y = g.y_center
    extent = band * g.Ly
    profile = np.where(y < extent, np.sin(np.pi * y / extent) ** 2, 0.0)
    return Field(ops.mul(tau0, profile[np.newaxis, :]), Staggering.U_FACE)


def _check_finite(name: str, values, time: float):
    if not np.isfinite(unbox(values)).all():
        raise NonFiniteError(
            f"non-finite values in field '{name}' at model time {time} s"
        )


_FIELDS = ("u", "v", "eta", "T")

# Step programs by structure key (_program), shared by every caller: a
# program is a pure function of its key. Emptied when full, so a sweep over
# many grids or time steps cannot grow it without bound.
_PROGRAMS: dict = {}
_MAX_PROGRAMS = 64


def step(s: ModelState, p: PhysParams, g: GridSpec, c: StepConfig) -> ModelState:
    """Advance the state by one forward-backward step; the input is untouched.

    The arithmetic is _step_body's, traced once per structure key and
    replayed (_program): plain values run the primitives directly,
    DualBoxes through apply, and TapeBoxes as one program node, which
    keeps and sweeps bitwise what the body's own nodes would. The
    stability and shape checks, the finiteness checks and the time advance
    run here on every step. A flow-only state (T is Field(None)) runs a
    program for u, v and eta alone; its T is neither computed nor checked
    and passes through unchanged.
    """
    check_cfl(c, p, g)
    check_damping(c, p, g)
    names = _FIELDS if has_tracer(s) else _FIELDS[:3]
    for name in names:
        if getattr(s, name).shape != g.shape:
            raise ShapeError(
                f"state field '{name}' has shape {getattr(s, name).shape}, "
                f"grid is {g.shape}"
            )
    values = _leaf_values(s, p)
    new = _program(s, p, g, c, values)(values)
    new_time = s.time + c.dt
    for name, f in zip(names, new):
        _check_finite(name, f, new_time)
    # Field arithmetic pins each new field to the staggering of its input
    return _with_fields(s, new, new_time)


def has_tracer(s: ModelState) -> bool:
    """Whether s carries the tracer T, or is flow-only (T is Field(None))."""
    return s.T.values is not None


def flow_only(s: ModelState) -> ModelState:
    """s without its tracer: step advances its u, v and eta bitwise as it
    advances those of s, and computes no T."""
    return replace(s, T=Field(None))


def _leaf_values(s: ModelState, p: PhysParams) -> list:
    """The leaves of (s, p) in tree order, read without walking the tree."""
    return [*_field_values(s), *_param_scalars(p), p.T_star.values]


def _field_values(s: ModelState) -> list:
    """The leaves of s in tree order: u, v, eta, and T if s carries it."""
    if has_tracer(s):
        return [s.u.values, s.v.values, s.eta.values, s.T.values]
    return [s.u.values, s.v.values, s.eta.values]


def _rebuilder(s: ModelState, p: PhysParams):
    """The inverse of _leaf_values for the structure of (s, p): leaves ->
    (state, params), as tree.flatten's rebuild gives them. It keeps the
    staggerings, the time and the parameters that are not leaves, never a
    value: a checkpoint group keeps it, and a box held there would tie the
    tape to the boxes recorded on it."""
    like = _with_fields(s, [None] * 4, s.time)  # a skeleton of s
    k = 4 if has_tracer(s) else 3
    drag_mode, wind_band, t_star = p.drag_mode, p.wind_band, p.T_star.staggering

    def rebuild(values):
        q = object.__new__(PhysParams)
        q.__dict__.update(zip(_PARAM_SCALARS, values[k:]))
        q.T_star = _field(values[-1], t_star)
        q.drag_mode, q.wind_band = drag_mode, wind_band
        return _with_fields(like, values[:k], like.time), q

    return rebuild


def _with_fields(like: ModelState, values, time: float) -> ModelState:
    """A state with the staggerings of like, the given field values (u, v,
    eta and T, or u, v and eta and like's T) and time. Built structurally,
    as tree's rebuild builds one: what a constructor would check again was
    settled when like was built."""
    s = object.__new__(ModelState)
    s.u = _field(values[0], like.u.staggering)
    s.v = _field(values[1], like.v.staggering)
    s.eta = _field(values[2], like.eta.staggering)
    s.T = _field(values[3], like.T.staggering) if len(values) == 4 else like.T
    s.time = time
    return s


def _field(values, staggering: Staggering) -> Field:
    f = object.__new__(Field)
    f.values, f.staggering = values, staggering
    return f


def _program(s: ModelState, p: PhysParams, g: GridSpec, c: StepConfig, values):
    """The traced step for the structure of (s, p, g, c).

    The key holds what fixes the program: the grid and the step config
    (their numbers are trace constants), the drag mode and wind band (the
    wind profile is a trace constant), whether the state carries the
    tracer (a flow-only program has three outputs, not four), the
    staggering of each field and the shape of each leaf. The values of the
    leaves do not enter it: the body has no branch on them (where_pos is a
    primitive). Nor do their dtypes: the fields are float64, and parameters
    of any real dtype no wider than float64 keep every array of the step
    float64, the dtype the program's plain replay writes into dying buffers
    (Program).
    """
    key = (
        g, c, p.drag_mode, p.wind_band, has_tracer(s),
        s.u.staggering, s.v.staggering, s.eta.staggering, s.T.staggering,
        p.T_star.staggering, *[getattr(x, "shape", ()) for x in values],
    )
    traced = _PROGRAMS.get(key)
    if traced is None:
        traced = _trace(s, p, g, c)
        if len(_PROGRAMS) >= _MAX_PROGRAMS:
            _PROGRAMS.clear()
        _PROGRAMS[key] = traced
    return traced


def _trace(s: ModelState, p: PhysParams, g: GridSpec, c: StepConfig):
    """Record _step_body once with every leaf of (s, p) a tape leaf."""
    rebuild = _rebuilder(s, p)

    def body(leaves):
        return [f.values for f in _step_body(*rebuild(leaves), g, c)]

    return trace(body, _leaf_values(s, p))


def _step_body(s: ModelState, p: PhysParams, g: GridSpec, c: StepConfig) -> tuple:
    """The arithmetic of one step, the definition step traces: the new
    (u, v, eta, T), or (u, v, eta) for a flow-only state."""
    u, eta, T = s.u, s.eta, s.T
    # The wall row of v is not a degree of freedom: mask it on entry so
    # neither the physics nor the gradients ever see wall-normal flow.
    v = s.v * g.vwall_mask

    # Continuity first (forward-backward: momentum sees the updated eta).
    eta_new = eta - (c.dt * g.H) * divergence(u, v, g)

    v_at_u = interp(interp(v, Staggering.CENTER), Staggering.U_FACE)
    u_at_v = interp(interp(u, Staggering.CENTER), Staggering.V_FACE)

    if p.drag_mode == "linear":
        drag_u = p.r_bot * u
        drag_v = p.r_bot * v
    else:
        speed_u = ops.sqrt_reg((u * u + v_at_u * v_at_u).values)
        speed_v = ops.sqrt_reg((u_at_v * u_at_v + v * v).values)
        drag_u = p.C_d * (speed_u * u) / g.H
        drag_v = p.C_d * (speed_v * v) / g.H

    wind_accel = wind_stress_profile(g, p.tau0, p.wind_band) / ops.mul(p.rho0, g.H)

    coriolis_u = g.f_at_u * v_at_u
    coriolis_v = g.f_at_v * u_at_v

    u_new = u + c.dt * (
        coriolis_u
        - p.g * ddx(eta_new, g)
        + p.A_h * laplacian(u, g, boundary=c.boundary)
        - drag_u
        + wind_accel
    )
    v_tend = (
        -coriolis_v
        - p.g * ddy(eta_new, g)
        + p.A_h * laplacian(v, g, boundary=c.boundary)
        - drag_v
    )
    v_new = (v + c.dt * v_tend) * g.vwall_mask
    if not has_tracer(s):
        return u_new, v_new, eta_new

    T_new = T + c.dt * (
        -_advect(u_new, v_new, T, g)
        + p.kappa_T * laplacian(T, g)
        + p.lambda_relax * (p.T_star - T)
    )

    return u_new, v_new, eta_new, T_new


def _advect(u: Field, v: Field, T: Field, g: GridSpec) -> Field:
    """First-order upwind flux divergence of T.

    The upwind branch choice is the subgradient at flow reversals; wall
    fluxes vanish because the wall v row is zero.
    """
    t = T.values
    t_east = ops.roll_x(t, n=-1)
    t_north = ops.shift_yp(t, fill="edge")  # multiplied by the zero wall row
    flux_x = u * ops.where_pos(u.values, t, t_east)
    flux_y = v * ops.where_pos(v.values, t, t_north)
    return divergence(flux_x, flux_y, g)


def step_n(s: ModelState, n: int, p: PhysParams, g: GridSpec, c: StepConfig) -> ModelState:
    """Fold of step; n = 0 returns the input state unchanged.

    With no leaf of (s, p) taped (nothing taped, or under jvp), it runs
    step after step. Otherwise it runs as checkpoint groups of
    ceil(sqrt(n)) steps from the first step on (_checkpoint), except that
    steps whose fields no taped leaf reaches run plain. A group runs
    plain and keeps only its input state on the tape, and the sweep
    records one group again at a time: a gradient holds O(sqrt(n)) states
    instead of n steps of tape, for one more plain forward, and is bitwise
    the full-tape one.
    """
    if n < 0:
        raise DomainError(f"step count must be non-negative, got {n}")
    n = int(n)
    if not any(isinstance(v, TapeBox) for v in _leaf_values(s, p)):
        return _fold((s, p), n, g, c)
    size = math.isqrt(max(n - 1, 0)) + 1  # ceil(sqrt(n))
    for start in range(0, n, size):
        s = _checkpoint(s, p, min(size, n - start), g, c)
    return s


def _fold(x, n: int, g: GridSpec, c: StepConfig) -> ModelState:
    """n steps from x = (state, params), each through the module-level step
    (the benchmark's step clock and tracer replace it and see every one)."""
    s, p = x
    for _ in range(n):
        s = step(s, p, g, c)
    return s


def _checkpoint(s: ModelState, p: PhysParams, n: int, g: GridSpec, c: StepConfig):
    """n steps from s, recorded as one checkpoint group on the tape of the
    taped leaves of (s, p); the group tapes the fields that n steps of the
    step program tape from them (Program.plan, until a step adds none).
    When they reach no field, the plain fold is returned and the tape is
    left as it was. (s, p) goes in as its flat leaf list (_leaf_values)
    and comes back through _rebuilder, so the group's run keeps the
    skeleton of (s, p) and no value of it."""
    values = _leaf_values(s, p)
    tape = next(v.tape for v in values if isinstance(v, TapeBox))
    taped = [isinstance(v, TapeBox) for v in values]
    program = _program(s, p, g, c, values)
    k = len(program.outputs)  # the fields lead the leaves of (s, p)
    fields = taped[:k]
    for _ in range(n):
        last, fields = fields, program.plan(fields + taped[k:]).taped
        if fields == last:
            break

    rebuild = _rebuilder(s, p)

    def run(inputs):
        return _field_values(_fold(rebuild(inputs), n, g, c))

    out = _fold(rebuild([unbox(v) for v in values]), n, g, c)
    if not any(fields):
        return out
    s = _with_fields(out, tape.group(run, values, _field_values(out), fields), out.time)
    tape.steps += n
    return s


def barotropic_streamfunction(s: ModelState, g: GridSpec) -> Field:
    """Cumulative meridional integral of H*u*dy from the southern wall, m^3/s."""
    values = ops.mul(ops.cumsum_y(s.u.values), g.H * g.dy)
    return Field(values, Staggering.CENTER)


def transport(s: ModelState, g: GridSpec, i: int) -> float:
    """Zonal volume transport through the meridional section i, in Sverdrup;
    NonFiniteError if it is not finite."""
    if not 0 <= i < g.nx:
        raise ShapeError(f"section index {i} outside 0..{g.nx - 1}")
    u = np.asarray(unbox(s.u.values))
    with np.errstate(over="ignore", invalid="ignore"):
        value = float(np.sum(u[i, :]) * g.H * g.dy / 1e6)
    return _finite_diagnostic("transport", value, s.time)


def bsf_mse_loss(s: ModelState, ref_psi: Field, g: GridSpec):
    """Mean squared error between the state's streamfunction and a reference."""
    psi = barotropic_streamfunction(s, g)
    if psi.shape != ref_psi.shape:
        raise ShapeError(
            f"reference streamfunction shape {ref_psi.shape} does not match "
            f"{psi.shape}"
        )
    diff = psi - ref_psi
    return ops.amean(ops.power(diff.values, p=2.0))


def total_energy(s: ModelState, p: PhysParams, g: GridSpec) -> float:
    """Sum of 0.5*H*(u^2 + v^2) + 0.5*g*eta^2 over all cells; NonFiniteError
    if it is not finite."""
    u = np.asarray(unbox(s.u.values))
    v = np.asarray(unbox(s.v.values))
    eta = np.asarray(unbox(s.eta.values))
    gravity = float(unbox(p.g))
    with np.errstate(over="ignore", invalid="ignore"):
        value = float(
            0.5 * g.H * (np.sum(u * u) + np.sum(v * v)) + 0.5 * gravity * np.sum(eta * eta)
        )
    return _finite_diagnostic("total_energy", value, s.time)


def _finite_diagnostic(name: str, value: float, time: float) -> float:
    """value, or NonFiniteError naming the diagnostic and the model time
    when it is not finite (a finite state whose squares overflow)."""
    if not math.isfinite(value):
        raise NonFiniteError(f"non-finite diagnostic '{name}' at model time {time} s")
    return value


def linear_profile_field(g: GridSpec, south: float, north: float) -> Field:
    """Meridional linear profile at centers (used for relaxation targets)."""
    prof = south + (north - south) * (g.y_center / g.Ly)
    return Field(np.broadcast_to(prof[np.newaxis, :], g.shape).copy(), Staggering.CENTER)


def states_equal_bitwise(a: ModelState, b: ModelState) -> bool:
    for name in ("u", "v", "eta", "T"):
        va = np.asarray(unbox(getattr(a, name).values))
        vb = np.asarray(unbox(getattr(b, name).values))
        if va.tobytes() != vb.tobytes():
            return False
    return np.float64(a.time).tobytes() == np.float64(b.time).tobytes()
