"""The benchmark's three workloads on acc-mini at 64x48.

Every workload shares one set-up (config parse, grid and parameters, the
seeded initial state, a spin-up and the reference streamfunction
observations over the calibration window) and then repeats one operation
through the same public functions the CLI handlers `run`, `calibrate` and
`sensitivity` call. Each operation starts from the same spun-up state, so
every repetition in a run must produce bitwise the same outputs; a check
that fails counts the operation as failed.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass

import numpy as np

from diffocean import calibrate, config, dyncore, scenarios, snapshot
from diffocean.dyncore import ModelState

# --set style overrides on the packaged acc-mini.conf. Most restate the
# shipped values so that a change to the packaged file cannot silently
# change what the benchmark measures.
OVERRIDES = (
    "grid.nx=64",
    "grid.ny=48",
    "stepping.n_steps=500",
    "output.snapshot_every=100",
    "calibrate.init_scale_Ah=1.5",
    "calibrate.init_scale_rbot=0.5",
    "calibrate.spinup_steps=60",
    "calibrate.window_steps=500",
    "calibrate.obs_every=50",
    "calibrate.alpha=25.0",
    # Gradient descent first overshoots A_h (its error rises from 0.5 to
    # about 0.7) and only brings the larger of the two relative errors
    # below its starting value after 7 to 9 iterations.
    "calibrate.iters=10",
    "sensitivity.n_a=3",
    "sensitivity.n_r=3",
    "sensitivity.decades=1.0",
)

# Largest relative drift of sum(eta), against sum(|eta|) at the start.
ETA_DRIFT_TOL = 1e-10


@dataclass
class Context:
    cfg: object
    grid: object
    params: object
    stepcfg: object
    start: ModelState
    obs: calibrate.BsfObservations
    seed: int
    outdir: str

    @property
    def truth(self) -> tuple[float, float]:
        return float(self.params.A_h), float(self.params.r_bot)


def setup(seed: int, outdir: str) -> Context:
    """Everything a workload needs before its first operation."""
    cfg = config.parse_config(
        str(config.packaged_config_path("acc-mini.conf")), list(OVERRIDES)
    )
    g = scenarios.build_grid(cfg)
    p = scenarios.build_params(cfg, g)
    c = scenarios.build_step_config(cfg)
    sec = cfg.calibrate
    state0 = scenarios.build_initial_state(cfg, g, p, seed=seed)
    start = scenarios.step_n(state0, sec.spinup_steps, p, g, c)
    indices = range(sec.obs_every, sec.window_steps + 1, sec.obs_every)
    obs = calibrate.reference_bsf_observations(start, p, g, c, indices)
    return Context(cfg, g, p, c, start, obs, seed, outdir)


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return h.hexdigest()


def _state_arrays(s: ModelState):
    return [np.asarray(getattr(s, n).values) for n in ("u", "v", "eta", "T")] + [
        np.float64(s.time)
    ]


# -- rollout ------------------------------------------------------------------

@dataclass
class RolloutResult:
    final: ModelState
    diagnostics: np.ndarray  # per step: sum_eta, total_energy, transport
    roundtrips: list  # one bool per snapshot: read back bitwise equal


def run_rollout(ctx: Context) -> RolloutResult:
    """Plain forward steps with the per-step diagnostics of `diffocean run`
    and a snapshot written and read back every `snapshot_every` steps."""
    p, g, c = ctx.params, ctx.grid, ctx.stepcfg
    n = ctx.cfg.stepping.n_steps
    every = ctx.cfg.output.snapshot_every
    path = os.path.join(ctx.outdir, "rollout.dosn")
    diagnostics = np.empty((n, 3))
    roundtrips = []
    state = ctx.start
    for k in range(1, n + 1):
        state = dyncore.step(state, p, g, c)
        diagnostics[k - 1] = (
            float(np.sum(state.eta.values)),
            dyncore.total_energy(state, p, g),
            dyncore.transport(state, g, 0),
        )
        if k % every == 0:
            snapshot.write_snapshot(state, path)
            back = snapshot.read_snapshot(path, grid=g)
            roundtrips.append(dyncore.states_equal_bitwise(back, state))
    return RolloutResult(state, diagnostics, roundtrips)


def check_rollout(ctx: Context, r: RolloutResult, index: int) -> list[str]:
    problems = []
    if not np.all(np.isfinite(r.diagnostics)):
        problems.append("non-finite diagnostics")
    eta0 = np.asarray(ctx.start.eta.values)
    scale = float(np.sum(np.abs(eta0)))
    drift = float(np.max(np.abs(r.diagnostics[:, 0] - np.sum(eta0)))) / scale
    if not drift <= ETA_DRIFT_TOL:
        problems.append(f"sum(eta) drifted by {drift:.3g} relative")
    if not (r.roundtrips and all(r.roundtrips)):
        problems.append("a snapshot did not read back bitwise equal")
    return problems


def digest_rollout(r: RolloutResult) -> str:
    return _digest(*_state_arrays(r.final), r.diagnostics)


# -- calibrate ----------------------------------------------------------------

def _init(ctx: Context) -> tuple[float, float]:
    sec = ctx.cfg.calibrate
    truth_a, truth_r = ctx.truth
    return sec.init_scale_Ah * truth_a, sec.init_scale_rbot * truth_r


def run_calibrate(ctx: Context, obs=None, iters=None):
    """calibrate_params from the configured initial guess, fixed budget."""
    sec = ctx.cfg.calibrate
    history, _ = calibrate.calibrate_params(
        ctx.obs if obs is None else obs,
        _init(ctx),
        state0=ctx.start,
        base_params=ctx.params,
        g=ctx.grid,
        stepcfg=ctx.stepcfg,
        alpha=sec.alpha,
        iters=sec.iters if iters is None else iters,
    )
    return history


def param_error(ctx: Context, record) -> float:
    """Larger relative error of (A_h, r_bot) against the truth."""
    truth_a, truth_r = ctx.truth
    return max(
        abs(record.metrics["A_h"] - truth_a) / truth_a,
        abs(record.metrics["r_bot"] - truth_r) / truth_r,
    )


def check_calibrate(ctx: Context, history, index: int) -> list[str]:
    problems = []
    losses = np.array(history.column("loss"))
    if not np.all(np.isfinite(losses)):
        problems.append("non-finite loss")
    elif np.any(np.diff(losses) > 0):
        problems.append("loss increased")
    first, last = param_error(ctx, history.records[0]), param_error(ctx, history.final)
    if not last < first:
        problems.append(f"parameter error {last:.4g} not below its start {first:.4g}")
    return problems


def digest_calibrate(history) -> str:
    return _digest(
        np.array(
            [
                (r.iteration, r.loss, r.metrics["A_h"], r.metrics["r_bot"], r.grad_norm)
                for r in history.records
            ]
        )
    )


# -- sensitivity --------------------------------------------------------------

def run_sensitivity(ctx: Context, obs=None):
    """sensitivity_grid over one decade either side of the truth."""
    sec = ctx.cfg.sensitivity
    truth_a, truth_r = ctx.truth
    factor = 10.0**sec.decades
    return calibrate.sensitivity_grid(
        (truth_a / factor, truth_a * factor),
        (truth_r / factor, truth_r * factor),
        sec.n_a,
        sec.n_r,
        obs=ctx.obs if obs is None else obs,
        state0=ctx.start,
        base_params=ctx.params,
        g=ctx.grid,
        stepcfg=ctx.stepcfg,
    )


def check_sensitivity(ctx: Context, grid, index: int) -> list[str]:
    problems = []
    if not all(np.all(np.isfinite(a)) for a in (grid.loss, grid.dL_dAh, grid.dL_drbot)):
        problems.append("non-finite cell")
        return problems
    # One cell per operation, picked from the seed, against a plain
    # (undifferentiated) evaluation of the same loss.
    rng = np.random.default_rng([ctx.seed, index])
    i = int(rng.integers(grid.loss.shape[0]))
    j = int(rng.integers(grid.loss.shape[1]))
    loss = calibrate.bsf_calibration_loss(
        ctx.obs, ctx.start, ctx.params, ctx.grid, ctx.stepcfg
    )
    plain = np.float64(loss((float(grid.A_values[i]), float(grid.r_values[j]))))
    if plain.tobytes() != np.float64(grid.loss[i, j]).tobytes():
        problems.append(f"cell ({i}, {j}) loss differs from the plain evaluation")
    return problems


def digest_sensitivity(grid) -> str:
    return _digest(grid.A_values, grid.r_values, grid.loss, grid.dL_dAh, grid.dL_drbot)


@dataclass(frozen=True)
class Workload:
    name: str
    run: object  # ctx -> result
    check: object  # (ctx, result, index) -> list of problems
    digest: object  # result -> sha256 hex


WORKLOADS = {
    w.name: w
    for w in (
        Workload("rollout", run_rollout, check_rollout, digest_rollout),
        Workload("calibrate", run_calibrate, check_calibrate, digest_calibrate),
        Workload("sensitivity", run_sensitivity, check_sensitivity, digest_sensitivity),
    )
}
