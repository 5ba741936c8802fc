"""Command-line entry points for the experiments.

Every subcommand reads one config file (plus --set overrides), writes a
resolved-config echo, experiment CSVs with documented headers, and state
snapshots, then exits 0 on success or 1 with a one-line machine-parseable
error. NumPy floating-point errors (overflow, invalid value, division by
zero) raise instead of warning, and end the run as a NonFiniteError.
Output files are create-only: an existing file is refused unless --force
is given. A run that ends in an error removes the files it wrote,
resolved.conf included, so its corrected rerun into the same directory is
not refused. All numeric CSV fields carry 17 significant digits so
downstream comparisons are bit-reproducible.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from . import calibrate as cal
from . import gradcheck as gc
from . import scenarios
from .config import format_value, parse_config, render_config
from .dyncore import step, total_energy, transport
from .errors import ConfigError, DiffOceanError
from .snapshot import write_snapshot


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    ws = None
    try:
        # a floating-point error ends the run instead of printing a warning
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            ws = _Workspace(args)
            args.handler(ws)
    except (DiffOceanError, FloatingPointError) as exc:
        if ws is not None:
            ws.discard()
        # NumPy's own FloatingPointError is reported as a NonFiniteError
        name = type(exc).__name__ if isinstance(exc, DiffOceanError) else "NonFiniteError"
        message = " ".join(str(exc).split())
        print(f"error: {name}: {message}", file=sys.stderr)
        return 1
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diffocean",
        description="Differentiable shallow-water channel experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    handlers = {
        "run": _cmd_run,
        "gradcheck": _cmd_gradcheck,
        "reconstruct": _cmd_reconstruct,
        "calibrate": _cmd_calibrate,
        "sensitivity": _cmd_sensitivity,
        "benchmark": _cmd_benchmark,
    }
    for name, handler in handlers.items():
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="config file path")
        p.add_argument(
            "--set",
            action="append",
            dest="overrides",
            metavar="SECTION.KEY=VALUE",
            help="override a config value (repeatable)",
        )
        p.add_argument("--out", help="output directory (default: config [output])")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument(
            "--force", action="store_true", help="allow overwriting output files"
        )
        p.set_defaults(handler=handler)
    return parser


class _Workspace:
    """Common per-invocation setup: config, output directory, file policy."""

    def __init__(self, args):
        overrides = list(args.overrides or [])
        if args.seed is not None:
            overrides.append(f"seed={args.seed}")
        self.cfg = parse_config(args.config, overrides)
        self.outdir = args.out or self.cfg.output.directory
        self.force = args.force
        self.written = []
        try:
            os.makedirs(self.outdir, exist_ok=True)
        except OSError as exc:
            raise ConfigError(
                f"cannot make output directory {self.outdir}: {exc.strerror}"
            ) from exc
        self.grid = scenarios.build_grid(self.cfg)
        self.params = scenarios.build_params(self.cfg, self.grid)
        self.stepcfg = scenarios.build_step_config(self.cfg)
        self._write_text("resolved.conf", render_config(self.cfg))

    def path(self, name: str) -> str:
        """The path of an output about to be written, opened once (made or
        emptied) so that discard removes it; ConfigError naming it if it
        cannot be opened, as when a directory has its name."""
        target = os.path.join(self.outdir, name)
        if os.path.exists(target) and not self.force:
            raise ConfigError(
                f"refusing to overwrite existing output {target} (use --force)"
            )
        try:
            open(target, "wb").close()
        except OSError as exc:
            raise ConfigError(f"cannot write output {target}: {exc.strerror}") from exc
        self.written.append(target)
        return target

    def _write_text(self, name: str, text: str):
        with open(self.path(name), "w", encoding="utf-8") as handle:
            handle.write(text)

    def write_csv(self, name: str, header, rows):
        lines = [",".join(header)]
        for row in rows:
            lines.append(",".join(format_value(row[h]) for h in header))
        self._write_text(name, "\n".join(lines) + "\n")

    def snapshot(self, state, name: str):
        write_snapshot(state, self.path(name))

    def discard(self):
        """Remove the files this run wrote."""
        for target in self.written:
            if os.path.exists(target):
                os.remove(target)


def _cmd_run(ws):
    cfg = ws.cfg
    state = scenarios.build_initial_state(cfg, ws.grid, ws.params)
    every = cfg.output.snapshot_every
    rows = []
    ws.snapshot(state, "state_000000.dosn")
    for k in range(1, cfg.stepping.n_steps + 1):
        state = step(state, ws.params, ws.grid, ws.stepcfg)
        rows.append(
            {
                "step": k,
                "time": state.time,
                "sum_eta": float(np.sum(state.eta.values)),
                "total_energy": total_energy(state, ws.params, ws.grid),
                "transport_sv": transport(state, ws.grid, 0),
            }
        )
        if every and k % every == 0:
            ws.snapshot(state, f"state_{k:06d}.dosn")
    ws.snapshot(state, "state_final.dosn")
    ws.write_csv(
        "diagnostics.csv",
        ["step", "time", "sum_eta", "total_energy", "transport_sv"],
        rows,
    )
    print(f"run: {cfg.stepping.n_steps} steps, outputs in {ws.outdir}")


_GRADCHECK_HEADER = ["n_steps", "mode", "eps", "ad_value", "fd_value", "error", "accuracy"]


def _cmd_gradcheck(ws):
    cfg = ws.cfg
    w = scenarios.gradcheck_reference_state(cfg, ws.grid, ws.params, ws.stepcfg)
    family = scenarios.rbot_loss_family(
        w, ws.params, ws.grid, ws.stepcfg, rbot_scale=cfg.gradcheck.rbot_scale
    )
    reports = gc.accuracy_over_steps(
        family, cfg.gradcheck.n_list, eps=cfg.gradcheck.eps, seed=cfg.seed
    )
    ws.write_csv("gradcheck.csv", _GRADCHECK_HEADER, [r.row() for r in reports])
    worst = min(
        (r.accuracy for r in reports if r.accuracy is not None), default=float("nan")
    )
    print(
        f"gradcheck: {len(reports)} reports over n_list={list(cfg.gradcheck.n_list)}, "
        f"worst accuracy {worst:.6g}"
    )


def _history_rows(history, metric_keys):
    rows = []
    for rec in history.records:
        row = {"iter": rec.iteration, "loss": rec.loss}
        for key in metric_keys:
            row[key] = rec.metrics[key]
        row["grad_norm"] = rec.grad_norm
        row["alpha"] = rec.alpha
        rows.append(row)
    return rows


def _cmd_reconstruct(ws):
    cfg = ws.cfg
    base = scenarios.build_initial_state(cfg, ws.grid, ws.params)
    sigma = cfg.reconstruct.sigma_frac * ws.grid.Lx
    center = (0.5 * ws.grid.Lx, 0.5 * ws.grid.Ly)
    perturbed = cal.gaussian_perturbation(
        base.T, ws.grid, cfg.reconstruct.amplitude, sigma, center
    )
    history, recovered = cal.reconstruct_initial_state(
        perturbed,
        cfg.reconstruct.l_steps,
        cfg.reconstruct.alpha,
        cfg.reconstruct.iters,
        base_state=base,
        params=ws.params,
        g=ws.grid,
        stepcfg=ws.stepcfg,
    )
    ws.write_csv(
        "history.csv",
        ["iter", "loss", "distance", "grad_norm", "alpha"],
        _history_rows(history, ["distance"]),
    )
    ws.snapshot(base, "reference_initial.dosn")
    ws.snapshot(replace(base, T=perturbed), "perturbed_initial.dosn")
    ws.snapshot(replace(base, T=recovered), "recovered_initial.dosn")
    first, last = history.records[0], history.final
    print(
        f"reconstruct: loss {first.loss:.6g} -> {last.loss:.6g}, "
        f"distance {first.metrics['distance']:.6g} -> {last.metrics['distance']:.6g} "
        f"in {last.iteration} iterations"
    )


def _calibration_setup(ws):
    """Spun-up start and reference observations over the [calibrate] window."""
    sec = ws.cfg.calibrate
    state0 = scenarios.build_initial_state(ws.cfg, ws.grid, ws.params)
    start = scenarios.step_n(state0, sec.spinup_steps, ws.params, ws.grid, ws.stepcfg)
    indices = range(sec.obs_every, sec.window_steps + 1, sec.obs_every)
    obs = cal.reference_bsf_observations(
        start, ws.params, ws.grid, ws.stepcfg, indices
    )
    return start, obs


def _cmd_calibrate(ws):
    sec = ws.cfg.calibrate
    start, obs = _calibration_setup(ws)
    truth_a, truth_r = float(ws.params.A_h), float(ws.params.r_bot)
    init = (sec.init_scale_Ah * truth_a, sec.init_scale_rbot * truth_r)
    history, (a_est, r_est) = cal.calibrate_params(
        obs,
        init,
        state0=start,
        base_params=ws.params,
        g=ws.grid,
        stepcfg=ws.stepcfg,
        alpha=sec.alpha,
        iters=sec.iters,
    )
    ws.write_csv(
        "history.csv",
        ["iter", "loss", "A_h", "r_bot", "grad_norm", "alpha"],
        _history_rows(history, ["A_h", "r_bot"]),
    )
    print(
        f"calibrate: A_h {a_est:.10g} (truth {truth_a:.10g}, "
        f"{100 * abs(a_est - truth_a) / truth_a:.3g}% off), "
        f"r_bot {r_est:.10g} (truth {truth_r:.10g}, "
        f"{100 * abs(r_est - truth_r) / truth_r:.3g}% off)"
    )


def _cmd_sensitivity(ws):
    sec = ws.cfg.sensitivity
    start, obs = _calibration_setup(ws)
    truth_a, truth_r = float(ws.params.A_h), float(ws.params.r_bot)
    factor = 10.0**sec.decades
    grid_result = cal.sensitivity_grid(
        (truth_a / factor, truth_a * factor),
        (truth_r / factor, truth_r * factor),
        sec.n_a,
        sec.n_r,
        obs=obs,
        state0=start,
        base_params=ws.params,
        g=ws.grid,
        stepcfg=ws.stepcfg,
    )
    ws.write_csv(
        "sensitivity.csv",
        ["A_h", "r_bot", "loss", "dL_dAh", "dL_drbot"],
        list(grid_result.rows()),
    )
    print(
        f"sensitivity: {sec.n_a}x{sec.n_r} grid over {sec.decades:g} "
        f"decade{'' if sec.decades == 1 else 's'} around "
        f"(A_h={truth_a:.6g}, r_bot={truth_r:.6g})"
    )


def _cmd_benchmark(ws):
    cfg = ws.cfg
    w = scenarios.gradcheck_reference_state(cfg, ws.grid, ws.params, ws.stepcfg)
    family = scenarios.reconstruction_cost_family(w, ws.params, ws.grid, ws.stepcfg)
    rows = gc.cost_scaling(
        family,
        cfg.benchmark.n_list,
        repetitions=cfg.benchmark.repetitions,
    )
    ws.write_csv(
        "timing.csv",
        ["n_steps", "forward_ms", "vjp_ms"],
        [
            {"n_steps": r.n_steps, "forward_ms": r.forward_ms, "vjp_ms": r.vjp_ms}
            for r in rows
        ],
    )
    slope = gc.loglog_slope([r.n_steps for r in rows], [r.vjp_ms for r in rows])
    print(f"benchmark: vjp log-log slope {slope:.3f} over n={list(cfg.benchmark.n_list)}")


if __name__ == "__main__":
    sys.exit(main())
