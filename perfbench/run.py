"""diffocean benchmark: one workload per process, one JSON result line.

    python3 perfbench/run.py --workload rollout --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`, nothing is installed. Workloads (see BENCHMARK.json for why each
exists):

* rollout     plain forward steps with per-step diagnostics and a
              snapshot written and read back every 100 steps;
* calibrate   calibrate_params from (1.5x, 0.5x) the truth over a 500-step
              window with 10 streamfunction observations, fixed budget;
* sensitivity sensitivity_grid, 3x3 log grid, one decade around the truth.

With `--trace 0` the workload's operation is repeated for `--seconds` and
the end-to-end metrics are reported: set-up time (median of repeated
set-ups, plus the one-off import), peak RSS and the median seconds per
operation, with times scaled to a reference machine speed (speed.py).
Each operation's outputs are checked after it, outside its timing.
Per-step percentiles, the failure ratio and the workload's headline
figures follow as information. With `--trace 1` the run reports the
per-layer metrics instead (see layers.py). The last line is the JSON
result; the lines before it are for a reader.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUTDIR = os.path.join(HERE, "out")

SETUP_REPEATS = 3
P_TAIL = 99

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "op_s": "s",
}

PER_LAYER_UNITS = {
    "autodiff.apply.calls_per_step": "count",
    "autodiff.apply.dispatch_ns": "ns",
    "dyncore.step.plain_us": "us",
    "dyncore.step.dual_us": "us",
    "dyncore.step.tape_us": "us",
    "grid.laplacian_us": "us",
    "grid.interp_us": "us",
    "grid.divergence_us": "us",
    "autodiff.grad.calls": "count",
    "autodiff.grad.ms": "ms",
    "autodiff.tape.record_ms": "ms",
    "autodiff.tape.sweep_ms": "ms",
    "autodiff.tape.nodes_per_step": "count",
    "autodiff.tape.bytes_per_step": "B",
    "autodiff.jvp.calls": "count",
    "autodiff.jvp.ms": "ms",
    "calibrate.iterations": "count",
    "calibrate.trial_evals": "count",
    "calibrate.accept_ratio": "ratio",
    "calibrate.trial_ms": "ms",
    "calibrate.cells": "count",
    "calibrate.cells_nonfinite": "count",
    "snapshot.write_ms": "ms",
    "snapshot.read_ms": "ms",
    "snapshot.bytes": "B",
    "config.parse_ms": "ms",
    "scenarios.spinup_ms": "ms",
    "calibrate.observations_ms": "ms",
    "runtime.gc_collections": "count",
    "runtime.gc_ms": "ms",
    "bench.trace_overhead_ratio": "ratio",
}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("rollout", "calibrate", "sensitivity"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """HEAD of the checkout, read without running git; 'unknown' if absent."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _environment(args, np) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "loadavg_start": list(os.getloadavg()),
        "commit": _git_commit(),
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


class StepClock:
    """Wall time of every dyncore.step call while entered, by replacing the
    module attribute with a timing shim. Every speed.EVERY_STEPS steps it
    also samples the machine speed, between steps, unless the step was
    recorded on a gradient tape: the kernel is never timed while a tape
    holds the heap. Each step time is scaled by the latest sample."""

    def __init__(self, dyncore, speedo):
        import speed
        from spans import step_kind

        self.dyncore = dyncore
        self.original = dyncore.step
        self.raw: list[float] = []
        self.scaled: list[float] = []
        raw, scaled, original, every = self.raw, self.scaled, self.original, speed.EVERY_STEPS
        clock = time.perf_counter

        def timed(*args, **kwargs):
            t0 = clock()
            out = original(*args, **kwargs)
            dt = clock() - t0
            raw.append(dt)
            scaled.append(dt * speedo.scale)
            if len(raw) % every == 0 and step_kind(args, kwargs) != "tape":
                speedo.sample()
            return out

        self.timed = timed

    def __enter__(self):
        self.dyncore.step = self.timed
        return self

    def __exit__(self, *exc):
        self.dyncore.step = self.original
        return False


def _timed(wl, ctx, speedo):
    """Run one operation between two speed samples. Returns its result
    (None if it raised), the problems so far, and its wall seconds, raw and
    at the reference speed; the time spent sampling the speed is left out."""
    from diffocean.errors import DiffOceanError

    first = len(speedo.samples)
    speedo.sample()
    spent = speedo.spent
    t0 = time.perf_counter()
    try:
        result, problems = wl.run(ctx), []
    except DiffOceanError as exc:
        result, problems = None, [repr(exc)]
    raw_s = time.perf_counter() - t0 - (speedo.spent - spent)
    speedo.sample()
    return result, problems, raw_s, raw_s * speedo.scale_since(first)


def _checked(wl, ctx, ops, timed):
    """Check an operation timed by _timed and record it in ops; returns its
    result. Run it outside every step clock and span, so that the steps of
    a check count neither as the operation's steps nor in its time."""
    result, problems, raw_s, s = timed
    if result is not None:
        problems = wl.check(ctx, result, len(ops))
    ops.append({
        "raw_s": raw_s,
        "s": s,
        "problems": problems,
        "sha256": None if result is None else wl.digest(result),
    })
    return result


def _failed(ops) -> int:
    """Operations that failed a check or whose outputs differ from the
    first one's: every operation starts from the same state, so outputs
    must repeat bitwise."""
    first = ops[0]["sha256"]
    return sum(1 for op in ops if op["problems"] or op["sha256"] is None or op["sha256"] != first)


def _problems(ops) -> list[str]:
    found = {p for op in ops for p in op["problems"]}
    if len({op["sha256"] for op in ops}) > 1:
        found.add("outputs differ between repetitions")
    return sorted(found)


def _setup_repeated(workloads, seed, speedo):
    """SETUP_REPEATS set-ups; raw seconds each, and seconds at the
    reference speed from speed samples taken either side."""
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        first = len(speedo.samples)
        speedo.sample()
        t0 = time.perf_counter()
        ctx = workloads.setup(seed, OUTDIR)
        raw.append(time.perf_counter() - t0)
        speedo.sample()
        scaled.append(raw[-1] * speedo.scale_since(first))
    return ctx, raw, scaled


def run_untraced(args, workloads, import_s, speedo):
    from diffocean import dyncore
    import numpy as np

    wl = workloads.WORKLOADS[args.workload]
    import_scaled = import_s * speedo.scale
    ctx, setup_raw, setup_scaled = _setup_repeated(workloads, args.seed, speedo)
    ops, last = [], None
    clock = StepClock(dyncore, speedo)
    begin = time.perf_counter()
    while True:
        with clock:
            timed = _timed(wl, ctx, speedo)
        result = _checked(wl, ctx, ops, timed)
        if result is None:
            break  # the operation raised; repeating it would raise again
        last = result
        if time.perf_counter() - begin >= args.seconds:
            break
    steps = np.asarray(clock.scaled)
    op_s = statistics.median(op["s"] for op in ops)
    metrics = {
        "setup_s": import_scaled + statistics.median(setup_scaled),
        "peak_rss_mb": _peak_rss_mb(),
        "op_s": op_s,
    }
    figures = {
        "failed_ratio": (_failed(ops) / len(ops), "failed/attempted"),
        "step_ms_p50": (1e3 * float(np.median(steps)), "ms"),
        "step_ms_p99": (1e3 * float(np.percentile(steps, P_TAIL)), "ms"),
        "step_samples": (int(steps.size), "count"),
    }
    if last is not None:
        figures.update(_named(args.workload, ctx, last, op_s, workloads))
    info = {
        "figures": figures,
        "ops": len(ops),
        "op_s_each": [op["s"] for op in ops],
        "raw": {
            "setup_s": import_s + statistics.median(setup_raw),
            "op_s": statistics.median(op["raw_s"] for op in ops),
            "step_ms_p50": 1e3 * float(np.median(clock.raw)),
            "step_ms_p99": 1e3 * float(np.percentile(clock.raw, P_TAIL)),
        },
        "speed_samples": len(speedo.samples),
        "speed_ms_median": 1e3 * statistics.median(speedo.samples),
        "import_s": import_s,
        "setup_s_each": setup_scaled,
        "sha256": ops[0]["sha256"],
        "problems": _problems(ops),
    }
    return metrics, info, len(ops), _failed(ops)


def _named(workload, ctx, result, op_s, workloads):
    """The workload's headline figures under their descriptive names."""
    if workload == "rollout":
        return {"rollout_steps_per_s": (ctx.cfg.stepping.n_steps / op_s, "1/s")}
    if workload == "calibrate":
        return {
            "calibrate_s": (op_s, "s"),
            "calibrate_param_err": (workloads.param_error(ctx, result.final), "1"),
            "calibrate_param_err_start": (workloads.param_error(ctx, result.records[0]), "1"),
        }
    return {"sensitivity_s": (op_s, "s")}


def run_traced(args, workloads, import_s, speedo):
    import layers
    import spans

    wl = workloads.WORKLOADS[args.workload]
    tracer = spans.Tracer()
    tracer.install()
    with tracer.span("bench.setup") as setup_span:
        ctx, _, _ = _setup_repeated(workloads, args.seed, speedo)
    tracer.uninstall()

    metrics, per_stencil = layers.micro(ctx)
    # Both operations are scaled to the reference speed by the samples
    # taken either side of them, so a change of machine phase between the
    # two does not read as tracing overhead.
    ops = []
    _checked(wl, ctx, ops, _timed(wl, ctx, speedo))
    plain_s = ops[0]["s"]

    tracer.install()
    gc0 = (tracer.gc_collections, tracer.gc_seconds)
    with tracer.span("bench.op") as op_span:
        timed = _timed(wl, ctx, speedo)
    gc_count = tracer.gc_collections - gc0[0]
    gc_s = tracer.gc_seconds - gc0[1]
    _checked(wl, ctx, ops, timed)
    with tracer.span("bench.sweep") as sweep_span:
        layers.sweep(ctx, os.path.join(OUTDIR, "sweep.dosn"))
    tracer.uninstall()

    span_m, sources = layers.span_metrics(tracer, setup_span, op_span, sweep_span)
    metrics.update(span_m)
    metrics["runtime.gc_collections"] = gc_count
    metrics["runtime.gc_ms"] = 1e3 * gc_s
    metrics["bench.trace_overhead_ratio"] = ops[1]["s"] / plain_s
    tracer.dump(os.path.join(OUTDIR, f"spans-{args.workload}-{args.seed}.jsonl"))
    info = {
        "import_s": import_s,
        "op_s_untraced": plain_s,
        "op_s_traced": ops[1]["s"],
        "speed_ms_median": 1e3 * statistics.median(speedo.samples),
        "sources": sources,
        "step_kinds": layers.step_kinds(tracer, op_span),
        "dispatch_ns_per_stencil": per_stencil,
        "self_ms": tracer.self_times(op_span),
        "sha256": ops[0]["sha256"],
        "problems": _problems(ops),
    }
    return metrics, info, len(ops), _failed(ops)


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "diffocean")):
        print(f"error: no diffocean sources under {ROOT}/src", file=sys.stderr)
        return 2
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.makedirs(OUTDIR, exist_ok=True)

    t0 = time.perf_counter()
    import numpy as np
    import diffocean  # noqa: F401
    import workloads
    import_s = time.perf_counter() - t0
    import speed

    speedo = speed.Speedometer()
    speedo.sample()

    env = _environment(args, np)
    run = run_traced if args.trace else run_untraced
    metrics, info, attempted, failed = run(args, workloads, import_s, speedo)
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS

    for name, value in metrics.items():
        print(f"{name:34s} {value:16.6g} {units[name]}")
    for name, (value, unit) in info.get("figures", {}).items():
        print(f"{name:34s} {value:16.6g} {unit}  (information)")
    print("info " + json.dumps({"environment": env, **info}, default=str))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": units[name]} for name in units
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
