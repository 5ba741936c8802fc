"""Does the reference kernel's time depend on the state of the process?

    python3 perfbench/kernel_check.py [--rounds 12]

The benchmark scales its times by the reference kernel (speed.py), so the
kernel must run equally fast whatever the code under test has left in the
heap. Each round times the kernel (median of three calls) in three states,
back to back so that all three see the same machine phase, in an order
that rotates from round to round so that a drift favours none of them:

* idle:  nothing extra held, as at an operation boundary;
* heap:  about 264 MB held in 64x48 arrays, the size of the tape of one
         500-step calibration gradient;
* tape:  after step 250 of a real 500-step gradient, with its tape live.
         The benchmark takes no sample in this state (speed.EVERY_STEPS).

It prints, for each state, the median kernel time, and the median and
quartiles over rounds of its ratio to the idle time of the same round.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
HEAP_BYTES = 264e6


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--rounds", type=int, default=12)
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.join(ROOT, "src"))

    import numpy as np

    import diffocean.autodiff as autodiff
    from diffocean import calibrate, dyncore

    import speed
    import workloads

    ctx = workloads.setup(1, os.path.join(HERE, "out"))
    loss = calibrate.bsf_calibration_loss(ctx.obs, ctx.start, ctx.params, ctx.grid, ctx.stepcfg)
    speedo = speed.Speedometer()

    def kernel_s(repeats=3):
        return statistics.median(speedo.sample() for _ in range(repeats))

    original = dyncore.step
    mid_tape = []

    def step_sampling_at_250(*a, **k):
        out = original(*a, **k)
        step_sampling_at_250.n += 1
        if step_sampling_at_250.n == 250:
            mid_tape.append(kernel_s())
        return out

    def idle():
        return kernel_s()

    def heap():
        held = [np.ones((64, 48)) for _ in range(int(HEAP_BYTES // (64 * 48 * 8)))]
        seconds = kernel_s()
        del held
        return seconds

    def tape():
        step_sampling_at_250.n = 0
        dyncore.step = step_sampling_at_250
        try:
            autodiff.grad(loss, ctx.truth)
        finally:
            dyncore.step = original
        return mid_tape[-1]

    states = [idle, heap, tape]
    times = {f.__name__: [] for f in states}
    for r in range(args.rounds):
        for f in states[r % 3:] + states[: r % 3]:
            times[f.__name__].append(f())

    for state, values in times.items():
        q1, ratio, q3 = statistics.quantiles(
            [v / i for v, i in zip(values, times["idle"])], n=4, method="inclusive")
        print(f"{state:5s} median {1e3 * statistics.median(values):7.3f} ms"
              f"  ratio to idle {ratio:.4f} (quartiles {q1:.4f} {q3:.4f}, {len(values)} rounds)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
