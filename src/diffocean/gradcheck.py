"""Gradient validation against central finite differences.

A report compares the autodiff directional derivative of a scalar loss
along a random unit direction with the central difference
(l(w + eps*k) - l(w - eps*k)) / (2*eps), recording the absolute error and
the agreement metric 1 - |ad - fd| / |fd|. Losses are rescaled to O(1) at
the evaluation point before comparison so thresholds are portable across
configurations.

Disagreement with finite differences is reported, never raised: validation
is an experiment, not a runtime contract.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass

import numpy as np

from .autodiff import DiffSelector, grad, jvp, random_direction, tree
from .errors import DomainError, NonFiniteError

ACCURACY_FLOOR = 1e-14  # |fd| below this makes the agreement metric undefined


@dataclass
class GradCheckReport:
    """One autodiff-versus-finite-difference comparison."""

    eps: float
    seed: int
    ad_value: float
    fd_value: float
    error: float
    accuracy: float | None  # None when |fd| < ACCURACY_FLOOR
    n_steps: int | None
    mode: str

    def row(self) -> dict:
        return {
            "n_steps": self.n_steps if self.n_steps is not None else "",
            "mode": self.mode,
            "eps": self.eps,
            "ad_value": self.ad_value,
            "fd_value": self.fd_value,
            "error": self.error,
            "accuracy": self.accuracy if self.accuracy is not None else "undefined",
        }


def fd_directional(loss, w, k, eps: float) -> float:
    """Central difference of loss at w along the unit direction k.

    Exactly two loss evaluations. k must be L2-normalized to within 1e-12.
    """
    if eps <= 0:
        raise DomainError(f"finite-difference step must be positive, got {eps}")
    norm = np.sqrt(tree.tree_dot(k, k))
    if abs(norm - 1.0) > 1e-12:
        raise DomainError(f"direction must be a unit vector, |k| = {norm!r}")
    plus = float(loss(tree.tree_add_scaled(w, k, eps)))
    minus = float(loss(tree.tree_add_scaled(w, k, -eps)))
    if not (np.isfinite(plus) and np.isfinite(minus)):
        raise NonFiniteError(
            f"loss not finite at finite-difference probes: {plus}, {minus}"
        )
    return (plus - minus) / (2.0 * eps)


def grad_error(
    loss,
    w,
    select: DiffSelector | None = None,
    eps: float = 1e-4,
    seed: int = 0,
    mode: str = "vjp",
    n_steps: int | None = None,
) -> GradCheckReport:
    """Compare one autodiff directional derivative against central FD."""
    if mode not in ("jvp", "vjp"):
        raise DomainError(f"mode must be 'jvp' or 'vjp', got {mode!r}")
    k = random_direction(w, select=select, seed=seed)

    if mode == "jvp":
        value, ad = jvp(loss, w, k, select=select)
        value = float(value)
        ad = float(ad)
    else:
        value, g = grad(loss, w, select=select)
        ad = tree.tree_dot(g, k)

    fd = fd_directional(loss, w, k, eps)

    scale = abs(value)
    factor = 1.0 / scale if scale > 1e-300 else 1.0
    ad *= factor
    fd *= factor
    error = abs(ad - fd)
    accuracy = None if abs(fd) < ACCURACY_FLOOR else 1.0 - error / abs(fd)
    return GradCheckReport(
        eps=eps,
        seed=seed,
        ad_value=ad,
        fd_value=fd,
        error=error,
        accuracy=accuracy,
        n_steps=n_steps,
        mode=mode,
    )


def accuracy_over_steps(
    loss_family,
    n_list,
    select: DiffSelector | None = None,
    eps: float = 1e-4,
    seed: int = 0,
) -> list[GradCheckReport]:
    """Reports for both modes across rollout lengths.

    loss_family(n) must return (loss, w) for an n-step rollout objective.
    """
    n_list = list(n_list)
    if n_list != sorted(n_list):
        raise DomainError(f"n_list must be sorted ascending, got {n_list}")
    reports = []
    for n in n_list:
        loss, w = loss_family(int(n))
        for mode in ("jvp", "vjp"):
            reports.append(
                grad_error(
                    loss,
                    w,
                    select=select,
                    eps=eps,
                    seed=seed,
                    mode=mode,
                    n_steps=int(n),
                )
            )
    return reports


@dataclass
class TimingRow:
    n_steps: int
    forward_ms: float
    vjp_ms: float


def cost_scaling(
    loss_family,
    n_list,
    repetitions: int = 5,
    select: DiffSelector | None = None,
) -> list[TimingRow]:
    """Median wall time of the forward pass and of value+gradient per n.

    Each of the repetitions sweeps times every rollout length once,
    after one discarded warm-up sweep, and the median per length is kept:
    a slow phase of a shared machine then spreads over all lengths instead
    of landing on one. The monotonic clock is used throughout. Must run
    alone (single-threaded) for timing fidelity.
    """
    if repetitions < 3:
        raise DomainError(f"need at least 3 repetitions, got {repetitions}")
    cases = [(int(n), *loss_family(int(n))) for n in n_list]
    forward = {n: [] for n, _, _ in cases}
    reverse = {n: [] for n, _, _ in cases}
    for sweep in range(1 + repetitions):
        gc.collect()
        for n, loss, w in cases:
            t_forward = _time_ms(lambda: loss(w))
            t_reverse = _time_ms(lambda: grad(loss, w, select=select))
            if sweep:  # sweep 0 is the warm-up
                forward[n].append(t_forward)
                reverse[n].append(t_reverse)
    return [
        TimingRow(n, float(np.median(forward[n])), float(np.median(reverse[n])))
        for n, _, _ in cases
    ]


def _time_ms(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return (time.perf_counter() - t0) * 1e3


def loglog_slope(xs, ys) -> float:
    """Least-squares slope of log(y) against log(x); DomainError unless the
    x are positive and at least two of them distinct."""
    x = np.asarray(xs, dtype=float)
    if not (np.all(x > 0) and np.unique(x).size >= 2):
        raise DomainError(f"a log-log slope needs two distinct positive x, got {list(xs)}")
    slope, _ = np.polyfit(np.log(x), np.log(np.asarray(ys, dtype=float)), 1)
    return float(slope)
