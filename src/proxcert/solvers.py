"""Basic and accelerated inexact proximal gradient with full trace recording.

The basic iteration is ``x^{k+1} in prox^{eps2_k}_{s h}(x^k - s(grad g(x^k) + eps1_k))``;
the accelerated variant evaluates the gradient at the momentum point
``y^k = x^k + beta_k (x^k - x^{k-1})`` with ``beta_k = (alpha_{k-1}-1)/alpha_k``.
Step ``k`` consumes errors ``eps1^k, eps2^k`` and produces ``x^{k+1}`` and the
residual ``r^{k+1}`` (inexact minus exact prox of the same point).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import (
    FixedPointFormat,
    GradientErrorSpec,
    ProxErrorSpec,
    check_gap_window,
    draw_tape,
    inner_solver_prox,
    prox_errors,
    quantize_quadratic,
    quantized_gradient,
    ray_constants,
    ray_solve,
)
from .problems import as_vector

def alpha_series(kmax):
    """FISTA's alpha_0 = 1 .. alpha_kmax, alpha_k = (1 + sqrt(1 + 4 alpha_{k-1}^2))/2,
    which satisfies alpha_k^2 - alpha_k = alpha_{k-1}^2 exactly."""
    a, out = 1.0, [1.0]
    for _ in range(kmax):
        a = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * a * a))
        out.append(a)
    return np.asarray(out)


@dataclass(frozen=True)
class SolverConfig:
    variant: str = "basic"
    max_iters: int = 100
    grad_error: Union[GradientErrorSpec, FixedPointFormat, None] = None
    prox_error: Optional[ProxErrorSpec] = None
    seed: int = 0

    def __post_init__(self):
        if self.variant not in ("basic", "accelerated"):
            raise ValueError(f"unknown solver variant {self.variant!r}")
        if self.max_iters < 1:
            raise ValueError("iteration cap must be at least 1")


@dataclass
class RunTrace:
    """Complete per-iteration record of one solver run.

    ``xs`` holds x^0..x^T; the step arrays have length T, entry k describing
    the step that maps x^k to x^{k+1} (stepsize, momentum, injected errors,
    and the residual r^{k+1} of that step).
    """

    xs: np.ndarray
    ys: Optional[np.ndarray]
    steps: np.ndarray
    betas: np.ndarray
    alphas: np.ndarray
    fvals: np.ndarray
    eps1: np.ndarray
    eps2: np.ndarray
    res: np.ndarray
    status: str = "ok"

    @property
    def num_steps(self):
        return len(self.steps)

    @property
    def n(self):
        return self.xs.shape[1]

    def x_change(self):
        """||x^{k+1} - x^k|| produced by each step."""
        return np.linalg.norm(np.diff(self.xs, axis=0), axis=1)

    def eps1_norms(self):
        return np.linalg.norm(self.eps1, axis=1)

    def res_norms(self):
        return np.linalg.norm(self.res, axis=1)

    def ergodic_averages(self):
        """Running means of x^1..x^{k+1} for k = 0..T-1."""
        csum = np.cumsum(self.xs[1:], axis=0)
        counts = np.arange(1, self.num_steps + 1)[:, None]
        return csum / counts


def _gradient_oracle(problem, gspec, kappa, max_iters):
    """``(step, eps1)`` of the run's gradient-error kind: ``step(k, y)`` is the
    noisy gradient of step k at its probe y, and ``eps1(probes)`` stacks the
    eps1 rows of the steps that probed at ``probes``."""
    if isinstance(gspec, FixedPointFormat):
        quad_q, rows = quantize_quadratic(gspec, problem.smooth), np.empty((max_iters, problem.n))
        # a row holds the noisy gradient until the stacked exact gradients,
        # the bits of problem.grad at each probe, turn it into eps1
        return (lambda k, y: quantized_gradient(gspec, quad_q, y, out=rows[k]),
                lambda probes: rows[: len(probes)] - problem.smooth.grads(probes))
    if kappa is None:
        return lambda k, y: problem.grad(y), lambda probes: np.zeros((len(probes), problem.n))
    if gspec.model == "absolute":
        def step(k, y):
            noisy = problem.grad(y)
            return np.add(noisy, kappa[k], out=noisy)
        return step, lambda probes: kappa[: len(probes)]
    rows = np.empty((max_iters, problem.n))

    def step(k, y):
        noisy = problem.grad(y)
        return np.add(noisy, np.multiply(kappa[k], noisy, out=rows[k]), out=noisy)
    return step, lambda probes: rows[: len(probes)]


def _prox_oracle(problem, pspec, tape, s):
    """``prox(k, w, out)``, which writes step k's prox of ``s h`` at ``w``, of
    the run's prox-error kind, into ``out``."""
    reg = problem.reg
    if tape.targets is not None:
        directions = tape.directions
        abs_d, d_dot_d = ray_constants(directions)
        targets, d_dot_ds = tape.targets.tolist(), d_dot_d.tolist()
        x = np.empty(problem.n)  # the exact prox, scratch of every step

        def prox(k, w, out):
            ray_solve(reg, s, w, targets[k], directions[k], abs_d[k], d_dot_ds[k], x, out)
        return prox
    if pspec is not None and pspec.mode == "inner_solver":
        return lambda k, w, out: np.copyto(out, inner_solver_prox(reg, s, w, pspec.eps0))
    return lambda k, w, out: reg.prox(s, w, out=out)


def _stepsize(problem, config):
    """The run's constant step, the largest admissible one: 1/L, or
    1/((1+delta)L) under relative gradient errors (delta: ``bound``)."""
    gspec = config.grad_error
    relative = isinstance(gspec, GradientErrorSpec) and gspec.model == "relative"
    return 1.0 / (problem.lipschitz * (1.0 + gspec.bound) if relative else problem.lipschitz)


# overflow during divergence is an expected, reported outcome
@np.errstate(over="ignore", invalid="ignore")
def _run(problem, config, x0, accelerated):
    n, max_iters, pspec = problem.n, config.max_iters, config.prox_error
    x0 = as_vector(x0, n, "x0")
    tape = draw_tape(config.grad_error, pspec, n, max_iters, config.seed)
    s = _stepsize(problem, config)
    gradient, eps1 = _gradient_oracle(problem, config.grad_error, tape.kappa, max_iters)
    prox = _prox_oracle(problem, pspec, tape, s)

    # step k writes, in place, row k + 1 of xs and row k of ws (its prox input) and of ys
    xs, ws = np.empty((max_iters + 1, n)), np.empty((max_iters, n))
    xs[0] = x0
    if accelerated:
        ys = np.empty((max_iters, n))
        ys[0] = x0
    zero = np.zeros(n)
    betas = np.zeros(max_iters)
    status, stop = "iteration-cap", 0
    # chunks of 1024 steps, then doubling, each with its alphas: an early stop pays no more
    while status == "iteration-cap" and stop < max_iters:
        start, stop = stop, min(max_iters, max(1024, 2 * stop))
        alphas = alpha_series(stop - 1)
        if accelerated:
            betas[1:stop] = (alphas[:-1] - 1.0) / alphas[1:]
        for k in range(start, stop):
            x = y = xs[k]
            x_next, w = xs[k + 1], ws[k]
            if accelerated and k > 0:
                y = ys[k]
                np.subtract(x, xs[k - 1], out=y)
                np.add(x, np.multiply(y, betas[k], out=y), out=y)
            noisy = gradient(k, y)
            np.subtract(y, np.multiply(noisy, s, out=w), out=w)
            prox(k, w, x_next)
            # x'0 is NaN exactly when an entry of x is inf or NaN
            if math.isnan(x_next.dot(zero)):
                status = "non-finite-iterate"
                break
    done = k + 1
    xs = xs[: done + 1]
    if pspec is None or pspec.mode == "exact":
        eps2, res = np.zeros(done), np.zeros((done, n))
    else:
        # every step's errors at its stored point; the first gap outside
        # its window is the run's error
        eps2, res = prox_errors(problem.reg, s, ws[:done], xs[1:])
        if tape.targets is not None:
            check_gap_window(eps2, tape.targets[:done])
    fvals = problem.f_values(xs)
    if status == "non-finite-iterate":
        fvals[-1] = np.nan
    ys = ys[:done] if accelerated else None
    return RunTrace(
        xs=xs, ys=ys, steps=np.full(done, s), betas=betas[:done], alphas=alphas[:done],
        fvals=fvals, eps1=eps1(ys if accelerated else xs[:done]), eps2=eps2, res=res, status=status,
    )


def run_basic(problem, config, x0):
    """Inexact basic proximal gradient; returns the full trace."""
    return _run(problem, config, x0, accelerated=False)


def run_accelerated(problem, config, x0):
    """Inexact accelerated proximal gradient; returns the full trace."""
    return _run(problem, config, x0, accelerated=True)


def run(problem, config, x0):
    if config.variant == "accelerated":
        return run_accelerated(problem, config, x0)
    return run_basic(problem, config, x0)


class Reference(tuple):
    """``(x_star, f_star)`` of a reference solve, unpacking as that pair,
    with ``gap``: ``problem.duality_gap(x_star)``."""

    def __new__(cls, x_star, f_star, gap):
        ref = super().__new__(cls, (x_star, f_star))
        ref.gap = gap
        return ref


def _polish(problem, x):
    """The point on the support S and signs of ``x`` that solves the stationarity
    system ``(M_S' M_S) x_S = M_S' v - (lam/c) sign(x_S)``, ``c = 1`` half-scaled
    and 2 unscaled; None when that system is singular, as it is whenever S has
    more columns than M has rows."""
    quad = problem.smooth
    support = np.flatnonzero(x)
    if support.size > quad.mat.shape[0]:
        return None
    sign = np.sign(x[support])
    m_s = quad.mat[:, support]
    rhs = m_s.T @ quad.vec - problem.reg.lam / (1.0 if quad.half else 2.0) * sign
    out = np.zeros(problem.n)
    try:
        out[support] = np.linalg.solve(m_s.T @ m_s, rhs)
    except np.linalg.LinAlgError:
        return None
    return out


def reference_solution(problem, max_iters=100_000):
    """``Reference`` ``(x_star, f_star)`` certified by a duality gap.

    Exact FISTA at 1/L runs in 25-step segments, each warm-started from the
    last.  After each, the polished point (``_polish``), else the FISTA point,
    is returned once ``problem.duality_gap`` there is at most
    ``1e-10 |f| + problem.gap_rounding``: relative 1e-10, unless f* is so small
    (noiseless data, a tiny or zero lam) that the rounding of the gap itself
    is larger.  After ``max_iters`` steps, the last point with its gap.
    """
    config = SolverConfig(variant="accelerated", max_iters=25)
    x = np.zeros(problem.n)
    for _ in range(max(1, max_iters // 25)):
        x = run_accelerated(problem, config, x).xs[-1]
        for point in (_polish(problem, x), x):
            if point is None:
                continue
            f = problem.f_value(point)
            gap = problem.duality_gap(point)
            if gap <= 1e-10 * abs(f) + problem.gap_rounding(point):
                return Reference(point, f, gap)
    return Reference(x, f, gap)
