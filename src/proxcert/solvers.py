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
    checked_gaps,
    draw_tape,
    inner_solver_prox,
    quantize_quadratic,
    quantized_gradient,
    ray_constants,
    ray_solve,
)
from .problems import StepsizePolicy, as_vector, backtrack_stepsize

MOMENTUM_RULES = ("fista", "linear", "none")


def _next_alpha(rule, k, alpha_prev):
    """Momentum parameter alpha_k (k >= 1) from alpha_{k-1}.

    "fista": alpha_k = (1 + sqrt(1 + 4 alpha_{k-1}^2))/2, which satisfies
    alpha_k^2 - alpha_k = alpha_{k-1}^2 exactly.
    "linear": alpha_k = (k+2)/2 (the recursion holds only approximately,
    off by 1/4).
    "none": alpha_k = 1, forcing beta_k = 0 (recovers the basic scheme).
    Every rule starts from alpha_0 = 1.
    """
    if rule == "fista":
        return 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * alpha_prev * alpha_prev))
    if rule == "linear":
        return (k + 2) / 2.0
    if rule == "none":
        return 1.0
    raise ValueError(f"unknown momentum rule {rule!r}")


def alpha_series(rule, kmax):
    """alpha_0 .. alpha_kmax as an array."""
    if rule not in MOMENTUM_RULES:
        raise ValueError(f"unknown momentum rule {rule!r}")
    out = np.empty(kmax + 1)
    out[0] = 1.0
    for k in range(1, kmax + 1):
        out[k] = _next_alpha(rule, k, out[k - 1])
    return out


@dataclass(frozen=True)
class SolverConfig:
    variant: str = "basic"
    stepsize: Optional[StepsizePolicy] = None  # None -> constant 1/L
    max_iters: int = 100
    abstol: float = 0.0
    momentum: str = "fista"
    grad_error: Union[GradientErrorSpec, FixedPointFormat, None] = None
    prox_error: Optional[ProxErrorSpec] = None
    seed: int = 0

    def __post_init__(self):
        if self.variant not in ("basic", "accelerated"):
            raise ValueError(f"unknown solver variant {self.variant!r}")
        if self.max_iters < 1:
            raise ValueError("iteration cap must be at least 1")
        if self.abstol < 0:
            raise ValueError("abstol must be nonnegative")
        if self.momentum not in MOMENTUM_RULES:
            raise ValueError(f"unknown momentum rule {self.momentum!r}")


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


# overflow during divergence is an expected, reported outcome
@np.errstate(over="ignore", invalid="ignore")
def _run(problem, config, x0, accelerated):
    n, max_iters, reg = problem.n, config.max_iters, problem.reg
    x0 = as_vector(x0, n, "x0")
    gspec, pspec = config.grad_error, config.prox_error
    tape = draw_tape(gspec, pspec, n, max_iters, config.seed)
    kappa, directions = tape.kappa, tape.directions
    relative = kappa is not None and gspec.model == "relative"
    quad_q = None
    if isinstance(gspec, FixedPointFormat):
        quad_q = quantize_quadratic(gspec, problem.smooth)
    inner = pspec is not None and pspec.mode == "inner_solver"
    policy = config.stepsize or StepsizePolicy.constant(1.0 / problem.lipschitz)
    backtracking = policy.mode == "backtracking"
    on_ray = tape.targets is not None
    if on_ray:
        abs_d, d_dot_d = ray_constants(directions)
        targets, d_dot_ds = tape.targets.tolist(), d_dot_d.tolist()
        exact_xs = np.empty((max_iters, n))  # x of each target-gap step, checked after the loop
    ts, d_dot_xws = [], []  # and its t and d'(x - w)

    # step k writes row k + 1 of xs (and row k of ys, eps1s, ress) in place;
    # rows that depend only on the tape or on t are formed after the loop
    xs = np.empty((max_iters + 1, n))
    xs[0] = x0
    if accelerated:
        ys = np.empty((max_iters, n))
        ys[0] = x0
    if relative or quad_q is not None:
        eps1s = np.empty((max_iters, n))
    if inner:
        ress = np.empty((max_iters, n))
    w = np.empty(n)
    zero = np.zeros(n)
    steps, betas, alphas, gaps = [], [], [], []  # steps: backtracking, gaps: inner solver
    status = "iteration-cap"

    s = policy.s0
    g_x = None  # g(x^k), when backtracking has evaluated it as the accepted z
    alpha_k = 1.0
    try:
        for k in range(max_iters):
            x = y = xs[k]
            x_next = xs[k + 1]
            beta_k = 0.0
            if k > 0:
                alpha_prev, alpha_k = alpha_k, _next_alpha(config.momentum, k, alpha_k)
                if accelerated:
                    beta_k = (alpha_prev - 1.0) / alpha_k
                    y = ys[k]
                    np.add(x, np.multiply(np.subtract(x, xs[k - 1], out=y), beta_k, out=y), out=y)
            if quad_q is not None:
                # the row holds noisy until the loop ends; then the stacked
                # exact gradients turn every row into eps1 = noisy - grad g(y)
                noisy = eps1s[k] = quantized_gradient(gspec, quad_q, y)
            else:
                noisy = problem.grad(y)
                if relative:
                    np.add(noisy, np.multiply(kappa[k], noisy, out=eps1s[k]), out=noisy)
                elif kappa is not None:
                    np.add(noisy, kappa[k], out=noisy)
            if backtracking:
                g_y = None if accelerated else g_x  # a basic step probes at x^k
                s, z, g_z = backtrack_stepsize(problem, s, y, noisy, policy.eta, g_probe=g_y)
                steps.append(s)
            np.subtract(y, np.multiply(noisy, s, out=w), out=w)
            g_x = None
            if on_ray:
                t, d_dot_xw = ray_solve(
                    reg, s, w, targets[k], directions[k], abs_d[k], d_dot_ds[k], exact_xs[k], x_next
                )
                ts.append(t)
                d_dot_xws.append(d_dot_xw)
            elif inner:
                x_next[:], gap, ress[k] = inner_solver_prox(reg, s, w, pspec.eps0)
                gaps.append(gap)
            elif backtracking:
                # the accepted candidate is prox(s, w), and g(z) is known
                x_next[:], g_x = z, g_z
            else:
                reg.prox(s, w, out=x_next)
            betas.append(beta_k)
            alphas.append(alpha_k)
            # x'0 is NaN exactly when an entry of x is inf or NaN
            if math.isnan(x_next.dot(zero)):
                status = "non-finite-iterate"
                break
            if config.abstol > 0 and float(np.linalg.norm(x_next - x)) <= config.abstol:
                status = "converged"
                break
    finally:
        # every realized gap in one call; the first one outside its window
        # is the run's error, also when a later step raised
        if ts:
            rays = (exact_xs[: len(ts)], ts, d_dot_xws)
            stepsizes = steps if backtracking else np.full(len(ts), s)
            gaps = checked_gaps(reg, stepsizes, rays, directions, d_dot_d, targets)
    done = len(betas)
    xs = xs[: done + 1]
    fvals = problem.f_values(xs)
    if status == "non-finite-iterate":
        fvals[-1] = np.nan
    ys = ys[:done] if accelerated else None
    if quad_q is not None:
        # the stacked gradients give the bits of problem.grad at each probe
        eps1s = eps1s[:done] - problem.smooth.grads(ys if accelerated else xs[:done])
    elif relative:
        eps1s = eps1s[:done]
    elif kappa is not None:
        eps1s = kappa[:done]
    else:
        eps1s = np.zeros((done, n))
    if on_ray:
        ress = np.asarray(ts)[:, None] * directions[:done]
        ress[np.asarray(targets[:done]) == 0.0] = 0.0  # +0.0, not t*d = -0.0
    elif inner:
        ress = ress[:done]
    else:
        ress = np.zeros((done, n))

    return RunTrace(
        xs=xs,
        ys=ys,
        steps=np.asarray(steps) if backtracking else np.full(done, s),
        betas=np.asarray(betas),
        alphas=np.asarray(alphas),
        fvals=fvals,
        eps1=eps1s,
        eps2=np.asarray(gaps) if on_ray or inner else np.zeros(done),
        res=ress,
        status=status,
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
    config = SolverConfig(
        variant="accelerated",
        stepsize=StepsizePolicy.constant(1.0 / problem.lipschitz),
        max_iters=25,
    )
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
