"""Basic and accelerated inexact proximal gradient with full trace recording.

The basic iteration is ``x^{k+1} in prox^{eps2_k}_{s h}(x^k - s(grad g(x^k) + eps1_k))``;
the accelerated variant evaluates the gradient at the momentum point
``y^k = x^k + beta_k (x^k - x^{k-1})`` with ``beta_k = (alpha_{k-1}-1)/alpha_k``.
Step ``k`` consumes errors ``eps1^k, eps2^k`` and produces ``x^{k+1}`` and the
residual ``r^{k+1}`` (inexact minus exact prox of the same point).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .errors import (
    FixedPointFormat,
    GradientErrorSpec,
    ProxErrorSpec,
    approx_prox,
    draw_tape,
    inner_solver_prox,
    quantize_quadratic,
    quantized_gradient,
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
    wall_clock: float = 0.0
    meta: dict = field(default_factory=dict)

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


def _run(problem, config, x0, accelerated):
    t_start = time.perf_counter()
    x0 = as_vector(x0, problem.n, "x0")
    gspec, pspec = config.grad_error, config.prox_error
    tape = draw_tape(gspec, pspec, problem.n, config.max_iters, config.seed)
    relative = isinstance(gspec, GradientErrorSpec) and gspec.model == "relative"
    quad_q = None
    if isinstance(gspec, FixedPointFormat):
        quad_q = quantize_quadratic(gspec, problem.smooth)
    inner = pspec is not None and pspec.mode == "inner_solver"
    policy = config.stepsize or StepsizePolicy.constant(1.0 / problem.lipschitz)

    xs = [x0]
    ys = []
    steps, betas, alphas, eps2s = [], [], [], []
    eps1s, ress = [], []
    zero = np.zeros(problem.n)  # eps1/res row of an exact gradient or prox
    status = "iteration-cap"

    s = policy.s0
    x_prev = x0
    x = x0
    g_x = None  # g(x^k), when backtracking has evaluated it as the accepted z
    alpha_k = 1.0
    # overflow during divergence is an expected, reported outcome
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(config.max_iters):
            beta_k, y = 0.0, x
            if k > 0:
                alpha_prev, alpha_k = alpha_k, _next_alpha(config.momentum, k, alpha_k)
                if accelerated:
                    beta_k = (alpha_prev - 1.0) / alpha_k
                    y = x + beta_k * (x - x_prev)
            g = problem.grad(y)
            if tape.kappa is not None:
                eps1 = tape.kappa[k] * g if relative else tape.kappa[k]
                noisy = g + eps1
            elif quad_q is not None:
                noisy, eps1 = quantized_gradient(gspec, quad_q, y, g)
            else:
                noisy, eps1 = g, zero
            g_next = None
            if policy.mode == "backtracking":
                g_y = None if accelerated else g_x  # a basic step probes at x^k
                s, z, g_z = backtrack_stepsize(problem, s, y, noisy, policy.eta, g_probe=g_y)
            w = y - s * noisy
            if tape.targets is not None:
                x_next, gap, r = approx_prox(problem.reg, s, w, tape.targets[k], tape.directions[k])
            elif inner:
                x_next, gap, r = inner_solver_prox(problem.reg, s, w, pspec.eps0)
            elif policy.mode == "backtracking":
                # the accepted candidate is prox(s, w), and g(z) is known
                x_next, gap, r, g_next = z, 0.0, zero, g_z
            else:
                x_next, gap, r = problem.prox(s, w), 0.0, zero

            if accelerated:
                ys.append(y)
            steps.append(s)
            betas.append(beta_k)
            alphas.append(alpha_k)
            eps1s.append(eps1)
            eps2s.append(gap)
            ress.append(r)
            xs.append(x_next)
            if not np.isfinite(x_next).all():
                status = "non-finite-iterate"
                break
            if config.abstol > 0 and float(np.linalg.norm(x_next - x)) <= config.abstol:
                status = "converged"
                break
            x_prev, x, g_x = x, x_next, g_next
        xs = np.asarray(xs)
        fvals = problem.f_values(xs)
    if status == "non-finite-iterate":
        fvals[-1] = np.nan

    return RunTrace(
        xs=xs,
        ys=np.asarray(ys) if accelerated else None,
        steps=np.asarray(steps),
        betas=np.asarray(betas),
        alphas=np.asarray(alphas),
        fvals=fvals,
        eps1=np.asarray(eps1s),
        eps2=np.asarray(eps2s),
        res=np.asarray(ress),
        status=status,
        wall_clock=time.perf_counter() - t_start,
        meta={"variant": "accelerated" if accelerated else "basic", "seed": config.seed},
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


def reference_solution(problem, max_iters=100_000, abstol=1e-12):
    """High-accuracy (x_star, f_star) surrogate from a long exact FISTA run."""
    if problem.x_star is not None and problem.f_star is not None:
        return np.asarray(problem.x_star, dtype=float), float(problem.f_star)
    config = SolverConfig(
        variant="accelerated",
        stepsize=StepsizePolicy.constant(1.0 / problem.lipschitz),
        max_iters=max_iters,
        abstol=abstol,
    )
    trace = run_accelerated(problem, config, np.zeros(problem.n))
    x_star = trace.xs[-1]
    return x_star, problem.f_value(x_star)
