"""Condensed model predictive control and the spacecraft regulator instance.

The regulator drives the state to zero, and its outputs are its states.
States are eliminated through ``X = Psi x(k) + Phi U``, turning the
finite-horizon l1-regularized control problem into an unconstrained LASSO in
the stacked move sequence ``U``.  The built-in spacecraft attitude model is a
7-state, 4-input LTI system; its per-step state/input weights tile to any
horizon (the reference weights are given over a 2-step window).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..problems import (
    CompositeProblem, QuadraticSmooth, as_vector, lambda_max_bound, symmetric_sqrt,
)
from ..solvers import run as run_solver

SPACECRAFT_A = np.array(
    [
        [0.0, 0.0, 0.8416, 0.0, -1.267, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, 0.0, -0.8107, 0.0],
        [-0.9763, 0.0, 0.0, 0.0, 0.0, 0.0, -0.04749],
        [0.0, 0.0, 0.0, 0.0, 0.0, 0.8107, 0.0],
        [0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [0.0, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.5, 0.0, 0.0, 0.0, 0.0],
    ]
)

SPACECRAFT_B = np.array(
    [
        [0.2353, 0.0, 0.0, 0.0],
        [0.0, 0.2306, 0.0, -0.2306],
        [0.0, 0.0, 0.2729, 0.0],
        [0.0, -0.2306, 0.0, 25000.0],
        [0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0],
    ]
)

# per-step diagonal weights; the reference lists cover a 2-step window
SPACECRAFT_Q_STEP = np.array([500.0, 500.0, 500.0, 1e-7, 1.0, 1.0, 1.0])
SPACECRAFT_R_STEP = np.array([200.0, 200.0, 200.0, 1.0])
SPACECRAFT_LAMBDA = 16.79


@dataclass(frozen=True)
class StateSpaceModel:
    """Discrete LTI model x(k+1) = A x(k) + B u(k)."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a = np.atleast_2d(np.asarray(self.a, dtype=float))
        b = np.atleast_2d(np.asarray(self.b, dtype=float))
        if a.shape[0] != a.shape[1]:
            raise ValueError("A must be square")
        if b.shape[0] != a.shape[0]:
            raise ValueError("B row count must match the state dimension")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def n_states(self):
        return self.a.shape[0]

    @property
    def n_inputs(self):
        return self.b.shape[1]


def spacecraft_model():
    return StateSpaceModel(SPACECRAFT_A, SPACECRAFT_B)


@dataclass
class MpcSpec:
    """Horizons, weights and current state for one condensation.

    ``q_step``/``r_step`` are per-step diagonal state and input weights
    tiled to the prediction/control horizons.
    """

    model: StateSpaceModel
    n_p: int
    n_c: int
    q_step: np.ndarray
    r_step: np.ndarray
    lam: float = 0.0
    x0: Optional[np.ndarray] = None
    _cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if not (1 <= self.n_c <= self.n_p):
            raise ValueError("need 1 <= N_c <= N_p")
        self.q_step = as_vector(self.q_step, self.model.n_states, "q_step")
        self.r_step = as_vector(self.r_step, self.model.n_inputs, "r_step")
        if self.lam < 0:
            raise ValueError("regularization weight must be nonnegative")
        if self.x0 is None:
            self.x0 = np.zeros(self.model.n_states)
        else:
            self.x0 = as_vector(self.x0, self.model.n_states, "x0")

    @property
    def n_moves(self):
        return self.model.n_inputs * self.n_c

    def prediction_matrices(self):
        if "psi_phi" not in self._cache:
            self._cache["psi_phi"] = build_prediction_matrices(self)
        return self._cache["psi_phi"]

    def condensed_weights(self):
        """``(q, H^{1/2}, H^{-1/2}, L)`` with ``H = Phi' Q Phi + R``, where
        ``q`` is the diagonal of Q and Q, R tile the per-step weights.

        None of these depend on the state, so the condensations of one
        horizon share them.  g has Hessian 2H, and H is the Gram matrix of
        ``[Q^{1/2} Phi; R^{1/2}]``, whose row count sets L's margin.
        """
        if "weights" not in self._cache:
            _, phi = self.prediction_matrices()
            q, r = np.tile(self.q_step, self.n_p), np.tile(self.r_step, self.n_c)
            # a C-ordered Phi'Q takes the BLAS kernel, and so the bits, of Phi' @ diag(q)
            normal = np.multiply(phi.T, q, order="C") @ phi + np.diag(r)
            eigs = np.linalg.eigvalsh(0.5 * (normal + normal.T))
            if eigs[0] <= 0:
                raise ValueError("Phi'QPhi + R is not positive definite")
            root, inv_root = symmetric_sqrt(normal)
            lipschitz = 2.0 * lambda_max_bound(eigs[-1], sum(phi.shape))
            self._cache["weights"] = (q, root, inv_root, lipschitz)
        return self._cache["weights"]

    def with_state(self, x0):
        """A copy at state ``x0``; the rest of the spec was validated when
        it was made, so only ``x0`` is checked."""
        # a shallow copy that shares _cache: nothing cached depends on the state
        spec = object.__new__(type(self))
        vars(spec).update(vars(self))
        spec.x0 = as_vector(x0, self.model.n_states, "x0")
        return spec


def spacecraft_mpc(n_p=10, n_c=None, lam=SPACECRAFT_LAMBDA, x0=None):
    """The reference spacecraft regulator at the requested horizons."""
    return MpcSpec(
        model=spacecraft_model(),
        n_p=n_p,
        n_c=n_p if n_c is None else n_c,
        q_step=SPACECRAFT_Q_STEP,
        r_step=SPACECRAFT_R_STEP,
        lam=lam,
        x0=x0,
    )


def build_prediction_matrices(spec):
    """Stacked prediction matrices (Psi, Phi).

    Psi stacks A^l for l = 1..N_p; Phi is block lower-triangular with
    block (i, j) = A^{i-j} B for i >= j.
    """
    model = spec.model
    n, p = model.n_states, model.n_inputs
    powers = [np.eye(n)]
    for _ in range(spec.n_p):
        powers.append(model.a @ powers[-1])
    psi = np.vstack(powers[1:])
    phi = np.zeros((n * spec.n_p, p * spec.n_c))
    for i in range(1, spec.n_p + 1):
        for j in range(1, min(i, spec.n_c) + 1):
            phi[(i - 1) * n : i * n, (j - 1) * p : j * p] = powers[i - j] @ model.b
    return psi, phi


def mpc_to_lasso(spec):
    """Condense the regularized MPC problem into a composite LASSO.

    Returns a CompositeProblem with
    ``g(U) = ||H^{1/2} U + H^{-1/2} Phi' Q Psi x||^2`` (unscaled) and
    ``h = lam ||.||_1``, where ``H = Phi' Q Phi + R``.  The original
    quadratic objective equals ``g`` plus a U-independent constant stored in
    ``problem.meta["offset"]``.
    """
    psi, phi = spec.prediction_matrices()
    q, root, inv_root, lipschitz = spec.condensed_weights()
    # -Psi x as 0 - Psi x: a zero entry of Psi x stays +0.0
    target = np.zeros(psi.shape[0]) - psi @ spec.x0
    weighted = q * target
    vec = inv_root @ (phi.T @ weighted)
    quad = QuadraticSmooth(root, vec, half=False)
    offset = float(target @ weighted) - float(vec @ vec)
    return CompositeProblem.from_quadratic(
        quad,
        spec.lam,
        meta={"offset": offset, "spec": spec},
        lipschitz=lipschitz,
    )


@dataclass
class ClosedLoopReport:
    states: np.ndarray
    controls: np.ndarray
    state_norms: np.ndarray
    traces: list
    status: str = "ok"


def mpc_closed_loop(spec, config, steps, x0=None):
    """Receding-horizon loop: condense, solve inexactly, apply the first move.

    Each solve warm-starts from the previous solution shifted by one move.
    Returns per-step traces and the closed-loop state history.
    """
    model = spec.model
    x = as_vector(x0 if x0 is not None else spec.x0, model.n_states, "x0")
    p = model.n_inputs
    warm = np.zeros(spec.n_moves)
    states = [x.copy()]
    controls = []
    traces = []
    status = "ok"
    for _ in range(steps):
        problem = mpc_to_lasso(spec.with_state(x))
        trace = run_solver(problem, config, warm)
        traces.append(trace)
        if trace.status == "non-finite-iterate":
            status = "solver-failure"
            break
        u_seq = trace.xs[-1]
        u = u_seq[:p]
        controls.append(u)
        x = model.a @ x + model.b @ u
        states.append(x.copy())
        warm = np.concatenate([u_seq[p:], np.zeros(p)])
    states = np.asarray(states)
    return ClosedLoopReport(
        states=states,
        controls=np.asarray(controls) if controls else np.zeros((0, p)),
        state_norms=np.linalg.norm(states, axis=1),
        traces=traces,
        status=status,
    )
