"""Primal alternating-direction solver.

Splits the misfit into an explicit residual variable r, then sweeps
r -> x -> y each iteration:

    r+ = model-specific residual update using (y/beta - (A x - b))
    x+ = Shrink(x - tau g, tau/beta),  g = A*(A x + r+ - b - y/beta)
    y+ = y - gamma beta (A x+ + r+ - b)

The x-update already sees the new r. Each iteration costs one forward and
one adjoint application (A x+ is cached for the next sweep). Convergence
requires tau lambda_max(A*A) + gamma < 2, enforced at parameter
construction; no orthonormality of A is needed, which makes this the
fallback solver for general dense operators. Each sweep reads its model
from ``PadmParams.model``, a ModelSpec; every solve starts from the zero
state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError, StepSizeError
from ..models import ModelSpec
from ..prox import project_l2_ball, shrink
from .common import SolverOptions, project_dual, run_solve, working_data

__all__ = ["PadmParams", "PadmState", "padm_step", "padm_solve"]

DEFAULT_TAU = 0.8
DEFAULT_GAMMA = 1.199


@dataclass(frozen=True, eq=False)
class PadmParams:
    """Validated step sizes for the primal solver, and the model it sweeps.

    ``model`` is the ModelSpec the step reads mu, delta and weights from.
    Build through ``from_operator`` in normal use: it fills the standard
    defaults (tau=0.8, gamma=1.199, beta=2m/||b||_1) and enforces the
    convergence guard tau lambda_max + gamma < 2.
    """

    beta: float
    gamma: float
    tau: float
    model: ModelSpec = ModelSpec.bp()

    def __post_init__(self):
        if not (self.beta > 0):
            raise StepSizeError(f"beta must be positive, got {self.beta}")
        if not (self.tau > 0):
            raise StepSizeError(f"tau must be positive, got {self.tau}")
        if not (0 < self.gamma < 2):
            raise StepSizeError(f"gamma must lie in (0, 2), got {self.gamma}")

    @classmethod
    def from_operator(cls, A, b, model=ModelSpec.bp(), *, tau=None, gamma=None, beta=None):
        """Fill defaults from (A, b) and run the convergence guard.

        Raises StepSizeError when tau lambda_max(A*A) + gamma >= 2.
        """
        tau = DEFAULT_TAU if tau is None else float(tau)
        gamma = DEFAULT_GAMMA if gamma is None else float(gamma)
        if beta is None:
            b_l1 = float(np.sum(np.abs(b)))
            beta = 2.0 * A.m / b_l1 if b_l1 > 0 else 1.0
        lam = A.lambda_max()
        if tau * lam + gamma >= 2.0:
            raise StepSizeError(
                f"step sizes violate tau*lambda_max + gamma < 2: "
                f"{tau} * {lam:.6g} + {gamma} = {tau * lam + gamma:.6g}")
        return cls(beta=float(beta), gamma=gamma, tau=tau, model=model)


@dataclass
class PadmState:
    """Iterate of the primal solver. ``Ax`` caches A @ x."""

    x: np.ndarray
    r: np.ndarray
    y: np.ndarray
    Ax: np.ndarray
    k: int = 0


def padm_step(state, A, b, p):
    """One sweep r -> x -> y of the model ``p.model``.

    The models differ only in the r-update: qp when mu > 0, bpdn when
    delta > 0, bp (r pinned at zero) otherwise.
    """
    mu, delta, weights = p.model.mu, p.model.delta, p.model.weights
    # y * (1/beta), not y / beta: see dadm_step.
    if mu > 0:
        coeff = mu * p.beta / (1.0 + mu * p.beta)
        r_new = coeff * (state.y * (1.0 / p.beta) - (state.Ax - b))
    elif delta > 0:
        r_new = project_l2_ball(state.y * (1.0 / p.beta) - (state.Ax - b), delta)
    else:
        r_new = np.zeros_like(b)
    g = A.adjoint(state.Ax + r_new - b - state.y * (1.0 / p.beta))
    thresh = p.tau / p.beta if weights is None else (p.tau / p.beta) * weights
    x_new = shrink(state.x - p.tau * g, thresh)
    Ax_new = A.apply(x_new)
    y_new = state.y - p.gamma * p.beta * (Ax_new + r_new - b)
    return PadmState(x=x_new, r=r_new, y=y_new, Ax=Ax_new, k=state.k + 1)


def padm_solve(model, A, b, opts=None):
    """Run the primal solver on a bp, bpdn, or qp model.

    Parameters
    ----------
    model : ModelSpec
        One of the three plain families. The l1/l1 and nonnegative models
        are handled by the dual solver (via reformulation and the modified
        dual projection) and are rejected here.
    A : SensingOperator
    b : array_like
        Length-m data vector.
    opts : SolverOptions, optional

    Returns
    -------
    RunRecord
        Status "converged" when the stopping rule fired, else "max_iter".
    """
    opts = opts if opts is not None else SolverOptions()
    if model.family == "l1l1":
        raise ConfigError("the l1/l1 model runs through the dual solver after reformulation")
    if model.nonneg:
        raise ConfigError("nonnegative models run through the dual solver")
    b = working_data(A, b, model)
    params = PadmParams.from_operator(A, b, model, tau=opts.tau, gamma=opts.gamma,
                                      beta=opts.beta)

    def dual(state, A):
        # The primal solver has no dual auxiliary. Under the res stop, its
        # dual residue measures the multiplier's own A* y against its
        # projection onto the dual set, at one more adjoint per iteration.
        if opts.stop != "res":
            return state.y, None, None
        Aty = A.adjoint(state.y)
        return state.y, project_dual(Aty, A, model), Aty

    zero_m = np.zeros(A.m, dtype=b.dtype)
    state = PadmState(x=np.zeros(A.n, dtype=b.dtype), r=zero_m, y=zero_m, Ax=zero_m)
    return run_solve("padm", model.describe(), model, A, b, opts, state,
                     lambda state, A: padm_step(state, A, b, params), dual=dual)
