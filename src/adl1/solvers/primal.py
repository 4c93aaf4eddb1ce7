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
state. ``padm_lanes`` solves T lanes in lockstep, each with its own data, a
``beta`` column and, for a stacked model, its own mu or delta; ``padm_solve``
is one lane.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..errors import ConfigError, StepSizeError
from ..models import ModelSpec
from ..prox import project_l2_ball, shrink
from .common import BetaSteps, SolverOptions, one_lane, project_dual, run_solve, working_data

__all__ = ["PadmParams", "PadmState", "padm_step", "padm_lanes", "padm_solve"]

DEFAULT_TAU = 0.8
DEFAULT_GAMMA = 1.199


@dataclass(frozen=True, eq=False)
class PadmParams(BetaSteps):
    """Validated step sizes for the primal solver, and the model it sweeps.

    ``model`` is the ModelSpec the step reads mu, delta and weights from.
    Build through ``from_operator`` in normal use: it fills the standard
    defaults (tau=0.8, gamma=1.199, beta=2m/||b||_1) and enforces the
    convergence guard tau lambda_max + gamma < 2. ``beta`` is a scalar, or
    a (T, 1) column of one per lane.
    """

    beta: float | np.ndarray
    gamma: float
    tau: float
    model: ModelSpec = ModelSpec.bp()

    def __post_init__(self):
        if not np.all(np.asarray(self.beta) > 0):
            raise StepSizeError(f"beta must be positive, got {self.beta}")
        if not (self.tau > 0):
            raise StepSizeError(f"tau must be positive, got {self.tau}")
        if not (0 < self.gamma < 2):
            raise StepSizeError(f"gamma must lie in (0, 2), got {self.gamma}")

    @cached_property
    def r_scale(self):
        """mu beta / (1 + mu beta), the qp r-update's factor."""
        return self.model.mu * self.beta / (1.0 + self.model.mu * self.beta)

    @cached_property
    def threshold(self):
        """tau / beta, times the model's weights if it has them."""
        thresh = self.tau / self.beta
        return thresh if self.model.weights is None else thresh * self.model.weights

    @classmethod
    def from_operator(cls, A, b, model=ModelSpec.bp(), *, tau=None, gamma=None, beta=None):
        """Fill defaults from (A, b) and run the convergence guard.

        Raises StepSizeError when tau lambda_max(A*A) + gamma >= 2.
        """
        tau = DEFAULT_TAU if tau is None else float(tau)
        gamma = DEFAULT_GAMMA if gamma is None else float(gamma)
        if beta is None:
            b_l1 = np.abs(b).sum(axis=-1, keepdims=b.ndim > 1)
            beta = 2.0 * A.m / np.where(b_l1 > 0, b_l1, 2.0 * A.m)  # 1 for a zero lane
        lam = A.lambda_max()
        if tau * lam + gamma >= 2.0:
            raise StepSizeError(
                f"step sizes violate tau*lambda_max + gamma < 2: "
                f"{tau} * {lam:.6g} + {gamma} = {tau * lam + gamma:.6g}")
        return cls(beta=beta if np.ndim(beta) else float(beta), gamma=gamma, tau=tau,
                   model=model)


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
    delta > 0, bp (r pinned at zero) otherwise. The state may hold lanes,
    its arrays (T, .), with ``p.beta`` and a stacked model's parameter
    (T, 1) columns.
    """
    fit = p.model.fidelity
    # y * (1/beta), not y / beta: see dadm_step.
    y_beta = state.y * p.beta_inv
    if fit == "qp":
        r_new = p.r_scale * (y_beta - (state.Ax - b))
    elif fit == "bpdn":
        r_new = project_l2_ball(y_beta - (state.Ax - b), p.model.delta)
    else:
        r_new = np.zeros_like(b)
    g = A.adjoint(state.Ax + r_new - b - y_beta)
    x_new = shrink(state.x - p.tau * g, p.threshold)
    Ax_new = A.apply(x_new)
    y_new = state.y - p.gamma_beta * (Ax_new + r_new - b)
    return PadmState(x=x_new, r=r_new, y=y_new, Ax=Ax_new, k=state.k + 1)


def padm_solve(model, A, b, opts=None):
    """Run the primal solver on one problem; ``padm_lanes`` with one lane.

    Returns
    -------
    RunRecord
        Status "converged" when the stopping rule fired, else "max_iter".
    """
    return padm_lanes(model, A, one_lane(b), opts)[0]


def padm_lanes(model, A, b, opts=None):
    """Run the primal solver on a bp, bpdn, or qp model, on the T lanes of
    the (T, m) data b; one RunRecord per lane.

    Parameters
    ----------
    model : ModelSpec
        One of the three plain families. The l1/l1 and nonnegative models
        are handled by the dual solver (via reformulation and the modified
        dual projection) and are rejected here.
    A : SensingOperator
        Stacked with T lanes for T >= 2 lanes of data; a single operator
        for one lane.
    b : array_like
        (T, m) data, one row per lane, or one lane's length-m vector.
    opts : SolverOptions, optional

    Returns
    -------
    list of RunRecord
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

    lead = b.shape[:-1]  # the lane axis, if any
    zero_m = np.zeros(lead + (A.m,), dtype=b.dtype)
    state = PadmState(x=np.zeros(lead + (A.n,), dtype=b.dtype), r=zero_m, y=zero_m, Ax=zero_m)
    return run_solve("padm", model, model, A, b, opts, state, padm_step, params, dual=dual)
