"""Dual alternating-direction solver.

Works on the dual of each model and recovers the primal iterate from the
multiplier. One sweep updates z -> y -> x:

    z+ = P(A* y + x/beta)          componentwise projection, model's dual set
    y+ = model-specific update of (A z+ - (A x - b)/beta)
    x+ = x - gamma beta (z+ - A* y+)

The y-updates are exact minimizers only when A A* = I, which every partial
transform operator here satisfies; A x is then maintained by the identity
A x+ = A x - gamma beta (A z+ - y+) so each sweep costs exactly one forward
and one adjoint application. On any other operator the method is inexact:
one steepest-descent step with exact steplength replaces the y-update, at
three applications per sweep. ``dadm_step`` is the one sweep for both; the
operator's ``orthonormal_rows`` flag picks its y-update.

Each sweep reads its model from ``DadmParams.model``, a ModelSpec. The
l1/l1 model is solved as basis pursuit on the ``AugmentedOperator``
[A, nu I]/sqrt(1+nu^2): ``dadm_solve`` builds that bp ModelSpec once, with
the model's nonnegativity and its weights extended by ones. A nonnegative
model only swaps the z-projection of the operator's signal block
(``A.signal_n`` leading components) to the half-space Re(z) <= w, and the
solve clips the final output. The z-projection is ``common.project_dual``,
which the primal solver's res stop shares. Every solve starts from the zero
state.

``dadm_lanes`` solves T lanes in lockstep (``common.run_solve``), each with
its own data, a per-lane ``beta`` column and, for a stacked model, its own
mu, delta or nu (on the augmented operator); ``dadm_solve`` is one lane.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..errors import ConfigError, StepSizeError
from ..models import ModelSpec, row_norm
from ..operators import AugmentedOperator
from ..prox import shrink_l2
from .common import BetaSteps, SolverOptions, one_lane, project_dual, run_solve, working_data

__all__ = ["DadmParams", "DadmState", "GOLDEN_RATIO",
           "dadm_step", "dadm_lanes", "dadm_solve"]

GOLDEN_RATIO = (1.0 + np.sqrt(5.0)) / 2.0
DEFAULT_GAMMA = 1.618


@dataclass(frozen=True, eq=False)
class DadmParams(BetaSteps):
    """Validated step sizes for the dual solver, and the model it sweeps.

    ``model`` is the ModelSpec the steps read mu, delta, weights and
    nonneg from (for the l1/l1 model, basis pursuit on the augmented pair).
    ``beta`` is a scalar, or a (T, 1) column of one per lane.
    """

    beta: float | np.ndarray
    gamma: float
    model: ModelSpec = ModelSpec.bp()

    def __post_init__(self):
        if not np.all(np.asarray(self.beta) > 0):
            raise StepSizeError(f"beta must be positive, got {self.beta}")
        if not (0 < self.gamma < GOLDEN_RATIO):
            raise StepSizeError(
                f"gamma must lie in (0, (1+sqrt(5))/2), got {self.gamma}")

    @cached_property
    def y_scale(self):
        """beta / (mu + beta), the exact qp y-update's factor."""
        return self.beta / (self.model.mu + self.beta)

    @classmethod
    def from_operator(cls, A, b, model=ModelSpec.bp(), *, gamma=None, beta=None):
        """Fill the standard defaults: gamma=1.618, beta=||b||_1/m, per lane
        of a (T, m) b."""
        gamma = DEFAULT_GAMMA if gamma is None else float(gamma)
        if beta is None:
            b_l1 = np.abs(b).sum(axis=-1, keepdims=b.ndim > 1)
            beta = np.where(b_l1 > 0, b_l1, A.m) / A.m  # 1 for a zero lane
        return cls(beta=beta if np.ndim(beta) else float(beta), gamma=gamma, model=model)


@dataclass
class DadmState:
    """Iterate of the dual solver with its two cached products."""

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    Ax: np.ndarray
    Aty: np.ndarray
    k: int = 0


def dadm_step(state, A, b, p):
    """One sweep of the model ``p.model`` on any operator.

    The z-projection and the x-update are the same on every operator; the
    y-update is picked by ``A.orthonormal_rows``. Under A A* = I it is the
    exact minimizer, which differs by model only (qp when mu > 0, bpdn when
    delta > 0, bp otherwise), and A x follows by an identity: two
    applications per sweep. On any other operator it is one steepest-descent
    step with exact steplength, at three applications; the delta-ball model
    has no closed steplength there, so bpdn raises ConfigError. The state
    may hold lanes, its arrays (T, .), with ``p.beta`` and a stacked
    model's parameter (T, 1) columns; a
    lane whose steepest-descent step is void keeps its y while the others
    step, though the adjoint they take is counted for it too.
    """
    exact, model = A.orthonormal_rows, p.model
    fit = model.fidelity
    if not exact and fit == "bpdn":
        raise ConfigError("the steepest-descent dual step supports only the bp and qp models")
    # Division by a scalar is written as a product with its reciprocal: numpy
    # computes complex x / beta that way, so float64 iterates equal the real
    # parts of complex ones bit for bit.
    z_new = project_dual(state.Aty + state.x * p.beta_inv, A, p.model)
    if exact:
        Az = A.apply(z_new)
        v = Az - (state.Ax - b) * p.beta_inv
        if fit == "qp":
            y_new = p.y_scale * v
        elif fit == "bpdn":
            y_new = shrink_l2(v, model.delta / p.beta)
        else:
            y_new = v
        Aty_new = A.adjoint(y_new)
    else:
        mu = model.mu
        g = mu * state.y + state.Ax - b + p.beta * A.apply(state.Aty - z_new)
        g_sq = row_norm(g)[..., None] ** 2
        # y stays when g = 0, or when g lies in the null space of A* with
        # mu = 0: no curvature along it, so no bounded step.
        y_new, Aty_new = state.y, state.Aty
        if np.any(g_sq > 0.0):
            Atg = A.adjoint(g)
            denom = mu * g_sq + p.beta * row_norm(Atg)[..., None] ** 2
            steps = (g_sq > 0.0) & (denom > 0.0)
            alpha = np.where(steps, g_sq / np.where(steps, denom, 1.0), 0.0)
            y_new = np.where(steps, state.y - alpha * g, state.y)
            Aty_new = np.where(steps, state.Aty - alpha * Atg, state.Aty)
    x_new = state.x - p.gamma_beta * (z_new - Aty_new)
    # Exact under A A* = I; keeps that sweep at two applications.
    Ax_new = state.Ax - p.gamma_beta * (Az - y_new) if exact else A.apply(x_new)
    return DadmState(x=x_new, y=y_new, z=z_new, Ax=Ax_new, Aty=Aty_new, k=state.k + 1)


def dadm_solve(model, A, b, opts=None):
    """Run the dual solver on one problem; ``dadm_lanes`` with one lane.

    Returns
    -------
    RunRecord
    """
    return dadm_lanes(model, A, one_lane(b), opts)[0]


def dadm_lanes(model, A, b, opts=None):
    """Run the dual solver on any of the eight models, on the T lanes of the
    (T, m) data b (A stacked with T lanes), or on one lane's length-m b;
    one RunRecord per lane.

    The l1/l1 families are rewritten as basis pursuit on the augmented
    operator before iterating; their history rows (relative change,
    residues, objective) then describe the augmented problem, while
    ``relerr`` and the returned x are its ``signal`` block, in the original
    signal space.
    Nonnegative models clip Re(x) at zero on output.

    Each sweep is ``dadm_step``: exact on an operator with orthonormal rows,
    inexact on any other, where it takes the bp and qp models (and l1/l1,
    solved as bp) and raises ConfigError for bpdn. No dual step takes
    ``opts.tau``, so it raises ConfigError too.

    Returns
    -------
    list of RunRecord
    """
    opts = opts if opts is not None else SolverOptions()
    if opts.tau is not None:
        raise ConfigError("dadm takes no tau; its step sizes are beta and gamma")
    b = working_data(A, b, model)
    solved, op, data = model, A, b
    if model.family == "l1l1":
        op = AugmentedOperator(A, model.nu)
        data = op.data(b)
        weights = (None if model.weights is None
                   else np.concatenate([model.weights, np.ones(A.m)]))
        solved = ModelSpec.bp(nonneg=model.nonneg, weights=weights)

    params = DadmParams.from_operator(op, data, solved, gamma=opts.gamma, beta=opts.beta)
    lead = data.shape[:-1]  # the lane axis, if any
    zero_n = np.zeros(lead + (op.n,), dtype=data.dtype)
    zero_m = np.zeros(lead + (op.m,), dtype=data.dtype)
    state = DadmState(x=zero_n, y=zero_m, z=zero_n, Ax=zero_m, Aty=zero_n)
    return run_solve("dadm", model, solved, op, data, opts, state, dadm_step, params,
                     dual=lambda state, A: (state.y, state.z, state.Aty))
