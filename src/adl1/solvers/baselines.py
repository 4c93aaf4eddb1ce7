"""Proximal-gradient baselines for the quadratically penalized model.

Both take ``(model, A, b, opts)`` and refuse every model but plain qp (no
weights, no nonnegativity), and the beta and gamma options: tau is their one step.

IST iterates x+ = Shrink(x - tau A*(A x - b), tau mu); FISTA adds the usual
momentum y = x + (t_prev - 1)/t (x - x_prev) with t0 = 1 and
t = (1 + sqrt(1 + 4 t_prev^2))/2, taking the gradient step from y instead.
tau = 1 is the default and is valid whenever lambda_max(A*A) <= 1.

The shrink threshold tau*mu is the one consistent with the objective
||x||_1 + ||Ax-b||^2/(2 mu).

Both run ``prox_grad_step``, with and without momentum. Momentum is applied
to the cached products as well (A y = A x + w (A x - A x_prev)), so both
methods cost one forward and one adjoint application per iteration. The
momentum scalar depends on the sweep count alone, so every lane of a
lockstep solve (``ist_lanes``, ``fista_lanes``) shares it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError
from ..prox import shrink
from .common import SolverOptions, one_lane, run_solve, working_data

__all__ = ["FistaState", "prox_grad_step", "fista_lanes", "fista_solve", "ist_lanes",
           "ist_solve"]


@dataclass
class FistaState:
    """Iterate of the accelerated proximal-gradient method.

    ``t`` holds the momentum scalar t_{k-1} (>= 1). IST shares the state
    with momentum permanently off.
    """

    x: np.ndarray
    x_prev: np.ndarray
    Ax: np.ndarray
    Ax_prev: np.ndarray
    t: float = 1.0
    k: int = 0


def prox_grad_step(state, A, b, mu, tau=1.0, accelerate=True):
    """One FISTA step of the qp model, or with ``accelerate=False`` one IST
    step (momentum weight pinned at zero). Returns a new state with t advanced."""
    if not (mu > 0):
        raise ConfigError("baseline solvers need mu > 0")
    if not (tau > 0):
        raise ConfigError("tau must be positive")
    if accelerate:
        t_new = 1.0 if state.k == 0 else (1.0 + np.sqrt(1.0 + 4.0 * state.t * state.t)) / 2.0
        w = (state.t - 1.0) / t_new
    else:
        t_new = 1.0
        w = 0.0
    y = state.x + w * (state.x - state.x_prev)
    Ay = state.Ax + w * (state.Ax - state.Ax_prev)
    grad = A.adjoint(Ay - b)
    x_new = shrink(y - tau * grad, tau * mu)
    Ax_new = A.apply(x_new)
    return FistaState(x=x_new, x_prev=state.x, Ax=Ax_new, Ax_prev=state.Ax,
                      t=t_new, k=state.k + 1)


def _baseline_lanes(name, model, A, b, opts, accelerate):
    opts = opts if opts is not None else SolverOptions()
    if model.family != "qp" or model.nonneg or model.weights is not None:
        raise ConfigError("%s solves the plain qp model only, not %s" % (name, model.describe()))
    if opts.beta is not None or opts.gamma is not None:
        raise ConfigError("%s takes no beta or gamma; its one step size is tau" % name)
    if opts.stop != "relchg":
        raise ConfigError("baseline solvers stop on relative change only")
    b = working_data(A, b, model)
    tau = 1.0 if opts.tau is None else float(opts.tau)
    lead = b.shape[:-1]  # the lane axis, if any
    zero_n, zero_m = np.zeros(lead + (A.n,), dtype=b.dtype), np.zeros(lead + (A.m,), dtype=b.dtype)
    state = FistaState(x=zero_n, x_prev=zero_n, Ax=zero_m, Ax_prev=zero_m)
    return run_solve(name, model.describe(), model, A, b, opts, state,
                     lambda state, A, b, p: prox_grad_step(state, A, b, model.mu, tau, accelerate))


def fista_lanes(model, A, b, opts=None):
    """Run FISTA on the plain qp model, min ||x||_1 + ||Ax-b||^2/(2 mu), on
    the T lanes of the (T, m) data b, or on one lane's length-m b. Returns
    one RunRecord per lane."""
    return _baseline_lanes("fista", model, A, b, opts, accelerate=True)


def ist_lanes(model, A, b, opts=None):
    """Run IST on the plain qp model, min ||x||_1 + ||Ax-b||^2/(2 mu), on
    the T lanes of the (T, m) data b, or on one lane's length-m b. Returns
    one RunRecord per lane."""
    return _baseline_lanes("ist", model, A, b, opts, accelerate=False)


def fista_solve(model, A, b, opts=None):
    """``fista_lanes`` on one problem. Returns a RunRecord."""
    return fista_lanes(model, A, one_lane(b), opts)[0]


def ist_solve(model, A, b, opts=None):
    """``ist_lanes`` on one problem. Returns a RunRecord."""
    return ist_lanes(model, A, one_lane(b), opts)[0]
