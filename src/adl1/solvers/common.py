"""Shared solver plumbing: options, run records, matvec accounting, and the
one solve loop every solver runs. Every solve starts from zero."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigError, DimensionMismatchError, DivergenceError
from ..models import Diagnostics, compute_res, data_norm, relchg, relerr, residues
from ..operators import as_complex_vector
from ..prox import project_halfspace, project_linf_ball

__all__ = ["STOP_RULES", "SolverOptions", "RunRecord", "CountingOperator", "working_data",
           "project_dual", "run_solve"]

# Each stop rule names the Diagnostics field a solve compares with tol.
STOP_RULES = ("relchg", "res")


@dataclass
class SolverOptions:
    """Knobs shared by every solver.

    beta/gamma/tau default to None, meaning "use the solver's standard rule"
    (penalty from ||b||_1, steplengths from the published defaults); a solver
    raises ConfigError for one it does not use. The solve stops once the
    diagnostics field ``stop`` names is below ``tol``; each sweep computes
    that field alone. ``history=True`` records a full diagnostics row at
    every sweep; otherwise the record holds one, at the final iterate.
    ``x_true`` is optional instrumentation; each recorded row then carries
    the relative error against it (percent). Only err-vs-opt, which plots
    that error per iteration, sets either: every other caller scores the
    returned ``x``.
    """

    beta: float | None = None
    gamma: float | None = None
    tau: float | None = None
    tol: float = 1e-6
    max_iter: int = 1000
    stop: str = "relchg"
    history: bool = False
    x_true: np.ndarray | None = None

    def __post_init__(self):
        if self.stop not in STOP_RULES:
            raise ConfigError(f"stop must be one of {STOP_RULES}, got {self.stop!r}")
        if not isinstance(self.history, bool):
            raise ConfigError(f"'history' must be true or false, got {self.history!r}")
        if isinstance(self.max_iter, bool) or not isinstance(self.max_iter, (int, np.integer)):
            raise ConfigError(f"max_iter must be an integer, got {self.max_iter!r}")
        if self.max_iter < 1:
            raise ConfigError("max_iter must be at least 1")
        # Chained comparisons, so that NaN fails them too.
        if not 0 <= self.tol < np.inf:
            raise ConfigError(f"tol must be finite and nonnegative, got {self.tol}")
        for name in ("beta", "gamma", "tau"):
            value = getattr(self, name)
            if value is not None and not np.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")


@dataclass
class RunRecord:
    """Everything one solve produced.

    ``aat`` counts operator applications (forward plus adjoint) made by the
    solve loop itself, per iteration: 2 for the dual solver on an
    orthonormal-rows operator and 3 for its inexact sweep on any other; 2
    for the primal solver, plus 1 under ``stop="res"`` for the A* y its
    dual residue reads; 2 for the proximal-gradient baselines. Spectral
    setup is memoized on the operator and final-quality metrics are
    recomputed by callers, so neither is charged here. ``aat_history[k]``
    is the cumulative count after iteration k+1. With
    ``SolverOptions.history`` set, ``history[k]`` describes iterate k+1;
    otherwise ``history`` holds one row, the final iterate's, so ``final()``
    is the same either way.
    """

    solver: str
    model: str
    status: str
    iterations: int
    aat: int
    x: np.ndarray
    history: list[Diagnostics] = field(default_factory=list)
    aat_history: list[int] = field(default_factory=list)

    @property
    def converged(self):
        return self.status == "converged"

    def final(self):
        if not self.history:
            raise ValueError("run has no recorded iterations")
        return self.history[-1]

    def to_dict(self):
        """JSON-ready summary. The solution vector and history are not in it."""
        return {key: getattr(self, key)
                for key in ("solver", "model", "status", "iterations", "aat")}


class CountingOperator:
    """Wrapper that counts forward and adjoint applications.

    Every other attribute is the wrapped operator's, so spectral setup
    (``lambda_max``, memoized there) is never counted. Operators are
    immutable, so each attribute is stored on the wrapper at its first
    lookup: the sweeps read ``m`` and ``orthonormal_rows`` every time.
    """

    def __init__(self, op):
        self.op = op
        self.count = 0

    def __getattr__(self, name):
        # Dunder lookups (copy, pickle) may come before ``op`` is set.
        if name.startswith("__"):
            raise AttributeError(name)
        value = getattr(self.op, name)
        setattr(self, name, value)
        return value

    def apply(self, x):
        self.count += 1
        return self.op.apply(x)

    def adjoint(self, y):
        self.count += 1
        return self.op.adjoint(y)


def check_finite(x, y, k):
    """Raise DivergenceError if an iterate went nonfinite at iteration k.

    y is the multiplier, or None for a method without one.
    """
    if not np.isfinite(x).all():
        raise DivergenceError(f"primal iterate became nonfinite at iteration {k}")
    if y is not None and not np.isfinite(y).all():
        raise DivergenceError(f"multiplier became nonfinite at iteration {k}")


def working_data(A, b, model):
    """Validate the data b of a solve of ``model`` on A and cast it to the solve's dtype.

    The one place a solve picks its arithmetic: float64 when A is
    ``real_valued`` and b has no nonzero imaginary part, complex128
    otherwise. Every solve starts from a zero state in that dtype, and every
    sweep keeps it.

    Raises DimensionMismatchError if b is not a length-m vector or the
    model's weights are not length n, and ValueError if b has nonfinite
    entries.
    """
    if model.weights is not None and model.weights.shape[0] != A.n:
        raise DimensionMismatchError(f"weights have length {model.weights.shape[0]}, "
                                     f"but the operator has n = {A.n} columns")
    b = as_complex_vector(b, A.m)
    if A.real_valued and not np.any(b.imag):
        return b.real.copy()
    return b


def project_dual(v, A, model):
    """Project v onto the dual set of ``model``, componentwise: Re(z) <= w on
    A's signal block (its ``signal_n`` leading entries) if the model is
    nonnegative, |z| <= w everywhere else; w is the model's weights, or 1."""
    w = 1.0 if model.weights is None else model.weights
    if not model.nonneg:
        return project_linf_ball(v, w)
    k = A.signal_n
    if k >= v.shape[0]:
        return project_halfspace(v, w)
    w_head = w if np.ndim(w) == 0 else w[:k]
    w_tail = w if np.ndim(w) == 0 else w[k:]
    return np.concatenate([project_halfspace(v[:k], w_head),
                           project_linf_ball(v[k:], w_tail)])


def run_solve(solver, label, model, A, b, opts, state, step, *, dual=None):
    """Run the solve loop shared by every solver and return its RunRecord.

    Each sweep steps, checks that the new iterate and multiplier are finite
    (DivergenceError otherwise), computes the one diagnostics field
    ``opts.stop`` names, records the running ``aat``, and stops when that
    field is below ``opts.tol`` or after ``opts.max_iter`` sweeps. The field
    is ``relchg`` alone, or under ``stop="res"`` the ``residues`` (the gap
    only when mu > 0): the functions ``compute_res`` calls, so it equals the
    full row's bit for bit. ``compute_res`` builds one full row at the final
    iterate, or one per sweep under ``opts.history``. Given
    ``opts.x_true`` (only err-vs-opt passes it), each recorded row's
    ``relerr`` is the error of the sweep's signal estimate ``A.signal(x)``
    against it.

    Parameters
    ----------
    solver, label : str
        The solver's name and the caller's model label, written into the
        record.
    model : ModelSpec
        The model the iteration solves: the caller's, or for the l1/l1
        model the basis pursuit on the augmented pair. The diagnostics read
        its terms, and its ``nonneg`` clips the returned signal.
    A, b
        Operator and data the iteration works on (the augmented pair for
        the l1/l1 model). A is wrapped here to count applications, and its
        ``signal`` maps an iterate to the signal estimate. b comes from
        ``working_data``; the iterates take its dtype.
    opts : SolverOptions
    state
        The zero state in b's dtype. Every state carries the iterate ``x``,
        its cached product ``Ax`` and the sweep count ``k``.
    step : callable
        ``step(state, A)`` returns the next state.
    dual : callable, optional
        ``dual(state, A)`` returns ``(y, z, Aty)``, the multiplier, the dual
        auxiliary and A* y; z and Aty may be None, leaving the dual residue,
        gap and res NaN. Omitted for a method without a multiplier.

    The record's x is the signal estimate of the last iterate, clipped at
    zero for a nonnegative model, in complex128 whatever the working dtype.
    """
    counting = CountingOperator(A)
    # Once per solve, so a zero-data warning fires once, not every sweep.
    b_norm = None if dual is None else data_norm(b)

    def row(state, x_prev, y, z, Aty):
        diag = compute_res(state.x, y, z, counting, b, model,
                           Ax=state.Ax, Aty=Aty, x_prev=x_prev, b_norm=b_norm)
        if opts.x_true is not None:
            diag.relerr = relerr(A.signal(state.x), opts.x_true)
        return diag

    def stop_field(state, x_prev, y, z, Aty):
        if opts.stop == "relchg":
            return relchg(state.x, x_prev)
        return residues(state.x, y, z, counting, b, model, misfit=state.Ax - b, Aty=Aty,
                        b_norm=b_norm)[3]

    history, aat_history = [], []
    status = "max_iter"
    for _ in range(opts.max_iter):
        x_prev = state.x
        state = step(state, counting)
        y, z, Aty = (None, None, None) if dual is None else dual(state, counting)
        check_finite(state.x, y, state.k)
        if opts.history:
            history.append(row(state, x_prev, y, z, Aty))
        aat_history.append(counting.count)
        if stop_field(state, x_prev, y, z, Aty) < opts.tol:
            status = "converged"
            break
    if not opts.history:
        history.append(row(state, x_prev, y, z, Aty))

    x = A.signal(state.x)
    x = np.maximum(x.real, 0.0) if model.nonneg else x
    return RunRecord(solver=solver, model=label, status=status, iterations=state.k,
                     aat=counting.count, x=x.astype(np.complex128, copy=False),
                     history=history, aat_history=aat_history)
