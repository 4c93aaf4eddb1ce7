"""Shared solver plumbing: options, run records, matvec accounting, and the
one solve loop every solver runs. Every solve starts from zero.

The loop runs lanes: T problems that share a model, a solver, options and
an operator kind and shape (a stacked operator: one matrix per lane),
each with its own data b, swept in lockstep as the rows of (T, .) arrays.
Every step is lane by lane: elementwise, the transforms of a stacked
operator, and the reductions (norms, l1 norms, the gap's inner product),
each one batched call over all rows whose value for a row has the bits of
the 1-D call on that row alone (``models.row_norm``). A lane that stops, or
reaches ``max_iter``, freezes: its record is built at its own sweep and it
leaves the batch (compaction), so the rest sweep fewer rows. So each lane's
x, iterations, ``aat``, status and diagnostics rows have the bits a solo
solve of its problem gives. A batch of one lane holds no lane axis: its
arrays are 1-D and its per-lane values numpy scalars, which spares it
numpy's broadcasting loops. A solo solve is that one-lane case of the same
loop. The experiment harness batches a cell's trials, at most
``harness.LANE_ENTRIES // n`` lanes at a time, and gives each lane the
share of the batch's wall time that its sweeps are of the batch's
lane-sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from functools import cached_property

import numpy as np

from ..errors import ConfigError, DimensionMismatchError, DivergenceError
from ..models import Diagnostics, compute_res, data_norm, relchg, relerr, residues
from ..prox import project_halfspace, project_linf_ball

__all__ = ["STOP_RULES", "SolverOptions", "RunRecord", "CountingOperator", "working_data",
           "one_lane", "BetaSteps", "take_lanes", "project_dual", "run_solve"]

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
    ``x_true`` is optional instrumentation, a length-n vector for one lane,
    or (T, n) for T lanes; each recorded row then carries the relative error
    against it (percent). Only err-vs-opt, which plots that error per
    iteration, sets either: every other caller scores the returned ``x``.
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
    One call maps every lane, so ``count`` is each active lane's count.
    """

    def __init__(self, op, count=0):
        self.op = op
        self.count = count

    def take(self, lanes):
        """A counter over ``op.take(lanes)`` that goes on from this count."""
        return CountingOperator(self.op.take(lanes), self.count)

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
    """Raise DivergenceError if an iterate went nonfinite at iteration k, in
    any lane.

    y is the multiplier, or None for a method without one.
    """
    if not np.isfinite(x).all():
        raise DivergenceError(f"primal iterate became nonfinite at iteration {k}")
    if y is not None and not np.isfinite(y).all():
        raise DivergenceError(f"multiplier became nonfinite at iteration {k}")


def one_lane(b):
    """The data b of a solo solve, the one lane a ``<name>_solve`` hands its
    ``<name>_lanes`` (``working_data`` checks it); DimensionMismatchError
    unless b is 1-D."""
    if np.ndim(b) != 1:
        raise DimensionMismatchError(f"a solo solve needs 1-D data, got shape {np.shape(b)}")
    return b


class BetaSteps:
    """1/beta and gamma beta of a step-parameters dataclass with ``beta`` and
    ``gamma``, computed once per batch rather than at every sweep, and the
    parameters of some of its lanes."""

    def take(self, keep):
        """The parameters of the lanes that ``keep`` selects (see
        ``take_lanes``); one lane's ``beta`` is a float."""
        if np.ndim(self.beta) == 0:
            return self
        beta = self.beta[keep]
        return replace(self, beta=beta if beta.ndim == 2 else float(beta[0]))

    @cached_property
    def beta_inv(self):
        return 1.0 / self.beta

    @cached_property
    def gamma_beta(self):
        return self.gamma * self.beta


def take_lanes(obj, keep):
    """A state with each array field cut to the lanes that the mask or index
    array ``keep`` selects, or for an integer to that one lane, without its
    lane axis; every array field of a state has one."""
    return replace(obj, **{f.name: getattr(obj, f.name)[keep] for f in fields(obj)
                           if isinstance(getattr(obj, f.name), np.ndarray)})


def working_data(A, b, model):
    """Validate the data b of a solve of ``model`` on A, (T, m) for a T-lane
    stacked A and (m,), or (1, m) made 1-D, for any other, and cast it to
    the solve's dtype.

    The one place a solve picks its arithmetic: float64 when A is
    ``real_valued`` and no lane of b has a nonzero imaginary part,
    complex128 otherwise. Every solve starts from a zero state in that
    dtype, and every sweep keeps it.

    Raises DimensionMismatchError if b has another shape or the model's
    weights are not length n, and ValueError if b has nonfinite entries.
    """
    if model.weights is not None and model.weights.shape[0] != A.n:
        raise DimensionMismatchError(f"weights have length {model.weights.shape[0]}, "
                                     f"but the operator has n = {A.n} columns")
    b = np.asarray(b)
    if b.ndim == 2 and len(b) == 0:
        raise DimensionMismatchError(f"the data holds no lanes: shape {b.shape}")
    if b.ndim == 2 and len(b) == 1 and A.lanes is None:
        b = b[0]
    want = (A.lanes, A.m) if A.lanes else (A.m,)
    if b.shape != want:
        raise DimensionMismatchError(f"the data needs shape {want}, got {b.shape}")
    b = np.asarray(b, dtype=np.complex128)
    if not np.isfinite(b).all():
        raise ValueError("the data contains nonfinite entries")
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
    if k >= v.shape[-1]:
        return project_halfspace(v, w)
    w_head = w if np.ndim(w) == 0 else w[:k]
    w_tail = w if np.ndim(w) == 0 else w[k:]
    return np.concatenate([project_halfspace(v[..., :k], w_head),
                           project_linf_ball(v[..., k:], w_tail)], axis=-1)


def run_solve(solver, label, model, A, b, opts, state, step, params=None, *, dual=None):
    """Run the solve loop shared by every solver on T lanes and return one
    RunRecord per lane, in lane order.

    Each sweep steps every active lane, checks that the new iterates and
    multipliers are finite (DivergenceError otherwise), records the running
    ``aat``, computes the one diagnostics field ``opts.stop`` names for all
    active lanes in one call, and freezes each lane whose field is below
    ``opts.tol``, and every lane after ``opts.max_iter`` sweeps. The field
    is ``relchg`` alone, or under ``stop="res"`` the ``residues`` (the gap
    only when mu > 0): the functions ``compute_res`` calls, whose batched
    reductions give each lane the bits of its 1-D row, so the field equals
    the full row's bit for bit. ``compute_res`` builds one full row at a
    lane's final iterate, or one per sweep under ``opts.history``. Given
    ``opts.x_true`` (only err-vs-opt passes it), each recorded row's
    ``relerr`` is the error of the sweep's signal estimate ``A.signal(x)``
    against it; an ``x_true`` of any other shape than (T, n), or (n,) for
    one lane, with n = ``A.signal_n``, raises DimensionMismatchError before
    the first sweep. Frozen lanes leave the batch: the state, b, its norms,
    the array fields of ``params`` and A (``take``) keep the active lanes
    only.

    A batch of one lane, from the start or after compaction, holds no lane
    axis (see the module docstring).

    Parameters
    ----------
    solver, label : str
        The solver's name and the caller's model label, written into the
        records.
    model : ModelSpec
        The model the iteration solves: the caller's, or for the l1/l1
        model the basis pursuit on the augmented pair. The diagnostics read
        its terms, and its ``nonneg`` clips the returned signal.
    A, b
        Operator and (T, m) or one lane's (m,) data the iteration works on
        (the augmented pair for the l1/l1 model). A is wrapped here to count
        applications, and its ``signal`` maps an iterate to the signal
        estimate. b comes from ``working_data``; the iterates take its dtype.
    opts : SolverOptions
    state
        The zero state in b's dtype, its arrays with b's lane axis. Every
        state carries the iterate ``x``, its cached product ``Ax`` and the
        sweep count ``k``, which all active lanes share.
    step : callable
        ``step(state, A, b, params)`` returns the next state.
    params
        The step parameters, with a ``take`` method (``BetaSteps``), or None.
    dual : callable, optional
        ``dual(state, A)`` returns ``(y, z, Aty)``, the multiplier, the dual
        auxiliary and A* y; z and Aty may be None, leaving the dual residue,
        gap and res NaN. Omitted for a method without a multiplier.

    A record's x is the signal estimate of its lane's last iterate, clipped
    at zero for a nonnegative model, in complex128 whatever the working
    dtype.
    """
    counting = CountingOperator(A)
    lanes = len(b) if b.ndim == 2 else 1
    # Once per solve, so a zero-data warning fires once, not every sweep.
    b_norm = None if dual is None else data_norm(b)
    x_true = None
    if opts.x_true is not None:
        shape, n = np.shape(opts.x_true), A.signal_n
        if shape != (lanes, n) and not (lanes == 1 and shape == (n,)):
            raise DimensionMismatchError(f"x_true of {lanes} lane(s) needs shape ({lanes}, {n}), "
                                         f"got {shape}")
        x_true = np.reshape(opts.x_true, (lanes, n))
    ids = list(range(lanes))  # the lane each row of the batch holds
    histories = [[] for _ in range(lanes)]
    aat_history = []  # the active lanes share their counts
    records = [None] * lanes

    def lane(v, i):
        return v if v is None or b.ndim == 1 else v[i]

    def row(i):
        diag = compute_res(lane(state.x, i), lane(y, i), lane(z, i), counting, lane(b, i), model,
                           Ax=lane(state.Ax, i), Aty=lane(Aty, i), x_prev=lane(x_prev, i),
                           b_norm=lane(b_norm, i))
        if x_true is not None:
            diag.relerr = relerr(A.signal(lane(state.x, i)), x_true[ids[i]])
        return diag

    for sweep in range(1, opts.max_iter + 1):
        x_prev = state.x
        state = step(state, counting, b, params)
        y, z, Aty = (None, None, None) if dual is None else dual(state, counting)
        check_finite(state.x, y, state.k)
        aat_history.append(counting.count)
        if opts.history:
            for i, lane_id in enumerate(ids):
                histories[lane_id].append(row(i))
        if opts.stop == "relchg":
            stop_value = relchg(state.x, x_prev)
        else:
            stop_value = residues(state.x, y, z, counting, b, model, misfit=state.Ax - b,
                                  Aty=Aty, b_norm=b_norm)[3]
        done = stop_value < opts.tol
        last = sweep == opts.max_iter
        # count_nonzero takes a lone lane's numpy bool faster than any().
        if not (last or np.count_nonzero(done)):
            continue
        done = np.atleast_1d(done)
        for i, lane_id in enumerate(ids):
            if not (done[i] or last):
                continue
            if not opts.history:
                histories[lane_id].append(row(i))
            x = A.signal(lane(state.x, i))
            x = np.maximum(x.real, 0.0) if model.nonneg else x
            records[lane_id] = RunRecord(
                solver=solver, model=label, status="converged" if done[i] else "max_iter",
                iterations=state.k, aat=counting.count, x=x.astype(np.complex128, copy=False),
                history=histories[lane_id], aat_history=list(aat_history))
        if last or done.all():
            return records
        keep = [i for i, stopped in enumerate(done) if not stopped]
        ids = [ids[i] for i in keep]
        # A lone lane left sheds the lane axis.
        keep = keep[0] if len(keep) == 1 else np.array(keep)
        b, state, counting = b[keep], take_lanes(state, keep), counting.take(keep)
        if b_norm is not None:
            b_norm = b_norm[keep]
        if params is not None:
            params = params.take(keep)
