"""Lockstep lanes: a lane of ``solve_lanes`` is its solo ``solve``, bit for bit.

Each case solves T instances of one kind and shape as the lanes of one
lockstep solve and each instance alone. The lanes stop at different sweeps,
and ``max_iter`` is set below the slowest lane's solo count, so one lane
hits the cap while the others converge first and leave the batch. Every
lane must match its solo solve in the bytes of x, the iteration count,
``aat``, the status and the final diagnostics row.
"""

import numpy as np
import pytest

from adl1.errors import DimensionMismatchError
from adl1.harness import NoiseSpec, make_instance
from adl1.models import ModelSpec
from adl1.operators import stack_operators
from adl1.solvers import SolverOptions, solve, solve_lanes

# the operator kinds the harness stacks: (kind, n, m, k, field)
KINDS = {"wht": ("wht", 64, 24, 3, "real"), "dct": ("dct", 60, 24, 3, "complex")}
# every model the harness batches: the races' and model-choice's
MODELS = {"bp": ModelSpec.bp(), "bpdn": ModelSpec.bpdn(1e-3), "qp": ModelSpec.qp(1e-3),
          "l1l1": ModelSpec.l1l1(0.5)}
SUPPORTED = {"dadm": ("bp", "bpdn", "qp", "l1l1"), "padm": ("bp", "bpdn", "qp"),
             "ist": ("qp",), "fista": ("qp",)}
CASES = [(solver, kind, model, stop)
         for solver, models in SUPPORTED.items() for kind in KINDS for model in models
         for stop in (("relchg",) if solver in ("ist", "fista") else ("relchg", "res"))]


def _instances(kind, count):
    kind, n, m, k, field = KINDS[kind]
    return [make_instance(kind, n, m, k, NoiseSpec(sigma=1e-3), 500 + i, field=field)
            for i in range(count)]


def _bits(diag):
    return np.array([diag.r_p, diag.r_d, diag.gap, diag.res, diag.relchg, diag.objective,
                     diag.relerr]).tobytes()


def _assert_same(lane, alone):
    assert lane.x.dtype == alone.x.dtype and lane.x.tobytes() == alone.x.tobytes()
    assert (lane.iterations, lane.aat, lane.status) == (alone.iterations, alone.aat, alone.status)
    assert lane.aat_history == alone.aat_history
    assert len(lane.history) == len(alone.history)
    assert [_bits(d) for d in lane.history] == [_bits(d) for d in alone.history]


@pytest.mark.parametrize("solver,kind,model,stop", CASES)
def test_lanes_equal_solo_solves(solver, kind, model, stop):
    insts = _instances(kind, 3)
    tol = 1e-4
    free = [solve(solver, MODELS[model], inst.A, inst.b,
                  SolverOptions(tol=tol, max_iter=3000, stop=stop)).iterations
            for inst in insts]
    assert len(set(free)) > 1, free  # the lanes stop at different sweeps
    # below the slowest lane's count: that lane hits the cap, the rest converge
    opts = SolverOptions(tol=tol, max_iter=max(free) - 1, stop=stop)
    order = np.argsort(free, kind="stable")
    insts = [insts[order[-1]]] + [insts[i] for i in order[:-1]]  # slowest, then fastest first
    for lanes in (1, 2, 3):
        batch = insts[:lanes]
        recs = solve_lanes(solver, MODELS[model], stack_operators([inst.A for inst in batch]),
                           np.stack([inst.b for inst in batch]), opts)
        assert len(recs) == lanes
        for inst, rec in zip(batch, recs):
            _assert_same(rec, solve(solver, MODELS[model], inst.A, inst.b, opts))
        if lanes > 1:
            assert recs[0].status == "max_iter"
            assert "converged" in {rec.status for rec in recs[1:]}


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_history_lanes_equal_solo_histories(kind):
    # err-vs-opt records every sweep against the ground truth; lanes do too.
    insts = _instances(kind, 3)
    x_true = np.stack([inst.x_true for inst in insts])
    opts = SolverOptions(tol=1e-5, max_iter=400, stop="res", history=True, x_true=x_true)
    recs = solve_lanes("dadm", MODELS["l1l1"], stack_operators([inst.A for inst in insts]),
                       np.stack([inst.b for inst in insts]), opts)
    for inst, rec in zip(insts, recs):
        alone = solve("dadm", MODELS["l1l1"], inst.A, inst.b,
                      SolverOptions(tol=1e-5, max_iter=400, stop="res", history=True,
                                    x_true=inst.x_true))
        _assert_same(rec, alone)
        assert np.isfinite(rec.final().relerr)


def test_lanes_refuse_data_of_another_lane_count():
    insts = _instances("wht", 3)
    A = stack_operators([inst.A for inst in insts])
    with pytest.raises(DimensionMismatchError, match="shape"):
        solve_lanes("dadm", MODELS["qp"], A, np.stack([inst.b for inst in insts[:2]]))
    with pytest.raises(DimensionMismatchError, match="no lanes"):
        solve_lanes("dadm", MODELS["qp"], insts[0].A, np.zeros((0, A.m)))
    with pytest.raises(ValueError):
        stack_operators([insts[0].A, _instances("dct", 1)[0].A])


@pytest.mark.parametrize("solver", sorted(SUPPORTED))
def test_solves_refuse_bad_data(solver):
    # The data is checked once, before the first sweep: a nonfinite entry
    # (a NaN, an infinite imaginary part) is a plain ValueError, solo and in
    # one lane of a batch, and a misshapen b a DimensionMismatchError.
    insts = _instances("wht", 2)
    A = stack_operators([inst.A for inst in insts])
    b = np.stack([inst.b for inst in insts]).astype(np.complex128)
    for bad in (np.nan, 1j * np.inf):
        lanes = b.copy()
        lanes[1, 3] += bad
        for run in (lambda: solve(solver, MODELS["qp"], insts[1].A, lanes[1]),
                    lambda: solve_lanes(solver, MODELS["qp"], A, lanes)):
            with pytest.raises(ValueError, match="nonfinite entries") as info:
                run()
            assert info.type is ValueError
    for run in (lambda: solve(solver, MODELS["qp"], insts[0].A, b[0, :-1]),
                lambda: solve(solver, MODELS["qp"], insts[0].A, b[:1]),
                lambda: solve(solver, MODELS["qp"], A, b[0]),
                lambda: solve_lanes(solver, MODELS["qp"], A, b[:, :-1]),
                lambda: solve_lanes(solver, MODELS["qp"], insts[0].A, b)):
        with pytest.raises(DimensionMismatchError):
            run()


@pytest.mark.parametrize("model", ["qp", "l1l1"])
def test_lanes_refuse_misshapen_truth(model):
    # x_true is (T, n) for T lanes, or (n,) for one, with n the signal length
    # (not the l1/l1 augmented operator's); transposed it would be reshaped
    # into wrong rows and score every lane against the wrong truth.
    insts = _instances("wht", 2)
    A = stack_operators([inst.A for inst in insts])
    b = np.stack([inst.b for inst in insts])
    x_true = np.stack([inst.x_true for inst in insts])
    for wrong in (x_true.T, x_true[0], x_true[:, :-1]):
        with pytest.raises(DimensionMismatchError, match="x_true"):
            solve_lanes("dadm", MODELS[model], A, b, SolverOptions(x_true=wrong))
    with pytest.raises(DimensionMismatchError, match="x_true"):
        solve("dadm", MODELS[model], insts[0].A, insts[0].b, SolverOptions(x_true=x_true))
    recs = solve_lanes("dadm", MODELS[model], A, b, SolverOptions(x_true=x_true))
    alone = solve("dadm", MODELS[model], insts[0].A, insts[0].b,
                  SolverOptions(x_true=insts[0].x_true))
    assert recs[0].final().relerr == alone.final().relerr < 1.0

