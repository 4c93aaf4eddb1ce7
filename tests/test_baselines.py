"""Proximal-gradient baselines: momentum law, thresholds, accounting."""

import dataclasses

import numpy as np
import pytest

import adl1.solvers
from adl1.errors import ConfigError
from adl1.models import ModelSpec
from adl1.operators import make_operator
from adl1.prox import shrink
from adl1.solvers import SOLVERS, solve
from adl1.solvers.baselines import FistaState, fista_solve, ist_solve, prox_grad_step
from adl1.solvers.common import SolverOptions
from adl1.solvers.dual import dadm_solve

from oracles import materialize, qp_oracle

# First momentum scalars of the t-recursion t+ = (1 + sqrt(1 + 4 t^2)) / 2.
T_SEQUENCE = (1.0, 1.618033988749895, 2.193527085331054)


def _instance(rng, m=10, n=24, k=4):
    op = make_operator("orthgauss", n, m, rng)
    x = np.zeros(n, dtype=np.complex128)
    x[rng.choice(n, k, replace=False)] = rng.standard_normal(k)
    b = op.apply(x) + 0.01 * rng.standard_normal(m)
    return op, b


def test_momentum_scalar_sequence(rng):
    op, b = _instance(rng)
    state = FistaState(x=np.zeros(op.n, np.complex128), x_prev=np.zeros(op.n, np.complex128),
                       Ax=np.zeros(op.m, np.complex128), Ax_prev=np.zeros(op.m, np.complex128))
    seen = []
    for _ in range(3):
        state = prox_grad_step(state, op, b, mu=0.1)
        seen.append(state.t)
    for got, want in zip(seen, T_SEQUENCE):
        assert got == pytest.approx(want, abs=1e-15)


def test_fista_step_matches_explicit_formula(rng):
    op, b = _instance(rng)
    x_prev = rng.standard_normal(op.n).astype(np.complex128)
    x = rng.standard_normal(op.n).astype(np.complex128)
    t_prev = T_SEQUENCE[1]
    state = FistaState(x=x, x_prev=x_prev, t=t_prev, k=2,
                       Ax=op.apply(x), Ax_prev=op.apply(x_prev))
    mu = 0.2
    new = prox_grad_step(state, op, b, mu=mu)
    t_new = (1.0 + np.sqrt(1.0 + 4.0 * t_prev ** 2)) / 2.0
    w = (t_prev - 1.0) / t_new
    y = x + w * (x - x_prev)
    x_ref = shrink(y - op.adjoint(op.apply(y) - b), mu)
    assert new.t == pytest.approx(t_new, abs=1e-15)
    assert np.allclose(new.x, x_ref, atol=1e-13)
    assert new.x_prev is x


def test_ist_step_has_no_momentum(rng):
    op, b = _instance(rng)
    x_prev = rng.standard_normal(op.n).astype(np.complex128)
    x = rng.standard_normal(op.n).astype(np.complex128)
    state = FistaState(x=x, x_prev=x_prev, t=5.0, k=3,
                       Ax=op.apply(x), Ax_prev=op.apply(x_prev))
    mu = 0.2
    new = prox_grad_step(state, op, b, mu=mu, accelerate=False)
    x_ref = shrink(x - op.adjoint(op.apply(x) - b), mu)
    assert np.allclose(new.x, x_ref, atol=1e-13)
    assert new.t == 1.0  # momentum weight stays pinned at zero


def test_accelerated_beats_plain_at_fixed_budget(rng):
    for _ in range(5):
        op, b = _instance(rng)
        mu = 0.05
        opts = lambda: SolverOptions(max_iter=200, tol=0.0)
        run_f = fista_solve(ModelSpec.qp(mu), op, b, opts())
        run_i = ist_solve(ModelSpec.qp(mu), op, b, opts())
        assert run_f.final().objective <= run_i.final().objective * (1 + 1e-12)


def test_both_reach_enumeration_optimum(rng):
    m, n = 4, 8
    op = make_operator("orthgauss", n, m, rng)
    a = materialize(op).real
    b = rng.standard_normal(m)
    mu = 0.3
    x_star, val = qp_oracle(a, b, mu)
    run_f = fista_solve(ModelSpec.qp(mu), op, b.astype(np.complex128),
                        SolverOptions(tol=1e-14, max_iter=20000))
    run_i = ist_solve(ModelSpec.qp(mu), op, b.astype(np.complex128),
                      SolverOptions(tol=1e-14, max_iter=20000))
    for run in (run_f, run_i):
        assert np.linalg.norm(run.x - x_star) <= 1e-6 * max(1.0, np.linalg.norm(x_star))
        assert run.final().objective == pytest.approx(val, rel=1e-9)


def test_plain_variant_descends_monotonically(rng):
    # tau = 1 = 1/lambda_max majorizes the smooth part, so the plain
    # iteration never increases the objective.
    op, b = _instance(rng, m=12, n=30, k=5)
    run = ist_solve(ModelSpec.qp(0.1), op, b, SolverOptions(max_iter=300, tol=0.0, history=True))
    objs = np.array([h.objective for h in run.history])
    assert np.all(np.diff(objs) <= 1e-12 * np.maximum(1.0, objs[:-1]))


def test_res_stop_is_rejected(rng):
    op, b = _instance(rng)
    with pytest.raises(ConfigError):
        ist_solve(ModelSpec.qp(0.1), op, b, SolverOptions(stop="res"))
    with pytest.raises(ConfigError):
        fista_solve(ModelSpec.qp(0.1), op, b, SolverOptions(stop="res"))
    with pytest.raises(ConfigError):
        ist_solve(ModelSpec.qp(0.0), op, b)
    with pytest.raises(ConfigError):
        ist_solve(ModelSpec.qp(0.1), op, b, SolverOptions(tau=-1.0))


def test_solve_rejects_models_the_baselines_do_not_solve(rng):
    op, b = _instance(rng)
    w = np.full(op.n, 2.0)
    for name, fn in (("ist", ist_solve), ("fista", fista_solve)):
        assert solve(name, ModelSpec.qp(0.1), op, b).solver == name
        for model in (ModelSpec.qp(0.1, nonneg=True), ModelSpec.qp(0.1, weights=w),
                      ModelSpec.qp(0.1, nonneg=True, weights=w), ModelSpec.bp()):
            with pytest.raises(ConfigError, match="plain qp model only"):
                solve(name, model, op, b)
            # a direct call takes the same check
            with pytest.raises(ConfigError, match="plain qp model only"):
                fn(model, op, b)
    with pytest.raises(ConfigError, match="padm, dadm, ist, fista"):
        solve("admm", ModelSpec.qp(0.1), op, b)


def test_solve_runs_the_named_solver_bit_for_bit(rng):
    op, b = _instance(rng)
    model = ModelSpec.qp(0.05)
    for name in SOLVERS:
        opts = SolverOptions(max_iter=25, history=True)
        direct = getattr(adl1.solvers, name + "_solve")(model, op, b, opts)
        via = solve(name, model, op, b, opts)
        assert (via.solver, via.status, via.iterations, via.aat) == \
            (name, direct.status, direct.iterations, direct.aat)
        assert np.array_equal(via.x.view(np.int64), direct.x.view(np.int64))
        assert via.aat_history == direct.aat_history
        rows = [np.array([dataclasses.astuple(h) for h in r.history]).view(np.int64)
                for r in (via, direct)]
        assert rows[0].shape == (direct.iterations, 7) and np.array_equal(*rows)


def test_matvec_accounting(rng):
    op, b = _instance(rng)
    run = ist_solve(ModelSpec.qp(0.1), op, b, SolverOptions(max_iter=9, tol=0.0))
    assert run.aat == 2 * 9
    assert run.aat_history == [2 * (k + 1) for k in range(9)]
    run2 = fista_solve(ModelSpec.qp(0.1), op, b, SolverOptions(max_iter=9, tol=0.0))
    assert run2.aat == 2 * 9
    assert run2.solver == "fista"
    assert run2.model == "qp(mu=0.1)"


def test_momentum_on_cached_products_stays_consistent(rng):
    # The cached A x recursion must track a fresh evaluation over many steps.
    op = make_operator("wht", 64, 24, rng)
    x = np.zeros(64, dtype=np.complex128)
    x[rng.choice(64, 5, replace=False)] = rng.standard_normal(5)
    b = op.apply(x)
    state = FistaState(x=np.zeros(64, np.complex128), x_prev=np.zeros(64, np.complex128),
                       Ax=np.zeros(24, np.complex128), Ax_prev=np.zeros(24, np.complex128))
    for _ in range(100):
        state = prox_grad_step(state, op, b, mu=0.05)
        drift = np.linalg.norm(state.Ax - op.apply(state.x))
        assert drift <= 1e-12 * max(1.0, np.linalg.norm(state.Ax))


def test_objective_tracks_dual_solver_reference(rng):
    op, b = _instance(rng, m=16, n=40, k=6)
    mu = 0.05
    ref = dadm_solve(ModelSpec.qp(mu), op, b, SolverOptions(stop="res", tol=1e-12, max_iter=50000))
    run = fista_solve(ModelSpec.qp(mu), op, b, SolverOptions(tol=1e-14, max_iter=10000))
    f_ref = ref.final().objective
    assert run.final().objective <= f_ref * (1 + 1e-4)
