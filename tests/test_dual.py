"""Dual alternating-direction solver: guards, residual law, oracle checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adl1.errors import ConfigError, DimensionMismatchError, StepSizeError
from adl1.harness import NoiseSpec, make_instance
from adl1.models import ModelSpec, relerr
from adl1.operators import AugmentedOperator, DenseOperator, make_operator
from adl1.solvers import solve
from adl1.solvers.common import SolverOptions
from adl1.solvers.dual import (
    GOLDEN_RATIO,
    DadmParams,
    DadmState,
    dadm_solve,
    dadm_step,
)

from oracles import (
    bp_oracle,
    bpdn_subgradient_oracle,
    l1_lp_oracle,
    l1l1_oracle,
    materialize,
    objective_value,
    qp_oracle,
)


def _zero_state(m, n):
    return DadmState(x=np.zeros(n, np.complex128), y=np.zeros(m, np.complex128),
                     z=np.zeros(n, np.complex128), k=0,
                     Ax=np.zeros(m, np.complex128), Aty=np.zeros(n, np.complex128))


def _sparse_instance(op, k, rng):
    x = np.zeros(op.n, dtype=np.complex128)
    idx = rng.choice(op.n, k, replace=False)
    x[idx] = rng.standard_normal(k)
    return x, op.apply(x)


def test_default_parameters(rng):
    op = make_operator("wht", 32, 8, rng)
    b = rng.standard_normal(8).astype(np.complex128)
    p = DadmParams.from_operator(op, b)
    assert p.gamma == 1.618
    assert p.beta == pytest.approx(np.sum(np.abs(b)) / 8)
    assert DadmParams.from_operator(op, np.zeros(8, np.complex128)).beta == 1.0


def test_gamma_bound_is_strict():
    with pytest.raises(StepSizeError):
        DadmParams(beta=1.0, gamma=GOLDEN_RATIO)
    with pytest.raises(StepSizeError):
        DadmParams(beta=1.0, gamma=1.62)
    with pytest.raises(StepSizeError):
        DadmParams(beta=1.0, gamma=0.0)
    DadmParams(beta=1.0, gamma=GOLDEN_RATIO - 1e-9)
    with pytest.raises(StepSizeError):
        DadmParams(beta=0.0, gamma=1.0)


@pytest.mark.parametrize("kind,n,m", [("wht", 64, 16), ("dct", 50, 14)],
                         ids=["make_partial_wht-64-16", "make_partial_dct-50-14"])
@pytest.mark.parametrize("gamma", [0.5, 1.0, 1.3])
def test_equality_residual_contracts_geometrically(kind, n, m, gamma, rng):
    # One sweep scales the equality residual by exactly (1 - gamma).
    op = make_operator(kind, n, m, rng)
    _, b = _sparse_instance(op, 5, rng)
    r0 = float(np.linalg.norm(b))
    p = DadmParams.from_operator(op, b, gamma=gamma)
    state = _zero_state(m, n)
    for k in range(1, 25):
        state = dadm_step(state, op, b, p)
        measured = float(np.linalg.norm(op.apply(state.x) - b))
        predicted = abs(1.0 - gamma) ** k * r0
        if gamma == 1.0:
            assert measured <= 1e-12 * r0
        elif predicted >= 1e-5 * r0:
            # Below 1e-5 r0 the fresh recomputation's rounding noise
            # dominates the comparison; the large-instance law check in the
            # acceptance suite pushes the window further down.
            assert abs(measured - predicted) <= 1e-10 * predicted


def test_dual_iterate_stays_in_unit_ball(rng):
    op = make_operator("wht", 64, 20, rng)
    _, b = _sparse_instance(op, 6, rng)
    p = DadmParams.from_operator(op, b)
    state = _zero_state(20, 64)
    for _ in range(30):
        state = dadm_step(state, op, b, p)
        assert np.all(np.abs(state.z) <= 1.0 + 1e-12)


def test_weighted_dual_ball_and_halfspace(rng):
    op = make_operator("wht", 32, 12, rng)
    _, b = _sparse_instance(op, 4, rng)
    w = rng.uniform(0.5, 2.0, size=32)
    p = DadmParams.from_operator(op, b, ModelSpec.bp(weights=w))
    state = _zero_state(12, 32)
    for _ in range(20):
        state = dadm_step(state, op, b, p)
        assert np.all(np.abs(state.z) <= w * (1 + 1e-12))
    p2 = DadmParams.from_operator(op, b, ModelSpec.bp(nonneg=True))
    state = _zero_state(12, 32)
    for _ in range(20):
        state = dadm_step(state, op, b, p2)
        assert np.all(state.z.real <= 1.0 + 1e-12)


def test_unit_weights_match_unweighted_bitwise(rng):
    op = make_operator("wht", 64, 20, rng)
    _, b = _sparse_instance(op, 5, rng)
    opts = SolverOptions(max_iter=50, tol=0.0)
    run_w = dadm_solve(ModelSpec.bp(weights=np.ones(64)), op, b, opts)
    run_u = dadm_solve(ModelSpec.bp(), op, b, opts)
    assert np.array_equal(run_w.x, run_u.x)


WRONG_LENGTH_WEIGHTS = [("padm", ModelSpec.qp(1e-3, weights=[2.0])),
                        ("padm", ModelSpec.bp(weights=[2.0])),
                        ("dadm", ModelSpec.qp(1e-3, weights=[2.0])),
                        ("dadm", ModelSpec.bp(weights=[2.0])),
                        ("dadm", ModelSpec.l1l1(0.5, weights=[2.0]))]


@pytest.mark.parametrize("solver,model", WRONG_LENGTH_WEIGHTS,
                         ids=lambda v: v if isinstance(v, str) else v.family)
def test_wrong_length_weights_fail_before_the_first_sweep(rng, solver, model):
    # The l1/l1 solve iterates on [A, nu I] (length n + m); the error names
    # the user's lengths, 1 against n = 64.
    op = make_operator("wht", 64, 20, rng)
    _, b = _sparse_instance(op, 5, rng)

    def swept(v):
        raise AssertionError("the solve applied the operator")

    op.apply = op.adjoint = swept
    with pytest.raises(DimensionMismatchError, match=r"length 1, but the operator has n = 64 "):
        solve(solver, model, op, b)


def test_bp_matches_vertex_oracle(rng):
    found = 0
    attempt = 0
    while found < 6 and attempt < 40:
        attempt += 1
        m, n = 5, 9
        op = make_operator("orthgauss", n, m, rng)
        a = materialize(op).real
        x_true = np.zeros(n)
        x_true[rng.choice(n, 2, replace=False)] = rng.standard_normal(2)
        b = a @ x_true
        x_star, val, unique = bp_oracle(a, b)
        if not unique:
            continue
        # Near-degenerate vertices (tiny nonzeros) are minimizers that first
        # order methods approach arbitrarily slowly; keep generic instances.
        nz = np.abs(x_star[np.abs(x_star) > 1e-12])
        if nz.size == 0 or nz.min() < 5e-3:
            continue
        found += 1
        run = dadm_solve(ModelSpec.bp(), op, b.astype(np.complex128),
                         SolverOptions(tol=1e-12, max_iter=30000))
        assert run.converged
        assert np.linalg.norm(run.x - x_star) <= 1e-5
    assert found == 6


def test_qp_matches_enumeration_oracle(rng):
    for _ in range(5):
        m, n = 4, 8
        op = make_operator("orthgauss", n, m, rng)
        a = materialize(op).real
        b = rng.standard_normal(m)
        mu = 0.3
        x_star, val = qp_oracle(a, b, mu)
        run = dadm_solve(ModelSpec.qp(mu), op, b.astype(np.complex128),
                         SolverOptions(tol=1e-13, max_iter=30000))
        assert np.linalg.norm(run.x - x_star) <= 1e-6 * max(1.0, np.linalg.norm(x_star))
        assert run.final().objective == pytest.approx(val, rel=1e-8)


def test_bpdn_agrees_with_subgradient_oracle(rng):
    for _ in range(2):
        m, n = 5, 11
        op = make_operator("orthgauss", n, m, rng)
        a = materialize(op).real
        x_true = np.zeros(n)
        x_true[rng.choice(n, 2, replace=False)] = rng.standard_normal(2)
        b = a @ x_true + 0.05 * rng.standard_normal(m)
        delta = 0.4 * np.linalg.norm(b - a @ x_true) + 0.02
        x_oracle, f_oracle = bpdn_subgradient_oracle(a, b, delta)
        run = dadm_solve(ModelSpec.bpdn(delta), op, b.astype(np.complex128),
                         SolverOptions(tol=1e-13, max_iter=60000))
        f_solver = float(np.abs(run.x).sum())
        # The solver must be feasible and no worse than the independent
        # subgradient witness, which itself is O(1/sqrt(k)) accurate.
        assert np.linalg.norm(op.apply(run.x) - b) <= delta + 1e-10
        assert f_solver <= f_oracle * (1 + 1e-6)
        assert np.linalg.norm(run.x - x_oracle) <= 5e-3


def test_l1l1_objective_matches_lp_oracle(rng):
    for nu in (0.4, 0.9):
        m, n = 4, 8
        op = make_operator("orthgauss", n, m, rng)
        a = materialize(op).real
        x_true = np.zeros(n)
        x_true[rng.choice(n, 2, replace=False)] = rng.standard_normal(2)
        b = a @ x_true
        b[1] += 0.5  # one corrupted measurement
        model = ModelSpec.l1l1(nu)
        _, f_oracle, _ = l1l1_oracle(a, b, nu)
        run = dadm_solve(model, op, b.astype(np.complex128),
                         SolverOptions(stop="res", tol=1e-12, max_iter=50000))
        f_solver = objective_value(model, op, b.astype(np.complex128), run.x)
        assert f_solver == pytest.approx(f_oracle, rel=1e-5)
        assert run.x.shape == (n,)


@pytest.mark.parametrize("nu", [0.2, 0.5])
def test_l1l1_objective_matches_highs_on_partial_dct(nu):
    # The operator kind and noise rule of acceptance criterion 4, at a size
    # enumeration cannot reach: nu = 0.2 lies below the recovery window,
    # nu = 0.5 inside it. Either way dadm must solve the stated model.
    inst = make_instance("dct", 200, 60, 12, NoiseSpec(impulse_fraction=0.05), 0, field="real")
    a = materialize(inst.A).real
    b = inst.b.real
    _, f_oracle = l1_lp_oracle(a, b, nu=nu)
    run = dadm_solve(ModelSpec.l1l1(nu), inst.A, inst.b,
                     SolverOptions(stop="res", tol=1e-10, max_iter=50000))
    assert run.converged
    f_solver = float(np.abs(run.x).sum() + np.abs(a @ run.x - b).sum() / nu)
    assert f_solver == pytest.approx(f_oracle, rel=1e-6)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(m=st.integers(5, 12), n_over_m=st.floats(2.0, 3.0), l1l1=st.booleans(),
       nu=st.floats(0.3, 1.0), nonneg=st.booleans(), weighted=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_bp_and_l1l1_variants_match_highs(m, n_over_m, l1l1, nu, nonneg, weighted, seed):
    # bp and l1/l1, each plain, +nonneg, +weighted and both, against the LP.
    # At tol 1e-10 one nonneg weighted l1/l1 instance stopped 2.9e-6 short of
    # the optimum, so the solve runs to 1e-12.
    rng = np.random.default_rng(seed)
    n = int(round(n_over_m * m))
    op = make_operator("orthgauss", n, m, rng)
    a = materialize(op).real
    k = max(1, m // 4)
    x_true = np.zeros(n)
    signs = 1.0 if nonneg else rng.choice([-1.0, 1.0], k)
    x_true[rng.choice(n, k, replace=False)] = rng.uniform(0.5, 2.0, k) * signs
    b = a @ x_true
    if l1l1:
        b[rng.integers(m)] += 1.0  # one corrupted measurement
    w = rng.uniform(0.5, 2.0, n) if weighted else None
    if l1l1:
        model = ModelSpec.l1l1(nu, nonneg=nonneg, weights=w)
    else:
        model = ModelSpec.bp(nonneg=nonneg, weights=w)
    _, f_oracle = l1_lp_oracle(a, b, nu=nu if l1l1 else None, weights=w, nonneg=nonneg)
    run = dadm_solve(model, op, b.astype(np.complex128),
                     SolverOptions(stop="res", tol=1e-12, max_iter=50000))
    assert run.converged
    x = run.x.real
    f_solver = float(np.dot(np.ones(n) if w is None else w, np.abs(x)))
    if l1l1:
        f_solver += float(np.abs(a @ x - b).sum()) / nu
    assert f_solver == pytest.approx(f_oracle, rel=1e-6)


def test_nonneg_model_recovers_and_clips(rng):
    op = make_operator("wht", 64, 24, rng)
    x_true = np.zeros(64, dtype=np.complex128)
    idx = rng.choice(64, 5, replace=False)
    x_true[idx] = rng.uniform(0.5, 2.0, size=5)
    b = op.apply(x_true)
    run = dadm_solve(ModelSpec.bp(nonneg=True), op, b,
                     SolverOptions(tol=1e-12, max_iter=20000))
    assert np.all(run.x.real >= 0)
    assert np.all(run.x.imag == 0)
    assert np.linalg.norm(run.x - x_true) <= 1e-5


@pytest.mark.parametrize("model", [ModelSpec.bp(nonneg=True), ModelSpec.l1l1(0.5, nonneg=True)],
                         ids=["bp", "l1l1"])
def test_direct_nonneg_sweeps_equal_the_solve(model, rng):
    # The public step reads nonnegativity from params.model alone: direct
    # sweeps, clipped at zero, give the solve's x bit for bit.
    op = make_operator("wht", 32, 12, rng)
    b = op.apply(rng.standard_normal(32)).real
    run = dadm_solve(model, op, b, SolverOptions(max_iter=200, tol=0.0))
    A, data, solved = op, b, model
    if model.family == "l1l1":
        A = AugmentedOperator(op, model.nu)
        data, solved = A.data(b), ModelSpec.bp(nonneg=True)
    p = DadmParams.from_operator(A, data, solved)
    state = DadmState(x=np.zeros(A.n), y=np.zeros(A.m), z=np.zeros(A.n),
                      Ax=np.zeros(A.m), Aty=np.zeros(A.n))
    for _ in range(200):
        state = dadm_step(state, A, data, p)
    assert run.iterations == 200
    assert np.array_equal(run.x, np.maximum(A.signal(state.x).real, 0.0))


def test_qp_duality_gap_closes_at_optimum(rng):
    op = make_operator("wht", 128, 40, rng)
    _, b = _sparse_instance(op, 8, rng)
    run = dadm_solve(ModelSpec.qp(1e-2), op, b,
                     SolverOptions(stop="res", tol=1e-8, max_iter=50000))
    assert run.converged
    assert run.final().gap <= 1e-6


def test_nonorth_step_equals_exact_step_on_orthonormal_rows(rng):
    # With A A* = I the y-subproblem is isotropic, so one exact-steplength
    # descent step lands on the exact minimizer.
    op = make_operator("wht", 32, 12, rng)
    _, b = _sparse_instance(op, 4, rng)
    p = DadmParams.from_operator(op, b)
    state = _zero_state(12, 32)
    state.x = rng.standard_normal(32).astype(np.complex128)
    state.y = rng.standard_normal(12).astype(np.complex128)
    state.Ax = op.apply(state.x)
    state.Aty = op.adjoint(state.y)
    exact = dadm_step(state, op, b, p)
    # The same matrix without the flag takes the steepest-descent y-update.
    descent = dadm_step(state, DenseOperator(materialize(op), orthonormal_rows=False), b, p)
    assert np.allclose(exact.x, descent.x, atol=1e-12)
    assert np.allclose(exact.y, descent.y, atol=1e-12)


def test_nonorth_variant_solves_general_operator(rng):
    a = rng.standard_normal((4, 8))
    a *= np.sqrt(2.0) / np.linalg.norm(a, 2)  # generic spectrum, not orthonormal
    op = DenseOperator(a.astype(np.complex128))
    b = rng.standard_normal(4)
    mu = 0.3
    x_star, _ = qp_oracle(a, b, mu)
    run = dadm_solve(ModelSpec.qp(mu), op, b.astype(np.complex128),
                     SolverOptions(tol=1e-13, max_iter=40000))
    assert np.linalg.norm(run.x - x_star) <= 1e-4 * max(1.0, np.linalg.norm(x_star))
    with pytest.raises(ConfigError):
        dadm_solve(ModelSpec.bpdn(0.1), op, b.astype(np.complex128),
                   SolverOptions())


@pytest.mark.parametrize("kwargs", [
    dict(tol=float("inf")), dict(tol=float("nan")), dict(beta=float("inf")),
    dict(gamma=float("nan")), dict(tau=float("inf")),
], ids=["tol-inf", "tol-nan", "beta-inf", "gamma-nan", "tau-inf"])
def test_solver_options_reject_nonfinite_scalars(kwargs):
    with pytest.raises(ConfigError):
        SolverOptions(**kwargs)


@pytest.mark.parametrize("max_iter", [2.9, 3.0, True, "3"])
def test_solver_options_refuse_a_non_integer_max_iter(max_iter):
    with pytest.raises(ConfigError, match="max_iter"):
        SolverOptions(max_iter=max_iter)


@pytest.mark.parametrize("history", [1, 0, "false", None])
def test_solver_options_refuse_a_non_bool_history(history):
    with pytest.raises(ConfigError, match="history"):
        SolverOptions(history=history)


def test_nonorth_step_rejects_delta_ball(rng):
    p = DadmParams(beta=1.0, gamma=1.0, model=ModelSpec.bpdn(0.5))
    op = DenseOperator(rng.standard_normal((3, 6)).astype(np.complex128))
    with pytest.raises(ConfigError):
        dadm_step(_zero_state(3, 6), op, np.zeros(3, np.complex128), p)


@pytest.mark.parametrize("model", [ModelSpec.bp(), ModelSpec.qp(0.1)], ids=["bp", "qp"])
def test_direct_sweeps_on_a_general_operator_equal_the_solve(model, rng):
    # dadm_step takes the inexact y-update itself on an operator without
    # orthonormal rows: direct sweeps give the solve's iterate bit for bit.
    a = rng.standard_normal((12, 32))
    op = DenseOperator(a / np.linalg.norm(a, 2))
    b = op.apply(rng.standard_normal(32)).real
    run = dadm_solve(model, op, b, SolverOptions(max_iter=200, tol=0.0))
    p = DadmParams.from_operator(op, b, model)
    state = DadmState(x=np.zeros(32), y=np.zeros(12), z=np.zeros(32),
                      Ax=np.zeros(12), Aty=np.zeros(32))
    for _ in range(200):
        state = dadm_step(state, op, b, p)
    assert run.iterations == 200 and run.aat == 3 * 200
    assert np.array_equal(run.x, state.x)


def test_matvec_accounting(rng):
    op = make_operator("wht", 64, 20, rng)
    _, b = _sparse_instance(op, 5, rng)
    run = dadm_solve(ModelSpec.bp(), op, b, SolverOptions(max_iter=13, tol=0.0))
    assert run.iterations == 13
    assert run.aat == 2 * 13
    assert run.aat_history == [2 * (k + 1) for k in range(13)]

    a = rng.standard_normal((5, 12))
    dense = DenseOperator(a.astype(np.complex128))
    run3 = dadm_solve(ModelSpec.bp(), dense, rng.standard_normal(5).astype(np.complex128),
                      SolverOptions(max_iter=6, tol=0.0))
    assert run3.aat == 3 * 6


def test_history_carries_relerr_when_truth_given(rng):
    op = make_operator("wht", 64, 24, rng)
    x_true, b = _sparse_instance(op, 5, rng)
    run = dadm_solve(ModelSpec.bp(), op, b,
                     SolverOptions(max_iter=200, tol=1e-10, history=True, x_true=x_true))
    assert len(run.history) == run.iterations == len(run.aat_history)
    errs = [h.relerr for h in run.history]
    assert np.all(np.isfinite(errs))
    assert errs[-1] < 1e-3  # percent


def test_l1l1_history_relerr_scores_the_signal_block(rng):
    # the solve iterates on (nu x; b - Ax); relerr must compare only the
    # signal block, exactly as a caller scores the returned x
    op = make_operator("wht", 64, 32, rng)
    x_true, b = _sparse_instance(op, 4, rng)
    b[rng.choice(32, 2, replace=False)] += 1.0
    model = ModelSpec.l1l1(0.5)
    opts = dict(max_iter=300, tol=1e-8, stop="res")
    run = dadm_solve(model, op, b, SolverOptions(x_true=x_true, **opts))
    assert run.history[-1].relerr == relerr(run.x, x_true)
    # ground truth only scores the iterates; it never steers them
    blind = dadm_solve(model, op, b, SolverOptions(**opts))
    assert blind.x.tobytes() == run.x.tobytes()
    assert all(np.isnan(h.relerr) for h in blind.history)
