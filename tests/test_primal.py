"""Primal alternating-direction solver: guards, saddle points, descent law.

The contraction test tracks the weighted squared distance

    ||u - u~||_G^2 = (beta/tau) ||x - x~||^2 + 1/(beta gamma) ||y - y~||^2

to an exact reference saddle (from the support-enumeration oracle) and
checks it decreases by at least eta ||u^k - u^{k+1}||_G^2 per sweep, with
eta = min(delta^2, delta (2-gamma) / (gamma (1+delta))) and
delta = 1 - tau lambda_max / (2-gamma), which is the sharp constant for
step sizes satisfying tau lambda_max + gamma < 2.
"""

import numpy as np
import pytest

from adl1.errors import ConfigError, DivergenceError, StepSizeError
from adl1.models import ModelSpec
from adl1.operators import DenseOperator, make_operator
from adl1.prox import shrink
from adl1.solvers.common import SolverOptions, run_solve
from adl1.solvers.primal import (
    PadmParams,
    PadmState,
    padm_solve,
    padm_step,
)

from oracles import qp_oracle


def _scaled_operator(rng, m, n, lam=0.8):
    a = rng.standard_normal((m, n))
    a *= np.sqrt(lam) / np.linalg.norm(a, 2)
    return a, DenseOperator(a.astype(np.complex128))


def _zero_state(m, n):
    return PadmState(x=np.zeros(n, np.complex128), r=np.zeros(m, np.complex128),
                     y=np.zeros(m, np.complex128), k=0, Ax=np.zeros(m, np.complex128))


def test_default_parameters(rng):
    _, op = _scaled_operator(rng, 4, 9)
    b = rng.standard_normal(4).astype(np.complex128)
    p = PadmParams.from_operator(op, b)
    assert p.tau == 0.8
    assert p.gamma == 1.199
    assert p.beta == pytest.approx(2.0 * 4 / np.sum(np.abs(b)))
    p0 = PadmParams.from_operator(op, np.zeros(4, np.complex128))
    assert p0.beta == 1.0


def test_step_size_guard():
    op = make_operator("orthgauss", 10, 4, np.random.default_rng(0))
    b = np.ones(4, dtype=np.complex128)
    # lambda_max = 1, so tau + gamma = 2.5 must be rejected.
    with pytest.raises(StepSizeError):
        PadmParams.from_operator(op, b, tau=0.8, gamma=1.7)
    with pytest.raises(StepSizeError):
        PadmParams.from_operator(op, b, tau=1.0, gamma=1.0)
    # Just inside the bound passes.
    PadmParams.from_operator(op, b, tau=0.8, gamma=1.199)


def test_parameter_validation():
    with pytest.raises(StepSizeError):
        PadmParams(beta=0.0, gamma=1.0, tau=0.5)
    with pytest.raises(StepSizeError):
        PadmParams(beta=1.0, gamma=2.0, tau=0.5)
    with pytest.raises(StepSizeError):
        PadmParams(beta=1.0, gamma=1.0, tau=-0.5)


def test_saddle_point_is_fixed(rng):
    for _ in range(5):
        a, op = _scaled_operator(rng, 4, 9)
        b = rng.standard_normal(4)
        mu = 0.3
        xt, _ = qp_oracle(a, b, mu)
        rt = b - a @ xt
        yt = rt / mu
        p = PadmParams.from_operator(op, b.astype(np.complex128), ModelSpec.qp(mu))
        state = PadmState(x=xt.astype(np.complex128), r=rt.astype(np.complex128),
                          y=yt.astype(np.complex128), k=0,
                          Ax=(a @ xt).astype(np.complex128))
        new = padm_step(state, op, b.astype(np.complex128), p)
        scale = max(1.0, np.linalg.norm(xt))
        assert np.linalg.norm(new.x - state.x) <= 1e-9 * scale
        assert np.linalg.norm(new.r - state.r) <= 1e-9 * scale
        assert np.linalg.norm(new.y - state.y) <= 1e-9 * scale


def test_weighted_distance_contracts_toward_saddle(rng):
    shapes = [(4, 9), (5, 12), (3, 8), (6, 10), (4, 11)]
    mus = [0.2, 0.3, 0.5]
    checked = 0
    for i in range(10):
        m, n = shapes[i % len(shapes)]
        mu = mus[i % len(mus)]
        a, op = _scaled_operator(rng, m, n)
        b = rng.standard_normal(m)
        xt, _ = qp_oracle(a, b, mu)
        yt = (b - a @ xt) / mu
        p = PadmParams.from_operator(op, b.astype(np.complex128), ModelSpec.qp(mu))
        lam = op.lambda_max()
        assert p.tau * lam + p.gamma < 2.0
        dlt = 1.0 - p.tau * lam / (2.0 - p.gamma)
        eta = min(dlt ** 2, dlt * (2.0 - p.gamma) / (p.gamma * (1.0 + dlt)))
        assert dlt > 0 and eta > 0

        def dist_sq(x, y):
            return (p.beta / p.tau * np.linalg.norm(x - xt) ** 2
                    + 1.0 / (p.beta * p.gamma) * np.linalg.norm(y - yt) ** 2)

        state = _zero_state(m, n)
        d0 = dist_sq(state.x, state.y)
        d_prev = d0
        slack = 1e-9 * max(1.0, d_prev)
        for _ in range(300):
            new = padm_step(state, op, b.astype(np.complex128), p)
            d_new = dist_sq(new.x, new.y)
            step_sq = (p.beta / p.tau * np.linalg.norm(state.x - new.x) ** 2
                       + 1.0 / (p.beta * p.gamma) * np.linalg.norm(state.y - new.y) ** 2)
            assert d_new <= d_prev + slack
            assert d_prev - d_new >= eta * step_sq - slack
            state, d_prev = new, d_new
            checked += 1
        # The contraction rate depends on eta; only definite progress is
        # asserted here, the per-sweep inequality above is the sharp part.
        assert d_prev <= 1e-2 * max(1.0, d0)
    assert checked == 3000


def test_bp_step_matches_two_line_scheme(rng):
    # With r pinned at zero the sweep collapses to
    # x+ = Shrink(x - tau A*(Ax - b - y/beta), tau/beta), y+ = y - gamma beta (Ax+ - b).
    a, op = _scaled_operator(rng, 5, 11)
    b = rng.standard_normal(5).astype(np.complex128)
    p = PadmParams.from_operator(op, b)
    x = rng.standard_normal(11).astype(np.complex128)
    y = rng.standard_normal(5).astype(np.complex128)
    state = PadmState(x=x, r=np.zeros(5, np.complex128), y=y, k=0, Ax=op.apply(x))
    new = padm_step(state, op, b, p)
    x_ref = shrink(x - p.tau * op.adjoint(op.apply(x) - b - y / p.beta), p.tau / p.beta)
    y_ref = y - p.gamma * p.beta * (op.apply(x_ref) - b)
    assert np.allclose(new.x, x_ref, atol=1e-14)
    assert np.allclose(new.y, y_ref, atol=1e-14)
    assert np.all(new.r == 0)


def test_bpdn_zero_radius_equals_bp(rng):
    a, op = _scaled_operator(rng, 4, 9)
    b = rng.standard_normal(4).astype(np.complex128)
    opts = SolverOptions(max_iter=60, tol=0.0)
    run_bp = padm_solve(ModelSpec.bp(), op, b, opts)
    run_bpdn = padm_solve(ModelSpec.bpdn(0.0), op, b, opts)
    assert np.array_equal(run_bp.x, run_bpdn.x)


def test_solve_reaches_oracle_solution(rng):
    a, op = _scaled_operator(rng, 5, 10)
    b = rng.standard_normal(5)
    mu = 0.25
    xt, val = qp_oracle(a, b, mu)
    opts = SolverOptions(tol=1e-14, max_iter=5000, history=True)
    run = padm_solve(ModelSpec.qp(mu), op, b.astype(np.complex128), opts)
    assert run.converged
    assert np.linalg.norm(run.x - xt) <= 1e-6 * max(1.0, np.linalg.norm(xt))
    # History rows exist for every sweep and expose the objective.
    assert len(run.history) == run.iterations
    assert run.final().objective == pytest.approx(val, rel=1e-8)


def test_weighted_solve_matches_rescaled_penalty(rng):
    # Uniform weights c turn qp(mu) into c * qp(c mu): same minimizer.
    a, op = _scaled_operator(rng, 4, 9)
    b = rng.standard_normal(4).astype(np.complex128)
    opts = SolverOptions(tol=1e-13, max_iter=20000)
    run_w = padm_solve(ModelSpec.qp(0.1, weights=np.full(9, 2.0)), op, b, opts)
    run_s = padm_solve(ModelSpec.qp(0.2), op, b, opts)
    assert np.linalg.norm(run_w.x - run_s.x) <= 1e-6


def test_unit_weights_match_unweighted_bitwise(rng):
    a, op = _scaled_operator(rng, 4, 9)
    b = rng.standard_normal(4).astype(np.complex128)
    opts = SolverOptions(max_iter=40, tol=0.0)
    run_w = padm_solve(ModelSpec.qp(0.3, weights=np.ones(9)), op, b, opts)
    run_u = padm_solve(ModelSpec.qp(0.3), op, b, opts)
    assert np.array_equal(run_w.x, run_u.x)


def test_matvec_accounting(rng):
    a, op = _scaled_operator(rng, 4, 9)
    b = rng.standard_normal(4).astype(np.complex128)
    run = padm_solve(ModelSpec.qp(0.3), op, b, SolverOptions(max_iter=17, tol=0.0))
    assert run.iterations == 17
    assert run.aat == 2 * 17
    assert run.aat_history == [2 * (k + 1) for k in range(17)]
    # The residue-based stop adds one adjoint per sweep.
    run3 = padm_solve(ModelSpec.qp(0.3), op, b,
                      SolverOptions(max_iter=5, tol=0.0, stop="res"))
    assert run3.aat == 3 * 5


def test_rejected_models():
    op = make_operator("orthgauss", 7, 3, np.random.default_rng(1))
    b = np.ones(3, dtype=np.complex128)
    with pytest.raises(ConfigError):
        padm_solve(ModelSpec.l1l1(0.5), op, b)
    with pytest.raises(ConfigError):
        padm_solve(ModelSpec.bp(nonneg=True), op, b)


def test_divergence_is_detected(rng):
    # tau lambda_max + gamma = 801.9: padm_solve refuses these step sizes, so
    # the sweep runs through the shared loop, whose finite check must stop it.
    a, op = _scaled_operator(rng, 4, 9, lam=4.0)
    b = rng.standard_normal(4).astype(np.complex128)
    opts = SolverOptions(tau=200.0, gamma=1.9, max_iter=5000, tol=0.0)
    with pytest.raises(StepSizeError):
        padm_solve(ModelSpec.qp(1e-3), op, b, opts)
    model = ModelSpec.qp(1e-3)
    p = PadmParams(beta=2.0 * 4 / np.sum(np.abs(b)), gamma=1.9, tau=200.0, model=model)

    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError):
            run_solve("padm", model, model, op, b, opts, _zero_state(4, 9), padm_step, p,
                      dual=lambda state, A: (state.y, None, None))


def test_max_iter_status(rng):
    a, op = _scaled_operator(rng, 4, 9)
    b = rng.standard_normal(4).astype(np.complex128)
    run = padm_solve(ModelSpec.bp(), op, b, SolverOptions(max_iter=3, tol=0.0))
    assert run.status == "max_iter"
    assert not run.converged
    assert run.iterations == 3
