"""Acceptance gate: one test per release criterion, each with its stated
tolerance and wall-clock budget.

Every test prints a single PASS/FAIL line (visible with -s, or in the captured
output of a failing run) before asserting, so a red criterion still reports
its measured numbers.
"""

import time

import numpy as np

from adl1 import cli
from adl1.errors import StepSizeError
from adl1.harness import (
    PARAM_GRID,
    ExperimentConfig,
    NoiseSpec,
    make_instance,
    model_for_param,
    run_protocol,
)
from adl1.models import ModelSpec, relerr
from adl1.operators import DenseOperator, make_operator, stack_operators
from adl1.prox import project_halfspace, project_l2_ball, project_linf_ball, shrink, shrink_l2
from adl1.solvers import SolverOptions, dadm_solve, fista_solve, ist_solve, padm_solve, solve_lanes
from adl1.solvers.dual import DadmParams, DadmState, dadm_step
from adl1.solvers.primal import PadmParams, PadmState, padm_step

from oracles import bp_oracle, materialize, objective_value, qp_oracle, scalar_prox_grid


def _report(num, ok, detail):
    print("[criterion %s] %s - %s" % (num, "PASS" if ok else "FAIL", detail))
    return ok


def _budget(num, elapsed, bound):
    print("[criterion %s] runtime %.1fs (budget %ds)" % (num, elapsed, bound))
    assert elapsed < bound


# ---------------------------------------------------------------------------
# 1. per-iteration equality residual follows |1-gamma|^k exactly


def test_criterion_1_equality_residual_geometric_law():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    A = make_operator("wht", 1024, 256, rng)
    x_true = np.zeros(1024, np.complex128)
    x_true[rng.choice(1024, 40, replace=False)] = rng.standard_normal(40)
    b = A.apply(x_true)
    r0 = float(np.linalg.norm(b))  # x^0 = 0

    results = {}
    for gamma in (0.5, 1.0, 1.618):
        params = DadmParams.from_operator(A, b, gamma=gamma)
        state = DadmState(x=np.zeros(1024, np.complex128),
                          y=np.zeros(256, np.complex128),
                          z=np.zeros(1024, np.complex128),
                          Ax=np.zeros(256, np.complex128),
                          Aty=np.zeros(1024, np.complex128))
        worst = 0.0
        for k in range(1, 81):
            state = dadm_step(state, A, b, params)
            measured = float(np.linalg.norm(A.apply(state.x) - b))
            predicted = abs(1.0 - gamma) ** k * r0
            if gamma == 1.0:
                # one sweep annihilates the residual; only float dust remains
                worst = max(worst, measured / r0)
            elif predicted >= 1e-6 * r0:
                worst = max(worst, abs(measured - predicted) / predicted)
        results[gamma] = worst

    ok = (results[0.5] <= 1e-10 and results[1.618] <= 1e-10
          and results[1.0] <= 1e-12)
    assert _report(1, ok, "worst relative deviation: gamma 0.5 %.2e, 1.618 %.2e; "
                   "gamma 1.0 residual %.2e of r0" % (results[0.5], results[1.618], results[1.0]))
    _budget(1, time.perf_counter() - t0, 5)


# ---------------------------------------------------------------------------
# 2. desk-scale solver race accuracy


def test_criterion_2_solver_race_desk_accuracy():
    t0 = time.perf_counter()
    cfg = ExperimentConfig("race-qp", n=1024, trials=10, max_iter=300,
                           grid=[(0.3, 0.1)], solvers=("padm", "dadm"), seed=1234)
    res = run_protocol(cfg)
    means = {r["solver"]: r["relerr_pct"] / 100.0 for r in res.mean_rows}
    assert set(means) == {"padm", "dadm"}
    ok = all(v <= 1.5e-2 for v in means.values())
    assert _report(2, ok, "mean RelErr over 10 trials (n=1024, m=307, k=31): "
                   "padm %.2e, dadm %.2e (bound 1.5e-2)" % (means["padm"], means["dadm"]))
    _budget(2, time.perf_counter() - t0, 120)


# ---------------------------------------------------------------------------
# 3. noiseless equality model reaches machine-level residual


def test_criterion_3_noiseless_bp_machine_residual():
    t0 = time.perf_counter()
    worst_res, worst_err = 0.0, 0.0
    for trial in range(3):
        ss = np.random.SeedSequence(entropy=1234, spawn_key=(0, trial))
        inst = make_instance("wht", 1024, 307, 31, NoiseSpec(), ss)
        rec = dadm_solve(ModelSpec.bp(), inst.A, inst.b,
                         SolverOptions(tol=1e-6, max_iter=1000, stop="relchg"))
        rel_res = float(np.linalg.norm(inst.A.apply(rec.x) - inst.b)
                        / np.linalg.norm(inst.b))
        rel_err = relerr(rec.x, inst.x_true) / 100.0
        worst_res = max(worst_res, rel_res)
        worst_err = max(worst_err, rel_err)
    ok = worst_res <= 1e-12 and worst_err <= 1e-3
    assert _report(3, ok, "worst RelRes %.2e (bound 1e-12), worst RelErr %.2e "
                   "(bound 1e-3) over 3 instances" % (worst_res, worst_err))
    _budget(3, time.perf_counter() - t0, 60)


# ---------------------------------------------------------------------------
# 4. impulsive-noise model choice
#
# Under impulsive corruption some l1-fidelity nu on the sweep grid recovers
# x_true exactly, while no quadratic penalty on the same grid gets under 10%.
# The l1/l1 half is taken over the grid, not at one nu: exact recovery holds
# only inside a window of nu, and at nu = 0.2 the l1/l1 objective at the
# solver's converged output is below its value at x_true on every instance,
# so no correct solver returns x_true there.


def _grid_means(family, instances, opts):
    # A grid point's instances solve as the lanes of one lockstep solve;
    # each lane's record is bit for bit its solo solve's.
    A = stack_operators([inst.A for inst in instances])
    b = np.stack([inst.b for inst in instances])
    means = {}
    for param in PARAM_GRID:
        recs = solve_lanes("dadm", model_for_param(family, float(param)), A, b, opts)
        per_trial = [relerr(rec.x, inst.x_true) / 100.0 for rec, inst in zip(recs, instances)]
        means[float(param)] = float(np.mean(per_trial))
    return means


def test_criterion_4_impulsive_noise_model_choice():
    t0 = time.perf_counter()
    opts = SolverOptions(tol=1e-8, max_iter=3000, stop="res")
    noise = NoiseSpec(impulse_fraction=0.05)
    instances = []
    for trial in range(10):
        ss = np.random.SeedSequence(entropy=1234, spawn_key=(0, trial))
        instances.append(make_instance("dct", 1000, 300, 60, noise, ss, field="complex"))

    l1l1_means = _grid_means("l1l1", instances, opts)
    best_nu = min(l1l1_means, key=l1l1_means.get)
    ok_a = l1l1_means[best_nu] < 1e-3
    window = [nu for nu, v in l1l1_means.items() if v < 1e-3]

    qp_means = _grid_means("qp", instances, opts)
    ok_b = all(v > 0.10 for v in qp_means.values())

    _report("4 (l1-fidelity recovery)", ok_a,
            "best grid nu %.2f mean RelErr %.2e over 10 trials (bound < 1e-3); "
            "grid nu under 1e-3: %s; nu=0.2 mean RelErr %.3f (diagnostic)"
            % (best_nu, l1l1_means[best_nu], ", ".join("%.2f" % nu for nu in window) or "none",
               l1l1_means[0.2]))
    _report("4 (quadratic-penalty sweep)", ok_b,
            "min mean RelErr over the 21-value grid %.3f (bound > 0.10)"
            % min(qp_means.values()))
    _budget(4, time.perf_counter() - t0, 180)
    assert ok_a and ok_b


# ---------------------------------------------------------------------------
# 5. tiny-instance oracle equivalence


def test_criterion_5_tiny_bp_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(77)
    shapes = [(3, 6), (4, 7), (5, 8), (4, 6), (3, 7)]
    opts = SolverOptions(tol=1e-12, max_iter=30000, stop="relchg")
    found, tried = 0, 0
    worst_padm = worst_dadm = 0.0
    while found < 20:
        m, n = shapes[tried % len(shapes)]
        tried += 1
        assert tried < 400, "instance filter rejected too many candidates"
        A = make_operator("orthgauss", n, m, rng)
        x = np.zeros(n, np.complex128)
        pos = rng.choice(n, size=max(1, m // 3), replace=False)
        vals = rng.standard_normal(pos.size)
        x[pos] = vals + np.sign(vals) * 0.5
        b = A.apply(x)
        x_star, _, unique = bp_oracle(materialize(A).real, b.real)
        nonzeros = np.abs(x_star)[np.abs(x_star) > 1e-12]
        # only instances with a unique, well-separated vertex are decidable:
        # near-degenerate vertices are approached arbitrarily slowly
        if not unique or nonzeros.size == 0 or nonzeros.min() < 5e-3:
            continue
        found += 1
        rp = padm_solve(ModelSpec.bp(), A, b, opts)
        rd = dadm_solve(ModelSpec.bp(), A, b, opts)
        worst_padm = max(worst_padm, float(np.linalg.norm(rp.x - x_star)))
        worst_dadm = max(worst_dadm, float(np.linalg.norm(rd.x - x_star)))
    ok = worst_padm <= 1e-5 and worst_dadm <= 1e-5
    assert _report(5, ok, "20 instances: worst distance to enumeration oracle "
                   "padm %.2e, dadm %.2e (bound 1e-5)" % (worst_padm, worst_dadm))
    _budget(5, time.perf_counter() - t0, 30)


# ---------------------------------------------------------------------------
# 6. weighted-distance descent and the step-size guard


def test_criterion_6_monotone_descent_and_guard():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2718)
    shapes = [(4, 9), (5, 12), (3, 8), (6, 10), (4, 11)]
    violations = 0
    for i in range(10):
        m, n = shapes[i % len(shapes)]
        mu = 0.25 if i < 5 else 0.5
        a = rng.standard_normal((m, n))
        a *= np.sqrt(0.8) / np.linalg.norm(a, 2)  # lambda_max = 0.8 < (2-gamma)/tau
        op = DenseOperator(a.astype(np.complex128))
        b = rng.standard_normal(m)
        x_ref, _ = qp_oracle(a, b, mu)
        y_ref = (b - a @ x_ref) / mu
        p = PadmParams.from_operator(op, b.astype(np.complex128), ModelSpec.qp(mu))
        assert p.tau * op.lambda_max() + p.gamma < 2.0

        def dist_sq(x, y):
            return (p.beta / p.tau * np.linalg.norm(x - x_ref) ** 2
                    + 1.0 / (p.beta * p.gamma) * np.linalg.norm(y - y_ref) ** 2)

        state = PadmState(x=np.zeros(n, np.complex128), r=np.zeros(m, np.complex128),
                          y=np.zeros(m, np.complex128), k=0,
                          Ax=np.zeros(m, np.complex128))
        d_prev = dist_sq(state.x, state.y)
        slack = 1e-9 * max(1.0, d_prev)
        for _ in range(300):
            state = padm_step(state, op, b.astype(np.complex128), p)
            d_new = dist_sq(state.x, state.y)
            if d_new > d_prev + slack:
                violations += 1
            d_prev = d_new

    guard_fired = False
    op = make_operator("orthgauss", 24, 8, np.random.default_rng(0))
    try:
        # lambda_max = 1 makes tau lambda_max + gamma = 2.5
        PadmParams.from_operator(op, np.ones(8, np.complex128), tau=0.8, gamma=1.7)
    except StepSizeError:
        guard_fired = True

    ok = violations == 0 and guard_fired
    assert _report(6, ok, "%d descent violations in 3000 sweeps (slack 1e-9); "
                   "guard rejected tau*lambda_max+gamma = 2.5: %s" % (violations, guard_fired))
    _budget(6, time.perf_counter() - t0, 60)


# ---------------------------------------------------------------------------
# 7. prox and projection property suite


def test_criterion_7_prox_property_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(314)
    n_cases = 1000

    def cvec(size):
        return rng.standard_normal(size) + 1j * rng.standard_normal(size)

    maps_checked = 0
    for _ in range(n_cases):
        t = float(rng.uniform(0.01, 2.0))
        v, w = cvec(8) * 2.0, cvec(8) * 2.0
        for op in (lambda u: shrink(u, t),
                   lambda u: project_linf_ball(u, t),
                   lambda u: project_l2_ball(u, t),
                   lambda u: shrink_l2(u, t),
                   lambda u: project_halfspace(u, t)):
            assert np.linalg.norm(op(v) - op(w)) <= np.linalg.norm(v - w) + 1e-12
            maps_checked += 1

    for _ in range(n_cases):
        radius = float(rng.uniform(0.05, 2.0))
        v = cvec(6) * 3.0
        p_inf = project_linf_ball(v, radius)
        p_l2 = project_l2_ball(v, radius)
        p_half = project_halfspace(v, radius)
        assert np.max(np.abs(p_inf)) <= radius * (1 + 1e-12)
        assert np.linalg.norm(p_l2) <= radius * (1 + 1e-12)
        assert np.max(p_half.real) <= radius * (1 + 1e-12)
        for p, proj in ((p_inf, project_linf_ball), (p_l2, project_l2_ball),
                        (p_half, project_halfspace)):
            assert np.linalg.norm(proj(p, radius) - p) <= 1e-12

    for _ in range(n_cases):
        radius = float(rng.uniform(0.05, 2.0))
        v = cvec(6) * 3.0
        # any feasible w sits on the far side of the projection hyperplane
        w_inf = project_linf_ball(cvec(6) * 3.0, radius)
        w_l2 = project_l2_ball(cvec(6) * 3.0, radius)
        w_half = project_halfspace(cvec(6) * 3.0, radius)
        for proj, w in ((project_linf_ball, w_inf), (project_l2_ball, w_l2),
                        (project_halfspace, w_half)):
            p = proj(v, radius)
            assert np.real(np.vdot(v - p, w - p)) <= 1e-9

    def objective(z, v, t):
        return t * z + 0.5 * (z - v) ** 2

    for _ in range(n_cases):
        v = complex(*rng.standard_normal(2)) * 2.0
        t = float(rng.uniform(0.0, 2.0))
        z = complex(shrink(np.array([v]), t)[0])
        best = scalar_prox_grid(abs(v), t, objective, lo=0.0, hi=abs(v) + 1.0, steps=20001)
        assert abs(abs(z) - best) <= 1e-3

    assert maps_checked == 5 * n_cases
    elapsed = time.perf_counter() - t0
    assert _report(7, True, "non-expansiveness, membership, variational optimality, "
                   "and grid-oracle suites each passed %d cases" % n_cases)
    _budget(7, elapsed, 10)


# ---------------------------------------------------------------------------
# 8. accelerated baseline dominates the plain one


def test_criterion_8_baseline_ordering():
    t0 = time.perf_counter()
    rng = np.random.default_rng(88)
    mu = 0.01
    ordered = reached = 0
    for _ in range(20):
        A = make_operator("orthgauss", 96, 28, rng)
        x = np.zeros(96, np.complex128)
        pos = rng.choice(96, 10, replace=False)
        x[pos] = rng.standard_normal(10)
        b = A.apply(x)
        model = ModelSpec.qp(mu)
        ref = dadm_solve(model, A, b, SolverOptions(tol=1e-12, max_iter=30000, stop="relchg"))
        f_ref = objective_value(model, A, b, ref.x)

        at200 = SolverOptions(tol=1e-14, max_iter=200, stop="relchg")
        f_ist = objective_value(model, A, b, ist_solve(model, A, b, at200).x)
        f_fista = objective_value(model, A, b, fista_solve(model, A, b, at200).x)
        if f_fista <= f_ist:
            ordered += 1

        long = SolverOptions(tol=1e-14, max_iter=10000, stop="relchg")
        f_ist_long = objective_value(model, A, b, ist_solve(model, A, b, long).x)
        f_fista_long = objective_value(model, A, b, fista_solve(model, A, b, long).x)
        if (abs(f_ist_long - f_ref) <= 1e-4 * f_ref
                and abs(f_fista_long - f_ref) <= 1e-4 * f_ref):
            reached += 1

    ok = ordered == 20 and reached == 20
    assert _report(8, ok, "objective at iteration 200 ordered on %d/20 instances; "
                   "both baselines within 1e-4 of the reference on %d/20"
                   % (ordered, reached))
    _budget(8, time.perf_counter() - t0, 120)


# ---------------------------------------------------------------------------
# 9. experiment artifacts are byte-deterministic


def test_criterion_9_experiment_determinism(tmp_path):
    t0 = time.perf_counter()
    args = ["experiment", "race-qp", "--desk", "--n", "256", "--trials", "3",
            "--max-iter", "300", "--seed", "42"]
    assert cli.main(args + ["--out", str(tmp_path / "first")]) == 0
    assert cli.main(args + ["--out", str(tmp_path / "second")]) == 0
    identical = all(
        (tmp_path / "first" / name).read_bytes() == (tmp_path / "second" / name).read_bytes()
        for name in ("race-qp.csv", "race-qp_trials.csv")
    )
    assert _report(9, identical, "mean and trial CSVs byte-identical across reruns")
    print("[criterion 9] runtime %.1fs" % (time.perf_counter() - t0))
