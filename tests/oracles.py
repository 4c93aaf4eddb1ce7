"""Independent reference computations for the test suite.

Most of these are deliberately slow and simple: exhaustive enumeration or
brute-force search, no reuse of the library's iterative code paths. The
exception is ``l1_lp_oracle``, which hands the split LP to scipy's HiGHS
solver: not enumeration, but independent of the library, and it reaches
sizes far beyond the n <= ~12 that enumeration allows. The solvers are
tested against these, never against themselves.
"""

import itertools

import numpy as np
from scipy.optimize import linprog

from adl1.harness import NoiseSpec, _apply_noise


def fwht_butterfly(x):
    """Unnormalized natural-order Walsh-Hadamard transform of a copy of x.

    The textbook radix-2 butterfly: log2(n) stages, each adding and
    subtracting the halves of every block of length 2h. x must be 1-D with
    power-of-two length; the result keeps x's dtype.
    """
    n = x.shape[0]
    a = np.array(x, copy=True)
    h = 1
    while h < n:
        a = a.reshape(-1, 2 * h)
        top = a[:, :h].copy()
        a[:, :h] += a[:, h:]
        a[:, h:] = top - a[:, h:]
        a = a.reshape(-1)
        h *= 2
    return a


def materialize(op):
    """Dense matrix of an operator, column by column through apply()."""
    cols = []
    for j in range(op.n):
        e = np.zeros(op.n, dtype=np.complex128)
        e[j] = 1.0
        cols.append(op.apply(e))
    return np.column_stack(cols)


def lp_min_vertex(A, b, cost, tol=1e-9):
    """Minimize cost^T z s.t. A z = b, z >= 0 by exhaustive basic-solution
    enumeration. Feasible set must have recession cone {0} along the optimal
    face (true for the l1 problems below: costs are strictly positive).

    Returns (z_opt, value, unique) where unique is True when the optimal
    basic solution is strictly better than every other vertex by > tol.
    """
    m, n = A.shape
    best = None
    best_val = np.inf
    second = np.inf
    for cols in itertools.combinations(range(n), m):
        sub = A[:, cols]
        if np.linalg.matrix_rank(sub, tol=1e-10) < m:
            continue
        try:
            zb = np.linalg.solve(sub, b)
        except np.linalg.LinAlgError:
            continue
        if np.min(zb) < -1e-10:
            continue
        z = np.zeros(n)
        z[list(cols)] = zb
        val = float(cost @ z)
        if val < best_val - 1e-12:
            second = best_val
            best_val = val
            best = z
        elif val > best_val:
            second = min(second, val)
    if best is None:
        raise ValueError("infeasible LP in oracle")
    return best, best_val, (second - best_val) > tol


def bp_oracle(A, b):
    """min ||x||_1 s.t. Ax = b for small real instances.

    Splits x = u - v and enumerates vertices of the standard-form LP.
    Returns (x, value, unique).
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    m, n = A.shape
    Asp = np.hstack([A, -A])
    z, val, unique = lp_min_vertex(Asp, b, np.ones(2 * n))
    return z[:n] - z[n:], val, unique


def _l1l1_split_lp(A, b, nu):
    """Standard-form LP over (x+, x-, r+, r-) >= 0 with A x + r = b."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    m, n = A.shape
    Asp = np.hstack([A, -A, np.eye(m), -np.eye(m)])
    cost = np.concatenate([np.ones(2 * n), np.full(2 * m, 1.0 / nu)])
    return Asp, b, cost, n


def l1l1_oracle(A, b, nu):
    """min ||x||_1 + (1/nu)||Ax - b||_1 for small real instances, by
    enumerating the vertices of the split LP."""
    Asp, b, cost, n = _l1l1_split_lp(A, b, nu)
    z, val, unique = lp_min_vertex(Asp, b, cost)
    return z[:n] - z[n : 2 * n], val, unique


def l1_lp_oracle(A, b, nu=None, weights=None, nonneg=False):
    """Weighted basis pursuit or l1/l1 for real instances of any size, by HiGHS.

    Minimizes sum w_i |x_i| subject to Ax = b when nu is None, and
    sum w_i |x_i| + (1/nu)||Ax - b||_1 otherwise; ``nonneg`` adds x >= 0.
    The LP splits x = x+ - x- (x- dropped when nonneg) and, for l1/l1,
    Ax - b = r- - r+. Returns (x, value).
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    m, n = A.shape
    w = np.ones(n) if weights is None else np.asarray(weights, dtype=float)
    blocks, cost = [A], [w]
    if not nonneg:
        blocks.append(-A)
        cost.append(w)
    if nu is not None:
        blocks += [np.eye(m), -np.eye(m)]
        cost.append(np.full(2 * m, 1.0 / nu))
    res = linprog(np.concatenate(cost), A_eq=np.hstack(blocks), b_eq=b,
                  bounds=(0, None), method="highs")
    if res.status != 0:
        raise ValueError("HiGHS did not solve the LP: %s" % res.message)
    x = res.x[:n] if nonneg else res.x[:n] - res.x[n : 2 * n]
    return x, float(res.fun)


def qp_oracle(A, b, mu):
    """min ||x||_1 + 1/(2 mu)||Ax - b||^2 by support and sign enumeration.

    Real instances, n <= ~12. For support S with signs s, stationarity gives
    A_S^T A_S x_S = A_S^T b - mu s; a candidate is optimal iff the signs
    match and ||A^T (A x - b)||_inf <= mu.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    m, n = A.shape
    best_x, best_val = np.zeros(n), None

    def value(x):
        r = A @ x - b
        return np.abs(x).sum() + (r @ r) / (2.0 * mu)

    # empty support is valid iff ||A^T b||_inf <= mu
    if np.max(np.abs(A.T @ b)) <= mu * (1 + 1e-12):
        return np.zeros(n), value(np.zeros(n))
    for size in range(1, n + 1):
        for sup in itertools.combinations(range(n), size):
            As = A[:, sup]
            gram = As.T @ As
            if np.linalg.matrix_rank(gram, tol=1e-12) < size:
                continue
            for signs in itertools.product([-1.0, 1.0], repeat=size):
                s = np.asarray(signs)
                try:
                    xs = np.linalg.solve(gram, As.T @ b - mu * s)
                except np.linalg.LinAlgError:
                    continue
                if np.any(np.sign(xs) != s):
                    continue
                x = np.zeros(n)
                x[list(sup)] = xs
                g = A.T @ (A @ x - b)
                if np.max(np.abs(g)) > mu * (1 + 1e-9):
                    continue
                v = value(x)
                if best_val is None or v < best_val:
                    best_val, best_x = v, x
    if best_val is None:
        raise ValueError("no stationary point found by qp oracle")
    return best_x, best_val


def bpdn_subgradient_oracle(A, b, delta, iters=200000, seed=0):
    """Projected subgradient for min ||x||_1 s.t. ||Ax - b|| <= delta.

    Valid for orthonormal-rows A, where projection onto the constraint set
    has the closed form x + A*(p - Ax) with p the delta-ball projection of
    Ax around b. Slow but fully independent of the ADM code paths.
    """
    A = np.asarray(A)
    m, n = A.shape
    rng = np.random.default_rng(seed)
    x = A.conj().T @ b  # feasible start
    best = x.copy()
    best_val = np.abs(x).sum()
    for k in range(1, iters + 1):
        g = np.sign(x) if np.isrealobj(x) else x / np.maximum(np.abs(x), 1e-15)
        x = x - (0.5 / np.sqrt(k)) * g
        ax = A @ x
        d = ax - b
        nd = np.linalg.norm(d)
        if nd > delta:
            p = b + d * (delta / nd)
            x = x + A.conj().T @ (p - ax)
        val = np.abs(x).sum()
        if val < best_val:
            best_val, best = val, x.copy()
    return best, best_val


def scalar_prox_grid(v, t, objective, lo=-5.0, hi=5.0, steps=200001):
    """Brute-force scalar prox: argmin_z objective(z; v, t) over a grid."""
    zs = np.linspace(lo, hi, steps)
    vals = objective(zs, v, t)
    return zs[int(np.argmin(vals))]


def vector_csv_text(x):
    """The text of a vector CSV file, written one entry at a time: the
    header ``re,im``, then each entry's real and imaginary parts, as numpy
    scalars, through ``"%.17g,%.17g\\n"``."""
    lines = ["re,im\n"]
    for v in np.asarray(x, dtype=np.complex128):
        lines.append("%.17g,%.17g\n" % (v.real, v.imag))
    return "".join(lines)


def objective_value(model, A, b, x):
    """Objective of ``model`` at x, evaluated directly from its definition:
    the (weighted) l1 norm of x, plus ||Ax - b||^2 / (2 mu) for qp or
    ||Ax - b||_1 / nu for l1/l1."""
    mag = np.abs(x)
    val = float(np.sum(mag)) if model.weights is None else float(np.dot(model.weights, mag))
    misfit = A.apply(x) - b
    if model.family == "qp":
        val += float(np.linalg.norm(misfit) ** 2) / (2.0 * model.mu)
    elif model.family == "l1l1":
        val += float(np.sum(np.abs(misfit))) / model.nu
    return val


def add_noise(b_clean, sigma, impulse_fraction, seed, target_snr_db=None):
    """Measurement noise per the acquisition rule: optional white noise, then,
    when impulse_fraction > 0, rescale to unit infinity-norm and replace
    round(fraction*m) entries by +-1. Returns (b, p_white, p_impulse).

    The harness's own noise rule applied to a bare vector, so the tests can
    check that rule apart from an instance."""
    b_clean = np.asarray(b_clean, dtype=np.complex128)
    noise = NoiseSpec(sigma=sigma, impulse_fraction=impulse_fraction, target_snr_db=target_snr_db)
    b, p_white, p_impulse, _ = _apply_noise(b_clean, noise, np.random.default_rng(seed))
    return b, p_white, p_impulse


def snr_db(b, p):
    """SNR of data b against noise p: 20 log10(||b - mean(b)|| / ||p||).

    Returns +inf for zero noise and -inf for constant data.
    """
    b = np.asarray(b)
    num = np.linalg.norm(b - np.mean(b))
    den = np.linalg.norm(p)
    if den == 0.0:
        return np.inf
    if num == 0.0:
        return -np.inf
    return float(20.0 * np.log10(num / den))
