"""Recover a sparse spike train from partial Walsh-Hadamard measurements.

Walkthrough of the library's core loop: build a matrix-free operator, plant
a k-sparse signal, take noisy measurements, and compare the two
alternating-direction solvers against the proximal-gradient baselines on the
same data. Every solver takes the same (model, A, b, opts). Run it directly:

    python3 demos/recover_spikes.py
"""

import numpy as np

from adl1 import (
    ModelSpec,
    NoiseSpec,
    SolverOptions,
    dadm_solve,
    fista_solve,
    ist_solve,
    make_instance,
    padm_solve,
    relerr,
)

n, m, k = 1024, 307, 31
sigma = 1e-3

# One seeded instance: randomized partial WHT rows, real Gaussian spikes,
# white noise of standard deviation sigma on the measurements.
inst = make_instance("wht", n, m, k, NoiseSpec(sigma=sigma), seed=7)
print("instance: n=%d m=%d k=%d, ||b|| = %.3f, noise sigma = %g"
      % (n, m, k, np.linalg.norm(inst.b), sigma))

# The quadratic-penalty model with a small mu is the usual choice for white
# noise; delta equal to the noise norm gives the constrained variant.
mu = 1e-4
delta = float(np.linalg.norm(inst.p_white))
opts = SolverOptions(tol=5e-4, max_iter=1000, stop="relchg")

runs = [
    ("padm  qp", padm_solve(ModelSpec.qp(mu), inst.A, inst.b, opts)),
    ("dadm  qp", dadm_solve(ModelSpec.qp(mu), inst.A, inst.b, opts)),
    ("padm  bpdn", padm_solve(ModelSpec.bpdn(delta), inst.A, inst.b, opts)),
    ("dadm  bpdn", dadm_solve(ModelSpec.bpdn(delta), inst.A, inst.b, opts)),
    ("ist   qp", ist_solve(ModelSpec.qp(mu), inst.A, inst.b, opts)),
    ("fista qp", fista_solve(ModelSpec.qp(mu), inst.A, inst.b, opts)),
]

print()
print("%-12s %8s %8s %12s %12s" % ("solver", "iters", "#AAt", "RelErr", "RelRes"))
for name, rec in runs:
    err = relerr(rec.x, inst.x_true)
    res = np.linalg.norm(inst.A.apply(rec.x) - inst.b) / np.linalg.norm(inst.b)
    print("%-12s %8d %8d %11.4f%% %12.2e" % (name, rec.iterations, rec.aat, err, res))

print()
print("The alternating-direction solvers reach the noise floor in a few dozen")
print("sweeps of two operator applications each. At this small mu the plain")
print("gradient baseline crawls (its relative-change rule fires while still")
print("far away) and even the accelerated one needs several times as many")
print("operator applications to get close.")
