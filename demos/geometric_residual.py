"""The equality-constrained dual solver's residual follows an exact law.

For the equality-constrained model on an operator with orthonormal rows, the
measurement residual of the dual alternating-direction iteration contracts by
the constant factor |1 - gamma| every sweep, independently of the data. This
script measures it on a randomly drawn partial Walsh-Hadamard operator
(``make_operator("wht", n, m, rng)``). Run it directly:

    python3 demos/geometric_residual.py
"""

import numpy as np

from adl1 import gen_spikes, make_operator
from adl1.solvers.dual import DadmParams, DadmState, dadm_step

n, m, k = 1024, 256, 40
rng = np.random.default_rng(42)
A = make_operator("wht", n, m, rng)
x_true = gen_spikes(n, k, rng)
b = A.apply(x_true)
r0 = np.linalg.norm(b)  # starting from x = 0

for gamma in (0.5, 1.0, 1.618):
    params = DadmParams.from_operator(A, b, gamma=gamma)
    state = DadmState(x=np.zeros(n, np.complex128), y=np.zeros(m, np.complex128),
                      z=np.zeros(n, np.complex128), Ax=np.zeros(m, np.complex128),
                      Aty=np.zeros(n, np.complex128))
    print()
    print("gamma = %.3f   predicted ratio |1 - gamma| = %.3f" % (gamma, abs(1 - gamma)))
    print("%6s %14s %14s" % ("sweep", "||Ax - b||", "predicted"))
    for sweep in range(1, 13):
        state = dadm_step(state, A, b, params)
        measured = np.linalg.norm(A.apply(state.x) - b)
        predicted = abs(1.0 - gamma) ** sweep * r0
        print("%6d %14.6e %14.6e" % (sweep, measured, predicted))

print()
print("With gamma = 1 the constraint is met after a single sweep, to machine")
print("precision; every other admissible gamma contracts the residual")
print("geometrically at exactly |1 - gamma| per sweep. The iterations beyond")
print("that keep shrinking the objective while staying on the constraint set.")
