"""Solver entry points and step functions. Every solver is ``<name>_solve(model,
A, b, opts=None)`` for a name in SOLVERS, and refuses the models and options it
does not use. ``<name>_lanes(model, A, b, opts=None)`` solves the T lanes of
(T, m) data in lockstep, and ``<name>_solve`` is its one-lane case."""

from ..errors import ConfigError
from .baselines import FistaState, fista_lanes, fista_solve, ist_lanes, ist_solve, prox_grad_step
from .common import STOP_RULES, CountingOperator, RunRecord, SolverOptions, run_solve
from .dual import GOLDEN_RATIO, DadmParams, DadmState, dadm_lanes, dadm_solve, dadm_step
from .primal import PadmParams, PadmState, padm_lanes, padm_solve, padm_step

__all__ = [
    "SOLVERS", "STOP_RULES", "solve", "solve_lanes",
    "CountingOperator", "RunRecord", "SolverOptions", "run_solve",
    "PadmParams", "PadmState", "padm_step", "padm_lanes", "padm_solve",
    "GOLDEN_RATIO", "DadmParams", "DadmState", "dadm_step", "dadm_lanes", "dadm_solve",
    "FistaState", "prox_grad_step", "fista_lanes", "fista_solve", "ist_lanes", "ist_solve",
]

# Every solver name, in the order the solver races report them.
SOLVERS = ("padm", "dadm", "ist", "fista")


def solve(name, model, A, b, opts=None):
    """Solve ``model`` (a ModelSpec) on the data b = A x with the named solver.

    The one entry point the CLI and the experiment harness share: it runs
    ``<name>_solve(model, A, b, opts)``, and that solver refuses the models
    and options it does not use. An unknown name raises ConfigError.

    Returns
    -------
    RunRecord
    """
    return _solver(name, "_solve")(model, A, b, opts)


def solve_lanes(name, model, A, b, opts=None):
    """``solve`` on the T lanes of the (T, m) data b in lockstep: lane i is
    the problem (A's lane i, b[i]) under the model's lane i, A stacked with
    T lanes (``stack_operators``), or a single operator when T = 1. The
    model is one for all lanes, or stacked with T lanes (``stack_models``:
    one family, a mu, delta or nu per lane). Each lane's RunRecord equals,
    bit for bit, what ``solve`` returns on its problem alone.

    Returns
    -------
    list of RunRecord, one per lane
    """
    return _solver(name, "_lanes")(model, A, b, opts)


def _solver(name, suffix):
    if name not in SOLVERS:
        raise ConfigError("unknown solver %r (choose from %s)" % (name, ", ".join(SOLVERS)))
    # Looked up per call rather than in a table built at import, so a
    # rebound module attribute (a tracing wrapper) is what runs.
    return globals()[name + suffix]
