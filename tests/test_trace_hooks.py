"""The benchmark's tracer must still find every adl1 function it hooks.

``perfbench/tracer.py`` times adl1's layers from outside by rebinding module
attributes by name: the solvers, ``models.compute_res``,
``harness._map_trials`` and others. A rename, or a call that bypasses the
module attribute (a name-to-function table built at import), does not fail
any solver test; it silently empties a layer of the benchmark's report.
These tests load the tracer from its path, unedited, and run one tiny CLI
solve and two tiny experiments under it.

The tracer counts solves and sweeps at ``<name>_solve``, the per-solve
entry. An experiment solves a cell's trials as the lanes of one
``<name>_lanes`` call, which the tracer does not wrap, so the experiment
tests read their solve and sweep counts from the run's trial CSV.
"""

import csv
import importlib.util
import os
import sys

import pytest

from adl1 import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRACER_PATH = os.path.join(ROOT, "perfbench", "tracer.py")
TINY_BP = os.path.join(ROOT, "demos", "tiny_bp.json")


@pytest.fixture(scope="module")
def tracer_module():
    spec = importlib.util.spec_from_file_location("adl1_perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced(tracer_module, argv):
    spans = tracer_module.Tracer()
    trial_loop = sys.modules["adl1.harness"]._map_trials
    with spans.installed():
        assert sys.modules["adl1.harness"]._map_trials is not trial_loop
        for _, modname, attr in tracer_module.FUNCTIONS:
            assert hasattr(getattr(sys.modules[modname], attr), "__wrapped__"), attr
        for solver in tracer_module.SOLVERS:
            assert hasattr(getattr(sys.modules["adl1.solvers"], solver + "_solve"), "__wrapped__")
        rc = cli.main(argv)
    return rc, spans.metrics(0.0)


def test_cli_solve_records_one_solver_span(tracer_module, tmp_path):
    rc, metrics = _traced(tracer_module, ["solve", TINY_BP, "--out", str(tmp_path / "run")])
    assert rc == 0
    solves = {s: metrics["solvers.%s.solves" % s] for s in tracer_module.SOLVERS}
    assert solves == {"padm": 0, "dadm": 1, "ist": 0, "fista": 0}
    assert metrics["operators.apply.calls"] >= 1
    # each sweep computes only its stop field, relchg; one full row, at the
    # final iterate, computes every field
    assert metrics["models.compute_res.calls"] == 1
    assert metrics["models.relchg.calls"] == metrics["solvers.dadm.iterations"] + 1
    # the returned x is scored once, for run.json; no sweep is scored
    assert metrics["models.relerr.calls"] == 1


def _trial_rows(outdir, protocol):
    with open(os.path.join(outdir, protocol + "_trials.csv")) as fh:
        return list(csv.DictReader(fh))


def test_experiment_reaches_every_solver_and_the_trial_loop(tracer_module, tmp_path):
    argv = ["experiment", "race-qp", "--n", "64", "--trials", "1", "--max-iter", "20",
            "--out", str(tmp_path / "race")]
    rc, metrics = _traced(tracer_module, argv)
    assert rc == 0
    rows = _trial_rows(tmp_path / "race", "race-qp")
    for solver in tracer_module.SOLVERS:
        assert sum(r["solver"] == solver for r in rows) == 6, solver  # one per race cell
    assert metrics["harness.pool.workers"] == 1
    assert metrics["harness.make_instance.calls"] == 6
    assert metrics["models.relerr.calls"] == 6 * 4  # one per trial row, none per sweep


def test_model_choice_draws_one_instance_per_trial(tracer_module, tmp_path):
    # the 63 family x parameter cells of a trial share that trial's instance,
    # and its three parameter-0 cells (all plain bp) share one solve
    argv = ["experiment", "model-choice", "--n", "64", "--trials", "2", "--max-iter", "20",
            "--out", str(tmp_path / "mc")]
    rc, metrics = _traced(tracer_module, argv)
    assert rc == 0
    assert metrics["harness.make_instance.calls"] == 2
    # one solve per model and trial: the parameter-0 cells name one model
    iters = {}
    for r in _trial_rows(tmp_path / "mc", "model-choice"):
        model = "bp" if r["cell"].endswith(":0.00") else r["cell"]
        iters.setdefault(model, {})[r["trial"]] = int(r["iter"])
    assert sum(len(by_trial) for by_trial in iters.values()) == 2 * 61
    # every dadm sweep on the partial DCT applies A and A* at least once
    # each, to all its lanes at once, and a family's models and trials are
    # the lanes of one batch here (80 lanes at n = 64), so a family takes
    # as many transforms as its longest solve; the tracer sees each through
    # scipy.fft
    families = {}
    for model, by_trial in iters.items():
        family = model.split(":")[0]
        families[family] = max(families.get(family, 0), *by_trial.values())
    assert metrics["operators.dct.calls"] >= 2 * sum(families.values())
    assert metrics["harness.pool.workers"] == 1
