"""The benchmark's workloads: inputs, one CLI call per unit, output checks.

Every workload is a sequence of units, each one ``adl1.cli.main`` call:

- ``race-qp`` / ``race-qp-pool``: ``adl1 experiment race-qp --desk --trials 2``
  (the pool variant runs with two worker threads);
- ``model-choice``: ``adl1 experiment model-choice --desk --trials 1``;
- ``solve-8k``: ``adl1 solve`` on a config holding one partial-WHT instance
  (n=8192) drawn by ``make_instance``.

Unit inputs come from a fixed catalog of seeds (``Workload.catalog`` entries,
entry j running with seed ``CATALOG_BASE + j``); the workload seed picks the
order in which a run walks it, in whole passes. ``reference.json`` holds the
outputs of every catalog entry recorded at the commit that added the
benchmark, so each unit's CSV bytes and iter/aat columns are compared with
it. A mismatch is reported by name and counted; it does not mark the run
incorrect, since a later change may alter the artifacts on purpose.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import hashlib
import io
import json
import math
import os
import random
from dataclasses import dataclass
from time import perf_counter

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

CATALOG_BASE = 1000  # catalog entry j runs with seed CATALOG_BASE + j
SOLVE_N = 8192
TINY_SOLVE_N = 256


@dataclass(frozen=True)
class Workload:
    name: str
    protocol: str  # experiment protocol, or "solve"
    trials: int
    threads: int
    catalog: int

    @property
    def ref_key(self):
        return self.protocol if self.protocol == "solve" else "%s/trials%d" % (self.protocol, self.trials)


# The figures of a run cover whole passes over its catalog, so every run
# measures the same inputs and the seed only orders them: on a shared
# machine, seed-to-seed differences in the inputs widened the spread between
# runs beyond what the bounds allow. A run walks the experiment catalogs
# once and the solve catalog twice (100 solves need two passes of 64).
WORKLOADS = {
    "race-qp": Workload("race-qp", "race-qp", trials=2, threads=1, catalog=4),
    "race-qp-pool": Workload("race-qp-pool", "race-qp", trials=2, threads=2, catalog=3),
    "model-choice": Workload("model-choice", "model-choice", trials=1, threads=1, catalog=5),
    "solve-8k": Workload("solve-8k", "solve", trials=1, threads=1, catalog=64),
}

# Tiny sizes for the smoke test; no reference exists for them.
TINY_FLAGS = {
    "race-qp": ["--n", "64", "--max-iter", "60"],
    "model-choice": ["--n", "100", "--max-iter", "200"],
}


def plan(workload, seed):
    """Catalog entries in the order a run with this seed visits them."""
    order = list(range(workload.catalog))
    random.Random(seed).shuffle(order)
    return order


@functools.lru_cache(maxsize=None)
def load_reference():
    """Recorded outputs by workload key and catalog entry; empty before recording."""
    if not os.path.exists(REFERENCE_PATH):
        return {}
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def sha256_file(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def canonical_hash(obj):
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# instances (set-up)


def experiment_instances(workload, entry, tiny):
    """Generate, through make_instance, the instances one experiment unit uses."""
    from adl1 import ExperimentConfig, NoiseSpec, make_instance

    n = int(TINY_FLAGS[workload.protocol][1]) if tiny else None
    cfg = ExperimentConfig(workload.protocol, trials=workload.trials,
                           seed=CATALOG_BASE + entry, n=n).resolved()
    out = []
    if workload.protocol == "model-choice":
        noise = NoiseSpec(impulse_fraction=cfg["impulse_fraction"])
        for ti in range(cfg["trials"]):
            ss = np.random.SeedSequence(entropy=cfg["seed"], spawn_key=(0, ti))
            out.append(make_instance(cfg["kind"], cfg["n"], cfg["m"], cfg["k"], noise, ss,
                                     field=cfg["field"]))
        return out
    noise = NoiseSpec(sigma=cfg["sigma"])
    for ci, (mn, km) in enumerate(cfg["grid"]):
        m = int(round(mn * cfg["n"]))
        k = int(round(km * m))
        for ti in range(cfg["trials"]):
            ss = np.random.SeedSequence(entropy=cfg["seed"], spawn_key=(ci, ti))
            out.append(make_instance(cfg["kind"], cfg["n"], m, k, noise, ss, field=cfg["field"]))
    return out


def solve_instance(entry, tiny):
    """partial WHT, m=0.3n, k=0.1m, sigma=1e-3, seeded by the catalog entry."""
    from adl1 import NoiseSpec, make_instance

    n = TINY_SOLVE_N if tiny else SOLVE_N
    m = int(round(0.3 * n))
    return make_instance("wht", n, m, int(round(0.1 * m)), NoiseSpec(sigma=1e-3),
                         CATALOG_BASE + entry)


def write_solve_config(inst, entry, workdir, tiny):
    """Write b.bin and config.json for one solve; returns the config path."""
    d = os.path.join(workdir, "inputs", str(entry))
    os.makedirs(d, exist_ok=True)
    b_path = os.path.join(d, "b.bin")
    write_vector_file(b_path, inst.b)
    config = {
        "operator": {"kind": "wht", "n": inst.A.n, "rows": inst.A.rows.tolist(),
                     "signs": inst.A.signs.tolist()},
        "b": {"file": b_path},
        "model": {"family": "qp", "mu": 1e-4},
        "solver": {"name": "dadm", "tol": 5e-4, "stop": "relchg",
                   "max_iter": 200 if tiny else 1000},
    }
    path = os.path.join(d, "config.json")
    with open(path, "w") as fh:
        json.dump(config, fh)
    return path


# ---------------------------------------------------------------------------
# vector files and an independent Walsh-Hadamard transform for the checks


def write_vector_file(path, x):
    x = np.asarray(x, dtype=np.complex128)
    pairs = np.empty(2 * x.size, dtype="<f8")
    pairs[0::2] = x.real
    pairs[1::2] = x.imag
    with open(path, "wb") as fh:
        fh.write(b"ADL1VEC1" + np.uint32(x.size).tobytes() + b"\x00" * 4 + pairs.tobytes())


def read_vector_file(path):
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:8] != b"ADL1VEC1":
        raise ValueError("%s: bad magic" % path)
    n = int(np.frombuffer(raw[8:12], dtype="<u4")[0])
    pairs = np.frombuffer(raw[16:], dtype="<f8")
    if pairs.size != 2 * n:
        raise ValueError("%s: payload holds %d values, header says %d" % (path, pairs.size // 2, n))
    return pairs[0::2] + 1j * pairs[1::2]


def hadamard(x):
    """Natural-order Hadamard transform as a Kronecker product of 2x2 blocks."""
    n = x.size
    levels = n.bit_length() - 1
    a = np.asarray(x, dtype=np.complex128).reshape((2,) * levels)
    for axis in range(levels):
        lo, hi = np.take(a, 0, axis=axis), np.take(a, 1, axis=axis)
        a = np.stack([lo + hi, lo - hi], axis=axis)
    return a.reshape(n)


def wht_apply(inst, x):
    return hadamard(inst.A.signs * x)[inst.A.rows] / math.sqrt(inst.A.n)


# ---------------------------------------------------------------------------
# one unit


@dataclass
class UnitResult:
    entry: int
    wall: float
    latencies: list
    solves: int
    failed: int
    aat: int
    relerrs: list
    problems: list
    ref_bytes: object = None  # True / False / None (no reference)
    ref_counts: object = None
    ref_note: str = ""


def run_unit(adl1, workload, entry, outdir, tiny, config_path=None, inst=None):
    """Run one CLI call and check its outputs. ``adl1.cli.main`` is looked up
    at call time so a traced run goes through the wrapper."""
    if workload.protocol == "solve":
        argv = ["solve", config_path, "--out", outdir]
    else:
        argv = ["experiment", workload.protocol, "--desk", "--trials", str(workload.trials),
                "--seed", str(CATALOG_BASE + entry), "--out", outdir]
        if tiny:
            argv += TINY_FLAGS[workload.protocol]
    sink = io.StringIO()
    error = None
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = adl1.cli.main(argv)
    except Exception as exc:  # a crash of the program is a failed unit, not a crash of the bench
        rc, error = None, "%s: %s" % (type(exc).__name__, exc)
    wall = perf_counter() - t0
    error = error or sink.getvalue().strip()
    if workload.protocol == "solve":
        return _check_solve(entry, wall, rc, error, outdir, inst)
    return _check_experiment(workload, entry, wall, rc, error, outdir, tiny)


def _expected_rows(workload, tiny):
    from adl1 import ExperimentConfig

    n = int(TINY_FLAGS[workload.protocol][1]) if tiny else None
    cfg = ExperimentConfig(workload.protocol, trials=workload.trials,
                           seed=CATALOG_BASE, n=n).resolved()
    if workload.protocol == "model-choice":
        cells = len(cfg["families"]) * len(cfg["grid"])
    else:
        cells = len(cfg["grid"]) * len(cfg["solvers"])
    return cells, cells * cfg["trials"]


def _finite(values):
    return all(math.isfinite(v) for v in values)


def _check_experiment(workload, entry, wall, rc, error, outdir, tiny):
    n_means, n_trials = _expected_rows(workload, tiny)
    label = "%s seed %d" % (workload.protocol, CATALOG_BASE + entry)
    res = UnitResult(entry, wall, latencies=[], solves=n_trials, failed=0, aat=0, relerrs=[],
                     problems=[])
    if rc != 0:
        res.failed = n_trials
        res.problems.append("%s: exit %s %s" % (label, rc, error))
        return res
    proto = workload.protocol
    means_path = os.path.join(outdir, proto + ".csv")
    trials_path = os.path.join(outdir, proto + "_trials.csv")
    with open(means_path) as fh:
        means = list(csv.DictReader(fh))
    with open(trials_path) as fh:
        trials = list(csv.DictReader(fh))
    with open(os.path.join(outdir, "manifest.json")) as fh:
        manifest = json.load(fh)
    with open(os.path.join(outdir, "timings.json")) as fh:
        timings = json.load(fh)["rows"]
    if len(means) != n_means:
        res.problems.append("%s: %d mean rows, expected %d" % (label, len(means), n_means))
    if len(trials) != n_trials:
        res.problems.append("%s: %d trial rows, expected %d" % (label, len(trials), n_trials))
    if len(timings) != n_trials:
        res.problems.append("%s: %d timing rows, expected %d" % (label, len(timings), n_trials))
    for name, rows in (("means", means), ("trials", trials)):
        for r in rows:
            vals = [float(r[c]) for c in ("iter", "aat", "relerr_pct", "res", "seconds")]
            if not _finite(vals):
                res.problems.append("%s: nonfinite %s row %s" % (label, name, r))
    res.failed = sum(1 for r in trials
                     if not _finite([float(r["relerr_pct"]), float(r["res"])]))
    if manifest.get("config_hash") != canonical_hash(manifest.get("config")):
        res.problems.append("%s: manifest config hash does not match its config" % label)
    cfg = manifest.get("config", {})
    if cfg.get("seed") != CATALOG_BASE + entry or cfg.get("trials") != workload.trials:
        res.problems.append("%s: manifest config has seed %s trials %s"
                            % (label, cfg.get("seed"), cfg.get("trials")))
    res.latencies = [float(r["seconds"]) for r in timings]
    res.aat = sum(int(r["aat"]) for r in trials)
    res.relerrs = [float(r["relerr_pct"]) for r in trials]
    if not tiny:
        ref = load_reference().get(workload.ref_key, {}).get(str(entry))
        if ref is not None:
            got_bytes = [sha256_file(means_path), sha256_file(trials_path)]
            res.ref_bytes = got_bytes == [ref["means_sha256"], ref["trials_sha256"]]
            res.ref_counts = ([int(r["iter"]) for r in trials] == ref["iter"]
                              and [int(r["aat"]) for r in trials] == ref["aat"])
            if not res.ref_bytes:
                res.ref_note += "%s: CSV bytes differ from reference; " % label
            if not res.ref_counts:
                res.ref_note += "%s: iter/aat columns differ from reference; " % label
    return res


def experiment_reference(outdir, protocol):
    with open(os.path.join(outdir, protocol + "_trials.csv")) as fh:
        trials = list(csv.DictReader(fh))
    return {
        "means_sha256": sha256_file(os.path.join(outdir, protocol + ".csv")),
        "trials_sha256": sha256_file(os.path.join(outdir, protocol + "_trials.csv")),
        "iter": [int(r["iter"]) for r in trials],
        "aat": [int(r["aat"]) for r in trials],
    }


# relres and RelErr bounds a correct solve of the solve-8k instances meets:
# noise sigma=1e-3 against unit-variance spikes, stopped at relchg < 5e-4.
MAX_RELRES = 1e-2
MAX_RELERR_PCT = 5.0


def _check_solve(entry, wall, rc, error, outdir, inst):
    label = "solve seed %d" % (CATALOG_BASE + entry)
    res = UnitResult(entry, wall, latencies=[wall], solves=1, failed=0, aat=0, relerrs=[],
                     problems=[])
    if rc not in (0, 2):
        res.failed = 1
        res.problems.append("%s: exit %s %s" % (label, rc, error))
        return res
    with open(os.path.join(outdir, "run.json")) as fh:
        run = json.load(fh)
    x = read_vector_file(os.path.join(outdir, "x.bin"))
    if x.shape != (inst.A.n,) or not np.all(np.isfinite(x)):
        res.failed = 1
        res.problems.append("%s: x.bin is not a finite length-%d vector" % (label, inst.A.n))
        return res
    csv_data = np.loadtxt(os.path.join(outdir, "x.csv"), delimiter=",", skiprows=1, ndmin=2)
    if not np.array_equal(csv_data[:, 0] + 1j * csv_data[:, 1], x):
        res.problems.append("%s: x.csv and x.bin disagree" % label)
    nb = np.linalg.norm(inst.b)
    relres = float(np.linalg.norm(wht_apply(inst, x) - inst.b) / nb)
    relerr = float(100.0 * np.linalg.norm(x - inst.x_true) / np.linalg.norm(inst.x_true))
    if not relres <= MAX_RELRES:
        res.problems.append("%s: relative residual %.3g above %.3g" % (label, relres, MAX_RELRES))
    if not abs(relres - run["relres"]) <= 1e-8 * max(relres, 1e-30) + 1e-14:
        res.problems.append("%s: run.json relres %.17g, recomputed %.17g"
                            % (label, run["relres"], relres))
    if not relerr <= MAX_RELERR_PCT:
        res.problems.append("%s: RelErr %.3g%% above %.3g%%" % (label, relerr, MAX_RELERR_PCT))
    res.aat = int(run["aat"])
    res.relerrs = [relerr]
    ref = load_reference().get("solve", {}).get(str(entry)) if inst.A.n == SOLVE_N else None
    if ref is not None:
        got = solve_reference(outdir)
        res.ref_bytes = [got["x_bin_sha256"], got["x_csv_sha256"]] == [ref["x_bin_sha256"],
                                                                     ref["x_csv_sha256"]]
        res.ref_counts = [got["iterations"], got["aat"]] == [ref["iterations"], ref["aat"]]
        if not res.ref_bytes:
            res.ref_note += "%s: x.bin/x.csv bytes differ from reference; " % label
        if not res.ref_counts:
            res.ref_note += "%s: iterations/aat differ from reference; " % label
    return res


def solve_reference(outdir):
    with open(os.path.join(outdir, "run.json")) as fh:
        run = json.load(fh)
    return {
        "x_bin_sha256": sha256_file(os.path.join(outdir, "x.bin")),
        "x_csv_sha256": sha256_file(os.path.join(outdir, "x.csv")),
        "iterations": int(run["iterations"]),
        "aat": int(run["aat"]),
    }
