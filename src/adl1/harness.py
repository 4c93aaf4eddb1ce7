"""Seeded synthetic experiments: instance generation, sweep and race protocols,
trial aggregation, and CSV/JSON persistence.

Reproducibility contract: every artifact embeds the resolved config, its hash,
and the base seed. Trial t of cell c always draws from
SeedSequence(entropy=seed, spawn_key=(c, t)), so results are independent of
execution order. Within one instance the generator is consumed in a fixed
order: operator, spike support, spike values, noise.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError
from .io import canonical_json, config_hash, write_csv
from .models import ModelSpec, relerr, relres
from .operators import SensingOperator, as_complex_vector, make_operator
from .solvers import SOLVERS, SolverOptions, solve

PROTOCOLS = ("model-choice", "err-vs-opt", "race-qp", "race-bpdn", "race-bp")

# (m/n, k/m) cells of the solver races; the basis-pursuit race drops the
# densest cell (0.1, 0.2).
RACE_GRID = ((0.3, 0.1), (0.3, 0.2), (0.2, 0.1), (0.2, 0.2), (0.1, 0.1), (0.1, 0.2))
RACE_GRID_BP = RACE_GRID[:5]

# Sweep values for the model-choice protocol: 21 evenly spaced points in [0,1];
# parameter 0 runs plain basis pursuit for every model family.
PARAM_GRID = tuple(round(v, 10) for v in np.linspace(0.0, 1.0, 21))
MODEL_FAMILIES = ("bp_nu", "qp", "l1l1")

CSV_HEADER = ("cell", "solver", "iter", "aat", "relerr_pct", "res", "seconds")
CSV_HEADER_TRIALS = ("cell", "solver", "trial", "iter", "aat", "relerr_pct", "res", "seconds")


# ---------------------------------------------------------------------------
# instance generation


@dataclass(frozen=True)
class NoiseSpec:
    """White noise level (std or target SNR) plus impulsive corruption rate."""

    sigma: float = 0.0
    impulse_fraction: float = 0.0
    target_snr_db: Optional[float] = None

    def __post_init__(self):
        if self.sigma < 0:
            raise ValueError("sigma must be nonnegative, got %g" % self.sigma)
        if not 0.0 <= self.impulse_fraction <= 1.0:
            raise ValueError("impulse_fraction must lie in [0, 1], got %g" % self.impulse_fraction)
        if self.target_snr_db is not None and self.sigma > 0:
            raise ValueError("give either sigma or target_snr_db, not both")

    def to_dict(self):
        return {
            "sigma": self.sigma,
            "impulse_fraction": self.impulse_fraction,
            "target_snr_db": self.target_snr_db,
        }


@dataclass
class ProblemInstance:
    A: SensingOperator
    b: np.ndarray
    x_true: np.ndarray
    noise: NoiseSpec
    seed: object
    p_white: np.ndarray
    p_impulse: np.ndarray


def _as_rng(seed):
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def gen_spikes(n, k, seed, field="real"):
    """k-sparse vector with uniform random support and Gaussian values.

    field="complex" draws circular complex Gaussians (unit variance in total);
    the default matches the real randn convention of the reference protocol.
    """
    if k <= 0 or k > n:
        raise ValueError("need 0 < k <= n, got k=%d n=%d" % (k, n))
    rng = _as_rng(seed)
    pos = rng.choice(n, size=k, replace=False)
    x = np.zeros(n, dtype=np.complex128)
    if field == "complex":
        x[pos] = (rng.standard_normal(k) + 1j * rng.standard_normal(k)) / np.sqrt(2.0)
    elif field == "real":
        x[pos] = rng.standard_normal(k)
    else:
        raise ValueError("field must be 'real' or 'complex', got %r" % (field,))
    return x


def _apply_noise(b_clean, sigma, impulse_fraction, rng, target_snr_db=None):
    """Core noise rule. Returns (b, p_white, p_impulse, scale).

    scale is the unit-infinity-norm factor applied (1.0 when no impulses);
    callers tracking a ground truth must multiply it by scale as well.
    """
    m = b_clean.size
    if target_snr_db is not None:
        w = rng.standard_normal(m)
        centered = b_clean - b_clean.mean()
        denom = np.linalg.norm(w) * 10.0 ** (target_snr_db / 20.0)
        p_white = (np.linalg.norm(centered) / denom) * w.astype(np.complex128)
    elif sigma > 0:
        p_white = sigma * rng.standard_normal(m).astype(np.complex128)
    else:
        p_white = np.zeros(m, dtype=np.complex128)
    b = b_clean + p_white
    p_impulse = np.zeros(m, dtype=np.complex128)
    scale = 1.0
    if impulse_fraction > 0:
        peak = float(np.max(np.abs(b)))
        if peak > 0:
            scale = 1.0 / peak
        b = b * scale
        p_white = p_white * scale
        t = int(round(impulse_fraction * m))
        if t > 0:
            pos = rng.choice(m, size=t, replace=False)
            corrupted = b.copy()
            corrupted[pos] = rng.choice(np.array([-1.0, 1.0]), size=t).astype(np.complex128)
            p_impulse = corrupted - b
            b = corrupted
    return b, p_white, p_impulse, scale


def add_noise(b_clean, sigma, impulse_fraction, seed, target_snr_db=None):
    """Measurement noise per the acquisition rule: optional white noise, then,
    when impulse_fraction > 0, rescale to unit infinity-norm and replace
    round(fraction*m) entries by +-1. Returns (b, p_white, p_impulse)."""
    b_clean = as_complex_vector(b_clean)
    spec = NoiseSpec(sigma=sigma, impulse_fraction=impulse_fraction, target_snr_db=target_snr_db)
    b, p_white, p_impulse, _ = _apply_noise(
        b_clean, spec.sigma, spec.impulse_fraction, _as_rng(seed), spec.target_snr_db
    )
    return b, p_white, p_impulse


def synthesize(A, k, noise, rng, field="real"):
    """Plant k spikes, measure them through A and add ``noise``.

    Draws from rng in that order: spike support, spike values, noise.
    Returns (b, x_true, p_white, p_impulse) with x_true in the scale of b.
    """
    x_true = gen_spikes(A.n, k, rng, field=field)
    b, p_white, p_impulse, scale = _apply_noise(
        A.apply(x_true), noise.sigma, noise.impulse_fraction, rng, noise.target_snr_db
    )
    return b, x_true * scale, p_white, p_impulse


def make_instance(kind, n, m, k, noise, seed, field="real"):
    """Build a seeded ProblemInstance; x_true is stored in the scale of b."""
    rng = _as_rng(seed)
    A = make_operator(kind, n, m, rng)
    b, x_true, p_white, p_impulse = synthesize(A, k, noise, rng, field=field)
    return ProblemInstance(
        A=A, b=b, x_true=x_true, noise=noise, seed=seed,
        p_white=p_white, p_impulse=p_impulse,
    )


# ---------------------------------------------------------------------------
# experiment configuration


@dataclass
class ExperimentConfig:
    protocol: str
    scale: str = "desk"
    n: Optional[int] = None
    trials: Optional[int] = None
    seed: int = 1234
    solvers: Optional[Sequence[str]] = None
    tol: Optional[float] = None
    max_iter: Optional[int] = None
    timing: bool = False
    grid: Optional[Sequence] = None

    def __post_init__(self):
        if self.protocol not in PROTOCOLS:
            raise ConfigError(
                "unknown protocol %r; valid protocols: %s" % (self.protocol, ", ".join(PROTOCOLS))
            )
        if self.scale not in ("desk", "full"):
            raise ConfigError("scale must be 'desk' or 'full', got %r" % (self.scale,))
        if self.trials is not None and self.trials < 1:
            raise ConfigError("trials must be >= 1")

    def resolved(self) -> dict:
        """Fill protocol defaults; the result fully pins run behavior."""
        p = self.protocol
        full = self.scale == "full"
        cfg = {"protocol": p, "scale": self.scale, "seed": int(self.seed), "timing": bool(self.timing)}
        if p.startswith("race"):
            n = self.n if self.n is not None else (8192 if full else 1024)
            grid = tuple(tuple(c) for c in (self.grid if self.grid is not None
                                            else (RACE_GRID_BP if p == "race-bp" else RACE_GRID)))
            if not grid:
                raise ConfigError("race grid must be nonempty")
            cfg.update(
                n=int(n),
                trials=int(self.trials if self.trials is not None else (50 if full else 10)),
                grid=[list(c) for c in grid],
                kind="wht",
                field="real",
                sigma=0.0 if p == "race-bp" else 1e-3,
                mu=1e-4 if p == "race-qp" else None,
                delta_rule="noise-norm" if p == "race-bpdn" else None,
                # ist and fista cover only the qp model
                solvers=list(self.solvers if self.solvers is not None else
                             {"race-qp": SOLVERS,
                              "race-bpdn": ("padm", "dadm"),
                              "race-bp": ("dadm",)}[p]),
                stop="relchg",
                tol=float(self.tol if self.tol is not None else (1e-6 if p == "race-bp" else 5e-4)),
                max_iter=int(self.max_iter if self.max_iter is not None else 1000),
            )
        elif p == "model-choice":
            n = int(self.n if self.n is not None else 1000)
            m = int(round(0.3 * n))
            cfg.update(
                n=n, m=m, k=int(round(0.2 * m)),
                trials=int(self.trials if self.trials is not None else (50 if full else 10)),
                grid=[float(v) for v in (self.grid if self.grid is not None else PARAM_GRID)],
                families=list(MODEL_FAMILIES),
                impulse_fraction=0.05,
                kind="dct",
                field="complex",
                solvers=list(self.solvers if self.solvers is not None else ("dadm",)),
                stop="res",
                tol=float(self.tol if self.tol is not None else 1e-8),
                max_iter=int(self.max_iter if self.max_iter is not None else 3000),
            )
            if not cfg["grid"]:
                raise ConfigError("parameter grid must be nonempty")
        else:  # err-vs-opt
            n = int(self.n if self.n is not None else 1000)
            cfg.update(
                n=n, m=int(round(0.33 * n)), k=int(round(0.06 * n)),
                trials=1,
                cases=["noiseless", "snr40"],
                kind="orthgauss",
                field="real",
                solvers=["dadm"],
                stop="res",
                tol=float(self.tol if self.tol is not None else 1e-14),
                max_iter=int(self.max_iter if self.max_iter is not None else 500),
            )
        return cfg


def _map_trials(fn, trials):
    """Run fn(0), ..., fn(trials - 1) in order; returns their results."""
    return [fn(t) for t in range(trials)]


# ---------------------------------------------------------------------------
# protocol runners


@dataclass
class ExperimentResult:
    config: dict
    trial_rows: list = field(default_factory=list)
    mean_rows: list = field(default_factory=list)
    timing_rows: list = field(default_factory=list)

    @property
    def hash(self):
        return config_hash(self.config)

    def write(self, outdir):
        os.makedirs(outdir, exist_ok=True)
        manifest_path = os.path.join(outdir, "manifest.json")
        new_hash = self.hash
        if os.path.exists(manifest_path):
            import json

            with open(manifest_path) as fh:
                old = json.load(fh)
            if old.get("config_hash") not in (None, new_hash):
                raise ConfigError(
                    "output dir %s holds a run with a different config hash "
                    "(%s vs %s); refusing to mix artifacts" % (outdir, old["config_hash"], new_hash)
                )
        protocol = self.config["protocol"]
        files = {"means": protocol + ".csv"}
        write_csv(
            os.path.join(outdir, files["means"]),
            CSV_HEADER,
            [_format_mean_row(r) for r in self.mean_rows],
        )
        if self.trial_rows:
            files["trials"] = protocol + "_trials.csv"
            write_csv(
                os.path.join(outdir, files["trials"]),
                CSV_HEADER_TRIALS,
                [_format_trial_row(r) for r in self.trial_rows],
            )
        import json

        from . import __version__

        manifest = {
            "protocol": protocol,
            "config": self.config,
            "config_hash": new_hash,
            "seed": self.config["seed"],
            "version": __version__,
            "deterministic": not self.config.get("timing", False),
            "files": files,
        }
        with open(manifest_path, "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
        with open(os.path.join(outdir, "timings.json"), "w") as fh:
            json.dump({"rows": self.timing_rows}, fh, indent=2)
            fh.write("\n")
        return manifest


def _format_trial_row(r):
    return (
        r["cell"], r["solver"], str(r["trial"]), str(r["iter"]), str(r["aat"]),
        "%.10e" % r["relerr_pct"], "%.10e" % r["res"], "%.6f" % r["seconds"],
    )


def _format_mean_row(r):
    return (
        r["cell"], r["solver"], "%.4f" % r["iter"], "%.4f" % r["aat"],
        "%.10e" % r["relerr_pct"], "%.10e" % r["res"], "%.6f" % r["seconds"],
    )


def _aggregate(trial_rows):
    order = []
    groups = {}
    for r in trial_rows:
        key = (r["cell"], r["solver"])
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(r)
    means = []
    for key in order:
        rows = groups[key]
        means.append({
            "cell": key[0],
            "solver": key[1],
            "iter": float(np.mean([r["iter"] for r in rows])),
            "aat": float(np.mean([r["aat"] for r in rows])),
            "relerr_pct": float(np.mean([r["relerr_pct"] for r in rows])),
            "res": float(np.mean([r["res"] for r in rows])),
            "seconds": float(np.mean([r["seconds"] for r in rows])),
        })
    return means


def _options(cfg, inst):
    return SolverOptions(tol=cfg["tol"], max_iter=cfg["max_iter"], stop=cfg["stop"],
                         x_true=inst.x_true)


def _trial_row(cfg, inst, cell, solver, trial, model):
    """Solve one trial and return its CSV row.

    The row's ``seconds`` stays 0.0 unless the config asks for timing; the
    measured wall time rides along as ``_measured`` for ``_add_trials``.
    """
    opts = _options(cfg, inst)
    t0 = time.perf_counter()
    rec = solve(solver, model, inst.A, inst.b, opts)
    dt = time.perf_counter() - t0
    return {
        "cell": cell, "solver": solver, "trial": trial,
        "iter": rec.iterations, "aat": rec.aat,
        "relerr_pct": relerr(rec.x, inst.x_true),
        "res": relres(inst.A, inst.b, rec.x),
        "seconds": dt if cfg["timing"] else 0.0,
        "_measured": dt,
    }


def _add_trials(result, per_trial_rows):
    """Append trial rows to the result, moving each measured time to a timing row."""
    for rows in per_trial_rows:
        for r in rows:
            result.timing_rows.append({
                "cell": r["cell"], "solver": r["solver"], "trial": r["trial"],
                "seconds": r.pop("_measured"),
            })
            result.trial_rows.append(r)


def run_solver_race(config: ExperimentConfig) -> ExperimentResult:
    cfg = config.resolved()
    if not cfg["protocol"].startswith("race"):
        raise ConfigError("run_solver_race needs a race-* protocol, got %s" % cfg["protocol"])
    n, trials = cfg["n"], cfg["trials"]
    result = ExperimentResult(config=cfg)
    for ci, (mn, km) in enumerate(cfg["grid"]):
        m = int(round(mn * n))
        k = int(round(km * m))
        cell = "mn%.1f_km%.1f" % (mn, km)
        noise = NoiseSpec(sigma=cfg["sigma"])

        def one_trial(ti, _ci=ci, _m=m, _k=k, _cell=cell, _noise=noise):
            ss = np.random.SeedSequence(entropy=cfg["seed"], spawn_key=(_ci, ti))
            inst = make_instance(cfg["kind"], n, _m, _k, _noise, ss, field=cfg["field"])
            if cfg["protocol"] == "race-qp":
                model = ModelSpec.qp(cfg["mu"])
            elif cfg["protocol"] == "race-bpdn":
                model = ModelSpec.bpdn(float(np.linalg.norm(inst.p_white)))
            else:
                model = ModelSpec.bp()
            return [_trial_row(cfg, inst, _cell, solver, ti, model) for solver in cfg["solvers"]]

        _add_trials(result, _map_trials(one_trial, trials))
    result.mean_rows = _aggregate(result.trial_rows)
    return result


def model_for_param(family, param):
    """Sweep-point model; parameter 0 collapses every family to plain BP."""
    if family not in MODEL_FAMILIES:
        raise ConfigError("unknown model family %r" % (family,))
    if param < 0:
        raise ConfigError("sweep parameter must be nonnegative, got %g" % param)
    if param == 0:
        return ModelSpec.bp()
    if family == "bp_nu":
        return ModelSpec.bpdn(param)
    if family == "qp":
        return ModelSpec.qp(param)
    return ModelSpec.l1l1(param)


def run_model_choice_sweep(config: ExperimentConfig) -> ExperimentResult:
    cfg = config.resolved()
    if cfg["protocol"] != "model-choice":
        raise ConfigError("run_model_choice_sweep needs the model-choice protocol")
    n, m, k, trials = cfg["n"], cfg["m"], cfg["k"], cfg["trials"]
    noise = NoiseSpec(impulse_fraction=cfg["impulse_fraction"])
    solver = cfg["solvers"][0]

    def one_trial(ti):
        ss = np.random.SeedSequence(entropy=cfg["seed"], spawn_key=(0, ti))
        inst = make_instance(cfg["kind"], n, m, k, noise, ss, field=cfg["field"])
        return [_trial_row(cfg, inst, "%s:%.2f" % (family, param), solver, ti,
                           model_for_param(family, param))
                for family in cfg["families"] for param in cfg["grid"]]

    result = ExperimentResult(config=cfg)
    _add_trials(result, _map_trials(one_trial, trials))
    # figure-axis order: cells grouped by family then parameter, not by trial
    result.trial_rows.sort(key=lambda r: (cfg["families"].index(r["cell"].split(":")[0]),
                                          float(r["cell"].split(":")[1]), r["trial"]))
    result.mean_rows = _aggregate(result.trial_rows)
    return result


def run_error_vs_optimality(config: ExperimentConfig) -> ExperimentResult:
    cfg = config.resolved()
    if cfg["protocol"] != "err-vs-opt":
        raise ConfigError("run_error_vs_optimality needs the err-vs-opt protocol")
    result = ExperimentResult(config=cfg)
    for ci, case in enumerate(cfg["cases"]):
        noise = NoiseSpec() if case == "noiseless" else NoiseSpec(target_snr_db=40.0)
        ss = np.random.SeedSequence(entropy=cfg["seed"], spawn_key=(ci, 0))
        inst = make_instance(cfg["kind"], cfg["n"], cfg["m"], cfg["k"], noise, ss, field=cfg["field"])
        opts = _options(cfg, inst)
        t0 = time.perf_counter()
        rec = solve("dadm", ModelSpec.bp(), inst.A, inst.b, opts)
        dt = time.perf_counter() - t0
        for i, diag in enumerate(rec.history):
            result.mean_rows.append({
                "cell": case, "solver": "dadm",
                "iter": float(i + 1), "aat": float(rec.aat_history[i]),
                "relerr_pct": float(diag.relerr), "res": float(diag.res),
                "seconds": 0.0,
            })
        result.timing_rows.append({"cell": case, "solver": "dadm", "trial": 0, "seconds": dt})
    return result


def run_protocol(config: ExperimentConfig) -> ExperimentResult:
    if config.protocol == "model-choice":
        return run_model_choice_sweep(config)
    if config.protocol == "err-vs-opt":
        return run_error_vs_optimality(config)
    return run_solver_race(config)
