"""Seeded synthetic experiments: instance generation, the experiment
protocols, trial aggregation, and CSV/JSON persistence.

``run_protocol`` is the one experiment entry point, and ``PROTOCOL_DEFAULTS``
holds every protocol's settings. A protocol runs instance groups: a race has
one per grid cell, and model-choice has one whose family x parameter cells
share each trial's instance, and cells that map to one model (the
parameter-0 cells, all plain bp) share one solve. err-vs-opt instead records
the per-iteration history of one dadm solve per noise case; its trial count,
solver and cases are fixed, and overriding them is an error.

Every protocol scores a solve by the relative error and residual of the
returned x. Only err-vs-opt, which plots the error of every iterate against
its optimality residue, hands the ground truth to the solve.

Reproducibility contract: every artifact embeds the resolved config, its hash,
and the base seed. Trial t of group g always draws from
SeedSequence(entropy=seed, spawn_key=(g, t)), so results are independent of
execution order. Within one instance the generator is consumed in a fixed
order: operator, spike support, spike values, noise.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError
from .io import config_hash, write_csv
from .models import ModelSpec, relerr, relres
from .operators import SensingOperator, make_operator
from .solvers import SOLVERS, SolverOptions, solve

# (m/n, k/m) cells of the solver races; the basis-pursuit race drops the
# densest cell (0.1, 0.2).
RACE_GRID = ((0.3, 0.1), (0.3, 0.2), (0.2, 0.1), (0.2, 0.2), (0.1, 0.1), (0.1, 0.2))
RACE_GRID_BP = RACE_GRID[:5]

# Sweep values for the model-choice protocol: 21 evenly spaced points in [0,1];
# parameter 0 runs plain basis pursuit for every model family.
PARAM_GRID = tuple(round(v, 10) for v in np.linspace(0.0, 1.0, 21))
MODEL_FAMILIES = ("bp_nu", "qp", "l1l1")

_RACE = dict(n=(1024, 8192), trials=(10, 50), kind="wht", field="real", mu=None,
             delta_rule=None, stop="relchg", tol=5e-4, max_iter=1000)

# Every protocol's settings. n and trials are (desk, full) pairs; m and k are
# (base, fraction) rules that resolve to round(fraction * base). The races
# size m and k per grid cell instead, and ist and fista cover only qp.
PROTOCOL_DEFAULTS = {
    "model-choice": dict(n=(1000, 1000), m=("n", 0.3), k=("m", 0.2), trials=(10, 50),
                         grid=PARAM_GRID, families=MODEL_FAMILIES, impulse_fraction=0.05,
                         kind="dct", field="complex", solvers=("dadm",), stop="res",
                         tol=1e-8, max_iter=3000),
    "err-vs-opt": dict(n=(1000, 1000), m=("n", 0.33), k=("n", 0.06), trials=(1, 1),
                       cases=("noiseless", "snr40"), kind="orthgauss", field="real",
                       solvers=("dadm",), stop="res", tol=1e-14, max_iter=500),
    "race-qp": dict(_RACE, grid=RACE_GRID, sigma=1e-3, mu=1e-4, solvers=SOLVERS),
    "race-bpdn": dict(_RACE, grid=RACE_GRID, sigma=1e-3, delta_rule="noise-norm",
                      solvers=("padm", "dadm")),
    "race-bp": dict(_RACE, grid=RACE_GRID_BP, sigma=0.0, solvers=("dadm",), tol=1e-6),
}
PROTOCOLS = tuple(PROTOCOL_DEFAULTS)

# The experiment CSV columns as (name, trial-row format, mean-row format).
# The means CSV groups trial rows by the "%s" columns and averages each other
# column that has a mean format; "trial" has none.
CSV_COLUMNS = (
    ("cell", "%s", "%s"),
    ("solver", "%s", "%s"),
    ("trial", "%d", None),
    ("iter", "%d", "%.4f"),
    ("aat", "%d", "%.4f"),
    ("relerr_pct", "%.10e", "%.10e"),
    ("res", "%.10e", "%.10e"),
    ("seconds", "%.6f", "%.6f"),
)
_TRIAL_FORMATS = [(name, fmt) for name, fmt, _ in CSV_COLUMNS]
_MEAN_FORMATS = [(name, fmt) for name, _, fmt in CSV_COLUMNS if fmt]
_MEAN_KEYS = tuple(name for name, fmt in _MEAN_FORMATS if fmt == "%s")


# ---------------------------------------------------------------------------
# instance generation


@dataclass(frozen=True)
class NoiseSpec:
    """White noise level (std or target SNR) plus impulsive corruption rate."""

    sigma: float = 0.0
    impulse_fraction: float = 0.0
    target_snr_db: Optional[float] = None

    def __post_init__(self):
        # Chained comparisons, so that NaN fails them too.
        if not 0.0 <= self.sigma < np.inf:
            raise ValueError("sigma must be finite and nonnegative, got %g" % self.sigma)
        if not 0.0 <= self.impulse_fraction <= 1.0:
            raise ValueError("impulse_fraction must lie in [0, 1], got %g" % self.impulse_fraction)
        if self.target_snr_db is not None and not -np.inf < self.target_snr_db < np.inf:
            raise ValueError("target_snr_db must be finite, got %g" % self.target_snr_db)
        if self.target_snr_db is not None and self.sigma > 0:
            raise ValueError("give either sigma or target_snr_db, not both")


@dataclass
class ProblemInstance:
    A: SensingOperator
    b: np.ndarray
    x_true: np.ndarray
    p_white: np.ndarray
    p_impulse: np.ndarray


def gen_spikes(n, k, seed, field="real"):
    """k-sparse vector with uniform random support and Gaussian values.

    field="complex" draws circular complex Gaussians (unit variance in total);
    the default matches the real randn convention of the reference protocol.
    """
    if k <= 0 or k > n:
        raise ValueError("need 0 < k <= n, got k=%d n=%d" % (k, n))
    rng = np.random.default_rng(seed)
    pos = rng.choice(n, size=k, replace=False)
    x = np.zeros(n, dtype=np.complex128)
    if field == "complex":
        x[pos] = (rng.standard_normal(k) + 1j * rng.standard_normal(k)) / np.sqrt(2.0)
    elif field == "real":
        x[pos] = rng.standard_normal(k)
    else:
        raise ValueError("field must be 'real' or 'complex', got %r" % (field,))
    return x


def _apply_noise(b_clean, noise, rng):
    """Core noise rule for a NoiseSpec. Returns (b, p_white, p_impulse, scale).

    scale is the unit-infinity-norm factor applied (1.0 when no impulses);
    callers tracking a ground truth must multiply it by scale as well.
    """
    m = b_clean.size
    if noise.target_snr_db is not None:
        w = rng.standard_normal(m)
        centered = b_clean - b_clean.mean()
        denom = np.linalg.norm(w) * 10.0 ** (noise.target_snr_db / 20.0)
        p_white = (np.linalg.norm(centered) / denom) * w.astype(np.complex128)
    elif noise.sigma > 0:
        p_white = noise.sigma * rng.standard_normal(m).astype(np.complex128)
    else:
        p_white = np.zeros(m, dtype=np.complex128)
    b = b_clean + p_white
    p_impulse = np.zeros(m, dtype=np.complex128)
    scale = 1.0
    if noise.impulse_fraction > 0:
        peak = float(np.max(np.abs(b)))
        if peak > 0:
            scale = 1.0 / peak
        b = b * scale
        p_white = p_white * scale
        t = int(round(noise.impulse_fraction * m))
        if t > 0:
            pos = rng.choice(m, size=t, replace=False)
            corrupted = b.copy()
            corrupted[pos] = rng.choice(np.array([-1.0, 1.0]), size=t).astype(np.complex128)
            p_impulse = corrupted - b
            b = corrupted
    return b, p_white, p_impulse, scale


def synthesize(A, k, noise, rng, field="real"):
    """Plant k spikes, measure them through A and add ``noise``.

    Draws from rng in that order: spike support, spike values, noise.
    Returns (b, x_true, p_white, p_impulse) with x_true in the scale of b.
    """
    x_true = gen_spikes(A.n, k, rng, field=field)
    b, p_white, p_impulse, scale = _apply_noise(A.apply(x_true), noise, rng)
    return b, x_true * scale, p_white, p_impulse


def make_instance(kind, n, m, k, noise, seed, field="real"):
    """Build a seeded ProblemInstance; x_true is stored in the scale of b."""
    rng = np.random.default_rng(seed)
    A = make_operator(kind, n, m, rng)
    b, x_true, p_white, p_impulse = synthesize(A, k, noise, rng, field=field)
    return ProblemInstance(A=A, b=b, x_true=x_true, p_white=p_white, p_impulse=p_impulse)


# ---------------------------------------------------------------------------
# experiment configuration

# the type resolved() gives a setting, whether overridden or default
_CASTS = {"n": int, "trials": int, "tol": float, "max_iter": int,
          "solvers": list, "families": list, "cases": list}


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
        fixed = [key for key in ("trials", "solvers", "grid") if getattr(self, key) is not None]
        if self.protocol == "err-vs-opt" and fixed:
            raise ConfigError("err-vs-opt fixes its %s; drop the override" % ", ".join(fixed))

    def resolved(self) -> dict:
        """Fill protocol defaults; the result fully pins run behavior."""
        full = self.scale == "full"
        cfg = {"protocol": self.protocol, "scale": self.scale, "seed": int(self.seed),
               "timing": bool(self.timing)}
        # a key that is no field of the config (kind, sigma, ...) always takes the default
        for key, default in PROTOCOL_DEFAULTS[self.protocol].items():
            value = getattr(self, key, None)
            if value is None:
                value = default[full] if key in ("n", "trials") else default
            if key in ("m", "k"):
                base, fraction = value
                value = int(round(fraction * cfg[base]))
            cfg[key] = _CASTS[key](value) if key in _CASTS else value
        if "grid" in cfg:
            race = self.protocol.startswith("race")
            cfg["grid"] = [list(c) if race else float(c) for c in cfg["grid"]]
            if not cfg["grid"]:
                raise ConfigError("grid must be nonempty")
        return cfg


def _map_trials(fn, trials):
    """Run fn(0), ..., fn(trials - 1) in order; returns their results."""
    return [fn(t) for t in range(trials)]


# ---------------------------------------------------------------------------
# the experiment path


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
            with open(manifest_path) as fh:
                old = json.load(fh)
            if old.get("config_hash") not in (None, new_hash):
                raise ConfigError(
                    "output dir %s holds a run with a different config hash "
                    "(%s vs %s); refusing to mix artifacts" % (outdir, old["config_hash"], new_hash)
                )
        protocol = self.config["protocol"]
        files = {"means": protocol + ".csv"}
        _write_rows(os.path.join(outdir, files["means"]), self.mean_rows, _MEAN_FORMATS)
        if self.trial_rows:
            files["trials"] = protocol + "_trials.csv"
            _write_rows(os.path.join(outdir, files["trials"]), self.trial_rows, _TRIAL_FORMATS)
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


def _write_rows(path, rows, formats):
    """One CSV of ``rows``: a header of the column names, then each row formatted."""
    write_csv(path, [name for name, _ in formats],
              [[fmt % r[name] for name, fmt in formats] for r in rows])


def _aggregate(trial_rows):
    """One mean row per (cell, solver) group, in first-seen order."""
    groups = {}
    for r in trial_rows:
        groups.setdefault(tuple(r[key] for key in _MEAN_KEYS), []).append(r)
    means = []
    for key, rows in groups.items():
        mean = dict(zip(_MEAN_KEYS, key))
        for name, _ in _MEAN_FORMATS:
            if name not in mean:
                mean[name] = float(np.mean([r[name] for r in rows]))
        means.append(mean)
    return means


def _options(cfg):
    return SolverOptions(tol=cfg["tol"], max_iter=cfg["max_iter"], stop=cfg["stop"])


def _trial_row(cfg, inst, cell, solver, trial, model):
    """Solve one trial and return its CSV row.

    The row's ``seconds`` stays 0.0 unless the config asks for timing; the
    measured wall time rides along as ``_measured`` for ``run_protocol``.
    """
    t0 = time.perf_counter()
    rec = solve(solver, model, inst.A, inst.b, _options(cfg))
    dt = time.perf_counter() - t0
    return {
        "cell": cell, "solver": solver, "trial": trial,
        "iter": rec.iterations, "aat": rec.aat,
        "relerr_pct": relerr(rec.x, inst.x_true),
        "res": relres(inst.A, inst.b, rec.x),
        "seconds": dt if cfg["timing"] else 0.0,
        "_measured": dt,
    }


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


def _race_model(cfg, inst):
    """qp at the race's mu, bpdn at the instance's noise norm, or plain bp."""
    if cfg["mu"] is not None:
        return ModelSpec.qp(cfg["mu"])
    if cfg["delta_rule"] == "noise-norm":
        return ModelSpec.bpdn(float(np.linalg.norm(inst.p_white)))
    return ModelSpec.bp()


def _groups(cfg):
    """The protocol's instance groups as (m, k, noise, cells).

    A cell is (label, instance -> ModelSpec), and every cell of a group
    solves each trial's one instance. A race has one group per grid cell.
    Model-choice has one group; its family x parameter cells follow the
    figure axis: by family, then by parameter value.

    Labels round their parameters and name the mean rows, so two cells
    whose labels print alike would share one mean row: ConfigError.
    """
    if cfg["protocol"] == "model-choice":
        cells = [("%s:%.2f" % (f, v), lambda inst, f=f, v=v: model_for_param(f, v))
                 for f in cfg["families"] for v in sorted(cfg["grid"])]
        groups = [(cfg["m"], cfg["k"], NoiseSpec(impulse_fraction=cfg["impulse_fraction"]), cells)]
    else:
        groups = []
        for mn, km in cfg["grid"]:
            m = int(round(mn * cfg["n"]))
            cells = [("mn%.1f_km%.1f" % (mn, km), lambda inst: _race_model(cfg, inst))]
            groups.append((m, int(round(km * m)), NoiseSpec(sigma=cfg["sigma"]), cells))
    labels = [label for *_, cells in groups for label, _ in cells]
    shared = sorted({label for label in labels if labels.count(label) > 1})
    if shared:
        raise ConfigError("grid cells share the label(s) %s; give each cell a value that "
                          "prints distinctly" % ", ".join(shared))
    return groups


# noise of the err-vs-opt cases
_CASE_NOISE = {"noiseless": NoiseSpec(), "snr40": NoiseSpec(target_snr_db=40.0)}


def _error_vs_optimality(cfg):
    """One bp solve per case; its per-iteration history becomes the means CSV."""
    result = ExperimentResult(config=cfg)
    for c, case in enumerate(cfg["cases"]):
        ss = np.random.SeedSequence(entropy=cfg["seed"], spawn_key=(c, 0))
        inst = make_instance(cfg["kind"], cfg["n"], cfg["m"], cfg["k"], _CASE_NOISE[case], ss,
                             field=cfg["field"])
        for solver in cfg["solvers"]:
            opts = replace(_options(cfg), history=True, x_true=inst.x_true)
            t0 = time.perf_counter()
            rec = solve(solver, ModelSpec.bp(), inst.A, inst.b, opts)
            dt = time.perf_counter() - t0
            result.mean_rows += [
                {"cell": case, "solver": solver, "iter": float(i + 1),
                 "aat": float(rec.aat_history[i]), "relerr_pct": float(diag.relerr),
                 "res": float(diag.res), "seconds": 0.0}
                for i, diag in enumerate(rec.history)
            ]
            result.timing_rows.append({"cell": case, "solver": solver, "trial": 0, "seconds": dt})
    return result


def run_protocol(config: ExperimentConfig) -> ExperimentResult:
    """Run one experiment protocol; the one experiment entry point.

    Trial t of group g solves the instance drawn from SeedSequence(seed,
    (g, t)) with every listed solver on every cell of the group; cells with
    the same model share one solve and its row. Trial rows go group by
    group, then cell by cell, trial by trial, solver by solver.
    """
    cfg = config.resolved()
    if cfg["protocol"] == "err-vs-opt":
        return _error_vs_optimality(cfg)
    result = ExperimentResult(config=cfg)
    for g, (m, k, noise, cells) in enumerate(_groups(cfg)):

        def one_trial(t):
            ss = np.random.SeedSequence(entropy=cfg["seed"], spawn_key=(g, t))
            inst = make_instance(cfg["kind"], cfg["n"], m, k, noise, ss, field=cfg["field"])
            # Cells that map to one model (model-choice's parameter-0 cells
            # are all plain bp) share its solve, timing included.
            rows, solved = [], {}
            for label, model_of in cells:
                model = model_of(inst)
                for solver in cfg["solvers"]:
                    key = (json.dumps(model.to_dict()), solver)
                    if key not in solved:
                        solved[key] = _trial_row(cfg, inst, label, solver, t, model)
                    rows.append(dict(solved[key], cell=label))
            return rows

        rows = [r for trial_rows in _map_trials(one_trial, cfg["trials"]) for r in trial_rows]
        # cell by cell, trial by trial
        labels = [label for label, _ in cells]
        rows.sort(key=lambda r: (labels.index(r["cell"]), r["trial"]))
        for r in rows:
            result.timing_rows.append({"cell": r["cell"], "solver": r["solver"],
                                       "trial": r["trial"], "seconds": r.pop("_measured")})
            result.trial_rows.append(r)
    result.mean_rows = _aggregate(result.trial_rows)
    return result
