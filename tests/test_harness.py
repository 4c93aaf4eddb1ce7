"""Synthetic instance generation and the experiment protocols.

The harness has one hard guarantee worth testing aggressively: a resolved
config plus a seed pins every CSV cell bit for bit. Everything else here
checks the documented noise rules and the shape of the protocol outputs on
desk-tiny instances.
"""

import numpy as np
import pytest

from adl1 import harness
from adl1.errors import ConfigError
from adl1.harness import (
    MODEL_FAMILIES,
    PARAM_GRID,
    PROTOCOLS,
    RACE_GRID,
    ExperimentConfig,
    NoiseSpec,
    _aggregate,
    gen_spikes,
    make_instance,
    model_for_param,
    run_protocol,
)
from adl1.models import ModelSpec
from adl1.solvers import RunRecord

from oracles import add_noise


# ---------------------------------------------------------------------------
# spikes and noise


def test_gen_spikes_support_and_fields(rng):
    x = gen_spikes(200, 17, rng)
    assert x.dtype == np.complex128
    assert np.count_nonzero(x) == 17
    assert np.all(x.imag == 0.0)

    z = gen_spikes(200, 17, rng, field="complex")
    assert np.count_nonzero(z.imag) == 17

    dense = gen_spikes(50, 50, rng)
    assert np.count_nonzero(dense) == 50


def test_gen_spikes_complex_unit_variance(rng):
    # circular complex draws are scaled so E|z|^2 stays 1 like the real case
    z = gen_spikes(4000, 4000, rng, field="complex")
    assert abs(np.mean(np.abs(z) ** 2) - 1.0) < 0.1


def test_gen_spikes_validation(rng):
    with pytest.raises(ValueError, match="0 < k <= n"):
        gen_spikes(10, 0, rng)
    with pytest.raises(ValueError, match="0 < k <= n"):
        gen_spikes(10, 11, rng)
    with pytest.raises(ValueError, match="field"):
        gen_spikes(10, 2, rng, field="quaternion")


def test_gen_spikes_seed_forms(rng):
    assert np.array_equal(gen_spikes(40, 6, 123), gen_spikes(40, 6, 123))
    # a Generator is used in place, so consecutive calls advance its state
    assert not np.array_equal(gen_spikes(40, 6, rng), gen_spikes(40, 6, rng))


def test_noise_spec_validation():
    NoiseSpec(sigma=0.1)
    NoiseSpec(target_snr_db=40.0)
    with pytest.raises(ValueError, match="nonnegative"):
        NoiseSpec(sigma=-1.0)
    with pytest.raises(ValueError, match="impulse_fraction"):
        NoiseSpec(impulse_fraction=1.5)
    with pytest.raises(ValueError, match="not both"):
        NoiseSpec(sigma=0.1, target_snr_db=40.0)


def test_noise_spec_rejects_nonfinite_levels():
    for kwargs in (dict(sigma=float("nan")), dict(sigma=float("inf")),
                   dict(target_snr_db=float("nan")), dict(target_snr_db=float("inf"))):
        with pytest.raises(ValueError):
            NoiseSpec(**kwargs)


def test_add_noise_identity_when_clean(rng):
    b = rng.standard_normal(30) + 1j * rng.standard_normal(30)
    bn, pw, pi = add_noise(b, 0.0, 0.0, 7)
    assert np.array_equal(bn, b)
    assert not pw.any() and not pi.any()


def test_add_noise_white_component(rng):
    b = rng.standard_normal(5000) + 0j
    bn, pw, pi = add_noise(b, 1e-2, 0.0, 11)
    assert np.array_equal(bn, b + pw)
    assert not pi.any()
    assert np.linalg.norm(pw) / np.sqrt(b.size) == pytest.approx(1e-2, rel=0.3)


def test_add_noise_impulse_replacement(rng):
    m = 300
    b = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    bn, pw, pi = add_noise(b, 0.0, 0.05, 13)
    scale = 1.0 / np.max(np.abs(b))
    hit = np.flatnonzero(pi)
    # round(0.05 * 300) measurements are overwritten by unit spikes
    assert hit.size == 15
    assert np.all(np.isin(bn[hit].real, (-1.0, 1.0)))
    assert np.all(bn[hit].imag == 0.0)
    keep = np.setdiff1d(np.arange(m), hit)
    assert np.array_equal(bn[keep], b[keep] * scale)
    assert np.max(np.abs(bn)) == pytest.approx(1.0, abs=1e-12)


def test_add_noise_hits_target_snr(rng):
    b = rng.standard_normal(400) + 0j
    bn, pw, _ = add_noise(b, 0.0, 0.0, 17, target_snr_db=40.0)
    centered = b - b.mean()
    realized = 20.0 * np.log10(np.linalg.norm(centered) / np.linalg.norm(pw))
    assert realized == pytest.approx(40.0, abs=1e-9)


# ---------------------------------------------------------------------------
# instances


def test_make_instance_is_seed_reproducible():
    def build():
        ss = np.random.SeedSequence(entropy=99, spawn_key=(2, 5))
        return make_instance("dct", 64, 20, 5, NoiseSpec(sigma=1e-3), ss)

    a, b = build(), build()
    assert np.array_equal(a.b, b.b)
    assert np.array_equal(a.x_true, b.x_true)
    probe = np.arange(64, dtype=np.complex128)
    assert np.array_equal(a.A.apply(probe), b.A.apply(probe))

    other = make_instance("dct", 64, 20, 5, NoiseSpec(sigma=1e-3),
                          np.random.SeedSequence(entropy=99, spawn_key=(2, 6)))
    assert not np.array_equal(a.b, other.b)


def test_make_instance_noiseless_consistency():
    inst = make_instance("orthgauss", 48, 16, 4, NoiseSpec(), 21)
    assert np.array_equal(inst.b, inst.A.apply(inst.x_true))


def test_make_instance_rescales_truth_with_b():
    # impulse corruption renormalizes b; x_true must live in the same scale
    inst = make_instance("dct", 128, 40, 8, NoiseSpec(impulse_fraction=0.1), 23)
    recon = inst.b - inst.p_white - inst.p_impulse
    assert np.allclose(inst.A.apply(inst.x_true), recon, atol=1e-13)
    assert np.count_nonzero(inst.p_impulse) == 4


def test_make_instance_rejects_unknown_kind():
    with pytest.raises(ConfigError, match="unknown operator kind"):
        make_instance("fft", 32, 8, 2, NoiseSpec(), 0)


# ---------------------------------------------------------------------------
# parameter sweep mapping


def test_model_for_param_zero_collapses_to_equality_model():
    for family in MODEL_FAMILIES:
        assert model_for_param(family, 0.0).family == "bp"


def test_model_for_param_families():
    assert model_for_param("bp_nu", 0.25).delta == 0.25
    assert model_for_param("bp_nu", 0.25).family == "bpdn"
    assert model_for_param("qp", 0.4).mu == 0.4
    assert model_for_param("l1l1", 0.7).nu == 0.7
    with pytest.raises(ConfigError):
        model_for_param("qp", -0.1)
    with pytest.raises(ConfigError):
        model_for_param("ridge", 0.5)


# ---------------------------------------------------------------------------
# experiment configuration


def test_config_validation():
    with pytest.raises(ConfigError, match="valid protocols"):
        ExperimentConfig("warp")
    with pytest.raises(ConfigError, match="desk"):
        ExperimentConfig("race-qp", scale="huge")
    with pytest.raises(ConfigError, match="trials"):
        ExperimentConfig("race-qp", trials=0)
    with pytest.raises(ConfigError, match="nonempty"):
        ExperimentConfig("race-qp", grid=[]).resolved()
    with pytest.raises(ConfigError, match="nonempty"):
        ExperimentConfig("model-choice", grid=[]).resolved()
    # err-vs-opt fixes its trial count, solver and cases: an override is an error
    for knob in (dict(trials=3), dict(solvers=("padm",)), dict(grid=[0.5])):
        with pytest.raises(ConfigError, match="err-vs-opt"):
            ExperimentConfig("err-vs-opt", **knob)


def test_resolved_defaults_race():
    qp = ExperimentConfig("race-qp").resolved()
    assert qp["n"] == 1024 and qp["trials"] == 10
    assert qp["solvers"] == ["padm", "dadm", "ist", "fista"]
    assert qp["sigma"] == 1e-3 and qp["mu"] == 1e-4
    assert qp["tol"] == 5e-4 and qp["kind"] == "wht"
    assert qp["grid"] == [list(c) for c in RACE_GRID]

    bpdn = ExperimentConfig("race-bpdn").resolved()
    assert bpdn["solvers"] == ["padm", "dadm"]
    assert bpdn["delta_rule"] == "noise-norm"

    bp = ExperimentConfig("race-bp").resolved()
    assert bp["solvers"] == ["dadm"]
    assert bp["sigma"] == 0.0 and bp["tol"] == 1e-6
    assert len(bp["grid"]) == 5  # densest sampling cell is dropped

    full = ExperimentConfig("race-qp", scale="full").resolved()
    assert full["n"] == 8192 and full["trials"] == 50


def test_resolved_defaults_sweeps():
    mc = ExperimentConfig("model-choice").resolved()
    assert (mc["n"], mc["m"], mc["k"]) == (1000, 300, 60)
    assert mc["families"] == list(MODEL_FAMILIES)
    assert mc["grid"] == [float(v) for v in PARAM_GRID]
    assert len(mc["grid"]) == 21 and mc["grid"][0] == 0.0 and mc["grid"][-1] == 1.0
    assert mc["impulse_fraction"] == 0.05
    assert (mc["kind"], mc["field"], mc["stop"]) == ("dct", "complex", "res")

    eo = ExperimentConfig("err-vs-opt").resolved()
    assert (eo["n"], eo["m"], eo["k"], eo["trials"]) == (1000, 330, 60, 1)
    assert eo["cases"] == ["noiseless", "snr40"]
    assert (eo["kind"], eo["tol"], eo["max_iter"]) == ("orthgauss", 1e-14, 500)


# ---------------------------------------------------------------------------
# protocols, desk-tiny


def _tiny_race(**kw):
    base = dict(n=64, trials=3, max_iter=200, grid=[(0.3, 0.2)], seed=5)
    base.update(kw)
    return ExperimentConfig("race-qp", **base)


def test_race_rows_and_determinism():
    res = run_protocol(_tiny_race())
    res2 = run_protocol(_tiny_race())
    assert res.trial_rows == res2.trial_rows
    assert res.mean_rows == res2.mean_rows

    assert len(res.trial_rows) == 3 * 4  # trials x solvers in the one cell
    assert [r["solver"] for r in res.mean_rows] == ["padm", "dadm", "ist", "fista"]
    for r in res.trial_rows:
        assert r["cell"] == "mn0.3_km0.2"
        assert r["aat"] >= 2 * r["iter"]
        assert 0.0 < r["relerr_pct"] < 100.0 and np.isfinite(r["res"])
        assert r["seconds"] == 0.0  # measured times go to timing_rows, never the CSV
    assert len(res.timing_rows) == len(res.trial_rows)
    assert all(t["seconds"] > 0.0 for t in res.timing_rows)


@pytest.mark.parametrize("protocol,overrides,rows", [
    ("race-qp", dict(n=128, max_iter=120), 6 * 4 * 3),
    ("race-bp", dict(n=128, max_iter=120), 5 * 3),
    ("race-bpdn", dict(n=128, max_iter=120), 6 * 2 * 3),
    ("model-choice", dict(n=100, grid=[0.0, 0.2, 0.5]), 3 * 3 * 3),
], ids=["race-qp", "race-bp", "race-bpdn", "model-choice"])
def test_trial_rows_do_not_depend_on_batching(tmp_path, monkeypatch, protocol, overrides, rows):
    # The solves of a model family run in batches of LANE_ENTRIES // n
    # lanes, a complex entry counting two: every lane solo, split batches
    # (the full-scale case, where 2 lanes meet 50 trials; model-choice's
    # then mix the lanes of two cells), or one batch. Each lane is its solo
    # solve, whatever the parameter of the lanes beside it, so the trial
    # rows are the same bytes whatever the batching.
    entries = overrides["n"] * (2 if protocol == "model-choice" else 1)
    stacked = []
    solve_lanes = harness.solve_lanes
    monkeypatch.setattr(harness, "solve_lanes", lambda solver, model, *args: (
        stacked.append(model.lanes), solve_lanes(solver, model, *args))[1])
    written = []
    for lane_entries in (entries, 2 * entries, harness.LANE_ENTRIES):
        monkeypatch.setattr(harness, "LANE_ENTRIES", lane_entries)
        out = tmp_path / str(lane_entries)
        run_protocol(ExperimentConfig(protocol, trials=3, seed=7, **overrides)).write(out)
        written.append((out / (protocol + "_trials.csv")).read_bytes())
    assert written[0].count(b"\n") == 1 + rows
    assert written[1] == written[0] and written[2] == written[0]
    # race-bpdn's trials, and model-choice's cells, batch across parameters
    assert (2 in stacked) == (protocol in ("race-bpdn", "model-choice"))


@pytest.mark.parametrize("protocol,n,lanes", [("model-choice", 1000, 5), ("race-qp", 1024, 10),
                                              ("race-qp", 8192, 1)])
def test_lane_cap_counts_float64_entries(monkeypatch, protocol, n, lanes):
    # LANE_ENTRIES caps a batch's signal entries, a complex one counting two.
    cfg = ExperimentConfig(protocol, n=n).resolved()
    insts = [make_instance(cfg["kind"], n, 16, 2, NoiseSpec(), 60 + i, field=cfg["field"])
             for i in range(2 * lanes + 1)]
    batches = []

    def record(solver, model, A, b, opts):
        batches.append(len(b))
        return [RunRecord(solver, "bp", "converged", 1, 2, np.zeros(n, complex))
                for _ in b]

    monkeypatch.setattr(harness, "solve_lanes", record)
    harness._lane_rows(cfg, insts, "dadm", [ModelSpec.bp()] * len(insts))
    assert batches == [lanes, lanes, 1]


def test_mean_rows_are_trial_averages():
    res = run_protocol(_tiny_race())
    for mean in res.mean_rows:
        group = [r for r in res.trial_rows
                 if (r["cell"], r["solver"]) == (mean["cell"], mean["solver"])]
        assert len(group) == 3
        for col in ("iter", "aat", "relerr_pct", "res", "seconds"):
            assert mean[col] == float(np.mean([r[col] for r in group]))


def test_aggregate_preserves_first_seen_order():
    rows = [
        {"cell": "b", "solver": "s", "trial": 0, "iter": 2, "aat": 4,
         "relerr_pct": 1.0, "res": 0.1, "seconds": 0.0},
        {"cell": "a", "solver": "s", "trial": 0, "iter": 4, "aat": 8,
         "relerr_pct": 3.0, "res": 0.3, "seconds": 0.0},
        {"cell": "b", "solver": "s", "trial": 1, "iter": 4, "aat": 8,
         "relerr_pct": 3.0, "res": 0.3, "seconds": 0.0},
    ]
    means = _aggregate(rows)
    assert [r["cell"] for r in means] == ["b", "a"]
    assert means[0]["iter"] == 3.0 and means[0]["relerr_pct"] == 2.0


def test_model_choice_sweep_tiny():
    cfg = ExperimentConfig("model-choice", n=64, trials=2, max_iter=400,
                           grid=[0.0, 0.5], seed=9)
    res = run_protocol(cfg)
    rows = {r["cell"]: r for r in res.mean_rows}
    assert set(rows) == {"bp_nu:0.00", "bp_nu:0.50", "qp:0.00", "qp:0.50",
                         "l1l1:0.00", "l1l1:0.50"}

    # parameter 0 runs the identical equality-constrained solve in each family
    zero = [rows["bp_nu:0.00"], rows["qp:0.00"], rows["l1l1:0.00"]]
    assert zero[0]["relerr_pct"] == zero[1]["relerr_pct"] == zero[2]["relerr_pct"]
    assert zero[0]["iter"] == zero[1]["iter"] == zero[2]["iter"]

    # under 5% impulsive corruption only the l1-fidelity model recovers
    assert rows["l1l1:0.50"]["relerr_pct"] < 1.0
    assert rows["qp:0.50"]["relerr_pct"] > 10.0

    # trial rows come out grouped for the sweep axis, not by trial
    order = [(r["cell"], r["trial"]) for r in res.trial_rows]
    assert order == sorted(order, key=lambda ct: (
        MODEL_FAMILIES.index(ct[0].split(":")[0]), float(ct[0].split(":")[1]), ct[1]))


@pytest.mark.parametrize("protocol,grid", [
    ("model-choice", [0.499, 0.501]),
    ("race-qp", [(0.3, 0.1), (0.26, 0.1)]),
    ("race-bp", [(0.3, 0.1), (0.3, 0.1)]),
])
def test_grid_cells_with_one_label_are_rejected(protocol, grid):
    # both cells would print as one mean row that averages them
    cfg = ExperimentConfig(protocol, n=64, trials=1, max_iter=20, grid=grid, seed=9)
    with pytest.raises(ConfigError, match="share the label"):
        run_protocol(cfg)


def test_model_choice_runs_every_listed_solver():
    cfg = ExperimentConfig("model-choice", n=64, trials=1, max_iter=200, grid=[0.0],
                           solvers=("dadm", "padm"), seed=9)
    res = run_protocol(cfg)
    assert len(res.trial_rows) == 6
    assert [(r["cell"], r["solver"]) for r in res.trial_rows] == [
        (cell, solver) for cell in ("bp_nu:0.00", "qp:0.00", "l1l1:0.00")
        for solver in ("dadm", "padm")]
    assert [(r["cell"], r["solver"]) for r in res.mean_rows] == [
        (r["cell"], r["solver"]) for r in res.trial_rows]

    # padm does not solve the l1/l1 model, so listing it for nu > 0 is an error
    with pytest.raises(ConfigError, match="l1/l1"):
        run_protocol(ExperimentConfig("model-choice", n=64, trials=1, max_iter=50, grid=[0.5],
                                      solvers=("dadm", "padm"), seed=9))


def test_error_vs_optimality_histories():
    cfg = ExperimentConfig("err-vs-opt", n=100, max_iter=120, seed=3)
    res = run_protocol(cfg)
    by_case = {}
    for r in res.mean_rows:
        assert r["solver"] == "dadm" and r["seconds"] == 0.0
        by_case.setdefault(r["cell"], []).append(r)
    assert set(by_case) == {"noiseless", "snr40"}

    for case, rows in by_case.items():
        assert len(rows) == 120  # one row per sweep, none skipped
        assert [r["iter"] for r in rows] == [float(i + 1) for i in range(120)]
        aat = [r["aat"] for r in rows]
        assert all(x <= y for x, y in zip(aat, aat[1:]))
        errs = [r["relerr_pct"] for r in rows]
        assert all(np.isfinite(e) for e in errs)

    errs_clean = [r["relerr_pct"] for r in by_case["noiseless"]]
    errs_noisy = [r["relerr_pct"] for r in by_case["snr40"]]
    # exact data: the error keeps falling; 40 dB data: it stalls at noise level
    assert errs_clean[-1] < 1e-4 * errs_clean[0]
    assert errs_noisy[-1] < 0.1 * errs_noisy[0]
    assert errs_noisy[-1] > 1e-3


def test_run_protocol_dispatch():
    cfg = ExperimentConfig("err-vs-opt", n=100, max_iter=30, seed=3)
    res = run_protocol(cfg)
    assert res.config["protocol"] == "err-vs-opt"
    assert len(res.mean_rows) == 60
    assert "err-vs-opt" in PROTOCOLS


def test_result_write_guards_and_timing_manifest(tmp_path):
    res = run_protocol(ExperimentConfig("err-vs-opt", n=100, max_iter=20, seed=3))
    res.write(tmp_path / "out")
    assert (tmp_path / "out" / "err-vs-opt.csv").exists()

    res.config = dict(res.config, seed=4)
    with pytest.raises(ConfigError, match="different config hash"):
        res.write(tmp_path / "out")
