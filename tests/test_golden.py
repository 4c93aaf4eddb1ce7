"""Golden artifacts: output bytes pinned across commits.

Experiment CSVs and CLI solves are byte-deterministic for a fixed seed, so
their sha256 digests are recorded here. Rerunning a protocol twice in one
checkout (criterion 9, ``test_experiment_reruns_are_byte_identical``) cannot
notice a refactor that moves a number; these digests do. A reordered
floating-point expression, one more or one fewer iteration, or a changed
random draw fails this file. A change that means to move an artifact
updates the digest and says why.

The experiment runs are tiny ``run_protocol`` runs at seed 1234, and the
default resolved config of every protocol is pinned by its hash; the solves
run ``adl1 solve`` on ``demos/tiny_bp.json`` with a few solver and model keys
patched. A ``{weights}`` value stands for the path of ``WEIGHTS``, written
per test. The history digests pin what no artifact shows: every row of
every solve's history, over each solver, model and stop rule on three tiny
instances.
"""

import dataclasses
import hashlib
import json
import os

import numpy as np
import pytest

from adl1 import cli
from adl1.errors import AdlError
from adl1.harness import ExperimentConfig, NoiseSpec, gen_spikes, make_instance, run_protocol
from adl1.io import config_hash, write_vector
from adl1.models import ModelSpec
from adl1.operators import DenseOperator
from adl1.solvers import SOLVERS, STOP_RULES, SolverOptions, solve

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TINY_BP = os.path.join(ROOT, "demos", "tiny_bp.json")
WEIGHTS = np.linspace(0.5, 2.0, 64)

# protocol -> (ExperimentConfig overrides, means sha256, trials sha256 or None)
PROTOCOL_DIGESTS = {
    "race-qp": (
        dict(n=64, trials=2, max_iter=200),
        "cff6b17d5dc5080716022974bd6fc7bb1323a0a81bd21b6074ffe650f0e3baa8",
        "77a62e0c473d182192e148e4cf36374f0c0c31fdddd91dca810f943770139860",
    ),
    "race-bpdn": (
        dict(n=64, trials=2, max_iter=200),
        "70983a8a5cb6c6ea9ee7b8988971642aae4c8ae098ce8b6dd3bf68536e0cef6b",
        "7cfb5663cb3c356af5e75c0c656e37a8e79be5eb6f6abd0e20ef6a23960013d2",
    ),
    "race-bp": (
        dict(n=64, trials=2, max_iter=200),
        "4a3e7dac2363bda237fa22c407d1d60b35cf3c78399044c253d584f88b0c42fa",
        "380e04c5cd268c8c4b780970c6b29bcdd25e7e48f08da6c38fe84147bb2a7250",
    ),
    "model-choice": (
        dict(n=100, trials=1, max_iter=300),
        "a88dc3d6da835cc8f8777968505dcfabbda80b13f7bd3da34bfdc9b4c10ceb76",
        "7e467532e1b6631d13abc1100a2ade27e6121a01288ef34a79a0da27c294f7ef",
    ),
    "err-vs-opt": (
        dict(n=100),
        "ba0ffac600603f58ff83182b7e7029e411a90e823b342943e936ae6f9ea9d5f4",
        None,  # err-vs-opt writes per-iteration means only
    ),
}

# (protocol, scale) -> config_hash of the default resolved config. The hash
# names a run in its manifest and guards its output directory, so a moved
# default, a renamed key or a changed number type shows here.
CONFIG_HASHES = {
    ("model-choice", "desk"): "5d5676d40bdbc0893ca59ab0b5681dd2735d8651066b8aba7037d898b7891af3",
    ("model-choice", "full"): "409c89160ea84c42f260c53fcd54212de1a9e256d744850af196e5f628f6b7b6",
    ("err-vs-opt", "desk"): "4893d77893aaf0351d0493353faf8bc2705a3f624ae23a24cc72630d098d9630",
    ("err-vs-opt", "full"): "7baf175dc15a47aad9b0243f33ef9e9447096fff0c3d8a4626cdb2fa8cf44706",
    ("race-qp", "desk"): "cc5ae368002c83b070dfe80f2fd7891df090353697521e9b9f80168e53c71a16",
    ("race-qp", "full"): "2fb518fe70a59a756afb59e17614fd24eb911f3760b69668f8999570483d901e",
    ("race-bpdn", "desk"): "b46386ddf284ba311031aa72abde359d77619e95dfef77c71c535359f27d87a7",
    ("race-bpdn", "full"): "ae18102fffdaf601fceb07f0cea0a9906582fe48b231175df9b8eb5d39a77123",
    ("race-bp", "desk"): "d9f53c73dfd351a4865c9b53ae69d75bcd5bd4be67aaf0dac0a254b441fc7405",
    ("race-bp", "full"): "d8bbc3b791c2df37e5573b119f33ad6da8fe5f94ed12c9f2639bf182d45b5426",
}

# patch of demos/tiny_bp.json, as ("block.key", value) pairs -> (exit code,
# status, iterations, aat, model label, x.bin sha256, x.csv sha256)
SOLVE_DIGESTS = {
    (): (0, "converged", 173, 346, "bp()",
         "cb18c1209649e8936776b0bade8ab007f8cffe1b6c0ac580dc00a1ebdc49a45c",
         "01c0bbeeb80608e89f04e3daadb83d5cef6b75aa501d66a0745b34090f6d6bff"),
    (("solver.name", "padm"), ("solver.stop", "res")): (
        0, "converged", 251, 753, "bp()",
        "1caf43e8c6bf559de4b9d5aad1fd5df119e7721261bfbc7c583a24c3b82c5e86",
        "1344393d9f4f3281b95aa9a91c5936168bf0cc14554da725544c433c555a877c"),
    (("model.family", "l1l1"), ("model.nu", 0.5), ("model.nonneg", True),
     ("solver.max_iter", 300)): (
        2, "max_iter", 300, 600, "l1l1(nu=0.5)+nonneg",
        "ccc2160050ea475edc139655c22ca915ccbc368d72c224c2657bf86afbdcf776",
        "134e4f053e79d37ebbc2c7a3aee03f093320748ed0903ea1847241e0022f04ef"),
    (("solver.name", "fista"), ("model.family", "qp"), ("model.mu", 1e-3),
     ("solver.tol", 1e-8)): (
        0, "converged", 290, 580, "qp(mu=0.001)",
        "d38f870ddfecdd5a749643758d9a2f70870bf5768d3664fa30e9e42b17cf0772",
        "69bb2418c7a26248b9efaa14e87c54d2ca630ac5ff9483fb8ab24ef9bdf71e0f"),
    (("solver.name", "padm"), ("model.family", "bpdn"), ("model.delta", 1e-3),
     ("solver.max_iter", 300)): (
        2, "max_iter", 300, 600, "bpdn(delta=0.001)",
        "7d517311627a952185a2da5c3fbf2d0e75fdac4d7a278e61d50d13f733932e92",
        "e6b2cba51b2a091dc324509a2284224ac310d03107e69ed32e1083819bb7e4d3"),
    (("solver.name", "dadm"), ("model.family", "bpdn"), ("model.delta", 1e-3),
     ("solver.stop", "res"), ("solver.max_iter", 300)): (
        2, "max_iter", 300, 600, "bpdn(delta=0.001)",
        "12130165dc7158f958936408aae74037e0f952c657721cb87bb8fab81f2a93af",
        "7e1805cb6ff6cad5915da363507656d3bdcfdd39ee5f9ad1e49dcedcd313aae3"),
    (("solver.name", "padm"), ("model.family", "qp"), ("model.mu", 1e-3),
     ("model.weights", "{weights}"), ("solver.max_iter", 300)): (
        0, "converged", 264, 528, "qp(mu=0.001)+weighted",
        "e7fe820608317753cc727f8823d7da41816cb5abbb269242885f95a73464c264",
        "ca6e57b761d25c37a236ba55931e7198408aa23933ebec0034ec9488ccd08ea2"),
    (("solver.name", "dadm"), ("model.family", "qp"), ("model.mu", 1e-3),
     ("model.weights", "{weights}"), ("model.nonneg", True), ("solver.max_iter", 300)): (
        2, "max_iter", 300, 600, "qp(mu=0.001)+nonneg+weighted",
        "68dff6f7a730af4937b40ea52923068c99a2ecd18ddedc3aea51b07829dfb685",
        "516c998dba4509bd3181be563fa1ecf4dfc2e529597369f67dc2dc6265e2f772"),
}


# The test id of each case above, in order: the ``adl1 solve`` flags that
# its patch was first recorded with, so that a digest keeps its name across
# commits.
SOLVE_IDS = (
    "default",
    "--solver padm --stop res",
    "--model l1l1 --nu 0.5 --nonneg --max-iter 300",
    "--solver fista --model qp --mu 1e-3 --eps 1e-8",
    "--solver padm --model bpdn --delta 1e-3 --max-iter 300",
    "--solver dadm --model bpdn --delta 1e-3 --stop res --max-iter 300",
    "--solver padm --model qp --mu 1e-3 --weights {weights} --max-iter 300",
    "--solver dadm --model qp --mu 1e-3 --weights {weights} --nonneg --max-iter 300",
)


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@pytest.mark.parametrize("protocol", sorted(PROTOCOL_DIGESTS))
def test_experiment_csv_bytes_are_pinned(tmp_path, protocol):
    overrides, means, trials = PROTOCOL_DIGESTS[protocol]
    run_protocol(ExperimentConfig(protocol, seed=1234, **overrides)).write(str(tmp_path))
    assert _sha256(tmp_path / (protocol + ".csv")) == means
    trials_path = tmp_path / (protocol + "_trials.csv")
    if trials is None:
        assert not trials_path.exists()
    else:
        assert _sha256(trials_path) == trials


@pytest.mark.parametrize("protocol,scale", sorted(CONFIG_HASHES))
def test_default_config_hash_is_pinned(protocol, scale):
    cfg = ExperimentConfig(protocol, scale=scale).resolved()
    assert config_hash(cfg) == CONFIG_HASHES[protocol, scale]


def _patched_config(tmp_path, patch):
    """demos/tiny_bp.json with each ("block.key", value) of ``patch`` set,
    written to tmp_path; a bare "block" key replaces the whole block."""
    with open(TINY_BP) as fh:
        cfg = json.load(fh)
    weights = tmp_path / "w.bin"
    write_vector(weights, WEIGHTS)
    for dotted, value in patch:
        *block, key = dotted.split(".")
        target = cfg[block[0]] if block else cfg
        target[key] = str(weights) if value == "{weights}" else value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


@pytest.mark.parametrize("patch", list(SOLVE_DIGESTS), ids=SOLVE_IDS)
def test_cli_solve_is_pinned(tmp_path, patch):
    rc, status, iterations, aat, model, x_sha, csv_sha = SOLVE_DIGESTS[patch]
    out = tmp_path / "run"
    assert cli.main(["solve", str(_patched_config(tmp_path, patch)), "--out", str(out)]) == rc
    run = json.loads((out / "run.json").read_text())
    assert (run["status"], run["iterations"], run["aat"], run["model"]) == (
        status, iterations, aat, model)
    assert _sha256(out / "x.bin") == x_sha
    assert _sha256(out / "x.csv") == csv_sha


# A partial WHT whose rows and signs the config gives, not a seed.
WHT_GIVEN = (("operator", {"kind": "wht", "n": 64, "rows": [(7 * j + 3) % 64 for j in range(24)],
                           "signs": [(-1.0) ** (j // 3) for j in range(64)]}),)


@pytest.mark.parametrize("patch", list(SOLVE_DIGESTS) + [WHT_GIVEN],
                         ids=SOLVE_IDS + ("wht-rows-signs",))
def test_run_json_config_reproduces_the_run(tmp_path, patch):
    # run.json's config is the run's whole description: solving it again
    # gives the same bytes and the same config hash.
    first, again = tmp_path / "first", tmp_path / "again"
    rc = cli.main(["solve", str(_patched_config(tmp_path, patch)), "--out", str(first)])
    run = json.loads((first / "run.json").read_text())
    recorded = tmp_path / "recorded.json"
    recorded.write_text(json.dumps(run["config"]))
    assert cli.main(["solve", str(recorded), "--out", str(again)]) == rc
    for name in ("x.bin", "x.csv"):
        assert (first / name).read_bytes() == (again / name).read_bytes()
    assert json.loads((again / "run.json").read_text())["config_hash"] == run["config_hash"]


# History digests: every solve on three seeded tiny instances, per operator
# and solver. Each digest covers, case by case, the exception name of a
# refused (model, stop) pair or the record's label, status, iterations,
# aat, aat_history, x and every history row's seven fields as float64 bits.
# The relchg cases run without ground truth (relerr NaN), the res cases with.
HISTORY_WEIGHTS = np.linspace(0.5, 2.0, 64)
HISTORY_MODELS = (
    ModelSpec.bp(),
    ModelSpec.bp(nonneg=True),
    ModelSpec.bpdn(0.05),
    ModelSpec.bpdn(0.0),
    ModelSpec.qp(1e-2),
    ModelSpec.qp(1e-2, weights=HISTORY_WEIGHTS),
    ModelSpec.qp(1e-2, nonneg=True, weights=HISTORY_WEIGHTS),
    ModelSpec.l1l1(0.5),
    ModelSpec.l1l1(0.5, nonneg=True, weights=HISTORY_WEIGHTS),
)

HISTORY_DIGESTS = {
    ("wht", "padm"): "fb187fc1404fa31d52705e68868669247db3e77459e89c7502a66610e32cc43d",
    ("wht", "dadm"): "f1a9348ca1f0b0c5257d28f55369d7b46dda65428dde8e7b7995f2fecf1f9e37",
    ("wht", "ist"): "3e4975caebfcb4d94a055164446e3d67a0c1fb603ec78c3249918a4a55f31a8a",
    ("wht", "fista"): "75b8bb2178206c1b7ce0bf263a5458fcda4156971a5a94ef24caac44121cf69e",
    ("dct", "padm"): "719b03e3a585e8510f1aa56cd79250d51a7ff512f935f7d1ce64ca8b6a2d4073",
    ("dct", "dadm"): "a3606758448d641328bbe20c2c973828fd924b55d06f2ab53df4bdc64b7c9fb7",
    ("dct", "ist"): "6957f1558c35f252f07c012b82a10ae714273c8ac0d5330cf16cef5a1a65743d",
    ("dct", "fista"): "da3ba99f3e6660b9d015d46c2f26d9c27413aa9e08e84e82376b2518e03a79de",
    ("dense", "padm"): "f3dbf4d83e6a2d2f09e0ddb2f8943ab196effc72a5cc8eb00fd8acf239832dad",
    ("dense", "dadm"): "d1b5a039bbe3b48506aaef47fb4d1eff1859518acdd63c9c42860863f81c5bc9",
    ("dense", "ist"): "d351c35fde177bd32d5c1b8135b886fd908153823ce89eef936065b2e10b64b5",
    ("dense", "fista"): "b350d32fbff9c7d916ef94a842cf315d4fe02ce65e132b9e781a54c2905e7170",
}


def _history_instances():
    noise = NoiseSpec(sigma=1e-2)
    wht = make_instance("wht", n=64, m=20, k=4, noise=noise, seed=11)
    dct = make_instance("dct", n=60, m=20, k=4, noise=noise, seed=12, field="complex")
    rng = np.random.default_rng(13)
    # Scaled so that A A* has lambda_max < 1 and padm's step guard passes.
    A = DenseOperator(rng.standard_normal((12, 32)) / 12.0)
    x_true = gen_spikes(32, 3, rng)
    b = A.apply(x_true) + 1e-2 * rng.standard_normal(12)
    return {"wht": (wht.A, wht.b, wht.x_true), "dct": (dct.A, dct.b, dct.x_true),
            "dense": (A, b, x_true)}


def _history_digest(A, b, x_true, solver):
    h = hashlib.sha256()
    for model in HISTORY_MODELS:
        if model.weights is not None:
            model = dataclasses.replace(model, weights=model.weights[:A.n])
        for stop in STOP_RULES:
            opts = SolverOptions(tol=1e-3, max_iter=30, stop=stop, history=True,
                                 x_true=x_true if stop == "res" else None)
            try:
                rec = solve(solver, model, A, b, opts)
            except AdlError as exc:
                h.update(type(exc).__name__.encode())
                continue
            h.update(("%s|%s|%d|%d" % (rec.model, rec.status, rec.iterations,
                                       rec.aat)).encode())
            h.update(np.asarray(rec.aat_history, dtype=np.int64).tobytes())
            h.update(np.asarray(rec.x, dtype=np.complex128).tobytes())
            rows = [dataclasses.astuple(d) for d in rec.history]
            h.update(np.asarray(rows, dtype=np.float64).tobytes())
    return h.hexdigest()


def test_solve_histories_are_pinned():
    got = {(name, solver): _history_digest(*data, solver)
           for name, data in _history_instances().items() for solver in SOLVERS}
    assert got == HISTORY_DIGESTS


def _bits(value):
    return np.asarray(value, dtype=np.float64).view(np.int64)


@pytest.mark.parametrize("solver", SOLVERS)
@pytest.mark.parametrize("max_iter", [30, 300])
def test_lean_solves_equal_full_history_solves(solver, max_iter):
    # A solve computes only its stop field per sweep, and one full row at the
    # end; recording every row must not move a bit of what it returns. At the
    # digests' 30 sweeps nearly every solve hits its cap; at 300 most stop
    # on their rule.
    for A, b, x_true in _history_instances().values():
        for model in HISTORY_MODELS:
            if model.weights is not None:
                model = dataclasses.replace(model, weights=model.weights[:A.n])
            for stop in STOP_RULES:
                opts = SolverOptions(tol=1e-3, max_iter=max_iter, stop=stop, x_true=x_true)
                try:
                    lean = solve(solver, model, A, b, opts)
                except AdlError:
                    continue
                full = solve(solver, model, A, b, dataclasses.replace(opts, history=True))
                assert (lean.status, lean.iterations, lean.aat, lean.aat_history) == (
                    full.status, full.iterations, full.aat, full.aat_history)
                assert np.array_equal(lean.x.view(np.int64), full.x.view(np.int64))
                assert len(lean.history) == 1 and len(full.history) == full.iterations
                assert np.array_equal(_bits(dataclasses.astuple(lean.final())),
                                      _bits(dataclasses.astuple(full.final())))
