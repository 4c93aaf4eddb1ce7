"""Command-line front end: solve one problem from a JSON config, or run a
named experiment protocol.

A solve takes every setting from its config file, so the config that
run.json records is the run's whole description; only the output directory
has a flag.

Exit codes: 0 converged / experiment completed, 2 iteration cap hit,
1 any usage, input or configuration error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from .errors import AdlError, ConfigError
from .harness import ExperimentConfig, NoiseSpec, PROTOCOLS, run_protocol, synthesize
from .io import (
    canonical_json,
    file_sha256,
    read_matrix,
    read_matrix_csv,
    read_vector,
    read_vector_csv,
    text_hash,
    write_json_lines,
    write_vector,
    write_vector_csv,
)
from .models import ModelSpec, relerr, relres
from .operators import (
    OPERATOR_KINDS,
    PARTIAL_TRANSFORMS,
    DenseOperator,
    make_operator,
    make_partial_transform,
)
from .solvers import SolverOptions, solve

# Keys an ``adl1 solve`` config may hold, by block; ModelSpec.from_dict
# checks the model block.
CONFIG_KEYS = ("operator", "b", "model", "solver", "seed")
DRAWN_KEYS = ("kind", "n", "m", "seed")
OPERATOR_KEYS = dict(dict.fromkeys(PARTIAL_TRANSFORMS, DRAWN_KEYS + ("rows", "signs", "sign_seed")),
                     dense=("kind", "file", "orthonormal_rows"), orthgauss=DRAWN_KEYS)
SYNTHETIC_KEYS = ("k", "seed", "sigma", "impulse_fraction", "target_snr_db", "field")
SOLVER_KEYS = ("name", "beta", "gamma", "tau", "tol", "max_iter", "stop")
# The number keys, in any block. An integer key takes only a JSON integer
# (12, not 12.0), a real key any JSON number, and neither a bool, a string or
# null; "rows" is a list of integers, "signs" a list of numbers, and
# "weights" a list of numbers or a file path.
INT_KEYS = ("n", "m", "k", "seed", "sign_seed", "max_iter")
REAL_KEYS = ("mu", "delta", "nu", "sigma", "impulse_fraction", "target_snr_db",
             "beta", "gamma", "tau", "tol")
REAL_LIST_KEYS = ("signs", "weights")


def _check_keys(block, known, what):
    unknown = sorted(set(block) - set(known))
    if unknown:
        raise ConfigError("unknown %s key %s (known: %s)"
                          % (what, ", ".join(map(repr, unknown)), ", ".join(known)))
    _check_numbers(block, what)


def _object(block, what, need="a JSON object"):
    """block, or a ConfigError naming the block if it is not a JSON object."""
    if not isinstance(block, dict):
        raise ConfigError("the %s config must be %s, got %s" % (what, need, json.dumps(block)))
    return block


def _check_numbers(block, what):
    """Refuse a number, file or field key that JSON does not type as the key needs."""
    for key, value in block.items():
        if key == "file":
            ok, need = isinstance(value, str), "a path string"
        elif key == "field":
            ok, need = value in ("real", "complex"), "'real' or 'complex'"
        elif key == "rows":
            need = "a list of integers"
            ok = isinstance(value, list) and all(type(v) is int for v in value)
        elif key in REAL_LIST_KEYS and not (key == "weights" and isinstance(value, str)):
            need = "a list of numbers"
            ok = isinstance(value, list) and all(type(v) in (int, float) for v in value)
        elif key in INT_KEYS:
            ok, need = type(value) is int, "an integer"
        elif key in REAL_KEYS:
            ok, need = type(value) in (int, float), "a number"
        else:
            continue
        if not ok:
            raise ConfigError("%s: %r must be %s, got %r" % (what, key, need, value))


def _required(block, key, what):
    """block[key], or a ConfigError naming the block and the missing key."""
    if key not in block:
        raise ConfigError("the %s config needs %r" % (what, key))
    return block[key]


def _load_vector_file(path):
    if path.endswith(".csv"):
        return read_vector_csv(path)
    return read_vector(path)


def _build_operator(spec, default_seed):
    kind = spec.get("kind")
    if not isinstance(kind, str) or kind not in OPERATOR_KEYS:
        raise ConfigError("unknown operator kind %r (dense, %s)" % (kind, ", ".join(OPERATOR_KINDS)))
    _check_keys(spec, OPERATOR_KEYS[kind], "%s operator" % kind)
    if kind == "dense":
        orthonormal_rows = spec.get("orthonormal_rows", False)
        if not isinstance(orthonormal_rows, bool):
            raise ConfigError("dense operator: 'orthonormal_rows' must be true or false, got %r"
                              % (orthonormal_rows,))
        path = _required(spec, "file", "dense operator")
        matrix = read_matrix_csv(path) if path.endswith(".csv") else read_matrix(path)
        return DenseOperator(matrix, orthonormal_rows=orthonormal_rows)
    n = _required(spec, "n", "%s operator" % kind)
    seed = spec.get("seed", default_seed)
    if "rows" in spec:
        if "signs" in spec and "sign_seed" in spec:
            raise ConfigError("%s operator: give 'signs' or 'sign_seed', not both" % kind)
        rng = np.random.default_rng(spec.get("sign_seed", seed))
        A = make_partial_transform(kind, n, rng, rows=spec["rows"], signs=spec.get("signs"))
        if spec.get("m", A.m) != A.m:
            raise ConfigError("%s operator: m=%s but %d rows given" % (kind, spec["m"], A.m))
        return A
    for key in ("signs", "sign_seed"):
        if key in spec:
            raise ConfigError("%s operator: %r only applies with 'rows' (without them, rows and "
                              "signs are drawn from 'seed')" % (kind, key))
    m = _required(spec, "m", "%s operator" % kind)
    return make_operator(kind, n, m, np.random.default_rng(seed))


def _build_b(spec, A, default_seed):
    """Returns (b, x_true or None)."""
    if isinstance(spec, str):
        spec = {"file": spec}
    _check_keys(_object(spec, "b", "a JSON object or a path string"), ("file", "synthetic"), "b")
    if "file" in spec:
        return _load_vector_file(spec["file"]), None
    if "synthetic" in spec:
        syn = dict(_object(spec["synthetic"], "b.synthetic"))
        _check_keys(syn, SYNTHETIC_KEYS, "b.synthetic")
        _required(syn, "k", "b.synthetic")
        rng = np.random.default_rng(syn.pop("seed", default_seed))
        k, field = syn.pop("k"), syn.pop("field", "real")
        b, x_true, _, _ = synthesize(A, k, NoiseSpec(**syn), rng, field=field)
        return b, x_true
    raise ConfigError("b spec needs a 'file' path or a 'synthetic' block")


def _build_model(spec):
    spec = dict(spec)
    spec.setdefault("family", "bp")
    _check_numbers(spec, "model")
    if isinstance(spec.get("weights"), str):
        spec["weights"] = np.real(_load_vector_file(spec["weights"]))
    return ModelSpec.from_dict(spec)


def _build_solver(spec):
    """(solver name, SolverOptions) from the solver block."""
    spec = dict(spec)
    _check_keys(spec, SOLVER_KEYS, "solver")
    return spec.pop("name", "dadm"), SolverOptions(**spec)


def _input_files(config):
    """The input files a config names by path, by the key naming each: a
    ``b`` path, a ``model.weights`` path, a dense ``operator.file``."""
    b, model, op = config.get("b"), config.get("model", {}), config.get("operator", {})
    files = {"b": b.get("file") if isinstance(b, dict) else b,
             "model.weights": model.get("weights"),
             "operator.file": op.get("file") if op.get("kind") == "dense" else None}
    return {key: path for key, path in files.items() if isinstance(path, str)}


def cmd_solve(args):
    with open(args.config) as fh:
        config = _object(json.load(fh), "top-level")
    _check_keys(config, CONFIG_KEYS, "config")
    default_seed = config.get("seed", 0)
    A = _build_operator(_object(config.get("operator", {}), "operator"), default_seed)
    b, x_true = _build_b(config.get("b", {}), A, default_seed)
    model = _build_model(_object(config.get("model", {}), "model"))
    name, opts = _build_solver(_object(config.get("solver", {}), "solver"))
    # run.json carries this text as its config, so the hash covers its bytes;
    # the files it names by path are hashed by content.
    config_text = canonical_json(config)
    inputs = {key: file_sha256(path) for key, path in _input_files(config).items()}

    t0 = time.perf_counter()
    rec = solve(name, model, A, b, opts)
    seconds = time.perf_counter() - t0

    os.makedirs(args.out, exist_ok=True)
    write_vector(os.path.join(args.out, "x.bin"), rec.x)
    write_vector_csv(os.path.join(args.out, "x.csv"), rec.x)
    summary = dict(rec.to_dict(), seconds=seconds,
                   relres=relres(A, b, rec.x), config_hash=text_hash(config_text))
    if x_true is not None:
        summary["relerr_pct"] = relerr(rec.x, x_true)
    if inputs:
        summary["input_sha256"] = inputs
    write_json_lines(os.path.join(args.out, "run.json"), summary, config=config_text)
    return 0 if rec.status == "converged" else 2


def cmd_experiment(args):
    # Unset flags keep ExperimentConfig's defaults.
    flags = {k: getattr(args, k) for k in ("n", "trials", "seed", "max_iter")
             if getattr(args, k) is not None}
    config = ExperimentConfig(protocol=args.protocol, scale="full" if args.full else "desk",
                              **flags)
    result = run_protocol(config)
    outdir = args.out or os.path.join("runs", "%s-%s" % (args.protocol, config.scale))
    manifest = result.write(outdir)
    sys.stdout.write("wrote %s (config %s)\n" % (outdir, manifest["config_hash"][:12]))
    return 0


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors raise ConfigError, so they exit 1
    like any other bad input; exit code 2 means the iteration cap."""

    def error(self, message):
        raise ConfigError(message)


def build_parser():
    parser = _Parser(prog="adl1", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="solve one problem from a JSON config")
    ps.add_argument("config", help="JSON config holding every setting of the run")
    ps.add_argument("--out", default="adl1-run", help="output directory (default: adl1-run)")
    ps.set_defaults(fn=cmd_solve)

    pe = sub.add_parser("experiment", help="run a named experiment protocol")
    pe.add_argument("protocol", help="one of: %s" % ", ".join(PROTOCOLS))
    scale = pe.add_mutually_exclusive_group()
    scale.add_argument("--desk", action="store_true", help="desk scale (default)")
    scale.add_argument("--full", action="store_true", help="full benchmark scale")
    pe.add_argument("--out")
    pe.add_argument("--seed", type=int)
    pe.add_argument("--trials", type=int)
    pe.add_argument("--n", type=int)
    pe.add_argument("--max-iter", dest="max_iter", type=int)
    pe.set_defaults(fn=cmd_experiment)
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except (AdlError, OSError, KeyError, ValueError, json.JSONDecodeError) as exc:
        kind = type(exc).__name__
        sys.stderr.write("adl1: error (%s): %s\n" % (kind, exc))
        return 1


if __name__ == "__main__":
    sys.exit(main())
