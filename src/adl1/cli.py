"""Command-line front end: solve one problem from a JSON config, or run a
named experiment protocol.

Exit codes: 0 converged / experiment completed, 2 iteration cap hit,
1 any input or configuration error.
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
    config_hash,
    read_matrix,
    read_matrix_csv,
    read_vector,
    read_vector_csv,
    write_vector,
    write_vector_csv,
)
from .models import FAMILIES, ModelSpec, relerr, relres
from .operators import (
    OPERATOR_KINDS,
    DenseOperator,
    PartialDCTOperator,
    PartialWalshHadamardOperator,
    make_operator,
)
from .solvers import SOLVERS, SolverOptions, solve


def _load_vector_file(path):
    if path.endswith(".csv"):
        return read_vector_csv(path)
    return read_vector(path)


def _build_operator(spec, default_seed):
    kind = spec.get("kind")
    if kind == "dense":
        path = spec["file"]
        matrix = read_matrix_csv(path) if path.endswith(".csv") else read_matrix(path)
        return DenseOperator(matrix, orthonormal_rows=bool(spec.get("orthonormal_rows", False)))
    if kind not in OPERATOR_KINDS:
        raise ConfigError("unknown operator kind %r (dense, %s)" % (kind, ", ".join(OPERATOR_KINDS)))
    n = int(spec["n"])
    seed = spec.get("seed", default_seed)
    if kind in ("wht", "dct") and "rows" in spec:
        rows = np.asarray(spec["rows"], dtype=np.int64)
        if "signs" in spec:
            signs = np.asarray(spec["signs"], dtype=np.float64)
        else:
            rng = np.random.default_rng(spec.get("sign_seed", seed))
            signs = rng.choice(np.array([-1.0, 1.0]), size=n)
        cls = PartialWalshHadamardOperator if kind == "wht" else PartialDCTOperator
        return cls(n, rows, signs)
    return make_operator(kind, n, int(spec["m"]), np.random.default_rng(seed))


def _build_b(spec, A, default_seed):
    """Returns (b, x_true or None)."""
    if isinstance(spec, str):
        spec = {"file": spec}
    if "file" in spec:
        return _load_vector_file(spec["file"]), None
    if "synthetic" in spec:
        syn = spec["synthetic"]
        noise = NoiseSpec(sigma=float(syn.get("sigma", 0.0)),
                          impulse_fraction=float(syn.get("impulse_fraction", 0.0)),
                          target_snr_db=syn.get("target_snr_db"))
        rng = np.random.default_rng(syn.get("seed", default_seed))
        b, x_true, _, _ = synthesize(A, int(syn["k"]), noise, rng, field=syn.get("field", "real"))
        return b, x_true
    raise ConfigError("b spec needs a 'file' path or a 'synthetic' block")


def _build_model(spec, flags):
    spec = dict(spec or {})
    if flags.model:
        spec["family"] = flags.model
    for name in ("mu", "delta", "nu"):
        v = getattr(flags, name)
        if v is not None:
            spec[name] = v
    if flags.nonneg:
        spec["nonneg"] = True
    if flags.weights:
        spec["weights"] = flags.weights
    spec.setdefault("family", "bp")
    if isinstance(spec.get("weights"), str):
        spec["weights"] = np.real(_load_vector_file(spec["weights"]))
    return ModelSpec.from_dict(spec)


def _build_options(spec, flags, x_true):
    spec = dict(spec or {})
    for src, dst in (("beta", "beta"), ("gamma", "gamma"), ("tau", "tau"),
                     ("eps", "tol"), ("max_iter", "max_iter"), ("stop", "stop")):
        v = getattr(flags, src)
        if v is not None:
            spec[dst] = v
    return SolverOptions(
        beta=spec.get("beta"),
        gamma=spec.get("gamma"),
        tau=spec.get("tau"),
        tol=float(spec.get("tol", spec.get("eps", 1e-6))),
        max_iter=int(spec.get("max_iter", 1000)),
        stop=spec.get("stop", "relchg"),
        x_true=x_true,
    )


def cmd_solve(args):
    with open(args.config) as fh:
        config = json.load(fh)
    default_seed = args.seed if args.seed is not None else config.get("seed", 0)
    A = _build_operator(config.get("operator", {}), default_seed)
    b, x_true = _build_b(config.get("b", {}), A, default_seed)
    model = _build_model(config.get("model"), args)
    opts = _build_options(config.get("solver"), args, x_true)
    name = args.solver or (config.get("solver") or {}).get("name", "dadm")

    t0 = time.perf_counter()
    rec = solve(name, model, A, b, opts)
    seconds = time.perf_counter() - t0

    outdir = args.out or config.get("out", "adl1-run")
    os.makedirs(outdir, exist_ok=True)
    write_vector(os.path.join(outdir, "x.bin"), rec.x)
    write_vector_csv(os.path.join(outdir, "x.csv"), rec.x)
    summary = dict(rec.to_dict(include_history=False), seconds=seconds,
                   relres=relres(A, b, rec.x), config=json.loads(canonical_json(config)),
                   config_hash=config_hash(config))
    if x_true is not None:
        summary["relerr_pct"] = relerr(rec.x, x_true)
    with open(os.path.join(outdir, "run.json"), "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0 if rec.status == "converged" else 2


def cmd_experiment(args):
    config = ExperimentConfig(
        protocol=args.protocol,
        scale="full" if args.full else "desk",
        n=args.n,
        trials=args.trials,
        seed=args.seed if args.seed is not None else 1234,
        max_iter=args.max_iter,
        timing=args.timing,
    )
    result = run_protocol(config)
    outdir = args.out or os.path.join("runs", "%s-%s" % (args.protocol, config.scale))
    manifest = result.write(outdir)
    sys.stdout.write("wrote %s (config %s)\n" % (outdir, manifest["config_hash"][:12]))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(prog="adl1", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="solve one problem from a JSON config")
    ps.add_argument("config")
    ps.add_argument("--solver", choices=SOLVERS)
    ps.add_argument("--model", choices=FAMILIES)
    ps.add_argument("--mu", type=float)
    ps.add_argument("--delta", type=float)
    ps.add_argument("--nu", type=float)
    ps.add_argument("--nonneg", action="store_true")
    ps.add_argument("--weights", help="path to a positive weight vector file")
    ps.add_argument("--beta", type=float)
    ps.add_argument("--gamma", type=float)
    ps.add_argument("--tau", type=float)
    ps.add_argument("--eps", type=float, help="stopping tolerance")
    ps.add_argument("--max-iter", dest="max_iter", type=int)
    ps.add_argument("--stop", choices=("relchg", "res"))
    ps.add_argument("--seed", type=int)
    ps.add_argument("--out")
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
    pe.add_argument("--timing", action="store_true",
                    help="record wall time in the seconds column (breaks byte determinism)")
    pe.set_defaults(fn=cmd_experiment)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (AdlError, OSError, KeyError, ValueError, json.JSONDecodeError) as exc:
        kind = type(exc).__name__
        sys.stderr.write("adl1: error (%s): %s\n" % (kind, exc))
        return 1


if __name__ == "__main__":
    sys.exit(main())
