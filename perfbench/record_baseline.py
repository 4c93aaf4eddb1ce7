#!/usr/bin/env python3
"""Rewrite perfbench/baseline.json from fresh runs of the benchmark.

Run from the repository root (about forty minutes on a 2-core machine):

    python3 perfbench/record_baseline.py

It makes two sets of ten untraced runs of every workload, then one traced
run of every workload. Each run is ``run.py`` in a fresh interpreter with
the ``run_seconds`` of BENCHMARK.json, as a benchmark driver runs it. Within
a set the runs go seed by seed, cycling through the workloads, so that a slow
spell of the machine falls on every workload rather than on one.

For every end-to-end metric, each set reports its ten values, the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread
(q3 - q1) / median. ``drift`` is how much worse the second set's median is
than the first's, as a share of the first (negative when it is better).
``within_bounds`` says whether every spread but that of ``setup_s``, and
every drift, stays within the metric's bound.
"""

from __future__ import annotations

import json
import os
import platform
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import workloads  # noqa: E402

SETS = 2
SEEDS = tuple(range(1, 11))
TRACE_SEED = 1
OUT_PATH = os.path.join(HERE, "baseline.json")


def bench(root, spec, name, seed, trace):
    """One run of the benchmark; returns (metric values, solve samples)."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", name,
           "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit("%s failed (exit %d):\n%s" % (" ".join(cmd), proc.returncode,
                                                       proc.stderr))
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit("%s: outputs failed the checks:\n%s" % (" ".join(cmd), proc.stdout))
    found = re.search(r"solve latency samples: (\d+)", proc.stdout)
    values = {k: m["value"] for k, m in result["metrics"].items()}
    return values, int(found.group(1)) if found else None


def summarise(values, bound):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"bound": bound, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "values": values}


def drift(first, second, better):
    change = (second - first) / first
    return change if better == "lower" else -change


def environment(names):
    def cpu_model():
        try:
            with open("/proc/cpuinfo") as fh:
                for line in fh:
                    if line.startswith("model name"):
                        return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return platform.processor() or "unknown"

    def llc():
        try:
            with open("/sys/devices/system/cpu/cpu0/cache/index3/size") as fh:
                return fh.read().strip()
        except OSError:
            return "unknown"

    import numpy
    import scipy

    pinned = {var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                                   "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
    pinned["ADL1_NUM_THREADS"] = {n: workloads.WORKLOADS[n].threads for n in names}
    return {"nproc": os.cpu_count(), "cpu": cpu_model(), "last_level_cache": llc(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "pinned_threads": pinned}


def layer_table(traced):
    race, solve = traced["race-qp"], traced["solve-8k"]
    return {
        "note": "Inclusive microseconds per call from the traced run of race-qp (n=1024) "
                "and solve-8k (n=8192, partial WHT, m=0.3n); each figure includes the "
                "tracer's own cost per span. padm, ist and fista do not run at n=8192.",
        "fwht_us_per_call": {"n=1024": race["operators.fwht.us_per_call"],
                             "n=8192": solve["operators.fwht.us_per_call"]},
        "wht_apply_us_per_call": {"n=1024": race["operators.apply.us_per_call"],
                                  "n=8192": solve["operators.apply.us_per_call"]},
        "wht_adjoint_us_per_call": {"n=1024": race["operators.adjoint.us_per_call"],
                                    "n=8192": solve["operators.adjoint.us_per_call"]},
        "dadm_qp_sweep_us": {"n=1024": race["solvers.dadm.sweep_us"],
                             "n=8192": solve["solvers.dadm.sweep_us"]},
        "padm_sweep_us": {"n=1024": race["solvers.padm.sweep_us"]},
        "ist_sweep_us": {"n=1024": race["solvers.ist.sweep_us"]},
        "fista_sweep_us": {"n=1024": race["solvers.fista.sweep_us"]},
    }


def kernel_computed():
    per_call = {}
    for n in (1024, 8192):
        flops, moved = tracer.fwht_computed(n)
        per_call["n=%d" % n] = {"flops": flops, "bytes": moved}
    return {
        "label": "computed from array sizes, not measured",
        "model": "fwht on n complex128 values: log2(n) stages of n/2 complex additions and "
                 "n/2 subtractions (2n real flops each); each stage and the input copy read "
                 "and write the array once (32n bytes)",
        "per_call": per_call,
        "roofline": "not reported: a bandwidth measurement needs arrays at least 4x the "
                    "last-level cache, which is not reasonable on a shared 2-core machine",
    }


def main():
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    runs = {name: [] for name in names}
    samples = {name: [] for name in names}
    for s in range(SETS):
        for seed in SEEDS:
            for name in names:
                values, count = bench(root, spec, name, seed, trace=0)
                runs[name].append(values)
                samples[name].append(count)
                print("set %d seed %d %s: wall_s %.4f" % (s, seed, name, values["wall_s"]),
                      file=sys.stderr, flush=True)
    traced = {name: bench(root, spec, name, TRACE_SEED, trace=1)[0] for name in names}

    ok = True
    end_to_end = {}
    for name in names:
        sets, drifts = [], {}
        for s in range(SETS):
            chunk = runs[name][s * len(SEEDS):(s + 1) * len(SEEDS)]
            sets.append({m["name"]: summarise([r[m["name"]] for r in chunk], m["bound"])
                         for m in spec["end_to_end"]})
        for m in spec["end_to_end"]:
            drifts[m["name"]] = drift(sets[0][m["name"]]["median"], sets[-1][m["name"]]["median"],
                                      m["better"])
            spreads = [st[m["name"]]["spread"] for st in sets]
            if drifts[m["name"]] > m["bound"] or (m["name"] != "setup_s"
                                                  and max(spreads) > m["bound"]):
                ok = False
        end_to_end[name] = {"seeds": list(SEEDS), "solve_samples_per_run": samples[name],
                            "sets": sets, "drift": drifts}

    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], capture_output=True,
                            text=True, cwd=root).stdout.strip() or "unknown"
    baseline = {
        "commit": commit,
        "run_seconds": spec["run_seconds"],
        "environment": environment(names),
        "workloads": {w["name"]: w["why"] for w in spec["workloads"]},
        "within_bounds": ok,
        "end_to_end": end_to_end,
        "per_layer": {name: {"seed": TRACE_SEED, "metrics": traced[name]} for name in names},
        "layer_table": layer_table(traced),
        "kernel_computed": kernel_computed(),
    }
    with open(OUT_PATH, "w") as fh:
        json.dump(baseline, fh, indent=1)
        fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
