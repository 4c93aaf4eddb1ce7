#!/usr/bin/env python3
"""adl1 benchmark: time to solution per workload, per-layer self time when traced.

Run from the root of an adl1 source tree:

    python3 perfbench/run.py --workload race-qp --seed 1 --seconds 12 --trace 0

It imports adl1 from ``./src`` (and refuses to run without it), pins every
thread count, measures set-up, then issues the workload's CLI calls back to
back (closed loop, one client) in whole passes over the input catalog, and
stops at the first pass boundary after ``--seconds`` have passed and at least
100 solves were timed. So every run weighs each input equally. Each call's
outputs are checked. The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` instead runs
pairs of calls on the same input, one untraced and one with every layer
wrapped by ``tracer.Tracer`` (alternating which goes first), until
``--seconds`` have passed, and reports per-layer counts and self times plus
the tracing overhead; the spans go to ``.perfbench/``.

``--tiny`` shrinks every problem and runs exactly one call (one pair when
traced); the smoke test uses it.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:  # pinned before numpy is first imported
    os.environ[_var] = "1"
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import workloads  # noqa: E402

IMPORT_REPEATS = 5
SETUP_REPEATS = 3
MIN_SOLVES = 100
HARD_CAP_S = 120.0  # stop issuing calls after this long, whatever the budget

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "solve_s_p50": "s", "solve_s_p90": "s",
    "aat_per_s": "1/s", "relerr_pct_mean": "%", "success_frac": "fraction",
    "peak_rss_mb": "MB",
}


def bootstrap(root, threads):
    """Pin adl1's trial threads and import adl1 from root/src. Returns the package."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "adl1", "__init__.py")):
        raise SystemExit("perfbench: no adl1 sources under %s; run from the repository root" % src)
    os.environ["ADL1_NUM_THREADS"] = str(max(1, min(threads, os.cpu_count() or 1)))
    sys.path.insert(0, src)
    import adl1
    import adl1.cli

    if not os.path.abspath(adl1.__file__).startswith(src + os.sep):
        raise SystemExit("perfbench: imported adl1 from %s, not from %s" % (adl1.__file__, src))
    return adl1


def cold_import_s(root):
    """Median over fresh interpreters of the time ``import adl1`` takes."""
    code = ("import sys, time; t = time.perf_counter(); import adl1; "
            "sys.stdout.write(repr(time.perf_counter() - t))")
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    times = []
    for _ in range(IMPORT_REPEATS):
        out = subprocess.run([sys.executable, "-c", code], env=env, cwd=root,
                             capture_output=True, text=True, timeout=60, check=True)
        times.append(float(out.stdout))
    return statistics.median(times)


class Run:
    def __init__(self, adl1, wl, seed, tiny, workdir):
        self.adl1 = adl1
        self.wl = wl
        self.seed = seed
        self.tiny = tiny
        self.workdir = workdir
        self.order = workloads.plan(wl, seed)
        self.inputs = {}

    def generate(self):
        """The workload's instances, through make_instance."""
        if self.wl.protocol == "solve":
            return [workloads.solve_instance(e, self.tiny) for e in self.order]
        return workloads.experiment_instances(self.wl, self.order[0], self.tiny)

    def setup(self, root):
        import_s = cold_import_s(root)
        times = []
        for _ in range(SETUP_REPEATS):
            t0 = perf_counter()
            instances = self.generate()
            times.append(perf_counter() - t0)
        if self.wl.protocol == "solve":
            for entry, inst in zip(self.order, instances):
                path = workloads.write_solve_config(inst, entry, self.workdir, self.tiny)
                self.inputs[entry] = (path, inst)
        return import_s + statistics.median(times)

    def unit(self, entry):
        """One CLI call on a catalog entry, checked."""
        outdir = os.path.join(self.workdir, "out")
        config_path, inst = self.inputs.get(entry, (None, None))
        try:
            return workloads.run_unit(self.adl1, self.wl, entry, outdir, self.tiny,
                                      config_path=config_path, inst=inst)
        finally:
            shutil.rmtree(outdir, ignore_errors=True)

    def units(self, budget_s, min_solves):
        """Walk the catalog in whole passes until budget_s has passed and
        min_solves were timed (one call when tiny; HARD_CAP_S stops it anyway)."""
        results, solves = [], 0
        t_start = perf_counter()
        for entry in itertools.cycle(self.order):
            results.append(self.unit(entry))
            solves += len(results[-1].latencies)
            elapsed = perf_counter() - t_start
            if self.tiny or elapsed >= HARD_CAP_S:
                break
            if (len(results) % len(self.order) == 0 and elapsed >= budget_s
                    and solves >= min_solves):
                break
        return results


def end_to_end(results, setup_s):
    walls = [r.wall for r in results]
    lat = [x for r in results for x in r.latencies]
    relerrs = [x for r in results for x in r.relerrs]
    attempted = sum(r.solves for r in results)
    failed = sum(r.failed for r in results)
    values = {
        "setup_s": setup_s,
        "wall_s": statistics.fmean(walls),
        "solve_s_p50": statistics.median(lat) if lat else 0.0,
        "solve_s_p90": statistics.quantiles(lat, n=10, method="inclusive")[-1] if len(lat) > 1
        else (lat[0] if lat else 0.0),
        "aat_per_s": sum(r.aat for r in results) / sum(walls),
        "relerr_pct_mean": statistics.fmean(relerrs) if relerrs else 0.0,
        "success_frac": (attempted - failed) / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return values, len(lat)


def check_summary(results):
    checked = [r for r in results if r.ref_bytes is not None]
    return {
        "units": len(results),
        "problems": [p for r in results for p in r.problems],
        "ref_units": len(checked),
        "ref_bytes_match": sum(1 for r in checked if r.ref_bytes),
        "ref_counts_match": sum(1 for r in checked if r.ref_counts),
        "ref_mismatches": [r.ref_note.strip() for r in checked if r.ref_note],
    }


def traced(run, budget_s):
    """Instance generation traced, then pairs of untraced and traced calls on
    the same entry, alternating which runs first so that the machine's drift
    cancels in the overhead. Returns (results, metrics, problems)."""
    spans = tracer.Tracer()
    with spans.installed():
        spans.span("bench", run.generate)
    plain, again = [], []
    t_start = perf_counter()

    def traced_unit(entry):
        with spans.installed():
            again.append(spans.span("bench", run.unit, entry)[0])

    for i, entry in enumerate(itertools.cycle(run.order)):
        traced_first = i % 2 == 1
        if traced_first:
            traced_unit(entry)
        plain.append(run.unit(entry))
        if not traced_first:
            traced_unit(entry)
        if run.tiny or perf_counter() - t_start >= min(budget_s, HARD_CAP_S):
            break
    overhead = sum(r.wall for r in again) / sum(r.wall for r in plain) - 1.0
    metrics = spans.metrics(overhead)
    spans.write(os.path.join(os.getcwd(), ".perfbench",
                              "trace-%s-seed%d.npz" % (run.wl.name, run.seed)))
    frac, workers = metrics["trace.self_sum_frac"], max(1, metrics["harness.pool.workers"])
    ok = abs(frac - 1.0) < 1e-6 if workers == 1 else 1.0 - 1e-6 <= frac <= workers + 1e-6
    problems = [] if ok else ["layer self times sum to %.9f of the traced wall time" % frac]
    if sorted(metrics) != sorted(tracer.metric_names()):
        raise RuntimeError("traced metrics differ from tracer.metric_names()")
    return plain + again, metrics, problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny problem sizes and one call (smoke test)")
    args = parser.parse_args(argv)

    root = os.getcwd()
    wl = workloads.WORKLOADS[args.workload]
    adl1 = bootstrap(root, wl.threads)
    workdir = os.path.join(root, ".perfbench", "work-%d" % os.getpid())
    os.makedirs(workdir)
    try:
        run = Run(adl1, wl, args.seed, args.tiny, workdir)
        setup_s = run.setup(root)
        if args.trace:
            results, metrics, extra = traced(run, args.seconds)
            units = {name: tracer.metric_unit(name) for name in metrics}
        else:
            results = run.units(args.seconds, MIN_SOLVES)
            metrics, samples = end_to_end(results, setup_s)
            units = END_TO_END_UNITS
            extra = []
            print("solve latency samples: %d over %d CLI calls (%.2f passes over the "
                  "%d-entry catalog)" % (samples, len(results), len(results) / wl.catalog,
                                         wl.catalog))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    summary = check_summary(results)
    summary["problems"] += extra
    for name, value in metrics.items():
        print("%-40s %r %s" % (name, value, units[name]))
    print("check: " + json.dumps(summary, sort_keys=True))
    result = {
        "correct": not summary["problems"],
        "attempted": sum(r.solves for r in results),
        "failed": sum(r.failed for r in results),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
