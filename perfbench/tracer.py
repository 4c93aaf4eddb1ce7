"""In-memory span tracer that wraps adl1's public functions from outside.

Nothing in ``src/`` is edited: ``install`` rebinds each traced function in
every ``adl1`` module namespace that holds it (and a few class attributes),
and ``uninstall`` puts the originals back. Every call of a traced function
records one span: name, start, end, parent span, solve id and thread. The
solve id is the index of the enclosing solver span, so all operator, prox
and model work of one solve shares it.

A span's self time is its duration minus the part of it that its child
spans cover. Children on the parent's own thread never overlap, so their
durations are subtracted; children on other threads (the trial pool) are
merged as intervals first. With one thread the self times of all spans add
up to the total duration of the root spans (those without a parent) exactly.
``installed`` wraps for the length of a ``with`` block, so a run can
interleave traced and untraced calls.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
import sys
import threading
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

# (span name, module, attribute): module-level functions, rebound wherever
# adl1 imported them.
FUNCTIONS = (
    ("operators.fwht", "adl1.operators", "fwht"),
    ("prox.shrink", "adl1.prox", "shrink"),
    ("prox.project_linf_ball", "adl1.prox", "project_linf_ball"),
    ("prox.project_l2_ball", "adl1.prox", "project_l2_ball"),
    ("prox.shrink_l2", "adl1.prox", "shrink_l2"),
    ("prox.project_halfspace", "adl1.prox", "project_halfspace"),
    ("models.relchg", "adl1.models", "relchg"),
    ("models.relerr", "adl1.models", "relerr"),
    ("models.l1_norm", "adl1.models", "l1_norm"),
    ("models.compute_res", "adl1.models", "compute_res"),
    ("harness.make_instance", "adl1.harness", "make_instance"),
    ("harness.protocol", "adl1.harness", "run_protocol"),
    ("io.read_vector", "adl1.io", "read_vector"),
    ("io.write_vector", "adl1.io", "write_vector"),
    ("io.write_vector_csv", "adl1.io", "write_vector_csv"),
    ("io.write_csv", "adl1.io", "write_csv"),
    ("io.canonical_json", "adl1.io", "canonical_json"),
    ("io.config_hash", "adl1.io", "config_hash"),
    ("cli.main", "adl1.cli", "main"),
)
SOLVERS = ("padm", "dadm", "ist", "fista")
PROX = ("shrink", "project_linf_ball", "project_l2_ball", "shrink_l2", "project_halfspace")
MODELS = ("relchg", "relerr", "l1_norm", "compute_res")
IO_BYTES = ("read_vector", "write_vector", "write_vector_csv", "write_csv", "canonical_json")
IO_CALLS = IO_BYTES + ("config_hash",)
LAYERS = ("operators", "prox", "models", "solvers", "harness", "io", "cli", "bench")


def fwht_computed(n):
    """Flops and bytes of one ``fwht`` call on n complex128 values, from sizes.

    log2(n) butterfly stages; each does n/2 complex additions and n/2
    complex subtractions (2n real flops) and reads and writes every element
    once (32n bytes). The input copy reads and writes the array once more.
    Cache misses are ignored: these are computed, not measured, figures.
    """
    stages = int(round(math.log2(n)))
    return 2 * n * stages, 32 * n * (stages + 1)


def metric_names():
    """Every per-layer metric a traced run reports, in report order."""
    names = ["operators.fwht.calls", "operators.fwht.self_s", "operators.fwht.us_per_call",
             "operators.fwht.flops_computed", "operators.fwht.bytes_computed",
             "operators.dct.calls", "operators.dct.self_s"]
    for op in ("apply", "adjoint"):
        names += ["operators.%s.%s" % (op, f) for f in ("calls", "self_s", "us_per_call")]
    for s in SOLVERS:
        names += ["solvers.%s.%s" % (s, f) for f in
                  ("solves", "iterations", "aat", "self_s", "sweep_us", "max_iter_frac")]
    for p in PROX:
        names += ["prox.%s.calls" % p, "prox.%s.self_s" % p]
    for m in MODELS:
        names += ["models.%s.calls" % m, "models.%s.self_s" % m]
    names += ["harness.make_instance.calls", "harness.make_instance.self_s",
              "harness.protocol.self_s", "harness.write.self_s",
              "harness.pool.workers", "harness.pool.busy_frac"]
    for f in IO_CALLS:
        names += ["io.%s.calls" % f, "io.%s.self_s" % f]
        if f in IO_BYTES:
            names.append("io.%s.bytes" % f)
    names += ["cli.main.calls", "cli.main.self_s"]
    names += ["%s.self_s" % layer for layer in LAYERS]
    names += ["trace.spans", "trace.self_sum_frac", "trace_overhead_frac"]
    return names


def metric_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_us") or name.endswith("us_per_call"):
        return "us"
    if name.endswith("_frac") or name == "trace_overhead_frac":
        return "fraction"
    if name.endswith("bytes") or name.endswith("bytes_computed"):
        return "bytes"
    if name.endswith("flops_computed"):
        return "flop"
    return "count"


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("q")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.solve = array("q")
        self.thread = array("q")
        self._lock = threading.Lock()
        self._local = threading.local()
        self._threads = {}
        self._patches = []
        self.solver_runs = []  # (span index, solver, iterations, aat, status)
        self.fwht_sizes = defaultdict(int)
        self.io_bytes = defaultdict(int)

    # -- recording -------------------------------------------------------

    def _nid(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _state(self):
        loc = self._local
        if not hasattr(loc, "stack"):
            loc.stack = []
            loc.solve = -1
            with self._lock:
                loc.tid = self._threads.setdefault(threading.get_ident(), len(self._threads))
        return loc

    def call(self, nid, fn, args, kwargs, parent=None, solve=False):
        """Run fn(*args, **kwargs) inside a span; returns (result, span index).

        ``parent`` overrides the caller's span (a pool trial runs on another
        thread); ``solve`` makes this span the solve id of everything inside."""
        loc = self._state()
        if parent is None:
            parent = loc.stack[-1] if loc.stack else -1
        with self._lock:
            idx = len(self.start)
            self.name_id.append(nid)
            self.start.append(0.0)
            self.end.append(0.0)
            self.parent.append(parent)
            self.solve.append(loc.solve)
            self.thread.append(loc.tid)
        loc.stack.append(idx)
        outer_solve = loc.solve
        if solve:
            loc.solve = idx
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs), idx
        finally:
            t1 = perf_counter()
            loc.solve = outer_solve
            loc.stack.pop()
            self.start[idx] = t0
            self.end[idx] = t1

    def span(self, name, fn, *args, parent=None):
        return self.call(self._nid(name), fn, args, {}, parent=parent)

    def wrap(self, name, fn, after=None, solve=False):
        nid = self._nid(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result, idx = self.call(nid, fn, args, kwargs, solve=solve)
            if after is not None:
                after(idx, args, result)
            return result

        return traced

    # -- installing wrappers ---------------------------------------------

    def _rebind_everywhere(self, original, wrapper):
        for modname, mod in list(sys.modules.items()):
            if modname != "adl1" and not modname.startswith("adl1."):
                continue
            for attr, val in list(vars(mod).items()):
                if val is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def _rebind(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self):
        import scipy.fft

        import adl1.harness
        import adl1.operators
        import adl1.solvers

        hooks = {"operators.fwht": self._after_fwht}
        for f in IO_BYTES:
            hooks["io." + f] = self._after_io
        for name, modname, attr in FUNCTIONS:
            original = getattr(sys.modules[modname], attr)
            self._rebind_everywhere(original, self.wrap(name, original, after=hooks.get(name)))
        for s in SOLVERS:
            original = getattr(adl1.solvers, s + "_solve")
            wrapper = self.wrap("solvers." + s, original, after=self._after_solve(s), solve=True)
            self._rebind_everywhere(original, wrapper)
        op = adl1.operators.SensingOperator
        self._rebind(op, "apply", self.wrap("operators.apply", op.apply))
        self._rebind(op, "adjoint", self.wrap("operators.adjoint", op.adjoint))
        # The partial DCT operator calls scipy.fft.dct/idct through the module.
        self._rebind(scipy.fft, "dct", self.wrap("operators.dct", scipy.fft.dct))
        self._rebind(scipy.fft, "idct", self.wrap("operators.dct", scipy.fft.idct))
        result_cls = adl1.harness.ExperimentResult
        self._rebind(result_cls, "write", self.wrap("harness.write", result_cls.write))
        # The trial pool has no public entry point; wrap it to see each trial.
        self._rebind_everywhere(adl1.harness._map_trials, self._traced_map(adl1.harness._map_trials))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def _traced_map(self, original):
        def traced_map(fn, trials):
            pool_idx = self._state().stack[-1]
            return original(lambda t: self.span("harness.protocol", fn, t, parent=pool_idx)[0],
                            trials)

        return lambda fn, trials: self.span("harness.pool", traced_map, fn, trials)[0]

    # The hooks below run on pool threads too; their counters need the lock.

    def _after_fwht(self, idx, args, result):
        with self._lock:
            self.fwht_sizes[int(result.shape[0])] += 1

    def _after_io(self, idx, args, result):
        name = self.names[self.name_id[idx]]
        if name == "io.canonical_json":
            size = len(result.encode("utf-8"))
        else:
            size = os.path.getsize(args[0])
        with self._lock:
            self.io_bytes[name] += size

    def _after_solve(self, solver):
        def after(idx, args, rec):
            self.solver_runs.append((idx, solver, rec.iterations, rec.aat, rec.status))

        return after

    # -- analysis --------------------------------------------------------

    def arrays(self):
        return {
            "names": np.array(self.names),
            "name_id": np.frombuffer(self.name_id, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "solve": np.frombuffer(self.solve, dtype=np.int64).copy(),
            "thread": np.frombuffer(self.thread, dtype=np.int64).copy(),
        }

    def write(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez_compressed(path, **self.arrays())

    def self_times(self):
        a = self.arrays()
        dur = a["end"] - a["start"]
        parent, thread = a["parent"], a["thread"]
        covered = np.zeros_like(dur)
        has_parent = parent >= 0
        same = np.zeros_like(has_parent)
        same[has_parent] = thread[parent[has_parent]] == thread[has_parent]
        np.add.at(covered, parent[same], dur[same])
        cross = np.flatnonzero(has_parent & ~same)
        by_parent = defaultdict(list)
        for i in cross:
            by_parent[int(parent[i])].append((a["start"][i], a["end"][i]))
        for p, intervals in by_parent.items():
            covered[p] += _union_length(intervals)
        return a, dur, dur - covered

    def metrics(self, overhead_frac):
        a, dur, self_t = self.self_times()
        names = a["names"]
        nid = a["name_id"]
        calls = np.bincount(nid, minlength=len(names))
        self_by = np.bincount(nid, weights=self_t, minlength=len(names))
        dur_by = np.bincount(nid, weights=dur, minlength=len(names))
        idx_of = {str(n): i for i, n in enumerate(names)}

        def c(name):
            return int(calls[idx_of[name]]) if name in idx_of else 0

        def s(name):
            return float(self_by[idx_of[name]]) if name in idx_of else 0.0

        def per_call_us(name):
            return 1e6 * float(dur_by[idx_of[name]]) / c(name) if c(name) else 0.0

        out = {}
        flops = sum(fwht_computed(n)[0] * k for n, k in self.fwht_sizes.items())
        moved = sum(fwht_computed(n)[1] * k for n, k in self.fwht_sizes.items())
        out.update({
            "operators.fwht.calls": c("operators.fwht"),
            "operators.fwht.self_s": s("operators.fwht"),
            "operators.fwht.us_per_call": per_call_us("operators.fwht"),
            "operators.fwht.flops_computed": flops,
            "operators.fwht.bytes_computed": moved,
            "operators.dct.calls": c("operators.dct"),
            "operators.dct.self_s": s("operators.dct"),
        })
        for op in ("apply", "adjoint"):
            name = "operators." + op
            out[name + ".calls"] = c(name)
            out[name + ".self_s"] = s(name)
            out[name + ".us_per_call"] = per_call_us(name)
        for solver in SOLVERS:
            runs = [r for r in self.solver_runs if r[1] == solver]
            iters = sum(r[2] for r in runs)
            inclusive = sum(float(dur[r[0]]) for r in runs)
            out.update({
                "solvers.%s.solves" % solver: len(runs),
                "solvers.%s.iterations" % solver: iters,
                "solvers.%s.aat" % solver: sum(r[3] for r in runs),
                "solvers.%s.self_s" % solver: s("solvers." + solver),
                "solvers.%s.sweep_us" % solver: 1e6 * inclusive / iters if iters else 0.0,
                "solvers.%s.max_iter_frac" % solver:
                    sum(r[4] == "max_iter" for r in runs) / len(runs) if runs else 0.0,
            })
        for p in PROX:
            out["prox.%s.calls" % p] = c("prox." + p)
            out["prox.%s.self_s" % p] = s("prox." + p)
        for m in MODELS:
            out["models.%s.calls" % m] = c("models." + m)
            out["models.%s.self_s" % m] = s("models." + m)
        workers, busy = self._pool(a, dur, idx_of)
        out.update({
            "harness.make_instance.calls": c("harness.make_instance"),
            "harness.make_instance.self_s": s("harness.make_instance"),
            "harness.protocol.self_s": s("harness.protocol"),
            "harness.write.self_s": s("harness.write"),
            "harness.pool.workers": workers,
            "harness.pool.busy_frac": busy,
        })
        for f in IO_CALLS:
            out["io.%s.calls" % f] = c("io." + f)
            out["io.%s.self_s" % f] = s("io." + f)
            if f in IO_BYTES:
                out["io.%s.bytes" % f] = int(self.io_bytes["io." + f])
        out["cli.main.calls"] = c("cli.main")
        out["cli.main.self_s"] = s("cli.main")
        layer_of = np.array([str(n).split(".")[0] for n in names])
        for layer in LAYERS:
            out["%s.self_s" % layer] = float(self_by[layer_of == layer].sum())
        root_dur = float(dur[a["parent"] < 0].sum())
        out["trace.spans"] = int(len(dur))
        out["trace.self_sum_frac"] = float(self_t.sum()) / root_dur
        out["trace_overhead_frac"] = overhead_frac
        return out

    def _pool(self, a, dur, idx_of):
        """(largest number of threads that ran trials of one pool call,
        trial busy time over workers x pool wall time)."""
        if "harness.pool" not in idx_of:
            return 0, 0.0
        pool_id = idx_of["harness.pool"]
        trial_id = idx_of["harness.protocol"]
        pools = np.flatnonzero(a["name_id"] == pool_id)
        is_trial = (a["name_id"] == trial_id) & np.isin(a["parent"], pools)
        workers_max, busy, capacity = 0, 0.0, 0.0
        for p in pools:
            kids = is_trial & (a["parent"] == p)
            workers = len(np.unique(a["thread"][kids]))
            workers_max = max(workers_max, workers)
            busy += float(dur[kids].sum())
            capacity += workers * float(dur[p])
        return workers_max, busy / capacity if capacity else 0.0


def _union_length(intervals):
    total, cur_start, cur_end = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total
