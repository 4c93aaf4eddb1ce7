#!/usr/bin/env python3
"""Record reference.json: the outputs of every catalog entry, run serially.

    python3 perfbench/record_reference.py

Run from the repository root at the commit whose artifacts are the
reference. Every later benchmark run compares its CSV bytes and iter/aat
columns (experiments) or x.bin/x.csv bytes and iterations/aat (solves) with
these entries and reports the matches as counts.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import run  # pins thread counts before numpy is imported
import workloads


def main():
    root = os.getcwd()
    adl1 = run.bootstrap(root, threads=1)
    workdir = os.path.join(root, ".perfbench", "record-%d" % os.getpid())
    os.makedirs(workdir)
    outdir = os.path.join(workdir, "out")
    reference = {}
    try:
        for name in ("race-qp", "model-choice", "solve-8k"):
            wl = workloads.WORKLOADS[name]
            entries = reference.setdefault(wl.ref_key, {})
            for entry in range(wl.catalog):
                config_path = inst = None
                if wl.protocol == "solve":
                    inst = workloads.solve_instance(entry, tiny=False)
                    config_path = workloads.write_solve_config(inst, entry, workdir, tiny=False)
                res = workloads.run_unit(adl1, wl, entry, outdir, tiny=False,
                                         config_path=config_path, inst=inst)
                if res.problems:
                    raise SystemExit("reference run failed its checks: %s" % res.problems)
                if wl.protocol == "solve":
                    entries[str(entry)] = workloads.solve_reference(outdir)
                else:
                    entries[str(entry)] = workloads.experiment_reference(outdir, wl.protocol)
                shutil.rmtree(outdir)
                print("%s entry %d recorded" % (wl.ref_key, entry), flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], capture_output=True,
                            text=True, cwd=root).stdout.strip()
    reference["recorded_at"] = {"commit": commit, "catalog_base_seed": workloads.CATALOG_BASE}
    with open(workloads.REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    sys.exit(main())
