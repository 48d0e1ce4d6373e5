"""Regenerate ``references.json``: one cycle's outputs per workload for the
default seed and the held-out seed.

    python3 perfbench/make_references.py

References record what the program computes at the commit named in the
file; regenerate them only on purpose, when a change is meant to alter the
program's outputs, and say so in CHANGES.md.
"""

from __future__ import annotations

import json
import shutil
import sys

import run

DEFAULT_SEED = 1
HELDOUT_SEED = 2
REL_TOL = 1e-9


def main():
    run.load_program()
    from workloads import WORKLOADS

    outputs = {}
    workdir = run.WORK / "references"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for name, cls in WORKLOADS.items():
            outputs[name] = {}
            for seed in (DEFAULT_SEED, HELDOUT_SEED):
                cycle = cls(seed, workdir, in_process=True).cycle()
                if cycle.errors:
                    sys.exit(f"{name} seed {seed}: {cycle.errors}")
                outputs[name][str(seed)] = cycle.outputs
                print(f"{name} seed {seed}: {sorted(cycle.outputs)}", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    prov = run.provenance(DEFAULT_SEED)
    del prov["seed"]
    document = {
        "default_seed": DEFAULT_SEED,
        "heldout_seed": HELDOUT_SEED,
        "rel_tol": REL_TOL,
        "provenance": prov,
        "outputs": outputs,
    }
    run.REFERENCES.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
