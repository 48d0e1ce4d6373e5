"""Peak resident memory of the CLI calls of the benchmark's cli-large workload.

Writes the sample of ``coverage.ols_unit_effects_dgp(n)`` (n (n - 1) dyads,
89,700 at n = 300) to a CSV in a temporary directory, then runs each call
in a fresh ``python -m polyboot.cli``: ``variance --method graham``,
``bootstrap`` and ``counterfactual --counterfactual toy-growth:x``, all OLS
of y on x with an intercept. It prints each call's peak RSS in MB (1024
KB), read from ``os.wait4`` as the median over the repeats, once with the
inherited environment and once with ``MALLOC_MMAP_THRESHOLD_=131072``.

glibc raises its mmap threshold each time the process frees a large
block, so where the later large arrays land, and the peak, can move with
the import order or with how much source a process compiles at start;
the pinned threshold turns that off and leaves the memory the program
itself holds. A peak that moves only with the inherited environment is
the allocator, not the program.

Usage: python scripts/cli_peak_rss.py [--n 300] [--draws 1000] [--repeats 3] [--src DIR]
"""

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import polyboot as pb

SRC = Path(__file__).resolve().parents[1] / "src"
OLS = ["--estimator", "ols", "--y", "y", "--x", "x", "--intercept"]
PINNED = {"MALLOC_MMAP_THRESHOLD_": "131072"}


def calls(draws, seed):
    """(label, CLI arguments) of the three calls."""
    drawn = ["--draws", str(draws), "--seed", str(seed)]
    return [
        ("variance", ["variance", *OLS, "--method", "graham"]),
        ("bootstrap", ["bootstrap", *OLS, *drawn]),
        ("counterfactual", ["counterfactual", *OLS, "--counterfactual", "toy-growth:x", *drawn]),
    ]


def peak_mb(argv, csv, out, env):
    """Run one CLI call in a fresh interpreter; its peak RSS in MB."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "polyboot.cli", *argv, "--data", str(csv), "--out", str(out)],
        env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
    )
    stderr = proc.stderr.read()
    proc.stderr.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[0]} exited {proc.returncode}: {stderr.decode().strip()}")
    return usage.ru_maxrss / 1024


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=300, help="units of the unit-effects OLS sample")
    ap.add_argument("--draws", type=int, default=1000, help="bootstrap draws B")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--repeats", type=int, default=3, help="runs of each call and environment")
    ap.add_argument("--src", type=Path, default=SRC, help="source tree the CLI runs from")
    args = ap.parse_args(argv)
    path = os.pathsep.join(filter(None, [str(args.src.resolve()), os.environ.get("PYTHONPATH")]))
    inherited = dict(os.environ, PYTHONPATH=path)
    envs = {"inherited MB": inherited, "pinned MB": {**inherited, **PINNED}}
    with tempfile.TemporaryDirectory() as tmp:
        csv = Path(tmp) / "cli-large.csv"
        dgp = pb.coverage.ols_unit_effects_dgp(args.n)
        pb.write_csv(pb.coverage.generate_synthetic(dgp, args.seed, 0), csv)
        print(f"{'call':16}" + "".join(f"{name:>14}" for name in envs))
        for label, call in calls(args.draws, args.seed):
            peaks = [
                statistics.median(
                    peak_mb(call, csv, Path(tmp) / "out.json", env) for _ in range(args.repeats)
                )
                for env in envs.values()
            ]
            print(f"{label:16}" + "".join(f"{mb:14.1f}" for mb in peaks))


if __name__ == "__main__":
    main()
