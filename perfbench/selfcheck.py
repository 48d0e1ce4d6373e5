"""Quick self-check of the benchmark itself.

    python3 perfbench/selfcheck.py

For every workload in BENCHMARK.json it runs the benchmark command for one
cycle (``--seconds 0``) untraced and traced, and asserts that the last line
reports every metric BENCHMARK.json names, with its unit, and no failed
task. It then runs one more cycle and asserts that the stored references
pass and that a copy with one value altered on purpose is reported as an
error. Exits 0 when every check holds.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys

import run


def _alter_first_float(tree):
    """Scale the first float found in ``tree`` by 1 + 1e-6, in place."""
    items = list(tree.items()) if isinstance(tree, dict) else list(enumerate(tree))
    for key, value in items:
        if isinstance(value, float):
            tree[key] = value * (1 + 1e-6) if value else 1e-6
            return True
        if isinstance(value, (dict, list)) and _alter_first_float(value):
            return True
    return False


def _printed_result(workload, seed, trace):
    out = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    run.load_program()
    from workloads import WORKLOADS

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    references = json.loads(run.REFERENCES.read_text(encoding="utf-8"))
    seed = references["default_seed"]
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            result = _printed_result(workload, seed, trace)
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{workload} trace {trace}: {result['failed']} failed task(s)")
            for metric in spec[group]:
                got = result["metrics"].get(metric["name"])
                if got is None or got.get("unit") != metric["unit"]:
                    problems.append(f"{workload} trace {trace}: {metric['name']} missing or unit wrong")
                elif not isinstance(got["value"], (int, float)):
                    problems.append(f"{workload} trace {trace}: {metric['name']} is not a number")

        workdir = run.WORK / "selfcheck"
        try:
            cycle = WORKLOADS[workload](seed, workdir, in_process=True).cycle()
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        stored = references["outputs"][workload][str(seed)]
        _, failed, _ = run.score([cycle], stored, references["rel_tol"])
        if failed:
            problems.append(f"{workload}: stored references report {failed} failed task(s)")
        altered = copy.deepcopy(stored)
        _alter_first_float(altered)
        _, failed, notes = run.score([cycle], altered, references["rel_tol"])
        if not failed:
            problems.append(f"{workload}: an altered reference value was not reported")
        print(f"{workload}: altered reference reported as {notes[:1]}", file=sys.stderr)

    for p in problems:
        print(f"selfcheck: {p}", file=sys.stderr)
    print("selfcheck: ok" if not problems else f"selfcheck: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
