"""Self-test of the benchmark: exact counters repeat between traced runs.

Runs each named workload twice with ``--trace 1`` and the same seed, each
time in a fresh process, and requires every exact counter of
``tracing.EXACT_COUNTERS`` to agree to the last digit. It also requires the
traced self times of each run to add up to its traced mean operation time.

    python3 bench/selftest.py                  # every workload, about 4 minutes
    python3 bench/selftest.py exact search     # a subset

Exit code 0 means every assertion held.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import WORKLOADS  # noqa: E402
from tracing import EXACT_COUNTERS  # noqa: E402


def traced_run(workload: str, seed: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=HERE.parent, check=False)
    if proc.returncode != 0:
        raise AssertionError(f"{workload}: run failed\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise AssertionError(f"{workload}: outputs failed their checks")
    return {k: m["value"] for k, m in result["metrics"].items()}


def check_workload(workload: str, seed: int = 3) -> None:
    first, second = traced_run(workload, seed), traced_run(workload, seed)
    for key in EXACT_COUNTERS:
        if first[key] != second[key]:
            raise AssertionError(f"{workload}: {key} differs: {first[key]!r} != {second[key]!r}")
    for run in (first, second):
        self_sum = sum(v for k, v in run.items() if k.endswith("_s") and not k.startswith("trace."))
        if abs(self_sum - run["trace.op_mean_s"]) > 1e-3 * run["trace.op_mean_s"]:
            raise AssertionError(
                f"{workload}: self times add up to {self_sum}, "
                f"traced op mean is {run['trace.op_mean_s']}"
            )
    counts = ", ".join(f"{k}={first[k]:g}" for k in EXACT_COUNTERS)
    print(f"{workload}: ok ({counts})", flush=True)


def main(argv: list[str]) -> int:
    names = argv or list(WORKLOADS)
    unknown = set(names) - set(WORKLOADS)
    if unknown:
        print(f"unknown workloads: {sorted(unknown)}", file=sys.stderr)
        return 2
    for name in names:
        check_workload(name)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
