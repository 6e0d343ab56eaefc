"""Benchmark of the shockbox command line: seeded workloads, checked outputs.

Run one workload (one fresh process, untraced or traced):

    python3 bench/run.py --workload exact --seed 1 --seconds 20 --trace 0

or every workload, each untraced and then traced in its own process, with a
summary of the tracing overhead:

    python3 bench/run.py --seed 1 --seconds 20

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
(``detail: {...}``) carries machine info, per-operation times, the tail
percentile, the failure ratio and the malformed-input outcomes. See
bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import os

# Pinned before numpy is imported, here and in every child process.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("exact", "discretized", "search")
SETUP_SAMPLES = 9
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

_SETUP_CHILD = (
    "import sys; sys.path.insert(0, sys.argv[1]); import shockbox.cli; "
    "sys.stdout.write('ready\\n'); sys.stdout.flush()"
)


class BenchError(Exception):
    """The benchmark cannot run here (for example, no shockbox sources)."""


# ---------------------------------------------------------------------------
# set-up and machine


def setup_samples(count: int) -> list[float]:
    """Times from process start until shockbox.cli is imported, one per process."""
    samples = []
    for _ in range(count):
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, "-c", _SETUP_CHILD, str(SRC)],
            stdout=subprocess.PIPE,
            text=True,
        ) as child:
            line = child.stdout.readline()
            ready = time.perf_counter()
            child.stdout.read()
        if line.strip() != "ready" or child.returncode != 0:
            raise BenchError("importing shockbox in a fresh process failed")
        samples.append(ready - start)
    return samples


def import_shockbox():
    if not (SRC / "shockbox" / "cli.py").is_file():
        raise BenchError(f"no shockbox sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import shockbox
    import shockbox.cli

    if Path(shockbox.__file__).resolve().parent != SRC / "shockbox":
        raise BenchError(f"imported shockbox from {shockbox.__file__}, not from {SRC}")
    return shockbox


def machine_info() -> dict:
    import numpy as np

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


# ---------------------------------------------------------------------------
# one workload in this process


def run_op(main, op, tracer=None, op_id=0) -> dict:
    """Run one CLI command in-process and check what it wrote."""
    from workloads import check_output

    shutil.rmtree(op.out, ignore_errors=True)
    gc.collect()  # start every operation from a collected heap
    code, error = None, None
    start = time.perf_counter()
    try:
        code = tracer.call_op(op_id, main, op.argv) if tracer else main(op.argv)
    except Exception as exc:  # an escaped exception is the outcome being measured
        error = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    if error is not None:
        reason = f"exception escaped main: {error}"
    elif code != op.expect_exit:
        reason = f"exit {code}, expected {op.expect_exit}"
    else:
        try:
            reason = check_output(op)
        except (OSError, ValueError, KeyError) as exc:
            reason = f"output unreadable: {type(exc).__name__}: {exc}"
    return {"label": op.label, "seconds": seconds, "scenarios": op.scenarios,
            "ok": reason is None, "reason": reason}


def tail(durations: list[float]) -> dict | None:
    """Highest listed percentile with at least ten samples beyond it."""
    n = len(durations)
    for p in TAIL_PERCENTILES:
        if n * (1.0 - p / 100.0) >= 10:
            ordered = sorted(durations)
            k = min(n - 1, int(round(p / 100.0 * (n - 1))))
            return {"percentile": p, "value": ordered[k], "samples": n}
    return None


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    import workloads as wl

    # half the set-up samples before the timed cycles and half after, so
    # their median spans the run rather than one moment of it
    shockbox = import_shockbox()
    setups = setup_samples(SETUP_SAMPLES // 2)
    main = shockbox.cli.main
    work = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    try:
        warm = run_op(main, wl.warmup_op(name, work))
        tracer = None
        if trace:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install(shockbox)
        fixed = {"exact": wl.exact_cycle, "discretized": wl.discretized_cycle}.get(name)
        fixed_ops = fixed(seed, work) if fixed else None
        records = []
        cycles = 0
        start = time.perf_counter()
        try:
            while cycles == 0 or time.perf_counter() - start < seconds:
                ops = fixed_ops if fixed_ops is not None else wl.search_cycle(seed, work, cycles)
                for op in ops:
                    records.append(run_op(main, op, tracer, len(records)))
                cycles += 1
        finally:
            if tracer:
                tracer.uninstall()
        wall = time.perf_counter() - start
        probes = [run_op(main, op) for op in wl.exact_malformed(work)] if name == "exact" else []
    finally:
        shutil.rmtree(work, ignore_errors=True)
    setups += setup_samples(SETUP_SAMPLES - len(setups))

    ok = [r for r in records if r["ok"]] or records
    durations = [r["seconds"] for r in ok]
    failed = sum(not r["ok"] for r in records)
    probe_failures = sum(not p["ok"] for p in probes)
    detail = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "machine": machine_info(),
        "cycles": cycles,
        "wall_s": wall,
        "setup_samples_s": setups,
        "op_mean_s": statistics.fmean(durations),
        "op_tail_s": tail(durations),
        "failed_ratio": (failed + probe_failures) / (len(records) + len(probes)),
        "warmup": warm,
        "malformed_probes": probes,
        "operations": records,
    }
    result = {
        "correct": warm["ok"] and not failed,
        "attempted": len(records),
        "failed": failed,
    }
    if trace:
        from tracing import layer_metrics

        metrics = layer_metrics(tracer, ops=len(records),
                                scenarios=sum(r["scenarios"] for r in records))
        metrics["trace.op_p50_s"] = statistics.median(durations)
        metrics["trace.op_mean_s"] = detail["op_mean_s"]
        units = {k: _layer_unit(k) for k in metrics}
        detail["spans"] = len(tracer.spans)
        _write_results(name, seed, detail, tracer.spans)
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "op_p50_s": statistics.median(durations),
            "scenarios_per_s": sum(r["scenarios"] for r in ok) / sum(durations),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {"setup_s": "s", "op_p50_s": "s", "scenarios_per_s": "1/s", "peak_rss_mb": "MB"}
    result["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    return detail, result


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "B"
    if name.endswith("_ratio"):
        return "1"
    return "count"


def _write_results(name: str, seed: int, detail: dict, spans: list[tuple]) -> None:
    """Keep the spans of a traced run: (id, parent, op, metric, start, end)."""
    out = ROOT / ".bench_results" / f"trace-{name}-seed{seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    fields = ["id", "parent", "op", "name", "start", "end"]
    out.write_text(json.dumps({"detail": detail, "span_fields": fields, "spans": spans}) + "\n")


# ---------------------------------------------------------------------------
# every workload, each in a fresh process


def _child(name: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise BenchError(f"{name} (trace {trace}) failed:\n{proc.stderr}")
    return json.loads(lines[-2].removeprefix("detail: ")), json.loads(lines[-1])


def run_all(seed: int, seconds: float) -> int:
    """Untraced then traced run of each workload, and the tracing overhead."""
    all_correct = True
    for name in WORKLOADS:
        _, plain = _child(name, seed, seconds, 0)
        traced_detail, traced = _child(name, seed, seconds, 1)
        pm, tm = plain["metrics"], traced["metrics"]
        all_correct &= plain["correct"] and traced["correct"]
        print(f"== {name}: correct={plain['correct'] and traced['correct']} "
              f"attempted={plain['attempted']} failed={plain['failed']}")
        for key, metric in pm.items():
            print(f"  {key:<34} {metric['value']:>14.6g} {metric['unit']}")
        untraced_p50 = pm["op_p50_s"]["value"]
        traced_p50 = tm["trace.op_p50_s"]["value"]
        overhead = traced_p50 - untraced_p50
        print(f"  {'tracing overhead (p50 per op)':<34} {overhead:>14.6g} s "
              f"({overhead / untraced_p50:+.1%} of {untraced_p50:.4g} s)")
        self_sum = sum(m["value"] for k, m in tm.items()
                       if k.endswith("_s") and not k.startswith("trace."))
        print(f"  {'sum of traced self times per op':<34} {self_sum:>14.6g} s "
              f"(traced op mean {tm['trace.op_mean_s']['value']:.4g} s, "
              f"{traced_detail['spans']} spans)")
        for key, metric in tm.items():
            if not key.startswith("trace."):
                print(f"  {key:<34} {metric['value']:>14.6g} {metric['unit']}")
    return 0 if all_correct else 1


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, default=None,
                        help="run one workload in this process (default: all, in children)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 1 reports per-layer metrics instead")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    os.chdir(ROOT)
    try:
        if args.workload is None:
            import_shockbox()
            return run_all(args.seed, args.seconds)
        detail, result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print("detail: " + json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
