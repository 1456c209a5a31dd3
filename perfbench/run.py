"""resha benchmark: one workload per fresh process, closed loop, one client.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload rts-order4 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

``--trace 0`` measures with tracing off and reports the end-to-end metrics.
``--trace 1`` alternates untraced and traced runs of the same input and
reports the per-layer metrics; spans are written to
``.bench_build/perfbench/<workload>/spans.jsonl`` when the run ends.
``--workload all`` runs every workload both ways, each in its own process,
and prints every metric with its unit.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The line before it
records the environment and the figures that are informational only. The
exit code is 0 when every operation was correct, 1 when one was not, and 2
when the benchmark could not run (for example, no ``src/resha`` to measure).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"

sys.path.insert(0, str(HERE))

from calibrate import REFERENCE_S, ReferenceClock  # noqa: E402
from layers import install_hooks, layer_metrics, per_layer_spec  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, check_pinned_files  # noqa: E402

SETUP_SPAWNS = 9
SETUP_PROBE = (
    "import time\n"
    "start = time.perf_counter()\n"
    "import resha.cli\n"
    "elapsed = time.perf_counter() - start\n"
    "print(time.monotonic(), elapsed, resha.cli.__file__)\n"
)
TAIL_BEYOND = 10


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def child_env() -> dict[str, str]:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def measure_setup(clock: ReferenceClock) -> tuple[list[float], list[float]]:
    """Reference seconds from launching a fresh interpreter until
    ``import resha.cli`` returns, and of the import itself, for each launch.

    One launch before them is discarded: it may compile bytecode that an
    installed package would already have.
    """
    launches, imports = [], []
    for i in range(SETUP_SPAWNS + 1):
        clock.calibrate()
        start = time.perf_counter()
        launched = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=120,
        )
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            raise BenchError(f"importing resha failed: {proc.stderr.strip()[-300:]}")
        done, elapsed, location = proc.stdout.split()
        if not Path(location).resolve().is_relative_to(SRC):
            raise BenchError(f"imported resha from {location}, not from {SRC}")
        if i:
            launches.append((start, wall, float(done) - launched))
            imports.append((start, wall, float(elapsed)))
    clock.calibrate()
    return ([seconds * clock.convert(start, start + wall)[1] for start, wall, seconds in launches],
            [seconds * clock.convert(start, start + wall)[1] for start, wall, seconds in imports])


def tail_latency(samples: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns (value, percentile, samples beyond it). With ten samples or
    fewer no percentile qualifies, and the lowest sample is reported.
    """
    ordered = sorted(samples)
    index = max(0, len(ordered) - 1 - TAIL_BEYOND)
    percentile = 100.0 * index / (len(ordered) - 1) if len(ordered) > 1 else 100.0
    return ordered[index], percentile, len(ordered) - 1 - index


def run_op(workload, item, tracer: Tracer | None, op_id: int) -> tuple[float, float, str | None, list[str]]:
    """One operation and its gate: (start, wall seconds, output digest, problems)."""
    start = time.perf_counter()
    try:
        if tracer is None:
            result = workload.run(item)
            elapsed = time.perf_counter() - start
        else:
            result, elapsed = tracer.run_op(op_id, lambda: workload.run(item))
        digest, problems = workload.check(item, result)
    except Exception as exc:  # any exception, ResourceLimitError included, fails the op
        return start, time.perf_counter() - start, None, [f"{type(exc).__name__}: {exc}"]
    return start, elapsed, digest, problems


def measure(workload, seconds: float, tracer: Tracer | None, clock: ReferenceClock) -> dict:
    """Run operations back to back for ``seconds``; times are in reference seconds.

    With a tracer, each input runs untraced and then traced; calibrations
    wait until a traced op has ended, so they never fall inside its spans.
    Every run of an input must reproduce the digest of its first run, so
    traced and untraced runs must give identical cut sets and artifact bytes.
    """
    ops: list[tuple[int, bool, float, float]] = []  # (op id, traced, start, wall seconds)
    attempted = failed = 0
    problems_seen: list[str] = []
    first_digest: dict[int, str] = {}
    inputs = workload.inputs()
    clock.calibrate()
    with clock.sampling():
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            key, item = next(inputs)
            for op_tracer in ([None] if tracer is None else [None, tracer]):
                attempted += 1
                with clock.held() if op_tracer else contextlib.nullcontext():
                    began, elapsed, digest, problems = run_op(workload, item, op_tracer, attempted)
                if digest is not None and first_digest.setdefault(key, digest) != digest:
                    problems.append("output differs from an earlier run of the same input"
                                    + (" (traced vs untraced)" if op_tracer else ""))
                if problems:
                    failed += 1
                    if len(problems_seen) < 5:
                        problems_seen.extend(problems[:2])
                else:
                    ops.append((attempted, op_tracer is not None, began, elapsed))
    clock.calibrate()
    walls, factors = {}, {}
    for op, _, began, elapsed in ops:
        walls[op], factors[op] = clock.convert(began, began + elapsed)
    return {
        "untraced": [walls[op] * factors[op] for op, traced, _, _ in ops if not traced],
        "traced": [walls[op] * factors[op] for op, traced, _, _ in ops if traced],
        "wall": [walls[op] for op, traced, _, _ in ops if not traced],
        "factors": factors,
        "attempted": attempted, "failed": failed, "problems": problems_seen,
    }


def source_lines() -> int:
    return sum(len(p.read_bytes().splitlines()) for p in sorted(SRC.rglob("*.py")))


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30)
    return proc.stdout.strip() or "unknown"


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    if not (SRC / "resha" / "__init__.py").is_file():
        raise BenchError(f"no resha package under {SRC}")
    pinned = check_pinned_files(ROOT)
    if pinned:
        raise BenchError("; ".join(pinned))

    clock = ReferenceClock()
    launches, imports = measure_setup(clock)
    sys.path.insert(0, str(SRC))
    import numpy
    import resha.cli

    out_dir = OUT / name
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    workload = WORKLOADS[name](ROOT, out_dir, seed)

    tracer = None
    if trace:
        tracer = Tracer()
        install_hooks(tracer)
    run = measure(workload, seconds, tracer, clock)
    untraced = run["untraced"]
    info = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)), "commit": commit(),
        "src_lines": source_lines(), "resha": resha.cli.__file__,
        "error_rate": run["failed"] / run["attempted"], "problems": run["problems"],
        "untraced_ops": len(untraced), "traced_ops": len(run["traced"]),
        "calibration_s": {"reference": REFERENCE_S,
                          "median": statistics.median(clock.durations),
                          "min": min(clock.durations), "max": max(clock.durations)},
    }

    metrics: dict[str, dict[str, float | str]] = {}
    if untraced:
        p50 = statistics.median(untraced)
        info["wall_op_p50_s"] = statistics.median(run["wall"])
        if trace and run["traced"]:
            values = layer_metrics(tracer, run["factors"])
            values["cli.import_s"] = statistics.median(imports)
            values["trace.overhead_s"] = statistics.median(run["traced"]) - p50
            units = {m["name"]: m["unit"] for m in per_layer_spec()}
            metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
            spans = out_dir / "spans.jsonl"
            tracer.write(spans)
            info["spans"] = str(spans.relative_to(ROOT))
        elif not trace:
            tail, percentile, beyond = tail_latency(untraced)
            info["op_tail_s"] = {"value": tail, "percentile": round(percentile, 3),
                                 "samples": len(untraced), "beyond": beyond}
            metrics = {
                "setup_s": {"value": statistics.median(launches), "unit": "s"},
                "op_p50_s": {"value": p50, "unit": "s"},
                "ops_per_s": {"value": len(untraced) / sum(untraced), "unit": "1/s"},
                "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                                "unit": "MB"},
            }
    correct = run["failed"] == 0 and bool(metrics)
    print(json.dumps({"perfbench": info}))
    print(json.dumps({"correct": correct, "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0 if correct else 1


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    combined: dict[str, dict] = {}
    attempted = failed = 0
    ok = True
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode == 2 or not lines:
                raise BenchError(f"{name} --trace {trace}: {proc.stderr.strip()[-300:]}")
            result = json.loads(lines[-1])
            info = json.loads(lines[-2])["perfbench"]
            ok = ok and proc.returncode == 0 and result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            print(f"{name} trace={trace}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for metric, entry in result["metrics"].items():
                print(f"  {metric:28s} {entry['value']:>14.6g} {entry['unit']}")
                combined[f"{name}/{metric}"] = entry
            if not trace:
                tail = info["op_tail_s"]
                print(f"  {'op_tail_s (not gated)':28s} {tail['value']:>14.6g} s  "
                      f"p{tail['percentile']} of {tail['samples']}")
                print(f"  {'error_rate (not gated)':28s} {info['error_rate']:>14.6g}")
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed,
                      "metrics": combined}))
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    try:
        if args.workload == "all":
            return run_all(args.seed, args.seconds)
        return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
