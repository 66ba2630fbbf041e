"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sobel-1080p --seed 1 --seconds 20 --trace 0

Run from the repository root. The package is imported from ``src/``. With
``--trace 0`` the last stdout line is a JSON object holding the end-to-end
metrics; with ``--trace 1`` it holds the per-layer metrics of a traced run.
The exit code is 0 only when every item passed its check. Metric definitions
and the reasons for each workload are in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = BENCH_DIR / ".work"
SETUP_REPEATS = 3

# Seconds one unit takes with its check, measured on a 2-core Xeon at the
# commit that defined the benchmark. A run does about seconds / cost units,
# in whole cycles (the batch runs its whole job list each cycle), so a run's
# item count, and with it the tail percentile, is the same on every commit;
# only its duration moves.
UNIT_COST_S = {
    "sobel-1080p": 0.7,
    "box-chain-qvga": 0.9,
    "freichen-raw-vga": 0.4,
    "pnm-batch": 0.07,
}
MIN_TAIL_BEYOND = 10
# The tail is read in up to TAIL_BLOCKS consecutive blocks of at least
# TAIL_BLOCK_ITEMS items and the median reading is reported, so one burst of
# host noise (shared hosts stall for up to about a second) moves one block's
# reading, not the result.
TAIL_BLOCKS = 4
TAIL_BLOCK_ITEMS = 100

END_TO_END_UNITS = {
    "throughput_mpix_s": "Mpix/s",
    "latency_ms_p50": "ms",
    "latency_ms_tail": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(UNIT_COST_S))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def nearest_rank(ordered: list, pct: int) -> float:
    """Nearest-rank percentile of an ascending list, in integer arithmetic."""
    return ordered[max(1, -(-pct * len(ordered) // 100)) - 1]


def tail_percentile(n: int) -> int:
    """Highest whole percentile whose nearest rank leaves MIN_TAIL_BEYOND items above it."""
    if n <= MIN_TAIL_BEYOND:
        return 100
    return (100 * (n - MIN_TAIL_BEYOND)) // n


def tail(latencies: list) -> tuple[float, int, int]:
    """Median over consecutive blocks of each block's tail; also the percentile and block count.

    ``latencies`` is in the order the items ran.
    """
    n = len(latencies)
    blocks = max(1, min(TAIL_BLOCKS, n // TAIL_BLOCK_ITEMS))
    parts = [sorted(latencies[i * n // blocks : (i + 1) * n // blocks]) for i in range(blocks)]
    pct = tail_percentile(len(parts[0]))
    return statistics.median(nearest_rank(p, pct) for p in parts), pct, blocks


class Kb:
    """The package's modules, imported from ``src/`` once the path is set."""

    def __init__(self) -> None:
        from kernelbench import bench, cli, detectors, image, kernels, pipeline, shadergen

        self.bench, self.cli, self.detectors, self.image = bench, cli, detectors, image
        self.kernels, self.pipeline, self.shadergen = kernels, pipeline, shadergen


def units_for(workload, seconds: float) -> int:
    cycle = workload.cycle
    minimum = math.ceil((MIN_TAIL_BEYOND + 1) / workload.frames_per_unit / cycle)
    return max(minimum, round(seconds / UNIT_COST_S[workload.name] / cycle)) * cycle


def set_up(workload, seed: int, workdir: Path) -> float:
    """Generate inputs and warm up SETUP_REPEATS times; median seconds of one set-up.

    Each repeat starts from an empty directory, so every one pays the full
    input generation; the last one's inputs serve the measured part.
    """
    times = []
    for repeat in range(SETUP_REPEATS):
        directory = workdir / f"inputs{repeat}"
        start = time.perf_counter()
        directory.mkdir()
        workload.setup(directory, seed)
        workload.warmup()
        times.append(time.perf_counter() - start)
        if repeat + 1 < SETUP_REPEATS:
            shutil.rmtree(directory)
    return statistics.median(times)


def end_to_end(results: list, setup_s: float) -> tuple[dict, dict]:
    import resource

    latencies = [ms for r in results for ms in r.latencies_ms]
    wall_s = sum(r.wall_ns for r in results) / 1e9
    tail_ms, pct, blocks = tail(latencies) if latencies else (0.0, 100, 0)
    values = {
        "throughput_mpix_s": sum(r.mpix for r in results) / wall_s if wall_s > 0 else 0.0,
        "latency_ms_p50": statistics.median(latencies) if latencies else 0.0,
        "latency_ms_tail": tail_ms,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup_s,
    }
    notes = {"tail_percentile": pct, "tail_blocks": blocks, "latency_samples": len(latencies),
             "measured_s": wall_s}
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in END_TO_END_UNITS.items()}
    return metrics, notes


def main(argv=None) -> int:
    began = time.perf_counter()
    args = parse_args(argv)
    if not (ROOT / "src" / "kernelbench" / "__init__.py").is_file():
        print(f"error: no kernelbench package under {ROOT / 'src'}; run from a repository "
              "checkout", file=sys.stderr)
        return 2
    # One thread per workload process, so runs on a 2-core host do not
    # compete with themselves.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    kb = Kb()
    import_s = time.perf_counter() - start

    import host
    import workloads

    record = host.record(kb, args.seed, ROOT)
    workload = workloads.WORKLOADS[args.workload](kb)
    units = units_for(workload, args.seconds)
    WORK_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR))
    try:
        setup_s = import_s + set_up(workload, args.seed, workdir)
        with workload.measuring() as sink:
            if args.trace:
                import traced

                spans_path = WORK_DIR / f"{args.workload}-seed{args.seed}-spans.jsonl"
                metrics, notes, results = traced.run(kb, workload, units, sink, spans_path)
            else:
                results = [workload.run_unit(unit, sink) for unit in range(units)]
                metrics, notes = end_to_end(results, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record["load_avg_end"] = os.getloadavg()
    failures = [(item, reason) for r in results for item, reason in zip(r.items, r.failures)]
    attempted = len(failures)
    failed = sum(reason is not None for _, reason in failures)
    notes["flat_nonzero_pixels"] = sum(r.flat_nonzero for r in results)
    for item, reason in failures:
        if reason is not None:
            print(f"FAILED item {item}: {reason}", file=sys.stderr)
    if notes["flat_nonzero_pixels"]:
        print(f"KNOWN DEFECT: {notes['flat_nonzero_pixels']} output pixel(s) on flat "
              "neighbourhoods are not exactly 0.0; see perfbench/README.md", file=sys.stderr)
    notes["units"] = units
    notes["import_s"] = import_s
    notes["elapsed_s"] = time.perf_counter() - began
    correct = failed == 0 and notes.get("trace_ok", True)
    print("host " + json.dumps(record, sort_keys=True))
    print("notes " + json.dumps(notes, sort_keys=True))
    for name, metric in metrics.items():
        print(f"{name:48s} {metric['value']:>16.6f} {metric['unit']}")
    print(f"{'error_rate':48s} {failed / attempted:>16.6f} ratio ({failed} of {attempted} items)")
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    (WORK_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"host": record, "notes": notes, **result}, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
