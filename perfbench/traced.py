"""The traced run: per-layer times, call counts and the cost of tracing.

Each unit runs twice, once with the span recorder installed and once
without, alternating which goes first, so ``trace.overhead_pct`` compares
the same work under the same conditions. Per-layer numbers come only from
the traced half; end-to-end numbers come only from untraced runs.
"""

from __future__ import annotations

import statistics

import numpy as np

from spans import Recorder, layer_stats

# Every item's wrapped spans must cover this share of its wall time.
MIN_COVERAGE = 0.95

PER_LAYER_UNITS = {
    "pipeline.next_frame.ms_p50": "ms",
    "pipeline.run.self_ms": "ms",
    "image.decode_bytes.ms_p50": "ms",
    "image.to_luminance.ms_p50": "ms",
    "image.read_pnm.self_ms_p50": "ms",
    "image.write_pnm.self_ms_p50": "ms",
    "image.encode_bytes.ms_p50": "ms",
    "kernels.correlate.self_ms_p50": "ms",
    "kernels.correlate.calls": "count",
    "kernels.pad_samples.ms_p50": "ms",
    "kernels.pad_samples.calls": "count",
    "kernels.tap_mults": "count",
    "kernels.bytes_computed": "B",
    "detectors.sobel_magnitude_rgb.self_ms_p50": "ms",
    "detectors.frei_chen.self_ms_p50": "ms",
    "shadergen.execute_chain_reference.self_ms_p50": "ms",
    "shadergen.generate_program.ms_p50": "ms",
    "shadergen.write_program.ms_p50": "ms",
    "detectors.threshold.ms_p50": "ms",
    "cli.main.self_ms_p50": "ms",
    "trace.overhead_pct": "%",
    "trace.coverage": "ratio",
}


def work_counters(kb) -> dict:
    """Tap multiplies and output bytes of each stencil entry point, from its arguments.

    These are computed from array sizes and nonzero taps, not measured; they
    must repeat exactly from run to run.
    """
    def nonzero(kernel) -> int:
        return int(np.count_nonzero(kernel.coefficients))

    sobel_taps = nonzero(kb.kernels.SOBEL_GX) + nonzero(kb.kernels.SOBEL_GY)
    frei_chen_taps = sum(nonzero(mask) for mask in kb.kernels.FREI_CHEN)
    passes = len(kb.kernels.FREI_CHEN)

    def correlate(image, kernel, *args, **kwargs):
        return nonzero(kernel) * image.samples.size, 8 * image.samples.size

    def sobel(image, *args, **kwargs):
        return sobel_taps * image.samples.size, 2 * 8 * image.samples.size

    def frei_chen(image, *args, **kwargs):
        return frei_chen_taps * image.samples.size, passes * 8 * image.samples.size

    return {"kernels.correlate": correlate, "detectors.sobel_magnitude_rgb": sobel,
            "detectors.sobel_magnitude": sobel, "detectors.frei_chen": frei_chen}


def install(recorder: Recorder, kb) -> None:
    """Wrap the attributes through which the layers call each other."""
    pipeline = kb.pipeline
    recorder.wrap(pipeline, "run")
    recorder.wrap(pipeline, "next_frame", starts_item=True)
    for attr in ("decode_bytes", "to_luminance", "sobel_magnitude_rgb", "frei_chen",
                 "execute_chain_reference"):
        recorder.wrap(pipeline, attr)
    recorder.wrap(kb.shadergen, "correlate")
    recorder.wrap(kb.kernels, "pad_samples")
    recorder.wrap(kb.detectors, "pad_samples")
    recorder.wrap(kb.image, "decode_bytes")
    recorder.wrap(kb.image, "encode_bytes")
    recorder.wrap(kb.cli, "main")
    recorder.wrap_imports(kb.cli)


def _coverage(recorder: Recorder, traced: list) -> list[float]:
    """Per item: time of its outermost spans over the item's own wall time."""
    covered: dict = {}
    for span in recorder.spans:
        parent = None if span.parent is None else recorder.spans[span.parent]
        if span.item is not None and (parent is None or parent.item != span.item):
            covered[span.item] = covered.get(span.item, 0.0) + span.ms
    return [covered.get(item, 0.0) / ms
            for r in traced for item, ms in zip(r.items, r.latencies_ms) if ms > 0]


def run(kb, workload, units: int, sink: list, spans_path):
    recorder = Recorder(work_counters(kb))
    traced, plain = [], []
    cycle = workload.cycle
    for unit in range(max(cycle, units // 2 // cycle * cycle)):
        for with_trace in ((True, False) if unit % 2 == 0 else (False, True)):
            if not with_trace:
                plain.append(workload.run_unit(unit, sink))
                continue
            recorder.unit = recorder.item = str(unit)
            install(recorder, kb)
            with recorder:
                traced.append(workload.run_unit(unit, sink))

    counts = recorder.calls_by_item()
    for r in traced:
        for i, item in enumerate(r.items):
            want, got = workload.calls(int(item.split(":")[0])), counts.get(item)
            if r.failures[i] is None and got != want:
                r.failures[i] = f"wrapped calls {dict(got or {})}, expected {dict(want)}"

    items = sum(len(r.items) for r in traced)
    stats = layer_stats(recorder)
    coverage = _coverage(recorder, traced)
    plain_s = sum(r.wall_ns for r in plain)
    traced_s = sum(r.wall_ns for r in traced)
    values = {}
    for metric in PER_LAYER_UNITS:
        layer, _, stat = metric.rpartition(".")
        entry = stats.get(layer)
        if stat == "calls":
            values[metric] = entry["calls"] / items if entry else 0.0
        elif stat in ("ms_p50", "self_ms_p50", "self_ms"):
            # pipeline.run.self_ms is the median self time per run call.
            key = "self_ms_p50" if stat == "self_ms" else stat
            values[metric] = entry[key] if entry else 0.0
    values["kernels.tap_mults"] = sum(s.taps for s in recorder.spans) / items
    values["kernels.bytes_computed"] = sum(s.bytes for s in recorder.spans) / items
    values["trace.overhead_pct"] = 100.0 * (traced_s / plain_s - 1.0) if plain_s else 0.0
    values["trace.coverage"] = statistics.median(coverage) if coverage else 0.0

    recorder.write_jsonl(spans_path)
    notes = {
        "traced_items": items,
        "untraced_items": sum(len(r.items) for r in plain),
        "spans": len(recorder.spans),
        "coverage_min": min(coverage, default=0.0),
        "trace_ok": bool(coverage) and min(coverage) >= MIN_COVERAGE,
    }
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in PER_LAYER_UNITS.items()}
    return metrics, notes, traced + plain
