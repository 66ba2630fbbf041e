import contextlib
import itertools
import json
import math
import os
import threading

import numpy as np
import pytest

from kernelbench import detectors, image, kernels, pipeline, shadergen
from kernelbench import (
    ChainPass,
    ChainSpec,
    DetectorKind,
    EndOfStream,
    FramePattern,
    FrameStats,
    ImageBuffer,
    Kernel,
    PixelFormat,
    RawStreamSource,
    RunReport,
    SizeError,
    SyntheticSource,
    clock_resolution_ms,
    execute_chain_reference,
    frei_chen,
    elapsed_ms,
    encode_bytes,
    next_frame,
    now,
    run,
    sobel_magnitude_rgb,
    to_luminance,
)

IDENTITY_CHAIN = ChainSpec((ChainPass(Kernel([[0, 0, 0], [0, 1, 0], [0, 0, 0]])),))


def test_synthetic_frames_are_deterministic():
    src = SyntheticSource(16, 12, FramePattern.CHECKERBOARD, seed=7)
    a = next_frame(src, 0)
    b = next_frame(src, 0)
    np.testing.assert_array_equal(a.samples, b.samples)
    src2 = SyntheticSource(16, 12, FramePattern.CHECKERBOARD, seed=7)
    np.testing.assert_array_equal(next_frame(src2, 0).samples, a.samples)


def test_moving_gradient_definition():
    # Red ramps with x, green with y, blue sits at 0.5; the phase advances
    # one pixel per frame and wraps at the frame size.
    src = SyntheticSource(4, 3, FramePattern.MOVING_GRADIENT, seed=0)
    frame = next_frame(src, 1).samples
    np.testing.assert_array_equal(frame[0, :, 0], [1 / 4, 2 / 4, 3 / 4, 0 / 4])
    np.testing.assert_array_equal(frame[:, 0, 1], [1 / 3, 2 / 3, 0 / 3])
    assert np.all(frame[:, :, 2] == 0.5)


def test_moving_gradient_cycle():
    src = SyntheticSource(6, 4, FramePattern.MOVING_GRADIENT, seed=3)
    cycle = math.lcm(6, 4)
    np.testing.assert_array_equal(
        next_frame(src, 2).samples, next_frame(src, 2 + cycle).samples
    )
    assert not np.array_equal(next_frame(src, 2).samples, next_frame(src, 3).samples)


def test_checkerboard_period_two_and_cell_size():
    src = SyntheticSource(20, 16, FramePattern.CHECKERBOARD, seed=0)
    f0 = next_frame(src, 0).samples
    f1 = next_frame(src, 1).samples
    f2 = next_frame(src, 2).samples
    np.testing.assert_array_equal(f0, f2)
    np.testing.assert_array_equal(f1, 1.0 - f0)
    assert f0[0, 0, 0] == f0[7, 7, 0]
    assert f0[0, 0, 0] != f0[0, 8, 0]


def test_synthetic_source_validates_dimensions():
    with pytest.raises(SizeError):
        SyntheticSource(0, 4)


def _write_raw(path, frames, w, h, seed):
    rng = np.random.default_rng(seed)
    chunks = [bytes(rng.integers(0, 256, w * h * 3, dtype=np.uint8)) for _ in range(frames)]
    path.write_bytes(b"".join(chunks))
    return chunks


def test_raw_stream_round_trip(tmp_path):
    path = tmp_path / "clip.rgb"
    chunks = _write_raw(path, 3, 6, 4, seed=51)
    src = RawStreamSource(str(path), 6, 4)
    assert src.frame_count == 3
    for i, chunk in enumerate(chunks):
        frame = next_frame(src, i)
        assert encode_bytes(frame, PixelFormat.RGB24) == chunk
    with pytest.raises(EndOfStream):
        next_frame(src, 3)


def test_raw_stream_length_must_be_frame_multiple(tmp_path):
    path = tmp_path / "bad.rgb"
    path.write_bytes(b"\x00" * 100)
    with pytest.raises(SizeError):
        RawStreamSource(str(path), 6, 4)


def test_raw_stream_rejects_empty_file(tmp_path):
    path = tmp_path / "empty.rgb"
    path.write_bytes(b"")
    with pytest.raises(SizeError, match="empty"):
        RawStreamSource(str(path), 6, 4)


def test_now_is_monotonic_and_exact_in_ms():
    readings = [now() for _ in range(10_000)]
    assert all(b >= a for a, b in zip(readings, readings[1:]))
    t = now()
    assert elapsed_ms(t, t + 5_000_000) == 5.0


def test_clock_resolution_is_fine_enough():
    # Allow the constrained-host bound; desk hardware sits well under it.
    assert clock_resolution_ms() <= 0.01


def test_frame_stats_rejects_negative_times():
    with pytest.raises(ValueError):
        FrameStats(-0.1, 1.0)
    with pytest.raises(ValueError):
        FrameStats(1.0, -0.1)


def test_frame_stats_rejects_non_finite_times():
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            FrameStats(bad, 1.0)
        with pytest.raises(ValueError):
            FrameStats(1.0, bad)
    # JSON NaN must not reach a report through from_dict either.
    payload = _report([(1.0, 2.0)]).to_dict()
    payload["per_frame"][0]["processing_ms"] = json.loads("NaN")
    with pytest.raises(ValueError):
        RunReport.from_dict(payload)


def _report(pairs, vsync=60.0, partial=False):
    return RunReport([FrameStats(a, p) for a, p in pairs], vsync, partial)


def test_report_aggregates_hand_computed():
    report = _report([(2.0, 8.0), (4.0, 6.0)])
    assert report.frame_count == 2
    assert report.mean_acquisition_ms == 3.0
    assert report.mean_processing_ms == 7.0
    # mean total 10 ms: uncapped 100 FPS, capped at the 60 Hz ceiling
    assert report.fps_uncapped == 100.0
    assert report.fps_capped == 60.0
    assert RunReport.from_dict(report.to_dict()) == report


def test_report_slow_frame_fps():
    report = _report([(4.8, 111.0)])
    assert round(report.fps_uncapped, 1) == 8.6


def test_nearest_rank_percentiles():
    report = _report([(0.0, p) for p in (5.0, 1.0, 3.0, 2.0, 4.0)])
    # sorted [1,2,3,4,5]: rank ceil(0.5*5)=3 and ceil(0.95*5)=5
    assert report.p50_processing_ms == 3.0
    assert report.p95_processing_ms == 5.0
    single = _report([(0.0, 7.5)])
    assert single.p50_processing_ms == 7.5
    assert single.p95_processing_ms == 7.5
    pair = _report([(0.0, 1.0), (0.0, 9.0)])
    assert pair.p50_processing_ms == 1.0
    assert pair.p95_processing_ms == 9.0


@pytest.mark.parametrize("vsync", [-5.0, 0.0, math.inf, math.nan])
def test_report_rejects_vsync_outside_positive_finite(vsync):
    with pytest.raises(ValueError, match="vsync_hz"):
        _report([(1.0, 2.0)], vsync=vsync)
    payload = _report([(1.0, 2.0)]).to_dict()
    payload["vsync_hz"] = vsync
    with pytest.raises(ValueError, match="vsync_hz"):
        RunReport.from_dict(payload)


def test_empty_report_is_all_zero_and_valid():
    report = _report([], partial=True)
    assert report.frame_count == 0
    assert report.fps_uncapped == 0.0
    assert report.fps_capped == 0.0
    assert RunReport.from_dict(report.to_dict()) == report


def test_from_dict_rejects_tampered_aggregates():
    report = _report([(1.0, 2.0), (3.0, 4.0)])
    for field, delta in (
        ("mean_processing_ms", 0.5),
        ("fps_uncapped", 1.0),
        ("p95_processing_ms", -0.5),
        ("frame_count", 3),
    ):
        broken = report.to_dict()
        broken[field] += delta
        with pytest.raises(ValueError, match=field):
            RunReport.from_dict(broken)


def test_report_dict_round_trip():
    report = _report([(1.25, 2.5), (0.75, 3.0)], vsync=75.0, partial=True)
    assert RunReport.from_dict(report.to_dict()) == report


def test_report_json_is_pinned():
    report = _report([(1.25, 2.5), (0.75, 3.0)], vsync=75.0, partial=True)
    assert json.dumps(report.to_dict()) == (
        '{"frame_count": 2, "per_frame": [{"acquisition_ms": 1.25, "processing_ms": 2.5}, '
        '{"acquisition_ms": 0.75, "processing_ms": 3.0}], "mean_acquisition_ms": 1.0, '
        '"mean_processing_ms": 2.75, "p50_processing_ms": 2.5, "p95_processing_ms": 3.0, '
        '"fps_uncapped": 266.6666666666667, "fps_capped": 75.0, "vsync_hz": 75.0, '
        '"partial": true}'
    )


def test_run_reports_valid_aggregates():
    src = SyntheticSource(32, 24, FramePattern.MOVING_GRADIENT, seed=1)
    report = run(src, DetectorKind.SOBEL, frames=5, vsync_hz=60.0)
    assert report.frame_count == 5
    assert not report.partial
    assert report.fps_capped <= 60.0
    assert report.fps_capped <= report.fps_uncapped
    assert RunReport.from_dict(report.to_dict()) == report


def test_run_identity_chain_caps_at_vsync():
    src = SyntheticSource(16, 12, FramePattern.CHECKERBOARD, seed=0)
    report = run(src, IDENTITY_CHAIN, frames=4, vsync_hz=60.0)
    assert all(f.processing_ms >= 0.0 for f in report.per_frame)
    assert report.fps_capped == 60.0


def test_run_warmup_frames_are_discarded(tmp_path):
    path = tmp_path / "clip.rgb"
    _write_raw(path, 4, 8, 6, seed=52)
    src = RawStreamSource(str(path), 8, 6)
    report = run(src, IDENTITY_CHAIN, frames=2, warmup=2)
    assert report.frame_count == 2
    assert not report.partial


def test_run_flags_partial_on_short_stream(tmp_path):
    path = tmp_path / "clip.rgb"
    _write_raw(path, 3, 8, 6, seed=53)
    src = RawStreamSource(str(path), 8, 6)
    report = run(src, IDENTITY_CHAIN, frames=5)
    assert report.partial
    assert report.frame_count == 3


def test_run_argument_validation():
    src = SyntheticSource(8, 8)
    with pytest.raises(ValueError):
        run(src, IDENTITY_CHAIN, frames=0)
    with pytest.raises(ValueError):
        run(src, IDENTITY_CHAIN, frames=1, vsync_hz=0.0)
    with pytest.raises(ValueError):
        run(src, IDENTITY_CHAIN, frames=1, warmup=-1)
    # A bad vsync fails before any frame runs: the work is never reached,
    # so its TypeError does not surface.
    for vsync in (math.nan, math.inf):
        with pytest.raises(ValueError, match="vsync_hz"):
            run(src, "sobel", frames=1, vsync_hz=vsync)
    with pytest.raises(TypeError):
        run(src, "sobel", frames=1)


def _split_every_frame(monkeypatch):
    """One-row strips and four usable CPUs, so every detector frame runs several ranges."""
    monkeypatch.setattr(image, "_STRIP_BYTES", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)


BOX_CHAIN = ChainSpec((ChainPass(Kernel(np.ones((3, 3))), normalize=True, repeat=2),))


def test_run_builds_one_pool_and_leaves_no_thread(monkeypatch):
    _split_every_frame(monkeypatch)
    built, submitted = [], []

    class Counting(image.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            built.append(self)
            super().__init__(*args, **kwargs)

        def submit(self, *args, **kwargs):
            submitted.append(self)
            return super().submit(*args, **kwargs)

    monkeypatch.setattr(image, "ThreadPoolExecutor", Counting)
    before = threading.active_count()
    for work in DetectorKind:
        built.clear()
        submitted.clear()
        run(SyntheticSource(24, 18), work, frames=3, warmup=1)
        # Four frames of three worker ranges each, all on the run's one pool.
        assert len(built) == 1 and submitted == built * 12
        assert threading.active_count() == before


def _worker_affinities(monkeypatch, module, name):
    """Record the CPU set of each thread but the caller's that runs module.<name>."""
    seen = {}
    original = getattr(module, name)

    def recording(*args):
        if threading.current_thread() is not threading.main_thread():
            seen[threading.current_thread()] = os.sched_getaffinity(0)
        return original(*args)

    monkeypatch.setattr(module, name, recording)
    return seen


@pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity") or len(getattr(os, "sched_getaffinity", set)(0)) < 2,
    reason="needs an affinity call and two usable CPUs",
)
def test_each_worker_runs_on_its_own_cpu_and_the_caller_keeps_its_affinity(monkeypatch):
    cpus = os.sched_getaffinity(0)
    monkeypatch.setattr(image, "_STRIP_BYTES", 1)
    frame = next_frame(SyntheticSource(24, 18), 0)
    cases = (
        (DetectorKind.SOBEL, detectors, "_sobel_rows", sobel_magnitude_rgb),
        (DetectorKind.FREI_CHEN, detectors, "_frei_chen_rows",
         lambda frame: frei_chen(to_luminance(frame), pipeline.PIPELINE_FREI_CHEN_SUBSET)),
        # A chain of three steps splits its first two; outside a run
        # correlate runs one range on the caller's thread.
        (MULTI_PASS_CHAIN, kernels, "_correlate_rows", None),
    )
    for (work, module, name, direct), inside in itertools.product(cases, (True, False)):
        if not (inside or direct):
            continue
        with monkeypatch.context() as patch:
            seen = _worker_affinities(patch, module, name)
            # The run's pool for all frames, or a pool of one call's own.
            if inside:
                run(SyntheticSource(24, 18), work, frames=3)
            else:
                direct(frame)
        assert seen and all(len(cpu) == 1 and cpu <= cpus for cpu in seen.values())
        assert len(set(map(frozenset, seen.values()))) == len(seen)
        assert os.sched_getaffinity(0) == cpus
    processed = []
    process = pipeline._process_frame

    def failing(frame, work):
        processed.append(frame)
        if len(processed) == 3:
            raise RuntimeError("fault in frame 2")
        return process(frame, work)

    monkeypatch.setattr(pipeline, "_process_frame", failing)
    with pytest.raises(RuntimeError, match="fault in frame 2"):
        run(SyntheticSource(24, 18), BOX_CHAIN, frames=4)
    assert os.sched_getaffinity(0) == cpus


def test_workers_that_cannot_be_bound_run_unbound_with_the_same_bytes(monkeypatch):
    # Four faked CPUs: on a host with fewer, binding a worker to a missing CPU
    # raises OSError. Then every worker is refused, and then there is one range.
    _split_every_frame(monkeypatch)
    source = SyntheticSource(24, 18, FramePattern.CHECKERBOARD, seed=5)
    frame = next_frame(source, 1)

    def outputs():
        before = threading.active_count()
        got = []
        for work in (MULTI_PASS_CHAIN, BOX_CHAIN, DetectorKind.SOBEL, DetectorKind.FREI_CHEN):
            sink = []
            with monkeypatch.context() as patch:
                patch.setattr(pipeline, "_process_frame", _keeping(pipeline._process_frame, sink))
                run(source, work, frames=2)
            got += [out.samples.tobytes() for out in sink]
            # Outside a run the detectors split on a pool of the call's own.
            got.append(pipeline._process_frame(frame, work).samples.tobytes())
        assert threading.active_count() == before
        return got

    bound = outputs()
    refused = []

    def refuse(pid, mask):
        refused.append(mask)
        raise OSError(22, "Invalid argument")

    monkeypatch.setattr(os, "sched_setaffinity", refuse, raising=False)
    assert outputs() == bound
    assert refused
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert outputs() == bound


@pytest.mark.parametrize("caller", [None, 0, 2, 3])
def test_workers_are_bound_to_the_cpus_the_caller_is_not_on(monkeypatch, caller):
    # Worker k asks for the (k+1)-th usable CPU with the caller's first, one CPU
    # each; where the caller's CPU is unknown, the first is left to it.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3, 1, 0, 2}, raising=False)
    monkeypatch.setattr(image, "_current_cpu", lambda: caller)
    asked = []
    monkeypatch.setattr(os, "sched_setaffinity", lambda pid, mask: asked.append(mask), raising=False)
    # Each task waits for the others, so three threads start.
    barrier = threading.Barrier(3, timeout=10)
    with image._pool(3) as pool:
        for future in [pool.submit(barrier.wait) for _ in range(3)]:
            future.result()
    others = [cpu for cpu in range(4) if cpu != (0 if caller is None else caller)]
    assert sorted(asked) == [(cpu,) for cpu in others]


def test_current_cpu_is_one_the_process_may_use():
    cpu = image._current_cpu()
    if hasattr(os, "sched_getaffinity") and os.path.exists("/proc/thread-self/stat"):
        assert cpu in os.sched_getaffinity(0)
    else:
        assert cpu is None


def test_run_scope_is_unset_after_run_returns_or_raises(monkeypatch):
    seen = []
    process = pipeline._process_frame

    def recording(frame, work):
        seen.append(image._RUN_SCOPE.get())
        if len(seen) == 2:
            raise RuntimeError("fault in frame 1")
        return process(frame, work)

    monkeypatch.setattr(pipeline, "_process_frame", recording)
    assert image._RUN_SCOPE.get() is None
    with pytest.raises(RuntimeError, match="fault in frame 1"):
        run(SyntheticSource(8, 8), DetectorKind.SOBEL, frames=3)
    assert seen[0] is not None and seen[1] is seen[0]
    assert image._RUN_SCOPE.get() is None
    run(SyntheticSource(8, 8), DetectorKind.SOBEL, frames=1)
    assert seen[2] is not None and seen[2] is not seen[0]
    assert image._RUN_SCOPE.get() is None


# A multi-pass chain: a mixed-sign kernel applied twice, then a normalized box.
MULTI_PASS_CHAIN = ChainSpec((
    ChainPass(Kernel([[1, -2, 0.5], [0, 3, -1], [-0.25, 1, -1]]), repeat=2),
    ChainPass(Kernel(np.ones((3, 3))), normalize=True),
))


def _keeping(function, sink):
    """function, appending each value it returns to sink."""

    def keep(*args, **kwargs):
        sink.append(function(*args, **kwargs))
        return sink[-1]

    return keep


def test_run_outputs_are_fresh_and_match_direct_calls(monkeypatch, tmp_path):
    # A caller may keep every frame's output, so no two may share memory, and
    # none may share memory with a frame, which may live in the run's pad
    # buffer. Acquiring into that buffer and reusing it must not change a bit.
    _split_every_frame(monkeypatch)
    raw = tmp_path / "clip.rgb"
    _write_raw(raw, 3, 24, 18, seed=52)
    sources = (
        SyntheticSource(24, 18),
        SyntheticSource(24, 18, FramePattern.CHECKERBOARD, seed=-3),
        RawStreamSource(str(raw), 24, 18),
    )
    cases = (
        ("sobel_magnitude_rgb", DetectorKind.SOBEL, sobel_magnitude_rgb),
        ("frei_chen", DetectorKind.FREI_CHEN,
         lambda frame: frei_chen(to_luminance(frame), pipeline.PIPELINE_FREI_CHEN_SUBSET)),
        ("execute_chain_reference", BOX_CHAIN,
         lambda frame: execute_chain_reference(frame, BOX_CHAIN)),
        ("execute_chain_reference", MULTI_PASS_CHAIN,
         lambda frame: execute_chain_reference(frame, MULTI_PASS_CHAIN)),
    )
    for source, (attr, work, direct) in itertools.product(sources, cases):
        frames, outputs, scopes = [], [], []
        with monkeypatch.context() as patch:
            for name, sink in (("next_frame", frames), (attr, outputs)):
                patch.setattr(pipeline, name, _keeping(getattr(pipeline, name), sink))

            def process(*args, original=pipeline._process_frame):
                scopes.append(image._RUN_SCOPE.get())
                return original(*args)

            patch.setattr(pipeline, "_process_frame", process)
            run(source, work, frames=3)
        assert len(outputs) == 3
        # Sobel and chain frames live in a pad buffer; only Frei-Chen frames own their memory.
        assert all(f.samples.flags.owndata == (work is DetectorKind.FREI_CHEN) for f in frames)
        for a, b in itertools.combinations(outputs, 2):
            assert not np.shares_memory(a.samples, b.samples)
        for out, frame in itertools.product(outputs, frames):
            assert not np.shares_memory(out.samples, frame.samples)
        # Every output is on its radius-1 pad's pitch, and in none of the run's pad slots.
        slots = [slot for shape in scopes[-1].pads.values() for slot in shape]
        assert slots
        for out, slot in itertools.product(outputs, slots):
            assert out.samples.strides[0] == (24 + 2) * out.channels * 8
            assert not np.shares_memory(out.samples, slot)
        for index, out in enumerate(outputs):
            assert out.samples.tobytes() == direct(next_frame(source, index)).samples.tobytes()


def _rows_start_on_pitch(out, into, pitch):
    """Whether row y of out starts at into[y * pitch], with its samples contiguous, for every y."""
    start = into[: len(out) * pitch].__array_interface__["data"][0]
    return all(out[y].flags.c_contiguous
               and out[y].__array_interface__["data"][0] == start + y * pitch * into.itemsize
               for y in range(len(out)))


def test_step_output_is_on_the_pads_pitch_and_in_a_slot_only_for_a_radius_1_chain_step():
    h, w, c = 5, 7, 3
    rng = np.random.default_rng(46)
    fresh = []

    def on_pitch(out, into, padded):
        # Row y of out starts at into[y * pitch] on padded's pitch, so a write
        # through out shows in into there.
        pitch = padded.shape[1] * c
        assert _rows_start_on_pitch(out, into, pitch)
        out[...] = rng.standard_normal(out.shape)
        for y in range(h):
            assert np.array_equal(into[y * pitch : y * pitch + w * c], out[y].reshape(-1))
        return out

    with image._run_scope(pads_frame=True):
        slot0 = image._pad_buffers((h + 2, w + 2, c))[0]
        wide = np.empty((h + 4, w + 4, c))
        fresh.append((on_pitch(*image._step_output(h, w, c, slot0), slot0), slot0))
        for steps in (2, 3):
            with image._chain_steps(steps):
                out, into = image._step_output(h, w, c, slot0)
                slot1 = image._pad_buffers((h + 2, w + 2, c))[1]
                assert out.base is slot1
                on_pitch(out, into, slot0)
                # A radius-2 pad has another pitch: its step writes a fresh array on that pitch.
                fresh.append((on_pitch(*image._step_output(h, w, c, wide), wide), wide))
        slots = image._pad_buffers((h + 2, w + 2, c))
    fresh.append((on_pitch(*image._step_output(h, w, c, wide), wide), wide))
    # A fresh output shares memory with neither slot, nor its input, nor any other output.
    assert len(slots) == 2 and len(fresh) == 4
    for out, padded in fresh:
        assert not any(np.shares_memory(out, a) for a in (*slots, padded))
    for (a, _), (b, _) in itertools.combinations(fresh, 2):
        assert not np.shares_memory(a, b)


def _changed_pixels(slot, snapshot):
    """Mask of the (row, column) cells of slot whose bytes differ from snapshot."""
    return (slot.view(np.uint64) != snapshot.view(np.uint64)).any(axis=2)


def test_chain_steps_ping_pong_between_two_slots_and_the_last_is_fresh(monkeypatch):
    # Wrapped as module attributes, the way perfbench traces them. Every
    # step of a three-step chain but the last splits, so its ranges write
    # into its slot side by side; a two-step chain's first step does not.
    _split_every_frame(monkeypatch)
    repeat3 = ChainSpec((ChainPass(Kernel(np.ones((3, 3))), normalize=True, repeat=3),))
    for chain in (BOX_CHAIN, repeat3, MULTI_PASS_CHAIN):
        steps = sum(p.repeat for p in chain.passes)
        calls, pads, snapshot = [], [], []
        correlate, pad_samples = shadergen.correlate, kernels.pad_samples

        def traced_correlate(img, *args):
            out = correlate(img, *args)
            scope = image._RUN_SCOPE.get()
            changed = [_changed_pixels(slot, copy) for slot, copy in snapshot]
            calls.append((img.samples, out.samples, scope, changed))
            return out

        def traced_pad(*args):
            pads.append(args)
            padded = pad_samples(*args)
            scope = image._RUN_SCOPE.get()
            # The slots as the pad leaves them; the first step makes slot 1 after it.
            snapshot[:] = [(s, s.copy()) for s in scope.pads[padded.shape]] if scope else []
            return padded

        with monkeypatch.context() as patch:
            patch.setattr(shadergen, "correlate", traced_correlate)
            patch.setattr(kernels, "pad_samples", traced_pad)
            run(SyntheticSource(24, 18), chain, frames=2, warmup=1)
            assert len(calls) == len(pads) == 3 * steps
            for index, (before, after, scope, changed) in enumerate(calls):
                slots = scope.pads[20, 26, 3]
                if index % steps == steps - 1:
                    # The last step writes no slot: its output is fresh, on the pad's pitch.
                    assert not any(np.shares_memory(after, a) for a in (*slots, before))
                    assert _rows_start_on_pitch(after, after.base.reshape(-1), 26 * 3)
                    assert not any(mask.any() for mask in changed)
                    continue
                assert len(slots) == 2
                shared = [np.shares_memory(after, slot) for slot in slots]
                assert shared.count(True) == 1
                assert not np.shares_memory(after, before)
                # Outside its interior a step writes only the side border cells
                # of its own slot: never the top or bottom row, nor the input's slot.
                dest = shared.index(True)
                assert not changed[1 - dest].any()
                if len(changed) == 2:
                    assert not changed[dest][[0, -1]].any()
            # The last steps' outputs share memory with no other output.
            finals = [after for index, (_, after, _, _) in enumerate(calls)
                      if index % steps == steps - 1]
            for a, b in itertools.combinations(finals, 2):
                assert not np.shares_memory(a, b)
            # Outside a run every step's output is a fresh array on the pad's pitch.
            calls.clear()
            execute_chain_reference(next_frame(SyntheticSource(24, 18), 0), chain)
            assert len(calls) == steps
            for before, after, _, _ in calls:
                assert not np.shares_memory(after, before)
                assert _rows_start_on_pitch(after, after.base.reshape(-1), 26 * 3)
            for (_, a, _, _), (_, b, _, _) in itertools.combinations(calls, 2):
                assert not np.shares_memory(a, b)


def test_next_frame_outside_a_run_is_a_fresh_contiguous_array(tmp_path):
    raw = tmp_path / "clip.rgb"
    _write_raw(raw, 2, 5, 3, seed=53)
    for source in (SyntheticSource(5, 3), SyntheticSource(5, 3, FramePattern.CHECKERBOARD),
                   RawStreamSource(str(raw), 5, 3)):
        a, b = next_frame(source, 1).samples, next_frame(source, 1).samples
        assert a.flags.c_contiguous and a.flags.owndata and a.shape == (3, 5, 3)
        assert not np.shares_memory(a, b)


def _whole_frame_reference(source, index):
    """A synthetic frame from whole-frame expressions, valid while the phase fits int64."""
    w, h = source.width, source.height
    phase = index + source.seed
    out = np.empty((h, w, 3))
    if source.pattern is FramePattern.MOVING_GRADIENT:
        out[:, :, 0] = ((np.arange(w) + phase) % w) / w
        out[:, :, 1] = (((np.arange(h) + phase) % h) / h)[:, np.newaxis]
        out[:, :, 2] = 0.5
    else:
        cells = (np.arange(w) // 8)[np.newaxis, :] + (np.arange(h) // 8)[:, np.newaxis]
        out[:] = ((cells + phase) % 2).astype(np.float64)[:, :, np.newaxis]
    return out


@pytest.mark.parametrize("strip", [1, 2, 3, None])
def test_template_fill_matches_whole_frame_expressions(monkeypatch, strip):
    # Strips of 1 to 3 rows leave short last strips on most heights; None
    # keeps the strip budget's rows, 22 at 640 wide. Inside a
    # run the frame is acquired into the pad buffer's interior.
    if strip is not None:
        monkeypatch.setattr(pipeline, "_strip_rows", lambda arr: strip)
    sizes = [(1, 1), (7, 3), (3, 7), (5, 17), (9, 20), (24, 18), (13, 41), (640, 50)]
    for scope in (contextlib.nullcontext(), image._run_scope(pads_frame=True)):
        with scope:
            for (w, h), pattern, seed in itertools.product(sizes, FramePattern, (0, 3, -5, -1000003)):
                source = SyntheticSource(w, h, pattern, seed)
                for index in (0, 1, 6):
                    want = _whole_frame_reference(source, index)
                    assert next_frame(source, index).samples.tobytes() == want.tobytes()
