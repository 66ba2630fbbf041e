import json
import math

import numpy as np
import pytest

from kernelbench import (
    ChainPass,
    ChainSpec,
    DetectorKind,
    EndOfStream,
    Engine,
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
    elapsed_ms,
    encode_bytes,
    next_frame,
    now,
    run,
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


def _detector_output(src, kind, engine):
    frame = next_frame(src, 0)
    from kernelbench.pipeline import _process_frame

    return _process_frame(frame, kind, engine).samples


def test_engines_agree_on_detectors():
    src = SyntheticSource(24, 18, FramePattern.MOVING_GRADIENT, seed=9)
    for kind in DetectorKind:
        cpu = _detector_output(src, kind, Engine.CPU)
        ref = _detector_output(src, kind, Engine.CHAIN_REFERENCE)
        np.testing.assert_allclose(ref, cpu, rtol=1e-12, atol=1e-12)


def test_engines_coincide_for_chains():
    src = SyntheticSource(16, 16, FramePattern.CHECKERBOARD, seed=4)
    chain = ChainSpec((ChainPass(Kernel(np.ones((3, 3))), normalize=True, repeat=2),))
    cpu = _detector_output(src, chain, Engine.CPU)
    ref = _detector_output(src, chain, Engine.CHAIN_REFERENCE)
    np.testing.assert_array_equal(cpu, ref)
