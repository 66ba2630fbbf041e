"""The input contract, one table row per case.

Each row of BAD_INPUTS names a public entry point, a bad input, and the typed
error that entry point documents for it. The error comes before any frame
runs and without a numpy warning. ACCEPTED holds inputs the same rules must
still take, such as numpy integers for counts. Add a row here for a new case
instead of a one-off test.
"""

import os
import threading
import warnings

import numpy as np
import pytest

from kernelbench import (
    SOBEL_GX,
    ChainPass,
    DetectorKind,
    FormatError,
    FramePattern,
    FrameStats,
    ImageBuffer,
    PixelFormat,
    RangeError,
    RawStreamSource,
    RunReport,
    ScenarioReport,
    SizeError,
    SyntheticSource,
    UnsupportedFormat,
    correlate,
    decode_bytes,
    encode_bytes,
    frei_chen,
    next_frame,
    read_pnm,
    run,
    threshold,
    write_pnm,
)


def _raw_file(tmp_path, size=12):
    path = tmp_path / "clip.rgb"
    path.write_bytes(bytes(size))
    return str(path)


def _raw_fifo(tmp_path):
    """A FIFO with no writer; the check must stat it, not open it."""
    path = tmp_path / "clip.rgb"
    os.mkfifo(path)
    return str(path)


def _emptied_raw_source(tmp_path):
    """A raw source whose file lost its frames after the source was made."""
    source = RawStreamSource(_raw_file(tmp_path), 2, 2)
    open(source.path, "wb").close()
    return source


def _raw_source_from_fd(tmp_path):
    """A raw source given a descriptor of a one-frame file in place of its path."""
    with open(_raw_file(tmp_path), "rb") as f:
        return RawStreamSource(f.fileno(), 2, 2)


def _pnm_file(tmp_path, content):
    path = tmp_path / "image.pgm"
    path.write_bytes(content)
    return str(path)


def _pnm_pipe(tmp_path, content):
    """A FIFO that a writer thread fills with content and closes, like a shell pipe."""
    path = tmp_path / "image.pgm"
    os.mkfifo(path)

    def write():
        with open(path, "wb") as f:
            f.write(content)

    threading.Thread(target=write, daemon=True).start()
    return str(path)


def _report_dict(**changes):
    data = run(SOURCE, SOBEL, frames=1).to_dict()
    data.update(changes)
    return data


def _one_ms_frame(**changes):
    """A one-frame report whose acquisition and mean acquisition are both 1.0 ms."""
    data = RunReport((FrameStats(1.0, 2.0),), 60.0).to_dict()
    data.update(changes)
    return data


def _bool_acquisition():
    data = _one_ms_frame()
    data["per_frame"][0]["acquisition_ms"] = True
    return data


def _scenario_dict(**row):
    """A one-row scenario report dict whose row takes the given label or report."""
    report = RunReport((FrameStats(1.0, 2.0),), 60.0).to_dict()
    return {"schema_version": 1, "scenario": "operators", "host_note": "",
            "rows": [{"label": "2", "report": report, **row}]}


def _without(key):
    data = _report_dict()
    del data[key]
    return data


SOURCE = SyntheticSource(4, 3)
SOBEL = DetectorKind.SOBEL
GRAY8 = PixelFormat.GRAY8
GRAY = ImageBuffer(np.zeros((2, 2, 1)))

# (id, call taking pytest's tmp_path, error)
BAD_INPUTS = [
    # Sizes, counts and repeats: an int, not a bool, at or above a minimum.
    ("synthetic-width-float", lambda tmp: SyntheticSource(1.5, 2), SizeError),
    ("synthetic-width-bool", lambda tmp: SyntheticSource(True, 2), SizeError),
    ("raw-width-float", lambda tmp: RawStreamSource(_raw_file(tmp), 2.0, 2), SizeError),
    ("raw-height-bool", lambda tmp: RawStreamSource(_raw_file(tmp, 3), 1, True), SizeError),
    # A descriptor is not a path: reading a frame would close the caller's descriptor.
    ("raw-path-descriptor", _raw_source_from_fd, TypeError),
    # Raw frames are read by seeking, so a raw source is a regular file.
    ("raw-fifo", lambda tmp: RawStreamSource(_raw_fifo(tmp), 10, 10), UnsupportedFormat),
    ("decode-width-float", lambda tmp: decode_bytes(bytes(4), 2.0, 2, GRAY8), SizeError),
    ("decode-width-bool", lambda tmp: decode_bytes(bytes(2), True, 2, GRAY8), SizeError),
    ("chainpass-repeat-float", lambda tmp: ChainPass(SOBEL_GX, repeat=2.5), ValueError),
    ("chainpass-repeat-bool", lambda tmp: ChainPass(SOBEL_GX, repeat=True), ValueError),
    ("run-frames-bool", lambda tmp: run(SOURCE, SOBEL, frames=True), ValueError),
    ("run-frames-float", lambda tmp: run(SOURCE, SOBEL, frames=1.5), ValueError),
    ("run-warmup-float", lambda tmp: run(SOURCE, SOBEL, frames=1, warmup=0.5), ValueError),
    ("run-warmup-bool", lambda tmp: run(SOURCE, SOBEL, frames=1, warmup=False), ValueError),
    # Reports loaded from outside data, and the vsync rule they share with run.
    ("from-dict-partial-string", lambda tmp: RunReport.from_dict(_report_dict(partial="no")),
     ValueError),
    ("from-dict-frame-count-float",
     lambda tmp: RunReport.from_dict(_report_dict(frame_count=1.0000000001)), ValueError),
    ("from-dict-frame-count-bool",
     lambda tmp: RunReport.from_dict(_report_dict(frame_count=True)), ValueError),
    ("from-dict-missing-key", lambda tmp: RunReport.from_dict(_without("fps_capped")),
     ValueError),
    ("from-dict-timing-bool", lambda tmp: RunReport.from_dict(_bool_acquisition()), ValueError),
    ("from-dict-aggregate-bool",
     lambda tmp: RunReport.from_dict(_one_ms_frame(mean_acquisition_ms=True)), ValueError),
    ("frame-stats-acquisition-bool", lambda tmp: FrameStats(True, 0.0), ValueError),
    ("frame-stats-processing-bool", lambda tmp: FrameStats(0.0, False), ValueError),
    ("frame-stats-string", lambda tmp: FrameStats("1.0", 0.0), ValueError),
    ("scenario-from-dict-missing-key",
     lambda tmp: ScenarioReport.from_dict({"schema_version": 1, "rows": []}), ValueError),
    # JSON of the wrong shape: a ValueError, not the TypeError of indexing it.
    ("from-dict-frame-number", lambda tmp: RunReport.from_dict(_one_ms_frame(per_frame=[1])),
     ValueError),
    ("from-dict-per-frame-null",
     lambda tmp: RunReport.from_dict(_one_ms_frame(per_frame=None)), ValueError),
    ("from-dict-frame-list",
     lambda tmp: RunReport.from_dict(_one_ms_frame(per_frame=[[1.0, 2.0]])), ValueError),
    ("from-dict-report-list", lambda tmp: RunReport.from_dict([_one_ms_frame()]), ValueError),
    ("from-dict-report-null", lambda tmp: RunReport.from_dict(None), ValueError),
    ("scenario-from-dict-null", lambda tmp: ScenarioReport.from_dict(None), ValueError),
    ("scenario-from-dict-list", lambda tmp: ScenarioReport.from_dict([_scenario_dict()]),
     ValueError),
    ("scenario-from-dict-row-string",
     lambda tmp: ScenarioReport.from_dict({**_scenario_dict(), "rows": ["x"]}), ValueError),
    ("scenario-from-dict-rows-number",
     lambda tmp: ScenarioReport.from_dict({**_scenario_dict(), "rows": 5}), ValueError),
    ("scenario-from-dict-report-number",
     lambda tmp: ScenarioReport.from_dict(_scenario_dict(report=3)), ValueError),
    ("scenario-from-dict-report-list",
     lambda tmp: ScenarioReport.from_dict(_scenario_dict(report=[])), ValueError),
    ("scenario-from-dict-report-null",
     lambda tmp: ScenarioReport.from_dict(_scenario_dict(report=None)), ValueError),
    # The schema's labels are strings of length 1 or more.
    ("scenario-from-dict-label-number",
     lambda tmp: ScenarioReport.from_dict(_scenario_dict(label=5)), ValueError),
    ("scenario-from-dict-label-empty",
     lambda tmp: ScenarioReport.from_dict(_scenario_dict(label="")), ValueError),
    ("run-vsync-bool", lambda tmp: run(SOURCE, SOBEL, frames=1, vsync_hz=True), ValueError),
    ("report-vsync-bool", lambda tmp: RunReport((), True), ValueError),
    # PNM headers, checked before the pixel data is read.
    ("pnm-huge-dimensions",
     lambda tmp: read_pnm(_pnm_file(tmp, b"P5\n10000000000 10000000000\n255\n" + bytes(4))),
     SizeError),
    ("pnm-negative-width", lambda tmp: read_pnm(_pnm_file(tmp, b"P5\n-3 2\n255\n" + bytes(6))),
     SizeError),
    ("pnm-declares-more-than-the-file",
     lambda tmp: read_pnm(_pnm_file(tmp, b"P5\n4000 4000\n255\n" + bytes(20))), SizeError),
    # A pipe has no size to check first; it is read in bounded chunks until it ends.
    ("pnm-pipe-huge-dimensions",
     lambda tmp: read_pnm(_pnm_pipe(tmp, b"P5\n10000000000 10000000000\n255\n" + bytes(4))),
     SizeError),
    # Thresholds follow the number rule of timings and rates.
    ("threshold-bool", lambda tmp: threshold(GRAY, True), RangeError),
    ("threshold-string", lambda tmp: threshold(GRAY, "0.5"), RangeError),
    # Pixel buffers.
    ("image-complex", lambda tmp: ImageBuffer(np.array([[1 + 1j]])), FormatError),
    ("image-complex-list", lambda tmp: ImageBuffer([[0.5, 1j]]), FormatError),
    # Samples are numbers: numeric strings, objects and dates are not converted.
    ("image-numeric-string", lambda tmp: ImageBuffer([["0.5"]]), FormatError),
    ("image-string", lambda tmp: ImageBuffer([["a"]]), FormatError),
    ("image-object-none", lambda tmp: ImageBuffer(np.array([[None, 1]])), FormatError),
    ("image-datetime",
     lambda tmp: ImageBuffer(np.array([["2024-01-01"]], dtype="datetime64[D]")), FormatError),
    # Enum and source arguments of the wrong type, before any work.
    ("correlate-border-string", lambda tmp: correlate(GRAY, SOBEL_GX, "clamp"), TypeError),
    ("frei-chen-subset-string", lambda tmp: frei_chen(GRAY, "edge"), TypeError),
    ("next-frame-path-string", lambda tmp: next_frame(_raw_file(tmp), 0), TypeError),
    ("synthetic-pattern-string",
     lambda tmp: SyntheticSource(4, 3, pattern="moving-gradient"), TypeError),
    ("synthetic-seed-float", lambda tmp: SyntheticSource(4, 3, seed=0.5), TypeError),
    ("synthetic-seed-bool", lambda tmp: SyntheticSource(4, 3, seed=True), TypeError),
    # Pixel data is bytes-like: an int is not a count of zero bytes.
    ("decode-data-int", lambda tmp: decode_bytes(5, 5, 1, GRAY8), TypeError),
    ("decode-data-list", lambda tmp: decode_bytes([0, 0], 2, 1, GRAY8), TypeError),
    # A float array's bytes are not pixel bytes.
    ("decode-data-float-array",
     lambda tmp: decode_bytes(np.full(2, 0.5), 16, 1, GRAY8), TypeError),
    ("decode-format-string", lambda tmp: decode_bytes(bytes(2), 2, 1, "gray8"), TypeError),
    ("encode-format-string", lambda tmp: encode_bytes(GRAY, "gray8"), TypeError),
    # The work is checked before the first frame: this source has none left.
    ("run-work-string", lambda tmp: run(_emptied_raw_source(tmp), "sobel", frames=1), TypeError),
]


def _frame_of_reduced_seed(seed, pattern=FramePattern.MOVING_GRADIENT):
    """A 5x3 frame of any integer seed is the frame of the seed reduced by the pattern's period."""
    period = 15 if pattern is FramePattern.MOVING_GRADIENT else 2
    frame = next_frame(SyntheticSource(5, 3, pattern, seed), 0).samples
    reduced = next_frame(SyntheticSource(5, 3, pattern, seed % period), 0).samples
    assert frame.tobytes() == reduced.tobytes()
    return frame


ACCEPTED = [
    ("synthetic-numpy-width", lambda tmp: SyntheticSource(np.int64(2), 1)),
    ("synthetic-negative-seed",
     lambda tmp: next_frame(SyntheticSource(4, 3, FramePattern.CHECKERBOARD, seed=-5), 0)),
    ("synthetic-numpy-seed", lambda tmp: next_frame(SyntheticSource(4, 3, seed=np.int64(-1)), 2)),
    # Seeds near and beyond int64 give the documented frame, not a wrapped
    # ramp or an OverflowError.
    ("synthetic-seed-near-int64-max",
     lambda tmp: np.testing.assert_array_equal(
         _frame_of_reduced_seed(2**63 - 3)[0, :, 0], [0.0, 0.2, 0.4, 0.6, 0.8])),
    ("synthetic-seed-beyond-int64", lambda tmp: _frame_of_reduced_seed(2**63)),
    ("synthetic-seed-below-int64", lambda tmp: _frame_of_reduced_seed(-(2**63) - 1)),
    ("synthetic-checkerboard-seed-beyond-int64",
     lambda tmp: _frame_of_reduced_seed(2**64 + 7, FramePattern.CHECKERBOARD)),
    ("chainpass-numpy-repeat", lambda tmp: ChainPass(SOBEL_GX, repeat=np.int64(2))),
    ("run-numpy-frames", lambda tmp: run(SOURCE, SOBEL, frames=np.int64(1), warmup=np.int64(0))),
    ("scenario-from-dict-round-trip",
     lambda tmp: ScenarioReport.from_dict(ScenarioReport.from_dict(_scenario_dict()).to_dict())),
]


@pytest.mark.parametrize(
    "call, error", [pytest.param(call, error, id=name) for name, call, error in BAD_INPUTS]
)
def test_bad_input_raises_its_typed_error(call, error, tmp_path):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error):
            call(tmp_path)


@pytest.mark.parametrize("call", [pytest.param(call, id=name) for name, call in ACCEPTED])
def test_good_inputs_are_accepted(call, tmp_path):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        call(tmp_path)


def test_a_pipe_longer_than_one_read_chunk_reads_like_the_file(tmp_path):
    path = tmp_path / "image.ppm"
    write_pnm(ImageBuffer(np.random.default_rng(66).random((600, 700, 3))), path)
    content = path.read_bytes()
    assert len(content) > 1 << 20
    piped = read_pnm(_pnm_pipe(tmp_path, content))
    assert piped.samples.tobytes() == read_pnm(path).samples.tobytes()
