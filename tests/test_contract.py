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
    FrameStats,
    ImageBuffer,
    PixelFormat,
    RangeError,
    RawStreamSource,
    RunReport,
    ScenarioReport,
    SizeError,
    SyntheticSource,
    decode_bytes,
    read_pnm,
    run,
    threshold,
    write_pnm,
)


def _raw_file(tmp_path, size=12):
    path = tmp_path / "clip.rgb"
    path.write_bytes(bytes(size))
    return str(path)


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
]

ACCEPTED = [
    ("synthetic-numpy-width", lambda tmp: SyntheticSource(np.int64(2), 1)),
    ("chainpass-numpy-repeat", lambda tmp: ChainPass(SOBEL_GX, repeat=np.int64(2))),
    ("run-numpy-frames", lambda tmp: run(SOURCE, SOBEL, frames=np.int64(1), warmup=np.int64(0))),
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
