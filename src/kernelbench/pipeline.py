"""Frame sources, the timed frame loop, and vsync-capped FPS accounting.

Every frame passes through two separately timed phases: acquisition (fetch
or synthesize the frame and stage it as a float buffer) and processing (run
the operator chain or detector). Reports aggregate the phase times and
derive FPS as 1000 / (mean acquisition + mean processing), capped by the
display refresh rate.
"""

from __future__ import annotations

import math
import os
import statistics
import time
from dataclasses import asdict, dataclass, field, fields
from enum import Enum

import numpy as np

from .detectors import FreiChenSubset, frei_chen, sobel_magnitude_rgb
from .errors import EndOfStream, SizeError, _is_count, _is_real
from .image import ImageBuffer, PixelFormat, _check_dimensions, decode_bytes, to_luminance
from .shadergen import ChainSpec, execute_chain_reference

DEFAULT_VSYNC_HZ = 60.0
_CLOCK_SAMPLES = 1000


def now() -> int:
    """Monotonic timestamp in integer nanoseconds.

    Non-decreasing within a process, with sub-microsecond resolution on
    ordinary hosts. Differences divide by 1e6 to give exact millisecond
    floats for the magnitudes a frame loop sees.
    """
    return time.perf_counter_ns()


def elapsed_ms(start: int, end: int) -> float:
    """Milliseconds between two now() readings."""
    return (end - start) / 1e6


def clock_resolution_ms() -> float:
    """Median of the positive deltas between consecutive now() readings."""
    readings = [now() for _ in range(_CLOCK_SAMPLES + 1)]
    deltas = [b - a for a, b in zip(readings, readings[1:]) if b > a]
    if not deltas:
        return 0.0
    return statistics.median(deltas) / 1e6


class FramePattern(Enum):
    """Synthetic frame content.

    MOVING_GRADIENT: red ramps horizontally, green vertically, blue is a
    constant 0.5; the ramps shift by one pixel per frame and wrap, so the
    sequence cycles with period lcm(width, height).

    CHECKERBOARD: 8x8-pixel squares toggling every frame in all channels;
    the sequence cycles with period 2.

    Frames are pure functions of (pattern, width, height, seed, index) and
    are bit-identical across runs and platforms.
    """

    MOVING_GRADIENT = "moving-gradient"
    CHECKERBOARD = "checkerboard"


@dataclass(frozen=True)
class SyntheticSource:
    """Deterministic RGB frame generator; the seed offsets the phase."""

    width: int
    height: int
    pattern: FramePattern = FramePattern.MOVING_GRADIENT
    seed: int = 0

    def __post_init__(self) -> None:
        _check_dimensions(self.width, self.height)


@dataclass(frozen=True)
class RawStreamSource:
    """Headerless file of concatenated RGB24 frames, row-major from top-left.

    Dimensions come from the caller; the file length must be a positive
    multiple of width*height*3.
    """

    path: str
    width: int
    height: int

    def __post_init__(self) -> None:
        _check_dimensions(self.width, self.height)
        size = os.path.getsize(self.path)
        if size == 0:
            raise SizeError(f"{self.path} is empty; it holds no frame")
        if size % self.frame_size != 0:
            raise SizeError(
                f"{self.path} holds {size} bytes, not a multiple of the "
                f"{self.frame_size}-byte frame size"
            )

    @property
    def frame_size(self) -> int:
        return self.width * self.height * 3

    @property
    def frame_count(self) -> int:
        return os.path.getsize(self.path) // self.frame_size


FrameSource = SyntheticSource | RawStreamSource


def _synthetic_frame(source: SyntheticSource, index: int) -> ImageBuffer:
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
    return ImageBuffer._from_array(out)


def _raw_frame(source: RawStreamSource, index: int) -> ImageBuffer:
    if index < 0 or index >= source.frame_count:
        raise EndOfStream(f"no frame {index} in {source.path}")
    with open(source.path, "rb") as f:
        f.seek(index * source.frame_size)
        data = f.read(source.frame_size)
    if len(data) != source.frame_size:
        raise SizeError(f"truncated frame {index} in {source.path}")
    return decode_bytes(data, source.width, source.height, PixelFormat.RGB24)


def next_frame(source: FrameSource, index: int) -> ImageBuffer:
    """Frame `index` of a source as an RGB float buffer.

    Synthetic frames are deterministic functions of the source parameters
    and the index; raw frames are decoded from the file.

    Raises:
        EndOfStream: when a raw stream has no frame at the index.
    """
    if isinstance(source, SyntheticSource):
        return _synthetic_frame(source, index)
    return _raw_frame(source, index)


class DetectorKind(Enum):
    """Built-in detector workloads for the frame loop."""

    SOBEL = "sobel"
    FREI_CHEN = "freichen"


# The frame loop's Frei-Chen measure projects onto the full edge-and-line
# subspace; callers wanting a specific subset use detectors.frei_chen.
PIPELINE_FREI_CHEN_SUBSET = FreiChenSubset.EDGE_AND_LINE

def _process_frame(frame: ImageBuffer, work) -> ImageBuffer:
    if isinstance(work, ChainSpec):
        return execute_chain_reference(frame, work)
    if work is DetectorKind.SOBEL:
        return sobel_magnitude_rgb(frame)
    if work is DetectorKind.FREI_CHEN:
        return frei_chen(to_luminance(frame), PIPELINE_FREI_CHEN_SUBSET)
    raise TypeError(f"work must be a ChainSpec or DetectorKind, got {type(work).__name__}")


@dataclass(frozen=True)
class FrameStats:
    """Measured phase times for one frame, in milliseconds.

    Raises:
        ValueError: unless both times are real, finite and non-negative
            numbers; a bool is rejected.
    """

    acquisition_ms: float
    processing_ms: float

    def __post_init__(self) -> None:
        for ms in (self.acquisition_ms, self.processing_ms):
            if not (_is_real(ms) and math.isfinite(ms) and ms >= 0.0):
                raise ValueError(f"frame timings must be finite and non-negative, got {ms!r}")


def _check_vsync(vsync_hz: float) -> None:
    if not (_is_real(vsync_hz) and vsync_hz > 0.0 and math.isfinite(vsync_hz)):
        raise ValueError(f"vsync_hz must be positive and finite, got {vsync_hz}")


def _nearest_rank(ordered, pct: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


@dataclass(frozen=True)
class RunReport:
    """Aggregated timings for one benchmark run.

    The constructor takes per_frame, vsync_hz and partial, and derives
    frame_count and every aggregate from per_frame and vsync_hz, so no report
    holds an aggregate that disagrees with its frames. Means are arithmetic,
    percentiles use nearest-rank, fps_uncapped is 1000 / (mean_acquisition_ms
    + mean_processing_ms), and fps_capped is that value capped at vsync_hz.
    A run truncated by the source ending early carries partial=True. A run
    with no measured frames reports all aggregates as 0.0.

    Raises:
        ValueError: if vsync_hz is a bool or not finite and > 0.
    """

    per_frame: tuple[FrameStats, ...]
    vsync_hz: float
    partial: bool = False
    frame_count: int = field(init=False)
    mean_acquisition_ms: float = field(init=False)
    mean_processing_ms: float = field(init=False)
    p50_processing_ms: float = field(init=False)
    p95_processing_ms: float = field(init=False)
    fps_uncapped: float = field(init=False)
    fps_capped: float = field(init=False)

    def __post_init__(self) -> None:
        _check_vsync(self.vsync_hz)
        frames = tuple(self.per_frame)
        count = len(frames)
        aggregates = (0.0,) * 6
        if count:
            mean_acq = sum(f.acquisition_ms for f in frames) / count
            mean_proc = sum(f.processing_ms for f in frames) / count
            ordered = sorted(f.processing_ms for f in frames)
            total = mean_acq + mean_proc
            fps_uncapped = 1000.0 / total if total > 0.0 else 0.0
            aggregates = (
                mean_acq, mean_proc, _nearest_rank(ordered, 50.0), _nearest_rank(ordered, 95.0),
                fps_uncapped, min(self.vsync_hz, fps_uncapped),
            )
        object.__setattr__(self, "per_frame", frames)
        for name, value in zip(_DERIVED, (count,) + aggregates):
            object.__setattr__(self, name, value)

    def to_dict(self) -> dict:
        """Plain-data form for JSON serialization; from_dict inverts it."""
        return {
            "frame_count": self.frame_count,
            "per_frame": [asdict(f) for f in self.per_frame],
            **{name: getattr(self, name) for name in _DERIVED if name != "frame_count"},
            "vsync_hz": self.vsync_hz,
            "partial": self.partial,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunReport":
        """Rebuild a report from per_frame, checking the stored aggregates.

        Raises:
            ValueError: if a key is missing, partial is not a bool, vsync_hz
                or a frame timing is out of range, frame_count is not the
                integer number of frames, or a stored aggregate is not a
                number (a bool is rejected) or differs from its value derived
                from per_frame by more than 1e-9 relative (1e-12 absolute).
        """
        try:
            timings = [(f["acquisition_ms"], f["processing_ms"]) for f in data["per_frame"]]
            stored = {name: data[name] for name in ("vsync_hz", "partial") + _DERIVED}
        except KeyError as exc:
            raise ValueError(f"report is missing the key {exc.args[0]!r}") from None
        partial, count = stored.pop("partial"), stored.pop("frame_count")
        if type(partial) is not bool:
            raise ValueError(f"partial must be true or false, got {partial!r}")
        report = cls(tuple(FrameStats(*t) for t in timings), stored.pop("vsync_hz"), partial)
        if type(count) is not int or count != report.frame_count:
            raise ValueError(f"frame_count is {count!r}, per_frame gives {report.frame_count}")
        for name, value in stored.items():
            derived = getattr(report, name)
            if not (_is_real(value) and math.isclose(value, derived, rel_tol=1e-9, abs_tol=1e-12)):
                raise ValueError(f"{name} is {value}, per_frame gives {derived}")
        return report


# frame_count and the aggregates, in declaration (and serialization) order.
_DERIVED = tuple(f.name for f in fields(RunReport) if not f.init)


def run(
    source: FrameSource,
    work,
    frames: int,
    vsync_hz: float = DEFAULT_VSYNC_HZ,
    warmup: int = 0,
) -> RunReport:
    """Process `frames` frames, timing acquisition and processing separately.

    Acquisition covers next_frame: fetching or synthesizing the frame,
    staged as a float buffer. Processing covers the operator work, including
    the grayscale conversion the Frei-Chen detector needs. The first
    `warmup` frames run at full cost but stay out of the report. If the
    source ends before all requested frames, the report covers the measured
    frames and is flagged partial.

    Args:
        source: frame provider.
        work: a ChainSpec or a DetectorKind.
        frames: measured frame count, an integer >= 1.
        vsync_hz: display refresh ceiling for fps_capped, finite and > 0.
        warmup: frames discarded before measurement, an integer >= 0.

    Raises:
        ValueError: for any other frames, warmup or vsync_hz, before any
            frame runs.
    """
    for name, value, minimum in (("frames", frames, 1), ("warmup", warmup, 0)):
        if not _is_count(value, minimum):
            raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")
    _check_vsync(vsync_hz)
    measured = []
    partial = False
    for index in range(frames + warmup):
        start = now()
        try:
            frame = next_frame(source, index)
        except EndOfStream:
            partial = True
            break
        acquired = now()
        _process_frame(frame, work)
        done = now()
        if index >= warmup:
            measured.append(
                FrameStats(elapsed_ms(start, acquired), elapsed_ms(acquired, done))
            )
    return RunReport(measured, vsync_hz, partial)
