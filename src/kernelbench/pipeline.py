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
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .detectors import FREI_CHEN_EPSILON, FreiChenSubset, frei_chen, sobel_magnitude_rgb
from .errors import EndOfStream, SizeError
from .image import ImageBuffer, PixelFormat, decode_bytes, to_luminance
from .kernels import FREI_CHEN, SOBEL_GX, SOBEL_GY
from .shadergen import ChainPass, ChainSpec, execute_chain_reference


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


def clock_resolution_ms(samples: int = 1000) -> float:
    """Median of the positive deltas between consecutive now() readings."""
    readings = [now() for _ in range(samples + 1)]
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
        if self.width < 1 or self.height < 1:
            raise SizeError(f"dimensions must be at least 1x1, got {self.width}x{self.height}")


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
        if self.width < 1 or self.height < 1:
            raise SizeError(f"dimensions must be at least 1x1, got {self.width}x{self.height}")
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


class Engine(Enum):
    """Which execution path processes frames.

    CPU runs the direct numpy operators. CHAIN_REFERENCE routes everything
    through the shader-semantics reference executor; detectors decompose
    into one single-pass chain per kernel plus a numpy combine step. For
    plain chain workloads the two engines execute the same correlations.
    """

    CPU = "cpu"
    CHAIN_REFERENCE = "chainref"


class DetectorKind(Enum):
    """Built-in detector workloads for the frame loop."""

    SOBEL = "sobel"
    FREI_CHEN = "freichen"


# The frame loop's Frei-Chen measure projects onto the full edge-and-line
# subspace; callers wanting a specific subset use detectors.frei_chen.
PIPELINE_FREI_CHEN_SUBSET = FreiChenSubset.EDGE_AND_LINE

_SOBEL_GX_CHAIN = ChainSpec((ChainPass(SOBEL_GX),))
_SOBEL_GY_CHAIN = ChainSpec((ChainPass(SOBEL_GY),))
_FREI_CHEN_CHAINS = tuple(ChainSpec((ChainPass(mask),)) for mask in FREI_CHEN)


def _sobel_via_chains(frame: ImageBuffer) -> ImageBuffer:
    gx = execute_chain_reference(frame, _SOBEL_GX_CHAIN).samples
    gy = execute_chain_reference(frame, _SOBEL_GY_CHAIN).samples
    magnitude = np.hypot(gx, gy).max(axis=2)
    return ImageBuffer._from_array(magnitude.reshape(magnitude.shape + (1,)))


def _frei_chen_via_chains(gray: ImageBuffer) -> ImageBuffer:
    chosen = set(PIPELINE_FREI_CHEN_SUBSET.mask_indices)
    numerator = np.zeros_like(gray.samples)
    total = np.zeros_like(gray.samples)
    for index, chain in enumerate(_FREI_CHEN_CHAINS):
        response = execute_chain_reference(gray, chain).samples
        squared = response * response
        total += squared
        if index in chosen:
            numerator += squared
    flat = total < FREI_CHEN_EPSILON
    np.divide(numerator, total, out=numerator, where=~flat)
    numerator[flat] = 0.0
    return ImageBuffer._from_array(np.sqrt(numerator))


def _process_frame(frame: ImageBuffer, work, engine: Engine) -> ImageBuffer:
    if isinstance(work, ChainSpec):
        # Chains execute identically under both engines: the reference
        # executor is the CPU implementation of chain semantics.
        return execute_chain_reference(frame, work)
    if work is DetectorKind.SOBEL:
        if engine is Engine.CHAIN_REFERENCE:
            return _sobel_via_chains(frame)
        return sobel_magnitude_rgb(frame)
    if work is DetectorKind.FREI_CHEN:
        gray = to_luminance(frame)
        if engine is Engine.CHAIN_REFERENCE:
            return _frei_chen_via_chains(gray)
        return frei_chen(gray, PIPELINE_FREI_CHEN_SUBSET)
    raise TypeError(f"work must be a ChainSpec or DetectorKind, got {type(work).__name__}")


@dataclass(frozen=True)
class FrameStats:
    """Measured phase times for one frame, in milliseconds."""

    acquisition_ms: float
    processing_ms: float

    def __post_init__(self) -> None:
        if self.acquisition_ms < 0.0 or self.processing_ms < 0.0:
            raise ValueError("frame timings must be non-negative")


def _nearest_rank(ordered, pct: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


@dataclass(frozen=True)
class RunReport:
    """Aggregated timings for one benchmark run.

    All aggregate fields are pure functions of per_frame and vsync_hz:
    means are arithmetic, percentiles use nearest-rank, fps_uncapped is
    1000 / (mean_acquisition_ms + mean_processing_ms), and fps_capped is
    that value capped at vsync_hz. A run truncated by the source ending
    early carries partial=True. A run with no measured frames reports all
    aggregates as 0.0.
    """

    frame_count: int
    per_frame: tuple[FrameStats, ...]
    mean_acquisition_ms: float
    mean_processing_ms: float
    p50_processing_ms: float
    p95_processing_ms: float
    fps_uncapped: float
    fps_capped: float
    vsync_hz: float
    partial: bool = False

    @classmethod
    def from_frames(cls, per_frame, vsync_hz: float, partial: bool = False) -> "RunReport":
        """Build a report by aggregating per-frame stats."""
        frames = tuple(per_frame)
        count = len(frames)
        if count == 0:
            return cls(0, frames, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, vsync_hz, partial)
        mean_acq = sum(f.acquisition_ms for f in frames) / count
        mean_proc = sum(f.processing_ms for f in frames) / count
        ordered = sorted(f.processing_ms for f in frames)
        p50 = _nearest_rank(ordered, 50.0)
        p95 = _nearest_rank(ordered, 95.0)
        total = mean_acq + mean_proc
        fps_uncapped = 1000.0 / total if total > 0.0 else 0.0
        fps_capped = min(vsync_hz, fps_uncapped)
        return cls(
            count, frames, mean_acq, mean_proc, p50, p95, fps_uncapped, fps_capped,
            vsync_hz, partial,
        )

    def validate(self) -> None:
        """Recompute every aggregate from per_frame and require agreement.

        Raises:
            ValueError: if any aggregate drifts from its recomputation by
                more than 1e-9 relative, or an ordering invariant fails.
        """
        if self.frame_count != len(self.per_frame):
            raise ValueError("frame_count does not match per_frame length")
        expected = RunReport.from_frames(self.per_frame, self.vsync_hz, self.partial)
        for name in (
            "mean_acquisition_ms",
            "mean_processing_ms",
            "p50_processing_ms",
            "p95_processing_ms",
            "fps_uncapped",
            "fps_capped",
        ):
            got = getattr(self, name)
            want = getattr(expected, name)
            if not math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-12):
                raise ValueError(f"{name} is {got}, recomputation gives {want}")
        if self.fps_capped > self.vsync_hz or self.fps_capped > self.fps_uncapped + 1e-12:
            raise ValueError("fps_capped exceeds its bounds")

    def to_dict(self) -> dict:
        """Plain-data form for JSON serialization; from_dict inverts it."""
        return {
            "frame_count": self.frame_count,
            "per_frame": [
                {"acquisition_ms": f.acquisition_ms, "processing_ms": f.processing_ms}
                for f in self.per_frame
            ],
            "mean_acquisition_ms": self.mean_acquisition_ms,
            "mean_processing_ms": self.mean_processing_ms,
            "p50_processing_ms": self.p50_processing_ms,
            "p95_processing_ms": self.p95_processing_ms,
            "fps_uncapped": self.fps_uncapped,
            "fps_capped": self.fps_capped,
            "vsync_hz": self.vsync_hz,
            "partial": self.partial,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunReport":
        frames = tuple(
            FrameStats(f["acquisition_ms"], f["processing_ms"]) for f in data["per_frame"]
        )
        return cls(
            data["frame_count"],
            frames,
            data["mean_acquisition_ms"],
            data["mean_processing_ms"],
            data["p50_processing_ms"],
            data["p95_processing_ms"],
            data["fps_uncapped"],
            data["fps_capped"],
            data["vsync_hz"],
            data["partial"],
        )


def run(
    source: FrameSource,
    work,
    frames: int,
    vsync_hz: float = 60.0,
    engine: Engine = Engine.CPU,
    warmup: int = 0,
) -> RunReport:
    """Process `frames` frames, timing acquisition and processing separately.

    Acquisition covers next_frame: fetching or synthesizing the frame,
    staged as a float buffer. Processing covers the operator work, including
    the grayscale conversion the Frei-Chen detector needs. The first
    `warmup` frames run at full cost but stay out of the report. If the
    source ends before all requested frames, the report covers the measured
    frames and is flagged partial. The returned report is validated.

    Args:
        source: frame provider.
        work: a ChainSpec or a DetectorKind.
        frames: measured frame count, >= 1.
        vsync_hz: display refresh ceiling for fps_capped, finite and > 0.
        engine: execution path, see Engine.
        warmup: frames discarded before measurement, >= 0.
    """
    if frames < 1:
        raise ValueError(f"frames must be >= 1, got {frames}")
    if not (vsync_hz > 0.0 and math.isfinite(vsync_hz)):
        raise ValueError(f"vsync_hz must be positive and finite, got {vsync_hz}")
    if warmup < 0:
        raise ValueError(f"warmup must be >= 0, got {warmup}")
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
        _process_frame(frame, work, engine)
        done = now()
        if index >= warmup:
            measured.append(
                FrameStats(elapsed_ms(start, acquired), elapsed_ms(acquired, done))
            )
    report = RunReport.from_frames(measured, vsync_hz, partial)
    report.validate()
    return report
