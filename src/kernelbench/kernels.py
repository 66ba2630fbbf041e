"""Kernel values, preset masks, the correlation engine, and kernel composition.

The engine computes correlation, not flipped convolution: the kernel is laid
over each pixel's neighborhood as printed, top-left coefficient over the
upper-left neighbor. Out-of-bounds reads are resolved by a border policy;
the default replicates edge pixels the way GPU clamp-to-edge samplers do.
"""

from __future__ import annotations

import math
from enum import Enum
from functools import partial

import numpy as np

from .image import (
    ImageBuffer,
    _ieee_arithmetic,
    _pad_buffers,
    _run_ranges,
    _step_output,
    _strip_rows,
)


class BorderPolicy(Enum):
    """How samples outside the image are produced."""

    CLAMP_TO_EDGE = "clamp"
    ZERO_PAD = "zero"

    @property
    def pad_mode(self) -> str:
        """The numpy.pad mode implementing this policy."""
        return "edge" if self is BorderPolicy.CLAMP_TO_EDGE else "constant"


def _split_taps(coefficients: np.ndarray):
    """Split nonzero taps into positive and negative groups.

    Each group is sorted by descending magnitude (stable, so row-major order
    breaks ties) and the negative group stores the magnitudes. Accumulating
    the groups separately and subtracting at the end makes zero-sum kernels
    cancel exactly on constant input: both groups then sum the same
    multiset of products in the same order.
    """
    side = coefficients.shape[0]
    taps = [
        (dy, dx, float(coefficients[dy, dx]))
        for dy in range(side)
        for dx in range(side)
        if coefficients[dy, dx] != 0.0
    ]
    taps.sort(key=lambda t: -abs(t[2]))
    pos = tuple((dy, dx, w) for dy, dx, w in taps if w > 0.0)
    neg = tuple((dy, dx, -w) for dy, dx, w in taps if w < 0.0)
    return pos, neg


class Kernel:
    """Odd-sided square coefficient matrix, row-major.

    Its taps split into sign groups (_taps, by _split_taps) and its
    coefficient sum (_weight) are derived once, here.
    """

    __slots__ = ("_coefficients", "_taps", "_weight")

    def __init__(self, coefficients) -> None:
        arr = np.array(coefficients, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"kernel must be square, got shape {arr.shape}")
        if arr.shape[0] % 2 == 0:
            raise ValueError(f"kernel side must be odd, got {arr.shape[0]}")
        if not np.isfinite(arr).all():
            raise ValueError("kernel coefficients must be finite")
        arr.setflags(write=False)
        self._coefficients = arr
        self._taps = _split_taps(arr)
        self._weight = float(arr.sum())

    @property
    def coefficients(self) -> np.ndarray:
        """Read-only (side, side) float64 array."""
        return self._coefficients

    @property
    def side(self) -> int:
        return self._coefficients.shape[0]

    def __repr__(self) -> str:
        return f"Kernel(side={self.side})"


def parse_kernel(text: str) -> Kernel:
    """Parse the CLI kernel format: side first, then side*side row-major floats.

    Example: "3 0 1 0 0 0 1 0 0 0".
    """
    parts = text.split()
    if not parts:
        raise ValueError("empty kernel spec")
    try:
        side = int(parts[0])
    except ValueError:
        raise ValueError(f"kernel spec must start with the side length, got {parts[0]!r}")
    if side < 1:
        raise ValueError(f"kernel side must be a positive integer, got {side}")
    try:
        values = [float(p) for p in parts[1:]]
    except ValueError as exc:
        raise ValueError(f"bad kernel coefficient in {text!r}") from exc
    if len(values) != side * side:
        raise ValueError(f"expected {side * side} coefficients, got {len(values)}")
    return Kernel(np.array(values).reshape(side, side))


# Sobel masks, exactly as conventionally printed. Note the axis convention:
# the mask named GX here responds to vertical variation (it differentiates
# along y); the names follow the customary printed labels rather than the
# response axis.
SOBEL_GX = Kernel([[-1.0, -2.0, -1.0], [0.0, 0.0, 0.0], [1.0, 2.0, 1.0]])
SOBEL_GY = Kernel([[-1.0, 0.0, 1.0], [-2.0, 0.0, 2.0], [-1.0, 0.0, 1.0]])

_S2 = math.sqrt(2.0)

# The nine Frei-Chen masks: an orthonormal basis of 3x3 patch space.
# G1..G4 span the edge subspace, G5..G8 the line subspace, G9 smooths.
FREI_CHEN = (
    Kernel(np.array([[1.0, _S2, 1.0], [0.0, 0.0, 0.0], [-1.0, -_S2, -1.0]]) / (2.0 * _S2)),
    Kernel(np.array([[1.0, 0.0, -1.0], [_S2, 0.0, -_S2], [1.0, 0.0, -1.0]]) / (2.0 * _S2)),
    Kernel(np.array([[0.0, -1.0, _S2], [1.0, 0.0, -1.0], [-_S2, 1.0, 0.0]]) / (2.0 * _S2)),
    Kernel(np.array([[_S2, -1.0, 0.0], [-1.0, 0.0, 1.0], [0.0, 1.0, -_S2]]) / (2.0 * _S2)),
    Kernel(np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, -1.0], [0.0, 1.0, 0.0]]) / 2.0),
    Kernel(np.array([[-1.0, 0.0, 1.0], [0.0, 0.0, 0.0], [1.0, 0.0, -1.0]]) / 2.0),
    Kernel(np.array([[1.0, -2.0, 1.0], [-2.0, 4.0, -2.0], [1.0, -2.0, 1.0]]) / 6.0),
    Kernel(np.array([[-2.0, 1.0, -2.0], [1.0, 4.0, 1.0], [-2.0, 1.0, -2.0]]) / 6.0),
    Kernel(np.ones((3, 3)) / 3.0),
)


def _accumulate(views, dest, scratch):
    """dest = sum of weight * view over the (view, weight) pairs, in order.

    Each view is a contiguous 1-D slice the size of dest, laid out on the
    padded row pitch (image._step_output). A tap whose weight is exactly 1.0 is
    added straight from its slice instead of going through a multiply and the
    scratch array, which may be None when every weight is 1.0. This is
    bit-identical to multiplying: x * 1.0 == x for every double, including
    -0.0, the infinities and NaN, and the taps are summed in the same order.
    """
    first, weight = views[0]
    rest = views[1:]
    if weight != 1.0:
        np.multiply(first, weight, out=dest)
    elif rest and rest[0][1] == 1.0:
        np.add(first, rest[0][0], out=dest)
        rest = rest[1:]
    else:
        np.copyto(dest, first)
    for view, weight in rest:
        if weight == 1.0:
            dest += view
        else:
            np.multiply(view, weight, out=scratch)
            dest += scratch


def _stencil_strip(pos, neg, out, scratch, acc):
    """Correlate one row strip into out from the (view, weight) pairs of each sign group."""
    if pos and neg:
        _accumulate(pos, out, scratch)
        _accumulate(neg, acc, scratch)
        out -= acc
    elif pos:
        _accumulate(pos, out, scratch)
    elif neg:
        _accumulate(neg, out, scratch)
        np.negative(out, out=out)
    else:
        out[:] = 0.0


def pad_samples(arr: np.ndarray, radius: int, border: BorderPolicy) -> np.ndarray:
    """Pad a (h, w, c) sample array by radius rows/columns per a BorderPolicy, else TypeError.

    The result has the bits np.pad(..., mode=border.pad_mode) gives. Inside
    pipeline.run it is one of the run's two buffers for its shape: slot 1 if
    arr is a view of it, else slot 0. The next pad in that slot overwrites
    it. Outside a run it is a fresh array. An arr that is already that
    buffer's interior (image._slot_interior, image._step_output), such as a
    frame or a chain step's output, stays there, so only the border is written.
    """
    if not isinstance(border, BorderPolicy):
        raise TypeError(f"border must be a BorderPolicy, got {type(border).__name__}")
    h, w, channels = arr.shape
    r = radius
    slots = _pad_buffers((h + 2 * r, w + 2 * r, channels))
    out = slots[-1] if arr.base is slots[-1] else slots[0]
    interior = out[r : r + h, r : r + w]
    # The cheap identity test first, as it runs on every call.
    if not (arr.base is out and arr.strides == out.strides
            and arr.__array_interface__["data"][0] == interior.__array_interface__["data"][0]):
        interior[...] = arr
    # The side columns first, then whole rows, so the corners come from the
    # edge columns just as np.pad's edge mode fills them. They are read from
    # the interior, which holds arr's samples even if arr overlapped it.
    clamp = border is BorderPolicy.CLAMP_TO_EDGE
    out[r : r + h, :r] = interior[:, :1] if clamp else 0.0
    out[r : r + h, r + w :] = interior[:, -1:] if clamp else 0.0
    out[:r] = out[r : r + 1] if clamp else 0.0
    out[r + h :] = out[r + h - 1 : r + h] if clamp else 0.0
    return out


@_ieee_arithmetic
def _correlate_rows(padded, taps, divisor, into, width, strip, y_start, y_end) -> None:
    """Write output rows [y_start, y_end) of correlate into into, strip by strip.

    taps holds the (offset, weight) pairs of each sign group, divisor the
    weight to normalize by, or None, and width an output row's samples. Each
    strip accumulates straight into its slice of into, the output's samples
    on the padded pitch (image._step_output), and divides in place. One row
    range of _run_ranges, with strip buffers of its own.
    """
    pitch = padded[0].size
    flat = padded.reshape(-1)
    scratch, acc = np.empty((2, min(strip, y_end - y_start) * pitch))
    for y0 in range(y_start, y_end, strip):
        rows = min(strip, y_end - y0)
        size = (rows - 1) * pitch + width
        base = y0 * pitch
        # Tap (dy, dx) of a strip reads the slice of flat that starts dy rows
        # and dx pixels after the strip's first padded sample.
        views = ([(flat[base + o : base + o + size], c) for o, c in group] for group in taps)
        dest = into[base : base + size]
        _stencil_strip(*views, dest, scratch[:size], acc[:size])
        if divisor is not None:
            dest /= divisor


@_ieee_arithmetic
def correlate(
    image: ImageBuffer,
    kernel: Kernel,
    border: BorderPolicy = BorderPolicy.CLAMP_TO_EDGE,
    normalize: bool = False,
) -> ImageBuffer:
    """Correlate an image with a kernel, per channel.

    Every output pixel is the sum of kernel coefficients times the samples
    under them, with the kernel centered on the pixel and laid out as
    printed (no flip). Output dimensions equal input dimensions. The output
    is on the pad's pitch of (w + 2r) * c samples for a kernel of radius r,
    like every stencil output (image._step_output). The image is padded
    once, then its strips run in _correlate_rows: as row ranges on the run's
    pool in the steps of a long chain inside pipeline.run, else as one range
    on the calling thread (_run_ranges).
    Each pixel gets the same operations in the same order in any range, so
    the split changes no value and no bit outside NaNs; where a NaN and a
    -NaN meet, the sign of the NaN kept may depend on it.

    Args:
        image: input buffer, 1 or 3 channels.
        kernel: odd-sided coefficient matrix.
        border: how out-of-bounds neighbors are read.
        normalize: divide the result by the coefficient sum W, with W
            substituted by 1 when W <= 0 so zero-sum edge kernels pass
            through the same code path unscaled.
    """
    h, w, channels = image.samples.shape
    padded = pad_samples(image.samples, kernel.side // 2, border)
    pitch = padded.shape[1] * channels
    taps = tuple([(dy * pitch + dx * channels, c) for dy, dx, c in group] for group in kernel._taps)
    weight = kernel._weight
    divisor = (weight if weight > 0.0 else 1.0) if normalize else None
    out, into = _step_output(h, w, channels, padded)
    strip = _strip_rows(padded)
    rows = partial(_correlate_rows, padded, taps, divisor, into, w * channels, strip)
    _run_ranges(h, strip, rows, chain_only=True)
    return ImageBuffer._from_array(out)


@_ieee_arithmetic
def compose(k1: Kernel, k2: Kernel) -> Kernel:
    """Return the single kernel equivalent to correlating with k1 then k2.

    Away from borders, correlate(correlate(I, k1), k2) equals
    correlate(I, compose(k1, k2)). The result has side s1 + s2 - 1 and is
    computed by direct double summation over coefficient pairs, which keeps
    this function usable as an oracle for the engine.

    Raises:
        ValueError: if a composed coefficient overflows to inf.
    """
    a = k1.coefficients
    b = k2.coefficients
    s1, s2 = k1.side, k2.side
    out = np.zeros((s1 + s2 - 1, s1 + s2 - 1))
    for i1 in range(s1):
        for j1 in range(s1):
            for i2 in range(s2):
                for j2 in range(s2):
                    out[i1 + i2, j1 + j2] += a[i1, j1] * b[i2, j2]
    return Kernel(out)
