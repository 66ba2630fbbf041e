"""Kernel values, preset masks, the correlation engine, and kernel composition.

The engine computes correlation, not flipped convolution: the kernel is laid
over each pixel's neighborhood as printed, top-left coefficient over the
upper-left neighbor. Out-of-bounds reads are resolved by a border policy;
the default replicates edge pixels the way GPU clamp-to-edge samplers do.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .image import ImageBuffer, _ieee_arithmetic


class BorderPolicy(Enum):
    """How samples outside the image are produced."""

    CLAMP_TO_EDGE = "clamp"
    ZERO_PAD = "zero"

    @property
    def pad_mode(self) -> str:
        """The numpy.pad mode implementing this policy."""
        return "edge" if self is BorderPolicy.CLAMP_TO_EDGE else "constant"


class Kernel:
    """Odd-sided square coefficient matrix, row-major."""

    __slots__ = ("_coefficients",)

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


# Output is produced in strips whose buffers together take roughly this many
# bytes, so the working set stays cache-resident at any resolution; per-pixel
# cost then scales linearly with pixel count instead of degrading once frames
# outgrow the cache.
_STRIP_BYTES = 1 << 20


def _strip_rows(arr: np.ndarray, buffers: int = 1) -> int:
    """Rows per strip when each of `buffers` strip buffers holds arr's rows."""
    return max(1, _STRIP_BYTES // (buffers * max(arr.strides[0], 1)))


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
    pos = [(dy, dx, w) for dy, dx, w in taps if w > 0.0]
    neg = [(dy, dx, -w) for dy, dx, w in taps if w < 0.0]
    return pos, neg


def _accumulate(views, dest, scratch):
    """dest = sum of weight * view over the (view, weight) pairs, in order.

    Each view is a contiguous 1-D slice the size of dest, laid out on the
    padded row pitch (see _strip_grid). A tap whose weight is exactly 1.0 is
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


def _tap_views(flat, taps, base, pitch, channels, size):
    """The (view, weight) pair of each tap of one row strip.

    flat is the padded sample array as one vector, so tap (dy, dx) reads the
    contiguous slice of flat that starts dy rows and dx pixels after base.
    """
    starts = [(base + dy * pitch + dx * channels, weight) for dy, dx, weight in taps]
    return [(flat[start : start + size], weight) for start, weight in starts]


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


def _strip_grid(buf: np.ndarray, rows: int, pitch: int, w: int, channels: int) -> np.ndarray:
    """The (rows, w, channels) output pixels of a strip buffer.

    A strip buffer is laid out on the padded row pitch, (w + 2r) * channels:
    output pixel (y, x, k) of the strip is element y * pitch + x * channels + k.
    So each stencil tap reads one contiguous slice of the padded array. The
    last 2r * channels elements of each buffer row match no output pixel; they
    are computed, may hold inf or NaN, and are never read.
    """
    valid = buf[: rows * pitch].reshape(rows, pitch)[:, : w * channels]
    return valid.reshape(rows, w, channels)


def pad_samples(arr: np.ndarray, radius: int, border: BorderPolicy) -> np.ndarray:
    """Pad a (h, w, c) sample array by radius rows/columns per the policy."""
    return np.pad(arr, ((radius, radius), (radius, radius), (0, 0)), mode=border.pad_mode)


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
    printed (no flip). Output dimensions equal input dimensions.

    Args:
        image: input buffer, 1 or 3 channels.
        kernel: odd-sided coefficient matrix.
        border: how out-of-bounds neighbors are read.
        normalize: divide the result by the coefficient sum W, with W
            substituted by 1 when W <= 0 so zero-sum edge kernels pass
            through the same code path unscaled.
    """
    arr = image.samples
    h, w, channels = arr.shape
    padded = pad_samples(arr, kernel.side // 2, border)
    flat = padded.reshape(-1)
    pitch = padded.shape[1] * channels
    pos, neg = _split_taps(kernel.coefficients)
    weight = float(kernel.coefficients.sum())
    if weight <= 0.0:
        weight = 1.0
    out = np.empty_like(arr)
    # Result, scratch and acc share the strip budget; _strip_grid gives their
    # layout. One pass moves each strip's result into out: the divide by the
    # weight when normalizing, a copy otherwise.
    strip = _strip_rows(padded, buffers=3)
    result, scratch, acc = np.empty((3, min(strip, h) * pitch))
    for y0 in range(0, h, strip):
        rows = min(strip, h - y0)
        size = (rows - 1) * pitch + w * channels
        views = (_tap_views(flat, taps, y0 * pitch, pitch, channels, size) for taps in (pos, neg))
        _stencil_strip(*views, result[:size], scratch[:size], acc[:size])
        grid = _strip_grid(result, rows, pitch, w, channels)
        if normalize:
            np.divide(grid, weight, out=out[y0 : y0 + rows])
        else:
            np.copyto(out[y0 : y0 + rows], grid)
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
