"""Sobel gradient magnitude, Frei-Chen projection measure, and binarization."""

from __future__ import annotations

from enum import Enum

import numpy as np

from .errors import FormatError, RangeError, _is_real
from .image import ImageBuffer, _ieee_arithmetic
from .kernels import (
    FREI_CHEN,
    BorderPolicy,
    _split_taps,
    _stencil_strip,
    _strip_grid,
    _strip_rows,
    pad_samples,
)

# Below this squared-response total the Frei-Chen measure is defined as 0
# instead of dividing by (near) zero.
FREI_CHEN_EPSILON = 1e-12

# The positive and negative taps of each Frei-Chen mask, in basis order.
_FREI_CHEN_TAPS = tuple(_split_taps(mask.coefficients) for mask in FREI_CHEN)

# The distinct tap magnitudes of the nine masks. Each strip of the padded
# frame is multiplied once by each of them, into one band per magnitude.
_FREI_CHEN_MAGNITUDES = tuple(
    sorted({weight for taps in _FREI_CHEN_TAPS for group in taps for _, _, weight in group})
)

# Strip buffers of the fused Frei-Chen loop, all counted against the strip
# budget: the response, the negative-tap accumulator, M, S and the bands.
_FREI_CHEN_BUFFERS = 4 + len(_FREI_CHEN_MAGNITUDES)


class FreiChenSubset(Enum):
    """Which masks contribute to the Frei-Chen numerator."""

    EDGE = "edge"
    LINE = "line"
    EDGE_AND_LINE = "both"

    @property
    def mask_indices(self) -> range:
        """Zero-based indices into the nine-mask basis."""
        if self is FreiChenSubset.EDGE:
            return range(0, 4)
        if self is FreiChenSubset.LINE:
            return range(4, 8)
        return range(0, 8)


def _combine_gradients(gx, gy, out: np.ndarray, scratch: np.ndarray) -> None:
    """out = max over channels of hypot(gx, gy), the Sobel channel combine.

    hypot writes into scratch, which may be gx itself. The max
    is one np.maximum per extra channel on the channel views, which numpy
    runs far faster than np.max over a 3-wide inner axis. Both give the same
    value; only where several channels are NaN may they keep different NaNs.
    """
    magnitude = np.hypot(gx, gy, out=scratch)
    if magnitude.shape[2] == 1:
        np.copyto(out, magnitude[:, :, 0])
        return
    np.maximum(magnitude[:, :, 0], magnitude[:, :, 1], out=out)
    for channel in range(2, magnitude.shape[2]):
        np.maximum(out, magnitude[:, :, channel], out=out)


@_ieee_arithmetic
def _sobel_samples(arr: np.ndarray, border: BorderPolicy) -> np.ndarray:
    """Per-channel Sobel magnitude reduced with max over channels.

    Sobel is separable: with s the [1 2 1] sum across each padded row and t
    the same sum down each padded column, gx = s[y+1] - s[y-1] and
    gy = t[:, x+1] - t[:, x-1]. Each sum is formed as (2 * centre + left or
    top) + right or bottom, the order in which the tap loop accumulates each
    sign group of SOBEL_GX and SOBEL_GY, so the result is bit-identical to
    correlating with the two masks. Everything runs strip by strip so the
    four strip buffers stay cache-resident at any frame size.
    """
    h, w = arr.shape[0], arr.shape[1]
    padded = pad_samples(arr, 1, border)
    out = np.empty((h, w))
    strip = _strip_rows(arr, buffers=4)
    n0 = min(strip, h)
    rows = np.empty((n0 + 2,) + arr.shape[1:])
    cols = np.empty((n0, w + 2) + arr.shape[2:])
    gx = np.empty((n0,) + arr.shape[1:])
    gy = np.empty_like(gx)
    for y0 in range(0, h, strip):
        y1 = min(y0 + strip, h)
        n = y1 - y0
        band = padded[y0 : y1 + 2]
        s = rows[: n + 2]
        np.multiply(band[:, 1 : w + 1], 2.0, out=s)
        s += band[:, :w]
        s += band[:, 2:]
        np.subtract(s[2:], s[:n], out=gx[:n])
        t = cols[:n]
        np.multiply(band[1 : n + 1], 2.0, out=t)
        t += band[:n]
        t += band[2:]
        np.subtract(t[:, 2:], t[:, :w], out=gy[:n])
        _combine_gradients(gx[:n], gy[:n], out[y0:y1], scratch=gx[:n])
    return out


def _sobel(image: ImageBuffer, border: BorderPolicy) -> ImageBuffer:
    out = _sobel_samples(image.samples, border)
    return ImageBuffer._from_array(out.reshape(out.shape + (1,)))


def sobel_magnitude(
    image: ImageBuffer, border: BorderPolicy = BorderPolicy.CLAMP_TO_EDGE
) -> ImageBuffer:
    """Gradient magnitude sqrt(gx^2 + gy^2) of a gray image; unclamped.

    A constant image yields exactly zero everywhere: gx is s[y+1] - s[y-1]
    for the [1 2 1] row sums s, and gy the same for column sums; on constant
    input both subtract two sums of equal samples added in the same order.

    Raises:
        FormatError: if the image is not single-channel.
    """
    if image.channels != 1:
        raise FormatError("sobel_magnitude requires a gray image; see sobel_magnitude_rgb")
    return _sobel(image, border)


def sobel_magnitude_rgb(
    image: ImageBuffer, border: BorderPolicy = BorderPolicy.CLAMP_TO_EDGE
) -> ImageBuffer:
    """Per-channel Sobel magnitude combined as max(m_R, m_G, m_B).

    Raises:
        FormatError: if the image is not RGB.
    """
    if image.channels != 3:
        raise FormatError("sobel_magnitude_rgb requires an RGB image")
    return _sobel(image, border)


def _flat_windows(band: np.ndarray) -> np.ndarray:
    """Mask of the pixels whose 3x3 window in band is finite and constant.

    band holds the padded rows of one output strip plus one row above and
    below it. A row of a window is constant when its left and right samples
    equal its middle one; the window is constant when its three rows are and
    the middle column is. NaN equals nothing, so a window holding one is
    never flat, and a constant window of infinities is not finite.
    """
    n, w = band.shape[0] - 2, band.shape[1] - 2
    middle = band[:, 1 : w + 1]
    across = (middle == band[:, :w]) & (middle == band[:, 2:])
    centre = middle[1 : n + 1]
    flat = across[:n] & across[1 : n + 1] & across[2:]
    flat &= centre == middle[:n]
    flat &= centre == middle[2:]
    flat &= np.isfinite(centre)
    return flat


def _frei_chen_plan(bands: np.ndarray, pitch: int, size: int):
    """Per mask, the (view, 1.0) pairs of its positive and negative taps.

    Band k holds the strip's padded samples times _FREI_CHEN_MAGNITUDES[k],
    so the view of tap (dy, dx) of magnitude m, which starts dy rows and dx
    pixels into m's band, holds the products that tap would multiply out.
    Its weight of 1.0 makes _accumulate add it without a multiply.
    """

    def views(taps):
        return [
            (bands[_FREI_CHEN_MAGNITUDES.index(m)][dy * pitch + dx :][:size], 1.0)
            for dy, dx, m in taps
        ]

    return [(views(pos), views(neg)) for pos, neg in _FREI_CHEN_TAPS]


@_ieee_arithmetic
def frei_chen(
    image: ImageBuffer,
    subset: FreiChenSubset,
    border: BorderPolicy = BorderPolicy.CLAMP_TO_EDGE,
) -> ImageBuffer:
    """Frei-Chen edge measure sqrt(M / S) in [0, 1].

    M sums the squared responses of the chosen subset, S those of all nine
    basis masks. The image is padded once, then one fused loop runs the nine
    masks and the combine strip by strip. Per strip, the padded rows are
    multiplied once by each distinct tap magnitude, one band per magnitude,
    and every tap is then a plain add of a slice of its band; the products
    and their order are those of multiplying tap by tap. Responses are
    squared and summed in basis order into M and S; each sum starts at its
    first square, and when the subset starts at G1, M is S as it stands after
    the last chosen mask. Because the subset terms are added in the same
    order in both, M never exceeds S even in float arithmetic, so the output
    stays within [0, 1]. Pixels with S below FREI_CHEN_EPSILON report 0, and
    so do pixels whose padded 3x3 window is finite and constant: rounding in
    G7 and G8, whose positive and negative taps differ, would otherwise leave
    about 1e-16 there.

    Raises:
        FormatError: if the image is not single-channel.
    """
    if image.channels != 1:
        raise FormatError("frei_chen requires a gray image; convert with to_luminance")
    arr = image.samples
    h, w = arr.shape[0], arr.shape[1]
    padded = pad_samples(arr, 1, border)
    flat = padded.reshape(-1)
    pitch = w + 2
    out = np.empty_like(arr)
    strip = _strip_rows(padded, buffers=_FREI_CHEN_BUFFERS)
    n0 = min(strip, h)
    buffers = np.empty((4, n0 * pitch))
    bands = np.empty((len(_FREI_CHEN_MAGNITUDES), (n0 + 2) * pitch))
    first, last = subset.mask_indices[0], subset.mask_indices[-1]
    # The tap views are the same for every strip of one size: one plan for
    # the full strips and one for a short last strip.
    plans = {}
    for y0 in range(0, h, strip):
        rows = min(strip, h - y0)
        size = (rows - 1) * pitch + w
        # The last tap, (2, 2), reads up to 2 * pitch + 2 samples past size;
        # for the last strip the source ends exactly at flat's end.
        source = flat[y0 * pitch :][: size + 2 * pitch + 2]
        for band, magnitude in zip(bands, _FREI_CHEN_MAGNITUDES):
            np.multiply(source, magnitude, out=band[: source.size])
        if rows not in plans:
            plans[rows] = _frei_chen_plan(bands, pitch, size)
        response, acc, numerator, total = buffers[:, :size]
        for index, (pos, neg) in enumerate(plans[rows]):
            _stencil_strip(pos, neg, response, None, acc)
            # Each sum starts at its first square: 0.0 + x is x for every x
            # but -0.0, and no square is -0.0.
            if index == 0:
                np.multiply(response, response, out=total)
            elif index == first:
                np.multiply(response, response, out=numerator)
                total += numerator
            else:
                np.multiply(response, response, out=response)
                total += response
                if 0 < first < index <= last:
                    numerator += response
            if index == last and first == 0:
                np.copyto(numerator, total)
        numerator, total = (_strip_grid(b, rows, pitch, w, 1) for b in buffers[2:])
        # Where S is 0, M is too, so the divide can give only 0 / 0 = NaN
        # there, which the guard replaces.
        np.divide(numerator, total, out=numerator)
        zero = total < FREI_CHEN_EPSILON
        zero |= _flat_windows(padded[y0 : y0 + rows + 2])
        numerator[zero] = 0.0
        np.sqrt(numerator, out=out[y0 : y0 + rows])
    return ImageBuffer._from_array(out)


def threshold(image: ImageBuffer, t: float) -> ImageBuffer:
    """Binarize a gray image: 1.0 where the sample is strictly above t.

    Idempotent for any t in (0, 1): re-thresholding the {0, 1} output at the
    same or a mid value changes nothing.

    Raises:
        RangeError: if t is not a real number (a bool is not) within [0, 1].
        FormatError: if the image is not single-channel.
    """
    if image.channels != 1:
        raise FormatError("threshold requires a gray image")
    if not (_is_real(t) and 0.0 <= t <= 1.0):
        raise RangeError(f"threshold must be a real number within [0, 1], got {t!r}")
    return ImageBuffer._from_array(np.where(image.samples > t, 1.0, 0.0))
