"""Sobel gradient magnitude, Frei-Chen projection measure, and binarization."""

from __future__ import annotations

from enum import Enum
from functools import partial

import numpy as np

from .errors import FormatError, RangeError, _is_real
from .image import ImageBuffer, _ieee_arithmetic, _run_ranges, _step_output, _strip_rows
from .kernels import FREI_CHEN, BorderPolicy, _stencil_strip, pad_samples

# Below this squared-response total the Frei-Chen measure is defined as 0
# instead of dividing by (near) zero.
FREI_CHEN_EPSILON = 1e-12

# The positive and negative taps of each Frei-Chen mask, in basis order.
_FREI_CHEN_TAPS = tuple(mask._taps for mask in FREI_CHEN)

# The distinct tap magnitudes of the nine masks. Each strip of the padded
# frame is multiplied once by each of them, into one band per magnitude.
_FREI_CHEN_MAGNITUDES = tuple(
    sorted({weight for taps in _FREI_CHEN_TAPS for group in taps for _, _, weight in group})
)


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


def _channel_max(magnitude: np.ndarray, channels: int, out: np.ndarray) -> None:
    """out[i] = max over k of channel k's flat view magnitude[k::channels]: the Sobel combine.

    One np.maximum per extra channel runs far faster than np.max over a 3-wide
    inner axis. Both give the same value; only where several channels are NaN
    may they keep different NaNs.
    """
    out = out[: magnitude.size // channels]
    if channels == 1:
        np.copyto(out, magnitude)
        return
    np.maximum(magnitude[0::channels], magnitude[1::channels], out=out)
    for channel in range(2, channels):
        np.maximum(out, magnitude[channel::channels], out=out)


@_ieee_arithmetic
def _sobel_rows(padded: np.ndarray, into: np.ndarray, strip: int, y_start: int, y_end: int) -> None:
    """Write output rows [y_start, y_end) of the Sobel magnitude into into, strip by strip.

    Sobel is separable: with s the [1 2 1] sum across each padded row and t
    the same sum down each padded column, gx = s[y+1] - s[y-1] and
    gy = t[:, x+1] - t[:, x-1]. Each sum is formed as (2 * centre + left or
    top) + right or bottom, the order in which the tap loop accumulates each
    sign group of SOBEL_GX and SOBEL_GY, so the result is bit-identical to
    correlating with the two masks. The sums, the gradients and into are on
    the padded pitch (image._step_output), so each pass reads and writes
    contiguous slices; t reuses the buffer of s once gx has read it. Each
    call is one row range of _run_ranges.
    """
    channels = padded.shape[2]
    pitch = padded.shape[1] * channels
    w = padded.shape[1] - 2
    flat = padded.reshape(-1)
    sums, gx, gy = np.empty((3, (min(strip, y_end - y_start) + 2) * pitch))
    for y0 in range(y_start, y_end, strip):
        rows = min(strip, y_end - y0)
        size = (rows - 1) * pitch + w * channels
        source = flat[y0 * pitch :][: (rows + 2) * pitch]
        # First s and gx, then t and gy: a [1 2 1] sum with a step of `across`,
        # then the difference of two sums two steps of `down` apart.
        for across, down, gradient in ((channels, pitch, gx), (pitch, channels, gy)):
            s = sums[: size + 2 * down]
            np.multiply(source[across:][: s.size], 2.0, out=s)
            s += source[: s.size]
            s += source[2 * across :][: s.size]
            np.subtract(s[2 * down :], s[:size], out=gradient[:size])
        np.hypot(gx[:size], gy[:size], out=gx[:size])
        _channel_max(gx[:size], channels, into[y0 * pitch // channels :])


def _sobel(image: ImageBuffer, border: BorderPolicy) -> ImageBuffer:
    """Per-channel Sobel magnitude reduced with max over channels.

    The frame is padded once, then its strips run as row ranges (_run_ranges)
    of _sobel_rows into one channel on the pad's pitch (image._step_output).
    Each pixel gets the same operations in the same order in any range, so
    the split changes no value and no bit outside NaNs; where a NaN and a
    -NaN meet, the sign of the NaN kept may depend on the split.
    """
    padded = pad_samples(image.samples, 1, border)
    out, into = _step_output(image.height, image.width, 1, padded)
    strip = _strip_rows(padded)
    _run_ranges(image.height, strip, partial(_sobel_rows, padded, into, strip))
    return ImageBuffer._from_array(out)


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


def _flat_windows(source: np.ndarray, pitch: int, size: int) -> np.ndarray:
    """Mask of the size pixels, on the padded pitch, whose 3x3 window is finite and constant.

    source holds the flat padded rows of one output strip and a row above and
    below, so the window of pixel i starts at source[i]. A window row is
    constant when its left and right samples equal its middle one; the window
    is when its three rows and its middle column are. NaN equals nothing, so
    a window holding one is never flat; a window of infinities is not finite.
    """
    n = size + 2 * pitch
    middle = source[1:][:n]
    across = (middle == source[:n]) & (middle == source[2:][:n])
    centre = middle[pitch:][:size]
    flat = across[:size] & across[pitch:][:size] & across[2 * pitch :]
    flat &= centre == middle[:size]
    flat &= centre == middle[2 * pitch :]
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
def _frei_chen_rows(
    padded: np.ndarray, into: np.ndarray, subset: FreiChenSubset, strip: int, y_start: int, y_end: int
) -> None:
    """Write output rows [y_start, y_end) of frei_chen into into, strip by strip.

    M accumulates in a strip's slice of into, on the padded pitch, and becomes
    sqrt(M / S) in place. One row range of _run_ranges, with strip buffers,
    bands and tap plans of its own.
    """
    pitch = padded.shape[1]
    w = pitch - 2
    flat = padded.reshape(-1)
    n0 = min(strip, y_end - y_start)
    buffers = np.empty((3, n0 * pitch))
    bands = np.empty((len(_FREI_CHEN_MAGNITUDES), (n0 + 2) * pitch))
    first, last = subset.mask_indices[0], subset.mask_indices[-1]
    # The tap views are the same for every strip of one size: one plan for
    # the full strips and one for a short last strip.
    plans = {}
    for y0 in range(y_start, y_end, strip):
        rows = min(strip, y_end - y0)
        size = (rows - 1) * pitch + w
        # The last tap, (2, 2), reads up to 2 * pitch + 2 samples past size;
        # for the frame's last strip the source ends exactly at flat's end.
        source = flat[y0 * pitch :][: size + 2 * pitch + 2]
        for band, magnitude in zip(bands, _FREI_CHEN_MAGNITUDES):
            np.multiply(source, magnitude, out=band[: source.size])
        if rows not in plans:
            plans[rows] = _frei_chen_plan(bands, pitch, size)
        response, acc, total = buffers[:, :size]
        numerator = into[y0 * pitch :][:size]
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
        # Where S is 0, M is too, so the divide can give only 0 / 0 = NaN
        # there, which the guard replaces.
        np.divide(numerator, total, out=numerator)
        zero = total < FREI_CHEN_EPSILON
        zero |= _flat_windows(source, pitch, size)
        numerator[zero] = 0.0
        np.sqrt(numerator, out=numerator)


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

    The strips run as contiguous row ranges, one per CPU the process may use
    (_run_ranges), into the pad's pitch (image._step_output). Each pixel gets
    the same operations in the same order in any range, so the split changes
    no value and no bit outside NaNs; where a NaN and a -NaN meet, the sign
    of the NaN kept may depend on the split.

    Raises:
        FormatError: if the image is not single-channel.
        TypeError: if subset is not a FreiChenSubset or border not a BorderPolicy.
    """
    if image.channels != 1:
        raise FormatError("frei_chen requires a gray image; convert with to_luminance")
    if not isinstance(subset, FreiChenSubset):
        raise TypeError(f"subset must be a FreiChenSubset, got {type(subset).__name__}")
    arr = image.samples
    padded = pad_samples(arr, 1, border)
    out, into = _step_output(*arr.shape, padded)
    strip = _strip_rows(padded)
    _run_ranges(arr.shape[0], strip, partial(_frei_chen_rows, padded, into, subset, strip))
    return ImageBuffer._from_array(out)


def _check_threshold(t) -> None:
    """Raise RangeError unless t is a real number (a bool is not) within [0, 1]."""
    if not (_is_real(t) and 0.0 <= t <= 1.0):
        raise RangeError(f"threshold must be a real number within [0, 1], got {t!r}")


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
    _check_threshold(t)
    return ImageBuffer._from_array(np.where(image.samples > t, 1.0, 0.0))
