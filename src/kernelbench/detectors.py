"""Sobel gradient magnitude, Frei-Chen projection measure, and binarization."""

from __future__ import annotations

from enum import Enum

import numpy as np

from .errors import FormatError, RangeError
from .image import ImageBuffer, _ieee_arithmetic
from .kernels import (
    FREI_CHEN,
    BorderPolicy,
    _correlate_samples,
    _strip_rows,
    pad_samples,
)

# Below this squared-response total a pixel is considered flat and the
# Frei-Chen measure is defined as 0 instead of dividing by (near) zero.
FREI_CHEN_EPSILON = 1e-12


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


def _combine_gradients(gx, gy, out: np.ndarray, scratch=None) -> None:
    """out = max over channels of hypot(gx, gy), the Sobel channel combine.

    hypot writes into scratch when one is given (gx itself may be). The max
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

    A constant image yields exactly zero everywhere: both Sobel masks carry
    the same positive and negative coefficient magnitudes, and the engine
    accumulates the two signs separately before subtracting.

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


@_ieee_arithmetic
def _frei_chen_measure(shape, subset: FreiChenSubset, correlate_mask) -> ImageBuffer:
    """sqrt(M / S) over the nine basis masks, the one Frei-Chen combine.

    correlate_mask(mask, out) writes the response to one mask into out, an
    array of the given shape; each engine supplies its own correlation step.
    Responses are squared in place and summed in basis order into M (the
    subset's masks) and S (all nine). Pixels with S below FREI_CHEN_EPSILON
    report 0. Because the subset terms are added in the same order in M and
    S, M never exceeds S even in float arithmetic, so the output stays within
    [0, 1].
    """
    numerator = np.zeros(shape)
    total = np.zeros(shape)
    response = np.empty(shape)
    chosen = set(subset.mask_indices)
    for index, mask in enumerate(FREI_CHEN):
        correlate_mask(mask, response)
        np.multiply(response, response, out=response)
        total += response
        if index in chosen:
            numerator += response
    flat = total < FREI_CHEN_EPSILON
    np.divide(numerator, total, out=numerator, where=~flat)
    numerator[flat] = 0.0
    return ImageBuffer._from_array(np.sqrt(numerator))


def frei_chen(
    image: ImageBuffer,
    subset: FreiChenSubset,
    border: BorderPolicy = BorderPolicy.CLAMP_TO_EDGE,
) -> ImageBuffer:
    """Frei-Chen edge measure sqrt(M / S) in [0, 1].

    M sums the squared responses of the chosen subset, S those of all nine
    basis masks. Pixels with S below FREI_CHEN_EPSILON report 0, and the
    output stays within [0, 1]. The image is padded once and each mask runs
    through the fused strip loop.

    Raises:
        FormatError: if the image is not single-channel.
    """
    if image.channels != 1:
        raise FormatError("frei_chen requires a gray image; convert with to_luminance")
    arr = image.samples
    padded = pad_samples(arr, 1, border)
    return _frei_chen_measure(
        arr.shape, subset, lambda mask, out: _correlate_samples(padded, mask.coefficients, out)
    )


def threshold(image: ImageBuffer, t: float) -> ImageBuffer:
    """Binarize a gray image: 1.0 where the sample is strictly above t.

    Idempotent for any t in (0, 1): re-thresholding the {0, 1} output at the
    same or a mid value changes nothing.

    Raises:
        RangeError: if t is outside [0, 1].
        FormatError: if the image is not single-channel.
    """
    if image.channels != 1:
        raise FormatError("threshold requires a gray image")
    if not 0.0 <= t <= 1.0:
        raise RangeError(f"threshold must be within [0, 1], got {t}")
    return ImageBuffer._from_array(np.where(image.samples > t, 1.0, 0.0))
