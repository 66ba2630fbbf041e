"""Pixel buffers, byte/float conversion, grayscale conversion, and PNM file I/O.

Samples are stored as unclamped float64 in a nominal [0, 1] range. Clamping
happens only when encoding back to bytes, so intermediate results (gradient
magnitudes, unnormalized kernel sums) pass through without saturation.
"""

from __future__ import annotations

import os
import stat
import tempfile
from enum import Enum

import numpy as np

from .errors import FormatError, RangeError, SizeError, UnsupportedFormat, _is_count

# Non-finite or huge samples give IEEE 754 results (inf - inf is NaN, 2e308
# is inf) by design; entry points that compute on pixels carry this decorator
# so numpy does not warn about them. Use it only as a decorator (reentrant).
_ieee_arithmetic = np.errstate(over="ignore", invalid="ignore")


class PixelFormat(Enum):
    """Byte-level pixel layouts understood by the codecs."""

    GRAY8 = "gray8"
    RGB24 = "rgb24"

    @property
    def channels(self) -> int:
        return 1 if self is PixelFormat.GRAY8 else 3


class ImageBuffer:
    """Immutable row-major grid of float samples with 1 or 3 channels.

    The constructor copies its input; use the array with shape (height,
    width, channels) or (height, width) for a single channel. A complex
    input raises FormatError instead of losing its imaginary part. Instances
    are values: the backing array is marked read-only and safe to share
    across threads.
    """

    __slots__ = ("_samples",)

    def __init__(self, samples) -> None:
        arr = np.asarray(samples)
        if np.iscomplexobj(arr):
            raise FormatError("samples must be real; got a complex array")
        arr = np.array(arr, dtype=np.float64)
        if arr.ndim == 2:
            arr = arr.reshape(arr.shape + (1,))
        if arr.ndim != 3:
            raise FormatError(f"expected a 2-D or 3-D sample array, got {arr.ndim}-D")
        if arr.shape[2] not in (1, 3):
            raise FormatError(f"channels must be 1 or 3, got {arr.shape[2]}")
        _check_dimensions(arr.shape[1], arr.shape[0])
        arr.setflags(write=False)
        self._samples = arr

    @classmethod
    def _from_array(cls, arr: np.ndarray) -> "ImageBuffer":
        # Internal fast path: takes ownership of a freshly allocated float64
        # array instead of copying it.
        buf = object.__new__(cls)
        arr.setflags(write=False)
        buf._samples = arr
        return buf

    @property
    def samples(self) -> np.ndarray:
        """Read-only float64 array of shape (height, width, channels)."""
        return self._samples

    @property
    def width(self) -> int:
        return self._samples.shape[1]

    @property
    def height(self) -> int:
        return self._samples.shape[0]

    @property
    def channels(self) -> int:
        return self._samples.shape[2]

    def __repr__(self) -> str:
        return f"ImageBuffer({self.width}x{self.height}, channels={self.channels})"


def _check_dimensions(width, height) -> None:
    if not (_is_count(width) and _is_count(height)):
        raise SizeError(f"dimensions must be integers of at least 1x1, got {width!r}x{height!r}")


def decode_bytes(data, width: int, height: int, fmt: PixelFormat) -> ImageBuffer:
    """Decode packed 8-bit pixel data into a float buffer.

    Each byte b becomes the sample b / 255.0 exactly.

    Raises:
        SizeError: if width or height is not an integer of at least 1, or the
            byte count does not match width*height*channels.
    """
    _check_dimensions(width, height)
    raw = bytes(data)
    expected = width * height * fmt.channels
    if len(raw) != expected:
        raise SizeError(
            f"expected {expected} bytes for {width}x{height} {fmt.name}, got {len(raw)}"
        )
    arr = np.frombuffer(raw, dtype=np.uint8).astype(np.float64) / 255.0
    return ImageBuffer._from_array(arr.reshape(height, width, fmt.channels))


def encode_bytes(image: ImageBuffer, fmt: PixelFormat) -> bytes:
    """Encode a float buffer to packed 8-bit pixels.

    Samples are clamped to [0, 1], scaled by 255, and rounded half away from
    zero; +inf and -inf clamp like any other value. The decode/encode round
    trip is byte-identical for any valid input.

    Raises:
        FormatError: if the image's channel count does not match the format.
        RangeError: if a sample is NaN, which has no byte value.
    """
    if image.channels != fmt.channels:
        raise FormatError(
            f"image has {image.channels} channel(s), {fmt.name} needs {fmt.channels}"
        )
    scaled = np.clip(image.samples, 0.0, 1.0) * 255.0
    # After clamping every value is >= 0, so floor(x + 0.5) rounds half away
    # from zero as required. NaN survives the clamp; the cast is where numpy
    # flags it, so trapping that flag costs no extra pass over the image.
    try:
        with np.errstate(invalid="raise"):
            return np.floor(scaled + 0.5).astype(np.uint8).tobytes()
    except FloatingPointError:
        raise RangeError("cannot encode a NaN sample") from None


@_ieee_arithmetic
def to_luminance(image: ImageBuffer) -> ImageBuffer:
    """Convert an RGB buffer to single-channel luma (Rec. 601 weights).

    Raises:
        FormatError: if the image is not RGB.
    """
    if image.channels != 3:
        raise FormatError("to_luminance requires an RGB image")
    s = image.samples
    # Grouping chosen so the three weights sum to exactly 1.0 in float
    # arithmetic, keeping (1, 1, 1) at exactly 1.0.
    gray = s[:, :, 0] * 0.299 + (s[:, :, 1] * 0.587 + s[:, :, 2] * 0.114)
    return ImageBuffer._from_array(gray.reshape(gray.shape + (1,)))


_PNM_FORMATS = {b"P5": PixelFormat.GRAY8, b"P6": PixelFormat.RGB24}


def _read_header_token(f) -> bytes:
    """Read one whitespace-delimited header token, skipping '#' comments.

    Consumes exactly one whitespace byte after the token, which doubles as
    the single separator before the pixel data.
    """
    token = b""
    while True:
        ch = f.read(1)
        if not ch:
            raise UnsupportedFormat("truncated PNM header")
        if ch == b"#":
            while ch not in (b"", b"\n"):
                ch = f.read(1)
            continue
        if ch.isspace():
            if token:
                return token
            continue
        token += ch


def read_pnm(path) -> ImageBuffer:
    """Read a binary PGM (P5) or PPM (P6) file with maxval 255.

    Raises:
        UnsupportedFormat: for other magics or maxvals.
        SizeError: if a dimension is below 1 or the file holds less pixel
            data than its header declares. For a regular file both are
            checked before the data is read; a pipe is read in bounded
            chunks until it ends short.
    """
    with open(path, "rb") as f:
        magic = f.read(2)
        if magic not in _PNM_FORMATS:
            raise UnsupportedFormat(
                f"unsupported magic {magic!r}; only binary P5/P6 are readable"
            )
        fmt = _PNM_FORMATS[magic]
        try:
            width = int(_read_header_token(f))
            height = int(_read_header_token(f))
            maxval = int(_read_header_token(f))
        except ValueError as exc:
            raise UnsupportedFormat(f"malformed PNM header in {path}") from exc
        if maxval != 255:
            raise UnsupportedFormat(f"maxval must be 255, got {maxval}")
        # Checked before reading. Only a regular file tells how many bytes it
        # has left, so the body is read in bounded chunks: a pipe that ends
        # short allocates no more than it delivers, and decode_bytes rejects
        # the short body. The chunks are dropped once joined, before decoding.
        _check_dimensions(width, height)
        expected = width * height * fmt.channels
        st = os.fstat(f.fileno())
        if stat.S_ISREG(st.st_mode) and expected > st.st_size - f.tell():
            raise SizeError(
                f"{path} declares {expected} bytes of pixel data for {width}x{height} "
                f"{fmt.name}, but holds {st.st_size - f.tell()}"
            )
        chunks, left = [], expected
        while left and (chunk := f.read(min(left, 1 << 20))):
            chunks.append(chunk)
            left -= len(chunk)
        body = b"".join(chunks)
        del chunks, chunk
    return decode_bytes(body, width, height, fmt)


def write_pnm(image: ImageBuffer, path) -> None:
    """Write a buffer as binary PGM (1 channel) or PPM (3 channels).

    The file appears atomically: content goes to a temp file in the target
    directory first, then replaces the destination.
    """
    magic = b"P5" if image.channels == 1 else b"P6"
    fmt = _PNM_FORMATS[magic]
    header = magic + f"\n{image.width} {image.height}\n255\n".encode("ascii")
    atomic_write_bytes(path, header + encode_bytes(image, fmt))


def atomic_write_bytes(path, payload: bytes) -> None:
    """Write payload to path via a same-directory temp file and rename.

    A failure mid-write never leaves a partial file at the destination.
    """
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=os.path.basename(path) + ".")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(payload)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
