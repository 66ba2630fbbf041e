"""Pixel buffers, byte/float conversion, grayscale conversion, and PNM file I/O.

Samples are stored as unclamped float64 in a nominal [0, 1] range. Clamping
happens only when encoding back to bytes, so intermediate results (gradient
magnitudes, unnormalized kernel sums) pass through without saturation.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import stat
import tempfile
from concurrent.futures import ThreadPoolExecutor
from contextvars import ContextVar
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import FormatError, RangeError, SizeError, UnsupportedFormat, _is_count

# Non-finite or huge samples give IEEE 754 results (inf - inf is NaN, 2e308
# is inf) by design; entry points that compute on pixels carry this decorator
# so numpy does not warn about them. Use it only as a decorator (reentrant).
_ieee_arithmetic = np.errstate(over="ignore", invalid="ignore")

# Every strip loop works in strips of the rows of the array it reads that fit
# in this many bytes, so per-pixel cost scales linearly with pixel count
# instead of degrading once frames outgrow the cache: a Sobel or correlate
# range's strip buffers and the source rows they read come to about 2 MB,
# one core's L2 on a 2-core Xeon. Two threads pass the interpreter lock at
# every numpy call, so longer strips, with fewer calls per row range, also
# bring a split step closer to 2x (README).
_STRIP_BYTES = (1 << 20) // 2


def _strip_rows(arr: np.ndarray) -> int:
    """Rows per strip of a loop that reads arr: the rows of arr that fit in _STRIP_BYTES."""
    return max(1, _STRIP_BYTES // max(arr.strides[0], 1))


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return cpus or 1


def _row_ranges(h: int, strip: int) -> list[tuple[int, int]]:
    """Contiguous ranges of h rows, one per usable CPU and at most one per strip of strip rows.

    The ranges differ in length by at most one row, so each thread has about
    the same work: whole strips would leave QVGA RGB Sobel's 4 strips of 67
    rows as 134 rows against 106. Each range runs its own strips from its first row.
    """
    count = min(_usable_cpus(), -(-h // strip))
    bounds = [h * k // count for k in range(count + 1)]
    return list(zip(bounds, bounds[1:]))


class _RunScope(NamedTuple):
    """The worker pool and the pad buffers, slots 0 and 1 per shape, of one pipeline.run call."""

    pool: ThreadPoolExecutor
    pads: dict
    pads_frame: bool  # frames are acquired into the interior of the radius-1 slot 0
    chain_steps: int = 0  # inside _chain_steps, the chain's step count: correlate writes into a slot


# The fewest steps of a chain whose steps split into row ranges. Split, a
# two-step QVGA chain saved about 0.1 ms a frame on a quiet host; but a split
# step waits for its slower range, and under a busy neighbour the short
# chains' frames then took acceptance criterion 6 out of its band (README).
_SPLIT_CHAIN_STEPS = 3


def _current_cpu() -> int | None:
    """The CPU the calling thread runs on, where Linux reports it; else None."""
    try:
        with open("/proc/thread-self/stat", "rb") as f:
            # Field 39; the name in field 2 may hold spaces, so count from its ")".
            return int(f.read().rpartition(b")")[2].split()[36])
    except (OSError, ValueError, IndexError):
        return None


def _pool(workers: int) -> ThreadPoolExecutor:
    """A pool of `workers` threads, each bound to its own usable CPU other than the caller's.

    Left to Linux, a worker may share the caller's CPU, and then two ranges
    take as long as one. The caller's own affinity is never changed, and
    Linux tends to keep it on the CPU it runs on now, so that CPU goes first
    in the sorted usable CPUs and worker k is bound to the (k+1)-th. A
    worker stays unbound on a platform without os.sched_setaffinity, past
    the last CPU, or where the call raises OSError (a CPU the process may
    not use).
    """
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []
    here = _current_cpu()
    cpus.sort(key=lambda cpu: cpu != here)
    index = itertools.count(1)

    def bind():
        k = next(index)
        if k < len(cpus):
            with contextlib.suppress(OSError):
                os.sched_setaffinity(0, (cpus[k],))

    return ThreadPoolExecutor(workers, initializer=bind)


# The scope of the pipeline.run call in progress in this context; None
# outside a run. Pool threads start with an empty context, so they never see it.
_RUN_SCOPE: ContextVar[_RunScope | None] = ContextVar("_RUN_SCOPE", default=None)


@contextlib.contextmanager
def _run_scope(pads_frame: bool = False):
    """Give the frame loop one worker pool and its pad buffers for all its frames.

    The pool (_pool) has one worker per usable CPU after the first, each bound
    to its own CPU other than the caller's, and starts its threads on first
    use; leaving the block joins them.
    """
    with _pool(max(1, _usable_cpus() - 1)) as pool:
        token = _RUN_SCOPE.set(_RunScope(pool, {}, pads_frame))
        try:
            yield
        finally:
            _RUN_SCOPE.reset(token)


@contextlib.contextmanager
def _chain_steps(count: int):
    """In a run, the block is the steps but the last of a chain of count steps: each radius-1
    correlate call in it writes its output into the interior of the slot its pad is not in,
    and from _SPLIT_CHAIN_STEPS steps on every call splits into row ranges."""
    scope = _RUN_SCOPE.get()
    token = _RUN_SCOPE.set(scope and scope._replace(chain_steps=count))
    try:
        yield
    finally:
        _RUN_SCOPE.reset(token)


def _pad_buffers(shape: tuple, count: int = 1) -> list:
    """The run's pad buffers of this shape, slot 0 and then slot 1, at least count of them,
    each made on first use; fresh ones outside a run."""
    scope = _RUN_SCOPE.get()
    slots = (scope.pads if scope else {}).setdefault(shape, [])
    slots += [np.empty(shape) for _ in range(count - len(slots))]
    return slots


def _slot_interior(h: int, w: int, c: int) -> np.ndarray:
    """An (h, w, c) array to write a frame into: in a run with pads_frame, the interior of the
    run's radius-1 slot 0, which the next pad in that slot overwrites; else a fresh array."""
    scope = _RUN_SCOPE.get()
    if scope is None or not scope.pads_frame:
        return np.empty((h, w, c))
    return _pad_buffers((h + 2, w + 2, c))[0][1 : h + 1, 1 : w + 1]


def _step_output(h: int, w: int, c: int, padded: np.ndarray):
    """The (h, w, c) output of a stencil (correlate, Sobel, Frei-Chen) that reads padded.

    Returns (out, into), where row y of out starts at into[y * padded.shape[1] * c]: on the
    pad's pitch, c being the output's channels. The last 2r * c samples of each pitch row
    are computed, may hold inf or NaN, and belong to no pixel. out is the first w columns
    of a fresh array, returned as a read-only view that shares memory with nothing else;
    but a radius-1 correlate step in _chain_steps writes the interior of the run's radius-1
    slot that padded is not, whose side border cells, written too, its next pad rewrites.
    """
    scope = _RUN_SCOPE.get()
    if scope and scope.chain_steps and padded.shape == (h + 2, w + 2, c):
        slots = _pad_buffers(padded.shape, 2)
        slot = slots[int(padded is slots[0])]
        return slot[1 : h + 1, 1 : w + 1], slot.reshape(-1)[(w + 3) * c :]
    fresh = np.empty((h, padded.shape[1], c))
    return fresh[:, :w], fresh.reshape(-1)


def _run_ranges(h: int, strip: int, rows_fn, chain_only: bool = False) -> None:
    """Call rows_fn(y_start, y_end) once for each of _row_ranges(h, strip).

    The calling thread runs the first range and a pool (_pool) the others:
    the run's pool inside pipeline.run, else one built for this call, whose
    threads end with it. A one-range frame runs directly. Every range has
    ended before any range's exception is raised. So that ranges may run at
    once, rows_fn allocates its own strip buffers, writes only its own rows,
    and carries _ieee_arithmetic itself: a new thread does not inherit
    numpy's error state.

    correlate passes chain_only=True: its rows split only in the steps but
    the last of a chain of _SPLIT_CHAIN_STEPS or more steps in a run, and
    otherwise run as one range on the calling thread. Outside a run a pool
    of the call's own costs more than its range saves at the CLI's sizes.
    """
    scope = _RUN_SCOPE.get()
    split = not chain_only or (scope and scope.chain_steps >= _SPLIT_CHAIN_STEPS)
    first, *rest = _row_ranges(h, strip) if split else [(0, h)]
    if not rest:
        rows_fn(*first)
        return
    with contextlib.ExitStack() as stack:
        pool = scope.pool if scope else stack.enter_context(_pool(len(rest)))
        futures = [pool.submit(rows_fn, *r) for r in rest]
        try:
            rows_fn(*first)
        finally:
            # Each future on its own: concurrent.futures.wait builds a waiter
            # and takes every future's lock twice.
            for future in futures:
                future.exception()
    for future in futures:
        future.result()


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
    width, channels) or (height, width) for a single channel. Input of any
    dtype but bool, integer or real float, such as complex, strings, objects
    or datetimes, raises FormatError. Instances are values: the backing
    array is marked read-only and safe to share across threads.
    """

    __slots__ = ("_samples",)

    def __init__(self, samples) -> None:
        arr = np.asarray(samples)
        if arr.dtype.kind not in "biuf":
            raise FormatError(f"samples must be real numbers; got dtype {arr.dtype}")
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
        # Internal fast path: takes ownership of a float64 array instead of copying
        # it; it may be a view (see _slot_interior and _step_output).
        buf = object.__new__(cls)
        arr.setflags(write=False)
        buf._samples = arr
        return buf

    @property
    def samples(self) -> np.ndarray:
        """Read-only float64 array of shape (height, width, channels); a frame acquired
        inside a Sobel or chain pipeline.run is valid only until the run's next pad or
        chain step in its slot."""
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

    Each byte b becomes the sample b / 255.0 exactly, written in one pass
    straight into the returned buffer with no other frame-sized array.

    Raises:
        SizeError: if width or height is not an integer of at least 1, or the
            byte count does not match width*height*channels.
        TypeError: if data is not bytes-like with one-byte items, or fmt not
            a PixelFormat.
    """
    _check_dimensions(width, height)
    if not isinstance(fmt, PixelFormat):
        raise TypeError(f"fmt must be a PixelFormat, got {type(fmt).__name__}")
    # memoryview raises TypeError unless data is bytes-like; bytes(data) would
    # take an int as a length. Wider items, such as a float array's, are samples.
    if memoryview(data).itemsize != 1:
        raise TypeError(f"data must hold one byte per item, got {type(data).__name__}")
    raw = bytes(data)
    expected = width * height * fmt.channels
    if len(raw) != expected:
        raise SizeError(
            f"expected {expected} bytes for {width}x{height} {fmt.name}, got {len(raw)}"
        )
    src = np.frombuffer(raw, dtype=np.uint8).reshape(height, width, fmt.channels)
    # The divide casts each byte to float64 as it reads it, so each sample is
    # the IEEE quotient b / 255.0.
    return ImageBuffer._from_array(np.divide(src, 255.0, out=_slot_interior(*src.shape)))


def encode_bytes(image: ImageBuffer, fmt: PixelFormat) -> bytes:
    """Encode a float buffer to packed 8-bit pixels.

    Samples are clamped to [0, 1], scaled by 255, and rounded half away from
    zero; +inf and -inf clamp like any other value. The decode/encode round
    trip is byte-identical for any valid input. The work runs in row strips
    within the library's strip budget; the only frame-sized arrays are the
    packed result and its bytes.

    Raises:
        FormatError: if the image's channel count does not match the format.
        RangeError: if a sample is NaN, which has no byte value.
        TypeError: if fmt is not a PixelFormat.
    """
    if not isinstance(fmt, PixelFormat):
        raise TypeError(f"fmt must be a PixelFormat, got {type(fmt).__name__}")
    if image.channels != fmt.channels:
        raise FormatError(
            f"image has {image.channels} channel(s), {fmt.name} needs {fmt.channels}"
        )
    s = image.samples
    packed = np.empty(s.shape, dtype=np.uint8)
    strip = _strip_rows(s)
    scaled = np.empty((min(strip, len(s)),) + s.shape[1:])
    # After the clamp, the scale and the + 0.5 every value lies in [0.5,
    # 255.5], where the cast's truncation toward zero is a floor, so the
    # byte is floor(255x + 0.5): half away from zero. NaN survives the clamp;
    # the cast is where numpy flags it, so trapping that flag costs no extra
    # pass over the strip.
    try:
        for y0 in range(0, len(s), strip):
            band = s[y0 : y0 + strip]
            rows = scaled[: len(band)]
            np.clip(band, 0.0, 1.0, out=rows)
            rows *= 255.0
            rows += 0.5
            with np.errstate(invalid="raise"):
                np.copyto(packed[y0 : y0 + strip], rows, casting="unsafe")
    except FloatingPointError:
        raise RangeError("cannot encode a NaN sample") from None
    return packed.tobytes()


@_ieee_arithmetic
def to_luminance(image: ImageBuffer) -> ImageBuffer:
    """Convert an RGB buffer to single-channel luma (Rec. 601 weights).

    Each sample is s0*0.299 + (s1*0.587 + s2*0.114), computed in row strips
    within the library's strip budget, so the returned buffer is the only
    frame-sized array.

    Raises:
        FormatError: if the image is not RGB.
    """
    if image.channels != 3:
        raise FormatError("to_luminance requires an RGB image")
    s = image.samples
    h, w = s.shape[:2]
    gray = np.empty((h, w, 1))
    strip = _strip_rows(s)
    green, blue = np.empty((2, min(strip, h), w))
    # Grouping chosen so the three weights sum to exactly 1.0 in float
    # arithmetic, keeping (1, 1, 1) at exactly 1.0. The red product stays the
    # first operand of the outer add, which decides the payload when both
    # operands are NaN.
    for y0 in range(0, h, strip):
        band = s[y0 : y0 + strip]
        g, b, out = green[: len(band)], blue[: len(band)], gray[y0 : y0 + strip, :, 0]
        np.multiply(band[:, :, 1], 0.587, out=g)
        np.multiply(band[:, :, 2], 0.114, out=b)
        g += b
        np.multiply(band[:, :, 0], 0.299, out=out)
        out += g
    return ImageBuffer._from_array(gray)


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
