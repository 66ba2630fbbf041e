import tracemalloc

import numpy as np
import pytest

from kernelbench import image
from kernelbench import (
    BorderPolicy,
    FormatError,
    FreiChenSubset,
    ImageBuffer,
    Kernel,
    PixelFormat,
    RangeError,
    SizeError,
    UnsupportedFormat,
    correlate,
    decode_bytes,
    encode_bytes,
    frei_chen,
    read_pnm,
    sobel_magnitude_rgb,
    to_luminance,
    write_pnm,
)


def test_decode_gray_values():
    buf = decode_bytes(bytes([0, 255, 128]), 3, 1, PixelFormat.GRAY8)
    assert buf.width == 3 and buf.height == 1 and buf.channels == 1
    np.testing.assert_array_equal(buf.samples[0, :, 0], [0.0, 1.0, 128 / 255])


def test_decode_rgb_identity_case():
    buf = decode_bytes(bytes([255, 255, 255]), 1, 1, PixelFormat.RGB24)
    np.testing.assert_array_equal(buf.samples, np.ones((1, 1, 3)))


def test_decode_length_mismatch():
    with pytest.raises(SizeError):
        decode_bytes(bytes([1, 2]), 3, 1, PixelFormat.GRAY8)


def test_decode_rejects_dimensions_below_one():
    # The byte counts match width*height here, so only the dimension check
    # stands between these calls and an empty or failed reshape.
    for data, width, height in ((b"", 0, 5), (b"", 5, 0), (bytes(5), -1, -5)):
        with pytest.raises(SizeError, match="at least 1x1"):
            decode_bytes(data, width, height, PixelFormat.GRAY8)


def test_encode_rounds_half_away_from_zero():
    buf = ImageBuffer(np.array([[0.5]]))
    assert encode_bytes(buf, PixelFormat.GRAY8) == bytes([128])
    # Each (k + 0.5) / 255 scales back to exactly the tie k + 0.5.
    ties = ImageBuffer(np.array([[(k + 0.5) / 255 for k in range(255)]]))
    assert encode_bytes(ties, PixelFormat.GRAY8) == bytes(range(1, 256))


def test_encode_clamps():
    buf = ImageBuffer(np.array([[-0.2, 1.7]]))
    assert encode_bytes(buf, PixelFormat.GRAY8) == bytes([0, 255])


@pytest.mark.filterwarnings("error")
def test_encode_rejects_nan_without_a_warning():
    for samples in ([[np.nan, 0.5]], [[0.5, -np.nan]], [[[0.1, np.nan, 0.9]]]):
        image = ImageBuffer(np.array(samples))
        fmt = PixelFormat.GRAY8 if image.channels == 1 else PixelFormat.RGB24
        with pytest.raises(RangeError, match="NaN"):
            encode_bytes(image, fmt)
    assert encode_bytes(ImageBuffer(np.array([[-np.inf, np.inf]])), PixelFormat.GRAY8) == bytes(
        [0, 255]
    )


def test_encode_channel_mismatch():
    buf = ImageBuffer(np.array([[[1.0, 0.0, 0.0]]]))
    with pytest.raises(FormatError):
        encode_bytes(buf, PixelFormat.GRAY8)


def test_decode_encode_round_trip_is_byte_identical():
    rng = np.random.default_rng(11)
    for _ in range(20):
        w = int(rng.integers(1, 9))
        h = int(rng.integers(1, 9))
        for fmt in PixelFormat:
            data = bytes(rng.integers(0, 256, size=w * h * fmt.channels, dtype=np.uint8))
            assert encode_bytes(decode_bytes(data, w, h, fmt), fmt) == data


def test_luminance_examples():
    buf = ImageBuffer(np.array([[[1.0, 1.0, 1.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]]))
    gray = to_luminance(buf)
    assert gray.channels == 1
    assert gray.samples[0, 0, 0] == 1.0
    assert gray.samples[0, 1, 0] == 0.299
    assert gray.samples[0, 2, 0] == 0.0


def test_luminance_stays_in_unit_range():
    rng = np.random.default_rng(12)
    for _ in range(50):
        buf = ImageBuffer(rng.random((6, 7, 3)))
        gray = to_luminance(buf).samples
        assert gray.min() >= 0.0 and gray.max() <= 1.0


def test_luminance_rejects_gray():
    with pytest.raises(FormatError):
        to_luminance(ImageBuffer(np.zeros((2, 2, 1))))


def test_buffer_promotes_2d_and_validates():
    assert ImageBuffer(np.zeros((4, 5))).channels == 1
    with pytest.raises(FormatError):
        ImageBuffer(np.zeros((2, 2, 2)))
    with pytest.raises(SizeError):
        ImageBuffer(np.zeros((0, 3, 1)))


def test_buffer_is_immutable():
    buf = ImageBuffer(np.zeros((2, 2, 1)))
    with pytest.raises(ValueError):
        buf.samples[0, 0, 0] = 1.0


def test_pgm_round_trip(tmp_path):
    rng = np.random.default_rng(13)
    buf = decode_bytes(bytes(rng.integers(0, 256, 12, dtype=np.uint8)), 4, 3, PixelFormat.GRAY8)
    path = tmp_path / "img.pgm"
    write_pnm(buf, path)
    back = read_pnm(path)
    assert (back.width, back.height, back.channels) == (4, 3, 1)
    np.testing.assert_array_equal(back.samples, buf.samples)


def test_ppm_round_trip(tmp_path):
    rng = np.random.default_rng(14)
    buf = decode_bytes(bytes(rng.integers(0, 256, 36, dtype=np.uint8)), 4, 3, PixelFormat.RGB24)
    path = tmp_path / "img.ppm"
    write_pnm(buf, path)
    np.testing.assert_array_equal(read_pnm(path).samples, buf.samples)


def test_write_read_write_is_canonicalizing(tmp_path):
    # A header with extra whitespace and a comment reads fine; rewriting it
    # produces the canonical header, and a second round trip is stable.
    messy = tmp_path / "messy.pgm"
    messy.write_bytes(b"P5\n# a comment\n 2  2\n255\n" + bytes([1, 2, 3, 4]))
    first = read_pnm(messy)
    canonical = tmp_path / "canonical.pgm"
    write_pnm(first, canonical)
    assert canonical.read_bytes() == b"P5\n2 2\n255\n" + bytes([1, 2, 3, 4])
    write_pnm(read_pnm(canonical), canonical)
    assert canonical.read_bytes() == b"P5\n2 2\n255\n" + bytes([1, 2, 3, 4])


def test_read_pnm_rejects_ascii_and_bad_maxval(tmp_path):
    p3 = tmp_path / "ascii.pnm"
    p3.write_bytes(b"P3\n1 1\n255\n0 0 0\n")
    with pytest.raises(UnsupportedFormat):
        read_pnm(p3)
    deep = tmp_path / "deep.pgm"
    deep.write_bytes(b"P5\n1 1\n65535\n\x00\x00")
    with pytest.raises(UnsupportedFormat):
        read_pnm(deep)


def test_read_pnm_truncated_body(tmp_path):
    short = tmp_path / "short.pgm"
    short.write_bytes(b"P5\n2 2\n255\n\x00\x01")
    with pytest.raises(SizeError):
        read_pnm(short)


# Whole-frame references: one numpy expression over the frame for each of
# decode_bytes, to_luminance and encode_bytes. The strip loops must give the
# same bytes.
def _decode_whole_frame(raw, width, height, channels):
    return (np.frombuffer(raw, dtype=np.uint8).astype(np.float64) / 255.0).reshape(
        height, width, channels
    )


def _luminance_whole_frame(s):
    with np.errstate(over="ignore", invalid="ignore"):
        return s[:, :, 0] * 0.299 + (s[:, :, 1] * 0.587 + s[:, :, 2] * 0.114)


def _encode_whole_frame(s):
    scaled = np.clip(s, 0.0, 1.0) * 255.0
    return np.floor(scaled + 0.5).astype(np.uint8).tobytes()


# Signed zeros, infinities, huge and subnormal samples, every rounding tie
# of the encoder, and the largest double below 0.5 scaled by 1/255.
_SPECIAL_SAMPLES = np.array(
    [0.0, -0.0, np.inf, -np.inf, 1e308, -1e308, 5e-324, -5e-324, 1e-310, -1e-310]
    + [(k + 0.5) / 255 for k in range(255)]
    + [0.49999999999999994 / 255]
)

# Quiet NaNs with distinct payloads and signs, for luminance bits.
_NANS = np.array(
    [0x7FF8000000000001, 0xFFF8000000000002, 0x7FF800000000ABCD, 0xFFFC000000000000],
    dtype=np.uint64,
).view(np.float64)


def _one_strip(width, channels):
    """Rows in one strip of the codec and colour loops at this width."""
    return image._strip_rows(np.empty((1, width, channels)))


def _strip_edge_shapes(channels):
    n = len(_SPECIAL_SAMPLES)
    one = _one_strip(64, channels)
    assert _one_strip(1280, channels) < 720  # so 720p runs several strips
    return [(1, 1), (1, n), (n, 1), (one, 64), (one + 1, 64), (720, 1280)]


def _samples(shape, channels, seed, pool):
    rng = np.random.default_rng(seed)
    x = rng.random(shape + (channels,)) * 1.4 - 0.2
    flat = x.reshape(-1)
    if flat.size <= len(pool):
        flat[:] = pool[: flat.size]
    else:
        picked = rng.random(flat.size) < 0.25
        flat[picked] = rng.choice(pool, int(picked.sum()))
        flat[-len(pool) :] = pool  # the last strip holds every special too
    return x


@pytest.mark.parametrize("channels", [1, 3])
def test_decode_matches_whole_frame_formula_at_strip_edges(channels):
    fmt = PixelFormat.GRAY8 if channels == 1 else PixelFormat.RGB24
    rng = np.random.default_rng(21)
    for h, w in _strip_edge_shapes(channels):
        raw = rng.integers(0, 256, h * w * channels, dtype=np.uint8).tobytes()
        got = decode_bytes(raw, w, h, fmt).samples
        assert got.tobytes() == _decode_whole_frame(raw, w, h, channels).tobytes(), (h, w)


@pytest.mark.parametrize("channels", [1, 3])
def test_encode_matches_whole_frame_formula_at_strip_edges(channels):
    fmt = PixelFormat.GRAY8 if channels == 1 else PixelFormat.RGB24
    for seed, (h, w) in enumerate(_strip_edge_shapes(channels)):
        x = _samples((h, w), channels, seed, _SPECIAL_SAMPLES)
        assert encode_bytes(ImageBuffer(x), fmt) == _encode_whole_frame(x), (h, w)


def test_luminance_matches_whole_frame_formula_at_strip_edges():
    pool = np.concatenate([_SPECIAL_SAMPLES, _NANS])
    for seed, (h, w) in enumerate(_strip_edge_shapes(3)):
        x = _samples((h, w), 3, seed, pool)
        got = to_luminance(ImageBuffer(x)).samples
        assert got.shape == (h, w, 1)
        assert got.tobytes() == _luminance_whole_frame(x).tobytes(), (h, w)


@pytest.mark.parametrize("channels", [1, 3])
def test_encode_rejects_nan_in_any_strip(channels):
    fmt = PixelFormat.GRAY8 if channels == 1 else PixelFormat.RGB24
    h = 2 * _one_strip(64, channels) + 1
    for row in (0, h // 2, h - 1):
        x = np.full((h, 64, channels), 0.5)
        x[row, -1, -1] = np.nan
        with pytest.raises(RangeError, match="NaN"):
            encode_bytes(ImageBuffer(x), fmt)


# A 5x5 kernel with a positive sum, so normalizing divides.
_KERNEL_5X5 = Kernel(np.random.default_rng(43).random((5, 5)) - 0.25)

# (id, one strip loop run on an RGB frame, pad radius and channels of the
# array the loop reads)
_STRIP_LOOPS = [
    *(
        (f"correlate-{border.name}-{normalize}",
         lambda x, b=border, n=normalize: correlate(ImageBuffer(x), _KERNEL_5X5, b, n), 2, 3)
        for border in BorderPolicy
        for normalize in (False, True)
    ),
    ("sobel-rgb", lambda x: sobel_magnitude_rgb(ImageBuffer(x)), 1, 3),
    *(
        (f"frei-chen-{subset.name}",
         lambda x, s=subset: frei_chen(ImageBuffer(x[:, :, :1]), s), 1, 1)
        for subset in FreiChenSubset
    ),
    ("luminance", lambda x: to_luminance(ImageBuffer(x)), 0, 3),
    # NaN has no byte value, so encode reads the frame with its NaNs at 0.5.
    ("encode",
     lambda x: encode_bytes(ImageBuffer(np.where(np.isnan(x), 0.5, x)), PixelFormat.RGB24), 0, 3),
]


@pytest.mark.parametrize(
    "loop, pad, channels", [pytest.param(*row[1:], id=row[0]) for row in _STRIP_LOOPS]
)
def test_strip_size_never_changes_output(monkeypatch, loop, pad, channels):
    h, w = 37, 29
    rng = np.random.default_rng(44)
    x = rng.standard_normal((h, w, 3))
    flat = x.reshape(-1)
    picks = rng.random(flat.size) < 0.2
    flat[picks] = rng.choice([np.inf, -np.inf, np.nan, -0.0], size=int(picks.sum()))
    read = np.empty((h + 2 * pad, w + 2 * pad, channels))
    assert image._strip_rows(read) >= h  # the whole frame is one strip
    one_strip = loop(x)
    # A budget of one read row gives 1-row strips.
    monkeypatch.setattr(image, "_STRIP_BYTES", read.strides[0])
    assert image._strip_rows(read) == 1
    got = loop(x)
    if isinstance(got, bytes):
        assert got == one_strip
        return
    got, one_strip = got.samples, one_strip.samples
    nan = np.isnan(one_strip)
    assert nan.any() and np.array_equal(np.isnan(got), nan)
    # Where two NaNs meet, numpy's loops keep one operand's NaN in their
    # vector body and the other's in their remainder, at a strip's last
    # samples, so only the sign and payload of a NaN may follow the strip size.
    assert got[~nan].tobytes() == one_strip[~nan].tobytes()


def _peak_bytes(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_codec_and_luminance_make_no_frame_sized_temporaries():
    h, w = 720, 1280
    rng = np.random.default_rng(22)
    raw = rng.integers(0, 256, h * w * 3, dtype=np.uint8).tobytes()
    rgb = decode_bytes(raw, w, h, PixelFormat.RGB24)
    mib = 1 << 20
    assert _peak_bytes(decode_bytes, raw, w, h, PixelFormat.RGB24) <= h * w * 3 * 8 + mib
    assert _peak_bytes(to_luminance, rgb) <= h * w * 8 + mib
    # The packed result and the bytes object tobytes copies it into.
    assert _peak_bytes(encode_bytes, rgb, PixelFormat.RGB24) <= 2 * h * w * 3 + mib
