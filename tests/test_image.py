import numpy as np
import pytest

from kernelbench import (
    FormatError,
    ImageBuffer,
    PixelFormat,
    RangeError,
    SizeError,
    UnsupportedFormat,
    decode_bytes,
    encode_bytes,
    read_pnm,
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


def test_encode_rounds_half_away_from_zero():
    buf = ImageBuffer(np.array([[0.5]]))
    assert encode_bytes(buf, PixelFormat.GRAY8) == bytes([128])


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
