import itertools
import math

import numpy as np
import pytest

from kernelbench import detectors, kernels
from kernelbench import (
    SOBEL_GX,
    SOBEL_GY,
    BorderPolicy,
    FormatError,
    FreiChenSubset,
    ImageBuffer,
    Kernel,
    RangeError,
    frei_chen,
    sobel_magnitude,
    sobel_magnitude_rgb,
    threshold,
    to_luminance,
)


def test_sobel_constant_image_is_exactly_zero():
    for value in (0.0, 0.17, 1.0, 255.0):
        img = ImageBuffer(np.full((7, 9, 1), value))
        out = sobel_magnitude(img).samples
        assert np.all(out == 0.0)


def test_sobel_rgb_constant_is_exactly_zero():
    img = ImageBuffer(np.full((6, 5, 3), 0.73))
    assert np.all(sobel_magnitude_rgb(img).samples == 0.0)


def test_sobel_ramp_interior_response_is_8():
    # I(x, y) = x in pixel units: the x-differentiating mask responds with
    # (1+2+1) * 2 = 8 per unit slope, the other mask with 0.
    arr = np.tile(np.arange(8, dtype=np.float64), (6, 1)).reshape(6, 8, 1)
    out = sobel_magnitude(ImageBuffer(arr)).samples
    np.testing.assert_array_equal(out[:, 1:-1, 0], np.full((6, 6), 8.0))


def test_sobel_impulse_neighbors():
    arr = np.zeros((5, 5, 1))
    arr[2, 2, 0] = 1.0
    out = sobel_magnitude(ImageBuffer(arr), BorderPolicy.ZERO_PAD).samples[:, :, 0]
    for y, x in ((1, 2), (3, 2), (2, 1), (2, 3)):
        assert out[y, x] == 2.0
    for y, x in ((1, 1), (1, 3), (3, 1), (3, 3)):
        np.testing.assert_allclose(out[y, x], math.sqrt(2.0), rtol=1e-12)


def test_sobel_channel_guards():
    with pytest.raises(FormatError):
        sobel_magnitude(ImageBuffer(np.zeros((2, 2, 3))))
    with pytest.raises(FormatError):
        sobel_magnitude_rgb(ImageBuffer(np.zeros((2, 2, 1))))


def test_sobel_rgb_equals_max_of_channel_magnitudes():
    rng = np.random.default_rng(31)
    arr = rng.random((8, 8, 3))
    combined = sobel_magnitude_rgb(ImageBuffer(arr)).samples[:, :, 0]
    per_channel = [
        sobel_magnitude(ImageBuffer(arr[:, :, c : c + 1])).samples[:, :, 0]
        for c in range(3)
    ]
    np.testing.assert_array_equal(
        combined, np.maximum(per_channel[0], np.maximum(per_channel[1], per_channel[2]))
    )


def test_sobel_rgb_single_channel_edge_matches_gray():
    arr = np.full((8, 8, 3), 0.4)
    arr[:, 4:, 0] = 0.9
    combined = sobel_magnitude_rgb(ImageBuffer(arr)).samples
    red_only = sobel_magnitude(ImageBuffer(arr[:, :, 0:1])).samples
    np.testing.assert_array_equal(combined, red_only)


def _sobel_tap_loop(arr, border):
    """The Sobel magnitude as the tap loop computed it before the separable form."""
    image = ImageBuffer(arr)
    gx = kernels.correlate(image, SOBEL_GX, border).samples
    gy = kernels.correlate(image, SOBEL_GY, border).samples
    return np.hypot(gx, gy).max(axis=2)


def test_separable_sobel_is_bit_identical_to_the_tap_loop():
    rng = np.random.default_rng(34)
    specials = np.array([-0.0, 0.0, np.inf, -np.inf, np.nan, 1e308, -1e308])
    wide = (13, 2048)
    # The wide image must span several strips of the fused loop.
    assert kernels._strip_rows(np.empty(wide + (3,)), buffers=4) < wide[0] // 2
    shapes = [(1, 1), (1, 9), (9, 1), wide]
    shapes += [tuple(int(n) for n in rng.integers(1, 40, size=2)) for _ in range(12)]
    cases = itertools.product(shapes, (1, 3), BorderPolicy, (False, True))
    for (h, w), channels, border, with_specials in cases:
        arr = rng.standard_normal((h, w, channels))
        if with_specials:
            flat = arr.reshape(-1)
            picks = rng.random(flat.size) < 0.2
            flat[picks] = rng.choice(specials, size=int(picks.sum()))
        got = detectors._sobel_samples(arr, border)
        want = _sobel_tap_loop(arr, border)
        # np.max and pairwise np.maximum may keep different NaNs where
        # several channels are NaN, so NaN compares without its sign.
        assert np.array_equal(got, want, equal_nan=True)
        numbers = ~np.isnan(want)
        assert np.array_equal(np.signbit(got[numbers]), np.signbit(want[numbers]))


def test_sobel_shift_invariance_on_interior():
    rng = np.random.default_rng(32)
    arr = rng.random((10, 10, 1))
    base = sobel_magnitude(ImageBuffer(arr)).samples
    shifted = sobel_magnitude(ImageBuffer(arr + 0.3)).samples
    np.testing.assert_allclose(
        shifted[1:-1, 1:-1], base[1:-1, 1:-1], rtol=1e-5, atol=1e-9
    )


def test_sobel_scales_with_amplitude():
    rng = np.random.default_rng(33)
    arr = rng.random((9, 9, 1))
    base = sobel_magnitude(ImageBuffer(arr)).samples
    scaled = sobel_magnitude(ImageBuffer(2.5 * arr)).samples
    np.testing.assert_allclose(scaled, 2.5 * base, rtol=1e-5, atol=1e-12)


@pytest.mark.filterwarnings("error")
def test_non_finite_and_huge_pixels_follow_ieee_without_warnings():
    # inf - inf, inf / inf and sums past 1.8e308 have IEEE results (NaN or
    # inf); every entry point and both engines' detectors give them silently.
    from kernelbench.pipeline import DetectorKind, Engine, _process_frame

    rng = np.random.default_rng(35)
    specials = np.array([np.inf, -np.inf, np.nan, 1e308, -1e308])
    images = []
    for channels in (1, 3):
        arr = rng.standard_normal((6, 7, channels))
        flat = arr.reshape(-1)
        picks = rng.random(flat.size) < 0.4
        flat[picks] = rng.choice(specials, size=int(picks.sum()))
        images.append(ImageBuffer(arr))
    gray, rgb = images
    kernel = Kernel([[0.5, -1.0, 2.0], [1.0, -2.0, 1.0], [3.0, 1.0, -1.0]])
    for image, border, normalize in itertools.product(images, BorderPolicy, (False, True)):
        kernels.correlate(image, kernel, border, normalize)
    sobel_magnitude(gray)
    sobel_magnitude_rgb(rgb)
    for subset in FreiChenSubset:
        assert np.isnan(frei_chen(gray, subset).samples).any()
    assert np.isnan(to_luminance(rgb).samples).any()
    for kind, engine in itertools.product(DetectorKind, Engine):
        _process_frame(rgb, kind, engine)


def test_frei_chen_constant_edge_subset_is_zero():
    # Only the smoothing mask responds to a flat image, so the edge
    # numerator is zero while the total stays positive.
    img = ImageBuffer(np.full((6, 6, 1), 0.8))
    out = frei_chen(img, FreiChenSubset.EDGE).samples
    assert np.all(out == 0.0)


def test_frei_chen_all_zero_image_hits_the_guard():
    img = ImageBuffer(np.zeros((5, 5, 1)))
    for subset in FreiChenSubset:
        assert np.all(frei_chen(img, subset).samples == 0.0)


def test_frei_chen_step_edge_localizes():
    arr = np.zeros((8, 8, 1))
    arr[:, 4:, 0] = 1.0
    out = frei_chen(ImageBuffer(arr), FreiChenSubset.EDGE).samples[:, :, 0]
    adjacent = out[4, 3]
    away = out[4, 1]
    assert 0.0 < adjacent <= 1.0
    assert adjacent > away


def test_frei_chen_output_in_unit_interval():
    rng = np.random.default_rng(34)
    for _ in range(25):
        img = ImageBuffer(rng.random((7, 7, 1)))
        for subset in FreiChenSubset:
            out = frei_chen(img, subset).samples
            assert out.min() >= 0.0
            assert out.max() <= 1.0


def test_frei_chen_scale_invariance():
    rng = np.random.default_rng(35)
    arr = rng.random((9, 9, 1)) + 0.1
    base = frei_chen(ImageBuffer(arr), FreiChenSubset.EDGE).samples
    scaled = frei_chen(ImageBuffer(3.7 * arr), FreiChenSubset.EDGE).samples
    np.testing.assert_allclose(scaled, base, atol=1e-5)


def test_frei_chen_subset_indices():
    assert list(FreiChenSubset.EDGE.mask_indices) == [0, 1, 2, 3]
    assert list(FreiChenSubset.LINE.mask_indices) == [4, 5, 6, 7]
    assert list(FreiChenSubset.EDGE_AND_LINE.mask_indices) == list(range(8))


def test_frei_chen_rejects_rgb():
    with pytest.raises(FormatError):
        frei_chen(ImageBuffer(np.zeros((2, 2, 3))), FreiChenSubset.EDGE)


def test_threshold_strict_comparison():
    img = ImageBuffer(np.array([[0.2, 0.5, 0.8]]))
    out = threshold(img, 0.5).samples
    np.testing.assert_array_equal(out[0, :, 0], [0.0, 0.0, 1.0])


def test_threshold_at_one_blanks_clamped_input():
    rng = np.random.default_rng(36)
    img = ImageBuffer(rng.random((4, 4, 1)))
    assert np.all(threshold(img, 1.0).samples == 0.0)


def test_threshold_is_idempotent_and_binary():
    rng = np.random.default_rng(37)
    img = ImageBuffer(rng.random((6, 6, 1)))
    once = threshold(img, 0.4)
    assert set(np.unique(once.samples)) <= {0.0, 1.0}
    twice = threshold(once, 0.5)
    np.testing.assert_array_equal(twice.samples, once.samples)


def test_threshold_range_check():
    img = ImageBuffer(np.zeros((2, 2, 1)))
    for bad in (-0.01, 1.01, 2.0):
        with pytest.raises(RangeError):
            threshold(img, bad)
    with pytest.raises(FormatError):
        threshold(ImageBuffer(np.zeros((2, 2, 3))), 0.5)
