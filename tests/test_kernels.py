import itertools

import numpy as np
import pytest

from kernelbench import kernels
from kernelbench import (
    FREI_CHEN,
    SOBEL_GX,
    SOBEL_GY,
    BorderPolicy,
    ImageBuffer,
    Kernel,
    compose,
    correlate,
    parse_kernel,
)

MATRIX_5X5 = np.array(
    [
        [10, 52, 63, 42, 74],
        [86, 24, 45, 28, 82],
        [62, 91, 17, 24, 2],
        [49, 19, 18, 36, 75],
        [41, 15, 78, 17, 14],
    ],
    dtype=np.float64,
)


def correlate_oracle(arr, k, zero_pad):
    """Brute-force per-pixel correlation, written independently of the engine."""
    h, w, c = arr.shape
    side = k.shape[0]
    r = side // 2
    out = np.zeros_like(arr)
    for y in range(h):
        for x in range(w):
            for ch in range(c):
                acc = 0.0
                for dy in range(side):
                    for dx in range(side):
                        yy, xx = y + dy - r, x + dx - r
                        if 0 <= yy < h and 0 <= xx < w:
                            v = arr[yy, xx, ch]
                        elif zero_pad:
                            v = 0.0
                        else:
                            v = arr[min(max(yy, 0), h - 1), min(max(xx, 0), w - 1), ch]
                        acc += k[dy, dx] * v
                out[y, x, ch] = acc
    return out


def test_worked_example_value_is_91():
    # Kernel with ones above and to the right of center, on the 5x5 integer
    # matrix: the output at the pixel holding 45 is 63*1 + 28*1 = 91.
    k = Kernel([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    out = correlate(ImageBuffer(MATRIX_5X5), k)
    assert out.samples[1, 2, 0] == 91.0


def test_identity_kernel_is_bit_identical():
    rng = np.random.default_rng(21)
    identity = Kernel([[0, 0, 0], [0, 1, 0], [0, 0, 0]])
    img = ImageBuffer(rng.random((9, 7, 3)))
    for border in BorderPolicy:
        out = correlate(img, identity, border)
        np.testing.assert_array_equal(out.samples, img.samples)


def test_constant_image_box_normalized_stays_constant():
    box = Kernel(np.ones((3, 3)))
    img = ImageBuffer(np.full((6, 8, 1), 0.41))
    out = correlate(img, box, BorderPolicy.CLAMP_TO_EDGE, normalize=True)
    # Summing nine equal floats and dividing by nine is not always exact in
    # binary arithmetic, so this checks the semantic property tightly rather
    # than bit-exactly.
    np.testing.assert_allclose(out.samples, img.samples, rtol=0.0, atol=1e-12)


def test_impulse_box_zero_pad_lights_every_footprint():
    img = np.zeros((3, 3, 1))
    img[1, 1, 0] = 1.0
    out = correlate(ImageBuffer(img), Kernel(np.ones((3, 3))), BorderPolicy.ZERO_PAD)
    np.testing.assert_array_equal(out.samples, np.ones((3, 3, 1)))


def test_engine_matches_oracle_on_random_inputs():
    rng = np.random.default_rng(22)
    for _ in range(8):
        h = int(rng.integers(1, 10))
        w = int(rng.integers(1, 10))
        c = int(rng.choice([1, 3]))
        side = int(rng.choice([1, 3, 5]))
        arr = rng.standard_normal((h, w, c))
        k = rng.standard_normal((side, side))
        for border in BorderPolicy:
            got = correlate(ImageBuffer(arr), Kernel(k), border).samples
            want = correlate_oracle(arr, k, border is BorderPolicy.ZERO_PAD)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def test_engine_matches_direct_summation_over_repeated_magnitudes():
    # Random signs over a few repeated magnitudes, so taps of equal |w| tie in
    # the engine's sort and the unit-weight path runs beside multiplied taps.
    rng = np.random.default_rng(23)
    magnitudes = np.array([0.0, 0.5, 1.0, 1.0, 2.0, 2.0, 3.0])
    for side in (1, 3, 5, 7):
        for channels in (1, 3):
            for _ in range(3):
                h = int(rng.integers(1, 10))
                w = int(rng.integers(1, 10))
                arr = rng.standard_normal((h, w, channels))
                signs = rng.choice([-1.0, 1.0], size=(side, side))
                k = rng.choice(magnitudes, size=(side, side)) * signs
                for border in BorderPolicy:
                    got = correlate(ImageBuffer(arr), Kernel(k), border).samples
                    want = correlate_oracle(arr, k, border is BorderPolicy.ZERO_PAD)
                    np.testing.assert_allclose(got, want, rtol=1e-12)


def _accumulate_multiply_every_tap(views, dest, scratch):
    """The accumulator as it was before unit taps skipped the multiply."""
    first, weight = views[0]
    np.multiply(first, weight, out=dest)
    for view, weight in views[1:]:
        np.multiply(view, weight, out=scratch)
        dest += scratch


def _assert_matches_multiply_every_tap(monkeypatch, compute):
    """compute() is bit-identical under the current and the reference accumulator."""
    got = compute().samples
    with monkeypatch.context() as m:
        m.setattr(kernels, "_accumulate", _accumulate_multiply_every_tap)
        want = compute().samples
    assert np.array_equal(got, want, equal_nan=True)
    numbers = ~np.isnan(want)
    assert np.array_equal(np.signbit(got[numbers]), np.signbit(want[numbers]))


def test_unit_taps_are_bit_identical_to_multiplying(monkeypatch):
    rng = np.random.default_rng(24)
    all_unit = [np.ones((3, 3)), -np.ones((3, 3)), np.array([[1.0]]), np.array([[-1.0]])]
    mixed = [
        SOBEL_GX.coefficients,
        SOBEL_GY.coefficients,
        np.array([[1.0, 0.0, 0.5], [-1.0, 1.0, 0.0], [0.25, -1.0, 1.0]]),
        rng.choice([-2.0, -1.0, 0.0, 1.0, 3.0], size=(5, 5)),
    ]
    no_unit = [FREI_CHEN[0].coefficients, 2.0 * np.ones((3, 3)), np.array([[0.5]])]
    specials = np.array([-0.0, 0.0, np.inf, -np.inf, np.nan])
    for shape in [(1, 1, 1), (1, 1, 3), (1, 9, 1), (9, 1, 3), (6, 7, 3)]:
        arr = rng.standard_normal(shape)
        flat = arr.reshape(-1)
        picks = rng.random(flat.size) < 0.3
        flat[picks] = rng.choice(specials, size=int(picks.sum()))
        image = ImageBuffer(arr)
        for k, border, normalize in itertools.product(
            all_unit + mixed + no_unit, BorderPolicy, (False, True)
        ):
            _assert_matches_multiply_every_tap(
                monkeypatch, lambda: correlate(image, Kernel(k), border, normalize)
            )


@np.errstate(over="ignore", invalid="ignore")
def _correlate_strided(arr, coefficients, border, normalize):
    """correlate as it ran before strips took the padded pitch: each tap reads
    a row-strided (h, w, c) view, with the same tap order and unit-weight rules."""
    h, w = arr.shape[0], arr.shape[1]
    padded = kernels.pad_samples(arr, coefficients.shape[0] // 2, border)

    def accumulate(taps, dest):
        views = [(padded[dy : dy + h, dx : dx + w], weight) for dy, dx, weight in taps]
        (first, weight), rest = views[0], views[1:]
        if weight != 1.0:
            np.multiply(first, weight, out=dest)
        elif rest and rest[0][1] == 1.0:
            np.add(first, rest[0][0], out=dest)
            rest = rest[1:]
        else:
            np.copyto(dest, first)
        for view, weight in rest:
            dest += view if weight == 1.0 else view * weight
        return dest

    pos, neg = kernels._split_taps(coefficients)
    out = np.zeros(arr.shape)
    if pos:
        accumulate(pos, out)
    if neg:
        acc = accumulate(neg, np.empty(arr.shape))
        if pos:
            out -= acc
        else:
            np.negative(acc, out=out)
    if normalize:
        weight = float(coefficients.sum())
        out /= weight if weight > 0.0 else 1.0
    return out


def test_pitch_layout_matches_strided_taps():
    rng = np.random.default_rng(29)
    specials = np.array([-0.0, np.inf, -np.inf, np.nan, 1e308, -1e308])
    kernels_5_7 = [
        rng.choice([-2.0, -1.0, 0.0, 0.5, 1.0, 1.0], size=(side, side)) for side in (5, 7)
    ] + [rng.standard_normal((side, side)) for side in (5, 7)]
    cases = []
    # Widths 1-3 under 5x5 and 7x7 kernels, so taps run into the junk elements
    # at the end of each buffer row, at heights of two full strips and a part.
    for w, channels, k in itertools.product((1, 2, 3), (1, 3), kernels_5_7):
        r = k.shape[0] // 2
        strip = kernels._strip_rows(np.empty((1, w + 2 * r, channels)), buffers=3)
        cases.append(((2 * strip + 3, w, channels), k))
    cases += [((13, 2048, 3), SOBEL_GX.coefficients), ((240, 320, 3), np.ones((3, 3)))]
    for shape, k in cases:
        arr = rng.standard_normal(shape)
        flat = arr.reshape(-1)
        picks = rng.random(flat.size) < 0.2
        flat[picks] = rng.choice(specials, size=int(picks.sum()))
        for border, normalize in itertools.product(BorderPolicy, (False, True)):
            padded = kernels.pad_samples(arr, k.shape[0] // 2, border)
            assert kernels._strip_rows(padded, buffers=3) < shape[0]
            got = correlate(ImageBuffer(arr), Kernel(k), border, normalize).samples
            want = _correlate_strided(arr, k, border, normalize)
            nan = np.isnan(want)
            assert np.array_equal(np.isnan(got), nan)
            # NaN bits may differ only where two NaNs meet: numpy's contiguous
            # and strided loops return different operands of NaN + NaN.
            assert got[~nan].tobytes() == want[~nan].tobytes()


def test_correlation_is_linear():
    rng = np.random.default_rng(23)
    k = Kernel(rng.standard_normal((3, 3)))
    a, b = 1.7, -0.6
    i_img = rng.random((8, 8, 1))
    j_img = rng.random((8, 8, 1))
    for border in BorderPolicy:
        lhs = correlate(ImageBuffer(a * i_img + b * j_img), k, border).samples
        rhs = (
            a * correlate(ImageBuffer(i_img), k, border).samples
            + b * correlate(ImageBuffer(j_img), k, border).samples
        )
        np.testing.assert_allclose(lhs, rhs, rtol=1e-5, atol=1e-12)


def test_normalize_divides_by_weight():
    rng = np.random.default_rng(24)
    arr = rng.random((5, 6, 1))
    box = Kernel(np.ones((3, 3)))
    plain = correlate(ImageBuffer(arr), box).samples
    normed = correlate(ImageBuffer(arr), box, normalize=True).samples
    np.testing.assert_allclose(normed, plain / 9.0, rtol=1e-12, atol=0.0)


def test_normalize_guard_for_non_positive_weight():
    # Zero-sum and negative-sum kernels divide by 1, i.e. pass through.
    rng = np.random.default_rng(25)
    arr = rng.random((5, 5, 1))
    for k in (SOBEL_GX, Kernel([[0, 0, 0], [0, -2, 0], [0, 0, 0]])):
        plain = correlate(ImageBuffer(arr), k).samples
        normed = correlate(ImageBuffer(arr), k, normalize=True).samples
        np.testing.assert_array_equal(normed, plain)


def test_output_dimensions_match_input():
    rng = np.random.default_rng(26)
    img = ImageBuffer(rng.random((4, 11, 3)))
    out = correlate(img, Kernel(rng.standard_normal((5, 5))))
    assert (out.height, out.width, out.channels) == (4, 11, 3)


def test_sobel_presets_exact_values():
    np.testing.assert_array_equal(
        SOBEL_GX.coefficients, [[-1, -2, -1], [0, 0, 0], [1, 2, 1]]
    )
    np.testing.assert_array_equal(
        SOBEL_GY.coefficients, [[-1, 0, 1], [-2, 0, 2], [-1, 0, 1]]
    )


def test_frei_chen_masks_are_orthonormal():
    assert len(FREI_CHEN) == 9
    for i, mask in enumerate(FREI_CHEN):
        norm = float(np.sqrt((mask.coefficients ** 2).sum()))
        assert abs(norm - 1.0) <= 1e-6, f"G{i + 1} norm {norm}"
    for i in range(9):
        for j in range(i + 1, 9):
            dot = float((FREI_CHEN[i].coefficients * FREI_CHEN[j].coefficients).sum())
            assert abs(dot) <= 1e-6, f"G{i + 1}.G{j + 1} = {dot}"


def test_compose_identity_is_neutral():
    rng = np.random.default_rng(27)
    identity = Kernel([[0, 0, 0], [0, 1, 0], [0, 0, 0]])
    k = Kernel(rng.standard_normal((3, 3)))
    padded = np.zeros((5, 5))
    padded[1:4, 1:4] = k.coefficients
    np.testing.assert_allclose(compose(identity, k).coefficients, padded, atol=1e-15)
    np.testing.assert_allclose(compose(k, identity).coefficients, padded, atol=1e-15)


def test_compose_overflow_raises_value_error_without_a_warning():
    huge = Kernel([[1e200]])
    with pytest.raises(ValueError, match="finite"):
        compose(huge, huge)


def test_compose_box_with_box():
    box = Kernel(np.ones((3, 3)))
    expected = [
        [1, 2, 3, 2, 1],
        [2, 4, 6, 4, 2],
        [3, 6, 9, 6, 3],
        [2, 4, 6, 4, 2],
        [1, 2, 3, 2, 1],
    ]
    np.testing.assert_array_equal(compose(box, box).coefficients, expected)


def test_sequential_equals_composed_on_interior():
    rng = np.random.default_rng(28)
    for _ in range(10):
        img = ImageBuffer(rng.random((16, 16, 1)))
        k1 = Kernel(rng.standard_normal((3, 3)))
        k2 = Kernel(rng.standard_normal((3, 3)))
        seq = correlate(correlate(img, k1), k2).samples
        comp = correlate(img, compose(k1, k2)).samples
        np.testing.assert_allclose(seq[2:-2, 2:-2], comp[2:-2, 2:-2], atol=1e-5)


def test_parse_kernel_round_trip():
    k = parse_kernel("3 0 1 0 0 0 1 0 0 0")
    assert k.side == 3
    np.testing.assert_array_equal(k.coefficients, [[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    k1 = parse_kernel("1 2.5")
    assert k1.side == 1 and k1.coefficients[0, 0] == 2.5


def test_parse_kernel_rejects_bad_specs():
    for text in (
        "",
        "2 1 1 1 1",
        "0",
        "-1 5",
        "3 1 2 3",
        "3 a b c d e f g h i",
        "x 1",
        "3 0 0 0 0 1 0 0 0 nan",
        "1 inf",
        "1 -inf",
    ):
        with pytest.raises(ValueError):
            parse_kernel(text)


def test_kernel_validation():
    with pytest.raises(ValueError):
        Kernel(np.ones((2, 2)))
    with pytest.raises(ValueError):
        Kernel(np.ones((2, 3)))
    with pytest.raises(ValueError):
        Kernel([1.0, 2.0])
    for bad in (np.nan, np.inf, -np.inf):
        k = np.zeros((3, 3))
        k[0, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            Kernel(k)
