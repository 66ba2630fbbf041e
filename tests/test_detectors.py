import contextlib
import functools
import itertools
import math
import os
import sys
import threading

import numpy as np
import pytest

from kernelbench import detectors, image, kernels, shadergen
from kernelbench import (
    SOBEL_GX,
    SOBEL_GY,
    BorderPolicy,
    ChainPass,
    ChainSpec,
    FormatError,
    FramePattern,
    FreiChenSubset,
    ImageBuffer,
    Kernel,
    RangeError,
    SyntheticSource,
    execute_chain_reference,
    frei_chen,
    next_frame,
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


def _sobel_strip_rows(w, channels):
    """Rows per strip of the Sobel loop on a w-wide image, whose padded rows are w + 2 wide."""
    return image._strip_rows(np.empty((1, w + 2, channels)))


def _sobel_tap_loop(arr, border):
    """The Sobel magnitude as the tap loop computed it before the separable form."""
    image = ImageBuffer(arr)
    gx = kernels.correlate(image, SOBEL_GX, border).samples
    gy = kernels.correlate(image, SOBEL_GY, border).samples
    return np.hypot(gx, gy).max(axis=2)


def test_separable_sobel_is_bit_identical_to_the_tap_loop():
    rng = np.random.default_rng(34)
    specials = np.array([-0.0, 0.0, np.inf, -np.inf, np.nan, 1e308, -1e308])
    wide = (33, 2048)
    # The wide image must span several strips of the fused loop.
    assert _sobel_strip_rows(wide[1], 3) < wide[0] // 2
    shapes = [(1, 1), (1, 9), (9, 1), wide]
    shapes += [tuple(int(n) for n in rng.integers(1, 40, size=2)) for _ in range(12)]
    cases = itertools.product(shapes, (1, 3), BorderPolicy, (False, True))
    for (h, w), channels, border, with_specials in cases:
        arr = rng.standard_normal((h, w, channels))
        if with_specials:
            flat = arr.reshape(-1)
            picks = rng.random(flat.size) < 0.2
            flat[picks] = rng.choice(specials, size=int(picks.sum()))
        detect = sobel_magnitude if channels == 1 else sobel_magnitude_rgb
        got = detect(ImageBuffer(arr), border).samples[:, :, 0]
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
    # inf); every entry point and the frame loop give them silently.
    from kernelbench.pipeline import DetectorKind, _process_frame

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
    for kind in DetectorKind:
        _process_frame(rgb, kind)


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


def _flat_windows(arr, border):
    """Pixels whose padded 3x3 window is finite and constant."""
    padded = np.pad(arr[:, :, 0], 1, mode=border.pad_mode)
    h, w = arr.shape[0], arr.shape[1]
    flat = np.isfinite(arr[:, :, 0])
    for dy, dx in itertools.product(range(3), range(3)):
        flat &= padded[dy : dy + h, dx : dx + w] == arr[:, :, 0]
    return flat


def test_frei_chen_is_exactly_zero_on_flat_windows():
    # G7 and G8 have positive and negative taps that are different
    # multisets, so without the flat rule LINE and EDGE_AND_LINE leave about
    # 1e-16 on a constant window at many gray levels.
    levels = np.arange(256) / 255.0
    # Side by side 5-wide patches of every level, so each patch borders a
    # step edge and its interior columns are flat.
    patches = np.repeat(levels[(np.arange(256) * 97) % 256], 5)
    images = [np.full((5, 5, 1), level) for level in levels]
    images.append(np.tile(patches, (5, 1))[:, :, np.newaxis])
    for arr, subset, border in itertools.product(images, FreiChenSubset, BorderPolicy):
        flat = _flat_windows(arr, border)
        assert flat.any()
        out = frei_chen(ImageBuffer(arr), subset, border).samples[:, :, 0]
        assert np.all(out[flat] == 0.0)
        assert not np.signbit(out[flat]).any()


def test_frei_chen_flat_rule_needs_a_finite_window():
    for value, subset in itertools.product((np.inf, -np.inf), FreiChenSubset):
        out = frei_chen(ImageBuffer(np.full((4, 5, 1), value)), subset).samples
        assert np.isnan(out).all()
    arr = np.full((7, 7, 1), 0.7)
    arr[3, 3, 0] = np.nan
    near = np.zeros((7, 7), dtype=bool)
    near[2:5, 2:5] = True
    for subset in FreiChenSubset:
        out = frei_chen(ImageBuffer(arr), subset).samples[:, :, 0]
        assert np.isnan(out[near]).all()
        assert np.all(out[~near] == 0.0)


def _frei_chen_strip_rows(w):
    """Rows per strip of frei_chen on a w-wide image, whose padded rows are w + 2 wide."""
    return image._strip_rows(np.empty((1, w + 2, 1)))


def test_frei_chen_flat_rule_holds_across_strips():
    rng = np.random.default_rng(38)
    strip = _frei_chen_strip_rows(2048)
    assert strip > 3
    arr = rng.random((strip + 6, 2048, 1))
    arr[strip - 4 :, 100:300] = 0.7
    # The patch's flat rows, strip - 3 to the last, straddle a strip boundary.
    out = frei_chen(ImageBuffer(arr), FreiChenSubset.LINE).samples[:, :, 0]
    flat = _flat_windows(arr, BorderPolicy.CLAMP_TO_EDGE)
    assert flat[strip - 3 :, 101:299].all() and flat.sum() == 9 * 198
    assert np.all(out[flat] == 0.0)
    assert np.all(out[~flat] > 0.0)


@np.errstate(over="ignore", invalid="ignore")
def _frei_chen_frame_sized(arr, subset, border):
    """The Frei-Chen measure over frame-sized arrays, as computed before the fused strip loop."""
    image = ImageBuffer(arr)
    numerator = np.zeros(arr.shape)
    total = np.zeros(arr.shape)
    for index, mask in enumerate(kernels.FREI_CHEN):
        response = kernels.correlate(image, mask, border).samples
        squared = response * response
        total += squared
        if index in subset.mask_indices:
            numerator += squared
    guard = total < detectors.FREI_CHEN_EPSILON
    np.divide(numerator, total, out=numerator, where=~guard)
    numerator[guard] = 0.0
    return np.sqrt(numerator)


def test_fused_frei_chen_is_bit_identical_to_the_frame_sized_combine():
    rng = np.random.default_rng(39)
    specials = np.array([-0.0, 0.0, np.inf, -np.inf, np.nan, 1e308, -1e308])
    # Widths 1-3, where most of each buffer row is junk past the last output
    # pixel, and a wide image, each over two full strips and a short last
    # one: both tap plans run, and the last strip's bands end at the frame's
    # last padded sample.
    shapes = []
    for w in (1, 2, 3, 2048):
        strip = _frei_chen_strip_rows(w)
        assert strip > 3
        shapes.append((2 * strip + 3, w))
    shapes += [(1, 1), (1, 9), (9, 1)]
    shapes += [tuple(int(n) for n in rng.integers(1, 40, size=2)) for _ in range(8)]
    for (h, w), with_specials in itertools.product(shapes, (False, True)):
        # Random samples with a flat patch, so the flat rule has pixels to act on.
        arr = rng.standard_normal((h, w, 1))
        arr[: h // 2 + 1, : w // 2 + 1] = 0.35
        if with_specials:
            flat = arr.reshape(-1)
            picks = rng.random(flat.size) < 0.2
            flat[picks] = rng.choice(specials, size=int(picks.sum()))
        for subset, border in itertools.product(FreiChenSubset, BorderPolicy):
            got = frei_chen(ImageBuffer(arr), subset, border).samples
            want = _frei_chen_frame_sized(arr, subset, border)
            flat = _flat_windows(arr, border)
            assert np.all(got[flat] == 0.0)
            got, want = got[~flat], want[~flat]
            nan = np.isnan(want)
            assert np.array_equal(np.isnan(got), nan)
            # tobytes compares the sign of zero as well. NaN bits may differ
            # where two NaNs meet: numpy's add loops return different operands.
            assert got[~nan].tobytes() == want[~nan].tobytes()


def _use_cpus(monkeypatch, count):
    """Make the detectors see count usable CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def _record_ranges(monkeypatch, name="_frei_chen_rows", module=detectors):
    """Record the (y_start, y_end) and thread of each range module.<name> runs."""
    calls = []
    original = getattr(module, name)

    def recording(*args):
        calls.append((args[-2:], threading.current_thread()))
        original(*args)

    monkeypatch.setattr(module, name, recording)
    return calls


def _split_calls(detect, calls, ranges):
    """detect() with the ranges interleaved, checking where each range ran and that no thread is left."""
    before = threading.active_count()
    calls.clear()
    # Switching threads as often as the interpreter allows, so the ranges
    # interleave even on fewer cores than ranges.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = detect()
    finally:
        sys.setswitchinterval(interval)
    # Each range runs once, the first on the caller's thread and every
    # other one on a pool thread; an idle pool thread may take several.
    assert sorted(rows for rows, _ in calls) == ranges
    threads = dict(calls)
    assert threads[ranges[0]] is threading.main_thread()
    assert all(threads[rows] is not threading.main_thread() for rows in ranges[1:])
    # No pool thread outlives the call.
    assert threading.active_count() == before
    return got


def _specials_at_boundaries(arr, boundaries):
    """Around each row boundary b: inf, -inf and NaN in the rows on either
    side, a finite flat window and a flat window of -0.0 straddling it."""
    for b in boundaries:
        arr[b - 1, 1], arr[b, 2], arr[b - 1, 4], arr[b, 5] = np.inf, -np.inf, np.nan, -0.0
        arr[b - 2 : b + 2, 8:13] = 0.35
        arr[b - 2 : b + 2, 15:20] = -0.0


# 3-row strips split a 40-row frame into these ranges over two and four
# usable CPUs; a range need not hold whole strips.
_SPLITS = {2: [(0, 20), (20, 40)], 4: [(0, 10), (10, 20), (20, 30), (30, 40)]}
_BOUNDARIES = (10, 20, 30)


def test_frei_chen_row_ranges_are_bit_identical_to_one_range(monkeypatch):
    # A budget of three padded rows gives 3-row strips.
    h, w = 40, 23
    monkeypatch.setattr(image, "_STRIP_BYTES", 3 * (w + 2) * 8)
    strip = _frei_chen_strip_rows(w)
    assert strip == 3
    rng = np.random.default_rng(40)
    arr = rng.standard_normal((h, w, 1))
    _specials_at_boundaries(arr, _BOUNDARIES)
    calls = _record_ranges(monkeypatch)
    for subset, border in itertools.product(FreiChenSubset, BorderPolicy):
        _use_cpus(monkeypatch, 1)
        one = frei_chen(ImageBuffer(arr), subset, border).samples
        for cpus, ranges in _SPLITS.items():
            _use_cpus(monkeypatch, cpus)
            assert image._row_ranges(h, strip) == ranges
            got = _split_calls(
                lambda: frei_chen(ImageBuffer(arr), subset, border).samples, calls, ranges
            )
            # Same operations in the same order: the same bits. With NaNs of
            # one sign that includes the NaNs; mixed signs may flip a kept NaN's
            # sign (test_row_ranges_keep_values_with_mixed_sign_nans).
            assert got.tobytes() == one.tobytes()
        want = _frei_chen_frame_sized(arr, subset, border)
        flat = _flat_windows(arr, border)
        assert flat[list(_BOUNDARIES)].any()
        assert np.all(got[flat] == 0.0) and not np.signbit(got[flat]).any()
        got, want = got[~flat], want[~flat]
        nan = np.isnan(want)
        assert nan.any() and np.array_equal(np.isnan(got), nan)
        assert got[~nan].tobytes() == want[~nan].tobytes()


def test_sobel_row_ranges_are_bit_identical_to_one_range(monkeypatch):
    h, w = 40, 23
    rng = np.random.default_rng(42)
    calls = _record_ranges(monkeypatch, "_sobel_rows")
    for channels, border in itertools.product((1, 3), BorderPolicy):
        # A budget of three padded rows gives 3-row strips.
        monkeypatch.setattr(image, "_STRIP_BYTES", 3 * (w + 2) * channels * 8)
        assert _sobel_strip_rows(w, channels) == 3
        arr = rng.standard_normal((h, w, channels))
        _specials_at_boundaries(arr, _BOUNDARIES)
        # On the padded pitch, the last column of one row and the first of
        # the next are flat-index neighbours across the two padding columns.
        for b in _BOUNDARIES:
            arr[b - 2 : b + 2, 0] = np.array([np.inf, -np.inf, np.nan, -0.0])[:, np.newaxis]
            arr[b - 2 : b + 2, -1] = np.array([-0.0, np.nan, -np.inf, np.inf])[:, np.newaxis]
        detect = sobel_magnitude if channels == 1 else sobel_magnitude_rgb
        _use_cpus(monkeypatch, 1)
        one = detect(ImageBuffer(arr), border).samples
        for cpus, ranges in _SPLITS.items():
            _use_cpus(monkeypatch, cpus)
            assert image._row_ranges(h, _sobel_strip_rows(w, channels)) == ranges
            got = _split_calls(lambda: detect(ImageBuffer(arr), border).samples, calls, ranges)
            assert got.tobytes() == one.tobytes()
        want = _sobel_tap_loop(arr, border)
        got = got[:, :, 0]
        assert np.isnan(want).any() and np.array_equal(got, want, equal_nan=True)
        numbers = ~np.isnan(want)
        assert np.array_equal(np.signbit(got[numbers]), np.signbit(want[numbers]))


def _in_a_run(function, chain_steps=0):
    """function() inside a run's scope, whose pool threads end with it, and where
    chain_steps is not 0, as a step but the last of a chain of that many steps."""
    with image._run_scope(), image._chain_steps(chain_steps):
        return function()


def test_correlate_row_ranges_are_bit_identical_to_one_range(monkeypatch):
    # Inside a run the steps of a long chain split on the run's pool. Every
    # other call, in a shorter chain, in a run outside a chain or outside a
    # run, runs one range on the caller's thread, whatever the CPU count.
    h, w = 40, 23
    rng = np.random.default_rng(44)
    calls = _record_ranges(monkeypatch, "_correlate_rows", kernels)
    splits = {**_SPLITS, 3: [(0, 13), (13, 26), (26, 40)]}
    boundaries = (10, 13, 20, 26, 30)
    for channels, side in itertools.product((1, 3), (1, 3, 5, 7)):
        # A budget of three padded rows gives 3-row strips.
        monkeypatch.setattr(image, "_STRIP_BYTES", 3 * (w + side - 1) * channels * 8)
        arr = rng.standard_normal((h, w, channels))
        _specials_at_boundaries(arr, boundaries)
        # A mixed-sign kernel with weight-1.0 taps, and a box: both sign
        # groups, the multiply-free taps, and a positive and a zero or
        # negative coefficient sum to normalize by.
        mixed = rng.choice([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 3.0], (side, side))
        mixed[side // 2, side // 2] = -np.abs(mixed).sum()
        for kernel, border, normalize in itertools.product(
            (Kernel(mixed), Kernel(np.ones((side, side)))), BorderPolicy, (False, True)
        ):
            correlate = functools.partial(kernels.correlate, ImageBuffer(arr), kernel, border, normalize)
            one = correlate().samples
            assert np.isnan(one).any() and np.isinf(one).any()
            for cpus, ranges in splits.items():
                _use_cpus(monkeypatch, cpus)
                assert image._row_ranges(h, 3) == ranges
                # A chain of two steps, such as criterion 6's repeat-2 row, runs one range.
                for steps, want in ((3, ranges), (50, ranges), (2, [(0, h)]), (0, [(0, h)])):
                    got = _split_calls(lambda: _in_a_run(correlate, steps).samples, calls, want)
                    assert got.tobytes() == one.tobytes()
                got = _split_calls(lambda: correlate().samples, calls, [(0, h)])
                assert got.tobytes() == one.tobytes()


def test_chain_steps_in_a_run_are_bit_identical_over_any_range_count(monkeypatch):
    # Inside a run a chain step's ranges write straight into a pad slot, and
    # the last step runs one range; every step's output has the bytes of a
    # one-range call outside a run.
    h, w = 40, 23
    rng = np.random.default_rng(45)
    mixed = Kernel([[1.0, -2.0, 0.5], [0.0, 3.0, -1.0], [-0.25, 1.0, -1.0]])
    chain = ChainSpec((
        ChainPass(mixed, repeat=2),
        ChainPass(Kernel(np.ones((3, 3))), normalize=True, repeat=2),
        ChainPass(mixed, normalize=True),
    ))
    calls = _record_ranges(monkeypatch, "_correlate_rows", kernels)
    for channels in (1, 3):
        monkeypatch.setattr(image, "_STRIP_BYTES", 3 * (w + 2) * channels * 8)
        arr = rng.standard_normal((h, w, channels))
        _specials_at_boundaries(arr, (10, 13, 20, 26, 30))
        outputs = {}
        for cpus, inside in itertools.product((1, 2, 3, 4), (False, True)):
            _use_cpus(monkeypatch, cpus)
            steps = []
            with monkeypatch.context() as patch:
                patch.setattr(shadergen, "correlate", functools.partial(_copying, kernels.correlate, steps))
                with image._run_scope(pads_frame=True) if inside else contextlib.nullcontext():
                    calls.clear()
                    execute_chain_reference(ImageBuffer(arr), chain)
            ranges = image._row_ranges(h, 3) if inside else [(0, h)]
            assert sorted(rows for rows, _ in calls) == sorted(ranges * 4 + [(0, h)])
            assert all(thread is threading.main_thread() for rows, thread in calls if rows == ranges[0])
            outputs[cpus, inside] = steps
        one = outputs[1, False]
        assert np.isnan(np.frombuffer(one[-1])).any()
        assert all(steps == one for steps in outputs.values())


def _copying(function, sink, *args):
    """function(*args), appending the bytes of the samples it returns to sink."""
    out = function(*args)
    sink.append(out.samples.tobytes())
    return out


def test_row_ranges_keep_values_with_mixed_sign_nans(monkeypatch):
    """Over 1, 2 and 4 row ranges, NaNs of both signs leave the values, the NaN
    positions and every non-NaN bit unchanged. Only the sign of a NaN kept where
    a NaN and a -NaN meet may differ: numpy keeps one operand's NaN in a ufunc's
    vector body and the other's in its remainder, and ranges move strip ends."""
    h, w = 40, 23
    rng = np.random.default_rng(43)
    arr = rng.standard_normal((h, w, 3))
    nan = rng.random(arr.shape) < 0.1
    arr[nan] = np.where(rng.random(nan.sum()) < 0.5, np.nan, -np.nan)
    gray = ImageBuffer(arr[:, :, :1].copy())
    detects = [
        functools.partial(sobel_magnitude, gray),
        functools.partial(sobel_magnitude_rgb, ImageBuffer(arr)),
        *(functools.partial(frei_chen, gray, subset) for subset in FreiChenSubset),
    ]
    # Three padded RGB rows: 3-row strips in RGB and 9-row strips in gray,
    # so every frame has at least 4 strips to split.
    monkeypatch.setattr(image, "_STRIP_BYTES", 3 * (w + 2) * 3 * 8)
    for detect, border in itertools.product(detects, BorderPolicy):
        outputs = []
        for cpus in (1, 2, 4):
            _use_cpus(monkeypatch, cpus)
            outputs.append(detect(border).samples)
        one = outputs[0]
        assert np.isnan(one).any() and not np.isnan(one).all()
        numbers = ~np.isnan(one)
        for got in outputs[1:]:
            assert np.array_equal(got, one, equal_nan=True)
            assert got[numbers].tobytes() == one[numbers].tobytes()


def _check_range_error(monkeypatch, where, detect, rows_name, fault_name):
    """A fault in the caller's or a worker's range reaches the caller only
    after every range has ended, on a pool of the call's own or the run's."""
    monkeypatch.setattr(image, "_STRIP_BYTES", 1)
    _use_cpus(monkeypatch, 3)
    rows, fault = getattr(detectors, rows_name), getattr(detectors, fault_name)
    ended = []

    def recording(*args):
        try:
            rows(*args)
        finally:
            ended.append(args[-2:])

    def failing(*args, **kwargs):
        if (threading.current_thread() is threading.main_thread()) == (where == "caller"):
            raise RuntimeError(f"fault in the {where}")
        return fault(*args, **kwargs)

    monkeypatch.setattr(detectors, rows_name, recording)
    monkeypatch.setattr(detectors, fault_name, failing)
    before = threading.active_count()
    for scope in (contextlib.nullcontext(), image._run_scope()):
        ended.clear()
        with scope:
            with pytest.raises(RuntimeError, match=f"fault in the {where}"):
                detect(ImageBuffer(np.zeros((30, 9, 1))))
            assert len(ended) == 3
        assert threading.active_count() == before


@pytest.mark.parametrize("where", ["worker", "caller"])
def test_frei_chen_range_error_reaches_the_caller_after_every_range_ends(monkeypatch, where):
    detect = functools.partial(frei_chen, subset=FreiChenSubset.EDGE)
    _check_range_error(monkeypatch, where, detect, "_frei_chen_rows", "_flat_windows")


@pytest.mark.parametrize("where", ["worker", "caller"])
def test_sobel_range_error_reaches_the_caller_after_every_range_ends(monkeypatch, where):
    _check_range_error(monkeypatch, where, sobel_magnitude, "_sobel_rows", "_channel_max")


def test_frei_chen_runs_one_range_on_one_cpu(monkeypatch):
    monkeypatch.setattr(image, "_STRIP_BYTES", 1)
    _use_cpus(monkeypatch, 1)
    calls = _record_ranges(monkeypatch)
    frei_chen(ImageBuffer(np.zeros((30, 9, 1))), FreiChenSubset.EDGE)
    assert calls == [((0, 30), threading.main_thread())]


def test_small_frei_chen_frames_stay_one_range(monkeypatch):
    # Starting a thread would cost more than these frames' second range saves.
    _use_cpus(monkeypatch, 2)
    for side in (64, 96, 128):
        assert image._row_ranges(side, _frei_chen_strip_rows(side)) == [(0, side)]
    assert len(image._row_ranges(480, _frei_chen_strip_rows(640))) == 2


def test_one_range_frames_build_no_executor(monkeypatch):
    # The batch CLI's small images run directly on the caller's thread.
    _use_cpus(monkeypatch, 2)

    def no_pool(*args, **kwargs):
        raise AssertionError("a one-range frame built an executor")

    monkeypatch.setattr(image, "ThreadPoolExecutor", no_pool)
    rng = np.random.default_rng(43)
    for side in (64, 96):
        gray = ImageBuffer(rng.random((side, side, 1)))
        rgb = ImageBuffer(rng.random((side, side, 3)))
        frei_chen(gray, FreiChenSubset.EDGE_AND_LINE)
        sobel_magnitude(gray)
        sobel_magnitude_rgb(rgb)
        for img, kernel_side in itertools.product((gray, rgb), (3, 7)):
            kernels.correlate(img, Kernel(np.ones((kernel_side, kernel_side))), normalize=True)
    # The batch CLI's 128x128 RGB image is one strip of the strip budget.
    rgb = ImageBuffer(rng.random((128, 128, 3)))
    sobel_magnitude_rgb(rgb)
    kernels.correlate(rgb, Kernel(np.ones((3, 3))), normalize=True)


def test_detectors_agree_with_the_independent_references():
    # The detectors, also as the frame loop runs them, against references
    # that correlate each mask over the whole frame and combine on their own,
    # so a fault in a detector's combine shows here.
    from kernelbench.pipeline import PIPELINE_FREI_CHEN_SUBSET, DetectorKind, _process_frame

    def agree(actual, reference):
        shape = (actual.height, actual.width)
        np.testing.assert_allclose(
            actual.samples.reshape(shape), reference.reshape(shape), rtol=1e-12, atol=1e-12
        )

    clamp = BorderPolicy.CLAMP_TO_EDGE
    synthetic = next_frame(SyntheticSource(24, 18, FramePattern.MOVING_GRADIENT, seed=9), 0)
    noise = ImageBuffer(np.random.default_rng(36).random((13, 11, 3)))
    for frame in (synthetic, noise):
        gray = to_luminance(frame)
        agree(_process_frame(frame, DetectorKind.SOBEL), _sobel_tap_loop(frame.samples, clamp))
        agree(sobel_magnitude(gray), _sobel_tap_loop(gray.samples, clamp))
        agree(
            _process_frame(frame, DetectorKind.FREI_CHEN),
            _frei_chen_frame_sized(gray.samples, PIPELINE_FREI_CHEN_SUBSET, clamp),
        )
        for subset in FreiChenSubset:
            agree(frei_chen(gray, subset), _frei_chen_frame_sized(gray.samples, subset, clamp))


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
