"""Acceptance gate: one test per shipped guarantee, at its stated tolerance.

Each test prints a single PASS line when its criterion holds, so a verbose
run reads as a per-criterion checklist. Tolerances here are contractual;
do not loosen them to make a failing build green.
"""

import pathlib
import time

import numpy as np

from kernelbench import (
    BorderPolicy,
    ChainPass,
    ChainSpec,
    FreiChenSubset,
    ImageBuffer,
    Kernel,
    RunReport,
    correlate,
    frei_chen,
    generate_fragment_shader,
    generate_program,
    sobel_magnitude,
    sobel_magnitude_rgb,
    threshold,
    write_program,
)
from kernelbench.bench import scenario_operators, scenario_resolutions
from kernelbench.kernels import FREI_CHEN, compose
from kernelbench.pipeline import now, run, SyntheticSource, DetectorKind
from kernelbench.shadergen import execute_chain_reference

WORKED_MATRIX = np.array(
    [
        [10, 52, 63, 42, 74],
        [86, 24, 45, 28, 82],
        [62, 91, 17, 24, 2],
        [49, 19, 18, 36, 75],
        [41, 15, 78, 17, 14],
    ],
    dtype=np.float64,
)
WORKED_KERNEL = Kernel(np.array([[0, 1, 0], [0, 0, 1], [0, 0, 0]], dtype=np.float64))
IDENTITY = Kernel(np.array([[0, 0, 0], [0, 1, 0], [0, 0, 0]], dtype=np.float64))


def test_criterion_01_worked_example_is_exact():
    out = correlate(ImageBuffer(WORKED_MATRIX), WORKED_KERNEL).samples[:, :, 0]
    assert out[1, 2] == 91.0
    assert np.array_equal(out, np.round(out))
    print("PASS criterion 1: worked 5x5 correlation yields exactly 91 at the 45 pixel")


def test_criterion_02_frei_chen_masks_are_orthonormal():
    flat = np.stack([m.coefficients.ravel() for m in FREI_CHEN])
    gram = flat @ flat.T
    np.testing.assert_allclose(np.diag(gram), np.ones(9), atol=1e-6)
    off_diagonal = gram - np.diag(np.diag(gram))
    assert np.max(np.abs(off_diagonal)) <= 1e-6
    print("PASS criterion 2: nine masks orthonormal within 1e-6")


def test_criterion_03_sequential_matches_composed_kernel():
    rng = np.random.default_rng(1003)
    started = time.perf_counter()
    for _ in range(100):
        image = ImageBuffer(rng.random((16, 16, 1)))
        k1 = Kernel(rng.uniform(-1.0, 1.0, (3, 3)))
        k2 = Kernel(rng.uniform(-1.0, 1.0, (3, 3)))
        sequential = correlate(correlate(image, k1), k2).samples
        composed = correlate(image, compose(k1, k2)).samples
        np.testing.assert_allclose(
            sequential[2:14, 2:14], composed[2:14, 2:14], atol=1e-5
        )
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    print(f"PASS criterion 3: 100 compose-equivalence checks in {elapsed:.2f}s")


def test_criterion_04_codegen_fidelity(tmp_path):
    rng = np.random.default_rng(1004)
    image = ImageBuffer(rng.random((12, 10, 3)))
    for normalize in (False, True):
        kernel = Kernel(rng.uniform(0.1, 1.0, (3, 3)))
        chain = ChainSpec((ChainPass(kernel, normalize=normalize),))
        via_chain = execute_chain_reference(image, chain).samples
        direct = correlate(image, kernel, BorderPolicy.CLAMP_TO_EDGE, normalize).samples
        assert np.array_equal(via_chain, direct)

    chain = ChainSpec(
        (
            ChainPass(WORKED_KERNEL, normalize=False, repeat=2),
            ChainPass(IDENTITY, normalize=True),
        )
    )
    first_dir = tmp_path / "first"
    second_dir = tmp_path / "second"
    first_dir.mkdir()
    second_dir.mkdir()
    first = [pathlib.Path(p) for p in write_program(generate_program(chain), first_dir / "chain")]
    second = [pathlib.Path(p) for p in write_program(generate_program(chain), second_dir / "chain")]
    assert [p.name for p in first] == [p.name for p in second]
    for a, b in zip(first, second):
        assert a.read_bytes() == b.read_bytes()

    golden = pathlib.Path(__file__).parent / "golden" / "identity.frag"
    src = generate_fragment_shader(ChainPass(IDENTITY, normalize=True))
    assert src == golden.read_text()
    print("PASS criterion 4: reference bit-identity, byte-determinism, golden match")


def test_criterion_05_cpu_time_scales_linearly_with_resolution():
    started = time.perf_counter()
    report = scenario_resolutions(frames=120)
    elapsed = time.perf_counter() - started
    assert report.rows[0].label == "320x240"
    assert report.rows[3].label == "1920x1080"
    small = report.rows[0].report.mean_processing_ms
    large = report.rows[3].report.mean_processing_ms
    ratio = large / small
    assert 0.7 * 27.0 <= ratio <= 1.3 * 27.0, f"ratio {ratio:.1f} outside band"
    assert elapsed < 120.0
    print(
        f"PASS criterion 5: 1080p/QVGA processing ratio {ratio:.1f} "
        f"within [18.9, 35.1] in {elapsed:.1f}s"
    )


def test_criterion_06_chain_time_scales_with_repeat_count():
    started = time.perf_counter()
    report = scenario_operators(frames=6)
    elapsed = time.perf_counter() - started
    by_label = {row.label: row.report.mean_processing_ms for row in report.rows}
    ratio = by_label["500"] / by_label["2"]
    assert 0.5 * 250.0 <= ratio <= 1.5 * 250.0, f"ratio {ratio:.1f} outside band"
    assert elapsed < 180.0
    print(
        f"PASS criterion 6: repeat-500/repeat-2 time ratio {ratio:.1f} "
        f"within [125, 375] in {elapsed:.1f}s"
    )


def test_criterion_07_detector_properties():
    rng = np.random.default_rng(1007)
    for value in (0.0, 0.25, 1.0, 255.0):
        gray = ImageBuffer(np.full((9, 11, 1), value))
        assert np.all(sobel_magnitude(gray).samples == 0.0)
        rgb = ImageBuffer(np.full((9, 11, 3), value))
        assert np.all(sobel_magnitude_rgb(rgb).samples == 0.0)

    for _ in range(100):
        image = ImageBuffer(rng.random((16, 16, 1)))
        out = frei_chen(image, FreiChenSubset.EDGE_AND_LINE).samples
        assert out.min() >= 0.0
        assert out.max() <= 1.0

    base_arr = rng.random((12, 12, 1)) + 0.1
    base = frei_chen(ImageBuffer(base_arr), FreiChenSubset.EDGE).samples
    scaled = frei_chen(ImageBuffer(3.7 * base_arr), FreiChenSubset.EDGE).samples
    np.testing.assert_allclose(scaled, base, atol=1e-5)

    edges = ImageBuffer(rng.random((8, 8, 1)))
    for cutoff in (0.0, 0.3, 1.0):
        once = threshold(edges, cutoff)
        assert set(np.unique(once.samples)) <= {0.0, 1.0}
        twice = threshold(once, cutoff)
        assert np.array_equal(twice.samples, once.samples)
    print("PASS criterion 7: constant-zero, unit-interval, scale-invariance, threshold")


def test_criterion_08_reports_validate_and_clock_is_monotonic():
    source = SyntheticSource(32, 24, seed=8)
    for vsync in (60.0, 10_000.0):
        report = run(source, DetectorKind.SOBEL, frames=12, vsync_hz=vsync)
        assert RunReport.from_dict(report.to_dict()) == report
        total = report.mean_acquisition_ms + report.mean_processing_ms
        assert report.fps_capped == min(vsync, 1000.0 / total)
        ranked = sorted(s.processing_ms for s in report.per_frame)
        assert report.p50_processing_ms == ranked[max(1, -(-50 * 12 // 100)) - 1]
        assert report.p95_processing_ms == ranked[max(1, -(-95 * 12 // 100)) - 1]

    read = now
    previous = read()
    for _ in range(1_000_000):
        current = read()
        assert current >= previous
        previous = current
    print("PASS criterion 8: report invariants hold, 10^6 clock reads monotonic")
