"""Independent reference results for the benchmark's output checks.

Everything here is written from the definitions, not from the engine: the
correlation is a plain direct summation over every tap in row-major order,
with no positive/negative tap split, no strips and no import of
``kernelbench`` internals. The Sobel and Frei-Chen masks are spelled out
again from their textbook definitions. Results therefore differ from the
engine only in float summation order, which the checks allow for with the
same ``rtol=1e-12, atol=1e-12`` the package's own engine-agreement test uses.

Arrays are processed one channel at a time so that the oracle's peak memory
stays below the engine's on the same frame, which keeps ``peak_rss_mb`` a
measure of the program rather than of its checker.
"""

from __future__ import annotations

import math

import numpy as np

RTOL = 1e-12
ATOL = 1e-12

SOBEL_GX = np.array([[-1.0, -2.0, -1.0], [0.0, 0.0, 0.0], [1.0, 2.0, 1.0]])
SOBEL_GY = SOBEL_GX.T.copy()

_R2 = math.sqrt(2.0)
# Frei & Chen (1977): G1..G4 edge basis, G5..G8 line basis, G9 average.
FREI_CHEN = (
    np.array([[1.0, _R2, 1.0], [0.0, 0.0, 0.0], [-1.0, -_R2, -1.0]]) / (2.0 * _R2),
    np.array([[1.0, 0.0, -1.0], [_R2, 0.0, -_R2], [1.0, 0.0, -1.0]]) / (2.0 * _R2),
    np.array([[0.0, -1.0, _R2], [1.0, 0.0, -1.0], [-_R2, 1.0, 0.0]]) / (2.0 * _R2),
    np.array([[_R2, -1.0, 0.0], [-1.0, 0.0, 1.0], [0.0, 1.0, -_R2]]) / (2.0 * _R2),
    np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, -1.0], [0.0, 1.0, 0.0]]) / 2.0,
    np.array([[-1.0, 0.0, 1.0], [0.0, 0.0, 0.0], [1.0, 0.0, -1.0]]) / 2.0,
    np.array([[1.0, -2.0, 1.0], [-2.0, 4.0, -2.0], [1.0, -2.0, 1.0]]) / 6.0,
    np.array([[-2.0, 1.0, -2.0], [1.0, 4.0, 1.0], [-2.0, 1.0, -2.0]]) / 6.0,
    np.ones((3, 3)) / 3.0,
)
FREI_CHEN_SUBSETS = {"edge": range(0, 4), "line": range(4, 8), "both": range(0, 8)}
FLAT_EPSILON = 1e-12


def correlate_plane(plane: np.ndarray, kernel: np.ndarray, border: str = "clamp") -> np.ndarray:
    """Direct-summation correlation of one (h, w) plane; kernel laid as printed."""
    r = kernel.shape[0] // 2
    padded = np.pad(plane, r, mode="edge" if border == "clamp" else "constant")
    h, w = plane.shape
    out = np.zeros((h, w))
    for dy in range(kernel.shape[0]):
        for dx in range(kernel.shape[1]):
            out += kernel[dy, dx] * padded[dy : dy + h, dx : dx + w]
    return out


def correlate(samples: np.ndarray, kernel: np.ndarray, border: str = "clamp",
              normalize: bool = False) -> np.ndarray:
    """Per-channel correlation of an (h, w, c) array; normalize divides by a guarded sum."""
    weight = 1.0
    if normalize:
        weight = math.fsum(kernel.ravel())
        if weight <= 0.0:
            weight = 1.0
    planes = [correlate_plane(samples[:, :, c], kernel, border) / weight
              for c in range(samples.shape[2])]
    return np.stack(planes, axis=2)


def box_chain(samples: np.ndarray, repeat: int) -> np.ndarray:
    """``repeat`` sequential normalized 3x3 box passes under clamp-to-edge."""
    box = np.ones((3, 3))
    out = samples
    for _ in range(repeat):
        out = correlate(out, box, normalize=True)
    return out


def sobel(planes) -> np.ndarray:
    """Per-channel Sobel magnitude, max over channels, as an (h, w, 1) array.

    ``planes`` yields the (h, w) channels one at a time, so a caller can
    generate each channel only when it is needed.
    """
    out = None
    for plane in planes:
        gx = correlate_plane(plane, SOBEL_GX)
        gy = correlate_plane(plane, SOBEL_GY)
        gx *= gx
        gy *= gy
        gx += gy
        del gy
        np.sqrt(gx, out=gx)
        out = gx if out is None else np.maximum(out, gx, out=out)
    return out[:, :, np.newaxis]


def frei_chen(gray: np.ndarray, subset: str) -> np.ndarray:
    """sqrt(M / S) of an (h, w, 1) array, 0 where S < FLAT_EPSILON."""
    plane = gray[:, :, 0]
    chosen = set(FREI_CHEN_SUBSETS[subset])
    numerator = np.zeros(plane.shape)
    total = np.zeros(plane.shape)
    for index, mask in enumerate(FREI_CHEN):
        squared = correlate_plane(plane, mask) ** 2
        total += squared
        if index in chosen:
            numerator += squared
    flat = total < FLAT_EPSILON
    ratio = np.where(flat, 0.0, numerator / np.where(flat, 1.0, total))
    return np.sqrt(ratio)[:, :, np.newaxis]


def luminance(rgb: np.ndarray) -> np.ndarray:
    """Rec. 601 luma; the grouping keeps (1, 1, 1) at exactly 1.0."""
    gray = rgb[:, :, 0] * 0.299 + (rgb[:, :, 1] * 0.587 + rgb[:, :, 2] * 0.114)
    return gray[:, :, np.newaxis]


def gradient_planes(width: int, height: int, phase: int):
    """Channels of the moving-gradient frame: red ramps along x, green along y, blue 0.5."""
    yield np.broadcast_to(((np.arange(width) + phase) % width) / width, (height, width))
    yield np.broadcast_to((((np.arange(height) + phase) % height) / height)[:, np.newaxis],
                          (height, width))
    yield np.full((height, width), 0.5)


def gradient_frame(width: int, height: int, phase: int) -> np.ndarray:
    """The moving-gradient frame as one (h, w, 3) array."""
    return np.stack(list(gradient_planes(width, height, phase)), axis=2)


def encode(samples: np.ndarray) -> np.ndarray:
    """Bytes of a float image: clamp to [0, 1], scale by 255, round half up."""
    return np.floor(np.clip(samples, 0.0, 1.0) * 255.0 + 0.5).astype(np.int16)


def flat_mask(samples: np.ndarray) -> np.ndarray:
    """Pixels whose clamped 3x3 neighbourhood is constant in every channel."""
    padded = np.pad(samples, ((1, 1), (1, 1), (0, 0)), mode="edge")
    h, w = samples.shape[0], samples.shape[1]
    flat = np.ones((h, w), dtype=bool)
    for dy in range(3):
        for dx in range(3):
            flat &= np.all(padded[dy : dy + h, dx : dx + w] == samples, axis=2)
    return flat


def float_mismatch(got: np.ndarray, want: np.ndarray) -> str | None:
    """Why a float output fails its check, or None when it agrees within RTOL/ATOL."""
    if got.shape != want.shape:
        return f"shape {got.shape} != expected {want.shape}"
    if not np.allclose(got, want, rtol=RTOL, atol=ATOL):
        worst = float(np.max(np.abs(got - want)))
        return f"differs from the oracle by up to {worst:.3g}"
    return None


def flat_nonzero(got: np.ndarray, flat: np.ndarray) -> int:
    """Pixels of ``flat`` where the output is not exactly 0.0 (PAPER.md's flat-input guarantee)."""
    return int(np.count_nonzero(got[:, :, 0][flat]))


def byte_mismatch(got: np.ndarray, want: np.ndarray, skip: np.ndarray | None = None) -> str | None:
    """Why encoded bytes fail their check (more than 1 away), or None."""
    if got.shape != want.shape:
        return f"shape {got.shape} != expected {want.shape}"
    diff = np.abs(got.astype(np.int16) - want.astype(np.int16))
    if skip is not None:
        diff[skip] = 0
    if np.any(diff > 1):
        return f"{int(np.count_nonzero(diff > 1))} byte(s) more than 1 from the oracle"
    return None
