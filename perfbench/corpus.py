"""Seeded inputs: the raw RGB24 clip and the PNM corpus with its job list.

Every byte is a function of the seed, so the same seed writes byte-identical
files. The seed changes pixel content, kernel coefficients, thresholds and
subsets, but never the sizes, kernel sides or job kinds: per-run cost is the
same for every seed, so runs with different seeds measure the same work.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

CLIP_WIDTH, CLIP_HEIGHT, CLIP_FRAMES = 640, 480, 8

# (width, height, channels) of each corpus image, small to large.
IMAGE_SHAPES = (
    (64, 64, 1), (64, 64, 3), (96, 80, 1), (128, 128, 3),
    (200, 150, 1), (320, 240, 3), (640, 480, 1), (1280, 720, 3),
)

# The job list: (kind, image index, parameter). For convolve the parameter is
# the kernel side, for gen-shader the repeat count; otherwise unused.
JOB_TEMPLATE = (
    ("convolve", 0, 3), ("sobel", 0, 0), ("freichen", 1, 0), ("gen-shader", 0, 1),
    ("convolve", 1, 5), ("sobel", 1, 0), ("freichen", 0, 0), ("gen-shader", 0, 8),
    ("convolve", 2, 7), ("sobel", 2, 0), ("freichen", 3, 0), ("gen-shader", 0, 64),
    ("convolve", 3, 3), ("sobel", 3, 0), ("freichen", 2, 0), ("gen-shader", 0, 2),
    ("convolve", 4, 5), ("sobel", 4, 0), ("freichen", 5, 0), ("gen-shader", 0, 16),
    ("convolve", 5, 7), ("sobel", 5, 0), ("freichen", 4, 0), ("gen-shader", 0, 32),
    ("convolve", 6, 3), ("sobel", 6, 0), ("freichen", 7, 0), ("convolve", 7, 5),
    ("sobel", 7, 0), ("freichen", 6, 0), ("convolve", 3, 7), ("convolve", 5, 3),
)


def scene(rng: np.random.Generator, width: int, height: int, channels: int) -> np.ndarray:
    """A uint8 (h, w, c) image of flat patches with step edges and a noise block.

    Flat patches exercise the detectors' exact-zero guarantee and Frei-Chen's
    flat guard; edges and noise make the divide and every tap matter.
    """
    img = np.empty((height, width, channels), dtype=np.uint8)
    img[:] = rng.integers(0, 256, size=channels, dtype=np.uint8)
    for _ in range(6):
        y0, x0 = rng.integers(0, height), rng.integers(0, width)
        y1 = min(height, y0 + int(rng.integers(height // 8 + 1, height // 2 + 2)))
        x1 = min(width, x0 + int(rng.integers(width // 8 + 1, width // 2 + 2)))
        img[y0:y1, x0:x1] = rng.integers(0, 256, size=channels, dtype=np.uint8)
    ny, nx = height // 4, width // 4
    y0, x0 = rng.integers(0, height - ny + 1), rng.integers(0, width - nx + 1)
    img[y0 : y0 + ny, x0 : x0 + nx] = rng.integers(0, 256, size=(ny, nx, channels), dtype=np.uint8)
    return img


def write_clip(path: Path, seed: int) -> np.ndarray:
    """Write CLIP_FRAMES RGB24 frames to path; return them as (n, h, w, 3) uint8."""
    rng = np.random.default_rng([seed, 1])
    frames = np.stack([scene(rng, CLIP_WIDTH, CLIP_HEIGHT, 3) for _ in range(CLIP_FRAMES)])
    path.write_bytes(frames.tobytes())
    return frames


def write_pnm(path: Path, pixels: np.ndarray) -> None:
    magic = b"P5" if pixels.shape[2] == 1 else b"P6"
    header = magic + f"\n{pixels.shape[1]} {pixels.shape[0]}\n255\n".encode("ascii")
    path.write_bytes(header + pixels.tobytes())


_PNM_HEADER = re.compile(rb"(P[56])\s+(\d+)\s+(\d+)\s+255\s")


def read_pnm(path: Path) -> np.ndarray:
    """Parse a comment-free binary P5/P6 file as written by the program."""
    data = path.read_bytes()
    header = _PNM_HEADER.match(data)
    if header is None:
        raise ValueError(f"{path} is not an 8-bit binary PGM/PPM")
    magic, width, height = header.groups()
    body = data[header.end() :]
    channels = 1 if magic == b"P5" else 3
    shape = (int(height), int(width), channels)
    if len(body) != shape[0] * shape[1] * channels:
        raise ValueError(f"{path} holds {len(body)} pixel bytes for shape {shape}")
    return np.frombuffer(body, dtype=np.uint8).reshape(shape)


def _kernel(rng: np.random.Generator, side: int) -> np.ndarray:
    """Random signs over a few repeated magnitudes, so tap ordering matters."""
    magnitudes = rng.choice([0.0, 0.25, 0.5, 1.0, 2.0], size=(side, side))
    return magnitudes * rng.choice([-1.0, 1.0], size=(side, side))


def kernel_spec(kernel: np.ndarray) -> str:
    """The CLI's kernel text: side, then row-major coefficients (exact repr)."""
    return " ".join([str(kernel.shape[0])] + [repr(float(v)) for v in kernel.ravel()])


@dataclass
class Job:
    """One batch job: the CLI arguments and what the checker needs."""

    kind: str
    argv: list
    image: int
    outputs: list
    params: dict = field(default_factory=dict)


@dataclass
class Corpus:
    images: list
    paths: list
    jobs: list


def write_corpus(directory: Path, seed: int) -> Corpus:
    """Write the seeded images and return them with the job list (also saved as jobs.json)."""
    rng = np.random.default_rng([seed, 2])
    images, paths = [], []
    for index, (width, height, channels) in enumerate(IMAGE_SHAPES):
        pixels = scene(rng, width, height, channels)
        path = directory / f"img{index}.{'pgm' if channels == 1 else 'ppm'}"
        write_pnm(path, pixels)
        images.append(pixels)
        paths.append(path)
    jobs = []
    for number, (kind, image, param) in enumerate(JOB_TEMPLATE):
        src = str(paths[image])
        out = directory / f"out{number}.{'ppm' if kind == 'convolve' and images[image].shape[2] == 3 else 'pgm'}"
        if kind == "convolve":
            kernel = _kernel(rng, param)
            border = str(rng.choice(["clamp", "zero"]))
            normalize = bool(rng.integers(0, 2))
            argv = ["convolve", "--in", src, "--out", str(out), "--kernel", kernel_spec(kernel),
                    "--border", border] + (["--normalize"] if normalize else [])
            params = {"kernel": kernel, "border": border, "normalize": normalize}
        elif kind in ("sobel", "freichen"):
            threshold = round(float(rng.uniform(0.05, 0.6)), 4) if number % 3 else None
            argv = [kind, "--in", src, "--out", str(out)]
            params = {"threshold": threshold}
            if kind == "freichen":
                # Rotate rather than draw, so every subset runs for every seed.
                params["subset"] = ("edge", "line", "both")[(number + seed) % 3]
                argv += ["--subset", params["subset"]]
            if threshold is not None:
                argv += ["--threshold", repr(threshold)]
        else:
            kernel = _kernel(rng, 3)
            normalize = bool(rng.integers(0, 2))
            stem = directory / f"shader{number}"
            argv = ["gen-shader", "--kernel", kernel_spec(kernel), "--repeat", str(param),
                    "--out", str(stem)] + (["--normalize"] if normalize else [])
            params = {"kernel": kernel, "repeat": param, "normalize": normalize}
            out = stem
        outputs = ([Path(f"{out}.vert"), Path(f"{out}.frag"), Path(f"{out}.json")]
                   if kind == "gen-shader" else [out])
        jobs.append(Job(kind, argv, image, outputs, params))
    prefix = f"{directory}{os.sep}"
    listing = [{"kind": j.kind, "argv": [a.replace(prefix, "") for a in j.argv]} for j in jobs]
    (directory / "jobs.json").write_text(json.dumps(listing, indent=1) + "\n")
    return Corpus(images, paths, jobs)
