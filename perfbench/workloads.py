"""The four benchmark workloads: their inputs, their units of work and their checks.

A *unit* is what the benchmark times as one call into the package: one
``pipeline.run`` call for the frame workloads, one ``cli.main`` call for the
batch. An *item* is what latency is reported for: a frame (acquisition plus
processing, as ``RunReport.per_frame`` records it) or a batch job (read,
process, write). Every item is checked against ``oracle`` outside the timed
part; an item that raised, came back short, or failed its check is failed.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import corpus
import oracle

BOX_REPEAT = 50


@dataclass
class UnitResult:
    """Timed wall and input megapixels of one unit; per item: id, latency, failure.

    ``failures`` holds None for an item that passed. ``flat_nonzero`` counts
    output pixels on flat neighbourhoods that are not exactly 0.0.
    """

    wall_ns: int
    mpix: float
    items: list = field(default_factory=list)
    latencies_ms: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    flat_nonzero: int = 0


@contextlib.contextmanager
def capturing(module, attr: str):
    """Keep a reference to every value ``module.attr`` returns, for the oracle check.

    This is the only function the untraced run replaces: the frame loop
    returns timings, not frames, so the check needs the detector's or chain's
    output. It costs one Python call per frame.
    """
    original = getattr(module, attr)
    sink: list = []

    @functools.wraps(original)
    def keep(*args, **kwargs):
        out = original(*args, **kwargs)
        sink.append(out)
        return out

    setattr(module, attr, keep)
    try:
        yield sink
    finally:
        setattr(module, attr, original)


def _failure() -> str:
    return traceback.format_exc(limit=-1).strip().splitlines()[-1]


class FrameWorkload:
    """A frame source and a work item pushed through ``pipeline.run``."""

    name = ""
    width = height = 0
    frames_per_unit = 1
    cycle = 1  # units come in whole multiples of this
    output_attr = ""  # the pipeline attribute whose return value is the frame's output
    calls_per_frame: Counter = Counter()

    def __init__(self, kb) -> None:
        self.kb = kb
        self.seed = 0

    def setup(self, directory: Path, seed: int) -> None:
        self.seed = seed

    def source(self, unit: int):
        raise NotImplementedError

    def work(self):
        raise NotImplementedError

    def expected(self, unit: int, frame: int) -> tuple[np.ndarray, np.ndarray | None]:
        """Oracle output for a frame, and the mask of flat pixels that must be 0.0."""
        raise NotImplementedError

    def measuring(self):
        return capturing(self.kb.pipeline, self.output_attr)

    def calls(self, unit: int) -> Counter:
        """Wrapped calls each frame of a unit must make."""
        return self.calls_per_frame

    def warmup(self) -> None:
        self.kb.pipeline.run(self.source(0), self.work(), frames=self.frames_per_unit)

    def run_unit(self, unit: int, outputs: list) -> UnitResult:
        outputs.clear()
        pipeline = self.kb.pipeline
        source, work = self.source(unit), self.work()
        items = [f"{unit}:{j}" for j in range(self.frames_per_unit)]
        start = pipeline.now()
        try:
            report = pipeline.run(source, work, frames=self.frames_per_unit)
        except Exception:
            reason = _failure()
            return UnitResult(pipeline.now() - start, 0.0, items, [], [reason] * len(items))
        wall = pipeline.now() - start
        done = report.per_frame
        result = UnitResult(wall, len(done) * self.width * self.height / 1e6, items,
                            [f.acquisition_ms + f.processing_ms for f in done])
        for j in range(self.frames_per_unit):
            if report.partial or j >= len(done):
                result.failures.append("frame missing from the report")
            elif j >= len(outputs):
                result.failures.append("no output produced")
            else:
                want, flat = self.expected(unit, j)
                result.failures.append(oracle.float_mismatch(outputs[j].samples, want))
                if flat is not None:
                    result.flat_nonzero += oracle.flat_nonzero(outputs[j].samples, flat)
        return result


class SyntheticWorkload(FrameWorkload):
    """Moving-gradient frames; each unit starts at its own phase so frames differ."""

    def phase(self, unit: int) -> int:
        # The prime factor keeps different seeds' phase sequences apart.
        return self.seed * 7919 + unit * self.frames_per_unit

    def source(self, unit: int):
        return self.kb.pipeline.SyntheticSource(self.width, self.height, seed=self.phase(unit))


class Sobel1080p(SyntheticWorkload):
    name = "sobel-1080p"
    width, height = 1920, 1080
    output_attr = "sobel_magnitude_rgb"
    calls_per_frame = Counter({"pipeline.next_frame": 1, "detectors.sobel_magnitude_rgb": 1,
                               "kernels.pad_samples": 1})

    def work(self):
        return self.kb.pipeline.DetectorKind.SOBEL

    def expected(self, unit, frame):
        planes = oracle.gradient_planes(self.width, self.height, self.phase(unit) + frame)
        return oracle.sobel(planes), None


class BoxChainQvga(SyntheticWorkload):
    name = "box-chain-qvga"
    width, height = 320, 240
    frames_per_unit = 2
    output_attr = "execute_chain_reference"
    calls_per_frame = Counter({"pipeline.next_frame": 1, "shadergen.execute_chain_reference": 1,
                               "kernels.correlate": BOX_REPEAT, "kernels.pad_samples": BOX_REPEAT})

    def work(self):
        shadergen = self.kb.shadergen
        box = shadergen.ChainPass(self.kb.bench.SMOOTHING_KERNEL, normalize=True, repeat=BOX_REPEAT)
        return shadergen.ChainSpec((box,))

    def expected(self, unit, frame):
        frame = oracle.gradient_frame(self.width, self.height, self.phase(unit) + frame)
        return oracle.box_chain(frame, BOX_REPEAT), None


class FreiChenRawVga(FrameWorkload):
    """The seeded RGB24 clip, read back through ``RawStreamSource``.

    Every unit reads the whole clip from frame 0, so after the first read the
    file comes from the page cache: this measures decode, not disk.
    """

    name = "freichen-raw-vga"
    width, height = corpus.CLIP_WIDTH, corpus.CLIP_HEIGHT
    frames_per_unit = corpus.CLIP_FRAMES
    output_attr = "frei_chen"
    calls_per_frame = Counter({"pipeline.next_frame": 1, "image.decode_bytes": 1,
                               "image.to_luminance": 1, "detectors.frei_chen": 1,
                               "kernels.pad_samples": 1})

    def setup(self, directory, seed):
        super().setup(directory, seed)
        self.clip = directory / "clip.rgb"
        self.frames = corpus.write_clip(self.clip, seed)
        self._expected = {}

    def source(self, unit):
        return self.kb.pipeline.RawStreamSource(str(self.clip), self.width, self.height)

    def work(self):
        return self.kb.pipeline.DetectorKind.FREI_CHEN

    def expected(self, unit, frame):
        # Every unit replays the same clip, so each frame's reference is computed once.
        if frame not in self._expected:
            rgb = self.frames[frame] / 255.0
            gray = oracle.luminance(rgb)
            self._expected[frame] = (oracle.frei_chen(gray, "both"), oracle.flat_mask(gray))
        return self._expected[frame]


class PnmBatch:
    """The seeded PGM/PPM corpus run job by job through ``cli.main`` in-process."""

    name = "pnm-batch"
    frames_per_unit = 1
    cycle = len(corpus.JOB_TEMPLATE)

    def __init__(self, kb) -> None:
        self.kb = kb
        self._digests: dict = {}

    def setup(self, directory: Path, seed: int) -> None:
        self.corpus = corpus.write_corpus(directory, seed)
        self._digests = {}

    def job(self, unit: int) -> corpus.Job:
        return self.corpus.jobs[unit % len(self.corpus.jobs)]

    def measuring(self):
        return contextlib.nullcontext([])

    def warmup(self) -> None:
        for unit in range(4):
            self._call(self.job(unit))

    def _call(self, job) -> tuple[int, int, str, str]:
        out, err = io.StringIO(), io.StringIO()
        now = self.kb.pipeline.now
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = now()
            code = self.kb.cli.main(job.argv)
            wall = now() - start
        return code, wall, out.getvalue(), err.getvalue()

    def calls(self, unit: int) -> Counter:
        """Wrapped calls the unit's job must make, read off the CLI's command bodies."""
        job = self.job(unit)
        calls = Counter({"cli.main": 1})
        if job.kind == "gen-shader":
            calls.update(["kernels.parse_kernel", "shadergen.generate_program",
                          "shadergen.write_program"])
            return calls
        rgb = self.corpus.images[job.image].shape[2] == 3
        calls.update(["image.read_pnm", "image.decode_bytes", "kernels.pad_samples",
                      "image.write_pnm", "image.encode_bytes"])
        if job.kind == "convolve":
            calls.update(["kernels.parse_kernel", "kernels.correlate"])
        elif job.kind == "sobel":
            calls["detectors.sobel_magnitude_rgb" if rgb else "detectors.sobel_magnitude"] += 1
        else:
            calls.update(["detectors.frei_chen"] + (["image.to_luminance"] if rgb else []))
        if job.params.get("threshold") is not None:
            calls["detectors.threshold"] += 1
        return calls

    def run_unit(self, unit: int, outputs: list) -> UnitResult:
        job = self.job(unit)
        for path in job.outputs:
            path.unlink(missing_ok=True)
        pixels = self.corpus.images[job.image]
        mpix = 0.0 if job.kind == "gen-shader" else pixels.shape[0] * pixels.shape[1] / 1e6
        try:
            code, wall, stdout, stderr = self._call(job)
        except Exception:
            return UnitResult(0, 0.0, [str(unit)], [], [_failure()])
        result = UnitResult(wall, mpix, [str(unit)], [wall / 1e6])
        if code != 0:
            result.failures.append(f"exit code {code}: {stderr.strip()}")
            return result
        try:
            result.failures.append(self.check(job, stdout))
        except (OSError, ValueError, KeyError) as exc:
            result.failures.append(f"unreadable output: {exc!r}")
        return result

    def check(self, job, stdout: str) -> str | None:
        if job.kind == "gen-shader":
            return self._check_shader(job, stdout)
        samples = self.corpus.images[job.image] / 255.0
        got = corpus.read_pnm(job.outputs[0])
        params = job.params
        if job.kind == "convolve":
            want = oracle.correlate(samples, params["kernel"], params["border"], params["normalize"])
            return oracle.byte_mismatch(got, oracle.encode(want))
        if job.kind == "sobel":
            value = oracle.sobel(samples[:, :, c] for c in range(samples.shape[2]))
        else:
            gray = oracle.luminance(samples) if samples.shape[2] == 3 else samples
            value = oracle.frei_chen(gray, params["subset"])
        if np.any(got[oracle.flat_mask(samples)] != 0):
            return "nonzero output byte on a flat neighbourhood"
        t = params["threshold"]
        if t is None:
            return oracle.byte_mismatch(got, oracle.encode(value))
        # Pixels within rounding distance of the threshold may fall either side.
        return oracle.byte_mismatch(got, np.where(value > t, 255, 0), np.abs(value - t) <= 1e-9)

    def _check_shader(self, job, stdout: str) -> str | None:
        params = job.params
        if stdout.split() != [str(p) for p in job.outputs]:
            return f"printed {stdout.split()}, expected the three output paths"
        blobs = [p.read_bytes() for p in job.outputs]
        digest = hashlib.sha256(b"\0".join(blobs)).hexdigest()
        first = self._digests.setdefault(tuple(job.argv), digest)
        if digest != first:
            return "shader output differs from this run's earlier output for the same job"
        fragment, meta = blobs[1].decode("ascii"), json.loads(blobs[2])
        if fragment.count("colorSum =") != params["repeat"]:
            return f"fragment unrolls {fragment.count('colorSum =')} stencil blocks, expected {params['repeat']}"
        if ("kernelWeight" in fragment) != params["normalize"]:
            return "fragment normalization does not match --normalize"
        (meta_pass,) = meta["passes"]
        if meta_pass["u_kernel_values"] != params["kernel"].ravel().tolist():
            return "sidecar u_kernel_values differ from the kernel"
        if meta_pass["repeat"] != params["repeat"] or meta_pass["normalize"] != params["normalize"]:
            return "sidecar repeat/normalize differ from the job"
        return None


WORKLOADS = {w.name: w for w in (Sobel1080p, BoxChainQvga, FreiChenRawVga, PnmBatch)}
