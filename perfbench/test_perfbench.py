"""Tests of the benchmark itself: inputs, oracle, checks and span recorder.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import corpus  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
from spans import Recorder, layer_stats  # noqa: E402

from kernelbench import ImageBuffer, Kernel, correlate  # noqa: E402
from kernelbench.detectors import FreiChenSubset, frei_chen, sobel_magnitude_rgb  # noqa: E402
from kernelbench.image import to_luminance  # noqa: E402
from kernelbench.kernels import BorderPolicy  # noqa: E402
from kernelbench.pipeline import SyntheticSource, next_frame  # noqa: E402
from kernelbench.shadergen import ChainPass, ChainSpec, execute_chain_reference  # noqa: E402


def _tree(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_same_seed_gives_byte_identical_inputs(tmp_path):
    trees = []
    for name, seed in (("a", 7), ("b", 7), ("c", 8)):
        directory = tmp_path / name
        directory.mkdir()
        corpus.write_clip(directory / "clip.rgb", seed)
        corpus.write_corpus(directory, seed)
        trees.append(_tree(directory))
    assert trees[0] == trees[1]
    assert trees[0].keys() == trees[2].keys()
    assert trees[0]["clip.rgb"] != trees[2]["clip.rgb"]
    assert trees[0]["jobs.json"] != trees[2]["jobs.json"]


def test_corpus_round_trips_through_the_checkers_parser(tmp_path):
    built = corpus.write_corpus(tmp_path, 3)
    for pixels, path in zip(built.images, built.paths):
        assert np.array_equal(corpus.read_pnm(path), pixels)


def test_oracle_agrees_with_the_engine():
    rng = np.random.default_rng(0)
    rgb = ImageBuffer(rng.random((19, 23, 3)))
    assert oracle.float_mismatch(sobel_magnitude_rgb(rgb).samples,
                                 oracle.sobel(rgb.samples[:, :, c] for c in range(3))) is None
    gray = to_luminance(rgb)
    assert np.array_equal(gray.samples, oracle.luminance(rgb.samples))
    for subset in FreiChenSubset:
        got = frei_chen(gray, subset).samples
        assert oracle.float_mismatch(got, oracle.frei_chen(gray.samples, subset.value)) is None
    for side in (1, 3, 5, 7):
        kernel = rng.choice([-2.0, -1.0, 0.0, 0.5, 1.0], size=(side, side))
        for border in BorderPolicy:
            for normalize in (False, True):
                got = correlate(rgb, Kernel(kernel), border, normalize).samples
                want = oracle.correlate(rgb.samples, kernel, border.value, normalize)
                assert oracle.float_mismatch(got, want) is None
    chain = ChainSpec((ChainPass(Kernel(np.ones((3, 3))), normalize=True, repeat=4),))
    assert oracle.float_mismatch(execute_chain_reference(rgb, chain).samples,
                                 oracle.box_chain(rgb.samples, 4)) is None


def test_oracle_regenerates_the_synthetic_frame():
    frame = next_frame(SyntheticSource(17, 11, seed=5), 3).samples
    assert np.array_equal(frame, oracle.gradient_frame(17, 11, 8))


def test_checker_rejects_a_perturbed_frame():
    rgb = ImageBuffer(np.random.default_rng(1).random((12, 16, 3)))
    want = oracle.sobel(rgb.samples[:, :, c] for c in range(3))
    got = sobel_magnitude_rgb(rgb).samples.copy()
    assert oracle.float_mismatch(got, want) is None
    got[5, 7, 0] += 1e-9
    assert oracle.float_mismatch(got, want) is not None
    assert oracle.float_mismatch(got[:, :-1], want) is not None
    got[5, 7, 0] = np.nan
    assert oracle.float_mismatch(got, want) is not None


def test_flat_checks():
    samples = np.full((6, 6, 1), 0.25)
    samples[:, 4:] = 0.75
    flat = oracle.flat_mask(samples)
    assert flat[:, :3].all() and not flat[:, 3:5].any() and flat[:, 5].all()
    out = np.zeros((6, 6, 1))
    assert oracle.flat_nonzero(out, flat) == 0
    out[0, 0, 0] = 1e-16
    assert oracle.flat_nonzero(out, flat) == 1


def test_byte_check_allows_one_and_rejects_two():
    want = np.array([[[10], [200]]], dtype=np.int16)
    assert oracle.byte_mismatch(np.array([[[11], [199]]], dtype=np.uint8), want) is None
    assert oracle.byte_mismatch(np.array([[[12], [200]]], dtype=np.uint8), want) is not None
    skip = np.array([[True, False]])
    assert oracle.byte_mismatch(np.array([[[12], [200]]], dtype=np.uint8), want, skip) is None


def test_batch_check_rejects_perturbed_outputs(tmp_path):
    import workloads

    batch = workloads.PnmBatch(run.Kb())
    batch.setup(tmp_path, 4)
    kinds = {}
    for unit, job in enumerate(batch.corpus.jobs):
        kinds.setdefault(job.kind, unit)
    for kind, unit in kinds.items():
        result = batch.run_unit(unit, [])
        assert result.failures == [None], (kind, result.failures)
        job = batch.job(unit)
        if kind == "gen-shader":
            job.outputs[1].write_bytes(job.outputs[1].read_bytes() + b"\n")
            assert batch.check(job, "\n".join(map(str, job.outputs))) is not None
            continue
        data = bytearray(job.outputs[0].read_bytes())
        data[-1] = (data[-1] + 128) % 256
        job.outputs[0].write_bytes(bytes(data))
        assert batch.check(job, "") is not None, kind


def test_tail_percentile_leaves_ten_items_above():
    for n in (11, 12, 25, 33, 62, 176, 1000):
        ordered = list(range(1, n + 1))
        pct = run.tail_percentile(n)
        assert n - run.nearest_rank(ordered, pct) >= run.MIN_TAIL_BEYOND
        assert n - run.nearest_rank(ordered, pct + 1) < run.MIN_TAIL_BEYOND
    assert run.tail_percentile(5) == 100


def test_tail_of_a_long_run_ignores_one_burst():
    steady = [10.0 + (i % 7) / 10 for i in range(400)]
    burst = steady[:150] + [50.0] * 30 + steady[180:]
    assert run.tail(burst) == run.tail(steady) == (10.6, 90, 4)
    short = list(range(1, 30))
    assert run.tail(short) == (run.nearest_rank(short, 65), 65, 1)


def _fake_module():
    module = types.ModuleType("kernelbench.fake")

    def inner(x):
        time.sleep(0.002)
        return x + 1

    def outer(x):
        time.sleep(0.002)
        return module.inner(x) * 2

    for fn in (inner, outer):
        fn.__module__ = module.__name__
        setattr(module, fn.__name__, fn)
    return module


def test_recorder_nests_spans_computes_self_time_and_unwraps():
    module = _fake_module()
    originals = (module.inner, module.outer)
    with Recorder() as recorder:
        recorder.unit = recorder.item = "u"
        recorder.wrap(module, "inner")
        recorder.wrap(module, "outer")
        assert module.outer(1) == 4
    assert (module.inner, module.outer) == originals
    outer, inner = sorted(recorder.spans, key=lambda s: s.start_ns)
    assert (outer.name, inner.name) == ("fake.outer", "fake.inner")
    assert inner.parent == recorder.spans.index(outer) and outer.parent is None
    own = dict(zip((s.name for s in recorder.spans), recorder.self_ms()))
    assert own["fake.outer"] == pytest.approx(outer.ms - inner.ms)
    assert own["fake.inner"] == pytest.approx(inner.ms)
    assert recorder.calls_by_item()["u"] == {"fake.outer": 1, "fake.inner": 1}
    assert layer_stats(recorder)["fake.outer"]["calls"] == 1


def _run(argv, capsys):
    code = run.main(argv)
    last = capsys.readouterr().out.strip().splitlines()[-1]
    return code, json.loads(last)


def test_corrupted_output_gives_a_nonzero_error_rate_and_fails(monkeypatch, capsys):
    pipeline = run.Kb().pipeline
    original = pipeline.frei_chen

    @functools.wraps(original)
    def perturbed(image, subset):
        out = original(image, subset).samples.copy()
        out[10, 10, 0] += 1e-6
        return ImageBuffer(out)

    monkeypatch.setattr(pipeline, "frei_chen", perturbed)
    code, result = _run(["--workload", "freichen-raw-vga", "--seed", "1", "--seconds", "0"], capsys)
    assert code == 1 and result["correct"] is False
    assert result["failed"] == result["attempted"] > 0


def test_traced_run_rejects_calls_the_workload_does_not_define(monkeypatch, capsys):
    kb = run.Kb()
    original = kb.pipeline.decode_bytes

    @functools.wraps(original)
    def decode_twice(*args):
        kb.image.decode_bytes(*args)
        return original(*args)

    monkeypatch.setattr(kb.pipeline, "decode_bytes", decode_twice)
    code, result = _run(["--workload", "freichen-raw-vga", "--seed", "1", "--seconds", "0",
                         "--trace", "1"], capsys)
    assert code == 1 and result["failed"] > 0


def test_traced_run_reports_every_layer_metric(capsys):
    code, result = _run(["--workload", "freichen-raw-vga", "--seed", "2", "--seconds", "0",
                         "--trace", "1"], capsys)
    assert code == 0 and result["failed"] == 0
    metrics = result["metrics"]
    assert metrics["kernels.pad_samples.calls"]["value"] == 1.0
    assert metrics["kernels.correlate.calls"]["value"] == 0.0
    assert metrics["detectors.frei_chen.self_ms_p50"]["value"] > 0.0
    assert 0.95 <= metrics["trace.coverage"]["value"] <= 1.0


def test_outside_a_checkout_it_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__", ".pytest_cache"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "pnm-batch",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert "correct" not in done.stdout
