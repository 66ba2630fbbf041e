import json

import numpy as np
import pytest

from kernelbench import (
    BorderPolicy,
    DetectorKind,
    FreiChenSubset,
    ImageBuffer,
    PixelFormat,
    Scenario,
    decode_bytes,
    read_pnm,
    write_pnm,
)
from kernelbench.cli import main


def _write_pgm(path, arr):
    write_pnm(ImageBuffer(np.asarray(arr, dtype=np.float64)), path)


def test_convolve_identity_preserves_bytes(tmp_path):
    rng = np.random.default_rng(61)
    src = tmp_path / "in.pgm"
    dst = tmp_path / "out.pgm"
    buf = decode_bytes(bytes(rng.integers(0, 256, 30, dtype=np.uint8)), 6, 5, PixelFormat.GRAY8)
    write_pnm(buf, src)
    # No flag checks the default; each enum value checks its choice.
    for extra in [[]] + [["--border", b.value] for b in BorderPolicy]:
        code = main([
            "convolve", "--in", str(src), "--out", str(dst),
            "--kernel", "3 0 0 0 0 1 0 0 0 0", *extra,
        ])
        assert code == 0
        assert dst.read_bytes() == src.read_bytes()


def test_convolve_zero_border_flag(tmp_path):
    src = tmp_path / "in.pgm"
    dst = tmp_path / "out.pgm"
    _write_pgm(src, np.full((3, 3), 1.0))
    code = main([
        "convolve", "--in", str(src), "--out", str(dst),
        "--kernel", "3 1 1 1 1 1 1 1 1 1", "--normalize", "--border", "zero",
    ])
    assert code == 0
    out = read_pnm(dst).samples
    # zero padding dims the corners: 4 of 9 taps land inside
    assert out[0, 0, 0] < out[1, 1, 0]


def test_sobel_constant_input_gives_zero_bytes(tmp_path):
    src = tmp_path / "flat.pgm"
    dst = tmp_path / "edges.pgm"
    _write_pgm(src, np.full((8, 8), 0.5))
    assert main(["sobel", "--in", str(src), "--out", str(dst)]) == 0
    body = dst.read_bytes().split(b"\n255\n", 1)[1]
    assert body == bytes(64)


def test_sobel_threshold_binarizes(tmp_path):
    src = tmp_path / "step.pgm"
    dst = tmp_path / "edges.pgm"
    arr = np.zeros((8, 8))
    arr[:, 4:] = 1.0
    _write_pgm(src, arr)
    assert main(["sobel", "--in", str(src), "--out", str(dst), "--threshold", "0.5"]) == 0
    out = read_pnm(dst).samples
    assert set(np.unique(out)) <= {0.0, 1.0}
    assert out.max() == 1.0


def test_sobel_accepts_rgb_input(tmp_path):
    rng = np.random.default_rng(62)
    src = tmp_path / "in.ppm"
    dst = tmp_path / "out.pgm"
    write_pnm(ImageBuffer(rng.random((6, 6, 3))), src)
    assert main(["sobel", "--in", str(src), "--out", str(dst)]) == 0
    assert read_pnm(dst).channels == 1


def test_freichen_subset_flag(tmp_path):
    rng = np.random.default_rng(63)
    src = tmp_path / "in.ppm"
    write_pnm(ImageBuffer(rng.random((6, 6, 3))), src)
    for subset in FreiChenSubset:
        dst = tmp_path / f"{subset.value}.pgm"
        args = ["freichen", "--in", str(src), "--out", str(dst), "--subset", subset.value]
        assert main(args) == 0
        assert dst.exists()


def test_gen_shader_is_byte_deterministic(tmp_path):
    for name in ("a", "b"):
        code = main([
            "gen-shader", "--kernel", "3 0 0 0 0 1 0 0 0 0", "--normalize",
            "--out", str(tmp_path / name),
        ])
        assert code == 0
    assert (tmp_path / "a.frag").read_bytes() == (tmp_path / "b.frag").read_bytes()
    assert (tmp_path / "a.vert").read_bytes() == (tmp_path / "b.vert").read_bytes()
    meta = json.loads((tmp_path / "a.json").read_text())
    assert meta["passes"][0]["u_kernel_values"][4] == 1


def test_gen_shader_repeat_must_be_positive(tmp_path, capsys):
    code = main([
        "gen-shader", "--kernel", "3 0 0 0 0 1 0 0 0 0", "--repeat", "0",
        "--out", str(tmp_path / "x"),
    ])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_bench_resolutions_writes_schema_valid_json(tmp_path):
    import jsonschema
    import pathlib

    out = tmp_path / "report.json"
    code = main(["bench", "resolutions", "--frames", "1", "--json", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    schema = json.loads(
        (pathlib.Path(__file__).parent.parent / "docs" / "report_schema.json").read_text()
    )
    jsonschema.validate(data, schema)
    assert len(data["rows"]) == 4
    assert data["rows"][0]["label"] == "320x240"


@pytest.mark.parametrize("scenario", list(Scenario))
def test_bench_accepts_every_scenario(tmp_path, monkeypatch, capsys, scenario):
    import kernelbench.pipeline

    monkeypatch.setattr(kernelbench.pipeline, "_process_frame", lambda frame, work: frame)
    out = tmp_path / "report.json"
    assert main(["bench", scenario.value, "--frames", "1", "--json", str(out)]) == 0
    capsys.readouterr()
    assert json.loads(out.read_text())["scenario"] == scenario.value


def test_bench_vsync_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("KERNELBENCH_VSYNC", "30")
    out = tmp_path / "report.json"
    code = main(["bench", "resolutions", "--frames", "1", "--json", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["rows"][0]["report"]["vsync_hz"] == 30.0


def test_bench_vsync_flag_beats_env(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("KERNELBENCH_VSYNC", "30")
    out = tmp_path / "report.json"
    assert main(["bench", "resolutions", "--frames", "1", "--vsync", "75", "--json", str(out)]) == 0
    capsys.readouterr()
    assert json.loads(out.read_text())["rows"][0]["report"]["vsync_hz"] == 75.0


def test_bench_rejects_bad_vsync_env(monkeypatch, capsys):
    monkeypatch.setenv("KERNELBENCH_VSYNC", "fast")
    assert main(["bench", "resolutions", "--frames", "1"]) == 1
    assert "KERNELBENCH_VSYNC" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "-5", "0"])
def test_rejects_non_finite_vsync_env(tmp_path, monkeypatch, capsys, value):
    monkeypatch.setenv("KERNELBENCH_VSYNC", value)
    raw = tmp_path / "clip.rgb"
    raw.write_bytes(bytes(8 * 6 * 3))
    code = main([
        "pipeline", "--raw", str(raw), "--width", "8", "--height", "6",
        "--op", "sobel", "--frames", "1",
    ])
    assert code == 1
    captured = capsys.readouterr()
    assert "KERNELBENCH_VSYNC" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_bench_rejects_non_finite_vsync_flag_before_any_frame(monkeypatch, capsys, value):
    import kernelbench.pipeline

    def no_frames(*args):
        raise AssertionError("a frame ran before the vsync check")

    monkeypatch.setattr(kernelbench.pipeline, "_process_frame", no_frames)
    assert main(["bench", "operators", "--frames", "1", "--vsync", value]) == 1
    assert "vsync_hz" in capsys.readouterr().err


def test_bench_rejects_missing_json_directory_before_any_frame(tmp_path, monkeypatch, capsys):
    import kernelbench.pipeline

    def no_frames(*args):
        raise AssertionError("a frame ran before the --json check")

    monkeypatch.setattr(kernelbench.pipeline, "_process_frame", no_frames)
    out = tmp_path / "missing-dir" / "report.json"
    assert main(["bench", "operators", "--frames", "1", "--json", str(out)]) == 1
    assert "missing-dir" in capsys.readouterr().err
    assert not out.parent.exists()


def test_bench_rejects_json_path_that_is_a_directory_before_any_frame(
    tmp_path, monkeypatch, capsys
):
    import kernelbench.pipeline

    def no_frames(*args):
        raise AssertionError("a frame ran before the --json check")

    monkeypatch.setattr(kernelbench.pipeline, "_process_frame", no_frames)
    assert main(["bench", "operators", "--frames", "1", "--json", str(tmp_path)]) == 1
    assert "is a directory" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_pipeline_rejects_empty_raw_file(tmp_path, capsys):
    raw = tmp_path / "empty.rgb"
    raw.write_bytes(b"")
    code = main([
        "pipeline", "--raw", str(raw), "--width", "8", "--height", "6",
        "--op", "sobel", "--frames", "1",
    ])
    assert code == 1
    captured = capsys.readouterr()
    assert "empty" in captured.err
    assert captured.out == ""


def test_pipeline_reports_runreport_json(tmp_path, capsys):
    rng = np.random.default_rng(64)
    raw = tmp_path / "clip.rgb"
    raw.write_bytes(bytes(rng.integers(0, 256, 2 * 8 * 6 * 3, dtype=np.uint8)))
    for kind in DetectorKind:
        code = main([
            "pipeline", "--raw", str(raw), "--width", "8", "--height", "6",
            "--op", kind.value, "--frames", "2",
        ])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["frame_count"] == 2
        assert data["partial"] is False


def test_pipeline_flags_partial_stream(tmp_path, capsys):
    rng = np.random.default_rng(65)
    raw = tmp_path / "clip.rgb"
    raw.write_bytes(bytes(rng.integers(0, 256, 2 * 8 * 6 * 3, dtype=np.uint8)))
    code = main([
        "pipeline", "--raw", str(raw), "--width", "8", "--height", "6",
        "--op", "freichen", "--frames", "5",
    ])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["partial"] is True
    assert data["frame_count"] == 2


def test_usage_errors_exit_2(capsys):
    assert main(["no-such-command"]) == 2
    assert main(["sobel", "--bogus"]) == 2
    assert main(["convolve", "--in", "a", "--out", "b", "--kernel", "3 1 2"]) == 2
    assert main(["convolve", "--in", "a", "--out", "b", "--kernel", "2 1 1 1 1"]) == 2
    nan_kernel = "3 0 0 0 0 1 0 0 0 nan"
    assert main(["convolve", "--in", "a", "--out", "b", "--kernel", nan_kernel]) == 2
    assert main(["gen-shader", "--kernel", "3 0 0 0 0 inf 0 0 0 0", "--out", "s"]) == 2
    assert main([]) == 2
    assert main(["bench", "operators", "--engine", "chainref"]) == 2
    capsys.readouterr()


def test_missing_input_exits_1(tmp_path, capsys):
    code = main(["sobel", "--in", str(tmp_path / "nope.pgm"), "--out", str(tmp_path / "o.pgm")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_failed_run_leaves_no_partial_output(tmp_path, capsys):
    src = tmp_path / "in.pgm"
    _write_pgm(src, np.full((4, 4), 0.5))
    dst = tmp_path / "missing-dir" / "out.pgm"
    code = main(["sobel", "--in", str(src), "--out", str(dst)])
    assert code == 1
    assert not dst.exists()
    capsys.readouterr()
