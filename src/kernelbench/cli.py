"""Command-line interface: image operations, shader generation, benchmarks.

Exit codes: 0 on success, 1 for I/O or data errors (with a message on
stderr), 2 for usage errors (argparse prints the usage text). Output files
are written atomically, so a failing invocation never leaves partial files.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .bench import (
    DEFAULT_FRAMES,
    Scenario,
    ScenarioReport,
    scenario_operators,
    scenario_resolutions,
)
from . import detectors
from .detectors import (
    FreiChenSubset,
    frei_chen,
    sobel_magnitude,
    sobel_magnitude_rgb,
    threshold,
)
from .errors import KernelBenchError
from .image import atomic_write_bytes, read_pnm, to_luminance, write_pnm
from .kernels import BorderPolicy, correlate, parse_kernel
from .pipeline import DEFAULT_VSYNC_HZ, DetectorKind, RawStreamSource, _check_vsync, run
from .shadergen import ChainPass, ChainSpec, generate_program, write_program


def _default_vsync() -> float:
    """Resolve the vsync default, honoring the KERNELBENCH_VSYNC override."""
    raw = os.environ.get("KERNELBENCH_VSYNC", DEFAULT_VSYNC_HZ)
    try:
        value = float(raw)
        _check_vsync(value)
    except ValueError as exc:
        raise ValueError(f"KERNELBENCH_VSYNC is {raw!r}: {exc}") from None
    return value


def _kernel_arg(text: str):
    """Parse --kernel; parse_kernel's reason becomes the usage error's text.

    parse_kernel is looked up on each call, so the cached parser holds no
    library function, and a wrapper set on this module's name sees every call.
    """
    try:
        return parse_kernel(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _cmd_convolve(args) -> int:
    image = read_pnm(args.input)
    out = correlate(image, args.kernel, BorderPolicy(args.border), args.normalize)
    write_pnm(out, args.output)
    return 0


def _sobel(image, args):
    return sobel_magnitude_rgb(image) if image.channels == 3 else sobel_magnitude(image)


def _freichen(image, args):
    gray = to_luminance(image) if image.channels == 3 else image
    return frei_chen(gray, FreiChenSubset(args.subset))


# A bad --threshold fails before the input is read. The check is reached
# through its module: perfbench traces every library function this module
# names as one of its layers, and a range check is not a layer.
def _cmd_detect(args) -> int:
    if args.threshold is not None:
        detectors._check_threshold(args.threshold)
    out = args.measure(read_pnm(args.input), args)
    if args.threshold is not None:
        out = threshold(out, args.threshold)
    write_pnm(out, args.output)
    return 0


def _cmd_gen_shader(args) -> int:
    chain = ChainSpec((ChainPass(args.kernel, normalize=args.normalize, repeat=args.repeat),))
    program = generate_program(chain)
    for path in write_program(program, args.stem):
        print(path)
    return 0


def _cmd_bench(args) -> int:
    vsync = args.vsync if args.vsync is not None else _default_vsync()
    if args.json is not None:
        directory = os.path.dirname(args.json) or "."
        if not os.path.isdir(directory):
            raise FileNotFoundError(f"--json directory {directory} does not exist")
        if os.path.isdir(args.json):
            raise IsADirectoryError(f"--json path {args.json} is a directory")
    resolutions = Scenario(args.scenario) is Scenario.RESOLUTION_SWEEP
    scenario = scenario_resolutions if resolutions else scenario_operators
    report = scenario(args.frames, vsync)
    _print_scenario(report)
    if args.json is not None:
        payload = json.dumps(report.to_dict(), indent=2) + "\n"
        atomic_write_bytes(args.json, payload.encode("ascii"))
    return 0


def _cmd_pipeline(args) -> int:
    source = RawStreamSource(args.raw, args.width, args.height)
    report = run(
        source, DetectorKind(args.op), frames=args.frames, vsync_hz=_default_vsync()
    )
    print(json.dumps(report.to_dict(), indent=2))
    return 0


def _print_scenario(report: ScenarioReport) -> None:
    print(f"scenario: {report.scenario.value}")
    print(f"host: {report.host_note}")
    print(
        f"{'label':>12} {'frames':>6} {'acq ms':>10} {'proc ms':>10} "
        f"{'p50 ms':>10} {'p95 ms':>10} {'fps':>8} {'capped':>8}"
    )
    for row in report.rows:
        r = row.report
        print(
            f"{row.label:>12} {r.frame_count:>6} {r.mean_acquisition_ms:>10.3f} "
            f"{r.mean_processing_ms:>10.3f} {r.p50_processing_ms:>10.3f} "
            f"{r.p95_processing_ms:>10.3f} {r.fps_uncapped:>8.1f} {r.fps_capped:>8.1f}"
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kernelbench",
        description="Kernel-convolution image processing and benchmark harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    convolve = sub.add_parser("convolve", help="correlate an image with a kernel")
    convolve.add_argument("--in", dest="input", required=True, metavar="PNM")
    convolve.add_argument("--out", dest="output", required=True, metavar="PNM")
    convolve.add_argument(
        "--kernel",
        required=True,
        type=_kernel_arg,
        help='side then row-major coefficients, e.g. "3 0 1 0 0 0 1 0 0 0"',
    )
    convolve.add_argument("--normalize", action="store_true")
    convolve.add_argument(
        "--border", choices=[b.value for b in BorderPolicy], default=BorderPolicy.CLAMP_TO_EDGE.value
    )
    convolve.set_defaults(func=_cmd_convolve)

    sobel = sub.add_parser("sobel", help="Sobel gradient magnitude")
    sobel.add_argument("--in", dest="input", required=True, metavar="PNM")
    sobel.add_argument("--out", dest="output", required=True, metavar="PNM")
    sobel.add_argument("--threshold", type=float, default=None, metavar="T")
    sobel.set_defaults(func=_cmd_detect, measure=_sobel)

    freichen = sub.add_parser("freichen", help="Frei-Chen edge measure")
    freichen.add_argument("--in", dest="input", required=True, metavar="PNM")
    freichen.add_argument("--out", dest="output", required=True, metavar="PNM")
    freichen.add_argument("--subset", required=True, choices=[s.value for s in FreiChenSubset])
    freichen.add_argument("--threshold", type=float, default=None, metavar="T")
    freichen.set_defaults(func=_cmd_detect, measure=_freichen)

    gen = sub.add_parser("gen-shader", help="emit GLSL sources for a kernel pass")
    gen.add_argument("--kernel", required=True, type=_kernel_arg)
    gen.add_argument("--normalize", action="store_true")
    gen.add_argument("--repeat", type=int, default=1, metavar="N")
    gen.add_argument("--out", dest="stem", required=True, metavar="STEM")
    gen.set_defaults(func=_cmd_gen_shader)

    bench = sub.add_parser("bench", help="run a benchmark scenario")
    bench.add_argument("scenario", choices=[s.value for s in Scenario])
    bench.add_argument("--frames", type=int, default=DEFAULT_FRAMES, metavar="N")
    bench.add_argument("--vsync", type=float, default=None, metavar="HZ")
    bench.add_argument("--json", default=None, metavar="PATH")
    bench.set_defaults(func=_cmd_bench)

    pipeline = sub.add_parser("pipeline", help="time a detector over a raw RGB stream")
    pipeline.add_argument("--raw", required=True, metavar="FILE")
    pipeline.add_argument("--width", type=int, required=True, metavar="W")
    pipeline.add_argument("--height", type=int, required=True, metavar="H")
    pipeline.add_argument("--op", required=True, choices=[k.value for k in DetectorKind])
    pipeline.add_argument("--frames", type=int, required=True, metavar="N")
    pipeline.set_defaults(func=_cmd_pipeline)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built by the first main call and reused by every later one."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (KernelBenchError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
