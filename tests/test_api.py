"""The package's public surface: the names a star import and __all__ give."""

import ast
import inspect
import pathlib
import sys
import types

import kernelbench

PUBLIC_NAMES = [
    "BorderPolicy",
    "ChainPass",
    "ChainSpec",
    "DEFAULT_FRAMES",
    "DEFAULT_VSYNC_HZ",
    "DetectorKind",
    "EmptyChain",
    "EndOfStream",
    "FREI_CHEN",
    "FREI_CHEN_EPSILON",
    "FormatError",
    "FramePattern",
    "FrameSource",
    "FrameStats",
    "FreiChenSubset",
    "GeneratedProgram",
    "ImageBuffer",
    "Kernel",
    "KernelBenchError",
    "OPERATOR_COUNTS",
    "PixelFormat",
    "RESOLUTIONS",
    "RangeError",
    "RawStreamSource",
    "RunReport",
    "SMOOTHING_KERNEL",
    "SOBEL_GX",
    "SOBEL_GY",
    "Scenario",
    "ScenarioReport",
    "ScenarioRow",
    "SizeError",
    "SyntheticSource",
    "UniformBinding",
    "UnsupportedFormat",
    "UnsupportedKernel",
    "WARMUP_FRAMES",
    "clock_resolution_ms",
    "compose",
    "correlate",
    "decode_bytes",
    "elapsed_ms",
    "encode_bytes",
    "execute_chain_reference",
    "frei_chen",
    "generate_fragment_shader",
    "generate_program",
    "generate_vertex_shader",
    "next_frame",
    "now",
    "parse_kernel",
    "read_pnm",
    "run",
    "scenario_operators",
    "scenario_resolutions",
    "sobel_magnitude",
    "sobel_magnitude_rgb",
    "threshold",
    "to_luminance",
    "write_pnm",
    "write_program",
]


def test_all_lists_the_public_names():
    assert sorted(kernelbench.__all__) == PUBLIC_NAMES


def test_star_import_gives_the_public_names_and_no_submodule():
    namespace = {}
    exec("from kernelbench import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == PUBLIC_NAMES
    assert not any(isinstance(value, types.ModuleType) for value in namespace.values())


def test_default_vsync_is_one_constant():
    assert kernelbench.DEFAULT_VSYNC_HZ == 60.0
    assert kernelbench.bench.DEFAULT_VSYNC_HZ is kernelbench.pipeline.DEFAULT_VSYNC_HZ
    run_default = inspect.signature(kernelbench.run).parameters["vsync_hz"].default
    assert run_default is kernelbench.DEFAULT_VSYNC_HZ


def test_package_imports_only_the_standard_library_and_numpy():
    # The package has no runtime dependency beyond numpy.
    outside = []
    for path in sorted(pathlib.Path(kernelbench.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                if top not in sys.stdlib_module_names and top != "numpy":
                    outside.append(f"{path.name}: {name}")
    assert outside == []
