"""Kernel-convolution image engine, GLSL-ES codegen, and benchmark harness."""

from types import ModuleType as _ModuleType

from .bench import (
    DEFAULT_FRAMES,
    OPERATOR_COUNTS,
    RESOLUTIONS,
    SMOOTHING_KERNEL,
    WARMUP_FRAMES,
    Scenario,
    ScenarioReport,
    ScenarioRow,
    scenario_operators,
    scenario_resolutions,
)
from .detectors import (
    FREI_CHEN_EPSILON,
    FreiChenSubset,
    frei_chen,
    sobel_magnitude,
    sobel_magnitude_rgb,
    threshold,
)
from .errors import (
    EmptyChain,
    EndOfStream,
    FormatError,
    KernelBenchError,
    RangeError,
    SizeError,
    UnsupportedFormat,
    UnsupportedKernel,
)
from .image import (
    ImageBuffer,
    PixelFormat,
    decode_bytes,
    encode_bytes,
    read_pnm,
    to_luminance,
    write_pnm,
)
from .kernels import (
    FREI_CHEN,
    SOBEL_GX,
    SOBEL_GY,
    BorderPolicy,
    Kernel,
    compose,
    correlate,
    parse_kernel,
)
from .pipeline import (
    DEFAULT_VSYNC_HZ,
    DetectorKind,
    FramePattern,
    FrameSource,
    FrameStats,
    RawStreamSource,
    RunReport,
    SyntheticSource,
    clock_resolution_ms,
    elapsed_ms,
    next_frame,
    now,
    run,
)
from .shadergen import (
    ChainPass,
    ChainSpec,
    GeneratedProgram,
    UniformBinding,
    execute_chain_reference,
    generate_fragment_shader,
    generate_program,
    generate_vertex_shader,
    write_program,
)

__version__ = "0.1.0"

# Every public name imported above; the submodules themselves stay out.
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
