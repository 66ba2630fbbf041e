"""GLSL-ES 1.00 source generation for convolution chains, plus a CPU reference.

A chain compiles to one fragment shader per pass and a shared pass-through
vertex shader. Kernel coefficients travel as the u_kernel[9] uniform, never
as source literals, so one compiled shader serves any 3x3 kernel. The CPU
reference executor samples as the shaders do (clamp-to-edge, row-major
nine-tap correlation, guarded normalization) and, for repeat 1, computes what
the shader does. For repeat r > 1 each of the shader's r blocks reads the
source texture, so it outputs one application; the executor applies r.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

from .errors import EmptyChain, UnsupportedKernel, _is_count
from .image import ImageBuffer, _chain_steps, atomic_write_bytes
from .kernels import BorderPolicy, Kernel, correlate


@dataclass(frozen=True)
class ChainPass:
    """One convolution pass: a 3x3 kernel, a normalize flag, a repeat count.

    repeat models applying the same operator several times per pixel. The
    shader unrolls that many blocks, all reading the source texture, so it
    outputs one application; execute_chain_reference applies repeat of them.
    """

    kernel: Kernel
    normalize: bool = False
    repeat: int = 1

    def __post_init__(self) -> None:
        if not isinstance(self.kernel, Kernel):
            raise TypeError(f"kernel must be a Kernel, got {type(self.kernel).__name__}")
        if self.kernel.side != 3:
            raise UnsupportedKernel(
                f"the shader target fixes u_kernel[9]; kernel side must be 3, got {self.kernel.side}"
            )
        if not _is_count(self.repeat):
            raise ValueError(f"repeat must be an integer >= 1, got {self.repeat!r}")


@dataclass(frozen=True)
class ChainSpec:
    """Ordered, non-empty list of passes."""

    passes: tuple[ChainPass, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "passes", tuple(self.passes))
        if not self.passes:
            raise EmptyChain("a chain needs at least one pass")
        for p in self.passes:
            if not isinstance(p, ChainPass):
                raise TypeError(f"each pass must be a ChainPass, got {type(p).__name__}")


@dataclass(frozen=True)
class UniformBinding:
    """Declared name, GLSL type, and array length (0 for scalars) of a uniform."""

    name: str
    glsl_type: str
    array_length: int = 0


_PASS_UNIFORMS = (
    UniformBinding("u_image", "sampler2D"),
    UniformBinding("u_textureSize", "vec2"),
    UniformBinding("u_kernel", "float", 9),
)


_VERTEX_SOURCE = """\
attribute vec2 a_position;
attribute vec2 a_texCoord;

varying vec2 v_texCoord;

void main() {
    gl_Position = vec4(a_position, 0.0, 1.0);
    v_texCoord = a_texCoord;
}
"""


def generate_vertex_shader() -> str:
    """Pass-through vertex shader shared by every pass; byte-stable."""
    return _VERTEX_SOURCE


def _stencil_block(normalize: bool) -> str:
    """One unrolled nine-tap application writing the running color."""
    lines = ["    colorSum ="]
    for tap in range(9):
        dy = tap // 3 - 1
        dx = tap % 3 - 1
        end = " +" if tap < 8 else ";"
        lines.append(
            f"        texture2D(u_image, v_texCoord + onePixel * vec2({dx}.0, {dy}.0))"
            f" * u_kernel[{tap}]{end}"
        )
    if normalize:
        lines.append("    color = vec4((colorSum / kernelWeight).rgb, 1.0);")
    else:
        lines.append("    color = vec4(colorSum.rgb, 1.0);")
    return "\n".join(lines) + "\n"


def generate_fragment_shader(chain_pass: ChainPass) -> str:
    """Fragment shader for one pass; deterministic bytes for equal passes.

    The source declares the uniforms of _PASS_UNIFORMS, computes onePixel
    from the texture size, and unrolls `repeat` identical stencil blocks.
    With normalize set it divides by kernelWeight, the uniform sum guarded
    to 1.0 when it is not positive.
    """
    head = [
        "precision mediump float;",
        "",
        *(f"uniform {b.glsl_type} {b.name}{f'[{b.array_length}]' if b.array_length else ''};"
          for b in _PASS_UNIFORMS),
        "",
        "varying vec2 v_texCoord;",
        "",
        "void main() {",
        "    vec2 onePixel = vec2(1.0, 1.0) / u_textureSize;",
    ]
    if chain_pass.normalize:
        head += [
            "    float kernelWeight = u_kernel[0] + u_kernel[1] + u_kernel[2]",
            "        + u_kernel[3] + u_kernel[4] + u_kernel[5]",
            "        + u_kernel[6] + u_kernel[7] + u_kernel[8];",
            "    if (kernelWeight <= 0.0) {",
            "        kernelWeight = 1.0;",
            "    }",
        ]
    head += [
        "    vec4 color = vec4(0.0, 0.0, 0.0, 1.0);",
        "    vec4 colorSum;",
    ]
    blocks = _stencil_block(chain_pass.normalize) * chain_pass.repeat
    tail = [
        "    gl_FragColor = vec4(color.rgb, 1.0);",
        "}",
    ]
    return "\n".join(head) + "\n" + blocks + "\n".join(tail) + "\n"


@dataclass(frozen=True)
class GeneratedProgram:
    """Vertex source, one fragment per pass and uniforms, derived from a chain.

    == and hash compare the derived text and uniforms, not the chain.
    """

    chain: ChainSpec = field(compare=False)
    vertex_source: str = field(init=False)
    fragment_sources: tuple[str, ...] = field(init=False)
    uniforms: tuple[tuple[UniformBinding, ...], ...] = field(init=False)

    def __post_init__(self) -> None:
        passes = self.chain.passes
        object.__setattr__(self, "vertex_source", _VERTEX_SOURCE)
        object.__setattr__(self, "fragment_sources", tuple(map(generate_fragment_shader, passes)))
        object.__setattr__(self, "uniforms", tuple(_PASS_UNIFORMS for _ in passes))


def generate_program(chain: ChainSpec) -> GeneratedProgram:
    """Compile a chain: shared vertex source, one fragment per pass."""
    return GeneratedProgram(chain)


def execute_chain_reference(image: ImageBuffer, chain: ChainSpec) -> ImageBuffer:
    """Run a chain on the CPU, sampling as the generated shaders do.

    Each pass correlates under clamp-to-edge with its normalize flag, and
    repeat r applies the pass r times sequentially, each application reading
    the previous result, unlike the shader (see the module docstring). A
    single non-repeated pass is bit-identical to correlate() by construction.
    Inside pipeline.run, every step but the last writes into a run buffer,
    and in a chain of three or more steps runs as row ranges.
    """
    *steps, last = (p for p in chain.passes for _ in range(p.repeat))
    out = image
    with _chain_steps(len(steps) + 1):
        for p in steps:
            out = correlate(out, p.kernel, BorderPolicy.CLAMP_TO_EDGE, p.normalize)
    return correlate(out, last.kernel, BorderPolicy.CLAMP_TO_EDGE, last.normalize)


def write_program(program: GeneratedProgram, stem) -> list:
    """Write <stem>.vert, fragment file(s), and a <stem>.json sidecar.

    Single-pass chains write <stem>.frag; multi-pass chains write
    <stem>.<index>.frag. The sidecar lists, per pass, the fragment file, the
    uniform declarations, and the u_kernel values to bind along with the
    normalize and repeat settings, all read from program.chain. Every file is
    written atomically.

    Returns the list of paths written.
    """
    stem = os.fspath(stem)
    paths = []
    vertex_path = stem + ".vert"
    atomic_write_bytes(vertex_path, program.vertex_source.encode("ascii"))
    paths.append(vertex_path)
    multi = len(program.fragment_sources) > 1
    passes_meta = []
    passes = zip(program.chain.passes, program.fragment_sources, program.uniforms)
    for index, (chain_pass, source, bindings) in enumerate(passes):
        fragment_path = f"{stem}.{index}.frag" if multi else stem + ".frag"
        atomic_write_bytes(fragment_path, source.encode("ascii"))
        paths.append(fragment_path)
        passes_meta.append(
            {
                "fragment": os.path.basename(fragment_path),
                "uniforms": [
                    {"name": b.name, "type": b.glsl_type, "array_length": b.array_length}
                    for b in bindings
                ],
                "u_kernel_values": chain_pass.kernel.coefficients.ravel().tolist(),
                "normalize": chain_pass.normalize,
                "repeat": chain_pass.repeat,
            }
        )
    meta = {"vertex": os.path.basename(vertex_path), "passes": passes_meta}
    json_path = stem + ".json"
    atomic_write_bytes(json_path, (json.dumps(meta, indent=2) + "\n").encode("ascii"))
    paths.append(json_path)
    return paths
