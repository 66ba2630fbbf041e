"""Run the generated fragment shaders on the CPU and compare them with correlate.

The evaluator below covers the fixed GLSL subset that
generate_fragment_shader emits, and nothing else: a statement outside it
raises. It shades every output pixel at once in float64, under the texture
upload convention README states: texel (x, y) holds image pixel (x, y), so
the texture's first row is the image's top row; the texture is sampled
nearest-texel with clamp-to-edge wrapping; and output pixel (x, y) is shaded
at the centre of texel (x, y). So a shader that reads the wrong neighbour or
divides by the wrong weight gives different numbers, whatever its text says.
"""

import re

import numpy as np
import pytest

from kernelbench import (
    BorderPolicy,
    ChainPass,
    ChainSpec,
    ImageBuffer,
    Kernel,
    correlate,
    execute_chain_reference,
    generate_fragment_shader,
)

_NUMBER = r"(-?\d+\.\d+)"
_TERM = re.compile(
    r"texture2D\(u_image, v_texCoord \+ onePixel \* vec2\(" + _NUMBER + ", " + _NUMBER
    + r"\)\) \* u_kernel\[(\d+)\]"
)
_UNIFORMS = {
    "u_image": ("sampler2D", None),
    "u_textureSize": ("vec2", None),
    "u_kernel": ("float", 9),
}


def _statements(source):
    """The declarations before main() and the statements inside it, whitespace collapsed."""
    head, body = source.split("void main() {", 1)
    assert body.rstrip().endswith("}")
    body = body.rstrip()[:-1]
    tokens = [" ".join(t.split()) for t in re.findall(r"[^;{}]*[;{}]", body)]
    return head, [t for t in tokens if t]


def _check_declarations(head):
    lines = [" ".join(line.split()) for line in head.splitlines() if line.strip()]
    assert lines[0] == "precision mediump float;"
    uniforms = {}
    for line in lines[1:]:
        m = re.fullmatch(r"uniform (\w+) (\w+)(?:\[(\d+)\])?;", line)
        if m:
            uniforms[m[2]] = (m[1], int(m[3]) if m[3] else None)
        else:
            assert line == "varying vec2 v_texCoord;", line
    assert uniforms == _UNIFORMS


def _texture(samples):
    """The (h, w, 4) RGBA texels of a 1- or 3-channel image; gray fills r, g and b."""
    texels = np.ones(samples.shape[:2] + (4,))
    texels[:, :, :3] = samples
    return texels


def evaluate_fragment(source, samples, kernel):
    """Shade every pixel of an (h, w, c) image with a generated fragment source.

    kernel is the 3x3 coefficient array bound to u_kernel in row-major
    order. Returns the (h, w, c) rgb of gl_FragColor.
    """
    head, statements = _statements(source)
    _check_declarations(head)
    h, w, channels = samples.shape
    texels = _texture(samples)
    u_kernel = [float(v) for v in np.asarray(kernel, dtype=np.float64).ravel()]
    texture_size = np.array([w, h], dtype=np.float64)
    # v_texCoord at each output pixel's texel centre, as (x, y) pairs.
    ys, xs = np.mgrid[0:h, 0:w].astype(np.float64)
    tex_coord = np.stack([(xs + 0.5) / w, (ys + 0.5) / h], axis=-1)
    env = {}
    skipping = False

    def sample(offset):
        coord = tex_coord + env["onePixel"] * offset
        texel = np.floor(coord * texture_size).astype(np.intp)
        ix = np.clip(texel[..., 0], 0, w - 1)
        iy = np.clip(texel[..., 1], 0, h - 1)
        return texels[iy, ix]

    for st in statements:
        if skipping:
            skipping = st != "}"
            continue
        if st == "}":
            continue
        if m := re.fullmatch(r"vec2 (\w+) = vec2\(1\.0, 1\.0\) / u_textureSize;", st):
            env[m[1]] = 1.0 / texture_size
        elif m := re.fullmatch(r"float (\w+) = (u_kernel\[\d\](?: \+ u_kernel\[\d\])*);", st):
            total, *rest = (u_kernel[int(i)] for i in re.findall(r"u_kernel\[(\d)\]", m[2]))
            for value in rest:
                total += value
            env[m[1]] = total
        elif m := re.fullmatch(r"if \((\w+) <= " + _NUMBER + r"\) \{", st):
            skipping = not env[m[1]] <= float(m[2])
        elif m := re.fullmatch(r"(\w+) = " + _NUMBER + ";", st):
            env[m[1]] = float(m[2])
        elif m := re.fullmatch(r"vec4 (\w+) = vec4\(0\.0, 0\.0, 0\.0, 1\.0\);", st):
            env[m[1]] = np.broadcast_to(np.array([0.0, 0.0, 0.0, 1.0]), (h, w, 4))
        elif m := re.fullmatch(r"vec4 (\w+);", st):
            env[m[1]] = None
        elif m := re.fullmatch(r"(\w+) = (texture2D\(.*);", st):
            # Nine products summed left to right, as GLSL's + associates.
            terms = list(_TERM.finditer(m[2]))
            assert len(terms) == 9 and " + ".join(t[0] for t in terms) == m[2], st
            total = None
            for t in terms:
                product = sample(np.array([float(t[1]), float(t[2])])) * u_kernel[int(t[3])]
                total = product if total is None else total + product
            env[m[1]] = total
        elif m := re.fullmatch(r"(\w+) = vec4\(\((\w+) / (\w+)\)\.rgb, 1\.0\);", st):
            with np.errstate(divide="ignore", invalid="ignore"):  # GLSL does not trap
                env[m[1]] = _with_alpha((env[m[2]] / env[m[3]])[..., :3])
        elif m := re.fullmatch(r"(\w+) = vec4\((\w+)\.rgb, 1\.0\);", st):
            env[m[1]] = _with_alpha(env[m[2]][..., :3])
        else:
            raise AssertionError(f"statement outside the generated subset: {st!r}")
    assert not skipping
    return np.ascontiguousarray(env["gl_FragColor"][..., :channels])


def _with_alpha(rgb):
    return np.concatenate([rgb, np.ones(rgb.shape[:-1] + (1,))], axis=-1)


def _shade(chain_pass, samples):
    source = generate_fragment_shader(chain_pass)
    return evaluate_fragment(source, samples, chain_pass.kernel.coefficients)


def _kernels(rng):
    """Mixed-sign kernels whose sums are at least 1, exactly 0 and at most -1."""
    kernels = {}
    for name, sign in (("positive-sum", 1.0), ("negative-sum", -1.0)):
        k = rng.uniform(-1.0, 1.0, (3, 3))
        k[0, 0] = -sign * abs(k[0, 0])
        k[1, 1] = 0.0
        # The centre outweighs the other eight taps together.
        k[1, 1] = sign * (1.0 + np.abs(k).sum())
        kernels[name] = k
    # Multiples of 1/8 sum exactly in any order, so the zero sum is exact.
    zero = rng.integers(-8, 9, (3, 3)) / 8.0
    zero[1, 1] -= zero.sum()
    kernels["zero-sum"] = zero
    return kernels


@pytest.mark.parametrize("channels", (1, 3))
@pytest.mark.parametrize("normalize", (False, True))
@pytest.mark.parametrize("shape", ((9, 7), (1, 6), (5, 1)))
def test_single_pass_shader_matches_correlate(shape, normalize, channels):
    rng = np.random.default_rng([*shape, normalize, channels])
    img = ImageBuffer(rng.random(shape + (channels,)))
    for name, coefficients in _kernels(rng).items():
        kernel = Kernel(coefficients)
        got = _shade(ChainPass(kernel, normalize=normalize), img.samples)
        want = correlate(img, kernel, BorderPolicy.CLAMP_TO_EDGE, normalize).samples
        # The shader sums its nine products in row-major order; correlate
        # sums each sign group by magnitude and subtracts. Only rounding differs.
        atol = 1e-12 * np.abs(coefficients).sum()
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=atol, err_msg=name)


def test_texture_orientation_first_row_is_top_row():
    # One tap each: the pixel above (dy = -1) and the pixel to the left (dx = -1).
    img = np.arange(12.0).reshape(3, 4, 1)
    above = np.zeros((3, 3))
    above[0, 1] = 1.0
    left = np.zeros((3, 3))
    left[1, 0] = 1.0
    got_above = _shade(ChainPass(Kernel(above)), img)[:, :, 0]
    got_left = _shade(ChainPass(Kernel(left)), img)[:, :, 0]
    rows = img[:, :, 0]
    np.testing.assert_array_equal(got_above, np.vstack([rows[:1], rows[:-1]]))
    np.testing.assert_array_equal(got_left, np.hstack([rows[:, :1], rows[:, :-1]]))


def test_kernel_weight_guard_leaves_non_positive_sums_unscaled():
    rng = np.random.default_rng(7)
    samples = rng.random((6, 5, 3))
    for name in ("zero-sum", "negative-sum"):
        coefficients = _kernels(rng)[name]
        normalized = _shade(ChainPass(Kernel(coefficients), normalize=True), samples)
        plain = _shade(ChainPass(Kernel(coefficients)), samples)
        np.testing.assert_array_equal(normalized, plain, err_msg=name)


def test_repeat_gap_shader_applies_the_kernel_once():
    """A repeat-r shader outputs one application; the CPU executor applies r.

    Every stencil block of the generated shader reads u_image, not the
    previous block's color, so the r blocks compute the same value. The
    CPU reference executor instead feeds each application the last result.
    """
    rng = np.random.default_rng(12)
    img = ImageBuffer(rng.random((8, 9, 3)))
    kernel = Kernel(_kernels(rng)["positive-sum"])
    once = correlate(img, kernel, BorderPolicy.CLAMP_TO_EDGE).samples
    atol = 1e-12 * np.abs(kernel.coefficients).sum()
    for repeat in (2, 3):
        chain_pass = ChainPass(kernel, repeat=repeat)
        shader = _shade(chain_pass, img.samples)
        np.testing.assert_allclose(shader, once, rtol=1e-12, atol=atol)
        sequential = img
        for _ in range(repeat):
            sequential = correlate(sequential, kernel, BorderPolicy.CLAMP_TO_EDGE)
        cpu = execute_chain_reference(img, ChainSpec((chain_pass,))).samples
        np.testing.assert_array_equal(cpu, sequential.samples)
        assert not np.allclose(shader, cpu, rtol=1e-3)
