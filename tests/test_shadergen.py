import hashlib
import json
import re

import numpy as np
import pytest

from kernelbench import (
    BorderPolicy,
    ChainPass,
    ChainSpec,
    EmptyChain,
    ImageBuffer,
    Kernel,
    UnsupportedKernel,
    compose,
    correlate,
    execute_chain_reference,
    generate_fragment_shader,
    generate_program,
    generate_vertex_shader,
    write_program,
)

IDENTITY = Kernel([[0, 0, 0], [0, 1, 0], [0, 0, 0]])


def test_vertex_shader_declares_varying_and_is_stable():
    src = generate_vertex_shader()
    assert "varying vec2 v_texCoord" in src
    assert src == generate_vertex_shader()
    assert src.count("{") == src.count("}")


def test_fragment_contains_required_declarations():
    src = generate_fragment_shader(ChainPass(IDENTITY))
    assert src.startswith("precision mediump float;")
    assert "uniform sampler2D u_image;" in src
    assert "uniform vec2 u_textureSize;" in src
    assert "uniform float u_kernel[9];" in src
    assert "varying vec2 v_texCoord;" in src
    assert "vec2(1.0, 1.0) / u_textureSize" in src
    assert "gl_FragColor" in src
    assert src.count("{") == src.count("}")


def test_fragment_is_deterministic():
    rng = np.random.default_rng(41)
    for _ in range(5):
        p = ChainPass(
            Kernel(rng.standard_normal((3, 3))),
            normalize=bool(rng.integers(2)),
            repeat=int(rng.integers(1, 5)),
        )
        assert generate_fragment_shader(p) == generate_fragment_shader(p)


# sha256 of the fragment source per (repeat, normalize), recorded before the
# stencil block was built once per pass; the bytes must not move.
FRAGMENT_SHA256 = {
    (1, False): "825c74b62b621537d480ed4330fe3417ad8ed01464e116fa09ee532e87546c2b",
    (1, True): "97d6141aab8222f89b57729a655d331ceb99e73f2502c888d34b54aa9a09cec4",
    (2, False): "638d67ab3f6bb3e977b6e338985d3dff958741072506557c89101e356750c417",
    (2, True): "63b338860db472ba3585675e0c9d16c59b56009693d8c1832ad0285540b29d8b",
    (3, False): "aa55f08766646cab38192d12af50b432eed0cab66e66b144d73878f5ca521532",
    (3, True): "ae18a6d1c6d3d0fa9106f1883d4cf7fa9e3acbb68650bd388ee64c21a65b25f6",
    (64, False): "34edd1c40a95b96899d7f66f5f23b0f030a4162cf325a916ea1598b51b7a6d36",
    (64, True): "af138ea96835b2de4e5e3888a25b4af31e998ce49ae45973b0be12f54f6a8941",
}


@pytest.mark.parametrize("repeat, normalize", sorted(FRAGMENT_SHA256))
def test_fragment_bytes_are_pinned(repeat, normalize):
    src = generate_fragment_shader(ChainPass(IDENTITY, normalize=normalize, repeat=repeat))
    assert hashlib.sha256(src.encode("ascii")).hexdigest() == FRAGMENT_SHA256[repeat, normalize]


def test_repeat_unrolls_that_many_stencil_blocks():
    for repeat in (1, 3, 5):
        src = generate_fragment_shader(ChainPass(IDENTITY, repeat=repeat))
        assert src.count("* u_kernel[0]") == repeat
        assert src.count("* u_kernel[8]") == repeat


def test_normalize_controls_kernel_weight_guard():
    normalized = generate_fragment_shader(ChainPass(IDENTITY, normalize=True))
    assert "kernelWeight" in normalized
    assert "if (kernelWeight <= 0.0)" in normalized
    plain = generate_fragment_shader(ChainPass(IDENTITY, normalize=False))
    assert "kernelWeight" not in plain


def test_kernel_indices_stay_in_range():
    src = generate_fragment_shader(ChainPass(IDENTITY, normalize=True, repeat=4))
    taps = {int(m) for m in re.findall(r"\* u_kernel\[(\d+)\]", src)}
    assert taps == set(range(9))
    assert "uniform float u_kernel[9];" in src


def test_all_nine_offsets_appear_row_major():
    src = generate_fragment_shader(ChainPass(IDENTITY))
    offsets = re.findall(r"onePixel \* vec2\((-?\d\.0), (-?\d\.0)\)", src)
    assert [(float(x), float(y)) for x, y in offsets] == [
        (dx, dy) for dy in (-1.0, 0.0, 1.0) for dx in (-1.0, 0.0, 1.0)
    ]


def test_chain_pass_validation():
    with pytest.raises(UnsupportedKernel):
        ChainPass(Kernel(np.ones((5, 5))))
    with pytest.raises(ValueError):
        ChainPass(IDENTITY, repeat=0)


def test_bad_chain_types_are_rejected_when_the_chain_is_built():
    for kernel in (np.ones((3, 3)), None, [[0, 0, 0], [0, 1, 0], [0, 0, 0]]):
        with pytest.raises(TypeError, match="kernel must be a Kernel"):
            ChainPass(kernel)
    for passes in (("x",), (ChainPass(IDENTITY), IDENTITY), (None,)):
        with pytest.raises(TypeError, match="each pass must be a ChainPass"):
            ChainSpec(passes)


def test_empty_chain_is_rejected():
    with pytest.raises(EmptyChain):
        ChainSpec(())


def test_generate_program_counts():
    single = generate_program(ChainSpec((ChainPass(IDENTITY),)))
    assert len(single.fragment_sources) == 1
    passes = tuple(ChainPass(IDENTITY, repeat=i + 1) for i in range(4))
    multi = generate_program(ChainSpec(passes))
    assert len(multi.fragment_sources) == 4
    assert multi.vertex_source == single.vertex_source
    assert len(multi.uniforms) == 4


# Every pass declares these uniforms, as (name, GLSL type, array length or 0).
PASS_UNIFORMS = [("u_image", "sampler2D", 0), ("u_textureSize", "vec2", 0), ("u_kernel", "float", 9)]


def test_program_metadata_matches_declarations(tmp_path):
    chain = ChainSpec((ChainPass(IDENTITY, normalize=True), ChainPass(IDENTITY, repeat=2)))
    program = generate_program(chain)
    write_program(program, tmp_path / "prog")
    meta = json.loads((tmp_path / "prog.json").read_text())
    assert len(meta["passes"]) == len(program.fragment_sources) == 2
    for entry, src in zip(meta["passes"], program.fragment_sources):
        sidecar = [(u["name"], u["type"], u["array_length"]) for u in entry["uniforms"]]
        declared = re.findall(r"uniform (\w+) (\w+)(?:\[(\d+)\])?;", src)
        assert sidecar == PASS_UNIFORMS
        assert [(n, t, int(l) if l else 0) for t, n, l in declared] == PASS_UNIFORMS


def test_single_pass_reference_is_bit_identical_to_correlate():
    rng = np.random.default_rng(42)
    for normalize in (False, True):
        img = ImageBuffer(rng.random((11, 6, 3)))
        k = Kernel(rng.standard_normal((3, 3)))
        chain = ChainSpec((ChainPass(k, normalize=normalize),))
        via_chain = execute_chain_reference(img, chain).samples
        direct = correlate(img, k, BorderPolicy.CLAMP_TO_EDGE, normalize).samples
        np.testing.assert_array_equal(via_chain, direct)


def test_identity_chain_returns_input_unchanged():
    rng = np.random.default_rng(43)
    img = ImageBuffer(rng.random((5, 5, 1)))
    out = execute_chain_reference(img, ChainSpec((ChainPass(IDENTITY),)))
    np.testing.assert_array_equal(out.samples, img.samples)


def test_repeat_equals_sequential_passes():
    rng = np.random.default_rng(44)
    img = ImageBuffer(rng.random((8, 8, 1)))
    k = Kernel(rng.standard_normal((3, 3)))
    repeated = execute_chain_reference(img, ChainSpec((ChainPass(k, repeat=3),)))
    sequential = ChainSpec((ChainPass(k), ChainPass(k), ChainPass(k)))
    expected = execute_chain_reference(img, sequential)
    np.testing.assert_array_equal(repeated.samples, expected.samples)


def test_two_pass_chain_matches_composed_kernel_on_interior():
    rng = np.random.default_rng(45)
    img = ImageBuffer(rng.random((16, 16, 1)))
    k1 = Kernel(rng.standard_normal((3, 3)))
    k2 = Kernel(rng.standard_normal((3, 3)))
    chain = ChainSpec((ChainPass(k1), ChainPass(k2)))
    chained = execute_chain_reference(img, chain).samples
    composed = correlate(img, compose(k1, k2)).samples
    np.testing.assert_allclose(chained[2:-2, 2:-2], composed[2:-2, 2:-2], atol=1e-5)


def test_golden_identity_fragment():
    import pathlib

    golden = pathlib.Path(__file__).parent / "golden" / "identity.frag"
    src = generate_fragment_shader(ChainPass(IDENTITY, normalize=True))
    assert src == golden.read_text()


def test_write_program_single_pass(tmp_path):
    chain = ChainSpec((ChainPass(IDENTITY, normalize=True),))
    program = generate_program(chain)
    paths = write_program(program, tmp_path / "identity")
    names = sorted(p.split("/")[-1] for p in paths)
    assert names == ["identity.frag", "identity.json", "identity.vert"]
    meta = json.loads((tmp_path / "identity.json").read_text())
    assert meta["vertex"] == "identity.vert"
    (entry,) = meta["passes"]
    assert entry["fragment"] == "identity.frag"
    assert entry["u_kernel_values"] == [0, 0, 0, 0, 1, 0, 0, 0, 0]
    assert entry["normalize"] is True and entry["repeat"] == 1
    assert [u["name"] for u in entry["uniforms"]] == ["u_image", "u_textureSize", "u_kernel"]
    assert (tmp_path / "identity.frag").read_text() == program.fragment_sources[0]


def test_write_program_multi_pass_names(tmp_path):
    rng = np.random.default_rng(46)
    passes = (
        ChainPass(IDENTITY),
        ChainPass(Kernel(rng.standard_normal((3, 3))), normalize=True, repeat=3),
        ChainPass(Kernel(rng.standard_normal((3, 3))), repeat=2),
    )
    chain = ChainSpec(passes)
    program = generate_program(chain)
    write_program(program, tmp_path / "chain")
    assert (tmp_path / "chain.vert").exists()
    assert not (tmp_path / "chain.frag").exists()
    meta = json.loads((tmp_path / "chain.json").read_text())
    assert len(meta["passes"]) == len(passes)
    for index, (chain_pass, entry) in enumerate(zip(passes, meta["passes"])):
        assert entry["fragment"] == f"chain.{index}.frag"
        assert entry["u_kernel_values"] == chain_pass.kernel.coefficients.ravel().tolist()
        assert entry["normalize"] is chain_pass.normalize
        assert entry["repeat"] == chain_pass.repeat
        src = (tmp_path / f"chain.{index}.frag").read_text()
        assert src == generate_fragment_shader(chain_pass)
        assert src.count("* u_kernel[8]") == chain_pass.repeat
        assert ("if (kernelWeight <= 0.0)" in src) is chain_pass.normalize


def test_program_is_derived_from_its_chain():
    chain = ChainSpec((ChainPass(IDENTITY, normalize=True, repeat=2),))
    program = generate_program(chain)
    assert program.chain is chain
    assert program.fragment_sources == (generate_fragment_shader(chain.passes[0]),)
    # Equality and hashing follow the generated text, not the chain object.
    same_text = generate_program(ChainSpec((ChainPass(IDENTITY, normalize=True, repeat=2),)))
    assert program == same_text and hash(program) == hash(same_text)
    other = ChainSpec((ChainPass(Kernel(np.ones((3, 3))), normalize=True, repeat=2),))
    assert generate_program(other) == program
    with pytest.raises(TypeError):
        type(program)(chain, program.vertex_source, program.fragment_sources, program.uniforms)
