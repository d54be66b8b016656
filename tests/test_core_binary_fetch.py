"""Binary-fetch mode: execute from encoded machine words in memory."""

import pytest

from repro.core import Cluster, CoreConfig
from repro.eval.runner import execute_build
from repro.isa.assembler import assemble
from repro.kernels.stencil import box3d1r
from repro.kernels.stencil_codegen import build_stencil
from repro.kernels.variants import Variant
from repro.kernels.vecop import VecopVariant, build_vecop


def test_simple_program_from_memory():
    cfg = CoreConfig(fetch_from_memory=True)
    cluster = Cluster("""
    li a0, 6
    li a1, 7
    mul a2, a0, a1
    li t6, 0x2000
    sw a2, 0(t6)
    ebreak
""", cfg=cfg)
    cluster.run()
    assert cluster.mem.read_u32(0x2000) == 42
    # The program image is really in memory.
    from repro.isa.encoding import decode

    assert decode(cluster.mem.read_u32(0)).mnemonic == "addi"


def test_vecop_identical_in_both_modes():
    results = {}
    for fetch in (False, True):
        cfg = CoreConfig(fetch_from_memory=fetch)
        build = build_vecop(n=64, variant=VecopVariant.CHAINING, cfg=cfg)
        results[fetch] = execute_build(build, cfg=cfg)
    assert results[True].correct
    # Timing and outputs are identical: the decode cache models the L0
    # loop buffer, so fetching from memory costs nothing extra.
    assert results[True].cycles == results[False].cycles
    assert results[True].fpu_utilization == \
        results[False].fpu_utilization


def test_stencil_identical_in_both_modes(tiny_grid):
    cycles = {}
    for fetch in (False, True):
        cfg = CoreConfig(fetch_from_memory=fetch)
        build = build_stencil(box3d1r(), tiny_grid, Variant.CHAINING_PLUS,
                              cfg=cfg)
        result = execute_build(build, cfg=cfg)
        assert result.correct
        cycles[fetch] = result.cycles
    assert cycles[True] == cycles[False]


def test_oversized_program_image_rejected():
    big = "\n".join(["nop"] * 1030 + ["ebreak"])
    cfg = CoreConfig(fetch_from_memory=True)
    with pytest.raises(ValueError, match="colliding"):
        Cluster(big, cfg=cfg)


def test_relocated_program_base():
    prog = assemble("""
    li a0, 99
    li t6, 0x2000
    sw a0, 0(t6)
    ebreak
""", base=0x400)
    cfg = CoreConfig(fetch_from_memory=True)
    cluster = Cluster(prog, cfg=cfg)
    cluster.run()
    assert cluster.mem.read_u32(0x2000) == 99


def test_program_reload_invalidates_decode_cache():
    """Regression: the per-PC decode cache must not survive a program
    (re)load -- a reused core would otherwise execute instructions of
    the *previous* binary from the stale cache."""
    cfg = CoreConfig(fetch_from_memory=True)
    cluster = Cluster("""
    li a0, 11
    li t6, 0x2000
    sw a0, 0(t6)
    ebreak
""", cfg=cfg)
    cluster.run()
    assert cluster.mem.read_u32(0x2000) == 11

    # Program A's decoded words are cached per PC at this point.
    assert cluster.core._decode_cache
    cluster.load_program("""
    li a0, 22
    li t6, 0x2004
    sw a0, 0(t6)
    ebreak
""")
    # The reload must have dropped them -- a stale cache would make the
    # second run re-execute the first program (writing 11 to 0x2000
    # again and nothing to 0x2004).
    assert cluster.core._decode_cache == {}
    cluster.run(max_cycles=cluster.cycle + 1000)
    assert cluster.mem.read_u32(0x2004) == 22


def test_program_reload_refuses_undrained_fp_work():
    """Swapping binaries with a buffered FREP body / armed streams
    still in flight would execute the old program's work against the
    new one; the reload API must refuse."""
    cfg = CoreConfig(fetch_from_memory=True)
    build = build_vecop(n=64, variant=VecopVariant.CHAINING, cfg=cfg)
    cluster = Cluster(build.asm, cfg=cfg, symbols=build.symbols)
    build.load_into(cluster)
    for _ in range(60):  # mid-FREP, streams armed and flowing
        cluster.step()
    assert not cluster.fp.idle or not cluster.fp.streamers_done()
    with pytest.raises(RuntimeError, match="busy"):
        cluster.load_program("    ebreak\n")
