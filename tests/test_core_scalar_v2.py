"""Differential tests: the scalar-v2 micro-op engine vs the seed scalar.

The micro-op engine (pre-decoded dispatch, ``CoreConfig.engine =
"scalar-v2"``) must be indistinguishable from the seed interpreter in
every architecturally visible quantity.  Two layers of evidence:

* **digest tests** run the workloads the vectorized FREP fast path
  rejects -- stencils (indirect SSR streams), ``frep.i``, register
  staggering, FP loads, DMA drains, multicore barriers -- to completion
  under both engines and compare a full-machine digest (results, cycle
  counts, every perf/stall/TCDM/SSR/DMA counter, trace events);
* **lockstep fuzz** steps two clusters cycle-by-cycle over randomized
  small programs and compares the complete machine state after every
  cycle, so even a transient one-cycle divergence that cancels out by
  the end of the run is caught.
"""

import random

import numpy as np
import pytest

from repro.core import fastpath
from repro.core.cluster import Cluster
from repro.core.config import CoreConfig
from repro.kernels.registry import get_stencil
from repro.kernels.ssrgen import SsrPatternAsm
from repro.kernels.stencil_codegen import build_stencil
from repro.kernels.variants import VARIANT_ORDER, Variant
from repro.kernels.vecop import VecopVariant, build_vecop
from repro.mem.memory import MemoryError_
from repro.ssr.config import CfgField, cfg_addr
from repro.trace import TraceRecorder

DATA = 0x2000
IDX = 0x3000
SCATTER_IDX = 0x3400
OUT = 0x6000


def machine_digest(cluster: Cluster) -> dict:
    """Every architecturally visible quantity of a finished run."""
    return {
        "cycles": cluster.cycle,
        "summary": cluster.perf.summary(),
        "stalls": cluster.perf.stall_breakdown(),
        "marks": {k: (v.cycle, v.counters)
                  for k, v in cluster.perf.marks.items()},
        "tcdm": cluster.tcdm.stats(),
        "fpregs": [tuple(fp.fpregs.values) for fp in cluster.fps],
        "intregs": [tuple(core.regs.values) for core in cluster.cores],
        "chain": [(fp.chain.mask, tuple(fp.chain.valid), fp.chain.pushes,
                   fp.chain.pops, fp.chain.backpressure_events)
                  for fp in cluster.fps],
        "streamers": [[(s.active_cycles, s.elements_moved, s._to_consume,
                        s._to_produce) for s in fp.streamers]
                      for fp in cluster.fps],
        "lsu": [(fp.lsu.loads, fp.lsu.stores) for fp in cluster.fps],
        "dma": (cluster.dma.bytes_moved, cluster.dma.busy_cycles,
                cluster.dma.transfers_completed),
        "mem": bytes(cluster.mem._data),
    }


def run_engine(source, engine: str, *, num_cores: int = 1,
               loader=None, trace: bool = False,
               fetch_from_memory: bool = False):
    cfg = CoreConfig(engine=engine, fetch_from_memory=fetch_from_memory)
    recorder = TraceRecorder() if trace else None
    if hasattr(source, "asm"):
        cluster = Cluster(source.asm, cfg=cfg, symbols=source.symbols,
                          trace=recorder, num_cores=num_cores)
        source.load_into(cluster)
    else:
        cluster = Cluster(source, cfg=cfg, trace=recorder,
                          num_cores=num_cores)
        if loader is not None:
            loader(cluster)
    cluster.run()
    return cluster, recorder


def assert_equivalent(source, *, num_cores: int = 1, loader=None,
                      trace: bool = False, fetch_from_memory: bool = False,
                      engines=("scalar-v2", "auto")):
    ref, ref_tr = run_engine(source, "scalar", num_cores=num_cores,
                             loader=loader, trace=trace,
                             fetch_from_memory=fetch_from_memory)
    ref_digest = machine_digest(ref)
    for engine in engines:
        got, got_tr = run_engine(source, engine, num_cores=num_cores,
                                 loader=loader, trace=trace,
                                 fetch_from_memory=fetch_from_memory)
        assert machine_digest(got) == ref_digest, engine
        if trace:
            assert [(e.cycle, e.text, e.kind, e.chain_valid,
                     e.pipe_occupancy) for e in got_tr.fp_events] \
                == [(e.cycle, e.text, e.kind, e.chain_valid,
                     e.pipe_occupancy) for e in ref_tr.fp_events], engine
            assert [(e.cycle, e.text, e.dispatched)
                    for e in got_tr.int_events] \
                == [(e.cycle, e.text, e.dispatched)
                    for e in ref_tr.int_events], engine
    return ref


# -- fast-path-rejected workloads ------------------------------------------

@pytest.mark.parametrize("variant", VARIANT_ORDER,
                         ids=lambda v: v.label)
def test_stencil_variants_equivalent(variant, tiny_grid):
    """Stencils ride an indirect SSR stream: always fast-path-rejected."""
    spec, _ = get_stencil("j3d27pt")
    assert_equivalent(build_stencil(spec, tiny_grid, variant))


def test_stencil_reference_kernel_small_grid(small_grid):
    spec, _ = get_stencil("box3d1r")
    assert_equivalent(
        build_stencil(spec, small_grid, Variant.from_label("Chaining+")))


def test_frep_inner_equivalent():
    assert_equivalent(f"""
    li a0, {DATA}
    fld fa0, 0(a0)
    fld fa1, 8(a0)
    fld fa2, 16(a0)
    li t0, 5
    frep.i t0, 1
    fadd.d fa0, fa0, fa1
    fmul.d fa2, fa2, fa1
    li a1, {OUT}
    fsd fa0, 0(a1)
    fsd fa2, 8(a1)
    ebreak
""", loader=lambda c: c.load_f64(DATA, np.array([0.5, 2.0, 1.0])))


def test_frep_staggered_equivalent():
    assert_equivalent(f"""
    li a0, {DATA}
    fld fa0, 0(a0)
    fld fa1, 8(a0)
    fld fa2, 16(a0)
    li t0, 7
    frep.o t0, 0, 1, 0b011
    fadd.d fa0, fa0, fa2
    li a1, {OUT}
    fsd fa0, 0(a1)
    fsd fa1, 8(a1)
    ebreak
""", loader=lambda c: c.load_f64(DATA, np.array([1.0, 10.0, 0.125])))


def test_fp_load_store_loop_equivalent():
    # fld/fsd traffic keeps the FP LSU busy: rejected by the fast path,
    # hot on the micro-op engine.
    assert_equivalent(f"""
    li a0, {DATA}
    li a1, {OUT}
    li t1, 0
loop:
    fld fa0, 0(a0)
    fld fa1, 8(a0)
    fmadd.d fa2, fa0, fa1, fa0
    fsd fa2, 0(a1)
    addi a0, a0, 16
    addi a1, a1, 8
    addi t1, t1, 1
    li t2, 24
    bne t1, t2, loop
    ebreak
""", loader=lambda c: c.load_f64(
        DATA, np.linspace(0.5, 12.0, 48)))


def test_dma_drain_equivalent():
    source = f"""
    li x1, {DATA}
    li x2, {OUT}
    li x3, 2048
    dmsrc x1
    dmdst x2
    dmcpy x4, x3
    ebreak
"""
    assert_equivalent(
        source,
        loader=lambda c: c.load_f64(DATA, np.arange(256, dtype=np.float64)))


def test_multicore_barrier_equivalent():
    assert_equivalent(f"""
    csrr a0, mhartid
    li t6, {OUT}
    slli a1, a0, 3
    add t6, t6, a1
    beq a0, x0, hart0
    li t0, 30
spin:
    addi t0, t0, -1
    bne t0, x0, spin
hart0:
    li a2, {DATA}
    fld fa0, 0(a2)
    fcvt.d.w fa1, a0
    fadd.d fa0, fa0, fa1
    csrrwi x0, 0x7C6, 1
    fsd fa0, 0(t6)
    ebreak
""", num_cores=3,
        loader=lambda c: c.load_f64(DATA, np.array([40.0])))


def test_sync_wait_spans_equivalent():
    # Back-to-back FP->int syncs with long-latency producers: the core
    # sits in long sync-wait spans.
    assert_equivalent(f"""
    li a0, {DATA}
    fld fa0, 0(a0)
    fld fa1, 8(a0)
    fdiv.d fa2, fa0, fa1
    feq.d t1, fa2, fa2
    fsqrt.d fa3, fa2
    fcvt.w.d t2, fa3
    add t3, t1, t2
    li a1, {OUT}
    sw t3, 0(a1)
    ebreak
""", loader=lambda c: c.load_f64(DATA, np.array([81.0, 1.0])))


def test_vecop_frep_traced_equivalent():
    build = build_vecop(n=24, variant=VecopVariant.CHAINING,
                        loop_mode="frep")
    assert_equivalent(build, trace=True, engines=("scalar-v2", "auto"))


def test_indirect_scatter_writes_every_element():
    """An indirect write stream scatters ``out[idx[i]] = src[i]``: the
    streamer retires every index response into its index FIFO."""
    idx = np.array([5, 2, 7, 0, 3, 6, 1, 4], dtype=np.uint32)
    src = np.arange(1.0, 9.0)
    streams = [
        # fmv.d names ft0 twice: repeat serves each element to both.
        SsrPatternAsm(ssr=0, base=DATA, bounds=[8], strides=[8], repeat=1),
        SsrPatternAsm(ssr=2, base=OUT, bounds=[8], strides=[8], write=True,
                      indirect=True, idx_base=IDX, idx_size=4, idx_shift=3),
    ]
    source = "\n".join([p.emit() for p in streams] + [
        "csrrsi x0, 0x7C0, 1", "li t0, 8", "loop:", "fmv.d ft2, ft0",
        "addi t0, t0, -1", "bne t0, x0, loop", "csrrci x0, 0x7C0, 1",
        "ebreak"])

    def load(cluster):
        cluster.load_f64(DATA, src)
        cluster.mem.write_array(IDX, idx)

    ref = assert_equivalent(source, loader=load)
    expected = np.zeros(8)
    expected[idx] = src
    assert list(ref.read_f64(OUT, (8,))) == list(expected)
    assert ref.fp.streamers[2].elements_moved == 8


def test_binary_fetch_equivalent():
    spec, _ = get_stencil("j2d5pt")
    from repro.kernels.layout import Grid3d

    build = build_stencil(spec, Grid3d(nz=1, ny=4, nx=16),
                          Variant.from_label("Chaining"))
    assert_equivalent(build, fetch_from_memory=True)


def test_engine_composition_and_validation():
    cfg = CoreConfig(engine="scalar-v2")
    cfg.validate()
    assert cfg.uses_uops
    cluster = Cluster("ebreak", cfg=cfg)
    assert cluster.fastpath is None           # never the vectorized path
    auto = Cluster("ebreak", cfg=CoreConfig(engine="auto"))
    assert auto.fastpath is not None          # composed with it
    with pytest.raises(ValueError):
        CoreConfig(engine="scalar-v3").validate()


#: Cluster shapes: the ``Cluster`` and ``CoreConfig`` keywords of each.
_SHAPES = {
    "single-core": lambda: ({}, {}),
    "two-core": lambda: ({"num_cores": 2}, {}),
    "traced": lambda: ({"trace": TraceRecorder()}, {}),
    "binary-fetch": lambda: ({}, {"fetch_from_memory": True}),
}


@pytest.mark.parametrize("engine", ["auto", "scalar-v2", "scalar"])
@pytest.mark.parametrize("shape", sorted(_SHAPES))
def test_only_single_core_untraced_clusters_leave_the_seed_interpreter(
        shape, engine, monkeypatch):
    """A 2-core, a traced and a binary-fetch cluster step on the seed
    interpreter without fast paths whatever the engine; a single-core,
    untraced cluster keeps the micro-op engine and, under ``auto``, the
    fast paths."""
    stepped = set()
    for name in ("_step_seed", "_advance"):
        def spy(self, *limit, _step=getattr(Cluster, name), _name=name):
            stepped.add(_name)
            _step(self, *limit)
        monkeypatch.setattr(Cluster, name, spy)
    cluster_kw, cfg_kw = _SHAPES[shape]()
    build = build_vecop(n=64, variant=VecopVariant.CHAINING)
    cluster = Cluster(build.asm, cfg=CoreConfig(engine=engine, **cfg_kw),
                      **cluster_kw)
    build.load_into(cluster)
    cluster.run()
    micro_ops = shape == "single-core" and engine != "scalar"
    assert stepped == {"_advance" if micro_ops else "_step_seed"}
    assert (cluster.fastpath is not None) == (micro_ops and engine == "auto")


# -- lockstep fuzz -----------------------------------------------------------

_FP_OPS2 = ("fadd.d", "fsub.d", "fmul.d", "fmin.d", "fmax.d", "fsgnj.d")
_FP_OPS3 = ("fmadd.d", "fmsub.d", "fnmadd.d", "fnmsub.d")
_INT_OPS = ("add", "sub", "and", "or", "xor", "slt", "sltu", "mul",
            "mulh", "divu", "rem")
_IMM_OPS = ("addi", "andi", "ori", "xori", "slti", "slli", "srli", "srai")
_BRANCHES = ("beq", "bne", "blt", "bge", "bltu", "bgeu")


def _boundary_instrs(rng: random.Random, tag: str) -> list[str]:
    """One instruction (with its setup) of a class the micro-op engine
    runs on the seed executors: jumps, byte and halfword loads and
    stores, FP compares and conversions with integer operands, SSR
    config access and FP CSR reads.  Jumps skip one instruction
    forward; config access touches only unarmed lanes."""
    r = lambda: rng.randrange(1, 8)              # noqa: E731
    f = lambda: rng.randrange(3, 10)             # noqa: E731
    kind = rng.randrange(8)
    if kind == 0:
        return [f"jal x{r()}, {tag}", f"addi x{r()}, x{r()}, 1", f"{tag}:"]
    if kind == 1:
        # auipc gives jalr its base: the target is two instructions on.
        return ["auipc x5, 0", f"jalr x{r()}, x5, 12",
                f"addi x{r()}, x{r()}, 1"]
    if kind == 2:
        mn = rng.choice(("lb", "lbu", "lh", "lhu"))
        width = 1 if mn in ("lb", "lbu") else 2
        return [f"{mn} x{r()}, {width * rng.randrange(0, 64)}(x8)"]
    if kind == 3:
        mn = rng.choice(("sb", "sh"))
        width = 1 if mn == "sb" else 2
        return [f"{mn} x{r()}, {width * rng.randrange(0, 64)}(x8)"]
    if kind == 4:
        return [f"{rng.choice(('flt.d', 'fle.d'))} x{r()}, f{f()}, f{f()}"]
    if kind == 5:
        return [rng.choice((f"fcvt.w.d x{r()}, f{f()}",
                            f"fcvt.d.w f{f()}, x{r()}"))]
    if kind == 6:
        return [f"csrr x{r()}, 0x7C3"]
    addr = cfg_addr(rng.randrange(3), CfgField.BOUND0 + rng.randrange(2))
    access = rng.choice((f"scfgw x{r()}, x6", f"scfgr x{r()}, x6"))
    return [f"li x6, {addr}", access]


def _random_program(rng: random.Random, boundary: bool = False) -> str:
    """A random terminating program over a safe instruction subset.

    Integer regs x1..x7 compute, x8/x9 hold data bases, FP regs f3..f9
    compute with f20..f23 optionally chain-enabled; branches only jump
    forward, so the program always reaches ``ebreak``.  With
    ``boundary`` about a third of the steps are
    :func:`_boundary_instrs`; the other steps draw as without it.
    """
    lines = [f"li x8, {DATA}", f"li x9, {OUT}"]
    if rng.random() < 0.6:
        mask = 0
        for reg in (20, 21, 22, 23):
            if rng.random() < 0.5:
                mask |= 1 << reg
        lines.append(f"li x7, {mask}")
        lines.append("csrrw x0, 0x7C3, x7")
    label = 0
    pending_label = None
    for _ in range(rng.randrange(10, 60)):
        if pending_label is not None and rng.random() < 0.7:
            lines.append(f"{pending_label}:")
            pending_label = None
        if boundary and rng.random() < 0.35:
            lines += _boundary_instrs(rng, f"skip{len(lines)}")
            continue
        kind = rng.random()
        r = lambda: rng.randrange(1, 8)          # noqa: E731
        f = lambda: rng.randrange(3, 10)         # noqa: E731
        fc = lambda: rng.randrange(20, 24)       # noqa: E731
        if kind < 0.25:
            lines.append(f"{rng.choice(_INT_OPS)} x{r()}, x{r()}, x{r()}")
        elif kind < 0.40:
            lines.append(f"{rng.choice(_IMM_OPS)} x{r()}, x{r()}, "
                         f"{rng.randrange(0, 16)}")
        elif kind < 0.50:
            off = 4 * rng.randrange(0, 32)
            if rng.random() < 0.5:
                lines.append(f"lw x{r()}, {off}(x8)")
            else:
                lines.append(f"sw x{r()}, {off}(x8)")
        elif kind < 0.60:
            off = 8 * rng.randrange(0, 16)
            if rng.random() < 0.5:
                lines.append(f"fld f{f()}, {off}(x8)")
            else:
                lines.append(f"fsd f{f()}, {off}(x9)")
        elif kind < 0.78:
            dst = fc() if rng.random() < 0.3 else f()
            s1 = fc() if rng.random() < 0.2 else f()
            if rng.random() < 0.3:
                lines.append(f"{rng.choice(_FP_OPS3)} f{dst}, f{s1}, "
                             f"f{f()}, f{f()}")
            else:
                lines.append(f"{rng.choice(_FP_OPS2)} f{dst}, f{s1}, "
                             f"f{f()}")
        elif kind < 0.84:
            lines.append(f"feq.d x{r()}, f{f()}, f{f()}")
        elif kind < 0.90 and pending_label is None:
            pending_label = f"fwd{label}"
            label += 1
            lines.append(f"{rng.choice(_BRANCHES)} x{r()}, x{r()}, "
                         f"{pending_label}")
        elif kind < 0.96:
            body = rng.randrange(1, 4)
            iters = rng.randrange(0, 6)
            mode = rng.choice(("frep.o", "frep.i"))
            stagger = ", 1, 0b0011" if rng.random() < 0.3 else ""
            lines.append(f"li x6, {iters}")
            lines.append(f"{mode} x6, {body - 1}{stagger}")
            for _ in range(body):
                lines.append(f"{rng.choice(_FP_OPS2)} f{f()}, f{f()}, "
                             f"f{f()}")
        else:
            lines.append(f"csrr x{r()}, mcycle")
    if pending_label is not None:
        lines.append(f"{pending_label}:")
    lines.append("ebreak")
    return "\n".join(lines)


def random_stream_body(rng: random.Random) -> tuple[list[str], list[int],
                                                    int]:
    """A random body of plain and chained FMAs over the f3-f6 registers,
    the chaining registers f20/f21 and the streams: SSR0 and SSR1 read,
    SSR2 written, each at least once.  Returns its lines, the pops of
    SSR0 and SSR1 and the pushes into SSR2."""
    plain = lambda: rng.randrange(3, 7)                   # noqa: E731
    body = []

    def source():
        reg = rng.choice((0, 1, 0, 1, None))
        if reg is None:
            return plain()
        pops[reg] += 1
        return reg

    def dest():
        nonlocal pushes
        if rng.random() < 0.5:
            pushes += 1
            return 2
        return plain()

    body.append(f"fmadd.d f2, f0, f1, f{plain()}")
    pops = [1, 1]
    pushes = 1
    for _ in range(rng.randrange(1, 5)):
        if rng.random() < 0.5:
            # A chained pair: the producer pushes f20/f21, the consumer
            # pops it (possibly naming it in two positions).
            c = rng.choice((20, 21))
            body.append(f"fmadd.d f{c}, f{source()}, f{source()}, "
                        f"f{plain()}")
            second = c if rng.random() < 0.3 else source()
            body.append(f"{rng.choice(_FP_OPS2)} f{dest()}, f{c}, "
                        f"f{second}")
        elif rng.random() < 0.5:
            body.append(f"{rng.choice(_FP_OPS3)} f{dest()}, f{source()}, "
                        f"f{source()}, f{source()}")
        else:
            body.append(f"{rng.choice(_FP_OPS2)} f{dest()}, f{source()}, "
                        f"f{source()}")
    return body, pops, pushes


def _random_ssr_program(rng: random.Random, scatter: bool = False
                        ) -> tuple[str, dict[int, np.ndarray]]:
    """A random stream program and its index arrays, by address.

    SSR0 gathers ``DATA`` through the index array at ``IDX``, SSR1 reads
    ``DATA`` affinely (2-D, optionally repeating) and SSR2 writes to
    ``OUT`` -- affinely, or with ``scatter`` through the index array at
    ``SCATTER_IDX``; a :func:`random_stream_body`, repeated or inside an
    ``frep.o``, pops and pushes exactly as many elements as the streams
    hold, with ``fsd`` of plain and stream registers between steps.
    ``scatter`` draws only after everything else.
    """
    frep = rng.random() < 0.5
    iters = rng.randrange(1, 4)
    body, pops, pushes = random_stream_body(rng)
    n0, n1 = pops[0] * iters, pops[1] * iters
    stores = []
    if not frep:
        # fsd of a plain register or a stream pop, once, between the
        # body steps of the first repetition.
        for _ in range(rng.randrange(0, 3)):
            reg = rng.choice((0, 1, None))
            if reg is None:
                reg = plain()
            elif reg == 0:
                n0 += 1
            else:
                n1 += 1
            stores.append((rng.randrange(len(body) + 1),
                           f"fsd f{reg}, {8 * rng.randrange(16)}(x9)"))
    repeat0 = 1 if n0 % 2 == 0 and rng.random() < 0.4 else 0
    repeat1 = 1 if n1 % 2 == 0 and rng.random() < 0.4 else 0
    e0, e1 = n0 // (repeat0 + 1), n1 // (repeat1 + 1)
    inner = rng.choice([d for d in range(1, e1 + 1) if e1 % d == 0])
    idx_size = rng.choice((2, 4))
    streams = [
        SsrPatternAsm(ssr=0, base=DATA, bounds=[e0], strides=[8],
                      repeat=repeat0, indirect=True, idx_base=IDX,
                      idx_size=idx_size, idx_shift=3),
        SsrPatternAsm(ssr=1, base=DATA + 8 * rng.randrange(8),
                      bounds=[inner, e1 // inner],
                      strides=[8 * rng.choice((1, 2)),
                               -8 * rng.randrange(0, 3)],
                      repeat=repeat1),
        SsrPatternAsm(ssr=2, base=OUT, bounds=[pushes * iters],
                      strides=[8], write=True),
    ]
    dtype = np.uint16 if idx_size == 2 else np.uint32
    indices = {IDX: np.array([rng.randrange(128) for _ in range(e0)],
                             dtype=dtype)}
    if scatter:
        streams[2].indirect = True
        streams[2].idx_base = SCATTER_IDX
        streams[2].idx_size = rng.choice((2, 4))
        indices[SCATTER_IDX] = np.array(
            [rng.randrange(64) for _ in range(pushes * iters)],
            dtype=np.uint16 if streams[2].idx_size == 2 else np.uint32)
    lines = [f"li x8, {DATA}", f"li x9, {OUT + 0x200}"]
    lines += [p.emit() for p in streams]
    lines += [f"li x7, {(1 << 20) | (1 << 21)}", "csrrw x0, 0x7C3, x7",
              "csrrsi x0, 0x7C0, 1"]
    if frep:
        lines += [f"li x6, {iters - 1}", f"frep.o x6, {len(body) - 1}"]
        lines += body
    else:
        first = list(body)
        for at, store in sorted(stores, reverse=True):
            first.insert(at, store)
        lines += first + body * (iters - 1)
    lines += ["csrrci x0, 0x7C0, 1", "csrrwi x0, 0x7C3, 0",
              "fsd f3, 0(x9)", "ebreak"]
    return "\n".join(lines), indices


def _lockstep_state(cluster: Cluster) -> tuple:
    core, fp = cluster.core, cluster.fp
    return (
        cluster.cycle, core.pc, core.halted, core.stall_until,
        core.waiting_sync is not None, core.barrier_wait,
        tuple(core.regs.values), tuple(core.regs.ready_cycle),
        core._pending_load_rd,
        tuple(fp.fpregs.values), tuple(fp.fpregs.busy),
        fp.chain.mask, tuple(fp.chain.valid), fp.chain.pushes,
        fp.chain.pops, fp.chain.backpressure_events,
        len(fp.sequencer.queue), fp.sequencer._active,
        fp.sequencer.position if fp.sequencer._active else -1,
        tuple((op.completes_at, op.dest, op.dest_is_ssr, op.sync,
               op.value) for op in fp.pipe.in_flight),
        fp.sync_ready, fp._sync_value,
        fp.lsu.loads, fp.lsu.stores,
        cluster.perf.counter_state(),
        cluster.tcdm.total_accesses, cluster.tcdm.total_conflicts,
        bytes(cluster.mem._data[DATA:OUT + 0x400]),
        tuple((tuple(s._fifo), tuple(s._idx_fifo), s._rep_count,
               s._to_consume, s._to_produce, s._data_requested,
               s._pending_write_addr, s.elements_moved, s.active_cycles)
              for s in fp.streamers),
        tuple((None if p._pending is None else
               (p._pending.addr, p._pending.is_write, p._pending.width,
                p._pending.data),
               p._response_ready, p._response)
              for p in cluster.tcdm.ports),
    )


@pytest.mark.parametrize(
    "seed,boundary",
    [pytest.param(seed, False, id=str(seed)) for seed in range(25)]
    + [pytest.param(seed, True, id=f"{seed}-boundary")
       for seed in range(25)])
def test_fuzz_lockstep_per_cycle(seed, boundary):
    """Random programs, cycle by cycle; the ``boundary`` family also
    runs every class the micro-op engine hands to the seed executors."""
    rng = random.Random(1234 + seed)
    source = _random_program(rng, boundary)
    data = np.array([rng.uniform(-4, 4) for _ in range(128)])

    clusters = []
    for engine in ("scalar", "scalar-v2"):
        cluster = Cluster(source, cfg=CoreConfig(engine=engine))
        cluster.load_f64(DATA, data)
        clusters.append(cluster)
    ref, v2 = clusters
    for cycle in range(500):
        ref.step()
        v2.step()
        assert _lockstep_state(ref) == _lockstep_state(v2), \
            f"seed {seed} diverged at cycle {cycle}\n{source}"


#: Non-default port layouts, each a generation parameter of the
#: memory-side bodies (:mod:`repro.mem.timing`): stream 1 with a FIFO of
#: depth 2, stream 1's data port at priority 11 (after the other stream
#: ports), the FP LSU at the streams' priority 10.
PORT_LAYOUTS = ("fifo_depth", "port_priority", "lsu_priority")


def apply_layout(layout: str, streamers, lsu_port) -> None:
    """Rebuild the default port layout as ``layout`` names it."""
    if layout == "fifo_depth":
        streamers[1].fifo_depth = 2
    elif layout == "port_priority":
        streamers[1].data_port.priority = 11
    elif layout == "lsu_priority":
        lsu_port.priority = 10


@pytest.mark.parametrize(
    "seed,layout,scatter",
    [pytest.param(seed, layout, scatter,
                  id="-".join([str(seed)] + [layout] * (layout != "default")
                              + ["scatter"] * scatter))
     for scatter in (False, True)
     for layout in ("default",) + PORT_LAYOUTS for seed in range(25)])
def test_fuzz_lockstep_streams_per_cycle(seed, layout, scatter):
    """Stream-heavy programs: every streamer's FIFOs and counters and
    every TCDM port's pending request and response, cycle by cycle --
    on the default port layout and on each of :data:`PORT_LAYOUTS`,
    with SSR2 an affine or (``scatter``) an indirect write."""
    rng = random.Random(4321 + seed)
    source, indices = _random_ssr_program(rng, scatter)
    data = np.array([rng.uniform(-4, 4) for _ in range(128)])

    clusters = []
    for engine in ("scalar", "scalar-v2"):
        cluster = Cluster(source, cfg=CoreConfig(engine=engine))
        cluster.load_f64(DATA, data)
        for addr, idx in indices.items():
            cluster.mem.write_array(addr, idx)
        apply_layout(layout, cluster.fp.streamers, cluster.fp.lsu.port)
        clusters.append(cluster)
    # An issue reading stream 1 in three operand positions needs three
    # elements at once: a depth-2 FIFO stalls it for good (on both
    # engines alike), so such a program is compared for 2,000 cycles.
    stuck = layout == "fifo_depth" and "f1, f1, f1" in source
    ref, v2 = clusters
    while not ref.done:
        ref.step()
        v2.step()
        assert _lockstep_state(ref) == _lockstep_state(v2), \
            f"seed {seed} diverged at cycle {ref.cycle}\n{source}"
        if stuck and ref.cycle == 2_000:
            return
        assert ref.cycle < 2_000, f"seed {seed} did not finish\n{source}"
    assert v2.done
    assert all(s.elements_moved for s in ref.fp.streamers)


def _rebind_program() -> str:
    """A program that changes what the stepped cycle is specialised on
    while a DMA copies: an integer loop over an indirect SSR0 gather and
    an affine SSR1 read, a chained ``frep.o`` region, then SSR0 re-armed
    as an affine read and SSR1 as a write next to a first SSR2 write."""
    first = [
        SsrPatternAsm(ssr=0, base=DATA, bounds=[24], strides=[8],
                      indirect=True, idx_base=IDX, idx_size=4, idx_shift=3),
        SsrPatternAsm(ssr=1, base=DATA + 8, bounds=[24], strides=[8])]
    second = [
        SsrPatternAsm(ssr=0, base=DATA + 16, bounds=[16], strides=[8]),
        SsrPatternAsm(ssr=1, base=OUT, bounds=[8], strides=[8], write=True),
        SsrPatternAsm(ssr=2, base=OUT + 0x100, bounds=[8], strides=[8],
                      write=True)]
    lines = [f"li x1, {DATA}", "li x2, 0x8000", "li x3, 4096",
             "dmsrc x1", "dmdst x2", "dmcpy x4, x3", f"li x9, {OUT + 0x200}"]
    lines += [p.emit() for p in first]
    lines += ["csrrsi x0, 0x7C0, 1", "li x5, 12", "first:",
              "fmadd.d f3, f0, f1, f3", "fadd.d f4, f0, f1",
              "addi x5, x5, -1", "bne x5, x0, first", "csrrci x0, 0x7C0, 1",
              f"li x7, {(1 << 20) | (1 << 21)}", "csrrw x0, 0x7C3, x7",
              "li x6, 5", "frep.o x6, 1", "fmadd.d f20, f3, f4, f5",
              "fadd.d f6, f20, f6", "csrrwi x0, 0x7C3, 0"]
    lines += [p.emit() for p in second]
    lines += ["csrrsi x0, 0x7C0, 1", "li x5, 8", "second:",
              "fadd.d f1, f0, f3", "fmul.d f2, f0, f4", "addi x5, x5, -1",
              "bne x5, x0, second", "csrrci x0, 0x7C0, 1", "fsd f6, 0(x9)",
              "ebreak"]
    return "\n".join(lines)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("engine", ["scalar-v2", "auto"])
def test_generated_cycle_lockstep_across_rebinds(engine, seed, monkeypatch):
    """The generated cycle against the seed interpreter while the program
    re-arms streams to other modes and FIFO depths, toggles the chaining
    mask and enters and leaves FREP next to a busy DMA: the micro-op
    cluster runs its multi-cycle loop in short random budgets, so every
    exit (budget, loop head, FREP observation, halt) and every rebind,
    mid-cycle ones included, is compared with the seed's machine.  Under
    ``auto`` the memo records and replays from the first loop head."""
    monkeypatch.setattr(fastpath, "_MEMO_WARMUP", 0)
    rng = random.Random(seed)
    clusters = []
    for name in ("scalar", engine):
        cluster = Cluster(_rebind_program(), cfg=CoreConfig(engine=name))
        cluster.load_f64(DATA, np.linspace(-2.0, 3.0, 128))
        cluster.mem.write_array(IDX, np.array(
            [(7 * k) % 64 for k in range(24)], dtype=np.uint32))
        streamers = cluster.fp.streamers
        streamers[1].fifo_depth = 2
        streamers[2].fifo_depth = 3
        clusters.append(cluster)
    ref, got = clusters
    core = got.core
    while not (core.halted and got.done):
        got._advance(got.cycle + rng.randrange(1, 8))
        fp = got.fastpath
        if fp is not None and (fp.deciding or got.fp.sequencer.frep_begun):
            fp.observe()
        if core.loop_head:
            fp.loop.at_head(10_000)
        while ref.cycle < got.cycle:
            ref.step()
        assert _lockstep_state(ref) == _lockstep_state(got), ref.cycle
        assert got.cycle < 5_000
    assert ref.done
    assert machine_digest(ref) == machine_digest(got)
    assert got.dma.bytes_moved == 4096
    if engine == "auto":
        assert got.fastpath.stats["loop_hits"] > 0


def _fault_program(start: int) -> str:
    """SSR0 gathers through an index array while SSR1 reads downwards
    from ``start`` until it walks below address 0."""
    streams = [
        SsrPatternAsm(ssr=0, base=DATA, bounds=[400], strides=[8],
                      indirect=True, idx_base=IDX, idx_size=4, idx_shift=3),
        SsrPatternAsm(ssr=1, base=start, bounds=[400], strides=[-8])]
    lines = [p.emit() for p in streams]
    lines += ["csrrsi x0, 0x7C0, 1", "li x5, 100", "loop:"]
    lines += ["fadd.d f3, f0, f1"] * 4
    lines += ["addi x5, x5, -1", "bne x5, x0, loop", "ebreak"]
    return "\n".join(lines)


@pytest.mark.parametrize("start", [0x40 + 8 * k for k in range(8)])
def test_faulting_grant_leaves_the_seed_counters(start):
    """A grant that raises ``MemoryError_`` leaves the clock, every TCDM
    and port counter and the round-robin offset as the seed leaves them:
    the seed grants in (priority, rotation) order up to the fault, so
    which other ports got their grant in that cycle depends on the
    rotation (the starts cover both parities)."""
    outcomes = []
    for engine in ("scalar", "scalar-v2", "auto"):
        cluster = Cluster(_fault_program(start), cfg=CoreConfig(engine=engine))
        cluster.mem.write_array(IDX, np.arange(400, dtype=np.uint32) % 128)
        with pytest.raises(MemoryError_):
            cluster.run()
        tcdm = cluster.tcdm
        outcomes.append((cluster.cycle, tcdm.stats(), tcdm.busy_bank_cycles,
                         tcdm._rr_offset))
    assert outcomes[1] == outcomes[0]
    assert outcomes[2] == outcomes[0]


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("cfg_kw", [
    {"chain_concurrent_push_pop": False},
    {"mem_size": (1 << 21) - 8 * 1000}], ids=["conservative", "odd-memory"])
def test_fuzz_lockstep_generated_cycle_variants(seed, cfg_kw):
    """The stream programs cycle by cycle under the conservative
    chaining mode and a memory whose size is no power of two: no
    workload builds either, so the cluster steps on the seed
    interpreter whatever the engine, and the two runs must agree."""
    rng = random.Random(4321 + seed)
    source, indices = _random_ssr_program(rng, seed % 2 == 1)
    data = np.array([rng.uniform(-4, 4) for _ in range(128)])
    clusters = []
    for engine in ("scalar", "scalar-v2"):
        cluster = Cluster(source, cfg=CoreConfig(engine=engine, **cfg_kw))
        cluster.load_f64(DATA, data)
        for addr, idx in indices.items():
            cluster.mem.write_array(addr, idx)
        clusters.append(cluster)
    ref, v2 = clusters
    while not ref.done:
        ref.step()
        v2.step()
        assert _lockstep_state(ref) == _lockstep_state(v2), ref.cycle
        assert ref.cycle < 2_000
    assert v2.done


@pytest.mark.parametrize("seed", range(8))
def test_fuzz_run_to_completion_with_fast_forward(seed):
    """End-to-end run() comparison of the two engines."""
    rng = random.Random(99 + seed)
    source = _random_program(rng)
    data = np.array([rng.uniform(-4, 4) for _ in range(128)])

    digests = []
    for engine in ("scalar", "scalar-v2"):
        cluster = Cluster(source, cfg=CoreConfig(engine=engine))
        cluster.load_f64(DATA, data)
        try:
            cluster.run(max_cycles=5_000)
            outcome = "done"
        except Exception as exc:   # deadlocks must match too
            outcome = type(exc).__name__
        digests.append((outcome, machine_digest(cluster)))
    assert digests[0] == digests[1]
