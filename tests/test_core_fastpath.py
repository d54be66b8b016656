"""Differential tests: the vectorized FREP/SSR fast path vs. the scalar
reference model.

Every test runs the same program under ``engine="scalar"`` and
``engine="auto"`` (the fast path over scalar-v2) and requires
*bit-identical* end state: output memory, FP register file, cycle
counts, every perf counter and stall bucket, chaining statistics, TCDM
traffic, SSR activity and region marks.  Where
the fast path must refuse (non-SSR loads in the body, ``frep.i``,
register staggering, cross-iteration carries, software ``bne`` loops) the
tests additionally assert that it did refuse -- falling back is part of
the contract.
"""

import numpy as np
import pytest

from repro.core import Cluster, CoreConfig, fastpath
from repro.core.fastpath import FastPathEngine
from repro.kernels.ssrgen import SsrPatternAsm
from repro.kernels.vecop import VecopVariant, build_vecop

A, B, C, D = 0x10000, 0x20000, 0x30000, 0x50000

#: The admission threshold the engine ships with.
DEFAULT_MIN_REMAINING = fastpath._MIN_REMAINING


@pytest.fixture(autouse=True)
def admit_every_region(monkeypatch):
    """Most programs here are short regions, which the engine declines
    at its default admission threshold: admit every region, so the
    batch is what they test."""
    monkeypatch.setattr(fastpath, "_MIN_REMAINING", 0)


def digest(cluster) -> dict:
    """Everything architecturally or statistically visible after a run."""
    perf = cluster.perf
    return {
        "cycles": cluster.cycle,
        "perf": perf.summary(),
        "marks": {k: (v.cycle, v.counters) for k, v in perf.marks.items()},
        "tcdm": cluster.tcdm.stats(),
        "tcdm_busy": cluster.tcdm.busy_bank_cycles,
        "fpregs": [list(fp.fpregs.values) for fp in cluster.fps],
        "chain": [(fp.chain.pushes, fp.chain.pops,
                   fp.chain.backpressure_events, fp.chain.status())
                  for fp in cluster.fps],
        "streams": [[(s.active_cycles, s.elements_moved)
                     for s in fp.streamers] for fp in cluster.fps],
        "replayed": [fp.sequencer.replayed_instrs for fp in cluster.fps],
        "mem": bytes(cluster.mem._data),
    }


def run_engine(asm, engine, arrays=(), num_cores=1, max_cycles=200_000):
    cfg = CoreConfig(engine=engine)
    cluster = Cluster(asm, cfg=cfg, num_cores=num_cores)
    for addr, data in arrays:
        cluster.load_f64(addr, np.asarray(data, dtype=np.float64))
    cluster.run(max_cycles=max_cycles)
    return cluster


def run_both(asm, arrays=(), num_cores=1):
    """Run under both engines, assert identical digests, return the
    auto-engine cluster (for fast-path statistics assertions)."""
    scalar = run_engine(asm, "scalar", arrays, num_cores)
    fast = run_engine(asm, "auto", arrays, num_cores)
    ds, df = digest(scalar), digest(fast)
    assert ds == df
    return fast


def streams_asm(n, *, stride_c=8, stride_d=8, repeat_d=0, bounds_c=None,
                strides_c=None, base_c=C, base_d=D, n_d=None):
    """SSR0 reads c, SSR1 reads d (optional repeat), SSR2 writes a."""
    c = SsrPatternAsm(ssr=0, base=base_c, bounds=bounds_c or [n],
                      strides=strides_c or [stride_c])
    d = SsrPatternAsm(ssr=1, base=base_d, bounds=[n_d or n],
                      strides=[stride_d], repeat=repeat_d)
    a = SsrPatternAsm(ssr=2, base=A, bounds=[n], strides=[8], write=True)
    return "\n".join(p.emit() for p in (c, d, a))


def frep_program(body, iters, streams, *, chain_mask=0, pre_loop=""):
    chain_on = f"    csrrwi x0, chain_mask, {chain_mask}\n" \
        if chain_mask else ""
    chain_off = "    csrrwi x0, chain_mask, 0\n" if chain_mask else ""
    body_lines = "\n".join(f"    {line}" for line in body)
    return f"""
    li a0, {B}
    fld fa0, 0(a0)
{streams}
{chain_on}    csrrsi x0, ssr_enable, 1
{pre_loop}    csrrwi x0, sim_mark, 1
    li t2, {iters - 1}
    frep.o t2, {len(body) - 1}
{body_lines}
    csrr t5, ssr_enable
    csrrwi x0, sim_mark, 2
{chain_off}    csrrci x0, ssr_enable, 1
    ebreak
"""


def vec_arrays(rng, n, n_d=None):
    return [(B, [3.25]),
            (C, rng.uniform(-1.0, 1.0, n)),
            (D, rng.uniform(-1.0, 1.0, n_d or n)),
            (A, np.zeros(n))]


# -- the paper's kernels --------------------------------------------------


@pytest.mark.parametrize("variant", list(VecopVariant),
                         ids=lambda v: v.value)
@pytest.mark.parametrize("loop_mode", ["frep", "bne"])
def test_vecop_bit_identical(variant, loop_mode):
    builds = {}
    for engine in ("scalar", "auto"):
        cfg = CoreConfig(engine=engine)
        build = build_vecop(n=256, variant=variant, loop_mode=loop_mode,
                            cfg=cfg)
        cluster = Cluster(build.asm, cfg=cfg, symbols=build.symbols)
        build.load_into(cluster)
        cluster.run()
        out = cluster.read_f64(build.output_addr, build.output_shape)
        assert np.array_equal(out, build.golden)
        builds[engine] = (cluster, digest(cluster))
    assert builds["scalar"][1] == builds["auto"][1]
    stats = builds["auto"][0].fastpath.stats
    if loop_mode == "frep":
        assert stats["applications"] >= 1
        assert stats["fast_forwarded_cycles"] > 0
    else:
        # A software bne loop has no FREP region at all.
        assert stats["regions_seen"] == 0


def test_fig3_stencil_bit_identical():
    """Fig. 3 stencils use software loops + an indirect input stream;
    the fast path must stay out of the way entirely."""
    from repro.eval.runner import execute_stencil
    from repro.kernels.layout import Grid3d
    from repro.kernels.variants import Variant

    grid = Grid3d(nz=2, ny=3, nx=8)
    results = {}
    for engine in ("scalar", "auto"):
        cfg = CoreConfig(engine=engine)
        res = execute_stencil("box3d1r", Variant.CHAINING_PLUS,
                              grid=grid, cfg=cfg)
        results[engine] = res
    a, b = results["scalar"], results["auto"]
    assert a.correct and b.correct
    assert a.cycles == b.cycles
    assert a.region_cycles == b.region_cycles
    assert a.fpu_utilization == b.fpu_utilization
    assert a.stalls == b.stalls
    assert a.energy.total_pj == b.energy.total_pj
    assert a.energy.breakdown == b.energy.breakdown


def test_energy_report_identical():
    from repro.energy.model import EnergyModel

    rng = np.random.default_rng(3)
    asm = frep_program(
        ["fadd.d ft3, ft0, ft1"] * 4 + ["fmul.d ft2, ft3, fa0"] * 4,
        iters=256, streams=streams_asm(1024), chain_mask=8)
    arrays = vec_arrays(rng, 1024)
    scalar = run_engine(asm, "scalar", arrays)
    fast = run_engine(asm, "auto", arrays)
    assert fast.fastpath.stats["applications"] >= 1
    es = EnergyModel(scalar.cfg).report(scalar)
    ef = EnergyModel(fast.cfg).report(fast)
    assert es.total_pj == ef.total_pj
    assert es.breakdown == ef.breakdown


# -- randomized FREP shapes ----------------------------------------------


def random_frep_case(seed):
    rng = np.random.default_rng(seed)
    unroll = int(rng.choice([1, 2, 4]))
    # Regions must comfortably exceed ~2 steady-state periods (a few
    # hundred cycles) for the detector to have anything left to skip.
    iters = int(rng.choice([192, 384]))
    n = unroll * iters
    chaining = bool(rng.random() < 0.5) and unroll <= 4
    repeat_d = int(rng.choice([0, 1]))
    two_d = bool(rng.random() < 0.35)
    neg_c = bool(rng.random() < 0.25)

    stage1 = str(rng.choice(["fadd.d", "fsub.d", "fmul.d", "fmadd.d",
                             "fmin.d", "fsgnjx.d"]))
    stage2 = str(rng.choice(["fmul.d", "fadd.d", "fmax.d"]))

    acc = "ft3" if chaining else None
    body = []
    for k in range(unroll):
        dest = acc or f"ft{3 + k}"
        if stage1 == "fmadd.d":
            body.append(f"fmadd.d {dest}, ft0, ft1, fa0")
        else:
            body.append(f"{stage1} {dest}, ft0, ft1")
    for k in range(unroll):
        src = acc or f"ft{3 + k}"
        body.append(f"{stage2} ft2, {src}, fa0")

    if two_d and n % 8 == 0:
        bounds_c, strides_c = [8, n // 8], [8 * (n // 8), 8]
    elif neg_c:
        bounds_c, strides_c = [n], [-8]
    else:
        bounds_c, strides_c = [n], [8]
    base_c = C + 8 * (n - 1) if neg_c else C
    n_d = n // (repeat_d + 1)
    if n % (repeat_d + 1):
        repeat_d, n_d = 0, n

    streams = streams_asm(n, bounds_c=bounds_c, strides_c=strides_c,
                          base_c=base_c, repeat_d=repeat_d, n_d=n_d)
    asm = frep_program(body, iters, streams,
                       chain_mask=8 if chaining else 0)
    return asm, vec_arrays(rng, n, n_d=n_d)


@pytest.mark.parametrize("seed", range(16))
def test_random_frep_shapes(seed, monkeypatch):
    """Bit-identical with every region admitted and at the default
    admission threshold."""
    asm, arrays = random_frep_case(seed)
    expected = digest(run_engine(asm, "scalar", arrays))
    assert digest(run_engine(asm, "auto", arrays)) == expected
    monkeypatch.setattr(fastpath, "_MIN_REMAINING", DEFAULT_MIN_REMAINING)
    assert digest(run_engine(asm, "auto", arrays)) == expected


def test_random_family_exercises_fast_path():
    applied = 0
    for seed in range(16):
        asm, arrays = random_frep_case(seed)
        fast = run_engine(asm, "auto", arrays)
        applied += fast.fastpath.stats["applications"]
    assert applied >= 8  # most shapes must actually fast-forward


# -- operator corner cases ------------------------------------------------


def test_same_stream_register_twice():
    """One instruction reading ft0 in two operand positions pops two
    stream elements (one per FPU read port, as on Snitch)."""
    rng = np.random.default_rng(11)
    n = 256
    streams = "\n".join((
        SsrPatternAsm(ssr=0, base=C, bounds=[2 * n], strides=[8]).emit(),
        SsrPatternAsm(ssr=2, base=A, bounds=[n], strides=[8],
                      write=True).emit(),
    ))
    asm = frep_program(["fadd.d ft2, ft0, ft0"], n, streams)
    arrays = [(B, [1.0]), (C, rng.uniform(-1, 1, 2 * n)), (A, np.zeros(n))]
    fast = run_both(asm, arrays)
    assert fast.fastpath.stats["applications"] >= 1


def test_unpipelined_divide_body():
    rng = np.random.default_rng(12)
    n = 192
    asm = frep_program(["fdiv.d ft2, ft0, ft1"], n, streams_asm(n))
    arrays = [(B, [1.0]), (C, rng.uniform(-1, 1, n)),
              (D, rng.uniform(1.0, 2.0, n)), (A, np.zeros(n))]
    run_both(asm, arrays)


def test_divide_by_zero_guard():
    """A zero divisor must surface as the scalar ZeroDivisionError, not
    as a numpy inf silently committed by the fast path."""
    n = 192
    d = np.full(n, 1.5)
    d[150] = 0.0
    asm = frep_program(["fdiv.d ft2, ft0, ft1"], n, streams_asm(n))
    arrays = [(B, [1.0]), (C, np.ones(n)), (D, d), (A, np.zeros(n))]
    for engine in ("scalar", "auto"):
        with pytest.raises(ZeroDivisionError):
            run_engine(asm, engine, arrays)


def test_unused_armed_stream_and_sequential_regions():
    """During the first FREP the armed ``d`` stream is never popped: it
    fills its FIFO and goes quiet, and the fast path must neither
    disturb it nor multiply its transient traffic.  A second FREP then
    drains it, exercising engine re-arming across regions."""
    rng = np.random.default_rng(13)
    n, n_d = 512, 16
    streams = streams_asm(n, n_d=n_d)
    asm = f"""
    li a0, {B}
    fld fa0, 0(a0)
{streams}
    csrrsi x0, ssr_enable, 1
    csrrwi x0, sim_mark, 1
    li t2, {n - 1}
    frep.o t2, 0
    fmul.d ft2, ft0, fa0
    csrr t5, ssr_enable
    csrrwi x0, sim_mark, 2
    li t2, {n_d - 1}
    frep.o t2, 0
    fadd.d ft4, ft1, ft4
    csrr t5, ssr_enable
    csrrci x0, ssr_enable, 1
    ebreak
"""
    arrays = vec_arrays(rng, n, n_d=n_d)
    fast = run_both(asm, arrays)
    assert fast.fastpath.stats["regions_seen"] == 2
    assert fast.fastpath.stats["applications"] >= 1


@pytest.mark.parametrize("rearmed", [(0,), (0, 2)],
                         ids=["read", "read-write"])
def test_rearmed_streams_batch_in_a_second_region(rearmed):
    """Between two FREP regions SSR0 (and SSR2, the write stream) is
    re-armed on a new base.  The second region's batch must place the
    re-armed streams by their position within the new arming, not by the
    elements they moved since the first."""
    rng = np.random.default_rng(19)
    n = 512
    c = SsrPatternAsm(ssr=0, base=C, bounds=[n], strides=[8])
    d = SsrPatternAsm(ssr=1, base=D, bounds=[2 * n], strides=[8])
    a = SsrPatternAsm(ssr=2, base=A, bounds=[n if 2 in rearmed else 2 * n],
                      strides=[8], write=True)
    again = {0: SsrPatternAsm(ssr=0, base=C + 8 * n, bounds=[n],
                              strides=[8]),
             2: SsrPatternAsm(ssr=2, base=A + 8 * n, bounds=[n],
                              strides=[8], write=True)}
    region = f"""
    li t2, {n - 1}
    frep.o t2, 0
    fadd.d ft2, ft0, ft1
"""
    setup = "\n".join(p.emit() for p in (c, d, a))
    # The ``csrr`` holds the core until the first region has issued, so
    # the write stream has drained by the time its re-arm issues.
    rearm = "\n".join(again[si].emit_arm() for si in rearmed)
    asm = f"""
{setup}
    csrrsi x0, ssr_enable, 1
{region}
    csrr t5, ssr_enable
{rearm}
{region}
    csrr t5, ssr_enable
    csrrci x0, ssr_enable, 1
    ebreak
"""
    arrays = [(C, rng.uniform(-1.0, 1.0, 2 * n)),
              (D, rng.uniform(-1.0, 1.0, 2 * n)), (A, np.zeros(2 * n))]
    fast = run_both(asm, arrays)
    assert fast.fastpath.stats["applications"] == 2


# -- mandatory rejections -------------------------------------------------


def test_reject_fp_load_in_body():
    rng = np.random.default_rng(14)
    n = 128
    body = ["fadd.d ft3, ft0, ft1",
            "fld fa1, 8(a0)",
            "fmul.d ft2, ft3, fa1"]
    asm = frep_program(body, n, streams_asm(n))
    arrays = vec_arrays(rng, n) + [(B + 8, [2.5])]
    fast = run_both(asm, arrays)
    stats = fast.fastpath.stats
    assert stats["regions_seen"] == 1
    assert stats["regions_eligible"] == 0


def test_reject_cross_iteration_accumulator():
    """A plain-register reduction carries a value across iterations --
    exactly what the vectorized evaluation cannot reorder."""
    rng = np.random.default_rng(15)
    n = 128
    reads = "\n".join(
        SsrPatternAsm(ssr=i, base=base, bounds=[n], strides=[8]).emit()
        for i, base in enumerate((C, D)))
    asm = f"""
    li a0, {B}
    fld fa0, 0(a0)
{reads}
    csrrsi x0, ssr_enable, 1
    li t2, {n - 1}
    frep.o t2, 0
    fmadd.d ft3, ft0, ft1, ft3
    csrr t5, ssr_enable
    csrrci x0, ssr_enable, 1
    li a1, {A}
    fsd ft3, 0(a1)
    ebreak
"""
    arrays = [(B, [3.25]), (C, rng.uniform(-1, 1, n)),
              (D, rng.uniform(-1, 1, n)), (A, np.zeros(1))]
    fast = run_both(asm, arrays)
    assert fast.fastpath.stats["regions_eligible"] == 0
    dot = float(fast.mem.read_f64(A))
    expected = 0.0
    c = fast.read_f64(C, (n,))
    d = fast.read_f64(D, (n,))
    for x, y in zip(c, d):
        expected = x * y + expected
    assert dot == expected


def test_reject_preseeded_chain_fifo():
    """A chaining FIFO seeded before the loop shifts every pop to the
    *previous* iteration's push; the alignment check must refuse."""
    rng = np.random.default_rng(16)
    n = 256
    pre = "    fadd.d ft3, fa0, fa0\n"
    body = ["fadd.d ft3, ft0, ft1", "fmul.d ft2, ft3, fa0"]
    asm = frep_program(body, n, streams_asm(n), chain_mask=8,
                       pre_loop=pre)
    arrays = vec_arrays(rng, n)
    fast = run_both(asm, arrays)
    assert fast.fastpath.stats["applications"] == 0


def test_reject_frep_inner():
    rng = np.random.default_rng(17)
    n = 64
    streams = streams_asm(n, n_d=n)
    asm = f"""
    li a0, {B}
    fld fa0, 0(a0)
{streams}
    csrrsi x0, ssr_enable, 1
    li t2, {n - 1}
    frep.i t2, 1
    fadd.d ft3, ft0, ft1
    fmul.d ft2, ft3, fa0
    csrr t5, ssr_enable
    csrrci x0, ssr_enable, 1
    ebreak
"""
    # frep.i repeats each instruction n times: n adds into ft3 (only the
    # last survives architecturally? no -- each add pops fresh stream
    # elements), then n muls.  Timing-wise it is a valid program; the
    # fast path must simply refuse the inner-repeat form.
    arrays = vec_arrays(rng, n)
    fast = run_both(asm, arrays)
    assert fast.fastpath.stats["regions_eligible"] == 0


def test_reject_stagger():
    asm = f"""
    li a0, {B}
    fld fa0, 0(a0)
    fld fa1, 8(a0)
    li t0, 63
    frep.o t0, 0, 1, 3
    fadd.d fa0, fa0, fa2
    ebreak
"""
    fast = run_both(asm, [(B, [1.0, 2.0])])
    assert fast.fastpath.stats["regions_eligible"] == 0


def test_reject_indirect_stream():
    """SARIS-style indirect streams have data-dependent addresses; the
    fast path must leave them to the scalar model."""
    rng = np.random.default_rng(18)
    n = 128
    idx_base = 0x6000
    indirect = SsrPatternAsm(ssr=0, base=C, bounds=[n], strides=[0],
                             indirect=True, idx_base=idx_base,
                             idx_size=4, idx_shift=3)
    streams = "\n".join((
        indirect.emit(),
        SsrPatternAsm(ssr=2, base=A, bounds=[n], strides=[8],
                      write=True).emit(),
    ))
    asm = frep_program(["fmul.d ft2, ft0, fa0"], n, streams)
    perm = rng.permutation(n).astype(np.uint32)
    data = rng.uniform(-1, 1, n)
    results = {}
    for engine in ("scalar", "auto"):
        cluster = Cluster(asm, cfg=CoreConfig(engine=engine))
        cluster.load_u32(idx_base, perm)
        cluster.load_f64(B, np.array([3.25]))
        cluster.load_f64(C, data)
        cluster.run()
        results[engine] = (cluster, digest(cluster))
    assert results["scalar"][1] == results["auto"][1]
    assert results["auto"][0].fastpath.stats["regions_eligible"] == 0


# -- configuration & environment -----------------------------------------


def test_engine_auto_with_trace_falls_back_scalar():
    from repro.trace import TraceRecorder

    build = build_vecop(n=64, variant=VecopVariant.CHAINING)
    scalar = Cluster(build.asm, cfg=CoreConfig(engine="scalar"))
    traced = Cluster(build.asm, cfg=CoreConfig(engine="auto"),
                     trace=TraceRecorder())
    assert traced.fastpath is None
    for cluster in (scalar, traced):
        build.load_into(cluster)
        cluster.run()
    assert scalar.cycle == traced.cycle


def test_engine_validation():
    for retired in ("warp", "fast"):
        with pytest.raises(ValueError, match="engine"):
            CoreConfig(engine=retired).validate()


def test_fast_engine_deterministic():
    rng = np.random.default_rng(21)
    asm = frep_program(
        ["fadd.d ft3, ft0, ft1"] * 4 + ["fmul.d ft2, ft3, fa0"] * 4,
        iters=128, streams=streams_asm(512), chain_mask=8)
    arrays = vec_arrays(rng, 512)
    a = digest(run_engine(asm, "auto", arrays))
    b = digest(run_engine(asm, "auto", arrays))
    assert a == b


# -- the scalar-v2 observe gate ---------------------------------------------

_GATE_STATS = ("regions_seen", "regions_eligible", "applications",
               "fast_forwarded_cycles", "reject_reasons")


def _gate_workload(kind):
    """(cluster factory) for an accepted, a rejected and a Fig. 3 run."""
    if kind == "stencil":
        from repro.kernels.layout import Grid3d
        from repro.kernels.registry import get_stencil
        from repro.kernels.stencil_codegen import build_stencil
        from repro.kernels.variants import Variant

        spec, _ = get_stencil("box3d1r")
        build = build_stencil(spec, Grid3d(nz=2, ny=3, nx=8),
                              Variant.CHAINING_PLUS)

        def make():
            cluster = Cluster(build.asm, cfg=CoreConfig(engine="auto"),
                              symbols=build.symbols)
            build.load_into(cluster)
            return cluster
        return make
    if kind == "accepted":
        asm = frep_program(
            ["fadd.d ft3, ft0, ft1"] * 4 + ["fmul.d ft2, ft3, fa0"] * 4,
            iters=64, streams=streams_asm(256), chain_mask=8)
        arrays = vec_arrays(np.random.default_rng(5), 256)
    else:  # rejected: two register-staggered regions in sequence
        asm = f"""
    li a0, {B}
    fld fa0, 0(a0)
    fld fa1, 8(a0)
    li t0, 63
    frep.o t0, 0, 1, 3
    fadd.d fa0, fa0, fa2
    frep.o t0, 0, 1, 3
    fadd.d fa0, fa0, fa2
    ebreak
"""
        arrays = [(B, [1.0, 2.0])]

    def make():
        cluster = Cluster(asm, cfg=CoreConfig(engine="auto"))
        for addr, data in arrays:
            cluster.load_f64(addr, np.asarray(data, dtype=np.float64))
        return cluster
    return make


def test_step_is_one_cycle_and_run_alone_engages_the_batch():
    """``Cluster.step`` advances exactly one cycle under ``auto`` even
    where the FREP batch would skip thousands; only the run loop
    engages it, and both routes end in the same machine."""
    builds = []
    for _ in range(2):
        build = build_vecop(n=4096, variant=VecopVariant.CHAINING)
        cluster = Cluster(build.asm, cfg=CoreConfig(engine="auto"),
                          symbols=build.symbols)
        build.load_into(cluster)
        builds.append(cluster)
    stepped, ran = builds
    while not stepped.done:
        before = stepped.cycle
        stepped.step()
        assert stepped.cycle == before + 1
    assert stepped.fastpath.stats["applications"] == 0
    ran.run()
    assert ran.fastpath.stats["fast_forwarded_cycles"] > 1000
    assert digest(stepped) == digest(ran)


@pytest.mark.parametrize("kind", ["accepted", "rejected", "stencil"])
def test_observe_gate_keeps_fastpath_stats(kind, monkeypatch):
    """The run loop calls ``FastPathEngine.observe`` only from the cycle
    of an ``frep`` until the engine decides the region; calling it every
    cycle instead must leave every fast-path statistic and the run
    unchanged."""
    make = _gate_workload(kind)
    gated = make()
    gated.run()

    advance = Cluster._advance

    def ungated_advance(self, limit):
        # One cycle at a time, each followed by an observation.
        advance(self, min(limit, self.cycle + 1))
        FastPathEngine.observe(self.fastpath)

    monkeypatch.setattr(Cluster, "_advance", ungated_advance)
    ungated = make()
    ungated.fastpath.observe = lambda: None    # the run loop's gated call
    ungated.run()

    got = {k: gated.fastpath.stats[k] for k in _GATE_STATS}
    assert got == {k: ungated.fastpath.stats[k] for k in _GATE_STATS}
    assert digest(gated) == digest(ungated)
    if kind == "accepted":
        assert got["applications"] >= 1
    elif kind == "rejected":
        assert got["regions_seen"] == 2 and got["regions_eligible"] == 0
    else:
        assert got["regions_seen"] == 0


def _short_vecop():
    cfg = CoreConfig(engine="auto")
    build = build_vecop(n=64, variant=VecopVariant.BASELINE, cfg=cfg)

    def make():
        cluster = Cluster(build.asm, cfg=cfg, symbols=build.symbols)
        build.load_into(cluster)
        return cluster
    return make


@pytest.mark.parametrize("kind", ["rejected", "short-vecop"])
def test_a_decided_region_runs_without_the_run_loop(kind, monkeypatch):
    """Once the engine has decided a region (here: declined it), the
    stepped cycle runs the rest of it without coming back: while core 0
    runs, the run loop re-enters ``Cluster._advance`` outside a decision
    only once per region, not once per cycle.  (After the halt every
    engine returns each cycle, to watch the drain for a deadlock.)"""
    monkeypatch.setattr(fastpath, "_MIN_REMAINING", DEFAULT_MIN_REMAINING)
    make = _gate_workload("rejected") if kind == "rejected" \
        else _short_vecop()
    cluster = make()
    entries = []
    advance = Cluster._advance

    def counted(self, limit):
        if not self.fastpath.deciding and not self.core.halted:
            entries.append(self.cycle)
        advance(self, limit)

    monkeypatch.setattr(Cluster, "_advance", counted)
    cluster.run()
    stats = cluster.fastpath.stats
    assert stats["regions_seen"] == (2 if kind == "rejected" else 1)
    assert stats["applications"] == 0
    # The first entry, then one after each decision.
    assert len(entries) <= 1 + stats["regions_seen"], entries


def _one_shot_program(n):
    """An FREP region beside an integer loop (the queue is full, so the
    core counts as quiescent): its integer retires are one-shot events
    in every window."""
    fill = "\n".join(["    fadd.d fa3, fa0, fa0"] * 16)
    return f"""
    li a0, {B}
    fld fa0, 0(a0)
{streams_asm(n)}
    csrrsi x0, ssr_enable, 1
    li t2, {n - 1}
    frep.o t2, 0
    fadd.d ft2, ft0, ft1
{fill}
    li t0, 400
spin:
    addi t0, t0, -1
    bne t0, x0, spin
    csrr t5, ssr_enable
    csrrci x0, ssr_enable, 1
    ebreak
"""


def test_every_region_ends_in_one_outcome(monkeypatch):
    """Every region the engine sees is batched or declined with exactly
    one reason, however the watch ends: no repeat before the region
    ends, a window with a one-shot event, no whole period left, a batch
    the consistency checks refuse, or a region too short to admit."""
    rng = np.random.default_rng(23)
    n = 256
    cases = [
        # (program, arrays, config fields, admission threshold)
        (_one_shot_program(512), vec_arrays(rng, 512),
         {"branch_penalty": 0}, 0),
        (frep_program(["fadd.d ft3, ft0, ft1", "fmul.d ft2, ft3, fa0"], n,
                      streams_asm(n), chain_mask=8,
                      pre_loop="    fadd.d ft3, fa0, fa0\n"),
         vec_arrays(rng, n), {}, 0),
        (*random_frep_case(2), {}, 0),
        (*random_frep_case(11), {}, 0),
        (*random_frep_case(0), {}, 0),
    ]
    reasons = {}
    for asm, arrays, fields, admit in cases:
        monkeypatch.setattr(fastpath, "_MIN_REMAINING", admit)
        runs = []
        for engine in ("scalar", "auto"):
            cluster = Cluster(asm, cfg=CoreConfig(engine=engine, **fields))
            for addr, data in arrays:
                cluster.load_f64(addr, np.asarray(data, dtype=np.float64))
            cluster.run()
            runs.append(digest(cluster))
        assert runs[0] == runs[1]
        stats = cluster.fastpath.stats
        assert stats["regions_seen"] == 1
        assert stats["applications"] + sum(
            stats["reject_reasons"].values()) == 1, stats
        for reason, count in stats["reject_reasons"].items():
            reasons[reason] = reasons.get(reason, 0) + count
    assert reasons == {"one-shot-event": 1, "apply-refused": 1,
                       "no-whole-period": 1, "no-repeat": 1}
    # An eligible region below the admission threshold.
    vecop = _short_vecop()()
    monkeypatch.setattr(fastpath, "_MIN_REMAINING", DEFAULT_MIN_REMAINING)
    vecop.run()
    stats = vecop.fastpath.stats
    assert (stats["regions_seen"], stats["regions_eligible"],
            stats["applications"], stats["reject_reasons"]) == (
        1, 1, 0, {"short-region": 1})
