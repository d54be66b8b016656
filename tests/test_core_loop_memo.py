"""Differential and adversarial tests of the loop memo (engine ``auto``).

The memo replays recorded integer-loop iterations and re-simulates their
memory side instead of stepping them (:mod:`repro.core.fastpath`).  It
must never move a bit: every test compares the finished machine of
``auto`` with a stepping engine -- the seed interpreter ``scalar`` on
small grids, ``scalar-v2`` on the default ones -- and the lockstep test
compares the whole machine state at every point where a run of replayed
iterations is written back.
"""

import dataclasses
import random
import struct
from types import SimpleNamespace

import numpy as np
import pytest

import repro.core.fastpath as fastpath
from repro.core.cluster import Cluster
from repro.core.config import CoreConfig, SystemConfig
from repro.core.perf import StallReason
from repro.kernels.layout import Grid3d
from repro.kernels.partition import build_partitioned_stencil
from repro.kernels.registry import get_stencil
from repro.kernels.ssrgen import SsrPatternAsm
from repro.kernels.stencil_codegen import build_stencil
from repro.kernels.variants import VARIANT_ORDER, Variant
from repro.kernels.vecop import VecopVariant, build_vecop
from repro.mem import timing
from repro.mem.memory import Memory
from repro.mem.tcdm import Tcdm
from repro.ssr.address_gen import AffineGenerator
from repro.ssr.config import SsrConfig, SsrMode
from repro.ssr.streamer import SsrStreamer
from repro.system import System
from tests.test_core_scalar_v2 import (PORT_LAYOUTS, apply_layout,
                                      machine_digest, random_stream_body)

#: Grids just long enough for every variant to replay iterations
#: (the memo records nothing in a cluster's first 32 loop heads, and a
#: key only from its second sighting on).
SMALL = {"box3d1r": Grid3d(nz=2, ny=4, nx=32),
         "j3d27pt": Grid3d(nz=2, ny=4, nx=32),
         "j2d5pt": Grid3d(nz=1, ny=6, nx=32),
         "star3d1r": Grid3d(nz=2, ny=4, nx=32)}


def _cluster(build, engine: str, arrays=None, **kwargs) -> Cluster:
    cluster = Cluster(build.asm, cfg=CoreConfig(engine=engine),
                      symbols=build.symbols, **kwargs)
    for addr, array in arrays or build.arrays:
        cluster.mem.write_array(addr, np.asarray(array))
    return cluster


def _compare(build, reference: str, arrays=None, **kwargs) -> Cluster:
    """Run ``build`` on ``reference`` and on ``auto``; returns the auto
    cluster after asserting identical machine digests."""
    ref = _cluster(build, reference, arrays, **kwargs)
    ref.run()
    got = _cluster(build, "auto", arrays, **kwargs)
    got.run()
    assert machine_digest(got) == machine_digest(ref)
    return got


def _loop_stats(cluster) -> dict:
    return {k: v for k, v in cluster.fastpath.stats.items()
            if k.startswith("loop_")}


@pytest.mark.parametrize("variant", VARIANT_ORDER, ids=lambda v: v.label)
@pytest.mark.parametrize("kernel", sorted(SMALL))
def test_stencils_match_the_seed_interpreter(kernel, variant):
    spec, _ = get_stencil(kernel)
    build = build_stencil(spec, SMALL[kernel], variant)
    got = _compare(build, "scalar")
    stats = _loop_stats(got)
    assert stats["loop_hits"] > 0, stats


def test_default_grid_matches_scalar_v2():
    spec, grid = get_stencil("j3d27pt")
    build = build_stencil(spec, grid, Variant.from_label("Chaining+"))
    got = _compare(build, "scalar-v2")
    # The Fig. 3 reference point spends most of its cycles replayed.
    assert got.fastpath.stats["loop_cycles"] > 0.6 * got.cycle


def _machine_state(cluster) -> dict:
    """Everything that decides the rest of a run, with instructions
    named by their program index so two clusters compare."""
    fp, core = cluster.fp, cluster.core
    index = {id(instr): i for i, instr in enumerate(cluster.program.instrs)}
    state = {
        "cycle": cluster.cycle, "pc": core.pc,
        "regs": list(core.regs.values), "ready": list(core.regs.ready_cycle),
        "stall_until": core.stall_until,
        "fpregs": list(fp.fpregs.values), "busy": list(fp.fpregs.busy),
        "chain": (list(fp.chain.valid), fp.chain.pushes, fp.chain.pops,
                  fp.chain.backpressure_events),
        "queue": [(index[id(e.instr)], sorted(e.vals.items()))
                  for e in fp.sequencer.queue],
        "pipe": [(index[id(op.instr)], op.dest, op.dest_is_ssr, op.value,
                  op.completes_at) for op in fp.pipe.in_flight],
        "last_completion": fp.pipe._last_completion,
        "perf": list(cluster.perf.values),
        "stalls": dict(cluster.perf.stalls),
        "tcdm": (cluster.tcdm.total_accesses, cluster.tcdm.total_conflicts,
                 cluster.tcdm.busy_bank_cycles, cluster.tcdm._rr_offset),
        "ports": [(p.reads, p.writes, p.conflicts, p._response_ready,
                   p._response, None if p._pending is None else (
                       p._pending.addr, p._pending.is_write,
                       p._pending.data, p._pending.width))
                  for p in cluster.tcdm.ports],
        "lsu": (fp.lsu.loads, fp.lsu.stores, fp.lsu._pending_store,
                None if fp.lsu._pending_load is None
                else fp.lsu._pending_load.dest),
        "mem": bytes(cluster.mem._data),
    }
    for si, s in enumerate(fp.streamers):
        state[f"ssr{si}"] = (
            list(s._fifo), list(s._idx_fifo), s._rep_count, s._to_consume,
            s._to_produce, s._data_requested, s._pending_write_addr,
            s.active_cycles, s.elements_moved,
            None if s._gen is None else s._gen.position,
            None if s._igen is None else s._igen._pos)
    return state


@pytest.mark.parametrize("variant", ["Base", "Base-", "Chaining+"])
def test_state_at_every_replay_matches_lockstep_stepping(variant,
                                                         monkeypatch):
    """Step scalar-v2 alongside auto and compare the whole machine each
    time a run of replayed iterations is written back, so a transient
    divergence cannot hide behind a matching end state."""
    spec, _ = get_stencil("box3d1r")
    build = build_stencil(spec, SMALL["box3d1r"],
                          Variant.from_label(variant))
    ref = _cluster(build, "scalar-v2")
    got = _cluster(build, "auto")
    checked = []
    materialize = fastpath.LoopMemo._materialize

    def checked_materialize(self, run):
        materialize(self, run)
        while ref.cycle < got.cycle:
            ref.step()
        assert _machine_state(got) == _machine_state(ref), got.cycle
        checked.append(got.cycle)

    monkeypatch.setattr(fastpath.LoopMemo, "_materialize",
                        checked_materialize)
    got.run()
    assert len(checked) >= 3


def _reference_observe(memo, cycle: int) -> tuple:
    """Reference per-cycle observation for ``LoopMemo._schedule``,
    taken directly from the machine: at the boundary before ``cycle``,
    the progress counters, the LSU access and early-stall counts, and
    the stream checks an FP step can make."""
    fp = memo.fp
    streamers = fp.streamers
    checks = ()
    queue = fp.sequencer.queue
    if queue:
        nstream = fp._num_streamers if fp.ssr_enable else 0
        for si, n in memo._stream_uses(queue[0].instr, nstream):
            s = streamers[si]
            checks += ((si, n, bool(s._fifo) if n == 1
                        else s.available_pops() >= n),)
    in_flight = fp.pipe.in_flight
    if in_flight:
        op = in_flight[0]
        if op.dest_is_ssr and op.completes_at <= cycle:
            s = streamers[op.dest]
            checks += ((op.dest, 0, len(s._fifo) < s.fifo_depth),)
    stalls = fp.perf.stalls
    lsu = fp.lsu
    return ((*[s._to_consume for s in streamers],
             *[s._to_produce for s in streamers]),
            lsu.loads + lsu.stores,
            sum(stalls.get(reason, 0) for reason in (
                StallReason.RAW, StallReason.CHAIN_EMPTY,
                StallReason.LSU_BUSY)),
            checks)


def _reference_schedule(log: list) -> tuple:
    """Schedule entries from consecutive reference observations."""
    schedule = []
    base = log[0][1]
    for (progress0, lsu0, early0, checks), (progress1, lsu1, early1, _) \
            in zip(log, log[1:]):
        moved = tuple(a - b for a, b in zip(progress0, progress1))
        half = len(moved) // 2
        if early1 != early0:
            checks = tuple(c for c in checks if not c[1])
        schedule.append((moved[:half], moved[half:],
                         lsu0 - base if lsu1 != lsu0 else -1,
                         tuple(c[:2] for c in checks),
                         tuple(c[2] for c in checks), checks))
    return tuple(schedule)


def _check_recordings(monkeypatch) -> list:
    """Log every recording with the reference observation too, and
    assert that ``_build`` makes the same iteration from either log;
    returns the list of checked iteration lengths."""
    checked = []
    logs = {}
    start = fastpath.LoopMemo._start_recording
    build = fastpath.LoopMemo._build

    def start_recording(memo, key):
        start(memo, key)
        rec, cl = memo._rec, memo.cluster
        log = logs[id(rec)] = [_reference_observe(memo, cl.cycle)]

        class Both(list):
            """The recording's row log, taking the reference observation
            with every row the stepped cycle appends after a cycle."""

            def append(self, row):
                cycle = cl.perf.cycles
                if self and cycle < rec.cycle + fastpath._MEMO_MAX_CYCLES:
                    log.extend([log[-1]] * (cycle - rec.cycle - len(log) + 1))
                    log.append(_reference_observe(memo, cycle + 1))
                super().append(row)

        rec.log = Both(rec.log)

    def checked_build(memo, rec, exit_key):
        got = build(memo, rec, exit_key)
        reference = _reference_schedule(logs.pop(id(rec)))
        memo._schedule = lambda rec, nstream: reference
        try:
            want = build(memo, rec, exit_key)
        finally:
            del memo._schedule
        if isinstance(want, str):
            assert got == want
        else:
            for field in ("dt", "schedule", "delta", "exit_key", "int_ops"):
                assert getattr(got, field) == getattr(want, field), field
            checked.append(got.dt)
        return got

    monkeypatch.setattr(fastpath.LoopMemo, "_start_recording",
                        start_recording)
    monkeypatch.setattr(fastpath.LoopMemo, "_build", checked_build)
    return checked


@pytest.mark.parametrize("variant", VARIANT_ORDER, ids=lambda v: v.label)
@pytest.mark.parametrize("kernel", ["box3d1r", "j3d27pt"])
def test_recorded_schedules_match_the_reference_observation(
        kernel, variant, monkeypatch):
    """Every recording of a Fig. 3 point (default grid) builds the same
    iteration from its flat rows as from the reference observation."""
    spec, grid = get_stencil(kernel)
    build = build_stencil(spec, grid, variant)
    checked = _check_recordings(monkeypatch)
    cluster = _cluster(build, "auto")
    cluster.run()
    assert len(checked) >= 10
    assert cluster.fastpath.stats["loop_recordings"] >= len(checked)


@pytest.mark.parametrize("num_cores", [1], ids=["2x4x16"])
def test_recorded_schedules_match_on_small_and_two_core_clusters(
        num_cores, monkeypatch):
    """The same on a small campaign point."""
    spec, _ = get_stencil("box3d1r")
    build = build_stencil(spec, Grid3d(nz=2, ny=4, nx=16),
                          Variant.from_label("Chaining+"))
    # Short runs: record from the first loop heads on.
    monkeypatch.setattr(fastpath, "_MEMO_WARMUP", 0)
    checked = _check_recordings(monkeypatch)
    _compare(build, "scalar-v2", num_cores=num_cores)
    assert checked


def test_permuted_index_array_misses_and_stays_identical():
    """A random permutation of the indirect indices scrambles every
    bank pattern: replayed timings must keep failing their stream
    observations and fall back, never replay wrongly."""
    spec, _ = get_stencil("j3d27pt")
    build = build_stencil(spec, SMALL["j3d27pt"],
                          Variant.from_label("Base"))
    arrays = list(build.arrays)
    addr, idx = arrays[3]
    arrays[3] = (addr, np.random.default_rng(7).permutation(idx))
    got = _compare(build, "scalar", arrays)
    stats = _loop_stats(got)
    assert stats["loop_misses"] > 0, stats


def test_store_into_the_input_window_declines_with_aliasing():
    """Point the Base variant's explicit ``fsd`` output pointer into its
    own input window: the stores would feed later stream reads, so the
    memo must decline those iterations."""
    spec, _ = get_stencil("box3d1r")
    build = build_stencil(spec, SMALL["box3d1r"],
                          Variant.from_label("Base"))
    a_in = build.arrays[0][0]
    # The output pointer is the only ``li s1`` of the program.
    asm = "\n".join(f"    li s1, {a_in + 64}"
                    if line.strip().startswith("li s1,") else line
                    for line in build.asm.splitlines()) + "\n"
    aliased = dataclasses.replace(build, asm=asm)
    got = _compare(aliased, "scalar")
    reasons = got.fastpath.stats["loop_reject_reasons"]
    assert reasons.get("aliasing", 0) > 0, reasons


def test_bne_vecop_loop_matches_the_seed_interpreter():
    build = build_vecop(128, VecopVariant.BASELINE, loop_mode="bne")
    got = _compare(build, "scalar")
    assert got.fastpath.stats["loop_regions_seen"] > 0


@pytest.mark.parametrize("variant", ["Base", "Chaining+"])
def test_two_cluster_halo_exchange_matches_scalar_v2(variant):
    spec, _ = get_stencil("j3d27pt")
    digests = {}
    for engine in ("scalar-v2", "auto"):
        cfg = SystemConfig(num_clusters=2, core=CoreConfig(engine=engine))
        build = build_partitioned_stencil(
            spec, Grid3d(4, 4, 16), Variant.from_label(variant), 2,
            cfg=cfg, iters=2)
        system = System(build.asms, cfg)
        build.load_into(system)
        system.run()
        assert np.array_equal(build.read_output(system), build.golden)
        digests[engine] = system.perf_digest()
    assert digests["auto"] == digests["scalar-v2"]


def test_trace_and_scalar_v2_never_use_the_memo():
    from repro.trace import TraceRecorder

    spec, _ = get_stencil("box3d1r")
    build = build_stencil(spec, Grid3d(nz=1, ny=3, nx=8),
                          Variant.from_label("Chaining+"))
    assert _cluster(build, "scalar-v2").fastpath is None
    traced = Cluster(build.asm, cfg=CoreConfig(engine="auto"),
                     symbols=build.symbols, trace=TraceRecorder())
    assert traced.fastpath is None
    assert not traced.core.memo_heads


def test_finished_cluster_is_freed_without_the_garbage_collector():
    import gc
    import weakref

    spec, _ = get_stencil("box3d1r")
    build = build_stencil(spec, Grid3d(nz=1, ny=3, nx=8),
                          Variant.from_label("Chaining+"))
    cluster = _cluster(build, "auto")
    cluster.run()
    ref = weakref.ref(cluster)
    gc.disable()
    try:
        del cluster
        assert ref() is None
    finally:
        gc.enable()


def test_loop_memo_reports_through_obs():
    """With telemetry on, a stencil run carries the ``loop_*`` counters
    into ``Result.meta["obs"]``, the metrics registry and one
    ``loop-memo`` span per replayed run; campaign aggregation sums
    them."""
    from repro import obs
    from repro.api import Session, workload
    from repro.obs.metrics import METRICS, campaign_obs

    METRICS.reset()
    tracer = obs.enable()
    try:
        point = workload("box3d1r", "Base", grid=(2, 4, 32))
        result = Session().run(point)
        loop = {k: v for k, v in result.meta["obs"]["fastpath"].items()
                if k.startswith("loop_")}
        assert loop["loop_hits"] > 0 and loop["loop_cycles"] > 0, loop
        assert loop["loop_reject_reasons"].get("warm-up", 0) > 0, loop
        assert METRICS.counters["loop.hits"] == loop["loop_hits"]
        assert METRICS.counters["loop.cycles"] == loop["loop_cycles"]
        spans = [e for e in tracer.events if e["name"] == "loop-memo"]
        assert spans and sum(e["args"]["iterations"] for e in spans) \
            == loop["loop_hits"]
        summary = campaign_obs(
            [SimpleNamespace(result=result, cached=False, status="ok",
                             seconds=0.1)], 0.1)
        assert summary["loop_hits"] == loop["loop_hits"]
        assert summary["loop_reject_reasons"] == loop["loop_reject_reasons"]
    finally:
        obs.disable()
        METRICS.reset()


def _element_addresses(cfg, mem) -> list[int]:
    """Byte address of every element an armed stream moves."""
    if cfg.indirect:
        return [cfg.base + (mem.read_u32(cfg.idx_base + k * cfg.idx_size)
                            << cfg.idx_shift)
                for k in range(cfg.total_elements())]
    gen = AffineGenerator(cfg)
    return [gen.next() for _ in range(cfg.total_elements())]


@pytest.mark.parametrize(
    "seed,num_banks,layout",
    [pytest.param(seed, banks, "default", id=f"{seed}-{banks}")
     for seed in range(8) for banks in (4, 32)]
    + [pytest.param(seed, banks, layout, id=f"{seed}-{banks}-{layout}")
       for layout in PORT_LAYOUTS for seed in range(8) for banks in (4, 32)])
def test_memory_side_simulator_matches_streamers_and_tcdm(seed, num_banks,
                                                          layout):
    """The counters-only memory side a hit re-simulates must agree with
    the real streamers and TCDM arbiter driven by the same per-cycle
    schedule of register pops, pushes and LSU requests: same FIFO fills,
    positions, port flags and statistics, grants and round robin -- and
    every stream observation the schedule logs must come out as logged
    (a flipped one makes the simulator refuse the iteration).  The
    simulator is generated for the port layout, default or not; the
    streamers and the TCDM step on the seed's ``step`` and
    ``arbitrate``."""
    rng = np.random.default_rng(seed)
    mem = Memory(1 << 16)
    tcdm = Tcdm(mem, num_banks=num_banks)
    tcdm.port("core", priority=0)
    lsu = tcdm.port("fplsu", priority=1)
    streamers = [SsrStreamer(i, tcdm, fifo_depth=4) for i in range(3)]
    apply_layout(layout, streamers, lsu)
    index = rng.integers(0, 256, size=96).astype(np.uint32)
    mem.write_array(0x8000, index)
    configs = [
        SsrConfig(base=0x1000, bounds=[8, 12] + [1] * 4,
                  strides=[8, int(rng.choice([64, 72, 8]))] + [0] * 4,
                  ndims=2, repeat=int(rng.integers(0, 2))),
        SsrConfig(base=0x2000, bounds=[96] + [1] * 5, strides=[0] * 6,
                  indirect=True, idx_base=0x8000, idx_size=4),
        SsrConfig(base=0x6000, bounds=[96] + [1] * 5,
                  strides=[8] + [0] * 5, mode=SsrMode.WRITE),
    ]
    for s, cfg in zip(streamers, configs):
        s._arm(cfg)
    modes = ((0, timing.AFFINE_READ, bool(configs[0].repeat)),
             (1, timing.INDIRECT_READ, False), (2, timing.WRITE, False))
    bank = tcdm.bank_of
    banks = [[bank(a) for a in _element_addresses(cfg, mem)]
             for cfg in configs]
    ibanks = [None, [bank(0x8000 + 4 * k) for k in range(96)], None]
    state0 = [[0, 0, False, False, False, 0, False, False, 0, 0, False, -1]
              + [0] * 6 for _ in configs]

    schedule, lsu_banks = [], []
    for _ in range(400):
        pops, pushes, triples = [0, 0, 0], [0, 0, 0], []
        for si in (0, 1):
            s = streamers[si]
            if s._to_consume and rng.random() < 0.7:
                want = int(rng.integers(1, 3))
                ok = s.available_pops() >= want
                triples.append((si, want, ok))
                if ok:
                    for _ in range(want):
                        s.pop()
                    pops[si] = want
        w = streamers[2]
        if w._to_produce and rng.random() < 0.6:
            ok = w.can_push()
            triples.append((2, 0, ok))
            if ok:
                w.push(float(rng.random()))
                pushes[2] = 1
        lsu_index = -1
        lsu._response_ready = False
        lsu._response = None
        if rng.random() < 0.3:
            addr = 0x4000 + 8 * int(rng.integers(0, 64))
            lsu_index = len(lsu_banks)
            lsu_banks.append(bank(addr))
            _post_read(lsu, addr)
        for s in streamers:
            s.step()
        tcdm.arbitrate()
        schedule.append((tuple(pops), tuple(pushes), lsu_index,
                         tuple(t[:2] for t in triples),
                         tuple(t[2] for t in triples), tuple(triples)))

    factory = fastpath._simulator(modes, streamers, lsu, tcdm)
    sim = factory(banks, ibanks, [c.total_elements() for c in configs],
                  [c.repeat + 1 for c in configs])
    node = fastpath._Node(SimpleNamespace(dt=len(schedule),
                                          schedule=tuple(schedule)))
    out = sim([list(st) for st in state0], node, lsu_banks, 10**6, 0)
    assert out is not None
    _, states, rr, accesses, conflicts, grants = out
    assert (rr, accesses, conflicts) == (
        tcdm._rr_offset, tcdm.total_accesses, tcdm.total_conflicts)
    assert grants == [(2, k) for k in range(len(grants))]
    assert len(grants) == streamers[2].data_port.writes
    for si, s in enumerate(streamers):
        (fill, rep, requested, dpend, dresp, ifill, ipend, iresp, pos,
         moved, held, _, active, dreads, dwrites, dconf, ireads,
         iconf) = states[si]
        gen = s._igen._pos if s._igen is not None else s._gen.position
        assert (fill, rep, requested, ifill, pos, moved, held) == (
            len(s._fifo), s._rep_count, s._data_requested,
            len(s._idx_fifo), gen, s.elements_moved,
            s._pending_write_addr is not None), si
        dport, iport = s.data_port, s.idx_port
        assert (dpend, dresp, ipend, iresp) == (
            dport._pending is not None, dport._response_ready,
            iport._pending is not None, iport._response_ready), si
        assert (active, dreads, dwrites, dconf, ireads, iconf) == (
            s.active_cycles, dport.reads, dport.writes, dport.conflicts,
            iport.reads, iport.conflicts), si

    # A stream observation that comes out otherwise refuses the timing.
    at = next(c for c, entry in enumerate(schedule) if entry[5])
    pops, pushes, lsu_index, checks, expect, triples = schedule[at]
    flipped = ((*triples[0][:2], not triples[0][2]),) + triples[1:]
    bad = list(schedule)
    bad[at] = (pops, pushes, lsu_index, checks,
               tuple(t[2] for t in flipped), flipped)
    node = fastpath._Node(SimpleNamespace(dt=len(bad), schedule=tuple(bad)))
    assert sim([list(st) for st in state0], node, lsu_banks, 10**6,
               0) is None


def _post_read(port, addr: int) -> None:
    req = port._req
    req.addr, req.is_write, req.data, req.width = addr, False, None, 8
    port._pending = req


@pytest.mark.parametrize("change", PORT_LAYOUTS)
def test_nondefault_port_layouts_replay_exactly(change):
    """FIFO depths and port priorities are generation parameters of the
    memory side a hit re-simulates: a cluster built with another stream
    FIFO depth, stream port priority or LSU priority still replays, and
    stays exact."""
    spec, _ = get_stencil("box3d1r")
    build = build_stencil(spec, SMALL["box3d1r"],
                          Variant.from_label("Chaining+"))
    clusters = [_cluster(build, engine) for engine in ("scalar", "auto")]
    for cluster in clusters:
        apply_layout(change, cluster.fp.streamers, cluster.fp.lsu.port)
    for cluster in clusters:
        cluster.run()
    ref, got = clusters
    assert machine_digest(got) == machine_digest(ref)
    stats = _loop_stats(got)
    assert stats["loop_hits"] > 0, stats


#: Loops that arm no stream: integer only, FP compute only, FP loads and
#: stores through the LSU.
_STREAMLESS_LOOPS = {
    "int": "    addi t1, t1, 3\n",
    "fadd": "    fadd.d fa0, fa0, fa1\n",
    "fld-fsd": "    fld fa1, 0(a0)\n    fadd.d fa0, fa0, fa1\n"
               "    fsd fa0, 8(a0)\n",
}


@pytest.mark.parametrize("num_ssrs", [0, 3])
@pytest.mark.parametrize("body", sorted(_STREAMLESS_LOOPS))
def test_loops_without_streams_replay_exactly(body, num_ssrs):
    """A loop with no armed stream replays -- with three streamers idle
    or none at all -- and ends on the seed interpreter's machine."""
    source = ("    li t0, 300\n    li a0, 4096\n    fcvt.d.w fa1, t0\n"
              "loop:\n" + _STREAMLESS_LOOPS[body]
              + "    addi t0, t0, -1\n    bnez t0, loop\n    ebreak\n")
    clusters = [Cluster(source, cfg=CoreConfig(engine=engine,
                                               num_ssrs=num_ssrs))
                for engine in ("scalar", "auto")]
    for cluster in clusters:
        cluster.run()
    ref, got = clusters
    assert machine_digest(got) == machine_digest(ref)
    stats = _loop_stats(got)
    assert stats["loop_hits"] > 0, stats


@pytest.mark.parametrize("engine", ["auto", "scalar-v2", "scalar"])
def test_a_finished_cluster_is_freed_without_the_cycle_collector(engine):
    """No reference cycle outlives a run: with the cyclic collector off,
    a finished cluster's FP subsystem and core are freed by reference
    counting, and its fast-path stats stay readable after the run."""
    import gc
    import weakref

    spec, _ = get_stencil("box3d1r")
    build = build_stencil(spec, Grid3d(nz=2, ny=4, nx=16),
                          Variant.from_label("Chaining+"))
    gc.collect()
    gc.disable()
    try:
        cluster = _cluster(build, engine)
        cluster.run()
        if engine == "auto":
            assert cluster.fastpath.stats["loop_regions_seen"] > 0
        refs = [weakref.ref(obj) for obj in (cluster, cluster.fp,
                                             cluster.core)]
        del cluster
        assert [ref() for ref in refs] == [None] * 3
    finally:
        gc.enable()


# -- random stream loops ------------------------------------------------------

#: Where a random stream loop keeps its data: SSR0 gathers from ``GATHER``
#: on through the index array at ``INDEX``, SSR1 reads from ``AFFINE``,
#: SSR2 writes from ``WRITTEN`` on, ``fld`` loads from ``GATHER`` and
#: ``fsd`` stores from ``STORED`` on.
GATHER, INDEX, AFFINE, WRITTEN, STORED = (0x2000, 0x4000, 0x8000, 0x10000,
                                          0x18000)


def _random_stream_loop(rng: random.Random, rearm: bool
                        ) -> tuple[str, dict[int, np.ndarray]]:
    """A :func:`random_stream_body` inside a ``bne`` loop of 40-120
    trips, with ``fld``, ``fsd`` (of plain and stream registers) and
    integer filler, and its index array.  With ``rearm`` the trips are
    split into rows: each row re-arms SSR0 over its own window from the
    pointer register ``s0`` (``SsrPatternAsm.emit_arm(base_reg="s0")``,
    the stencils' row end), so SSR0 holds one row's elements."""
    body, pops, pushes = random_stream_body(rng)
    rows = rng.randrange(3, 7) if rearm else 1
    trips = rng.randrange(40, 121) // rows
    for _ in range(rng.randrange(0, 4)):
        at = rng.randrange(len(body) + 1)
        kind = rng.randrange(4)
        if kind == 0:
            line = f"fld f{rng.randrange(3, 7)}, {8 * rng.randrange(64)}(x8)"
        elif kind == 1:
            reg = rng.choice((0, 1, 3, 4, 5, 6))
            if reg < 2:
                pops[reg] += 1
            line = f"fsd f{reg}, {8 * rng.randrange(16)}(x9)"
        elif kind == 2:
            line = "addi x9, x9, 8"
        else:
            line = (f"{rng.choice(('add', 'xor', 'mul', 'sltu'))} "
                    f"x{rng.randrange(10, 14)}, x{rng.randrange(10, 14)}, "
                    f"x{rng.randrange(5, 14)}")
        body.insert(at, line)
    n0, n1 = pops[0] * trips, pops[1] * trips * rows
    repeat0 = 1 if n0 % 2 == 0 and rng.random() < 0.4 else 0
    repeat1 = 1 if n1 % 2 == 0 and rng.random() < 0.4 else 0
    e0, e1 = n0 // (repeat0 + 1), n1 // (repeat1 + 1)
    inner = rng.choice([d for d in range(1, min(e1, 16) + 1) if e1 % d == 0])
    step = 8 * rng.choice((1, 2))
    # One loop in ten walks SSR1 below address 0 halfway through.
    outer = rng.choice((0, 8, step * inner) * 3
                       + (-8 * (AFFINE // 8 // max(1, e1 // inner // 2)),))
    idx_size = rng.choice((2, 4))
    gather = SsrPatternAsm(ssr=0, base=GATHER, bounds=[e0], strides=[8],
                           repeat=repeat0, indirect=True, idx_base=INDEX,
                           idx_size=idx_size, idx_shift=3)
    streams = [
        SsrPatternAsm(ssr=1, base=AFFINE + 8 * rng.randrange(8),
                      bounds=[inner, e1 // inner],
                      strides=[step, outer],
                      repeat=repeat1),
        SsrPatternAsm(ssr=2, base=WRITTEN, bounds=[pushes * trips * rows],
                      strides=[8], write=True)]
    lines = [f"li x8, {GATHER}", f"li x9, {STORED}", f"li s0, {GATHER}",
             f"li x10, {rng.randrange(1 << 12)}", "li x11, 7"]
    lines += [p.emit() for p in streams]
    lines += [f"li x7, {(1 << 20) | (1 << 21)}", "csrrw x0, 0x7C3, x7"]
    if rearm:
        lines += [gather.emit_setup(), "csrrsi x0, 0x7C0, 1",
                  f"li s3, {rows}", "row:", gather.emit_arm(base_reg="s0")]
    else:
        lines += [gather.emit(), "csrrsi x0, 0x7C0, 1"]
    lines += [f"li x5, {trips}", "loop:", *body, "addi x5, x5, -1",
              "bne x5, x0, loop"]
    if rearm:
        # The next row's window starts 1-4 doubles further on.
        lines += [f"addi s0, s0, {8 * rng.randrange(1, 5)}",
                  "addi s3, s3, -1", "bne s3, x0, row"]
    lines += ["csrrci x0, 0x7C0, 1", "csrrwi x0, 0x7C3, 0",
              "fsd f3, 0(x9)", "ebreak"]
    dtype = np.uint16 if idx_size == 2 else np.uint32
    indices = np.array([rng.randrange(120) for _ in range(e0)], dtype=dtype)
    return "\n".join(lines), {INDEX: indices}


def _outcome(source: str, engine: str, arrays: dict, data) -> tuple:
    """How a run of ``source`` ends -- normally or with an exception --
    and the machine it leaves, plus the loop memo's hits."""
    cluster = Cluster(source, cfg=CoreConfig(engine=engine))
    cluster.load_f64(GATHER, data)
    cluster.load_f64(AFFINE, data)
    for addr, array in arrays.items():
        cluster.mem.write_array(addr, array)
    try:
        cluster.run(max_cycles=100_000)
        error = None
    except Exception as exc:                    # compared, not raised
        error = (type(exc).__name__, str(exc))
    digest = machine_digest(cluster)
    # Bit patterns: a NaN result must match itself.
    digest["fpregs"] = [struct.pack(f"<{len(v)}d", *v)
                        for v in digest["fpregs"]]
    hits = cluster.fastpath.stats["loop_hits"] if cluster.fastpath else 0
    return (error, digest), hits


#: Seeds per test case of the random stream loops, and the share of them
#: that must replay at least one iteration.
_LOOP_SEEDS = 40
_LOOP_HIT_SHARE = 0.7


@pytest.mark.parametrize("rearm", [False, True], ids=["loop", "row-end"])
@pytest.mark.parametrize("chunk", range(4))
def test_random_stream_loops_match_the_seed_interpreter(chunk, rearm,
                                                        monkeypatch):
    """Random stream loops under ``auto`` end exactly as on the seed
    interpreter, exceptions included: with every loop head recorded
    from the first on (``_MEMO_WARMUP`` 0), and for every fifth seed
    also with the default warm-up.  Most seeds must replay iterations,
    so a memo that always declines cannot pass."""
    hit = 0
    seeds = range(chunk * _LOOP_SEEDS, (chunk + 1) * _LOOP_SEEDS)
    for seed in seeds:
        rng = random.Random(9000 + 1000 * rearm + seed)
        source, arrays = _random_stream_loop(rng, rearm)
        data = np.array([rng.uniform(-1, 1) for _ in range(2048)])
        want, _ = _outcome(source, "scalar", arrays, data)
        warmups = (0, fastpath._MEMO_WARMUP) if seed % 5 == 0 else (0,)
        for warmup in warmups:
            monkeypatch.setattr(fastpath, "_MEMO_WARMUP", warmup)
            got, hits = _outcome(source, "auto", arrays, data)
            assert got == want, f"seed {seed}, warm-up {warmup}\n{source}"
            hit += bool(hits) and not warmup
    assert hit >= _LOOP_HIT_SHARE * len(seeds), hit
