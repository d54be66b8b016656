"""SSR streamer (data mover) tests, driven cycle by cycle."""

import numpy as np
import pytest

from repro.mem.memory import Memory
from repro.mem.tcdm import Tcdm
from repro.ssr.config import CfgField, SsrConfigSpace, cfg_addr, \
    split_cfg_addr
from repro.ssr.streamer import SsrStreamer


def make_streamer(fifo_depth=4):
    mem = Memory(1 << 16)
    tcdm = Tcdm(mem, num_banks=8)
    streamer = SsrStreamer(0, tcdm, fifo_depth=fifo_depth)
    return mem, tcdm, streamer


def arm_read(streamer, base, n, stride=8, repeat=0):
    streamer.write_cfg(CfgField.BASE, base)
    streamer.write_cfg(CfgField.BOUND0, n)
    streamer.write_cfg(CfgField.STRIDE0, stride)
    streamer.write_cfg(CfgField.REPEAT, repeat)
    streamer.write_cfg(CfgField.CTRL, 0)


def arm_write(streamer, base, n, stride=8):
    streamer.write_cfg(CfgField.BASE, base)
    streamer.write_cfg(CfgField.BOUND0, n)
    streamer.write_cfg(CfgField.STRIDE0, stride)
    streamer.write_cfg(CfgField.REPEAT, 0)
    streamer.write_cfg(CfgField.CTRL, 1)


def tick(streamer, tcdm, cycles=1):
    for _ in range(cycles):
        streamer.step()
        tcdm.arbitrate()


def test_read_stream_delivers_in_order():
    mem, tcdm, s = make_streamer()
    data = np.arange(8, dtype=np.float64)
    mem.write_array(0x100, data)
    arm_read(s, 0x100, 8)
    out = []
    for _ in range(40):
        tick(s, tcdm)
        while s.can_pop():
            out.append(s.pop())
    assert out == list(data)
    assert s.done


def test_read_stream_prefetch_bounded_by_fifo():
    mem, tcdm, s = make_streamer(fifo_depth=2)
    mem.write_array(0x100, np.arange(16, dtype=np.float64))
    arm_read(s, 0x100, 16)
    tick(s, tcdm, cycles=10)   # no pops at all
    # At most fifo_depth elements buffered (plus none lost).
    assert len(s._fifo) <= 2
    assert s.data_port.reads <= 3


def test_repeat_serves_each_element_multiple_times():
    mem, tcdm, s = make_streamer()
    mem.write_array(0x100, np.array([1.0, 2.0]))
    arm_read(s, 0x100, 2, repeat=2)
    out = []
    for _ in range(30):
        tick(s, tcdm)
        while s.can_pop():
            out.append(s.pop())
    assert out == [1.0, 1.0, 1.0, 2.0, 2.0, 2.0]
    # Each element is fetched from memory only once.
    assert s.data_port.reads == 2


def test_available_pops_accounting():
    mem, tcdm, s = make_streamer()
    mem.write_array(0x100, np.array([1.0, 2.0]))
    arm_read(s, 0x100, 2, repeat=1)
    for _ in range(10):
        tick(s, tcdm)
    assert s.available_pops() == 4
    s.pop()
    assert s.available_pops() == 3


def test_pop_empty_raises():
    mem, tcdm, s = make_streamer()
    arm_read(s, 0x100, 4)
    with pytest.raises(RuntimeError, match="empty"):
        s.pop()


def test_write_stream_drains_to_memory():
    mem, tcdm, s = make_streamer()
    arm_write(s, 0x200, 4)
    values = [1.5, -2.5, 3.5, 4.5]
    pushed = 0
    for _ in range(40):
        if pushed < 4 and s.can_push():
            s.push(values[pushed])
            pushed += 1
        tick(s, tcdm)
    assert s.done
    assert list(mem.read_array(0x200, (4,))) == values


def test_write_stream_strided():
    mem, tcdm, s = make_streamer()
    arm_write(s, 0x200, 3, stride=16)
    for v in (1.0, 2.0, 3.0):
        while not s.can_push():
            tick(s, tcdm)
        s.push(v)
        tick(s, tcdm)
    for _ in range(20):
        tick(s, tcdm)
    assert mem.read_f64(0x200) == 1.0
    assert mem.read_f64(0x210) == 2.0
    assert mem.read_f64(0x220) == 3.0


def test_push_full_fifo_raises():
    mem, tcdm, s = make_streamer(fifo_depth=2)
    arm_write(s, 0x200, 8)
    s.push(1.0)
    s.push(2.0)
    assert not s.can_push()
    with pytest.raises(RuntimeError, match="full"):
        s.push(3.0)


def test_indirect_read_gathers():
    mem, tcdm, s = make_streamer()
    data = np.arange(16, dtype=np.float64) * 10
    idx = np.array([3, 0, 7, 7, 1], dtype=np.uint32)
    mem.write_array(0x400, data)
    mem.write_array(0x100, idx)
    s.write_cfg(CfgField.BASE, 0x400)
    s.write_cfg(CfgField.BOUND0, len(idx))
    s.write_cfg(CfgField.STRIDE0, 0)
    s.write_cfg(CfgField.REPEAT, 0)
    s.write_cfg(CfgField.IDX_BASE, 0x100)
    s.write_cfg(CfgField.IDX_CFG, 2 | (3 << 4))   # 4-byte idx, shift 3
    s.write_cfg(CfgField.CTRL, 2)                 # read + indirect
    out = []
    for _ in range(60):
        tick(s, tcdm)
        while s.can_pop():
            out.append(s.pop())
    assert out == [30.0, 0.0, 70.0, 70.0, 10.0]
    # One index fetch and one data fetch per element.
    assert s.idx_port.reads == 5
    assert s.data_port.reads == 5


def test_reconfig_while_active_raises():
    mem, tcdm, s = make_streamer()
    mem.write_array(0x100, np.zeros(4))
    arm_read(s, 0x100, 4)
    with pytest.raises(RuntimeError, match="active"):
        s.write_cfg(CfgField.BASE, 0x200)


def test_rearm_after_completion():
    mem, tcdm, s = make_streamer()
    mem.write_array(0x100, np.array([1.0]))
    mem.write_array(0x180, np.array([9.0]))
    arm_read(s, 0x100, 1)
    for _ in range(10):
        tick(s, tcdm)
    assert s.pop() == 1.0
    assert s.done
    arm_read(s, 0x180, 1)
    for _ in range(10):
        tick(s, tcdm)
    assert s.pop() == 9.0


def test_cfg_addr_split_roundtrip():
    for ssr in range(3):
        for field in (0, 1, 5, 14, 16):
            assert split_cfg_addr(cfg_addr(ssr, field)) == (ssr, field)


def test_cfgspace_shadow_read_back():
    space = SsrConfigSpace(1)
    space.write(CfgField.BOUND0 + 2, 13, active=False)
    space.write(CfgField.STRIDE0, -24 & 0xFFFFFFFF, active=False)
    space.write(CfgField.BASE, 0x800, active=False)
    assert space.read(CfgField.BOUND0 + 2) == 13
    assert space.read(CfgField.STRIDE0) == -24     # sign restored
    assert space.read(CfgField.BASE) == 0x800


def test_cfgspace_unknown_field():
    space = SsrConfigSpace(0)
    with pytest.raises(ValueError, match="unknown config field"):
        space.write(40, 1, active=False)


# -- placing a stream at a position -------------------------------------------

def arm_indirect(streamer, base, n):
    streamer.write_cfg(CfgField.BASE, base)
    streamer.write_cfg(CfgField.BOUND0, n)
    streamer.write_cfg(CfgField.STRIDE0, 0)
    streamer.write_cfg(CfgField.REPEAT, 0)
    streamer.write_cfg(CfgField.IDX_BASE, 0x8000)
    streamer.write_cfg(CfgField.IDX_CFG, 2 | (3 << 4))   # 4-byte idx, shift 3
    streamer.write_cfg(CfgField.CTRL, 2)


#: Per stream kind: how it is armed on a base, its CTRL value.
PLACED = {
    "read": (lambda s, base: arm_read(s, base, 24), 0),
    "read-repeat": (lambda s, base: arm_read(s, base, 24, repeat=1), 0),
    "indirect-read": (lambda s, base: arm_indirect(s, base, 24), 2),
    "write": (lambda s, base: arm_write(s, base, 24), 1),
}


def _drive(streamers, rng):
    """One cycle: the FPU pops or pushes (the same on every streamer,
    decided on the first), then each streamer and its TCDM step."""
    first = streamers[0][0]
    if rng.random() < 0.6:
        if first.cfg.mode == 0 and first.can_pop():
            for s, _ in streamers:
                s.pop()
        elif first.cfg.mode == 1 and first._to_produce \
                and first.can_push():
            value = rng.random()
            for s, _ in streamers:
                s.push(value)
    for s, tcdm in streamers:
        tick(s, tcdm)


def _placed_state(s, moved):
    """Everything a placed stream must reproduce; counters since
    ``moved`` (the streamer's counters when it was placed)."""
    def port(p):
        req = p._pending
        return (None if req is None else
                (req.addr, req.is_write, req.data, req.width),
                p._response_ready, p._response)
    gen = s._gen.position if s._gen is not None else s._igen._pos
    counters = (s.active_cycles, s.elements_moved, s.data_port.reads,
                s.data_port.writes, s.data_port.conflicts, s.idx_port.reads,
                s.idx_port.conflicts)
    return (list(s._fifo), list(s._idx_fifo), s._rep_count, s._to_consume,
            s._to_produce, s._data_requested, s._pending_write_addr,
            port(s.data_port), port(s.idx_port), gen, s.position(),
            tuple(c - m for c, m in zip(counters, moved)))


@pytest.mark.parametrize("rearmed", [False, True], ids=["armed", "rearmed"])
@pytest.mark.parametrize("kind", sorted(PLACED))
def test_placed_stream_steps_like_the_stepped_one(kind, rearmed):
    """Step a streamer ``k`` cycles, read its position, place a fresh
    streamer there, then step both: FIFOs, ports, generator and
    counters agree every cycle.  A re-armed reference counts its
    position from the re-arm (the fresh one re-arms through
    ``SsrStreamer.rearm`` before it is placed)."""
    from repro.ssr.address_gen import affine_addresses

    arm, ctrl = PLACED[kind]
    for k in range(0, 48, 3):
        rng = np.random.default_rng(k)
        mem, tcdm, ref = make_streamer()
        mem.write_array(0x1000, rng.uniform(-1, 1, 512))
        mem.write_array(0x8000, rng.integers(0, 64, 24).astype(np.uint32))
        arm(ref, 0x1000)
        if rearmed:
            while not ref.done:
                _drive([(ref, tcdm)], rng)
            arm(ref, 0x1400)
        for _ in range(k):
            _drive([(ref, tcdm)], rng)

        fmem, ftcdm, fresh = make_streamer()
        fmem._data[:] = mem._data
        ftcdm._rr_offset = tcdm._rr_offset
        arm(fresh, 0x1000)
        if rearmed:
            fresh.rearm(0x1400, ctrl)
        cfg = ref.cfg
        addr = cfg.base + (mem.read_array(0x8000, (24,), np.uint32)
                           .astype(np.int64)
                           << cfg.idx_shift) if cfg.indirect \
            else affine_addresses(cfg)
        fresh.place(ref.position(), addr, list(ref._fifo))
        moved = [(0,) * 7, (ref.active_cycles, ref.elements_moved,
                            ref.data_port.reads, ref.data_port.writes,
                            ref.data_port.conflicts, ref.idx_port.reads,
                            ref.idx_port.conflicts)]
        for cycle in range(60):
            assert _placed_state(fresh, moved[0]) == \
                _placed_state(ref, moved[1]), (k, cycle)
            _drive([(ref, tcdm), (fresh, ftcdm)], rng)
        assert bytes(fmem._data) == bytes(mem._data), k
