"""Banked TCDM arbitration tests."""

import pytest

from repro.mem import timing
from repro.mem.memory import Memory
from repro.mem.tcdm import Tcdm


def make_tcdm(banks=4):
    return Tcdm(Memory(1 << 16), num_banks=banks, bank_width=8)


def test_bank_mapping_word_interleaved():
    tcdm = make_tcdm(banks=4)
    assert tcdm.bank_of(0) == 0
    assert tcdm.bank_of(8) == 1
    assert tcdm.bank_of(24) == 3
    assert tcdm.bank_of(32) == 0
    assert tcdm.bank_of(4) == 0    # same 8-byte word


def test_power_of_two_banks_required():
    with pytest.raises(ValueError):
        Tcdm(Memory(1024), num_banks=3)


def test_read_after_write_through_ports():
    tcdm = make_tcdm()
    w = tcdm.port("w", priority=0)
    r = tcdm.port("r", priority=1)
    w.request(16, is_write=True, data=2.5)
    tcdm.arbitrate()
    assert w.response_ready()
    w.take_response()
    r.request(16)
    tcdm.arbitrate()
    assert r.take_response() == 2.5


def test_conflict_same_bank_loses_lower_priority():
    tcdm = make_tcdm(banks=4)
    hi = tcdm.port("hi", priority=0)
    lo = tcdm.port("lo", priority=5)
    tcdm.mem.write_f64(8, 1.0)
    tcdm.mem.write_f64(8 + 32, 2.0)   # same bank (4 banks * 8B = 32)
    hi.request(8)
    lo.request(40)
    tcdm.arbitrate()
    assert hi.response_ready() and not lo.response_ready()
    assert lo.conflicts == 1
    assert tcdm.total_conflicts == 1
    # The loser retries automatically next cycle.
    tcdm.arbitrate()
    assert lo.take_response() == 2.0


def test_no_conflict_on_different_banks():
    tcdm = make_tcdm(banks=4)
    a = tcdm.port("a", priority=0)
    b = tcdm.port("b", priority=1)
    a.request(0)
    b.request(8)
    tcdm.arbitrate()
    assert a.response_ready() and b.response_ready()
    assert tcdm.total_conflicts == 0


def test_streamer_round_robin_fairness():
    tcdm = make_tcdm(banks=2)
    s0 = tcdm.port("s0", priority=10, is_streamer=True)
    s1 = tcdm.port("s1", priority=10, is_streamer=True)
    wins = {"s0": 0, "s1": 0}
    for _ in range(6):
        s0.request(0)
        s1.request(16)   # same bank as 0 with 2 banks
        tcdm.arbitrate()
        for port, name in ((s0, "s0"), (s1, "s1")):
            if port.response_ready():
                port.take_response()
                wins[name] += 1
        # Drain the loser so both are free next round.
        tcdm.arbitrate()
        for port in (s0, s1):
            if port.response_ready():
                port.take_response()
    assert wins["s0"] > 0 and wins["s1"] > 0


def test_port_protocol_violations():
    tcdm = make_tcdm()
    p = tcdm.port("p", priority=0)
    p.request(0)
    with pytest.raises(RuntimeError, match="pending"):
        p.request(8)
    tcdm.arbitrate()
    with pytest.raises(RuntimeError, match="unconsumed"):
        p.request(8)
    p.take_response()
    with pytest.raises(RuntimeError, match="no response"):
        p.take_response()


def test_width_4_and_2_accesses():
    tcdm = make_tcdm()
    p = tcdm.port("p", priority=0)
    p.request(4, is_write=True, data=0xABCD, width=4)
    tcdm.arbitrate()
    p.take_response()
    p.request(4, width=4)
    tcdm.arbitrate()
    assert p.take_response() == 0xABCD
    p.request(2, is_write=True, data=0x1234, width=2)
    tcdm.arbitrate()
    p.take_response()
    p.request(2, width=2)
    tcdm.arbitrate()
    assert p.take_response() == 0x1234


def test_stats_accumulate():
    tcdm = make_tcdm()
    p = tcdm.port("p", priority=0)
    for i in range(3):
        p.request(i * 8, is_write=True, data=float(i))
        tcdm.arbitrate()
        p.take_response()
    stats = tcdm.stats()
    assert stats["p_writes"] == 3
    assert stats["total_accesses"] == 3


def generated_arbiter(tcdm: Tcdm):
    """:data:`repro.mem.timing.ARBITRATION` with data over every port of
    ``tcdm``, on its own (the stepped cycle inlines it)."""
    layouts = list(timing.port_layouts(tcdm).values())
    body = ["granted = 0"] + [f"r{i} = P{i}._pending"
                              for i in range(len(layouts))]
    body += timing.arbitration_lines(
        [(i, f"P{i}.priority", rot, streamer, 0)
         for i, (_, rot, _, streamer) in enumerate(layouts)],
        len(tcdm._streamer_ports), "T._rr_offset", False) + timing.FLUSH
    source = "def factory(T, ports, mem, f64, u32):\n" + timing.block(
        timing.GRANT_BIND.splitlines()
        + [f"P{i} = ports[{i}]" for i in range(len(layouts))]
        + ["def arbitrate():"] + ["    " + line for line in body]
        + ["return arbitrate"], 4) + "\n"
    factory = timing.compile_factory(source, "<tcdm arbiter>")
    return factory(tcdm, tcdm.ports, tcdm.mem, *timing.unpackers())


@pytest.mark.parametrize("seed", range(6))
def test_generated_arbiter_matches_the_reference(seed):
    """The generated arbitration (:func:`generated_arbiter`) grants what
    ``Tcdm.arbitrate`` grants, cycle by cycle: on a layout with mixed
    priorities, two streamer ports sharing a name and a plain port named
    like a streamer (the name-keyed rotation), reads and writes of every
    width, and a priority changed half way."""
    import random

    rng = random.Random(seed)
    layout = [("core", 0, False), ("lsu", 1, False), ("s0", 10, True),
              ("s1", 10, True), ("s0", 10, True), ("s1", 3, False),
              ("s2", 10, True), ("dma", 10, False)]
    tcdms = [make_tcdm(banks=4) for _ in range(2)]
    ports = [[t.port(name, prio, streamer) for name, prio, streamer in layout]
             for t in tcdms]
    arbitrate = generated_arbiter(tcdms[1])
    for cycle in range(600):
        if cycle == 300:
            for side in ports:
                side[3].priority = 0
        for i in range(len(layout)):
            busy = ports[0][i]._pending is not None
            if ports[0][i]._response_ready:
                for side in ports:
                    side[i].take_response()
            elif not busy and rng.random() < 0.6:
                width = rng.choice([1, 2, 4, 8])
                addr = width * rng.randrange(64 // width * 8)
                write = rng.random() < 0.4
                data = rng.randrange(1 << 8 * width - 1) if write else None
                for side in ports:
                    side[i].request(addr, is_write=write, data=data,
                                    width=width)
        tcdms[0].arbitrate()
        arbitrate()
        assert tcdms[0].stats() == tcdms[1].stats(), cycle
        assert tcdms[0]._rr_offset == tcdms[1]._rr_offset, cycle
        for a, b in zip(*ports):
            assert (a._pending is None, a._response_ready, a._response) \
                == (b._pending is None, b._response_ready, b._response), cycle
        assert tcdms[0].mem._data == tcdms[1].mem._data, cycle
