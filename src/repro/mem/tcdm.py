"""Banked TCDM (L1 scratchpad) timing model.

The Snitch cluster TCDM is organized as word-interleaved SRAM banks behind
a single-cycle logarithmic interconnect.  Each bank serves one request per
cycle; concurrent requests to the same bank from different ports conflict
and all but one must retry.

Protocol (one simulated cycle):

1. During the cycle, requesters call :meth:`TcdmPort.request`.  A port can
   hold at most one outstanding request; it stays pending until granted.
2. At the end of the cycle the cluster calls :meth:`Tcdm.arbitrate`.  Per
   bank, the highest-priority pending request is granted and performed on
   the backing :class:`~repro.mem.memory.Memory`.  Losing requests remain
   pending and are retried automatically.
3. A granted read's data becomes available to the requester in the *next*
   cycle (:meth:`TcdmPort.take_response`), modelling the one-cycle SRAM
   latency.

Ports of the SSR class are arbitrated round-robin among themselves so a
pathological stream cannot starve another; LSU ports have static priority
over streamers (matching Snitch, where core requests preempt the
streamers).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.mem.memory import Memory

_UNPACK_F64 = struct.Struct("<d").unpack_from
_UNPACK_U32 = struct.Struct("<I").unpack_from


@dataclass(slots=True)
class _Request:
    addr: int
    is_write: bool
    data: float | int | None
    width: int


class TcdmPort:
    """One requester port into the TCDM."""

    def __init__(self, name: str, priority: int, is_streamer: bool = False):
        self.name = name
        self.priority = priority
        self.is_streamer = is_streamer
        #: Rotation index used for round-robin tie-breaking; maintained
        #: by :meth:`Tcdm.port` (the index of the *last* streamer port
        #: registered under this port's name, mirroring the name-keyed
        #: rotation table of the original arbitration loop).
        self._rot_index: int | None = None
        self._pending: _Request | None = None
        #: The port's reusable request record: the scalar-v2 requesters
        #: fill it in and point ``_pending`` at it instead of allocating
        #: a record per request.  A grant releases it for the next
        #: request, so no code may keep ``_pending`` across a grant.
        self._req = _Request(0, False, None, 8)
        self._response: float | int | None = None
        self._response_ready = False
        # Statistics.
        self.reads = 0
        self.writes = 0
        self.conflicts = 0

    # -- requester side ---------------------------------------------------

    @property
    def busy(self) -> bool:
        """True while a request is pending or a response is unconsumed."""
        return self._pending is not None or self._response_ready

    def request(self, addr: int, is_write: bool = False,
                data: float | int | None = None, width: int = 8) -> None:
        """Post a request.  The port must be idle."""
        if self._pending is not None:
            raise RuntimeError(f"port {self.name} already has a pending "
                               f"request")
        if self._response_ready:
            raise RuntimeError(f"port {self.name} has an unconsumed response")
        self._pending = _Request(addr, is_write, data, width)

    def response_ready(self) -> bool:
        """True when read data (or a write ack) is available."""
        return self._response_ready

    def take_response(self) -> float | int | None:
        """Consume the response; returns read data (None for writes)."""
        if not self._response_ready:
            raise RuntimeError(f"port {self.name} has no response")
        self._response_ready = False
        data, self._response = self._response, None
        return data

    # -- TCDM side ----------------------------------------------------------

    def _grant(self, mem: Memory) -> None:
        req = self._pending
        assert req is not None
        if req.is_write:
            if req.width == 8:
                if isinstance(req.data, float):
                    mem.write_f64(req.addr, req.data)
                else:
                    mem.write_u64(req.addr, int(req.data))
            elif req.width == 4:
                mem.write_u32(req.addr, int(req.data))
            elif req.width == 2:
                mem.write_u16(req.addr, int(req.data))
            elif req.width == 1:
                mem.write_u8(req.addr, int(req.data))
            else:
                raise ValueError(f"unsupported write width {req.width}")
            self._response = None
            self.writes += 1
        else:
            if req.width == 8:
                self._response = mem.read_f64(req.addr)
            elif req.width == 4:
                self._response = mem.read_u32(req.addr)
            elif req.width == 2:
                self._response = mem.read_u16(req.addr)
            elif req.width == 1:
                self._response = mem.read_u8(req.addr)
            else:
                raise ValueError(f"unsupported read width {req.width}")
            self.reads += 1
        self._pending = None
        self._response_ready = True


class Tcdm:
    """Word-interleaved banked scratchpad with per-cycle arbitration."""

    def __init__(self, mem: Memory, num_banks: int = 32,
                 bank_width: int = 8):
        if num_banks & (num_banks - 1):
            raise ValueError(f"num_banks must be a power of two, got "
                             f"{num_banks}")
        self.mem = mem
        self.num_banks = num_banks
        self.bank_width = bank_width
        self._ports: list[TcdmPort] = []
        self._streamer_ports: list[TcdmPort] = []
        self._name_to_sidx: dict[str, int] = {}
        self._rr_offset = 0
        # Statistics.
        self.total_accesses = 0
        self.total_conflicts = 0
        self.busy_bank_cycles = 0

    def port(self, name: str, priority: int,
             is_streamer: bool = False) -> TcdmPort:
        """Create and register a new requester port."""
        p = TcdmPort(name, priority, is_streamer)
        self._ports.append(p)
        if is_streamer:
            self._streamer_ports.append(p)
            self._name_to_sidx[name] = len(self._streamer_ports) - 1
            # A later streamer may shadow an earlier one's name, so the
            # rotation indices of every port are refreshed.
            for q in self._ports:
                q._rot_index = self._name_to_sidx.get(q.name)
        else:
            p._rot_index = self._name_to_sidx.get(name)
        return p

    @property
    def ports(self) -> tuple[TcdmPort, ...]:
        """All registered requester ports, in registration order."""
        return tuple(self._ports)

    @property
    def interleave_bytes(self) -> int:
        """Bytes after which the bank pattern repeats."""
        return self.num_banks * self.bank_width

    def bank_of(self, addr: int) -> int:
        """Bank index serving byte address ``addr``."""
        return (addr // self.bank_width) % self.num_banks

    def arbitrate(self) -> None:
        """Resolve this cycle's requests (call once per cycle).

        This is the seed reference arbiter; :meth:`arbitrate_v2` is the
        grant-for-grant identical fast variant used by the micro-op
        engine.
        """
        pending = [p for p in self._ports if p._pending is not None]
        if not pending:
            return
        # Static priority, with round-robin rotation among streamer ports.
        # The rotation pointer advances only on contended streamer rounds,
        # so a lone streamer keeps full bandwidth while competing ones
        # alternate.
        streamers = self._streamer_ports
        rot = {}
        if streamers:
            n = len(streamers)
            for i, p in enumerate(streamers):
                rot[p.name] = (i - self._rr_offset) % n
            contended = sum(1 for p in streamers if p._pending is not None)
            if contended >= 2:
                self._rr_offset = (self._rr_offset + 1) % n

        def key(p: TcdmPort) -> tuple[int, int]:
            return (p.priority, rot.get(p.name, 0))

        granted_banks: set[int] = set()
        for p in sorted(pending, key=key):
            bank = self.bank_of(p._pending.addr)
            if bank in granted_banks:
                p.conflicts += 1
                self.total_conflicts += 1
                continue
            granted_banks.add(bank)
            p._grant(self.mem)
            self.total_accesses += 1
        self.busy_bank_cycles += len(granted_banks)

    def arbitrate_v2(self) -> None:
        """Grant-for-grant identical arbitration with the common request
        counts (1, 2) special-cased, the name-keyed rotation table
        replaced by per-port rotation indices, and 4-/8-byte reads served
        straight from the backing store (same bounds and alignment
        errors as :class:`~repro.mem.memory.Memory`)."""
        pending = []
        for p in self._ports:  # a plain loop: no comprehension frame
            if p._pending is not None:
                pending.append(p)
        if not pending:
            return
        conflicts = 0
        if len(pending) == 1:
            # A lone request always wins its bank, and the round-robin
            # pointer only advances on contended streamer rounds, so the
            # full arbitration dance is skipped.
            granted = pending
        else:
            off = self._rr_offset
            n = len(self._streamer_ports)
            contended = 0
            for p in pending:
                if p.is_streamer:
                    contended += 1
            if contended >= 2:
                self._rr_offset = (off + 1) % n
            bw = self.bank_width
            nb = self.num_banks
            if len(pending) == 2:
                a, b = pending
                pa, pb = a.priority, b.priority
                if pb < pa or pb == pa and (
                        0 if b._rot_index is None
                        else (b._rot_index - off) % n) < (
                        0 if a._rot_index is None
                        else (a._rot_index - off) % n):
                    a, b = b, a
                if (a._pending.addr // bw) % nb \
                        == (b._pending.addr // bw) % nb:
                    b.conflicts += 1
                    conflicts = 1
                    granted = (a,)
                else:
                    granted = (a, b)
            else:
                def key(p: TcdmPort) -> tuple[int, int]:
                    r = p._rot_index
                    return (p.priority, 0 if r is None else (r - off) % n)

                granted = []
                granted_banks: set[int] = set()
                for p in sorted(pending, key=key):
                    bank = (p._pending.addr // bw) % nb
                    if bank in granted_banks:
                        p.conflicts += 1
                        conflicts += 1
                        continue
                    granted_banks.add(bank)
                    granted.append(p)
        mem = self.mem
        data = mem._data
        size = mem.size
        for p in granted:
            req = p._pending
            if req.is_write:
                p._grant(mem)
                continue
            addr = req.addr
            width = req.width
            if width == 8:
                if addr < 0 or addr + 8 > size or addr & 7:
                    mem._check(addr, 8)
                p._response = _UNPACK_F64(data, addr)[0]
            elif width == 4:
                if addr < 0 or addr + 4 > size or addr & 3:
                    mem._check(addr, 4)
                p._response = _UNPACK_U32(data, addr)[0]
            elif width == 2:
                p._response = mem.read_u16(addr)
            elif width == 1:
                p._response = mem.read_u8(addr)
            else:
                raise ValueError(f"unsupported read width {width}")
            p.reads += 1
            p._pending = None
            p._response_ready = True
        self.total_conflicts += conflicts
        self.total_accesses += len(granted)
        self.busy_bank_cycles += len(granted)

    # -- statistics ---------------------------------------------------------

    def stats(self) -> dict[str, int]:
        """Aggregate access statistics, per port and total."""
        out: dict[str, int] = {
            "total_accesses": self.total_accesses,
            "total_conflicts": self.total_conflicts,
        }
        for p in self._ports:
            out[f"{p.name}_reads"] = p.reads
            out[f"{p.name}_writes"] = p.writes
            out[f"{p.name}_conflicts"] = p.conflicts
        return out
