"""SSR data movers (streamers).

One :class:`SsrStreamer` per lane.  A read streamer prefetches elements
along its address pattern into a small FIFO ahead of the FPU; a write
streamer drains values pushed by the FPU back to memory.  Indirect streams
additionally fetch an index element per datum through a dedicated index
port (as in the SARIS microarchitecture, where the index fetcher has its
own TCDM connection).

The register-port interface (``can_pop``/``pop``/``can_push``/``push``) is
what the FP subsystem uses at instruction issue; the FIFO being empty (or
full, for writes) is exactly the stall condition the core observes.

A stream's state is its configuration plus a position in its element
sequence (Schuiki et al., IEEE TC 2021).  :meth:`SsrStreamer.position`
reads that position, counted from the current arming, and
:meth:`SsrStreamer.place` writes it: the engines that skip cycles (the
FREP batch and the loop memo, :mod:`repro.core.fastpath`) move a stream
only through these two methods and :meth:`SsrStreamer.rearm`.
"""

from __future__ import annotations

from collections import deque
from typing import NamedTuple

from repro.mem.tcdm import Tcdm, TcdmPort
from repro.ssr.address_gen import AffineGenerator, IndirectGenerator
from repro.ssr.config import CfgField, SsrConfig, SsrConfigSpace, SsrMode


#: TCDM priority of every stream port: after the core (0) and FP LSU (1)
#: ports, and equal among streams, which round robin orders.
_PORT_PRIORITY = 10


class StreamPosition(NamedTuple):
    """Where an arming stands, counted from the arming, laid out as the
    loop memo's memory side simulates it.  Element ``here`` is the one
    the data port serves next: a read's FIFO holds the ``fill`` elements
    before it, a write's FIFO the ``fill`` values from it on."""

    fill: int
    rep: int                # pops the read FIFO's head has served
    requested: bool         # a read's data fetch is outstanding
    data_pending: bool      # the data port holds a request ...
    data_ready: bool        # ... or a response
    idx_fill: int
    idx_pending: bool
    idx_ready: bool
    issued: int             # addresses (indirect: index addresses) issued
    here: int
    held: bool              # a write holds element ``here``'s address
    idx_elem: int           # the index element fetched last


class SsrStreamer:
    """Data mover for one SSR lane."""

    def __init__(self, ssr_id: int, tcdm: Tcdm, fifo_depth: int = 4):
        self.ssr_id = ssr_id
        self.fifo_depth = fifo_depth
        self.cfgspace = SsrConfigSpace(ssr_id)
        self.data_port: TcdmPort = tcdm.port(
            f"ssr{ssr_id}", _PORT_PRIORITY, is_streamer=True)
        self.idx_port: TcdmPort = tcdm.port(
            f"ssr{ssr_id}_idx", _PORT_PRIORITY, is_streamer=True)

        self._mem = tcdm.mem
        self.cfg: SsrConfig | None = None
        self._gen: AffineGenerator | None = None
        self._igen: IndirectGenerator | None = None
        self._fifo: deque[float] = deque()
        self._idx_fifo: deque[int] = deque()
        self._rep_count = 0
        self._to_consume = 0     # reads the FPU still owes us (incl. repeat)
        self._to_produce = 0     # writes the FPU still owes us
        self._data_requested = False
        self._pending_write_addr: int | None = None
        # Statistics (energy model inputs).
        self.active_cycles = 0
        self.elements_moved = 0

    # -- configuration ------------------------------------------------------

    @property
    def active(self) -> bool:
        """True while an armed stream has work left."""
        if self.cfg is None:
            return False
        return not self.done

    @property
    def done(self) -> bool:
        """True when the armed stream has fully completed."""
        if self.cfg is None:
            return True
        if self.cfg.mode == SsrMode.READ:
            return self._to_consume == 0
        return (self._to_produce == 0 and not self._fifo
                and not self.data_port.busy
                and self._pending_write_addr is None)

    def write_cfg(self, field: int, value: int) -> None:
        """Handle a ``scfgw`` targeting this lane."""
        self.cfgspace.write(field, value, active=self.active)
        if self.cfgspace.committed is not None:
            self._arm(self.cfgspace.committed)
            self.cfgspace.committed = None

    def rearm(self, base: int, ctrl: int) -> None:
        """Commit BASE ``base`` and CTRL ``ctrl`` as an ``scfgw`` pair
        does once the current arming is done (here it may still be placed
        mid-stream); :meth:`place` then moves the new arming on."""
        self.cfgspace.write(CfgField.BASE, base, active=False)
        self.cfgspace.write(CfgField.CTRL, ctrl, active=False)
        self._arm(self.cfgspace.committed)
        self.cfgspace.committed = None

    def read_cfg(self, field: int) -> int:
        """Handle a ``scfgr`` targeting this lane."""
        return self.cfgspace.read(field)

    def _arm(self, cfg: SsrConfig) -> None:
        self.cfg = cfg
        self._fifo.clear()
        self._idx_fifo.clear()
        self._rep_count = 0
        self._data_requested = False
        self._pending_write_addr = None
        total = cfg.total_elements()
        if cfg.indirect:
            self._igen = IndirectGenerator(cfg)
            self._gen = None
        else:
            self._gen = AffineGenerator(cfg)
            self._igen = None
        if cfg.mode == SsrMode.READ:
            self._to_consume = total * (cfg.repeat + 1)
            self._to_produce = 0
        else:
            self._to_produce = total
            self._to_consume = 0

    # -- position within the arming -------------------------------------

    def position(self) -> StreamPosition:
        """Where the current arming stands (see :class:`StreamPosition`)."""
        dport, iport = self.data_port, self.idx_port
        requested, ifill = self._data_requested, len(self._idx_fifo)
        held = self._pending_write_addr is not None
        ipend, iready = iport._pending is not None, iport._response_ready
        if self._igen is not None:
            issued = self._igen._pos
            here = issued - ifill - requested - (ipend or iready)
        else:
            issued = self._gen.position
            here = issued - requested - held
        return StreamPosition(
            len(self._fifo), self._rep_count, requested,
            dport._pending is not None, dport._response_ready, ifill, ipend,
            iready, issued, here, held, issued - 1)

    def place(self, at: StreamPosition, addr, values=()) -> None:
        """Put the current arming at ``at``.  ``addr`` holds the byte
        address of each of its elements, ``values`` a write's FIFO,
        oldest first; a read refills its FIFO, its data response and its
        index FIFO from memory.  The FIFOs are refilled in place: the
        generated stepped cycle binds them."""
        cfg, mem, here, port = self.cfg, self._mem, at.here, self.data_port
        total = cfg.total_elements()
        elem = int(addr[here]) if here < total else None
        write = cfg.mode == SsrMode.WRITE
        self._fifo.clear()
        if write:
            self._fifo.extend(values)
            self._to_produce = total - here - at.fill
        else:
            self._fifo.extend(mem.read_f64(int(a))
                              for a in addr[here - at.fill:here])
            self._to_consume = \
                (total - here + at.fill) * (cfg.repeat + 1) - at.rep
        self._rep_count = at.rep
        self._data_requested = at.requested
        self._pending_write_addr = elem if at.held else None
        port._pending = None
        port._response_ready = at.data_ready
        port._response = mem.read_f64(elem) \
            if at.data_ready and not write else None
        if at.data_pending:
            port.request(elem, write, values[0] if write else None)
        if self._igen is None:
            self._gen.jump_to(at.issued)
            return
        self._igen._pos = at.issued
        width, port = cfg.idx_size, self.idx_port
        read = mem.read_u32 if width == 4 else mem.read_u16
        first = here + at.requested
        self._idx_fifo.clear()
        self._idx_fifo.extend(read(cfg.idx_base + k * width)
                              for k in range(first, first + at.idx_fill))
        index = cfg.idx_base + at.idx_elem * width
        port._pending = None
        port._response_ready = at.idx_ready
        port._response = read(index) if at.idx_ready else None
        if at.idx_pending:
            port.request(index, width=width)

    # -- register-port interface (used at FP instruction issue) -----------

    def can_pop(self) -> bool:
        """True when a read of the stream register would not stall."""
        return bool(self._fifo)

    def available_pops(self) -> int:
        """How many register reads could be served right now.

        Accounts for the repeat feature: the FIFO head still serves
        ``repeat + 1 - rep_count`` reads.  Needed when one instruction
        reads the same stream register in two operand positions.
        """
        if not self._fifo:
            return 0
        head_left = self.cfg.repeat + 1 - self._rep_count
        return head_left + (len(self._fifo) - 1) * (self.cfg.repeat + 1)

    def pop(self) -> float:
        """Consume one element (a register read).  Honors ``repeat``."""
        if not self._fifo:
            raise RuntimeError(f"ssr{self.ssr_id}: pop from empty stream")
        value = self._fifo[0]
        self._rep_count += 1
        self._to_consume -= 1
        if self._rep_count > self.cfg.repeat:
            self._fifo.popleft()
            self._rep_count = 0
        return value

    def can_push(self) -> bool:
        """True when a write to the stream register would not stall."""
        return len(self._fifo) < self.fifo_depth

    def push(self, value: float) -> None:
        """Produce one element (a register write)."""
        if len(self._fifo) >= self.fifo_depth:
            raise RuntimeError(f"ssr{self.ssr_id}: push to full stream FIFO")
        self._fifo.append(value)
        self._to_produce -= 1

    # -- per-cycle behaviour -------------------------------------------------

    def step(self) -> None:
        """Advance the data mover by one cycle."""
        if self.cfg is None:
            return
        worked = False
        if self.cfg.mode == SsrMode.READ:
            worked = self._step_read()
        else:
            worked = self._step_write()
        if worked:
            self.active_cycles += 1

    def _step_read(self) -> bool:
        worked = False
        # Retire a granted data fetch.
        if self.data_port.response_ready():
            self._fifo.append(float(self.data_port.take_response()))
            self._data_requested = False
            self.elements_moved += 1
            worked = True
        # Retire a granted index fetch.
        if self.idx_port.response_ready():
            self._idx_fifo.append(int(self.idx_port.take_response()))
            worked = True
        # Launch the next data fetch if there is FIFO headroom.
        headroom = self.fifo_depth - len(self._fifo) \
            - (1 if self._data_requested else 0)
        if headroom > 0 and not self.data_port.busy:
            addr = self._next_data_addr()
            if addr is not None:
                self.data_port.request(addr)
                self._data_requested = True
                worked = True
        # Launch the next index fetch (indirect mode only).
        if (self._igen is not None and not self._igen.exhausted
                and not self.idx_port.busy
                and len(self._idx_fifo) < self.fifo_depth):
            self.idx_port.request(self._igen.next_index_addr(),
                                  width=self.cfg.idx_size)
            worked = True
        return worked

    def _next_data_addr(self) -> int | None:
        if self._igen is not None:
            if not self._idx_fifo:
                return None
            return self._igen.data_addr(self._idx_fifo.popleft())
        if self._gen.exhausted:
            return None
        return self._gen.next()

    def _step_write(self) -> bool:
        worked = False
        # Retire a granted write.
        if self.data_port.response_ready():
            self.data_port.take_response()
            self._fifo.popleft()
            self._pending_write_addr = None
            self.elements_moved += 1
            worked = True
        # Indirect scatter: retire a granted index fetch.
        if self._igen is not None and self.idx_port.response_ready():
            self._idx_fifo.append(int(self.idx_port.take_response()))
            worked = True
        # Launch the next write once its address is known.
        if self._fifo and not self.data_port.busy:
            if self._pending_write_addr is None:
                self._pending_write_addr = self._next_data_addr()
            if self._pending_write_addr is not None:
                self.data_port.request(self._pending_write_addr,
                                       is_write=True, data=self._fifo[0])
                worked = True
        # Indirect scatter: keep the index FIFO fed.
        if (self._igen is not None and not self._igen.exhausted
                and not self.idx_port.busy
                and len(self._idx_fifo) < self.fifo_depth):
            self.idx_port.request(self._igen.next_index_addr(),
                                  width=self.cfg.idx_size)
            worked = True
        return worked
