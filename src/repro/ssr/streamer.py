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
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from repro.mem.tcdm import Tcdm, TcdmPort
from repro.ssr.address_gen import AffineGenerator, IndirectGenerator
from repro.ssr.config import SsrConfig, SsrConfigSpace, SsrMode


class SsrStreamer:
    """Data mover for one SSR lane."""

    def __init__(self, ssr_id: int, tcdm: Tcdm, fifo_depth: int = 4,
                 port_priority: int = 10):
        self.ssr_id = ssr_id
        self.fifo_depth = fifo_depth
        self.cfgspace = SsrConfigSpace(ssr_id)
        self.data_port: TcdmPort = tcdm.port(
            f"ssr{ssr_id}", port_priority, is_streamer=True)
        self.idx_port: TcdmPort = tcdm.port(
            f"ssr{ssr_id}_idx", port_priority, is_streamer=True)

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
        #: Micro-op engine per-cycle step, bound by :meth:`_arm` to the
        #: armed mode's specialised body (None while unarmed).  A re-arm
        #: re-binds it, so callers look it up every cycle.
        self.step_v2: Callable[[], None] | None = None
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
            self.step_v2 = self._step_v2_indirect_read if cfg.indirect \
                else self._step_v2_affine_read
        else:
            self._to_produce = total
            self._to_consume = 0
            self.step_v2 = self._step_v2_write

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

    # Micro-op engine per-cycle bodies, one per armed mode (bound to
    # ``step_v2`` at arm time).  Each performs exactly the actions of
    # :meth:`step` for its mode, posting requests by filling in the
    # port's reusable record instead of through the checked
    # :meth:`~repro.mem.tcdm.TcdmPort.request` interface -- every guard
    # the checked path enforces is established inline.  A port never
    # holds a pending request and an unconsumed response at once, so
    # once a response is retired the port is free exactly when nothing
    # is pending.

    def _step_v2_indirect_read(self) -> None:
        port = self.data_port
        iport = self.idx_port
        fifo = self._fifo
        idx_fifo = self._idx_fifo
        worked = False
        if port._response_ready:
            port._response_ready = False
            fifo.append(float(port._response))
            port._response = None
            self._data_requested = False
            self.elements_moved += 1
            worked = True
        if iport._response_ready:
            iport._response_ready = False
            idx_fifo.append(int(iport._response))
            iport._response = None
            worked = True
        cfg = self.cfg
        depth = self.fifo_depth
        if idx_fifo and port._pending is None \
                and depth - len(fifo) - self._data_requested > 0:
            req = port._req
            req.addr = cfg.base + (idx_fifo.popleft() << cfg.idx_shift)
            req.is_write = False
            req.data = None
            req.width = 8
            port._pending = req
            self._data_requested = True
            worked = True
        igen = self._igen
        if igen._pos < igen._count and iport._pending is None \
                and len(idx_fifo) < depth:
            req = iport._req
            req.addr = cfg.idx_base + igen._pos * cfg.idx_size
            req.is_write = False
            req.data = None
            req.width = cfg.idx_size
            iport._pending = req
            igen._pos += 1
            worked = True
        if worked:
            self.active_cycles += 1

    def _step_v2_affine_read(self) -> None:
        port = self.data_port
        fifo = self._fifo
        worked = False
        if port._response_ready:
            port._response_ready = False
            fifo.append(float(port._response))
            port._response = None
            self._data_requested = False
            self.elements_moved += 1
            worked = True
        iport = self.idx_port
        if iport._response_ready:
            # Only an index fetch left over from an earlier arming.
            iport._response_ready = False
            self._idx_fifo.append(int(iport._response))
            iport._response = None
            worked = True
        gen = self._gen
        if gen._remaining and port._pending is None \
                and self.fifo_depth - len(fifo) - self._data_requested > 0:
            req = port._req
            req.addr = gen.next()
            req.is_write = False
            req.data = None
            req.width = 8
            port._pending = req
            self._data_requested = True
            worked = True
        if worked:
            self.active_cycles += 1

    def _step_v2_write(self) -> None:
        port = self.data_port
        fifo = self._fifo
        worked = False
        if port._response_ready:
            port._response_ready = False
            port._response = None
            fifo.popleft()
            self._pending_write_addr = None
            self.elements_moved += 1
            worked = True
        if fifo and port._pending is None:
            addr = self._pending_write_addr
            if addr is None:
                addr = self._next_data_addr()
                if addr is None:
                    # No resolvable address (index FIFO dry): the cycle
                    # ends here -- including the index-fetch launch
                    # below, exactly like the seed path.
                    if worked:
                        self.active_cycles += 1
                    return
                self._pending_write_addr = addr
            req = port._req
            req.addr = addr
            req.is_write = True
            req.data = fifo[0]
            req.width = 8
            port._pending = req
            worked = True
        igen = self._igen
        if igen is not None and not igen.exhausted \
                and not self.idx_port.busy \
                and len(self._idx_fifo) < self.fifo_depth:
            self.idx_port.request(igen.next_index_addr(),
                                  width=self.cfg.idx_size)
            worked = True
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
        # Launch the next write.
        if self._fifo and not self.data_port.busy:
            if self._pending_write_addr is None:
                addr = self._next_data_addr()
                if addr is None:
                    return worked
                self._pending_write_addr = addr
            self.data_port.request(self._pending_write_addr, is_write=True,
                                   data=self._fifo[0])
            worked = True
        # Indirect scatter: keep the index FIFO fed.
        if (self._igen is not None and not self._igen.exhausted
                and not self.idx_port.busy
                and len(self._idx_fifo) < self.fifo_depth):
            self.idx_port.request(self._igen.next_index_addr(),
                                  width=self.cfg.idx_size)
            worked = True
        return worked
