"""The multi-cluster system model.

Address map
-----------

Every cluster keeps its private flat memory (TCDM + local "L2" staging
regions) at byte addresses below :data:`GLOBAL_BASE`; addresses at or
above it select the shared :class:`GlobalMemory`.  Only the per-cluster
DMA engines (:class:`ClusterDma`) decode global addresses -- compute
cores and SSR streamers are confined to cluster-local memory, matching
the Snitch/Occamy organization where bulk data is staged into the TCDM
before compute touches it.

Timing model
------------

* :class:`GlobalMemory` -- aggregate peak bandwidth ``gmem_banks *
  gmem_bank_bytes_per_cycle`` bytes/cycle (a banked-SRAM/HBM-channel
  abstraction: banking is modelled as aggregate bandwidth, not per-bank
  conflicts) plus ``gmem_latency`` cycles charged once at the start of
  every transfer that touches it.
* :class:`Interconnect` -- when several clusters' DMAs move
  global-memory data in the same cycle, each receives an equal
  ``gmem_bytes_per_cycle // n`` share (ID-agnostic, so per-cluster
  timing is invariant under cluster renumbering); a single requester
  gets the full global-memory bandwidth, always capped by its
  ``link_bytes_per_cycle`` port.
* :class:`ClusterDma` -- serves one transfer per cycle head-of-queue,
  in order; a transfer finishing mid-cycle forfeits the cycle's
  remaining budget (turnaround).

Scheduling
----------

:meth:`System.run` drives the clusters through the conservative
min-cycle scheduler it shares with :meth:`Cluster.run`
(:func:`~repro.core.cluster.run_clusters`), adding only the system
barrier and the interconnect.  Clusters can run *ahead* (the FREP/SSR
fast path and the loop memo cover many cycles in one step); they wait
until the others catch up, which is event-order-correct because the
only inter-cluster couplings are arbitrated at the minimum clock.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.core.cluster import (
    Cluster,
    SimulationDeadlock,
    SimulationTimeout,
    run_clusters,
)
from repro.core.config import SystemConfig
from repro.isa.assembler import Program
from repro.mem.dma import DmaEngine
from repro.mem.memory import Memory
from repro.obs import spans as _obs

#: First byte address decoded as global memory (by the DMA engines only).
GLOBAL_BASE = 0x4000_0000


class SystemTimeout(SimulationTimeout):
    """The cycle budget was exhausted before every cluster finished."""


class SystemDeadlock(SimulationDeadlock):
    """No cluster can make progress and the system barrier cannot open."""


class GlobalMemory:
    """Shared HBM-like memory: flat storage + bandwidth/latency params."""

    def __init__(self, cfg: SystemConfig):
        self.mem = Memory(cfg.gmem_size)
        self.size = cfg.gmem_size
        self.banks = cfg.gmem_banks
        self.bytes_per_cycle = cfg.gmem_bytes_per_cycle
        self.latency = cfg.gmem_latency
        # Statistics (energy-model and report inputs).
        self.bytes_read = 0
        self.bytes_written = 0
        self.transfer_latency_cycles = 0

    @property
    def bytes_moved(self) -> int:
        return self.bytes_read + self.bytes_written

    # -- harness helpers (absolute global addresses) ------------------------

    def _offset(self, addr: int, nbytes: int) -> int:
        off = addr - GLOBAL_BASE
        if off < 0 or off + nbytes > self.size:
            raise ValueError(
                f"global access of {nbytes} bytes at {addr:#x} outside "
                f"[{GLOBAL_BASE:#x}, {GLOBAL_BASE + self.size:#x})")
        return off

    def write_array(self, addr: int, array: np.ndarray) -> None:
        raw = np.ascontiguousarray(array)
        self._offset(addr, raw.nbytes)
        self.mem.write_array(addr - GLOBAL_BASE, raw)

    def read_array(self, addr: int, shape: tuple[int, ...],
                   dtype=np.float64) -> np.ndarray:
        nbytes = int(np.prod(shape)) * np.dtype(dtype).itemsize
        self._offset(addr, nbytes)
        return self.mem.read_array(addr - GLOBAL_BASE, shape, dtype)


class Interconnect:
    """Per-cycle arbitration of concurrent global-memory DMA traffic.

    The share each requester receives is a pure function of the *number*
    of requesters (never their identities), which keeps per-cluster
    cycle counts invariant under cluster ID permutation.  The floor of 8
    bytes guarantees forward progress even when more clusters than
    bandwidth lanes contend.
    """

    def __init__(self, cfg: SystemConfig):
        self.gmem_bytes_per_cycle = cfg.gmem_bytes_per_cycle
        self.contended_cycles = 0
        self.busy_cycles = 0

    def arbitrate(self, dmas: list["ClusterDma"]) -> None:
        """Assign this cycle's global-memory bandwidth shares."""
        wanting = [dma for dma in dmas if dma.wants_gmem()]
        for dma in dmas:
            dma.shared_grant = None
        if not wanting:
            return
        self.busy_cycles += 1
        if len(wanting) > 1:
            self.contended_cycles += 1
            share = max(8, self.gmem_bytes_per_cycle // len(wanting))
            for dma in wanting:
                dma.shared_grant = share


class ClusterDma(DmaEngine):
    """Cluster DMA engine with a port into the global memory.

    Extends the cluster-local :class:`~repro.mem.dma.DmaEngine` (same
    ``dmsrc``/``dmdst``/``dmstr``/``dmrep``/``dmcpy``/``dmstat``
    software interface) with:

    * address decoding -- bytes at or above :data:`GLOBAL_BASE` read or
      write the shared :class:`GlobalMemory`;
    * a per-transfer start latency for transfers touching global memory;
    * bandwidth caps: the cluster link width and (via
      :attr:`shared_grant`, written by the :class:`Interconnect` each
      contended cycle) an equal share of the global-memory bandwidth.
    """

    def __init__(self, mem: Memory, gmem: GlobalMemory,
                 cfg: SystemConfig):
        super().__init__(mem, cfg.core.dma_bytes_per_cycle)
        self.gmem = gmem
        self.link_bytes_per_cycle = cfg.link_bytes_per_cycle
        #: Equal-share grant for this cycle; ``None`` outside contention
        #: (then the full global-memory bandwidth applies).
        self.shared_grant: int | None = None
        self.gmem_bytes_moved = 0
        self._latency_tx = None
        self._latency_left = 0
        # Observability backrefs, filled in by System.__init__: the
        # owning cluster supplies the simulated clock and track name
        # for per-transfer DMA events.
        self._obs_cluster: "Cluster | None" = None
        self._obs_lane = "cluster"
        self._obs_tx_start = 0

    @staticmethod
    def _touches_gmem(tx) -> bool:
        return tx.src >= GLOBAL_BASE or tx.dst >= GLOBAL_BASE

    def wants_gmem(self) -> bool:
        """True when this DMA would move global-memory bytes this cycle.

        Mirrors :meth:`step` exactly: only a bound head transfer whose
        start latency has drained moves data.  A fresh head never moves
        on its binding cycle (see :meth:`step`), so the interconnect
        always arbitrates a transfer before its first data beat.
        """
        if not self._queue:
            return False
        tx = self._queue[0]
        return (self._touches_gmem(tx) and self._latency_tx is tx
                and self._latency_left == 0)

    def step(self) -> None:
        if not self._queue:
            return
        self.busy_cycles += 1
        tx = self._queue[0]
        if self._latency_tx is not tx:
            # A transfer touching global memory pays the access latency
            # once, up front -- at least one cycle, so that a dmcpy
            # issued mid-cycle (after the interconnect arbitrated) can
            # never move unarbitrated bytes in its issue cycle.
            # Local-only transfers start immediately.
            self._latency_tx = tx
            self._latency_left = max(1, self.gmem.latency) \
                if self._touches_gmem(tx) else 0
            if _obs.ENABLED and self._obs_cluster is not None:
                self._obs_tx_start = self._obs_cluster.cycle
        if self._latency_left:
            self._latency_left -= 1
            self.gmem.transfer_latency_cycles += 1
            return
        uses_gmem = self._touches_gmem(tx)
        budget = self.bytes_per_cycle
        if uses_gmem:
            budget = min(budget, self.link_bytes_per_cycle,
                         self.shared_grant
                         if self.shared_grant is not None
                         else self.gmem.bytes_per_cycle)
        while budget > 0:
            row, offset = divmod(tx.moved, tx.row_bytes)
            chunk = min(budget, tx.row_bytes - offset)
            src = tx.src + row * tx.src_stride + offset
            dst = tx.dst + row * tx.dst_stride + offset
            self._copy(src, dst, chunk)
            tx.moved += chunk
            budget -= chunk
            self.bytes_moved += chunk
            if uses_gmem:
                self.gmem_bytes_moved += chunk
            if tx.moved >= tx.total_bytes:
                self._queue.popleft()
                self.transfers_completed += 1
                if _obs.ENABLED and self._obs_cluster is not None:
                    end = max(self._obs_cluster.cycle,
                              self._obs_tx_start)
                    _obs.tracer().sim_span(
                        "dma", "system", self._obs_tx_start, end,
                        lane=self._obs_lane,
                        args={"bytes": tx.total_bytes,
                              "gmem": uses_gmem})
                break  # turnaround: the next transfer starts next cycle

    # -- address decoding ---------------------------------------------------

    def _copy(self, src: int, dst: int, nbytes: int) -> None:
        self._store(dst, self._fetch(src, nbytes))

    def _fetch(self, addr: int, nbytes: int) -> bytes:
        if addr >= GLOBAL_BASE:
            gmem = self.gmem
            off = gmem._offset(addr, nbytes)
            gmem.bytes_read += nbytes
            return bytes(gmem.mem._data[off:off + nbytes])
        data = bytes(self.mem._data[addr:addr + nbytes])
        if len(data) != nbytes:
            raise ValueError(
                f"DMA read of {nbytes} bytes at {addr:#x} out of range")
        return data

    def _store(self, addr: int, data: bytes) -> None:
        if addr >= GLOBAL_BASE:
            gmem = self.gmem
            off = gmem._offset(addr, len(data))
            gmem.bytes_written += len(data)
            gmem.mem._data[off:off + len(data)] = data
            return
        if addr + len(data) > self.mem.size:
            raise ValueError(
                f"DMA write of {len(data)} bytes at {addr:#x} out of "
                f"range")
        self.mem._data[addr:addr + len(data)] = data


class System:
    """N clusters + global memory + interconnect + system barrier."""

    def __init__(self, programs, cfg: SystemConfig | None = None,
                 symbols: dict[str, int] | None = None):
        self.cfg = cfg or SystemConfig()
        self.cfg.validate()
        n = self.cfg.num_clusters
        if isinstance(programs, (str, Program)):
            programs = [programs] * n
        programs = list(programs)
        if len(programs) != n:
            raise ValueError(
                f"{len(programs)} programs for {n} clusters; pass one "
                f"program (SPMD) or exactly one per cluster")
        self.gmem = GlobalMemory(self.cfg)
        self.interconnect = Interconnect(self.cfg)
        self.clusters: list[Cluster] = []
        for index, program in enumerate(programs):
            cluster = Cluster(program, cfg=self.cfg.core, symbols=symbols)
            cluster.obs_lane = f"cluster{index}"
            # Swap the cluster-local DMA engine for the system-aware one;
            # the cores read ``self.dma`` at execution time, so the swap
            # is complete before the first cycle.
            dma = ClusterDma(cluster.mem, self.gmem, self.cfg)
            dma._obs_cluster = cluster
            dma._obs_lane = cluster.obs_lane
            cluster.dma = dma
            for core in cluster.cores:
                core.dma = dma
            self.clusters.append(cluster)
        self.cycle = 0
        self.sys_barriers = 0

    # -- data placement ------------------------------------------------------

    def load_global_f64(self, addr: int, array: np.ndarray) -> None:
        """Place a float64 array at absolute global address ``addr``."""
        self.gmem.write_array(addr, np.asarray(array, dtype=np.float64))

    # -- aggregate metrics ---------------------------------------------------

    @property
    def done(self) -> bool:
        return all(cl.done for cl in self.clusters)

    def total(self, counter: str) -> int:
        """Sum of one perf counter over every cluster."""
        return sum(cl.perf.value(counter) for cl in self.clusters)

    def per_cluster_cycles(self) -> list[int]:
        return [cl.cycle for cl in self.clusters]

    def fpu_utilization(self) -> float:
        """Compute-op issue rate over all FPUs and the whole run."""
        cycles = max((cl.cycle for cl in self.clusters), default=0)
        if cycles == 0:
            return 0.0
        return self.total("fpu_compute_ops") / (cycles
                                                * len(self.clusters))

    def stall_breakdown(self) -> dict[str, int]:
        """Merged stall-cycle breakdown over every cluster."""
        merged: dict[str, int] = {}
        for cluster in self.clusters:
            for reason, count in cluster.perf.stall_breakdown().items():
                merged[reason] = merged.get(reason, 0) + count
        return dict(sorted(merged.items(), key=lambda kv: -kv[1]))

    def perf_digest(self) -> str:
        """Deterministic fingerprint of every architectural counter.

        Two runs of the same system program are expected to produce the
        same digest -- the determinism contract the property suite
        enforces.
        """
        parts: list[str] = [f"sys_barriers={self.sys_barriers}"]
        for index, cluster in enumerate(self.clusters):
            perf = cluster.perf
            parts.append(f"cluster{index}:cycle={cluster.cycle}")
            parts.extend(f"{name}={perf.values[slot]}"
                         for name, slot in sorted(perf._slot_of.items()))
            parts.extend(
                f"stall:{reason}={count}"
                for reason, count in sorted(
                    perf.stall_breakdown().items()))
            parts.append(f"tcdm={cluster.tcdm.total_accesses}"
                         f"/{cluster.tcdm.total_conflicts}")
            parts.append(f"dma={cluster.dma.bytes_moved}"
                         f"/{cluster.dma.busy_cycles}")
        parts.append(f"gmem={self.gmem.bytes_read}"
                     f"/{self.gmem.bytes_written}"
                     f"/{self.gmem.transfer_latency_cycles}")
        parts.append(f"icn={self.interconnect.busy_cycles}"
                     f"/{self.interconnect.contended_cycles}")
        blob = ";".join(parts)
        return hashlib.sha256(blob.encode()).hexdigest()

    # -- simulation ----------------------------------------------------------

    def run(self, max_cycles: int = 20_000_000) -> "System":
        """Run every cluster to completion (min-cycle scheduling)."""
        if not _obs.ENABLED:
            return self._run(max_cycles)
        tr = _obs.tracer()
        with tr.span("System.run", "system",
                     args={"num_clusters": len(self.clusters)}) as sargs:
            self._run(max_cycles)
            sargs["cycles"] = self.cycle
            sargs["sys_barriers"] = self.sys_barriers
        # One slice per cluster on the simulated timeline, so the
        # Perfetto view shows where each cluster's clock ended up.
        for cluster in self.clusters:
            tr.sim_span("cluster.run", "system", 0, cluster.cycle,
                        lane=cluster.obs_lane,
                        args={"cycles": cluster.cycle})
        return self

    def _run(self, max_cycles: int) -> "System":
        try:
            run_clusters(self.clusters, max_cycles, self,
                         (SystemTimeout, SystemDeadlock))
        finally:
            # Also after a timeout or deadlock: the clusters' clocks
            # are where the run stopped.
            self.cycle = max(cl.cycle for cl in self.clusters)
        return self

    def _arbitrate(self, batch: list[Cluster]) -> None:
        """Share global-memory bandwidth among the batch's DMAs."""
        if len(self.clusters) > 1:
            dmas = [cl.dma for cl in batch]
            if any(dma._queue for dma in dmas):
                self.interconnect.arbitrate(dmas)

    def _release_sys_barrier(self) -> None:
        """Open the system barrier once every core has arrived.

        Halted cores count as arrived (matching the cluster barrier).
        The barrier opens at the latest arrival: a parked cluster whose
        clock is behind it stays parked, and :func:`run_clusters` steps
        it there like any other cluster, interconnect arbitration
        included, so barrier wait time is fully accounted.
        """
        waiting = [core for cl in self.clusters for core in cl.cores
                   if core.sys_barrier_wait]
        if not waiting:
            return
        for cluster in self.clusters:
            for core in cluster.cores:
                if not (core.halted or core.sys_barrier_wait):
                    return
        parked = [cl for cl in self.clusters
                  if any(c.sys_barrier_wait for c in cl.cores)]
        opens = max(cl.cycle for cl in parked)
        if any(cl.cycle < opens for cl in parked):
            return
        for core in waiting:
            core.sys_barrier_wait = False
            core.barrier_wait = False
        self.sys_barriers += 1
        if _obs.ENABLED:
            _obs.tracer().sim_instant(
                "barrier.open", "system", opens, lane="system",
                args={"barrier": self.sys_barriers,
                      "clusters": len(parked)})

    def runtime_seconds(self) -> float:
        return self.cycle / self.cfg.core.clock_hz
