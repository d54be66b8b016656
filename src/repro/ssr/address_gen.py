"""Stream address generation.

Two generators are provided, matching the Snitch/SARIS hardware:

* :class:`AffineGenerator` walks an up-to-:data:`~repro.ssr.config.MAX_DIMS`
  dimensional loop nest and yields ``base + sum(idx_d * stride_d)``.
* :class:`IndirectGenerator` yields the addresses of *index* elements; the
  streamer resolves each fetched index into a data address via
  :meth:`IndirectGenerator.data_addr` (``base + (index << shift)``).

Both are pure, deterministic iterators, which makes them easy to check
against numpy index arithmetic in the property tests.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.ssr.config import SsrConfig

if TYPE_CHECKING:
    import numpy as np


def affine_addresses(cfg: SsrConfig) -> np.ndarray:
    """Address of every element of an affine stream, in stream order
    (vectorized, no state): ``base + sum_d idx_d * stride_d`` over the
    loop nest, dimension 0 innermost -- exactly what
    :class:`AffineGenerator` yields, one :meth:`~AffineGenerator.next`
    after another."""
    import numpy as np

    addr = np.array(cfg.base, dtype=np.int64)
    for d in range(cfg.ndims):
        addr = np.add.outer(
            np.arange(cfg.bounds[d], dtype=np.int64) * cfg.strides[d], addr)
    return addr.ravel()


class AffineGenerator:
    """Walks the affine loop nest of a committed :class:`SsrConfig`."""

    def __init__(self, cfg: SsrConfig):
        cfg.validate()
        self.cfg = cfg
        self._idx = [0] * cfg.ndims
        self._remaining = cfg.total_elements()

    @property
    def exhausted(self) -> bool:
        return self._remaining == 0

    @property
    def remaining(self) -> int:
        return self._remaining

    def peek(self) -> int:
        """Current element address, without advancing."""
        if self.exhausted:
            raise RuntimeError("address generator exhausted")
        cfg = self.cfg
        addr = cfg.base
        for d in range(cfg.ndims):
            addr += self._idx[d] * cfg.strides[d]
        return addr

    def next(self) -> int:
        """Return the current address and advance the loop nest."""
        addr = self.peek()
        self._remaining -= 1
        cfg = self.cfg
        for d in range(cfg.ndims):
            self._idx[d] += 1
            if self._idx[d] < cfg.bounds[d]:
                break
            self._idx[d] = 0
        return addr

    @property
    def position(self) -> int:
        """Elements yielded so far (0 .. total_elements)."""
        return self.cfg.total_elements() - self._remaining

    def jump_to(self, position: int) -> None:
        """Teleport the walker so the next element is ``position``.

        Used when a stream is placed at a position
        (:meth:`~repro.ssr.streamer.SsrStreamer.place`); the resulting
        state is exactly what ``position`` calls of :meth:`next` would
        have left behind (including the all-zeros digit wrap at
        exhaustion).
        """
        total = self.cfg.total_elements()
        if not 0 <= position <= total:
            raise ValueError(
                f"jump_to({position}) outside stream of {total} elements")
        self._remaining = total - position
        rem = position
        for d in range(self.cfg.ndims):
            self._idx[d] = rem % self.cfg.bounds[d]
            rem //= self.cfg.bounds[d]

    def all_addresses(self) -> list[int]:
        """Exhaust the generator and return every address (testing aid)."""
        out = []
        while not self.exhausted:
            out.append(self.next())
        return out


class IndirectGenerator:
    """Index-stream walker for SARIS-style indirect streams.

    The *index array* is itself walked with the affine loop nest (usually a
    simple 1-D contiguous pattern); each fetched index is scaled into a
    data address.  The streamer performs two memory accesses per element:
    one for the index and one for the datum, which is faithfully reflected
    in the TCDM traffic and hence the energy model.
    """

    def __init__(self, cfg: SsrConfig):
        cfg.validate()
        if not cfg.indirect:
            raise ValueError("IndirectGenerator requires an indirect config")
        self.cfg = cfg
        self._count = cfg.total_elements()
        self._pos = 0

    @property
    def exhausted(self) -> bool:
        return self._pos >= self._count

    @property
    def remaining(self) -> int:
        return self._count - self._pos

    def next_index_addr(self) -> int:
        """Address of the next index element; advances the walker."""
        if self.exhausted:
            raise RuntimeError("index stream exhausted")
        addr = self.cfg.idx_base + self._pos * self.cfg.idx_size
        self._pos += 1
        return addr

    def data_addr(self, index: int) -> int:
        """Data address for a fetched ``index`` value."""
        return self.cfg.base + (index << self.cfg.idx_shift)
