"""Stencil specifications and numpy golden models.

A stencil is a list of (dz, dy, dx) taps with one coefficient per tap.
The two kernels evaluated in the paper, ``box3d1r`` and ``j3d27pt``, are
both radius-1 27-tap cube stencils from the SARIS suite; they differ in
their coefficient sets (box blur vs. variable-coefficient Jacobi) and, in
our harness, in their default grid shapes.  Both carry 27 *distinct*
coefficients, which is what makes them register-limited on a 32-register
file: 27 coefficients + accumulators + stream registers exceed 32.

The golden models accumulate in exactly the generated code's tap order
with float64 multiply-then-add per tap, so simulator output compares
bit-exactly against numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class StencilSpec:
    """A named stencil: taps (in code-generation order) and coefficients."""

    name: str
    taps: tuple[tuple[int, int, int], ...]
    coeffs: tuple[float, ...]

    def __post_init__(self):
        if len(self.taps) != len(self.coeffs):
            raise ValueError(
                f"{self.name}: {len(self.taps)} taps but "
                f"{len(self.coeffs)} coefficients"
            )

    @property
    def ntaps(self) -> int:
        return len(self.taps)

    @property
    def radius(self) -> int:
        return max(max(abs(o) for o in tap) for tap in self.taps)

    @property
    def is_cube(self) -> bool:
        """True when the taps form the full (2r+1)^3 cube in our order."""
        r = self.radius
        expected = tuple(
            (dz, dy, dx)
            for dz in range(-r, r + 1)
            for dy in range(-r, r + 1)
            for dx in range(-r, r + 1)
        )
        return self.taps == expected

    @property
    def flops_per_point(self) -> int:
        """1 flop for the first tap (mul), 2 per fmadd afterwards."""
        return 1 + 2 * (self.ntaps - 1)

    def golden(self, grid: np.ndarray) -> np.ndarray:
        """Reference output over the interior of ``grid`` (z, y, x).

        Accumulation order matches the generated code: tap 0 initializes
        with a multiply, every further tap is multiply-then-add.
        """
        r = self.radius
        nz, ny, nx = (dim - 2 * r for dim in grid.shape)
        if min(nz, ny, nx) <= 0:
            raise ValueError(f"grid {grid.shape} too small for radius {r}")

        def window(tap):
            dz, dy, dx = tap
            return grid[r + dz:r + dz + nz, r + dy:r + dy + ny,
                        r + dx:r + dx + nx]

        acc = self.coeffs[0] * window(self.taps[0])
        for tap, coeff in zip(self.taps[1:], self.coeffs[1:]):
            acc = window(tap) * coeff + acc
        return acc


def _cube_taps(radius: int) -> tuple[tuple[int, int, int], ...]:
    return tuple(
        (dz, dy, dx)
        for dz in range(-radius, radius + 1)
        for dy in range(-radius, radius + 1)
        for dx in range(-radius, radius + 1)
    )


def box3d1r(radius: int = 1) -> StencilSpec:
    """3-D box stencil of radius ``r``: uniform-ish blur, distinct weights.

    Weights fall off with Manhattan distance and are normalized to sum to
    one; all 27 values are distinct from the hardware's point of view
    (each occupies its own register/stream slot).
    """
    taps = _cube_taps(radius)
    raw = [1.0 / (1.0 + abs(dz) + abs(dy) + abs(dx)) + 0.001 * i
           for i, (dz, dy, dx) in enumerate(taps)]
    total = sum(raw)
    return StencilSpec(f"box3d{radius}r",
                       taps, tuple(w / total for w in raw))


def j3d27pt() -> StencilSpec:
    """27-point 3-D Jacobi with variable coefficients (SARIS ``j3d27pt``).

    Center-heavy symmetric-style weights, perturbed so all 27 are
    distinct, normalized to sum to one.
    """
    taps = _cube_taps(1)
    raw = []
    for i, (dz, dy, dx) in enumerate(taps):
        dist = abs(dz) + abs(dy) + abs(dx)
        base = {0: 8.0, 1: 4.0, 2: 2.0, 3: 1.0}[dist]
        raw.append(base + 0.01 * i)
    total = sum(raw)
    return StencilSpec("j3d27pt", taps, tuple(w / total for w in raw))


def star3d1r() -> StencilSpec:
    """7-point 3-D star stencil: exercises truly irregular (non-cube) taps."""
    taps = (
        (0, 0, 0),
        (-1, 0, 0), (1, 0, 0),
        (0, -1, 0), (0, 1, 0),
        (0, 0, -1), (0, 0, 1),
    )
    coeffs = (0.4, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1)
    return StencilSpec("star3d1r", taps, coeffs)


def j2d5pt() -> StencilSpec:
    """5-point 2-D Jacobi (z extent 1)."""
    taps = ((0, 0, 0), (0, -1, 0), (0, 1, 0), (0, 0, -1), (0, 0, 1))
    return StencilSpec("j2d5pt", taps, (0.5, 0.125, 0.125, 0.125, 0.125))


def box2d1r() -> StencilSpec:
    """9-point 2-D box (z extent 1)."""
    taps = tuple((0, dy, dx) for dy in (-1, 0, 1) for dx in (-1, 0, 1))
    raw = [1.0 + 0.05 * i for i in range(9)]
    total = sum(raw)
    return StencilSpec("box2d1r", taps, tuple(w / total for w in raw))
