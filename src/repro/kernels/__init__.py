"""Kernel generators: the paper's workloads as assembly code generators.

* :mod:`repro.kernels.vecop` -- the vector operation ``a = b * (c + d)`` of
  the paper's Fig. 1, in baseline, unrolled and chaining form.
* :mod:`repro.kernels.stencil` / :mod:`repro.kernels.stencil_codegen` --
  the SARIS-style stencil kernels (``box3d1r``, ``j3d27pt`` and friends) in
  the five evaluation variants Base--, Base-, Base, Chaining, Chaining+.

Each generator returns a :class:`repro.kernels.build.KernelBuild`: assembly
text, data arrays, the golden reference and metadata, ready for
:mod:`repro.eval.runner`.
"""

from typing import TYPE_CHECKING

from repro._lazy import attach

if TYPE_CHECKING:
    from repro.kernels.build import KernelBuild
    from repro.kernels.stencil import (
        StencilSpec,
        box2d1r,
        box3d1r,
        j2d5pt,
        j3d27pt,
        star3d1r,
    )
    from repro.kernels.layout import Grid3d
    from repro.kernels.variants import Variant
    from repro.kernels.vecop import VecopVariant, build_vecop
    from repro.kernels.stencil_codegen import build_stencil
    from repro.kernels.linalg import (
        LinalgVariant,
        build_axpy,
        build_cdot,
        build_dot,
        build_gemv,
    )
    from repro.kernels.registry import KERNELS, STENCILS, kernel_names

__all__ = [
    "Grid3d",
    "KERNELS",
    "KernelBuild",
    "LinalgVariant",
    "STENCILS",
    "StencilSpec",
    "Variant",
    "VecopVariant",
    "box2d1r",
    "box3d1r",
    "build_axpy",
    "build_cdot",
    "build_dot",
    "build_gemv",
    "build_stencil",
    "build_vecop",
    "j2d5pt",
    "j3d27pt",
    "kernel_names",
    "star3d1r",
]

__getattr__, __dir__ = attach(__name__)
