"""Evaluation backends: run kernels, collect metrics, regenerate figures.

The public front door is :mod:`repro.api` (``Session``/``Workload``);
this package holds the execution backends behind it
(:func:`execute_build`, :func:`execute_stencil`,
:func:`~repro.eval.system_runner.execute_system_stencil`) and the
reporting helpers.
"""

from typing import TYPE_CHECKING

from repro._lazy import attach

if TYPE_CHECKING:
    from repro.eval.report import format_table, geomean
    from repro.eval.runner import Result, execute_build, execute_stencil

__all__ = [
    "Result",
    "execute_build",
    "execute_stencil",
    "format_table",
    "geomean",
]

__getattr__, __dir__ = attach(__name__)
