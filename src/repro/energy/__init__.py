"""Event-based energy/power and area models.

The paper's power numbers come from post-layout switching activity in
GF12LP+ at 0.8 V / 25 degC, which we cannot reproduce.  Instead, every
architectural event in the simulator (instruction issue, FPU operation,
register-file/FIFO access, TCDM access, streamer activity) is charged a
technology-plausible unit energy, plus a static per-cycle term.  Relative
power and energy-efficiency across code variants -- the quantities behind
the paper's claims -- are driven by the event *counts*, which the
simulator reproduces exactly.
"""

from typing import TYPE_CHECKING

from repro._lazy import attach

if TYPE_CHECKING:
    from repro.energy.model import EnergyModel, EnergyParams, EnergyReport
    from repro.energy.area import AreaModel

__all__ = ["AreaModel", "EnergyModel", "EnergyParams", "EnergyReport"]

__getattr__, __dir__ = attach(__name__)
