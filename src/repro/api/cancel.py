"""Cooperative cancellation for campaigns and the serve layer.

A :class:`CancelToken` is a thread-safe latch shared between whoever
wants to stop a campaign (a signal handler, an HTTP cancel endpoint, a
watchdog thread) and the execution engine honouring it
(:meth:`repro.api.Session.map` / :class:`repro.sweep.runner.
SweepRunner`).  Cancellation is *cooperative* and point-granular: the
runner stops dispatching new points as soon as the token trips, lets
in-flight points drain (bounded by their own timeouts), and reports
every undispatched point as a ``"cancelled"`` outcome -- results that
already landed are kept and cached, nothing is rolled back.
"""

from __future__ import annotations

import threading

__all__ = ["CancelToken"]


class CancelToken:
    """Thread-safe one-way cancellation latch.

    ``cancel()`` may be called from any thread (or a signal handler --
    it only sets an event); ``cancelled`` is the cheap check the
    execution loops poll between points.
    """

    def __init__(self) -> None:
        self._event = threading.Event()

    def cancel(self) -> None:
        """Trip the token.  Idempotent; never blocks."""
        self._event.set()

    @property
    def cancelled(self) -> bool:
        return self._event.is_set()

    def __bool__(self) -> bool:
        # A token is always truthy (present); use .cancelled for state.
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "armed"
        return f"CancelToken({state})"
