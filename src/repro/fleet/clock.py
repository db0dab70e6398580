"""The virtual clock the simulated fleet schedules against.

The broker never reads a clock: every method takes an explicit ``now``.
Networked coordinators and workers pass wall-clock ``time.time()``;
the in-process simulation and every fleet test pass
:class:`ManualClock` time, which only moves when the coordinator
advances it.  That substitution is what makes the fault-injection
harness deterministic *and* fast: a "60 second" lease timeout expires
in microseconds of wall time, on an exactly reproducible tick.

``ManualClock.sleep`` advances virtual time instead of blocking, so
test code written against the real clock (``clock.sleep(0.005)``) runs
at full speed unchanged — the test-suite hygiene rule is to route every
would-be ``time.sleep`` through a clock.
"""

from __future__ import annotations

import threading


class ManualClock:
    """Virtual time under test control: only :meth:`advance` moves it.

    Thread-safe so racing test threads may share one instance; in the
    deterministic fleet simulation a single coordinator thread owns it.
    """

    def __init__(self, start: float = 0.0):
        self._now = float(start)
        self._lock = threading.Lock()

    def now(self) -> float:
        """The current virtual time in seconds."""
        with self._lock:
            return self._now

    def advance(self, seconds: float) -> float:
        """Move virtual time forward; returns the new time.

        Time is monotonic by contract — a negative step is a test bug
        and raises rather than silently rewinding lease deadlines.
        """
        if seconds < 0:
            raise ValueError(f"cannot rewind a ManualClock by {seconds}")
        with self._lock:
            self._now += float(seconds)
            return self._now

    def sleep(self, seconds: float) -> None:
        """Advance virtual time by ``seconds`` without blocking."""
        self.advance(seconds)
