"""Seeded, deterministic fault schedules for fleet workers.

A :class:`FaultSchedule` decides, for every (job digest, attempt)
event, whether a :class:`~repro.fleet.net.FleetWorker` injects one of
the fleet's two worker failure modes:

* **kill** — the worker dies mid-job before computing; its lease is
  left to expire on the clock.
* **drop** — the worker finishes but its completion message is lost;
  the lease expires and the job is retried.

Decisions are pure functions of ``(seed, kind, digest, attempt)`` via
:func:`hashlib.blake2b` — never a global RNG — so a schedule replays
identically in any process and under any ``PYTHONHASHSEED``.  On top of
the seeded rates, explicit sets force faults at exact coordinates
(``kill={(digest, 0)}`` kills the first attempt of one known cell), and
``poison={digest}`` kills *every* attempt — the deterministic way to
drive a job into retry exhaustion and the dead-letter path.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import FrozenSet, Tuple


def _freeze(value) -> frozenset:
    """Normalise a constructor iterable into a frozenset."""
    return value if isinstance(value, frozenset) else frozenset(value)


@dataclass(frozen=True)
class FaultSchedule:
    """One seeded plan of injected failures, replayable bit-for-bit.

    Rates are probabilities in ``[0, 1]`` applied independently per
    (digest, attempt); the explicit sets force the corresponding fault
    regardless of rate.  The default schedule injects nothing — a
    ``FaultSchedule()`` wrapper is a no-op.
    """

    seed: int = 0
    kill_rate: float = 0.0
    drop_rate: float = 0.0
    #: Forced faults at exact ``(digest, attempt)`` coordinates.
    kill: FrozenSet[Tuple[str, int]] = field(default_factory=frozenset)
    drop: FrozenSet[Tuple[str, int]] = field(default_factory=frozenset)
    #: Digests killed on *every* attempt — guaranteed dead letters.
    poison: FrozenSet[str] = field(default_factory=frozenset)

    def __post_init__(self):
        """Validate rates and freeze the forced-fault sets."""
        for name in ("kill_rate", "drop_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        for name in ("kill", "drop", "poison"):
            object.__setattr__(self, name, _freeze(getattr(self, name)))

    def _coin(self, kind: str, digest: str, attempt: int,
              rate: float) -> bool:
        """A deterministic biased coin for one fault decision."""
        if rate <= 0.0:
            return False
        payload = f"{self.seed}\x1f{kind}\x1f{digest}\x1f{attempt}"
        word = hashlib.blake2b(payload.encode("utf-8"),
                               digest_size=8).digest()
        return int.from_bytes(word, "little") / 2.0 ** 64 < rate

    def kill_worker(self, digest: str, attempt: int) -> bool:
        """Should the worker computing this attempt die mid-job?"""
        return (digest in self.poison or (digest, attempt) in self.kill
                or self._coin("kill", digest, attempt, self.kill_rate))

    def drop_completion(self, digest: str, attempt: int) -> bool:
        """Should this attempt's completion message be lost?"""
        return ((digest, attempt) in self.drop
                or self._coin("drop", digest, attempt, self.drop_rate))
