"""Parallel, cache-aware experiment engine.

Every figure panel in the paper is a (series × sweep × trial) grid of
independent stochastic experiments.  This module materialises each grid
cell as a :class:`TrialJob` — an independently seeded, picklable unit of
work — and fans the jobs out over one of three executors (:data:`EXECUTORS`):
serial in-process, a :class:`concurrent.futures.ThreadPoolExecutor` for
points whose hot loops release the GIL, or the work-queue fleet of
:mod:`repro.fleet`, whose networked ``repro fleet-worker`` processes are
the multi-process path.  Cells whose trial values are already present in
an on-disk :class:`ResultCache` are short-circuited.  Point functions
are best written as :class:`~repro.evaluation.scenarios.Scenario`
dataclasses: picklable (so the fleet can ship them to workers) and
code-fingerprinted (so the cache invalidates when their code changes).

Seeding is the load-bearing correctness property.  Cell seeds are derived
from a *stable digest* of the cell coordinates (``hashlib.blake2b`` over a
canonical encoding of the series/sweep names and values) combined with
the root :class:`numpy.random.SeedSequence`.  The builtin :func:`hash` is
never used: it is salted per process (``PYTHONHASHSEED``), so seeds
derived from it would differ from one process to the next.  Because
seeds depend only on the root seed and the cell's coordinates — never
on grid *indices* or execution order — every executor produces
bit-identical results, and the cache stays sound when a grid is
extended with new sweep values.

Cache keys additionally fold in a *code fingerprint* of the point
callable (:func:`~repro.evaluation.scenarios.point_fingerprint`): a
digest of its bytecode, constants, and configuration.  Seeds never
depend on the fingerprint — editing point code invalidates the affected
cache cells but leaves the random draws of recomputed cells unchanged.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import re
import tempfile
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..exceptions import ConfigurationError
from ..rng import GridSeed, spawn_rngs
from .sweeps import SweepResult, TrialStats

#: point(series_value, sweep_value, rng) -> scalar error.
PointFn = Callable[[object, object, np.random.Generator], float]

#: The executor names :func:`get_executor` resolves — the one list the
#: CLI, the HTTP tier and the bench knobs validate against.
EXECUTORS = ("serial", "thread", "fleet")

#: The engine's reproducibility-contract version, stamped into run
#: records (:mod:`repro.results`).  Bump it whenever seeding or digest
#: semantics change — i.e. whenever an old record's values could no
#: longer be regenerated by the current engine even with identical
#: point code — so ``python -m repro diff`` reports the incompatibility
#: as provenance drift instead of a wall of value drift.
ENGINE_VERSION = 1


# ---------------------------------------------------------------------------
# Stable digests — the fix for the process-salted hash() seeding bug.
# ---------------------------------------------------------------------------

def stable_repr(value: object) -> str:
    """``repr`` with memory addresses stripped, for process-stable keys.

    Only the default-repr ``at 0x...`` address pattern is stripped —
    a hex literal that is part of the value's state (``Spec(0xff)``)
    must survive, or distinct values would collide.
    """
    return re.sub(r" at 0x[0-9a-f]+", " at 0x", repr(value))


def canonical_token(value: object) -> str:
    """A stable, type-tagged text encoding of one coordinate value.

    Two values map to the same token iff they would label the same grid
    cell: the encoding is independent of the process (unlike ``hash``),
    tags the type so ``1`` and ``"1"`` stay distinct, and round-trips
    floats exactly via ``float.hex``.  Free-form payloads (strings,
    reprs) are length-prefixed so that no choice of value can mimic the
    token separators — tokens decode unambiguously, hence never collide.

    Objects are admitted only if their type defines a ``__repr__`` of
    its own: the inherited default repr is just a per-process memory
    address, which would silently reintroduce the cross-process seeding
    bug this module exists to fix.  Any address that still appears
    inside a custom repr (e.g. an embedded sub-object) is stripped.
    """
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, bool):
        return f"b:{value}"
    if isinstance(value, int):
        return f"i:{value}"
    if isinstance(value, float):
        return f"f:{value.hex()}"
    if isinstance(value, str):
        return f"s:{len(value)}:{value}"
    if isinstance(value, (tuple, list)):
        return "t:[" + ",".join(canonical_token(v) for v in value) + "]"
    if isinstance(value, (set, frozenset)):
        # Iteration order is hash-salted for str members; sort by token.
        return "S:{" + ",".join(sorted(canonical_token(v) for v in value)) + "}"
    if isinstance(value, np.ndarray):
        # repr() elides large arrays ('...'), which would collide distinct
        # coordinates; digest the full buffer instead.
        body = hashlib.blake2b(np.ascontiguousarray(value).tobytes(),
                               digest_size=8).hexdigest()
        return f"a:{value.dtype}:{value.shape}:{body}"
    if type(value).__repr__ is object.__repr__:
        raise TypeError(
            f"cannot derive a stable seed token for {type(value).__name__!r}: "
            f"its repr is the default per-process memory address; use an "
            f"int/float/str coordinate or a type with a meaningful __repr__")
    text = stable_repr(value)
    return f"r:{len(text)}:{text}"


def cell_seed_words(series_name: str, series_value: object,
                    sweep_name: str, sweep_value: object) -> Tuple[int, int]:
    """Two 32-bit spawn-key words stably derived from a cell's coordinates."""
    payload = "\x1f".join([
        canonical_token(series_name), canonical_token(series_value),
        canonical_token(sweep_name), canonical_token(sweep_value),
    ])
    digest = hashlib.blake2b(payload.encode("utf-8"), digest_size=8).digest()
    return (int.from_bytes(digest[:4], "little"),
            int.from_bytes(digest[4:], "little"))


def _normalize_root(seed: GridSeed) -> np.random.SeedSequence:
    """Root seed for a grid: an ``int`` or an explicit ``SeedSequence``.

    Anything else (``None``, a ``Generator``, a float, …) is rejected:
    the engine's reproducibility and cache-key guarantees only hold for
    seeds that can be re-stated exactly in a fresh process.
    """
    if isinstance(seed, (bool, np.bool_)):
        raise TypeError(f"unsupported root seed type {type(seed).__name__!r}; "
                        "pass an int or a numpy.random.SeedSequence")
    if isinstance(seed, (int, np.integer)):
        return np.random.SeedSequence(int(seed))
    if isinstance(seed, np.random.SeedSequence):
        return seed
    raise TypeError(f"unsupported root seed type {type(seed).__name__!r}; "
                    "pass an int or a numpy.random.SeedSequence")


# ---------------------------------------------------------------------------
# TrialJob — one independently seeded grid cell.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrialJob:
    """One (series, sweep) cell of a figure panel: ``n_trials`` repeats.

    Jobs are frozen, picklable value objects — everything a worker
    process needs (coordinates, trial count, and the exact seed material)
    travels with the job, so results cannot depend on which executor or
    process runs them.
    """

    series_index: int
    sweep_index: int
    series_value: object
    sweep_value: object
    n_trials: int
    entropy: object
    spawn_key: Tuple[int, ...]
    digest: str

    @classmethod
    def create(cls, *, series_index: int, sweep_index: int,
               series_value: object, sweep_value: object, n_trials: int,
               root: np.random.SeedSequence, sweep_name: str,
               series_name: str, cache_tag: str = "",
               code_token: str = "") -> "TrialJob":
        """Build a job with digest-derived seed material for one cell.

        ``code_token`` (normally the point callable's
        :func:`~repro.evaluation.scenarios.point_fingerprint`) enters
        the cache digest only — never the seed material — so editing
        point code retires stale cache cells without perturbing the
        random draws of the recomputed ones.  An empty token reproduces
        the pre-fingerprint digests, keeping code-agnostic callers (and
        their warm caches) stable.
        """
        words = cell_seed_words(series_name, series_value,
                                sweep_name, sweep_value)
        spawn_key = tuple(int(k) for k in root.spawn_key) + words
        components = [
            canonical_token(cache_tag),
            canonical_token(root.entropy if not isinstance(root.entropy, np.ndarray)
                            else root.entropy.tolist()),
            canonical_token(tuple(int(k) for k in root.spawn_key)),
            canonical_token(series_name), canonical_token(series_value),
            canonical_token(sweep_name), canonical_token(sweep_value),
            canonical_token(n_trials),
        ]
        if code_token:
            components.append("code=" + canonical_token(code_token))
        digest = hashlib.blake2b("\x1f".join(components).encode("utf-8"),
                                 digest_size=16).hexdigest()
        return cls(series_index=series_index, sweep_index=sweep_index,
                   series_value=series_value, sweep_value=sweep_value,
                   n_trials=n_trials, entropy=root.entropy,
                   spawn_key=spawn_key, digest=digest)

    def seed_sequence(self) -> np.random.SeedSequence:
        """The cell's root :class:`~numpy.random.SeedSequence`."""
        return np.random.SeedSequence(entropy=self.entropy,
                                      spawn_key=self.spawn_key)

    def execute(self, point: PointFn) -> List[float]:
        """Run all trials of this cell and return the raw trial values."""
        return [float(point(self.series_value, self.sweep_value, rng))
                for rng in spawn_rngs(self.seed_sequence(), self.n_trials)]


def build_jobs(sweep_name: str, sweep_values: Sequence[object],
               series_name: str, series_values: Sequence[object],
               n_trials: int, seed: GridSeed, cache_tag: str = "",
               code_token: str = "") -> List[TrialJob]:
    """Materialise every grid cell of a panel as an independent job.

    Series values must be unique: they key the result's ``series``
    mapping, and a duplicate would silently interleave two copies of
    the curve into one list.  (Duplicate *sweep* values are harmless —
    equal coordinates get equal seeds and equal results.)

    ``code_token`` is folded into each job's cache digest (see
    :meth:`TrialJob.create`); it does not influence seeds.

    ``n_trials`` must be a positive integer — not a bool, not a float
    such as ``2.0`` — and is checked here, before any cell is computed
    or cached, so a bad count can never leave cell files behind.
    """
    if (isinstance(n_trials, (bool, np.bool_))
            or not isinstance(n_trials, (int, np.integer)) or n_trials < 1):
        raise ConfigurationError(
            f"n_trials must be a positive integer, got {n_trials!r}")
    if len(set(series_values)) != len(list(series_values)):
        raise ValueError(f"series_values must be unique, got {list(series_values)!r}")
    root = _normalize_root(seed)
    jobs: List[TrialJob] = []
    for si, series_value in enumerate(series_values):
        for xi, sweep_value in enumerate(sweep_values):
            jobs.append(TrialJob.create(
                series_index=si, sweep_index=xi, series_value=series_value,
                sweep_value=sweep_value, n_trials=n_trials, root=root,
                sweep_name=sweep_name, series_name=series_name,
                cache_tag=cache_tag, code_token=code_token))
    return jobs


# ---------------------------------------------------------------------------
# Executors.
# ---------------------------------------------------------------------------

def _execute_payload(payload: Tuple[PointFn, TrialJob]) -> Tuple[List[float], float]:
    """Run one payload: the entry point of every executor and fleet worker.

    Returns ``(trial values, wall seconds)``: the compute time is
    measured *inside* the worker, so per-cell timings are honest under
    any executor — pool scheduling and IPC wait never inflate them.
    """
    point, job = payload
    start = time.perf_counter()
    values = job.execute(point)
    return values, time.perf_counter() - start


class SerialExecutor:
    """Runs jobs one after another in the calling process.

    ``run`` yields each cell's values as soon as that cell finishes, so
    the caller can persist completed work before a later cell fails.
    """

    def run(self, payloads: Sequence[Tuple[PointFn, TrialJob]]):
        """Yield each cell's ``(values, seconds)`` as it completes, in order."""
        for payload in payloads:
            yield _execute_payload(payload)


def _require_picklable(point: PointFn, executor: str) -> None:
    """Refuse a point function ``executor`` cannot ship to its workers.

    The fleet pickles every payload; checking up front turns a
    closure's raw ``PicklingError`` deep in a socket call into one
    clear error.
    """
    try:
        pickle.dumps(point)
    except Exception as exc:
        raise TypeError(
            f"the {executor} executor needs a picklable point function — "
            "a module-level function or a Scenario/PointSpec dataclass "
            "(repro.evaluation.scenarios), not a closure or lambda; "
            "use executor='serial' or 'thread' for closure-based "
            "points") from exc


class ThreadExecutor:
    """Fans jobs out over a :class:`ThreadPoolExecutor` in-process pool.

    The right executor for point functions dominated by BLAS or other C
    kernels that release the GIL (matrix products, numpy reductions):
    threads share the interpreter, so there is no pickling requirement —
    closures and lambdas work — and no per-job IPC cost.  Pure-Python
    hot loops serialise on the GIL; spread those over networked
    ``repro fleet-worker`` processes (``executor="fleet"`` with a
    broker) instead.

    Because each job carries its own seed material, results are
    bit-identical to :class:`SerialExecutor` regardless of worker count
    or scheduling order.

    Parameters
    ----------
    max_workers:
        Pool size; ``None`` uses the ``ThreadPoolExecutor`` default
        (``min(32, cpu_count + 4)``).
    """

    def __init__(self, max_workers: Optional[int] = None):
        if max_workers is not None and max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        self.max_workers = max_workers

    def run(self, payloads: Sequence[Tuple[PointFn, TrialJob]]):
        """Yield each cell's trial values as ``pool.map`` streams them."""
        if not payloads:
            return
        with ThreadPoolExecutor(max_workers=self.max_workers) as pool:
            yield from pool.map(_execute_payload, payloads)


ExecutorLike = Union[str, SerialExecutor, ThreadExecutor]


def get_executor(executor: ExecutorLike = "serial",
                 max_workers: Optional[int] = None):
    """Resolve an executor spec to an executor instance.

    ``executor`` is one of :data:`EXECUTORS` — ``"serial"``,
    ``"thread"``, or ``"fleet"`` (the work-queue executor of
    :mod:`repro.fleet`: a loopback broker with ``max_workers`` worker
    threads) — or any object with a ``run(payloads)`` method (returned
    unchanged).  A networked fleet is a :class:`~repro.fleet.FleetExecutor`
    built with ``FleetOptions(broker=...)``.
    """
    if isinstance(executor, str):
        if executor == "serial":
            return SerialExecutor()
        if executor == "thread":
            return ThreadExecutor(max_workers=max_workers)
        if executor == "fleet":
            # Imported lazily: repro.fleet imports this module for the
            # job-execution path, so a top-level import would be a cycle.
            from ..fleet import FleetExecutor, FleetOptions
            if max_workers is None:
                return FleetExecutor()
            return FleetExecutor(FleetOptions(n_workers=max_workers))
        raise ValueError(f"unknown executor {executor!r}; expected one "
                         f"of {', '.join(EXECUTORS)}")
    if hasattr(executor, "run"):
        return executor
    raise TypeError(f"executor must be a name or provide .run(), "
                    f"got {type(executor).__name__!r}")


# ---------------------------------------------------------------------------
# On-disk result cache.
# ---------------------------------------------------------------------------

#: Shard directory names: two lowercase hex characters (digest prefix).
_SHARD_RE = re.compile(r"[0-9a-f]{2}")


class ResultCache:
    """Per-cell trial-value cache keyed by the job digest.

    Each cell is one small JSON file named after the job's digest, which
    covers the root seed, the cell coordinates, the trial count, and the
    caller's ``cache_tag`` — so a hit is guaranteed to be the same
    experiment.  Raw trial values (not summaries) are stored, so cached
    cells reproduce :class:`TrialStats` bit-for-bit.  Writes are atomic
    (temp file + rename) to stay safe under concurrent bench runs.

    Cells are sharded into 256 subdirectories by the first two hex
    characters of the digest (``ab/abcd….json``) so the directory stays
    fast at tens of thousands of cells.  Hit/miss counters are
    lock-protected: one cache may be shared by concurrent requests.

    ``max_cells`` bounds a long-lived cache, such as a networked fleet
    worker's, which grows with every bench routed through it: after
    every write the least-recently-used cells (by file mtime, which
    hits refresh) are evicted down to ``max_cells``.  Digests in
    ``pinned`` — the committed records' keep-set
    (:func:`repro.results.baseline_digests`) — are never evicted, so a
    cache of pinned cells alone may exceed the bound.  ``None`` never
    evicts.
    """

    def __init__(self, directory: Union[str, Path],
                 max_cells: Optional[int] = None,
                 pinned: Sequence[str] = ()):
        if max_cells is not None and max_cells < 1:
            raise ValueError(f"max_cells must be >= 1, got {max_cells}")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.max_cells = max_cells
        self.pinned = frozenset(pinned)
        self.evicted = 0
        self.hits = 0
        self.misses = 0
        self._stats_lock = threading.Lock()

    def _path(self, digest: str) -> Path:
        return self.directory / digest[:2] / f"{digest}.json"

    def iter_cells(self):
        """Yield every cell file, shard by shard.

        Shard directories are exactly two hex characters; anything else
        at the top level (temp files, stray dirs, flat ``*.json``) is
        ignored, matching ``get``'s notion of what can ever be read back.
        """
        for shard in sorted(self.directory.iterdir()):
            if shard.is_dir() and _SHARD_RE.fullmatch(shard.name):
                yield from sorted(shard.glob("*.json"))

    def read_values(self, digest: str) -> Optional[object]:
        """The raw JSON payload stored for ``digest``, or ``None``.

        A raw read with no shape validation and no counter updates —
        the query tier serves cell bodies through this without
        perturbing hit/miss stats.
        """
        try:
            with open(self._path(digest)) as fh:
                return json.load(fh)
        except (OSError, UnicodeDecodeError, json.JSONDecodeError):
            # Missing, unreadable, or binary-corrupt files are a miss.
            return None

    def _read(self, job: TrialJob) -> Optional[List[float]]:
        """``job``'s validated cached values (counter-free), or ``None``."""
        values = self.read_values(job.digest)
        try:
            if not isinstance(values, list) or len(values) != job.n_trials:
                raise ValueError("wrong shape")
            return [float(v) for v in values]
        except (TypeError, ValueError):
            # Any malformed payload (wrong length, nulls, strings) is a
            # miss to recompute, like a missing or unparseable file.
            return None

    def get(self, job: TrialJob) -> Optional[List[float]]:
        """Cached trial values for ``job``, or ``None`` on a miss.

        Under ``max_cells``, a hit refreshes the cell file's mtime so
        recently-used cells sort to the young end of the LRU order.
        """
        values = self._read(job)
        with self._stats_lock:
            if values is None:
                self.misses += 1
            else:
                self.hits += 1
        if values is not None and self.max_cells is not None:
            self._touch(job.digest)
        return values

    def _touch(self, digest: str) -> None:
        """Refresh a cell's mtime (LRU recency); races are harmless."""
        try:
            os.utime(self._path(digest))
        except OSError:
            pass

    def put(self, job: TrialJob, values: Sequence[float]) -> None:
        """Atomically persist the trial values for ``job``.

        Under ``max_cells`` every write is followed by an eviction
        pass, so the cache never holds more unpinned cells than the
        bound allows.
        """
        target = self._path(job.digest)
        target.parent.mkdir(exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=target.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump([float(v) for v in values], fh)
            os.replace(tmp, target)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        if self.max_cells is not None:
            self.evict()

    def evict(self) -> List[Path]:
        """Evict down to ``max_cells``; returns the deleted cell files.

        Cells are ranked oldest-mtime-first (LRU: :meth:`get` hits
        refresh mtime) and the oldest unpinned cells are dropped until
        at most ``max_cells`` remain.  Pinned digests are never
        candidates.
        """
        if self.max_cells is None:
            return []
        entries = []
        for path in self.iter_cells():
            try:
                entries.append((path.stat().st_mtime, path))
            except OSError:
                continue  # concurrently evicted or pruned elsewhere
        entries.sort(key=lambda e: (e[0], e[1].name))
        excess = len(entries) - self.max_cells
        victims = [path for _, path in entries
                   if path.stem not in self.pinned][:max(excess, 0)]
        for path in victims:
            try:
                path.unlink()
            except OSError:
                continue
        with self._stats_lock:
            self.evicted += len(victims)
        return victims


CacheLike = Union[None, str, Path, ResultCache]


def _resolve_cache(cache: CacheLike) -> Optional[ResultCache]:
    if cache is None or isinstance(cache, ResultCache):
        return cache
    return ResultCache(cache)


# ---------------------------------------------------------------------------
# Single-flight coalescing.
# ---------------------------------------------------------------------------

class SingleFlight:
    """Coalesces concurrent computations of the same cell digest.

    When several threads ask for the same cold cell at once, exactly one
    of them (the *leader*) computes it; the rest (*followers*) block on
    the leader's :class:`~concurrent.futures.Future` and share its
    result.  The map is keyed by the job digest, which already covers
    seed material, coordinates, trial count, and code fingerprint — so
    two claims for one digest are guaranteed to be the same computation.

    ``claim`` hands back ``(future, is_leader)``.  A leader must
    eventually call :meth:`resolve` (or :meth:`fail`) with the same
    future it claimed; the identity check means a stale leader that
    already handed the digest off can never clobber a newer flight.

    ``led`` / ``coalesced`` count claims, not cells: they are the
    observable proof of coalescing ("8 concurrent requests, ``led`` went
    up by 1") surfaced by the server's ``/stats`` endpoint.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._inflight: Dict[str, Future] = {}
        self.led = 0
        self.coalesced = 0

    def claim(self, digest: str) -> Tuple[Future, bool]:
        """Join the flight for ``digest``; lead it if nobody else is.

        Returns ``(future, is_leader)``.  The future resolves to
        ``(values, elapsed)`` once the leader finishes.
        """
        with self._lock:
            future = self._inflight.get(digest)
            if future is not None:
                self.coalesced += 1
                return future, False
            future = Future()
            self._inflight[digest] = future
            self.led += 1
            return future, True

    def _release(self, digest: str, future: Future) -> None:
        with self._lock:
            if self._inflight.get(digest) is future:
                del self._inflight[digest]

    def resolve(self, digest: str, future: Future, result: object) -> None:
        """Publish a leader's result and retire the flight."""
        self._release(digest, future)
        if not future.done():
            future.set_result(result)

    def fail(self, digest: str, future: Future, exc: BaseException) -> None:
        """Fail a flight so followers raise instead of hanging forever."""
        self._release(digest, future)
        if not future.done():
            future.set_exception(exc)

    def pending(self) -> int:
        """How many flights are currently in the air (0 when drained)."""
        with self._lock:
            return len(self._inflight)


# ---------------------------------------------------------------------------
# run_grid — the engine's front door.
# ---------------------------------------------------------------------------

def _normalize_cell(item: object) -> Tuple[List[float], Optional[float], bool]:
    """Normalise one executor yield to ``(values, elapsed_or_None, cacheable)``.

    The built-in pool executors yield ``(values, seconds)``; the fleet
    executor yields ``(values, seconds, cacheable)`` — ``cacheable``
    False marks a placeholder cell (a dead-lettered job) that must
    never be persisted to the result cache.
    """
    values, elapsed, *cacheable = item
    return list(values), elapsed, bool(cacheable[0]) if cacheable else True


def run_grid(point: PointFn, sweep_name: str, sweep_values: Sequence[object],
             series_name: str, series_values: Sequence[object], *,
             n_trials: int = 5, seed: GridSeed = 0,
             executor: ExecutorLike = "serial",
             max_workers: Optional[int] = None,
             cache: CacheLike = None, cache_tag: str = "",
             code_tag: Optional[str] = None,
             flight: Optional[SingleFlight] = None,
             on_cell: Optional[Callable[[TrialJob, List[float],
                                         Optional[float]], None]] = None
             ) -> SweepResult:
    """Evaluate ``point`` over the sweep × series grid with repeats.

    The grid is materialised as :class:`TrialJob` s, cached cells are
    loaded from ``cache``, and only the missing cells are dispatched to
    ``executor``.  The result is identical for every executor and for
    every cache state, because all randomness is fixed by the job seeds.

    Parameters
    ----------
    point:
        ``point(series_value, sweep_value, rng) -> scalar``.  Must be
        picklable — a module-level function or a
        :class:`~repro.evaluation.scenarios.Scenario` — for the fleet;
        the serial and thread executors take any callable.
    executor:
        ``"serial"``, ``"thread"``, ``"fleet"``, or any
        object whose ``run(payloads)`` returns an iterable — of
        ``(values, seconds)`` pairs like the built-in pools, or
        ``(values, seconds, cacheable)`` triples like the fleet
        (``cacheable`` False skips the cache write for that cell) — in
        payload order (streaming generators preserve partial progress).
    cache:
        ``None``, a directory path, or a :class:`ResultCache`.
    cache_tag:
        Distinguishes different point functions that share a root seed
        and grid; include it whenever a cache directory is shared.
    code_tag:
        Code component of the cache key.  ``None`` (default) derives it
        from ``point`` via
        :func:`~repro.evaluation.scenarios.point_fingerprint`, so
        editing the point's code (or a scenario's fields) invalidates
        exactly its cached cells.  Pass ``""`` to opt out and key cells
        by coordinates alone, or a fixed string to manage versioning by
        hand.  Never affects seeds or results — only cache reuse.
    flight:
        Optional :class:`SingleFlight` shared across concurrent callers
        (the serving tier).  Cold cells whose digest is already being
        computed by another caller are *not* recomputed: this call
        blocks on the in-flight future and shares its values.  Leader
        failures propagate to followers.  ``None`` (default) preserves
        the standalone behaviour.  Values are identical either way —
        coalescing only changes who computes, never what.
    on_cell:
        Observation hook for run recording: called once per grid cell —
        cache hits included — as ``on_cell(job, trial_values, elapsed)``
        in deterministic job order (series-major, the order
        :func:`build_jobs` materialises), after all cells completed.
        ``elapsed`` is the cell's compute wall-time in seconds, or
        ``None`` when the cell was not computed here (cache hit,
        coalesced flight, or a custom executor that does not report
        timing).  The job carries the cell's digest and coordinates, so
        a caller can assemble a full provenance record
        (:class:`repro.results.RunRecorder`) without re-deriving
        anything.  Must not mutate ``trial_values``.
    """
    if code_tag is None:
        from .scenarios import point_fingerprint
        code_tag = point_fingerprint(point)
    jobs = build_jobs(sweep_name, sweep_values, series_name, series_values,
                      n_trials, seed, cache_tag=cache_tag,
                      code_token=code_tag)
    store = _resolve_cache(cache)
    cells: Dict[int, Tuple[List[float], Optional[float]]] = {}
    pending: List[Tuple[int, TrialJob]] = []
    for index, job in enumerate(jobs):
        hit = store.get(job) if store is not None else None
        if hit is not None:
            cells[index] = (hit, None)
        else:
            pending.append((index, job))
    if pending:
        runner = get_executor(executor, max_workers=max_workers)
        followers: List[Tuple[int, TrialJob, Future]] = []
        led_futures: Dict[int, Future] = {}
        if flight is None:
            leaders = pending
        else:
            # Claim every cold digest up front.  Digests this caller
            # wins are computed below; digests already in flight
            # elsewhere are awaited only after our own batch resolves —
            # leaders-before-followers ordering is what makes a
            # duplicate digest within one grid deadlock-free.
            leaders = []
            for index, job in pending:
                future, is_leader = flight.claim(job.digest)
                if not is_leader:
                    followers.append((index, job, future))
                    continue
                # Double-check the cache after winning the claim: another
                # caller's flight may have completed (and released the
                # digest) between our miss above and this claim.  Serving
                # the fresh cache entry here is what makes "exactly one
                # computation per digest" a guarantee, not a likelihood.
                cached = store._read(job) if store is not None else None
                if cached is not None:
                    cells[index] = (cached, None)
                    flight.resolve(job.digest, future, (cached, None))
                    continue
                leaders.append((index, job))
                led_futures[index] = future
        try:
            fresh = runner.run([(point, job) for _, job in leaders])
            # Consume as the executor streams: each finished cell is
            # cached (and its flight resolved) immediately, so an
            # interrupt or a failing later cell never discards
            # completed work — or hangs a follower.
            for (index, job), item in zip(leaders, fresh):
                values, elapsed, cacheable = _normalize_cell(item)
                cells[index] = (values, elapsed)
                if store is not None and cacheable:
                    store.put(job, values)
                if flight is not None:
                    flight.resolve(job.digest, led_futures[index],
                                   (values, elapsed))
        finally:
            if flight is not None:
                # A leader that dies mid-batch must fail its remaining
                # flights, or followers block forever on futures nobody
                # will ever resolve.
                for index, job in leaders:
                    future = led_futures[index]
                    if not future.done():
                        flight.fail(job.digest, future, RuntimeError(
                            f"computation of cell {job.digest} aborted "
                            f"before completing"))
        for index, job, future in followers:
            values, _elapsed = future.result()
            cells[index] = (list(values), None)

    result = SweepResult(sweep_name=sweep_name, series_name=series_name,
                         sweep_values=list(sweep_values))
    for index, job in enumerate(jobs):
        values, elapsed = cells[index]
        if on_cell is not None:
            on_cell(job, values, elapsed)
        stats = TrialStats.from_values(values)
        result.series.setdefault(job.series_value, []).append(stats)
    return result
