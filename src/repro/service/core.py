"""``ServiceCore`` — catalog, record store, cell cache, and engine in one.

Before this layer existed, every entry point assembled the platform by
hand: the CLI built its own ``ResultCache`` and ``RunRecorder``, the
pytest benches re-derived executors and wrote records through their own
store, and nothing could serve results to concurrent clients.  The core
composes those pieces once and exposes a small method surface:

* compute tier — :meth:`ServiceCore.run_bench` /
  :meth:`ServiceCore.run_spec` execute catalog benches and TOML specs
  through the engine, always against the core's cache and its shared
  :class:`~repro.evaluation.SingleFlight` map, so concurrent callers
  coalesce onto one computation per cell digest;
* query tier — :meth:`ServiceCore.load_record`,
  :meth:`ServiceCore.cell_values`, :meth:`ServiceCore.catalog_entries`
  answer read requests from the committed stores without computing.
  Each record file version is verified once and then served from
  memory while one ``stat`` still matches it;
* maintenance — :meth:`ServiceCore.scan_cache` and
  :meth:`ServiceCore.prune_cache` split and garbage-collect sharded
  cell files for ``cache stats`` / ``cache prune``.

Everything above it — :mod:`repro.cli`, ``benchmarks/_common``, and
:mod:`repro.server` — is an adapter over these methods.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from ..evaluation import (
    ExperimentSpec,
    ResultCache,
    SingleFlight,
    format_panel_block,
)
from ..evaluation.scenarios import point_fingerprint
from ..exceptions import ResultsError
from ..experiments import bench, bench_names, bench_recorder
from ..fleet import FleetExecutor, FleetOptions, FleetStats
from ..experiments.catalog import BenchDef, claimed_digests
from ..results import (
    ResultsStore,
    RunRecord,
    RunRecorder,
    cell_capture,
    manifest_text,
)

#: Job digests are 32 lowercase hex chars (blake2b, ``digest_size=16``);
#: anything else is refused before it can touch the filesystem.
_DIGEST_RE = re.compile(r"[0-9a-f]{8,128}")

#: A record name is a bare stem or catalog name: no separator and no
#: ``..``, so it can only ever name ``<results_dir>/<name>.json``.
_RECORD_NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]*")


def _stat(path: Path) -> Optional[os.stat_result]:
    """``os.stat(path)``, or ``None`` when the file cannot be reached."""
    try:
        return os.stat(path)
    except OSError:
        return None


@dataclass(frozen=True)
class StoredRecord:
    """One verified version of a record file, as the query tier holds it.

    ``key`` is the file's ``(st_ino, st_size, st_mtime_ns, st_ctime_ns)``
    when it was verified; ``manifest`` is :func:`manifest_text` of
    ``record``, the bytes ``GET /records/<name>`` serves.
    """

    key: Tuple[int, int, int, int]
    record: RunRecord
    manifest: bytes


@dataclass(frozen=True)
class BenchRun:
    """The full outcome of one catalog bench run through the core.

    Carries everything any client renders: the resolved
    :class:`~repro.experiments.catalog.BenchDef`, the sealed
    provenance record, the per-panel text-table blocks (byte-identical
    to the committed ``benchmarks/results/*.txt`` content), and the
    per-panel ``series -> mean curve`` mappings.
    """

    definition: BenchDef
    record: RunRecord
    blocks: Tuple[str, ...]
    panels: Tuple[Dict[object, List[float]], ...]


@dataclass(frozen=True)
class SpecRun:
    """The outcome of one TOML-spec run through the core.

    ``block`` is the printed table, ``series`` the mean curves, and
    ``record`` the sealed provenance record (built for every run; the
    caller decides whether to persist it).
    """

    spec: ExperimentSpec
    record: RunRecord
    block: str
    series: Dict[object, List[float]]
    trials: int


@dataclass
class ServiceCore:
    """One composed compute/query tier shared by CLI, benches, server.

    Parameters are all optional: a core without a cache computes
    uncached, a core without a results directory cannot answer record
    queries but still runs benches.  The :class:`SingleFlight` map is
    created per core (or injected for tests) and shared by every grid
    the core runs — that sharing *is* the coalescing guarantee.
    """

    results_dir: Optional[Path] = None
    cache: Optional[ResultCache] = None
    flight: SingleFlight = field(default_factory=SingleFlight)
    #: Configuration applied to every ``executor="fleet"`` run this
    #: core performs (pool size, lease policy, injected faults).
    fleet: FleetOptions = field(default_factory=FleetOptions)
    #: Core-lifetime fleet counters, accumulated across every fleet run
    #: and surfaced by ``/stats`` and ``cache stats --json``.
    fleet_stats: FleetStats = field(default_factory=FleetStats)
    #: Verified record files by path, each valid while its stat key
    #: matches.  Bounded by the record files in ``results_dir``; no lock,
    #: since two racing misses both verify and the last write wins.
    _records: Dict[Path, StoredRecord] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    #: The catalog's ``BenchDef`` s, keyed by the ``bench_names()``
    #: tuple they were built for.
    _catalog: Tuple[Tuple[str, ...], Tuple[BenchDef, ...]] = field(
        default=((), ()), init=False, repr=False, compare=False)

    def __post_init__(self):
        """Normalise path-like and directory-like constructor arguments."""
        if self.results_dir is not None:
            self.results_dir = Path(self.results_dir)
        if self.cache is not None and not isinstance(self.cache, ResultCache):
            self.cache = ResultCache(self.cache)

    # -- query tier ----------------------------------------------------------

    def store(self) -> Optional[ResultsStore]:
        """The run-record store over ``results_dir``, if one is configured."""
        if self.results_dir is None:
            return None
        return ResultsStore(self.results_dir)

    def catalog_entries(self) -> List[BenchDef]:
        """Every catalog bench definition at laptop scale, sorted by name.

        Built once per set of registered names: a bench registered
        later changes ``bench_names()`` and so rebuilds the list.
        """
        names = bench_names()
        built_for, definitions = self._catalog
        if built_for != names:
            definitions = tuple(bench(name) for name in names)
            self._catalog = (names, definitions)
        return list(definitions)

    def load_record(self, name: str) -> RunRecord:
        """A stored run record by stem (``fig05``) or catalog name.

        A catalog bench name resolves through its ``result_stem``, so
        ``GET /records/fig05_lasso_lognormal`` and ``GET /records/fig05``
        serve the same manifest.  Anything but a bare name (a path, a
        ``..``) is refused before the filesystem is touched.  Raises
        :class:`~repro.exceptions.ResultsError` when no store is
        configured, the name is refused, or the record does not exist
        or fails verification; no message names a filesystem path.
        """
        return self._stored(name).record

    def manifest_bytes(self, record: RunRecord) -> bytes:
        """The manifest bytes of a record :meth:`load_record` returned.

        Taken from the memo entry holding that very record, so a served
        body is never re-serialised; any other record is serialised
        with :func:`~repro.results.manifest_text`.
        """
        for stored in tuple(self._records.values()):
            if stored.record is record:
                return stored.manifest
        return manifest_text(record).encode("utf-8")

    def _stored(self, name: str) -> StoredRecord:
        """The verified current version of record ``name``.

        One ``stat`` revalidates a memo entry.  Any change of inode,
        size, mtime or ctime — an atomic replace, an in-place edit —
        misses, and the file goes through :meth:`ResultsStore.load`,
        which checks both digests, before it is served.  The ``stat``
        precedes the read, so a write racing the load leaves a stale
        key behind, never a stale body.
        """
        store = self.store()
        if store is None:
            raise ResultsError("no results directory configured")
        if not _RECORD_NAME_RE.fullmatch(name) or ".." in name:
            raise ResultsError(
                "a record is named by its stem or catalog bench name, "
                "not by a path")
        path = store.path_for(name)
        status = _stat(path)
        if status is None and name in bench_names():
            path = store.path_for(bench(name).result_stem)
            status = _stat(path)
        if status is None:
            self._records.pop(path, None)
            raise ResultsError(f"no run record named {name!r}")
        key = (status.st_ino, status.st_size, status.st_mtime_ns,
               status.st_ctime_ns)
        stored = self._records.get(path)
        if stored is not None and stored.key == key:
            return stored
        try:
            record = store.load(path)
        except ResultsError as exc:
            self._records.pop(path, None)
            # Name the file relative to the store, never by its path.
            message = str(exc).replace(f"{store.directory}{os.sep}", "")
            raise type(exc)(message) from exc
        stored = StoredRecord(key=key, record=record,
                              manifest=manifest_text(record).encode("utf-8"))
        self._records[path] = stored
        return stored

    def cell_values(self, digest: str) -> Optional[object]:
        """The cached raw trial values for one cell digest, or ``None``.

        The digest is validated as hex before it is used in a path —
        a traversal attempt (``../``) can never reach the filesystem.
        """
        if self.cache is None or not _DIGEST_RE.fullmatch(digest):
            return None
        return self.cache.read_values(digest)

    # -- compute tier --------------------------------------------------------

    def run_bench(self, name: str, *, full: bool = False,
                  n_trials: Optional[int] = None, executor: str = "serial",
                  max_workers: Optional[int] = None) -> BenchRun:
        """Run one catalog bench through the engine; seal its record.

        The one bench execution path behind ``python -m repro run``,
        ``run_catalog_bench``, and ``POST /run`` — all three therefore
        produce identical tables and records (equal ``run_id``) for the
        same entry.  Every catalog panel point is a picklable scenario,
        so every panel runs on the requested executor.  Nothing is
        persisted here — callers own their write policy.
        """
        definition = bench(name, full=full)
        recorder = bench_recorder(definition, executor=executor, full=full)
        # One fleet instance spans every panel of the run, so its
        # counters and dead letters describe exactly this record.
        runner = self._fleet_runner(executor, max_workers)
        blocks, panels = [], []
        for panel in definition.panels:
            series = panel.run(executor=runner if runner is not None
                               else executor, cache=self.cache,
                               n_trials=n_trials, max_workers=max_workers,
                               recorder=recorder, flight=self.flight)
            blocks.append(format_panel_block(panel.title, panel.x_name,
                                             panel.sweep_values, series))
            panels.append(series)
        if runner is not None:
            self.fleet_stats.merge(runner.stats)
            recorder.set_fleet(runner.record_payload())
        return BenchRun(definition=definition, record=recorder.finalize(),
                        blocks=tuple(blocks), panels=tuple(panels))

    def _fleet_runner(self, executor: str, max_workers: Optional[int]
                      ) -> Optional[FleetExecutor]:
        """A fresh fleet for one run (``None`` off the fleet executor).

        ``max_workers`` sizes the pool, as it does for
        ``get_executor("fleet")``; ``fleet.broker`` picks a loopback
        broker with worker threads, or a socket broker with real
        workers.
        """
        if executor != "fleet":
            return None
        options = self.fleet
        if max_workers is not None:
            options = replace(options, n_workers=max_workers)
        return FleetExecutor(options)

    def run_spec(self, spec: ExperimentSpec, *, executor: str = "serial",
                 n_trials: Optional[int] = None,
                 max_workers: Optional[int] = None) -> SpecRun:
        """Run one declarative spec through the engine; seal its record."""
        trials = spec.n_trials if n_trials is None else n_trials
        recorder = RunRecorder(kind="spec", name=spec.name,
                               result_stem=spec.name, executor=executor,
                               full=False)
        cells, on_cell = cell_capture()
        runner = self._fleet_runner(executor, max_workers)
        result = spec.run(executor=runner if runner is not None else executor,
                          cache=self.cache, n_trials=n_trials,
                          max_workers=max_workers, flight=self.flight,
                          on_cell=on_cell)
        if runner is not None:
            self.fleet_stats.merge(runner.stats)
            recorder.set_fleet(runner.record_payload())
        series = {label: [stat.mean for stat in stats]
                  for label, stats in result.series.items()}
        title = (f"{spec.name}: {spec.metric} ({spec.solver} on {spec.data}, "
                 f"{trials} trials, seed {spec.seed})")
        recorder.add_panel(
            title=title, x_name=spec.sweep.name, sweep_name=spec.sweep.name,
            series_name=spec.series.name, sweep_values=spec.sweep.values,
            series_values=spec.series.values, seed=spec.seed, n_trials=trials,
            point_fingerprint=point_fingerprint(spec.to_scenario()),
            cells=cells)
        block = format_panel_block(title, spec.sweep.name, spec.sweep.values,
                                   series)
        return SpecRun(spec=spec, record=recorder.finalize(), block=block,
                       series=series, trials=trials)

    # -- maintenance ---------------------------------------------------------

    def scan_cache(self, directory: Union[str, Path],
                   baseline: set) -> Dict[str, List[Path]]:
        """Split cell files into catalog-claimed, baseline-pinned, orphaned.

        Walks the sharded (``ab/<digest>.json``) layout via
        :meth:`~repro.evaluation.ResultCache.iter_cells`.
        A cell counts as ``claimed`` when a current catalog grid
        produces its digest; failing that, as ``baseline`` when a
        committed run record references it; anything else is an
        orphan.
        """
        claimed = claimed_digests()
        split: Dict[str, List[Path]] = {"claimed": [], "baseline": [],
                                        "orphaned": []}
        for cell in ResultCache(directory).iter_cells():
            if cell.stem in claimed:
                split["claimed"].append(cell)
            elif cell.stem in baseline:
                split["baseline"].append(cell)
            else:
                split["orphaned"].append(cell)
        return split

    def prune_cache(self, directory: Union[str, Path], baseline: set,
                    dry_run: bool = False) -> Dict[str, List[Path]]:
        """Delete orphaned cells (unless ``dry_run``); return the split."""
        split = self.scan_cache(directory, baseline)
        if not dry_run:
            for cell in split["orphaned"]:
                cell.unlink()
        return split
