"""Versioned run records: the provenance-stamped result of one run.

A :class:`RunRecord` is the structured counterpart of a bench's text
table: a JSON-expressible manifest carrying everything needed to decide
whether two runs are *the same experiment* (schema version, bench/spec
name, per-panel grid axes, root seeds, trial counts, point code
fingerprints, per-cell job digests, engine and package versions, the
executor that ran it) plus the per-cell :class:`TrialStats` the tables
print.  Records are built through a :class:`RunRecorder` wired into
:meth:`repro.experiments.catalog.PanelDef.run`, so the pytest benches
and ``python -m repro run`` emit identical records for free.

Identity and integrity
----------------------

``run_id`` is a stable digest of the record's canonical JSON payload —
*excluding* the executor and package version, which are recorded as
environment metadata but (by the engine's bit-identity guarantee) can
never change the results.  Two runs of the same experiment producing
the same values therefore share a ``run_id`` no matter which executor
produced them.  Loading recomputes the digest and refuses a manifest
whose content no longer matches its ``run_id`` — a truncated or
hand-edited record fails loudly instead of quietly feeding a drifted
baseline to ``python -m repro diff``.

``config_digest`` covers only the provenance half (axes, seeds, trial
counts, fingerprints, cell digests — no stats): two records with equal
``config_digest`` are mechanically comparable, and any value
difference between them is genuine drift.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

import numpy as np

from ..exceptions import ResultsError, UnknownSchemaError
from ..evaluation.sweeps import TrialStats

#: The manifest layout this build writes and reads.  Bump on any
#: incompatible change to the payload structure; readers refuse other
#: versions (:class:`~repro.exceptions.UnknownSchemaError`).
SCHEMA_VERSION = 1

#: Payload keys that never enter ``run_id``: ``run_id`` itself plus the
#: environment metadata that cannot influence results (executors are
#: bit-identical; the package version only matters when values actually
#: change, which the stats digest already captures; per-cell wall-times
#: describe the machine that ran the cells, not the experiment; fleet
#: telemetry — lease/retry counters and dead letters — describes how
#: the work-queue run went, not what was computed).
_RUN_ID_EXCLUDED = ("run_id", "executor", "package_version", "timings",
                    "fleet")

#: The two provenance kinds a record can describe.
_KINDS = ("bench", "spec")


def _jsonify(value: object, where: str) -> object:
    """Normalise ``value`` into plain JSON-expressible data.

    NumPy scalars become Python scalars, tuples become lists, and
    anything JSON cannot carry (objects, arrays, non-string dict keys)
    raises :class:`ResultsError` naming the offending location — a run
    record must round-trip bytes-for-bytes through its file.
    """
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, float) and not np.isfinite(value):
        raise ResultsError(f"{where}: non-finite float {value!r}; strict "
                           f"JSON cannot carry NaN/Infinity")
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonify(v, where) for v in value]
    if isinstance(value, Mapping):
        out = {}
        for key, item in value.items():
            if not isinstance(key, str):
                raise ResultsError(f"{where}: mapping keys must be strings, "
                                   f"got {key!r}")
            out[key] = _jsonify(item, where)
        return out
    raise ResultsError(f"{where}: value {value!r} of type "
                       f"{type(value).__name__} is not JSON-expressible; "
                       f"run records only carry plain data")


def canonical_json(payload: object) -> str:
    """The canonical byte-stable JSON text of a record payload.

    Strict JSON only: a payload carrying NaN/Infinity (e.g. a diverged
    trial's stats) raises :class:`ResultsError` instead of emitting the
    bare ``NaN`` token that non-Python JSON parsers reject.
    """
    try:
        return json.dumps(payload, sort_keys=True, separators=(",", ":"),
                          allow_nan=False)
    except ValueError as exc:
        raise ResultsError(
            f"run record payload contains non-finite floats (NaN/Infinity), "
            f"which strict JSON cannot carry: {exc}") from exc


def compute_run_id(payload: Mapping) -> str:
    """The run id a payload *should* carry: a digest of its content.

    Environment metadata (:data:`_RUN_ID_EXCLUDED`) is left out, so the
    id identifies the experiment and its values, not the machinery that
    happened to execute it.
    """
    trimmed = {key: value for key, value in payload.items()
               if key not in _RUN_ID_EXCLUDED}
    return hashlib.blake2b(canonical_json(trimmed).encode("utf-8"),
                           digest_size=8).hexdigest()


#: The run-level payload keys whose difference makes two runs a
#: different experiment.  Shared by ``config_digest`` and the diff
#: classifier (:mod:`repro.results.diff`), so the two can never
#: disagree about what counts as provenance.
RUN_PROVENANCE_KEYS = ("kind", "name", "full", "engine_version")

#: The panel payload keys that are part of the reproducibility contract
#: (they enter cell seeds or cache digests) — exactly what
#: ``config_digest`` covers, together with the cells' coordinates and
#: digests.  Cosmetic labels (``title``, ``x_name``) are excluded, as
#: are the stats: two records with equal ``config_digest`` are the same
#: experiment, whatever their values.  Shared with the diff classifier
#: like :data:`RUN_PROVENANCE_KEYS`.
PANEL_PROVENANCE_KEYS = ("sweep_name", "series_name", "sweep_values",
                         "series_values", "seed", "n_trials",
                         "point_fingerprint")


def compute_config_digest(payload: Mapping) -> str:
    """The provenance digest a payload *should* carry.

    Covers the run identity (:data:`RUN_PROVENANCE_KEYS`) and every
    panel's :data:`PANEL_PROVENANCE_KEYS` plus cell coordinates and
    digests — never the stats.  Deliberate edits to a manifest must
    re-stamp ``config_digest`` (this function) and then ``run_id``
    (:func:`compute_run_id`), in that order.
    """
    panels = []
    for panel in payload["panels"]:
        entry = {key: panel[key] for key in PANEL_PROVENANCE_KEYS}
        entry["cells"] = [{"series_value": cell["series_value"],
                           "sweep_value": cell["sweep_value"],
                           "digest": cell["digest"]}
                          for cell in panel["cells"]]
        panels.append(entry)
    head = {key: payload[key] for key in RUN_PROVENANCE_KEYS}
    head["panels"] = panels
    return hashlib.blake2b(canonical_json(head).encode("utf-8"),
                           digest_size=8).hexdigest()


def cell_capture():
    """A fresh ``(cells, on_cell)`` pair for the engine's observation hook.

    ``on_cell`` appends each ``(TrialJob, trial values, elapsed)``
    triple to ``cells`` as :func:`repro.evaluation.run_grid` walks the
    grid in job order (``elapsed`` is ``None`` for cells the engine did
    not compute — cache hits and coalesced flights); hand ``cells`` to
    :meth:`RunRecorder.add_panel`.  Every recording call site uses this
    one helper so bench and spec records capture identically.
    """
    cells: List[tuple] = []
    return cells, (lambda job, values, elapsed=None:
                   cells.append((job, values, elapsed)))


# ---------------------------------------------------------------------------
# Payload validation helpers.
# ---------------------------------------------------------------------------

def _get(payload: Mapping, key: str, types, where: str):
    """Fetch ``payload[key]`` with a type check, or raise :class:`ResultsError`."""
    if key not in payload:
        raise ResultsError(f"{where}: missing key {key!r}")
    value = payload[key]
    if isinstance(value, bool) and bool not in (
            types if isinstance(types, tuple) else (types,)):
        raise ResultsError(f"{where}: key {key!r} must be "
                           f"{getattr(types, '__name__', types)}, got a bool")
    if not isinstance(value, types):
        raise ResultsError(
            f"{where}: key {key!r} has type {type(value).__name__}, "
            f"expected {getattr(types, '__name__', types)}")
    return value


def _stats_to_dict(stats: TrialStats) -> Dict[str, object]:
    """The JSON form of one cell's :class:`TrialStats`."""
    return {"mean": float(stats.mean), "std": float(stats.std),
            "min": float(stats.minimum), "max": float(stats.maximum),
            "n_trials": int(stats.n_trials)}


def _stats_from_dict(payload: Mapping, where: str) -> TrialStats:
    """Rebuild (and validate) one cell's :class:`TrialStats`."""
    if not isinstance(payload, Mapping):
        raise ResultsError(f"{where}: stats must be a mapping, "
                           f"got {type(payload).__name__}")
    unknown = sorted(set(payload) - {"mean", "std", "min", "max", "n_trials"})
    if unknown:
        raise ResultsError(f"{where}: unknown stats key(s) "
                           f"{', '.join(map(repr, unknown))}")
    return TrialStats(
        mean=float(_get(payload, "mean", (int, float), where)),
        std=float(_get(payload, "std", (int, float), where)),
        minimum=float(_get(payload, "min", (int, float), where)),
        maximum=float(_get(payload, "max", (int, float), where)),
        n_trials=_get(payload, "n_trials", int, where))


# ---------------------------------------------------------------------------
# The record dataclasses.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CellRecord:
    """One grid cell of a recorded panel: coordinates, digest, stats.

    ``digest`` is the engine's cache digest for the cell's
    :class:`~repro.evaluation.TrialJob` — it covers the root seed, the
    coordinates, the trial count, and the point's code fingerprint, so
    equal digests mean "the very same computation".
    """

    series_value: object
    sweep_value: object
    digest: str
    stats: TrialStats

    def to_dict(self) -> Dict[str, object]:
        """The cell's JSON payload."""
        return {"series_value": self.series_value,
                "sweep_value": self.sweep_value,
                "digest": self.digest,
                "stats": _stats_to_dict(self.stats)}

    @classmethod
    def from_dict(cls, payload: Mapping, where: str) -> "CellRecord":
        """Rebuild a cell from its payload, validating every field."""
        if not isinstance(payload, Mapping):
            raise ResultsError(f"{where}: cell must be a mapping, "
                               f"got {type(payload).__name__}")
        if "series_value" not in payload or "sweep_value" not in payload:
            raise ResultsError(f"{where}: missing cell coordinate key(s)")
        return cls(series_value=payload["series_value"],
                   sweep_value=payload["sweep_value"],
                   digest=_get(payload, "digest", str, where),
                   stats=_stats_from_dict(payload.get("stats"), where))


@dataclass(frozen=True)
class PanelRecord:
    """One recorded (series × sweep × trial) grid and its provenance.

    ``sweep_name``/``series_name`` are the engine axis names that enter
    every cell seed (the reproducibility contract); ``x_name`` and
    ``title`` are the human-readable labels the text table prints.
    """

    title: str
    x_name: str
    sweep_name: str
    series_name: str
    sweep_values: Tuple[object, ...]
    series_values: Tuple[object, ...]
    seed: object
    n_trials: int
    point_fingerprint: str
    cells: Tuple[CellRecord, ...]

    def to_dict(self) -> Dict[str, object]:
        """The panel's JSON payload."""
        return {"title": self.title, "x_name": self.x_name,
                "sweep_name": self.sweep_name,
                "series_name": self.series_name,
                "sweep_values": list(self.sweep_values),
                "series_values": list(self.series_values),
                "seed": self.seed, "n_trials": self.n_trials,
                "point_fingerprint": self.point_fingerprint,
                "cells": [cell.to_dict() for cell in self.cells]}

    def mean_series(self) -> Dict[object, List[float]]:
        """``series value -> mean curve`` in sweep order, like the tables."""
        by_series: Dict[object, List[float]] = {
            value: [] for value in self.series_values}
        for cell in self.cells:
            by_series[cell.series_value].append(cell.stats.mean)
        return by_series

    @classmethod
    def from_dict(cls, payload: Mapping, where: str) -> "PanelRecord":
        """Rebuild a panel from its payload, validating the grid shape."""
        if not isinstance(payload, Mapping):
            raise ResultsError(f"{where}: panel must be a mapping, "
                               f"got {type(payload).__name__}")
        sweep_values = tuple(_get(payload, "sweep_values", list, where))
        series_values = tuple(_get(payload, "series_values", list, where))
        raw_cells = _get(payload, "cells", list, where)
        expected = len(sweep_values) * len(series_values)
        if len(raw_cells) != expected:
            raise ResultsError(
                f"{where}: grid is {len(series_values)} series x "
                f"{len(sweep_values)} sweep values = {expected} cells, but "
                f"the record carries {len(raw_cells)}")
        cells = tuple(CellRecord.from_dict(cell, f"{where} cell[{i}]")
                      for i, cell in enumerate(raw_cells))
        # The writer emits cells in series-major grid order; anything
        # else (a permuted or mislabelled hand edit) would silently
        # print curves against the wrong coordinates, so enforce the
        # exact correspondence here.
        expected_coords = [(s, x) for s in series_values
                           for x in sweep_values]
        actual_coords = [(c.series_value, c.sweep_value) for c in cells]
        for i, (actual, wanted) in enumerate(zip(actual_coords,
                                                 expected_coords)):
            if actual != wanted:
                raise ResultsError(
                    f"{where} cell[{i}]: coordinates {actual!r} do not match "
                    f"the declared grid axes (expected {wanted!r} in "
                    f"series-major order)")
        if "seed" not in payload:
            raise ResultsError(f"{where}: missing key 'seed'")
        return cls(title=_get(payload, "title", str, where),
                   x_name=_get(payload, "x_name", str, where),
                   sweep_name=_get(payload, "sweep_name", str, where),
                   series_name=_get(payload, "series_name", str, where),
                   sweep_values=sweep_values, series_values=series_values,
                   seed=payload["seed"],
                   n_trials=_get(payload, "n_trials", int, where),
                   point_fingerprint=_get(payload, "point_fingerprint", str,
                                          where),
                   cells=cells)


@dataclass(frozen=True)
class RunRecord:
    """A complete provenance-stamped run: panels plus run-level metadata.

    Instances are immutable value objects; build them with
    :meth:`build` (which computes the digests) or :meth:`from_dict`
    (which *verifies* them).  Equal records compare equal, so a
    write/read round trip can be asserted with ``==``.
    """

    schema_version: int
    kind: str
    name: str
    result_stem: str
    package_version: str
    engine_version: int
    executor: str
    full: bool
    config_digest: str
    run_id: str
    panels: Tuple[PanelRecord, ...]
    #: Per-panel, per-cell compute wall-times in seconds (``None`` for
    #: cells served from cache).  Environment metadata like ``executor``:
    #: excluded from ``run_id``/``config_digest``, advisory only, and
    #: never shape-validated — a record without timings is complete.
    #: A committed record's timings come from the run that first pinned
    #: it: ``ResultsStore.save`` never refreshes them while ``run_id``
    #: holds, so a fresh cold record differs from it only in timings.
    timings: Optional[Tuple[Tuple[Optional[float], ...], ...]] = None
    #: Fleet-run telemetry (``{"counters": ..., "dead_letters": ...}``)
    #: stamped by runs on the work-queue executor.  Environment metadata
    #: like ``timings``: excluded from ``run_id``, advisory only,
    #: emitted only when present — non-fleet records are unchanged.
    fleet: Optional[Dict[str, object]] = None

    @classmethod
    def build(cls, *, kind: str, name: str, result_stem: str,
              executor: str, full: bool, panels: Iterable[PanelRecord],
              timings: Optional[Iterable] = None,
              fleet: Optional[Mapping] = None) -> "RunRecord":
        """Assemble a record, computing ``config_digest`` and ``run_id``."""
        from .. import __version__
        from ..evaluation.engine import ENGINE_VERSION
        if kind not in _KINDS:
            raise ResultsError(f"record kind must be one of "
                               f"{', '.join(_KINDS)}, got {kind!r}")
        panels = tuple(panels)
        if not panels:
            raise ResultsError("a run record needs at least one panel")
        if timings is not None:
            timings = tuple(tuple(None if t is None else float(t)
                                  for t in panel) for panel in timings)
        if fleet is not None:
            fleet = _jsonify(fleet, "fleet telemetry")
        record = cls(schema_version=SCHEMA_VERSION, kind=kind, name=name,
                     result_stem=result_stem, package_version=__version__,
                     engine_version=ENGINE_VERSION, executor=executor,
                     full=bool(full), config_digest="", run_id="",
                     panels=panels, timings=timings, fleet=fleet)
        object.__setattr__(record, "config_digest",
                           compute_config_digest(record.to_dict()))
        object.__setattr__(record, "run_id",
                           compute_run_id(record.to_dict()))
        return record

    def to_dict(self) -> Dict[str, object]:
        """The record's full JSON payload (the on-disk manifest).

        The ``timings`` key is emitted only when present, so records
        written before cell timing existed round-trip byte-for-byte.
        """
        payload = {"schema_version": self.schema_version, "kind": self.kind,
                   "name": self.name, "result_stem": self.result_stem,
                   "package_version": self.package_version,
                   "engine_version": self.engine_version,
                   "executor": self.executor, "full": self.full,
                   "config_digest": self.config_digest, "run_id": self.run_id,
                   "panels": [panel.to_dict() for panel in self.panels]}
        if self.timings is not None:
            payload["timings"] = [list(panel) for panel in self.timings]
        if self.fleet is not None:
            payload["fleet"] = self.fleet
        return payload

    def cell_digests(self) -> set:
        """Every cell cache digest the record references."""
        return {cell.digest for panel in self.panels for cell in panel.cells}

    def n_cells(self) -> int:
        """Total grid cells across all panels."""
        return sum(len(panel.cells) for panel in self.panels)

    def format_tables(self) -> str:
        """The text-table blocks this run printed, rebuilt from the record.

        Byte-identical to the committed ``benchmarks/results/*.txt``
        content for bench records — the record carries everything the
        tables do.
        """
        from ..evaluation.tables import format_panel_block
        return "".join(
            format_panel_block(panel.title, panel.x_name,
                               list(panel.sweep_values), panel.mean_series())
            for panel in self.panels)

    @classmethod
    def from_dict(cls, payload: Mapping) -> "RunRecord":
        """Rebuild a record from a manifest payload, verifying everything.

        The schema version is checked first (a future version refuses
        with :class:`~repro.exceptions.UnknownSchemaError` — no
        best-effort parse), then every field is validated, and finally
        the stored ``run_id`` must equal the recomputed content digest,
        so hand-edited or silently corrupted manifests fail loudly.
        """
        if not isinstance(payload, Mapping):
            raise ResultsError(f"run record payload must be a mapping, "
                               f"got {type(payload).__name__}")
        version = _get(payload, "schema_version", int, "run record")
        if version != SCHEMA_VERSION:
            raise UnknownSchemaError(
                f"run record declares schema version {version}; this build "
                f"reads version {SCHEMA_VERSION} only — refusing a "
                f"best-effort parse of an unknown manifest layout")
        kind = _get(payload, "kind", str, "run record")
        if kind not in _KINDS:
            raise ResultsError(f"run record kind must be one of "
                               f"{', '.join(_KINDS)}, got {kind!r}")
        raw_panels = _get(payload, "panels", list, "run record")
        panels = tuple(PanelRecord.from_dict(panel, f"panel[{i}]")
                       for i, panel in enumerate(raw_panels))
        timings = None
        if "timings" in payload:
            # Advisory environment metadata: types are checked so the
            # manifest stays machine-readable, but the shape is *not*
            # matched against the grid — timings never gate a load the
            # way the integrity digests do.
            raw_timings = _get(payload, "timings", list, "run record")
            rows = []
            for i, row in enumerate(raw_timings):
                if not isinstance(row, list):
                    raise ResultsError(
                        f"run record timings[{i}] must be a list, got "
                        f"{type(row).__name__}")
                for t in row:
                    if t is not None and (isinstance(t, bool)
                                          or not isinstance(t, (int, float))):
                        raise ResultsError(
                            f"run record timings[{i}] entries must be "
                            f"seconds or null, got {t!r}")
                rows.append(tuple(None if t is None else float(t)
                                  for t in row))
            timings = tuple(rows)
        fleet = None
        if "fleet" in payload:
            # Advisory like timings: the shape of the telemetry never
            # gates a load, only its top-level type is checked.
            fleet = dict(_get(payload, "fleet", dict, "run record"))
        record = cls(
            schema_version=version, kind=kind,
            name=_get(payload, "name", str, "run record"),
            result_stem=_get(payload, "result_stem", str, "run record"),
            package_version=_get(payload, "package_version", str,
                                 "run record"),
            engine_version=_get(payload, "engine_version", int, "run record"),
            executor=_get(payload, "executor", str, "run record"),
            full=_get(payload, "full", bool, "run record"),
            config_digest=_get(payload, "config_digest", str, "run record"),
            run_id=_get(payload, "run_id", str, "run record"),
            panels=panels, timings=timings, fleet=fleet)
        if not panels:
            raise ResultsError("run record carries no panels")
        expected_config = compute_config_digest(record.to_dict())
        if record.config_digest != expected_config:
            raise ResultsError(
                f"run record integrity check failed: stored config_digest "
                f"{record.config_digest!r} does not match the recomputed "
                f"provenance digest {expected_config!r} — the manifest was "
                f"hand-edited or corrupted (re-stamp with "
                f"repro.results.compute_config_digest if deliberate)")
        expected = compute_run_id(record.to_dict())
        if record.run_id != expected:
            raise ResultsError(
                f"run record integrity check failed: stored run_id "
                f"{record.run_id!r} does not match the content digest "
                f"{expected!r} — the manifest was hand-edited or corrupted "
                f"(recompute the id with repro.results.compute_run_id if "
                f"the edit was deliberate)")
        return record


# ---------------------------------------------------------------------------
# RunRecorder — the write path the engine wiring uses.
# ---------------------------------------------------------------------------

class RunRecorder:
    """Collects per-panel cell results into one :class:`RunRecord`.

    A recorder is handed to :meth:`repro.experiments.catalog.PanelDef.run`
    (or any :func:`~repro.evaluation.run_grid` caller using the
    ``on_cell`` hook): each panel appends its grid provenance and
    per-cell stats, and :meth:`finalize` seals the record.  All values
    are normalised to plain JSON data on the way in, so a grid whose
    coordinates cannot be recorded fails at record time, not at load
    time.
    """

    def __init__(self, *, kind: str, name: str, result_stem: str,
                 executor: str = "serial", full: bool = False):
        if kind not in _KINDS:
            raise ResultsError(f"record kind must be one of "
                               f"{', '.join(_KINDS)}, got {kind!r}")
        self.kind = kind
        self.name = name
        self.result_stem = result_stem
        self.executor = executor
        self.full = bool(full)
        self._panels: List[PanelRecord] = []
        self._timings: List[Tuple[Optional[float], ...]] = []
        self._fleet: Optional[Mapping] = None

    def add_panel(self, *, title: str, x_name: str, sweep_name: str,
                  series_name: str, sweep_values, series_values, seed,
                  n_trials: int, point_fingerprint: str, cells) -> None:
        """Append one executed panel.

        ``cells`` is the engine's ``on_cell`` capture: an iterable of
        ``(TrialJob, trial values, elapsed)`` triples in job order
        (bare ``(TrialJob, trial values)`` pairs are accepted too, with
        unknown elapsed times).
        """
        where = f"panel {title!r}"
        cell_records = []
        elapsed_row = []
        for job, values, *rest in cells:
            cell_records.append(CellRecord(
                series_value=_jsonify(job.series_value, where),
                sweep_value=_jsonify(job.sweep_value, where),
                digest=job.digest,
                stats=TrialStats.from_values(values)))
            elapsed_row.append(rest[0] if rest else None)
        self._panels.append(PanelRecord(
            title=title, x_name=x_name, sweep_name=sweep_name,
            series_name=series_name,
            sweep_values=tuple(_jsonify(list(sweep_values), where)),
            series_values=tuple(_jsonify(list(series_values), where)),
            seed=_jsonify(seed, where), n_trials=int(n_trials),
            point_fingerprint=point_fingerprint, cells=tuple(cell_records)))
        self._timings.append(tuple(elapsed_row))

    def set_fleet(self, payload: Optional[Mapping]) -> None:
        """Attach fleet-run telemetry (counters, dead letters) to the record.

        Called by the service tier after a work-queue run settles;
        ``None`` (the default state) leaves the record without a
        ``fleet`` key, so non-fleet records are byte-identical to
        records written before the fleet existed.
        """
        self._fleet = payload

    def finalize(self) -> RunRecord:
        """Seal the collected panels into an immutable :class:`RunRecord`.

        Timings are stamped only when at least one cell was actually
        computed during this run — a fully cache-served replay yields a
        record byte-identical to one recorded before timing existed.
        """
        timed = any(t is not None for row in self._timings for t in row)
        return RunRecord.build(kind=self.kind, name=self.name,
                               result_stem=self.result_stem,
                               executor=self.executor, full=self.full,
                               panels=self._panels,
                               timings=self._timings if timed else None,
                               fleet=self._fleet)
