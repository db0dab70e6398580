"""JSON payload builders shared by the HTTP server and the CLI ``--json``.

One schema per resource, whichever surface serves it: ``GET /catalog``
and ``python -m repro list --json`` emit :func:`catalog_payload` /
:func:`list_payload`; ``GET /stats`` and ``python -m repro cache stats
--json`` emit :func:`stats_payload` / :func:`cache_stats_payload`;
``POST /run`` emits :func:`run_payload`.  Scripts parse one shape, and
the two surfaces cannot drift apart.

Record *bodies* deliberately have no builder here: the server streams
:func:`repro.results.manifest_text` so a served record is byte-identical
to its committed file.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional

from ..evaluation import ResultCache, SingleFlight
from ..fleet import FleetStats
from ..registry import ALL_REGISTRIES
from ..results import RunRecord
from .core import BenchRun, ServiceCore


def catalog_payload(core: ServiceCore) -> Dict[str, object]:
    """The catalog resource: every bench, its panels, and record status."""
    store = core.store()
    entries = []
    for definition in core.catalog_entries():
        record_path = (store.path_for(definition.result_stem)
                       if store is not None else None)
        entries.append({
            "name": definition.name,
            "result_stem": definition.result_stem,
            "panels": len(definition.panels),
            "titles": [panel.title for panel in definition.panels],
            "has_record": bool(record_path is not None
                               and record_path.exists()),
        })
    return {"benches": entries}


def list_payload(core: ServiceCore) -> Dict[str, object]:
    """``python -m repro list --json``: catalog plus every registry."""
    payload = catalog_payload(core)
    payload["registries"] = {section: list(registry.names())
                             for section, registry in ALL_REGISTRIES}
    return payload


def record_summary(record: RunRecord) -> Dict[str, object]:
    """The compact identity block shared by run responses and listings."""
    return {"name": record.name, "kind": record.kind,
            "result_stem": record.result_stem, "run_id": record.run_id,
            "config_digest": record.config_digest,
            "executor": record.executor, "full": record.full,
            "panels": len(record.panels), "cells": record.n_cells(),
            "package_version": record.package_version,
            "engine_version": record.engine_version}


def cache_counters(cache: Optional[ResultCache]) -> Dict[str, object]:
    """The live hit/miss counters of a core's cell cache (may be absent)."""
    if cache is None:
        return {"configured": False, "hits": 0, "misses": 0}
    return {"configured": True, "hits": cache.hits, "misses": cache.misses,
            "dir": str(cache.directory)}


def flight_counters(flight: SingleFlight) -> Dict[str, int]:
    """The single-flight coalescing counters: flights led vs joined."""
    return {"led": flight.led, "coalesced": flight.coalesced}


def fleet_counters(stats: FleetStats) -> Dict[str, int]:
    """The work-queue executor's counters (leased/completed/retried/dead)."""
    return stats.as_dict()


def stats_payload(core: ServiceCore) -> Dict[str, object]:
    """``GET /stats``: live cache, coalescing, and fleet counters."""
    return {"cache": cache_counters(core.cache),
            "flight": flight_counters(core.flight),
            "fleet": fleet_counters(core.fleet_stats)}


def run_payload(core: ServiceCore, run: BenchRun) -> Dict[str, object]:
    """``POST /run``'s response: what ran, its identity, live counters."""
    payload = record_summary(run.record)
    payload["stats"] = stats_payload(core)
    return payload


def cache_stats_payload(directory: Path, split: Dict[str, List[Path]],
                        records: List[Dict[str, object]],
                        fleet: Optional[FleetStats] = None
                        ) -> Dict[str, object]:
    """``cache stats --json``: the scan split plus record-store sizes.

    ``records`` entries come from :func:`record_store_entry` — one per
    reported store directory, mirroring the human ``[records]`` lines.
    ``fleet`` (when given) adds the work-queue executor counters under
    a ``"fleet"`` key, matching the server's ``GET /stats`` shape.
    """
    cells = split["claimed"] + split["baseline"] + split["orphaned"]
    payload = {
        "dir": str(directory),
        "cells": len(cells),
        "bytes": sum(cell.stat().st_size for cell in cells),
        "claimed": len(split["claimed"]),
        "baseline": len(split["baseline"]),
        "orphaned": len(split["orphaned"]),
        "records": records,
    }
    if fleet is not None:
        payload["fleet"] = fleet_counters(fleet)
    return payload


def record_store_entry(directory: Path, runs: List[Path],
                       cells: int) -> Dict[str, object]:
    """One record-store line of ``cache stats``, as data."""
    return {
        "dir": str(directory),
        "runs": len(runs),
        "cells": cells,
        "bytes": sum(path.stat().st_size for path in runs),
    }
