"""Provenance-stamped results store and run-record diffing.

* :mod:`repro.results.record` — the versioned manifest data model
  (:class:`RunRecord` / :class:`PanelRecord` / :class:`CellRecord`) and
  the :class:`RunRecorder` the engine wiring feeds.
* :mod:`repro.results.store` — atomic on-disk persistence
  (:class:`ResultsStore`, :func:`load_record`) and the keep-set of
  cells the committed records reference (:func:`baseline_digests`).
* :mod:`repro.results.diff` — mechanical run comparison
  (:func:`diff_records`) separating value drift (exit 1) from
  provenance drift (exit 2).

``python -m repro run <bench>`` writes a record next to the bench's
text table; ``python -m repro diff`` compares two of them, and
``python -m repro results list/show`` inspects a store directory.
"""

from ..exceptions import ResultsError, UnknownSchemaError
from .diff import DiffEntry, RunDiff, diff_records
from .record import (
    PANEL_PROVENANCE_KEYS,
    RUN_PROVENANCE_KEYS,
    SCHEMA_VERSION,
    CellRecord,
    PanelRecord,
    RunRecord,
    RunRecorder,
    cell_capture,
    compute_config_digest,
    compute_run_id,
)
from .store import (
    ResultsStore,
    baseline_digests,
    load_record,
    manifest_text,
    save_record,
)

__all__ = [
    "PANEL_PROVENANCE_KEYS",
    "RUN_PROVENANCE_KEYS",
    "SCHEMA_VERSION",
    "CellRecord",
    "DiffEntry",
    "PanelRecord",
    "ResultsError",
    "ResultsStore",
    "RunDiff",
    "RunRecord",
    "RunRecorder",
    "UnknownSchemaError",
    "baseline_digests",
    "cell_capture",
    "compute_config_digest",
    "compute_run_id",
    "diff_records",
    "load_record",
    "manifest_text",
    "save_record",
]
