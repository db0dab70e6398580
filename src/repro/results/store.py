"""On-disk persistence for run records, next to the text tables.

A :class:`ResultsStore` is a directory of ``<stem>.json`` manifests —
``benchmarks/results/`` by convention, so every bench's structured
record sits next to its ``<stem>.txt`` table.  Writes are atomic (temp
file + rename, like the engine's cell cache) and byte-deterministic:
the same run always produces the same file, so records can be committed
and re-generated without churn.

``benchmarks/results/`` is the one committed record store: the test
suite and the benches only read it, and ``python -m repro run <name>``
is the one command that rewrites it.  ``python -m repro diff <run>
--against-catalog <name>`` compares a fresh run against the record
stored there, and :func:`baseline_digests` feeds ``cache prune``'s
keep-set (and a fleet worker's eviction pins) so a cell referenced by a
committed record is never garbage-collected.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import List, Union

from ..exceptions import ResultsError
from .record import RunRecord


def manifest_text(record: RunRecord) -> str:
    """The exact on-disk manifest text of ``record``.

    Pretty-printed with sorted keys and a trailing newline — the one
    serialisation shared by :func:`save_record` and the HTTP server's
    ``GET /records/<name>`` body, so a served record is byte-identical
    to its committed file.
    """
    try:
        return json.dumps(record.to_dict(), indent=1, sort_keys=True,
                          allow_nan=False) + "\n"
    except ValueError as exc:
        raise ResultsError(
            f"run record {record.name!r} contains non-finite floats "
            f"(NaN/Infinity), which strict JSON cannot carry: {exc}") from exc


def save_record(record: RunRecord, path: Union[str, Path]) -> Path:
    """Atomically write one record manifest to an exact path.

    The JSON is pretty-printed with sorted keys, so equal records
    serialise to equal bytes and committed records diff cleanly.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    text = manifest_text(record)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path


def load_record(path: Union[str, Path]) -> RunRecord:
    """Load and fully validate one run-record manifest.

    Unreadable files, truncated or non-JSON content, structural
    problems, unknown schema versions, and integrity failures all raise
    :class:`~repro.exceptions.ResultsError` (or its
    :class:`~repro.exceptions.UnknownSchemaError` subclass) naming the
    file — there is no partial or best-effort load.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ResultsError(f"cannot read run record {path}: {exc}") from exc
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ResultsError(
            f"run record {path} is not valid JSON ({exc}); the file is "
            f"truncated or corrupt") from exc
    try:
        return RunRecord.from_dict(payload)
    except ResultsError as exc:
        raise type(exc)(f"{path}: {exc}") from exc


class ResultsStore:
    """A directory of run-record manifests, one ``<stem>.json`` per run.

    The stem defaults to the record's ``result_stem`` so a bench record
    lands next to its text table (``fig05.json`` beside ``fig05.txt``)
    and a rerun replaces it, exactly like the table.
    """

    def __init__(self, directory: Union[str, Path]):
        self.directory = Path(directory)

    def path_for(self, stem: str) -> Path:
        """The manifest path for a record stem."""
        return self.directory / f"{stem}.json"

    def save(self, record: RunRecord, stem: str = None) -> Path:
        """Atomically persist ``record``; returns the manifest path.

        The JSON is pretty-printed with sorted keys, so equal records
        serialise to equal bytes and committed records diff cleanly.
        An existing manifest with the same ``run_id`` is left untouched:
        ``run_id`` covers provenance and values but not environment
        metadata (executor, package version), so e.g. a
        ``REPRO_BENCH_EXECUTOR=thread`` rerun of a bench — bit-identical
        by the engine's contract — never churns the committed
        serial-run record's bytes.
        """
        target = self.path_for(record.result_stem if stem is None else stem)
        if target.exists():
            try:
                if load_record(target).run_id == record.run_id:
                    return target
            except ResultsError:
                pass  # unreadable/stale manifest: fall through and replace
        return save_record(record, target)

    def load(self, stem_or_path: Union[str, Path]) -> RunRecord:
        """Load a record by stem (``"fig05"``) or by explicit path."""
        candidate = Path(stem_or_path)
        if candidate.suffix == ".json" and candidate.exists():
            return load_record(candidate)
        return load_record(self.path_for(str(stem_or_path)))

    def runs(self) -> List[Path]:
        """Every manifest path in the store, sorted by name."""
        if not self.directory.is_dir():
            return []
        return sorted(self.directory.glob("*.json"))


def baseline_digests(directory: Union[str, Path]) -> set:
    """Every cell digest referenced by any record under ``directory``.

    This is ``cache prune``'s keep-set over the committed record store.
    A record that fails to load raises rather than being skipped:
    silently ignoring a corrupt record would let prune delete exactly
    the cells the record was protecting.
    """
    digests: set = set()
    store = ResultsStore(directory)
    for path in store.runs():
        digests.update(load_record(path).cell_digests())
    return digests
