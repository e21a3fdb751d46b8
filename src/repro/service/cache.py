"""The dependency-keyed edge-result cache.

One cache entry holds everything needed to *splice* a solved FK edge
into a fresh traversal without re-solving it: the imputed FK column
(spec + value array), the completed parent relation, and the serialized
per-edge report.  Entries are keyed by the edge's read-closure
fingerprint (:func:`repro.spec.fingerprint.edge_fingerprints`), so a
lookup hit certifies that re-solving would read byte-identical inputs
under result-identical options — committing the cached parts via
:meth:`SnowflakeSynthesizer.commit_edge` is therefore byte-identical to
a cold solve.  The cache never drives a traversal itself:
:func:`repro.service.engine.run_spec` hands it to
:meth:`SnowflakeSynthesizer.solve` as the edge-result source, which
looks every edge up before solving it and stores every edge it solves.

Persistence doubles as the job server's crash-safe checkpoint: the
traversal stores each solved edge right after committing it and before
announcing it, and every stored edge is written to
``directory/<fingerprint>/`` (the
:class:`~repro.relational.store.MmapColumnStore` spill format for the
arrays, ``meta.json`` for schemas and the report) via a temp directory
plus one atomic rename, so a traversal killed mid-run resumes by simply
re-running — solved edges hit, the rest re-solve.
"""

from __future__ import annotations

import json
import os
import shutil
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Mapping, Optional, Union

import numpy as np

from repro.relational.relation import Relation
from repro.relational.schema import ColumnSpec, Schema
from repro.relational.store import (
    DEFAULT_CHUNK_ROWS,
    MmapColumnStore,
    MmapStoreWriter,
)
from repro.relational.types import Dtype

__all__ = ["CachedEdge", "EdgeCache"]

#: Bump when the on-disk entry layout changes; entries written by an
#: older layout are ignored (a miss), never misread.
_ENTRY_VERSION = 1
_META = "meta.json"


@dataclass
class CachedEdge:
    """One cached edge result, ready to commit."""

    fk_spec: ColumnSpec
    fk_values: np.ndarray
    parent: Relation
    report: Dict[str, object] = field(default_factory=dict)


def _kind(dtype: Dtype) -> str:
    return "int" if dtype is Dtype.INT else "dict"


def _write_relation_store(
    directory: Path, relation: Relation, chunk_rows: int
) -> None:
    writer = MmapStoreWriter(
        directory,
        [(name, _kind(relation.schema.dtype(name)))
         for name in relation.schema.names],
        chunk_rows=chunk_rows,
    )
    store = relation.store
    try:
        for start, stop in store.chunk_bounds():
            writer.append(
                {
                    name: store.column_slice(name, start, stop)
                    for name in relation.schema.names
                }
            )
        writer.finalize()
    except BaseException:
        writer.discard()
        raise


def _load_column(store: MmapColumnStore, name: str) -> np.ndarray:
    column = store.column(name)
    if column.dtype != object:
        column = np.ascontiguousarray(column, dtype=np.int64)
    return column


class EdgeCache:
    """Fingerprint-keyed store of solved edges, memory over disk.

    ``directory=None`` keeps the cache purely in-memory (no checkpoint
    durability); with a directory, every :meth:`put` persists the entry
    atomically and :meth:`get` falls back to disk — which is how a fresh
    process resumes a killed traversal.  Thread-safe: the job manager
    shares one cache across concurrently running jobs.
    """

    def __init__(
        self,
        directory: Optional[Union[str, Path]] = None,
        *,
        chunk_rows: int = DEFAULT_CHUNK_ROWS,
    ) -> None:
        self.directory = Path(directory) if directory is not None else None
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
        self._chunk_rows = chunk_rows
        self._memory: Dict[str, CachedEdge] = {}
        self._lock = threading.Lock()
        self._counter = 0
        self.hits = 0
        self.misses = 0
        self.stores = 0

    def __len__(self) -> int:
        with self._lock:
            known = set(self._memory)
        if self.directory is not None:
            known.update(
                entry.name
                for entry in self.directory.iterdir()
                if (entry / _META).is_file()
            )
        return len(known)

    def stats(self) -> Dict[str, int]:
        return {
            "entries": len(self),
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
        }

    def get(self, fingerprint: str) -> Optional[CachedEdge]:
        """The cached edge for ``fingerprint``, or ``None`` (a miss)."""
        with self._lock:
            entry = self._memory.get(fingerprint)
        if entry is None and self.directory is not None:
            entry = self._load(self.directory / fingerprint)
            if entry is not None:
                with self._lock:
                    self._memory.setdefault(fingerprint, entry)
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        return entry

    def put(
        self,
        fingerprint: str,
        fk_spec: ColumnSpec,
        fk_values: np.ndarray,
        parent: Relation,
        report: Mapping[str, object],
    ) -> bool:
        """Cache one solved edge; returns whether it was cacheable.

        Column domains have no stable serialized form, so an edge whose
        FK spec or parent schema carries one is skipped (``False``) —
        the traversal still completes, it just won't hit next time.
        """
        if fk_spec.domain is not None or any(
            spec.domain is not None for spec in parent.schema
        ):
            return False
        entry = CachedEdge(
            fk_spec=fk_spec,
            fk_values=fk_values,
            parent=parent,
            report=dict(report),
        )
        with self._lock:
            self._memory[fingerprint] = entry
            self._counter += 1
            counter = self._counter
        if self.directory is not None:
            self._persist(fingerprint, entry, counter)
        self.stores += 1
        return True

    # -- disk layer ----------------------------------------------------

    def _persist(
        self, fingerprint: str, entry: CachedEdge, counter: int
    ) -> None:
        final = self.directory / fingerprint
        if (final / _META).is_file():
            return
        tmp = (
            self.directory
            / f".tmp-{fingerprint[:16]}-{os.getpid()}-{counter}"
        )
        if tmp.exists():
            shutil.rmtree(tmp)
        try:
            fk_relation = Relation(
                Schema((entry.fk_spec,)), {entry.fk_spec.name: entry.fk_values}
            )
            _write_relation_store(tmp / "fk", fk_relation, self._chunk_rows)
            _write_relation_store(
                tmp / "parent", entry.parent, self._chunk_rows
            )
            meta = {
                "version": _ENTRY_VERSION,
                "fk": {
                    "name": entry.fk_spec.name,
                    "dtype": entry.fk_spec.dtype.value,
                },
                "parent": {
                    "columns": [
                        {"name": spec.name, "dtype": spec.dtype.value}
                        for spec in entry.parent.schema
                    ],
                    "key": entry.parent.schema.key,
                },
                "report": entry.report,
            }
            (tmp / _META).write_text(json.dumps(meta))
            try:
                tmp.rename(final)
            except OSError:
                # Lost a write race: an equivalent entry landed first.
                shutil.rmtree(tmp, ignore_errors=True)
        except Exception:
            shutil.rmtree(tmp, ignore_errors=True)
            raise

    def _load(self, directory: Path) -> Optional[CachedEdge]:
        meta_path = directory / _META
        if not meta_path.is_file():
            return None
        meta = json.loads(meta_path.read_text())
        if meta.get("version") != _ENTRY_VERSION:
            return None
        fk_spec = ColumnSpec(meta["fk"]["name"], Dtype(meta["fk"]["dtype"]))
        fk_store = MmapColumnStore(directory / "fk")
        fk_values = _load_column(fk_store, fk_spec.name)
        columns = [
            ColumnSpec(item["name"], Dtype(item["dtype"]))
            for item in meta["parent"]["columns"]
        ]
        schema = Schema(tuple(columns), key=meta["parent"]["key"])
        parent_store = MmapColumnStore(directory / "parent")
        parent = Relation(
            schema,
            {
                spec.name: _load_column(parent_store, spec.name)
                for spec in columns
            },
        )
        return CachedEdge(
            fk_spec=fk_spec,
            fk_values=fk_values,
            parent=parent,
            report=dict(meta.get("report", {})),
        )
