"""Column storage backends behind :class:`~repro.relational.relation.Relation`.

A :class:`ColumnStore` owns the physical bytes of a relation's columns and
answers two questions: the full column as one array, and an arbitrary row
range of it.  Two backends implement the contract:

* :class:`NumpyColumnStore` — the original in-RAM representation, one
  numpy array per column.  The default; behaviour-identical to the
  pre-store engine.
* :class:`MmapColumnStore` — an out-of-core chunked store: one
  ``.npy``-format file per column in a directory, described by a small
  ``manifest.json``.  Integer columns are stored as raw ``int64``;
  object (categorical) columns are dictionary-encoded — ``int64`` codes
  on disk plus a value dictionary in the manifest — so the engine can
  evaluate predicates and group-by kernels on codes without ever
  materialising the object column.  Reads go through per-chunk
  ``np.fromfile`` offset reads (never ``np.memmap``, whose resident
  pages would count against the RAM budget).

:class:`CompositeStore` stitches columns of several stores into one
logical store, which is how projections and column appends on a
disk-backed relation stay O(1) instead of rewriting gigabytes.

All stores are picklable: the mmap store ships only its directory path
across process boundaries (the worker re-reads the manifest), matching
the payload-slicing pattern of :mod:`repro.phase2.parallel`.
"""

from __future__ import annotations

import json
import shutil
import struct
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Dict,
    FrozenSet,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.errors import SchemaError

__all__ = [
    "DEFAULT_CHUNK_ROWS",
    "ColumnStore",
    "CompositeStore",
    "MmapColumnStore",
    "MmapStoreWriter",
    "NumpyColumnStore",
    "StorageOptions",
]

#: Read-side granularity of the chunked store: 256k rows × 8 bytes = 2 MiB
#: per column slice, small enough that a handful of live slices stay far
#: below any realistic memory budget.
DEFAULT_CHUNK_ROWS = 262_144

_MANIFEST = "manifest.json"
_MANIFEST_VERSION = 1

#: Fixed byte length reserved for the ``.npy`` preamble of every column
#: file.  Writers emit a placeholder and patch the true row count at
#: finalize; readers skip it with a constant offset, and the files stay
#: genuine ``.npy`` (``np.load`` opens them for debugging).
_NPY_PREAMBLE = 128
_NPY_MAGIC = b"\x93NUMPY\x01\x00"
_DISK_DTYPE = np.dtype("<i8")


def _npy_header(rows: int) -> bytes:
    """A complete ``_NPY_PREAMBLE``-byte ``.npy`` v1 header for ``rows``
    little-endian int64 values."""
    body = (
        "{'descr': '<i8', 'fortran_order': False, "
        "'shape': (%d,), }" % rows
    )
    pad = _NPY_PREAMBLE - len(_NPY_MAGIC) - 2 - len(body) - 1
    if pad < 0:  # pragma: no cover - 10**96 rows
        raise SchemaError(f"row count {rows} overflows the .npy preamble")
    header = body + " " * pad + "\n"
    return (
        _NPY_MAGIC + struct.pack("<H", len(header)) + header.encode("latin1")
    )


class ColumnStore:
    """The storage contract :class:`Relation` builds on.

    ``column``/``column_slice`` return arrays the caller must treat as
    read-only.  ``dictionary``/``codes_slice`` expose the on-disk code
    representation of dictionary-encoded columns (``None``/invalid for
    plain columns) so kernels can work on codes directly.
    """

    @property
    def names(self) -> Tuple[str, ...]:
        raise NotImplementedError

    @property
    def num_rows(self) -> int:
        raise NotImplementedError

    @property
    def chunk_rows(self) -> int:
        raise NotImplementedError

    @property
    def is_chunked(self) -> bool:
        """Whether consumers should stream this store chunk-by-chunk
        instead of materialising full columns."""
        raise NotImplementedError

    def chunk_bounds(self) -> Iterator[Tuple[int, int]]:
        """Consecutive ``(start, stop)`` row ranges covering the store."""
        n, step = self.num_rows, self.chunk_rows
        for start in range(0, n, step):
            yield start, min(start + step, n)

    def column(self, name: str) -> np.ndarray:
        raise NotImplementedError

    def column_slice(self, name: str, start: int, stop: int) -> np.ndarray:
        raise NotImplementedError

    def dictionary(self, name: str) -> Optional[List[object]]:
        """The value dictionary of a dictionary-encoded column, else
        ``None``."""
        raise NotImplementedError

    def codes_slice(self, name: str, start: int, stop: int) -> np.ndarray:
        """Raw ``int64`` dictionary codes for a row range (only valid when
        :meth:`dictionary` is not ``None``)."""
        raise NotImplementedError

    def select(self, names: Sequence[str]) -> "ColumnStore":
        """A store view holding only ``names``, in that order."""
        raise NotImplementedError

    @property
    def directories(self) -> FrozenSet[Path]:
        """The on-disk store directories this store's columns live in."""
        return frozenset()


class NumpyColumnStore(ColumnStore):
    """The in-RAM backend: a dict of numpy arrays, one chunk."""

    def __init__(self, columns: Mapping[str, np.ndarray]) -> None:
        self._columns: Dict[str, np.ndarray] = dict(columns)
        self._names = tuple(self._columns)
        first = next(iter(self._columns.values()), None)
        self._num_rows = 0 if first is None else len(first)

    @property
    def names(self) -> Tuple[str, ...]:
        return self._names

    @property
    def num_rows(self) -> int:
        return self._num_rows

    @property
    def chunk_rows(self) -> int:
        return max(self._num_rows, 1)

    @property
    def is_chunked(self) -> bool:
        return False

    def column(self, name: str) -> np.ndarray:
        return self._columns[name]

    def column_slice(self, name: str, start: int, stop: int) -> np.ndarray:
        return self._columns[name][start:stop]

    def dictionary(self, name: str) -> Optional[List[object]]:
        return None

    def codes_slice(self, name: str, start: int, stop: int) -> np.ndarray:
        raise SchemaError(f"column {name!r} is not dictionary-encoded")

    def select(self, names: Sequence[str]) -> "NumpyColumnStore":
        return NumpyColumnStore({n: self._columns[n] for n in names})


class MmapColumnStore(ColumnStore):
    """The chunked on-disk backend: one ``.npy`` file per column."""

    def __init__(self, directory: Union[str, Path]) -> None:
        self._directory = Path(directory)
        manifest_path = self._directory / _MANIFEST
        try:
            manifest = json.loads(manifest_path.read_text())
        except FileNotFoundError:
            raise SchemaError(
                f"{self._directory} is not a column store "
                f"(no {_MANIFEST})"
            ) from None
        if manifest.get("version") != _MANIFEST_VERSION:
            raise SchemaError(
                f"{manifest_path}: unsupported store version "
                f"{manifest.get('version')!r}"
            )
        self._num_rows = int(manifest["num_rows"])
        self._chunk_rows = int(manifest["chunk_rows"])
        self._files: Dict[str, Path] = {}
        self._dicts: Dict[str, Optional[List[object]]] = {}
        for entry in manifest["columns"]:
            name = entry["name"]
            self._files[name] = self._directory / entry["file"]
            if entry["kind"] == "dict":
                self._dicts[name] = list(
                    manifest["dictionaries"].get(name, [])
                )
            else:
                self._dicts[name] = None
        self._names = tuple(self._files)
        # Decoded-dictionary cache (tiny: one object array per column).
        self._decode: Dict[str, np.ndarray] = {}
        # Lifecycle guard for stores living in a TemporaryDirectory; set
        # by the writer, intentionally not pickled (the owner process
        # keeps the files alive while workers read them).
        self._owned: Optional[tempfile.TemporaryDirectory] = None

    def __reduce__(self) -> Tuple[type, Tuple[str]]:
        return (MmapColumnStore, (str(self._directory),))

    @property
    def directory(self) -> Path:
        return self._directory

    @property
    def directories(self) -> FrozenSet[Path]:
        return frozenset((self._directory,))

    @property
    def names(self) -> Tuple[str, ...]:
        return self._names

    @property
    def num_rows(self) -> int:
        return self._num_rows

    @property
    def chunk_rows(self) -> int:
        return self._chunk_rows

    @property
    def is_chunked(self) -> bool:
        return True

    def _read(self, name: str, start: int, stop: int) -> np.ndarray:
        count = max(stop - start, 0)
        if count == 0:
            return np.empty(0, dtype=np.int64)
        return np.fromfile(
            self._files[name],
            dtype=_DISK_DTYPE,
            count=count,
            offset=_NPY_PREAMBLE + start * _DISK_DTYPE.itemsize,
        ).astype(np.int64, copy=False)

    def dictionary(self, name: str) -> Optional[List[object]]:
        if name not in self._files:
            raise SchemaError(f"no column named {name!r}")
        return self._dicts[name]

    def codes_slice(self, name: str, start: int, stop: int) -> np.ndarray:
        if self._dicts.get(name) is None:
            raise SchemaError(f"column {name!r} is not dictionary-encoded")
        return self._read(name, start, stop)

    def _decoder(self, name: str) -> np.ndarray:
        decode = self._decode.get(name)
        if decode is None:
            decode = np.asarray(self._dicts[name], dtype=object)
            self._decode[name] = decode
        return decode

    def column_slice(self, name: str, start: int, stop: int) -> np.ndarray:
        if name not in self._files:
            raise SchemaError(f"no column named {name!r}")
        raw = self._read(name, start, stop)
        if self._dicts[name] is None:
            return raw
        decode = self._decoder(name)
        if len(decode) == 0:
            return np.empty(0, dtype=object)
        return decode[raw]

    def column(self, name: str) -> np.ndarray:
        return self.column_slice(name, 0, self._num_rows)

    def raw_mmap(self, name: str) -> np.ndarray:
        """A read-only memory map of a column's raw int64 payload.

        For ``int`` columns these are the values themselves; for
        ``dict`` columns the dictionary codes (decode via
        :meth:`dictionary`).  Because every on-disk column is a genuine
        ``.npy`` int64 file, the whole column can be exposed to an
        embedded engine (DuckDB's numpy registration) zero-copy — the
        OS pages the file in on demand, so registering a column never
        materialises it in this process's heap.
        """
        if name not in self._files:
            raise SchemaError(f"no column named {name!r}")
        if self._num_rows == 0:
            return np.empty(0, dtype=np.int64)
        out = np.memmap(
            self._files[name],
            dtype=_DISK_DTYPE,
            mode="r",
            offset=_NPY_PREAMBLE,
            shape=(self._num_rows,),
        )
        return out

    def select(self, names: Sequence[str]) -> "ColumnStore":
        missing = [n for n in names if n not in self._files]
        if missing:
            raise SchemaError(f"no column named {missing[0]!r}")
        return CompositeStore({n: (self, n) for n in names})


class CompositeStore(ColumnStore):
    """Columns of one or more backing stores presented as a single store.

    ``parts`` maps each exposed column name to ``(store, source_name)``.
    Projections and column overlays on chunked relations are composite
    stores — no bytes move.  All parts must agree on ``num_rows``.
    """

    def __init__(
        self, parts: Mapping[str, Tuple[ColumnStore, str]]
    ) -> None:
        self._parts: Dict[str, Tuple[ColumnStore, str]] = dict(parts)
        self._names = tuple(self._parts)
        rows = {store.num_rows for store, _ in self._parts.values()}
        if len(rows) > 1:
            raise SchemaError(
                f"composite parts disagree on row count: {sorted(rows)}"
            )
        self._num_rows = rows.pop() if rows else 0
        chunked = [
            store.chunk_rows
            for store, _ in self._parts.values()
            if store.is_chunked
        ]
        self._chunk_rows = min(chunked) if chunked else max(self._num_rows, 1)
        self._is_chunked = bool(chunked)

    @property
    def names(self) -> Tuple[str, ...]:
        return self._names

    @property
    def num_rows(self) -> int:
        return self._num_rows

    @property
    def chunk_rows(self) -> int:
        return self._chunk_rows

    @property
    def is_chunked(self) -> bool:
        return self._is_chunked

    @property
    def directories(self) -> FrozenSet[Path]:
        return frozenset(
            path
            for store, _ in self._parts.values()
            for path in store.directories
        )

    def _part(self, name: str) -> Tuple[ColumnStore, str]:
        try:
            return self._parts[name]
        except KeyError:
            raise SchemaError(f"no column named {name!r}") from None

    def column(self, name: str) -> np.ndarray:
        store, source = self._part(name)
        return store.column(source)

    def column_slice(self, name: str, start: int, stop: int) -> np.ndarray:
        store, source = self._part(name)
        return store.column_slice(source, start, stop)

    def dictionary(self, name: str) -> Optional[List[object]]:
        store, source = self._part(name)
        return store.dictionary(source)

    def codes_slice(self, name: str, start: int, stop: int) -> np.ndarray:
        store, source = self._part(name)
        return store.codes_slice(source, start, stop)

    def select(self, names: Sequence[str]) -> "CompositeStore":
        return CompositeStore({n: self._part(n) for n in names})


def _json_safe(value: object) -> object:
    return value.item() if isinstance(value, np.generic) else value


class MmapStoreWriter:
    """Streams row blocks into a new :class:`MmapColumnStore`.

    ``columns`` declares ``(name, kind)`` pairs with ``kind`` one of
    ``"int"`` (raw int64) or ``"dict"`` (dictionary-encoded objects).
    Blocks appended via :meth:`append` may have any length — ``chunk_rows``
    is purely the read-side granularity recorded in the manifest.
    Dictionary codes are assigned in first-seen row order, matching the
    dict fallback of the in-RAM factorizer.
    """

    def __init__(
        self,
        directory: Union[str, Path, None],
        columns: Sequence[Tuple[str, str]],
        chunk_rows: int = DEFAULT_CHUNK_ROWS,
    ) -> None:
        if chunk_rows < 1:
            raise SchemaError("chunk_rows must be >= 1")
        self._owned: Optional[tempfile.TemporaryDirectory] = None
        if directory is None:
            self._owned = tempfile.TemporaryDirectory(prefix="repro-store-")
            directory = self._owned.name
        self._directory = Path(directory)
        if self._owned is None and self._directory.is_dir() and any(
            self._directory.iterdir()
        ):
            # Silently overwriting would mix this run's chunk files with
            # whatever lived there (another store, a previous run's
            # spill) and corrupt both.
            raise SchemaError(
                f"store directory {self._directory} already exists and is "
                "not empty; remove it or choose a different storage_dir"
            )
        self._directory.mkdir(parents=True, exist_ok=True)
        self._chunk_rows = chunk_rows
        self._columns: List[Tuple[str, str]] = []
        self._handles = {}
        self._tables: Dict[str, Dict[object, int]] = {}
        self._values: Dict[str, List[object]] = {}
        self._num_rows = 0
        self._finalized = False
        for index, (name, kind) in enumerate(columns):
            if kind not in ("int", "dict"):
                raise SchemaError(f"unknown column kind {kind!r}")
            self._columns.append((name, kind))
            path = self._directory / f"col_{index}.npy"
            handle = path.open("wb")
            handle.write(_npy_header(0))
            self._handles[name] = handle
            if kind == "dict":
                self._tables[name] = {}
                self._values[name] = []

    @property
    def directory(self) -> Path:
        return self._directory

    def _encode(self, name: str, values: np.ndarray) -> np.ndarray:
        """First-seen dictionary codes for one block of an object column.

        The per-value Python work is bounded by the number of *new*
        distinct values in the block: known blocks factorize through
        ``np.unique`` and one small dictionary probe per unique.
        """
        table = self._tables[name]
        seen = self._values[name]

        def code_of(value: object) -> int:
            code = table.get(value)
            if code is None:
                code = len(seen)
                table[value] = code
                seen.append(value)
            return code

        try:
            uniques, inverse = np.unique(values, return_inverse=True)
        except TypeError:
            return np.fromiter(
                map(code_of, values.tolist()),
                dtype=np.int64,
                count=len(values),
            )
        unique_codes = np.fromiter(
            map(code_of, uniques.tolist()),
            dtype=np.int64,
            count=len(uniques),
        )
        return unique_codes[inverse.reshape(-1)]

    def append(self, block: Mapping[str, Sequence[object]]) -> None:
        """Append one row block given as per-column sequences."""
        if self._finalized:
            raise SchemaError("store writer is already finalized")
        lengths = set()
        for name, kind in self._columns:
            if name not in block:
                raise SchemaError(f"block is missing column {name!r}")
            if kind == "int":
                data = np.asarray(block[name], dtype=np.int64)
            else:
                data = self._encode(
                    name, np.asarray(block[name], dtype=object)
                )
            lengths.add(len(data))
            data.astype(_DISK_DTYPE, copy=False).tofile(self._handles[name])
        if len(lengths) > 1:
            raise SchemaError(
                f"ragged block: lengths {sorted(lengths)}"
            )
        self._num_rows += lengths.pop() if lengths else 0

    def discard(self) -> None:
        """Abandon a partially-written store and remove its files.

        The abort-path counterpart of :meth:`finalize`: an aborted spill
        must not leave a half-written directory behind — it would both
        leak disk and trip the collision check on the next run.  No-op
        after :meth:`finalize` (never deletes a live store).
        """
        if self._finalized:
            return
        self._finalized = True
        for handle in self._handles.values():
            handle.close()
        if self._owned is not None:
            self._owned.cleanup()
            self._owned = None
        else:
            shutil.rmtree(self._directory, ignore_errors=True)

    def finalize(self) -> MmapColumnStore:
        """Patch headers, write the manifest, and open the store."""
        if self._finalized:
            raise SchemaError("store writer is already finalized")
        self._finalized = True
        for handle in self._handles.values():
            handle.seek(0)
            handle.write(_npy_header(self._num_rows))
            handle.close()
        dictionaries = {}
        for name, values in self._values.items():
            try:
                dictionaries[name] = [_json_safe(v) for v in values]
                json.dumps(dictionaries[name])
            except TypeError:
                # Un-finalize so the caller's discard() still removes
                # the half-written directory instead of no-opping.
                self._finalized = False
                raise SchemaError(
                    f"column {name!r} holds values the on-disk store "
                    "cannot serialise; use the in-RAM backend"
                ) from None
        manifest = {
            "version": _MANIFEST_VERSION,
            "num_rows": self._num_rows,
            "chunk_rows": self._chunk_rows,
            "columns": [
                {"name": name, "kind": kind, "file": f"col_{index}.npy"}
                for index, (name, kind) in enumerate(self._columns)
            ],
            "dictionaries": dictionaries,
        }
        (self._directory / _MANIFEST).write_text(json.dumps(manifest))
        store = MmapColumnStore(self._directory)
        store._owned = self._owned
        return store


@dataclass(frozen=True)
class StorageOptions:
    """How relations built from a spec should be stored.

    ``directory=None`` puts each converted relation in its own
    temporary directory, cleaned up when the store is garbage-collected.
    """

    storage: str = "numpy"
    chunk_rows: int = DEFAULT_CHUNK_ROWS
    directory: Optional[str] = None

    def __post_init__(self) -> None:
        if self.storage not in ("numpy", "mmap"):
            raise SchemaError(f"unknown storage backend {self.storage!r}")
        if self.chunk_rows < 1:
            raise SchemaError("chunk_rows must be >= 1")

    def relation_directory(self, name: str) -> Optional[Path]:
        """Where a converted relation's store lives (``None`` = temp)."""
        if self.directory is None:
            return None
        return Path(self.directory) / name
