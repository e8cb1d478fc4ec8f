"""Schemas and intermediate tables (numpy-column-backed).

The analyst declares the schema of each PROCESS output table (column name,
data type, default value).  Privid does not trust the executable to honour
the schema: rows are coerced on ingestion (extraneous columns dropped,
missing columns filled with defaults, values cast to the declared type) and
any rows beyond ``max_rows`` per chunk are truncated by the sandbox.

Privid itself appends two *trusted* columns to every intermediate table:
``chunk`` (the timestamp of the chunk's first frame) and ``region`` (the name
of the spatial region, or an empty string when spatial splitting is not
used).  These are trusted because Privid generates them, which is why group-
by over them does not require explicit keys (Appendix D).

Storage is columnar: a :class:`Table` holds one growable column per name —
``NUMBER`` columns are float64 arrays with a missing-value mask, everything
else an object array.  Rows travel one way from the executable to the
table: the executable's list of row dicts, each coerced by
:meth:`Schema.coerce_row` and stamped by the sandbox, lands through
:meth:`Table.extend`.  A ``NUMBER`` column degrades to object storage the
moment a value that is not a float (or None) is appended, so untyped and
hand-built tables behave exactly like a list of row dicts.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from repro.errors import SchemaError

#: Columns Privid adds to every intermediate table and therefore trusts.
CHUNK_COLUMN = "chunk"
REGION_COLUMN = "region"
IMPLICIT_COLUMNS = (CHUNK_COLUMN, REGION_COLUMN)


class DataType(str, Enum):
    """Column data types supported by the query language (Appendix D)."""

    STRING = "STRING"
    NUMBER = "NUMBER"

    def coerce(self, value: Any, default: Any) -> Any:
        """Cast ``value`` to this type, falling back to ``default`` on failure.

        Booleans are mapped explicitly by both types — ``NUMBER`` to 1.0/0.0
        and ``STRING`` to ``"true"``/``"false"`` — so the two branches treat
        them symmetrically.
        """
        if value is None:
            return default
        if self is DataType.NUMBER:
            if isinstance(value, bool):
                return 1.0 if value else 0.0
            try:
                return float(value)
            except (TypeError, ValueError):
                return default
        if isinstance(value, bool):
            return "true" if value else "false"
        return str(value)


@dataclass(frozen=True)
class ColumnSpec:
    """One column of an analyst-declared schema."""

    name: str
    dtype: DataType = DataType.STRING
    default: Any = None

    def __post_init__(self) -> None:
        if not self.name or not self.name.replace("_", "").isalnum():
            raise SchemaError(f"invalid column name {self.name!r}")
        if self.name in IMPLICIT_COLUMNS:
            raise SchemaError(f"column name {self.name!r} is reserved by Privid")
        default = self.default
        if default is None:
            default = 0.0 if self.dtype is DataType.NUMBER else ""
        object.__setattr__(self, "default", self.dtype.coerce(default, default))


@dataclass(frozen=True)
class Schema:
    """An ordered collection of column specifications."""

    columns: tuple[ColumnSpec, ...]

    def __post_init__(self) -> None:
        names = [column.name for column in self.columns]
        if len(names) != len(set(names)):
            raise SchemaError("duplicate column names in schema")

    @property
    def names(self) -> tuple[str, ...]:
        """Column names in declaration order."""
        return tuple(column.name for column in self.columns)

    def column(self, name: str) -> ColumnSpec:
        """Look up a column spec by name."""
        for column in self.columns:
            if column.name == name:
                return column
        raise SchemaError(f"unknown column {name!r}")

    def has_column(self, name: str) -> bool:
        """True if the schema declares a column with this name."""
        return any(column.name == name for column in self.columns)

    def default_row(self) -> dict[str, Any]:
        """A row filled entirely with default values (used on crash/timeout)."""
        return {column.name: column.default for column in self.columns}

    def coerce_row(self, raw: Any) -> dict[str, Any]:
        """Coerce an arbitrary executable output item into a schema-conforming row.

        Non-mapping outputs produce a default row; extraneous keys are dropped
        and missing keys filled with defaults, so a malicious or buggy
        executable cannot smuggle extra columns into the table.
        """
        if not isinstance(raw, dict):
            return self.default_row()
        row: dict[str, Any] = {}
        for column in self.columns:
            row[column.name] = column.dtype.coerce(raw.get(column.name, column.default),
                                                   column.default)
        return row

    def with_implicit_columns(self) -> tuple[str, ...]:
        """All column names including the Privid-added chunk and region columns."""
        return self.names + IMPLICIT_COLUMNS


class _NumberColumn:
    """Growable float64 column with a missing-value (None) mask.

    Only exact floats (and None) are stored; any other value signals the
    table to degrade the column to object storage, preserving the dict-row
    semantics of storing appended values untouched.
    """

    __slots__ = ("values", "missing", "size", "has_missing")

    def __init__(self, capacity: int = 16) -> None:
        self.values = np.zeros(capacity, dtype=np.float64)
        self.missing = np.zeros(capacity, dtype=bool)
        self.size = 0
        self.has_missing = False

    def _reserve(self, extra: int) -> None:
        needed = self.size + extra
        capacity = self.values.shape[0]
        if needed <= capacity:
            return
        while capacity < needed:
            capacity *= 2
        values = np.zeros(capacity, dtype=np.float64)
        values[: self.size] = self.values[: self.size]
        missing = np.zeros(capacity, dtype=bool)
        missing[: self.size] = self.missing[: self.size]
        self.values = values
        self.missing = missing

    def try_append(self, value: Any) -> bool:
        """Append one value; False if it does not fit a float column."""
        if value is None:
            self._reserve(1)
            self.missing[self.size] = True
            self.values[self.size] = 0.0
            self.size += 1
            self.has_missing = True
            return True
        if type(value) is float:
            self._reserve(1)
            self.values[self.size] = value
            self.size += 1
            return True
        return False

    def value_at(self, index: int) -> Any:
        return None if self.missing[index] else float(self.values[index])

    def value_list(self) -> list[Any]:
        values = self.values[: self.size].tolist()
        if self.has_missing:
            missing = self.missing[: self.size].tolist()
            return [None if gone else value
                    for value, gone in zip(values, missing)]
        return values

    def array(self) -> np.ndarray:
        """The live float64 values (missing entries hold 0.0)."""
        return self.values[: self.size]


class _ObjectColumn:
    """Growable object column (STRING and untyped storage)."""

    __slots__ = ("values", "size")

    def __init__(self, capacity: int = 16) -> None:
        self.values = np.empty(capacity, dtype=object)
        self.size = 0

    def _reserve(self, extra: int) -> None:
        needed = self.size + extra
        capacity = self.values.shape[0]
        if needed <= capacity:
            return
        while capacity < needed:
            capacity *= 2
        values = np.empty(capacity, dtype=object)
        values[: self.size] = self.values[: self.size]
        self.values = values

    @classmethod
    def from_number_column(cls, column: _NumberColumn) -> "_ObjectColumn":
        """Degrade a float column to object storage (values preserved)."""
        replacement = cls(max(16, column.size))
        replacement.values[: column.size] = column.value_list()
        replacement.size = column.size
        return replacement

    def try_append(self, value: Any) -> bool:
        self._reserve(1)
        self.values[self.size] = value
        self.size += 1
        return True

    def value_at(self, index: int) -> Any:
        return self.values[index]

    def value_list(self) -> list[Any]:
        return self.values[: self.size].tolist()

    def array(self) -> np.ndarray:
        return self.values[: self.size]


class Table:
    """An in-memory table: named columns over numpy-backed storage.

    Intermediate tables are untrusted: nothing about their contents is used
    for privacy accounting.  They are ordinary containers used only to
    compute the raw (pre-noise) aggregate.

    The construction API is unchanged from the dict-row implementation —
    ``Table(columns=..., rows=[...], name=...)`` — and ``table.rows`` still
    yields the list of row dicts (materialised lazily and cached until the
    next mutation).  Schema-built tables type their ``NUMBER`` columns as
    float64 arrays; columns of untyped tables, and ``NUMBER`` columns that
    receive a non-float value, use object storage, so arbitrary appended
    values round-trip exactly as before.
    """

    def __init__(self, columns: tuple[str, ...] | Sequence[str],
                 rows: Iterable[dict[str, Any]] | None = None, name: str = "",
                 dtypes: dict[str, DataType] | None = None) -> None:
        self.columns = tuple(columns)
        self.name = name
        self._dtypes = dict(dtypes or {})
        self._data: dict[str, _NumberColumn | _ObjectColumn] = {}
        for column in self.columns:
            if self._dtypes.get(column) is DataType.NUMBER:
                self._data[column] = _NumberColumn()
            else:
                self._data[column] = _ObjectColumn()
        self._size = 0
        self._rows_cache: list[dict[str, Any]] | None = None
        if rows is not None:
            self.extend(rows)

    @classmethod
    def from_schema(cls, schema: Schema, *, name: str = "") -> "Table":
        """Create an empty table for a PROCESS schema (plus implicit columns)."""
        dtypes = {column.name: column.dtype for column in schema.columns}
        dtypes[CHUNK_COLUMN] = DataType.NUMBER
        dtypes[REGION_COLUMN] = DataType.STRING
        return cls(columns=schema.with_implicit_columns(), name=name, dtypes=dtypes)

    @property
    def num_rows(self) -> int:
        """Number of rows currently in the table."""
        return self._size

    @property
    def rows(self) -> list[dict[str, Any]]:
        """The rows as dicts (compat adapter; cached until the next mutation)."""
        if self._rows_cache is None:
            lists = [(name, self._data[name].value_list()) for name in self.columns]
            self._rows_cache = [{name: values[index] for name, values in lists}
                                for index in range(self._size)]
        return self._rows_cache

    def has_column(self, name: str) -> bool:
        """True if the table has the named column."""
        return name in self._data

    def _append_value(self, name: str, value: Any) -> None:
        column = self._data[name]
        if not column.try_append(value):
            column = _ObjectColumn.from_number_column(column)  # type: ignore[arg-type]
            column.try_append(value)
            self._data[name] = column

    def append(self, row: dict[str, Any]) -> None:
        """Append a row (restricted to the table's columns, missing keys -> None)."""
        for name in self.columns:
            self._append_value(name, row.get(name))
        self._size += 1
        self._rows_cache = None

    def extend(self, rows: Iterable[dict[str, Any]]) -> None:
        """Append many rows (each restricted to the table's columns)."""
        if not rows:  # most warm chunks answer nothing
            return
        for row in rows:
            for name in self.columns:
                self._append_value(name, row.get(name))
            self._size += 1
        self._rows_cache = None

    def column_values(self, name: str) -> list[Any]:
        """All values of one column, in row order."""
        if name not in self._data:
            raise SchemaError(f"table {self.name!r} has no column {name!r}")
        return self._data[name].value_list()

    def number_column(self, name: str) -> _NumberColumn | None:
        """The float64 column backing ``name``, or None if object-typed."""
        column = self._data.get(name)
        return column if isinstance(column, _NumberColumn) else None

    def __iter__(self) -> Iterator[dict[str, Any]]:
        return iter(self.rows)

    def __len__(self) -> int:
        return self._size
