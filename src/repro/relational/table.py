"""Schemas and intermediate tables (one list per column).

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

Storage is columnar: a :class:`Table` holds one Python list per column, and
stores each appended value untouched, so a table behaves exactly like a list
of row dicts whatever its rows hold.  Rows travel one way from the
executable to the table: the executable's list of row dicts, each coerced by
:meth:`Schema.coerce_row` and stamped by the sandbox, lands through
:meth:`Table.extend`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any, Iterable, Iterator, Sequence

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


class Table:
    """An in-memory table: named columns, each a list of values in row order.

    Intermediate tables are untrusted: nothing about their contents is used
    for privacy accounting.  They are ordinary containers used only to
    compute the raw (pre-noise) aggregate.

    ``Table(columns=..., rows=[...], name=...)`` builds one from row dicts,
    and ``table.rows`` yields them back (materialised lazily and cached until
    the next mutation); a row's missing key reads None.
    """

    def __init__(self, columns: tuple[str, ...] | Sequence[str],
                 rows: Iterable[dict[str, Any]] | None = None, name: str = "") -> None:
        self.columns = tuple(columns)
        self.name = name
        self._data: dict[str, list[Any]] = {column: [] for column in self.columns}
        self._appends = [(column, values.append) for column, values in self._data.items()]
        self._size = 0
        self._rows_cache: list[dict[str, Any]] | None = None
        if rows is not None:
            self.extend(rows)

    @classmethod
    def from_schema(cls, schema: Schema, *, name: str = "") -> "Table":
        """Create an empty table for a PROCESS schema (plus implicit columns)."""
        return cls(columns=schema.with_implicit_columns(), name=name)

    @classmethod
    def from_columns(cls, data: dict[str, list[Any]], *, name: str = "") -> "Table":
        """A table whose columns hold ``data``'s lists, which are of one length."""
        table = cls(columns=tuple(data), name=name)
        for column, values in zip(table._data.values(), data.values()):
            column += values
        table._size = len(next(iter(data.values()), ()))
        return table

    @property
    def num_rows(self) -> int:
        """Number of rows currently in the table."""
        return self._size

    @property
    def rows(self) -> list[dict[str, Any]]:
        """The rows as dicts (cached until the next mutation)."""
        if self._rows_cache is None:
            columns = [self._data[name] for name in self.columns]
            self._rows_cache = ([dict(zip(self.columns, values)) for values in zip(*columns)]
                                if columns else [{} for _ in range(self._size)])
        return self._rows_cache

    def has_column(self, name: str) -> bool:
        """True if the table has the named column."""
        return name in self._data

    def extend(self, rows: Iterable[dict[str, Any]]) -> None:
        """Append rows (each restricted to the table's columns; a missing key
        stores None).

        Values go through each column's bound ``append``, made once per
        table, so a chunk of a few rows costs a few hundred nanoseconds.
        """
        if not rows:  # most warm chunks answer nothing
            return
        appends = self._appends
        count = 0
        for row in rows:
            get = row.get
            for name, append in appends:
                append(get(name))
            count += 1
        self._size += count
        self._rows_cache = None

    def column_values(self, name: str) -> list[Any]:
        """All values of one column, in row order."""
        if name not in self._data:
            raise SchemaError(f"table {self.name!r} has no column {name!r}")
        return list(self._data[name])

    def __iter__(self) -> Iterator[dict[str, Any]]:
        return iter(self.rows)

    def __len__(self) -> int:
        return self._size
