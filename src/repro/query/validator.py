"""Static validation of Privid queries.

This validator gives analysts early, friendly errors before any video is
processed — the same role the paper's front end plays when it rejects a
malformed query instead of burning compute on it.  It is also the first step
of every execution: :meth:`~repro.core.executor.PrividSystem.plan` runs it
against the registered cameras and executables, and relies on it.
"""

from __future__ import annotations

from repro.errors import QueryValidationError
from repro.query.ast import PrividQuery, collect_table_names
from repro.utils.timebase import is_integral_frame_count


def validate_query(query: PrividQuery, *, known_cameras: dict[str, float] | None = None,
                   known_executables: list[str] | None = None) -> None:
    """Validate a query's structure; raise :class:`QueryValidationError`
    naming every broken rule (joined by ``"; "``) if any is.

    ``known_cameras`` optionally maps camera names to their frame rates so
    the frame-alignment rule of Appendix D (chunk duration and stride must be
    whole numbers of frames) can be checked; ``known_executables`` optionally
    lists registered executable names.
    """
    errors: list[str] = []

    chunk_sets: set[str] = set()
    for split in query.splits:
        if split.output in chunk_sets:
            errors.append(f"duplicate chunk set name {split.output!r}")
        chunk_sets.add(split.output)
        if known_cameras is not None:
            if split.camera not in known_cameras:
                errors.append(f"SPLIT references unknown camera {split.camera!r}")
            else:
                fps = known_cameras[split.camera]
                if not is_integral_frame_count(split.chunk_duration, fps):
                    errors.append(
                        f"chunk duration {split.chunk_duration}s is not a whole number of "
                        f"frames at {fps} fps (camera {split.camera!r})")
                if not is_integral_frame_count(split.stride, fps):
                    errors.append(
                        f"stride {split.stride}s is not a whole number of frames at {fps} fps")

    tables: set[str] = set()
    for process in query.processes:
        if process.output in tables:
            errors.append(f"duplicate table name {process.output!r}")
        tables.add(process.output)
        if process.chunks not in chunk_sets:
            errors.append(
                f"PROCESS table {process.output!r} reads unknown chunk set {process.chunks!r}")
        if known_executables is not None and process.executable not in known_executables:
            errors.append(
                f"PROCESS references unregistered executable {process.executable!r}")

    if not query.selects:
        errors.append("a query must contain at least one SELECT")
    for index, select in enumerate(query.selects):
        try:
            referenced = collect_table_names(select.source)
        except QueryValidationError as error:
            errors.append(str(error))
            continue
        unknown = referenced - tables
        if unknown:
            errors.append(f"SELECT #{index} references unknown tables {sorted(unknown)}")
        if select.aggregation.function == "ARGMAX" and select.group_by is None:
            errors.append(f"SELECT #{index}: ARGMAX requires a GROUP BY")
        if select.group_by is not None and select.group_by.expected_keys is not None \
                and len(select.group_by.expected_keys) == 0:
            errors.append(f"SELECT #{index}: WITH KEYS must list at least one key")

    if errors:
        raise QueryValidationError("; ".join(errors))
