"""File formats: design CSV, JSON sidecars, trace and results CSV.

One convention everywhere: a design (or OA) is a plain CSV with no header,
one run per line, integer levels, comma separators, LF newlines.  Metadata
travels in a JSON sidecar next to the data file (``foo.csv`` -> ``foo.json``)
with sorted keys so byte-level comparisons are stable.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

from .constructions import OrthogonalArray, good_oa_catalog, parse_oa
from .design import as_design, parse_int_csv
from .errors import LhdError


def sidecar_path(path: str | Path) -> Path:
    return Path(path).with_suffix(".json")


def write_text(path: str | Path, text: str) -> Path:
    """Write ``text`` with LF newlines; an ``OSError`` becomes an ``LhdError``."""
    path = Path(path)
    try:
        path.write_text(text, newline="\n")
    except OSError as e:
        raise LhdError(f"cannot write {path}: {e}") from e
    return path


def check_writable(*paths: str | Path | None) -> None:
    """Raise the ``LhdError`` of a failed write, before any work is done, for
    an output path (``None`` skipped) that is a directory, is not writable, is
    in a missing or unwritable directory, or names the file of an earlier one."""
    named = [Path(p) for p in paths if p is not None]
    for i, path in enumerate(named):
        if path.is_dir() or not os.access(path if path.exists() else path.parent, os.W_OK):
            raise LhdError(f"cannot write {path}: not a writable file in a writable directory")
        if path.resolve() in (earlier.resolve() for earlier in named[:i]):
            raise LhdError(f"cannot write {path}: two outputs name this one file")


def write_design(path: str | Path, design: np.ndarray) -> Path:
    """Write the design as :func:`as_design` casts it, so nothing is written
    for a level that is no finite integer or an array that is not 2-D."""
    X = as_design(design)
    rows = "\n".join(",".join(map(str, row)) for row in X.tolist())
    return write_text(path, rows + "\n")


def _read_text(path: Path) -> str:
    try:
        return path.read_text()
    except OSError as e:
        raise LhdError(f"cannot read {path}: {e}") from e


def read_design(path: str | Path) -> np.ndarray:
    path = Path(path)
    try:
        arr = parse_int_csv(_read_text(path))
    except ValueError as e:
        raise LhdError(f"{path} is not an integer CSV matrix: {e}") from e
    if arr.ndim != 2 or arr.size == 0:
        raise LhdError(f"{path} does not contain a non-empty matrix")
    return arr


def write_json(path: str | Path, obj: dict) -> Path:
    return write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def read_json(path: str | Path) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as e:
        raise LhdError(f"cannot read JSON {path}: {e}") from e


def _cell(v) -> str:
    return repr(v) if isinstance(v, float) else str(v)


def write_rows_csv(path: str | Path, rows: list[dict], columns: tuple[str, ...]) -> Path:
    """A header of ``columns``, then each row's values in that order; a float
    is written as its ``repr``, which reads back to the same value."""
    lines = [",".join(columns)]
    lines += [",".join(_cell(r[c]) for c in columns) for r in rows]
    return write_text(path, "\n".join(lines) + "\n")


TRACE_COLUMNS = ("evaluation_index", "best_value")


def write_trace(path: str | Path, trace: list[tuple[int, float]]) -> Path:
    return write_rows_csv(path, [dict(zip(TRACE_COLUMNS, row)) for row in trace], TRACE_COLUMNS)


def read_oa(path: str | Path) -> OrthogonalArray:
    """Load an OA from CSV plus its JSON sidecar declaring (N, K, s, t)."""
    return parse_oa(_read_text(Path(path)), read_json(sidecar_path(path)))


def load_oa(name_or_path: str) -> OrthogonalArray:
    """An OA from a bundled catalog name, or from a CSV path with its JSON sidecar."""
    if Path(name_or_path).exists():
        return read_oa(name_or_path)
    return good_oa_catalog(name_or_path)


def write_oa(path: str | Path, oa: OrthogonalArray) -> Path:
    write_design(path, oa.cells)
    write_json(sidecar_path(path), {"N": oa.N, "K": oa.K, "s": oa.s, "t": oa.strength})
    return Path(path)
