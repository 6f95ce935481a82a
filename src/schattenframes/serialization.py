"""The JSON exchange format for matrices, plus CSV report writers.

Matrix format: {"rows": r, "cols": c, "re": [...], "im": [...]} with entries
row-major.  Round-trips are bit-exact for finite doubles (Python's float repr
is shortest-round-trip).
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .linalg import _check_count, as_matrix

if TYPE_CHECKING:  # only the counterexamples command loads constructions
    from .constructions import GrowthSeries

__all__ = [
    "matrix_to_dict",
    "matrix_from_dict",
    "write_matrix",
    "read_matrix",
    "write_growth_csv",
    "write_records_csv",
    "write_nodes_csv",
]


def matrix_to_dict(m) -> dict:
    """Encode a matrix as a JSON-ready dict (row-major re/im parts)."""
    m = as_matrix(m)
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "re": [float(x) for x in m.real.ravel()],
        "im": [float(x) for x in m.imag.ravel()],
    }


def matrix_from_dict(d: dict) -> np.ndarray:
    """Decode the matrix exchange format."""
    try:
        rows, cols = d["rows"], d["cols"]
        re = np.asarray(d["re"], dtype=float)
        im = np.asarray(d["im"], dtype=float)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed matrix object: {exc}") from exc
    _check_count("rows", rows)
    _check_count("cols", cols)
    if re.size != rows * cols or im.size != rows * cols:
        raise ValueError(
            f"matrix payload length {re.size}/{im.size} != rows*cols = {rows * cols}"
        )
    m = np.empty((rows, cols), dtype=np.complex128)  # re + 1j * im would turn -0.0 into 0.0
    m.real, m.imag = re.reshape(rows, cols), im.reshape(rows, cols)
    return as_matrix(m)


def write_matrix(path, m) -> None:
    Path(path).write_text(json.dumps(matrix_to_dict(m)) + "\n")


def read_matrix(path) -> np.ndarray:
    return matrix_from_dict(_read_json(path))


def _read_json(path):
    """The JSON value held in the file at `path`; nesting too deep to decode is a ValueError."""
    try:
        return json.loads(Path(path).read_text())
    except RecursionError:
        raise ValueError(f"{path} nests JSON too deeply to decode") from None


def write_growth_csv(path, series: GrowthSeries) -> None:
    """Columns: N, partial_sum, increment_ratio (blank where undefined)."""
    ratios = [""] * 2 + [f"{r:.17g}" for r in series.increment_ratios]
    rows = zip(series.truncations, series.partial_sums, ratios)
    write_records_csv(
        path, [{"N": n, "partial_sum": f"{s:.17g}", "increment_ratio": r} for n, s, r in rows]
    )


def write_nodes_csv(path, points: np.ndarray, weights: np.ndarray | None = None) -> None:
    """Columns: re, im, weight (weight omitted when not given).

    Serves both quadrature rules (nodes with dA weights) and sampling
    lattices (points only).
    """
    records = [{"re": f"{z.real:.17g}", "im": f"{z.imag:.17g}"} for z in np.ravel(points)]
    if weights is not None:
        for rec, w in zip(records, np.ravel(weights)):
            rec["weight"] = f"{w:.17g}"
    write_records_csv(path, records)


def write_records_csv(path, records: list[dict]) -> None:
    """Write homogeneous record dicts with a stable header order."""
    if not records:
        Path(path).write_text("")
        return
    header = list(dict.fromkeys(key for rec in records for key in rec))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([rec.get(key, "") for key in header] for rec in records)
