"""Stable text formats for graphs, membership matrices, and result tables.

Edge lists are plain text: one ``i j`` pair of 0-indexed node ids per
line, whitespace separated, with ``#`` starting a comment line. The
writer emits a ``# n=<count>`` comment so isolated trailing nodes
survive a round trip; the reader honors it unless an explicit node count
is passed. Duplicate and reversed pairs collapse to one undirected edge;
self-loops are rejected.

Numeric matrices are CSV with 17-significant-digit decimal values, which
reproduce IEEE doubles bit-exactly on read-back. All files are UTF-8
with LF line endings and locale-independent number formatting.
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np

from .exceptions import DataFormatError
from .model import Graph, MembershipMatrix

_N_COMMENT = re.compile(r"#\s*n\s*=\s*(\d+)\s*$")


def read_edge_list(path: str | Path, n: int | None = None) -> Graph:
    """Parse an edge-list file into a :class:`Graph`.

    When ``n`` is omitted it comes from a ``# n=<count>`` comment if
    present, else from ``1 + max id``. Malformed lines, self-loops, and
    ids at or above the declared count raise :class:`DataFormatError`
    naming the offending line. The result does not depend on line order.
    """
    path = Path(path)
    pairs: list[tuple[int, int]] = []
    declared = None
    with path.open("r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                match = _N_COMMENT.match(line)
                if match:
                    declared = int(match.group(1))
                continue
            parts = line.split()
            if len(parts) != 2:
                raise DataFormatError(f"{path}:{lineno}: expected two node ids, got {line!r}")
            try:
                i, j = int(parts[0]), int(parts[1])
            except ValueError as exc:
                raise DataFormatError(f"{path}:{lineno}: non-integer node id in {line!r}") from exc
            if i < 0 or j < 0:
                raise DataFormatError(f"{path}:{lineno}: negative node id in {line!r}")
            if i == j:
                raise DataFormatError(f"{path}:{lineno}: self-loop on node {i}")
            pairs.append((i, j))
    if n is None:
        n = declared
    if n is None:
        n = 1 + max((max(p) for p in pairs), default=-1)
    if n < 0:
        raise DataFormatError(f"{path}: node count must be nonnegative, got {n}")
    for i, j in pairs:
        if i >= n or j >= n:
            raise DataFormatError(f"{path}: edge ({i}, {j}) exceeds node count {n}")
    return Graph.from_edges(n, np.array(pairs, dtype=np.int64).reshape(-1, 2))


def write_edge_list(graph: Graph, path: str | Path) -> None:
    """Write a graph in canonical order: ``# n=<count>`` then edges
    sorted with i < j."""
    path = Path(path)
    lines = [f"# n={graph.n}"]
    # Python ints format faster than numpy scalars
    lines += [f"{i} {j}" for i, j in graph.edges().tolist()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def read_matrix_csv(path: str | Path) -> np.ndarray:
    """Read a numeric CSV into a float matrix; an empty file gives a 0x0
    array. Ragged or non-numeric rows raise :class:`DataFormatError`."""
    path = Path(path)
    rows: list[list[float]] = []
    width = None
    with path.open("r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line:
                continue
            cells = line.split(",")
            if width is None:
                width = len(cells)
            elif len(cells) != width:
                raise DataFormatError(
                    f"{path}:{lineno}: expected {width} columns, found {len(cells)}"
                )
            try:
                rows.append([float(c) for c in cells])
            except ValueError as exc:
                raise DataFormatError(f"{path}:{lineno}: non-numeric cell in {line!r}") from exc
    if not rows:
        return np.empty((0, 0))
    return np.array(rows, dtype=np.float64)


def write_matrix_csv(matrix: np.ndarray, path: str | Path) -> None:
    """Write a matrix as CSV with 17 significant digits per cell, so
    read-back reproduces every representable double bit-exactly."""
    m = np.asarray(matrix, dtype=np.float64)
    if m.size and not np.isfinite(m).all():
        raise ValueError("matrix contains non-finite entries")
    path = Path(path)
    lines = [",".join(format(v, ".17g") for v in row) for row in m]
    text = "\n".join(lines)
    if lines:
        text += "\n"
    path.write_text(text, encoding="utf-8", newline="\n")


def read_memberships(path: str | Path, normalize: bool = False) -> MembershipMatrix:
    """Read a membership CSV (one row per node, K columns).

    With ``normalize`` set, each row is divided by its sum, turning 0/1
    multi-label ground truth into row-stochastic weights; a zero row is
    then an error. Without it, rows must already be row-stochastic.
    """
    m = read_matrix_csv(path)
    if m.size == 0:
        raise DataFormatError(f"{path}: membership file is empty")
    if m.min() < 0:
        raise DataFormatError(f"{path}: negative membership weight")
    if normalize:
        sums = m.sum(axis=1)
        if (sums <= 0).any():
            bad = int(np.nonzero(sums <= 0)[0][0])
            raise DataFormatError(f"{path}: row {bad + 1} sums to zero and cannot be normalized")
        m = m / sums[:, None]
    try:
        return MembershipMatrix(m)
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc


def write_memberships(pi: MembershipMatrix, path: str | Path) -> None:
    write_matrix_csv(pi.weights, path)
