"""Stable text formats for graphs, membership matrices, and result tables.

Every text file the package reads, an edge list, a membership CSV or a
sweep config, is UTF-8, and its lines end in LF or CR LF; a byte that is
not UTF-8 or a CR anywhere else raises :class:`DataFormatError` naming
``path:line``. One walker, :func:`text_lines`, decodes and splits them.
In an edge list, stripped of leading and trailing spaces and tabs, a
line is blank, a whole-line ``#`` comment, or two 0-indexed node ids
``-?[0-9]+`` (ASCII, within int64) separated by spaces or tabs. The
writer emits a ``# n=<count>`` comment (ASCII digits) so isolated
trailing nodes survive a round trip; the reader takes the last one
unless a node count is passed. Duplicate and reversed pairs collapse to
one undirected edge; negative ids and self-loops are rejected.

The reader reads the bytes once and checks them against the grammar;
numpy's C reader then parses them whole (a regular file again from
disk, a pipe from the bytes in hand) and the ids are checked as arrays.
Only when a check fails are the bytes walked line by line, to name the
first bad line, so a pipe is diagnosed as the same bytes on disk are.
Pairs in the writer's row-major order become the graph's CSR without a
sort (see :func:`model.upper_triangle`), and they are freed before the
graph is assembled from its upper triangle.

Numeric matrices are CSV with 17-significant-digit decimal values, which
reproduce IEEE doubles bit-exactly on read-back. Every writer emits
UTF-8 with LF line endings and locale-independent number formatting.
The edge-list writer takes the edges as blocks of pairs i < j in
strictly increasing row-major order, the blocks the sampler draws one at
a time, and regroups them into chunks of ``_CHUNK_ROWS`` edges. It
checks each chunk's order, then writes it from one gather of a uint8
digit table that holds one fixed-width record per node id, so no number
is formatted and no Python code runs per edge. The CSV writer formats
a chunk of rows with one ``%`` over a repeated row template
(``%.17g`` per value, the same bytes as ``format(v, ".17g")``), so no
Python loop runs per cell. :func:`write_text` writes the other outputs, a
summary or a sweep table. A write of any kind that fails removes its
partial file when the path names a regular file (see :func:`_created`).
"""

from __future__ import annotations

import contextlib
import io
import re
from collections.abc import Iterable, Iterator
from pathlib import Path
from typing import IO, NoReturn

import numpy as np

from .exceptions import DataFormatError
from .model import Graph, MembershipMatrix, _row_major, upper_triangle

#: A ``# n=<count>`` comment, matched whole; ASCII digits and blanks only.
_N_COMMENT = re.compile(r"#[ \t]*n[ \t]*=[ \t]*([0-9]+)[ \t]*")
#: A node id of an edge line, matched whole, and the blanks between ids.
_ID = re.compile(r"-?[0-9]+")
_BLANKS = re.compile(r"[ \t]+")
_INT64_MAX = int(np.iinfo(np.int64).max)
#: Every byte the fast path parses outside comment lines.
_PLAIN_BYTES = b"0123456789- \t\r\n"
#: A byte of a plain edge line that is not blank.
_NONBLANK = re.compile(rb"[^ \t\r\n]")
#: Every byte the whole-file parse of a CSV reads alike to ``float()``:
#: printable ASCII, tab, CR and LF. numpy also strips 0x1c .. 0x1f
#: around a number, which ``float()`` refuses.
_CSV_BYTES = bytes(range(0x20, 0x7F)) + b"\t\r\n"
#: Rows written at once by :func:`write_edge_blocks` and :func:`write_matrix_csv`.
_CHUNK_ROWS = 1 << 14


def read_edge_list(path: str | Path, n: int | None = None) -> Graph:
    """Parse an edge-list file into a :class:`Graph`.

    When ``n`` is omitted it comes from the last ``# n=<count>`` comment
    if present, else from ``1 + max id``. An ``n`` outside int64's
    nonnegative range, the first line outside the grammar and the first
    edge with an id at or above the node count raise
    :class:`DataFormatError` naming them. The result does not depend on
    line order.
    """
    path = Path(path)
    if n is not None and not 0 <= n <= _INT64_MAX:
        raise DataFormatError(f"{path}: node count must be nonnegative and fit in int64, got {n}")
    data = path.read_bytes()
    try:
        pairs, n = _read_plain(path, data, n)
    except ValueError:
        _diagnose(path, data)
    del data  # free the file's bytes before the graph is built
    upper = upper_triangle(n, pairs)
    del pairs  # and the parsed pairs before it is assembled
    return Graph.from_upper(upper)


def _read_plain(path: Path, data: bytes, n: int | None) -> tuple[np.ndarray, int]:
    """Pairs and node count of the edge list ``data``, the bytes of
    ``path``, parsed whole.

    Bytes outside the grammar raise ``ValueError``; once they pass, an id
    at or above the node count raises :class:`DataFormatError` naming
    the first such edge. The edge lines are checked in place: the bytes
    outside ``_PLAIN_BYTES`` in the whole file must all lie in the
    comments. numpy then parses a regular file itself, in chunks, and a
    pipe, which can be read only once, from ``data``.
    """
    if b"\r" in data and data.count(b"\r") != data.count(b"\r\n"):
        raise ValueError("a CR not followed by LF")
    declared = None
    spans = []  # [start, end) of each run of edge lines
    other = 0  # bytes outside _PLAIN_BYTES in the comments
    start = 0
    at = data.find(b"#")
    while at != -1:
        head = data.rfind(b"\n", 0, at) + 1
        if data[head:at].strip(b" \t"):
            raise ValueError("inline comment")
        end = data.find(b"\n", at)
        end = len(data) if end == -1 else end
        comment = data[at:end]
        match = _N_COMMENT.fullmatch(comment.decode("utf-8").removesuffix("\r"))
        if match and (declared := _ascii_int(match[1])) > _INT64_MAX:
            raise ValueError("node count beyond int64")
        other += len(comment.translate(None, _PLAIN_BYTES))
        spans.append((start, head))
        start = end
        at = data.find(b"#", end)
    spans.append((start, len(data)))
    if len(data.translate(None, _PLAIN_BYTES)) != other:
        raise ValueError("bytes outside the plain format")
    if any(_NONBLANK.search(data, a, b) for a, b in spans):
        source = path if path.is_file() else io.StringIO(data.decode("utf-8"))
        pairs = np.loadtxt(source, dtype=np.int64, ndmin=2, comments="#", encoding="utf-8")
    else:
        pairs = np.empty((0, 2), dtype=np.int64)
    if pairs.shape[1] != 2:
        raise ValueError("expected two ids per line")
    if n is None:
        n = declared if declared is not None else 1 + int(pairs.max(initial=-1))
    if pairs.size and (pairs.min() < 0 or (pairs[:, 0] == pairs[:, 1]).any()):
        raise ValueError("a negative id or a self-loop")
    if pairs.size and pairs.max() >= n:
        i, j = pairs[(pairs >= n).any(axis=1).argmax()].tolist()
        raise DataFormatError(f"{path}: edge ({i}, {j}) exceeds node count {n}")
    return pairs, n


def _ascii_int(token: str) -> int:
    """The integer the ASCII ``-?[0-9]+`` spells, cut to 20 significant
    digits, which exceed int64 already (``int()`` refuses over 4300)."""
    digits = token.lstrip("-").lstrip("0")[:20] or "0"
    return -int(digits) if token.startswith("-") else int(digits)


def _diagnose(path: Path, data: bytes) -> NoReturn:
    """Raise :class:`DataFormatError` naming the first line of ``data``,
    the bytes of ``path``, outside the grammar."""
    for lineno, line in text_lines(path, data):
        where = f"{path}:{lineno}:"
        line = line.strip(" \t")
        if (match := _N_COMMENT.fullmatch(line)) and _ascii_int(match[1]) > _INT64_MAX:
            raise DataFormatError(f"{where} node count does not fit in int64 in {line!r}")
        if not line or line.startswith("#"):
            continue
        if len(parts := _BLANKS.split(line)) != 2:
            raise DataFormatError(f"{where} expected two node ids, got {line!r}")
        if not all(_ID.fullmatch(part) for part in parts):
            raise DataFormatError(f"{where} non-integer node id in {line!r}")
        i, j = map(_ascii_int, parts)
        if i < 0 or j < 0:
            raise DataFormatError(f"{where} negative node id in {line!r}")
        if max(i, j) > _INT64_MAX:
            raise DataFormatError(f"{where} node id does not fit in int64 in {line!r}")
        if i == j:
            raise DataFormatError(f"{where} self-loop on node {i}")
    raise DataFormatError(f"{path}: numpy refused the file, yet no line breaks the edge-list format")


def text_lines(path: Path, data: bytes | None = None) -> Iterator[tuple[int, str]]:
    """Number and text of each line of the file ``path``, read one line at
    a time, or of ``data``, its bytes in hand. A line ends in LF or CR LF,
    which is not part of its text, or where the bytes end. A byte that is
    not UTF-8, then a CR left in the text, raises
    :class:`DataFormatError` naming the line."""
    with path.open("rb") if data is None else io.BytesIO(data) as stream:
        for lineno, raw in enumerate(stream, start=1):
            line = raw.removesuffix(b"\r\n") if raw.endswith(b"\r\n") else raw.removesuffix(b"\n")
            try:
                text = line.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise DataFormatError(f"{path}:{lineno}: byte 0x{line[exc.start]:02x} is not UTF-8") from None
            if "\r" in text:
                stripped = text.strip(" \t")
                raise DataFormatError(f"{path}:{lineno}: CR not followed by LF in {stripped!r}")
            yield lineno, text


@contextlib.contextmanager
def _created(path: Path, mode: str = "wb", **options) -> Iterator[IO]:
    """``path`` opened for writing and closed on the way out. When
    anything raises, closing included, a regular file at ``path`` is
    removed with what was written to it; a device or a pipe named as the
    path, or a link, is left be."""
    handle = path.open(mode, **options)
    regular = path.is_file() and not path.is_symlink()
    try:
        with handle:
            yield handle
    except BaseException:
        if regular:
            path.unlink(missing_ok=True)
        raise


def write_text(text: str, path: str | Path) -> None:
    """Write ``text`` as UTF-8 with LF line endings; a write that fails
    removes its partial file (see :func:`_created`)."""
    with _created(Path(path), "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)


def write_edge_list(graph: Graph, path: str | Path) -> None:
    """Write a graph in canonical order: ``# n=<count>`` then edges
    sorted with i < j (see :func:`write_edge_blocks`)."""
    write_edge_blocks(graph.n, (graph.edges(),), path)


def write_edge_blocks(n: int, blocks: Iterable[np.ndarray], path: str | Path) -> int:
    """Write the edge list of an ``n``-node graph from its edges, given as
    (b, 2) blocks of pairs ``0 <= i < j < n`` in strictly increasing
    row-major order across all blocks, the order :func:`write_edge_list`
    writes and :func:`~mmsbkit.model.sample_edge_blocks` draws, and
    return the edge count. Each block is taken as it comes, so the edges
    are never all held at once.

    The blocks are regrouped into chunks of ``_CHUNK_ROWS`` edges, each
    checked and then written. Pairs out of range, self-loops, reversed,
    repeated or unsorted pairs, within a chunk or against the previous
    chunk's last pair, raise ``ValueError``. When anything raises, a
    regular file at ``path`` is removed (see :func:`_created`).

    Each id 0 .. n-1 has one fixed-width record in a uint8 table: its
    decimal digits right-aligned in as many bytes as ``n - 1`` has
    digits, NUL-padded on the left, then one separator byte. A chunk
    gathers the records of its ids whole, sets the separators to space
    and LF, and drops the NULs with one boolean mask. Beside the table's
    n (digits + 1) bytes, the writer holds one chunk and the caller's
    current block."""
    path = Path(path)
    width = len(str(max(n - 1, 0)))
    records = _digit_table(n, width).view(f"V{width + 1}").ravel()
    edges, last = 0, None
    with _created(path) as handle:
        handle.write(b"# n=%d\n" % n)
        for chunk in _chunks(blocks):
            last = _check_chunk(n, chunk, last)
            text = records[chunk].view(np.uint8).reshape(-1, 2, width + 1)
            text[:, :, width] = (ord(" "), ord("\n"))
            handle.write(text[text != 0])
            edges += len(chunk)
            del chunk, text  # before the next blocks are drawn
    return edges


def _digit_table(n: int, width: int) -> np.ndarray:
    """(n, width + 1) uint8 records of the ids 0 .. n-1 for
    :func:`write_edge_blocks`, its separators left NUL. Built a column at
    a time: the digit at place p runs through 0 .. 9 in runs of p ids,
    and an id below p has no digit there, but for 0 in the ones place."""
    table = np.zeros((n, width + 1), dtype=np.uint8)
    digits = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    for col in range(width):
        place = 10 ** (width - 1 - col)
        runs = -(-n // place)
        table[:, col] = np.repeat(np.tile(digits, -(-runs // 10))[:runs], place)[:n]
        if place > 1:
            table[:place, col] = 0
    return table


def _chunks(blocks: Iterable[np.ndarray]) -> Iterator[np.ndarray]:
    """The pairs of ``blocks`` in order, as (c, 2) int64 chunks of
    ``_CHUNK_ROWS`` pairs, the last one shorter and none empty. Blocks are
    cut at chunk ends and gathered with one concatenation per chunk, so a
    block costs O(1) numpy calls however few pairs it holds. A chunk's
    blocks are let go before it is yielded, and the chunk before the
    next blocks are drawn."""
    held, count = [], 0
    for block in blocks:
        block = np.asarray(block, dtype=np.int64).reshape(-1, 2)
        if count + len(block) < _CHUNK_ROWS:  # most blocks are short
            held.append(block)
            count += len(block)
            continue
        while len(block):
            held.append(block[:_CHUNK_ROWS - count])
            count += len(held[-1])
            block = block[len(held[-1]):]
            if count == _CHUNK_ROWS:
                chunk, held, count = np.concatenate(held), [], 0
                yield chunk
                del chunk  # before the next blocks are drawn
    if count:
        yield np.concatenate(held)


def _check_chunk(n: int, chunk: np.ndarray, last: tuple[int, int] | None) -> tuple[int, int]:
    """Raise ``ValueError`` unless the pairs of ``chunk`` are in range and
    are pairs i < j in strictly increasing row-major order, after
    ``last``, the pair before the chunk if any; return its last pair."""
    if chunk.min() < 0 or chunk.max() >= n:
        raise ValueError("edge endpoint out of range")
    lo, hi = chunk[:, 0], chunk[:, 1]
    # i < j rules self-loops out; the equality scan only names the fault
    if not ((lo < hi).all() and _row_major(lo, hi) and (last is None or (int(lo[0]), int(hi[0])) > last)):
        if (lo == hi).any():
            raise ValueError("self-loops are not allowed")
        raise ValueError("edges must be pairs i < j in strictly increasing row-major order")
    return int(lo[-1]), int(hi[-1])


def read_matrix_csv(path: str | Path) -> np.ndarray:
    """Read a UTF-8 numeric CSV into a float matrix, skipping blank lines;
    an empty file gives a 0x0 array. Ragged or non-numeric rows and the
    faults of :func:`text_lines` raise :class:`DataFormatError` naming
    the line.

    The bytes are read once. numpy's C reader parses a file of
    ``_CSV_BYTES`` with LF or CR LF line ends whole (a regular file again
    from disk, a pipe from the bytes in hand). Any other file, one with
    no data, and one numpy refuses are walked line by line with each cell
    read by ``float()``, which names the bad line or reads what numpy
    does not (``1_0``, whitespace-only lines, non-ASCII digits). Where
    both read a file, they give the same values.
    """
    path = Path(path)
    data = path.read_bytes()
    plain = not data.translate(None, _CSV_BYTES) and data.count(b"\r") == data.count(b"\r\n")
    if plain and _NONBLANK.search(data):
        source = path if path.is_file() else io.StringIO(data.decode("ascii"))
        try:
            return np.loadtxt(source, delimiter=",", comments=None, ndmin=2, encoding="ascii")
        except ValueError:
            pass
    rows: list[list[float]] = []
    width = None
    for lineno, line in text_lines(path, data):
        if not (line := line.strip()):
            continue
        cells = line.split(",")
        if width is None:
            width = len(cells)
        elif len(cells) != width:
            raise DataFormatError(f"{path}:{lineno}: expected {width} columns, found {len(cells)}")
        try:
            rows.append([float(c) for c in cells])
        except ValueError as exc:
            raise DataFormatError(f"{path}:{lineno}: non-numeric cell in {line!r}") from exc
    if not rows:
        return np.empty((0, 0))
    return np.array(rows, dtype=np.float64)


def write_matrix_csv(matrix: np.ndarray, path: str | Path) -> None:
    """Write a matrix as CSV with 17 significant digits per cell, so
    read-back reproduces every representable double bit-exactly.

    Raises ``ValueError`` before the file is opened when the input is not
    2-d or holds a non-finite entry."""
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"matrix must be 2-d, got shape {m.shape}")
    if m.size and not np.isfinite(m).all():
        raise ValueError("matrix contains non-finite entries")
    # one % per chunk over the repeated row template runs the per-value
    # work in C; Python floats from tolist format faster than numpy scalars
    row_fmt = ",".join(["%.17g"] * m.shape[1]) + "\n"
    with _created(Path(path), "w", encoding="utf-8", newline="\n") as handle:
        for start in range(0, len(m), _CHUNK_ROWS):
            chunk = m[start:start + _CHUNK_ROWS]
            handle.write((row_fmt * len(chunk)) % tuple(chunk.ravel().tolist()))


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
