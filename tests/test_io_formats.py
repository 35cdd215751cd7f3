import contextlib
import errno
import io
import json
import os
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mmsbkit import (
    BlockModel,
    DataFormatError,
    Graph,
    build_population_matrix,
    diag_off_block,
    planted_memberships,
    read_edge_list,
    read_matrix_csv,
    read_memberships,
    sample_adjacency,
    sample_edge_blocks,
    write_edge_blocks,
    write_edge_list,
    write_matrix_csv,
    write_memberships,
)
from mmsbkit import cli, io_formats, model
from mmsbkit.cli import run_cli
from mmsbkit.sweep import SweepConfig, SweepResult
from conftest import same_graph, three_block_setup
from test_cli import TINY_SWEEP, generate_args


class TestReadEdgeList:
    def test_path_graph(self, tmp_path):
        f = tmp_path / "g.edgelist"
        f.write_text("0 1\n1 2\n")
        g = read_edge_list(f)
        assert g.n == 3
        assert np.array_equal(g.degrees(), [1, 2, 1])

    def test_reversed_duplicate_collapses(self, tmp_path):
        f = tmp_path / "g.edgelist"
        f.write_text("0 1\n1 0\n")
        g = read_edge_list(f)
        assert g.edge_count() == 1

    def test_self_loop_names_line(self, tmp_path):
        f = tmp_path / "g.edgelist"
        f.write_text("0 0\n")
        with pytest.raises(DataFormatError, match=":1: self-loop"):
            read_edge_list(f)

    def test_malformed_line_names_line(self, tmp_path):
        f = tmp_path / "g.edgelist"
        f.write_text("0 1\n2 three\n")
        with pytest.raises(DataFormatError, match=":2:"):
            read_edge_list(f)

    def test_id_beyond_declared_n(self, tmp_path):
        f = tmp_path / "g.edgelist"
        f.write_text("0 5\n")
        with pytest.raises(DataFormatError, match="exceeds node count"):
            read_edge_list(f, n=3)

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        f = tmp_path / "g.edgelist"
        f.write_text("# a comment\n\n0 1\n")
        assert read_edge_list(f).edge_count() == 1

    def test_n_comment_preserves_isolated_nodes(self, tmp_path):
        f = tmp_path / "g.edgelist"
        f.write_text("# n=5\n0 1\n")
        assert read_edge_list(f).n == 5

    def test_explicit_n_overrides_comment(self, tmp_path):
        f = tmp_path / "g.edgelist"
        f.write_text("# n=5\n0 1\n")
        assert read_edge_list(f, n=3).n == 3

    def test_inline_comment_names_line(self, tmp_path):
        f = tmp_path / "g.edgelist"
        f.write_text("0 1\n1 2 # x\n")
        with pytest.raises(DataFormatError, match=":2: expected two node ids"):
            read_edge_list(f)

    def test_last_n_comment_wins(self, tmp_path):
        f = tmp_path / "g.edgelist"
        f.write_text("# n=5\n0 1\n  # n=7\n")
        assert read_edge_list(f).n == 7

    def test_crlf_line_endings(self, tmp_path):
        f = tmp_path / "g.edgelist"
        f.write_bytes(b"# n=4\r\n0 1\r\n\r\n1\t2\r\n")
        g = read_edge_list(f)
        assert g.n == 4 and g.edge_count() == 2

    def test_id_beyond_int64_names_line(self, tmp_path):
        f = tmp_path / "g.edgelist"
        f.write_text("0 1\n9223372036854775808 1\n")
        with pytest.raises(DataFormatError, match=":2: node id does not fit in int64"):
            read_edge_list(f)

    @pytest.mark.parametrize("n", [-1, 2**63])
    def test_explicit_n_outside_int64_is_data_error(self, tmp_path, n):
        f = tmp_path / "g.edgelist"
        f.write_text("0 1\n")
        with pytest.raises(DataFormatError, match=f"node count must be nonnegative and fit in int64, got {n}"):
            read_edge_list(f, n=n)

    def test_n_comment_beyond_int64_names_line(self, tmp_path):
        f = tmp_path / "g.edgelist"
        f.write_text("0 1\n# n=99999999999999999999\n")
        with pytest.raises(DataFormatError, match=":2: node count does not fit in int64"):
            read_edge_list(f)

    @pytest.mark.parametrize("comment", ["# n=\u0663", "# n=5\x0c", "#\xa0n=5", "# n\u3000= 5"])
    def test_n_comment_reads_ascii_only(self, tmp_path, comment):
        # other digits and blanks make an ordinary comment
        f = tmp_path / "g.edgelist"
        f.write_text(f"{comment}\n0 1\n", encoding="utf-8")
        assert read_edge_list(f).n == 2

    def test_line_order_does_not_matter(self, tmp_path):
        rng = np.random.default_rng(0)
        lines = ["0 3", "1 2", "2 4", "0 4", "3 4"]
        reference = None
        for shuffle in range(6):
            rng.shuffle(lines)
            f = tmp_path / f"g{shuffle}.edgelist"
            f.write_text("\n".join(lines) + "\n")
            g = read_edge_list(f)
            edges = g.edges()
            if reference is None:
                reference = edges
            assert np.array_equal(edges, reference)


class TestGraphRoundTrip:
    def test_bit_exact_round_trip(self, tmp_path):
        _, _, omega = three_block_setup(n=80, n0=16)
        g = sample_adjacency(omega, 13)
        f = tmp_path / "g.edgelist"
        write_edge_list(g, f)
        back = read_edge_list(f)
        assert back.n == g.n
        assert same_graph(back, g)

    def test_large_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(4)
        pairs = rng.integers(0, 3000, size=(110_000, 2))
        g = Graph.from_edges(3001, pairs[pairs[:, 0] != pairs[:, 1]])
        assert g.edge_count() >= 100_000
        f = tmp_path / "g.edgelist"
        write_edge_list(g, f)
        back = read_edge_list(f)
        assert back.n == g.n
        for name in ("indptr", "indices"):
            a, b = getattr(back, name), getattr(g, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_writer_output_bytes(self, tmp_path):
        g = Graph.from_edges(12, np.array([[3, 1], [0, 10], [1, 0], [3, 11], [10, 2]]))
        f = tmp_path / "g.edgelist"
        write_edge_list(g, f)
        assert f.read_bytes() == b"# n=12\n0 1\n0 10\n1 3\n2 10\n3 11\n"

    def test_round_trip_keeps_trailing_isolated_node(self, tmp_path):
        g = Graph.from_edges(4, np.array([[0, 1]]))  # nodes 2, 3 isolated
        f = tmp_path / "g.edgelist"
        write_edge_list(g, f)
        assert read_edge_list(f).n == 4


#: Edges ``write_edge_blocks`` refuses for a 5-node graph, and the
#: message that names why.
BAD_PAIRS = [
    ([[0, 2], [0, 1]], "row-major"),  # unsorted within a row
    ([[1, 3], [0, 4]], "row-major"),  # unsorted rows
    ([[0, 1], [0, 1]], "row-major"),  # repeated
    ([[0, 1], [3, 2]], "row-major"),  # reversed
    ([[0, 5]], "out of range"),
    ([[-1, 2]], "out of range"),
    ([[0, 1], [2, 2]], "self-loop"),
]


class TestWriteEdgePairs:
    @pytest.mark.parametrize("pairs, message", BAD_PAIRS)
    def test_rejects_pairs_out_of_row_major_order(self, tmp_path, pairs, message):
        f = tmp_path / "g.edgelist"
        with pytest.raises(ValueError, match=message):
            write_edge_blocks(5, [np.array(pairs)], f)
        assert not f.exists()

    @pytest.mark.parametrize("pairs, message", BAD_PAIRS)
    def test_rejects_pairs_out_of_order_across_chunks(self, tmp_path, monkeypatch, pairs, message):
        # one pair per chunk, so a fault in a second pair lies between
        # chunks and is found after the first chunk was written; the
        # partial file goes, and so does the file that was there before
        monkeypatch.setattr(io_formats, "_CHUNK_ROWS", 1)
        f = tmp_path / "g.edgelist"
        f.write_bytes(b"# n=5\n0 1\n")
        with pytest.raises(ValueError, match=message):
            io_formats.write_edge_blocks(5, [np.array(pairs[:1]), np.array(pairs[1:])], f)
        assert sorted(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("rho", [0.02, 1.0])
    def test_pairs_as_drawn_write_the_bytes_of_the_graph(self, tmp_path, rho):
        # the generate recipes: rho=0.02 draws by geometric skips, rho=1
        # one uniform per pair
        argv = [
            "--quiet", "generate", "--n", "1200", "--k", "3", "--n0", "240", "--profile", "random-half",
            "--p-diag", "0.8", "--p-off", "0.1", "--rho", str(rho), "--seed", "5", "--out", str(tmp_path / "net"),
        ]
        assert run_cli(argv) == 0
        pi = planted_memberships(1200, 3, 240, "random-half", seed=5)
        omega = build_population_matrix(pi, BlockModel(diag_off_block(3, 0.8, 0.1), rho=rho))
        write_edge_blocks(1200, sample_edge_blocks(omega, 5), tmp_path / "pairs.edgelist")
        write_edge_list(sample_adjacency(omega, 5), tmp_path / "graph.edgelist")
        expected = (tmp_path / "graph.edgelist").read_bytes()
        assert (tmp_path / "pairs.edgelist").read_bytes() == expected
        assert (tmp_path / "net.edgelist").read_bytes() == expected

    @pytest.mark.parametrize(
        "n, rho, seed, blocks",
        [
            (300, 0.02, 5, "last empty"),  # skip route
            (300, 1.0, 5, "last drawn"),  # gather route
            (300, 1.0, 7, "last empty"),
            (2, 0.02, 5, "no edges"),
            (1, 1.0, 5, "none"),
        ],
    )
    def test_streamed_bytes_across_block_and_chunk_boundaries(self, tmp_path, monkeypatch, n, rho, seed, blocks):
        # blocks of one or two rows, and chunks of 7 edges that cut
        # through them: generate's stream writes the bytes of the graph
        monkeypatch.setattr(model, "SAMPLE_BLOCK", 5)
        monkeypatch.setattr(io_formats, "_CHUNK_ROWS", 7)
        argv = [
            "--quiet", "generate", "--n", str(n), "--k", "3", "--n0", str(n // 5), "--profile", "random-half",
            "--p-diag", "0.8", "--p-off", "0.1", "--rho", str(rho), "--seed", str(seed), "--out", str(tmp_path / "net"),
        ]
        assert run_cli(argv) == 0
        pi = planted_memberships(n, 3, n // 5, "random-half", seed=seed)
        omega = build_population_matrix(pi, BlockModel(diag_off_block(3, 0.8, 0.1), rho=rho))
        write_edge_list(sample_adjacency(omega, seed), tmp_path / "graph.edgelist")
        assert (tmp_path / "net.edgelist").read_bytes() == (tmp_path / "graph.edgelist").read_bytes()
        sizes = [len(block) for block in sample_edge_blocks(omega, seed)]
        shapes = {
            "last empty": len(sizes) > 100 and sizes[-1] == 0 and sum(sizes) > 7,
            "last drawn": len(sizes) > 100 and sizes[-1] > 0 and sum(sizes) > 7,
            "no edges": sizes == [0],
            "none": sizes == [],
        }
        assert shapes[blocks]


_PLAIN_ID = st.integers(0, 11).map(str)
_ODD_ID = st.sampled_from(
    ["-0", "007", "-2", "+3", "1_0", "\uff15", "\u0663", "1.0", "x", "-", "1-2",
     "9223372036854775808", "99999999999999999999", "-99999999999999999999"]
)
_SEP = st.sampled_from([" ", "\t", "  ", " \t"])
_ODD_SEP = st.sampled_from(["\xa0", "\x0b", "\x0c", "\u3000"])
_PAD = st.sampled_from(["", " ", "\t"])


@st.composite
def _edge_line(draw, plain):
    """Two plain ids, or (odd) 1-3 ids of any kind, odd separators and an
    inline comment."""
    odd = not plain and draw(st.booleans())
    count = draw(st.integers(1, 3)) if odd else 2
    ids = [draw(st.one_of(_PLAIN_ID, _ODD_ID) if odd else _PLAIN_ID) for _ in range(count)]
    line = ids[0]
    for token in ids[1:]:
        line += draw(st.one_of(_SEP, _ODD_SEP) if odd else _SEP) + token
    if odd and draw(st.booleans()):
        line += draw(st.sampled_from([" # x", "#", " #n=3"]))
    return draw(_PAD) + line + draw(_PAD)


_COMMENT_LINE = st.builds(
    lambda pad, body: pad + "#" + body,
    _PAD,
    st.sampled_from([" n=5", "n=3", " n = 7 ", " n=12", " n=0", " a note", "# n=2", " n=\u0663", "n=", " n=5 # x"]),
)
_BLANK_LINE = st.sampled_from(["", " ", "\t", " \t "])


#: Bytes that are not UTF-8: stray, truncated, a surrogate, overlong.
_NOT_UTF8 = st.sampled_from([b"\xff", b"\x80", b"\xe9", b"\xc3", b"\xed\xa0\x80", b"\xc0\xaf"])


@st.composite
def _text_files(draw, lines):
    """Bytes of a random text file whose lines come from ``lines(plain)``,
    a strategy for a list of them. Half the files are plain, with LF or
    CR LF endings; the others may also end their lines in a lone CR,
    hold bytes that are not UTF-8 in one line, and take lines that
    ``lines`` draws when not plain."""
    plain = draw(st.booleans())
    body = [line.encode("utf-8") for line in draw(lines(plain))]
    eol = draw(st.sampled_from(["\n", "\r\n"] if plain else ["\n", "\r\n", "\r"])).encode()
    if not plain and body and draw(st.booleans()):
        k = draw(st.integers(0, len(body) - 1))
        at = draw(st.integers(0, len(body[k])))
        body[k] = body[k][:at] + draw(_NOT_UTF8) + body[k][at:]
    return eol.join(body) + draw(st.sampled_from([b"", eol]))


def _edge_list_lines(plain):
    """Lines of an edge list for :func:`_text_files`: plain ones only, or
    lines that may break the grammar anywhere. Ids stay small or exceed
    int64, so no graph is large."""
    return st.lists(st.one_of(_edge_line(plain), _edge_line(plain), _COMMENT_LINE, _BLANK_LINE), max_size=10)


@st.composite
def _edge_list_files(draw):
    """Bytes of a random edge-list file and an explicit node count or None."""
    return draw(_text_files(_edge_list_lines)), draw(st.one_of(st.none(), st.none(), st.integers(0, 12)))


def _csv_lines(plain):
    """Lines of a two-column membership CSV for :func:`_text_files`, rows
    and blank lines, each well formed."""
    rows = st.sampled_from(["1,0", "0,1", "0.5,0.5", " 0.25 , 0.75 ", "1e-1,9e-1"])
    return st.lists(st.one_of(rows, _BLANK_LINE), max_size=10)


_CONFIG = {
    "base_seed": 3,
    "reps": 1,
    "methods": ["srsc"],
    "grid": {
        "n": [60], "k": [3], "n0": [12], "rho": [0.9], "tau": [0.5], "profile": ["uniform"],
        "block": [{"diag": 1.0, "off": 0.5}],
    },
}


def _config_lines(plain):
    """The lines of ``_CONFIG`` as indented JSON, for :func:`_text_files`."""
    return st.just(json.dumps(_CONFIG, indent=1).split("\n"))


_GRAMMAR_LINE = re.compile(r"[ \t]*(#[^\r]*|(-?[0-9]+)[ \t]+(-?[0-9]+))?[ \t]*")
_COUNT_COMMENT = re.compile(r"[ \t]*#[ \t]*n[ \t]*=[ \t]*([0-9]+)[ \t]*")
_INT64_MAX = 2**63 - 1


def grammar_outcome(data: bytes, n: int | None):
    """What the edge-list grammar makes of ``data``, worked out from whole
    lines by regular expressions: ``("graph", n, pairs)``, ``("line", k)``
    for a first bad line k, or ``("edge", i, j, n)`` for a first edge out
    of range."""
    lines = data.split(b"\n")
    pairs, declared = [], None
    for k, raw in enumerate(lines, start=1):
        if k < len(lines):
            raw = raw.removesuffix(b"\r")
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError:
            return "line", k
        match = _GRAMMAR_LINE.fullmatch(line)
        count = _COUNT_COMMENT.fullmatch(line)
        if not match or count and int(count[1]) > _INT64_MAX:
            return "line", k
        if match[2] is not None:
            i, j = int(match[2]), int(match[3])
            if min(i, j) < 0 or max(i, j) > _INT64_MAX or i == j:
                return "line", k
            pairs.append((i, j))
        if count:
            declared = int(count[1])
    if n is None:
        n = declared if declared is not None else 1 + max((max(p) for p in pairs), default=-1)
    for i, j in pairs:
        if max(i, j) >= n:
            return "edge", i, j, n
    return "graph", n, pairs


def text_fault(data: bytes) -> int | None:
    """The first line of ``data`` that is not UTF-8 or holds a CR not
    followed by LF, or None."""
    lines = data.split(b"\n")
    for k, raw in enumerate(lines, start=1):
        if k < len(lines):
            raw = raw.removesuffix(b"\r")
        try:
            if "\r" in raw.decode("utf-8"):
                return k
        except UnicodeDecodeError:
            return k
    return None


class TestTextFiles:
    """Membership CSVs and sweep configs are split and decoded by the
    edge-list rule: UTF-8 lines ending in LF or CR LF, a fault naming
    ``path:line``."""

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(data=_text_files(_csv_lines))
    def test_membership_csv_lines(self, tmp_path_factory, data):
        f = tmp_path_factory.getbasetemp() / "m.csv"
        f.write_bytes(data)
        fault = text_fault(data)
        if fault is not None:
            with pytest.raises(DataFormatError) as exc:
                read_matrix_csv(f)
            assert str(exc.value).startswith(f"{f}:{fault}: ")
            return
        lines = data.decode("utf-8").replace("\r\n", "\n").split("\n")
        rows = [[float(cell) for cell in line.split(",")] for line in lines if line.strip()]
        assert read_matrix_csv(f).tolist() == rows

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(data=_text_files(_config_lines))
    def test_sweep_config_lines(self, tmp_path_factory, data):
        cfg = tmp_path_factory.getbasetemp() / "sweep.json"
        cfg.write_bytes(data)
        argv = ["--quiet", "sweep", "--config", str(cfg), "--out", str(cfg.with_suffix(".csv")), "--workers", "1"]
        seen, err = [], io.StringIO()
        with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stderr(err):
            mp.setattr(cli, "run_sweep", lambda config, workers: seen.append(config) or SweepResult(rows=()))
            code = run_cli(argv)
        fault = text_fault(data)
        if fault is None:
            assert code == 0 and seen == [SweepConfig.from_dict(_CONFIG)]
        else:
            assert code == 2 and err.getvalue().startswith(f"data error: {cfg}:{fault}: ")


class TestParseRoutes:
    """``read_edge_list`` parses a file in the grammar whole; for any
    other file, the line walk only names the first bad line."""

    @pytest.mark.parametrize(
        "text, n, pairs",
        [
            ("0 1\n1 2\n", 3, [[0, 1], [1, 2]]),
            ("0 1\r\n1 2\r\n", 3, [[0, 1], [1, 2]]),
            ("# n=9\n0\t1\n\n  \n2   3", 9, [[0, 1], [2, 3]]),
            ("  # note\n0 1\n\t# n=4\n", 4, [[0, 1]]),
            ("-0 1\n007 2\n", 8, [[0, 1], [7, 2]]),
            ("# only a comment\n", 0, []),
            ("", 0, []),
        ],
    )
    def test_plain_files_take_the_fast_path(self, tmp_path, text, n, pairs):
        f = tmp_path / "g.edgelist"
        f.write_bytes(text.encode())
        got, count = io_formats._read_plain(f, f.read_bytes(), None)
        assert count == n and got.tolist() == pairs

    @pytest.mark.parametrize(
        "text",
        [
            "0 1 # x\n",
            "0 1#\n",
            "+1 2\n",
            "1_0 2\n",
            "\uff11 2\n",
            "0\xa01\n",
            "0 1\r2 3\n",
            "0 1\r",
            "0 1 2\n",
            "0\n",
            "-1 2\n",
            "2 2\n",
            "0 9223372036854775808\n",
            "# n=9223372036854775808\n",
        ],
    )
    def test_other_files_are_refused(self, tmp_path, text):
        f = tmp_path / "g.edgelist"
        f.write_bytes(text.encode())
        with pytest.raises(ValueError):
            io_formats._read_plain(f, f.read_bytes(), None)

    def test_fast_path_names_the_first_edge_out_of_range(self, tmp_path):
        f = tmp_path / "g.edgelist"
        f.write_bytes(b"# n=3\n0 1\n1 3\n4 0\n")
        with pytest.raises(DataFormatError, match=re.escape(f"{f}: edge (1, 3) exceeds node count 3")):
            io_formats._read_plain(f, f.read_bytes(), None)

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_pipe_is_parsed_from_the_bytes_read_once(self):
        # a regular file is parsed by opening it again; a pipe would then read empty
        r, w = os.pipe()
        try:
            os.write(w, b"# n=6\n0 1\n1 2\n4 2\n")
            os.close(w)
            path = Path(f"/dev/fd/{r}")
            pairs, n = io_formats._read_plain(path, path.read_bytes(), None)
        finally:
            os.close(r)
        assert n == 6 and pairs.tolist() == [[0, 1], [1, 2], [4, 2]]

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(case=_edge_list_files())
    def test_grammar_decides_the_outcome(self, tmp_path_factory, case):
        data, n = case
        f = tmp_path_factory.getbasetemp() / "grammar.edgelist"
        f.write_bytes(data)
        expected = grammar_outcome(data, n)
        if expected[0] == "graph":
            _, count, pairs = expected
            want = Graph.from_edges(count, np.array(pairs, dtype=np.int64).reshape(-1, 2))
            got = read_edge_list(f, n)
            assert got.n == count and same_graph(got, want)
            return
        with pytest.raises(DataFormatError) as exc:
            read_edge_list(f, n)
        if expected[0] == "line":
            assert str(exc.value).startswith(f"{f}:{expected[1]}: ")
        else:
            assert str(exc.value) == f"{f}: edge ({expected[1]}, {expected[2]}) exceeds node count {expected[3]}"


#: Spellings that ``int()`` and ``str.split()`` take but the edge-list
#: grammar does not, and lone CRs, each with the line it breaks.
OFF_GRAMMAR = [
    (b"+3 1\n", 1),
    (b"0 1\n1_0 2\n", 2),
    ("0 1\n\uff11 2\n".encode(), 2),
    ("\u0663 2\n".encode(), 1),
    ("0\xa01\n".encode(), 1),
    (b"0 1\n1\x0b2\n", 2),
    (b"0\x0c1\n", 1),
    ("0 1\n1\u30002\n".encode(), 2),
    (b"0 1\r1 2\r", 1),
    (b"0 1\n1 2\r", 2),
    (b"# n=99999999999999999999\n0 1\n", 1),
]

#: Edge lists the reader rejects, each with the node count passed to it.
MALFORMED_EDGE_LISTS = [
    (b"0 0\n", None),
    (b"1 1\n", None),
    (b"0 1\n2 three\n", None),
    (b"0 5\n", 3),
    (b"0 1\n1 2 # x\n", None),
    (b"0 1 # x\n", None),
    (b"0 1#\n", None),
    (b"0 1\n9223372036854775808 1\n", None),
    (b"0 1 2\n", None),
    (b"0\n", None),
    (b"-1 2\n", None),
    (b"# n=3\n0 3\n", None),
    (b"0 1\n\xff 2\n", None),
] + [(data, None) for data, _ in OFF_GRAMMAR]


def through_pipe(data: bytes, read):
    """``read(path)`` of a ``/dev/fd`` path whose pipe holds ``data``."""
    r, w = os.pipe()
    try:
        os.write(w, data)
        os.close(w)
        return read(f"/dev/fd/{r}")
    finally:
        os.close(r)


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
class TestPipedEdgeLists:
    """A pipe can be read only once; the reader must diagnose its bytes
    exactly as it diagnoses the same bytes on disk."""

    @staticmethod
    def _error(read, path, n):
        with pytest.raises(DataFormatError) as exc:
            read(path, n)
        return str(exc.value).replace(str(path), "<path>")

    @pytest.mark.parametrize("data, n", MALFORMED_EDGE_LISTS)
    def test_pipe_gets_the_error_of_the_file(self, tmp_path, data, n):
        f = tmp_path / "g.edgelist"
        f.write_bytes(data)
        on_disk = self._error(read_edge_list, f, n)
        assert through_pipe(data, lambda path: self._error(read_edge_list, path, n)) == on_disk

    @pytest.mark.parametrize("data, n", MALFORMED_EDGE_LISTS)
    def test_cli_exits_2_on_a_malformed_pipe(self, tmp_path, capsys, data, n):
        f = tmp_path / "g.edgelist"
        f.write_bytes(data)
        on_disk = self._error(read_edge_list, f, n)
        count = [] if n is None else ["--n", str(n)]
        code, path = through_pipe(data, lambda path: (run_cli(["--quiet", "stats", "--edges", path] + count), path))
        assert code == 2
        assert capsys.readouterr().err == f"data error: {on_disk.replace('<path>', path)}\n"

    @pytest.mark.parametrize("data, line", OFF_GRAMMAR)
    def test_spelling_outside_the_grammar_names_its_line(self, tmp_path, data, line):
        f = tmp_path / "g.edgelist"
        f.write_bytes(data)
        assert self._error(read_edge_list, f, None).startswith(f"<path>:{line}: ")

    def test_well_formed_pipe_reads_like_the_file(self, tmp_path):
        data = b"# n=7\n0 1\n  # note\n4 2\r\n1 2\n"
        f = tmp_path / "g.edgelist"
        f.write_bytes(data)
        piped = through_pipe(data, read_edge_list)
        assert piped.n == 7 and same_graph(piped, read_edge_list(f))


class TestMatrixCsv:
    def test_write_read_bit_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((7, 4)) * np.exp(rng.standard_normal((7, 4)) * 5)
        m[0, 0] = 1.0 / 3.0
        f = tmp_path / "m.csv"
        write_matrix_csv(m, f)
        back = read_matrix_csv(f)
        assert np.array_equal(back, m)

    def test_empty_matrix_round_trip(self, tmp_path):
        f = tmp_path / "m.csv"
        write_matrix_csv(np.empty((0, 0)), f)
        assert f.read_text() == ""
        back = read_matrix_csv(f)
        assert back.shape == (0, 0)

    def test_rejects_non_finite(self, tmp_path):
        with pytest.raises(ValueError, match="non-finite"):
            write_matrix_csv(np.array([[np.inf]]), tmp_path / "m.csv")

    def test_ragged_rows_rejected(self, tmp_path):
        f = tmp_path / "m.csv"
        f.write_text("1,2\n3\n")
        with pytest.raises(DataFormatError, match="columns"):
            read_matrix_csv(f)

    @pytest.mark.parametrize(
        "text, rows",
        [
            ("1_0,2\n", [[10.0, 2.0]]),
            ("1,2\n \t \n3,4\n", [[1.0, 2.0], [3.0, 4.0]]),
            ("\u0661,0.5\n", [[1.0, 0.5]]),
            ("\n\r\n", []),
        ],
    )
    def test_spellings_numpy_refuses_read_as_float_reads_them(self, tmp_path, text, rows):
        # the whole-file parse refuses these; the line walk reads them
        f = tmp_path / "m.csv"
        f.write_bytes(text.encode("utf-8"))
        back = read_matrix_csv(f)
        assert back.tolist() == rows and back.shape == ((0, 0) if not rows else (len(rows), 2))

    @pytest.mark.parametrize("byte", ["\x1c", "\x1d", "\x1e", "\x1f"])
    def test_bytes_numpy_strips_and_float_refuses_stay_an_error(self, tmp_path, byte):
        f = tmp_path / "m.csv"
        f.write_bytes(f"0.5,0.5\n1,{byte}0\n".encode())
        with pytest.raises(DataFormatError, match=re.escape(f"{f}:2: non-numeric cell")):
            read_matrix_csv(f)

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    @pytest.mark.parametrize("data", [b"0.5,0.5\r\n1,0\n", b"1_0,2\n", b"1,2\n3\n"])
    def test_pipe_reads_as_the_file_does(self, tmp_path, data):
        f = tmp_path / "m.csv"
        f.write_bytes(data)

        def outcome(path):
            try:
                return read_matrix_csv(path).tolist()
            except DataFormatError as exc:
                return str(exc).replace(str(path), "<path>")

        assert through_pipe(data, outcome) == outcome(f)

    def test_lf_line_endings(self, tmp_path):
        f = tmp_path / "m.csv"
        write_matrix_csv(np.eye(2), f)
        assert b"\r" not in f.read_bytes()


def f_string_edge_list(graph: Graph) -> bytes:
    """Reference edge-list bytes: one f-string per edge, joined."""
    lines = [f"# n={graph.n}"]
    lines += [f"{i} {j}" for i, j in graph.edges().tolist()]
    return ("\n".join(lines) + "\n").encode("utf-8")


def format_loop_csv(m: np.ndarray) -> bytes:
    """Reference CSV bytes: ``format(v, ".17g")`` per cell, joined."""
    lines = [",".join(format(v, ".17g") for v in row) for row in m]
    text = "\n".join(lines)
    if lines:
        text += "\n"
    return text.encode("utf-8")


_SPECIAL_FLOATS = [
    sign * v
    for v in (0.0, 5e-324, 2.2250738585072014e-308, 1e-300, 1e300, 1.7976931348623157e308,
              1.0 / 3.0, 0.1, 2.5, 1.0, 1.0000000000000002, 123456789012345678.0, 1e16, 1e-5)
    for sign in (1.0, -1.0)
]


class TestBulkWriters:
    """The writers emit a chunk of rows at a time, the edge list from ids
    formatted once, the CSV with one ``%`` per chunk; their bytes must
    equal the per-edge and per-cell loops they replaced."""

    @pytest.fixture
    def small_chunks(self, monkeypatch):
        monkeypatch.setattr(io_formats, "_CHUNK_ROWS", 7)

    @pytest.mark.parametrize(
        "n, pairs",
        [
            (0, []),
            (1, []),
            (5, []),
            (12, [[0, 1]]),
            (9, [[3, 1], [0, 8], [1, 0], [2, 3], [4, 5], [5, 6], [6, 7]]),
            (30, [[i, i + 1] for i in range(14)]),
        ],
    )
    def test_edge_list_bytes_match_f_string_join(self, tmp_path, small_chunks, n, pairs):
        g = Graph.from_edges(n, np.array(pairs, dtype=np.int64).reshape(-1, 2))
        f = tmp_path / "g.edgelist"
        write_edge_list(g, f)
        assert f.read_bytes() == f_string_edge_list(g)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(n=st.integers(2, 40), seed=st.integers(0, 2**32 - 1), density=st.floats(0.0, 1.0))
    def test_random_edge_list_bytes_match_f_string_join(self, tmp_path_factory, n, seed, density):
        rng = np.random.default_rng(seed)
        pairs = rng.integers(0, n, size=(int(density * n * n), 2))
        g = Graph.from_edges(n, pairs[pairs[:, 0] != pairs[:, 1]])
        f = tmp_path_factory.getbasetemp() / "bulk.edgelist"
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(io_formats, "_CHUNK_ROWS", 7)
            write_edge_list(g, f)
        assert f.read_bytes() == f_string_edge_list(g)

    @pytest.mark.parametrize("n", [10, 11, 1_000_001, 2_345_678])
    @pytest.mark.parametrize("chunk", [1, 7, 1 << 14])
    def test_edge_list_bytes_for_every_id_width(self, tmp_path, monkeypatch, n, chunk):
        # ids of 1 .. 7 digits, each width's first and last, and n - 1
        monkeypatch.setattr(io_formats, "_CHUNK_ROWS", chunk)
        ids = sorted({v for w in range(7) for v in (10**w - 1, 10**w, 10**w + 1) if v < n} | {n - 1})
        pairs = [(a, b) for a, b in zip(ids, ids[1:])] + [(0, n - 1), (ids[len(ids) // 2], n - 1)]
        g = Graph.from_edges(n, np.array(pairs, dtype=np.int64))
        f = tmp_path / "g.edgelist"
        write_edge_list(g, f)
        assert f.read_bytes() == f_string_edge_list(g)

    @pytest.mark.parametrize("chunk", [1, 5, 1 << 14])
    def test_edge_list_bytes_for_sparse_ids_over_large_n(self, tmp_path, monkeypatch, chunk):
        monkeypatch.setattr(io_formats, "_CHUNK_ROWS", chunk)
        rng = np.random.default_rng(11)
        n = 3_000_017
        ids = rng.choice(n, size=40, replace=False)
        pairs = rng.choice(ids, size=(90, 2))
        g = Graph.from_edges(n, pairs[pairs[:, 0] != pairs[:, 1]])
        f = tmp_path / "g.edgelist"
        write_edge_list(g, f)
        assert f.read_bytes() == f_string_edge_list(g)
        assert same_graph(read_edge_list(f), g)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(data=st.data())
    def test_pair_bytes_match_f_strings_for_mixed_id_widths(self, tmp_path_factory, data):
        # strictly row-major pairs written directly; small and large ids
        # mix digit widths inside one chunk
        n = data.draw(st.integers(1, 2_000_000))
        top = n - 1
        ids = st.one_of(st.integers(0, min(top, 9)), st.integers(0, min(top, 999)), st.integers(0, top))
        drawn = data.draw(st.lists(st.tuples(ids, ids), max_size=50))
        pairs = np.unique(np.sort(np.array(drawn, dtype=np.int64).reshape(-1, 2), axis=1), axis=0)
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        f = tmp_path_factory.getbasetemp() / "pairs.edgelist"
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(io_formats, "_CHUNK_ROWS", data.draw(st.integers(1, 20)))
            write_edge_blocks(n, [pairs], f)
        assert f.read_bytes() == f"# n={n}\n".encode() + "".join(f"{i} {j}\n" for i, j in pairs.tolist()).encode()

    @pytest.mark.parametrize("rows", [13, 14, 15, 27, 28, 29])
    def test_edge_list_bytes_at_chunk_boundaries(self, tmp_path, monkeypatch, rows):
        # a path of `rows` edges around multiples of a 14-row chunk
        monkeypatch.setattr(io_formats, "_CHUNK_ROWS", 14)
        g = Graph.from_edges(rows + 3, np.array([[i, i + 1] for i in range(rows)], dtype=np.int64))
        f = tmp_path / "g.edgelist"
        write_edge_list(g, f)
        assert f.read_bytes() == f_string_edge_list(g)

    @pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0), (1, 1), (6, 3), (7, 2), (8, 4), (15, 5), (22, 1)])
    def test_csv_bytes_match_format_loop(self, tmp_path, small_chunks, shape):
        rng = np.random.default_rng(shape[0] * 31 + shape[1])
        m = rng.standard_normal(shape) * np.exp(rng.standard_normal(shape) * 20)
        flat = m.reshape(-1)
        flat[: len(_SPECIAL_FLOATS)] = _SPECIAL_FLOATS[: flat.size]
        f = tmp_path / "m.csv"
        write_matrix_csv(m, f)
        assert f.read_bytes() == format_loop_csv(m)
        if m.size:
            assert np.array_equal(read_matrix_csv(f), m)

    @pytest.mark.parametrize("shape", [(3,), (2, 2, 2), ()])
    def test_csv_rejects_other_ranks_before_opening(self, tmp_path, shape):
        f = tmp_path / "m.csv"
        with pytest.raises(ValueError, match=re.escape(f"shape {shape}")):
            write_matrix_csv(np.zeros(shape), f)
        assert not f.exists()

    def test_csv_rejects_non_finite_before_opening(self, tmp_path):
        f = tmp_path / "m.csv"
        with pytest.raises(ValueError, match="non-finite"):
            write_matrix_csv(np.array([[0.5, np.nan]]), f)
        assert not f.exists()


@contextlib.contextmanager
def second_write_fails():
    """Every file opened for writing keeps its first write, flushed to
    disk, and raises ``ENOSPC`` on the next; the writers' chunks are 4
    rows."""
    opened = Path.open

    def open_failing(path, *args, **kwargs):
        handle = opened(path, *args, **kwargs)
        write, done = handle.write, []

        def write_once(data):
            if done:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            done.append(write(data))
            handle.flush()
            return done[0]

        handle.write = write_once
        return handle

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(io_formats, "_CHUNK_ROWS", 4)
        mp.setattr(Path, "open", open_failing)
        yield


#: Each writer, on a file that takes several writes.
WRITERS = {
    "edge-list": lambda path: write_edge_blocks(40, [np.array([[i, i + 1]]) for i in range(39)], path),
    "csv": lambda path: write_matrix_csv(np.eye(40), path),
}


class TestFailedWrites:
    """Both writers follow one rule when a write raises: a regular file at
    the path is removed, with what was there before; a link is left be."""

    @pytest.mark.parametrize("writer", WRITERS.values(), ids=WRITERS)
    def test_partial_file_is_removed(self, tmp_path, writer):
        f = tmp_path / "out"
        f.write_bytes(b"a file that was there before\n")
        with second_write_fails(), pytest.raises(OSError, match=os.strerror(errno.ENOSPC)):
            writer(f)
        assert sorted(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("writer", WRITERS.values(), ids=WRITERS)
    def test_link_is_left_be(self, tmp_path, writer):
        target, link = tmp_path / "target", tmp_path / "link"
        link.symlink_to(target)
        with second_write_fails(), pytest.raises(OSError, match=os.strerror(errno.ENOSPC)):
            writer(link)
        assert link.is_symlink() and target.stat().st_size > 0


@contextlib.contextmanager
def write_fails_midway(suffix):
    """A file opened for writing whose name ends in ``suffix`` takes the
    first half of a write, flushed to disk, and then raises ``ENOSPC``."""
    opened = Path.open

    def open_failing(path, mode="r", *args, **kwargs):
        handle = opened(path, mode, *args, **kwargs)
        if "w" in mode and path.name.endswith(suffix):
            write = handle.write

            def write_half(data):
                write(data[: len(data) // 2])
                handle.flush()
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

            handle.write = write_half
        return handle

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Path, "open", open_failing)
        yield


class TestFailedTextWrites:
    """The summary and the sweep table follow the writers' rule: a write
    that raises mid-file leaves no file."""

    def test_text_writer_removes_its_partial_file(self, tmp_path):
        f = tmp_path / "out.txt"
        with write_fails_midway(".txt"), pytest.raises(OSError, match=os.strerror(errno.ENOSPC)):
            io_formats.write_text("line\n" * 40, f)
        assert sorted(tmp_path.iterdir()) == []

    def test_cluster_summary(self, tmp_path):
        assert run_cli(["--quiet"] + generate_args(tmp_path / "net")) == 0
        argv = ["--quiet", "cluster", "--edges", str(tmp_path / "net.edgelist"), "--k", "3", "--method", "srsc"]
        with write_fails_midway("summary.json"):
            assert run_cli(argv + ["--out", str(tmp_path / "run")]) == cli.EXIT_DATA
        assert (tmp_path / "run.srsc.pihat.csv").exists()
        assert not (tmp_path / "run.srsc.summary.json").exists()

    def test_sweep_table(self, tmp_path):
        config, out = tmp_path / "sweep.json", tmp_path / "table.csv"
        config.write_text(json.dumps(TINY_SWEEP))
        with write_fails_midway("table.csv"):
            code = run_cli(["--quiet", "sweep", "--config", str(config), "--out", str(out), "--workers", "1"])
        assert code == cli.EXIT_DATA
        assert not out.exists()


class TestMemberships:
    def test_normalize_multi_label_row(self, tmp_path):
        f = tmp_path / "pi.csv"
        f.write_text("1,0,1\n1,0,0\n")
        pi = read_memberships(f, normalize=True)
        assert np.allclose(pi.weights[0], [0.5, 0, 0.5])
        assert np.allclose(pi.weights[1], [1, 0, 0])

    def test_zero_row_with_normalize_is_error(self, tmp_path):
        f = tmp_path / "pi.csv"
        f.write_text("0,0,0\n")
        with pytest.raises(DataFormatError, match="zero"):
            read_memberships(f, normalize=True)

    def test_file_of_blank_lines_is_empty(self, tmp_path):
        f = tmp_path / "pi.csv"
        f.write_text("\n\n\n")
        with pytest.raises(DataFormatError, match="membership file is empty"):
            read_memberships(f)

    def test_negative_entry_rejected(self, tmp_path):
        f = tmp_path / "pi.csv"
        f.write_text("1.5,-0.5\n")
        with pytest.raises(DataFormatError, match="negative"):
            read_memberships(f)

    def test_unnormalized_rows_must_be_stochastic(self, tmp_path):
        f = tmp_path / "pi.csv"
        f.write_text("1,1\n")
        with pytest.raises(DataFormatError, match="sum to 1"):
            read_memberships(f)

    def test_membership_round_trip(self, tmp_path):
        pi, _, _ = three_block_setup(n=40, n0=8, profile="random-half", seed=5)
        f = tmp_path / "pi.csv"
        write_memberships(pi, f)
        back = read_memberships(f)
        assert np.array_equal(back.weights, pi.weights)
