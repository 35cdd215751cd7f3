import numpy as np
import pytest

from mmsbkit import (
    DataFormatError,
    Graph,
    read_edge_list,
    read_matrix_csv,
    read_memberships,
    sample_adjacency,
    write_edge_list,
    write_matrix_csv,
    write_memberships,
)
from conftest import three_block_setup


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
        assert (back.adjacency != g.adjacency).nnz == 0

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

    def test_lf_line_endings(self, tmp_path):
        f = tmp_path / "m.csv"
        write_matrix_csv(np.eye(2), f)
        assert b"\r" not in f.read_bytes()


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
