"""Zachary's karate club (J. Anthropol. Res. 33:452, 1977): 34 members,
78 ties, and the two factions the club split into.

The fixtures under ``tests/data`` were written once from networkx, which
is not a dependency of the package or of this test:

    import networkx as nx
    import numpy as np
    from mmsbkit import Graph, MembershipMatrix, write_edge_list, write_memberships

    g = nx.karate_club_graph()
    write_edge_list(Graph.from_edges(34, np.array(g.edges())), "tests/data/karate.edgelist")
    faction = [int(g.nodes[i]["club"] == "Officer") for i in range(34)]
    write_memberships(MembershipMatrix(np.eye(2)[faction]), "tests/data/karate.factions.csv")
"""

from pathlib import Path

import numpy as np

from mmsbkit import mixed_hamming_error, read_edge_list, read_memberships
from mmsbkit.cli import run_cli

DATA = Path(__file__).parent / "data"


def test_cluster_splits_the_club_into_its_factions(tmp_path):
    # misassigned members at the default tau = 0.1 * ln(34); node 11 has
    # degree 1, and every method still runs
    methods = ["srsc", "crsc", "srsc-eq", "crsc-eq"]
    argv = ["--quiet", "cluster", "--edges", str(DATA / "karate.edgelist"), "--k", "2", "--out", str(tmp_path / "karate")]
    assert run_cli(argv + [arg for m in methods for arg in ("--method", m)]) == 0
    truth = read_memberships(DATA / "karate.factions.csv")
    faction = truth.weights.argmax(axis=1)
    estimates = {m: read_memberships(tmp_path / f"karate.{m}.pihat.csv") for m in methods}
    misassigned = {}
    for method, estimate in estimates.items():
        aligned = estimate.weights[:, list(mixed_hamming_error(estimate, truth).permutation)]
        misassigned[method] = int((aligned.argmax(axis=1) != faction).sum())
    assert misassigned == {"srsc": 2, "crsc": 1, "srsc-eq": 2, "crsc-eq": 1}
    for plain in ("srsc", "crsc"):
        assert np.abs(estimates[plain].weights - estimates[f"{plain}-eq"].weights).max() <= 1e-10


def test_fixtures_hold_the_club():
    graph = read_edge_list(DATA / "karate.edgelist")
    assert (graph.n, graph.edge_count()) == (34, 78)
    assert graph.degrees()[11] == 1
    truth = read_memberships(DATA / "karate.factions.csv")
    assert np.array_equal(truth.weights.sum(axis=0), [17.0, 17.0])
