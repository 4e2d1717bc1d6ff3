"""The independent checker accepts good outputs and rejects corrupted ones.

The good outputs are built here with networkx alone, so the checker is
never judged against the program it checks.
"""

import os
import sys

import networkx as nx
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checker  # noqa: E402


def greedy_mis_of_power(graph: nx.Graph, k: int) -> set:
    """A maximal independent set of ``G^k``, by scanning nodes in order."""
    chosen: set = set()
    blocked: set = set()
    for node in sorted(graph.nodes()):
        if node in blocked:
            continue
        chosen.add(node)
        blocked |= set(nx.single_source_shortest_path_length(graph, node,
                                                             cutoff=k))
    return chosen


@pytest.fixture(scope="module")
def dense():
    return nx.random_regular_graph(30, 200, seed=3)


@pytest.fixture(scope="module")
def sparse():
    return nx.random_regular_graph(8, 300, seed=5)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_mis_of_power_accepted(sparse, k):
    assert checker.check_mis_power(sparse, greedy_mis_of_power(sparse, k),
                                   k) == []


@pytest.mark.parametrize("k", [1, 2])
def test_mis_with_a_member_dropped_is_rejected(sparse, k):
    members = greedy_mis_of_power(sparse, k)
    members.discard(min(members))
    assert checker.check_mis_power(sparse, members, k)


@pytest.mark.parametrize("k", [1, 2])
def test_mis_with_an_adjacent_node_added_is_rejected(sparse, k):
    members = greedy_mis_of_power(sparse, k)
    member = min(members)
    members.add(next(iter(sparse.adj[member])))
    assert checker.check_mis_power(sparse, members, k)


def test_ruling_set_bounds():
    path = nx.path_graph(30)
    members = set(range(0, 30, 5))          # pairwise 5 apart, cover <= 2
    assert checker.check_power_ruling(path, members, 2) == []
    assert checker.check_power_ruling(path, members - {10}, 2)
    assert checker.check_power_ruling(path, members | {11}, 2)
    assert checker.check_power_ruling(path, members | {"stranger"}, 2)


def test_min_pairwise_distance_is_exact(sparse):
    members = sorted(greedy_mis_of_power(sparse, 2))[:12]
    expected = min(nx.shortest_path_length(sparse, u, v)
                   for i, u in enumerate(members) for v in members[i + 1:])
    assert checker.min_pairwise_distance(sparse, members) == expected


def test_sparsification_accepts_a_sparse_dominating_set(dense):
    q = greedy_mis_of_power(dense, 2)
    assert checker.check_sparsification(dense, q, 2) == []


def test_sparsification_rejects_q_equal_v_on_the_dense_cell(dense):
    everything = set(dense.nodes())
    assert checker.check_sparsification(dense, everything, 2,
                                        must_sample=True)
    # At n = 200 the bound 72 ln n exceeds n - 1: it cannot see Q = V.
    assert checker.check_sparsification(dense, everything, 2) == []


def test_sparsification_degree_bound_rejects_q_equal_v_when_n_is_large():
    graph = nx.random_regular_graph(40, 600, seed=7)
    problems = checker.check_sparsification(graph, set(graph.nodes()), 2)
    assert any("72 ln n" in problem for problem in problems)


def test_sparsification_rejects_far_nodes_and_foreign_members():
    path = nx.path_graph(40)
    assert checker.check_sparsification(path, {0}, 2)
    assert checker.check_sparsification(path, set(range(0, 40, 6)), 2) == []
    assert checker.check_sparsification(path, set(range(0, 40, 6)) | {99}, 2)


def test_served_report_decodes_tuple_labels():
    grid = nx.grid_2d_graph(4, 4)
    members = greedy_mis_of_power(grid, 2)
    report = {"output": [{"t": list(node)} for node in members]}
    assert checker.check_served_report(grid, report, "power-mis", 2) == []
    report["output"].pop()
    assert checker.check_served_report(grid, report, "power-mis", 2)
