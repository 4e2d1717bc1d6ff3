"""Output checks computed apart from the program.

Every check here is a breadth-first search over the networkx adjacency
(``graph.adj``).  Nothing is imported from ``repro``: the certifiers,
verifiers and ``G^k`` helpers of the program under test must not be the
judges of their own output.

Each ``check_*`` function returns a list of human-readable problems; an
empty list means the output passed.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Any, Hashable, Iterable, Mapping

import networkx as nx

Node = Hashable
INF = math.inf


def _multi_source_bfs(graph: nx.Graph, sources: Iterable[Node],
                      ) -> tuple[dict[Node, int], dict[Node, Node]]:
    """Distance to, and identity of, the nearest source of every node."""
    adj = graph.adj
    dist: dict[Node, int] = {}
    owner: dict[Node, Node] = {}
    frontier: deque = deque()
    for source in sources:
        dist[source] = 0
        owner[source] = source
        frontier.append(source)
    while frontier:
        node = frontier.popleft()
        step = dist[node] + 1
        mine = owner[node]
        for neighbor in adj[node]:
            if neighbor not in dist:
                dist[neighbor] = step
                owner[neighbor] = mine
                frontier.append(neighbor)
    return dist, owner


def _ball(graph: nx.Graph, source: Node, radius: int) -> dict[Node, int]:
    adj = graph.adj
    dist = {source: 0}
    frontier = deque([source])
    while frontier:
        node = frontier.popleft()
        if dist[node] == radius:
            continue
        for neighbor in adj[node]:
            if neighbor not in dist:
                dist[neighbor] = dist[node] + 1
                frontier.append(neighbor)
    return dist


def min_pairwise_distance(graph: nx.Graph, members: Iterable[Node]) -> float:
    """The smallest ``dist_G(u, v)`` over distinct members (inf if < 2).

    One multi-source BFS: the closest pair's shortest path crosses an edge
    whose endpoints have different nearest members, and every such edge
    closes a walk between two distinct members, so the minimum over those
    edges is exact.
    """
    dist, owner = _multi_source_bfs(graph, members)
    best = INF
    for u, v in graph.edges():
        if u in owner and v in owner and owner[u] != owner[v]:
            best = min(best, dist[u] + dist[v] + 1)
    return best


def domination_radius(graph: nx.Graph, members: Iterable[Node]) -> float:
    """``max_v dist_G(v, members)``; inf when some node is unreachable."""
    dist, _ = _multi_source_bfs(graph, members)
    if len(dist) < graph.number_of_nodes():
        return INF
    return max(dist.values(), default=0)


def _foreign(graph: nx.Graph, members: set) -> list[str]:
    outside = [node for node in members if node not in graph]
    return [f"{len(outside)} members are not nodes of the graph"] if outside \
        else []


def check_ruling_set(graph: nx.Graph, members: Iterable[Node], *,
                     alpha: int, beta: int) -> list[str]:
    """An ``(alpha, beta)``-ruling set: pairwise >= alpha, covering <= beta."""
    members = set(members)
    problems = _foreign(graph, members)
    if problems:
        return problems
    if not members and graph.number_of_nodes():
        return ["empty output on a non-empty graph"]
    closest = min_pairwise_distance(graph, members)
    if closest < alpha:
        problems.append(f"two members at distance {closest} < {alpha}")
    radius = domination_radius(graph, members)
    if radius > beta:
        problems.append(f"a node at distance {radius} > {beta} from the set")
    return problems


def check_mis_power(graph: nx.Graph, members: Iterable[Node],
                    k: int) -> list[str]:
    """An MIS of ``G^k``: independence >= k+1 and domination <= k."""
    return check_ruling_set(graph, members, alpha=k + 1, beta=k)


def check_power_ruling(graph: nx.Graph, members: Iterable[Node],
                       k: int) -> list[str]:
    """Theorem 1.1's ``(k+1, k^2)``-ruling set."""
    return check_ruling_set(graph, members, alpha=k + 1, beta=k * k)


def degree_bound(n: int) -> float:
    """Lemma 3.1's ``72 log n`` (natural logarithm, at least 1)."""
    return 72 * max(1.0, math.log(max(2, n)))


def max_power_degree(graph: nx.Graph, q: set, k: int) -> int:
    """``max_v |N^k(v) ∩ Q|`` with ``N^k(v)`` excluding ``v`` itself."""
    counts: dict[Node, int] = {}
    for member in q:
        for node in _ball(graph, member, k):
            if node != member:
                counts[node] = counts.get(node, 0) + 1
    return max(counts.values(), default=0)


def check_sparsification(graph: nx.Graph, q: Iterable[Node], k: int, *,
                         must_sample: bool = False) -> list[str]:
    """Lemma 3.1 from ``Q_0 = V``: Q ⊆ V, d_k(v, Q) <= 72 log n and
    dist(v, Q) <= k^2 + k for every node.

    ``must_sample`` marks a cell whose ``Delta^k`` is far above
    ``72 log n``, where a sparsification that keeps ``Q = V`` did nothing.
    The degree bound alone cannot show that when ``n - 1 <= 72 log n``
    (below about 500 nodes), so it is checked on its own.
    """
    q = set(q)
    problems = _foreign(graph, q)
    if problems:
        return problems
    n = graph.number_of_nodes()
    if n and not q:
        return ["empty Q on a non-empty graph"]
    if must_sample and len(q) == n:
        problems.append("Q = V on a cell whose stages must sample")
    bound = degree_bound(n)
    degree = max_power_degree(graph, q, k)
    if degree > bound:
        problems.append(f"d_{k}(v, Q) = {degree} > 72 ln n = {bound:.1f}")
    radius = domination_radius(graph, q)
    if radius > k * k + k:
        problems.append(f"dist(v, Q) = {radius} > k^2 + k = {k * k + k}")
    return problems


def decode_node(value: Any) -> Node:
    """The report encoding of a node label: scalars, or ``{"t": [...]}``."""
    if isinstance(value, dict):
        return tuple(decode_node(part) for part in value["t"])
    return value


def check_served_report(graph: nx.Graph, report: Mapping[str, Any],
                        algorithm: str, k: int) -> list[str]:
    """Check a served report's output for the algorithms serving uses."""
    members = {decode_node(value) for value in report["output"]}
    if algorithm == "det-power-ruling":
        return check_power_ruling(graph, members, k)
    return check_mis_power(graph, members, k)
