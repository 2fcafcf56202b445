"""Steiner tree solving on the join multigraph.

:func:`steiner_tree` implements the Kou-Markowsky-Berman (KMB, 1981)
approximation the paper cites:

1. build the metric closure over the terminal set (Dijkstra from each
   terminal),
2. take a minimum spanning tree of the closure,
3. expand closure edges back into shortest paths,
4. take an MST of the induced subgraph and prune non-terminal leaves.

:func:`top_k_steiner_trees` enumerates alternative trees by banning, in
turn, each edge of every discovered tree and re-solving — a standard
partitioning scheme.  It is exhaustive enough for Templar's purposes
(ranked join path lists over schema graphs with tens of vertices); it is
not a provably exact k-best enumeration, which the paper does not require
either.

Both solve on a :class:`~repro.schema_graph.graph.CompiledJoinGraph`:
the weights are evaluated once per compilation instead of once per
relaxation.  A plain :class:`JoinGraph` is compiled on the way in.  The
trees and costs are exactly those of the pre-compilation solver, which
:mod:`repro.fuzz.reference_joins` keeps as a differential oracle.
"""

from __future__ import annotations

import heapq
from typing import Iterable

from repro.errors import GraphError
from repro.schema_graph.graph import (
    CompiledJoinGraph,
    JoinEdge,
    JoinGraph,
    JoinTree,
    WeightFn,
    unit_weight,
    validate_terminals,
)

#: Tolerance for float weight accumulation.
_EPS = 1e-12

#: Cost slack within which two trees tie (the serving front ends' rule).
TIE_TOLERANCE = 1e-9

_INF = float("inf")


def _compiled(
    graph: JoinGraph | CompiledJoinGraph, weight_fn: WeightFn
) -> CompiledJoinGraph:
    if isinstance(graph, CompiledJoinGraph):
        return graph
    return CompiledJoinGraph(graph, weight_fn)


def _dijkstra(
    graph: CompiledJoinGraph,
    source: int,
    terminals: set[int],
    banned: frozenset[int],
) -> tuple[list[float], list[int]]:
    """Shortest paths from ``source`` until every terminal is settled.

    Returns (distance, predecessor edge id) indexed by instance.  A
    settled vertex's distance and predecessor never change afterwards,
    so stopping early leaves every terminal's entries as a full run
    would; unreached vertices keep distance infinity.
    """
    distance = [_INF] * len(graph.names)
    predecessor = [-1] * len(graph.names)
    settled = bytearray(len(graph.names))
    adjacency = graph.adjacency
    distance[source] = 0.0
    heap: list[tuple[float, int]] = [(0.0, source)]
    remaining = len(terminals)
    while heap:
        dist, node = heapq.heappop(heap)
        if settled[node]:
            continue
        settled[node] = 1
        if node in terminals:
            remaining -= 1
            if not remaining:
                break
        for weight, other, edge_id in adjacency[node]:
            if edge_id in banned:
                continue
            candidate = dist + weight
            if candidate < distance[other] - _EPS:
                distance[other] = candidate
                predecessor[other] = edge_id
                heapq.heappush(heap, (candidate, other))
    return distance, predecessor


def _path_edges(
    graph: CompiledJoinGraph, predecessor: list[int], source: int, target: int
) -> list[JoinEdge]:
    """Reconstruct the edge list of the shortest path source → target."""
    edges: list[JoinEdge] = []
    node = target
    while node != source:
        edge_id = predecessor[node]
        if edge_id < 0:
            raise GraphError(f"no path to {graph.names[target]!r}")
        edges.append(graph.edges[edge_id])
        start, end = graph.endpoints[edge_id]
        node = end if node == start else start
    edges.reverse()
    return edges


def steiner_tree(
    graph: JoinGraph | CompiledJoinGraph,
    terminals: Iterable[str],
    weight_fn: WeightFn = unit_weight,
    banned: frozenset[JoinEdge] = frozenset(),
) -> JoinTree | None:
    """KMB Steiner tree spanning ``terminals``; None if disconnected.

    A single terminal yields a zero-edge tree (the bare relation).  A
    compiled graph carries its own weights and ignores ``weight_fn``.
    """
    compiled = _compiled(graph, weight_fn)
    terminal_list = validate_terminals(compiled.graph, terminals)
    unique_terminals = list(dict.fromkeys(terminal_list))
    if len(unique_terminals) == 1:
        only = unique_terminals[0]
        return JoinTree(
            vertices=frozenset([only]),
            edges=frozenset(),
            terminals=frozenset(unique_terminals),
            cost=0.0,
        )

    # 1. Metric closure over terminals.
    index = compiled.index
    edge_ids = compiled.edge_ids
    banned_ids = frozenset(edge_ids[edge] for edge in banned if edge in edge_ids)
    targets = {index[terminal] for terminal in unique_terminals}
    shortest: dict[str, tuple[list[float], list[int]]] = {}
    for terminal in unique_terminals:
        shortest[terminal] = _dijkstra(
            compiled, index[terminal], targets, banned_ids
        )

    # 2. MST of the closure (Prim over terminals).  ``in_tree`` stays a
    # set of names: its iteration order breaks equal-distance ties.
    in_tree = {unique_terminals[0]}
    closure_edges: list[tuple[str, str]] = []
    while len(in_tree) < len(unique_terminals):
        best: tuple[float, str, str] | None = None
        for inside in in_tree:
            distances = shortest[inside][0]
            for outside in unique_terminals:
                if outside in in_tree:
                    continue
                dist = distances[index[outside]]
                if dist == _INF:
                    continue
                if best is None or dist < best[0] - _EPS:
                    best = (dist, inside, outside)
        if best is None:
            return None  # terminals not all connected
        _, inside, outside = best
        closure_edges.append((inside, outside))
        in_tree.add(outside)

    # 3. Expand closure edges into concrete edge paths.
    selected_edges: set[JoinEdge] = set()
    for inside, outside in closure_edges:
        _, predecessor = shortest[inside]
        selected_edges.update(
            _path_edges(compiled, predecessor, index[inside], index[outside])
        )

    # 4. MST of the induced subgraph, then prune non-terminal leaves.
    tree_edges = _mst_of_edges(compiled, selected_edges)
    tree_edges = _prune_leaves(tree_edges, set(unique_terminals))

    vertices: set[str] = set(unique_terminals)
    for edge in tree_edges:
        vertices.add(edge.source)
        vertices.add(edge.target)
    cost = sum(compiled.weight(edge) for edge in tree_edges)
    return JoinTree(
        vertices=frozenset(vertices),
        edges=frozenset(tree_edges),
        terminals=frozenset(unique_terminals),
        cost=cost,
    )


def _mst_of_edges(graph: CompiledJoinGraph, edges: set[JoinEdge]) -> set[JoinEdge]:
    """Kruskal MST restricted to ``edges`` (the induced subgraph)."""
    parent: dict[str, str] = {}

    def find(node: str) -> str:
        parent.setdefault(node, node)
        while parent[node] != node:
            parent[node] = parent[parent[node]]
            node = parent[node]
        return node

    def union(a: str, b: str) -> bool:
        ra, rb = find(a), find(b)
        if ra == rb:
            return False
        parent[ra] = rb
        return True

    ordered = sorted(
        edges,
        key=lambda e: (
            graph.weight(e),
            e.source,
            e.source_column,
            e.target,
            e.target_column,
        ),
    )
    mst: set[JoinEdge] = set()
    for edge in ordered:
        if union(edge.source, edge.target):
            mst.add(edge)
    return mst


def _prune_leaves(edges: set[JoinEdge], terminals: set[str]) -> set[JoinEdge]:
    """Iteratively remove non-terminal leaf vertices."""
    edges = set(edges)
    changed = True
    while changed:
        changed = False
        degree: dict[str, int] = {}
        for edge in edges:
            degree[edge.source] = degree.get(edge.source, 0) + 1
            degree[edge.target] = degree.get(edge.target, 0) + 1
        for edge in list(edges):
            for endpoint in (edge.source, edge.target):
                if degree.get(endpoint, 0) == 1 and endpoint not in terminals:
                    edges.discard(edge)
                    changed = True
                    break
    return edges


def top_k_steiner_trees(
    graph: JoinGraph | CompiledJoinGraph,
    terminals: Iterable[str],
    k: int,
    weight_fn: WeightFn = unit_weight,
    *,
    ties_only: bool = False,
) -> list[JoinTree]:
    """Up to ``k`` distinct Steiner trees, in the order they are popped.

    Partitioning enumeration: each discovered tree spawns candidate
    subproblems that ban one of its edges.  Trees are deduplicated by edge
    signature.  The order is *not* guaranteed to be non-decreasing in
    cost: KMB is an approximation, so a child re-solved with one more
    banned edge can cost less than its parent and is then popped after
    it.

    A tree's children are solved only when the next tree is needed, so
    the last tree returned never pays for its own.  ``ties_only`` stops
    at the first tree costing more than the first one (beyond
    :data:`TIE_TOLERANCE`): the result is then exactly the leading run of
    the full list that the serving front ends keep.
    """
    if k <= 0:
        return []
    compiled = _compiled(graph, weight_fn)
    terminal_list = validate_terminals(compiled.graph, terminals)
    first = steiner_tree(compiled, terminal_list)
    if first is None:
        return []

    results: list[JoinTree] = []
    seen_signatures: set[tuple] = set()
    # Heap of (cost, counter, tree, banned-set); counter breaks cost ties.
    counter = 0
    heap: list[tuple[float, int, JoinTree, frozenset[JoinEdge]]] = [
        (first.cost, counter, first, frozenset())
    ]
    explored_bans: set[frozenset[JoinEdge]] = {frozenset()}
    # The last accepted tree, whose children are not solved yet.
    unexpanded: tuple[JoinTree, frozenset[JoinEdge]] | None = None

    while len(results) < k:
        if unexpanded is not None:
            tree, banned = unexpanded
            unexpanded = None
            for edge in tree.sorted_edges():
                new_banned = banned | {edge}
                if new_banned in explored_bans:
                    continue
                explored_bans.add(new_banned)
                candidate = steiner_tree(
                    compiled, terminal_list, banned=new_banned
                )
                if (
                    candidate is not None
                    and candidate.signature() not in seen_signatures
                ):
                    counter += 1
                    heapq.heappush(
                        heap, (candidate.cost, counter, candidate, new_banned)
                    )
        if not heap:
            break
        cost, _, tree, banned = heapq.heappop(heap)
        signature = tree.signature()
        if signature in seen_signatures:
            continue
        if ties_only and results and cost > results[0].cost + TIE_TOLERANCE:
            break
        seen_signatures.add(signature)
        results.append(tree)
        unexpanded = (tree, banned)
    return results
