"""The pre-compilation join solver, kept verbatim as a differential oracle.

This is :mod:`repro.schema_graph.steiner` as it stood before join graphs
were compiled per QFG revision: every Dijkstra relaxation re-evaluates
the edge weight, every Dijkstra runs to exhaustion, and
:func:`top_k_steiner_trees` solves the ban-one-edge children of every
tree it returns.  Slow, but obviously faithful to the KMB recipe the
production solver must reproduce tree for tree: the ``joins`` oracle
(:mod:`repro.fuzz.oracles`) and the property tests compare the two on
full ranked lists (edge signature and cost).  Do not optimise this file.
"""

from __future__ import annotations

import heapq
from typing import Iterable

from repro.errors import GraphError
from repro.schema_graph.fork import fork_for_duplicates
from repro.schema_graph.graph import (
    JoinEdge,
    JoinGraph,
    JoinTree,
    WeightFn,
    unit_weight,
    validate_terminals,
)

#: Tolerance for float weight accumulation.
_EPS = 1e-12


def _dijkstra(
    graph: JoinGraph,
    source: str,
    weight_fn: WeightFn,
    banned: frozenset[JoinEdge],
) -> tuple[dict[str, float], dict[str, JoinEdge]]:
    """Single-source shortest paths; returns (distance, predecessor edge)."""
    distance: dict[str, float] = {source: 0.0}
    predecessor: dict[str, JoinEdge] = {}
    heap: list[tuple[float, str]] = [(0.0, source)]
    settled: set[str] = set()
    while heap:
        dist, node = heapq.heappop(heap)
        if node in settled:
            continue
        settled.add(node)
        for edge in graph.neighbors(node):
            if edge in banned:
                continue
            weight = graph.edge_weight(edge, weight_fn)
            if weight < 0:
                raise GraphError(f"negative edge weight on {edge}")
            other = edge.other(node)
            candidate = dist + weight
            if candidate < distance.get(other, float("inf")) - _EPS:
                distance[other] = candidate
                predecessor[other] = edge
                heapq.heappush(heap, (candidate, other))
    return distance, predecessor


def _path_edges(
    predecessor: dict[str, JoinEdge], source: str, target: str
) -> list[JoinEdge]:
    """Reconstruct the edge list of the shortest path source → target."""
    edges: list[JoinEdge] = []
    node = target
    while node != source:
        edge = predecessor.get(node)
        if edge is None:
            raise GraphError(f"no path to {target!r}")
        edges.append(edge)
        node = edge.other(node)
    edges.reverse()
    return edges


def steiner_tree(
    graph: JoinGraph,
    terminals: Iterable[str],
    weight_fn: WeightFn = unit_weight,
    banned: frozenset[JoinEdge] = frozenset(),
) -> JoinTree | None:
    """KMB Steiner tree spanning ``terminals``; None if disconnected.

    A single terminal yields a zero-edge tree (the bare relation).
    """
    terminal_list = validate_terminals(graph, terminals)
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
    shortest: dict[str, tuple[dict[str, float], dict[str, JoinEdge]]] = {}
    for terminal in unique_terminals:
        shortest[terminal] = _dijkstra(graph, terminal, weight_fn, banned)

    # 2. MST of the closure (Prim over terminals).
    in_tree = {unique_terminals[0]}
    closure_edges: list[tuple[str, str]] = []
    while len(in_tree) < len(unique_terminals):
        best: tuple[float, str, str] | None = None
        for inside in in_tree:
            distances = shortest[inside][0]
            for outside in unique_terminals:
                if outside in in_tree:
                    continue
                dist = distances.get(outside)
                if dist is None:
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
        selected_edges.update(_path_edges(predecessor, inside, outside))

    # 4. MST of the induced subgraph, then prune non-terminal leaves.
    tree_edges = _mst_of_edges(graph, selected_edges, weight_fn)
    tree_edges = _prune_leaves(tree_edges, set(unique_terminals))

    vertices: set[str] = set(unique_terminals)
    for edge in tree_edges:
        vertices.add(edge.source)
        vertices.add(edge.target)
    cost = sum(graph.edge_weight(edge, weight_fn) for edge in tree_edges)
    return JoinTree(
        vertices=frozenset(vertices),
        edges=frozenset(tree_edges),
        terminals=frozenset(unique_terminals),
        cost=cost,
    )


def _mst_of_edges(
    graph: JoinGraph, edges: set[JoinEdge], weight_fn: WeightFn
) -> set[JoinEdge]:
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
            graph.edge_weight(e, weight_fn),
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
    graph: JoinGraph,
    terminals: Iterable[str],
    k: int,
    weight_fn: WeightFn = unit_weight,
) -> list[JoinTree]:
    """Up to ``k`` distinct Steiner trees, in the order they are popped.

    The order is *not* guaranteed to be non-decreasing in cost: KMB is an
    approximation, so a child re-solved with one more banned edge can
    cost less than its parent and is then popped after it.

    Partitioning enumeration: each discovered tree spawns candidate
    subproblems that ban one of its edges.  Trees are deduplicated by edge
    signature.
    """
    if k <= 0:
        return []
    terminal_list = validate_terminals(graph, terminals)
    first = steiner_tree(graph, terminal_list, weight_fn)
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

    while heap and len(results) < k:
        cost, _, tree, banned = heapq.heappop(heap)
        if tree.signature() in seen_signatures:
            continue
        seen_signatures.add(tree.signature())
        results.append(tree)
        for edge in tree.sorted_edges():
            new_banned = banned | {edge}
            if new_banned in explored_bans:
                continue
            explored_bans.add(new_banned)
            candidate = steiner_tree(graph, terminal_list, weight_fn, new_banned)
            if candidate is not None and candidate.signature() not in seen_signatures:
                counter += 1
                heapq.heappush(
                    heap, (candidate.cost, counter, candidate, new_banned)
                )
    return results


def reference_infer(generator, relation_bag: list[str]) -> list[tuple]:
    """Ranked ``(signature, cost)`` pairs the old INFERJOINS returned.

    Mirrors the pre-compilation ``JoinPathGenerator.infer``: FORK the
    generator's base graph for duplicates, then enumerate its ``top_k``
    trees under its current weight function.
    """
    graph, terminals = fork_for_duplicates(generator._base_graph, relation_bag)
    trees = top_k_steiner_trees(
        graph, terminals, generator.top_k, generator.weight_fn()
    )
    return [(tree.signature(), tree.cost) for tree in trees]


def tie_prefix(ranked: list[tuple]) -> list[tuple]:
    """The leading entries that tie the first on cost (the served paths).

    Exactly what ``PipelineNLIDB._realize`` and ``NalirNLIDB.translate``
    keep of a full ranked list: everything before the first entry that
    costs more than the best by over 1e-9.
    """
    prefix: list[tuple] = []
    for entry in ranked:
        if entry[1] > ranked[0][1] + 1e-9:
            break
        prefix.append(entry)
    return prefix
