"""The compiled join solver against the reference solver and brute force.

Small random multigraphs — parallel edges, self-references, single
terminals, disconnected terminals and FORK bags (duplicated relations) —
checked two ways:

* the compiled solver returns exactly the reference solver's trees
  (:mod:`repro.fuzz.reference_joins`): same full ranked list, signature
  and cost, in top-k mode, and its tied prefix in ties-only mode;
* the KMB tree costs at most twice the brute-force Steiner optimum.

No monotonicity property: KMB re-solves can rank a cheaper tree after a
costlier one, and the reference does so too.
"""

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fuzz import reference_joins
from repro.schema_graph import (
    CompiledJoinGraph,
    JoinEdge,
    JoinGraph,
    fork_for_duplicates,
)
from repro.schema_graph.steiner import steiner_tree, top_k_steiner_trees

WEIGHTS = (0.01, 0.25, 0.5, 1.0)


@st.composite
def join_problems(draw):
    """(base graph, FORK-expanded graph, terminals, weight_fn)."""
    size = draw(st.integers(1, 5))
    relations = [f"r{index}" for index in range(size)]
    graph = JoinGraph()
    for relation in relations:
        graph.add_instance(relation, relation)
    endpoint = st.sampled_from(relations)
    column = st.sampled_from(("a", "b"))
    for source, source_column, target, target_column in draw(
        st.lists(st.tuples(endpoint, column, endpoint, column), max_size=7)
    ):
        graph.add_edge(JoinEdge(source, source_column, target, target_column))
    # Weights depend on the relation pair only, like the unit and log
    # weights, so compiling with a shared pair memo is legitimate.
    pair_weight = {
        (a, b): draw(st.sampled_from(WEIGHTS))
        for a in relations for b in relations
    }
    bag = draw(st.lists(endpoint, min_size=1, max_size=3))
    forked, terminals = fork_for_duplicates(graph, bag)

    def weight_fn(edge, source_relation, target_relation):
        return pair_weight[(source_relation, target_relation)]

    return graph, forked, terminals, weight_fn


def ranked(trees):
    return [(tree.signature(), tree.cost) for tree in trees]


def brute_force_optimum(graph, terminals, weight_fn) -> float | None:
    """Exact Steiner optimum: the cheapest MST over terminals + any extras."""
    wanted = set(terminals)
    others = [name for name in graph.instances if name not in wanted]
    best = None
    for size in range(len(others) + 1):
        for extra in combinations(others, size):
            cost = _mst_cost(graph, wanted | set(extra), weight_fn)
            if cost is not None and (best is None or cost < best):
                best = cost
    return best


def _mst_cost(graph, vertices: set[str], weight_fn) -> float | None:
    """Kruskal over the subgraph induced by ``vertices``; None if split."""
    parent = {vertex: vertex for vertex in vertices}

    def find(vertex):
        while parent[vertex] != vertex:
            vertex = parent[vertex]
        return vertex

    induced = [
        (graph.edge_weight(edge, weight_fn), edge)
        for edge in graph.edges
        if edge.source in vertices and edge.target in vertices
    ]
    cost, components = 0.0, len(vertices)
    for weight, edge in sorted(induced, key=lambda pair: pair[0]):
        a, b = find(edge.source), find(edge.target)
        if a != b:
            parent[a] = b
            cost += weight
            components -= 1
    return cost if components == 1 else None


class TestCompiledSolverMatchesReference:
    @given(join_problems(), st.integers(1, 4))
    @settings(max_examples=300, deadline=None)
    def test_top_k_lists_identical(self, problem, k):
        _, forked, terminals, weight_fn = problem
        expected = ranked(
            reference_joins.top_k_steiner_trees(forked, terminals, k, weight_fn)
        )
        assert ranked(
            top_k_steiner_trees(forked, terminals, k, weight_fn)
        ) == expected
        assert ranked(
            top_k_steiner_trees(forked, terminals, k, weight_fn, ties_only=True)
        ) == reference_joins.tie_prefix(expected)

    @given(join_problems())
    @settings(max_examples=200, deadline=None)
    def test_pair_memo_compilation_identical(self, problem):
        """Base graph and FORK graph compiled through one shared memo."""
        base, forked, terminals, weight_fn = problem
        memo: dict = {}
        CompiledJoinGraph(base, weight_fn, memo)
        compiled = CompiledJoinGraph(forked, weight_fn, memo)
        assert ranked(top_k_steiner_trees(compiled, terminals, 3)) == ranked(
            reference_joins.top_k_steiner_trees(forked, terminals, 3, weight_fn)
        )

    @given(join_problems())
    @settings(max_examples=200, deadline=None)
    def test_single_solve_identical(self, problem):
        _, forked, terminals, weight_fn = problem
        new = steiner_tree(forked, terminals, weight_fn)
        old = reference_joins.steiner_tree(forked, terminals, weight_fn)
        if old is None:
            assert new is None
        else:
            assert new == old


class TestKMBApproximation:
    @given(join_problems())
    @settings(max_examples=200, deadline=None)
    def test_cost_within_twice_optimum(self, problem):
        _, forked, terminals, weight_fn = problem
        optimum = brute_force_optimum(forked, terminals, weight_fn)
        tree = steiner_tree(forked, terminals, weight_fn)
        if optimum is None:
            assert tree is None  # terminals disconnected
        else:
            assert tree is not None
            assert tree.cost <= 2.0 * optimum + 1e-9


def test_brute_force_sees_the_keyword_path():
    """Sanity check of the oracle itself on a hand-solved instance."""
    graph = JoinGraph()
    for name in "abcd":
        graph.add_instance(name, name)
    graph.add_edge(JoinEdge("a", "x", "b", "x"))
    graph.add_edge(JoinEdge("b", "x", "d", "x"))
    graph.add_edge(JoinEdge("a", "y", "c", "y"))
    graph.add_edge(JoinEdge("c", "y", "d", "y"))

    def weight_fn(edge, source, target):
        return 0.25 if "c" in (source, target) else 1.0

    assert brute_force_optimum(graph, ["a", "d"], weight_fn) == pytest.approx(0.5)
    assert steiner_tree(graph, ["a", "d"], weight_fn).cost == pytest.approx(0.5)
