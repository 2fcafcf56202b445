"""Schema graph (Definition 1) and the relation-level join multigraph.

Two views of the same schema:

* :class:`SchemaGraph` mirrors the paper's Definition 1: relation vertices
  and attribute vertices, projection edges and FK-PK join edges.  It is the
  faithful formal object and is handy for inspection and documentation.
* :class:`JoinGraph` is the solver's view: vertices are *relation
  instances* and each FK-PK constraint is one (multi-)edge.  Self-join
  support (FORK) adds cloned instances such as ``author#2``; every instance
  remembers its underlying relation so log-driven weights can be looked up.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from repro.db.catalog import Catalog
from repro.errors import GraphError


@dataclass(frozen=True, slots=True)
class JoinEdge:
    """One FK-PK join opportunity between two relation instances.

    ``source`` is the instance holding the foreign key; ``target`` holds
    the referenced (primary) key — i.e. the edge direction matches
    Definition 1's FK→PK orientation.
    """

    source: str
    source_column: str
    target: str
    target_column: str

    def other(self, instance: str) -> str:
        if instance == self.source:
            return self.target
        if instance == self.target:
            return self.source
        raise GraphError(f"instance {instance!r} is not an endpoint of {self}")

    def touches(self, instance: str) -> bool:
        return instance in (self.source, self.target)

    def __str__(self) -> str:
        return (
            f"{self.source}.{self.source_column} -> "
            f"{self.target}.{self.target_column}"
        )


#: Edge weight functions take the edge and the relations underlying its
#: two endpoints (source relation, target relation).
WeightFn = Callable[[JoinEdge, str, str], float]


def unit_weight(edge: JoinEdge, source_relation: str, target_relation: str) -> float:
    """The paper's default weight function w: every join edge costs 1."""
    return 1.0


class JoinGraph:
    """Relation-instance multigraph with FK-PK edges."""

    def __init__(self) -> None:
        #: instance name -> underlying relation name
        self.instances: dict[str, str] = {}
        self.edges: list[JoinEdge] = []
        self._adjacency: dict[str, list[JoinEdge]] = {}

    # ------------------------------------------------------------ building

    @classmethod
    def from_catalog(cls, catalog: Catalog) -> "JoinGraph":
        """Build the base graph: one instance per relation, one edge per FK."""
        graph = cls()
        for relation in catalog.table_names:
            graph.add_instance(relation, relation)
        for fk in catalog.foreign_keys:
            graph.add_edge(
                JoinEdge(fk.source, fk.source_column, fk.target, fk.target_column)
            )
        return graph

    def add_instance(self, instance: str, relation: str) -> None:
        if instance in self.instances:
            raise GraphError(f"duplicate instance {instance!r}")
        self.instances[instance] = relation
        self._adjacency[instance] = []

    def add_edge(self, edge: JoinEdge) -> None:
        for endpoint in (edge.source, edge.target):
            if endpoint not in self.instances:
                raise GraphError(f"edge endpoint {endpoint!r} is not an instance")
        self.edges.append(edge)
        self._adjacency[edge.source].append(edge)
        self._adjacency[edge.target].append(edge)

    def copy(self) -> "JoinGraph":
        clone = JoinGraph()
        clone.instances = dict(self.instances)
        clone.edges = list(self.edges)
        clone._adjacency = {
            instance: list(edges) for instance, edges in self._adjacency.items()
        }
        return clone

    # ------------------------------------------------------------- queries

    def relation_of(self, instance: str) -> str:
        try:
            return self.instances[instance]
        except KeyError:
            raise GraphError(f"unknown instance {instance!r}") from None

    def neighbors(self, instance: str) -> list[JoinEdge]:
        try:
            return self._adjacency[instance]
        except KeyError:
            raise GraphError(f"unknown instance {instance!r}") from None

    def has_instance(self, instance: str) -> bool:
        return instance in self.instances

    def edge_weight(self, edge: JoinEdge, weight_fn: WeightFn) -> float:
        return weight_fn(
            edge, self.relation_of(edge.source), self.relation_of(edge.target)
        )

    def instance_count(self) -> int:
        return len(self.instances)

    def __repr__(self) -> str:
        return (
            f"JoinGraph({len(self.instances)} instances, {len(self.edges)} edges)"
        )


class CompiledJoinGraph:
    """A :class:`JoinGraph` with integer-indexed adjacency and fixed weights.

    Instances are numbered in name order, so comparing two indices orders
    them exactly as comparing the names would (the solver's heap breaks
    distance ties on the vertex).  Equal edges share one id and one
    weight; ``adjacency[i]`` lists ``(weight, neighbor, edge id)`` in the
    graph's own neighbor order, duplicates included.  The weights are
    evaluated once, here: rebuild whenever they may change.

    ``pair_weights`` memoizes weights by (source relation, target
    relation) across compilations; pass it only for weight functions that
    ignore the edge itself (the unit and log weights do), so FORK clones
    reuse their original relation's weight.
    """

    __slots__ = (
        "graph", "names", "index", "edges", "edge_ids", "endpoints",
        "weights", "adjacency",
    )

    def __init__(
        self,
        graph: JoinGraph,
        weight_fn: WeightFn,
        pair_weights: dict[tuple[str, str], float] | None = None,
    ) -> None:
        self.graph = graph
        self.names = sorted(graph.instances)
        self.index = {name: i for i, name in enumerate(self.names)}
        self.edges: list[JoinEdge] = []
        self.edge_ids: dict[JoinEdge, int] = {}
        self.endpoints: list[tuple[int, int]] = []
        self.weights: list[float] = []
        for edge in graph.edges:
            if edge in self.edge_ids:
                continue
            if pair_weights is None:
                weight = graph.edge_weight(edge, weight_fn)
            else:
                pair = (
                    graph.relation_of(edge.source),
                    graph.relation_of(edge.target),
                )
                weight = pair_weights.get(pair)
                if weight is None:
                    weight = graph.edge_weight(edge, weight_fn)
                    pair_weights[pair] = weight
            if weight < 0:
                raise GraphError(f"negative edge weight on {edge}")
            self.edge_ids[edge] = len(self.edges)
            self.edges.append(edge)
            self.endpoints.append(
                (self.index[edge.source], self.index[edge.target])
            )
            self.weights.append(weight)
        self.adjacency: list[tuple[tuple[float, int, int], ...]] = []
        for name in self.names:
            row = []
            for edge in graph.neighbors(name):
                edge_id = self.edge_ids[edge]
                row.append(
                    (self.weights[edge_id], self.index[edge.other(name)], edge_id)
                )
            self.adjacency.append(tuple(row))

    def weight(self, edge: JoinEdge) -> float:
        return self.weights[self.edge_ids[edge]]


@dataclass(frozen=True, slots=True)
class JoinTree:
    """A join path: a tree of instances connected by FK-PK edges.

    ``cost`` is the total weight under the weight function the solver was
    given (log-driven weights when LogJoin is active); ``score`` follows
    the paper's Scorej formula under the *base* weight function
    (``Σ w / |Ej|²`` with w=1, i.e. ``1/|Ej|``), so simpler paths score
    higher regardless of which weights selected the tree.  A single-relation
    "tree" has no edges; its score is defined as 1.
    """

    vertices: frozenset[str]
    edges: frozenset[JoinEdge]
    terminals: frozenset[str]
    cost: float

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def score(self) -> float:
        if not self.edges:
            return 1.0
        return len(self.edges) / (len(self.edges) ** 2)

    def sorted_edges(self) -> list[JoinEdge]:
        return sorted(
            self.edges,
            key=lambda e: (e.source, e.source_column, e.target, e.target_column),
        )

    def signature(self) -> tuple:
        """Hashable identity for deduplication across solver calls."""
        return tuple(
            (e.source, e.source_column, e.target, e.target_column)
            for e in self.sorted_edges()
        )

    def describe(self) -> str:
        """Human-readable one-liner, e.g. ``publication-writes-author``."""
        if not self.edges:
            return next(iter(self.vertices))
        parts = [str(edge) for edge in self.sorted_edges()]
        return "; ".join(parts)


class SchemaGraph:
    """The paper's Definition 1 graph, for inspection and fidelity.

    Vertices are ``("rel", name)`` or ``("attr", "rel.col")``; edges are
    projection edges (relation → its attributes) and FK-PK edges (foreign
    key attribute → primary key attribute).  The weight function defaults
    to 1 for every adjacent pair, as in Section VI-A1.
    """

    def __init__(self, catalog: Catalog) -> None:
        self.catalog = catalog
        self.relation_vertices: list[str] = list(catalog.table_names)
        self.attribute_vertices: list[str] = [
            str(ref) for ref in catalog.all_attributes()
        ]
        self.projection_edges: list[tuple[str, str]] = [
            (schema_name, f"{schema_name}.{column.name}")
            for schema_name, table in catalog.tables.items()
            for column in table.columns
        ]
        self.fk_pk_edges: list[tuple[str, str]] = [
            (str(fk.source_ref), str(fk.target_ref))
            for fk in catalog.foreign_keys
        ]

    def weight(self, u: str, v: str) -> float:
        """Default w: 1.0 for adjacent vertex pairs, else infinity."""
        if (u, v) in self._edge_set or (v, u) in self._edge_set:
            return 1.0
        return float("inf")

    @property
    def _edge_set(self) -> set[tuple[str, str]]:
        cached = getattr(self, "_edge_set_cache", None)
        if cached is None:
            cached = set(self.projection_edges) | set(self.fk_pk_edges)
            self._edge_set_cache = cached
        return cached

    def join_graph(self) -> JoinGraph:
        """The relation-level multigraph view used by the solver."""
        return JoinGraph.from_catalog(self.catalog)

    def stats(self) -> dict[str, int]:
        return {
            "relation_vertices": len(self.relation_vertices),
            "attribute_vertices": len(self.attribute_vertices),
            "projection_edges": len(self.projection_edges),
            "fk_pk_edges": len(self.fk_pk_edges),
        }


def validate_terminals(graph: JoinGraph, terminals: Iterable[str]) -> list[str]:
    """Check each terminal exists in the graph; returns them as a list."""
    result = []
    for terminal in terminals:
        if not graph.has_instance(terminal):
            raise GraphError(f"terminal {terminal!r} is not in the join graph")
        result.append(terminal)
    if not result:
        raise GraphError("at least one terminal is required")
    return result
