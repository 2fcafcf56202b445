"""INFERJOINS: join path inference over the schema graph (Section VI).

Given the bag of relations known to be in the query, the generator solves
a Steiner tree problem on the join multigraph.  Without a QFG every edge
costs 1 (shortest join path).  With a QFG the weight of an edge between
relations r1, r2 becomes ``1 - Dice(FROM::r1, FROM::r2)`` — commonly
co-queried joins become cheap, so the solver prefers the paths users
actually take even when they are longer (Section VI-A2).

Self-joins are handled by FORKing the graph (Algorithm 4) before solving.

The weights depend only on the QFG, never on the request, so the join
graph is compiled once per QFG revision (see ``docs/architecture.md``,
"Join inference").

The returned score follows the paper's ``Scorej = Σw/|Ej|²`` under the
*base* weights (see DESIGN.md §4): ``1/|Ej|``, preferring simpler paths;
the log-weighted cost used for tree selection is exposed as ``cost``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.qfg import QueryFragmentGraph
from repro.db.catalog import Catalog
from repro.errors import GraphError
from repro.schema_graph.fork import fork_for_duplicates
from repro.schema_graph.graph import (
    CompiledJoinGraph,
    JoinEdge,
    JoinGraph,
    JoinTree,
    unit_weight,
)
from repro.schema_graph.steiner import top_k_steiner_trees


@dataclass(frozen=True, slots=True)
class JoinPath:
    """A ranked join path: tree + instance map + scores."""

    tree: JoinTree
    #: instance name -> underlying relation (covers FORK clones)
    instance_relations: dict[str, str]
    score: float
    cost: float

    @property
    def edges(self) -> list[JoinEdge]:
        return self.tree.sorted_edges()

    @property
    def instances(self) -> list[str]:
        """All relation instances in the path, deterministic order."""
        return sorted(self.tree.vertices)

    def relation_of(self, instance: str) -> str:
        return self.instance_relations[instance]

    def describe(self) -> str:
        return self.tree.describe()

    def __str__(self) -> str:
        return f"JoinPath({self.describe()}, score={self.score:.3f})"


class JoinPathGenerator:
    """Executes INFERJOINS for one schema."""

    def __init__(
        self,
        catalog: Catalog,
        qfg: QueryFragmentGraph | None = None,
        use_log_weights: bool = True,
        top_k: int = 3,
        min_weight: float = 0.01,
        base_graph: JoinGraph | None = None,
    ) -> None:
        self.catalog = catalog
        self.qfg = qfg
        self.use_log_weights = use_log_weights
        self.top_k = top_k
        self.min_weight = min_weight
        # A precomputed graph (e.g. deserialized from a serving artifact)
        # skips the from-catalog rebuild; it must describe the same schema.
        self._base_graph = base_graph or JoinGraph.from_catalog(catalog)
        #: (QFG, weight knobs, compiled base graph, relation-pair weights)
        self._compiled_state: tuple | None = None

    # ------------------------------------------------------------- weights

    def _log_weight(
        self, edge: JoinEdge, source_relation: str, target_relation: str
    ) -> float:
        """w_L of Section VI-A2, clamped positive for Dijkstra."""
        assert self.qfg is not None
        dice = self.qfg.relation_dice(source_relation, target_relation)
        return max(self.min_weight, 1.0 - dice)

    def weight_fn(self):
        """The active edge weight function."""
        if self.qfg is not None and self.use_log_weights:
            return self._log_weight
        return unit_weight

    def _compiled(self) -> tuple[CompiledJoinGraph, dict]:
        """The base graph compiled under the active weights, plus its memo.

        Recompiled only when the weights can have changed: a different
        QFG object or revision, or a different weight knob.  The key holds
        the QFG object itself because ``Templar.swap_qfg`` installs a new
        graph whose revision counter can repeat an old one's.
        """
        qfg = self.qfg
        knobs = (
            qfg.revision if qfg is not None else None,
            self.use_log_weights,
            self.min_weight,
        )
        state = self._compiled_state
        if state is None or state[0] is not qfg or state[1] != knobs:
            pair_weights: dict[tuple[str, str], float] = {}
            compiled = CompiledJoinGraph(
                self._base_graph, self.weight_fn(), pair_weights
            )
            state = (qfg, knobs, compiled, pair_weights)
            self._compiled_state = state
        return state[2], state[3]

    # -------------------------------------------------------------- solver

    def infer(
        self, relation_bag: list[str], ties_only: bool = False
    ) -> list[JoinPath]:
        """Ranked join paths spanning every instance of ``relation_bag``.

        The bag keeps duplicates: a relation appearing twice triggers the
        FORK procedure and a self-join in the resulting path.  Returns an
        empty list when the bag cannot be connected.

        ``ties_only`` returns only the leading paths that tie the best on
        cost (see :func:`top_k_steiner_trees`) — all the serving front
        ends read — instead of the full top ``top_k``.
        """
        if not relation_bag:
            raise GraphError("relation bag must not be empty")
        for relation in relation_bag:
            if not self._base_graph.has_instance(relation):
                raise GraphError(f"unknown relation {relation!r}")

        compiled, pair_weights = self._compiled()
        graph, terminals = fork_for_duplicates(self._base_graph, relation_bag)
        if graph is not self._base_graph:
            # FORK clones carry their original relation, so every weight
            # comes out of the memo.
            compiled = CompiledJoinGraph(graph, self.weight_fn(), pair_weights)
        trees = top_k_steiner_trees(
            compiled, terminals, self.top_k, ties_only=ties_only
        )
        return [
            JoinPath(
                tree=tree,
                instance_relations={
                    instance: graph.relation_of(instance)
                    for instance in tree.vertices
                },
                score=tree.score,
                cost=tree.cost,
            )
            for tree in trees
        ]

    def best(self, relation_bag: list[str]) -> JoinPath | None:
        """The single most likely join path, or None if disconnected."""
        paths = self.infer(relation_bag, ties_only=True)
        return paths[0] if paths else None
