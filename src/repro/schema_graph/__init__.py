"""Schema graph and Steiner-tree machinery for join path inference.

:mod:`repro.schema_graph.graph` implements Definition 1 of the paper (the
vertex-typed schema graph) and the relation-level join multigraph the
solver operates on; :mod:`repro.schema_graph.steiner` implements the
Kou-Markowsky-Berman Steiner tree approximation the paper cites ([21])
plus a top-k enumeration; :mod:`repro.schema_graph.fork` implements the
self-join FORK procedure (Algorithm 4).
"""

from repro.schema_graph.fork import fork_for_duplicates
from repro.schema_graph.graph import (
    CompiledJoinGraph,
    JoinEdge,
    JoinGraph,
    JoinTree,
    SchemaGraph,
)
from repro.schema_graph.steiner import steiner_tree, top_k_steiner_trees

__all__ = [
    "CompiledJoinGraph",
    "JoinEdge",
    "JoinGraph",
    "JoinTree",
    "SchemaGraph",
    "fork_for_duplicates",
    "steiner_tree",
    "top_k_steiner_trees",
]
