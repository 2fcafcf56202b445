"""Construct the final SQL query from a configuration and a join path.

The paper leaves this step to the NLIDB (Section III-E): Templar returns
ranked configurations and join paths; the NLIDB assembles the SELECT /
FROM / WHERE (/GROUP BY / HAVING / ORDER BY / LIMIT) clauses.  Both our
Pipeline and NaLIR implementations share this builder.

Self-joins: when a configuration carries several equality predicates on
the same attribute, the join path contains forked instances
(``author``, ``author#2``); each distinct predicate value is routed to its
own instance.
"""

from __future__ import annotations

import sys
from collections import defaultdict

from repro.core.fragments import FragmentContext, FragmentKind, QueryFragment
from repro.core.interface import Configuration
from repro.core.join_inference import JoinPath
from repro.db.catalog import Catalog
from repro.errors import TranslationError
from repro.sql.ast import (
    ColumnRef,
    Comparison,
    Expr,
    FuncCall,
    Literal,
    OrderItem,
    Predicate,
    Query,
    SelectItem,
    TableRef,
    make_and,
)


def build_sql(
    configuration: Configuration,
    join_path: JoinPath,
    catalog: Catalog,
) -> Query:
    """Assemble the SQL AST for one (configuration, join path) pair."""
    builder = _Builder(configuration, join_path, catalog)
    return builder.build()


class _Builder:
    def __init__(
        self,
        configuration: Configuration,
        join_path: JoinPath,
        catalog: Catalog,
    ) -> None:
        self.configuration = configuration
        self.join_path = join_path
        self.catalog = catalog
        self.aliases = self._assign_aliases()
        self._instance_cursor: dict[tuple[str, str], int] = {}

    # ------------------------------------------------------------- aliases

    def _assign_aliases(self) -> dict[str, str]:
        """instance -> alias, deterministic (t1, t2, ... in sorted order).

        Interned: cached translations hold these strings in every column
        and table reference, so each alias exists once per process.
        """
        return {
            instance: sys.intern(f"t{index + 1}")
            for index, instance in enumerate(self.join_path.instances)
        }

    def _instances_of(self, relation: str) -> list[str]:
        """Instances of ``relation`` in the path, original before clones."""
        instances = [
            instance
            for instance in self.join_path.instances
            if self.join_path.relation_of(instance) == relation
        ]
        instances.sort(key=lambda name: (name != relation, name))
        return instances

    def _instance_for(self, fragment: QueryFragment) -> str:
        """Pick the instance a fragment's column reference should use.

        Equality predicates rotate through the relation's instances (one
        per distinct value — the self-join case); everything else uses the
        first (original) instance.
        """
        relation = fragment.relation
        if relation is None:
            raise TranslationError(f"fragment {fragment} has no relation")
        instances = self._instances_of(relation)
        if not instances:
            raise TranslationError(
                f"join path lacks relation {relation!r} needed by {fragment}"
            )
        if (
            fragment.kind is FragmentKind.PREDICATE
            and fragment.operator == "="
            and fragment.attribute is not None
            and len(instances) > 1
        ):
            key = (relation, fragment.attribute)
            cursor = self._instance_cursor.get(key, 0)
            self._instance_cursor[key] = cursor + 1
            return instances[min(cursor, len(instances) - 1)]
        return instances[0]

    # ----------------------------------------------------------- fragments

    def _column_expr(self, fragment: QueryFragment, instance: str) -> Expr:
        if fragment.attribute == "*":
            from repro.sql.ast import Star

            base: Expr = Star()
        else:
            base = ColumnRef(self.aliases[instance], fragment.attribute or "")
        for func in reversed(fragment.aggregates):
            base = FuncCall(func, (base,), distinct=fragment.distinct)
        return base

    def _predicate(self, fragment: QueryFragment, instance: str) -> Predicate:
        if fragment.operator is None or fragment.value is None:
            raise TranslationError(f"cannot build predicate from {fragment}")
        left = self._column_expr(fragment, instance)
        return Comparison(left, fragment.operator, Literal(fragment.value))

    # --------------------------------------------------------------- build

    def build(self) -> Query:
        select_items: list[SelectItem] = []
        where_parts: list[Predicate] = []
        group_by: list[Expr] = []
        having_parts: list[Predicate] = []
        order_by: list[OrderItem] = []
        limit: int | None = None
        query_distinct = False
        has_aggregate_select = False
        plain_select_exprs: list[Expr] = []

        for mapping in self.configuration.mappings:
            fragment = mapping.fragment
            metadata = mapping.keyword.metadata
            if metadata.limit is not None:
                limit = metadata.limit
            if fragment.context is FragmentContext.FROM:
                continue  # relations are covered by the join path
            instance = self._instance_for(fragment)
            if fragment.context is FragmentContext.SELECT:
                expr = self._column_expr(fragment, instance)
                select_items.append(SelectItem(expr))
                if fragment.aggregates:
                    has_aggregate_select = True
                else:
                    plain_select_exprs.append(expr)
                    if metadata.distinct:
                        query_distinct = True
                if metadata.grouped:
                    group_by.append(
                        ColumnRef(self.aliases[instance], fragment.attribute or "")
                    )
            elif fragment.context is FragmentContext.WHERE:
                where_parts.append(self._predicate(fragment, instance))
            elif fragment.context is FragmentContext.HAVING:
                having_parts.append(self._predicate(fragment, instance))
            elif fragment.context is FragmentContext.GROUP_BY:
                group_by.append(
                    ColumnRef(self.aliases[instance], fragment.attribute or "")
                )
            elif fragment.context is FragmentContext.ORDER_BY:
                order_by.append(
                    OrderItem(
                        self._column_expr(fragment, instance),
                        descending=fragment.descending,
                    )
                )
            else:  # pragma: no cover - exhaustive over FragmentContext
                raise TranslationError(f"unexpected context {fragment.context}")

        if not select_items:
            select_items.append(SelectItem(self._default_projection()))

        # SQL validity: grouped aggregates require plain select attrs to be
        # grouping keys.
        if (has_aggregate_select or having_parts) and plain_select_exprs:
            for expr in plain_select_exprs:
                if expr not in group_by:
                    group_by.append(expr)

        # Join conditions from the path edges.
        for edge in self.join_path.edges:
            where_parts.append(
                Comparison(
                    ColumnRef(self.aliases[edge.source], edge.source_column),
                    "=",
                    ColumnRef(self.aliases[edge.target], edge.target_column),
                )
            )

        from_tables = tuple(
            TableRef(self.join_path.relation_of(instance), self.aliases[instance])
            for instance in self.join_path.instances
        )
        return Query(
            select=tuple(select_items),
            from_tables=from_tables,
            where=make_and(where_parts),
            group_by=tuple(group_by),
            having=make_and(having_parts),
            order_by=tuple(order_by),
            limit=limit,
            distinct=query_distinct,
        )

    def _default_projection(self) -> Expr:
        """Project the display column of the first path relation.

        Used when no keyword mapped into the SELECT clause (e.g. an NLQ
        that only filters: "papers after 2000" parsed as one keyword).
        """
        instance = self.join_path.instances[0]
        relation = self.join_path.relation_of(instance)
        schema = self.catalog.table(relation)
        column = schema.display_column or schema.column_names[0]
        return ColumnRef(self.aliases[instance], column)
