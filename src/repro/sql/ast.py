"""AST node definitions for the SQL dialect.

All nodes are immutable dataclasses so they can be hashed, compared and
used as dictionary keys (the canonicalizer and the fragment extractor rely
on structural equality).  WHERE clauses are stored as a predicate tree;
:func:`conjuncts` flattens top-level ANDs, which is the form fragment
extraction and execution want.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Union

# --------------------------------------------------------------------------
# Expressions
# --------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ColumnRef:
    """A possibly-qualified column reference, e.g. ``p.year`` or ``year``."""

    qualifier: str | None
    column: str

    def __str__(self) -> str:
        return f"{self.qualifier}.{self.column}" if self.qualifier else self.column


@dataclass(frozen=True, slots=True)
class Literal:
    """A constant: int, float or str."""

    value: int | float | str

    @property
    def is_numeric(self) -> bool:
        return isinstance(self.value, (int, float))


@dataclass(frozen=True, slots=True)
class ValuePlaceholder:
    """The paper's ``?val`` (or ``?attr``/``?rel``) obscured slot."""

    name: str = "val"


@dataclass(frozen=True, slots=True)
class Star:
    """``*`` or ``alias.*``."""

    qualifier: str | None = None


@dataclass(frozen=True, slots=True)
class FuncCall:
    """A function application, e.g. ``COUNT(DISTINCT p.pid)``."""

    name: str
    args: tuple["Expr", ...]
    distinct: bool = False

    @property
    def is_aggregate(self) -> bool:
        return self.name.upper() in AGGREGATE_FUNCTIONS


AGGREGATE_FUNCTIONS = frozenset({"COUNT", "SUM", "AVG", "MIN", "MAX"})


@dataclass(frozen=True, slots=True)
class Subquery:
    """A parenthesized SELECT used as an expression or IN source."""

    query: "Query"


Expr = Union[ColumnRef, Literal, ValuePlaceholder, Star, FuncCall, Subquery]


# --------------------------------------------------------------------------
# Predicates
# --------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class OpPlaceholder:
    """The paper's ``?op`` obscured comparison operator."""


COMPARISON_OPS = frozenset({"=", "!=", "<>", "<", "<=", ">", ">=", "LIKE", "NOT LIKE"})


@dataclass(frozen=True, slots=True)
class Comparison:
    """``left op right`` where op may be an obscured placeholder."""

    left: Expr
    op: Union[str, OpPlaceholder]
    right: Expr


@dataclass(frozen=True, slots=True)
class InPredicate:
    left: Expr
    values: tuple[Expr, ...]
    negated: bool = False


@dataclass(frozen=True, slots=True)
class BetweenPredicate:
    left: Expr
    low: Expr
    high: Expr
    negated: bool = False


@dataclass(frozen=True, slots=True)
class IsNullPredicate:
    left: Expr
    negated: bool = False


@dataclass(frozen=True, slots=True)
class AndPredicate:
    children: tuple["Predicate", ...]


@dataclass(frozen=True, slots=True)
class OrPredicate:
    children: tuple["Predicate", ...]


@dataclass(frozen=True, slots=True)
class NotPredicate:
    child: "Predicate"


Predicate = Union[
    Comparison,
    InPredicate,
    BetweenPredicate,
    IsNullPredicate,
    AndPredicate,
    OrPredicate,
    NotPredicate,
]


def conjuncts(predicate: Predicate | None) -> list[Predicate]:
    """Flatten top-level ANDs of a WHERE tree into a conjunct list."""
    if predicate is None:
        return []
    if isinstance(predicate, AndPredicate):
        flattened: list[Predicate] = []
        for child in predicate.children:
            flattened.extend(conjuncts(child))
        return flattened
    return [predicate]


def make_and(parts: list[Predicate]) -> Predicate | None:
    """Build an AND tree from conjuncts (None for empty, bare for single)."""
    if not parts:
        return None
    if len(parts) == 1:
        return parts[0]
    return AndPredicate(tuple(parts))


# --------------------------------------------------------------------------
# Query structure
# --------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class SelectItem:
    expr: Expr
    alias: str | None = None


@dataclass(frozen=True, slots=True)
class TableRef:
    """A FROM-clause relation with an optional alias."""

    table: str
    alias: str | None = None

    @property
    def name(self) -> str:
        """The name this relation is referred to by (alias if present)."""
        return self.alias or self.table


@dataclass(frozen=True, slots=True)
class OrderItem:
    expr: Expr
    descending: bool = False


@dataclass(frozen=True, slots=True)
class Query:
    """A SELECT statement.

    ANSI ``JOIN ... ON`` clauses are normalized at parse time: joined
    tables appear in ``from_tables`` and their ON conditions are folded
    into ``where``.
    """

    select: tuple[SelectItem, ...]
    from_tables: tuple[TableRef, ...]
    where: Predicate | None = None
    group_by: tuple[Expr, ...] = ()
    having: Predicate | None = None
    order_by: tuple[OrderItem, ...] = ()
    limit: int | None = None
    distinct: bool = False

    def where_conjuncts(self) -> list[Predicate]:
        return conjuncts(self.where)

    def iter_expressions(self) -> Iterator[Expr]:
        """All expressions appearing anywhere in the query (shallow)."""
        for item in self.select:
            yield item.expr
        for conjunct in self.where_conjuncts():
            yield from _predicate_exprs(conjunct)
        yield from self.group_by
        for conjunct in conjuncts(self.having):
            yield from _predicate_exprs(conjunct)
        for order in self.order_by:
            yield order.expr


def _predicate_exprs(predicate: Predicate) -> Iterator[Expr]:
    if isinstance(predicate, Comparison):
        yield predicate.left
        yield predicate.right
    elif isinstance(predicate, InPredicate):
        yield predicate.left
        yield from predicate.values
    elif isinstance(predicate, BetweenPredicate):
        yield predicate.left
        yield predicate.low
        yield predicate.high
    elif isinstance(predicate, IsNullPredicate):
        yield predicate.left
    elif isinstance(predicate, (AndPredicate, OrPredicate)):
        for child in predicate.children:
            yield from _predicate_exprs(child)
    elif isinstance(predicate, NotPredicate):
        yield from _predicate_exprs(predicate.child)


def expr_column_refs(expr: Expr) -> Iterator[ColumnRef]:
    """Column references of one expression (recursing into functions).

    Subqueries are *not* entered: they have their own scope and are bound
    separately (a correlated reference then fails inside the subquery's
    own bind, matching the paper's exclusion of correlated queries).
    """
    if isinstance(expr, ColumnRef):
        yield expr
    elif isinstance(expr, FuncCall):
        for arg in expr.args:
            yield from expr_column_refs(arg)


def predicate_column_refs(predicate: Predicate) -> Iterator[ColumnRef]:
    """All column references inside one predicate."""
    for expr in _predicate_exprs(predicate):
        yield from expr_column_refs(expr)
