"""Datatypes of the NLIDB ↔ Templar interface.

These mirror the formal definitions of Section III: keywords with parser
metadata (the input of MAPKEYWORDS), query fragment mappings
(Definition 4) and configurations (Definition 5).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.fragments import FragmentContext, Obscurity, QueryFragment


@dataclass(frozen=True, slots=True)
class KeywordMetadata:
    """Parser metadata M_k = (τ, ω, F, g) for one keyword.

    * ``context`` — the clause the fragment mapped to this keyword should
      live in (τ),
    * ``comparison_op`` — the predicate operator implied by the NLQ, e.g.
      ``>`` for *after* (ω); ``None`` when not applicable,
    * ``aggregates`` — ordered aggregation functions, e.g. ``("COUNT",)``
      for *number of* (F),
    * ``grouped`` — whether the mapped attribute is also a GROUP BY key (g),
    * ``distinct`` — whether the aggregate applies to distinct values
      (carried alongside F; the paper folds this into F's functions).
    """

    context: FragmentContext
    comparison_op: str | None = None
    aggregates: tuple[str, ...] = ()
    grouped: bool = False
    distinct: bool = False
    #: ORDER BY direction for ORDER_BY-context keywords.
    descending: bool = False
    #: row limit implied by the NLQ (e.g. "top 5"), carried to the builder.
    limit: int | None = None


@dataclass(frozen=True, slots=True)
class Keyword:
    """One NLQ keyword (possibly multi-word) plus its metadata."""

    text: str
    metadata: KeywordMetadata

    def __str__(self) -> str:
        return self.text


def keywords_cache_key(keywords: list[Keyword] | tuple[Keyword, ...]) -> tuple:
    """Order-sensitive hashable key for a whole keyword request.

    Keywords are frozen dataclasses, so the tuple's auto-generated
    equality/hash already covers every field — including any added later.
    """
    return tuple(keywords)


@dataclass(frozen=True, slots=True)
class QueryFragmentMapping:
    """Definition 4: (keyword, query fragment, similarity score)."""

    keyword: Keyword
    fragment: QueryFragment
    score: float

    def __str__(self) -> str:
        return f"{self.keyword.text!r} -> {self.fragment} ({self.score:.3f})"


@dataclass(frozen=True, slots=True)
class Configuration:
    """Definition 5: one mapping per keyword, with aggregate scores.

    ``sigma_score`` is the word-similarity score (Score_σ), ``qfg_score``
    the log-driven score (Score_QFG), and ``score`` their λ-combination.
    """

    mappings: tuple[QueryFragmentMapping, ...]
    sigma_score: float
    qfg_score: float
    score: float

    def fragments(self) -> list[QueryFragment]:
        return [mapping.fragment for mapping in self.mappings]

    def non_relation_fragments(self) -> list[QueryFragment]:
        """Fragments outside the FROM context (used by Score_QFG and KW eval)."""
        return [
            mapping.fragment
            for mapping in self.mappings
            if mapping.fragment.context is not FragmentContext.FROM
        ]

    def fragment_key_set(
        self,
        obscurity: Obscurity,
        *,
        exclude: tuple[FragmentContext, ...] = (
            FragmentContext.FROM,
            FragmentContext.GROUP_BY,
        ),
    ) -> frozenset[str]:
        """The set of fragment keys this configuration maps to.

        This is the comparison currency for both keyword-mapping
        evaluation (``eval.metrics.kw_correct``) and the fuzzer's
        mutation-invariance oracle: two configurations are "the same
        answer" when their keyed fragments agree at the given obscurity.
        FROM fragments (relation scaffolding) and GROUP BY fragments
        (implied by aggregation metadata, not keyword content) are
        excluded by default, mirroring the paper's KW-level scoring.
        """
        return frozenset(
            mapping.fragment.key(obscurity)
            for mapping in self.mappings
            if mapping.fragment.context not in exclude
        )

    def relation_bag(self) -> list[str]:
        """Relations implied by this configuration (the bag B_R).

        Each referenced relation appears once — except when the
        configuration holds several *equality predicates with distinct
        values on the same attribute* (the paper's Example 7: "papers by
        both John and Jane"), which demand one relation instance per
        value, triggering the FORK/self-join machinery downstream.
        """
        from collections import Counter, defaultdict

        counts: Counter[str] = Counter()
        equality_values: dict[tuple[str, str], set] = defaultdict(set)
        for mapping in self.mappings:
            fragment = mapping.fragment
            if fragment.relation is None:
                continue
            counts[fragment.relation] = max(counts[fragment.relation], 1)
            if (
                fragment.kind.value == "predicate"
                and fragment.operator == "="
                and fragment.value is not None
                and fragment.attribute is not None
            ):
                key = (fragment.relation, fragment.attribute)
                equality_values[key].add(fragment.value)
                counts[fragment.relation] = max(
                    counts[fragment.relation], len(equality_values[key])
                )
        bag: list[str] = []
        for relation in sorted(counts):
            bag.extend([relation] * counts[relation])
        return bag

    def __str__(self) -> str:
        inner = "; ".join(str(mapping) for mapping in self.mappings)
        return f"[{inner}] score={self.score:.4f}"
