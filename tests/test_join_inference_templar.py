"""Tests for INFERJOINS and the Templar facade."""

import pickle

import pytest

from repro.core import (
    FragmentContext,
    JoinPathGenerator,
    Keyword,
    KeywordMetadata,
    QueryLog,
    Templar,
)
from repro.db.catalog import ColumnRefSpec
from repro.errors import GraphError, ReproError
from repro.nlidb import PipelineNLIDB
from repro.schema_graph import JoinGraph, steiner
from repro.serving.cache import LRUCache
from repro.serving.service import CachingJoinPathGenerator


class TestJoinPathGenerator:
    def test_single_relation(self, mini_db):
        generator = JoinPathGenerator(mini_db.catalog)
        paths = generator.infer(["publication"])
        assert paths[0].edges == []
        assert paths[0].score == 1.0

    def test_direct_join(self, mini_db):
        generator = JoinPathGenerator(mini_db.catalog)
        best = generator.best(["publication", "journal"])
        assert best.score == 1.0
        assert len(best.edges) == 1

    def test_two_hop_join(self, mini_db):
        generator = JoinPathGenerator(mini_db.catalog)
        best = generator.best(["author", "publication"])
        assert "writes" in best.instances
        assert best.score == 0.5

    def test_self_join_bag(self, mini_db):
        generator = JoinPathGenerator(mini_db.catalog)
        best = generator.best(["author", "author", "publication"])
        assert "author#2" in best.instances
        assert "writes#2" in best.instances
        assert len(best.edges) == 4

    def test_log_weights_change_cost(self, mini_db, mini_log):
        qfg = mini_log.build_qfg(mini_db.catalog)
        log_generator = JoinPathGenerator(mini_db.catalog, qfg=qfg)
        plain = JoinPathGenerator(mini_db.catalog)
        log_path = log_generator.best(["publication", "journal"])
        plain_path = plain.best(["publication", "journal"])
        assert log_path.cost < plain_path.cost  # frequent joins are cheap

    def test_log_weights_disabled(self, mini_db, mini_log):
        qfg = mini_log.build_qfg(mini_db.catalog)
        generator = JoinPathGenerator(
            mini_db.catalog, qfg=qfg, use_log_weights=False
        )
        path = generator.best(["publication", "journal"])
        assert path.cost == 1.0  # unit weights

    def test_empty_bag_rejected(self, mini_db):
        with pytest.raises(GraphError):
            JoinPathGenerator(mini_db.catalog).infer([])

    def test_unknown_relation_rejected(self, mini_db):
        with pytest.raises(GraphError):
            JoinPathGenerator(mini_db.catalog).infer(["nope"])

    def test_ranked_alternatives(self, mini_db):
        generator = JoinPathGenerator(mini_db.catalog, top_k=3)
        paths = generator.infer(["author", "journal"])
        costs = [p.cost for p in paths]
        assert costs == sorted(costs)

    def test_relation_of_mapping(self, mini_db):
        generator = JoinPathGenerator(mini_db.catalog)
        best = generator.best(["author", "author"])
        assert best.relation_of("author#2") == "author"


class TestCompiledJoinGraph:
    """The join graph is compiled once per QFG revision."""

    def test_compiled_once_per_revision(self, mini_db, mini_log):
        qfg = mini_log.build_qfg(mini_db.catalog)
        generator = JoinPathGenerator(mini_db.catalog, qfg=qfg)
        generator.infer(["author", "journal"])
        compiled = generator._compiled()[0]
        generator.infer(["publication", "journal"])
        assert generator._compiled()[0] is compiled
        qfg.add_query([])  # no fragments: no revision bump
        assert generator._compiled()[0] is compiled
        qfg.merge(mini_log.build_qfg(mini_db.catalog))  # bumps in place
        assert generator._compiled()[0] is not compiled

    def test_swapped_graph_with_equal_revision_recompiles(
        self, mini_db, mini_log
    ):
        qfg = mini_log.build_qfg(mini_db.catalog)
        generator = JoinPathGenerator(mini_db.catalog, qfg=qfg)
        compiled = generator._compiled()[0]
        twin = qfg.snapshot()
        assert twin.revision == qfg.revision
        generator.qfg = twin
        assert generator._compiled()[0] is not compiled

    def test_weight_evaluated_once_per_relation_pair(
        self, mini_db, mini_log, monkeypatch
    ):
        calls = []
        original = JoinGraph.edge_weight

        def counted(self, edge, weight_fn):
            calls.append((self.relation_of(edge.source),
                          self.relation_of(edge.target)))
            return original(self, edge, weight_fn)

        monkeypatch.setattr(JoinGraph, "edge_weight", counted)
        qfg = mini_log.build_qfg(mini_db.catalog)
        generator = JoinPathGenerator(mini_db.catalog, qfg=qfg)
        for bag in (
            ["author", "journal"],
            ["author", "author", "publication"],  # FORK clones writes
            ["publication", "journal"],
        ):
            generator.infer(bag)
        assert sorted(calls) == sorted(set(calls))
        assert len(calls) == len(mini_db.catalog.foreign_keys)

    def test_ties_only_is_the_tied_prefix(self, mas_dataset):
        generator = JoinPathGenerator(mas_dataset.database.catalog)
        full = generator.infer(["publication", "domain"])
        tied = generator.infer(["publication", "domain"], ties_only=True)
        assert [p.cost for p in full] == [3.0, 3.0, 4.0]
        assert [p.describe() for p in tied] == [
            p.describe() for p in full[:2]
        ]

    def test_last_tree_children_never_solved(self, mas_dataset, monkeypatch):
        solves = []
        original = steiner.steiner_tree

        def counted(*args, **kwargs):
            solves.append(kwargs.get("banned", frozenset()))
            return original(*args, **kwargs)

        monkeypatch.setattr(steiner, "steiner_tree", counted)
        graph = JoinGraph.from_catalog(mas_dataset.database.catalog)
        trees = steiner.top_k_steiner_trees(graph, ["publication", "domain"], 1)
        assert len(trees) == 1
        assert solves == [frozenset()]

    def test_cache_keys_on_the_mode(self, mas_dataset):
        inner = JoinPathGenerator(mas_dataset.database.catalog)
        cached = CachingJoinPathGenerator(inner, LRUCache(8, "joins"), lambda: 0)
        assert len(cached.infer(["publication", "domain"], ties_only=True)) == 2
        assert len(cached.infer(["publication", "domain"])) == 3
        assert len(cached.best(["publication", "domain"]).edges) == 3


class TestSlottedResults:
    def test_translation_results_pickle_and_have_no_dict(self, mini_templar):
        system = PipelineNLIDB(
            mini_templar.database, mini_templar.similarity, mini_templar
        )
        keywords = [
            Keyword("papers", KeywordMetadata(FragmentContext.SELECT)),
            Keyword("John Smith", KeywordMetadata(FragmentContext.WHERE)),
        ]
        results = system.translate(keywords)
        assert results
        result = results[0]
        for value in (
            result, result.query, result.configuration, result.join_path,
            result.join_path.tree, result.configuration.mappings[0],
        ):
            assert not hasattr(value, "__dict__"), type(value).__name__
        clone = pickle.loads(pickle.dumps(results))
        assert clone == results
        assert [r.sql for r in clone] == [r.sql for r in results]


class TestTemplarFacade:
    def test_interface_calls(self, mini_templar):
        keywords = [
            Keyword("papers", KeywordMetadata(FragmentContext.SELECT)),
            Keyword(
                "after 2000",
                KeywordMetadata(FragmentContext.WHERE, comparison_op=">"),
            ),
        ]
        configs = mini_templar.map_keywords(keywords)
        assert configs
        paths = mini_templar.infer_joins(["publication", "journal"])
        assert paths

    def test_infer_joins_accepts_attributes(self, mini_templar):
        paths = mini_templar.infer_joins(
            [ColumnRefSpec("publication", "title"), "journal"]
        )
        assert paths[0].instances == ["journal", "publication"]

    def test_toggles_isolate_components(self, mini_db, mini_model, mini_log):
        keywords_only = Templar(
            mini_db, mini_model, mini_log, use_log_joins=False
        )
        assert keywords_only.keyword_mapper.qfg is not None
        path = keywords_only.join_generator.best(["publication", "journal"])
        assert path.cost == 1.0

        joins_only = Templar(
            mini_db, mini_model, mini_log, use_log_keywords=False
        )
        assert joins_only.keyword_mapper.qfg is None
        assert joins_only.join_generator.qfg is not None

    def test_observe_query_updates_qfg(self, mini_db, mini_model):
        templar = Templar(mini_db, mini_model, None)
        assert templar.qfg is None
        templar.observe_query("SELECT title FROM publication")
        assert templar.qfg.total_queries == 1
        templar.observe_query("SELECT name FROM journal")
        assert templar.qfg.total_queries == 2

    def test_observe_invalid_query_raises(self, mini_db, mini_model):
        templar = Templar(mini_db, mini_model, None)
        with pytest.raises(ReproError):
            templar.observe_query("NOT SQL AT ALL (")

    def test_repr(self, mini_templar):
        assert "Templar" in repr(mini_templar)
