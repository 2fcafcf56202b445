"""NaLIR and NaLIR+ (Section VII-A2).

NaLIR [22] parses the raw NLQ itself (unlike Pipeline, which receives
hand-parsed keywords).  Our simulation:

* front-end — :class:`~repro.nlidb.nalir_parser.NalirParser`, with the
  parse failure modes the paper's error analysis documents;
* keyword mapping — WordNet-style similarity (a curated lexicon with a
  flat default; no embedding backoff), candidates scored independently;
* join paths — preset (unit) schema-graph weights, i.e. shortest paths.

NaLIR+ keeps the same front-end but defers keyword mapping and join path
inference to a :class:`~repro.core.templar.Templar` instance, exactly as
Figure 2 prescribes.  Because both variants share the parser, the
augmentation gain is bounded by parse quality — reproducing the paper's
observation that "NLIDBs with better parsers will reap greater benefits".
"""

from __future__ import annotations

from repro.core.interface import Keyword
from repro.core.join_inference import JoinPathGenerator
from repro.core.keyword_mapper import KeywordMapper, ScoringParams
from repro.core.templar import Templar
from repro.db.database import Database
from repro.embedding.model import SimilarityModel
from repro.errors import GraphError, TranslationError
from repro.nlidb.base import NLIDB, TranslationResult
from repro.nlidb.nalir_parser import NalirParser, ParsedNLQ
from repro.nlidb.sql_builder import build_sql
from repro.obs.trace import stage


class NalirNLIDB(NLIDB):
    """NaLIR (templar=None) or NaLIR+ (templar given)."""

    def __init__(
        self,
        database: Database,
        similarity: SimilarityModel,
        parser: NalirParser,
        templar: Templar | None = None,
        *,
        max_configurations: int = 10,
        params: ScoringParams | None = None,
    ) -> None:
        self.database = database
        self.parser = parser
        self.templar = templar
        self.max_configurations = max_configurations
        if templar is not None:
            self.name = "NaLIR+"
            self._mapper = templar.keyword_mapper
            self._joins = templar.join_generator
        else:
            self.name = "NaLIR"
            self._mapper = KeywordMapper(
                database, similarity, qfg=None, params=params or ScoringParams()
            )
            self._joins = JoinPathGenerator(
                database.catalog, qfg=None, use_log_weights=False
            )

    # ----------------------------------------------------------- interface

    def parse(self, nlq: str) -> ParsedNLQ:
        return self.parser.parse(nlq)

    def translate_nlq(self, nlq: str) -> list[TranslationResult]:
        """Full NaLIR path: parse the raw NLQ, then translate."""
        parsed = self.parse(nlq)
        if parsed.failed:
            return []
        return self.translate(parsed.keywords)

    def translate(self, keywords: list[Keyword]) -> list[TranslationResult]:
        # Beam-limited enumeration: only the top configurations are built.
        with stage("keyword_mapping"):
            configurations = self._mapper.map_keywords(
                keywords, limit=self.max_configurations
            )
        results: list[TranslationResult] = []
        for configuration in configurations:
            bag = configuration.relation_bag()
            if not bag:
                continue
            try:
                with stage("join_inference"):
                    paths = self._joins.infer(bag, ties_only=True)
            except GraphError:
                continue
            if not paths:
                continue
            # Tied-cost join paths all surface (see PipelineNLIDB._realize).
            for path in paths[:3]:
                try:
                    query = build_sql(configuration, path, self.database.catalog)
                except TranslationError:
                    continue
                results.append(
                    TranslationResult(
                        query=query,
                        configuration=configuration,
                        join_path=path,
                        config_score=configuration.score,
                        join_score=path.score,
                    )
                )
        results.sort(key=lambda r: (-r.config_score, -r.join_score, r.sql))
        return results
