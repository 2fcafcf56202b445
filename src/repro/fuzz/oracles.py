"""Differential and metamorphic oracles: correctness without gold SQL.

The repo ships several independent implementations of the same
computation; the fuzzer turns each redundancy into an oracle.  A case
passes when every applicable oracle agrees — no annotation needed:

* **beam** — best-first beam enumeration must stay *bit-identical* to
  the brute-force full ranking (same mappings, same float scores, same
  tie-breaks) at every obscurity level, under every mutation.
* **cache** — a cache-enabled engine, a ``cache_size=0`` engine, and a
  control-plane-backed engine must serve identical SQL and (wire-rounded)
  scores for identical requests.
* **gateway** — the multi-tenant gateway must agree with a standalone
  single-tenant engine, modulo provenance/timings.
* **mutation** — semantics-preserving mutations (see
  :mod:`repro.fuzz.mutators`) must not change the top-ranked fragment
  set (:meth:`~repro.core.interface.Configuration.fragment_key_set`).
* **joins** — the compiled join solver must return, for every relation
  bag the case's configurations imply, the same full ranked list
  (signature and cost) as the pre-compilation reference solver
  (:mod:`repro.fuzz.reference_joins`) in top-k mode, and the same tied
  prefix in ties-only mode, under log and unit weights.

Each oracle returns ``None`` on agreement or a JSON-plain violation
record; the runner turns unexpected exceptions into ``crash`` records.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, field
from pathlib import Path

from repro.api import Engine, EngineConfig
from repro.core.candidate_index import CandidateIndex
from repro.core.fragments import Obscurity
from repro.core.join_inference import JoinPathGenerator
from repro.core.keyword_mapper import KeywordMapper, ScoringParams
from repro.core.log import QueryLog
from repro.embedding import CompositeModel
from repro.fuzz.generator import FuzzCase
from repro.fuzz.mutators import synonym_map
from repro.fuzz.reference_joins import reference_infer, tie_prefix
from repro.gateway import Gateway, GatewayConfig, TenantConfig
from repro.serving.wire import TranslationRequest, result_to_dict

#: Workloads the harness fuzzes by default: the paper benchmark plus the
#: generated 100+-table schema.
DEFAULT_WORKLOADS = ("mas", "wide")

#: Full-ranking cap for the brute-force reference: high enough that the
#: reference never degrades, so beam is compared against the true
#: ranking (same discipline as ``tests/test_beam_search.py``).
_REFERENCE_PARAMS = ScoringParams(max_configurations=10_000_000)

ORACLES = ("beam", "cache", "gateway", "mutation", "joins")


def response_signature(response, limit: int | None) -> tuple:
    """What a client observes: ranked (sql, scores) at wire rounding.

    Wire payloads round scores to 6 places (``result_to_dict``) and the
    durable control-plane cache stores exactly that payload, so the
    cross-engine comparison happens at the wire contract, not at raw
    float width.  Provenance and timings are intentionally excluded.
    """
    shown = response.results if limit is None else response.results[:limit]
    return tuple(
        (entry["sql"], entry["config_score"], entry["join_score"])
        for entry in (result_to_dict(result) for result in shown)
    )


@dataclass
class WorkloadContext:
    """Everything needed to run every oracle against one workload."""

    name: str
    dataset: object
    synonyms: dict
    reference_mappers: dict = field(default_factory=dict)
    beam_mappers: dict = field(default_factory=dict)
    #: obscurity -> log-weighted generator, plus ``None`` -> unit weights
    join_generators: dict = field(default_factory=dict)
    #: (generator key, relation bag) pairs the joins oracle already passed
    joins_checked: set = field(default_factory=set)
    engine_cached: Engine | None = None
    engine_uncached: Engine | None = None
    engine_control_plane: Engine | None = None

    @classmethod
    def build(cls, name: str, control_plane_dir: Path) -> "WorkloadContext":
        from repro.datasets import load_dataset

        dataset = load_dataset(name)
        database = dataset.database
        model = CompositeModel(dataset.lexicon)
        log = QueryLog([item.gold_sql for item in dataset.usable_items()])
        index = CandidateIndex.from_database(database)
        ctx = cls(
            name=name,
            dataset=dataset,
            synonyms=synonym_map(dataset.lexicon),
        )
        ctx.join_generators[None] = JoinPathGenerator(
            database.catalog, use_log_weights=False
        )
        for obscurity in Obscurity:
            qfg = log.build_qfg(database.catalog, obscurity)
            ctx.reference_mappers[obscurity] = KeywordMapper(
                database, model, qfg=qfg, params=_REFERENCE_PARAMS,
                use_index=False,
            )
            ctx.beam_mappers[obscurity] = KeywordMapper(
                database, model, qfg=qfg, params=_REFERENCE_PARAMS,
                candidate_index=index,
            )
            ctx.join_generators[obscurity] = JoinPathGenerator(
                database.catalog, qfg=qfg
            )
        ctx.engine_cached = Engine.from_config(EngineConfig(dataset=name))
        ctx.engine_uncached = Engine.from_config(
            EngineConfig(dataset=name, cache_size=0)
        )
        ctx.engine_control_plane = Engine.from_config(
            EngineConfig(
                dataset=name,
                control_plane_path=str(control_plane_dir / f"{name}.sqlite3"),
            )
        )
        return ctx

    def close(self) -> None:
        for engine in (
            self.engine_cached, self.engine_uncached,
            self.engine_control_plane,
        ):
            if engine is not None:
                engine.close()


class FuzzContext:
    """All workload contexts plus one mixed-tenant gateway.

    Use as a context manager; owns a temporary directory for the
    control-plane stores so every run starts from a cold durable cache
    (a warm one would still have to agree — the oracle compares at the
    wire contract — but cold keeps runs independent).
    """

    def __init__(self, workloads=DEFAULT_WORKLOADS) -> None:
        self._tmp = tempfile.TemporaryDirectory(prefix="repro-fuzz-")
        tmp_path = Path(self._tmp.name)
        self.workloads = {
            name: WorkloadContext.build(name, tmp_path) for name in workloads
        }
        self.gateway = Gateway(
            GatewayConfig(
                tenants={
                    name: TenantConfig(engine=EngineConfig(dataset=name))
                    for name in workloads
                }
            )
        )
        self.gateway.start()

    def __enter__(self) -> "FuzzContext":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        self.gateway.close()
        for ctx in self.workloads.values():
            ctx.close()
        self._tmp.cleanup()

    # ------------------------------------------------------------- oracles

    def check_beam(self, case: FuzzCase) -> dict | None:
        """Beam enumeration ≡ brute-force full ranking, bit-identical."""
        ctx = self.workloads[case.workload]
        keywords = case.mutated_keywords(ctx.synonyms)
        obscurity = Obscurity(case.obscurity)
        full = ctx.reference_mappers[obscurity].map_keywords(list(keywords))
        beam = ctx.beam_mappers[obscurity].map_keywords(
            list(keywords), limit=case.limit
        )
        if beam != full[: case.limit]:
            return _violation(
                "beam", case,
                f"beam returned {len(beam)} configuration(s) != "
                f"full[:{case.limit}] ({len(full)} total); first divergence: "
                f"{_first_divergence(beam, full[: case.limit])}",
            )
        return None

    def check_cache(self, case: FuzzCase) -> dict | None:
        """Cached, uncached, and control-plane engines serve the same."""
        ctx = self.workloads[case.workload]
        request = self._request(case, ctx)
        engines = {
            "cached": ctx.engine_cached,
            "uncached": ctx.engine_uncached,
            "control_plane": ctx.engine_control_plane,
        }
        signatures = {
            label: response_signature(engine.translate(request), case.limit)
            for label, engine in engines.items()
        }
        baseline = signatures["uncached"]
        for label, signature in signatures.items():
            if signature != baseline:
                return _violation(
                    "cache", case,
                    f"engine {label!r} diverged from 'uncached': "
                    f"{signature!r} != {baseline!r}",
                )
        return None

    def check_gateway(self, case: FuzzCase) -> dict | None:
        """Gateway tenant routing ≡ a standalone single-tenant engine."""
        ctx = self.workloads[case.workload]
        request = self._request(case, ctx)
        via_gateway = response_signature(
            self.gateway.translate(case.tenant, request), case.limit
        )
        standalone = response_signature(
            ctx.engine_cached.translate(request), case.limit
        )
        if via_gateway != standalone:
            return _violation(
                "gateway", case,
                f"gateway tenant {case.tenant!r} served {via_gateway!r}, "
                f"standalone engine served {standalone!r}",
            )
        return None

    def check_mutation(self, case: FuzzCase) -> dict | None:
        """Preserving mutations keep the top-ranked fragment set."""
        if not case.mutations or not case.is_preserving():
            return None
        ctx = self.workloads[case.workload]
        obscurity = Obscurity(case.obscurity)
        mapper = ctx.beam_mappers[obscurity]
        base = mapper.map_keywords(case.base_keywords(), limit=1)
        mutated = mapper.map_keywords(
            case.mutated_keywords(ctx.synonyms), limit=1
        )
        base_keys = base[0].fragment_key_set(obscurity) if base else frozenset()
        mutated_keys = (
            mutated[0].fragment_key_set(obscurity) if mutated else frozenset()
        )
        if base_keys != mutated_keys:
            return _violation(
                "mutation", case,
                f"preserving mutations changed the top fragment set: "
                f"{sorted(base_keys)} -> {sorted(mutated_keys)} "
                f"(texts {[k.text for k in case.base_keywords()]!r} -> "
                f"{case.mutated_texts(ctx.synonyms)!r})",
            )
        return None

    def check_joins(self, case: FuzzCase) -> dict | None:
        """Compiled join solver ≡ the reference solver, full ranked lists."""
        ctx = self.workloads[case.workload]
        obscurity = Obscurity(case.obscurity)
        configurations = ctx.beam_mappers[obscurity].map_keywords(
            case.mutated_keywords(ctx.synonyms), limit=case.limit
        )
        for configuration in configurations:
            bag = configuration.relation_bag()
            if not bag:
                continue
            for key in (obscurity, None):
                if (key, tuple(bag)) in ctx.joins_checked:
                    continue
                generator = ctx.join_generators[key]
                expected = reference_infer(generator, bag)
                for ties_only, want in (
                    (False, expected), (True, tie_prefix(expected)),
                ):
                    got = [
                        (path.tree.signature(), path.cost)
                        for path in generator.infer(bag, ties_only=ties_only)
                    ]
                    if got != want:
                        return _violation(
                            "joins", case,
                            f"bag {bag} ({'unit' if key is None else 'log'} "
                            f"weights, ties_only={ties_only}): compiled "
                            f"solver returned {got!r}, reference {want!r}",
                        )
                ctx.joins_checked.add((key, tuple(bag)))
        return None

    def check_case(self, case: FuzzCase) -> dict | None:
        """Run every applicable oracle; first violation wins."""
        for oracle in (
            self.check_beam, self.check_cache,
            self.check_gateway, self.check_mutation, self.check_joins,
        ):
            violation = oracle(case)
            if violation is not None:
                return violation
        return None

    def checker(self, oracle: str):
        """The bound check function for one oracle name (shrinker hook)."""
        return {
            "beam": self.check_beam,
            "cache": self.check_cache,
            "gateway": self.check_gateway,
            "mutation": self.check_mutation,
            "joins": self.check_joins,
        }[oracle]

    # ------------------------------------------------------------- helpers

    def _request(self, case: FuzzCase, ctx: WorkloadContext):
        return TranslationRequest(
            keywords=tuple(case.mutated_keywords(ctx.synonyms)),
            limit=case.limit,
            observe=False,
        )


def _violation(oracle: str, case: FuzzCase, detail: str) -> dict:
    return {"oracle": oracle, "case": case.to_dict(), "detail": detail}


def _first_divergence(beam, expected) -> str:
    for rank, (got, want) in enumerate(zip(beam, expected)):
        if got != want:
            return f"rank {rank}: {got} != {want}"
    return f"length {len(beam)} != {len(expected)}"
