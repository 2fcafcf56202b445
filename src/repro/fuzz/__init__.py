"""Adversarial workload fuzzer + differential correctness harness.

Deterministic, seed-driven case generation (:mod:`~repro.fuzz.generator`,
:mod:`~repro.fuzz.mutators`) over the paper benchmark and a generated
100+-table schema, checked by five oracles that need no gold SQL
(:mod:`~repro.fuzz.oracles`), with a shrinker (:mod:`~repro.fuzz.shrink`)
and a committed regression corpus (:mod:`~repro.fuzz.corpus`).  See
``docs/fuzzing.md`` for the operator guide.
"""

from repro.fuzz.corpus import CorpusEntry, load_corpus, write_case
from repro.fuzz.generator import (
    FuzzCase, build_pool, case_stream, stream_digest,
)
from repro.fuzz.mutators import (
    ADVERSARIAL, MUTATORS, PRESERVING, apply_mutation, is_preserving,
    synonym_map,
)
from repro.fuzz.oracles import DEFAULT_WORKLOADS, ORACLES, FuzzContext
from repro.fuzz.runner import FuzzReport, emit_fuzz_snapshot, run_fuzz
from repro.fuzz.shrink import shrink_case

__all__ = [
    "ADVERSARIAL",
    "DEFAULT_WORKLOADS",
    "MUTATORS",
    "ORACLES",
    "PRESERVING",
    "CorpusEntry",
    "FuzzCase",
    "FuzzContext",
    "FuzzReport",
    "apply_mutation",
    "build_pool",
    "case_stream",
    "emit_fuzz_snapshot",
    "is_preserving",
    "load_corpus",
    "run_fuzz",
    "shrink_case",
    "stream_digest",
    "synonym_map",
    "write_case",
]
