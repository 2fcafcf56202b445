"""Engineering micro-benchmarks of the core operations.

Not part of the paper's evaluation; these keep the implementation honest
about the costs that matter in deployment: QFG construction from a log,
keyword mapping latency, Steiner-tree join inference, and full-text
search.

Run directly (``PYTHONPATH=src python benchmarks/bench_perf_core.py``)
for the **baseline-vs-indexed MAPKEYWORDS comparison**: the seed
scan-everything/full-product mapper against the CandidateIndex + beam
path, on the full MAS workload, with configuration-level parity asserted
(bit-identical scores) and a ≥ 3x warm-path speedup gate.  Results land
in ``benchmarks/results/perf_core.txt`` and ``perf_core.json`` (the
README performance table is generated from the JSON).  ``--smoke``
shrinks the workload for CI, where the step is advisory.

The same run times **cold join inference** on ``mas`` and ``wide``: the
pre-compilation solver (``repro.fuzz.reference_joins``, full top-k)
against the compiled solver in the ties-only mode the serving front ends
use, with ranked-list parity asserted and the ``wide`` speedup gated at
``JOIN_SPEEDUP_GATE`` (``perf_core_joins.txt``).  The snapshot's
``machine.cpus`` records the CPU count.
"""

import json
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
from _harness import RESULTS_DIR, format_rows, publish  # noqa: E402
from snapshot import emit_snapshot  # noqa: E402

from repro.core import QueryLog, Templar
from repro.core.fragments import fragments_of_sql
from repro.core.keyword_mapper import KeywordMapper
from repro.core.qfg import QueryFragmentGraph
from repro.datasets import load_dataset
from repro.embedding.model import CompositeModel
from repro.schema_graph import CompiledJoinGraph, JoinGraph, steiner_tree

#: Required warm-path speedup of indexed+beam MAPKEYWORDS over the seed.
SPEEDUP_GATE = 3.0

#: Maximum tracing overhead on the warm cached translate path (percent).
TRACING_OVERHEAD_GATE_PCT = 5.0

#: Maximum request-journal overhead on the warm serving wire path
#: (NLQ in, parse on every request, translate served from cache).
JOURNAL_OVERHEAD_GATE_PCT = 5.0

#: Maximum SLO-evaluator + drift-monitor overhead on the same warm wire
#: path.  The per-request bill is one DriftMonitor.observe (two bisects
#: + a memoized fragment digest under a lock); SLO evaluation itself is
#: scrape-cadence work and never runs on the request path.
SLO_OVERHEAD_GATE_PCT = 5.0

#: Required cold join-inference speedup on ``wide``: the compiled,
#: ties-only serving call against the pre-compilation solver, same run.
JOIN_SPEEDUP_GATE = 10.0

#: Case-stream seed of the join phase's relation bags (the loadtest's).
JOIN_SEED = 2019

PASSES = 3


@pytest.fixture(scope="module")
def mas():
    return load_dataset("mas")


@pytest.fixture(scope="module")
def mas_log(mas):
    return QueryLog([item.gold_sql for item in mas.usable_items()])


@pytest.fixture(scope="module")
def templar(mas, mas_log):
    return Templar(mas.database, CompositeModel(mas.lexicon), mas_log)


def test_perf_qfg_construction(benchmark, mas, mas_log):
    """Build the QFG from the full MAS log (~194 statements)."""
    graph = benchmark(mas_log.build_qfg, mas.database.catalog)
    assert graph.total_queries > 0


def test_perf_fragment_extraction(benchmark, mas):
    """Parse + bind + fragment one representative log statement."""
    sql = mas.usable_items()[0].gold_sql
    fragments = benchmark(fragments_of_sql, sql, mas.database.catalog)
    assert fragments


def test_perf_keyword_mapping(benchmark, mas, templar):
    """MAPKEYWORDS on a two-keyword NLQ."""
    item = next(i for i in mas.usable_items() if len(i.keywords) == 2)
    configs = benchmark(templar.map_keywords, item.keywords)
    assert configs


def test_perf_join_inference(benchmark, templar):
    """INFERJOINS across the publication-domain trap."""
    paths = benchmark(templar.infer_joins, ["publication", "domain"])
    assert paths


def test_perf_steiner_default(benchmark, mas):
    """Raw KMB Steiner solve on the MAS join graph."""
    graph = JoinGraph.from_catalog(mas.database.catalog)
    tree = benchmark(steiner_tree, graph, ["author", "domain", "conference"])
    assert tree is not None


def test_perf_fulltext_search(benchmark, mas):
    """Boolean-mode full-text probe over all searchable columns."""
    index = mas.database.fulltext
    hits = benchmark(index.search, ["query", "optimization"])
    assert hits


def test_perf_full_translation(benchmark, mas, templar):
    """End-to-end Pipeline+ translation of one NLQ."""
    from repro.nlidb import PipelineNLIDB

    system = PipelineNLIDB(mas.database, templar.similarity, templar)
    item = mas.usable_items()[0]
    results = benchmark(system.translate, item.keywords)
    assert results


def test_perf_keyword_mapping_indexed(benchmark, mas, templar):
    """MAPKEYWORDS via the candidate index + beam (two-keyword NLQ)."""
    item = next(i for i in mas.usable_items() if len(i.keywords) == 2)
    templar.candidate_index  # build outside the timed region
    configs = benchmark(templar.map_keywords, item.keywords, 10)
    assert configs


# --------------------------------------------------------------------------
# Standalone mode: baseline-vs-indexed MAPKEYWORDS comparison
# --------------------------------------------------------------------------


def _best_of(fn, passes: int = PASSES) -> float:
    best = float("inf")
    for _ in range(passes):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def bench_mapkeywords(smoke: bool) -> dict:
    """Seed vs indexed MAPKEYWORDS over the MAS workload, parity-checked."""
    dataset = load_dataset("mas")
    log = QueryLog([item.gold_sql for item in dataset.usable_items()])
    qfg = log.build_qfg(dataset.database.catalog)
    model = CompositeModel(dataset.lexicon)
    requests = [
        list(item.keywords) for item in dataset.usable_items() if item.keywords
    ]
    if smoke:
        requests = requests[:25]
    dataset.database.fulltext  # shared lazy structure, built up front

    seed = KeywordMapper(dataset.database, model, qfg=qfg, use_index=False)
    indexed = KeywordMapper(dataset.database, model, qfg=qfg)

    # Parity first: identical configurations and bit-identical scores on
    # the full ranking, and the beam prefix must equal the full prefix.
    for keywords in requests:
        full_seed = seed.map_keywords(keywords)
        full_indexed = indexed.map_keywords(keywords)
        assert full_indexed == full_seed, f"parity broken for {keywords}"
        assert indexed.map_keywords(keywords, limit=10) == full_seed[:10]

    cold_started = time.perf_counter()
    rebuilt = KeywordMapper(dataset.database, model, qfg=qfg)
    rebuilt.index
    index_build_s = time.perf_counter() - cold_started

    seed_s = _best_of(
        lambda: [seed.map_keywords(keywords) for keywords in requests]
    )
    warm_s = _best_of(
        lambda: [
            indexed.map_keywords(keywords, limit=10) for keywords in requests
        ]
    )
    return {
        "workload": "mas",
        "requests": len(requests),
        "index_build_ms": index_build_s * 1000.0,
        "seed_ms": seed_s * 1000.0,
        "indexed_ms": warm_s * 1000.0,
        "speedup": seed_s / warm_s,
        "per_request_seed_ms": seed_s * 1000.0 / len(requests),
        "per_request_indexed_ms": warm_s * 1000.0 / len(requests),
    }


def _relation_bags(dataset, qfg, count: int) -> list[list[str]]:
    """Distinct relation bags of the fuzz case stream's configurations.

    The bags a cold request hands join inference: the stream's (mutated)
    keywords, mapped to their top configurations as the serving front
    ends ask for them.
    """
    import random

    from repro.fuzz import build_pool, case_stream, synonym_map

    name = dataset.name
    mapper = KeywordMapper(
        dataset.database, CompositeModel(dataset.lexicon), qfg=qfg
    )
    synonyms = synonym_map(dataset.lexicon)
    pools = {name: build_pool(random.Random(JOIN_SEED), name,
                              dataset.usable_items())}
    bags: dict[tuple[str, ...], None] = {}
    for case in case_stream(JOIN_SEED, count, pools):
        keywords = case.mutated_keywords(synonyms)
        for configuration in mapper.map_keywords(keywords, limit=10):
            bag = configuration.relation_bag()
            if bag:
                bags[tuple(bag)] = None
    return [list(bag) for bag in bags]


def _solve_counts(generator, bags, reference: bool) -> int:
    """Steiner solves the old (``reference``) or new serving call makes."""
    from repro.fuzz import reference_joins
    from repro.schema_graph import steiner

    module = reference_joins if reference else steiner
    original = module.steiner_tree
    solves = 0

    def counted(*args, **kwargs):
        nonlocal solves
        solves += 1
        return original(*args, **kwargs)

    module.steiner_tree = counted
    try:
        for bag in bags:
            if reference:
                reference_joins.reference_infer(generator, bag)
            else:
                generator.infer(bag, ties_only=True)
    finally:
        module.steiner_tree = original
    return solves


def bench_join_inference(smoke: bool) -> dict:
    """Cold INFERJOINS: the pre-compilation solver vs the compiled one.

    Each dataset's bags are timed one call at a time, best of
    ``PASSES``, in the same run: the reference is the old serving call
    (full top-k, weights re-evaluated per relaxation), the new one is
    what the serving front ends call now (compiled graph, ties-only).
    Parity is asserted first: the full ranked lists (signature and
    cost) agree in top-k mode, the tied prefixes in ties-only mode.
    """
    from repro.core.join_inference import JoinPathGenerator
    from repro.fuzz.reference_joins import reference_infer, tie_prefix

    def ranked(paths):
        return [(path.tree.signature(), path.cost) for path in paths]

    def percentile(samples, fraction):
        ordered = sorted(samples)
        return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]

    result: dict = {}
    for name in ("mas", "wide"):
        dataset = load_dataset(name)
        log = QueryLog([item.gold_sql for item in dataset.usable_items()])
        qfg = log.build_qfg(dataset.database.catalog)
        bags = _relation_bags(dataset, qfg, 40 if smoke else 200)
        generator = JoinPathGenerator(dataset.database.catalog, qfg=qfg)
        for bag in bags:
            expected = reference_infer(generator, bag)
            assert ranked(generator.infer(bag)) == expected, (
                f"top-k parity broken for {bag}"
            )
            assert ranked(generator.infer(bag, ties_only=True)) == (
                tie_prefix(expected)
            ), f"ties-only parity broken for {bag}"

        timings = {}
        for label, call in (
            ("reference", lambda bag: reference_infer(generator, bag)),
            ("compiled", lambda bag: generator.infer(bag, ties_only=True)),
        ):
            best = [float("inf")] * len(bags)
            for _ in range(PASSES):
                for i, bag in enumerate(bags):
                    started = time.perf_counter()
                    call(bag)
                    best[i] = min(best[i], time.perf_counter() - started)
            timings[label] = [seconds * 1000.0 for seconds in best]
        graph = JoinGraph.from_catalog(dataset.database.catalog)
        compile_started = time.perf_counter()
        CompiledJoinGraph(graph, generator.weight_fn(), {})
        compile_ms = (time.perf_counter() - compile_started) * 1000.0

        for label, samples in timings.items():
            result[f"join_{name}_{label}_ms"] = sum(samples)
            result[f"join_{name}_{label}_p50_ms"] = percentile(samples, 0.5)
            result[f"join_{name}_{label}_p99_ms"] = percentile(samples, 0.99)
            result[f"join_{name}_{label}_solves_per_call"] = (
                _solve_counts(generator, bags, label == "reference") / len(bags)
            )
        result[f"join_{name}_bags"] = len(bags)
        result[f"join_{name}_compile_ms"] = compile_ms
        result[f"join_{name}_speedup"] = (
            result[f"join_{name}_reference_ms"]
            / result[f"join_{name}_compiled_ms"]
        )
    return result


def bench_engine(smoke: bool) -> dict:
    """Cold Engine build and warm cached translate on the MAS workload."""
    from repro.api import Engine, EngineConfig

    cold_started = time.perf_counter()
    engine = Engine.from_config(EngineConfig(dataset="mas"))
    cold_build_s = time.perf_counter() - cold_started

    requests = [
        list(item.keywords)
        for item in engine.dataset.usable_items()
        if item.keywords
    ]
    if smoke:
        requests = requests[:25]
    for keywords in requests:  # fill the caches
        engine.translate(keywords)
    warm_s = _best_of(
        lambda: [engine.translate(keywords) for keywords in requests]
    )
    engine.close()
    return {
        "cold_build_ms": cold_build_s * 1000.0,
        "warm_translate_us": warm_s * 1_000_000.0 / len(requests),
    }


def bench_tracing_overhead(smoke: bool) -> dict:
    """Warm cached-translate cost with tracing on vs off.

    The tracer defers both the sink allocation (lazy, first stage only)
    and all tree-building (tail-sampled) past the warm path, so a cache
    hit pays one ContextVar set/reset and a float comparison; this
    measures that claim.  Absolute deltas are sub-microsecond, so the
    estimator has to be deliberate about noise:

    * ONE engine, toggling ``tracer.enabled`` — the exact knob
      ``EngineConfig(tracing=False)`` sets — instead of two engine
      instances.  Separate instances differ in allocator layout and
      cache residency, which on a busy box dwarfs the effect measured.
    * Paired rounds: each round times both modes back to back, order
      alternating between rounds, so frequency drift hits both equally.
    * Long windows: each timed sample runs the full request sweep
      several times, so a millisecond scheduling blip is a few percent
      of the window instead of half of it.
    * The reported overhead is the *median* per-round ratio — a round
      polluted by a blip anyway skews one sample, not the estimate.
    """
    from repro.api import Engine, EngineConfig

    engine = Engine.from_config(EngineConfig(dataset="mas"))
    tracer = engine.service.tracer
    requests = [
        list(item.keywords)
        for item in engine.dataset.usable_items()
        if item.keywords
    ]
    if smoke:
        requests = requests[:25]
    for enabled in (True, False):  # fill caches + saturate trace store
        tracer.enabled = enabled
        for _ in range(2):
            for keywords in requests:
                engine.translate(keywords)
    best = {True: float("inf"), False: float("inf")}
    ratios = []
    rounds = 5 if smoke else max(7 * PASSES, 21)
    sweeps = 8
    for index in range(rounds):
        sample = {}
        # ABBA ordering: consecutive round pairs mirror each other, so
        # linear frequency drift cancels within every pair of rounds.
        order = (True, False) if index % 4 in (0, 3) else (False, True)
        for enabled in order:
            tracer.enabled = enabled
            started = time.perf_counter()
            for _ in range(sweeps):
                for keywords in requests:
                    engine.translate(keywords)
            sample[enabled] = time.perf_counter() - started
            best[enabled] = min(best[enabled], sample[enabled])
        ratios.append(sample[True] / sample[False])
    engine.close()
    ratios.sort()
    median_ratio = ratios[len(ratios) // 2]
    per_request = 1e6 / (sweeps * len(requests))
    return {
        "warm_traced_us": best[True] * per_request,
        "warm_untraced_us": best[False] * per_request,
        "tracing_overhead_pct": 100.0 * (median_ratio - 1.0),
    }


def bench_journal_overhead(smoke: bool) -> dict:
    """Warm serving cost with the request journal on vs off.

    The journal's *request-path* bill is one bounded-deque append of a
    pre-built row tuple plus a ``meta`` dict — serialization, rotation
    and writes all happen later, on the background writer thread.  Two
    measurements pin that claim down:

    * **The gated number** (``journal_overhead_pct``) is taken on the
      serving wire path: requests enter as NLQ strings, exactly as they
      arrive over HTTP.  The translate cache is keyed on canonicalized
      keywords, so parsing runs on *every* request and only the
      translate stage is served from cache — that is what a warm served
      request actually pays, and what the <= 5% regression budget
      protects.  Paired ABBA rounds with the ratio of per-mode median
      window times keep the estimate stable on noisy (virtualized,
      single-core) hosts.
    * **The informational number** (``journal_hit_delta_ns``) isolates
      the absolute per-request bill on the keyword fast path
      (pre-parsed programmatic callers, ~10 us/request), where a
      few-hundred-ns append is proportionally largest.  Whole-window
      timing cannot resolve it under scheduler jitter, so each request
      is timed individually and the per-request *minimum* over many
      paired reps is compared — timing noise on a preemptible host is
      strictly additive, so the floor is the least-noise estimate of
      the true cost (the same reasoning behind ``timeit``'s min).

    Bench hygiene, in both phases: the writer is parked on a very long
    flush interval and the queue is drained at round boundaries —
    *outside* the timed windows, so the serialization burst sits
    symmetrically between rounds — and the GC is paused inside the
    paired windows and run between rounds (in production the writer
    drains every 0.2 s and the queue stays near-empty; without this the
    gen-0 collections triggered by the bench-only retention would be
    billed to the request path).
    """
    import gc
    import tempfile

    from repro.api import Engine, EngineConfig
    from repro.obs.journal import RequestJournal

    engine = Engine.from_config(EngineConfig(dataset="mas"))
    service = engine.service
    items = [item for item in engine.dataset.usable_items() if item.keywords]
    if smoke:
        items = items[:25]
    nlqs = [item.nlq for item in items]
    keyword_requests = [list(item.keywords) for item in items]
    times = {True: [], False: []}
    floors = {
        True: [9e9] * len(keyword_requests),
        False: [9e9] * len(keyword_requests),
    }
    rounds = 5 if smoke else max(7 * PASSES, 21)
    floor_reps = 20 if smoke else 120
    with tempfile.TemporaryDirectory() as root:
        journal = RequestJournal(
            root,
            segment_bytes=64_000_000,
            segments=2,
            flush_interval=3600.0,
            max_queue=100_000,
        )
        for journaled in (True, False):  # fill the caches in both modes
            service.journal = journal if journaled else None
            for nlq in nlqs:
                engine.translate(nlq)
            for keywords in keyword_requests:
                engine.translate(keywords)
        journal.flush()
        gc_was_enabled = gc.isenabled()
        perf = time.perf_counter
        try:
            # Phase 1 — the gated wire-path ratio (NLQ in, parse every
            # request, translate from cache).
            for index in range(rounds):
                order = (
                    (True, False) if index % 4 in (0, 3) else (False, True)
                )
                gc.collect()
                gc.disable()
                for journaled in order:
                    service.journal = journal if journaled else None
                    started = perf()
                    for nlq in nlqs:
                        engine.translate(nlq)
                    times[journaled].append(perf() - started)
                if gc_was_enabled:
                    gc.enable()
                journal.flush()  # round boundary: outside both windows
            # Phase 2 — the informational keyword fast-path floor delta.
            gc.collect()
            gc.disable()
            for rep in range(floor_reps):
                order = (True, False) if rep % 4 in (0, 3) else (False, True)
                for journaled in order:
                    service.journal = journal if journaled else None
                    mins = floors[journaled]
                    for i, keywords in enumerate(keyword_requests):
                        started = perf()
                        engine.translate(keywords)
                        elapsed = perf() - started
                        if elapsed < mins[i]:
                            mins[i] = elapsed
                journal.flush()
                if rep % 40 == 39:
                    gc.enable()
                    gc.collect()
                    gc.disable()
        finally:
            if gc_was_enabled:
                gc.enable()
            service.journal = None
        dropped = journal.dropped
        journal.close()
    engine.close()
    assert dropped == 0, f"journal shed {dropped} records during the bench"
    median = lambda s: sorted(s)[len(s) // 2]  # noqa: E731
    median_ratio = median(times[True]) / median(times[False])
    per_request = 1e6 / len(nlqs)
    hit_delta_ns = (
        (sum(floors[True]) - sum(floors[False])) * 1e9 / len(keyword_requests)
    )
    return {
        "warm_journaled_us": median(times[True]) * per_request,
        "warm_unjournaled_us": median(times[False]) * per_request,
        "journal_overhead_pct": 100.0 * (median_ratio - 1.0),
        "journal_hit_delta_ns": hit_delta_ns,
    }


def bench_slo_overhead(smoke: bool) -> dict:
    """Warm serving cost with the SLO evaluator + drift monitor on vs off.

    Both features are scoped so the request path pays almost nothing:
    the SLO evaluator runs at scrape cadence (``/metrics``, ``stats()``)
    and never inside ``translate``; the drift monitor's per-request bill
    is ``DriftMonitor.observe`` — two histogram bisects and a memoized
    fragment-key digest under one lock.  Same estimator discipline as
    :func:`bench_journal_overhead`: one engine, toggling the exact
    attributes the config knobs set, paired ABBA rounds on the NLQ wire
    path, median per-round ratio, GC paused inside the windows.
    """
    import gc

    from repro.api import Engine, EngineConfig
    from repro.obs.slo import SLOPolicy

    engine = Engine.from_config(EngineConfig(
        dataset="mas",
        slo=SLOPolicy(
            latency_p99_ms=500.0, error_rate=0.05, cache_hit_rate=0.5,
            feedback_reject_rate=0.3,
        ),
        drift_threshold=0.35,
    ))
    service = engine.service
    evaluator, drift = service.slo_evaluator, service.drift
    assert evaluator is not None and drift is not None
    nlqs = [
        item.nlq for item in engine.dataset.usable_items() if item.keywords
    ]
    if smoke:
        nlqs = nlqs[:25]
    for monitored in (True, False):  # fill caches in both modes
        service.slo_evaluator = evaluator if monitored else None
        service.drift = drift if monitored else None
        for nlq in nlqs:
            engine.translate(nlq)
    times = {True: [], False: []}
    rounds = 5 if smoke else max(7 * PASSES, 21)
    sweeps = 4
    gc_was_enabled = gc.isenabled()
    perf = time.perf_counter
    try:
        for index in range(rounds):
            order = (True, False) if index % 4 in (0, 3) else (False, True)
            gc.collect()
            gc.disable()
            for monitored in order:
                service.slo_evaluator = evaluator if monitored else None
                service.drift = drift if monitored else None
                started = perf()
                for _ in range(sweeps):
                    for nlq in nlqs:
                        engine.translate(nlq)
                times[monitored].append(perf() - started)
            if gc_was_enabled:
                gc.enable()
            # Scrape-cadence work happens here, between rounds — exactly
            # where production pays it (the /metrics handler's thread).
            service.sync_observability_counters()
    finally:
        if gc_was_enabled:
            gc.enable()
        service.slo_evaluator = evaluator
        service.drift = drift
    engine.close()
    median = lambda s: sorted(s)[len(s) // 2]  # noqa: E731
    median_ratio = median(times[True]) / median(times[False])
    per_request = 1e6 / (sweeps * len(nlqs))
    return {
        "warm_monitored_us": median(times[True]) * per_request,
        "warm_unmonitored_us": median(times[False]) * per_request,
        "slo_overhead_pct": 100.0 * (median_ratio - 1.0),
    }


def main(argv: list[str]) -> int:
    smoke = "--smoke" in argv
    # Parity assertions inside bench_mapkeywords always hard-fail; the
    # wall-clock speedup gate alone becomes advisory with this flag
    # (shared CI runners jitter, local quiet hardware is authoritative).
    advisory_speedup = "--advisory-speedup" in argv
    result = bench_mapkeywords(smoke)
    result.update(bench_engine(smoke))
    result.update(bench_tracing_overhead(smoke))
    result.update(bench_journal_overhead(smoke))
    result.update(bench_slo_overhead(smoke))
    result.update(bench_join_inference(smoke))

    rows = [[
        result["workload"].upper(),
        str(result["requests"]),
        f"{result['seed_ms']:.1f}",
        f"{result['indexed_ms']:.1f}",
        f"{result['index_build_ms']:.1f}",
        f"{result['speedup']:.1f}x",
    ]]
    table = format_rows(
        [
            "Workload", "requests", "seed (ms)", "indexed (ms)",
            "index build (ms)", "speedup",
        ],
        rows,
    )
    publish(
        "perf_core",
        f"MAPKEYWORDS: seed scan+product vs CandidateIndex+beam "
        f"(best of {PASSES}, parity asserted; gate >= {SPEEDUP_GATE:.0f}x)",
        table,
    )
    join_rows = [
        [
            name.upper(),
            str(result[f"join_{name}_bags"]),
            label,
            f"{result[f'join_{name}_{label}_ms']:.1f}",
            f"{result[f'join_{name}_{label}_p50_ms']:.2f}",
            f"{result[f'join_{name}_{label}_p99_ms']:.2f}",
            f"{result[f'join_{name}_{label}_solves_per_call']:.2f}",
        ]
        for name in ("mas", "wide")
        for label in ("reference", "compiled")
    ]
    publish(
        "perf_core_joins",
        f"Cold INFERJOINS: pre-compilation solver (top-k) vs compiled "
        f"solver (ties-only), best of {PASSES} per call, parity asserted; "
        f"gate >= {JOIN_SPEEDUP_GATE:.0f}x on wide",
        format_rows(
            [
                "Workload", "bags", "solver", "total (ms)", "p50 (ms)",
                "p99 (ms)", "solves/call",
            ],
            join_rows,
        ),
    )
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "perf_core.json").write_text(json.dumps(result, indent=1))
    snapshot = emit_snapshot(
        "perf_core",
        {
            key: round(result[key], 3)
            for key in (
                "seed_ms", "indexed_ms", "index_build_ms", "speedup",
                "cold_build_ms", "warm_translate_us", "warm_traced_us",
                "warm_untraced_us", "tracing_overhead_pct",
                "warm_journaled_us", "warm_unjournaled_us",
                "journal_overhead_pct", "journal_hit_delta_ns",
                "warm_monitored_us", "warm_unmonitored_us",
                "slo_overhead_pct",
            ) + tuple(
                key for key in result
                if key.startswith("join_") and not key.endswith("_bags")
            )
        },
        config={
            "workload": result["workload"],
            "requests": result["requests"],
            "join_bags": {
                name: result[f"join_{name}_bags"] for name in ("mas", "wide")
            },
            "passes": PASSES,
            "smoke": smoke,
        },
    )
    print(f"snapshot: {snapshot}")

    failed = False
    if result["speedup"] < SPEEDUP_GATE:
        print(
            f"{'NOTE' if advisory_speedup else 'FAIL'}: warm-path speedup "
            f"{result['speedup']:.1f}x is below the {SPEEDUP_GATE:.0f}x gate",
            file=sys.stderr,
        )
        failed = failed or not advisory_speedup
    if result["tracing_overhead_pct"] > TRACING_OVERHEAD_GATE_PCT:
        # Same advisory escape hatch as the speedup gate: µs-scale warm
        # paths jitter on shared CI runners; quiet hardware decides.
        print(
            f"{'NOTE' if advisory_speedup else 'FAIL'}: tracing overhead "
            f"{result['tracing_overhead_pct']:.1f}% exceeds the "
            f"{TRACING_OVERHEAD_GATE_PCT:.0f}% gate",
            file=sys.stderr,
        )
        failed = failed or not advisory_speedup
    if result["journal_overhead_pct"] > JOURNAL_OVERHEAD_GATE_PCT:
        print(
            f"{'NOTE' if advisory_speedup else 'FAIL'}: journal overhead "
            f"{result['journal_overhead_pct']:.1f}% exceeds the "
            f"{JOURNAL_OVERHEAD_GATE_PCT:.0f}% gate",
            file=sys.stderr,
        )
        failed = failed or not advisory_speedup
    if result["slo_overhead_pct"] > SLO_OVERHEAD_GATE_PCT:
        print(
            f"{'NOTE' if advisory_speedup else 'FAIL'}: SLO+drift overhead "
            f"{result['slo_overhead_pct']:.1f}% exceeds the "
            f"{SLO_OVERHEAD_GATE_PCT:.0f}% gate",
            file=sys.stderr,
        )
        failed = failed or not advisory_speedup
    if result["join_wide_speedup"] < JOIN_SPEEDUP_GATE:
        print(
            f"{'NOTE' if advisory_speedup else 'FAIL'}: cold join inference "
            f"speedup on wide {result['join_wide_speedup']:.1f}x is below "
            f"the {JOIN_SPEEDUP_GATE:.0f}x gate",
            file=sys.stderr,
        )
        failed = failed or not advisory_speedup
    if failed:
        return 1
    print(
        f"OK: warm-path speedup {result['speedup']:.1f}x "
        f"(gate {SPEEDUP_GATE:.0f}x), tracing overhead "
        f"{result['tracing_overhead_pct']:+.1f}% "
        f"(gate {TRACING_OVERHEAD_GATE_PCT:.0f}%), journal overhead "
        f"{result['journal_overhead_pct']:+.1f}% "
        f"(gate {JOURNAL_OVERHEAD_GATE_PCT:.0f}%, "
        f"hit delta {result['journal_hit_delta_ns']:+.0f} ns), "
        f"SLO+drift overhead {result['slo_overhead_pct']:+.1f}% "
        f"(gate {SLO_OVERHEAD_GATE_PCT:.0f}%), "
        f"cold join speedup on wide {result['join_wide_speedup']:.1f}x "
        f"(gate {JOIN_SPEEDUP_GATE:.0f}x), "
        f"parity held on {result['requests']} requests"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
