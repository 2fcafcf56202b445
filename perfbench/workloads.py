"""The benchmark's workloads: their traffic, connections and gateway config.

Every request list is a pure function of the seed.  The gateway only
ever sees the generated requests.  Why each workload exists is recorded
in ``README.md``.

A workload is a fixed trace: which requests it sends (items, mutation
plans, the Zipf hot keys) is drawn once from ``TRACE_SEED``, the default
seed of ``benchmarks/bench_loadtest.py``.  The run's seed shuffles the
trace within consecutive blocks of ``BLOCK`` requests (and draws the NLQ
result limits).  A closed loop sends as much of the trace as the time
allows, so runs of one commit send almost the same requests whatever
their seed.  A handful of costly cold requests decide
``throughput_rps`` and ``latency_p99_ms`` on ``wide-cold``; drawing the
requests themselves from the seed roughly doubled the spread of both
between seeds (see ``README.md``).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

from repro.datasets import load_dataset
from repro.fuzz import build_pool, case_stream, synonym_map
from repro.serving.wire import keyword_to_dict

#: Seeds every workload's trace (see the module docstring).
TRACE_SEED = 2019

#: The run's seed shuffles the trace within blocks of this many requests.
BLOCK = 50

#: Result limits an NLQ request may ask for (the fuzz stream's set).
NLQ_LIMITS = (1, 2, 3, 5, 10)


@dataclass(frozen=True)
class Workload:
    name: str
    tenants: tuple[str, ...]
    #: Closed loop: each connection sends its next request when the
    #: previous answer has arrived.
    connections: int
    #: Latency limit of ``slo_attainment``, set in the upper quartile
    #: of the latencies measured when the benchmark was introduced, so
    #: the share can move either way.
    slo_limit_ms: float
    #: The fastest rate the request list is sized for, far above the
    #: rate measured when the benchmark was introduced.
    max_rps: float


WORKLOADS = {
    "wide-cold": Workload(
        "wide-cold", ("wide",), connections=1, slo_limit_ms=150.0,
        max_rps=100.0,
    ),
    # Latencies here cluster 4 ms apart (the delayed-ACK timer ticks);
    # the limit sits between two clusters (at ~p75) so that it cannot
    # flip a whole cluster in or out.
    "nlq-learn": Workload(
        "nlq-learn", ("mas",), connections=2, slo_limit_ms=50.0,
        max_rps=1000.0,
    ),
}

#: Observations the nlq-learn tenant queues before it drains them into
#: its QFG on its own worker pool.  Small enough that the cold requests
#: after the revision bumps outnumber 1% of a run's requests, so
#: ``latency_p99_ms`` falls among them rather than on their edge (at 10
#: it did, and its spread between seeds was 0.27).
NLQ_LEARN_BATCH = 5


@dataclass(frozen=True)
class Request:
    """One generated request and, when it has one, its gold SQL."""

    tenant: str
    payload: dict
    gold_sql: str | None = None


def gateway_config(workload: Workload, work_dir: Path) -> dict:
    """The ``gateway.json`` of one server process of ``workload``.

    ``work_dir`` is fresh for every process, so the journal and the
    control-plane store start empty each time.
    """
    tenants = {
        name: {"engine": {"dataset": name}, "max_in_flight": 64}
        for name in workload.tenants
    }
    config: dict = {"tenants": tenants}
    if workload.name == "nlq-learn":
        tenants["mas"]["engine"]["learn_batch_size"] = NLQ_LEARN_BATCH
        config["control_plane_path"] = str(work_dir / "controlplane.sqlite")
        config["journal_dir"] = str(work_dir / "journal")
    return config


def wide_cold(seed: int, count: int) -> list[Request]:
    """Keyword requests to ``wide`` from the fuzz case stream, all distinct.

    The requests are the first ``count`` cases of the ``TRACE_SEED``
    stream whose keywords no earlier case carried; ``seed`` shuffles
    them within consecutive blocks of ``BLOCK`` requests.  The translate
    cache is keyed on the keywords alone (not ``limit``), so every
    request is a translate-cache miss.  As in
    ``benchmarks/bench_loadtest.py``, the mutation plan is applied, and
    an unmutated case carries its item's gold SQL.
    """
    dataset = load_dataset("wide")
    synonyms = synonym_map(dataset.lexicon)
    items = dataset.usable_items()
    pools = {"wide": build_pool(random.Random(TRACE_SEED), "wide", items)}
    gold = {item.item_id: item.gold_sql for item in items}
    seen: set[str] = set()
    trace = []
    # Fewer than one case in three repeats earlier keywords.
    for case in case_stream(TRACE_SEED, 3 * count, pools):
        keywords = [keyword_to_dict(k) for k in case.mutated_keywords(synonyms)]
        key = json.dumps(keywords, sort_keys=True)
        if key in seen:
            continue
        seen.add(key)
        trace.append(Request(
            "wide",
            {"keywords": keywords, "limit": case.limit},
            None if case.mutations else gold[case.item_id],
        ))
        if len(trace) == count:
            break
    return _shuffle_blocks(trace, random.Random(seed))


def nlq_learn(seed: int, count: int) -> list[Request]:
    """Raw MAS NLQs, Zipf-skewed; every fifth request observes.

    The NLQ sequence and which requests observe come from the trace;
    ``seed`` draws each request's result limit and shuffles the requests
    within consecutive blocks of ``BLOCK``.  So every run learns the same
    queries and bumps the QFG revision equally often: the cold requests
    after each bump are this workload's latency tail.
    """
    items = list(load_dataset("mas").usable_items())
    trace_rng = random.Random(TRACE_SEED)
    trace_rng.shuffle(items)
    weights = [1.0 / (rank + 1) for rank in range(len(items))]
    rng = random.Random(seed)
    requests = []
    for index, item in enumerate(
        trace_rng.choices(items, weights=weights, k=count)
    ):
        payload = {"nlq": item.nlq, "limit": rng.choice(NLQ_LIMITS)}
        if index % 5 == 4:
            payload["observe"] = True
        requests.append(Request("mas", payload, item.gold_sql))
    return _shuffle_blocks(requests, rng)


def _shuffle_blocks(requests: list, rng: random.Random) -> list:
    """``requests`` shuffled within consecutive blocks of ``BLOCK``."""
    shuffled = []
    for start in range(0, len(requests), BLOCK):
        block = requests[start:start + BLOCK]
        rng.shuffle(block)
        shuffled += block
    return shuffled


BUILDERS = {
    "wide-cold": wide_cold,
    "nlq-learn": nlq_learn,
}
