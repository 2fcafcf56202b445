"""Answer checks: every response the gateway gave, judged after the run.

* every 2xx payload decodes through ``repro.serving.wire`` (keywords
  through the strict keyword codec, results with exactly the
  ``result_to_dict`` fields);
* every top-1 SQL parses and binds against the tenant's catalog;
* ``top1_accuracy``: over gold-checkable requests, the share whose top-1
  SQL is equivalent to gold under ``queries_equivalent``, with the FQ
  tie rule of ``repro.eval.metrics.fq_correct`` applied to the payload
  scores (a *different* query tied with the top one voids the answer;
  only the results the request's ``limit`` surfaced can be seen);
* ``answers_digest``: SHA-256 over the top-1 SQL of a fixed prefix of
  the requests, in request order, so two commits can show byte-identical
  answers.
"""

from __future__ import annotations

import hashlib
import json

from repro.errors import ReproError
from repro.serving.wire import keywords_from_payload
from repro.sql.binder import bind_query
from repro.sql.canonical import queries_equivalent
from repro.sql.parser import parse_query

#: Fields of one encoded result (``repro.serving.wire.result_to_dict``).
RESULT_FIELDS = {"sql", "config_score", "join_score"}

#: Score tolerance of the FQ tie rule (``fq_correct``'s default).
TIE_TOLERANCE = 1e-9


def decode(body: bytes) -> dict:
    """Strictly decode one 200 payload; raises ``ValueError`` if malformed."""
    payload = json.loads(body)
    keywords_from_payload(payload["keywords"])
    results = payload["results"]
    if not isinstance(results, list) or payload["count"] < len(results):
        raise ValueError("results must be a list of at most 'count' entries")
    for result in results:
        if set(result) != RESULT_FIELDS:
            raise ValueError(f"result fields {sorted(result)}")
        if not isinstance(result["sql"], str):
            raise ValueError("result sql must be a string")
        float(result["config_score"])
        float(result["join_score"])
    float(payload["timings_ms"]["total"])
    return payload


def _ties(a: dict, b: dict) -> bool:
    return (
        abs(a["config_score"] - b["config_score"]) <= TIE_TOLERANCE
        and abs(a["join_score"] - b["join_score"]) <= TIE_TOLERANCE
    )


def top1_correct(results: list[dict], gold_sql: str, catalog) -> bool:
    """``fq_correct`` on wire results."""
    if not results:
        return False
    top = results[0]["sql"]
    if not queries_equivalent(top, gold_sql, catalog):
        return False
    for other in results[1:]:
        if not _ties(results[0], other):
            break
        if not queries_equivalent(top, other["sql"], catalog):
            return False
    return True


def check_answers(requests, outcomes, catalogs: dict, digest_prefix: int) -> dict:
    """Judge every outcome; ``requests[outcome.index]`` is what was sent.

    Returns the tallies the run reports plus one decoded payload per
    200 answer (``payloads[i]`` pairs with ``outcomes[i]``; ``None`` for
    other statuses).
    """
    problems: list[str] = []
    payloads: list[dict | None] = []
    gold_checked = gold_right = 0
    digest = hashlib.sha256()
    digested = 0
    for outcome in outcomes:
        request = requests[outcome.index]
        catalog = catalogs[request.tenant]
        payload = None
        if outcome.status == 200:
            try:
                payload = decode(outcome.body)
            except (ValueError, KeyError, TypeError, ReproError) as exc:
                problems.append(f"request {outcome.index}: undecodable: {exc}")
        payloads.append(payload)
        results = payload["results"] if payload else []
        if results:
            try:
                bind_query(parse_query(results[0]["sql"]), catalog)
            except ReproError as exc:
                problems.append(
                    f"request {outcome.index}: top-1 SQL does not bind: {exc}"
                )
        if request.gold_sql is not None:
            gold_checked += 1
            if top1_correct(results, request.gold_sql, catalog):
                gold_right += 1
        if outcome.index < digest_prefix:
            digest.update(f"{outcome.index}\t{outcome.status}\t".encode())
            digest.update(results[0]["sql"].encode() if results else b"")
            digest.update(b"\n")
            digested += 1
    return {
        "problems": problems,
        "payloads": payloads,
        "gold_checked": gold_checked,
        "gold_right": gold_right,
        "answers_digest": digest.hexdigest(),
        "digested": digested,
    }
