"""Gateway launcher: one gateway process, built from the public API.

Usage (``run.py`` starts it; it is not meant to be run by hand)::

    python3 perfbench/server.py --config CONFIG.json [--trace-out SPANS.jsonl]

Builds ``Gateway.from_config(CONFIG)`` and ``make_gateway_server(...,
port=0)``, prints the bound port on one line of standard output, then
builds the tenant engines (``GET /readyz`` answers 503 until they are
live, 200 after) and prints ``started``.  SIGTERM shuts the server and
the gateway down.

With ``--trace-out``, the public functions of each layer are wrapped
before the gateway is built, every call records a span in memory, and
the spans are written to ``SPANS.jsonl`` at shutdown (see ``spans.py``).
SIGUSR1 marks the start of the measured phase, so the reducer can leave
warm-up traffic out.  Without ``--trace-out``, nothing in the serving
stack is wrapped.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import threading
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from spans import ROOT_SPAN, SpanRecorder  # noqa: E402


def _paths_used(recorder: SpanRecorder, request_id: int, paths) -> None:
    """Join paths the pipeline can use (tied with the best) vs returned."""
    if paths:
        best = paths[0].cost
        used = sum(1 for path in paths if path.cost <= best + 1e-9)
        recorder.note(
            "core.join_inference.paths", request_id, (used, len(paths))
        )


def install_tracing(recorder: SpanRecorder) -> None:
    """Wrap the public entry point of every layer the benchmark reports.

    Class attributes are replaced, so every instance (including the
    inner objects behind the serving caches) is traced; module-level
    functions are replaced where their callers look them up.
    """
    from repro.controlplane.plane import ControlPlane
    from repro.core.join_inference import JoinPathGenerator
    from repro.core.keyword_mapper import KeywordMapper
    from repro.gateway.core import Gateway
    from repro.nlidb import pipeline
    from repro.nlidb.nalir_parser import NalirParser
    from repro.obs.journal import RequestJournal
    from repro.schema_graph import steiner
    from repro.schema_graph.graph import JoinGraph
    from repro.serving.service import TranslationService

    wrap = recorder.span
    Gateway.translate = wrap(ROOT_SPAN, Gateway.translate)
    ControlPlane.admit = wrap("controlplane.admit", ControlPlane.admit)
    ControlPlane.finish = wrap("controlplane.finish", ControlPlane.finish)
    NalirParser.parse = wrap("nlidb.parse", NalirParser.parse)
    TranslationService.translate = wrap(
        "serving.translate", TranslationService.translate
    )
    KeywordMapper.map_keywords = wrap(
        "core.keyword_mapper", KeywordMapper.map_keywords,
        lambda rec, request_id, configs: rec.note(
            "core.keyword_mapper.configs", request_id, len(configs)
        ),
    )
    JoinPathGenerator.infer = wrap(
        "core.join_inference", JoinPathGenerator.infer, _paths_used
    )
    steiner.steiner_tree = wrap("schema_graph.steiner", steiner.steiner_tree)
    JoinGraph.edge_weight = recorder.count(
        "schema_graph.edge_weight_evals", JoinGraph.edge_weight
    )
    pipeline.build_sql = wrap("nlidb.sql_builder", pipeline.build_sql)
    TranslationService.absorb_pending = wrap(
        "core.qfg.absorb", TranslationService.absorb_pending
    )
    RequestJournal.offer = wrap("obs.journal", RequestJournal.offer)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--trace-out")
    args = parser.parse_args()

    # Blocked before any thread starts, so every thread inherits the
    # mask and the signals wait for sigwait() below; a Python-level
    # handler could interrupt the main thread inside a lock it needs.
    watched = {signal.SIGTERM, signal.SIGUSR1}
    signal.pthread_sigmask(signal.SIG_BLOCK, watched)
    recorder = None
    if args.trace_out:
        recorder = SpanRecorder()
        install_tracing(recorder)

    from repro.gateway import Gateway, make_gateway_server

    config = json.loads(Path(args.config).read_text(encoding="utf-8"))
    gateway = Gateway.from_config(config)
    server = make_gateway_server(gateway, port=0)
    # A short poll interval keeps shutdown() quick; the benchmark starts
    # and stops several gateways per run.
    serving = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05},
        daemon=True,
    )
    serving.start()
    print(server.server_address[1], flush=True)
    try:
        gateway.start()
        # The launcher probes GET /readyz once it reads this line, so
        # readiness probes never compete with the warm-up for the GIL.
        print("started", flush=True)
        while signal.sigwait(watched) != signal.SIGTERM:
            if recorder is not None:
                recorder.mark()
    finally:
        server.shutdown()
        server.server_close()
        gateway.close()
        serving.join(timeout=10)
    if recorder is not None:
        recorder.write(args.trace_out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
