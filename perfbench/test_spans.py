"""Reducer checks on synthetic span trees (no gateway needed).

Run with ``python3 -m pytest perfbench/test_spans.py``.
"""

from __future__ import annotations

import pytest

from spans import SpanRecorder, layer_summary, percentile, read_spans, self_times

# (span_id, parent_id, request_id, name, start, end), in seconds.
TREE = [
    (1, 0, 1, "gateway.translate", 0.0, 10.0),
    (2, 1, 1, "serving.translate", 1.0, 9.0),
    (3, 2, 1, "core.keyword_mapper", 1.5, 3.0),
    (4, 2, 1, "core.join_inference", 3.0, 8.0),
    (5, 4, 1, "schema_graph.steiner", 3.5, 5.0),
    (6, 4, 1, "schema_graph.steiner", 5.0, 7.5),
    (7, 1, 1, "obs.journal", 9.2, 9.3),
    (8, 0, 8, "gateway.translate", 20.0, 21.0),
    (9, 8, 8, "serving.translate", 20.25, 20.75),
]


def test_self_times_sum_to_root_duration():
    own = dict((span[0], value) for span, value in self_times(TREE))
    assert own[1] == pytest.approx(10.0 - 8.0 - 0.1)
    assert own[4] == pytest.approx(5.0 - 1.5 - 2.5)
    first = sum(value for span, value in self_times(TREE) if span[2] == 1)
    assert first == pytest.approx(10.0)
    summary = layer_summary(TREE, "gateway.translate")
    assert summary["requests"] == 2
    assert summary["sum_error_ms_max"] == pytest.approx(0.0, abs=1e-9)
    layers = summary["layers"]
    assert layers["schema_graph.steiner"]["calls"] == 2
    assert sum(layer["self_ms_total"] for layer in layers.values()) == \
        pytest.approx(11_000.0)


def test_child_time_outside_its_parent_is_not_subtracted():
    spans = [
        (1, 0, 1, "root", 0.0, 4.0),
        (2, 1, 1, "child", 3.0, 6.0),
    ]
    own = dict((span[0], value) for span, value in self_times(spans))
    assert own[1] == pytest.approx(3.0)


def test_recorder_nests_spans_and_round_trips(tmp_path):
    recorder = SpanRecorder()
    inner = recorder.span(
        "inner", lambda x: x * 2,
        lambda rec, request_id, result: rec.note("doubled", request_id, result),
    )
    counted = recorder.count("calls", lambda: None)
    outer = recorder.span("outer", lambda x: [inner(x), counted()][0])
    assert outer(3) == 6
    recorder.mark()
    assert outer(4) == 8
    path = tmp_path / "spans.jsonl"
    recorder.write(path)
    spans, extras = read_spans(path)
    by_name = {span[3]: span for span in spans[:2]}
    assert by_name["inner"][1] == by_name["outer"][0]
    assert by_name["inner"][2] == by_name["outer"][0]
    assert extras["counters"] == {"calls": 2}
    assert extras["mark"]["counters"] == {"calls": 1}
    assert [value for _, value in extras["noted"]["doubled"]] == [6, 8]


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 0.50) == 50
    assert percentile(values, 0.99) == 99
    assert percentile([7.0], 0.99) == 7.0
    assert percentile([], 0.5) == 0.0
