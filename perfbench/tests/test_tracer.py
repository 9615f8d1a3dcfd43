"""Span bookkeeping and self-time arithmetic over nested spans."""

import json
import types

import pytest

from perfbench.tracer import (
    Accumulated,
    Span,
    Tracer,
    covered_length,
    self_time_by_layer,
)


def span(span_id, name, start, end, parent=None):
    return Span(span_id, name, start, end, parent, "run")


def test_covered_length_merges_overlaps_and_clips():
    assert covered_length([(1, 4), (3, 6), (8, 12)], 0, 10) == 7
    assert covered_length([(0, 2), (1, 3)], 1, 10) == 2
    assert covered_length([], 0, 10) == 0


def test_self_time_subtracts_children_not_grandchildren():
    spans = [
        span(1, "engine.run", 0, 10),
        span(2, "scheduler.execute", 1, 4, parent=1),
        span(3, "store.write", 2, 3, parent=2),
        span(4, "store.write", 5, 7, parent=1),
    ]
    times = self_time_by_layer(spans)
    assert times["engine"] == pytest.approx(10 - 3 - 2)
    assert times["scheduler"] == pytest.approx(3 - 1)
    assert times["store"] == pytest.approx(1 + 2)
    assert sum(times.values()) == pytest.approx(10)


def test_overlapping_children_are_counted_once():
    spans = [
        span(1, "bench.run", 0, 10),
        span(2, "client.a", 1, 6, parent=1),
        span(3, "client.b", 4, 8, parent=1),
    ]
    assert self_time_by_layer(spans)["bench"] == pytest.approx(3)


def test_accumulated_time_is_charged_to_its_span():
    spans = [span(1, "bench.loop", 0, 10)]
    accumulated = [
        Accumulated("predictor.predict.x", 4.0, 1000, 1, "run"),
        Accumulated("predictor.train.x", 3.0, 1000, 1, "run"),
    ]
    times = self_time_by_layer(spans, accumulated)
    assert times["bench"] == pytest.approx(3)
    assert times["predictor"] == pytest.approx(7)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_tracer_records_parents_tags_and_self_times(tmp_path):
    tracer = Tracer("run-1", clock=FakeClock())
    with tracer.span("bench.session", tag="gshare"):
        with tracer.span("client.events"):
            with tracer.span("remote.send"):
                pass
        tracer.add("predictor.predict.gshare", 0.5, 10)
    by_name = {record.name: record for record in tracer.spans}
    assert by_name["remote.send"].parent == by_name["client.events"].span_id
    assert by_name["client.events"].parent == by_name["bench.session"].span_id
    assert by_name["bench.session"].parent is None
    assert {record.tag for record in tracer.spans} == {"gshare"}
    assert tracer.durations("remote.send", "gshare") == [1.0]
    assert tracer.total("predictor.predict.gshare") == (0.5, 10)
    times = tracer.self_times()
    assert times["remote"] == pytest.approx(1.0)
    assert times["client"] == pytest.approx(2.0)
    assert times["bench"] == pytest.approx(5.0 - 3.0 - 0.5)

    path = tmp_path / "spans.jsonl"
    tracer.dump(path)
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert [line["kind"] for line in lines] == ["span"] * 3 + ["accumulated"]
    assert {line["run_id"] for line in lines} == {"run-1"}


def test_instrumented_wraps_and_restores():
    module = types.SimpleNamespace(work=lambda value: value * 2)
    original = module.work
    tracer = Tracer("run")
    with tracer.instrumented([(module, "work", "layer.work")]):
        assert module.work(21) == 42
    assert module.work is original
    assert [record.name for record in tracer.spans] == ["layer.work"]
