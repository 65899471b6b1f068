"""The tracer takes its own calibrated cost out of the span totals."""

import tracing


def test_span_cost_is_taken_out_of_every_enclosing_span(monkeypatch):
    clock = iter([0, 10, 20, 30, 40, 100])
    monkeypatch.setattr(tracing.time, "perf_counter_ns", lambda: next(clock))
    tracer = tracing.Tracer()
    tracer.span_cost_ns, tracer.inner_cost_ns = 5, 2
    tracer.open("parent")
    for _ in range(2):
        tracer.open("child")
        tracer.close()
    tracer.close()
    assert tracer.totals["child"] == [2, 16, 16]
    # 100 ns, less its own inner cost and the whole cost of both children
    assert tracer.totals["parent"] == [1, 88, 72]


def test_calibrated_costs_are_positive_and_nested():
    tracer = tracing.Tracer()
    tracer.calibrate(calls=200, batches=3)
    assert 0 < tracer.inner_cost_ns <= tracer.span_cost_ns


def test_pace_scales_times_and_not_counts():
    tracer = tracing.Tracer()
    tracer.totals["oracle.exact_law"] = [1, 3000, 3000]
    tracer.work["oracle.collision_hits"] = 4
    plain, paced = tracing.layer_metrics(tracer), tracing.layer_metrics(tracer, pace=0.5)
    assert paced["oracle.exact_law_s"] == plain["oracle.exact_law_s"] / 2
    assert paced["oracle.collision_hits"] == plain["oracle.collision_hits"] == 4
