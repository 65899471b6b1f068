"""Span tracing for the benchmark's traced mode.

The program is traced from outside: `installed()` replaces public
functions at the module attributes through which the program calls them
(for example ``shufflesum.oracle.collision_probability``, looked up by
``verify_chain``) with wrappers that open a span around the call. Spans
nest through a stack, so each span's self time is its duration minus the
time of the spans opened inside it. Totals are kept per span name; the
spans themselves (name, start, end, parent) are kept in memory up to a
cap and written out when the run ends.

A wrapped call costs about 1.5 us, as much as a share call at n = 19.
`Tracer.calibrate` times wrapped and plain calls of a no-op, and the
totals subtract that cost: from each span its own part inside the timed
interval, and from every enclosing span the whole cost of each span
opened inside it. The raw start and end times are kept as measured.
"""

from __future__ import annotations

import importlib
import json
import math
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

SPAN_CAP = 50_000

# metric name -> unit, in the order the traced run reports them
PER_LAYER_UNITS = {
    "cli.import_s": "s",
    "cli.self_s": "s",
    "cli.bytes_written": "B",
    "planner.plan_us": "us",
    "protocol.run_us_per_share": "us",
    "protocol.run_us_per_call": "us",
    "protocol.aggregate_us_per_share": "us",
    "sharing.us_per_share": "us",
    "oracle.collision_us_per_sample.v-vs-v": "us",
    "oracle.collision_us_per_sample.e-event": "us",
    "oracle.collision_samples": "count",
    "oracle.collision_hits": "count",
    "oracle.exact_law_s": "s",
    "oracle.exact_ns_per_outcome": "ns",
    "oracle.verify_chain_self_s": "s",
    "randgraph.graph_us.n19": "us",
    "randgraph.graph_us.n1000": "us",
    "randgraph.graphs": "count",
    "randgraph.exact_us_per_tuple": "us",
    "trace.overhead_pct": "%",
}


class Tracer:
    """Stack of open spans plus per-name totals and work counters."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, int, int]] = []  # id, parent, name, start, end
        self.dropped = 0
        # open spans [id, name, start_ns, child_ns, spans opened inside]
        self.stack: list[list] = [[0, "", 0, 0, 0]]
        self.next_id = 0
        self.span_cost_ns = 0.0  # a wrapped call's cost, as its callers see it
        self.inner_cost_ns = 0.0  # the part of it inside the span's own interval
        self.reset()

    def reset(self) -> None:
        """Clear totals and counters; kept spans stay."""
        self.totals: dict[str, list[float]] = defaultdict(lambda: [0, 0, 0])  # calls, ns, self ns
        self.work: dict[str, int] = defaultdict(int)

    def open(self, name: str) -> None:
        self.next_id += 1
        self.stack.append([self.next_id, name, time.perf_counter_ns(), 0, 0])

    def close(self) -> None:
        end = time.perf_counter_ns()
        span_id, name, start, child_ns, inside = self.stack.pop()
        duration = end - start - self.inner_cost_ns - inside * self.span_cost_ns
        parent = self.stack[-1]
        parent[3] += duration
        parent[4] += inside + 1
        total = self.totals[name]
        total[0] += 1
        total[1] += duration
        total[2] += duration - child_ns
        if len(self.spans) < SPAN_CAP:
            self.spans.append((span_id, parent[0], name, start, end))
        else:
            self.dropped += 1

    def calibrate(self, calls: int = 2000, batches: int = 7) -> None:
        """Set the per-span costs from the fastest of several batches of
        wrapped and plain calls of a no-op that takes share()'s arguments
        and carries the work counter of the share targets, the most
        frequent spans."""
        def noop(x, k, m, rng):
            return None

        probe = Tracer()
        wrapped = _wrapper(probe, noop, "calibrate", _shares("k"))
        plain_ns = wrapped_ns = recorded_ns = math.inf
        for _ in range(batches):
            start = time.perf_counter_ns()
            for _ in range(calls):
                noop(1, 3, None, None)
            plain_ns = min(plain_ns, time.perf_counter_ns() - start)
            probe.reset()
            start = time.perf_counter_ns()
            for _ in range(calls):
                wrapped(1, 3, None, None)
            elapsed = time.perf_counter_ns() - start
            if elapsed < wrapped_ns:
                wrapped_ns, recorded_ns = elapsed, probe.totals["calibrate"][1]
        self.span_cost_ns = max(0.0, (wrapped_ns - plain_ns) / calls)
        self.inner_cost_ns = min(self.span_cost_ns, max(0.0, (recorded_ns - plain_ns) / calls))

    @contextmanager
    def span(self, name: str):
        self.open(name)
        try:
            yield
        finally:
            self.close()

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, name, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "name": name,
                                     "start_ns": start, "end_ns": end}) + "\n")


def _arg(args: tuple, kwargs: dict, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _mode(args, kwargs) -> str:
    mode = _arg(args, kwargs, 5, "mode")
    return getattr(mode, "value", mode)


def _collision_name(args, kwargs) -> str:
    return f"oracle.collision.{_mode(args, kwargs)}"


def _law_outcomes(w, args, kwargs, _result) -> None:
    # laws enumerated (one per multiset of inputs) x outcomes per law
    n, k, m = (_arg(args, kwargs, i, key) for i, key in enumerate("nkm"))
    w["oracle.outcomes"] += math.comb(n + m - 1, n) * m ** ((k - 1) * n) * math.factorial(n) ** k


def _graphs(samples_pos: int):
    def work(w, args, kwargs, _result) -> None:
        samples = _arg(args, kwargs, samples_pos, "samples")
        w["randgraph.graphs"] += samples
        w[f"randgraph.graphs.n{_arg(args, kwargs, 0, 'n')}"] += samples

    return work


def _graph_name(args, kwargs) -> str:
    return f"randgraph.sample.n{_arg(args, kwargs, 0, 'n')}"


def _shares(count_param: str):
    def work(w, args, kwargs, _result) -> None:
        w["sharing.shares"] += args[1] if len(args) > 1 else kwargs[count_param]

    return work


def _run_shares(extra: int):
    def work(w, args, kwargs, _result) -> None:
        n = len(_arg(args, kwargs, 0, "inputs"))
        w["protocol.shares"] += n * (_arg(args, kwargs, 1, "k") + extra)

    return work


def _collision_work(w, args, kwargs, result) -> None:
    samples = _arg(args, kwargs, 3, "samples")
    w["oracle.collision_samples"] += samples
    w[f"oracle.collision_samples.{_mode(args, kwargs)}"] += samples
    w["oracle.collision_hits"] += result.hits


def _tuples(w, args, kwargs, _result) -> None:
    w["randgraph.tuples"] += math.factorial(_arg(args, kwargs, 0, "n")) ** _arg(args, kwargs, 1, "k")


# (calling module, attribute, span name or name function, work function)
_TARGETS = [
    ("cli", "plan_shuffled_k", "planner.plan", None),
    ("cli", "run_ikos", "protocol.run", _run_shares(0)),
    ("cli", "run_ikos_randomized", "protocol.run", _run_shares(1)),
    ("cli", "aggregate", "protocol.aggregate", None),
    ("oracle", "run_ikos", "protocol.run.sampler", None),
    ("protocol", "share", "sharing.share", _shares("k")),
    ("protocol", "share_recursive", "sharing.share", _shares("k_plus_1")),
    ("oracle", "share", "sharing.share", _shares("k")),
    ("cli", "estimate_component_distribution", _graph_name, _graphs(2)),
    ("cli", "estimate_m_power_C", _graph_name, _graphs(3)),
    ("oracle", "estimate_m_power_C", _graph_name, _graphs(3)),
    ("oracle", "exact_m_power_C", "randgraph.exact", _tuples),
    ("cli", "verify_chain", "oracle.verify_chain", None),
    ("oracle", "collision_probability", _collision_name, _collision_work),
    ("oracle", "exact_collision_probability", "oracle.exact_law", _law_outcomes),
    ("oracle", "exact_avg_case_tv", "oracle.exact_law", _law_outcomes),
]


def _wrapper(tracer: Tracer, fn, name, work):
    def traced(*args, **kwargs):
        tracer.open(name if isinstance(name, str) else name(args, kwargs))
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close()
        if work is not None:
            work(tracer.work, args, kwargs, result)
        return result

    return traced


@contextmanager
def installed(tracer: Tracer):
    """Wrap every target for the duration of the block, then restore it."""
    saved = []
    try:
        for module_name, attr, name, work in _TARGETS:
            module = importlib.import_module(f"shufflesum.{module_name}")
            if not hasattr(module, attr):
                print(f"trace: shufflesum.{module_name}.{attr} not found, not traced",
                      file=sys.stderr)
                continue
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, _wrapper(tracer, original, name, work))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def _ratio(num: float, den: float) -> float:
    # a layer that did no work on this workload reads 0
    return num / den if den else 0.0


def layer_metrics(tr: Tracer, pace: float = 1.0) -> dict[str, float]:
    """Per-layer figures of one traced pass (all but cli.import_s and
    trace.overhead_pct, which are measured outside the pass). Span times
    are multiplied by `pace`, which brings them to the benchmark's
    reference pace (see speed.py)."""
    calls, t, own = (defaultdict(int, {name: v[i] * (pace if i else 1)
                                       for name, v in tr.totals.items()})
                     for i in range(3))
    w = tr.work
    return {
        "cli.self_s": own["cli.command"] / 1e9,
        "cli.bytes_written": w["cli.bytes_written"],
        "planner.plan_us": _ratio(t["planner.plan"], 1e3 * calls["planner.plan"]),
        "protocol.run_us_per_share": _ratio(own["protocol.run"], 1e3 * w["protocol.shares"]),
        "protocol.run_us_per_call": _ratio(t["protocol.run.sampler"],
                                           1e3 * calls["protocol.run.sampler"]),
        "protocol.aggregate_us_per_share": _ratio(t["protocol.aggregate"],
                                                  1e3 * w["protocol.shares"]),
        "sharing.us_per_share": _ratio(t["sharing.share"], 1e3 * w["sharing.shares"]),
        **{
            f"oracle.collision_us_per_sample.{mode}": _ratio(
                t[f"oracle.collision.{mode}"], 1e3 * w[f"oracle.collision_samples.{mode}"])
            for mode in ("v-vs-v", "e-event")
        },
        "oracle.collision_samples": w["oracle.collision_samples"],
        "oracle.collision_hits": w["oracle.collision_hits"],
        "oracle.exact_law_s": t["oracle.exact_law"] / 1e9,
        "oracle.exact_ns_per_outcome": _ratio(t["oracle.exact_law"], w["oracle.outcomes"]),
        "oracle.verify_chain_self_s": own["oracle.verify_chain"] / 1e9,
        "randgraph.graph_us.n19": _ratio(t["randgraph.sample.n19"], 1e3 * w["randgraph.graphs.n19"]),
        "randgraph.graph_us.n1000": _ratio(t["randgraph.sample.n1000"],
                                           1e3 * w["randgraph.graphs.n1000"]),
        "randgraph.graphs": w["randgraph.graphs"],
        "randgraph.exact_us_per_tuple": _ratio(t["randgraph.exact"], 1e3 * w["randgraph.tuples"]),
    }
