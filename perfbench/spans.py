"""Span tracing of the planner's layers, installed only for the traced run.

The recorder wraps each layer's public entry point from outside the library:
a module-level function is patched under the name its *calling* module
imported it as (``repro.core.pipeline.build_theory``), a method is patched on
its class.  Every wrapped call inside an open request span records a span
(name, start, end, parent, request id) plus the counters read off its result.
Calls made outside a request run unrecorded.  :func:`installed` restores every
original on exit, so the untraced pass never runs through a wrapper.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: (span name = the library module of the layer, self-seconds metric, calls
#: metric or None).  ``request`` is the time inside ``hap()`` /
#: ``hap_pipeline()`` that no layer span covers.  ``verify.plan`` is the
#: planner's own verification (of plan-cache hits, at the defaults);
#: ``verify`` is the benchmark's check after each plan, outside the request.
REQUEST = "request"
LAYERS = (
    (REQUEST, "request.uncovered_s", None),
    ("autodiff", "autodiff.s", None),
    ("verify.graph", "graph_check.s", "graph_check.calls"),
    ("graph.canonical", "canonical.s", "canonical.calls"),
    ("core.rules", "theory.s", "theory.calls"),
    ("core.synthesizer", "search.s", "search.calls"),
    ("core.load_balancer", "lp.s", "lp.calls"),
    ("core.pipeline", "planner.s", None),
    ("core.costmodel", "costmodel.s", "costmodel.calls"),
    ("core.hierarchical", "hier.self_s", None),
    ("simulator.schedule", "schedule_sim.s", "schedule_sim.calls"),
    ("core.plancache.get", "cache.get_s", "cache.gets"),
    ("core.plancache.put", "cache.put_s", "cache.puts"),
    ("verify.plan", "planner_verify.s", "planner_verify.calls"),
    ("verify", "verify.s", None),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "request", "args")

    def __init__(self, name: str, start: float, parent: Optional[int], request: int) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.request = request
        self.args: Dict[str, float] = {}


class Tracer:
    """In-memory span and counter recorder for one traced pass."""

    def __init__(self) -> None:
        self.origin = time.perf_counter()
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = {}
        self._stack: List[int] = []

    @property
    def active(self) -> bool:
        """True inside a request span."""
        return bool(self._stack)

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    @contextmanager
    def span(self, name: str, request: Optional[int] = None) -> Iterator[Optional[Span]]:
        """Record a span; with no ``request`` it nests under the open one.

        Outside any request (and with no explicit ``request``) nothing is
        recorded and ``None`` is yielded.
        """
        parent = self._stack[-1] if self._stack else None
        if request is None:
            if parent is None:
                yield None
                return
            request = self.spans[parent].request
        span = Span(name, time.perf_counter(), parent, request)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    # -- analysis --------------------------------------------------------------
    def self_times(self) -> List[float]:
        """Per span: its duration minus the time its child spans cover."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.end - span.start
        return [s.end - s.start - c for s, c in zip(self.spans, covered)]

    def layer_seconds(self) -> Dict[str, float]:
        """Self seconds per span name, summed over the pass."""
        totals: Dict[str, float] = {}
        for span, own in zip(self.spans, self.self_times()):
            totals[span.name] = totals.get(span.name, 0.0) + own
        return totals

    def layer_calls(self) -> Dict[str, int]:
        """Recorded spans per span name."""
        calls: Dict[str, int] = {}
        for span in self.spans:
            calls[span.name] = calls.get(span.name, 0) + 1
        return calls

    def request_breakdown(self, request: int) -> Tuple[float, Dict[str, float]]:
        """(request span duration, self seconds per layer inside it).

        The ``request`` entry is the time no layer span covers; the entries
        sum to the duration.
        """
        own = self.self_times()
        inside: Dict[int, bool] = {}
        duration = 0.0
        totals: Dict[str, float] = {}
        for idx, span in enumerate(self.spans):
            if span.request != request:
                continue
            if span.parent is None:
                inside[idx] = span.name == REQUEST
                if inside[idx]:
                    duration = span.end - span.start
            else:
                inside[idx] = inside[span.parent]
            if inside[idx]:
                totals[span.name] = totals.get(span.name, 0.0) + own[idx]
        return duration, totals

    def chrome_trace(self, labels: Dict[int, str], metadata: Dict[str, object]) -> Dict:
        """The spans as Chrome-trace JSON: one track per request."""
        events: List[Dict[str, object]] = []
        for request, label in sorted(labels.items()):
            events.append({"ph": "M", "name": "thread_name", "pid": 1, "tid": request + 1,
                           "args": {"name": f"#{request} {label}"}})
        for span in self.spans:
            events.append({
                "ph": "X", "name": span.name, "cat": span.name, "pid": 1,
                "tid": span.request + 1,
                "ts": round((span.start - self.origin) * 1e6, 3),
                "dur": round((span.end - span.start) * 1e6, 3),
                "args": dict(span.args, request=span.request),
            })
        return {"traceEvents": events, "displayTimeUnit": "ms", "metadata": metadata}


# -- layer entry points --------------------------------------------------------------

def _nodes(_args, result) -> Dict[str, float]:
    return {"autodiff.nodes": len(result.graph)}


def _theory(_args, result) -> Dict[str, float]:
    return {"theory.rules": len(result.rules)}


def _search(args, result) -> Dict[str, float]:
    out = {"search.expanded": result.expanded_states, "search.generated": result.generated_states}
    reuse = getattr(args[0], "reuse_stats", None) or {}
    out["search.block_occurrences"] = reuse.get("occurrences", 0)
    out["search.blocks_recorded"] = reuse.get("recorded", 0)
    out["search.blocks_replayed"] = reuse.get("replayed", 0)
    out["search.block_fallbacks"] = reuse.get("fallbacks", 0)
    return out


def _lp(_args, result) -> Dict[str, float]:
    return {"lp.failed": 0 if result.success else 1}


def _rounds(_args, result) -> Dict[str, float]:
    return {"planner.rounds": len(result.rounds)}


def _hier(_args, result) -> Dict[str, float]:
    stats = result.reuse_stats
    return {
        "hier.subplans_planned": stats.get("subplans_planned", 0),
        "hier.subplans_deduped": stats.get("subplans_deduped", 0),
        "cache.chunk_hits": stats.get("cache_hits", 0),
        "cache.rejects": stats.get("cache_rejects", 0),
        "cache.whole_plan_hits": stats.get("whole_plan_hit", 0),
    }


def _cache_get(_args, result) -> Dict[str, float]:
    return {"cache.hits": 0 if result is None else 1}


def _targets():
    """(owner, attribute, span name or None, counter fn, counter key) per patch.

    A ``None`` span name counts calls under ``counter key`` without a span.
    """
    import repro.core.hierarchical as hierarchical
    import repro.core.pipeline as pipeline
    import repro.core.synthesizer as synthesizer
    import repro.hap as api
    import repro.verify.graph as graph_check
    import repro.verify.plan as plan_check
    import repro.verify.program as program_check
    from repro.core.costmodel import CostModel

    return [
        (api, "build_training_graph", "autodiff", _nodes, None),
        (hierarchical, "build_stage_training_graph", "autodiff", _nodes, None),
        # Imported inside the planners' functions, so the module attribute
        # is the name they resolve.
        (graph_check, "verify_graph", "verify.graph", None, None),
        (plan_check, "verify_plan", "verify.plan", None, None),
        (program_check, "verify_program", "verify.plan", None, None),
        (hierarchical, "graph_fingerprint", "graph.canonical", None, None),
        (hierarchical, "fingerprint_with_order", "graph.canonical", None, None),
        (synthesizer, "find_repeated_blocks", "graph.canonical", None, None),
        (pipeline, "build_theory", "core.rules", _theory, None),
        (synthesizer.ProgramSynthesizer, "synthesize", "core.synthesizer", _search, None),
        (pipeline.LoadBalancer, "optimize", "core.load_balancer", _lp, None),
        (pipeline.HAPPlanner, "__init__", "core.pipeline", None, None),
        (pipeline.HAPPlanner, "plan", "core.pipeline", _rounds, None),
        (CostModel, "__init__", "core.costmodel", None, None),
        (CostModel, "evaluate", "core.costmodel", None, None),
        (CostModel, "evaluate_many", "core.costmodel", None, None),
        (CostModel, "phase_profile", "core.costmodel", None, None),
        (hierarchical.HierarchicalPlanner, "plan", "core.hierarchical", _hier, None),
        (hierarchical.HierarchicalPlanner, "build_candidate", None, None, "hier.candidates"),
        (hierarchical, "simulate_pipeline", "simulator.schedule", None, None),
    ]


def _wrap(tracer: Tracer, fn: Callable, name: Optional[str],
          counters: Optional[Callable], key: Optional[str]) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if name is None:
            if tracer.active:
                tracer.count(key)
            return fn(*args, **kwargs)
        with tracer.span(name) as span:
            result = fn(*args, **kwargs)
            if span is not None and counters is not None:
                for counter, value in counters(args, result).items():
                    span.args[counter] = value
                    tracer.count(counter, value)
        return result

    return traced


@contextmanager
def installed(tracer: Tracer, cache=None) -> Iterator[None]:
    """Wrap every layer entry point (and ``cache``'s get/put) for the block."""
    patches = _targets()
    if cache is not None:
        patches += [(cache, "get", "core.plancache.get", _cache_get, None),
                    (cache, "put", "core.plancache.put", None, None)]
    saved = []
    try:
        for owner, attr, name, counters, key in patches:
            own = attr in vars(owner)
            original = getattr(owner, attr)
            saved.append((owner, attr, own, original))
            setattr(owner, attr, _wrap(tracer, original, name, counters, key))
        yield
    finally:
        for owner, attr, own, original in reversed(saved):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


def format_table(tracer: Tracer, requests: List[int]) -> List[str]:
    """Per-layer self-time table of a traced pass.

    The median-request column breaks one request (the lower median by traced
    duration) into layer self times plus the uncovered remainder, so it sums
    to that request's plan time.  ``verify`` runs after the request, outside
    it, and only shows in the run totals.
    """
    breakdowns = {r: tracer.request_breakdown(r) for r in requests}
    ranked = sorted(requests, key=lambda r: breakdowns[r][0])
    median_request = ranked[(len(ranked) - 1) // 2]
    median_total, median_layers = breakdowns[median_request]
    totals = tracer.layer_seconds()
    lines = [f"  {'layer':<20} {'median req s':>12} {'share':>7} {'run total s':>12}"]
    for name, _, _ in LAYERS:
        own = median_layers.get(name, 0.0)
        share = own / median_total if median_total else 0.0
        label = "(uncovered)" if name == REQUEST else name
        lines.append(f"  {label:<20} {own:12.4f} {share:7.1%} {totals.get(name, 0.0):12.4f}")
    planned = sum(duration for duration, _ in breakdowns.values())
    lines.append(
        f"  {'= request #' + str(median_request):<20} {median_total:12.4f} {'':>7} {planned:12.4f}"
    )
    return lines


def write_chrome_trace(path, tracer: Tracer, labels: Dict[int, str], metadata: Dict) -> None:
    with open(path, "w") as fh:
        json.dump(tracer.chrome_trace(labels, metadata), fh)
