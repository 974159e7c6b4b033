"""In-memory spans and counters around the public calls of each oncograph layer.

Spans are recorded from outside the program: ``instrument`` swaps each
public function for a wrapper for the duration of a ``with`` block and puts
the original back afterwards. The CLI module looks its layers up by module
attribute at call time, so ``cli.main`` runs through the wrappers.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    op: str          # the benchmark operation (one CLI call) the span belongs to
    start: float
    end: float
    parent: int | None


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    op: str = ""
    _stack: list[int] = field(default_factory=list)

    def call(self, name: str, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else None
        sid = len(self.spans)
        span = Span(name, self.op, time.perf_counter(), 0.0, parent)
        self.spans.append(span)
        self._stack.append(sid)
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def self_times(self, first: int = 0) -> dict[tuple[str, str], float]:
        """Seconds per (operation, span name) over spans[first:], minus the
        time their child spans cover."""
        recent = self.spans[first:]
        own = [s.end - s.start for s in recent]
        for s in recent:
            if s.parent is not None and s.parent >= first:
                own[s.parent - first] -= s.end - s.start
        out: dict[tuple[str, str], float] = {}
        for s, seconds in zip(recent, own):
            key = (s.op, s.name)
            out[key] = out.get(key, 0.0) + seconds
        return out

    def as_json(self) -> list[dict]:
        return [vars(s) for s in self.spans]


def _group_name(metric="hamming", strategy="components", **_):
    return "cohort.group_cliques" if strategy == "cliques" else f"cohort.group_{metric}"


def wrap(tracer: Tracer, fn, name, on_result=None):
    """``fn`` with a span around each call.

    ``name`` is the span's name, or a function of the call's keyword
    arguments that gives it, or None for ``cohort.<operation>``.
    ``on_result(name, result)`` is called after each call.
    """

    def wrapper(*args, **kwargs):
        label = name(**kwargs) if callable(name) else name or f"cohort.{tracer.op}"
        result = tracer.call(label, fn, *args, **kwargs)
        if on_result is not None:
            on_result(label, result)
        return result

    return wrapper


@contextlib.contextmanager
def instrument(tracer: Tracer, on_result=None):
    """Wrap the public calls of ingest, graph, knowledge, cohort and hitting_set.

    ``on_result(name, result)`` is called after each wrapped call, for
    counters taken from what the layer returned.
    """
    from oncograph import cohort, graph, hitting_set, ingest, knowledge

    targets = [
        (ingest, "parse_mutation_table", "ingest.parse_mutation_table"),
        (ingest, "parse_clinical_table", "ingest.parse_other_tables"),
        (ingest, "parse_gda_table", "ingest.parse_other_tables"),
        (ingest, "parse_drug_target_table", "ingest.parse_other_tables"),
        (ingest, "parse_treatment_table", "ingest.parse_other_tables"),
        (ingest, "build_graph", "ingest.build_graph"),
        (graph, "validate", "graph.validate"),
        (graph.KnowledgeGraph, "mutation_by_display", "graph.mutation_by_display"),
        (knowledge, "check_consistency", "knowledge.check_consistency"),
        (cohort, "profiles_from_graph", "cohort.profiles_from_graph"),
        (cohort, "survival_partition", "cohort.survival_partition"),
        (cohort, "group_by_threshold", _group_name),
        (cohort, "frequency_table", "cohort.frequency_table"),
        (cohort, "coexisting_mutation_sets", None),  # named after the operation
        (hitting_set, "build_instance", "hitting_set.build_instance"),
        (hitting_set, "solve_min_weight", "hitting_set.solve_min_weight"),
        (hitting_set, "solve_min_cardinality", "hitting_set.solve_min_cardinality"),
    ]
    saved = []
    for owner, attr, name in targets:
        fn = getattr(owner, attr)
        saved.append((owner, attr, fn))
        setattr(owner, attr, wrap(tracer, fn, name, on_result))
    try:
        yield tracer
    finally:
        for owner, attr, fn in saved:
            setattr(owner, attr, fn)
