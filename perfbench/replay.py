"""Per-layer tracing through the public lettercost API.

Spans live in the benchmark, around public calls. After a traced `solve`,
the main path is replayed stage by stage on the same instance (normalize,
choose_k, build_cost_graph, group_words, construct_leveled, materialize,
convert_to_prefix, reorder, costs) from the constraint tuple that the
returned code implies, and the tiny-letter path from its candidate
construction. The replayed code must equal solve's code exactly; a mismatch
raises ReplayMismatch, so a refactor that breaks this reconstruction fails
loudly instead of skewing the per-layer numbers.

The search's self time is the solve span minus the replayed stages.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from fractions import Fraction

from lettercost import (
    CodeAssignment,
    CodeReport,
    CostGraph,
    Guess,
    Instance,
    LeveledCode,
    NormalizedInstance,
    build_cost_graph,
    choose_k,
    codeword_cost,
    construct_leveled,
    convert_to_prefix,
    group_words,
    is_prefix_free,
    normalize,
    reorder,
)
from lettercost.driver import (
    guess_stream_size,
    tiny_candidate_code,
    tiny_run_length_candidates,
)
from lettercost.kprefix import OpCounter

# solve_tiny_ell1 runs its is_prefix_free self-check only up to this n
TINY_PREFIX_CHECK_MAX_N = 512

# Replayed main-path stages; their sum is subtracted from the solve span.
MAIN_STAGES = (
    "core.normalize",
    "driver.choose_k",
    "cost_graph.build",
    "driver.group_words",
    "kprefix.construct",
    "kprefix.materialize",
    "convert.convert",
    "core.reorder",
    "core.costs",
)


class ReplayMismatch(AssertionError):
    """The public-API replay did not reproduce solve's code."""


class Tracer:
    """In-memory spans. Each records its request (instance index), name,
    enclosing span, start and end; counts are recorded per request."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[int, dict[str, float]] = {}
        self._open: list[int] = []

    @contextmanager
    def span(self, request: int, name: str):
        rec = {
            "request": request,
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._open.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def count(self, request: int, name: str, value: float) -> None:
        self.counts.setdefault(request, {})[name] = value

    def durations(self, request: int) -> dict[str, float]:
        """Total seconds per span name for one request."""
        out: dict[str, float] = {}
        for rec in self.spans:
            if rec["request"] == request:
                out[rec["name"]] = out.get(rec["name"], 0.0) + rec["end"] - rec["start"]
        return out


def rebuild_guess(norm: NormalizedInstance, graph: CostGraph, code: CodeAssignment) -> Guess:
    """The constraint tuple behind a main-mode code.

    Codewords cheaper than k pass through conversion unchanged, so their
    costs over the normalized letters, in quanta, give the level-0 run
    length and the per-level counts; the rest are converted tail words.
    """
    letters = norm.instance.letters
    f0 = 0
    levels: dict[int, int] = {}
    for runs in code.codewords:
        cost_q = codeword_cost(runs, letters) / norm.cost_quantum
        if cost_q.denominator != 1:
            raise ReplayMismatch("codeword cost %s is not a whole number of quanta" % cost_q)
        cost_q = cost_q.numerator
        if cost_q >= graph.k_q:
            continue
        if cost_q < graph.unit_q:
            f0 = sum(rep for _, rep in runs)
        else:
            lvl = graph.level_of(cost_q)
            levels[lvl] = levels.get(lvl, 0) + 1
    return Guess(f0, tuple(sorted(levels.items())))


def replay_main(tracer: Tracer, req: int, instance: Instance, report: CodeReport) -> None:
    """Replay solve's main path on `instance`; raise ReplayMismatch unless the
    result equals report.code."""
    with tracer.span(req, "core.normalize"):
        norm = normalize(instance)
    with tracer.span(req, "driver.choose_k"):
        k = choose_k(norm.epsilon_prime)
    with tracer.span(req, "cost_graph.build"):
        graph = build_cost_graph(norm, k)
    with tracer.span(req, "driver.group_words"):
        grouping = group_words(norm, k)
    guess = rebuild_guess(norm, graph, report.code)
    ops = OpCounter()
    with tracer.span(req, "kprefix.construct"):
        leveled = construct_leveled(norm, graph, guess, instance.n, ops=ops)
    if not isinstance(leveled, LeveledCode):
        raise ReplayMismatch("rebuilt guess %r is inconsistent: %s" % (guess, leveled))
    with tracer.span(req, "kprefix.materialize"):
        leveled.codewords
    with tracer.span(req, "convert.convert"):
        prefix = convert_to_prefix(leveled, k)
    with tracer.span(req, "core.reorder"):
        code = reorder(CodeAssignment(prefix.codewords, instance.letters))
    with tracer.span(req, "core.costs"):
        code.costs()
    if code.codewords != report.code.codewords:
        raise ReplayMismatch("main-path replay differs from solve's code (guess %r)" % (guess,))

    tracer.count(req, "driver.search_explored", report.explored)
    tracer.count(req, "driver.search_leaves", report.guess_count)
    stream = guess_stream_size(grouping, k, norm.epsilon_prime)
    tracer.count(req, "driver.search_leaf_fraction", report.guess_count / stream)
    tracer.count(req, "cost_graph.nodes", graph.node_count)
    tracer.count(req, "cost_graph.arcs", graph.arc_count)
    tracer.count(req, "kprefix.ops", ops.count)
    tracer.count(req, "convert.rewritten", sum(c >= graph.k_q for c in leveled.word_costs_q))
    tracer.count(req, "driver.groups", grouping.group_count)


def replay_tiny(tracer: Tracer, req: int, instance: Instance, report: CodeReport | None) -> None:
    """Replay solve_tiny_ell1: candidate codes, the prefix self-check, then
    (when solve returned) reorder and costs, which must give report.code.
    A RecursionError in is_prefix_free is counted, not raised."""
    with tracer.span(req, "driver.tiny"):
        candidates = tiny_run_length_candidates(instance)
        best_cost: Fraction | None = None
        for i0 in candidates:
            cost, words, _ = tiny_candidate_code(instance, i0)
            if best_cost is None or cost < best_cost:
                best_cost, best_words = cost, words
    tracer.count(req, "driver.tiny_candidates", len(candidates))
    failed = 0
    if instance.n <= TINY_PREFIX_CHECK_MAX_N:
        with tracer.span(req, "core.is_prefix_free"):
            try:
                if not is_prefix_free(best_words):
                    raise ReplayMismatch("tiny candidate code is not prefix free")
            except RecursionError:
                failed = 1
    tracer.count(req, "core.is_prefix_free_failed", failed)
    if report is None:
        return
    with tracer.span(req, "core.reorder"):
        code = reorder(CodeAssignment(tuple(best_words), instance.letters))
    with tracer.span(req, "core.costs"):
        code.costs()
    if code.codewords != report.code.codewords:
        raise ReplayMismatch("tiny-path replay differs from solve's code")
