"""In-memory span recorder and the instrumentation of radpriors' layers.

The traced run wraps the public functions of each module (the names in
its ``__all__``, or its public functions when it has none) and rebinds
every module attribute that refers to them, so callers that imported a
name with ``from .corpus import load_corpus`` reach the wrapper too.
Nothing under ``src/`` changes.  Functions called per sentence, per token
or per n-gram are only counted, because a span per call would cost more than the
call itself; and they are counted in a pass of their own (``hot=True``),
because even a counter there would inflate the time of the layer that
calls them.

A span is ``(id, parent id, name, start, end)``; spans are kept in a list
and written out once, after the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter
from typing import Callable, NamedTuple

# Layer name -> module, as the per-layer metric names use them.
LAYERS = {
    "corpus": "radpriors.corpus",
    "rules": "radpriors.rules",
    "labeler": "radpriors.labeler",
    "metrics": "radpriors.metrics",
    "analysis": "radpriors.analysis",
    "infusion": "radpriors.infusion",
    "cli": "radpriors.cli",
    "_io": "radpriors._io",
}

# Called per sentence, per token, per template or per n-gram order: count,
# no span.  Their time stays inside their callers' spans.
COUNT_ONLY = frozenset({
    "corpus.extract_findings", "corpus.split_sentences", "corpus.tokenize",
    "metrics.ngram_counts", "metrics.cosine", "metrics.lcs_length",
    "rules.KeywordEntry.matches", "rules.RuleTemplate.match",
})
# Methods wrapped besides the module-level functions.
METHODS = (("rules", "KeywordEntry", "matches"),
           ("rules", "RuleTemplate", "match"))


class Span(NamedTuple):
    id: int
    parent: int | None
    name: str
    start: float
    end: float


class Recorder:
    """Spans and counters of one traced invocation."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def clear(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self._stack.clear()

    def wrap(self, name: str, func: Callable,
             observe: Callable | None = None) -> Callable:
        """Return ``func`` recorded as span ``name`` (or counted only)."""
        spans, counts, stack = self.spans, self.counts, self._stack
        calls = name + ".calls"

        if name in COUNT_ONLY:
            @functools.wraps(func)
            def counted(*args, **kwargs):
                counts[calls] += 1
                result = func(*args, **kwargs)
                if observe is not None:
                    observe(counts, args, result)
                return result
            return counted

        @functools.wraps(func)
        def spanned(*args, **kwargs):
            counts[calls] += 1
            span_id = len(spans) + len(stack)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans.append(Span(span_id, parent, name, start, end))
            if observe is not None:
                observe(counts, args, result)
            return result
        return spanned

    def layer_times(self) -> dict[str, tuple[float, float]]:
        """Span name -> (summed duration, summed self time).

        No wrapped function calls itself, so same-name spans never nest
        and their durations add up without double counting.
        """
        own = self_times(self.spans)
        times: dict[str, tuple[float, float]] = {}
        for span in self.spans:
            total, self_time = times.get(span.name, (0.0, 0.0))
            times[span.name] = (total + span.end - span.start,
                                self_time + own[span.id])
        return times

    def write(self, path: Path) -> None:
        """Write spans as JSON lines, then the counters as one object."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span._asdict()) + "\n")
            handle.write(json.dumps({"counts": dict(self.counts)},
                                    sort_keys=True) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the durations of its children.

    Spans come from one call stack, so children nest inside their parent
    and never overlap one another.
    """
    times = {span.id: span.end - span.start for span in spans}
    for span in spans:
        if span.parent is not None:
            times[span.parent] -= span.end - span.start
    return times


def _count_make_report(counts, args, report) -> None:
    counts["corpus.sentences"] += len(report.sentences)
    counts["corpus.tokens"] += sum(len(tokens) for tokens in report.tokens)


def _count_verdicts(counts, args, classified) -> None:
    for item in classified:
        counts["labeler.mentions_" + item.verdict.name.lower()] += 1


def _count_written(counts, args, result) -> None:
    counts["cli.output_bytes"] += len(args[1].encode("utf-8"))


# Counters observed at the boundaries, keyed by the wrapped name.
OBSERVERS = {
    "corpus.load_corpus":
        lambda counts, args, records: counts.update(
            {"corpus.records": len(records)}),
    "corpus.make_report": _count_make_report,
    "labeler.extract_mentions":
        lambda counts, args, mentions: counts.update(
            {"labeler.mentions": len(mentions)}),
    "labeler.classify_mentions": _count_verdicts,
    "metrics.evaluate_corpus":
        lambda counts, args, report: counts.update(
            {"metrics.pairs": len(args[0])}),
    "metrics.lcs_length":
        lambda counts, args, length: counts.update(
            {"metrics.lcs_cells": len(args[0]) * len(args[1])}),
    "rules.RuleTemplate.match":
        lambda counts, args, span: counts.update(
            {"rules.match_hits": span is not None}),
    "_io.atomic_write_text": _count_written,
    "infusion.forward":
        lambda counts, args, result: counts.update(
            {"infusion.decoded_tokens": len(result.tokens)}),
}


def _public_functions(module) -> list[str]:
    names = getattr(module, "__all__", None)
    if names is None:
        names = [name for name in vars(module) if not name.startswith("_")]
    return [name for name in names
            if inspect.isfunction(getattr(module, name, None))
            and getattr(module, name).__module__ == module.__name__]


class instrument:
    """Context manager that installs ``recorder``'s wrappers on radpriors.

    Every loaded ``radpriors`` module attribute that is one of the wrapped
    functions is rebound for the duration of the block and restored on
    exit.  The ``COUNT_ONLY`` functions are wrapped only when ``hot``.
    """

    def __init__(self, recorder: Recorder, hot: bool) -> None:
        self.recorder = recorder
        self.hot = hot
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self) -> Recorder:
        replaced = {}
        for layer, module_name in LAYERS.items():
            module = importlib.import_module(module_name)
            for name in _public_functions(module):
                func = getattr(module, name)
                key = f"{layer}.{name}"
                if key in COUNT_ONLY and not self.hot:
                    continue
                replaced[id(func)] = (func, self.recorder.wrap(
                    key, func, OBSERVERS.get(key)))
        for module in [m for n, m in sys.modules.items()
                       if n == "radpriors" or n.startswith("radpriors.")]:
            for attr, value in list(vars(module).items()):
                if id(value) in replaced and replaced[id(value)][0] is value:
                    self._set(module, attr, replaced[id(value)][1])
        for layer, class_name, method in METHODS if self.hot else ():
            cls = getattr(importlib.import_module(LAYERS[layer]), class_name)
            key = f"{layer}.{class_name}.{method}"
            self._set(cls, method, self.recorder.wrap(
                key, vars(cls)[method], OBSERVERS.get(key)))
        return self.recorder

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def __exit__(self, *exc_info) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)
