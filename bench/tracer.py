"""Span tracer that sees spinclust only from outside.

The tracer replaces public functions at the module attribute their caller
looks up (``spinclust.cli.temperature_sweep``, ``spinclust.spc.extract_clusters``,
...) with a wrapper that records a span around the call and hands the call's
arguments and result to an optional hook that records counts. Spans are kept
in memory; ``Tracer.summary`` folds them into per-name totals and self times
(a span's duration minus the time covered by its direct children).

Refactors of the program must not break the benchmark: a target that no
longer exists is skipped and listed in ``missing``, a hook that no longer
fits the call is disabled and listed in ``hook_errors``, and the wrapped
call's own result and exceptions always pass through unchanged.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self.missing: list[str] = []
        self.hook_errors: dict[str, str] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0,
                               self._stack[-1] if self._stack else -1))
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx].end = time.perf_counter()

    def count(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def reset(self) -> None:
        """Forget recorded spans and counts; wrappers stay installed."""
        self.spans.clear()
        self.counts.clear()

    # -- wrapping --------------------------------------------------------

    def wrap(self, module_name: str, attr: str, span_name: str, hook=None) -> bool:
        """Replace ``module.attr`` by a traced wrapper; False if it is gone."""
        target = f"{module_name}.{attr}"
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            self.missing.append(target)
            return False
        original = getattr(module, attr, None)
        if not callable(original):
            self.missing.append(target)
            return False
        try:
            signature = inspect.signature(original)
        except (TypeError, ValueError):
            signature = None
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with tracer.span(span_name):
                result = original(*args, **kwargs)
            if hook is not None and target not in tracer.hook_errors:
                tracer._run_hook(target, hook, signature, args, kwargs, result)
            return result

        setattr(module, attr, traced)
        self._patched.append((module, attr, original))
        return True

    def _run_hook(self, target, hook, signature, args, kwargs, result) -> None:
        # A hook reads arguments by name and result attributes that a later
        # refactor may rename; a failing hook is switched off and reported,
        # never allowed to fail the traced call.
        try:
            bound = signature.bind(*args, **kwargs) if signature else None
            if bound is not None:
                bound.apply_defaults()
            hook(self, bound.arguments if bound else {}, result)
        except Exception as exc:  # noqa: BLE001 - boundary that must keep running
            self.hook_errors[target] = f"{type(exc).__name__}: {exc}"

    def unwrap_all(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    # -- folding ---------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, inclusive seconds and self seconds."""
        child_time = [0.0] * len(self.spans)
        for sp in self.spans:
            if sp.parent >= 0:
                child_time[sp.parent] += sp.end - sp.start
        out: dict[str, dict[str, float]] = {}
        for sp, covered in zip(self.spans, child_time):
            agg = out.setdefault(sp.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["total_s"] += sp.end - sp.start
            agg["self_s"] += sp.end - sp.start - covered
        return out
