"""Span recorder for the traced benchmark run.

Spans are recorded around the public callables that ``resha.cli`` and the
oracle workload resolve at call time (module attributes and one method), so a
traced operation runs the same pipeline code as an untraced one. Wrappers are
installed only for the duration of a traced operation. Spans stay in memory
and are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import json
import logging
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

Counter = Callable[["Tracer", tuple, dict, Any], None]


class Tracer:
    """Records (name, start, end, parent, op) spans and per-op counts."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or None, op id]
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.op: int | None = None
        self._stack: list[int] = []
        self._hooks: list[tuple[Any, str, str, Counter | None]] = []
        self._installed: list[tuple[Any, str, Any]] = []
        self._solved_trees: list[Any] = []
        self._log_filter = _LogCounter(self)

    def hook(self, owner: Any, attr: str, span: str, count: Counter | None = None) -> None:
        """Register ``owner.attr`` to be wrapped in a ``span`` while an op is traced.

        A callable missing from this version of the program is skipped; its
        metrics then read 0.
        """
        if callable(getattr(owner, attr, None)):
            self._hooks.append((owner, attr, span, count))

    def add(self, key: str, value: float) -> None:
        self.counts[self.op][key] += value

    def first_solve_of(self, tree: Any) -> bool:
        """True the first time ``tree`` reaches the solver within the current op."""
        if any(seen is tree for seen in self._solved_trees):
            return False
        # Holding the tree until the op ends keeps its identity from being reused.
        self._solved_trees.append(tree)
        return True

    def run_op(self, op_id: int, fn: Callable[[], Any]) -> tuple[Any, float]:
        """Run ``fn`` as traced op ``op_id``; returns its result and wall seconds."""
        self.op = op_id
        self._solved_trees = []
        self._install()
        try:
            index = self._enter("op")
            try:
                result = fn()
            finally:
                self._exit(index)
        finally:
            self._uninstall()
            self.op = None
        start, end = self.spans[index][1:3]
        return result, end - start

    def _enter(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op])
        self._stack.append(index)
        return index

    def _exit(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _install(self) -> None:
        for owner, attr, span, count in self._hooks:
            original = getattr(owner, attr)
            setattr(owner, attr, self._wrap(original, span, count))
            self._installed.append((owner, attr, original))
        logging.getLogger("resha.ccf").addFilter(self._log_filter)

    def _uninstall(self) -> None:
        logging.getLogger("resha.ccf").removeFilter(self._log_filter)
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def _wrap(self, original: Callable, span: str, count: Counter | None) -> Callable:
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = tracer._enter(span)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._exit(index)
            if count is not None:
                count(tracer, args, kwargs, result)
            return result

        return traced

    def self_times(self) -> dict[int, dict[str, float]]:
        """Per op, the summed self time of each span name.

        Self time is a span's duration minus the durations of its children;
        the run is single-threaded, so children never overlap.
        """
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        totals: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for index, (name, start, end, _, op) in enumerate(self.spans):
            totals[op][name] += (end - start) - covered[index]
        return totals

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


class _LogCounter(logging.Filter):
    """Counts CCF skip warnings per op without changing where they go."""

    def __init__(self, tracer: Tracer) -> None:
        super().__init__()
        self.tracer = tracer

    def filter(self, record: logging.LogRecord) -> bool:
        if record.levelno >= logging.WARNING and self.tracer.op is not None:
            self.tracer.add("ccf.skipped", 1)
        return True
