"""Tracing of stakeloop's layers from the benchmark's own files.

Nothing inside ``stakeloop`` changes. :class:`Tracer` replaces each
public function of the layer modules, in every ``stakeloop`` module that
holds a reference to it, by a wrapper that records a span (name, start, end,
parent, op id), or only counts calls for the hot leaf functions of ``irm``.
Parents are tracked per thread; a span opened on a thread with no open span
of its own (a sweep's pool thread) gets the op thread's innermost open span
as parent, so a thread pool's own time shows as its self time.
"""

from __future__ import annotations

import inspect
import itertools
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

# Modules whose public functions get a span, by layer name.
SPANNED = ("cli", "data", "backtest", "rebalance", "allocator", "_roots")
# Modules whose public functions are hot leaves: counted, not spanned.
COUNTED = ("irm",)
# Names the per-layer metrics read. A name missing from the program (a later
# version may delete it) is reported absent and its metrics read 0.
EXPECTED = (
    "irm.market_response",
    "irm.borrow_rate",
    "allocator.solve",
    "allocator.verify_kkt",
    "rebalance.solve_with_fees",
    "backtest.market_state_at",
    "backtest.run_backtest",
    "backtest.smooth_rates",
    "backtest.sweep_budgets",
    "data.load_snapshots",
    "data.emit_report",
    "cli.main",
    "_roots.bracketed_root",
)


@dataclass(slots=True)
class Span:
    span_id: int
    name: str
    parent: int | None
    op: int
    start: float
    end: float = 0.0
    attrs: dict[str, Any] | None = None


def _solve_attrs(args: tuple, result: Any) -> dict[str, Any]:
    return {"n": len(args[0].markets), "regime": result.regime}


def _load_attrs(args: tuple, result: Any) -> dict[str, Any]:
    return {"rows": len(result.snapshots)}


def _emit_attrs(args: tuple, result: Any) -> dict[str, Any]:
    return {"paths": [str(Path(p).resolve()) for p in result]}


# Attributes some metrics need beyond a span's times.
ANNOTATORS: dict[str, Callable[[tuple, Any], dict[str, Any]]] = {
    "allocator.solve": _solve_attrs,
    "data.load_snapshots": _load_attrs,
    "data.emit_report": _emit_attrs,
}


class Tracer:
    """Install with :meth:`patch`, run one op between :meth:`begin_op` and
    :meth:`end_op`, and always :meth:`unpatch` afterwards."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._ids = itertools.count()
        self._op_thread_stack: list[Span] = []
        self._op = -1
        self._spans: list[Span] = []
        # next() on itertools.count holds the GIL throughout, so pool threads
        # can count concurrently without losing updates.
        self._counters: dict[str, itertools.count] = {}
        self._patched: list[tuple[Any, str, Any]] = []
        self.present: set[str] = set()

    # -- installation ---------------------------------------------------------

    def patch(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = {
            name: mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == "stakeloop" or name.startswith("stakeloop."))
        }
        replacements: dict[int, Callable] = {}
        for short in SPANNED + COUNTED:
            mod = modules.get(f"stakeloop.{short}")
            if mod is None:
                continue
            for attr, obj in vars(mod).items():
                public = not attr.startswith("_") and inspect.isfunction(obj)
                if not public or obj.__module__ != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                self.present.add(name)
                if short in COUNTED:
                    replacements[id(obj)] = self._counting(name, obj)
                else:
                    replacements[id(obj)] = self._spanning(name, obj)
        # Every module that imported a function holds its own reference.
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                wrapper = replacements.get(id(obj))
                if wrapper is not None:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)

    def unpatch(self) -> None:
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    def _counting(self, name: str, fn: Callable) -> Callable:
        counter = self._counters.setdefault(name, itertools.count())

        def wrapper(*args, **kwargs):
            next(counter)
            return fn(*args, **kwargs)

        return wrapper

    def _spanning(self, name: str, fn: Callable) -> Callable:
        tracer = self
        local = self._local
        ids = self._ids
        clock = time.perf_counter
        annotate = ANNOTATORS.get(name)

        def wrapper(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            if stack:
                parent = stack[-1].span_id
            else:
                op_stack = tracer._op_thread_stack
                parent = op_stack[-1].span_id if op_stack and stack is not op_stack else None
            span = Span(next(ids), name, parent, tracer._op, clock())
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                tracer._spans.append(span)
            if annotate is not None:
                try:
                    span.attrs = annotate(args, result)
                except (AttributeError, TypeError, IndexError):
                    pass  # a later program version changed the shape
            return result

        return wrapper

    # -- one op ---------------------------------------------------------------

    def begin_op(self, op: int) -> dict[str, int]:
        """Mark the calling thread as the op thread; returns counter marks."""
        self._op = op
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        self._op_thread_stack = self._local.stack
        self._spans = []
        return {name: next(c) + 1 for name, c in self._counters.items()}

    def end_op(self, marks: dict[str, int]) -> tuple[list[Span], dict[str, int]]:
        """The op's spans and its call counts of the counted functions."""
        counts = {name: next(c) - marks.get(name, 0) for name, c in self._counters.items()}
        spans, self._spans = self._spans, []
        return spans, counts


def self_times(spans: list[Span]) -> dict[int, float]:
    """Duration of each span minus the union of its children's intervals."""
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(s.span_id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.span_id] = (s.end - s.start) - covered
    return out


@dataclass
class NameStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


def op_stats(spans: list[Span], counts: dict[str, int]) -> dict[str, NameStats]:
    """Per function name: calls, summed duration and summed self time."""
    selfs = self_times(spans)
    stats: dict[str, NameStats] = defaultdict(NameStats)
    for s in spans:
        st = stats[s.name]
        st.calls += 1
        st.total_s += s.end - s.start
        st.self_s += selfs[s.span_id]
    for name, n in counts.items():
        stats[name].calls += n
    return dict(stats)


def layer_metrics(spans: list[Span], counts: dict[str, int]) -> dict[str, float]:
    """The benchmark's per-layer metrics for one op."""
    stats = op_stats(spans, counts)

    def get(name: str) -> NameStats:
        return stats.get(name, NameStats())

    solves = [s for s in spans if s.name == "allocator.solve"]
    by_id = {s.span_id: s for s in spans}
    markets_solved = sum((s.attrs or {}).get("n", 0) for s in solves)
    unsaturated = sum(1 for s in solves if (s.attrs or {}).get("regime") == "unsaturated")
    plans = get("rebalance.solve_with_fees").calls
    plan_solves = sum(
        1
        for s in solves
        if s.parent in by_id and by_id[s.parent].name == "rebalance.solve_with_fees"
    )
    emitted = sum(
        Path(p).stat().st_size
        for s in spans
        if s.name == "data.emit_report"
        for p in (s.attrs or {}).get("paths", ())
    )
    rows = sum((s.attrs or {}).get("rows", 0) for s in spans if s.name == "data.load_snapshots")
    return {
        "irm.market_response.calls": get("irm.market_response").calls,
        "irm.market_response.per_market_solve": (
            get("irm.market_response").calls / markets_solved if markets_solved else 0.0
        ),
        "irm.borrow_rate.calls": get("irm.borrow_rate").calls,
        "allocator.solve.calls": len(solves),
        "allocator.solve.self_s": get("allocator.solve").self_s,
        "allocator.solve.unsaturated_share": unsaturated / len(solves) if solves else 0.0,
        "allocator.verify_kkt.s": get("allocator.verify_kkt").total_s,
        "rebalance.solve_with_fees.calls": plans,
        "rebalance.solve_with_fees.self_s": get("rebalance.solve_with_fees").self_s,
        "rebalance.solves_per_plan": plan_solves / plans if plans else 0.0,
        "backtest.market_state_at.calls": get("backtest.market_state_at").calls,
        "backtest.market_state_at.s": get("backtest.market_state_at").total_s,
        "backtest.run_backtest.self_s": get("backtest.run_backtest").self_s,
        "backtest.smooth_rates.calls": get("backtest.smooth_rates").calls,
        "backtest.smooth_rates.s": get("backtest.smooth_rates").total_s,
        "backtest.sweep_budgets.self_s": get("backtest.sweep_budgets").self_s,
        "data.load_snapshots.s": get("data.load_snapshots").total_s,
        "data.load_snapshots.rows": rows,
        "data.emit_report.s": get("data.emit_report").total_s,
        "data.emit_report.bytes": emitted,
        "cli.main.self_s": get("cli.main").self_s,
    }
