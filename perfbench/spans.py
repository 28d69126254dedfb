"""Spans around kforge's public functions, installed from outside the package.

``Tracer.install`` replaces each target with a wrapper that records its
span: count, total time and self time (the span's duration minus the time
its child spans on the same thread cover). Module-level functions are
rebound in every loaded ``kforge`` module that imported them by name;
methods are replaced on their class. A target that no longer exists is
recorded in ``missing`` and the run goes on without it.

Spans are aggregated per name in memory; only the backend-call durations
are kept one by one, for percentiles.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable


@dataclass
class SpanStats:
    calls: int = 0
    items: int = 0
    errors: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


@dataclass(frozen=True)
class Target:
    """One wrapped callable: ``module`` plus ``attr`` (``Class.method`` for methods)."""

    module: str
    attr: str
    span: str
    # span name from the call's (args, kwargs), e.g. the stage of run_stage
    name_from_args: Callable[[tuple, dict], str] | None = None
    keep_samples: bool = False


@dataclass
class Tracer:
    spans: dict[str, SpanStats] = field(default_factory=dict)
    samples: dict[str, list[float]] = field(default_factory=dict)
    counters: dict[str, int] = field(default_factory=dict)
    missing: list[str] = field(default_factory=list)
    _local: threading.local = field(default_factory=threading.local)
    _lock: threading.Lock = field(default_factory=threading.Lock)

    def _stack(self) -> list[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def bump(self, name: str, by: int = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + by

    def _close(self, name: str, stack: list[float], t0: float, calls: int,
               items: int, error: bool, keep: bool) -> None:
        duration = perf_counter() - t0
        child = stack.pop()
        if stack:
            stack[-1] += duration
        with self._lock:
            stats = self.spans.get(name)
            if stats is None:
                stats = self.spans[name] = SpanStats()
            stats.calls += calls
            stats.items += items
            stats.errors += error
            stats.total_s += duration
            stats.self_s += duration - child
            if keep:
                self.samples.setdefault(name, []).append(duration)

    def wrap(self, fn, target: Target):
        tracer = self
        keep = target.keep_samples
        name_from_args = target.name_from_args

        if inspect.isgeneratorfunction(fn):
            # time each resumption; the consumer's own work between items
            # stays with the consumer's span
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                name = name_from_args(args, kwargs) if name_from_args else target.span
                it = fn(*args, **kwargs)
                calls = 1
                try:
                    while True:
                        stack = tracer._stack()
                        stack.append(0.0)
                        t0 = perf_counter()
                        try:
                            item = next(it)
                        except StopIteration:
                            tracer._close(name, stack, t0, calls, 0, False, False)
                            return
                        except BaseException:
                            tracer._close(name, stack, t0, calls, 0, True, False)
                            raise
                        tracer._close(name, stack, t0, calls, 1, False, False)
                        calls = 0
                        yield item
                finally:
                    it.close()
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = name_from_args(args, kwargs) if name_from_args else target.span
            stack = tracer._stack()
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(name, stack, t0, 1, 0, True, keep)
                raise
            tracer._close(name, stack, t0, 1, 0, False, keep)
            return result
        return wrapper

    def install(self, targets: list[Target]) -> None:
        for target in targets:
            try:
                module = importlib.import_module(target.module)
                owner_name, _, attr = target.attr.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{target.module}.{target.attr}")
                continue
            wrapped = self.wrap(original, target)
            setattr(owner, attr, wrapped)
            if owner_name:
                continue
            for name, loaded in list(sys.modules.items()):
                if name == "kforge" or name.startswith("kforge."):
                    for key, value in list(vars(loaded).items()):
                        if value is original:
                            setattr(loaded, key, wrapped)
