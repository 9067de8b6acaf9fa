"""Span tracer that wraps fisheq's public functions from outside the package.

Every public function defined in a traced fisheq module is rebound, in each
``fisheq.*`` namespace that holds it, to a wrapper that appends a span
``[name, start, end, parent]`` to an in-memory list.  A span is named after
the module that defines the function, not the one it was called through:
``balanced_flow`` called via ``fisheq.descend`` is ``flow.balanced_flow``.
Functions are found by scanning the modules at install time, so a function a
later change adds, moves or deletes needs no edit here.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

PACKAGE = "fisheq"
# Modules that are not solver layers: the CLI (timed as set-up), the
# test-only oracle, and error types.  ``exact`` holds the parse/format
# helpers, which run once per number and are seen through price bit lengths.
UNTRACED_MODULES = ("cli", "oracle", "exact", "errors")
# Hot helpers that take a few microseconds and run thousands of times per
# solve; wrapping them would mostly measure the wrapper.  Their time counts
# as self time of the traced function that calls them.
SKIPPED = ("market.mbb_ratio",)


def _traced_functions():
    """(span name, function) for each public function of a traced module."""
    found = []
    for module_name, module in sorted(sys.modules.items()):
        if not module_name.startswith(PACKAGE + ".") or module is None:
            continue
        layer = module_name[len(PACKAGE) + 1 :]
        if layer in UNTRACED_MODULES:
            continue
        for attr, value in sorted(vars(module).items()):
            if (
                not attr.startswith("_")
                and inspect.isfunction(value)
                and value.__module__ == module_name
                and f"{layer}.{attr}" not in SKIPPED
            ):
                found.append((f"{layer}.{attr}", value))
    return found


class Tracer:
    """Records spans of the wrapped functions while installed.

    For the one function named ``keyed`` it also keeps, in ``keys``, a key
    of each call's arguments, in call order.  ``key_of(function)`` returns
    the function that computes the key; a call whose key cannot be computed
    records none, so the program never sees the key function's errors.
    Spans are timed with ``clock``.
    """

    def __init__(self, keyed=None, key_of=None, clock=time.perf_counter):
        self.names = []
        self.spans = []
        self.keys = []
        self._keyed, self._key_of = keyed, key_of
        self._stack = []
        self._patches = []
        self._clock = clock

    def install(self):
        originals = {}
        for name, function in _traced_functions():
            self.names.append(name)
            wrapper = self._wrap(len(self.names) - 1, function)
            if name == self._keyed:
                wrapper = self._record_keys(wrapper, self._key_of(function))
            originals[id(function)] = wrapper
        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name == PACKAGE or module_name.startswith(PACKAGE + ".")
            ):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None and wrapper.__wrapped__ is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()

    def _wrap(self, name_id, function):
        spans, stack, clock = self.spans, self._stack, self._clock

        @functools.wraps(function)
        def traced(*args, **kwargs):
            span = [name_id, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return function(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def _record_keys(self, wrapper, key):
        keys = self.keys

        @functools.wraps(wrapper)
        def keyed(*args, **kwargs):
            try:
                keys.append(key(*args, **kwargs))
            except Exception:  # a key is optional; the call is not
                pass
            return wrapper(*args, **kwargs)

        keyed.__wrapped__ = wrapper.__wrapped__
        return keyed

    def self_times(self):
        """Each span's duration minus the time its direct children cover."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return [end - start - covered[k] for k, (_, start, end, _) in enumerate(self.spans)]

    def write(self, path, market_ends):
        """Spans as tab-separated text: market, name, start, end, parent."""
        market = 0
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("market\tname\tstart\tend\tparent\n")
            for index, (name_id, start, end, parent) in enumerate(self.spans):
                while market < len(market_ends) and index >= market_ends[market]:
                    market += 1
                handle.write(
                    f"{market}\t{self.names[name_id]}\t{start!r}\t{end!r}\t{parent}\n"
                )
