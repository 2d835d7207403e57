"""Instrumentation used by the benchmark, installed from outside the program.

Everything here works by rebinding names that callers look up at call time:
a module-level function is replaced in every loaded ``fuzzfeed`` module that
binds it, and a method is replaced on its class. Nothing in ``src/`` knows
about it, and every rebinding is undone when its context exits.

Two recorders use that mechanism:

* ``VerdictLog`` (every run) wraps only the four verdict functions, a few
  hundred calls per pass, to time each verdict and keep its result.
* ``SpanRecorder`` (traced runs only) wraps the public function of every
  layer. Spans are folded as they close into a call tree with one node per
  (parent node, span name); each node keeps its call count, total time and
  counters, so memory stays flat while a pass opens millions of spans. The
  tree is turned into per-layer numbers once, after the pass.
"""
from __future__ import annotations

import math
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

PACKAGE = "fuzzfeed"


def rebind(original, replacement) -> list:
    """Point every name bound to ``original`` in the loaded package modules
    at ``replacement``. Returns the undo records for ``restore``."""
    undo = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == PACKAGE
                                  or name.startswith(PACKAGE + ".")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                undo.append((module, attr, original))
    return undo


def restore(undo: list) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


@contextmanager
def patched(pairs):
    """Rebind each (target, wrap) for the duration of the block.

    ``target`` names what callers look up: ``"module:function"`` is rebound
    by identity in every package module that binds the function's current
    value, and ``"module:Class.method"`` on its class. ``wrap`` receives the
    current callable and returns its replacement, so wrappers installed
    later wrap the ones installed earlier."""
    undo = []
    try:
        for target, wrap in pairs:
            module_name, _, attr = target.partition(":")
            owner = sys.modules[module_name]
            if "." in attr:
                class_name, attr = attr.split(".")
                owner = getattr(owner, class_name)
                current = vars(owner)[attr]
                setattr(owner, attr, wrap(current))
                undo.append((owner, attr, current))
            else:
                current = getattr(owner, attr)
                undo.extend(rebind(current, wrap(current)))
        yield
    finally:
        restore(undo)


# --- verdicts ---------------------------------------------------------------

@dataclass
class Verdict:
    kind: str
    seconds: float
    args: tuple
    kwargs: dict
    result: object


class FirstVerdict(BaseException):
    """Raised at the first verdict by a set-up probe to stop the run."""


@dataclass
class VerdictLog:
    """Times every verdict; ``on_first`` runs before the first one starts."""

    verdicts: list = field(default_factory=list)
    on_first: object = None

    def wrap(self, kind: str):
        clock = time.perf_counter

        def wrapper_for(fn):
            def timed(*args, **kwargs):
                if self.on_first is not None:
                    hook, self.on_first = self.on_first, None
                    hook()
                start = clock()
                result = fn(*args, **kwargs)
                self.verdicts.append(Verdict(kind, clock() - start, args,
                                             kwargs, result))
                return result
            return timed
        return wrapper_for

    def install(self, functions: dict):
        """Context manager timing each verdict function named in
        ``functions`` (verdict kind -> ``patched`` target)."""
        return patched([(target, self.wrap(kind))
                        for kind, target in functions.items()])


# --- spans ------------------------------------------------------------------

class SpanNode:
    __slots__ = ("name", "parent", "children", "calls", "total", "counts")

    def __init__(self, name: str, parent: "SpanNode | None"):
        self.name = name
        self.parent = parent
        self.children: dict[str, SpanNode] = {}
        self.calls = 0
        self.total = 0.0
        self.counts: dict[str, float] = {}

    def self_time(self) -> float:
        """Duration minus the part covered by child spans."""
        return self.total - sum(c.total for c in self.children.values())

    def walk(self):
        yield self
        for child in self.children.values():
            yield from child.walk()

    def path(self) -> str:
        names = []
        node = self
        while node.parent is not None:
            names.append(node.name)
            node = node.parent
        return "/".join(reversed(names))


class SpanRecorder:
    """Call tree of spans for one traced pass."""

    def __init__(self, clock=time.perf_counter):
        self.root = SpanNode("", None)
        self._stack = [self.root]
        self._clock = clock

    def wrap(self, name: str, observe=None):
        """Wrapper factory: a span named ``name`` around each call.
        ``observe(counts, args, kwargs, result_or_exception)`` adds counters
        to the span's node after the call."""
        stack = self._stack
        clock = self._clock

        def wrapper_for(fn):
            def traced(*args, **kwargs):
                parent = stack[-1]
                node = parent.children.get(name)
                if node is None:
                    node = parent.children[name] = SpanNode(name, parent)
                stack.append(node)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                except Exception as exc:
                    node.total += clock() - start
                    node.calls += 1
                    stack.pop()
                    if observe is not None:
                        observe(node.counts, args, kwargs, exc)
                    raise
                node.total += clock() - start
                node.calls += 1
                stack.pop()
                if observe is not None:
                    observe(node.counts, args, kwargs, result)
                return result
            return traced
        return wrapper_for

    def nodes(self, name: str) -> list[SpanNode]:
        return [n for n in self.root.walk() if n.name == name]

    def calls(self, name: str) -> int:
        return sum(n.calls for n in self.nodes(name))

    def self_s(self, name: str) -> float:
        return sum(n.self_time() for n in self.nodes(name))

    def count(self, name: str, key: str) -> float:
        return sum(n.counts.get(key, 0) for n in self.nodes(name))

    def child_calls(self, parent: str, child: str) -> int:
        """Calls of ``child`` spans whose direct parent is a ``parent`` span."""
        return sum(n.children[child].calls for n in self.nodes(parent)
                   if child in n.children)

    def table(self) -> list[dict]:
        """Every node with its parent path, calls, total and self time."""
        return [{"path": n.path(), "calls": n.calls,
                 "total_s": n.total, "self_s": n.self_time(),
                 **n.counts}
                for n in self.root.walk() if n.parent is not None]


def bump(counts: dict, key: str, amount: float = 1) -> None:
    counts[key] = counts.get(key, 0) + amount


# --- statistics -------------------------------------------------------------

def percentile(samples, q: float):
    """Nearest-rank q-th percentile of a non-empty sample."""
    ordered = sorted(samples)
    return ordered[max(1, math.ceil(q / 100.0 * len(ordered))) - 1]


def tail_reportable(n: int, q: float, min_beyond: int = 10) -> bool:
    """Whether at least ``min_beyond`` of ``n`` samples lie beyond the q-th
    percentile; a tail resting on fewer samples is not reported."""
    return n > 0 and n - max(1, math.ceil(q / 100.0 * n)) >= min_beyond
