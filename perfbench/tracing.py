"""Spans around calls into coalgex's layers, recorded from outside the library.

`Tracer.patched` rebinds, for the duration of a traced run, the names that
coalgex modules imported from one another (for example `coalgex.synthesis.delta`),
so calls that cross a layer boundary open a span; it restores every name on
exit.  Recursive calls inside one layer are not separate spans: a layer's
self time includes its own recursion.  Spans of one query are kept in memory
until the query ends and are then folded into per-name call counts and self
times, which keeps memory flat on long runs.
"""
from __future__ import annotations

import contextlib
import importlib
from collections import Counter
from time import perf_counter

# (module, name it imported, span name)
CROSS_LAYER_CALLS = (
    ("coalgex.cli", "read_coalgebra", "documents.read"),
    ("coalgex.cli", "write_coalgebra", "documents.write"),
    ("coalgex.cli", "bisimilar", "equivalence.bisimilar"),
    ("coalgex.cli", "minimize", "equivalence.minimize"),
    ("coalgex.cli", "synthesize", "synthesis.synthesize"),
    ("coalgex.cli", "delta", "derivative.delta"),
    ("coalgex.cli", "typecheck", "typecheck.typecheck"),
    ("coalgex.cli", "acie_normal_form", "synthesis.acie_normal_form"),
    ("coalgex.derivative", "typecheck", "typecheck.typecheck"),
    ("coalgex.equivalence", "acie_normal_form", "synthesis.acie_normal_form"),
    ("coalgex.equivalence", "synthesize", "synthesis.synthesize"),
    ("coalgex.equivalence", "bisimilar", "equivalence.bisimilar"),
    ("coalgex.equivalence", "greatest_bisimulation", "equivalence.greatest_bisimulation"),
    ("coalgex.synthesis", "typecheck", "typecheck.typecheck"),
    ("coalgex.synthesis", "delta", "derivative.delta"),
    ("coalgex.synthesis", "acie_normal_form", "synthesis.acie_normal_form"),
    ("coalgex.synthesis", "term_key", "expr.term_key"),
    ("coalgex.extraction", "term_key", "expr.term_key"),
    ("coalgex.fvalue", "term_key", "expr.term_key"),
)

# (module, name, counter): calls too fine-grained for a span each
COUNTED_CALLS = (("coalgex.equivalence", "lifted_related", "equivalence.pair_checks"),)

# entry points the benchmark calls itself
DIRECT_CALLS = {
    "main": "cli.main",
    "parse_regex": "instances.parse_regex",
    "regex_to_det": "instances.regex_to_det",
    "equiv": "equivalence.equiv",
    "extract": "extraction.extract",
    "synthesize": "synthesis.synthesize",
    "bisimilar": "equivalence.bisimilar",
    "coalgebra_from_doc": "documents.read",
}


def _states(result) -> int:
    return len(result.states)


# span name -> (counter, size of the call's result)
RESULT_COUNTS = {
    "synthesis.synthesize": ("synthesis.states", _states),
    "equivalence.greatest_bisimulation": ("equivalence.relation_pairs", len),
    "equivalence.minimize": ("equivalence.states_after_min", _states),
}

ROOT = "query"


class Tracer:
    """Span recorder for one query at a time."""

    def __init__(self) -> None:
        # span: [name, parent index, start, end, query id]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.kept: list = []
        self.query_id = -1

    def wrap(self, name: str, fn):
        spans, stack, counts, kept = self.spans, self.stack, self.counts, self.kept
        sized = RESULT_COUNTS.get(name)
        keep = name == "extraction.extract"

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, stack[-1] if stack else -1, perf_counter(), 0.0, self.query_id])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][3] = perf_counter()
                if stack and stack[-1] == index:
                    stack.pop()
            if sized is not None:
                counts[sized[0]] += sized[1](result)
            if keep:
                kept.append(result)
            return result

        return traced

    def count(self, name: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    @contextlib.contextmanager
    def patched(self):
        """Rebind the cross-layer names; restore them on exit."""
        hooks = [(m, a, self.wrap, span) for m, a, span in CROSS_LAYER_CALLS]
        hooks += [(m, a, self.count, counter) for m, a, counter in COUNTED_CALLS]
        saved = []
        try:
            for module_name, attr, hook, name in hooks:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, hook(name, original))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def traced_library(self, lib):
        """A copy of the library namespace whose entry points open spans."""
        out = type(lib)(**vars(lib))
        for attr, span in DIRECT_CALLS.items():
            setattr(out, attr, self.wrap(span, getattr(lib, attr)))
        return out

    def begin(self, query_id: int) -> None:
        self.spans.clear()
        self.stack.clear()
        self.counts.clear()
        self.kept.clear()
        self.query_id = query_id
        self.spans.append([ROOT, -1, perf_counter(), 0.0, query_id])
        self.stack.append(0)

    def end(self) -> tuple[Counter, Counter, list]:
        """Close the query; returns self time per span name (seconds), call and
        result counts, and the extracted terms."""
        now = perf_counter()
        for span in self.spans:
            if span[3] == 0.0:  # left open by a time-out
                span[3] = now
        self.stack.clear()
        child = [0.0] * len(self.spans)
        for name, parent, start, end, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_time: Counter = Counter()
        counts = Counter(self.counts)
        for (name, _, start, end, _), inner in zip(self.spans, child):
            self_time[name] += (end - start) - inner
            counts[name] += 1
        return self_time, counts, list(self.kept)

    def root_seconds(self) -> float:
        root = self.spans[0]
        return root[3] - root[2]


def term_sizes(e) -> tuple[int, int]:
    """Tree size and hash-consed (structurally distinct) node count of a term.

    Iterative, and linear in the number of distinct node objects, so it works on
    terms far deeper and larger than the recursion limit allows.
    """
    tree: dict[int, int] = {}
    klass: dict[int, int] = {}
    table: dict[tuple, int] = {}
    stack = [(e, False)]
    while stack:
        node, ready = stack.pop()
        key = id(node)
        if key in tree:
            continue
        kids = _children(node)
        if not ready:
            stack.append((node, True))
            stack.extend((k, False) for k in kids if id(k) not in tree)
            continue
        tree[key] = 1 + sum(tree[id(k)] for k in kids)
        shape = (type(node).__name__, _label(node), tuple(klass[id(k)] for k in kids))
        klass[key] = table.setdefault(shape, len(table))
    return tree[id(e)], len(table)


def _children(node) -> tuple:
    name = type(node).__name__
    if name == "Plus":
        return (node.left, node.right)
    if name == "Mu":
        return (node.body,)
    if name in ("ProdL", "ProdR", "SumL", "SumR", "Act", "Single"):
        return (node.inner,)
    return ()


def _label(node) -> str:
    for attr in ("binder", "letter", "name", "element"):
        value = getattr(node, attr, None)
        if value is not None:
            return value
    return ""
