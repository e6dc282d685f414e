"""Outside-in tracing of the jumploci library for the benchmark's traced run.

Spans are recorded from the benchmark's own code, around calls into the
library's public functions and a few named methods; nothing inside
``src/jumploci`` changes.  The library's modules import each other's
functions by name (``rank`` is bound in ``aomoto``, ``flatconn``,
``grouprep``, ``scenarios`` and more), and the scenario catalog and the CLI
dispatch table hold plain function references.  So every binding of a
wrapped function is patched -- module attributes, dict values, list items
and tuples inside lists -- and every one is put back afterwards.

The tracer is single-threaded: the benchmark traces only ``jobs=1`` passes.

Scalar field operations are counted in a pass of their own (``OpCounter``),
because millions of wrapped field-method calls would inflate the span self
times.
"""

import collections
import contextlib
import functools
import importlib
import inspect
import time

LAYER_MODULES = ("linalg", "cdga", "models", "liealg", "flatconn", "aomoto",
                 "holonomy", "grouprep", "sampling", "serialize", "scenarios",
                 "cli")

# Methods traced as spans of their own: (module, class, attribute) -> span.
METHODS = {
    ("linalg", "Matrix", "__init__"): "linalg.Matrix",
    ("linalg", "Matrix", "__matmul__"): "linalg.matmul",
    ("cdga", "Cdga", "product_basis"): "cdga.product_basis",
    ("liealg", "LieAlgebra", "bracket"): "liealg.bracket",
    ("aomoto", "AomotoComplex", "betti"): "aomoto.betti",
}

SCALAR_OPS = ("add", "sub", "mul", "inv", "is_zero")


def library_modules():
    """The package and every layer module, imported."""
    names = ("jumploci", "jumploci.scalars") + tuple(
        f"jumploci.{m}" for m in LAYER_MODULES)
    return [importlib.import_module(n) for n in names]


class Patches:
    """Rebinds names and containers, and puts every original back."""

    def __init__(self):
        self._saved = []

    def rebind(self, modules, replacement):
        """Replace every binding of each key of ``replacement`` (a dict from
        original function to its wrapper) in the modules' namespaces."""
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if _is_key(value, replacement):
                    self._set(mod, name, replacement[value], attr=True)
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if _is_key(v, replacement):
                            self._set(value, k, replacement[v])
                elif isinstance(value, list):
                    for i, v in enumerate(value):
                        if _is_key(v, replacement):
                            self._set(value, i, replacement[v])
                        elif isinstance(v, tuple) and any(
                                _is_key(x, replacement) for x in v):
                            self._set(value, i, tuple(
                                replacement[x] if _is_key(x, replacement)
                                else x for x in v))

    def set_class_attr(self, cls, name, value):
        self._set(cls, name, value, attr=True)

    def _set(self, target, key, value, attr=False):
        old = vars(target)[key] if attr else target[key]
        self._saved.append((target, key, old, attr))
        if attr:
            setattr(target, key, value)
        else:
            target[key] = value

    def __len__(self):
        return len(self._saved)

    def restore(self):
        for target, key, old, attr in reversed(self._saved):
            if attr:
                setattr(target, key, old)
            else:
                target[key] = old

    def unrestored(self):
        """Bindings that do not hold their original object, as strings."""
        bad = []
        for target, key, old, attr in self._saved:
            now = vars(target)[key] if attr else target[key]
            if now is not old:
                bad.append(f"{getattr(target, '__name__', type(target))}"
                           f"[{key!r}]")
        return bad


def _is_key(value, table):
    return inspect.isfunction(value) and value in table


def public_functions(mod, short):
    """(span name, function) for each public function defined in mod."""
    for name, value in vars(mod).items():
        if (not name.startswith("_") and inspect.isfunction(value)
                and value.__module__ == mod.__name__):
            yield f"{short}.{name}", value


class Tracer:
    """Records spans (name, start, end, parent) and per-span counters.

    ``hooks`` maps a span name to ``hook(arguments, result, counters)``,
    where ``arguments`` maps parameter names to the call's values.  A hook
    runs after its span closes, so its cost lands in the parent's self time.
    """

    def __init__(self, hooks=None):
        self.spans = []
        self.counters = collections.Counter()
        self._stack = []
        self._hooks = hooks or {}
        self._patches = None

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        hook, counters = self._hooks.get(name), self.counters
        sig = inspect.signature(fn) if hook is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, clock(), 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = clock()
            if hook is not None:
                hook(sig.bind(*args, **kwargs).arguments, out, counters)
            return out
        return traced

    @contextlib.contextmanager
    def span(self, name):
        """A span around benchmark code."""
        rec = [name, time.perf_counter_ns(), 0,
               self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            self._stack.pop()
            rec[2] = time.perf_counter_ns()

    def install(self, callers=()):
        """Wrap the library; ``callers`` are the benchmark's own modules,
        whose bindings of library functions are patched too."""
        modules = library_modules()
        by_short = {m.__name__.rpartition(".")[2]: m for m in modules}
        table = {}
        for short in LAYER_MODULES:
            for span_name, fn in public_functions(by_short[short], short):
                table[fn] = self.wrap(span_name, fn)
        self._patches = Patches()
        self._patches.rebind(modules + list(callers), table)
        for (short, cls_name, attr), span_name in METHODS.items():
            cls = getattr(by_short[short], cls_name)
            self._patches.set_class_attr(
                cls, attr, self.wrap(span_name, vars(cls)[attr]))
        return self._patches

    def uninstall(self):
        self._patches.restore()
        return self._patches.unrestored()

    def summary(self):
        """{name: {"calls", "total_s", "self_s"}} over all recorded spans."""
        child = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "total_ns": 0,
                                        "self_ns": 0})
            row["calls"] += 1
            row["total_ns"] += end - start
            row["self_ns"] += end - start - child[i]
        return {name: {"calls": r["calls"], "total_s": r["total_ns"] / 1e9,
                       "self_s": r["self_ns"] / 1e9}
                for name, r in out.items()}


class OpCounter:
    """Counts scalar field operations per field and the distinct matrices
    passed to ``rank``, in a pass of its own."""

    def __init__(self):
        self.ops = {"qq": 0, "gf": 0}
        self.rank_keys = []
        self._patches = None

    def install(self, callers=()):
        modules = library_modules() + list(callers)
        scalars = importlib.import_module("jumploci.scalars")
        linalg = importlib.import_module("jumploci.linalg")
        self._patches = Patches()
        for cls, key in ((scalars.Rationals, "qq"),
                         (scalars.PrimeField, "gf")):
            for op in SCALAR_OPS:
                self._patches.set_class_attr(
                    cls, op, self._counted(vars(cls)[op], key))
        keys = self.rank_keys

        @functools.wraps(linalg.rank)
        def rank(m, _orig=linalg.rank):
            keys.append(hash(m))
            return _orig(m)
        self._patches.rebind(modules, {linalg.rank: rank})
        return self._patches

    def _counted(self, fn, key):
        ops = self.ops

        @functools.wraps(fn)
        def counted(*args):
            ops[key] += 1
            return fn(*args)
        return counted

    def uninstall(self):
        self._patches.restore()
        return self._patches.unrestored()

    def distinct_rank_ratio(self):
        """Distinct matrices ranked divided by rank calls (0 with no calls)."""
        if not self.rank_keys:
            return 0.0
        return len(set(self.rank_keys)) / len(self.rank_keys)
