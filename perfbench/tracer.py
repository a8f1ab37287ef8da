"""Per-layer spans and counters for one traced ``groupoidlab`` invocation.

The program itself carries no instrumentation.  This module wraps the entry
points of each layer (named after the package modules) from outside, runs
``groupoidlab.cli.main`` in-process and prints one JSON object holding the
exit code, the report text and the per-layer figures.  Run it as

    PYTHONPATH=src python3 perfbench/tracer.py verify --suite section3 \
        --group cyclic:2 --objects 5 --cover

A layer's self time is the time spent inside its spans minus the time its
child spans cover.  Time outside every span (the suite bodies in
``verify.py`` and ``cli.py``, argument parsing, the ``Automorphism.apply``
loops of the claim checks) is the ``verify`` layer's self time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import io
import json
import pkgutil
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable, Optional

PACKAGE = "groupoidlab"
AUTOMORPHISMS = f"{PACKAGE}.automorphisms"
ALL = "*"

# Methods skipped in the layers that wrap a whole module: per-element value
# accessors whose wrapper would cost more than their work, and the claim
# runner, whose time belongs to the checks it calls.
SKIP = frozenset({
    "FiniteGroup.mul",
    "FiniteGroup.inv",
    "FiniteGroup.label",
    "FiniteGroupoid.compose",
    "FiniteGroupoid.composable",
    "MultiSortedStructure.sort_size",
    "MultiSortedStructure.function",
    "MultiSortedStructure.relation",
    "MultiSortedStructure.has_relation",
    "MultiSortedStructure.has_function",
    "Report.add",
    "Report.extend",
})


@dataclass(frozen=True)
class Layer:
    """A layer: its module, its timed entry points (``ALL`` for every
    function and method defined in the module) and the entry points its
    counters need.  If any named entry point is missing the layer is
    reported as absent and nothing of it is wrapped."""

    name: str
    module: str
    timed: tuple[str, ...]
    required: tuple[str, ...] = ()


LAYERS = (
    Layer("automorphisms.refine", AUTOMORPHISMS, ("_SearchSpace.colors",),
          ("_SearchSpace._compress",)),
    Layer("automorphisms.search", AUTOMORPHISMS, ("_solutions",)),
    Layer("automorphisms", AUTOMORPHISMS, (
        "automorphism_group", "find_automorphism", "iter_automorphisms",
        "orbit_of", "dcl_of", "interdefinable", "restricted_group",
        "setwise_restricted_group", "is_automorphism",
    ), ("_to_automorphism",)),
    Layer("witness", f"{PACKAGE}.witness", (ALL,), ("compute_Y", "YSystem.compose")),
    Layer("paths", f"{PACKAGE}.paths", (ALL,), ("fold",)),
    Layer("limits", f"{PACKAGE}.limits", (ALL,)),
    Layer("groupoids", f"{PACKAGE}.groupoids", (ALL,)),
    Layer("structures", f"{PACKAGE}.structures", (ALL,)),
    Layer("groups", f"{PACKAGE}.groups", (ALL,)),
    Layer("report", f"{PACKAGE}.report", (ALL,)),
)

RESIDUAL_LAYER = "verify"


class Tracer:
    """Self time per layer and event counts, aggregated as spans close."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.root_s = 0.0
        self._open: list[float] = []  # child time covered, per open span

    def _close(self, layer: str, start: float) -> None:
        duration = time.perf_counter() - start
        self.self_s[layer] += duration - self._open.pop()
        if self._open:
            self._open[-1] += duration
        else:
            self.root_s += duration

    def timed(self, layer: str, fn: Callable, calls_key: Optional[str] = None,
              results_key: Optional[str] = None) -> Callable:
        """Wrap fn in a span of the layer.  A generator function gets one
        span per ``next()`` call on the iterator it returns.  ``calls_key``
        counts calls, ``results_key`` counts results (items yielded) that
        are not None."""
        counts = self.counts
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                if calls_key is not None:
                    counts[calls_key] += 1
                return _TimedIterator(self, layer, fn(*args, **kwargs), results_key)
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if calls_key is not None:
                counts[calls_key] += 1
            self._open.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(layer, start)
            if results_key is not None and result is not None:
                counts[results_key] += 1
            return result
        return wrapper

    def counted(self, key: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper


class _TimedIterator:
    __slots__ = ("_tracer", "_layer", "_it", "_results_key")

    def __init__(self, tracer: Tracer, layer: str, it, results_key) -> None:
        self._tracer = tracer
        self._layer = layer
        self._it = it
        self._results_key = results_key

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self._tracer
        tracer._open.append(0.0)
        start = time.perf_counter()
        try:
            item = next(self._it)
        finally:
            tracer._close(self._layer, start)
        if self._results_key is not None and item is not None:
            tracer.counts[self._results_key] += 1
        return item

    def close(self) -> None:
        self._it.close()


def _import_package() -> list:
    pkg = importlib.import_module(PACKAGE)
    modules = [pkg]
    for info in pkgutil.iter_modules(pkg.__path__):
        modules.append(importlib.import_module(f"{PACKAGE}.{info.name}"))
    return modules


def _module_entries(mod) -> list[str]:
    """Every function, and every method written in the module's source, of
    the classes defined in the module."""
    names = []
    for name, obj in vars(mod).items():
        if getattr(obj, "__module__", None) != mod.__name__:
            continue
        if inspect.isfunction(obj):
            names.append(name)
        elif inspect.isclass(obj):
            for mname, meth in vars(obj).items():
                fn = meth.__func__ if isinstance(meth, staticmethod) else meth
                if not inspect.isfunction(fn) or fn.__code__.co_filename != mod.__file__:
                    continue
                if mname.startswith("__") and mname not in ("__init__", "__post_init__"):
                    continue
                if f"{name}.{mname}" not in SKIP:
                    names.append(f"{name}.{mname}")
    return names


def _resolve(mod, qualname: str):
    """(owner, attribute name, function) for a module function or a
    ``Class.method``; None when it does not exist."""
    owner, _, attr = qualname.rpartition(".")
    target = mod
    if owner:
        target = vars(mod).get(owner)
        if not inspect.isclass(target):
            return None
    raw = vars(target).get(attr)
    fn = raw.__func__ if isinstance(raw, staticmethod) else raw
    if not callable(fn):
        return None
    return target, attr, fn


def install(tracer: Tracer) -> list[str]:
    """Wrap every layer's entry points; return the names of absent layers.

    A module function is replaced in every module namespace of the package
    that holds it, so calls through ``from .automorphisms import ...`` are
    traced too.  Methods are replaced on their class.
    """
    modules = _import_package()
    by_name = {m.__name__: m for m in modules}
    keys = {  # entry point -> (calls counter, results counter)
        "_solutions": ("search.runs", "search.solutions"),
        "_SearchSpace.colors": ("refine.calls", None),
        "find_automorphism": ("find.calls", "find.hits"),
        "compute_Y": ("witness.ysets", None),
        "YSystem.compose": ("witness.compose.calls", None),
        "fold": ("paths.fold.calls", None),
    }
    count_only = {
        "_SearchSpace._compress": "refine.compress",
        "_to_automorphism": "automorphisms.materialised",
    }

    absent = []
    replaced: dict[int, tuple[Callable, Callable]] = {}
    for layer in LAYERS:
        mod = by_name.get(layer.module)
        if mod is None:
            absent.append(layer.name)
            continue
        timed = _module_entries(mod) if layer.timed == (ALL,) else list(layer.timed)
        resolved = {q: _resolve(mod, q) for q in (*timed, *layer.required)}
        if any(r is None for r in resolved.values()):
            absent.append(layer.name)
            continue
        for qualname, (owner, attr, fn) in resolved.items():
            if qualname in count_only:
                wrapper = tracer.counted(count_only[qualname], fn)
            else:
                wrapper = tracer.timed(layer.name, fn, *keys.get(qualname, (None, None)))
            if qualname == "automorphism_group":
                wrapper = _count_group_calls(tracer, wrapper)
            if owner is mod:
                replaced[id(fn)] = (fn, wrapper)
            elif isinstance(vars(owner)[attr], staticmethod):
                setattr(owner, attr, staticmethod(wrapper))
            else:
                setattr(owner, attr, wrapper)

    for mod in modules:
        for name, value in list(vars(mod).items()):
            hit = replaced.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, name, hit[1])
    return absent


def _count_group_calls(tracer: Tracer, wrapper: Callable) -> Callable:
    """automorphism_group calls, and the calls that ran a search (misses)."""
    counts = tracer.counts

    @functools.wraps(wrapper)
    def group_wrapper(*args, **kwargs):
        counts["group.calls"] += 1
        runs = counts["search.runs"]
        try:
            return wrapper(*args, **kwargs)
        finally:
            counts["group.misses"] += counts["search.runs"] != runs
    return group_wrapper


def layer_figures(tracer: Tracer, wall_s: float, absent: list[str]) -> dict:
    """The per-layer figures of one traced invocation."""
    self_s = {layer.name: tracer.self_s.get(layer.name, 0.0) for layer in LAYERS}
    self_s[RESIDUAL_LAYER] = wall_s - tracer.root_s
    return {
        "wall_s": wall_s,
        "spanned_s": tracer.root_s,
        "self_s": self_s,
        "counts": dict(tracer.counts),
        "absent": absent,
    }


def traced_main(argv: list[str]) -> dict:
    tracer = Tracer()
    absent = install(tracer)
    from groupoidlab import cli

    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    wall_s = time.perf_counter() - start
    return {"exit": code, "stdout": out.getvalue(),
            "trace": layer_figures(tracer, wall_s, absent)}


def main(argv: Optional[list[str]] = None) -> int:
    result = traced_main(sys.argv[1:] if argv is None else argv)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
