"""Spans around the public calls of brsc's layers, recorded from outside.

The tracer replaces every public function of the layer modules (and the two
cached private helpers whose caches the report needs) with a wrapper, in
every loaded ``brsc`` module namespace that holds a reference to it, so a
name imported with ``from .lattice import flats`` is traced as well as
``lattice.flats``. Spans are kept in memory as flat arrays with parent links
and reduced to per-function figures when the run ends; the program itself is
not edited.

Self time of a span is its duration minus the durations of its child spans
(calls are nested on one thread, so children never overlap).
"""

import functools
import inspect
import sys
from array import array
from contextlib import contextmanager
from math import comb, factorial
from time import perf_counter

LAYERS = ("iso", "lattice", "t_operator", "matroid")

# Private helpers that own an lru_cache the report reads.
CACHED_PRIVATE = {"iso": ("_canonical_key_cached",), "t_operator": ("_t_constraints",)}

# Traced functions that carry an lru_cache; cache_info() counts their lookups.
CACHES = (
    "lattice.flats",
    "t_operator._t_constraints",
    "iso._canonical_key_cached",
    "iso.orbit_min_table",
)


def _on_orbit_min_table(counters, args, result, missed):
    if missed:
        n, k = args
        counters["iso.orbit_min_table.images"] += factorial(n) * 2 ** comb(n, k)


def _on_flats(counters, args, result, missed):
    if missed:
        counters["lattice.flats.subsets_scanned"] += 2 ** args[0].n
        counters["lattice.flats.members"] += len(result)


def _on_t_family(counters, args, result, missed):
    counters["t_operator.t_family.subsets_scanned"] += 2 ** args[0].n


def _on_search(counters, args, result, missed):
    counters["matroid.search_matroid_extensions.nodes"] += result.nodes
    counters["matroid.search_matroid_extensions.solutions"] += len(result.extensions)


# Per-call hooks: (counters, positional args, result, cache missed) -> None.
HOOKS = {
    "iso.orbit_min_table": _on_orbit_min_table,
    "lattice.flats": _on_flats,
    "t_operator.t_family": _on_t_family,
    "matroid.search_matroid_extensions": _on_search,
}

COUNTERS = (
    "iso.orbit_min_table.images",
    "iso.paving_complexes.yielded",
    "lattice.flats.subsets_scanned",
    "lattice.flats.members",
    "t_operator.t_family.subsets_scanned",
    "matroid.search_matroid_extensions.nodes",
    "matroid.search_matroid_extensions.solutions",
)


def _traceable(module):
    """(attribute, function) pairs the tracer wraps in one layer module."""
    short = module.__name__.rsplit(".", 1)[1]
    out = []
    for attr, obj in vars(module).items():
        if inspect.isclass(obj) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if attr.startswith("_") and attr not in CACHED_PRIVATE.get(short, ()):
            continue
        out.append((attr, obj))
    return out


class Tracer:
    """Wraps the layer functions; one instance per process run."""

    def __init__(self, refusals):
        self.refusals = refusals
        self.names = []
        self.name_ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.calls = []
        self.refused = []
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.originals = {}
        self.functions = {}
        self.patched = []
        self.cache_base = {}

    def _name_id(self, name):
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.refused.append(0)
        return nid

    def _open(self, nid):
        sid = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self.stack[-1])
        self.span_start.append(perf_counter())
        self.span_end.append(0.0)
        self.stack.append(sid)
        return sid

    def _close(self, sid, exc):
        self.span_end[sid] = perf_counter()
        self.stack.pop()
        if isinstance(exc, self.refusals):
            self.refused[self.span_name[sid]] += 1

    @contextmanager
    def span(self, name):
        """A span opened by the benchmark itself."""
        nid = self._name_id(name)
        self.calls[nid] += 1
        sid = self._open(nid)
        exc = None
        try:
            yield
        except BaseException as e:
            exc = e
            raise
        finally:
            self._close(sid, exc)

    def _wrap(self, name, fn):
        nid = self._name_id(name)
        hook = HOOKS.get(name)
        cached = name in CACHES
        watch_misses = cached and hook is not None
        tracer = self

        if inspect.isgeneratorfunction(fn):
            yielded = "iso.paving_complexes.yielded" if name == "iso.paving_complexes" else None

            def wrapper(*args, **kwargs):
                tracer.calls[nid] += 1
                return tracer._steps(nid, fn(*args, **kwargs), yielded)

        else:

            def wrapper(*args, **kwargs):
                tracer.calls[nid] += 1
                before = fn.cache_info().misses if watch_misses else 0
                sid = tracer._open(nid)
                exc = None
                try:
                    result = fn(*args, **kwargs)
                except BaseException as e:
                    exc = e
                    raise
                finally:
                    tracer._close(sid, exc)
                if hook is not None:
                    missed = watch_misses and fn.cache_info().misses > before
                    hook(tracer.counters, args, result, missed)
                return result

        functools.update_wrapper(wrapper, fn)
        if cached:
            wrapper.cache_info = fn.cache_info
            wrapper.cache_clear = fn.cache_clear
        return wrapper

    def _steps(self, nid, gen, counter):
        """Re-yield a generator's items, one span per step."""
        while True:
            sid = self._open(nid)
            try:
                item = next(gen)
            except StopIteration:
                self._close(sid, None)
                return
            except BaseException as e:
                self._close(sid, e)
                raise
            self._close(sid, None)
            if counter is not None:
                self.counters[counter] += 1
            yield item

    def install(self, extra_namespaces=()):
        """Wrap every layer function in every namespace that references it."""
        for layer in LAYERS:
            module = sys.modules[f"brsc.{layer}"]
            for attr, fn in _traceable(module):
                name = f"{layer}.{attr}"
                self.functions[name] = fn
                self.originals[id(fn)] = (fn, self._wrap(name, fn))
        for name in CACHES:
            info = self.functions[name].cache_info()
            self.cache_base[name] = (info.hits, info.misses)
        namespaces = [vars(m) for n, m in list(sys.modules.items()) if n.startswith("brsc")]
        namespaces += [vars(m) for m in extra_namespaces]
        for ns in namespaces:
            for attr, obj in list(ns.items()):
                hit = self.originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    ns[attr] = hit[1]
                    self.patched.append((ns, attr, obj))

    def uninstall(self):
        for ns, attr, obj in reversed(self.patched):
            ns[attr] = obj
        self.patched.clear()

    def report(self):
        """Per-name calls, refusals, inclusive and self time; counters; caches."""
        count = len(self.span_name)
        total = [0.0] * len(self.names)
        self_time = [0.0] * len(self.names)
        child = [0.0] * count
        durations = [self.span_end[i] - self.span_start[i] for i in range(count)]
        for i in range(count):
            parent = self.span_parent[i]
            if parent >= 0:
                child[parent] += durations[i]
        for i in range(count):
            nid = self.span_name[i]
            total[nid] += durations[i]
            self_time[nid] += durations[i] - child[i]
        functions = {
            name: {
                "calls": self.calls[nid],
                "refused": self.refused[nid],
                "total_s": total[nid],
                "self_s": self_time[nid],
            }
            for nid, name in enumerate(self.names)
        }
        caches = {}
        for name in CACHES:
            info = self.functions[name].cache_info()
            hits0, misses0 = self.cache_base[name]
            caches[name] = {
                "hits": info.hits - hits0,
                "misses": info.misses - misses0,
                "wrapper_calls": functions[name]["calls"],
            }
        return {
            "spans": count,
            "functions": functions,
            "counters": dict(self.counters),
            "caches": caches,
        }
