"""In-memory span tracer for the traced benchmark run.

`Tracer.install()` wraps the public functions and methods of every `canp`
module from the outside: each wrapper records a span (name, start, end,
parent span) and the original is swapped out wherever a `canp` module binds
it, including names imported with `from .x import y` and module-level dicts
such as the experiment runner table. Nothing under `src/` is edited.

Spans live in flat arrays while the run goes on and are written to one
`.npz` file at the end; `summarize()` turns them into per-function call
counts and self times. A span's self time is its duration minus the
durations of its direct children, so the self times of all spans add up to
the time covered by the root spans.

Only the traced run pays for this. It runs with one worker process so that
every call lands in this interpreter.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import json
import os
import pkgutil
import time
import weakref
from array import array

import numpy as np

# Dataclass __init__ is generated; their __post_init__ carries the work.
_DUNDERS = ("__init__", "__post_init__")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters = {
            "experiments.write_csv.bytes": 0,
            "fock.Propagator.builds": 0,
            "fock.Propagator.failed_builds": 0,
            "fock.truncation_failures": 0,
        }
        self._failed_builds: weakref.WeakSet = weakref.WeakSet()
        self._patches: list[tuple[object, str, object]] = []

    # --- recording -------------------------------------------------------

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, fn, name: str, name_of=None):
        """A traced stand-in for `fn`; `name_of(args, kwargs)` may refine the name."""
        nid = self._id(name)
        name_ids, parents, starts, ends = self.name_id, self.parent, self.start, self.end
        stack, clock, on_error = self._stack, time.perf_counter, self._on_error

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid if name_of is None else self._id(name_of(args, kwargs)))
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            starts[idx] = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                on_error(exc)
                raise
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def _on_error(self, exc: BaseException) -> None:
        # Count each truncation failure once, where it is first raised.
        if type(exc).__name__ == "TruncationNotConvergedError" and not getattr(
            exc, "_bench_counted", False
        ):
            exc._bench_counted = True
            self.counters["fock.truncation_failures"] += 1

    # --- counters at specific layer boundaries ---------------------------

    def _special(self, layer: str, qualname: str, fn):
        """Counting shims for the few functions whose work is not a span count."""
        counters = self.counters
        if (layer, qualname) == ("experiments", "write_csv"):
            @functools.wraps(fn)
            def write_csv(path, *args, **kwargs):
                result = fn(path, *args, **kwargs)
                counters["experiments.write_csv.bytes"] += os.path.getsize(path)
                return result
            return write_csv, None
        if (layer, qualname) == ("fock", "Propagator.__init__"):
            @functools.wraps(fn)
            def build(obj, *args, **kwargs):
                fn(obj, *args, **kwargs)
                counters["fock.Propagator.builds"] += 1

            def by_dim(args, kwargs):
                dim = kwargs.get("dim", args[2] if len(args) > 2 else "")
                return f"fock.Propagator.dim{dim}"
            return build, by_dim
        if (layer, qualname) == ("fock", "Propagator.apply"):
            failed = self._failed_builds

            @functools.wraps(fn)
            def apply(obj, *args, **kwargs):
                try:
                    return fn(obj, *args, **kwargs)
                except Exception as exc:
                    if type(exc).__name__ == "TruncationNotConvergedError" and obj not in failed:
                        failed.add(obj)
                        counters["fock.Propagator.failed_builds"] += 1
                    raise
            return apply, None
        return fn, None

    # --- patching --------------------------------------------------------

    def _traced(self, layer: str, qualname: str, fn):
        fn_inner, name_of = self._special(layer, qualname, fn)
        return self.wrap(fn_inner, f"{layer}.{qualname}", name_of)

    def install(self, package: str = "canp") -> None:
        pkg = importlib.import_module(package)
        modules = [importlib.import_module(f"{package}.{info.name}")
                   for info in pkgutil.iter_modules(pkg.__path__)]
        replaced: dict[int, tuple[object, object]] = {}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[id(obj)] = (obj, self._traced(layer, attr, obj))
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._install_class(layer, obj)
        for mod in [pkg, *modules]:
            for attr, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, attr, hit[1])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        hit = replaced.get(id(value))
                        if hit is not None and hit[0] is value:
                            obj[key] = hit[1]
                            self._patches.append((obj, key, value))

    def _install_class(self, layer: str, cls: type) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") and attr not in _DUNDERS:
                continue
            if attr == "__init__" and dataclasses.is_dataclass(cls):
                continue
            qualname = f"{cls.__name__}.{attr}"
            if isinstance(member, staticmethod):
                wrapped = staticmethod(self._traced(layer, qualname, member.__func__))
            elif isinstance(member, classmethod):
                wrapped = classmethod(self._traced(layer, qualname, member.__func__))
            elif inspect.isfunction(member):
                wrapped = self._traced(layer, qualname, member)
            else:
                continue  # properties and plain attributes
            self._patch(cls, attr, wrapped)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # --- output ----------------------------------------------------------

    def dump(self, path: str) -> None:
        """Write the spans to `path` (.npz) and names and counters beside it (.json)."""
        np.savez(
            path,
            name_id=np.array(self.name_id, dtype=np.int32),
            parent=np.array(self.parent, dtype=np.int32),
            start=np.array(self.start, dtype=np.float64),
            end=np.array(self.end, dtype=np.float64),
        )
        with open(path + ".json", "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "counters": self.counters}, fh)


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children."""
    duration = end - start
    has_parent = parent >= 0
    children = np.bincount(parent[has_parent], weights=duration[has_parent],
                           minlength=len(duration))
    return duration - children


def summarize(names: list[str], name_id: np.ndarray, parent: np.ndarray,
              start: np.ndarray, end: np.ndarray) -> dict[str, dict[str, float]]:
    """{span name: {calls, self_s, inclusive_s}} plus the root total under ''."""
    selfs = self_times(parent, start, end)
    duration = end - start
    n = len(names)
    calls = np.bincount(name_id, minlength=n)
    self_sum = np.bincount(name_id, weights=selfs, minlength=n)
    incl_sum = np.bincount(name_id, weights=duration, minlength=n)
    out = {
        name: {"calls": int(calls[i]), "self_s": float(self_sum[i]),
               "inclusive_s": float(incl_sum[i])}
        for i, name in enumerate(names)
    }
    out[""] = {"calls": int(np.sum(parent < 0)), "self_s": float(np.sum(selfs)),
               "inclusive_s": float(np.sum(duration[parent < 0]))}
    return out


def load(path: str) -> tuple[dict[str, dict[str, float]], dict]:
    """(summary, counters) of a span file written by `Tracer.dump`."""
    with open(path + ".json", encoding="utf-8") as fh:
        meta = json.load(fh)
    with np.load(path) as data:
        summary = summarize(meta["names"], data["name_id"], data["parent"],
                            data["start"], data["end"])
    return summary, meta["counters"]
