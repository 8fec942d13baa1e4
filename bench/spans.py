"""In-memory span tracing of the ldpagg modules, installed from outside.

`Tracer.install` wraps every public function and every public method or
property of the classes defined in each layer module, and rebinds every
name under which another ldpagg module imported it (so `cli`'s
`run as run_algorithm` is traced too). A span is (name, start, end,
parent); spans live in flat arrays until `take` hands them over.
A span's self time is its duration minus the durations of its children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array

import numpy as np

LAYERS = ("config", "topology", "reference", "schedules", "problems",
          "algorithm", "analysis", "privacy", "cli")


class Spans:
    """One batch of finished spans as numpy arrays, plus their name table."""

    def __init__(self, names, name, parent, start, end):
        self.names = names
        self.name = np.frombuffer(name, dtype=np.int32).copy()
        self.parent = np.frombuffer(parent, dtype=np.int32).copy()
        self.start = np.frombuffer(start, dtype=np.float64).copy()
        self.end = np.frombuffer(end, dtype=np.float64).copy()

    def __len__(self):
        return self.name.size

    def fold(self) -> dict:
        """{(name, parent name or None): [count, inclusive s, self s]}."""
        n = len(self)
        dur = self.end - self.start
        has_parent = self.parent >= 0
        child = np.bincount(self.parent[has_parent], weights=dur[has_parent],
                            minlength=n)
        own = dur - child
        pname = np.where(has_parent, self.name[np.maximum(self.parent, 0)], -1)
        key = self.name.astype(np.int64) * (len(self.names) + 1) + (pname + 1)
        keys, inv = np.unique(key, return_inverse=True)
        counts = np.bincount(inv)
        incl = np.bincount(inv, weights=dur)
        selft = np.bincount(inv, weights=own)
        out = {}
        for j, k in enumerate(keys):
            nid, pid = divmod(int(k), len(self.names) + 1)
            parent = self.names[pid - 1] if pid else None
            out[(self.names[nid], parent)] = [int(counts[j]), float(incl[j]),
                                              float(selft[j])]
        return out

    def save(self, path):
        np.savez_compressed(path, names=np.array(self.names), name=self.name,
                            parent=self.parent, start=self.start, end=self.end)


class Tracer:
    def __init__(self):
        self.names = []
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack = [-1]
        self._patches = []

    def _wrap(self, fn, span_name):
        nid = len(self.names)
        self.names.append(span_name)
        name_a, parent_a = self._name, self._parent
        start_a, end_a, stack = self._start, self._end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(name_a)
            name_a.append(nid)
            parent_a.append(stack[-1])
            end_a.append(0.0)
            stack.append(i)
            start_a.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end_a[i] = clock()
                stack.pop()
        return traced

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        modules = {layer: importlib.import_module(f"ldpagg.{layer}")
                   for layer in LAYERS}
        wrapped = {}  # id(original function) -> wrapper
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[id(obj)] = self._wrap(obj, f"{layer}.{attr}")
                elif inspect.isclass(obj):
                    self._wrap_class(obj, f"{layer}.{attr}")
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    self._patch(mod, attr, wrapped[id(obj)])

    def _wrap_class(self, cls, prefix):
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if inspect.isfunction(obj):
                self._patch(cls, attr, self._wrap(obj, f"{prefix}.{attr}"))
            elif isinstance(obj, property) and obj.fget is not None:
                self._patch(cls, attr, property(
                    self._wrap(obj.fget, f"{prefix}.{attr}"),
                    obj.fset, obj.fdel, obj.__doc__))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def take(self) -> Spans:
        """Hand over the finished spans and start a new batch."""
        if len(self._stack) != 1:
            raise RuntimeError("take() called inside an open span")
        spans = Spans(list(self.names), self._name, self._parent,
                      self._start, self._end)
        for a in (self._name, self._parent, self._start, self._end):
            del a[:]
        return spans
