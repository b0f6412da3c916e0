"""Spans recorded from outside the program.

`Tracer.install` wraps the public functions of each ascentlab module, plus a
few named methods, in every module namespace that holds them by name (so
`conditions.supp` and `game.leq_s` are wrapped as well as `ascent.supp`),
and `restore` puts the originals back. Nothing inside the program changes.
Spans stay in memory as columns (name, start, end, parent, op) and are
written out, gzip-compressed, at the end of the run.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import inspect
import json
import sys
import time
from array import array

PACKAGE = "ascentlab"

# the layers, bottom up; each is the module of the same name
LAYERS = ("foundations", "nodes", "ascent", "trees", "conditions", "amalgam",
          "game", "aposet", "sealing", "surgery", "serialize", "cli")

# methods that the per-layer metrics name; module-level functions are all wrapped
METHODS = {
    "foundations": {"UPSet": ("union", "intersect", "difference", "complement")},
    "ascent": {"AscentLevel": ("make", "restrict")},
}

# span name -> fn(args, kwargs, result) whose value is kept beside the span
HOOKS = {
    # a restrict to the level's own height rebuilds the level for nothing
    "ascent.AscentLevel.restrict":
        lambda a, k, out: (a[1] if len(a) > 1 else k["alpha"]) == a[0].height,
    "conditions.check_condition": lambda a, k, out: len(out.checked_heights),
    "game.check_run_invariants": lambda a, k, out: len(a[0].moves),
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []        # span name table
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")         # the span columns, one entry per span
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")          # index of the enclosing span, -1 at a root
        self.op = array("i")              # the operation the span belongs to
        self.extra: dict[int, object] = {}
        self.stack: list[int] = []
        self.current_op = -1
        self.active = False
        self._patches: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.start)

    def span_names(self) -> list[str]:
        return [self.names[i] for i in self.name_id]

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.current_op)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, e.g. one per operation."""
        if not self.active:
            yield
            return
        idx = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(idx)

    @contextlib.contextmanager
    def paused(self):
        """Calls made while checking results are not part of the workload."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def _wrap(self, name: str, fn):
        hook = HOOKS.get(name)
        name_id = self._id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if hook is not None:
                tracer.extra[idx] = hook(args, kwargs, result)
            return result
        return traced

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        wrapped = {}   # original function -> its wrapper
        for layer in LAYERS:
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrapped[obj] = self._wrap(f"{layer}.{attr}", obj)
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    raw = cls.__dict__[meth]
                    name = f"{layer}.{cls_name}.{meth}"
                    if isinstance(raw, staticmethod):
                        self._patch(cls, meth, staticmethod(self._wrap(name, raw.__func__)))
                    else:
                        self._patch(cls, meth, self._wrap(name, raw))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._patch(mod, attr, wrapped[obj])

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path) -> None:
        """One JSON object: the name table, the columns, and hook values."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump({"names": self.names, "name_id": self.name_id.tolist(),
                       "start": self.start.tolist(), "end": self.end.tolist(),
                       "parent": self.parent.tolist(), "op": self.op.tolist(),
                       "extra": {str(i): v for i, v in self.extra.items()}}, fh)
