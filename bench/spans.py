"""Span tracing of ``klrblocks`` from outside the package.

``Tracer.install`` wraps public functions by rebinding each name in every
``klrblocks`` module namespace that holds it (``degree``, for instance, is
bound separately in ``tableaux``, ``graded``, ``morita`` and ``cli``).  Each
call, and each resumption of a generator, becomes a span
``(name, start, end, parent)`` kept in compact arrays; the parent is the
innermost open span.  Self time is a span's duration minus its children's.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from contextlib import contextmanager
from typing import Dict, Iterable, List, Tuple

# (qualified name, kind).  "call" times a call, "len" also adds len(result)
# to the name's item counter, "gen" times every resumption of a generator
# and counts what it yields.  Hot helpers (residue, add_node,
# addable_corners: millions of calls) are deliberately absent.
TRACED: Tuple[Tuple[str, str], ...] = (
    ("partitions.enumerate_block", "len"),
    ("partitions.multipartitions_of", "call"),
    ("partitions.content", "call"),
    ("partitions.dominates", "call"),
    ("tableaux.enumerate_standard", "gen"),
    ("tableaux.factorizable_tableaux", "len"),
    ("tableaux.degree", "call"),
    ("tableaux.residue_sequence", "call"),
    ("graded.gdim_specht", "call"),
    ("graded.gdim_specht_weight", "call"),
    ("crystal.is_kleshchev", "call"),
    ("crystal.factors_through", "call"),
    ("crystal.cogood_path", "call"),
    ("morita.iter_bridges", "gen"),
    ("morita.verify_bridge", "call"),
    ("morita.c_block", "len"),
    ("morita.a_block", "len"),
    ("morita.bridge", "call"),
    ("morita.from_type_c", "call"),
    ("morita.to_type_c", "call"),
    ("cli.main", "call"),
    ("cli.build_parser", "call"),
)


class Tracer:
    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.nested = array("b")  # 1 if a span of the same name encloses it
        self.calls: List[int] = []
        self.items: List[int] = []
        self.absent: List[str] = []
        self._active: List[int] = []
        self._stack = [-1]
        self._restore: List[Tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.items.append(0)
            self._active.append(0)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.nested.append(self._active[nid] > 0)
        self._active[nid] += 1
        self._stack.append(i)
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()
        self._active[self.name[i]] -= 1

    @contextmanager
    def span(self, name: str):
        nid = self._id(name)
        self.calls[nid] += 1
        i = self._open(nid)
        try:
            yield
        finally:
            self._close(i)

    def _wrap(self, nid: int, kind: str, fn):
        calls, items, open_, close = self.calls, self.items, self._open, self._close

        if kind == "gen":
            def traced(*args, **kwargs):
                calls[nid] += 1
                gen = fn(*args, **kwargs)
                while True:
                    i = open_(nid)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        close(i)
                    items[nid] += 1
                    yield item
        else:
            def traced(*args, **kwargs):
                calls[nid] += 1
                i = open_(nid)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    close(i)
                if kind == "len":
                    items[nid] += len(out)
                return out

        return traced

    def install(self, traced: Iterable[Tuple[str, str]] = TRACED) -> None:
        """Rebind every traced name in each loaded klrblocks module that
        holds the original function.  A name the package no longer defines
        is recorded in ``absent``."""
        modules = [m for k, m in sys.modules.items()
                   if k == "klrblocks" or k.startswith("klrblocks.")]
        for qualname, kind in traced:
            mod_name, attr = qualname.split(".")
            home = sys.modules.get(f"klrblocks.{mod_name}")
            orig = getattr(home, attr, None)
            if orig is None:
                self.absent.append(qualname)
                continue
            wrapper = self._wrap(self._id(qualname), kind, orig)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._restore.append((mod, key, value))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for mod, key, value in reversed(self._restore):
            setattr(mod, key, value)
        self._restore.clear()

    def summary(self, since: float) -> dict:
        """Per name: calls, items, inclusive seconds of the outermost spans
        and self seconds; call counts per parent>child name pair; and, over
        the spans that start at or after ``since``, self seconds per layer
        (the name's first component) and the total of root spans."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        per = {name: {"calls": self.calls[k], "items": self.items[k],
                      "s": 0.0, "self_s": 0.0}
               for k, name in enumerate(self.names)}
        edges: Dict[str, int] = {}
        layer_self: Dict[str, float] = {}
        root_s = 0.0
        for i in range(n):
            name = self.names[self.name[i]]
            rec = per[name]
            own = dur[i] - child[i]
            rec["self_s"] += own
            if not self.nested[i]:
                rec["s"] += dur[i]
            p = self.parent[i]
            if p >= 0:
                edge = f"{self.names[self.name[p]]}>{name}"
                edges[edge] = edges.get(edge, 0) + 1
            if self.start[i] >= since:
                layer = name.split(".")[0]
                layer_self[layer] = layer_self.get(layer, 0.0) + own
                if p < 0:
                    root_s += dur[i]
        return {"per_name": per, "edges": edges, "layer_self_s": layer_self,
                "root_s": root_s, "spans": n, "absent": list(self.absent)}

    def write(self, path: str) -> None:
        """All spans as gzipped TSV: name, start, end (seconds from the
        first span) and parent span index (-1 for a root)."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("name\tstart\tend\tparent\n")
            for i in range(len(self.start)):
                f.write(f"{self.names[self.name[i]]}\t{self.start[i] - t0:.7f}"
                        f"\t{self.end[i] - t0:.7f}\t{self.parent[i]}\n")
