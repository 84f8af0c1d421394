"""Span recording for the traced benchmark run.

Wrappers installed from outside the package record one span per call:
name, start, end, parent span and operation id, kept in flat in-memory
arrays and written out once at exit.  Hot methods (``Board.arc`` and
friends) are only counted, never timed.  A span's self time is its
duration minus the durations of its direct children.  Inside an opaque
span nothing else is recorded or counted, so its self time holds all the
work done under it.

Nothing here draws from a random generator, so a traced game makes the
same moves as an untraced one.
"""

from __future__ import annotations

import functools
import gzip
import sys
from array import array
from time import perf_counter

ROOT_SPAN = "bench.op"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._op = -1
        self._opaque = [0]  # depth of opaque spans being run
        self.counts: dict[str, list[int]] = {}
        self.totals: dict[str, float] = {}
        self._patches: list = []
        self._strategy_classes: dict = {}

    # -- recording -------------------------------------------------------

    def _intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def span(self, name: str, fn, on_result=None, opaque=False):
        """``fn`` wrapped so that every call records one span.

        With ``opaque``, calls made inside it record nothing.
        """
        nid = self._intern(name)
        stack, name_id, parent, op = self._stack, self.name_id, self.parent, self.op
        start, end = self.start, self.end
        quiet = self._opaque
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if quiet[0]:
                return fn(*args, **kwargs)
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            op.append(tracer._op)
            start.append(0.0)
            end.append(0.0)
            stack.append(i)
            quiet[0] += opaque
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                start[i] = t0
                quiet[0] -= opaque
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def counter(self, name: str, fn):
        """``fn`` wrapped so that every call bumps a counter, untimed."""
        cell = self.counts.setdefault(name, [0])
        quiet = self._opaque

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if not quiet[0]:
                cell[0] += 1
            return fn(*args, **kwargs)

        return counted

    def count(self, name: str) -> None:
        self.counts.setdefault(name, [0])[0] += 1

    def add(self, name: str, value: float) -> None:
        self.totals[name] = self.totals.get(name, 0.0) + value

    def operation(self, fn):
        """Run ``fn`` as one operation: a root span with a fresh op id."""
        self._op += 1
        return self.span(ROOT_SPAN, fn)()

    def mark(self):
        """Snapshot to diff a later one against: spans, counters, totals."""
        return (
            len(self.start),
            {k: c[0] for k, c in self.counts.items()},
            dict(self.totals),
        )

    # -- patching ----------------------------------------------------------

    def patch(self, owner, attr: str, value) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, value)

    def patch_everywhere(self, fn, wrapper, package: str) -> None:
        """Replace every module-level name in ``package`` bound to ``fn``.

        Callers look functions up in their own module's namespace, so a
        ``from .oracles import find_cycle`` needs its own patch.
        """
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == package or modname.startswith(package + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self.patch(mod, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def strategy_class(self, cls, stage_prefix: str | None = None):
        """Subclass of ``cls`` whose start/next_move/observe record spans.

        Wrapping at class level, not with instance attributes, keeps the
        spans on copies made by ``copy.deepcopy``.  With ``stage_prefix``
        the inclusive ``next_move`` time is also split by the instance's
        ``stage`` attribute, read before each call.
        """
        key = (cls, stage_prefix)
        if key in self._strategy_classes:
            return self._strategy_classes[key]
        spans = {
            (role, method): self.span(f"strategies.{role}.{method}", getattr(cls, method))
            for role in ("maker", "breaker")
            for method in ("start", "next_move", "observe")
        }
        tracer = self

        def start(s, config, rng):
            return spans[s.role, "start"](s, config, rng)

        def observe(s, board, role, move):
            return spans[s.role, "observe"](s, board, role, move)

        def next_move(s, board, transcript):
            if stage_prefix is None:
                return spans[s.role, "next_move"](s, board, transcript)
            stage = getattr(s, "stage", None)
            t0 = perf_counter()
            try:
                return spans[s.role, "next_move"](s, board, transcript)
            finally:
                tracer.add(f"{stage_prefix}.stage{stage}.next_move_s", perf_counter() - t0)

        traced = type(
            f"Traced{cls.__name__}",
            (cls,),
            {"start": start, "observe": observe, "next_move": next_move,
             "__module__": __name__},
        )
        self._strategy_classes[key] = traced
        return traced

    # -- reading -------------------------------------------------------------

    def self_times(self, lo: int = 0, hi: int | None = None) -> dict[str, list]:
        """{span name: [calls, total self seconds]} over spans[lo:hi]."""
        return self_times(self.names, self.name_id, self.parent, self.start, self.end, lo, hi)

    def write(self, path: str) -> None:
        """All spans as gzip-compressed tab-separated text, one per line."""
        names, name_id, parent, op = self.names, self.name_id, self.parent, self.op
        start, end = self.start, self.end
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tparent\top\tname\tstart_s\tend_s\n")
            for lo in range(0, len(start), 65536):
                fh.write("".join(
                    f"{i}\t{parent[i]}\t{op[i]}\t{names[name_id[i]]}\t{start[i]:.9f}\t{end[i]:.9f}\n"
                    for i in range(lo, min(lo + 65536, len(start)))
                ))


def self_times(names, name_id, parent, start, end, lo=0, hi=None) -> dict[str, list]:
    """Calls and self time per span name, for the spans in [lo, hi).

    Parents must lie inside the same range; a parent index below ``lo``
    marks a root.
    """
    if hi is None:
        hi = len(start)
    dur = [end[i] - start[i] for i in range(lo, hi)]
    own = list(dur)
    for k in range(hi - lo):
        p = parent[lo + k]
        if p >= lo:
            own[p - lo] -= dur[k]
    out: dict[str, list] = {}
    for k in range(hi - lo):
        row = out.setdefault(names[name_id[lo + k]], [0, 0.0])
        row[0] += 1
        row[1] += own[k]
    return out
