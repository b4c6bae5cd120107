"""Timing hooks installed from the benchmark's side.

Two kinds of hook replace functions of ``lbseries`` in every namespace that
holds them (module attributes, modules that imported them, the package
itself, and class attributes), so the program carries no instrumentation:

* :class:`UnitClock` cuts a job into short timed units at every entry into
  and exit from chosen functions.
* :class:`Tracer` records one span (name, start, end, parent) per call of
  every wrapped function and reduces them to self times and call counts.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array

PACKAGE = "lbseries"

# Class-level dunders that are traced; comparison and hashing are left out
# because trees are hashed inside every dict operation.
TRACED_DUNDERS = frozenset({"__add__", "__sub__", "__neg__", "__mul__", "__rmul__"})


def _namespaces():
    return [
        module
        for name, module in list(sys.modules.items())
        if name == PACKAGE or name.startswith(PACKAGE + ".")
    ]


def patch(module, name: str, make_wrapper) -> None:
    """Replace ``module.name`` by ``make_wrapper(current)`` wherever the
    current object is bound in an lbseries namespace."""
    current = getattr(module, name)
    wrapper = make_wrapper(current)
    for ns in _namespaces():
        for attr, value in list(vars(ns).items()):
            if value is current:
                setattr(ns, attr, wrapper)


def patch_method(cls, name: str, make_wrapper) -> None:
    raw = vars(cls)[name]
    if isinstance(raw, staticmethod):
        setattr(cls, name, staticmethod(make_wrapper(raw.__func__)))
    else:
        setattr(cls, name, make_wrapper(raw))


class UnitClock:
    """Times a job as short units.

    ``step(name, fn)`` runs one step.  Every entry into and exit from a
    function passed to :meth:`split`, at any depth of the call stack, cuts
    the step: each stretch between two consecutive cuts is one unit.
    ``units[step]`` lists the step's unit times in order; they add up to the
    step's time.
    """

    def __init__(self):
        self.units: dict[str, array] = {}
        self._times = None
        self._mark = 0.0

    def split(self, owner, name: str) -> None:
        """Cut at calls of ``owner.name``; a name the program no longer
        has is skipped, which leaves longer units but the same total."""
        if name not in vars(owner):
            return
        if inspect.isclass(owner):
            patch_method(owner, name, self._timed)
        else:
            patch(owner, name, self._timed)

    def _cut(self) -> None:
        if self._times is not None:
            now = time.perf_counter()
            self._times.append(now - self._mark)
            self._mark = now

    def _timed(self, fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            self._cut()
            try:
                return fn(*args, **kwargs)
            finally:
                self._cut()

        return timed

    def step(self, name: str, fn):
        self._times = self.units[name] = array("d")
        self._mark = time.perf_counter()
        try:
            return fn()
        finally:
            self._cut()
            self._times = None


class Fastest:
    """Each unit's fastest time over the passes added so far (a unit is a
    step name and a position in the step); ``total()`` is the job estimate."""

    def __init__(self):
        self.best: dict[str, list[float]] = {}
        self.passes = 0

    def add(self, units: dict[str, array]) -> None:
        self.passes += 1
        for step, times in units.items():
            kept = self.best.setdefault(step, list(times))
            shared = min(len(kept), len(times))
            kept[:shared] = map(min, kept[:shared], times[:shared])
            kept.extend(times[shared:])

    def total(self) -> float:
        return sum(sum(times) for times in self.best.values())


def write_units(units: dict[str, array], path: str) -> None:
    """Unit times as a JSON header (step -> count) and raw doubles."""
    header = json.dumps({step: len(times) for step, times in units.items()}).encode()
    with open(path, "wb") as fh:
        fh.write(len(header).to_bytes(4, "little"))
        fh.write(header)
        for times in units.values():
            times.tofile(fh)


def read_units(path: str) -> dict[str, array]:
    with open(path, "rb") as fh:
        header = json.loads(fh.read(int.from_bytes(fh.read(4), "little")))
        units = {}
        for step, count in header.items():
            units[step] = array("d")
            units[step].fromfile(fh, count)
    return units


class Tracer:
    """In-memory spans around every public function and method of lbseries."""

    def __init__(self):
        self.names: list[str] = []
        self.kind = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.enabled = True
        self._stack = [-1]

    def install(self, modules) -> None:
        for module in modules:
            short = module.__name__.rpartition(".")[2]
            for name, value in list(vars(module).items()):
                if name.startswith("_"):
                    continue
                if inspect.isclass(value) and value.__module__ == module.__name__:
                    self._install_class(short, value)
                elif _traceable(value, module):
                    patch(module, name, self._wrapper(f"{short}.{name}"))

    def _install_class(self, short: str, cls) -> None:
        for name, raw in list(vars(cls).items()):
            func = raw.__func__ if isinstance(raw, staticmethod) else raw
            if not inspect.isfunction(func) or inspect.isgeneratorfunction(func):
                continue
            if name.startswith("_") and name not in TRACED_DUNDERS:
                continue
            patch_method(cls, name, self._wrapper(f"{short}.{cls.__name__}.{name}"))

    def _wrapper(self, label: str):
        kind = len(self.names)
        self.names.append(label)

        def make(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                if not self.enabled:
                    return fn(*args, **kwargs)
                index = len(self.start)
                self.kind.append(kind)
                self.parent.append(self._stack[-1])
                self.end.append(0.0)
                self._stack.append(index)
                self.start.append(time.perf_counter())
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.end[index] = time.perf_counter()
                    self._stack.pop()

            return traced

        return make

    def clear(self) -> None:
        """Drop the recorded spans (call only between top-level calls)."""
        for spans in (self.kind, self.parent, self.start, self.end):
            del spans[:]

    def totals(self) -> dict[str, tuple[int, float]]:
        """Per name: (calls, self seconds) of the recorded spans.  Self time
        is a span's duration minus its children's."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                child[self.parent[i]] += self.end[i] - self.start[i]
        out: dict[str, list] = {}
        for i in range(n):
            entry = out.setdefault(self.names[self.kind[i]], [0, 0.0])
            entry[0] += 1
            entry[1] += self.end[i] - self.start[i] - child[i]
        return {name: (calls, seconds) for name, (calls, seconds) in out.items()}

    def write(self, path: str) -> None:
        """Write the spans as tab-separated ``name start end parent`` lines."""
        with open(path, "w") as fh:
            for i in range(len(self.start)):
                fh.write(
                    f"{self.names[self.kind[i]]}\t{self.start[i]:.9f}\t"
                    f"{self.end[i]:.9f}\t{self.parent[i]}\n"
                )


def _traceable(value, module) -> bool:
    func = inspect.unwrap(value) if callable(value) else value
    return (
        callable(value)
        and inspect.isfunction(func)
        and func.__module__ == module.__name__
        and not inspect.isgeneratorfunction(func)
    )
