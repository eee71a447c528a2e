"""In-memory span tracer for the live package.

``Tracer.install`` wraps every public function of the package in every
module namespace that binds it (so ``teleporter._report``'s call to
``make_epr`` is seen too), plus the constructors that validate states and
parameters.  Each call records a span: id, parent span id, function, the
operation it belongs to, start and end times and self time (duration minus
the time covered by child spans).  Spans stay in memory until the run ends;
``summarize`` turns them into per-function counts and times.
"""

from __future__ import annotations

import dataclasses
import functools
import os
import sys
import time
import types

# Work units a call performs, for rates: name -> f(args, kwargs, result).
_UNITS = {
    "teleporter.cascade": lambda a, k, r: len(r),
    "teleporter.teleport_mc": lambda a, k, r: a[1] if len(a) > 1 else k["shots"],
    "tomography.sample_record": lambda a, k, r: r.n_samples,
    "tomography.inverse_radon": lambda a, k, r: (a[0] if a else k["record"]).n_samples,
}
_WRITERS = ("write_json", "write_report_json", "write_trace_csv", "write_wigner_csv")


def _written_bytes(args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return os.path.getsize(path)


class Tracer:
    def __init__(self, package: str):
        self.package = package
        self.names: list[str] = []
        self.spans: list[tuple] = []
        self.op = -1
        self._stack: list[list] = []
        self._next_id = 0
        self._patches: list[tuple] = []

    def _wrap(self, fn, name):
        fid = len(self.names)
        self.names.append(name)
        units = _UNITS.get(name)
        if name.startswith("harness.") and name.split(".")[1] in _WRITERS:
            units = _written_bytes
        stack, spans, clock = self._stack, self.spans, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0]
            stack.append(frame)
            done = False
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                t1 = clock()
                stack.pop()
                if stack:
                    stack[-1][1] += t1 - t0
                n = units(args, kwargs, result) if done and units is not None else 0
                spans.append((sid, parent, fid, self.op, t0, t1, t1 - t0 - frame[1], n))

        return wrapper

    def install(self) -> None:
        """Patch the package's modules; idempotent wrappers per function."""
        wrappers: dict = {}
        classes: set = set()
        prefix = self.package + "."
        modules = [m for n, m in list(sys.modules.items())
                   if n == self.package or n.startswith(prefix)]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if isinstance(value, types.FunctionType) and value.__module__.startswith(prefix):
                    if value not in wrappers:
                        layer = value.__module__[len(prefix):]
                        wrappers[value] = self._wrap(value, f"{layer}.{value.__name__}")
                    self._patch(module, attr, wrappers[value])
                elif (isinstance(value, type) and value.__module__.startswith(prefix)
                      and value not in classes):
                    classes.add(value)
                    self._wrap_class(value)

    def _wrap_class(self, cls):
        # The constructor that validates: __post_init__ for dataclasses.
        method = "__post_init__" if dataclasses.is_dataclass(cls) else "__init__"
        fn = cls.__dict__.get(method)
        if isinstance(fn, types.FunctionType):
            layer = cls.__module__[len(self.package) + 1:]
            self._patch(cls, method, self._wrap(fn, f"{layer}.{cls.__name__}"))

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def dump(self) -> dict:
        return {"names": self.names, "spans": self.spans}


def summarize(dumps) -> dict:
    """Per-function calls, inclusive/self nanoseconds and work units, plus
    call counts of one function beneath another ("child<parent")."""
    stats: dict[str, list] = {}
    nested: dict[str, int] = {}
    watched = {"teleporter.teleport_mc", "harness.calibrate_losses"}
    for dump in dumps:
        names = dump["names"]
        parents = {sid: (parent, fid) for sid, parent, fid, *_ in dump["spans"]}
        for sid, parent, fid, _op, t0, t1, self_ns, units in dump["spans"]:
            name = names[fid]
            entry = stats.setdefault(name, [0, 0, 0, 0])
            entry[0] += 1
            entry[1] += t1 - t0
            entry[2] += self_ns
            entry[3] += units
            while parent >= 0:
                parent, pfid = parents[parent]
                if names[pfid] in watched:
                    key = f"{name}<{names[pfid]}"
                    nested[key] = nested.get(key, 0) + 1
    return {"functions": stats, "nested": nested}
