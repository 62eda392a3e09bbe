"""Spans around pairbij's layer entry points, for the benchmark's traced pass.

The library is not edited: `install` replaces module attributes with timing
wrappers and `uninstall` puts the originals back. That works because
charpair and nadic look these functions up as module globals at call time.
An entry point that no longer exists is skipped, so its layer reports zero
calls instead of failing the run.

Spans are aggregated in memory per (operation, name, parent): calls, busy
time, self time (busy minus the busy time of child spans), first start, last
end, and a layer-specific unit count. Hot leaves such as nadic.decons run
thousands of times per operation, so one record per call would not fit.
"""

import json
import time
from dataclasses import replace

from pairbij import charpair, cli, nadic, streams

# Record fields.
CALLS, BUSY, SELF, START, END, UNITS = range(6)


def _fuel_ticks(args, kwargs, result):
    for a in (*args, *kwargs.values()):
        if isinstance(a, streams.Fuel):
            return a.budget - a.remaining
    return 0


def _payload_bits(args, kwargs, result):
    """Bit lengths of the pair's two components, once the call has completed."""
    if result is None:
        return 0
    if isinstance(result, tuple):  # generic_unpair -> (x, y)
        x, y = result
    else:  # generic_pair(seed, x, y, ...)
        x, y = args[1], args[2]
    return x.bit_length() + y.bit_length()


def _bits_in(args, kwargs, result):
    bits = args[0]
    return len(bits) if hasattr(bits, "__len__") else result.bit_length()


def _count(fn, args, kwargs, result):
    """A unit count, or 0 when the entry point's signature no longer fits fn."""
    if fn is None:
        return 0
    try:
        return fn(args, kwargs, result)
    except (IndexError, TypeError, ValueError, AttributeError):
        return 0


class Tracer:
    """Collects spans for one traced pass; not thread-safe (the load is one thread)."""

    def __init__(self):
        self.records = {}  # (op, name, parent) -> [calls, busy, self, start, end, units]
        self.extra = {}  # name -> second unit count, e.g. payload bits
        self.op = -1
        self.cell = {}  # op -> cell name
        self._stack = []  # frames: [name, child busy ns]
        self._saved = []  # (owner, attribute, original)
        self._op_start = 0

    # -- recording ------------------------------------------------------------

    def _record(self, name, t0, t1, child, units):
        stack = self._stack
        dur = t1 - t0
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[1] += dur
        key = (self.op, name, parent[0] if parent else None)
        rec = self.records.get(key)
        if rec is None:
            self.records[key] = [1, dur, dur - child, t0, t1, units]
        else:
            rec[CALLS] += 1
            rec[BUSY] += dur
            rec[SELF] += dur - child
            rec[END] = t1
            rec[UNITS] += units

    def begin(self, op: int, cell: str) -> None:
        self.op = op
        self.cell[op] = cell
        self._stack.append(["op", 0])
        self._op_start = time.perf_counter_ns()

    def end(self) -> None:
        t1 = time.perf_counter_ns()
        frame = self._stack.pop()
        self._record("op", self._op_start, t1, frame[1], 1)

    def wrap(self, name, fn, units=None, extra=None):
        """A wrapper recording one span per call of fn.

        units(args, kwargs, result) and extra(args, kwargs, result) are read
        after the call; result is None when the call raised.
        """
        stack = self._stack
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            frame = [name, 0]
            stack.append(frame)
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                stack.pop()
                tracer._record(name, t0, t1, frame[1], _count(units, args, kwargs, result))
                if extra:
                    tracer.extra[name] = tracer.extra.get(name, 0) + _count(extra, args, kwargs, result)

        return traced

    def timed_iter(self, name, it):
        """An iterator proxy recording each next() as a span with one unit per item."""
        return _TimedIter(self, name, iter(it))

    # -- installing wrappers -----------------------------------------------------

    def _replace(self, owner, attr, make):
        original = getattr(owner, attr, None)
        if original is None:
            return
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install(self) -> None:
        """Wrap every layer entry point that exists; missing ones are skipped."""
        for fname in ("generic_pair", "generic_unpair"):
            self._replace(charpair, fname, lambda f: self.wrap(
                "charpair.place", f, _fuel_ticks, _payload_bits))
        self._replace(charpair, "_nat_to_bits", lambda f: self.wrap(
            "charpair.bits", f, lambda a, k, r: len(r)))
        self._replace(charpair, "_bits_to_nat", lambda f: self.wrap(
            "charpair.bits", f, _bits_in))
        seed_cls = getattr(charpair, "SeedSpec", None)
        if seed_cls is not None:
            self._replace(seed_cls, "bits", lambda f: (
                lambda seed, *a, **k: self.timed_iter("encoders.guide", f(seed, *a, **k))))
        self._replace(nadic, "decons", lambda f: self.wrap(
            "nadic.decons", f, lambda a, k, r: r[0]))
        self._replace(nadic, "cons", lambda f: self.wrap("nadic.cons", f))
        self._replace(cli, "parse_family", self._wrap_parse_family)
        self._replace(cli, "_render_csv", lambda f: self.wrap("cli.render", f))

    def _wrap_parse_family(self, parse_family):
        def parse(*args, **kwargs):
            fam = parse_family(*args, **kwargs)
            try:
                return replace(fam, unpair=self.wrap("cli.unpair", fam.unpair))
            except (TypeError, AttributeError):  # no longer a dataclass with .unpair
                return fam

        return self.wrap("cli.parse", parse)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- reading out -------------------------------------------------------------

    def totals(self) -> dict:
        """Per span name: calls, busy, self and units summed over every operation."""
        out = {}
        for (_, name, _), rec in self.records.items():
            t = out.setdefault(name, [0, 0, 0, 0])
            t[0] += rec[CALLS]
            t[1] += rec[BUSY]
            t[2] += rec[SELF]
            t[3] += rec[UNITS]
        return out

    def write(self, path) -> None:
        """One JSON line per aggregated span record."""
        with open(path, "w") as f:
            for (op, name, parent), rec in self.records.items():
                f.write(json.dumps({
                    "op": op, "cell": self.cell.get(op), "name": name, "parent": parent,
                    "calls": rec[CALLS], "busy_ns": rec[BUSY], "self_ns": rec[SELF],
                    "start_ns": rec[START], "end_ns": rec[END], "units": rec[UNITS],
                }) + "\n")


class _TimedIter:
    __slots__ = ("tracer", "name", "it")

    def __init__(self, tracer, name, it):
        self.tracer = tracer
        self.name = name
        self.it = it

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self.tracer
        stack = tracer._stack
        frame = [self.name, 0]
        stack.append(frame)
        got = 0
        t0 = time.perf_counter_ns()
        try:
            item = next(self.it)
            got = 1
            return item
        finally:
            t1 = time.perf_counter_ns()
            stack.pop()
            tracer._record(self.name, t0, t1, frame[1], got)
