"""A family's guide source: its seed's guide read once as runs, or a repeated pattern.

charpair.SeedSpec.merge and split read a plain seed's guide from position 0
on every call: they are the reference. A family holds one of two faster
sources instead, picked by charpair.family_from_seed, and
charpair.generic_pair and generic_unpair call all three alike:
  - a GuidePrefix reads the guide once and routes bits by whole runs;
  - a PeriodicGuide serves a seed whose guide repeats a pattern holding both
    bits from position 0 (periodic_pattern finds it from the seed's encoder
    and payload), and routes bits with one extended slice per pattern
    position, reading no guide at all.
"""

import threading
from array import array
from bisect import bisect_left, bisect_right
from itertools import islice

from . import encoders, streams
from .errors import GuideExhausted

UNPLACED = "with bits left to place"
UNDELIMITED = "before both components were delimited"


def exhausted(label: str, position: int, what: str) -> GuideExhausted:
    """The error of a finite guide that ended after `position` positions."""
    return GuideExhausted(f"guide of seed {label} ended at position {position} {what}",
                          position=position, label=label)


def _check_fuel(source, fuel: streams.Fuel) -> None:
    """Refuse fuel past the source's budget, which a GuidePrefix never reads to."""
    if fuel.remaining > source.budget:
        raise ValueError(f"fuel of {fuel.remaining} pulls exceeds the budget"
                         f" of the guide of {source.label}, {source.budget}")


def _again(e: Exception) -> Exception:
    """A fresh copy of a stored guide error, so that each call raises its own."""
    fresh = type(e)(*e.args)
    fresh.__dict__.update(e.__dict__)
    return fresh


class GuidePrefix:
    """The guide of one seed (a charpair.SeedSpec), read once and kept as runs.

    The guide is read from SeedSpec._guide, unmetered, on demand, in chunks
    that double the prefix, under a lock, and never past fuel_budget + 1
    positions: a call that needs more runs out of fuel whatever the guide
    holds there.
    Positions are kept as maximal runs of equal bits. Runs alternate, so run
    r holds the bit first ^ (r & 1); each run stores its start and the ones
    and zeros before it, 24 bytes a run.

    merge and split route bit forms by whole runs and tick the call's fuel
    by exactly the positions the loop over the plain seed would read, so
    they give its answers and raise its errors, with the same fields. A
    guide that ends or fails is read to that point once; every later call
    that reaches it raises again. Calls may come from several threads.
    """

    __slots__ = ("seed", "label", "budget", "_lock", "_bits", "_first",
                 "_starts", "_ones", "_zeros", "_state")

    def __init__(self, seed, fuel_budget: int = streams.DEFAULT_FUEL):
        self.seed = seed
        self.label = seed.label
        self.budget = fuel_budget
        self._lock = threading.Lock()
        self._bits = None
        self._first = 1
        self._starts, self._ones, self._zeros = array("q"), array("q"), array("q")
        # (runs, positions, ones), replaced whole after the arrays have grown,
        # so a reader never takes the lock; then stop: None while the guide may
        # go on, StopIteration() once it has ended, else the error it raised.
        self._state = (0, 0, 0, None)

    def _grow(self, upto: int) -> None:
        """Read the guide on to `upto` positions or to its end; the caller holds the lock."""
        runs, n, o, stop = self._state
        starts, ones, zeros = self._starts, self._ones, self._zeros
        last = self._first ^ ((runs - 1) & 1) if runs else -1
        try:
            if self._bits is None:
                self._bits = self.seed._guide()
            for bit in islice(self._bits, upto - n):
                bit = 1 if bit == 1 else 0  # as the loop reads it; a bins guide may hold 1.0
                if bit != last:
                    if not starts:
                        self._first = bit
                    starts.append(n)
                    ones.append(o)
                    zeros.append(n - o)
                    last = bit
                o += bit
                n += 1
            if n < upto:
                stop = StopIteration()
        except Exception as e:  # any guide error; every call that reaches it raises it again
            stop = e
        finally:
            self._state = (len(starts), n, o, stop)

    def _cover(self, ones: int, zeros: int, past: int, fuel: streams.Fuel) -> tuple:
        """The state once it holds `ones` ones, `zeros` zeros and a run starting
        after position `past`, or once the guide has stopped or more positions
        are read than the fuel can pay for."""
        _check_fuel(self, fuel)
        limit = fuel.read_limit()
        state = self._state
        runs, n, o, stop = state
        while ((o < ones or n - o < zeros or not runs or self._starts[runs - 1] <= past)
               and stop is None and n < limit):
            with self._lock:
                if self._state is state:
                    self._grow(min(max(2 * n, 64), limit))
                state = self._state
            runs, n, o, stop = state
        return state

    def _fail(self, n: int, stop, fuel: streams.Fuel, what: str):
        """Fail as the loop does on a call that needs more than the `n` positions read."""
        fuel.spend(n)
        if isinstance(stop, StopIteration):
            raise exhausted(self.label, n, what)
        raise _again(stop)

    def merge(self, xs: list[int], ys: list[int], fuel: streams.Fuel) -> list[int]:
        """The bits generic_pair places: xs on the guide's ones, ys on its zeros.

        xs and ys are padded with zeros in place.
        """
        lx, ly = len(xs), len(ys)
        runs, n, o, stop = self._cover(lx, ly, -1, fuel)
        # An empty side needs no position, but the loop reads one if the guide
        # has it; a guide that stops at position 0 gives [] only if it ended.
        if o < lx or n - o < ly or not n and not isinstance(stop, StopIteration):
            self._fail(n, stop, fuel, UNPLACED)
        starts, ones, zeros = self._starts, self._ones, self._zeros
        # The runs holding the guide's lx-th one and ly-th zero; the later ends the call.
        r1 = bisect_right(ones, lx - 1, 0, runs) - 1
        r0 = bisect_right(zeros, ly - 1, 0, runs) - 1
        p1 = starts[r1] + lx - 1 - ones[r1] if lx else -1
        p0 = starts[r0] + ly - 1 - zeros[r0] if ly else -1
        end = min(max(p1, p0, 0) + 1, n)
        fuel.spend(end)
        if p1 > p0:
            reach, xend, yend = r1 + 1, lx, end - lx
            ys += [0] * (yend - ly)
        else:
            reach, xend, yend = r0 + 1, end - ly, ly
            xs += [0] * (xend - lx)
        # Runs 2i and 2i+1 hold one run of each bit: the first draws from a,
        # the second from b, each up to its count before run 2i+2.
        a, b, acut, bcut, aend, bend = (xs, ys, ones, zeros, xend, yend) if self._first \
            else (ys, xs, zeros, ones, yend, xend)
        merged: list[int] = []
        i = k = 0
        for r in range(2, reach, 2):
            j, m = acut[r], bcut[r]
            merged += a[i:j]
            merged += b[k:m]
            i, k = j, m
        merged += a[i:aend]
        merged += b[k:bend]
        return merged

    def split(self, payload: list[int], fuel: streams.Fuel) -> tuple[list[int], list[int]]:
        """The bits generic_unpair routes to the guide's ones and to its zeros."""
        length = len(payload)
        runs, known, _, stop = self._cover(0, 0, length, fuel)
        starts = self._starts
        after = bisect_right(starts, length, 0, runs)
        if after == runs:
            self._fail(known, stop, fuel, UNDELIMITED)
        fuel.spend(starts[after] + 1)
        # Runs 0..after-1 cover the payload; runs 2i and 2i+1 go to different
        # sides. A slice may run past the payload's end, which cuts it there.
        a: list[int] = []
        b: list[int] = []
        i = 0
        for r in range(2, after, 2):
            j, k = starts[r - 1], starts[r]
            a += payload[i:j]
            b += payload[j:k]
            i = k
        j = starts[(after - 1) | 1]
        a += payload[i:j]
        b += payload[j:]
        return (a, b) if self._first else (b, a)


def periodic_pattern(seed) -> tuple:
    """(p, ones) when a seed's guide repeats a pattern of period p holding
    both bits from position 0, ones the sorted positions of its ones in
    [0, p); else () when that is not known or a side would starve.

    A bins seed over streams.cycle(t) repeats t when every element is 0 or 1,
    read as the reference loop reads bits (any bit equal to 1 is a one); a
    set seed over streams.arith(0, k) repeats a one and k - 1 zeros, kept as
    (k, (0,)), so that a long step costs nothing.
    """
    kind, *args = getattr(seed.payload, "_shape", None) or ("",)
    if kind == "cycle" and seed.encoder is encoders.BINS and all(b in (0, 1) for b in args[0]):
        period, ones = len(args[0]), tuple(r for r, b in enumerate(args[0]) if b == 1)
    elif (kind == "arith" and seed.encoder is encoders.SET
          and type(args[0]) is type(args[1]) is int and args[0] == 0):
        period, ones = args[1], (0,)
    else:
        return ()
    return (period, ones) if 0 < len(ones) < period else ()


class PeriodicGuide:
    """The guide of one seed (a charpair.SeedSpec) that repeats a pattern of p bits.

    The pattern is its period p and the sorted positions of its c1 ones;
    the c0 = p - c1 zeros are found from those, so a pattern of one one and
    many zeros is as cheap as a short one. If r is the q-th one-position,
    the guide's ones q, q + c1, q + 2*c1, ... sit at positions r, r + p,
    r + 2p, ..., so merge places a call's bits with one extended-slice
    assignment per pattern position it reaches, out[r::p] = xs[q::c1], the
    zero-positions taking ys alike, and split takes them back the same way.
    The positions the reference loop would read have a closed form, and
    each call is charged them through fuel.spend, so it gives the loop's
    answers and errors and leaves the same fuel. The pattern must hold a 0
    and a 1: a guide that starves a side keeps the GuidePrefix, whose
    refusal reads to the budget as the loop does. Nothing changes after
    construction, so calls may come from several threads.
    """

    __slots__ = ("seed", "label", "budget", "_period", "_ones", "_gaps")

    def __init__(self, seed, period: int, ones: tuple[int, ...],
                 fuel_budget: int = streams.DEFAULT_FUEL):
        if not 0 < len(ones) < period:
            raise ValueError(f"a periodic guide needs a 0 and a 1 in its pattern,"
                             f" got {len(ones)} ones in a period of {period}")
        self.seed = seed
        self.label = seed.label
        self.budget = fuel_budget
        self._period = period
        self._ones = ones
        # The q-th zero of the pattern sits past the ones whose gap r - t is at most q.
        self._gaps = [r - t for t, r in enumerate(ones)]

    def _one(self, j: int) -> int:
        """The position of the guide's j-th one, from 0."""
        c1 = len(self._ones)
        return j // c1 * self._period + self._ones[j % c1]

    def _zero(self, j: int) -> int:
        """The position of the guide's j-th zero, from 0."""
        c0 = self._period - len(self._ones)
        q = j % c0
        return j // c0 * self._period + q + bisect_right(self._gaps, q)

    def ones_before(self, w: int) -> int:
        """The ones among the first w guide positions."""
        if w <= 0:
            return 0
        return w // self._period * len(self._ones) + bisect_left(self._ones, w % self._period)

    def merge(self, xs: list[int], ys: list[int], fuel: streams.Fuel) -> list[int]:
        """The bits generic_pair places: xs on the guide's ones, ys on its zeros.

        xs and ys are padded with zeros in place.
        """
        _check_fuel(self, fuel)
        ones, p = self._ones, self._period
        c1, c0 = len(ones), p - len(ones)
        # The loop reads on to the later of xs's last one and ys's last zero.
        end = max(self._one(len(xs) - 1), self._zero(len(ys) - 1), 0) + 1
        fuel.spend(end)
        n1 = self.ones_before(end)
        xs += [0] * (n1 - len(xs))
        ys += [0] * (end - n1 - len(ys))
        merged = [0] * end
        for q, r in enumerate(ones[:n1]):
            merged[r::p] = xs[q::c1]
        for q in range(min(c0, end - n1)):
            merged[self._zero(q)::p] = ys[q::c0]
        return merged

    def split(self, payload: list[int], fuel: streams.Fuel) -> tuple[list[int], list[int]]:
        """The bits generic_unpair routes to the guide's ones and to its zeros."""
        _check_fuel(self, fuel)
        ones, p = self._ones, self._period
        c1, c0 = len(ones), p - len(ones)
        length = len(payload)
        n1 = self.ones_before(length)
        # The loop reads on to the first one and the first zero at or past the payload's end.
        fuel.spend(max(self._one(n1), self._zero(length - n1)) + 1)
        a, b = [0] * n1, [0] * (length - n1)
        for q, r in enumerate(ones[:n1]):
            a[q::c1] = payload[r::p]
        for q in range(min(c0, length - n1)):
            b[q::c0] = payload[self._zero(q)::p]
        return a, b
