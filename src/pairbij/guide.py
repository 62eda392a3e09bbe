"""A seed's guide, read once and kept as runs of equal bits, for a pairing family to share.

charpair.SeedSpec.merge and split read a plain seed's guide from position 0
on every call: they are the reference. A family reads its guide once
into a GuidePrefix, whose merge and split route bits by whole runs instead;
charpair.generic_pair and generic_unpair call either source alike.
"""

import threading
from array import array
from bisect import bisect_right
from itertools import islice

from . import streams
from .errors import GuideExhausted

UNPLACED = "with bits left to place"
UNDELIMITED = "before both components were delimited"


def exhausted(label: str, position: int, what: str) -> GuideExhausted:
    """The error of a finite guide that ended after `position` positions."""
    return GuideExhausted(f"guide of seed {label} ended at position {position} {what}",
                          position=position, label=label)


def _again(e: Exception) -> Exception:
    """A fresh copy of a stored guide error, so that each call raises its own."""
    fresh = type(e)(*e.args)
    fresh.__dict__.update(e.__dict__)
    return fresh


class GuidePrefix:
    """The guide of one seed (a charpair.SeedSpec), read once and kept as runs.

    The guide is read through SeedSpec.bits on demand, in chunks that double
    the prefix, under a lock, and never past fuel_budget + 1 positions: a
    call that needs more runs out of fuel whatever the guide holds there.
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
                fuel = streams.Fuel(self.budget + 1, label=f"seed {self.label}")
                self._bits = self.seed.bits(fuel)
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
        if fuel.remaining > self.budget:
            raise ValueError(f"fuel of {fuel.remaining} pulls exceeds the budget"
                             f" of the guide prefix of {self.label}, {self.budget}")
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

    def ones_before(self, w: int) -> int:
        """The ones among the first w guide positions, which must be read already."""
        runs, n, _, _ = self._state
        if w > n:
            raise ValueError(f"{w} positions asked of the guide prefix of {self.label},"
                             f" which holds {n}")
        if w <= 0:
            return 0
        r = bisect_right(self._starts, w - 1, 0, runs) - 1
        return self._ones[r] + (w - self._starts[r] if self._first ^ (r & 1) else 0)

    def merge(self, xs: list[int], ys: list[int], fuel: streams.Fuel) -> list[int]:
        """The bits generic_pair places: xs on the guide's ones, ys on its zeros.

        xs and ys are padded with zeros in place.
        """
        lx, ly = len(xs), len(ys)
        runs, n, o, stop = self._cover(lx, ly, -1, fuel)
        if o < lx or n - o < ly:
            self._fail(n, stop, fuel, UNPLACED)
        starts, ones, zeros = self._starts, self._ones, self._zeros
        # The runs holding the guide's lx-th one and ly-th zero; the later ends the call.
        r1 = bisect_right(ones, lx - 1, 0, runs) - 1
        r0 = bisect_right(zeros, ly - 1, 0, runs) - 1
        p1 = starts[r1] + lx - 1 - ones[r1]
        p0 = starts[r0] + ly - 1 - zeros[r0]
        end = max(p1, p0) + 1
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
