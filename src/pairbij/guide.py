"""A family's guide source: its seed's guide, read once and kept as runs.

charpair.SeedSpec.merge and split read a plain seed's guide from position 0
on every call: they are the reference. A family holds a GuidePrefix
instead (charpair.family_from_seed picks it), which routes bits by whole
runs; over a seed whose shape says its guide repeats from position 0
(periodic_pattern), it is a PeriodicGuide, which places bits with one
extended slice per pattern position. charpair.generic_pair and
generic_unpair call the pair and unpair of all of them alike, which take
and return ints; merge and split take bit forms as bytes only, and
GuidePrefix.layout gives the positions a split routes to each side. A
family's source may hold LaneTables in `tables`, which its family sets
after its second call (see lane_tables): its pair and unpair then answer
pair(x, y) for x, y < 2**W and unpair(n) for n < 2**CAP from them, with
no bit form, charged the positions its merge or split would read. The
rest go through the seed's bit codec (charpair.SeedSpec.codec_pair and
codec_unpair) around merge or split, the oracle the tables are tested
against.

What a call reads, and so is charged, is stated once per direction, as a
step on bit lengths alone: GuidePrefix._merge_reach for merge and
_split_reach for split (through _delimit, for split and layout). The lane
tables' charge lists are those steps' answers, so they keep no rule of
their own.
"""

import copy
import threading
from array import array
from bisect import bisect_left, bisect_right
from itertools import chain, islice
from operator import getitem

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


class GuidePrefix:
    """The guide of one seed (a charpair.SeedSpec), read once and kept as runs.

    The guide is read from SeedSpec._guide, unmetered, on demand, in chunks
    that double the prefix, under a lock, and never past fuel_budget + 1
    positions: a call that needs more runs out of fuel whatever the guide
    holds there.
    Positions are kept as runs of equal bits. Run 0 holds ones and starts
    at position 0, empty when the guide starts with a zero; runs alternate
    after it, so even runs hold ones and odd runs zeros. Each run stores its
    start and the ones and zeros before it, 24 bytes a run.

    merge and split tick the call's fuel by exactly the positions the loop
    over the plain seed would read, so they give its answers and raise its
    errors, with the same fields; then _place and _divide, which slice whole
    runs here, place or route the bits into bytearrays; layout charges and
    fails as split does. A guide that ends or fails is read to that point
    once; every later call that reaches it raises again. Calls may come from
    several threads.
    """

    __slots__ = ("seed", "label", "budget", "tables", "_lock", "_bits",
                 "_starts", "_ones", "_zeros", "_state")

    def __init__(self, seed, fuel_budget: int = streams.DEFAULT_FUEL):
        self.seed = seed
        self.label = seed.label
        self.budget = fuel_budget
        self.tables = None  # LaneTables, set by the family that owns the prefix
        self._lock = threading.Lock()
        self._bits = None
        self._starts, self._ones, self._zeros = array("q", [0]), array("q", [0]), array("q", [0])
        # (runs, positions, ones), replaced whole after the arrays have grown,
        # so a reader never takes the lock; then stop: None while the guide may
        # go on, StopIteration() once it has ended, else the error it raised.
        self._state = (1, 0, 0, None)

    def _grow(self, upto: int) -> None:
        """Read the guide on to `upto` positions or to its end; the caller holds the lock."""
        runs, n, o, stop = self._state
        starts, ones, zeros = self._starts, self._ones, self._zeros
        last = runs & 1  # the bit of run runs - 1
        try:
            if self._bits is None:
                self._bits = self.seed._guide()
            for bit in islice(self._bits, upto - n):
                bit = 1 if bit == 1 else 0  # as the loop reads it; a bins guide may hold 1.0
                if bit != last:
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
        while ((o < ones or n - o < zeros or not n or self._starts[runs - 1] <= past)
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
        raise copy.copy(stop)  # each call raises its own

    def pair(self, x: int, y: int, fuel: streams.Fuel) -> int:
        """generic_pair(self, x, y, fuel), for naturals x and y: from the lane
        tables when they cover both, else by the seed's codec around merge."""
        _check_fuel(self, fuel)
        if (tables := self.tables) and x < tables.limit and y < tables.limit:
            return tables.pair(x, y, fuel)
        return self.seed.codec_pair(self, x, y, fuel)

    def unpair(self, n: int, fuel: streams.Fuel) -> tuple[int, int]:
        """generic_unpair(self, n, fuel), for a natural n: from the lane tables
        when n < 2**CAP, else by the seed's codec around split."""
        _check_fuel(self, fuel)
        if (tables := self.tables) and n.bit_length() <= CAP:
            return tables.unpair(n, fuel)
        return self.seed.codec_unpair(self, n, fuel)

    def merge(self, xs: bytes, ys: bytes, fuel: streams.Fuel) -> bytearray:
        """The bits generic_pair places: xs on the guide's ones, ys on its zeros.

        Bit forms are bytes only, and the bits are placed into a bytearray.
        Each side is padded with zeros to its count into a new object, so a
        caller's bytearray is left as it was.
        """
        lx, ly = len(xs), len(ys)
        runs, n, o, stop = self._cover(lx, ly, -1, fuel)
        # An empty side needs no position, but the loop reads one if the guide
        # has it; a guide that stops at position 0 gives [] only if it ended.
        if o < lx or n - o < ly or not n and not isinstance(stop, StopIteration):
            self._fail(n, stop, fuel, UNPLACED)
        end, n1, last = self._merge_reach(lx, ly, runs, n)
        fuel.spend(end)
        return self._place(xs + bytes(n1 - lx), ys + bytes(end - n1 - ly), last, end)

    def _merge_reach(self, lx: int, ly: int, runs: int, n: int) -> tuple[int, int, int]:
        """The reach of a merge of an lx-bit and an ly-bit form: the positions
        it reads, which it is charged, x's count once padded, and the run of
        its last position. It looks at the first `runs` runs and `n` positions
        only, which must hold the guide's lx-th one and ly-th zero, or all the
        guide has.

        The later of those two positions ends the call, and each side is
        padded to its count before it. An empty side needs no position, but
        the call reads one if the guide has it.
        """
        ones, zeros = self._ones, self._zeros
        # The runs of the lx-th one and the ly-th zero, and their positions (the ones and
        # zeros before them); searched from run 1, an empty side finds run 0 and -1.
        r1 = bisect_right(ones, lx - 1, 1, runs) - 1
        r0 = bisect_right(zeros, ly - 1, 1, runs) - 1
        p1, p0 = zeros[r1] + lx - 1, ones[r0] + ly - 1
        end = min(max(p1, p0, 0) + 1, n)
        return end, lx if p1 > p0 else end - ly, max(r1, r0)

    def _place(self, xs: bytes, ys: bytes, last: int, end: int) -> bytearray:
        """The first `end` positions, up to run `last`: run 2i draws from xs and run
        2i+1 from ys, each up to its count before run 2i+2."""
        ones, zeros = self._ones, self._zeros
        merged = bytearray()
        i = k = 0
        for r in range(2, last + 1, 2):
            j, m = ones[r], zeros[r]
            merged += xs[i:j]
            merged += ys[k:m]
            i, k = j, m
        merged += xs[i:]
        merged += ys[k:]
        return merged

    def split(self, payload: bytes, fuel: streams.Fuel) -> tuple[bytearray, bytearray]:
        """The bits generic_unpair routes to the guide's ones and to its zeros,
        from bytes only, as two bytearrays."""
        return self._divide(payload, self._delimit(len(payload), fuel))

    def layout(self, length: int, fuel: streams.Fuel) -> tuple[list[int], list[int]]:
        """The positions below `length` that split routes to the guide's ones
        and to its zeros, charged and failing as a split of `length` positions."""
        return self._positions(self._delimit(length, fuel), length)

    def _delimit(self, length: int, fuel: streams.Fuel) -> int:
        """The run holding position `length`, once the guide delimits both sides
        past it; charged as split charges a payload of `length` bits."""
        runs, known, _, stop = self._cover(0, 0, length, fuel)
        last, reach = self._split_reach(length, runs)
        if not reach:
            self._fail(known, stop, fuel, UNDELIMITED)
        fuel.spend(reach)
        return last

    def _split_reach(self, length: int, runs: int) -> tuple[int, int]:
        """The run holding position `length`, and the positions a split of
        `length` bits reads, which it is charged, over the first `runs` runs;
        0 positions when none of those runs starts past it.

        Position `length` delimits one side, and the start of the next run
        the other: the split reads on to that start, plus 1. So the positions
        in a run each charge the next run's start, plus 1.
        """
        after = bisect_right(self._starts, length, 0, runs)
        return after - 1, self._starts[after] + 1 if after < runs else 0

    def _positions(self, last: int, stop: int) -> tuple[list[int], list[int]]:
        """The one-positions and zero-positions below `stop` in runs 0 to `last`."""
        bounds = [*self._starts[:bisect_left(self._starts, stop, 0, last + 1)], stop]
        return (list(chain.from_iterable(map(range, bounds[::2], bounds[1::2]))),
                list(chain.from_iterable(map(range, bounds[1::2], bounds[2::2]))))

    def _divide(self, payload: bytes, last: int) -> tuple[bytearray, bytearray]:
        """Runs 2i of the payload to the ones and runs 2i+1 to the zeros, up to run
        `last`, which holds position len(payload) and so cuts the last slice."""
        starts = self._starts
        a, b = bytearray(), bytearray()
        i = 0
        for r in range(2, last + 1, 2):
            j, k = starts[r - 1], starts[r]
            a += payload[i:j]
            b += payload[j:k]
            i = k
        j = starts[last | 1]
        a += payload[i:j]
        b += payload[j:]
        return a, b


def periodic_pattern(seed) -> int:
    """The period of a seed's guide, read from the seed's shape alone, or 0
    when the shape says nothing.

    A bins seed over streams.cycle(t) repeats t, and a set seed over
    streams.arith(0, k) repeats a one and k - 1 zeros, so that a long step
    costs nothing. Nothing is pulled, so a pattern that starves a side or
    holds a bad bit has a period too: its calls fail where the prefix's do.
    """
    kind, *args = getattr(seed.payload, "_shape", None) or ("",)
    if kind == "cycle" and seed.encoder is encoders.BINS:
        return len(args[0])
    if (kind == "arith" and seed.encoder is encoders.SET
            and type(args[0]) is type(args[1]) is int and args[0] == 0):
        return args[1]
    return 0


class PeriodicGuide(GuidePrefix):
    """A GuidePrefix over a guide that repeats a pattern of p bits from position 0.

    Only the placing of bits differs. If the guide's q-th one sits at r < p
    and the pattern holds c ones, its ones q + c, q + 2c, ... sit at r + p,
    r + 2p, ..., so merge places xs with one extended-slice assignment per
    one-position r of the runs below p, out[r::p] = xs[q::c], and ys alike
    on the zero-positions; split takes them back the same way. They run
    only once _cover has read the positions a call needs, so a pattern that
    starves a side or holds a bad bit fails there as a plain prefix does.
    """

    __slots__ = ("_period",)

    def __init__(self, seed, period: int, fuel_budget: int = streams.DEFAULT_FUEL):
        super().__init__(seed, fuel_budget)
        self._period = period

    def _place(self, xs: bytes, ys: bytes, last: int, end: int) -> bytearray:
        p = self._period
        merged = bytearray(end)
        # Once end reaches p, len(slots) is the pattern's count of the bit; below p,
        # each slice holds one position, so any step of len(slots) or more will do.
        for slots, side in zip(self._positions(last, min(end, p)), (xs, ys)):
            for q, r in enumerate(slots):
                merged[r::p] = side[q::len(slots)]
        return merged

    def _divide(self, payload: bytes, last: int) -> tuple[bytearray, bytearray]:
        p = self._period
        sides = (bytearray(), bytearray())
        for slots, side in zip(self._positions(last, min(len(payload), p)), sides):
            parts = [payload[r::p] for r in slots]
            side += bytes(sum(map(len, parts)))
            for q, part in enumerate(parts):
                side[q::len(parts)] = part
        return sides


# The positions a family's lane tables cover: they answer unpair(n) for n < 2**CAP.
CAP = 256
# A lane of an input is a hex digit, 4 bits: ("%x" % n)[::-1] translated by _HEX_DIGITS
# lists the lanes of n, lowest first, and _lanes cuts targets 4 at a time to match.
_HEX_DIGITS = bytes.maketrans(b"0123456789abcdef", bytes(range(16)))


def lane_table(targets: list[int]) -> list[int]:
    """Entry d is the OR of targets[i] over the set bits i of d: 2**len(targets) entries.

    The table doubles from [0], a target at a time; a zero target doubles it
    by repeating it, which shares its entries instead of building new ones.
    """
    table = [0]
    for t in targets:
        table += [v | t for v in table] if t else table
    return table


def extract_targets(ones: list[int], zeros: list[int]) -> tuple[list[int], list[int]]:
    """The bit of x and the bit of y that each position 0..L-1 sets in unpair,
    given the positions below L that GuidePrefix.layout gives the guide's ones
    and its zeros: the j-th one sets bit j of x, the j-th zero bit j of y."""
    targets = [0] * (len(ones) + len(zeros)), [0] * (len(ones) + len(zeros))
    for side, positions in zip(targets, (ones, zeros)):
        for j, p in enumerate(positions):
            side[p] = 1 << j
    return targets


def _lanes(targets: list[int]) -> list[list[int]]:
    return [lane_table(targets[i:i + 4]) for i in range(0, len(targets), 4)]


class LaneTables:
    """A guide source's pair(x, y) for x, y < limit = 2**W and unpair(n) for n < 2**CAP, by table.

    pair places the bits of x on the guide's ones and those of y on its
    zeros, and padding zeros add nothing, so pair deposits each bit on a
    fixed position and unpair extracts it back: both are ORs, over the
    inputs' 4-bit lanes, of what each lane deposits or extracts. Lane k of
    a table holds that for each of the 16 values of lane k; an input is cut
    into lanes by its hex digits. This is the table method of Morton codes
    (Anderson, "Bit Twiddling Hacks": interleave bits by table lookup) for
    any guide. W counts the ones and the zeros below CAP, whichever are
    fewer. The entries of a table have disjoint bits, so their OR is their
    sum.

    Each call is charged the positions the source's merge or split would
    read, after the source's check of the fuel, so it fails as the source
    does, with the same error, and leaves the same fuel. The charges come
    in three lists, indexed by bit length, which lane_tables fills from the
    source's reach steps: what a merge reads for a k-bit x beside an empty
    y, and for a k-bit y beside an empty x, for k <= W (a merge reads on to
    the later of the two, so pair is charged the larger), and what a split
    of k bits reads, for k <= CAP. The tables keep no charge rule of their
    own. Nothing changes after construction.
    """

    __slots__ = ("limit", "_px", "_py", "_ux", "_uy", "_x_reads", "_y_reads", "_reads")

    def __init__(self, ones: list[int], zeros: list[int], *reads: list[int]):
        w = min(len(ones), len(zeros))
        self.limit = 1 << w
        self._px = _lanes([1 << p for p in ones[:w]])
        self._py = _lanes([1 << p for p in zeros[:w]])
        self._ux, self._uy = map(_lanes, extract_targets(ones, zeros))
        self._x_reads, self._y_reads, self._reads = reads

    def pair(self, x: int, y: int, fuel: streams.Fuel) -> int:
        """generic_pair(source, x, y, fuel) for ints 0 <= x, y < limit."""
        fuel.spend(max(self._x_reads[x.bit_length()], self._y_reads[y.bit_length()]))
        return (sum(map(getitem, self._px, ("%x" % x)[::-1].encode().translate(_HEX_DIGITS)))
                + sum(map(getitem, self._py, ("%x" % y)[::-1].encode().translate(_HEX_DIGITS))))

    def unpair(self, n: int, fuel: streams.Fuel) -> tuple[int, int]:
        """generic_unpair(source, n, fuel) for ints 0 <= n < 2**CAP."""
        fuel.spend(self._reads[n.bit_length()])
        lanes = ("%x" % n)[::-1].encode().translate(_HEX_DIGITS)
        return sum(map(getitem, self._ux, lanes)), sum(map(getitem, self._uy, lanes))


def lane_tables(source, budget: int) -> LaneTables | None:
    """The LaneTables of a guide source for calls with fuel of this budget, or None.

    They come from the layout of the positions below CAP, with fresh fuel
    of the budget. If it returns, no call of the source below the tables'
    limits can fail for want of fuel or guide: each reads no further than
    a split of CAP positions. If it raises anything, or the guide has no
    one or no zero below CAP, there are none, and the error is left to the
    calls that reach it.

    The charge lists come from the source's own reach steps,
    GuidePrefix._merge_reach and _split_reach, called at max(k, 1) bits for
    each bit length k: the bit form of 0 is one bit long, as is that of 1.
    The layout has read the runs through the one after position CAP, which
    hold every position those steps look at.
    """
    try:
        ones, zeros = source.layout(CAP, streams.Fuel(budget))
    except Exception:  # a call that reaches the failure raises it, as without tables
        return None
    if not (ones and zeros):
        return None
    runs, n = source._state[:2]  # they hold the run after position CAP
    bits = [max(k, 1) for k in range(CAP + 1)]  # the bit form of 0 is one bit long
    w = min(len(ones), len(zeros))
    return LaneTables(ones, zeros, [source._merge_reach(k, 0, runs, n)[0] for k in bits[:w + 1]],
                      [source._merge_reach(0, k, runs, n)[0] for k in bits[:w + 1]],
                      [source._split_reach(k, runs)[1] for k in bits])
