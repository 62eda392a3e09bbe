"""Restartable, possibly infinite sequences of naturals, with fuel-bounded pulling.

A Stream is an immutable *description*: every iteration instantiates a fresh
generator and replays the sequence from the start. That stands in for lazy
lists in a strict language, so descriptions must be cheap to restart and safe
to share. Where the paper evaluates a guide's lazy list once and shares it, a
pairing family keeps a guide.GuidePrefix (a guide.PeriodicGuide when the
guide repeats), which reads its seed once; only generic_pair/generic_unpair
given a plain SeedSpec re-traverse it per call.
"""

import itertools
import sys
from collections.abc import Callable, Iterable, Iterator

from .errors import EmptyCycle, FuelExhausted, ZeroStep

DEFAULT_FUEL = 1_000_000


class Fuel:
    """A budget of stream pulls for one top-level operation.

    Exhaustion raises FuelExhausted rather than truncating: a divergent
    computation must fail loudly, never return a shortened answer.
    """

    def __init__(self, budget: int = DEFAULT_FUEL, label: str = ""):
        if budget <= 0:
            raise ValueError(f"fuel budget must be positive, got {budget}")
        self.budget = budget
        self.remaining = budget
        self.label = label

    def tick(self, count: int = 1) -> None:
        """Spend count pulls; FuelExhausted once more are spent than the budget holds."""
        if count < 0:
            raise ValueError(f"cannot spend {count} pulls of fuel")
        self.remaining -= count
        if self.remaining < 0:
            where = f" while evaluating {self.label}" if self.label else ""
            raise FuelExhausted(
                f"no progress after {self.budget} stream pulls{where}",
                budget=self.budget, label=self.label,
            )

    def read_limit(self) -> int:
        """The positions a guide reader may read: what the fuel can pay for,
        plus the one pull past it, which spend charges and tick refuses."""
        return min(max(self.remaining, 0), sys.maxsize - 1) + 1

    def spend(self, read: int) -> None:
        """Tick the `read` positions a reader read, or, if fewer, one past what
        the fuel has left: the pull that metering each pull would refuse."""
        if 0 <= read <= self.remaining:  # what tick does when it cannot fail
            self.remaining -= read
        else:
            self.tick(min(read, max(self.remaining, 0) + 1))

    def meter(self, xs: Iterable[int]) -> Iterator[int]:
        """Yield from xs, spending one unit of fuel per element."""
        for x in xs:
            self.tick()
            yield x


class Stream:
    """Description of a (possibly infinite) sequence of naturals.

    _shape records how cycle and arith built the stream, ("cycle", t) or
    ("arith", start, step), so that guide.periodic_pattern can see a period
    without pulling; only those two set it, and it is None for any other
    stream.
    """

    __slots__ = ("_make_iter", "_shape")

    def __init__(self, make_iter: Callable[[], Iterator[int]]):
        self._make_iter = make_iter
        self._shape = None

    def __iter__(self) -> Iterator[int]:
        return self._make_iter()


def from_list(xs: Iterable[int]) -> Stream:
    """A finite stream yielding exactly the elements of xs, in order."""
    frozen = tuple(xs)
    return Stream(lambda: iter(frozen))


def cycle(xs: Iterable[int]) -> Stream:
    """The infinite repetition of a nonempty finite list."""
    frozen = tuple(xs)
    if not frozen:
        raise EmptyCycle("cannot cycle an empty list")
    s = Stream(lambda: itertools.cycle(frozen))
    s._shape = ("cycle", frozen)
    return s


def arith(start: int, step: int) -> Stream:
    """The infinite arithmetic progression start, start+step, start+2*step, ..."""
    if step < 1:
        raise ZeroStep(f"arithmetic stream needs step >= 1, got {step}")
    s = Stream(lambda: itertools.count(start, step))
    s._shape = ("arith", start, step)
    return s


def smap(f: Callable[[int], int], s: Iterable[int]) -> Stream:
    """Apply f element-wise, lazily; pulling n results pulls s exactly n times."""
    return Stream(lambda: map(f, s))


def take(s: Iterable[int], n: int) -> list[int]:
    """The first min(n, length) elements as a list."""
    if n < 0:
        raise ValueError(f"cannot take {n} elements")
    return list(itertools.islice(iter(s), n))
