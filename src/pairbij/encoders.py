"""A groupoid of invertible transforms routed through a hub of natural-number sequences.

Rather than writing a converter for every pair of representations, each
representation gets one Encoder to and from the hub; as_() chains any two.
All sequence conversions are written generator-to-generator so the same code
path serves finite lists and infinite streams.
"""

import sys
from collections.abc import Callable, Iterable, Iterator
from itertools import accumulate, chain, repeat

from . import nadic, streams
from .errors import (
    InvalidBit,
    NotNonDecreasing,
    NotStrictlyIncreasing,
    UnknownEncoder,
    ZeroArgument,
)


class Iso:
    """A bijection packaged with its inverse."""

    __slots__ = ("forward", "backward")

    def __init__(self, forward: Callable, backward: Callable):
        self.forward = forward
        self.backward = backward


def compose(f: Iso, g: Iso) -> Iso:
    """Chain two isomorphisms: forward runs f then g, backward runs g then f."""
    return Iso(
        lambda x: g.forward(f.forward(x)),
        lambda y: f.backward(g.backward(y)),
    )


def invert(f: Iso) -> Iso:
    """Swap the two directions; involutive."""
    return Iso(f.backward, f.forward)


identity = Iso(lambda x: x, lambda x: x)


class Encoder(Iso):
    """An Iso whose far side is the hub, carrying a name the CLI can select."""

    __slots__ = ("name",)

    def __init__(self, name: str, forward: Callable, backward: Callable):
        super().__init__(forward, backward)
        self.name = name

    def __repr__(self) -> str:
        return f"Encoder({self.name!r})"


def as_(target: Encoder, source: Encoder, x):
    """Route x from the source representation to the target, through the hub."""
    return target.backward(source.forward(x))


# -- hub <-> multisets and sets ------------------------------------------------

def _natural(n: int) -> int:
    if n < 0:
        raise ZeroArgument(f"hub lists hold naturals, got {n}")
    return n


def list_to_mset(ns: Iterable[int]) -> Iterator[int]:
    """Prefix sums: hub list -> non-decreasing multiset."""
    return accumulate(map(_natural, ns))


def mset_to_list(xs: Iterable[int]) -> Iterator[int]:
    """Consecutive differences: non-decreasing multiset -> hub list."""
    prev = 0
    for x in xs:
        if x < prev:
            raise NotNonDecreasing(f"multiset must be non-decreasing, saw {x} after {prev}")
        yield x - prev
        prev = x


def list_to_set(ns: Iterable[int]) -> Iterator[int]:
    """Shifted prefix sums: hub list -> strictly increasing set."""
    total = -1
    for n in ns:
        total += _natural(n) + 1
        yield total


def set_to_list(xs: Iterable[int]) -> Iterator[int]:
    """Gaps between members: strictly increasing set -> hub list."""
    prev = -1
    for x in xs:
        if x <= prev:
            raise NotStrictlyIncreasing(f"set must be strictly increasing, saw {x} after {prev}")
        yield x - prev - 1
        prev = x


# -- hub <-> characteristic-function bit sequences ------------------------------

class _Runs(dict):
    """Hub element n -> its run of bits, n zeros then a one.

    Short runs are kept as tuples; a longer one is built when it is looked
    up and not kept, which is also where a negative element is refused. No
    guide reader reads past fuel's read limit, at most sys.maxsize
    positions, so a gap longer than that is endless zeros.
    """

    def __missing__(self, n: int) -> Iterable[int]:
        return chain(repeat(0, _natural(n)) if n <= sys.maxsize else repeat(0), (1,))


_RUNS = _Runs((n, (0,) * n + (1,)) for n in range(32))


def _first_or_zero(runs: Iterator[Iterable[int]]) -> Iterator[Iterable[int]]:
    yield next(runs, (0,))


def list_to_bins(ns: Iterable[int]) -> Iterator[int]:
    """Each element n contributes n zeros then a one; the empty list becomes [0].

    The [0] base case is load-bearing: it is the bit form of the natural 0,
    and the generic pairing construction relies on it. Bits come a run per
    element, and nothing is pulled from ns before the first bit is asked for.
    """
    runs = map(_RUNS.__getitem__, ns)
    return chain.from_iterable(chain(_first_or_zero(runs), runs))


def bins_to_list(bs: Iterable[int]) -> Iterator[int]:
    """Count the zeros before each one; zeros after the last one are padding.

    Bits are read one at a time, so a bit other than 0 or 1 fails where it
    stands.
    """
    gap = 0
    for bit in bs:
        if bit == 0:
            gap += 1
        elif bit == 1:
            yield gap
            gap = 0
        else:
            raise InvalidBit(f"bit sequence may only contain 0 and 1, got {bit!r}")


# -- the shipped encoders --------------------------------------------------------

LIST = Encoder("list", lambda ns: ns, lambda ns: ns)
MSET = Encoder("mset", mset_to_list, list_to_mset)
SET = Encoder("set", set_to_list, list_to_set)
BINS = Encoder("bins", bins_to_list, list_to_bins)


def nadic_nat(b: int) -> Encoder:
    """Naturals seen through the base-b expansion of the valuation family."""
    nadic.decons(b, 1)  # validates the base eagerly
    return Encoder(
        f"nadic:{b}",
        lambda n: nadic.nat_to_nats(b, n),
        lambda ns: nadic.nats_to_nat(b, ns),
    )


NAT = Encoder(
    "nat",
    lambda n: nadic.nat_to_nats(2, n),
    lambda ns: nadic.nats_to_nat(2, ns),
)

# One fresh base per expansion level, drawn from 2, 3, 4, ...; the stream is a
# restartable description so encode and decode both see identical bases.
NAT_PRIME = Encoder(
    "nat-prime",
    lambda n: nadic.nat_to_nats_mixed(streams.arith(2, 1), n),
    lambda ns: nadic.nats_to_nat_mixed(streams.arith(2, 1), ns),
)

_FIXED = {e.name: e for e in (LIST, MSET, SET, BINS, NAT, NAT_PRIME)}

# The encoders that read a sequence; nat, nat-prime and nadic:<b> read a natural.
SEQUENCE_ENCODERS = ("list", "mset", "set", "bins")


def by_name(name: str) -> Encoder:
    """Look up an encoder by its CLI name: list, mset, set, bins, nat, nadic:<b>, nat-prime."""
    if name in _FIXED:
        return _FIXED[name]
    if name.startswith("nadic:"):
        try:
            b = int(name.split(":", 1)[1])
        except ValueError:
            raise UnknownEncoder(f"bad base in encoder name {name!r}") from None
        return nadic_nat(b)
    raise UnknownEncoder(f"unknown encoder {name!r}")


def shipped_encoders() -> list[Encoder]:
    """The fixed encoders plus representative parameterized ones, for test sweeps."""
    return [LIST, MSET, SET, BINS, NAT, nadic_nat(3), nadic_nat(7), NAT_PRIME]
