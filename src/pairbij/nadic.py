"""Pairing bijections built from base-b valuations, one family member per base b >= 2.

Every positive natural z factors uniquely as b**x * y with b not dividing y,
and the y values (the positive naturals coprime-in-exponent to b) are counted
off bijectively by y' = y - y//b - 1. That turns (x, y') <-> z into a bijection
between N x N and the positive naturals; subtracting one lands it on N itself.
All arithmetic is exact and unbounded -- a change in the first component scales
the result exponentially, so results grow huge by design.
"""

import sys
from collections.abc import Iterable
from itertools import islice
from operator import index

from .errors import InvalidBase, NotAnInteger, PairbijError, ZeroArgument


def check_base(b: int) -> None:
    if b < 2:
        raise InvalidBase(f"valuation base must be >= 2, got {b}")


def base(b) -> int:
    """b as an int, through operator.index, checked as a valuation base.

    A b that is not an integer raises InvalidBase naming it, as one below 2
    does. The cold entries take their base here once; cons and decons,
    which run per element, only compare it.
    """
    try:
        i = index(b)
    except TypeError:
        raise InvalidBase(f"valuation base must be an integer, got {b!r}") from None
    check_base(i)
    return i


def natural(op: str, n) -> int:
    """n as an int, through operator.index, for a call of op defined on naturals.

    An n that is not an integer (a float, say) or is negative raises
    ZeroArgument naming op and n; a bool is 0 or 1.
    """
    try:
        i = index(n)
    except TypeError:
        i = -1
    if i < 0:
        raise ZeroArgument(f"{op} is defined on naturals, got {n!r}")
    return i


def integer(what: str, n) -> int:
    """n as an int, through operator.index; ZeroArgument naming what when n is not an integer."""
    try:
        return index(n)
    except TypeError:
        raise ZeroArgument(f"{what} must be an integer, got {n!r}") from None


def naturals(op: str, x, y) -> tuple[int, int]:
    """x and y as ints, as natural gives them, naming both when either is refused."""
    try:
        i, j = index(x), index(y)
    except TypeError:
        i = j = -1
    if i < 0 or j < 0:
        raise ZeroArgument(f"{op} is defined on naturals, got x={x!r}, y={y!r}")
    return i, j


def _too_large(b: int, x: int) -> PairbijError:
    return PairbijError(f"{b}**{x} has more than sys.maxsize bits, more than any int can hold")


def _not_an_int(x, y: int) -> NotAnInteger:
    """The error of a fold whose next element x, to cons onto y, is not an int."""
    return NotAnInteger(f"cons is defined on naturals, got x={x!r}, y={y}")


def cons(b: int, x: int, y: int) -> int:
    """Pack (x, y) into a positive natural: b**x times the y-th non-multiple of b."""
    check_base(b)
    if x < 0 or y < 0:
        raise ZeroArgument(f"cons is defined on naturals, got x={x}, y={y}")
    if b == 2:  # the y-th odd number, shifted: no power, no multiply
        try:
            return (2 * y + 1) << x
        except OverflowError:  # x past sys.maxsize
            raise _too_large(b, x) from None
    if x * (b.bit_length() - 1) > sys.maxsize:  # b**x would have more bits than that
        raise _too_large(b, x)
    q = y // (b - 1)
    return b**x * (y + q + 1)


def decons(b: int, z: int) -> tuple[int, int]:
    """Invert cons: the base-b valuation of z and the rank of its unit part.

    For b = 2 this is one pass over z. For any other base it divides out one
    factor of b per step with a single divmod, whose last quotient also gives
    the rank, so a call makes valuation + 1 divisions of z: still the
    valuation times the size of z.
    """
    check_base(b)
    if z <= 0:
        raise ZeroArgument(f"decons is defined on positive naturals, got {z}")
    if b == 2:
        # The 2-adic valuation is the index of the lowest set bit: one pass over
        # z instead of one division per factor. Odd z, the common case, skips z & -z.
        if z & 1:
            return 0, z >> 1
        x = (z & -z).bit_length() - 1
        return x, z >> (x + 1)
    x = 0
    q, r = divmod(z, b)
    while r == 0:
        z = q
        x += 1
        q, r = divmod(z, b)
    return x, z - q - 1


def head(b: int, z: int) -> int:
    """The base-b valuation of z: the largest k with b**k dividing z."""
    return decons(b, z)[0]


def tail(b: int, z: int) -> int:
    """The second decons component: what z encodes beyond its valuation."""
    return decons(b, z)[1]


def pair(b: int, x: int, y: int) -> int:
    """The pairing bijection N x N -> N for base b."""
    if type(x) is not int or type(y) is not int:  # cons refuses a negative int itself
        x, y = naturals("pair", x, y)
    return cons(b, x, y) - 1


def unpair(b: int, n: int) -> tuple[int, int]:
    """Inverse of pair."""
    if type(n) is not int or n < 0:
        n = natural("unpair", n)
    return decons(b, n + 1)


def unpair_columns(b: int, lo: int, hi: int) -> tuple[list[int], list[int]]:
    """The unpair(b, n) of every n in [lo, hi), as a column of x and a column of y.

    The rows of z = n + 1 = b**k * u with b not dividing u have x = k and
    y = u - u // b - 1. At level k, the rows whose u share a residue mod b
    sit every b**(k+1) rows, y rising by b - 1, and the rows whose u run
    from a multiple of b up to the next sit every b**k rows, y rising by 1;
    the level fills y with whichever needs fewer extended slices, and x with
    k. A multiple of b**(k+1) is left to the levels above, which rewrite it;
    once b**k passes the block's length, decons answers any row left.
    """
    b = base(b)
    lo, hi = natural("unpair", lo), integer("the end of a block", hi)
    z0, size = lo + 1, max(hi - lo, 0)
    xs, ys = [0] * size, [0] * size
    k, step = 0, 1
    while step <= size:
        first, last = -(-z0 // step), (z0 + size - 1) // step  # the level's u
        if k:
            xs[first * step - z0::step] = [k] * (last - first + 1)
        stride = step * b
        if min(b, last - first + 1) <= last // b - first // b + 1:  # residues <= runs
            for u in range(first, min(first + b, last + 1)):
                if u % b:
                    i, y = u * step - z0, u - u // b - 1
                    ys[i::stride] = range(y, y + (b - 1) * len(range(i, size, stride)), b - 1)
        else:
            for m in range(first // b, last // b + 1):
                u, v = max(m * b, first), min(m * b + b - 1, last)
                ys[u * step - z0:v * step - z0 + 1:step] = range(u - m - 1, v - m)
        k, step = k + 1, stride
    i = -(-z0 // step) * step - z0
    if i < size:
        xs[i], ys[i] = decons(b, z0 + i)
    return xs, ys


def nat_to_nats(b: int, n: int) -> list[int]:
    """Expand a natural into the finite list of valuations peeled off by decons."""
    b = base(b)
    n = natural("nat_to_nats", n)
    out = []
    while n > 0:
        x, n = decons(b, n)  # tail strictly decreases, so this terminates
        out.append(x)
    return out


def nats_to_nat(b: int, xs: Iterable[int]) -> int:
    """Fold a finite list back into a natural; inverse of nat_to_nats.

    For b = 2 the fold inlines cons as one shift per element. A negative
    element raises ZeroArgument as cons does, and one that is not an int
    NotAnInteger, with y the value folded so far.
    """
    b = base(b)
    n = 0
    vals = reversed(list(xs))  # outside the try below, whose TypeError is an element's
    if b == 2:
        try:
            for x in vals:
                if x < 0:
                    raise ZeroArgument(f"cons is defined on naturals, got x={x}, y={n}")
                n = (2 * n + 1) << x
        except OverflowError:  # x past sys.maxsize
            raise _too_large(b, x) from None
        except TypeError:  # x is no int, as the shift or the comparison found
            raise _not_an_int(x, n) from None
        return n
    for x in vals:
        if not isinstance(x, int):
            raise _not_an_int(x, n)
        n = cons(b, x, n)
    return n


def bij(k: int, l: int, n: int) -> int:
    """A permutation of N: expand in base k, rebuild in base l.

    Composing bij(k, l, .) with bij(l, k, .) gives the identity.
    """
    return nats_to_nat(l, nat_to_nats(k, n))


def nat_to_nats_mixed(bases: Iterable[int], n: int) -> list[int]:
    """Like nat_to_nats, but each recursion level draws a fresh base from a stream.

    Consumes exactly one base per output element.
    """
    n = natural("nat_to_nats_mixed", n)
    out = []
    bs = iter(bases)
    while n > 0:
        try:
            b = next(bs)
        except StopIteration:
            raise InvalidBase("base stream ended before the expansion finished") from None
        x, n = decons(base(b), n)
        out.append(x)
    return out


def nats_to_nat_mixed(bases: Iterable[int], xs: Iterable[int]) -> int:
    """Inverse of nat_to_nats_mixed against the same base stream."""
    vals = list(xs)
    bs = list(islice(bases, len(vals)))
    if len(bs) < len(vals):
        raise InvalidBase("base stream ended before the fold finished")
    n = 0
    for b, x in zip(reversed(bs), reversed(vals)):
        if not isinstance(x, int):
            raise _not_an_int(x, n)
        n = cons(base(b), x, n)
    return n
