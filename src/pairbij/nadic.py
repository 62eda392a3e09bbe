"""Pairing bijections built from base-b valuations, one family member per base b >= 2.

Every positive natural z factors uniquely as b**x * y with b not dividing y,
and the y values (the positive naturals coprime-in-exponent to b) are counted
off bijectively by y' = y - y//b - 1. That turns (x, y') <-> z into a bijection
between N x N and the positive naturals; subtracting one lands it on N itself.
All arithmetic is exact and unbounded -- a change in the first component scales
the result exponentially, so results grow huge by design.
"""

from collections.abc import Iterable
from itertools import islice

from .errors import InvalidBase, ZeroArgument


def _check_base(b: int) -> None:
    if b < 2:
        raise InvalidBase(f"valuation base must be >= 2, got {b}")


def cons(b: int, x: int, y: int) -> int:
    """Pack (x, y) into a positive natural: b**x times the y-th non-multiple of b."""
    _check_base(b)
    if x < 0 or y < 0:
        raise ZeroArgument(f"cons is defined on naturals, got x={x}, y={y}")
    q = y // (b - 1)
    return b**x * (y + q + 1)


def decons(b: int, z: int) -> tuple[int, int]:
    """Invert cons: the base-b valuation of z and the rank of its unit part.

    For b = 2 this is one pass over z. For any other base it divides out one
    factor of b per step with a single divmod, whose last quotient also gives
    the rank, so a call makes valuation + 1 divisions of z: still the
    valuation times the size of z.
    """
    _check_base(b)
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
    return cons(b, x, y) - 1


def unpair(b: int, n: int) -> tuple[int, int]:
    """Inverse of pair."""
    if n < 0:
        raise ZeroArgument(f"unpair is defined on naturals, got {n}")
    return decons(b, n + 1)


def unpair_columns(b: int, lo: int, hi: int) -> tuple[list[int], list[int]]:
    """The unpair(b, n) of every n in [lo, hi), as a column of x and a column of y.

    The rows of z = n + 1 = b**k * u with b not dividing u have x = k and
    y = u - u // b - 1. At level k, the rows whose u share a residue mod b
    sit every b**(k+1) rows, y rising by b - 1, and the rows whose u lie
    between two multiples of b sit every b**k rows, y rising by 1; the level
    fills y with whichever needs fewer extended slices. x takes k at every
    multiple of b**k, which the levels above overwrite. Once b**k passes the
    block's length, at most one row is left, and decons answers it.
    """
    _check_base(b)
    if lo < 0:
        raise ZeroArgument(f"unpair is defined on naturals, got {lo}")
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
                u, v = max(m * b + 1, first), min(m * b + b - 1, last)
                if u <= v:
                    ys[u * step - z0:v * step - z0 + 1:step] = range(u - m - 1, v - m)
        k, step = k + 1, stride
    i = -(-z0 // step) * step - z0
    if i < size:
        xs[i], ys[i] = decons(b, z0 + i)
    return xs, ys


def nat_to_nats(b: int, n: int) -> list[int]:
    """Expand a natural into the finite list of valuations peeled off by decons."""
    _check_base(b)
    if n < 0:
        raise ZeroArgument(f"nat_to_nats is defined on naturals, got {n}")
    out = []
    while n > 0:
        x, n = decons(b, n)  # tail strictly decreases, so this terminates
        out.append(x)
    return out


def nats_to_nat(b: int, xs: Iterable[int]) -> int:
    """Fold a finite list back into a natural; inverse of nat_to_nats."""
    _check_base(b)
    n = 0
    for x in reversed(list(xs)):
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
    if n < 0:
        raise ZeroArgument(f"nat_to_nats_mixed is defined on naturals, got {n}")
    out = []
    bs = iter(bases)
    while n > 0:
        try:
            b = next(bs)
        except StopIteration:
            raise InvalidBase("base stream ended before the expansion finished") from None
        x, n = decons(b, n)
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
        n = cons(b, x, n)
    return n
