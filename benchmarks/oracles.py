"""Output oracles for the benchmark, written without any pairbij code.

Each guide is generated from its definition with plain integer arithmetic,
and placement and splitting walk that guide over bin() strings. The
benchmark computes every expected output here, before the timed loop, so a
check inside the loop is a plain equality test.
"""

from collections.abc import Iterator
from itertools import count
from math import isqrt


def bit_form(n: int) -> str:
    """Least-significant-first binary digits of n; '0' for zero."""
    return bin(n)[:1:-1] if n else "0"


def _syracuse_gap(i: int) -> int:
    """Rank among the odd numbers of the odd part of 6i + 4."""
    z = 6 * i + 4
    while z % 2 == 0:
        z //= 2
    return (z - 1) // 2


def guide(name: str) -> Iterator[int]:
    """The characteristic-function bits of a charpair preset, position 0 first."""
    if name == "morton":
        return (1 - p % 2 for p in count())
    if name.startswith("arith-set:"):
        k = int(name.split(":", 1)[1])
        return (1 if p % k == 0 else 0 for p in count())
    if name == "squares":
        return (1 if isqrt(p) ** 2 == p else 0 for p in count())
    if name == "powers2":
        return (1 if p > 0 and p & (p - 1) == 0 else 0 for p in count())
    if name == "syracuse":
        # A list element g becomes g zeros then a one.
        return (b for i in count() for b in [0] * _syracuse_gap(i) + [1])
    if name == "bits-of-naturals":
        return (int(c) for i in count() for c in bit_form(i))
    raise ValueError(f"no oracle guide for {name!r}")


def pair(name: str, x: int, y: int) -> tuple[int, int]:
    """(paired value, guide positions pulled) under a preset's guide."""
    xs, ys = bit_form(x), bit_form(y)
    ix = iy = 0
    out = []
    g = guide(name)
    while ix < len(xs) or iy < len(ys):
        if next(g):
            out.append(xs[ix] if ix < len(xs) else "0")
            ix += 1
        else:
            out.append(ys[iy] if iy < len(ys) else "0")
            iy += 1
    return int("".join(reversed(out)), 2), len(out)


def unpair(name: str, n: int) -> tuple[int, int, int]:
    """(x, y, guide positions pulled): each side ends at its first bit past n."""
    payload = bit_form(n)
    sides = ([], [])
    open_sides = [True, True]
    for pos, bit in enumerate(guide(name)):
        side = 1 - bit
        if pos < len(payload):
            sides[side].append(payload[pos])
        elif open_sides[side]:
            open_sides[side] = False
            if not any(open_sides):
                x, y = (int("".join(reversed(s)) or "0", 2) for s in sides)
                return x, y, pos + 1
    raise AssertionError("unreachable: oracle guides are infinite")


def interleave(x: int, y: int) -> int:
    """Morton order by shift and mask: bit i of x to 2i, bit i of y to 2i + 1."""
    out = 0
    shift = 0
    while x or y:
        out |= (x & 1) << shift | (y & 1) << (shift + 1)
        x >>= 1
        y >>= 1
        shift += 2
    return out


def deinterleave(n: int) -> tuple[int, int]:
    """Inverse of interleave: even bits to x, odd bits to y."""
    x = y = 0
    i = 0
    while n:
        x |= (n & 1) << i
        y |= (n >> 1 & 1) << i
        n >>= 2
        i += 1
    return x, y


def nadic_pair(b: int, x: int, y: int) -> int:
    """b**x times the y-th positive non-multiple of b, minus one."""
    return b**x * (y + y // (b - 1) + 1) - 1


def nadic_unpair(b: int, n: int) -> tuple[int, int]:
    """Valuation and unit rank of n + 1, by repeated division."""
    z = n + 1
    x = 0
    while z % b == 0:
        z //= b
        x += 1
    return x, z - z // b - 1


def cantor_rows(count_: int) -> Iterator[tuple[int, int, int]]:
    """(n, x, y) of the diagonal pairing for n = 0..count_, walking the diagonals."""
    x = y = 0
    for n in range(count_ + 1):
        yield n, x, y
        if x == 0:
            x, y = y + 1, 0
        else:
            x, y = x - 1, y + 1


def curve_rows(spec: str, count_: int) -> list[tuple[int, int, int]]:
    """The rows `pairbij curve <spec> <count_>` must print, n = 0..count_."""
    if spec == "cantor":
        return list(cantor_rows(count_))
    if spec.startswith("nadic:"):
        b = int(spec.split(":", 1)[1])
        return [(n, *nadic_unpair(b, n)) for n in range(count_ + 1)]
    if spec == "morton":
        return [(n, *deinterleave(n)) for n in range(count_ + 1)]
    return [(n, *unpair(spec, n)[:2]) for n in range(count_ + 1)]


def curve_csv(rows: list[tuple[int, int, int]]) -> str:
    return "".join(["n,x,y\n"] + [f"{n},{x},{y}\n" for n, x, y in rows])
