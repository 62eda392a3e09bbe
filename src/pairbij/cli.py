"""Command-line surface: pair, unpair, encode, permute, curve, selftest.

Exit codes: 0 on success, 1 when selftest finds an invariant violation,
2 on usage, input, or fuel errors.
"""

import argparse
import functools
import os
import sys
from collections.abc import Iterator
from itertools import chain

from . import charpair, encoders, nadic, streams
from .errors import FuelExhausted, PairbijError

FUEL_ENV = "PAIRBIJ_FUEL"

# Commands reach the library's spec parser through this name, so a tracer can
# wrap it in one place.
parse_family = charpair.family


def _parse_literal(text: str):
    text = text.strip()
    if text.startswith("["):
        if not text.endswith("]"):
            raise PairbijError(f"unterminated list literal: {text!r}")
        inner = text[1:-1].strip()
        if not inner:
            return []
        return [charpair.parse_nat(tok.strip(), "list element") for tok in inner.split(",")]
    return charpair.parse_nat(text, "value")


def _decimal(n: int) -> str:
    try:
        return str(n)
    except ValueError:  # more digits than sys.get_int_max_str_digits() allows
        raise PairbijError(f"result of {n.bit_length()} bits has more than the limit of"
                           f" {sys.get_int_max_str_digits()} decimal digits") from None


def _format_value(v) -> str:
    if isinstance(v, int):
        return _decimal(v)
    return "[" + ",".join(map(_decimal, v)) + "]"


def _cmd_pair(args) -> int:
    fam = parse_family(args.family, args.fuel_budget)
    x = charpair.parse_nat(args.x, "x")
    y = charpair.parse_nat(args.y, "y")
    print(_decimal(fam.pair(x, y)))
    return 0


def _cmd_unpair(args) -> int:
    fam = parse_family(args.family, args.fuel_budget)
    n = charpair.parse_nat(args.n, "n")
    x, y = fam.unpair(n)
    print(_decimal(x), _decimal(y))
    return 0


def _cmd_encode(args) -> int:
    source = encoders.by_name(args.source)
    target = encoders.by_name(args.target)
    value = _parse_literal(args.value)
    takes_int = source.name not in encoders.SEQUENCE_ENCODERS
    if takes_int != isinstance(value, int):
        kind = "a natural number" if takes_int else "a [..] list literal"
        raise PairbijError(f"encoder {source.name!r} expects {kind}")
    result = encoders.as_(target, source, value)
    if not isinstance(result, int):
        result = list(result)
    print(_format_value(result))
    return 0


def _cmd_permute(args) -> int:
    nadic.decons(args.k, 1)
    nadic.decons(args.l, 1)
    for n in range(charpair.parse_nat(args.upto, "upto") + 1):
        print(f"{n} {nadic.bij(args.k, args.l, n)}")
    return 0


def _unpair_at(fam: charpair.PairingFamily, n: int) -> tuple[int, int]:
    try:
        return fam.unpair(n)
    except FuelExhausted as e:
        raise PairbijError(f"unpair diverged at n={n}: {e}") from None
    except PairbijError as e:
        raise PairbijError(f"unpair failed at n={n}: {e}") from None


def _unpair_columns(fam: charpair.PairingFamily, lo: int, hi: int) -> tuple:
    """The unpair of every n in [lo, hi), as columns (xs, ys)."""
    ns = range(lo, hi)
    try:
        rows = list(map(fam.unpair, ns))
    except PairbijError:
        rows = [_unpair_at(fam, n) for n in ns]
    xs, ys = zip(*rows)
    return xs, ys


# Rows per block of the walk, 2**12: enough that a block's fixed cost is small
# per row, few enough that its text stays small.
_BLOCK_BITS = 12


def _curve_blocks(fam: charpair.PairingFamily, count: int) -> Iterator[tuple]:
    """The path of n = 0..count as blocks (ns, values, tables) of up to 2**12 rows.

    ns is the block's range of n. A family with no guide gives the columns
    (xs, ys) of its rows in values and None in tables: from the family's
    columns when it has them, else from unpair at every n, the reference
    they are tested against.

    A guide family unpairs n by sending bit i of n, XOR the mask of its
    ,xor: twists, to x or to y as guide position i says, a map linear over
    XOR: x(n) = x(0) ^ X(n), where X(n) gathers the bits of n on the guide's
    ones, and the same for y. Its blocks start at multiples of 2**12, and
    row ns[t] has x = xs[tx[t]] and y = ys[ty[t]] for (xs, ys) = values and
    (tx, ty) = tables. tx[t] = X(t) and ty[t] = Y(t) serve every block; xs
    and ys list the block's distinct x and y, the unpair of its first n XOR
    each table value: at most 2**c and 2**(12 - c) of them, where c counts
    the ones among the first 12 guide positions.

    One split of the positions 0..L-1, L = count.bit_length(), gives the
    tables: it routes position i to the ones or to the zeros as unpair
    routes bit i. It also reads the guide and spends the fuel of an unpair
    whose n ^ mask has L bits, and the n <= count whose n ^ mask is longest
    is 0 or 2**(L-1). So once unpair(0) has run, the split fails exactly
    when unpair fails at some n <= count; then unpair runs at each power of
    two below 2**L, so that the error names the first n where it fails.
    """
    block = 1 << _BLOCK_BITS
    spans = (range(lo, min(lo + block, count + 1)) for lo in range(0, count + 1, block))
    guide = fam.guide
    if guide is None:
        columns = fam.columns or functools.partial(_unpair_columns, fam)
        for ns in spans:
            yield ns, columns(ns.start, ns.stop), None
        return
    x, y = _unpair_at(fam, 0)
    length = count.bit_length()
    try:
        ones, zeros = guide.split(list(range(length)), streams.Fuel(guide.budget))
    except PairbijError:
        for w in range(length):
            _unpair_at(fam, 1 << w)
        raise
    width = min(length, _BLOCK_BITS)
    tx, ty = [0], [0]
    for i in range(width):
        if i in ones:
            bit = 1 << ones.index(i)
            tx += [v | bit for v in tx]
            ty += ty
        else:
            bit = 1 << zeros.index(i)
            tx += tx
            ty += [v | bit for v in ty]
    cx = sum(i < width for i in ones)
    cy = width - cx
    for ns in spans:
        if ns.start:  # unpair fails at no n up to count, as the split showed
            x, y = fam.unpair(ns.start)
        yield ns, ([x ^ v for v in range(1 << cx)], [y ^ v for v in range(1 << cy)]), (tx, ty)


def _curve_points(fam: charpair.PairingFamily, count: int) -> Iterator[tuple[int, int, int]]:
    """The points (n, x, y) of fam's unpairing path, n = 0..count, from its blocks."""
    for ns, values, tables in _curve_blocks(fam, count):
        if tables is None:
            yield from zip(ns, *values)
        else:
            (xs, ys), (tx, ty) = values, tables
            yield from zip(ns, map(xs.__getitem__, tx), map(ys.__getitem__, ty))


def _render_csv(blocks) -> list[str]:
    """The CSV text of the walk's blocks, a piece a block: memory follows the text, not the points.

    A block of columns is formatted with one %; a guide family's block
    formats each of its distinct x and y once.
    """
    pieces = ["n,x,y\n"]
    for ns, values, tables in blocks:
        if tables is None:
            piece = ("%d,%d,%d\n" * len(ns)) % tuple(chain.from_iterable(zip(ns, *values)))
        else:
            sx = [f",{x}" for x in values[0]]
            sy = [f",{y}\n" for y in values[1]]
            piece = "".join([f"{n}{sx[i]}{sy[j]}" for n, i, j in zip(ns, *tables)])
        pieces.append(piece)
    return pieces


def _render_svg(points) -> str:
    points = list(points)  # the scale needs the largest coordinate first
    span = max(max(x for _, x, _ in points), max(y for _, _, y in points), 1)
    # int / int is correctly rounded and never overflows, as x * (980 / span) can.
    coords = " ".join(f"{10 + x * 980 / span:.2f},{10 + y * 980 / span:.2f}"
                      for _, x, y in points)
    return (
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 1000 1000">\n'
        f'  <polyline fill="none" stroke="black" stroke-width="1" points="{coords}"/>\n'
        "</svg>\n"
    )


def _cmd_curve(args) -> int:
    fam = parse_family(args.family, args.fuel_budget)
    count = charpair.parse_nat(args.count, "count")
    # The walk runs while rendering; writing starts only once it has finished,
    # so a curve that fails part way writes nothing.
    if args.format == "csv":
        pieces = _render_csv(_curve_blocks(fam, count))
    else:
        pieces = [_render_svg(_curve_points(fam, count))]
    if args.out:
        try:
            with open(args.out, "w") as f:
                f.writelines(pieces)
        except OSError as e:
            raise PairbijError(f"cannot write {args.out}: {e.strerror or e}") from None
    else:
        sys.stdout.writelines(pieces)
    return 0


def _cmd_selftest(args) -> int:
    from . import invariants  # imported here so that no other command pays for it

    rng = charpair.parse_nat(args.range, "range")
    failures = 0
    for name, check in invariants.SELFTESTS:
        try:
            found = check(rng)
        except PairbijError as e:
            found = [str(e)]
        if found:
            failures += 1
            print(f"FAIL {name}: {'; '.join(found)}")
        else:
            print(f"PASS {name}")
    return 1 if failures else 0


# -- entry point ----------------------------------------------------------------------

@functools.cache  # built once per process; parse_args leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pairbij",
        description="Pairing bijections N^2 <-> N, invertible encoders, and curve export.",
    )
    parser.add_argument(
        "--fuel", type=int, default=None,
        help=f"stream pulls allowed per operation (default {streams.DEFAULT_FUEL}, "
             f"or the {FUEL_ENV} environment variable)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pair", help="pair two naturals under a family")
    p.add_argument("family")
    p.add_argument("x")
    p.add_argument("y")
    p.set_defaults(handler=_cmd_pair)

    p = sub.add_parser("unpair", help="unpair a natural under a family")
    p.add_argument("family")
    p.add_argument("n")
    p.set_defaults(handler=_cmd_unpair)

    p = sub.add_parser("encode", help="route a value between encoders")
    p.add_argument("--from", dest="source", required=True, metavar="ENCODER")
    p.add_argument("--to", dest="target", required=True, metavar="ENCODER")
    p.add_argument("value")
    p.set_defaults(handler=_cmd_encode)

    p = sub.add_parser("permute", help="print the base-change permutation table")
    p.add_argument("k", type=int)
    p.add_argument("l", type=int)
    p.add_argument("upto")
    p.set_defaults(handler=_cmd_permute)

    p = sub.add_parser("curve", help="export the unpairing path of 0..count")
    p.add_argument("family")
    p.add_argument("count")
    p.add_argument("format", choices=("csv", "svg"))
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    p.set_defaults(handler=_cmd_curve)

    p = sub.add_parser("selftest", help="run the invariant suites")
    p.add_argument("--range", default="1000", help="sample range for the sweeps")
    p.set_defaults(handler=_cmd_selftest)

    return parser


def _resolve_fuel(args) -> int:
    budget = args.fuel
    if budget is None:
        env = os.environ.get(FUEL_ENV)
        if env is not None:
            try:
                budget = int(env)
            except ValueError:
                raise PairbijError(f"{FUEL_ENV} must be an integer, got {env!r}") from None
        else:
            budget = streams.DEFAULT_FUEL
    if budget <= 0:
        raise PairbijError(f"fuel budget must be positive, got {budget}")
    return budget


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2
    try:
        args.fuel_budget = _resolve_fuel(args)
        return args.handler(args)
    except PairbijError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
