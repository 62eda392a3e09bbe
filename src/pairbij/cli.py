"""Command-line surface: pair, unpair, encode, permute, curve, selftest.

Exit codes: 0 on success, 1 when selftest finds an invariant violation,
2 on usage, input, or fuel errors.
"""

import argparse
import functools
import os
import sys
from collections.abc import Iterator
from itertools import islice

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


def _curve_points(fam: charpair.PairingFamily, count: int) -> Iterator[tuple[int, int, int]]:
    """The points (n, x, y) of fam's unpairing path, n = 0..count, one at a time.

    A family with a guide unpairs by sending bit i of n ^ mask to x or to y
    as guide position i says. Going from n-1 to n flips the low
    w = (n ^ (n-1)).bit_length() bits of n ^ mask, so it flips the low c1
    bits of x and the low w - c1 bits of y, where c1 counts the ones among
    the first w guide positions. What an unpair call reads and the fuel it
    spends depend only on the bit length of n ^ mask, so fam.unpair runs at
    n = 0 and wherever that length grows past every length before it: the
    only points at which it can fail. Other families call unpair at every n.
    """
    guide = fam.guide
    if guide is None:
        for n in range(count + 1):
            yield (n, *_unpair_at(fam, n))
        return
    mask = fam.mask
    x, y = _unpair_at(fam, 0)
    yield (0, x, y)
    longest = mask.bit_length()
    # flips[w]: what the carry over the low w bits of n XORs into x and into y.
    # One of n-1 and n reaches w bits after the mask, so w <= longest.
    flips: list[tuple[int, int]] = []
    for n in range(1, count + 1):
        length = (n ^ mask).bit_length()
        if length > longest:
            longest = length
            x, y = _unpair_at(fam, n)
        else:
            w = (n ^ (n - 1)).bit_length()
            while len(flips) <= w:
                c1 = guide.ones_before(len(flips))
                flips.append(((1 << c1) - 1, (1 << (len(flips) - c1)) - 1))
            fx, fy = flips[w]
            x ^= fx
            y ^= fy
        yield (n, x, y)


# Rows joined into one piece of CSV text: enough that joining costs little per
# row, few enough that a piece stays small.
_CSV_CHUNK_ROWS = 4096


def _render_csv(points) -> list[str]:
    """The CSV text of points, in pieces, so that a lazy walk is never held whole."""
    rows = (f"{n},{x},{y}\n" for n, x, y in points)
    pieces = ["n,x,y\n"]
    while piece := "".join(islice(rows, _CSV_CHUNK_ROWS)):
        pieces.append(piece)
    return pieces


def _render_svg(points) -> str:
    points = list(points)  # the scale needs the largest coordinate first
    span = max(max(x for _, x, _ in points), max(y for _, _, y in points), 1)
    scale = 980 / span
    coords = " ".join(f"{10 + x * scale:.2f},{10 + y * scale:.2f}" for _, x, y in points)
    return (
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 1000 1000">\n'
        f'  <polyline fill="none" stroke="black" stroke-width="1" points="{coords}"/>\n'
        "</svg>\n"
    )


def _cmd_curve(args) -> int:
    fam = parse_family(args.family, args.fuel_budget)
    points = _curve_points(fam, charpair.parse_nat(args.count, "count"))
    # The walk runs while rendering; writing starts only once it has finished,
    # so a curve that fails part way writes nothing.
    pieces = _render_csv(points) if args.format == "csv" else [_render_svg(points)]
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
