"""The package's invariants, each defined once and parameterised by the sizes it sweeps.

Every check returns the list of failures it found, empty when the invariant
holds. The acceptance suite (tests/test_acceptance.py) runs the checks at
full size; `pairbij selftest --range R` runs SELFTESTS, at sizes capped by R.
"""

import random
from collections.abc import Callable, Iterable, Iterator
from dataclasses import replace
from functools import wraps
from itertools import islice, zip_longest

from . import charpair, cli, encoders, guide, nadic, streams
from .errors import FuelExhausted, PairbijError

MORTON_TABLE = [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (3, 0), (2, 1), (3, 1),
                (0, 2), (1, 2), (0, 3)]

# A broken law fails at thousands of inputs; reporting the first few is enough.
_MAX_FAILURES = 10


def interleave(x: int, y: int) -> int:
    """Independent bit-interleaving oracle: x on even positions, y on odd."""
    out = 0
    shift = 0
    while x or y:
        out |= (x & 1) << shift
        x >>= 1
        out |= (y & 1) << (shift + 1)
        y >>= 1
        shift += 2
    return out


def _sweep(check: Callable[..., Iterator[str]]) -> Callable[..., list[str]]:
    """Turn a generator of failure messages into a check returning the first few."""

    @wraps(check)
    def run(*sizes) -> list[str]:
        return list(islice(check(*sizes), _MAX_FAILURES))

    return run


def _failed(cases: Iterable[tuple[bool, str]]) -> list[str]:
    return [what for ok, what in cases if not ok]


# -- golden values ----------------------------------------------------------------------

def golden_nadic() -> list[str]:
    """Worked values of the valuation family, its list bijection and its permutations."""
    unpaired = [nadic.unpair(3, n) for n in range(8)]
    want23 = [0, 1, 3, 2, 9, 5, 6, 4, 27, 14, 15, 8, 18, 10, 12, 7, 81, 41, 42,
              22, 45, 23, 24, 13, 54, 28, 30, 16, 36, 19, 21, 11]
    want32 = [0, 1, 3, 2, 7, 5, 6, 15, 11, 4, 13, 31, 14, 23, 9, 10, 27, 63,
              12, 29, 47, 30, 19, 21, 22, 55, 127, 8, 25, 59, 26, 95]
    return _failed([
        (nadic.cons(3, 10, 20) == 1830519, "cons(3,10,20)"),
        (nadic.decons(3, 1830519) == (10, 20), "decons(3,1830519)"),
        (nadic.head(3, 1830519) == 10, "head(3,1830519)"),
        (nadic.tail(3, 1830519) == 20, "tail(3,1830519)"),
        (unpaired == [(0, 0), (0, 1), (1, 0), (0, 2), (0, 3), (1, 1), (0, 4), (0, 5)],
         "unpair(3,.) over [0..7]"),
        ([nadic.pair(3, x, y) for x, y in unpaired] == list(range(8)),
         "pair(3,.) inverts the unpair table"),
        (nadic.nat_to_nats(3, 2012) == [0, 2, 2, 0, 0, 0, 0], "nat_to_nats(3,2012)"),
        (nadic.nats_to_nat(3, [0, 2, 2, 0, 0, 0, 0]) == 2012, "nats_to_nat back to 2012"),
        ([nadic.bij(2, 3, n) for n in range(32)] == want23, "bij(2,3) table"),
        ([nadic.bij(3, 2, n) for n in range(32)] == want32, "bij(3,2) table"),
    ])


def golden_encoders() -> list[str]:
    """Worked values of the encoders routed through the hub."""
    evens20 = streams.take(streams.Stream(lambda: encoders.list_to_bins(streams.arith(0, 2))), 20)
    return _failed([
        (encoders.as_(encoders.nadic_nat(3), encoders.LIST, [2, 0, 1, 2]) == 873,
         "as nadic:3 list [2,0,1,2]"),
        (encoders.as_(encoders.nadic_nat(7), encoders.LIST, [2, 0, 1, 2]) == 27146,
         "as nadic:7 list [2,0,1,2]"),
        (encoders.as_(encoders.NAT, encoders.LIST, [2, 0, 1, 2]) == 300, "as nat list"),
        (list(encoders.as_(encoders.LIST, encoders.NAT, 300)) == [2, 0, 1, 2], "as list nat 300"),
        (encoders.as_(encoders.NAT_PRIME, encoders.LIST, [2, 0, 1, 2]) == 1644,
         "as nat-prime list [2,0,1,2]"),
        (list(encoders.as_(encoders.LIST, encoders.NAT_PRIME, 1644)) == [2, 0, 1, 2],
         "as list nat-prime 1644"),
        ([encoders.as_(encoders.NAT_PRIME, encoders.NAT, n) for n in range(16)]
         == [0, 1, 2, 3, 4, 7, 6, 5, 8, 19, 14, 15, 12, 13, 10, 9],
         "as nat-prime nat over [0..15]"),
        (list(encoders.list_to_bins([2, 0, 1, 2])) == [0, 0, 1, 1, 0, 1, 0, 0, 1],
         "list_to_bins [2,0,1,2]"),
        (list(encoders.bins_to_list([0, 0, 1, 1, 0, 1, 0, 0, 1])) == [2, 0, 1, 2],
         "bins_to_list back"),
        (evens20 == [1, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0],
         "20-bit prefix of the even-numbers seed"),
        (list(encoders.bins_to_list(evens20)) == [0, 2, 4, 6], "bins_to_list of the prefix"),
        (list(encoders.as_(encoders.BINS, encoders.SET, [0, 2, 4, 5, 7, 8, 9]))
         == [1, 0, 1, 0, 1, 1, 0, 1, 1, 1], "as bins set"),
        (list(encoders.as_(encoders.SET, encoders.BINS, [1, 0, 1, 0, 1, 1, 0, 1, 1, 1]))
         == [0, 2, 4, 5, 7, 8, 9], "as set bins back"),
    ])


def golden_morton() -> list[str]:
    """The alternating guide: bsplit/bmerge on it, and the Morton table it yields."""
    a, b = charpair.bsplit([0, 1, 0, 1, 0, 1], [10, 20, 30, 40, 50, 60])
    sa, sb = list(a), list(b)
    morton = charpair.family("morton")
    got = [morton.unpair(n) for n in range(11)]
    arith2 = charpair.family("arith-set:2")
    return _failed([
        ((sa, sb) == ([20, 40, 60], [10, 30, 50]), "bsplit golden example"),
        (list(charpair.bmerge([0, 1, 0, 1, 0, 1], sa, sb)) == [10, 20, 30, 40, 50, 60],
         "bmerge golden example"),
        (got == MORTON_TABLE, "morton unpair over [0..10]"),
        ([morton.pair(x, y) for x, y in got] == list(range(11)), "morton pair inverse"),
        ([arith2.unpair(n) for n in range(11)] == MORTON_TABLE,
         "arith-set:2 unpair identical to morton"),
    ])


# -- sweeps -----------------------------------------------------------------------------

@_sweep
def nadic_roundtrips(bases: Iterable[int], n_upto: int, grid: int):
    """pair/unpair, cons/decons and the list bijection invert each other in every base."""
    for b in bases:
        for n in range(n_upto + 1):
            if nadic.pair(b, *nadic.unpair(b, n)) != n:
                yield f"pair/unpair broke at b={b}, n={n}"
            if nadic.nats_to_nat(b, nadic.nat_to_nats(b, n)) != n:
                yield f"nat<->nats broke at b={b}, n={n}"
            if n > 0 and nadic.cons(b, *nadic.decons(b, n)) != n:
                yield f"cons/decons broke at b={b}, z={n}"
        for x in range(grid):
            for y in range(grid):
                if nadic.unpair(b, nadic.pair(b, x, y)) != (x, y):
                    yield f"unpair(pair) broke at b={b}, ({x},{y})"
                if nadic.decons(b, nadic.cons(b, x, y)) != (x, y):
                    yield f"decons(cons) broke at b={b}, ({x},{y})"


def decons_by_division(b: int, z: int) -> tuple[int, int]:
    """Reference decons for positive z: divide out one factor of b per step."""
    x = 0
    while z % b == 0:
        z //= b
        x += 1
    return x, z - z // b - 1


@_sweep
def valuation_oracles(z_upto: int, x_upto: int, y_upto: int):
    """Valuations against independent oracles: repeated division in bases 2, 3
    and 7, the lowest set bit, a closed form, bin().

    decons(2, .) takes the lowest set bit itself, and decons(b, .) for b != 2
    makes one divmod per factor and takes the rank from the last quotient, so
    the two-division loop is a reference that shares no step with either.
    """
    for z in range(1, z_upto + 1):
        for b in (2, 3, 7):
            if nadic.decons(b, z) != decons_by_division(b, z):
                yield f"{b}-adic decons broke against repeated division at {z}"
        if nadic.head(2, z) != (z & -z).bit_length() - 1:
            yield f"2-adic valuation oracle broke at {z}"
        if list(encoders.as_(encoders.BINS, encoders.NAT, z)) != [int(c) for c in bin(z)[2:]][::-1]:
            yield f"binary expansion oracle broke at {z}"
    for x in range(x_upto):
        for y in range(y_upto):
            if nadic.pair(2, x, y) != 2**x * (2 * y + 1) - 1:
                yield f"closed form broke at ({x},{y})"


@_sweep
def bij_law(bases: Iterable[int], n_upto: int):
    """bij(l, k) inverts bij(k, l) for every pair of bases, and bij(2, 3) is injective."""
    bases = list(bases)
    for k in bases:
        for l in bases:
            for n in range(n_upto + 1):
                if nadic.bij(l, k, nadic.bij(k, l, n)) != n:
                    yield f"bij law broke at k={k}, l={l}, n={n}"
    if len({nadic.bij(2, 3, n) for n in range(n_upto + 1)}) != n_upto + 1:
        yield f"bij(2,3) image over [0..{n_upto}] has duplicates"


@_sweep
def family_roundtrips(specs: Iterable[str], n_upto: int, grid: int):
    """Each family's pair and unpair invert each other, and unpair is injective."""
    for spec in specs:
        fam = charpair.family(spec)
        try:
            seen: dict[tuple[int, int], int] = {}
            for n in range(n_upto + 1):
                p = fam.unpair(n)
                if fam.pair(*p) != n:
                    yield f"{fam.name}: pair(unpair({n})) = {fam.pair(*p)}"
                if seen.setdefault(p, n) != n:
                    yield f"{fam.name}: unpair not injective at {n} vs {seen[p]}"
            for x in range(grid):
                for y in range(grid):
                    if fam.unpair(fam.pair(x, y)) != (x, y):
                        yield f"{fam.name}: unpair(pair({x},{y})) != ({x},{y})"
        except FuelExhausted as e:
            # an all-one characteristic function admits no second component;
            # arith-set:1 resolves to exactly that and cannot round-trip
            yield f"{fam.name}: {e}"


@_sweep
def morton_interleave(grid: int):
    """The Morton family pairs by bit interleaving."""
    morton = charpair.family("morton")
    for x in range(grid):
        for y in range(grid):
            if morton.pair(x, y) != interleave(x, y):
                yield f"morton/interleave mismatch at ({x},{y})"


@_sweep
def divergence(fuel_budget: int):
    """A guide that starves one side runs out of fuel instead of returning or hanging."""
    zero_seed = charpair.SeedSpec(encoders.BINS, streams.cycle([0]), "cycle [0]")
    try:
        got = charpair.generic_pair(zero_seed, 10, 20, streams.Fuel(fuel_budget))
        yield f"pair over cycle [0] returned {got} instead of failing"
    except FuelExhausted:
        pass
    one_seed = charpair.SeedSpec(encoders.BINS, streams.cycle([1]), "cycle [1]")
    try:
        got = charpair.generic_unpair(one_seed, 42, streams.Fuel(fuel_budget))
        yield f"unpair over cycle [1] returned {got} instead of failing"
    except FuelExhausted:
        pass


def outcome(call: Callable[[], object]) -> tuple:
    """What a call returned, or the type, message and fields of the PairbijError it raised."""
    try:
        return ("returned", call())
    except PairbijError as e:
        return (type(e).__name__, str(e), vars(e))


def _metered(op: Callable, source, args: tuple, budget: int, label: str) -> tuple:
    fuel = streams.Fuel(budget, label=f"seed {label}")
    return outcome(lambda: op(source, *args, fuel)), fuel.remaining


@_sweep
def prefix_matches_loop(seeds: Iterable[charpair.SeedSpec], budgets: Iterable[int],
                        n_upto: int, grid: int):
    """generic_pair and generic_unpair answer from a family's guide source as from its plain seed,
    and so do the family's own pair and unpair, lane tables and all.

    Each seed and budget is served by a fresh GuidePrefix and by the source
    family_from_seed picks (a PeriodicGuide for a seed whose shape gives
    its guide a period, else a second GuidePrefix), which holds the
    family's lane tables once they are built; each source serves every
    call, as in a family, and each call gets fresh fuel of that budget.
    Results, errors (type, message and fields) and the fuel left must agree
    with the loop's. The family makes each call twice, so that its second
    call builds its lane tables and the later calls may be served by them;
    each result or error must agree with the loop's.
    """
    cases = [(charpair.generic_unpair, (n,)) for n in range(n_upto + 1)]
    cases += [(charpair.generic_pair, (x, y)) for x in range(grid) for y in range(grid)]
    budgets = list(budgets)
    for seed in seeds:
        for budget in budgets:
            fam = charpair.family_from_seed(seed, budget)
            sources = [guide.GuidePrefix(seed, budget), fam.guide]
            calls = {charpair.generic_pair: fam.pair, charpair.generic_unpair: fam.unpair}
            for op, args in cases:
                want = _metered(op, seed, args, budget, seed.label)
                for source in sources:
                    got = _metered(op, source, args, budget, seed.label)
                    if got != want:
                        yield (f"{seed.label}, budget {budget}: {op.__name__}{args} gave {got}"
                               f" from a {type(source).__name__}, the loop {want}")
                call = calls[op]
                for _ in range(2):
                    got = outcome(lambda: call(*args))
                    if got != want[0]:
                        yield (f"{seed.label}, budget {budget}: the family's {call.__name__}{args}"
                               f" gave {got}, the loop {want[0]}")


@_sweep
def curve_walk_matches_unpair(specs: Iterable[str], budgets: Iterable[int], count: int):
    """The curve command's block walk gives the points and CSV text that unpair at every n gives.

    The walk runs on a family of each spec and budget; the loop runs on a
    second family of the same spec with its guide and columns removed, so it
    calls unpair at every n. Both must give the same points and text, or the
    same error.
    """
    budgets = list(budgets)
    # each rendering as parts: the points, or the CSV lines with their ends (same parts, same text)
    renderings = (("", lambda f: list(cli._curve_points(f, count))),
                  (" csv", lambda f: "".join(cli._render_csv(cli._curve_blocks(f, count)))
                   .splitlines(keepends=True)))
    for spec in specs:
        for budget in budgets:
            fams = (charpair.family(spec, budget),
                    replace(charpair.family(spec, budget), guide=None, columns=None))
            for form, render in renderings:
                walked, looped = (outcome(lambda: render(f)) for f in fams)
                if walked != looped:
                    if walked[0] == looped[0] == "returned":
                        parts = zip_longest(walked[1], looped[1])
                        walked, looped = next((a, b) for a, b in parts if a != b)
                    yield (f"curve {spec} {count}{form}, budget {budget}: the walk gave"
                           f" {walked!r}, unpair {looped!r}")
                    break


@_sweep
def encoder_laws(iso_values: int, lists: int):
    """Groupoid laws of Iso composition, and each hub encoder inverting both ways.

    The lists are drawn from a fixed seed, so every run sweeps the same inputs.
    """
    ff = encoders.Iso(lambda x: x + 1, lambda x: x - 1)
    gg = encoders.Iso(lambda x: 2 * x, lambda x: x // 2)
    hh = encoders.Iso(lambda x: x + 10, lambda x: x - 10)
    left = encoders.compose(encoders.compose(ff, gg), hh)
    right = encoders.compose(ff, encoders.compose(gg, hh))
    ident = encoders.compose(ff, encoders.invert(ff))
    neutral = encoders.compose(encoders.identity, gg)
    for v in range(iso_values):
        if left.forward(v) != right.forward(v):
            yield f"associativity at {v}"
        if ident.forward(v) != v or ident.backward(v) != v:
            yield f"inverse law at {v}"
        if neutral.forward(v) != gg.forward(v):
            yield f"identity law at {v}"

    rng = random.Random(20120814)
    for _ in range(lists):
        xs = [rng.randrange(200) for _ in range(rng.randrange(25))]
        if list(encoders.as_(encoders.LIST, encoders.LIST, xs)) != xs:
            yield f"list self-routing broke on {xs}"
        if list(encoders.mset_to_list(encoders.list_to_mset(xs))) != xs:
            yield f"list->mset->list broke on {xs}"
        if list(encoders.set_to_list(encoders.list_to_set(xs))) != xs:
            yield f"list->set->list broke on {xs}"
        if list(encoders.bins_to_list(encoders.list_to_bins(xs))) != xs:
            yield f"list->bins->list broke on {xs}"
        ms = sorted(xs)
        if list(encoders.list_to_mset(encoders.mset_to_list(ms))) != ms:
            yield f"mset->list->mset broke on {ms}"
        st = sorted(set(xs))
        if list(encoders.list_to_set(encoders.set_to_list(st))) != st:
            yield f"set->list->set broke on {st}"
        bits = [rng.randrange(2) for _ in range(rng.randrange(25))] + [1]
        if list(encoders.list_to_bins(encoders.bins_to_list(bits))) != bits:
            yield f"bins->list->bins broke on {bits}"

    if list(encoders.list_to_bins([])) != [0]:
        yield "list_to_bins([]) != [0]"


# -- the CLI selftest -------------------------------------------------------------------

SELFTEST_FAMILIES = ("morton", "arith-set:3", "squares", "powers2", "syracuse",
                     "bits-of-naturals")


# Name and check at `--range r`. Sizes grow with r, mostly capped below the
# acceptance sizes so that the command stays quick; fixed sizes do not shrink.
SELFTESTS: list[tuple[str, Callable[[int], list[str]]]] = [
    ("nadic golden values", lambda r: golden_nadic()),
    ("nadic roundtrips", lambda r: nadic_roundtrips((2, 3, 7, 16), r, min(r, 16))
        + valuation_oracles(min(r, 10_000), min(r, 21), min(r, 41))),
    ("permutation composition law", lambda r: bij_law(range(2, 6), min(r, 200))),
    ("encoder laws", lambda r: golden_encoders() + encoder_laws(min(r, 50), min(r, 300) + 1)),
    ("morton golden table", lambda r: golden_morton()),
    ("preset roundtrips", lambda r: family_roundtrips(SELFTEST_FAMILIES, min(r, 200), min(r, 8))),
    ("morton vs bit interleave", lambda r: morton_interleave(32)),
    ("cantor oracle", lambda r: family_roundtrips(["cantor"], min(r, 2000), min(r, 50))),
    ("divergence detection", lambda r: divergence(20_000)),
    # arith-set:1 starves, so the loop spends the whole budget on every call.
    ("guide prefix vs loop", lambda r: prefix_matches_loop(
        [charpair.family(spec).guide.seed for spec in SELFTEST_FAMILIES + ("arith-set:1",)],
        (3, 64, 2000), min(r, 100), min(r, 6))),
    # Walks past 2**11 fill the tables to guide position 11, where both guides
    # of the second walk hold a one. The third walk's second block holds
    # n + 1 = 2**13 and 3**8, rows that nadic.unpair_columns leaves to decons.
    ("curve walk vs unpair", lambda r: curve_walk_matches_unpair(
        SELFTEST_FAMILIES + ("squares,xor:5000", "arith-set:1", "nadic:2", "nadic:3", "nadic:7",
                             "nadic:5000", "cantor", "cantor,xor:5"), (3, 64), min(r, 1000))
        + curve_walk_matches_unpair(("bits-of-naturals", "arith-set:11"), (3, 64), 2100)
        + curve_walk_matches_unpair(("nadic:2", "nadic:3"), (64,), 8200)),
]
