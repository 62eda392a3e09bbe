"""Pairing bijections driven by the characteristic function of a subset of naturals.

A seed (any value convertible to an infinite bit sequence) acts as a guide:
to pair two naturals, their bit forms are interleaved under the guide, a one
drawing from the first and a zero from the second; to unpair, the bit form is
split the same way. Any seed whose guide keeps alternating between ones and
zeros in finite blocks yields a bijection; degenerate seeds make the process
diverge, which fuel turns into a FuelExhausted error instead of a hang.

Guides are routed in three places: bmerge, bsplit (through _route and
_side, which serve it alone) and the loops of SeedSpec's merge and split.
generic_pair and generic_unpair check their arguments and end in one call
of the pair or unpair of a SeedSpec or of a family's guide source, a
guide.GuidePrefix (a PeriodicGuide when the guide repeats): every source
takes and returns ints. family_from_seed picks a family's source.
  - bmerge's singleton endings emit the last element without consulting the
    guide, and its golden values depend on that; generic_pair's padding must
    respect positions past the end of one side, and generic_unpair delimits
    each side past the payload, so SeedSpec's merge and split keep loops of
    their own. They read the guide from position 0 on every call, serve
    direct callers, and are the reference the fast paths are tested
    against. The prefix has a module of its own: compiled inside this one,
    without a bytecode cache, it raised the peak memory of importing
    charpair by about 0.5 MB.
  - A family's source may also hold guide.LaneTables, built after the
    family's second call, from which its pair and unpair answer the calls
    they cover, charged the positions its bit-form path would read. That
    path, every source's otherwise, is this module's codec (_nat_to_bits
    and _bits_to_nat) around the source's merge or split, through
    SeedSpec.codec_pair and codec_unpair. The benchmark's traced pass
    reads each call's positions from the fuel handed to generic_pair and
    generic_unpair, and times the codec by replacing it here, which is
    why the tables sit behind those two and every source converts through
    this module.
  - Every reader but the lazy bmerge, which meters each bit it reads,
    charges by one rule what metering each pull would charge: SeedSpec's
    merge and split and a GuidePrefix read their guide unmetered, to at
    most fuel.read_limit() positions, and charge them once, through
    fuel.spend, as they leave. A guide cut at that limit is told from one
    that ended by the count, since spend refuses the pull past the fuel. A
    refusal reads the whole budget, and the refusal cells of the
    sparse-wide benchmark workload time these loops.
"""

import sys
from collections import deque
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass
from itertools import chain, count, islice, tee
from math import isqrt
from pathlib import Path

from . import encoders, nadic, streams
from .errors import (
    GuideExhausted,
    InvalidBit,
    PairbijError,
    UnknownEncoder,
    UnknownPreset,
    ZeroArgument,
)
from .guide import (
    UNDELIMITED,
    UNPLACED,
    GuidePrefix,
    PeriodicGuide,
    exhausted,
    lane_tables,
    periodic_pattern,
)

def _nat_to_bits(n: int) -> bytes:
    """The bit form of n, a byte 0 or 1 a bit: b"\\x00" for zero, else
    least-significant-first ending in 1.

    It is the hub's bins map of nadic.nat_to_nats(2, n), a C call a gap:
    gap g gives bytes(g), g zeros, and the join closes each with a one.
    Guide sources pad, place and route these bytes by C-level slices, so a
    call over a sparse guide, whose result is mostly padding zeros, costs
    little past this codec.
    """
    return b"\x01".join(map(bytes, nadic.nat_to_nats(2, n))) + b"\x01" if n else b"\x00"


def _bits_to_nat(bits: bytes | bytearray | list[int]) -> int:
    """Decode a bit form, as bytes, a bytearray or a list of the ints 0 and 1;
    an empty or all-zero form decodes to 0.

    The gaps between ones are found in one pass over the packed bytes. The
    form is always built here from bit forms and zero padding, so it is not
    checked; encoders.bins_to_list reads bits from outside.
    """
    return nadic.nats_to_nat(2, map(len, bytes(bits).split(b"\x01")[:-1]))


# -- guided splitting and merging ------------------------------------------------

def _validated_bits(xs: Iterable[int]) -> Iterator[int]:
    for x in xs:
        if x not in (0, 1):
            raise InvalidBit(f"guide may only contain 0 and 1, got {x!r}")
        yield x


def _route(bits: Iterator[int], ns: Iterable[int]) -> Iterator[tuple]:
    """Pair each element of ns with its bit; a failure ends it as (None, error)."""
    try:
        # The source is examined before the guide, so an ended source closes
        # both sides even when the guide has nothing left to say.
        for pos, n in enumerate(ns):
            bit = next(bits, None)
            if bit is None:
                raise GuideExhausted(
                    f"split guide provides no guidance at element {n} (position {pos})",
                    position=pos,
                )
            yield bit, n
    except PairbijError as e:
        yield None, e


def _side(routed: Iterator[tuple], want: int) -> Iterator[int]:
    for bit, n in routed:
        if bit == want:
            yield n
        elif bit is None:
            raise n


def bsplit(guide: Iterable[int], ns: Iterable[int]) -> tuple[Iterator[int], Iterator[int]]:
    """Separate ns into (members, non-members): guide bit 1 routes to the first output.

    Both outputs preserve relative order and may be consumed lazily and
    independently. A guide that ends while elements remain raises
    GuideExhausted, and a guide bit other than 0 or 1 raises InvalidBit; an
    error raised on one output is raised on the other too, once it reaches
    the failing element.
    """
    ones, zeros = tee(_route(_validated_bits(guide), ns))
    return _side(ones, 1), _side(zeros, 0)


def bmerge(guide: Iterable[int], xs: Iterable[int], ys: Iterable[int],
           fuel: streams.Fuel | None = None) -> Iterator[int]:
    """Interleave xs and ys as directed by the guide: 1 pulls from xs, 0 from ys.

    The degenerate endings are matched in a fixed order that downstream
    results depend on, so it must not be rearranged:
      1. both sides empty          -> end
      2. xs empty, ys a singleton  -> emit it, end (guide not consulted)
      3. ys empty, xs a singleton  -> emit it, end (guide not consulted)
      4. xs empty, ys longer       -> refill xs with a zero and keep going
      5. ys empty, xs longer       -> refill ys with a zero and keep going
    Injected zeros may trail the output; the bit decoder discards them.
    Each guide bit read spends one unit of fuel (a fresh default budget when
    none is given), so a guide that stops routing to the longer side raises
    FuelExhausted instead of padding the shorter one forever.
    """
    if fuel is None:
        fuel = streams.Fuel(label="merge guide")
    bits = _validated_bits(fuel.meter(guide))
    xs, ys = iter(xs), iter(ys)
    # Each side's next two elements, all the lookahead the endings need.
    a, b = deque(islice(xs, 2)), deque(islice(ys, 2))
    used = 0
    while a or b:
        if len(a) + len(b) == 1:
            yield (a or b).pop()
            return
        if not a:
            a.append(0)
        elif not b:
            b.append(0)
        bit = next(bits, None)
        if bit is None:
            raise GuideExhausted(
                f"merge guide ended after {used} bits with elements remaining",
                position=used,
            )
        used += 1
        side, rest = (a, xs) if bit == 1 else (b, ys)
        yield side.popleft()
        side.extend(islice(rest, 2 - len(side)))


# -- seeds -----------------------------------------------------------------------

@dataclass(frozen=True)
class SeedSpec:
    """A characteristic function given as a value under a named encoder.

    The payload is a restartable description (a Stream or any reiterable).
    merge and split read its guide afresh from position zero on every call;
    a family keeps a faster source (see family_from_seed), which answers alike.
    """

    encoder: encoders.Encoder
    payload: object
    label: str
    budget = streams.DEFAULT_FUEL  # a class attribute, not a field

    def bits(self, fuel: streams.Fuel) -> Iterator[int]:
        """Instantiate the guide as a fuel-metered bit iterator."""
        return fuel.meter(self._guide())

    def _guide(self) -> Iterator[int]:
        """The guide as a bit iterator, unmetered.

        Payloads already in bit form are used directly: rebuilding them
        through the hub is the identity on well-formed infinite seeds and
        would silently drop the trailing zeros of a finite prefix.
        """
        src = iter(self.payload)
        if self.encoder is encoders.BINS:
            return _validated_bits(src)
        return encoders.list_to_bins(self.encoder.forward(src))

    def merge(self, xs: Sequence[int], ys: Sequence[int], fuel: streams.Fuel) -> list[int]:
        """The bits generic_pair places: xs on the guide's ones, ys on its zeros,
        zeros where a side has run out. The bit forms may be any sequence of
        the ints 0 and 1: generic_pair passes bytes, a direct caller may pass
        lists."""
        lx, ly = len(xs), len(ys)
        ix = iy = 0
        merged: list[int] = []
        try:
            for bit in islice(self._guide(), fuel.read_limit()):
                if bit == 1:
                    if ix < lx:
                        merged.append(xs[ix])
                        ix += 1
                    else:
                        merged.append(0)
                else:
                    if iy < ly:
                        merged.append(ys[iy])
                        iy += 1
                    else:
                        merged.append(0)
                if ix == lx and iy == ly:
                    break
        finally:
            fuel.spend(len(merged))
        if ix < lx or iy < ly:
            raise exhausted(self.label, len(merged), UNPLACED)
        return merged

    def split(self, payload: Sequence[int], fuel: streams.Fuel) -> tuple[list[int], list[int]]:
        """The bits generic_unpair routes to the guide's ones and to its zeros,
        from any sequence of bits (generic_unpair passes bytes), as two lists.

        Each side ends at the first position past the payload that the guide
        gives it, and the call once both have; those positions keep nothing,
        so a guide that starves a side holds no memory. As in merge, the
        guide is read unmetered, to at most fuel.read_limit() positions, and
        charged as the call leaves.
        """
        length = len(payload)
        ones: list[int] = []
        zeros: list[int] = []
        delimited: set[bool] = set()
        read = 0
        try:
            for read, bit in enumerate(islice(self._guide(), fuel.read_limit()), 1):
                if read <= length:
                    (ones if bit == 1 else zeros).append(payload[read - 1])
                else:
                    delimited.add(bit == 1)
                    if len(delimited) == 2:
                        return ones, zeros
        finally:
            fuel.spend(read)
        raise exhausted(self.label, read, UNDELIMITED)

    def pair(self, x: int, y: int, fuel: streams.Fuel) -> int:
        """generic_pair(self, x, y, fuel), for naturals x and y, by merge."""
        return self.codec_pair(self, x, y, fuel)

    def unpair(self, n: int, fuel: streams.Fuel) -> tuple[int, int]:
        """generic_unpair(self, n, fuel), for a natural n, by split."""
        return self.codec_unpair(self, n, fuel)

    # A guide source that no lane table serves answers through these two, with its own
    # merge or split, so that every bit form is converted by this module's codec: the
    # benchmark's traced pass times the codec by replacing these module attributes.
    @staticmethod
    def codec_pair(source, x: int, y: int, fuel: streams.Fuel) -> int:
        """The bit forms of x and y, placed by source.merge and read back."""
        return _bits_to_nat(source.merge(_nat_to_bits(x), _nat_to_bits(y), fuel))

    @staticmethod
    def codec_unpair(source, n: int, fuel: streams.Fuel) -> tuple[int, int]:
        """The bit form of n, routed by source.split, each side read back."""
        ones, zeros = source.split(_nat_to_bits(n), fuel)
        return _bits_to_nat(ones), _bits_to_nat(zeros)


# -- the generic construction ------------------------------------------------------

def generic_pair(seed: SeedSpec | GuidePrefix, x: int, y: int,
                 fuel: streams.Fuel | None = None) -> int:
    """Pair (x, y) under the seed's characteristic function.

    The bit form of x is written onto the guide's one-positions in order, the
    bit form of y onto its zero-positions, and positions whose side has no
    bits left carry zeros; the write stops once both forms are fully placed.
    Placement must respect positions even past the end of one side: emitting
    a leftover bit early would land it on the other side's positions and
    break invertibility whenever the guide has runs longer than one.

    The seed's pair answers, after x and y are checked: it places the bit
    forms with its merge, where a SeedSpec reads its guide from position 0,
    a GuidePrefix slices its runs and a PeriodicGuide its pattern
    positions, with the same results and errors; a GuidePrefix whose lane
    tables cover x and y answers from them, charged the same positions.
    Without fuel, the call gets the seed's budget. Raises
    FuelExhausted if the seed starves one side (no finite blocks),
    GuideExhausted if a finite seed runs out, and ZeroArgument if x or y is
    not a natural.
    """
    x, y = nadic.naturals("pair", x, y)
    if fuel is None:
        fuel = streams.Fuel(seed.budget, label=f"seed {seed.label}")
    return seed.pair(x, y, fuel)


def generic_unpair(seed: SeedSpec | GuidePrefix, n: int,
                   fuel: streams.Fuel | None = None) -> tuple[int, int]:
    """Split n under the seed's characteristic function; inverse of generic_pair.

    The bit form of n is read as a prefix of an infinite sequence padded with
    zeros. Each output side collects the payload bits routed to it and is
    complete once the guide routes it a first beyond-payload bit -- so the
    guide must keep offering both ones and zeros, and a seed that never again
    yields one of them diverges (caught by fuel) exactly like the merge
    direction does. The seed's unpair answers, after n is checked: its split
    routes the bits, from any source alike, or a GuidePrefix's lane tables
    answer when they cover n, charged the same positions. Without fuel the
    call gets the seed's budget.
    """
    n = nadic.natural("unpair", n)
    if fuel is None:
        fuel = streams.Fuel(seed.budget, label=f"seed {seed.label}")
    return seed.unpair(n, fuel)


# -- named families ----------------------------------------------------------------

@dataclass(frozen=True)
class PairingFamily:
    """A named pair/unpair closure pair; mutually inverse wherever both terminate.

    A family built on a guide keeps it in `guide`, twisted or not: unpair(n)
    sends bit i of n, XOR the mask of its ,xor: twists, to x or to y as
    guide position i says. That map is linear over XOR, which lets a caller
    walking n = 0, 1, 2, ... get a whole block of points from two tables
    read off one guide.layout (see cli._curve_blocks). A family with no guide
    may keep in `columns` a function that gives the unpair of every n in
    [lo, hi) as a column of x and a column of y, built a progression at a
    time.
    """

    name: str
    pair: Callable[[int, int], int]
    unpair: Callable[[int], tuple[int, int]]
    guide: GuidePrefix | None = None
    columns: Callable[[int, int], tuple[list[int], list[int]]] | None = None


def _budget(fuel_budget) -> int:
    """A fuel budget as an int, refused unless it is a positive integer."""
    fuel_budget = nadic.integer("fuel budget", fuel_budget)
    if fuel_budget <= 0:  # else every call of a guide family would fail on it
        raise PairbijError(f"fuel budget must be positive, got {fuel_budget}")
    return fuel_budget


def family_from_seed(seed: SeedSpec, fuel_budget: int = streams.DEFAULT_FUEL) -> PairingFamily:
    """Bundle the generic construction over one seed; each call gets fresh fuel.

    This is the one place that picks a family's guide source, which its
    calls share, so that the guide is read once per family: a
    PeriodicGuide when the seed's shape gives its guide a period
    (guide.periodic_pattern), else a GuidePrefix.

    Once the family's second call has returned or raised, so that the call
    is answered the way it always was, that call, and only that call even
    when threads race, builds the source's guide.LaneTables, unless the
    budget or the guide allows none; no call tries again. The source's pair
    and unpair, which generic_pair and generic_unpair call, answer from the
    tables from then on where they can. A family called once builds
    nothing.
    """
    fuel_budget = _budget(fuel_budget)
    period = periodic_pattern(seed)
    guide = PeriodicGuide(seed, period, fuel_budget) if period else GuidePrefix(seed, fuel_budget)
    label = f"seed {seed.label}"
    # Each call that finishes while there are no tables takes the next number, in one
    # step of the count, so when threads race one call still takes 1: the second builds.
    finished = count()

    def pair(x: int, y: int) -> int:
        try:
            return generic_pair(guide, x, y, streams.Fuel(fuel_budget, label=label))
        finally:
            if guide.tables is None and next(finished) == 1:
                guide.tables = lane_tables(guide, fuel_budget)

    def unpair(n: int) -> tuple[int, int]:
        try:
            return generic_unpair(guide, n, streams.Fuel(fuel_budget, label=label))
        finally:
            if guide.tables is None and next(finished) == 1:
                guide.tables = lane_tables(guide, fuel_budget)

    return PairingFamily(seed.label, pair, unpair, guide=guide)


def syracuse(n: int) -> int:
    """The 2-adic tail of 6n + 4; iterating it to 0 restates the Collatz problem."""
    if type(n) is not int or n < 0:  # before 6n + 4, so that the message names the caller's n
        n = nadic.natural("syracuse", n)
    return nadic.tail(2, 6 * n + 4)


def nsyr(n: int, fuel: streams.Fuel | None = None) -> list[int]:
    """The syracuse trajectory from n down to and including 0, fuel-guarded."""
    n = nadic.natural("syracuse", n)
    if fuel is None:
        fuel = streams.Fuel(label=f"syracuse trajectory of {n}")
    out = [n]
    while n != 0:
        fuel.tick()
        n = syracuse(n)
        out.append(n)
    return out


def _nat_bits_stream() -> streams.Stream:
    """The concatenated bit forms of 0, 1, 2, ...: an aperiodic infinite seed."""
    return streams.Stream(lambda: chain.from_iterable(
        encoders.as_(encoders.BINS, encoders.NAT, n) for n in count()))


def preset_seed(name: str, k: int | None = None) -> SeedSpec:
    """The named seed specs shipped with the package; only arith-set takes a step k."""
    if name == "arith-set":
        step = None if k is None else nadic.integer("arith-set step", k)
        if step is None or step < 1:
            raise UnknownPreset(f"arith-set needs a step k >= 1, got {k}")
        return SeedSpec(encoders.SET, streams.arith(0, step), f"arith-set:{step}")
    if name == "morton":
        seed = SeedSpec(encoders.BINS, streams.cycle([1, 0]), "morton")
    elif name == "squares":
        seed = SeedSpec(encoders.SET, streams.smap(lambda i: i * i, streams.arith(0, 1)), "squares")
    elif name == "powers2":
        seed = SeedSpec(encoders.SET, streams.smap(lambda i: 2**i, streams.arith(0, 1)), "powers2")
    elif name == "syracuse":
        seed = SeedSpec(encoders.LIST, streams.smap(syracuse, streams.arith(0, 1)), "syracuse")
    elif name == "bits-of-naturals":
        seed = SeedSpec(encoders.BINS, _nat_bits_stream(), "bits-of-naturals")
    else:
        raise UnknownPreset(f"unknown pairing preset {name!r}")
    if k is not None:
        raise UnknownPreset(f"preset {name} takes no step k, got k={k}")
    return seed


def preset_family(name: str, k: int | None = None,
                  fuel_budget: int = streams.DEFAULT_FUEL) -> PairingFamily:
    """Build the PairingFamily for a preset name; arith-set takes the step k."""
    return family_from_seed(preset_seed(name, k), fuel_budget)


# Characters read from a seed file at a time, at most 4 bytes each: reading
# stops at the first chunk that holds a fault, so an endless or huge bad file
# costs one chunk.
_SEED_CHUNK = 1 << 16


def read_seed_bits(path: str | Path) -> list[int]:
    """Read a seed file of ASCII 0/1 characters, ignoring whitespace.

    A file that cannot be read, or is not text, raises a PairbijError naming it.
    The file is decoded a chunk at a time as Path.read_text would decode it
    whole, except that a byte that is not text arrives as a lone surrogate in
    its place. The first fault, a character that is not a bit or whitespace
    or a byte that is not text, fails before the rest is read, with its
    offset in the whole text (each line end one character, as read_text
    gives it) or file.
    """
    try:
        # read_text's encoding; newline="" keeps line ends, so the text encodes back to the bytes
        with open(path, newline="", errors="surrogateescape") as f:
            bits, at_byte, at_char, cr = [], 0, 0, False
            while text := f.read(_SEED_CHUNK):
                digits = "".join(text.split())
                fault = digits.lstrip("01")[:1]
                i = text.index(fault) if fault else len(text)
                if "\udc80" <= fault <= "\udcff":  # what surrogateescape makes of a byte
                    at_byte += len(text[:i].encode(f.encoding))
                    raise InvalidBit(f"seed file {path}: not text, byte"
                                     f" {ord(fault) - 0xDC00:#04x} at offset {at_byte}")
                # read_text reads \r\n as one character, also when a chunk cuts it
                at_char += i - text.count("\r\n", 0, i) - (cr and text[0] == "\n")
                if fault:
                    raise InvalidBit(f"seed file {path}: unexpected character {fault!r}"
                                     f" at offset {at_char}")
                bits += map(int, digits)
                at_byte += len(text.encode(f.encoding))
                cr = text[-1] == "\r"
    except OSError as e:
        raise PairbijError(f"cannot read seed file {path}: {e.strerror or e}") from None
    except ValueError as e:  # a path holding a NUL byte
        raise PairbijError(f"cannot read seed file {str(path)!r}: {e}") from None
    return bits


def seed_from_file(path: str | Path, encoder_name: str = "bins") -> SeedSpec:
    """A finite characteristic-function prefix loaded from a file.

    Consuming past the end of the prefix raises GuideExhausted with the
    position reached, so external bit sources need only be long enough for
    the calls actually made. The file's bits are a sequence, so only the
    sequence encoders can read them; nat, nat-prime and nadic:<b> take a
    single natural and raise UnknownEncoder here.
    """
    if encoder_name not in encoders.SEQUENCE_ENCODERS:
        raise UnknownEncoder(
            f"seed files take only the {', '.join(encoders.SEQUENCE_ENCODERS)} encoders,"
            f" got {encoder_name!r}"
        )
    enc = encoders.by_name(encoder_name)
    bits = read_seed_bits(path)
    return SeedSpec(enc, streams.from_list(bits), f"seed-file:{path}:{encoder_name}")


# -- reference pairing and combinators ----------------------------------------------

def cantor_pair(x: int, y: int) -> int:
    """The classic diagonal pairing (x+y)(x+y+1)/2 + y; used as a test oracle."""
    x, y = nadic.naturals("cantor_pair", x, y)
    return (x + y) * (x + y + 1) // 2 + y


def cantor_unpair(n: int) -> tuple[int, int]:
    """Inverse of cantor_pair via the integer triangular root."""
    n = nadic.natural("cantor_unpair", n)
    w = (isqrt(8 * n + 1) - 1) // 2
    y = n - w * (w + 1) // 2
    return w - y, y


def cantor_columns(lo: int, hi: int) -> tuple[list[int], list[int]]:
    """The cantor_unpair of every n in [lo, hi), as a column of x and a column of y.

    Along a diagonal x falls by one and y rises by one, so each diagonal the
    block meets gives one range to each column, the last cut to the block.
    """
    lo, hi = nadic.natural("cantor_unpair", lo), nadic.integer("the end of a block", hi)
    x, y = cantor_unpair(lo)
    xs: list[int] = []
    ys: list[int] = []
    left = hi - lo
    while left > 0:
        m = min(x + 1, left)  # the diagonal's rows from (x, y) on
        xs += range(x, x - m, -1)
        ys += range(y, y + m)
        left -= m
        x, y = x + y + 1, 0
    return xs, ys


def cantor_family() -> PairingFamily:
    return PairingFamily("cantor", cantor_pair, cantor_unpair, columns=cantor_columns)


def twist_family(f: PairingFamily, mask: int) -> PairingFamily:
    """XOR the paired value with a fixed mask; still a bijection, new family member."""
    mask = nadic.integer("xor mask", mask)
    if mask < 0:  # a negative mask would pair into the negative integers
        raise ZeroArgument(f"xor mask must be non-negative, got {mask}")

    def unpair(n: int) -> tuple[int, int]:
        # before the XOR, so that the message names the caller's n
        return f.unpair(nadic.natural("unpair", n) ^ mask)

    return PairingFamily(
        f"{f.name},xor:{mask}",
        lambda x, y: f.pair(x, y) ^ mask,
        unpair,
        guide=f.guide,
    )


# -- family specs --------------------------------------------------------------------

def parse_nat(text: str, what: str) -> int:
    """Read a natural number from outside input, naming what it is when it is not one."""
    try:
        n = int(text)
    except ValueError:
        # CPython refuses to read more decimal digits than sys.get_int_max_str_digits().
        limit = getattr(sys, "get_int_max_str_digits", int)()
        if limit and len(text) > limit:
            raise PairbijError(f"{what} is {len(text)} characters long, more than the limit of"
                               f" {limit} decimal digits; it starts {text[:20]!r}") from None
        raise PairbijError(f"{what} must be a natural number, got {text!r}") from None
    if n < 0:
        raise PairbijError(f"{what} must be non-negative, got {n}")
    return n


def _base_family(head: str, fuel_budget: int) -> PairingFamily:
    kind, colon, arg = head.partition(":")
    if kind == "nadic" and colon:
        b = parse_nat(arg, "valuation base")
        nadic.check_base(b)  # fail early, not at the first call
        return PairingFamily(
            head, lambda x, y: nadic.pair(b, x, y), lambda n: nadic.unpair(b, n),
            columns=lambda lo, hi: nadic.unpair_columns(b, lo, hi),
        )
    if kind == "arith-set" and colon:
        return preset_family("arith-set", parse_nat(arg, "arith-set step"), fuel_budget)
    if kind == "seed-file" and colon:
        path, enc = arg, "bins"
        if ":" in arg:
            path, enc = arg.rsplit(":", 1)
            if path.endswith(":nadic"):  # the one encoder name that holds a colon
                path, enc = path[: -len(":nadic")], f"nadic:{enc}"
        return family_from_seed(seed_from_file(path, enc), fuel_budget)
    if head == "cantor":
        return cantor_family()
    if colon:
        raise UnknownPreset(f"unknown family spec {head!r}")
    return preset_family(head, fuel_budget=fuel_budget)


def family(spec: str, fuel_budget: int = streams.DEFAULT_FUEL) -> PairingFamily:
    """Build the family a spec names, e.g. 'morton', 'nadic:3' or 'arith-set:2,xor:7'.

    A spec is one of nadic:<b>, cantor, arith-set:<k>, seed-file:<path>[:<encoder>]
    or a parameterless preset (morton, squares, powers2, syracuse,
    bits-of-naturals), followed by any number of ,xor:<mask> modifiers.
    Modifiers are peeled from the right, so a seed-file path may hold commas
    as long as no comma in it is followed by "xor:".
    Malformed specs, and a budget that is not a positive integer, raise a
    PairbijError subclass, also for the families that use no fuel.
    """
    fuel_budget = _budget(fuel_budget)
    head, masks = spec, []
    rest, comma, mod = head.rpartition(",")
    while comma and mod.startswith("xor:"):
        masks.append(parse_nat(mod[4:], "xor mask"))
        head = rest
        rest, comma, mod = head.rpartition(",")
    if comma and not head.startswith("seed-file:"):
        raise PairbijError(f"unknown family modifier {mod!r}")
    fam = _base_family(head, fuel_budget)
    for mask in reversed(masks):
        fam = twist_family(fam, mask)
    return fam
