"""The benchmark's workloads: what each builds at set-up, its seeded inputs, its checks.

The load is one process and one thread in a closed loop: the next call
starts only when the previous one has returned. Every input of a fixed width
has its top bit set, so its cost depends on the width and not on the draw.
Expected outputs come from `oracles`, computed before the timed loop.
"""

import random
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import oracles
from pairbij import charpair, cli, encoders, nadic, streams
from pairbij.errors import FuelExhausted

# Guides dense enough that the result is 2-3x the input width.
DENSE = (
    ("morton", (16, 64, 256, 1024)),
    ("arith-set:2", (16, 64, 256, 1024)),
    ("arith-set:3", (16, 64, 256, 1024)),
    ("bits-of-naturals", (16, 64, 256, 1024)),
)
# Guides that pull thousands of positions per call.
SPARSE = (
    ("squares", (16, 64, 128)),
    ("syracuse", (16, 64, 128)),
    ("powers2", (8, 14)),
)
NADIC_BASES = (2, 3, 7)
NADIC_VALUATIONS = (100, 1000, 10_000)
NADIC_Y_BITS = 64
CURVE_SPECS = ("morton", "arith-set:3", "squares", "syracuse", "bits-of-naturals", "nadic:3", "cantor")
CURVE_COUNT = 2000
# The divergence probe of `pairbij selftest`: an explicit budget per refusal.
REFUSAL_FUEL = 20_000
REFUSAL_BITS = 16


@dataclass(frozen=True)
class Op:
    """One timed call and the check of its output (None when correct)."""

    cell: str  # the input class, e.g. "morton/1024/pair"; latencies are grouped by it
    kind: str  # pair, unpair, refuse or curve
    call: Callable[[], object]
    check: Callable[[object], str | None]
    gauge: str = "interp"  # the gauge.GAUGES loop its latencies are divided by


def expect(want) -> Callable[[object], str | None]:
    return lambda got: None if got == want else f"expected {want!r:.80}, got {got!r:.80}"


def _nat(rng: random.Random, bits: int) -> int:
    """A natural of exactly `bits` bits."""
    return rng.getrandbits(bits - 1) | 1 << (bits - 1)


def _preset(spec: str) -> charpair.PairingFamily:
    name, _, k = spec.partition(":")
    return charpair.preset_family(name, int(k) if k else None)


# -- charpair workloads ------------------------------------------------------------

def _charpair_setup(table):
    return lambda: {spec: _preset(spec) for spec, _ in table}


def _oracle_pair(spec: str, x: int, y: int) -> int:
    if spec in ("morton", "arith-set:2"):  # arith-set:2 must equal morton
        return oracles.interleave(x, y)
    return oracles.pair(spec, x, y)[0]


def _pair_unpair_ops(fams, table, rng, smoke) -> list[Op]:
    ops = []
    for spec, widths in table:
        fam = fams[spec]
        for w in widths[:1] if smoke else widths:
            x, y = _nat(rng, w), _nat(rng, w)
            n = _oracle_pair(spec, x, y)
            ops.append(Op(f"{spec}/{w}/pair", "pair",
                          lambda f=fam, x=x, y=y: f.pair(x, y), expect(n)))
            ops.append(Op(f"{spec}/{w}/unpair", "unpair",
                          lambda f=fam, n=n: f.unpair(n), expect((x, y))))
    return ops


def _refusal_seeds() -> dict[str, charpair.SeedSpec]:
    return {
        "arith-set:1": charpair.preset_seed("arith-set", 1),
        "cycle-0": charpair.SeedSpec(encoders.BINS, streams.cycle([0]), "cycle [0]"),
    }


def refuse(seed: charpair.SeedSpec, x: int, y: int):
    """Pair under a divergent seed; returns the fuel ticks spent when refused."""
    fuel = streams.Fuel(REFUSAL_FUEL, label=f"seed {seed.label}")
    try:
        charpair.generic_pair(seed, x, y, fuel)
    except FuelExhausted:
        return fuel.budget - fuel.remaining
    return "terminated"


def _sparse_setup():
    return {**_charpair_setup(SPARSE)(), **_refusal_seeds()}


def _sparse_ops(fams, rng, workdir, smoke) -> list[Op]:
    ops = _pair_unpair_ops(fams, SPARSE, rng, smoke)
    for name in _refusal_seeds():
        x, y = _nat(rng, REFUSAL_BITS), _nat(rng, REFUSAL_BITS)
        # The budget is spent and the next pull is the one refused.
        ops.append(Op(f"refuse/{name}", "refuse",
                      lambda s=fams[name], x=x, y=y: refuse(s, x, y), expect(REFUSAL_FUEL + 1)))
    return ops


# -- nadic ----------------------------------------------------------------------------

def _nadic_ops(fams, rng, workdir, smoke) -> list[Op]:
    ops = []
    for b in NADIC_BASES:
        for v in NADIC_VALUATIONS[:1] if smoke else NADIC_VALUATIONS:
            y = _nat(rng, NADIC_Y_BITS)
            n = oracles.nadic_pair(b, v, y)
            ops.append(Op(f"nadic:{b}/{v}/pair", "pair",
                          lambda b=b, v=v, y=y: nadic.pair(b, v, y), expect(n)))
            # unpair is repeated big-int division by b, so it is gauged by division.
            ops.append(Op(f"nadic:{b}/{v}/unpair", "unpair",
                          lambda b=b, n=n: nadic.unpair(b, n), expect((v, y)), "division"))
    return ops


# -- CLI curve export -------------------------------------------------------------------

def _curve_text(spec: str, count: int) -> str:
    rows = oracles.curve_rows(spec, count)
    if len({(x, y) for _, x, y in rows}) != len(rows):
        raise AssertionError(f"oracle rows for {spec} are not injective")
    return oracles.curve_csv(rows)


def _curve_setup():
    # Each command parses its spec again; this is the parse a user's first call pays.
    return {spec: cli.parse_family(spec, streams.DEFAULT_FUEL) for spec in CURVE_SPECS}


def _curve_ops(fams, rng, workdir, smoke) -> list[Op]:
    count = 50 if smoke else CURVE_COUNT
    out = Path(workdir) / "curve.csv"
    specs = list(CURVE_SPECS)
    rng.shuffle(specs)
    ops = []
    for spec in specs:
        want = _curve_text(spec, count)
        argv = ["curve", spec, str(count), "csv", "--out", str(out)]

        def check(rc, want=want, spec=spec):
            if rc != 0:
                return f"exit code {rc!r}"
            got = out.read_text()
            if got == want:
                return None
            rows = zip(got.split("\n"), want.split("\n"))
            bad = next((i for i, (g, w) in enumerate(rows) if g != w), "count")
            return f"line {bad} of {spec} differs from the oracle"

        ops.append(Op(f"curve/{spec}", "curve", lambda argv=argv: cli.main(argv), check))
    return ops


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[], dict]  # the families and seeds the ops use
    ops: Callable[[dict, random.Random, Path, bool], list[Op]]  # one round of operations


WORKLOADS = {w.name: w for w in (
    Workload("dense-wide", _charpair_setup(DENSE),
             lambda fams, rng, workdir, smoke: _pair_unpair_ops(fams, DENSE, rng, smoke)),
    Workload("sparse-wide", _sparse_setup, _sparse_ops),
    Workload("nadic-deep", dict, _nadic_ops),  # nadic.pair/unpair take the base per call
    Workload("curve-small", _curve_setup, _curve_ops),
)}


def build(name: str, seed: int, rounds: int, workdir: Path, smoke: bool = False):
    """Set the workload up and draw `rounds` rounds of operations from the seed."""
    w = WORKLOADS[name]
    fams = w.setup()
    rng = random.Random(f"{name}:{seed}")
    return [w.ops(fams, rng, workdir, smoke) for _ in range(rounds)]
