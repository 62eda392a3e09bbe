"""Re-measure the operation table of ROADMAP.md "Open items" and print it as Markdown.

    python3 benchmarks/roadmap_table.py

Each row is the median of REPS timed calls on fixed inputs (top bit set).
"""

import random
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from pairbij import charpair, nadic, streams  # noqa: E402
from pairbij.errors import FuelExhausted  # noqa: E402

REPS = 7


def nat(rng, bits):
    return rng.getrandbits(bits - 1) | 1 << (bits - 1)


def refuse_1m():
    try:
        charpair.preset_family("arith-set", 1).pair(5, 3)
    except FuelExhausted:
        return
    raise AssertionError("arith-set:1 terminated")


def rows(rng):
    morton = charpair.preset_family("morton")
    squares = charpair.preset_family("squares")
    syracuse = charpair.preset_family("syracuse")
    big = nat(rng, 1024)
    yield "`morton.pair`, 64-bit inputs", lambda x=nat(rng, 64), y=nat(rng, 64): morton.pair(x, y)
    yield "`morton.pair`, 256-bit inputs", lambda x=nat(rng, 256), y=nat(rng, 256): morton.pair(x, y)
    yield "`morton.pair`, 1024-bit inputs", lambda x=nat(rng, 1024), y=nat(rng, 1024): morton.pair(x, y)
    yield "`_nat_to_bits`, 1024 bits", lambda: charpair._nat_to_bits(big)
    yield "`squares.pair`, 64-bit inputs", lambda x=nat(rng, 64), y=nat(rng, 64): squares.pair(x, y)
    yield "`squares.pair`, 256-bit inputs", lambda x=nat(rng, 256), y=nat(rng, 256): squares.pair(x, y)
    yield "`syracuse.pair`, 256-bit inputs", lambda x=nat(rng, 256), y=nat(rng, 256): syracuse.pair(x, y)
    for v in (100, 1000, 10_000):
        z = nadic.cons(3, v, nat(rng, 64))
        yield f"`nadic.decons(3, ·)`, valuation {v}", lambda z=z: nadic.decons(3, z)
    yield f"`arith-set:1` running out of {streams.DEFAULT_FUEL // 1_000_000}M fuel", refuse_1m


def fmt(seconds):
    if seconds >= 0.1:
        return f"{seconds:.2f} s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.2f} ms"
    return f"{seconds * 1e6:.1f} µs"


def main():
    print(f"Python {sys.version.split()[0]}, median of {REPS} calls\n")
    print("| operation | time |\n|---|---|")
    for label, call in rows(random.Random(2013)):
        times = []
        for _ in range(REPS):
            t0 = time.perf_counter()
            call()
            times.append(time.perf_counter() - t0)
        print(f"| {label} | {fmt(statistics.median(times))} |", flush=True)


if __name__ == "__main__":
    main()
