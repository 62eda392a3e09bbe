"""Bit forms as bytes: the codec against the hub, and the guide sources' bytes path
against the reference loop on wide inputs with long runs of padding."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pairbij import charpair, encoders, guide, nadic, streams
from pairbij.invariants import outcome

# 0, 1, and 2**k and 2**k - 1 for every k up to 2**16, or any n of up to 2**16 bits.
EDGES = st.integers(0, 2**16).flatmap(lambda k: st.sampled_from([2**k, 2**k - 1]))
NATS = EDGES | st.integers(0, 2**16).flatmap(lambda w: st.integers(0, 2**w - 1))


@given(NATS)
@example(0)
@example(1)
@example(2**16)
@example(2**(2**16) - 1)
@settings(max_examples=40, deadline=None)
def test_codec_matches_the_hub(n):
    bits = charpair._nat_to_bits(n)
    assert type(bits) is bytes
    assert bits == bytes(encoders.list_to_bins(nadic.nat_to_nats(2, n)))
    assert (charpair._bits_to_nat(bits) == charpair._bits_to_nat(bytearray(bits))
            == charpair._bits_to_nat(list(bits)) == n)
    # padding zeros decode to nothing, in any form
    padded = bits + bytes(7)
    assert (charpair._bits_to_nat(padded) == charpair._bits_to_nat(bytearray(padded))
            == charpair._bits_to_nat(list(padded)) == n)


def _gap_file(tmp_path_factory):
    """A seed file whose guide holds a gap of 10**4 zeros, then alternates."""
    path = tmp_path_factory.mktemp("gap") / "gap.bits"
    path.write_text("111" + "0" * 10**4 + "10" * 2000)
    return f"seed-file:{path}"


# (family spec, widths of x and y): long runs of zeros, so long padding.
WIDE = [("squares", (128, 256, 512)), ("syracuse", (128, 256, 512)),
        ("powers2", (14, 15, 16)), ("gap-file", (8, 600, 2100))]


def _charged(call, budget: int) -> tuple:
    fuel = streams.Fuel(budget)
    return outcome(lambda: call(fuel)), fuel.remaining


@pytest.mark.parametrize("spec, widths", WIDE, ids=[spec for spec, _ in WIDE])
def test_bytes_path_matches_loop_on_wide_inputs(tmp_path_factory, spec, widths):
    rng = random.Random(spec)
    if spec == "gap-file":
        spec = _gap_file(tmp_path_factory)
    fam = charpair.family(spec)
    seed = fam.guide.seed
    for w in widths:
        x, y = rng.getrandbits(w) | 1 << (w - 1), rng.getrandbits(w)
        n = rng.getrandbits(rng.randrange(1, 2 * w))
        calls = [(charpair.generic_pair, fam.pair, (x, y)), (charpair.generic_pair, fam.pair, (y, x)),
                 (charpair.generic_unpair, fam.unpair, (n,))]
        paired = outcome(lambda: fam.pair(x, y))
        if paired[0] == "returned":
            calls.append((charpair.generic_unpair, fam.unpair, (paired[1],)))
        for op, call, args in calls:
            want, left = _charged(lambda f: op(seed, *args, f), streams.DEFAULT_FUEL)
            assert outcome(lambda: call(*args)) == want
            read = streams.DEFAULT_FUEL - left
            # budgets that run out inside the call, just before its end, and at its end
            for budget in (read // 2, read - 1, read, read + 1):
                if budget > 0:
                    assert (_charged(lambda f: op(fam.guide, *args, f), budget)
                            == _charged(lambda f: op(seed, *args, f), budget))


def _contents(answer: tuple) -> tuple:
    """A charged merge or split with its bit forms as lists, and their kinds."""
    (kind, value, *_), left = answer
    if kind != "returned":
        return answer, []
    forms = value if isinstance(value, tuple) else (value,)
    return ((kind, [list(form) for form in forms]), left), [type(form) for form in forms]


SEEDS = [charpair.preset_seed(name) for name in ("morton", "squares", "syracuse", "powers2")]
SEEDS.append(charpair.preset_seed("arith-set", 3))


@pytest.mark.parametrize("seed", SEEDS, ids=lambda seed: seed.label)
def test_direct_calls_keep_the_kind_of_their_input(seed):
    rng = random.Random(seed.label)
    pattern = guide.periodic_pattern(seed)
    sources = [guide.GuidePrefix(seed)] + ([guide.PeriodicGuide(seed, *pattern)] if pattern else [])
    for source in sources:
        for _ in range(10):
            # powers2 places 12 bits in 2**11 positions, and runs out of fuel on some
            xs, ys, payload = ([rng.getrandbits(1) for _ in range(rng.randrange(0, m))]
                               for m in (13, 40, 80))
            for name, args in (("merge", (xs, ys)), ("split", (payload,))):
                call = getattr(source, name)
                loop, _ = _contents(_charged(lambda f: getattr(seed, name)(*args, f), 10**4))
                packed, kinds = _contents(_charged(lambda f: call(*map(bytes, args), f), 10**4))
                assert packed == loop
                assert kinds == [bytearray] * len(kinds)
