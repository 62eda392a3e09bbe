"""The periodic guide source against the guide prefix and the reference loop."""

import sys
import tracemalloc
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairbij import charpair, encoders, guide, streams
from pairbij.errors import FuelExhausted
from pairbij.invariants import outcome

# Bits as the loop reads them: any bit equal to 1 is a one.
BITS = st.sampled_from([0, 1, 1.0, False])
# arith-set steps far past any budget drawn here.
LONG_STEPS = [100, 10**12]


def _seed(kind: str, pattern: list, k: int) -> tuple[charpair.SeedSpec, str | None]:
    """A seed whose guide repeats a pattern from position 0, and its spec head if it has one."""
    if kind == "arith-set":
        return charpair.preset_seed("arith-set", k), f"arith-set:{k}"
    return charpair.SeedSpec(encoders.BINS, streams.cycle(pattern), f"cycle {pattern}"), None


def _fuel(budget: int, label: str, overspent: int = 0) -> streams.Fuel:
    fuel = streams.Fuel(budget, label=f"seed {label}")
    if overspent:
        with pytest.raises(FuelExhausted):
            fuel.tick(budget + overspent)
    return fuel


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_periodic_guide_matches_prefix_and_loop_property(data):
    kind = data.draw(st.sampled_from(["cycle", "arith-set"]))
    pattern = data.draw(st.lists(BITS, min_size=1, max_size=8))
    k = data.draw(st.integers(1, 8) | st.sampled_from(LONG_STEPS))
    seed, head = _seed(kind, pattern, k)
    bits = [int(b == 1) for b in pattern]
    both = k >= 2 if kind == "arith-set" else 0 in bits and 1 in bits
    # A guide that starves a side, or has a one past the budget, makes the
    # loop spend its whole budget on many calls.
    budget = data.draw(st.integers(1, 64) | st.just(streams.DEFAULT_FUEL)
                       | st.just(sys.maxsize + 5) if both and k <= 8 else st.integers(1, 64))
    masks = data.draw(st.lists(st.integers(0, 2**16), max_size=2))
    mask = 0
    for m in masks:
        mask ^= m
    if head is not None and data.draw(st.booleans()):
        fam = charpair.family(head + "".join(f",xor:{m}" for m in masks), budget)
    else:
        fam = charpair.twist_family(charpair.family_from_seed(seed, budget), mask)
    assert isinstance(fam.guide, guide.PeriodicGuide)
    sources = (fam.guide, guide.GuidePrefix(seed, budget), seed)
    for _ in range(4):
        overspent = data.draw(st.sampled_from([0, 0, 0, 1, 3]))
        if data.draw(st.booleans()):
            x, y = data.draw(st.integers(0, 2**12)), data.draw(st.integers(0, 2**12))
            op, args = charpair.generic_pair, (x, y)
            got = outcome(lambda: fam.pair(x, y))
            want = outcome(lambda: charpair.generic_pair(
                seed, x, y, _fuel(budget, seed.label)) ^ mask)
        else:
            n = data.draw(st.integers(0, 2**24))
            op, args = charpair.generic_unpair, (n,)
            got = outcome(lambda: fam.unpair(n))
            want = outcome(lambda: charpair.generic_unpair(
                seed, n ^ mask, _fuel(budget, seed.label)))
        assert got == want
        answers = []
        for source in sources:
            fuel = _fuel(budget, seed.label, overspent)
            answers.append((outcome(lambda: op(source, *args, fuel)), fuel.remaining))
        assert answers[0] == answers[1] == answers[2]
    refused = []
    for source in sources[:2]:
        with pytest.raises(ValueError, match="exceeds the budget") as e:
            op(source, *args, streams.Fuel(budget + 1))
        refused.append(str(e.value))
    assert refused[0] == refused[1]
    if both:
        loop = [int(b == 1) for b in islice(seed.bits(streams.Fuel(1000)), 200)]
        wide = guide.PeriodicGuide(seed, guide.periodic_pattern(seed), 1000)
        ones = sum(loop)
        assert wide.merge(bytes([1] * ones), bytes(200 - ones), streams.Fuel(1000)) == bytes(loop)


def test_periodic_guide_answers_the_loop_on_wide_inputs():
    x, y = 2**1000 + 12345, 3**600
    for k in (2, 3, 5, 8):
        seed = charpair.preset_seed("arith-set", k)
        fam = charpair.family_from_seed(seed)
        n = fam.pair(x, y)
        assert n == charpair.generic_pair(seed, x, y)
        assert fam.unpair(n) == charpair.generic_unpair(seed, n) == (x, y)


def test_periodic_pattern_reads_cycles_and_arithmetic_sets():
    def pattern(encoder, payload):
        return guide.periodic_pattern(charpair.SeedSpec(encoder, payload, "p"))

    assert pattern(encoders.BINS, streams.cycle([1, 0])) == 2
    assert pattern(encoders.BINS, streams.cycle([1.0, False, 0, 1])) == 4
    assert pattern(encoders.SET, streams.arith(0, 3)) == 3
    assert pattern(encoders.SET, streams.arith(0, 10**30)) == 10**30
    # The shape alone gives the period, for patterns that starve a side or hold a bad bit too.
    assert pattern(encoders.BINS, streams.cycle([2, 0])) == 2
    assert pattern(encoders.BINS, streams.cycle([0])) == 1
    assert pattern(encoders.BINS, streams.cycle([1, 1.0])) == 2
    assert pattern(encoders.SET, streams.arith(0, 1)) == 1
    # Shapes that say nothing of a period from position 0.
    for encoder, payload in [(encoders.SET, streams.arith(1, 3)),
                             (encoders.LIST, streams.cycle([1, 0])),
                             (encoders.BINS, streams.arith(0, 2)),
                             (encoders.BINS, streams.from_list([1, 0])),
                             (encoders.BINS, [1, 0])]:
        assert pattern(encoder, payload) == 0


DEGENERATE_CYCLES = [[0], [1], [1, 1.0, True], [0, False], [2, 0], [1, 0, 2], [0.5, 1, 0],
                     [1, 0, 1, 0, 3]]


def test_periodic_guide_over_degenerate_patterns_answers_as_the_loop():
    # A pattern that starves a side or holds a bad bit fails in the prefix's
    # _cover, _grow or _fail before any bit is placed, as a plain prefix does.
    seeds = [charpair.SeedSpec(encoders.BINS, streams.cycle(t), f"cycle {t}")
             for t in DEGENERATE_CYCLES]
    seeds.append(charpair.preset_seed("arith-set", 1))
    calls = [(charpair.generic_pair, xy) for xy in [(0, 0), (1, 0), (0, 1), (5, 3), (2**9, 7)]]
    calls += [(charpair.generic_unpair, (n,)) for n in (0, 1, 2, 6, 2**9 + 5)]
    for seed in seeds:
        for budget in (1, 2, 3, 7, 64, 300):
            sources = (guide.PeriodicGuide(seed, guide.periodic_pattern(seed), budget),
                       guide.GuidePrefix(seed, budget), seed)
            for op, args in calls:
                for overspent in (0, 2):
                    answers = []
                    for source in sources:
                        fuel = _fuel(budget, seed.label, overspent)
                        answers.append((outcome(lambda: op(source, *args, fuel)), fuel.remaining))
                    assert answers[0] == answers[1] == answers[2], \
                        (seed.label, budget, op.__name__, args)


@pytest.mark.parametrize("k", [*LONG_STEPS, 2**70])
def test_long_arith_steps_build_in_little_memory(k):
    tracemalloc.start()
    try:
        fam = charpair.family(f"arith-set:{k}")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000
    assert isinstance(fam.guide, guide.PeriodicGuide)
    assert (fam.pair(1, 0), fam.pair(0, 1)) == (1, 2)


@pytest.mark.parametrize("k", [*LONG_STEPS, 2**70])
def test_long_arith_steps_answer_the_loop(k):
    fam = charpair.family(f"arith-set:{k}")
    seed = fam.guide.seed
    for x, y in [(1, 0), (0, 5), (1, 1)]:
        assert outcome(lambda: fam.pair(x, y)) == outcome(lambda: charpair.generic_pair(seed, x, y))
    small = charpair.family_from_seed(seed, 1000)
    for n in (0, 1, 2, 7):
        assert outcome(lambda: small.unpair(n)) == \
            outcome(lambda: charpair.generic_unpair(seed, n, streams.Fuel(1000, label=f"seed {seed.label}")))


def test_gaps_past_the_word_size_read_as_endless_zeros():
    # No reader reads past sys.maxsize positions, so a longer gap needs no count.
    seed = charpair.preset_seed("arith-set", 2**70)
    assert charpair.generic_pair(seed, 1, 0) == 1
    assert charpair.generic_pair(guide.GuidePrefix(seed), 1, 0) == 1


@pytest.mark.parametrize("spec", ["morton", *(f"arith-set:{k}" for k in range(2, 9)),
                                  "morton,xor:5", "arith-set:2,xor:3", "arith-set:7,xor:1,xor:9"])
def test_periodic_families_take_the_periodic_guide(spec):
    fam = charpair.family(spec)
    assert isinstance(fam.guide, guide.PeriodicGuide)
    assert fam.guide.seed.label == spec.partition(",")[0]


def test_other_families_keep_the_prefix(tmp_path):
    path = tmp_path / "alternating.bits"
    path.write_text("1 0 " * 50)
    specs = ["squares", "powers2", "syracuse", "bits-of-naturals",
             f"seed-file:{path}", f"seed-file:{path}:set"]
    families = [charpair.family(spec) for spec in specs]
    assert all(type(fam.guide) is guide.GuidePrefix for fam in families)
    # Shaped seeds that starve a side or hold a bad bit take the periodic source.
    degenerate = [charpair.family(spec) for spec in ("arith-set:1", "arith-set:1,xor:3")]
    degenerate += [charpair.family_from_seed(charpair.SeedSpec(encoders.BINS, streams.cycle(t),
                                                               f"cycle {t}"))
                   for t in ([0], [1], [2, 0])]
    assert all(type(fam.guide) is guide.PeriodicGuide for fam in degenerate)


PERIODIC_SPECS = ["morton", *(f"arith-set:{k}" for k in range(2, 9)), "arith-set:100",
                  f"arith-set:{10**12}"]


@pytest.mark.parametrize("budget", [64, 257, 2000, 5000])
@pytest.mark.parametrize("width", [2**10, 2**11, 2**12])
@pytest.mark.parametrize("spec", PERIODIC_SPECS)
def test_wide_calls_match_prefix_and_loop(spec, width, budget):
    # Wide inputs whose calls run out of fuel part way at the smaller budgets.
    fam = charpair.family(spec, budget)
    seed = fam.guide.seed
    assert isinstance(fam.guide, guide.PeriodicGuide)
    top = 1 << (width - 1)
    x, y = top | 0x5A5A5A5A5A5A5A5A, top | (3**(width // 2) % top)
    calls = [(charpair.generic_pair, (x, y)), (charpair.generic_pair, (x, 0)),
             (charpair.generic_pair, (1, y)), (charpair.generic_unpair, (x,)),
             (charpair.generic_unpair, (y >> 1,))]
    sources = (fam.guide, guide.GuidePrefix(seed, budget), seed)
    for op, args in calls:
        answers = []
        for source in sources:
            fuel = _fuel(budget, seed.label)
            answers.append((outcome(lambda: op(source, *args, fuel)), fuel.remaining))
        assert answers[0] == answers[1] == answers[2], (op.__name__, args)
        by_family = fam.pair if op is charpair.generic_pair else fam.unpair
        assert outcome(lambda: by_family(*args)) == answers[2][0]


def test_periodic_family_keeps_about_24_bytes_a_position_read():
    x, y = 2**10**4 - 1, 2**10**4 - 3
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fam = charpair.family("morton")
        fam.pair(x, y)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    read = fam.guide._state[1]  # the positions the prefix has read
    assert read >= 2 * 10**4
    assert kept <= 32 * read
