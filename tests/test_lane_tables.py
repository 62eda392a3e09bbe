"""The lane tables a guide family builds on its second call, against the generic construction."""

import copy
from itertools import count
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairbij import charpair, encoders, guide, streams
from pairbij.errors import FuelExhausted, ZeroArgument

CAP = guide.CAP
# W per preset: the ones or the zeros below CAP, whichever are fewer.
WIDTHS = {"morton": 128, "arith-set:2": 128, "arith-set:3": 86, "bits-of-naturals": 113,
          "squares": 16, "syracuse": 21, "powers2": 8}
BUDGETS = [3, 200, 257, 258, 300, streams.DEFAULT_FUEL]


def _outcome(call) -> tuple:
    """What a call returned, or the type, message and fields of any error it raised."""
    try:
        return ("returned", call())
    except Exception as e:
        return (type(e).__name__, str(e), vars(e))


def _raising_seed(at: int = 100) -> charpair.SeedSpec:
    """An alternating guide whose generator raises a ValueError at position `at`."""
    def bits():
        for i in count():
            if i == at:
                raise ValueError(f"guide broke at position {at}")
            yield i & 1

    return charpair.SeedSpec(encoders.BINS, streams.Stream(bits), f"raises at {at}")


def _width(seed: charpair.SeedSpec) -> int:
    """The fewer of the ones and the zeros among the guide's first CAP positions,
    counted up to where the guide ends or fails."""
    ones = read = 0
    try:
        for bit in seed._guide():
            if read == CAP:
                break
            ones += bit == 1
            read += 1
    except Exception:
        pass
    return min(ones, read - ones)


def _nat(data, width: int) -> int:
    """A natural of exactly `width` bits."""
    return data.draw(st.integers(0, (1 << width) - 1)) | 1 << width >> 1


@pytest.fixture(scope="module")
def seed_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("lane-seeds")


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_tables_match_generic_property(seed_dir, data):
    kind = data.draw(st.sampled_from(["preset", "arith-set", "file", "raises"]))
    budget = data.draw(st.sampled_from(BUDGETS))
    mask = data.draw(st.sampled_from([0, 0, 5, 2**40 + 3, 2**300 + 1]))
    if kind == "preset":
        head = data.draw(st.sampled_from(["morton", "squares", "powers2", "syracuse",
                                          "bits-of-naturals"]))
        seed = charpair.preset_seed(head)
    elif kind == "arith-set":
        k = data.draw(st.integers(1, 4))
        if k == 1:  # the all-ones guide starves: the loop would spend the default budget per call
            budget = data.draw(st.sampled_from(BUDGETS[:-1]))
        head, seed = f"arith-set:{k}", charpair.preset_seed("arith-set", k)
    elif kind == "file":  # shorter than CAP, so the tables' split runs off its end
        enc = data.draw(st.sampled_from(["bins", "list", "set"]))
        bits = data.draw(st.lists(st.integers(0, 1), max_size=CAP - 1))
        path = seed_dir / f"{abs(hash(tuple(bits)))}.bits"
        path.write_text("".join(map(str, bits)))
        head, seed = f"seed-file:{path}:{enc}", charpair.seed_from_file(path, enc)
    else:
        head, seed = None, _raising_seed()
    if head is None:
        fam = charpair.twist_family(charpair.family_from_seed(seed, budget), mask)
    else:
        fam = charpair.family(head + (f",xor:{mask}" if mask else ""), budget)
    w = _width(seed)
    label = f"seed {seed.label}"
    source = fam.guide  # it holds the tables once the family has built them
    # The first two calls build the tables, if any; the later ones may be served by them.
    for _ in range(data.draw(st.integers(3, 8))):
        # fuel of the budget, some of it spent before the call
        spent = min(data.draw(st.sampled_from([0, 0, 1, 100, budget])), budget)
        fuels = [streams.Fuel(budget, label=label) for _ in range(2)]
        for f in fuels:
            f.tick(spent)
        if data.draw(st.booleans()):
            x = _nat(data, data.draw(st.integers(0, w + 1)))
            y = _nat(data, data.draw(st.integers(0, w + 1)))
            got = _outcome(lambda: fam.pair(x, y))
            want = _outcome(lambda: charpair.generic_pair(
                seed, x, y, streams.Fuel(budget, label=label)) ^ mask)
            op, args = charpair.generic_pair, (x, y)
        else:
            if data.draw(st.booleans()):
                n = data.draw(st.sampled_from([2**CAP - 1, 2**CAP, 2**CAP + 1]))
            else:
                n = _nat(data, data.draw(st.integers(0, CAP + 2)))
            got = _outcome(lambda: fam.unpair(n))
            want = _outcome(lambda: charpair.generic_unpair(
                seed, n ^ mask, streams.Fuel(budget, label=label)))
            op, args = charpair.generic_unpair, (n ^ mask,)
        assert got == want
        # the source itself, with fuel already spent: the same outcome and fuel left
        got, want = ((_outcome(lambda: op(s, *args, f)), f.remaining)
                     for s, f in zip((source, seed), fuels))
        assert got == want


@pytest.mark.parametrize("spec, w", WIDTHS.items())
def test_table_width_per_preset(spec, w):
    fam = charpair.family(spec)
    tables = guide.lane_tables(fam.guide, streams.DEFAULT_FUEL)
    assert tables.limit == 1 << w


def _tabled(spec: str, budget: int = streams.DEFAULT_FUEL) -> charpair.PairingFamily:
    """A family of spec after two calls, so that its guide holds its lane tables."""
    fam = charpair.family(spec, budget)
    fam.unpair(0)
    fam.unpair(0)
    assert fam.guide.tables is not None
    return fam


@pytest.mark.parametrize("spec", WIDTHS)
def test_tables_charge_what_the_loop_reads_at_every_length(spec):
    # every bit length the tables serve, at both ends of its range, with fuel to spare
    fam = _tabled(spec)
    seed, w = fam.guide.seed, WIDTHS[spec]
    ns = [n for k in range(1, CAP + 1) for n in (1 << k - 1, (1 << k) - 1)]
    xys = [(x, y) for k in range(w + 1) for x, y in ((1 << k >> 1, 0), (0, (1 << k) - 1),
                                                     ((1 << k) - 1, 1 << k >> 1))]
    for op, args in [(charpair.generic_unpair, (n,)) for n in ns] + [
            (charpair.generic_pair, xy) for xy in xys]:
        left = []
        for source in (fam.guide, seed):
            fuel = streams.Fuel(streams.DEFAULT_FUEL)
            got = op(source, *args, fuel)
            left.append((got, fuel.remaining))
        assert left[0] == left[1], (op.__name__, args)


@pytest.mark.parametrize("call", [lambda g, f: charpair.generic_pair(g, 5, 3, f),
                                  lambda g, f: charpair.generic_unpair(g, 39, f)],
                         ids=["pair", "unpair"])
@pytest.mark.parametrize("spec", ["morton", "squares"])
def test_tables_refuse_fuel_past_the_budget(spec, call):
    fam = _tabled(spec, 1000)
    with pytest.raises(ValueError, match="exceeds the budget"):
        call(fam.guide, streams.Fuel(1001))


@pytest.mark.parametrize("spec, budget", [("morton", 3), ("morton", 200), ("morton", 257),
                                          ("arith-set:1", 2000), ("powers2", 257)])
def test_no_tables_where_the_budget_or_guide_allows_none(spec, budget):
    fam = charpair.family(spec, budget)
    assert guide.lane_tables(fam.guide, budget) is None


def test_no_tables_on_a_short_seed_file_or_a_failing_guide(tmp_path):
    path = tmp_path / "short.bits"
    path.write_text("10" * 100)
    short = charpair.family(f"seed-file:{path}").guide
    assert guide.lane_tables(short, streams.DEFAULT_FUEL) is None
    raising = charpair.family_from_seed(_raising_seed()).guide
    assert guide.lane_tables(raising, streams.DEFAULT_FUEL) is None
    # the error stays with the calls that reach it
    with pytest.raises(ValueError, match="guide broke at position 100"):
        charpair.generic_pair(raising, 2**50, 0)


def _served(fam, calls) -> list[bool]:
    """For each call, whether it was answered without converting a bit form."""
    served = []
    with mock.patch.object(charpair, "_nat_to_bits", wraps=charpair._nat_to_bits) as to_bits:
        for call in calls:
            before = to_bits.call_count
            call(fam)
            served.append(to_bits.call_count == before)
    return served


def test_tables_build_after_the_second_call_and_serve_from_the_third():
    with mock.patch.object(charpair, "lane_tables", wraps=charpair.lane_tables) as build:
        once = charpair.family("morton")
        assert once.unpair(0) == (0, 0)
        assert build.call_count == 0 and once.guide.tables is None  # called once, built nothing
        fam = charpair.family("bits-of-naturals,xor:3")
        calls = [lambda f: f.pair(5, 3), lambda f: f.unpair(9), lambda f: f.pair(2**64, 1),
                 lambda f: f.unpair(2**200), lambda f: f.pair(2**113, 0),
                 lambda f: f.unpair(2**CAP), lambda f: f.pair(True, 1), lambda f: f.unpair(0)]
        assert _served(fam, calls) == [False, False, True, True, False, False, True, True]
        assert build.call_count == 1


def test_a_family_that_gets_no_tables_never_tries_again():
    fam = charpair.family("morton", 200)
    with mock.patch.object(charpair, "lane_tables", wraps=charpair.lane_tables) as build:
        for _ in range(5):
            with pytest.raises(FuelExhausted):
                fam.pair(2**200, 0)
    assert build.call_count == 1 and fam.guide.tables is None


def test_calls_the_tables_do_not_serve_fail_as_before():
    fam = charpair.family("squares")
    for _ in range(3):
        assert fam.unpair(0) == (0, 0)
    with pytest.raises(ZeroArgument, match="got x=1.5, y=0"):
        fam.pair(1.5, 0)
    with pytest.raises(ZeroArgument, match="got -3"):
        fam.unpair(-3)


def test_lane_table_doubles_targets():
    assert guide.lane_table([]) == [0]
    assert guide.lane_table([1, 0, 4]) == [0, 1, 0, 1, 4, 5, 4, 5]
    xt, yt = guide.extract_targets([0, 3], [1, 2])
    assert (xt, yt) == ([1, 0, 0, 2], [0, 1, 2, 0])


def _metered(call, fuel: streams.Fuel) -> tuple:
    """The outcome of call(f), as its repr, and the fuel f leaves, f a copy of fuel."""
    f = copy.copy(fuel)
    return repr(_outcome(lambda: call(f))), f.remaining


def _sources(seed: charpair.SeedSpec, budget: int) -> list:
    """The seed, and each guide source over it without lane tables and with any it gets."""
    period = guide.periodic_pattern(seed)
    sources = [seed]
    for make in [lambda: guide.GuidePrefix(seed, budget)] + (
            [lambda: guide.PeriodicGuide(seed, period, budget)] if period else []):
        bare, tabled = make(), make()
        tabled.tables = guide.lane_tables(tabled, budget)
        sources += [bare, tabled]
    return sources


@pytest.mark.parametrize("spec, budget", [
    *((spec, budget) for spec in ("morton", "squares", "bits-of-naturals", "arith-set:3")
      for budget in (258, streams.DEFAULT_FUEL)),
    ("arith-set:1", 258), ("arith-set:1", 2000),  # it starves: each call reads the budget
    (None, streams.DEFAULT_FUEL),  # _raising_seed
])
def test_source_entries_answer_as_generic_over_the_seed(spec, budget):
    # Each source's own pair and unpair, called directly, against generic_pair and
    # generic_unpair over the plain seed, on both sides of the tables' limits, with
    # fresh fuel, fuel of exactly the positions the call reads (and one less), and
    # fuel spent past its budget before the call.
    seed = charpair.family(spec).guide.seed if spec else _raising_seed()
    sources = _sources(seed, budget)
    if budget == streams.DEFAULT_FUEL and spec:
        assert all(s.tables for s in sources[2::2])
    w = _width(seed)
    edges = [0, 1, (1 << w) - 1, 1 << w, 1 << w | 5]
    calls = [("pair", (x, y)) for x in edges for y in edges]
    calls += [("unpair", (n,)) for n in (0, 6, 2**CAP - 1, 2**CAP, 2**CAP + 3)]
    label = f"seed {seed.label}"
    for name, args in calls:
        generic = getattr(charpair, f"generic_{name}")
        fresh = streams.Fuel(budget, label=label)
        _outcome(lambda: generic(seed, *args, fresh))
        reads = max(budget - max(fresh.remaining, 0), 1)
        overspent = streams.Fuel(budget, label=label)
        with pytest.raises(FuelExhausted):
            overspent.tick(budget + 2)
        fuels = [streams.Fuel(k, label=label) for k in (budget, reads, max(reads - 1, 1))]
        for fuel in [*fuels, overspent]:
            answers = {_metered(lambda f: getattr(source, name)(*args, f), fuel)
                       for source in sources}
            assert answers == {_metered(lambda f: generic(seed, *args, f), fuel)}, \
                (name, args, fuel.budget, fuel.remaining)


def _charged(call, args) -> tuple:
    """What call(*args, fuel) returns, and the fuel it leaves of a fresh default budget."""
    fuel = streams.Fuel(streams.DEFAULT_FUEL)
    return call(*args, fuel), fuel.remaining


@pytest.mark.parametrize("spec", ["morton", "squares", "syracuse", "powers2", "bits-of-naturals",
                                  # arith-set:1 has no zero, so no tables
                                  *(f"arith-set:{k}" for k in range(2, 9)), "seed-file"])
def test_table_charges_equal_the_codec_path_at_every_length(spec, seed_dir):
    # Every bit length the tables serve, pinned: x of 1 to W bits, at both ends of
    # its range, beside a 1-bit y (0 and 1) and the reverse, and n of 0 to CAP bits.
    # Each table-served call must give the answer, and leave the fuel, of the codec
    # over the same source.
    if spec == "seed-file":  # runs of 1 to 3 ones and 1 to 4 zeros, past CAP
        path = seed_dir / "irregular-runs.bits"
        path.write_text("".join("1" * (i % 3 + 1) + "0" * (i % 4 + 1) for i in range(80)))
        spec = f"seed-file:{path}"
    source = _tabled(spec).guide
    w = source.tables.limit.bit_length() - 1
    calls = [("pair", xy) for k in range(1, w + 1) for v in (1 << k - 1, (1 << k) - 1)
             for b in (0, 1) for xy in ((v, b), (b, v))]
    calls += [("unpair", (n,)) for k in range(CAP + 1) for n in {1 << k >> 1, (1 << k) - 1}]
    with mock.patch.object(charpair, "_nat_to_bits", side_effect=AssertionError("no table")):
        served = [_charged(getattr(source, name), args) for name, args in calls]
    for (name, args), got in zip(calls, served):
        want = _charged(getattr(charpair.SeedSpec, f"codec_{name}"), (source, *args))
        assert got == want, (name, args)
