from itertools import repeat

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pairbij import encoders, nadic, streams
from pairbij.errors import InvalidBase, PairbijError, ZeroArgument
from pairbij.invariants import decons_by_division


def val2_oracle(z: int) -> int:
    """2-adic valuation via the lowest set bit, independent of the division loop."""
    return (z & -z).bit_length() - 1


def test_cons_golden():
    assert nadic.cons(3, 10, 20) == 1830519


def test_decons_golden():
    assert nadic.decons(3, 1830519) == (10, 20)
    assert nadic.head(3, 1830519) == 10
    assert nadic.tail(3, 1830519) == 20


@pytest.mark.parametrize("b", range(2, 17))
def test_cons_identity_case(b):
    assert nadic.cons(b, 0, 0) == 1
    assert nadic.decons(b, 1) == (0, 0)
    assert nadic.pair(b, 0, 0) == 0
    assert nadic.unpair(b, 0) == (0, 0)


def test_cons_base2_values():
    assert nadic.cons(2, 3, 5) == 88
    assert nadic.decons(2, 88) == (3, 5)
    assert nadic.pair(2, 3, 5) == 87
    assert nadic.unpair(2, 87) == (3, 5)


def test_head_is_valuation():
    assert nadic.head(2, 96) == 5  # 96 = 2^5 * 3
    assert nadic.head(2, 1) == 0
    for z in range(1, 3000):
        assert nadic.head(2, z) == val2_oracle(z)
        assert nadic.decons(2, z) == decons_by_division(2, z)


@given(st.integers(min_value=0, max_value=2**1999 - 1), st.integers(min_value=0, max_value=3000))
def test_decons_base2_matches_division_property(k, v):
    z = 2**v * (2 * k + 1)
    assert nadic.decons(2, z) == decons_by_division(2, z)


@settings(deadline=None)
@given(
    st.integers(min_value=3, max_value=40),
    st.integers(min_value=0, max_value=400),
    st.integers(min_value=1, max_value=2**200),
)
def test_decons_matches_division_property(b, v, u):
    # u may hold further factors of b, so z need not be a cons output of (v, .)
    z = b**v * u
    assert nadic.decons(b, z) == decons_by_division(b, z)


@pytest.mark.parametrize("b", [3, 7])
@pytest.mark.parametrize("y", [0, 0xC3A5C85C97CB3127])
def test_decons_matches_division_at_benchmark_scale(b, y):
    z = nadic.cons(b, 10**4, y)
    assert nadic.decons(b, z) == decons_by_division(b, z) == (10**4, y)


@pytest.mark.parametrize("b", [3, 5, 7, 10, 16, 37])
def test_decons_matches_division_on_exact_powers(b):
    for v in [*range(60), 500, 3000]:
        z = b**v
        assert nadic.decons(b, z) == decons_by_division(b, z) == (v, 0)


@pytest.mark.parametrize("b", [3, 5, 7, 10, 16, 37])
def test_decons_matches_division_off_multiples(b):
    for k in range(600):
        for r in range(1, b):
            for z in (k * b + r, (b**300 + k) * b + r):
                got = nadic.decons(b, z)
                assert got == decons_by_division(b, z) and got[0] == 0


def test_unpair_base2_huge_valuation():
    for y in (0, 1, 12345, 2**70 + 3):
        assert nadic.unpair(2, nadic.pair(2, 10**5, y)) == (10**5, y)


def test_unpair_table_base3():
    want = [(0, 0), (0, 1), (1, 0), (0, 2), (0, 3), (1, 1), (0, 4), (0, 5)]
    got = [nadic.unpair(3, n) for n in range(8)]
    assert got == want
    assert [nadic.pair(3, x, y) for x, y in got] == list(range(8))


def test_pair_base2_closed_form():
    for x in range(15):
        for y in range(30):
            assert nadic.pair(2, x, y) == 2**x * (2 * y + 1) - 1


@pytest.mark.parametrize("b", [2, 3, 5, 7, 11, 16])
def test_pair_unpair_roundtrip(b):
    seen = set()
    for n in range(2000):
        p = nadic.unpair(b, n)
        assert nadic.pair(b, *p) == n
        seen.add(p)
    assert len(seen) == 2000


@pytest.mark.parametrize("b", [2, 3, 5, 7, 11, 16])
def test_cons_decons_roundtrip(b):
    for x in range(12):
        for y in range(40):
            assert nadic.decons(b, nadic.cons(b, x, y)) == (x, y)


def test_nat_to_nats_golden():
    assert nadic.nat_to_nats(3, 2012) == [0, 2, 2, 0, 0, 0, 0]
    assert nadic.nats_to_nat(3, [0, 2, 2, 0, 0, 0, 0]) == 2012
    assert nadic.nat_to_nats(2, 300) == [2, 0, 1, 2]
    assert nadic.nats_to_nat(7, [2, 0, 1, 2]) == 27146


def test_nat_to_nats_empty():
    for b in (2, 3, 9):
        assert nadic.nat_to_nats(b, 0) == []
        assert nadic.nats_to_nat(b, []) == 0


@pytest.mark.parametrize("b", [2, 3, 7, 16])
def test_nats_roundtrip(b):
    for n in range(2000):
        assert nadic.nats_to_nat(b, nadic.nat_to_nats(b, n)) == n


def test_bij_tables():
    want23 = [0, 1, 3, 2, 9, 5, 6, 4, 27, 14, 15, 8, 18, 10, 12, 7, 81, 41, 42,
              22, 45, 23, 24, 13, 54, 28, 30, 16, 36, 19, 21, 11]
    want32 = [0, 1, 3, 2, 7, 5, 6, 15, 11, 4, 13, 31, 14, 23, 9, 10, 27, 63,
              12, 29, 47, 30, 19, 21, 22, 55, 127, 8, 25, 59, 26, 95]
    assert [nadic.bij(2, 3, n) for n in range(32)] == want23
    assert [nadic.bij(3, 2, n) for n in range(32)] == want32


def test_bij_same_base_is_identity():
    for b in (2, 3, 10):
        for n in range(200):
            assert nadic.bij(b, b, n) == n


def test_bij_composition_law():
    for k in range(2, 6):
        for l in range(2, 6):
            for n in range(300):
                assert nadic.bij(l, k, nadic.bij(k, l, n)) == n


def test_mixed_base_golden():
    bases = streams.arith(2, 1)
    assert nadic.nats_to_nat_mixed(bases, [2, 0, 1, 2]) == 1644
    assert nadic.nat_to_nats_mixed(bases, 1644) == [2, 0, 1, 2]


def test_mixed_base_permutation_table():
    bases = streams.arith(2, 1)
    got = [nadic.nats_to_nat_mixed(bases, nadic.nat_to_nats(2, n)) for n in range(16)]
    assert got == [0, 1, 2, 3, 4, 7, 6, 5, 8, 19, 14, 15, 12, 13, 10, 9]


def test_mixed_base_empty():
    assert nadic.nat_to_nats_mixed(streams.cycle([5]), 0) == []
    assert nadic.nats_to_nat_mixed(streams.cycle([5]), []) == 0


def test_mixed_constant_base_agrees_with_single():
    twos = streams.cycle([2])
    assert nadic.nat_to_nats_mixed(twos, 300) == [2, 0, 1, 2]
    for n in range(1000):
        assert nadic.nat_to_nats_mixed(twos, n) == nadic.nat_to_nats(2, n)
        assert nadic.nats_to_nat_mixed(twos, nadic.nat_to_nats(2, n)) == n


def test_mixed_consumes_one_base_per_element():
    pulls = []

    def gen():
        b = 2
        while True:
            pulls.append(b)
            yield b
            b += 1

    out = nadic.nat_to_nats_mixed(streams.Stream(gen), 1644)
    assert len(pulls) == len(out)


@pytest.mark.parametrize("fn", [
    lambda: nadic.cons(1, 0, 0),
    lambda: nadic.decons(0, 5),
    lambda: nadic.nat_to_nats(1, 3),
    lambda: nadic.nats_to_nat(1, [1]),
    lambda: nadic.nat_to_nats_mixed(streams.cycle([1]), 3),
])
def test_invalid_base_raises(fn):
    with pytest.raises(InvalidBase):
        fn()


def test_decons_zero_raises():
    with pytest.raises(ZeroArgument):
        nadic.decons(2, 0)


@pytest.mark.parametrize("fn", [
    lambda: nadic.cons(3, -2, 1),
    lambda: nadic.cons(2, 0, -1),
    lambda: nadic.pair(2, -1, 0),
    lambda: nadic.pair(3, 0, -5),
    lambda: nadic.nats_to_nat(2, [-1]),
    lambda: nadic.nats_to_nat(3, [0, -1, 2]),
    lambda: nadic.nats_to_nat_mixed(streams.arith(2, 1), [1, -1]),
])
def test_negative_arguments_raise(fn):
    # unchecked, these give floats (-0.5, 0.222...) or negatives (-8): not exact naturals
    with pytest.raises(ZeroArgument, match="defined on naturals"):
        fn()


@pytest.mark.parametrize("fn, power", [
    (lambda: nadic.pair(2, 10**20, 0), f"2**{10**20}"),
    (lambda: nadic.pair(3, 10**20, 0), f"3**{10**20}"),
    (lambda: nadic.pair(2**64, 2**58, 0), f"{2**64}**{2**58}"),
    (lambda: nadic.nats_to_nat(2, [10**20]), f"2**{10**20}"),
    (lambda: nadic.nats_to_nat_mixed(streams.arith(2, 1), [10**20]), f"2**{10**20}"),
], ids=["pair-2", "pair-3", "pair-2**64", "fold-2", "fold-mixed"])
def test_results_past_any_int_raise(fn, power):
    # refused, not built: at 3**10**20 the power would run on for ever
    with pytest.raises(PairbijError) as info:
        fn()
    assert str(info.value) == f"{power} has more than sys.maxsize bits, more than any int can hold"


@pytest.mark.parametrize("fn, message", [
    (lambda: nadic.nat_to_nats(3, -1), "nat_to_nats is defined on naturals, got -1"),
    (lambda: nadic.nat_to_nats_mixed(streams.arith(2, 1), -1),
     "nat_to_nats_mixed is defined on naturals, got -1"),
])
def test_negative_expansion_names_its_function(fn, message):
    with pytest.raises(ZeroArgument) as info:
        fn()
    assert str(info.value) == message


@pytest.mark.parametrize("fn, message", [
    (lambda: nadic.nat_to_nats_mixed(streams.from_list([2]), 1644),
     "base stream ended before the expansion finished"),
    (lambda: nadic.nats_to_nat_mixed(streams.from_list([2]), [2, 0]),
     "base stream ended before the fold finished"),
])
def test_mixed_base_stream_ending_early_raises(fn, message):
    with pytest.raises(InvalidBase) as info:
        fn()
    assert str(info.value) == message


@given(st.integers(min_value=2, max_value=40), st.integers(min_value=0, max_value=10**30))
def test_pair_roundtrip_property(b, n):
    assert nadic.pair(b, *nadic.unpair(b, n)) == n


@given(st.integers(min_value=2, max_value=40), st.integers(min_value=0, max_value=10**24))
def test_nats_roundtrip_property(b, n):
    assert nadic.nats_to_nat(b, nadic.nat_to_nats(b, n)) == n


@given(
    st.integers(min_value=2, max_value=16),
    st.integers(min_value=0, max_value=60),
    st.integers(min_value=0, max_value=10**12),
)
def test_cons_decons_property(b, x, y):
    assert nadic.decons(b, nadic.cons(b, x, y)) == (x, y)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_unpair_columns_match_unpair(data):
    b = data.draw(st.integers(2, 10) | st.integers(2, 10**12))
    rows = data.draw(st.integers(1, 4096))
    if data.draw(st.booleans()):
        lo = data.draw(st.integers(0, 2**64))
    else:  # a block holding n = m * b**k - 1, where the valuation steps up
        p = data.draw(st.sampled_from([b**k for k in range(65) if b**k <= 2**64]))
        n = p * data.draw(st.integers(1, 2 * b)) - 1
        lo = max(n - data.draw(st.integers(0, rows - 1)), 0)
    xs, ys = nadic.unpair_columns(b, lo, lo + rows)
    assert list(zip(xs, ys)) == [nadic.unpair(b, n) for n in range(lo, lo + rows)]


# Base-2 fold elements: short gaps, and runs longer than 2**14.
base2_gaps = st.integers(0, 40) | st.integers(2**14 + 1, 2**15)


@settings(deadline=None)
@given(base2_gaps, st.integers(0, 2**300))
@example(0, 0)
def test_cons_base2_shift_matches_power_property(x, y):
    assert nadic.cons(2, x, y) == 2**x * (2 * y + 1)


@settings(deadline=None)
@given(st.lists(base2_gaps, max_size=30))
@example([])
@example([0, 0, 2**14 + 1, 0])
def test_nats_to_nat_base2_matches_binary_string_property(xs):
    # each element x is a one then x zeros, most significant element last
    want = int("".join("1" + "0" * x for x in reversed(xs)) or "0", 2)
    assert nadic.nats_to_nat(2, xs) == want
    assert nadic.nats_to_nat(2, iter(xs)) == want
    assert nadic.nat_to_nats(2, want) == xs


@pytest.mark.parametrize("call, message", [
    (lambda: nadic.cons(2, -1, 4), "cons is defined on naturals, got x=-1, y=4"),
    (lambda: nadic.nats_to_nat(2, [3, -1, 2]), "cons is defined on naturals, got x=-1, y=4"),
    (lambda: nadic.nats_to_nat(2, [-3]), "cons is defined on naturals, got x=-3, y=0"),
], ids=["cons", "fold", "fold-first"])
def test_base2_negative_element_message(call, message):
    # the same error as the general cons, with y the value folded so far
    with pytest.raises(ZeroArgument) as e:
        call()
    assert str(e.value) == message


@pytest.mark.parametrize("call, message", [
    (lambda: nadic.nats_to_nat(2, [1.5]), "cons is defined on naturals, got x=1.5, y=0"),
    (lambda: nadic.nats_to_nat(2, [3, "2", 1]), "cons is defined on naturals, got x='2', y=2"),
    (lambda: nadic.nats_to_nat(2, [None]), "cons is defined on naturals, got x=None, y=0"),
    (lambda: nadic.nats_to_nat(3, [1.5]), "cons is defined on naturals, got x=1.5, y=0"),
    (lambda: nadic.nats_to_nat(3, [2.0, 0]), "cons is defined on naturals, got x=2.0, y=1"),
    (lambda: nadic.nats_to_nat_mixed([3, 2], [1, 2.0]),
     "cons is defined on naturals, got x=2.0, y=0"),
    (lambda: nadic.nats_to_nat_mixed([2, 3], ["1", 0]),
     "cons is defined on naturals, got x='1', y=1"),
], ids=["base2", "base2-str", "base2-none", "base3", "base3-later", "mixed", "mixed-later"])
def test_fold_refuses_a_non_integer_element(call, message):
    # unchecked, nats_to_nat(3, [1.5]) returned the float 5.196... and
    # nats_to_nat(2, [1.5]) raised a bare TypeError from the shift
    with pytest.raises(ZeroArgument) as e:
        call()
    assert str(e.value) == message
    assert isinstance(e.value, TypeError)  # as Python's own refusal of such a value is


@pytest.mark.parametrize("call, message", [
    (lambda: nadic.pair(3, 2.0, 1), "pair is defined on naturals, got x=2.0, y=1"),
    (lambda: nadic.pair(2, 1, "3"), "pair is defined on naturals, got x=1, y='3'"),
    (lambda: nadic.unpair(3, 5.0), "unpair is defined on naturals, got 5.0"),
    (lambda: nadic.unpair(2, None), "unpair is defined on naturals, got None"),
], ids=["pair-float", "pair-str", "unpair-float", "unpair-none"])
def test_pairing_refuses_a_non_integer(call, message):
    # unchecked, pair(3, 2.0, 1) returned 17.0 and unpair(3, 5.0) gave (1, 1.0)
    with pytest.raises(ZeroArgument) as e:
        call()
    assert str(e.value) == message


@pytest.mark.parametrize("call, message", [
    (lambda: nadic.nat_to_nats(3, 9.0), "nat_to_nats is defined on naturals, got 9.0"),
    (lambda: nadic.bij(2, 3, 5.0), "nat_to_nats is defined on naturals, got 5.0"),
    (lambda: nadic.nat_to_nats_mixed([3] * 9, 9.0),
     "nat_to_nats_mixed is defined on naturals, got 9.0"),
    (lambda: nadic.unpair_columns(3, 0.5, 3), "unpair is defined on naturals, got 0.5"),
    (lambda: nadic.unpair_columns(3, 2, 1.5), "the end of a block must be an integer, got 1.5"),
    (lambda: nadic.nat_to_nats(3, -1), "nat_to_nats is defined on naturals, got -1"),
    (lambda: nadic.unpair_columns(3, -1, 3), "unpair is defined on naturals, got -1"),
], ids=["nat_to_nats", "bij", "mixed", "columns-lo", "columns-hi", "negative", "columns-negative"])
def test_cold_entries_refuse_a_non_integer(call, message):
    # unchecked, nat_to_nats(3, 9.0) returned [2] and unpair_columns(3, 2, 1.5) ([], [])
    with pytest.raises(ZeroArgument) as e:
        call()
    assert str(e.value) == message


@pytest.mark.parametrize("call", [
    lambda b: nadic.nat_to_nats(b, 9),
    lambda b: nadic.nats_to_nat(b, [0, 1, 0]),
    lambda b: nadic.unpair_columns(b, 0, 4),
    lambda b: encoders.nadic_nat(b),
    lambda b: nadic.bij(3, b, 9),
    lambda b: nadic.bij(b, 3, 9),
    lambda b: nadic.nat_to_nats_mixed(repeat(b), 40),
    lambda b: nadic.nats_to_nat_mixed(repeat(b), [1, 0]),
], ids=["nat_to_nats", "nats_to_nat", "unpair_columns", "nadic_nat", "bij-to", "bij-from",
        "nat_to_nats_mixed", "nats_to_nat_mixed"])
@pytest.mark.parametrize("b", [2.5, 2.0, "3", None])
def test_cold_entries_refuse_a_non_integer_base(call, b):
    # unchecked, nat_to_nats(2.5, 9) and nadic_nat(2.5).forward(9) returned [0, 1, 0],
    # bij(3, 2.5, 9) raised AttributeError and unpair_columns(2.5, 0, 4) a bare TypeError;
    # nat_to_nats_mixed(repeat(2.5), 40) returned [1, 0, 1, 0], and nats_to_nat_mixed
    # raised AttributeError on a base of 3.0 and TypeError on "3"
    with pytest.raises(InvalidBase) as e:
        call(b)
    assert str(e.value) == f"valuation base must be an integer, got {b!r}"


class IndexOnly:
    """An integer type that is not int, as numpy's are: it has __index__ only."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


def test_cold_entries_take_an_integer_base_through_index():
    assert nadic.nat_to_nats(IndexOnly(3), 9) == nadic.nat_to_nats(3, 9)
    assert nadic.nats_to_nat(IndexOnly(3), [1, 0]) == nadic.nats_to_nat(3, [1, 0])
    assert encoders.nadic_nat(IndexOnly(3)).name == "nadic:3"
    with pytest.raises(InvalidBase, match="must be >= 2, got 1"):
        nadic.nat_to_nats(True, 9)


def test_pairing_takes_a_bool_as_an_int():
    assert nadic.pair(3, True, 1) == nadic.pair(3, 1, 1)
    assert nadic.unpair(3, True) == nadic.unpair(3, 1)


def test_base2_fold_refuses_a_float():
    with pytest.raises(TypeError):
        nadic.nats_to_nat(2, [2.0])
    with pytest.raises(TypeError):
        nadic.cons(2, 2.0, 0)
