import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairbij import nadic, streams
from pairbij.errors import InvalidBase, ZeroArgument
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
