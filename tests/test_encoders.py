from itertools import count, islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairbij import encoders, streams
from pairbij.errors import (
    InvalidBit,
    NotNonDecreasing,
    NotStrictlyIncreasing,
    UnknownEncoder,
    ZeroArgument,
)

nat_lists = st.lists(st.integers(min_value=0, max_value=500), max_size=30)


def lsb_bits(n: int) -> list[int]:
    """Independent binary oracle: least-significant-first bits of n >= 1."""
    return [int(c) for c in bin(n)[2:]][::-1]


# -- groupoid laws ---------------------------------------------------------------

def test_identity_is_neutral():
    f = encoders.Iso(lambda x: x + 1, lambda x: x - 1)
    for g in (encoders.compose(encoders.identity, f), encoders.compose(f, encoders.identity)):
        for v in range(10):
            assert g.forward(v) == f.forward(v)
            assert g.backward(v) == f.backward(v)


def test_compose_with_inverse_is_identity():
    f = encoders.Iso(lambda x: 3 * x, lambda x: x // 3)
    g = encoders.compose(f, encoders.invert(f))
    for v in range(20):
        assert g.forward(v) == v
        assert g.backward(v) == v


def test_invert_is_involutive():
    f = encoders.Iso(lambda x: x + 5, lambda x: x - 5)
    h = encoders.invert(encoders.invert(f))
    for v in range(10):
        assert h.forward(v) == f.forward(v)
        assert h.backward(v) == f.backward(v)


def test_compose_is_associative():
    f = encoders.Iso(lambda x: x + 1, lambda x: x - 1)
    g = encoders.Iso(lambda x: 2 * x, lambda x: x // 2)
    h = encoders.Iso(lambda x: x + 10, lambda x: x - 10)
    left = encoders.compose(encoders.compose(f, g), h)
    right = encoders.compose(f, encoders.compose(g, h))
    for v in range(20):
        assert left.forward(v) == right.forward(v)
        assert left.backward(v + 12) == right.backward(v + 12)


def test_compose_routes_through_hub():
    # nat -> hub -> list, the composed backward realizes 300 -> [2,0,1,2]
    route = encoders.compose(encoders.NAT, encoders.invert(encoders.LIST))
    assert list(route.forward(300)) == [2, 0, 1, 2]


def test_invert_bins_forward_is_list_to_bins():
    flipped = encoders.invert(encoders.BINS)
    assert list(flipped.forward([2, 0, 1, 2])) == [0, 0, 1, 1, 0, 1, 0, 0, 1]


# -- mset and set ------------------------------------------------------------------

def test_list_mset_examples():
    assert list(encoders.list_to_mset([2, 0, 1, 2])) == [2, 2, 3, 5]
    assert list(encoders.mset_to_list([2, 2, 3, 5])) == [2, 0, 1, 2]
    assert list(encoders.list_to_mset([])) == []
    assert list(encoders.mset_to_list([])) == []


def test_list_set_examples():
    assert list(encoders.list_to_set([2, 0, 1, 2])) == [2, 3, 5, 8]
    assert list(encoders.set_to_list([2, 3, 5, 8])) == [2, 0, 1, 2]
    assert list(encoders.set_to_list([0, 2, 4, 5, 7, 8, 9])) == [0, 1, 1, 0, 1, 0, 0]


def test_mset_rejects_decreasing():
    with pytest.raises(NotNonDecreasing):
        list(encoders.mset_to_list([3, 1]))


def test_set_rejects_non_strict():
    with pytest.raises(NotStrictlyIncreasing):
        list(encoders.set_to_list([1, 1]))


def test_set_mset_triangle():
    s = [0, 2, 4, 5, 7, 8, 9]
    there = list(encoders.as_(encoders.MSET, encoders.SET, s))
    back = list(encoders.as_(encoders.SET, encoders.MSET, there))
    assert back == s


# -- bins ---------------------------------------------------------------------------

def test_bins_examples():
    assert list(encoders.list_to_bins([2, 0, 1, 2])) == [0, 0, 1, 1, 0, 1, 0, 0, 1]
    assert list(encoders.bins_to_list([0, 0, 1, 1, 0, 1, 0, 0, 1])) == [2, 0, 1, 2]


def test_bins_empty_is_zero_bit():
    assert list(encoders.list_to_bins([])) == [0]
    assert list(encoders.bins_to_list([0])) == []


def test_bins_even_seed_prefix():
    bits = streams.take(
        streams.Stream(lambda: encoders.list_to_bins(streams.arith(0, 2))), 20
    )
    assert bits == [1, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0]
    assert list(encoders.bins_to_list(bits)) == [0, 2, 4, 6]


def test_bins_rejects_non_bits():
    with pytest.raises(InvalidBit):
        list(encoders.bins_to_list([0, 2, 1]))


def _old_list_to_bins(ns):
    """The bit-at-a-time generator list_to_bins replaced, kept as its reference."""
    it = iter(ns)
    try:
        n = next(it)
    except StopIteration:
        yield 0
        return
    while True:
        for _ in range(n):
            yield 0
        yield 1
        try:
            n = next(it)
        except StopIteration:
            return


def _old_bins_to_list(bs):
    """The bit-at-a-time generator bins_to_list replaced, kept as its reference."""
    gap = 0
    for bit in bs:
        if bit == 0:
            gap += 1
        elif bit == 1:
            yield gap
            gap = 0
        else:
            raise InvalidBit(f"bit sequence may only contain 0 and 1, got {bit!r}")


def _read(convert, xs):
    """What list(convert(xs)) gave, or the type and message of what it raised."""
    try:
        return list(convert(xs))
    except Exception as e:
        return type(e), str(e)


# Zero gaps, gaps either side of the table of short runs, and long gaps.
hub_gaps = st.lists(st.one_of(st.just(0), st.integers(28, 36), st.integers(0, 10**5)), max_size=6)


@settings(max_examples=60, deadline=None)
@given(hub_gaps)
def test_list_to_bins_matches_bit_generator(xs):
    bits = list(encoders.list_to_bins(xs))
    assert bits == list(_old_list_to_bins(xs))
    assert list(encoders.bins_to_list(bits)) == list(_old_bins_to_list(bits)) == xs


def test_list_to_bins_is_lazy():
    assert list(islice(encoders.list_to_bins(count()), 6)) == [1, 0, 1, 0, 0, 1]
    pulled = []
    bits = encoders.list_to_bins(pulled.append(n) or n for n in [40, 2])
    assert pulled == []
    assert next(bits) == 0 and pulled == [40]
    assert list(bits) == [0] * 39 + [1, 0, 0, 1] and pulled == [40, 2]


not_bits = [2, -1, 256, "1", None, [1]]


@given(st.lists(st.sampled_from([0, 1]), max_size=60)
       | st.lists(st.sampled_from([0, 1, True, False]), max_size=60)
       | st.lists(st.sampled_from([0, 1, 1.0, 0.0]), max_size=60)
       | st.lists(st.sampled_from([0, 1] + not_bits), max_size=60))
def test_bins_to_list_matches_bit_generator(bits):
    assert _read(encoders.bins_to_list, bits) == _read(_old_bins_to_list, bits)


@pytest.mark.parametrize("bad", not_bits, ids=repr)
def test_bins_to_list_names_the_bad_bit(bad):
    bits = [0, 1, 1, bad, 0, 1]
    assert _read(encoders.bins_to_list, bits) == _read(_old_bins_to_list, bits)
    assert _read(encoders.bins_to_list, iter(bits)) == _read(_old_bins_to_list, bits)


@pytest.mark.parametrize("convert, xs, bad", [
    (encoders.list_to_bins, [2, -3], -3),
    (encoders.list_to_set, [-1, -1], -1),
    (encoders.list_to_mset, [-2, 1], -2),
], ids=["bins", "set", "mset"])
def test_hub_encoders_reject_negative_elements(convert, xs, bad):
    with pytest.raises(ZeroArgument, match=f"got {bad}$"):
        list(convert(xs))


def test_as_bins_set_golden():
    got = list(encoders.as_(encoders.BINS, encoders.SET, [0, 2, 4, 5, 7, 8, 9]))
    assert got == [1, 0, 1, 0, 1, 1, 0, 1, 1, 1]
    assert list(encoders.as_(encoders.SET, encoders.BINS, got)) == [0, 2, 4, 5, 7, 8, 9]


# -- the nat encoders -----------------------------------------------------------------

def test_as_nat_golden_values():
    assert encoders.as_(encoders.nadic_nat(3), encoders.LIST, [2, 0, 1, 2]) == 873
    assert encoders.as_(encoders.nadic_nat(7), encoders.LIST, [2, 0, 1, 2]) == 27146
    assert encoders.as_(encoders.NAT, encoders.LIST, [2, 0, 1, 2]) == 300
    assert list(encoders.as_(encoders.LIST, encoders.NAT, 300)) == [2, 0, 1, 2]


def test_nat_prime_golden_values():
    assert encoders.as_(encoders.NAT_PRIME, encoders.LIST, [2, 0, 1, 2]) == 1644
    assert list(encoders.as_(encoders.LIST, encoders.NAT_PRIME, 1644)) == [2, 0, 1, 2]


@pytest.mark.parametrize("name", ["nat", "nat-prime", "nadic:2", "nadic:7"])
def test_nat_encoders_reject_negative_elements(name):
    with pytest.raises(ZeroArgument):
        encoders.as_(encoders.by_name(name), encoders.LIST, [2, -1])


def test_bins_of_zero():
    assert list(encoders.as_(encoders.BINS, encoders.NAT, 0)) == [0]


def test_bins_of_nat_is_lsb_binary():
    assert list(encoders.as_(encoders.BINS, encoders.NAT, 6)) == [0, 1, 1]
    for n in range(1, 3000):
        assert list(encoders.as_(encoders.BINS, encoders.NAT, n)) == lsb_bits(n)


def test_nat_bins_roundtrip():
    for n in range(2000):
        bits = list(encoders.as_(encoders.BINS, encoders.NAT, n))
        assert encoders.as_(encoders.NAT, encoders.BINS, bits) == n


def test_self_routing_is_identity():
    for e in encoders.shipped_encoders():
        if e.name in ("nat", "nat-prime") or e.name.startswith("nadic:"):
            for n in (0, 1, 42, 2012):
                assert encoders.as_(e, e, n) == n
        else:
            v = [0, 2, 4, 5, 9]  # valid as list, mset and set
            if e.name == "bins":
                v = [1, 0, 1, 1]  # ends in 1: a normal-form bit list
            assert list(encoders.as_(e, e, v)) == v


def test_by_name():
    assert encoders.by_name("set") is encoders.SET
    assert encoders.by_name("nat-prime") is encoders.NAT_PRIME
    assert encoders.by_name("nadic:5").name == "nadic:5"
    with pytest.raises(UnknownEncoder):
        encoders.by_name("tree")
    with pytest.raises(UnknownEncoder):
        encoders.by_name("nadic:x")


# -- property sweeps -------------------------------------------------------------------

@given(nat_lists)
def test_mset_roundtrip_property(xs):
    ms = list(encoders.list_to_mset(xs))
    assert list(encoders.mset_to_list(ms)) == xs


@given(nat_lists)
def test_set_roundtrip_property(xs):
    s = list(encoders.list_to_set(xs))
    assert list(encoders.set_to_list(s)) == xs


@given(nat_lists)
def test_bins_roundtrip_property(xs):
    bs = list(encoders.list_to_bins(xs))
    assert list(encoders.bins_to_list(bs)) == xs


@given(st.lists(st.sampled_from([0, 1]), max_size=40))
def test_bins_normal_form_property(bits):
    # normal forms are [0] or end in 1; reconstruction is exact on those
    normal = [0] if not bits or 1 not in bits else bits[: max(i for i, b in enumerate(bits) if b) + 1]
    assert list(encoders.list_to_bins(encoders.bins_to_list(normal))) == normal


@given(st.integers(min_value=0, max_value=10**18))
def test_hub_routing_is_lossless(n):
    for e in (encoders.MSET, encoders.SET, encoders.BINS, encoders.NAT_PRIME, encoders.nadic_nat(3)):
        routed = encoders.as_(e, encoders.NAT, n)
        if not isinstance(routed, int):
            routed = list(routed)
        assert encoders.as_(encoders.NAT, e, routed) == n
