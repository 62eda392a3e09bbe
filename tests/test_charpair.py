import codecs
import locale
import sys
import threading
import tracemalloc
from collections import deque
from itertools import islice
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairbij import charpair, encoders, guide, nadic, streams
from pairbij.errors import (
    FuelExhausted,
    GuideExhausted,
    InvalidBit,
    NotStrictlyIncreasing,
    PairbijError,
    UnknownEncoder,
    UnknownPreset,
    ZeroArgument,
)
from pairbij.invariants import MORTON_TABLE, interleave, outcome, prefix_matches_loop


# -- bsplit ------------------------------------------------------------------------

def test_bsplit_golden():
    a, b = charpair.bsplit([0, 1, 0, 1, 0, 1], [10, 20, 30, 40, 50, 60])
    assert (list(a), list(b)) == ([20, 40, 60], [10, 30, 50])


def test_bsplit_empty_source():
    a, b = charpair.bsplit([], [])
    assert (list(a), list(b)) == ([], [])


def test_bsplit_all_ones_prefix():
    a, b = charpair.bsplit([1, 1], [5, 6])
    assert (list(a), list(b)) == ([5, 6], [])


def test_bsplit_guide_exhausted():
    a, b = charpair.bsplit([1], [5, 6])
    with pytest.raises(GuideExhausted):
        (list(a), list(b))


def test_bsplit_outputs_are_independent():
    a, b = charpair.bsplit(streams.cycle([1, 0]), [10, 20, 30, 40])
    assert next(b) == 20
    assert next(a) == 10
    assert list(b) == [40]
    assert list(a) == [30]


def test_bsplit_rejects_non_bits():
    a, b = charpair.bsplit([2], [5])
    with pytest.raises(InvalidBit):
        list(a)


def test_bsplit_guide_exhausted_reaches_both_sides():
    a, b = charpair.bsplit([1], [5, 6])
    with pytest.raises(GuideExhausted, match=r"element 6 \(position 1\)"):
        list(a)
    with pytest.raises(GuideExhausted, match=r"element 6 \(position 1\)"):
        list(b)


def test_bsplit_invalid_bit_reaches_both_sides():
    # 6 and 7 come after the bad bit: neither side may end as if the split were complete
    a, b = charpair.bsplit([1, 2, 1], [5, 6, 7])
    with pytest.raises(InvalidBit):
        list(a)
    with pytest.raises(InvalidBit):
        list(b)
    a, b = charpair.bsplit([1, 2, 1], [5, 6, 7])
    with pytest.raises(InvalidBit):
        list(b)
    assert next(a) == 5
    with pytest.raises(InvalidBit):
        next(a)


# -- bmerge ------------------------------------------------------------------------

def test_bmerge_golden():
    got = charpair.bmerge([0, 1, 0, 1, 0, 1], [20, 40, 60], [10, 30, 50])
    assert list(got) == [10, 20, 30, 40, 50, 60]


def test_bmerge_both_empty():
    assert list(charpair.bmerge([1, 0], [], [])) == []


def test_bmerge_singleton_clauses_ignore_guide():
    assert list(charpair.bmerge([], [], [9])) == [9]
    assert list(charpair.bmerge([], [7], [])) == [7]


def test_bmerge_pads_exhausted_side_with_zero():
    # hand-trace of the clause order: [a], then pad, then b, c, then the
    # leftover padded zero is emitted by the singleton ending
    got = list(charpair.bmerge([1, 0, 0, 0], ["a"], ["b", "c"]))
    assert got == ["a", "b", "c", 0]


def test_bmerge_guide_exhausted():
    with pytest.raises(GuideExhausted):
        list(charpair.bmerge([1], [5, 6], [7, 8]))


def test_bmerge_rejects_non_bits():
    with pytest.raises(InvalidBit):
        list(charpair.bmerge([3], [5, 6], [7, 8]))


def test_bmerge_spends_a_unit_per_guide_bit():
    # the golden merge reads five guide bits: the singleton ending emits 60 unguided
    args = ([0, 1, 0, 1, 0, 1], [20, 40, 60], [10, 30, 50])
    fuel = streams.Fuel(5)
    assert list(charpair.bmerge(*args, fuel)) == [10, 20, 30, 40, 50, 60]
    assert fuel.remaining == 0
    with pytest.raises(FuelExhausted):
        list(charpair.bmerge(*args, streams.Fuel(4)))


def test_bmerge_starving_guide_runs_out_of_fuel():
    # an all-zeros guide keeps routing to the empty side, padding it with zeros
    with pytest.raises(FuelExhausted) as info:
        list(charpair.bmerge(streams.cycle([0]), [5, 6], [], streams.Fuel(1000)))
    assert info.value.budget == 1000


class _Peek:
    """Bounded lookahead over an iterator, with pushback for injected padding."""

    def __init__(self, xs):
        self._it = iter(xs)
        self._buf = deque()

    def has(self, k):
        while len(self._buf) < k:
            try:
                self._buf.append(next(self._it))
            except StopIteration:
                return False
        return True

    def pop(self):
        self.has(1)
        return self._buf.popleft()

    def push(self, x):
        self._buf.appendleft(x)


def _peek_bmerge(guide, xs, ys):
    """A reference bmerge over _Peek that tests each ending in its documented order."""
    bits = charpair._validated_bits(guide)
    a, b = _Peek(xs), _Peek(ys)
    used = 0
    while True:
        if not a.has(1) and not b.has(1):
            return
        if not a.has(1) and not b.has(2):
            yield b.pop()
            return
        if not b.has(1) and not a.has(2):
            yield a.pop()
            return
        if not a.has(1):
            a.push(0)
        elif not b.has(1):
            b.push(0)
        try:
            bit = next(bits)
        except StopIteration:
            raise GuideExhausted(
                f"merge guide ended after {used} bits with elements remaining",
                position=used,
            ) from None
        used += 1
        yield a.pop() if bit == 1 else b.pop()


GUIDE_BITS = st.lists(st.sampled_from([0, 1, 1.0, 2]), max_size=16)


@given(st.one_of(GUIDE_BITS, GUIDE_BITS.filter(bool).map(streams.cycle)),
       st.lists(st.integers(1, 9), max_size=6), st.lists(st.integers(1, 9), max_size=6))
@settings(max_examples=500, deadline=None)
def test_bmerge_matches_peek_merge(bits, xs, ys):
    # A cycled guide that never routes to a padded side pads it forever, so
    # only the first 20 elements are compared.
    assert (outcome(lambda: list(islice(charpair.bmerge(bits, iter(xs), iter(ys)), 20)))
            == outcome(lambda: list(islice(_peek_bmerge(bits, iter(xs), iter(ys)), 20))))


def test_split_merge_duality():
    guide = [1, 0, 1, 1, 0, 0, 1, 0]
    ns = [3, 1, 4, 1, 5, 9, 2, 6]
    a, b = charpair.bsplit(guide, ns)
    assert list(charpair.bmerge(guide, list(a), list(b))) == ns


# -- bit forms -------------------------------------------------------------------------

BIT_LISTS = st.one_of(
    st.lists(st.integers(0, 1), max_size=40),
    st.integers(0, 2**12).map(lambda k: [0] * k),
    # up to 2**12 random bits, then trailing zeros
    st.builds(lambda data, pad: [b >> i & 1 for b in data for i in range(8)] + [0] * pad,
              st.binary(max_size=2**9), st.integers(0, 70)),
)


@given(BIT_LISTS)
@settings(max_examples=200, deadline=None)
def test_bits_to_nat_matches_the_hub(bits):
    assert charpair._bits_to_nat(bits) == nadic.nats_to_nat(2, list(encoders.bins_to_list(bits)))


@pytest.mark.parametrize("n", [0, 1, 2, 2**63, 2**64, 2**(2**16 - 1)],
                         ids=["0", "2^0", "2^1", "2^63", "2^64", "2^65535"])
def test_bit_form_roundtrip_at_powers_of_two(n):
    assert charpair._bits_to_nat(charpair._nat_to_bits(n)) == n


@given(st.integers(0, 2**16).flatmap(lambda w: st.integers(0, 2**w - 1)))
@settings(max_examples=25, deadline=None)
def test_bit_form_roundtrip(n):
    assert charpair._bits_to_nat(charpair._nat_to_bits(n)) == n


# -- the generic construction ----------------------------------------------------------

def _seed(payload, encoder=encoders.BINS, label="test"):
    return charpair.SeedSpec(encoder, payload, label)


def test_morton_unpair_table():
    fam = charpair.preset_family("morton")
    got = [fam.unpair(n) for n in range(11)]
    assert got == MORTON_TABLE
    assert [fam.pair(x, y) for x, y in got] == list(range(11))


def test_morton_pair_examples():
    fam = charpair.preset_family("morton")
    assert fam.pair(0, 0) == 0
    assert fam.pair(1, 0) == 1
    assert fam.pair(0, 1) == 2
    assert fam.pair(1, 1) == 3


def test_arith_set_2_equals_morton():
    bfam = charpair.preset_family("arith-set", 2)
    mfam = charpair.preset_family("morton")
    assert [bfam.unpair(n) for n in range(11)] == MORTON_TABLE
    for n in range(10_001):
        assert bfam.unpair(n) == mfam.unpair(n)
    for x in range(64):
        for y in range(64):
            assert bfam.pair(x, y) == mfam.pair(x, y)


def test_pair_zero_zero_for_every_preset():
    for name, k in [("morton", None), ("arith-set", 3), ("squares", None),
                    ("powers2", None), ("syracuse", None), ("bits-of-naturals", None)]:
        fam = charpair.preset_family(name, k)
        assert fam.pair(0, 0) == 0
        assert fam.unpair(0) == (0, 0)


@pytest.mark.parametrize("name,k", [
    ("morton", None),
    ("arith-set", 2),
    ("arith-set", 3),
    ("arith-set", 5),
    ("squares", None),
    ("powers2", None),
    ("syracuse", None),
    ("bits-of-naturals", None),
])
def test_preset_roundtrips(name, k):
    fam = charpair.preset_family(name, k)
    seen = set()
    for n in range(500):
        p = fam.unpair(n)
        assert fam.pair(*p) == n
        seen.add(p)
    assert len(seen) == 500
    for x in range(16):
        for y in range(16):
            assert fam.unpair(fam.pair(x, y)) == (x, y)


def test_morton_equals_interleave():
    fam = charpair.preset_family("morton")
    for x in range(64):
        for y in range(64):
            assert fam.pair(x, y) == interleave(x, y)


def test_arith_set_guide_shape():
    # after the leading one, exactly k-1 zeros sit between consecutive ones
    for k in range(1, 9):
        seed = charpair.preset_seed("arith-set", k)
        bits = streams.take(streams.Stream(lambda: seed.bits(streams.Fuel(10**6))), 1000)
        assert bits[0] == 1
        ones = [i for i, b in enumerate(bits) if b == 1]
        assert all(j - i == k for i, j in zip(ones, ones[1:]))
        assert all(b in (0, 1) for b in bits)


def test_arith_set_2_guide_is_alternating():
    seed = charpair.preset_seed("arith-set", 2)
    bits = streams.take(streams.Stream(lambda: seed.bits(streams.Fuel(10**6))), 1000)
    assert bits == [1, 0] * 500


def test_unknown_preset():
    with pytest.raises(UnknownPreset):
        charpair.preset_family("hilbert")
    with pytest.raises(UnknownPreset):
        charpair.preset_family("arith-set", 0)
    with pytest.raises(UnknownPreset):
        charpair.preset_family("arith-set")


@pytest.mark.parametrize("name, k", [("morton", 3), ("squares", 5), ("bits-of-naturals", 0)])
def test_preset_without_a_step_refuses_one(name, k):
    with pytest.raises(UnknownPreset, match=f"preset {name} takes no step k, got k={k}"):
        charpair.preset_seed(name, k)
    with pytest.raises(UnknownPreset, match=f"preset {name} takes no step"):
        charpair.preset_family(name, k)


# -- divergence --------------------------------------------------------------------

def test_pair_diverges_on_all_zero_seed():
    seed = _seed(streams.cycle([0]), label="cycle [0]")
    with pytest.raises(FuelExhausted):
        charpair.generic_pair(seed, 10, 20, streams.Fuel(5000, label="cycle [0]"))


def test_unpair_diverges_on_all_one_seed():
    seed = _seed(streams.cycle([1]), label="cycle [1]")
    with pytest.raises(FuelExhausted):
        charpair.generic_unpair(seed, 42, streams.Fuel(5000, label="cycle [1]"))


def test_arith_set_1_is_degenerate():
    # step 1 covers every natural: the all-ones guide starves the second
    # component in both directions, exactly like the all-one bit seed
    fam = charpair.preset_family("arith-set", 1, fuel_budget=5000)
    with pytest.raises(FuelExhausted):
        fam.unpair(1)
    with pytest.raises(FuelExhausted):
        fam.pair(3, 0)


def test_fuel_error_names_the_seed():
    fam = charpair.preset_family("arith-set", 1, fuel_budget=2000)
    with pytest.raises(FuelExhausted, match="arith-set:1"):
        fam.unpair(7)


# -- seed files ---------------------------------------------------------------------

def test_seed_file_matches_morton(tmp_path):
    path = tmp_path / "alternating.bits"
    path.write_text("10 10101010\n101010 10101010\n")
    fam = charpair.family_from_seed(charpair.seed_from_file(path))
    mfam = charpair.preset_family("morton")
    for n in range(30):
        assert fam.unpair(n) == mfam.unpair(n)


def test_seed_file_exhaustion(tmp_path):
    path = tmp_path / "short.bits"
    path.write_text("1010")
    fam = charpair.family_from_seed(charpair.seed_from_file(path))
    with pytest.raises(GuideExhausted, match="position"):
        fam.unpair(10**6)


def test_seed_file_rejects_garbage(tmp_path):
    path = tmp_path / "bad.bits"
    path.write_text("10x1")
    with pytest.raises(InvalidBit):
        charpair.seed_from_file(path)


# Seed-file pieces: bits, whitespace of one and of several bytes, line ends,
# a bad character and bytes that are not UTF-8 text.
SEED_PIECES = [b"0", b"1", b" ", b"\n", b"\r", b"\r\n", "\u00a0".encode(), "\u2003".encode(),
               b"x", b"\x00", "\u00e9".encode(), b"\xff", b"\xe2\x80", b"\x85"]


def _first_seed_fault(data: bytes):
    """The bits of a UTF-8 seed file, or the message for its first fault."""
    try:
        text, bad = data.decode(), None
    except UnicodeDecodeError as e:
        text, bad = data[:e.start].decode(), e.start
    for i, ch in enumerate(text.replace("\r\n", "\n").replace("\r", "\n")):
        if not (ch.isspace() or ch in "01"):
            return f"unexpected character {ch!r} at offset {i}"
    if bad is not None:
        return f"not text, byte {data[bad]:#04x} at offset {bad}"
    return [int(ch) for ch in text if ch in "01"]


@pytest.mark.skipif(codecs.lookup(locale.getpreferredencoding(False)).name != "utf-8",
                    reason="seed files decode with the locale encoding")
@given(st.lists(st.sampled_from(SEED_PIECES), max_size=40),
       st.sampled_from([1, 2, 3, 5, 64]))
@settings(max_examples=300, deadline=None)
def test_seed_file_reads_by_chunks_as_a_whole_property(seed_dir, pieces, chunk):
    data = b"".join(pieces)
    path = seed_dir / "chunked.bits"
    path.write_bytes(data)
    want = _first_seed_fault(data)
    with mock.patch.object(charpair, "_SEED_CHUNK", chunk):
        if isinstance(want, list):
            assert charpair.read_seed_bits(path) == want
        else:
            with pytest.raises(InvalidBit) as e:
                charpair.read_seed_bits(path)
            assert str(e.value) == f"seed file {path}: {want}"


def test_seed_file_path_with_a_nul_byte():
    with pytest.raises(PairbijError, match=r"cannot read seed file 'a\\x00b': embedded null byte"):
        charpair.family("seed-file:a\x00b")


def test_seed_file_other_encoder(tmp_path):
    # a file of bits can also be read as a hub list routed through an encoder
    path = tmp_path / "list.bits"
    path.write_text("1 0 1 1 0 1 0 1" * 4)
    fam = charpair.family_from_seed(charpair.seed_from_file(path, "list"))
    n = fam.pair(2, 3)
    assert fam.unpair(n) == (2, 3)


# -- syracuse ----------------------------------------------------------------------

def test_syracuse_values():
    assert charpair.syracuse(0) == 0
    assert charpair.syracuse(1) == 2
    assert [charpair.syracuse(n) for n in range(6)] == [0, 2, 0, 5, 3, 8]


def test_nsyr():
    assert charpair.nsyr(0) == [0]
    traj = charpair.nsyr(6)
    assert traj[0] == 6
    assert traj[-1] == 0
    for a, b in zip(traj, traj[1:]):
        assert b == charpair.syracuse(a)


def test_nsyr_fuel():
    with pytest.raises(FuelExhausted):
        charpair.nsyr(27, streams.Fuel(3))


@pytest.mark.parametrize("call", [charpair.syracuse, charpair.nsyr], ids=["syracuse", "nsyr"])
def test_syracuse_names_the_callers_negative_input(call):
    with pytest.raises(ZeroArgument, match="got -1$"):
        call(-1)


def test_syracuse_stream_matches_map():
    seed = charpair.preset_seed("syracuse")
    got = streams.take(seed.payload, 6)
    assert got == [charpair.syracuse(n) for n in range(6)]


# -- cantor and twist ------------------------------------------------------------------

def test_cantor_values():
    assert charpair.cantor_pair(0, 0) == 0
    assert charpair.cantor_pair(1, 2) == 8
    assert charpair.cantor_unpair(8) == (1, 2)


def test_cantor_roundtrips():
    for x in range(50):
        for y in range(50):
            assert charpair.cantor_unpair(charpair.cantor_pair(x, y)) == (x, y)
    for n in range(3000):
        assert charpair.cantor_pair(*charpair.cantor_unpair(n)) == n


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_cantor_columns_match_unpair(data):
    rows = data.draw(st.integers(1, 4096))
    if data.draw(st.booleans()):
        lo = data.draw(st.integers(0, 2**80))
    else:  # a block holding the first n of a diagonal
        w = data.draw(st.integers(0, 2**40))
        lo = max(w * (w + 1) // 2 - data.draw(st.integers(0, rows - 1)), 0)
    xs, ys = charpair.cantor_columns(lo, lo + rows)
    assert list(zip(xs, ys)) == [charpair.cantor_unpair(n) for n in range(lo, lo + rows)]


@pytest.mark.parametrize("call", [
    lambda f: f.pair(-1, 0),
    lambda f: f.pair(0, -1),
    lambda f: f.unpair(-1),
    lambda f: f.columns(-1, 3),
])
@pytest.mark.parametrize("spec", ["cantor", "nadic:2", "nadic:3"])
def test_family_rejects_negatives(spec, call):
    # unchecked, cantor_pair(-1, 0) aliases cantor_pair(0, 0) and nadic:2 pairs (-1, 0) to -0.5
    with pytest.raises(ZeroArgument, match="defined on naturals"):
        call(charpair.family(spec))


@pytest.mark.parametrize("call, message", [
    (lambda f: f.pair(-1, 0), "pair is defined on naturals, got x=-1, y=0"),
    (lambda f: f.pair(3, -2), "pair is defined on naturals, got x=3, y=-2"),
    (lambda f: f.unpair(-5), "unpair is defined on naturals, got -5"),
])
@pytest.mark.parametrize("spec", ["morton", "arith-set:3", "bits-of-naturals"])
def test_guide_family_negative_names_the_call(spec, call, message):
    with pytest.raises(ZeroArgument) as info:
        call(charpair.family(spec))
    assert str(info.value) == message


@pytest.mark.parametrize("call, message", [
    (lambda: charpair.family("morton").pair(2.0, 1),
     "pair is defined on naturals, got x=2.0, y=1"),
    (lambda: charpair.family("squares").pair(1, 0.5),
     "pair is defined on naturals, got x=1, y=0.5"),
    (lambda: charpair.family("morton").unpair(5.0), "unpair is defined on naturals, got 5.0"),
    (lambda: charpair.family("squares,xor:3").unpair(5.0),
     "unpair is defined on naturals, got 5.0"),
    (lambda: charpair.family("cantor,xor:3").unpair("7"),
     "unpair is defined on naturals, got '7'"),
    (lambda: charpair.generic_unpair(charpair.preset_seed("morton"), None),
     "unpair is defined on naturals, got None"),
    (lambda: charpair.cantor_pair(1.5, 2), "cantor_pair is defined on naturals, got x=1.5, y=2"),
    (lambda: charpair.cantor_unpair(8.0), "cantor_unpair is defined on naturals, got 8.0"),
])
def test_non_integers_are_refused(call, message):
    # unchecked, cantor_pair(1.5, 2) returned 9.0 and a guide family's calls raised a bare TypeError
    with pytest.raises(ZeroArgument) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize("call, message", [
    (lambda: charpair.syracuse(2.5), "syracuse is defined on naturals, got 2.5"),
    (lambda: charpair.nsyr(3.0), "syracuse is defined on naturals, got 3.0"),
    (lambda: charpair.cantor_columns(0, 2.5), "the end of a block must be an integer, got 2.5"),
    (lambda: charpair.twist_family(charpair.family("morton"), 2.0),
     "xor mask must be an integer, got 2.0"),
    (lambda: charpair.family("morton", 2.5), "fuel budget must be an integer, got 2.5"),
    (lambda: charpair.family("nadic:3", 2.5), "fuel budget must be an integer, got 2.5"),
    (lambda: charpair.preset_family("arith-set", 2.0), "arith-set step must be an integer, got 2.0"),
    # negative ints keep their messages
    (lambda: charpair.nsyr(-2), "syracuse is defined on naturals, got -2"),
    (lambda: charpair.twist_family(charpair.family("morton"), -1),
     "xor mask must be non-negative, got -1"),
    (lambda: charpair.family("morton", -1), "fuel budget must be positive, got -1"),
    (lambda: charpair.preset_family("arith-set", -2), "arith-set needs a step k >= 1, got -2"),
])
def test_cold_entries_refuse_a_non_integer(call, message):
    # unchecked, family("morton", 2.5) and preset_family("arith-set", 2.0) built families
    with pytest.raises(PairbijError) as info:
        call()
    assert str(info.value) == message


def test_a_bool_step_names_its_int():
    assert charpair.preset_family("arith-set", True).name == "arith-set:1"


@pytest.mark.parametrize("spec", ["morton", "squares,xor:5", "cantor"])
def test_a_bool_pairs_as_an_int(spec):
    fam = charpair.family(spec)
    for _ in range(3):  # the third call of a guide family may be served by its lane tables
        assert fam.pair(True, False) == fam.pair(1, 0)
        assert fam.unpair(True) == fam.unpair(1)


@pytest.mark.parametrize("spec", ["squares,xor:9", "nadic:3,xor:9", "cantor,xor:9"])
def test_twisted_negative_names_the_callers_n(spec):
    # unchecked, the mask reaches the base family first and it names -1 ^ 9 = -10
    with pytest.raises(ZeroArgument) as info:
        charpair.family(spec).unpair(-1)
    assert str(info.value) == "unpair is defined on naturals, got -1"


@pytest.mark.parametrize("spec", ["morton", "squares", "nadic:3", "cantor"])
def test_twist_refuses_a_negative_mask(spec):
    # unchecked, morton twisted by -1 pairs (3, 5) to -40
    with pytest.raises(ZeroArgument) as info:
        charpair.twist_family(charpair.family(spec), -1)
    assert str(info.value) == "xor mask must be non-negative, got -1"


@pytest.mark.parametrize("budget", [0, -1])
@pytest.mark.parametrize("spec", ["morton", "squares", "arith-set:1", "seed-file", "squares,xor:5"])
def test_family_refuses_a_non_positive_budget(tmp_path, spec, budget):
    # unrefused, the family builds and every call raises a bare ValueError from Fuel
    if spec == "seed-file":
        path = tmp_path / "alt.bits"
        path.write_text("1010")
        spec = f"seed-file:{path}"
    with pytest.raises(PairbijError) as info:
        charpair.family(spec, budget)
    assert str(info.value) == f"fuel budget must be positive, got {budget}"


@pytest.mark.parametrize("budget", [0, -5])
@pytest.mark.parametrize("spec", ["nadic:3", "cantor", "nadic:3,xor:1"])
def test_guide_less_family_refuses_a_non_positive_budget(spec, budget):
    # unrefused, these families built and worked while morton's raised
    messages = []
    for head in (spec, "morton"):
        with pytest.raises(PairbijError) as info:
            charpair.family(head, budget)
        messages.append(str(info.value))
    assert messages[0] == messages[1] == f"fuel budget must be positive, got {budget}"
    fam = charpair.family(spec, 1)  # a guide-less family spends no fuel
    assert fam.unpair(fam.pair(4, 7)) == (4, 7)


def test_twist_zero_mask_is_identity():
    fam = charpair.preset_family("morton")
    twisted = charpair.twist_family(fam, 0)
    for n in range(100):
        assert twisted.unpair(n) == fam.unpair(n)
        assert twisted.pair(*fam.unpair(n)) == n


def test_twist_is_involutive():
    fam = charpair.preset_family("morton")
    double = charpair.twist_family(charpair.twist_family(fam, 19), 19)
    for n in range(100):
        assert double.unpair(n) == fam.unpair(n)


def test_twist_roundtrip():
    fam = charpair.twist_family(charpair.preset_family("morton"), 7)
    for n in range(1000):
        assert fam.pair(*fam.unpair(n)) == n


def test_twist_of_cantor():
    fam = charpair.twist_family(charpair.cantor_family(), 12345)
    for n in range(500):
        assert fam.pair(*fam.unpair(n)) == n


# -- properties -------------------------------------------------------------------------

@given(st.integers(min_value=0, max_value=10**9), st.integers(min_value=0, max_value=10**9))
@settings(max_examples=60)
def test_morton_matches_interleave_property(x, y):
    fam = charpair.preset_family("morton")
    assert fam.pair(x, y) == interleave(x, y)


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=40)
def test_squares_roundtrip_property(n):
    fam = charpair.preset_family("squares")
    assert fam.pair(*fam.unpair(n)) == n


@given(st.integers(min_value=0, max_value=200), st.integers(min_value=0, max_value=200))
@settings(max_examples=40)
def test_syracuse_pair_roundtrip_property(x, y):
    fam = charpair.preset_family("syracuse")
    assert fam.unpair(fam.pair(x, y)) == (x, y)


@pytest.mark.parametrize("encoder", ["nat", "nat-prime", "nadic:3"])
def test_seed_file_rejects_int_encoders(tmp_path, encoder):
    path = tmp_path / "s.bits"
    path.write_text("1010")
    with pytest.raises(UnknownEncoder, match="list, mset, set, bins"):
        charpair.seed_from_file(path, encoder)


# -- the guide prefix against the loop --------------------------------------------------

PRESETS = ["morton", "squares", "powers2", "syracuse", "bits-of-naturals"]
BUDGETS = st.integers(1, 64) | st.just(streams.DEFAULT_FUEL)


@pytest.fixture(scope="module")
def seed_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("seeds")


def _write(seed_dir, text):
    path = seed_dir / f"{abs(hash(text))}.bits"
    path.write_text(text)
    return path


def _draw_seed(data, seed_dir):
    """(budget, family spec head, plain seed maker).

    The head is None for a seed the spec grammar cannot name; the maker raises
    what constructing the seed raises.
    """
    kind = data.draw(st.sampled_from(["preset", "arith-set", "file", "unordered", "exact",
                                      "bad-file", "bad-stream"]))
    budget = data.draw(BUDGETS)
    if kind == "preset":
        name = data.draw(st.sampled_from(PRESETS))
        return budget, name, lambda: charpair.preset_seed(name)
    if kind == "arith-set":
        k = data.draw(st.integers(1, 8))
        if k == 1:  # the all-ones guide starves: the loop would spend the default budget per call
            budget = data.draw(st.integers(1, 64))
        return budget, f"arith-set:{k}", lambda: charpair.preset_seed("arith-set", k)
    if kind == "bad-stream":  # a bit that is not 0 or 1 partway through the guide
        bits = data.draw(st.lists(st.integers(0, 1), max_size=60))
        bits.insert(data.draw(st.integers(0, len(bits))), 2)
        seed = charpair.SeedSpec(encoders.BINS, streams.from_list(bits), "bad-stream")
        return budget, None, lambda: seed
    enc = data.draw(st.sampled_from(["list", "mset", "set", "bins"]))
    bits = data.draw(st.lists(st.integers(0, 1), max_size=80))
    if kind == "unordered":  # a set file that is not strictly increasing
        enc, bits = "set", bits + [1, 1] + bits
    if kind == "exact":  # a bins guide as long as the budget, give or take one
        budget = data.draw(st.integers(1, 64))
        enc, bits = "bins", data.draw(st.lists(st.integers(0, 1), min_size=budget - 1,
                                               max_size=budget + 1))
    text = " ".join(map(str, bits))
    if kind == "bad-file":
        cut = data.draw(st.integers(0, len(text)))
        text = text[:cut] + "2" + text[cut:]
    path = _write(seed_dir, text)
    return budget, f"seed-file:{path}:{enc}", lambda: charpair.seed_from_file(path, enc)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_family_matches_loop_property(seed_dir, data):
    budget, head, make_seed = _draw_seed(data, seed_dir)
    masks = data.draw(st.lists(st.integers(0, 2**16), max_size=2))
    mask = 0
    for m in masks:
        mask ^= m
    seed = outcome(make_seed)
    if head is None:
        fam = outcome(lambda: charpair.twist_family(
            charpair.family_from_seed(seed[1], budget), mask))
    else:
        spec = head + "".join(f",xor:{m}" for m in masks)
        fam = outcome(lambda: charpair.family(spec, budget))
    assert fam[0] == seed[0] == "returned" or fam == seed
    if fam[0] != "returned":
        return
    fam, seed = fam[1], seed[1]
    label = f"seed {seed.label}"
    xs = st.integers(0, 2**12)
    for _ in range(4):
        if data.draw(st.booleans()):
            x, y = data.draw(xs), data.draw(xs)
            got = outcome(lambda: fam.pair(x, y))
            want = outcome(lambda: charpair.generic_pair(
                seed, x, y, streams.Fuel(budget, label=label)) ^ mask)
        else:
            n = data.draw(st.integers(0, 2**24))
            got = outcome(lambda: fam.unpair(n))
            want = outcome(lambda: charpair.generic_unpair(
                seed, n ^ mask, streams.Fuel(budget, label=label)))
        assert got == want


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_split_routes_any_elements_property(seed_dir, data):
    # cli._curve_blocks and guide.lane_tables read a source's layout: the positions
    # 0..w-1 that the loop's split routes to the guide's ones and to its zeros.
    kind = data.draw(st.sampled_from(["preset", "arith-set", "cycle", "file"]))
    if kind == "preset":
        seed = charpair.preset_seed(data.draw(st.sampled_from(PRESETS)))
    elif kind == "arith-set":
        seed = charpair.preset_seed("arith-set", data.draw(st.integers(1, 8)))
    elif kind == "cycle":
        pattern = data.draw(st.lists(st.integers(0, 1), min_size=1, max_size=8))
        seed = charpair.SeedSpec(encoders.BINS, streams.cycle(pattern), f"cycle {pattern}")
    else:
        bits = data.draw(st.lists(st.integers(0, 1), max_size=80))
        seed = charpair.seed_from_file(_write(seed_dir, " ".join(map(str, bits))))
    budget = data.draw(st.integers(1, 200))
    w = data.draw(st.integers(0, 300))  # past guide.CAP
    label = f"seed {seed.label}"
    sources = [guide.GuidePrefix(seed, budget)]
    picked = charpair.family_from_seed(seed, budget).guide
    sources += [picked] if isinstance(picked, guide.PeriodicGuide) else []
    fuel = streams.Fuel(budget, label=label)
    want = outcome(lambda: seed.split(list(range(w)), fuel))
    for source in sources:
        left = streams.Fuel(budget, label=label)
        got = outcome(lambda: source.layout(w, left))
        assert (got, left.remaining) == (want, fuel.remaining)


def test_starving_seed_is_read_once_per_family():
    pulled = []
    counted = streams.smap(lambda i: pulled.append(i) or i, streams.arith(0, 1))
    fam = charpair.family_from_seed(charpair.SeedSpec(encoders.SET, counted, "counted"), 500)
    for n in range(10):
        with pytest.raises(FuelExhausted, match="no progress after 500 stream pulls"):
            fam.unpair(n)
    assert len(pulled) <= 502  # the loop reads 501 positions on every call


def test_prefix_matches_loop_invariant():
    seeds = [charpair.preset_seed("arith-set", 2), charpair.preset_seed("squares"),
             charpair.SeedSpec(encoders.BINS, streams.from_list([1, 0, 0, 1, 1, 0, 1]), "short"),
             # the loop reads any bit equal to 1 as a one
             charpair.SeedSpec(encoders.BINS, streams.cycle([1.0, 0, False]), "not ints"),
             # runs longer than the prefix's first read of 64 positions
             charpair.SeedSpec(encoders.BINS, streams.from_list([0] * 100 + [1, 0, 1]),
                               "long leading zeros"),
             charpair.SeedSpec(encoders.BINS, streams.cycle([0] * 70 + [1] * 70), "long cycle"),
             charpair.SeedSpec(encoders.BINS, streams.from_list([1] * 130 + [0] * 130 + [1]),
                               "long runs"),
             charpair.SeedSpec(encoders.SET, streams.from_list([300, 301, 700]), "far set")]
    budgets = (1, 2, 5, 9, 40, 64, 65, streams.DEFAULT_FUEL)
    assert prefix_matches_loop(seeds, budgets, 300, 12) == []


# Each loop reads its guide unmetered and charges the fuel as it leaves; these
# are the errors and the fuel left that metering each pull gives.
LOOP_EXITS = [
    (encoders.BINS, [1, 0, 1, 0, 2, 1, 0], 100, InvalidBit, 96),
    (encoders.BINS, [1, 0, 1, 0], 100, GuideExhausted, 96),
    (encoders.BINS, [1, 1, 1, 1], 4, GuideExhausted, 0),
    # the read limit: a guide that ends just past the budget is refused for fuel
    (encoders.BINS, [1, 1, 1, 1, 1], 4, FuelExhausted, -1),
    (encoders.SET, [0, 2, 2, 5], 100, NotStrictlyIncreasing, 97),
]


@pytest.mark.parametrize("op, args", [(charpair.generic_pair, (5, 3)),
                                      (charpair.generic_unpair, (1000,))],
                         ids=["pair", "unpair"])
@pytest.mark.parametrize("encoder, payload, budget, error, left", LOOP_EXITS,
                         ids=["bad bit", "ended", "ended at budget", "ended past budget",
                              "not increasing"])
def test_loop_charges_the_positions_read(op, args, encoder, payload, budget, error, left):
    seed = charpair.SeedSpec(encoder, streams.from_list(payload), "pinned")
    fuel = streams.Fuel(budget)
    with pytest.raises(error) as e:
        op(seed, *args, fuel)
    if error is GuideExhausted:
        assert e.value.position == 4
    assert fuel.remaining == left


@pytest.mark.parametrize("op, args", [(charpair.generic_pair, (5, 3)),
                                      (charpair.generic_unpair, (1000,))],
                         ids=["pair", "unpair"])
def test_loop_refuses_the_pull_past_the_budget(op, args):
    pulled = []
    ones = streams.smap(lambda b: pulled.append(b) or b, streams.cycle([1]))
    fuel = streams.Fuel(50)
    with pytest.raises(FuelExhausted, match="no progress after 50 stream pulls"):
        op(charpair.SeedSpec(encoders.BINS, ones, "ones"), *args, fuel)
    assert fuel.remaining == -1
    assert len(pulled) == 51


@pytest.mark.parametrize("seed", [
    charpair.preset_seed("arith-set", 1),
    charpair.SeedSpec(encoders.BINS, streams.cycle([0]), "cycle [0]"),
], ids=lambda seed: seed.label)
def test_reference_unpair_refusal_holds_no_guide(seed):
    # Each side of the split ends at its first end marker; a guide that never
    # routes to the other side must not be kept for it.
    fuel = streams.Fuel(10**6)
    tracemalloc.start()
    try:
        with pytest.raises(FuelExhausted, match="no progress after 1000000 stream pulls"):
            charpair.generic_unpair(seed, 9, fuel)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fuel.remaining == -1
    assert peak < 1_000_000


def test_loop_returns_with_the_positions_read():
    fuel = streams.Fuel(100)
    assert charpair.generic_pair(charpair.preset_seed("morton"), 5, 3, fuel) == 27
    assert fuel.remaining == 95
    assert charpair.generic_unpair(charpair.preset_seed("morton"), 27, fuel) == (5, 3)
    assert fuel.remaining == 88


def test_loop_takes_a_budget_past_the_word_size():
    fuel = streams.Fuel(10**30)
    assert charpair.generic_pair(charpair.preset_seed("morton"), 5, 3, fuel) == 27
    assert fuel.remaining == 10**30 - 5


def _raising_stream():
    yield from (1, 0, 1)
    raise GuideExhausted("inner stream gave out", position=99, label="inner")


def test_prefix_matches_loop_on_malformed_guides():
    seeds = [charpair.SeedSpec(encoders.BINS, streams.from_list([1, 0, 1, 0, 2, 1, 0]), "bad bit"),
             charpair.SeedSpec(encoders.SET, streams.from_list([0, 2, 2, 5]), "not increasing"),
             # an error raised inside the seed's stream passes through every reader
             charpair.SeedSpec(encoders.BINS, streams.Stream(_raising_stream), "raises")]
    assert prefix_matches_loop(seeds, (1, 3, 4, 5, 100), 40, 6) == []


def _missing_part_stream():
    yield from (1, 0, 1)
    raise FileNotFoundError(2, "No such file or directory", "seed-part")


def test_family_reraises_a_stored_guide_error_whole():
    # outcome() catches only PairbijError, so prefix_matches_loop cannot take this seed
    seed = charpair.SeedSpec(encoders.BINS, streams.Stream(_missing_part_stream), "missing part")
    with pytest.raises(FileNotFoundError) as want:
        charpair.generic_unpair(seed, 5, streams.Fuel(label="seed missing part"))
    fam = charpair.family_from_seed(seed)
    raised = []
    for _ in range(2):
        with pytest.raises(FileNotFoundError) as got:
            fam.unpair(5)
        assert (str(got.value), got.value.filename) == (str(want.value), "seed-part")
        raised.append(got.value)
    assert raised[0] is not raised[1]  # each call raises its own


# The presets, starving guides and 0/1 cycles, and two guides that stop at
# position 0: one ends, one holds a bad bit.
EDGE_SEEDS = ([charpair.preset_seed(name) for name in PRESETS]
              + [charpair.preset_seed("arith-set", k) for k in (1, 2, 3)]
              + [charpair.SeedSpec(encoders.BINS, streams.cycle(t), f"cycle {t}")
                 for t in ([0], [1], [0, 0, 1], [1, 1.0, 0])]
              + [charpair.SeedSpec(encoders.BINS, streams.from_list(t), f"list {t}")
                 for t in ([], [2])])


def _charged(call, budget):
    fuel = streams.Fuel(budget)
    return outcome(lambda: call(fuel)), fuel.remaining


def _listed(answer: tuple) -> tuple:
    """A charged merge or split with its bit forms as lists."""
    (kind, value, *rest), left = answer
    if kind == "returned":
        value = tuple(map(list, value)) if isinstance(value, tuple) else list(value)
    return (kind, value, *rest), left


@pytest.mark.parametrize("seed", EDGE_SEEDS, ids=lambda seed: seed.label)
def test_fast_sources_match_loop_with_an_empty_side(seed):
    # generic_pair and generic_unpair never pass an empty bit form; a direct caller can.
    calls = [("merge", [], []), ("merge", [], [1, 1]), ("merge", [1, 0, 1], []),
             ("merge", [1], [1]), ("split", [])]
    period = guide.periodic_pattern(seed)
    for budget in (1, 3, 40, 10**4):
        # A prefix grown by a wide call holds runs well past what the calls below need.
        grown = guide.GuidePrefix(seed, budget)
        outcome(lambda: charpair.generic_unpair(grown, 2**300, streams.Fuel(budget)))
        for name, *args in calls:
            want = _charged(lambda f: getattr(seed, name)(*map(list, args), f), budget)
            sources = [guide.GuidePrefix(seed, budget), grown]
            sources += [guide.PeriodicGuide(seed, period, budget)] if period else []
            for source in sources:
                got = _listed(_charged(lambda f: getattr(source, name)(*map(bytes, args), f),
                                       budget))
                assert got == want, (type(source).__name__, budget, name, args)


def test_library_readers_charge_without_metering(tmp_path):
    # Every guide reader but bmerge charges its fuel once, not per pull.
    path = tmp_path / "short.bits"
    path.write_text("1 0 0 1 1 0 1 0")
    plain = [charpair.preset_seed("squares"), charpair.preset_seed("arith-set", 1),
             charpair.seed_from_file(path),
             charpair.SeedSpec(encoders.BINS, streams.from_list([1, 0, 2]), "bad bit")]
    with mock.patch.object(streams.Fuel, "meter", autospec=True,
                           side_effect=streams.Fuel.meter) as meter:
        got = [outcome(lambda: op(seed, *args, streams.Fuel(100)))[0]
               for seed in plain
               for op, args in ((charpair.generic_pair, (2**9, 3)),
                                (charpair.generic_unpair, (2**9,)))]
        for spec in ("squares", "syracuse", "bits-of-naturals", f"seed-file:{path}"):
            fam = charpair.family(spec)
            got.append(outcome(lambda: fam.unpair(fam.pair(2, 3)))[0])
        assert meter.call_count == 0
        assert got == ["returned"] * 2 + ["FuelExhausted"] * 2 + ["GuideExhausted"] * 2 \
            + ["InvalidBit"] * 2 + ["returned"] * 4
        assert list(charpair.bmerge([1, 0], [5], [6])) == [5, 6]
        assert list(islice(plain[0].bits(streams.Fuel(10)), 3)) == [1, 1, 0]
        assert meter.call_count == 2


def test_spent_fuel_is_not_refunded():
    seed = charpair.preset_seed("arith-set", 1)
    fuel = streams.Fuel(5)
    for source in (seed, seed, guide.GuidePrefix(seed, 5)):
        left = fuel.remaining
        with pytest.raises(FuelExhausted):
            charpair.generic_unpair(source, 9, fuel)
        assert fuel.remaining <= min(left, -1)


@pytest.mark.parametrize("op, args", [(charpair.generic_pair, (5, 3)),
                                      (charpair.generic_unpair, (9,))],
                         ids=["pair", "unpair"])
@pytest.mark.parametrize("name, k", [("arith-set", 1), ("morton", None)])
def test_overspent_fuel_is_charged_alike(op, args, name, k):
    seed = charpair.preset_seed(name, k)
    warm = guide.GuidePrefix(seed, 5)
    outcome(lambda: charpair.generic_unpair(warm, 0, streams.Fuel(5)))  # reads its whole budget
    left = []
    for source in (seed, guide.GuidePrefix(seed, 5), warm):
        fuel = streams.Fuel(5)
        with pytest.raises(FuelExhausted):
            fuel.tick(8)
        with pytest.raises(FuelExhausted):
            op(source, *args, fuel)
        left.append(fuel.remaining)
    assert left == [-4, -4, -4]


def test_prefix_without_fuel_uses_its_budget():
    morton = charpair.preset_family("morton", fuel_budget=500).guide
    assert charpair.generic_pair(morton, 5, 3) == 27
    assert charpair.generic_unpair(morton, 27) == (5, 3)
    starving = charpair.preset_family("arith-set", 1, fuel_budget=500).guide
    with pytest.raises(FuelExhausted) as e:
        charpair.generic_unpair(starving, 9)
    assert (e.value.budget, e.value.label) == (500, "seed arith-set:1")


def test_family_fields_follow_twists():
    base = charpair.family("squares")
    assert base.guide is not None
    assert charpair.twist_family(base, 7).guide is base.guide
    for spec in ("nadic:3", "cantor", "cantor,xor:3"):
        assert charpair.family(spec).guide is None


@pytest.mark.parametrize("spec", ["morton", "squares,xor:5"])
def test_family_reaches_the_traced_entry_points(spec):
    # benchmarks/spans.py times the guide families by replacing these module
    # attributes, and reads the fuel spent from the Fuel argument
    fam = charpair.family(spec)
    with (mock.patch.object(charpair, "generic_pair", wraps=charpair.generic_pair) as pair,
          mock.patch.object(charpair, "generic_unpair", wraps=charpair.generic_unpair) as unpair,
          mock.patch.object(charpair, "_nat_to_bits", wraps=charpair._nat_to_bits) as to_bits,
          mock.patch.object(charpair, "_bits_to_nat", wraps=charpair._bits_to_nat) as to_nat):
        assert fam.unpair(fam.pair(5, 3)) == (5, 3)
    for call in (pair, unpair):
        call.assert_called_once()
        assert any(isinstance(a, streams.Fuel) for a in call.call_args.args)
    assert (to_bits.call_count, to_nat.call_count) == (3, 3)


def test_prefix_refuses_a_larger_budget():
    prefix = guide.GuidePrefix(charpair.preset_seed("morton"), 100)
    assert charpair.generic_pair(prefix, 5, 3, streams.Fuel(100)) == 27
    with pytest.raises(ValueError, match="exceeds the budget"):
        charpair.generic_pair(prefix, 5, 3, streams.Fuel(101))


# -- structured errors -------------------------------------------------------------------

def test_fuel_error_fields():
    fam = charpair.family("arith-set:1", fuel_budget=700)
    with pytest.raises(FuelExhausted) as info:
        fam.pair(3, 0)
    assert (info.value.budget, info.value.label) == (700, "seed arith-set:1")
    assert str(info.value) == "no progress after 700 stream pulls while evaluating seed arith-set:1"


def test_guide_error_fields(tmp_path):
    path = tmp_path / "short.bits"
    path.write_text("1010")
    label = f"seed-file:{path}:bins"
    fam = charpair.family(f"seed-file:{path}")
    seed = charpair.seed_from_file(path)
    for call in (lambda: fam.unpair(10**6), lambda: charpair.generic_unpair(seed, 10**6)):
        with pytest.raises(GuideExhausted) as info:
            call()
        assert (info.value.position, info.value.label) == (4, label)
        assert str(info.value) == (f"guide of seed {label} ended at position 4"
                                   f" before both components were delimited")
    for call in (lambda: fam.pair(2**9, 0), lambda: charpair.generic_pair(seed, 2**9, 0)):
        with pytest.raises(GuideExhausted) as info:
            call()
        assert (info.value.position, info.value.label) == (4, label)
    with pytest.raises(GuideExhausted) as info:
        list(charpair.bmerge([1], [5, 6], [7, 8]))
    assert (info.value.position, info.value.label) == (1, None)


# -- threads ---------------------------------------------------------------------------

def _race(work, threads=4):
    """Run work(i) on each thread at once, switching often; every thread must finish."""
    started = [threading.Thread(target=work, args=(i,)) for i in range(threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in started:
            t.start()
        for t in started:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in started)


# Widths rise with k, so the calls grow the guide prefix in several steps.
RACE_CALLS = [(f, k) for k in range(40) for f in ("pair", "unpair")]


def _race_call(fam, f, k):
    return fam.pair(2**k + k, k * k) if f == "pair" else fam.unpair(3**k + k)


def test_shared_family_across_threads():
    # The family is cold: the threads race to grow its prefix.
    fam = charpair.family("squares")
    results = [None] * 4

    def work(i):
        results[i] = [_race_call(fam, f, k) for f, k in RACE_CALLS]

    _race(work)
    serial_fam = charpair.family("squares")
    assert results == [[_race_call(serial_fam, f, k) for f, k in RACE_CALLS]] * 4


def test_cold_family_builds_lane_tables_across_threads():
    # After one call, the threads make the family's second call at once, so
    # they race to build its lane tables; the inputs lie on both sides of their
    # limits, 2**113 for pair and 2**256 for unpair.
    fam = charpair.family("bits-of-naturals")
    calls = [("pair", 2**k + k, k * k) for k in range(0, 130, 7)]
    calls += [("unpair", 3**k + k) for k in range(0, 170, 9)]
    fam.unpair(1)
    ready = threading.Barrier(4)
    results = [None] * 4

    def work(i):
        ready.wait()
        results[i] = [getattr(fam, f)(*args) for f, *args in calls]

    with mock.patch.object(charpair, "lane_tables", wraps=charpair.lane_tables) as build:
        _race(work)
    assert build.call_count == 1
    serial_fam = charpair.family("bits-of-naturals")
    assert results == [[getattr(serial_fam, f)(*args) for f, *args in calls]] * 4


def test_starving_family_across_threads():
    fam = charpair.family("arith-set:1", fuel_budget=2000)
    results = [None] * 4

    def work(i):
        results[i] = [outcome(lambda: _race_call(fam, f, k)) for f, k in RACE_CALLS]

    _race(work)
    message = "no progress after 2000 stream pulls while evaluating seed arith-set:1"
    refused = ("FuelExhausted", message, {"budget": 2000, "label": "seed arith-set:1"})
    assert results == [[refused] * len(RACE_CALLS)] * 4
