"""A family's calls, in any order, against the generic construction over its plain seed.

A family builds its lane tables once its second call has finished, and its
guide prefix grows, and fails, in chunks, so the order of its calls is
state. Each step makes one call and compares it with the loop over the
plain seed on fresh fuel: the value, or the error's type, message and
fields, and, where the caller holds the fuel, the fuel left.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from pairbij import charpair, encoders, streams
from pairbij.errors import FuelExhausted
from pairbij.invariants import outcome

SPECS = ["morton", "arith-set:3", "arith-set:1", "bits-of-naturals", "squares", "syracuse",
         "powers2"]
# At 20000 or less a refusal of the loop takes a few ms.
BUDGETS = [3, 64, 257, 258, 2000, 20000]
MASKS = [0, 5, 2**40 + 3]
# Bit lengths 0 and 1 (the bit form of 0 is one bit long), and one either side
# of each preset's W, of the prefix's doublings 64 * 2**k and of the unpair
# tables' cap of 256; none above 257.
LENGTHS = sorted({0, 1, *(w + d for w in (8, 16, 21, 86, 113, 128, 64, 256) for d in (-1, 0, 1))})
# Half the draws are 0 or 1, where a table's charge for n = 0 and n = 1 is read.
WIDTHS = st.sampled_from([0, 1]) | st.sampled_from(LENGTHS)


def _nat(data, width: int) -> int:
    """A natural of exactly `width` bits."""
    return data.draw(st.integers(0, (1 << width) - 1)) | 1 << width >> 1


def _seed(spec: str, bits: list[int]) -> charpair.SeedSpec:
    if spec == "file":
        return charpair.SeedSpec(encoders.BINS, streams.from_list(bits), "seed-file:drawn:bins")
    name, _, k = spec.partition(":")
    return charpair.preset_seed(name, int(k) if k else None)


class FamilyCalls(RuleBasedStateMachine):
    @initialize(spec=st.sampled_from([*SPECS, "file"]), budget=st.sampled_from(BUDGETS),
                mask=st.sampled_from(MASKS),
                bits=st.lists(st.integers(0, 1), min_size=55, max_size=65))
    def build(self, spec, budget, mask, bits):
        self.seed = _seed(spec, bits)
        self.budget, self.mask = budget, mask
        fam = charpair.family_from_seed(self.seed, budget)
        self.fam = charpair.twist_family(fam, mask) if mask else fam
        self.finished = 0  # the family's calls that have finished
        self.tables = None  # the family's tables as its second call left them

    def _fuel(self, overspent: int = 0) -> streams.Fuel:
        fuel = streams.Fuel(self.budget, label=f"seed {self.seed.label}")
        if overspent:
            try:
                fuel.tick(self.budget + overspent)
            except FuelExhausted:
                pass
        return fuel

    def _family_call(self, call, want) -> None:
        got = outcome(call)
        self.finished += 1
        if self.finished == 2:
            self.tables = self.fam.guide.tables
        assert got == outcome(want)

    @rule(data=st.data(), wx=WIDTHS, wy=WIDTHS)
    def pair(self, data, wx, wy):
        x, y = _nat(data, wx), _nat(data, wy)
        self._family_call(lambda: self.fam.pair(x, y),
                          lambda: charpair.generic_pair(self.seed, x, y, self._fuel()) ^ self.mask)

    @rule(data=st.data(), w=WIDTHS)
    def unpair(self, data, w):
        n = _nat(data, w)
        self._family_call(lambda: self.fam.unpair(n),
                          lambda: charpair.generic_unpair(self.seed, n ^ self.mask, self._fuel()))

    @rule(data=st.data(), wx=WIDTHS, wy=WIDTHS, w=WIDTHS, unpairs=st.booleans(),
          overspent=st.sampled_from([0, 0, 1, 3]))
    def source(self, data, wx, wy, w, unpairs, overspent):
        # The family's guide source serves generic_* as the plain seed does, in both
        # directions, and leaves the same fuel; these calls are not the family's.
        if unpairs:
            self._against_seed(charpair.generic_unpair, (_nat(data, w),), overspent)
        else:
            self._against_seed(charpair.generic_pair, (_nat(data, wx), _nat(data, wy)), overspent)

    @precondition(lambda self: self.fam.guide.tables is not None)
    @rule(n=st.integers(0, 3), overspent=st.sampled_from([0, 0, 1]))
    def tabled_unpair(self, n, overspent):
        # The tables charge n = 0 as n = 1, whose bit forms are both one bit long.
        self._against_seed(charpair.generic_unpair, (n,), overspent)

    def _against_seed(self, op, args, overspent: int) -> None:
        answers = []
        for source in (self.fam.guide, self.seed):
            fuel = self._fuel(overspent)
            answers.append((outcome(lambda: op(source, *args, fuel)), fuel.remaining))
        assert answers[0] == answers[1], (op.__name__, args)

    @invariant()
    def reads_no_more_than_the_budget_allows(self):
        # The README's "never more than the family's fuel budget plus one positions".
        assert self.fam.guide._state[1] <= self.budget + 1

    @invariant()
    def tables_come_once_after_the_second_call(self):
        if self.finished < 2:
            assert self.fam.guide.tables is None
        else:
            assert self.fam.guide.tables is self.tables


FamilyCalls.TestCase.settings = settings(max_examples=40, stateful_step_count=12,
                                         deadline=None)
test_family_calls = FamilyCalls.TestCase
