import sys

import pytest

from pairbij import streams
from pairbij.errors import EmptyCycle, FuelExhausted, ZeroStep


def test_from_list_yields_exactly():
    assert streams.take(streams.from_list([2, 0, 1, 2]), 10) == [2, 0, 1, 2]


def test_from_list_empty():
    assert streams.take(streams.from_list([]), 5) == []


def test_from_list_ordering():
    it = iter(streams.from_list([10, 20, 30]))
    assert next(it) == 10


@pytest.mark.parametrize(
    "xs,n,want",
    [
        ([1, 0], 6, [1, 0, 1, 0, 1, 0]),
        ([0], 3, [0, 0, 0]),
        ([1, 1, 0], 7, [1, 1, 0, 1, 1, 0, 1]),
    ],
)
def test_cycle(xs, n, want):
    assert streams.take(streams.cycle(xs), n) == want


def test_cycle_empty_raises():
    with pytest.raises(EmptyCycle):
        streams.cycle([])


@pytest.mark.parametrize(
    "start,step,n,want",
    [
        (0, 2, 4, [0, 2, 4, 6]),
        (0, 1, 3, [0, 1, 2]),
        (5, 3, 3, [5, 8, 11]),
    ],
)
def test_arith(start, step, n, want):
    assert streams.take(streams.arith(start, step), n) == want


def test_arith_zero_step_raises():
    with pytest.raises(ZeroStep):
        streams.arith(0, 0)


@pytest.mark.parametrize("step", [-1, -2])
def test_arith_negative_step_raises(step):
    # a negative step would put negatives into a stream of naturals
    with pytest.raises(ZeroStep, match=f"needs step >= 1, got {step}"):
        streams.arith(3, step)


def test_take_short_stream():
    assert streams.take(streams.from_list([7]), 5) == [7]


def test_take_zero():
    assert streams.take(streams.cycle([1, 0]), 0) == []


def test_take_negative_raises():
    with pytest.raises(ValueError):
        streams.take(streams.from_list([1]), -1)


def test_smap():
    assert streams.take(streams.smap(lambda x: x * x, streams.arith(0, 1)), 4) == [0, 1, 4, 9]


def test_smap_identity():
    s = streams.from_list([3, 1, 4])
    assert streams.take(streams.smap(lambda x: x, s), 10) == [3, 1, 4]


def test_smap_pulls_source_exactly_n_times():
    pulls = []

    def gen():
        n = 0
        while True:
            pulls.append(n)
            yield n
            n += 1

    doubled = streams.smap(lambda x: 2 * x, streams.Stream(gen))
    assert streams.take(doubled, 5) == [0, 2, 4, 6, 8]
    assert len(pulls) == 5


def test_streams_restart_from_description():
    s = streams.arith(3, 4)
    assert streams.take(s, 3) == streams.take(s, 3) == [3, 7, 11]


def test_fuel_meter_allows_budget():
    fuel = streams.Fuel(10)
    assert list(fuel.meter(range(10))) == list(range(10))


def test_fuel_meter_exhausts():
    fuel = streams.Fuel(100, label="test stream")
    with pytest.raises(FuelExhausted):
        streams.take(fuel.meter(streams.cycle([0])), 101)


def test_fuel_tick_refuses_a_refund():
    fuel = streams.Fuel(10)
    with pytest.raises(ValueError, match="-5"):
        fuel.tick(-5)
    fuel.tick(0)
    assert fuel.remaining == 10


def test_fuel_budget_must_be_positive():
    with pytest.raises(ValueError):
        streams.Fuel(0)


def test_fuel_read_limit_and_spend():
    fuel = streams.Fuel(10)
    assert fuel.read_limit() == 11  # what the fuel pays for, and the pull past it
    fuel.spend(4)
    assert (fuel.remaining, fuel.read_limit()) == (6, 7)
    with pytest.raises(ValueError):
        fuel.spend(-1)  # no refund, also where the positions fit the fuel
    fuel.spend(6)
    assert (fuel.remaining, fuel.read_limit()) == (0, 1)
    with pytest.raises(FuelExhausted):
        fuel.spend(5)  # charged one past what was left, not all five
    assert fuel.remaining == -1


def test_overspent_fuel_reads_one_and_spends_one():
    fuel = streams.Fuel(5)
    with pytest.raises(FuelExhausted):
        fuel.tick(8)
    assert (fuel.remaining, fuel.read_limit()) == (-3, 1)
    with pytest.raises(FuelExhausted):
        fuel.spend(5)
    assert fuel.remaining == -4


def test_fuel_read_limit_past_the_word_size():
    fuel = streams.Fuel(10**30)
    assert fuel.read_limit() == sys.maxsize  # an islice bound
    fuel.spend(10**29)
    assert fuel.remaining == 9 * 10**29


def test_fuel_spend_zero_never_refunds():
    fuel = streams.Fuel(3)
    fuel.spend(0)
    assert fuel.remaining == 3
    fuel.spend(3)
    fuel.spend(0)
    assert fuel.remaining == 0
    with pytest.raises(FuelExhausted):
        fuel.spend(1)
    with pytest.raises(FuelExhausted):
        fuel.spend(0)
    assert fuel.remaining == -1
