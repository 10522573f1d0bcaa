from fractions import Fraction
from types import MappingProxyType

import pytest
from hypothesis import given
from hypothesis import strategies as st

from singlat import RatCycle, cycle_min

rationals = st.fractions(min_value=-10, max_value=10, max_denominator=12)
cycles = st.dictionaries(st.sampled_from("abcde"), rationals, max_size=5).map(RatCycle)


def test_zero_drops_coefficients():
    c = RatCycle({"a": 0, "b": Fraction(1, 2)})
    assert c.support == ("b",)
    assert c.coefficient("a") == 0
    assert not RatCycle.zero()


def test_arithmetic():
    a = RatCycle({"a": 1, "b": Fraction(1, 2)})
    b = RatCycle({"b": Fraction(1, 2), "c": -2})
    assert a + b == RatCycle({"a": 1, "b": 1, "c": -2})
    assert a - a == RatCycle.zero()
    assert 2 * b == RatCycle({"b": 1, "c": -4})
    assert -a == RatCycle({"a": -1, "b": Fraction(-1, 2)})


def test_partial_order():
    small = RatCycle({"a": 1})
    big = RatCycle({"a": 1, "b": 1})
    assert small <= big and small < big
    assert not big <= small
    incomparable = RatCycle({"b": 5})
    assert not small <= incomparable and not incomparable <= small


def test_floor_and_frac():
    c = RatCycle({"a": Fraction(9, 4), "b": Fraction(-1, 3)})
    assert c.floor() == RatCycle({"a": 2, "b": -1})
    assert c.frac() == RatCycle({"a": Fraction(1, 4), "b": Fraction(2, 3)})
    assert all(0 <= q < 1 for _v, q in c.frac().items())


def test_integrality_and_effectivity():
    assert RatCycle({"a": 3}).is_integral
    assert not RatCycle({"a": Fraction(1, 2)}).is_integral
    assert RatCycle({"a": 3}).is_effective
    assert not RatCycle({"a": -1}).is_effective


def test_hash_and_str():
    assert hash(RatCycle({"a": 1})) == hash(RatCycle({"a": Fraction(2, 2)}))
    assert str(RatCycle.zero()) == "0"
    assert str(RatCycle({"a": 1, "b": Fraction(4, 7)})) == "a + 4/7*b"


def test_scalar_string_coercion():
    assert RatCycle({"a": "1/2"}) == RatCycle({"a": Fraction(1, 2)})


@given(cycles, cycles)
def test_addition_commutes(a, b):
    assert a + b == b + a


@given(cycles, cycles)
def test_min_is_lower_bound(a, b):
    m = cycle_min(a, b)
    assert m <= a and m <= b
    assert cycle_min(m, a) == m


@given(cycles)
def test_floor_plus_frac(a):
    assert a.floor() + a.frac() == a
    assert a.floor().is_integral


def test_mul_rejects_nothing_weird():
    with pytest.raises(ValueError):
        RatCycle({"a": "not-a-number"})


def test_accepts_any_mapping_or_pairs():
    expected = RatCycle({"a": 1, "b": Fraction(1, 2)})
    assert RatCycle(MappingProxyType({"a": 1, "b": "1/2"})) == expected
    assert RatCycle([("a", 1), ("b", Fraction(1, 2))]) == expected


def test_fraction_coefficients_are_stored_as_given():
    q = Fraction(3, 7)
    assert RatCycle({"a": q}).coefficient("a") is q
    assert RatCycle({"a": 2}).coefficient("a") == Fraction(2)
    assert type(RatCycle({"a": "1/2"}).coefficient("a")) is Fraction
