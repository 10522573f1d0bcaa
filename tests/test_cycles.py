import operator
from fractions import Fraction
from types import MappingProxyType

import pytest
from hypothesis import given
from hypothesis import strategies as st

from singlat import InputError, RatCycle, cycle_min
from singlat import graph as graph_module

from conftest import graph

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


def test_float_coefficient_is_refused_naming_its_vertex():
    with pytest.raises(TypeError, match="'a'"):
        RatCycle({"a": 0.1})
    assert RatCycle({"a": "0.1"}).coefficient("a") == Fraction(1, 10)  # strings are exact


def test_float_scalar_is_refused():
    with pytest.raises(TypeError):
        RatCycle({"a": 1}) * 0.5
    with pytest.raises(TypeError):
        0.5 * RatCycle({"a": 1})
    assert RatCycle({"a": 1}) * "1/2" == RatCycle({"a": Fraction(1, 2)})


def test_infinite_coefficient_is_a_type_error():
    with pytest.raises(TypeError, match="'a'"):
        RatCycle({"a": float("inf")})


@pytest.mark.parametrize("pairs, repeated", [
    ([("a", 1), ("a", 2)], "a"),
    ([("a", 1), ("a", 0)], "a"),  # a later zero is no way out
    ({1: 2, "1": 3}, "1"),  # ids are taken as str
])
def test_repeated_vertex_is_refused(pairs, repeated):
    with pytest.raises(InputError, match=f"vertex '{repeated}' repeated"):
        RatCycle(pairs)
    with pytest.raises(InputError, match=f"vertex '{repeated}' repeated"):
        RatCycle(pairs.items() if isinstance(pairs, dict) else
                 [(vid, 1) for vid, _ in pairs], 7)  # the numerator form too


# --- the reference model: coefficients as a dict of Fractions ---

class ReferenceCycle:
    """The plain semantics `RatCycle` must keep: one normalised Fraction
    per vertex of the support."""

    def __init__(self, coeffs):
        self.coeffs = {str(v): Fraction(q) for v, q in dict(coeffs).items() if Fraction(q)}

    def coefficient(self, vid):
        return self.coeffs.get(vid, Fraction(0))

    def items(self):
        return tuple(sorted(self.coeffs.items()))

    def support(self):
        return tuple(sorted(self.coeffs))

    def __str__(self):
        terms = [vid if q == 1 else f"{q}*{vid}" for vid, q in self.items()]
        return " + ".join(terms) or "0"

    def __repr__(self):
        return f"RatCycle({dict(self.items())!r})"

    def combine(self, other, op):
        return ReferenceCycle({v: op(self.coefficient(v), other.coefficient(v))
                               for v in set(self.coeffs) | set(other.coeffs)})

    def scaled(self, s):
        return ReferenceCycle({v: s * q for v, q in self.coeffs.items()})

    def floor(self):
        return ReferenceCycle({v: q.numerator // q.denominator for v, q in self.coeffs.items()})

    def frac(self):
        return ReferenceCycle({v: q - q.numerator // q.denominator for v, q in self.coeffs.items()})

    def le(self, other):
        return all(self.coefficient(v) <= other.coefficient(v)
                   for v in set(self.coeffs) | set(other.coeffs))


VERTICES = "abcde"
LINE = graph([(v, -2) for v in VERTICES], list(zip(VERTICES, VERTICES[1:])))
BIG = 10 ** 6


@st.composite
def cycle_pairs(draw):
    """A `RatCycle` and its reference, built from coefficients or, through
    `vector_cycle`, from integer numerators over a scale up to 10^6."""
    if draw(st.booleans()):
        coeffs = draw(st.dictionaries(st.sampled_from(VERTICES), st.one_of(
            st.fractions(min_value=-BIG, max_value=BIG, max_denominator=BIG),
            st.integers(-BIG, BIG)), max_size=5))
        return RatCycle(coeffs), ReferenceCycle(coeffs)
    vec = draw(st.lists(st.integers(-BIG, BIG) | st.just(0), min_size=5, max_size=5))
    scale = draw(st.integers(1, BIG))
    return (graph_module.vector_cycle(LINE, vec, scale),
            ReferenceCycle({v: Fraction(x, scale) for v, x in zip(VERTICES, vec)}))


def agrees(cycle, ref):
    assert cycle.items() == ref.items()
    assert cycle.support == ref.support()
    assert all(cycle.coefficient(v) == ref.coefficient(v) for v in VERTICES)
    assert str(cycle) == str(ref) and repr(cycle) == repr(ref)
    assert cycle.is_integral == all(q.denominator == 1 for q in ref.coeffs.values())
    assert cycle.is_effective == all(q > 0 for q in ref.coeffs.values())
    assert cycle == RatCycle(dict(ref.items()))
    assert hash(cycle) == hash(RatCycle(dict(ref.items())))
    return True


@given(cycle_pairs(), cycle_pairs(), st.fractions(min_value=-BIG, max_value=BIG, max_denominator=BIG))
def test_operations_agree_with_the_reference(x, y, s):
    (a, ra), (b, rb) = x, y
    assert agrees(a, ra) and agrees(b, rb)
    assert agrees(a + b, ra.combine(rb, operator.add))
    assert agrees(a - b, ra.combine(rb, operator.sub))
    assert agrees(cycle_min(a, b), ra.combine(rb, min))
    assert agrees(-a, ra.scaled(-1))
    assert agrees(a * s, ra.scaled(s)) and agrees(s * a, ra.scaled(s))
    assert agrees(a * int(s), ra.scaled(int(s)))
    assert agrees(a.floor(), ra.floor()) and agrees(a.frac(), ra.frac())
    assert (a == b) == (ra.items() == rb.items())
    assert (a <= b) == ra.le(rb) and (b <= a) == rb.le(ra)
    assert (a < b) == (ra.le(rb) and ra.items() != rb.items())
    same = graph_module.vector_cycle(LINE, *graph_module.cycle_vector(LINE, a))
    assert same == a and hash(same) == hash(a) and same <= a and not same < a


def test_numerator_form_is_kept_in_lowest_terms():
    c = RatCycle([("a", 2), ("b", -4), ("c", 0)], -6)
    assert c == RatCycle({"a": Fraction(-1, 3), "b": Fraction(2, 3)})
    assert c.denominator == 3 and c.numerators("abc") == [-1, 2, 0]
    assert RatCycle({"a": Fraction(1, 4), "b": Fraction(1, 6)}).denominator == 12
    assert RatCycle([("a", 0)], 5).denominator == 1
    with pytest.raises(ZeroDivisionError):
        RatCycle([("a", 1)], 0)
    with pytest.raises(TypeError):
        RatCycle([("a", 0.5)], 1)
