"""Exact rational cycles supported on named vertices.

A cycle is a finitely supported map from vertex ids to rationals; the zero
cycle has empty support. It is stored as integer numerators over one
positive denominator, in lowest terms: the denominator is the lcm of the
coefficients' own denominators, and the zero cycle's is 1. So arithmetic,
comparison and hashing are integer work plus one gcd, and all of it is
bit-exact. A coefficient is read as a `fractions.Fraction`, built on first
read and kept: a `Fraction` given to the constructor is the one read back.
Floats are refused, being inexact. `graph.cycle_vector`, the one place a
cycle becomes integers, reads the numerators as stored.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping
from fractions import Fraction
from typing import Optional, Union

from .errors import InputError

Coefficient = Union[int, Fraction, str]
_ZERO = Fraction(0)


class RatCycle:
    """Immutable rational divisor in the vertex basis; zeros are dropped.

    `RatCycle(coeffs)` takes rational coefficients; `RatCycle(numerators,
    denominator)` takes integer numerators over a nonzero integer
    denominator. Either way each vertex id, taken as `str`, appears once.
    """

    # `_num` maps the support to numerators over `_den`; `_views` memoises
    # the coefficients read as Fractions (None until the first one)
    __slots__ = ("_num", "_den", "_views")

    def __init__(self, coeffs: Mapping[str, Coefficient] | Iterable[tuple[str, Coefficient]] = (),
                 denominator: Optional[int] = None):
        pairs = list(coeffs.items() if isinstance(coeffs, Mapping) else coeffs)
        values = {str(vid): value for vid, value in pairs}
        if len(values) != len(pairs):
            seen = set()
            for vid, _value in pairs:
                if str(vid) in seen:
                    raise InputError(f"vertex {str(vid)!r} repeated in cycle")
                seen.add(str(vid))
        views = None
        if denominator is None:
            views, denominator = {}, 1
            for vid, value in values.items():
                if isinstance(value, float):
                    raise TypeError(f"coefficient of {vid!r} is the float {value!r}: "
                                    "give an int, a Fraction or an exact string")
                if not isinstance(value, int):
                    if not isinstance(value, Fraction):
                        value = values[vid] = Fraction(value)
                    if value:
                        views[vid] = value
                    denominator = math.lcm(denominator, value.denominator)
            values = {vid: q.numerator * (denominator // q.denominator)
                      for vid, q in values.items()}
        elif not denominator:
            raise ZeroDivisionError("cycle with denominator 0")
        elif denominator < 0:
            denominator = -denominator
            values = {vid: -x for vid, x in values.items()}
        common = math.gcd(denominator, *values.values())  # refuses a non-integer numerator
        if common != 1:
            denominator //= common
            values = {vid: x // common for vid, x in values.items() if x}
        elif 0 in values.values():
            values = {vid: x for vid, x in values.items() if x}
        self._num, self._den, self._views = values, denominator, views or None

    @classmethod
    def zero(cls) -> "RatCycle":
        return cls()

    @classmethod
    def unit(cls, vid: str) -> "RatCycle":
        return cls(((vid, 1),), 1)

    @property
    def denominator(self) -> int:
        """The common denominator: the lcm of the coefficients' denominators."""
        return self._den

    def numerators(self, ids: Iterable[str]) -> list[int]:
        """The numerators over `denominator` at the given ids, in order; 0
        off the support."""
        get = self._num.get
        return [get(vid, 0) for vid in ids]

    def coefficient(self, vid: str) -> Fraction:
        views = self._views
        if views is None:
            views = self._views = {}
        elif vid in views:
            return views[vid]
        x = self._num.get(vid)
        if x is None:
            return _ZERO
        q = views[vid] = Fraction(x, self._den)
        return q

    @property
    def support(self) -> tuple[str, ...]:
        return tuple(sorted(self._num))

    def items(self) -> tuple[tuple[str, Fraction], ...]:
        return tuple((vid, self.coefficient(vid)) for vid in self.support)

    @property
    def is_integral(self) -> bool:
        return self._den == 1

    @property
    def is_effective(self) -> bool:
        return all(x > 0 for x in self._num.values())

    def floor(self) -> "RatCycle":
        """Coefficient-wise integral part."""
        den = self._den
        return RatCycle({v: x // den for v, x in self._num.items()}, 1)

    def frac(self) -> "RatCycle":
        """Coefficient-wise fractional part; every coefficient lands in [0, 1)."""
        den = self._den
        return RatCycle({v: x % den for v, x in self._num.items()}, den)

    def __bool__(self) -> bool:
        return bool(self._num)

    def _combine(self, other: "RatCycle", sign: int) -> "RatCycle":
        # self + sign * other over the lcm of the two denominators
        den = math.lcm(self._den, other._den)
        scale = den // self._den
        data = {v: x * scale for v, x in self._num.items()} if scale != 1 else dict(self._num)
        scale = sign * (den // other._den)
        for vid, x in other._num.items():
            data[vid] = data.get(vid, 0) + x * scale
        return RatCycle(data, den)

    def __add__(self, other: "RatCycle") -> "RatCycle":
        if not isinstance(other, RatCycle):
            return NotImplemented
        return self._combine(other, 1)

    def __sub__(self, other: "RatCycle") -> "RatCycle":
        if not isinstance(other, RatCycle):
            return NotImplemented
        return self._combine(other, -1)

    def __neg__(self) -> "RatCycle":
        return RatCycle({v: -x for v, x in self._num.items()}, self._den)

    def __mul__(self, scalar: Coefficient) -> "RatCycle":
        if isinstance(scalar, float):
            raise TypeError(f"cannot scale a cycle by the float {scalar!r}: "
                            "give an int, a Fraction or an exact string")
        if not isinstance(scalar, (int, Fraction)):
            scalar = Fraction(scalar)
        n = scalar.numerator
        return RatCycle({v: x * n for v, x in self._num.items()}, self._den * scalar.denominator)

    __rmul__ = __mul__

    # Coefficient-wise partial order, like set inclusion: `not a <= b` does
    # not imply `a > b`. Both denominators are positive, so x/da <= y/db
    # exactly when x*db <= y*da.
    def __le__(self, other: "RatCycle") -> bool:
        if not isinstance(other, RatCycle):
            return NotImplemented
        mine, theirs, da, db = self._num, other._num, self._den, other._den
        for vid, x in mine.items():
            if x * db > theirs.get(vid, 0) * da:
                return False
        return all(y >= 0 for vid, y in theirs.items() if vid not in mine)

    def __lt__(self, other: "RatCycle") -> bool:
        if not isinstance(other, RatCycle):
            return NotImplemented
        return self <= other and self != other

    def __ge__(self, other: "RatCycle") -> bool:
        if not isinstance(other, RatCycle):
            return NotImplemented
        return other <= self

    def __gt__(self, other: "RatCycle") -> bool:
        if not isinstance(other, RatCycle):
            return NotImplemented
        return other < self

    def __eq__(self, other) -> bool:
        if not isinstance(other, RatCycle):
            return NotImplemented
        return self._den == other._den and self._num == other._num

    def __hash__(self) -> int:
        return hash((self._den, frozenset(self._num.items())))

    def __repr__(self) -> str:
        return f"RatCycle({dict(self.items())!r})"

    def __str__(self) -> str:
        if not self._num:
            return "0"
        terms = []
        for vid, q in self.items():
            if q == 1:
                terms.append(vid)
            else:
                terms.append(f"{q}*{vid}")
        return " + ".join(terms)


def cycle_min(a: RatCycle, b: RatCycle) -> RatCycle:
    """Coefficient-wise minimum of two cycles on the same vertex set."""
    den = math.lcm(a._den, b._den)
    sa, sb = den // a._den, den // b._den
    na, nb = a._num, b._num
    return RatCycle({vid: min(na.get(vid, 0) * sa, nb.get(vid, 0) * sb)
                     for vid in na.keys() | nb.keys()}, den)
