"""Exact rational cycles supported on named vertices.

A cycle is a finitely supported map from vertex ids to rationals; the zero
cycle has empty support. Coefficients are `fractions.Fraction`, so all
arithmetic is bit-exact.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from fractions import Fraction
from typing import Union

Coefficient = Union[int, Fraction, str]
_ZERO = Fraction(0)


class RatCycle:
    """Immutable rational divisor in the vertex basis; zeros are dropped."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[str, Coefficient] | Iterable[tuple[str, Coefficient]] = ()):
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        data = {}
        for vid, value in items:
            q = value if isinstance(value, Fraction) else Fraction(value)
            if q:
                data[str(vid)] = q
        self._coeffs = data

    @classmethod
    def zero(cls) -> "RatCycle":
        return cls()

    @classmethod
    def unit(cls, vid: str) -> "RatCycle":
        return cls({vid: 1})

    def coefficient(self, vid: str) -> Fraction:
        return self._coeffs.get(vid, _ZERO)

    @property
    def support(self) -> tuple[str, ...]:
        return tuple(sorted(self._coeffs))

    def items(self) -> tuple[tuple[str, Fraction], ...]:
        return tuple(sorted(self._coeffs.items()))

    @property
    def is_integral(self) -> bool:
        return all(q.denominator == 1 for q in self._coeffs.values())

    @property
    def is_effective(self) -> bool:
        return all(q > 0 for q in self._coeffs.values())

    def floor(self) -> "RatCycle":
        """Coefficient-wise integral part."""
        return RatCycle({v: Fraction(q.numerator // q.denominator) for v, q in self._coeffs.items()})

    def frac(self) -> "RatCycle":
        """Coefficient-wise fractional part; every coefficient lands in [0, 1)."""
        return self - self.floor()

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __add__(self, other: "RatCycle") -> "RatCycle":
        if not isinstance(other, RatCycle):
            return NotImplemented
        data = dict(self._coeffs)
        for vid, q in other._coeffs.items():
            data[vid] = data.get(vid, _ZERO) + q
        return RatCycle(data)

    def __sub__(self, other: "RatCycle") -> "RatCycle":
        if not isinstance(other, RatCycle):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "RatCycle":
        return RatCycle({v: -q for v, q in self._coeffs.items()})

    def __mul__(self, scalar: Coefficient) -> "RatCycle":
        s = Fraction(scalar)
        return RatCycle({v: s * q for v, q in self._coeffs.items()})

    __rmul__ = __mul__

    # Coefficient-wise partial order, like set inclusion: `not a <= b` does
    # not imply `a > b`.
    def __le__(self, other: "RatCycle") -> bool:
        if not isinstance(other, RatCycle):
            return NotImplemented
        for vid in set(self._coeffs) | set(other._coeffs):
            if self.coefficient(vid) > other.coefficient(vid):
                return False
        return True

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
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(frozenset(self._coeffs.items()))

    def __repr__(self) -> str:
        return f"RatCycle({dict(self.items())!r})"

    def __str__(self) -> str:
        if not self._coeffs:
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
    data = {}
    for vid in set(a.support) | set(b.support):
        data[vid] = min(a.coefficient(vid), b.coefficient(vid))
    return RatCycle(data)
