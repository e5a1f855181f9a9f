"""Truncated formal power series in q with exact rational coefficients.

A QSeries holds the integer numerators of its coefficients for q^0 .. q^order
over one positive common denominator, and exposes the coefficients as
Fractions.  Binary operations on series of different orders silently truncate
to the smaller order; asking for a coefficient beyond the recorded order is
an error, never a guess.  A product is one integer product (Kronecker
substitution): a w-byte slot has room for 2^(8w-1) > max|a| max|b| (n+1),
a bound on every coefficient through q^n, so none carries (__mul__).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Iterable

from ._value import Value
from .numbers import _euler_product, as_order

RationalLike = Fraction | int


class QSeries(Value):
    """(nums[0] + nums[1] q + ... + nums[order] q^order) / den.

    The fraction is kept in lowest terms, gcd(den, *nums) == 1 with den > 0,
    so equal series have equal fields.  coeffs and coefficient() return
    Fractions.  Series are built hundreds of times per command, so the
    constructor, equality and hash are written out here rather than taken
    from Value.
    """

    __slots__ = ("order", "nums", "den")

    def __init__(self, order: int, nums: tuple[int, ...], den: int = 1) -> None:
        nums = tuple(nums)
        if order < 0:
            raise ValueError("order must be non-negative")
        if len(nums) != order + 1:
            raise ValueError(
                f"series of order {order} needs exactly {order + 1} "
                f"numerators, got {len(nums)}")
        if den < 1:
            raise ValueError("denominator must be positive")
        if den != 1:
            g = gcd(den, *nums)
            if g != 1:
                nums = tuple(x // g for x in nums)
                den //= g
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "nums", nums)
        object.__setattr__(self, "den", den)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        # a field tuple, so that a shared nums compares by identity
        return (self.order, self.nums, self.den) == \
            (other.order, other.nums, other.den)

    def __hash__(self) -> int:
        return hash((self.order, self.nums, self.den))

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(order: int) -> "QSeries":
        return QSeries(order, (0,) * (order + 1))

    @staticmethod
    def one(order: int) -> "QSeries":
        return QSeries(order, (1,) + (0,) * order)

    # -- access ------------------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """Coefficients of q^1 .. q^order; a new tuple on every access."""
        den = self.den
        return tuple(Fraction(x, den) for x in self.nums[1:])

    def coefficient(self, n: int) -> Fraction:
        """Coefficient of q^n; n beyond the recorded order is an error."""
        if n < 0 or n > self.order:
            raise ValueError(f"coefficient q^{n} outside recorded order {self.order}")
        return Fraction(self.nums[n], self.den)

    def truncate(self, order: int) -> "QSeries":
        if order > self.order:
            raise ValueError(f"cannot extend order {self.order} to {order}")
        if order == self.order:
            return self
        return QSeries(order, self.nums[:order + 1], self.den)

    def is_zero(self) -> bool:
        return not any(self.nums)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "QSeries") -> "QSeries":
        if not isinstance(other, QSeries):
            return NotImplemented
        return _linear(min(self.order, other.order), ((1, self), (1, other)))

    def __sub__(self, other: "QSeries") -> "QSeries":
        if not isinstance(other, QSeries):
            return NotImplemented
        return _linear(min(self.order, other.order), ((1, self), (-1, other)))

    def __neg__(self) -> "QSeries":
        return _linear(self.order, ((-1, self),))

    def scale(self, c: RationalLike) -> "QSeries":
        return _linear(self.order, ((c, self),))

    def __mul__(self, other: "QSeries") -> "QSeries":
        """The product cut at q^n, n = min(order), by one integer product.

        The numerators a_0..a_n fill w-byte slots, A = sum a_i 2^(8wi).
        Every c_k = sum a_i b_(k-i), k <= n, has |c_k| <= max|a| max|b|
        (n+1) < half = 2^(8w-1), so in A B + sum half 2^(8wk) each slot
        c_k + half lies in [0, 2^(8w)) and carries into no other; the powers
        past q^n make a multiple of 2^(8w(n+1)), of either sign, which the
        mask removes.  A zero operand would leave w too small for the
        other, so it returns zero at once.
        """
        if not isinstance(other, QSeries):
            return NotImplemented
        n = min(self.order, other.order)
        a, b = self.nums[:n + 1], other.nums[:n + 1]
        if not any(a) or not any(b):
            return QSeries.zero(n)
        w = (max(map(abs, a)) * max(map(abs, b)) * (n + 1)).bit_length() // 8 + 1
        half = 1 << (8 * w - 1)
        offs = int.from_bytes(half.to_bytes(w, "little") * (n + 1), "little")
        pa, pb = (int.from_bytes(b"".join((x + half).to_bytes(w, "little")
                                          for x in t), "little") - offs
                  for t in (a, b))
        c = ((pa * pb + offs) & ((1 << (8 * w * (n + 1))) - 1)).to_bytes(
            w * (n + 1), "little")
        return QSeries(n, tuple(int.from_bytes(c[i:i + w], "little") - half
                                for i in range(0, w * (n + 1), w)),
                       self.den * other.den)

    def q_d_dq(self) -> "QSeries":
        """Apply q * d/dq: multiply the coefficient of q^n by n."""
        return QSeries(self.order, tuple(n * a for n, a in enumerate(self.nums)),
                       self.den)

    # -- io ------------------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "order": self.order,
            "constant": _rat_str(self.nums[0], self.den),
            "coeffs": [_rat_str(x, self.den) for x in self.nums[1:]],
        }

    def to_text(self) -> str:
        den = self.den
        return _signed_sum((Fraction(x, den) if den != 1 else x,
                            "" if n == 0 else "q" if n == 1 else f"q^{n}")
                           for n, x in enumerate(self.nums) if x) \
            + f" + O(q^{self.order + 1})"


def _linear(order: int, terms: Iterable[tuple[RationalLike, QSeries]]) -> QSeries:
    """sum c * s over the (c, s) terms, cut at q^order: the numerator rows
    brought to the lcm of the c.den * s.den and summed in one integer pass,
    reduced once by the constructor.  Each s must reach q^order."""
    rows = [(*_ratio(c), s) for c, s in terms]
    if any(s.order < order for _, _, s in rows):
        raise ValueError(f"cannot extend a series to order {order}")
    den = lcm(*(q * s.den for _, q, s in rows))
    out = [0] * (order + 1)
    for p, q, s in rows:
        m = p * (den // (q * s.den))
        out = [x + m * a for x, a in zip(out, s.nums)]
    return QSeries(order, tuple(out), den)


def _ratio(c: RationalLike) -> tuple[int, int]:
    """(numerator, denominator) of an exact coefficient.  A float or a
    string is refused, not rounded: 0.1 would be 3602879701896397/2^55."""
    if not isinstance(c, (int, Fraction)):
        raise TypeError(f"an exact coefficient is an int or a Fraction, "
                        f"not {type(c).__name__}")
    return c.as_integer_ratio()


def _rat_str(x: int, den: int) -> str:
    g = gcd(x, den)
    return f"{x // g}/{den // g}"


def _signed_sum(terms: Iterable[tuple[RationalLike, str]]) -> str:
    """The (coefficient, name) terms as c*name joined by + and -: a
    coefficient 1 or -1 is shown as the sign alone, and a term with an
    empty name as its coefficient alone.  No terms read 0."""
    text = ""
    for c, name in terms:
        term = (str(c) if not name else name if c == 1
                else f"-{name}" if c == -1 else f"{c}*{name}")
        if text:
            term = f" - {term[1:]}" if term.startswith("-") else f" + {term}"
        text += term
    return text or "0"


# a few orders of an immutable series, asked for many times; typed, so
# that 20.0 reaches as_order
@lru_cache(maxsize=8, typed=True)
def eta24(order: int) -> QSeries:
    """q * prod_{n>=1} (1 - q^n)^24, the discriminant cusp form; the
    coefficient of q^n is tau(n)."""
    order = as_order(order)
    n = order - 1  # need the 24th power of the Euler product to q^n
    power = QSeries(n, tuple(_euler_product(n)))
    for _ in range(3):
        power = power * power          # the 8th power
    power = power * power * power
    return QSeries(order, (0,) + power.nums)
