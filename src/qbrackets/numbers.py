"""Bernoulli numbers, Eulerian polynomials, lambda coefficients, compositions.

Everything here is exact rational arithmetic on top of ``fractions.Fraction``
and arbitrary-precision integers.  The Bernoulli convention is the generating
function X/(exp(X)-1), so bernoulli(1) == -1/2.  Do not change this: the
opposite sign silently corrupts every lambda coefficient and with them every
product expansion downstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from operator import index
from typing import Iterable, Iterator


@lru_cache(maxsize=None)
def bernoulli(n: int) -> Fraction:
    """Bernoulli number B_n with B_1 = -1/2 (convention X/(e^X - 1))."""
    if n < 0:
        raise ValueError("Bernoulli index must be non-negative")
    if n == 0:
        return Fraction(1)
    # recurrence sum_{j=0}^{n} C(n+1, j) B_j = 0 for n >= 1
    acc = Fraction(0)
    for j in range(n):
        acc += comb(n + 1, j) * bernoulli(j)
    return -acc / (n + 1)


def eulerian_number(s: int, n: int) -> int:
    """Eulerian number A_{s,n}, the coefficient of t^n in P_s(t)."""
    if s < 0 or n < 0:
        raise ValueError("Eulerian indices must be non-negative")
    return sum((-1) ** i * comb(s + 1, i) * (n + 1 - i) ** s for i in range(n + 1))


@dataclass(frozen=True)
class EulerianPolynomial:
    """P_s(t) = sum_n A_{s,n} t^n; satisfies sum_{v>0} v^s z^v = z P_s(z)/(1-z)^{s+1}."""

    s: int
    coefficients: tuple[int, ...]

    def __call__(self, t: Fraction | int) -> Fraction:
        value = Fraction(0)
        for c in reversed(self.coefficients):
            value = value * t + c
        return value


@lru_cache(maxsize=None)
def eulerian_polynomial(s: int) -> EulerianPolynomial:
    """The s-th Eulerian polynomial, coefficients from the closed form A_{s,n}."""
    if s < 0:
        raise ValueError("Eulerian polynomial index must be non-negative")
    if s == 0:
        return EulerianPolynomial(0, (1,))
    return EulerianPolynomial(s, tuple(eulerian_number(s, n) for n in range(s)))


def eulerian_polynomial_recurrence(s: int) -> EulerianPolynomial:
    """Same polynomial computed by P_{k+1} = P_k (1 + k t) + t (1 - t) P_k'.

    Kept public as an independent cross-check of the closed form.
    """
    if s < 0:
        raise ValueError("Eulerian polynomial index must be non-negative")
    coeffs = [1]
    for k in range(s):
        nxt = [0] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i] += c                      # P_k
            nxt[i + 1] += k * c              # k t P_k
            if i >= 1:
                nxt[i] += i * c              # t P_k' picks i c t^i
                nxt[i + 1] -= i * c          # -t^2 P_k'
        while len(nxt) > 1 and nxt[-1] == 0:
            nxt.pop()
        coeffs = nxt
    return EulerianPolynomial(s, tuple(coeffs))


@lru_cache(maxsize=None)
def lambda_coeff(a: int, b: int, j: int) -> Fraction:
    """The coefficient lambda^j_{a,b} = (-1)^(b-1) C(a+b-j-1, a-j) B_{a+b-j}/(a+b-j)!.

    These are the single-letter correction terms in the product of two
    brackets; j must lie in [1, a].
    """
    if a < 1 or b < 1:
        raise ValueError("lambda_coeff needs positive letters a, b")
    if not 1 <= j <= a:
        raise ValueError(f"lambda_coeff index j={j} outside [1, {a}]")
    m = a + b - j
    sign = -1 if b % 2 == 0 else 1
    return Fraction(sign * comb(m - 1, a - j)) * bernoulli(m) / factorial(m)


def as_composition(parts: Iterable[int]) -> tuple[int, ...]:
    """The parts as a tuple of ints, after the one check every composition
    entering the library passes; () is the empty composition and is valid.
    A part that is not an integer raises TypeError, a part below 1
    ValueError."""
    comp = tuple(map(index, parts))
    if comp and min(comp) < 1:
        raise ValueError(f"composition parts must be positive: {comp}")
    return comp


def compositions(k: int, l: int, admissible: bool = False) -> Iterator[tuple[int, ...]]:
    """Yield the compositions of k into l positive parts in lexicographic order.

    With admissible=True only compositions whose first part exceeds 1 are
    produced.  k = l = 0 yields the empty composition.
    """
    if k < 0 or l < 0:
        return
    if l == 0:
        if k == 0:
            yield ()
        return

    def rec(prefix: tuple[int, ...], remaining: int, slots: int) -> Iterator[tuple[int, ...]]:
        if slots == 1:
            if remaining >= 1:
                yield prefix + (remaining,)
            return
        for first in range(1, remaining - slots + 2):
            yield from rec(prefix + (first,), remaining - first, slots - 1)

    lo = 2 if admissible else 1
    if l == 1:
        if k >= lo:
            yield (k,)
        return
    for first in range(lo, k - l + 2):
        yield from rec((first,), k - first, l - 1)


def compositions_up_to(max_weight: int, admissible: bool = False,
                       max_length: int | None = None) -> Iterator[tuple[int, ...]]:
    """All compositions of weight <= max_weight in canonical order.

    Canonical order: ascending weight, then ascending length, then
    lexicographic on the parts.
    """
    for k in range(1, max_weight + 1):
        top = k if max_length is None else min(k, max_length)
        for l in range(1, top + 1):
            yield from compositions(k, l, admissible)


def count_generators(k: int, l: int, admissible: bool = False) -> int:
    """Number of compositions of weight k and length l: C(k-1, l-1), or
    C(k-2, l-1) when restricted to first part > 1."""
    if k < 0 or l < 0:
        return 0
    if l == 0:
        return 1 if k == 0 else 0
    n = (k - 2) if admissible else (k - 1)
    if n < l - 1:
        return 0
    return comb(n, l - 1)
