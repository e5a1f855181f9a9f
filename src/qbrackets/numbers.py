"""Bernoulli numbers, Eulerian polynomials, lambda coefficients, Euler's
product prod (1 - q^k), and what every entry point takes: compositions
(as_composition), listed by stars and bars (compositions) in canonical order
(canonical_key), and orders (as_order).

Everything here is exact rational arithmetic on top of ``fractions.Fraction``
and arbitrary-precision integers.  The Bernoulli convention is the generating
function X/(exp(X)-1), so bernoulli(1) == -1/2.  Do not change this: the
opposite sign silently corrupts every lambda coefficient and with them every
product expansion downstream.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb, factorial
from operator import index, sub
from typing import Iterable, Iterator, Sequence


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


# keyed by s = part - 1: verify, the weight-9 corpus, dims mda 10 and
# relations 9 9 leave 8 entries, so 32 holds every part up to 33
@lru_cache(maxsize=32)
def eulerian_polynomial(s: int) -> tuple[int, ...]:
    """Coefficients A_{s,0}, A_{s,1}, ... of the s-th Eulerian polynomial
    P_s(t) = sum_n A_{s,n} t^n, from the closed form A_{s,n}; P_s satisfies
    sum_{v>0} v^s z^v = z P_s(z)/(1-z)^{s+1}."""
    if s < 0:
        raise ValueError("Eulerian polynomial index must be non-negative")
    if s == 0:
        return (1,)
    return tuple(eulerian_number(s, n) for n in range(s))


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


def _euler_product(n: int) -> list[int]:
    """Coefficients of prod_{k>=1} (1 - q^k) through q^n.  By Euler's
    pentagonal number theorem the coefficient is (-1)^j at the pentagonal
    numbers j(3j-1)/2 and j(3j+1)/2, j >= 0, and 0 elsewhere."""
    coeffs = [0] * (n + 1)
    j = 0
    while j * (3 * j - 1) // 2 <= n:
        for g in (j * (3 * j - 1) // 2, j * (3 * j + 1) // 2):
            if g <= n:
                coeffs[g] = -1 if j % 2 else 1
        j += 1
    return coeffs


def as_composition(parts: Iterable[int]) -> tuple[int, ...]:
    """The parts as a tuple of ints, after the one check every composition
    entering the library passes; () is the empty composition and is valid.
    A part that is not an integer raises TypeError, a part below 1
    ValueError."""
    comp = tuple(map(index, parts))
    if comp and min(comp) < 1:
        raise ValueError(f"composition parts must be positive: {comp}")
    return comp


def as_order(order: int) -> int:
    """The truncation order as an int, after the one check every order
    entering the library passes: an order that is not an integer raises
    TypeError, an order below 1 ValueError."""
    order = index(order)
    if order < 1:
        raise ValueError("order must be at least 1")
    return order


def compositions(k: int, l: int, admissible: bool = False) -> Iterator[tuple[int, ...]]:
    """Yield the compositions of k into l positive parts in lexicographic order.

    Stars and bars: each is read off its l - 1 cut points in lo..k-1, with
    lo = 2 when admissible=True (first part > 1) and 1 otherwise, and
    lexicographic cut sets give lexicographic compositions.  k = l = 0
    yields the empty composition.
    """
    if l < 1:
        if k == l == 0:
            yield ()
        return
    lo = 2 if admissible else 1
    if k >= lo:
        for cuts in combinations(range(lo, k), l - 1):
            yield tuple(map(sub, (*cuts, k), (0, *cuts)))


def compositions_up_to(max_weight: int, admissible: bool = False,
                       max_length: int | None = None) -> Iterator[tuple[int, ...]]:
    """All compositions of weight <= max_weight in canonical order.

    Canonical order (canonical_key): ascending weight, then ascending
    length, then lexicographic on the parts.
    """
    for k in range(1, max_weight + 1):
        top = k if max_length is None else min(k, max_length)
        for l in range(1, top + 1):
            yield from compositions(k, l, admissible)


def canonical_key(parts: Sequence[int]) -> tuple[int, int, tuple[int, ...]]:
    """Sort key for the canonical composition order, the order of
    compositions_up_to: ascending weight, then ascending length, then
    lexicographic on the parts."""
    t = tuple(parts)
    return (sum(t), len(t), t)


def count_generators(k: int, l: int, admissible: bool = False) -> int:
    """Number of compositions of weight k and length l, one per cut set:
    C(k-1, l-1), or C(k-2, l-1) when restricted to first part > 1."""
    if l < 1:
        return int(k == l == 0)
    lo = 2 if admissible else 1
    return comb(k - lo, l - 1) if k >= lo else 0
