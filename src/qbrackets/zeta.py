"""Numerical multiple zeta values and q -> 1 limit maps.

zeta(s1,...,sl) = sum over n1 > ... > nl > 0 of n1^-s1 ... nl^-sl (s1 >= 2).
The evaluator tabulates nested tails from the outside in; each letter's
tail beyond the cutoff is an asymptotic expansion in inverse powers produced
by Euler-Maclaurin with an explicit first-omitted-term remainder.  The sums
run at one precision, in integers scaled by a power of two, values rounded
down and bounds up, so every returned value is an exact Fraction with a
rigorous error bound, about 1e-48 for every index up to weight 12.  The
limit maps connect
brackets to these numbers: a weight-k bracket combination vanishing as a
q-series must map to an MZV combination vanishing numerically.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from functools import lru_cache
from math import factorial, perm
from types import MappingProxyType
from typing import Dict, List, Mapping, Sequence, Tuple

from ._value import Value
from .numbers import as_composition, bernoulli
from .words import WordSum, decompose_in_one

Parts = Tuple[int, ...]

_DPS = 60
# A power of two: every power of the cutoff is then a shift.
_CUTOFF = 256
_SHIFT = _CUTOFF.bit_length() - 1
_EXTRA_EXPONENTS = 26
_MAX_EM_TERMS = 14
# Bits kept beyond the digits: the floors a bound counts, a few thousand
# units of 2^-bits, stay far below its last digit.
_GUARD_BITS = 32
# The fixed-point precision: the digits times log2(10), rounded up, plus
# the guard bits; 232.  Every scale _floor_scaled meets is then a left
# shift, _BITS - _SHIFT * (e - sigma) with e - sigma <= 2 _MAX_EM_TERMS + 1.
_BITS = (10 ** _DPS).bit_length() + _GUARD_BITS
# The error asked of every weight-k image.  verify's two MZV checks print
# the same bytes for any target from 1e-3 to 1e-30.
_TARGET_ERROR = 1e-10


def _require_admissible(c: Sequence[int]) -> Parts:
    c = as_composition(c)
    if not c:
        raise ValueError("index must be nonempty")
    if c[0] < 2:
        raise ValueError(f"index {c} is not admissible (sum diverges)")
    return c


def _floor_scaled(x: Fraction, shift: int) -> int:
    """floor(x * 2^shift), exactly, for a shift >= 0."""
    return (x.numerator << shift) // x.denominator


def _ceil_scaled(x: Fraction, shift: int) -> int:
    return -_floor_scaled(-x, shift)


# Fixed point.  Every expansion is of a tail f(m), m >= cutoff N, in the
# variable N/m: terms[e] / 2^bits is the size of its (N/m)^e term at
# m = N, and an envelope maps an exponent e to a bound, also in units of
# 2^-bits at m = N, on an error that is at most bound * (N/m)^e for every
# m >= N.  Values are rounded down and bounds up; every floor is counted.

# the weight-6 corpus asks for about 30 sigmas, at several keys each
@lru_cache(maxsize=64)
def _em_coefficients(sigma: int):
    """The exact Euler-Maclaurin coefficients of N^sigma psi(m), as (e, a)
    pairs for the terms a (N/m)^e, and the first omitted term's size."""
    j = _MAX_EM_TERMS
    exact = {sigma - 1: Fraction(1, sigma - 1), sigma: Fraction(-1, 2)}
    for i in range(1, j + 1):
        exact[sigma + 2 * i - 1] = (bernoulli(2 * i) / factorial(2 * i)
                                    * perm(sigma + 2 * i - 2, 2 * i - 1))
    omitted = (abs(bernoulli(2 * j + 2)) / factorial(2 * j + 2)
               * perm(sigma + 2 * j, 2 * j + 1))
    return tuple(exact.items()), omitted


# An expansion holds at most 16 integers of about 230 to 310 bits, about
# 1.5 KB with its mapping; every index up to weight 12 needs 259 of them,
# so 512 (about 0.75 MB) hold that set with room to spare.
@lru_cache(maxsize=512)
def _psi_expansion(sigma: int, emax: int):
    """Expansion of N^sigma psi(m), psi(m) = sum_{n>m} n^-sigma, valid for
    m >= N = _CUTOFF: returns (terms, env, env_e) with
    N^sigma psi(m) = sum_e terms[e] (N/m)^e 2^-_BITS + r(m) and
    |r(m)| <= env (N/m)^env_e 2^-_BITS.

    Euler-Maclaurin runs to the fixed order _MAX_EM_TERMS.  x^-sigma is
    completely monotone, so the remainder is bounded by the first omitted
    term at any order.  Consecutive bounds shrink by a factor below
    ((sigma+2j+2)/(2 pi cutoff))^2, so whenever sigma + 28 < 2 pi cutoff
    this is also the order that minimizes it.  Each coefficient is rounded
    down once from its exact rational value; the product that uses it
    counts that floor.  Terms beyond emax join the envelope, which keeps
    the least exponent.  Every index shares the expansion, so terms is a
    read-only mapping."""
    if sigma < 2:
        raise ValueError("tail exponent must be at least 2")
    exact, omitted = _em_coefficients(sigma)
    env_e = sigma + 2 * _MAX_EM_TERMS + 1
    env = _ceil_scaled(omitted, _BITS - _SHIFT * (env_e - sigma))
    terms: Dict[int, int] = {}
    for e, a in exact:
        if e <= emax:
            terms[e] = _floor_scaled(a, _BITS - _SHIFT * (e - sigma))
        else:
            env += _ceil_scaled(abs(a), _BITS - _SHIFT * (e - sigma))
            env_e = min(env_e, e)
    return MappingProxyType(terms), env, env_e


# A row is about 9 KB; every letter up to weight 12 needs 12 rows.
@lru_cache(maxsize=16)
def _inverse_powers(s: int):
    """The row (1^s, ..., _CUTOFF^s), exact, by whose entries a table step
    divides, and sum_{m <= _CUTOFF} m^-s in units of 2^-_BITS, rounded up.
    Every index with the letter s shares the row."""
    row = tuple(m ** s for m in range(1, _CUTOFF + 1))
    one = 1 << _BITS
    return row, sum(-(-one // p) for p in row)


def _tail_sum(terms, env, s: int, emax: int):
    """Expansion of m -> sum_{n>m} n^-s f(n), where f is given by
    (terms, env); valid for m >= _CUTOFF.  Every psi expansion is capped at
    emax, so the result needs no further capping.  Each product is
    floored; its bound counts that floor and the floor of the psi
    coefficient it used."""
    drop = _BITS + s * _SHIFT     # the scale of b * p * N^-s
    out: Dict[int, int] = defaultdict(int)
    out_env: Dict[int, int] = defaultdict(int)
    # integral comparison: sum_{n>m} (N/n)^(k+1) <= N/k (N/m)^k
    for e, bound in env.items():
        k = e + s - 1
        out_env[k] -= -bound // (k << _SHIFT * (s - 1))
    for e, b in terms.items():
        psi, c, c_e = _psi_expansion(e + s, emax)
        for e_out, p in psi.items():
            out[e_out] += b * p >> drop
        size = abs(b)
        out_env[c_e] -= -size * c >> drop
        out_env[e + s - 1] += len(psi) * (1 - (-size >> drop))
    return out, out_env


class MzvValue(Value):
    """A multiple zeta value with a rigorous absolute error bound, both
    exact: the value is an integer over 2^_BITS."""

    __slots__ = ("index", "value", "error_bound")

    def __init__(self, index: Parts, value: Fraction,
                 error_bound: Fraction) -> None:
        _require_admissible(index)
        super().__init__(index, value, error_bound)


# Every index up to weight 12 is 2047 entries, each about 0.5 KB.
@lru_cache(maxsize=4096)
def _nested_value(comp: Parts) -> MzvValue:
    """Value of the nested sum and a rigorous error bound, both exact
    Fractions.

    The table holds T(m) for 0 <= m <= cutoff, starting from the empty sum
    T = 1; each letter s turns it into m -> sum_{n>m} n^-s T(n), seeded at
    the cutoff by the tail expansion and summed down to T(0).  The bound
    adds, per letter, the envelopes at the cutoff, the previous bound times
    sum m^-s, and one unit for each of the cutoff floors of the table
    step.  On top it keeps a fixed cushion of 10^(12 - _DPS), eight orders
    above what it counts for any index up to weight 8, so the bound of
    each of them reads 1.0e-48."""
    one = 1 << _BITS
    terms: Mapping[int, int] = {0: one}
    env: Dict[int, int] = {}
    table: List[int] = [one] * (_CUTOFF + 1)
    err = lead = 0
    for s in comp:
        lead += s - 1
        terms, env = _tail_sum(terms, env, s, lead + _EXTRA_EXPONENTS)
        powers, weight_sum = _inverse_powers(s)
        acc = sum(terms.values())
        nxt = [0] * _CUTOFF + [acc]
        for m in range(_CUTOFF, 0, -1):
            acc += table[m] // powers[m - 1]
            nxt[m - 1] = acc
        err = sum(env.values()) - (-err * weight_sum >> _BITS) + _CUTOFF
        table = nxt
    return MzvValue(comp, Fraction(table[0], one),
                    Fraction(err, one) + Fraction(1, 10 ** (_DPS - 12)))


def mzv(c: Sequence[int], target_error: float = _TARGET_ERROR) -> MzvValue:
    """Evaluate zeta(c) with error_bound at most target_error.

    Every index is summed once, to cutoff _CUTOFF in integers scaled by
    2^_BITS, for _DPS digits, and cached; its bound is about 1e-48 up to
    weight 12.  The target, any positive real, is compared with the bound
    exactly; one below the bound raises ArithmeticError, since there is
    no higher precision to climb to.
    """
    comp = _require_admissible(c)
    if not target_error > 0:
        raise ValueError("target_error must be positive")
    out = _nested_value(comp)
    if out.error_bound > target_error:
        raise ArithmeticError(f"the error bound {float(out.error_bound):.3g}"
                              f" of zeta{comp} exceeds the target error")
    return out


# ---------------------------------------------------------------------------
# the weight-k evaluation maps


class ZImage(Value):
    """Image of a bracket combination under the weight-k evaluation:
    the weight-k words as zeta symbols plus their exact numeric total."""

    __slots__ = ("weight", "combination", "value", "error_bound")

    def __init__(self, weight: int, combination: Mapping[Parts, Fraction],
                 value: Fraction, error_bound: Fraction) -> None:
        super().__init__(weight, combination, value, error_bound)


def _combination_value(combination: Mapping[Parts, Fraction]):
    """The exact sum of coeff * zeta(word) and its error bound: the bounds
    of the zeta values, weighted by |coeff|."""
    value = err = Fraction(0)
    # exact: a coefficient may be too large for a float
    per_term = Fraction(_TARGET_ERROR) / max(1, len(combination))
    for word_, coeff in sorted(combination.items()):
        z = mzv(word_, per_term / max(1, abs(coeff)))
        value += coeff * z.value
        err += abs(coeff) * z.error_bound
    return value, err


def Z_k_symbolic(w: WordSum, k: int) -> ZImage:
    """Map the weight-k terms of w to zeta values; lower weights go to 0.

    Every term must be admissible and of weight at most k.  When no term
    has weight exactly k the image is exactly zero and nothing is summed.
    Each zeta value is asked for within _TARGET_ERROR (1e-10) over the
    number of terms and the size of its coefficient; the sum is exact.
    """
    combination: Dict[Parts, Fraction] = {}
    for word_, coeff in w.terms():
        if word_ and word_[0] == 1:
            raise ValueError(f"term {word_} is not admissible")
        if sum(word_) > k:
            raise ValueError(f"term {word_} has weight above {k}")
        if word_ and sum(word_) == k:
            combination[word_] = coeff
    value, err = _combination_value(combination)
    return ZImage(k, combination, value, err)


class ZPolynomial(Value):
    """Polynomial in the indeterminate T = Z([1]) with numeric
    coefficients; coefficients[j] = (value, error_bound) for T^j, both
    exact Fractions."""

    __slots__ = ("weight", "coefficients")

    def __init__(self, weight: int,
                 coefficients: Tuple[Tuple[Fraction, Fraction], ...]) -> None:
        super().__init__(weight, coefficients)

    def max_abs(self) -> float:
        return max((abs(float(v)) for v, _ in self.coefficients),
                   default=0.0)


def Z_k_alg(w: WordSum, k: int) -> ZPolynomial:
    """Decompose w as a polynomial in the word [1], then apply the
    weight-(k-j) map to the coefficient of the j-th power."""
    if w.weight > k:
        raise ValueError(f"weight {w.weight} exceeds {k}")
    poly = decompose_in_one(w)
    coefficients: List[Tuple[Fraction, Fraction]] = []
    for j in range(max(0, poly.degree()) + 1):
        image = Z_k_symbolic(poly.coefficient(j), k - j)
        coefficients.append((image.value, image.error_bound))
    while len(coefficients) > 1 and coefficients[-1][0] == 0 \
            and coefficients[-1][1] == 0:
        coefficients.pop()
    if len(coefficients) - 1 > k:
        raise ArithmeticError("degree exceeds the weight bound")
    return ZPolynomial(k, tuple(coefficients))
