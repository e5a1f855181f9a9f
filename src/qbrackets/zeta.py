"""Numerical multiple zeta values and q -> 1 limit maps.

zeta(s1,...,sl) = sum over n1 > ... > nl > 0 of n1^-s1 ... nl^-sl (s1 >= 2).
The evaluator tabulates nested tails from the outside in; each level's tail
beyond the cutoff is an asymptotic expansion in inverse powers produced by
Euler-Maclaurin with an explicit first-omitted-term remainder, so every
returned value carries a rigorous error bound.  The limit maps connect
brackets to these numbers: a weight-k bracket combination vanishing as a
q-series must map to an MZV combination vanishing numerically.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import perm
from types import MappingProxyType
from typing import Dict, List, Mapping, Sequence, Tuple

from mpmath import mp, mpf, workdps

from .numbers import as_composition, bernoulli
from .words import WordSum, decompose_in_one

Parts = Tuple[int, ...]

_DPS = 60
_CUTOFF = 256
_EXTRA_EXPONENTS = 26
_MAX_EM_TERMS = 14
_LEVELS = 5
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


# An expansion holds at most 16 mpf terms, about 3.3 KB at any level; every
# index up to weight 12 needs 259 of them per level, so 1024 (about 3.4 MB)
# hold that set at nearly four levels.
@lru_cache(maxsize=1024)
def _psi_expansion(sigma: int, cutoff: int, emax: int, prec: int):
    """Expansion of psi(m) = sum_{n>m} n^-sigma valid for m >= cutoff:
    returns (terms, env_c, env_e) with psi(m) = sum terms[e] m^-e + r(m),
    |r(m)| <= env_c * m^-env_e.  Euler-Maclaurin runs to the fixed order
    _MAX_EM_TERMS.  x^-sigma is completely monotone, so the remainder is
    bounded by the first omitted term at any order.  Consecutive bounds
    shrink by a factor below ((sigma+2j+2)/(2 pi cutoff))^2, so whenever
    sigma + 28 < 2 pi cutoff this is also the order that minimizes it.

    prec is the working precision, mp.prec, and only keys the cache: the
    expansion depends on nothing else, so every index shares it, and terms
    is a read-only mapping."""
    if sigma < 2:
        raise ValueError("tail exponent must be at least 2")
    j = _MAX_EM_TERMS
    b = bernoulli(2 * j + 2)
    env_c = (abs(mpf(b.numerator)) / b.denominator / mp.factorial(2 * j + 2)
             * perm(sigma + 2 * j, 2 * j + 1)
             * mpf(cutoff) ** (-sigma - 2 * j - 1))
    terms: Dict[int, mpf] = {
        sigma - 1: mpf(1) / (sigma - 1),
        sigma: mpf(-1) / 2,
    }
    for i in range(1, j + 1):
        b = bernoulli(2 * i)
        terms[sigma + 2 * i - 1] = (mpf(b.numerator) / b.denominator
                                    / mp.factorial(2 * i)
                                    * perm(sigma + 2 * i - 2, 2 * i - 1))
    kept, env_c, env_e = _cap_terms(terms, env_c, sigma + 2 * j + 1,
                                    cutoff, emax)
    return MappingProxyType(kept), env_c, env_e


# A row is about 61 KB at level 0 (cutoff 256, 60 digits) and 1.2 MB at
# level 4 (cutoff 4096, 140 digits).  Every letter up to weight 12 at one
# level needs 12 rows; 24 hold them at two levels (29 MB at worst, if all
# are level-4 rows).
@lru_cache(maxsize=24)
def _inverse_powers(s: int, cutoff: int, prec: int):
    """The row (1^-s, ..., cutoff^-s) and its sum, added from m = cutoff
    down to 1; prec is the working precision, mp.prec, and only keys the
    cache.  Every index with the letter s shares the row."""
    row = tuple(mpf(m) ** (-s) for m in range(1, cutoff + 1))
    total = mpf(0)
    for m in range(cutoff, 0, -1):
        total += row[m - 1]
    return row, total


def _fold_envelopes(envs, cutoff):
    """One envelope (c, e) bounding the sum of the envelopes c_i m^-e_i
    for m >= cutoff: the least exponent, summed in list order."""
    e_min = min(e for _, e in envs)
    c_total = mpf(0)
    for c, e in envs:
        c_total += c * mpf(cutoff) ** (e_min - e)
    return c_total, e_min


def _cap_terms(terms, env_c, env_e, cutoff, emax):
    """Fold every expansion term with exponent beyond emax into the
    envelope (valid for arguments >= cutoff)."""
    kept: Dict[int, mpf] = {}
    envs = [(env_c, env_e)]
    for e, a in terms.items():
        if e <= emax:
            kept[e] = kept.get(e, mpf(0)) + a
        else:
            envs.append((abs(a), e))
    return (kept, *_fold_envelopes(envs, cutoff))


def _tail_sum(terms, env_c, env_e, cutoff, emax):
    """Expansion of m -> sum_{n>m} g(n) where g is given by (terms, env);
    valid for m >= cutoff.  Every psi expansion is capped at emax, so the
    result needs no further capping."""
    out: Dict[int, mpf] = {}
    # integral comparison: sum_{n>m} n^-e <= m^(1-e)/(e-1)
    envs = [(env_c / (env_e - 1), env_e - 1)]
    for e, a in terms.items():
        t, c2, e2 = _psi_expansion(e, cutoff, emax, mp.prec)
        for e_out, a_out in t.items():
            out[e_out] = out.get(e_out, mpf(0)) + a * a_out
        envs.append((abs(a) * c2, e2))
    return (out, *_fold_envelopes(envs, cutoff))


def _evaluate_expansion(terms, env_c, env_e, m: int):
    value = mpf(0)
    for e, a in terms.items():
        value += a * mpf(m) ** (-e)
    return value, env_c * mpf(m) ** (-env_e)


def _nested_value(comp: Parts, cutoff: int):
    """Value of the nested sum and a rigorous error bound, both mpf."""
    lead = comp[0] - 1
    terms, env_c, env_e = _psi_expansion(comp[0], cutoff,
                                         lead + _EXTRA_EXPONENTS, mp.prec)
    table: List[mpf] = [mpf(0)] * (cutoff + 1)
    table[cutoff], err = _evaluate_expansion(terms, env_c, env_e, cutoff)
    powers, _ = _inverse_powers(comp[0], cutoff, mp.prec)
    for m in range(cutoff, 0, -1):
        table[m - 1] = table[m] + powers[m - 1]
    for s in comp[1:]:
        lead += s - 1
        terms = {e + s: a for e, a in terms.items()}
        env_e += s
        terms, env_c, env_e = _tail_sum(terms, env_c, env_e, cutoff,
                                        lead + _EXTRA_EXPONENTS)
        nxt: List[mpf] = [mpf(0)] * (cutoff + 1)
        nxt[cutoff], tail_err = _evaluate_expansion(terms, env_c, env_e, cutoff)
        powers, weight_sum = _inverse_powers(s, cutoff, mp.prec)
        for m in range(cutoff, 0, -1):
            nxt[m - 1] = nxt[m] + powers[m - 1] * table[m]
        err = tail_err + err * weight_sum
        table = nxt
    # generous cushion for rounding in ~cutoff*len(comp) float operations
    err += mpf(10) ** (12 - mp.dps)
    return table[0], err


@dataclass(frozen=True)
class MzvValue:
    """A multiple zeta value with a rigorous absolute error bound."""

    index: Parts
    value: mpf
    error_bound: mpf

    def __post_init__(self) -> None:
        _require_admissible(self.index)


# (index, level) -> the value at cutoff _CUTOFF << level and _DPS + 20 * level
# digits; at most _LEVELS entries per index, whatever targets are asked for
_MZV_CACHE: Dict[Tuple[Parts, int], MzvValue] = {}


def mzv(c: Sequence[int], target_error: float = _TARGET_ERROR) -> MzvValue:
    """Evaluate zeta(c) with error_bound at most target_error.

    Precision level l (0 <= l < _LEVELS) sums to cutoff _CUTOFF << l at
    _DPS + 20 * l digits.  The result is the first level whose bound meets
    the target; each level is computed once per index and cached, so the
    target only picks a level and never causes a recomputation.
    """
    comp = _require_admissible(c)
    target_error = float(target_error)
    if not target_error > 0:
        raise ValueError("target_error must be positive")
    for level in range(_LEVELS):
        out = _MZV_CACHE.get((comp, level))
        if out is None:
            with workdps(_DPS + 20 * level):
                value, err = _nested_value(comp, _CUTOFF << level)
            out = _MZV_CACHE[(comp, level)] = MzvValue(comp, value, err)
        if out.error_bound <= target_error:
            return out
    raise ArithmeticError(
        f"could not reach error {target_error} for zeta{comp}")


def mzv_oracle(c: Sequence[int]) -> float:
    """Plain nested summation over n1 <= 20000 in double precision; slow
    and crude on purpose, used once to validate the accelerated evaluator."""
    comp = _require_admissible(c)
    n_max = 20000
    inner = [1.0] * (n_max + 1)
    for s in reversed(comp[1:]):
        acc = 0.0
        nxt = [0.0] * (n_max + 1)
        for n in range(1, n_max + 1):
            nxt[n] = acc
            acc += inner[n] * n ** (-s)
        inner = nxt
    return sum(inner[n] * n ** (-comp[0]) for n in range(1, n_max + 1))


# ---------------------------------------------------------------------------
# the weight-k evaluation maps


@dataclass(frozen=True)
class ZImage:
    """Image of a bracket combination under the weight-k evaluation:
    the weight-k words as zeta symbols plus their numeric total."""

    weight: int
    combination: Mapping[Parts, Fraction]
    value: mpf
    error_bound: mpf


# The digits of the deepest mzv level: a sum taken at this precision rounds
# far below the bound of any value it adds up.
_SUM_DPS = _DPS + 20 * (_LEVELS - 1)


def _combination_value(combination: Mapping[Parts, Fraction]):
    """The sum of coeff * zeta(word) and a bound on its error: the bounds
    of the zeta values, weighted by |coeff|, plus the rounding of the sum.

    Each term is rounded at most three times (the coefficient, the product,
    the running sum), each time by a relative 2^-prec; 4 n 2^-prec times the
    sum of |terms| covers the n terms and the rounding of that sum itself.
    """
    if not combination:
        return mpf(0), mpf(0)
    per_term = _TARGET_ERROR / len(combination)
    with workdps(_SUM_DPS):
        value, err, size = mpf(0), mpf(0), mpf(0)
        for word_, coeff in sorted(combination.items()):
            z = mzv(word_, per_term / max(1.0, abs(float(coeff))))
            c = mpf(coeff.numerator) / coeff.denominator
            term = c * z.value
            value += term
            size += abs(term)
            err += abs(c) * z.error_bound
        err += 4 * len(combination) * size * mpf(2) ** (-mp.prec)
    return value, err


def Z_k_symbolic(w: WordSum, k: int) -> ZImage:
    """Map the weight-k terms of w to zeta values; lower weights go to 0.

    Every term must be admissible and of weight at most k.  When no term
    has weight exactly k the image is exactly zero and nothing is summed.
    Each zeta value is asked for within _TARGET_ERROR (1e-10) over the
    number of terms and the size of its coefficient; the sum is
    taken at _SUM_DPS (140) digits, with its rounding inside error_bound.
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


@dataclass(frozen=True)
class ZPolynomial:
    """Polynomial in the indeterminate T = Z([1]) with numeric
    coefficients; coefficients[j] = (value, error_bound) for T^j."""

    weight: int
    coefficients: Tuple[Tuple[mpf, mpf], ...]

    def max_abs(self) -> float:
        return max((abs(float(v)) for v, _ in self.coefficients),
                   default=0.0)


def Z_k_alg(w: WordSum, k: int) -> ZPolynomial:
    """Decompose w as a polynomial in the word [1], then apply the
    weight-(k-j) map to the coefficient of the j-th power."""
    if w.weight > k:
        raise ValueError(f"weight {w.weight} exceeds {k}")
    poly = decompose_in_one(w)
    coefficients: List[Tuple[mpf, mpf]] = []
    for j in range(max(0, poly.degree()) + 1):
        image = Z_k_symbolic(poly.coefficient(j), k - j)
        coefficients.append((image.value, image.error_bound))
    while len(coefficients) > 1 and coefficients[-1][0] == 0 \
            and coefficients[-1][1] == 0:
        coefficients.pop()
    if len(coefficients) - 1 > k:
        raise ArithmeticError("degree exceeds the weight bound")
    return ZPolynomial(k, tuple(coefficients))
