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
from math import comb, log2, perm
from typing import Dict, List, Mapping, NamedTuple, Sequence, Tuple

from mpmath import mp, mpf, workdps

from .brackets import bracket_series
from .config import get_config
from .numbers import as_composition, bernoulli
from .series import QSeries
from .words import WordSum, decompose_in_one

Parts = Tuple[int, ...]

_DPS = 60
_CUTOFF = 256
_EXTRA_EXPONENTS = 26
_MAX_EM_TERMS = 14
_LEVELS = 5


def _require_admissible(c: Sequence[int]) -> Parts:
    c = as_composition(c)
    if not c:
        raise ValueError("index must be nonempty")
    if c[0] < 2:
        raise ValueError(f"index {c} is not admissible (sum diverges)")
    return c


def _psi_expansion(sigma: int, cutoff: int, emax: int):
    """Expansion of psi(m) = sum_{n>m} n^-sigma valid for m >= cutoff:
    returns (terms, env_c, env_e) with psi(m) = sum terms[e] m^-e + r(m),
    |r(m)| <= env_c * m^-env_e.  Euler-Maclaurin runs to the fixed order
    _MAX_EM_TERMS.  x^-sigma is completely monotone, so the remainder is
    bounded by the first omitted term at any order.  Consecutive bounds
    shrink by a factor below ((sigma+2j+2)/(2 pi cutoff))^2, so whenever
    sigma + 28 < 2 pi cutoff this is also the order that minimizes it."""
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
    return _cap_terms(terms, env_c, sigma + 2 * j + 1, cutoff, emax)


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
        t, c2, e2 = _psi_expansion(e, cutoff, emax)
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
                                         lead + _EXTRA_EXPONENTS)
    table: List[mpf] = [mpf(0)] * (cutoff + 1)
    table[cutoff], err = _evaluate_expansion(terms, env_c, env_e, cutoff)
    for m in range(cutoff, 0, -1):
        table[m - 1] = table[m] + mpf(m) ** (-comp[0])
    for s in comp[1:]:
        lead += s - 1
        terms = {e + s: a for e, a in terms.items()}
        env_e += s
        terms, env_c, env_e = _tail_sum(terms, env_c, env_e, cutoff,
                                        lead + _EXTRA_EXPONENTS)
        nxt: List[mpf] = [mpf(0)] * (cutoff + 1)
        nxt[cutoff], tail_err = _evaluate_expansion(terms, env_c, env_e, cutoff)
        weight_sum = mpf(0)
        for m in range(cutoff, 0, -1):
            nxt[m - 1] = nxt[m] + mpf(m) ** (-s) * table[m]
            weight_sum += mpf(m) ** (-s)
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

    def to_json(self) -> dict:
        return {
            "index": list(self.index),
            "value": mp.nstr(self.value, 30),
            "error_bound": mp.nstr(self.error_bound, 5),
        }


# (index, level) -> the value at cutoff _CUTOFF << level and _DPS + 20 * level
# digits; at most _LEVELS entries per index, whatever targets are asked for
_MZV_CACHE: Dict[Tuple[Parts, int], MzvValue] = {}


def mzv(c: Sequence[int], target_error: float | None = None) -> MzvValue:
    """Evaluate zeta(c) with error_bound at most target_error.

    Precision level l (0 <= l < _LEVELS) sums to cutoff _CUTOFF << l at
    _DPS + 20 * l digits.  The result is the first level whose bound meets
    the target; each level is computed once per index and cached, so the
    target only picks a level and never causes a recomputation.
    """
    comp = _require_admissible(c)
    if target_error is None:
        target_error = get_config().mzv_target_error
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


def mzv_oracle(c: Sequence[int], n_max: int = 20000) -> float:
    """Plain truncated nested summation in double precision; slow and
    crude on purpose, used once to validate the accelerated evaluator."""
    comp = _require_admissible(c)
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

    def to_json(self) -> dict:
        return {
            "weight": self.weight,
            "combination": {",".join(map(str, w)): str(c)
                            for w, c in sorted(self.combination.items())},
            "value": mp.nstr(self.value, 30),
            "error_bound": mp.nstr(self.error_bound, 5),
        }


def _combination_value(combination: Mapping[Parts, Fraction],
                       target_error: float):
    if not combination:
        return mpf(0), mpf(0)
    per_term = target_error / len(combination)
    value, err = mpf(0), mpf(0)
    for word_, coeff in sorted(combination.items()):
        z = mzv(word_, per_term / max(1.0, abs(float(coeff))))
        c = mpf(coeff.numerator) / coeff.denominator
        value += c * z.value
        err += abs(c) * z.error_bound
    return value, err


def Z_k_symbolic(w: WordSum, k: int,
                 target_error: float | None = None) -> ZImage:
    """Map the weight-k terms of w to zeta values; lower weights go to 0.

    Every term must be admissible and of weight at most k.  When no term
    has weight exactly k the image is exactly zero and nothing is summed.
    """
    if target_error is None:
        target_error = get_config().mzv_target_error
    combination: Dict[Parts, Fraction] = {}
    for word_, coeff in w.terms():
        if word_ and word_[0] == 1:
            raise ValueError(f"term {word_} is not admissible")
        if sum(word_) > k:
            raise ValueError(f"term {word_} has weight above {k}")
        if word_ and sum(word_) == k:
            combination[word_] = coeff
    value, err = _combination_value(combination, float(target_error))
    return ZImage(k, combination, value, err)


@dataclass(frozen=True)
class ZPolynomial:
    """Polynomial in the indeterminate T = Z([1]) with numeric
    coefficients; coefficients[j] = (value, error_bound) for T^j."""

    weight: int
    coefficients: Tuple[Tuple[mpf, mpf], ...]

    def degree(self) -> int:
        return len(self.coefficients) - 1

    def coefficient(self, j: int) -> Tuple[mpf, mpf]:
        if 0 <= j < len(self.coefficients):
            return self.coefficients[j]
        return mpf(0), mpf(0)

    def max_abs(self) -> float:
        return max((abs(float(v)) for v, _ in self.coefficients),
                   default=0.0)

    def to_json(self) -> dict:
        return {
            "weight": self.weight,
            "coefficients": [
                {"power": j, "value": mp.nstr(v, 30),
                 "error_bound": mp.nstr(e, 5)}
                for j, (v, e) in enumerate(self.coefficients)],
        }


def Z_k_alg(w: WordSum, k: int,
            target_error: float | None = None) -> ZPolynomial:
    """Decompose w as a polynomial in the word [1], then apply the
    weight-(k-j) map to the coefficient of the j-th power."""
    if w.weight > k:
        raise ValueError(f"weight {w.weight} exceeds {k}")
    poly = decompose_in_one(w)
    coefficients: List[Tuple[mpf, mpf]] = []
    for j in range(max(0, poly.degree()) + 1):
        image = Z_k_symbolic(poly.coefficient(j), k - j, target_error)
        coefficients.append((image.value, image.error_bound))
    while len(coefficients) > 1 and coefficients[-1][0] == 0 \
            and coefficients[-1][1] == 0:
        coefficients.pop()
    if len(coefficients) - 1 > k:
        raise ArithmeticError("degree exceeds the weight bound")
    return ZPolynomial(k, tuple(coefficients))


# ---------------------------------------------------------------------------
# numeric q -> 1 diagnostics


class LimitEstimate(NamedTuple):
    value: float
    spread: float


def limit_diagnostic(s: QSeries, k: int) -> LimitEstimate:
    """Richardson estimate of lim (1-q)^k s(q) for q -> 1.

    The truncated series is evaluated exactly at q = 1 - 2^-m for
    m = 2..8 and the ladder is extrapolated; the spread of the last
    extrapolation stages is reported alongside.  Diagnostic only: the
    truncation error at the largest m is not controlled.
    """
    if s.order < 200:
        raise ValueError("limit diagnostics need series order >= 200")
    ladder: List[mpf] = []
    for m in range(2, 9):
        # q = a / 2^m, so (1-q)^k s(q) is
        # sum nums[n] a^n 2^(m(order-n)) over den 2^(m(order+k))
        a, num = 2 ** m - 1, 0
        for n in range(s.order, -1, -1):
            num = num * a + (s.nums[n] << m * (s.order - n))
        value = Fraction(num, s.den << m * (s.order + k))
        ladder.append(mpf(value.numerator) / value.denominator)
    rows = [ladder]
    for j in range(1, len(ladder)):
        prev = rows[-1]
        rows.append([prev[i + 1] + (prev[i + 1] - prev[i]) / (2 ** j - 1)
                     for i in range(len(prev) - 1)])
    # entries built on q with q^order not negligible see the truncation,
    # not the limit; a table cell at (j, i) uses m = 2+i .. 2+i+j
    n_clean = sum(1 for m in range(2, 9)
                  if s.order * -log2(1 - 2.0 ** -m) >= 25)
    best = None
    for j in range(1, len(rows)):
        for i in range(len(rows[j])):
            if i + j > n_clean - 1:
                continue
            delta = abs(rows[j][i] - rows[j - 1][i + 1])
            if best is None or delta < best[0]:
                best = (delta, j, i)
    delta, j, i = best
    spread = delta + abs(rows[j][i] - rows[j - 1][i])
    return LimitEstimate(float(rows[j][i]), float(spread))


def modified_qzeta(c: Sequence[int], order: int) -> QSeries:
    """sum over n1 > ... > nl > 0 of prod q^(nj (sj-1)) / (1-q^nj)^sj,
    truncated at the given order.  Integer coefficients throughout."""
    comp = _require_admissible(c)
    if order < 1:
        raise ValueError("order must be at least 1")
    l = len(comp)
    # partial[j][e]: sum over tuples n_j > ... > n_l below the sweep line
    partial: List[List[int]] = [[0] * (order + 1) for _ in range(l)]
    partial.append([1] + [0] * order)
    for m in range(1, order + 1):
        # extend every level by the tuples whose j-th entry equals m
        for j in range(l):
            s = comp[j]
            lowest = m * (s - 1)
            if lowest > order:
                continue
            inner = partial[j + 1]
            out = partial[j]
            for i in range(0, (order - lowest) // m + 1):
                factor = comb(s - 1 + i, i)
                base = lowest + i * m
                for e in range(order - base + 1):
                    if inner[e]:
                        out[base + e] += factor * inner[e]
    return QSeries(order, tuple(partial[0]))


def coefficient_growth_report(c: Sequence[int], order: int = 400) -> dict:
    """Heuristic growth trend of the bracket coefficients: samples of
    a_n / n^(k-1) at a few n.  Reported, never asserted; logarithmic and
    subleading factors are invisible at finite order."""
    comp = as_composition(c)
    if order < 4:
        raise ValueError("growth report needs order >= 4")
    k = sum(comp)
    series = bracket_series(comp, order)
    points = sorted({order // 4, order // 2, 3 * order // 4, order})
    samples = [(n, float(series.coefficient(n)) / n ** (k - 1))
               for n in points]
    ratio = samples[-1][1] / samples[0][1] if samples[0][1] else float("inf")
    return {
        "composition": list(comp),
        "weight": k,
        "normalized_samples": samples,
        "last_over_first": ratio,
    }
