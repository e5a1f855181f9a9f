"""The (quasi-)modular subalgebra inside the bracket algebra.

Eisenstein series are constants plus single brackets, so classical identities
between them (derivatives of G2, G4, G6, the one-dimensionality of weight-8
modular forms, representations of the discriminant form) turn into exact
linear relations between brackets.  Everything is checked coefficient by
coefficient; the discriminant form is computed independently from its eta
product so those checks do not assume what they verify.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Dict, List, Optional, Sequence, Tuple

from .brackets import bracket_series, bracket_series_many, multiple_divisor_sum
from .linalg import ExactMatrix, solve_unique
from .numbers import bernoulli
from .series import QSeries, eta24
from .words import WordSum, evaluate

Parts = Tuple[int, ...]

DELTA_PAIRS = ((2, 4), (4, 6), (6, 8), (8, 10), (10, 11), (11, 12))
DELTA_SCALE = Fraction(1, 2**6 * 5 * 691)


@dataclass(frozen=True)
class EisensteinSeries:
    """G_k = -(1/2) B_k / k! + [k], exact through the series order."""

    weight: int
    series: QSeries


def eisenstein(k: int, order: int) -> EisensteinSeries:
    """The weight-k Eisenstein series; k = 2 (quasi-modular) is allowed."""
    if k < 2 or k % 2:
        raise ValueError("Eisenstein weights are the even integers >= 2")
    constant = -bernoulli(k) / (2 * factorial(k))
    tail = bracket_series((k,), order)
    return EisensteinSeries(k, tail + QSeries.monomial(0, order, constant))


def _first_mismatch(diff: QSeries) -> int:
    return next(n for n, x in enumerate(diff.nums) if x)


def verify_quasi_modular_identities(order: int) -> List[dict]:
    """Check the classical derivative and weight-8 identities exactly.

    Returns one report entry per identity.  These are theorems, so any
    mismatch raises ArithmeticError; the failing coefficient index is in
    the message.
    """
    if order < 20:
        raise ValueError("order must be at least 20")
    g2 = eisenstein(2, order).series
    g4 = eisenstein(4, order).series
    g6 = eisenstein(6, order).series
    g8 = eisenstein(8, order).series
    checks = [
        ("d G2 = 5 G4 - 2 G2^2",
         g2.q_d_dq(), g4.scale(5) - (g2 * g2).scale(2)),
        # the G6 coefficient is 14: the constant term forces
        # c/60480 = 8/(24*1440) and the q coefficient c/120 = 1/6 - 1/20
        ("d G4 = 14 G6 - 8 G2 G4",
         g4.q_d_dq(), g6.scale(14) - (g2 * g4).scale(8)),
        ("d G6 = 120/7 G4^2 - 12 G2 G6",
         g6.q_d_dq(), (g4 * g4).scale(Fraction(120, 7)) - (g2 * g6).scale(12)),
        ("G4^2 = 7/6 G8",
         g4 * g4, g8.scale(Fraction(7, 6))),
        ("[8] = 1/40 [4] - 1/252 [2] + 12 [4,4]",
         bracket_series((8,), order),
         bracket_series((4,), order).scale(Fraction(1, 40))
         - bracket_series((2,), order).scale(Fraction(1, 252))
         + bracket_series((4, 4), order).scale(12)),
    ]
    report = []
    for name, lhs, rhs in checks:
        diff = lhs - rhs
        if not diff.is_zero():
            raise ArithmeticError(
                f"identity '{name}' fails at coefficient "
                f"{_first_mismatch(diff)} (order {order})")
        report.append({"identity": name, "order": diff.order, "pass": True})
    return report


# ---------------------------------------------------------------------------
# the discriminant form


# tau(1), tau(2), ...: eta24(order).nums[1:], recomputed at twice the
# requested n when a call asks beyond it
_TAU: List[int] = []


def tau(n: int) -> int:
    """The n-th coefficient of the discriminant form, from the eta product."""
    if n < 1:
        raise ValueError("tau(n) needs n >= 1")
    if n > len(_TAU):
        _TAU[:] = eta24(max(2 * n, 128)).nums[1:]
    return _TAU[n - 1]


@dataclass(frozen=True)
class DeltaRepresentation:
    """One representation of the discriminant form as brackets: two of
    length one (the pair) and the eleven [m, n] with m + n = 12."""

    pair: Tuple[int, int]
    expression: WordSum
    verified_order: int

    def length_one_coefficients(self) -> Dict[int, Fraction]:
        return {s: self.expression.coefficient((s,)) for s in self.pair}

    def pair_coefficients_closed_form(self) -> Dict[int, Fraction]:
        # the closed fractions weight the plain divisor-sum series
        # sum sigma_{s-1}(n) q^n (they add up to 1 = the first coefficient
        # of the form); [s] divides that series by (s-1)!, so the bracket
        # coefficient carries the factorial back
        a, b = self.pair
        return {a: factorial(a - 1) * Fraction(2**b + 50, 2**b - 2**a),
                b: factorial(b - 1) * Fraction(2**a + 50, 2**a - 2**b)}


def delta_representation(a: int, b: int, order: int = 60) -> DeltaRepresentation:
    """Solve for the discriminant form as a combination of [a], [b] and the
    weight-12 length-2 brackets; exact, unique, and checked against the
    closed form for the two length-one coefficients.
    """
    if (a, b) not in DELTA_PAIRS:
        raise ValueError(f"(a, b) must be one of {DELTA_PAIRS}")
    if order < 60:
        raise ValueError("order must be at least 60")
    columns: List[Parts] = [(a,), (b,)] + [(m, 12 - m) for m in range(1, 12)]
    series = bracket_series_many(columns, order)
    delta = eta24(order)
    rows = list(zip(*(series[c].coeffs for c in columns)))
    solution = solve_unique(rows, delta.nums[1:])

    expression = WordSum((c, x) for c, x in zip(columns, solution) if x)
    rep = DeltaRepresentation((a, b), expression, order)
    closed = rep.pair_coefficients_closed_form()
    got = rep.length_one_coefficients()
    if got != closed:
        raise ArithmeticError(
            f"length-one coefficients {got} do not match the closed form "
            f"{closed} for pair ({a},{b})")
    if evaluate(expression, order) != delta:
        raise ArithmeticError("representation does not reproduce the form")
    return rep


def delta_representations(order: int = 60) -> List[DeltaRepresentation]:
    return [delta_representation(a, b, order) for a, b in DELTA_PAIRS]


def delta_affine_combination(target: WordSum,
                             reps: Sequence[DeltaRepresentation],
                             ) -> Optional[List[Fraction]]:
    """Weights lambda_i with sum 1 writing the target as an affine
    combination of the given representations, or None when impossible.

    Any representation of the discriminant form differs from another by a
    relation, so the solution set is an affine space; the six standard
    representations span it.
    """
    columns = sorted({w for rep in reps for w in rep.expression.words()}
                     | set(target.words()))
    rows = [[rep.expression.coefficient(w) for rep in reps] for w in columns]
    rows.append([Fraction(1)] * len(reps))
    rhs = [target.coefficient(w) for w in columns] + [Fraction(1)]
    # overdetermined: solve_unique rejects it unless it is consistent with
    # exactly one solution
    try:
        weights = solve_unique(rows, rhs)
    except ArithmeticError:
        return None
    for row, b in zip(rows, rhs):
        if sum(x * lam for x, lam in zip(row, weights)) != b:
            return None
    return weights


def representation_span_rank(reps: Sequence[DeltaRepresentation]) -> int:
    """Rank of the differences between representations: the dimension of the
    relation space they witness."""
    columns = sorted({w for rep in reps for w in rep.expression.words()})
    base = reps[0].expression
    rows = []
    for rep in reps[1:]:
        diff = rep.expression - base
        rows.append([diff.coefficient(w) for w in columns])
    return ExactMatrix.from_rows(rows).rank()


def deltal2_word_sum() -> WordSum:
    """The combination with only three length-2 brackets; it evaluates to
    -DELTA_SCALE times the discriminant form (the unique solution over
    these eight columns, sign checked against tau(1) = 1)."""
    terms = {
        (5, 7): Fraction(168), (7, 5): Fraction(150), (9, 3): Fraction(28),
        (2,): Fraction(1, 1408), (4,): Fraction(-83, 14400),
        (6,): Fraction(187, 6048), (8,): Fraction(-7, 120),
        (12,): Fraction(-5197, 691),
    }
    return WordSum(terms)


def deltal2_check(order: int = 50) -> dict:
    """Verify the three-term length-2 representation coefficientwise and
    confirm it is an affine combination of the six standard ones."""
    if order < 50:
        raise ValueError("order must be at least 50")
    combo = deltal2_word_sum()
    lhs = eta24(order).scale(-DELTA_SCALE)
    exact = evaluate(combo, order) == lhs
    reps = delta_representations(max(60, order))
    weights = delta_affine_combination(
        combo.scale(Fraction(-1) / DELTA_SCALE), reps)
    return {
        "identity": "length-2 discriminant representation",
        "order": order,
        "pass": exact and weights is not None,
        "exact_series_match": exact,
        "affine_weights": None if weights is None else [str(w) for w in weights],
    }


def tau_congruence(order: int) -> dict:
    """Check tau(n) = sigma_11(n) mod 691 for 1 <= n <= order."""
    if order < 2:
        raise ValueError("order must be at least 2")
    taus = eta24(order).nums
    failures = [n for n in range(1, order + 1)
                if (taus[n] - multiple_divisor_sum((11,), n)) % 691]
    return {"identity": "tau(n) = sigma_11(n) mod 691", "order": order,
            "pass": not failures, "failures": failures}
