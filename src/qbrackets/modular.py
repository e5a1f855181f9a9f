"""The (quasi-)modular subalgebra inside the bracket algebra.

Eisenstein series are constants plus single brackets, i.e. words with a term
on the empty word; eisenstein(k, order) returns the QSeries of that word.
Classical identities between them (derivatives of G2, G4, G6, the
one-dimensionality of weight-8 modular forms) are written with quasi-shuffle
products and d_word_sum and pass the one relation gate, Relation.verified,
as proven modular relations.

Representations of the discriminant form are plain WordSums, solved for on
integer series numerators; the form itself is computed independently from
its eta product (eta24), so those checks do not assume what they verify.
Two representations differ by a relation, so a word sum W is an affine
combination of R_0, ..., R_5 exactly when W - R_0 lies in the span of the
R_i - R_0, which linalg.relation_in_span decides.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Dict, List, Sequence, Tuple

from .brackets import bracket_series_many
from .derivation import Relation, d_word_sum
from .linalg import IntEchelon, _common_numerators, solve_unique
from .numbers import bernoulli
from .series import QSeries, eta24
from .words import WordSum, coefficient_rows, evaluate

Parts = Tuple[int, ...]

DELTA_PAIRS = ((2, 4), (4, 6), (6, 8), (8, 10), (10, 11), (11, 12))
DELTA_SCALE = Fraction(1, 2**6 * 5 * 691)


def _eisenstein_word(k: int) -> WordSum:
    """G_k as a word sum: its constant on the empty word, plus [k]."""
    if k < 2 or k % 2:
        raise ValueError("Eisenstein weights are the even integers >= 2")
    return WordSum({(): -bernoulli(k) / (2 * factorial(k)), (k,): 1})


def eisenstein(k: int, order: int) -> QSeries:
    """The weight-k Eisenstein series G_k = -(1/2) B_k / k! + [k] through
    q^order; k = 2 (quasi-modular) is allowed."""
    return evaluate(_eisenstein_word(k), order)


def verify_quasi_modular_identities(order: int) -> Dict[str, Relation]:
    """Check the classical derivative and weight-8 identities exactly.

    Each identity is written in words (products are quasi-shuffles, d is
    d_word_sum) and admitted by Relation.verified as a modular relation;
    returns the admitted relations keyed by identity name.  These are
    theorems, so any mismatch raises the gate's ArithmeticError.
    """
    if order < 20:
        raise ValueError("order must be at least 20")
    g2, g4, g6, g8 = map(_eisenstein_word, (2, 4, 6, 8))
    identities = [
        ("d G2 = 5 G4 - 2 G2^2",
         d_word_sum(g2, order) - 5 * g4 + 2 * g2 * g2),
        # the G6 coefficient is 14: the constant term forces
        # c/60480 = 8/(24*1440) and the q coefficient c/120 = 1/6 - 1/20
        ("d G4 = 14 G6 - 8 G2 G4",
         d_word_sum(g4, order) - 14 * g6 + 8 * g2 * g4),
        ("d G6 = 120/7 G4^2 - 12 G2 G6",
         d_word_sum(g6, order) - Fraction(120, 7) * g4 * g4 + 12 * g2 * g6),
        ("G4^2 = 7/6 G8",
         g4 * g4 - Fraction(7, 6) * g8),
        ("[8] = 1/40 [4] - 1/252 [2] + 12 [4,4]",
         WordSum({(8,): 1, (4,): Fraction(-1, 40), (2,): Fraction(1, 252),
                  (4, 4): -12})),
    ]
    return {name: Relation.verified(body, "modular", order)
            for name, body in identities}


# ---------------------------------------------------------------------------
# the discriminant form


def _pair_coefficients(a: int, b: int) -> Dict[int, Fraction]:
    """The closed form of the [a] and [b] coefficients of a representation.

    The closed fractions weight the plain divisor-sum series
    sum sigma_{s-1}(n) q^n (they add up to 1 = the first coefficient of
    the form); [s] divides that series by (s-1)!, so the bracket
    coefficient carries the factorial back.
    """
    return {a: factorial(a - 1) * Fraction(2**b + 50, 2**b - 2**a),
            b: factorial(b - 1) * Fraction(2**a + 50, 2**a - 2**b)}


def delta_representation(a: int, b: int, order: int = 60) -> WordSum:
    """The discriminant form as a combination of [a], [b] and the eleven
    weight-12 brackets [m, 12 - m]; exact, unique, and checked against the
    closed form of its two length-one coefficients and against the form.
    """
    if (a, b) not in DELTA_PAIRS:
        raise ValueError(f"(a, b) must be one of {DELTA_PAIRS}")
    if order < 60:
        raise ValueError("order must be at least 60")
    columns: List[Parts] = [(a,), (b,)] + [(m, 12 - m) for m in range(1, 12)]
    series = bracket_series_many(columns, order)
    delta = eta24(order)
    *scaled, rhs = _common_numerators([*(series[c] for c in columns), delta])
    expression = WordSum(zip(columns, solve_unique(list(zip(*scaled)), rhs)))

    closed = _pair_coefficients(a, b)
    got = {s: expression.coefficient((s,)) for s in (a, b)}
    if got != closed:
        raise ArithmeticError(
            f"length-one coefficients {got} do not match the closed form "
            f"{closed} for pair ({a},{b})")
    if evaluate(expression, order) != delta:
        raise ArithmeticError("representation does not reproduce the form")
    return expression


def delta_representations(order: int = 60) -> List[WordSum]:
    """delta_representation of each pair, in the order of DELTA_PAIRS."""
    return [delta_representation(a, b, order) for a, b in DELTA_PAIRS]


def representation_span_rank(reps: Sequence[WordSum]) -> int:
    """Rank of the differences between representations: the dimension of the
    relation space they witness."""
    base, *others = reps
    return IntEchelon(coefficient_rows(rep - base for rep in others)).rank


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
