"""The (quasi-)modular subalgebra inside the bracket algebra.

Eisenstein series are constants plus single brackets, i.e. words with a term
on the empty word; eisenstein(k) returns that WordSum, and evaluate() turns
it into a q-series.
Classical identities between them (derivatives of G2, G4, G6, the
one-dimensionality of weight-8 modular forms) are written with quasi-shuffle
products and d_word_sum and pass the one relation gate, Relation.verified,
as proven modular relations.

Representations of the discriminant form are plain WordSums, solved for
with the series kernel that relation search uses (linalg._series_kernel);
the form itself is computed independently from its eta product (eta24), so
those checks do not assume what they verify, and none is stored.
Two representations differ by a relation, so a word sum W is an affine
combination of R_0, ..., R_5 exactly when W - R_0 lies in the span of the
R_i - R_0, which linalg.relation_in_span decides.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Dict, List, Sequence, Tuple

from .brackets import bracket_series_many
from .derivation import Relation, d_word_sum
from .linalg import _kernel, _series_kernel
from .numbers import bernoulli
from .series import eta24
from .words import WordSum, coefficient_rows, evaluate

Parts = Tuple[int, ...]

DELTA_PAIRS = ((2, 4), (4, 6), (6, 8), (8, 10), (10, 11), (11, 12))
DELTA_SCALE = Fraction(1, 2**6 * 5 * 691)
# The order every discriminant representation is solved and checked at.
DELTA_ORDER = 60


def eisenstein(k: int) -> WordSum:
    """The weight-k Eisenstein series G_k = -(1/2) B_k / k! + [k] as a word
    sum: its constant on the empty word, plus [k]; k = 2 (quasi-modular) is
    allowed."""
    if k < 2 or k % 2:
        raise ValueError("Eisenstein weights are the even integers >= 2")
    return WordSum({(): -bernoulli(k) / (2 * factorial(k)), (k,): 1})


def verify_quasi_modular_identities(order: int) -> Dict[str, Relation]:
    """Check the classical derivative and weight-8 identities exactly.

    Each identity is written in words (products are quasi-shuffles, d is
    d_word_sum) and admitted by Relation.verified as a modular relation;
    returns the admitted relations keyed by identity name.  These are
    theorems, so any mismatch raises the gate's ArithmeticError.
    """
    if order < 20:
        raise ValueError("order must be at least 20")
    g2, g4, g6, g8 = map(eisenstein, (2, 4, 6, 8))
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


def _solve_for_delta(columns: Sequence[Parts]) -> WordSum:
    """The combination of the brackets of columns that equals the
    discriminant form through q^DELTA_ORDER: the one kernel vector of the
    columns and the form (last), nonzero at the free form column, over minus
    that entry.  Any other kernel, that is no such combination or more than
    one, raises ArithmeticError."""
    series = bracket_series_many(columns, DELTA_ORDER)
    kernel = _series_kernel([*(series[c] for c in columns),
                             eta24(DELTA_ORDER)])
    if len(kernel) != 1 or not kernel[0][-1]:
        raise ArithmeticError(f"the discriminant form is not a unique "
                              f"combination of {columns} "
                              f"({len(kernel)} kernel vectors)")
    *rest, form = kernel[0]
    return WordSum(zip(columns, rest)).scale(Fraction(-1, form))


def delta_representation(a: int, b: int) -> WordSum:
    """The discriminant form as a combination of [a], [b] and the eleven
    weight-12 brackets [m, 12 - m]; exact, unique through q^DELTA_ORDER,
    and checked against the closed form of its two length-one coefficients
    and against the form.
    """
    if (a, b) not in DELTA_PAIRS:
        raise ValueError(f"(a, b) must be one of {DELTA_PAIRS}")
    columns: List[Parts] = [(a,), (b,)] + [(m, 12 - m) for m in range(1, 12)]
    expression = _solve_for_delta(columns)

    closed = _pair_coefficients(a, b)
    got = {s: expression.coefficient((s,)) for s in (a, b)}
    if got != closed:
        raise ArithmeticError(
            f"length-one coefficients {got} do not match the closed form "
            f"{closed} for pair ({a},{b})")
    if evaluate(expression, DELTA_ORDER) != eta24(DELTA_ORDER):
        raise ArithmeticError("representation does not reproduce the form")
    return expression


@lru_cache(maxsize=1)
def delta_representations() -> Tuple[WordSum, ...]:
    """delta_representation of each pair, in the order of DELTA_PAIRS.

    The result is kept, so the checks that share it solve the six systems
    once."""
    return tuple(delta_representation(a, b) for a, b in DELTA_PAIRS)


def representation_span_rank(reps: Sequence[WordSum]) -> int:
    """Rank of the differences between representations: the dimension of the
    relation space they witness, the column count less the kernel size."""
    base, *others = reps
    columns, rows = coefficient_rows(rep - base for rep in others)
    return len(columns) - len(_kernel(rows, len(columns)))


def deltal2_word_sum() -> WordSum:
    """The combination of [3, 9], [5, 7], [7, 5], [9, 3] and the even [s],
    s <= 12, that evaluates to -DELTA_SCALE times the discriminant form;
    solved like delta_representation, it gives [3, 9] and [10] the
    coefficient 0."""
    columns: List[Parts] = [(r, 12 - r) for r in (3, 5, 7, 9)]
    columns += [(s,) for s in range(2, 13, 2)]
    return _solve_for_delta(columns).scale(-DELTA_SCALE)
