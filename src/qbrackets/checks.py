"""Named verification suite: every published identity the library is
expected to reproduce, recomputed from scratch and reported one line per
check.

The registry order is fixed so failures are named deterministically; the
command line `verify` subcommand walks it and exits nonzero on the first
failure.  Checks marked quick skip nothing mathematically, they only use
smaller orders so the whole quick pass stays under a few seconds.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .brackets import bracket_series, bracket_series_many, \
    bracket_series_oracle_many, multiple_divisor_sum, partition_identity_check
from .derivation import d_general, d_len1, d_len2, leibniz_relations, \
    split_relations
from .linalg import ExactMatrix, dimension_table, graded_relation_counts, \
    homogeneous_relation_search, relation_in_span
from .modular import DELTA_SCALE, deltal2_word_sum, delta_representations, \
    representation_span_rank, verify_quasi_modular_identities
from .numbers import compositions_up_to
from .series import eta24
from .words import WordSum, evaluate, quasi_shuffle, word

Parts = Tuple[int, ...]


class CheckFailure(AssertionError):
    """Raised by a check body with a human-readable reason."""


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        """Stable one-line report; timings stay off it so identical runs
        produce identical bytes."""
        status = "ok  " if self.passed else "FAIL"
        return f"{status} {self.name:<28} {self.detail}"


def _expect_equal(got, want, label: str) -> None:
    if got != want:
        raise CheckFailure(f"{label}: got {got!r}, expected {want!r}")


def _expect_words(got: WordSum, want: WordSum, label: str) -> None:
    if got != want:
        diff = got - want
        w = next(iter(diff.words()))
        raise CheckFailure(
            f"{label}: coefficient of {list(w)} is {got.coefficient(w)}, "
            f"expected {want.coefficient(w)}")


# ---------------------------------------------------------------------------
# golden data

# printed opening coefficients: (composition, overall scale, first exponent,
# integer coefficients of the scaled series from that exponent on)
SERIES_EXAMPLES: Tuple[Tuple[Parts, Fraction, int, Tuple[int, ...]], ...] = (
    ((2,), Fraction(1), 1, (1, 3, 4, 7, 6, 12, 8, 15)),
    ((4, 2), Fraction(1, 6), 3, (1, 3, 15, 27, 78, 135)),
    ((4, 4, 4), Fraction(1, 216), 6, (1, 9, 45, 190, 642, 1899)),
    ((3, 1, 3, 1), Fraction(1, 4), 10, (1, 2, 8, 16, 43, 70)),
    ((1, 2, 3, 4, 5), Fraction(1, 288), 15, (1, 17, 107, 512, 1985)),
)

PRODUCT_EXAMPLES: Tuple[Tuple[Parts, Parts, Dict[Parts, Fraction | int]], ...] = (
    ((1,), (1,), {(1, 1): 2, (2,): 1, (1,): -1}),
    ((1,), (2,), {(1, 2): 1, (2, 1): 1, (3,): 1, (2,): Fraction(-1, 2)}),
    ((1,), (2, 1), {(1, 2, 1): 1, (2, 1, 1): 2, (2, 1): Fraction(-3, 2),
                    (2, 2): 1, (3, 1): 1}),
)

DERIVATIVE_EXAMPLES: Tuple[Tuple[str, Parts, Dict[Parts, Fraction | int]], ...] = (
    ("d[1]", (1,), {(3,): 1, (2,): Fraction(1, 2), (2, 1): -1}),
    ("d[1,1]", (1, 1), {(3, 1): 1, (2, 1): Fraction(3, 2),
                        (1, 2): Fraction(1, 2), (1, 3): 1,
                        (2, 1, 1): -2, (1, 2, 1): -1}),
    ("d[1,2]", (1, 2), {(1, 2): Fraction(-1, 6), (1, 3): 2, (1, 4): 1,
                        (2, 2): Fraction(3, 2), (3, 2): 1,
                        (1, 3, 1): -4, (2, 1, 2): -1, (2, 2, 1): -2}),
    ("d[2,2]", (2, 2), {(2, 2): Fraction(-1, 3), (2, 3): 2, (2, 4): 1,
                        (3, 2): 4, (4, 2): 1,
                        (2, 3, 1): -4, (3, 1, 2): -4, (3, 2, 1): -4}),
    ("d[2,1,1]", (2, 1, 1), {(2, 1, 1): Fraction(-1, 6),
                             (2, 1, 2): Fraction(1, 2), (2, 1, 2, 1): -1,
                             (2, 1, 3): 1, (2, 2, 1): Fraction(3, 2),
                             (2, 2, 1, 1): -2, (2, 3, 1): 1, (3, 1, 1): 6,
                             (3, 1, 1, 1): -8, (4, 1, 1): 1}),
)

# the two closed forms for d[2]; both must agree with the general formula
D2_FORM_A = {(4,): 1, (3,): 2, (2,): Fraction(-1, 6), (3, 1): -4}
D2_FORM_B = {(4,): 2, (3,): 1, (2,): Fraction(1, 6), (2, 2): -2, (3, 1): -2}

REL4 = {(4,): -1, (2, 2): 2, (3, 1): -2, (3,): 1, (2,): Fraction(-1, 3)}
REL_W5 = {(5,): -1, (3, 1, 1): 2, (2, 2, 1): -1, (2, 3): 1, (3, 2): 2,
          (4, 1): -1, (4,): Fraction(1, 2), (2, 2): Fraction(1, 2),
          (3, 1): -2, (2, 1): Fraction(1, 6), (2,): Fraction(-1, 12),
          (3,): Fraction(1, 12)}

# independent relation counts per graded (weight, length) cell
RELATION_COUNTS_LOW: Dict[Tuple[int, int], int] = {
    (2, 1): 0, (3, 1): 0, (3, 2): 0,
    (4, 1): 0, (4, 2): 1, (4, 3): 0,
    (5, 1): 0, (5, 2): 1, (5, 3): 1, (5, 4): 0,
    (6, 1): 0, (6, 2): 2, (6, 3): 3,
}

# proven cells of the two filtered dimension tables: weight -> row of
# values for length 0..  (admissible rows are complete through weight 8,
# the full-space rows through weight 6)
DIMS_ADMISSIBLE_EXACT: Dict[int, Tuple[int, ...]] = {
    0: (1,),
    1: (1, 1),
    2: (1, 2, 2),
    3: (1, 3, 4, 4),
    4: (1, 4, 6, 7, 7),
    5: (1, 5, 9, 12, 13, 13),
    6: (1, 6, 12, 18),
    7: (1, 7, 16),
    8: (1, 8, 20),
}
DIMS_FULL_EXACT: Dict[int, Tuple[int, ...]] = {
    0: (1,),
    1: (1, 2),
    2: (1, 3, 4),
    3: (1, 4, 7, 8),
    4: (1, 5, 10, 14, 15),
    5: (1, 6, 14, 22, 27, 28),
    6: (1, 7, 18, 32),
}

# rows are the coefficients of q^1..q^8 of [2],[3],[4],[2,1],[2,2],[3,1],
# [2,1,1]; the matrix famously has rank 6, one less than the row count
RANK_EXAMPLE_BRACKETS: Tuple[Parts, ...] = (
    (2,), (3,), (4,), (2, 1), (2, 2), (3, 1), (2, 1, 1))
RANK_EXAMPLE_ROWS: Tuple[Tuple[Fraction, ...], ...] = tuple(
    tuple(Fraction(x) for x in row) for row in (
        (1, 3, 4, 7, 6, 12, 8, 15),
        (Fraction(1, 2), Fraction(5, 2), 5, Fraction(21, 2), 13, 25, 25,
         Fraction(85, 2)),
        (Fraction(1, 6), Fraction(3, 2), Fraction(14, 3), Fraction(73, 6),
         21, 42, Fraction(172, 3), Fraction(195, 2)),
        (0, 0, 1, 2, 6, 7, 15, 18),
        (0, 0, 1, 3, 9, 15, 30, 45),
        (0, 0, Fraction(1, 2), 1, 4, Fraction(9, 2), Fraction(25, 2), 15),
        (0, 0, 0, 0, 0, 1, 2, 5),
    ))

# homogeneous length-3 relations in weights 9 and 10, normalized so the
# lexicographically greatest word is monic
HOMOGENEOUS_9 = {
    (2, 3, 4): Fraction(9, 5), (2, 4, 3): 2, (2, 5, 2): -1,
    (3, 5, 1): 2, (3, 1, 5): -2, (3, 2, 4): Fraction(-1, 5),
    (3, 3, 3): -1, (3, 4, 2): -1,
    (4, 4, 1): Fraction(3, 5), (4, 1, 4): Fraction(-3, 5),
    (4, 2, 3): Fraction(-11, 10), (4, 3, 2): Fraction(1, 2),
    (5, 1, 3): Fraction(4, 5), (5, 3, 1): Fraction(-4, 5),
    (6, 1, 2): -1, (6, 2, 1): 1,
}
HOMOGENEOUS_10 = {
    (2, 3, 5): Fraction(4, 3), (2, 4, 4): Fraction(14, 5),
    (2, 5, 3): Fraction(29, 15), (2, 6, 2): -1,
    (3, 6, 1): 2, (3, 1, 6): -2, (3, 2, 5): Fraction(-2, 3),
    (3, 3, 4): Fraction(2, 5), (3, 4, 3): Fraction(-1, 15), (3, 5, 2): -1,
    (4, 5, 1): 2, (4, 1, 5): -2, (4, 2, 4): Fraction(-6, 5),
    (4, 3, 3): Fraction(-4, 3), (4, 4, 2): Fraction(-2, 5),
    (5, 4, 1): Fraction(2, 5), (5, 1, 4): Fraction(-2, 5),
    (5, 2, 3): -1, (5, 3, 2): Fraction(1, 5),
    (6, 1, 3): Fraction(1, 3), (6, 3, 1): Fraction(-1, 3),
    (7, 1, 2): -1, (7, 2, 1): 1,
}

MZV_RELATIONS: Tuple[Tuple[str, Dict[Parts, Fraction | int], float], ...] = (
    ("zeta(3) = zeta(2,1)", {(3,): 1, (2, 1): -1}, 1e-8),
    ("zeta(4) = 4 zeta(3,1)", {(4,): 1, (3, 1): -4}, 1e-8),
    ("zeta(4) = 4/3 zeta(2,2)", {(4,): 1, (2, 2): Fraction(-4, 3)}, 1e-8),
    ("zeta(8) = 12 zeta(4,4)", {(8,): 1, (4, 4): -12}, 1e-8),
    ("5197/691 zeta(12) = 168 zeta(5,7) + 150 zeta(7,5) + 28 zeta(9,3)",
     {(12,): Fraction(5197, 691), (5, 7): -168, (7, 5): -150, (9, 3): -28},
     1e-6),
)


# ---------------------------------------------------------------------------
# check bodies


def check_series_examples() -> str:
    for parts, scale, first, coeffs in SERIES_EXAMPLES:
        order = first + len(coeffs) - 1
        s = bracket_series(parts, order)
        for n in range(1, first):
            _expect_equal(s.coefficient(n), Fraction(0),
                          f"[{','.join(map(str, parts))}] q^{n}")
        for i, c in enumerate(coeffs):
            _expect_equal(s.coefficient(first + i), scale * c,
                          f"[{','.join(map(str, parts))}] q^{first + i}")
    return f"{len(SERIES_EXAMPLES)} expansions exact at printed orders"


def check_series_oracle(max_weight: int = 6, order: int = 80) -> str:
    comps = list(compositions_up_to(max_weight))
    fast = bracket_series_many(comps, order)
    slow = bracket_series_oracle_many(comps, order)
    for c in comps:
        if fast[c] != slow[c]:
            raise CheckFailure(f"series for {c} disagree with the "
                               f"convolution oracle at order {order}")
    return f"{len(comps)} compositions of weight <= {max_weight}, order {order}"


def check_product_examples(order: int = 100) -> str:
    for w, v, wanted in PRODUCT_EXAMPLES:
        got = quasi_shuffle(word(*w), word(*v))
        _expect_words(got, WordSum(wanted), f"[{w}]*[{v}]")
    pairs = list(PRODUCT_EXAMPLES) + [((4,), (4,), None), ((2,), (3, 4), None)]
    for w, v, _ in pairs:
        prod = quasi_shuffle(word(*w), word(*v))
        lhs = evaluate(prod, order)
        rhs = bracket_series(w, order) * bracket_series(v, order)
        if lhs != rhs:
            raise CheckFailure(f"product {w} * {v} fails the homomorphism "
                               f"check at order {order}")
    return f"3 closed forms plus {len(pairs)} homomorphism checks at order {order}"


def check_derivative_forms(order: int = 80) -> str:
    for label, parts, wanted in DERIVATIVE_EXAMPLES:
        _expect_words(d_general(parts, verify_order=order), WordSum(wanted),
                      label)
    forms = {d_len1(1, 3, verify_order=order),
             d_len1(2, 2, verify_order=order)}
    if forms != {WordSum(D2_FORM_A), WordSum(D2_FORM_B)}:
        raise CheckFailure("the two split expressions for d[2] differ from "
                           "the published pair")
    _expect_words(d_len2(2, 2, verify_order=order),
                  WordSum(DERIVATIVE_EXAMPLES[3][2]), "d[2,2] closed form")
    return f"7 closed forms, each certified against q d/dq at order {order}"


def check_relation_split4(order: int = 200) -> str:
    rels = split_relations(4, verify_order=order)
    goal = WordSum(REL4).normalized()
    if goal not in [r.body.normalized() for r in rels]:
        raise CheckFailure("the weight-4 split relation is missing")
    return f"{len(rels)} relation(s), zero through q^{order}"


def check_relation_leibniz5(order: int = 200) -> str:
    rel = leibniz_relations((1,), (2,), verify_order=order)
    if rel.body.normalized() != WordSum(REL_W5).normalized():
        raise CheckFailure("the weight-5 Leibniz relation differs from the "
                           "published one")
    return f"matches the published relation, zero through q^{order}"


def check_relation_counts() -> str:
    got = graded_relation_counts(6, 4)
    for cell, want in sorted(RELATION_COUNTS_LOW.items()):
        if cell not in got:
            raise CheckFailure(f"cell {cell} missing from relation counts")
        if got[cell] != want:
            raise CheckFailure(f"cell {cell}: found {got[cell]} independent "
                               f"relations, expected {want}")
    return f"{len(RELATION_COUNTS_LOW)} graded cells up to weight 6 match"


def check_rank_example() -> str:
    rows = []
    for parts, wanted in zip(RANK_EXAMPLE_BRACKETS, RANK_EXAMPLE_ROWS):
        s = bracket_series(parts, 8)
        row = tuple(s.coefficient(n) for n in range(1, 9))
        if row != wanted:
            raise CheckFailure(f"coefficient row of {parts} differs from "
                               f"the published matrix")
        rows.append(row)
    rank = ExactMatrix.from_rows(rows).rank()
    _expect_equal(rank, 6, "rank of the 7x8 weight-4 matrix")
    return "7x8 coefficient matrix reproduced, rank 6"


def check_quasi_modular(order: int = 100) -> str:
    relations = verify_quasi_modular_identities(order)
    return f"{len(relations)} identities exact at order {order}"


def check_delta_representations(order: int = 60) -> str:
    span = representation_span_rank(delta_representations(order))
    _expect_equal(span, 5, "affine span rank of discriminant representations")
    return f"6 representations solved at order {order}, affine span rank 5"


def check_deltal2(order: int = 50) -> str:
    # rescaled to the form, the combination must be R_0 + sum_i m_i (R_i - R_0)
    # for the standard representations R_i (see the modular docstring)
    combo = deltal2_word_sum()
    exact = evaluate(combo, order) == eta24(order).scale(-DELTA_SCALE)
    base, *others = delta_representations(max(60, order))
    affine = relation_in_span(combo.scale(-1 / DELTA_SCALE) - base,
                              [rep - base for rep in others])
    if not (exact and affine):
        raise CheckFailure("length-2 discriminant representation fails "
                           f"(exact={exact})")
    return f"exact through q^{order}, affine weights sum to 1"


def check_tau_congruence(order: int = 100) -> str:
    taus = eta24(order).nums
    failures = [n for n in range(1, order + 1)
                if (taus[n] - multiple_divisor_sum((11,), n)) % 691]
    if failures:
        raise CheckFailure(f"tau(n) = sigma_11(n) mod 691 fails at "
                           f"n = {failures[:3]}")
    return f"holds for n <= {order}"


def check_mzv_relations() -> str:
    from . import zeta  # mpmath loads only when an MZV check runs
    for label, combo, tol in MZV_RELATIONS:
        total = 0.0
        for parts, coeff in combo.items():
            total += float(coeff) * float(zeta.mzv(parts).value)
        if abs(total) >= tol:
            raise CheckFailure(f"{label}: residual {total:.3e} >= {tol:g}")
    return f"{len(MZV_RELATIONS)} relations verified numerically"


def check_mzv_kernel_image() -> str:
    from . import zeta
    poly = zeta.Z_k_alg(d_general((1, 1)), 4)
    worst = float(poly.max_abs())
    if worst >= 1e-6:
        raise CheckFailure(f"Z_4 image of d[1,1] has a coefficient of size "
                           f"{worst:.3e}")
    return f"Z_4(d[1,1]) vanishes coefficientwise (max {worst:.1e})"


def check_partition_identity(order: int = 50) -> str:
    if not partition_identity_check(order):
        raise CheckFailure("sum over lengths of [1,...,1] does not match "
                           "the partition numbers")
    return f"matches the pentagonal recurrence for n <= {order}"


def _check_dims(space: str, published: Dict[int, Tuple[int, ...]],
                label: str) -> str:
    max_weight = max(published)
    table = dimension_table(space, max_weight)
    for k, row in sorted(published.items()):
        for l, want in enumerate(row):
            got = table.value(k, l)
            if got != want:
                raise CheckFailure(f"{label} cell ({k},{l}): computed "
                                   f"{got}, published {want}")
    cells = sum(len(row) for row in published.values())
    return f"{cells} proven cells through weight {max_weight} match"


def check_dims_admissible() -> str:
    return _check_dims("mda", DIMS_ADMISSIBLE_EXACT, "admissible")


def check_dims_full() -> str:
    return _check_dims("md", DIMS_FULL_EXACT, "full-space")


def check_homogeneous_relations(order: int = 300) -> str:
    for k, wanted in ((9, HOMOGENEOUS_9), (10, HOMOGENEOUS_10)):
        rels = homogeneous_relation_search(k, 3, order)
        if len(rels) != 1:
            raise CheckFailure(f"expected one homogeneous relation at "
                               f"weight {k}, found {len(rels)}")
        _expect_words(rels[0].body.normalized(), WordSum(wanted).normalized(),
                      f"homogeneous weight-{k} relation")
    return f"weights 9 and 10 each give one relation, zero through q^{order}"


# ---------------------------------------------------------------------------
# registry


@dataclass(frozen=True)
class Check:
    name: str
    description: str
    quick: bool
    run: Callable[[], str]


REGISTRY: Tuple[Check, ...] = (
    Check("series-examples", "printed opening expansions of five brackets",
          True, check_series_examples),
    Check("series-oracle", "two independent series algorithms agree",
          False, check_series_oracle),
    Check("product-examples", "printed quasi-shuffle products and the "
          "homomorphism property", True, check_product_examples),
    Check("derivative-forms", "printed closed forms of q d/dq on brackets",
          True, check_derivative_forms),
    Check("relation-split4", "weight-4 relation from the splitting argument",
          True, check_relation_split4),
    Check("relation-leibniz5", "weight-5 relation from the Leibniz rule",
          True, check_relation_leibniz5),
    Check("relation-counts", "independent relation counts per graded cell",
          False, check_relation_counts),
    Check("rank-example", "7x8 coefficient matrix of the weight-4 pieces",
          True, check_rank_example),
    Check("quasi-modular", "derivatives and products of Eisenstein series",
          True, check_quasi_modular),
    Check("delta-representations", "discriminant as length-2 combinations",
          True, check_delta_representations),
    Check("delta-length2", "discriminant inside the length-2 span",
          True, check_deltal2),
    Check("tau-congruence", "Ramanujan congruence mod 691",
          True, check_tau_congruence),
    Check("mzv-relations", "numerical multiple zeta value identities",
          True, check_mzv_relations),
    Check("mzv-kernel-image", "derivative image vanishes under Z_4",
          True, check_mzv_kernel_image),
    Check("partition-identity", "brackets of ones sum to the partition "
          "numbers", True, check_partition_identity),
    Check("dims-admissible", "proven dimension table of the admissible "
          "space", False, check_dims_admissible),
    Check("dims-full", "proven dimension table of the full space",
          False, check_dims_full),
    Check("homogeneous-relations", "single-weight length-3 relations in "
          "weights 9 and 10", False, check_homogeneous_relations),
)


def run_suite(names: Optional[Sequence[str]] = None,
              quick: bool = False) -> List[CheckResult]:
    """Run the registered checks in order and collect their results.

    names restricts the run to the given check names (unknown names raise
    ValueError); quick keeps only the fast subset.  A check that raises
    CheckFailure, or ArithmeticError from a failed self-verification, is
    recorded as failed and the suite goes on.
    """
    if names is not None:
        known = {c.name for c in REGISTRY}
        missing = [n for n in names if n not in known]
        if missing:
            raise ValueError(f"unknown check name(s): {', '.join(missing)}")
    chosen = [c for c in REGISTRY
              if (names is None or c.name in names) and (not quick or c.quick)]
    results = []
    for check in chosen:
        start = time.perf_counter()
        try:
            detail = check.run()
            passed = True
        except (CheckFailure, ArithmeticError) as exc:
            detail = str(exc)
            passed = False
        results.append(CheckResult(check.name, passed, detail,
                                   time.perf_counter() - start))
    return results


def first_failure(results: Sequence[CheckResult]) -> Optional[CheckResult]:
    return next((r for r in results if not r.passed), None)
