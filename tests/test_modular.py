from fractions import Fraction
from math import factorial

import pytest

import qbrackets.modular as modular
from qbrackets import (DELTA_PAIRS, DELTA_SCALE, QSeries, Relation, WordSum,
                       bracket_series, delta_representation,
                       delta_representations, deltal2_word_sum, eisenstein,
                       eta24, evaluate, leibniz_relations, relation_in_span,
                       representation_span_rank, split_relations,
                       verify_quasi_modular_identities)
from qbrackets.checks import REL4, check_tau_congruence, run_suite
from qbrackets.derivation import PROVEN_PROVENANCES

# length-one coefficients of the six discriminant representations
PAIR_COEFFS = {
    (2, 4): {2: Fraction(11, 2), 4: Fraction(-27)},
    (4, 6): {4: Fraction(57, 4), 6: Fraction(-165)},
    (6, 8): {6: Fraction(765, 4), 8: Fraction(-5985, 2)},
    (8, 10): {8: Fraction(56385, 8), 10: Fraction(-144585)},
    (10, 11): {10: Fraction(2973915, 4), 11: Fraction(-7611975, 2)},
    (11, 12): {11: Fraction(29384775, 4), 12: Fraction(-163565325, 4)},
}


def _length_one(rep, pair):
    return {s: rep.coefficient((s,)) for s in pair}


def _is_affine_combination(target, reps):
    """target = R_0 + sum_i m_i (R_i - R_0) for some rationals m_i."""
    base, *others = reps
    return relation_in_span(target - base, [rep - base for rep in others])


def test_eisenstein_constants():
    constants = {2: Fraction(-1, 24), 4: Fraction(1, 1440),
                 6: Fraction(-1, 60480), 8: Fraction(1, 2419200)}
    for k, constant in constants.items():
        assert evaluate(eisenstein(k), 10).coefficient(0) == constant
    with pytest.raises(ValueError):
        eisenstein(3)
    with pytest.raises(ValueError):
        eisenstein(0)


# B_k for the even weights up to 12, written out so the check does not lean on
# the package's own Bernoulli numbers
BERNOULLI = {2: Fraction(1, 6), 4: Fraction(-1, 30), 6: Fraction(1, 42),
             8: Fraction(-1, 30), 10: Fraction(5, 66),
             12: Fraction(-691, 2730)}


@pytest.mark.parametrize("k", sorted(BERNOULLI))
def test_eisenstein_is_the_divisor_sum_series(k):
    # G_k = -B_k / (2 k!) + sum_n sigma_{k-1}(n) q^n / (k-1)!
    order = 24
    g = evaluate(eisenstein(k), order)
    assert g.coefficient(0) == -BERNOULLI[k] / (2 * factorial(k))
    for n in range(1, order + 1):
        sigma = sum(d ** (k - 1) for d in range(1, n + 1) if n % d == 0)
        assert g.coefficient(n) == Fraction(sigma, factorial(k - 1))


def test_eisenstein_tail_is_bracket():
    g = evaluate(eisenstein(4), 20)
    b = bracket_series((4,), 20)
    assert g.coeffs == b.coeffs


def test_quasi_modular_identities_are_admitted_relations():
    relations = verify_quasi_modular_identities(40)
    assert len(relations) == 5
    assert all(rel.provenance == "modular" and rel.verified_order == 40
               for rel in relations.values())
    assert relations["[8] = 1/40 [4] - 1/252 [2] + 12 [4,4]"].body == \
        WordSum({(8,): 1, (4,): Fraction(-1, 40), (2,): Fraction(1, 252),
                 (4, 4): -12})
    with pytest.raises(ValueError):
        verify_quasi_modular_identities(10)


def _admitted(monkeypatch):
    """Record every relation the gate admits from now on."""
    admitted = []
    gate = Relation.verified

    def recording(body, provenance, verify_order=None):
        admitted.append(gate(body, provenance, verify_order))
        return admitted[-1]

    monkeypatch.setattr(Relation, "verified", staticmethod(recording))
    return admitted


def test_every_proven_provenance_has_a_producer(monkeypatch):
    admitted = _admitted(monkeypatch)
    split_relations(4, 60)
    leibniz_relations((1,), (2,), 60)
    verify_quasi_modular_identities(40)
    assert {rel.provenance for rel in admitted} == set(PROVEN_PROVENANCES)
    assert all(rel.status == "proven" for rel in admitted)


def test_modular_relations_meet_the_split_relations():
    relations = verify_quasi_modular_identities(40)
    dg2 = relations["d G2 = 5 G4 - 2 G2^2"]
    assert dg2.body.normalized() == WordSum(REL4).normalized()
    assert relations["G4^2 = 7/6 G8"].body.normalized() == \
        relations["[8] = 1/40 [4] - 1/252 [2] + 12 [4,4]"].body.normalized()


def test_delta_representation_golden_pair():
    rep = delta_representation(2, 4)
    assert _length_one(rep, (2, 4)) == PAIR_COEFFS[(2, 4)]
    assert set(rep.words()) <= {(2,), (4,), *((m, 12 - m)
                                              for m in range(1, 12))}
    assert evaluate(rep, 60) == eta24(60)


def test_delta_representation_checks_the_closed_form(monkeypatch):
    assert modular._pair_coefficients(2, 4) == PAIR_COEFFS[(2, 4)]
    monkeypatch.setattr(modular, "_pair_coefficients",
                        lambda a, b: {a: Fraction(11, 2), b: Fraction(-26)})
    with pytest.raises(ArithmeticError, match="do not match the closed form"):
        delta_representation(2, 4)


def test_delta_representation_rejects_unknown_pair():
    with pytest.raises(ValueError):
        delta_representation(3, 5)


def test_all_delta_closed_forms():
    reps = delta_representations()
    assert len(reps) == len(DELTA_PAIRS)
    for pair, rep in zip(DELTA_PAIRS, reps):
        assert _length_one(rep, pair) == PAIR_COEFFS[pair]


def test_delta_representations_span():
    reps = delta_representations()
    assert representation_span_rank(reps) == 5
    assert _is_affine_combination(reps[0], reps)
    assert _is_affine_combination((reps[1] + reps[2]).scale(Fraction(1, 2)),
                                  reps)
    # twice a representation needs weights summing to 2: not affine
    assert not _is_affine_combination(reps[0].scale(2), reps)


def test_deltal2_exact():
    combo = deltal2_word_sum()
    assert evaluate(combo, 50) == eta24(50).scale(-DELTA_SCALE)
    reps = delta_representations()
    assert _is_affine_combination(combo.scale(-1 / DELTA_SCALE), reps)


def test_deltal2_combination_shape():
    # solved over [3,9], [5,7], [7,5], [9,3] and the even [s], s <= 12; the
    # solve leaves [3,9] and [10] out
    combo = deltal2_word_sum()
    assert combo == WordSum({
        (5, 7): 168, (7, 5): 150, (9, 3): 28,
        (2,): Fraction(1, 1408), (4,): Fraction(-83, 14400),
        (6,): Fraction(187, 6048), (8,): Fraction(-7, 120),
        (12,): Fraction(-5197, 691)})
    assert (3, 9) not in set(combo.words())
    assert (10,) not in set(combo.words())


def test_discriminant_solves_refuse_all_but_one_solution(monkeypatch):
    # with [6] beside the (2, 4) columns the representations of the pairs
    # (2, 4) and (4, 6) both solve, so their difference is a second kernel
    # vector and the combination is not unique
    with pytest.raises(ArithmeticError, match=r"\(2 kernel vectors\)"):
        modular._solve_for_delta([(2,), (4,), (6,)]
                                 + [(m, 12 - m) for m in range(1, 12)])
    # one more q^DELTA_ORDER term puts the form outside the span of the
    # brackets, so its column gets a pivot and the kernel loses it
    real = modular.eta24

    def bent(order):
        form = real(order)
        return QSeries(order, form.nums[:-1] + (form.nums[-1] + 1,),
                       form.den)

    monkeypatch.setattr(modular, "eta24", bent)
    with pytest.raises(ArithmeticError, match="not a unique combination"):
        delta_representation(2, 4)
    with pytest.raises(ArithmeticError, match="not a unique combination"):
        deltal2_word_sum()


def test_tau_congruence_mod_691():
    assert check_tau_congruence() == "holds for n <= 100"


def test_verify_solves_the_discriminant_representations_once(monkeypatch):
    solved = []
    real = modular.delta_representation

    def spy(a, b):
        solved.append((a, b))
        return real(a, b)

    monkeypatch.setattr(modular, "delta_representation", spy)
    modular.delta_representations.cache_clear()
    try:
        results = run_suite(["delta-representations", "delta-length2"])
    finally:
        modular.delta_representations.cache_clear()
    assert [r.passed for r in results] == [True, True]
    assert solved == list(DELTA_PAIRS)
