from fractions import Fraction

import pytest

import qbrackets.modular as modular
from qbrackets import (DELTA_PAIRS, DELTA_SCALE, Relation, WordSum,
                       bracket_series, delta_affine_combination,
                       delta_representation, delta_representations,
                       deltal2_check, deltal2_word_sum, eisenstein, eta24,
                       evaluate, leibniz_relations, representation_span_rank,
                       split_relations, tau, tau_congruence,
                       verify_quasi_modular_identities)
from qbrackets.checks import REL4
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


def test_eisenstein_constants():
    assert eisenstein(2, 10).constant == Fraction(-1, 24)
    assert eisenstein(4, 10).constant == Fraction(1, 1440)
    assert eisenstein(6, 10).constant == Fraction(-1, 60480)
    assert eisenstein(8, 10).constant == Fraction(1, 2419200)
    with pytest.raises(ValueError):
        eisenstein(3, 10)
    with pytest.raises(ValueError):
        eisenstein(0, 10)


def test_eisenstein_tail_is_bracket():
    g = eisenstein(4, 20)
    b = bracket_series((4,), 20)
    assert g.coeffs == b.coeffs


def test_quasi_modular_identity_report():
    report = verify_quasi_modular_identities(40)
    assert len(report) == 5
    assert all(entry["pass"] for entry in report)
    names = {entry["identity"] for entry in report}
    assert "G4^2 = 7/6 G8" in names
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


def test_modular_relations_meet_the_split_relations(monkeypatch):
    admitted = _admitted(monkeypatch)
    verify_quasi_modular_identities(40)
    assert [rel.provenance for rel in admitted] == ["modular"] * 5
    dg2, _, _, g4_squared, eight = admitted
    assert dg2.normalized() == WordSum(REL4).normalized()
    assert g4_squared.normalized() == eight.normalized()


def test_tau_golden():
    assert [tau(n) for n in range(1, 8)] == \
        [1, -24, 252, -1472, 4830, -6048, -16744]


def test_tau_extends_past_its_cached_order(monkeypatch):
    monkeypatch.setattr(modular, "_TAU", [])
    wanted = eta24(300)
    assert tau(1) == wanted.coefficient(1)
    assert tau(300) == wanted.coefficient(300)
    assert [tau(n) for n in range(1, 301)] == list(wanted.nums[1:])


def test_delta_representation_golden_pair():
    rep = delta_representation(2, 4)
    assert rep.length_one_coefficients() == PAIR_COEFFS[(2, 4)]
    assert rep.pair_coefficients_closed_form() == PAIR_COEFFS[(2, 4)]
    assert rep.verified_order >= 60
    assert evaluate(rep.expression, 60) == eta24(60)


def test_delta_representation_rejects_unknown_pair():
    with pytest.raises(ValueError):
        delta_representation(3, 5)
    with pytest.raises(ValueError):
        delta_representation(2, 4, order=30)


def test_all_delta_closed_forms():
    reps = {rep.pair: rep for rep in delta_representations()}
    assert set(reps) == set(DELTA_PAIRS)
    for pair, rep in reps.items():
        assert rep.length_one_coefficients() == PAIR_COEFFS[pair]


def test_delta_representations_span():
    reps = delta_representations()
    assert representation_span_rank(reps) == 5
    weights = delta_affine_combination(reps[0].expression, reps)
    assert weights is not None
    assert sum(weights) == 1
    # twice a representation needs weights summing to 2: not affine
    assert delta_affine_combination(reps[0].expression.scale(2), reps) is None


def test_deltal2_exact():
    combo = deltal2_word_sum()
    scaled = eta24(50).scale(-DELTA_SCALE)
    assert evaluate(combo, 50) == scaled
    report = deltal2_check(50)
    assert report["pass"] is True
    assert report["exact_series_match"] is True
    assert sum(Fraction(w) for w in report["affine_weights"]) == 1


def test_deltal2_combination_shape():
    combo = deltal2_word_sum()
    assert combo.coefficient((5, 7)) == 168
    assert combo.coefficient((7, 5)) == 150
    assert combo.coefficient((9, 3)) == 28
    assert combo.coefficient((12,)) == Fraction(-5197, 691)


def test_tau_congruence_mod_691():
    report = tau_congruence(80)
    assert report["pass"] is True
    assert report["failures"] == []
