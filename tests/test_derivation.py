import functools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbrackets import (Relation, WordSum, bracket_series, brackets,
                       compositions_up_to,
                       d_general, d_len1, d_len2, d_word_sum, derivation,
                       evaluate, leibniz_relations, proven_relation_corpus,
                       quasi_shuffle, split_relations, word)
from qbrackets.checks import (D2_FORM_A, D2_FORM_B, DERIVATIVE_EXAMPLES, REL4,
                              REL_W5)

small_parts = st.lists(st.integers(min_value=1, max_value=3),
                       min_size=1, max_size=3).map(tuple)


def _ws(d):
    return WordSum((w, Fraction(c)) for w, c in d.items())


def test_printed_derivative_formulas():
    for label, parts, wanted in DERIVATIVE_EXAMPLES:
        assert d_general(parts) == _ws(wanted), label


def test_two_split_forms_of_d2():
    forms = {d_len1(1, 3), d_len1(2, 2)}
    assert forms == {_ws(D2_FORM_A), _ws(D2_FORM_B)}


def test_len2_closed_form_agrees_with_general():
    for s1 in range(1, 4):
        for s2 in range(1, 4):
            a = d_len2(s1, s2)
            b = d_general((s1, s2))
            assert evaluate(a - b, 40).is_zero()


@given(small_parts)
@settings(max_examples=20, deadline=None)
def test_derivative_matches_q_d_dq(parts):
    order = 40
    expr = d_general(parts)
    assert evaluate(expr, order) == bracket_series(parts, order).q_d_dq()


tiny_parts = st.lists(st.integers(min_value=1, max_value=3),
                      min_size=1, max_size=2).map(tuple)


@given(tiny_parts, tiny_parts)
@settings(max_examples=10, deadline=None)
def test_d_word_sum_leibniz(u, v):
    a, b = word(*u), word(*v)
    lhs = d_word_sum(quasi_shuffle(a, b))
    rhs = quasi_shuffle(d_word_sum(a), b) + quasi_shuffle(a, d_word_sum(b))
    assert evaluate(lhs - rhs, 30).is_zero()


def test_split_relations_golden_weight4():
    rels = split_relations(4)
    assert len(rels) == 1
    body = rels[0].body
    lead = body.coefficient((4,))
    assert lead != 0
    # scaled so the [4] coefficient is -1, the body reads as REL4
    assert body.scale(Fraction(-1) / lead) == _ws(REL4)
    assert evaluate(body, 200).is_zero()


def test_split_relations_counts_and_vanishing():
    for k in (5, 6, 7, 8):
        rels = split_relations(k)
        assert len(rels) == k // 2 - 1
        for rel in rels:
            assert rel.weight == k
            assert evaluate(rel.body, 120).is_zero()
    with pytest.raises(ValueError):
        split_relations(3)


def test_leibniz_golden_weight5():
    rel = leibniz_relations((1,), (2,))
    body = rel.body
    lead = body.coefficient((5,))
    assert lead != 0
    assert body.scale(Fraction(-1) / lead) == _ws(REL_W5)
    assert evaluate(body, 200).is_zero()


def test_leibniz_weight4_matches_split():
    rel = leibniz_relations((1,), (1,))
    split = split_relations(4)[0]
    assert rel.body.normalized() == split.body.normalized()


def test_relation_gate_admits_only_vanishing_bodies():
    rel = Relation.verified(_ws(REL4), "derivation-split", 60)
    assert rel.verified_order == 60
    assert rel.body == _ws(REL4)
    with pytest.raises(ArithmeticError,
                       match="^leibniz relation fails to vanish at order 40"):
        Relation.verified(_ws(REL4) + word(2), "leibniz", 40)


# a length-4 bracket starts at q^(1+2+3+4) = q^10
LATE = word(1, 1, 1, 1)


def test_relation_gate_checks_through_q_order_inclusive():
    body = _ws(REL4) + LATE
    assert Relation.verified(body, "leibniz", 9).body == body
    with pytest.raises(ArithmeticError,
                       match="^leibniz relation fails to vanish at order 10"):
        Relation.verified(body, "leibniz", 10)


def test_derivative_self_check_reaches_q_order_inclusive(monkeypatch):
    real = derivation._d_general_body
    monkeypatch.setattr(derivation, "_d_general_body",
                        lambda c: real(c) + LATE)
    # a fresh cache, dropped with the patch
    monkeypatch.setattr(derivation, "_d_general_cached", functools.lru_cache(
        derivation._d_general_cached.__wrapped__))
    assert d_general((2,), 9) == real((2,)) + LATE
    with pytest.raises(ArithmeticError,
                       match=r"fails against q d/dq at order 10$"):
        d_general((2,), 10)


def test_relation_metadata_and_json():
    rel = leibniz_relations((1,), (2,), verify_order=50)
    assert rel.status == "proven"
    assert rel.weight == 5
    assert rel.verified_order == 50
    doc = rel.to_json()
    assert (doc["weight"], doc["provenance"], doc["verified_order"]) == \
        (5, "leibniz", 50)
    assert WordSum((tuple(t["parts"]), Fraction(t["coeff"]))
                   for t in doc["terms"]) == rel.body


def test_proven_corpus_sweeps_once(monkeypatch):
    # from a cold series cache: one sweep of every composition of weight
    # <= 6 at the configured order, and every later request a cache hit
    sweeps = []
    sweep = brackets._sigma_lists

    def counted(comps, order):
        comps = set(comps)
        if comps:
            sweeps.append((order, comps))
        return sweep(comps, order)

    monkeypatch.setattr(brackets, "_SERIES_CACHE", {})
    monkeypatch.setattr(brackets, "_sigma_lists", counted)
    derivation._d_general_cached.cache_clear()
    corpus = proven_relation_corpus(6)
    assert sweeps == [(120, set(compositions_up_to(6)))]
    assert [rel.verified_order for rel in corpus] == [120] * len(corpus)


def test_proven_corpus_closure_and_vanishing():
    corpus = proven_relation_corpus(6)
    pairs = list(compositions_up_to(3))
    seeds = [rel for k in (4, 5, 6) for rel in split_relations(k)]
    seeds += [leibniz_relations(w, v) for i, w in enumerate(pairs)
              for v in pairs[i:] if sum(w) + sum(v) + 2 <= 6]
    assert len(corpus) > len({rel.body.normalized() for rel in seeds})
    normalized = {rel.body.normalized() for rel in corpus}
    assert len(normalized) == len(corpus)  # no proportional duplicates
    for rel in corpus:
        assert rel.weight <= 6
        assert rel.status == "proven"
        assert evaluate(rel.body, 40).is_zero()
    # closed under multiplication by [2] up to the weight bound
    seed = split_relations(4)[0]
    bumped = quasi_shuffle(seed.body, word(2)).normalized()
    assert bumped in normalized
