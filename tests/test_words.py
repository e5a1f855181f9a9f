import json
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbrackets import (ExactMatrix, IntEchelon, OnePolynomial, QSeries,
                       WordSum, bracket_series, bracket_series_many,
                       bracket_series_oracle_many, canonical_key,
                       decompose_in_one, diamond, evaluate, quasi_shuffle, word)
from qbrackets import brackets, derivation, lambda_coeff, words
from qbrackets.words import coefficient_rows
from qbrackets.checks import PRODUCT_EXAMPLES

letters = st.integers(min_value=1, max_value=3)
words_st = st.lists(letters, min_size=1, max_size=3).map(tuple)


@st.composite
def word_sums(draw):
    n = draw(st.integers(min_value=1, max_value=3))
    terms = {}
    for _ in range(n):
        terms[draw(words_st)] = draw(st.fractions(min_value=-3, max_value=3))
    return WordSum(terms.items())


def _ws(d):
    return WordSum((w, Fraction(c)) for w, c in d.items())


def test_word_sum_algebra():
    a = word(2) + word(1, 1).scale(2)
    assert a.coefficient((2,)) == 1
    assert a.coefficient((1, 1)) == 2
    assert a.coefficient((5,)) == 0
    assert (a - a).is_zero()
    assert a.weight == 2
    assert a.max_length == 2


def test_zero_terms_are_dropped():
    s = WordSum({(2,): Fraction(1)}) + WordSum({(2,): Fraction(-1)})
    assert s == WordSum()
    assert len(s) == 0
    assert s.to_text() == "0"


def test_words_are_checked_where_they_enter(monkeypatch):
    a = word(1, 2) + word(3).scale(Fraction(1, 2))
    b = word(2, 1) - word(1)
    c = word(1, 1)
    # the single-letter products are built once per pair of letters
    for x in range(1, 8):
        for y in range(1, 8):
            diamond(x, y)
    checked = []
    check = words.as_composition
    monkeypatch.setattr(words, "as_composition",
                        lambda parts: checked.append(parts) or check(parts))
    # words taken from WordSums are not checked again
    derived = [a + b, a - b, -a, a.scale(3), a.normalized(), a * b]
    poly = decompose_in_one(a * b * c)
    assert checked == []
    assert derived[0] == WordSum([*a.terms(), *b.terms()])
    assert poly.substitute_one(20) == evaluate(a * b * c, 20)
    # words from outside the type are, with the same errors as before
    checked.clear()
    assert list(WordSum([([2, 1], 1)]).words()) == [(2, 1)]
    assert checked == [[2, 1]]
    for bad, error in [((0,), ValueError), ((2, 1.5), TypeError)]:
        with pytest.raises(error):
            WordSum([(bad, 1)])
        with pytest.raises(error):
            word(*bad)


# few words and few coefficients, so words repeat and terms cancel
few_words = st.lists(st.integers(min_value=1, max_value=2), min_size=1,
                     max_size=2).map(tuple)
few_coeffs = st.sampled_from([-2, -1, 0, 1, 2, Fraction(1, 2),
                              Fraction(-1, 2), Fraction(2, 3)])


@st.composite
def term_lists(draw):
    terms = draw(st.lists(st.tuples(few_words, few_coeffs), max_size=10))
    cancelled = draw(st.integers(min_value=0, max_value=len(terms)))
    return terms + [(w, -c) for w, c in terms[:cancelled]]


@given(term_lists())
@settings(max_examples=60, deadline=None)
def test_word_sum_sums_duplicates_and_drops_zeros(terms):
    reference = {}
    for w, c in terms:
        reference[w] = reference.get(w, Fraction(0)) + Fraction(c)
    reference = {w: c for w, c in reference.items() if c}
    got = WordSum(terms)
    assert dict(got.terms()) == reference
    assert list(got.words()) == sorted(reference, key=canonical_key)


@given(st.lists(word_sums(), max_size=5), st.booleans())
@settings(max_examples=40, deadline=None)
def test_coefficient_rows_keep_the_rank(sums, dependent):
    if dependent and sums:
        sums.append(sums[0].scale(Fraction(-3, 2)) + sums[-1])
    columns = sorted({w for s in sums for w in s.words()}, key=canonical_key)
    vectors = [[s.coefficient(w) for w in columns] for s in sums]
    rows = coefficient_rows(sums)
    for row, vector in zip(rows, vectors):
        # an integer row, a positive multiple of the coefficient vector
        assert all(type(x) is int for x in row)
        ratios = {Fraction(x) / c for x, c in zip(row, vector) if c}
        assert len(ratios) <= 1 and all(r > 0 for r in ratios)
        assert [x == 0 for x in row] == [c == 0 for c in vector]
    ech = IntEchelon()
    for row in rows:
        ech.add(row)
    assert ech.rank == ExactMatrix.from_rows(vectors).rank()


@given(word_sums(), st.fractions(min_value=-5, max_value=5))
@settings(max_examples=60, deadline=None)
def test_normalized_is_the_monic_form_up_to_scale(w, c):
    if w.is_zero():
        assert w.normalized().is_zero()
        return
    top = max(w.words(), key=canonical_key)
    assert w.normalized() == w.scale(1 / w.coefficient(top))
    if c:
        assert w.scale(c).normalized() == w.normalized()


def test_printed_products():
    for w, v, wanted in PRODUCT_EXAMPLES:
        assert quasi_shuffle(word(*w), word(*v)) == _ws(wanted)


def test_diamond_golden():
    assert diamond(1, 1) == _ws({(2,): 1, (1,): -1})
    assert diamond(2, 3) == _ws({(5,): 1, (3,): Fraction(-1, 12)})
    assert diamond(2, 2) == _ws({(4,): 1, (2,): Fraction(-1, 6)})


@given(word_sums(), word_sums())
@settings(max_examples=25, deadline=None)
def test_product_commutes(a, b):
    assert quasi_shuffle(a, b) == quasi_shuffle(b, a)


@given(words_st, words_st, words_st)
@settings(max_examples=15, deadline=None)
def test_product_associates(u, v, w):
    a, b, c = word(*u), word(*v), word(*w)
    assert quasi_shuffle(quasi_shuffle(a, b), c) == \
        quasi_shuffle(a, quasi_shuffle(b, c))


@given(words_st, words_st)
@settings(max_examples=20, deadline=None)
def test_product_is_series_homomorphism(u, v):
    order = 40
    prod = quasi_shuffle(word(*u), word(*v))
    assert evaluate(prod, order) == \
        bracket_series(u, order) * bracket_series(v, order)


def _oracle_sum(w, order):
    """The coefficients of q^0 .. q^order of sum c * [word], summed as plain
    Fractions from the independent oracle series."""
    oracle = bracket_series_oracle_many(w.words(), order)
    return [sum((c * oracle[u].coefficient(n) for u, c in w.terms()), Fraction(0))
            for n in range(order + 1)]


def _coefficients(s):
    return [s.coefficient(n) for n in range(s.order + 1)]


@given(word_sums(), st.integers(min_value=1, max_value=15))
@settings(max_examples=25, deadline=None)
def test_evaluate_is_linear(w, order):
    s = evaluate(w, order)
    assert s.order == order
    assert _coefficients(s) == _oracle_sum(w, order)


@pytest.mark.parametrize("w", [
    WordSum(),
    word(),
    word().scale(Fraction(-2, 3)) + word(2),
    _ws({(): Fraction(1, 6), (1,): 2, (1, 1): Fraction(5, 7),
         (2, 1): Fraction(3, 2), (3,): -1, (4,): Fraction(-2, 9),
         (2, 2): Fraction(7, 3), (3, 1, 2): Fraction(-5, 4)}),
], ids=["zero-sum", "empty-word", "empty-word-and-letter", "mixed"])
def test_evaluate_matches_the_oracle_sum(w):
    # rows cached at a higher order reach evaluate truncated
    bracket_series_many(w.words(), 40)
    assert all(brackets._SERIES_CACHE[u].order >= 40 for u in w.words() if u)
    s = evaluate(w, 13)
    assert s.order == 13
    assert _coefficients(s) == _oracle_sum(w, 13)
    assert s.is_zero() == w.is_zero()


def test_evaluate_reads_the_cached_series_as_held(monkeypatch):
    w = word(2, 1) + word(3).scale(Fraction(1, 2)) + word()
    bracket_series_many(w.words(), 40)
    cut = []
    truncate = QSeries.truncate
    monkeypatch.setattr(QSeries, "truncate",
                        lambda s, n: cut.append(n) or truncate(s, n))
    assert evaluate(w, 13).order == 13
    assert cut == []
    # the public functions still return exactly the order asked for
    assert bracket_series((2, 1), 13).order == 13
    assert {s.order for s in bracket_series_many(w.words(), 13).values()} \
        == {13}
    assert cut == [13] * 4


def _word_sum_from_json(doc):
    return WordSum((tuple(t["parts"]), Fraction(t["coeff"])) for t in doc["terms"])


@given(word_sums())
@settings(max_examples=25, deadline=None)
def test_word_sum_json_round_trip(w):
    # the printed JSON carries every word and coefficient exactly
    assert _word_sum_from_json(json.loads(json.dumps(w.to_json()))) == w


def test_decompose_golden():
    poly = decompose_in_one(word(1, 2))
    assert poly.degree() == 1
    assert poly.coefficient(1) == word(2)
    assert poly.coefficient(0) == _ws({(2,): Fraction(1, 2), (3,): -1,
                                       (2, 1): -1})


@given(st.lists(letters, min_size=1, max_size=4).map(tuple))
@settings(max_examples=20, deadline=None)
def test_decompose_substitutes_back(parts):
    poly = decompose_in_one(word(*parts))
    order = 30
    assert poly.substitute_one(order) == bracket_series(parts, order)
    for j in range(poly.degree() + 1):
        assert all(not w or w[0] > 1 for w in poly.coefficient(j).words())


def test_one_polynomial_json_round_trip():
    poly = decompose_in_one(word(1, 1, 2))
    doc = json.loads(json.dumps(poly.to_json()))
    assert OnePolynomial(map(_word_sum_from_json, doc["powers"])) == poly


# ---------------------------------------------------------------------------
# the integer representation against a reference model: a dict from words to
# nonzero Fractions, summed term by term

def _ref(terms):
    out = {}
    for w, c in terms:
        out[w] = out.get(w, Fraction(0)) + Fraction(c)
    return {w: c for w, c in out.items() if c}


def _ref_scaled(ref, c):
    return _ref((w, x * c) for w, x in ref.items())


def _ref_shuffle(u, v):
    """The quasi-shuffle of two single words by the recursion, in Fractions."""
    if not u or not v:
        return {u + v: Fraction(1)}
    a, b = u[0], v[0]
    single = [(a + b, Fraction(1)),
              *((j, lambda_coeff(a, b, j)) for j in range(1, a + 1)),
              *((j, lambda_coeff(b, a, j)) for j in range(1, b + 1))]
    inner = _ref_shuffle(u[1:], v[1:])
    return _ref([*(((a,) + w, c) for w, c in _ref_shuffle(u[1:], v).items()),
                 *(((b,) + w, c) for w, c in _ref_shuffle(u, v[1:]).items()),
                 *(((z,) + w, lam * c) for z, lam in single
                   for w, c in inner.items())])


def _agrees(s, ref):
    """s shows the reference's terms, and holds them as integer numerators
    in canonical order over one positive denominator, in lowest terms."""
    assert dict(s.terms()) == ref
    assert list(s.words()) == sorted(ref, key=canonical_key)
    assert all(type(c) is Fraction for _, c in s.terms())
    nums, den = list(s._nums.values()), s._den
    assert all(type(x) is int and x for x in nums)
    assert type(den) is int and den > 0 and gcd(den, *nums) == 1


# words of letters 1..2 up to length 2, the empty word among them
any_words = st.lists(st.integers(min_value=1, max_value=2),
                     max_size=2).map(tuple)
scalars = st.one_of(st.integers(min_value=-3, max_value=3),
                    st.fractions(min_value=-3, max_value=3, max_denominator=6))


@st.composite
def any_term_lists(draw):
    terms = draw(st.lists(st.tuples(any_words, few_coeffs), max_size=6))
    cancelled = draw(st.integers(min_value=0, max_value=len(terms)))
    return terms + [(w, -c) for w, c in terms[:cancelled]]


@given(any_term_lists(), any_term_lists())
@settings(max_examples=60, deadline=None)
def test_sums_match_the_reference(ta, tb):
    a, b = WordSum(ta), WordSum(tb)
    ra, rb = _ref(ta), _ref(tb)
    _agrees(a, ra)
    _agrees(a + b, _ref([*ra.items(), *rb.items()]))
    _agrees(a - b, _ref([*ra.items(), *_ref_scaled(rb, -1).items()]))
    _agrees(-a, _ref_scaled(ra, -1))
    _agrees(a - a, {})
    assert a - a == WordSum() and hash(a - a) == hash(WordSum())


@given(any_term_lists(), scalars)
@settings(max_examples=60, deadline=None)
def test_scale_matches_the_reference(terms, c):
    a = WordSum(terms)
    _agrees(a.scale(c), _ref_scaled(_ref(terms), c))
    _agrees(c * a, _ref_scaled(_ref(terms), c))
    assert a.scale(0) == WordSum()
    _agrees(a.scale(-1), _ref_scaled(_ref(terms), -1))


@given(any_term_lists(), any_term_lists())
@settings(max_examples=40, deadline=None)
def test_quasi_shuffle_matches_the_reference(ta, tb):
    ra, rb = _ref(ta), _ref(tb)
    want = _ref((w, x * y * c) for u, x in ra.items() for v, y in rb.items()
                for w, c in _ref_shuffle(u, v).items())
    _agrees(quasi_shuffle(WordSum(ta), WordSum(tb)), want)


@given(st.lists(letters, max_size=3).map(tuple),
       st.lists(letters, max_size=3).map(tuple))
@settings(max_examples=40, deadline=None)
def test_word_products_match_the_reference(u, v):
    _agrees(quasi_shuffle(word(*u), word(*v)), _ref_shuffle(u, v))


@given(any_term_lists(), scalars)
@settings(max_examples=60, deadline=None)
def test_normalized_matches_the_reference(terms, c):
    ref = _ref(terms)
    want = _ref_scaled(ref, 1 / ref[max(ref, key=canonical_key)]) if ref else {}
    _agrees(WordSum(terms).normalized(), want)
    if c:
        assert WordSum(terms).scale(c).normalized() == WordSum(want)


@given(st.lists(any_term_lists(), max_size=4))
@settings(max_examples=40, deadline=None)
def test_coefficient_rows_match_the_reference(term_lists):
    refs = [_ref(t) for t in term_lists]
    columns = sorted({w for r in refs for w in r}, key=canonical_key)
    want = []
    for r in refs:
        # each row is its vector times the lcm of its denominators
        den = lcm(*(c.denominator for c in r.values()))
        want.append([int(r.get(w, 0) * den) for w in columns])
    assert coefficient_rows(map(WordSum, term_lists)) == want


def test_equal_sums_are_equal_whatever_the_route():
    half = word(2).scale(Fraction(1, 2))
    routes = [
        WordSum({(2,): Fraction(2, 4)}),
        WordSum([((2,), Fraction(1, 4)), ((2,), Fraction(1, 4))]),
        word(2).scale(Fraction(1, 4)) + word(2).scale(Fraction(1, 4)),
        (word(2).scale(6) + word(3)).scale(Fraction(1, 12)) - word(3).scale(Fraction(1, 12)),
        quasi_shuffle(word(), word(2).scale(Fraction(3, 6))),
        -word(2).scale(Fraction(-2, 4)),
    ]
    for other in routes:
        assert other == half and hash(other) == hash(half)
    # the monic forms that de-duplicate the relation corpus
    a = word(2).scale(2) + word(3).scale(4)
    want = WordSum({(2,): Fraction(1, 2), (3,): 1})
    keys = {a.normalized(), a.scale(Fraction(-3, 7)).normalized(),
            (a + a).normalized(), want}
    assert keys == {want}


def test_word_layer_caches_are_bounded():
    for cache in (words.diamond, words._shuffle_words, words._decompose_word,
                  derivation._d_general_cached):
        info = cache.cache_info()
        assert info.maxsize is not None
        assert info.currsize <= info.maxsize


def test_evaluate_checks_the_order_and_trusts_its_words(monkeypatch):
    w = WordSum({(2, 1): 1, (3,): Fraction(1, 2), (): 3})
    with pytest.raises(ValueError, match="order must be at least 1"):
        evaluate(w, 0)
    checked = []

    def as_composition(parts):
        checked.append(tuple(parts))
        return tuple(parts)

    monkeypatch.setattr(brackets, "as_composition", as_composition)
    assert evaluate(w, 12) == (bracket_series((2, 1), 12)
                               + bracket_series((3,), 12).scale(Fraction(1, 2))
                               + QSeries.one(12).scale(3))
    assert checked == [(2, 1), (3,)]  # the two bracket_series calls only


def test_bracket_series_many_still_checks_its_compositions():
    with pytest.raises(ValueError, match="positive"):
        bracket_series_many([(2, 1), (2, 0)], 5)
    with pytest.raises(TypeError):
        bracket_series_many([(2, 1.5)], 5)
    with pytest.raises(ValueError, match="order must be at least 1"):
        bracket_series_many([(2,)], 0)
