import copy
import json
import pickle
import re
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbrackets import (CheckResult, Config, DimensionTable, ExactMatrix,
                       MzvValue, OnePolynomial, QSeries, Relation, WordSum,
                       ZImage, ZPolynomial, eta24, word)
from qbrackets.checks import Check, check_series_examples

rationals = st.fractions(min_value=-5, max_value=5)


@st.composite
def qseries(draw, order=6):
    """A series with coefficients in [-5, 5] over one common denominator."""
    den = draw(st.integers(1, 10**6))
    nums = draw(st.lists(st.integers(-5 * den, 5 * den), min_size=order + 1,
                         max_size=order + 1))
    return QSeries(order, tuple(nums), den)


def test_basic_accessors():
    s = QSeries(3, (4, 2, 0, -7), 2)
    assert s.coefficient(0) == 2
    assert s.coefficient(1) == 1
    assert s.coefficient(3) == Fraction(-7, 2)
    with pytest.raises(ValueError):
        s.coefficient(4)


def test_monomial_and_units():
    q2 = QSeries(5, (0, 0, 1, 0, 0, 0))
    assert q2.coefficient(2) == 1
    assert q2 * QSeries.one(5) == q2
    assert (q2 + QSeries.zero(5)) == q2


@given(qseries(), qseries(), qseries())
@settings(max_examples=30, deadline=None)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(qseries(), qseries())
@settings(max_examples=30, deadline=None)
def test_derivation_product_rule(a, b):
    lhs = (a * b).q_d_dq()
    rhs = a.q_d_dq() * b + a * b.q_d_dq()
    assert lhs == rhs


@given(qseries())
@settings(max_examples=30, deadline=None)
def test_json_round_trip(s):
    # the printed JSON carries every coefficient exactly
    doc = json.loads(json.dumps(s.to_json()))
    assert doc["order"] == s.order
    assert [Fraction(doc["constant"]), *map(Fraction, doc["coeffs"])] == \
        [s.coefficient(n) for n in range(s.order + 1)]


def test_truncate_and_agreement():
    s = QSeries(5, (1, 1, 2, 3, 4, 5))
    t = s.truncate(3)
    assert t.order == 3
    assert t == QSeries(3, (1, 1, 2, 3))
    assert t.truncate(3) is t
    with pytest.raises(ValueError):
        t.truncate(4)


def test_to_text():
    s = QSeries(4, (0, 2, -2, 0, 3), 2)
    assert s.to_text() == "q - q^2 + 3/2*q^4 + O(q^5)"
    assert QSeries.zero(2).to_text() == "0 + O(q^3)"


def test_eta24_ramanujan_tau():
    s = eta24(12)
    wanted = [1, -24, 252, -1472, 4830, -6048, -16744, 84480, -113643,
              -115920, 534612, -370944]
    assert [s.coefficient(n) for n in range(1, 13)] == wanted
    assert s.coefficient(0) == 0


def test_eta24_needs_positive_order():
    with pytest.raises(ValueError):
        eta24(0)


# -- the product by Kronecker substitution against the schoolbook product ------

def _schoolbook(a, b):
    n = min(a.order, b.order)
    return QSeries(n, tuple(sum(a.nums[i] * b.nums[k - i] for i in range(k + 1))
                            for k in range(n + 1)), a.den * b.den)


@st.composite
def wide_series(draw):
    """Orders 0-80, sparse or dense numerators up to 10^40 of either sign,
    or none at all, over a denominator."""
    order = draw(st.integers(0, 80))
    size = draw(st.sampled_from([1, 9, 10**6, 10**40]))
    entry = st.one_of(st.just(0), st.integers(-size, size))
    nums = draw(st.one_of(st.just([0] * (order + 1)),
                          st.lists(entry, min_size=order + 1,
                                   max_size=order + 1)))
    return QSeries(order, tuple(nums), draw(st.integers(1, 10**6)))


@given(wide_series(), wide_series())
@settings(max_examples=150, deadline=None)
def test_product_matches_schoolbook(a, b):
    # mixed orders truncate to the smaller; a zero operand gives zero
    assert a * b == _schoolbook(a, b)
    assert a * a == _schoolbook(a, a)


@pytest.mark.parametrize("n", [0, 1, 7, 64])
@pytest.mark.parametrize("m", [1, 255, 256, 2**64 - 1, 10**40])
def test_product_at_the_slot_width_edges(n, m):
    # every a_i = b_i = +-m: c_n = +-(n+1) m^2 is the bound the width is
    # taken from, and with alternating signs the top slot is negative
    for sa, sb in [(1, 1), (1, -1), (-1, -1)]:
        a = QSeries(n, (sa * m,) * (n + 1))
        b = QSeries(n, (sb * m,) * (n + 1))
        assert (a * b).nums[n] == sa * sb * (n + 1) * m * m
        assert a * b == _schoolbook(a, b)
        alt = QSeries(n, tuple((-1) ** i * m for i in range(n + 1)))
        assert alt * b == _schoolbook(alt, b)
        # one nonzero slot in each: a single monomial, or nothing past q^n
        for i, j in [(0, 0), (0, n), (n // 2, n - n // 2), (n, n)]:
            x = QSeries(n, tuple(sa * m if k == i else 0 for k in range(n + 1)))
            y = QSeries(n, tuple(sb * m if k == j else 0 for k in range(n + 1)))
            assert x * y == _schoolbook(x, y)
            assert (x * y).is_zero() == (i + j > n)


def test_eta24_is_shared_and_bounded():
    assert eta24.cache_info().maxsize is not None
    first = eta24(30)
    assert eta24(30) == first and eta24(30).nums == first.nums
    assert eta24(12) == first.truncate(12)
    for order in range(1, 40):
        eta24(order)
    assert eta24.cache_info().currsize <= eta24.cache_info().maxsize
    assert eta24(30) == first


# -- the integer representation against plain lists of Fractions ---------------

@st.composite
def series_with_reference(draw):
    s = draw(qseries(order=draw(st.integers(min_value=0, max_value=6))))
    return s, [s.coefficient(n) for n in range(s.order + 1)]


def assert_matches(s, ref):
    assert s.order == len(ref) - 1
    assert s.den > 0 and gcd(s.den, *s.nums) == 1
    assert [s.coefficient(n) for n in range(s.order + 1)] == ref
    assert list(s.coeffs) == ref[1:]
    doc = s.to_json()
    assert doc["constant"] == f"{ref[0].numerator}/{ref[0].denominator}"
    assert doc["coeffs"] == [f"{c.numerator}/{c.denominator}" for c in ref[1:]]
    assert s.is_zero() == (not any(ref))


@given(series_with_reference(), series_with_reference(),
       st.one_of(st.just(0), st.integers(-5, 5), rationals),
       st.data())
@settings(max_examples=60, deadline=None)
def test_matches_fraction_reference(a, b, c, data):
    (sa, ra), (sb, rb) = a, b
    n = min(sa.order, sb.order)
    assert_matches(sa, ra)
    assert_matches(sa + sb, [x + y for x, y in zip(ra, rb)])
    assert_matches(sa - sb, [x - y for x, y in zip(ra, rb)])
    assert_matches(-sa, [-x for x in ra])
    assert_matches(sa.scale(c), [x * c for x in ra])
    assert_matches(sa * sb, [sum(ra[i] * rb[k - i] for i in range(k + 1))
                             for k in range(n + 1)])
    assert_matches(sa.q_d_dq(), [k * x for k, x in enumerate(ra)])
    m = data.draw(st.integers(0, sa.order))
    assert_matches(sa.truncate(m), ra[:m + 1])
    k = data.draw(st.integers(0, n))
    assert (sa.truncate(k) == sb.truncate(k)) == (ra[:k + 1] == rb[:k + 1])
    # a difference past q^n changes the denominator but not the agreement
    bump = QSeries(n + 1, (0,) * (n + 1) + (1,), 7)
    assert (sa + bump).truncate(n) == sa.truncate(n)


def test_constructor_reduces_and_validates():
    s = QSeries(2, (2, -4, 6), 4)
    assert (s.nums, s.den) == ((1, -2, 3), 2)
    assert QSeries(1, (0, 0), 7) == QSeries.zero(1)
    with pytest.raises(ValueError):
        QSeries(2, (1, 2))
    with pytest.raises(ValueError):
        QSeries(1, (1, 2), 0)
    with pytest.raises(ValueError):
        QSeries(-1, ())


def test_a_list_of_numerators_is_stored_as_a_tuple():
    s = QSeries(2, [1, 2, 3])
    assert s.nums == (1, 2, 3) and isinstance(s.nums, tuple)
    assert hash(s) == hash(QSeries(2, (1, 2, 3)))


@pytest.mark.parametrize("c", [0.1, 0.5, "1/3"])
def test_scale_refuses_an_inexact_coefficient(c):
    with pytest.raises(TypeError, match="int or a Fraction"):
        QSeries.one(3).scale(c)


@pytest.mark.parametrize("other", [1, Fraction(1, 2), 0.5])
def test_adding_a_scalar_is_unsupported(other):
    s = QSeries.one(3)
    for op in (lambda: s + other, lambda: s - other,
               lambda: other + s, lambda: other - s):
        with pytest.raises(TypeError, match="unsupported operand"):
            op()


# Every value class of the package: the constructor arguments of one
# instance, those of an equal one, and whether its fields are hashable.
VALUES = [
    (QSeries, (2, (2, -4, 6), 4), (2, (1, -2, 3), 2), True),
    (Relation, (word(2, 1) - word(3), "leibniz", 40), None, True),
    (Config, (40, "json", 1000), None, True),
    (ExactMatrix, (((Fraction(1), Fraction(-2)),),), None, True),
    (DimensionTable, ("mda", "fil", {(2, 1): (1, "exact")}), None, False),
    (MzvValue, ((2,), Fraction(1, 2), Fraction(1, 10**12)), None, True),
    (ZImage, (2, {(2,): Fraction(1)}, Fraction(1), Fraction(0)), None, False),
    (ZPolynomial, (2, ((Fraction(1), Fraction(0)),)), None, True),
    (OnePolynomial, ((word(2), word(3, 1)),),
     ((word(2), word(3, 1), WordSum(), WordSum()),), True),
    (CheckResult, ("series-examples", True, "fine", 0.5), None, True),
    (Check, ("series-examples", "opening expansions", True,
             check_series_examples), None, True),
]


@pytest.mark.parametrize("cls, args, equal_args, hashable", VALUES,
                         ids=[v[0].__name__ for v in VALUES])
def test_value_semantics(cls, args, equal_args, hashable):
    value, equal = cls(*args), cls(*(equal_args or args))
    fields = cls.__slots__
    assert value == equal and not value != equal
    if hashable:
        assert hash(value) == hash(equal)
    else:
        with pytest.raises(TypeError):
            hash(value)
    # equal only to its own class: not to its field tuple, nor to a
    # subclass instance with the same fields
    assert value != tuple(getattr(value, name) for name in fields)
    twin = type("Twin", (cls,), {"__slots__": ()})(*args)
    assert value != twin and twin != value
    for name in (fields[0], "unknown"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert re.fullmatch(cls.__name__ + r"\(" + ", ".join(
        f"{name}=.+" for name in fields) + r"\)", repr(value))
    assert copy.copy(value) == value
    assert pickle.loads(pickle.dumps(value)) == value
