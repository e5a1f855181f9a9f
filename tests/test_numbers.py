from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbrackets import (bernoulli, compositions, compositions_up_to,
                       count_generators, eulerian_number, eulerian_polynomial,
                       lambda_coeff)
from qbrackets.numbers import canonical_key, eulerian_polynomial_recurrence


def test_bernoulli_golden():
    wanted = [Fraction(1), Fraction(-1, 2), Fraction(1, 6), Fraction(0),
              Fraction(-1, 30), Fraction(0), Fraction(1, 42), Fraction(0),
              Fraction(-1, 30), Fraction(0), Fraction(5, 66), Fraction(0),
              Fraction(-691, 2730)]
    assert [bernoulli(n) for n in range(13)] == wanted


def test_bernoulli_rejects_negative():
    with pytest.raises(ValueError):
        bernoulli(-1)


def test_eulerian_triangle():
    assert [eulerian_number(1, n) for n in range(2)] == [1, 0]
    assert [eulerian_number(3, n) for n in range(3)] == [1, 4, 1]
    assert [eulerian_number(4, n) for n in range(4)] == [1, 11, 11, 1]
    assert [eulerian_number(5, n) for n in range(5)] == [1, 26, 66, 26, 1]


@given(st.integers(min_value=1, max_value=9))
@settings(max_examples=9, deadline=None)
def test_eulerian_row_sums_to_factorial(s):
    import math
    assert sum(eulerian_number(s, n) for n in range(s)) == math.factorial(s)


def test_eulerian_polynomial_matches_recurrence():
    for s in range(12):
        assert eulerian_polynomial(s) == eulerian_polynomial_recurrence(s)


def test_lambda_coeff_bounds():
    assert lambda_coeff(2, 3, 1) == Fraction(-1, 240)
    with pytest.raises(ValueError):
        lambda_coeff(2, 3, 0)


def test_composition_counts():
    # 2^{k-1} compositions of weight k; the admissible ones start above 1
    for k in range(1, 9):
        all_k = [c for c in compositions_up_to(k) if sum(c) == k]
        assert len(all_k) == 2 ** (k - 1)
    admissible_6 = [c for c in compositions_up_to(6, admissible=True)
                    if sum(c) == 6]
    assert len(admissible_6) == 2 ** 4
    assert all(c[0] > 1 for c in admissible_6)


def test_compositions_fixed_weight_and_length():
    assert sorted(compositions(4, 2)) == [(1, 3), (2, 2), (3, 1)]
    assert list(compositions(3, 5)) == []
    assert list(compositions(0, 0)) == [()]


def test_canonical_enumeration_order():
    for admissible, first, last in ((False, (1,), (1,) * 10),
                                    (True, (2,), (2,) + (1,) * 8)):
        listed = list(compositions_up_to(10, admissible))
        assert listed == sorted(set(listed), key=canonical_key)
        assert listed[0] == first
        assert listed[-1] == last


def _filtered_products(k, admissible):
    """For l = 0, 1, ..., k + 1: the tuples of itertools.product(range(1,
    k + 1), repeat=l) with sum k and, when admissible, first part > 1, in
    the order product yields them.  A prefix with sum past k is dropped as
    soon as it appears, since the filter drops all of its extensions; the
    full product would be 14^14 tuples at k = l = 14."""
    prefixes = [()]
    for _ in range(k + 2):
        yield [t for t in prefixes
               if sum(t) == k and not (admissible and t and t[0] == 1)]
        prefixes = [t + (p,) for t in prefixes
                    for p in range(1, k - sum(t) + 1)]


def test_count_generators_matches_enumeration():
    for admissible in (False, True):
        for k in range(-1, 15):
            wanted = list(_filtered_products(k, admissible))
            for l in range(-1, 15):
                listed = list(compositions(k, l, admissible))
                assert listed == (wanted[l] if 0 <= l < len(wanted) else [])
                assert count_generators(k, l, admissible) == len(listed)


def test_eulerian_polynomial_cache_is_bounded():
    assert eulerian_polynomial.cache_info().maxsize is not None
