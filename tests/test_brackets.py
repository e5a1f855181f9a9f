import tracemalloc
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbrackets import (Composition, QSeries, ResourceCap, WordSum,
                       bracket_series, bracket_series_many,
                       bracket_series_oracle, bracket_series_oracle_many,
                       canonical_key, coefficient_growth_report,
                       compositions_up_to, d_general, d_len1, d_len2,
                       get_config, leibniz_relations, modified_qzeta, mzv,
                       mzv_oracle, multiple_divisor_sum, partition_counts,
                       partition_identity_check, set_config, word)
from qbrackets import brackets
from qbrackets.brackets import _SIGMA_CACHE, _sigma_lists, _slot_bytes
from qbrackets.checks import SERIES_EXAMPLES

small_compositions = st.lists(st.integers(min_value=1, max_value=4),
                              min_size=1, max_size=4).map(tuple)


def test_composition_validation():
    assert Composition([2, 1]).weight == 3
    assert Composition([2, 1]).length == 2
    assert Composition([2, 1]).admissible
    assert not Composition([1, 2]).admissible
    with pytest.raises(ValueError):
        Composition([0, 1])


def test_canonical_key_orders_by_weight_length_lex():
    words = [(3,), (1, 2), (2, 1), (1, 1, 1), (4,), (2,)]
    ordered = sorted(words, key=canonical_key)
    assert ordered == [(2,), (3,), (1, 2), (2, 1), (1, 1, 1), (4,)]


def test_single_divisor_sums():
    # sigma_0 counts divisors, sigma_1 adds them
    assert [multiple_divisor_sum((0,), n) for n in range(1, 9)] == \
        [1, 2, 2, 3, 2, 4, 2, 4]
    assert [multiple_divisor_sum((1,), n) for n in range(1, 9)] == \
        [1, 3, 4, 7, 6, 12, 8, 15]


def test_divisor_sum_rejects_non_integers():
    with pytest.raises(TypeError):
        multiple_divisor_sum((2.5,), 4)
    with pytest.raises(TypeError):
        multiple_divisor_sum((1,), 4.0)


def test_double_divisor_sum_by_hand():
    # n = 4 with u1 > u2 > 0: (u1,u2,v1,v2) = (2,1,1,2) and (3,1,1,1)
    assert multiple_divisor_sum((0, 0), 4) == 2
    assert multiple_divisor_sum((1, 0), 4) == 2   # v1 values 1 and 1
    assert multiple_divisor_sum((0, 1), 4) == 3   # v2 values 2 and 1
    assert multiple_divisor_sum((0, 0), 1) == 0


def test_printed_expansions():
    for parts, scale, first, coeffs in SERIES_EXAMPLES:
        s = bracket_series(parts, first + len(coeffs) - 1)
        for i, c in enumerate(coeffs):
            assert s.coefficient(first + i) == scale * c


def test_first_coefficient_position():
    # the earliest power with a nonzero coefficient is l(l+1)/2
    for parts in [(1, 1), (2, 1, 1), (1, 1, 1, 1)]:
        l = len(parts)
        s = bracket_series(parts, l * (l + 1) // 2 + 2)
        first = next(n for n in range(1, s.order + 1) if s.coefficient(n))
        assert first == l * (l + 1) // 2


@given(small_compositions)
@settings(max_examples=25, deadline=None)
def test_oracle_agreement(parts):
    assert bracket_series(parts, 30) == bracket_series_oracle(parts, 30)


def test_batched_variants_match_single():
    comps = [c for c in compositions_up_to(4) if c]
    fast = bracket_series_many(comps, 25)
    slow = bracket_series_oracle_many(comps, 25)
    for c in comps:
        single = bracket_series(c, 25)
        assert fast[c] == single
        assert slow[c] == single


def test_oracle_agreement_at_high_order(monkeypatch):
    # shared suffixes ((1,), (1, 1), (2, 1, 1), (3,)) under mixed first
    # parts, at an order where a packed slot spans several bytes
    monkeypatch.setattr(brackets, "_SIGMA_CACHE", {})
    comps = [(1, 1), (2, 1, 1), (3, 1, 1), (1, 2, 1, 1), (4, 2, 1, 1),
             (3, 2, 2, 1, 1), (5, 3), (2, 3), (1, 1, 3), (6,)]
    order = 200
    assert _slot_bytes(comps, order) >= 8
    fast = bracket_series_many(comps, order)
    slow = bracket_series_oracle_many(comps, order)
    for c in comps:
        assert fast[c] == slow[c], c


@given(st.sampled_from([c for c in compositions_up_to(8) if 0 < len(c) <= 5]),
       st.integers(min_value=1, max_value=60))
@settings(max_examples=40, deadline=None)
def test_slot_width_bound(comp, order):
    k, l = sum(comp), len(comp)
    slot_bits = 8 * _slot_bytes([comp[i:] for i in range(l)], order)
    p = partition_counts(order)
    row = _sigma_lists([comp], order)[comp]
    assert len(row) == order + 1 and row[0] == 0
    for m in range(1, order + 1):
        assert row[m].bit_length() < slot_bits
        assert row[m] <= m ** (k - l) * p[m]
    for m in {1, order // 2 or 1, order}:
        assert row[m] == multiple_divisor_sum([s - 1 for s in comp], m)


def test_sweep_memory_is_one_row_per_node(monkeypatch):
    # tracemalloc peak of a cold (4, 4, 4) at order 400: 20.9 MB with the
    # earlier list-of-lists suffix recursion, 0.10 MB with the packed sweep
    monkeypatch.setattr(brackets, "_SIGMA_CACHE", {})
    bracket_series((2,), 5)  # first-call work outside the measured span
    tracemalloc.start()
    try:
        bracket_series((4, 4, 4), 400)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


def test_series_cache_not_mutated_by_larger_order():
    a = bracket_series((2, 1), 10)
    bracket_series((2, 1), 40)
    assert bracket_series((2, 1), 10) == a


def test_cache_keeps_a_suffix_row_of_higher_order(monkeypatch):
    # the sweep stores every suffix node it computes; a lower-order batch
    # must not replace a longer cached row
    monkeypatch.setattr(brackets, "_SIGMA_CACHE", {})
    longer = bracket_series((2, 1), 40)
    bracket_series((3, 2, 1), 10)
    assert brackets._SIGMA_CACHE[(2, 1)][0] == 40
    assert brackets._SIGMA_CACHE[(1,)][0] == 40
    assert bracket_series((2, 1), 40) == longer


@pytest.fixture
def cap_cells(monkeypatch):
    """A cold sweep cache, and a setter for the active config's max_cells."""
    monkeypatch.setattr(brackets, "_SIGMA_CACHE", {})
    before = get_config()
    yield lambda n: set_config(replace(before, max_cells=n))
    set_config(before)


def test_sweep_cap_counts_suffix_rows_times_order(cap_cells):
    # suffix rows (3, 2, 1), (2, 1), (1,) at order 40: 120 cells
    comps, order = [(2, 1), (3, 2, 1)], 40
    cap_cells(119)
    with pytest.raises(ResourceCap, match="3 suffix rows x order 40 = 120 "
                                          "coefficient cells exceed"):
        bracket_series_many(comps, order)
    assert brackets._SIGMA_CACHE == {}
    slow = bracket_series_oracle_many(comps, order)  # the oracle is not capped
    cap_cells(120)
    assert bracket_series_many(comps, order) == slow


def test_sweep_cap_never_counts_cached_rows(cap_cells):
    comps = [(2, 1), (3, 2, 1)]
    warm = bracket_series_many(comps, 40)
    cap_cells(1)
    assert bracket_series_many(comps, 40) == warm
    assert bracket_series((1,), 30) == bracket_series_oracle((1,), 30)
    with pytest.raises(ResourceCap):
        bracket_series_many(comps, 41)


def test_partition_counts_golden():
    assert partition_counts(10) == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    assert partition_identity_check(30)


def test_bracket_series_rejects_bad_input():
    with pytest.raises(ValueError):
        bracket_series((0, 2), 10)
    with pytest.raises(ValueError):
        bracket_series((2,), -1)


SERIES_ENTRY_POINTS = {
    "bracket_series": bracket_series,
    "bracket_series_oracle": bracket_series_oracle,
    "bracket_series_many": lambda c, n: bracket_series_many([c], n)[tuple(c)],
    "bracket_series_oracle_many":
        lambda c, n: bracket_series_oracle_many([c], n)[tuple(c)],
}

# every other function that takes a composition; d_len1 and d_len2 take
# the pair (s1, s2), padded here with a valid 2
COMPOSITION_ENTRY_POINTS = {
    **SERIES_ENTRY_POINTS,
    "Composition": lambda c, n: Composition(c),
    "WordSum.of": lambda c, n: WordSum.of(c),
    "word": lambda c, n: word(*c),
    "d_general": lambda c, n: d_general(c, 40),
    "d_len1": lambda c, n: d_len1(*(tuple(c) + (2,))[:2], 40),
    "d_len2": lambda c, n: d_len2(*(tuple(c) + (2,))[:2], 40),
    "leibniz_relations": lambda c, n: leibniz_relations(c, (2,), 40),
    "mzv": lambda c, n: mzv(c),
    "mzv_oracle": mzv_oracle,
    "modified_qzeta": modified_qzeta,
    "coefficient_growth_report": coefficient_growth_report,
}

BAD_INPUT = [
    ((0,), 5, ValueError, "composition parts must be positive"),
    ((2, 0, 1), 5, ValueError, "composition parts must be positive"),
    ((-1,), 5, ValueError, "composition parts must be positive"),
    ((2,), 0, ValueError, "order must be at least 1"),
    ((2,), -3, ValueError, "order must be at least 1"),
    ((), 0, ValueError, "order must be at least 1"),
    ((2.0,), 5, TypeError, "integer"),
    ((3, 1.5), 5, TypeError, "integer"),
]
BAD_COMPOSITION_ROWS = (0, 6, 7)    # (0,), (2.0,) and (3, 1.5)


def _bad_input_cases():
    """Every row for the series functions; the bad compositions also for
    every other entry point."""
    for i, (comp, order, error, message) in enumerate(BAD_INPUT):
        names = (COMPOSITION_ENTRY_POINTS if i in BAD_COMPOSITION_ROWS
                 else SERIES_ENTRY_POINTS)
        for name in names:
            yield pytest.param(
                name, comp, order, error, message,
                id=f"comp{i}-{order}-{error.__name__}-{message}-{name}")


@pytest.mark.parametrize("name, comp, order, error, message",
                         _bad_input_cases())
def test_series_entry_points_validate_input(name, comp, order, error, message):
    with pytest.raises(error, match=message):
        COMPOSITION_ENTRY_POINTS[name](comp, order)
    # nothing computed from the bad input reaches the exact cache
    assert all(type(p) is int and p >= 1 for c in _SIGMA_CACHE for p in c)
    assert all(type(x) is int for _, row in _SIGMA_CACHE.values() for x in row)


@pytest.mark.parametrize("name", SERIES_ENTRY_POINTS)
def test_series_entry_points_accept_the_empty_bracket(name):
    assert SERIES_ENTRY_POINTS[name]((), 4) == QSeries.one(4)
