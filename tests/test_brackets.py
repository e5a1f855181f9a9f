import tracemalloc
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbrackets import (Config, QSeries, ResourceCap, bracket_series,
                       bracket_series_many, bracket_series_oracle,
                       bracket_series_oracle_many, canonical_key,
                       compositions_up_to, d_general, d_len1, d_len2,
                       dimension_table, eta24, evaluate, generators,
                       get_config, leibniz_relations, mzv,
                       multiple_divisor_sum, partition_counts,
                       partition_identity_check, relation_search,
                       set_config, word)
from qbrackets import brackets, linalg
from qbrackets.brackets import (_SERIES_CACHE, _convolution_bound,
                                _sigma_lists, _slot_bytes)
from qbrackets.checks import SERIES_EXAMPLES

small_compositions = st.lists(st.integers(min_value=1, max_value=4),
                              min_size=1, max_size=4).map(tuple)


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
    # shared prefixes ((1,), (1, 1), (2,), (3,)) under mixed last parts,
    # at an order where a packed slot spans several bytes
    monkeypatch.setattr(brackets, "_SERIES_CACHE", {})
    comps = [(1, 1), (2, 1, 1), (3, 1, 1), (1, 2, 1, 1), (4, 2, 1, 1),
             (3, 2, 2, 1, 1), (5, 3), (2, 3), (1, 1, 3), (6,)]
    order = 200
    assert _slot_bytes(comps, order) >= 8
    fast = bracket_series_many(comps, order)
    slow = bracket_series_oracle_many(comps, order)
    for c in comps:
        assert fast[c] == slow[c], c


# prefixes in lexicographic order: (), (1,), (1, 1), (1, 1, 1), (1, 1, 1, 1),
# (1, 2), (2,), (2, 1), (2, 1, 3), (2, 2), (3,); the walk steps back from
# depth 4 to 2, from 3 to 2 and from 2 to 1, where a path indexed by depth
# must read the parent's rows, not the last ones it built
ORACLE_FAMILY = [(2, 1, 3), (2, 2), (3,), (), (2, 1), (1, 1, 1, 1), (1, 2)]


@pytest.mark.parametrize("order", [1, 2, 5, 40])
def test_oracle_steps_back_to_siblings(order):
    slow = bracket_series_oracle_many(ORACLE_FAMILY, order)
    assert set(slow) == set(ORACLE_FAMILY)
    assert slow[()] == QSeries.one(order)
    assert slow == bracket_series_many(ORACLE_FAMILY, order)


def test_oracle_keeps_only_the_path():
    # (2, j) share only their first part: the path holds the rows of (),
    # (2,) and one (2, j) at a time, so the working memory beyond the
    # returned series does not grow with the number of compositions
    def working_peak(count):
        comps = [(2, j) for j in range(1, count + 1)]
        tracemalloc.start()
        try:
            kept = bracket_series_oracle_many(comps, 60)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(kept) == count
        return peak - current

    working_peak(1)  # first-call work outside the measured spans
    assert working_peak(24) < 1.5 * working_peak(3)


def _sweep_matches_oracle(comps, order):
    rows = dict(_sigma_lists(comps, order))
    slow = bracket_series_oracle_many(comps, order)
    for c in comps:
        assert QSeries(order, tuple(rows[c]), brackets._denominator(c)) \
            == slow[c], (c, order)
    return rows


@pytest.mark.parametrize("comps", [
    [(2, 1), (3, 2, 1)],                  # prefixes and suffixes differ
    [(1, 2, 3), (1, 2, 4), (1, 5)],       # shared prefixes (1,), (1, 2)
])
def test_prefix_rows_match_oracle(comps):
    _sweep_matches_oracle(comps, 40)


def test_first_coefficient_at_the_order():
    # l(l+1)/2 = 21: the row of (1,)*6 starts at its last slot
    row = _sweep_matches_oracle([(1,) * 6], 21)[(1,) * 6]
    assert row == [0] * 21 + [1]


@pytest.mark.parametrize("order", [1, 2])
def test_tail_alone_at_the_lowest_orders(order):
    # no step of the line reaches a chain of two; the length-1 row is the
    # tail sum_{u > order/2} q^u plus, at order 2, the step u = 1
    rows = _sweep_matches_oracle([(3,), (2, 1), (1, 1, 1)], order)
    assert rows[(2, 1)] == rows[(1, 1, 1)] == [0] * (order + 1)
    assert rows[(3,)] == ([0, 1] if order == 1 else [0, 1, 5])


@given(st.lists(st.sampled_from([c for c in compositions_up_to(7) if c]),
                min_size=1, max_size=6, unique=True),
       st.integers(min_value=1, max_value=60))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_prefix_families_match_oracle(comps, order):
    _sweep_matches_oracle(comps, order)


def test_sweep_paths_at_every_order_to_40():
    # the line starts at order // 2 for odd and even orders, and a step
    # sums through _power_run once its run n >= 8 t[-1]: (1, 1) and (2, 1)
    # from order 10, (3, 2, 1) from 13, (3, 2) from 18, (1, 1, 4) from 37
    comps = [(1,), (2, 1), (3, 2, 1), (1, 1, 4), (5,)]
    for order in range(1, 41):
        rows = _sweep_matches_oracle(comps, order)
        for c in comps:
            r = [s - 1 for s in c]
            assert rows[c][order] == multiple_divisor_sum(r, order), (c, order)
            assert rows[c][order // 2 + 1] == \
                multiple_divisor_sum(r, order // 2 + 1), (c, order)


@pytest.mark.parametrize("letter", [12, 30])
def test_single_letter_sweep_at_order_300(letter):
    # a length-1 node with no longer node above it
    rows = _sweep_matches_oracle([(letter,)], 300)
    for m in (1, 149, 150, 151, 299, 300):
        assert rows[(letter,)][m] == multiple_divisor_sum([letter - 1], m)


@pytest.mark.parametrize("step", [1, 3])
def test_power_run_is_the_truncated_eulerian_series(step):
    # x P_{s-1}(x) / (1 - x)^s through x^n equals sum_{v<=n} v^(s-1) x^v,
    # with x the shift by step slots of a row of order n * step
    bits = 8 * 9          # 40^11 < 2^64
    for s in range(1, 13):
        for n in range(1, 41):
            order = n * step
            row = brackets._power_run(1 << order * bits, s, step * bits, n)
            got = row.to_bytes((order + 1) * bits // 8, "big")
            want = [0] * (order + 1)
            for v in range(1, n + 1):
                want[v * step] = v ** (s - 1)
            assert [int.from_bytes(got[i:i + bits // 8], "big")
                    for i in range(0, len(got), bits // 8)] == want, (s, n)


@given(st.sampled_from([c for c in compositions_up_to(8) if 0 < len(c) <= 5]),
       st.integers(min_value=1, max_value=60))
@settings(max_examples=40, deadline=None)
def test_slot_width_bound(comp, order):
    k, l = sum(comp), len(comp)
    slot_bits = 8 * _slot_bytes(_prefixes(comp), order)
    p = partition_counts(order)
    row = dict(_sigma_lists([comp], order))[comp]
    assert len(row) == order + 1 and row[0] == 0
    for m in range(1, order + 1):
        assert row[m].bit_length() < slot_bits
        assert row[m] <= m ** (k - l) * p[m]
    for m in {1, order // 2 or 1, order}:
        assert row[m] == multiple_divisor_sum([s - 1 for s in comp], m)


def _prefixes(*comps):
    """The nodes the sweep holds for comps."""
    return {c[:i] for c in comps for i in range(1, len(c) + 1)}


@lru_cache(maxsize=None)
def _p(n):
    return partition_counts(n)[n]


def _two_bound_bytes(nodes, order):
    """The slot width by the partition and composition bounds alone."""
    p = _p(order)
    return max(min(order ** (sum(t) - len(t)) * p,
                   order ** (sum(t) + len(t) - 1))
               for t in nodes).bit_length() // 8 + 1


def _three_bound_bytes(nodes, order):
    """The slot width by all three bounds, p(order) always computed."""
    p = _p(order)
    return max(min(order ** (sum(t) - len(t)) * p,
                   order ** (sum(t) + len(t) - 1),
                   _convolution_bound(t, order, order))
               for t in nodes).bit_length() // 8 + 1


@given(st.lists(st.integers(min_value=1, max_value=6),
                min_size=1, max_size=6).map(tuple),
       st.integers(min_value=1, max_value=80))
@settings(max_examples=60, deadline=None)
def test_convolution_bound(comp, order):
    # parts 1, 2 and 3..6 give r = 0, r = 1 and r >= 2
    nodes = _prefixes(comp)
    rows = dict(_sigma_lists(nodes, order))
    for t in nodes:
        bounds = [_convolution_bound(t, order, m)
                  for m in range(1, order + 1)]
        for m in range(1, order + 1):
            assert rows[t][m] <= bounds[m - 1], (t, m)
        assert all(a <= b for a, b in zip(bounds, bounds[1:])), t
    assert _slot_bytes(nodes, order) == _three_bound_bytes(nodes, order)
    assert _slot_bytes(nodes, order) <= _two_bound_bytes(nodes, order)


def test_slot_widths(monkeypatch):
    tens = [c for c in compositions_up_to(10) if len(c) == 5 and sum(c) == 10]
    assert len(tens) == 126
    ones = _prefixes(*((1,) * l for l in range(1, 20)))
    assert _slot_bytes(_prefixes((4, 4, 4)), 1000) == 12
    assert _slot_bytes(ones, 200) == 6
    cases = [(_prefixes((4, 4, 4)), 1000), (ones, 200)]
    cases += [(_prefixes(c), 600) for c in tens]
    cases += [(_prefixes((1,) * l), 200) for l in range(1, 20)]
    for nodes, order in cases:
        assert _slot_bytes(nodes, order) <= _two_bound_bytes(nodes, order)
    # as recorded with the composition bound: 12 bytes for the 25 with a
    # part of 5 or more, 11 for the other 101
    for c in tens:
        assert _slot_bytes(_prefixes(c), 600) == (12 if max(c) >= 5 else 11)

    # p(order) is computed only where the partition bound can set the width
    calls = []

    def counted(n_max):
        calls.append(n_max)
        return partition_counts(n_max)

    monkeypatch.setattr(brackets, "partition_counts", counted)
    for nodes, order, want in [(_prefixes((4, 4, 4)), 1000, []),
                               (_prefixes((2,)), 20000, []),
                               (ones, 200, [200])]:
        brackets._partition_count.cache_clear()
        calls.clear()
        _slot_bytes(nodes, order)
        assert calls == want, (order, calls)


@pytest.mark.parametrize("space, weight, order, width", [
    ("mda", 8, 108, 7), ("md", 6, 80, 5), ("mda", 7, 126, 7),
    ("mda", 10, 303, 11), ("md", 9, 384, 11)])
def test_generator_slot_widths(space, weight, order, width):
    # the widths of the dims and relations sweeps, recorded while the
    # composition bound m^(k+l-1) still took part; with the (4, 4, 4),
    # ones and weight-10 widths above, no benchmark sweep widens.  That
    # bound is below the other two only at single-part nodes [s]: by a byte
    # at most through s = 14 (at orders <= 15), by up to 4 through s = 100
    assert _slot_bytes(_prefixes(*generators(space, weight)), order) == width


# (warm-up, measured call, bound on the tracemalloc peak in bytes)
SWEEP_MEMORY_CASES = {
    # a cold (4, 4, 4) at order 400: 20.9 MB with the earlier list-of-lists
    # suffix recursion, 0.10 MB with the packed sweep
    "series": (lambda: bracket_series((2,), 5),
               lambda: bracket_series((4, 4, 4), 400), 2_000_000),
    # the 255 mda rows of weight <= 9 that dims packs at order 178, 0.45 MB
    # once packed: 2.4-2.5 MB when the sweep unpacked every row before the
    # first was packed, 0.75-0.78 MB with each row packed as it is handed on
    "packed rows": (lambda: linalg._packed_rows(generators("mda", 3), 10),
                    lambda: linalg._packed_rows(generators("mda", 9), 178),
                    1_500_000),
}


@pytest.mark.parametrize("case", SWEEP_MEMORY_CASES)
def test_sweep_memory_is_one_row_per_node(monkeypatch, case):
    warm, run, bound = SWEEP_MEMORY_CASES[case]
    monkeypatch.setattr(brackets, "_SERIES_CACHE", {})
    warm()  # first-call work outside the measured span
    tracemalloc.start()
    try:
        run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound


def test_series_cache_not_mutated_by_larger_order():
    a = bracket_series((2, 1), 10)
    bracket_series((2, 1), 40)
    assert bracket_series((2, 1), 10) == a


def test_cache_keeps_a_requested_series_of_higher_order(monkeypatch):
    # a lower-order batch sweeping (2, 1) as a prefix must not replace the
    # longer cached series, and a prefix nobody requested is not kept
    monkeypatch.setattr(brackets, "_SERIES_CACHE", {})
    longer = bracket_series((2, 1), 40)
    bracket_series((3, 2, 1), 10)
    bracket_series((2, 1, 3), 10)
    assert brackets._SERIES_CACHE[(2, 1)].order == 40
    assert not {(1,), (2,), (3, 2)} & set(brackets._SERIES_CACHE)
    assert bracket_series((2, 1), 40) == longer


@pytest.fixture
def cap_cells(monkeypatch):
    """A cold sweep cache, and a setter for the active config's max_cells."""
    monkeypatch.setattr(brackets, "_SERIES_CACHE", {})
    before = get_config()
    yield lambda n: set_config(Config(before.default_order,
                                      before.output_format, n))
    set_config(before)


def test_sweep_cap_counts_prefix_rows_times_order(cap_cells):
    # prefix rows (2,), (2, 1), (3,), (3, 2), (3, 2, 1) at order 40: 200
    # cells
    comps, order = [(2, 1), (3, 2, 1)], 40
    cap_cells(199)
    with pytest.raises(ResourceCap, match="5 prefix rows x order 40 = 200 "
                                          "coefficient cells exceed"):
        bracket_series_many(comps, order)
    assert brackets._SERIES_CACHE == {}
    slow = bracket_series_oracle_many(comps, order)  # the oracle is not capped
    cap_cells(200)
    assert bracket_series_many(comps, order) == slow


def test_sweep_cap_never_counts_cached_rows(cap_cells):
    comps = [(2, 1), (3, 2, 1)]
    warm = bracket_series_many(comps, 40)
    cap_cells(1)
    assert bracket_series_many(comps, 40) == warm
    assert bracket_series((2, 1), 30) == bracket_series_oracle((2, 1), 30)
    with pytest.raises(ResourceCap):
        bracket_series_many(comps, 41)


def test_cache_holds_only_the_requested_compositions(monkeypatch):
    # a cold batch of the mda generators sweeps every prefix of them, each
    # a generator itself, and keeps one series per generator
    monkeypatch.setattr(brackets, "_SERIES_CACHE", {})
    gens = generators("mda", 7)
    bracket_series_many(gens, 60)
    assert len(gens) == 63
    assert set(brackets._SERIES_CACHE) == set(gens)


def test_cache_hit_at_the_stored_order_is_the_stored_series(cap_cells):
    # a lower-order hit (checked against the oracle in
    # test_sweep_cap_never_counts_cached_rows) leaves the entry in place
    stored = bracket_series((3, 1, 2), 40)
    cap_cells(1)  # any sweep would now raise ResourceCap
    assert bracket_series((3, 1, 2), 40) is stored
    bracket_series((3, 1, 2), 25)
    assert brackets._SERIES_CACHE[(3, 1, 2)] is stored


def test_partition_counts_golden():
    assert partition_counts(10) == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    # p(100), p(200) and p(1000), as published (OEIS A000041)
    p = partition_counts(1000)
    assert p[100] == 190569292
    assert p[200] == 3972999029388
    assert p[1000] == 24061467864032622473692149727991
    assert partition_identity_check(30)


@pytest.mark.parametrize("back", [0, 1])
def test_partition_identity_check_rejects_a_wrong_count(monkeypatch, back):
    # p(order - back) off by one: the bracket sum no longer matches it
    def off_by_one(n_max):
        counts = partition_counts(n_max)
        counts[n_max - back] += 1
        return counts

    monkeypatch.setattr(brackets, "partition_counts", off_by_one)
    assert not partition_identity_check(30)


def test_partition_counts_rejects_a_negative_bound():
    assert partition_counts(0) == [1]
    with pytest.raises(ValueError):
        partition_counts(-1)


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
    "word": lambda c, n: word(*c),
    "d_general": lambda c, n: d_general(c, 40),
    "d_len1": lambda c, n: d_len1(*(tuple(c) + (2,))[:2], 40),
    "d_len2": lambda c, n: d_len2(*(tuple(c) + (2,))[:2], 40),
    "leibniz_relations": lambda c, n: leibniz_relations(c, (2,), 40),
    "leibniz_relations v": lambda c, n: leibniz_relations((2,), c, 40),
    "mzv": lambda c, n: mzv(c),
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
    assert all(type(p) is int and p >= 1 for c in _SERIES_CACHE for p in c)
    assert all(type(x) is int for s in _SERIES_CACHE.values() for x in s.nums)


# entry points that take a truncation order, each on small fixed inputs
ORDER_ENTRY_POINTS = {
    "bracket_series": lambda n: bracket_series((2, 1), n),
    "bracket_series_many": lambda n: bracket_series_many([(2, 1)], n),
    "bracket_series_oracle_many":
        lambda n: bracket_series_oracle_many([(2, 1)], n),
    "evaluate": lambda n: evaluate(word(2, 1), n),
    "partition_identity_check": partition_identity_check,
    "relation_search": lambda n: relation_search("mda", 3, 2, n),
    "dimension_table": lambda n: dimension_table("mda", 3, n),
}


@pytest.mark.parametrize("name", ORDER_ENTRY_POINTS)
def test_order_entry_points_check_the_order(monkeypatch, name):
    monkeypatch.setattr(brackets, "_SERIES_CACHE", {})
    call = ORDER_ENTRY_POINTS[name]
    for _ in range(2):      # on a cold cache, then with (2, 1) cached
        with pytest.raises(TypeError, match="integer"):
            call(20.0)
        with pytest.raises(ValueError, match="order must be at least 1"):
            call(0)
        call(20)
    assert all(s.order == 20 and type(s.order) is int
               for s in brackets._SERIES_CACHE.values())


def test_eta24_checks_the_order():
    eta24.cache_clear()
    for _ in range(2):      # on a cold cache, then with order 20 cached
        with pytest.raises(TypeError, match="integer"):
            eta24(20.0)
        with pytest.raises(ValueError, match="order must be at least 1"):
            eta24(0)
        eta24(20)


def test_a_bool_order_is_an_int():
    order = bracket_series((2,), True).order
    assert order == 1 and type(order) is int


@pytest.mark.parametrize("name", SERIES_ENTRY_POINTS)
def test_series_entry_points_accept_the_empty_bracket(name):
    assert SERIES_ENTRY_POINTS[name]((), 4) == QSeries.one(4)
