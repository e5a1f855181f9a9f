import hashlib
import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbrackets import (SPACES, TABLE_KINDS, DimensionTable, ExactMatrix,
                       IntEchelon, ModEchelon, Relation, WordSum,
                       bracket_series, bracket_series_many,
                       compositions_up_to, conjecture_series_expansion,
                       count_generators, dimension_table, generators,
                       graded_relation_counts, homogeneous_relation_search,
                       relation_in_span, relation_search)
from qbrackets import (Config, QSeries, ResourceCap, brackets, config, linalg,
                       modular)
from qbrackets.checks import RELATION_COUNTS_LOW

P = 2**31 - 1


def test_rank_golden():
    m = ExactMatrix.from_rows([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    assert m.rank() == 2
    assert ExactMatrix.from_rows([[Fraction(1, 2), Fraction(1, 3)],
                                  [Fraction(1, 4), Fraction(1, 5)]]).rank() == 2
    assert ExactMatrix.from_rows([[0, 0], [0, 0]]).rank() == 0


small_matrix = st.lists(
    st.lists(st.integers(min_value=-6, max_value=6), min_size=3, max_size=3),
    min_size=1, max_size=5)


@given(small_matrix, st.randoms(use_true_random=False))
@settings(max_examples=30, deadline=None)
def test_rank_invariant_under_row_moves(rows, rnd):
    base = ExactMatrix.from_rows(rows).rank()
    shuffled = list(rows)
    rnd.shuffle(shuffled)
    scaled = []
    for row in shuffled:
        factor = rnd.choice([1, 2, 3, -1, 5])
        scaled.append([c * factor for c in row])
    assert ExactMatrix.from_rows(scaled).rank() == base


@given(small_matrix)
@settings(max_examples=30, deadline=None)
def test_kernel_vectors_annihilate(rows):
    m = ExactMatrix.from_rows(rows)
    basis = m.kernel_basis()
    assert len(basis) == 3 - m.rank()
    for vec in basis:
        for row in rows:
            assert sum(Fraction(c) * x for c, x in zip(row, vec)) == 0


def test_int_echelon_matches_matrix_rank():
    rows = [[1, 2, 3], [2, 4, 6], [0, 1, 1], [1, 3, 4]]
    ech = IntEchelon()
    added = sum(ech.add(r) for r in rows)
    assert ech.rank == ExactMatrix.from_rows(rows).rank() == added == 2


def test_int_echelon_rejects_a_vector_of_another_width():
    # zipping against the stored rows once dropped the third entry and
    # called [1, 0, 1] dependent on [1, 0], which padded has rank 2
    ech = IntEchelon([[1, 0]])
    with pytest.raises(ValueError, match="expected 2 entries, got 3"):
        ech.add([1, 0, 1])
    with pytest.raises(ValueError, match="expected 2 entries, got 1"):
        ech.add([1])
    assert ech.rank == 1 and ech.add([0, 1])


def test_int_echelon_kernel_size_is_the_width():
    # once an IndexError from back-substitution past the stored rows
    with pytest.raises(ValueError, match="expected 2 entries, got 3"):
        IntEchelon([[0, 1]]).kernel_basis(3)
    assert IntEchelon([[0, 1]]).kernel_basis(2) == [(1, 0)]
    assert IntEchelon().kernel_basis(2) == [(1, 0), (0, 1)]
    # a kernel query on an empty echelon once recorded its size as the
    # width, so a first row or a later query of another width was refused
    ech = IntEchelon()
    assert ech.kernel_basis(2) == [(1, 0), (0, 1)]
    assert ech.add([1, 0, 1])
    assert ech.kernel_basis(3) == [(0, 1, 0), (-1, 0, 1)]
    with pytest.raises(ValueError, match="expected 3 entries, got 2"):
        ech.kernel_basis(2)
    ech = IntEchelon()
    assert ech.kernel_basis(2) == [(1, 0), (0, 1)]
    assert ech.kernel_basis(3) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]


def _reference_rref(rows, ncols):
    """Reduced row echelon form over Fraction by plain Gauss-Jordan:
    {pivot column: row with 1 at the pivot and 0 at every other pivot}."""
    m = [[Fraction(x) for x in row] for row in rows]
    cols = []
    for col in range(ncols):
        r = len(cols)
        i = next((i for i in range(r, len(m)) if m[i][col]), None)
        if i is None:
            continue
        m[r], m[i] = m[i], m[r]
        inv = 1 / m[r][col]
        m[r] = [x * inv for x in m[r]]
        for j in range(len(m)):
            if j != r and m[j][col]:
                f = m[j][col]
                m[j] = [x - f * y for x, y in zip(m[j], m[r])]
        cols.append(col)
    return dict(zip(cols, m))


def _reference_kernel(rows, ncols):
    pivots = _reference_rref(rows, ncols)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for p, row in pivots.items():
            vec[p] = -row[free]
        basis.append(tuple(vec))
    return basis


small_fraction = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@st.composite
def deficient_tall_matrix(draw):
    """Rows of (nrows x r) times (r x ncols) with r < ncols < nrows, so the
    rank is below the width and the matrix is taller than wide."""
    ncols = draw(st.integers(min_value=2, max_value=6))
    nrows = draw(st.integers(min_value=ncols + 1, max_value=ncols + 4))
    r = draw(st.integers(min_value=1, max_value=ncols - 1))
    left = draw(st.lists(st.lists(small_fraction, min_size=r, max_size=r),
                         min_size=nrows, max_size=nrows))
    right = draw(st.lists(st.lists(small_fraction, min_size=ncols,
                                   max_size=ncols), min_size=r, max_size=r))
    return [[sum((a * right[t][j] for t, a in enumerate(row)), Fraction(0))
             for j in range(ncols)] for row in left]


@given(deficient_tall_matrix())
@settings(max_examples=60, deadline=None)
def test_kernel_basis_equals_reduced_echelon_reference(rows):
    ncols = len(rows[0])
    m = ExactMatrix.from_rows(rows)
    basis = m.kernel_basis()
    reference = _reference_kernel(rows, ncols)
    assert len(basis) == len(reference) == ncols - m.rank() >= 1
    pivots = _reference_rref(rows, ncols)
    free = [j for j in range(ncols) if j not in pivots]
    for j, vec, monic in zip(free, basis, reference):
        assert tuple(Fraction(x, vec[j]) for x in vec) == monic
        assert gcd(*vec) == 1
        assert vec[j] > 0
        assert all(x == 0 for x in vec[j + 1:])


@given(deficient_tall_matrix())
@settings(max_examples=30, deadline=None)
def test_kernel_basis_entries_are_integers(rows):
    basis = ExactMatrix.from_rows(rows).kernel_basis()
    assert basis
    assert all(type(vec) is tuple for vec in basis)
    assert all(type(x) is int for vec in basis for x in vec)


def _mod_reference(rows):
    """Row echelon mod P on plain lists, in ModEchelon's step order (pivots
    ascending), each stored row reduced and normalised to a leading 1."""
    pivots = {}
    for row in rows:
        vec = [x % P for x in row]
        for c in sorted(pivots):
            a = vec[c]
            if a:
                vec = [(x - a * y) % P for x, y in zip(vec, pivots[c])]
        lead = next((j for j, x in enumerate(vec) if x), None)
        if lead is not None:
            inverse = pow(vec[lead], -1, P)
            pivots[lead] = [x * inverse % P for x in vec]
    return pivots


def _mod_echelon(rows, ncols):
    """(rank, stored rows unpacked) of a ModEchelon fed the rows in order."""
    ech = ModEchelon(ncols)
    for row in rows:
        ech.add(ech.pack(row))
    width = ech._width
    unpacked = {}
    for c, packed in ech._rows.items():
        raw = packed.to_bytes(ncols * width, "big")
        unpacked[c] = [int.from_bytes(raw[i:i + width], "big")
                       for i in range(0, len(raw), width)]
    return ech.rank, unpacked


# small entries, multiples of P and their neighbours
mod_entry = st.one_of(
    st.integers(min_value=-5, max_value=5),
    st.integers(min_value=-3, max_value=3).map(lambda m: m * P),
    st.integers(min_value=-3, max_value=3).map(lambda m: m * P + 1))


@given(st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.lists(st.lists(mod_entry, min_size=n, max_size=n),
                       min_size=1, max_size=6)))
@settings(max_examples=80, deadline=None)
def test_mod_rank_at_most_exact_rank(rows):
    ncols = len(rows[0])
    rank, stored = _mod_echelon(rows, ncols)
    assert stored == _mod_reference(rows)
    assert rank == len(stored) <= ExactMatrix.from_rows(rows).rank()


@given(st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.lists(st.lists(mod_entry, min_size=n, max_size=n),
                       min_size=1, max_size=6)))
@settings(max_examples=80, deadline=None)
def test_pivots_below_m_give_the_rank_of_the_first_m_columns(rows):
    ncols = len(rows[0])
    echelons = [ModEchelon(ncols) for _ in range(2)]
    for ech, ordered in zip(echelons, (rows, rows[::-1])):
        for row in ordered:
            ech.add(ech.pack(row))
    for m in range(ncols + 1):
        cut = [row[:m] for row in rows]
        assert (sum(p < m for p in echelons[0].pivots)
                == len(_mod_reference(cut)))
    assert set(echelons[0].pivots) == set(echelons[1].pivots)


def test_mod_rank_undershoot_is_never_exact(monkeypatch):
    # p * e_0 vanishes mod p: rank 1 where the exact rank is 2
    assert _mod_echelon([[P, 0], [0, 1]], 2)[0] == 1
    assert ExactMatrix.from_rows([[P, 0], [0, 1]]).rank() == 2

    # the same undershoot inside a table: (2,) -> p e_0, (3,) -> e_1,
    # (2,1) -> e_2; every cell holding (2,) is short, so it is a bound
    def packed_rows(comps, order):
        packer = ModEchelon(order)
        unit = {(2,): (0, P), (3,): (1, 1), (2, 1): (2, 1)}
        rows = {}
        for c in comps:
            row = [0] * order
            j, x = unit[c]
            row[j] = x
            rows[c] = packer.pack(row)
        return rows

    monkeypatch.setattr(linalg, "_packed_rows", packed_rows)
    table = dimension_table("mda", 3)
    assert table.cells[(2, 1)] == (1, "lower_bound")
    assert table.cells[(3, 1)] == (2, "lower_bound")
    assert table.cells[(3, 2)] == (3, "lower_bound")


def test_mod_slot_width_holds_the_worst_case(monkeypatch):
    """Stored row c is 1 at column c and P-1 right of it; the last vector is
    chosen so that its slot c is 1 mod P when pivot c is reached, so each of
    its six steps adds (P-1)^2 to every later slot.  Its last slot reaches
    (P-5) + 6 (P-1)^2 > 2^64: nine bytes hold it, eight do not."""
    n = 7
    rows = [[0] * c + [1] + [P - 1] * (n - 1 - c) for c in range(n - 1)]
    rows.append([(1 - c) % P for c in range(n)])
    reference = _mod_reference(rows)
    assert len(reference) == n
    width = linalg._mod_slot_bytes(n)
    assert width == 9
    assert _mod_echelon(rows, n) == (n, reference)

    monkeypatch.setattr(linalg, "_mod_slot_bytes", lambda ncols: width - 1)
    assert _mod_echelon(rows, n) != (n, reference)


class _ExactRank(IntEchelon):
    """IntEchelon behind ModEchelon's interface: the exact reference."""

    def __init__(self, ncols):
        super().__init__()

    def pack(self, vector):
        return vector

    @property
    def pivots(self):
        return self._rows.keys()


@pytest.mark.parametrize("space,max_weight",
                         [("mda", w) for w in range(2, 9)]
                         + [("md", w) for w in range(1, 8)])
def test_mod_rank_tables_equal_exact(monkeypatch, space, max_weight):
    for kind in ("fil", "gr"):
        table = dimension_table(space, max_weight, kind=kind)
        with monkeypatch.context() as patch:
            patch.setattr(linalg, "ModEchelon", _ExactRank)
            exact = dimension_table(space, max_weight, kind=kind)
        assert table == exact


def _numerator_rows(comps, order):
    """Rows packed from the brackets' series numerators, as the tables
    were built before they read the sweep."""
    series = bracket_series_many(comps, order)
    packer = ModEchelon(order)
    return {c: packer.pack(series[c].nums[1:]) for c in comps}


@pytest.mark.parametrize("space,max_weight", [("mda", 8), ("md", 7)])
def test_tables_read_the_sweep_and_leave_the_series_cache(
        monkeypatch, space, max_weight):
    # raw sigma rows are the numerator rows times a unit mod p, so every
    # table is the one the numerator rows give, and no series is cached
    cache = {(2, 1): bracket_series((2, 1), 10)}
    monkeypatch.setattr(brackets, "_SERIES_CACHE", cache)
    before = dict(cache)
    tables = {kind: dimension_table(space, max_weight, kind=kind)
              for kind in TABLE_KINDS}
    assert brackets._SERIES_CACHE is cache and cache == before
    monkeypatch.setattr(linalg, "_packed_rows", _numerator_rows)
    for kind, table in tables.items():
        assert table.to_csv() == dimension_table(
            space, max_weight, kind=kind).to_csv()


def test_dimension_table_checks_an_explicit_order():
    with pytest.raises(ValueError, match="cannot see a length-5 generator"):
        dimension_table("mda", 6, order=5)
    with pytest.warns(RuntimeWarning, match="the rank reached the order 21"):
        dimension_table("mda", 6, order=21)


# sha256 of to_csv() of the default tables, recorded when the default order
# was max(120, 2 x generators): 510 for mda 9 and 510 for md 8
DEFAULT_TABLE_CSV_SHA256 = {
    ("mda", 9, "fil"):
        "0cdf338801c707ef04807502e2da5f60ab22b509f4731648edf5dd9bf585cd6a",
    ("mda", 9, "gr"):
        "d5324cd48faf8ea1b2edc1ba9d79a42dce4b8969975b2070cc2a411962893140",
    ("md", 8, "fil"):
        "24af20518a6bbfdeb5b16b055d40602908f10e0352bacf80e4431f3778d3cad3",
    ("md", 8, "gr"):
        "5f1579b1736e0796d37409151da188de7910d7d32abba22fda666d59e1a3a723",
}


@pytest.mark.parametrize("space, max_weight, kind",
                         sorted(DEFAULT_TABLE_CSV_SHA256))
def test_default_order_gives_the_tables_of_the_generator_rule(
        space, max_weight, kind):
    csv = dimension_table(space, max_weight, kind=kind).to_csv()
    assert (hashlib.sha256(csv.encode()).hexdigest()
            == DEFAULT_TABLE_CSV_SHA256[(space, max_weight, kind)])


def test_predicted_top_cells():
    assert [linalg._predicted_top("mda", k) for k in range(8, 12)] == [
        73, 129, 229, 405]
    assert [linalg._predicted_top("md", k) for k in (6, 8)] == [51, 165]


def _record_orders(monkeypatch):
    """The orders at which linalg packs rows, in call order."""
    orders = []
    packed_rows = linalg._packed_rows

    def recording(comps, order):
        orders.append(order)
        return packed_rows(comps, order)

    monkeypatch.setattr(linalg, "_packed_rows", recording)
    return orders


def test_default_order_escalates_from_a_low_prediction(monkeypatch):
    gens = generators("md", 7)
    ceiling = linalg._series_order(None, gens, "test")
    assert ceiling == 254
    expected = {kind: dimension_table("md", 7, order=ceiling, kind=kind)
                for kind in linalg.TABLE_KINDS}
    monkeypatch.setattr(linalg, "_predicted_top", lambda space, k: 0)
    orders = _record_orders(monkeypatch)
    order, rows, walk = linalg._table_rows("md", 7, gens, None)
    # 16 is below the first coefficient of [1,...,1] of length 7, q^28
    assert orders[0] == 28
    assert len(orders) > 2
    assert max(orders) <= ceiling and order in orders
    assert rows == linalg._packed_rows(gens, order)
    assert 1 + walk[-1][0] == expected["fil"].value(7, 7)
    for kind, table in expected.items():
        assert dimension_table("md", 7, kind=kind) == table


def test_default_order_stops_at_the_ceiling(monkeypatch):
    gens = generators("mda", 7)
    monkeypatch.setattr(linalg, "_predicted_top", lambda space, k: 10**6)
    orders = _record_orders(monkeypatch)
    order, _, _ = linalg._table_rows("mda", 7, gens, None)
    assert orders == [order] == [linalg._series_order(None, gens, "test")]


@pytest.mark.parametrize("call, weight", [
    (lambda: dimension_table("md", 7), 7),
    (lambda: dimension_table("mda", 8, order=150), 8),
], ids=["dims md 7", "dims mda 8 order 150"])
def test_each_order_tried_is_packed_and_eliminated_once(monkeypatch, call,
                                                        weight):
    """With the prediction forced to 0 (so that md 7 escalates, see above),
    the orders tried are packed once each in strictly increasing order, the
    top weight is walked once per order tried, and the lower weights of a
    table only at the chosen order."""
    monkeypatch.setattr(linalg, "_predicted_top", lambda space, k: 0)
    orders = _record_orders(monkeypatch)
    walks = []
    walk = linalg._walk

    def recording(gens, rows, order, k):
        walks.append((order, k))
        return walk(gens, rows, order, k)

    monkeypatch.setattr(linalg, "_walk", recording)
    call()
    assert orders == sorted(set(orders))
    assert [order for order, k in walks if k == weight] == orders
    assert {order for order, k in walks if k < weight} <= {orders[-1]}


@pytest.mark.parametrize("call, message", [
    (lambda: homogeneous_relation_search(2, 3, order=-1),
     "order must be at least 1"),
    (lambda: homogeneous_relation_search(0, 0), "weight and length >= 1"),
    (lambda: homogeneous_relation_search(3, 0), "weight and length >= 1"),
    (lambda: dimension_table("mda", 0, order=-1), "order must be at least 1"),
    (lambda: relation_search("mda", 1, 1, order=0), "order must be at least 1"),
], ids=["homogeneous-empty-order", "homogeneous-zero", "homogeneous-length-0",
        "table-empty-order", "search-empty-order"])
def test_searches_reject_bad_input_before_looking_for_generators(call,
                                                                 message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("call", [
    lambda: homogeneous_relation_search(12, 6),
    lambda: relation_search("md", 12, 12),
], ids=["homogeneous 12 6", "search md 12 12"])
def test_searches_refuse_more_generators_than_cells_before_listing(
        monkeypatch, call):
    # 462 and 4095 generators, each at least one cell of its sweep
    def listing(*args, **kwargs):
        raise AssertionError("generators were listed")

    monkeypatch.setattr(config, "_ACTIVE", Config(max_cells=100))
    monkeypatch.setattr(linalg, "compositions", listing)
    monkeypatch.setattr(linalg, "compositions_up_to", listing)
    with pytest.raises(ResourceCap, match="exceed the cap of 100"):
        call()


def test_generators_listing():
    gens = generators("mda", 4, 2)
    assert gens == [(2,), (3,), (2, 1), (4,), (2, 2), (3, 1)]
    assert generators("md", 2, None) == [(1,), (2,), (1, 1)]
    with pytest.raises(ValueError):
        generators("bogus", 3)


@pytest.mark.parametrize("space", SPACES)
def test_generators_are_the_compositions_of_the_space(space):
    # md is spanned by every bracket, mda by the admissible ones, whose
    # first part exceeds 1
    members = [c for c in compositions_up_to(6)
               if space == "md" or c[0] > 1]
    assert generators(space, 6) == members
    assert len(members) == (63 if space == "md" else 31)


def test_dimension_table_weight4_cells():
    table = dimension_table("mda", 4, order=60)
    assert table.value(4, 2) == 6
    assert table.value(4, 3) == 7
    assert dimension_table("md", 0).value(0, 0) == 1


def _row(table, k):
    """The cells (k, 0) .. (k, k) of one weight."""
    return [table.value(k, l) for l in range(k + 1)]


def test_dimension_table_small():
    table = dimension_table("mda", 4, order=60)
    assert table.value(4, 2) == 6
    assert _row(table, 3) == [1, 3, 4, 4]
    assert table.value(0, 0) == 1
    csv = table.to_csv()
    assert csv.splitlines()[0] == "space,kind,k,l,value,certainty"
    grid = table.to_text()
    assert grid.startswith("k\\l")


def test_graded_table_consistency():
    fil = dimension_table("mda", 4, order=60)
    gr = dimension_table("mda", 4, order=60, kind="gr")
    # graded cell = fil(k,l) - fil(k-1,l) - fil(k,l-1) + fil(k-1,l-1)
    got = gr.value(4, 2)
    wanted = (fil.value(4, 2) - fil.value(3, 2)
              - fil.value(4, 1) + fil.value(3, 1))
    assert got == wanted


def test_relation_search_weight4():
    rels = relation_search("mda", 4, 2, order=200)
    assert len(rels) == 1
    assert rels[0].status == "candidate"
    assert rels[0].body.coefficient((3, 1)) != 0


def test_relation_search_finds_nothing_at_weight3():
    assert relation_search("mda", 3, 3, order=120) == []


def test_relation_in_span():
    rels = relation_search("mda", 5, 3, order=200)
    assert rels
    doubled = rels[0].body.scale(Fraction(5, 2))
    assert relation_in_span(doubled, rels)
    assert not relation_in_span(homogeneous_relation_search(9, 3, 300)[0],
                                rels)


def test_graded_relation_counts_low_weights():
    got = graded_relation_counts(6)
    for cell, wanted in RELATION_COUNTS_LOW.items():
        assert got[cell] == wanted, cell


def test_graded_relation_counts_skip_a_zero_body():
    # a zero body projects onto no cell
    zero = Relation(WordSum(), "leibniz", 0)
    assert graded_relation_counts(4, relations=[zero]) == \
        graded_relation_counts(4, relations=[])


def test_graded_relation_counts_skip_a_constant_body():
    # the empty word has no first letter and lies in no (k, l) cell
    one = Relation(WordSum({(): 1}), "leibniz", 0)
    assert graded_relation_counts(3, relations=[one]) == \
        graded_relation_counts(3, relations=[])


def _counts_of(max_weight, *bodies):
    """graded_relation_counts of the bodies, only its nonzero cells."""
    relations = [Relation(WordSum(b), "leibniz", 0) for b in bodies]
    counts = graded_relation_counts(max_weight, relations=relations)
    return {cell: n for cell, n in counts.items() if n}


def test_graded_relation_counts_see_what_lies_below_a_shared_leading_part():
    # the difference [4] - [2,2] has no weight-5 part: it counts at (4, 2)
    assert _counts_of(5, {(3, 2): 1, (4,): 1}, {(3, 2): 1, (2, 2): 1}) == \
        {(5, 2): 1, (4, 2): 1}


def test_graded_relation_counts_eliminate_only_the_rows_chosen_mod_p(
        monkeypatch):
    # the repeated body is dropped mod p: one echelon, over two rows
    monkeypatch.setattr(_CountedEchelon, "built", [])
    monkeypatch.setattr(linalg, "IntEchelon", _CountedEchelon)
    body = {(3, 2): 1, (4,): 1}
    assert _counts_of(5, body, body, {(3, 2): 1, (2, 2): 1}) == \
        {(5, 2): 1, (4, 2): 1}
    assert _CountedEchelon.built == [2]


def test_graded_relation_counts_see_past_a_row_dropped_mod_p():
    # P [4] + [3] and [3] are one row mod P, so the second is dropped; it
    # refutes the kept row's kernel, and all rows count both cells
    assert _counts_of(4, {(4,): P, (3,): 1}, {(3,): 1}) == \
        {(3, 1): 1, (4, 1): 1}


def test_relation_in_span_sees_past_a_row_dropped_mod_p(monkeypatch):
    # the same two bodies: the dropped [3] refutes the kept row's kernel,
    # and the echelon of both rows puts [4] in the span
    monkeypatch.setattr(_CountedEchelon, "built", [])
    monkeypatch.setattr(linalg, "IntEchelon", _CountedEchelon)
    first, second = (Relation(WordSum(body), "leibniz", 0)
                     for body in ({(4,): P, (3,): 1}, {(3,): 1}))
    target = WordSum({(4,): 1})
    assert relation_in_span(target, [first, second])
    assert _CountedEchelon.built == [1, 2]
    assert not relation_in_span(target, [first])


def test_graded_relation_counts_see_a_cancelled_word_led_by_1():
    # each body leads with [1,3]; their difference [2,2] - [3] is admissible
    assert _counts_of(4, {(1, 3): 1, (2, 2): 1}, {(1, 3): 1, (3,): 1}) == \
        {(4, 2): 1}


def test_graded_relation_counts_close_every_cell_through_weight_7():
    # the corpus holds every relation through weight 7: each count is the
    # generators of the cell less its graded dimension
    gr = dimension_table("mda", 7, kind="gr")
    counts = graded_relation_counts(7)
    assert counts[(7, 3)] == 6
    for (k, l), n in counts.items():
        assert n == count_generators(k, l, admissible=True) - gr.value(k, l)


def test_conjectured_count_series():
    assert conjecture_series_expansion(16) == \
        [1, 0, 1, 2, 3, 6, 10, 18, 32, 56, 100, 176, 312, 552, 976, 1728,
         3056]
    totals = [sum(row) for _, row in sorted(DPRIME_ROWS.items())]
    assert conjecture_series_expansion(6) == totals


# graded dimensions of the admissible space, rows k = 0..6
DPRIME_ROWS = {
    0: (1,),
    1: (0, 0),
    2: (0, 1, 0),
    3: (0, 1, 1, 0),
    4: (0, 1, 1, 1, 0),
    5: (0, 1, 2, 2, 1, 0),
    6: (0, 1, 2, 3, 3, 1, 0),
}


def test_graded_mda_table_is_the_graded_dimensions():
    table = dimension_table("mda", 6, kind="gr")
    assert {k: tuple(_row(table, k)) for k in range(7)} == DPRIME_ROWS


@pytest.mark.parametrize("space, row4, row6", [
    ("mda", [1, 4, 6, 7, 7], [1, 6, 12, 18, 22, 23, 23]),
    ("md", [1, 5, 10, 14, 15], [1, 7, 18, 32, 44, 50, 51]),
], ids=["mda", "md"])
def test_fil_cells_are_sums_of_the_graded_cells(space, row4, row6):
    fil = dimension_table(space, 6)
    gr = dimension_table(space, 6, kind="gr")
    for (k, l) in fil.cells:
        assert fil.value(k, l) == sum(
            gr.value(kk, ll) for kk in range(k + 1)
            for ll in range(min(l, kk) + 1))
    assert _row(fil, 4) == row4
    assert _row(fil, 6) == row6


def test_md_graded_cells_are_mda_graded_cells_times_powers_of_one():
    # MD = MDa[[1]] with [1] of weight 1 and length 1: the graded piece
    # (k, l) of md is the sum over i of the mda pieces (k - i, l - i)
    md = dimension_table("md", 6, kind="gr")
    mda = dimension_table("mda", 6, kind="gr")
    for (k, l) in md.cells:
        assert md.value(k, l) == sum(mda.value(k - i, l - i)
                                     for i in range(l + 1))


@pytest.mark.parametrize("space", SPACES)
@pytest.mark.parametrize("kind", TABLE_KINDS)
def test_table_cells_are_integers_with_a_known_certainty(space, kind):
    table = dimension_table(space, 5, kind=kind)
    assert len(table.cells) == 21
    for cell in table.cells.values():
        assert type(cell[0]) is int
        assert cell[1] in ("exact", "lower_bound")
    for line in table.to_csv().splitlines()[1:]:
        _, _, k, l, value, certainty = line.split(",")
        assert table.cells[(int(k), int(l))] == (int(value), certainty)
    assert "?" not in table.to_text()


def test_table_without_cells_renders_its_header():
    table = DimensionTable("mda", "fil", {})
    assert table.to_csv() == "space,kind,k,l,value,certainty\n"
    assert table.to_text() == "k\\l\n"


def test_md_top_cells_sum_the_mda_top_cells():
    # MD = MDa[[1]]: the md cell (k, k) is the sum of the mda cells (j, j)
    # over j <= k, the identity _predicted_top relies on for md
    md, mda = dimension_table("md", 6), dimension_table("mda", 6)
    tops = [md.value(k, k) for k in range(7)]
    assert tops == [sum(mda.value(j, j) for j in range(k + 1))
                    for k in range(7)]
    assert tops == [1, 2, 4, 8, 15, 28, 51]


def test_relation_bodies_are_already_monic():
    # relation bodies are admitted in WordSum.normalized() form, so printing
    # rel.body equals printing the normalized body
    rels = [rel for args in [("mda", 4, 2), ("mda", 6, 6), ("mda", 7, 7),
                             ("md", 5, 3), ("md", 6, 4)]
            for rel in relation_search(*args)]
    rels += homogeneous_relation_search(9, 3, 300)
    assert len(rels) == 51
    for rel in rels:
        assert rel.body == rel.body.normalized()


def test_relation_bodies_do_not_depend_on_the_kernel_scale(monkeypatch):
    # the normal form is WordSum's to decide: kernel vectors scaled by any
    # nonzero integer give the same relations
    want = relation_search("mda", 6, 6)
    series_kernel = linalg._series_kernel

    def scaled(series):
        return [tuple(-3 * x for x in vec) for vec in series_kernel(series)]

    monkeypatch.setattr(linalg, "_series_kernel", scaled)
    got = relation_search("mda", 6, 6)
    assert len(got) == len(want) == 9
    assert [rel.body for rel in got] == [rel.body for rel in want]


def test_unknown_space_and_kind_are_named():
    with pytest.raises(ValueError, match=r"^unknown space 'xx'; expected one "
                       r"of \('md', 'mda'\)$"):
        generators("xx", 3)
    with pytest.raises(ValueError, match=r"^unknown space 'xx'; expected one "
                       r"of \('md', 'mda'\)$"):
        dimension_table("xx", 3)
    with pytest.raises(ValueError, match=r"^unknown table kind 'yy'; expected "
                       r"one of \('fil', 'gr'\)$"):
        dimension_table("MDA", 3, kind="yy")


# the Mersenne folds of ModEchelon at slot widths of 8, 9 and 10 bytes
WIDE = 1024  # the fewest columns whose slots need 10 bytes


def test_mod_slot_widths_of_the_fold_tests():
    widths = [linalg._mod_slot_bytes(n) for n in (1, 7, WIDE - 1, WIDE)]
    assert widths == [8, 9, 9, 10]


@pytest.mark.parametrize("ncols", [1, 7, WIDE])
def test_mod_reduce_takes_every_slot_mod_p(ncols):
    rnd = random.Random(ncols)
    ech = ModEchelon(ncols)
    bits = 8 * ech._width
    pool = [0, 1, P - 1, P, P + 1, 2**31, 2 * P, P * P, (P - 1)**2,
            2**bits - 1, 2**bits - P] + [rnd.randrange(2**bits)
                                         for _ in range(3)]
    for shift in range(len(pool)):  # each value in each of up to 14 slots
        slots = [pool[(shift + j) % len(pool)] for j in range(ncols)]
        vec = sum(x << (bits * (ncols - 1 - j)) for j, x in enumerate(slots))
        assert ech._reduce(vec) == ech.pack(slots)


def _fold_rows(ncols, count, seed):
    """Rows of the worst case in test_mod_slot_width_holds_the_worst_case,
    cut to count rows when ncols is large, then count rows of multiples of
    P, their neighbours and small entries."""
    rnd = random.Random(seed)
    worst = [[0] * c + [1] + [P - 1] * (ncols - 1 - c)
             for c in range(ncols - 1)][:count]
    worst.append([(1 - c) % P for c in range(ncols)])
    entries = [0, 1, -1, 2, P, -P, 3 * P, P - 1, P + 1, -P - 1, -P + 1]
    return worst + [[rnd.choice(entries) for _ in range(ncols)]
                    for _ in range(count)]


@pytest.mark.parametrize("ncols,count", [(1, 8), (7, 12), (WIDE, 4)])
def test_mod_folds_store_the_reference_rows(ncols, count):
    for seed in range(3):
        rows = _fold_rows(ncols, count, seed)
        reference = _mod_reference(rows)
        assert _mod_echelon(rows, ncols) == (len(reference), reference)


# _series_kernel: rows chosen mod p, confirmed on the dropped rows


def _full_kernel(series):
    """The kernel of every coefficient row, q^0 included: the elimination
    that _series_kernel falls back to."""
    common = lcm(*(s.den for s in series))
    rows = zip(*[[x * (common // s.den) for x in s.nums] for s in series])
    return IntEchelon(rows).kernel_basis(len(series))


class _CountedEchelon(IntEchelon):
    built = []

    def __init__(self, rows=()):
        rows = list(rows)
        self.built.append(len(rows))
        super().__init__(rows)


def test_series_kernel_reads_the_constant_row():
    n = 10
    assert linalg._series_kernel(
        [QSeries.one(n), bracket_series((2,), n)]) == []


def test_series_kernel_falls_back_when_a_dropped_row_refutes(monkeypatch):
    # the q^2 row (0, P) vanishes mod P and is dropped; the kept q^1 row
    # (1, 0) leaves the kernel vector (0, 1), which that row refutes
    monkeypatch.setattr(_CountedEchelon, "built", [])
    monkeypatch.setattr(linalg, "IntEchelon", _CountedEchelon)
    series = [QSeries(2, (0, 1, 0)), QSeries(2, (0, 0, P))]
    assert linalg._series_kernel(series) == []
    assert _CountedEchelon.built == [1, 3]

    # without the P the kept rows' kernel is confirmed: no second echelon
    _CountedEchelon.built.clear()
    series = [QSeries(2, (0, 1, 0)), QSeries(2, (0, 2, 0))]
    assert linalg._series_kernel(series) == [(-2, 1)]
    assert _CountedEchelon.built == [1]


def test_series_kernel_falls_back_when_one_of_several_vectors_is_refuted(
        monkeypatch):
    # the kept q^1 row (1, 0, 0) leaves the kernel vectors e_2 and e_3; the
    # dropped q^2 row, 0 mod P, refutes only one of them
    monkeypatch.setattr(linalg, "IntEchelon", _CountedEchelon)
    for refuted in (1, 2):
        monkeypatch.setattr(_CountedEchelon, "built", [])
        series = [QSeries(2, (0, 1, 0))] + [
            QSeries(2, (0, 0, P if i == refuted else 0)) for i in (1, 2)]
        kept = [(0, 1, 0), (0, 0, 1)]
        assert linalg._series_kernel(series) == [kept[2 - refuted]]
        assert _CountedEchelon.built == [1, 3]


def _dot(vec, row):
    return sum(x * y for x, y in zip(vec, row))


@pytest.mark.parametrize("ncols", [1, 2, 3, 8, 9])
@pytest.mark.parametrize("top", [1, 2, 3, 255, 2**64 - 1])
def test_orthogonal_at_the_slot_width_edge(ncols, top):
    # every entry +-top: each dot product is a sum of ncols terms +-top^2,
    # up to the bound ncols top^2 the width is taken from
    rng = random.Random(ncols * top)
    for _ in range(40):
        vectors = [tuple(rng.choice((top, -top)) for _ in range(ncols))
                   for _ in range(rng.randint(1, 4))]
        rows = [[rng.choice((top, -top)) for _ in range(ncols)]
                for _ in range(rng.randint(1, 3))]
        want = all(_dot(vec, row) == 0 for vec in vectors for row in rows)
        assert linalg._orthogonal(vectors, rows) == want
    # all at the bound: the vectors' digits alternate between +- ncols top^2
    vectors = [tuple((-1) ** k * top for _ in range(ncols))
               for k in range(4)]
    assert not linalg._orthogonal(vectors, [[top] * ncols])
    assert not linalg._orthogonal(vectors, [[-top] * ncols])
    if ncols % 2 == 0:
        assert linalg._orthogonal(vectors, [[(-1) ** j * top
                                             for j in range(ncols)]])


@pytest.mark.parametrize("ncols", [2, 4, 8, 16])
def test_orthogonal_digits_never_cancel_each_other(ncols):
    # the row's dot products are d_0 = ncols, at the bound for entries of
    # size 1, and d_1 = -ncols / 2^j: the packed sum d_0 + d_1 2^w would be
    # zero for a slot of w = j bits, too narrow to hold d_0
    row = [1] * ncols
    for j in range(ncols.bit_length()):
        second = (-(ncols >> j),) + (0,) * (ncols - 1)
        assert not linalg._orthogonal([(1,) * ncols, second], [row])


def test_orthogonal_sees_a_refutation_in_any_one_digit():
    vectors = [(1, -1, 0), (3, 0, -2), (0, 5, 5)]
    assert linalg._orthogonal(vectors, [[0, 0, 0]])
    # each row is orthogonal to two of the vectors, not to the third
    for row in ([2, -3, 3], [1, 1, -1], [2, 2, 3]):
        assert sum(_dot(vec, row) != 0 for vec in vectors) == 1
        assert not linalg._orthogonal(vectors, [[0, 0, 0], row])
    assert linalg._orthogonal(vectors, [])
    assert linalg._orthogonal([], [[1, 2, 3]])


@pytest.mark.parametrize("space", SPACES)
def test_series_kernel_equals_full_elimination_in_relation_search(space):
    for k in range(1, 8):
        gens = generators(space, k, k)
        order = linalg._series_order(None, gens, "test")
        found = bracket_series_many(gens, order)
        series = [found[c] for c in gens]
        kernel = linalg._series_kernel(series)
        assert kernel == _full_kernel(series)
        assert all(gcd(*vec) == 1 for vec in kernel)


def test_series_kernel_equals_full_elimination_for_the_delta_systems(
        monkeypatch):
    systems = []

    def recorded(series):
        systems.append(series)
        return linalg._series_kernel(series)

    monkeypatch.setattr(modular, "_series_kernel", recorded)
    for a, b in modular.DELTA_PAIRS:
        modular.delta_representation(a, b)
    modular.deltal2_word_sum()
    assert len(systems) == 7
    for series in systems:
        kernel = linalg._series_kernel(series)
        assert kernel == _full_kernel(series) and len(kernel) == 1
