"""Linear algebra over the rationals for bracket spaces.

Dimension questions reduce to ranks: each generator contributes the row of
its q-expansion coefficients, independent rows prove independent elements,
and kernel vectors of the transposed matrix are candidate linear relations.

Every exact question about a span is asked of one kernel, _kernel.  Its
vectors for a matrix of series (_series_kernel) are the candidate relations
here and the discriminant representations in modular; a vector lies in the
row space over Q iff it is orthogonal to the kernel (relation_in_span); the
rank is the column count less the kernel size; the pivots are the columns
that are not free (graded_relation_counts).  _kernel eliminates with
IntEchelon, fraction-free over the integers, to primitive integer vectors,
only the rows that a ModEchelon keeps, independent mod p and so over Q:
their kernel contains the true one and is it, with the same reduced echelon
basis up to positive scale, when each basis vector is orthogonal to every
dropped row in exact integers (_orthogonal).  Otherwise all rows are
eliminated.  The dimension tables need ranks only, and take them mod the
prime 2^31 - 1 with ModEchelon, over rows packed into one integer each.  A
rank mod p is at most the rank over Q, so a table cell is a lower bound by
construction, and every cell says whether it is exact (all of its
generators independent) or a bound.  A table's default order starts a
little above the top cell the dimension conjecture predicts and grows until
the rank stops growing with it (_table_rows); the conjecture only picks the
order, so it never affects what a cell claims.

Pivot lemma: the stored rows of an echelon have distinct leading columns
with zeros before them, and row operations act on every column alike, so
the rank of the rows added, cut to their first m columns, is the number of
pivots below m; the pivot set does not depend on the order of the rows.
_table_rows and graded_relation_counts read their answers off pivots.
"""

from __future__ import annotations

import warnings
from fractions import Fraction
from itertools import accumulate
from math import ceil, gcd, lcm
from operator import mul
from typing import Dict, Iterable, KeysView, List, Mapping, Sequence, Tuple

from ._value import Value
from .brackets import _sigma_lists, bracket_series_many
from .config import ResourceCap, get_config
from .derivation import Relation, proven_relation_corpus
from .numbers import (as_order, compositions, compositions_up_to,
                      count_generators)
from .series import QSeries
from .words import WordSum, coefficient_rows

Cell = Tuple[int, int]
Parts = Tuple[int, ...]
Walk = List[Tuple[int, int]]

SPACES = ("md", "mda")
TABLE_KINDS = ("fil", "gr")


def _require(what: str, value: str, choices: Tuple[str, ...]) -> str:
    """value in lower case; ValueError naming what unless it is a choice."""
    name = value.lower()
    if name not in choices:
        raise ValueError(f"unknown {what} {value!r}; expected one of {choices}")
    return name


# ---------------------------------------------------------------------------
# matrices


def _cleared_row(row: Sequence[Fraction | int]) -> List[int]:
    den = lcm(*(x.denominator for x in row))
    return [x.numerator * (den // x.denominator) for x in row]


def _kernel(rows: Iterable[Sequence[int]],
            ncols: int) -> List[Tuple[int, ...]]:
    """The IntEchelon kernel_basis of the integer rows, each of ncols
    entries, computed on the rows a ModEchelon keeps (module docstring)."""
    rows = list(rows)
    ech = ModEchelon(ncols)
    kept, dropped = [], []
    for row in rows:
        (kept if ech.add(ech.pack(row)) else dropped).append(row)
    basis = IntEchelon(kept).kernel_basis(ncols)
    if _orthogonal(basis, dropped):
        return basis
    return IntEchelon(rows).kernel_basis(ncols)


def _series_kernel(series: Sequence[QSeries]) -> List[Tuple[int, ...]]:
    """The _kernel of the matrix whose column i holds the q^0..q^order
    numerators of series i over the lcm of all the denominators: the x with
    sum_i x_i series_i zero through q^order, since each column is its series
    times one common integer."""
    common = lcm(*(s.den for s in series))
    rows = zip(*[[x * (common // s.den) for x in s.nums] for s in series])
    return _kernel(rows, len(series))


def _orthogonal(vectors: Sequence[Sequence[int]],
                rows: Sequence[Sequence[int]]) -> bool:
    """Whether every integer row is orthogonal to every integer vector.
    Vector k is digit k, base 2^w, of one integer per column, so a row takes
    one dot product; each true one is a digit below 2^(w-1) in size, so the
    packed sum is zero iff all of them are."""
    if not vectors or not rows:
        return True
    w = (max(abs(x) for vec in vectors for x in vec).bit_length()
         + max(abs(x) for row in rows for x in row).bit_length()
         + len(vectors[0]).bit_length() + 1)
    columns = [sum(x << (w * k) for k, x in enumerate(col))
               for col in zip(*vectors)]
    return not any(sum(map(mul, row, columns)) for row in rows)


class ExactMatrix(Value):
    """A dense matrix of Fractions with exact rank and kernel."""

    __slots__ = ("entries",)

    def __init__(self, entries: Tuple[Tuple[Fraction, ...], ...]) -> None:
        super().__init__(entries)

    @staticmethod
    def from_rows(rows: Iterable[Iterable[Fraction | int]]) -> "ExactMatrix":
        grid = tuple(tuple(Fraction(x) for x in row) for row in rows)
        if grid and any(len(row) != len(grid[0]) for row in grid):
            raise ValueError("rows must all have the same length")
        return ExactMatrix(grid)

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def rank(self) -> int:
        return IntEchelon(map(_cleared_row, self.entries)).rank

    def kernel_basis(self) -> List[Tuple[int, ...]]:
        """Basis of {x : Mx = 0}, one primitive integer vector per free column.

        Pivots are chosen at the earliest columns; each basis vector is the
        monic reduced echelon one times a positive integer: positive at its
        free column, its last nonzero entry, and 0 at the other free columns.
        """
        return IntEchelon(map(_cleared_row, self.entries)).kernel_basis(self.cols)


class IntEchelon:
    """Incremental integer row echelon, one primitive row per pivot column.

    IntEchelon(rows) starts by adding the given rows in order.  add()
    reduces a vector against the stored rows by cross-multiplication (no
    fractions ever appear) and either stores it as a new pivot row or
    reports it dependent.  Content is stripped only when a row is stored:
    stripping after every elimination step costs more gcds than the smaller
    entries save.  _kernel_vector() back-substitutes through the stored
    rows in integers, to a primitive vector.  The first row added fixes the
    width: a vector or kernel size of any other raises ValueError.
    """

    def __init__(self, rows: Iterable[Sequence[int]] = ()) -> None:
        self._rows: Dict[int, List[int]] = {}
        self._ncols: int | None = None
        for row in rows:
            self.add(row)

    def _check_width(self, n: int) -> None:
        if self._ncols not in (None, n):
            raise ValueError(f"expected {self._ncols} entries, got {n}")

    @property
    def rank(self) -> int:
        return len(self._rows)

    @staticmethod
    def _primitive(vec: List[int], lead: int) -> List[int]:
        g = 0
        for x in vec:
            g = gcd(g, x)
        if vec[lead] < 0:
            g = -g
        return [x // g for x in vec]

    def add(self, vector: Sequence[int]) -> bool:
        """Absorb the vector; True if it was independent of the rows so far."""
        vec = list(vector)
        self._check_width(len(vec))
        self._ncols = len(vec)
        while True:
            lead = next((j for j, x in enumerate(vec) if x), None)
            if lead is None:
                return False
            row = self._rows.get(lead)
            if row is None:
                self._rows[lead] = self._primitive(vec, lead)
                return True
            a, b = vec[lead], row[lead]
            g = gcd(a, b)
            fa, fb = b // g, a // g
            vec = [x * fa - y * fb for x, y in zip(vec, row)]

    def _kernel_vector(self, free: int, size: int) -> List[int]:
        """The primitive x of length size, positive at free, zero at every
        other column without a pivot, and orthogonal to every stored row.

        free must not be a pivot column.  Such an x is unique, a positive
        multiple of the kernel basis vector of reduced row echelon form; its
        last nonzero entry is the one at free.  x stays primitive from its
        start at 1: a step against the row r at pivot p, with s = r . x and
        g = gcd(s, r[p]), scales x by r[p] / g > 0 and sets x[p] = -s / g,
        and those two are coprime.
        """
        num = {free: 1}
        for p in sorted((p for p in self._rows if p < free), reverse=True):
            row = self._rows[p]
            s = sum(row[j] * x for j, x in num.items())
            if s:
                g = gcd(s, row[p])
                scale = row[p] // g
                if scale != 1:
                    for j in num:
                        num[j] *= scale
                num[p] = -s // g
        return [num.get(j, 0) for j in range(size)]

    def kernel_basis(self, size: int) -> List[Tuple[int, ...]]:
        """The _kernel_vector of every column below size without a pivot."""
        self._check_width(size)
        return [tuple(self._kernel_vector(free, size))
                for free in range(size) if free not in self._rows]


# the prime of ModEchelon: residues and reduction multipliers fit 31 bits
_PRIME = 2**31 - 1


def _mod_slot_bytes(ncols: int) -> int:
    """Bytes per slot of a ModEchelon row over ncols columns: the bit length
    of (ncols + 1) p^2, rounded up to whole bytes.

    A vector enters add() reduced, every slot below p.  A reduction step
    adds (p - a) times a stored row, with 1 <= p - a <= p - 1 and every slot
    of the stored row in [0, p - 1], so it adds at most (p - 1)^2 to each
    slot and never subtracts.  There is at most one step per stored row, and
    at most ncols rows are stored, so a slot never exceeds
    (p - 1) + ncols (p - 1)^2 < (ncols + 1) p^2 < 2^(8 * width).  No slot
    carries into its neighbour, and each slot of the packed sum is the exact
    integer sum of its column.
    """
    return (((ncols + 1) * _PRIME * _PRIME).bit_length() + 7) // 8


class ModEchelon:
    """Incremental row echelon mod the prime p = 2^31 - 1, for ranks only.

    pack() reduces a row of ncols integers mod p into one Python int, column
    j in slot ncols - 1 - j of _mod_slot_bytes(ncols) bytes, so column 0
    sits in the highest slot and a row with leading zeros is a smaller int.
    The packing depends only on ncols: rows packed once serve every echelon
    of that width.  add() walks the pivot columns in ascending order; at
    pivot c it reads a = slot c mod p and, if a != 0, adds (p - a) times the
    stored row, whose slot c is 1 and whose earlier slots are 0.  That is
    one big-integer multiply-add per step.  After the walk every slot is
    reduced at once (_reduce); the highest nonzero slot is the new lead, and
    the row is stored reduced mod p and normalised to a leading 1.

    _reduce folds every slot at once, as 2^31 = 1 mod p: a slot x at most
    B < 2^(8 width) becomes (x & p) + (x >> 31) <= p + (B >> 31), with no
    carry; the folds that bring 2^(8 width) - 1 to at most 2^31 are counted
    at construction.  A slot in [0, 2^31] then loses p when x + 1 has bit 31
    set (x = p or p + 1).  Walked slots are below 2^(8 width) by
    _mod_slot_bytes; reduced ones times an inverse are below p^2.

    The rank mod p is at most the rank over Q: a minor that vanishes over
    the integers vanishes mod p.  So 1 + rank is a lower bound for a
    dimension by construction, and full rank mod p proves full rank.
    Kernels need exact arithmetic and go through IntEchelon.
    """

    def __init__(self, ncols: int) -> None:
        self._ncols = ncols
        self._width = _mod_slot_bytes(ncols)
        self._rows: Dict[int, int] = {}
        bits = 8 * self._width
        self._one = ((1 << bits * ncols) - 1) // ((1 << bits) - 1)
        self._low = self._one * _PRIME
        self._high = self._one * ((1 << bits - 31) - 1)
        self._folds, bound = 0, (1 << bits) - 1
        while bound > 1 << 31:
            bound = _PRIME + (bound >> 31)
            self._folds += 1

    @property
    def rank(self) -> int:
        return len(self._rows)

    @property
    def pivots(self) -> KeysView[int]:
        return self._rows.keys()

    def pack(self, vector: Sequence[int]) -> int:
        """The vector reduced mod p, packed one slot per column."""
        if len(vector) != self._ncols:
            raise ValueError(
                f"expected {self._ncols} entries, got {len(vector)}")
        width = self._width
        return int.from_bytes(b"".join((x % _PRIME).to_bytes(width, "big")
                                       for x in vector), "big")

    def _reduce(self, vec: int) -> int:
        """Every slot of vec, each below 2^(8 width), reduced mod p."""
        one, low, high = self._one, self._low, self._high
        for _ in range(self._folds):
            vec = (vec & low) + ((vec >> 31) & high)
        return vec - (((vec + one) >> 31) & one) * _PRIME

    def add(self, packed: int) -> bool:
        """Absorb a vector made by pack(); True if it was independent mod p
        of the rows so far."""
        bits = 8 * self._width
        mask = (1 << bits) - 1
        top = (self._ncols - 1) * bits
        vec = packed
        for c in sorted(self._rows):
            a = ((vec >> (top - c * bits)) & mask) % _PRIME
            if a:
                vec += (_PRIME - a) * self._rows[c]
        vec = self._reduce(vec)
        if not vec:
            return False
        slot = (vec.bit_length() - 1) // bits
        inverse = pow((vec >> slot * bits) & mask, -1, _PRIME)
        self._rows[self._ncols - 1 - slot] = self._reduce(vec * inverse)
        return True


# ---------------------------------------------------------------------------
# generators and their coefficient rows


def _refuse_past_the_cap(counts: Iterable[int]) -> None:
    """Raise ResourceCap once the generator counts add up past max_cells,
    before any generator is listed.  Every generator is at least one prefix
    row of the sweep that expands it, at an order of at least 1, so the
    sweep would refuse them all the same, after the listing."""
    cap = get_config().max_cells
    for total in accumulate(counts):
        if total > cap:
            raise ResourceCap(f"at least {total} generators, one or more "
                              f"coefficient cells each, exceed the cap of "
                              f"{cap} (raise --max-cells)")


def generators(space: str, max_weight: int,
               max_length: int | None = None) -> List[Parts]:
    """Nonempty compositions spanning the (max_weight, max_length) piece,
    in canonical order; first part > 1 when the space is mda.  Raises
    ResourceCap, before listing any, when they outnumber max_cells."""
    admissible = _require("space", space, SPACES) == "mda"
    longest = max_weight if max_length is None else max_length
    _refuse_past_the_cap(count_generators(k, l, admissible)
                         for k in range(1, max_weight + 1)
                         for l in range(1, min(k, longest) + 1))
    return list(compositions_up_to(max_weight, admissible=admissible,
                                   max_length=max_length))


def _longest(columns: Sequence[Parts]) -> Tuple[int, int]:
    """(l, l(l+1)/2): the longest column's length, and the power of q of the
    first coefficient that a bracket of that length can have nonzero."""
    length = max(map(len, columns), default=0)
    return length, length * (length + 1) // 2


def _series_order(order: int | None, columns: Sequence[Parts],
                  caller: str) -> int:
    """The order for a column set.  The default is the larger of the
    configured order and twice the column count: relation search verifies
    its candidates at that depth, and the dimension tables never go past it
    (_table_rows).  An explicit order passes as_order and must reach the
    first coefficient of the longest column."""
    if order is None:
        return max(get_config().default_order, 2 * len(columns))
    order = as_order(order)
    max_length, least = _longest(columns)
    if order < least:
        raise ValueError(
            f"{caller}: order {order} cannot see a length-{max_length} "
            f"generator (first coefficient at q^{least})")
    return order


def _packed_rows(comps: Sequence[Parts], order: int) -> Dict[Parts, int]:
    """The multiple divisor sums sigma(1..order) of each composition, packed
    by ModEchelon(order) as the sweep hands it on; no series is built or
    cached.  Such a row is the bracket's row of numerators times a positive
    g dividing prod (s_i - 1)!, whose prime factors are all below 2^31 - 1,
    so it spans the same line mod p and every rank and pivot is unchanged.
    """
    packer = ModEchelon(order)
    return {c: packer.pack(row[1:]) for c, row in _sigma_lists(comps, order)}


def _predicted_top(space: str, k: int) -> int:
    """The top Fil cell (k, k) that the dimension conjecture predicts: for
    mda the expansion of conjecture_series_expansion summed through weight
    k, for md the sum of those mda cells over the weights j <= k (MD is
    MDa[[1]], and [1]^(k-j) lifts the weight-j part of MDa to weight k)."""
    mda = list(accumulate(conjecture_series_expansion(k)))
    return mda[k] if space == "mda" else sum(mda)


def _walk(gens: Sequence[Parts], rows: Mapping[Parts, int], order: int,
          k: int) -> Tuple[Walk, KeysView[int]]:
    """Add the rows of the generators of weight <= k, packed at this order,
    to one ModEchelon, length by length: (rank, generator count) after each
    length 0..k, and the echelon's pivots."""
    ech = ModEchelon(order)
    walk = [(0, 0)]
    for l in range(1, k + 1):
        layer = [c for c in gens if len(c) == l and sum(c) <= k]
        for c in layer:
            ech.add(rows[c])
        walk.append((ech.rank, walk[-1][1] + len(layer)))
    return walk, ech.pivots


def _table_rows(space: str, k: int, gens: Sequence[Parts],
                order: int | None) -> Tuple[int, Dict[Parts, int], Walk]:
    """The order for the weight-k generators gens of a table, their rows
    packed at that order, and the _walk of weight k over them.

    An explicit order is checked by _series_order and used as given.  The
    default starts a little above the predicted top cell d, at
    N = max(ceil(1.25 d) + 16, l(l+1)/2) for the longest generator length l,
    and stops when the rank at N equals the rank at floor(0.8 N), that is
    (pivot lemma) when the walk has no pivot at or past floor(0.8 N).
    Otherwise N grows by half, up to the ceiling _series_order(None, ...),
    where the test is skipped.  The conjecture only picks the orders tried:
    a rank mod p at any order is a lower bound, and all generators
    independent is a proof at any order.  Warns when the rank reaches the
    order, which more coefficients may raise.
    """
    caller = "dimension_table"
    if order is None:
        ceiling = _series_order(None, gens, caller)
        order = min(max(ceil(1.25 * _predicted_top(space, k)) + 16,
                        _longest(gens)[1]), ceiling)
    else:
        order = ceiling = _series_order(order, gens, caller)
    while True:
        rows = _packed_rows(gens, order)
        walk, pivots = _walk(gens, rows, order, k)
        if order == ceiling or max(pivots, default=-1) < 4 * order // 5:
            break
        order = min(ceil(1.5 * order), ceiling)
    if walk[-1][0] >= order:
        warnings.warn(
            f"{caller}: the rank reached the order {order}; the values are "
            f"limited by the coefficient count and may undershoot",
            RuntimeWarning, stacklevel=3)
    return order, rows, walk


# ---------------------------------------------------------------------------
# dimension tables


class DimensionTable(Value):
    """Values for the cells (k, l) of one dimension table.

    Every cell carries a certainty tag: exact or lower_bound.
    """

    __slots__ = ("space", "kind", "cells")

    def __init__(self, space: str, kind: str,
                 cells: Mapping[Cell, Tuple[int, str]]) -> None:
        super().__init__(space, kind, cells)

    def value(self, k: int, l: int) -> int:
        return self.cells[(k, l)][0]

    def certainty(self, k: int, l: int) -> str:
        return self.cells[(k, l)][1]

    def to_csv(self) -> str:
        lines = ["space,kind,k,l,value,certainty"]
        for (k, l) in sorted(self.cells):
            value, certainty = self.cells[(k, l)]
            lines.append(f"{self.space},{self.kind},{k},{l},{value},{certainty}")
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        """Grid with one row per weight; lower bounds are suffixed with '+'."""
        def shown(cell: Tuple[int, str]) -> str:
            value, certainty = cell
            return f"{value}+" if certainty == "lower_bound" else str(value)

        weights = sorted({k for k, _ in self.cells})
        max_l = max((l for _, l in self.cells), default=-1)
        header = ["k\\l"] + [str(l) for l in range(max_l + 1)]
        rows = [header]
        for k in weights:
            row = [str(k)]
            for l in range(max_l + 1):
                row.append(shown(self.cells[(k, l)]) if (k, l) in self.cells else "")
            rows.append(row)
        widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
        return "\n".join(
            "  ".join(col.rjust(w) for col, w in zip(r, widths)).rstrip()
            for r in rows) + "\n"


def dimension_table(space: str, max_weight: int, order: int | None = None,
                    kind: str = "fil") -> DimensionTable:
    """Dimension table computed from coefficient ranks mod p.

    Fil cell (k, l) is 1 + the rank mod p of the coefficient rows of the
    generators of weight <= k and length <= l, through q^order (see
    _table_rows for the default and the checks on an explicit order).
    Each is a lower bound by construction, and exact when all of its
    generators are independent mod p, which proves them independent over Q.
    The rows are packed once and shared by the _walk of every weight; the
    top weight's walk is the one that _table_rows chose the order with.
    gr cells are differences of Fil cells, so when any of the four inputs is
    itself a bound the tag stays lower_bound, meaning only "computed from
    bounds", not a bound in either direction.
    """
    space = _require("space", space, SPACES)
    kind = _require("table kind", kind, TABLE_KINDS)
    if max_weight < 0:
        raise ValueError("max_weight must be >= 0")
    all_gens = generators(space, max_weight)
    order, rows, top = _table_rows(space, max_weight, all_gens, order)

    fil: Dict[Cell, Tuple[int, str]] = {}
    for k in range(max_weight + 1):
        walk = top if k == max_weight else _walk(all_gens, rows, order, k)[0]
        for l, (rank, count) in enumerate(walk):
            fil[(k, l)] = (1 + rank, "exact" if rank == count else "lower_bound")
    if kind == "fil":
        return DimensionTable(space, "fil", fil)

    gr: Dict[Cell, Tuple[int, str]] = {}
    for (k, l), (value, certainty) in fil.items():
        parts = [(k, l, 1), (k - 1, l, -1), (k, l - 1, -1), (k - 1, l - 1, 1)]
        total = 0
        exact = True
        for kk, ll, sign in parts:
            if kk < 0 or ll < 0:
                continue
            cell = fil.get((kk, min(ll, kk)), (1, "exact"))
            total += sign * cell[0]
            exact = exact and cell[1] == "exact"
        gr[(k, l)] = (total, "exact" if exact else "lower_bound")
    return DimensionTable(space, "gr", gr)


# ---------------------------------------------------------------------------
# relation discovery


def _candidate_relations(columns: Sequence[Parts], order: int | None,
                         caller: str) -> List[Relation]:
    """Kernel relations among the columns through q^order (see
    _series_order); an explicit order below twice the column count warns,
    since a short matrix may leave spurious kernel vectors."""
    order = _series_order(order, columns, caller)
    if order < 2 * len(columns):
        warnings.warn(
            f"{caller}: order {order} is below the recommended "
            f"2 x {len(columns)} generators; the rank may undershoot",
            RuntimeWarning, stacklevel=3)
    series = bracket_series_many(columns, order)
    return [Relation.verified(WordSum(zip(columns, vec)).normalized(),
                              "numeric-kernel", order)
            for vec in _series_kernel([series[c] for c in columns])]


def relation_search(space: str, k: int, l: int,
                    order: int | None = None) -> List[Relation]:
    """Candidate relations among the generators of the (k, l) piece.

    Kernel vectors of the coefficient matrix, re-expressed over the
    generator list.  Each is exactly zero through q^order, which is strong
    evidence but not proof; the status stays candidate.
    """
    if k < 1 or l < 1:
        raise ValueError("relation_search needs weight and length >= 1")
    gens = generators(space, k, l)
    return _candidate_relations(gens, order, "relation_search")


def homogeneous_relation_search(k: int, l: int,
                                order: int | None = None) -> List[Relation]:
    """Candidate relations among the brackets of weight exactly k and length
    exactly l (all of them, not only those of the admissible space)."""
    if k < 1 or l < 1:
        raise ValueError("homogeneous_relation_search needs weight and length >= 1")
    _refuse_past_the_cap([count_generators(k, l)])
    columns = list(compositions(k, l))
    return _candidate_relations(columns, order,
                                "homogeneous_relation_search")


def relation_in_span(target: Relation | WordSum,
                     relations: Iterable[Relation | WordSum]) -> bool:
    """Is the target a rational combination of the given relations?"""
    def body(r: Relation | WordSum) -> WordSum:
        return r.body if isinstance(r, Relation) else r

    columns, (*rows, goal) = coefficient_rows(
        [*map(body, relations), body(target)])
    return _orthogonal(_kernel(rows, len(columns)), [goal])


def graded_relation_counts(max_weight: int,
                           relations: Iterable[Relation] | None = None
                           ) -> Dict[Cell, int]:
    """Independent relation counts per graded (k, l) piece of the admissible
    space, from the proven corpus by default (splits, Leibniz pairs, their
    products with brackets and their derivatives).

    The rows of the relations of weight <= max_weight have columns in cell
    order (coefficient_rows); their pivots are the columns that are not the
    free one, the last nonzero entry, of a _kernel vector.  Cell (k, l)
    counts the pivots on its words led by more than 1: by the pivot lemma,
    the dimension of the cell's admissible parts of the combinations that
    vanish on every higher cell and on the cell's words led by 1."""
    if relations is None:
        relations = proven_relation_corpus(max_weight)
    columns, rows = coefficient_rows(r.body for r in relations
                                     if r.weight <= max_weight)
    free = {max(j for j, x in enumerate(vec) if x)
            for vec in _kernel(rows, len(columns))}
    counts = {(k, l): 0 for k in range(2, max_weight + 1) for l in range(1, k)}
    for j, w in enumerate(columns):
        if j not in free and w and w[0] > 1:
            counts[(sum(w), len(w))] += 1
    return counts


# ---------------------------------------------------------------------------
# the dimension conjecture


def conjecture_series_expansion(max_k: int) -> List[int]:
    """Coefficients through x^max_k of (1 - x^2 + x^4) / (1 - 2x^2 - 2x^3)."""
    numerator = {0: 1, 2: -1, 4: 1}
    coeffs = []
    for n in range(max_k + 1):
        c = numerator.get(n, 0)
        if n >= 2:
            c += 2 * coeffs[n - 2]
        if n >= 3:
            c += 2 * coeffs[n - 3]
        coeffs.append(c)
    return coeffs

