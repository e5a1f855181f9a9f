"""Linear algebra over the rationals for bracket spaces.

Dimension questions reduce to ranks: each generator contributes the row of
its q-expansion coefficients, independent rows prove independent elements,
and kernel vectors of the transposed matrix are candidate linear relations.

Kernels, unique solutions, span membership and ExactMatrix.rank are exact
and run on one elimination core, IntEchelon: rows are cleared of
denominators and reduced fraction-free over the integers; fractions appear
only in the final back-substitution.  The dimension tables need ranks only,
and take them mod the prime 2^31 - 1 with ModEchelon, over rows packed into
one integer each.  A rank mod p is at most the rank over Q, so a table cell
is a lower bound by construction, and every cell says whether it is exact
(all of its generators independent) or a bound.  A table's default order
starts a little above the top cell the dimension conjecture predicts and
grows until the rank stops growing with it (_table_rows); the conjecture
only picks the order, so it never affects what a cell claims.

Pivot lemma: the stored rows of an echelon have distinct leading columns
with zeros before them, and row operations act on every column alike, so
the rank of the rows added, cut to their first m columns, is the number of
pivots below m; the pivot set does not depend on the order of the rows.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import ceil, gcd, lcm
from typing import Dict, Iterable, KeysView, List, Mapping, Sequence, Tuple

from .brackets import bracket_series_many
from .config import ResourceCap, get_config
from .derivation import Relation, proven_relation_corpus
from .numbers import compositions, compositions_up_to, count_generators
from .series import QSeries
from .words import WordSum, coefficient_rows

Cell = Tuple[int, int]
Parts = Tuple[int, ...]
Walk = List[Tuple[int, int]]

SPACES = ("md", "mda")
TABLE_KINDS = ("fil", "gr")


def _require_space(space: str) -> str:
    name = space.lower()
    if name not in SPACES:
        raise ValueError(f"unknown space {space!r}; expected one of {SPACES}")
    return name


def _require_kind(kind: str) -> str:
    name = kind.lower()
    if name not in TABLE_KINDS:
        raise ValueError(f"unknown table kind {kind!r}; expected one of {TABLE_KINDS}")
    return name


# ---------------------------------------------------------------------------
# matrices


def _cleared_row(row: Sequence[Fraction | int]) -> List[int]:
    den = lcm(*(x.denominator for x in row))
    return [x.numerator * (den // x.denominator) for x in row]


def _common_numerators(series: Sequence[QSeries]) -> List[List[int]]:
    """The q^1..q^order numerators of each series over the lcm of their
    denominators: every series times one integer, so rows built from them
    have the kernel and unique solutions of the rational coefficients."""
    common = lcm(*(s.den for s in series))
    return [[x * (common // s.den) for x in s.nums[1:]] for s in series]


@dataclass(frozen=True)
class ExactMatrix:
    """A dense matrix of Fractions with exact rank and kernel."""

    entries: Tuple[Tuple[Fraction, ...], ...]

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

    def kernel_basis(self) -> List[Tuple[Fraction, ...]]:
        """Basis of {x : Mx = 0}, one monic vector per free column.

        Pivots are chosen at the earliest columns; each basis vector has
        coefficient 1 at its free column, which is also its last nonzero
        entry, and 0 at the other free columns.
        """
        return IntEchelon(map(_cleared_row, self.entries)).kernel_basis(self.cols)


class IntEchelon:
    """Incremental integer row echelon, one primitive row per pivot column.

    IntEchelon(rows) starts by adding the given rows in order.  add()
    reduces a vector against the stored rows by cross-multiplication (no
    fractions ever appear) and either stores it as a new pivot row or
    reports it dependent.  Content is stripped only when a row is stored:
    stripping after every elimination step costs more gcds than the smaller
    entries save.  kernel_vector() back-substitutes through the stored rows;
    it is the only place where fractions appear.
    """

    def __init__(self, rows: Iterable[Sequence[int]] = ()) -> None:
        self._rows: Dict[int, List[int]] = {}
        for row in rows:
            self.add(row)

    @property
    def rank(self) -> int:
        return len(self._rows)

    @property
    def pivots(self) -> KeysView[int]:
        return self._rows.keys()

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

    def kernel_vector(self, free: int, size: int) -> List[Fraction]:
        """The x of length size with x[free] = 1, zero at every other column
        without a pivot, and every stored row orthogonal to it.

        free must not be a pivot column.  Such an x is unique, so it is the
        kernel basis vector of reduced row echelon form; its last nonzero
        entry is the 1 at free.
        """
        # x = num / den with one common denominator: pure integer arithmetic
        num = {free: 1}
        den = 1
        for p in sorted((p for p in self._rows if p < free), reverse=True):
            row = self._rows[p]
            s = sum(row[j] * x for j, x in num.items())
            if s:
                g = gcd(s, row[p])
                scale = row[p] // g
                if scale != 1:
                    for j in num:
                        num[j] *= scale
                    den *= scale
                num[p] = -s // g
        vec = [Fraction(0)] * size
        for j, x in num.items():
            vec[j] = Fraction(x, den)
        return vec

    def kernel_basis(self, size: int) -> List[Tuple[Fraction, ...]]:
        """The kernel_vector of every column below size without a pivot."""
        return [tuple(self.kernel_vector(free, size))
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
    one big-integer multiply-add per step.  After the walk the vector is
    unpacked once; its first nonzero residue is the new lead, and the row is
    stored reduced mod p and normalised to a leading 1.

    The rank mod p is at most the rank over Q: a minor that vanishes over
    the integers vanishes mod p.  So 1 + rank is a lower bound for a
    dimension by construction, and full rank mod p proves full rank.
    Kernels and solutions need exact arithmetic and go through IntEchelon.
    """

    def __init__(self, ncols: int) -> None:
        self._ncols = ncols
        self._width = _mod_slot_bytes(ncols)
        self._rows: Dict[int, int] = {}

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

    def add(self, packed: int) -> bool:
        """Absorb a vector made by pack(); True if it was independent mod p
        of the rows so far."""
        width = self._width
        bits = 8 * width
        mask = (1 << bits) - 1
        top = (self._ncols - 1) * bits
        vec = packed
        for c in sorted(self._rows):
            a = ((vec >> (top - c * bits)) & mask) % _PRIME
            if a:
                vec += (_PRIME - a) * self._rows[c]
        raw = vec.to_bytes(self._ncols * width, "big")
        residues = [int.from_bytes(raw[i:i + width], "big") % _PRIME
                    for i in range(0, len(raw), width)]
        lead = next((j for j, x in enumerate(residues) if x), None)
        if lead is None:
            return False
        inverse = pow(residues[lead], -1, _PRIME)
        self._rows[lead] = self.pack([x * inverse for x in residues])
        return True


def solve_unique(rows: Sequence[Sequence[Fraction | int]],
                 rhs: Sequence[Fraction | int]) -> List[Fraction]:
    """The unique exact solution of (rows) x = rhs.

    Raises ArithmeticError when the system is inconsistent or the solution
    is not unique; callers that want least-squares or parametrized solutions
    are in the wrong place, this is for systems expected to pin down one
    answer.  Overdetermined systems are fine as long as they are consistent.
    """
    rows = [list(r) for r in rows]
    if len(rows) != len(rhs):
        raise ValueError("need exactly one right-hand side entry per row")
    if not rows:
        raise ArithmeticError("empty system has no unique solution")
    ncols = len(rows[0])
    if any(len(row) != ncols for row in rows):
        raise ValueError("rows must all have the same length")
    # (rows | rhs) (x, -1) = 0: x is minus the kernel vector at column ncols
    ech = IntEchelon(_cleared_row(row + [b]) for row, b in zip(rows, rhs))
    if ncols in ech.pivots:
        raise ArithmeticError("inconsistent linear system")
    if ech.rank < ncols:
        raise ArithmeticError(
            f"underdetermined linear system: rank {ech.rank} of {ncols}")
    return [-x for x in ech.kernel_vector(ncols, ncols + 1)[:ncols]]


# ---------------------------------------------------------------------------
# generators and their coefficient rows


def _refuse_past_the_cap(counts: Iterable[int]) -> None:
    """Raise ResourceCap once the generator counts add up past max_cells,
    before any generator is listed.  Every generator is at least one suffix
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
    admissible = _require_space(space) == "mda"
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
    (_table_rows).  An explicit order must be at least 1 and reach the first
    coefficient of the longest column."""
    if order is None:
        return max(get_config().default_order, 2 * len(columns))
    if order < 1:
        raise ValueError("order must be at least 1")
    max_length, least = _longest(columns)
    if order < least:
        raise ValueError(
            f"{caller}: order {order} cannot see a length-{max_length} "
            f"generator (first coefficient at q^{least})")
    return order


def _packed_rows(comps: Sequence[Parts], order: int) -> Dict[Parts, int]:
    """The coefficients of q^1..q^order of each composition's bracket
    (numerators over the series denominator), packed by ModEchelon(order)."""
    series = bracket_series_many(comps, order)
    packer = ModEchelon(order)
    return {c: packer.pack(series[c].nums[1:]) for c in comps}


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


def _table_rows(space: str, k: int, gens: Sequence[Parts], order: int | None,
                caller: str) -> Tuple[int, Dict[Parts, int], Walk]:
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


@dataclass(frozen=True)
class DimensionTable:
    """Values for the cells (k, l) of one dimension table.

    Every cell carries a certainty tag: exact or lower_bound.
    """

    space: str
    kind: str
    cells: Mapping[Cell, Tuple[int, str]]

    def value(self, k: int, l: int) -> int:
        return self.cells[(k, l)][0]

    def certainty(self, k: int, l: int) -> str:
        return self.cells[(k, l)][1]

    def row(self, k: int) -> List[int]:
        cols = sorted(l for kk, l in self.cells if kk == k)
        return [self.value(k, l) for l in cols]

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
    space = _require_space(space)
    kind = _require_kind(kind)
    if max_weight < 0:
        raise ValueError("max_weight must be >= 0")
    all_gens = generators(space, max_weight)
    order, rows, top = _table_rows(space, max_weight, all_gens, order,
                                   "dimension_table")

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
    ech = IntEchelon(zip(*_common_numerators([series[c] for c in columns])))
    return [Relation.verified(WordSum(zip(columns, vec)), "numeric-kernel",
                              order)
            for vec in ech.kernel_basis(len(columns))]


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

    *rows, goal = coefficient_rows([*map(body, relations), body(target)])
    return not IntEchelon(rows).add(goal)


def graded_relation_counts(max_weight: int, max_length: int | None = None,
                           relations: Iterable[Relation] | None = None,
                           verify_order: int | None = None) -> Dict[Cell, int]:
    """Independent relation counts per graded (k, l) piece of the admissible
    space, from the proven corpus (splits and Leibniz by default).

    A relation of weight k whose longest weight-k terms have length l
    projects onto the (k, l) graded piece by keeping exactly those terms:
    everything of lower weight or shorter length dies in the quotient.  A
    projection that touches a non-admissible word is a statement about the
    full space, not about the admissible quotient, so such relations are
    skipped.  The count per cell is the rank of the projections landing
    there.
    """
    if relations is None:
        relations = proven_relation_corpus(max_weight, verify_order)
    buckets: Dict[Cell, List[WordSum]] = {}
    for relation in relations:
        k = relation.weight
        if k > max_weight:
            continue
        top = [(w, c) for w, c in relation.body.terms() if w and sum(w) == k]
        if not top:
            continue  # a zero or constant body projects onto no cell
        l = max(len(w) for w, _ in top)
        if max_length is not None and l > max_length:
            continue
        projection = [(w, c) for w, c in top if len(w) == l]
        if any(w[0] == 1 for w, _ in projection):
            continue
        buckets.setdefault((k, l), []).append(WordSum(projection))

    counts: Dict[Cell, int] = {}
    for k in range(2, max_weight + 1):
        top_l = min(k - 1, max_length) if max_length is not None else k - 1
        for l in range(1, top_l + 1):
            counts[(k, l)] = 0
    for (k, l), projections in buckets.items():
        counts[(k, l)] = IntEchelon(coefficient_rows(projections)).rank
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

