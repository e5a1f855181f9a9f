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
(all of its generators independent) or a bound.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import (Dict, Iterable, KeysView, List, Mapping, Optional,
                    Sequence, Tuple)

from .brackets import bracket_series_many, canonical_key
from .config import get_config
from .derivation import Relation, proven_relation_corpus
from .numbers import compositions, compositions_up_to
from .words import WordSum

Cell = Tuple[int, int]
Parts = Tuple[int, ...]

SPACES = ("md", "mda")
TABLE_KINDS = ("fil", "gr")
CERTAINTIES = ("exact", "lower_bound", "unknown")


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


def _cleared_row(row: Sequence[Fraction]) -> List[int]:
    den = 1
    for x in row:
        den = lcm(den, Fraction(x).denominator)
    return [int(Fraction(x) * den) for x in row]


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
        return _echelon(self.entries).rank

    def kernel_basis(self) -> List[Tuple[Fraction, ...]]:
        """Basis of {x : Mx = 0}, one monic vector per free column.

        Pivots are chosen at the earliest columns; each basis vector has
        coefficient 1 at its free column, which is also its last nonzero
        entry, and 0 at the other free columns.
        """
        return _echelon(self.entries).kernel_basis(self.cols)


class IntEchelon:
    """Incremental integer row echelon, one primitive row per pivot column.

    add() reduces a vector against the stored rows by cross-multiplication
    (no fractions ever appear) and either stores it as a new pivot row or
    reports it dependent.  Content is stripped only when a row is stored:
    stripping after every elimination step costs more gcds than the smaller
    entries save.  kernel_vector() back-substitutes through the stored rows;
    it is the only place where fractions appear.
    """

    def __init__(self) -> None:
        self._rows: Dict[int, List[int]] = {}

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


def _echelon(rows: Iterable[Sequence[Fraction]]) -> IntEchelon:
    ech = IntEchelon()
    for row in rows:
        ech.add(_cleared_row(row))
    return ech


def solve_unique(rows: Sequence[Sequence[Fraction]],
                 rhs: Sequence[Fraction]) -> List[Fraction]:
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
    ech = _echelon(row + [b] for row, b in zip(rows, rhs))
    if ncols in ech.pivots:
        raise ArithmeticError("inconsistent linear system")
    if ech.rank < ncols:
        raise ArithmeticError(
            f"underdetermined linear system: rank {ech.rank} of {ncols}")
    return [-x for x in ech.kernel_vector(ncols, ncols + 1)[:ncols]]


# ---------------------------------------------------------------------------
# generators and their coefficient rows


def generators(space: str, max_weight: int,
               max_length: int | None = None) -> List[Parts]:
    """Nonempty compositions spanning the (max_weight, max_length) piece,
    in canonical order; first part > 1 when the space is mda."""
    space = _require_space(space)
    return list(compositions_up_to(max_weight, admissible=(space == "mda"),
                                   max_length=max_length))


def _series_order(order: int | None, n_generators: int, max_length: int,
                  caller: str) -> int:
    recommended = 2 * n_generators
    least = max_length * (max_length + 1) // 2
    if order is None:
        return max(get_config().default_order, recommended)
    if order < least:
        raise ValueError(
            f"{caller}: order {order} cannot see a length-{max_length} "
            f"generator (first coefficient at q^{least})")
    if order < recommended:
        warnings.warn(
            f"{caller}: order {order} is below the recommended "
            f"2 x {n_generators} generators; the rank may undershoot",
            RuntimeWarning, stacklevel=3)
    return order


def _packed_rows(comps: Sequence[Parts], order: int) -> Dict[Parts, int]:
    """The coefficients of q^1..q^order of each composition's bracket
    (numerators over the series denominator), packed by ModEchelon(order)."""
    series = bracket_series_many(comps, order)
    packer = ModEchelon(order)
    return {c: packer.pack(series[c].nums[1:]) for c in comps}


def dim_lower_bound(space: str, k: int, l: int, order: int | None = None) -> int:
    """1 + rank mod p of the coefficient matrix of the generators with
    weight <= k and length <= l (the constant series accounts for the 1).

    A lower bound for the dimension by construction: the rank mod p is at
    most the rank over Q, and more coefficients can only reveal more
    independence, never less.
    """
    gens = generators(space, k, l)
    if not gens:
        return 1
    longest = max(len(c) for c in gens)
    order = _series_order(order, len(gens), longest, "dim_lower_bound")
    ech = ModEchelon(order)
    for row in _packed_rows(gens, order).values():
        ech.add(row)
    return 1 + ech.rank


# ---------------------------------------------------------------------------
# dimension tables


@dataclass(frozen=True)
class DimensionTable:
    """Values for the cells (k, l) of one dimension table.

    Every cell carries a certainty tag: exact, lower_bound, or unknown
    (unknown cells have value None and never compare equal to a number).
    """

    space: str
    kind: str
    cells: Mapping[Cell, Tuple[Optional[int], str]]

    @property
    def max_weight(self) -> int:
        return max((k for k, _ in self.cells), default=-1)

    def value(self, k: int, l: int) -> Optional[int]:
        return self.cells[(k, l)][0]

    def certainty(self, k: int, l: int) -> str:
        return self.cells[(k, l)][1]

    def row(self, k: int) -> List[Optional[int]]:
        cols = sorted(l for kk, l in self.cells if kk == k)
        return [self.value(k, l) for l in cols]

    def to_csv(self) -> str:
        lines = ["space,kind,k,l,value,certainty"]
        for (k, l) in sorted(self.cells):
            value, certainty = self.cells[(k, l)]
            text = "" if value is None else str(value)
            lines.append(f"{self.space},{self.kind},{k},{l},{text},{certainty}")
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        """Grid with one row per weight; lower bounds are suffixed with '+',
        unknown cells shown as '?'."""
        def shown(cell: Tuple[Optional[int], str]) -> str:
            value, certainty = cell
            if value is None:
                return "?"
            return f"{value}+" if certainty == "lower_bound" else str(value)

        weights = sorted({k for k, _ in self.cells})
        max_l = max(l for _, l in self.cells)
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
    _series_order for the default and the checks on an explicit order).
    Each is a lower bound by construction, and exact when all of its
    generators are independent mod p, which proves them independent over Q.
    The rows are packed once and shared by the echelons of every weight.
    gr cells are differences of Fil cells, so when any of the four inputs is
    itself a bound the tag stays lower_bound, meaning only "computed from
    bounds", not a bound in either direction.
    """
    space = _require_space(space)
    kind = _require_kind(kind)
    if max_weight < 0:
        raise ValueError("max_weight must be >= 0")
    all_gens = generators(space, max_weight)
    longest = max((len(c) for c in all_gens), default=0)
    order = _series_order(order, len(all_gens), longest, "dimension_table")
    rows = _packed_rows(all_gens, order) if all_gens else {}

    fil: Dict[Cell, Tuple[int, str]] = {}
    for k in range(max_weight + 1):
        fil[(k, 0)] = (1, "exact")
        gens_k = [c for c in all_gens if sum(c) <= k]
        ech = ModEchelon(order)
        count = 0
        for l in range(1, k + 1):
            for c in gens_k:
                if len(c) == l:
                    ech.add(rows[c])
                    count += 1
            value = 1 + ech.rank
            certainty = "exact" if value == 1 + count else "lower_bound"
            fil[(k, l)] = (value, certainty)
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


def dims_from_dprime(dprime: Mapping[Cell, int], space: str = "mda",
                     kind: str = "fil", max_weight: int | None = None,
                     exact_cells: Iterable[Cell] | None = None) -> DimensionTable:
    """Build any of the four tables from the graded dimensions of the
    admissible space.

    dprime maps (k, l) with 0 <= l <= k to the dimension of the (k, l) graded
    piece; cells outside the triangle are structurally zero, and the (0, 0)
    cell is structurally 1 (the constants) whether or not it is supplied.  A
    cell of the output that needs a missing dprime value becomes unknown,
    never a silent zero.  exact_cells (default: all given) marks which inputs
    are proven; anything derived from an unproven input is tagged lower_bound.
    """
    space = _require_space(space)
    kind = _require_kind(kind)
    if max_weight is None:
        max_weight = max((k for k, _ in dprime), default=-1)
    exact = set(dprime if exact_cells is None else exact_cells)

    def core(j: int, i: int) -> Tuple[Optional[int], bool]:
        """(value, proven) of the graded (j, i) piece; value None = unknown."""
        if i < 0 or j < 0 or i > j:
            return 0, True
        if space == "md":
            total, proven = 0, True
            for r in range(min(j, i) + 1):
                value, p = _mda_core(j - r, i - r)
                if value is None:
                    return None, False
                total += value
                proven = proven and p
            return total, proven
        return _mda_core(j, i)

    def _mda_core(j: int, i: int) -> Tuple[Optional[int], bool]:
        if i < 0 or j < 0 or i > j:
            return 0, True
        if j == 0 and i == 0:
            return 1, True
        if (j, i) in dprime:
            return dprime[(j, i)], (j, i) in exact
        return None, False

    cells: Dict[Cell, Tuple[Optional[int], str]] = {}
    for k in range(max_weight + 1):
        for l in range(k + 1):
            if kind == "gr":
                value, proven = core(k, l)
            else:
                value, proven = 0, True
                for j in range(k + 1):
                    for i in range(l + 1):
                        v, p = core(j, i)
                        if v is None:
                            value = None
                            break
                        value += v
                        proven = proven and p
                    if value is None:
                        break
            if value is None:
                cells[(k, l)] = (None, "unknown")
            else:
                cells[(k, l)] = (value, "exact" if proven else "lower_bound")
    return DimensionTable(space, kind, cells)


def weight_dims_identity(dprime: Mapping[Cell, int],
                         max_weight: int) -> List[Tuple[int, Optional[int], Optional[int]]]:
    """(k, weight-graded dim of the full space, weight-filtered dim of the
    admissible space) for k <= max_weight; the two numbers agree whenever
    both are known."""
    md_gr = dims_from_dprime(dprime, space="md", kind="gr", max_weight=max_weight)
    mda_fil = dims_from_dprime(dprime, space="mda", kind="fil", max_weight=max_weight)

    out = []
    for k in range(max_weight + 1):
        graded = 0
        for l in range(k + 1):
            value = md_gr.value(k, l)
            if value is None:
                graded = None
                break
            graded += value
        out.append((k, graded, mda_fil.value(k, k)))
    return out


# ---------------------------------------------------------------------------
# relation discovery


def _candidate_relations(columns: Sequence[Parts], order: int) -> List[Relation]:
    series = bracket_series_many(columns, order)
    # column c scaled by common / den_c: common times the coefficient
    # matrix, in integers, with the same kernel basis
    common = lcm(*(series[c].den for c in columns))
    scaled = [[x * (common // series[c].den) for x in series[c].nums[1:]]
              for c in columns]
    ech = IntEchelon()
    for row in zip(*scaled):
        ech.add(row)
    relations = []
    for vec in ech.kernel_basis(len(columns)):
        body = WordSum((c, x) for c, x in zip(columns, vec) if x)
        relation = Relation(body, "numeric-kernel", order)
        if not relation.check(order):
            raise ArithmeticError("kernel vector fails re-evaluation")
        relations.append(relation)
    return relations


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
    longest = max((len(c) for c in gens), default=0)
    order = _series_order(order, len(gens), longest, "relation_search")
    return _candidate_relations(gens, order) if gens else []


def homogeneous_relation_search(k: int, l: int,
                                order: int | None = None) -> List[Relation]:
    """Candidate relations among the brackets of weight exactly k and length
    exactly l (all of them, not only those of the admissible space)."""
    columns = list(compositions(k, l))
    if not columns:
        return []
    order = _series_order(order, len(columns), l, "homogeneous_relation_search")
    return _candidate_relations(columns, order)


def relation_in_span(target: Relation | WordSum,
                     relations: Iterable[Relation | WordSum]) -> bool:
    """Is the target a rational combination of the given relations?"""
    def body(r: Relation | WordSum) -> WordSum:
        return r.body if isinstance(r, Relation) else r

    bodies = [body(r) for r in relations]
    goal = body(target)
    columns = sorted({w for b in bodies + [goal] for w in b.words()},
                     key=canonical_key)
    index = {w: i for i, w in enumerate(columns)}

    def vector(b: WordSum) -> List[Fraction]:
        vec = [Fraction(0)] * len(columns)
        for w, c in b.terms():
            vec[index[w]] = c
        return vec

    ech = _echelon(vector(b) for b in bodies)
    return not ech.add(_cleared_row(vector(goal)))


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
        top = [(w, c) for w, c in relation.body.terms() if sum(w) == k]
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
        columns = list(compositions(k, l, admissible=True))
        index = {w: i for i, w in enumerate(columns)}
        ech = IntEchelon()
        for projection in projections:
            vec = [Fraction(0)] * len(columns)
            for w, c in projection.terms():
                vec[index[w]] = c
            ech.add(_cleared_row(vec))
        counts[(k, l)] = ech.rank
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


def conjecture_series_check(max_k: int,
                            dprime_totals: Sequence[int] | None = None) -> List[dict]:
    """Compare the conjectured generating series with weight totals of the
    graded admissible dimensions.

    Returns one entry per weight with the expansion coefficient, the given
    total (None when not supplied), and whether they match.  This reports on
    the conjecture; nothing here asserts it.
    """
    expansion = conjecture_series_expansion(max_k)
    report = []
    for k in range(max_k + 1):
        given = None
        if dprime_totals is not None and k < len(dprime_totals):
            given = dprime_totals[k]
        report.append({
            "k": k,
            "expansion": expansion[k],
            "computed": given,
            "match": None if given is None else given == expansion[k],
        })
    return report
