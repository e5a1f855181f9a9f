"""The word algebra carrying the quasi-shuffle product.

Words are tuples of positive integer letters; a WordSum is a finite rational
linear combination of words, held as QSeries holds its coefficients: integer
numerators keyed by word in canonical order over one positive denominator, in
lowest terms.  Every combination of word sums (sums, scaling, products,
derivatives, decompositions) is one integer pass, _sum.  The product of two
brackets is the image of the quasi-shuffle product of their words, which is
what evaluate() checks.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Callable, Iterable, Iterator, Mapping

from .brackets import _series_many, bracket_series
from .numbers import as_composition, as_order, canonical_key, lambda_coeff
from .series import QSeries, _linear, _rat_str, _signed_sum

Word = tuple[int, ...]
Row = tuple[int, int, Iterable[tuple[Word, int]]]


class WordSum:
    """An immutable rational linear combination of words (compositions):
    sum nums[w] / den * w, gcd(den, *nums) == 1 with den > 0, so equal sums
    have equal fields.  terms() and coefficient() return Fractions."""

    __slots__ = ("_nums", "_den")

    def __init__(self, terms: Mapping[Word, Fraction] | Iterable[tuple[Word, Fraction]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        out = _sum([(*Fraction(c).as_integer_ratio(), ((as_composition(w), 1),))
                    for w, c in items])
        self._nums, self._den = out._nums, out._den

    def _row(self, p: int = 1, q: int = 1, prefix: Word = ()) -> Row:
        """This sum times p/q, each word led by prefix, as a row of _sum."""
        return p, q * self._den, ((prefix + w, x) for w, x in self._nums.items())

    # -- mapping style access --------------------------------------------------

    def terms(self) -> Iterator[tuple[Word, Fraction]]:
        return ((w, Fraction(x, self._den)) for w, x in self._nums.items())

    def words(self) -> Iterator[Word]:
        return iter(self._nums)

    def coefficient(self, word: Iterable[int]) -> Fraction:
        return Fraction(self._nums.get(tuple(word), 0), self._den)

    def __len__(self) -> int:
        return len(self._nums)

    def is_zero(self) -> bool:
        return not self._nums

    def __eq__(self, other) -> bool:
        return isinstance(other, WordSum) and (self._den, self._nums) == (other._den, other._nums)

    def __hash__(self) -> int:
        return hash((self._den, *self._nums.items()))

    # -- filtration -------------------------------------------------------------

    @property
    def weight(self) -> int:
        """Largest term weight (0 for the zero or empty-word sum)."""
        return max((sum(w) for w in self._nums), default=0)

    @property
    def max_length(self) -> int:
        return max((len(w) for w in self._nums), default=0)

    # -- algebra ---------------------------------------------------------------

    def __add__(self, other: "WordSum") -> "WordSum":
        if not isinstance(other, WordSum):
            return NotImplemented
        return _sum([self._row(), other._row()])

    def __sub__(self, other: "WordSum") -> "WordSum":
        if not isinstance(other, WordSum):
            return NotImplemented
        return _sum([self._row(), other._row(-1)])

    def __neg__(self) -> "WordSum":
        return _sum([self._row(-1)])

    def scale(self, c: Fraction | int) -> "WordSum":
        return _sum([self._row(*Fraction(c).as_integer_ratio())])

    def normalized(self) -> "WordSum":
        """The normal form up to scale: coefficient 1 at the canonically
        greatest word, the last term.  The zero sum stays zero."""
        if not self._nums:
            return self
        return self.scale(Fraction(self._den, next(reversed(self._nums.values()))))

    def __rmul__(self, c):
        if isinstance(c, (int, Fraction)):
            return self.scale(c)
        return NotImplemented

    def __mul__(self, other):
        """Quasi-shuffle product (scalars also accepted)."""
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if isinstance(other, WordSum):
            return quasi_shuffle(self, other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"WordSum({self.to_text()})"

    def to_text(self) -> str:
        return _signed_sum((c, "[" + ",".join(map(str, w)) + "]" if w else "1")
                           for w, c in self.terms())

    def to_json(self) -> dict:
        return {"terms": [{"parts": list(w), "coeff": _rat_str(x, self._den)}
                          for w, x in self._nums.items()]}


def _sum(rows: Iterable[Row]) -> WordSum:
    """sum p/q * x * w over the rows (p, q, terms) and their (w, x) terms:
    the rows brought to the lcm of the q and summed in one integer pass,
    then zero terms dropped, the words put in canonical order and the
    fraction reduced once.  Every word must be a composition."""
    rows = list(rows)
    den = lcm(*(q for _, q, _ in rows))
    summed: dict[Word, int] = {}
    for p, q, terms in rows:
        m = p * (den // q)
        for w, x in terms:
            summed[w] = summed.get(w, 0) + m * x
    kept = sorted((w for w, x in summed.items() if x), key=canonical_key)
    g = gcd(den, *(summed[w] for w in kept))
    out = WordSum.__new__(WordSum)
    out._nums = {w: summed[w] // g for w in kept}
    out._den = den // g
    return out


def _linear_extension(f: Callable[[Word], WordSum], w: WordSum) -> WordSum:
    """sum c * f(word) over the terms of w, f mapping words to WordSums."""
    return _sum(f(u)._row(x, w._den) for u, x in w._nums.items())


def word(*letters: int) -> WordSum:
    """The single word z_{letters[0]} z_{letters[1]} ...: word(2, 1) is
    z_2 z_1, and word() the empty word, the unit of the algebra."""
    return WordSum([(letters, 1)])


# ---------------------------------------------------------------------------
# products
# ---------------------------------------------------------------------------

# Cache bounds: decompose_in_one of twelve 1s, then proven_relation_corpus(8)
# leaves 32 single-letter products, 4,747 shuffle tables, 4,096 decompositions
# and 63 d_general results (39, 5,717, 4,096 and 127 with the corpus of weight
# 9), so these bounds and derivation's evict nothing at those sizes.
@lru_cache(maxsize=256)
def diamond(a: int, b: int) -> WordSum:
    """The single-letter product z_a <> z_b = z_{a+b} + lambda corrections."""
    return WordSum([((a + b,), 1),
                    *(((j,), lambda_coeff(a, b, j)) for j in range(1, a + 1)),
                    *(((j,), lambda_coeff(b, a, j)) for j in range(1, b + 1))])


@lru_cache(maxsize=16384)
def _shuffle_words(w: Word, v: Word) -> WordSum:
    """The quasi-shuffle product of the single words w and v."""
    if not w or not v:
        return _sum([(1, 1, ((w + v, 1),))])
    a, wt = w[0], w[1:]
    b, vt = v[0], v[1:]
    inner = _shuffle_words(wt, vt)
    ab = diamond(a, b)
    return _sum([_shuffle_words(wt, v)._row(prefix=(a,)),
                 _shuffle_words(w, vt)._row(prefix=(b,)),
                 *(inner._row(x, ab._den, z) for z, x in ab._nums.items())])


def quasi_shuffle(w: WordSum, v: WordSum) -> WordSum:
    """Bilinear extension of a w * b v = a(w * bv) + b(aw * v) + (a<>b)(w * v)."""
    return _sum(_shuffle_words(ww, vv)._row(x * y, w._den * v._den)
                for ww, x in w._nums.items() for vv, y in v._nums.items())


def coefficient_rows(sums: Iterable[WordSum]) -> list[list[int]]:
    """The sums as integer rows over the union of their words, in canonical
    order: each row holds the numerators of its sum, a positive multiple of
    its coefficient vector.

    Scaling a row leaves the span of the rows unchanged, so ranks and span
    membership read off these rows are those of the rational coefficient
    vectors.
    """
    sums = list(sums)
    columns = sorted({w for s in sums for w in s.words()}, key=canonical_key)
    return [[s._nums.get(w, 0) for w in columns] for s in sums]


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def evaluate(w: WordSum, order: int) -> QSeries:
    """The series sum of coeff * [word] over the terms of w (compositions by
    construction: only the order is checked), from the series as cached."""
    order = as_order(order)
    series = _series_many(list(w.words()), order)
    s = _linear(order, ((x, series[word_]) for word_, x in w._nums.items()))
    return QSeries(order, s.nums, s.den * w._den)


# ---------------------------------------------------------------------------
# writing everything as a polynomial in [1] over the admissible part
# ---------------------------------------------------------------------------

class OnePolynomial:
    """sum_j P_j T^j with admissible WordSum coefficients P_j; T stands for
    the single word [1]."""

    __slots__ = ("_powers",)

    def __init__(self, powers: Iterable[WordSum] = ()):
        ps = list(powers)
        while ps and ps[-1].is_zero():
            ps.pop()
        self._powers = tuple(ps)

    @property
    def powers(self) -> tuple[WordSum, ...]:
        return self._powers

    def degree(self) -> int:
        return len(self._powers) - 1

    def coefficient(self, j: int) -> WordSum:
        return self._powers[j] if 0 <= j < len(self._powers) else WordSum()

    def __eq__(self, other) -> bool:
        return isinstance(other, OnePolynomial) and self._powers == other._powers

    def __hash__(self) -> int:
        return hash(self._powers)

    def substitute_one(self, order: int) -> QSeries:
        """Replace T by the series [1] and evaluate everything."""
        one_series = bracket_series((1,), order)
        total = QSeries.zero(order)
        for p in reversed(self._powers):    # Horner, top power first
            total = total * one_series + evaluate(p, order)
        return total

    def __repr__(self) -> str:
        return f"OnePolynomial({self.to_text()})"

    def to_text(self) -> str:
        return " + ".join(
            p.to_text() if j == 0
            else f"({p.to_text()})*{'T' if j == 1 else f'T^{j}'}"
            for j, p in enumerate(self._powers) if not p.is_zero()) or "0"

    def to_json(self) -> dict:
        return {"powers": [p.to_json() for p in self._powers]}


def _combine(parts: Iterable[tuple[Word, int, int, int]]) -> OnePolynomial:
    """The sum of p/q * T^shift * (decomposition of word) over the
    (word, p, q, shift) parts, each power of T summed in one integer pass."""
    powers: list[list[Row]] = []
    for word_, p, q, shift in parts:
        for j, s in enumerate(_decompose_word(word_).powers, shift):
            while len(powers) <= j:
                powers.append([])
            powers[j].append(s._row(p, q))
    return OnePolynomial(map(_sum, powers))


@lru_cache(maxsize=8192)
def _decompose_word(word_: Word) -> OnePolynomial:
    if not word_ or word_[0] > 1:
        return OnePolynomial([_sum([(1, 1, ((word_, 1),))])])
    m = 0
    while m < len(word_) and word_[m] == 1:
        m += 1
    shorter = (1,) * (m - 1) + word_[m:]
    # peel one leading 1:  z1 * (z1^{m-1} tail) = m * word + rest
    produced = _shuffle_words((1,), shorter)
    if produced.coefficient(word_) != m:
        raise ArithmeticError(f"peeling invariant broken at {word_}")
    # T * decomposition of the shorter word, less the rest, over m
    den = m * produced._den
    return _combine([(shorter, 1, m, 1),
                     *((other, -x, den, 0)
                       for other, x in produced._nums.items() if other != word_)])


def decompose_in_one(w: WordSum) -> OnePolynomial:
    """Write w as a polynomial in the word [1] with admissible coefficients.

    The result satisfies substitute_one(order) == evaluate(w, order) for any
    order, and every coefficient is admissible: each of its words is empty or
    starts with a letter > 1.
    """
    return _combine((word_, x, w._den, 0) for word_, x in w._nums.items())
