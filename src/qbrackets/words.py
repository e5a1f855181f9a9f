"""The word algebra carrying the quasi-shuffle product.

Words are tuples of positive integer letters; a WordSum is a finite rational
linear combination of words kept in canonical normal form.  The product of
two brackets is the image of the quasi-shuffle product of their words, which
is what evaluate() checks.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Iterable, Iterator, Mapping

from .brackets import bracket_series, bracket_series_many, canonical_key
from .numbers import as_composition, lambda_coeff
from .series import QSeries, _linear, _signed_sum

Word = tuple[int, ...]


def _normal_form(terms: Iterable[tuple[Word, Fraction]]) -> dict[Word, Fraction]:
    """Equal words summed, coefficients as Fractions, zero terms dropped,
    words in canonical order."""
    summed: dict[Word, Fraction] = {}
    for word, coeff in terms:
        if not isinstance(coeff, Fraction):
            coeff = Fraction(coeff)
        summed[word] = summed[word] + coeff if word in summed else coeff
    return {w: summed[w] for w in sorted(summed, key=canonical_key)
            if summed[w]}


class WordSum:
    """An immutable rational linear combination of words (compositions)."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Word, Fraction] | Iterable[tuple[Word, Fraction]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        self._terms = _normal_form((as_composition(word), coeff)
                                   for word, coeff in items)

    @staticmethod
    def _of_valid(terms: Iterable[tuple[Word, Fraction]]) -> "WordSum":
        """A WordSum of terms whose words are already compositions: taken
        from WordSums or built from their letters, so not checked again."""
        out = WordSum.__new__(WordSum)
        out._terms = _normal_form(terms)
        return out

    # -- mapping style access --------------------------------------------------

    def terms(self) -> Iterator[tuple[Word, Fraction]]:
        return iter(self._terms.items())

    def words(self) -> Iterator[Word]:
        return iter(self._terms)

    def coefficient(self, word: Iterable[int]) -> Fraction:
        return self._terms.get(tuple(word), Fraction(0))

    def __len__(self) -> int:
        return len(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def __eq__(self, other) -> bool:
        return isinstance(other, WordSum) and self._terms == other._terms

    def __hash__(self) -> int:
        return hash(tuple(self._terms.items()))

    # -- filtration -------------------------------------------------------------

    @property
    def weight(self) -> int:
        """Largest term weight (0 for the zero or empty-word sum)."""
        return max((sum(w) for w in self._terms), default=0)

    @property
    def max_length(self) -> int:
        return max((len(w) for w in self._terms), default=0)

    # -- algebra ---------------------------------------------------------------

    def __add__(self, other: "WordSum") -> "WordSum":
        if not isinstance(other, WordSum):
            return NotImplemented
        return WordSum._of_valid([*self.terms(), *other.terms()])

    def __sub__(self, other: "WordSum") -> "WordSum":
        return self + (-other)

    def __neg__(self) -> "WordSum":
        return WordSum._of_valid((w, -c) for w, c in self._terms.items())

    def scale(self, c: Fraction | int) -> "WordSum":
        c = Fraction(c)
        if c == 0:
            return WordSum()
        return WordSum._of_valid((w, cc * c) for w, cc in self._terms.items())

    def normalized(self) -> "WordSum":
        """The normal form up to scale: coefficient 1 at the canonically
        greatest word, the last term.  The zero sum stays zero."""
        if not self._terms:
            return self
        return self.scale(1 / next(reversed(self._terms.values())))

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
                           for w, c in self._terms.items())

    def to_json(self) -> dict:
        return {"terms": [{"parts": list(w),
                           "coeff": f"{c.numerator}/{c.denominator}"}
                          for w, c in self._terms.items()]}


def word(*letters: int) -> WordSum:
    """The single word z_{letters[0]} z_{letters[1]} ...: word(2, 1) is
    z_2 z_1, and word() the empty word, the unit of the algebra."""
    return WordSum([(letters, 1)])


# ---------------------------------------------------------------------------
# products
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def diamond(a: int, b: int) -> WordSum:
    """The single-letter product z_a <> z_b = z_{a+b} + lambda corrections."""
    return WordSum([((a + b,), 1),
                    *(((j,), lambda_coeff(a, b, j)) for j in range(1, a + 1)),
                    *(((j,), lambda_coeff(b, a, j)) for j in range(1, b + 1))])


@lru_cache(maxsize=None)
def _shuffle_words(w: Word, v: Word) -> "tuple[tuple[Word, Fraction], ...]":
    if not w or not v:
        return ((w + v, Fraction(1)),)
    a, wt = w[0], w[1:]
    b, vt = v[0], v[1:]
    inner = _shuffle_words(wt, vt)
    return tuple(WordSum._of_valid([
        *(((a,) + u, c) for u, c in _shuffle_words(wt, v)),
        *(((b,) + u, c) for u, c in _shuffle_words(w, vt)),
        *(((letter,) + u, lam * c)
          for (letter,), lam in diamond(a, b).terms()
          for u, c in inner),
    ]).terms())


def quasi_shuffle(w: WordSum, v: WordSum) -> WordSum:
    """Bilinear extension of a w * b v = a(w * bv) + b(aw * v) + (a<>b)(w * v)."""
    terms = []
    for ww, cw in w.terms():
        for vv, cv in v.terms():
            c = cw * cv
            terms += [(u, c * k) for u, k in _shuffle_words(ww, vv)]
    return WordSum._of_valid(terms)


def coefficient_rows(sums: Iterable[WordSum]) -> list[list[int]]:
    """The sums as integer rows over the union of their words, in canonical
    order, each row scaled by the lcm of its own denominators.

    Scaling a row leaves the span of the rows unchanged, so ranks and span
    membership read off these rows are those of the rational coefficient
    vectors.
    """
    sums = list(sums)
    columns = sorted({w for s in sums for w in s.words()}, key=canonical_key)
    index = {w: j for j, w in enumerate(columns)}
    rows = []
    for s in sums:
        den = lcm(*(c.denominator for _, c in s.terms()))
        row = [0] * len(columns)
        for w, c in s.terms():
            row[index[w]] = c.numerator * (den // c.denominator)
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def evaluate(w: WordSum, order: int) -> QSeries:
    """The series sum of coeff * [word] over the terms of w."""
    series = bracket_series_many(w.words(), order)
    return _linear(order, ((c, series[word_]) for word_, c in w.terms()))


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


def _combine(parts: Iterable[tuple[Word, Fraction, int]]) -> OnePolynomial:
    """The sum of coeff * T^shift * (decomposition of word) over the
    (word, coeff, shift) parts, each power of T built as one WordSum."""
    powers: list[list[tuple[Word, Fraction]]] = []
    for word_, coeff, shift in parts:
        for j, p in enumerate(_decompose_word(word_).powers, shift):
            while len(powers) <= j:
                powers.append([])
            powers[j] += [(w, c * coeff) for w, c in p.terms()]
    return OnePolynomial(WordSum._of_valid(terms) for terms in powers)


@lru_cache(maxsize=None)
def _decompose_word(word_: Word) -> OnePolynomial:
    if not word_ or word_[0] > 1:
        return OnePolynomial([WordSum._of_valid([(word_, 1)])])
    m = 0
    while m < len(word_) and word_[m] == 1:
        m += 1
    tail = word_[m:]
    # peel one leading 1:  z1 * (z1^{m-1} tail) = m * word + rest
    produced = _shuffle_words((1,), (1,) * (m - 1) + tail)
    self_coeff = sum(c for other, c in produced if other == word_)
    if self_coeff != m:
        raise ArithmeticError(f"peeling invariant broken at {word_}")
    inv_m = Fraction(1, m)
    # T * decomposition of the shorter word, less the rest; the word's own
    # coefficient is exactly m
    return _combine([((1,) * (m - 1) + tail, inv_m, 1),
                     *((other, -c * inv_m, 0)
                       for other, c in produced if other != word_)])


def decompose_in_one(w: WordSum) -> OnePolynomial:
    """Write w as a polynomial in the word [1] with admissible coefficients.

    The result satisfies substitute_one(order) == evaluate(w, order) for any
    order, and every coefficient is admissible: each of its words is empty or
    starts with a letter > 1.
    """
    return _combine((word_, c, 0) for word_, c in w.terms())
