"""The word algebra carrying the quasi-shuffle product.

Words are tuples of positive integer letters; a WordSum is a finite rational
linear combination of words kept in canonical normal form.  The product of
two brackets is the image of the quasi-shuffle product of their words, which
is what evaluate() checks.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Mapping

from .brackets import bracket_series, bracket_series_many, canonical_key
from .numbers import as_composition, lambda_coeff
from .series import QSeries

Word = tuple[int, ...]


class WordSum:
    """An immutable rational linear combination of words (compositions)."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Word, Fraction] | Iterable[tuple[Word, Fraction]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        clean: dict[Word, Fraction] = {}
        for word, coeff in items:
            word = as_composition(word)
            coeff = Fraction(coeff)
            if coeff == 0:
                continue
            if word in clean:
                coeff = clean[word] + coeff
                if coeff == 0:
                    del clean[word]
                    continue
            clean[word] = coeff
        self._terms = {w: clean[w] for w in sorted(clean, key=canonical_key)}

    # -- constructors --------------------------------------------------------

    @staticmethod
    def of(word: Iterable[int], coeff: Fraction | int = 1) -> "WordSum":
        return WordSum([(tuple(word), Fraction(coeff))])

    @staticmethod
    def zero() -> "WordSum":
        return WordSum()

    @staticmethod
    def one() -> "WordSum":
        """The empty word, the unit of the algebra."""
        return WordSum([((), Fraction(1))])

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
        out = dict(self._terms)
        for w, c in other._terms.items():
            nc = out.get(w, Fraction(0)) + c
            if nc == 0:
                out.pop(w, None)
            else:
                out[w] = nc
        return WordSum(out)

    def __sub__(self, other: "WordSum") -> "WordSum":
        return self + (-other)

    def __neg__(self) -> "WordSum":
        return WordSum({w: -c for w, c in self._terms.items()})

    def scale(self, c: Fraction | int) -> "WordSum":
        c = Fraction(c)
        if c == 0:
            return WordSum()
        return WordSum({w: cc * c for w, cc in self._terms.items()})

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
        if not self._terms:
            return "0"
        parts = []
        for w, c in self._terms.items():
            name = "[" + ",".join(map(str, w)) + "]" if w else "1"
            if c == 1:
                term = name
            elif c == -1:
                term = f"-{name}"
            else:
                term = f"{c}*{name}"
            parts.append(term)
        text = parts[0]
        for term in parts[1:]:
            text += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
        return text

    def to_json(self) -> dict:
        return {"terms": [{"parts": list(w),
                           "coeff": f"{c.numerator}/{c.denominator}"}
                          for w, c in self._terms.items()]}

    @staticmethod
    def from_json(data: dict) -> "WordSum":
        return WordSum([(tuple(t["parts"]), Fraction(t["coeff"]))
                        for t in data["terms"]])


def word(*letters: int) -> WordSum:
    """Convenience constructor: word(2, 1) is the single word z_2 z_1."""
    return WordSum.of(letters)


# ---------------------------------------------------------------------------
# products
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _diamond_letter(a: int, b: int) -> tuple[tuple[int, Fraction], ...]:
    out: dict[int, Fraction] = {a + b: Fraction(1)}
    for j in range(1, a + 1):
        out[j] = out.get(j, Fraction(0)) + lambda_coeff(a, b, j)
    for j in range(1, b + 1):
        out[j] = out.get(j, Fraction(0)) + lambda_coeff(b, a, j)
    return tuple((j, c) for j, c in out.items() if c != 0)


def diamond(a: int, b: int) -> WordSum:
    """The single-letter product z_a <> z_b = z_{a+b} + lambda corrections."""
    return WordSum([((j,), c) for j, c in _diamond_letter(a, b)])


@lru_cache(maxsize=None)
def _shuffle_words(w: Word, v: Word) -> "tuple[tuple[Word, Fraction], ...]":
    if not w:
        return ((v, Fraction(1)),)
    if not v:
        return ((w, Fraction(1)),)
    a, wt = w[0], w[1:]
    b, vt = v[0], v[1:]
    acc: dict[Word, Fraction] = {}

    def bump(word: Word, c: Fraction) -> None:
        nc = acc.get(word, Fraction(0)) + c
        if nc == 0:
            acc.pop(word, None)
        else:
            acc[word] = nc

    for word_, c in _shuffle_words(wt, v):
        bump((a,) + word_, c)
    for word_, c in _shuffle_words(w, vt):
        bump((b,) + word_, c)
    inner = _shuffle_words(wt, vt)
    for letter, lam in _diamond_letter(a, b):
        for word_, c in inner:
            bump((letter,) + word_, lam * c)
    return tuple(acc.items())


def quasi_shuffle(w: WordSum, v: WordSum) -> WordSum:
    """Bilinear extension of a w * b v = a(w * bv) + b(aw * v) + (a<>b)(w * v)."""
    acc: dict[Word, Fraction] = {}
    for ww, cw in w.terms():
        for vv, cv in v.terms():
            c = cw * cv
            for word_, k in _shuffle_words(ww, vv):
                nc = acc.get(word_, Fraction(0)) + c * k
                if nc == 0:
                    acc.pop(word_, None)
                else:
                    acc[word_] = nc
    return WordSum(acc)


# ---------------------------------------------------------------------------
# evaluation and membership
# ---------------------------------------------------------------------------

def evaluate(w: WordSum, order: int) -> QSeries:
    """The series sum of coeff * [word] over the terms of w."""
    series = bracket_series_many(w.words(), order)
    total = QSeries.zero(order)
    for word_, c in w.terms():
        total = total + series[word_].scale(c)
    return total


SUBALGEBRAS = ("admissible", "all-even", "all-greater-one")


def subalgebra_membership(w: WordSum, which: str) -> bool:
    """Test every term against one of the three subalgebra conditions:
    'admissible' (first letter > 1), 'all-even', 'all-greater-one'."""
    if which == "admissible":
        ok = lambda t: not t or t[0] > 1
    elif which == "all-even":
        ok = lambda t: all(p % 2 == 0 for p in t)
    elif which == "all-greater-one":
        ok = lambda t: all(p > 1 for p in t)
    else:
        raise ValueError(f"unknown subalgebra {which!r}; pick from {SUBALGEBRAS}")
    return all(ok(t) for t in w.words())


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
        return self._powers[j] if 0 <= j < len(self._powers) else WordSum.zero()

    def __add__(self, other: "OnePolynomial") -> "OnePolynomial":
        n = max(len(self._powers), len(other._powers))
        return OnePolynomial([self.coefficient(j) + other.coefficient(j)
                              for j in range(n)])

    def scale(self, c: Fraction | int) -> "OnePolynomial":
        return OnePolynomial([p.scale(c) for p in self._powers])

    def shift(self) -> "OnePolynomial":
        """Multiply by T."""
        return OnePolynomial([WordSum.zero(), *self._powers])

    def is_zero(self) -> bool:
        return not self._powers

    def __eq__(self, other) -> bool:
        return isinstance(other, OnePolynomial) and self._powers == other._powers

    def __hash__(self) -> int:
        return hash(self._powers)

    def substitute_one(self, order: int) -> QSeries:
        """Replace T by the series [1] and evaluate everything."""
        one_series = bracket_series((1,), order)
        total = QSeries.zero(order)
        power = QSeries.one(order)
        for p in self._powers:
            total = total + evaluate(p, order) * power
            power = power * one_series
        return total

    def __repr__(self) -> str:
        return f"OnePolynomial({self.to_text()})"

    def to_text(self) -> str:
        if not self._powers:
            return "0"
        chunks = []
        for j, p in enumerate(self._powers):
            if p.is_zero():
                continue
            body = p.to_text()
            if j == 0:
                chunks.append(body)
            else:
                t = "T" if j == 1 else f"T^{j}"
                chunks.append(f"({body})*{t}")
        return " + ".join(chunks) if chunks else "0"

    def to_json(self) -> dict:
        return {"powers": [p.to_json() for p in self._powers]}

    @staticmethod
    def from_json(data: dict) -> "OnePolynomial":
        return OnePolynomial([WordSum.from_json(p) for p in data["powers"]])


@lru_cache(maxsize=None)
def _decompose_word(word_: Word) -> OnePolynomial:
    if not word_ or word_[0] > 1:
        return OnePolynomial([WordSum.of(word_)])
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
    # T * decomposition of the shorter word
    result = _decompose_word((1,) * (m - 1) + tail).shift().scale(inv_m)
    for other, c in produced:
        if other == word_:
            continue  # its coefficient is exactly m
        result = result + _decompose_word(other).scale(-c * inv_m)
    return result


def decompose_in_one(w: WordSum) -> OnePolynomial:
    """Write w as a polynomial in the word [1] with admissible coefficients.

    The result satisfies substitute_one(order) == evaluate(w, order) for any
    order, and every coefficient passes subalgebra_membership 'admissible'.
    """
    out = OnePolynomial()
    for word_, c in w.terms():
        out = out + _decompose_word(word_).scale(c)
    return out
