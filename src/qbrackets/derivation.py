"""The derivation d = q d/dq at the expression level.

Applying d to a bracket lands back in the span of brackets, with weight up by
two and length up by at most one.  Three constructors produce expression-level
derivatives: closed forms for lengths one and two, and a general coefficient
extraction that works for every composition.  Each construction is verified
against q d/dq on the actual series before it is returned, so a formula bug
cannot silently leak wrong relations.

Subtracting two different expressions for the same derivative, or comparing
the Leibniz rule with the termwise derivative of a product, yields linear
relations between brackets; those are packaged as Relation values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import comb

from .brackets import bracket_series, canonical_key
from .config import get_config
from .numbers import as_composition, compositions_up_to
from .series import QSeries
from .words import WordSum, evaluate, quasi_shuffle, word

Parts = tuple[int, ...]

PROVEN_PROVENANCES = ("derivation-split", "leibniz", "modular")


@dataclass(frozen=True)
class DerivativeExpression:
    """d[source] written as a WordSum, with the construction recipe named."""

    source: Parts
    expression: WordSum
    provenance: str

    def check(self, order: int) -> bool:
        return evaluate(self.expression, order) == \
            bracket_series(self.source, order).q_d_dq()


@dataclass(frozen=True)
class Relation:
    """A WordSum asserted to be zero, with its origin and verification depth.

    Relations from expression-level identities (split, Leibniz, modular) are
    proven; anything found purely by kernel computation stays a candidate no
    matter how far it was verified.
    """

    body: WordSum
    provenance: str
    verified_order: int

    @property
    def weight(self) -> int:
        return self.body.weight

    @property
    def max_length(self) -> int:
        return self.body.max_length

    @property
    def status(self) -> str:
        return "proven" if self.provenance in PROVEN_PROVENANCES else "candidate"

    def check(self, order: int) -> bool:
        return evaluate(self.body, order).is_zero()

    def normalized(self) -> WordSum:
        """Scale so the canonically greatest term has coefficient 1."""
        words = sorted(self.body.words(), key=canonical_key)
        if not words:
            return self.body
        lead = self.body.coefficient(words[-1])
        return self.body.scale(1 / lead)

    def to_json(self) -> dict:
        return {
            "weight": self.weight,
            "max_length": self.max_length,
            "terms": self.body.to_json()["terms"],
            "provenance": self.provenance,
            "verified_order": self.verified_order,
        }

    @staticmethod
    def from_json(data: dict) -> "Relation":
        return Relation(WordSum.from_json({"terms": data["terms"]}),
                        data["provenance"], int(data["verified_order"]))


def _verified(source: Parts, expr: WordSum, provenance: str,
              verify_order: int | None) -> DerivativeExpression:
    order = verify_order if verify_order is not None else get_config().default_order
    out = DerivativeExpression(source, expr, provenance)
    if not out.check(order):
        raise ArithmeticError(
            f"derivative expression for {source} ({provenance}) fails "
            f"against q d/dq at order {order}")
    return out


def d_len1(s1: int, s2: int, verify_order: int | None = None) -> DerivativeExpression:
    """An expression for d[s] with s = s1+s2-2, one for every split of s+2.

    Different splits give different expressions for the same series; their
    differences are the weight-(s+2) relations of split_relations.
    """
    s1, s2 = as_composition((s1, s2))
    s = s1 + s2 - 2
    if s < 1:
        raise ValueError(f"split ({s1},{s2}) has nothing to derive: s1+s2 must exceed 2")
    binom = comb(s, s1 - 1)
    expr = quasi_shuffle(word(s1), word(s2))
    expr = expr + WordSum.of((s + 1,), binom)
    for a in range(1, s + 2):
        b = s + 2 - a
        c = comb(a - 1, s1 - 1) + comb(a - 1, s2 - 1)
        if c:
            expr = expr + WordSum.of((a, b), -c)
    expr = expr.scale(Fraction(s, binom))
    return _verified((s,), expr, f"len1-split({s1},{s2})", verify_order)


def d_len2(s1: int, s2: int, verify_order: int | None = None) -> DerivativeExpression:
    """Closed form for d[s1,s2]."""
    s1, s2 = as_composition((s1, s2))
    expr = quasi_shuffle(word(2), word(s1, s2))
    expr = expr + WordSum.of((s1 + 1, s2, 1), -s1)
    expr = expr + WordSum.of((s1, s2 + 1, 1), -s2)
    expr = expr + WordSum.of((s1, s2, 2), -1)
    for a in range(1, s1 + 2):
        b = s1 + 2 - a
        if a - 1:
            expr = expr + WordSum.of((a, b, s2), -(a - 1))
    for a in range(1, s2 + 1):
        b = s2 + 1 - a
        expr = expr + WordSum.of((s1 + 1, a, b), -s1)
    for a in range(1, s2 + 2):
        b = s2 + 2 - a
        if a - 1:
            expr = expr + WordSum.of((s1, a, b), -(a - 1))
    expr = expr + WordSum.of((s1 + 1, s2), 2 * s1)
    expr = expr + WordSum.of((s1, s2 + 1), s2)
    return _verified((s1, s2), expr, "len2-closed-form", verify_order)


def _d_general_body(c: Parts) -> WordSum:
    """Coefficient extraction for d[c] of any length.

    Start from the quasi-shuffle expansion of [2]*[c]; the terms where the
    auxiliary weight-2 letter merged or interleaved in ways that do not
    correspond to q d/dq are removed slot by slot (one part bumped with a
    trailing 1 appended, a part split into an adjacent pair, a plain bump),
    each with the combinatorial multiplicity the extraction dictates.
    """
    l = len(c)
    expr = quasi_shuffle(word(2), WordSum.of(c))
    # bumped with appended 1, and the appended 2
    for i in range(l):
        expr = expr + WordSum.of(c[:i] + (c[i] + 1,) + c[i + 1:] + (1,), -c[i])
    expr = expr + WordSum.of(c + (2,), -1)
    # pair splittings of each slot
    for j in range(l):
        for a in range(1, c[j] + 1):
            b = c[j] + 1 - a
            for i in range(j):
                expr = expr + WordSum.of(
                    c[:i] + (c[i] + 1,) + c[i + 1:j] + (a, b) + c[j + 1:], -c[i])
            expr = expr + WordSum.of(c[:j] + (a + 1, b) + c[j + 1:], -a)
    # plain bumps
    for j in range(l):
        for i in range(j + 1):
            expr = expr + WordSum.of(c[:i] + (c[i] + 1,) + c[i + 1:], c[i])
    return expr


@lru_cache(maxsize=None)
def _d_general_cached(c: Parts, verify_order: int) -> DerivativeExpression:
    return _verified(c, _d_general_body(c), "general-extraction", verify_order)


def d_general(c: Parts | list[int], verify_order: int | None = None) -> DerivativeExpression:
    """Expression for d[c], any length; self-verified against q d/dq."""
    comp = as_composition(c)
    order = verify_order if verify_order is not None else get_config().default_order
    return _d_general_cached(comp, order)


def d_word_sum(w: WordSum, verify_order: int | None = None) -> WordSum:
    """Termwise derivative of a WordSum (the empty word maps to zero)."""
    out = WordSum.zero()
    for t, coeff in w.terms():
        if not t:
            continue
        out = out + d_general(t, verify_order).expression.scale(coeff)
    return out


# ---------------------------------------------------------------------------
# relation generators
# ---------------------------------------------------------------------------

def _as_relation(body: WordSum, provenance: str,
                 verify_order: int | None = None) -> Relation:
    order = verify_order if verify_order is not None else get_config().default_order
    rel = Relation(body, provenance, order)
    if not rel.check(order):
        raise ArithmeticError(
            f"{provenance} relation fails to vanish at order {order}: "
            f"{body.to_text()}")
    return rel


def split_relations(k: int, verify_order: int | None = None) -> list[Relation]:
    """The floor(k/2) - 1 weight-k relations from comparing all length-1
    derivative expressions d_len1(s1, k - s1)."""
    if k < 4:
        raise ValueError("split relations need weight k >= 4")
    exprs = [d_len1(s1, k - s1, verify_order) for s1 in range(1, k // 2 + 1)]
    head = exprs[0].expression
    return [_as_relation(head - e.expression, "derivation-split", verify_order)
            for e in exprs[1:]]


def leibniz_relations(w: Parts | list[int], v: Parts | list[int],
                      verify_order: int | None = None) -> Relation:
    """The relation d(w)*v + w*d(v) - d(w*v), all derivatives taken at the
    expression level."""
    w = tuple(w)
    v = tuple(v)
    dw = d_general(w, verify_order).expression
    dv = d_general(v, verify_order).expression
    product = quasi_shuffle(WordSum.of(w), WordSum.of(v))
    body = quasi_shuffle(dw, WordSum.of(v)) \
        + quasi_shuffle(WordSum.of(w), dv) \
        - d_word_sum(product, verify_order)
    return _as_relation(body, "leibniz", verify_order)


def proven_relation_corpus(max_weight: int,
                           verify_order: int | None = None,
                           derived: bool = True) -> list[Relation]:
    """Proven relations of weight <= max_weight: splits, Leibniz pairs, and
    (unless derived=False) their closure under two weight-raising moves.

    Split relations exist from weight 4 on; a Leibniz relation for the pair
    (w, v) has weight wt(w) + wt(v) + 2.  A known relation stays a relation
    when multiplied by a bracket or hit with d, so the corpus is closed under
    both moves up to the weight bound.  Proportional duplicates are dropped.
    """
    seeds = []
    for k in range(4, max_weight + 1):
        seeds.extend(split_relations(k, verify_order))
    pairs = list(compositions_up_to(max_weight - 3))
    for i, w in enumerate(pairs):
        for v in pairs[i:]:
            if sum(w) + sum(v) + 2 <= max_weight:
                seeds.append(leibniz_relations(w, v, verify_order))
    if not derived:
        return seeds

    seen: set[WordSum] = set()
    corpus = []
    for relation in seeds:
        key = relation.normalized()
        if key not in seen:
            seen.add(key)
            corpus.append(relation)
    frontier = list(corpus)
    while frontier:
        grown = []
        for relation in frontier:
            bodies = [(quasi_shuffle(relation.body, WordSum.of(c)), c)
                      for c in compositions_up_to(max_weight - relation.weight)]
            if relation.weight + 2 <= max_weight:
                bodies.append((d_word_sum(relation.body, verify_order), None))
            for body, _ in bodies:
                key = Relation(body, relation.provenance, 0).normalized()
                if key in seen:
                    continue
                seen.add(key)
                grown.append(_as_relation(body, relation.provenance, verify_order))
        corpus.extend(grown)
        frontier = grown
    return corpus
