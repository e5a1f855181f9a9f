"""The derivation d = q d/dq at the expression level.

Applying d to a bracket lands back in the span of brackets, with weight up by
two and length up by at most one.  Three constructors return d[c] as a
WordSum: closed forms for lengths one and two, and a general coefficient
extraction that works for every composition.  Each construction is verified
against q d/dq on the actual series before it is returned, so a formula bug
cannot silently leak wrong relations.

Subtracting two different expressions for the same derivative, or comparing
the Leibniz rule with the termwise derivative of a product, yields linear
relations between brackets; those are packaged as Relation values.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb

from ._value import Value
from .brackets import bracket_series, bracket_series_many
from .config import get_config
from .numbers import as_composition, as_order, compositions_up_to
from .words import WordSum, _linear_extension, evaluate, quasi_shuffle, word

Parts = tuple[int, ...]

PROVEN_PROVENANCES = ("derivation-split", "leibniz", "modular")


def _order(verify_order: int | None) -> int:
    """The verification order: as given, else the configured default."""
    return (get_config().default_order if verify_order is None
            else as_order(verify_order))


class Relation(Value):
    """A WordSum asserted to be zero, with its origin and verification depth.

    Relations from expression-level identities (split, Leibniz, modular) are
    proven; anything found purely by kernel computation stays a candidate no
    matter how far it was verified.
    """

    __slots__ = ("body", "provenance", "verified_order")

    def __init__(self, body: WordSum, provenance: str,
                 verified_order: int) -> None:
        super().__init__(body, provenance, verified_order)

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

    @staticmethod
    def verified(body: WordSum, provenance: str,
                 verify_order: int | None = None) -> "Relation":
        """The one gate that admits a relation: the body must vanish through
        q^verify_order (default: the configured order), else ArithmeticError
        naming the provenance and the order."""
        order = _order(verify_order)
        rel = Relation(body, provenance, order)
        if not rel.check(order):
            raise ArithmeticError(
                f"{provenance} relation fails to vanish at order {order}: "
                f"{body.to_text()}")
        return rel

    def to_json(self) -> dict:
        return {
            "weight": self.weight,
            "max_length": self.max_length,
            "terms": self.body.to_json()["terms"],
            "provenance": self.provenance,
            "verified_order": self.verified_order,
        }


def _verified(source: Parts, expr: WordSum, recipe: str,
              verify_order: int | None) -> WordSum:
    """expr, once it matches q d/dq of [source] through the verification
    order; else ArithmeticError naming the construction recipe."""
    order = _order(verify_order)
    if evaluate(expr, order) != bracket_series(source, order).q_d_dq():
        raise ArithmeticError(
            f"derivative expression for {source} ({recipe}) fails "
            f"against q d/dq at order {order}")
    return expr


def d_len1(s1: int, s2: int, verify_order: int | None = None) -> WordSum:
    """An expression for d[s] with s = s1+s2-2, one for every split of s+2.

    Different splits give different expressions for the same series; their
    differences are the weight-(s+2) relations of split_relations.
    """
    s1, s2 = as_composition((s1, s2))
    s = s1 + s2 - 2
    if s < 1:
        raise ValueError(f"split ({s1},{s2}) has nothing to derive: s1+s2 must exceed 2")
    binom = comb(s, s1 - 1)
    terms = [((s + 1,), binom)]
    terms += [((a, s + 2 - a), -(comb(a - 1, s1 - 1) + comb(a - 1, s2 - 1)))
              for a in range(1, s + 2)]
    expr = quasi_shuffle(word(s1), word(s2)) + WordSum(terms)
    return _verified((s,), expr.scale(Fraction(s, binom)),
                     f"len1-split({s1},{s2})", verify_order)


def d_len2(s1: int, s2: int, verify_order: int | None = None) -> WordSum:
    """Closed form for d[s1,s2]."""
    s1, s2 = as_composition((s1, s2))
    terms = [((s1 + 1, s2, 1), -s1), ((s1, s2 + 1, 1), -s2), ((s1, s2, 2), -1),
             ((s1 + 1, s2), 2 * s1), ((s1, s2 + 1), s2)]
    terms += [((a, s1 + 2 - a, s2), -(a - 1)) for a in range(1, s1 + 2)]
    terms += [((s1 + 1, a, s2 + 1 - a), -s1) for a in range(1, s2 + 1)]
    terms += [((s1, a, s2 + 2 - a), -(a - 1)) for a in range(1, s2 + 2)]
    expr = quasi_shuffle(word(2), word(s1, s2)) + WordSum(terms)
    return _verified((s1, s2), expr, "len2-closed-form", verify_order)


def _d_general_body(c: Parts) -> WordSum:
    """Coefficient extraction for d[c] of any length.

    Start from the quasi-shuffle expansion of [2]*[c]; the terms where the
    auxiliary weight-2 letter merged or interleaved in ways that do not
    correspond to q d/dq are removed slot by slot (one part raised by one
    with a trailing 1 appended, a part split into an adjacent pair, a part
    raised by one alone),
    each with the combinatorial multiplicity the extraction dictates.
    """
    l = len(c)
    # raised by one with appended 1, and the appended 2
    terms = [(c[:i] + (c[i] + 1,) + c[i + 1:] + (1,), -c[i]) for i in range(l)]
    terms.append((c + (2,), -1))
    # pair splittings of each slot
    for j in range(l):
        for a in range(1, c[j] + 1):
            b = c[j] + 1 - a
            terms += [(c[:i] + (c[i] + 1,) + c[i + 1:j] + (a, b) + c[j + 1:],
                       -c[i]) for i in range(j)]
            terms.append((c[:j] + (a + 1, b) + c[j + 1:], -a))
    # raised by one alone
    terms += [(c[:i] + (c[i] + 1,) + c[i + 1:], c[i])
              for j in range(l) for i in range(j + 1)]
    return quasi_shuffle(word(2), word(*c)) + WordSum(terms)


# proven_relation_corpus(8) leaves 63 entries and the corpus of weight 9
# 127 (see the word-layer caches in words.py), so 512 evicts nothing there
@lru_cache(maxsize=512)
def _d_general_cached(c: Parts, verify_order: int) -> WordSum:
    return _verified(c, _d_general_body(c), "general-extraction", verify_order)


def d_general(c: Parts | list[int], verify_order: int | None = None) -> WordSum:
    """Expression for d[c], any length; self-verified against q d/dq."""
    return _d_general_cached(as_composition(c), _order(verify_order))


def d_word_sum(w: WordSum, verify_order: int | None = None) -> WordSum:
    """Termwise derivative of a WordSum (the empty word maps to zero)."""
    return _linear_extension(
        lambda t: d_general(t, verify_order) if t else WordSum(), w)


# ---------------------------------------------------------------------------
# relation generators
# ---------------------------------------------------------------------------

def split_relations(k: int, verify_order: int | None = None) -> list[Relation]:
    """The floor(k/2) - 1 weight-k relations from comparing all length-1
    derivative expressions d_len1(s1, k - s1)."""
    if k < 4:
        raise ValueError("split relations need weight k >= 4")
    exprs = [d_len1(s1, k - s1, verify_order) for s1 in range(1, k // 2 + 1)]
    return [Relation.verified(exprs[0] - e, "derivation-split", verify_order)
            for e in exprs[1:]]


def leibniz_relations(w: Parts | list[int], v: Parts | list[int],
                      verify_order: int | None = None) -> Relation:
    """The relation d(w)*v + w*d(v) - d(w*v), all derivatives taken at the
    expression level."""
    w = tuple(w)
    v = tuple(v)
    dw = d_general(w, verify_order)
    dv = d_general(v, verify_order)
    product = quasi_shuffle(word(*w), word(*v))
    body = quasi_shuffle(dw, word(*v)) \
        + quasi_shuffle(word(*w), dv) \
        - d_word_sum(product, verify_order)
    return Relation.verified(body, "leibniz", verify_order)


def proven_relation_corpus(max_weight: int) -> list[Relation]:
    """Proven relations of weight <= max_weight: splits, Leibniz pairs, and
    their closure under two weight-raising moves.

    Split relations exist from weight 4 on; a Leibniz relation for the pair
    (w, v) has weight wt(w) + wt(v) + 2.  A known relation stays a relation
    when multiplied by a bracket or hit with d, so the corpus is closed under
    both moves up to the weight bound.  Proportional duplicates are dropped.
    Every relation passes Relation.verified at the configured order.

    Every body and every word the seeds verify is a composition of weight
    <= max_weight: one capped sweep of them all comes first, and every later
    evaluation reads its cache (order 120 and the default cap admit <= 14).
    """
    bracket_series_many(compositions_up_to(max_weight), _order(None))
    seeds = []
    for k in range(4, max_weight + 1):
        seeds.extend(split_relations(k))
    pairs = list(compositions_up_to(max_weight - 3))
    for i, w in enumerate(pairs):
        for v in pairs[i:]:
            if sum(w) + sum(v) + 2 <= max_weight:
                seeds.append(leibniz_relations(w, v))

    seen: set[WordSum] = set()
    corpus = []
    for relation in seeds:
        key = relation.body.normalized()
        if key not in seen:
            seen.add(key)
            corpus.append(relation)
    frontier = list(corpus)
    while frontier:
        grown = []
        for relation in frontier:
            bodies = [quasi_shuffle(relation.body, word(*c))
                      for c in compositions_up_to(max_weight - relation.weight)]
            if relation.weight + 2 <= max_weight:
                bodies.append(d_word_sum(relation.body))
            for body in bodies:
                key = body.normalized()
                if key in seen:
                    continue
                seen.add(key)
                grown.append(Relation.verified(body, relation.provenance))
        corpus.extend(grown)
        frontier = grown
    return corpus
