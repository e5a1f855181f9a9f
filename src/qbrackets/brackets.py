"""Multiple divisor sums and their generating series ("brackets").

[s_1,...,s_l] denotes the series whose coefficient of q^n is
sigma_{s_1-1,...,s_l-1}(n) / prod (s_i - 1)!, with the multiple divisor sum

    sigma_{r_1,...,r_l}(n) = sum v_1^{r_1} ... v_l^{r_l}

over all representations n = u_1 v_1 + ... + u_l v_l with u_1 > ... > u_l > 0.

Two independent series algorithms live here.  bracket_series sweeps a line
u = 1..order upward through the chain elements, keeping for every suffix of
the requested compositions one packed integer of coefficients (slots wide
enough by a proven bound on sigma) and summing the inner weights v^{s-1}
directly; bracket_series_oracle runs over the chain from the outermost index
inward with each factor expanded through Eulerian polynomial coefficients
and binomials instead of power sums.  Their agreement is a real mathematical
identity, and the test suite insists on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, prod
from operator import index
from typing import Iterable, Sequence

from .config import ResourceCap, get_config
from .numbers import as_composition, eulerian_polynomial
from .series import QSeries

Parts = tuple[int, ...]


class Composition(tuple):
    """A tuple of positive integer parts; () stands for the empty bracket."""

    __slots__ = ()

    def __new__(cls, parts: Iterable[int] = ()):
        return super().__new__(cls, as_composition(parts))

    @property
    def weight(self) -> int:
        return sum(self)

    @property
    def length(self) -> int:
        return len(self)

    @property
    def admissible(self) -> bool:
        return len(self) == 0 or self[0] > 1

    def __repr__(self) -> str:
        return "[" + ",".join(str(p) for p in self) + "]"


def canonical_key(parts: Sequence[int]) -> tuple[int, int, Parts]:
    """Sort key for the canonical composition order: ascending weight, then
    ascending length, then lexicographic on the parts."""
    t = tuple(parts)
    return (sum(t), len(t), t)


def multiple_divisor_sum(r: Sequence[int], n: int) -> int:
    """sigma_{r_1,...,r_l}(n) by direct enumeration of the (u, v) tuples."""
    r = tuple(map(index, r))
    n = index(n)
    if not r:
        raise ValueError("r must be non-empty")
    if any(x < 0 for x in r):
        raise ValueError("exponents must be non-negative")
    if n < 1:
        raise ValueError("n must be positive")
    l = len(r)

    def rec(i: int, u_bound: int, budget: int) -> int:
        if i == l:
            return 1 if budget == 0 else 0
        slots_left = l - i           # this element and everything below it
        tail_min = (slots_left - 1) * slots_left // 2   # cheapest completion below u
        total = 0
        for u in range(slots_left, u_bound):
            vmax = (budget - tail_min) // u
            for v in range(1, vmax + 1):
                total += v ** r[i] * rec(i + 1, u, budget - u * v)
        return total

    return rec(0, n + 1, n)


# ---------------------------------------------------------------------------
# primary algorithm: a sweep line over packed suffix rows
# ---------------------------------------------------------------------------

# comp -> (order, sigma list); sigma[m] is the integer multiple divisor sum
_SIGMA_CACHE: dict[Parts, tuple[int, list[int]]] = {}


def _slot_bytes(nodes: Iterable[Parts], order: int) -> int:
    """Bytes per packed coefficient: room for sigma_t(m), 0 <= m <= order,
    of every node t, plus one spare bit, rounded up to whole bytes.

    A representation m = u_1 v_1 + ... + u_l v_l with u_1 > ... > u_l > 0 is a
    partition of m with l distinct part sizes (u_i taken v_i times), and
    every v_i <= m, so sigma_t(m) <= m^(k-l) p(m) for t of weight k and
    length l.  Independently, the products u_i v_i form one of the
    C(m-1, l-1) compositions of m into l parts and each u_i divides its
    product, so sigma_t(m) <= C(m-1, l-1) m^l m^(k-l) <= m^(k+l-1).  Both
    bounds grow with m; the smaller one at m = order serves every slot.
    """
    p = partition_counts(order)[order]
    bits = max(min((order ** (sum(t) - len(t)) * p).bit_length(),
                   (order ** (sum(t) + len(t) - 1)).bit_length())
               for t in nodes)
    return bits // 8 + 1


def _sigma_lists(comps: Iterable[Parts], order: int) -> dict[Parts, list[int]]:
    """Integer sigma coefficient lists for many nonempty compositions at once.

    Every suffix t of a composition is a node holding one non-negative
    integer partial[t]: the packed row of the chains of t whose elements all
    lie below the sweep line, the coefficient of q^m in slot order - m of
    _slot_bytes bytes (Kronecker substitution, q^0 in the highest slot).
    partial[()] is the row of the empty chain, 1 at q^0.  At step
    u = 1..order every node takes the chains whose first element is u:

        partial[t] += sum_v v^(t[0]-1) * (partial[t[1:]] >> u*v*slot)

    where the right shift by u*v slots multiplies by q^(uv) and drops every
    power past q^order.  Nodes are visited longest first, so t[1:] still
    holds the chains below u.  Compositions sharing a suffix share its node,
    and memory is one row per node.

    The packing is exact: every term is non-negative, so each slot of an
    intermediate value is at most the final sigma_t(m) of its node, which
    fits a slot by the _slot_bytes bound; a dropped tail is below
    2^(u*v*slot bits) and leaves nothing behind.

    Every command and library call that needs series passes through here,
    so this is the one place the work cap is enforced: a sweep whose nodes
    (the suffixes of the compositions not already cached) times order exceed
    max_cells raises ResourceCap before any allocation, and leaves
    _SIGMA_CACHE as it was.
    """
    out: dict[Parts, list[int]] = {}
    todo: set[Parts] = set()
    for comp in comps:
        cached = _SIGMA_CACHE.get(comp)
        if cached is not None and cached[0] >= order:
            out[comp] = cached[1][: order + 1]
        else:
            todo.add(comp)
    if not todo:
        return out

    nodes = {c[i:] for c in todo for i in range(len(c))}
    cells, cap = len(nodes) * order, get_config().max_cells
    if cells > cap:
        raise ResourceCap(f"{len(nodes)} suffix rows x order {order} = "
                          f"{cells} coefficient cells exceed the cap of "
                          f"{cap} (raise --max-cells)")
    width = _slot_bytes(nodes, order)
    bits = 8 * width
    powers = {s: [v ** (s - 1) for v in range(order + 1)]
              for s in {t[0] for t in nodes}}
    plan = [(t, t[1:], powers[t[0]])
            for t in sorted(nodes, key=len, reverse=True)]
    partial = dict.fromkeys(nodes, 0)
    partial[()] = 1 << (order * bits)
    for u in range(1, order + 1):
        step = u * bits
        vs = range(order // u, 0, -1)
        for t, below, pows in plan:
            p = partial[below]
            if p:
                partial[t] += sum(pows[v] * (p >> (step * v)) for v in vs)

    size = (order + 1) * width
    for t in nodes:
        packed = partial[t].to_bytes(size, "big")
        row = [int.from_bytes(packed[i:i + width], "big")
               for i in range(0, size, width)]
        cached = _SIGMA_CACHE.get(t)
        if cached is None or cached[0] < order:
            _SIGMA_CACHE[t] = (order, row)
        if t in todo:
            out[t] = row
    return out


def _validated(comps: Iterable[Sequence[int]], order: int) -> list[Parts]:
    """The compositions through as_composition, after the order check every
    series entry point makes, so no bad input reaches the exact cache."""
    if order < 1:
        raise ValueError("order must be at least 1")
    return [as_composition(c) for c in comps]


def _denominator(comp: Parts) -> int:
    return prod(factorial(s - 1) for s in comp)


def _series_many(comps: list[Parts], order: int) -> dict[Parts, QSeries]:
    sigma = _sigma_lists([c for c in comps if c], order)
    return {c: QSeries(order, tuple(sigma[c]), _denominator(c)) if c
            else QSeries.one(order) for c in comps}


def bracket_series_many(comps: Iterable[Parts], order: int) -> dict[Parts, QSeries]:
    """bracket_series for a family of compositions, sharing suffix work."""
    return _series_many(_validated(comps, order), order)


def bracket_series(c: Sequence[int], order: int) -> QSeries:
    """The bracket [c] as an exact series through q^order."""
    [comp] = _validated([c], order)
    return _series_many([comp], order)[comp]


# ---------------------------------------------------------------------------
# oracle algorithm: prefix recursion with Eulerian-kernel factors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EulerianKernel:
    """The factor z P_{s-1}(z)/((s-1)! (1-z)^s), i.e. the generating function
    of v^{s-1}/(s-1)! summed over v >= 1, expanded without power sums."""

    s: int

    def integer_coefficient(self, w: int) -> int:
        """Coefficient of z^w in z P_{s-1}(z)/(1-z)^s; equals w^{s-1}."""
        if w < 1:
            return 0
        poly = eulerian_polynomial(self.s - 1)
        total = 0
        for i, a in enumerate(poly.coefficients):
            if i > w - 1:
                break
            total += a * comb(w - 1 - i + self.s - 1, self.s - 1)
        return total

    def coefficient(self, w: int) -> Fraction:
        return Fraction(self.integer_coefficient(w), factorial(self.s - 1))


@lru_cache(maxsize=None)
def _kernel_row(s: int, n_max: int) -> tuple[int, ...]:
    kernel = EulerianKernel(s)
    return tuple(kernel.integer_coefficient(w) for w in range(n_max + 1))


def bracket_series_oracle(c: Sequence[int], order: int) -> QSeries:
    """Independent recomputation of bracket_series; see the module docstring."""
    [comp] = _validated([c], order)
    return _oracle_many([comp], order)[comp]


def _oracle_many(comps: list[Parts], order: int) -> dict[Parts, QSeries]:
    n_max = order
    trie: dict = {}
    for comp in comps:
        node = trie
        for part in comp:
            node = node.setdefault(part, {})
            node.setdefault(None, None)
        node[None] = comp

    unit = [1] + [0] * n_max
    root_over = [unit] * (n_max + 1)  # over[n]: chains so far, all elements > n
    out: dict[Parts, QSeries] = {(): QSeries.one(order)} if () in comps else {}

    def dfs(node: dict, over: list) -> None:
        for part, sub in node.items():
            if part is None:
                continue
            kern = _kernel_row(part, n_max)
            levels: list = [None] * (n_max + 1)   # A[n]: new element exactly at n
            for n in range(1, n_max + 1):
                src = over[n]
                a = [0] * (n_max + 1)
                for w in range(1, n_max // n + 1):
                    kw = kern[w]
                    base = n * w
                    for m in range(base, n_max + 1):
                        x = src[m - base]
                        if x:
                            a[m] += kw * x
                levels[n] = a
            # suffix sums: chains with smallest element > n
            child_over: list = [None] * (n_max + 1)
            acc = [0] * (n_max + 1)
            for n in range(n_max, 0, -1):
                acc = [p + q for p, q in zip(acc, levels[n])]
                child_over[n - 1] = acc
            for n in range(1, n_max + 1):
                if child_over[n] is None:
                    child_over[n] = [0] * (n_max + 1)
            comp = sub.get(None)
            if comp is not None:
                out[comp] = QSeries(n_max, tuple(child_over[0]), _denominator(comp))
            dfs(sub, child_over)

    dfs(trie, root_over)
    return out


def bracket_series_oracle_many(comps: Iterable[Parts], order: int) -> dict[Parts, QSeries]:
    return _oracle_many(_validated(comps, order), order)


# ---------------------------------------------------------------------------
# partitions
# ---------------------------------------------------------------------------

def partition_counts(n_max: int) -> list[int]:
    """p(0..n_max) by the Euler pentagonal-number recurrence."""
    p = [0] * (n_max + 1)
    p[0] = 1
    for n in range(1, n_max + 1):
        total = 0
        j = 1
        while True:
            g1 = j * (3 * j - 1) // 2
            if g1 > n:
                break
            sign = -1 if j % 2 == 0 else 1
            total += sign * p[n - g1]
            g2 = j * (3 * j + 1) // 2
            if g2 <= n:
                total += sign * p[n - g2]
            j += 1
        p[n] = total
    return p


def partition_identity_check(order: int) -> bool:
    """sum_l [1,...,1] (l ones) counts all partitions: coefficient of q^n is
    p(n) whenever every l with l(l+1)/2 <= n is included."""
    if order < 1:
        raise ValueError("order must be at least 1")
    ones = [(1,) * l for l in range(1, order + 1) if l * (l + 1) // 2 <= order]
    total = sum(bracket_series_many(ones, order).values(), QSeries.zero(order))
    p = partition_counts(order)
    return all(total.coefficient(n) == p[n] for n in range(1, order + 1))
