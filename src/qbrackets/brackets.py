"""Multiple divisor sums and their generating series ("brackets").

[s_1,...,s_l] denotes the series whose coefficient of q^n is
sigma_{s_1-1,...,s_l-1}(n) / prod (s_i - 1)!, with the multiple divisor sum

    sigma_{r_1,...,r_l}(n) = sum v_1^{r_1} ... v_l^{r_l}

over all representations n = u_1 v_1 + ... + u_l v_l with u_1 > ... > u_l > 0.

Two independent series algorithms live here.  bracket_series sweeps a line
u = 1..order/2 upward through the chain elements, keeping for every suffix
of the requested compositions one packed integer of coefficients, each
slot as wide as the least of three proven bounds on sigma requires (by
partitions, by compositions and by a convolution of single divisor sums;
p(order) is computed only where it can set the width).  A step writes the
weights v^{s-1} of a length-1 suffix straight into their slots, sums a long
run of v by the Eulerian form x P_{s-1}(x)/(1-x)^s in log-many shift-adds,
and a short run term by term; one last pass adds every element above
order/2 at once, and each requested row is unpacked as it is handed on.
bracket_series_oracle runs over the chain from the outermost index inward
with each factor expanded into its coefficients through Eulerian
polynomial coefficients and binomials.  Their agreement is a real
mathematical identity, and the test suite insists on it.

Every entry point checks its order (numbers.as_order), then its compositions
(as_composition), before either reaches the cache, which holds each series
at the highest order asked for: bracket_series and bracket_series_many cut
it to the order asked for, and evaluate reads it as held.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, factorial, isqrt, prod
from operator import index
from typing import Iterable, Iterator, Sequence

from .config import ResourceCap, get_config
from .numbers import as_composition, as_order, eulerian_polynomial
from .series import QSeries, _linear

Parts = tuple[int, ...]


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

# comp -> its series at the highest order requested so far: one entry per
# composition a caller asked for, never a bare suffix of one
_SERIES_CACHE: dict[Parts, QSeries] = {}


@lru_cache(maxsize=64)
def _partition_count(n: int) -> int:
    """p(n), remembered for the orders recent sweeps used."""
    return partition_counts(n)[n]


def _convolution_bound(t: Parts, order: int, m: int) -> int:
    """A bound on sigma_t(m), 1 <= m <= order, non-decreasing in m; the
    proof is in _slot_bytes."""
    num = den = 1
    e_total = 0
    for s in t:
        r = s - 1
        if r >= 2:
            num *= r * factorial(r)
            den *= r - 1
            e_total += r
        elif r == 1:
            num *= 1 + order.bit_length()
            e_total += 1
        else:
            num *= 2 * (isqrt(order) + 1)
    return num * comb(m + e_total - 1, e_total + len(t) - 1) // den


def _slot_bytes(nodes: Iterable[Parts], order: int) -> int:
    """Bytes per packed coefficient: room for sigma_t(m), 0 <= m <= order,
    of every node t, plus one spare bit, rounded up to whole bytes.

    Three proven bounds, each non-decreasing in m, so their least at
    m = order serves every slot.  Let t have weight k, length l and
    r_i = t_i - 1.

    * Partitions.  A representation m = u_1 v_1 + ... + u_l v_l with
      u_1 > ... > u_l > 0 is a partition of m with l distinct part sizes
      (u_i taken v_i times), and every v_i <= m, so
      sigma_t(m) <= m^(k-l) p(m).
    * Compositions.  The products u_i v_i form one of the C(m-1, l-1)
      compositions of m into l parts and each u_i divides its product, so
      sigma_t(m) <= C(m-1, l-1) m^l m^(k-l) <= m^(k+l-1).
    * Convolution (_convolution_bound).  Map each representation to its
      composition n_i = u_i v_i and drop the ordering of the u_i: then u_i
      runs over the divisors of n_i independently, so
      sigma_t(m) <= sum_{n_1+...+n_l=m} prod sigma_{r_i}(n_i).  For
      n <= order, sigma_r(n) <= c n^e with
      r >= 2: c = r/(r-1), e = r, as sigma_r(n) = n^r sum_{d|n} d^-r and
      zeta(r) <= 1 + integral_1^oo x^-r dx = r/(r-1);
      r = 1: c = 1 + bit_length(order), e = 1, as sigma_1(n) <= n H_n and
      H_n <= 1 + ln n <= 1 + log2 n < 1 + bit_length(order);
      r = 0: c = 2 (isqrt(order) + 1), e = 0, as the divisors of n pair
      off as d, n/d with d <= sqrt(n), so d(n) <= 2 sqrt(n) < c.
      Then n^e <= n (n+1) ... (n+e-1) = e! C(n+e-1, e), and as
      sum_{n>=1} C(n+e-1, e) x^n = x/(1-x)^(e+1), the coefficient of x^m
      in x^l/(1-x)^(E+l), E = sum e_i, gives
      sum_{n_1+...+n_l=m} prod C(n_i+e_i-1, e_i) = C(m+E-1, E+l-1), so
      sigma_t(m) <= prod c_i prod e_i! C(m+E-1, E+l-1), and the integer
      part of the right side too.

    p(order) costs O(order^1.5) to compute and is computed only where it
    can set the width.  A partition of n into exactly j parts is one of at
    most j! orderings of a composition of n into j parts, so
    p(n) >= C(n-1, j-1) / j! for j = isqrt(n).  Where order^(k-l) times that
    floor reaches the least of the other two bounds for every node, the
    partition bound is no smaller than that least for any node and cannot
    change the width, so it is skipped.
    """
    least = {t: min(order ** (sum(t) + len(t) - 1),
                    _convolution_bound(t, order, order)) for t in nodes}
    j = isqrt(order)
    floor = comb(order - 1, j - 1) // factorial(j)
    if any(order ** (sum(t) - len(t)) * floor < b for t, b in least.items()):
        p = _partition_count(order)
        least = {t: min(b, order ** (sum(t) - len(t)) * p)
                 for t, b in least.items()}
    return max(least.values()).bit_length() // 8 + 1


def _power_run(p: int, s: int, shift: int, n: int) -> int:
    """sum_{v=1..n} v^(s-1) * (p >> v*shift) for a packed row p with
    p >> (n+1)*shift == 0, in one shift per Eulerian coefficient and s
    log-step prefix sums.

    With x the shift by one step, sum_{v>=1} v^(s-1) x^v = x P(x)/(1-x)^s
    for the Eulerian polynomial P = P_{s-1}: y = x P(x) p takes one term per
    coefficient of P, and each of the s divisions by 1 - x is the prefix
    sum y + x y + x^2 y + ..., built by y += x^k y for k = 1, 2, 4, ... < n.
    Every power x^v with v > n shifts p to zero, so terms x^0..x^(n-1) of
    each prefix sum are all that can add anything, and the passes with
    k < n cover them.
    """
    y = sum(a * (p >> (i + 1) * shift)
            for i, a in enumerate(eulerian_polynomial(s - 1)))
    for _ in range(s):
        k = 1
        while k < n:
            y += y >> k * shift
            k *= 2
    return y


# order // u at or above this multiple of t[0] sums a step by _power_run:
# about s log2(order/u) shift-adds beat order/u multiply-shifts there
_RUN_FACTOR = 8


def _sigma_lists(comps: Iterable[Parts],
                 order: int) -> Iterator[tuple[Parts, list[int]]]:
    """(comp, sigma coefficient list) for many nonempty compositions at once.

    Every suffix t of a composition is a node holding one non-negative
    integer partial[t]: the packed row of the chains of t whose elements all
    lie below the sweep line, the coefficient of q^m in slot order - m of
    _slot_bytes bytes (Kronecker substitution, q^0 in the highest slot).
    partial[()] is the row of the empty chain, 1 at q^0.  At step u every
    node takes the chains whose first element is u:

        partial[t] += sum_v v^(t[0]-1) * (partial[t[1:]] >> u*v*slot)

    where the right shift by u*v slots multiplies by q^(uv) and drops every
    power past q^order.  Nodes are visited longest first, so t[1:] still
    holds the chains below u.  Compositions sharing a suffix share its node,
    and memory is one row per node.  A step takes one of three paths:

    * a node of length 1 (t[1:] = ()) writes v^(s-1), s = t[0], straight
      into slot order - uv of one byte string for v = 1..order//u, and
      reads it as one integer, instead of shifting the unit row;
    * a long run, order//u >= 8 s, sums through _power_run: s - 1 shifts
      by the Eulerian coefficients, then s log-step prefix sums;
    * a shorter run sums its order//u multiply-shifts directly.

    The line stops at h = order//2.  Past it order//u = 1, and a chain of
    weight at most order - u < u, the most that q^u leaves room for, has
    every element at most h, so partial[t[1:]] at step h already holds every
    chain that step u > h can use.  One last pass, longest node first so
    that t[1:] is still at step h, adds sum_{u>h} q^u partial[t[1:]], the
    same log-step prefix sum with s = 1, and updates the rows in place.

    The packing is exact: every intermediate value is a non-negative sum of
    shifted rows with non-negative weights (the Eulerian numbers included),
    coefficientwise at most the node's final row through q^order, and so
    each slot stays below the final sigma_t(m), which fits a slot by the
    _slot_bytes bound; a dropped tail holds only powers past q^order and
    leaves nothing behind.

    Every command and library call that needs series passes through here,
    so this is the one place the work cap is enforced: a sweep whose nodes
    (the suffixes of comps) times order exceed max_cells raises ResourceCap
    at the first next(), before any allocation.  A row is unpacked when it
    is asked for, and its node dropped as it is yielded; nothing is cached.
    """
    comps = set(comps)
    if not comps:
        return
    nodes = {c[i:] for c in comps for i in range(len(c))}
    cells, cap = len(nodes) * order, get_config().max_cells
    if cells > cap:
        raise ResourceCap(f"{len(nodes)} suffix rows x order {order} = "
                          f"{cells} coefficient cells exceed the cap of "
                          f"{cap} (raise --max-cells)")
    width = _slot_bytes(nodes, order)
    bits = 8 * width
    powers = {s: [v ** (s - 1) for v in range(_RUN_FACTOR * s)]
              for s in {t[0] for t in nodes}}
    slot_powers = {s: [(v ** (s - 1)).to_bytes(width, "big")
                       for v in range(order + 1)]
                   for s in {t[0] for t in nodes if len(t) == 1}}
    plan = [(t, t[1:], t[0]) for t in sorted(nodes, key=len, reverse=True)]
    partial = dict.fromkeys(nodes, 0)
    partial[()] = 1 << (order * bits)
    half = order // 2
    for u in range(1, half + 1):
        n = order // u
        step = u * bits
        gap = bytes((u - 1) * width)
        for t, below, s in plan:
            if not below:
                partial[t] += int.from_bytes(
                    gap.join(slot_powers[s][1:n + 1]), "big") << (
                        (order - u * n) * bits)
                continue
            p = partial[below]
            if not p:
                continue
            if n >= _RUN_FACTOR * s:
                partial[t] += _power_run(p, s, step, n)
            else:
                pows = powers[s]
                partial[t] += sum(pows[v] * (p >> (step * v))
                                  for v in range(n, 0, -1))
    for t, below, _ in plan:
        p = partial[below] >> half * bits
        if p:
            partial[t] += _power_run(p, 1, bits, order - half)

    size = (order + 1) * width
    for t in comps:
        packed = partial.pop(t).to_bytes(size, "big")
        yield t, [int.from_bytes(packed[i:i + width], "big")
                  for i in range(0, size, width)]


def _denominator(comp: Parts) -> int:
    return prod(factorial(s - 1) for s in comp)


def _series_many(comps: list[Parts], order: int) -> dict[Parts, QSeries]:
    """The one reader and writer of _SERIES_CACHE.  A composition cached at
    this order or higher is served as held; the others share one sweep, and
    each series is stored as the sweep hands its row on.  A refused sweep
    raises before it hands on the first, so it leaves the cache as it was."""
    misses = {c for c in comps if c and (c not in _SERIES_CACHE
                                         or _SERIES_CACHE[c].order < order)}
    for c, row in _sigma_lists(misses, order):
        _SERIES_CACHE[c] = QSeries(order, tuple(row), _denominator(c))
    return {c: _SERIES_CACHE[c] if c else QSeries.one(order) for c in comps}


def bracket_series_many(comps: Iterable[Parts], order: int) -> dict[Parts, QSeries]:
    """bracket_series for a family of compositions, sharing suffix work."""
    order = as_order(order)
    series = _series_many([as_composition(c) for c in comps], order)
    return {c: s.truncate(order) for c, s in series.items()}


def bracket_series(c: Sequence[int], order: int) -> QSeries:
    """The bracket [c] as an exact series through q^order."""
    order, comp = as_order(order), as_composition(c)
    return _series_many([comp], order)[comp].truncate(order)


# ---------------------------------------------------------------------------
# oracle algorithm: prefix recursion with Eulerian-kernel factors
# ---------------------------------------------------------------------------

# keyed by (part, order), each entry order + 1 integers: verify, the
# weight-9 corpus and an order-1000 oracle call leave about 7 of them
@lru_cache(maxsize=32)
def _kernel_row(s: int, n_max: int) -> tuple[int, ...]:
    """Coefficients of z^0 .. z^n_max in z P_{s-1}(z)/(1-z)^s, the factor
    generating v^{s-1} summed over v >= 1 (its (s-1)! is divided out later),
    expanded through the Eulerian polynomial P_{s-1} and binomials instead
    of power sums; the coefficient of z^w is w^{s-1}."""
    eulerian = eulerian_polynomial(s - 1)
    return (0, *(sum(a * comb(w - 1 - i + s - 1, s - 1)
                     for i, a in enumerate(eulerian[:w]))
                 for w in range(1, n_max + 1)))


def bracket_series_oracle(c: Sequence[int], order: int) -> QSeries:
    """Independent recomputation of bracket_series; see the module docstring."""
    order, comp = as_order(order), as_composition(c)
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
    order = as_order(order)
    return _oracle_many([as_composition(c) for c in comps], order)


# ---------------------------------------------------------------------------
# partitions
# ---------------------------------------------------------------------------

def partition_counts(n_max: int) -> list[int]:
    """p(0..n_max) by the Euler pentagonal-number recurrence."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
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
    order = as_order(order)
    ones = [(1,) * l for l in range(1, order + 1) if l * (l + 1) // 2 <= order]
    total = _linear(order, ((1, s) for s in bracket_series_many(ones, order).values()))
    p = partition_counts(order)
    return total.den == 1 and list(total.nums[1:]) == p[1:]
