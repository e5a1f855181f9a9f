from collections import Counter
from fractions import Fraction

from math import factorial, perm

import pytest
from mpmath import mp, mpf, pi, workdps, zeta as mp_zeta

from qbrackets import (Z_k_alg, Z_k_symbolic, compositions, d_general,
                       delta_representations, mzv, mzv_oracle,
                       proven_relation_corpus, word)
from qbrackets import zeta
from qbrackets.numbers import bernoulli


def _mpf(x: Fraction) -> mpf:
    """An exact value or bound as an mpf at the working precision."""
    return mpf(x.numerator) / x.denominator


def test_mzv_single_against_mpmath():
    with workdps(50):
        for s in (2, 3, 4, 8):
            got = mzv((s,))
            want = mp_zeta(s)
            assert abs(_mpf(got.value) - want) <= _mpf(got.error_bound)
            assert _mpf(got.error_bound) < mpf("1e-20")


def test_mzv_zeta2_closed_form():
    with workdps(50):
        got = mzv((2,))
        assert abs(_mpf(got.value) - pi ** 2 / 6) < mpf("1e-40")


def test_mzv_depth_two_identities():
    with workdps(50):
        assert abs(_mpf(mzv((2, 1)).value) - _mpf(mzv((3,)).value)) \
            < mpf("1e-40")
        assert abs(_mpf(mzv((4,)).value) - 4 * _mpf(mzv((3, 1)).value)) \
            < mpf("1e-40")
        assert abs(_mpf(mzv((4,)).value)
                   - _mpf(Fraction(4, 3) * mzv((2, 2)).value)) < mpf("1e-40")


def test_mzv_rejects_divergent_index():
    with pytest.raises(ValueError):
        mzv((1, 2))
    with pytest.raises(ValueError):
        mzv(())
    with pytest.raises(ValueError):
        mzv((2, 0))


def test_mzv_agrees_with_plain_summation():
    for comp in [(2,), (3,), (2, 1), (3, 1), (2, 2), (2, 1, 1)]:
        fast = float(mzv(comp).value)
        slow = mzv_oracle(comp)
        assert abs(fast - slow) / abs(slow) < 1e-2


def test_mzv_respects_target_error():
    loose = mzv((2, 1), target_error=1e-6)
    assert _mpf(loose.error_bound) < mpf("1e-6")


@pytest.mark.parametrize("index", [(2,), (3, 1), (2, 2, 1)])
def test_mzv_default_target_is_ten_to_the_minus_ten(index):
    z = mzv(index)
    assert z.error_bound <= 1e-10
    assert z == mzv(index, 1e-10)


def _clear_shared_rows():
    zeta._psi_expansion.cache_clear()
    zeta._inverse_powers.cache_clear()


@pytest.fixture
def cold_mzv_cache(monkeypatch):
    """Empty the MZV cache and the tail expansions and power rows every
    index shares, and count _nested_value calls per index."""
    monkeypatch.setattr(zeta, "_MZV_CACHE", {})
    _clear_shared_rows()
    calls = Counter()
    nested = zeta._nested_value

    def counting(comp, level):
        calls[comp] += 1
        return nested(comp, level)

    monkeypatch.setattr(zeta, "_nested_value", counting)
    return calls


def test_mzv_evaluates_each_index_once_per_level(cold_mzv_cache):
    mzv((3, 1), 1e-10)
    mzv((3, 1), 1e-12)
    assert cold_mzv_cache == {(3, 1): 1}
    # per-term targets 5e-14 and 1.25e-14, both met at level 0
    mzv((4,), 1e-10)
    image = Z_k_symbolic(word(4).scale(1000) - word(3, 1).scale(4000), 4)
    assert abs(image.value) <= image.error_bound
    assert cold_mzv_cache == {(3, 1): 1, (4,): 1}


def test_mzv_target_only_picks_the_level(cold_mzv_cache):
    high = mzv((3, 1), 1e-60)
    assert _mpf(high.error_bound) <= mpf("1e-60")
    warm = mzv((3, 1), 1e-10)
    assert cold_mzv_cache == {(3, 1): 2}
    zeta._MZV_CACHE.clear()
    cold = mzv((3, 1), 1e-10)
    assert (warm.value, warm.error_bound) == (cold.value, cold.error_bound)
    assert warm.error_bound > high.error_bound
    with pytest.raises(ArithmeticError):
        mzv((2,), 1e-300)


@pytest.mark.parametrize("target", [0.0, -1e-10, float("nan")])
def test_mzv_rejects_a_target_that_is_not_positive(cold_mzv_cache, target):
    # NaN compares false both ways; it must be refused before any level runs
    with pytest.raises(ValueError):
        mzv((3,), target)
    assert cold_mzv_cache == {}


@pytest.mark.parametrize("index, value, bound", [
    ((2,), "1.6449340668482264364724151666460251892189499012068", "1.0e-48"),
    ((3, 1), "0.27058080842778454787900092413529197569368773797968",
     "1.0e-48"),
    ((2, 2, 1), "0.22881039760335375976874614894168879193250934271988",
     "1.0e-48"),
    ((5, 3, 2), "0.00079909456688643498205815901267234513017873386123163",
     "1.0e-48"),
])
def test_mzv_pinned_values(index, value, bound):
    z = mzv(index, 1e-10)  # the default target
    with workdps(60):
        assert mp.nstr(_mpf(z.value), 50) == value
        assert mp.nstr(_mpf(z.error_bound), 5) == bound


# value and error_bound of the evaluator as integers V and U over 2^bits:
# value = V / 2^bits and error_bound = U / 2^bits + 10^(12 - digits).
# Target 1e-10 is level 0 (232 bits, 60 digits), 1e-60 level 1 (298 bits,
# 80 digits).
LEVEL_SCALE = {1e-10: (232, 10 ** 48), 1e-60: (298, 10 ** 68)}

PINNED_BITS = [
    ((2,), 1e-10,
     11352917686581091850472082280666787791976389591840550498045633272245132,
     27307697),
    ((2,), 1e-60,
     837697468217008435269572325201621146138885225978197932518466104660582637551888630140139049,
     3752155711230696901),
    ((3, 1), 1e-10,
     1867480106078099396916984139156316497990635458106309006454567353735178,
     113876208),
    ((3, 1), 1e-60,
     137795710318266659409195273965231440374422417176331646443554155936566754754788000863558198,
     14730369017554569143),
    ((2, 2, 1), 1e-10,
     1579191325766643183363065272391335688379147536196335044918212749671329,
     1220058752),
    ((2, 2, 1), 1e-60,
     116523752919357420323917522520990597699600668848840772036710997176003527612161948096182030,
     179165889529058926100),
    ((5, 3, 2), 1e-10,
     5515148007748640461702750411011099171442987977942765044392157573357,
     5835),
    ((5, 3, 2), 1e-60,
     406946095310273094768401691974085920975234955802238355949961903596532692562751786878555,
     62357825664658),
    ((9, 3), 1e-10,
     13910317998641759046438060348357017915990714963387016392944613214058,
     880),
    ((9, 3), 1e-60,
     1026400304419440717420742269716615521175355112724496082779886084579768999173305569852387,
     413005),
    ((12,), 1e-10,
     6903444773760851891109892157691996244468506994684119943742042791271001,
     287),
    ((12,), 1e-60,
     509384315874216683747804045633790772385055092819507569114520168065652145009391451700340063,
     543),
]


@pytest.mark.parametrize("index, target, value, bound", PINNED_BITS)
def test_mzv_pinned_bits(cold_mzv_cache, index, target, value, bound):
    bits, cushion = LEVEL_SCALE[target]
    z = mzv(index, target)
    assert (z.value, z.error_bound) == (
        Fraction(value, 1 << bits),
        Fraction(bound, 1 << bits) + Fraction(1, cushion))


def _bits(indices, targets):
    return {(c, t): (mzv(c, t).value, mzv(c, t).error_bound)
            for c in indices for t in targets}


def test_shared_rows_give_the_bits_of_a_cold_evaluation(cold_mzv_cache):
    asked = [(2, 2, 1), (9, 3)]
    levels = (1e-10, 1e-60)        # levels 0 and 1
    cold = _bits(asked, levels)
    zeta._MZV_CACHE.clear()
    _clear_shared_rows()
    # other indices and levels fill the shared caches first; (3, 2, 1) and
    # (9,) share rows and expansions with the indices asked for
    for c in [(3, 2, 1), (9,), (2, 1, 1, 2), (12,)]:
        for target in (1e-10, 1e-60, 1e-75):
            mzv(c, target)
    hits = zeta._inverse_powers.cache_info().hits
    psi_hits = zeta._psi_expansion.cache_info().hits
    assert _bits(asked, levels) == cold
    assert zeta._inverse_powers.cache_info().hits > hits
    assert zeta._psi_expansion.cache_info().hits > psi_hits


def test_shared_caches_stay_bounded(cold_mzv_cache):
    # 1e-95 takes (5, 4, 3, 2, 1, 1) through all five levels: 25 power
    # rows (letters 1..5 at five precisions), one more than the row cache
    # holds
    mzv((5, 4, 3, 2, 1, 1), 1e-95)
    mzv((2, 2, 1), 1e-95)
    assert {level for c, level in zeta._MZV_CACHE
            if c == (5, 4, 3, 2, 1, 1)} == set(range(zeta._LEVELS))
    rows = zeta._inverse_powers.cache_info()
    assert rows.misses > rows.maxsize
    for cache in (zeta._inverse_powers, zeta._psi_expansion):
        info = cache.cache_info()
        assert info.maxsize is not None
        assert info.currsize <= info.maxsize


def _shared(bits):
    terms, env, env_e = zeta._psi_expansion(3, 256, 28, bits)
    row, total = zeta._inverse_powers(3, 256, bits)
    return dict(terms), env, env_e, row, total


def test_shared_expansions_follow_the_working_precision():
    _clear_shared_rows()
    low, high = _shared(232), _shared(298)
    assert low[0] != high[0] and low[1] != high[1] and low[4] != high[4]
    # the row of powers is exact, the same at every precision
    assert low[3] == high[3]
    _clear_shared_rows()
    assert (_shared(298), _shared(232)) == (high, low)


def test_shared_expansions_are_read_only():
    terms, _, _ = zeta._psi_expansion(3, 256, 28, 232)
    row, _ = zeta._inverse_powers(3, 256, 232)
    with pytest.raises(TypeError):
        terms[2] = 0
    assert isinstance(row, tuple)


def _psi_reference(sigma, cutoff, emax, bits):
    """The expansion of _psi_expansion from its Euler-Maclaurin terms,
    rebuilt from the Bernoulli numbers on every call."""
    shift = cutoff.bit_length() - 1
    j = zeta._MAX_EM_TERMS
    exact = {sigma - 1: Fraction(1, sigma - 1), sigma: Fraction(-1, 2)}
    for i in range(1, j + 1):
        exact[sigma + 2 * i - 1] = (bernoulli(2 * i) / factorial(2 * i)
                                    * perm(sigma + 2 * i - 2, 2 * i - 1))
    env_e = sigma + 2 * j + 1
    env = zeta._ceil_scaled(abs(bernoulli(2 * j + 2)) / factorial(2 * j + 2)
                            * perm(sigma + 2 * j, 2 * j + 1),
                            bits - shift * (env_e - sigma))
    terms = {}
    for e, a in exact.items():
        if e <= emax:
            terms[e] = zeta._floor_scaled(a, bits - shift * (e - sigma))
        else:
            env += zeta._ceil_scaled(abs(a), bits - shift * (e - sigma))
            env_e = min(env_e, e)
    return terms, env, env_e


@pytest.mark.parametrize("sigma, cutoff, emax, bits", [
    (2, 256, 28, 232), (3, 256, 28, 298), (3, 512, 9, 232), (7, 1024, 40, 400),
    (12, 4096, 20, 310), (30, 256, 100, 232)])
def test_psi_expansion_matches_the_uncached_formula(sigma, cutoff, emax, bits):
    _clear_shared_rows()
    for _ in range(2):      # computed, then read back from the caches
        terms, env, env_e = zeta._psi_expansion(sigma, cutoff, emax, bits)
        assert (dict(terms), env, env_e) == _psi_reference(sigma, cutoff,
                                                           emax, bits)
    # other keys with the same sigma reuse its exact coefficients
    misses = zeta._em_coefficients.cache_info().misses
    for key in [(2 * cutoff, emax, bits), (cutoff, emax + 1, bits + 1)]:
        assert dict(zeta._psi_expansion(sigma, *key)[0]) == \
            _psi_reference(sigma, *key)[0]
    assert zeta._em_coefficients.cache_info().misses == misses
    assert zeta._em_coefficients.cache_info().maxsize is not None


def test_mzv_cache_evicts_the_oldest_past_its_cap(cold_mzv_cache,
                                                  monkeypatch):
    assert zeta._MZV_CACHE_SIZE >= 2 ** 11     # every index up to weight 12
    monkeypatch.setattr(zeta, "_MZV_CACHE_SIZE", 3)
    indices = [(2,), (3,), (2, 1), (4,), (3, 1)]
    for c in indices:
        mzv(c, 1e-10)
        assert len(zeta._MZV_CACHE) == min(3, indices.index(c) + 1)
    assert list(zeta._MZV_CACHE) == [(c, 0) for c in indices[-3:]]


def _admissible(weight, depth):
    return [c for c in compositions(weight, depth) if c[0] >= 2]


@pytest.mark.parametrize("weight", range(2, 9))
def test_mzv_sum_theorem(weight):
    # Granville: the admissible indices of weight k and depth r sum to
    # zeta(k), for each r < k
    whole = mzv((weight,), 1e-10)
    for depth in range(1, weight):
        values = [mzv(c, 1e-10) for c in _admissible(weight, depth)]
        total = sum(z.value for z in values)
        bound = sum(z.error_bound for z in values) + whole.error_bound
        assert abs(total - whole.value) <= bound, depth


def test_mzv_levels_agree_within_their_bounds():
    indices = [c for k in range(2, 9) for r in range(1, k)
               for c in _admissible(k, r)]
    assert len(indices) == 127
    for c in indices:
        low, high = mzv(c, 1e-10), mzv(c, 1e-60)      # levels 0 and 1
        assert high.error_bound < low.error_bound
        assert abs(low.value - high.value) \
            <= low.error_bound + high.error_bound, c


def test_z_symbolic_kernel_of_derivative():
    image = Z_k_symbolic(d_general((1,)), 3)
    assert image.combination == {(3,): 1, (2, 1): -1}
    assert abs(image.value) <= image.error_bound


def test_z_symbolic_drops_lower_weight():
    image = Z_k_symbolic(word(2), 4)
    assert image.combination == {}
    assert image.value == 0


def test_z_symbolic_rejects_bad_terms():
    with pytest.raises(ValueError):
        Z_k_symbolic(word(1, 2), 3)
    with pytest.raises(ValueError):
        Z_k_symbolic(word(3, 2), 4)


def test_z_alg_on_weight8_relation():
    combo = word(4, 4).scale(12) - word(8) \
        + word(4).scale(Fraction(1, 40)) - word(2).scale(Fraction(1, 252))
    # only the weight-8 part survives Z_8
    image = Z_k_symbolic(combo, 8)
    assert abs(image.value) <= image.error_bound


def test_z_alg_derivative_image_vanishes():
    poly = Z_k_alg(d_general((1, 1)), 4)
    assert poly.weight == 4
    assert len(poly.coefficients) <= 5
    assert all(abs(v) <= e for v, e in poly.coefficients)


def test_z_alg_images_of_proven_relations_lie_within_their_bounds():
    # the sum of a Z_k image is exact: only the bounds of its MZVs count
    images = [Z_k_alg(r.body, r.weight) for r in proven_relation_corpus(6)]
    images += [Z_k_alg(rep, 12) for rep in delta_representations()]
    outside = [(i, j) for i, poly in enumerate(images)
               for j, (v, e) in enumerate(poly.coefficients)
               if not abs(v) <= e]
    assert sum(len(p.coefficients) for p in images) == 43
    assert outside == []


def test_z_alg_rejects_overweight():
    with pytest.raises(ValueError):
        Z_k_alg(word(3, 2), 4)

