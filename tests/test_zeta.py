from fractions import Fraction

from math import factorial, perm

import pytest
from mpmath import mp, mpf, pi, workdps, zeta as mp_zeta

from qbrackets import (Z_k_alg, Z_k_symbolic, compositions, d_general,
                       delta_representations, mzv,
                       proven_relation_corpus, word, WordSum)
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
        assert abs(_mpf(mzv((2, 1, 1)).value) - _mpf(mzv((4,)).value)) \
            < mpf("1e-40")


def test_mzv_rejects_divergent_index():
    with pytest.raises(ValueError):
        mzv((1, 2))
    with pytest.raises(ValueError):
        mzv(())
    with pytest.raises(ValueError):
        mzv((2, 0))


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


def _evaluations():
    return zeta._nested_value.cache_info().misses


@pytest.fixture
def cold_mzv_cache():
    """Empty the MZV cache and the tail expansions and power rows every
    index shares; _evaluations() then counts the indices evaluated."""
    zeta._nested_value.cache_clear()
    _clear_shared_rows()


def test_mzv_evaluates_each_index_once(cold_mzv_cache):
    mzv((3, 1), 1e-10)
    mzv((3, 1), 1e-12)
    assert _evaluations() == 1
    # per-term targets 5e-14 and 1.25e-14 read the same values
    mzv((4,), 1e-10)
    image = Z_k_symbolic(word(4).scale(1000) - word(3, 1).scale(4000), 4)
    assert abs(image.value) <= image.error_bound
    assert _evaluations() == 2


def test_mzv_target_below_the_bound_raises(cold_mzv_cache):
    z = mzv((3, 1), 1e-10)
    # there is no higher precision: the one value is not evaluated again
    with pytest.raises(ArithmeticError, match=r"zeta\(3, 1\)"):
        mzv((3, 1), 1e-60)
    assert _evaluations() == 1
    assert mzv((3, 1), z.error_bound) is z
    with pytest.raises(ArithmeticError):
        mzv((2,), 1e-300)


@pytest.mark.parametrize("target", [0.0, -1e-10, float("nan"),
                                    Fraction(0), Fraction(-1, 10 ** 400)])
def test_mzv_rejects_a_target_that_is_not_positive(cold_mzv_cache, target):
    # NaN compares false both ways; it must be refused before any evaluation
    with pytest.raises(ValueError):
        mzv((3,), target)
    assert _evaluations() == 0


@pytest.mark.parametrize("coeff", [10 ** 40, 10 ** 400])
def test_z_symbolic_names_the_index_a_large_coefficient_cannot_reach(coeff):
    # the target 1e-10 / coeff is below the bound of zeta(2), and a
    # coefficient too large for a float still gets that exact comparison
    with pytest.raises(ArithmeticError, match=r"zeta\(2,\)") as raised:
        Z_k_symbolic(WordSum({(2,): coeff}), 2)
    assert type(raised.value) is ArithmeticError


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


# value and error_bound of the evaluator as integers V and U over 2^232:
# value = V / 2^232 and error_bound = U / 2^232 + 10^-48 (232 bits for 60
# digits at cutoff 256).
PINNED_BITS = [
    ((2,), 1e-10,
     11352917686581091850472082280666787791976389591840550498045633272245132,
     27307697),
    ((3, 1), 1e-10,
     1867480106078099396916984139156316497990635458106309006454567353735178,
     113876208),
    ((2, 2, 1), 1e-10,
     1579191325766643183363065272391335688379147536196335044918212749671329,
     1220058752),
    ((5, 3, 2), 1e-10,
     5515148007748640461702750411011099171442987977942765044392157573357,
     5835),
    ((9, 3), 1e-10,
     13910317998641759046438060348357017915990714963387016392944613214058,
     880),
    ((12,), 1e-10,
     6903444773760851891109892157691996244468506994684119943742042791271001,
     287),
]


@pytest.mark.parametrize("index, target, value, bound", PINNED_BITS)
def test_mzv_pinned_bits(cold_mzv_cache, index, target, value, bound):
    z = mzv(index, target)
    assert (z.value, z.error_bound) == (
        Fraction(value, 1 << 232),
        Fraction(bound, 1 << 232) + Fraction(1, 10 ** 48))


def _bits(indices):
    return {c: (mzv(c).value, mzv(c).error_bound) for c in indices}


def test_shared_rows_give_the_bits_of_a_cold_evaluation(cold_mzv_cache):
    asked = [(2, 2, 1), (9, 3)]
    cold = _bits(asked)
    zeta._nested_value.cache_clear()
    _clear_shared_rows()
    # other indices fill the shared caches first; (3, 2, 1) and (9,) share
    # rows and expansions with the indices asked for
    for c in [(3, 2, 1), (9,), (2, 1, 1, 2), (12,)]:
        mzv(c)
    hits = zeta._inverse_powers.cache_info().hits
    psi_hits = zeta._psi_expansion.cache_info().hits
    assert _bits(asked) == cold
    assert zeta._inverse_powers.cache_info().hits > hits
    assert zeta._psi_expansion.cache_info().hits > psi_hits


def test_mzv_caches_stay_bounded(cold_mzv_cache):
    # one power row per letter: letters 2..18 are one more than the row
    # cache holds
    for s in range(2, 19):
        mzv((s,))
    rows = zeta._inverse_powers.cache_info()
    assert rows.misses > rows.maxsize
    assert zeta._nested_value.cache_info().maxsize >= 2 ** 11  # weight <= 12
    for cache in (zeta._nested_value, zeta._inverse_powers,
                  zeta._psi_expansion):
        info = cache.cache_info()
        assert info.maxsize is not None
        assert info.currsize <= info.maxsize


def test_shared_expansions_are_read_only():
    terms, _, _ = zeta._psi_expansion(3, 28)
    row, _ = zeta._inverse_powers(3)
    with pytest.raises(TypeError):
        terms[2] = 0
    assert isinstance(row, tuple)


def _psi_reference(sigma, emax):
    """The expansion of _psi_expansion from its Euler-Maclaurin terms,
    rebuilt from the Bernoulli numbers on every call, at cutoff 2^8 and
    232 bits."""
    shift, bits = 8, 232
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


@pytest.mark.parametrize("sigma, emax", [
    (2, 28), (3, 28), (3, 9), (7, 40), (12, 20), (30, 100)])
def test_psi_expansion_matches_the_uncached_formula(sigma, emax):
    _clear_shared_rows()
    for _ in range(2):      # computed, then read back from the caches
        terms, env, env_e = zeta._psi_expansion(sigma, emax)
        assert (dict(terms), env, env_e) == _psi_reference(sigma, emax)
    # other caps with the same sigma reuse its exact coefficients
    misses = zeta._em_coefficients.cache_info().misses
    for cap in (emax - 1, emax + 1):
        assert dict(zeta._psi_expansion(sigma, cap)[0]) == \
            _psi_reference(sigma, cap)[0]
    assert zeta._em_coefficients.cache_info().misses == misses
    assert zeta._em_coefficients.cache_info().maxsize is not None


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


def _closed_forms():
    """Index -> an exact closed form, or an index of the same value."""
    z2, z3, z5 = mp_zeta(2), mp_zeta(3), mp_zeta(5)
    return {
        (2, 1): z3,
        (3, 1): pi ** 4 / 360,
        (2, 2): pi ** 4 / 120,
        (2, 2, 2): pi ** 6 / factorial(7),
        (2, 2, 2, 2): pi ** 8 / factorial(9),
        (3, 1, 3, 1): 2 * pi ** 8 / factorial(10),
        # Euler's depth-two evaluations
        (4, 1): 2 * z5 - z2 * z3,
        (3, 2): 3 * z2 * z3 - mpf(11) / 2 * z5,
        (2, 3): mpf(9) / 2 * z5 - 2 * z2 * z3,
        (5, 1): mpf(3) / 4 * mp_zeta(6) - z3 ** 2 / 2,
        # duality
        (2, 1, 1): (4,),
        (2, 1, 1, 1): (5,),
        (3, 1, 1): (4, 1),
    }


@pytest.mark.parametrize("index", [
    (2, 1), (3, 1), (2, 2), (2, 2, 2), (2, 2, 2, 2), (3, 1, 3, 1), (4, 1),
    (3, 2), (2, 3), (5, 1), (2, 1, 1), (2, 1, 1, 1), (3, 1, 1)])
def test_mzv_closed_forms_lie_within_the_bounds(index):
    with workdps(80):
        forms = _closed_forms()
        form = forms[index]
        z = mzv(index)
        if isinstance(form, tuple):
            other = mzv(form)
            assert abs(_mpf(z.value) - _mpf(other.value)) \
                <= _mpf(z.error_bound + other.error_bound)
            form = forms.get(form, mp_zeta(form[0]))
        assert abs(_mpf(z.value) - form) <= _mpf(z.error_bound)


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

