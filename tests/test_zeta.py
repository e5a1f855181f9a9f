from collections import Counter
from fractions import Fraction

import pytest
from mpmath import mp, mpf, pi, workdps, zeta as mp_zeta

from qbrackets import (Z_k_alg, Z_k_symbolic, d_general,
                       delta_representations, mzv, mzv_oracle,
                       proven_relation_corpus, word)
from qbrackets import zeta


def test_mzv_single_against_mpmath():
    with workdps(50):
        for s in (2, 3, 4, 8):
            got = mzv((s,))
            want = mp_zeta(s)
            assert abs(got.value - want) <= got.error_bound
            assert got.error_bound < mpf("1e-20")


def test_mzv_zeta2_closed_form():
    with workdps(50):
        got = mzv((2,))
        assert abs(got.value - pi ** 2 / 6) < mpf("1e-40")


def test_mzv_depth_two_identities():
    with workdps(50):
        assert abs(mzv((2, 1)).value - mzv((3,)).value) < mpf("1e-40")
        assert abs(mzv((4,)).value - 4 * mzv((3, 1)).value) < mpf("1e-40")
        assert abs(mzv((4,)).value - Fraction(4, 3) * mzv((2, 2)).value) \
            < mpf("1e-40")


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
    assert loose.error_bound < mpf("1e-6")


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

    def counting(comp, cutoff):
        calls[comp] += 1
        return nested(comp, cutoff)

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
    assert high.error_bound <= mpf("1e-60")
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
    assert mp.nstr(z.value, 50) == value
    assert mp.nstr(z.error_bound, 5) == bound


# value._mpf_ and error_bound._mpf_ of the evaluator as it was before the
# tail expansions and power rows were shared: target 1e-10 is level 0
# (60 digits), 1e-60 level 1 (80 digits)
PINNED_BITS = [
    ((2,), 1e-10,
     (0, 10573228529264304647661822178090724900342886887342250438449563, -202, 203),
     (0, 4697085165547685033992322215893069757178050221846328328318831, -361, 202)),
    ((2,), 1e-60,
     (0, 390083281424366140397997724451879573119285156008879622685940053621578327171452637, -267, 268),
     (0, 255922046708432227978567365035036962510815997439140175576128917359883314746034321, -493, 268)),
    ((3, 1), 1e-10,
     (0, 6956905521743369836050957959727631874347610243060845905745653, -204, 203),
     (0, 9394170331095487903639759039056570091381590553561518396114363, -362, 203)),
    ((3, 1), 1e-60,
     (0, 256664511409153527411064643348066956502240928218386408767763815702063506012387575, -269, 268),
     (0, 512946699824187715682385948349035590811432758764601215528098474259322284995066705, -494, 269)),
    ((2, 2, 1), 1e-10,
     (0, 5882946125293683943759893150595335991602940619723256844722527, -204, 202),
     (0, 1174271291387124179254023476561150875780400629839966756043757, -359, 200)),
    ((2, 2, 1), 1e-60,
     (0, 868169612581710668831449169821967167404298997289246112381748834073569831342711659, -271, 269),
     (0, 529461224477334903295244888347034206976575029243674654987520298036708826261005697, -494, 269)),
    ((5, 3, 2), 1e-10,
     (0, 657456875771122033799022485138308903150914666407437925862331, -209, 199),
     (0, 9394170331095332916518027295670220654046718526401331610208185, -362, 203)),
    ((5, 3, 2), 1e-60,
     (0, 776188078518434705292514213512584535551519309620358192348407561486306557775024007, -279, 269),
     (0, 127866822186489755203561278407993833255797408420702461717135056930403006174793991, -492, 267)),
    ((9, 3), 1e-10,
     (0, 6632956504174117587298422025850781400676114541715152927849109, -211, 203),
     (0, 1174271291386916613944740363684501834645311380479828940057821, -359, 200)),
    ((9, 3), 1e-60,
     (0, 489425804338188513479586729868228684032132679331062356367056886949429034792568955, -277, 269),
     (0, 511467282483772208519084869356890678741800091610434559313589732749506931821794977, -494, 269)),
    ((12,), 1e-10,
     (0, 3214666980207363092857362775919957200283420735357385102539343, -201, 202),
     (0, 4697085165547666455778961193579334486925526354978741456592327, -361, 202)),
    ((12,), 1e-60,
     (0, 474401112528719644758667839349983979375152935105848656142614938379872725353940811, -268, 269),
     (0, 511467282483772167189573971336218391786633609173657786042387075081486089503747651, -494, 269)),
]


@pytest.mark.parametrize("index, target, value, bound", PINNED_BITS)
def test_mzv_pinned_bits(cold_mzv_cache, index, target, value, bound):
    z = mzv(index, target)
    assert (z.value._mpf_, z.error_bound._mpf_) == (value, bound)


def _bits(indices, targets):
    return {(c, t): (mzv(c, t).value._mpf_, mzv(c, t).error_bound._mpf_)
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


def _shared(digits):
    with workdps(digits):
        terms, env_c, env_e = zeta._psi_expansion(3, 256, 28, mp.prec)
        row, total = zeta._inverse_powers(3, 256, mp.prec)
    return ([(e, a._mpf_) for e, a in terms.items()], env_c._mpf_, env_e,
            [x._mpf_ for x in row], total._mpf_)


def test_shared_expansions_follow_the_working_precision():
    _clear_shared_rows()
    low, high = _shared(60), _shared(100)
    assert low[1] != high[1] and low[3] != high[3] and low[4] != high[4]
    _clear_shared_rows()
    assert (_shared(100), _shared(60)) == (high, low)


def test_shared_expansions_are_read_only():
    with workdps(60):
        terms, _, _ = zeta._psi_expansion(3, 256, 28, mp.prec)
        row, _ = zeta._inverse_powers(3, 256, mp.prec)
    with pytest.raises(TypeError):
        terms[2] = mpf(0)
    assert isinstance(row, tuple)


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
    # asked for at 15 digits, mpmath's default: the sum of a Z_k image is
    # taken at the precision of the deepest MZV level, its rounding bounded
    with workdps(15):
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

