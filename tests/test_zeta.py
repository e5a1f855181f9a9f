import json
from collections import Counter
from fractions import Fraction

import pytest
from mpmath import mp, mpf, pi, workdps, zeta as mp_zeta

from qbrackets import (Z_k_alg, Z_k_symbolic, bracket_series, d_general,
                       evaluate, modified_qzeta, mzv, mzv_oracle, word)
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


def test_mzv_value_json():
    doc = mzv((3,)).to_json()
    assert doc["index"] == [3]
    json.dumps(doc)  # serializable as-is


def test_mzv_respects_target_error():
    loose = mzv((2, 1), target_error=1e-6)
    assert loose.error_bound < mpf("1e-6")


@pytest.fixture
def cold_mzv_cache(monkeypatch):
    """Empty the MZV cache and count _nested_value calls per index."""
    monkeypatch.setattr(zeta, "_MZV_CACHE", {})
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


def test_z_symbolic_kernel_of_derivative():
    image = Z_k_symbolic(d_general((1,)), 3)
    assert image.combination == {(3,): 1, (2, 1): -1}
    assert abs(image.value) <= image.error_bound + mpf("1e-30")


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
    assert abs(image.value) < mpf("1e-10")


def test_z_alg_derivative_image_vanishes():
    poly = Z_k_alg(d_general((1, 1)), 4)
    assert poly.weight == 4
    assert poly.degree() <= 4
    assert float(poly.max_abs()) < 1e-6


def test_z_alg_rejects_overweight():
    with pytest.raises(ValueError):
        Z_k_alg(word(3, 2), 4)


def test_modified_qzeta_identities():
    order = 80
    assert modified_qzeta((4,), order) == evaluate(
        word(4) - word(3) + word(2).scale(Fraction(1, 3)), order)
    assert modified_qzeta((2, 2), order) == bracket_series((2, 2), order)
    assert modified_qzeta((2, 2, 2), order) == bracket_series((2, 2, 2), order)
    d1 = d_general((1,))
    assert modified_qzeta((2, 1), order) == evaluate(
        word(2, 1) - word(2) + d1, order)
