"""Unit tests for digit extraction, frequency tables, and distances."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benfordxy import benford


def test_key_bounds():
    assert benford.key_bounds(1) == (1, 9)
    assert benford.key_bounds(4) == (1000, 9999)
    with pytest.raises(ValueError):
        benford.key_bounds(0)
    with pytest.raises(ValueError):
        benford.key_bounds(5)


def test_digit_key_validation():
    benford.DigitKey(2, 10)
    benford.DigitKey(2, 99)
    with pytest.raises(ValueError):
        benford.DigitKey(2, 9)
    with pytest.raises(ValueError):
        benford.DigitKey(2, 100)


def test_significant_digits_hand_cases():
    assert benford.significant_digits(math.pi, 3).value == 314
    assert benford.significant_digits(-math.pi, 3).value == 314
    assert benford.significant_digits(0.00123456, 4).value == 1234
    assert benford.significant_digits(2.0, 1).value == 2
    # truncation, not rounding
    assert benford.significant_digits(9.999, 3).value == 999
    assert benford.significant_digits(1.9999, 4).value == 1999
    with pytest.raises(ValueError):
        benford.significant_digits(0.0, 1)
    with pytest.raises(ValueError):
        benford.significant_digits(math.inf, 1)


def test_digit_keys_vector_and_scalar_agree():
    rng = np.random.default_rng(5)
    vals = rng.uniform(1.0, 10.0, 300) * 10.0 ** rng.integers(-5, 6, 300).astype(float)
    for k in (1, 2, 3, 4):
        keys = benford.digit_keys(vals, k)
        for x, kv in zip(vals[:50], keys[:50]):
            assert benford.significant_digits(float(x), k).value == kv


def test_digit_keys_scalar_keeps_shape():
    # a 0-d value takes the decade corrections and the tiny-value lift
    # like an array entry, and comes back as a 0-d key
    for value, key in ((0.1, 10), (1e23, 99), (1e-300, 10), (3.7, 37), (-0.5, 50)):
        got = benford.digit_keys(value, 2)
        assert np.shape(got) == () and got == key, value
        assert benford.digit_keys(np.float64(value), 2) == key
    # arrays keep their shape, and each entry the key it has alone
    vals = np.array([[0.1, 1e23, 1e-300], [3.7, 9.99e-308, 5e10]])
    keys = benford.digit_keys(vals, 2)
    assert keys.shape == vals.shape and keys.dtype == np.int64
    assert keys.tolist() == [[10, 99, 10], [37, 99, 50]]
    assert [benford.digit_keys(x, 2) for x in vals.ravel()] == keys.ravel().tolist()
    assert benford.digit_keys(np.empty((0, 3)), 2).shape == (0, 3)


def test_digit_keys_rejects_bad_values():
    with pytest.raises(ValueError):
        benford.digit_keys([1.0, 0.0], 1)
    with pytest.raises(ValueError):
        benford.digit_keys([1.0, math.nan], 1)


def test_digit_keys_denormal_range():
    # values below the prescale threshold still key correctly; note the
    # denormal literal itself parses to 1.19999...e-310, so its second
    # digit is genuinely 1
    vals = np.array([3.7e-300, 9.99e-308, 1.2e-310])
    assert list(benford.digit_keys(vals, 1)) == [3, 9, 1]
    assert list(benford.digit_keys(vals, 2)) == [37, 99, 11]


@pytest.mark.filterwarnings("error")
def test_digit_keys_tiny_beside_huge_values_warn_nothing():
    # only the tiny entries are lifted: lifting 5e10 as well overflowed to
    # inf with a RuntimeWarning (the keys stayed right, since that value
    # was then not used); the input array is left as it was
    vals = np.array([1e-300, 5e10, 3.7e-300, 1.7e308])
    keys = benford.digit_keys(vals, 2)
    assert list(keys) == [10, 50, 37, 17]
    assert vals[0] == 1e-300


def test_boundary_roundup_keeps_nines():
    # scaling 999.9999999999999 by 1e-1 rounds onto 100.0 exactly; the
    # key must stay 99 (the true digits), not collapse to 10
    assert benford.significant_digits(999.9999999999999, 2).value == 99
    assert benford.significant_digits(9999.999999999998, 2).value == 99
    assert benford.significant_digits(9999.999999999998 * 10.0**-1, 2).value == 99


def test_decimal_string_parity():
    # digit keys of random values match truncation of the printed decimal
    # expansion (draws land away from representation boundaries)
    rng = np.random.default_rng(99)
    mant = rng.uniform(1.0001, 9.9999, 8000)
    expo = rng.integers(-6, 7, 8000)
    vals = mant * 10.0 ** expo.astype(float)
    bad = 0
    for k in (1, 2, 3, 4):
        keys = benford.digit_keys(vals, k)
        for x, kv in zip(vals, keys):
            digits = f"{x:.17e}".replace(".", "").split("e")[0]
            if int(digits[:k]) != kv:
                bad += 1
    assert bad == 0


@given(
    x=st.floats(min_value=1e-4, max_value=1e4, exclude_min=True),
    j=st.integers(min_value=-8, max_value=8),
    k=st.integers(min_value=1, max_value=4),
    sign=st.sampled_from([-1.0, 1.0]),
)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_scale_invariance_property(x, j, k, sign):
    v = sign * x
    shifted = v * 10.0**j
    key, shifted_key = (benford.significant_digits(y, k).value for y in (v, shifted))
    if key == shifted_key:
        return
    # Only the rounding of the product may change the key, and only across
    # the k-digit boundary next to the exact shift, into the neighbouring
    # cell (1.0 * 10.0**-6 is 9.99...95e-07, which keys as 9 like 1e23).
    exact = Fraction(v) * Fraction(10) ** j
    assert Fraction(shifted) != exact
    assert _boundary_distance(exact, k) <= 2 * math.ulp(shifted)
    cells = 9 * 10 ** (k - 1)
    assert (key - shifted_key) % cells in (1, cells - 1)


def _boundary_distance(q: Fraction, k: int) -> Fraction:
    """How far q lies from the nearest k-digit decimal boundary."""
    q = abs(q)
    e = math.floor(math.log10(q))  # the decade, corrected exactly below
    while Fraction(10) ** e > q:
        e -= 1
    while Fraction(10) ** (e + 1) <= q:
        e += 1
    unit = Fraction(10) ** (e - k + 1)
    return abs(q / unit - round(q / unit)) * unit


def test_representation_boundary_keys_stored_digits():
    # 1e23 is stored as 9.999999999999999e22, so its first digit really is
    # 9; the boundary-verified recipe agrees with the printed decimal here
    assert benford.significant_digits(1e23, 1).value == 9
    assert benford.significant_digits(1e16, 1).value == 1  # stored exactly


def test_probability_oracles():
    assert abs(benford.benford_probability(benford.DigitKey(1, 1)) - math.log10(2.0)) < 1e-15
    assert abs(benford.benford_probability(benford.DigitKey(3, 314)) - 0.001380905716385626) < 1e-15
    probs = benford.benford_probabilities(2)
    assert probs.shape == (90,)
    assert abs(probs[0] - math.log10(11.0 / 10.0)) < 1e-15


def test_probability_tables_are_cached_and_read_only():
    for k in (1, 2, 3, 4):
        first = benford.benford_probabilities(k)
        assert benford.benford_probabilities(k) is first
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0] = 0.0
        lo, hi = benford.key_bounds(k)
        fresh = np.log10(1.0 + 1.0 / np.arange(lo, hi + 1, dtype=float))
        assert first.tobytes() == fresh.tobytes()


def test_normalization_and_marginal():
    for k in (1, 2, 3, 4):
        assert abs(benford.benford_probabilities(k).sum() - 1.0) < 1e-12
    p2 = benford.benford_probabilities(2).reshape(9, 10)
    p1 = benford.benford_probabilities(1)
    assert np.max(np.abs(p2.sum(axis=1) - p1)) < 1e-12


def test_expected_table_oracles():
    table = benford.expected_table(900.0, 1)
    assert abs(table.count_of(benford.DigitKey(1, 1)) - 270.92699609758307) < 1e-10
    assert abs(table.count_of(benford.DigitKey(1, 9)) - 41.18174150460763) < 1e-10
    with pytest.raises(ValueError):
        benford.expected_table(0.0, 1)


def test_frequency_table_validation():
    with pytest.raises(ValueError):
        benford.FrequencyTable(1, np.ones(8), 8.0)  # wrong bin count
    with pytest.raises(ValueError):
        benford.FrequencyTable(1, -np.ones(9), -9.0)
    with pytest.raises(ValueError):
        benford.FrequencyTable(1, np.ones(9), 42.0)  # inconsistent total
    t = benford.FrequencyTable(1, np.ones(9), 9.0)
    with pytest.raises(ValueError):
        t.count_of(benford.DigitKey(2, 10))


def test_observed_table_excludes_zeros():
    table = benford.observed_table([0.0, 1.5, 0.0, 2.5, 9.99], 1)
    assert table.total == 3.0
    assert table.count_of(benford.DigitKey(1, 1)) == 1.0
    assert table.count_of(benford.DigitKey(1, 2)) == 1.0
    assert table.count_of(benford.DigitKey(1, 9)) == 1.0
    with pytest.raises(ValueError):
        benford.observed_table([0.0, 0.0], 1)


def test_key_histograms_fold_depths():
    # random draws sit nowhere near a 4-digit decimal, so folding from the
    # deepest depth agrees with a direct pass at every depth
    rng = np.random.default_rng(5)
    x = rng.uniform(1.0, 10.0, 20000) * 10.0 ** rng.integers(-5, 5, 20000)
    x[::7] *= -1.0
    hists = benford.key_histograms(x, [3, 1, 4, 2])
    assert sorted(hists) == [1, 2, 3, 4]
    for k in (1, 2, 3, 4):
        assert np.array_equal(hists[k], benford.observed_table(x, k).counts)
        assert hists[k].sum() == x.size
    assert list(benford.key_histograms(x, [2])) == [2]
    # one ulp from 3-digit decimals a direct pass at a shallower depth can
    # round where the deepest key truncates (or the reverse); the fold is
    # defined as the truncation of the deepest key
    dec = np.arange(100, 1000) / 1000.0
    near = np.concatenate([np.nextafter(dec, 0.0), dec, np.nextafter(dec, 1.0)])
    for kmax in (2, 3, 4):
        ks = list(range(1, kmax + 1))
        hists = benford.key_histograms(near, ks)
        deepest = benford.digit_keys(near, kmax)
        for k in ks:
            lo, hi = benford.key_bounds(k)
            truncated = deepest // 10 ** (kmax - k)
            expected = np.bincount(truncated - lo, minlength=hi - lo + 1)
            assert np.array_equal(hists[k], expected)
    with pytest.raises(ValueError):
        benford.key_histograms(x, [0, 2])
    with pytest.raises(ValueError):
        benford.key_histograms(x, [5])


def test_distance_oracles():
    # uniform observed vs Benford expected, k = 1
    uniform = benford.FrequencyTable(1, np.full(9, 1000.0), 9000.0)
    expected = benford.expected_table(9000.0, 1)
    assert abs(benford.delta_md(uniform, expected) - 5.836456978030503) < 1e-12
    # everything on key 1: the Bhattacharyya sum keeps a single term
    ones = np.zeros(9)
    ones[0] = 500.0
    concentrated = benford.FrequencyTable(1, ones, 500.0)
    expected2 = benford.expected_table(500.0, 1)
    want = -math.log(math.sqrt(math.log10(2.0)))
    assert abs(benford.delta_bd(concentrated, expected2) - want) < 1e-12
    assert abs(want - 0.6002726829148101) < 1e-15
    # proportional tables have zero Bhattacharyya distance
    prop = benford.FrequencyTable(1, expected2.counts * 3.0, expected2.total * 3.0)
    assert benford.delta_bd(prop, expected2) < 1e-12
    # sd on a known two-bin perturbation
    bump = expected2.counts.copy()
    bump[0] += 3.0
    bump[8] -= 3.0
    perturbed = benford.FrequencyTable(1, bump, float(bump.sum()))
    assert abs(benford.delta_sd(perturbed, expected2) - math.sqrt(18.0)) < 1e-12


def test_distance_validation():
    t1 = benford.expected_table(100.0, 1)
    t2 = benford.expected_table(100.0, 2)
    for fn in benford.DISTANCES.values():
        with pytest.raises(ValueError):
            fn(t1, t2)


def test_fibonacci_conformance():
    fib = [1, 1]
    while len(fib) < 1000:
        fib.append(fib[-1] + fib[-2])
    observed = benford.observed_table(np.array(fib, dtype=float), 1)
    expected = benford.expected_table(observed.total, 1)
    val = benford.delta_md(observed, expected)
    assert val < 0.35
    # frozen regression value from the reference run
    assert abs(val - 0.11329615137851398) < 1e-12
