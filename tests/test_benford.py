"""Unit tests for digit extraction, frequency tables, and distances."""

import bisect
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from benfordxy import benford
from conftest import pinned_examples


def test_key_bounds():
    assert benford.key_bounds(1) == (1, 9)
    assert benford.key_bounds(4) == (1000, 9999)
    with pytest.raises(ValueError):
        benford.key_bounds(0)
    with pytest.raises(ValueError):
        benford.key_bounds(5)


def test_digit_key_validation():
    # a depth-2 key lies in [10, 99]: the ends of a decade key to the ends
    # of the range, never past them
    values = np.array([1.0, np.nextafter(10.0, 0.0), 0.1, 99.99])
    assert benford.digit_keys(values, 2).tolist() == [10, 99, 10, 99]


def test_significant_digits_hand_cases():
    assert benford.digit_keys(math.pi, 3) == 314
    assert benford.digit_keys(-math.pi, 3) == 314
    assert benford.digit_keys(0.00123456, 4) == 1234
    assert benford.digit_keys(2.0, 1) == 2
    # truncation, not rounding
    assert benford.digit_keys(9.999, 3) == 999
    assert benford.digit_keys(1.9999, 4) == 1999
    with pytest.raises(ValueError):
        benford.digit_keys(0.0, 1)
    with pytest.raises(ValueError):
        benford.digit_keys(math.inf, 1)


def test_digit_keys_vector_and_scalar_agree():
    rng = np.random.default_rng(5)
    vals = rng.uniform(1.0, 10.0, 300) * 10.0 ** rng.integers(-5, 6, 300).astype(float)
    for k in (1, 2, 3, 4):
        keys = benford.digit_keys(vals, k)
        for x, kv in zip(vals[:50], keys[:50]):
            assert benford.digit_keys(float(x), k) == kv


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


def _decimal_neighbours(k: int) -> np.ndarray:
    """Every k-digit decimal of the decades 1e-20..1 (the nearest double),
    and the two doubles on each side of it."""
    digits = range(10 ** (k - 1), 10**k)
    dec = np.array([float(f"{m}e{j}") for j in range(-19 - k, 2 - k) for m in digits])
    below = np.nextafter(dec, 0.0)
    above = np.nextafter(dec, np.inf)
    return np.concatenate([np.nextafter(below, 0.0), below, dec, above,
                           np.nextafter(above, np.inf)])


def test_pow10_tables_match_exact_powers():
    # Each entry is 10**p correctly rounded, and each decade start the
    # least double not below 10**p (both inf past the largest double).
    origin = benford._POW_RANGE
    assert origin == 340
    for p in range(-origin, origin + 1):
        exact = Fraction(10) ** p
        value = float(exact) if p <= 308 else math.inf
        assert benford._POW10[p + origin] == value, p
        start = benford._DECADE_START[p + origin]
        if p > 308:
            assert start == math.inf, p
        else:
            assert Fraction(start) >= exact > Fraction(np.nextafter(start, 0.0)), p


def _lookup_keys(ax: np.ndarray, k: int) -> np.ndarray:
    """Keys of magnitudes from `benford._magnitudes` by a search of all the
    decade starts (the decade is the last one whose start is at or below
    |x|), then the one correctly rounded scaling of `digit_keys` at depth
    4, whose first k digits are the key."""
    origin, depth = benford._POW_RANGE, benford.MAX_DEPTH
    i = np.searchsorted(benford._DECADE_START, ax, side="right") - 1
    p = (depth - 1 + origin) - i  # the power, with the decade at i - origin
    scaled = ax * benford._POW10[p + origin]
    np.divide(ax, benford._POW10[origin - p], out=scaled, where=p < 0)
    keys = np.clip(np.floor(scaled).astype(np.int64), *benford.key_bounds(depth))
    return keys // 10 ** (depth - k)


def test_digit_keys_equal_lookup_keys():
    # the decade from the exponent bits and one compare must be the one a
    # search of every decade start finds, on every value
    rng = np.random.default_rng(23)
    bounds = benford._POW10[(benford._POW10 > 0.0) & (benford._POW10 < math.inf)]
    near = [bounds]
    down = up = bounds
    for _ in range(2):
        down, up = np.nextafter(down, 0.0), np.nextafter(up, np.inf)
        near += [down, up]
    log_uniform = 10.0 ** rng.uniform(-323.0, 308.25, 1_000_000)
    common = np.concatenate([
        *near,  # every decade boundary double and 2 ulps on each side
        [1.0, 1e23, 1e-5, 1e-197, 1e-243, 5e-324, 1.7976931348623157e308],
        10.0 ** rng.uniform(-323.5, -290.0, 5000),  # near-denormals, lifted
        10.0 ** rng.uniform(4.0, 308.25, 5000),  # at least 10**k at every k
        log_uniform,
    ])
    common = common[common > 0.0]
    common = np.concatenate([common, -common[::3]])
    for k in (1, 2, 3, 4):
        vals = np.concatenate([common, _decimal_neighbours(k)])
        keys = benford.digit_keys(vals, k)
        want = _lookup_keys(benford._magnitudes(vals)[0], k)
        mismatched = np.flatnonzero(keys != want)
        assert mismatched.size == 0, (k, vals[mismatched[:5]])


def reference_key(x: float, k: int) -> int:
    """The key of a magnitude by exact rational arithmetic: the decade from
    a search of the power table, one down at a boundary double below its
    power of ten, and the power of depth 4 applied as one correctly rounded
    multiply or divide (as IEEE arithmetic and float(Fraction) both round);
    depth k keeps the first k digits of that key."""
    pow10, origin, depth = benford._POW10, benford._POW_RANGE, benford.MAX_DEPTH
    e = bisect.bisect_right(pow10.tolist(), x) - 1 - origin
    if x == pow10[e + origin] and Fraction(x) < Fraction(10) ** e:
        e -= 1
    p = depth - 1 - e
    if p >= 0:
        scaled = float(Fraction(x) * Fraction(pow10[p + origin]))
    else:
        scaled = float(Fraction(x) / Fraction(pow10[origin - p]))
    lo, hi = benford.key_bounds(depth)
    return min(max(math.floor(scaled), lo), hi) // 10 ** (depth - k)


def test_exact_keys_equal_reference_keys():
    # digit_keys, and the lookup the bulk check compares it with, against
    # exact rational arithmetic, on the values where a decade or a
    # rounding can slip
    rng = np.random.default_rng(31)
    bounds = benford._POW10[(benford._POW10 > 1e-290) & (benford._POW10 < math.inf)]
    near = [bounds]
    down = up = bounds
    for _ in range(2):
        down, up = np.nextafter(down, 0.0), np.nextafter(up, np.inf)
        near += [down, up]
    common = np.concatenate([
        *near,  # every boundary double above 1e-290 and 2 ulps on each side
        [1e23, 1e-197, 0.7, 0.123, 0.17, 999.9999999999999],
        10.0 ** rng.uniform(-323.5, -290.0, 300),  # near-denormals, lifted
        10.0 ** rng.uniform(4.0, 308.25, 300),  # at least 10**k at every k
    ])
    for k in (1, 2, 3, 4):
        decimals = _decimal_neighbours(k)
        decimals = rng.choice(decimals, min(3000, decimals.size), replace=False)
        # k-digit decimals of 10**k and up, which divide by the power: a
        # multiply by its reciprocal rounds twice and misses some
        large = np.array([float(f"{m}e{j}") for m, j in zip(
            rng.integers(10 ** (k - 1), 10**k, 500), rng.integers(k, 300, 500))])
        ax, _ = benford._magnitudes(np.concatenate([
            common, decimals, large, np.nextafter(large, 0.0), np.nextafter(large, np.inf)]))
        want = [reference_key(x, k) for x in ax.tolist()]
        for got in (benford.digit_keys(ax, k), _lookup_keys(ax, k)):
            mismatched = np.flatnonzero(got != want)
            assert mismatched.size == 0, (k, ax[mismatched[:5]])


def test_decade_guess_is_the_exact_floor():
    # digit_keys guesses the decade of the binade [2**j, 2**(j+1)) as
    # (j * 78913) >> 18, which must be floor(j log10 2) for the biased
    # exponent j + 1023 of every normal double (checked by exact powers);
    # the first and the last double of each binade then key as the lookup
    origin = benford._POW_RANGE
    for j in range(1 - 1023, 2047 - 1023):
        g = (j * 78913) >> 18
        assert Fraction(10) ** g <= Fraction(2) ** j < Fraction(10) ** (g + 1), j
        # digit_keys reads the decade's two candidates from tables by the
        # biased exponent b: the next decade's start, and each one's scale
        # (a multiplier 10**(3-e) below decade 4, a divisor 10**(e-3) from it)
        b = j + 1023
        assert benford._BINADE_START[b] == benford._DECADE_START[g + 1 + origin], b
        for c in (0, 1):
            e = g + c
            power = 3 - e if e < benford.MAX_DEPTH else e - 3
            assert benford._BINADE_SCALE[2 * b + c] == benford._POW10[power + origin], (b, c)
    first = (np.arange(1, 2047, dtype=np.int64) << 52).view(float)
    edges = np.concatenate([first, np.nextafter(first[1:], 0.0), [np.finfo(float).max]])
    for k in (1, 2, 3, 4):
        got = benford.digit_keys(edges, k)
        want = _lookup_keys(benford._magnitudes(edges)[0], k)
        mismatched = np.flatnonzero(got != want)
        assert mismatched.size == 0, (k, edges[mismatched[:5]])


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


def test_digit_keys_lifted_past_the_divide_bound():
    # lifted by 1e300 these reach 5e5 and 1.234e8, past 10**4, so they take
    # the divide pass although every input is below 1e-290: the pass must
    # be decided by the largest magnitude after the lift
    tiny = [5e-295, 1.234e-292]
    for vals in (tiny, [tiny[0], 0.5, tiny[1]]):
        for k in (1, 2, 3, 4):
            keys = benford.digit_keys(np.array(vals), k)
            unit = 10 ** (4 - k)
            assert [keys[0], keys[-1]] == [5000 // unit, 1234 // unit], (vals, k)


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
    assert benford.digit_keys(999.9999999999999, 2) == 99
    assert benford.digit_keys(9999.999999999998, 2) == 99
    assert benford.digit_keys(9999.999999999998 * 10.0**-1, 2) == 99


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


def _scale_invariance_cases(count=300):
    """Hand-picked decade shifts, then a seeded sample: half log-uniform x,
    half short decimals (whose exact shifts must keep their key)."""
    hand = [
        (0.5, -6, 1, 1.0),  # 5e-07 is stored below 5e-7 and keys as 5
        (1.0, -6, 1, 1.0),  # 1e-06 is stored below 1e-6 and keys as 9
        (1.0, 0, 4, -1.0),
        (1e4, 8, 4, 1.0),
        (1e4, -8, 1, -1.0),
        (math.nextafter(1e-4, 1.0), 8, 4, 1.0),
        (math.nextafter(1e-4, 1.0), -8, 2, -1.0),
        (0.7, 1, 1, 1.0),
        (0.123, -3, 4, 1.0),
        (0.17, -5, 2, 1.0),
        (999.9999999999999, -1, 2, 1.0),  # the product rounds onto 100
        (9999.999999999998, -4, 2, -1.0),
        (9.999999999999998, 2, 3, 1.0),
        (0.3, 8, 3, 1.0),
        (2.0, -7, 1, -1.0),
        (3.0, 7, 4, 1.0),
    ]
    hand += [(1.5, j, 1 + j % 4, 1.0) for j in range(-8, 9)]
    rng = np.random.default_rng(2017)
    n = count - len(hand)
    x = 10.0 ** rng.uniform(-4.0, 4.0, n)
    x[::2] = [float(f"{v:.{d}g}") for v, d in zip(x[::2], rng.integers(1, 5, x[::2].size))]
    x = np.clip(x, math.nextafter(1e-4, 1.0), 1e4)
    j = rng.integers(-8, 9, n)
    k = rng.integers(1, 5, n)
    sign = rng.choice([-1.0, 1.0], n)
    cases = hand + list(zip(x.tolist(), j.tolist(), k.tolist(), sign.tolist()))
    return [dict(x=x, j=j, k=k, sign=sign) for x, j, k, sign in cases]


@pinned_examples(_scale_invariance_cases())
@given(
    x=st.floats(min_value=1e-4, max_value=1e4, exclude_min=True),
    j=st.integers(min_value=-8, max_value=8),
    k=st.integers(min_value=1, max_value=4),
    sign=st.sampled_from([-1.0, 1.0]),
)
def test_scale_invariance_property(x, j, k, sign):
    v = sign * x
    shifted = v * 10.0**j
    key, shifted_key = (int(benford.digit_keys(y, k)) for y in (v, shifted))
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
    assert benford.digit_keys(1e23, 1) == 9
    assert benford.digit_keys(1e16, 1) == 1  # stored exactly


def test_probability_oracles():
    assert abs(benford.benford_probabilities(1)[1 - 1] - math.log10(2.0)) < 1e-15
    assert abs(benford.benford_probabilities(3)[314 - 100] - 0.001380905716385626) < 1e-15
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
    assert abs(table.counts[1 - 1] - 270.92699609758307) < 1e-10
    assert abs(table.counts[9 - 1] - 41.18174150460763) < 1e-10
    with pytest.raises(ValueError):
        benford.expected_table(0.0, 1)


def test_frequency_table_validation():
    with pytest.raises(ValueError):
        benford.FrequencyTable(1, np.ones(8), 8.0)  # wrong bin count
    with pytest.raises(ValueError):
        benford.FrequencyTable(1, -np.ones(9), -9.0)
    with pytest.raises(ValueError):
        benford.FrequencyTable(1, np.ones(9), 42.0)  # inconsistent total


def test_observed_table_excludes_zeros():
    table = benford.observed_table([0.0, 1.5, 0.0, 2.5, 9.99], 1)
    assert table.total == 3.0
    assert table.counts[1 - 1] == 1.0
    assert table.counts[2 - 1] == 1.0
    assert table.counts[9 - 1] == 1.0
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


def test_keys_do_not_depend_on_the_depths_asked_for():
    # every 2- and 3-digit decimal in [0.1, 1) with its 1- and 2-ulp lower
    # neighbours: the scaling rounds such a double onto the decimal at some
    # depths and not at others, so a depth-k key that did not come from the
    # depth-4 key could differ from its fold
    dec = np.concatenate([np.arange(10, 100) / 100.0, np.arange(100, 1000) / 1000.0])
    below = np.nextafter(dec, 0.0)
    x = np.concatenate([dec, below, np.nextafter(below, 0.0)])
    assert x.size == 2970
    keys = {k: benford.digit_keys(x, k) for k in (1, 2, 3, 4)}
    for k in (1, 2, 3):
        for deeper in range(k + 1, 5):
            folded = keys[deeper] // 10 ** (deeper - k)
            assert np.array_equal(keys[k], folded), (k, deeper, x[keys[k] != folded][:5])
        alone = benford.key_histograms(x, [k])[k]
        assert np.array_equal(alone, benford.key_histograms(x, [k, 4])[k]), k
    # so a window's distance at one depth is the same whatever other depth
    # is asked for beside it
    window = [np.nextafter(0.17, 0.0), 0.5, 0.31, 1.0, 0.9]
    alone = benford.combo_distances(window, [(2, "md")])
    assert benford.combo_distances(window, [(2, "md"), (4, "md")])[:1] == alone


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


def test_combo_distances_equal_the_public_distances():
    # The window path takes its expected tables from a cache by (k, value
    # count) and shares O - E between md and sd; every distance must keep
    # the bits of the public functions on the same tables, in any combo
    # order, and the cached tables must not be writable.
    rng = np.random.default_rng(7)
    combos = [(k, d) for k in (4, 1, 3, 2) for d in ("bd", "md", "sd")]
    for size in (100, 1000, 9999, 1000):
        values = rng.lognormal(0.0, 2.0, size)
        got = benford.combo_distances(values, combos)
        want = []
        for k, d in combos:
            observed = benford.observed_table(values, k)
            want.append(benford.DISTANCES[d](observed, benford.expected_table(size, k)))
        assert got == want
    cached = benford._benford_expected(2, 1000)
    assert cached is benford._benford_expected(2, 1000)
    assert not any(table.flags.writeable for table in cached)


def _combo_cases(count=60):
    """Seeded windows: the nonzero min-max normalized samples of smooth
    curves (as the profiles key them), log-normal draws and signed draws
    over six decades, each with a seeded list of combos in any order,
    repeats included."""
    rng = np.random.default_rng(13)
    names = sorted(benford.DISTANCES)
    cases = []
    for i in range(count):
        size = int(rng.integers(1, 3000))
        if i % 3 == 0:
            t = np.linspace(0.0, 1.0, size + 1)
            curve = np.exp(rng.uniform(-3.0, 3.0) * t) + rng.uniform(-1.0, 1.0) * t**2
            x = (curve - curve.min()) / (curve.max() - curve.min())
            x = x[x != 0.0]
        elif i % 3 == 1:
            x = rng.lognormal(0.0, rng.uniform(0.1, 5.0), size)
        else:
            x = rng.choice([-1.0, 1.0], size) * rng.uniform(1e-3, 1e3, size)
        combos = [(int(k), names[d]) for k, d in zip(
            rng.integers(1, 5, rng.integers(1, 16)), rng.integers(0, 3, 16))]
        cases.append(dict(x=x, combos=combos))
    return cases


@pinned_examples(_combo_cases())
@given(
    x=st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=1).map(np.array),
    combos=st.lists(st.tuples(st.integers(1, 4), st.sampled_from(sorted(benford.DISTANCES))),
                    min_size=1),
)
def test_combo_distances_keep_each_combo_alone(x, combos):
    # each (k, d) of a combo list keeps the bits it has alone and the bits
    # of the public distance: the distances of one depth share its O and
    # O - E, and none may change them for the next
    got = benford.combo_distances(x, combos)
    assert len(got) == len(combos)
    for (k, d), value in zip(combos, got):
        assert value == benford.combo_distances(x, [(k, d)])[0], (k, d)
        observed = benford.observed_table(x, k)
        want = benford.DISTANCES[d](observed, benford.expected_table(x.size, k))
        assert value == want, (k, d)


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
