"""Significant-digit statistics: extraction, Benford frequencies, distances.

The first k significant decimal digits of a nonzero number are encoded as
a single integer key in [10^(k-1), 10^k - 1] (truncated, never rounded:
9.999 at depth 3 is key 999).  The generalized Benford law assigns a key
the probability log10(1 + 1/key); at k = 1 this is the familiar
first-digit law.  Depths above 4 are not supported: the law is already
nearly uniform there.

Frequency tables hold one real-valued count per key (9 * 10^(k-1) bins
from key 10^(k-1), a layout only this module builds) plus the effective
sample count.  Every value is keyed at depth 4, and depth k keeps the
first k digits of that key.  The decade e of |x| is the last decade whose
start, the least double not below 10^e, is at or below |x|, so e follows
the stored double (1e23, stored below its power, keys as 9).
`digit_keys` reads it from the exponent bits of |x|, which fix e to
within one, and one compare with the next decade's start.  Then
|x| * 10^(3-e) is rounded once (a multiply, or for e >= 4 a divide by
10^(e-3)) before the truncation, which can lift a double just below a
4-digit decimal onto it (0.7 keys as 7000, and 0.123 as 1230).  Keying
calls no libm function.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

MAX_DEPTH = 4

# Correctly rounded doubles for 10**p, built through exact integer
# arithmetic (converting an int to float, and dividing two ints, rounds
# exactly once).  numpy's pow ufunc can be an ulp off even at integer
# exponents, which is enough to misplace a decade boundary.  Beside them,
# the start of each decade: the least double not below 10**p, the next
# double up where the power's double sits strictly below the power.
_POW_RANGE = 340


def _pow10_tables() -> tuple[np.ndarray, np.ndarray]:
    vals = np.full(2 * _POW_RANGE + 1, math.inf)  # inf past the largest double
    starts = vals.copy()

    def put(p: int, v: float, below: bool):
        vals[_POW_RANGE + p] = v
        starts[_POW_RANGE + p] = math.nextafter(v, math.inf) if below else v

    power = 1  # 10**q, one x10 per step
    for q in range(_POW_RANGE + 1):
        if q <= 308:
            v = float(power)  # a whole number, so int(v) is exact
            put(q, v, int(v) < power)
        if q:
            v = 1 / power
            num, den = v.as_integer_ratio()  # v = num / den exactly
            put(-q, v, num * power < den)
        power *= 10
    return vals, starts


_POW10, _DECADE_START = _pow10_tables()


def _check_depth(k: int):
    if not 1 <= k <= MAX_DEPTH:
        raise ValueError(f"digit depth must be in 1..{MAX_DEPTH}, got {k}")


def key_bounds(k: int) -> tuple[int, int]:
    """Inclusive key range [10^(k-1), 10^k - 1] for depth k."""
    _check_depth(k)
    return 10 ** (k - 1), 10**k - 1


def digit_keys(values, k: int) -> np.ndarray:
    """Vectorized digit extraction: int64 key per nonzero finite value, in
    the shape of values (a numpy integer for a scalar).

    Every value is keyed at depth 4, and depth k keeps the first k digits
    of that key, so a key never depends on the depth asked for.  The
    decade e of |x| comes from its exponent bits and one compare with the
    next decade's start; then one correctly rounded scaling by 10**(3-e)
    (a divide by 10**(e-3) when |x| >= 10**4, since 10**-q is never a
    double) and a truncation.
    """
    _check_depth(k)
    if not np.ndim(values):  # a scalar is keyed as a 1-element array
        return digit_keys(np.reshape(values, 1), k)[0]
    ax = _magnitudes(values)
    # |x| lies in the binade [2**j, 2**(j+1)) of its biased exponent
    # j + 1023, and a binade spans 0.301 of a decade, so e is
    # floor(j log10 2) = (j * 78913) >> 18 (exact for every normal j) or
    # one more
    e = ax.view(np.int64) >> 52
    e -= 1023
    e *= 78913
    e >>= 18
    e += ax >= _DECADE_START[e + (_POW_RANGE + 1)]
    scaled = ax * _POW10[(_POW_RANGE + MAX_DEPTH - 1) - e]
    if e.max(initial=0) >= MAX_DEPTH:  # the divide pass only where needed
        np.divide(ax, _POW10[(_POW_RANGE + 1 - MAX_DEPTH) + e], out=scaled,
                  where=e >= MAX_DEPTH)
    # the cast truncates, the floor of a positive value; the scaled value
    # can only leave the key range by rounding across it, which pins the
    # digits: all nines above, a 1 and zeros below
    keys = scaled.astype(np.int64)
    lo, hi = key_bounds(MAX_DEPTH)
    np.minimum(np.maximum(keys, lo, out=keys), hi, out=keys)
    if k < MAX_DEPTH:
        keys //= 10 ** (MAX_DEPTH - k)
    return keys


def _magnitudes(values) -> np.ndarray:
    """|values| as a new float array, near-denormals lifted by 1e300 so that
    every magnitude is a normal double (its exponent bits give its binade)
    and the 10**(3-e) scale factor stays finite; zeros, infs and NaNs
    refused."""
    ax = np.abs(np.asarray(values, dtype=float))
    if ax.size:
        # a NaN makes the minimum NaN, which fails the test as 0 does
        smallest, largest = ax.min(), ax.max()
        if not (smallest > 0.0 and largest < math.inf):
            raise ValueError("digit extraction requires nonzero finite values")
        if smallest < 1e-290:
            tiny = ax < 1e-290
            ax[tiny] *= 1e300
    return ax


@functools.cache
def benford_probabilities(k: int) -> np.ndarray:
    """Benford probability per key of depth k in key order; cached, read-only."""
    lo, hi = key_bounds(k)
    probs = np.log10(1.0 + 1.0 / np.arange(lo, hi + 1, dtype=float))
    probs.flags.writeable = False
    return probs


@dataclass(frozen=True)
class FrequencyTable:
    """Real-valued counts over all keys of depth k; counts[i] is the count
    of key lo + i with lo = 10^(k-1)."""

    k: int
    counts: np.ndarray
    total: float

    def __post_init__(self):
        lo, hi = key_bounds(self.k)
        if self.counts.shape != (hi - lo + 1,):
            raise ValueError(f"counts must have {hi - lo + 1} bins for k={self.k}")
        if np.any(self.counts < 0.0) or self.total < 0.0:
            raise ValueError("counts and total must be nonnegative")
        s = float(self.counts.sum())
        if abs(s - self.total) > 1e-9 * max(self.total, 1.0):
            raise ValueError(f"total {self.total} does not match sum {s}")


def expected_table(total: float, k: int) -> FrequencyTable:
    """Benford-expected counts: total * log10(1 + 1/key) per key."""
    if not total > 0.0:
        raise ValueError("total must be positive")
    counts = total * benford_probabilities(k)
    return FrequencyTable(k, counts, float(counts.sum()))


def observed_table(data, k: int) -> FrequencyTable:
    """Bin nonzero data by first-k digits; exact zeros are excluded and the
    effective total reflects only binned values."""
    arr = np.asarray(data, dtype=float)
    nz = arr[arr != 0.0]
    if nz.size == 0:
        raise ValueError("no nonzero data to bin")
    counts = key_histograms(nz, [k])[k]
    return FrequencyTable(k, counts, float(counts.sum()))


_TEN_ONES = np.ones(10)


def key_histograms(nonzero, ks) -> dict[int, np.ndarray]:
    """Key counts at each depth in ks from one key pass at the deepest depth
    K: key_k = key_K // 10^(K-k), so each depth sums runs of 10 bins of the
    next deeper one (a product with ones: the counts are integers, exact
    in any order)."""
    _check_depth(min(ks))
    kmax = max(ks)
    lo, hi = key_bounds(kmax)
    counts = np.bincount(digit_keys(nonzero, kmax), minlength=hi + 1)[lo:].astype(float)
    hists = {kmax: counts}
    for k in range(kmax - 1, min(ks) - 1, -1):
        hists[k] = counts = counts.reshape(-1, 10) @ _TEN_ONES
    return {k: hists[k] for k in ks}


@functools.lru_cache(maxsize=64)  # a few value counts per depth in a run
def _benford_expected(k: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The Benford-expected counts of count values at depth k, and their
    shares (the counts over their sum, for bd); both read-only."""
    counts = float(count) * benford_probabilities(k)
    shares = counts / counts.sum()
    counts.flags.writeable = shares.flags.writeable = False
    return counts, shares


def combo_distances(nonzero, combos) -> list[float]:
    """Distance of nonzero values from the Benford law for each (k, distance)
    combo, every depth from one `key_histograms` pass, the expected table
    per depth from a cache by (k, value count) (every depth's counts sum
    to the value count), and one O - E per depth for all its distances."""
    counts = key_histograms(nonzero, {k for k, _ in combos})
    expected = {k: _benford_expected(k, np.size(nonzero)) for k in counts}
    deviations = {k: counts[k] - expected[k][0] for k in counts}
    return [_RAW_DISTANCES[d](counts[k], expected[k], deviations[k]) for k, d in combos]


def _check_pair(observed: FrequencyTable, expected: FrequencyTable):
    if observed.k != expected.k:
        raise ValueError(
            f"digit depth mismatch: observed k={observed.k}, expected k={expected.k}"
        )


def _raw_args(observed: FrequencyTable, expected: FrequencyTable, *, shares=False):
    """The arguments of a raw distance: O, (E, E's shares or None), O - E."""
    obs, exp = observed.counts, expected.counts
    return obs, (exp, exp / exp.sum() if shares else None), np.subtract(obs, exp, dtype=float)


def delta_md(observed: FrequencyTable, expected: FrequencyTable) -> float:
    """Mean-deviation-style distance sum(|O - E| / E) over all keys."""
    _check_pair(observed, expected)
    if np.any(expected.counts <= 0.0):
        raise ValueError("expected counts must be strictly positive")
    return _delta_md(*_raw_args(observed, expected))


def delta_sd(observed: FrequencyTable, expected: FrequencyTable) -> float:
    """Standard-deviation-style distance sqrt(sum((O - E)^2))."""
    _check_pair(observed, expected)
    return _delta_sd(*_raw_args(observed, expected))


def delta_bd(observed: FrequencyTable, expected: FrequencyTable) -> float:
    """Bhattacharyya distance -ln sum(sqrt(o * e)) between the tables
    normalized to probability distributions (nonnegative by construction)."""
    _check_pair(observed, expected)
    if not (observed.total > 0.0 and expected.total > 0.0):
        raise ValueError("both tables need a positive total")
    return _delta_bd(*_raw_args(observed, expected, shares=True))


# The raw distances take (O, (E, E's shares), O - E); md and sd of one depth
# share its O - E, and O - E is left as it is.
_Expected = tuple[np.ndarray, np.ndarray | None]


def _delta_md(obs: np.ndarray, exp: _Expected, dev: np.ndarray) -> float:
    dev = np.abs(dev)
    dev /= exp[0]
    return float(dev.sum())


def _delta_sd(obs: np.ndarray, exp: _Expected, dev: np.ndarray) -> float:
    return float(np.sqrt((dev * dev).sum()))


def _delta_bd(obs: np.ndarray, exp: _Expected, dev: np.ndarray) -> float:
    o = obs / obs.sum()
    o *= exp[1]
    bc = float(np.sqrt(o, out=o).sum())
    return max(0.0, -math.log(bc))


DISTANCES = {"md": delta_md, "sd": delta_sd, "bd": delta_bd}
_RAW_DISTANCES = {"md": _delta_md, "sd": _delta_sd, "bd": _delta_bd}
