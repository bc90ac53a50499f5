"""Significant-digit statistics: extraction, Benford frequencies, distances.

The first k significant decimal digits of a nonzero number are encoded as
a single integer key in [10^(k-1), 10^k - 1] (truncated, never rounded:
9.999 at depth 3 is key 999).  The generalized Benford law assigns a key
the probability log10(1 + 1/key); at k = 1 this is the familiar
first-digit law.  Depths above 4 are not supported: the law is already
nearly uniform there.

Frequency tables hold one real-valued count per key (9 * 10^(k-1) bins
from key 10^(k-1), a layout only this module builds) plus the effective
sample count.  Extraction is exponent arithmetic: the decade e of |x|
follows the stored double (1e23 keys as 9), and |x| * 10^(k-1-e) is
rounded once before the floor, which can lift a double just below a
k-digit decimal onto it (0.7 keys as 7, and 0.123 as 1230 at depth 4).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

MAX_DEPTH = 4

# Correctly rounded doubles for 10**p, built through exact integer
# arithmetic (converting an int or Fraction to float rounds exactly
# once).  numpy's pow ufunc can be an ulp off even at integer exponents,
# which is enough to misplace a decade boundary.  The companion mask
# records which entries sit strictly below the true power of ten, which
# decides the stored digits of a value equal to that boundary double.
_POW_RANGE = 340


def _pow10_tables() -> tuple[np.ndarray, np.ndarray]:
    vals = np.empty(2 * _POW_RANGE + 1)
    below = np.zeros(2 * _POW_RANGE + 1, dtype=bool)
    for i, p in enumerate(range(-_POW_RANGE, _POW_RANGE + 1)):
        if p > 308:
            vals[i] = math.inf
            continue
        exact = Fraction(10) ** p
        vals[i] = float(exact)
        below[i] = Fraction(vals[i]) < exact
    return vals, below


_POW10, _POW10_BELOW = _pow10_tables()


def _pow10(p: np.ndarray) -> np.ndarray:
    """Correctly rounded 10**p for an int64 array p in [-340, 340]."""
    return _POW10[p + _POW_RANGE]


def _floor_scale(ax: np.ndarray, p: np.ndarray) -> np.ndarray:
    """floor(ax * 10**p) with a single correctly rounded float operation.

    Negative powers divide by the exact positive power instead of
    multiplying by a reciprocal (10**-q is never a double, so that
    product would round twice).  When every power has one sign (always so
    for min-max normalized data) no entry is gathered by mask.
    """
    neg = p < 0
    if not neg.any():
        scaled = ax * _pow10(p)
    elif neg.all():
        scaled = ax / _pow10(-p)
    else:
        scaled = np.empty_like(ax)
        scaled[neg] = ax[neg] / _pow10(-p[neg])
        pos = ~neg
        scaled[pos] = ax[pos] * _pow10(p[pos])
    return np.floor(scaled).astype(np.int64)


def _check_depth(k: int):
    if not 1 <= k <= MAX_DEPTH:
        raise ValueError(f"digit depth must be in 1..{MAX_DEPTH}, got {k}")


def key_bounds(k: int) -> tuple[int, int]:
    """Inclusive key range [10^(k-1), 10^k - 1] for depth k."""
    _check_depth(k)
    return 10 ** (k - 1), 10**k - 1


@dataclass(frozen=True)
class DigitKey:
    """First k significant digits of a number, as the integer d1 d2 .. dk."""

    k: int
    value: int

    def __post_init__(self):
        lo, hi = key_bounds(self.k)
        if not lo <= self.value <= hi:
            raise ValueError(f"key {self.value} outside [{lo}, {hi}] for k={self.k}")


def digit_keys(values, k: int) -> np.ndarray:
    """Vectorized digit extraction: int64 key per nonzero finite value."""
    _check_depth(k)
    ax = np.abs(np.asarray(values, dtype=float))
    if ax.size and (not np.all(np.isfinite(ax)) or np.any(ax == 0.0)):
        raise ValueError("digit extraction requires nonzero finite values")
    # lift near-denormals so the 10**(k-1-e) scale factor stays finite
    tiny = ax < 1e-290
    if tiny.any():
        ax[tiny] *= 1e300
    exp = np.floor(np.log10(ax)).astype(np.int64)
    # floor(log10) lands one decade off when the value sits within an ulp
    # of a decade boundary; verify against the boundary doubles.  low is
    # the boundary double of the decade exp throughout.
    low = _pow10(exp)
    off = ax < low
    if off.any():
        exp[off] -= 1
        low[off] = _pow10(exp[off])
    high = _pow10(exp + 1)
    off = ax >= high
    if off.any():
        exp[off] += 1
        low[off] = high[off]
    # a value equal to a boundary double that itself sits below its decade
    # (1e23 stores as 9.99...e22) has stored digits of all nines, so it
    # keys one decade down
    bnd = ax == low
    if bnd.any():
        bnd[bnd] = _POW10_BELOW[exp[bnd] + _POW_RANGE]
        exp[bnd] -= 1
    lo, hi = key_bounds(k)
    m = _floor_scale(ax, (k - 1) - exp)
    # with the exponent settled, the scaled value can only leave the key
    # range by rounding across it, which pins the digits: all nines above
    # (clamp to hi), a bare 1 followed by zeros below (clamp to lo)
    return np.clip(m, lo, hi)


def significant_digits(x: float, k: int) -> DigitKey:
    """DigitKey of the first k significant digits of x (x nonzero, finite)."""
    if x == 0.0:
        raise ValueError("zero has no significant digits")
    if not math.isfinite(x):
        raise ValueError(f"non-finite value {x!r}")
    return DigitKey(k, int(digit_keys([x], k)[0]))


def benford_probability(key: DigitKey) -> float:
    """Generalized Benford probability log10(1 + 1/key)."""
    return math.log10(1.0 + 1.0 / key.value)


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

    def count_of(self, key: DigitKey) -> float:
        if key.k != self.k:
            raise ValueError("digit depth mismatch")
        return float(self.counts[key.value - 10 ** (self.k - 1)])


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


def key_histograms(nonzero, ks) -> dict[int, np.ndarray]:
    """Key counts at each depth in ks from one key pass at the deepest depth
    K: key_k = key_K // 10^(K-k), so runs of 10^(K-k) bins sum exactly."""
    _check_depth(min(ks))
    kmax = max(ks)
    lo, hi = key_bounds(kmax)
    deepest = np.bincount(digit_keys(nonzero, kmax) - lo, minlength=hi - lo + 1)
    deepest = deepest.astype(float)
    return {k: deepest.reshape(9 * 10 ** (k - 1), -1).sum(axis=1) for k in ks}


def combo_distances(nonzero, combos) -> list[float]:
    """Distance of nonzero values from the Benford law for each (k, distance)
    combo, every depth from one `key_histograms` pass and one expected table
    per depth."""
    counts = key_histograms(nonzero, {k for k, _ in combos})
    expected = {k: c.sum() * benford_probabilities(k) for k, c in counts.items()}
    return [_RAW_DISTANCES[d](counts[k], expected[k]) for k, d in combos]


def _check_pair(observed: FrequencyTable, expected: FrequencyTable):
    if observed.k != expected.k:
        raise ValueError(
            f"digit depth mismatch: observed k={observed.k}, expected k={expected.k}"
        )


def delta_md(observed: FrequencyTable, expected: FrequencyTable) -> float:
    """Mean-deviation-style distance sum(|O - E| / E) over all keys."""
    _check_pair(observed, expected)
    if np.any(expected.counts <= 0.0):
        raise ValueError("expected counts must be strictly positive")
    return _delta_md(observed.counts, expected.counts)


def delta_sd(observed: FrequencyTable, expected: FrequencyTable) -> float:
    """Standard-deviation-style distance sqrt(sum((O - E)^2))."""
    _check_pair(observed, expected)
    return _delta_sd(observed.counts, expected.counts)


def delta_bd(observed: FrequencyTable, expected: FrequencyTable) -> float:
    """Bhattacharyya distance -ln sum(sqrt(o * e)) between the tables
    normalized to probability distributions (nonnegative by construction)."""
    _check_pair(observed, expected)
    if not (observed.total > 0.0 and expected.total > 0.0):
        raise ValueError("both tables need a positive total")
    return _delta_bd(observed.counts, expected.counts)


def _delta_md(obs: np.ndarray, exp: np.ndarray) -> float:
    return float(np.sum(np.abs(obs - exp) / exp))


def _delta_sd(obs: np.ndarray, exp: np.ndarray) -> float:
    return float(np.sqrt(np.sum((obs - exp) ** 2)))


def _delta_bd(obs: np.ndarray, exp: np.ndarray) -> float:
    o = obs / obs.sum()
    e = exp / exp.sum()
    bc = float(np.sum(np.sqrt(o * e)))
    return max(0.0, -math.log(bc))


DISTANCES = {"md": delta_md, "sd": delta_sd, "bd": delta_bd}
_RAW_DISTANCES = {"md": _delta_md, "sd": _delta_sd, "bd": _delta_bd}
