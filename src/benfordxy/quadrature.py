"""Adaptive Simpson quadrature for smooth integrands on a finite interval.

The integrands in this package (momentum integrals of the XY chain) are
bounded and continuous on [0, pi] for nonzero anisotropy, so a composite
adaptive Simpson rule with Richardson correction reaches absolute
tolerances around 1e-12 with a few hundred evaluations.  A hard budget on
the number of subintervals turns non-convergence (e.g. an accidentally
singular integrand) into an error instead of a silent bad value.

One engine integrates a batch of integrands ("rows", e.g. one per field
value) at once.  Every row keeps its own interval tree, tolerance halving
and budget; the engine walks the trees level by level and evaluates the
whole frontier of all rows in one vectorized integrand call per level.
Converged pieces are summed per row from left to right, the order of a
depth-first walk, so a row's result does not depend on the other rows in
its batch.  A scalar integral is the one-row case.
"""

from __future__ import annotations

from typing import Callable

import numpy as np


class QuadratureError(RuntimeError):
    """Raised when the subdivision budget is exhausted before convergence."""


DEFAULT_TOL = 1e-10
DEFAULT_MAX_INTERVALS = 8192
#: rows walked together; bounds the frontier arrays (memory), not results.
#: A window of 200 field values is one batch; on 2000 values (one core of
#: a 2-vCPU Xeon VM) 256 rows ran 0.77 of the time of 64, and 1024 rows
#: no faster with 4x the memory
ROWS_PER_BATCH = 256


def integrate(
    f: Callable,
    a: float,
    b: float,
    tol: float = DEFAULT_TOL,
    max_intervals: int = DEFAULT_MAX_INTERVALS,
    *,
    rows: int | None = None,
):
    """Integrate f over [a, b] to absolute tolerance tol.

    With ``rows=None``, f maps a float to a float and the integral is a
    float.  With ``rows=R``, f maps one pair ``(row, x)`` of equal-length
    arrays (row indices in range(R) and nodes) to the integrands' values
    there, and the result is the array of the R integrals.

    Every row may use up to max_intervals subintervals; one row that needs
    more raises QuadratureError for the whole call.  Deterministic: each
    row's subdivision is a fixed function of its own integrand values, so
    repeated calls give bit-identical results, whatever the other rows.
    """
    if not b > a:
        raise ValueError(f"empty or reversed interval [{a}, {b}]")
    if tol <= 0:
        raise ValueError("tol must be positive")
    if rows is None:

        def batch(pair):
            return np.array([f(x) for x in pair[1].tolist()], dtype=float)

        return float(_integrate_rows(batch, a, b, 1, tol, max_intervals)[0])
    return _integrate_rows(f, a, b, rows, tol, max_intervals)


def _integrate_rows(f, a, b, rows, tol, max_intervals) -> np.ndarray:
    out = np.empty(rows)
    for start in range(0, rows, ROWS_PER_BATCH):
        ids = np.arange(start, min(start + ROWS_PER_BATCH, rows))
        out[ids] = _batch(f, a, b, ids, tol, max_intervals)
    return out


def _pairs(left, right):
    """[left0, right0, left1, right1, ...]: children stay in tree order."""
    out = np.empty(2 * left.size, dtype=left.dtype)
    out[0::2] = left
    out[1::2] = right
    return out


def _batch(f, a, b, ids, tol, max_intervals) -> np.ndarray:
    k = ids.size
    m = 0.5 * (a + b)
    fx = np.asarray(f((np.tile(ids, 3), np.repeat([a, m, b], k))), dtype=float)
    fa, fm, fb = fx[:k], fx[k : 2 * k], fx[2 * k :]
    floor = 1e-14 * (b - a)

    # The frontier: intervals (lo, hi, f(lo), f(mid), f(hi), simpson, local
    # tol) of every row still open, row `row`, grouped by row and in tree
    # order within a row.
    row = np.arange(k)
    lo, hi = np.full(k, float(a)), np.full(k, float(b))
    flo, fmid, fhi = fa, fm, fb
    s = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    t = np.full(k, float(tol))
    used = np.zeros(k, dtype=np.int64)
    levels = []  # per level: (row, converged mask, converged pieces)
    while row.size:
        used += np.bincount(row, minlength=k)
        if used.max() > max_intervals:
            raise QuadratureError(
                f"quadrature did not converge within {max_intervals} "
                f"subintervals (tol={tol:g}); check tolerance and parameters"
            )
        mid = 0.5 * (lo + hi)
        lm = 0.5 * (lo + mid)
        rm = 0.5 * (mid + hi)
        n = row.size
        nodes = (np.concatenate((ids[row], ids[row])), np.concatenate((lm, rm)))
        fv = np.asarray(f(nodes), dtype=float)
        flm, frm = fv[:n], fv[n:]
        sl = (mid - lo) / 6.0 * (flo + 4.0 * flm + fmid)
        sr = (hi - mid) / 6.0 * (fmid + 4.0 * frm + fhi)
        err = sl + sr - s
        done = (np.abs(err) <= 15.0 * t) | ((hi - lo) <= floor)
        levels.append((row, done, (sl + sr + err / 15.0)[done]))
        go = ~done
        row = np.repeat(row[go], 2)
        lo, hi = _pairs(lo[go], mid[go]), _pairs(mid[go], hi[go])
        flo, fmid, fhi = (
            _pairs(flo[go], fmid[go]),
            _pairs(flm[go], frm[go]),
            _pairs(fmid[go], fhi[go]),
        )
        s = _pairs(sl[go], sr[go])
        t = np.repeat(0.5 * t[go], 2)
    return _sum_in_order(levels, k)


def _sum_in_order(levels, k) -> np.ndarray:
    """Per row, 0.0 plus its converged pieces in left-to-right order.

    A piece's place in its row is the number of pieces left of it: count
    the pieces under each node bottom-up, then, top-down, start each right
    child after its left sibling's pieces.
    """
    counts = []
    below = np.zeros(0, dtype=np.int64)
    for _, done, _ in reversed(levels):
        here = np.ones(done.size, dtype=np.int64)
        here[~done] = below[0::2] + below[1::2]
        counts.append(below)
        below = here
    counts.reverse()  # counts[i]: pieces under each node of level i + 1
    pieces = np.zeros((k, int(below.max()) + 1))
    first = np.zeros(k, dtype=np.int64)  # pieces left of each node
    for (row, done, value), below in zip(levels, counts):
        pieces[row[done], 1 + first[done]] = value
        left = first[~done]
        first = _pairs(left, left + below[0::2])
    return np.cumsum(pieces, axis=1)[:, -1]
