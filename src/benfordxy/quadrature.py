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
The rows halve the same interval [a, b], so their trees share intervals:
each level keeps one table of the intervals open in some row, with their
midpoints, Simpson weights and new nodes, and the integrand gets each
node of the level once, with the (row, node) entries as indices into it.
A node's float is a function of its place in the tree alone, so sharing
it changes no bit.  Converged pieces are summed per row from left to
right, the order of a depth-first walk, so a row's result does not depend
on the other rows in its batch.  A scalar integral is the one-row case.
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
    float.  With ``rows=R``, f maps one triple ``(row, nodes, at)`` to the
    integrands' values at a level's entries, and the result is the array
    of the R integrals: row and at are equal-length index arrays, and
    entry i is row ``row[i]`` (in range(R)) at node ``nodes[at[i]]``.
    nodes holds each node of the level once (``[a, (a + b)/2, b]`` in the
    first call), so f can compute what depends on the node alone once per
    node and gather it per entry.

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

        def batch(entries):
            _, nodes, at = entries
            return np.array([f(x) for x in nodes[at].tolist()], dtype=float)

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
    at = np.repeat(np.arange(3), k)
    fx = np.asarray(f((np.tile(ids, 3), np.array([a, m, b], dtype=float), at)), dtype=float)
    fa, fm, fb = fx[:k], fx[k : 2 * k], fx[2 * k :]
    floor = 1e-14 * (b - a)

    # The level's table: each interval (lo, hi) open in some row, once, in
    # tree order.  The frontier: per interval still open in a row, that row,
    # the interval's index `at` in the table, f(lo), f(mid), f(hi) and its
    # Simpson value; grouped by row and in tree order within a row.  Every
    # interval of a level has the same depth, so one tolerance t.
    lo, hi = np.array([float(a)]), np.array([float(b)])
    row, at = np.arange(k), np.zeros(k, dtype=np.intp)
    flo, fmid, fhi = fa, fm, fb
    s = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    t = float(tol)
    used = np.zeros(k, dtype=np.int64)
    levels = []  # per level: (row, converged mask, converged pieces)
    while row.size:
        used += np.bincount(row, minlength=k)
        if used.max() > max_intervals:
            raise QuadratureError(
                f"quadrature did not converge within {max_intervals} "
                f"subintervals (tol={tol:g}); check tolerance and parameters"
            )
        # per interval of the table: midpoint, Simpson weights, floor test
        mid = 0.5 * (lo + hi)
        wl, wr = (mid - lo) / 6.0, (hi - mid) / 6.0
        small = (hi - lo) <= floor
        n, span = row.size, lo.size
        nodes = np.concatenate((0.5 * (lo + mid), 0.5 * (mid + hi)))
        r = ids[row]
        fv = np.asarray(f((np.concatenate((r, r)), nodes, np.concatenate((at, at + span)))),
                        dtype=float)
        flm, frm = fv[:n], fv[n:]
        sl = wl[at] * (flo + 4.0 * flm + fmid)
        sr = wr[at] * (fmid + 4.0 * frm + fhi)
        both = sl + sr
        err = both - s
        done = (np.abs(err) <= 15.0 * t) | small[at]
        levels.append((row, done, (both + err / 15.0)[done]))
        go = ~done
        # the next table: the halves of the intervals still open in some
        # row, in tree order, so the j-th of these has intervals 2j, 2j + 1
        parent = at[go]
        still = np.zeros(span, dtype=bool)
        still[parent] = True
        kept = np.flatnonzero(still)
        first = np.empty(span, dtype=np.intp)
        first[kept] = np.arange(0, 2 * kept.size, 2)
        lo, hi = _pairs(lo[kept], mid[kept]), _pairs(mid[kept], hi[kept])
        left = first[parent]
        at = _pairs(left, left + 1)
        row = np.repeat(row[go], 2)
        fmid_go = fmid[go]
        flo, fmid, fhi = (
            _pairs(flo[go], fmid_go),
            _pairs(flm[go], frm[go]),
            _pairs(fmid_go, fhi[go]),
        )
        s = _pairs(sl[go], sr[go])
        t *= 0.5
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
