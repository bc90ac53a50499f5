"""Unit tests for the batched (many-row) adaptive Simpson engine."""

import math

import numpy as np
import pytest

from benfordxy import quadrature
from benfordxy.quadrature import QuadratureError, integrate

# Kinks at irrational points force deep, row-specific subdivision trees.
KINKS = np.array([1.0 / math.sqrt(2.0), math.pi / 5.0, 0.5 + 1e-9, math.e / 3.0, 0.1])


def kinked(entries):
    row, nodes, at = entries
    x = nodes[at]
    return np.sqrt(np.abs(x - KINKS[row])) + x * x


def kinked_scalar(c):
    return lambda x: math.sqrt(abs(x - c)) + x * x


def depth_first(f, a, b, tol=quadrature.DEFAULT_TOL):
    """(integral, intervals used) by a depth-first interval stack: the tree
    and the left-to-right summation order the engine must reproduce."""
    fa, fm, fb = f(a), f(0.5 * (a + b)), f(b)
    stack = [(a, b, fa, fm, fb, (b - a) / 6.0 * (fa + 4.0 * fm + fb), tol)]
    total, used = 0.0, 0
    while stack:
        lo, hi, flo, fmid, fhi, s, t = stack.pop()
        used += 1
        mid = 0.5 * (lo + hi)
        flm, frm = f(0.5 * (lo + mid)), f(0.5 * (mid + hi))
        sl = (mid - lo) / 6.0 * (flo + 4.0 * flm + fmid)
        sr = (hi - mid) / 6.0 * (fmid + 4.0 * frm + fhi)
        err = sl + sr - s
        if abs(err) <= 15.0 * t or (hi - lo) <= 1e-14 * (b - a):
            total += sl + sr + err / 15.0
        else:
            stack.append((mid, hi, fmid, frm, fhi, sr, 0.5 * t))
            stack.append((lo, mid, flo, flm, fmid, sl, 0.5 * t))
    return total, used


def test_rows_match_depth_first_stack_bit_for_bit():
    got = integrate(kinked, 0.0, 1.0, rows=KINKS.size)
    for c, value in zip(KINKS, got):
        assert value == depth_first(kinked_scalar(c), 0.0, 1.0)[0]
        assert integrate(kinked_scalar(c), 0.0, 1.0) == value


@pytest.mark.parametrize("batch", [1, 2, 3, 64, 256])
def test_row_alone_equals_row_in_batch(monkeypatch, batch):
    together = integrate(kinked, 0.0, 1.0, rows=KINKS.size)
    monkeypatch.setattr(quadrature, "ROWS_PER_BATCH", batch)
    assert np.array_equal(integrate(kinked, 0.0, 1.0, rows=KINKS.size), together)
    for i in range(KINKS.size):
        alone = integrate(lambda e: kinked((e[0] + i, e[1], e[2])), 0.0, 1.0, rows=1)
        assert alone[0] == together[i]


def test_one_row_over_budget_fails_the_call():
    used = [depth_first(kinked_scalar(c), 0.0, 1.0, 1e-13)[1] for c in KINKS]
    limit = max(used)
    assert min(used) < limit  # the other rows fit well within the budget
    integrate(kinked, 0.0, 1.0, tol=1e-13, max_intervals=limit, rows=KINKS.size)
    with pytest.raises(QuadratureError):
        integrate(kinked, 0.0, 1.0, tol=1e-13, max_intervals=limit - 1, rows=KINKS.size)


def test_one_call_per_level():
    calls = []

    def counted(entries):
        _, nodes, at = entries
        assert np.unique(nodes).size == nodes.size  # each node of the level once
        assert at.min() >= 0 and at.max() < nodes.size
        calls.append(at.size)
        return kinked(entries)

    integrate(counted, 0.0, 1.0, rows=KINKS.size)
    assert calls[0] == 3 * KINKS.size  # both ends and the midpoint of each row
    used = sum(depth_first(kinked_scalar(c), 0.0, 1.0)[1] for c in KINKS)
    assert sum(calls[1:]) == 2 * used  # two new nodes per interval


def test_empty_batch():
    assert integrate(kinked, 0.0, 1.0, rows=0).shape == (0,)
