"""Unit tests for the fixed graded Gauss-Legendre rule."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

import benfordxy
from benfordxy import quadrature, xy_model
from benfordxy.quadrature import MAX_NODES, ORDER, QuadratureError, integrate, rule
from benfordxy.xy_model import ObservableCurve, ObservableKind, _rule_args

WIDTHS = (math.inf, 1.0, 0.04, 4.0 / 30)


@pytest.mark.parametrize("width", WIDTHS)
def test_weights_sum_to_the_length(width):
    for a, b in ((0.0, math.pi), (-1.0, 2.5)):
        nodes, weights = rule(a, b, width)
        assert abs(weights.sum() - (b - a)) <= 4e-15 * (b - a)
        assert nodes.size == weights.size
        assert a < nodes[0] and nodes[-1] < b and (np.diff(nodes) > 0).all()
        assert (weights > 0).all() and not nodes.flags.writeable


def _parts(a, b, width):
    """(lo, hi, order, nodes, weights) of each part of rule(a, b, width), in
    node order, from the panels the rule was built on."""
    nodes, weights = rule(a, b, width)
    at = 0
    for lo, hi, parts, order in quadrature._panels(a, b, width):
        cuts = np.linspace(lo, hi, parts + 1)
        for p in range(parts):
            yield cuts[p], cuts[p + 1], order, nodes[at:at + order], weights[at:at + order]
            at += order
    assert at == nodes.size


def _fewest_nodes(part, width):
    """The order the rule's docstring defines, by counting up: the fewest n
    with rho^(-2n) no larger than (1 + sqrt 2)^(-2 ORDER)."""
    a = max(width / part, 1.0)
    rho = min(a + math.sqrt(a * a + 1.0), 3.0 + math.sqrt(8.0))
    target = (1.0 + math.sqrt(2.0)) ** (-2 * ORDER) * (1.0 + 1e-12)
    return next(n for n in range(1, ORDER + 1) if rho ** (-2 * n) <= target)


def test_polynomial_is_machine_exact():
    for b, width in ((1.0, 0.2), (math.pi, 1.0), (math.pi, 4.0 / 30), (1.0, math.inf)):
        _check_polynomials_part_by_part(b, width)


def _check_polynomials_part_by_part(b, width):
    # A part's n nodes integrate every polynomial up to degree 2n - 1: on a
    # part with midpoint c and half-width h, ((x - c)/h)^d integrates to
    # 2h/(d + 1) for even d and to 0 for odd d.  Floats near 0 keep a
    # part's relative precision however narrow it is, so the parts of the
    # left half of [0, b] are checked one by one, each at its own order.
    orders = set()
    for lo, hi, order, x, w in _parts(0.0, b, width):
        orders.add(order)
        if lo >= 0.5 * b:
            continue
        assert lo < x[0] and x[-1] < hi and abs(w.sum() - (hi - lo)) <= 4e-15 * (hi - lo)
        h, t = 0.5 * (hi - lo), (x - 0.5 * (lo + hi)) / (0.5 * (hi - lo))
        for d in range(2 * order):
            got = (w * t**d).sum() / (2.0 * h)
            assert abs(got - (d % 2 == 0) / (d + 1)) <= 2e-15, (lo, order, d)
    # the whole rule, on [0, b] and on [-b, b], is exact on x^d up to the
    # degree of its fewest-node parts, to 2e-15 and 4e-15 times b^(d + 1)
    # where that is above 1
    for a, tol in ((0.0, 2e-15), (-b, 4e-15)):
        nodes, weights = rule(a, b, width)
        for d in range(2 * min(orders)):
            want = (b ** (d + 1) - a ** (d + 1)) / (d + 1)
            assert abs(weights @ nodes**d - want) <= tol * max(1.0, b ** (d + 1)), (a, d)


def test_sine_oracle():
    nodes, weights = rule(0.0, math.pi)
    assert abs(weights @ np.sin(nodes) - 2.0) < 1e-14


def test_oscillatory_meets_tolerance():
    # Panels at most 0.1 wide resolve cos(40 x): 0.64 periods per panel.
    nodes, weights = rule(0.0, 1.0, 0.1)
    assert abs(weights @ np.cos(40.0 * nodes) - math.sin(40.0) / 40.0) < 1e-15


def test_determinism():
    def f(nodes_weights):
        nodes, weights = nodes_weights
        return weights @ np.sqrt(np.abs(np.sin(13.0 * nodes)) + 0.1)

    assert integrate(f, 0.0, 2.0) == integrate(f, 0.0, 2.0)
    assert rule(0.0, 2.0) is rule(0.0, 2.0)


def test_one_cache_entry_per_rule():
    # defaults left out, given by name or given by position are one rule
    quadrature._rule.cache_clear()
    forms = [rule(0.0, math.pi, 0.5), rule(0.0, math.pi, width=0.5),
             rule(0.0, math.pi, 0.5, quadrature.LEVELS),
             rule(0.0, math.pi, 0.5, quadrature.LEVELS, quadrature.LEVELS),
             rule(0.0, math.pi, 0.5, depth_a=quadrature.LEVELS)]
    assert all(form is forms[0] for form in forms)
    assert quadrature._rule.cache_info().currsize == 1


def test_reversed_interval_rejected():
    with pytest.raises(ValueError):
        rule(1.0, 0.0)
    with pytest.raises(ValueError):
        rule(1.0, 1.0)


def test_nan_width_rejected():
    with pytest.raises(ValueError, match="width"):
        rule(0.0, math.pi, math.nan)


def test_budget_exhaustion_raises():
    # A rule over MAX_NODES is refused from its node count, before any
    # array is built or the integrand is called.  Width 0 (4/|r| at an
    # offset past the float range) needs every node there is.
    def never(*args):
        raise AssertionError("the integrand was called")

    for width in (0.0, 1e-9, 5e-324, math.pi / MAX_NODES):
        with pytest.raises(QuadratureError):
            rule(0.0, math.pi, width)
        with pytest.raises(QuadratureError):
            integrate(never, 0.0, math.pi, width)
    assert rule(0.0, math.pi, 0.01)[0].size <= MAX_NODES


def test_rule_size_counts_panels():
    # 2 (LEVELS + 1) graded panels; a width bound splits the wide ones.
    assert rule(0.0, 1.0)[0].size == ORDER * 2 * (quadrature.LEVELS + 1)
    # [1/4, 1/2] and [1/2, 3/4] are halved at width 0.2 and fit at 1/3
    for width, parts in ((0.2, 2), (1.0 / 3, 1)):
        quarters = [p for lo, hi, p, _ in quadrature._panels(0.0, 1.0, width) if hi - lo == 0.25]
        assert quarters == [parts, parts], width
    # per half: 39 panels of 8 nodes, then [1/8, 1/4] and the parts of
    # [1/4, 1/2] at 12 nodes each (width 0.2), or at 9 and 13 (width 1/3)
    assert rule(0.0, 1.0, 0.2)[0].size == 2 * (39 * 8 + 12 + 2 * 12) == 696
    assert rule(0.0, 1.0, 1.0 / 3)[0].size == 2 * (39 * 8 + 9 + 13) == 668


@pytest.mark.parametrize("width", [*WIDTHS, 2e-3, 0.05, 4.0])
def test_each_part_takes_the_fewest_nodes_that_match_the_widest(width):
    # Without a bound every part keeps ORDER nodes; with one, each part
    # takes the fewest nodes n with rho^(-2n) <= (1 + sqrt 2)^(-2 ORDER):
    # ORDER on parts as wide as the bound, down to ORDER/2 on the graded
    # panels near the ends.
    for lo, hi, parts, order in quadrature._panels(0.0, math.pi, width):
        want = ORDER if math.isinf(width) else _fewest_nodes((hi - lo) / parts, width)
        assert order == want, (lo, hi, parts)
        assert ORDER // 2 <= order <= ORDER


def test_panels_below_the_floats_resolution_are_kept():
    # Near 1e10 the innermost graded panels are narrower than an ulp and
    # collapse to zero width; they take the fewest nodes and no weight.
    nodes, weights = rule(1e10, 1e10 + 1.0, 0.5)
    panels = quadrature._panels(1e10, 1e10 + 1.0, 0.5)
    assert nodes.size == sum(parts * order for *_, parts, order in panels)
    assert abs(weights.sum() - 1.0) <= 1e-15 and (weights >= 0.0).all()


def test_gamma_half_rule_halves_the_nodes():
    # gamma = 0.5 bounds panels at 1 and, needing no grading toward pi for
    # lam >= 0, halves only toward 0: its widest panels, pi/4, take 14
    # nodes, the next, pi/8, take 9 and the 39 narrower ones 8 each, and
    # [pi/2, pi] is two parts of 14: 363 nodes, against 670 graded toward
    # both ends and 1 312 with ORDER on every panel.
    args = _rule_args(0.5, ())
    orders = [order for *_, order in quadrature._panels(*args)]
    assert args[3] == 0 and orders[:3] == [8, 8, 8] and orders[39:] == [9, 14, 14]
    assert rule(*args)[0].size == 14 + 9 + 39 * 8 + 2 * 14 == 363 <= 400


def test_depth_grades_toward_b_only_as_deep_as_asked():
    # LEVELS halvings toward a and depth toward b: depth + 1 panels in the
    # right half, the last pi 2^-(depth + 1) wide; LEVELS is the default.
    for depth in (0, 1, 12, quadrature.LEVELS):
        panels = quadrature._panels(0.0, math.pi, math.inf, depth)
        assert len(panels) == quadrature.LEVELS + 2 + depth
        assert panels[-1][:2] == (math.pi - math.pi * 2.0 ** -(depth + 1), math.pi)
    assert quadrature._panels(0.0, 1.0, 0.2) == quadrature._panels(0.0, 1.0, 0.2, 40, 40)
    for depth in (-1, quadrature.LEVELS + 1):
        with pytest.raises(ValueError, match="depth must"):
            rule(0.0, 1.0, math.inf, depth)
        with pytest.raises(ValueError, match="depth_a must"):
            rule(0.0, 1.0, math.inf, 0, depth)
    # and depth_a toward a: depth_a + 1 panels in the left half, the first
    # pi 2^-(depth_a + 1) wide; the others are the full-depth rule's own
    full = quadrature._panels(0.0, math.pi, 1.0, 0)
    for depth_a in (0, 1, 8, quadrature.LEVELS):
        panels = quadrature._panels(0.0, math.pi, 1.0, 0, depth_a)
        assert len(panels) == depth_a + 2
        assert panels[0][:2] == (0.0, math.pi * 2.0 ** -(depth_a + 1))
        assert panels[1:] == full[len(full) - len(panels) + 1:]
    # gamma above 1 grades toward pi ceil(log2(pi |gamma|)) times
    depths = [_rule_args(g, ())[3] for g in (-1.0, 1.0, 1.01, 2.0, -1e3, 1e150)]
    assert depths == [0, 0, 2, 3, 12, quadrature.LEVELS]
    assert [rule(*_rule_args(g, ()))[0].size for g in (2.0, 1e3)] == [360, 432]


DENSE_GAMMAS = (0.02, 0.1, 0.5, 1.0, 5.0)
DENSE_KINDS = ("mz", "txx", "tyy", "g:2", "g:3", "g:7", "g:30", "g:-30", "g:300", "g:3000")
DENSE_LAMS = np.concatenate([
    np.linspace(-2.5, 2.5, 901),
    [side * (1.0 + sign * 10.0**-k) for side in (1, -1) for sign in (1, -1)
     for k in range(1, 14)],
])


def _dense_lams(gamma):
    """DENSE_LAMS and, on both sides of lam = +-1, the fields |1 - |lam|| =
    pi |gamma| 2^-j: each the nearest to 1 of those `_depths_a` grades
    alike before the depths are rounded up, so the least graded for its
    distance."""
    edge = math.pi * abs(gamma) * 2.0 ** -np.arange(2, quadrature.LEVELS + 1)
    near = np.concatenate([1.0 + edge, 1.0 - edge[edge < 1.0]])
    return np.unique(np.concatenate([DENSE_LAMS, near, -near]))


def _sixteen_nodes_per_part(a, b, width, depth):
    """The rule on the same panels and parts, graded LEVELS times toward a,
    with ORDER nodes on each part."""
    x, w = quadrature._gauss_legendre(ORDER)
    panels = quadrature._panels(a, b, width, depth)
    cuts = np.concatenate([np.linspace(lo, hi, parts + 1)[:-1]
                           for lo, hi, parts, _ in panels] + [[b]])
    half, mid = 0.5 * np.diff(cuts)[:, None], 0.5 * (cuts[:-1] + cuts[1:])[:, None]
    return (mid + half * x).ravel(), (half * w).ravel()


def _dense_error(gamma, monkeypatch):
    """Worst |value - reference| of each DENSE_KINDS observable over
    `_dense_lams(gamma)`, the reference taken on the full-depth panels at
    ORDER nodes a part (`_sixteen_nodes_per_part`)."""
    kinds = tuple(ObservableKind.parse(kind) for kind in DENSE_KINDS)
    lams = _dense_lams(gamma)
    got = ObservableCurve(kinds, gamma)(lams)

    def sixteen(f, a, b, width, depth, depth_a):
        return f(_sixteen_nodes_per_part(a, b, width, depth))

    with monkeypatch.context() as patch:
        patch.setattr(xy_model, "integrate", sixteen)
        want = ObservableCurve(kinds, gamma)(lams)
    return np.abs(got - want).max(axis=1)


@pytest.mark.parametrize("gamma", DENSE_GAMMAS)
def test_fewer_nodes_keep_the_sixteen_node_values(gamma, monkeypatch):
    # Every observable on a dense field grid through lam = +-1 (+-1e-13 ..
    # 1e-1 on both sides, and the least graded field of each depth), with
    # each field graded toward phi = 0 by `_depths_a`, must stay within
    # 5e-14 of the full-depth panels at ORDER nodes each; needs no scipy.
    err = _dense_error(gamma, monkeypatch)
    assert err.max() <= 5e-14, dict(zip(DENSE_KINDS, err))


@pytest.mark.parametrize("gamma, shallower", [(0.02, 4), (0.1, 3), (0.5, 3), (1.0, 3),
                                              (5.0, 3)])
def test_shallower_depths_break_the_sixteen_node_bound(gamma, shallower, monkeypatch):
    # The bound above bites on the depths toward phi = 0: 3 halvings fewer
    # than `_depths_a` gives break it at every gamma but 0.02, whose panels
    # at most 0.04 wide leave a wider margin (6.3e-15 at 3 fewer), broken
    # at 4 fewer.
    depths_a = xy_model._depths_a
    monkeypatch.setattr(xy_model, "_depths_a",
                        lambda fields, gamma: np.maximum(depths_a(fields, gamma) - shallower, 0))
    assert _dense_error(gamma, monkeypatch).max() > 5e-14


def test_depths_toward_zero_follow_the_distance_to_the_critical_field():
    # ceil(log2(pi |gamma| / |1 - |lam||)) + 2 halvings, rounded up to a
    # multiple of DEPTH_STEP = 4, in 0..LEVELS: LEVELS at |lam| = 1 and at a
    # non-finite field, with no floating-point warning.  At gamma = 0.5,
    # lam = 0.9 takes ceil(3.97) + 2 = 6 -> 8, and 1 - 1e-9 ceil(30.55) + 2
    # = 33 -> 36.
    fields = np.array([0.0, 0.5, 0.9, 1.0 - 1e-9, 1.0, 1.0 + 2.0**-52, 1.5, 1e300,
                       math.inf, math.nan])
    with np.errstate(all="raise"):
        assert xy_model._depths_a(fields, 0.5).tolist() == [4, 4, 8, 36, 40, 40, 4, 0, 40, 40]
        assert xy_model._depths_a(np.array([0.0]), 1e150).tolist() == [40]
    assert xy_model.DEPTH_STEP == 4 and quadrature.LEVELS == 40


def _modules_loaded_by(code, packages):
    """The modules of packages that a fresh interpreter has loaded after
    running code, which imports benfordxy.cli first."""
    src = os.path.dirname(os.path.dirname(benfordxy.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = (f"import sys, benfordxy.cli\n{code}"
            f"print(sorted(m for m in sys.modules for p in {packages!r}\n"
            f"             if m == p or m.startswith(p + '.')))\n")
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True).stdout


N_INF_CALL = ("from benfordxy.xy_model import ObservableCurve, ObservableKind\n"
              "ObservableCurve(ObservableKind('mz'), 0.5)([0.5, 0.9, 1.0 - 1e-9, 1.0])\n")


def test_n_inf_call_imports_neither_scipy_nor_numpy_polynomial():
    # The rule is built with numpy.linalg alone: numpy.polynomial's lazy
    # import and leggauss would cost a fifth of an N = inf profile.
    assert _modules_loaded_by(N_INF_CALL, ("scipy", "numpy.polynomial")) == "[]\n"


def test_n_inf_call_and_cubic_fit_leave_numpy_ma_unimported():
    # np.unique imports numpy.ma on its first call (about 20 ms): neither
    # the grouping of N = inf fields by depth nor the cubic fit's count of
    # distinct x may use it.
    code = N_INF_CALL + (
        "import numpy as np\n"
        "from benfordxy.scaling import cubic_fit\n"
        "x = np.repeat(np.linspace(0.9, 1.1, 5), 2)\n"
        "cubic_fit(np.column_stack([x, (x - 1.0) ** 3]), (0.8, 1.2))\n"
    )
    assert _modules_loaded_by(code, ("numpy.ma",)) == "[]\n"
