"""Unit tests for the fixed graded Gauss-Legendre rule."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

import benfordxy
from benfordxy import quadrature
from benfordxy.quadrature import MAX_NODES, ORDER, QuadratureError, integrate, rule, rule_size

WIDTHS = (math.inf, 1.0, 0.04, 4.0 / 30)


@pytest.mark.parametrize("width", WIDTHS)
def test_weights_sum_to_the_length(width):
    for a, b in ((0.0, math.pi), (-1.0, 2.5)):
        nodes, weights = rule(a, b, width)
        assert abs(weights.sum() - (b - a)) <= 4e-15 * (b - a)
        assert nodes.size == weights.size == rule_size(a, b, width)
        assert a < nodes[0] and nodes[-1] < b and (np.diff(nodes) > 0).all()
        assert (weights > 0).all() and not nodes.flags.writeable


def test_polynomial_is_machine_exact():
    # Each panel's ORDER nodes integrate every polynomial up to degree
    # 2 ORDER - 1 = 31: on a panel with midpoint c and half-width h,
    # ((x - c)/h)^d integrates to 2h/(d + 1) for even d and to 0 for odd d.
    # Floats near 0 keep a panel's relative precision however narrow it is,
    # so the left half's panels are checked one by one; the whole rule on
    # [0, 1] and on [-1, 1] must be exact on x^d as well.
    nodes, weights = rule(0.0, 1.0, 0.2)
    sym_nodes, sym_weights = rule(-1.0, 1.0)
    left = nodes.size // 2
    x, w = nodes[:left].reshape(-1, ORDER), weights[:left].reshape(-1, ORDER)
    h = w.sum(axis=1, keepdims=True) / 2.0
    t = (x - x.mean(axis=1, keepdims=True)) / h
    for d in range(2 * ORDER):
        got = (w * t**d).sum(axis=1) / (2.0 * h[:, 0])
        assert np.abs(got - (d % 2 == 0) / (d + 1)).max() <= 2e-15, d
        assert abs(weights @ nodes**d - 1.0 / (d + 1)) <= 2e-15, d
        assert abs(sym_weights @ sym_nodes**d - 2.0 * (d % 2 == 0) / (d + 1)) <= 4e-15, d


def test_sine_oracle():
    assert abs(integrate(math.sin, 0.0, math.pi) - 2.0) < 1e-14


def test_oscillatory_meets_tolerance():
    # Panels at most 0.1 wide resolve cos(40 x): 0.64 periods per panel.
    val = integrate(lambda x: math.cos(40.0 * x), 0.0, 1.0, 0.1)
    assert abs(val - math.sin(40.0) / 40.0) < 1e-15


def test_determinism():
    f = lambda x: math.sqrt(abs(math.sin(13.0 * x)) + 0.1)
    assert integrate(f, 0.0, 2.0) == integrate(f, 0.0, 2.0)
    assert rule(0.0, 2.0) is rule(0.0, 2.0)


def test_reversed_interval_rejected():
    with pytest.raises(ValueError):
        integrate(math.sin, 1.0, 0.0)
    with pytest.raises(ValueError):
        integrate(math.sin, 1.0, 1.0)


def test_budget_exhaustion_raises():
    # A rule over MAX_NODES is refused from its node count, before any
    # array is built or the integrand is called.
    def never(*args):
        raise AssertionError("the integrand was called")

    for width in (1e-9, 5e-324, math.pi / MAX_NODES):
        with pytest.raises(QuadratureError):
            rule_size(0.0, math.pi, width)
        with pytest.raises(QuadratureError):
            integrate(never, 0.0, math.pi, width, rows=3)
    assert rule_size(0.0, math.pi, 0.01) <= MAX_NODES


def test_rule_size_counts_panels():
    # 2 (LEVELS + 1) graded panels; a width bound splits the wide ones.
    assert rule_size(0.0, 1.0) == ORDER * 2 * (quadrature.LEVELS + 1)
    assert rule_size(0.0, 1.0, 0.2) == rule_size(0.0, 1.0) + ORDER * 2  # [1/4, 1/2] halved
    assert rule_size(0.0, 1.0, 1.0 / 3) == rule_size(0.0, 1.0)  # [1/4, 1/2] fits


def test_n_inf_call_imports_neither_scipy_nor_numpy_polynomial():
    # The rule is built with numpy.linalg alone: numpy.polynomial's lazy
    # import and leggauss would cost a fifth of an N = inf profile.
    src = os.path.dirname(os.path.dirname(benfordxy.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import sys, benfordxy.cli\n"
        "from benfordxy.xy_model import mz_curve\n"
        "mz_curve([0.9, 1.0], 0.5)\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.startswith(('scipy', 'numpy.polynomial'))))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == "[]\n"
