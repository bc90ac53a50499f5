"""Unit tests for integrating many rows (e.g. field values) on one rule."""

import math

import numpy as np
import pytest

from benfordxy.quadrature import integrate, rule


def exponentials(rates):
    """Integrands exp(c x), one row per rate c, as weighted sums on the
    rule, each row reduced on its own."""

    def f(nodes_weights):
        nodes, weights = nodes_weights
        return (np.exp(np.reshape(rates, (-1, 1)) * nodes) * weights).sum(axis=1)

    return f


def test_empty_batch():
    assert integrate(exponentials([]), 0.0, 1.0).shape == (0,)


@pytest.mark.parametrize("batch", [1, 2, 3, 64, 256])
def test_row_alone_equals_row_in_batch(batch):
    # Every row gets the same rule, whatever the row count.
    rates = np.linspace(-3.0, 5.0, batch)
    got = integrate(exponentials(rates), 0.0, 1.0)
    for i in {0, batch // 2, batch - 1}:
        alone = integrate(exponentials(rates[i]), 0.0, 1.0)
        assert alone.tobytes() == got[i : i + 1].tobytes()
        assert abs(alone[0] - np.expm1(rates[i]) / rates[i]) < 1e-13


def test_one_call_per_rule():
    # f is called once, with every node and weight of the rule.
    calls = []

    def f(nodes_weights):
        calls.append(nodes_weights)
        nodes, weights = nodes_weights
        return np.stack([weights @ np.cos(nodes), weights @ np.sin(nodes)])[:, None]

    got = integrate(f, 0.0, math.pi, 0.5)
    assert got.shape == (2, 1)
    assert len(calls) == 1
    assert all(x is y for x, y in zip(calls[0], rule(0.0, math.pi, 0.5)))
    assert abs(got[0, 0]) < 1e-15 and abs(got[1, 0] - 2.0) < 1e-14

