"""A fixed graded Gauss-Legendre rule for the momentum integrals, analytic on
[0, pi] but for layers at phi = 0 (lam -> 1), phi = pi (lam -> -1) and, for
small gamma, of width ~gamma at cos phi = lam: panels halving toward both
ends, none wider than a given width, converge exponentially on them
(hp-quadrature; Trefethen, Approximation Theory and Approximation Practice)."""

import functools
import math

import numpy as np

ORDER = 16  # nodes per panel: exact on polynomials up to degree 31
LEVELS = 40  # halvings toward each end: the end panels are 2**-41 of [a, b]
MAX_NODES = 2**16  # most nodes of a rule: the modes of a 2**17-site chain


class QuadratureError(RuntimeError):
    """Raised when a rule would need more than MAX_NODES nodes."""


def _panels(a: float, b: float, width: float) -> list[tuple[float, float, int]]:
    """(lo, hi, parts) of each graded panel, halving toward both ends from
    the midpoint of [a, b]; parts equal parts keep each at most width wide."""
    if not b > a:
        raise ValueError(f"empty or reversed interval [{a}, {b}]")
    h = 0.5 * (b - a)
    steps = [h * 2.0**-j for j in range(LEVELS, 0, -1)]
    edges = [a, *(a + s for s in steps), a + h, *(b - s for s in reversed(steps)), b]
    panels = [(lo, hi, max(1, math.ceil(min((hi - lo) / width, 2.0**62))))
              for lo, hi in zip(edges, edges[1:])]
    if (size := ORDER * sum(parts for *_, parts in panels)) > MAX_NODES:
        raise QuadratureError(f"a quadrature rule on [{a:g}, {b:g}] with panels at most "
                              f"{width:g} wide needs {size} nodes, more than {MAX_NODES}")
    return panels


def rule_size(a: float, b: float, width: float = math.inf) -> int:
    """Nodes of `rule(a, b, width)`, counted without building it; more than
    MAX_NODES raise QuadratureError."""
    return ORDER * sum(parts for *_, parts in _panels(a, b, width))


@functools.lru_cache(maxsize=16)  # one rule per (gamma, offsets) in use
def rule(a: float, b: float, width: float = math.inf) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ascending nodes and weights on [a, b]: ORDER Gauss-Legendre
    nodes on each part of each graded panel (Golub-Welsch: the eigenvalues
    of the Legendre Jacobi matrix, weights 2 v_0^2)."""
    k = np.arange(1.0, ORDER)
    beta = k / np.sqrt(4.0 * k * k - 1.0)
    x, v = np.linalg.eigh(np.diag(beta, 1) + np.diag(beta, -1))
    x, w = 0.5 * (x - x[::-1]), v[0] ** 2 + v[0, ::-1] ** 2  # exactly symmetric
    cuts = np.concatenate([np.linspace(lo, hi, parts + 1)[:-1]
                           for lo, hi, parts in _panels(a, b, width)] + [[b]])
    half, mid = 0.5 * np.diff(cuts)[:, None], 0.5 * (cuts[:-1] + cuts[1:])[:, None]
    nodes, weights = (mid + half * x).ravel(), (half * w).ravel()
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def integrate(f, a: float, b: float, width: float = math.inf, *, rows: int | None = None):
    """The integral of f over [a, b] by `rule(a, b, width)`: of a float
    function with ``rows=None``; with ``rows=R``, f gets the rule's ``(nodes,
    weights)`` and its R weighted sums (last axis) are returned as they are."""
    nodes, weights = rule(float(a), float(b), float(width))
    if rows is None:
        return math.fsum(w * f(x) for x, w in zip(nodes.tolist(), weights.tolist()))
    sums = np.asarray(f((nodes, weights)))
    if sums.shape[-1:] != (rows,):
        raise ValueError(f"expected {rows} sums on the last axis, got shape {sums.shape}")
    return sums
