"""A fixed graded Gauss-Legendre rule for the momentum integrals, analytic on
[0, pi] but for layers at phi = 0 (lam -> 1), phi = pi (lam -> -1, or for
|gamma| > 1 a zero of the dispersion atanh(1/|gamma|) off the axis) and,
for small gamma, of width ~gamma at cos phi = lam: panels halving
`depth_a` times toward a and `depth` times toward b (each at most LEVELS,
and LEVELS unless given), none wider than a given width, converge
exponentially on them (hp-quadrature; Trefethen, Approximation Theory and
Approximation Practice).  The N = inf observables take lam < 0 from lam > 0
by parity, so grade toward pi only as deep as lam >= 0 needs, and toward 0
only as deep as each field's distance from |lam| = 1 needs.

Gauss-Legendre error on a part falls like rho^(-2n) in its node count n,
where rho is the sum of the semi-axes of the largest Bernstein ellipse on
which the integrand is analytic (Trefethen, ch. 19).  A part a times
narrower than the width bound keeps the interior layer at rho >= a +
sqrt(a^2 + 1), and the ratio-2 grading keeps each end layer at rho = 3 +
sqrt(8); so each part takes the fewest nodes that match, at its rho, the
error of ORDER nodes on a part as wide as the bound (rho = 1 + sqrt(2)):
ORDER on the widest parts, down to ORDER/2 on the narrow ones.  Without a
width bound every part keeps ORDER nodes.

`rule` is cached, one entry per rule however it is called, and refuses
more than MAX_NODES nodes from the panels' node count, before any array
is built (the full-depth rule has the most, so it judges every shallower
one); `integrate` hands its integrand the whole rule at once.
"""

import functools
import math

import numpy as np

ORDER = 16  # nodes on a part as wide as the bound, or on every part without one
LEVELS = 40  # most halvings toward each end: the end panels are 2**-41 of [a, b]
MAX_NODES = 2**16  # most nodes of a rule: the modes of a 2**17-site chain


class QuadratureError(RuntimeError):
    """Raised when a rule would need more than MAX_NODES nodes."""


def _order(part: float, width: float) -> int:
    """Gauss-Legendre nodes for a part `part` wide with panels bounded by
    width: the fewest n with rho^(-2n) <= (1 + sqrt 2)^(-2 ORDER), where
    log rho = min(asinh a, 2 asinh 1), a = width / part (at least 1), since
    log(a + sqrt(a^2 + 1)) = asinh a and 3 + sqrt 8 = (1 + sqrt 2)^2."""
    if math.isinf(width):
        return ORDER
    a = width / part if part > 0.0 else math.inf  # a panel narrower than an ulp of its ends
    log_rho = min(math.asinh(max(a, 1.0)), 2.0 * math.asinh(1.0))
    return math.ceil(ORDER * math.asinh(1.0) / log_rho)


def _panels(a: float, b: float, width: float, depth: int = LEVELS,
            depth_a: int = LEVELS) -> list[tuple[float, float, int, int]]:
    """(lo, hi, parts, order) of each graded panel, halving from the midpoint
    of [a, b] depth_a times toward a and depth times toward b; parts equal
    parts keep each at most width wide, and each part takes `_order` nodes."""
    if not b > a:
        raise ValueError(f"empty or reversed interval [{a}, {b}]")
    for name, levels in (("depth", depth), ("depth_a", depth_a)):
        if not 0 <= levels <= LEVELS:
            raise ValueError(f"{name} must be in 0..{LEVELS}, got {levels}")
    if math.isnan(width):
        raise ValueError(f"panel width must be a number, got {width}")
    h = 0.5 * (b - a)
    steps = [h * 2.0**-j for j in range(LEVELS, 0, -1)]
    edges = [a, *(a + s for s in steps[LEVELS - depth_a:]), a + h,
             *(b - s for s in reversed(steps[LEVELS - depth:])), b]
    panels = []
    for lo, hi in zip(edges, edges[1:]):
        ratio = (hi - lo) / width if width > 0.0 else math.inf  # width 0 needs every node
        parts = max(1, math.ceil(min(ratio, 2.0**62)))
        panels.append((lo, hi, parts, _order((hi - lo) / parts, width)))
    if (size := sum(parts * order for *_, parts, order in panels)) > MAX_NODES:
        raise QuadratureError(f"a quadrature rule on [{a:g}, {b:g}] with panels at most "
                              f"{width:g} wide needs {size} nodes, more than {MAX_NODES}")
    return panels


@functools.cache
def _gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """order nodes and weights on [-1, 1] (Golub-Welsch: the eigenvalues of
    the Legendre Jacobi matrix, weights 2 v_0^2), exactly symmetric."""
    k = np.arange(1.0, order)
    beta = k / np.sqrt(4.0 * k * k - 1.0)
    x, v = np.linalg.eigh(np.diag(beta, 1) + np.diag(beta, -1))
    return 0.5 * (x - x[::-1]), v[0] ** 2 + v[0, ::-1] ** 2


def rule(a: float, b: float, width: float = math.inf, depth: int = LEVELS,
         depth_a: int = LEVELS) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ascending nodes and weights on [a, b]: `_order` Gauss-Legendre
    nodes on each part of each graded panel (`_panels`), the parts of one
    order placed at once."""
    return _rule(a, b, width, depth, depth_a)


# one rule per (gamma, offsets) and depth_a in use: the N = inf observables
# take 11 depths_a (0, 4, ..., 40) per (gamma, offsets)
@functools.lru_cache(maxsize=64)
def _rule(a: float, b: float, width: float, depth: int,
          depth_a: int) -> tuple[np.ndarray, np.ndarray]:
    panels = _panels(a, b, width, depth, depth_a)
    cuts = []
    for lo, hi, parts, _ in panels:  # linspace(lo, hi, 2) starts at lo exactly
        cuts += [lo] if parts == 1 else np.linspace(lo, hi, parts + 1)[:-1].tolist()
    cuts = np.array(cuts + [b])
    half, mid = 0.5 * np.diff(cuts)[:, None], 0.5 * (cuts[:-1] + cuts[1:])[:, None]
    orders = np.repeat([order for *_, order in panels], [parts for *_, parts, _ in panels])
    first = np.cumsum(orders) - orders  # each part's first node
    nodes, weights = np.empty(orders.sum()), np.empty(orders.sum())
    for order in {order for *_, order in panels}:
        x, w = _gauss_legendre(order)
        at = orders == order
        slots = first[at, None] + np.arange(order)
        nodes[slots], weights[slots] = mid[at] + half[at] * x, half[at] * w
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def integrate(f, a: float, b: float, *args):
    """The weighted sums of f over [a, b] by `rule(a, b, *args)`: f gets the
    rule's ``(nodes, weights)`` and its result is returned as it is."""
    return f(rule(a, b, *args))
