"""Finite-size scaling: cubic fits, pseudo-critical points, exponent fits.

Per system size N, the violation profile near the transition is fitted
with a cubic by least squares; the extremum of the fitted derivative
(the cubic's inflection, x* = -c2/(3 c3)) is the pseudo-critical field
lambda_c^N.  The sizes are then combined through the scaling law

    lambda_c^N = lambda_c + alpha * N**(-q)

either with lambda_c held fixed (log-log linear regression) or with all
three parameters free (variable projection, seeded from the fixed-mode
solution).  A derivative-of-observable baseline (kink of dM_z/dlambda)
is provided for comparison against the digit-based pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class FitError(ValueError):
    """A least-squares fit is degenerate or leaves its domain of validity."""


@dataclass(frozen=True)
class CubicFit:
    """Coefficients of c3*x^3 + c2*x^2 + c1*x + c0 with the window and the
    root-mean-square residual of the fit."""

    c3: float
    c2: float
    c1: float
    c0: float
    fit_window: tuple[float, float]
    residual: float

    def __post_init__(self):
        if self.c3 == 0.0:
            raise FitError("cubic coefficient is zero: no inflection point")
        if self.residual < 0.0:
            raise FitError("negative residual")

    def __call__(self, x):
        return ((self.c3 * x + self.c2) * x + self.c1) * x + self.c0


def cubic_fit(points, fit_window) -> CubicFit:
    """Least-squares cubic over the points with x inside fit_window.

    The design matrix is built on centered x and solved by SVD (lstsq),
    then the coefficients are expanded back to the raw monomial basis;
    centering keeps the narrow-window Vandermonde well conditioned.
    """
    lo, hi = float(fit_window[0]), float(fit_window[1])
    if not hi > lo:
        raise ValueError(f"empty fit window [{lo}, {hi}]")
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("points must be (x, y) pairs")
    mask = (pts[:, 0] >= lo) & (pts[:, 0] <= hi)
    x = pts[mask, 0]
    y = pts[mask, 1]
    if x.size < 8:
        raise FitError(f"need >= 8 points inside fit window, got {x.size}")
    xs = np.sort(x)  # np.unique would import numpy.ma on its first call
    if 1 + np.count_nonzero(xs[1:] != xs[:-1]) < 4:
        raise FitError("collinear x values: cubic design is rank deficient")
    x0 = x.mean()
    u = x - x0
    design = np.column_stack([u**3, u**2, u, np.ones_like(u)])
    beta, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    if rank < 4:
        raise FitError("cubic design is rank deficient")
    b3, b2, b1, b0 = beta
    # expand (u = x - x0) back to raw powers of x
    c3 = b3
    c2 = b2 - 3.0 * b3 * x0
    c1 = b1 - 2.0 * b2 * x0 + 3.0 * b3 * x0**2
    c0 = b0 - b1 * x0 + b2 * x0**2 - b3 * x0**3
    if abs(c3) < 1e-12:
        raise FitError(f"leading coefficient {c3:.3e} below 1e-12: no usable inflection")
    resid = float(np.sqrt(np.mean((design @ beta - y) ** 2)))
    return CubicFit(float(c3), float(c2), float(c1), float(c0), (lo, hi), resid)


def pseudo_critical(fit: CubicFit) -> float:
    """Inflection point -c2/(3 c3): the extremum of the fitted derivative."""
    x_star = -fit.c2 / (3.0 * fit.c3)
    lo, hi = fit.fit_window
    if not lo <= x_star <= hi:
        raise FitError(
            f"inflection {x_star:.6g} outside fit window [{lo}, {hi}]: "
            "the window missed the transition feature"
        )
    return x_star


DEFAULT_FIT_WINDOW = (0.8, 1.2)
DERIVATIVE_GRID = 2001  # grid points of the derivative baseline's window
FEATURE_MARGIN = 0.25


def feature_window(points) -> tuple[float, float]:
    """Fit window bracketing a profile's dip-to-peak feature.

    The violation profiles swing through a minimum below the transition
    and a maximum above it; the cubic should be fitted in the vicinity of
    that feature, which moves toward lambda = 1 as N grows.  The window is
    the span between the profile's global extrema widened by FEATURE_MARGIN
    times the extremum separation on each side.  A fixed window such as
    DEFAULT_FIT_WINDOW clips the dip of small systems (N <= 20 dips below
    lambda = 0.8) and biases the inflection, so pipelines default to this
    adaptive choice.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
        raise ValueError("points must be at least two (x, y) pairs")
    x, y = pts[:, 0], pts[:, 1]
    lo, hi = sorted([float(x[np.argmin(y)]), float(x[np.argmax(y)])])
    sep = hi - lo
    if sep == 0.0:
        raise FitError("profile extrema coincide: no feature to bracket")
    return (lo - FEATURE_MARGIN * sep, hi + FEATURE_MARGIN * sep)


def profile_pseudo_critical(points, fit_window=None):
    """Pseudo-critical field of a violation profile.

    Cubic-fits the points over fit_window (or over feature_window(points)
    when None) and returns (lambda_c^N, CubicFit).
    """
    if fit_window is None:
        fit_window = feature_window(points)
    fit = cubic_fit(points, fit_window)
    return pseudo_critical(fit), fit


@dataclass(frozen=True)
class ScalingResult:
    """Fitted lambda_c^N = lambda_c + alpha * N^(-q)."""

    points: tuple[tuple[int, float], ...]
    lambda_c: float
    alpha: float
    q: float
    mode: str
    fit_residual: float
    q_stderr: float

    def __post_init__(self):
        if self.mode not in ("fixed", "free"):
            raise ValueError(f"unknown scaling mode {self.mode!r}")
        if not self.q > 0.0:
            raise FitError(f"scaling exponent must be positive, got {self.q}")


def _as_scaling_points(points):
    points = list(points)
    for n, l in points:  # refused before LAPACK, which reports a NaN on stderr
        if not (math.isfinite(n) and math.isfinite(l)):
            raise ValueError(f"scaling point (N, lambda_c^N) = ({n}, {l}) is not finite")
    pts = [(int(n), float(l)) for n, l in points]
    sizes = [n for n, _ in pts]
    if len(set(sizes)) != len(sizes):
        raise ValueError("system sizes must be distinct")
    if any(n < 2 for n in sizes):
        raise ValueError("system sizes must be >= 2")
    return sorted(pts)


def _fixed_fit(n, lcn, lambda_c: float):
    dev = lcn - lambda_c
    if np.any(dev == 0.0):
        raise FitError("a pseudo-critical point equals lambda_c: log transform fails")
    sign = 1.0 if np.mean(np.sign(dev)) >= 0.0 else -1.0
    ln_n = np.log(n)
    ln_dev = np.log(np.abs(dev))
    design = np.column_stack([ln_n, np.ones_like(ln_n)])
    (slope, intercept), res, rank, _ = np.linalg.lstsq(design, ln_dev, rcond=None)
    if rank < 2:
        raise FitError("degenerate log-log regression")
    q = -float(slope)
    alpha = sign * math.exp(float(intercept))
    rss = float(np.sum((design @ [slope, intercept] - ln_dev) ** 2))  # n.size >= 3 here
    var = rss / (n.size - 2) / float(np.sum((ln_n - ln_n.mean()) ** 2))
    return q, alpha, math.sqrt(var)


# Free mode: golden section on ln q within LN_Q_BRACKET of the seed's ln q, in
# the steps (66) that narrow the bracket to LN_Q_TOL.
LN_Q_BRACKET = 3.0
LN_Q_TOL = 1e-13
LN_Q_EDGE = 1e-6  # a minimum nearer an edge is on it: rounding moved it inward
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
LN_Q_STEPS = math.ceil(math.log(LN_Q_TOL / (2.0 * LN_Q_BRACKET)) / math.log(_INV_PHI))


def scaling_fit(points, mode: str = "fixed", lambda_c: float = 1.0) -> ScalingResult:
    """Fit the scaling law over (N, lambda_c^N) points.

    mode="fixed": lambda_c is held at the given value and q, alpha come
    from linear regression of ln|lambda_c^N - lambda_c| on ln N (slope -q;
    the sign of alpha is the common sign of the deviations).
    mode="free": (lambda_c, alpha, q) by least squares.  The law is linear in
    (lambda_c, alpha) at each q, so ln q alone is searched, around the seed:
    the fixed-mode q of the other sizes, lambda_c held at the largest N's.
    """
    pts = _as_scaling_points(points)
    n, lcn = np.array(pts, dtype=float).reshape(-1, 2).T
    if mode == "fixed":
        if len(pts) < 3:
            raise ValueError("fixed-mode scaling fit needs >= 3 points")
        q, alpha, q_stderr = _fixed_fit(n, lcn, lambda_c)
        residual = float(np.sqrt(np.mean((lambda_c + alpha * n ** (-q) - lcn) ** 2)))
        return ScalingResult(tuple(pts), lambda_c, alpha, q, "fixed", residual, q_stderr)
    if mode != "free":
        raise ValueError(f"unknown scaling mode {mode!r}")
    if len(pts) < 4:
        raise ValueError("free-mode scaling fit needs >= 4 points")
    dev = lcn - lcn.mean()  # its residuals round on its own scale, not lambda_c's

    def project(q):  # least-squares lambda_c, alpha at exponent q, and their rss
        design = np.column_stack([np.ones_like(n), n ** (-q)])
        coef = np.linalg.lstsq(design, dev, rcond=None)[0]
        rss = float(np.sum((design @ coef - dev) ** 2))
        return float(coef[0] + lcn.mean()), float(coef[1]), rss

    centre = math.log(max(_fixed_fit(n[:-1], lcn[:-1], lcn[-1])[0], 0.1))
    a, b = lo, hi = centre - LN_Q_BRACKET, centre + LN_Q_BRACKET
    for _ in range(LN_Q_STEPS):
        c, d = b - _INV_PHI * (b - a), a + _INV_PHI * (b - a)
        a, b = (a, d) if project(math.exp(c))[2] <= project(math.exp(d))[2] else (c, b)
    if min(a - lo, hi - b) < LN_Q_EDGE:
        raise FitError(f"free-mode scaling fit: the residual falls toward an edge of "
                       f"the q bracket [{math.exp(lo):.6g}, {math.exp(hi):.6g}]")
    q = math.exp(0.5 * (a + b))
    lc, alpha, rss = project(q)
    jac = np.column_stack([np.ones_like(n), n ** (-q), -alpha * n ** (-q) * np.log(n)])
    # cov = pinv(J^T J) rss / (m - 3), and pinv(J^T J) = pinv(J) pinv(J)^T
    q_stderr = math.hypot(*np.linalg.pinv(jac)[2]) * math.sqrt(rss / (n.size - 3))
    residual = math.sqrt(rss / n.size)
    return ScalingResult(tuple(pts), lc, alpha, q, "free", residual, q_stderr)


def derivative_pseudo_critical(observable, fit_window=DEFAULT_FIT_WINDOW):
    """Field of the peak of d(observable)/dlambda inside fit_window.

    The curve is sampled on a uniform grid of DERIVATIVE_GRID points,
    differentiated with centered finite differences, and the grid peak is
    refined by fitting a parabola through the three surrounding derivative
    values.  A peak on the window boundary is an error (the feature is not
    bracketed).
    """
    lo, hi = float(fit_window[0]), float(fit_window[1])
    if not hi > lo:
        raise ValueError(f"empty fit window [{lo}, {hi}]")
    lams = np.linspace(lo, hi, DERIVATIVE_GRID)
    vals = np.asarray(observable(lams), dtype=float)
    h = lams[1] - lams[0]
    deriv = (vals[2:] - vals[:-2]) / (2.0 * h)  # derivative at lams[1:-1]
    i = int(np.argmax(deriv))
    if i == 0 or i == deriv.size - 1:
        raise FitError("derivative extremum sits on the fit window boundary")
    dm, d0, dp = deriv[i - 1], deriv[i], deriv[i + 1]
    denom = dm - 2.0 * d0 + dp
    shift = 0.0 if denom == 0.0 else 0.5 * (dm - dp) / denom
    return float(lams[i + 1] + shift * h)
