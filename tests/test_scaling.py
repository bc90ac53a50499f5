"""Unit tests for cubic fits, pseudo-critical points, and scaling fits."""

import math

import numpy as np
import pytest

from benfordxy import cli
from benfordxy import scaling as sc

from conftest import xy_curve


def _cubic_points(c3, c2, c1, c0, xs):
    return [(x, ((c3 * x + c2) * x + c1) * x + c0) for x in xs]


# --------------------------------------------------------------- cubic fit


def test_cubic_fit_recovers_exact_coefficients():
    xs = np.linspace(-2.0, 2.0, 25)
    pts = _cubic_points(1.0, 0.0, -2.0, 1.0, xs)
    fit = sc.cubic_fit(pts, (-2.0, 2.0))
    assert fit.c3 == pytest.approx(1.0, abs=1e-10)
    assert fit.c2 == pytest.approx(0.0, abs=1e-10)
    assert fit.c1 == pytest.approx(-2.0, abs=1e-10)
    assert fit.c0 == pytest.approx(1.0, abs=1e-10)
    assert fit.residual < 1e-10
    assert fit(-0.5) == pytest.approx((-0.5) ** 3 + 2 * 0.5 + 1.0, abs=1e-10)


def test_cubic_fit_respects_window():
    xs = np.linspace(0.0, 2.0, 41)
    pts = _cubic_points(2.0, -6.0, 1.0, 0.0, xs)
    # corrupt every point outside the window; the fit must not see them
    poisoned = [
        (x, y if 0.5 <= x <= 1.5 else y + 100.0) for x, y in pts
    ]
    fit = sc.cubic_fit(poisoned, (0.5, 1.5))
    assert fit.c3 == pytest.approx(2.0, abs=1e-9)
    assert fit.c2 == pytest.approx(-6.0, abs=1e-9)


def test_cubic_fit_degenerate_inputs():
    xs = np.linspace(0.0, 1.0, 30)
    flat = [(x, 5.0) for x in xs]
    with pytest.raises(sc.FitError):
        sc.cubic_fit(flat, (0.0, 1.0))  # no cubic component
    with pytest.raises(sc.FitError):
        sc.cubic_fit(_cubic_points(1, 1, 1, 1, xs[:5]), (0.0, 1.0))  # < 8 points
    stacked = [(x, x**3) for x in (0.0, 0.5, 1.0) for _ in range(4)]
    with pytest.raises(sc.FitError):
        sc.cubic_fit(stacked, (0.0, 1.0))  # < 4 distinct abscissae
    with pytest.raises(ValueError):
        sc.cubic_fit(_cubic_points(1, 1, 1, 1, xs), (1.0, 0.0))  # empty window
    with pytest.raises(ValueError):
        sc.cubic_fit([1.0, 2.0, 3.0], (0.0, 1.0))  # not (x, y) pairs


def test_cubic_fit_affine_equivariance():
    """Scaling and shifting the ordinate must not move the inflection."""
    rng = np.random.default_rng(2)
    xs = np.linspace(0.7, 1.3, 61)
    ys = 3.0 * (xs - 1.02) ** 3 - 0.4 * (xs - 1.02) + 0.1
    ys = ys + 0.002 * rng.standard_normal(xs.size)
    base = sc.pseudo_critical(sc.cubic_fit(np.column_stack([xs, ys]), (0.7, 1.3)))
    for _ in range(5):
        s = float(rng.uniform(0.1, 50.0))
        c = float(rng.uniform(-20.0, 20.0))
        moved = sc.pseudo_critical(
            sc.cubic_fit(np.column_stack([xs, s * ys + c]), (0.7, 1.3))
        )
        assert moved == pytest.approx(base, abs=1e-8)


def test_cubic_fit_translation_equivariance():
    rng = np.random.default_rng(3)
    xs = np.linspace(0.8, 1.2, 41)
    ys = 4.0 * (xs - 1.0) ** 3 - 0.9 * (xs - 1.0) + 0.2
    ys = ys + 0.003 * rng.standard_normal(xs.size)
    base = sc.pseudo_critical(sc.cubic_fit(np.column_stack([xs, ys]), (0.8, 1.2)))
    t = 0.37
    shifted = sc.pseudo_critical(
        sc.cubic_fit(np.column_stack([xs + t, ys]), (0.8 + t, 1.2 + t))
    )
    assert shifted - t == pytest.approx(base, abs=1e-8)


# --------------------------------------------------------- pseudo-critical


def test_pseudo_critical_closed_forms():
    fit = sc.CubicFit(1.0, -3.0, 0.0, 0.0, (0.0, 2.0), 0.0)
    assert sc.pseudo_critical(fit) == pytest.approx(1.0, abs=1e-15)
    fit = sc.CubicFit(2.0, 0.0, 1.0, 5.0, (-1.0, 1.0), 0.0)
    assert sc.pseudo_critical(fit) == 0.0


def test_pseudo_critical_outside_window_is_an_error():
    fit = sc.CubicFit(1.0, -30.0, 0.0, 0.0, (0.0, 2.0), 0.0)  # inflection at 10
    with pytest.raises(sc.FitError):
        sc.pseudo_critical(fit)


def test_feature_window_brackets_extrema():
    xs = np.linspace(0.5, 1.5, 101)
    ys = -np.exp(-((xs - 0.9) ** 2) / 2e-3) + np.exp(-((xs - 1.06) ** 2) / 2e-3)
    lo, hi = sc.feature_window(np.column_stack([xs, ys]))
    sep = 1.06 - 0.9
    assert lo == pytest.approx(0.9 - sc.FEATURE_MARGIN * sep, abs=1e-9)
    assert hi == pytest.approx(1.06 + sc.FEATURE_MARGIN * sep, abs=1e-9)
    with pytest.raises(sc.FitError):
        sc.feature_window([(0.5, 1.0), (0.6, 1.0)])  # coincident extrema
    with pytest.raises(ValueError):
        sc.feature_window([(0.5, 1.0)])


def test_profile_pseudo_critical_composes():
    xs = np.linspace(0.8, 1.2, 41)
    pts = _cubic_points(4.0, -12.24, 12.4, -4.1, xs)
    lam, fit = sc.profile_pseudo_critical(pts, (0.8, 1.2))
    assert lam == pytest.approx(-fit.c2 / (3.0 * fit.c3), abs=1e-14)
    assert lam == pytest.approx(1.02, abs=1e-9)


# ------------------------------------------------------------- scaling law


def _law_points(alpha, q, lambda_c=1.0, sizes=(8, 12, 16, 24, 32, 48)):
    return [(n, lambda_c + alpha * n ** (-q)) for n in sizes]


def test_scaling_fit_exact_fixed_and_free():
    pts = _law_points(0.5, 2.0)
    fixed = sc.scaling_fit(pts, "fixed", 1.0)
    assert fixed.q == pytest.approx(2.0, abs=1e-9)
    assert fixed.alpha == pytest.approx(0.5, abs=1e-9)
    assert fixed.lambda_c == 1.0
    assert fixed.fit_residual < 1e-12
    free = sc.scaling_fit(pts, "free")
    assert free.q == pytest.approx(2.0, abs=1e-6)
    assert free.alpha == pytest.approx(0.5, abs=1e-6)
    assert free.lambda_c == pytest.approx(1.0, abs=1e-6)


def test_scaling_fit_negative_alpha_branch():
    pts = _law_points(-0.5, 2.0)
    fixed = sc.scaling_fit(pts, "fixed", 1.0)
    assert fixed.q == pytest.approx(2.0, abs=1e-9)
    assert fixed.alpha == pytest.approx(-0.5, abs=1e-9)


def test_scaling_fit_fixed_free_agreement():
    pts = _law_points(0.31, 1.7)
    fixed = sc.scaling_fit(pts, "fixed", 1.0)
    free = sc.scaling_fit(pts, "free")
    tol = max(fixed.q_stderr, free.q_stderr, 1e-9)
    assert abs(fixed.q - free.q) <= tol


def _noisy_law(rng, sizes=(10, 14, 20, 28, 40, 56)):
    """Points of a random law with 1% multiplicative noise on the
    deviations, and the law's q."""
    alpha = float(rng.uniform(0.1, 2.0))
    q = float(rng.uniform(1.0, 3.0))
    noise = 1.0 + 0.01 * rng.standard_normal(len(sizes))
    return [(n, 1.0 + alpha * n ** (-q) * eta) for n, eta in zip(sizes, noise)], q


def test_scaling_fit_noise_recovery():
    """1% multiplicative noise on the deviations moves q by well under 0.1."""
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        pts, q = _noisy_law(rng)
        fit = sc.scaling_fit(pts, "fixed", 1.0)
        worst = max(worst, abs(fit.q - q))
    assert worst < 0.1


def _rss(pts, lambda_c, alpha, q):
    n, lcn = np.array(pts, dtype=float).T
    return float(np.sum((lambda_c + alpha * n ** (-q) - lcn) ** 2))


def test_free_fit_reaches_the_curve_fit_optimum():
    """The free-mode fit against scipy's curve_fit from the same seed (the
    free-mode fit before variable projection): never a larger residual,
    lambda_c within 1e-8, and q within 2e-6 wherever curve_fit reached the
    same residual.  On the noisy laws curve_fit sometimes stops early: on
    30 of these 100 its residual is 1e-9 to 2e-7 higher and its q up to
    1.7e-5 away, while variable projection's q is within 1e-8 of a
    50-digit optimum on all 100."""
    optimize = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(7)
    fixtures = [_law_points(alpha, q) for alpha, q in
                ((0.5, 2.0), (-0.5, 2.0), (0.31, 1.7), (2.0, 1.0), (0.1, 3.0))]
    fixtures += [_noisy_law(rng)[0] for _ in range(100)]
    same_optimum = 0
    for pts in fixtures:
        n, lcn = np.array(pts, dtype=float).T
        seed = sc.scaling_fit(pts[:-1], "fixed", pts[-1][1])
        (lc, alpha, q), _ = optimize.curve_fit(
            lambda x, lc, alpha, q: lc + alpha * x ** (-q), n, lcn,
            p0=[lcn[-1], seed.alpha, max(seed.q, 0.1)], maxfev=20000)
        fit = sc.scaling_fit(pts, "free")
        ref, new = _rss(pts, lc, alpha, q), _rss(pts, fit.lambda_c, fit.alpha, fit.q)
        # an exact law's residuals are rounding: allow 16 ulps of 1 per point
        assert new <= ref * (1.0 + 1e-9) + len(pts) * (16 * np.finfo(float).eps) ** 2
        assert fit.lambda_c == pytest.approx(lc, abs=1e-8)
        if ref <= new * (1.0 + 1e-9):
            assert fit.q == pytest.approx(q, abs=2e-6)
            same_optimum += 1
    assert same_optimum >= len(fixtures) // 2


@pytest.mark.parametrize("law", [
    lambda n: 1.0 + 0.1 * math.log(n),  # linear in ln N: the best q is 0
    lambda n: 1.0 + n ** -5.0 - (0.01 if n == 48 else 0.0),  # an outlier at the largest N
], ids=["ln-N", "outlier"])
def test_free_fit_refuses_a_minimum_on_the_bracket_edge(law):
    pts = [(n, law(n)) for n in (8, 12, 16, 24, 32, 48)]
    with pytest.raises(sc.FitError, match="edge of the q bracket"):
        sc.scaling_fit(pts, "free")


def test_scaling_fit_input_validation():
    pts = _law_points(0.5, 2.0)
    with pytest.raises(ValueError):
        sc.scaling_fit(pts[:2], "fixed")  # < 3 points
    for mode in ("fixed", "free"):  # no point at all: every cubic fit failed
        with pytest.raises(ValueError, match="needs >= [34] points"):
            sc.scaling_fit([], mode)
    with pytest.raises(ValueError):
        sc.scaling_fit(pts[:3], "free")  # < 4 points
    with pytest.raises(ValueError):
        sc.scaling_fit(pts, "bayesian")
    with pytest.raises(ValueError):
        sc.scaling_fit(pts + [pts[0]], "fixed")  # duplicate size
    with pytest.raises(ValueError):
        sc.scaling_fit([(1, 1.1), (8, 1.2), (16, 1.3)], "fixed")  # size < 2
    with pytest.raises(sc.FitError):
        sc.scaling_fit([(8, 1.0), (16, 1.1), (32, 1.2)], "fixed", 1.0)  # zero dev


@pytest.mark.parametrize("mode", ["fixed", "free"])
@pytest.mark.parametrize("bad", [(12, math.nan), (12, math.inf), (math.nan, 1.05)])
def test_scaling_fit_refuses_non_finite_points(mode, bad, capfd):
    # Refused by name before any LAPACK call: a NaN reaching lstsq prints
    # DLASCL lines on stderr, then fails as q = nan or LinAlgError.
    pts = [(8, 1.1), bad, (16, 1.02), (24, 1.01), (32, 1.005)]
    with pytest.raises(ValueError, match=r"scaling point .* is not finite") as info:
        sc.scaling_fit(pts, mode)
    assert f"({bad[0]}, {bad[1]})" in str(info.value)
    assert capfd.readouterr().err == ""


def test_scaling_fit_rejects_nonpositive_exponent():
    # deviations growing with N imply q < 0, which the law cannot describe
    pts = [(8, 1.8), (16, 2.6), (32, 4.2), (64, 7.4)]
    with pytest.raises(sc.FitError):
        sc.scaling_fit(pts, "fixed", 1.0)


# ------------------------------------------------------ derivative baseline


def test_derivative_pseudo_critical_synthetic_kink():
    obs = lambda lams: np.tanh((np.asarray(lams) - 1.0) / 0.02)
    lam = sc.derivative_pseudo_critical(obs, (0.8, 1.2))
    assert lam == pytest.approx(1.0, abs=1e-3)


def test_derivative_pseudo_critical_boundary_is_an_error():
    with pytest.raises(sc.FitError):
        sc.derivative_pseudo_critical(lambda lams: np.asarray(lams) ** 2, (0.8, 1.2))
    with pytest.raises(ValueError):
        sc.derivative_pseudo_critical(np.sin, (1.2, 0.8))


def test_derivative_pseudo_critical_chain_n40():
    lam = sc.derivative_pseudo_critical(xy_curve("mz", 40))
    assert 0.95 < lam < 1.05


# ------------------------------------------------ output (written by cli)


def test_scaling_record_text_round_trips():
    result = sc.scaling_fit(_law_points(0.5, 2.0), "fixed", 1.0)
    fields = dict(
        line.split(" = ", 1)
        for line in cli._scaling_record_text(result).splitlines()
    )
    assert fields["mode"] == "fixed"
    assert float(fields["q"]) == result.q
    assert float(fields["alpha"]) == result.alpha
    assert float(fields["lambda_c"]) == result.lambda_c
    assert fields["points"].startswith("8:")


def test_regression_csv_text_layout_and_guard():
    result = sc.scaling_fit(_law_points(0.5, 2.0), "fixed", 1.0)
    lines = cli._regression_csv_text(result).splitlines()
    assert lines[0] == "ln_N,ln_abs_dev"
    assert len(lines) == len(result.points) + 1
    ln_n, ln_dev = (float(tok) for tok in lines[1].split(","))
    assert ln_n == pytest.approx(math.log(8), abs=1e-15)
    assert ln_dev == pytest.approx(math.log(0.5 * 8**-2.0), abs=1e-12)
    degenerate = sc.ScalingResult(
        ((8, 1.0), (16, 1.1), (32, 1.2)), 1.0, 0.5, 2.0, "fixed", 0.0, 0.0
    )
    with pytest.raises(sc.FitError):
        cli._regression_csv_text(degenerate)
