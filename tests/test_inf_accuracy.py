"""N = infinity observables against scipy's adaptive Gauss-Kronrod quad.

quad gets an absolute tolerance of 1e-15 and breakpoints where the
integrands change fast: at acos lam (for small gamma the energy nearly
vanishes there) and at pi 2^-j from both ends (the boundary layers as
lam -> +-1).  Every value of the graded rule must be within 1e-12.
"""

import math

import numpy as np
import pytest

from benfordxy.xy_model import ObservableCurve, ObservableKind

integrate = pytest.importorskip("scipy.integrate")

GAMMAS = (0.02, 0.1, 0.5, 1.0, 5.0, 20.0, 1e3)
OFFSETS = (1, -1, 2, 3, 30, -30)
LAMS = (0.0, 0.5, 0.8315, 1.35, 2.0, 1.0, -1.0) + tuple(
    side * (1.0 + sign * 10.0**-k) for side in (1, -1) for sign in (1, -1) for k in range(2, 13)
)
TOL = 1e-12
_ENDS = [math.pi * 2.0**-j for j in range(1, 45)]


def _quad(term, lam, gamma):
    """(1/pi) int_0^pi term(d, L, phi) dphi, d = cos phi - lam."""

    def f(phi):
        d = math.cos(phi) - lam
        s = gamma * math.sin(phi)
        energy = math.sqrt(s * s + d * d)
        return term(d, energy, phi) if energy > 0.0 else 0.0

    points = _ENDS + [math.pi - e for e in _ENDS]
    if abs(lam) < 1.0:
        points.append(math.acos(lam))
    value, _ = integrate.quad(f, 0.0, math.pi, points=sorted(set(points)), epsabs=1e-15,
                              epsrel=1e-15, limit=4000)
    return value / math.pi


def mz_reference(lam, gamma, beta_tilde):
    def term(d, energy, phi):
        thermal = 1.0 if math.isinf(beta_tilde) else math.tanh(0.5 * beta_tilde * energy)
        return thermal * d / energy

    return -_quad(term, lam, gamma)


def g_reference(r, lam, gamma):
    return _quad(lambda d, energy, phi: (gamma * math.sin(r * phi) * math.sin(phi)
                                         - math.cos(r * phi) * d) / energy, lam, gamma)


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@pytest.mark.parametrize("gamma", GAMMAS)
def test_matches_adaptive_gauss_kronrod(gamma):
    lams = np.array(LAMS)
    mz = {}
    for beta_tilde in (math.inf, 5.0):
        mz[beta_tilde] = np.array([mz_reference(lam, gamma, beta_tilde) for lam in LAMS])
        curve = ObservableCurve(ObservableKind("mz"), gamma, beta_tilde)
        err = np.abs(curve(lams) - mz[beta_tilde])
        assert err.max() <= TOL, ("mz", beta_tilde, LAMS[err.argmax()], err.max())
    g = {}
    for r in OFFSETS:
        g[r] = np.array([g_reference(r, lam, gamma) for lam in LAMS])
        err = np.abs(ObservableCurve(ObservableKind("g", r), gamma)(lams) - g[r])
        assert err.max() <= TOL, (f"g:{r}", LAMS[err.argmax()], err.max())
    tzz = ObservableCurve(ObservableKind("tzz"), gamma)(lams)
    err = np.abs(tzz - (mz[math.inf] ** 2 - g[-1] * g[1]))
    assert err.max() <= TOL, ("tzz", LAMS[err.argmax()], err.max())
