"""Unit tests for the XY-chain observables."""

import math
import pickle

import numpy as np
import pytest

from benfordxy import xy_model
from benfordxy.quadrature import integrate
from benfordxy.xy_model import (
    ModelParams,
    ObservableCurve,
    ObservableKind,
    correlator_G,
    correlator_curve,
    correlators_nn,
    dispersion,
    magnetization,
    mz_curve,
    observable_curve,
)


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(1.0, 0.0)  # XX point excluded
    with pytest.raises(ValueError):
        ModelParams(1.0, 1.0, beta_tilde=0.0)
    with pytest.raises(ValueError):
        ModelParams(1.0, 1.0, system_size=7)  # odd
    with pytest.raises(ValueError):
        ModelParams(1.0, 1.0, system_size=2)  # too small
    for gamma in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            ModelParams(1.0, gamma)
    ModelParams(1.0, -0.5)  # negative anisotropy is allowed


def test_dispersion_identities():
    # Lambda(0) = |lam - 1| and the gap closes exactly at lam = 1.
    for lam in (0.3, 1.0, 1.7):
        assert abs(dispersion(0.0, lam, 0.5) - abs(lam - 1.0)) < 1e-15
    assert dispersion(0.0, 1.0, 0.5) == 0.0
    # even in phi, even in gamma
    phi = np.linspace(0.1, 3.0, 7)
    assert np.allclose(dispersion(phi, 0.8, 0.5), dispersion(-phi, 0.8, 0.5))
    assert np.allclose(dispersion(phi, 0.8, 0.5), dispersion(phi, 0.8, -0.5))
    # hand value: gamma^2 sin^2 + (lam - cos)^2 at phi = pi/2
    assert abs(dispersion(np.pi / 2, 1.0, 0.5) - math.sqrt(1.25)) < 1e-15
    # hand value at phi = pi/3: 0.25 * 0.75 + 0.3^2 = 0.2775
    assert abs(dispersion(np.pi / 3, 0.8, 0.5) - math.sqrt(0.2775)) < 1e-15


def test_closed_form_magnetization():
    assert abs(magnetization(ModelParams(1.0, 1.0)) - 2.0 / math.pi) < 1e-10
    # lam = 0 Ising chain: the cosine integrand averages to zero
    assert abs(magnetization(ModelParams(0.0, 1.0))) < 1e-12
    # finite chain of 8 sites at lam = 0: the four momentum cosines sum to -1
    assert abs(magnetization(ModelParams(0.0, 1.0, system_size=8)) - 0.25) < 1e-15


def test_closed_form_correlator():
    assert abs(correlator_G(-1, 0.0, 1.0) - (-1.0)) < 1e-10
    # G(0) = M_z for any parameters (same integrand up to sign)
    for lam, gamma in ((0.4, 0.5), (1.3, 1.0)):
        g0 = correlator_G(0, lam, gamma)
        mz = magnetization(ModelParams(lam, gamma))
        assert abs(g0 - mz) < 1e-9


def test_nn_correlator_identity():
    txx, tyy, tzz = correlators_nn(0.7, 0.5, size=40)
    mz = magnetization(ModelParams(0.7, 0.5, system_size=40))
    assert abs(tzz - (mz * mz - txx * tyy)) < 1e-14
    assert abs(txx - correlator_G(-1, 0.7, 0.5, 40)) < 1e-15
    assert abs(tyy - correlator_G(1, 0.7, 0.5, 40)) < 1e-15


def test_finite_size_phase_dependent_gap():
    # The momentum grid includes phi = pi and omits phi = 0, so the finite
    # sum differs from the integral by (f(pi) - f(0))/N: 2/N in the ordered
    # phase (lam < 1), and exponentially little in the disordered phase.
    for lam in (0.5, 0.9):
        gap = magnetization(ModelParams(lam, 0.5, system_size=1000)) - magnetization(
            ModelParams(lam, 0.5)
        )
        assert abs(gap - 2.0 / 1000.0) < 1e-6
    for lam in (1.1, 1.5):
        gap = magnetization(ModelParams(lam, 0.5, system_size=1000)) - magnetization(
            ModelParams(lam, 0.5)
        )
        assert abs(gap) < 1e-4


def test_thermal_factor_limits():
    # beta -> inf matches the inf handling; beta -> 0 kills the moment
    cold = magnetization(ModelParams(0.8, 0.5, beta_tilde=1e6, system_size=40))
    ground = magnetization(ModelParams(0.8, 0.5, system_size=40))
    assert abs(cold - ground) < 1e-9
    hot = magnetization(ModelParams(0.8, 0.5, beta_tilde=1e-12, system_size=40))
    assert abs(hot) < 1e-9
    # finite temperature smooths: |M(T>0)| < |M(T=0)| off criticality
    warm = magnetization(ModelParams(0.8, 0.5, beta_tilde=2.0, system_size=40))
    assert abs(warm) < abs(ground)


def test_kind_parse_and_label():
    assert ObservableKind.parse("mz") == ObservableKind("mz")
    assert ObservableKind.parse("g:3") == ObservableKind("g", 3)
    assert ObservableKind.parse("g:-2").r == -2
    assert ObservableKind.parse("g").r == 0
    assert ObservableKind("g", 5).label() == "g:5"
    assert ObservableKind("txx").label() == "txx"
    with pytest.raises(ValueError):
        ObservableKind.parse("sx")


def _pointwise(name, beta_tilde, lams, size):
    """One scalar (one-row) call per field value."""

    def mz(lam):
        return magnetization(ModelParams(lam, 0.5, beta_tilde, size))

    def tzz(lam):
        m = mz(lam)
        return m * m - correlator_G(-1, lam, 0.5, size) * correlator_G(1, lam, 0.5, size)

    scalar = {"mz": mz, "txx": lambda lam: correlator_G(-1, lam, 0.5, size),
              "g:3": lambda lam: correlator_G(3, lam, 0.5, size), "tzz": tzz}[name]
    return np.array([scalar(lam) for lam in lams.tolist()])


def test_curve_matches_pointwise_calls():
    # Field arrays of every length around a chunk boundary, and a 2-D one,
    # give each element the exact bits of its own scalar call.  N = 14 and
    # 1000 differ in rows per chunk; lam = -1 puts the smallest
    # quasiparticle energy (phi = pi) into the first row.  It is not zero:
    # sin(pi) is 1.2e-16 in doubles, so Lambda there is 6e-17.
    pool = np.linspace(-1.0, 2.0, 2500)
    for size in (14, 1000):
        rows = xy_model.CHUNK_ELEMENTS // (size // 2)
        for name, beta_tilde in (("mz", math.inf), ("mz", 5.0), ("txx", math.inf),
                                 ("g:3", math.inf), ("tzz", math.inf)):
            want = _pointwise(name, beta_tilde, pool, size)
            curve = ObservableCurve(ObservableKind.parse(name), 0.5, beta_tilde, size)
            for length in (1, rows - 1, rows, rows + 1, pool.size):
                assert np.array_equal(curve(pool[:length]), want[:length]), (name, length)
            got = curve(pool.reshape(50, 50))
            assert got.shape == (50, 50)
            assert np.array_equal(got.reshape(-1), want), name


def _reference(name, beta_tilde, lams, gamma, size):
    """The momentum sum as first written: the dispersion expression, the
    numerator in cos phi - lam, the np.where zero-energy guard and one
    sum(axis=1) over the whole (fields, modes) array."""
    phi = (2.0 * np.pi * np.arange(1, size // 2 + 1) / size)[None, :]
    lam = lams[:, None]
    s = gamma * np.sin(phi)
    c = lam - np.cos(phi)
    energy = np.sqrt(s * s + c * c)

    def mean(num):
        term = np.where(energy == 0.0, 0.0, num / np.where(energy == 0.0, 1.0, energy))
        return term.sum(axis=1) * (2.0 / size)

    def g(r):
        return mean(gamma * np.sin(r * phi) * np.sin(phi) - np.cos(r * phi) * (np.cos(phi) - lam))

    num = np.cos(phi) - lam
    if not math.isinf(beta_tilde):
        num = np.tanh(0.5 * beta_tilde * energy) * num
    mz = -mean(num)
    return {"mz": lambda: mz, "txx": lambda: g(-1), "tyy": lambda: g(1),
            "g:3": lambda: g(3), "tzz": lambda: mz * mz - g(-1) * g(1)}[name]()


@pytest.mark.parametrize("size", (4, 14, 40, 1000))
@pytest.mark.parametrize("gamma", (0.5, 1.0, -0.3, 1e-200))
def test_kernel_keeps_reference_bits(size, gamma):
    # Every cos(phi_p) and lam = +-1 are fields.  At gamma = 1e-200,
    # (gamma sin phi)^2 underflows to 0, so lam = cos(phi_p) meets a true
    # zero energy and the guard sets its term to 0.
    phi = 2.0 * np.pi * np.arange(1, size // 2 + 1) / size
    lams = np.concatenate((np.linspace(-1.5, 2.5, 1201), np.cos(phi), [-1.0, 1.0]))
    assert np.any(dispersion(phi, np.cos(phi), gamma) == 0.0) == (gamma == 1e-200)
    for name, beta_tilde in (("mz", math.inf), ("mz", 5.0), ("txx", math.inf),
                             ("tyy", math.inf), ("g:3", math.inf), ("tzz", math.inf)):
        if name == "g:3" and size < 6:
            continue  # |r| > N/2
        curve = ObservableCurve(ObservableKind.parse(name), gamma, beta_tilde, size)
        want = _reference(name, beta_tilde, lams, gamma, size)
        assert curve(lams).tobytes() == want.tobytes(), (name, beta_tilde)


def test_thermodynamic_limit_keeps_reference_bits():
    # At N = inf the quadrature nodes are the modes; the integrand is the
    # reference expression, and one batched integral gives each field's bits.
    lams = np.array([0.3, 1.0, 1.7])
    gamma = 0.5

    def reference(num_of):
        def at_nodes(pair):
            row, phi = pair
            lam = lams[row]
            s = gamma * np.sin(phi)
            c = lam - np.cos(phi)
            energy = np.sqrt(s * s + c * c)
            num = num_of(phi, lam)
            return np.where(energy == 0.0, 0.0, num / np.where(energy == 0.0, 1.0, energy))

        return integrate(at_nodes, 0.0, math.pi, tol=xy_model.QUAD_TOL, rows=lams.size) / math.pi

    want_mz = -reference(lambda phi, lam: np.cos(phi) - lam)
    want_txx = reference(lambda phi, lam: gamma * np.sin(-phi) * np.sin(phi)
                         - np.cos(-phi) * (np.cos(phi) - lam))
    assert mz_curve(lams, gamma).tobytes() == want_mz.tobytes()
    assert correlator_curve(-1, lams, gamma).tobytes() == want_txx.tobytes()


def test_curve_is_picklable():
    curve = ObservableCurve(ObservableKind("g", 2), gamma=0.5, size=20)
    clone = pickle.loads(pickle.dumps(curve))
    lams = np.linspace(0.6, 1.4, 5)
    assert np.array_equal(curve(lams), clone(lams))
    assert clone.label == "g:2"


def test_curve_validation():
    with pytest.raises(ValueError):
        ObservableCurve(ObservableKind("txx"), gamma=0.5, beta_tilde=3.0)
    with pytest.raises(ValueError):
        ObservableCurve(ObservableKind("g", 30), gamma=0.5, size=20)
    with pytest.raises(ValueError):
        correlator_curve(11, [1.0], 0.5, size=20)


def test_observable_curve_grid_rules():
    rows = observable_curve(ObservableKind("mz"), [0.5, 1.0, 1.5], 0.5, size=12)
    assert [lam for lam, _ in rows] == [0.5, 1.0, 1.5]
    with pytest.raises(ValueError):
        observable_curve(ObservableKind("mz"), [], 0.5)
    with pytest.raises(ValueError):
        observable_curve(ObservableKind("mz"), [1.0, 0.5], 0.5)


def test_scalar_and_array_field_shapes():
    assert np.shape(mz_curve(0.9, 0.5, size=20)) == ()
    assert mz_curve(np.linspace(0.5, 1.5, 7), 0.5, size=20).shape == (7,)
    assert mz_curve([1.0], 1.0).shape == (1,)
    for name in ("mz", "tzz"):
        curve = ObservableCurve(ObservableKind(name), gamma=0.5, size=20)
        assert curve(np.zeros((0, 3))).shape == (0, 3)
