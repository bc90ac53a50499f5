"""Unit tests for the XY-chain observables."""

import gc
import math
import pickle

import numpy as np
import pytest

from benfordxy import xy_model
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
    tzz_curve,
)

SHIPPED_WORK_ELEMENTS = xy_model.WORK_ELEMENTS


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


#: each public observable function at (gamma, size, **beta_tilde)
OBSERVABLE_FUNCTIONS = {
    "mz_curve": lambda g, n, **bt: mz_curve([0.5, 1.0], g, size=n, **bt),
    "magnetization": lambda g, n, **bt: magnetization(ModelParams(0.5, g, system_size=n, **bt)),
    "observable_curve": lambda g, n, **bt: observable_curve(ObservableKind("mz"), [0.5, 1.0], g,
                                                            size=n, **bt),
    "tzz_curve": lambda g, n: tzz_curve([0.5, 1.0], g, n),
    "correlator_curve": lambda g, n: correlator_curve(1, [0.5, 1.0], g, n),
    "correlator_G": lambda g, n: correlator_G(1, 0.5, g, n),
    "correlators_nn": lambda g, n: correlators_nn(0.5, g, n),
}
TAKES_BETA = {"mz_curve", "magnetization", "observable_curve"}


@pytest.mark.parametrize("name", sorted(OBSERVABLE_FUNCTIONS))
def test_every_observable_function_refuses_what_the_model_refuses(name):
    # No function evaluates the excluded XX point, a NaN gamma, an odd or
    # too small chain or a nonpositive beta_tilde: each reaches the kernel
    # through ObservableCurve, which refuses them.
    fn = OBSERVABLE_FUNCTIONS[name]
    fn(0.5, 40)
    for gamma, size in ((0.0, 40), (0.0, None), (math.nan, 40), (math.nan, None),
                        (0.5, 15), (0.5, 2)):
        with pytest.raises(ValueError):
            fn(gamma, size)
    if name in TAKES_BETA:
        fn(0.5, 40, beta_tilde=3.0)
        for size in (40, None):
            with pytest.raises(ValueError, match="beta_tilde"):
                fn(0.5, size, beta_tilde=-1.0)


@pytest.mark.parametrize("size", (40, None))
def test_gamma_beyond_the_squared_range_is_refused(size):
    # above |gamma| ~ 1.3e154, (gamma sin phi)^2 overflows to inf and every
    # term reads 0: T_xx came out 0 (or -5.6e-13) instead of about -2/pi
    txx = ObservableKind("txx")
    for gamma in (1e160, -1e200, 1.0000000000000002e150):
        with pytest.raises(ValueError, match="gamma"):
            ModelParams(0.5, gamma, system_size=size)
        with pytest.raises(ValueError, match="gamma"):
            ObservableCurve(txx, gamma, size=size)
        with pytest.raises(ValueError, match="gamma"):
            correlator_curve(-1, [0.5], gamma, size)
    # at the largest accepted |gamma| the G(-1) term is -sign(gamma) sin(phi)
    # but within 1e-150 of phi = pi; at finite N the phi = pi mode, whose
    # sine is exactly 0, has the term -cos(-pi) d/|d| = -1 (d = -1.5)
    for gamma in (xy_model.MAX_GAMMA, -xy_model.MAX_GAMMA):
        ModelParams(0.5, gamma, system_size=size)
        sign = math.copysign(1.0, gamma)
        value = -sign * ObservableCurve(txx, gamma, size=size)([0.5])[0]
        if size is None:
            assert abs(value - 2.0 / math.pi) < 1e-12
        else:
            phi = 2.0 * np.pi * np.arange(1, size // 2) / size
            assert abs(value - 2.0 / size * (np.sin(phi).sum() + sign)) < 1e-12


@pytest.mark.parametrize("gamma", (1e14, 1e17, 1e20))
def test_large_gamma_keeps_the_pi_mode_exact(gamma):
    # At |gamma| above about 1e15 the double sin(pi) = 1.2e-16 made the
    # phi = pi mode's energy |gamma| 1.2e-16 instead of |cos pi - lam|: at
    # N = 40, lam = 0.5, M_z read 0.0061 at 1e17 and 6e-6 at 1e20.  Every
    # other mode's M_z term is 0 to within 1e-14 there, so M_z is the
    # phi = pi term (2/N) sign(lam - cos pi) = 2/N, and T_xx the sine sum
    # of the T_xx check above.
    mz = ObservableCurve(ObservableKind("mz"), gamma, size=40)([0.5])[0]
    txx = ObservableCurve(ObservableKind("txx"), gamma, size=40)([0.5])[0]
    assert abs(mz - 2.0 / 40) < 1e-12
    assert abs(txx - -0.6853102368087353) < 1e-12


#: observables the zero-energy checks evaluate, with their beta_tilde
_ZERO_ENERGY_KINDS = (("mz", math.inf), ("mz", 5.0), ("txx", math.inf), ("tyy", math.inf),
                      ("g:2", math.inf), ("tzz", math.inf))


@pytest.mark.parametrize("size", (4, 22, 40))
@pytest.mark.parametrize("gamma", (1e-200, 0.5, 1e20))
def test_zero_energy_points_are_finite(size, gamma):
    # lam = -1 meets the phi = pi mode, whose sine is 0, and lam = cos(phi_p)
    # every mode where (gamma sin phi)^2 underflows (gamma = 1e-200): there
    # d = 0 and the energy is only the floored s2.  Every observable is
    # finite, and where the reference is right (|gamma| <= 1) it agrees with
    # it to rounding, also at N = 22, where phi_{N/2} is not the double pi.
    phi = 2.0 * np.pi * np.arange(1, size // 2 + 1) / size
    lams = np.concatenate(([-1.0], np.cos(phi)))
    for name, beta_tilde in _ZERO_ENERGY_KINDS:
        got = ObservableCurve(ObservableKind.parse(name), gamma, beta_tilde, size)(lams)
        assert np.isfinite(got).all(), (name, beta_tilde)
        if abs(gamma) <= 1.0:
            want = _reference(name, beta_tilde, lams, gamma, size)
            assert np.abs(got - want).max() <= REFERENCE_ABS, (name, beta_tilde)


def test_mode_constants_are_built_once_per_size_and_gamma():
    xy_model._momentum_modes.cache_clear()
    curve = ObservableCurve(ObservableKind("mz"), 0.37, size=24)
    first = curve(np.linspace(0.5, 1.5, 11))
    for lams in (np.linspace(0.5, 1.5, 11), np.linspace(0.9, 1.1, 300)):
        curve(lams)
    info = xy_model._momentum_modes.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    modes = xy_model._momentum_modes(24, 0.37, ())
    assert not any(arr.flags.writeable for arr in (modes.cos, modes.s2, modes.a, modes.b))
    assert np.array_equal(curve(np.linspace(0.5, 1.5, 11)), first)


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


def test_non_integer_correlator_offsets_are_refused():
    # the mode constants cast offsets to int64, so 1.5 used to read G(1)
    for r in (1.5, -0.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="integer"):
            ObservableKind("g", r)
    with pytest.raises(ValueError, match="integer"):
        correlator_curve(1.5, 0.5, 0.5, 40)
    assert ObservableKind("g", np.int64(2)) == ObservableKind("g", 2)
    assert np.array_equal(correlator_curve(np.int64(2), [0.5], 0.5, 40),
                          correlator_curve(2, [0.5], 0.5, 40))


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


def test_curve_matches_pointwise_calls(monkeypatch):
    # Field arrays of every length around a chunk boundary, and a 2-D one,
    # give each element the exact bits of its own scalar call (a chunk of
    # one field).  Chunk boundaries are checked at a small work budget and
    # at the shipped one; past the pool's end the fields repeat it, and so
    # must the values.  N = 14 is one slab of 7 modes, N = 1000 eight slabs
    # (the last of 52 modes).  lam = -1 puts the smallest quasiparticle
    # energy (phi = pi) into the first column.  It is not zero: sin(pi) is
    # 1.2e-16 in doubles, so Lambda there is 6e-17.
    pool = np.linspace(-1.0, 2.0, 2500)
    for size in (14, 1000):
        for name, beta_tilde, terms in (("mz", math.inf, 1), ("mz", 5.0, 1),
                                        ("txx", math.inf, 1), ("g:3", math.inf, 1),
                                        ("tzz", math.inf, 3)):
            want = _pointwise(name, beta_tilde, pool, size)
            curve = ObservableCurve(ObservableKind.parse(name), 0.5, beta_tilde, size)
            for budget in (8192, SHIPPED_WORK_ELEMENTS):
                monkeypatch.setattr(xy_model, "WORK_ELEMENTS", budget)
                cols = budget // xy_model._block_rows(size // 2, terms)  # widest chunk
                lams = np.resize(pool, max(pool.size, 2 * cols + 1))
                wants = np.resize(want, lams.size)
                for length in (1, 2, 3, cols - 1, cols, cols + 1, 2 * cols + 1, pool.size):
                    got = curve(lams[:length])
                    assert np.array_equal(got, wants[:length]), (name, budget, length)
            got = curve(pool.reshape(50, 50))
            assert got.shape == (50, 50)
            assert np.array_equal(got.reshape(-1), want), name


_KIND_SETS = {1: (ObservableKind("mz"),), 2: (ObservableKind("mz"), ObservableKind("txx")),
              3: (ObservableKind("tzz"),)}  # by the number of terms summed


def test_work_block_fits_the_budget(monkeypatch):
    # One finite-N call allocates one work block of at most WORK_ELEMENTS
    # float64, and its chunks cover the fields, at every size from N = 4 to
    # 1000 and for 1 to 3 summed terms.  The terms and their fold are
    # stubbed out; each chunk is recorded at its first slab.
    blocks = []

    def record(modes, lam, beta_tilde, with_mz, rows, work):
        out = work[2]
        if rows.start == 0:
            blocks.append((out.base.size, lam.shape[1]))
        return out

    monkeypatch.setattr(xy_model, "_terms", record)
    monkeypatch.setattr(xy_model, "_fold", lambda t: 0.0)
    lams = np.linspace(0.5, 1.5, 30000)  # wider than one chunk at every size
    for size in range(4, 1001, 2):
        for terms, kinds in _KIND_SETS.items():
            blocks.clear()
            ObservableCurve(kinds, 0.5, size=size)(lams)
            assert len(blocks) > 1, (size, terms)
            assert len({block for block, _ in blocks}) == 1, (size, terms)
            assert blocks[0][0] <= xy_model.WORK_ELEMENTS, (size, terms)
            assert sum(width for _, width in blocks) == lams.size, (size, terms)


def test_work_rows_follow_the_plan(monkeypatch):
    # The work block has the rows the slab plan uses and no more: d, Lambda
    # and each term for min(N/2, SLAB) modes, and a call writes every row
    # of it.  N = 4 and 14 have one short slab, 16 one slab of 8 modes, 258
    # three slabs (the last of one mode), 1000 eight (the last of 52).
    real = xy_model._terms
    blocks = []

    def sentinel(modes, lam, beta_tilde, with_mz, rows, work):
        base = work[2].base
        if not any(block is base for block in blocks):
            base[...] = np.nan
            blocks.append(base)
        return real(modes, lam, beta_tilde, with_mz, rows, work)

    monkeypatch.setattr(xy_model, "_terms", sentinel)
    lams = np.linspace(0.5, 1.5, 300)
    for size in (4, 14, 16, 18, 40, 258, 1000):
        for terms, kinds in _KIND_SETS.items():
            blocks.clear()
            ObservableCurve(kinds, 0.5, size=size)(lams)
            (block,) = blocks
            rows = ~np.isnan(block.reshape(-1, block.shape[-1])).all(axis=1)
            assert rows.size == xy_model._block_rows(size // 2, terms), (size, terms)
            assert rows.all(), (size, terms)


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
    return {"mz": lambda: mz, "txx": lambda: g(-1), "tyy": lambda: g(1), "g:2": lambda: g(2),
            "g:3": lambda: g(3), "tzz": lambda: mz * mz - g(-1) * g(1)}[name]()


#: how far the mode sum may be from `_reference`'s numpy row sum (8.9e-16
#: measured): the two add the same terms in different orders
REFERENCE_ABS = 1e-14


# N/2 modes: 2 and 7 (folds of an odd count), 8 (halvings only), 9, 20,
# 129 (three slabs, the last of one mode), 256 (four full slabs) and 500
# (eight slabs, the last of 52 modes)
@pytest.mark.parametrize("size", (4, 14, 16, 18, 40, 258, 512, 1000))
@pytest.mark.parametrize("gamma", (0.5, 1.0, -0.3, 1e-200))
def test_kernel_keeps_reference_bits(size, gamma):
    # The kernel agrees with the momentum sum as first written, to rounding.
    # Every cos(phi_p) and lam = +-1 are fields.  At gamma = 1e-200,
    # (gamma sin phi)^2 underflows to 0, so at lam = cos(phi_p) the
    # reference meets a zero energy and its np.where guard sets the term to
    # 0.  The kernel's energy is positive there (s2 is floored), so its M_z
    # term is 0 and its G term below 1e-38.
    phi = 2.0 * np.pi * np.arange(1, size // 2 + 1) / size
    lams = np.concatenate((np.linspace(-1.5, 2.5, 1201), np.cos(phi), [-1.0, 1.0]))
    assert np.any(dispersion(phi, np.cos(phi), gamma) == 0.0) == (gamma == 1e-200)
    for name, beta_tilde in (("mz", math.inf), ("mz", 5.0), ("txx", math.inf),
                             ("tyy", math.inf), ("g:3", math.inf), ("tzz", math.inf)):
        if name == "g:3" and size < 6:
            continue  # |r| > N/2
        curve = ObservableCurve(ObservableKind.parse(name), gamma, beta_tilde, size)
        want = _reference(name, beta_tilde, lams, gamma, size)
        assert np.abs(curve(lams) - want).max() <= REFERENCE_ABS, (name, beta_tilde)


@pytest.mark.parametrize("size", (4, 14))
@pytest.mark.parametrize("gamma", (0.5, 1e-200))
def test_small_chains_keep_reference_bits_across_chunks(size, gamma):
    # A small chain's modes are one short slab, so a chunk is as wide as the
    # shipped budget allows; fields spanning three such chunks agree with
    # the reference to rounding, zero energies included.
    phi = 2.0 * np.pi * np.arange(1, size // 2 + 1) / size
    base = np.concatenate((np.linspace(-1.5, 2.5, 1201), np.cos(phi), [-1.0, 1.0]))
    for name, beta_tilde, terms in (("mz", math.inf, 1), ("mz", 5.0, 1),
                                    ("txx", math.inf, 1), ("tzz", math.inf, 3)):
        cols = xy_model.WORK_ELEMENTS // xy_model._block_rows(size // 2, terms)
        lams = np.resize(base, 2 * cols + 1)
        curve = ObservableCurve(ObservableKind.parse(name), gamma, beta_tilde, size)
        want = _reference(name, beta_tilde, lams, gamma, size)
        assert np.abs(curve(lams) - want).max() <= REFERENCE_ABS, (name, beta_tilde)


def _python_mode_sum(values):
    """The mode sum's order in pure Python: a halving fold per slab of at
    most SLAB modes, the slab sums added in turn to +0.0."""
    total = 0.0
    for lo in range(0, len(values), xy_model.SLAB):
        t = list(values[lo : lo + xy_model.SLAB])
        m = len(t)
        while m > 1:
            h = m // 2
            for i in range(h):
                t[i] += t[m - h + i]
            m -= h
        total += t[0]
    return total


def test_mode_sum_is_the_halving_fold(monkeypatch):
    # The mode sum adds each field's terms in one order, set by the mode
    # count alone: it has the bits of the same order in pure Python, for 1
    # to 600 modes (up to ten slabs), in one chunk and in chunks of two
    # fields.  Mixed magnitudes make any change of order visible; field 0
    # is all -0.0 (its sum is +0.0) and field 1 cancels exactly.  The terms
    # are stubbed in: field f's are the values of x[f].
    rng = np.random.default_rng(7)
    fields = 7
    lams = np.arange(float(fields))

    def stub(modes, lam, beta_tilde, with_mz, rows, work):
        out = work[2]
        np.copyto(out[0], modes_first[rows][:, lam[0].astype(int)])
        return out

    monkeypatch.setattr(xy_model, "_terms", stub)
    for count in range(1, 601):
        x = rng.standard_normal((fields, count)) * 10.0 ** rng.integers(-12, 13, (fields, count))
        x[0] = -0.0
        x[1] = 1.0
        x[1, 1::2] = -1.0
        if count % 2:
            x[1, -1] = 0.0
        modes_first = np.ascontiguousarray(x.T)
        want = np.array([_python_mode_sum(row) for row in x.tolist()])
        phi = np.linspace(0.1, 3.0, count)[:, None]
        modes = xy_model._Modes.at(phi, np.sin(phi), 0.5, ())
        rows = xy_model._block_rows(count, 1)
        for budget in (SHIPPED_WORK_ELEMENTS, 2 * rows):
            monkeypatch.setattr(xy_model, "WORK_ELEMENTS", budget)
            (got,) = xy_model._chunked_mode_sums(modes, lams, math.inf, True)
            assert got.tobytes() == want.tobytes(), (count, budget)
            assert math.copysign(1.0, got[0]) == 1.0 and got[1] == 0.0, count


def test_joint_curve_rows_match_single_curves():
    # One pass for several kinds gives each row the bits of its own curve,
    # for a field array of any shape: one Lambda per mode, the momenta at
    # finite N and the nodes of one rule at N = inf.  g:30 needs a finer
    # N = inf rule than the other kinds, which then take their own pass.
    lams = np.linspace(0.3, 1.7, 24).reshape(4, 6)
    shared = ("mz", "txx", "tzz", "g:2", "tyy")
    for names, size in [(shared, 14), (shared, 40), (shared, None), (("mz", "g:30", "txx"), None)]:
        kinds = tuple(ObservableKind.parse(name) for name in names)
        joint = ObservableCurve(kinds, 0.5, size=size)
        rows = joint(lams)
        assert rows.shape == (len(kinds), 4, 6)
        assert [part.label for part in joint.parts] == list(names)
        for part, row in zip(joint.parts, rows):
            assert part.parts == (part,) and part.kinds == (part.kind,)
            assert row.tobytes() == part(lams).tobytes(), (size, part.label)
    with pytest.raises(ValueError):
        ObservableCurve((ObservableKind("mz"), ObservableKind("txx")), 0.5, beta_tilde=3.0)
    with pytest.raises(ValueError):
        ObservableCurve((), 0.5, size=14)


def test_finite_sum_leaves_no_reference_cycle():
    # A call's arrays must be freed when it returns: left in a reference
    # cycle, they wait for the garbage collector, and the memory churn cost
    # a serial N = 40 profile 24 000 page faults.
    kinds = (ObservableKind("mz"), ObservableKind("txx"))
    lams = np.linspace(0.5, 1.5, 3000)
    gc.collect()
    gc.disable()
    try:
        for size in (14, 1000):
            ObservableCurve(kinds, 0.5, size=size)(lams)
            assert gc.collect() == 0, size
    finally:
        gc.enable()


def test_finite_sum_restores_ufunc_buffer(monkeypatch):
    # The chunked sum shrinks numpy's ufunc buffer while it runs; the
    # caller's size comes back after every call, also one that raises.
    before = np.getbufsize()
    lams = np.linspace(0.5, 1.5, 3000)
    ObservableCurve(ObservableKind("tzz"), 0.5, size=40)(lams)
    assert np.getbufsize() == before

    def fails(*args):
        raise RuntimeError("stop")

    monkeypatch.setattr(xy_model, "_terms", fails)
    with pytest.raises(RuntimeError):
        ObservableCurve(ObservableKind("mz"), 0.5, size=40)(lams)
    assert np.getbufsize() == before


def test_thermodynamic_limit_rows_do_not_depend_on_batch(monkeypatch):
    # At N = inf every field is a column of one mode sum over the nodes of
    # a fixed rule, so its bits depend neither on the other fields of the
    # call nor on the chunk width: down to chunks of 3 fields (a batch of 7
    # is chunked 3, 3, 1) and batches of one field.
    lams = np.linspace(0.9, 1.1, 40)
    curves = ((ObservableCurve(ObservableKind("tzz"), 0.5), 3),
              (ObservableCurve((ObservableKind("mz"), ObservableKind("txx")), 0.5), 2))
    for curve, terms in curves:
        want = curve(lams).tobytes()
        for budget in (3 * xy_model._block_rows(xy_model.SLAB, terms), SHIPPED_WORK_ELEMENTS):
            monkeypatch.setattr(xy_model, "WORK_ELEMENTS", budget)
            for batch in (1, 7, lams.size):
                got = np.concatenate([curve(lams[start : start + batch])
                                      for start in range(0, lams.size, batch)], axis=-1)
                assert got.tobytes() == want, (curve.label, budget, batch)


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
