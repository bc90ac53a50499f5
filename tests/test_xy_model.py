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


def test_curve_matches_pointwise_calls(monkeypatch):
    # Field arrays of every length around a chunk boundary, and a 2-D one,
    # give each element the exact bits of its own scalar call (one field,
    # summed by numpy itself).  Chunk boundaries are checked at a small work
    # budget and at the shipped one; past the pool's end the fields repeat
    # it, and so must the values.  N = 14 and 1000 differ in pairwise leaves
    # and splits.  lam = -1 puts the smallest quasiparticle energy (phi =
    # pi) into the first column.  It is not zero: sin(pi) is 1.2e-16 in
    # doubles, so Lambda there is 6e-17.
    pool = np.linspace(-1.0, 2.0, 2500)
    for size in (14, 1000):
        for name, beta_tilde, terms in (("mz", math.inf, 1), ("mz", 5.0, 1),
                                        ("txx", math.inf, 1), ("g:3", math.inf, 1),
                                        ("tzz", math.inf, 3)):
            want = _pointwise(name, beta_tilde, pool, size)
            curve = ObservableCurve(ObservableKind.parse(name), 0.5, beta_tilde, size)
            for budget in (8192, SHIPPED_WORK_ELEMENTS):
                monkeypatch.setattr(xy_model, "WORK_ELEMENTS", budget)
                cols = budget // xy_model._work_rows(size // 2, terms)  # the widest chunk
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
    # 1000 and for 1 to 3 summed terms.  The sums are stubbed out.
    blocks = []

    def record(count, evaluate, work, dest):
        blocks.append((work.base.size, dest.shape[1]))
        dest[...] = 0.0

    monkeypatch.setattr(xy_model, "_pairwise_mode_sum", record)
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
    # The work block has the rows the pairwise plan uses and no more: a call
    # writes every row of it.  N = 4 and 14 have fewer than 8 modes (no
    # accumulator group), 16 one 8-mode group, 18 and 40 a second group for
    # the later modes, 258 and 1000 partial sums.
    real = xy_model._pairwise_mode_sum
    touched = []

    def sentinel(count, evaluate, work, dest):
        work.base[...] = np.nan
        real(count, evaluate, work, dest)
        touched.append(~np.isnan(work.base).all(axis=1))

    monkeypatch.setattr(xy_model, "_pairwise_mode_sum", sentinel)
    lams = np.linspace(0.5, 1.5, 300)
    for size in (4, 14, 16, 18, 40, 258, 1000):
        for terms, kinds in _KIND_SETS.items():
            touched.clear()
            ObservableCurve(kinds, 0.5, size=size)(lams)
            (rows,) = touched
            assert rows.size == xy_model._work_rows(size // 2, terms), (size, terms)
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
    return {"mz": lambda: mz, "txx": lambda: g(-1), "tyy": lambda: g(1),
            "g:3": lambda: g(3), "tzz": lambda: mz * mz - g(-1) * g(1)}[name]()


# N/2 modes: 2 and 7 (one run of fewer than 8), 8 (exactly one 8-block), 9
# (one leftover mode), 20, 129 (the first split), 256 (two 128-mode leaves)
# and 500 (two levels of splits)
@pytest.mark.parametrize("size", (4, 14, 16, 18, 40, 258, 512, 1000))
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


@pytest.mark.parametrize("size", (4, 14))
@pytest.mark.parametrize("gamma", (0.5, 1e-200))
def test_small_chains_keep_reference_bits_across_chunks(size, gamma):
    # With fewer than 8 modes a chunk is only d, Lambda and terms over all
    # modes, so it is as wide as the shipped budget allows; fields spanning
    # three such chunks keep the reference bits, zero energies included.
    phi = 2.0 * np.pi * np.arange(1, size // 2 + 1) / size
    base = np.concatenate((np.linspace(-1.5, 2.5, 1201), np.cos(phi), [-1.0, 1.0]))
    for name, beta_tilde, terms in (("mz", math.inf, 1), ("mz", 5.0, 1),
                                    ("txx", math.inf, 1), ("tzz", math.inf, 3)):
        cols = xy_model.WORK_ELEMENTS // xy_model._work_rows(size // 2, terms)
        lams = np.resize(base, 2 * cols + 1)
        curve = ObservableCurve(ObservableKind.parse(name), gamma, beta_tilde, size)
        want = _reference(name, beta_tilde, lams, gamma, size)
        assert curve(lams).tobytes() == want.tobytes(), (name, beta_tilde)


def test_mode_sum_is_numpy_row_sum():
    # The finite-N kernel adds (modes, fields) blocks, 8 modes at a time, in
    # the order numpy's x.sum(axis=1) adds a row, and sums a single field
    # with one 1-D add.reduce of its column.  Should a numpy release change
    # that order, this fails here instead of output bits moving silently.
    # Mixed magnitudes make every change of order visible; row 0 is all
    # -0.0 (numpy's sum is +0.0) and row 1 cancels exactly.  The fields are
    # columns of a wider block, as in a call's last chunk.
    rng = np.random.default_rng(7)
    fields = 7
    for count in range(1, 601):
        x = rng.standard_normal((fields, count)) * 10.0 ** rng.integers(-12, 13, (fields, count))
        x[0] = -0.0
        x[1] = 1.0
        x[1, 1::2] = -1.0
        if count % 2:
            x[1, -1] = 0.0
        want = x.sum(axis=1)
        modes_first = np.ascontiguousarray(x.T)

        def evaluate(lo, hi, out):
            np.copyto(out[0], modes_first[lo:hi, : out.shape[2]])
            return out

        for width in (2, fields):
            work = np.empty((xy_model._sum_rows(count, 1), fields + 3))[:, :width]
            got = np.empty((1, width))
            xy_model._pairwise_mode_sum(count, evaluate, work, got)
            assert got[0].tobytes() == want[:width].tobytes(), (count, width)
            assert math.copysign(1.0, got[0, 0]) == 1.0
        columns = [np.add.reduce(modes_first[:, f]) for f in range(fields)]
        assert np.array(columns).tobytes() == want.tobytes(), count


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

    monkeypatch.setattr(xy_model, "_pairwise_mode_sum", fails)
    with pytest.raises(RuntimeError):
        ObservableCurve(ObservableKind("mz"), 0.5, size=40)(lams)
    assert np.getbufsize() == before


def test_thermodynamic_limit_rows_do_not_depend_on_batch(monkeypatch):
    # At N = inf every field is a column of one mode sum over the nodes of
    # a fixed rule, so its bits depend neither on the other fields of the
    # call nor on the chunk width.
    lams = np.linspace(0.9, 1.1, 40)
    curves = (ObservableCurve(ObservableKind("tzz"), 0.5),
              ObservableCurve((ObservableKind("mz"), ObservableKind("txx")), 0.5))
    for curve in curves:
        want = curve(lams).tobytes()
        for budget in (1024, SHIPPED_WORK_ELEMENTS):
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
