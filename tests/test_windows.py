"""Unit tests for sliding-window geometry, normalization, and profiles."""

import math
from concurrent.futures import Future

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benfordxy import benford
from benfordxy import windows as W
from benfordxy.xy_model import ObservableCurve, ObservableKind

from conftest import COARSE_SPEC, xy_curve


def _pow_curve(lams):
    return np.power(10.0, lams)


def _identity_curve(lams):
    return np.asarray(lams, dtype=float)


def _same_bits(a, b):
    """Two profiles hold bit-identical midpoints and distances."""
    return (a.lambdas.tobytes(), a.deltas.tobytes()) == (
        b.lambdas.tobytes(),
        b.deltas.tobytes(),
    )


# ---------------------------------------------------------------- geometry


def test_window_spec_validation():
    W.WindowSpec(0.0, 1.0, 0.1, 0.01, 100)
    with pytest.raises(ValueError):
        W.WindowSpec(1.0, 1.0, 0.1, 0.01, 100)  # empty interval
    with pytest.raises(ValueError):
        W.WindowSpec(0.0, 1.0, 0.1, 0.1, 100)  # epsilon not < w
    with pytest.raises(ValueError):
        W.WindowSpec(0.0, 1.0, 0.1, 0.0, 100)  # epsilon zero
    with pytest.raises(ValueError):
        W.WindowSpec(0.0, 1.0, 0.6, 0.01, 100)  # w > (b - a)/2
    with pytest.raises(ValueError):
        W.WindowSpec(0.0, 1.0, 0.1, 0.01, 99)  # too few samples
    for eps in (1e-9, 5e-324):  # 9.5e8 and inf windows
        with pytest.raises(ValueError, match="more than the cap"):
            W.WindowSpec(0.5, 1.5, 0.05, eps, 100)
    # a sweep of exactly MAX_WINDOWS windows is the largest allowed
    last = 2.0 + (W.MAX_WINDOWS - 1)
    assert W.WindowSpec(0.0, last, 2.0, 1.0, 100).count == W.MAX_WINDOWS
    with pytest.raises(ValueError, match="more than the cap"):
        W.WindowSpec(0.0, last + 1.0, 2.0, 1.0, 100)


def test_window_counts_presets():
    assert COARSE_SPEC.count == 951
    full = W.WindowSpec(0.5, 1.5, 0.05, 5e-5, 10000)
    assert full.count == 19001


@given(
    a=st.floats(-5.0, 5.0),
    w=st.floats(0.01, 1.0),
    eps_frac=st.floats(0.05, 0.95),
    span_factor=st.floats(2.01, 6.0),
)
@settings(max_examples=200, deadline=None, derandomize=True)
def test_window_count_property(a, w, eps_frac, span_factor):
    spec = W.WindowSpec(a, a + span_factor * w, w, eps_frac * w, 100)
    wins = W.windows(spec)
    assert len(wins) == spec.count
    assert spec.count >= 1
    # every window lies inside [a, b] up to float fuzz, and the next shift
    # past the last window would leave the interval
    slack = 1e-9 * max(1.0, abs(spec.b))
    for lo, hi in wins:
        assert lo >= spec.a - slack
        assert hi <= spec.b + slack
    beyond = spec.a + spec.w + spec.count * spec.epsilon
    assert beyond > spec.b - slack


def test_windows_and_midpoints_arithmetic():
    spec = W.WindowSpec(0.5, 1.5, 0.05, 1e-3, 100)
    wins = W.windows(spec)
    assert wins[0] == (0.5, 0.55)
    lo7, hi7 = wins[7]
    assert lo7 == pytest.approx(0.5 + 7e-3, abs=1e-15)
    assert hi7 == pytest.approx(0.55 + 7e-3, abs=1e-15)
    mids = W.midpoints(spec)
    assert mids.shape == (spec.count,)
    for (lo, hi), mid in zip(wins, mids):
        assert mid == pytest.approx((lo + hi) / 2.0, abs=1e-12)


# ------------------------------------------------------------ normalization


def test_normalize_range_and_idempotence():
    rng = np.random.default_rng(11)
    data = rng.normal(3.0, 2.0, 500)
    normed = W.normalize(data)
    assert normed.min() == 0.0
    assert normed.max() == 1.0
    # normalizing an already normalized sample changes nothing
    assert np.array_equal(W.normalize(normed), normed)


def test_normalize_rejects_degenerate_data():
    with pytest.raises(W.DegenerateWindowError):
        W.normalize(np.full(50, 3.14))
    with pytest.raises(ValueError):
        W.normalize([1.0])
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="non-finite observable values"):
            W.normalize([0.0, bad, 1.0])
    with pytest.raises(ValueError, match="non-finite observable values"):
        W.normalize(np.full(50, math.nan))


def test_profile_names_non_finite_windows():
    spec = W.WindowSpec(0.5, 1.5, 0.05, 1e-2, 100)

    def nan_above_one(lams):
        return np.where(lams > 1.0, math.nan, lams)

    with pytest.raises(ValueError, match="non-finite observable values"):
        W.profile(nan_above_one, spec, k=1, distance="md")


def test_window_violation_rejects_constant_curve():
    spec = W.WindowSpec(0.5, 1.5, 0.05, 1e-3, 100)
    with pytest.raises(W.DegenerateWindowError):
        W.window_violation(lambda lams: np.ones_like(lams), (0.5, 0.55), 100, 1, "md")


def test_unknown_distance_rejected():
    spec = W.WindowSpec(0.5, 1.5, 0.05, 1e-3, 100)
    with pytest.raises(ValueError):
        W.window_violation(_identity_curve, (0.5, 0.55), 100, 1, "kl")
    with pytest.raises(ValueError):
        W.profile(_identity_curve, spec, k=1, distance="kl")


# ---------------------------------------------------------------- profiles


def test_identity_profile_matches_uniform_law():
    """Every window of the identity curve normalizes to the same uniform
    sample, so the profile is exactly flat; its value approaches the
    analytic md distance of uniform digits from the Benford law."""
    spec = W.WindowSpec(0.5, 1.5, 0.05, 1e-3, 10000)
    prof = W.profile(_identity_curve, spec, k=1, distance="md", jobs=1)
    deltas = prof.deltas
    assert float(deltas.max()) == float(deltas.min())
    assert float(deltas[0]) == pytest.approx(5.833939098900424, abs=1e-12)
    # uniform-key law: P(key) = 1/(9 * 10^(k-1)) for every key
    probs = benford.benford_probabilities(1)
    analytic = float(np.sum(np.abs(1.0 / 9.0 - probs) / probs))
    assert abs(float(deltas[0]) - analytic) < 5e-3


def test_exponential_decade_windows_oracle():
    """10**lambda over width-1 windows: scale invariance makes the profile
    exactly flat, and the value approaches a closed-form limit."""
    spec = W.WindowSpec(0.0, 2.0, 1.0, 1e-2, 10000)
    prof = W.profile(_pow_curve, spec, k=1, distance="md", jobs=1)
    deltas = prof.deltas
    assert float(deltas.max()) == float(deltas.min())
    assert float(deltas[0]) == pytest.approx(2.2582375732649793, abs=1e-12)
    # normalized samples follow u = (10^s - 1)/9 with s uniform on [0, 1]
    probs = []
    for dig in range(1, 10):
        acc = 0.0
        for j in range(1, 40):
            acc += math.log10((10.0**j + 9 * (dig + 1)) / (10.0**j + 9 * dig))
        probs.append(acc)
    expected = [math.log10(1 + 1 / dig) for dig in range(1, 10)]
    analytic = sum(abs(o - e) / e for o, e in zip(probs, expected))
    assert abs(float(deltas[0]) - analytic) < 5e-3


def test_profile_points_are_ordered_and_keyed_by_midpoint():
    spec = W.WindowSpec(0.5, 1.5, 0.05, 1e-2, 200)
    prof = W.profile(_pow_curve, spec, k=1, distance="md", jobs=1)
    assert len(prof.points) == spec.count
    assert prof.points.shape == (spec.count, 2)
    assert np.array_equal(prof.lambdas, W.midpoints(spec))
    assert np.array_equal(prof.points[:, 1], prof.deltas)
    assert not prof.lambdas.flags.writeable and not prof.deltas.flags.writeable
    assert prof.meta.k == 1
    assert prof.meta.distance == "md"
    assert prof.meta.spec == spec


def test_profile_set_consistent_with_single_profiles():
    """profile_set folds depths 1..3 from one depth-4 key pass; each must
    match its own single-depth profile, which keys at that depth directly."""
    spec = W.WindowSpec(0.5, 1.5, 0.05, 1e-2, 500)
    ks = (1, 2, 3, 4)
    for curve in (_pow_curve, xy_curve("mz", 14)):
        (combos,) = W.profile_set(curve, spec, ks, [("md", "bd")], jobs=1)
        assert set(combos) == {(k, d) for k in ks for d in ("md", "bd")}
        for (k, dist), prof in combos.items():
            single = W.profile(curve, spec, k, dist, jobs=1)
            assert _same_bits(prof, single)


def test_window_violation_matches_profile_entry():
    spec = W.WindowSpec(0.5, 1.5, 0.05, 1e-2, 500)
    prof = W.profile(_pow_curve, spec, k=2, distance="sd", jobs=1)
    first = W.window_violation(_pow_curve, W.windows(spec)[0], spec.n, 2, "sd")
    assert first == prof.points[0][1]


def test_parallel_profiles_bit_identical():
    """Worker count must not change a single bit of the output."""
    spec = W.WindowSpec(0.5, 1.5, 0.05, 5e-3, 1000)
    (serial,) = W.profile_set(xy_curve("mz", 14), spec, (1, 2), [("md",)], jobs=1)
    (parallel,) = W.profile_set(xy_curve("mz", 14), spec, (1, 2), [("md",)], jobs=4)
    for key in serial:
        assert _same_bits(serial[key], parallel[key])


def _mz_txx(size):
    return ObservableCurve((ObservableKind("mz"), ObservableKind("txx")), 0.5, size=size)


def test_joint_pass_matches_single_observable_profiles():
    """One sampling and one Lambda per window for M_z and T_xx gives each
    the bits and provenance of its own profile_set pass."""
    spec = W.WindowSpec(0.5, 1.5, 0.05, 1e-2, 1000)
    ks = (1, 2, 3, 4)
    dists = ("md", "sd", "bd")
    parts = W.profile_set(_mz_txx(14), spec, ks, [dists, dists], jobs=1)
    assert len(parts) == 2
    for name, got in zip(("mz", "txx"), parts):
        (want,) = W.profile_set(xy_curve(name, 14), spec, ks, [dists], jobs=1)
        assert list(got) == list(want)
        for key in want:
            assert _same_bits(got[key], want[key])
            assert got[key].meta == want[key].meta
    mz, txx = W.profile_set(_mz_txx(14), spec, (2,), [("md", "sd"), ("bd",)], jobs=1)
    assert list(mz) == [(2, "md"), (2, "sd")] and list(txx) == [(2, "bd")]


def test_joint_pass_bit_identical_across_jobs():
    spec = W.WindowSpec(0.5, 1.5, 0.05, 5e-3, 1000)
    dists = [("md",), ("md", "bd")]
    serial = W.profile_set(_mz_txx(14), spec, (1, 2), dists, jobs=1)
    parallel = W.profile_set(_mz_txx(14), spec, (1, 2), dists, jobs=2)
    for one, two in zip(serial, parallel):
        assert list(one) == list(two)
        for key in one:
            assert _same_bits(one[key], two[key])


def test_joint_pass_needs_distances_per_part():
    spec = W.WindowSpec(0.5, 1.5, 0.05, 1e-2, 200)
    with pytest.raises(ValueError):
        W.profile_set(_mz_txx(14), spec, (1,), [("md",)], jobs=1)
    with pytest.raises(ValueError):
        W.profile_set(_mz_txx(14), spec, (1,), [("md",), ()], jobs=1)
    with pytest.raises(ValueError):  # a single observable is one part
        W.profile_set(_pow_curve, spec, (1,), ("md",), jobs=1)


class _InlinePool:
    """Stands in for the process pool: records max_workers and runs each
    submission at once, so no worker is ever started."""

    started: list = []

    def __init__(self, max_workers):
        _InlinePool.started.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        fut = Future()
        fut.set_result(fn(*args))
        return fut


@pytest.mark.parametrize(
    "jobs,cores,workers",
    [(10_000, 8, 3), (2, 8, 2), (10_000, 2, 2), (1, 8, None), (-3, 8, None)],
)
def test_profile_set_clamps_workers(monkeypatch, jobs, cores, workers):
    """Workers = min(jobs, blocks, cores); one worker runs without a pool."""
    _InlinePool.started = []
    monkeypatch.setattr(W, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(W, "default_jobs", lambda: cores)
    spec = W.WindowSpec(0.5, 1.5, 0.05, 1e-2, 200)  # 96 windows, 3 blocks
    (got,) = W.profile_set(_pow_curve, spec, (1,), [("md",)], jobs=jobs)
    assert _InlinePool.started == ([] if workers is None else [workers])
    (serial,) = W.profile_set(_pow_curve, spec, (1,), [("md",)], jobs=1)
    assert _same_bits(got[(1, "md")], serial[(1, "md")])


def test_profile_set_requires_a_combo():
    spec = W.WindowSpec(0.5, 1.5, 0.05, 1e-2, 200)
    with pytest.raises(ValueError):
        W.profile_set(_pow_curve, spec, (), [("md",)], jobs=1)


# -------------------------------------------------------------- convergence


def test_convergence_check_stable_curve_stops_at_n0():
    spec = W.WindowSpec(0.5, 1.5, 0.05, 1e-2, 1000)
    res = W.convergence_check(_pow_curve, spec, 1, "md", n0=2500, max_n=20000)
    assert res.n == 2500
    assert res.deviation < 0.01
    assert res.history[0][0] == 2500
    assert res.history[-1] == (res.n, res.deviation)


def test_convergence_check_budget_exhaustion():
    spec = W.WindowSpec(0.5, 1.5, 0.05, 1e-2, 1000)
    with pytest.raises(W.ConvergenceError):
        W.convergence_check(_pow_curve, spec, 1, "md", n0=2500, max_n=4000)
    with pytest.raises(ValueError):
        W.convergence_check(_pow_curve, spec, 1, "md", tolerance=0.0)


# ------------------------------------------------------------------ output


def test_fmt17_round_trips():
    for x in (math.pi, 1.0 / 3.0, 1e-17, -2.5, 0.1 + 0.2, 951.0):
        assert float(W.fmt17(x)) == x


def test_profile_csv_text_layout():
    spec = W.WindowSpec(0.5, 1.5, 0.05, 1e-2, 200)
    prof = W.profile(_pow_curve, spec, k=1, distance="md", jobs=1)
    text = W.profile_csv_text(prof)
    lines = text.splitlines()
    assert lines[0] == "lambda_mid,delta"
    assert len(lines) == spec.count + 1
    lam, delta = lines[1].split(",")
    assert float(lam) == prof.points[0][0]
    assert float(delta) == prof.points[0][1]


def test_profile_meta_text_round_trips_as_config():
    spec = W.WindowSpec(0.5, 1.5, 0.05, 1e-2, 200)
    prof = W.profile(xy_curve("mz", 14), spec, k=2, distance="bd", jobs=1)
    text = W.profile_meta_text(prof)
    fields = dict(
        line.split(" = ", 1) for line in text.splitlines() if line.strip()
    )
    assert fields["observable"] == "mz"
    assert fields["n_sites"] == "14"
    assert float(fields["gamma"]) == 0.5
    assert fields["k"] == "2"
    assert fields["distance"] == "bd"
    assert int(fields["n"]) == spec.n
    assert float(fields["epsilon"]) == spec.epsilon


def test_write_profile_creates_files(tmp_path):
    spec = W.WindowSpec(0.5, 1.5, 0.05, 1e-2, 200)
    prof = W.profile(_pow_curve, spec, k=1, distance="md", jobs=1)
    csv_path = tmp_path / "profile.csv"
    meta_path = tmp_path / "profile.meta"
    W.write_profile(prof, csv_path, meta_path)
    assert csv_path.read_text() == W.profile_csv_text(prof)
    assert meta_path.read_text() == W.profile_meta_text(prof)


# ----------------------------------------------- XY-chain profile structure


@pytest.fixture(scope="module")
def mz40_profiles():
    """Coarse-geometry magnetization profiles of the N = 40 chain for the
    depths whose structure the module asserts on (k = 4 needs a larger n
    than this geometry carries; the acceptance suite covers it)."""
    (profiles,) = W.profile_set(
        xy_curve("mz", 40), COARSE_SPEC, (1, 2, 3), [("md",)], jobs=W.default_jobs()
    )
    return profiles


@pytest.mark.parametrize("k", (1, 2, 3))
def test_mz40_extrema_bracket_transition(mz40_profiles, k):
    prof = mz40_profiles[(k, "md")]
    lams, deltas = prof.lambdas, prof.deltas
    lam_min = float(lams[np.argmin(deltas)])
    lam_max = float(lams[np.argmax(deltas)])
    assert 0.9 < lam_min < 1.0
    assert 1.0 < lam_max < 1.1


@pytest.mark.parametrize("k", (1, 2, 3))
def test_mz40_wings_are_flat(mz40_profiles, k):
    """Away from the transition the profile drifts slowly: the swing in any
    0.1-wide span outside [0.8, 1.2] stays well under the critical swing."""
    prof = mz40_profiles[(k, "md")]
    lams, deltas = prof.lambdas, prof.deltas
    critical_swing = float(deltas.max() - deltas.min())
    assert critical_swing > 0.0
    worst = 0.0
    for lo in (0.5, 0.6, 0.7, 1.2, 1.3, 1.4):
        sel = (lams >= lo) & (lams <= lo + 0.1)
        if np.count_nonzero(sel) < 2:
            continue
        chunk = deltas[sel]
        worst = max(worst, float(chunk.max() - chunk.min()) / critical_swing)
    assert worst < 0.25
