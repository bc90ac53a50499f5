"""Unit tests for sliding-window geometry, normalization, and profiles."""

import concurrent.futures
import dataclasses
import math
from concurrent.futures import Future

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from benfordxy import benford
from benfordxy import windows as W
from benfordxy.cli import CONVERGED_N
from benfordxy.xy_model import ObservableCurve, ObservableKind

from conftest import COARSE_SPEC, pinned_examples, xy_curve


def _pow_curve(lams):
    return np.power(10.0, lams)


def _cubic_curve(lams):
    # unlike 10**lam, not the same curve in every window after normalizing
    return (np.asarray(lams) - 0.93) ** 3


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


def test_work_caps_refuse_oversized_sweeps():
    # Samples per window and per sweep (windows x n) are capped, and a spec
    # past either cap is refused when it is built: nothing is sampled.
    for n in (W.MAX_WINDOW_SAMPLES + 1, 10**9):
        with pytest.raises(ValueError, match="samples per window is more than the cap"):
            W.WindowSpec(0.5, 1.5, 0.05, 1e-3, n)
    # 95 001 windows: fine at n = 1e4, past the sweep cap at 1e5
    assert W.WindowSpec(0.5, 1.5, 0.05, 1e-5, 10_000).count == 95_001
    with pytest.raises(ValueError, match="samples, more than the cap"):
        W.WindowSpec(0.5, 1.5, 0.05, 1e-5, 100_000)
    # exactly MAX_SWEEP_SAMPLES is the largest sweep allowed
    n = W.MAX_WINDOW_SAMPLES
    last = 2.0 + (W.MAX_SWEEP_SAMPLES // n - 1)
    assert W.WindowSpec(0.0, last, 2.0, 1.0, n).count * n == W.MAX_SWEEP_SAMPLES
    with pytest.raises(ValueError, match="samples, more than the cap"):
        W.WindowSpec(0.0, last + 1.0, 2.0, 1.0, n)
    # every preset fits, up to --auto-n's doubling on the --full geometry
    for epsilon in (1e-3, 5e-5):
        for n in (*CONVERGED_N.values(), W.DOUBLING_MAX_N):
            W.WindowSpec(0.5, 1.5, 0.05, epsilon, n)


def _window_count_cases(count=200):
    """Every corner of the domain, a few hand-picked geometries, then a
    seeded uniform sample."""
    corners = [(a, w, e, s) for a in (-5.0, 5.0) for w in (0.01, 1.0)
               for e in (0.05, 0.95) for s in (2.01, 6.0)]
    hand = corners + [
        (0.0, 0.05, 0.5, 2.01),
        (-0.0, 0.1, 0.1, 3.0),
        (0.5, 0.05, 0.05, 6.0),  # the coarse preset's a and w
        (1.0, 0.3, 1.0 / 3.0, 4.0),
        (-1.1, 0.07, 0.7, 5.5),
    ]
    rng = np.random.default_rng(2017)
    n = count - len(hand)
    sample = zip(rng.uniform(-5.0, 5.0, n), rng.uniform(0.01, 1.0, n),
                 rng.uniform(0.05, 0.95, n), rng.uniform(2.01, 6.0, n))
    cases = hand + [tuple(map(float, case)) for case in sample]
    return [dict(a=a, w=w, eps_frac=e, span_factor=s) for a, w, e, s in cases]


@pinned_examples(_window_count_cases())
@given(
    a=st.floats(-5.0, 5.0),
    w=st.floats(0.01, 1.0),
    eps_frac=st.floats(0.05, 0.95),
    span_factor=st.floats(2.01, 6.0),
)
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


def _violations(curve, spec, k, distance, picks=None):
    """Each picked window's (all by default) `window_violation`: one call of
    its own, so no window can read another's values."""
    windows = W.windows(spec)
    picks = range(len(windows)) if picks is None else picks
    return np.array([W.window_violation(curve, windows[m], spec.n, k, distance) for m in picks])


def test_window_violation_matches_profile_entry():
    spec = W.WindowSpec(0.5, 1.5, 0.05, 1e-2, 500)
    prof = W.profile(_cubic_curve, spec, k=2, distance="sd", jobs=1)
    assert np.unique(prof.deltas).size > 1
    picks = (0, spec.count // 2, spec.count - 1)
    want = _violations(_cubic_curve, spec, 2, "sd", picks)
    assert prof.deltas[list(picks)].tobytes() == want.tobytes()


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
    the bits of its own profile_set pass."""
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
    (got,) = W.profile_set(_cubic_curve, spec, (1,), [("md",)], jobs=jobs)
    assert _InlinePool.started == ([] if workers is None else [workers])
    (serial,) = W.profile_set(_cubic_curve, spec, (1,), [("md",)], jobs=1)
    assert _same_bits(got[(1, "md")], serial[(1, "md")])
    deltas = serial[(1, "md")].deltas
    assert np.unique(deltas).size > 1
    assert deltas.tobytes() == _violations(_cubic_curve, spec, 1, "md").tobytes()


def test_pool_class_is_imported_on_first_read():
    # windows defers the pool's import to the first read of the name (a
    # module __getattr__); the read is concurrent.futures' class, and any
    # other missing name still raises
    assert W.ProcessPoolExecutor is concurrent.futures.ProcessPoolExecutor
    assert "ProcessPoolExecutor" in vars(W)
    with pytest.raises(AttributeError, match="no_such_name"):
        W.no_such_name


def test_default_jobs_counts_the_affinity_mask(monkeypatch):
    """Under a one-core affinity mask on a larger host, the default is one
    worker and no pool; without a mask, every CPU of the host."""
    _InlinePool.started = []
    monkeypatch.setattr(W, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(W.os, "cpu_count", lambda: 8)
    monkeypatch.setattr(W.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert W.default_jobs() == 1
    spec = W.WindowSpec(0.5, 1.5, 0.05, 1e-2, 200)  # 3 blocks
    W.profile_set(_cubic_curve, spec, (1,), [("md",)], jobs=10_000)
    assert _InlinePool.started == []
    monkeypatch.delattr(W.os, "sched_getaffinity")
    assert W.default_jobs() == 8
    monkeypatch.setattr(W.os, "cpu_count", lambda: None)
    assert W.default_jobs() == 1


# ------------------------------------------------------ block evaluation


class _CountingCurve:
    """An elementwise curve that records the fields of every call."""

    def __init__(self):
        self.calls = []

    def __call__(self, lams):
        self.calls.append(np.array(lams))
        return _cubic_curve(lams)


def _blocks(spec):
    return [(s, min(s + W._BLOCK, spec.count)) for s in range(0, spec.count, W._BLOCK)]


@pytest.mark.parametrize("n", [200, 1000, 1500])
def test_windows_share_calls_within_the_budget(n):
    spec = W.WindowSpec(0.5, 1.5, 0.05, 1e-2, n)
    curve = _CountingCurve()
    W.profile_set(curve, spec, (1,), [("md",)], jobs=1)
    fields = np.concatenate(curve.calls)
    want = np.concatenate([np.linspace(*window, n) for window in W.windows(spec)])
    assert fields.tobytes() == want.tobytes()  # windows x n fields, in order
    for fields in curve.calls:
        assert fields.size % n == 0 and fields.size <= max(W._CALL_FIELDS, n)
    per_call = max(1, W._CALL_FIELDS // n)
    # no call spans two blocks, and a block takes ceil(windows / per_call)
    assert len(curve.calls) == sum(-(-(t - s) // per_call) for s, t in _blocks(spec))


@pytest.mark.parametrize("curve", [_pow_curve, _cubic_curve, xy_curve("mz", 14)])
def test_shared_calls_keep_per_window_bits(curve):
    """Each window gets the bits of a call of its own, at every (k, distance)."""
    spec = W.WindowSpec(0.5, 1.5, 0.05, 1e-2, 200)
    for (k, d), prof in W.profile_set(curve, spec, (1, 2, 3), [("md", "sd", "bd")],
                                      jobs=1)[0].items():
        want = [W.window_violation(curve, window, spec.n, k, d) for window in W.windows(spec)]
        assert prof.deltas.tobytes() == np.array(want).tobytes(), (k, d)


def test_shared_calls_keep_window_errors():
    # a bad window is named by the same error whichever call it shares
    spec = W.WindowSpec(0.5, 1.5, 0.05, 1e-2, 100)

    def nan_above_one(lams):
        return np.where(lams > 1.0, math.nan, lams)

    def flat_above_one(lams):
        return np.where(lams > 0.9, 1.0, lams)

    with pytest.raises(ValueError, match="window has non-finite observable values"):
        W.profile(nan_above_one, spec, k=1, distance="md")
    with pytest.raises(W.DegenerateWindowError,
                       match="constant data has no min-max normalization"):
        W.profile(flat_above_one, spec, k=1, distance="md")


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


def test_convergence_check_profile_is_the_profile_at_n():
    # windows that differ after normalizing, five to a call at n = 200: the
    # converged profile is that of n, window by window
    spec = W.WindowSpec(0.5, 1.5, 0.05, 2e-2, 1000)
    curve = xy_curve("mz", 14)
    res = W.convergence_check(curve, spec, 1, "md", tolerance=0.05, n0=100, max_n=4000)
    assert res.n == 200 and len(res.history) == 2
    at_n = dataclasses.replace(spec, n=res.n)
    assert _same_bits(res.profile, W.profile(curve, at_n, 1, "md"))
    assert np.unique(res.profile.deltas).size > 1
    assert res.profile.deltas.tobytes() == _violations(curve, at_n, 1, "md").tobytes()


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
