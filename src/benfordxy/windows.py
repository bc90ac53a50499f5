"""Sliding-window digit-violation profiles over a field sweep.

An observable curve is scanned with overlapping windows [a + m*eps,
a + w + m*eps].  Within each window the curve is sampled at n evenly
spaced points (endpoints included), min-max normalized, and the first-k
significant digits of the nonzero normalized values are compared against
the Benford expectation with one of the three distances from
:mod:`benfordxy.benford`.  A profile holds two float arrays, the window
midpoints a + w/2 + m*eps and each window's distance.

Windows are independent work units; `jobs > 1` farms fixed-size blocks of
window indices to a process pool of min(jobs, blocks, cores) workers and
assembles results by index, so the output is bit-identical for any worker
count.  `profile_set` evaluates several (k, distance) combinations from
one sampling and one digit-key pass per window, which is how the scaling
pipeline keeps its runtime sane; a joint observable (several observables
evaluated as rows of one call) shares that sampling across them too.
"""

from __future__ import annotations

import dataclasses
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import benford

_BLOCK = 32  # windows per work unit; fixed so partitioning never depends on jobs
#: most windows one sweep may hold (the --full preset has 19 001); a sweep
#: past it is refused before anything is allocated for its windows
MAX_WINDOWS = 1_000_000


class DegenerateWindowError(ValueError):
    """The observable is constant over a window: no digit statistics exist."""


class ConvergenceError(RuntimeError):
    """The doubling schedule ran out of budget before meeting tolerance."""


@dataclass(frozen=True)
class WindowSpec:
    """Sweep interval [a, b], window width w, shift epsilon, samples n."""

    a: float
    b: float
    w: float
    epsilon: float
    n: int

    def __post_init__(self):
        if not self.b > self.a:
            raise ValueError(f"need b > a, got [{self.a}, {self.b}]")
        if not 0.0 < self.epsilon < self.w:
            raise ValueError(f"need 0 < epsilon < w, got eps={self.epsilon} w={self.w}")
        if not self.w <= (self.b - self.a) / 2.0:
            raise ValueError(f"window width {self.w} exceeds (b - a)/2")
        if self.n < 100:
            raise ValueError(f"need n >= 100 samples per window, got {self.n}")
        if not self._shifts() < MAX_WINDOWS:  # count <= MAX_WINDOWS; also inf and nan
            raise ValueError(
                f"the sweep has {self._shifts() + 1:.6g} windows, "
                f"more than the cap of {MAX_WINDOWS}"
            )

    def _shifts(self) -> float:
        return (self.b - self.a - self.w) / self.epsilon + 1e-9

    @property
    def count(self) -> int:
        """Number of windows, floor((b - a - w)/epsilon) + 1."""
        return int(math.floor(self._shifts())) + 1


def _window(spec: WindowSpec, m: int) -> tuple[float, float]:
    """Interval of window m, [a + m*eps, a + w + m*eps] (no accumulation)."""
    return (spec.a + m * spec.epsilon, spec.a + spec.w + m * spec.epsilon)


def windows(spec: WindowSpec) -> list[tuple[float, float]]:
    """All window intervals, m = 0..m_max."""
    return [_window(spec, m) for m in range(spec.count)]


def midpoints(spec: WindowSpec) -> np.ndarray:
    """Window midpoints a + w/2 + m*eps, computed per-index (no accumulation)."""
    m = np.arange(spec.count)
    return spec.a + spec.w / 2.0 + m * spec.epsilon


def normalize(data) -> np.ndarray:
    """Min-max map onto [0, 1]; rejects non-finite and constant data."""
    arr = np.asarray(data, dtype=float)
    if arr.size < 2:
        raise ValueError("normalization needs at least 2 points")
    lo = arr.min()
    hi = arr.max()
    if not (math.isfinite(lo) and math.isfinite(hi)):  # a NaN makes both NaN
        raise ValueError("window has non-finite observable values")
    if not hi > lo:
        raise DegenerateWindowError("constant data has no min-max normalization")
    return (arr - lo) / (hi - lo)


def _window_deltas(observable, window, n: int, part_combos) -> list[float]:
    """Distances for each part's (k, distance) combos, in order, from one
    window of n samples: one evaluation of the observable, then one
    normalization and one digit-key pass per part (row of its values)."""
    rows = np.reshape(observable(np.linspace(*window, n)), (len(part_combos), n))
    deltas = []
    for values, combos in zip(rows, part_combos):
        normed = normalize(values)
        # normalize maps the maximum to 1.0, so at least one sample is nonzero
        deltas += benford.combo_distances(normed[normed != 0.0], combos)
    return deltas


def window_violation(observable, window, n: int, k: int, distance: str) -> float:
    """Distance of one window's normalized samples from the Benford law."""
    _check_distance(distance)
    return _window_deltas(observable, window, n, [[(k, distance)]])[0]


def _check_distance(distance: str):
    if distance not in benford.DISTANCES:
        raise ValueError(
            f"unknown distance {distance!r}, expected one of {sorted(benford.DISTANCES)}"
        )


@dataclass(frozen=True)
class ProfileMeta:
    """Provenance of a profile: observable identity, digit depth, distance,
    and window geometry."""

    observable: str
    gamma: float | None
    beta_tilde: float | None
    size: int | None
    k: int
    distance: str
    spec: WindowSpec


@dataclass(frozen=True, eq=False)
class ViolationProfile:
    """Read-only window midpoints and distances, in window order, plus
    provenance.  Profiles compare by identity; compare their arrays."""

    lambdas: np.ndarray
    deltas: np.ndarray
    meta: ProfileMeta

    @property
    def points(self) -> np.ndarray:
        """(midpoint, delta) rows, shape (windows, 2), for the scaling fits."""
        return np.column_stack((self.lambdas, self.deltas))


def _eval_block(observable, spec: WindowSpec, start: int, stop: int, part_combos):
    """Distances for windows start..stop-1; shape (stop-start, combos of all
    parts)."""
    return np.array([
        _window_deltas(observable, _window(spec, m), spec.n, part_combos)
        for m in range(start, stop)
    ])


def _meta_for(observable, spec: WindowSpec, k: int, distance: str) -> ProfileMeta:
    label = getattr(observable, "label", None)
    if label is None:
        label = getattr(observable, "__name__", "custom")
    return ProfileMeta(
        observable=str(label),
        gamma=getattr(observable, "gamma", None),
        beta_tilde=getattr(observable, "beta_tilde", None),
        size=getattr(observable, "size", None),
        k=k,
        distance=distance,
        spec=spec,
    )


def profile_set(observable, spec: WindowSpec, ks, distances, jobs: int = 1):
    """Profiles for every (k, distance) pair of each part of observable,
    from one shared sampling pass.

    The parts are `observable.parts` (an `ObservableCurve` of several kinds
    is evaluated once per window and returns one row per part), or the
    observable itself.  distances holds one sequence of distances per part,
    and one dict {(k, distance): ViolationProfile} per part is returned.
    Each window is sampled once, and each part's row normalized and
    digit-keyed once, at the deepest k; shallower depths are folded from
    that histogram (`benford.key_histograms`).
    """
    parts = getattr(observable, "parts", (observable,))
    distances = list(distances)
    if len(distances) != len(parts):
        raise ValueError(f"need one distance list per part, got {len(distances)}")
    ks = list(dict.fromkeys(ks))
    part_combos = []
    for dists in distances:
        if isinstance(dists, str):
            raise ValueError(f"need a sequence of distances per part, got {dists!r}")
        dists = list(dict.fromkeys(dists))
        for d in dists:
            _check_distance(d)
        part_combos.append([(k, d) for k in ks for d in dists])
    if not all(part_combos):
        raise ValueError("need at least one (k, distance) combination")
    count = spec.count
    blocks = [(s, min(s + _BLOCK, count)) for s in range(0, count, _BLOCK)]
    workers = min(jobs, len(blocks), default_jobs())
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(_eval_block, observable, spec, s, t, part_combos)
                for s, t in blocks
            ]
            rows = [fut.result() for fut in futures]
    else:
        rows = [_eval_block(observable, spec, s, t, part_combos) for s, t in blocks]
    table = np.ascontiguousarray(np.concatenate(rows).T)  # one row per combo
    mids = midpoints(spec)
    mids.flags.writeable = table.flags.writeable = False
    columns = iter(table)
    return [
        {(k, d): ViolationProfile(mids, next(columns), _meta_for(part, spec, k, d))
         for k, d in combos}
        for part, combos in zip(parts, part_combos)
    ]


def profile(observable, spec: WindowSpec, k: int, distance: str, jobs: int = 1):
    """Violation profile over all windows for a single (k, distance)."""
    (profiles,) = profile_set(observable, spec, [k], [[distance]], jobs=jobs)
    return profiles[(k, distance)]


@dataclass(frozen=True)
class ConvergenceResult:
    """Smallest converged n, its achieved relative deviation, and the
    (n, deviation) pairs tested along the doubling schedule."""

    n: int
    deviation: float
    history: tuple[tuple[int, float], ...]


def convergence_check(
    observable,
    spec: WindowSpec,
    k: int,
    distance: str,
    tolerance: float = 0.01,
    n0: int = 2500,
    max_n: int = 160000,
    jobs: int = 1,
) -> ConvergenceResult:
    """First n in {n0, 2*n0, 4*n0, ...} whose profile is stable under
    doubling: max over windows of |D(2n) - D(n)| / max(D(n), 1e-6) < tolerance.
    """
    if not tolerance > 0.0:
        raise ValueError("tolerance must be positive")
    cache: dict[int, np.ndarray] = {}

    def deltas_at(n: int) -> np.ndarray:
        if n not in cache:
            sp = dataclasses.replace(spec, n=n)
            cache[n] = profile(observable, sp, k, distance, jobs=jobs).deltas
        return cache[n]

    history = []
    n = n0
    while 2 * n <= max_n:
        d1 = deltas_at(n)
        d2 = deltas_at(2 * n)
        dev = float(np.max(np.abs(d2 - d1) / np.maximum(d1, 1e-6)))
        history.append((n, dev))
        if dev < tolerance:
            return ConvergenceResult(n, dev, tuple(history))
        n *= 2
    raise ConvergenceError(
        f"no n <= {max_n // 2} met tolerance {tolerance}; "
        f"deviations {[(m, f'{d:.3g}') for m, d in history]}"
    )


def fmt17(x: float) -> str:
    """Render a float at 17 significant digits (lossless round-trip)."""
    return f"{x:.17g}"


def profile_csv_text(prof: ViolationProfile) -> str:
    lines = ["lambda_mid,delta"]
    lines += [f"{fmt17(lam)},{fmt17(d)}" for lam, d in prof.points.tolist()]
    return "\n".join(lines) + "\n"


def profile_meta_text(prof: ViolationProfile) -> str:
    """Key-value sidecar; parses back as a CLI config for an identical rerun."""
    m = prof.meta
    sp = m.spec
    pairs = [("observable", m.observable)]
    pairs.append(("n_sites", "inf" if m.size is None else str(m.size)))
    if m.gamma is not None:
        pairs.append(("gamma", fmt17(m.gamma)))
    if m.beta_tilde is not None and math.isfinite(m.beta_tilde):
        pairs.append(("beta_tilde", fmt17(m.beta_tilde)))
    pairs += [
        ("k", str(m.k)),
        ("distance", m.distance),
        ("a", fmt17(sp.a)),
        ("b", fmt17(sp.b)),
        ("w", fmt17(sp.w)),
        ("epsilon", fmt17(sp.epsilon)),
        ("n", str(sp.n)),
    ]
    return "".join(f"{key} = {val}\n" for key, val in pairs)


def write_profile(prof: ViolationProfile, csv_path, meta_path=None):
    """Write the profile CSV and (optionally) its metadata sidecar."""
    with open(csv_path, "w") as fh:
        fh.write(profile_csv_text(prof))
    if meta_path is not None:
        with open(meta_path, "w") as fh:
            fh.write(profile_meta_text(prof))


def default_jobs() -> int:
    return os.cpu_count() or 1
