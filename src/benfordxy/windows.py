"""Sliding-window digit-violation profiles over a field sweep.

An observable curve is scanned with overlapping windows [a + m*eps,
a + w + m*eps].  Within each window the curve is sampled at n evenly
spaced points (endpoints included), min-max normalized, and the first-k
significant digits of the nonzero normalized values are compared against
the Benford expectation with one of the three distances from
:mod:`benfordxy.benford`.  A profile is two float arrays, the window
midpoints a + w/2 + m*eps and each window's distance; the settings that
made it are the caller's to record (the CLI writes them as `profile.meta`).

Windows are independent work units; `jobs > 1` farms fixed-size blocks of
window indices to a process pool of min(jobs, blocks, cores) workers and
assembles results by index, so the output is bit-identical for any worker
count.  The pool's module (with multiprocessing, socket and subprocess)
loads only in a run that starts a pool: `ProcessPoolExecutor` is imported
on its first read, so a serial run never pays for it.  `profile_set`
evaluates several (k, distance) combinations from one sampling and one
digit-key pass per window, which is how the scaling pipeline keeps its
runtime sane; a joint observable (several observables evaluated as rows
of one call) shares that sampling across them too.

A block calls the observable on as few field arrays as it can: each
window is sampled by its own `np.linspace`, and consecutive windows are
concatenated into calls of at most _CALL_FIELDS fields (a wider window is
a call of its own).  Each window's values are then sliced out of the
call's result.  So an observable's value at a field must not depend on the
other fields of the call: `xy_model.ObservableCurve` guarantees it, and an
elementwise function meets it.
"""

from __future__ import annotations

import dataclasses
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import benford

_BLOCK = 32  # windows per work unit; fixed so partitioning never depends on jobs
#: most fields of one observable call.  An N = inf call makes one mode sum
#: per depth toward phi = 0 that its fields take, so wider calls share
#: those groups: with 200- to 1 000-sample windows at N = 40, 400 and inf,
#: 8 192 was 8-22 % faster than 1 024 and no slower than 4 096 (on a
#: 2-vCPU Intel Xeon VM); a whole block of 1e4-sample windows (2.5 MB
#: arrays, which glibc hands back to the system after each call) was slower
_CALL_FIELDS = 8192
#: most windows one sweep may hold (the --full preset has 19 001); a sweep
#: past it is refused before anything is allocated for its windows
MAX_WINDOWS = 1_000_000
#: most samples of one window, and of one sweep (windows x samples): the
#: presets reach at most 160 000 and 19 001 x 160 000 = 3.04e9 (--full's
#: sweep at the largest n of --auto-n's doubling); a sweep past either is
#: refused when its spec is built, like one past MAX_WINDOWS
MAX_WINDOW_SAMPLES = 1_000_000
MAX_SWEEP_SAMPLES = 4_000_000_000
#: largest n of `convergence_check`'s doubling
DOUBLING_MAX_N = 160_000


def __getattr__(name):
    # `windows.ProcessPoolExecutor` is concurrent.futures' class, imported on
    # the first read and then kept as a module global, which a caller may
    # rebind (the benchmark's pool counter and the tests do)
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor

        globals()[name] = ProcessPoolExecutor
        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
        if self.n > MAX_WINDOW_SAMPLES:
            raise ValueError(f"n = {self.n} samples per window is more than the cap "
                             f"of {MAX_WINDOW_SAMPLES}")
        if self.count * self.n > MAX_SWEEP_SAMPLES:
            raise ValueError(f"the sweep takes {self.count} x {self.n} samples, more "
                             f"than the cap of {MAX_SWEEP_SAMPLES}")

    def _shifts(self) -> float:
        return (self.b - self.a - self.w) / self.epsilon + 1e-9

    @property
    def count(self) -> int:
        """Number of windows, floor((b - a - w)/epsilon) + 1."""
        return int(math.floor(self._shifts())) + 1


def _window(spec: WindowSpec, m: int) -> tuple[float, float]:
    """Interval of window m, [a + m*eps, a + w + m*eps] (no accumulation)."""
    return (spec.a + m * spec.epsilon, spec.a + spec.w + m * spec.epsilon)


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
    normed = np.subtract(arr, lo)
    normed /= hi - lo
    return normed


def _evaluate(observable, fields: np.ndarray, parts: int) -> np.ndarray:
    """The observable at fields, one row per part: shape (parts, fields.size)."""
    return np.reshape(observable(fields), (parts, fields.size))


def _window_deltas(rows, part_combos) -> list[float]:
    """Distances for each part's (k, distance) combos, in order, from one
    window's values (one row per part): one normalization and one
    digit-key pass per part."""
    deltas = []
    for values, combos in zip(rows, part_combos):
        normed = normalize(values)
        # normalize maps the maximum to 1.0, so at least one sample is nonzero
        deltas += benford.combo_distances(normed[normed != 0.0], combos)
    return deltas


def window_violation(observable, window, n: int, k: int, distance: str) -> float:
    """Distance of one window's normalized samples from the Benford law:
    the linspace sampling, so the bits of that window's `profile` entry."""
    _check_distance(distance)
    rows = _evaluate(observable, np.linspace(*window, n), 1)
    return _window_deltas(rows, [[(k, distance)]])[0]


def _check_distance(distance: str):
    if distance not in benford.DISTANCES:
        raise ValueError(
            f"unknown distance {distance!r}, expected one of {sorted(benford.DISTANCES)}"
        )


@dataclass(frozen=True, eq=False)
class ViolationProfile:
    """Read-only window midpoints and distances, in window order.  Profiles
    compare by identity; compare their arrays."""

    lambdas: np.ndarray
    deltas: np.ndarray

    @property
    def points(self) -> np.ndarray:
        """(midpoint, delta) rows, shape (windows, 2), for the scaling fits."""
        return np.column_stack((self.lambdas, self.deltas))


def _eval_block(observable, spec: WindowSpec, start: int, stop: int, part_combos):
    """Distances for windows start..stop-1; shape (stop-start, combos of all
    parts).  Runs of consecutive windows go to the observable in one call
    each, every window its own linspace, at most _CALL_FIELDS fields a run
    (a wider window is a run of its own)."""
    n, parts = spec.n, len(part_combos)
    per_call = max(1, _CALL_FIELDS // n)
    deltas = []
    for lo in range(start, stop, per_call):
        hi = min(lo + per_call, stop)
        fields = np.concatenate([np.linspace(*_window(spec, m), n) for m in range(lo, hi)])
        values = _evaluate(observable, fields, parts)
        deltas += [_window_deltas(values[:, i : i + n], part_combos)
                   for i in range(0, fields.size, n)]
    return np.array(deltas)


def profile_set(observable, spec: WindowSpec, ks, distances, jobs: int = 1):
    """Profiles for every (k, distance) pair of each part of observable,
    from one shared sampling pass.

    The parts are the kinds of an `ObservableCurve` (one of several kinds
    is evaluated once per window and returns one row per kind), or the
    observable itself.  distances holds one sequence of distances per part,
    and one dict {(k, distance): ViolationProfile} per part is returned.
    Each window is sampled once, and each part's row normalized and
    digit-keyed once, at the deepest k; shallower depths are folded from
    that histogram (`benford.key_histograms`).

    The observable is called on the fields of a run of consecutive windows
    at once (see the module docstring), so its value at a field must not
    depend on the other fields of the call.
    """
    parts = len(getattr(observable, "kinds", (observable,)))
    distances = list(distances)
    if len(distances) != parts:
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
        # read through the module, so that a rebinding of the name is used
        pool_class = sys.modules[__name__].ProcessPoolExecutor
        with pool_class(max_workers=workers) as pool:
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
    return [{(k, d): ViolationProfile(mids, next(columns)) for k, d in combos}
            for combos in part_combos]


def profile(observable, spec: WindowSpec, k: int, distance: str, jobs: int = 1):
    """Violation profile over all windows for a single (k, distance)."""
    (profiles,) = profile_set(observable, spec, [k], [[distance]], jobs=jobs)
    return profiles[(k, distance)]


@dataclass(frozen=True)
class ConvergenceResult:
    """Smallest converged n, its achieved relative deviation, the
    (n, deviation) pairs tested along the doubling schedule, and the
    profile at n."""

    n: int
    deviation: float
    history: tuple[tuple[int, float], ...]
    profile: ViolationProfile


def convergence_check(
    observable,
    spec: WindowSpec,
    k: int,
    distance: str,
    tolerance: float = 0.01,
    n0: int = 2500,
    max_n: int = DOUBLING_MAX_N,
    jobs: int = 1,
) -> ConvergenceResult:
    """First n in {n0, 2*n0, 4*n0, ...} whose profile is stable under
    doubling: max over windows of |D(2n) - D(n)| / max(D(n), 1e-6) < tolerance.
    Each pass's spec is checked against the work caps when it is built; to
    be refused before the first pass, build `spec` at n = max_n, as the CLI
    does.
    """
    if not tolerance > 0.0:
        raise ValueError("tolerance must be positive")
    history = []
    n, coarse = n0, None
    while 2 * n <= max_n:  # each pass's 2n profile is the next pass's n
        if coarse is None:
            coarse = profile(observable, dataclasses.replace(spec, n=n), k, distance,
                             jobs=jobs)
        fine = profile(observable, dataclasses.replace(spec, n=2 * n), k, distance,
                       jobs=jobs)
        d1, d2 = coarse.deltas, fine.deltas
        dev = float(np.max(np.abs(d2 - d1) / np.maximum(d1, 1e-6)))
        history.append((n, dev))
        if dev < tolerance:
            return ConvergenceResult(n, dev, tuple(history), coarse)
        n, coarse = 2 * n, fine
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


def default_jobs() -> int:
    """The CPUs this process may run on (its affinity mask where the platform
    has one), not every CPU of the host."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1
