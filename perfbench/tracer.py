"""Outside-in spans around the public entry points of each benfordxy module.

A `Tracer` keeps every span in memory as (name, parent, start, end) and
named counters beside them.  `install` replaces module attributes with
wrappers that open a span per call, so the program itself is untouched.
The spans are dumped once, when the traced command ends, and `layer_metrics`
turns the dump into the per-layer metrics of BENCHMARK.json.

A span's self time is its duration minus the durations of its direct
children.  `check_spans` verifies that the spans nest and that their self
times add up to the command's wall time measured outside the tracer.
"""

from __future__ import annotations

import collections
import functools
import math
import time


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.counters: collections.Counter = collections.Counter()
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        """`fn` with a span named `name` around every call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.starts)
            self.names.append(name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.starts.append(self.clock())
            self.ends.append(float("nan"))
            self._stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                self.ends[idx] = self.clock()
                self._stack.pop()

        return traced

    def count(self, name: str, amount=1):
        self.counters[name] += amount

    def dump(self) -> dict:
        return {
            "names": self.names,
            "parents": self.parents,
            "starts": self.starts,
            "ends": self.ends,
            "counters": dict(self.counters),
        }


def self_times(dump: dict) -> list[float]:
    """Per span: its duration minus the durations of its direct children."""
    starts, ends, parents = dump["starts"], dump["ends"], dump["parents"]
    out = [e - s for s, e in zip(starts, ends)]
    for i, p in enumerate(parents):
        if p >= 0:
            out[p] -= ends[i] - starts[i]
    return out


def by_name(dump: dict) -> dict[str, tuple[int, float]]:
    """{span name: (calls, summed self time)}."""
    agg: dict[str, list] = {}
    for name, st in zip(dump["names"], self_times(dump)):
        slot = agg.setdefault(name, [0, 0.0])
        slot[0] += 1
        slot[1] += st
    return {k: (v[0], v[1]) for k, v in agg.items()}


def root_wall(dump: dict) -> float:
    """Summed duration of the root spans (one per traced command)."""
    return sum(
        e - s
        for s, e, p in zip(dump["starts"], dump["ends"], dump["parents"])
        if p < 0
    )


def check_spans(dump: dict, wall_s: float, tol_s: float) -> list[str]:
    """Mismatches in a dump of one traced command whose own wall time is `wall_s`.

    Every span must be closed with finite start <= end, lie inside its
    parent's interval without overlapping an earlier sibling, and the self
    times must sum to `wall_s` within `tol_s` seconds.
    """
    names, parents = dump["names"], dump["parents"]
    starts, ends = dump["starts"], dump["ends"]
    errors = []
    last_end: dict[int, float] = {}  # latest end of a child seen, per parent
    for i, (name, p, s, e) in enumerate(zip(names, parents, starts, ends)):
        if not (math.isfinite(s) and math.isfinite(e) and s <= e):
            errors.append(f"span {i} ({name}) is open or reversed: {s!r} to {e!r}")
        elif p >= 0 and not (p < i and starts[p] <= s and e <= ends[p]):
            errors.append(f"span {i} ({name}) lies outside its parent span {p}")
        elif s < last_end.get(p, -math.inf):
            errors.append(f"span {i} ({name}) overlaps an earlier sibling")
        else:
            last_end[p] = e
    if errors:
        return errors
    total = sum(self_times(dump))
    if not abs(total - wall_s) <= tol_s:
        errors.append(f"span self times sum to {total!r} s, the command took {wall_s!r} s")
    return errors


def install(tracer: Tracer):
    """Wrap each module's public entry points for one serial run."""
    from benfordxy import benford, cli, quadrature, scaling, windows, xy_model

    t = tracer

    observe = xy_model.ObservableCurve.__call__

    def curve_call(self, lams):
        size = getattr(lams, "size", 1)
        t.count("xy_model.lambdas", size)
        if self.size is not None:
            t.count("xy_model.lambda_modes", size * (self.size // 2))
        return observe(self, lams)

    xy_model.ObservableCurve.__call__ = t.wrap("xy_model", curve_call)

    integrate = xy_model.integrate

    def counted_integrate(f, a, b, *args, **kwargs):
        evals = [0]

        def g(p):
            evals[0] += 1
            return f(p)

        try:
            return integrate(g, a, b, *args, **kwargs)
        except quadrature.QuadratureError:
            t.count("quadrature.errors")
            raise
        finally:
            t.count("quadrature.integrand_evals", evals[0])

    xy_model.integrate = t.wrap("quadrature", counted_integrate)

    windows.normalize = t.wrap("windows.normalize", windows.normalize)
    eval_block = windows._eval_block

    def counted_block(*args, **kwargs):
        t.count("windows.blocks")
        return eval_block(*args, **kwargs)

    windows._eval_block = counted_block

    digit_keys = benford.digit_keys

    def keyed(values, k):
        t.count("benford.keys", len(values))
        return digit_keys(values, k)

    benford.digit_keys = t.wrap("benford.digit_keys", keyed)
    benford.benford_probabilities = t.wrap(
        "benford.prob_table", benford.benford_probabilities
    )
    for table in (benford.DISTANCES, benford._RAW_DISTANCES):
        for key, fn in list(table.items()):
            table[key] = t.wrap("benford.distance", fn)

    def fit_errors(fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except ValueError:  # FitError is a ValueError
                t.count("scaling.fit_errors")
                raise

        return counted

    scaling.cubic_fit = t.wrap("scaling.cubic_fit", scaling.cubic_fit)
    scaling.profile_pseudo_critical = fit_errors(scaling.profile_pseudo_critical)
    scaling.scaling_fit = t.wrap("scaling.scaling_fit", fit_errors(scaling.scaling_fit))

    cli.profile_set = t.wrap("windows", cli.profile_set)
    cli.profile_windows = t.wrap("windows", cli.profile_windows)
    write = cli._write

    def counted_write(path, text):
        t.count("cli.bytes_written", len(text.encode()))
        return write(path, text)

    cli._write = t.wrap("cli.write", counted_write)


def install_pool_counter(tracer: Tracer):
    """Count process pools and time their lifetime, parent side only."""
    from benfordxy import windows

    base = windows.ProcessPoolExecutor

    class CountingPool(base):
        def __init__(self, *args, **kwargs):
            tracer.count("windows.pool_starts")
            self._bench_t0 = time.perf_counter()
            super().__init__(*args, **kwargs)

        def __exit__(self, *exc):
            try:
                return super().__exit__(*exc)
            finally:
                tracer.count("windows.pool_s", time.perf_counter() - self._bench_t0)

    windows.ProcessPoolExecutor = CountingPool


def layer_metrics(dump: dict) -> dict[str, float]:
    """Per-layer metrics of one traced serial run, named `<module>.<metric>`."""
    spans = by_name(dump)
    c = dump["counters"]

    def calls(name):
        return spans.get(name, (0, 0.0))[0]

    def self_s(name):
        return spans.get(name, (0, 0.0))[1]

    windows_n = calls("windows.normalize")
    quad_calls = calls("quadrature")
    lambda_modes = c.get("xy_model.lambda_modes", 0)
    return {
        "xy_model.calls": calls("xy_model"),
        "xy_model.lambdas": c.get("xy_model.lambdas", 0),
        "xy_model.busy_s": self_s("xy_model"),
        "xy_model.ns_per_lambda_mode": (
            1e9 * self_s("xy_model") / lambda_modes if lambda_modes else 0.0
        ),
        "benford.key_calls": calls("benford.digit_keys"),
        "benford.keys": c.get("benford.keys", 0),
        "benford.key_s": self_s("benford.digit_keys"),
        "benford.key_passes_per_window": (
            calls("benford.digit_keys") / windows_n if windows_n else 0.0
        ),
        "benford.prob_table_calls": calls("benford.prob_table"),
        "benford.prob_table_s": self_s("benford.prob_table"),
        "benford.distance_calls": calls("benford.distance"),
        "benford.distance_s": self_s("benford.distance"),
        "windows.windows": windows_n,
        "windows.blocks": c.get("windows.blocks", 0),
        "windows.normalize_s": self_s("windows.normalize"),
        "windows.self_s": self_s("windows"),
        "quadrature.calls": quad_calls,
        "quadrature.integrand_evals": c.get("quadrature.integrand_evals", 0),
        "quadrature.evals_per_call": (
            c.get("quadrature.integrand_evals", 0) / quad_calls if quad_calls else 0.0
        ),
        "quadrature.busy_s": self_s("quadrature"),
        "quadrature.errors": c.get("quadrature.errors", 0),
        "scaling.cubic_fits": calls("scaling.cubic_fit"),
        "scaling.cubic_fit_s": self_s("scaling.cubic_fit"),
        "scaling.fit_errors": c.get("scaling.fit_errors", 0),
        "scaling.scaling_fits": calls("scaling.scaling_fit"),
        "scaling.scaling_fit_s": self_s("scaling.scaling_fit"),
        "cli.write_s": self_s("cli.write"),
        "cli.bytes_written": c.get("cli.bytes_written", 0),
        "cli.self_s": self_s("cli"),
        "trace.spans": len(dump["names"]),
        "trace.self_sum_s": sum(self_times(dump)),
        "trace.wall_s": root_wall(dump),
    }
