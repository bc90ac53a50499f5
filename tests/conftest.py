"""Shared fixtures for the test suite.

The expensive inputs (sliding-window violation profiles of the XY chain at
the coarse preset, for every system size and observable the exponent table
needs) are computed once per session and shared.  They are lazy: running
only the unit-test modules never triggers them.
"""

import time

import pytest
from hypothesis import Phase, example, settings

from benfordxy import scaling as sc
from benfordxy.cli import COARSE_EPSILON, COARSE_N, CONVERGED_N, SCALING_SIZES
from benfordxy.windows import WindowSpec, default_jobs, profile_set
from benfordxy.xy_model import ObservableCurve, ObservableKind

SIZES = SCALING_SIZES
COARSE_SPEC = WindowSpec(0.5, 1.5, 0.05, COARSE_EPSILON, COARSE_N)
#: exponent-table columns: distances evaluated per observable
TABLE_DISTANCES = {"mz": ("md", "sd", "bd"), "txx": ("md",)}


def pinned_examples(cases):
    """Run a @given test on cases (dicts of its arguments) alone, never on
    generated data: hypothesis also draws literal constants harvested from
    the loaded program modules, so generated examples move with unrelated
    edits to the program."""

    def decorate(test):
        for case in reversed(cases):
            test = example(**case)(test)
        return settings(phases=[Phase.explicit], deadline=None, database=None)(test)

    return decorate


def xy_curve(obs: str, size: int) -> ObservableCurve:
    """The gamma = 0.5 chain observable used throughout the pipeline tests."""
    return ObservableCurve(ObservableKind.parse(obs), gamma=0.5, size=size)


def table_profiles(size: int, spec: WindowSpec, ks, jobs: int) -> dict:
    """{obs: {(k, dist): ViolationProfile}} for every exponent-table
    observable at one size, from one joint sampling pass (as `table1`)."""
    kinds = tuple(ObservableKind.parse(obs) for obs in TABLE_DISTANCES)
    curve = ObservableCurve(kinds, gamma=0.5, size=size)
    parts = profile_set(curve, spec, ks, list(TABLE_DISTANCES.values()), jobs=jobs)
    return dict(zip(TABLE_DISTANCES, parts))


def cell_points(tables, obs: str, k: int, dist: str):
    """(N, lambda_c^N) points for one exponent-table cell.

    Propagates FitError so callers can report unfittable cells.
    """
    pts = []
    for size in SIZES:
        prof = tables[(obs, size)][(k, dist)]
        lam_c, _ = sc.profile_pseudo_critical(list(prof.points))
        pts.append((size, lam_c))
    return pts


@pytest.fixture(scope="session")
def coarse_tables():
    """{(obs, N): {(k, dist): ViolationProfile}} at the coarse preset.

    Returns a dict with the tables and the wall-clock seconds they took,
    so runtime-budget checks can charge the shared cost honestly.
    """
    jobs = default_jobs()
    start = time.monotonic()
    tables = {}
    for size in SIZES:
        for obs, profs in table_profiles(size, COARSE_SPEC, (1, 2, 3, 4), jobs).items():
            tables[(obs, size)] = profs
    return {"tables": tables, "elapsed": time.monotonic() - start}


@pytest.fixture(scope="session")
def converged_tables(coarse_tables):
    """Same layout as coarse_tables but with the converged per-k sample
    counts `cli.CONVERGED_N` (what `--full` applies); depths whose converged
    n equals the coarse n reuse the coarse profiles outright.

    The seconds recorded are this fixture's own: the coarse profiles it
    reuses are charged in coarse_tables.
    """
    jobs = default_jobs()
    start = time.monotonic()
    tables = {(obs, size): {} for obs in TABLE_DISTANCES for size in SIZES}
    for size in SIZES:
        for k in (1, 2, 3, 4):
            n = CONVERGED_N[k]
            if n == COARSE_SPEC.n:
                for obs, dists in TABLE_DISTANCES.items():
                    for d in dists:
                        tables[(obs, size)][(k, d)] = coarse_tables["tables"][(obs, size)][(k, d)]
                continue
            spec = WindowSpec(
                COARSE_SPEC.a, COARSE_SPEC.b, COARSE_SPEC.w, COARSE_SPEC.epsilon, n
            )
            for obs, profs in table_profiles(size, spec, (k,), jobs).items():
                tables[(obs, size)].update(profs)
    return {"tables": tables, "elapsed": time.monotonic() - start}
