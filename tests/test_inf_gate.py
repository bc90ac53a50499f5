"""Tolerance gate for N = infinity output: a change that moves observable
bits must leave the science of the stored reference profiles in place.

The reference (tests/data/inf_profiles.json, written by
tests/data/make_inf_profiles.py) holds joint M_z + T_xx profiles at
gamma = 0.5 on 61 windows across lambda = 1, for k = 1..4 x md/sd/bd.
Per observable and (k, distance) the gate requires:

- the same argmin and argmax window;
- at most 2 % of the windows (at least one) with a changed delta, each
  within 1e-3 relative: one sample whose digit key flips moves md by about
  1e-4 relative at k = 4;
- lambda_c^N of the cubic fit within 1e-8, or a fit that fails in both.

The golden digests keep their role: bits that move there are rebaselined
only with this gate passing.
"""

import json
import math
import pathlib

import numpy as np

from benfordxy.scaling import FitError, profile_pseudo_critical
from benfordxy.windows import WindowSpec, profile_set
from benfordxy.xy_model import ObservableCurve, ObservableKind

REFERENCE = "inf_profiles.json"
GAMMA = 0.5
SPEC = WindowSpec(0.8, 1.2, 0.1, 0.005, 200)
OBSERVABLES = ("mz", "txx")
KS = (1, 2, 3, 4)
DISTANCES = ("md", "sd", "bd")
#: share of windows whose delta may move, and how far (relative)
MOVED_SHARE = 0.02
MOVED_REL = 1e-3
LAMBDA_C_ABS = 1e-8


def _lambda_c(points):
    try:
        return profile_pseudo_critical(points)[0]
    except FitError:
        return None


def reference_profiles() -> dict:
    """The gate's profiles from the code as it stands, in the file's layout."""
    curve = ObservableCurve(tuple(map(ObservableKind, OBSERVABLES)), GAMMA)
    parts = profile_set(curve, SPEC, KS, [DISTANCES] * len(OBSERVABLES))
    out = {"gamma": GAMMA, "spec": [SPEC.a, SPEC.b, SPEC.w, SPEC.epsilon, SPEC.n],
           "lambdas": parts[0][(KS[0], DISTANCES[0])].lambdas.tolist()}
    for name, profiles in zip(OBSERVABLES, parts):
        out[name] = {
            f"{k},{d}": {"deltas": prof.deltas.tolist(), "lambda_c": _lambda_c(prof.points)}
            for (k, d), prof in profiles.items()
        }
    return out


def gate_mismatches(ref: dict, got: dict) -> list[str]:
    """Every way got leaves the gate around ref, one line each."""
    errors = []
    if got["lambdas"] != ref["lambdas"]:
        return ["window midpoints differ"]
    allowed = max(1, math.floor(MOVED_SHARE * len(ref["lambdas"])))
    for name in OBSERVABLES:
        for combo, want in ref[name].items():
            have = got[name][combo]
            tag = f"{name} {combo}"
            a, b = np.array(want["deltas"]), np.array(have["deltas"])
            if (a.argmin(), a.argmax()) != (b.argmin(), b.argmax()):
                errors.append(f"{tag}: extremum windows moved")
            moved = np.flatnonzero(a != b)
            if moved.size > allowed:
                errors.append(f"{tag}: {moved.size} windows moved, at most {allowed} may")
            rel = np.abs(b[moved] - a[moved]) / np.abs(a[moved])
            if moved.size and not rel.max() <= MOVED_REL:
                errors.append(f"{tag}: a delta moved by {rel.max():.3g} relative")
            lc, lc_ref = have["lambda_c"], want["lambda_c"]
            if (lc is None) != (lc_ref is None) or (
                    lc is not None and not abs(lc - lc_ref) <= LAMBDA_C_ABS):
                errors.append(f"{tag}: lambda_c^N {lc!r}, reference {lc_ref!r}")
    return errors


def _load() -> dict:
    return json.loads((pathlib.Path(__file__).parent / "data" / REFERENCE).read_text())


def test_inf_profiles_within_gate():
    assert gate_mismatches(_load(), reference_profiles()) == []


def test_gate_refuses_moved_science():
    # Each planted change of the reference must be caught on its own.
    ref = _load()
    assert gate_mismatches(ref, ref) == []

    def planted(change):
        got = json.loads(json.dumps(ref))
        change(got["mz"]["4,md"])
        return gate_mismatches(ref, got)

    def nudge(prof, windows, rel):
        for i in windows:
            prof["deltas"][i] *= 1.0 + rel

    def swap_extremum(prof):
        d = prof["deltas"]
        lo = int(np.argmin(d))
        d[lo] = max(d) * 2.0

    def shift_lambda_c(prof):
        prof["lambda_c"] += 1e-7

    assert planted(lambda p: nudge(p, [5], 1e-4)) == []
    assert planted(lambda p: nudge(p, [5], 2e-3))
    assert planted(lambda p: nudge(p, [5, 6], 1e-4))
    assert planted(swap_extremum)
    assert planted(shift_lambda_c)
