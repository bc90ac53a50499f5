"""Tolerance gate on stored reference profiles: a change that moves
observable bits must leave the science of the reference in place.

Each slice holds joint M_z + T_xx profiles at gamma = 0.5, for k = 1..4 x
md/sd/bd, in a file under tests/data written by
tests/data/make_gate_profiles.py:

- N = infinity (inf_profiles.json): 61 windows across lambda = 1 (w = 0.1,
  epsilon = 0.005, n = 200 over [0.8, 1.2]);
- finite N (finite_profiles.json): N = 14, 20 and 40, 191 windows each
  (w = 0.05, epsilon = 5e-3, n = 2 500 over [0.5, 1.5]), and q of the
  fixed-mode scaling fit of the three lambda_c^N per observable and
  (k, distance).

Per profile set, observable and (k, distance) the gate requires:

- the same argmin and argmax window;
- at most 2 % of the windows (at least one) with a changed delta, each
  within 1e-3 relative: one sample whose digit key flips moves md by about
  1e-4 relative at k = 4;
- lambda_c^N of the cubic fit within 1e-8, or a fit that fails in both;
- at finite N, q within 1e-6, or a scaling fit that fails in both.

The golden digests keep their role: bits that move there are rebaselined
only with this gate passing.
"""

import json
import math
import pathlib

import numpy as np

from benfordxy.scaling import FitError, profile_pseudo_critical, scaling_fit
from benfordxy.windows import WindowSpec, profile_set
from benfordxy.xy_model import ObservableCurve, ObservableKind

DATA = pathlib.Path(__file__).resolve().parent / "data"
GAMMA = 0.5
OBSERVABLES = ("mz", "txx")
KS = (1, 2, 3, 4)
DISTANCES = ("md", "sd", "bd")
#: per slice: its reference file, window geometry and system sizes (None = inf)
SLICES = {
    "inf": ("inf_profiles.json", WindowSpec(0.8, 1.2, 0.1, 0.005, 200), None),
    "finite": ("finite_profiles.json", WindowSpec(0.5, 1.5, 0.05, 5e-3, 2500), (14, 20, 40)),
}
#: share of windows whose delta may move, and how far (relative)
MOVED_SHARE = 0.02
MOVED_REL = 1e-3
LAMBDA_C_ABS = 1e-8
Q_ABS = 1e-6


def _lambda_c(points):
    try:
        return profile_pseudo_critical(points)[0]
    except FitError:
        return None


def _q(points):
    """q of the fixed-mode scaling fit over (N, lambda_c^N), or None."""
    if any(lc is None for _, lc in points):
        return None
    try:
        return scaling_fit(points).q
    except FitError:
        return None


def _profiles(spec: WindowSpec, size) -> dict:
    """One profile set at one size: window midpoints, and per observable
    and "k,distance" every delta and lambda_c^N."""
    curve = ObservableCurve(tuple(map(ObservableKind, OBSERVABLES)), GAMMA, size=size)
    parts = profile_set(curve, spec, KS, [DISTANCES] * len(OBSERVABLES))
    out = {"lambdas": parts[0][(KS[0], DISTANCES[0])].lambdas.tolist()}
    for name, profiles in zip(OBSERVABLES, parts):
        out[name] = {
            f"{k},{d}": {"deltas": prof.deltas.tolist(), "lambda_c": _lambda_c(prof.points)}
            for (k, d), prof in profiles.items()
        }
    return out


def reference_profiles(name: str) -> dict:
    """Slice name's profiles from the code as it stands, in its file's layout:
    at N = inf one profile set beside gamma and spec; at finite N one set
    per size under "sizes", and q per observable and "k,distance"."""
    _, spec, sizes = SLICES[name]
    out = {"gamma": GAMMA, "spec": [spec.a, spec.b, spec.w, spec.epsilon, spec.n]}
    if sizes is None:
        return {**out, **_profiles(spec, None)}
    sets = {str(size): _profiles(spec, size) for size in sizes}
    out["sizes"] = sets
    out["q"] = {
        obs: {combo: _q([(size, sets[str(size)][obs][combo]["lambda_c"]) for size in sizes])
              for combo in sets[str(sizes[0])][obs]}
        for obs in OBSERVABLES
    }
    return out


def load(name: str) -> dict:
    """Slice name's stored reference."""
    return json.loads((DATA / SLICES[name][0]).read_text())


def gate_mismatches(ref: dict, got: dict) -> list[str]:
    """Every way the profile set got leaves the gate around ref, one line
    each."""
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


def finite_mismatches(ref: dict, got: dict) -> list[str]:
    """`gate_mismatches` of each size's profile set, and every q that moved."""
    if got["sizes"].keys() != ref["sizes"].keys():
        return ["system sizes differ"]
    errors = [f"N = {size} {line}" for size, want in ref["sizes"].items()
              for line in gate_mismatches(want, got["sizes"][size])]
    for name in OBSERVABLES:
        for combo, q_ref in ref["q"][name].items():
            q = got["q"][name][combo]
            if (q is None) != (q_ref is None) or (q is not None and not abs(q - q_ref) <= Q_ABS):
                errors.append(f"{name} {combo}: q {q!r}, reference {q_ref!r}")
    return errors
