"""Independent checks of benfordxy outputs.

Nothing here calls into benfordxy: the observables are plain per-mode
momentum sums (finite N) or `scipy.integrate.quad` (N = infinity), digit
keys come from the exact `decimal.Decimal` expansion of each normalized
sample, and the Benford table, distances and cubic inflection are written
out again.  Callers pass in the program's values and outputs; every check
returns a list of mismatch messages, empty when the output is correct.

Tolerances admit last-bit changes to the observable (a fused kernel moves
values by ~5.6e-16) and still catch wrong science (a wrong anisotropy,
observable, digit law or distance moves values by >= 1e-6).
"""

from __future__ import annotations

import itertools
import math
from decimal import Decimal

import numpy as np
from scipy import integrate

FINITE_VALUE_TOL = 1e-11  # absolute, per-mode sum vs program at N <= 40
INF_VALUE_TOL = 1e-8  # absolute, quad (epsabs 1e-13) vs adaptive Simpson
DELTA_REL_TOL = 1e-9  # distance recomputed from identical digit counts
NEAR_ULPS = 200  # last-bit budget of a sample, in ulps of the window's max |value|
MAX_AMBIGUOUS = 10  # samples whose key a last-bit change could flip, per window
LAMBDA_C_TOL = 1e-4
Q_TOL = 1e-2
# k <= 3 table1 cells at any seed against the seed-commit table: a seed
# moves gamma and the sweep, which moved these q by at most 0.19 over
# seeds 1-16, while a wrong inflection or scaling fit moves them further
Q_BAND = 0.5

TABLE1_COLUMNS = (("mz", "md"), ("mz", "sd"), ("mz", "bd"), ("txx", "md"))


# ---------------------------------------------------------------- observables


def momentum_sum(name: str, lams, gamma: float, size: int) -> np.ndarray:
    """Ground-state M_z or T_xx = G(-1) of the periodic N-site chain."""
    lams = np.asarray(lams, dtype=float)
    acc = np.zeros_like(lams)
    for p in range(1, size // 2 + 1):
        phi = 2.0 * math.pi * p / size
        c, s = math.cos(phi), math.sin(phi)
        energy = np.sqrt((gamma * s) ** 2 + (lams - c) ** 2)
        if name == "mz":
            acc += (c - lams) / energy
        elif name == "txx":  # G(r) at r = -1: sin(r phi) = -s, cos(r phi) = c
            acc += (-gamma * s * s - c * (c - lams)) / energy
        else:
            raise ValueError(f"no oracle for observable {name!r}")
    sign = -1.0 if name == "mz" else 1.0
    return sign * (2.0 / size) * acc


def quad_value(name: str, lam: float, gamma: float) -> float:
    """Ground-state M_z at N = infinity: -(1/pi) int_0^pi (cos p - lam)/Lambda dp."""
    if name != "mz":
        raise ValueError(f"no N = infinity oracle for observable {name!r}")

    def f(p):
        return (math.cos(p) - lam) / math.hypot(gamma * math.sin(p), lam - math.cos(p))

    points = [math.acos(lam)] if -1.0 < lam < 1.0 else None
    val, _ = integrate.quad(f, 0.0, math.pi, epsabs=1e-13, epsrel=1e-13, limit=500,
                            points=points)
    return -val / math.pi


def check_values(name, lams, program_values, gamma, size) -> list[str]:
    """Program observable values against the oracle at the same fields."""
    lams = np.asarray(lams, dtype=float)
    prog = np.asarray(program_values, dtype=float)
    if size is None:
        ref = np.array([quad_value(name, lam, gamma) for lam in lams])
        tol = INF_VALUE_TOL
    else:
        ref = momentum_sum(name, lams, gamma, size)
        tol = FINITE_VALUE_TOL
    err = np.abs(prog - ref)
    if not np.all(np.isfinite(prog)) or np.any(err > tol):
        i = int(np.nanargmax(np.where(np.isfinite(err), err, np.inf)))
        return [
            f"{name} N={size} gamma={gamma}: value at lambda={lams[i]!r} is "
            f"{prog[i]!r}, oracle {ref[i]!r} (tolerance {tol:g})"
        ]
    return []


# ----------------------------------------------------------------- digit layer


def window_samples(a, w, epsilon, n, m) -> np.ndarray:
    """Field values of window m: n points from a + m*eps to a + w + m*eps."""
    return np.linspace(a + m * epsilon, a + w + m * epsilon, n)


def _expansions(normed: np.ndarray) -> list[tuple[str, int]]:
    """(leading significant digits, decimal exponent of the first) of each
    sample's exact decimal expansion."""
    out = []
    for v in normed.tolist():
        d = Decimal(v)
        out.append(("".join(map(str, d.as_tuple().digits[:21])).ljust(21, "0"), d.adjusted()))
    return out


def _keys(expansions, normed: np.ndarray, k: int, u: float):
    """Depth-k key of each positive sample, plus (index, other key) for
    samples within u of a key boundary."""
    keys = np.empty(len(expansions), dtype=np.int64)
    ambiguous = []
    lo, hi = 10 ** (k - 1), 10**k - 1
    for i, (digits, exponent) in enumerate(expansions):
        key = int(digits[:k])
        keys[i] = key
        if normed[i] == 1.0:  # the window maximum normalizes to exactly 1
            continue
        frac = float("0." + digits[k : k + 17])
        unit = 10.0 ** (exponent - k + 1)  # value of one step in the k-th digit
        if frac * unit < u:
            ambiguous.append((i, hi if key == lo else key - 1))
        elif (1.0 - frac) * unit <= u:
            ambiguous.append((i, lo if key == hi else key + 1))
    return keys, ambiguous


def benford_expected(total: float, k: int) -> np.ndarray:
    return total * np.array([math.log10(1.0 + 1.0 / key) for key in range(10 ** (k - 1), 10**k)])


def distance(name: str, observed: np.ndarray, expected: np.ndarray) -> float:
    if name == "md":
        return math.fsum(np.abs(observed - expected) / expected)
    if name == "sd":
        return math.sqrt(math.fsum((observed - expected) ** 2))
    if name == "bd":
        o = observed / observed.sum()
        e = expected / expected.sum()
        return max(0.0, -math.log(math.fsum(np.sqrt(o * e))))
    raise ValueError(f"unknown distance {name!r}")


def check_window(values, deltas: dict) -> list[str]:
    """Recount one window's digits and compare each program distance.

    `deltas` maps (k, distance) to the program's value.  A sample whose
    key a last-bit change of the observable could flip is tried both
    ways; the program value must match one assignment.
    """
    values = np.asarray(values, dtype=float)
    lo, hi = values.min(), values.max()
    if not hi > lo:
        return ["window is constant: no digit statistics"]
    normed = (values - lo) / (hi - lo)
    normed = normed[normed != 0.0]
    u = NEAR_ULPS * np.finfo(float).eps * float(np.max(np.abs(values))) / (hi - lo)
    expansions = _expansions(normed)
    errors = []
    for k in sorted({k for k, _ in deltas}):
        keys, ambiguous = _keys(expansions, normed, k, u)
        if len(ambiguous) > MAX_AMBIGUOUS:
            errors.append(f"k={k}: {len(ambiguous)} samples sit on key boundaries")
            continue
        base = np.bincount(keys - 10 ** (k - 1), minlength=9 * 10 ** (k - 1)).astype(float)
        expected = benford_expected(float(normed.size), k)
        for (kk, dist), prog in deltas.items():
            if kk != k:
                continue
            tried = []
            for flips in itertools.product((False, True), repeat=len(ambiguous)):
                counts = base.copy()
                for flip, (i, other) in zip(flips, ambiguous):
                    if flip:
                        counts[keys[i] - 10 ** (k - 1)] -= 1
                        counts[other - 10 ** (k - 1)] += 1
                tried.append(distance(dist, counts, expected))
                if abs(tried[-1] - prog) <= DELTA_REL_TOL * abs(tried[-1]) + 1e-12:
                    break
            else:
                errors.append(f"k={k} {dist}: program delta {prog!r}, oracle {tried[0]!r}")
    return errors


# ---------------------------------------------------------------- CSV outputs


def window_count(a, b, w, epsilon) -> int:
    return int(math.floor((b - a - w) / epsilon + 1e-9)) + 1


def parse_profile(text: str):
    lines = text.splitlines()
    if not lines or lines[0] != "lambda_mid,delta":
        raise ValueError("profile.csv: bad header")
    rows = [tuple(float(x) for x in line.split(",")) for line in lines[1:]]
    if any(len(r) != 2 for r in rows):
        raise ValueError("profile.csv: rows must be lambda_mid,delta")
    arr = np.array(rows, dtype=float).reshape(-1, 2)
    return arr[:, 0], arr[:, 1]


def check_profile_structure(text, a, b, w, epsilon) -> list[str]:
    """Row count, the lambda_mid grid and finite deltas >= 0."""
    try:
        lams, deltas = parse_profile(text)
    except ValueError as exc:
        return [str(exc)]
    count = window_count(a, b, w, epsilon)
    if lams.size != count:
        return [f"profile.csv: {lams.size} rows, expected {count}"]
    grid = a + w / 2.0 + np.arange(count) * epsilon
    errors = []
    if np.max(np.abs(lams - grid)) > 1e-12:
        errors.append("profile.csv: lambda_mid is not a + w/2 + m*epsilon")
    if not np.all(np.isfinite(deltas)) or np.any(deltas < 0.0):
        errors.append("profile.csv: delta must be finite and >= 0")
    return errors


def inflection(lams, deltas, margin=0.25) -> float | None:
    """Cubic-inflection pseudo-critical field over the dip-to-peak window,
    or None when fewer than 8 points fall inside it."""
    lams, deltas = np.asarray(lams), np.asarray(deltas)
    x0, x1 = sorted([lams[np.argmin(deltas)], lams[np.argmax(deltas)]])
    sep = x1 - x0
    inside = (lams >= x0 - margin * sep) & (lams <= x1 + margin * sep)
    if sep == 0.0 or inside.sum() < 8:
        return None
    x, y = lams[inside], deltas[inside]
    centre = x.mean()
    c3, c2, _, _ = np.polyfit(x - centre, y, 3)
    return float(centre - c2 / (3.0 * c3))


def profile_features(text: str) -> dict:
    lams, deltas = parse_profile(text)
    return {
        "argmin_lambda": float(lams[np.argmin(deltas)]),
        "argmax_lambda": float(lams[np.argmax(deltas)]),
        "lambda_c": inflection(lams, deltas),
    }


def check_profile_reference(text, ref: dict) -> list[str]:
    got = profile_features(text)
    errors = []
    for key in ("argmin_lambda", "argmax_lambda"):
        if abs(got[key] - ref[key]) > 1e-12:
            errors.append(f"{key} {got[key]!r}, reference {ref[key]!r}")
    if (got["lambda_c"] is None) != (ref["lambda_c"] is None) or (
        got["lambda_c"] is not None and abs(got["lambda_c"] - ref["lambda_c"]) > LAMBDA_C_TOL
    ):
        errors.append(f"lambda_c^N {got['lambda_c']!r}, reference {ref['lambda_c']!r}")
    return errors


def table1_header() -> str:
    cols = ["k"]
    for obs, d in TABLE1_COLUMNS:
        cols += [f"q_{d}_{obs}", f"resid_{d}_{obs}"]
    return ",".join(cols)


def parse_table1(text: str) -> dict:
    """{(obs, distance, k): (q, residual) or None for a blank cell}."""
    lines = text.splitlines()
    if not lines or lines[0] != table1_header():
        raise ValueError("table1.csv: bad header")
    if [line.split(",")[0] for line in lines[1:]] != ["1", "2", "3", "4"]:
        raise ValueError("table1.csv: rows must be k = 1..4")
    cells = {}
    for line in lines[1:]:
        parts = line.split(",")
        if len(parts) != 1 + 2 * len(TABLE1_COLUMNS):
            raise ValueError(f"table1.csv: bad row {line!r}")
        k = int(parts[0])
        for j, (obs, d) in enumerate(TABLE1_COLUMNS):
            q, resid = parts[1 + 2 * j], parts[2 + 2 * j]
            if q == "" and resid == "":
                cells[(obs, d, k)] = None
                continue
            q, resid = float(q), float(resid)
            if not (math.isfinite(q) and q > 0.0 and math.isfinite(resid) and resid >= 0.0):
                raise ValueError(f"table1.csv: bad cell {obs}/{d}/k={k}: q={q}, resid={resid}")
            cells[(obs, d, k)] = (q, resid)
    return cells


def cell_name(key) -> str:
    obs, d, k = key
    return f"{obs}/{d}/k={k}"


def _features(cells: dict) -> dict:
    return {
        "q": {cell_name(key): v[0] for key, v in cells.items() if v is not None},
        "blank": sorted(cell_name(key) for key, v in cells.items() if v is None),
    }


def check_table1(text: str, ref: dict | None, exact: bool) -> list[str]:
    """Structure always; against the seed-commit table `ref` when given:
    exactly at the default seed (`exact`), within Q_BAND at k <= 3 otherwise.
    Depths 1..3 are converged at the coarse preset, so their cells must fit."""
    try:
        cells = parse_table1(text)
    except ValueError as exc:
        return [str(exc)]
    errors = [f"cell {cell_name(key)} is blank" for key, v in cells.items()
              if v is None and key[2] <= 3]
    if ref is None:
        return errors
    got = _features(cells)
    if exact and got["blank"] != sorted(ref["blank"]):
        errors.append(f"blank cells {got['blank']}, reference {sorted(ref['blank'])}")
    for key, v in cells.items():
        want = ref["q"].get(cell_name(key))
        if v is None or want is None or not (exact or key[2] <= 3):
            continue
        tol = Q_TOL if exact else Q_BAND
        if abs(v[0] - want) > tol:
            errors.append(f"q {cell_name(key)} = {v[0]!r}, reference {want!r} (tolerance {tol:g})")
    return errors
