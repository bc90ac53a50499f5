"""Exact observables of the 1D anisotropic transverse-field XY chain.

Closed-form transverse magnetization and two-point correlators, evaluated
either as discrete momentum sums for a finite periodic chain of N sites
(momenta phi_p = 2*pi*p/N, p = 1..N/2) or as momentum integrals over
[0, pi] in the thermodynamic limit.  All quantities are dimensionless:
the driving field lam, the anisotropy gamma (finite and nonzero, gamma = 1
is the transverse Ising chain) and the inverse temperature beta_tilde, where
``math.inf`` selects the zero-temperature ground state exactly (the
thermal tanh factor is replaced by 1, never by a large finite argument).

The thermodynamic limit is requested with ``system_size=None``.

Both sizes share one set of term expressions (`_terms`).  With
d = cos phi - lam and the quasiparticle energy L = sqrt(s2 + d*d),
s2 = (gamma sin phi)^2, the M_z term is [tanh(bt*L/2)] d/L (M_z is minus
its mean) and the G(r) term is (a_r - b_r d)/L with a_r =
gamma sin(r phi) sin phi and b_r = cos(r phi).  cos phi, s2, a_r and b_r
depend only on the modes, so they are computed once per call (at N = inf
the modes are the quadrature nodes of one integrand call).  A term is 0
where L = 0.  That guard runs only when s2 = 0 at some mode: otherwise
L >= sqrt(s2) > 0 for every field.  It always runs at N = inf, whose nodes
include phi = 0, and at finite N only when (gamma sin(pi))^2 underflows,
i.e. |gamma| below about 1e-146.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .quadrature import integrate

#: tolerance for thermodynamic-limit momentum integrals
QUAD_TOL = 1e-10
#: numpy's float add.reduce (its pairwise_sum): 8 accumulators over leaves
#: of at most 128 elements, split in halves rounded down to a multiple of 8
PAIRWISE_UNROLL = 8
PAIRWISE_LEAF = 128
#: most float64 work elements of one finite-N call (384 KiB): the fields
#: are split into equal chunks as wide as this allows; no value depends on
#: it, since each field's column is summed on its own
WORK_ELEMENTS = 49152
#: numpy's ufunc buffer, in elements, during a finite-N sum: below a
#: chunk's width, so a ufunc over a (modes, fields) block with a per-mode
#: (modes, 1) operand loops over the rows in place; with the default 8192
#: it copies rows narrower than that through its buffer, 3 times slower
UFUNC_BUFFER = 16

_OBSERVABLE_NAMES = ("mz", "txx", "tyy", "tzz", "g")


@dataclass(frozen=True)
class ModelParams:
    """Chain parameters: field lam, anisotropy gamma, inverse temperature
    beta_tilde (inf = ground state), and system_size (None = infinite)."""

    lam: float
    gamma: float
    beta_tilde: float = math.inf
    system_size: int | None = None

    def __post_init__(self):
        if not (math.isfinite(self.gamma) and self.gamma != 0.0):
            raise ValueError(
                f"gamma must be finite and nonzero (XX point is excluded), got {self.gamma}"
            )
        if not self.beta_tilde > 0.0:
            raise ValueError("beta_tilde must be positive")
        if self.system_size is not None:
            n = self.system_size
            if n < 4 or n % 2 != 0:
                raise ValueError(f"system_size must be an even integer >= 4, got {n}")


@dataclass(frozen=True)
class ObservableKind:
    """Tag for one of the supported observables: mz, txx, tyy, tzz, or the
    string correlator g at integer offset r."""

    name: str
    r: int = 0

    def __post_init__(self):
        if self.name not in _OBSERVABLE_NAMES:
            raise ValueError(f"unknown observable {self.name!r}")

    @classmethod
    def parse(cls, text: str) -> "ObservableKind":
        """Parse 'mz', 'txx', ... or 'g:R' with integer offset R."""
        if text.startswith("g:"):
            return cls("g", int(text[2:]))
        if text == "g":
            return cls("g", 0)
        return cls(text)

    def label(self) -> str:
        return f"g:{self.r}" if self.name == "g" else self.name


def _energy(d, s2, out=None):
    """Quasiparticle energy sqrt(s2 + d*d) from d = cos phi - lam and
    s2 = (gamma sin phi)^2, written into out when given."""
    energy = np.multiply(d, d, out=out)
    energy += s2
    return np.sqrt(energy, out=out)


def dispersion(phi, lam, gamma):
    """Quasiparticle energy sqrt(gamma^2 sin^2 phi + (lam - cos phi)^2).

    Accepts scalars or arrays; even in gamma by construction.
    """
    s = gamma * np.sin(phi)
    return _energy(np.cos(phi) - lam, s * s)


@functools.cache
def _momenta(size: int) -> np.ndarray:
    """The momenta phi_p = 2 pi p/N, p = 1..N/2, as a read-only column."""
    phi = 2.0 * np.pi * np.arange(1, size // 2 + 1) / size
    phi.flags.writeable = False
    return phi[:, None]


@dataclass(frozen=True)
class _Modes:
    """Field-independent constants of one call at its modes phi (the momenta
    at finite N, the quadrature nodes at N = inf): cos phi, s2 =
    (gamma sin phi)^2 and, per G offset r, a = gamma sin(r phi) sin phi and
    b = cos(r phi).  guard is False when s2 > 0 at every mode: then
    Lambda >= sqrt(s2) > 0 for every field, and no zero energy is possible."""

    cos: np.ndarray
    s2: np.ndarray
    guard: bool
    g: tuple

    @classmethod
    def at(cls, phi, gamma, offsets):
        s = gamma * np.sin(phi)
        s2 = s * s
        g = tuple((gamma * np.sin(r * phi) * np.sin(phi), np.cos(r * phi)) for r in offsets)
        return cls(np.cos(phi), s2, not (s2 > 0.0).all(), g)


def _terms(modes: _Modes, lam, beta_tilde, with_mz, rows=slice(None),
           work=(None, None, None)):
    """Yield the momentum-sum terms at the fields lam and the modes rows,
    in order: the M_z term [tanh(bt*L/2)] (cos phi - lam)/L if with_mz
    (without M_z's minus sign; the tanh factor is exactly 1 at bt = inf),
    then one G(r) term [gamma sin(r phi) sin phi - cos(r phi)(cos phi -
    lam)]/L per offset.

    Every term shares d = cos phi - lam and L = sqrt(s2 + d*d); a term is 0
    where L is 0 (only when modes.guard).  work holds the d, L and term
    arrays, or None to allocate them; the term array is reused, so reduce
    each term before drawing the next.
    """
    d_out, energy_out, term_out = work
    d = np.subtract(modes.cos[rows], lam, out=d_out)
    energy = _energy(d, modes.s2[rows], out=energy_out)
    zero = None
    if modes.guard:
        zero = energy == 0.0
        np.copyto(energy, 1.0, where=zero)  # the terms there are set to 0 below
    if with_mz:
        if math.isinf(beta_tilde):
            term = np.divide(d, energy, out=term_out)
        else:
            term = np.multiply(energy, 0.5 * beta_tilde, out=term_out)
            np.tanh(term, out=term)
            term *= d
            term /= energy
        if zero is not None:
            np.copyto(term, 0.0, where=zero)
        yield term
    for a, b in modes.g:
        term = np.multiply(b[rows], d, out=term_out)
        np.subtract(a[rows], term, out=term)
        term /= energy
        if zero is not None:
            np.copyto(term, 0.0, where=zero)
        yield term


def _pairwise_steps(lo, n, into, level, steps):
    """Append numpy's pairwise_sum recursion over elements lo..lo+n-1 to
    steps: (lo, n, into) sums a leaf of at most PAIRWISE_LEAF into sum
    `into`; (None, src, into) adds sum src into sum `into`.  Sum 0 is the
    result, sum 1 + level holds a second half at that depth."""
    if n <= PAIRWISE_LEAF:
        steps.append((lo, n, into))
        return
    half = n // 2
    half -= half % PAIRWISE_UNROLL
    _pairwise_steps(lo, half, into, level, steps)
    _pairwise_steps(lo + half, n - half, 1 + level, level + 1, steps)
    steps.append((None, 1 + level, into))


@functools.cache
def _pairwise_plan(count: int) -> tuple[tuple, int]:
    """The steps of a pairwise sum of count elements, and the number of
    partial sums it holds beside its result."""
    steps = []
    _pairwise_steps(0, count, 0, 0, steps)
    return tuple(steps), max(into for _, _, into in steps)


def _sum_rows(count: int, terms: int) -> int:
    """Rows of work `_pairwise_mode_sum` needs for count modes and terms."""
    return PAIRWISE_UNROLL * (1 + terms) + _pairwise_plan(count)[1] * terms


def _pairwise_mode_sum(count, evaluate, work, dest):
    """Sum each term over count modes into dest (terms, F), one column per
    field, adding in the order of numpy's float add.reduce along a row, so
    each column has the bits of x.sum(axis=1) over that field's terms.

    evaluate(lo, hi, out) yields the terms of modes lo..hi-1 in turn, each
    written into out (hi - lo rows of F).  It is asked for groups of 8
    modes and then for a leaf's leftover modes, leaf by leaf of numpy's
    pairwise_sum: a leaf of n >= 8 modes adds its groups into 8
    accumulators, folds them as ((r0 + r1) + (r2 + r3)) + ((r4 + r5) +
    (r6 + r7)) and adds the rest one mode at a time; fewer than 8 modes
    are added one at a time.  The sum starts from +0.0, as numpy's does,
    so -0.0 terms sum to +0.0.  work holds `_sum_rows` rows of F columns.
    """
    terms, cols = dest.shape
    unroll = PAIRWISE_UNROLL
    steps, partials = _pairwise_plan(count)
    scratch = work[:unroll]
    acc = work[unroll : unroll * (1 + terms)].reshape(terms, unroll, cols)
    sums = [dest, *work[unroll * (1 + terms) : _sum_rows(count, terms)]
            .reshape(partials, terms, cols)]
    for lo, n, into in steps:
        if lo is None:
            sums[into] += sums[n]
            continue
        full, stop = lo + n - n % unroll, lo + n
        for start in range(lo, full, unroll):
            for total, term in zip(acc, evaluate(start, start + unroll, scratch)):
                if start == lo:
                    np.copyto(total, term)
                else:
                    total += term
        if full > lo:
            for total, out in zip(acc, sums[into]):
                # fold in place: the pairs in rows 0, 2, 4, 6, the quads in 0, 4
                np.add(total[0::2], total[1::2], out=total[0::2])
                np.add(total[0::4], total[2::4], out=total[0::4])
                np.add(total[0], total[4], out=out)
        if stop > full:
            for out, term in zip(sums[into], evaluate(full, stop, scratch[: stop - full])):
                if full == lo:
                    np.copyto(out, term[0])
                for row in term[full == lo :]:
                    out += row
    dest += 0.0


def _chunked_mode_sums(modes, count, lams, beta_tilde, with_mz) -> np.ndarray:
    """Each `_terms` term summed over count modes at the 1-D fields lams,
    shape (terms, lams.size), by `_pairwise_mode_sum` over equal chunks of
    lams as wide as WORK_ELEMENTS allows, through work arrays allocated
    once per call."""
    out = np.empty((with_mz + len(modes.g), lams.size))
    unroll = PAIRWISE_UNROLL
    rows = 2 * unroll + _sum_rows(count, out.shape[0])
    chunks = max(1, -(-lams.size // (WORK_ELEMENTS // rows)))
    cols = max(1, -(-lams.size // chunks))
    block = np.empty((rows, cols))  # the work arrays of every chunk
    buffer = np.setbufsize(UFUNC_BUFFER)
    try:
        for start in range(0, lams.size, cols):
            stop = min(start + cols, lams.size)
            lam = lams[None, start:stop]
            w = block[:, : stop - start]
            d, energy = w[:unroll], w[unroll : 2 * unroll]

            def evaluate(lo, hi, term):
                work = d[: hi - lo], energy[: hi - lo], term
                return _terms(modes, lam, beta_tilde, with_mz, slice(lo, hi), work)

            _pairwise_mode_sum(count, evaluate, w[2 * unroll :], out[:, start:stop])
    finally:
        np.setbufsize(buffer)
    return out


def _momentum_mean(lams, size, gamma, beta_tilde=math.inf, with_mz=False,
                   offsets=()) -> np.ndarray:
    """Per field lam, the mean of each `_terms` term over the modes:
    (2/N) sum_p at finite size N, or (1/pi) int_0^pi dphi at N = inf (size
    None).  The means are stacked on a leading axis: shape (terms,) +
    lams.shape.

    At finite N the mode constants are computed once per call, with the
    modes on the leading axis.  A single lam's terms are one column, which
    numpy sums itself; more lams are summed by `_chunked_mode_sums`, 8
    modes at a time in numpy's pairwise order, so every mean has the bits
    of a row sum over its own modes and none depends on the chunk.  At
    N = inf each term is one quadrature call that integrates every lam at
    once: each lam is a row of the batched adaptive Simpson rule, and the
    modes are its nodes; the terms are integrated separately because their
    adaptive trees differ.
    """
    lams = np.asarray(lams, dtype=float)
    flat = lams.reshape(-1)
    if size is None:

        def mean(mz, rs):
            def at_nodes(pair):
                row, phi = pair
                (term,) = _terms(_Modes.at(phi, gamma, rs), flat[row], beta_tilde, mz)
                return term

            return integrate(at_nodes, 0.0, math.pi, tol=QUAD_TOL, rows=flat.size) / math.pi

        means = [mean(True, ())] if with_mz else []
        out = np.array(means + [mean(False, (r,)) for r in offsets])
    else:
        modes = _Modes.at(_momenta(size), gamma, offsets)
        if flat.size == 1:  # one field: its column over the modes is the row numpy sums
            out = np.array([np.add.reduce(term[:, 0], keepdims=True)
                            for term in _terms(modes, flat, beta_tilde, with_mz)])
        else:
            out = _chunked_mode_sums(modes, size // 2, flat, beta_tilde, with_mz)
        out *= 2.0 / size
    return out.reshape(out.shape[:1] + lams.shape)


#: (M_z term needed, G offsets needed) per observable; g:r needs (False, (r,))
_NEEDS = {"mz": (True, ()), "txx": (False, (-1,)), "tyy": (False, (1,)),
          "tzz": (True, (-1, 1))}


@functools.cache
def _layout(kinds) -> tuple[bool, tuple, tuple | None]:
    """What `_momentum_mean` computes for kinds: whether the M_z term is
    needed, the G offsets, and each kind's row of the means (None for
    T_zz); the rows are None when each kind is the mean of its position."""
    needs = [_NEEDS.get(kind.name, (False, (kind.r,))) for kind in kinds]
    with_mz = any(mz for mz, _ in needs)
    offsets = tuple(dict.fromkeys(r for _, rs in needs for r in rs))
    at = {r: with_mz + i for i, r in enumerate(offsets)}
    rows = tuple(None if kind.name == "tzz" else 0 if kind.name == "mz" else at[rs[0]]
                 for kind, (_, rs) in zip(kinds, needs))
    return with_mz, offsets, None if rows == tuple(range(with_mz + len(offsets))) else rows


def _curves(kinds, lams, gamma, beta_tilde=math.inf, size=None) -> np.ndarray:
    """Each observable of kinds at the fields lams, one row per kind: shape
    (len(kinds),) + lams.shape.  Every term they need is one mean of
    `_momentum_mean`, so at finite N all kinds share one Lambda per
    (lam, mode): M_z is minus the M_z mean, G(r) the mean of the r term,
    T_xx = G(-1), T_yy = G(+1) and T_zz = M_z^2 - G(-1) G(+1)."""
    with_mz, offsets, rows = _layout(kinds)
    means = _momentum_mean(lams, size, gamma, beta_tilde, with_mz, offsets)
    if with_mz:
        means[:1] *= -1.0
    if rows is None:
        return means
    g = dict(zip(offsets, means[with_mz:]))
    tzz = means[0] * means[0] - g[-1] * g[1] if None in rows else None
    return np.stack([tzz if row is None else means[row] for row in rows])


_MZ = (ObservableKind("mz"),)


def mz_curve(lams, gamma, beta_tilde=math.inf, size=None) -> np.ndarray:
    """Transverse magnetization at each field in lams (vectorized).

    Finite size: -(2/N) sum_p tanh(bt*L_p/2)(cos phi_p - lam)/L_p.
    Infinite size: the same integrand averaged over [0, pi] by quadrature.
    """
    return _curves(_MZ, lams, gamma, beta_tilde, size)[0]


def magnetization(params: ModelParams) -> float:
    """Transverse magnetization M_z for the given parameters."""
    return float(
        mz_curve(params.lam, params.gamma, params.beta_tilde, params.system_size)
    )


def correlator_curve(r: int, lams, gamma, size=None) -> np.ndarray:
    """String correlator G(r, lam) at zero temperature (vectorized in lam).

    Infinite size: (1/pi) int_0^pi [gamma sin(r phi) sin phi
    - cos(r phi)(cos phi - lam)] / Lambda dphi.  Finite size: the discrete
    momentum sum with the same integrand, (1/pi)int -> (2/N)sum.
    """
    if size is not None and abs(r) > size // 2:
        raise ValueError(f"offset |r|={abs(r)} exceeds N/2={size // 2}")
    return _curves((ObservableKind("g", r),), lams, gamma, size=size)[0]


def correlator_G(r: int, lam: float, gamma: float, size: int | None = None) -> float:
    """Zero-temperature two-point correlator G(r, lam)."""
    return float(correlator_curve(r, lam, gamma, size))


def tzz_curve(lams, gamma, size=None) -> np.ndarray:
    """T_zz = M_z^2 - G(-1) G(+1) at zero temperature (vectorized in lam).

    At finite size one pass computes each Lambda_p once and sums the M_z,
    G(-1) and G(+1) terms from it; at N = inf each factor is its own
    quadrature, since their adaptive trees differ.
    """
    return _curves((ObservableKind("tzz"),), lams, gamma, size=size)[0]


def correlators_nn(lam: float, gamma: float, size: int | None = None):
    """Nearest-neighbor correlators (T_xx, T_yy, T_zz) at zero temperature.

    T_xx = G(-1), T_yy = G(+1), T_zz = M_z^2 - G(-1) G(+1).
    """
    g_minus = correlator_G(-1, lam, gamma, size)
    g_plus = correlator_G(1, lam, gamma, size)
    mz = magnetization(ModelParams(lam, gamma, math.inf, size))
    return g_minus, g_plus, mz * mz - g_minus * g_plus


@dataclass(frozen=True)
class ObservableCurve:
    """Picklable vectorized observable lam-array -> value-array.

    Carries everything but the field, so profiling code can sweep lam.
    Correlator-based observables require beta_tilde = inf (the closed
    forms used here are zero-temperature only).

    kind may also be a tuple of kinds, a joint curve: a call then returns
    one row per kind, shape (len(kind),) + lams.shape, every row from one
    momentum pass.  `kinds` and `parts` are tuples for every curve: its
    kinds, and the single-kind curve of each (the curve itself for one
    kind).
    """

    kind: ObservableKind | tuple[ObservableKind, ...]
    gamma: float
    beta_tilde: float = math.inf
    size: int | None = None

    def __post_init__(self):
        ModelParams(0.0, self.gamma, self.beta_tilde, self.size)
        if not self.kinds:
            raise ValueError("a joint curve needs at least one observable")
        for kind in self.kinds:
            if kind.name != "mz" and not math.isinf(self.beta_tilde):
                raise ValueError(
                    "finite-temperature correlators are not supported; "
                    "only mz accepts finite beta_tilde"
                )
            if self.size is not None and abs(kind.r) > self.size // 2:
                raise ValueError("correlator offset exceeds N/2")

    @property
    def kinds(self) -> tuple[ObservableKind, ...]:
        return self.kind if isinstance(self.kind, tuple) else (self.kind,)

    @property
    def parts(self) -> tuple[ObservableCurve, ...]:
        if not isinstance(self.kind, tuple):
            return (self,)
        return tuple(ObservableCurve(kind, self.gamma, self.beta_tilde, self.size)
                     for kind in self.kind)

    @property
    def label(self) -> str:
        return "+".join(kind.label() for kind in self.kinds)

    def __call__(self, lams) -> np.ndarray:
        rows = _curves(self.kinds, lams, self.gamma, self.beta_tilde, self.size)
        return rows if isinstance(self.kind, tuple) else rows[0]


def observable_curve(
    kind: ObservableKind,
    lambda_grid: Sequence[float],
    gamma: float,
    beta_tilde: float = math.inf,
    size: int | None = None,
) -> list[tuple[float, float]]:
    """Evaluate one observable over a strictly increasing field grid.

    Returns (lam, value) pairs in grid order; evaluation is a single
    deterministic vectorized pass, so output never depends on scheduling.
    """
    grid = np.asarray(lambda_grid, dtype=float)
    if grid.size == 0:
        raise ValueError("lambda_grid is empty")
    if grid.size > 1 and not np.all(np.diff(grid) > 0):
        raise ValueError("lambda_grid must be strictly increasing")
    values = ObservableCurve(kind, gamma, beta_tilde, size)(grid)
    return list(zip(grid.tolist(), values.tolist()))
