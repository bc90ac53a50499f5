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

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .quadrature import integrate

#: tolerance for thermodynamic-limit momentum integrals
QUAD_TOL = 1e-10
#: elements per chunk of a finite-N momentum sum (rows x modes); bounds the
#: temporaries to a cache-sized block, like quadrature.ROWS_PER_BATCH, and
#: never changes a result (rows are summed independently)
CHUNK_ELEMENTS = 16384

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


def _momenta(size: int) -> np.ndarray:
    return 2.0 * np.pi * np.arange(1, size // 2 + 1) / size


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
        return cls(np.cos(phi), s2, not np.all(s2 > 0.0), g)


def _terms(modes: _Modes, lam, beta_tilde, with_mz, work=(None, None, None)):
    """Yield the momentum-sum terms at the fields lam, in order: the M_z
    term [tanh(bt*L/2)] (cos phi - lam)/L if with_mz (without M_z's minus
    sign; the tanh factor is exactly 1 at bt = inf), then one G(r) term
    [gamma sin(r phi) sin phi - cos(r phi)(cos phi - lam)]/L per offset.

    Every term shares d = cos phi - lam and L = sqrt(s2 + d*d); a term is 0
    where L is 0 (only when modes.guard).  work holds the d, L and term
    arrays, or None to allocate them; the term array is reused, so reduce
    each term before drawing the next.
    """
    d_out, energy_out, term_out = work
    d = np.subtract(modes.cos, lam, out=d_out)
    energy = _energy(d, modes.s2, out=energy_out)
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
        term = np.multiply(b, d, out=term_out)
        np.subtract(a, term, out=term)
        term /= energy
        if zero is not None:
            np.copyto(term, 0.0, where=zero)
        yield term


def _momentum_mean(lams, size, gamma, beta_tilde=math.inf, with_mz=False,
                   offsets=()) -> np.ndarray:
    """Per field lam, the mean of each `_terms` term over the modes:
    (2/N) sum_p at finite size N, or (1/pi) int_0^pi dphi at N = inf (size
    None).  The means are stacked on a leading axis: shape (terms,) +
    lams.shape.

    At finite N the mode constants are computed once per call and the lams
    are summed in chunks of about CHUNK_ELEMENTS terms, each row on its own,
    through work arrays allocated once per call, so a chunk stays in cache
    and no value depends on the chunk size.  At N = inf one quadrature call
    integrates every lam of a one-term mean at once: each lam is a row of
    the batched adaptive Simpson rule, and the modes are its nodes.
    """
    lams = np.asarray(lams, dtype=float)
    flat = lams.reshape(-1)
    if size is None:

        def at_nodes(pair):
            row, phi = pair
            (term,) = _terms(_Modes.at(phi, gamma, offsets), flat[row], beta_tilde, with_mz)
            return term

        out = integrate(at_nodes, 0.0, math.pi, tol=QUAD_TOL, rows=flat.size)[None] / math.pi
    else:
        modes = _Modes.at(_momenta(size)[None, :], gamma, offsets)
        rows = max(1, CHUNK_ELEMENTS // (size // 2))
        # one block for the three work arrays: with three separate ones,
        # glibc's heap trimming made some processes refault them every window
        work = np.empty((3, min(rows, flat.size), size // 2))
        out = np.empty((with_mz + len(offsets), flat.size))
        for start in range(0, flat.size, rows):
            stop = min(start + rows, flat.size)
            chunk = work[:, : stop - start]
            terms = _terms(modes, flat[start:stop, None], beta_tilde, with_mz, chunk)
            for dest, term in zip(out, terms):
                term.sum(axis=1, out=dest[start:stop])
        out *= 2.0 / size
    return out.reshape(out.shape[:1] + lams.shape)


def mz_curve(lams, gamma, beta_tilde=math.inf, size=None) -> np.ndarray:
    """Transverse magnetization at each field in lams (vectorized).

    Finite size: -(2/N) sum_p tanh(bt*L_p/2)(cos phi_p - lam)/L_p.
    Infinite size: the same integrand averaged over [0, pi] by quadrature.
    """
    return -_momentum_mean(lams, size, gamma, beta_tilde, with_mz=True)[0]


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
    return _momentum_mean(lams, size, gamma, offsets=(r,))[0]


def correlator_G(r: int, lam: float, gamma: float, size: int | None = None) -> float:
    """Zero-temperature two-point correlator G(r, lam)."""
    return float(correlator_curve(r, lam, gamma, size))


def tzz_curve(lams, gamma, size=None) -> np.ndarray:
    """T_zz = M_z^2 - G(-1) G(+1) at zero temperature (vectorized in lam).

    At finite size one pass computes each Lambda_p once and sums the M_z,
    G(-1) and G(+1) terms from it; at N = inf each factor is its own
    quadrature, since their adaptive trees differ.
    """
    if size is None:
        mz = mz_curve(lams, gamma)
        gm = correlator_curve(-1, lams, gamma)
        gp = correlator_curve(1, lams, gamma)
    else:
        neg_mz, gm, gp = _momentum_mean(lams, size, gamma, with_mz=True, offsets=(-1, 1))
        mz = -neg_mz
    return mz * mz - gm * gp


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
    """

    kind: ObservableKind
    gamma: float
    beta_tilde: float = math.inf
    size: int | None = None

    def __post_init__(self):
        ModelParams(0.0, self.gamma, self.beta_tilde, self.size)
        if self.kind.name != "mz" and not math.isinf(self.beta_tilde):
            raise ValueError(
                "finite-temperature correlators are not supported; "
                "only mz accepts finite beta_tilde"
            )
        if self.size is not None and abs(self.kind.r) > self.size // 2:
            raise ValueError("correlator offset exceeds N/2")

    @property
    def label(self) -> str:
        return self.kind.label()

    def __call__(self, lams) -> np.ndarray:
        name = self.kind.name
        if name == "mz":
            return mz_curve(lams, self.gamma, self.beta_tilde, self.size)
        if name == "txx":
            return correlator_curve(-1, lams, self.gamma, self.size)
        if name == "tyy":
            return correlator_curve(1, lams, self.gamma, self.size)
        if name == "g":
            return correlator_curve(self.kind.r, lams, self.gamma, self.size)
        return tzz_curve(lams, self.gamma, self.size)


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
