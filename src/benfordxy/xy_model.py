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


def dispersion(phi, lam, gamma):
    """Quasiparticle energy sqrt(gamma^2 sin^2 phi + (lam - cos phi)^2).

    Accepts scalars or arrays; even in gamma by construction.
    """
    s = gamma * np.sin(phi)
    c = lam - np.cos(phi)
    return np.sqrt(s * s + c * c)


def _momenta(size: int) -> np.ndarray:
    return 2.0 * np.pi * np.arange(1, size // 2 + 1) / size


def _over_energy(num, energy):
    """num / energy, with 0 where the quasiparticle energy vanishes."""
    return np.where(energy == 0.0, 0.0, num / np.where(energy == 0.0, 1.0, energy))


def _momentum_mean(integrand, lams, size) -> np.ndarray:
    """Per field lam: (2/N) sum_p integrand(phi_p, lam) at finite size N, or
    (1/pi) int_0^pi integrand(phi, lam) dphi at N = inf (size None).

    The integrand returns a tuple of term arrays, one per mean, and the
    means are stacked on a leading axis: shape (terms,) + lams.shape.  At
    finite N the lams are summed in chunks of about CHUNK_ELEMENTS terms,
    each row on its own, so a chunk's temporaries stay in cache and no
    value depends on the chunk size.  At N = inf one quadrature call
    integrates every lam of a one-term integrand at once: each lam is a
    row of the batched adaptive Simpson rule.
    """
    lams = np.asarray(lams, dtype=float)
    flat = lams.reshape(-1)
    if size is None:

        def at_nodes(pair):
            row, phi = pair
            (terms,) = integrand(phi, flat[row])
            return terms

        out = integrate(at_nodes, 0.0, math.pi, tol=QUAD_TOL, rows=flat.size)[None] / math.pi
    else:
        phi = _momenta(size)[None, :]
        rows = max(1, CHUNK_ELEMENTS // phi.size)
        out = None
        for start in range(0, max(flat.size, 1), rows):  # empty lams: one empty chunk
            parts = integrand(phi, flat[start:start + rows, None])
            if out is None:
                out = np.empty((len(parts), flat.size))
            for dest, terms in zip(out, parts):
                dest[start:start + rows] = terms.sum(axis=1)
        out *= 2.0 / size
    return out.reshape(out.shape[:1] + lams.shape)


def _mz_terms(phi, lam, energy, beta_tilde):
    """M_z integrand tanh(bt*L/2)(cos phi - lam)/L, without its minus sign."""
    num = np.cos(phi) - lam  # the tanh factor is exactly 1 at bt = inf
    if not math.isinf(beta_tilde):
        num = np.tanh(0.5 * beta_tilde * energy) * num
    return _over_energy(num, energy)


def _g_terms(r, phi, lam, gamma, energy):
    """G(r) integrand [gamma sin(r phi) sin phi - cos(r phi)(cos phi - lam)]/L."""
    num = gamma * np.sin(r * phi) * np.sin(phi) - np.cos(r * phi) * (np.cos(phi) - lam)
    return _over_energy(num, energy)


def mz_curve(lams, gamma, beta_tilde=math.inf, size=None) -> np.ndarray:
    """Transverse magnetization at each field in lams (vectorized).

    Finite size: -(2/N) sum_p tanh(bt*L_p/2)(cos phi_p - lam)/L_p.
    Infinite size: the same integrand averaged over [0, pi] by quadrature.
    """

    def integrand(phi, lam):
        return (_mz_terms(phi, lam, dispersion(phi, lam, gamma), beta_tilde),)

    return -_momentum_mean(integrand, lams, size)[0]


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

    def integrand(phi, lam):
        return (_g_terms(r, phi, lam, gamma, dispersion(phi, lam, gamma)),)

    return _momentum_mean(integrand, lams, size)[0]


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

        def integrand(phi, lam):
            energy = dispersion(phi, lam, gamma)
            return (_mz_terms(phi, lam, energy, math.inf),
                    _g_terms(-1, phi, lam, gamma, energy),
                    _g_terms(1, phi, lam, gamma, energy))

        neg_mz, gm, gp = _momentum_mean(integrand, lams, size)
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
