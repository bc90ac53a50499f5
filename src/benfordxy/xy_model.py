"""Exact observables of the 1D anisotropic transverse-field XY chain.

Closed-form transverse magnetization and two-point correlators, evaluated
either as discrete momentum sums for a finite periodic chain of N sites
(momenta phi_p = 2*pi*p/N, p = 1..N/2) or as momentum integrals over
[0, pi] in the thermodynamic limit (``system_size=None``): weighted sums
over the nodes of a graded Gauss-Legendre rule (`quadrature.rule`) fixed
by gamma, the offsets and the field's own distance from |lam| = 1.
All quantities are dimensionless: the driving field lam, the anisotropy
gamma (finite and nonzero, gamma = 1 is the transverse Ising chain) and the
inverse temperature beta_tilde, where ``math.inf`` selects the
zero-temperature ground state exactly (the thermal tanh factor is replaced
by 1, never by a large finite argument).
`magnetization` and `correlator_G` each evaluate an `ObservableCurve`, the
one door to the kernel, so each refuses the parameters `ModelParams`
refuses.

Both sizes share one kernel: one set of term expressions (`_terms`) and
one chunked mode sum (`_chunked_mode_sums`).  With d = cos phi - lam and
the quasiparticle energy L = sqrt(s2 + d*d), s2 = (gamma sin phi)^2, the
M_z term is [tanh(bt*L/2)] d/L (M_z is minus its mean) and the G(r) term
is (a_r - b_r d)/L with a_r = gamma sin(r phi) sin phi and b_r =
cos(r phi).  cos phi, s2, a_r and b_r depend only on the modes, so they
are computed once per (size, gamma, offsets) at finite N and once per rule
of a call at N = inf, and every term of a call comes from one L per
(field, mode).
|gamma| is at most MAX_GAMMA = 1e150, so s2 never overflows; it is floored
at the smallest positive double, so L > 0 at every mode and field and no
term divides by zero.  The floor replaces only an s2 that underflowed to
0, and moves no other bit: a nonzero d between two doubles is at least
about 1e-32, so d*d dwarfs it.  At finite N, sin phi is exactly 0 at
phi_{N/2} = pi (not the double sin(pi) = 1.2e-16), so that mode's terms
are [tanh(bt*L/2)] sign(d) and -cos(r phi) sign(d), exact at every gamma.
At N = inf each term also carries its node's weight / pi.

The mode sum adds each field's terms in an order set by the mode count m
alone: a halving fold per slab of at most SLAB modes, the slab sums added
in turn to +0.0.  So no value depends on the other fields of a call, and
its rounding error is at most (ceil(log2 min(m, SLAB)) + ceil(m/SLAB) - 1)
u sum|term| to first order, u = 2^-53 (Higham, Accuracy and Stability of
Numerical Algorithms, 2nd ed., SIAM 2002, sec. 4.2).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .quadrature import LEVELS, integrate, rule

#: most modes of a slab, whose terms are evaluated and folded at once: a
#: chain of N <= 128 sites is one slab, an N = inf rule at gamma = 0.5
#: (56 to 363 nodes) 1 to 6
SLAB = 64
#: most float64 work elements of one mode sum (1 MiB): the fields are split
#: into equal chunks as wide as this allows; no value depends on it, since
#: each field's column is summed on its own.  Against 384 KiB it cut a
#: 1e4-field call by 10-25 % at N = 4..1000 (fewer numpy calls per field);
#: 1.5 MiB was no faster on a core with 2 MiB of L2
WORK_ELEMENTS = 131072
#: numpy's ufunc buffer, in elements, during a mode sum: below a
#: chunk's width, so a ufunc over a (modes, fields) block with a per-mode
#: (modes, 1) operand loops over the rows in place; with the default 8192
#: it copies rows narrower than that through its buffer, 3 times slower
UFUNC_BUFFER = 16
#: the N = inf halvings toward phi = 0 of each field are rounded up to a
#: multiple of this, so a call's fields fall in few groups, one rule each.
#: At gamma = 0.5, a call of 16 200-sample windows across lam = 1 took
#: 2.7 ms at step 4, 4.7 ms at step 1 and 2.5 ms at step 8; 1e4-sample
#: windows took 3 % longer at step 4 than at step 1, and 10 % at step 8
DEPTH_STEP = 4

_OBSERVABLE_NAMES = ("mz", "txx", "tyy", "tzz", "g")

#: largest |gamma| accepted: (gamma sin phi)^2 stays below 1e300, while
#: above about 1.3e154 it overflows to inf and every term reads 0
MAX_GAMMA = 1e150


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
        if abs(self.gamma) > MAX_GAMMA:
            raise ValueError(f"|gamma| must be at most {MAX_GAMMA:g}, got {self.gamma}")
        if not self.beta_tilde > 0.0:
            raise ValueError("beta_tilde must be positive")
        if self.system_size is not None:
            n = self.system_size
            if n < 4 or n % 2 != 0:
                raise ValueError(f"system_size must be an even integer >= 4, got {n}")


@dataclass(frozen=True)
class ObservableKind:
    """Tag for one of the supported observables: mz, txx, tyy, tzz, or the
    string correlator g at integer offset r (stored as an int; the other
    observables take no offset)."""

    name: str
    r: int = 0

    def __post_init__(self):
        if self.name not in _OBSERVABLE_NAMES:
            raise ValueError(f"unknown observable {self.name!r}")
        # an int is integral at any size; float() of another type refuses
        # nan and inf too
        if not (isinstance(self.r, int) or float(self.r).is_integer()):
            raise ValueError(f"correlator offset must be an integer, got {self.r!r}")
        object.__setattr__(self, "r", int(self.r))
        if self.r and self.name != "g":
            raise ValueError(f"{self.name} takes no offset, got r = {self.r}")

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
    energy = np.square(d, out=out)
    energy += s2
    return np.sqrt(energy, out=out)


@dataclass(frozen=True)
class _Modes:
    """Field-independent constants of one call at its modes phi (the momenta
    at finite N, the quadrature nodes at N = inf), given with their sines:
    cos phi, s2 = (gamma sin phi)^2 floored at the smallest positive double
    (so Lambda >= sqrt(s2) > 0 for every field) and, stacked on a leading
    axis with one entry per G offset r, a = gamma sin(r phi) sin phi and
    b = cos(r phi).  weight is None at finite N; at N = inf each node's
    weight / pi, which a carries and `_terms` multiplies into d = cos phi -
    lam once L is computed: so it weights every term."""

    cos: np.ndarray
    s2: np.ndarray
    a: np.ndarray
    b: np.ndarray
    weight: np.ndarray | None = None

    @classmethod
    def at(cls, phi, sin, gamma, offsets, weight=None):
        s2 = np.square(gamma * sin)
        np.maximum(s2, np.finfo(float).smallest_subnormal, out=s2)
        r = np.array(offsets, dtype=np.int64).reshape(-1, 1, 1)  # phi is a column
        a = gamma * np.sin(r * phi) * sin
        if weight is not None:
            a *= weight
        return cls(np.cos(phi), s2, a, np.cos(r * phi), weight)


@functools.lru_cache(maxsize=16)
def _momentum_modes(size: int, gamma, offsets: tuple) -> _Modes:
    """Read-only `_Modes` at the momenta phi_p = 2 pi p/N, p = 1..N/2, of a
    size-N chain, with sin phi_{N/2} = 0 exactly; built once per (size,
    gamma, offsets) rather than once per call."""
    phi = (2.0 * np.pi * np.arange(1, size // 2 + 1) / size)[:, None]
    sin = np.sin(phi)
    sin[-1] = 0.0  # phi_{N/2} = pi, whose double's sine is 1.2e-16, not 0
    modes = _Modes.at(phi, sin, gamma, offsets)
    for arr in (modes.cos, modes.s2, modes.a, modes.b):
        arr.flags.writeable = False
    return modes


def _terms(modes: _Modes, lam, beta_tilde, with_mz, rows, work):
    """The momentum-sum terms at the fields lam and the modes rows, stacked
    on a leading axis: the M_z term [tanh(bt*L/2)] (cos phi - lam)/L if
    with_mz (without M_z's minus sign; the tanh factor is exactly 1 at
    bt = inf), then one G(r) term [gamma sin(r phi) sin phi - cos(r phi)
    (cos phi - lam)]/L per offset; each times the mode's weight when
    modes.weight is set.

    Every term shares d = cos phi - lam and L = sqrt(s2 + d*d), which is
    positive since s2 is (`_Modes`).  work holds the d, L and terms arrays
    they are written into; the terms are returned.
    """
    d_out, energy_out, out = work
    d = np.subtract(modes.cos[rows], lam, out=d_out)
    energy = _energy(d, modes.s2[rows], out=energy_out)
    if modes.weight is not None:
        d *= modes.weight[rows]
    if with_mz:
        if math.isinf(beta_tilde):
            np.divide(d, energy, out=out[0])
        else:
            term = np.multiply(energy, 0.5 * beta_tilde, out=out[0])
            np.tanh(term, out=term)
            term *= d
            term /= energy
    if len(modes.b):
        g = out[with_mz:]
        np.multiply(modes.b[:, rows], d, out=g)
        np.subtract(modes.a[:, rows], g, out=g)
        g /= energy
    return out


def _fold(t):
    """Sum t (terms, m, F) over its modes (axis 1) in place by halving: while
    m > 1, the last h = m // 2 modes are added onto the first h, and m
    becomes m - h.  Returns the sums (terms, F), t's first mode."""
    m = t.shape[1]
    while m > 1:
        h = m // 2
        t[:, :h] += t[:, m - h : m]
        m -= h
    return t[:, 0]


def _block_rows(count: int, terms: int) -> int:
    """Work rows of a sum over count modes: d, Lambda and terms of a slab."""
    return (2 + terms) * min(count, SLAB)


def _chunked_mode_sums(modes, lams, beta_tilde, with_mz) -> np.ndarray:
    """Each `_terms` term summed over the modes at the 1-D fields lams, shape
    (terms, lams.size).  The fields are split into equal chunks as wide as
    WORK_ELEMENTS allows, and each chunk's modes into slabs of at most SLAB:
    each slab's terms are summed by `_fold` and added to a total that
    starts at +0.0, slab after slab (so -0.0 terms sum to +0.0).  Every
    field's column is summed on its own, in an order set by the mode count
    alone, through one work block allocated once."""
    terms = with_mz + len(modes.b)
    count = len(modes.cos)
    out = np.zeros((terms, lams.size))
    slab = min(count, SLAB)
    chunks = max(1, -(-lams.size // (WORK_ELEMENTS // _block_rows(count, terms))))
    cols = max(1, -(-lams.size // chunks))
    block = np.empty((2 + terms, slab, cols))  # d, Lambda, then the terms
    buffer = np.setbufsize(UFUNC_BUFFER)
    try:
        for start in range(0, lams.size, cols):
            stop = min(start + cols, lams.size)
            lam, total, w = lams[None, start:stop], out[:, start:stop], block[..., : stop - start]
            for lo in range(0, count, slab):
                m = min(slab, count - lo)
                work = w[0, :m], w[1, :m], w[2:, :m]
                total += _fold(_terms(modes, lam, beta_tilde, with_mz, slice(lo, lo + m), work))
    finally:
        np.setbufsize(buffer)
    return out


def _rule_args(gamma, offsets) -> tuple[float, float, float, int]:
    """`quadrature.rule` (a, b, width, depth) of the N = inf rule on [0, pi]:
    panels at most 2|gamma| wide resolve the layer of width about |gamma|
    around cos phi = lam, and 4/|r| the oscillation at the largest offset;
    for lam >= 0 the dispersion vanishes near pi only for |gamma| > 1, at
    imaginary distance atanh(1/|gamma|), which ceil(log2(pi |gamma|))
    halvings toward pi resolve."""
    width = min(2.0 * abs(gamma), 4 / max([1, *map(abs, offsets)]))  # an int of any size
    depth = 0 if abs(gamma) <= 1.0 else math.ceil(math.log2(math.pi * abs(gamma)))
    return 0.0, math.pi, width, min(depth, LEVELS)


def _depths_a(fields, gamma) -> np.ndarray:
    """Halvings toward phi = 0 the N = inf rule takes at each field |lam|:
    the zero of Lambda^2 nearest phi = 0 lies about |1 - |lam||/|gamma|
    away, which ceil(log2(pi |gamma| / |1 - |lam||)) halvings reach; two
    more, rounded up to a multiple of DEPTH_STEP and clipped to 0..LEVELS
    (LEVELS at |lam| = 1 and at a non-finite field)."""
    with np.errstate(divide="ignore"):
        halvings = np.ceil(np.log2(math.pi * abs(gamma) / np.abs(1.0 - fields))) + 2.0
    depths = np.ceil(halvings / DEPTH_STEP) * DEPTH_STEP
    depths[~np.isfinite(fields)] = LEVELS
    return np.clip(depths, 0, LEVELS).astype(np.intp)


def _momentum_mean(lams, size, gamma, beta_tilde=math.inf, with_mz=False,
                   offsets=()) -> np.ndarray:
    """Per field lam, the mean of each `_terms` term over the modes:
    (2/N) sum_p at finite size N, or (1/pi) int_0^pi dphi at N = inf (size
    None).  The means are stacked on a leading axis: shape (terms,) +
    lams.shape.

    Both sizes take the mode constants with the modes on the leading axis
    (finite N from `_momentum_modes`, N = inf once per rule of a call) and
    sum the terms by `_chunked_mode_sums`.  At N = inf the modes are the
    nodes of the rule of `_rule_args`, graded `_depths_a` times toward phi
    = 0 for each field, and each term carries its node's weight / pi; the
    fields are grouped by that depth (a bincount, which unlike np.unique
    imports nothing) and each group is one `integrate` call on its rule.
    A rule depends on gamma, the offsets and the field's own depth alone,
    so no mean depends on the other fields of the call.  The means are
    taken at |lam| and, for lam < 0, flipped by the chain's parity (phi ->
    pi - phi sends lam to -lam): the M_z term is odd in lam and the G(r)
    term takes (-1)^(r+1), an exact sign after the sum.
    """
    lams = np.asarray(lams, dtype=float)
    flat = lams.reshape(-1)
    if size is None:
        fields = np.abs(flat)
        depths = _depths_a(fields, gamma)
        args = _rule_args(gamma, offsets)
        out = np.empty((with_mz + len(offsets), flat.size))
        for depth_a in np.flatnonzero(np.bincount(depths)):
            at = depths == depth_a

            def weighted_sums(nodes_weights, lams=fields[at]):
                nodes, weights = (x[:, None] for x in nodes_weights)
                modes = _Modes.at(nodes, np.sin(nodes), gamma, offsets, weights / math.pi)
                return _chunked_mode_sums(modes, lams, beta_tilde, with_mz)

            out[:, at] = integrate(weighted_sums, *args, int(depth_a))
        odd = np.array([True] * with_mz + [r % 2 == 0 for r in offsets])
        np.negative(out, out=out, where=odd[:, None] & (flat < 0.0))
    else:
        out = _chunked_mode_sums(_momentum_modes(size, gamma, offsets), flat,
                                 beta_tilde, with_mz)
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


def _rules(kinds, gamma) -> set:
    """The `_rule_args` of each single kind of kinds at N = inf: kinds that
    share one take one pass, on that rule."""
    return {_rule_args(gamma, _layout((kind,))[1]) for kind in kinds}


def _curves(kinds, lams, gamma, beta_tilde=math.inf, size=None) -> np.ndarray:
    """Each observable of kinds at the fields lams, one row per kind: shape
    (len(kinds),) + lams.shape.  Every term they need is one mean of
    `_momentum_mean`, so all kinds share one Lambda per (lam, mode): M_z
    is minus the M_z mean, G(r) the mean of the r term, T_xx = G(-1),
    T_yy = G(+1) and T_zz = M_z^2 - G(-1) G(+1); at N = inf, kinds on
    different rules take one pass each, as their single curves do."""
    if size is None and len(_rules(kinds, gamma)) > 1:
        return np.stack([_curves((kind,), lams, gamma, beta_tilde)[0] for kind in kinds])
    with_mz, offsets, rows = _layout(kinds)
    means = _momentum_mean(lams, size, gamma, beta_tilde, with_mz, offsets)
    if with_mz:
        means[:1] *= -1.0
    if rows is None:
        return means
    g = dict(zip(offsets, means[with_mz:]))
    tzz = means[0] * means[0] - g[-1] * g[1] if None in rows else None
    return np.stack([tzz if row is None else means[row] for row in rows])


def magnetization(params: ModelParams) -> float:
    """Transverse magnetization M_z for the given parameters.

    Finite size: -(2/N) sum_p tanh(bt*L_p/2)(cos phi_p - lam)/L_p.
    Infinite size: the same integrand averaged over [0, pi], a weighted
    sum over the nodes of the graded Gauss-Legendre rule.
    """
    curve = ObservableCurve(ObservableKind("mz"), params.gamma, params.beta_tilde,
                            params.system_size)
    return float(curve(params.lam))


def correlator_G(r: int, lam: float, gamma: float, size: int | None = None) -> float:
    """Zero-temperature two-point correlator G(r, lam).

    Infinite size: (1/pi) int_0^pi [gamma sin(r phi) sin phi
    - cos(r phi)(cos phi - lam)] / Lambda dphi, by the graded rule, whose
    panels are at most 4/|r| wide.  Finite size: the discrete momentum sum
    with the same integrand, (1/pi)int -> (2/N)sum, for |r| <= N/2.
    """
    return float(ObservableCurve(ObservableKind("g", r), gamma, size=size)(lam))


@dataclass(frozen=True)
class ObservableCurve:
    """Picklable vectorized observable lam-array -> value-array.

    Carries everything but the field, so profiling code can sweep lam.
    Correlator-based observables require beta_tilde = inf (the closed
    forms used here are zero-temperature only).

    kind may also be a tuple of kinds, a joint curve: a call then returns
    one row per kind, shape (len(kind),) + lams.shape, with the bits of its
    single curve, all from one momentum pass (at N = inf, one per rule).
    `kinds` is a tuple for every curve: its kinds, one for a single curve.
    An N = inf curve builds each pass's full-depth rule (cached) when it is
    constructed, to judge the node budget: one over `quadrature.MAX_NODES`
    nodes (|gamma| below about 3.9e-4, or |r| above about 5.2e3) raises
    `quadrature.QuadratureError` there, before any array is built.  Calls
    build each field depth's rule, never a larger one, on first use.
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
                raise ValueError(f"offset |r|={abs(kind.r)} exceeds "
                                 f"N/2={self.size // 2}")
        if self.size is None:
            for args in _rules(self.kinds, self.gamma):
                rule(*args)

    @property
    def kinds(self) -> tuple[ObservableKind, ...]:
        return self.kind if isinstance(self.kind, tuple) else (self.kind,)

    @property
    def label(self) -> str:
        return "+".join(kind.label() for kind in self.kinds)

    def __call__(self, lams) -> np.ndarray:
        rows = _curves(self.kinds, lams, self.gamma, self.beta_tilde, self.size)
        return rows if isinstance(self.kind, tuple) else rows[0]
