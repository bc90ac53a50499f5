"""Benford's-law violation analysis of the transverse-field XY chain.

Exact observables of the anisotropic XY model in a transverse field
(finite chains and the thermodynamic limit), sliding-window significant-
digit statistics of those observables, and finite-size scaling of the
resulting pseudo-critical points.
"""

from .benford import (
    FrequencyTable,
    benford_probabilities,
    delta_bd,
    delta_md,
    delta_sd,
    expected_table,
    observed_table,
)
from .quadrature import QuadratureError
from .scaling import (
    CubicFit,
    FitError,
    ScalingResult,
    cubic_fit,
    derivative_pseudo_critical,
    feature_window,
    profile_pseudo_critical,
    pseudo_critical,
    scaling_fit,
)
from .windows import (
    ConvergenceError,
    ConvergenceResult,
    DegenerateWindowError,
    ViolationProfile,
    WindowSpec,
    convergence_check,
    midpoints,
    normalize,
    profile,
    profile_set,
    window_violation,
)
from .xy_model import (
    ModelParams,
    ObservableCurve,
    ObservableKind,
    correlator_G,
    magnetization,
)

__version__ = "1.0.0"

__all__ = [
    "FrequencyTable",
    "benford_probabilities",
    "delta_bd",
    "delta_md",
    "delta_sd",
    "expected_table",
    "observed_table",
    "QuadratureError",
    "CubicFit",
    "FitError",
    "ScalingResult",
    "cubic_fit",
    "derivative_pseudo_critical",
    "feature_window",
    "profile_pseudo_critical",
    "pseudo_critical",
    "scaling_fit",
    "ConvergenceError",
    "ConvergenceResult",
    "DegenerateWindowError",
    "ViolationProfile",
    "WindowSpec",
    "convergence_check",
    "midpoints",
    "normalize",
    "profile",
    "profile_set",
    "window_violation",
    "ModelParams",
    "ObservableCurve",
    "ObservableKind",
    "correlator_G",
    "magnetization",
    "__version__",
]
