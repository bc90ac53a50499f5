"""The package's public names: each listed once, each importable."""

import inspect

import benfordxy

#: every name `benfordxy` exports, by the module it comes from
PUBLIC = {
    # benford
    "FrequencyTable", "benford_probabilities", "delta_bd", "delta_md", "delta_sd",
    "expected_table", "observed_table",
    # quadrature
    "QuadratureError",
    # scaling
    "CubicFit", "FitError", "ScalingResult", "cubic_fit", "derivative_pseudo_critical",
    "feature_window", "profile_pseudo_critical", "pseudo_critical", "scaling_fit",
    # windows
    "ConvergenceError", "ConvergenceResult", "DegenerateWindowError", "ViolationProfile",
    "WindowSpec", "convergence_check", "midpoints", "normalize", "profile", "profile_set",
    "window_violation",
    # xy_model
    "ModelParams", "ObservableCurve", "ObservableKind", "correlator_G", "magnetization",
    "__version__",
}


def test_all_lists_each_public_name_once():
    assert len(benfordxy.__all__) == len(set(benfordxy.__all__))
    assert set(benfordxy.__all__) == PUBLIC


def test_every_public_name_resolves_and_no_other_is_imported():
    # a name dropped from the imports but left in __all__ fails to resolve;
    # one dropped from __all__ but still imported shows up as unlisted
    namespace = {}
    exec("from benfordxy import *", namespace)
    assert set(namespace) - {"__builtins__"} == PUBLIC
    imported = {name for name, value in vars(benfordxy).items()
                if not name.startswith("_") and not inspect.ismodule(value)}
    assert imported == PUBLIC - {"__version__"}
