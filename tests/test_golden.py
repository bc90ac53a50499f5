"""Golden-bytes gate: a small fixed set of CLI runs must reproduce their
output files exactly, and pinned observable values (N = infinity and
finite N) must not move.

The digests are sha256 of each written file.  A change that moves an
output bit fails here; rebaselining a digest belongs in a change that
records why the bytes moved (with the profile extrema, lambda_c^N and q
shown to agree at tolerance level).
"""

import hashlib
import math

import numpy as np
import pytest

from benfordxy import cli
from benfordxy.xy_model import ObservableCurve, ObservableKind

PROFILE_ARGS = ["--n-sites", "14", "--a", "0.5", "--b", "1.5", "--w", "0.05",
                "--epsilon", "5e-3", "--n", "2500", "--jobs", "1"]
INF_ARGS = ["--n-sites", "inf", "--a", "0.9", "--b", "1.1", "--w", "0.08",
            "--epsilon", "0.04", "--n", "100", "--jobs", "1"]
TABLE1_ARGS = ["--n-sites", "14", "--n-sites", "16", "--n-sites", "18",
               "--a", "0.5", "--b", "1.5", "--w", "0.05", "--epsilon", "1e-2",
               "--n", "2500", "--jobs", "1"]

RUNS = {
    "profile-mz": (["profile", "--observable", "mz", "--k", "2", "--distance", "sd",
                    "--emit-plot", *PROFILE_ARGS],
                   ("profile.csv", "profile.meta", "profile.gp")),
    "profile-txx": (["profile", "--observable", "txx", *PROFILE_ARGS],
                    ("profile.csv", "profile.meta")),
    "profile-tzz": (["profile", "--observable", "tzz", *PROFILE_ARGS],
                    ("profile.csv", "profile.meta")),
    "table1": (["table1", *TABLE1_ARGS], ("table1.csv",)),
    "profile-inf-mz": (["profile", "--observable", "mz", *INF_ARGS],
                       ("profile.csv", "profile.meta")),
    "profile-inf-txx": (["profile", "--observable", "txx", *INF_ARGS],
                        ("profile.csv", "profile.meta")),
}

GOLDEN = {
    "profile-mz/profile.csv":
        "3cab5425ae91313268db2ef0421f3f31e7eedc68298de66ba326e5acd2472f42",
    "profile-mz/profile.meta":
        "a2908c4159ed1642be65c3069579bcdd451b272fc1c1959af0fd39c5f7cce2f7",
    "profile-mz/profile.gp":
        "adb17e418008a01f239587b1f3612bfe5bc641b9b6212588cdc1d5a5c868a1ce",
    "profile-txx/profile.csv":
        "c99f4b07edc3f1b7b8e052ba6d41a66a7028001f9cbd639c3a70e2ed4f7bdc77",
    "profile-txx/profile.meta":
        "af8dbf0477d14ae9c58862cb69c28f27b73968dc928415d8dace321807b37c39",
    "profile-tzz/profile.csv":
        "6fa90d9ef811b2739197d07bc9409e5e9a6985b1532483cf2fe8b094c53e90fa",
    "profile-tzz/profile.meta":
        "b4a34e9dc80b27dca02f6e7ae3d3352160cd594b9e5ca821d37d57cb704df19b",
    "table1/table1.csv":
        "293b6f5ed097db7af52ba1a95478c23fc06c4a09206e02aad4f723ac9c252ac0",
    "profile-inf-mz/profile.csv":
        "e0907d69a77479de4110b904cf73b9c570a275f0aefb743105f5de6eff3ff8d3",
    "profile-inf-mz/profile.meta":
        "0591ffd695893202b4bba4cb4795639938827f4edec1fff2841b6227d92d4b9e",
    "profile-inf-txx/profile.csv":
        "9e15e6c536157bc170fe107e77a99c5eca8b8e3ed6a3b14548483aacaddb856c",
    "profile-inf-txx/profile.meta":
        "8c792835dc10523dc8471dac419cbe96e9391da891ead3004a35b2727dd6eb8c",
}

# N = infinity values of the graded Gauss-Legendre rule, on a field grid
# across lambda_c = 1: {(observable, gamma, beta_tilde): values at
# INF_LAMS}.  They replaced the adaptive Simpson values (moved by at most
# 6.7e-13) with the N = inf gate of tests/test_inf_gate.py passing.  When the
# mode sum took its own order (a halving fold per slab) in place of numpy's
# pairwise one, 46 of the 55 moved, by at most 5.6e-16; when each part of the
# rule took its own node count, all 55 moved, by at most 2.4e-15, with both
# gate slices passing; when the rule stopped grading toward phi = pi for
# |gamma| <= 1 (negative fields taken by parity), 54 moved, by at most
# 4.4e-16, with both gate slices and every golden digest passing; when it
# graded toward phi = 0 only as deep as each field needs, 20 in 10 keys
# moved, by at most 2.2e-16, with the same checks passing.  Each is within
# 9.1e-16 of a 30-digit mpmath quadrature (8.1e-16 before, 6.9e-16 before
# the parity, 2.8e-15 before the node counts).  Ground-state values must
# match exactly.
INF_LAMS = (0.5, 1.0 - 1e-9, 1.0, 1.0 + 1e-9, 1.5)
INF_VALUES = {
    ("mz", 0.5, math.inf): (0.2966569170938955, 0.7698003459220096, 0.7698003589195015,
                            0.7698003719169946, 0.9613263294091238),
    ("txx", 0.5, math.inf): (-0.8858695842358641, -0.4688067235943326, -0.4688067104290277,
                             -0.4688066972637215, -0.1943315951290348),
    ("tyy", 0.5, math.inf): (-0.12370427366470642, 0.13318057405786693, 0.13318058655191964,
                             0.13318059904597362, 0.1656582921674326),
    ("tzz", 0.5, math.inf): (-0.021580527019898627, 0.6550285211521266, 0.6550285452670072,
                             0.6550285693818899, 0.956340951778468),
    ("g:2", 0.5, math.inf): (-0.0392785354730229, 0.09854809897757554, 0.09854811116528533,
                             0.09854812335299631, 0.07563337803787552),
    ("mz", 1.0, math.inf): (0.25865790461134175, 0.6366197654275645, 0.6366197723675815,
                            0.6366197793075994, 0.8773282152447551),
    ("txx", 1.0, math.inf): (-0.9342154576676944, -0.6366197793075986, -0.6366197723675816,
                             -0.6366197654275636, -0.35593389866906244),
    ("tyy", 1.0, math.inf): (0.03347205359255724, 0.21220658427358977, 0.21220659078919368,
                             0.21220659730479835, 0.2712790183302035),
    ("tzz", 1.0, math.inf): (0.09817402148397843, 0.5403796345809193, 0.5403796460924684,
                             0.5403796576040187, 0.8662621958859328),
    ("g:2", 1.0, math.inf): (0.008518115544334869, 0.12732394812767764, 0.1273239544735163,
                             0.12732396081935562, 0.1319839110586131),
    # np.tanh and math.tanh differ in the last ulp for some arguments
    ("mz", 0.5, 5.0): (0.3284259553675868, 0.7215667382423434, 0.7215667389653592,
                       0.7215667396883749, 0.9373813401389113),
}


# Finite-N values: {(observable, gamma, beta_tilde, N): values at
# FINITE_LAMS}.  Recorded with numpy's row sum over the modes; 15 of the 30
# moved, by at most 2.2e-16, when the mode sum took its own order, with
# both gate slices passing.  All must match exactly; the profile digests
# above would not see a last-bit change of the sums.
FINITE_LAMS = (-1.0, 0.5, 1.0 - 1e-9, 1.0, 1.5)
FINITE_VALUES = {
    ("mz", 0.5, math.inf, 14): (-0.6929808628551268, 0.43937267400205965,
                                0.8358380050155196, 0.8358380057122696,
                                0.9613496151460343),
    ("mz", 0.5, 5.0, 40): (-0.696569008858794, 0.3746054074346793, 0.7465644684113966,
                           0.7465644690719236, 0.941174062808009),
    ("txx", 0.5, math.inf, 40): (-0.44380711656591726, -0.8858695842702263,
                                 -0.4938071180853264, -0.49380711656591725,
                                 -0.24433159512405284),
    ("tzz", 0.5, math.inf, 40): (0.6233716381839033, 0.010585164683707321,
                                 0.6834392489808713, 0.6834392513863872,
                                 0.9524072866352579),
    ("tzz", 1.0, math.inf, 1000): (0.5395290440454195, 0.09921265310242403,
                                   0.5412266895855486, 0.541226692582938,
                                   0.8660888861252544),
    ("g:3", 0.5, math.inf, 1000): (0.07792618489532188, -0.0055349484900751806,
                                   0.07592618251411497, 0.07592618489532188,
                                   0.03395753645239499),
}


def digests(tmp_path, name):
    argv, files = RUNS[name]
    out = tmp_path / name
    assert cli.main([*argv, "--out", str(out)]) == 0
    return {
        f"{name}/{f}": hashlib.sha256((out / f).read_bytes()).hexdigest() for f in files
    }


@pytest.mark.parametrize("name", sorted(RUNS))
def test_golden_output_bytes(tmp_path, capsys, name):
    got = digests(tmp_path, name)
    capsys.readouterr()
    assert got == {key: GOLDEN[key] for key in got}


# table1 with a fit window beside the transition, so that some profile and
# some cell fits fail: its warning count and the sha256 of its sorted
# warning lines, recorded when each observable had its own sampling pass.
# The joint pass may print them in another order, but prints every one.
WARNING_ARGS = ["table1", "--n-sites", "14", "--n-sites", "16", "--n-sites", "18",
                "--a", "0.5", "--b", "1.5", "--w", "0.05", "--epsilon", "2e-2",
                "--n", "500", "--jobs", "1", "--fit-window", "1.2,1.5"]
WARNING_LINES = (18, "b53c52bfb286990c89d80074b7f463a6e30e6de1ba06908de058448c24463f55")


def test_table1_prints_every_warning(tmp_path, capsys):
    assert cli.main([*WARNING_ARGS, "--out", str(tmp_path)]) == 0
    lines = sorted(capsys.readouterr().err.splitlines())
    digest = hashlib.sha256(("\n".join(lines) + "\n").encode()).hexdigest()
    assert (len(lines), digest) == WARNING_LINES


@pytest.mark.parametrize("key", sorted(INF_VALUES, key=repr))
def test_pinned_infinite_chain_values(key):
    name, gamma, beta_tilde = key
    curve = ObservableCurve(ObservableKind.parse(name), gamma, beta_tilde)
    got = curve(np.array(INF_LAMS))
    want = np.array(INF_VALUES[key])
    if math.isinf(beta_tilde):
        assert got.tolist() == want.tolist()
    else:
        assert np.abs(got - want).max() <= 1e-12


@pytest.mark.parametrize("key", sorted(FINITE_VALUES, key=repr))
def test_pinned_finite_chain_values(key):
    name, gamma, beta_tilde, size = key
    curve = ObservableCurve(ObservableKind.parse(name), gamma, beta_tilde, size)
    assert curve(np.array(FINITE_LAMS)).tolist() == list(FINITE_VALUES[key])
