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
# 6.7e-13; each is within 3.1e-15 of a 30-digit mpmath quadrature) with the
# N = inf gate of tests/test_inf_gate.py passing.  Ground-state values must
# match exactly.
INF_LAMS = (0.5, 1.0 - 1e-9, 1.0, 1.0 + 1e-9, 1.5)
INF_VALUES = {
    ("mz", 0.5, math.inf): (0.2966569170938958, 0.7698003459220102, 0.7698003589195023,
                            0.7698003719169955, 0.9613263294091249),
    ("txx", 0.5, math.inf): (-0.885869584235865, -0.4688067235943331, -0.46880671042902816,
                             -0.46880669726372187, -0.194331595129035),
    ("tyy", 0.5, math.inf): (-0.12370427366470686, 0.1331805740578672, 0.13318058655191994,
                             0.1331805990459739, 0.16565829216743305),
    ("tzz", 0.5, math.inf): (-0.021580527019898973, 0.6550285211521277, 0.6550285452670086,
                             0.6550285693818916, 0.9563409517784702),
    ("g:2", 0.5, math.inf): (-0.03927853547302356, 0.09854809897757588, 0.09854811116528564,
                             0.09854812335299662, 0.07563337803787576),
    ("mz", 1.0, math.inf): (0.25865790461134214, 0.6366197654275652, 0.6366197723675824,
                            0.6366197793076003, 0.8773282152447561),
    ("txx", 1.0, math.inf): (-0.9342154576676958, -0.6366197793075996, -0.6366197723675824,
                             -0.6366197654275645, -0.35593389866906333),
    ("tyy", 1.0, math.inf): (0.033472053592557574, 0.21220658427359018, 0.21220659078919418,
                             0.21220659730479874, 0.27127901833020385),
    ("tzz", 1.0, math.inf): (0.09817402148397897, 0.5403796345809206, 0.5403796460924699,
                             0.5403796576040203, 0.8662621958859349),
    ("g:2", 1.0, math.inf): (0.008518115544335264, 0.12732394812767786, 0.12732395447351652,
                             0.12732396081935587, 0.13198391105861312),
    # np.tanh and math.tanh differ in the last ulp for some arguments
    ("mz", 0.5, 5.0): (0.328425955367587, 0.7215667382423442, 0.7215667389653599,
                       0.7215667396883758, 0.9373813401389123),
}


# Finite-N values recorded with the unchunked momentum sum: {(observable,
# gamma, beta_tilde, N): values at FINITE_LAMS}.  All must match exactly;
# the profile digests above would not see a last-bit change of the sums.
FINITE_LAMS = (-1.0, 0.5, 1.0 - 1e-9, 1.0, 1.5)
FINITE_VALUES = {
    ("mz", 0.5, math.inf, 14): (-0.6929808628551268, 0.43937267400205965,
                                0.8358380050155195, 0.8358380057122697,
                                0.9613496151460343),
    ("mz", 0.5, 5.0, 40): (-0.696569008858794, 0.37460540743467935, 0.7465644684113966,
                           0.7465644690719236, 0.941174062808009),
    ("txx", 0.5, math.inf, 40): (-0.44380711656591726, -0.8858695842702263,
                                 -0.4938071180853264, -0.49380711656591725,
                                 -0.2443315951240529),
    ("tzz", 0.5, math.inf, 40): (0.6233716381839033, 0.010585164683707363,
                                 0.6834392489808713, 0.6834392513863871,
                                 0.9524072866352579),
    ("tzz", 1.0, math.inf, 1000): (0.5395290440454193, 0.09921265310242403,
                                   0.5412266895855488, 0.5412266925829379,
                                   0.8660888861252541),
    ("g:3", 0.5, math.inf, 1000): (0.07792618489532192, -0.0055349484900751875,
                                   0.07592618251411495, 0.07592618489532191,
                                   0.03395753645239495),
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
