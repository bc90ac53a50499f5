"""Golden-bytes gate: a small fixed set of CLI runs must reproduce their
output files exactly.

The digests are sha256 of each written file.  A change that moves an
output bit fails here; rebaselining a digest belongs in a change that
records why the bytes moved (with the profile extrema, lambda_c^N and q
shown to agree at tolerance level).
"""

import hashlib

import pytest

from benfordxy import cli

PROFILE_ARGS = ["--n-sites", "14", "--a", "0.5", "--b", "1.5", "--w", "0.05",
                "--epsilon", "5e-3", "--n", "2500", "--jobs", "1"]
TABLE1_ARGS = ["--n-sites", "14", "--n-sites", "16", "--n-sites", "18",
               "--a", "0.5", "--b", "1.5", "--w", "0.05", "--epsilon", "1e-2",
               "--n", "2500", "--jobs", "1"]

RUNS = {
    "profile-mz": (["profile", "--observable", "mz", "--k", "2", "--distance", "sd",
                    "--emit-plot", *PROFILE_ARGS],
                   ("profile.csv", "profile.meta", "profile.gp")),
    "profile-txx": (["profile", "--observable", "txx", *PROFILE_ARGS],
                    ("profile.csv", "profile.meta")),
    "table1": (["table1", *TABLE1_ARGS], ("table1.csv",)),
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
    "table1/table1.csv":
        "293b6f5ed097db7af52ba1a95478c23fc06c4a09206e02aad4f723ac9c252ac0",
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
