"""N = infinity slice of the tolerance gate (tests/gate.py): joint M_z +
T_xx profiles on 61 windows across lambda = 1 against
tests/data/inf_profiles.json."""

import json

import numpy as np

from gate import gate_mismatches, load, reference_profiles


def test_inf_profiles_within_gate():
    assert gate_mismatches(load("inf"), reference_profiles("inf")) == []


def test_gate_refuses_moved_science():
    # Each planted change of the reference must be caught on its own.
    ref = load("inf")
    assert gate_mismatches(ref, ref) == []

    def planted(change):
        got = json.loads(json.dumps(ref))
        change(got["mz"]["4,md"])
        return gate_mismatches(ref, got)

    def nudge(prof, windows, rel):
        for i in windows:
            prof["deltas"][i] *= 1.0 + rel

    def swap_extremum(prof):
        d = prof["deltas"]
        lo = int(np.argmin(d))
        d[lo] = max(d) * 2.0

    def shift_lambda_c(prof):
        prof["lambda_c"] += 1e-7

    assert planted(lambda p: nudge(p, [5], 1e-4)) == []
    assert planted(lambda p: nudge(p, [5], 2e-3))
    assert planted(lambda p: nudge(p, [5, 6], 1e-4))
    assert planted(swap_extremum)
    assert planted(shift_lambda_c)
