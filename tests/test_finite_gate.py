"""Finite-N slice of the tolerance gate (tests/gate.py): joint M_z + T_xx
profiles at N = 14, 20 and 40 on 191 windows each, and q of their
fixed-mode scaling fits, against tests/data/finite_profiles.json."""

import json

from gate import finite_mismatches, load, reference_profiles


def test_finite_profiles_within_gate():
    assert finite_mismatches(load("finite"), reference_profiles("finite")) == []


def test_finite_gate_refuses_moved_science():
    # Each planted change of the reference must be caught on its own: the
    # N = inf slice's moves at one size, a shifted lambda_c^N, a shifted q.
    ref = load("finite")
    assert finite_mismatches(ref, ref) == []
    profile = ref["sizes"]["20"]["mz"]["4,md"]
    assert profile["lambda_c"] is not None and ref["q"]["mz"]["4,md"] is not None
    allowed = max(1, len(ref["sizes"]["20"]["lambdas"]) // 50)

    def planted(change):
        got = json.loads(json.dumps(ref))
        change(got)
        return finite_mismatches(ref, got)

    def nudge(windows, rel):
        def change(got):
            deltas = got["sizes"]["20"]["mz"]["4,md"]["deltas"]
            for i in windows:
                deltas[i] *= 1.0 + rel
        return change

    def swap_extremum(got):
        d = got["sizes"]["20"]["mz"]["4,md"]["deltas"]
        d[d.index(min(d))] = max(d) * 2.0

    def shift_lambda_c(got):
        got["sizes"]["20"]["mz"]["4,md"]["lambda_c"] += 1e-7

    def shift_q(got):
        got["q"]["mz"]["4,md"] += 2e-6

    def drop_q(got):
        got["q"]["txx"]["1,md"] = None

    assert planted(nudge(range(allowed), 1e-4)) == []
    assert planted(nudge([5], 2e-3))
    assert planted(nudge(range(allowed + 1), 1e-4))
    assert planted(swap_extremum)
    assert planted(shift_lambda_c)
    assert planted(shift_q)
    assert planted(drop_q)
