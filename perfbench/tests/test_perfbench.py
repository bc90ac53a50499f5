"""Self-tests of the benchmark: smoke runs, oracle negatives, span arithmetic.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from benfordxy import windows, xy_model  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_tiny_run_emits_every_named_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "profile-n40", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


# ------------------------------------------------------------ oracle negatives


TINY = run.TINY["profile-n40"]


def _profile_output(tmp_path: Path, corrupt=None) -> dict:
    """A record as the runner returns it, for a tiny profile the program made."""
    curve = xy_model.ObservableCurve(xy_model.ObservableKind.parse("mz"), gamma=0.5, size=40)
    spec = windows.WindowSpec(TINY.a, TINY.b, TINY.w, TINY.epsilon, TINY.n)
    text = windows.profile_csv_text(windows.profile(curve, spec, 1, "md"))
    if corrupt is not None:
        text = corrupt(text)
    out = tmp_path / "out"
    out.mkdir()
    (out / "profile.csv").write_text(text)
    return {"rc": 0, "out_dir": out, "spawned": 0.0, "setup_done": 0.5, "setup_s": 0.5,
            "run_start": 0.5, "run_end": 1.5, "wall_s": 1.0, "user_s": 1.0, "sys_s": 0.0,
            "peak_rss_mb": 80.0}


class _Replay:
    def __init__(self, record):
        self.record = record

    def spawn(self, mode, argv):
        return self.record


class _SteadyCore:
    def factors(self, start, end):
        return 1.0, 1.0


def _measure(record, gamma=0.5):
    checker = run.Checker(TINY, gamma, seed=7, reference=None)
    attempted, failed, metrics = run.measure(TINY, [], _Replay(record), checker, 0,
                                             _SteadyCore())
    return attempted, failed, checker.errors


def test_program_output_passes(tmp_path):
    assert _measure(_profile_output(tmp_path)) == (1, 0, [])


def _scale_delta(factor, pick):
    """Corrupt the delta of the row `pick` chooses from the deltas."""

    def corrupt(text):
        lines = text.splitlines()
        deltas = [float(line.split(",")[1]) for line in lines[1:]]
        row = 1 + pick(deltas)
        lam, delta = lines[row].split(",")
        lines[row] = f"{lam},{float(delta) * factor!r}"
        return "\n".join(lines) + "\n"

    return corrupt


@pytest.mark.parametrize("corrupt", [
    _scale_delta(1.001, lambda d: int(np.argmax(d))),  # a recounted window, off by 0.1 %
    _scale_delta(-1.0, lambda d: 3),  # a negative delta
    lambda text: "".join(text.splitlines(keepends=True)[:-1]),  # a dropped row
])
def test_corrupted_profile_is_rejected_and_counted(tmp_path, corrupt):
    attempted, failed, errors = _measure(_profile_output(tmp_path, corrupt=corrupt))
    assert (attempted, failed) == (1, 1) and errors


def test_wrong_observable_is_rejected(tmp_path):
    # the output was made at gamma = 0.5; an oracle at 0.52 must disagree
    attempted, failed, errors = _measure(_profile_output(tmp_path), gamma=0.52)
    assert (attempted, failed) == (1, 1) and errors


def test_value_tolerance_admits_last_bits_but_not_science():
    lams = np.linspace(0.9, 1.1, 1001)
    exact = oracle.momentum_sum("mz", lams, 0.5, 40)
    assert oracle.check_values("mz", lams, exact + 5.6e-16, 0.5, 40) == []
    assert oracle.check_values("mz", lams, exact + 1e-9, 0.5, 40)
    assert oracle.check_values("mz", lams, oracle.momentum_sum("mz", lams, 0.51, 40), 0.5, 40)
    assert oracle.check_values("mz", lams, oracle.momentum_sum("txx", lams, 0.5, 40), 0.5, 40)


def test_oracle_matches_program_observables_and_digits():
    lams = np.linspace(0.95, 1.0, 2500)
    for name in ("mz", "txx"):
        curve = xy_model.ObservableCurve(xy_model.ObservableKind.parse(name), gamma=0.5, size=14)
        values = curve(lams)
        assert oracle.check_values(name, lams, values, 0.5, 14) == []
        deltas = {
            (k, d): windows.window_violation(curve, (lams[0], lams[-1]), lams.size, k, d)
            for k in (1, 2, 3, 4) for d in ("md", "sd", "bd")
        }
        assert oracle.check_window(values, deltas) == []
        wrong = {key: v * (1 + 1e-6) for key, v in deltas.items()}
        assert len(oracle.check_window(values, wrong)) == len(wrong)
    inf_curve = xy_model.ObservableCurve(xy_model.ObservableKind.parse("mz"), gamma=0.5)
    few = np.array([0.9, 1.0, 1.1])
    assert oracle.check_values("mz", few, inf_curve(few), 0.5, None) == []


def test_table1_blank_converged_cell_is_rejected():
    header = oracle.table1_header()
    full = ",".join(["1.9", "0.001"] * 4)
    rows = [f"{k},{full}" for k in (1, 2, 3, 4)]
    assert oracle.check_table1("\n".join([header] + rows) + "\n", None, False) == []
    rows[2] = "3," + ",".join(["", ""] + ["1.9", "0.001"] * 3)
    assert oracle.check_table1("\n".join([header] + rows) + "\n", None, False)


def test_table1_q_is_checked_against_the_reference_at_any_seed():
    ref = json.loads((BENCH / "reference.json").read_text())["table1-coarse"]

    def table(shift):
        rows = [oracle.table1_header()]
        for k in (1, 2, 3, 4):
            cells = []
            for obs, d in oracle.TABLE1_COLUMNS:
                q = ref["q"].get(f"{obs}/{d}/k={k}")
                cells += ["", ""] if q is None else [repr(q + shift), "0.001"]
            rows.append(",".join([str(k)] + cells))
        return "\n".join(rows) + "\n"

    assert oracle.check_table1(table(0.0), ref, exact=True) == []
    assert oracle.check_table1(table(0.02), ref, exact=True)
    assert oracle.check_table1(table(0.2), ref, exact=False) == []
    assert oracle.check_table1(table(-0.6), ref, exact=False)


# ------------------------------------------------------------ core speed


def _probe(*per_core):
    """A probe whose cores took the given kernel times and had the given
    steal counters at t = 0, 1, 2, ..."""
    probe = run.SpeedProbe(range(len(per_core)))
    for cpu, (kernel_s, steal_s) in enumerate(per_core):
        probe.samples[cpu] = [(float(t), k, st) for t, (k, st) in enumerate(zip(kernel_s, steal_s))]
    return probe


def test_speed_factor_is_the_median_probe_time_inside_the_interval():
    ref = run.PROBE_REF_S
    # the core halves its speed at t = 10; nothing is stolen
    probe = _probe(([ref] * 10 + [2 * ref] * 10, [0.0] * 20))
    assert probe.factors(0.0, 9.0) == (1.0, 1.0)
    assert probe.factors(10.0, 19.0) == (0.5, 0.5)
    # an interval with too few samples borrows the nearest ones
    assert probe.factors(14.2, 14.4) == (0.5, 0.5)
    assert probe.factors(1.5, 1.6) == (1.0, 1.0)


def test_stolen_time_counts_against_wall_time_only():
    ref = run.PROBE_REF_S
    # from t = 10 the host takes a quarter of every second
    probe = _probe(([ref] * 20, [0.0] * 10 + [0.25 * t for t in range(10)]))
    assert probe.factors(0.0, 9.0) == (1.0, 1.0)
    assert probe.factors(10.0, 19.0) == (0.75, 1.0)


def test_speed_factor_of_several_cores_is_their_mean_speed():
    ref = run.PROBE_REF_S
    probe = _probe(([ref] * 20, [0.0] * 20), ([ref] * 10 + [4 * ref] * 10, [0.0] * 20))
    assert probe.factors(0.0, 9.0) == (1.0, 1.0)
    assert probe.factors(10.0, 19.0) == (0.625, 0.625)


def test_probe_samples_every_core_while_running():
    cpus = sorted(os.sched_getaffinity(0))
    with run.SpeedProbe(cpus) as probe:
        t0 = time.monotonic()
        time.sleep(0.2)
        t1 = time.monotonic()
    assert all(len(probe.samples[cpu]) >= run.PROBE_MIN_SAMPLES for cpu in cpus)
    wall_f, cpu_f = probe.factors(t0, t1)
    assert 0 < wall_f <= cpu_f < 10


# ------------------------------------------------------------ span arithmetic


def test_nested_span_self_times_sum_to_the_root():
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 9.0, 10.0])
    t = tracer.Tracer(clock=lambda: next(ticks))
    leaf = t.wrap("leaf", lambda: None)
    mid = t.wrap("mid", lambda: leaf())
    other = t.wrap("other", lambda: None)

    def body():
        mid()  # opens at 1, leaf 2..3, closes at 4
        other()  # 5..9

    t.wrap("root", body)()  # 0..10
    dump = t.dump()
    assert tracer.self_times(dump) == [3.0, 2.0, 1.0, 4.0]
    assert tracer.by_name(dump) == {
        "root": (1, 3.0), "mid": (1, 2.0), "leaf": (1, 1.0), "other": (1, 4.0)
    }
    assert tracer.root_wall(dump) == sum(tracer.self_times(dump)) == 10.0
    assert tracer.check_spans(dump, 10.0, 1e-3) == []


def _spans(*spans):
    """A dump from (name, parent, start, end) tuples."""
    names, parents, starts, ends = (list(col) for col in zip(*spans))
    return {"names": names, "parents": parents, "starts": starts, "ends": ends,
            "counters": {}}


@pytest.mark.parametrize("dump, wall_s", [
    # the command took longer than its root span covers
    (_spans(("root", -1, 0.0, 10.0), ("leaf", 0, 2.0, 3.0)), 12.0),
    # a span left open
    (_spans(("root", -1, 0.0, 10.0), ("leaf", 0, 2.0, float("nan"))), 10.0),
    # a span that ends before it starts
    (_spans(("root", -1, 0.0, 10.0), ("leaf", 0, 3.0, 2.0)), 10.0),
    # a child attributed to a parent whose interval does not hold it
    (_spans(("root", -1, 0.0, 10.0), ("mid", 0, 1.0, 4.0), ("leaf", 1, 5.0, 9.0)), 10.0),
    # siblings that overlap, so their time is counted twice
    (_spans(("root", -1, 0.0, 10.0), ("a", 0, 1.0, 6.0), ("b", 0, 5.0, 9.0)), 10.0),
])
def test_inconsistent_spans_are_rejected(dump, wall_s):
    assert tracer.check_spans(dump, wall_s, 1e-3)
