"""The benchmark's traced runs against the current program.

`perfbench/tracer.py` wraps names of the program by hand (for instance
`xy_model.integrate`, `quadrature.QuadratureError`, `benford.digit_keys`
and `windows.ProcessPoolExecutor`, which `windows` resolves on its first
read, so the pool counter's read is what imports the pool), and the
benchmark's own tests are not part of this suite.  So a rename here could
pass every test below `tests/` and still break `perfbench/run.py`.  Each
test runs one small command under `perfbench/child.py`'s trace or pool
mode, as the benchmark does, and checks the spans or counters it leaves.
Each command line the benchmark runs must also pass the CLI's parsers:
every command's, and the one `cli.main` builds for it.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from benfordxy import cli
from benfordxy.windows import default_jobs

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
SPAN_TOL_S = 1e-3  # the benchmark's tolerance on the self-time sum

_spec = importlib.util.spec_from_file_location("bench_tracer", BENCH / "tracer.py")
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)
_spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
bench_run = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = bench_run  # its dataclasses look up their module
_spec.loader.exec_module(bench_run)

COMMANDS = {
    "profile-inf": (
        ["profile", "--n-sites", "inf", "--a", "0.96", "--b", "1.04", "--w", "0.02",
         "--epsilon", "0.01", "--n", "100", "--jobs", "1"],
        ("xy_model", "quadrature", "benford.digit_keys", "benford.distance", "windows"),
    ),
    "table1": (
        ["table1", "--n-sites", "14,16,18", "--a", "0.5", "--b", "1.5", "--w", "0.05",
         "--epsilon", "0.02", "--n", "1000", "--jobs", "1"],
        ("xy_model", "benford.digit_keys", "benford.distance", "scaling.cubic_fit",
         "scaling.scaling_fit"),
    ),
}


def _child(mode, argv, tmp_path) -> dict:
    """The result record of one `child.py` run of argv in mode."""
    result = tmp_path / "result.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run(
        [sys.executable, str(BENCH / "child.py"), str(result), mode, "--",
         *argv, "--out", str(tmp_path / "out")],
        cwd=tmp_path, env=env, check=True, capture_output=True, timeout=300,
    )
    return json.loads(result.read_text())


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_traced_run_closes_its_spans_and_reaches_every_layer(name, tmp_path):
    argv, layers = COMMANDS[name]
    record = _child("trace", argv, tmp_path)
    assert record["rc"] == 0
    dump = record["trace"]
    assert tracer.check_spans(dump, record["wall_s"], SPAN_TOL_S) == []
    spans = tracer.by_name(dump)
    for layer in layers:
        calls, seconds = spans.get(layer, (0, 0.0))
        assert calls > 0 and seconds > 0.0, layer
    metrics = tracer.layer_metrics(dump)
    assert metrics["benford.keys"] > 0
    if name == "table1":  # 48 windows x 3 sizes x 16 combos, each one call
        assert metrics["benford.distance_calls"] == 48 * 3 * 16
    if "quadrature" in layers:
        assert metrics["quadrature.calls"] > 0
        assert metrics["quadrature.integrand_evals"] == metrics["quadrature.calls"]
        assert metrics["quadrature.errors"] == 0


@pytest.mark.skipif(default_jobs() < 2, reason="a pool needs two usable cores")
def test_pool_run_counts_its_pool(tmp_path):
    # `table1-coarse` runs in pool mode, which replaces
    # windows.ProcessPoolExecutor with a counting subclass: the traced
    # table1 command, on two workers
    argv = [*COMMANDS["table1"][0][:-2], "--jobs", "2"]
    record = _child("pool", argv, tmp_path)
    assert record["rc"] == 0
    assert record["trace"]["counters"]["windows.pool_starts"] >= 1


def test_every_benchmark_argv_parses(tmp_path):
    # `child.py` resolves each argv with every command's parser before it
    # times anything, and the timed `cli.main` with only the parser of the
    # command the argv names, so a flag either stops taking fails here, not
    # as a failed run
    for table in (bench_run.WORKLOADS, bench_run.TINY):
        for workload in table.values():
            for seed in (0, 1, 2):
                _, argv, _ = workload.seeded(seed)
                for form in (argv, bench_run.serial(argv)):
                    form = [*form, "--out", str(tmp_path)]
                    assert form[0] in cli.COMMANDS
                    for parser in (cli.build_parser(), cli.build_parser(form[0])):
                        cli.resolve_config(parser.parse_args(form))
