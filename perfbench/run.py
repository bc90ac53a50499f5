"""Benchmark of the benfordxy CLI: three workloads, end-to-end and per-layer.

    python3 perfbench/run.py --workload profile-n40 --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
`src/`.  Every measured command runs in a fresh interpreter
(`perfbench/child.py`) with BLAS threads pinned to 1.  Outputs go to
`.bench_run/` in the checkout and are checked by `perfbench/oracle.py`.

With `--trace 0` the workload's command repeats until `--seconds` have
passed and the last stdout line reports the end-to-end metrics: the median
over the commands of each time, scaled to undisturbed cores by a probe
that times a small kernel on the cores the command runs on.  With
`--trace 1` the command runs once untraced (with a parent-side pool
counter), once untraced and serial when the workload uses a pool, and once
serial with spans around every module entry point (`perfbench/tracer.py`);
the last line reports the per-layer metrics.
See perfbench/README.md for the workloads and what each metric predicts.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"
REFERENCE = HERE / "reference.json"

DEFAULT_SEED = 0  # reproduces each workload's command exactly
CHILD_TIMEOUT = 150.0
# set-up-only interpreters timed before each command: a table1 run holds
# only two commands, too few set-up samples on their own
SETUP_PER_COMMAND = 1
SPAN_TOL_S = 1e-3  # traced self times vs the command's own wall time
GAMMA = 0.5
PROBE_INTERVAL_S = 0.02  # pause between two timings of the probe kernel
PROBE_MIN_SAMPLES = 5
# The probe kernel's time on an undisturbed core of a 2-vCPU Intel Xeon VM,
# so that scaled times read as seconds at that speed.  Only a constant.
PROBE_REF_S = 3.6e-4


@dataclass(frozen=True)
class Workload:
    """A CLI command plus the geometry the oracle checks its output against."""

    name: str
    argv: tuple  # the command at the default seed
    sizes: tuple  # system sizes; None is N = infinity
    a: float
    b: float
    w: float
    epsilon: float
    n: int
    jobs: int

    def seeded(self, seed: int) -> tuple["Workload", list, float]:
        """(workload with the drawn sweep, CLI argv, gamma) for a seed.

        Any other seed shifts the sweep [a, b] by at most one window shift
        epsilon, which keeps the window count, and draws gamma within
        +-0.05 of 0.5; the program sees only flags.
        """
        if seed == DEFAULT_SEED:
            return self, list(self.argv), GAMMA
        rng = random.Random(seed)
        shift = rng.uniform(-self.epsilon, self.epsilon)
        a, b = self.a + shift, self.b + shift
        gamma = GAMMA + rng.uniform(-0.05, 0.05)
        argv = _drop_flag(_drop_flag(list(self.argv), "--a"), "--b")
        argv += ["--a", repr(a), "--b", repr(b), "--gamma", repr(gamma)]
        return dataclasses.replace(self, a=a, b=b), argv, gamma

    @property
    def windows(self) -> int:
        """Windows sampled by one run of the command."""
        count = math.floor((self.b - self.a - self.w) / self.epsilon + 1e-9) + 1
        observables = 2 if self.argv[0] == "table1" else 1
        return count * len(self.sizes) * observables


def _drop_flag(argv: list, flag: str) -> list:
    if flag in argv:
        i = argv.index(flag)
        del argv[i : i + 2]
    return argv


def serial(argv: list) -> list:
    return _drop_flag(list(argv), "--jobs") + ["--jobs", "1"]


COARSE = dict(a=0.5, b=1.5, w=0.05, epsilon=1e-3, n=10000)
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "profile-n40",
            ("profile", "--n-sites", "40", "--k", "1", "--distance", "md", "--coarse",
             "--jobs", "1"),
            sizes=(40,), jobs=1, **COARSE,
        ),
        Workload(
            "table1-coarse",
            ("table1", "--coarse", "--jobs", "2",
             "--n-sites", "14", "--n-sites", "20", "--n-sites", "40"),
            sizes=(14, 20, 40), jobs=2, **COARSE,
        ),
        Workload(
            "profile-inf",
            ("profile", "--n-sites", "inf", "--a", "0.8", "--b", "1.2", "--w", "0.1",
             "--epsilon", "0.02", "--n", "200", "--jobs", "1"),
            sizes=(None,), a=0.8, b=1.2, w=0.1, epsilon=0.02, n=200, jobs=1,
        ),
    )
}

# Small geometries with the same code paths, for the benchmark's self-tests.
TINY = {
    "profile-n40": dataclasses.replace(
        WORKLOADS["profile-n40"],
        argv=WORKLOADS["profile-n40"].argv + ("--a", "0.9", "--b", "1.1", "--w", "0.05",
                                              "--epsilon", "0.01", "--n", "2500"),
        a=0.9, b=1.1, w=0.05, epsilon=0.01, n=2500,
    ),
    "table1-coarse": dataclasses.replace(
        WORKLOADS["table1-coarse"],
        argv=("table1", "--jobs", "2", "--n-sites", "14", "--n-sites", "16",
              "--n-sites", "18", "--a", "0.5", "--b", "1.5", "--w", "0.05",
              "--epsilon", "0.01", "--n", "2500"),
        sizes=(14, 16, 18), a=0.5, b=1.5, w=0.05, epsilon=0.01, n=2500,
    ),
    "profile-inf": dataclasses.replace(
        WORKLOADS["profile-inf"],
        argv=("profile", "--n-sites", "inf", "--a", "0.96", "--b", "1.04", "--w",
              "0.02", "--epsilon", "0.01", "--n", "100", "--jobs", "1"),
        a=0.96, b=1.04, w=0.02, epsilon=0.01, n=100,
    ),
}

# metric name -> unit, for --trace 0 and --trace 1
_SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}


# ---------------------------------------------------------------- processes


class Runner:
    """Spawns measured interpreters into one run directory."""

    def __init__(self, run_dir: Path):
        self.run_dir = run_dir
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = "1"
        self.env["TMPDIR"] = str(run_dir / "tmp")
        (run_dir / "tmp").mkdir(parents=True, exist_ok=True)
        self.spawned = 0

    def spawn(self, mode: str, argv: list) -> dict | None:
        """Run child.py; its result record plus `setup_s` and `out_dir`,
        or None when the interpreter failed or overran."""
        tag = f"{self.spawned:03d}-{mode}"
        self.spawned += 1
        result = self.run_dir / f"{tag}.json"
        out_dir = self.run_dir / f"out-{tag}"
        cmd = [sys.executable, str(HERE / "child.py"), str(result), mode, "--",
               *argv, "--out", str(out_dir)]
        t_spawn = time.monotonic()
        with open(self.run_dir / f"{tag}.log", "w") as log:
            proc = subprocess.Popen(cmd, cwd=self.run_dir, env=self.env, stdout=log,
                                    stderr=subprocess.STDOUT, start_new_session=True)
            try:
                proc.wait(timeout=CHILD_TIMEOUT)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                return None
        if proc.returncode != 0 or not result.exists():
            return None
        with open(result) as fh:
            record = json.load(fh)
        record["spawned"] = t_spawn
        record["setup_s"] = record["setup_done"] - t_spawn
        record["out_dir"] = out_dir
        return record


# ---------------------------------------------------------------- core speed


def _probe_kernel() -> float:
    total = 0.0
    for i in range(3000):
        total += math.cos(i * 1e-3)
    return total


def _steal_s(cpu: int) -> float:
    """Seconds the host has kept `cpu` from running this VM (its steal
    time; 0 where /proc/stat does not report it)."""
    try:
        with open("/proc/stat") as fh:
            for line in fh:
                if line.startswith(f"cpu{cpu} "):
                    return int(line.split()[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        pass
    return 0.0


class SpeedProbe:
    """Gauges how fast each core the commands run on is running.

    The host lends each vCPU's physical core to other tenants in phases of
    seconds to minutes, which slows a command by up to 2x and, unlike
    steal, shows in its CPU time too; the vCPUs vary independently.  One
    thread per core, pinned to it, times a fixed pure-Python kernel every
    PROBE_INTERVAL_S and reads the core's steal time, so it sees the same
    phases at the same moments as the command; `factors` turns them into
    the command's time on undisturbed cores.
    """

    def __init__(self, cpus):
        # per core: (monotonic stamp, kernel seconds, steal seconds so far)
        self.samples: dict[int, list[tuple]] = {cpu: [] for cpu in cpus}
        self._stop = threading.Event()
        self._threads = [
            threading.Thread(target=self._loop, args=(cpu,), daemon=True) for cpu in cpus
        ]

    def __enter__(self):
        for thread in self._threads:
            thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        for thread in self._threads:
            thread.join()

    def _loop(self, cpu: int):
        os.sched_setaffinity(0, {cpu})  # this thread only
        samples = self.samples[cpu]
        while not self._stop.is_set():
            t0 = time.monotonic()
            _probe_kernel()
            samples.append((t0, time.monotonic() - t0, _steal_s(cpu)))
            self._stop.wait(PROBE_INTERVAL_S)

    def cores(self, start: float, end: float) -> list[tuple[float, float]]:
        """Per core over [start, end]: (speed, share of the time stolen).

        Speed is PROBE_REF_S over the median kernel time in the interval,
        or at the samples nearest to it when the interval holds too few.
        """
        out = []
        for samples in self.samples.values():
            samples = samples[:]
            inside = [s for s in samples if start <= s[0] <= end]
            stolen = 0.0
            if len(inside) >= 2:
                first, last = inside[0], inside[-1]
                stolen = min(max((last[2] - first[2]) / (last[0] - first[0]), 0.0), 1.0)
            if len(inside) < PROBE_MIN_SAMPLES:
                mid = (start + end) / 2
                inside = sorted(samples, key=lambda s: abs(s[0] - mid))[:PROBE_MIN_SAMPLES]
            out.append((PROBE_REF_S / statistics.median(s[1] for s in inside), stolen))
        return out

    def factors(self, start: float, end: float) -> tuple[float, float]:
        """(wall, cpu): the share of an undisturbed core's work the cores
        did in [start, end] per second of wall time and per second of CPU
        time, averaged over the cores because work spread over several
        cores advances at their summed rate.  A time multiplied by its
        factor is the time it would take on undisturbed cores.  Stolen time
        counts against wall time only: the kernel already leaves it out of
        CPU time."""
        cores = self.cores(start, end)
        return (statistics.fmean(speed * (1.0 - stolen) for speed, stolen in cores),
                statistics.fmean(speed for speed, _ in cores))


def pin(workload: Workload) -> list[int]:
    """Pin this process, and so the interpreters it spawns, to as many
    cores as the workload runs processes at once, and return them: the
    probe must watch exactly the cores the command runs on."""
    cpus = sorted(os.sched_getaffinity(0))[-workload.jobs:]
    os.sched_setaffinity(0, cpus)
    return cpus


# ---------------------------------------------------------------- checking


class Checker:
    """Oracle verdicts per distinct output, so repeated identical outputs
    are verified once and compared byte for byte after that."""

    def __init__(self, workload: Workload, gamma: float, seed: int, reference: dict | None):
        import oracle  # numpy and scipy load after the program check

        self.oracle = oracle
        self.workload = workload
        self.gamma = gamma
        self.rng = random.Random(seed)
        self.reference = reference  # seed-commit outputs at the default seed
        self.exact = seed == DEFAULT_SEED  # else only the q band of table1 applies
        self.verdicts: dict[str, list[str]] = {}
        self.errors: list[str] = []

    def check(self, record: dict | None) -> bool:
        if record is None:
            self.errors.append("command did not finish")
            return False
        if record["rc"] != 0:
            self.errors.append(f"command exited {record['rc']}")
            return False
        name = "table1.csv" if self.workload.argv[0] == "table1" else "profile.csv"
        try:
            text = (record["out_dir"] / name).read_text()
        except OSError as exc:
            self.errors.append(str(exc))
            return False
        digest = hashlib.sha256(text.encode()).hexdigest()
        if digest not in self.verdicts:
            if self.verdicts:
                self.errors.append("output differs from the previous command's")
            self.verdicts[digest] = (
                self._table1(text) if name == "table1.csv" else self._profile(text)
            )
            self.errors += self.verdicts[digest]
        return not self.verdicts[digest] and len(self.verdicts) == 1

    def _program(self):
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        from benfordxy import windows, xy_model

        return windows, xy_model

    def _curve(self, name, size):
        _, xy_model = self._program()
        kind = xy_model.ObservableKind.parse(name)
        return xy_model.ObservableCurve(kind, gamma=self.gamma, size=size)

    def _profile(self, text: str) -> list[str]:
        o, wl = self.oracle, self.workload
        errors = o.check_profile_structure(text, wl.a, wl.b, wl.w, wl.epsilon)
        if errors:
            return errors
        lams, deltas = o.parse_profile(text)
        size = wl.sizes[0]
        picks = {int(deltas.argmin()), int(deltas.argmax()), self.rng.randrange(lams.size)}
        curve = self._curve("mz", size)
        for m in sorted(picks):
            fields = o.window_samples(wl.a, wl.w, wl.epsilon, wl.n, m)
            values = curve(fields)
            checked = slice(None) if size is not None else [0, wl.n // 2, wl.n - 1]
            errors += o.check_values("mz", fields[checked], values[checked], self.gamma, size)
            errors += o.check_window(values, {(1, "md"): float(deltas[m])})
        if self.reference is not None and self.exact:
            errors += o.check_profile_reference(text, self.reference)
        return errors

    def _table1(self, text: str) -> list[str]:
        o, wl = self.oracle, self.workload
        errors = o.check_table1(text, self.reference, self.exact)
        windows, _ = self._program()
        count = o.window_count(wl.a, wl.b, wl.w, wl.epsilon)
        for obs in ("mz", "txx"):
            dists = [d for ob, d in o.TABLE1_COLUMNS if ob == obs]
            for size in wl.sizes:
                curve = self._curve(obs, size)
                m = self.rng.randrange(count)
                fields = o.window_samples(wl.a, wl.w, wl.epsilon, wl.n, m)
                values = curve(fields)
                errors += o.check_values(obs, fields, values, self.gamma, size)
                deltas = {
                    (k, d): windows.window_violation(curve, (fields[0], fields[-1]), wl.n, k, d)
                    for k in (1, 2, 3, 4)
                    for d in dists
                }
                errors += o.check_window(values, deltas)
        return errors


# ---------------------------------------------------------------- runs


def provenance() -> dict:
    import numpy
    import scipy

    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                model,
            )
    except OSError:
        pass
    return {
        "cores": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def measure(workload: Workload, argv: list, runner: Runner, checker: Checker,
            seconds: float, probe: SpeedProbe):
    """End-to-end metrics over the commands run in `seconds`.

    Each time is scaled to undisturbed cores by the probe's factor over
    its own interval, and the median over the run is reported.  Set-up is
    timed in every command's interpreter and in the set-up-only
    interpreters spawned before each command.
    """
    started = time.monotonic()
    reps, setups = [], []
    attempted = failed = 0
    while not reps or time.monotonic() - started < seconds:
        for _ in range(SETUP_PER_COMMAND):
            record = runner.spawn("setup", argv)
            if record is not None:
                setups.append(record)
        record = runner.spawn("run", argv)
        attempted += 1
        failed += not checker.check(record)
        if record is None:
            break
        reps.append(record)
    if not reps:
        return attempted, failed, {}
    walls, cpus = [], []
    for i, r in enumerate(reps):
        wall_f, cpu_f = probe.factors(r["run_start"], r["run_end"])
        cpu = r["user_s"] + r["sys_s"]
        walls.append(r["wall_s"] * wall_f)
        cpus.append(cpu * cpu_f)
        print(f"# command {i}: wall {r['wall_s']:.6g} s x {wall_f:.4f}, cpu {cpu:.6g} s"
              f" x {cpu_f:.4f}")
    wall = statistics.median(walls)
    values = {
        "setup_s": statistics.median(
            r["setup_s"] * probe.factors(r["spawned"], r["setup_done"])[0]
            for r in setups + reps
        ),
        "wall_s": wall,
        "samples_per_s": workload.windows * workload.n / wall,
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }
    print(f"# {len(reps)} commands, {len(setups) + len(reps)} set-ups")
    return attempted, failed, {k: (values[k], END_TO_END[k]) for k in END_TO_END}


def trace(workload: Workload, argv: list, runner: Runner, checker: Checker):
    """Per-layer metrics from one traced serial command."""
    import tracer

    pooled = runner.spawn("pool" if workload.jobs > 1 else "run", argv)
    plain = runner.spawn("run", serial(argv)) if workload.jobs > 1 else pooled
    traced = runner.spawn("trace", serial(argv))
    records = [pooled, plain, traced] if workload.jobs > 1 else [pooled, traced]
    passed = [checker.check(r) for r in records]
    if traced is None or plain is None or pooled is None:
        return len(records), passed.count(False), {}
    # the spans must nest and their self times add up to the command's
    # wall time as measured outside the tracer
    span_errors = tracer.check_spans(traced["trace"], traced["wall_s"], SPAN_TOL_S)
    checker.errors += span_errors
    passed[-1] = passed[-1] and not span_errors
    attempted, failed = len(records), passed.count(False)
    values = tracer.layer_metrics(traced["trace"])
    pool = pooled.get("trace", {"counters": {}})["counters"]
    values.update({
        "windows.pool_starts": pool.get("windows.pool_starts", 0),
        "windows.pool_s": pool.get("windows.pool_s", 0.0),
        "proc.user_s": plain["user_s"],
        "proc.sys_s": plain["sys_s"],
        "proc.minor_faults": plain["minor_faults"],
        "cli.import_s": statistics.median(r["import_s"] for r in records),
        "cli.config_s": statistics.median(r["config_s"] for r in records),
        "trace.untraced_wall_s": plain["wall_s"],
        "trace.overhead_s": values["trace.wall_s"] - plain["wall_s"],
    })
    return attempted, failed, {k: (values[k], PER_LAYER[k]) for k in PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small geometry, for the benchmark's self-tests")
    args = parser.parse_args(argv)

    if not (SRC / "benfordxy" / "cli.py").is_file():
        print(f"error: no benfordxy sources under {SRC}", file=sys.stderr)
        return 2
    base = (TINY if args.tiny else WORKLOADS)[args.workload]
    workload, cli_argv, gamma = base.seeded(args.seed)
    reference = None if args.tiny else json.loads(REFERENCE.read_text())[workload.name]

    run_dir = RUN_DIR / f"{workload.name}{'-tiny' if args.tiny else ''}-t{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    runner = Runner(run_dir)
    checker = Checker(workload, gamma, args.seed, reference)
    runner.spawn("setup", cli_argv)  # warm the file cache and byte-code before timing
    if args.trace:
        attempted, failed, metrics = trace(workload, cli_argv, runner, checker)
    else:
        with SpeedProbe(pin(workload)) as probe:
            attempted, failed, metrics = measure(workload, cli_argv, runner, checker,
                                                 args.seconds, probe)
    if not metrics:
        print(f"error: no command finished; see {run_dir}", file=sys.stderr)
        for err in checker.errors:
            print(f"error: {err}", file=sys.stderr)
        return 1

    result = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "argv": cli_argv,
        "provenance": provenance(),
        "errors": checker.errors,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (run_dir / "result.json").write_text(json.dumps(result, indent=2) + "\n")
    print("# benfordxy " + " ".join(cli_argv))
    print("# provenance " + json.dumps(result["provenance"]))
    for err in checker.errors:
        print(f"# mismatch: {err}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    print(f"# failed_ratio = {failed / attempted:.6g} ({failed}/{attempted})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
