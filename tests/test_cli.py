"""End-to-end tests of the command-line interface (in-process)."""

import argparse
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import benfordxy
from benfordxy import cli, windows


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------ usage errors


@pytest.mark.parametrize(
    "argv",
    [
        ["observables", "--observable", "qq"],
        ["observables", "--k", "5"],
        ["profile", "--distance", "kl"],
        ["scaling", "--fit-window", "0.8"],
        ["profile", "--coarse", "--full"],
        ["profile", "--n", "5000", "--auto-n"],
        ["scaling", "--n-sites", "14"],
        ["scaling", "--n-sites", "14", "--n-sites", "20"],
        ["scaling", "--n-sites", "inf"],
        ["observables", "--n-sites", "14", "--n-sites", "20"],
        ["observables", "--n", "0"],
        ["scaling", "--auto-n"],
        ["table1", "--auto-n"],
        ["table1", "--n-sites", "14,20,inf"],
        ["scaling", "--n-sites", "14,20,20"],
        ["table1", "--n-sites", "14", "--n-sites", "14", "--n-sites", "20"],
        ["scaling", "--scaling-mode", "free", "--n-sites", "14,20,24"],
        ["table1", "--scaling-mode", "free", "--n-sites", "14,20,24"],
        ["profile", "--jobs", "-3"],
        ["table1", "--beta-tilde", "5", "--n-sites", "14,16,18"],
        ["scaling", "--n-sites", "14,15,20"],
        ["table1", "--n-sites", "2,14,20"],
        ["profile", "--n-sites", "15"],
        ["observables", "--n-sites", "15"],
        ["observables", "--gamma", "0"],
        ["profile", "--observable", "g:30", "--n-sites", "14"],
        ["observables", "--observable", "txx", "--beta-tilde", "5"],
        ["scaling", "--observable", "g:8", "--n-sites", "20,18,14"],
        ["profile", "--n-sites", "14", "--gamma", "nan"],
        ["observables", "--n-sites", "14", "--gamma", "nan"],
        ["observables", "--n-sites", "14", "--gamma", "1e160"],
        ["observables", "--n-sites", "inf", "--gamma=-1e200"],
        ["profile", "--n-sites", "40", "--gamma", "1e151"],
        ["profile", "--n-sites", "inf", "--gamma", "1e160"],
        ["table1", "--gamma=-1e160", "--n-sites", "14,16,18"],
        ["profile", "--epsilon", "1e-9"],
        ["table1", "--epsilon", "1e-9", "--n-sites", "14,16,18"],
        # past the samples caps: per window, and per sweep (95 001 windows
        # at --auto-n's largest n, 160 000)
        ["profile", "--n", "1000000000"],
        ["profile", "--n-sites", "inf", "--n", "1000001"],
        ["table1", "--n", "1000000000", "--n-sites", "14,16,18"],
        ["profile", "--auto-n", "--epsilon", "1e-5"],
        # --auto-n and --emit-plot apply to profile only (NUMBERS: a
        # readable numeric file)
        ["observables", "--n-sites", "14", "--auto-n"],
        ["benford", "NUMBERS", "--auto-n"],
        ["observables", "--n-sites", "14", "--emit-plot"],
        ["benford", "NUMBERS", "--emit-plot"],
        # an observables grid past the per-window samples cap
        ["observables", "--n-sites", "40", "--n", "1000001"],
        # an offset past the float range is an offset beyond N/2 all the same
        ["observables", "--n-sites", "40", "--observable", "g:" + "9" * 400],
        # no command, an unknown command, a missing path, stray words and flags
        [],
        ["frobnicate"],
        ["benford"],
        ["profile", "stray"],
        ["profile", "--nope"],
    ],
)
def test_usage_errors_exit_1(argv, capsys, monkeypatch, tmp_path):
    numbers = tmp_path / "numbers.txt"
    numbers.write_text("1.5\n23\n")
    argv = [str(numbers) if arg == "NUMBERS" else arg for arg in argv]

    def no_profiles(*args, **kwargs):
        raise AssertionError("a usage error must stop the run before any profile")

    monkeypatch.setattr(cli, "profile_set", no_profiles)
    monkeypatch.setattr(cli, "profile_windows", no_profiles)
    monkeypatch.setattr(cli, "convergence_check", no_profiles)
    code, _, err = run(argv, capsys)
    assert code == 1
    assert err.startswith("error[usage]:") or "error[usage]:" in err
    assert len(err.splitlines()) == 1


def test_every_command_lists_each_setting_once_from_one_shared_action(capsys,
                                                                      monkeypatch):
    monkeypatch.setenv("COLUMNS", "100")
    flags = ["--config", "--coarse", "--full"]
    flags += ["--" + name.replace("_", "-") for name in cli.SETTINGS]
    for name, (_, _, positionals) in cli.COMMANDS.items():
        with pytest.raises(SystemExit) as exc:
            cli.main([name, "--help"])
        assert exc.value.code == 0
        # the first word of each entry, indented by two spaces, of the help
        entries = re.findall(r"^  (\S+)", capsys.readouterr().out, re.M)
        assert sorted(entries) == sorted(["-h,"] + flags + [pos for pos, _ in positionals])
    # the settings table is built once: each command holds the same actions
    sub = next(action for action in cli.build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    for flag in flags:
        assert len({id(sp._option_string_actions[flag]) for sp in sub.choices.values()}) == 1


def test_table1_single_size_is_a_usage_error(capsys):
    code, _, err = run(["table1", "--n-sites", "40"], capsys)
    assert code == 1
    assert "needs >= 3 system sizes" in err


def test_numeric_failures_exit_2(tmp_path, capsys):
    # M_z is exactly 1.0 at lambda >= 1e9, so every window is constant
    code, _, err = run(
        ["profile", "--n-sites", "14", "--a", "1e9", "--b", "2e9", "--w", "1e8",
         "--epsilon", "1e7", "--n", "100", "--out", str(tmp_path)],
        capsys,
    )
    assert code == 2
    assert err.startswith("error[numeric]:")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("observable", ["mz", "g:3",
                                        pytest.param("g:" + "9" * 400, id="g:9x400")])
def test_quadrature_node_budget_exits_2(tmp_path, capsys, monkeypatch, observable):
    # gamma = 1e-9 needs panels 2e-9 wide, about 2.5e10 nodes at N = inf,
    # and an offset past the float range panels 4/|r| = 0.0 wide: refused
    # from the node count when the curve is built, before any window is
    # sampled or any worker forked.
    def no_windows(*args, **kwargs):
        raise AssertionError("windows were computed")

    monkeypatch.setattr(cli, "profile_windows", no_windows)
    code, out, err = run(["profile", "--n-sites", "inf", "--gamma", "1e-9",
                          "--observable", observable, "--jobs", "2",
                          "--out", str(tmp_path)], capsys)
    assert code == 2
    assert err.startswith("error[numeric]:") and "nodes" in err
    assert len(err.splitlines()) == 1
    assert out == "" and not list(tmp_path.iterdir())


def test_memory_error_exits_2(capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.45 GiB for an array")

    monkeypatch.setattr(cli, "profile_set", exhausted)
    code, _, err = run(["scaling", "--n-sites", "14,16,18", "--epsilon", "1e-2",
                        "--n", "100", "--jobs", "1"], capsys)
    assert code == 2
    assert err == "error[memory]: Unable to allocate 7.45 GiB for an array\n"


def test_cli_import_loads_no_scipy():
    # scipy is a test dependency only; at start-up it would be most of the
    # import time of every command.  benford's power-of-ten tables are built
    # from int arithmetic, so fractions (and the decimal it imports, about
    # 4 ms per process) stay unloaded too
    src = os.path.dirname(os.path.dirname(benfordxy.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, benfordxy.cli; print(sorted(m for m in sys.modules"
            " if m.startswith('scipy') or m in ('fractions', 'decimal')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == "[]\n"


def test_serial_run_loads_no_process_pool(tmp_path):
    # the pool's module brings in multiprocessing, socket and subprocess,
    # about 10 ms of each start; a command that starts no pool never loads it
    src = os.path.dirname(os.path.dirname(benfordxy.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    argv = ["profile", "--n-sites", "14", "--a", "0.9", "--b", "1.1", "--w", "0.05",
            "--epsilon", "0.01", "--n", "200", "--jobs", "1", "--out", str(tmp_path)]
    code = ("import sys, benfordxy.cli\n"
            f"rc = benfordxy.cli.main({argv!r})\n"
            "print(rc, sorted(m for m in sys.modules\n"
            "                 if m in ('concurrent.futures.process', 'multiprocessing')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.splitlines()[-1] == "0 []"  # below the command's own lines
    assert (tmp_path / "profile.csv").is_file()


def test_free_mode_runs_without_scipy(tmp_path):
    src = os.path.dirname(os.path.dirname(benfordxy.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None  # any import of scipy fails\n"
        "from benfordxy import cli, scaling\n"
        "pts = [(n, 1.0 + 0.5 * n ** -2.0) for n in (8, 12, 16, 24)]\n"
        "assert abs(scaling.scaling_fit(pts, 'free').q - 2.0) < 1e-6\n"
        "sys.exit(cli.main(['scaling', '--scaling-mode', 'free', '--n-sites',\n"
        "    '14,20,30,40', '--epsilon', '1e-2', '--n', '100', '--jobs', '1',\n"
        f"    '--out', {str(tmp_path)!r}]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "scaling.txt").read_text().startswith("mode = free\n")


def test_free_fit_on_the_bracket_edge_exits_2(tmp_path, capsys, monkeypatch):
    # lambda_c^N linear in ln N: the residual falls toward q -> 0
    pts = [(n, 1.0 + 0.1 * math.log(n)) for n in (14, 20, 24, 30, 34, 40)]
    monkeypatch.setattr(cli, "_pseudo_criticals", lambda *args: {("mz", 1, "md"): pts})
    code, out, err = run(["scaling", "--scaling-mode", "free", "--out", str(tmp_path)],
                         capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error[numeric]: free-mode scaling fit: ")
    assert err.count("\n") == 1 and "Traceback" not in err


# ------------------------------------------------------------- observables


def test_observables_critical_magnetization(tmp_path, capsys):
    code, out, _ = run(
        ["observables", "--observable", "mz", "--gamma", "1", "--a", "1",
         "--b", "1", "--n", "1", "--out", str(tmp_path)],
        capsys,
    )
    assert code == 0
    lines = (tmp_path / "observables.csv").read_text().splitlines()
    assert lines[0] == "lambda,value"
    lam, val = (float(t) for t in lines[1].split(","))
    assert lam == 1.0
    assert abs(val - 2.0 / math.pi) < 1e-10


def test_observables_xx_correlator_at_zero_field(tmp_path, capsys):
    code, _, _ = run(
        ["observables", "--observable", "txx", "--gamma", "1", "--a", "0",
         "--b", "0", "--n", "1", "--out", str(tmp_path)],
        capsys,
    )
    assert code == 0
    _, val = (
        float(t)
        for t in (tmp_path / "observables.csv").read_text().splitlines()[1].split(",")
    )
    assert abs(val - (-1.0)) < 1e-10


def test_observables_full_grid_is_the_converged_n(tmp_path, capsys):
    # --full leaves n unset, so the grid takes the depth's converged n
    code, _, _ = run(["observables", "--n-sites", "14", "--full", "--out", str(tmp_path)],
                     capsys)
    assert code == 0
    lines = (tmp_path / "observables.csv").read_text().splitlines()
    assert len(lines) == 1 + cli.CONVERGED_N[1] == 10_001


def test_observables_grid_layout(tmp_path, capsys):
    code, _, _ = run(
        ["observables", "--a", "0.5", "--b", "1.5", "--n", "11",
         "--n-sites", "8", "--out", str(tmp_path)],
        capsys,
    )
    assert code == 0
    lines = (tmp_path / "observables.csv").read_text().splitlines()
    assert len(lines) == 12
    lams = [float(line.split(",")[0]) for line in lines[1:]]
    assert lams == pytest.approx(list(np.linspace(0.5, 1.5, 11)), abs=1e-15)


# ------------------------------------------------------------ benford file


def _write_fib(path, count=200):
    a, b = 1, 1
    rows = []
    for _ in range(count):
        rows.append(str(a))
        a, b = b, a + b
    path.write_text("\n".join(rows) + "\n")


def test_benford_report(tmp_path, capsys):
    data = tmp_path / "fib.txt"
    _write_fib(data)
    code, out, _ = run(["benford", str(data)], capsys)
    assert code == 0
    assert "values: 200" in out
    assert "key,observed,expected" in out
    for name in ("md", "sd", "bd"):
        assert f"delta_{name} = " in out
    # the requested distance is starred
    starred = [l for l in out.splitlines() if l.endswith(" *")]
    assert len(starred) == 1 and starred[0].startswith("delta_md")


def test_benford_report_distance_marker_follows_flag(tmp_path, capsys):
    data = tmp_path / "fib.txt"
    _write_fib(data)
    code, out, _ = run(["benford", str(data), "--distance", "bd"], capsys)
    assert code == 0
    starred = [l for l in out.splitlines() if l.endswith(" *")]
    assert len(starred) == 1 and starred[0].startswith("delta_bd")
    # the path may also follow the flags
    code, out, _ = run(["benford", "--k", "2", "--distance", "sd", str(data)], capsys)
    assert code == 0
    assert "k: 2" in out
    starred = [l for l in out.splitlines() if l.endswith(" *")]
    assert len(starred) == 1 and starred[0].startswith("delta_sd")


def test_benford_tolerates_trailing_commas_and_blanks(tmp_path, capsys):
    data = tmp_path / "vals.txt"
    data.write_text("1.5,\n\n  2.5\n9e2\n")
    code, out, _ = run(["benford", str(data)], capsys)
    assert code == 0
    assert "values: 3" in out


@pytest.mark.filterwarnings("error")
def test_benford_tiny_and_huge_values_warn_nothing(tmp_path, capsys):
    data = tmp_path / "vals.txt"
    data.write_text("1e-300\n5e10\n")
    code, out, err = run(["benford", str(data)], capsys)
    assert code == 0
    assert err == ""
    assert "values: 2" in out


@pytest.mark.parametrize(
    "content,needle",
    [
        ("1.5\nabc\n", "malformed numeric token"),
        ("\n   \n", "no usable rows"),
        ("1.5\nnan\n", "vals.txt:2: non-finite value 'nan'"),
        ("inf\n2.0\n", "vals.txt:1: non-finite value 'inf'"),
        ("1.5\n\n-Infinity,\n", "vals.txt:3: non-finite value '-Infinity'"),
    ],
)
def test_benford_bad_files_exit_3(tmp_path, capsys, content, needle):
    data = tmp_path / "vals.txt"
    data.write_text(content)
    code, _, err = run(["benford", str(data)], capsys)
    assert code == 3
    assert err.startswith("error[io]:")
    assert needle in err


def test_benford_missing_file_exits_3(tmp_path, capsys):
    code, _, err = run(["benford", str(tmp_path / "nope.txt")], capsys)
    assert code == 3
    assert err.startswith("error[io]:")


# ---------------------------------------------------------------- config


def test_config_file_applies_and_flags_override(tmp_path, capsys):
    data = tmp_path / "fib.txt"
    _write_fib(data)
    conf = tmp_path / "run.conf"
    conf.write_text("# comment\nk = 3\ndistance = sd\n")
    code, out, _ = run(["benford", str(data), "--config", str(conf)], capsys)
    assert code == 0
    assert "k: 3" in out
    code, out, _ = run(
        ["benford", str(data), "--config", str(conf), "--k", "2"], capsys
    )
    assert code == 0
    assert "k: 2" in out


@pytest.mark.parametrize(
    "content,needle",
    [
        ("zeta = 3\n", "unknown config key"),
        ("k 3\n", "expected 'key = value'"),
        ("k = banana\n", "k = banana"[:1]),
    ],
)
def test_bad_config_exits_3(tmp_path, capsys, content, needle):
    conf = tmp_path / "run.conf"
    conf.write_text(content)
    code, _, err = run(["observables", "--config", str(conf)], capsys)
    assert code == 3
    assert err.startswith("error[io]:")
    assert needle in err


@pytest.mark.parametrize(
    "content",
    ["k = 5\n", "distance = kl\n", "scaling_mode = loose\n", "jobs = -3\n"],
)
def test_bad_config_values_exit_1(tmp_path, capsys, content):
    """Config values meet the same choices and jobs checks as flags."""
    conf = tmp_path / "run.conf"
    conf.write_text(content)
    code, _, err = run(["observables", "--config", str(conf)], capsys)
    assert code == 1
    assert err.startswith("error[usage]:")


# ---------------------------------------------------------------- profile


@pytest.mark.parametrize("extra", [[], ["--beta-tilde", "5"]], ids=["ground", "beta_tilde_5"])
def test_profile_meta_reproduces_run_byte_identically(tmp_path, capsys, extra):
    # the sidecar's one conditional line, beta_tilde, is written only when
    # it is finite
    first = tmp_path / "first"
    again = tmp_path / "again"
    base = ["profile", "--observable", "mz", "--n-sites", "14", "--a", "0.5",
            "--b", "1.5", "--w", "0.05", "--epsilon", "5e-3", "--n", "1000"]
    code, _, _ = run(base + extra + ["--out", str(first)], capsys)
    assert code == 0
    code, _, _ = run(
        ["profile", "--config", str(first / "profile.meta"), "--out", str(again)],
        capsys,
    )
    assert code == 0
    assert (first / "profile.csv").read_bytes() == (again / "profile.csv").read_bytes()
    assert (first / "profile.meta").read_bytes() == (again / "profile.meta").read_bytes()
    assert ("beta_tilde = 5\n" in (first / "profile.meta").read_text()) == bool(extra)


def test_thermodynamic_limit_profile_is_byte_identical_across_jobs(tmp_path, capsys):
    # 61 windows are two blocks of windows across lam = 1, whose fields
    # take many depths toward phi = 0; each value depends on its own field
    # alone, so one worker and two write the same bytes.
    base = ["profile", "--n-sites", "inf", "--a", "0.8", "--b", "1.2", "--w", "0.1",
            "--epsilon", "0.005", "--n", "200"]
    for jobs in ("1", "2"):
        code, _, _ = run(base + ["--jobs", jobs, "--out", str(tmp_path / jobs)], capsys)
        assert code == 0
    for name in ("profile.csv", "profile.meta"):
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()


def test_auto_n_writes_the_converged_profile_without_another_pass(tmp_path, capsys,
                                                                 monkeypatch):
    # convergence_check has already profiled the converged n: --auto-n
    # writes that profile, with the bytes of a plain --n run at that n
    passes = []
    profile_set = windows.profile_set

    def counted(curve, spec, *args, **kwargs):
        passes.append(spec.n)
        return profile_set(curve, spec, *args, **kwargs)

    monkeypatch.setattr(windows, "profile_set", counted)
    base = ["profile", "--n-sites", "14", "--a", "0.5", "--b", "1.5", "--w", "0.5",
            "--epsilon", "0.25", "--jobs", "1"]
    code, out, _ = run(base + ["--auto-n", "--out", str(tmp_path / "auto")], capsys)
    assert code == 0
    n = int(out.split("converged at n = ")[1].split()[0])
    # one pass per n of the doubling, up to the 2n that confirmed n
    assert passes == [2500 * 2**i for i in range(len(passes))] and passes[-1] == 2 * n
    code, _, _ = run(base + ["--n", str(n), "--out", str(tmp_path / "plain")], capsys)
    assert code == 0
    for name in ("profile.csv", "profile.meta"):
        auto, plain = (tmp_path / run_dir / name for run_dir in ("auto", "plain"))
        assert auto.read_bytes() == plain.read_bytes()


def test_profile_preset_overrides_config_resolution(tmp_path, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text("epsilon = 9e-3\nn = 500\n")
    out_dir = tmp_path / "run"
    code, _, _ = run(
        ["profile", "--config", str(conf), "--coarse", "--observable", "mz",
         "--n-sites", "14", "--a", "0.5", "--b", "0.7", "--w", "0.05",
         "--out", str(out_dir)],
        capsys,
    )
    assert code == 0
    meta = dict(
        line.split(" = ", 1)
        for line in (out_dir / "profile.meta").read_text().splitlines()
    )
    assert float(meta["epsilon"]) == 1e-3
    assert int(meta["n"]) == 10000


def test_profile_emit_plot_writes_gnuplot_script(tmp_path, capsys):
    out_dir = tmp_path / "run"
    code, _, _ = run(
        ["profile", "--observable", "mz", "--n-sites", "14", "--a", "0.5",
         "--b", "1.5", "--w", "0.05", "--epsilon", "1e-2", "--n", "500",
         "--emit-plot", "--out", str(out_dir)],
        capsys,
    )
    assert code == 0
    script = (out_dir / "profile.gp").read_text()
    assert "gnuplot" in script
    assert "profile.csv" in script


# ------------------------------------------------------- scaling and table


def test_scaling_reduced_resolution_run(tmp_path, capsys):
    out_dir = tmp_path / "run"
    code, out, err = run(
        ["scaling", "--a", "0.6", "--b", "1.4", "--epsilon", "2e-3",
         "--n", "2000", "--out", str(out_dir)],
        capsys,
    )
    assert code == 0, err
    record = dict(
        line.split(" = ", 1) for line in out.splitlines() if " = " in line
    )
    q = float(record["q"])
    assert 1.4 < q < 2.3
    assert record["mode"] == "fixed"
    assert (out_dir / "scaling.txt").exists()
    reg = (out_dir / "regression.csv").read_text().splitlines()
    assert reg[0] == "ln_N,ln_abs_dev"
    assert len(reg) == len(cli.SCALING_SIZES) + 1


def test_table1_structure_at_reduced_resolution(tmp_path, capsys):
    out_dir = tmp_path / "run"
    code, out, err = run(
        ["table1", "--n-sites", "14", "--n-sites", "20", "--n-sites", "24",
         "--a", "0.6", "--b", "1.4", "--epsilon", "5e-3", "--n", "1000",
         "--out", str(out_dir)],
        capsys,
    )
    assert code == 0
    lines = (out_dir / "table1.csv").read_text().splitlines()
    assert lines[0].split(",")[0] == "k"
    assert "q_md_mz" in lines[0]
    assert "q_md_txx" in lines[0]
    assert len(lines) == 5
    for k, line in zip((1, 2, 3, 4), lines[1:]):
        cells = line.split(",")
        assert cells[0] == str(k)
        assert len(cells) == 9
        # any fitted cell must carry a parseable positive exponent
        for val in cells[1::2]:
            if val:
                assert float(val) > 0.0
