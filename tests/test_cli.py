"""End-to-end tests of the command-line interface (in-process)."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

import benfordxy
from benfordxy import cli


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
        ["profile", "--epsilon", "1e-9"],
        ["table1", "--epsilon", "1e-9", "--n-sites", "14,16,18"],
    ],
)
def test_usage_errors_exit_1(argv, capsys, monkeypatch):
    def no_profiles(*args, **kwargs):
        raise AssertionError("a usage error must stop the run before any profile")

    monkeypatch.setattr(cli, "profile_set", no_profiles)
    monkeypatch.setattr(cli, "profile_windows", no_profiles)
    code, _, err = run(argv, capsys)
    assert code == 1
    assert err.startswith("error[usage]:") or "error[usage]:" in err
    assert len(err.splitlines()) == 1


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


@pytest.mark.parametrize("observable", ["mz", "g:3"])
def test_quadrature_node_budget_exits_2(tmp_path, capsys, monkeypatch, observable):
    # gamma = 1e-9 needs panels 2e-9 wide, about 2.5e10 nodes at N = inf:
    # refused from the node count when the curve is built, before any
    # window is sampled or any worker forked.
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
    # scipy is imported only by the free-mode scaling fit; at start-up it
    # would be most of the import time of every command
    src = os.path.dirname(os.path.dirname(benfordxy.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, benfordxy.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == "[]\n"


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


def test_profile_meta_reproduces_run_byte_identically(tmp_path, capsys):
    first = tmp_path / "first"
    again = tmp_path / "again"
    base = ["profile", "--observable", "mz", "--n-sites", "14", "--a", "0.5",
            "--b", "1.5", "--w", "0.05", "--epsilon", "5e-3", "--n", "1000"]
    code, _, _ = run(base + ["--out", str(first)], capsys)
    assert code == 0
    code, _, _ = run(
        ["profile", "--config", str(first / "profile.meta"), "--out", str(again)],
        capsys,
    )
    assert code == 0
    assert (first / "profile.csv").read_bytes() == (again / "profile.csv").read_bytes()
    assert (first / "profile.meta").read_bytes() == (again / "profile.meta").read_bytes()


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
