"""Command-line front end for the Benford violation pipeline.

The subcommands are the keys of `COMMANDS` (`benfordxy --help` lists them
with their help): observable curves, violation profiles, pseudo-critical
points with the scaling exponent q, the 4x4 exponent table, and a digit
report for a numeric file.

Every setting is a field of `RunConfig`, which is the one table of
settings: each field's metadata holds its parser, help and argparse
extras, and the table yields both the `--flag` (the field name with `_`
turned into `-`) and the config-file key (the field name).  Configuration
comes from defaults, then an optional `--config FILE` of flat
`key = value` lines, then a resolution preset (`--coarse` or `--full`, a
mutually exclusive pair), then explicit flags; later sources win.  A
profile run writes a metadata sidecar that parses back as a config file
and reproduces the run byte-identically.

Exit codes: 0 success, 1 usage error, 2 numeric failure or out of memory,
3 I/O failure.
Every failure prints a single diagnostic line `error[<class>]: message`
to stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import benford
from . import scaling as sc
from .quadrature import QuadratureError
from .windows import (
    DOUBLING_MAX_N,
    ConvergenceError,
    WindowSpec,
    convergence_check,
    default_jobs,
    fmt17,
    profile as profile_windows,
    profile_csv_text,
    profile_meta_text,
    profile_set,
)
from .xy_model import ObservableCurve, ObservableKind

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2
EXIT_IO = 3

# converged samples per digit depth at the reference resolution
CONVERGED_N = {1: 10000, 2: 10000, 3: 11000, 4: 40000}
COARSE_EPSILON = 1e-3
COARSE_N = 10000
FULL_EPSILON = 5e-5
SCALING_SIZES = (14, 20, 24, 30, 34, 40)

# resolution presets: setting overrides applied between the config file and
# the flags; n = None means the converged n of each digit depth
PRESETS = {
    "coarse": {"epsilon": COARSE_EPSILON, "n": COARSE_N},
    "full": {"epsilon": FULL_EPSILON, "n": None},
}


class UsageError(Exception):
    """Bad flags, flag combinations, or config values."""


class InputFormatError(Exception):
    """A data or config file exists but its content cannot be parsed."""


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_sites(text: str) -> tuple:
    """Sizes separated by commas or blanks; 'inf' means N = infinity."""
    try:
        return tuple(
            None if tok.lower() in ("inf", "infinity") else int(tok)
            for tok in text.replace(",", " ").split()
        )
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"system sizes must be integers or 'inf', got {text!r}"
        ) from None


def _parse_fit_window(text: str):
    if text.strip().lower() == "auto":
        return None
    try:
        lo, hi = (float(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"fit window must be 'LO,HI' or 'auto', got {text!r}"
        ) from None
    return (lo, hi)


def _setting(default, parse, help, **argparse_extras):
    """A RunConfig field: its default, the parser of its flag and config
    value, its help, and any further `add_argument` keywords."""
    return dataclasses.field(
        default=default, metadata={"parse": parse, "help": help, **argparse_extras}
    )


@dataclass
class RunConfig:
    """Resolved settings for one CLI run, and the one table of CLI settings."""

    observable: str = _setting("mz", str, "mz | txx | tyy | tzz | g:R")
    gamma: float = _setting(0.5, float, "anisotropy gamma")
    beta_tilde: float = _setting(math.inf, float, "reduced inverse temperature")
    n_sites: tuple = _setting(  # empty = per-command default
        (), _parse_sites, "system size; repeatable; 'inf' for the thermodynamic limit",
        action="extend", metavar="N")
    a: float = _setting(0.5, float, "start of the field sweep")
    b: float = _setting(1.5, float, "end of the field sweep")
    w: float = _setting(0.05, float, "window width")
    epsilon: float = _setting(COARSE_EPSILON, float, "window shift")
    n: int | None = _setting(COARSE_N, int, "samples per window (or grid points)")
    auto_n: bool = _setting(False, _parse_bool, "pick n by a doubling convergence check",
                            action="store_true")
    k: int = _setting(1, int, "digit depth", choices=(1, 2, 3, 4))
    distance: str = _setting("md", str, "distance from the Benford law",
                             choices=tuple(benford.DISTANCES))
    fit_window: tuple | None = _setting(  # None = adaptive feature window
        None, _parse_fit_window, "cubic fit window", metavar="LO,HI|auto")
    scaling_mode: str = _setting("fixed", str, "fit lambda_c or hold it",
                                 choices=("fixed", "free"))
    lambda_c: float = _setting(1.0, float, "lambda_c held by the fixed-mode fit")
    out: str = _setting(".", str, "output directory")
    jobs: int = _setting(0, int, "parallel workers (0: all usable cores)")
    emit_plot: bool = _setting(False, _parse_bool, "also write a gnuplot script",
                               action="store_true")

    def resolved_jobs(self) -> int:
        return self.jobs if self.jobs > 0 else default_jobs()

    def resolved_n(self, k: int) -> int:
        return CONVERGED_N[k] if self.n is None else self.n

    def sizes_or(self, default) -> tuple:
        return tuple(self.n_sites or default)


SETTINGS = {f.name: f.metadata for f in dataclasses.fields(RunConfig)}


def read_config_file(path: str) -> dict:
    """Flat `key = value` lines; blank lines and # comments are skipped."""
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, val = line.partition("=")
            key = key.strip()
            if not sep or not key:
                raise InputFormatError(f"{path}:{lineno}: expected 'key = value'")
            if key not in SETTINGS:
                raise InputFormatError(f"{path}:{lineno}: unknown config key {key!r}")
            try:
                values[key] = SETTINGS[key]["parse"](val.strip())
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise InputFormatError(f"{path}:{lineno}: {exc}") from exc
    return values


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _add_settings(sp):
    """--config, the preset group and one flag per RunConfig field; a flag
    that is not given leaves no attribute, so config values stand."""
    sp.add_argument("--config", help="flat key = value config file")
    presets = sp.add_mutually_exclusive_group()
    for name, values in PRESETS.items():
        desc = ", ".join(f"{key} {'converged per k' if v is None else v}"
                         for key, v in values.items())
        presets.add_argument(f"--{name}", action="store_const", const=name, dest="preset",
                             help=f"resolution preset: {desc}")
    for name, meta in SETTINGS.items():
        extras = {key: val for key, val in meta.items() if key != "parse"}
        if extras.get("action") != "store_true":
            extras["type"] = meta["parse"]
        sp.add_argument("--" + name.replace("_", "-"), default=argparse.SUPPRESS, **extras)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="benfordxy", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, (_, helptext, positionals) in COMMANDS.items():
        sp = sub.add_parser(name, help=helptext)
        for pos, pos_help in positionals:
            sp.add_argument(pos, help=pos_help)
        _add_settings(sp)
    return parser


def resolve_config(args) -> RunConfig:
    values = read_config_file(args.config) if args.config else {}
    values.update(PRESETS.get(args.preset, {}))
    flags = {name: getattr(args, name) for name in SETTINGS if hasattr(args, name)}
    values.update(flags)
    if values.get("auto_n"):
        if args.command != "profile":
            raise UsageError("--auto-n applies to profile only; give --n or a preset")
        if "n" in flags:
            raise UsageError("--n and --auto-n are mutually exclusive")
        values["n"] = None
    cfg = RunConfig(**values)
    for name, meta in SETTINGS.items():
        val = getattr(cfg, name)
        if "choices" in meta and val not in meta["choices"]:
            raise UsageError(f"{name} must be one of {meta['choices']}, got {val!r}")
    if cfg.jobs < 0:
        raise UsageError(f"jobs must be >= 0 (0 = all usable cores), got {cfg.jobs}")
    try:
        ObservableKind.parse(cfg.observable)  # validate early
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    return cfg


def _curve(cfg: RunConfig, size, kind_names=None) -> ObservableCurve:
    """The curve of cfg.observable, or the joint curve of kind_names."""
    try:
        if kind_names is None:
            kind = ObservableKind.parse(cfg.observable)
        else:
            kind = tuple(ObservableKind.parse(name) for name in kind_names)
        return ObservableCurve(kind, cfg.gamma, cfg.beta_tilde, size)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _outpath(cfg: RunConfig, name: str) -> str:
    os.makedirs(cfg.out, exist_ok=True)
    return os.path.join(cfg.out, name)


def _write(path: str, text: str):
    with open(path, "w") as fh:
        fh.write(text)
    print(f"wrote {path}")


def cmd_observables(cfg: RunConfig) -> int:
    sizes = cfg.sizes_or((None,))
    if len(sizes) != 1:
        raise UsageError("observables takes exactly one --n-sites value")
    n = cfg.n if cfg.n is not None else 201
    if n < 1:
        raise UsageError(f"empty grid: n = {n}")
    curve = _curve(cfg, sizes[0])
    lams = np.linspace(cfg.a, cfg.b, n)
    vals = np.asarray(curve(lams), dtype=float)
    lines = ["lambda,value"]
    lines += [f"{fmt17(l)},{fmt17(v)}" for l, v in zip(lams, vals)]
    _write(_outpath(cfg, "observables.csv"), "\n".join(lines) + "\n")
    return EXIT_OK


_PLOT_TEMPLATE = """\
# gnuplot script; run as: gnuplot {name}
set datafile separator ","
set xlabel "lambda"
set ylabel "Delta_{distance}({observable}), k={k}"
set key off
set grid
plot "{csv}" every ::1 using 1:2 with lines lw 2
pause -1 "press enter to close"
"""


def _window_spec(cfg: RunConfig, n: int) -> WindowSpec:
    """The sweep's windows at n samples; a geometry outside its domain,
    such as more windows than `windows.MAX_WINDOWS`, is a usage error."""
    try:
        return WindowSpec(cfg.a, cfg.b, cfg.w, cfg.epsilon, n)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def cmd_profile(cfg: RunConfig) -> int:
    sizes = cfg.sizes_or((40,))
    if len(sizes) != 1:
        raise UsageError("profile takes exactly one --n-sites value")
    curve = _curve(cfg, sizes[0])
    # --auto-n's sweep is checked at the largest n its doubling can reach
    spec = _window_spec(cfg, DOUBLING_MAX_N if cfg.auto_n else cfg.resolved_n(cfg.k))
    if cfg.auto_n:
        res = convergence_check(
            curve, spec, cfg.k, cfg.distance, jobs=cfg.resolved_jobs()
        )
        print(f"auto-n: converged at n = {res.n} (deviation {res.deviation:.3g})")
        prof = res.profile
    else:
        prof = profile_windows(curve, spec, cfg.k, cfg.distance, jobs=cfg.resolved_jobs())
    csv_path = _outpath(cfg, "profile.csv")
    _write(csv_path, profile_csv_text(prof))
    _write(_outpath(cfg, "profile.meta"), profile_meta_text(prof))
    if cfg.emit_plot:
        script = _PLOT_TEMPLATE.format(
            name="profile.gp", csv="profile.csv",
            distance=cfg.distance, observable=prof.meta.observable, k=cfg.k,
        )
        _write(_outpath(cfg, "profile.gp"), script)
    return EXIT_OK


def _scaling_sizes(cfg: RunConfig) -> tuple:
    """The sizes a scaling fit runs over, checked before any profile is
    computed: finite, distinct and enough for the fit mode (`_curve` checks
    each size's domain)."""
    sizes = cfg.sizes_or(SCALING_SIZES)
    if None in sizes:
        raise UsageError("scaling needs finite system sizes")
    if len(set(sizes)) != len(sizes):
        raise UsageError(f"scaling needs distinct system sizes, got {sizes}")
    need = 4 if cfg.scaling_mode == "free" else 3
    if len(sizes) < need:
        raise UsageError(
            f"{cfg.scaling_mode}-mode scaling needs >= {need} system sizes, "
            f"got {len(sizes)}"
        )
    return sizes


def _pseudo_criticals(cfg: RunConfig, columns, sizes, ks):
    """lambda_c^N per (observable, k, distance, N) for columns, a dict
    {observable name: distances}: one sampling pass per (N, n) evaluates
    every observable of columns at once, from one joint curve."""
    points = {}
    # domain and geometry errors come before the first profile
    curves = {size: _curve(cfg, size, tuple(columns)) for size in sizes}
    by_n = {}
    for k in ks:
        by_n.setdefault(cfg.resolved_n(k), []).append(k)
    passes = [(_window_spec(cfg, n), k_group) for n, k_group in sorted(by_n.items())]
    for size, curve in curves.items():
        for spec, k_group in passes:
            parts = profile_set(
                curve, spec, k_group, list(columns.values()), jobs=cfg.resolved_jobs()
            )
            for name, profs in zip(columns, parts):
                for (k, d), prof in profs.items():
                    try:
                        lc, _ = sc.profile_pseudo_critical(prof.points, cfg.fit_window)
                        points.setdefault((name, k, d), []).append((size, lc))
                    except (sc.FitError, ValueError) as exc:
                        print(f"warning: {name} N={size} k={k} {d}: {exc}",
                              file=sys.stderr)
    return points


def cmd_scaling(cfg: RunConfig) -> int:
    sizes = _scaling_sizes(cfg)
    points = _pseudo_criticals(cfg, {cfg.observable: [cfg.distance]}, sizes, [cfg.k])
    pts = points.get((cfg.observable, cfg.k, cfg.distance), [])
    result = sc.scaling_fit(pts, cfg.scaling_mode, cfg.lambda_c)
    record = sc.scaling_record_text(result)
    sys.stdout.write(record)
    _write(_outpath(cfg, "scaling.txt"), record)
    _write(_outpath(cfg, "regression.csv"), sc.regression_csv_text(result))
    return EXIT_OK


TABLE1_COLUMNS = (("mz", "md"), ("mz", "sd"), ("mz", "bd"), ("txx", "md"))


def cmd_table1(cfg: RunConfig) -> int:
    sizes = _scaling_sizes(cfg)
    if not math.isinf(cfg.beta_tilde):
        raise UsageError(
            "table1 needs beta_tilde = inf: its T_xx columns have no "
            "finite-temperature form"
        )
    ks = (1, 2, 3, 4)
    columns = {}
    for obs, d in TABLE1_COLUMNS:
        columns.setdefault(obs, []).append(d)
    cells = {}
    for (obs, k, d), pts in _pseudo_criticals(cfg, columns, sizes, ks).items():
        try:
            cells[(obs, d, k)] = sc.scaling_fit(pts, cfg.scaling_mode, cfg.lambda_c)
        except (sc.FitError, ValueError) as exc:
            print(f"warning: cell {obs}/{d}/k={k} failed: {exc}", file=sys.stderr)
    header = ["k"]
    for obs, d in TABLE1_COLUMNS:
        header += [f"q_{d}_{obs}", f"resid_{d}_{obs}"]
    lines = [",".join(header)]
    for k in ks:
        row = [str(k)]
        for obs, d in TABLE1_COLUMNS:
            cell = cells.get((obs, d, k))
            row += ["", ""] if cell is None else [fmt17(cell.q), fmt17(cell.fit_residual)]
        lines.append(",".join(row))
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    _write(_outpath(cfg, "table1.csv"), text)
    return EXIT_OK


def _read_numeric_file(path: str) -> np.ndarray:
    values = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            tok = raw.strip().rstrip(",")
            if not tok:
                continue
            try:
                value = float(tok)
            except ValueError:
                raise InputFormatError(
                    f"{path}:{lineno}: malformed numeric token {tok!r}"
                ) from None
            if not math.isfinite(value):
                raise InputFormatError(f"{path}:{lineno}: non-finite value {tok!r}")
            values.append(value)
    return np.array(values)


def cmd_benford(cfg: RunConfig, path: str) -> int:
    data = _read_numeric_file(path)
    if data.size == 0:
        raise InputFormatError(f"{path}: no usable rows")
    observed = benford.observed_table(data, cfg.k)
    expected = benford.expected_table(observed.total, cfg.k)
    lo, _ = benford.key_bounds(cfg.k)
    print(f"file: {path}  values: {data.size}  binned: {fmt17(observed.total)}  k: {cfg.k}")
    print("key,observed,expected")
    for i, (o, e) in enumerate(zip(observed.counts, expected.counts)):
        print(f"{lo + i},{fmt17(o)},{fmt17(e)}")
    for name in ("md", "sd", "bd"):
        val = benford.DISTANCES[name](observed, expected)
        marker = " *" if name == cfg.distance else ""
        print(f"delta_{name} = {fmt17(val)}{marker}")
    return EXIT_OK


# name -> (function, help, positional (name, help) pairs passed after the config)
COMMANDS = {
    "observables": (cmd_observables, "dump (lambda, value) rows over a grid", ()),
    "profile": (cmd_profile, "violation profile over sliding windows", ()),
    "scaling": (cmd_scaling, "pseudo-critical points and scaling exponent", ()),
    "table1": (cmd_table1, "4x4 exponent table over k and distances", ()),
    "benford": (cmd_benford, "digit-conformance report for a numeric file",
                (("path", "file of one number per line"),)),
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = resolve_config(args)
        command, _, positionals = COMMANDS[args.command]
        return command(cfg, *(getattr(args, pos) for pos, _ in positionals))
    except UsageError as exc:
        print(f"error[usage]: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        print(f"error[memory]: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_NUMERIC
    except (InputFormatError, OSError) as exc:
        print(f"error[io]: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, ArithmeticError, QuadratureError, ConvergenceError) as exc:
        print(f"error[numeric]: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
