"""Command-line front end.

Subcommands: ``solve`` (trajectory CSV), ``parareal`` (per-iteration CSV),
``bench`` (runtime/speedup/allocation CSV over a dof sweep), ``bounds``
(binomial sums and their estimates), ``truncation`` (hybrid-operator error
study).  ``_COMMANDS`` lists the settings each command reads, and a
command takes the flags of those settings alone.  A ``key = value`` config
file can preset any :class:`RunConfig` field, each value parsed to the
field's type; flags override it, and a command ignores the keys it does
not read.  Each setting is checked by the code that uses it.  Each
command returns its CSV header and rows; :func:`main` writes them to
``--out`` (default ``<command>.csv``).  Diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import os
import sys
import typing
from dataclasses import dataclass

from .bounds import BoundParams, double_sum_bound, double_sum_exact, single_sum_bound, single_sum_exact
from .errors import ParafracError
from .harness import TRUNCATION_FUNCTIONS, bench_point, truncation_study
from .l1 import TimeGrids
from .parareal import parareal_solve
from .problems import get_problem, registry_names
from .spectral import build_operator, l2_norm
from .stepping import run_coarse, run_fine_sequential

__all__ = ["RunConfig", "main", "parse_config_text"]

CONFIG_SECTION = "run"


@dataclass(frozen=True)
class RunConfig:
    """Effective settings of one CLI invocation (defaults, config file, flags)."""

    problem: str = "paper42"
    alpha: float | None = None
    t_final: float | None = None
    nt: int = 8
    m: int = 4
    degree: int = 16
    tol: float = 1e-10
    kmax: int = 20
    threads: int | None = None
    out: str | None = None
    sweep: tuple = ()
    reference: bool = False
    solver: str = "fine"
    reps: int = 3
    function: str = "mixed"
    bound_a: float = 1.0
    bound_b: float = 1.1
    bound_c: float = 1.001
    bound_n: int = 10


def _value_type(hint):
    """The type a config value is parsed to: ``float | None`` gives ``(float, True)``."""
    kinds = [k for k in typing.get_args(hint) if k is not type(None)]
    return (kinds[0], True) if kinds else (hint, False)


# field name -> (value type, whether the field may be None)
_FIELD_TYPES = {name: _value_type(hint) for name, hint in typing.get_type_hints(RunConfig).items()}
_BOOL_WORDS = configparser.ConfigParser.BOOLEAN_STATES


def _int_tuple(text):
    return tuple(int(tok) for tok in text.split(",") if tok.strip())


def _parse_value(name, text):
    text = text.strip()
    kind, optional = _FIELD_TYPES[name]
    if kind is tuple:
        return _int_tuple(text)
    if text == "":
        if not optional:
            raise ValueError(f"config key {name!r} needs a value")
        return None
    if kind is bool:
        if text.lower() not in _BOOL_WORDS:
            raise ValueError(f"config key {name!r} is not a boolean: {text!r}")
        return _BOOL_WORDS[text.lower()]
    return kind(text)


def parse_config_text(text):
    """Parse a ``[run]`` section of ``key = value`` lines into field overrides."""
    parser = configparser.ConfigParser(interpolation=None)  # values are literal
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ValueError(f"malformed config: {exc}") from None
    if not parser.has_section(CONFIG_SECTION):
        raise ValueError(f"config must contain a [{CONFIG_SECTION}] section")
    overrides = {}
    for key, raw in parser.items(CONFIG_SECTION):
        key = "degree" if key == "n" else key  # config accepts the flag name too
        if key not in _FIELD_TYPES:
            raise ValueError(f"unknown config key {key!r}")
        overrides[key] = _parse_value(key, raw)
    return overrides


def _config_from_sources(args):
    overrides = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            overrides.update(parse_config_text(fh.read()))
    for name in _FIELD_TYPES:
        value = getattr(args, name, None)
        if value is not None:
            overrides[name] = value
    return RunConfig(**overrides)


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(f"{x:.16e}" if isinstance(x, float) else str(x) for x in row) + "\n")


def _effective_threads(cfg):
    """``--threads``, or the CPUs this process may run on (all of them where unknown)."""
    if cfg.threads is not None:
        return cfg.threads
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _setup(cfg):
    problem = get_problem(cfg.problem, alpha=cfg.alpha, t_final=cfg.t_final)
    op = build_operator(cfg.degree, problem.a, problem.b)
    grids = TimeGrids(problem.t_final, cfg.nt, cfg.m)
    return problem, op, grids


# --solver name -> the coarse-node trajectory of that propagator
_SOLVERS = {"fine": lambda *setup: run_fine_sequential(*setup)[0], "coarse": run_coarse}


def cmd_solve(cfg):
    if cfg.solver not in _SOLVERS:
        raise ValueError(f"unknown solver {cfg.solver!r}; choices: {', '.join(sorted(_SOLVERS))}")
    problem, op, grids = _setup(cfg)
    states = _SOLVERS[cfg.solver](problem, op, grids)
    rows = [
        (n, n * grids.dT, l2_norm(op, states[n]), float(states[n].min()), float(states[n].max()))
        for n in range(grids.nt + 1)
    ]
    return ("n", "t", "l2_norm", "min", "max"), rows


def cmd_parareal(cfg):
    problem, op, grids = _setup(cfg)
    threads = _effective_threads(cfg)
    reference = run_fine_sequential(problem, op, grids)[0] if cfg.reference else None
    _, report = parareal_solve(
        problem, op, grids, tol=cfg.tol, k_max=cfg.kmax, threads=threads, reference=reference
    )
    header = ["k", "max_diff"]
    if cfg.reference:
        header.append("err_vs_fine")
    header.append("wall_time_cumulative")
    rows = []
    for k in range(1, report.iterations + 1):
        row = [k, report.diffs[k - 1]]
        if cfg.reference:
            row.append(report.errors_vs_reference[k])
        row.append(report.iteration_times[k - 1])
        rows.append(tuple(row))
    fired = "tolerance" if report.stop_reason == "tol" else "iteration limit"
    print(
        f"stopped by {fired} after {report.iterations} iterations "
        f"(last diff {report.diffs[-1]:.3e})",
        file=sys.stderr,
    )
    return header, rows


def cmd_bench(cfg):
    if not cfg.sweep:
        raise ValueError("bench needs a nonempty --sweep list of dof values")
    threads = _effective_threads(cfg)
    records = [
        bench_point(cfg.problem, dof, alpha=cfg.alpha, t_final=cfg.t_final, degree=cfg.degree,
                    m=cfg.m, tol=cfg.tol, k_max=cfg.kmax, threads=threads, reps=cfg.reps)
        for dof in cfg.sweep
    ]
    header = (
        "dof", "nt", "m", "degree", "threads",
        "wall_time_fine", "wall_time_parareal", "speedup", "iterations_used",
        "final_diff", "peak_alloc_bytes_fine_approx", "peak_alloc_bytes_parareal_approx",
    )
    return header, [dataclasses.astuple(r) for r in records]


def cmd_bounds(cfg):
    # k = 0 is always in range; BoundParams' messages start with the field,
    # which is the setting less "bound_"
    try:
        params = BoundParams(cfg.bound_a, cfg.bound_b, cfg.bound_c, cfg.bound_n, 0)
    except ValueError as exc:
        raise ValueError(f"bound_{exc}") from None
    sums = (double_sum_exact, double_sum_bound, single_sum_exact, single_sum_bound)
    rows = []
    for k in range(params.n + 1):
        at_k = dataclasses.replace(params, k=k)
        rows.append((k, *(fn(at_k) for fn in sums)))
    return ("k", "double_sum", "double_bound", "single_sum", "single_bound"), rows


def cmd_truncation(cfg):
    alpha = cfg.alpha if cfg.alpha is not None else 0.5
    nt_list = cfg.sweep or (8, 16, 32, 64)
    t_final = cfg.t_final if cfg.t_final is not None else 1.0
    study = truncation_study(alpha, cfg.m, nt_list, function=cfg.function, t_final=t_final)
    for region in ("n0", "n1", "n2plus"):
        print(f"fitted order {region}: {study.orders[region]:.4f}", file=sys.stderr)
    return ("nt", "dt", "region", "n", "r", "t", "abs_error"), study.rows


def _sweep_list(text):
    try:
        return _int_tuple(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma list of integers: {text!r}")


# setting -> (flag, add_argument keywords); t_final is a config key only
_FLAGS = {
    "out": ("--out", dict(help="output CSV path")),
    "problem": ("--problem", dict(choices=registry_names(), help="builtin problem")),
    "alpha": ("--alpha", dict(type=float, help="fractional order in (0, 1]")),
    "nt": ("--nt", dict(type=int, help="coarse intervals")),
    "m": ("--m", dict(type=int, help="fine steps per coarse interval")),
    "degree": ("--n", dict(type=int, help="spectral degree")),
    "tol": ("--tol", dict(type=float, help="parareal stopping tolerance")),
    "kmax": ("--kmax", dict(type=int, help="parareal iteration cap")),
    "threads": ("--threads", dict(type=int, help="parallel-stage processes, the caller included")),
    "solver": ("--solver", dict(choices=sorted(_SOLVERS), help="which propagator to run")),
    "reference": ("--reference", dict(action="store_true", default=None,
                                      help="report errors against the sequential fine solver")),
    "sweep": ("--sweep", dict(type=_sweep_list, help="comma list of integers: the dof values "
                                                     "of bench, the nt levels of truncation")),
    "reps": ("--reps", dict(type=int, help="timing repetitions (min is reported)")),
    "function": ("--function", dict(choices=sorted(TRUNCATION_FUNCTIONS), help="test function")),
    "bound_a": ("--a", dict(type=float, help="per-step error coefficient")),
    "bound_b": ("--b", dict(type=float, help="cross-iterate coefficient")),
    "bound_c": ("--c", dict(type=float, help="within-iterate coefficient")),
    "bound_n": ("--n", dict(type=int, help="table depth (k runs 0..n)")),
}

# command -> (function, help, the settings it takes as flags besides out)
_COMMANDS = {
    "solve": (cmd_solve, "run one solver and dump the coarse-node trajectory",
              ("problem", "alpha", "nt", "m", "degree", "solver")),
    "parareal": (cmd_parareal, "run the parareal iteration",
                 ("problem", "alpha", "nt", "m", "degree", "tol", "kmax", "threads",
                  "reference")),
    "bench": (cmd_bench, "time fine vs parareal over a dof sweep",
              ("problem", "alpha", "m", "degree", "tol", "kmax", "threads", "sweep", "reps")),
    "bounds": (cmd_bounds, "binomial sums and their closed-form estimates",
               ("bound_a", "bound_b", "bound_c", "bound_n")),
    "truncation": (cmd_truncation, "hybrid-operator truncation error study",
                   ("alpha", "m", "sweep", "function")),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="parafrac",
        description="Parallel-in-time solver for quasilinear time-fractional diffusion",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, settings) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="key = value config file ([run] section)")
        for setting in ("out", *settings):
            flag, kwargs = _FLAGS[setting]
            p.add_argument(flag, dest=setting, **kwargs)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    run, _, settings = _COMMANDS[args.command]
    try:
        cfg = _config_from_sources(args)
        startup = f"parafrac {args.command}:"
        if "problem" in settings:
            startup += f" problem={cfg.problem}"
        if "threads" in settings:
            startup += f" threads={_effective_threads(cfg)}"
        print(startup, file=sys.stderr)
        header, rows = run(cfg)
        out = cfg.out or f"{args.command}.csv"
        _write_csv(out, header, rows)
        print(f"wrote {out} ({len(rows)} rows)", file=sys.stderr)
        return 0
    except (ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ParafracError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
