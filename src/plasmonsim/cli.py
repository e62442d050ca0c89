"""Command-line interface: paper-figure regressions and generic scenario runs.

Each command parses its arguments, checks them at the boundary, resolves
its config and grid, and writes the tables that the experiments module
builds; no table is assembled here.

Exit codes: 0 success, 1 configuration error, 2 numerical error.  All
errors go to stderr with a machine-parseable "ERROR[code]:" prefix.  A
closed stdout (a reader such as `head` that exits early) also ends the
command with exit code 1, silently.  Output is deterministic:
byte-identical across runs.
"""

import argparse
import atexit
import gc
import math
import os
import sys

import numpy as np

from .config import BUILTIN_CONFIGS, MAX_POINTS, parse_config
from .dynamics import Linspace
from .errors import ConfigError, PlasmonSimError
from .experiments import (
    FIG4_SPECTRUM_POINTS,
    branch_table,
    enhancement_map,
    evolve_table,
    optq_table,
    run_fig1c,
    run_fig2,
    run_fig3,
    run_fig4,
    spectrum_table,
    yield_table,
)


def _check_points(what, count):
    if count > MAX_POINTS:
        raise ConfigError(f"{what} asks for {count} points; at most {MAX_POINTS} are allowed")


def _parse_sweep(text):
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"--sweep expects start:stop:step, got {text!r}")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise ConfigError(f"--sweep values must be numbers, got {text!r}") from None
    if not all(map(math.isfinite, (start, stop, step))):
        raise ConfigError(f"--sweep values must be finite, got {text!r}")
    if step <= 0 or stop <= start:
        raise ConfigError(f"--sweep needs stop > start and step > 0, got {text!r}")
    span = (stop - start) / step  # inf when the quotient overflows
    # the whole steps in the span, 1e-3 of a step forgiven for rounding: never past the stop
    count = math.floor(span + 1e-3) + 1 if math.isfinite(span) else math.inf
    _check_points(f"--sweep {text}", count)
    return start + step * np.arange(count)


def _detuning_sweep(args, scenario):
    """Emitter-cavity detunings of --sweep, default -10..10 meV in 2 meV steps.

    Each puts the scenario's cavity at omega_e - delta_ec, which must be > 0.
    """
    sweep = _parse_sweep(args.sweep) if args.sweep else 2e-3 * np.arange(-5, 6)
    omega_c = scenario["omega_e_ev"] - sweep[-1]  # the sweep increases
    if omega_c <= 0:
        raise ConfigError(f"sweep value delta_ec = {sweep[-1]:g} eV puts the cavity at "
                          f"non-positive frequency {omega_c} eV")
    return sweep


def _write(tables, args):
    """Write each table into --out in --format, print its path, and return exit code 0."""
    os.makedirs(args.out, exist_ok=True)
    for table in tables:
        path = os.path.join(args.out, f"{table.name}.{args.format}")
        table.write(path, args.format)
        print(path)
    return 0


def _reject_grid(args, reason):
    """A --grid the command would ignore is an error, not a silent default."""
    if args.grid is not None:
        raise ConfigError(f"--grid does not apply to {args.command}: {reason}")


def _spectral_grid(parsed, points_override):
    """Pump detunings of [sweep] start_ev..stop_ev, default Delta_0 +/- 8 meV, at [sweep] points,
    as a Linspace."""
    sweep = parsed.sweep
    points = points_override or sweep["points"]
    if "start_ev" in sweep:  # the config requires stop_ev with it
        return Linspace(sweep["start_ev"], sweep["stop_ev"], points)
    delta_0 = parsed.scenario["delta_0_ev"]
    return Linspace(delta_0 - 8e-3, delta_0 + 8e-3, points)


def _grid(args, keyword):
    """--grid as the runner's `keyword` argument; without --grid the runner's default holds."""
    return {} if args.grid is None else {keyword: args.grid}


def cmd_fig1c(args):
    return _write([run_fig1c(parse_config("fig1c").scenario, **_grid(args, "points"))], args)


def cmd_fig2(args):
    builtin = "fig2_first_principles" if args.first_principles else "fig2"
    return _write(run_fig2(parse_config(builtin).scenario, **_grid(args, "points")), args)


def cmd_fig3(args):
    return _write(
        run_fig3(parse_config("fig3").scenario, **_grid(args, "spectrum_points")), args)


def cmd_fig4(args):
    scenario = parse_config("fig4").scenario
    sweep = _detuning_sweep(args, scenario)
    spectrum_points = args.grid or FIG4_SPECTRUM_POINTS
    _check_points("the fig4 spectra map", sweep.size * spectrum_points)
    return _write(run_fig4(scenario, sweep, spectrum_points), args)


def _load(args):
    if not args.config:
        raise ConfigError("this subcommand needs --config (a path or one of: "
                          + ", ".join(sorted(BUILTIN_CONFIGS)) + ")")
    return parse_config(args.config)


def cmd_spectrum(args):
    parsed = _load(args)
    return _write([spectrum_table(parsed.scenario, _spectral_grid(parsed, args.grid))], args)


def cmd_yield(args):
    parsed = _load(args)
    return _write([yield_table(parsed.scenario, _spectral_grid(parsed, args.grid))], args)


def cmd_evolve(args):
    parsed = _load(args)
    points = args.grid or parsed.sweep["t_points"]
    return _write(
        [evolve_table(parsed.scenario, points, parsed.sweep.get("t_span_fs"))], args)


def cmd_eigen(args):
    _reject_grid(args, "its points are those of --sweep")
    scenario = parse_config(args.config or "fig4").scenario
    return _write([branch_table("eigen", scenario, _detuning_sweep(args, scenario))], args)


#: the scenario map and optq sweep over emitter distance and cavity Q
DESIGN_SCENARIO = "fig2_first_principles"


def cmd_map(args):
    # --config sets only the [sweep] axes; the swept system is always DESIGN_SCENARIO
    if args.config:
        _reject_grid(args, "with --config the axes are the config's [sweep]")
    design = parse_config(DESIGN_SCENARIO)
    sweep = parse_config(args.config).sweep if args.config else design.sweep
    n_d, n_q = args.grid or sweep["d_points"], args.grid or sweep["q_points"]
    _check_points("the map", n_d * n_q)
    return _write([enhancement_map(
        design.scenario, np.geomspace(sweep["d_min_nm"], sweep["d_max_nm"], n_d),
        np.geomspace(sweep["q_min"], sweep["q_max"], n_q))], args)


def cmd_optq(args):
    _reject_grid(args, "its Q search is adaptive")
    distances = args.d_nm or [5.0, 10.0, 15.0]
    _check_points("--d-nm", len(distances))
    for d in distances:
        if not (math.isfinite(d) and d > 0):
            raise ConfigError(f"--d-nm must be a finite distance > 0 nm, got {d}")
    return _write(
        [optq_table(parse_config(DESIGN_SCENARIO).scenario, distances, args.objective)], args)


def cmd_validate(args):
    _reject_grid(args, "it runs nothing")
    parsed = _load(args)
    scenario = parsed.scenario
    print(f"scenario {scenario.name}: OK")
    for key in sorted(scenario.params):
        prov = scenario.provenance.get(key, "")
        print(f"  {key} = {scenario.params[key]!r}" + (f"  [{prov}]" if prov else ""))
    for note in scenario.notes:
        print(f"  note: {note}")
    return 0


#: subcommand -> (help, takes --config, takes --sweep), in the order the usage lists them;
#: the handler of each is this module's cmd_<subcommand>
COMMANDS = {
    "fig1c": ("MNP dissipation spectra with/without cavity (builtin fig1c)", False, False),
    "fig2": ("quantum yield and radiated power spectra (builtin fig2)", False, False),
    "fig3": ("Rabi oscillation traces and emission doublet (builtin fig3)", False, False),
    "fig4": ("anti-crossing eigen branches and spectra map (builtin fig4)", False, True),
    "spectrum": ("emission spectrum of a configured scenario", True, False),
    "yield": ("quantum yield spectrum of a configured scenario", True, False),
    "evolve": ("single-excitation time evolution of a configured scenario", True, False),
    "eigen": ("eigenvalue branches over emitter-cavity detuning (default config: fig4)",
              True, True),
    "map": (f"(D, Q) enhancement maps of builtin {DESIGN_SCENARIO} "
            "(--config sets only the [sweep] axes)", True, False),
    "optq": (f"optimal cavity Q per emitter distance (builtin {DESIGN_SCENARIO})", False, False),
    "validate": ("parse and print a resolved scenario, run nothing", True, False),
}


def build_parser(argv):
    """The parser of the subcommand that argv names, or of every subcommand if it names none.

    argv names none when it is empty, starts with an option (-h included) or
    starts with a word that is no subcommand; the top-level usage and an
    invalid choice then list them all, and a single subcommand's usage lists
    them too.  Handlers are looked up by name as the parser is built.
    """
    parser = argparse.ArgumentParser(
        prog="plasmonsim",
        description="Coupled-mode simulator for a microcavity-engineered plasmonic "
                    "nanoparticle interacting with a single quantum emitter.",
    )
    names = argv[:1] if argv and argv[0] in COMMANDS else list(COMMANDS)
    sub = parser.add_subparsers(dest="command", required=True, metavar=(
        None if len(names) > 1 else "{" + ",".join(COMMANDS) + "}"))
    for name in names:
        help_text, config, sweep = COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--out", default="./out", help="output directory (default ./out)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--grid", type=int, default=None, help="override grid point count")
        if config:
            p.add_argument("--config", default=None,
                           help="scenario config file or builtin name "
                                f"({', '.join(sorted(BUILTIN_CONFIGS))})")
        if sweep:
            p.add_argument("--sweep", default=None,
                           help="detuning sweep start:stop:step in eV (inclusive)")
        if name == "fig2":
            p.add_argument("--first-principles", action="store_true",
                           help="derive all couplings from the geometry instead of the quoted "
                                "set (builtin fig2_first_principles)")
        if name == "optq":
            p.add_argument("--objective", choices=("yield", "power"), default="yield")
            p.add_argument("--d-nm", type=float, action="append", default=None,
                           help="emitter distance(s) in nm (repeatable; default 5, 10, 15)")
        p.set_defaults(fn=globals()[f"cmd_{name}"])
    return parser


def _merge_sweep_values(argv):
    """Let --sweep accept values with a leading minus (e.g. -10e-3:10e-3:2e-3)."""
    merged = []
    i = 0
    while i < len(argv):
        if argv[i] == "--sweep" and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            merged.append(f"--sweep={argv[i + 1]}")
            i += 2
        else:
            merged.append(argv[i])
            i += 1
    return merged


def main(argv=None):
    # what import built lives as long as the process, so a collection that scans it during
    # the command is wasted work (about 1 ms, whenever one falls inside the command): the
    # command's collections see only the objects it makes
    gc.freeze()
    try:
        return _run(list(sys.argv[1:] if argv is None else argv))
    finally:
        gc.unfreeze()


# frozen, what is left at exit skips the interpreter's final collections; the OS reclaims it
atexit.register(gc.freeze)


def _run(argv):
    argv = _merge_sweep_values(argv)
    parser = build_parser(argv)
    try:
        try:
            args = parser.parse_args(argv)
            if args.grid is not None and args.grid < 1:
                raise ConfigError(f"--grid must be an integer >= 1, got {args.grid}")
            _check_points("--grid", args.grid or 0)
            return args.fn(args)
        finally:
            sys.stdout.flush()  # a closed stdout fails here, inside the handlers below
    except ConfigError as exc:
        print(f"ERROR[config]: {exc}", file=sys.stderr)
        return 1
    except (PlasmonSimError, np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"ERROR[numeric]: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Python's SIGPIPE recipe: point stdout at devnull so that the flush at
        # interpreter exit cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


if __name__ == "__main__":
    sys.exit(main())
