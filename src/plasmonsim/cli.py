"""Command-line interface: paper-figure regressions and generic scenario runs.

Exit codes: 0 success, 1 configuration error, 2 numerical error.  All
errors go to stderr with a machine-parseable "ERROR[code]:" prefix.  A
closed stdout (a reader such as `head` that exits early) also ends the
command with exit code 1, silently.  Output is deterministic:
byte-identical across runs.
"""

import argparse
import math
import os
import sys

import numpy as np

from . import dynamics as dyn
from .config import BUILTIN_CONFIGS, MAX_POINTS, parse_config
from .errors import ConfigError, PlasmonSimError
from .experiments import (
    enhancement_map,
    optimal_Q,
    run_fig1c,
    run_fig2,
    run_fig3,
    run_fig4,
    with_cavity,
)
from .network import radiated_power, yield_from_powers
from .results import ResultTable, scenario_metadata


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
    count = int(round(span)) + 1 if math.isfinite(span) else math.inf
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


def _write(table, out_dir, fmt):
    os.makedirs(out_dir, exist_ok=True)
    ext = "csv" if fmt == "csv" else "json"
    path = os.path.join(out_dir, f"{table.name}.{ext}")
    table.write(path, fmt)
    print(path)
    return path


def _reject_grid(args, reason):
    """A --grid the command would ignore is an error, not a silent default."""
    if args.grid is not None:
        raise ConfigError(f"--grid does not apply to {args.command}: {reason}")


def _spectral_grid(parsed, points_override):
    """Pump detunings of [sweep] start_ev..stop_ev, default Delta_0 +/- 8 meV, 2001 points."""
    sweep = parsed.sweep
    points = points_override or sweep.get("points", 2001)
    if "start_ev" in sweep:  # the config requires stop_ev with it
        return np.linspace(sweep["start_ev"], sweep["stop_ev"], points)
    delta_0 = parsed.scenario["delta_0_ev"]
    return np.linspace(delta_0 - 8e-3, delta_0 + 8e-3, points)


def cmd_fig1c(args):
    result = run_fig1c(parse_config("fig1c").scenario, points=args.grid or 2001)
    table = ResultTable.from_arrays(
        "fig1c",
        ("detuning_ev", "phi_rad_cavity", "phi_rad_bare", "phi_abs_cavity", "phi_abs_bare"),
        (result.detunings, result.rad_cavity, result.rad_bare,
         result.abs_cavity, result.abs_bare),
        scenario_metadata(result.scenario),
    )
    _write(table, args.out, args.format)
    return 0


def cmd_fig2(args):
    builtin = "fig2_first_principles" if args.first_principles else "fig2"
    result = run_fig2(parse_config(builtin).scenario, points=args.grid or 401)
    meta = scenario_metadata(result.scenario)
    meta["result.yield_at_delta0"] = result.yield_at_delta0
    meta["result.bare_yield_at_delta0"] = result.bare_yield_at_delta0
    meta["result.rad_enhancement_at_delta0"] = result.rad_enhancement_at_delta0
    table_yield = ResultTable.from_arrays(
        "fig2_yield",
        ("detuning_ev", "yield_cavity", "yield_bare", "abs_plasmon_norm"),
        (result.detunings, result.yield_cavity, result.yield_bare, result.abs_plasmon),
        meta,
    )
    table_power = ResultTable.from_arrays(
        "fig2_power",
        ("detuning_ev", "phi_rad_cavity", "phi_rad_bare"),
        (result.detunings, result.rad_cavity, result.rad_bare),
        meta,
    )
    _write(table_yield, args.out, args.format)
    _write(table_power, args.out, args.format)
    return 0


def cmd_fig3(args):
    result = run_fig3(parse_config("fig3").scenario, spectrum_points=args.grid or 2001)
    meta = scenario_metadata(result.scenario)
    meta["result.settle_fs"] = result.settle_fs
    for label, count in sorted(result.trace_maxima.items()):
        meta[f"result.maxima_{label}"] = count
    table_traces = ResultTable.from_arrays(
        "fig3_traces",
        ("time_fs", "pop_q1e3", "pop_q1e4", "pop_q1e5", "pop_no_cavity"),
        (result.times_fs, result.traces["q1e3"], result.traces["q1e4"],
         result.traces["q1e5"], result.traces["no_cavity"]),
        meta,
    )
    table_spec = ResultTable.from_arrays(
        "fig3_spectrum",
        ("detuning_ev", "phi_rad_cavity", "phi_rad_bare"),
        (result.detunings, result.rad_cavity, result.rad_bare),
        meta,
    )
    _write(table_traces, args.out, args.format)
    _write(table_spec, args.out, args.format)
    return 0


def _branch_table(name, branchset, metadata):
    columns = ["delta_ec_ev"]
    arrays = [branchset.sweep_values]
    for b in range(branchset.n_branches):
        columns += [f"branch{b}_re_ev", f"branch{b}_im_ev"]
        arrays += [branchset.eigenvalues[:, b].real, branchset.eigenvalues[:, b].imag]
    return ResultTable.from_arrays(name, columns, arrays, metadata)


def _anticrossing_metadata(scenario, metrics):
    meta = scenario_metadata(scenario)
    meta["result.two_g_eff_ev"] = metrics.two_g_eff
    meta["result.kappa_1_ev"] = metrics.kappa_1
    meta["result.kappa_2_ev"] = metrics.kappa_2
    meta["result.cooperativity"] = metrics.cooperativity
    return meta


def cmd_fig4(args):
    scenario = parse_config("fig4").scenario
    sweep = _detuning_sweep(args, scenario)
    spectrum_points = args.grid or 801
    _check_points("the fig4 spectra map", sweep.size * spectrum_points)
    result = run_fig4(scenario, sweep, spectrum_points=spectrum_points)
    meta = _anticrossing_metadata(result.scenario, result.metrics)
    _write(_branch_table("fig4_branches", result.branches, meta), args.out, args.format)
    detunings = result.detunings
    table = ResultTable.from_arrays(
        "fig4_spectra",
        ("delta_ec_ev", "detuning_ev", "phi_rad_total"),
        (np.repeat(sweep, detunings.size), np.tile(detunings, sweep.size),
         result.spectra.ravel()),
        scenario_metadata(result.spectra_scenario),
    )
    _write(table, args.out, args.format)
    return 0


def _load(args):
    if not args.config:
        raise ConfigError("this subcommand needs --config (a path or one of: "
                          + ", ".join(sorted(BUILTIN_CONFIGS)) + ")")
    return parse_config(args.config)


def cmd_spectrum(args):
    parsed = _load(args)
    scenario = parsed.scenario
    h = scenario.hamiltonian()
    grid = _spectral_grid(parsed, args.grid)
    amps, powers = dyn.steady_state_sweep(h, grid, scenario["drive_mode"])
    # the vacuum port is coherent; report its interference part separately so
    # the diagonal (per-mode) decomposition is also available
    table = ResultTable.from_arrays(
        "spectrum",
        ("detuning_ev", "phi_rad_total", "phi_rad_vacuum", "phi_rad_vacuum_cross",
         "phi_rad_cavity_port", "phi_ohmic_plasmon", "phi_ohmic_emitter"),
        (grid, radiated_power(powers), powers["rad_vacuum"], h.vacuum_cross_term(amps),
         powers["rad_cavity"], powers["ohmic_plasmon"], powers["ohmic_emitter"]),
        scenario_metadata(scenario),
    )
    _write(table, args.out, args.format)
    return 0


def cmd_yield(args):
    parsed = _load(args)
    scenario = parsed.scenario
    h = scenario.hamiltonian()
    h_bare = scenario.hamiltonian(bare=True)
    grid = _spectral_grid(parsed, args.grid)
    drive = scenario["drive_mode"]
    _, powers = dyn.steady_state_sweep(h, grid, drive)
    _, powers_b = dyn.steady_state_sweep(h_bare, grid, drive)
    table = ResultTable.from_arrays(
        "yield",
        ("detuning_ev", "yield_cavity", "yield_bare"),
        (grid, yield_from_powers(powers), yield_from_powers(powers_b)),
        scenario_metadata(scenario),
    )
    _write(table, args.out, args.format)
    return 0


def cmd_evolve(args):
    parsed = _load(args)
    scenario = parsed.scenario
    h = scenario.hamiltonian()
    points = args.grid or parsed.sweep.get("t_points", 4096)
    span_fs = parsed.sweep.get("t_span_fs")
    if span_fs is None:
        times_fs = dyn.default_time_grid(h, points)
    else:
        times_fs = np.linspace(0.0, span_fs, points)
    initial = np.zeros(len(h.labels), dtype=complex)
    initial[h.index("emitter")] = 1.0
    trace = dyn.evolve(h, initial, times_fs)
    table = ResultTable.from_arrays(
        "evolve",
        ("time_fs", "pop_plasmon", "pop_cavity", "pop_emitter", "pop_total"),
        (times_fs, trace.population("plasmon"), trace.population("cavity"),
         trace.population("emitter"), trace.total),
        scenario_metadata(scenario),
    )
    _write(table, args.out, args.format)
    return 0


def cmd_eigen(args):
    _reject_grid(args, "its points are those of --sweep")
    scenario = parse_config(args.config or "fig4").scenario
    sweep = _detuning_sweep(args, scenario)
    branchset = dyn.eigen_branches(with_cavity(scenario, -sweep).hamiltonian().matrix, sweep)
    meta = _anticrossing_metadata(scenario, dyn.anticrossing_metrics(branchset))
    _write(_branch_table("eigen", branchset, meta), args.out, args.format)
    return 0


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
    grid = enhancement_map(design.scenario,
                           np.geomspace(sweep["d_min_nm"], sweep["d_max_nm"], n_d),
                           np.geomspace(sweep["q_min"], sweep["q_max"], n_q))
    dd, qq = np.meshgrid(grid.d_nm, grid.q_factor, indexing="ij")
    table = ResultTable.from_arrays(
        "map",
        ("d_nm", "q_factor", "yield_enhancement", "power_enhancement"),
        (dd.ravel(), qq.ravel(), grid.yield_enhancement.ravel(),
         grid.power_enhancement.ravel()),
        {**scenario_metadata(design.scenario), "d_points": n_d, "q_points": n_q},
    )
    _write(table, args.out, args.format)
    return 0


def cmd_optq(args):
    _reject_grid(args, "its Q search is adaptive")
    distances = args.d_nm or [5.0, 10.0, 15.0]
    for d in distances:
        if not (math.isfinite(d) and d > 0):
            raise ConfigError(f"--d-nm must be a finite distance > 0 nm, got {d}")
    scenario = parse_config(DESIGN_SCENARIO).scenario
    rows = []
    for d in distances:
        res = optimal_Q(scenario, d, objective=args.objective)
        rows.append((d, res.q_opt, res.value, res.objective, int(res.boundary)))
    table = ResultTable("optq", ("d_nm", "q_opt", "value", "objective", "boundary"), rows,
                        {**scenario_metadata(scenario), "objective": args.objective})
    _write(table, args.out, args.format)
    return 0


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


def build_parser():
    parser = argparse.ArgumentParser(
        prog="plasmonsim",
        description="Coupled-mode simulator for a microcavity-engineered plasmonic "
                    "nanoparticle interacting with a single quantum emitter.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text, config=True, sweep=False):
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
        p.set_defaults(fn=fn)
        return p

    add("fig1c", cmd_fig1c, "MNP dissipation spectra with/without cavity (builtin fig1c)",
        config=False)
    p2 = add("fig2", cmd_fig2, "quantum yield and radiated power spectra (builtin fig2)",
             config=False)
    p2.add_argument("--first-principles", action="store_true",
                    help="derive all couplings from the geometry instead of the quoted set "
                         "(builtin fig2_first_principles)")
    add("fig3", cmd_fig3, "Rabi oscillation traces and emission doublet (builtin fig3)",
        config=False)
    add("fig4", cmd_fig4, "anti-crossing eigen branches and spectra map (builtin fig4)",
        config=False, sweep=True)
    add("spectrum", cmd_spectrum, "emission spectrum of a configured scenario")
    add("yield", cmd_yield, "quantum yield spectrum of a configured scenario")
    add("evolve", cmd_evolve, "single-excitation time evolution of a configured scenario")
    add("eigen", cmd_eigen, "eigenvalue branches over emitter-cavity detuning "
        "(default config: fig4)", sweep=True)
    add("map", cmd_map, f"(D, Q) enhancement maps of builtin {DESIGN_SCENARIO} "
        "(--config sets only the [sweep] axes)")
    popt = add("optq", cmd_optq, f"optimal cavity Q per emitter distance (builtin {DESIGN_SCENARIO})",
               config=False)
    popt.add_argument("--objective", choices=("yield", "power"), default="yield")
    popt.add_argument("--d-nm", type=float, action="append", default=None,
                      help="emitter distance(s) in nm (repeatable; default 5, 10, 15)")
    add("validate", cmd_validate, "parse and print a resolved scenario, run nothing")
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
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        try:
            args = parser.parse_args(_merge_sweep_values(list(argv)))
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
