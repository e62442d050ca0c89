"""Seeded workload generator: configs and argv for each benchmark workload.

A workload is a fixed sequence of plasmonsim CLI commands.  The seed draws
parameter values within fixed ranges; grid and point counts are fixed per
workload, so the work per run is comparable across seeds.  Every emitter
distance is >= 2 nm and every sphere radius is 10 nm, so no validity warning
fires.  The program receives only the files and argv produced here.
"""

import math
import os
import random
from dataclasses import dataclass, field

MAP_POINTS = 61
OPTQ_DISTANCES = 5
TRACE_POINTS = 4096
EIGEN_POINTS = 41
SPECTRUM_POINTS = 2001
BIG_SPECTRUM_POINTS = 200_000

#: column contracts of every table the workloads write (cli.py and the README)
COLUMNS = {
    "map": ("d_nm", "q_factor", "yield_enhancement", "power_enhancement"),
    "optq": ("d_nm", "q_opt", "value", "objective", "boundary"),
    "fig1c": ("detuning_ev", "phi_rad_cavity", "phi_rad_bare", "phi_abs_cavity",
              "phi_abs_bare"),
    "fig2_yield": ("detuning_ev", "yield_cavity", "yield_bare", "abs_plasmon_norm"),
    "fig2_power": ("detuning_ev", "phi_rad_cavity", "phi_rad_bare"),
    "fig3_traces": ("time_fs", "pop_q1e3", "pop_q1e4", "pop_q1e5", "pop_no_cavity"),
    "fig3_spectrum": ("detuning_ev", "phi_rad_cavity", "phi_rad_bare"),
    "fig4_branches": ("delta_ec_ev",) + tuple(
        f"branch{b}_{part}_ev" for b in range(3) for part in ("re", "im")),
    "fig4_spectra": ("delta_ec_ev", "detuning_ev", "phi_rad_total"),
    "evolve": ("time_fs", "pop_plasmon", "pop_cavity", "pop_emitter", "pop_total"),
    "eigen": ("delta_ec_ev",) + tuple(
        f"branch{b}_{part}_ev" for b in range(3) for part in ("re", "im")),
    "spectrum": ("detuning_ev", "phi_rad_total", "phi_rad_vacuum", "phi_rad_vacuum_cross",
                 "phi_rad_cavity_port", "phi_ohmic_plasmon", "phi_ohmic_emitter"),
    "yield": ("detuning_ev", "yield_cavity", "yield_bare"),
}


@dataclass(frozen=True)
class Table:
    """One table a command must write, with its expected row count and bounds."""

    name: str
    rows: int
    bounds: dict = field(default_factory=dict)  # column -> (low, high), inclusive


@dataclass(frozen=True)
class Command:
    """One CLI invocation; argv excludes --out, which the runner appends."""

    id: str
    argv: tuple
    tables: tuple = ()
    stdout_has: str = ""  # text the command must print (validate)


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    commands: tuple
    files: dict  # relative path -> text, written into the work directory


def _fmt(x):
    return repr(float(x))


def sphere_config(rng, name, points, mode="first_principles", sweep=""):
    """A resolved-sphere scenario (radius 10 nm, distance 2..30 nm) with seeded parameters."""
    if mode == "paper_exact":
        couplings = (
            "mode = paper_exact\n"
            f"g1_mev = {_fmt(-rng.uniform(2.0, 4.0))}\n"
            f"G_mev = {_fmt(-rng.uniform(5.0, 10.0))}\n"
            f"J_uev = {_fmt(-rng.uniform(100.0, 200.0))}\n"
            f"gamma_m_uev = {_fmt(rng.uniform(50.0, 120.0))}\n"
            f"gamma_s_uev = {_fmt(rng.uniform(2.0, 4.0))}\n"
            f"gamma_1r_mev = {_fmt(rng.uniform(2.0, 3.0))}\n"
        )
    else:
        couplings = "mode = first_principles\n"
    return (
        "[metal]\neps_inf = 1.0\nomega_p_ev = 4.0\ngamma_o_ev = 0.2\n\n"
        "[environment]\neps_b = 1.0\n\n"
        "[particle]\nshape = sphere\nradius_nm = 10.0\n\n"
        "[emitter]\nmu_e_nm = 1.0\n"
        f"distance_nm = {_fmt(rng.uniform(2.0, 30.0))}\n"
        f"orientation = {rng.choice(('radial', 'tangential'))}\n"
        f"angle_to_cavity_deg = {_fmt(rng.uniform(0.0, 80.0))}\n"
        f"delta_1e_ev = {_fmt(rng.uniform(-0.02, 0.02))}\n\n"
        "[cavity]\n"
        f"vc_um3 = {_fmt(rng.uniform(0.5, 2.0))}\n"
        f"q_factor = {_fmt(10.0 ** rng.uniform(3.0, 6.0))}\n"
        f"delta_ce_ev = {_fmt(rng.uniform(-1e-3, 1e-3))}\n\n"
        f"[couplings]\n{couplings}\n"
        f"[sweep]\npoints = {points}\n{sweep}\n"
        f"[run]\ndrive = {rng.choice(('emitter', 'plasmon'))}\nname = {name}\n"
    )


def strong_coupling_config(rng, name):
    """The tilted-ellipsoid (fig3) geometry at a seeded Q and time span."""
    return (
        "[metal]\neps_inf = 1.0\nomega_p_ev = 4.0\ngamma_o_ev = 0.2\n\n"
        "[environment]\neps_b = 1.0\n\n"
        "[particle]\nshape = ellipsoid\na1_nm = 33.0\na2_nm = 5.5\na3_nm = 5.5\n\n"
        "[emitter]\nmu_e_nm = 1.0\ndistance_nm = 5.0\norientation = radial\n"
        "angle_to_cavity_deg = 90.0\ndelta_1e_ev = 0.6\n\n"
        "[cavity]\nvc_um3 = 0.1\n"
        f"q_factor = {_fmt(10.0 ** rng.uniform(3.0, 5.0))}\n"
        "delta_ce_ev = 1.5e-3\n\n"
        "[couplings]\nmode = calibrated\ntheta_deg = 60.0\n"
        "two_g_eff_mev = 3.5\nkappa2_mev = 0.11\n\n"
        f"[sweep]\nt_span_fs = {_fmt(rng.uniform(5000.0, 12000.0))}\n"
        f"t_points = {TRACE_POINTS}\n\n"
        f"[run]\ndrive = emitter\nname = {name}\n"
    )


NON_NEGATIVE = (0.0, math.inf)
POSITIVE = (math.ulp(0.0), math.inf)
UNIT = (0.0, 1.0)


def design_map(rng):
    # the quench sum needs more multipole terms at small D, so a narrow D range
    # keeps the work per run within a few percent across seeds
    d_min, d_max = rng.uniform(2.0, 2.4), rng.uniform(26.0, 34.0)
    q_min, q_max = 10.0 ** rng.uniform(2.0, 2.5), 10.0 ** rng.uniform(6.5, 7.5)
    sweep = (f"d_min_nm = {_fmt(d_min)}\nd_max_nm = {_fmt(d_max)}\nd_points = {MAP_POINTS}\n"
             f"q_min = {_fmt(q_min)}\nq_max = {_fmt(q_max)}\nq_points = {MAP_POINTS}\n")
    files = {"map.ini": sphere_config(rng, "design_map", SPECTRUM_POINTS, sweep=sweep)}
    distances = sorted(rng.uniform(2.0 + 5.0 * k, 7.0 + 5.0 * k) for k in range(OPTQ_DISTANCES))
    objective = rng.choice(("yield", "power"))
    optq_argv = ["optq", "--objective", objective]
    for d in distances:
        optq_argv += ["--d-nm", _fmt(d)]
    eps = 1e-8  # cells are rounded to 9 significant digits
    commands = (
        Command("map", ("map", "--config", "map.ini"), (
            Table("map", MAP_POINTS * MAP_POINTS, {
                "d_nm": (d_min * (1 - eps), d_max * (1 + eps)),
                "q_factor": (q_min * (1 - eps), q_max * (1 + eps)),
                "yield_enhancement": POSITIVE, "power_enhancement": POSITIVE}),)),
        Command("optq", tuple(optq_argv), (
            Table("optq", OPTQ_DISTANCES, {
                "q_opt": (1e2 * (1 - eps), 1e7 * (1 + eps)), "value": POSITIVE,
                "boundary": UNIT}),)),
    )
    return commands, files


def strong_coupling(rng):
    files = {"evolve.ini": strong_coupling_config(rng, "strong_coupling")}
    start = -rng.uniform(8e-3, 12e-3)
    step = rng.uniform(0.4e-3, 0.6e-3)
    sweep = f"{start:.6e}:{start + (EIGEN_POINTS - 1) * step:.6e}:{step:.6e}"
    branches = {f"branch{b}_im_ev": (-math.inf, 0.0) for b in range(3)}
    population = (0.0, 1.0 + 1e-8)
    commands = (
        Command("fig3", ("fig3",), (
            Table("fig3_traces", TRACE_POINTS, {
                c: population for c in COLUMNS["fig3_traces"][1:]}),
            Table("fig3_spectrum", SPECTRUM_POINTS, {
                "phi_rad_cavity": NON_NEGATIVE, "phi_rad_bare": NON_NEGATIVE}),)),
        Command("fig4", ("fig4",), (
            Table("fig4_branches", 11, branches),
            Table("fig4_spectra", 11 * 801, {"phi_rad_total": NON_NEGATIVE}),)),
        Command("evolve", ("evolve", "--config", "evolve.ini"), (
            Table("evolve", TRACE_POINTS, {
                c: population for c in COLUMNS["evolve"][1:]}),)),
        Command("eigen", ("eigen", "--config", "fig4", "--sweep", sweep), (
            Table("eigen", EIGEN_POINTS, branches),)),
    )
    return commands, files


def spectra_io(rng):
    files = {
        "a.ini": sphere_config(rng, "spectra_a", SPECTRUM_POINTS),
        "b.ini": sphere_config(rng, "spectra_b", SPECTRUM_POINTS, mode="paper_exact"),
        "big.ini": sphere_config(rng, "spectra_big", BIG_SPECTRUM_POINTS),
    }
    powers = {c: NON_NEGATIVE for c in COLUMNS["spectrum"][1:]
              if c != "phi_rad_vacuum_cross"}
    yields = {"yield_cavity": UNIT, "yield_bare": UNIT}

    commands = (
        Command("fig1c", ("fig1c",), (
            Table("fig1c", 2001, {c: NON_NEGATIVE for c in COLUMNS["fig1c"][1:]}),)),
        Command("fig2", ("fig2",), (
            Table("fig2_yield", 401, {**yields, "abs_plasmon_norm": UNIT}),
            Table("fig2_power", 401, {"phi_rad_cavity": NON_NEGATIVE,
                                      "phi_rad_bare": NON_NEGATIVE}),)),
        Command("validate", ("validate", "--config", "a.ini"),
                stdout_has="scenario spectra_a: OK"),
        Command("spectrum_a", ("spectrum", "--config", "a.ini"),
                (Table("spectrum", SPECTRUM_POINTS, powers),)),
        Command("yield_b", ("yield", "--config", "b.ini"),
                (Table("yield", SPECTRUM_POINTS, yields),)),
        Command("spectrum_big", ("spectrum", "--config", "big.ini"),
                (Table("spectrum", BIG_SPECTRUM_POINTS, powers),)),
    )
    return commands, files


#: workload name -> generator; the reason for each workload is in BENCHMARK.json
GENERATORS = {
    "design_map": design_map,
    "strong_coupling": strong_coupling,
    "spectra_io": spectra_io,
}


def generate(name, seed):
    """Build the workload `name` for `seed`; the same seed gives the same inputs."""
    if name not in GENERATORS:
        raise ValueError(f"unknown workload {name!r}; choose from {sorted(GENERATORS)}")
    rng = random.Random(f"{name}:{seed}")
    commands, files = GENERATORS[name](rng)
    return Workload(name, seed, commands, files)


def write_inputs(workload, directory):
    """Write the workload's config files into `directory` (created if absent)."""
    os.makedirs(directory, exist_ok=True)
    for rel, text in workload.files.items():
        with open(os.path.join(directory, rel), "w", encoding="utf-8") as fh:
            fh.write(text)
