"""Declarative scenario configuration: flat INI-style sections, strictly validated.

Sections are fixed ([metal], [environment], [particle], [emitter], [cavity],
[couplings], [sweep], [run]); keys carry their unit in the name.  Unknown
keys are hard errors with a closest-match suggestion, missing required keys
are reported all at once, every value must be finite, point counts are
integers >= 1, the particle axis is 1, 2 or 3, and the cavity, map-axis and
time-span quantities are > 0.  parse_config resolves the file into a
Scenario with defaults applied and per-parameter provenance recorded.
"""

import configparser
import difflib
import math

from . import couplings as cpl
from . import dynamics as dyn
from . import materials as mat
from .errors import ConfigError
from .experiments import (
    ANTICROSSING_Q,
    Scenario,
    calibrate_fig3_couplings,
    quench_rate_calibrated,
)

_FLOAT = "float"
_POSITIVE = "positive"  # float > 0
_INT = "int"
_COUNT = "count"  # int >= 1
_CHOICE = "choice"

#: section -> key -> (type, default_or_None, choices); integer choices are the allowed values
SCHEMA = {
    "metal": {
        "eps_inf": (_FLOAT, 1.0, None),
        "omega_p_ev": (_FLOAT, 4.0, None),
        "gamma_o_ev": (_FLOAT, 0.2, None),
    },
    "environment": {
        "eps_b": (_FLOAT, 1.0, None),
    },
    "particle": {
        "shape": (_CHOICE, None, ("sphere", "ellipsoid")),
        "radius_nm": (_FLOAT, None, None),
        "a1_nm": (_FLOAT, None, None),
        "a2_nm": (_FLOAT, None, None),
        "a3_nm": (_FLOAT, None, None),
        "axis": (_INT, 1, (1, 2, 3)),
    },
    "emitter": {
        "mu_e_nm": (_FLOAT, 1.0, None),
        "distance_nm": (_FLOAT, None, None),
        "orientation": (_CHOICE, "tangential", ("radial", "tangential")),
        "angle_to_cavity_deg": (_FLOAT, 0.0, None),
        "delta_1e_ev": (_FLOAT, 0.0, None),
    },
    "cavity": {
        "vc_um3": (_POSITIVE, None, None),
        "q_factor": (_POSITIVE, None, None),
        "delta_ce_ev": (_FLOAT, 0.0, None),
    },
    "couplings": {
        "mode": (_CHOICE, "first_principles",
                 ("first_principles", "paper_exact", "calibrated")),
        "g1_mev": (_FLOAT, None, None),
        "G_mev": (_FLOAT, None, None),
        "J_uev": (_FLOAT, None, None),
        "gamma_m_uev": (_FLOAT, None, None),
        "gamma_s_uev": (_FLOAT, None, None),
        "gamma_1r_mev": (_FLOAT, None, None),
        "theta_deg": (_FLOAT, None, None),
        "two_g_eff_mev": (_FLOAT, 3.5, None),
        "kappa2_mev": (_FLOAT, 0.11, None),
    },
    "sweep": {
        "start_ev": (_FLOAT, None, None),
        "stop_ev": (_FLOAT, None, None),
        "step_ev": (_FLOAT, None, None),
        "points": (_COUNT, None, None),
        "d_min_nm": (_POSITIVE, 2.0, None),
        "d_max_nm": (_POSITIVE, 30.0, None),
        "d_points": (_COUNT, 61, None),
        "q_min": (_POSITIVE, 1e2, None),
        "q_max": (_POSITIVE, 1e7, None),
        "q_points": (_COUNT, 61, None),
        "t_span_fs": (_POSITIVE, None, None),
        "t_points": (_COUNT, 4096, None),
    },
    "run": {
        "drive": (_CHOICE, "emitter", ("emitter", "plasmon")),
        "name": ("str", None, None),
    },
}

REQUIRED = {
    "particle": ("shape",),
    "emitter": ("distance_nm",),
    "cavity": ("vc_um3", "q_factor"),
}
REQUIRED_SECTIONS = ("metal", "environment", "particle", "emitter", "cavity", "couplings")
PAPER_EXACT_KEYS = ("g1_mev", "G_mev", "J_uev", "gamma_m_uev", "gamma_s_uev", "gamma_1r_mev")

BUILTIN_CONFIGS = {
    "fig2": """\
[metal]
eps_inf = 1.0
omega_p_ev = 4.0
gamma_o_ev = 0.2

[environment]
eps_b = 1.0

[particle]
shape = sphere
radius_nm = 10.0

[emitter]
mu_e_nm = 1.0
distance_nm = 10.0
orientation = tangential
delta_1e_ev = 0.0

[cavity]
vc_um3 = 1.0
q_factor = 1e5
delta_ce_ev = 0.0

[couplings]
mode = paper_exact
g1_mev = -2.9
G_mev = -7.2
J_uev = -144
gamma_m_uev = 83
gamma_s_uev = 3
gamma_1r_mev = 2.45

[run]
drive = emitter
name = fig2
""",
    "fig3": """\
[metal]
eps_inf = 1.0
omega_p_ev = 4.0
gamma_o_ev = 0.2

[environment]
eps_b = 1.0

[particle]
shape = ellipsoid
a1_nm = 33.0
a2_nm = 5.5
a3_nm = 5.5

[emitter]
mu_e_nm = 1.0
distance_nm = 5.0
orientation = radial
angle_to_cavity_deg = 90.0
delta_1e_ev = 0.6

[cavity]
vc_um3 = 0.1
q_factor = 1e4
delta_ce_ev = 1.5e-3

[couplings]
mode = calibrated
theta_deg = 60.0
two_g_eff_mev = 3.5
kappa2_mev = 0.11

[run]
drive = emitter
name = fig3
""",
}
# the anti-crossing study is the same geometry at the calibration Q, on resonance
BUILTIN_CONFIGS["fig4"] = (
    BUILTIN_CONFIGS["fig3"]
    .replace("q_factor = 1e4", "q_factor = 1e3")
    .replace("delta_ce_ev = 1.5e-3", "delta_ce_ev = 0.0")
    .replace("name = fig3", "name = fig4")
)


def _suggest(key, candidates):
    close = difflib.get_close_matches(key, candidates, n=1, cutoff=0.5)
    return f"; did you mean {close[0]!r}?" if close else ""


def _read_sections(text, origin):
    parser = configparser.ConfigParser(interpolation=None, strict=True)
    parser.optionxform = str  # keys are case-sensitive (G_mev vs g1_mev)
    try:
        parser.read_string(text, source=origin)
    except configparser.Error as exc:
        raise ConfigError(f"parse error in {origin}: {exc}") from exc
    return {section: dict(parser.items(section)) for section in parser.sections()}


def _validate(sections, origin):
    problems = []
    for section in sections:
        if section not in SCHEMA:
            problems.append(
                f"unknown section [{section}]{_suggest(section, list(SCHEMA))}")
    for section in REQUIRED_SECTIONS:
        if section not in sections:
            problems.append(f"missing required section [{section}]")
    values = {}
    for section, keys in sections.items():
        if section not in SCHEMA:
            continue
        schema = SCHEMA[section]
        for key, raw in keys.items():
            if key not in schema:
                problems.append(
                    f"unknown key {key!r} in [{section}]{_suggest(key, list(schema))}")
                continue
            kind, _, choices = schema[key]
            if kind in (_FLOAT, _POSITIVE):
                try:
                    value = float(raw)
                except ValueError:
                    problems.append(f"[{section}] {key} = {raw!r} is not a number")
                    continue
                if not math.isfinite(value):
                    problems.append(f"[{section}] {key} = {raw!r} is not finite")
                    continue
                if kind == _POSITIVE and value <= 0:
                    problems.append(f"[{section}] {key} = {raw!r} must be > 0")
                    continue
            elif kind in (_INT, _COUNT):
                try:
                    number = float(raw)
                except ValueError:
                    number = math.nan
                if not number.is_integer():
                    problems.append(f"[{section}] {key} = {raw!r} is not an integer")
                    continue
                value = int(number)
                if kind == _COUNT and value < 1:
                    problems.append(f"[{section}] {key} = {raw!r} must be >= 1")
                    continue
                if choices is not None and value not in choices:
                    problems.append(f"[{section}] {key} = {raw!r} must be one of {choices}")
                    continue
            elif kind == _CHOICE:
                value = raw.strip()
                if value not in choices:
                    problems.append(
                        f"[{section}] {key} = {raw!r} must be one of {choices}")
                    continue
            else:
                value = raw.strip()
            values.setdefault(section, {})[key] = value
    for section, required in REQUIRED.items():
        if section not in sections:
            continue
        for key in required:
            if key not in values.get(section, {}):
                problems.append(f"missing required key {key!r} in [{section}]")

    got = values.get("particle", {})
    shape = got.get("shape")
    if shape == "sphere" and "radius_nm" not in got:
        problems.append("missing required key 'radius_nm' in [particle] (shape = sphere)")
    if shape == "ellipsoid":
        for key in ("a1_nm", "a2_nm", "a3_nm"):
            if key not in got:
                problems.append(f"missing required key {key!r} in [particle] (shape = ellipsoid)")
    sweep = values.get("sweep", {})
    for low, high in (("d_min_nm", "d_max_nm"), ("q_min", "q_max")):
        lo = sweep.get(low, SCHEMA["sweep"][low][1])
        hi = sweep.get(high, SCHEMA["sweep"][high][1])
        if lo >= hi:
            problems.append(f"[sweep] {low} = {lo:g} must be < {high} = {hi:g}")
    mode = values.get("couplings", {}).get("mode", "first_principles")
    if mode == "paper_exact":
        for key in PAPER_EXACT_KEYS:
            if key not in values.get("couplings", {}):
                problems.append(f"missing required key {key!r} in [couplings] (mode = paper_exact)")
    if problems:
        raise ConfigError(f"invalid configuration {origin}:\n  " + "\n  ".join(problems))

    # apply defaults
    resolved = {}
    for section, schema in SCHEMA.items():
        resolved[section] = {}
        for key, (kind, default, _) in schema.items():
            if key in values.get(section, {}):
                resolved[section][key] = values[section][key]
            elif default is not None:
                resolved[section][key] = default
    return resolved


def _resolve_scenario(cfg, name):
    metal = mat.DrudeMetal(cfg["metal"]["eps_inf"], cfg["metal"]["omega_p_ev"],
                           cfg["metal"]["gamma_o_ev"])
    env = mat.Environment(cfg["environment"]["eps_b"])
    pc = cfg["particle"]
    if pc["shape"] == "sphere":
        shape = mat.Sphere(pc["radius_nm"])
    else:
        shape = mat.Ellipsoid(pc["a1_nm"], pc["a2_nm"], pc["a3_nm"])
    particle = mat.Nanoparticle(shape, metal)
    axis = pc.get("axis", 1)

    if pc["shape"] == "sphere":
        omega_1 = mat.sphere_mode_frequency(metal, env, 1)
    else:
        L = mat.depolarization_factors(shape)[axis - 1]
        omega_1 = mat.ellipsoid_mode_frequency(metal, env, L)
    gamma_1r_fp = mat.dipolar_radiative_rate(particle, env, axis)

    ec = cfg["emitter"]
    cc = cfg["cavity"]
    omega_e = omega_1 - ec["delta_1e_ev"]
    if omega_e <= 0:
        raise ConfigError(f"delta_1e_ev = {ec['delta_1e_ev']} puts the emitter at "
                          f"non-positive frequency {omega_e} eV")
    omega_c = omega_e + cc["delta_ce_ev"]
    vc_nm3 = cc["vc_um3"] * 1e9

    co = cfg["couplings"]
    mode = co["mode"]
    notes = []
    prov_couplings = mode
    if mode == "paper_exact":
        g1 = co["g1_mev"] * 1e-3
        G = co["G_mev"] * 1e-3
        J = co["J_uev"] * 1e-6
        gamma_m = co["gamma_m_uev"] * 1e-6
        gamma_s = co["gamma_s_uev"] * 1e-6
        gamma_1r = co["gamma_1r_mev"] * 1e-3
    elif mode == "calibrated":
        if pc["shape"] != "ellipsoid":
            raise ConfigError("mode = calibrated applies to the tilted-ellipsoid geometry")
        targets = (co["two_g_eff_mev"] * 1e-3, co["kappa2_mev"] * 1e-3)
        couplings, _ = calibrate_fig3_couplings(targets)
        g1, G, J = couplings.g1, couplings.G, couplings.J
        gamma_1r = gamma_1r_fp
        gamma_s = cpl.free_space_decay(ec["mu_e_nm"], omega_e, env.eps_b)
        gamma_m = 0.0
        notes.append("gamma_m = 0: ellipsoid multipole modes are far detuned from the emitter")
        notes.append(f"couplings calibrated at q_factor = {ANTICROSSING_Q:g}")
    else:  # first_principles
        mu_1 = cpl.plasmon_effective_dipole(gamma_1r_fp, omega_1)
        if pc["shape"] == "sphere":
            extent = pc["radius_nm"]
        else:
            extent = (pc["a1_nm"], pc["a2_nm"], pc["a3_nm"])[axis - 1]
        d_center = extent + ec["distance_nm"]
        geometry = "longitudinal" if ec["orientation"] == "radial" else "transverse"
        g1_mag = cpl.vacuum_coupling(mu_1, omega_c, vc_nm3, env.eps_b)
        G_mag = abs(cpl.dipole_dipole_coupling(
            mu_1, ec["mu_e_nm"], d_center, env.eps_b, geometry, extent=extent))
        J_mag = cpl.vacuum_coupling(ec["mu_e_nm"], omega_c, vc_nm3, env.eps_b)
        J = -J_mag * math.cos(math.radians(ec["angle_to_cavity_deg"]))
        g1, G = -g1_mag, -G_mag
        gamma_1r = gamma_1r_fp
        gamma_s = cpl.free_space_decay(ec["mu_e_nm"], omega_e, env.eps_b)
        if pc["shape"] == "sphere":
            gamma_m = quench_rate_calibrated(
                ec["distance_nm"], particle, env, omega_e, ec["mu_e_nm"], ec["orientation"])
        else:
            gamma_m = 0.0
            notes.append("gamma_m = 0: multipole quenching sum is defined for spheres only")
        # explicit overrides win over the derived values
        if co.get("g1_mev") is not None:
            g1 = co["g1_mev"] * 1e-3
        if co.get("G_mev") is not None:
            G = co["G_mev"] * 1e-3
        if co.get("J_uev") is not None:
            J = co["J_uev"] * 1e-6
        if co.get("gamma_m_uev") is not None:
            gamma_m = co["gamma_m_uev"] * 1e-6
    if co.get("theta_deg") is not None and mode != "calibrated":
        G, g1 = cpl.project_couplings(G, g1, co["theta_deg"])

    params = {
        "model": "three_mode",
        "eps_inf": metal.eps_inf, "omega_p_ev": metal.omega_p, "gamma_o_ev": metal.gamma_o,
        "eps_b": env.eps_b,
        "mu_e_nm": ec["mu_e_nm"], "distance_nm": ec["distance_nm"],
        "orientation": ec["orientation"],
        "angle_to_cavity_deg": ec["angle_to_cavity_deg"],
        "vc_um3": cc["vc_um3"], "q_factor": cc["q_factor"],
        "omega_1_ev": omega_1, "omega_e_ev": omega_e, "omega_c_ev": omega_c,
        "delta_1e_ev": ec["delta_1e_ev"], "delta_ce_ev": cc["delta_ce_ev"],
        "gamma_1r_ev": gamma_1r, "gamma_c_ev": omega_c / cc["q_factor"],
        "gamma_s_ev": gamma_s, "gamma_m_ev": gamma_m,
        "g1_ev": g1, "G_ev": G, "J_ev": J,
        "drive_mode": cfg["run"]["drive"],
    }
    if pc["shape"] == "sphere":
        params["radius_nm"] = pc["radius_nm"]
    else:
        params.update({"a1_nm": pc["a1_nm"], "a2_nm": pc["a2_nm"], "a3_nm": pc["a3_nm"],
                       "axis": axis})
    if co.get("theta_deg") is not None:
        params["theta_deg"] = co["theta_deg"]
    params["delta_0_ev"] = (
        dyn.fano_detuning(J, g1, G) if G != 0.0 else 0.0)

    prov = {k: "first_principles" for k in params if k != "model"}
    for key in ("g1_ev", "G_ev", "J_ev", "gamma_m_ev", "gamma_s_ev", "gamma_1r_ev"):
        prov[key] = prov_couplings
    if mode == "first_principles":
        prov["gamma_m_ev"] = "calibrated" if pc["shape"] == "sphere" else "first_principles"
    prov["delta_0_ev"] = "derived"
    return Scenario(name, params, prov, tuple(notes))


class ParsedConfig:
    """A resolved Scenario plus its sweep and run sections."""

    def __init__(self, scenario, sweep, run):
        self.scenario = scenario
        self.sweep = sweep
        self.run = run


def parse_config_text(text, origin="<string>", name=None):
    sections = _read_sections(text, origin)
    cfg = _validate(sections, origin)
    scenario_name = name or cfg["run"].get("name") or origin
    scenario = _resolve_scenario(cfg, scenario_name)
    return ParsedConfig(scenario, cfg.get("sweep", {}), cfg["run"])


def parse_config(path):
    """Parse and resolve a scenario configuration file."""
    if path in BUILTIN_CONFIGS:
        return parse_config_text(BUILTIN_CONFIGS[path], origin=f"builtin:{path}", name=path)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text, origin=str(path))
