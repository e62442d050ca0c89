"""Declarative scenario configuration: flat INI-style sections, strictly validated.

Sections are fixed ([metal], [environment], [particle], [emitter], [cavity],
[couplings], [sweep], [run]); keys carry their unit in the name, and "#"
starts a comment, on its own line or after a value.  Unknown keys are hard
errors with a closest-match suggestion, missing required keys are reported
all at once, every value must be finite, point counts are integers from 1 to
MAX_POINTS, the particle axis is 1, 2 or 3, lengths, the plasma frequency,
the calibration targets and the cavity, map-axis and time-span quantities
are > 0, a time span is finite in natural units, eps_inf and eps_b are >= 1,
decay rates are >= 0, theta_deg is in [0, 90], the emitter and the cavity sit
at positive frequencies, and calibrated mode takes no explicit coupling or
rate.  A sphere beyond the quasi-static validity radius is resolved with a
note, not rejected.
Values in meV and ueV are converted to eV by shifting their decimal text,
so -7.2 meV is exactly -7.2e-3 eV.  parse_config resolves the file into a
Scenario with defaults applied and per-parameter provenance recorded.

The paper's scenarios are the builtin configs (BUILTIN_CONFIGS); the figure
commands resolve them like any other config.
"""

import configparser
import math
from decimal import Decimal, InvalidOperation

from . import couplings as cpl
from . import dynamics as dyn
from . import materials as mat
from .errors import ConfigError
from .experiments import (
    ANTICROSSING_Q,
    Q_RANGE,
    Scenario,
    calibrate_fig3_couplings,
)
from .quantities import HBAR_EV_FS

_FLOAT = "float"
_POSITIVE = "positive"  # float > 0
_INT = "int"
_COUNT = "count"  # int from 1 to MAX_POINTS
_CHOICE = "choice"

#: the most points a sweep, grid, time trace or map may have; the config and the
#: command line reject a larger count before any array is built
MAX_POINTS = 1_000_000

#: decimal exponent of the eV value of a key with this unit suffix
_UNIT_EXPONENTS = {"mev": -3, "uev": -6}

#: section -> key -> (type, default_or_None, choices); integer choices are the allowed
#: values, float choices an inclusive range (low, high); meV and ueV values are
#: Decimals until resolved
SCHEMA = {
    "metal": {
        "eps_inf": (_FLOAT, 1.0, (1.0, math.inf)),
        "omega_p_ev": (_POSITIVE, 4.0, None),
        "gamma_o_ev": (_FLOAT, 0.2, (0.0, math.inf)),
    },
    "environment": {
        "eps_b": (_FLOAT, 1.0, (1.0, math.inf)),
    },
    "particle": {
        "shape": (_CHOICE, None, ("sphere", "ellipsoid")),
        "radius_nm": (_POSITIVE, None, None),
        "a1_nm": (_POSITIVE, None, None),
        "a2_nm": (_POSITIVE, None, None),
        "a3_nm": (_POSITIVE, None, None),
        "axis": (_INT, 1, (1, 2, 3)),
    },
    "emitter": {
        "mu_e_nm": (_POSITIVE, 1.0, None),
        "distance_nm": (_POSITIVE, None, None),
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
        "gamma_m_uev": (_FLOAT, None, (0.0, math.inf)),
        "gamma_s_uev": (_FLOAT, None, (0.0, math.inf)),
        "gamma_1r_mev": (_FLOAT, None, (0.0, math.inf)),
        "theta_deg": (_FLOAT, None, (0.0, 90.0)),
        "two_g_eff_mev": (_POSITIVE, Decimal("3.5"), None),
        "kappa2_mev": (_POSITIVE, Decimal("0.11"), None),
    },
    "sweep": {
        "start_ev": (_FLOAT, None, None),
        "stop_ev": (_FLOAT, None, None),
        "points": (_COUNT, 2001, None),
        # the (D, Q) map axes, log-spaced; map without --config reads these defaults
        "d_min_nm": (_POSITIVE, 2.0, None),
        "d_max_nm": (_POSITIVE, 30.0, None),
        "d_points": (_COUNT, 61, None),
        "q_min": (_POSITIVE, Q_RANGE[0], None),
        "q_max": (_POSITIVE, Q_RANGE[1], None),
        "q_points": (_COUNT, 61, None),
        "t_span_fs": (_POSITIVE, None, (0.0, math.nextafter(math.inf, 0.0) * HBAR_EV_FS)),
        "t_points": (_COUNT, 4096, None),
    },
    "run": {
        "drive": (_CHOICE, "emitter", ("emitter", "plasmon")),
        "name": ("str", None, None),
    },
}

REQUIRED_SECTIONS = ("metal", "environment", "particle", "emitter", "cavity", "couplings")
#: scenario parameter -> the [couplings] key that sets it explicitly
COUPLING_KEYS = {"g1_ev": "g1_mev", "G_ev": "G_mev", "J_ev": "J_uev",
                 "gamma_m_ev": "gamma_m_uev", "gamma_s_ev": "gamma_s_uev",
                 "gamma_1r_ev": "gamma_1r_mev"}
#: (section, switch key, its value) -> the keys the section must give; a row without a switch
#: key always applies
REQUIRED = {
    ("particle", None, None): ("shape",),
    ("emitter", None, None): ("distance_nm",),
    ("cavity", None, None): ("vc_um3", "q_factor"),
    ("particle", "shape", "sphere"): ("radius_nm",),
    ("particle", "shape", "ellipsoid"): ("a1_nm", "a2_nm", "a3_nm"),
    ("couplings", "mode", "paper_exact"): tuple(COUPLING_KEYS.values()),
    ("couplings", "mode", "calibrated"): ("theta_deg",),
}

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
# strong coupling: the emitter sits at the vertex of a gold ellipsoid whose long
# axis is tilted 60 degrees from the cavity polarization; its dipole is
# perpendicular to the cavity field (J = 0), so the plasmon mediates the
# emitter-cavity coupling
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
# omega_e = omega_1 - 0.6 eV puts the emitter at 0.23 eV; the low absolute
# frequency follows from the published detunings and is flagged as an ambiguity
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
# the yield study with every coupling derived from the geometry; a radial emitter sees
# the longitudinal near field (at the D = 10 nm quench anchor gamma_m is 83 ueV either way)
BUILTIN_CONFIGS["fig2_first_principles"] = (
    BUILTIN_CONFIGS["fig2"].partition("[couplings]")[0]
    .replace("orientation = tangential", "orientation = radial")
    + "[couplings]\nmode = first_principles\n\n[run]\ndrive = emitter\n"
    "name = fig2_first_principles\n"
)
# the pumped nanoparticle of the dissipation spectra is the yield study's system driven
# through the plasmon, with the emitter decoupled (G = J = 0)
BUILTIN_CONFIGS["fig1c"] = (
    BUILTIN_CONFIGS["fig2"]
    .replace("G_mev = -7.2", "G_mev = 0")
    .replace("J_uev = -144", "J_uev = 0")
    .replace("drive = emitter", "drive = plasmon")
    .replace("name = fig2", "name = fig1c")
)
# the anti-crossing study is the same geometry at the calibration Q, on resonance
BUILTIN_CONFIGS["fig4"] = (
    BUILTIN_CONFIGS["fig3"]
    .replace("q_factor = 1e4", "q_factor = 1e3")
    .replace("delta_ce_ev = 1.5e-3", "delta_ce_ev = 0.0")
    .replace("name = fig3", "name = fig4")
)


def _suggest(key, candidates):
    import difflib  # only a misspelt name needs it: a valid config does not load it

    close = difflib.get_close_matches(key, candidates, n=1, cutoff=0.5)
    return f"; did you mean {close[0]!r}?" if close else ""


def _read_sections(text, origin):
    parser = configparser.ConfigParser(
        interpolation=None, strict=True, inline_comment_prefixes=("#",))
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
    # every default first: an absent or invalid key reads its default in the checks below
    resolved = {section: {key: default for key, (_, default, _) in schema.items()
                          if default is not None} for section, schema in SCHEMA.items()}
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
                    number = Decimal(raw)
                except InvalidOperation:
                    problems.append(f"[{section}] {key} = {raw!r} is not a number")
                    continue
                value = float(number) if number.is_finite() else math.nan
                if not math.isfinite(value):
                    problems.append(f"[{section}] {key} = {raw!r} is not finite")
                    continue
                if kind == _POSITIVE and value <= 0:
                    problems.append(f"[{section}] {key} = {raw!r} must be > 0")
                    continue
                if choices is not None and not choices[0] <= value <= choices[1]:
                    low, high = choices
                    bound = f">= {low:g}" if high == math.inf else f"from {low:g} to {high:g}"
                    problems.append(f"[{section}] {key} = {raw!r} must be {bound}")
                    continue
                if key[-3:] in _UNIT_EXPONENTS:
                    value = number
            elif kind in (_INT, _COUNT):
                try:
                    number = float(raw)
                except ValueError:
                    number = math.nan
                if not number.is_integer():
                    problems.append(f"[{section}] {key} = {raw!r} is not an integer")
                    continue
                value = int(number)
                if kind == _COUNT and not 1 <= value <= MAX_POINTS:
                    problems.append(f"[{section}] {key} = {raw!r} must be from 1 to {MAX_POINTS}")
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
            resolved[section][key] = value
    # a key is missing only if absent: an invalid value is reported once, above
    missing = [(section, f"missing required key {key!r} in [{section}]"
                + (f" ({switch} = {value})" if switch else ""))
               for (section, switch, value), keys in REQUIRED.items()
               if section in sections and (switch is None or resolved[section].get(switch) == value)
               for key in keys if key not in sections[section]]
    problems += [problem for section, problem in missing if section != "couplings"]
    sweep = resolved["sweep"]
    if ("start_ev" in sweep) != ("stop_ev" in sweep):
        problems.append("[sweep] start_ev and stop_ev go together: give both or neither")
    elif "start_ev" in sweep and math.isinf(2.0 * (sweep["stop_ev"] - sweep["start_ev"])):
        problems.append("[sweep] stop_ev - start_ev must be below half the largest double")
    for low, high in (("d_min_nm", "d_max_nm"), ("q_min", "q_max")):
        if sweep[low] >= sweep[high]:
            problems.append(f"[sweep] {low} = {sweep[low]:g} must be < {high} = {sweep[high]:g}")
    # the [couplings] rows are reported after the [sweep] checks
    problems += [problem for section, problem in missing if section == "couplings"]
    if resolved["couplings"]["mode"] == "calibrated":
        problems += [f"[couplings] {key} is not allowed with mode = calibrated: the couplings "
                     "and rates are fitted or derived"
                     for key in COUPLING_KEYS.values() if key in sections["couplings"]]
        if resolved["particle"].get("shape") == "sphere":
            problems.append("mode = calibrated applies to the tilted-ellipsoid geometry")
    if problems:
        raise ConfigError(f"invalid configuration {origin}:\n  " + "\n  ".join(problems))
    return resolved


def _ev(section, key):
    """A meV or ueV value of a section in eV, shifted as a decimal (-7.2 meV is -7.2e-3 eV)."""
    return float(section[key].scaleb(_UNIT_EXPONENTS[key[-3:]]))


def _resolve_scenario(cfg, name):
    metal = mat.DrudeMetal(cfg["metal"]["eps_inf"], cfg["metal"]["omega_p_ev"],
                           cfg["metal"]["gamma_o_ev"])
    env = mat.Environment(cfg["environment"]["eps_b"])
    pc = cfg["particle"]
    axis = pc["axis"]
    shape = (mat.Sphere(pc["radius_nm"]) if pc["shape"] == "sphere"
             else mat.Ellipsoid(pc["a1_nm"], pc["a2_nm"], pc["a3_nm"]))
    particle = mat.Nanoparticle(shape, metal)
    L, omega_1 = mat.dipolar_mode(particle, env, axis)
    notes = []
    if not particle.quasi_static_valid:
        notes.append(f"sphere radius {pc['radius_nm']} nm exceeds the quasi-static "
                     f"validity limit of {mat.QUASI_STATIC_RADIUS_NM} nm")

    ec = cfg["emitter"]
    cc = cfg["cavity"]
    omega_e = omega_1 - ec["delta_1e_ev"]
    if omega_e <= 0:
        raise ConfigError(f"delta_1e_ev = {ec['delta_1e_ev']} puts the emitter at "
                          f"non-positive frequency {omega_e} eV")
    omega_c = omega_e + cc["delta_ce_ev"]
    if omega_c <= 0:
        raise ConfigError(f"delta_ce_ev = {cc['delta_ce_ev']} puts the cavity at "
                          f"non-positive frequency {omega_c} eV")
    vc_nm3 = cc["vc_um3"] * 1e9
    try:  # an extreme size, plasma frequency, dipole or background overflows or zeroes a width
        gamma_1r = mat.dipolar_radiative_rate(particle, env, L, omega_1)
        gamma_s = cpl.free_space_decay(ec["mu_e_nm"], omega_e, env.eps_b)
    except (OverflowError, ZeroDivisionError):
        gamma_1r = gamma_s = 0.0
    if not (gamma_1r > 0.0 and gamma_s > 0.0 and omega_c / cc["q_factor"] < math.inf):
        raise ConfigError("a radiative width is beyond floating-point range: check [particle] "
                          "size, [metal] omega_p_ev, [emitter] mu_e_nm, [environment] eps_b and "
                          "[cavity] q_factor")

    params = {
        "eps_inf": metal.eps_inf, "omega_p_ev": metal.omega_p, "gamma_o_ev": metal.gamma_o,
        "eps_b": env.eps_b,
        "mu_e_nm": ec["mu_e_nm"], "distance_nm": ec["distance_nm"],
        "orientation": ec["orientation"],
        "angle_to_cavity_deg": ec["angle_to_cavity_deg"],
        "vc_um3": cc["vc_um3"], "q_factor": cc["q_factor"],
        "omega_1_ev": omega_1, "omega_e_ev": omega_e, "omega_c_ev": omega_c,
        "delta_1e_ev": ec["delta_1e_ev"], "delta_ce_ev": cc["delta_ce_ev"],
        "gamma_c_ev": omega_c / cc["q_factor"],
        "drive_mode": cfg["run"]["drive"],
    }
    if pc["shape"] == "sphere":
        params["radius_nm"] = pc["radius_nm"]
    else:
        params.update({"a1_nm": pc["a1_nm"], "a2_nm": pc["a2_nm"], "a3_nm": pc["a3_nm"],
                       "axis": axis})

    # each branch sets its couplings and their provenance; every other value is an input or
    # computed from the inputs, tagged first_principles
    co = cfg["couplings"]
    if "theta_deg" in co:
        params["theta_deg"] = co["theta_deg"]
    given = {param: _ev(co, key) for param, key in COUPLING_KEYS.items() if key in co}
    calibration = {}
    if co["mode"] == "calibrated":  # theta_deg tilts the fitted geometry: nothing is projected
        rates = {"gamma_1r_ev": gamma_1r, "gamma_s_ev": gamma_s, "gamma_m_ev": 0.0}
        targets = (_ev(co, "two_g_eff_mev"), _ev(co, "kappa2_mev"))
        fit, calibration = calibrate_fig3_couplings(
            Scenario(name, {**params, **rates}, {}), targets)
        couplings = {**rates, **fit}
        tags = dict.fromkeys(("g1_ev", "G_ev", "J_ev", "gamma_m_ev"), "calibrated")
        notes.append("gamma_m = 0: ellipsoid multipole modes are far detuned from the emitter")
        notes.append(f"couplings calibrated at q_factor = {ANTICROSSING_Q:g}")
    else:
        tags = {}
        if co["mode"] == "paper_exact":
            couplings = given
        else:  # first_principles; explicit values win over the derived ones
            mu_1 = cpl.plasmon_effective_dipole(gamma_1r, omega_1)
            J_mag = cpl.vacuum_coupling(ec["mu_e_nm"], omega_c, vc_nm3, env.eps_b)
            G, gamma_m = cpl.distance_law(ec["distance_nm"], particle, env, omega_e, mu_1,
                                          ec["mu_e_nm"], ec["orientation"], axis)
            if gamma_m is None:  # no quench sum for this shape: 0 stands in, as the note says
                gamma_m, tags["gamma_m_ev"] = 0.0, "derived"
                notes.append("gamma_m = 0: multipole quenching sum is defined for spheres only")
            else:  # a sphere's quench sum is anchored to the quoted rate at D = 10 nm
                tags["gamma_m_ev"] = "calibrated"
            couplings = {
                "g1_ev": -cpl.vacuum_coupling(mu_1, omega_c, vc_nm3, env.eps_b),
                "G_ev": float(G),
                "J_ev": -J_mag * math.cos(math.radians(ec["angle_to_cavity_deg"])),
                "gamma_1r_ev": gamma_1r, "gamma_s_ev": gamma_s, "gamma_m_ev": float(gamma_m),
                **given,
            }
        tags.update(dict.fromkeys(given, "paper_exact"))
        if "theta_deg" in co:  # a projection is neither the quoted nor the computed value
            couplings["G_ev"], couplings["g1_ev"] = cpl.project_couplings(
                couplings["G_ev"], couplings["g1_ev"], co["theta_deg"])
            tags.update(G_ev="derived", g1_ev="derived")
    params.update(couplings)
    G, g1, J = params["G_ev"], params["g1_ev"], params["J_ev"]
    params["delta_0_ev"] = dyn.fano_detuning(J, g1, G) if G != 0.0 else 0.0
    prov = {**dict.fromkeys(params, "first_principles"), **tags, "delta_0_ev": "derived"}
    return Scenario(name, params, prov, tuple(notes), calibration)


class ParsedConfig:
    """A resolved Scenario plus its sweep section."""

    def __init__(self, scenario, sweep):
        self.scenario = scenario
        self.sweep = sweep


def parse_config_text(text, origin="<string>", name=None):
    sections = _read_sections(text, origin)
    cfg = _validate(sections, origin)
    scenario_name = name or cfg["run"].get("name") or origin
    scenario = _resolve_scenario(cfg, scenario_name)
    return ParsedConfig(scenario, cfg.get("sweep", {}))


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
