import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from plasmonsim import couplings as cpl
from plasmonsim import network as net
from plasmonsim.errors import DomainError

finite = st.floats(-1.0, 1.0)
width = st.floats(0.0, 0.5)


def test_three_mode_paper_matrix(paper_three_mode):
    h = paper_three_mode.matrix
    assert paper_three_mode.labels == ("plasmon", "cavity", "emitter")
    assert h[0, 1] == pytest.approx(-2.9e-3)
    assert h[0, 2] == pytest.approx(-7.2e-3)
    assert h[1, 2] == pytest.approx(-144e-6)
    assert h[0, 0].imag == pytest.approx(-0.5 * (0.2 + 2.45e-3), rel=1e-12)
    assert h[1, 1].imag == pytest.approx(-0.5 * 2.3094010767585034e-5, rel=1e-9)
    assert h[2, 2].imag == pytest.approx(-0.5 * 86e-6, rel=1e-12)
    assert h[2, 2].real == 0.0  # emitter is the frame reference


def test_three_mode_zero_couplings_diagonal():
    h = net.build_three_mode(
        g1=0.0, G=0.0, J=0.0, delta_1e=0.1, delta_ce=0.05,
        gamma_1r=1e-3, gamma_o=0.2, gamma_c=1e-5, gamma_s=1e-6, gamma_m=5e-6)
    off = h.matrix - np.diag(np.diag(h.matrix))
    assert np.all(off == 0)


def test_three_mode_projected_geometry():
    # emitter perpendicular to the cavity polarization: J = 0 while the
    # tilted particle axis still couples to both
    G, g1 = cpl.project_couplings(-7.2e-3, -2.9e-3, 60.0)
    h = net.build_three_mode(
        g1=g1, G=G, J=0.0, delta_1e=0.6, delta_ce=0.0,
        gamma_1r=1e-3, gamma_o=0.2, gamma_c=1e-5, gamma_s=1e-6, gamma_m=0.0)
    assert h.matrix[1, 2] == 0.0
    assert h.matrix[0, 1] != 0.0
    assert h.matrix[0, 2] != 0.0


def test_two_mode_closed_form_eigenvalues():
    # the pumped nanoparticle: the emitter decoupled (G = J = 0), so the plasmon-cavity
    # pair has the two-mode closed form and the emitter keeps -i gamma_e / 2
    g1, gamma_1, gamma_c, gamma_e = 2.9e-3, 0.2025, 23.1e-6, 86e-6
    h = net.build_three_mode(
        g1=g1, G=0.0, J=0.0, delta_1e=0.0, delta_ce=0.0,
        gamma_1r=gamma_1 - 0.2, gamma_o=0.2, gamma_c=gamma_c,
        gamma_s=3e-6, gamma_m=gamma_e - 3e-6)
    lam = np.linalg.eigvals(h.matrix)
    disc = complex(g1**2 - ((gamma_1 - gamma_c) / 4.0) ** 2)
    expected = [-0.25j * (gamma_1 + gamma_c) + np.sqrt(disc),
                -0.25j * (gamma_1 + gamma_c) - np.sqrt(disc), -0.5j * gamma_e]
    # overdamped here: all three eigenvalues lie on the imaginary axis
    assert sorted(lam, key=lambda z: z.imag) == pytest.approx(
        sorted(expected, key=lambda z: z.imag), rel=1e-10)


RESONANT = dict(g1=0.0, G=0.0, J=0.0, delta_1e=0.0, delta_ce=0.0,
                gamma_1r=1e-3, gamma_o=0.2, gamma_c=1e-5, gamma_s=1e-6, gamma_m=5e-6)


def test_negative_width_rejected():
    with pytest.raises(DomainError):
        net.build_three_mode(**{**RESONANT, "gamma_1r": -1e-3})


def test_non_finite_inputs_rejected():
    with pytest.raises(DomainError):
        net.build_three_mode(**{**RESONANT, "g1": float("nan")})
    with pytest.raises(DomainError):
        net.build_three_mode(**{**RESONANT, "delta_1e": float("inf")})


def _build_error(**inputs):
    """The DomainError text of build_three_mode at inputs, with numpy warnings as errors."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError) as info:
            net.build_three_mode(**inputs)
    return str(info.value)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"),
                                 np.array([0.0, float("nan")])],
                         ids=["nan", "inf", "-inf", "array"])
@pytest.mark.parametrize("name", sorted(RESONANT))
def test_each_non_finite_input_is_named(name, bad):
    # one pass over the matrix finds a non-finite input; the error still names it
    assert _build_error(**{**RESONANT, name: bad}) == f"{name} must be finite, got {bad!r}"


def test_build_errors_keep_their_order():
    # inputs are named in signature order, and the finite check precedes the rate check
    assert _build_error(**{**RESONANT, "gamma_m": float("nan"), "J": float("inf"),
                           "gamma_1r": -1.0}) == "J must be finite, got inf"
    assert _build_error(**{**RESONANT, "gamma_o": -1.0, "gamma_m": -2.0}) == (
        "decay rate gamma_o must be >= 0, got -1.0")
    # a stack of no matrices holds no input, and its non-finite scalar is still named
    assert _build_error(**{**RESONANT, "delta_1e": np.zeros(0), "g1": float("nan")}) == (
        "g1 must be finite, got nan")


@settings(max_examples=100, deadline=None)
@given(g1=finite, G=finite, J=finite, d1=finite, dc=finite,
       g_rad=width, g_ohm=width, g_c=width, g_s=width, g_m=width)
# zero trace: eigvals sums to -2.4e-15, beyond any fixed absolute bound near eps
@example(g1=0.0, G=1.0, J=1.0, d1=0.0, dc=0.0, g_rad=0.0, g_ohm=0.0, g_c=0.0, g_s=0.0, g_m=0.0)
def test_symmetry_and_trace(g1, G, J, d1, dc, g_rad, g_ohm, g_c, g_s, g_m):
    h = net.build_three_mode(
        g1=g1, G=G, J=J, delta_1e=d1, delta_ce=dc,
        gamma_1r=g_rad, gamma_o=g_ohm, gamma_c=g_c, gamma_s=g_s, gamma_m=g_m)
    assert np.array_equal(h.matrix, h.matrix.T)
    assert np.all(np.diag(h.matrix).imag <= 0.0)
    eigenvalues = np.linalg.eigvals(h.matrix)
    # eigvals is backward stable: its eigenvalues are exact for some H + E with
    # ||E||_2 <= p(n) eps ||H||_2, and they sum to trace(H + E), which is within
    # n ||E||_2 of trace(H), whatever the conditioning.  So the bound is
    # c n eps ||H||_2 with c = p(n); c = 10 is a generous p(3) for the QR algorithm
    # (the example above needs c >= 2.6)
    n = h.matrix.shape[0]
    bound = 10.0 * n * np.finfo(float).eps * np.linalg.norm(h.matrix, 2)
    assert np.sum(eigenvalues) == pytest.approx(np.trace(h.matrix), rel=1e-12, abs=bound)


def test_channel_bookkeeping_with_emitter(paper_three_mode):
    h = paper_three_mode
    unit = np.eye(3, dtype=complex)
    assert len(h.powers(unit[0])) == 4
    # the vacuum port carries the plasmon's and the emitter's radiative widths
    vacuum = {label: float(h.powers(unit[k])["rad_vacuum"]) for k, label in enumerate(h.labels)}
    assert vacuum == pytest.approx({"plasmon": 2.45e-3, "cavity": 0.0, "emitter": 3e-6})
    # and adds them coherently: |sqrt(gamma_1r) + sqrt(gamma_s)|^2 for in-phase amplitudes
    in_phase = h.powers(unit[0] + unit[2])["rad_vacuum"]
    assert in_phase == pytest.approx((np.sqrt(2.45e-3) + np.sqrt(3e-6)) ** 2, rel=1e-12)
    total_widths = -2.0 * np.diag(h.matrix).imag
    assert sum(h.rates.values()) == pytest.approx(np.sum(total_widths), rel=1e-12)
    # each mode's width shows up in the ports exactly once
    for k in range(3):
        assert sum(h.powers(unit[k]).values()) == pytest.approx(total_widths[k], rel=1e-12)


@pytest.mark.parametrize("gamma_s", ["random", 0.0])
def test_port_powers_match_written_formulas(gamma_s):
    """The four ports at random amplitudes and widths, against expanded formulas.

    The vacuum port is the coherent sum, |a|^2 + |b|^2 + 2 Re(a b*); the other
    three are incoherent.  Every partial width feeds one port, so the ports
    minus the interference part are sum_k gamma_k |v_k|^2.  With gamma_s = 0
    the vacuum port is the plasmon's alone and has no interference part.
    """
    rng = np.random.default_rng(2024)
    n = 200
    rates = dict(zip(("gamma_1r", "gamma_o", "gamma_c", "gamma_s", "gamma_m"),
                     rng.uniform(0.0, 0.1, (5, n))))
    if gamma_s == 0.0:
        rates["gamma_s"] = 0.0
    h = net.build_three_mode(g1=rng.uniform(-0.05, 0.05, n), G=0.01, J=-0.002,
                             delta_1e=0.0, delta_ce=0.0, **rates)
    total_width = -2.0 * np.trace(h.matrix, axis1=-2, axis2=-1).imag
    assert sum(h.rates.values()) == pytest.approx(total_width, rel=1e-12)
    v = rng.normal(size=(n, 3)) + 1j * rng.normal(size=(n, 3))
    plasmon, emitter = v[:, 0], v[:, 2]
    mod2 = v.real**2 + v.imag**2
    cross = 2.0 * np.sqrt(rates["gamma_1r"] * rates["gamma_s"]) * (plasmon * emitter.conj()).real
    powers = h.powers(v)
    assert sorted(powers) == ["ohmic_emitter", "ohmic_plasmon", "rad_cavity", "rad_vacuum"]
    assert powers["rad_vacuum"] == pytest.approx(
        rates["gamma_1r"] * mod2[:, 0] + rates["gamma_s"] * mod2[:, 2] + cross, rel=1e-12)
    assert powers["rad_cavity"] == pytest.approx(rates["gamma_c"] * mod2[:, 1], rel=1e-12)
    assert powers["ohmic_plasmon"] == pytest.approx(rates["gamma_o"] * mod2[:, 0], rel=1e-12)
    assert powers["ohmic_emitter"] == pytest.approx(rates["gamma_m"] * mod2[:, 2], rel=1e-12)
    assert h.vacuum_cross_term(v) == pytest.approx(cross, rel=1e-9, abs=1e-15)
    per_mode = (rates["gamma_1r"] + rates["gamma_o"]) * mod2[:, 0] \
        + rates["gamma_c"] * mod2[:, 1] + (rates["gamma_s"] + rates["gamma_m"]) * mod2[:, 2]
    assert sum(powers.values()) - h.vacuum_cross_term(v) == pytest.approx(per_mode, rel=1e-9)
    radiated = powers["rad_vacuum"] + powers["rad_cavity"]
    assert np.array_equal(net.radiated_power(powers), radiated)
    assert net.yield_from_powers(powers) == pytest.approx(
        radiated / sum(powers.values()), rel=1e-12)
    if gamma_s == 0.0:
        assert powers["rad_vacuum"] == pytest.approx(rates["gamma_1r"] * mod2[:, 0], rel=1e-12)
        assert h.vacuum_cross_term(v) == pytest.approx(np.zeros(n), abs=1e-15)


def test_mode_lookup(paper_three_mode):
    assert paper_three_mode.index("cavity") == 1
    assert paper_three_mode.rates["gamma_m"] == pytest.approx(83e-6)
    with pytest.raises(DomainError):
        paper_three_mode.index("phonon")


def test_matrix_immutable(paper_three_mode):
    with pytest.raises(ValueError):
        paper_three_mode.matrix[0, 0] = 0.0
