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
        cpl.CouplingSet(0.0, 0.0, 0.0),
        net.plasmon_descriptor(0.1, 1e-3, 0.2),
        net.cavity_descriptor(0.05, 1e-5),
        net.emitter_descriptor(1e-6, 5e-6),
    )
    off = h.matrix - np.diag(np.diag(h.matrix))
    assert np.all(off == 0)


def test_three_mode_projected_geometry():
    # emitter perpendicular to the cavity polarization: J = 0 while the
    # tilted particle axis still couples to both
    G, g1 = cpl.project_couplings(-7.2e-3, -2.9e-3, 60.0)
    h = net.build_three_mode(
        cpl.CouplingSet(g1, G, 0.0),
        net.plasmon_descriptor(0.6, 1e-3, 0.2),
        net.cavity_descriptor(0.0, 1e-5),
        net.emitter_descriptor(1e-6, 0.0),
    )
    assert h.matrix[1, 2] == 0.0
    assert h.matrix[0, 1] != 0.0
    assert h.matrix[0, 2] != 0.0


def test_two_mode_closed_form_eigenvalues():
    # the pumped nanoparticle: the emitter decoupled (G = J = 0), so the plasmon-cavity
    # pair has the two-mode closed form and the emitter keeps -i gamma_e / 2
    g1, gamma_1, gamma_c, gamma_e = 2.9e-3, 0.2025, 23.1e-6, 86e-6
    h = net.build_three_mode(
        cpl.CouplingSet(g1, 0.0, 0.0),
        net.plasmon_descriptor(0.0, gamma_1 - 0.2, 0.2),
        net.cavity_descriptor(0.0, gamma_c),
        net.emitter_descriptor(3e-6, gamma_e - 3e-6),
    )
    lam = np.linalg.eigvals(h.matrix)
    disc = complex(g1**2 - ((gamma_1 - gamma_c) / 4.0) ** 2)
    expected = [-0.25j * (gamma_1 + gamma_c) + np.sqrt(disc),
                -0.25j * (gamma_1 + gamma_c) - np.sqrt(disc), -0.5j * gamma_e]
    # overdamped here: all three eigenvalues lie on the imaginary axis
    assert sorted(lam, key=lambda z: z.imag) == pytest.approx(
        sorted(expected, key=lambda z: z.imag), rel=1e-10)


def test_negative_width_rejected():
    with pytest.raises(DomainError):
        net.plasmon_descriptor(0.0, -1e-3, 0.2)


def test_non_finite_inputs_rejected():
    with pytest.raises(DomainError):
        cpl.CouplingSet(float("nan"), 0.0, 0.0)
    with pytest.raises(DomainError):
        net.plasmon_descriptor(float("inf"), 1e-3, 0.2)


@settings(max_examples=100, deadline=None)
@given(g1=finite, G=finite, J=finite, d1=finite, dc=finite,
       g_rad=width, g_ohm=width, g_c=width, g_s=width, g_m=width)
# zero trace: eigvals sums to -2.4e-15, beyond any fixed absolute bound near eps
@example(g1=0.0, G=1.0, J=1.0, d1=0.0, dc=0.0, g_rad=0.0, g_ohm=0.0, g_c=0.0, g_s=0.0, g_m=0.0)
def test_symmetry_and_trace(g1, G, J, d1, dc, g_rad, g_ohm, g_c, g_s, g_m):
    h = net.build_three_mode(
        cpl.CouplingSet(g1, G, J),
        net.plasmon_descriptor(d1, g_rad, g_ohm),
        net.cavity_descriptor(dc, g_c),
        net.emitter_descriptor(g_s, g_m),
    )
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
    channels = net.standard_channels(paper_three_mode)
    assert len(channels) == 4
    by_id = {c.id: c for c in channels}
    assert by_id["rad_vacuum"].combine == "coherent"
    assert dict(by_id["rad_vacuum"].terms) == pytest.approx(
        {"plasmon": 2.45e-3, "emitter": 3e-6})
    total = sum(rate for c in channels for _, rate in c.terms)
    assert total == pytest.approx(sum(paper_three_mode.total_widths), rel=1e-12)
    # each (mode, split) pair shows up exactly once
    pairs = [(label, c.id) for c in channels for label, _ in c.terms]
    assert len(pairs) == len(set(pairs))


def test_channels_degenerate_without_emitter_radiation(omega1):
    h = net.build_three_mode(
        cpl.CouplingSet(-2.9e-3, -7.2e-3, -144e-6),
        net.plasmon_descriptor(0.0, 2.45e-3, 0.2),
        net.cavity_descriptor(0.0, omega1 / 1e5),
        net.emitter_descriptor(0.0, 83e-6),
    )
    channels = net.standard_channels(h)
    rad1 = next(c for c in channels if c.id == "rad_vacuum")
    assert dict(rad1.terms)["emitter"] == 0.0


def test_mode_lookup(paper_three_mode):
    assert paper_three_mode.index("cavity") == 1
    assert paper_three_mode.mode("emitter").split_rate("ohmic") == pytest.approx(83e-6)
    with pytest.raises(DomainError):
        paper_three_mode.index("phonon")


def test_matrix_immutable(paper_three_mode):
    with pytest.raises(ValueError):
        paper_three_mode.matrix[0, 0] = 0.0
