import math

import numpy as np
import pytest
from scipy.integrate import quad

import blipsim as bs
import oracles
from blipsim.observables import CONDITIONAL_MIN_WEIGHT

from test_spectral import plane_wave


def in_medium(sp, m, hbar=1.0):
    """The observables of a spectrum whose channels all sit in medium ``m``."""
    return bs.spectral_expectations(sp, {+1: m, -1: m}, hbar)


def test_energy_against_quadrature_oracle(rig_packet, ref_medium):
    """hbar*c*E[|k|] for the rig packet, against adaptive quadrature.

    The spectral density is sqrt(2 sigma^2/pi) exp(-2 sigma^2 (k-k0)^2);
    the oracle integrates |k| against it over a 48-sigma_k window around
    the peak (infinite bounds make quad miss the narrow peak entirely).
    The mean of |k| is 30.000000... -- distinct from the RMS value
    sqrt(k0^2 + sigma_k^2) = 30.001041648582802, which is NOT this
    observable.
    """
    sigma, k0 = 2.0, 30.0
    rho = lambda q: math.sqrt(2.0 * sigma**2 / math.pi) * math.exp(-2.0 * sigma**2 * (q - k0) ** 2)
    lo, hi = k0 - 12.0, k0 + 12.0  # 48 sigma_k
    mass, _ = quad(rho, lo, hi)
    oracle, _ = quad(lambda q: abs(q) * rho(q), lo, hi)
    assert mass == pytest.approx(1.0, abs=1e-12)
    assert oracle == pytest.approx(30.0, abs=1e-10)

    sp = bs.to_momentum(rig_packet)
    energy = in_medium(sp, ref_medium).energy
    assert energy == pytest.approx(oracle, abs=1e-9)
    rms = math.sqrt(k0**2 + (0.5 / sigma) ** 2)
    assert rms == pytest.approx(30.001041648582802, rel=1e-15)
    assert abs(energy - rms) > 1e-3  # the two formulas measurably differ


def test_energy_scales_with_medium_speed(rig_packet, ref_medium, glass):
    sp = bs.to_momentum(rig_packet)
    assert in_medium(sp, glass).energy == pytest.approx(
        0.5 * in_medium(sp, ref_medium).energy, rel=1e-14
    )
    assert in_medium(sp, ref_medium, hbar=2.0).energy == pytest.approx(
        2.0 * in_medium(sp, ref_medium).energy, rel=1e-14
    )


def test_sign_structure_of_the_three_generators(rig_grid, ref_medium):
    """Energy is positive definite; the dynamical pair carries signs.

    For spectral content at k0 on channel s: energy ~ |k0|, the evolution
    generator ~ k0, and the translation generator ~ s*k0.
    """
    cases = [
        (+1, 30.0, 30.0, 30.0, 30.0),
        (+1, -30.0, 30.0, -30.0, -30.0),
        (-1, 30.0, 30.0, 30.0, -30.0),
        (-1, -30.0, 30.0, -30.0, 30.0),
    ]
    for s, k0, want_e, want_h, want_p in cases:
        p = bs.gaussian_packet(rig_grid, (s, "H"), x0=0.0, k0=k0, sigma=2.0)
        sp = bs.to_momentum(p)
        assert in_medium(sp, ref_medium).energy == pytest.approx(want_e, abs=1e-9)
        assert in_medium(sp, ref_medium).dyn_hamiltonian == pytest.approx(want_h, abs=1e-9)
        assert bs.expect_dyn_momentum(sp) == pytest.approx(want_p, abs=1e-9)


def test_photon_number_both_representations(rig_packet, ref_medium):
    sp = bs.to_momentum(rig_packet)
    assert bs.norm(rig_packet) == pytest.approx(1.0, abs=1e-12)
    assert bs.spectral_norm(sp) == pytest.approx(bs.norm(rig_packet), abs=1e-13)
    assert in_medium(sp, ref_medium).photon_number == bs.spectral_norm(sp)


def test_position_form_agrees_with_spectral_form(rig_grid, glass):
    rng = np.random.default_rng(41)
    packets = []
    for s, pol in ((+1, "H"), (-1, "V")):
        x0 = float(rng.uniform(-40, 40))
        k0 = float(rng.uniform(-40, 40))
        single = bs.gaussian_packet(rig_grid, (s, pol), x0=x0, k0=k0, sigma=3.0)
        w = complex(rng.standard_normal(), rng.standard_normal())
        packets.append(bs.BlipWavePacket(rig_grid, {(s, pol): w * single.amplitude((s, pol))}))
    p = bs.combine(*packets)
    sp = bs.to_momentum(p)
    p_spec = bs.expect_dyn_momentum(sp)
    p_pos = oracles.dyn_momentum_position_form(p)
    assert abs(p_pos - p_spec) < 1e-10 * max(1.0, abs(p_spec))
    h_spec = in_medium(sp, glass).dyn_hamiltonian
    h_pos = oracles.dyn_hamiltonian_position_form(p, glass)
    assert abs(h_pos - h_spec) < 1e-10 * max(1.0, abs(h_spec))


def test_field_momentum_route_matches_number_basis(rig_grid, glass):
    p = bs.gaussian_packet(rig_grid, (+1, "H"), x0=-20.0, k0=25.0, sigma=2.0)
    sp = bs.to_momentum(p)
    k = rig_grid.k
    number_basis = float(np.sum(np.abs(k) * np.abs(sp.amp[bs.Channel(1, "H")]) ** 2)) * rig_grid.dk
    fp = bs.field_profile(sp, {+1: glass, -1: glass})
    assert oracles.momentum_from_fields(fp, glass) == pytest.approx(number_basis, rel=1e-12)


def test_abraham_momentum_scaling():
    assert bs.abraham_momentum(8.0, 2.0) == 2.0
    assert bs.abraham_momentum(-3.0, 1.0) == -3.0
    with pytest.raises(bs.DomainError):
        bs.abraham_momentum(1.0, 0.0)


def test_expectations_route_channels_to_their_media(rig_grid, ref_medium, glass):
    """A two-direction packet: each channel is measured in its own medium."""
    right_mover = bs.gaussian_packet(rig_grid, (+1, "H"), x0=40.0, k0=20.0, sigma=2.0)
    left_mover = bs.gaussian_packet(rig_grid, (-1, "V"), x0=-40.0, k0=20.0, sigma=2.0)
    p = bs.combine(right_mover, left_mover)
    media = {+1: glass, -1: ref_medium}  # post-scatter layout
    vals = bs.spectral_expectations(bs.to_momentum(p), media)

    sp_r = bs.to_momentum(right_mover)
    sp_l = bs.to_momentum(left_mover)
    expected_energy = in_medium(sp_r, glass).energy + in_medium(sp_l, ref_medium).energy
    assert vals.photon_number == pytest.approx(2.0, rel=1e-12)
    assert vals.energy == pytest.approx(expected_energy, rel=1e-12)
    assert vals.dyn_momentum == pytest.approx(20.0 - 20.0, abs=1e-9)
    # field momentum: +20 in glass and -20 in vacuum; Abraham divides by n^2
    assert vals.field_momentum == pytest.approx(0.0, abs=1e-8)
    assert vals.abraham_momentum == pytest.approx(20.0 / 4.0 - 20.0, rel=1e-9)


def test_packet_report_tags_and_values(rig_packet, glass):
    rep = bs.spectral_expectations(bs.to_momentum(rig_packet), {+1: glass, -1: glass})
    assert rep.medium_tag == "n=2"
    assert rep.photon_number == pytest.approx(1.0, abs=1e-12)
    assert rep.energy == pytest.approx(15.0, abs=1e-9)  # c = 1/2
    assert rep.dyn_momentum == pytest.approx(30.0, abs=1e-9)
    assert rep.field_momentum == pytest.approx(30.0, abs=1e-8)


def test_conditional_expectations_per_branch(rig_packet, ref_medium, glass):
    out = bs.interface_scatter(rig_packet, ref_medium, glass, t_final=140.0)
    assert out.asymptotic
    cond_t = bs.conditional_expectations(out, "transmitted")
    assert cond_t.photon_number == 1.0
    assert cond_t.dyn_momentum == pytest.approx(60.0, rel=1e-9)  # n*k0
    assert cond_t.energy == pytest.approx(30.0, rel=1e-9)  # conserved per photon
    cond_r = bs.conditional_expectations(out, "reflected")
    assert cond_r.dyn_momentum == pytest.approx(-30.0, rel=1e-9)
    assert cond_r.medium_tag == "n=1"
    with pytest.raises(bs.DomainError):
        bs.conditional_expectations(out, "absorbed")
    with pytest.raises(bs.DomainError, match="hbar must be positive and finite"):
        bs.conditional_expectations(out, "transmitted", hbar=-1.0)


def test_conditional_rejects_empty_branch(rig_packet, ref_medium):
    out = bs.interface_scatter(rig_packet, ref_medium, ref_medium, t_final=140.0)
    assert out.asymptotic and out.prob_r == 0.0
    with pytest.raises(bs.ZeroNormError):
        bs.conditional_expectations(out, "reflected")


def test_conditional_weight_is_relative_to_the_incident_weight(rig_packet, ref_medium, glass):
    """A packet of norm 1e-14: its transmitted branch holds 89 % of the state."""
    faint = bs.BlipWavePacket(rig_packet.grid, {ch: 1e-7 * a for ch, a in rig_packet.amp.items()})
    out = bs.interface_scatter(faint, ref_medium, glass, t_final=140.0)
    assert out.asymptotic and out.prob_t < CONDITIONAL_MIN_WEIGHT
    incident = bs.spectral_expectations(bs.to_momentum(faint), {+1: bs.Medium.reference()})
    p_in = incident.dyn_momentum / incident.photon_number  # per photon, as the conditional
    cond = bs.conditional_expectations(out, "transmitted")
    assert abs(cond.dyn_momentum / p_in - 2.0) <= 1e-9
    lossless = bs.interface_scatter(faint, ref_medium, ref_medium, t_final=140.0)
    assert lossless.asymptotic and lossless.prob_r == 0.0
    with pytest.raises(bs.ZeroNormError):
        bs.conditional_expectations(lossless, "reflected")


def test_hbar_rescales_dimensionful_observables(rig_packet, ref_medium):
    sp = bs.to_momentum(rig_packet)
    base = bs.expect_dyn_momentum(sp)
    assert bs.expect_dyn_momentum(sp, hbar=3.0) == pytest.approx(3.0 * base, rel=1e-14)
    assert oracles.dyn_momentum_position_form(rig_packet, hbar=3.0) == pytest.approx(
        3.0 * base, rel=1e-10
    )
    for bad in (math.nan, math.inf, 0.0, -1.0):
        with pytest.raises(bs.DomainError, match="hbar must be positive and finite"):
            in_medium(sp, ref_medium, hbar=bad)


def test_single_bin_generators_are_sharp(rig_grid, ref_medium):
    m = rig_grid.n_points // 2 + 123
    k_m = rig_grid.k[m]
    for s in (+1, -1):
        sp = bs.to_momentum(plane_wave(rig_grid, (s, "H"), m))
        assert in_medium(sp, ref_medium).energy == pytest.approx(abs(k_m), rel=1e-13)
        assert in_medium(sp, ref_medium).dyn_hamiltonian == pytest.approx(k_m, rel=1e-13)
        assert bs.expect_dyn_momentum(sp) == pytest.approx(s * k_m, rel=1e-13)
