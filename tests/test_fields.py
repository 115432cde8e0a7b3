import math

import numpy as np
import pytest

import blipsim as bs
import oracles

from test_spectral import plane_wave


def everywhere(m):
    """Both directions in medium ``m``."""
    return {+1: m, -1: m}


def test_zeta_values(ref_medium, glass):
    assert bs.zeta(4.0, ref_medium) == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-15)
    assert bs.zeta(0.0, ref_medium) == 0.0
    assert bs.zeta(-4.0, ref_medium) == bs.zeta(4.0, ref_medium)
    # glass: sqrt(2 * 0.5 / 4) = 0.5 prefactor
    assert bs.zeta(4.0, glass) == pytest.approx(1.0, rel=1e-15)
    ks = np.array([0.0, 1.0, 9.0])
    np.testing.assert_allclose(bs.zeta(ks, ref_medium), np.sqrt(2.0 * ks), rtol=1e-15)
    for bad in (math.nan, math.inf, 0.0, -1.0):
        with pytest.raises(bs.DomainError, match="hbar must be positive and finite"):
            bs.zeta(ks, ref_medium, bad)


@pytest.mark.parametrize("medium, hbar", [
    (dict(area=1e-310), 1.0),  # the prefactor overflows
    (dict(epsilon=1e-200, mu=1e200, area=1e-200), 1.0),  # epsilon A underflows to 0
    (dict(area=1e300), 1e-300),  # the prefactor underflows to 0
])
def test_a_prefactor_that_is_not_finite_and_positive_raises_domain_error(small_grid, medium, hbar):
    m = bs.Medium(**medium)
    sp = bs.to_momentum(bs.gaussian_packet(small_grid, (+1, "H"), 0.0, 20.0, 1.5))
    refused = r"2 hbar c / \(epsilon A\) must be positive and finite"
    with pytest.raises(bs.DomainError, match=refused):
        bs.zeta(0.0, m, hbar)
    with pytest.raises(bs.DomainError, match=refused):
        bs.field_profile(sp, {+1: m}, hbar)


def test_orientation_table(rig_grid, ref_medium):
    """H excites (E_y, B_z), V excites (E_z, B_y); B flips sign with s."""
    for s in (+1, -1):
        h = bs.to_momentum(bs.gaussian_packet(rig_grid, (s, "H"), 0.0, 20.0, 2.0))
        fp = bs.field_profile(h, everywhere(ref_medium))
        assert np.max(np.abs(fp.e_y)) > 0.1
        assert np.all(fp.e_z == 0.0) and np.all(fp.b_y == 0.0)
        np.testing.assert_allclose(fp.b_z, s * fp.e_y, rtol=0, atol=1e-15)

        v = bs.to_momentum(bs.gaussian_packet(rig_grid, (s, "V"), 0.0, 20.0, 2.0))
        fpv = bs.field_profile(v, everywhere(ref_medium))
        assert np.max(np.abs(fpv.e_z)) > 0.1
        assert np.all(fpv.e_y == 0.0) and np.all(fpv.b_z == 0.0)
        np.testing.assert_allclose(fpv.b_y, -s * fpv.e_z, rtol=0, atol=1e-15)


def test_profiles_are_read_only_values(rig_grid, ref_medium):
    """``field_profile`` freezes the arrays it built; the public constructor copies its own."""
    sp = bs.to_momentum(bs.gaussian_packet(rig_grid, (+1, "H"), 0.0, 20.0, 2.0))
    fp = bs.field_profile(sp, everywhere(ref_medium))
    assert not any(a.flags.writeable for a in (fp.e_y, fp.e_z, fp.b_y, fp.b_z))
    given = [np.array(a) for a in (fp.e_y, fp.e_z, fp.b_y, fp.b_z)]
    copy = bs.FieldProfile(rig_grid, *given, medium_tag=fp.medium_tag)
    given[0][:] = 0.0
    np.testing.assert_array_equal(copy.e_y, fp.e_y)
    assert not copy.e_y.flags.writeable


def test_single_bin_field_functionals(rig_grid, ref_medium):
    """One excitation in bin k_m carries field energy |k_m| and momentum s*|k_m|."""
    for s in (+1, -1):
        for m in (rig_grid.n_points // 2 + 210, rig_grid.n_points // 2 - 210):
            k_m = rig_grid.k[m]
            sp = bs.to_momentum(plane_wave(rig_grid, (s, "H"), m))
            fp = bs.field_profile(sp, everywhere(ref_medium))
            assert oracles.energy_from_fields(fp, ref_medium) == pytest.approx(
                abs(k_m), rel=1e-12
            )
            assert oracles.momentum_from_fields(fp, ref_medium) == pytest.approx(
                s * abs(k_m), rel=1e-12
            )


def test_field_functionals_match_number_basis(rig_grid):
    """Quadratic field functionals equal the number-basis sums, mixed channels."""
    medium = bs.Medium(epsilon=2.25, mu=1.0)
    h = bs.gaussian_packet(rig_grid, (+1, "H"), x0=-50.0, k0=30.0, sigma=2.0)
    v = bs.gaussian_packet(rig_grid, (-1, "V"), x0=40.0, k0=12.0, sigma=3.0)
    p = bs.combine(
        bs.BlipWavePacket(rig_grid, {(+1, "H"): 0.8 * h.amplitude((+1, "H"))}),
        bs.BlipWavePacket(rig_grid, {(-1, "V"): 0.6 * v.amplitude((-1, "V"))}),
    )
    sp = bs.to_momentum(p)
    k = rig_grid.k
    absk = np.abs(k)
    num_E = medium.c * sum(
        float(np.sum(absk * np.abs(a) ** 2)) for a in sp.amp.values()
    ) * rig_grid.dk
    num_P = sum(
        ch.s * float(np.sum(absk * np.abs(a) ** 2)) for ch, a in sp.amp.items()
    ) * rig_grid.dk
    fp = bs.field_profile(sp, everywhere(medium))
    assert oracles.energy_from_fields(fp, medium) == pytest.approx(num_E, rel=1e-12)
    assert oracles.momentum_from_fields(fp, medium) == pytest.approx(num_P, rel=1e-12)
    assert oracles.momentum_imaginary_residual(fp, medium) < 1e-12


def test_counterpropagating_cross_terms_cancel(rig_grid, ref_medium):
    """Overlapping +s and -s content interferes in the fields but not in the
    integrated functionals: the totals are the sums of the channel values."""
    a = bs.gaussian_packet(rig_grid, (+1, "H"), x0=0.0, k0=25.0, sigma=4.0)
    b = bs.gaussian_packet(rig_grid, (-1, "H"), x0=0.0, k0=25.0, sigma=4.0)
    both = bs.combine(a, b)
    fp = bs.field_profile(bs.to_momentum(both), everywhere(ref_medium))
    e_total = oracles.energy_from_fields(fp, ref_medium)
    p_total = oracles.momentum_from_fields(fp, ref_medium)
    e_parts = sum(
        oracles.energy_from_fields(bs.field_profile(bs.to_momentum(q), everywhere(ref_medium)), ref_medium)
        for q in (a, b)
    )
    p_parts = sum(
        oracles.momentum_from_fields(bs.field_profile(bs.to_momentum(q), everywhere(ref_medium)), ref_medium)
        for q in (a, b)
    )
    assert e_total == pytest.approx(e_parts, rel=1e-10)
    assert p_total == pytest.approx(p_parts, abs=1e-10 * e_parts)
    assert p_total == pytest.approx(0.0, abs=1e-8)


def test_one_profile_of_a_scattered_state_is_its_channels_each_in_its_own_medium(rig_packet):
    """At n = 2 the map's total spectrum holds a transmitted channel in glass and a
    reflected one in the reference medium: its one profile over the outgoing media
    is, bit for bit in E and in B, the sum of single-channel, single-medium profiles."""
    outcome = bs.interface_scatter(rig_packet, bs.Medium.reference(), bs.Medium.from_index(2.0), 140.0)
    sp, media = outcome.spectra["total"], outcome.outgoing
    assert len(sp.amp) == 2
    for t in (0.0, outcome.t_final):
        fp = bs.field_profile(sp, media, 1.0, t)
        assert fp.medium_tag == "n=1+n=2"
        parts = [bs.field_profile(bs.SpectralWavePacket(sp.grid, {ch: a}), {ch.s: media[ch.s]}, 1.0, t)
                 for ch, a in sp.amp.items()]
        for name in ("e_y", "e_z", "b_y", "b_z"):
            total = np.zeros(sp.grid.n_points, dtype=np.complex128)
            for part in parts:
                total += getattr(part, name)
            np.testing.assert_array_equal(getattr(fp, name), total)


def test_a_direction_without_a_medium_is_refused(rig_packet, glass):
    """One media rule reads a channel in its direction's medium, and refuses a direction with none."""
    sp = bs.to_momentum(rig_packet)  # one +1 channel
    for media in ({-1: glass}, {}):
        for read in (lambda: bs.to_position(sp, media, 1.0), lambda: bs.field_profile(sp, media),
                     lambda: bs.spectral_expectations(sp, media)):
            with pytest.raises(bs.DomainError, match="no medium given for direction 1"):
                read()
    with pytest.raises(bs.DomainError, match="no medium given for direction 1"):
        bs.to_position(sp, None, 1.0)


def test_profile_medium_tag_consistency(rig_packet, ref_medium, glass):
    fp = bs.field_profile(bs.to_momentum(rig_packet), everywhere(ref_medium))
    with pytest.raises(bs.ConsistencyError):
        oracles.energy_from_fields(fp, glass)
    with pytest.raises(bs.ConsistencyError):
        oracles.momentum_from_fields(fp, glass)


def test_position_kernel_shape(ref_medium):
    xi = np.array([-8.0, -2.0, 0.5, 2.0, 8.0])
    r = oracles.position_kernel_R(xi, ref_medium, cutoff=1.0)
    assert np.all(r < 0.0)
    assert r[1] == r[3]  # even in the offset
    # inverse-3/2 power: scaling xi by 4 divides by 8
    assert r[4] == pytest.approx(r[3] / 8.0, rel=1e-14)
    # plateau clamp below the cutoff
    assert r[2] == oracles.position_kernel_R(1.0, ref_medium, cutoff=1.0)
    assert oracles.position_kernel_R(2.0, ref_medium, cutoff=1.0) == pytest.approx(
        -math.sqrt(1.0 / (4.0 * math.pi)) * 2.0**-1.5, rel=1e-14
    )
    with pytest.raises(bs.DomainError):
        oracles.position_kernel_R(xi, ref_medium, cutoff=0.0)


def test_position_kernel_transform_study(rig_grid, ref_medium):
    """How the clamped pair kernel relates to the spectral weight.

    The lattice transform of the clamped |xi|^(-3/2) kernel equals the
    band's sqrt(|k|) weight only up to a k-independent offset that grows
    like cutoff^(-1/2) as the clamp tightens.  Frozen study on the rig
    grid, weighted by a k0 = 30 packet: the raw L2 mismatch stays O(1) at
    every cutoff (and grows once the offset dominates), while the
    offset-corrected mismatch falls monotonically to ~4.4e-4 at
    cutoff = dx.
    """
    n = rig_grid.n_points
    dx = rig_grid.dx
    xi = rig_grid.x  # symmetric lattice of offsets
    psi = bs.gaussian_packet(rig_grid, (+1, "H"), 0.0, 30.0, 2.0)
    phi = bs.to_momentum(psi).amp[bs.Channel(1, "H")]
    target = bs.zeta(rig_grid.k, ref_medium)
    band = np.abs(phi) > 1e-8 * np.max(np.abs(phi))

    raws, offsets, corrected = [], [], []
    for mult in (8, 4, 2, 1):
        kernel = oracles.position_kernel_R(xi, ref_medium, cutoff=mult * dx)
        fk = dx * np.fft.fftshift(np.fft.fft(np.fft.ifftshift(kernel))).real
        dev = fk - target
        weight = np.sum(np.abs(target * phi) ** 2)
        raws.append(math.sqrt(np.sum(np.abs(dev * phi) ** 2) / weight))
        off = float(np.mean(dev[band]))
        offsets.append(off)
        corrected.append(math.sqrt(np.sum(np.abs((dev - off) * phi) ** 2) / weight))

    assert corrected == pytest.approx([4.3536e-3, 3.8621e-3, 1.6719e-3, 4.3733e-4], rel=1e-3)
    assert all(a > b for a, b in zip(corrected, corrected[1:]))
    assert corrected[-1] < 5e-4
    # the uncorrected route never converges: the offset diverges instead
    assert all(r > 0.5 for r in raws)
    assert abs(offsets[-1]) > abs(offsets[0])
    assert abs(offsets[-1]) == pytest.approx(11.44, rel=0.01)
