import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import blipsim as bs
from blipsim.scattering import GUARD_HALF_CELLS, GUARD_TOL, NEGLIGIBLE_WEIGHT, _guard_fractions


# ---------------------------------------------------------------------------
# closed-form amplitude table


def test_fresnel_rates_known_values():
    r = bs.fresnel_rates(2.0)
    assert r.t_plus == r.t_minus == pytest.approx(0.9428090415820634, rel=1e-15)
    assert r.t_plus == pytest.approx(2.0 * math.sqrt(2.0) / 3.0, rel=1e-15)
    assert r.r_minus == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert r.r_plus == pytest.approx(-1.0 / 3.0, rel=1e-15)
    unity = bs.fresnel_rates(1.0)
    assert unity.t_plus == 1.0 and unity.r_plus == 0.0
    with pytest.raises(bs.DomainError):
        bs.fresnel_rates(0.0)


def test_rates_accessors():
    r = bs.fresnel_rates(4.0)
    assert r.t(+1) == r.t_plus and r.t(-1) == r.t_minus
    assert r.r(+1) == r.r_plus and r.r(-1) == r.r_minus


def test_omega_from_n_known_values():
    assert bs.omega_from_n(2.0).omega == pytest.approx(-0.34314575050761986j, rel=1e-15)
    assert bs.omega_from_n(4.0).omega == pytest.approx(-2j / 3.0, rel=1e-15)
    assert bs.omega_from_n(1.0).omega == 0.0
    assert bs.omega_from_n(2.0, c0=3.0).omega == pytest.approx(3 * -0.34314575050761986j, rel=1e-15)


def test_omega_from_n_refuses_an_index_whose_coupling_rounds_to_one():
    """Every finite n > 0 has q < 1, but far from n = 1 the float q rounds
    to 1: the coupling is refused there, naming the index, and is never
    handed to the rates as a divergent one."""
    for n in (1e32, 1e-33):
        with pytest.raises(bs.DomainError, match=re.escape(f"index n = {n!r} is out of range")):
            bs.omega_from_n(n)
    assert bs.omega_from_n(1e30).is_resummable and bs.omega_from_n(1e-30).is_resummable


def test_point_rates_match_boundary_rates():
    """The resummed point-scatterer amplitudes reproduce the boundary table."""
    for n in np.linspace(1.0, 10.0, 19):
        a = bs.rates_from_omega(bs.omega_from_n(float(n)))
        b = bs.fresnel_rates(float(n))
        assert abs(a.t_plus - b.t_plus) < 1e-14
        assert abs(a.t_minus - b.t_minus) < 1e-14
        assert abs(a.r_plus - b.r_plus) < 1e-14
        assert abs(a.r_minus - b.r_minus) < 1e-14


def test_stokes_residuals_vanish():
    rng = np.random.default_rng(99)
    couplings = [bs.omega_from_n(n) for n in (1.0, 1.5, 2.0, 5.0, 9.5)]
    for _ in range(25):
        w = rng.uniform(0.05, 1.9) * np.exp(2j * math.pi * rng.uniform())
        couplings.append(bs.MirrorCoupling(omega=complex(w)))
    for mc in couplings:
        rates = bs.rates_from_omega(mc)
        cross, d_minus, d_plus = bs.stokes_residuals(rates)
        assert cross < 1e-14
        assert d_minus < 1e-14
        assert d_plus < 1e-14


@settings(max_examples=300, deadline=None, database=None)
@given(log10_n=st.floats(-6.0, 6.0))
def test_stokes_residuals_vanish_for_every_index(log10_n):
    """The normal-incidence table at n log-uniform on [1e-6, 1e6]."""
    assert max(bs.stokes_residuals(bs.fresnel_rates(10.0**log10_n))) <= 1e-14


@settings(max_examples=300, deadline=None, database=None)
@given(q=st.floats(0.0, 0.999999), phase=st.floats(-math.pi, math.pi), log10_c=st.floats(-3.0, 3.0))
def test_stokes_residuals_vanish_for_every_resummable_coupling(q, phase, log10_c):
    """The resummed point scatterer at Omega = 2 c q exp(i phase), c log-uniform
    on [1e-3, 1e3], q up to a millionth below the radius of convergence."""
    c = 10.0**log10_c
    mc = bs.MirrorCoupling(omega=2.0 * c * q * complex(math.cos(phase), math.sin(phase)), c_ref=c)
    assert max(bs.stokes_residuals(bs.rates_from_omega(mc))) <= 1e-14


def test_mirror_coupling_parameters():
    mc = bs.MirrorCoupling(omega=-0.6j, c_ref=1.0)
    assert mc.q == pytest.approx(0.3, rel=1e-15)
    assert mc.is_resummable
    strong = bs.MirrorCoupling(omega=4.0, c_ref=1.0)  # constructible on purpose
    assert strong.q == 2.0 and not strong.is_resummable
    with pytest.raises(bs.DivergenceError):
        bs.rates_from_omega(strong)
    with pytest.raises(bs.DomainError):
        bs.MirrorCoupling(omega=1.0, c_ref=0.0)
    with pytest.raises(bs.DomainError):
        bs.MirrorCoupling(omega=complex(math.nan, 0.0))


# ---------------------------------------------------------------------------
# Born series partial sums


def test_dyson_partial_sums_structure():
    mc = bs.MirrorCoupling(omega=-2j * 0.3)
    sums = bs.dyson_partial_sums(mc, 5)
    assert len(sums) == 5
    t0, r0 = sums[0]
    assert t0 == 1.0  # zeroth order transmits untouched
    assert r0 == pytest.approx(-1j * mc.omega, rel=1e-15)
    exact = bs.rates_from_omega(mc)
    t_last, r_last = sums[-1]
    assert abs(t_last - exact.t_plus) < abs(t0 - exact.t_plus)
    assert abs(r_last - exact.r_plus) < abs(r0 - exact.r_plus)
    for n_terms in (0, True, 2.0, 2.5):
        with pytest.raises(bs.DomainError):
            bs.dyson_partial_sums(mc, n_terms)
    assert bs.dyson_partial_sums(mc, np.int64(5)) == sums


def test_dyson_frozen_remainder_and_bound():
    """Frozen case q = 0.17157: the 6th partial sum misses the closed form
    by 3.720557e-11.  That sits inside the geometric tail bound
    2 q^14/(1-q^2) = 3.946252e-11 but OUTSIDE the bare power q^14 =
    1.915045e-11, so the bare power is not a valid error estimate."""
    q = 0.17157
    mc = bs.MirrorCoupling(omega=-2j * q)
    sums = bs.dyson_partial_sums(mc, 7)
    exact = bs.rates_from_omega(mc)
    err_t = abs(sums[6][0] - exact.t_plus)
    assert err_t == pytest.approx(3.720557e-11, rel=1e-5)
    bound = bs.dyson_remainder_bound(mc, 6, "t")
    assert bound == pytest.approx(3.946252e-11, rel=1e-5)
    assert bound == pytest.approx(2.0 * q**14 / (1.0 - q * q), rel=1e-12)
    assert err_t <= bound
    assert err_t > q**14


def test_dyson_bound_holds_at_every_order():
    """Every order obeys the analytic tail bound up to the rounding floor
    (the float remainder saturates near 1 ulp while the bound keeps
    shrinking, e.g. q = 0.1 beyond order 6)."""
    floor = bs.scattering.REMAINDER_ROUNDING_FLOOR
    for q in (0.1, 0.17157, 0.5, 0.9):
        mc = bs.MirrorCoupling(omega=-2j * q)
        exact = bs.rates_from_omega(mc)
        for order, (t_part, r_part) in enumerate(bs.dyson_partial_sums(mc, 12)):
            assert abs(t_part - exact.t_plus) <= bs.dyson_remainder_bound(mc, order, "t") + floor
            assert abs(r_part - exact.r_plus) <= bs.dyson_remainder_bound(mc, order, "r") + floor


def test_dyson_divergence_detected():
    """At q >= 1 the increments stop shrinking; sums are still computable."""
    for q in (1.0, 1.5):
        mc = bs.MirrorCoupling(omega=-2j * q)
        sums = bs.dyson_partial_sums(mc, 8)
        steps = [abs(sums[i + 1][0] - sums[i][0]) for i in range(len(sums) - 1)]
        assert all(b >= a - 1e-15 for a, b in zip(steps, steps[1:]))
        assert steps[-1] >= 2.0 - 1e-12
        assert math.isinf(bs.dyson_remainder_bound(mc, 3, "t"))
        with pytest.raises(bs.DivergenceError):
            bs.rates_from_omega(mc)


def test_dyson_partial_sums_at_a_huge_coupling_overflow_without_raising():
    """q**2 would raise OverflowError above q = 1.34e154; the sums turn non-finite instead."""
    sums = bs.dyson_partial_sums(bs.MirrorCoupling(omega=-2j * 1e200), 4)
    assert sums[0][0] == 1.0
    assert not any(math.isfinite(t.real) for t, _ in sums[1:])


def test_dyson_remainder_bound_guards():
    mc = bs.MirrorCoupling(omega=-2j * 0.3)
    for order in (-1, False, 1.5, 2.0):
        with pytest.raises(bs.DomainError):
            bs.dyson_remainder_bound(mc, order, "t")
    assert bs.dyson_remainder_bound(mc, np.int64(2), "t") == bs.dyson_remainder_bound(mc, 2, "t")
    with pytest.raises(bs.DomainError):
        bs.dyson_remainder_bound(mc, 2, "x")


# ---------------------------------------------------------------------------
# beamsplitter map (single medium)


def test_beamsplitter_splits_and_conserves(rig_packet, ref_medium):
    rates = bs.rates_from_omega(bs.MirrorCoupling(omega=-2j * 0.3))
    out = bs.interface_scatter(rig_packet, 1.0, 140.0, rates=rates, left=ref_medium, right=ref_medium)
    assert out.prob_t == pytest.approx(abs(rates.t_plus) ** 2, rel=1e-9)
    assert out.prob_r == pytest.approx(abs(rates.r_plus) ** 2, rel=1e-9)
    assert out.prob_t + out.prob_r == pytest.approx(1.0, abs=1e-9)
    assert out.transmitted.channels() == (bs.Channel(1, "H"),)
    assert out.reflected.channels() == (bs.Channel(-1, "H"),)
    assert out.asymptotic and out.resampling_drift == 0.0
    # transmitted keeps moving right; reflected is the mirror image
    assert bs.centroid(out.transmitted) == pytest.approx(80.0, abs=1e-6)
    assert bs.centroid(out.reflected) == pytest.approx(-80.0, abs=1e-6)


def test_beamsplitter_spectrum_untouched(rig_grid, rig_packet):
    """No wavenumber rescaling at a point coupling: |psi~| is preserved
    branchwise up to the constant amplitudes."""
    rates = bs.rates_from_omega(bs.MirrorCoupling(omega=-2j * 0.3))
    m = bs.Medium.reference()
    out = bs.interface_scatter(rig_packet, 1.0, 140.0, rates=rates, left=m, right=m)
    phi_in = np.abs(bs.to_momentum(rig_packet).amp[bs.Channel(1, "H")])
    phi_t = np.abs(bs.to_momentum(out.transmitted).amp[bs.Channel(1, "H")])
    phi_r = np.abs(bs.to_momentum(out.reflected).amp[bs.Channel(-1, "H")])
    assert np.max(np.abs(phi_t - abs(rates.t_plus) * phi_in)) < 1e-12
    assert np.max(np.abs(phi_r - abs(rates.r_plus) * phi_in)) < 1e-12


# ---------------------------------------------------------------------------
# boundary map (two media)


def test_interface_air_to_medium_expectations(rig_packet, ref_medium, glass):
    n = 2.0
    out = bs.interface_scatter(rig_packet, n, t_final=140.0)
    assert out.prob_t == pytest.approx(8.0 / 9.0, rel=1e-9)
    assert out.prob_r == pytest.approx(1.0 / 9.0, rel=1e-9)
    assert out.prob_t + out.prob_r == pytest.approx(1.0, abs=1e-9)

    media = {+1: glass, -1: ref_medium}
    total = bs.combine(out.transmitted, out.reflected)
    vals = bs.spectral_expectations(bs.to_momentum(total), media)
    assert vals.energy == pytest.approx(30.0, rel=1e-9)
    assert vals.dyn_momentum == pytest.approx(30.0 * (3 * n - 1) / (n + 1), rel=1e-9)
    # transmitted spectral peak sits at n*k0 within one bin
    phi_t = bs.to_momentum(out.transmitted).amp[bs.Channel(1, "H")]
    k_peak = rig_packet.grid.k[int(np.argmax(np.abs(phi_t)))]
    assert abs(k_peak - n * 30.0) <= rig_packet.grid.dk


def test_interface_medium_to_air_expectations(rig_grid, ref_medium, glass):
    n = 2.0
    p = bs.gaussian_packet(rig_grid, (-1, "H"), x0=30.0, k0=30.0, sigma=2.0)
    out = bs.interface_scatter(p, n, t_final=150.0)
    assert out.prob_t + out.prob_r == pytest.approx(1.0, abs=1e-9)
    media = {+1: glass, -1: ref_medium}
    total = bs.combine(out.transmitted, out.reflected)
    vals = bs.spectral_expectations(bs.to_momentum(total), media)
    assert vals.energy == pytest.approx(15.0, rel=1e-9)  # hbar c_glass k0
    p_in = -30.0  # s = -1 carrier
    assert vals.dyn_momentum == pytest.approx(p_in * (3 - n) / (n + 1), rel=1e-9)
    # transmitted (still s = -1, now in the fast medium) peaks at k0/n
    phi_t = bs.to_momentum(out.transmitted).amp[bs.Channel(-1, "H")]
    k_peak = rig_grid.k[int(np.argmax(np.abs(phi_t)))]
    assert abs(k_peak - 30.0 / n) <= rig_grid.dk
    # reflected flipped to s = +1 and stays in the slow medium
    assert out.reflected.channels() == (bs.Channel(1, "H"),)
    assert bs.centroid(out.reflected) == pytest.approx(0.5 * (150.0 - 60.0), abs=1e-3)


def test_interface_keeps_wavenumber_sign(rig_grid):
    """A right-mover with negative carrier still transmits to negative
    carrier: rescaling never moves weight across k = 0."""
    p = bs.gaussian_packet(rig_grid, (+1, "H"), x0=-60.0, k0=-30.0, sigma=2.0)
    out = bs.interface_scatter(p, 2.0, t_final=140.0)
    grid = rig_grid
    phi_t = bs.to_momentum(out.transmitted).amp[bs.Channel(1, "H")]
    pos_mass = float(np.sum(np.abs(phi_t[grid.k > 0]) ** 2)) * grid.dk
    assert pos_mass < 1e-20
    k_peak = grid.k[int(np.argmax(np.abs(phi_t)))]
    assert abs(k_peak - (-60.0)) <= grid.dk
    vals = bs.spectral_expectations(
        bs.to_momentum(bs.combine(out.transmitted, out.reflected)),
        {+1: bs.Medium.from_index(2.0), -1: bs.Medium.reference()},
    )
    assert vals.dyn_momentum == pytest.approx(-30.0 * 5.0 / 3.0, rel=1e-9)


def test_outcome_incident_is_the_spectrum_of_the_in_packet(rig_grid):
    """The map's own forward transform of each incident channel, bit for bit;
    and the stored total spectrum is the per-channel sum of the branch spectra."""
    right = bs.gaussian_packet(rig_grid, (+1, "H"), x0=-60.0, k0=30.0, sigma=2.0)
    left = bs.gaussian_packet(rig_grid, (-1, "V"), x0=30.0, k0=25.0, sigma=2.0)
    p = bs.combine(right, left)
    out = bs.interface_scatter(p, 2.0, t_final=140.0)
    assert isinstance(out.incident, bs.SpectralWavePacket)
    want = bs.to_momentum(p)
    assert out.incident.channels() == want.channels()
    for ch in want.channels():
        assert np.array_equal(out.incident.amp[ch], want.amp[ch]), ch
    total = bs.combine(out.spectra["transmitted"], out.spectra["reflected"])
    assert out.spectra["total"].channels() == total.channels()
    for ch, a in total.amp.items():
        assert np.array_equal(out.spectra["total"].amp[ch], a)


def test_the_map_builds_its_outcome_once_with_every_field_given(rig_packet, monkeypatch):
    """``interface_scatter`` constructs one ``ScatterOutcome`` per call, and
    the class has no field defaults that a half-built outcome could lean on."""
    assert [
        f.name for f in dataclasses.fields(bs.ScatterOutcome)
        if f.default is not dataclasses.MISSING or f.default_factory is not dataclasses.MISSING
    ] == []
    built = []
    init = bs.ScatterOutcome.__init__
    monkeypatch.setattr(bs.ScatterOutcome, "__init__", lambda self, **kw: built.append(1) or init(self, **kw))
    for kwargs in ({"t_final": 140.0}, {"t_final": 61.0, "allow_partial": True}):
        built.clear()
        out = bs.interface_scatter(rig_packet, 2.0, **kwargs)
        assert len(built) == 1 and out.t_final == kwargs["t_final"], kwargs


def test_interface_unit_index_is_free_flight(rig_packet):
    out = bs.interface_scatter(rig_packet, 1.0, t_final=140.0)
    assert out.prob_r == 0.0
    assert out.prob_t == pytest.approx(1.0, abs=1e-12)
    assert out.resampling_drift == 0.0
    assert bs.centroid(out.transmitted) == pytest.approx(80.0, abs=1e-6)


def test_double_transition_recovers_shape(rig_grid, rig_packet, ref_medium, glass):
    """Passing into the medium and back out restores the spectral shape."""
    first = bs.interface_scatter(rig_packet, 2.0, t_final=140.0)
    # bring the transmitted branch back to the left of a second boundary
    inside = bs.evolve_free(first.transmitted, glass, -160.0)
    assert bs.centroid(inside) == pytest.approx(-40.0, abs=1e-6)
    second = bs.interface_scatter(
        inside, 0.5, t_final=120.0, left=glass, right=ref_medium
    )
    phi_in = np.abs(bs.to_momentum(rig_packet).amp[bs.Channel(1, "H")])
    phi_out = np.abs(bs.to_momentum(second.transmitted).amp[bs.Channel(1, "H")])
    # compare normalized moduli: all phases (propagation, amplitudes) drop out
    overlap = float(np.sum(phi_in * phi_out)) / math.sqrt(
        float(np.sum(phi_in**2)) * float(np.sum(phi_out**2))
    )
    assert overlap == pytest.approx(1.0, abs=1e-8)
    k_peak = rig_grid.k[int(np.argmax(phi_out))]
    assert abs(k_peak - 30.0) <= rig_grid.dk


def test_interface_media_consistency_checks(rig_packet, ref_medium, glass):
    out = bs.interface_scatter(rig_packet, 2.0, t_final=140.0, left=ref_medium, right=glass)
    assert out.prob_t == pytest.approx(8.0 / 9.0, rel=1e-9)
    with pytest.raises(bs.ConsistencyError):
        bs.interface_scatter(rig_packet, 3.0, t_final=140.0, left=ref_medium, right=glass)
    with pytest.raises(bs.ConsistencyError):
        bs.interface_scatter(rig_packet, 2.0, t_final=140.0, left=ref_medium)
    with pytest.raises(bs.DomainError):
        bs.interface_scatter(rig_packet, -1.0, t_final=140.0)


def test_support_guard_rules(rig_grid, rig_packet):
    # straddling the scatterer
    with pytest.raises(bs.SupportGuardError):
        bs.interface_scatter(
            bs.gaussian_packet(rig_grid, (+1, "H"), x0=0.0, k0=30.0, sigma=2.0),
            2.0,
            t_final=140.0,
        )
    # right-mover on the wrong side
    with pytest.raises(bs.SupportGuardError):
        bs.interface_scatter(
            bs.gaussian_packet(rig_grid, (+1, "H"), x0=60.0, k0=30.0, sigma=2.0),
            2.0,
            t_final=140.0,
        )
    # left-mover on the wrong side
    with pytest.raises(bs.SupportGuardError):
        bs.interface_scatter(
            bs.gaussian_packet(rig_grid, (-1, "H"), x0=-60.0, k0=30.0, sigma=2.0),
            2.0,
            t_final=140.0,
        )


def test_not_asymptotic_handling(rig_packet):
    with pytest.raises(bs.NotAsymptoticError):
        bs.interface_scatter(rig_packet, 2.0, t_final=61.0)
    out = bs.interface_scatter(rig_packet, 2.0, t_final=61.0, allow_partial=True)
    assert not out.asymptotic
    assert out.guard_fraction > bs.scattering.GUARD_TOL
    # probabilities are still the branch norms and still sum to one
    assert out.prob_t + out.prob_r == pytest.approx(1.0, abs=1e-9)


def test_band_edge_overflow_rejected(rig_grid):
    """Transmission would compress the spectrum past the band edge."""
    p = bs.gaussian_packet(rig_grid, (+1, "H"), x0=-60.0, k0=90.0, sigma=2.0)
    with pytest.raises(bs.InterpolationAccuracyError):
        bs.interface_scatter(p, 2.0, t_final=140.0)


@pytest.mark.filterwarnings("error")
def test_the_chirp_windows_stay_finite_at_extreme_speed_ratios():
    """Media whose speed ratio is 1e307 scale the transmitted wavenumbers by 1e-307 (or 1e307 for
    the left-mover): the output window's offsets, incident bins over the scale, would overflow, so
    they are clipped to the band first.  The map runs, and its transmitted branch is empty."""
    grid = bs.make_grid(-200.0, 200.0, 2048)
    for s, x0 in ((+1, -60.0), (-1, 60.0)):
        p = bs.gaussian_packet(grid, (s, "H"), x0, 5.0, 2.0)
        slow, fast = bs.Medium(epsilon=1e308), bs.Medium(epsilon=1e-306)
        left, right = (fast, slow) if s > 0 else (slow, fast)
        out = bs.interface_scatter(p, left.c / right.c, t_final=0.0, left=left, right=right, allow_partial=True)
        assert out.prob_t == 0.0 and out.resampling_drift <= 1e-300, (s, out.prob_t, out.resampling_drift)


def test_a_branch_leaving_the_grid_is_refused_before_the_chirp(monkeypatch):
    """The edge rule reads the branch supports from the incident state, so a
    transmitted branch that outruns the grid (n < 1: faster, and its support
    stretched by 1/n) is named before any FFT or chirp runs; at n = 3 the
    branches stay on the grid and the chirp's drift is what refuses the spectrum."""
    import blipsim.spectral as spectral

    grid = bs.make_grid(-200.0, 200.0, 2048)
    p = bs.gaussian_packet(grid, (+1, "H"), x0=-60.0, k0=5.0, sigma=2.0)
    calls = []

    def counting(name, f):
        def run(*args, **kwargs):
            calls.append(name)
            return f(*args, **kwargs)

        return run

    monkeypatch.setattr(np.fft, "fft", counting("fft", np.fft.fft))
    monkeypatch.setattr(spectral, "_chirp_sum", counting("chirp", spectral._chirp_sum))
    for n in (0.05, 1e-3, 1e-8):
        calls.clear()
        with pytest.raises(bs.DomainExitError, match="of the transmitted branch would span"):
            bs.interface_scatter(p, n, t_final=140.0)
        assert calls == [], n
    calls.clear()
    with pytest.raises(bs.InterpolationAccuracyError, match="too close to the band edge"):
        bs.interface_scatter(p, 3.0, t_final=140.0)
    assert calls.count("chirp") == 1, calls


def test_outcome_records_context(rig_packet, ref_medium):
    out = bs.interface_scatter(rig_packet, 2.0, t_final=140.0)
    assert out.scenario_tag == "interface(n=2, t=140)"
    assert out.t_final == 140.0
    assert out.left_medium.n == 1.0
    assert out.right_medium.n == 2.0
    assert out.rates.t_plus == pytest.approx(bs.fresnel_rates(2.0).t_plus, rel=1e-15)
    assert out.incident_weight == bs.norm(rig_packet)
    ch = bs.Channel(1, "H")
    assert out.incident_supports == {ch: bs.lattice._support_interval(rig_packet, ch)}


def band_masses_oracle(p, ch, center):
    """Test oracle: the guard-band masses from three boolean masks over ``x``."""
    half = GUARD_HALF_CELLS * p.grid.dx
    lo, hi = center - half, center + half
    x = p.grid.x
    dens = np.abs(p.amp[ch]) ** 2 * p.grid.dx
    return (
        float(np.sum(dens[x < lo])),
        float(np.sum(dens[(x >= lo) & (x <= hi)])),
        float(np.sum(dens[x > hi])),
    )


_MASS_GRID = bs.make_grid(-10.0, 10.0, 1024)
_MASS_RNG = np.random.default_rng(5)
_MASS_PACKET = bs.BlipWavePacket(
    _MASS_GRID, {(1, "H"): _MASS_RNG.standard_normal(1024) + 1j * _MASS_RNG.standard_normal(1024)}
)
_LATTICE_INDEX = st.integers(0, _MASS_GRID.n_points - 1)


@settings(max_examples=300, deadline=None, database=None)
@given(
    center=st.one_of(
        _LATTICE_INDEX.map(lambda i: float(_MASS_GRID.x[i])),
        st.builds(
            lambda i, f: float(_MASS_GRID.x[i] + f * _MASS_GRID.dx),
            _LATTICE_INDEX,
            st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        ),
        st.floats(-1e3, -10.0),
        st.floats(10.0, 1e3),
    ),
    side=st.sampled_from((+1, -1)),
)
def test_band_masses_match_the_mask_oracle_bit_for_bit(center, side):
    """The guard rule's fraction with the band moved to ``center`` (a unit
    speed, so the shift is ``side * center``) against the fraction built from
    the mask oracle's masses."""
    ch = bs.Channel(1, "H")
    ref = bs.Medium.reference()
    (got,) = _guard_fractions(_MASS_PACKET, {+1: ref, -1: ref}, side, [side * center])
    left, mid, right = band_masses_oracle(_MASS_PACKET, ch, center)
    want = (mid + (left if side > 0 else right)) / (left + mid + right)
    assert got[ch].hex() == want.hex()


def branch_images_oracle(supports, left, right, t_final, rates):
    """Test oracle: each branch's image of the incident supports at ``t_final``,
    as a table transported from the incident channels per time.

    For ``s = +1`` content on ``[a, b]`` the transmitted image is
    ``[a/n + c_R t, b/n + c_R t]`` and the reflected one
    ``[-b - c_L t, -a - c_L t]``; mirrored for ``s = -1``.  A branch whose
    rate is 0 has no image (``None``).  Keyed by ``(branch, out-channel)``.
    """
    n = left.c / right.c
    table = {}
    for ch, bounds in supports.items():
        if bounds is None:
            continue
        a, b = bounds
        if ch.s > 0:
            images = {
                "transmitted": (a / n + right.c * t_final, b / n + right.c * t_final),
                "reflected": (-b - left.c * t_final, -a - left.c * t_final),
            }
        else:
            images = {
                "transmitted": (n * a - left.c * t_final, n * b - left.c * t_final),
                "reflected": (right.c * t_final - b, right.c * t_final - a),
            }
        amps = {"transmitted": rates.t(ch.s), "reflected": rates.r(ch.s)}
        for name, image in images.items():
            out_ch = ch if name == "transmitted" else bs.Channel(-ch.s, ch.pol)
            table[name, out_ch] = image if amps[name] != 0 else None
    return table


def _bits(interval):
    return None if interval is None else tuple(v.hex() for v in interval)


def test_branch_supports_transport_to_the_image_table_bit_for_bit(rig_grid, rig_packet):
    left_mover = bs.gaussian_packet(rig_grid, (-1, "H"), x0=60.0, k0=30.0, sigma=2.0)
    mixed = bs.combine(rig_packet, bs.gaussian_packet(rig_grid, (-1, "V"), x0=30.0, k0=25.0, sigma=2.0))
    mirror = bs.rates_from_omega(bs.MirrorCoupling(-0.6j))
    wall = bs.ScatterRates(t_minus=0j, t_plus=0j, r_minus=1 + 0j, r_plus=-1 + 0j)
    ref = bs.Medium.reference()
    cases = {
        "fresnel n=1.7": dict(n=1.7),
        "fresnel n=1 (no reflection)": dict(n=1.0),
        # the media's speed ratio is one ulp off n, and the branches move in the media
        "explicit media": dict(n=2.9 / 1.3, left=bs.Medium.from_index(1.3), right=bs.Medium.from_index(2.9)),
        "point mirror": dict(n=1.0, rates=mirror, left=ref, right=ref),
        "explicit rates, n=2": dict(n=2.0, rates=mirror),
        "perfect wall (no transmission)": dict(n=1.0, rates=wall, left=ref, right=ref),
    }
    zero_rate = {"fresnel n=1 (no reflection)": {"reflected"}, "perfect wall (no transmission)": {"transmitted"}}
    for packet in (rig_packet, left_mover, mixed):
        for name, kwargs in cases.items():
            out = bs.interface_scatter(packet, t_final=140.0, allow_partial=True, **kwargs)
            outgoing = {+1: out.right_medium, -1: out.left_medium}
            assert set(out.supports) == {"transmitted", "reflected"}
            for t in (0.0, 37.5, 140.0, 1e3):
                want = branch_images_oracle(
                    out.incident_supports, out.left_medium, out.right_medium, t, out.rates
                )
                got = {}
                for branch, supports in out.supports.items():
                    for ch, bounds in supports.items():
                        shift = ch.s * outgoing[ch.s].c * t
                        got[branch, ch] = None if bounds is None else (bounds[0] + shift, bounds[1] + shift)
                assert {k: _bits(v) for k, v in got.items()} == {k: _bits(v) for k, v in want.items()}, (
                    name, packet.channels(), t
                )
            unsupported = {branch for (branch, _), bounds in got.items() if bounds is None}
            assert unsupported == zero_rate.get(name, set()), (name, packet.channels())


def test_edge_margin_is_the_same_on_both_paths(rig_packet, ref_medium):
    """Free flight and the map apply one edge rule: the same near-edge
    support passes or fails on both, and a time that is not finite is
    refused on both."""
    grid = rig_packet.grid
    _, hi = bs.lattice._support_interval(rig_packet, bs.Channel(1, "H"))
    edge = grid.x_max - grid.dx - bs.lattice.EDGE_MARGIN_CELLS * grid.dx
    t_ok = edge - hi - 1e-9
    t_bad = t_ok + 0.5 * grid.dx
    bs.evolve_free(rig_packet, ref_medium, t_ok)
    bs.interface_scatter(rig_packet, 1.0, t_final=t_ok)
    spans = []
    for attempt in (
        lambda t: bs.evolve_free(rig_packet, ref_medium, t),
        lambda t: bs.interface_scatter(rig_packet, 1.0, t_final=t),
    ):
        with pytest.raises(bs.DomainExitError) as info:
            attempt(t_bad)
        spans.append(re.search(r"would span (\[[^]]*\])", str(info.value)).group(1))
        for t in (math.nan, math.inf, -math.inf):
            with pytest.raises(bs.DomainError, match="needs a finite time"):
                attempt(t)
    assert spans[0] == spans[1]


def test_booleans_are_not_indices(rig_packet):
    for bad in (True, False):
        with pytest.raises(bs.DomainError):
            bs.fresnel_rates(bad)
        with pytest.raises(bs.DomainError):
            bs.omega_from_n(bad)
        with pytest.raises(bs.DomainError, match="refractive index must be positive and finite"):
            bs.interface_scatter(rig_packet, bad, 140.0)
        with pytest.raises(bs.DomainError, match="refractive index must be positive and finite"):
            bs.abraham_momentum(1.0, bad)
        # nor speeds, scales or hbar
        with pytest.raises(bs.DomainError, match="c_ref must be positive and finite"):
            bs.MirrorCoupling(omega=-0.6j, c_ref=bad)
        with pytest.raises(bs.DomainError, match="scale must be positive and finite"):
            bs.sample_spectrum_scaled(rig_packet, (+1, "H"), bad)
        ref = bs.Medium.reference()
        with pytest.raises(bs.DomainError, match="hbar must be positive and finite"):
            bs.spectral_expectations(bs.to_momentum(rig_packet), {+1: ref, -1: ref}, bad)
        with pytest.raises(bs.DomainError, match="hbar must be positive and finite"):
            bs.zeta(1.0, ref, bad)
        with pytest.raises(bs.ConfigurationError, match="hbar must be positive and finite"):
            bs.Scenario(rig_packet, ref, ref, schedule=(0.0,), hbar=bad)


# ---------------------------------------------------------------------------
# one guard rule: the map's in-state check, the phase labels and the branch guard


def branch_guard_oracle(branch, input_weight, media=None, dt=0.0):
    """Test oracle: the largest fraction of a branch channel still in the band
    or on its incoming side, each channel's masses read separately, with the
    band moved to ``s c dt`` in ``media`` when they are given.  Channels
    below ``NEGLIGIBLE_WEIGHT`` of the input are skipped."""
    worst = 0.0
    for ch in branch.amp:
        left, mid, right = band_masses_oracle(branch, ch, 0.0 if media is None else ch.s * media[ch.s].c * dt)
        weight = left + mid + right
        if weight < NEGLIGIBLE_WEIGHT * input_weight:
            continue
        wrong = left if ch.s > 0 else right
        worst = max(worst, (mid + wrong) / weight)
    return worst


def still_incoming_oracle(sc, t):
    """Test oracle: every channel, advanced to ``t``, is clear of the band and
    of the outgoing side, the band moved to ``-s c t`` instead of the packet."""
    media = {+1: sc.left_medium, -1: sc.right_medium}
    for ch in sc.packet.amp:
        left, mid, right = band_masses_oracle(sc.packet, ch, -ch.s * media[ch.s].c * t)
        wrong = right if ch.s > 0 else left
        if mid + wrong > GUARD_TOL * (left + mid + right):
            return False
    return True


#: 2^12 cells over [-160, 160): k_max = 40.2 holds a transmitted spectrum up to
#: k0 = 6 at n = 4 (centre 24, width 2), and k0 >= 4 keeps 8 widths from k = 0.
_VERDICT_GRID = bs.make_grid(-160.0, 160.0, 1 << 12)


@settings(max_examples=150, deadline=None, database=None)
@given(
    n=st.floats(1.0, 4.0, exclude_min=True),
    direction=st.sampled_from((+1, -1)),
    pol=st.sampled_from(("H", "V")),
    sigma=st.floats(1.0, 2.0),
    k0=st.floats(4.0, 6.0),
    u=st.floats(0.0, 1.0),
    f=st.floats(0.0, 1.0),
)
@example(n=2.0, direction=+1, pol="H", sigma=2.0, k0=5.0, u=0.0, f=0.5)
@example(n=4.0, direction=-1, pol="V", sigma=1.0, k0=6.0, u=1.0, f=0.5)
def test_the_asymptotic_verdict_is_the_mask_oracle_at_every_time(n, direction, pol, sigma, k0, u, f):
    """``asymptotic`` holds exactly when every branch channel above
    ``NEGLIGIBLE_WEIGHT`` of the input has at most ``GUARD_TOL`` of its weight
    in the band or on its incoming side, read by the mask oracle.  The packet
    starts at distance d (8 sigma clear of the scatterer, as in the momentum
    property of ``test_propagation``) and ``t_final`` runs from 0 to twice its
    arrival time, so it falls on both sides of the crossing."""
    d_max = 40.0 if direction > 0 else 160.0 / n - 7.5 * sigma - 0.5
    d = 8.0 * sigma + 1.0 + u * (d_max - 8.0 * sigma - 1.0)
    packet = bs.gaussian_packet(_VERDICT_GRID, (direction, pol), -direction * d, k0, sigma)
    c_in = 1.0 if direction > 0 else 1.0 / n
    out = bs.interface_scatter(packet, n, f * 2.0 * d / c_in, allow_partial=True)
    clear = all(branch_guard_oracle(b, out.incident_weight) <= GUARD_TOL for b in (out.transmitted, out.reflected))
    assert out.asymptotic == clear


def _borderline_packet(grid):
    """1.6e-11 of the weight in the band and 8.4e-11 past it: each part alone
    passes the 1e-10 guard, their sum does not."""
    return bs.gaussian_packet(grid, (+1, "H"), x0=-51.0, k0=30.0, sigma=8.0)


def test_the_borderline_in_state_is_refused_by_the_map_and_the_scenario(rig_grid, ref_medium, glass):
    p = _borderline_packet(rig_grid)
    left, mid, right = band_masses_oracle(p, bs.Channel(1, "H"), 0.0)
    weight = left + mid + right
    assert mid <= GUARD_TOL * weight and right <= GUARD_TOL * weight < mid + right
    with pytest.raises(bs.SupportGuardError, match=r"Channel\(s=1, pol='H'\) has 1\.0004\d*e-10 .*GUARD_TOL = 1e-10"):
        bs.interface_scatter(p, 2.0, 140.0)
    with pytest.raises(bs.SupportGuardError):
        bs.run_scenario(bs.Scenario(p, ref_medium, glass, schedule=(0.0, 140.0)))


@pytest.mark.parametrize("sigma", [2.0, 8.0])
def test_the_map_accepts_exactly_what_the_phase_rule_calls_incoming_at_t0(rig_grid, ref_medium, glass, sigma):
    """A scan of ``x0`` across the guard threshold (about 6.36 sigma from the
    band): at each point the map's in-state check and the ``t = 0`` phase agree."""
    verdicts = set()
    for x0 in np.arange(-6.6, -6.1, 0.01) * sigma:
        p = bs.gaussian_packet(rig_grid, (+1, "H"), x0=float(x0), k0=30.0, sigma=sigma)
        try:
            bs.interface_scatter(p, 2.0, 140.0)
        except bs.SupportGuardError:
            accepted = False
        else:
            accepted = True
        assert accepted == still_incoming_oracle(bs.Scenario(p, ref_medium, glass, schedule=(0.0,)), 0.0), x0
        verdicts.add(accepted)
    assert verdicts == {True, False}


def test_guard_fractions_and_phases_match_the_per_mass_oracles_bit_for_bit(rig_grid, rig_packet):
    left_mover = bs.gaussian_packet(rig_grid, (-1, "H"), x0=60.0, k0=30.0, sigma=2.0)
    mixed = bs.combine(rig_packet, bs.gaussian_packet(rig_grid, (-1, "V"), x0=30.0, k0=25.0, sigma=2.0))
    ref = bs.Medium.reference()
    cases = {
        "fresnel n=1.7, s=+1": (rig_packet, 1.7, None),
        "fresnel n=1.7, s=-1": (left_mover, 1.7, None),
        "fresnel n=1.7, mixed": (mixed, 1.7, None),
        "point mirror": (rig_packet, 1.0, -0.6j),
        # the reflected branch weighs 2.5e-17 of the input: below NEGLIGIBLE_WEIGHT
        "n = 1 + 1e-8": (rig_packet, 1.0 + 1e-8, None),
    }
    times = (0.0, 20.0, 45.0, 50.0, 55.0, 61.0, 70.0, 100.0, 140.0)
    for name, (packet, n, omega) in cases.items():
        right = ref if omega is not None else bs.Medium.from_index(n)
        sc = bs.Scenario(packet, ref, right, schedule=times, omega=omega)
        rates = None if omega is None else bs.rates_from_omega(bs.MirrorCoupling(omega))
        event = bs.interface_scatter(packet, n, 140.0, rates=rates, left=ref, right=right)
        # the incoming test reads the whole schedule in one call
        reads = _guard_fractions(packet, {+1: ref, -1: right}, -1, list(times))
        # and the branch guards read the final branches at every time in one call
        translated = event._guard_fraction(list(times))
        outgoing = {+1: right, -1: ref}
        want_phase = {}
        for t, read, moved in zip(times, reads, translated):
            out = bs.interface_scatter(packet, n, t, rates=rates, left=ref, right=right, allow_partial=True)
            want = max(branch_guard_oracle(b, out.incident_weight) for b in (out.transmitted, out.reflected))
            assert out.guard_fraction.hex() == want.hex(), (name, t)
            final = (event.transmitted, event.reflected)
            want_moved = max(branch_guard_oracle(b, event.incident_weight, outgoing, 140.0 - t) for b in final)
            assert moved.hex() == want_moved.hex(), (name, t)
            assert all(f <= GUARD_TOL for f in read.values()) == still_incoming_oracle(sc, t), (name, t)
            if still_incoming_oracle(sc, t):
                want_phase[t] = "incoming"
            else:
                want_phase[t] = "scattered" if want <= GUARD_TOL else "crossing"
        rows = bs.run_scenario(sc).rows
        assert {row.time: row.phase for row in rows} == want_phase, name
        assert set(want_phase.values()) == {"incoming", "crossing", "scattered"}, name
        if name == "n = 1 + 1e-8":
            assert 0.0 < event.prob_r < NEGLIGIBLE_WEIGHT
