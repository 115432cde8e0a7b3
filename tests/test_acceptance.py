"""Acceptance gate: the headline predictions at their stated tolerances.

Each test covers one contract item and prints a single PASS/FAIL line so
the whole gate is legible from the log.  Reference rig: 16384 points on
[-200, 200), Gaussian packets with sigma = 2 and k0 = 30, hbar = c0 = A = 1.
Scenarios launch from x0 = -60 toward the denser medium (report at t = 140)
or from x0 = +30 inside it heading out (report at t = 150); both leave all
branches asymptotically clear of the boundary.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

import blipsim as bs
import oracles
from blipsim.scattering import REMAINDER_ROUNDING_FLOOR

from test_observables import in_medium


@contextmanager
def gate(capsys, label):
    try:
        yield
    except Exception:
        with capsys.disabled():
            print(f"\nACCEPTANCE {label}: FAIL")
        raise
    with capsys.disabled():
        print(f"\nACCEPTANCE {label}: PASS")


# scatter outcomes are pure functions of (n, direction); cache them together
# with their wall-clock cost so the timing item can audit every scenario
_CACHE: dict[tuple[float, int], tuple[bs.BlipWavePacket, bs.ScatterOutcome, float]] = {}


def scatter_case(grid, n, direction):
    key = (float(n), direction)
    if key not in _CACHE:
        left = bs.Medium.reference()
        right = bs.Medium.from_index(n)
        if direction > 0:
            p = bs.gaussian_packet(grid, (+1, "H"), -60.0, 30.0, 2.0)
            t_final = 140.0
        else:
            p = bs.gaussian_packet(grid, (-1, "H"), 30.0, 30.0, 2.0)
            t_final = 150.0
        start = time.perf_counter()
        outcome = bs.interface_scatter(p, left, right, t_final)
        elapsed = time.perf_counter() - start
        assert outcome.asymptotic, (n, direction)
        _CACHE[key] = (p, outcome, elapsed)
    return _CACHE[key]


def incident_values(p, outcome):
    media = {+1: outcome.left_medium, -1: outcome.right_medium}
    return bs.spectral_expectations(bs.to_momentum(p), media, 1.0)


def outgoing_values(packet, outcome):
    media = {+1: outcome.right_medium, -1: outcome.left_medium}
    return bs.spectral_expectations(bs.to_momentum(packet), media, 1.0)


def total_out(outcome):
    return outgoing_values(bs.combine(outcome.transmitted, outcome.reflected), outcome)


def test_c01_energy_conservation(rig_grid, capsys):
    with gate(capsys, "C1  energy ratio out/in = 1 (tol 1e-9 rel)"):
        for n in (1.0, 1.5, 2.0):
            for direction in (+1, -1):
                p, outcome, _ = scatter_case(rig_grid, n, direction)
                e_in = incident_values(p, outcome).energy
                e_out = total_out(outcome).energy
                assert abs(e_out / e_in - 1.0) <= 1e-9, (n, direction)


def test_c02_momentum_ratio_into_denser_medium(rig_grid, capsys):
    with gate(capsys, "C2  momentum ratio in = (3n-1)/(n+1) (tol 1e-6 rel)"):
        for n, quoted in ((1.5, 1.4), (2.0, 5.0 / 3.0)):
            p, outcome, _ = scatter_case(rig_grid, n, +1)
            ratio = total_out(outcome).dyn_momentum / incident_values(p, outcome).dyn_momentum
            closed = (3.0 * n - 1.0) / (n + 1.0)
            assert abs(closed - quoted) < 1e-15
            assert abs(ratio - closed) <= 1e-6 * closed, n


def test_c03_momentum_ratio_out_of_denser_medium(rig_grid, capsys):
    with gate(capsys, "C3  momentum ratio out = (3-n)/(n+1), zero at n=3 (tol 1e-6)"):
        for n, quoted in ((1.5, 0.6), (2.0, 1.0 / 3.0)):
            p, outcome, _ = scatter_case(rig_grid, n, -1)
            ratio = total_out(outcome).dyn_momentum / incident_values(p, outcome).dyn_momentum
            closed = (3.0 - n) / (n + 1.0)
            assert abs(closed - quoted) < 1e-15
            assert abs(ratio - closed) <= 1e-6 * closed, n
        # the standstill point: outgoing momentum vanishes on the way out at n = 3
        p, outcome, _ = scatter_case(rig_grid, 3.0, -1)
        p_in = incident_values(p, outcome).dyn_momentum
        assert abs(total_out(outcome).dyn_momentum) <= 1e-6 * abs(p_in)


def test_c04_transmitted_branch_postselection(rig_grid, capsys):
    with gate(capsys, "C4  transmitted momentum scales by n; peak within one bin (tol 1e-6)"):
        dk = rig_grid.dk
        for n in (1.5, 2.0):
            for direction, factor in ((+1, n), (-1, 1.0 / n)):
                p, outcome, _ = scatter_case(rig_grid, n, direction)
                p_in = incident_values(p, outcome).dyn_momentum
                cond = bs.conditional_expectations(outcome, "transmitted", 1.0)
                assert abs(cond.dyn_momentum / p_in - factor) <= 1e-6, (n, direction)
                dens = np.zeros(rig_grid.n_points)
                for a in bs.to_momentum(outcome.transmitted).amp.values():
                    dens += np.abs(a) ** 2
                peak = float(rig_grid.k[int(np.argmax(dens))])
                assert abs(peak - factor * 30.0) <= dk, (n, direction)


def test_c05_stokes_relations(capsys):
    with gate(capsys, "C5  Stokes relations, residuals < 1e-12"):
        for n in np.linspace(1.0, 10.0, 100):
            residuals = bs.stokes_residuals(bs.fresnel_rates(float(n)))
            assert max(residuals) < 1e-12, n
        rng = np.random.default_rng(12345)  # seed recorded
        for _ in range(100):
            q = float(rng.uniform(0.01, 0.99))
            phase = float(rng.uniform(0.0, 2.0 * np.pi))
            mc = bs.MirrorCoupling(omega=2.0 * q * np.exp(1j * phase), c_ref=1.0)
            residuals = bs.stokes_residuals(bs.rates_from_omega(mc))
            assert max(residuals) < 1e-12, (q, phase)


def test_c06_born_series_remainders(capsys):
    with gate(capsys, "C6  partial sums inside the geometric tail; divergence flagged"):
        for q in (0.1, 0.17157, 0.5, 0.9):
            mc = bs.MirrorCoupling(omega=-2j * q, c_ref=1.0)
            exact = bs.rates_from_omega(mc)
            for order, (t_m, r_m) in enumerate(bs.dyson_partial_sums(mc, 12)):
                err_t = abs(t_m - exact.t_plus)
                err_r = abs(r_m - exact.r_plus)
                assert err_t <= bs.dyson_remainder_bound(mc, order, "t") + REMAINDER_ROUNDING_FLOOR
                assert err_r <= bs.dyson_remainder_bound(mc, order, "r") + REMAINDER_ROUNDING_FLOOR
        for q in (1.0, 1.5):
            mc = bs.MirrorCoupling(omega=-2j * q, c_ref=1.0)
            with pytest.raises(bs.DivergenceError):
                bs.rates_from_omega(mc)
            assert math.isinf(bs.dyson_remainder_bound(mc, 0, "t"))
            sums = bs.dyson_partial_sums(mc, 8)
            steps = [abs(sums[i + 1][0] - sums[i][0]) for i in range(len(sums) - 1)]
            assert steps[-1] >= steps[0], q


def test_c07_coupling_index_roundtrip(capsys):
    with gate(capsys, "C7  coupling from index reproduces the amplitude table (tol 1e-12)"):
        for n in np.linspace(1.0, 10.0, 100):
            want = bs.fresnel_rates(float(n))
            got = bs.rates_from_omega(bs.omega_from_n(float(n)))
            dev = max(
                abs(got.t_plus - want.t_plus),
                abs(got.t_minus - want.t_minus),
                abs(got.r_plus - want.r_plus),
                abs(got.r_minus - want.r_minus),
            )
            assert dev <= 1e-12, n


def test_c08_dual_route_observables(rig_grid, capsys):
    with gate(capsys, "C8  dual-route observables on 50 random packets (1e-10 / 1e-8)"):
        rng = np.random.default_rng(20260814)  # seed recorded
        m = bs.Medium.reference()
        k = rig_grid.k
        for _ in range(50):
            picks = rng.choice(4, size=int(rng.integers(1, 5)), replace=False)
            amp = {}
            for idx in picks:
                k0 = float(rng.uniform(10.0, 40.0)) * (1.0 if rng.random() < 0.5 else -1.0)
                width = float(rng.uniform(0.2, 1.0))
                coeff = complex(rng.normal(), rng.normal())
                amp[bs.CHANNELS[idx]] = coeff * np.exp(-((k - k0) ** 2) / (4.0 * width**2))
            p = bs.to_position(bs.SpectralWavePacket(rig_grid, amp))
            sp = bs.to_momentum(p)
            number_x = bs.norm(p)
            number_k = bs.spectral_norm(sp)
            scale = max(1.0, in_medium(sp, m).energy)
            assert abs(number_x - number_k) <= 1e-12 * max(1.0, number_x)
            assert abs(oracles.dyn_momentum_position_form(p) - bs.expect_dyn_momentum(sp)) <= 1e-10 * scale
            assert (
                abs(oracles.dyn_hamiltonian_position_form(p, m) - in_medium(sp, m).dyn_hamiltonian)
                <= 1e-10 * scale
            )
            fp = bs.field_profile(sp, {+1: m, -1: m})
            assert abs(oracles.energy_from_fields(fp, m) - in_medium(sp, m).energy) <= 1e-8 * scale
            p_number = rig_grid.dk * sum(
                ch.s * float(np.sum(np.abs(k) * np.abs(a) ** 2)) for ch, a in sp.amp.items()
            )
            assert abs(oracles.momentum_from_fields(fp, m) - p_number) <= 1e-8 * scale


def test_c09_single_mode_sign_structure(rig_grid, capsys):
    with gate(capsys, "C9  single-mode sign structure across all routes (quadrature level)"):
        for m in (bs.Medium.reference(), bs.Medium.from_index(2.0)):
            for s in (+1, -1):
                for target in (45.0, -20.0):
                    idx = int(np.argmin(np.abs(rig_grid.k - target)))
                    k_m = float(rig_grid.k[idx])
                    vec = np.zeros(rig_grid.n_points, dtype=np.complex128)
                    vec[idx] = 1.0 / math.sqrt(rig_grid.dk)
                    sp = bs.SpectralWavePacket(rig_grid, {bs.Channel(s, "H"): vec})
                    p = bs.to_position(sp)
                    tol = 1e-12 * abs(k_m)
                    e = in_medium(sp, m).energy
                    h = in_medium(sp, m).dyn_hamiltonian
                    assert abs(e - m.c * abs(k_m)) <= tol
                    assert abs(h - math.copysign(1.0, k_m) * e) <= tol
                    p_dyn = bs.expect_dyn_momentum(sp)
                    assert abs(p_dyn - s * k_m) <= tol
                    assert abs(oracles.dyn_momentum_position_form(p) - s * k_m) <= tol
                    fp = bs.field_profile(sp, {+1: m, -1: m})
                    p_field = oracles.momentum_from_fields(fp, m)
                    assert abs(p_field - s * abs(k_m)) <= tol
                    assert abs(p_dyn - math.copysign(1.0, k_m) * p_field) <= tol
                    assert abs(oracles.energy_from_fields(fp, m) - e) <= tol


def test_c10_free_flight_conservation_and_speed(rig_grid, capsys):
    with gate(capsys, "C10 free flight: drift < 1e-12, centroid speed s*c within dx/t"):
        for m in (bs.Medium.reference(), bs.Medium.from_index(2.0)):
            media = {+1: m, -1: m}
            for s, x0 in ((+1, -60.0), (-1, 30.0)):
                p0 = bs.gaussian_packet(rig_grid, (s, "H"), x0, 30.0, 2.0)
                p1 = bs.evolve_free(p0, m, 100.0)
                v0 = bs.spectral_expectations(bs.to_momentum(p0), media, 1.0)
                v1 = bs.spectral_expectations(bs.to_momentum(p1), media, 1.0)
                assert abs(v1.photon_number - v0.photon_number) <= 1e-12
                assert abs(v1.energy - v0.energy) <= 1e-12 * v0.energy
                assert abs(v1.dyn_momentum - v0.dyn_momentum) <= 1e-12 * abs(v0.dyn_momentum)
                drift = bs.centroid(p1) - bs.centroid(p0) - s * m.c * 100.0
                assert abs(drift) < rig_grid.dx, (m.label, s)


def test_c11_scattering_unitarity(rig_grid, capsys):
    with gate(capsys, "C11 branch probabilities sum to 1 (tol 1e-9)"):
        for n in (1.1, 1.5, 2.0, 3.0):
            for direction in (+1, -1):
                _, outcome, _ = scatter_case(rig_grid, n, direction)
                assert abs(outcome.prob_t + outcome.prob_r - 1.0) <= 1e-9, (n, direction)


def test_scenario_runtime_budget(rig_grid, capsys):
    with gate(capsys, "RIG each scenario completes in under 5 s"):
        start = time.perf_counter()
        p = bs.gaussian_packet(rig_grid, (+1, "H"), -60.0, 30.0, 2.0)
        outcome = bs.interface_scatter(p, bs.Medium.reference(), bs.Medium.from_index(2.0), 140.0)
        assert outcome.asymptotic
        total_out(outcome)
        assert time.perf_counter() - start < 5.0
        for (n, direction), (_, _, elapsed) in _CACHE.items():
            assert elapsed < 5.0, (n, direction)
