import math
import re
import tracemalloc
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import blipsim as bs
import oracles
from blipsim.spectral import _bin_order, _chirp_sum, _turns_phase


def plane_wave(grid, ch, m):
    """Unit-norm lattice plane wave occupying exactly wavenumber bin m."""
    ch = bs.as_channel(ch)
    values = np.exp(1j * ch.s * grid.k[m] * grid.x) / math.sqrt(grid.n_points * grid.dx)
    return bs.BlipWavePacket(grid, {ch: values})


def test_round_trip_is_exact(rig_grid):
    rng = np.random.default_rng(7)
    amp = {
        (+1, "H"): rng.standard_normal(rig_grid.n_points) + 1j * rng.standard_normal(rig_grid.n_points),
        (-1, "V"): rng.standard_normal(rig_grid.n_points) + 1j * rng.standard_normal(rig_grid.n_points),
    }
    p = bs.BlipWavePacket(rig_grid, amp)
    back = bs.to_position(bs.to_momentum(p))
    for ch in p.channels():
        err = np.max(np.abs(back.amplitude(ch) - p.amplitude(ch)))
        assert err < 1e-13 * np.max(np.abs(p.amplitude(ch)))


_CHANNELS = [bs.Channel(s, pol) for s in (+1, -1) for pol in ("H", "V")]


@settings(max_examples=60, deadline=None, database=None)
@given(
    log_n=st.integers(6, 12),
    x_min=st.floats(-500.0, 0.0),
    length=st.floats(1.0, 1000.0),
    channels=st.sets(st.sampled_from(_CHANNELS), min_size=1),
    magnitude=st.floats(-50.0, 50.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_transforms_round_trip_and_keep_the_norm(log_n, x_min, length, channels, magnitude, seed):
    """Random complex channels of either direction, alone or mixed: each
    transform undoes the other in both orders, and Parseval holds."""
    grid = bs.make_grid(x_min, x_min + length, 1 << log_n)
    rng = np.random.default_rng(seed)
    scale, n = 10.0**magnitude, grid.n_points
    amp = {ch: scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n)) for ch in channels}
    p = bs.BlipWavePacket(grid, amp)
    sp = bs.SpectralWavePacket(grid, amp)
    for back, start in ((bs.to_position(bs.to_momentum(p)), p), (bs.to_momentum(bs.to_position(sp)), sp)):
        assert back.channels() == start.channels()
        for ch, a in start.amp.items():
            assert np.max(np.abs(back.amp[ch] - a)) <= 1e-13 * np.max(np.abs(a)), (ch, type(start))
    assert bs.spectral_norm(bs.to_momentum(p)) == pytest.approx(bs.norm(p), rel=1e-13)
    assert bs.norm(bs.to_position(sp)) == pytest.approx(bs.spectral_norm(sp), rel=1e-13)


def test_parseval_identity(rig_packet):
    sp = bs.to_momentum(rig_packet)
    assert bs.spectral_norm(sp) == pytest.approx(bs.norm(rig_packet), abs=1e-13)


def test_spectral_center_and_width(rig_grid, rig_packet):
    """|psi~|^2 is a Gaussian at k0 with sigma_k = 1/(2 sigma), either direction."""
    for p, k0 in (
        (rig_packet, 30.0),
        (bs.gaussian_packet(rig_grid, (-1, "V"), x0=40.0, k0=30.0, sigma=2.0), 30.0),
    ):
        (ch,) = p.channels()
        dens = np.abs(bs.to_momentum(p).amp[ch]) ** 2 * rig_grid.dk
        k = rig_grid.k
        mean = float(np.sum(k * dens))
        var = float(np.sum((k - mean) ** 2 * dens))
        assert mean == pytest.approx(k0, abs=1e-9)
        assert math.sqrt(var) == pytest.approx(0.25, rel=1e-9)
        assert abs(k[np.argmax(dens)] - k0) <= rig_grid.dk


def test_plane_wave_lands_in_one_bin(rig_grid):
    for s in (+1, -1):
        m = rig_grid.n_points // 2 + 391  # k_m = 391*dk > 0
        p = plane_wave(rig_grid, (s, "H"), m)
        phi = bs.to_momentum(p).amp[bs.Channel(s, "H")]
        weights = np.abs(phi) ** 2 * rig_grid.dk
        assert weights[m] == pytest.approx(1.0, rel=1e-12)
        others = np.delete(weights, m)
        assert np.max(others) < 1e-22


def test_shift_theorem_matches_integer_roll(rig_grid):
    """exp(-i c k t) in momentum space translates by s*c*t in position space."""
    cells = 77
    t = cells * rig_grid.dx  # c = 1
    for s in (+1, -1):
        p = bs.gaussian_packet(rig_grid, (s, "H"), x0=-5.0, k0=24.0, sigma=3.0)
        ch = bs.Channel(s, "H")
        phi = bs.to_momentum(p).amp[ch] * np.exp(-1j * rig_grid.k * t)
        moved = bs.to_position(bs.SpectralWavePacket(rig_grid, {ch: phi}))
        expected = np.roll(p.amp[ch], s * cells)
        assert np.max(np.abs(moved.amp[ch] - expected)) < 1e-12


def test_derivative_matches_finite_differences(rig_grid):
    """Central differences agree with the spectral derivative on a wide packet.

    sigma = 15, k0 = 0 keeps the FD truncation error near 4e-7; the bound
    1e-6 is the frozen oracle level for this fixture.
    """
    p = bs.gaussian_packet(rig_grid, (+1, "H"), x0=0.0, k0=0.0, sigma=15.0)
    a = p.amplitude((+1, "H"))
    dspec = oracles.spectral_derivative(p, (+1, "H"))
    dfd = (np.roll(a, -1) - np.roll(a, 1)) / (2.0 * rig_grid.dx)
    num = math.sqrt(float(np.sum(np.abs(dspec - dfd) ** 2)) * rig_grid.dx)
    den = math.sqrt(float(np.sum(np.abs(dspec) ** 2)) * rig_grid.dx)
    assert den > 0
    assert num / den < 1e-6


def test_derivative_plane_wave_eigenvalue(rig_grid):
    for s in (+1, -1):
        m = rig_grid.n_points // 2 - 200  # negative k bin
        p = plane_wave(rig_grid, (s, "V"), m)
        d = oracles.spectral_derivative(p, (s, "V"))
        expected = 1j * s * rig_grid.k[m] * p.amplitude((s, "V"))
        assert np.max(np.abs(d - expected)) < 1e-10


def test_derivative_of_absent_channel_is_zero(rig_packet):
    assert np.all(oracles.spectral_derivative(rig_packet, (-1, "H")) == 0.0)


def test_scaled_sampling_at_unit_scale_matches_fft(rig_grid):
    for s in (+1, -1):
        p = bs.gaussian_packet(rig_grid, (s, "H"), x0=-12.0, k0=35.0, sigma=2.5)
        direct = bs.to_momentum(p).amp[bs.Channel(s, "H")]
        sampled = bs.sample_spectrum_scaled(p, (s, "H"), 1.0)
        assert np.max(np.abs(sampled - direct)) < 1e-14 * np.max(np.abs(direct))


def dense_spectrum(grid, ch, values, targets):
    # brute-force evaluation of the transform integral at arbitrary points
    ch = bs.as_channel(ch)
    out = np.empty(targets.size, dtype=complex)
    for i, kq in enumerate(targets):
        out[i] = np.sum(values * np.exp(-1j * ch.s * kq * grid.x))
    return out * grid.dx / math.sqrt(2.0 * math.pi)


def test_scaled_sampling_matches_dense_evaluation(small_grid):
    for s, scale in ((+1, 0.5), (-1, 0.5), (+1, 2.0)):
        p = bs.gaussian_packet(small_grid, (s, "H"), x0=-8.0, k0=11.0, sigma=1.2)
        sampled = bs.sample_spectrum_scaled(p, (s, "H"), scale)
        targets = scale * small_grid.k
        inside = np.abs(targets) <= small_grid.k_max
        dense = dense_spectrum(small_grid, (s, "H"), p.amplitude((s, "H")), targets[inside])
        scale_ref = np.max(np.abs(dense))
        assert np.max(np.abs(sampled[inside] - dense)) < 1e-12 * scale_ref
        assert np.all(sampled[~inside] == 0.0)


def chirp_sum_oracle(values, c):
    """Test oracle: the chirp sum with its kernel built over all 2N - 1 indices
    m = -(N-1) .. N-1 and rotated into the circular pad with ``np.roll``."""
    n = values.size
    j = np.arange(n, dtype=np.float64)
    u = values * _turns_phase(c, j * (n - j), 2 * n)
    m = np.arange(-(n - 1), n, dtype=np.float64)
    kernel = np.zeros(2 * n, dtype=np.complex128)
    kernel[: m.size] = _turns_phase(c, m * m, 2 * n)
    kernel = np.roll(kernel, -(n - 1))
    conv = np.fft.ifft(np.fft.fft(kernel) * np.fft.fft(u, 2 * n), norm="forward")[:n]
    return np.conj(_turns_phase(c, j * j, 2 * n)) * conv


#: Chirp constants c = s * scale of sample_spectrum_scaled, both directions, scales 1/1.5, 1/1.7, 2.9 and 1.
CHIRP_CS = tuple(s * scale for s in (+1, -1) for scale in (1.0 / 1.5, 1.0 / 1.7, 2.9, 1.0))


def test_half_built_chirp_kernel_matches_the_rolled_oracle_bit_for_bit():
    rng = np.random.default_rng(11)
    for log_n in range(3, 13):
        n = 1 << log_n
        values = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        for c in CHIRP_CS:
            got = _chirp_sum(values, c)
            want = chirp_sum_oracle(values, c)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (n, c)


@pytest.mark.parametrize("log_n", [3, 4, 5, 6])
def test_chirp_sum_matches_the_direct_sum_in_mpmath(log_n):
    """``_chirp_sum / 2N`` against ``sum_j v_j exp(-2 pi i c (m - N/2) j / N)``
    summed directly at 40 digits, for N up to 64."""
    n = 1 << log_n
    rng = np.random.default_rng(log_n)
    values = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    with mpmath.workdps(40):
        for c in CHIRP_CS:
            got = _chirp_sum(values, c) / (2 * n)
            want = [
                sum(mpmath.mpc(v) * mpmath.expjpi(-2 * mpmath.mpf(c) * (m - n // 2) * j / n) for j, v in enumerate(values))
                for m in range(n)
            ]
            want = np.array([complex(w) for w in want])
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want)), (n, c)


def test_chirp_phases_are_within_2e_15_of_mpmath_up_to_2_to_the_20():
    """The pre-chirp ``exp(2 pi i c j (N - j) / 2N)`` and the kernel
    ``exp(2 pi i c j^2 / 2N)`` at sampled j, against 40-digit phases."""
    rng = np.random.default_rng(17)
    worst = 0.0
    with mpmath.workdps(40):
        for log_n in range(12, 21):
            n = 1 << log_n
            j = np.unique(np.concatenate([[0, 1, n // 2 - 1, n // 2, n - 1], rng.integers(0, n, 64)]))
            jf = j.astype(np.float64)
            # the chirp forms q in float64, exactly: the int64 products are below 2**53
            for q, qf in ((j * (n - j), jf * (n - jf)), (j * j, jf * jf)):
                assert np.array_equal(qf, q.astype(np.float64)), n
                for c in CHIRP_CS:
                    got = _turns_phase(c, qf, 2 * n)
                    want = np.array([complex(mpmath.expjpi(mpmath.mpf(c) * int(qi) / n)) for qi in q])
                    worst = max(worst, float(np.max(np.abs(got - want))))
    assert worst <= 2e-15, worst


@pytest.mark.skipif(
    np.lib.NumpyVersion(np.__version__) < "2.0.0",
    reason="numpy 1.x pads an FFT input with one more 2N-point copy; this bound was measured with numpy 2",
)
def test_chirp_memory_stays_under_112_bytes_per_point():
    """The traced peak of one resampling, above what the caller already holds,
    stays under 112 bytes per point (117 MB at N = 2^20): the two 2N-point
    buffers of the convolution (64) with the kernel and the pre-chirped input
    (32)."""
    grid = bs.make_grid(-800.0, 800.0, 1 << 16)
    p = bs.gaussian_packet(grid, (+1, "H"), x0=-60.0, k0=30.0, sigma=2.0)
    grid.x, grid.k, grid.origin_phase
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        bs.sample_spectrum_scaled(p, (+1, "H"), 0.5)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 112 * grid.n_points, peak / grid.n_points


def test_no_module_computes_in_long_double():
    """float64 is the only float type: ``np.longdouble`` is plain float64 on
    some platforms (arm64 macOS, MSVC), so no result may depend on it."""
    modules = sorted(Path(bs.__file__).parent.glob("*.py"))
    assert len(modules) > 5
    for path in modules:
        assert "longdouble" not in path.read_text(), path.name


def reverse_bins_oracle(a):
    """Test oracle: the frequency-bin reversal as a roll of the reversed array."""
    return np.roll(a[::-1], 1)


def test_bin_order_slices_match_the_shifted_and_rolled_oracle_bit_for_bit():
    """The slice pairs of both directions give numpy's half shift, followed for
    ``s = -1`` by the bin reversal, and take the bins back to the lattice."""
    rng = np.random.default_rng(13)
    for n in (1 << log_n for log_n in range(1, 15)):
        a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        for s in (+1, -1):
            want = np.fft.ifftshift(a)
            if s < 0:
                want = reverse_bins_oracle(want)
            got, back = np.empty_like(a), np.empty_like(a)
            for lattice, bins in _bin_order(n, s):
                got[bins] = a[lattice]
                back[lattice] = got[bins]
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (n, s)
            assert np.array_equal(back.view(np.uint64), a.view(np.uint64)), (n, s)


def test_scaled_sampling_norm_ratio(rig_packet, rig_grid):
    """integral |psi~(k/n)|^2 dk = n for a unit-norm in-band state."""
    n = 2.0
    y = bs.sample_spectrum_scaled(rig_packet, (+1, "H"), 1.0 / n)
    assert float(np.sum(np.abs(y) ** 2)) * rig_grid.dk == pytest.approx(n, rel=1e-12)


def test_scaled_round_trip_recovers_spectrum(rig_grid, rig_packet):
    """Compressing by 1/n and re-stretching by n is the identity in band."""
    n = 2.0
    ch = bs.Channel(1, "H")
    compressed = bs.sample_spectrum_scaled(rig_packet, ch, 1.0 / n)
    intermediate = bs.to_position(bs.SpectralWavePacket(rig_grid, {ch: compressed}))
    recovered = bs.sample_spectrum_scaled(intermediate, ch, n)
    original = bs.to_momentum(rig_packet).amp[ch]
    # the double resampling only sees |k| <= k_max/n of the original
    inside = np.abs(n * rig_grid.k) <= rig_grid.k_max
    err = np.max(np.abs(recovered[inside] - original[inside]))
    assert err < 1e-9 * np.max(np.abs(original))


def test_affine_position_sampling_shift_and_stretch(small_grid):
    p = bs.gaussian_packet(small_grid, (+1, "H"), x0=-3.0, k0=9.0, sigma=1.5)
    sp = bs.to_momentum(p)
    a = p.amplitude((+1, "H"))
    # pure shift by 17 cells: psi(x + 17 dx) == roll by -17
    shifted = oracles.sample_position_affine(sp, (+1, "H"), 1.0, 17.0 * small_grid.dx)
    assert np.max(np.abs(shifted - np.roll(a, -17))) < 1e-12
    # stretch: psi(2 x) against direct evaluation of the inverse transform
    stretched = oracles.sample_position_affine(sp, (+1, "H"), 2.0, 0.0)
    y = 2.0 * small_grid.x
    phi = sp.amp[bs.Channel(1, "H")]
    dense = np.array(
        [np.sum(phi * np.exp(1j * small_grid.k * pt)) for pt in y]
    ) * small_grid.dk / math.sqrt(2.0 * math.pi)
    assert np.max(np.abs(stretched - dense)) < 1e-12 * np.max(np.abs(a))


def test_sampling_guards():
    g = bs.make_grid(-50.0, 50.0, 2048)
    p = bs.gaussian_packet(g, (+1, "H"), x0=0.0, k0=10.0, sigma=1.0)
    with pytest.raises(bs.DomainError):
        bs.sample_spectrum_scaled(p, (+1, "H"), 0.0)
    with pytest.raises(bs.DomainError):
        bs.sample_spectrum_scaled(p, (+1, "H"), -2.0)
    with pytest.raises(bs.DomainError, match="scale must be positive and finite, got '2.0'"):
        bs.sample_spectrum_scaled(p, (+1, "H"), "2.0")
    with pytest.raises(bs.DomainError):
        oracles.sample_position_affine(bs.to_momentum(p), (+1, "H"), -1.0, 0.0)


@pytest.mark.filterwarnings("error")
def test_affine_oracle_refuses_out_of_range_values_before_any_array():
    """``alpha = 1e307`` would overflow the prefactor's turns and ``beta = 1e308``
    the offset phase, each with a numpy warning (an error under this mark);
    both raise :class:`DomainError` before any array is built."""
    g = bs.make_grid(-50.0, 50.0, 2048)
    sp = bs.to_momentum(bs.gaussian_packet(g, (+1, "H"), x0=0.0, k0=10.0, sigma=1.0))
    with pytest.raises(bs.DomainError, match="chirp scale 1e\\+307 is out of range"):
        oracles.sample_position_affine(sp, (+1, "H"), 1e307, 0.0)
    with pytest.raises(bs.DomainError, match="offset phase .* is not finite"):
        oracles.sample_position_affine(sp, (+1, "H"), 1.0, 1e308)
    assert np.all(np.isfinite(oracles.sample_position_affine(sp, (+1, "H"), 1.0, 1e3)))


def test_chirp_refuses_a_scale_whose_turns_lose_their_fraction():
    """Past ``scale N / 2 = 2**52`` the chirp's turns keep no fraction and the
    in-band k = 0 sample came out wrong (about 0.12 at scale 1e300, against
    1e-17); such scales are refused, and the largest admitted one still
    returns that sample within 1e-15 of the peak."""
    g = bs.make_grid(-50.0, 50.0, 2048)
    p = bs.gaussian_packet(g, (+1, "H"), x0=0.0, k0=10.0, sigma=1.0)
    bound = 2.0**53 / g.n_points
    for scale in (1e15, 1e300, bound):
        with pytest.raises(bs.DomainError, match=re.escape(f"chirp scale {scale!r} is out of range")) as info:
            bs.sample_spectrum_scaled(p, (+1, "H"), scale)
        assert f"2**53 / N = {bound!r}" in str(info.value)
    want = bs.to_momentum(p).amp[bs.Channel(1, "H")]
    got = bs.sample_spectrum_scaled(p, (+1, "H"), math.nextafter(bound, 0.0))
    zero = g.n_points // 2
    assert g.k[zero] == 0.0 and np.count_nonzero(got) == 1
    assert abs(got[zero] - want[zero]) <= 1e-15 * np.max(np.abs(want))
