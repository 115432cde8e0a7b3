import math
import re
import tracemalloc
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import blipsim as bs
import blipsim.spectral as spectral
import oracles
from blipsim.spectral import _chirp_sum, _forward, _inverse, _turns_phase


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


#: Chirp constants c = s * scale of sample_spectrum_scaled, both directions, scales 1/1.5, 1/1.7, 2.9 and 1.
CHIRP_CS = tuple(s * scale for s in (+1, -1) for scale in (1.0 / 1.5, 1.0 / 1.7, 2.9, 1.0))


def test_block_chirp_matches_the_block_oracle_bit_for_bit():
    """``_chirp_sum`` runs the 2x2 block convolution in place, in reused buffers;
    the oracle gives every array its own, so the two agree bit for bit.
    The 2N-point zero-padded convolution that the blocks replace agrees within
    1e-15 of the peak."""
    rng = np.random.default_rng(11)
    for log_n in range(3, 13):
        n = 1 << log_n
        values = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        for c in CHIRP_CS:
            got = _chirp_sum(values, c)
            want = oracles.block_chirp_sum(values, c)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (n, c)
            padded = oracles.padded_chirp_sum(values, c)
            assert np.max(np.abs(got - padded)) <= 1e-15 * np.max(np.abs(padded)), (n, c)


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


def _chirp_windows(n):
    """Input and output windows at both ends of the lattice and inside it; the fourth and
    the last two need more than N offsets, so they run in 2x2 blocks.  The first sums one point, each
    output a single product, which the padded oracle and the chirp both round to about
    5e-16 of it (7e-16 and 5e-16 at N = 32 against mpmath), so it meets mpmath only."""
    q = n // 4
    return [
        ((n - 1, n), (0, q)),
        ((0, q), (n - q, n)),
        ((n - q, n), (0, q + 1)),
        ((q // 2, n // 2 + 3), (q, n)),
        ((0, n // 2), (n // 2 - 1, n - 1)),
        ((1, n), (0, n - 1)),
        ((q, n), (0, n)),
    ]


def _masked(values, inputs):
    out = np.zeros_like(values)
    out[inputs[0] : inputs[1]] = values[inputs[0] : inputs[1]]
    return out


def test_windowed_chirp_matches_the_padded_oracle():
    """On random data, each output window of ``_chirp_sum`` over an input window is the
    2N-point zero-padded convolution of the input with the points outside its window zeroed,
    within 1e-15 of that transform's peak, for every chirp constant and N = 8 to 4096."""
    rng = np.random.default_rng(29)
    for log_n in range(3, 13):
        n = 1 << log_n
        values = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        for inputs, outputs in _chirp_windows(n)[1:]:
            for c in CHIRP_CS:
                want = oracles.padded_chirp_sum(_masked(values, inputs), c)
                got = _chirp_sum(values, c, inputs, outputs)
                assert got.shape == (outputs[1] - outputs[0],), (n, inputs, outputs)
                err = np.max(np.abs(got - want[outputs[0] : outputs[1]]))
                assert err <= 1e-15 * np.max(np.abs(want)), (n, inputs, outputs, c, err / np.max(np.abs(want)))


@pytest.mark.parametrize("log_n", [3, 4, 5, 6])
def test_windowed_chirp_matches_the_direct_sum_in_mpmath(log_n):
    """``_chirp_sum / 2N`` over windows at both ends of the lattice against the direct sum
    over the input window at 40 digits, within 1e-15 of the window's peak, for N up to 64."""
    n = 1 << log_n
    rng = np.random.default_rng(100 + log_n)
    values = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    with mpmath.workdps(40):
        for inputs, outputs in _chirp_windows(n)[:5]:
            for c in CHIRP_CS:
                got = _chirp_sum(values, c, inputs, outputs) / (2 * n)
                want = np.array([
                    complex(sum(
                        mpmath.mpc(values[j]) * mpmath.expjpi(-2 * mpmath.mpf(c) * (m - n // 2) * j / n)
                        for j in range(*inputs)
                    ))
                    for m in range(*outputs)
                ])
                assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want)), (n, inputs, outputs, c)


def _two_lobes(grid):
    """One channel holding two packets far apart in x and in k, of opposite carriers."""
    a = bs.gaussian_packet(grid, (+1, "H"), x0=-110.0, k0=9.0, sigma=2.0).amp[bs.Channel(1, "H")]
    b = bs.gaussian_packet(grid, (+1, "H"), x0=70.0, k0=-4.0, sigma=3.0).amp[bs.Channel(1, "H")]
    return a + 0.5 * b


def _full_band(grid):
    """Random points over the middle half of the grid: their spectrum fills the band."""
    values = np.zeros(grid.n_points, dtype=np.complex128)
    n, rng = grid.n_points, np.random.default_rng(31)
    values[n // 4 : 3 * n // 4] = rng.standard_normal(n // 2) + 1j * rng.standard_normal(n // 2)
    return values


@pytest.mark.parametrize("state", [_two_lobes, _full_band])
def test_the_maps_windows_keep_the_chirp_within_1e_15_of_its_peak(state):
    """With the windows the map reads from a state's densities, the windowed chirp
    matches the padded convolution of the whole input within 1e-15 of its peak in
    the output window, and every in-band bin outside it is below 1e-15 of that peak:
    for two separated lobes, whose windows span the gap, and for a spectrum that fills
    the band, whose output window reaches the band edge.  Each runs in 2x2 blocks at
    some scales and as one shorter convolution at others."""
    from blipsim.scattering import _window

    grid = bs.make_grid(-200.0, 200.0, 4096)
    n, values, blocks = grid.n_points, state(grid), []
    for c in CHIRP_CS:
        s, scale = (1 if c > 0 else -1), abs(c)
        spectrum = np.abs(_forward(grid, s, values)) ** 2
        inputs = _window(np.abs(values) ** 2, 2.0**-106 / n**2)
        outputs = _window(spectrum, 2.0**-100, scale)
        want = oracles.padded_chirp_sum(values, c)
        peak = np.max(np.abs(want))
        got = _chirp_sum(values, c, inputs, outputs)
        assert np.max(np.abs(got - want[outputs[0] : outputs[1]])) <= 1e-15 * peak, (c, inputs, outputs)
        outside = np.ones(n, dtype=bool)
        outside[outputs[0] : outputs[1]] = False
        outside &= scale * np.abs(grid.k) <= grid.k_max
        assert np.max(np.abs(want[outside]), initial=0.0) <= 1e-15 * peak, (c, inputs, outputs)
        blocks.append(inputs[1] - inputs[0] + outputs[1] - outputs[0] > n + 1)
    assert any(blocks) and not all(blocks), blocks


@pytest.mark.skipif(
    np.lib.NumpyVersion(np.__version__) < "2.0.0",
    reason="numpy 1.x has no FFT out= and pads an FFT input with a copy; this bound was measured with numpy 2",
)
def test_chirp_memory_stays_under_100_bytes_per_point(monkeypatch):
    """The traced peak of one resampling, above what the caller already holds,
    stays under 100 bytes per point (96 measured): the kernel, the pre-chirped
    input (reused for ``G_0``), the two input transforms, ``G_1`` and its
    reversed bins, six N-point arrays.  Every FFT it runs is N-point, so no
    2N-point array or pocketfft scratch is left."""
    grid = bs.make_grid(-800.0, 800.0, 1 << 16)
    p = bs.gaussian_packet(grid, (+1, "H"), x0=-60.0, k0=30.0, sigma=2.0)
    grid.x, grid.k
    sizes = []

    def recording(transform):
        def run(*args, **kwargs):
            out = transform(*args, **kwargs)
            sizes.append(out.size)
            return out

        return run

    monkeypatch.setattr(np.fft, "fft", recording(np.fft.fft))
    monkeypatch.setattr(np.fft, "ifft", recording(np.fft.ifft))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        bs.sample_spectrum_scaled(p, (+1, "H"), 0.5)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 100 * grid.n_points, peak / grid.n_points
    assert sizes == [grid.n_points] * 6, sizes

    # Through the map, the chirp sums only the input's window into the output window
    # (about 2,200 points into 770 bins here): its three FFTs are shorter than N, and
    # its traced peak, 16.8 measured, is the zero-filled N-point output.
    import blipsim.scattering as scattering

    sample, peaks, inside = scattering.sample_spectrum_scaled, [], []

    def windowed(*args, **kwargs):
        tracemalloc.reset_peak()
        base, first = tracemalloc.get_traced_memory()[0], len(sizes)
        out = sample(*args, **kwargs)
        peaks.append(tracemalloc.get_traced_memory()[1] - base)
        inside.append(sizes[first:])
        return out

    monkeypatch.setattr(scattering, "sample_spectrum_scaled", windowed)
    left, right = bs.Medium.reference(), bs.Medium.from_index(2.0)
    tracemalloc.start()
    try:
        out = bs.interface_scatter(p, left, right, t_final=140.0)
    finally:
        tracemalloc.stop()
    assert out.asymptotic
    (peak,), (chirp_sizes,) = peaks, inside
    assert len(chirp_sizes) == 3 and max(chirp_sizes) < grid.n_points, chirp_sizes
    assert peak <= 24 * grid.n_points, peak / grid.n_points


def test_no_module_computes_in_long_double():
    """float64 is the only float type: ``np.longdouble`` is plain float64 on
    some platforms (arm64 macOS, MSVC), so no result may depend on it."""
    modules = sorted(Path(bs.__file__).parent.glob("*.py"))
    assert len(modules) > 5
    for path in modules:
        assert "longdouble" not in path.read_text(), path.name


def test_channel_transforms_match_the_dense_dft_oracle():
    """``_forward`` and ``_inverse``, with and without a fractional free flight,
    against dense sums of the kernels ``exp(-i s k x)`` and ``exp(i s k x - i k c t)``
    on a lattice whose ``x_min`` and ``dx`` are not dyadic, for both directions
    and N = 8 to 256: within 1e-13 of each array's largest value."""
    rng = np.random.default_rng(13)
    for n in (1 << log_n for log_n in range(3, 9)):
        grid = bs.make_grid(-7.3, 11.9, n)
        values = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        for s in (+1, -1):
            pairs = [(_forward(grid, s, values), oracles.dense_forward(grid, s, values))]
            for cells in (0.0, 3.7, -41.3):
                pairs.append((_inverse(grid, s, values, cells), oracles.dense_inverse(grid, s, values, cells)))
            for i, (got, want) in enumerate(pairs):
                assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), (n, s, i)


def _point_sampled_inverse(grid, s, values, cells, points):
    """Test oracle: ``(2 pi)^(-1/2) dk sum_m values_m exp(i s k_m x_j - i k_m cells dx)`` at the lattice points
    ``points``, summed at 120 bits over the nonzero bins, with each phase in exact turns:
    ``(m - N/2) (s (x_min / dx + j) - cells) / N``, the float ``cells`` and ``x_min / dx`` taken as exact."""
    n, bins = grid.n_points, np.flatnonzero(values)
    with mpmath.workprec(120):
        origin = mpmath.mpf(grid.x_min) / mpmath.mpf(grid.dx)
        scale = mpmath.mpf(grid.dk) / mpmath.sqrt(2 * mpmath.pi)
        out = []
        for j in points:
            step = (s * (origin + j) - mpmath.mpf(cells)) / n
            total = mpmath.fsum(mpmath.mpc(values[m]) * mpmath.expjpi(2 * (int(m) - n // 2) * step) for m in bins)
            out.append(complex(scale * total))
    return np.array(out)


@pytest.mark.parametrize("s", [+1, -1])
def test_the_inverse_folds_the_origin_and_the_flight_as_separate_exact_turns(s):
    """At N = 2^17 on [-200, 200) the origin is 65,536 cells and a flight of 22,338.44 cells
    (a branch's, at t_final) sums to a float that drops the flight's low bits.  ``_inverse``
    and ``_zoom`` turn each part on its own, so at a few points around the peak both stay
    within 1e-14 of the peak of a 120-bit sum; with the sum rounded first (9.1e-13 of the
    peak was measured on a benchmark op) they do not."""
    grid = bs.make_grid(-200.0, 200.0, 1 << 17)
    k0, sigma_k, cells = 30.0, 0.25, 22338.44
    values = np.exp(-((grid.k - k0) / (2 * sigma_k)) ** 2).astype(np.complex128)
    bins = (int(np.argmax(values >= 2.0**-50)), grid.n_points - int(np.argmax(values[::-1] >= 2.0**-50)))
    values[: bins[0]] = values[bins[1] :] = 0.0
    peak = int(round((s * cells * grid.dx - grid.x_min) / grid.dx))
    points = [peak - 300, peak - 7, peak, peak + 1, peak + 150]
    want = _point_sampled_inverse(grid, s, values, cells, points)
    scale = float(np.max(np.abs(want)))
    full = _inverse(grid, s, values, cells)
    zoomed = spectral._zoom(grid, s, values, cells, bins, (peak - 400, peak + 400))
    for name, got in (("inverse", full[points]), ("zoom", zoomed[np.array(points) - (peak - 400)])):
        assert np.max(np.abs(got - want)) <= 1e-14 * scale, (name, np.max(np.abs(got - want)) / scale)


def test_the_zoom_matches_the_dense_oracle_on_its_points():
    """``_zoom`` from a window of bins onto a window of points, against ``oracles.dense_inverse`` of the same
    spectrum (zero outside its bins) on a lattice whose ``x_min`` and ``dx`` are not dyadic: both directions,
    odd and even starts of both windows, windows at both ends of the lattice and fractional flights, within
    1e-13 of the largest value."""
    rng = np.random.default_rng(17)
    grid = bs.make_grid(-7.3, 11.9, 256)
    windows = (((40, 97), (13, 120)), ((101, 180), (64, 191)), ((0, 30), (0, 90)), ((200, 256), (166, 256)),
               ((57, 58), (7, 8)))
    for s in (+1, -1):
        for bins, points in windows:
            values = np.zeros(grid.n_points, dtype=np.complex128)
            values[bins[0] : bins[1]] = rng.standard_normal(bins[1] - bins[0]) + 1j * rng.standard_normal(bins[1] - bins[0])
            for cells in (0.0, 3.7, -41.3, 1234.567):
                want = oracles.dense_inverse(grid, s, values, cells)
                got = spectral._zoom(grid, s, values, cells, bins, points)
                assert got.shape == (points[1] - points[0],)
                err = np.max(np.abs(got - want[points[0] : points[1]]))
                assert err <= 1e-13 * np.max(np.abs(want)), (s, bins, points, cells)


def test_a_branch_past_a_quarter_of_the_lattice_takes_the_whole_lattice_inverse():
    """``_position_on`` zooms a channel while its convolution ``L + M - 1`` fits ``ZOOM_MAX_FRACTION`` of N
    points and runs ``_inverse`` past it: one point more makes the channel's span the whole lattice.  Both
    sides read the whole-lattice inverse's amplitudes within 1e-13 of the peak, the zoom with exact zeros
    outside its window."""
    from blipsim.scattering import _window

    grid, ch, t = bs.make_grid(-100.0, 100.0, 4096), bs.Channel(1, "H"), 7.3
    media = {+1: bs.Medium(1.0), -1: bs.Medium(1.0)}
    incident = spectral.to_momentum(bs.gaussian_packet(grid, ch, -20.0, 3.0, 1.0))
    bins = _window(incident.density[ch], 2.0**-100)
    values = np.zeros(grid.n_points, dtype=np.complex128)
    values[bins[0] : bins[1]] = incident.amp[ch][bins[0] : bins[1]]
    sp = bs.SpectralWavePacket._own(grid, {ch: values}, spans={ch: bins})
    whole = _inverse(grid, ch.s, values, t / grid.dx)
    largest = int(spectral.ZOOM_MAX_FRACTION * grid.n_points) - (bins[1] - bins[0]) + 1
    j0 = int(np.argmax(np.abs(whole))) - largest // 2
    for size, span in ((largest, (j0, j0 + largest)), (largest + 1, (0, grid.n_points))):
        got = spectral._position_on(sp, media, t, {ch: (j0, j0 + size)})
        assert got._span(ch) == span, (size, got._span(ch))
        assert np.max(np.abs(got.amp[ch] - whole)) <= 1e-13 * np.max(np.abs(whole)), size
        if span[0]:
            assert not np.any(got.amp[ch][: span[0]]) and not np.any(got.amp[ch][span[1] :]), size


@pytest.mark.skipif(
    np.lib.NumpyVersion(np.__version__) < "2.0.0",
    reason="numpy 1.x copies an FFT's input once more; this bound was measured with numpy 2",
)
def test_a_channel_transform_peaks_under_40_bytes_per_point():
    """The traced peak of one ``_forward`` and one ``_inverse`` on a fresh
    2^16-point grid, above their input, stays at or under 40 bytes per point:
    the phase product (16), the FFT's other array (16) and the phase tables.
    ``_inverse`` runs its FFT into its phase product, so it stays at or under
    24 (20 measured)."""
    for name, transform, bound in (("forward", _forward, 40), ("inverse", _inverse, 24)):
        for s in (+1, -1):
            grid = bs.make_grid(-800.0, 800.0, 1 << 16)
            values = np.ones(grid.n_points, dtype=np.complex128)
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                transform(grid, s, values)
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            assert peak <= bound * grid.n_points, (name, s, peak / grid.n_points)


def test_the_numpy_1_copy_branch_gives_the_same_bits(monkeypatch):
    """numpy 1.x has no FFT ``out=``, so ``_fft_in_place`` returns a new array there.
    That branch, forced here with FFTs that refuse ``out=`` as numpy 1.x does, gives
    ``_inverse`` and the chirp, over the whole lattice or over windows, the same bits
    as the in-place one."""
    rng = np.random.default_rng(23)
    grid = bs.make_grid(-7.3, 11.9, 512)
    values = rng.standard_normal(grid.n_points) + 1j * rng.standard_normal(grid.n_points)
    cases = [(_inverse, (grid, s, values, cells)) for s in (+1, -1) for cells in (0.0, 3.7)]
    windows = ((None, None), ((3, 200), (100, 300)))
    cases += [(_chirp_sum, (values, c, *window)) for c in CHIRP_CS for window in windows]
    in_place = [f(*args) for f, args in cases]

    def without_out(transform):
        def run(*args, **kwargs):
            if "out" in kwargs:
                raise TypeError("numpy 1.x FFTs take no out=")
            return transform(*args, **kwargs)

        return run

    monkeypatch.setattr(spectral, "_FFT_OUT", False)
    monkeypatch.setattr(np.fft, "fft", without_out(np.fft.fft))
    monkeypatch.setattr(np.fft, "ifft", without_out(np.fft.ifft))
    for (f, args), want in zip(cases, in_place):
        got = f(*args)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (f.__name__, args[1:])


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


@pytest.mark.parametrize("window", [
    dict(outputs=(5, 3)),  # gave 2050 points
    dict(inputs=(0, 4000)),  # was summed without complaint
    dict(inputs=(-10, 100)),  # these three ended in a bare numpy ValueError or TypeError
    dict(outputs=(-4, 100)),
    dict(outputs=(2.5, 100)),
])
def test_scaled_samples_refuse_a_window_that_is_not_on_the_lattice(window):
    """A window is a pair of ints ``0 <= lo <= hi <= N``, like the map's; any other raises DomainError."""
    g = bs.make_grid(-50.0, 50.0, 2048)
    p = bs.gaussian_packet(g, (+1, "H"), x0=0.0, k0=10.0, sigma=1.0)
    with pytest.raises(bs.DomainError, match=re.escape("a window must be a pair of ints 0 <= lo <= hi <= 2048")):
        bs.sample_spectrum_scaled(p, (+1, "H"), 0.5, **window)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("t", [math.nan, math.inf, 1e300])
def test_free_flight_by_a_time_whose_shift_leaves_the_phase_range_is_refused(rig_packet, ref_medium, t):
    """Every translation phase is built for a finite shift below 2**52 cells: NaN raised the
    exit-2 ConfigurationError of a NaN amplitude, inf first warned, 1e300 gave meaningless
    phases, and the field profile returned NaNs."""
    sp = bs.to_momentum(rig_packet)
    media = {+1: ref_medium, -1: ref_medium}
    refused = "cells is out of range: it must be finite and below 2[*][*]52"
    with pytest.raises(bs.DomainError, match=refused):
        bs.to_position(sp, media, t)
    with pytest.raises(bs.DomainError, match=refused):
        bs.field_profile(sp, media, 1.0, t)
