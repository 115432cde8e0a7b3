import dataclasses
import math
import tracemalloc
from statistics import NormalDist

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import blipsim as bs
from blipsim.lattice import FIXTURE_TAIL_TOL, _affine_phase, _cis, _shift_phase


def test_grid_lattice_relations(rig_grid):
    g = rig_grid
    assert g.dx == 400.0 / 16384
    assert g.dk * g.dx * g.n_points == pytest.approx(2.0 * math.pi, rel=1e-15)
    assert g.k_max == pytest.approx(math.pi / g.dx, rel=1e-15)
    x, k = g.x, g.k
    assert x.shape == k.shape == (g.n_points,)
    assert x[0] == g.x_min
    # x = 0 is a lattice point (dx divides the span evenly in binary)
    assert x[g.n_points // 2] == 0.0
    assert k[0] == -g.k_max
    assert np.all(np.diff(x) > 0) and np.all(np.diff(k) > 0)
    assert k[g.n_points // 2] == 0.0


def test_grid_arrays_are_cached_read_only_and_outside_equality():
    g = bs.make_grid(-3.0, 5.0, 64)
    twin = bs.make_grid(-3.0, 5.0, 64)
    assert g == twin and hash(g) == hash(twin)
    for name in ("x", "k"):
        a = getattr(g, name)
        assert getattr(g, name) is a, name
        with pytest.raises(ValueError):
            a[0] = 0.0
    # g has filled its cache and twin has not
    assert g == twin and hash(g) == hash(twin) and "x" not in vars(twin)
    # exp(i k_m x_min) with k_m = 2 pi (m - N/2) / (N dx): pi times the rational 2 x_min (m - N/2) / (N dx)
    exact = [
        complex(mpmath.expjpi(mpmath.mpf(2 * g.x_min) * (m - g.n_points // 2) / (g.n_points * mpmath.mpf(g.dx))))
        for m in range(g.n_points)
    ]
    assert np.allclose(_shift_phase(g, -g.x_min / g.dx), exact, rtol=0.0, atol=1e-15)
    moved = dataclasses.replace(g, x_min=-4.0)
    assert moved.x is not g.x and moved.x[0] == -4.0
    copy = dataclasses.replace(g)
    assert copy == g and copy.x is not g.x and copy.k is not g.k
    assert np.array_equal(copy.x, g.x) and np.array_equal(copy.k, g.k)


def test_affine_phase_is_within_4_ulp_of_mpmath():
    """``exp(2 pi i (f0 + m f1))`` against 40-digit phases of the float64 ``f0`` and
    ``f1`` taken as exact, with dyadic and non-dyadic turns, for n = 8 to 2^16
    (every m up to 64, 32 drawn ones and the last): each part within 4 ulp of 1."""
    rng = np.random.default_rng(23)
    pairs = ((4096.0, -0.5), (0.375, 0.0078125), (0.1, 1.0 / 3.0), (-1234.567, 0.0123456789), (1433.6, -0.175))
    worst = 0.0
    with mpmath.workdps(40):
        for log_n in range(3, 17):
            n = 1 << log_n
            m = np.unique(np.concatenate([np.arange(min(n, 64)), rng.integers(0, n, 32), [n - 1]]))
            for f0, f1 in pairs:
                got = _affine_phase(f0, f1, n)
                assert got.shape == (n,) and got.dtype == np.complex128
                want = np.array([complex(mpmath.expjpi(2 * (mpmath.mpf(f0) + int(j) * mpmath.mpf(f1)))) for j in m])
                err = np.maximum(np.abs(got[m].real - want.real), np.abs(got[m].imag - want.imag))
                worst = max(worst, float(err.max()))
    assert worst <= 4 * np.spacing(1.0), worst / np.spacing(1.0)


def test_rig_origin_phase_is_within_1e_15_of_mpmath(rig_grid):
    """``exp(i k_m x_min)`` on the rig, whose 4096 - m/2 turns are exact in float64, on a stride of m."""
    g = rig_grid
    m = np.arange(0, g.n_points, 61)
    with mpmath.workdps(40):
        turns = [mpmath.mpf(2 * g.x_min) * (int(j) - g.n_points // 2) / (g.n_points * mpmath.mpf(g.dx)) for j in m]
        exact = [complex(mpmath.expjpi(t)) for t in turns]
    assert np.max(np.abs(_shift_phase(g, -g.x_min / g.dx)[m] - exact)) <= 1e-15


@settings(max_examples=200, deadline=None, database=None)
@given(theta=hnp.arrays(np.float64, st.integers(0, 64), elements=st.floats(-1e6, 1e6)))
@example(theta=np.array([0.0, -0.0, 1e6, -1e6, np.pi, -np.pi / 2, 5e-324]))
def test_cis_is_the_complex_exponential_within_one_ulp(theta):
    got, want = _cis(theta), np.exp(1j * theta)
    assert got.dtype == np.complex128 and got.shape == theta.shape
    for part in ("real", "imag"):
        g, w = getattr(got, part), getattr(want, part)
        assert np.all(np.abs(g - w) <= np.spacing(np.abs(w))), part


def test_make_grid_rejects_bad_shapes():
    with pytest.raises(bs.ConfigurationError):
        bs.make_grid(-1.0, 1.0, 100)  # not a power of two
    with pytest.raises(bs.ConfigurationError):
        bs.make_grid(-1.0, 1.0, 4)  # too small
    with pytest.raises(bs.ConfigurationError):
        bs.make_grid(1.0, -1.0, 64)
    with pytest.raises(bs.ConfigurationError):
        bs.make_grid(0.0, math.inf, 64)


@pytest.mark.parametrize(
    "field, bad",
    [
        ("x_min", math.nan),
        ("x_min", math.inf),
        ("x_min", -math.inf),
        ("x_min", "-1"),
        ("dx", 0.0),
        ("dx", -0.25),
        ("dx", math.nan),
        ("dx", math.inf),
        ("dx", True),
        ("dx", 1e308),  # x_max = x_min + 8 dx overflows
        ("dx", 1e-320),  # the band edge pi/dx overflows
        ("n_points", 0),
        ("n_points", 4),
        ("n_points", -8),
        ("n_points", 12),
        ("n_points", 8.0),
        ("n_points", True),
        ("n_points", "8"),
    ],
)
def test_grid_refuses_each_bad_field(field, bad):
    """The lattice rule lives on ``Grid``: a direct construction and a
    ``replace`` of a good grid refuse the same values as ``make_grid``."""
    good = bs.make_grid(-1.0, 1.0, 8)
    assert bs.Grid(x_min=-1.0, dx=0.25, n_points=8) == good
    with pytest.raises(bs.ConfigurationError):
        bs.Grid(**{**dataclasses.asdict(good), field: bad})
    with pytest.raises(bs.ConfigurationError):
        dataclasses.replace(good, **{field: bad})


@pytest.mark.parametrize("sign", [1, -1])
def test_grid_refuses_an_origin_no_transform_can_translate(sign):
    """A transform translates by the origin's ``x_min/dx`` cells, which must stay below
    ``2**52``: the last origin accepted round-trips, one cell further is refused."""
    n = 1024
    edge = sign * float(2**52 - n)
    with pytest.raises(bs.ConfigurationError, match="2\\*\\*52"):
        bs.Grid(x_min=edge, dx=1.0, n_points=n)
    with pytest.raises(bs.ConfigurationError):
        bs.Grid(x_min=sign * 1e20, dx=1.0, n_points=n)
    grid = bs.Grid(x_min=edge - sign, dx=1.0, n_points=n)
    packet = bs.gaussian_packet(grid, (sign, "H"), grid.x_min + n / 2, sign * 1.0, 20.0)
    back = bs.to_position(bs.to_momentum(packet))
    ch = bs.as_channel((sign, "H"))
    np.testing.assert_allclose(back.amp[ch], packet.amp[ch], rtol=0, atol=1e-15)


def test_channel_validation_and_order():
    assert bs.as_channel((+1, "H")) == bs.Channel(1, "H")
    with pytest.raises(bs.DomainError):
        bs.Channel(0, "H")
    with pytest.raises(bs.DomainError):
        bs.Channel(1, "X")
    assert bs.CHANNELS == tuple(sorted(bs.CHANNELS))
    assert len(set(bs.CHANNELS)) == 4


def test_medium_derived_quantities():
    ref = bs.Medium.reference()
    assert ref.c == 1.0 and ref.n == 1.0
    glass = bs.Medium.from_index(2.0)
    assert glass.epsilon == 4.0 and glass.mu == 1.0
    assert glass.c == 0.5 and glass.n == 2.0
    # index is measured against the configured reference speed
    slow_ref = bs.Medium.from_index(1.5, c0=2.0)
    assert slow_ref.c == pytest.approx(2.0 / 1.5, rel=1e-15)
    assert slow_ref.n == pytest.approx(1.5, rel=1e-15)
    raw = bs.Medium(epsilon=2.25, mu=1.0)
    assert raw.n == pytest.approx(1.5, rel=1e-15)
    assert raw.label == "n=1.5"


def test_medium_rejects_nonpositive():
    for kwargs in ({"epsilon": 0.0}, {"mu": -1.0}, {"area": 0.0}, {"c0": math.nan}):
        with pytest.raises(bs.DomainError):
            bs.Medium(**kwargs)
    with pytest.raises(bs.DomainError):
        bs.Medium.from_index(-2.0)


def test_medium_whose_permittivity_overflows_is_a_domain_error():
    """``(n / c0) ** 2`` overflows for a tiny ``c0``; the error names both."""
    with pytest.raises(bs.DomainError, match=r"n = 2\.0 and c0 = 1e-160"):
        bs.Medium.from_index(2.0, c0=1e-160)
    with pytest.raises(bs.DomainError, match=r"n = 1\.0 and c0 = 1e-200"):
        bs.Medium.reference(c0=1e-200)


def test_medium_rejects_booleans():
    """bool is an int subclass; True must not pass as a permittivity or index."""
    for name in ("epsilon", "mu", "area", "c0"):
        for bad in (True, False):
            with pytest.raises(bs.DomainError):
                bs.Medium(**{name: bad})
    for bad in (True, False):
        with pytest.raises(bs.DomainError):
            bs.Medium.from_index(bad)


def test_gaussian_packet_moments(rig_grid, rig_packet):
    p = rig_packet
    assert bs.norm(p) == pytest.approx(1.0, abs=1e-12)
    assert bs.centroid(p) == pytest.approx(-60.0, abs=1e-9)
    x = rig_grid.x
    dens = np.abs(p.amplitude((+1, "H"))) ** 2 * rig_grid.dx
    var = float(np.sum((x + 60.0) ** 2 * dens))
    assert var == pytest.approx(4.0, rel=1e-9)  # sigma^2


def test_gaussian_packet_frees_the_envelope_square_before_the_carrier():
    """The fixture keeps 16 B/pt.  It normalises the real envelope before it builds the
    carrier, so the envelope's square and the carrier are never alive together: the traced
    peak on a 2^16 grid (x built beforehand) is below 30 B/pt, 28.2 measured against 32.0
    with both alive.  The amplitudes are those of the same steps, bit for bit."""
    grid = bs.make_grid(-200.0, 200.0, 1 << 16)
    grid.x
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        p = bs.gaussian_packet(grid, (+1, "H"), x0=-60.0, k0=30.0, sigma=2.0)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 30 * grid.n_points, peak / grid.n_points
    envelope = np.exp((grid.x - -60.0) ** 2 / (-4.0 * 2.0**2))
    envelope /= math.sqrt(float(np.sum(envelope**2)) * grid.dx)
    turn = 30.0 / (2.0 * math.pi)
    want = _affine_phase(turn * grid.x_min, turn * grid.dx, grid.n_points) * envelope
    assert np.array_equal(p.amp[bs.Channel(1, "H")], want)


def test_gaussian_tail_masses(rig_grid):
    """Envelope tails: ~2e-9 of the density sits outside +-6 sigma.

    The 1e-12 level is only reached beyond +-7 sigma; quantitative support
    arguments in this package therefore use 8 sigma margins.
    """
    p = bs.gaussian_packet(rig_grid, (+1, "H"), x0=0.0, k0=30.0, sigma=2.0)
    dens = np.abs(p.amplitude((+1, "H"))) ** 2 * rig_grid.dx
    x = rig_grid.x
    outside6 = float(np.sum(dens[np.abs(x) > 6 * 2.0]))
    outside8 = float(np.sum(dens[np.abs(x) > 8 * 2.0]))
    # closed-form masses: erfc(m/sqrt(2))
    assert outside6 == pytest.approx(1.9731752900754024e-09, rel=0.02)
    assert outside6 > 1e-12  # a 6-sigma window is NOT tight at the 1e-12 level
    assert outside8 < 5e-15
    assert math.erfc(8.0 / math.sqrt(2.0)) == pytest.approx(1.2441921148543639e-15, rel=1e-12)


def test_gaussian_fixture_guards(rig_grid):
    with pytest.raises(bs.FixtureError):
        bs.gaussian_packet(rig_grid, (+1, "H"), x0=-195.0, k0=30.0, sigma=2.0)
    with pytest.raises(bs.FixtureError):
        # carrier too close to the band edge k_max ~ 128.68
        bs.gaussian_packet(rig_grid, (+1, "H"), x0=0.0, k0=128.0, sigma=2.0)
    with pytest.raises(bs.FixtureError):
        bs.gaussian_packet(rig_grid, (+1, "H"), x0=0.0, k0=30.0, sigma=2 * rig_grid.dx)
    with pytest.raises(bs.FixtureError):
        bs.gaussian_packet(rig_grid, (+1, "H"), x0=math.nan, k0=30.0, sigma=2.0)


#: Standard deviations beyond which a Gaussian leaves ``FIXTURE_TAIL_TOL``
#: of its weight, from the normal quantile rather than the guards' erfc.
TAIL_SIGMAS = -NormalDist().inv_cdf(FIXTURE_TAIL_TOL)
#: Relative step from a guard's boundary to a value just inside or outside it.
NUDGE = 1e-6


@settings(max_examples=60, deadline=None, database=None)
@given(
    log_n=st.integers(7, 14),
    x_min=st.floats(-500.0, 500.0),
    length=st.floats(1.0, 1000.0),
    v=st.floats(0.0, 1.0),
    side=st.sampled_from((+1, -1)),
    ch=st.sampled_from(((+1, "H"), (-1, "V"))),
)
def test_each_fixture_guard_refuses_just_outside_and_builds_just_inside(log_n, x_min, length, v, side, ch):
    """The sigma guard (sigma > 3 dx), the edge guard (x0 at TAIL_SIGMAS
    sigma from either grid end) and the band guard (k0 at TAIL_SIGMAS
    sigma_k from either band edge), each nudged across its boundary while
    the others hold with room to spare."""
    grid = bs.make_grid(x_min, x_min + length, 1 << log_n)
    middle = grid.x_min + 0.5 * length

    def verdicts(just_inside, just_outside):
        bs.gaussian_packet(grid, ch, **just_inside)
        with pytest.raises(bs.FixtureError):
            bs.gaussian_packet(grid, ch, **just_outside)

    floor = 3.0 * grid.dx
    verdicts(
        dict(x0=middle, k0=0.0, sigma=math.nextafter(floor, math.inf)),
        dict(x0=middle, k0=0.0, sigma=floor),
    )
    # sigma from just above 3 dx to a quarter of the grid over TAIL_SIGMAS
    sigma = floor * (1.0 + NUDGE) + v * (0.25 * length / TAIL_SIGMAS - floor * (1.0 + NUDGE))
    end = grid.x_min if side < 0 else grid.x_max
    verdicts(
        dict(x0=end - side * TAIL_SIGMAS * sigma * (1.0 + NUDGE), k0=0.0, sigma=sigma),
        dict(x0=end - side * TAIL_SIGMAS * sigma * (1.0 - NUDGE), k0=0.0, sigma=sigma),
    )
    sigma_k = 0.5 / sigma
    verdicts(
        dict(x0=middle, k0=side * (grid.k_max - TAIL_SIGMAS * sigma_k * (1.0 + NUDGE)), sigma=sigma),
        dict(x0=middle, k0=side * (grid.k_max - TAIL_SIGMAS * sigma_k * (1.0 - NUDGE)), sigma=sigma),
    )


def test_negative_carrier_is_a_valid_fixture(rig_grid):
    """Negative wavenumbers are ordinary content of either direction channel."""
    p = bs.gaussian_packet(rig_grid, (-1, "V"), x0=10.0, k0=-30.0, sigma=2.0)
    assert bs.norm(p) == pytest.approx(1.0, abs=1e-12)
    assert p.channels() == (bs.Channel(-1, "V"),)


def test_centroid_zero_packet_rejected(rig_grid):
    empty = bs.BlipWavePacket(rig_grid, {})
    assert bs.norm(empty) == 0.0
    with pytest.raises(bs.ZeroNormError):
        bs.centroid(empty)
    zero = bs.BlipWavePacket(rig_grid, {(1, "H"): np.zeros(rig_grid.n_points)})
    with pytest.raises(bs.ZeroNormError):
        bs.centroid(zero)


def test_a_centroid_keeps_its_digits_when_the_density_underflows():
    """Amplitudes scaled by a power of two have the same centroid, also where their density
    underflows: near 2**-530 the cells square to subnormals (their plain sums put the centroid
    at -39.9992 or -40.6), by 2**-540 to zeros, and the centroid is read from exactly lifted
    amplitudes instead."""
    grid = bs.make_grid(-100.0, 100.0, 2048)
    p = bs.gaussian_packet(grid, (+1, "H"), -40.0, 5.0, 3.0)
    want = bs.centroid(p)
    for k in (-480, -500, -520, -530, -535, -540, -560):
        scaled = bs.BlipWavePacket(grid, {ch: a * 2.0**k for ch, a in p.amp.items()})
        assert bs.centroid(scaled) == want, k


def test_combine_channels_and_coherence(rig_grid):
    a = bs.gaussian_packet(rig_grid, (+1, "H"), x0=-30.0, k0=20.0, sigma=2.0)
    b = bs.gaussian_packet(rig_grid, (-1, "V"), x0=30.0, k0=20.0, sigma=2.0)
    both = bs.combine(a, b)
    assert set(both.channels()) == {bs.Channel(1, "H"), bs.Channel(-1, "V")}
    assert bs.norm(both) == pytest.approx(2.0, rel=1e-12)
    # same channel adds coherently: doubling the amplitude quadruples the norm
    twice = bs.combine(a, a)
    assert bs.norm(twice) == pytest.approx(4.0, rel=1e-12)
    with pytest.raises(bs.DomainError):
        bs.combine(a, bs.gaussian_packet(bs.make_grid(-50, 50, 2048), (+1, "H"), 0.0, 20.0, 1.0))
    with pytest.raises(bs.DomainError):
        bs.combine()


def _count_squares(monkeypatch, n_points):
    """Wrap ``np.abs`` and return the list that grows by one per length-``n_points`` call."""
    calls = []
    absolute = np.abs

    def counting_abs(a, *args, **kwargs):
        if np.size(a) == n_points:
            calls.append(1)
        return absolute(a, *args, **kwargs)

    monkeypatch.setattr(np, "abs", counting_abs)
    return calls


@pytest.mark.parametrize("combined_first", [True, False])
@pytest.mark.parametrize("kind", ["position", "momentum"])
def test_combine_shares_the_density_of_each_adopted_channel(monkeypatch, rig_grid, kind, combined_first):
    """A channel that one packet brings to ``combine`` is that packet's array, and
    its density is that packet's read-only density: each channel is squared
    once, by whichever packet reads first."""
    a = bs.gaussian_packet(rig_grid, (+1, "H"), x0=-30.0, k0=20.0, sigma=2.0)
    b = bs.combine(
        bs.gaussian_packet(rig_grid, (-1, "V"), x0=30.0, k0=20.0, sigma=2.0),
        bs.gaussian_packet(rig_grid, (-1, "H"), x0=40.0, k0=25.0, sigma=3.0),
    )
    if kind == "momentum":
        a, b = bs.to_momentum(a), bs.to_momentum(b)
    calls = _count_squares(monkeypatch, rig_grid.n_points)
    both = bs.combine(a, b)
    readers = [both, a, b] if combined_first else [a, b, both]
    for p in readers:
        p.density
    assert len(calls) == 3, len(calls)
    for source in (a, b):
        for ch, dens in source.density.items():
            assert both.amp[ch] is source.amp[ch]
            assert both.density[ch] is dens and not dens.flags.writeable
            np.testing.assert_array_equal(dens, np.abs(source.amp[ch]) ** 2)


def test_a_channel_two_packets_sum_gets_its_own_density(rig_grid):
    """Only a channel present in two packets is summed and squared afresh."""
    a = bs.gaussian_packet(rig_grid, (+1, "H"), x0=-30.0, k0=20.0, sigma=2.0)
    b = bs.combine(
        bs.gaussian_packet(rig_grid, (+1, "H"), x0=-10.0, k0=25.0, sigma=3.0),
        bs.gaussian_packet(rig_grid, (-1, "V"), x0=30.0, k0=20.0, sigma=2.0),
    )
    both = bs.combine(a, b)
    h, v = bs.Channel(1, "H"), bs.Channel(-1, "V")
    want = np.abs(a.amp[h] + b.amp[h]) ** 2
    assert both.density[h] is not a.density[h] and both.density[h] is not b.density[h]
    assert np.array_equal(both.density[h], want) and not both.density[h].flags.writeable
    assert both.density[v] is b.density[v]


def test_packets_are_value_objects(rig_grid):
    src = np.ones(rig_grid.n_points, dtype=complex)
    p = bs.BlipWavePacket(rig_grid, {(+1, "H"): src})
    src[:] = 0.0  # the packet copied on construction
    assert np.all(p.amplitude((+1, "H")) == 1.0)
    with pytest.raises(ValueError):
        p.amplitude((+1, "H"))[0] = 5.0
    with pytest.raises(ValueError):
        p.amplitude((-1, "V"))[0] = 5.0  # absent channels are frozen zeros too
    assert np.all(p.amplitude((-1, "V")) == 0.0)


def test_library_packets_adopt_their_arrays_and_square_each_channel_once(rig_grid):
    """The private ``_own`` path freezes the arrays it is given in place, after
    the public constructor's checks; a packet's density is ``|a|**2``, built
    once and read-only."""
    src = np.ones(rig_grid.n_points, dtype=complex)
    p = bs.BlipWavePacket._own(rig_grid, {(+1, "H"): src})
    assert p.amplitude((+1, "H")) is src and not src.flags.writeable
    dens = p.density[bs.Channel(1, "H")]
    assert p.density[bs.Channel(1, "H")] is dens and not dens.flags.writeable
    np.testing.assert_array_equal(dens, np.abs(src) ** 2)
    bad = np.ones(rig_grid.n_points, dtype=complex)
    bad[7] = math.nan
    for amp in ({(+1, "H"): bad}, {(+1, "H"): bad[:-1]}, {(+1, "H"): src, bs.Channel(1, "H"): src}):
        with pytest.raises(bs.ConfigurationError):
            bs.BlipWavePacket._own(rig_grid, amp)


def test_duplicate_and_malformed_amplitudes_rejected(rig_grid):
    good = np.ones(rig_grid.n_points, dtype=complex)
    with pytest.raises(bs.ConfigurationError):
        bs.BlipWavePacket(rig_grid, {(+1, "H"): good, bs.Channel(1, "H"): good})
    with pytest.raises(bs.ConfigurationError):
        bs.BlipWavePacket(rig_grid, {(+1, "H"): good[:-1]})
    bad = good.copy()
    bad[7] = math.nan
    with pytest.raises(bs.ConfigurationError):
        bs.BlipWavePacket(rig_grid, {(+1, "H"): bad})


def test_both_packet_types_share_one_body_but_stay_distinct(small_grid):
    """Position and momentum packets differ only in name: a packet equals
    itself, never a packet of the other type, and ``combine`` keeps the type
    of its packets and refuses to add one type to the other."""
    values = {(+1, "H"): np.arange(small_grid.n_points, dtype=complex)}
    x_a, x_b = bs.BlipWavePacket(small_grid, values), bs.BlipWavePacket(small_grid, values)
    k_a = bs.SpectralWavePacket(small_grid, values)
    assert x_a.channels() == k_a.channels() == (bs.Channel(1, "H"),)
    assert x_a == x_a and k_a == k_a
    assert x_a != k_a and k_a != x_a
    assert type(bs.combine(x_a, x_b)) is bs.BlipWavePacket
    assert type(bs.combine(k_a, k_a)) is bs.SpectralWavePacket
    for mixed in ((x_a, k_a), (k_a, x_a), (x_a, x_b, bs.to_momentum(x_a))):
        with pytest.raises(bs.DomainError, match="one packet type"):
            bs.combine(*mixed)
    with pytest.raises(ValueError):
        k_a.amplitude((-1, "V"))[0] = 1.0
    assert repr(k_a).startswith("SpectralWavePacket(grid=")


def test_a_packet_on_spans_reads_as_its_whole_lattice_copy(rig_grid, ref_medium, glass):
    """Channels the library built on spans (exact zeros outside them) read the same density, norm,
    centroid, guard fractions and expectation values (and ``expect_dyn_momentum``, whose float the
    expectations' dynamical momentum is) as the same arrays held on the whole lattice:
    the density is the same array, and each sum over a span differs from the whole-lattice sum only in
    its pairwise grouping, within 4e-15 of the quantity's scale (the weight, the weight times the
    largest ``c |k|``, or the grid's length for the centroid).  The spans lie below, across and above
    ``k = 0`` at N/2, and ``combine`` reads two channels that overlap on the hull of their spans."""
    from blipsim.scattering import _guard_fractions

    n = rig_grid.n_points
    media = {+1: glass, -1: ref_medium}
    rng = np.random.default_rng(29)

    def on(lo, hi):
        values = np.zeros(n, dtype=np.complex128)
        values[lo:hi] = rng.standard_normal(hi - lo) + 1j * rng.standard_normal(hi - lo)
        return values

    def same(got, want, scale):
        assert abs(got - want) <= 4e-15 * scale, (got, want, scale)

    h, v = bs.Channel(1, "H"), bs.Channel(-1, "V")
    layouts = {
        "below and above k = 0": {h: (3000, 7000), v: (9000, 12001)},
        "across k = 0": {h: (n // 2 - 777, n // 2 + 1201), v: (0, 40)},
        "at both ends": {h: (n - 64, n), v: (0, n)},
    }
    for name, spans in layouts.items():
        amp = {ch: on(*span) for ch, span in spans.items()}
        for kind in (bs.BlipWavePacket, bs.SpectralWavePacket):
            spanned = kind._own(rig_grid, {ch: a.copy() for ch, a in amp.items()}, spans=spans)
            whole = kind(rig_grid, amp)
            for ch in amp:
                assert spanned._span(ch) == spans[ch] and whole._span(ch) == (0, n), name
                np.testing.assert_array_equal(spanned.density[ch], whole.density[ch])
            weight = bs.norm(whole) if kind is bs.BlipWavePacket else bs.spectral_norm(whole)
            read = bs.norm if kind is bs.BlipWavePacket else bs.spectral_norm
            same(read(spanned), weight, weight)
            if kind is bs.BlipWavePacket:
                same(bs.centroid(spanned), bs.centroid(whole), rig_grid.x_max - rig_grid.x_min)
                for side in (-1, +1):
                    dts = [-150.0, -20.0, 0.0, 30.0, 140.0]
                    for got, want in zip(_guard_fractions(spanned, media, side, dts), _guard_fractions(whole, media, side, dts)):
                        assert got.keys() == want.keys(), name
                        for ch in want:
                            same(got[ch], want[ch], 1.0)
            else:
                got, want = bs.spectral_expectations(spanned, media), bs.spectral_expectations(whole, media)
                assert got.medium_tag == want.medium_tag
                energy = weight * rig_grid.k_max * max(m.c for m in media.values())
                for field in ("energy", "dyn_hamiltonian", "dyn_momentum", "field_momentum", "abraham_momentum"):
                    same(getattr(got, field), getattr(want, field), energy)
                same(got.photon_number, want.photon_number, weight)
                # the report's number and dynamical momentum are spectral_norm's and expect_dyn_momentum's floats
                assert got.photon_number == bs.spectral_norm(spanned), name
                assert got.dyn_momentum == bs.expect_dyn_momentum(spanned), name
                same(bs.expect_dyn_momentum(spanned), bs.expect_dyn_momentum(whole), energy)
        # a channel in two packets adds over the hull of its spans
        first = bs.BlipWavePacket._own(rig_grid, {h: on(100, 900)}, spans={h: (100, 900)})
        second = bs.BlipWavePacket._own(rig_grid, {h: on(5000, 5200)}, spans={h: (5000, 5200)})
        both = bs.combine(first, second)
        assert both._span(h) == (100, 5200)
        np.testing.assert_array_equal(both.density[h], np.abs(first.amp[h] + second.amp[h]) ** 2)
