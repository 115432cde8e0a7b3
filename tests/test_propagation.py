import json
import math
import tracemalloc
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import blipsim as bs
from blipsim import cli
import oracles
from blipsim.lattice import FIXTURE_TAIL_TOL, SUPPORT_QUANTILE, _gauss_tail

from test_lattice import TAIL_SIGMAS
from test_observables import in_medium
from test_scattering import branch_guard_oracle


def test_free_flight_zero_time_is_identity(rig_packet, ref_medium):
    out = bs.evolve_free(rig_packet, ref_medium, 0.0)
    assert out is rig_packet


def test_free_flight_exact_integer_cell_shift(rig_grid, ref_medium):
    """t = 100 with c = 1 is exactly 4096 lattice cells on the rig grid."""
    cells = 4096
    assert cells * rig_grid.dx == 100.0
    for s in (+1, -1):
        p = bs.gaussian_packet(rig_grid, (s, "H"), x0=-s * 60.0, k0=25.0, sigma=2.0)
        moved = bs.evolve_free(p, ref_medium, 100.0)
        expected = np.roll(p.amplitude((s, "H")), s * cells)
        assert np.max(np.abs(moved.amplitude((s, "H")) - expected)) < 1e-12


def test_free_flight_by_whole_cells_is_exact_to_1e_15(rig_grid, ref_medium):
    """A flight by a whole number of cells is a roll of the lattice: its phase
    is exact in turns, so only the two FFTs round."""
    for s in (+1, -1):
        p = bs.gaussian_packet(rig_grid, (s, "H"), x0=-s * 60.0, k0=25.0, sigma=2.0)
        for cells in (1, 37, 4096):
            moved = bs.evolve_free(p, ref_medium, cells * rig_grid.dx)
            expected = np.roll(p.amplitude((s, "H")), s * cells)
            assert np.max(np.abs(moved.amplitude((s, "H")) - expected)) <= 1e-15, (s, cells)


def test_free_flight_conserves_everything(rig_packet, ref_medium):
    before = bs.to_momentum(rig_packet)
    moved = bs.evolve_free(rig_packet, ref_medium, 100.0)
    after = bs.to_momentum(moved)
    assert bs.norm(moved) == pytest.approx(bs.norm(rig_packet), abs=1e-12)
    assert bs.centroid(moved) == pytest.approx(40.0, abs=1e-6)
    assert in_medium(after, ref_medium).energy == pytest.approx(
        in_medium(before, ref_medium).energy, rel=1e-13
    )
    assert bs.expect_dyn_momentum(after) == pytest.approx(
        bs.expect_dyn_momentum(before), rel=1e-13
    )
    # spectral density is untouched, only phases move
    assert np.max(
        np.abs(np.abs(after.amp[bs.Channel(1, "H")]) - np.abs(before.amp[bs.Channel(1, "H")]))
    ) < 1e-12


def test_free_flight_composes(rig_packet, glass):
    one = bs.evolve_free(rig_packet, glass, 110.0)
    two = bs.evolve_free(bs.evolve_free(rig_packet, glass, 40.0), glass, 70.0)
    assert np.max(
        np.abs(one.amplitude((+1, "H")) - two.amplitude((+1, "H")))
    ) < 1e-12
    # glass halves the speed: 110 time units move the centroid by 55
    assert bs.centroid(one) == pytest.approx(-5.0, abs=1e-6)


#: 2^11 cells over [-160, 160): k_max = 20.1.
_FLIGHT_GRID = bs.make_grid(-160.0, 160.0, 1 << 11)


@settings(max_examples=200, deadline=None, database=None)
@given(
    n=st.floats(1.0, 4.0),
    direction=st.sampled_from((+1, -1)),
    x0=st.floats(-100.0, 100.0),
    k0=st.floats(-12.0, 12.0),
    sigma=st.floats(1.0, 2.0),
    t1=st.floats(-200.0, 200.0),
    t2=st.floats(-200.0, 200.0),
)
def test_free_flight_composes_across_the_domain(n, direction, x0, k0, sigma, t1, t2):
    """Two flights of t1 and t2 are one flight of t1 + t2, for either sign of
    each; draws that would carry the packet off the grid are dropped."""
    m = bs.Medium.from_index(n)
    p = bs.gaussian_packet(_FLIGHT_GRID, (direction, "H"), x0, k0, sigma)
    try:
        one = bs.evolve_free(p, m, t1 + t2)
        two = bs.evolve_free(bs.evolve_free(p, m, t1), m, t2)
    except bs.DomainExitError:
        assume(False)
    ch = bs.Channel(direction, "H")
    assert np.max(np.abs(two.amp[ch] - one.amp[ch])) <= 1e-12


def test_free_flight_negative_time_rewinds(rig_packet, ref_medium):
    back = bs.evolve_free(bs.evolve_free(rig_packet, ref_medium, 80.0), ref_medium, -80.0)
    assert np.max(
        np.abs(back.amplitude((+1, "H")) - rig_packet.amplitude((+1, "H")))
    ) < 1e-12


def test_free_flight_domain_exit_guard(rig_grid, rig_packet, ref_medium):
    with pytest.raises(bs.DomainExitError):
        bs.evolve_free(rig_packet, ref_medium, 270.0)  # would pass x_max
    with pytest.raises(bs.DomainExitError):
        bs.evolve_free(rig_packet, ref_medium, -150.0)  # would pass x_min
    # a left-mover exits on the left
    lefty = bs.gaussian_packet(rig_grid, (-1, "H"), x0=30.0, k0=25.0, sigma=2.0)
    with pytest.raises(bs.DomainExitError):
        bs.evolve_free(lefty, ref_medium, 250.0)


def test_scenario_validation(rig_packet, ref_medium, glass):
    ok = bs.Scenario(rig_packet, ref_medium, glass, schedule=(0.0, 10.0))
    assert ok.n == 2.0
    with pytest.raises(bs.ConfigurationError):
        bs.Scenario(rig_packet, ref_medium, glass, schedule=())
    with pytest.raises(bs.ConfigurationError):
        bs.Scenario(rig_packet, ref_medium, glass, schedule=(10.0, 10.0))
    with pytest.raises(bs.ConfigurationError):
        bs.Scenario(rig_packet, ref_medium, glass, schedule=(-5.0, 10.0))
    with pytest.raises(bs.ConfigurationError):
        bs.Scenario(rig_packet, ref_medium, glass, schedule=(0.0, math.inf))
    with pytest.raises(bs.ConfigurationError, match="finite and nonnegative"):
        bs.Scenario(rig_packet, ref_medium, glass, schedule=(0.0, math.nan))
    with pytest.raises(bs.ConfigurationError):
        bs.Scenario(rig_packet, ref_medium, glass, schedule=(0.0,), hbar=0.0)
    # an explicit omega becomes rates once, when the scenario is built
    assert ok.rates is None
    mirror = bs.Scenario(rig_packet, ref_medium, ref_medium, schedule=(0.0,), omega=-0.6j)
    assert mirror.rates == bs.rates_from_omega(bs.MirrorCoupling(-0.6j, c_ref=ref_medium.c))
    with pytest.raises(TypeError):
        bs.Scenario(rig_packet, ref_medium, ref_medium, schedule=(0.0,), rates=mirror.rates)
    with pytest.raises(bs.DivergenceError):
        bs.Scenario(rig_packet, ref_medium, ref_medium, schedule=(0.0,), omega=-2j)
    with pytest.raises(bs.DomainError):
        bs.Scenario(rig_packet, ref_medium, ref_medium, schedule=(0.0,), omega=complex(math.inf, 0.0))


def test_run_scenario_phases_and_ratios(rig_packet, ref_medium, glass):
    sc = bs.Scenario(rig_packet, ref_medium, glass, schedule=(0.0, 30.0, 140.0))
    res = bs.run_scenario(sc)
    assert [(r.time, r.branch) for r in res.rows] == [
        (0.0, "incoming"),
        (30.0, "incoming"),
        (140.0, "transmitted"),
        (140.0, "reflected"),
        (140.0, "total"),
    ]
    assert {r.phase for r in res.rows[:2]} == {"incoming"}
    assert {r.phase for r in res.rows[2:]} == {"scattered"}
    assert all(r.asymptotic for r in res.rows)
    incoming0 = res.rows[0]
    assert incoming0.values.photon_number == pytest.approx(1.0, abs=1e-9)
    assert incoming0.centroid == pytest.approx(-60.0, abs=1e-6)
    assert incoming0.values.medium_tag == "n=1"
    total = res.rows[-1]
    assert total.values.energy == pytest.approx(incoming0.values.energy, rel=1e-9)
    assert total.values.dyn_momentum == pytest.approx(30.0 * 5.0 / 3.0, rel=1e-9)
    assert total.values.field_momentum == pytest.approx(total.values.dyn_momentum, rel=1e-8)
    trans = res.rows[2]
    assert trans.values.medium_tag == "n=2"
    assert trans.values.abraham_momentum == pytest.approx(trans.values.field_momentum / 4.0, rel=1e-12)
    assert res.outcome.t_final == 140.0
    assert not any(r.phase == "crossing" for r in (*res.rows, *res.blocks.values()))
    assert res.outcome.resampling_drift < 1e-12


def test_blocks_are_the_input_and_the_final_branches(rig_packet, ref_medium, glass):
    """All rows of a branch share one record; the blocks reuse the final rows
    or, when every report is still incoming, the outcome at the final time."""
    res = bs.run_scenario(bs.Scenario(rig_packet, ref_medium, glass, schedule=(0.0, 30.0, 140.0)))
    assert res.blocks["input"] == res.rows[0]
    assert res.rows[1].values is res.blocks["input"].values
    assert [res.blocks[b] for b in ("transmitted", "reflected", "total")] == list(res.rows[2:])
    early = bs.run_scenario(bs.Scenario(rig_packet, ref_medium, glass, schedule=(0.0, 10.0)))
    assert {r.branch for r in early.rows} == {"incoming"}
    out = early.outcome
    for branch, packet in (
        ("transmitted", out.transmitted),
        ("reflected", out.reflected),
        ("total", bs.combine(out.transmitted, out.reflected)),
    ):
        block = early.blocks[branch]
        assert (block.time, block.branch, block.phase) == (10.0, branch, "crossing")
        assert block.centroid == bs.centroid(packet)
        assert block.values == res.blocks[branch].values


def test_run_scenario_crossing_phase(rig_packet, ref_medium, glass):
    """Report times while a branch still overlaps the scatterer are flagged."""
    sc = bs.Scenario(rig_packet, ref_medium, glass, schedule=(50.0, 70.0, 140.0))
    res = bs.run_scenario(sc)
    by_time = {}
    for r in res.rows:
        by_time.setdefault(r.time, set()).add(r.phase)
    assert by_time[50.0] == {"crossing"}
    assert by_time[70.0] == {"crossing"}
    assert by_time[140.0] == {"scattered"}
    assert tuple(dict.fromkeys(r.time for r in res.rows if r.phase == "crossing")) == (50.0, 70.0)
    assert res.outcome.asymptotic  # the final outcome did clear the band
    # norms are branch norms even mid-crossing
    mid = [r for r in res.rows if r.time == 70.0 and r.branch == "total"]
    assert mid[0].values.photon_number == pytest.approx(1.0, abs=1e-9)


def test_scenario_result_holds_each_run_fact_once(tmp_path):
    """The result keeps four fields.  On the series config the run's guard
    fraction is the t = 50 crossing report's, read from the final branches
    with the band moved by s c (t_final - 50); it is larger than the final
    outcome's and is what ``summary.json`` reports, and the crossing times
    come from the rows' phases."""
    assert [f.name for f in fields(bs.ScenarioResult)] == ["rows", "outcome", "blocks", "guard_fraction"]
    config = Path(__file__).resolve().parents[1] / "configs" / "air_to_glass_series.ini"
    sc = cli._scenario_from_config(cli._load_config(str(config)))
    result = bs.run_scenario(sc)
    outcome = result.outcome
    outgoing = {+1: sc.right_medium, -1: sc.left_medium}
    at_50 = max(
        branch_guard_oracle(b, outcome.incident_weight, outgoing, outcome.t_final - 50.0)
        for b in (outcome.transmitted, outcome.reflected)
    )
    assert result.guard_fraction == at_50 == 0.9999998214005721
    assert result.guard_fraction > outcome.guard_fraction
    assert cli.main(["run", "--config", str(config), "--format", "json", "--out", str(tmp_path)]) == 0
    diagnostics = json.loads((tmp_path / "summary.json").read_text())["diagnostics"]
    assert diagnostics["guard_fraction"] == result.guard_fraction
    assert diagnostics["non_asymptotic_times"] == [50, 70]
    assert diagnostics["resampling_drift"] == outcome.resampling_drift


def test_run_scenario_probabilities_time_independent(rig_packet, ref_medium, glass):
    early = bs.run_scenario(
        bs.Scenario(rig_packet, ref_medium, glass, schedule=(20.0,))
    )
    late = bs.run_scenario(
        bs.Scenario(rig_packet, ref_medium, glass, schedule=(140.0,))
    )
    assert early.outcome.prob_t == pytest.approx(late.outcome.prob_t, abs=1e-12)
    assert early.outcome.prob_r == pytest.approx(late.outcome.prob_r, abs=1e-12)


def test_run_scenario_point_coupling(rig_packet, ref_medium):
    q = 0.3
    sc = bs.Scenario(
        rig_packet, ref_medium, ref_medium, schedule=(0.0, 140.0), omega=-2j * q
    )
    res = bs.run_scenario(sc)
    want_r = (2 * q / (1 + q * q)) ** 2
    assert res.outcome.prob_r == pytest.approx(want_r, rel=1e-9)
    assert res.outcome.prob_t + res.outcome.prob_r == pytest.approx(1.0, abs=1e-9)
    refl = [r for r in res.rows if r.branch == "reflected"][0]
    assert refl.values.dyn_momentum == pytest.approx(-30.0 * want_r, rel=1e-9)


def test_run_scenario_domain_exit(rig_packet, ref_medium, glass):
    sc = bs.Scenario(rig_packet, ref_medium, glass, schedule=(0.0, 400.0))
    with pytest.raises(bs.DomainExitError):
        bs.run_scenario(sc)


def test_run_scenario_guards_initial_support(rig_grid, ref_medium, glass):
    straddler = bs.gaussian_packet(rig_grid, (+1, "H"), x0=0.0, k0=30.0, sigma=2.0)
    sc = bs.Scenario(straddler, ref_medium, glass, schedule=(0.0, 140.0))
    with pytest.raises(bs.SupportGuardError):
        bs.run_scenario(sc)


# ---------------------------------------------------------------------------
# map once, evolve by phase: oracle and count checks


def _field_route(p, media, hbar=1.0):
    """Row values the pre-refactor way: transform the state at its own time
    and take the field momentum from the reconstructed field profiles."""
    vals = asdict(bs.spectral_expectations(bs.to_momentum(p), media, hbar))
    vals["field_momentum"] = vals["abraham_momentum"] = 0.0
    for ch, a in bs.to_momentum(p).amp.items():
        m = media[ch.s]
        fp = bs.field_profile(bs.SpectralWavePacket(p.grid, {ch: a}), {ch.s: m}, hbar)
        p_field = oracles.momentum_from_fields(fp, m)
        vals["field_momentum"] += p_field
        vals["abraham_momentum"] += bs.abraham_momentum(p_field, m.n)
    vals["norm"] = vals["photon_number"]
    vals["centroid"] = bs.centroid(p) if vals["norm"] > 0.0 else None
    return vals


def _old_route_rows(sc, phases):
    """Free flight per channel for incoming times, a fresh map at every other time."""
    incoming = {+1: sc.left_medium, -1: sc.right_medium}
    outgoing = {+1: sc.right_medium, -1: sc.left_medium}
    rates = None
    if sc.omega is not None:
        rates = bs.rates_from_omega(bs.MirrorCoupling(sc.omega, sc.left_medium.c))
    rows = []
    for t in sc.schedule:
        if phases[t] == "incoming":
            state = bs.combine(
                *(
                    bs.evolve_free(bs.BlipWavePacket(sc.packet.grid, {ch: a}), incoming[ch.s], t)
                    for ch, a in sc.packet.amp.items()
                )
            )
            rows.append(_field_route(state, incoming, sc.hbar))
            continue
        out = bs.interface_scatter(sc.packet, sc.left_medium, sc.right_medium, t, rates=rates)
        for packet in (out.transmitted, out.reflected, bs.combine(out.transmitted, out.reflected)):
            rows.append(_field_route(packet, outgoing, sc.hbar))
    return rows


def _mixed_packet(grid):
    """A right-mover in the reference medium and a left-mover in the glass,
    both approaching x = 0 on the same polarization, so branches interfere."""
    right = bs.gaussian_packet(grid, (+1, "H"), x0=-60.0, k0=30.0, sigma=2.0)
    left = bs.gaussian_packet(grid, (-1, "H"), x0=30.0, k0=25.0, sigma=2.0)
    both = bs.combine(right, left)
    return bs.BlipWavePacket(grid, {ch: a / math.sqrt(2.0) for ch, a in both.amp.items()})


def _oracle_cases(rig_grid, rig_packet, ref_medium, glass):
    lefty = bs.gaussian_packet(rig_grid, (-1, "H"), x0=30.0, k0=30.0, sigma=2.0)
    mixed = _mixed_packet(rig_grid)
    return {
        "fresnel s=+1": bs.Scenario(rig_packet, ref_medium, glass, schedule=(0.0, 30.0, 140.0)),
        "fresnel s=-1": bs.Scenario(lefty, ref_medium, glass, schedule=(0.0, 20.0, 150.0, 170.0)),
        "omega at n=1": bs.Scenario(
            rig_packet, ref_medium, ref_medium, schedule=(0.0, 120.0, 140.0), omega=-0.6j
        ),
        "mixed": bs.Scenario(mixed, ref_medium, glass, schedule=(0.0, 30.0, 140.0)),
        "crossing": bs.Scenario(rig_packet, ref_medium, glass, schedule=(50.0, 70.0, 140.0)),
        "mixed crossing": bs.Scenario(mixed, ref_medium, glass, schedule=(55.0, 65.0, 140.0)),
    }


def test_rows_agree_with_the_per_time_map_and_field_route(rig_grid, rig_packet, ref_medium, glass):
    keys = (
        "norm", "centroid", "energy", "dyn_hamiltonian", "dyn_momentum",
        "field_momentum", "abraham_momentum",
    )
    for name, sc in _oracle_cases(rig_grid, rig_packet, ref_medium, glass).items():
        res = bs.run_scenario(sc)
        phases = {row.time: row.phase for row in res.rows}
        old = _old_route_rows(sc, phases)
        assert len(old) == len(res.rows), name
        # near-zero values are held to 1e-12 of the input's value of the same quantity
        ref = _field_route(sc.packet, {+1: sc.left_medium, -1: sc.right_medium}, sc.hbar)
        ref["centroid"] = 1.0
        for row, want in zip(res.rows, old):
            for key in keys:
                attr = "photon_number" if key == "norm" else key
                got = row.centroid if key == "centroid" else getattr(row.values, attr)
                if want[key] is None:
                    assert got is None, (name, row.time, row.branch, key)
                    continue
                bound = 1e-12 * max(abs(want[key]), abs(ref[key]))
                assert abs(got - want[key]) <= bound, (name, row.time, row.branch, key, got, want[key])


def test_one_map_and_one_chirp_per_incident_channel(monkeypatch, rig_grid, rig_packet, ref_medium, glass):
    """Also one support measurement per incident channel: incoming reports and
    branches transport the supports the map measured."""
    import blipsim.propagation as propagation
    import blipsim.scattering as scattering

    calls = {"map": 0, "chirp": 0, "support": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(propagation, "interface_scatter", counting("map", scattering.interface_scatter))
    monkeypatch.setattr(
        scattering, "sample_spectrum_scaled", counting("chirp", scattering.sample_spectrum_scaled)
    )
    for module in (scattering, propagation):
        monkeypatch.setattr(module, "_support_interval", counting("support", bs.lattice._support_interval))
    mixed = _mixed_packet(rig_grid)
    schedules = ((0.0,), (140.0,), (0.0, 30.0, 140.0), (50.0, 70.0, 100.0, 120.0, 140.0, 160.0))
    for packet, channels in ((rig_packet, 1), (mixed, 2)):
        for schedule in schedules:
            calls.update(map=0, chirp=0, support=0)
            bs.run_scenario(bs.Scenario(packet, ref_medium, glass, schedule=schedule))
            assert calls == {"map": 1, "chirp": channels, "support": channels}, (channels, schedule)


def test_the_input_is_transformed_once_per_incident_channel(monkeypatch, rig_grid, rig_packet, ref_medium, glass):
    """A point mirror (n = 1, so no chirp) makes one forward transform per
    incident channel: the map's own, which every incoming report and the
    input's observables reuse.  No report costs a transform: the inverse
    transforms (and, at n = 2, the chirps) do not grow with the schedule."""
    from blipsim import fields, spectral

    calls = []
    forward, inverse, chirp = spectral._forward, spectral._inverse, spectral._chirp_sum

    def counting(kind, transform):
        def wrapper(*args, **kwargs):
            calls.append(kind)
            return transform(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(spectral, "_forward", counting("forward", forward))
    for module in (spectral, fields):
        monkeypatch.setattr(module, "_inverse", counting("inverse", inverse))
    monkeypatch.setattr(spectral, "_chirp_sum", counting("chirp", chirp))
    mixed = _mixed_packet(rig_grid)
    schedules = ((0.0, 140.0), (0.0, 30.0, 100.0, 140.0, 160.0), (0.0, 30.0, 50.0, 70.0, 100.0, 120.0, 140.0, 160.0))
    for packet, channels in ((rig_packet, 1), (mixed, 2)):
        for right, omega in ((ref_medium, -0.6j), (glass, None)):
            counts = set()
            for schedule in schedules:
                calls.clear()
                sc = bs.Scenario(packet, ref_medium, right, schedule=schedule, omega=omega)
                bs.run_scenario(sc)
                assert calls.count("forward") == channels, (channels, schedule)
                if omega is not None:
                    assert "chirp" not in calls, (channels, schedule)
                counts.add(tuple(calls.count(kind) for kind in ("inverse", "chirp")))
            assert len(counts) == 1, (channels, omega, counts)


def test_reports_square_nothing(monkeypatch, ref_medium, glass):
    """Each packet squares each channel once, on first read, and every reader
    takes that density: the guard rule's slice sums for all reports, the
    norms, the map's drift check, the centroids and the expectation values.
    So the length-N ``np.abs`` calls do not grow with the schedule: the six
    channel densities of a run (input, ``incident``, the transmitted and
    reflected spectra and position branches; each ``total`` shares its
    branches' densities) and the grid's ``|k|`` make 7 calls, on the rig and
    for the point mirror.  Each run gets a fresh grid and packet, so no
    density an earlier run cached takes part."""
    n_points = 16384
    calls = []
    absolute = np.abs

    def counting_abs(a, *args, **kwargs):
        if np.size(a) == n_points:
            calls.append(1)
        return absolute(a, *args, **kwargs)

    schedules = ((0.0, 30.0, 140.0), (0.0, 30.0, *np.linspace(100.0, 160.0, 48).tolist()))
    for right, omega, limit in ((glass, None, 7), (ref_medium, -0.6j, 7)):
        counts = []
        for schedule in schedules:
            grid = bs.make_grid(-200.0, 200.0, n_points)
            packet = bs.gaussian_packet(grid, (+1, "H"), x0=-60.0, k0=30.0, sigma=2.0)
            calls.clear()
            with monkeypatch.context() as patch:
                patch.setattr(np, "abs", counting_abs)
                bs.run_scenario(bs.Scenario(packet, ref_medium, right, schedule=schedule, omega=omega))
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0, (omega, counts)
        assert counts[0] <= limit, (omega, counts)


def test_a_run_keeps_one_read_only_array_per_channel(rig_grid, rig_packet, ref_medium, glass):
    """Packets adopt the arrays the library builds and ``combine`` shares the
    arrays of disjoint channels and their densities, so the scenario's packet,
    ``incident``, the three spectra and the three position branches of a rig
    run, 10 channel arrays, hold at most 6 distinct N-point buffers, and their
    10 channel densities 6, all read-only."""
    result = bs.run_scenario(bs.Scenario(rig_packet, ref_medium, glass, schedule=(0.0, 30.0, 140.0)))
    out = result.outcome
    packets = [rig_packet, out.incident, *out.spectra.values(), out.transmitted, out.reflected, out.total]
    for arrays in ([a for p in packets for a in p.amp.values()], [d for p in packets for d in p.density.values()]):
        assert len(arrays) == 10 and not any(a.flags.writeable for a in arrays)
        distinct: list[np.ndarray] = []
        for a in arrays:
            if not any(np.shares_memory(a, b) for b in distinct):
                distinct.append(a)
        assert len(distinct) <= 6, len(distinct)


@pytest.mark.skipif(
    np.lib.NumpyVersion(np.__version__) < "2.0.0",
    reason="numpy 1.x has no FFT out= and copies an FFT's input; this bound was measured with numpy 2",
)
def test_a_run_peaks_under_160_bytes_per_point(ref_medium, glass):
    """The traced peak of a whole ``run_scenario`` on a fresh 2^16-point grid, above
    the input packet, stays at or under 160 bytes per point for the interface (n = 2)
    and the point mirror: 152 measured, where squaring each ``total`` channel again
    and an inverse transform's second array took it to 184."""
    for right, omega in ((glass, None), (ref_medium, -0.6j)):
        grid = bs.make_grid(-200.0, 200.0, 1 << 16)
        packet = bs.gaussian_packet(grid, (+1, "H"), x0=-60.0, k0=30.0, sigma=2.0)
        scenario = bs.Scenario(packet, ref_medium, right, schedule=(0.0, 30.0, 140.0), omega=omega)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            bs.run_scenario(scenario)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 160 * grid.n_points, (omega, peak / grid.n_points)


def test_no_complex_exp_per_report(monkeypatch, ref_medium, glass):
    grid = bs.make_grid(-200.0, 200.0, 16384)
    packet = bs.gaussian_packet(grid, (+1, "H"), x0=-60.0, k0=30.0, sigma=2.0)
    exps = []
    exp = np.exp

    def counting_exp(z, *args, **kwargs):
        if np.iscomplexobj(z) and np.size(z) == grid.n_points:
            exps.append(z)
        return exp(z, *args, **kwargs)

    monkeypatch.setattr(np, "exp", counting_exp)
    for schedule in ((0.0, 140.0), (0.0, 30.0, 100.0, 120.0, 140.0, 160.0)):
        bs.run_scenario(bs.Scenario(packet, ref_medium, glass, schedule=schedule))
        assert exps == [], schedule


def test_a_run_computes_no_n_point_cosines(monkeypatch, rig_grid, ref_medium, glass):
    """Every affine phase of a run (origin, free flight, the scaled samples'
    prefactor) comes from tables of about sqrt(N) cosines and sines, and the
    map's chirp builds its pre-chirp, kernel and post-chirp on its windows
    only, so a run computes no N-point ``_cis`` at all: at n = 2 no table
    reaches N/4 (the rig packet's input window is 2,241 of 16,384 points),
    and the point mirror builds none past 256."""
    import blipsim.lattice as lattice
    import blipsim.spectral as spectral

    sizes = []
    cis = lattice._cis

    def counting_cis(theta):
        sizes.append(np.size(theta))
        return cis(theta)

    for module in (lattice, spectral):
        monkeypatch.setattr(module, "_cis", counting_cis)
    mixed = _mixed_packet(rig_grid)
    for packet, channels in ((mixed, 2), (bs.gaussian_packet(rig_grid, (+1, "H"), -60.0, 30.0, 2.0), 1)):
        for right, omega, largest in ((glass, None, rig_grid.n_points // 4 - 1), (ref_medium, -0.6j, 256)):
            sizes.clear()
            bs.run_scenario(bs.Scenario(packet, ref_medium, right, schedule=(0.0, 30.0, 140.0), omega=omega))
            assert sizes and max(sizes) <= largest, (channels, omega, sizes)
            if omega is None:  # each incident channel's pre-chirp and kernel
                assert sum(size > 256 for size in sizes) >= 2 * channels, (channels, sizes)


# ---------------------------------------------------------------------------
# the paper's momentum results across the domain

#: Every property run takes a grid over [-160, 160) with 2^11 to 2^14 cells,
#: so k_max runs from 20.1 to 160.8.
PROPERTY_GRIDS = {log_n: bs.make_grid(-160.0, 160.0, 1 << log_n) for log_n in range(11, 15)}
#: A Gaussian spectrum of width w leaves at most ``FIXTURE_TAIL_TOL`` beyond
#: ``CLEAR * w`` from its centre; the 2^-40 margin keeps ``_gauss_tail``'s
#: rounding on the inside of the k = 0 guard.
CLEAR = TAIL_SIGMAS * (1.0 + 2.0**-40)


@settings(max_examples=50, deadline=None, database=None)
@given(
    log_n=st.integers(11, 14),
    n=st.floats(1.0, 4.0, exclude_min=True),
    direction=st.sampled_from((+1, -1)),
    pol=st.sampled_from(("H", "V")),
    sign=st.sampled_from((+1.0, -1.0)),
    v=st.floats(0.0, 1.0),
    sigma=st.floats(1.0, 2.0),
    u=st.floats(0.0, 1.0),
)
@example(log_n=11, n=2.0, direction=+1, pol="H", sign=+1.0, v=0.0, sigma=2.0, u=0.0)
@example(log_n=11, n=2.0, direction=+1, pol="H", sign=-1.0, v=1.0, sigma=2.0, u=1.0)
def test_momentum_results_hold_across_the_domain(log_n, n, direction, pol, sign, v, sigma, u):
    """Energy, unitarity, the momentum ratio (3n - 1)/(n + 1) into the
    medium or (3 - n)/(n + 1) out of it, and the transmitted scaling n or
    1/n, for a packet that starts at distance d from x = 0 and is reported
    at twice its arrival time.  |k0| runs from the run command's k = 0 guard
    to where the input's spectrum, or the transmitted one (n k0 of width
    n sigma_k into the medium), keeps its fixture tail inside the band.  d
    keeps 8 sigma between the packet and the scatterer at both ends, and
    every branch 7.5 sigma (scaled by its medium) inside the grid."""
    grid = PROPERTY_GRIDS[log_n]
    sigma_k = 0.5 / sigma
    k_lo = CLEAR * sigma_k
    k_hi = grid.k_max / (n if direction > 0 else 1.0) - CLEAR * sigma_k
    assume(k_lo <= k_hi)
    k0 = sign * (k_lo + v * (k_hi - k_lo))
    assert _gauss_tail(abs(k0), sigma_k) <= FIXTURE_TAIL_TOL
    ref, medium = bs.Medium.reference(), bs.Medium.from_index(n)
    c_in = ref.c if direction > 0 else medium.c
    # the left-mover's transmitted branch ends at -n d with width n sigma
    d_max = 40.0 if direction > 0 else 160.0 / n - 7.5 * sigma - 0.5
    d = 8.0 * sigma + 1.0 + u * (d_max - 8.0 * sigma - 1.0)
    packet = bs.gaussian_packet(grid, (direction, pol), -direction * d, k0, sigma)
    result = bs.run_scenario(bs.Scenario(packet, ref, medium, schedule=(0.0, 2.0 * d / c_in)))
    outcome, blocks = result.outcome, result.blocks
    assert outcome.asymptotic and not any(r.phase == "crossing" for r in (*result.rows, *blocks.values()))
    assert abs(outcome.prob_t + outcome.prob_r - 1.0) <= 1e-9
    p_in = blocks["input"].values.dyn_momentum
    assert abs(blocks["total"].values.energy / blocks["input"].values.energy - 1.0) <= 1e-9
    closed = (3.0 * n - 1.0) / (n + 1.0) if direction > 0 else (3.0 - n) / (n + 1.0)
    assert blocks["total"].values.dyn_momentum / p_in == pytest.approx(closed, rel=1e-6, abs=1e-12)
    conditional = bs.conditional_expectations(outcome, "transmitted").dyn_momentum / p_in
    assert conditional == pytest.approx(n if direction > 0 else 1.0 / n, rel=1e-6)


# ---------------------------------------------------------------------------
# the whole run against a route with no FFT

#: Half-width of a packet's support in the dense-oracle property, in sigmas: past the
#: 7.03 sigma that ``SUPPORT_QUANTILE`` leaves on each side, and past the band's 1e-12 tail.
DENSE_HALF_WIDTH = 7.3


def _dense_case(log_n, direction, n, coupling, size, carrier, where, when, middle):
    """A scenario that ``run_scenario`` accepts by construction, or ``None`` where the lattice is too
    small for it: a Gaussian of at least 1.3 cells' sigma (more where the transmitted spectrum widens),
    clear of the scatterer and inside the band at ``t = 0``, whose transmitted branch, stretched by
    ``1/n`` or ``n``, stays inside the band, and whose branches stay on the grid at both later
    reports; ``t_final`` falls before, at or after the crossing.  Also the scales of its quantities."""
    cells = 1 << log_n
    ref, medium = bs.Medium.reference(), bs.Medium.from_index(n)
    c_in, c_out = (ref.c, medium.c) if direction > 0 else (medium.c, ref.c)
    stretch = c_out / c_in  # the transmitted branch's width over the input's
    lowest = 1.3 * max(1.0, 1.0 / stretch)  # sigma in cells whose transmitted spectrum fits the band
    highest = (cells - 11) / (6.6 + DENSE_HALF_WIDTH * (1.0 + max(1.0, stretch)))
    if lowest > highest:
        return None
    dx = 0.37
    sigma = (lowest + size * (highest - lowest)) * dx
    sigma_k = 0.5 / sigma
    k0 = carrier * (math.pi / dx / max(1.0, 1.0 / stretch) - DENSE_HALF_WIDTH * sigma_k)
    w = DENSE_HALF_WIDTH * sigma
    d = 6.6 * sigma + 5 * dx + where * (cells * dx - 11 * dx - 6.6 * sigma - w * (1.0 + max(1.0, stretch))) / 2
    arrival = d / c_in

    def extent(tau):  # the input's support and both branches' at the middle report and at t_final = arrival + tau
        ends = [-direction * d - w, -direction * d + w]
        for t in (middle * (arrival + tau) - arrival, tau):
            ends += [direction * c_out * t + sign * w * stretch for sign in (-1, 1)]
            ends += [-direction * c_in * t + sign * w for sign in (-1, 1)]
        return min(ends), max(ends)

    fits = [tau for tau in np.linspace(-arrival, 4.0 * arrival, 401) if np.ptp(extent(tau)) <= (cells - 6) * dx]
    if not fits:
        return None
    tau = fits[int(when * (len(fits) - 1))]
    lo, hi = extent(tau)
    x_min = lo - 2 * dx - ((cells - 6) * dx - (hi - lo)) / 2
    grid = bs.make_grid(x_min, x_min + cells * dx, cells)
    x0 = -direction * d
    values = np.exp(-((grid.x - x0) ** 2) / (4 * sigma**2) + 1j * direction * k0 * grid.x)
    values /= math.sqrt(float(np.sum(np.abs(values) ** 2)) * grid.dx)
    t_final = arrival + tau
    schedule = sorted({0.0, middle * t_final, t_final})
    q, angle = coupling or (0.0, 0.0)
    omega = None if coupling is None else 2 * q * ref.c * complex(math.cos(angle), math.sin(angle))
    packet = bs.BlipWavePacket(grid, {(direction, "H"): values})
    c_max = max(c_in, c_out)
    scale = {"energy": c_max * max(1.0, 1.0 / stretch) * (abs(k0) + 8 * sigma_k), "travel": d + c_max * t_final}
    return bs.Scenario(packet, ref, medium, schedule=tuple(schedule), omega=omega), scale


@settings(max_examples=14, deadline=None, database=None)
@given(
    log_n=st.integers(6, 9),
    direction=st.sampled_from((+1, -1)),
    n=st.floats(0.3, 4.0, exclude_min=True, exclude_max=True),
    coupling=st.none() | st.tuples(st.floats(0.0, 0.95), st.floats(0.0, 2 * math.pi)),
    size=st.floats(0.0, 1.0),
    carrier=st.floats(-1.0, 1.0),
    where=st.floats(0.0, 1.0),
    when=st.floats(0.0, 1.0),
    middle=st.floats(0.0, 1.0),
)
@example(log_n=6, direction=+1, n=1.7, coupling=None, size=0.5, carrier=0.3, where=0.2, when=0.5, middle=0.5)
@example(log_n=9, direction=-1, n=3.9, coupling=(0.9, 1.0), size=0.0, carrier=1.0, where=1.0, when=1.0, middle=0.9)
# the reflected branch carries about 1e-318 of the weight, below the centroid floor: neither route reports its centroid
@example(log_n=6, direction=+1, n=1.7, coupling=(3.5e-160, 4.7), size=0.5, carrier=0.3, where=0.2, when=1.0, middle=0.5)
# the reflected photon number is a few subnormal steps above 0 on one route and 0 on the other
@example(log_n=6, direction=+1, n=1.7, coupling=(1.2e-162, 4.7), size=0.5, carrier=0.3, where=0.2, when=1.0, middle=0.5)
def test_a_run_matches_the_dense_oracle(log_n, direction, n, coupling, size, carrier, where, when, middle):
    """``run_scenario`` against :func:`oracles.dense_scenario` on 64 to 512 points, both directions,
    n in (0.3, 4), the Fresnel table or an explicit coupling inside the Born radius, and a final time
    before, at or after the crossing: every row, block and outcome number within 1e-12 of its
    quantity's scale.  That scale is the input weight for the photon numbers and probabilities,
    ``c |k| w`` of the largest speed, band and weight for energies and momenta, and the travel
    distance for centroids: the run extrapolates each row's centroid from the final time, so its
    rounding is that of a centroid up to the whole travel away.  The edge rule leaves up to
    ``SUPPORT_QUANTILE`` of a channel's weight past each end of its support, where the periodic
    lattice rings it across the grid, so a dense centroid may also move by that weight times the
    grid's length (1.0e-11 of 23.7 seen).  A branch of at most ``propagation.CENTROID_FLOOR`` of
    the input's photon number (a coupling near 1e-160 reflects about 1e-318 of the weight) has no
    centroid on either route, so neither decides it from a photon number that rounds as a
    subnormal.  Phases and the verdict agree."""
    case = _dense_case(log_n, direction, n, coupling, size, carrier, where, when, middle)
    assume(case is not None)
    sc, scale = case
    result, want = bs.run_scenario(sc), oracles.dense_scenario(sc)
    bound, grid = 1e-12, sc.packet.grid

    def check(row, expected, where):
        time, branch, phase, centroid, values = expected
        assert (row.time, row.phase) == (time, phase), (where, row.time, row.phase, time, phase)
        if centroid is None:
            assert row.centroid is None, where
        else:
            limit = bound * scale["travel"] + 2 * SUPPORT_QUANTILE * (grid.x_max - grid.x_min)
            assert abs(row.centroid - centroid) <= limit, (where, row.centroid, centroid)
        for name, value in values.items():
            unit = 1.0 if name == "photon_number" else scale["energy"]
            got = getattr(row.values, name)
            assert abs(got - value) <= bound * unit, (where, name, got, value)

    assert [(row.time, row.branch) for row in result.rows] == [(r[0], r[1]) for r in want["rows"]]
    for row, expected in zip(result.rows, want["rows"]):
        check(row, expected, ("row", row.time, row.branch))
    assert result.blocks.keys() == want["blocks"].keys()
    for name, block in result.blocks.items():
        check(block, (want["blocks"][name][0], name, *want["blocks"][name][1:]), ("block", name))
    out = result.outcome
    assert out.asymptotic == want["asymptotic"]
    for name in ("prob_t", "prob_r", "resampling_drift"):
        assert abs(getattr(out, name) - want[name]) <= bound, (name, getattr(out, name), want[name])
    guard = (result.guard_fraction, want["guard_fraction"])
    assert abs(guard[0] - guard[1]) <= bound, guard
