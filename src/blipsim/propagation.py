"""Free transport and event-driven scenario execution.

Free evolution is diagonal in the momentum representation: every channel
picks up ``exp(-i c_m k t)``, which translates the envelope by ``s c_m t``
without deformation.  Norm, energy, and momenta are exactly conserved.

A scenario is one packet launched toward the scatterer at ``x = 0``
(reference medium on the left, the other medium on the right) with a list
of report times.  The boundary map is asymptotic and transport is
dispersionless, so a scenario maps once, at its final time, and every
report moves a state it already has by ``s c t``: the input at ``t = 0``
while the report is ``incoming``, the final branches after.  A report
checks the moved supports against the grid edges
(:func:`blipsim.lattice._check_inside`), moves the centroid by the
channels' weighted mean of ``s c t``, and reads the guard rule
(:func:`blipsim.scattering._guard_fractions`) with the band moved the other
way, as the ``incoming`` test does: one tail sum per report of the density
each packet squares once, on first read, for the whole schedule.  No report
makes a transform or an N-point array.  Every other
quadratic observable is time independent, so the input and each branch
get one :class:`~blipsim.observables.ObservableReport`, which all their
rows share.  A report is ``incoming`` while the input passes the map's
in-state guard, so the map refuses a packet that is not incoming at
``t = 0``; it is then ``crossing`` while a branch still straddles the
scatterer (flagged, not interpolated) and ``scattered`` once every branch
is clear.  A row's phase is the only record of whether it is asymptotic,
so the crossing times are read from it; the drift lives on the outcome.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

from .errors import ConfigurationError
from .lattice import CENTROID_FLOOR, BlipWavePacket, Medium, _check_inside, _is_positive_real, _support_interval, _weighed
from .observables import ObservableReport, spectral_expectations
from .scattering import (
    GUARD_TOL,
    MirrorCoupling,
    ScatterOutcome,
    ScatterRates,
    _branch_guards,
    _guard_fractions,
    interface_scatter,
    rates_from_omega,
)
from .spectral import SpectralWavePacket, to_momentum, to_position

__all__ = [
    "evolve_free",
    "Scenario",
    "ScenarioRow",
    "ScenarioResult",
    "run_scenario",
]


def evolve_free(p: BlipWavePacket, m: Medium, t: float) -> BlipWavePacket:
    """Free flight for time ``t`` inside medium ``m`` (any sign of ``t``).

    Raises :class:`DomainExitError` if the translated support would leave
    the grid (the discrete transform would wrap it around periodically).
    """
    t = float(t)
    media = {+1: m, -1: m}
    _check_inside(p.grid, {ch: _support_interval(p, ch) for ch in p.amp}, media, t, "the packet")
    return p if t == 0.0 else to_position(to_momentum(p), media, t)


#: Most report times in a schedule.  At N = 2048 each costs about 0.09 ms, 3.3 KiB of peak RSS and
#: 400 B of CSV series (fresh processes, 2-vCPU guest, Python 3.11, numpy 2.4: 10,000 times ran in
#: 1.1 s at 64 MiB, 20,000 in 2.0 s at 97 MiB); the per-report cost grows with N.
MAX_REPORT_TIMES = 10_000


@dataclass(frozen=True)
class Scenario:
    """One packet, two media meeting at ``x = 0``, and a report schedule.

    ``omega = None`` couples the media through the normal-incidence
    amplitude table for their speed ratio; an explicit ``omega`` uses the
    resummed point-scatterer rates instead (quoted at the left medium's
    speed), resolved on construction into ``rates`` (not an ``__init__``
    argument): a bad ``omega`` raises :class:`DomainError` or :class:`DivergenceError`.
    """

    packet: BlipWavePacket
    left_medium: Medium
    right_medium: Medium
    schedule: tuple[float, ...]
    omega: complex | None = None
    hbar: float = 1.0
    rates: ScatterRates | None = field(init=False, default=None)

    def __post_init__(self) -> None:
        object.__setattr__(self, "schedule", tuple(float(t) for t in self.schedule))
        if not self.schedule:
            raise ConfigurationError("schedule must contain at least one report time")
        if len(self.schedule) > MAX_REPORT_TIMES:
            raise ConfigurationError(f"schedule must hold at most {MAX_REPORT_TIMES} report times, got {len(self.schedule)}")
        if not all(math.isfinite(t) and t >= 0.0 for t in self.schedule):
            raise ConfigurationError("schedule times must be finite and nonnegative")
        for a, b in zip(self.schedule, self.schedule[1:]):
            if not b > a:
                raise ConfigurationError("schedule times must be strictly increasing")
        if not _is_positive_real(self.hbar):
            raise ConfigurationError(f"hbar must be positive and finite, got {self.hbar!r}")
        if self.omega is not None:
            object.__setattr__(self, "omega", complex(self.omega))
            object.__setattr__(self, "rates", rates_from_omega(MirrorCoupling(self.omega, self.left_medium.c)))

    @property
    def n(self) -> float:
        """Speed ratio ``c_left / c_right`` seen by a left-incident packet."""
        return self.left_medium.c / self.right_medium.c


@dataclass(frozen=True)
class ScenarioRow:
    """One branch at one report time: its centroid and its expectation record."""

    time: float
    branch: str
    phase: str
    centroid: float | None
    values: ObservableReport

    @property
    def asymptotic(self) -> bool:
        """Read from ``phase``: only a ``crossing`` row is not asymptotic."""
        return self.phase != "crossing"


@dataclass(frozen=True)
class ScenarioResult:
    """A run's facts, each held once: ``rows`` per report time, the ``outcome``
    of the one map at the final time (it holds the run's ``resampling_drift``),
    the ``blocks`` (the ``input`` at ``t = 0``; the final ``transmitted``,
    ``reflected`` and ``total``) and ``guard_fraction``, the largest branch
    guard fraction over every report and the final time.  The crossing times
    are the times of the rows and blocks whose phase is ``crossing``."""

    rows: tuple[ScenarioRow, ...]
    outcome: ScatterOutcome
    blocks: Mapping[str, ScenarioRow]
    guard_fraction: float


def _measure(
    state: BlipWavePacket, sp: SpectralWavePacket, media: Mapping[int, Medium], hbar: float, floor: float
) -> tuple[ObservableReport, float | None, float]:
    """The record of ``state`` (``sp`` its spectrum), its centroid and the
    speed ``sum_ch w_ch s c / W`` at which free flight moves that centroid
    (``w_ch`` a channel's weight, ``W`` the state's, both read by
    :func:`blipsim.lattice._weighed`); no centroid at ``floor`` photons or fewer."""
    values = spectral_expectations(sp, media, hbar)
    if not values.photon_number > floor:
        return values, None, 0.0
    weights, x = _weighed(state)
    return values, x, sum(w * ch.s * media[ch.s].c for ch, w in weights.items()) / sum(weights.values())


def _rows(t: float, phase: str, measured: Mapping[str, tuple], dt: float) -> list[ScenarioRow]:
    """One row per measured state at time ``t``, ``dt`` after the state's own time."""
    return [
        ScenarioRow(t, name, phase, None if x is None else x + v * dt, values)
        for name, (values, x, v) in measured.items()
    ]


def run_scenario(sc: Scenario) -> ScenarioResult:
    """Execute the schedule: free flight, scattering event, free flight.

    Returns per-branch rows for every report time, the outcome of the one
    map at the final time, the blocks and the guard fraction (see
    :class:`ScenarioResult`).  Rows are phase-labelled
    ``incoming``, ``crossing`` (the map's extrapolation while a branch still
    straddles the scatterer; flagged, not an error) or ``scattered``.
    """
    incoming_media = {+1: sc.left_medium, -1: sc.right_medium}
    t_final = sc.schedule[-1]
    outcome = interface_scatter(sc.packet, sc.left_medium, sc.right_medium, t_final, rates=sc.rates)
    # each outgoing channel carries a single phase, so the total's
    # observables follow from the per-channel sum of the t = 0 spectra
    floor = CENTROID_FLOOR * outcome.incident_weight
    incoming = {"incoming": _measure(sc.packet, outcome.incident, incoming_media, sc.hbar, floor)}
    branches = {
        name: _measure(getattr(outcome, name), sp, outcome.outgoing, sc.hbar, floor)
        for name, sp in outcome.spectra.items()
    }

    reads = _guard_fractions(sc.packet, incoming_media, -1, list(sc.schedule))
    later = [t for t, read in zip(sc.schedule, reads) if any(f > GUARD_TOL for f in read.values())]
    finals, dts = (outcome.transmitted, outcome.reflected), [t_final - t for t in later]
    guards = dict(zip(later, _branch_guards(finals, outcome.outgoing, outcome.incident_weight, dts)))
    rows: list[ScenarioRow] = []
    for t in sc.schedule:
        if t not in guards:
            _check_inside(sc.packet.grid, outcome.incident_supports, incoming_media, t, "the incoming packet")
            rows += _rows(t, "incoming", incoming, t)
            continue
        for name in ("transmitted", "reflected"):
            _check_inside(sc.packet.grid, outcome.supports[name], outcome.outgoing, t, f"the {name} branch")
        rows += _rows(t, "scattered" if guards[t] <= GUARD_TOL else "crossing", branches, t - t_final)
    final = _rows(t_final, "scattered" if outcome.asymptotic else "crossing", branches, 0.0)
    blocks = {"input": _rows(0.0, "incoming", incoming, 0.0)[0], **{row.branch: row for row in final}}
    return ScenarioResult(tuple(rows), outcome, blocks, max([outcome.guard_fraction, *guards.values()]))
