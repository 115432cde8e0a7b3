"""Free transport and event-driven scenario execution.

Free evolution is diagonal in the momentum representation: every channel
picks up ``exp(-i c_m k t)``, which translates the envelope by ``s c_m t``
without deformation.  Norm, energy, and momenta are exactly conserved.

A scenario is one packet launched toward the scatterer at ``x = 0``
(reference medium on the left, the other medium on the right) with a list
of report times.  The boundary map is asymptotic and transport is
dispersionless, so a scenario scatters once and evolves by phase.  The
input is transformed once and its supports are measured once, both by the
map; an incoming report moves those supports through the edge rule of
:func:`blipsim.lattice._check_inside`, then makes one phase multiply and
one inverse transform.  The map is applied once, at the first report time
past the crossing, and every later report re-phases its out-spectra (see
:meth:`blipsim.scattering.ScatterOutcome.at`).  Every quadratic
observable except the centroid is time independent, so the input and each
branch get one :class:`~blipsim.observables.ObservableReport`, which all
their rows share as ``values``; a row adds only its centroid.  A report is
``incoming`` while the in-state advanced to its time passes the map's own
in-state guard (:func:`blipsim.scattering._stray_weight`), so the map
refuses any packet that is not incoming at ``t = 0``.  Reports that fall
while a branch still straddles the scatterer are flagged ``crossing``
rather than interpolated; a row's phase is the only record of whether it
is asymptotic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

from .errors import ConfigurationError
from .lattice import BlipWavePacket, Medium, _check_inside, _is_positive_real, _support_interval, centroid
from .observables import ObservableReport, spectral_expectations
from .scattering import (
    GUARD_TOL,
    MirrorCoupling,
    ScatterOutcome,
    ScatterRates,
    _stray_weight,
    interface_scatter,
    rates_from_omega,
)
from .spectral import _advance_spectrum, to_momentum, to_position

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
    return p if t == 0.0 else to_position(_advance_spectrum(to_momentum(p), media, t))


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
        for a, b in zip(self.schedule, self.schedule[1:]):
            if not b > a:
                raise ConfigurationError("schedule times must be strictly increasing")
        if not all(math.isfinite(t) and t >= 0.0 for t in self.schedule):
            raise ConfigurationError("schedule times must be finite and nonnegative")
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
    """Rows per report time, the final outcome, and the ``blocks``: the
    ``input`` at ``t = 0`` and the ``transmitted``, ``reflected`` and
    ``total`` branches at the final time."""

    scenario: Scenario
    rows: tuple[ScenarioRow, ...]
    outcome: ScatterOutcome
    diagnostics: dict = field(default_factory=dict)
    blocks: Mapping[str, ScenarioRow] = field(default_factory=dict)


def _row(time: float, branch: str, phase: str, values: ObservableReport, packet: BlipWavePacket) -> ScenarioRow:
    """A shared expectation record plus the centroid of ``packet``, the state at ``time``."""
    return ScenarioRow(time, branch, phase, centroid(packet) if values.photon_number > 0.0 else None, values)


def _branch_rows(outcome: ScatterOutcome, values: Mapping[str, ObservableReport]) -> list[ScenarioRow]:
    """The transmitted, reflected and total rows of ``outcome`` at its time."""
    phase = "scattered" if outcome.asymptotic else "crossing"
    return [
        _row(outcome.t_final, branch, phase, values[branch], getattr(outcome, branch))
        for branch in ("transmitted", "reflected", "total")
    ]


def _still_incoming(sc: Scenario, t: float) -> bool:
    """True while every channel at time ``t`` passes the map's in-state guard."""
    media = {+1: sc.left_medium, -1: sc.right_medium}
    # the guard band moves to -s c t in the frame of the unadvanced packet
    guards = (_stray_weight(sc.packet, ch, -ch.s, -ch.s * media[ch.s].c * t) for ch in sc.packet.amp)
    return all(stray <= GUARD_TOL * weight for stray, weight in guards)


def run_scenario(sc: Scenario) -> ScenarioResult:
    """Execute the schedule: free flight, scattering event, free flight.

    Returns per-branch rows for every report time plus the outcome at the
    final time.  Rows are phase-labelled ``incoming`` (packet still on its
    way in), ``scattered`` (all branches clear), or ``crossing`` (the map's
    extrapolation while a branch still straddles the scatterer; flagged,
    not an error).  The boundary map runs exactly once; if no report time
    is past the crossing it is applied at the final time.
    """
    incoming_media = {+1: sc.left_medium, -1: sc.right_medium}
    outgoing_media = {+1: sc.right_medium, -1: sc.left_medium}
    # a suffix of the schedule: the incoming test can only turn false as t grows
    scattered = [t for t in sc.schedule if not _still_incoming(sc, t)]
    outcome = interface_scatter(
        sc.packet,
        sc.n,
        scattered[0] if scattered else sc.schedule[-1],
        rates=sc.rates,
        left=sc.left_medium,
        right=sc.right_medium,
        allow_partial=True,
    )
    # each outgoing channel carries a single phase, so the total's
    # observables follow from the per-channel sum of the t = 0 spectra
    sp_in = outcome.incident
    input_values = spectral_expectations(sp_in, incoming_media, sc.hbar)
    values = {
        branch: spectral_expectations(sp, outgoing_media, sc.hbar) for branch, sp in outcome.spectra.items()
    }

    rows: list[ScenarioRow] = []
    max_guard = 0.0
    for t in sc.schedule:
        if t not in scattered:
            _check_inside(sc.packet.grid, outcome.incident_supports, incoming_media, t, "the incoming packet")
            state = to_position(_advance_spectrum(sp_in, incoming_media, t)) if t else sc.packet
            rows.append(_row(t, "incoming", "incoming", input_values, state))
            continue
        if t != outcome.t_final:
            # every outcome re-phases the same event; replacing the last one
            # keeps a single outcome (with its total) alive
            outcome = outcome.at(t, allow_partial=True)
        max_guard = max(max_guard, outcome.guard_fraction)
        rows.extend(_branch_rows(outcome, values))
    # the schedule ends past the crossing whenever any report is, so the
    # last three rows are then the final branches
    final = rows[-3:] if scattered else _branch_rows(outcome, values)
    input_row = _row(0.0, "incoming", "incoming", input_values, sc.packet)
    blocks = {"input": input_row, **{row.branch: row for row in final}}
    diagnostics = {
        "resampling_drift": outcome.resampling_drift,
        "guard_fraction": max(max_guard, outcome.guard_fraction),
        "non_asymptotic_times": tuple(dict.fromkeys(row.time for row in (*rows, *final) if not row.asymptotic)),
    }
    return ScenarioResult(
        scenario=sc, rows=tuple(rows), outcome=outcome, diagnostics=diagnostics, blocks=blocks
    )
