"""Scattering at a point mirror and at a dielectric half-space boundary.

A point scatterer at ``x = 0`` with coupling strength ``Omega`` has the
resummed (all-orders Born series) amplitudes

    q   = |Omega| / (2 c)
    t_s = (1 - q^2) / (1 + q^2)
    r_+ = (-i Omega   / c) / (1 + q^2)
    r_- = (-i Omega^* / c) / (1 + q^2)  =  -conj(r_+)

which satisfy the Stokes relations ``|r_s|^2 + |t_s|^2 = 1`` and
``r_-^* t_+ + t_-^* r_+ = 0`` identically.  The series converges only for
``q < 1``; the partial sums are exposed so the divergence beyond that
radius can be observed directly.

A boundary between media with speed ratio ``n = c_left / c_right``
reproduces the normal-incidence amplitude table

    r_- = (n - 1)/(n + 1)    r_+ = -(n - 1)/(n + 1)    t_s = 2 sqrt(n)/(n + 1)

via the purely imaginary coupling ``Omega(n) = -2 i c_left (sqrt(n) - 1)/(sqrt(n) + 1)``.

One map, :func:`interface_scatter`, covers both; the point mirror is its
case with one medium on both sides and explicit rates.  The map is
asymptotic: it takes an in-packet whose channels approach ``x = 0``
(direction ``+1`` from the left, ``-1`` from the right), builds the
event's ``t = 0`` state (each out-branch's momentum amplitudes, their sum
and each branch channel's support) and, at ``t_final``, moves the supports
by ``s c t`` through the edge rule of :func:`blipsim.lattice._check_inside`,
re-phases the amplitudes by ``exp(-i c k t)`` into the position branches
and reads their guard; it builds the outcome once, from both.  Each branch
spectrum is one packet; ``combine`` sums only the two totals.  Each branch
channel is built on windows: exact zeros outside the bins its incident
spectrum fills and, in position, outside the points that image reaches at
``t_final``, the channel's span, on which every reader sums.  One guard
rule, :func:`_guard_fractions`, decides the map's in-state check, the
``incoming`` label of :mod:`blipsim.propagation` and each branch's
``guard_fraction``: one tail sum of the packet's cached density per
time, read with the band moved by ``s c t`` between times.
The map takes the two media and nothing that restates them: every factor reads
their ratio ``n = c_left / c_right``.  Transmission rescales wavenumbers by it,
``psi~(k) -> psi~(k/n)`` going in and ``psi~(n k)`` coming out, with ``1/sqrt(n)``
amplitude factors and the sign of ``k`` kept, on the band-limited interpolant
(:mod:`blipsim.spectral`); its norm drift is measured and bounded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .errors import DivergenceError, DomainError, InterpolationAccuracyError, SupportGuardError
from .lattice import (
    BlipWavePacket,
    Channel,
    Grid,
    Medium,
    _check_inside,
    _framed,
    _positive,
    _spanned,
    _support_interval,
    combine,
    norm,
)
from .spectral import (
    SpectralWavePacket,
    _position_on,
    sample_spectrum_scaled,
    spectral_norm,
    to_momentum,
)

__all__ = [
    "ScatterRates",
    "MirrorCoupling",
    "ScatterOutcome",
    "rates_from_omega",
    "stokes_residuals",
    "dyson_partial_sums",
    "dyson_remainder_bound",
    "fresnel_rates",
    "omega_from_n",
    "interface_scatter",
]

#: Half-width of the guard band around x = 0, in grid cells.
GUARD_HALF_CELLS = 4
#: Largest tolerated fraction of channel weight inside the band plus beyond it on the wrong side.
GUARD_TOL = 1e-10
#: Largest tolerated relative norm drift introduced by wavenumber rescaling.
RESAMPLE_DRIFT_TOL = 1e-8
#: Channel weights below this fraction of the input are not guard-checked.
NEGLIGIBLE_WEIGHT = 1e-14


@dataclass(frozen=True)
class ScatterRates:
    """Transmission/reflection amplitudes per incidence direction."""

    t_minus: complex
    t_plus: complex
    r_minus: complex
    r_plus: complex

    def t(self, s: int) -> complex:
        return self.t_plus if s > 0 else self.t_minus

    def r(self, s: int) -> complex:
        return self.r_plus if s > 0 else self.r_minus


@dataclass(frozen=True)
class MirrorCoupling:
    """Point-scatterer coupling ``Omega`` and the reference speed it is quoted at.

    Couplings with ``|Omega| >= 2 c_ref`` are constructible on purpose: the
    partial sums must be able to demonstrate the divergence of the Born
    series there.  The closed-form rates refuse them.
    """

    omega: complex
    c_ref: float = 1.0

    def __post_init__(self) -> None:
        _positive(self.c_ref, "c_ref")
        w = complex(self.omega)
        if not (math.isfinite(w.real) and math.isfinite(w.imag)):
            raise DomainError(f"omega must be finite, got {self.omega!r}")
        object.__setattr__(self, "omega", w)

    @property
    def q(self) -> float:
        """Series expansion parameter ``|Omega| / (2 c_ref)``."""
        return abs(self.omega) / (2.0 * self.c_ref)

    @property
    def is_resummable(self) -> bool:
        return self.q < 1.0


def rates_from_omega(mc: MirrorCoupling) -> ScatterRates:
    """Resummed amplitudes of the point scatterer; requires ``q < 1``."""
    if not mc.is_resummable:
        raise DivergenceError(
            f"|Omega|/(2 c) = {mc.q} >= 1: the Born series does not converge"
        )
    q = mc.q
    denom = 1.0 + q * q
    t = complex((1.0 - q * q) / denom)
    r_plus = (-1j * mc.omega / mc.c_ref) / denom
    return ScatterRates(t_minus=t, t_plus=t, r_minus=-r_plus.conjugate(), r_plus=r_plus)


def stokes_residuals(rates: ScatterRates) -> tuple[float, float, float]:
    """Deviations from the Stokes identities (all zero for physical rates).

    Returns ``(|r_-^* t_+ + t_-^* r_+|, |1 - |r_-|^2 - |t_-|^2|,
    |1 - |r_+|^2 - |t_+|^2|)``.
    """
    cross = abs(rates.r_minus.conjugate() * rates.t_plus + rates.t_minus.conjugate() * rates.r_plus)
    d_minus = abs(1.0 - abs(rates.r_minus) ** 2 - abs(rates.t_minus) ** 2)
    d_plus = abs(1.0 - abs(rates.r_plus) ** 2 - abs(rates.t_plus) ** 2)
    return (cross, d_minus, d_plus)


def _integer(v: object, what: str, minimum: int) -> int:
    """``v`` as an ``int`` at least ``minimum``; a bool or non-integer raises :class:`DomainError`."""
    if not (isinstance(v, (int, np.integer)) and not isinstance(v, bool) and v >= minimum):
        raise DomainError(f"{what} must be an integer >= {minimum}, got {v!r}")
    return int(v)


def dyson_partial_sums(mc: MirrorCoupling, n_terms: int) -> list[tuple[complex, complex]]:
    """Partial sums ``(t_N, r_N)`` of the Born series for ``N = 0 .. n_terms-1``.

    ``t_N = 1 + 2 sum_{m=1..N} (-q^2)^m`` and ``r_N = (-i Omega/c) sum_{m=0..N}
    (-q^2)^m`` (the ``s = +1`` reflection row).  ``N = 0`` is free propagation
    plus the single-bounce reflection.  Valid for any coupling; for
    ``q >= 1`` the sums visibly fail to settle.
    """
    n_terms = _integer(n_terms, "n_terms", 1)
    q2 = mc.q * mc.q
    r0 = -1j * mc.omega / mc.c_ref
    out: list[tuple[complex, complex]] = []
    t_acc = 1.0 + 0.0j
    geom_term = 1.0
    geom_acc = 1.0
    for order in range(n_terms):
        if order > 0:
            geom_term *= -q2
            t_acc += 2.0 * geom_term
            geom_acc += geom_term
        out.append((complex(t_acc), complex(r0 * geom_acc)))
    return out


#: Additive allowance when comparing float partial sums against
#: :func:`dyson_remainder_bound`: once the analytic tail drops below the
#: accumulation roundoff (~20 ulps of the O(1) sums), the measured remainder
#: saturates at the rounding floor instead of following the bound down.
REMAINDER_ROUNDING_FLOOR = 4e-15


def dyson_remainder_bound(mc: MirrorCoupling, order: int, component: str = "t") -> float:
    """Geometric tail bound on ``|t_N - t|`` (or ``|r_N - r|``) at partial-sum order ``N``.

    ``2 q^(2N+2) / (1 - q^2)`` for the transmission row; one more power of
    ``q`` for the reflection row.  Infinite for ``q >= 1``.  This is the
    exact-arithmetic bound; numerical comparisons should allow
    :data:`REMAINDER_ROUNDING_FLOOR` on top of it.
    """
    order = _integer(order, "order", 0)
    if component not in ("t", "r"):
        raise DomainError(f"component must be 't' or 'r', got {component!r}")
    if not mc.is_resummable:
        return math.inf
    q = mc.q
    power = 2 * order + 2 + (1 if component == "r" else 0)
    return 2.0 * q**power / (1.0 - q * q)


def fresnel_rates(n: float) -> ScatterRates:
    """Normal-incidence boundary amplitudes for speed ratio ``n``."""
    n = _positive(n, "refractive index")
    rho = (n - 1.0) / (n + 1.0)
    t = 2.0 * math.sqrt(n) / (1.0 + n)
    return ScatterRates(
        t_minus=complex(t), t_plus=complex(t), r_minus=complex(rho), r_plus=complex(-rho)
    )


def omega_from_n(n: float, c0: float = 1.0) -> MirrorCoupling:
    """Coupling whose resummed rates equal :func:`fresnel_rates` for this ``n``.

    ``Omega(n) = -2 i c0 (sqrt(n) - 1)/(sqrt(n) + 1)``, on the negative
    imaginary axis for ``n > 1``.  Raises :class:`DomainError` where the float
    ``q`` rounds to 1 (``n`` above about ``8e31`` or below about ``3e-33``).
    """
    root = math.sqrt(_positive(n, "refractive index"))
    mc = MirrorCoupling(omega=-2j * c0 * (root - 1.0) / (root + 1.0), c_ref=c0)
    if not mc.is_resummable:
        raise DomainError(f"index n = {float(n)!r} is out of range: its coupling q rounds to 1")
    return mc


@dataclass(frozen=True)
class ScatterOutcome:
    """Out-state of one scattering event at ``t_final``, split into its two branches.

    :func:`interface_scatter` builds it once, at ``t_final``; after the map
    each branch depends on time only through ``exp(-i c k t)``.
    ``spectra`` holds the momentum amplitudes at ``t = 0`` of the
    ``"transmitted"`` and ``"reflected"`` branches and of their per-channel
    sum ``"total"``; every quadratic observable except the centroid reads
    straight from them.  ``supports`` holds, per branch, each channel's
    ``t = 0`` support, mapped from ``incident_supports`` (per incident
    channel, the interval of :func:`blipsim.lattice._support_interval`):
    ``[a/n, b/n]`` (``s = +1``) or ``[n a, n b]`` (``s = -1``) on
    transmission, ``[-b, -a]`` on reflection, and ``None`` where the rate
    is 0.  ``prob_t``/``prob_r`` are the branch weights, ``incident_weight``
    the in-packet's, and ``incident`` the in-packet's momentum amplitudes
    from the map's own forward transform, so the input is transformed once
    per event.  ``transmitted`` and ``reflected`` are the position branches
    at ``t_final`` and ``total`` their coherent sum; ``asymptotic`` records
    whether every branch had cleared the guard band, and ``guard_fraction``
    is the largest branch weight fraction still inside the band or on the
    wrong side.  ``resampling_drift`` is the largest relative norm error of
    the wavenumber rescaling (0 at ``n = 1``, where nothing is rescaled).
    """

    transmitted: BlipWavePacket
    reflected: BlipWavePacket
    total: BlipWavePacket
    prob_t: float
    prob_r: float
    left_medium: Medium
    right_medium: Medium
    rates: ScatterRates
    t_final: float
    spectra: Mapping[str, SpectralWavePacket]
    supports: Mapping[str, Mapping[Channel, tuple[float, float] | None]]
    incident: SpectralWavePacket
    incident_weight: float
    incident_supports: Mapping[Channel, tuple[float, float] | None]
    asymptotic: bool
    resampling_drift: float
    guard_fraction: float

    @property
    def scenario_tag(self) -> str:
        """A tag naming the map (a reflecting coupling in one medium is the
        point mirror) and the time."""
        if self.left_medium == self.right_medium and self.rates.r_plus != 0:
            return f"beamsplitter(t={self.t_final:.6g})"
        n = self.left_medium.c / self.right_medium.c
        return f"interface(n={n:.6g}, t={self.t_final:.6g})"

    @property
    def outgoing(self) -> dict[int, Medium]:
        """Each direction's medium after the event, by :func:`_outgoing`."""
        return _outgoing(self.left_medium, self.right_medium)


def _outgoing(left: Medium, right: Medium) -> dict[int, Medium]:
    """After the event ``+1`` channels occupy ``right`` and ``-1`` channels ``left``; the map reads it first."""
    return {+1: right, -1: left}


def _branch_guards(
    branches: Iterable[BlipWavePacket], media: Mapping[int, Medium], incident_weight: float, dts: list[float]
) -> list[float]:
    """The largest branch guard fraction, read as scattered, at each shift of ``dts``;
    a channel below ``NEGLIGIBLE_WEIGHT`` of the input is not guarded."""
    reads = [_guard_fractions(b, media, +1, dts, NEGLIGIBLE_WEIGHT * incident_weight) for b in branches]
    return [max([0.0, *(f for read in at_dt for f in read.values())]) for at_dt in zip(*reads)]


def _guard_fractions(
    p: BlipWavePacket, media: Mapping[int, Medium], side: int, dts: list[float], floor: float = 0.0
) -> list[dict[Channel, float]]:
    """The one guard rule at each shift of ``dts``: each channel's ``stray / weight``, ``stray``
    being its weight in the guard band (``GUARD_HALF_CELLS`` cells each side of its centre) plus
    beyond it on the side the channel does not belong to (right of the band for ``side s = -1``,
    read as incoming; left for ``+1``, read as scattered).  Free flight over ``dt`` moves the band
    to ``side s c dt`` instead of the packet, so every shift reads one tail sum of the packet's
    one density per channel.  A channel is clear while its fraction is at most ``GUARD_TOL``; channels
    weighing nothing or under ``floor`` (``weight * dx``) are left out."""
    half = GUARD_HALF_CELLS * p.grid.dx
    fractions: list[dict[Channel, float]] = [{} for _ in dts]
    for ch, (span, dens) in _spanned(p).items():
        weight = float(np.sum(dens))
        if not (weight > 0.0 and weight * p.grid.dx >= floor):
            continue
        x = p.grid.x[span]
        for read, dt in zip(fractions, dts):
            center = side * ch.s * media[ch.s].c * dt
            # x ascends, so the band and the wrong side are one tail: x >= center - half or x <= center + half
            if side * ch.s < 0:
                stray = dens[int(np.searchsorted(x, center - half, side="left")) :]
            else:
                stray = dens[: int(np.searchsorted(x, center + half, side="right"))]
            read[ch] = float(np.sum(stray)) / weight
    return fractions


def _window(dens: np.ndarray, floor: float, scale: float = 1.0) -> tuple[int, int]:
    """The smallest lattice interval ``[lo, hi)`` holding every point of ``dens`` at or above ``floor`` times
    its peak (all of a zero ``dens``), widened by 4 points; given a ``scale``, the bins ``m`` whose ``scale k_m``
    falls in it, clipped at the band edge ``scale |k_m| <= k_max``."""
    n, h = dens.size, dens.size // 2
    above = np.flatnonzero(dens >= floor * float(np.max(dens)))
    reach = min(h / scale, h)  # the band's half-width in bins, within the lattice; offsets clipped to it stay finite
    lo = h + math.floor(np.clip((int(above[0]) - h - 4) / scale, -reach, reach))
    hi = h + math.ceil(np.clip((int(above[-1]) - h + 4) / scale, -reach, reach)) + 1
    return lo, max(lo, min(hi, n))


def _image(branch: str, ch: Channel, ratio: float, lo: float, hi: float) -> tuple[float, float]:
    """The ``t = 0`` image in ``branch`` of the positions ``[lo, hi]`` of incident channel ``ch``: ``[lo/n, hi/n]``
    (``s = +1``) or ``[n lo, n hi]`` (``s = -1``) on transmission, ``[-hi, -lo]`` on reflection."""
    if branch == "reflected":
        return -hi, -lo
    return (lo / ratio, hi / ratio) if ch.s > 0 else (ratio * lo, ratio * hi)


def _points(grid: Grid, lo: float, hi: float, shift: float) -> tuple[int, int]:
    """The lattice points ``[j0, j1)`` from below ``lo + shift`` to above ``hi + shift``, widened by 4 points
    and clipped to the lattice."""
    j0 = min(max(math.floor((lo + shift - grid.x_min) / grid.dx) - 4, 0), grid.n_points)
    return j0, max(j0, min(math.ceil((hi + shift - grid.x_min) / grid.dx) + 5, grid.n_points))


def _on(values: np.ndarray, factor: complex, window: tuple[int, int]) -> np.ndarray:
    """``factor * values`` on ``window = (lo, hi)`` and exact zeros outside it."""
    lo, hi = window
    out = _framed(values.size, lo, hi, np.complex128)
    np.multiply(values[lo:hi], factor, out=out[lo:hi])
    return out


def interface_scatter(
    p: BlipWavePacket, left: Medium, right: Medium, t_final: float, *, rates: ScatterRates | None = None
) -> ScatterOutcome:
    """Scatter at the boundary between ``left`` (``x < 0``) and ``right`` (``x > 0``).

    Every factor reads the media's speed ratio ``n = c_left / c_right``, ``rates``
    defaulting to ``fresnel_rates(n)``.  Per incident channel, at ``t = 0``:

    * from the left (``s = +1``): transmitted ``(t_+/sqrt(n)) psi~(k/n)``
      on ``(+1, pol)``, later advanced at ``c_right``; reflected
      ``r_+ psi~(k)`` on ``(-1, pol)``, advanced at ``c_left``;
    * from the right (``s = -1``): transmitted ``sqrt(n) t_- psi~(n k)``
      advanced at ``c_left``; reflected ``r_- psi~(k)`` on ``(+1, pol)``
      advanced at ``c_right``.

    These spectra, their per-channel sum and each branch channel's support
    are the event's ``t = 0`` state; re-phased to ``t_final`` they give the
    position branches, and the outcome is built once from both.  Each branch
    channel is built on windows: its bins are those whose wavenumber meets the
    incident spectrum above ``2**-100`` of its peak density (:func:`_window`),
    exact zeros elsewhere, and its position amplitude is zoomed
    (:func:`blipsim.spectral._position_on`) onto the image of the points where
    the incident density reaches ``2**-100`` of its peak, moved by ``s c t_final``.  At ``n = 1``
    with default rates this reduces exactly to free propagation with an
    empty reflected branch; with explicit rates and one medium on both
    sides it is the point mirror.
    Raises :class:`SupportGuardError` if an incident channel fails the guard
    rule of :func:`_guard_fractions` read as incoming,
    :class:`DomainExitError` if a branch would leave the grid by
    ``t_final`` (read from the incident supports, before any resampling),
    :class:`InterpolationAccuracyError` when the rescaled spectra
    drift in norm by more than ``1e-8`` relative to the closed-form
    ``|t_s|^2``.  A branch still straddling the scatterer at ``t_final`` is no error:
    the outcome's ``asymptotic`` and ``guard_fraction`` record it.
    """
    ratio = left.c / right.c
    if rates is None:
        rates = fresnel_rates(ratio)

    t_final = float(t_final)
    grid = p.grid
    if not (grid.x_min < 0.0 < grid.x_max):
        raise SupportGuardError("the scatterer at x = 0 lies outside the grid")
    incident_weight = norm(p)
    if incident_weight == 0.0:
        raise SupportGuardError("cannot scatter a zero-weight packet")
    at_start, at_end = _guard_fractions(p, {+1: left, -1: right}, -1, [0.0, t_final])
    for ch, fraction in at_start.items():
        if fraction > GUARD_TOL:
            raise SupportGuardError(
                f"channel {ch} has {fraction:.6g} of its weight within "
                f"{GUARD_HALF_CELLS * grid.dx:.3g} of the scatterer or past it (GUARD_TOL = {GUARD_TOL:.0e})"
            )
    # each branch's t = 0 image of the incident support, scaled by the media's
    # speed ratio, in which the branches are then advanced: the edge rule runs
    # on these alone, so a branch that would leave the grid costs no chirp
    # (and the image of each incident channel's floor window, on which its branches are built)
    supports: dict[str, dict[Channel, tuple[float, float] | None]] = {"transmitted": {}, "reflected": {}}
    floors: dict[str, dict[Channel, tuple[float, float]]] = {"transmitted": {}, "reflected": {}}
    incident_supports: dict[Channel, tuple[float, float] | None] = {}
    for ch in p.amp:
        bounds = incident_supports[ch] = _support_interval(p, ch)
        lo, hi = _window(p.density[ch], 2.0**-100)
        for name, out, rate in (("transmitted", ch, rates.t(ch.s)), ("reflected", Channel(-ch.s, ch.pol), rates.r(ch.s))):
            supports[name][out] = None if bounds is None or rate == 0 else _image(name, ch, ratio, *bounds)
            floors[name][out] = _image(name, ch, ratio, float(grid.x[lo]), float(grid.x[hi - 1]))
    outgoing = _outgoing(left, right)
    # an input still incoming at t_final has its branches extrapolated back from x = 0
    early = "the schedule ends before the packet reaches x = 0: extend it past the crossing or enlarge the grid"
    remedy = early if all(f <= GUARD_TOL for f in at_end.values()) else None
    for name, images in supports.items():
        _check_inside(grid, images, outgoing, t_final, f"the {name} branch", remedy)
    incident = to_momentum(p)  # the input's one forward transform per event
    # each chirp sums the points whose |values| outside sum to at most N sqrt(2**-106 / N**2 peak) <= 2**-53 of
    # their own sum, into the bins that sample the spectrum above 2**-50 of its peak amplitude (about its rounding);
    # every other branch spectrum is the incident one on those bins at scale 1, and exact zeros outside them
    amps: dict[str, dict[Channel, np.ndarray]] = {"transmitted": {}, "reflected": {}}
    spans: dict[str, dict[Channel, tuple[int, int]]] = {"transmitted": {}, "reflected": {}}
    for ch, phi in incident.amp.items():
        coeff = rates.t_plus / math.sqrt(ratio) if ch.s > 0 else math.sqrt(ratio) * rates.t_minus
        bins = spans["reflected"][Channel(-ch.s, ch.pol)] = _window(incident.density[ch], 2.0**-100)
        if ratio == 1.0:  # nothing is rescaled
            amps["transmitted"][ch], spans["transmitted"][ch] = _on(phi, coeff, bins), bins
        else:  # the chirp's own array, scaled in place on its bins
            scale = 1.0 / ratio if ch.s > 0 else ratio
            inputs = _window(p.density[ch], 2.0**-106 / grid.n_points**2)
            outputs = spans["transmitted"][ch] = _window(incident.density[ch], 2.0**-100, scale)
            amp = amps["transmitted"][ch] = sample_spectrum_scaled(p, ch, scale, inputs=inputs, outputs=outputs)
            amp[outputs[0] : outputs[1]] *= coeff
        amps["reflected"][Channel(-ch.s, ch.pol)] = _on(phi, rates.r(ch.s), bins)
    spectra = {name: SpectralWavePacket._own(grid, amps[name], spans=spans[name]) for name in amps}
    drift = 0.0
    if ratio != 1.0:  # each rescaled channel's norm drift, read from its span density
        for ch, (_, dens) in _spanned(spectra["transmitted"]).items():
            weight = float(np.sum(incident.density[ch])) * grid.dk
            if weight > 0.0:
                drift = max(drift, abs(float(np.sum(dens)) * grid.dk - abs(rates.t(ch.s)) ** 2 * weight) / weight)
    if drift > RESAMPLE_DRIFT_TOL:
        raise InterpolationAccuracyError(
            f"wavenumber rescaling drifted branch norms by {drift:.3e} "
            f"(> {RESAMPLE_DRIFT_TOL:.0e}); the spectrum is too close to the band edge"
        )
    prob_t, prob_r = map(spectral_norm, spectra.values())
    # each branch channel is built on the points of its floor image moved by s c t_final
    branches = {
        name: _position_on(sp, outgoing, t_final, {
            ch: _points(grid, *floors[name][ch], ch.s * outgoing[ch.s].c * t_final) for ch in sp.amp
        })
        for name, sp in spectra.items()
    }
    spectra["total"] = combine(*spectra.values())
    (guard_fraction,) = _branch_guards(branches.values(), outgoing, incident_weight, [0.0])
    return ScatterOutcome(
        **branches, total=combine(*branches.values()), prob_t=prob_t, prob_r=prob_r,
        left_medium=left, right_medium=right, rates=rates, t_final=t_final, spectra=spectra, supports=supports,
        incident=incident, incident_weight=incident_weight, incident_supports=incident_supports,
        asymptotic=guard_fraction <= GUARD_TOL, resampling_drift=drift, guard_fraction=guard_fraction,
    )
