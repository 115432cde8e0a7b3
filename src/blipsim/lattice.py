"""Position lattice, channels, media, and wave packets.

A single excitation is described by one complex amplitude per channel,
sampled on a shared uniform position grid.  A channel is the pair
``(s, pol)`` where ``s = +1/-1`` is the propagation direction and ``pol``
is the transverse polarization ``"H"`` or ``"V"``.  Channel amplitudes for
both wavenumber signs live in the same array; negative wavenumbers are
ordinary spectral content, not a separate channel.

Design notes
------------
* The grid covers ``[x_min, x_min + n_points*dx)``; ``n_points`` is a power
  of two so transforms stay exact-roundtrip fast paths.
* The conjugate wavenumber lattice is stored in ascending order,
  ``k_m = -pi/dx + m*dk`` with ``dk = 2*pi/(n_points*dx)``.
* A grid is a value too: its axes are built once per instance, on first
  use, and are read-only.
* Every phase affine in a lattice index (the transforms' origin phase and
  free flight, the prefactor of scaled samples, a fixture's carrier) comes from
  :func:`_affine_phase`, in exact turns and from about ``2 sqrt(N)`` cosines
  and sines.
* All sums over the grid are plain Riemann sums weighted by ``dx`` (or
  ``dk``); for the smooth, edge-decaying states this package handles these
  are spectrally accurate.
* Packets are value objects: amplitude arrays are copied in, or adopted when
  the library has just built them, and frozen (read-only).  A channel the library built
  on a window records it as its span, outside which it is exactly zero.  Its span, its
  density ``|a|**2`` on the span and its weight, that density's sum, are computed once
  per packet, on first read, and shared with the packets :func:`combine` adopts the
  array into; every sum of a density reads them.  Operations return new packets.
* :func:`_positive` is the one domain rule of a physical magnitude (index,
  speed, scale, hbar) and :func:`_medium_of` the one media rule; :func:`_check_inside`
  refuses non-finite times, :func:`_shift_phase` non-finite shifts and those of ``2**52`` cells or more.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import ClassVar, Mapping

import numpy as np

from .errors import ConfigurationError, DomainError, DomainExitError, FixtureError, ZeroNormError

__all__ = [
    "Channel",
    "CHANNELS",
    "as_channel",
    "Grid",
    "make_grid",
    "Medium",
    "BlipWavePacket",
    "gaussian_packet",
    "norm",
    "centroid",
    "combine",
]

#: Fraction of norm a fixture may leave outside the grid or the band.
FIXTURE_TAIL_TOL = 1e-12

#: Per-side weight fraction ignored when locating a packet's support.
SUPPORT_QUANTILE = 1e-12

#: Cells a transported support keeps clear of both ends of ``[x_min, x_max - dx]``.
EDGE_MARGIN_CELLS = 1

#: The smallest normal over the unit roundoff: below it :func:`_weighed` lifts a packet's density, and a state of
#: at most this fraction of the input's photons reports no centroid (:mod:`blipsim.propagation`), so a photon number
#: near it is a normal float on every route that computes it, not a subnormal step that sums round either side of 0.
CENTROID_FLOOR = 2.0**-969


#: Veltkamp's splitter 2**27 + 1: ``_SPLIT * a - (_SPLIT * a - a)`` is ``a``'s top 26 bits.
_SPLIT = 134217729.0


def _two_product(a: float | np.ndarray, b: float | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dekker's (1971) product ``a b = hi + lo``, exact where no part over- or underflows."""
    a_hi, b_hi = _SPLIT * a - (_SPLIT * a - a), _SPLIT * b - (_SPLIT * b - b)
    a_lo, b_lo = a - a_hi, b - b_hi
    hi = a * b
    return hi, a_hi * b_hi - hi + a_hi * b_lo + a_lo * b_hi + a_lo * b_lo


def _cis(theta: np.ndarray) -> np.ndarray:
    """``exp(i theta)`` for real angles: cos and sin written into one complex array."""
    out = np.empty(np.shape(theta), dtype=np.complex128)
    np.cos(theta, out=out.real)
    np.sin(theta, out=out.imag)
    return out


def _turns(f0: float, f1: float, q: np.ndarray) -> np.ndarray:
    """``f0 + q f1`` less whole turns, for float64 integers ``q`` with ``|q f1| < 2**52``:
    :func:`_two_product` gives ``q f1 = hi + lo`` exactly, whole turns leave ``hi`` and ``f0``
    exactly, and only the sum of the fractions is rounded, to within one turn of 0."""
    hi, lo = _two_product(f1, q)
    return hi - np.rint(hi) + (lo + (f0 - np.rint(f0)))


def _affine_phase(
    f0: float | tuple[float, ...], f1: float | tuple[float, ...], n: int, scale: float = 1.0, start: int = 0
) -> np.ndarray:
    """``scale exp(2 pi i (f0 + m f1))`` for ``m = start .. start+n-1``, with ``|(start + n) f1| < 2**52``;
    ``f0`` and ``f1`` may be equal-length tuples of parts, the phase of their sums, each part turned on its own.

    With ``m = start + a b + j`` (``b`` a power of two near ``sqrt(n)``) it is the outer
    product of about ``sqrt(n)`` row phases at ``f0 + (start + a b) f1`` and ``b`` column
    phases at ``j f1`` (which carry ``scale``).  Each angle is taken from
    :func:`_turns`, part by part, and the parts' fractions are summed and less whole
    turns once more, so it is at most about half a turn when it is rounded into radians,
    however far the lattice reaches, and no sum of two parts is ever rounded.
    """
    (g0, g1), *more = tuple(zip(f0, f1)) if isinstance(f0, tuple) else ((f0, f1),)
    b = 1 << ((n - 1).bit_length() // 2)
    q, j = start + b * np.arange(-(-n // b), dtype=np.float64), np.arange(b, dtype=np.float64)
    rows, cols = _turns(g0, g1, q), _turns(0.0, g1, j)
    for g0, g1 in more:
        rows += _turns(g0, g1, q)
        cols += _turns(0.0, g1, j)
        cols -= np.rint(cols)
    rows -= np.rint(rows)
    cols = _cis(2.0 * np.pi * cols)
    cols *= scale
    return np.multiply.outer(_cis(2.0 * np.pi * rows), cols).ravel()[:n]


def _shift_phase(
    grid: Grid, cells: float | tuple[float, ...], scale: float = 1.0, bins: tuple[int, int] | None = None
) -> np.ndarray:
    """``scale exp(-i k cells dx)`` on the ascending ``k`` lattice, or on its ``bins = (lo, hi)``: the phase
    of a translation by ``cells`` lattice cells, as ``k_m dx = 2 pi (m - N/2) / N``; exact for whole ``cells``.
    ``cells`` may be a tuple of parts (an origin and a flight), each folded in as its own exact turns, so their
    sum is never rounded.  Each part is refused with :class:`DomainError` unless finite and below the ``2**52``
    cells of :func:`_affine_phase`."""
    parts = cells if isinstance(cells, tuple) else (cells,)
    for part in parts:
        if not abs(part) < 2.0**52:
            raise DomainError(f"a translation by {part!r} cells is out of range: it must be finite and below 2**52")
    lo, hi = bins or (0, grid.n_points)
    f0, f1 = tuple(c / 2 for c in parts), tuple(-c / grid.n_points for c in parts)
    return _affine_phase(f0, f1, hi - lo, scale, lo)


def _framed(n: int, lo: int, hi: int, dtype: type = np.float64) -> np.ndarray:
    """An ``n``-point array, exact zeros outside ``[lo, hi)`` and unset inside.  Every point is written, as in a
    whole-lattice array, so a rerun reuses the pages a first run touched, where the lazily zeroed pages of
    ``np.zeros`` that a first run leaves untouched would fault in on the rerun."""
    out = np.empty(n, dtype)
    out[:lo] = 0.0
    out[hi:] = 0.0
    return out


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _is_positive_real(v: object) -> bool:
    """A finite, positive int or float; ``bool`` is refused although it is an int."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v) and v > 0


def _positive(v: object, what: str) -> float:
    """``float(v)`` if :func:`_is_positive_real` holds, else :class:`DomainError`."""
    if not _is_positive_real(v):
        raise DomainError(f"{what} must be positive and finite, got {v!r}")
    return float(v)


@dataclass(frozen=True, order=True)
class Channel:
    """Direction/polarization label ``(s, pol)``; hashable, usable as dict key."""

    s: int
    pol: str

    def __post_init__(self) -> None:
        if self.s not in (-1, 1):
            raise DomainError(f"channel direction must be +1 or -1, got {self.s}")
        if self.pol not in ("H", "V"):
            raise DomainError(f"channel polarization must be 'H' or 'V', got {self.pol!r}")


#: The four channels, in deterministic iteration order.
CHANNELS = (Channel(-1, "H"), Channel(-1, "V"), Channel(1, "H"), Channel(1, "V"))


def as_channel(ch: Channel | tuple[int, str]) -> Channel:
    """Coerce ``(s, pol)`` tuples to :class:`Channel`."""
    if isinstance(ch, Channel):
        return ch
    s, pol = ch
    return Channel(int(s), str(pol))


@dataclass(frozen=True)
class Grid:
    """Uniform position lattice and its conjugate wavenumber lattice.

    ``x`` and ``k`` depend only on the three fields.  Each is built
    on first access, cached on the instance and read-only; the cache takes no
    part in equality or the hash, and :func:`dataclasses.replace` gives a new
    grid that builds its own.
    A grid refuses a bad lattice with :class:`ConfigurationError`: ``n_points``
    is an integer power of two >= 8, ``dx > 0``, and ``x_min``, ``x_max``,
    ``dx`` and the band edge ``pi/dx`` are finite, and the origin lies fewer than
    ``2**52 - n_points`` cells from ``x = 0``, where :func:`_shift_phase` can translate it.
    """

    x_min: float
    dx: float
    n_points: int

    def __post_init__(self) -> None:
        n = self.n_points
        if not (isinstance(n, (int, np.integer)) and n >= 8 and not n & (n - 1)):
            raise ConfigurationError(f"n_points must be an integer power of two >= 8, got {n!r}")
        ok = isinstance(self.x_min, (int, float)) and math.isfinite(self.x_min) and _is_positive_real(self.dx)
        if not (ok and math.isfinite(self.x_max) and math.isfinite(self.k_max)):
            raise ConfigurationError(f"need finite x_min, x_max and pi/dx with dx > 0, got {self}")
        if not abs(self.x_min / self.dx) < 2**52 - n:
            raise ConfigurationError(f"x_min must lie fewer than 2**52 - n_points cells from x = 0, got {self}")

    @property
    def x_max(self) -> float:
        return self.x_min + self.dx * self.n_points

    @property
    def dk(self) -> float:
        return 2.0 * math.pi / (self.n_points * self.dx)

    @property
    def k_max(self) -> float:
        """Band edge ``pi/dx``; the lattice spans ``[-k_max, k_max - dk]``."""
        return math.pi / self.dx

    @cached_property
    def x(self) -> np.ndarray:
        """Ascending position lattice ``x_min + j*dx``."""
        return _read_only(self.x_min + self.dx * np.arange(self.n_points))

    @cached_property
    def k(self) -> np.ndarray:
        """Ascending wavenumber lattice ``-k_max + m*dk``."""
        return _read_only(-self.k_max + self.dk * np.arange(self.n_points))


def make_grid(x_min: float, x_max: float, n_points: int) -> Grid:
    """Build a grid over ``[x_min, x_max)`` with ``n_points`` cells; :class:`Grid` checks the lattice."""
    if not (isinstance(n_points, (int, np.integer)) and n_points > 0):
        raise ConfigurationError(f"n_points must be a positive integer, got {n_points!r}")
    x_min = float(x_min)
    return Grid(x_min=x_min, dx=(float(x_max) - x_min) / int(n_points), n_points=int(n_points))


@dataclass(frozen=True)
class Medium:
    """Homogeneous, dispersionless medium: permittivity, permeability, mode area.

    The phase speed is ``c = 1/sqrt(epsilon*mu)`` and the refractive index is
    taken relative to the configured reference speed ``c0`` (the default
    ``epsilon = mu = c0 = 1`` is vacuum in natural units).
    """

    epsilon: float = 1.0
    mu: float = 1.0
    area: float = 1.0
    c0: float = 1.0

    def __post_init__(self) -> None:
        for name in ("epsilon", "mu", "area", "c0"):
            _positive(getattr(self, name), f"medium {name}")
        _positive(self.epsilon * self.mu, "medium epsilon*mu")

    @property
    def c(self) -> float:
        return 1.0 / math.sqrt(self.epsilon * self.mu)

    @property
    def n(self) -> float:
        return self.c0 / self.c

    @property
    def label(self) -> str:
        return f"n={self.n:.6g}"

    @classmethod
    def from_index(cls, n: float, *, area: float = 1.0, c0: float = 1.0) -> "Medium":
        """Non-magnetic medium (``mu = 1``) with refractive index ``n``."""
        n = _positive(n, "refractive index")
        try:
            epsilon = (n / c0) ** 2
        except (OverflowError, ZeroDivisionError):
            raise DomainError(f"n = {n!r} and c0 = {c0!r} give no finite permittivity (n / c0)**2") from None
        return cls(epsilon=epsilon, mu=1.0, area=area, c0=c0)

    @classmethod
    def reference(cls, *, area: float = 1.0, c0: float = 1.0) -> "Medium":
        """The reference (index 1) medium for the given ``c0``."""
        return cls.from_index(1.0, area=area, c0=c0)


def _freeze_amp(
    grid: Grid, amp: Mapping[Channel | tuple[int, str], np.ndarray], copy: bool = True,
    spans: Mapping[Channel, tuple[int, int]] = {},
) -> dict[Channel, np.ndarray]:
    """Validate channel amplitudes and freeze them read-only: copies, or with
    ``copy=False`` the complex128 arrays themselves; a channel with a span is
    checked for NaN/Inf on its span only, outside which it is exactly zero."""
    items: dict[Channel, np.ndarray] = {}
    for raw_ch, values in amp.items():
        ch = as_channel(raw_ch)
        if ch in items:
            raise ConfigurationError(f"channel {ch} given twice")
        items[ch] = values
    out: dict[Channel, np.ndarray] = {}
    for ch in sorted(items):
        arr = (np.array if copy else np.asarray)(items[ch], dtype=np.complex128)
        if arr.shape != (grid.n_points,):
            raise ConfigurationError(f"channel {ch} amplitude has shape {arr.shape}, expected ({grid.n_points},)")
        lo, hi = spans.get(ch, (0, grid.n_points))
        if not np.all(np.isfinite(arr[lo:hi])):
            raise ConfigurationError(f"channel {ch} amplitude contains NaN/Inf")
        out[ch] = _read_only(arr)
    return out


@dataclass(frozen=True)
class _Packet:
    """Amplitudes per channel on a shared grid: the body of both packet types.

    ``amp`` maps channels to complex arrays of length ``grid.n_points``.
    Channels that are absent are identically zero.  The constructor copies the arrays
    and freezes the copies, :meth:`_own` freezes arrays the library has just built in
    place; treat packets as values.  Each channel has a span (:meth:`_span`), the lattice
    interval outside which it is exactly zero; its span, its density on the span and its
    weight are computed once per packet (:attr:`_spanned`), and every sum reads them.
    """

    grid: Grid
    amp: Mapping[Channel | tuple[int, str], np.ndarray] = field(default_factory=dict)
    _sources: ClassVar[Mapping[Channel, _Packet]] = {}  # whose density and record a channel shares, see combine()
    _spans: ClassVar[Mapping[Channel, tuple[int, int]]] = {}  # the channels not spread over the whole lattice

    def __post_init__(self) -> None:
        object.__setattr__(self, "amp", _freeze_amp(self.grid, self.amp))

    @classmethod
    def _own(
        cls, grid: Grid, amp: Mapping[Channel, np.ndarray], sources: Mapping[Channel, _Packet] = {},
        spans: Mapping[Channel, tuple[int, int]] = {},
    ) -> _Packet:
        """Adopt ``amp``'s arrays, frozen in place (only arrays no caller writes to), ``sources``' densities and
        records and the ``spans`` ``(lo, hi)`` outside which the library built a channel as exact zeros."""
        p = object.__new__(cls)
        p.__dict__.update(grid=grid, amp=_freeze_amp(grid, amp, False, spans), _sources=sources, _spans=spans)
        return p

    def _span(self, ch: Channel) -> tuple[int, int]:
        """The lattice interval ``[lo, hi)`` outside which channel ``ch`` is exactly zero: the whole lattice
        unless the library built the channel on a window."""
        return self._spans.get(ch, (0, self.grid.n_points))

    @cached_property
    def density(self) -> dict[Channel, np.ndarray]:
        """Each channel's read-only ``|a|**2``, squared once, on its span only (exact zeros outside), on first
        read and cached like :attr:`Grid.x`; a channel :func:`combine` took from one packet is that packet's
        density, squared by whichever reads first."""
        src, out = self._sources, {}
        for ch, a in self.amp.items():
            if ch in src:
                out[ch] = src[ch].density[ch]
                continue
            lo, hi = self._span(ch)
            dens = out[ch] = _framed(a.size, lo, hi)
            np.square(np.abs(a[lo:hi], out=dens[lo:hi]), out=dens[lo:hi])
            _read_only(dens)
        return out

    @cached_property
    def _spanned(self) -> dict[Channel, tuple[slice, np.ndarray, float]]:
        """Each channel's span, as the slice that cuts it from any lattice axis (``x``, ``k``, the amplitude),
        its density on its span, the part every sum reads, and its weight, the sum of that part (over ``dx``
        or ``dk``), summed once per packet; a channel :func:`combine` took from one packet is that packet's."""
        src, out = self._sources, {}
        for ch, dens in self.density.items():
            span = slice(*self._span(ch))
            out[ch] = src[ch]._spanned[ch] if ch in src else (span, dens[span], float(np.sum(dens[span])))
        return out

    def channels(self) -> tuple[Channel, ...]:
        return tuple(self.amp)

    def amplitude(self, ch: Channel | tuple[int, str]) -> np.ndarray:
        """Amplitude array for ``ch`` (a read-only zeros array if absent)."""
        ch = as_channel(ch)
        return self.amp[ch] if ch in self.amp else _read_only(np.zeros(self.grid.n_points, dtype=np.complex128))


def _gauss_tail(distance: float, width: float) -> float:
    """One-sided mass of a unit Gaussian density of standard deviation ``width`` beyond ``distance``."""
    return 0.5 * math.erfc(distance / (math.sqrt(2.0) * width))


class BlipWavePacket(_Packet):
    """Position-space amplitudes per channel, on the ascending ``grid.x`` lattice."""


def gaussian_packet(
    grid: Grid,
    ch: Channel | tuple[int, str],
    x0: float,
    k0: float,
    sigma: float,
) -> BlipWavePacket:
    """Normalized Gaussian fixture ``exp(-(x-x0)^2/(4 sigma^2)) * exp(i s k0 x)``.

    ``sigma`` is the density's standard deviation; the spectral density is a
    Gaussian of width ``sigma_k = 1/(2 sigma)`` centred at ``k0`` for either
    direction.  Raises :class:`FixtureError` when the envelope cannot be
    resolved (``sigma <= 3 dx``) or when more than ``1e-12`` of the norm
    would fall outside the grid or outside the wavenumber band.
    """
    ch = as_channel(ch)
    x0 = float(x0)
    k0 = float(k0)
    sigma = float(sigma)
    if not (math.isfinite(x0) and math.isfinite(k0) and math.isfinite(sigma)):
        raise FixtureError("x0, k0, sigma must be finite")
    if sigma <= 3.0 * grid.dx:
        raise FixtureError(
            f"sigma = {sigma} is not resolvable: need sigma > 3*dx = {3.0 * grid.dx}"
        )

    edge_mass = _gauss_tail(x0 - grid.x_min, sigma) + _gauss_tail(grid.x_max - x0, sigma)
    if edge_mass > FIXTURE_TAIL_TOL:
        raise FixtureError(
            f"envelope at x0={x0}, sigma={sigma} leaves {edge_mass:.3e} of norm "
            f"outside [{grid.x_min}, {grid.x_max})"
        )
    sigma_k = 0.5 / sigma
    band_mass = _gauss_tail(grid.k_max - k0, sigma_k) + _gauss_tail(grid.k_max + k0, sigma_k)
    if band_mass > FIXTURE_TAIL_TOL:
        raise FixtureError(
            f"carrier k0={k0} with sigma_k={sigma_k} leaves {band_mass:.3e} of norm "
            f"outside the band |k| <= {grid.k_max:.6g}"
        )

    envelope = grid.x - x0  # exp(-(x - x0)^2 / (4 sigma^2)), built in place
    envelope **= 2
    envelope /= -4.0 * sigma**2
    np.exp(envelope, out=envelope)
    envelope /= math.sqrt(float(np.sum(envelope**2)) * grid.dx)  # its square is freed before the carrier is built
    # the carrier exp(i s k0 x_j) with x_j = x_min + j dx is affine in j: s k0 (x_min + j dx) / 2 pi turns
    turn = ch.s * k0 / (2.0 * math.pi)
    values = _affine_phase(turn * grid.x_min, turn * grid.dx, grid.n_points)
    values *= envelope
    return BlipWavePacket._own(grid, {ch: values})


def norm(p: BlipWavePacket) -> float:
    """Total weight ``sum_ch integral |psi|^2 dx`` (1 for a physical state)."""
    return float(sum(w for _, _, w in p._spanned.values()) * p.grid.dx)


def _weighed(p: BlipWavePacket) -> tuple[dict[Channel, float], float]:
    """Each channel's summed density (its weight over ``dx``) and the packet's centroid.  Below
    ``CENTROID_FLOOR`` a cell holding ``2**-53`` of the sum can be subnormal, so both are then read
    from ``|a 2**k|**2``, ``2**k`` lifting the peak amplitude to order 1: the scaling is exact, and a
    packet of normal weight keeps every bit of its sums."""
    spanned = p._spanned
    if sum(w for _, _, w in spanned.values()) < CENTROID_FLOOR:
        peak = max((float(np.max(np.abs(a))) for a in p.amp.values()), default=0.0)
        lift = 2.0 ** min(-math.frexp(peak)[1], 1023)
        spanned = {ch: (span, np.abs(p.amp[ch][span] * lift) ** 2) for ch, (span, _, _) in spanned.items()}
        spanned = {ch: (span, dens, float(np.sum(dens))) for ch, (span, dens) in spanned.items()}
    weights = {ch: w for ch, (_, _, w) in spanned.items()}
    total = sum(weights.values())  # summed as in norm()
    if total == 0.0:
        raise ZeroNormError("centroid of a zero packet is undefined")
    first = sum(float(np.sum(p.grid.x[span] * dens)) for span, dens, _ in spanned.values())
    return weights, first * p.grid.dx / (total * p.grid.dx)


def centroid(p: BlipWavePacket) -> float:
    """Mean position of the total density, also where it underflows (see :func:`_weighed`);
    undefined for zero packets."""
    return _weighed(p)[1]


def _support_interval(p: BlipWavePacket, ch: Channel) -> tuple[float, float] | None:
    """Positions bracketing all but ``SUPPORT_QUANTILE`` per side of a channel."""
    span, dens, total = p._spanned[ch]
    if total == 0.0:
        return None
    cum = np.cumsum(dens)
    tol = SUPPORT_QUANTILE * total
    x = p.grid.x[span]
    lo = x[int(np.searchsorted(cum, tol, side="right"))]
    hi = x[min(int(np.searchsorted(cum, total - tol, side="left")), x.size - 1)]
    return float(lo), float(hi)


def _medium_of(media_by_direction: Mapping[int, Medium] | None, s: int) -> Medium:
    """The one media rule: a direction-``s`` channel is read in ``media_by_direction[s]``;
    a direction with no medium raises :class:`DomainError`."""
    if s not in (media_by_direction or {}):
        raise DomainError(f"no medium given for direction {s}")
    return media_by_direction[s]


def _check_inside(
    grid: Grid,
    t0_supports: Mapping[Channel, tuple[float, float] | None],
    media_by_direction: Mapping[int, Medium],
    t: float,
    what: str,
    remedy: str | None = None,
) -> None:
    """The one edge rule for transported supports: free flight, incoming or scattered.

    Each channel's ``t = 0`` support ``[lo, hi]`` (``None``: nothing to
    check) moves by ``s c t`` at the speed of ``media_by_direction[s]``.
    Raises :class:`DomainError` if ``t`` is not finite, and :class:`DomainExitError`
    (ending with ``remedy`` if given) unless the moved support keeps ``EDGE_MARGIN_CELLS``
    cells from both ends of the sample range, beyond which the periodic transform would wrap it around.
    """
    if not math.isfinite(t):
        raise DomainError(f"{what} needs a finite time, got t = {t!r}")
    margin = EDGE_MARGIN_CELLS * grid.dx
    lo_edge, hi_edge = grid.x_min + margin, grid.x_max - grid.dx - margin
    for ch, bounds in t0_supports.items():
        if bounds is None:
            continue
        shift = ch.s * _medium_of(media_by_direction, ch.s).c * t
        lo, hi = bounds[0] + shift, bounds[1] + shift
        if lo < lo_edge or hi > hi_edge:
            raise DomainExitError(
                f"at t = {t:.6g} channel {ch} of {what} would span [{lo:.6g}, {hi:.6g}], outside the usable grid "
                f"[{lo_edge:.6g}, {hi_edge:.6g}]; {remedy or 'enlarge the grid or shorten the schedule'}"
            )


def combine(*packets: BlipWavePacket) -> BlipWavePacket:
    """Coherent sum of position, or of momentum, packets on one grid: shared channels
    add, over the hull of their spans, and a channel that only one packet has keeps that
    packet's frozen array and span and shares its density and its record (:attr:`_Packet._spanned`),
    each built once by whichever of the two packets reads it first."""
    if not packets:
        raise DomainError("combine() needs at least one packet")
    kind, grid = type(packets[0]), packets[0].grid
    acc: dict[Channel, np.ndarray] = {}
    sources: dict[Channel, _Packet | None] = {}
    spans: dict[Channel, tuple[int, int]] = {}
    for p in packets:
        if p.grid != grid or type(p) is not kind:
            raise DomainError("combine() requires a shared grid and one packet type, position or momentum")
        for ch, a in p.amp.items():
            lo, hi = p._span(ch)
            if ch in acc:
                acc[ch], sources[ch], spans[ch] = acc[ch] + a, None, (min(lo, spans[ch][0]), max(hi, spans[ch][1]))
            else:
                acc[ch], sources[ch], spans[ch] = a, p, (lo, hi)
    return kind._own(grid, acc, {ch: p for ch, p in sources.items() if p is not None}, spans)
