"""Direction-aware spectral transforms and band-limited resampling.

Each channel carries its own Fourier kernel: the momentum amplitude of a
direction-``s`` channel is

    psi~(k) = (2 pi)^(-1/2) * integral dx exp(-i s k x) psi(x)

and the inverse uses ``exp(+i s k x)``.  Discretized on the lattice this is
a unitary DFT pair: Parseval holds exactly (``sum |psi|^2 dx == sum
|psi~|^2 dk``) and a forward/backward round trip reproduces the input to
machine precision.  The ``s = -1`` kernel is evaluated by index reversal of
the single shared FFT rather than a second transform kernel.

Off-lattice spectral samples (needed when an interface rescales wavenumbers
by the index ratio) are taken from the trigonometric interpolant of the
grid samples, which is exact for band-limited data.  They are evaluated
with a Bluestein chirp transform whose quadratic phases (~1e5 rad at
n_points = 16384) are formed in exact turns in float64 and reduced to
their fraction of a turn before they are rounded into radians.

Where each phase comes from:

* the lattice origin ``exp(i s k x_min)`` of both transforms is
  ``grid.origin_phase`` (``s = +1``) or ``grid.origin_phase_conj``
  (``s = -1``), both built once per grid;
* free flight ``exp(-i c k t)`` and the prefactor of the scaled samples are
  computed per call from real angles by one helper,
  :func:`blipsim.lattice._cis`, which writes cos and sin into one complex
  array instead of exponentiating a complex one;
* the chirps come from :func:`_turns_phase`, which hands ``_cis`` only the
  fraction of a turn; the Bluestein kernel, even in its index, is built
  from its ``m >= 0`` half, and its conjugate is the post-chirp.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from .errors import DomainError
from .lattice import BlipWavePacket, Channel, Grid, Medium, _cis, _Packet, _positive, as_channel

__all__ = [
    "SpectralWavePacket",
    "to_momentum",
    "to_position",
    "spectral_norm",
    "sample_spectrum_scaled",
]

_SQRT_2PI = np.sqrt(2.0 * np.pi)

#: Veltkamp's splitter 2**27 + 1: ``_SPLIT * a - (_SPLIT * a - a)`` is ``a``'s top 26 bits.
_SPLIT = 134217729.0


class SpectralWavePacket(_Packet):
    """Momentum-space amplitudes per channel, on the ascending ``grid.k`` lattice."""


def _reverse_bins(a: np.ndarray) -> np.ndarray:
    """Frequency-bin reversal ``out[m] = a[(-m) mod N]``: bin 0 stays, the rest reverse."""
    return np.concatenate((a[:1], a[:0:-1]))


def _origin_phase(grid: Grid, s: int) -> np.ndarray:
    """``exp(i s k x_min)`` from the grid's cached phase."""
    return grid.origin_phase if s > 0 else grid.origin_phase_conj


def _forward(grid: Grid, s: int, values: np.ndarray) -> np.ndarray:
    """Channel transform x -> k on the ascending lattice."""
    raw = np.fft.fft(values)
    if s < 0:
        raw = _reverse_bins(raw)
    return (grid.dx / _SQRT_2PI) * _origin_phase(grid, -s) * np.fft.fftshift(raw)


def _inverse(grid: Grid, s: int, values: np.ndarray) -> np.ndarray:
    """Channel transform k -> x; exact inverse of :func:`_forward`."""
    b = np.fft.ifftshift(_origin_phase(grid, s) * values)
    if s < 0:
        b = _reverse_bins(b)
    return (grid.n_points * grid.dk / _SQRT_2PI) * np.fft.ifft(b)


def to_momentum(p: BlipWavePacket) -> SpectralWavePacket:
    """Momentum representation of every channel."""
    return SpectralWavePacket._own(p.grid, {ch: _forward(p.grid, ch.s, a) for ch, a in p.amp.items()})


def to_position(sp: SpectralWavePacket) -> BlipWavePacket:
    """Position representation of every channel."""
    return BlipWavePacket._own(sp.grid, {ch: _inverse(sp.grid, ch.s, a) for ch, a in sp.amp.items()})


def _advance_spectrum(
    sp: SpectralWavePacket, media_by_direction: Mapping[int, Medium], t: float
) -> SpectralWavePacket:
    """Free flight in k: channel ``(s, pol)`` times ``exp(-i c k t)``, ``c`` of ``media_by_direction[s]``."""
    phases = {s: _cis(-media_by_direction[s].c * sp.grid.k * t) for s in {ch.s for ch in sp.amp}}
    return SpectralWavePacket._own(sp.grid, {ch: a * phases[ch.s] for ch, a in sp.amp.items()})


def spectral_norm(sp: SpectralWavePacket) -> float:
    """Total weight ``sum_ch integral |psi~|^2 dk``; equals the position norm."""
    return float(sum(np.sum(dens) for dens in sp.density.values()) * sp.grid.dk)


def _two_product(a: float | np.ndarray, b: float | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dekker's (1971) product ``a b = hi + lo``, exact where no part over- or underflows."""
    a_hi, b_hi = _SPLIT * a - (_SPLIT * a - a), _SPLIT * b - (_SPLIT * b - b)
    a_lo, b_lo = a - a_hi, b - b_hi
    hi = a * b
    return hi, a_hi * b_hi - hi + a_hi * b_lo + a_lo * b_hi + a_lo * b_lo


def _turns_phase(c: float, q: np.ndarray, den: int) -> np.ndarray:
    """``exp(2 pi i c q / den)`` for float64 integers ``0 <= q < 2**53`` and a power of two ``den``:
    :func:`_two_product` gives ``c q / den = hi + lo`` exactly, and only the
    fraction of a turn ``hi - round(hi) + lo``, rounded once, becomes an angle."""
    hi, lo = _two_product(c / den, q)
    return _cis(2.0 * np.pi * (hi - np.rint(hi) + lo))


def _check_chirp_scale(c: float, n: int) -> None:
    """The one scale rule of an ``n``-point chirp: its turns reach ``|c| n / 2``, whose fraction
    :func:`_turns_phase` keeps below ``2**52``, so ``|c| >= 2**53 / n`` raises :class:`DomainError`."""
    if abs(c) * n / 2 >= 2.0**52:
        raise DomainError(f"chirp scale {abs(c)!r} is out of range: it must be below 2**53 / N = {2.0**53 / n!r}")


def _chirp_sum(values: np.ndarray, c: float) -> np.ndarray:
    """``2N X_m`` with ``X_m = sum_j values_j exp(-2 pi i c (m - N/2) j / N)``, m = 0..N-1, N a power of two.

    Bluestein factorization ``mj = (m^2 + j^2 - (m-j)^2)/2`` turns the sum
    into one linear convolution, done with zero-padded FFTs of length ``2N``;
    the inverse is left unscaled and the caller folds in ``1/(2N)``.  The
    chirps are exact in turns: the pre-chirp ``c j (N - j) / 2N`` and the
    kernel ``c m^2 / 2N``, even in ``m``, whose ``m >= 0`` half fills the
    first ``N`` slots of the circular pad and, reversed, the last ``N - 1``;
    its conjugate over the first ``N`` is the post-chirp.  ``c`` must pass :func:`_check_chirp_scale`.
    """
    n = values.size
    _check_chirp_scale(c, n)
    j = np.arange(n, dtype=np.float64)
    u = values * _turns_phase(c, j * (n - j), 2 * n)
    kernel = _turns_phase(c, j * j, 2 * n)
    del j  # freed before the 2N-point buffers, which set the peak
    pad = np.fft.fft(np.concatenate((kernel, [0.0], kernel[:0:-1])))
    pad *= np.fft.fft(u, 2 * n)
    np.conjugate(kernel, out=kernel)
    kernel *= np.fft.ifft(pad, norm="forward")[:n]
    return kernel


def sample_spectrum_scaled(
    p: BlipWavePacket, ch: Channel | tuple[int, str], scale: float
) -> np.ndarray:
    """``psi~(scale * k_m)`` for one channel, from the band-limited interpolant.

    Points with ``|scale * k_m|`` beyond the band edge are returned as zero
    (the interpolant has no information there).  ``scale`` must be positive
    and below ``2**53 / N``; the map never moves spectral weight across ``k = 0``.
    """
    ch = as_channel(ch)
    scale = _positive(scale, "scale")
    grid = p.grid
    # sum_j psi_j exp(-i s targets_m x_j) with x_j = x_min + j dx: as
    # targets_m dx = 2 pi scale (m - N/2) / N, the j-sum is a chirp sum with c = s*scale.
    raw = _chirp_sum(p.amplitude(ch), ch.s * scale)
    targets = scale * grid.k
    out = (grid.dx / _SQRT_2PI / (2 * grid.n_points)) * _cis(-ch.s * targets * grid.x_min) * raw
    out[np.abs(targets) > grid.k_max] = 0.0
    return out
