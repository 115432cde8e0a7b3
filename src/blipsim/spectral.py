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

* every phase affine in the lattice index is built by one helper,
  :func:`blipsim.lattice._affine_phase`: the outer product of two tables of
  about ``sqrt(N)`` phases, each angle reduced exactly to its fraction of a
  turn, so a run computes no N-point cosine outside the chirp;
* the forward transform's origin phase ``exp(-i s k x_min)`` is
  ``grid.origin_phase_conj`` (``s = +1``) or ``grid.origin_phase``
  (``s = -1``), built once per grid;
* the inverse transform makes one product per channel, with the origin
  phase ``exp(i s k x_min)``, the free flight ``exp(-i c k t)`` over
  ``c t / dx`` cells and the scale ``dk / sqrt(2 pi)`` folded into one
  phase, written straight into the FFT's bin order (the half shift, and for
  ``s = -1`` the bin reversal, as slices);
* the prefactor of the scaled samples is a translation by ``s scale x_min / dx``
  cells, from the same helper;
* the chirps come from :func:`_turns_phase`, which hands ``_cis`` only the
  fraction of a turn; the Bluestein kernel, even in its index, is built
  from its ``m >= 0`` half, and its conjugate is the post-chirp.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from .errors import DomainError
from .lattice import BlipWavePacket, Channel, Grid, Medium, _cis, _Packet, _positive, _shift_phase, _turns, as_channel

__all__ = [
    "SpectralWavePacket",
    "to_momentum",
    "to_position",
    "spectral_norm",
    "sample_spectrum_scaled",
]

_SQRT_2PI = np.sqrt(2.0 * np.pi)


class SpectralWavePacket(_Packet):
    """Momentum-space amplitudes per channel, on the ascending ``grid.k`` lattice."""


def _bin_order(n: int, s: int) -> tuple[tuple[slice, slice], ...]:
    """``(lattice, bins)`` slice pairs of the FFT's bin order: bin ``j`` holds lattice index
    ``(j + N/2) mod N`` for ``s = +1`` (the half shift) and ``(N/2 - j) mod N`` for ``s = -1``
    (the shift and the bin reversal ``j -> -j`` of the ``exp(+i k x)`` kernel).  Each map is its
    own inverse, so the pairs also take bins to the lattice."""
    h = n // 2
    if s > 0:
        return (slice(h, n), slice(0, h)), (slice(0, h), slice(h, n))
    bin_zero, low, high = slice(0, 1), slice(1, h + 1), slice(h + 1, n)
    return (slice(h, h + 1), bin_zero), (slice(h - 1, None, -1), low), (slice(n - 1, h, -1), high)


def _forward(grid: Grid, s: int, values: np.ndarray) -> np.ndarray:
    """Channel transform x -> k on the ascending lattice."""
    raw = np.fft.fft(values)
    phase = grid.origin_phase if s < 0 else grid.origin_phase_conj
    out = np.empty_like(raw)
    for lattice, bins in _bin_order(grid.n_points, s):
        np.multiply(raw[bins], phase[lattice], out=out[lattice])
    out *= grid.dx / _SQRT_2PI
    return out


def _inverse(grid: Grid, s: int, values: np.ndarray, cells: float = 0.0) -> np.ndarray:
    """Channel transform k -> x after free flight over ``cells = c t / dx`` lattice cells,
    the exact inverse of :func:`_forward` at ``cells = 0``: one product of ``values`` with the
    phase ``exp(i s k x_min - i c k t) dk / sqrt(2 pi)``, written in bin order."""
    phase = _shift_phase(grid, cells - s * grid.x_min / grid.dx, grid.dk / _SQRT_2PI)
    b = np.empty_like(phase)
    for lattice, bins in _bin_order(grid.n_points, s):
        np.multiply(values[lattice], phase[lattice], out=b[bins])
    return np.fft.ifft(b, norm="forward")


def to_momentum(p: BlipWavePacket) -> SpectralWavePacket:
    """Momentum representation of every channel."""
    return SpectralWavePacket._own(p.grid, {ch: _forward(p.grid, ch.s, a) for ch, a in p.amp.items()})


def to_position(
    sp: SpectralWavePacket, media_by_direction: Mapping[int, Medium] | None = None, t: float = 0.0
) -> BlipWavePacket:
    """Position representation of every channel after free flight for ``t`` (none by default):
    channel ``(s, pol)`` times ``exp(-i c k t)`` at the speed ``c`` of ``media_by_direction[s]``,
    folded into the transform's one phase product."""
    grid = sp.grid
    return BlipWavePacket._own(grid, {
        ch: _inverse(grid, ch.s, a, 0.0 if t == 0.0 else media_by_direction[ch.s].c * t / grid.dx)
        for ch, a in sp.amp.items()
    })


def spectral_norm(sp: SpectralWavePacket) -> float:
    """Total weight ``sum_ch integral |psi~|^2 dk``; equals the position norm."""
    return float(sum(np.sum(dens) for dens in sp.density.values()) * sp.grid.dk)


def _turns_phase(c: float, q: np.ndarray, den: int) -> np.ndarray:
    """``exp(2 pi i c q / den)`` for float64 integers ``0 <= q < 2**53`` and a power of two ``den``:
    :func:`blipsim.lattice._turns` gives ``c q / den = hi + lo`` exactly, and only the
    fraction of a turn ``hi - round(hi) + lo``, rounded once, becomes an angle."""
    return _cis(2.0 * np.pi * _turns(0.0, c / den, q))


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
    # The prefactor exp(-i s targets_m x_min) is a translation by s*scale*x_min/dx cells.
    out = _chirp_sum(p.amplitude(ch), ch.s * scale)
    out *= _shift_phase(grid, ch.s * scale * grid.x_min / grid.dx, grid.dx / _SQRT_2PI / (2 * grid.n_points))
    out[scale * grid.abs_k > grid.k_max] = 0.0
    return out
