"""Direction-aware spectral transforms and band-limited resampling.

Each channel carries its own Fourier kernel: the momentum amplitude of a
direction-``s`` channel is

    psi~(k) = (2 pi)^(-1/2) * integral dx exp(-i s k x) psi(x)

and the inverse uses ``exp(+i s k x)``.  Discretized on the lattice this is
a unitary DFT pair: Parseval holds exactly (``sum |psi|^2 dx == sum
|psi~|^2 dk``) and a forward/backward round trip reproduces the input to
machine precision.  The sign of ``s`` picks the FFT's direction: the
forward transform runs ``fft`` for ``s = +1`` and the unscaled ``ifft`` for
``s = -1``, and the inverse the other way round.

Off-lattice spectral samples (needed when an interface rescales wavenumbers
by the index ratio) are taken from the trigonometric interpolant of the
grid samples, which is exact for band-limited data.  They are evaluated
with one Bluestein chirp from a window of inputs into a window of outputs,
in blocks of at most N points (2x2 blocks of six N-point FFTs for the whole
lattice), whose quadratic phases (~1e5 rad at n_points = 16384) are formed
in exact turns in float64 and reduced to their fraction of a turn before
they are rounded into radians.

The transforms of one scattering event: one N-point forward transform per
incident channel; one windowed chirp per rescaled channel (none at n = 1),
from the points that hold the input onto the bins that hold its image; and
per branch channel one zoom (:func:`_zoom`, the same chirp with ``c = -s``)
from its bins onto the points it reaches at ``t_final``, three FFTs of the
two windows' length.  A branch whose convolution would take more than
``N/4`` points (``ZOOM_MAX_FRACTION``), or whose window misses more than
``ZOOM_WEIGHT_TOL`` of its weight, gets the whole-lattice inverse instead.
:func:`_position_on` is the one builder of position packets, and
:func:`to_position`, with no windows, its whole-lattice case.  Reports make
no transform; a snapshot's field profile makes one whole-lattice inverse
per channel.

Where each phase comes from:

* every phase affine in the lattice index is built by one helper,
  :func:`blipsim.lattice._affine_phase`: the outer product of two tables of
  about ``sqrt(N)`` phases, each angle reduced exactly to its fraction of a
  turn, so a run computes no N-point cosine outside a whole-lattice chirp;
* each channel transform builds one phase per call and takes one product
  with it, in place: the forward one folds the origin phase
  ``exp(-i s k x_min)`` and the scale ``dx / sqrt(2 pi)`` into it and
  multiplies in the FFT's two swapped halves; the inverse one folds the
  origin phase ``exp(i s k x_min)``, the free flight ``exp(-i c k t)`` over
  ``c t / dx`` cells and the scale ``dk / sqrt(2 pi)`` into it before its
  FFT, run into that array, whose odd sites then change sign (the kernel's
  ``m - N/2``); the origin and the flight are separate parts of the phase,
  each in its own exact turns, so their sum is never rounded (the zoom adds
  ``N/2`` cells as a third part);
* the prefactor of the scaled samples is a translation by ``s scale x_min / dx``
  cells, from the same helper, on the output window;
* the chirps come from :func:`_turns_phase`, which hands ``_cis`` only the
  fraction of a turn; the Bluestein kernel, even in its index, is built
  from its ``m >= 0`` half, and its conjugate is the post-chirp, unless the
  input window's offset phase, in whole ``c / 2N`` turns, is folded in.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from .errors import DomainError
from .lattice import (
    BlipWavePacket, Channel, Grid, Medium, _cis, _framed, _medium_of, _Packet, _positive, _shift_phase, _turns,
    as_channel,
)

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


def _fft_in_place(a: np.ndarray, unscaled_inverse: bool = False) -> np.ndarray:
    """``fft`` of ``a``, or its unscaled ``ifft``, written over ``a``."""
    fft, norm = (np.fft.ifft, "forward") if unscaled_inverse else (np.fft.fft, "backward")
    return fft(a, norm=norm, out=a)


def _forward(grid: Grid, s: int, values: np.ndarray) -> np.ndarray:
    """Channel transform x -> k on the ascending lattice: ``sum_j values_j exp(-2 pi i s (m - N/2) j / N)``
    is bin ``m - N/2`` of ``fft`` (``s = +1``) or of the unscaled ``ifft`` (``s = -1``), so the two
    swapped halves of that output go, in place, into the phase ``exp(-i s k x_min) dx / sqrt(2 pi)``."""
    raw = np.fft.fft(values) if s > 0 else np.fft.ifft(values, norm="forward")
    out = _shift_phase(grid, s * grid.x_min / grid.dx, grid.dx / _SQRT_2PI)
    h = grid.n_points // 2
    out[:h] *= raw[h:]
    out[h:] *= raw[:h]
    return out


def _inverse(grid: Grid, s: int, values: np.ndarray, cells: float = 0.0) -> np.ndarray:
    """Channel transform k -> x after free flight over ``cells = c t / dx`` lattice cells,
    the exact inverse of :func:`_forward` at ``cells = 0``: ``values`` times the phase
    ``exp(i s k x_min - i c k t) dk / sqrt(2 pi)`` (the origin's ``s x_min / dx`` cells and
    the flight folded in as separate exact turns), then the unscaled ``ifft`` (``s = +1``)
    or ``fft`` (``s = -1``), both in place; the kernel's ``exp(-i pi s j)`` of ``m - N/2``
    negates the odd sites."""
    b = _shift_phase(grid, (cells, -s * grid.x_min / grid.dx), grid.dk / _SQRT_2PI)
    b *= values
    out = _fft_in_place(b, s > 0)
    out[1::2] *= -1
    return out


def _zoom(
    grid: Grid, s: int, values: np.ndarray, cells: float, bins: tuple[int, int], points: tuple[int, int]
) -> np.ndarray:
    """:func:`_inverse` on the lattice points ``points = (j0, j1)`` only, from the bins ``bins``
    (``values`` is zero outside them): one windowed :func:`_chirp_sum` with ``c = -s``.  As
    ``exp(2 pi i s (m - N/2) j / N) = (-1)^(m + j) exp(-2 pi i (-s) (j - N/2) m / N)``, the input
    ``(-1)^m`` is a translation by ``N/2`` cells, folded as exact turns into the phase beside the
    origin and the flight, and the output ``(-1)^j`` negates the odd sites."""
    n, (j0, j1) = grid.n_points, points
    phase = _shift_phase(grid, (cells, -s * grid.x_min / grid.dx, n / 2), grid.dk / _SQRT_2PI / (2 * n), bins)
    out = _chirp_sum(values, -s, bins, points, phase)
    out[(j0 + 1) % 2 :: 2] *= -1
    return out


#: Largest fraction of a channel's spectral weight its zoomed points may miss (Parseval), a rounding bound:
#: a window holding its branch misses at most about 1e-15 either way, so past it the ringing of a band-cut
#: spectrum reaches outside the window, and the whole lattice is read.
ZOOM_WEIGHT_TOL = 2.0**-46

#: Largest convolution a zoom may take, as a fraction of N.  One branch channel, built and read as the map
#: does (the transform, its Parseval check, the density, norm, centroid and five guard reads), timed against
#: ``_inverse`` and whole-lattice reads at N = 2^14, 2^16 and 2^17 (Intel Xeon, 2 vCPUs, numpy's pocketfft):
#: a zoom whose ``L + M - 1`` fits N/8 points took 0.43-0.58 of the time, one that fits N/4 took 0.62-0.93,
#: and one that needs N/2 took 1.20-1.85.
ZOOM_MAX_FRACTION = 1 / 4


def _position_on(
    sp: SpectralWavePacket, media_by_direction: Mapping[int, Medium] | None, t: float,
    windows: Mapping[Channel, tuple[int, int]],
) -> BlipWavePacket:
    """The one builder of position packets: each channel ``(s, pol)`` after free flight for ``t``, times
    ``exp(-i c k t)`` at the speed ``c`` of ``media_by_direction[s]`` (:func:`blipsim.lattice._medium_of`, not
    read at ``t = 0``), on its lattice points ``windows[ch]`` by one :func:`_zoom` from its span of bins, and
    exact zeros outside them, which become its span.  A channel with no window, whose convolution would take
    more than ``ZOOM_MAX_FRACTION`` of N points, or whose window holds less than ``1 - ZOOM_WEIGHT_TOL`` of
    its spectral weight, is built over the whole lattice by :func:`_inverse` instead."""
    grid, amp, spans = sp.grid, {}, {}
    for ch, a in sp.amp.items():
        cells = 0.0 if t == 0.0 else _medium_of(media_by_direction, ch.s).c * t / grid.dx
        (m0, m1), (j0, j1) = sp._span(ch), windows.get(ch, (0, grid.n_points))
        if (m1 - m0) + (j1 - j0) - 1 <= ZOOM_MAX_FRACTION * grid.n_points:
            zoomed = _zoom(grid, ch.s, a, cells, (m0, m1), (j0, j1))
            weight = sp._spanned[ch][2] * grid.dk
            if weight - float(np.sum(np.abs(zoomed) ** 2)) * grid.dx <= ZOOM_WEIGHT_TOL * weight:
                amp[ch] = _framed(grid.n_points, j0, j1, np.complex128)
                amp[ch][j0:j1], spans[ch] = zoomed, (j0, j1)
                continue
        amp[ch] = _inverse(grid, ch.s, a, cells)
    return BlipWavePacket._own(grid, amp, spans=spans)


def to_momentum(p: BlipWavePacket) -> SpectralWavePacket:
    """Momentum representation of every channel."""
    return SpectralWavePacket._own(p.grid, {ch: _forward(p.grid, ch.s, a) for ch, a in p.amp.items()})


def to_position(
    sp: SpectralWavePacket, media_by_direction: Mapping[int, Medium] | None = None, t: float = 0.0
) -> BlipWavePacket:
    """Position representation of every channel after free flight for ``t`` (none by default): the
    whole-lattice case of :func:`_position_on`, whose windowless channels all take :func:`_inverse`."""
    return _position_on(sp, media_by_direction, t, {})


def spectral_norm(sp: SpectralWavePacket) -> float:
    """Total weight ``sum_ch integral |psi~|^2 dk``; equals the position norm."""
    return float(sum(w for _, _, w in sp._spanned.values()) * sp.grid.dk)


def _turns_phase(c: float, q: np.ndarray, den: int) -> np.ndarray:
    """``exp(2 pi i c q / den)`` for float64 integers ``|q| < 2**53`` and a power of two ``den``:
    :func:`blipsim.lattice._turns` gives ``c q / den = hi + lo`` exactly, and only the
    fraction of a turn ``hi - round(hi) + lo``, rounded once, becomes an angle."""
    return _cis(2.0 * np.pi * _turns(0.0, c / den, q))


def _check_chirp_scale(c: float, n: int) -> None:
    """The one scale rule of an ``n``-point chirp: its turns reach ``|c| n / 2``, whose fraction
    :func:`_turns_phase` keeps below ``2**52``, so ``|c| >= 2**53 / n`` raises :class:`DomainError`."""
    if abs(c) * n / 2 >= 2.0**52:
        raise DomainError(f"chirp scale {abs(c)!r} is out of range: it must be below 2**53 / N = {2.0**53 / n!r}")


def _chirp_sum(
    values: np.ndarray, c: float, inputs: tuple[int, int] | None = None, outputs: tuple[int, int] | None = None,
    weights: np.ndarray | None = None,
) -> np.ndarray:
    """``2N X_m``, ``X_m = sum_j values_j exp(-2 pi i c (m - N/2) j / N)``, N a power of two, at the ``M`` bins
    ``m = m0 + b`` of ``outputs = (m0, m1)`` over the ``L`` points ``j = j0 + a`` of ``inputs = (j0, j1)``,
    each ``values_j`` first times ``weights_a`` if given.

    Bluestein's ``ab = (a^2 + b^2 - (b-a)^2)/2`` gives the Toeplitz product ``y_b = sum_a K(b - a) u_a`` of the
    pre-chirp ``u_a = values_j exp(2 pi i c a (N - 2 m0 - a) / 2N)`` and the even ``K(d) = exp(2 pi i c d^2 / 2N)``,
    then the post-chirp ``exp(-2 pi i c (b (b + 2 j0) + (2 m0 - N) j0) / 2N)`` (``conj(K(b))`` if ``j0 = 0``).
    Its ``L + M - 1`` offsets fit one ``P``-point circular convolution, ``P <= N``, or else (as for the whole
    lattice, the default) 2x2 blocks of ``h = N/2``: ``y_lo = G_0 u_lo + G_-1 u_hi``, ``y_hi = G_1 u_lo + G_0
    u_hi`` with ``G_r(d) = K(d + r h)``, ``|d| < h``, where ``FFT(G_-1)`` is ``FFT(G_1)`` with its bins reversed:
    six N-point FFTs in place.  Kernels scaled by ``2N / P`` (exactly) make the unscaled inverses give ``2N X_m``;
    the caller folds in ``1/(2N)``.  ``c`` must pass :func:`_check_chirp_scale`.
    """
    n, h = values.size, values.size // 2
    _check_chirp_scale(c, n)
    (j0, j1), (m0, m1) = inputs or (0, n), outputs or (0, n)
    size, count = j1 - j0, m1 - m0
    if size < 1 or count < 1:
        return np.zeros(max(count, 0), dtype=np.complex128)
    blocks = size + count > n + 1
    p = n if blocks else 1 << (size + count - 2).bit_length()
    j = np.arange(n if blocks else max(size, count), dtype=np.float64)
    u = np.zeros(p, dtype=np.complex128)
    np.multiply(values[j0:j1], _turns_phase(c, j[:size] * (n - 2 * m0 - j[:size]), 2 * n), out=u[:size])
    if weights is not None:
        u[:size] *= weights
    kernel = _turns_phase(c, j * j, 2 * n)
    del j
    if blocks:
        lo, hi = np.fft.fft(u[:h], n), np.fft.fft(u[h:], n)
        u[:h], u[h], u[h + 1 :] = 2.0 * kernel[:h], 0.0, 2.0 * kernel[h - 1 : 0 : -1]  # G_0, over the spent input
        g0, g1 = _fft_in_place(u), _fft_in_place(np.concatenate((kernel[h:], kernel[:h])) * 2.0)
        g1_rev = np.concatenate((g1[:1], g1[:0:-1]))  # FFT(G_-1)
        np.multiply(hi, g1_rev, out=g1_rev)
        np.multiply(g0, hi, out=hi)
        np.multiply(g1, lo, out=g1)
        g1 += hi
        lo *= g0
        lo += g1_rev
        del g0, hi, g1_rev  # freed before the inverses' scratch
        y = np.concatenate((_fft_in_place(lo, True)[:h], _fft_in_place(g1, True)[:h]))
    else:
        g = np.zeros(p, dtype=np.complex128)  # K(d) at d mod P for -L < d < M
        g[:count], g[p - size + 1 :] = kernel[:count], kernel[size - 1 : 0 : -1]
        y = _fft_in_place(_fft_in_place(u) * _fft_in_place(g * (2.0 * n / p)), True)
    b = np.arange(count, dtype=np.float64)
    out = _turns_phase(-c, b * (b + 2 * j0) + (2 * m0 - n) * j0, 2 * n) if j0 else np.conjugate(kernel, out=kernel)
    return np.multiply(out[:count], y[:count], out=out[:count])


def sample_spectrum_scaled(
    p: BlipWavePacket, ch: Channel | tuple[int, str], scale: float, *, inputs: tuple[int, int] | None = None,
    outputs: tuple[int, int] | None = None,
) -> np.ndarray:
    """``psi~(scale * k_m)`` for one channel, from the band-limited interpolant.

    Points with ``|scale * k_m|`` beyond the band edge are returned as zero
    (the interpolant has no information there).  ``scale`` must be positive
    and below ``2**53 / N``; the map never moves spectral weight across ``k = 0``.
    Given ``inputs`` or ``outputs`` (lattice intervals ``[lo, hi)``, pairs of ints with
    ``0 <= lo <= hi <= N``, else :class:`DomainError`), only the samples in ``inputs``
    are summed, and the bins outside ``outputs`` are exact zeros.
    """
    ch = as_channel(ch)
    scale = _positive(scale, "scale")
    grid = p.grid
    for window in (inputs, outputs):
        if window is not None and not (
            isinstance(window, tuple) and len(window) == 2
            and all(isinstance(v, (int, np.integer)) and not isinstance(v, bool) for v in window)
            and 0 <= window[0] <= window[1] <= grid.n_points
        ):
            raise DomainError(f"a window must be a pair of ints 0 <= lo <= hi <= {grid.n_points}, got {window!r}")
    # sum_j psi_j exp(-i s targets_m x_j) with x_j = x_min + j dx: as
    # targets_m dx = 2 pi scale (m - N/2) / N, the j-sum is a chirp sum with c = s*scale.
    # The prefactor exp(-i s targets_m x_min) is a translation by s*scale*x_min/dx cells.
    m0, m1 = outputs or (0, grid.n_points)
    out = _chirp_sum(p.amplitude(ch), ch.s * scale, inputs, outputs)
    out *= _shift_phase(grid, ch.s * scale * grid.x_min / grid.dx, grid.dx / _SQRT_2PI / (2 * grid.n_points), outputs)
    out[scale * np.abs(grid.k[m0:m1]) > grid.k_max] = 0.0
    return out if out.size == grid.n_points else np.pad(out, (m0, grid.n_points - m1))
