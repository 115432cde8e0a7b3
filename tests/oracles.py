"""Test oracles: independent routes to the values the package computes.

blipsim computes every observable one way, as sums in k-space
(:func:`blipsim.observables.spectral_expectations`), and resamples spectra
one way, with :func:`blipsim.spectral.sample_spectrum_scaled`.  The
functions here reach the same numbers by other routes, so the tests can
compare the two:

* position-space forms of the signed generators, with the spectral
  derivative ``i s k`` (:func:`dyn_momentum_position_form`,
  :func:`dyn_hamiltonian_position_form`, :func:`spectral_derivative`);
* field-profile functionals of :func:`blipsim.fields.field_profile`
  (:func:`energy_from_fields`, :func:`momentum_from_fields`,
  :func:`momentum_imaginary_residual`), which reproduce the ``|k|``-weighted
  number-basis sums;
* affine resampling in position space (:func:`sample_position_affine`), the
  counterpart of the wavenumber rescaling of the boundary map;
* the channel transforms as dense O(N^2) sums of their kernels
  (:func:`dense_forward`, :func:`dense_inverse`);
* the chirp sum's 2x2 block convolution written out array by array
  (:func:`block_chirp_sum`), and its single zero-padded 2N-point
  convolution (:func:`padded_chirp_sum`);
* the clamped real-space pair-correlation kernel (:func:`position_kernel_R`),
  a shape diagnostic of the field weight ``zeta``.

This is a test helper, not part of the installed package: the test
modules import it with ``import oracles``.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np

from blipsim.errors import ConsistencyError, DomainError
from blipsim.fields import FieldProfile
from blipsim.lattice import BlipWavePacket, Channel, Grid, Medium, _cis, _positive, as_channel
from blipsim.spectral import _SQRT_2PI, SpectralWavePacket, _check_chirp_scale, _chirp_sum, _forward, _inverse, _turns_phase

__all__ = [
    "spectral_derivative",
    "dyn_momentum_position_form",
    "dyn_hamiltonian_position_form",
    "sample_position_affine",
    "dense_forward",
    "dense_inverse",
    "block_chirp_sum",
    "padded_chirp_sum",
    "energy_from_fields",
    "momentum_from_fields",
    "momentum_imaginary_residual",
    "position_kernel_R",
]


# ---------------------------------------------------------------------------
# position-space generators

def spectral_derivative(p: BlipWavePacket, ch: Channel | tuple[int, str]) -> np.ndarray:
    """d/dx of one channel, evaluated as ``i s k`` in momentum space.

    This is the authoritative derivative for all position-space functionals
    (finite differences are only used as a test oracle against it).
    """
    ch = as_channel(ch)
    phi = _forward(p.grid, ch.s, p.amplitude(ch))
    return _inverse(p.grid, ch.s, 1j * ch.s * p.grid.k * phi)


def dyn_momentum_position_form(p: BlipWavePacket, hbar: float = 1.0) -> float:
    """Position-space evaluation ``sum_ch integral psi* (-i hbar d/dx) psi dx``.

    The translation generator is ``-i hbar d/dx`` on every channel alike;
    per channel the integral already equals ``hbar s integral k |psi~|^2 dk``.
    Independent route for cross-checking
    :func:`blipsim.observables.expect_dyn_momentum`; the
    imaginary residual of the integral is discarded (it vanishes to rounding).
    """
    acc = 0.0
    for ch, a in p.amp.items():
        dpsi = spectral_derivative(p, ch)
        acc += float(np.sum(np.conj(a) * (-1j * hbar) * dpsi).real)
    return acc * p.grid.dx


def dyn_hamiltonian_position_form(p: BlipWavePacket, m: Medium, hbar: float = 1.0) -> float:
    """Position-space evaluation ``sum_ch s c_m integral psi* (-i hbar d/dx) psi dx``.

    Here the extra ``s`` undoes the direction sign of the channel kernel,
    leaving ``hbar c_m integral k |psi~|^2 dk`` per channel.
    """
    acc = 0.0
    for ch, a in p.amp.items():
        dpsi = spectral_derivative(p, ch)
        acc += ch.s * float(np.sum(np.conj(a) * (-1j * hbar) * dpsi).real)
    return m.c * acc * p.grid.dx


# ---------------------------------------------------------------------------
# affine resampling

def sample_position_affine(
    sp: SpectralWavePacket, ch: Channel | tuple[int, str], alpha: float, beta: float
) -> np.ndarray:
    """``psi(alpha * x_j + beta)`` for one channel, from the same interpolant.

    Cross-check route for interface maps expressed in position space; points
    mapped outside ``[x_min, x_max)`` sample the periodic continuation and
    are the caller's responsibility.  Before any array is built, an ``alpha`` past the
    chirp's scale rule or a non-finite offset phase ``k (beta + alpha x_min)`` raises :class:`DomainError`.
    """
    ch = as_channel(ch)
    alpha = _positive(alpha, "alpha")
    beta = float(beta)
    if not np.isfinite(beta):
        raise DomainError(f"beta must be finite, got {beta!r}")
    grid = sp.grid
    n = grid.n_points
    c = -ch.s * alpha
    _check_chirp_scale(c, n)  # the prefactor's turns c j / 2 reach the chirp's own |c| N / 2
    offset = beta + alpha * grid.x_min
    if not np.isfinite(grid.k_max * offset):
        raise DomainError(f"offset phase k (beta + alpha x_min) is not finite for alpha = {alpha!r}, beta = {beta!r}")
    # psi(y) = (2 pi)^(-1/2) dk sum_m psi~_m exp(i s k_m y) at y_j = alpha x_j + beta:
    # fold the (beta + alpha x_min) offset into the coefficients; with c = -s*alpha
    # the rest is exp(-2 pi i c (m - N/2) j / N) = pref_j exp(-2 pi i c (j - N/2) m / N) / pref_m,
    # pref_j = exp(i pi c j): a chirp sum over m of the coefficients times conj(pref_m).
    coeff = sp.amplitude(ch) * _cis(ch.s * grid.k * offset)
    pref = _turns_phase(c, np.arange(n, dtype=np.float64), 2)
    return (grid.dk / _SQRT_2PI / (2 * n)) * pref * _chirp_sum(coeff * pref.conj(), c)


# ---------------------------------------------------------------------------
# chirp sums
#
# Both return 2N X_m, X_m = sum_j v_j exp(-2 pi i c (m - N/2) j / N), from the
# pre-chirped input u_j = v_j exp(2 pi i c j (N - j) / 2N), the even kernel
# K(d) = exp(2 pi i c d^2 / 2N) and the post-chirp conj(K(m)).


def _chirp_parts(values: np.ndarray, c: float) -> tuple[np.ndarray, np.ndarray]:
    n = values.size
    j = np.arange(n, dtype=np.float64)
    return values * _turns_phase(c, j * (n - j), 2 * n), _turns_phase(c, j * j, 2 * n)


def block_chirp_sum(values: np.ndarray, c: float) -> np.ndarray:
    """The Toeplitz product ``y_m = sum_j K(m - j) u_j`` in 2x2 blocks of ``h = N/2``, every
    array its own: ``y_lo = G_0 u_lo + G_-1 u_hi`` and ``y_hi = G_1 u_lo + G_0 u_hi``, where
    the N-point circular kernel ``G_r`` holds ``2 K(d + r h)`` at ``d mod N`` for ``|d| < h``;
    ``FFT(G_-1)`` is taken as ``FFT(G_1)`` at the reversed bins ``-k mod N``."""
    u, kernel = _chirp_parts(values, c)
    n = values.size
    h = n // 2
    g0 = np.concatenate((kernel[:h], [0.0], kernel[h - 1 : 0 : -1])) * 2.0
    g1 = np.roll(kernel, -h) * 2.0
    f0, f1, lo, hi = np.fft.fft(g0), np.fft.fft(g1), np.fft.fft(u[:h], n), np.fft.fft(u[h:], n)
    f1_reversed = f1[-np.arange(n) % n]
    y_lo = np.fft.ifft(lo * f0 + hi * f1_reversed, norm="forward")[:h]
    y_hi = np.fft.ifft(f1 * lo + f0 * hi, norm="forward")[:h]
    return np.conj(kernel) * np.concatenate((y_lo, y_hi))


def padded_chirp_sum(values: np.ndarray, c: float) -> np.ndarray:
    """The Toeplitz product as one linear convolution, zero-padded to ``2N`` points, with the
    kernel built over all ``2N - 1`` offsets ``d = -(N-1) .. N-1`` and rolled into the pad."""
    u, kernel = _chirp_parts(values, c)
    n = values.size
    d = np.arange(-(n - 1), n, dtype=np.float64)
    pad = np.zeros(2 * n, dtype=np.complex128)
    pad[: d.size] = _turns_phase(c, d * d, 2 * n)
    pad = np.roll(pad, -(n - 1))
    return np.conj(kernel) * np.fft.ifft(np.fft.fft(pad) * np.fft.fft(u, 2 * n), norm="forward")[:n]


# ---------------------------------------------------------------------------
# dense channel transforms
#
# On the lattice x_j = x_min + j dx, k_m = 2 pi (m - N/2) / (N dx), each kernel
# exp(+-i s k_m x_j) splits into a phase of k_m alone, exp(+-i s k_m x_min), and
# exp(+-2 pi i s (m - N/2) j / N), whose exponent is reduced mod N in integers.

def _lattice_kernel(n: int, sign: int) -> np.ndarray:
    """The ``(m, j)`` matrix ``exp(2 pi i sign (m - N/2) j / N)``."""
    r = ((np.arange(n)[:, None] - n // 2) * np.arange(n)) % n
    return np.exp(2j * np.pi * sign * r / n)


def _wavenumber_phase(n: int, turns: mpmath.mpf) -> np.ndarray:
    """``exp(2 pi i (m - N/2) turns)`` for ``m = 0 .. N-1``, in 40-digit arithmetic."""
    with mpmath.workdps(40):
        return np.array([complex(mpmath.expjpi(2 * (m - n // 2) * turns)) for m in range(n)])


def dense_forward(grid: Grid, s: int, values: np.ndarray) -> np.ndarray:
    """``(2 pi)^(-1/2) dx sum_j exp(-i s k_m x_j) values_j``, summed densely."""
    n = grid.n_points
    with mpmath.workdps(40):
        turns = -s * mpmath.mpf(grid.x_min) / (n * mpmath.mpf(grid.dx))
    return grid.dx / math.sqrt(2 * math.pi) * _wavenumber_phase(n, turns) * (_lattice_kernel(n, -s) @ values)


def dense_inverse(grid: Grid, s: int, values: np.ndarray, cells: float = 0.0) -> np.ndarray:
    """``(2 pi)^(-1/2) dk sum_m exp(i s k_m x_j - i k_m cells dx) values_m``, summed densely:
    the inverse kernel after free flight over ``cells`` lattice cells."""
    n = grid.n_points
    with mpmath.workdps(40):
        turns = (s * mpmath.mpf(grid.x_min) / mpmath.mpf(grid.dx) - mpmath.mpf(cells)) / n
    return grid.dk / math.sqrt(2 * math.pi) * (_lattice_kernel(n, s).T @ (_wavenumber_phase(n, turns) * values))


# ---------------------------------------------------------------------------
# field functionals

def _check_profile(fp: FieldProfile, m: Medium) -> None:
    if fp.medium_tag != m.label:
        raise ConsistencyError(
            f"profile was built for medium {fp.medium_tag!r}, got {m.label!r}"
        )


def energy_from_fields(fp: FieldProfile, m: Medium) -> float:
    """``(A/4) integral dx [epsilon |E|^2 + |B|^2 / mu]``."""
    _check_profile(fp, m)
    dens = m.epsilon * (np.abs(fp.e_y) ** 2 + np.abs(fp.e_z) ** 2)
    dens = dens + (np.abs(fp.b_y) ** 2 + np.abs(fp.b_z) ** 2) / m.mu
    return 0.25 * m.area * float(np.sum(dens)) * fp.grid.dx


def _momentum_integral(fp: FieldProfile, m: Medium) -> complex:
    # x-component of E* x B - B* x E, integrated
    cross = np.conj(fp.e_y) * fp.b_z - np.conj(fp.e_z) * fp.b_y
    cross = cross - (np.conj(fp.b_y) * fp.e_z - np.conj(fp.b_z) * fp.e_y)
    return 0.25 * m.epsilon * m.area * complex(np.sum(cross)) * fp.grid.dx


def momentum_from_fields(fp: FieldProfile, m: Medium) -> float:
    """``(epsilon A/4) integral dx [E* x B - B* x E] . x_hat`` (real part).

    The imaginary part is a rounding residual; inspect it with
    :func:`momentum_imaginary_residual`.
    """
    _check_profile(fp, m)
    return _momentum_integral(fp, m).real


def momentum_imaginary_residual(fp: FieldProfile, m: Medium) -> float:
    """|imaginary part| of the momentum functional (must sit at rounding level)."""
    _check_profile(fp, m)
    return abs(_momentum_integral(fp, m).imag)


def position_kernel_R(
    x_offset: np.ndarray | float, m: Medium, cutoff: float, hbar: float = 1.0
) -> np.ndarray | float:
    """Pair-correlation kernel ``-sqrt(hbar c/(4 pi epsilon A)) |xi|^(-3/2)``.

    The inverse-power divergence at ``xi = 0`` is clamped to its value at
    ``|xi| = cutoff`` (a plateau), so the kernel can be tabulated on a grid.
    ``cutoff`` must be positive.  It is a shape diagnostic only: its
    transform carries a cutoff-dependent offset, so it does not reproduce
    the normalization of ``zeta``.
    """
    cutoff = _positive(cutoff, "cutoff")
    coeff = np.sqrt(hbar * m.c / (4.0 * np.pi * m.epsilon * m.area))
    return -coeff * np.maximum(np.abs(x_offset), cutoff) ** -1.5
