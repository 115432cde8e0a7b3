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
* the clamped real-space pair-correlation kernel (:func:`position_kernel_R`),
  a shape diagnostic of the field weight ``zeta``.

No production module imports this one, and :mod:`blipsim` does not
re-export it: use ``from blipsim import oracles``.
"""

from __future__ import annotations

import numpy as np

from .errors import ConsistencyError, DomainError
from .fields import FieldProfile
from .lattice import BlipWavePacket, Channel, Medium, _cis, _positive, as_channel
from .spectral import _SQRT_2PI, SpectralWavePacket, _check_chirp_scale, _chirp_sum, _forward, _inverse, _turns_phase

__all__ = [
    "spectral_derivative",
    "dyn_momentum_position_form",
    "dyn_hamiltonian_position_form",
    "sample_position_affine",
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
