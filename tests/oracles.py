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
  a shape diagnostic of the field weight ``zeta``;
* a whole scenario with no FFT (:func:`dense_scenario`): the dense transforms,
  the scaled samples as dense sums (:func:`dense_scaled_samples`), and every
  observable, centroid, guard fraction and phase label from its definition.

This is a test helper, not part of the installed package: the test
modules import it with ``import oracles``.
"""

from __future__ import annotations

import functools
import math

import mpmath
import numpy as np

from blipsim.errors import ConsistencyError, DomainError
from blipsim.fields import FieldProfile
from blipsim.lattice import BlipWavePacket, Channel, Grid, Medium, _cis, _positive, as_channel
from blipsim.scattering import GUARD_HALF_CELLS, GUARD_TOL, NEGLIGIBLE_WEIGHT
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
    "dense_scaled_samples",
    "dense_scenario",
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

@functools.lru_cache(maxsize=8)
def _lattice_kernel(n: int, sign: int) -> np.ndarray:
    """The ``(m, j)`` matrix ``exp(2 pi i sign (m - N/2) j / N)``, read-only and kept for reuse."""
    r = ((np.arange(n)[:, None] - n // 2) * np.arange(n)) % n
    out = np.exp(2j * np.pi * sign * r / n)
    out.flags.writeable = False
    return out


def _wavenumber_phase(n: int, turns: mpmath.mpf) -> np.ndarray:
    """``exp(2 pi i (m - N/2) turns)`` for ``m = 0 .. N-1``.  ``turns`` is reduced to its fraction of a
    turn at 40 digits and split into the two Veltkamp halves (26 and 27 bits) of its double and the
    double of the rest: each half times ``|m - N/2| < 2**26`` is exact, and so is its ``fmod`` by 1,
    so the angle is within about 1e-16 turns."""
    with mpmath.workdps(40):
        frac = turns - mpmath.floor(turns)
        top = float(frac)
        rest = float(frac - top)
    big = 134217729.0 * top
    first = big - (big - top)
    m = np.arange(n, dtype=np.float64) - n // 2
    a, b = np.fmod(m * first, 1.0), np.fmod(m * (top - first), 1.0)
    return np.exp(2j * np.pi * ((a - np.rint(a)) + (b - np.rint(b)) + m * rest))


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


def dense_scaled_samples(grid: Grid, s: int, values: np.ndarray, scale: float) -> np.ndarray:
    """``psi~(scale k_m) = (2 pi)^(-1/2) dx sum_j exp(-i s scale k_m x_j) values_j``, summed densely, and
    zero where ``scale |k_m|`` passes the band edge.  The kernel is ``exp(-i s scale k_m x_min)``, from
    :func:`_wavenumber_phase`, times ``exp(-2 pi i s scale q / N)`` for the integer ``q = (m - N/2) j``;
    both halves of Veltkamp's split of ``scale`` (26 and 27 bits) times ``|q| < 2**26`` are exact, and so
    is their ``fmod`` by N."""
    n = grid.n_points
    q = ((np.arange(n) - n // 2)[:, None] * np.arange(n)).astype(np.float64)
    hi = 134217729.0 * scale
    hi -= hi - scale
    turns = (np.fmod(hi * q, n) + np.fmod((scale - hi) * q, n)) / n
    with mpmath.workdps(40):
        offset = -s * mpmath.mpf(scale) * mpmath.mpf(grid.x_min) / (n * mpmath.mpf(grid.dx))
    out = grid.dx / math.sqrt(2 * math.pi) * _wavenumber_phase(n, offset) * (np.exp(-2j * np.pi * s * turns) @ values)
    out[scale * np.abs(grid.k) > grid.k_max] = 0.0
    return out


# ---------------------------------------------------------------------------
# a whole scenario, with no FFT
#
# The map of blipsim.scattering: channel (s, pol) transmits t_s / sqrt(n) psi~(k / n)
# (s = +1) or sqrt(n) t_s psi~(n k) (s = -1) into the same channel and reflects
# r_s psi~(k) into (-s, pol); +1 channels then move at the right medium's speed and
# -1 channels at the left one's.  Each report of blipsim.propagation is incoming
# while the input reads clear of the guard band as incoming, and then scattered or
# crossing as every branch reads clear of it or not, read as scattered.

_OBSERVABLES = ("photon_number", "energy", "dyn_hamiltonian", "dyn_momentum", "field_momentum", "abraham_momentum")


def _dense_rates(sc) -> dict[int, tuple[complex, complex]]:
    """``{s: (t_s, r_s)}`` from the closed forms: the Fresnel table, or the resummed point scatterer."""
    n = sc.n
    if sc.omega is None:
        rho, t = (n - 1.0) / (n + 1.0), 2.0 * math.sqrt(n) / (n + 1.0)
        return {+1: (t, -rho), -1: (t, rho)}
    c = sc.left_medium.c
    q2 = (abs(sc.omega) / (2.0 * c)) ** 2
    r_plus = -1j * sc.omega / c / (1.0 + q2)
    t = (1.0 - q2) / (1.0 + q2)
    return {+1: (t, r_plus), -1: (t, -r_plus.conjugate())}


def _dense_observables(grid: Grid, spectra: dict, media: dict, hbar: float) -> dict[str, float]:
    """The sums of blipsim.observables' docstring over each channel's ``|psi~|^2 dk``."""
    out = dict.fromkeys(_OBSERVABLES, 0.0)
    k = grid.k
    for ch, phi in spectra.items():
        m, dens = media[ch.s], np.abs(phi) ** 2 * grid.dk
        p_field = hbar * ch.s * float(np.sum(np.abs(k) * dens))
        out["photon_number"] += float(np.sum(dens))
        out["energy"] += hbar * m.c * float(np.sum(np.abs(k) * dens))
        out["dyn_hamiltonian"] += hbar * m.c * float(np.sum(k * dens))
        out["dyn_momentum"] += hbar * ch.s * float(np.sum(k * dens))
        out["field_momentum"] += p_field
        out["abraham_momentum"] += p_field / m.n**2
    return out


def _dense_at(grid: Grid, spectra: dict, media: dict, t: float) -> dict:
    """Each channel's position amplitude after free flight for ``t``, by :func:`dense_inverse`."""
    return {ch: dense_inverse(grid, ch.s, phi, media[ch.s].c * t / grid.dx) for ch, phi in spectra.items()}


def _dense_centroid(grid: Grid, amps: dict) -> float | None:
    weight = sum(float(np.sum(np.abs(a) ** 2)) for a in amps.values())
    first = sum(float(np.sum(grid.x * np.abs(a) ** 2)) for a in amps.values())
    return first / weight if weight > 0.0 else None


def _dense_guard(grid: Grid, amps: dict, media: dict, side: int, dt: float, floor: float = 0.0) -> float:
    """The largest channel fraction in the guard band, moved to ``side s c dt``, or beyond it on the side
    the channel does not belong to (``side = -1``: read as incoming; ``+1``: as scattered)."""
    x, half, worst = grid.x, GUARD_HALF_CELLS * grid.dx, 0.0
    for ch, a in amps.items():
        dens = np.abs(a) ** 2
        center = side * ch.s * media[ch.s].c * dt
        band = (x >= center - half) & (x <= center + half)
        wrong = x > center + half if side * ch.s < 0 else x < center - half
        weight = float(np.sum(dens))
        if weight > 0.0 and weight * grid.dx >= floor:
            worst = max(worst, float(np.sum(dens[band]) + np.sum(dens[wrong])) / weight)
    return worst


def dense_scenario(sc) -> dict:
    """``run_scenario(sc)`` with no FFT: ``rows`` of ``(time, branch, phase, centroid, observables)``,
    the ``blocks`` in the same form, and the outcome's ``prob_t``, ``prob_r``, ``resampling_drift``,
    ``guard_fraction`` and ``asymptotic``.  Every centroid is read from the state moved densely to its
    own time, not extrapolated from the final time."""
    grid, n, hbar, t_final = sc.packet.grid, sc.n, sc.hbar, sc.schedule[-1]
    incoming_media, outgoing = {+1: sc.left_medium, -1: sc.right_medium}, {+1: sc.right_medium, -1: sc.left_medium}
    rates = _dense_rates(sc)
    incident = {ch: dense_forward(grid, ch.s, a) for ch, a in sc.packet.amp.items()}
    spectra: dict[str, dict] = {"transmitted": {}, "reflected": {}}
    drift = 0.0
    for ch, phi in incident.items():
        t, r = rates[ch.s]
        scale = 1.0 / n if ch.s > 0 else n
        samples = phi if n == 1.0 else dense_scaled_samples(grid, ch.s, sc.packet.amp[ch], scale)
        spectra["transmitted"][ch] = t * (math.sqrt(scale) * samples)
        spectra["reflected"][Channel(-ch.s, ch.pol)] = r * phi
        weight = float(np.sum(np.abs(phi) ** 2))
        if n != 1.0 and weight > 0.0:
            measured = float(np.sum(np.abs(spectra["transmitted"][ch]) ** 2))
            drift = max(drift, abs(measured - abs(t) ** 2 * weight) / weight)
    total = dict(spectra["transmitted"])
    for ch, phi in spectra["reflected"].items():
        total[ch] = total[ch] + phi if ch in total else phi
    spectra["total"] = total
    incident_weight = sum(float(np.sum(np.abs(a) ** 2)) for a in sc.packet.amp.values()) * grid.dx
    observables = {name: _dense_observables(grid, sp, outgoing, hbar) for name, sp in spectra.items()}
    moved: dict[float, dict[str, dict]] = {}

    def at(name: str, time: float) -> dict:
        """A branch in position space at ``time``; ``total`` is the sum of the two others."""
        if time not in moved:
            branches = {b: _dense_at(grid, spectra[b], outgoing, time) for b in ("transmitted", "reflected")}
            both = dict(branches["transmitted"])
            for ch, a in branches["reflected"].items():
                both[ch] = both[ch] + a if ch in both else a
            moved[time] = {**branches, "total": both}
        return moved[time][name]

    def guard(dt: float) -> float:
        floor = NEGLIGIBLE_WEIGHT * incident_weight
        branches = ("transmitted", "reflected")
        return max(_dense_guard(grid, at(name, t_final), outgoing, +1, dt, floor) for name in branches)

    rows, guards = [], [guard(0.0)]
    for time in sc.schedule:
        if _dense_guard(grid, sc.packet.amp, incoming_media, -1, time) <= GUARD_TOL:
            amps = _dense_at(grid, incident, incoming_media, time)
            rows.append((time, "incoming", "incoming", _dense_centroid(grid, amps),
                         _dense_observables(grid, incident, incoming_media, hbar)))
            continue
        guards.append(guard(t_final - time))
        phase = "scattered" if guards[-1] <= GUARD_TOL else "crossing"
        for name in spectra:
            rows.append((time, name, phase, _dense_centroid(grid, at(name, time)), observables[name]))
    final_phase = "scattered" if guards[0] <= GUARD_TOL else "crossing"
    blocks = {"input": (0.0, "incoming", _dense_centroid(grid, sc.packet.amp),
                        _dense_observables(grid, incident, incoming_media, hbar))}
    for name in spectra:
        blocks[name] = (t_final, final_phase, _dense_centroid(grid, at(name, t_final)), observables[name])
    return {
        "rows": rows, "blocks": blocks, "guard_fraction": max(guards), "asymptotic": guards[0] <= GUARD_TOL,
        "prob_t": observables["transmitted"]["photon_number"], "prob_r": observables["reflected"]["photon_number"],
        "resampling_drift": drift,
    }


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
