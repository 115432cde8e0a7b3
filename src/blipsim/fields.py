"""Transverse field profiles reconstructed from channel amplitudes.

Positive-frequency field amplitudes follow from the momentum amplitudes by
the weight

    zeta(k) = sqrt(2 hbar c_m / (epsilon_m A)) * sqrt(|k|)

applied per channel and transformed back with that channel's kernel.  With
``W_s,pol(x)`` denoting that transform of ``zeta * psi~``, the orientation
table is

    E_y = sum_s W_s,H          B_z = sum_s (s/c) W_s,H
    E_z = sum_s W_s,V          B_y = -sum_s (s/c) W_s,V

Each channel is weighed and moved in its own direction's medium; the
snapshot field density of ``blipsim run`` is ``|E_y|^2 + |E_z|^2`` of one
profile.  The package computes energy and momentum in k-space
(:func:`blipsim.observables.spectral_expectations`); the test suite checks
those ``|k|``-weighted sums against the quadratic functionals of these
profiles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import ConsistencyError
from .lattice import Grid, Medium, _medium_of, _positive, _read_only
from .spectral import SpectralWavePacket, _inverse

__all__ = [
    "FieldProfile",
    "zeta",
    "field_profile",
]


@dataclass(frozen=True)
class FieldProfile:
    """Complex transverse field components on the grid, summed over channels, tagged with their media."""

    grid: Grid
    e_y: np.ndarray
    e_z: np.ndarray
    b_y: np.ndarray
    b_z: np.ndarray
    medium_tag: str

    def __post_init__(self) -> None:
        for name in ("e_y", "e_z", "b_y", "b_z"):
            arr = np.array(getattr(self, name), dtype=np.complex128)
            if arr.shape != (self.grid.n_points,):
                raise ConsistencyError(
                    f"{name} has shape {arr.shape}, expected ({self.grid.n_points},)"
                )
            object.__setattr__(self, name, _read_only(arr))

    @classmethod
    def _own(cls, grid: Grid, medium_tag: str, **fields: np.ndarray) -> "FieldProfile":
        """A profile that adopts the arrays :func:`field_profile` just built, frozen in place."""
        fp = object.__new__(cls)
        fp.__dict__.update({name: _read_only(a) for name, a in fields.items()}, grid=grid, medium_tag=medium_tag)
        return fp


def zeta(k: np.ndarray | float, m: Medium, hbar: float = 1.0) -> np.ndarray | float:
    """Field weight ``sqrt(2 hbar c_m / (epsilon_m A)) sqrt(|k|)``.

    Vanishes at ``k = 0``: a zero-wavenumber excitation carries number but no field,
    energy, or momentum.  ``hbar`` and the prefactor must be positive and finite.
    """
    hbar = _positive(hbar, "hbar")
    # two divisions: epsilon A may underflow to 0, but epsilon and A are each > 0
    prefactor = _positive(2.0 * hbar * m.c / m.epsilon / m.area, "2 hbar c / (epsilon A)")
    return np.sqrt(prefactor) * np.sqrt(np.abs(k))


def field_profile(
    sp: SpectralWavePacket, media_by_direction: Mapping[int, Medium], hbar: float = 1.0, t: float = 0.0
) -> FieldProfile:
    """Reconstruct E and B profiles after free flight for ``t`` (folded into each channel's inverse
    transform), channel ``(s, pol)`` weighed and moved in ``media_by_direction[s]``, by the media rule
    of :func:`blipsim.lattice._medium_of`.  The tag joins the channels' media labels by ``+`` (``-`` if none)."""
    grid = sp.grid
    e_y, e_z, b_y, b_z = (np.zeros(grid.n_points, dtype=np.complex128) for _ in range(4))
    media = {ch: _medium_of(media_by_direction, ch.s) for ch in sp.amp}
    for ch, a in sp.amp.items():
        m = media[ch]
        profile = _inverse(grid, ch.s, zeta(grid.k, m, hbar) * a, m.c * t / grid.dx)
        if ch.pol == "H":
            e_y += profile
            b_z += (ch.s / m.c) * profile
        else:
            e_z += profile
            b_y += -(ch.s / m.c) * profile
    tag = "+".join(sorted({m.label for m in media.values()})) or "-"
    return FieldProfile._own(grid, tag, e_y=e_y, e_z=e_z, b_y=b_y, b_z=b_z)
