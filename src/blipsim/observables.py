"""Expectation values of the quadratic observables.

All expectations are diagonal in the momentum representation:

* photon number      ``sum_ch integral dk |psi~|^2``
* energy             ``sum_ch integral dk hbar c_m |k| |psi~|^2``   (positive)
* dynamical energy   ``sum_ch integral dk hbar c_m  k  |psi~|^2``   (signed)
* dynamical momentum ``sum_ch integral dk hbar s k |psi~|^2``
* field momentum     ``sum_ch integral dk hbar s |k| |psi~|^2``

The signed forms generate the dynamics; the absolute-value forms are what a
field functional measures.  For spectra confined to one sign of ``k`` the
two coincide up to that sign.  The field momentum here is the canonical
(medium-weighted) one; dividing by ``n^2`` gives its kinetic (Abraham)
counterpart.

:func:`spectral_expectations` is the one route to these values; it and
:func:`conditional_expectations` return an :class:`ObservableReport`, the
one record of a state's expectation values.  Scenario rows carry it as
``values`` and the CLI serializes it.  The photon number of a position
packet is :func:`blipsim.lattice.norm`.

The test suite checks the momentum-space sums against independent
routes: position-space forms of the signed observables (via the spectral
derivative) and field-profile functionals.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import TYPE_CHECKING, Mapping

import numpy as np

from .errors import DomainError, ZeroNormError
from .lattice import Medium, _medium_of, _positive
from .spectral import SpectralWavePacket

if TYPE_CHECKING:  # pragma: no cover
    from .scattering import ScatterOutcome

__all__ = [
    "ObservableReport",
    "expect_dyn_momentum",
    "abraham_momentum",
    "spectral_expectations",
    "conditional_expectations",
]

#: Branch weight, as a fraction of the incident weight, at or below which
#: conditional expectations are refused.
CONDITIONAL_MIN_WEIGHT = 1e-12


@dataclass(frozen=True)
class ObservableReport:
    """One state's expectation values and the labels of the media its
    nonzero channels occupy, joined by ``+`` (``-`` if none)."""

    photon_number: float
    energy: float
    dyn_hamiltonian: float
    dyn_momentum: float
    field_momentum: float
    abraham_momentum: float
    medium_tag: str


def expect_dyn_momentum(sp: SpectralWavePacket, hbar: float = 1.0) -> float:
    """Generator of translations ``sum hbar s k |psi~|^2 dk``."""
    return hbar * sum(ch.s * float(np.sum(sp.grid.k * dens)) for ch, dens in sp.density.items()) * sp.grid.dk


def abraham_momentum(p_field: float, n: float) -> float:
    """Kinetic momentum paired with a canonical value: ``p / n^2``."""
    n = _positive(n, "refractive index")
    return p_field / (n * n)


def spectral_expectations(
    sp: SpectralWavePacket,
    media_by_direction: Mapping[int, Medium],
    hbar: float = 1.0,
) -> ObservableReport:
    """All expectations of a spectrum whose channels may sit in different media.

    ``media_by_direction`` maps the direction ``s`` to the medium that
    channel occupies (after scattering, ``+1`` movers are on the right and
    ``-1`` movers on the left; before, the opposite), by the one media rule
    :func:`blipsim.lattice._medium_of`.  Energy and field
    quantities are evaluated channel by channel in that channel's medium.
    The field momentum is the sum ``hbar s |k| |psi~|^2 dk``, which the
    ``E* x B`` integral over the :class:`blipsim.fields.FieldProfile` reproduces.
    """
    hbar = _positive(hbar, "hbar")
    k, abs_k, dk = sp.grid.k, sp.grid.abs_k, sp.grid.dk
    number = energy = dyn_hamiltonian = dyn_momentum = field_momentum = abraham = 0.0
    tags = set()
    # the number and the dynamical momentum are the float expressions of
    # spectral_norm and expect_dyn_momentum
    for ch, dens in sp.density.items():
        m = _medium_of(media_by_direction, ch.s)
        weight = np.sum(dens)
        number += weight
        if weight > 0.0:
            tags.add(m.label)
        weighted, signed = float(np.sum(abs_k * dens)), float(np.sum(k * dens))
        energy += hbar * m.c * weighted * dk
        dyn_hamiltonian += hbar * m.c * signed * dk
        dyn_momentum += ch.s * signed
        p_field = hbar * ch.s * weighted * dk
        field_momentum += p_field
        abraham += abraham_momentum(p_field, m.n)
    return ObservableReport(
        photon_number=float(number * dk),
        energy=energy,
        dyn_hamiltonian=dyn_hamiltonian,
        dyn_momentum=hbar * dyn_momentum * dk,
        field_momentum=field_momentum,
        abraham_momentum=abraham,
        medium_tag="+".join(sorted(tags)) if tags else "-",
    )


def conditional_expectations(
    outcome: "ScatterOutcome", branch: str, hbar: float = 1.0
) -> ObservableReport:
    """Expectations post-selected on one branch of a scattering outcome.

    ``branch`` is ``"transmitted"`` or ``"reflected"``.  The branch is read
    from the outcome's stored spectrum and every value is divided by its
    weight.  Branches whose weight is at or below ``CONDITIONAL_MIN_WEIGHT``
    times the incident weight (for example the reflected branch at index 1)
    are refused.
    """
    if branch not in ("transmitted", "reflected"):
        raise DomainError(f"branch must be 'transmitted' or 'reflected', got {branch!r}")
    report = spectral_expectations(outcome.spectra[branch], outcome.outgoing, hbar)
    weight = report.photon_number
    if not weight > CONDITIONAL_MIN_WEIGHT * outcome.incident_weight:
        raise ZeroNormError(
            f"{branch} branch weight {weight:.3e} is at or below {CONDITIONAL_MIN_WEIGHT:.0e} "
            "of the incident weight; conditional expectations are undefined"
        )
    values = [f.name for f in fields(report) if f.name != "medium_tag"]
    return replace(report, **{name: getattr(report, name) / weight for name in values})
