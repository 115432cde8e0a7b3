"""Simulator for single-photon wave packets built from local excitations.

The state of one photon lives on a position lattice with four channels
(direction x polarization).  The package provides the exact lattice
Fourier pair between position and momentum amplitudes, observables as
sums in momentum space, electromagnetic field profiles, scattering maps for
point mirrors and dielectric boundaries, free propagation, scripted
scenarios, and a CLI.
"""

from . import errors, fields, lattice, observables, propagation, scattering, spectral
from .errors import *  # noqa: F401,F403
from .lattice import *  # noqa: F401,F403
from .spectral import *  # noqa: F401,F403
from .observables import *  # noqa: F401,F403
from .fields import *  # noqa: F401,F403
from .scattering import *  # noqa: F401,F403
from .propagation import *  # noqa: F401,F403

__version__ = "0.1.0"

#: The public names of the submodules, in import order.
__all__ = [
    name
    for module in (errors, lattice, spectral, observables, fields, scattering, propagation)
    for name in module.__all__
]
