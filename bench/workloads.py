"""Benchmark workloads and the seeded generator of their INI configs.

Every op of a workload runs ``blipsim run --strict`` on one generated
config.  The seed draws the packet (``x0``, ``k0``, ``sigma``) and the index
``n`` or the coupling ratio ``q`` inside ranges that keep every op inside the
documented domain and the fixture guards; the grid, the schedule and the
snapshot setting are fixed per workload, so every op does the same work.

Why the ranges are safe, for the shared grid ``[-200, 200)``:

* ``x0 + 30 + 6.4 sigma < 0``: the packet is still incoming at ``t = 30``
  (the guard tolerance 1e-10 sits 6.4 sigma out);
* ``x0 + 100 > 6.4 sigma``: every branch has cleared the scatterer by the
  first post-crossing time, so all later report times are asymptotic;
* ``x0 + 180 + 7 sigma < 200``: no branch reaches a grid edge by ``t = 180``;
* ``n k0`` plus ten spectral widths stays below the band edge ``pi/dx``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

X_MIN, X_MAX = -200.0, 200.0
X0_RANGE = (-70.0, -55.0)
K0_RANGE = (20.0, 40.0)
SIGMA_RANGE = (1.5, 2.5)

#: Cache sizes of the machine the workloads were sized on (per core L2, shared L3).
L2_BYTES = 2 * 2**20
L3_BYTES = 300 * 2**20


@dataclass(frozen=True)
class Workload:
    name: str
    n_points: int
    times: tuple[float, ...]
    snapshots: bool
    #: First report time by which every branch has cleared the scatterer.
    scattered_from: float
    #: Range of the refractive index; ``None`` for the point-mirror workload.
    n_range: tuple[float, float] | None = None
    #: Range of ``q = |Omega|/(2c)`` for an explicit mirror coupling at ``n = 1``.
    q_range: tuple[float, float] | None = None

    @property
    def array_bytes(self) -> int:
        """One complex128 channel array."""
        return 16 * self.n_points

    @property
    def chirp_pad_bytes(self) -> int:
        """One zero-padded Bluestein buffer (``2N`` points); 0 when no chirp runs."""
        return 0 if self.n_range is None else 32 * self.n_points

    @property
    def maps_per_op(self) -> int:
        """Report times with scattered branches; each applies the boundary map once."""
        return sum(1 for t in self.times if t >= self.scattered_from)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("ref_snapshots", 2**14, (0.0, 30.0, 140.0), True, 140.0, n_range=(1.8, 2.2)),
        Workload(
            "interface_sweep", 2**17, (0.0, 30.0, 100.0, 120.0, 140.0, 160.0, 180.0), False, 100.0,
            n_range=(1.5, 3.0),
        ),
        Workload(
            "mirror_sweep", 2**16, (0.0, 30.0, 100.0, 120.0, 140.0, 160.0, 180.0), False, 100.0,
            q_range=(0.1, 0.9),
        ),
    )
}


def op_params(w: Workload, seed: int, index: int) -> dict[str, float]:
    """The drawn parameters of op ``index``; the same seed gives the same values."""
    rng = random.Random(f"{seed}/{w.name}/{index}")
    params = {
        "x0": rng.uniform(*X0_RANGE),
        "k0": rng.uniform(*K0_RANGE),
        "sigma": rng.uniform(*SIGMA_RANGE),
    }
    if w.n_range is not None:
        params["n"] = rng.uniform(*w.n_range)
    else:
        params["q"] = rng.uniform(*w.q_range)
    return params


def config_text(w: Workload, params: dict[str, float]) -> str:
    """INI text for one op, in the schema of ``configs/air_to_glass.ini``."""
    if "n" in params:
        media = f"[media]\nn = {params['n']!r}\n"
    else:
        # Omega = -2 i q c on the negative imaginary axis, so both amplitudes are real
        media = (
            "[media]\nn = 1.0\n\n[coupling]\nsource = explicit\n"
            f"omega = -{2.0 * params['q']!r}j\n"
        )
    times = ", ".join(repr(t) for t in w.times)
    return (
        f"[grid]\nx_min = {X_MIN!r}\nx_max = {X_MAX!r}\nn_points = {w.n_points}\n\n"
        f"[packet]\ndirection = +1\npolarization = H\nx0 = {params['x0']!r}\n"
        f"k0 = {params['k0']!r}\nsigma = {params['sigma']!r}\n\n"
        f"{media}\n"
        f"[schedule]\ntimes = {times}\n\n"
        f"[output]\nsummary = summary.json\nseries = series.csv\n"
        f"snapshots = {'true' if w.snapshots else 'false'}\n"
    )


def write_config(w: Workload, seed: int, index: int, directory: Path) -> tuple[Path, dict[str, float]]:
    """Write op ``index``'s config into ``directory``; returns its path and parameters."""
    params = op_params(w, seed, index)
    path = directory / f"op{index:04d}.ini"
    path.write_text(config_text(w, params))
    return path, params
