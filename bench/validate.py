"""Checks on one op's outputs, made by the harness and independent of ``--strict``.

An op passes when ``blipsim run --strict`` exited 0, every deviation in
``summary.json`` is within the harness's own tolerance table, the final
report was asymptotic with a guard fraction at most ``GUARD_TOL``, the
measured ratios match closed forms the harness computes from the drawn
parameters, and the tables have the expected shape.  Reruns of one input
must also be byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from workloads import Workload

#: The tolerances of ``blipsim.cli.DEFAULT_TOLERANCES`` at the time the benchmark
#: was defined, held here so that loosening the program's table fails ops.
TOLERANCES = {
    "energy_ratio": 1e-9,
    "momentum_ratio": 1e-6,
    "conditional_ratio": 1e-6,
    "unitarity": 1e-9,
    "resample_drift": 1e-8,
    "peak_bins": 1.0,
}
#: ``blipsim.scattering.GUARD_TOL``: branch weight fraction allowed at the scatterer.
GUARD_TOL = 1e-10

SNAPSHOT_COLUMNS = {"snapshot_position.csv": 4, "snapshot_spectrum.csv": 3, "snapshot_field.csv": 2}


def expected_ratios(params: dict[str, float]) -> dict[str, float]:
    """Closed-form momentum and conditional ratios for a right-moving packet."""
    if "n" in params:
        n = params["n"]
        return {"momentum_ratio": (3.0 * n - 1.0) / (n + 1.0), "conditional_ratio": n, "peak_k": n * params["k0"]}
    q = params["q"]
    t = (1.0 - q * q) / (1.0 + q * q)
    r = 2.0 * q / (1.0 + q * q)
    return {"momentum_ratio": t * t - r * r, "conditional_ratio": 1.0, "peak_k": params["k0"]}


def _rel(measured: float | None, expected: float) -> float:
    if measured is None:
        return math.inf
    return abs(measured - expected) / max(abs(expected), 1e-12)


def check_outputs(w: Workload, params: dict[str, float], returncode: int, out_dir: Path) -> list[str]:
    """Failure reasons for one op; an empty list means the op passed."""
    failures = []
    if returncode != 0:
        failures.append(f"exit code {returncode} under --strict")
    try:
        summary = json.loads((out_dir / "summary.json").read_text())
    except (OSError, ValueError) as exc:
        return failures + [f"summary.json unreadable: {exc}"]

    try:
        failures += _check_summary(summary, params)
    except (KeyError, TypeError) as exc:
        failures.append(f"summary.json lacks an expected field: {exc!r}")

    maps = w.maps_per_op
    failures += _check_table(out_dir / "series.csv", len(w.times) - maps + 3 * maps, 8)
    for name, cols in SNAPSHOT_COLUMNS.items():
        if w.snapshots:
            failures += _check_table(out_dir / name, w.n_points, cols)
        elif (out_dir / name).exists():
            failures.append(f"{name} written with snapshots off")
    return failures


def _check_summary(summary: dict, params: dict[str, float]) -> list[str]:
    failures = []
    for key, tol in TOLERANCES.items():
        dev = summary["deviations"].get(key)
        if dev is None or not dev <= tol:
            failures.append(f"deviation {key} = {dev} exceeds {tol}")
    diag = summary["diagnostics"]
    if diag["asymptotic_final"] is not True:
        failures.append("final report is not asymptotic")
    if not diag["guard_fraction"] <= GUARD_TOL:
        failures.append(f"guard fraction {diag['guard_fraction']} exceeds {GUARD_TOL}")

    measured = summary["measured"]
    expected = expected_ratios(params)
    checks = (
        ("energy_ratio", measured["energy_ratio"], 1.0),
        ("unitarity", measured["unitarity"], 1.0),
        ("momentum_ratio", measured["momentum_ratio"], expected["momentum_ratio"]),
        ("conditional_ratio", measured["conditional_transmitted_momentum_ratio"], expected["conditional_ratio"]),
    )
    for key, value, want in checks:
        if not _rel(value, want) <= TOLERANCES[key]:
            failures.append(f"measured {key} = {value}, closed form {want}")
    grid = summary["config"]["grid"]
    dk = 2.0 * math.pi / (grid["x_max"] - grid["x_min"])
    peak = measured["transmitted_peak_k"]
    if peak is None or not abs(peak - expected["peak_k"]) / dk <= TOLERANCES["peak_bins"]:
        failures.append(f"transmitted peak at {peak}, expected {expected['peak_k']}")
    return failures


def _check_table(path: Path, rows: int, cols: int) -> list[str]:
    try:
        lines = path.read_bytes().splitlines()
    except OSError as exc:
        return [f"{path.name} unreadable: {exc}"]
    if len(lines) != rows + 1:
        return [f"{path.name} has {len(lines) - 1} rows, expected {rows}"]
    if any(line.count(b",") != cols - 1 for line in (lines[0], lines[-1])):
        return [f"{path.name} does not have {cols} columns"]
    return []


def output_digests(out_dir: Path) -> dict[str, str]:
    """SHA-256 of every file an op wrote, by file name."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.iterdir())
        if p.is_file()
    }


def compare_digests(first: dict[str, str], again: dict[str, str]) -> list[str]:
    """Failure reasons when a rerun of the same input wrote different bytes."""
    if first == again:
        return []
    differ = sorted(k for k in first.keys() | again.keys() if first.get(k) != again.get(k))
    return [f"rerun not byte-identical: {', '.join(differ)}"]


@dataclass
class Tally:
    """Ops attempted and failed, with the reasons of each failure."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    failed: int = 0

    def record(self, label: str, reasons: list[str]) -> None:
        self.attempted += 1
        if reasons:
            self.failed += 1
            self.failures.extend(f"{label}: {r}" for r in reasons)
