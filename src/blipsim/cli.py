"""Command-line interface: ``run``, ``check``, and ``dyson``.

``run`` executes one scenario from a config file and writes a JSON summary
plus a per-report-time series table, and prints one line per check of ``CHECKS``
(``n/a`` for a skipped one).  ``check`` sweeps the closed-form amplitude identities
over a refractive-index range.  ``dyson`` tabulates the partial sums of the
point-scatterer Born series for a coupling ratio ``q = |Omega|/(2c)`` (taken on the
negative imaginary axis, so both amplitudes are real).

Exit codes: 0 success, 1 tolerance breach under ``--strict``, 2 configuration error
(including a tolerance, in ``[tolerances]`` or ``check --tolerance``, that is not
finite and >= 0, a ``[media]`` value that is not finite and > 0, an explicit
``[coupling]`` omega that is not finite or whose Born series diverges, a ``[grid]``
above ``MAX_GRID_POINTS`` points or with an origin ``2**52 - n_points`` cells or more
from x = 0, a ``[schedule]`` of more than ``propagation.MAX_REPORT_TIMES`` times, a
``[packet]`` spectrum reaching across k = 0, ``[output]`` names that are not bare file
names or name one file twice, and a ``dyson`` q or coupling 2q that is not finite and
>= 0), 3 runtime error, also an output that cannot be written.  Only finite floats are
written, as ``%.17g``; a float table gets those exact digits from numpy, a block of rows
at a time, and identical configs produce byte-identical outputs.  A command writes all
of its files or none: they are staged inside ``--out`` and moved into it together at the end.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import csv
import ctypes
import functools
import io
import json
import math
import os
import shutil
import sys
import tempfile
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping, Sequence

import numpy as np

from .errors import BlipSimError, ConfigurationError, DivergenceError, DomainError, FixtureError, ZeroNormError
from .fields import field_profile
from .lattice import (
    FIXTURE_TAIL_TOL, BlipWavePacket, Medium, _gauss_tail, _is_positive_real, _positive, _two_product, gaussian_packet,
    make_grid,
)
from .observables import conditional_expectations
from .propagation import Scenario, ScenarioResult, ScenarioRow, run_scenario
from .scattering import (
    GUARD_TOL,
    REMAINDER_ROUNDING_FLOOR,
    RESAMPLE_DRIFT_TOL,
    MirrorCoupling,
    ScatterOutcome,
    ScatterRates,
    dyson_partial_sums,
    dyson_remainder_bound,
    fresnel_rates,
    omega_from_n,
    rates_from_omega,
    stokes_residuals,
)
from .spectral import SpectralWavePacket

__all__ = ["main", "cmd_run", "cmd_check", "cmd_dyson"]

#: The strict checks of ``run``, each declared once, in the order of the summary's blocks and the printed
#: lines: name -> (default tolerance, its deviation read from the run's ``measured`` and ``predictions``
#: blocks and the map's outcome).  A deviation of ``None`` skips the check.
CHECKS: dict[str, tuple[float, Callable[[dict[str, Any], dict[str, Any], ScatterOutcome], float | None]]] = {
    "energy_ratio": (1e-9, lambda m, p, o: _deviation(m["energy_ratio"], p["energy_ratio"])),
    # the prediction passes through 0 at n = 3 going out: scale by it, but never below the input's scale, 1
    "momentum_ratio": (1e-6, lambda m, p, o: _deviation(
        m["momentum_ratio"], p["momentum_ratio"], max(abs(p["momentum_ratio"]), 1.0))),
    "conditional_ratio": (1e-6, lambda m, p, o: _deviation(
        m["conditional_transmitted_momentum_ratio"], p["conditional_transmitted_momentum_ratio"])),
    "unitarity": (1e-9, lambda m, p, o: _deviation(m["unitarity"], p["unitarity"])),
    "resample_drift": (RESAMPLE_DRIFT_TOL, lambda m, p, o: o.resampling_drift),
    "peak_bins": (1.0, lambda m, p, o: _deviation(
        m["transmitted_peak_k"], p["transmitted_peak_k"], o.total.grid.dk)),
    "asymptotic": (GUARD_TOL, lambda m, p, o: o.guard_fraction),
}

# ---------------------------------------------------------------------------
# deterministic serialization

#: Every written or printed float: 17 significant digits round-trip a float64.
FLOAT = "%.17g"


def _text(v: Any, null: str) -> str:
    """The text of one scalar in a summary or a mapping table row.

    Floats are written as ``FLOAT`` and must be finite: no output file may hold a NaN
    or infinity, so the command fails with exit 3.  ``None`` becomes ``null``.  Floats
    are tested first: this runs once per cell of a mapping table.
    """
    if isinstance(v, float):
        if not math.isfinite(v):
            raise BlipSimError(f"cannot write the non-finite value {v}")
        return FLOAT % v
    if v is None:
        return null
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, str)):
        return str(v)
    raise TypeError(f"cannot serialize {type(v).__name__}")


def _dump_json(obj: Any, indent: int = 0) -> str:
    """JSON text with floats at 17 significant digits and stable key order."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = [
            f"{inner}{json.dumps(str(key))}: {_dump_json(val, indent + 1)}"
            for key, val in obj.items()
        ]
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        parts = [f"{inner}{_dump_json(val, indent + 1)}" for val in obj]
        return "[\n" + ",\n".join(parts) + "\n" + pad + "]"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, complex):
        return _dump_json({"real": obj.real, "imag": obj.imag}, indent)
    return _text(obj, "null")


#: Decimal exponents :func:`_cells` formats; beyond them (subnormals, huge values) a power of ten
#: or a Veltkamp split leaves float64.  ``|v| 10**(16 - e)`` is known within about 1e-14, and within
#: ``_MARGIN`` of a tie or of ``10**16`` its digits or exponent could differ: ``_text`` writes those cells.
_E_MIN, _E_MAX, _MARGIN = -274, 296, 1e-9
#: The widest ``FLOAT`` text (sign, 17 digits, point, ``e``, sign, 3 digits); rows per block.
_CELL, _BLOCK_ROWS = 24, 2048


@functools.cache
def _tables() -> tuple[np.ndarray, ...]:
    """``10**(16 - e) = hi + lo`` for ``e`` in ``[_E_MIN - 1, _E_MAX + 1]``, each part rounded from the
    exact rational by Python's int division; the 4 ASCII digits of each integer below ``10**4``, then with
    trailing zeros as holes, as uint64 words moved on by 2 and 6 bytes and back by 2; and per ``e``, one
    column per word of a :func:`_cells` row, the bytes after the point's place (byte ``2 + p`` for a point
    after digit ``p``, byte 1 under ``0.0..``), their shift in bits, and the bytes that fill the gap
    (integer zeros, ``0.0..`` or ``.``) and end the cell (``e±XX[X]``), without, then with, a digit after it."""
    powers = [(10**k, 1) if k >= 0 else (1, 10**-k) for k in range(17 - _E_MIN, 14 - _E_MAX, -1)]
    hi = [num / den for num, den in powers]
    lo = [(num * b - a * den) / (den * b) for (num, den), (a, b) in zip(powers, map(float.as_integer_ratio, hi))]
    quads = [b"%04d" % x for x in range(10**4)]
    quads = np.frombuffer(b"".join(quads + [q.rstrip(b"0").ljust(4, b"\0") for q in quads]), "<u4").astype(np.uint64)
    tails, shifts, gaps = [], [], ([], [])
    for e in range(_E_MIN - 1, _E_MAX + 2):
        fixed = -4 <= e <= 16
        p = (e if e >= 0 else -1) if fixed else 0  # the digit the point follows
        tails.append(b"\0" * (2 + p) + b"\xff" * (22 - p))
        shifts.append(8 * (1 - e if p < 0 else 1))
        for has, gap in enumerate(gaps):
            text = "\0" + ("0." + "0" * (-e - 1) if p < 0 else "\0" + "0" * p + "." * has)
            gap.append((text.ljust(19, "\0") + ("" if fixed else f"e{e:+03}").ljust(5, "\0")).encode())
    words = lambda rows: np.frombuffer(b"".join(rows), "<u8").reshape(-1, 3).T.copy()
    return (np.array(hi), np.array(lo), quads << 16, quads << 48, quads >> 16,
            words(tails), np.array(shifts, np.uint64), words(gaps[0] + gaps[1]))


def _scaled(a: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``a 10**(16 - e)`` as its nearest integer and the rest: exact above ``2**53``, where ``hi`` is whole."""
    hi, lo = (table[e + (1 - _E_MIN)] for table in _tables()[:2])
    p, q = _two_product(a, hi)
    q += a * lo
    r = np.rint(q)
    return p.astype(np.int64) + r.astype(np.int64), q - r


def _cells(v: np.ndarray) -> np.ndarray:
    """``FLOAT % v`` of each value as one row of ``_CELL`` bytes, 0 bytes as holes: the 17 digits are
    the integer nearest ``|v| 10**(16 - e)``, for the exponent ``e`` of ``log10`` moved by one where
    :func:`_scaled` falls outside ``[10**16, 10**17)``, as its ``hi`` and ``lo`` decide, not their sum.

    A row is three little-endian uint64 words, built by whole-array integer operations.  Byte 0 holds the
    sign and bytes 1-17 the digits, each group of four with its trailing zeros as holes where no later
    digit is nonzero.  The bytes after the point's place then move on by one byte (by ``1 - e`` under
    ``0.0..``), and the gap row of :func:`_tables` fills in the integer zeros, the point and the exponent."""
    a = np.abs(v)
    e = np.floor(np.log10(np.where(a == 0, 1.0, a)))
    far = ~((e >= _E_MIN) & (e <= _E_MAX))  # also NaN and infinities, which _text refuses
    a[far], e[far] = 0.0, 0.0
    e = e.astype(np.int64)
    d, f = _scaled(a, e)
    step = 1 * (d > 10**17) - ((d > 0) & (d < 10**16) | (d == 10**16) & (f < 0))
    fix = np.flatnonzero(step)
    e[fix] += step[fix]
    d[fix], f[fix] = _scaled(a[fix], e[fix])
    e += d == 10**17
    d[d == 10**17] = 10**16
    slow = far | (np.abs(f) > 0.5 - _MARGIN) | (d == 10**16) & (np.abs(f) < _MARGIN)
    del a, f, step, fix  # dead from here; with the del below, a call peaks at about 130 bytes a value, not 226

    at2, at6, back2, tail, shift, gap = _tables()[2:]
    u = d.view(np.uint64)  # d >= 0; unsigned // is the faster
    first = u // 10**16
    u -= first * 10**16
    upper = u // 10**8
    u -= upper * 10**8
    g1, g3 = upper // 10**4, u // 10**4
    g2, g4 = upper - g1 * 10**4, u - g3 * 10**4
    # each group's index in the digit tables; 10**4 on picks its trimmed digits
    i1, i2, i3, i4 = (g.view(np.int64) for g in (g1, g2, g3, g4 + 10**4))
    i1 += 10**4 * ((u == 0) & (g2 == 0))
    i2 += 10**4 * (u == 0)
    i3 += 10**4 * (g4 == 0)
    sign = (v.view(np.uint64) >> 63) * 45  # '-'
    w = np.stack([at2[i1] | at6[i2] | (first + 48) << 8 | sign, back2[i2] | at2[i3] | at6[i4], back2[i4]])
    del d, u, first, upper, g1, g2, g3, g4, i1, i2, i3, i4, sign
    ie = e + (1 - _E_MIN)
    t = w & np.take(tail, ie, axis=1)
    w ^= t
    k = ie + tail.shape[1] * ((t[0] | t[1] | t[2]) != 0)
    b = shift[ie]
    w |= t << b
    w[1:] |= t[:2] >> (64 - b)
    cells = np.empty((v.size, _CELL), np.uint8)
    np.bitwise_or(w, np.take(gap, k, axis=1), out=cells.view(np.uint64).T)
    for i in np.flatnonzero(slow):
        cells[i] = np.frombuffer(_text(float(v[i]), "").encode().ljust(_CELL, b"\0"), np.uint8)
    return cells


def _write_table(base: Path, header: Sequence[str], rows: Sequence[Mapping[str, Any]], fmt: str) -> Path:
    """Write one table of mapping rows as ``base.csv`` or ``base.json``, each row's values at the ``header``
    keys in that order; returns the path.  Float columns go to :func:`_write_tables` instead."""
    path = base.with_suffix("." + fmt)
    if fmt == "csv":
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows([header, *([_text(row[key], "") for key in header] for row in rows)])
    else:
        path.write_text(_dump_json([{key: row[key] for key in header} for row in rows]) + "\n")
    return path


def _write_tables(fmt: str, *tables: tuple[Path, Sequence[str], Sequence[np.ndarray]]) -> list[Path]:
    """Write float64 tables of one length, each ``(base, header, columns)``, in one pass over blocks of
    ``_BLOCK_ROWS`` rows; returns their paths.  Per block, one :func:`_cells` call formats the nonzero span
    (first to last nonzero row) of each column, and of a column that several tables hold (the same array)
    once.  The cells go into a row of constant text with a hole per cell, and the holes are dropped; a cell
    outside its column's span is the constant cell ``0``, or ``-0`` where the sign bit is set."""
    columns = list({id(col): col for _, _, cols in tables for col in cols}.values())
    index = {id(col): i for i, col in enumerate(columns)}
    zero, neg = (np.frombuffer(text.ljust(_CELL, b"\0"), np.uint8) for text in (b"0", b"-0"))
    hole, n_rows, paths, frames = "\0" * _CELL, len(columns[0]), [], []
    with contextlib.ExitStack() as files:
        for base, header, cols in tables:
            if fmt == "csv":
                line = io.StringIO(newline="")
                csv.writer(line).writerow(header)
                head, row = line.getvalue(), ",".join([hole] * len(header)) + "\r\n"
            else:
                keys = ",\n".join(f"    {json.dumps(str(key))}: {hole}" for key in header)
                head, row = "[\n", "  {\n" + keys + "\n  },\n"
            paths.append(base.with_suffix("." + fmt))
            fh = files.enter_context(open(paths[-1], "wb"))
            fh.write(head.encode())
            pattern = np.frombuffer(row.encode(), np.uint8)
            buf, slots = np.tile(pattern, (min(n_rows, _BLOCK_ROWS), 1)), np.flatnonzero(pattern == 0)[::_CELL]
            frames.append((fh, buf, [(at, index[id(col)]) for at, col in zip(slots, cols)]))
        for start in range(0, n_rows, _BLOCK_ROWS):
            blocks = [col[start:start + _BLOCK_ROWS] for col in columns]
            spans = [(nz[0], nz[-1] + 1) if nz.size else (0, 0) for nz in map(np.flatnonzero, blocks)]
            cells = _cells(np.concatenate([block[lo:hi] for block, (lo, hi) in zip(blocks, spans)]))
            cells = np.split(cells, np.cumsum([hi - lo for lo, hi in spans])[:-1])
            for fh, buf, slots in frames:
                text = buf[:len(blocks[0])]
                for at, i in slots:
                    (lo, hi), cell = spans[i], text[:, at:at + _CELL]
                    cell[:] = zero
                    cell[np.signbit(blocks[i])] = neg
                    cell[lo:hi] = cells[i]
                fh.write(text.tobytes().translate(None, b"\0"))
        if fmt != "csv":
            for fh, _, _ in frames:
                fh.seek(-2, os.SEEK_END)  # the last row's ",\n" becomes the list's close, or "[\n" an empty list
                fh.write(b"\n]\n" if n_rows else b"[]\n")
    return paths


@contextlib.contextmanager
def _output_set(out_dir: str) -> Iterator[Path]:
    """Stage one command's files and place them in ``out_dir`` all together.

    Yields a fresh ``.blipsim-*`` directory inside ``out_dir``.  When the
    block completes and no destination is a directory, every file in it is
    moved into ``out_dir``.  The staging directory is removed either way,
    so a failed command leaves none of its files behind.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stage = Path(tempfile.mkdtemp(prefix=".blipsim-", dir=out))
    try:
        yield stage
        blocked = sorted(p.name for p in stage.iterdir() if (out / p.name).is_dir())
        if blocked:
            raise BlipSimError(
                f"cannot place {', '.join(blocked)} in {out}: a directory of that name is in the way")
        for path in stage.iterdir():
            os.replace(path, out / path.name)
    finally:
        shutil.rmtree(stage, ignore_errors=True)


# ---------------------------------------------------------------------------
# config schema

def _parse_complex(text: str) -> complex:
    try:
        return complex(text.replace(" ", ""))
    except ValueError as exc:
        raise ConfigurationError(f"cannot parse complex number from {text!r}") from exc


def _parse_bool(text: str) -> bool:
    key = text.strip().lower()
    if key not in configparser.ConfigParser.BOOLEAN_STATES:
        raise ConfigurationError(f"cannot parse boolean from {text!r}")
    return configparser.ConfigParser.BOOLEAN_STATES[key]


def _parse_times(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.replace(",", " ").split())


def _parse_tolerance(text: str | float) -> float:
    """A tolerance, from ``[tolerances]`` or ``check --tolerance``: finite and >= 0."""
    value = float(text)
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(f"tolerance must be finite and >= 0, got {value!r}")
    return value


def _parse_positive(text: str) -> float:
    """A ``[media]`` value: finite and > 0."""
    return _positive(float(text), "the value")


def _parse_file_name(text: str) -> str:
    """An output name: a bare file name, placed inside ``--out``."""
    if text in ("", "..") or Path(text).name != text:
        raise ConfigurationError(f"output names must be bare file names, got {text!r}")
    return text


def _choice(values: dict[str, Any]) -> Callable[[str], Any]:
    """A parser of the keys of ``values``, each giving its value; any other text is refused."""
    def parse(text: str) -> Any:
        if text not in values:
            raise ValueError(f"must be one of {', '.join(values)}")
        return values[text]
    return parse


#: The explicit ``[media]`` keys: both media's permittivity and permeability, given all four or none.
_MEDIA_PAIRS = ("left_epsilon", "left_mu", "right_epsilon", "right_mu")

_SCHEMA: dict[str, dict[str, Callable[[str], Any]]] = {
    "grid": {"x_min": float, "x_max": float, "n_points": int},
    "packet": {
        "direction": _choice({"+1": 1, "1": 1, "-1": -1}),
        "polarization": _choice({"H": "H", "V": "V"}),
        "x0": float,
        "k0": float,
        "sigma": float,
    },
    "media": {key: _parse_positive for key in ("n", *_MEDIA_PAIRS, "area", "c0")},
    "coupling": {"source": _choice({"from_n": "from_n", "explicit": "explicit"}), "omega": _parse_complex},
    "schedule": {"times": _parse_times},
    "output": {"summary": _parse_file_name, "series": _parse_file_name, "snapshots": _parse_bool},
    "units": {"hbar": float},
    "tolerances": {key: _parse_tolerance for key in CHECKS},
}

#: Sections that must be given, with every key of their schema.
_REQUIRED = ("grid", "packet", "schedule")


def _load_config(path: str) -> dict[str, dict[str, Any]]:
    """Parse and type-check the config; unknown sections or keys are rejected."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path!r}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigurationError(f"malformed config {path!r}: {exc}") from exc
    cfg: dict[str, dict[str, Any]] = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigurationError(f"unknown config section [{section}]")
        cfg[section] = {}
        for key, raw in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigurationError(f"unknown key {key!r} in section [{section}]")
            try:
                cfg[section][key] = _SCHEMA[section][key](raw)
            except ConfigurationError:
                raise
            except ValueError as exc:
                raise ConfigurationError(
                    f"bad value for {key!r} in [{section}]: {raw!r} ({exc})"
                ) from exc
    for section in _REQUIRED:
        if section not in cfg:
            raise ConfigurationError(f"missing config section [{section}]")
        for key in _SCHEMA[section]:
            if key not in cfg[section]:
                raise ConfigurationError(f"missing key {key!r} in section [{section}]")
    return cfg


#: Largest ``[grid] n_points``; a run's peak RSS grows by about 11 complex arrays of that length
#: (fresh-process ``wait4`` peak, snapshots off: 76.1, 198.7 and 731.9 MiB at 2**18, 2**20 and 2**22 points).
MAX_GRID_POINTS = 2**22


def _scenario_from_config(cfg: dict[str, dict[str, Any]]) -> Scenario:
    if cfg["grid"]["n_points"] > MAX_GRID_POINTS:
        raise ConfigurationError(f"n_points must be at most {MAX_GRID_POINTS}, got {cfg['grid']['n_points']}")
    grid = make_grid(cfg["grid"]["x_min"], cfg["grid"]["x_max"], cfg["grid"]["n_points"])
    packet = gaussian_packet(
        grid,
        (cfg["packet"]["direction"], cfg["packet"]["polarization"]),
        cfg["packet"]["x0"],
        cfg["packet"]["k0"],
        cfg["packet"]["sigma"],
    )
    # the energy weighs |k|, whose kink at k = 0 a lattice sum does not resolve
    across = _gauss_tail(abs(cfg["packet"]["k0"]), 0.5 / cfg["packet"]["sigma"])
    if across > FIXTURE_TAIL_TOL:
        raise FixtureError(f"carrier k0={cfg['packet']['k0']} leaves {across:.3e} of the spectrum's norm "
                           "across k = 0, where the energy's |k| has its kink")

    media = cfg.get("media", {})
    area = media.get("area", 1.0)
    c0 = media.get("c0", 1.0)
    explicit = [key for key in _MEDIA_PAIRS if key in media]
    if "n" in media and explicit:
        raise ConfigurationError("give either media.n or explicit epsilon/mu pairs, not both")
    try:
        if explicit:
            for key in _MEDIA_PAIRS:
                if key not in media:
                    raise ConfigurationError(f"explicit media need all four pairs; missing {key!r}")
            left_epsilon, left_mu, right_epsilon, right_mu = (media[key] for key in _MEDIA_PAIRS)
            left, right = Medium(left_epsilon, left_mu, area, c0), Medium(right_epsilon, right_mu, area, c0)
        else:
            left = Medium.reference(area=area, c0=c0)
            right = Medium.from_index(media.get("n", 1.0), area=area, c0=c0)
    except DomainError as exc:
        # each value is in range, but together they leave epsilon or the speed out of range
        raise ConfigurationError(f"[media] values give no valid medium: {exc}") from None

    coupling = cfg.get("coupling", {})
    omega = None
    if coupling.get("source") == "explicit":
        if "omega" not in coupling:
            raise ConfigurationError("coupling source 'explicit' needs an omega value")
        omega = coupling["omega"]
    elif "omega" in coupling:
        raise ConfigurationError("coupling omega given but source is from_n")

    hbar = cfg.get("units", {}).get("hbar", 1.0)
    try:
        return Scenario(packet, left, right, schedule=cfg["schedule"]["times"], omega=omega, hbar=hbar)
    except (DomainError, DivergenceError) as exc:
        raise ConfigurationError(f"bad value for 'omega' in [coupling]: {exc}") from None


# ---------------------------------------------------------------------------
# run

#: The entries of a conditional block, read from its expectation record.
CONDITIONAL_KEYS = ("energy", "dyn_hamiltonian", "dyn_momentum", "field_momentum", "medium_tag")


def _block(row: ScenarioRow) -> dict[str, Any]:
    """``norm``, ``centroid`` and the expectation values of one row; the
    summary's input and output blocks and every series row are built from it."""
    values = dict(vars(row.values))
    del values["medium_tag"]
    return {"norm": values.pop("photon_number"), "centroid": row.centroid} | values


def _density(state: BlipWavePacket | SpectralWavePacket) -> np.ndarray:
    """``sum_ch |amplitude|^2``, either representation: one channel's cached density, or a sum in channel order."""
    first, *rest = state.density.values()
    return sum(rest, first)


def _spectral_peak(sp: SpectralWavePacket) -> float | None:
    dens = _density(sp)
    if not np.any(dens):
        return None
    return float(sp.grid.k[int(np.argmax(dens))])


def _momentum_ratios(rates: ScatterRates, n: float, s: int) -> tuple[float, float, float]:
    """The paper's momentum ratios for a packet entering (``s = +1``) or leaving
    (``s = -1``) the medium of speed ratio ``n``: from the amplitude table, in
    closed form at the normal-incidence rates, and post-selected on transmission."""
    if s > 0:
        return n * abs(rates.t_plus) ** 2 - abs(rates.r_plus) ** 2, (3.0 * n - 1.0) / (n + 1.0), n
    return abs(rates.t_minus) ** 2 / n - abs(rates.r_minus) ** 2, (3.0 - n) / (n + 1.0), 1.0 / n


def _ratio(numer: float, denom: float) -> float | None:
    if abs(denom) < 1e-12 * max(1.0, abs(numer)):
        return None
    return numer / denom


def _deviation(measured: float | None, predicted: float, scale: float | None = None) -> float | None:
    """``|measured - predicted| / scale``, by default relative to ``|predicted|``; ``None`` if nothing was measured."""
    if measured is None:
        return None
    return abs(measured - predicted) / (abs(predicted) if scale is None else scale)


def _verdict(deviation: float | None, tol: float) -> str:
    if deviation is None:
        return "skipped"
    return "pass" if deviation <= tol else "fail"


def _summarize(
    cfg: dict[str, dict[str, Any]], sc: Scenario, result: ScenarioResult
) -> tuple[dict[str, Any], int]:
    outcome = result.outcome
    blocks = result.blocks
    n = sc.n

    direction = cfg["packet"]["direction"]
    k0 = cfg["packet"]["k0"]

    inp = _block(blocks["input"])
    out_blocks = {branch: _block(blocks[branch]) for branch in ("transmitted", "reflected", "total")}
    out_blocks["transmitted"]["probability"] = outcome.prob_t
    out_blocks["reflected"]["probability"] = outcome.prob_r

    conditional: dict[str, Any] = {}
    for branch in ("transmitted", "reflected"):
        try:
            report = conditional_expectations(outcome, branch, sc.hbar)
        except ZeroNormError:
            conditional[branch] = None
        else:
            conditional[branch] = {key: getattr(report, key) for key in CONDITIONAL_KEYS}

    # predictions from the amplitude table; closed forms where the rates are
    # the normal-incidence ones
    fresnel = sc.omega is None
    pred_momentum, closed, pred_conditional = _momentum_ratios(outcome.rates, n, direction)
    predictions = {
        "energy_ratio": 1.0,
        "momentum_ratio": pred_momentum,
        "momentum_ratio_closed_form": closed if fresnel else None,
        "conditional_transmitted_momentum_ratio": pred_conditional,
        "transmitted_peak_k": n * k0 if direction > 0 else k0 / n,
        "unitarity": 1.0,
    }
    cond_t = conditional["transmitted"]
    measured = {
        "energy_ratio": _ratio(out_blocks["total"]["energy"], inp["energy"]),
        "momentum_ratio": _ratio(out_blocks["total"]["dyn_momentum"], inp["dyn_momentum"]),
        "conditional_transmitted_momentum_ratio": (
            _ratio(cond_t["dyn_momentum"], inp["dyn_momentum"]) if cond_t else None
        ),
        "transmitted_peak_k": _spectral_peak(outcome.spectra["transmitted"]),
        "unitarity": outcome.prob_t + outcome.prob_r,
    }
    given = cfg.get("tolerances", {})
    deviations = {name: read(measured, predictions, outcome) for name, (_, read) in CHECKS.items()}
    tolerances = {name: given.get(name, default) for name, (default, _) in CHECKS.items()}
    checks = {name: _verdict(deviations[name], tolerances[name]) for name in CHECKS}
    crossing_times = tuple(dict.fromkeys(row.time for row in (*result.rows, *blocks.values()) if not row.asymptotic))

    summary = {
        "command": "run",
        "config": {section: dict(sorted(cfg[section].items())) for section in sorted(cfg)},
        "scenario": {
            "n": n,
            "direction": direction,
            "coupling": "from_n" if fresnel else "explicit",
            "omega": sc.omega,
            "t_final": outcome.t_final,
            "schedule": sc.schedule,
            "tag": outcome.scenario_tag,
        },
        "input": inp,
        "output": out_blocks,
        "conditional": conditional,
        "predictions": predictions,
        "measured": measured,
        "deviations": deviations,
        "tolerances": tolerances,
        "checks": checks,
        "diagnostics": {
            "resampling_drift": outcome.resampling_drift,
            "guard_fraction": result.guard_fraction,
            "non_asymptotic_times": crossing_times,
            "asymptotic_final": outcome.asymptotic,
        },
    }
    return summary, sum(verdict == "fail" for verdict in checks.values())


#: The series columns, selected from each row's time, branch and :func:`_block`.
SERIES_HEADER = ("time", "branch", "norm", "centroid", "energy", "dyn_momentum", "field_momentum", "abraham_momentum")
#: The tables :func:`_write_snapshots` writes, in order.
SNAPSHOT_TABLES = ("snapshot_position", "snapshot_spectrum", "snapshot_field")


def _write_snapshots(
    out_dir: Path, sc: Scenario, result: ScenarioResult, fmt: str
) -> list[Path]:
    """Position, spectrum and field-density tables of the final state; the field density is
    ``|E_y|^2 + |E_z|^2`` of the map's total spectrum moved to the final time in its outgoing media.
    The three are written in one pass over blocks of rows by :func:`_write_tables`, which formats each block
    of ``grid.x`` once for the position and field tables, and frames the zeros outside each column's nonzero
    span (a branch outside its window) from a constant cell.  The field, built first, leaves only its density."""
    outcome = result.outcome
    grid = outcome.total.grid
    fp = field_profile(outcome.spectra["total"], outcome.outgoing, sc.hbar, outcome.t_final)
    e_density = np.abs(fp.e_y) ** 2 + np.abs(fp.e_z) ** 2
    del fp
    columns = (
        {
            "x": grid.x,
            "transmitted": _density(outcome.transmitted),
            "reflected": _density(outcome.reflected),
            "total": _density(outcome.total),
        },
        {
            "k": grid.k,
            "transmitted": _density(outcome.spectra["transmitted"]),
            "reflected": _density(outcome.spectra["reflected"]),
        },
        {"x": grid.x, "e_density": e_density},
    )
    tables = zip(SNAPSHOT_TABLES, columns)
    return _write_tables(fmt, *((out_dir / name, tuple(cols), tuple(cols.values())) for name, cols in tables))


def _output_names(output_cfg: dict[str, Any], fmt: str) -> dict[str, str]:
    """The file name of each output of ``run``; two outputs of one file name are refused."""
    suffix = "." + fmt
    names = {"summary": output_cfg.get("summary", "summary.json"),
             "series": Path(output_cfg.get("series", "series.csv")).stem + suffix}
    names |= {table: table + suffix for table in SNAPSHOT_TABLES if output_cfg.get("snapshots", False)}
    owners: dict[str, str] = {}
    for output, name in names.items():
        if owners.setdefault(name, output) != output:
            raise ConfigurationError(f"the {owners[name]} and {output} outputs would both be written to {name!r}")
    return names


def cmd_run(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    output_cfg = cfg.get("output", {})
    names = _output_names(output_cfg, args.fmt)
    sc = _scenario_from_config(cfg)
    result = run_scenario(sc)
    summary, breaches = _summarize(cfg, sc, result)

    series = [{"time": row.time, "branch": row.branch} | _block(row) for row in result.rows]
    with _output_set(args.out) as stage:
        summary_path = stage / names["summary"]
        summary_path.write_text(_dump_json(summary) + "\n")
        written = [summary_path, _write_table(stage / names["series"], SERIES_HEADER, series, args.fmt)]
        if output_cfg.get("snapshots", False):
            written.extend(_write_snapshots(stage, sc, result, args.fmt))

    print(f"scenario: {summary['scenario']['tag']}")
    for name in CHECKS:
        dev = summary["deviations"][name]
        print(f"  {name:<18} deviation {'n/a' if dev is None else FLOAT % dev:<24} [{summary['checks'][name]}]")
    for path in written:
        print(f"wrote {Path(args.out, path.name)}")
    if args.strict and breaches:
        print(f"strict mode: {breaches} tolerance breach(es)", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# check

#: Largest ``check --steps``; each step is one table row held in memory.
MAX_CHECK_STEPS = 100_000

def cmd_check(args: argparse.Namespace) -> int:
    if not (_is_positive_real(args.n_min) and _is_positive_real(args.n_max) and args.n_max >= args.n_min):
        raise ConfigurationError(f"need 0 < n_min <= n_max, got [{args.n_min}, {args.n_max}]")
    if not 1 <= args.steps <= MAX_CHECK_STEPS:
        raise ConfigurationError(f"steps must be in [1, {MAX_CHECK_STEPS}], got {args.steps}")
    try:
        tolerance = _parse_tolerance(args.tolerance)
    except ValueError as exc:
        raise ConfigurationError(str(exc)) from None
    with np.errstate(over="ignore"):  # with n_max near the float maximum, the last point overflows before it is set
        values = np.linspace(args.n_min, args.n_max, args.steps) if args.steps > 1 else np.array([args.n_min])
    rows: list[dict[str, Any]] = []
    worst = 0.0
    failures = 0
    for n in values:
        n = float(n)
        rates = fresnel_rates(n)
        cross, d_minus, d_plus = stokes_residuals(rates)
        try:
            recovered = rates_from_omega(omega_from_n(n))
        except DomainError as exc:
            raise ConfigurationError(str(exc)) from None
        roundtrip = max(
            abs(recovered.t_minus - rates.t_minus),
            abs(recovered.t_plus - rates.t_plus),
            abs(recovered.r_minus - rates.r_minus),
            abs(recovered.r_plus - rates.r_plus),
        )
        ratio_in, closed_in, post_in = _momentum_ratios(rates, n, +1)
        ratio_out, closed_out, post_out = _momentum_ratios(rates, n, -1)
        dev = max(
            cross, d_minus, d_plus, roundtrip,
            abs(ratio_in - closed_in), abs(ratio_out - closed_out),
        )
        worst = max(worst, dev)
        ok = dev <= tolerance
        failures += 0 if ok else 1
        rows.append({
            "n": n, "t": rates.t_plus.real, "r_minus": rates.r_minus.real, "r_plus": rates.r_plus.real,
            "stokes_cross": cross, "stokes_minus": d_minus, "stokes_plus": d_plus, "omega_roundtrip": roundtrip,
            "momentum_ratio_in": ratio_in, "momentum_ratio_in_closed": closed_in, "momentum_ratio_out": ratio_out,
            "momentum_ratio_out_closed": closed_out, "postselected_in": post_in, "postselected_out": post_out,
            "pass": ok,
        })
    with _output_set(args.out) as stage:
        path = _write_table(stage / "check", tuple(rows[0]), rows, args.fmt)
    verdict = "PASS" if failures == 0 else f"FAIL ({failures} of {len(rows)} indices)"
    print(
        f"check: {len(rows)} indices in [{FLOAT % args.n_min}, {FLOAT % args.n_max}], "
        f"max deviation {FLOAT % worst} (tolerance {FLOAT % tolerance}): {verdict}"
    )
    print(f"wrote {Path(args.out, path.name)}")
    return 1 if args.strict and failures else 0


# ---------------------------------------------------------------------------
# dyson

#: Largest ``dyson --terms``; each term is one partial sum and one table row.
MAX_DYSON_TERMS = 10_000

def cmd_dyson(args: argparse.Namespace) -> int:
    q = args.omega_ratio
    if not q >= 0:
        raise ConfigurationError(f"omega ratio must be finite and >= 0, got {q!r}")
    try:
        mc = MirrorCoupling(omega=-2j * q, c_ref=1.0)
    except DomainError:  # q, or the coupling 2q, is not finite
        raise ConfigurationError(f"omega ratio must be finite and >= 0, with 2q finite, got {q!r}") from None
    if not 1 <= args.terms <= MAX_DYSON_TERMS:
        raise ConfigurationError(f"terms must be in [1, {MAX_DYSON_TERMS}], got {args.terms}")
    sums = dyson_partial_sums(mc, args.terms)
    divergent = not mc.is_resummable
    rows: list[dict[str, Any]] = []
    breaches = 0
    exact = None if divergent else rates_from_omega(mc)
    for order, (t_part, r_part) in enumerate(sums):
        err_t = bound_t = within_t = err_r = bound_r = within_r = None  # a divergent series has no limit
        if exact is not None:
            err_t = abs(t_part - exact.t_plus)
            err_r = abs(r_part - exact.r_plus)
            bound_t = dyson_remainder_bound(mc, order, "t")
            bound_r = dyson_remainder_bound(mc, order, "r")
            within_t = err_t <= bound_t + REMAINDER_ROUNDING_FLOOR
            within_r = err_r <= bound_r + REMAINDER_ROUNDING_FLOOR
            breaches += 0 if (within_t and within_r) else 1
        rows.append({
            "order": order, "t_partial": t_part.real, "r_partial": r_part.real, "err_t": err_t, "bound_t": bound_t,
            "within_t": within_t, "err_r": err_r, "bound_r": bound_r, "within_r": within_r, "divergent": divergent,
        })
    with _output_set(args.out) as stage:
        path = _write_table(stage / "dyson", tuple(rows[0]), rows, args.fmt)
    if divergent:
        print(
            f"dyson: q = {FLOAT % q} >= 1, series divergent; partial sums do not settle"
        )
    else:
        verdict = "PASS" if breaches == 0 else f"FAIL ({breaches} orders outside bound)"
        print(
            f"dyson: q = {FLOAT % q}, {len(rows)} orders, geometric tail bound: {verdict}"
        )
    print(f"wrote {Path(args.out, path.name)}")
    return 1 if args.strict and breaches else 0


# ---------------------------------------------------------------------------
# entry point

#: glibc's ``mallopt`` parameters, and the values :func:`_keep_freed_pages` gives them.  Blocks
#: from 16 MiB up (a 2^20-point channel) stay mapped: on the heap, the holes they leave raised
#: a 2^20-point run's peak RSS from 280 to 311 MiB at glibc's 64-bit maximum of 32 MiB.  Above
#: a 48 MiB trim threshold a warm 2^17-point interface run faults no page in again; at 32 MiB
#: it faulted about 8,400 per run.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD, _TRIM_THRESHOLD = 16 * 2**20, 64 * 2**20


@functools.cache
def _keep_freed_pages() -> None:
    """On Linux with glibc, fix malloc's mmap and trim thresholds for this process.

    pocketfft allocates and frees its scratch in every call, and glibc's dynamic
    thresholds then hand the top of the heap back to the kernel, so each run
    faults its whole working set in again.  Setting either threshold turns the
    dynamic ones off, so both are set.  Elsewhere, or without ``mallopt``, this
    does nothing; library callers are not affected.
    """
    if sys.platform.startswith("linux"):
        mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
        if mallopt is not None:
            mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
            mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
            mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process, on first use."""
    parser = argparse.ArgumentParser(
        prog="blipsim",
        description="Single-photon wave packets at mirrors and dielectric boundaries.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=".", metavar="DIR", help="output directory")
    common.add_argument(
        "--format", dest="fmt", choices=("csv", "json"), default="csv",
        help="table format (default csv)",
    )
    common.add_argument(
        "--strict", action="store_true",
        help="exit 1 when any tolerance check fails",
    )

    p_run = sub.add_parser("run", parents=[common], help="run a scenario from a config file")
    p_run.add_argument("--config", required=True, metavar="PATH")
    p_run.set_defaults(handler=cmd_run)

    p_check = sub.add_parser(
        "check", parents=[common], help="closed-form identity sweep over an index range"
    )
    p_check.add_argument("--n-min", type=float, default=1.0)
    p_check.add_argument("--n-max", type=float, default=10.0)
    p_check.add_argument("--steps", type=int, default=100, help=f"at most {MAX_CHECK_STEPS}")
    p_check.add_argument("--tolerance", type=float, default=1e-12)
    p_check.set_defaults(handler=cmd_check)

    p_dyson = sub.add_parser(
        "dyson", parents=[common], help="partial-sum convergence table for a coupling ratio"
    )
    p_dyson.add_argument(
        "--omega-ratio", type=float, required=True, metavar="Q",
        help="series parameter q = |Omega|/(2c)",
    )
    p_dyson.add_argument("--terms", type=int, default=12, help=f"at most {MAX_DYSON_TERMS}")
    p_dyson.set_defaults(handler=cmd_dyson)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    _keep_freed_pages()
    try:
        return args.handler(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (BlipSimError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
