"""End-to-end tests of the ``blipsim`` command line.

Everything drives ``cli.main(argv)`` in-process except one subprocess check
of the installed console script.  Scenarios use a small 2048-point grid so
the whole file stays fast.
"""

import configparser
import contextlib
import csv
import io
import json
import re
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from blipsim import cli, fields, lattice, propagation, spectral

from test_lattice import NUDGE, TAIL_SIGMAS


REPO = Path(__file__).resolve().parents[1]

BASE = {
    "grid": {"x_min": "-50", "x_max": "50", "n_points": "2048"},
    "packet": {"direction": "+1", "polarization": "H", "x0": "-15", "k0": "20", "sigma": "1.5"},
    "media": {"n": "2.0"},
    "schedule": {"times": "0, 45"},
}


def read_config(path):
    parser = configparser.ConfigParser(interpolation=None)
    parser.read(path)
    return {name: dict(parser[name]) for name in parser.sections()}


#: The committed left-mover: x0 = 30 in the n = 2 medium, out into the reference one.
GLASS_TO_AIR = read_config(REPO / "configs" / "glass_to_air.ini")


def write_config(path, overrides=None, drop=(), base=BASE):
    sections = {name: dict(keys) for name, keys in base.items() if name not in drop}
    for name, keys in (overrides or {}).items():
        sections.setdefault(name, {}).update(keys)
    lines = []
    for name, keys in sections.items():
        lines.append(f"[{name}]")
        lines.extend(f"{key} = {val}" for key, val in keys.items())
        lines.append("")
    path.write_text("\n".join(lines))
    return path


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_run_passes_all_checks(tmp_path, capsys):
    cfg = write_config(tmp_path / "scenario.ini")
    out = tmp_path / "out"
    rc = cli.main(["run", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "scenario:" in text
    assert "[fail]" not in text

    summary = json.loads((out / "summary.json").read_text())
    assert summary["command"] == "run"
    assert summary["scenario"]["n"] == 2.0
    assert set(summary["checks"].values()) == {"pass"}
    assert abs(summary["measured"]["energy_ratio"] - 1.0) < 1e-12
    assert abs(summary["measured"]["unitarity"] - 1.0) < 1e-12
    # air-to-medium momentum gain at n = 2: (3n - 1)/(n + 1) = 5/3
    assert abs(summary["measured"]["momentum_ratio"] - 5.0 / 3.0) < 1e-9
    assert abs(summary["predictions"]["momentum_ratio_closed_form"] - 5.0 / 3.0) < 1e-15
    assert abs(summary["measured"]["conditional_transmitted_momentum_ratio"] - 2.0) < 1e-9
    assert summary["diagnostics"]["asymptotic_final"] is True


def test_series_table_shape(tmp_path):
    cfg = write_config(tmp_path / "scenario.ini")
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    header, rows = read_csv(out / "series.csv")
    assert header == ["time", "branch", "norm", "centroid", "energy", "dyn_momentum", "field_momentum", "abraham_momentum"]
    # one incoming row at t = 0, three branch rows at t = 45
    assert [(r[0], r[1]) for r in rows] == [
        ("0", "incoming"),
        ("45", "transmitted"),
        ("45", "reflected"),
        ("45", "total"),
    ]
    assert all(len(r) == 8 for r in rows)
    total = rows[-1]
    assert abs(float(total[2]) - 1.0) < 1e-12


def test_reruns_are_byte_identical(tmp_path):
    cfg = write_config(tmp_path / "scenario.ini", {"output": {"snapshots": "true"}})
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out1)]) == 0
    assert cli.main(["run", "--config", str(cfg), "--out", str(out2)]) == 0
    names = sorted(p.name for p in out1.iterdir())
    assert names == sorted(p.name for p in out2.iterdir())
    assert "snapshot_position.csv" in names
    assert "snapshot_spectrum.csv" in names
    assert "snapshot_field.csv" in names
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="glibc's malloc thresholds are set on Linux only")
def test_a_warm_rerun_faults_in_almost_no_pages(tmp_path):
    """``main`` fixes glibc's mmap and trim thresholds, so a rerun in the same
    process reuses the heap pages the first run freed instead of faulting them
    in again (about 1,800 minor faults per rerun of the reference config without)."""
    import resource  # POSIX only

    argv = ["run", "--config", str(REPO / "configs" / "air_to_glass.ini"), "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 0
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    assert cli.main(argv) == 0
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults < 100, faults


def test_json_table_format(tmp_path):
    cfg = write_config(tmp_path / "scenario.ini")
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out), "--format", "json"]) == 0
    rows = json.loads((out / "series.json").read_text())
    assert len(rows) == 4
    assert list(rows[0].keys()) == ["time", "branch", "norm", "centroid", "energy", "dyn_momentum", "field_momentum", "abraham_momentum"]
    assert rows[0]["branch"] == "incoming"
    assert rows[0]["centroid"] == pytest.approx(-15.0, abs=1e-9)


def test_config_errors_exit_2_and_write_nothing(tmp_path, capsys):
    cases = {
        "missing_section": dict(drop=("schedule",)),
        "missing_key": dict(overrides={"grid": {}}, drop=("grid",)),
        "unknown_section": dict(overrides={"extras": {"mode": "fast"}}),
        "unknown_key": dict(overrides={"grid": {"spacing": "1"}}),
        "bad_value": dict(overrides={"packet": {"sigma": "banana"}}),
        "bad_direction": dict(overrides={"packet": {"direction": "2"}}),
        "bad_polarization": dict(overrides={"packet": {"polarization": "X"}}),
        "media_both_forms": dict(
            overrides={
                "media": {
                    "left_epsilon": "1", "left_mu": "1",
                    "right_epsilon": "4", "right_mu": "1",
                }
            }
        ),
        "omega_without_explicit": dict(overrides={"coupling": {"omega": "0.5j"}}),
        "bad_coupling_source": dict(overrides={"coupling": {"source": "guess"}}),
        "negative_index": dict(overrides={"media": {"n": "-1"}}),
        "zero_index": dict(overrides={"media": {"n": "0"}}),
        "nan_index": dict(overrides={"media": {"n": "nan"}}),
        "zero_area": dict(overrides={"media": {"area": "0"}}),
        "infinite_c0": dict(overrides={"media": {"c0": "inf"}}),
        "overflowing_medium": dict(overrides={"media": {"n": "1e200", "c0": "1e-200"}}),
        "overflowing_permittivity": dict(overrides={"media": {"n": "2", "c0": "1e-160"}}),
        "speedless_medium": dict(
            overrides={"media": {"left_epsilon": "1e300", "left_mu": "1e300", "right_epsilon": "4", "right_mu": "1"}},
            drop=("media",),
        ),
        "nan_omega": dict(overrides={"coupling": {"source": "explicit", "omega": "nan"}}),
        "divergent_omega": dict(overrides={"coupling": {"source": "explicit", "omega": "-3j"}}),
        "empty_schedule": dict(overrides={"schedule": {"times": " , "}}),
        # 6e15 cells of 16384 from x = 0: no transform could translate it, and the scatterer is off the grid
        "far_origin": dict(overrides={
            "grid": {"x_min": "1e20", "x_max": "100000000000033554432"},
            "packet": {"direction": "-1", "x0": "100000000000016777216", "k0": "-5e-5", "sigma": "1e5"},
        }),
    }
    bad_keys = {
        "negative_index": "'n'", "zero_index": "'n'", "nan_index": "'n'", "zero_area": "'area'",
        "infinite_c0": "'c0'", "overflowing_medium": "[media]", "speedless_medium": "[media]", "nan_omega": "'omega'",
        "overflowing_permittivity": "c0 = 1e-160 give no finite permittivity",
        "divergent_omega": "'omega'", "bad_direction": "'direction'", "bad_polarization": "'polarization'",
        "bad_coupling_source": "'source'", "empty_schedule": "at least one",
        "far_origin": "fewer than 2**52 - n_points cells from x = 0",
    }
    for name, case in cases.items():
        cfg = write_config(
            tmp_path / f"{name}.ini", case.get("overrides"), case.get("drop", ())
        )
        out = tmp_path / f"out_{name}"
        rc = cli.main(["run", "--config", str(cfg), "--out", str(out)])
        assert rc == 2, name
        assert not out.exists(), name
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and bad_keys.get(name, "") in err, (name, err)
    rc = cli.main(["run", "--config", str(tmp_path / "absent.ini"), "--out", str(tmp_path / "o")])
    assert rc == 2


def test_a_borderline_in_state_exits_3_and_writes_nothing(tmp_path, capsys):
    """1.6e-11 of the packet's weight in the guard band and 8.4e-11 past it:
    the t = 0 report is neither incoming nor a crossing, the run is refused."""
    cfg = write_config(tmp_path / "scenario.ini", {
        "grid": {"x_min": "-200", "x_max": "200", "n_points": "16384"},
        "packet": {"x0": "-51", "k0": "30", "sigma": "8"},
        "schedule": {"times": "0, 140"},
    })
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 3
    assert not out.exists()
    assert "GUARD_TOL" in capsys.readouterr().err


def test_a_point_mirror_run_with_snapshots_transforms_its_input_once(tmp_path, monkeypatch):
    """One forward transform per incident channel: the map's own.  The
    snapshot field density re-phases the map's total spectrum instead of
    transforming the position total back."""
    forwards = []
    forward = spectral._forward

    def counting_forward(grid, s, values):
        forwards.append(np.size(values))
        return forward(grid, s, values)

    monkeypatch.setattr(spectral, "_forward", counting_forward)
    overrides = {
        "media": {"n": "1.0"},
        "coupling": {"source": "explicit", "omega": "-0.6j"},
        "output": {"snapshots": "true"},
    }
    cfg = write_config(tmp_path / "mirror.ini", overrides)
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "snapshot_field.csv").exists()
    assert forwards == [2048]


def test_runtime_error_exits_3_without_partial_outputs(tmp_path, capsys):
    # the reflected branch would leave the grid by t = 400
    cfg = write_config(tmp_path / "scenario.ini", {"schedule": {"times": "0, 400"}})
    out = tmp_path / "out"
    rc = cli.main(["run", "--config", str(cfg), "--out", str(out)])
    assert rc == 3
    assert not out.exists()
    assert "error:" in capsys.readouterr().err


def test_a_schedule_ending_before_the_crossing_names_that_remedy(tmp_path, capsys):
    """From x0 = 150 at c/2 the packet reaches x = 0 at t = 300.  Ending at
    t = 10, the map's s = -1 transmitted image, stretched by n = 2, is still
    off the grid, and only extending the schedule past the crossing helps."""
    early = {"packet": {"x0": "150"}, "schedule": {"times": "0, 10"}}
    out = tmp_path / "early"
    rc = cli.main(["run", "--config", str(write_config(tmp_path / "early.ini", early, base=GLASS_TO_AIR)),
                   "--out", str(out), "--strict"])
    assert rc == 3 and not out.exists()
    err = capsys.readouterr().err
    assert "the transmitted branch would span [261.875, 318.125]" in err
    assert err.rstrip().endswith(
        "the schedule ends before the packet reaches x = 0: extend it past the crossing or enlarge the grid"
    )
    extended = {"packet": {"x0": "150"}, "schedule": {"times": "0, 10, 400"}}
    cfg = write_config(tmp_path / "extended.ini", extended, base=GLASS_TO_AIR)
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "extended"), "--strict"]) == 0


def test_strict_mode_flags_tolerance_breaches(tmp_path):
    overrides = {"tolerances": {"energy_ratio": "0", "momentum_ratio": "0", "unitarity": "0"}}
    cfg = write_config(tmp_path / "scenario.ini", overrides)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert "fail" in summary["checks"].values()
    assert summary["tolerances"]["energy_ratio"] == 0.0
    rc = cli.main(["run", "--config", str(cfg), "--out", str(out), "--strict"])
    assert rc == 1


def test_strict_mode_fails_a_run_that_never_became_asymptotic(tmp_path):
    """With times 0, 10 the reference packet never reaches x = 0: the map's
    ratios are extrapolated, so strict mode must not pass."""
    reference = Path(__file__).resolve().parents[1] / "configs" / "air_to_glass.ini"
    text = reference.read_text()
    assert "times = 0, 30, 140" in text
    cfg = tmp_path / "early.ini"
    cfg.write_text(text.replace("times = 0, 30, 140", "times = 0, 10").replace(
        "snapshots = true", "snapshots = false"))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["checks"]["asymptotic"] == "fail"
    assert summary["deviations"]["asymptotic"] == summary["diagnostics"]["guard_fraction"]
    assert summary["tolerances"]["asymptotic"] == 1e-10
    assert summary["diagnostics"]["asymptotic_final"] is False
    assert cli.main(["run", "--config", str(cfg), "--out", str(out), "--strict"]) == 1
    # the check lives in [tolerances] like every other one
    loose = tmp_path / "loose.ini"
    loose.write_text(cfg.read_text() + "\n[tolerances]\nasymptotic = 1\n")
    assert cli.main(["run", "--config", str(loose), "--out", str(out), "--strict"]) == 0


@pytest.fixture(scope="module")
def reference_run(tmp_path_factory):
    """``configs/air_to_glass.ini`` without snapshots: its summary and its printed lines."""
    tmp = tmp_path_factory.mktemp("reference")
    cfg = tmp / "reference.ini"
    cfg.write_text((REPO / "configs" / "air_to_glass.ini").read_text().replace("snapshots = true", "snapshots = false"))
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert cli.main(["run", "--config", str(cfg), "--out", str(tmp / "out"), "--strict"]) == 0
    return cfg, json.loads((tmp / "out" / "summary.json").read_text()), stdout.getvalue().splitlines()


@pytest.mark.parametrize("name", list(cli.CHECKS))
def test_a_zero_tolerance_fails_each_check_that_deviates(tmp_path, reference_run, name):
    """Every entry of the check table is a ``[tolerances]`` key: at 0 it fails a
    check whose deviation on the reference run is above 0, and passes one at 0."""
    cfg, summary, _ = reference_run
    deviates = summary["deviations"][name] > 0
    strict = tmp_path / "strict.ini"
    strict.write_text(cfg.read_text() + f"\n[tolerances]\n{name} = 0\n")
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(strict), "--out", str(out)]) == 0
    checks = json.loads((out / "summary.json").read_text())["checks"]
    assert checks == {**summary["checks"], name: "fail" if deviates else "pass"}
    assert cli.main(["run", "--config", str(strict), "--out", str(out), "--strict"]) == (1 if deviates else 0)


def test_the_check_blocks_and_printed_lines_follow_the_check_table(reference_run):
    _, summary, lines = reference_run
    names = list(cli.CHECKS)
    assert [list(summary[block]) for block in ("deviations", "tolerances", "checks")] == [names] * 3
    assert list(cli._SCHEMA["tolerances"]) == names
    assert summary["tolerances"] == {name: default for name, (default, _) in cli.CHECKS.items()}
    printed = [line for line in lines if line.startswith("  ")]
    assert printed == [
        f"  {name:<18} deviation {cli.FLOAT % summary['deviations'][name]:<24} [{summary['checks'][name]}]"
        for name in names
    ]
    assert lines[0].startswith("scenario: ") and lines[1:len(names) + 1] == printed


#: ``run --strict`` paths the other tests leave out, as (overrides, dropped
#: sections) of ``configs/glass_to_air.ini``.
RUN_PATHS = {
    # the -1 branch of the direction parser: out of the denser medium
    "glass_to_air": ({}, ()),
    # explicit epsilon/mu pairs that make the same n = 2 boundary
    "explicit_media": ({"media": {"left_epsilon": "1", "left_mu": "1", "right_epsilon": "4", "right_mu": "1"}},
                       ("media",)),
    # no [media] section: n = 1 reflects nothing
    "unit_index": ({}, ("media",)),
    # a point mirror with q = 0.9999999 transmits too little to post-select
    "opaque_mirror": ({"coupling": {"source": "explicit", "omega": "-1.9999998j"}}, ("media",)),
}


def run_strict(tmp_path, case):
    overrides, drop = RUN_PATHS[case]
    cfg = write_config(tmp_path / f"{case}.ini", overrides, drop, base=GLASS_TO_AIR)
    out = tmp_path / case
    assert cli.main(["run", "--config", str(cfg), "--out", str(out), "--strict"]) == 0
    return json.loads((out / "summary.json").read_text())


@pytest.mark.parametrize("case", list(RUN_PATHS))
def test_run_paths_pass_strict(tmp_path, capsys, case):
    summary = run_strict(tmp_path, case)
    if case == "glass_to_air":
        # (3 - n)/(n + 1) = 1/3 in all, and 1/n post-selected on transmission
        assert summary["scenario"]["direction"] == -1
        assert summary["measured"]["momentum_ratio"] == pytest.approx(1.0 / 3.0, rel=1e-6)
        assert summary["measured"]["conditional_transmitted_momentum_ratio"] == pytest.approx(0.5, rel=1e-6)
    elif case == "explicit_media":
        want = run_strict(tmp_path, "glass_to_air")
        assert summary.pop("config") != want.pop("config")
        assert summary == want
    elif case == "unit_index":
        assert summary["scenario"]["n"] == 1.0
        assert summary["conditional"]["reflected"] is None
    else:
        assert summary["conditional"]["transmitted"] is None
        assert summary["checks"]["conditional_ratio"] == "skipped"
        assert f"  {'conditional_ratio':<18} deviation {'n/a':<24} [skipped]" in capsys.readouterr().out.splitlines()


def test_a_vanishing_momentum_prediction_passes_strict(tmp_path):
    """(3 - n)/(n + 1) is 2.5e-11 at n = 3.0000000001: the deviation is held to
    the input's momentum scale, 1, not to the vanishing prediction."""
    overrides = {"media": {"n": "3.0000000001"}, "schedule": {"times": "0, 200"}}
    cfg = write_config(tmp_path / "near_three.ini", overrides, base=GLASS_TO_AIR)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out), "--strict"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert abs(summary["predictions"]["momentum_ratio"]) < 1e-10
    assert summary["checks"]["momentum_ratio"] == "pass"


def test_a_spectrum_reaching_k_zero_exits_2_and_writes_nothing(tmp_path, capsys):
    """k0 = 2 with sigma_k = 0.5 puts 3e-5 of the spectrum across k = 0, where
    the energy's |k| has a kink that a lattice sum does not resolve."""
    cfg = write_config(tmp_path / "slow_carrier.ini", {
        "grid": {"x_min": "-160", "x_max": "160", "n_points": "4096"},
        "packet": {"x0": "-9", "k0": "2", "sigma": "1"},
        "schedule": {"times": "0, 18"},
    })
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out), "--strict"]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("configuration error: carrier k0=2.0 leaves 3.167e-05") and "across k = 0" in err, err


@settings(max_examples=15, deadline=None, database=None)
@given(sigma=st.floats(1.0, 1.5), sign=st.sampled_from((+1.0, -1.0)))
def test_a_carrier_just_across_the_k_zero_guard_exits_2_and_just_inside_passes_strict(sigma, sign):
    """|k0| a millionth inside the k = 0 guard's boundary, TAIL_SIGMAS
    sigma_k, is refused; a millionth outside it the run passes --strict."""
    boundary = TAIL_SIGMAS * 0.5 / sigma
    with tempfile.TemporaryDirectory() as tmp:
        for nudge, code in ((1.0 - NUDGE, 2), (1.0 + NUDGE, 0)):
            packet = {"k0": repr(sign * boundary * nudge), "sigma": repr(sigma)}
            cfg = write_config(Path(tmp) / f"k0-{code}.ini", {"packet": packet})
            out = Path(tmp) / f"out-{code}"
            assert cli.main(["run", "--config", str(cfg), "--out", str(out), "--strict"]) == code, (nudge, packet)
            assert out.exists() == (code == 0)


def test_the_series_config_reports_every_phase_and_passes_strict(tmp_path):
    out = tmp_path / "out"
    cfg = REPO / "configs" / "air_to_glass_series.ini"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out), "--strict"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["diagnostics"]["non_asymptotic_times"] == [50, 70]
    header, rows = read_csv(out / "series.csv")
    assert [row[1] for row in rows[:3]] == ["incoming", "incoming", "transmitted"]
    assert len(rows) == 2 + 3 * 6 and not (out / "snapshot_position.csv").exists()


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "the band cuts off the rescaled transmitted spectrum: the map's 1e-8 drift bound lets the lost "
    "weight through, and run's 1e-9 energy_ratio and unitarity and the guard fail (ROADMAP item 2)"))
@pytest.mark.parametrize("x0, k0, sigma, n", [(-39.95, 6.87, 4.49, 2.145), (-67.58, 8.47, 6.05, 1.794)])
def test_a_config_inside_the_domain_never_exits_1_under_strict(tmp_path, x0, k0, sigma, n):
    """Two draws of the documented domain on 2048 points over [-200, 200), reported at
    ``0`` and ``|x0| + 8 sigma max(1, n)``, past the crossing.  Under --strict such a run
    passes or is refused before the chirp; both exit 1 today."""
    cfg = write_config(tmp_path / "band.ini", {
        "grid": {"x_min": "-200", "x_max": "200", "n_points": "2048"},
        "packet": {"x0": repr(x0), "k0": repr(k0), "sigma": repr(sigma)},
        "media": {"n": repr(n)},
        "schedule": {"times": f"0, {abs(x0) + 8 * sigma * max(1, n)!r}"},
    })
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out"), "--strict"]) != 1


@pytest.mark.parametrize("half_width, n_points", [(200, 2048), (1600, 16384)])
def test_a_branch_whose_ringing_leaves_its_window_does_not_pass_strict(tmp_path, half_width, n_points):
    """ROADMAP item 2's config that fails only ``asymptotic``: the band cuts the rescaled transmitted
    spectrum, and its ringing reaches the scatterer (guard 1.29e-10 at N = 2048).  At N = 2048 the
    branch windows exceed a quarter of the lattice, so the map reads the branches on the whole lattice.
    At N = 2^14 over a lattice eight times as long (the same cell, so the same band cut) they fit, and
    the map zooms each branch only while its window holds the branch's spectral weight to within a
    rounding bound; this branch misses more, so it is read on the whole lattice and the guard still
    sees the ringing (1.53e-10).  A zoom kept regardless read a guard of 4.9e-11 there, and the run
    passed --strict."""
    x0, k0, sigma, n = -41.4, 9.18, 3.71, 1.609
    cfg = write_config(tmp_path / "ringing.ini", {
        "grid": {"x_min": repr(-half_width), "x_max": repr(half_width), "n_points": repr(n_points)},
        "packet": {"x0": repr(x0), "k0": repr(k0), "sigma": repr(sigma)},
        "media": {"n": repr(n)},
        "schedule": {"times": f"0, {abs(x0) + 8 * sigma * max(1, n)!r}"},
    })
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out"), "--strict"]) != 0


def test_the_wide_packet_config_runs_the_block_chirp_and_the_whole_lattice_inverse(tmp_path, monkeypatch):
    """``configs/wide_packet.ini`` runs the paths no other committed config takes: its transmitted
    spectrum is resampled by one 2x2 block chirp (its input and output windows together exceed N + 1
    points), and each branch's convolution would take more than N/4 points, so ``_position_on`` builds
    both on the whole lattice by ``_inverse`` and zooms neither.  It passes --strict, and a rerun writes
    the same bytes."""
    calls = []
    chirp, inverse, zoom = spectral._chirp_sum, spectral._inverse, spectral._zoom

    def counting_chirp(values, c, inputs=None, outputs=None, weights=None):
        windows = (inputs or (0, values.size), outputs or (0, values.size))
        calls.append("block" if sum(hi - lo for lo, hi in windows) > values.size + 1 else "chirp")
        return chirp(values, c, inputs, outputs, weights)

    monkeypatch.setattr(spectral, "_chirp_sum", counting_chirp)
    monkeypatch.setattr(spectral, "_inverse", lambda *args: calls.append("inverse") or inverse(*args))
    monkeypatch.setattr(spectral, "_zoom", lambda *args: calls.append("zoom") or zoom(*args))
    cfg, runs = REPO / "configs" / "wide_packet.ini", (tmp_path / "a", tmp_path / "b")
    assert cli.main(["run", "--config", str(cfg), "--strict", "--out", str(runs[0])]) == 0
    assert sorted(calls) == ["block", "inverse", "inverse"]
    assert cli.main(["run", "--config", str(cfg), "--strict", "--out", str(runs[1])]) == 0
    names = sorted(p.name for p in runs[0].iterdir())
    assert names == sorted(p.name for p in runs[1].iterdir()) and "snapshot_field.csv" in names
    for name in names:
        assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes(), name


def test_check_sweep_passes(tmp_path, capsys):
    out = tmp_path / "out"
    rc = cli.main(["check", "--n-min", "1", "--n-max", "4", "--steps", "7", "--out", str(out)])
    assert rc == 0
    assert "PASS" in capsys.readouterr().out
    header, rows = read_csv(out / "check.csv")
    assert header == [
        "n", "t", "r_minus", "r_plus", "stokes_cross", "stokes_minus", "stokes_plus", "omega_roundtrip",
        "momentum_ratio_in", "momentum_ratio_in_closed", "momentum_ratio_out", "momentum_ratio_out_closed",
        "postselected_in", "postselected_out", "pass",
    ]
    assert len(rows) == 7
    assert all(row[-1] == "true" for row in rows)
    mid = rows[3]  # n = 2.5
    assert float(mid[0]) == pytest.approx(2.5)
    assert float(mid[9]) == pytest.approx((3 * 2.5 - 1) / (2.5 + 1))


def test_check_strict_with_impossible_tolerance(tmp_path):
    rc = cli.main(
        ["check", "--steps", "5", "--tolerance", "1e-30", "--strict", "--out", str(tmp_path)]
    )
    assert rc == 1


def test_dyson_convergent_table(tmp_path, capsys):
    out = tmp_path / "out"
    rc = cli.main(["dyson", "--omega-ratio", "0.17157", "--terms", "12", "--out", str(out)])
    assert rc == 0
    assert "PASS" in capsys.readouterr().out
    header, rows = read_csv(out / "dyson.csv")
    assert header == [
        "order", "t_partial", "r_partial", "err_t", "bound_t", "within_t", "err_r", "bound_r", "within_r", "divergent",
    ]
    assert [int(r[0]) for r in rows] == list(range(12))
    assert all(r[5] == "true" and r[8] == "true" for r in rows)
    assert all(r[9] == "false" for r in rows)
    # partial sums settle toward the resummed amplitude
    assert float(rows[-1][3]) < float(rows[0][3])


def test_dyson_divergent_series_is_flagged(tmp_path, capsys):
    out = tmp_path / "out"
    rc = cli.main(["dyson", "--omega-ratio", "1.5", "--terms", "6", "--out", str(out)])
    assert rc == 0
    assert "divergent" in capsys.readouterr().out
    header, rows = read_csv(out / "dyson.csv")
    assert header[3:9] == ["err_t", "bound_t", "within_t", "err_r", "bound_r", "within_r"]
    assert all(r[9] == "true" for r in rows)
    assert all(r[3:9] == [""] * 6 for r in rows)  # no error columns without a limit
    assert abs(float(rows[-1][1])) > abs(float(rows[1][1]))


def test_dyson_rejects_bad_arguments(tmp_path):
    assert cli.main(["dyson", "--omega-ratio", "-0.5", "--out", str(tmp_path)]) == 2
    assert cli.main(["dyson", "--omega-ratio", "0.5", "--terms", "0", "--out", str(tmp_path)]) == 2


def report_times(count):
    """A ``[schedule]`` of ``count`` report times in ``[0, 45)``."""
    return {"schedule": {"times": ", ".join(str(45 * t / count) for t in range(count))}}


def test_loop_caps_reject_one_past_the_cap(tmp_path):
    """Only the rejection path: no sweep or series near the cap is ever started."""
    out = tmp_path / "out"
    huge = write_config(tmp_path / "huge.ini", {"grid": {"n_points": str(2 * cli.MAX_GRID_POINTS)}})
    long = write_config(tmp_path / "long.ini", report_times(propagation.MAX_REPORT_TIMES + 1))
    argvs = (
        ["check", "--steps", str(cli.MAX_CHECK_STEPS + 1)],
        ["dyson", "--omega-ratio", "0.5", "--terms", str(cli.MAX_DYSON_TERMS + 1)],
        ["run", "--config", str(huge)],
        ["run", "--config", str(long)],
    )
    for argv in argvs:
        assert cli.main([*argv, "--out", str(out)]) == 2
        assert not out.exists()


def test_a_schedule_at_the_cap_builds_a_scenario(tmp_path):
    """Only the scenario is built: ``MAX_REPORT_TIMES`` reports are never run here."""
    cfg = write_config(tmp_path / "at_cap.ini", report_times(propagation.MAX_REPORT_TIMES))
    assert len(cli._scenario_from_config(cli._load_config(str(cfg))).schedule) == propagation.MAX_REPORT_TIMES


def test_output_names_must_be_bare_file_names(tmp_path):
    out = tmp_path / "out"
    names = {
        "summary": ("sub/summary.json", "../escaped.json", str(tmp_path / "absolute.json"), "..", ""),
        "series": ("sub/series.csv", "../escaped.csv"),
    }
    for key, bad in names.items():
        for name in bad:
            cfg = write_config(tmp_path / "scenario.ini", {"output": {key: name}})
            assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 2, (key, name)
            assert not out.exists(), (key, name)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["scenario.ini"]


@pytest.mark.parametrize("output, fmt", [
    ({"summary": "series.csv"}, "csv"),
    ({"summary": "snapshot_field.csv", "snapshots": "true"}, "csv"),
    ({"series": "summary.json"}, "json"),
    ({"series": "snapshot_position.csv", "snapshots": "true"}, "csv"),
])
def test_two_outputs_of_one_file_name_exit_2_before_the_run(tmp_path, capsys, output, fmt):
    cfg = write_config(tmp_path / "scenario.ini", {"output": output})
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg), "--format", fmt, "--out", str(out)]) == 2
    assert not out.exists()
    assert "would both be written to" in capsys.readouterr().err


def test_the_series_table_keeps_every_dot_of_its_name(tmp_path):
    """Only the last suffix of an ``[output] series`` name gives way to the format's."""
    for name, fmt, placed in (("v1.2.csv", "json", "v1.2.json"), ("..csv", "csv", "..csv")):
        cfg = write_config(tmp_path / "scenario.ini", {"output": {"series": name}})
        out = tmp_path / f"out_{fmt}"
        assert cli.main(["run", "--config", str(cfg), "--format", fmt, "--out", str(out)]) == 0, name
        assert sorted(p.name for p in out.iterdir()) == sorted([placed, "summary.json"]), name


def test_out_naming_a_file_exits_3(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("keep")
    cfg = write_config(tmp_path / "scenario.ini")
    argvs = (
        ["run", "--config", str(cfg)],
        ["check", "--steps", "3"],
        ["dyson", "--omega-ratio", "0.5"],
    )
    for argv in argvs:
        assert cli.main([*argv, "--out", str(taken)]) == 3, argv
        assert "error:" in capsys.readouterr().err
        assert taken.read_text() == "keep"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["scenario.ini", "taken"]


def test_check_tolerance_must_be_finite_and_nonnegative(tmp_path):
    out = tmp_path / "out"
    for tolerance in ("nan", "inf", "-1e-12"):
        assert cli.main(["check", "--steps", "3", f"--tolerance={tolerance}", "--out", str(out)]) == 2
        assert not out.exists(), tolerance
    assert cli.main(["check", "--steps", "3", "--tolerance=0", "--out", str(out)]) == 0


def test_check_index_whose_coupling_rounds_to_one_exits_2(tmp_path, capsys):
    """Every finite n > 0 has q = |Omega|/(2c) < 1, but far enough from
    n = 1 the float q rounds to 1: such a range is refused before any file is
    written, naming the index."""
    out = tmp_path / "out"
    for argv in (["--n-max", "2e32"], ["--n-min", "3e-33"]):
        assert cli.main(["check", *argv, "--out", str(out)]) == 2, argv
        assert not out.exists(), argv
        err = capsys.readouterr().err
        assert err.startswith("configuration error: index n = ") and "q rounds to 1" in err, err


def test_run_tolerances_must_be_finite_and_nonnegative(tmp_path):
    """``[tolerances]`` follows the rule of ``check --tolerance``: refused
    before the scenario runs, with exit 2 and no output."""
    for value in ("nan", "inf", "-1"):
        cfg = write_config(tmp_path / "scenario.ini", {"tolerances": {"energy_ratio": value}})
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 2, value
        assert not out.exists(), value
    cfg = write_config(tmp_path / "scenario.ini", {"tolerances": {"energy_ratio": "0"}})
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0


def test_divergent_dyson_that_overflows_exits_3_and_writes_nothing(tmp_path, capsys):
    """Partial sums at q = 1.2 overflow to inf and nan long before 10 000 terms."""
    out = tmp_path / "out"
    assert cli.main(["dyson", "--omega-ratio", "1.2", "--terms", "10000", "--out", str(out)]) == 3
    assert "non-finite" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_dyson_at_a_huge_or_infinite_q_ends_with_an_exit_code(tmp_path, capsys):
    """At q = 1e200 the partial sums overflow (exit 3); a q whose coupling 2q is
    not finite, or that is not finite itself, is refused (exit 2)."""
    for q, rc, err in (("1e200", 3, "non-finite"), ("1e308", 2, "finite and >= 0"), ("inf", 2, "finite and >= 0")):
        out = tmp_path / f"out_{q}"
        assert cli.main(["dyson", "--omega-ratio", q, "--out", str(out)]) == rc, q
        assert err in capsys.readouterr().err, q
        assert not out.exists() or list(out.iterdir()) == [], q


def test_failed_snapshot_writing_leaves_no_partial_set(tmp_path, monkeypatch):
    def fail(*args):
        raise cli.BlipSimError("snapshot writing failed")

    monkeypatch.setattr(cli, "_write_snapshots", fail)
    cfg = write_config(tmp_path / "scenario.ini", {"output": {"snapshots": "true"}})
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 3
    assert list(out.iterdir()) == []


def test_snapshot_contents_integrate_to_the_summary(tmp_path):
    cfg = write_config(tmp_path / "scenario.ini", {"output": {"snapshots": "true"}})
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    sc = cli._scenario_from_config(cli._load_config(str(cfg)))
    dx, dk = sc.packet.grid.dx, sc.packet.grid.dk

    def columns(name):
        header, rows = read_csv(out / name)
        return dict(zip(header, np.array(rows, dtype=float).T))

    close = dict(rel=1e-12, abs=1e-12)
    pos = columns("snapshot_position.csv")
    for branch in ("transmitted", "reflected", "total"):
        block = summary["output"][branch]
        norm = np.sum(pos[branch]) * dx
        assert norm == pytest.approx(block["norm"], **close), branch
        if block["centroid"] is not None:
            centroid = np.sum(pos["x"] * pos[branch]) * dx / norm
            assert centroid == pytest.approx(block["centroid"], **close), branch
    spec = columns("snapshot_spectrum.csv")
    for branch in ("transmitted", "reflected"):
        prob = np.sum(spec[branch]) * dk
        assert prob == pytest.approx(summary["output"][branch]["probability"], **close), branch
    assert spec["k"][np.argmax(spec["transmitted"])] == summary["measured"]["transmitted_peak_k"]
    fld = columns("snapshot_field.csv")
    eps = np.where(fld["x"] > 0, sc.right_medium.epsilon, sc.left_medium.epsilon)
    energy = 0.5 * sc.right_medium.area * np.sum(eps * fld["e_density"]) * dx
    assert energy == pytest.approx(summary["output"]["total"]["energy"], rel=1e-10)


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc_info:
        cli.main([])
    assert exc_info.value.code == 2


def test_console_script(tmp_path):
    exe = shutil.which("blipsim")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run(
        [exe, "check", "--steps", "3", "--out", str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "PASS" in proc.stdout
    assert (tmp_path / "check.csv").exists()


# ---------------------------------------------------------------------------
# golden outputs of the reference configs

#: Golden outputs, one directory per config: a right-mover into glass and the mirror-image left-mover out of it.
GOLDEN = REPO / "tests" / "data"
#: Rounding residues held only to their tolerance: (block, key) -> tolerance key.
RESIDUES = {
    ("deviations", "resample_drift"): "resample_drift",
    ("deviations", "asymptotic"): "asymptotic",
    ("diagnostics", "resampling_drift"): "resample_drift",
    ("diagnostics", "guard_fraction"): "asymptotic",
}


def _number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def assert_matches(got, want, scales, where=()):
    """Same keys in the same order; strings, booleans and nulls equal; numbers
    within 1e-12 relative, near zero within 1e-12 of the input block's value
    of the same quantity (``scales``)."""
    if isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), where
        for key in want:
            assert_matches(got[key], want[key], scales, (*where, key))
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            assert_matches(g, w, scales, (*where, i))
    elif _number(want):
        assert _number(got), where
        bound = 1e-12 * max(abs(want), abs(scales.get(where[-1], 0.0)))
        assert abs(got - want) <= bound, (where, got, want)
    else:
        assert got == want and type(got) is type(want), (where, got, want)


def test_reference_run_matches_the_golden_outputs(tmp_path):
    """Both directions of the map: ``s = +1`` into the denser medium and ``s = -1`` out of it."""
    def cell(text):
        try:
            return float(text)
        except ValueError:
            return text

    def table(path):
        header, rows = read_csv(path)
        return [dict(zip(header, map(cell, row))) for row in rows]

    for name in ("air_to_glass", "glass_to_air"):
        out = tmp_path / name
        assert cli.main(["run", "--config", str(REPO / "configs" / f"{name}.ini"), "--out", str(out)]) == 0
        want = json.loads((GOLDEN / name / "summary.json").read_text())
        got = json.loads((out / "summary.json").read_text())
        for (block, key), tol in RESIDUES.items():
            assert 0.0 <= got[block][key] <= want["tolerances"][tol], (name, block, key)
            got[block][key] = want[block][key]
        # a deviation is a rounding-level residue: within its tolerance, and
        # within 1e-12 of the golden value against a scale of 1, not of itself
        for key, value in got["deviations"].items():
            assert 0.0 <= value <= want["tolerances"][key], (name, key)
            assert abs(value - want["deviations"][key]) <= 1e-12 * max(abs(want["deviations"][key]), 1.0), (name, key)
            got["deviations"][key] = want["deviations"][key]
        scales = {key: val for key, val in want["input"].items() if _number(val)}
        assert_matches(got, want, scales, (name,))
        assert_matches(table(out / "series.csv"), table(GOLDEN / name / "series.csv"), scales, (name,))


# ---------------------------------------------------------------------------
# table writing and placement

def cell_oracle(header, rows):
    """Test oracle, the per-cell route: ``csv.writer`` with ``cli._text`` on every cell."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows([cli._text(v, "") for v in row] for row in rows)
    return buf.getvalue().encode()


#: Edge values of float64: signed zeros, the smallest subnormal and normal,
#: the largest finite value and tiny tails like those of a spectrum.
EDGE_FLOATS = (
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
    1.7976931348623157e308, -1.7976931348623157e308,
    1e-30, -1.2345678901234567e-30, 0.1, 1e16, 123456789.0,
)
finite_floats = (
    st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from(EDGE_FLOATS)
    | st.floats(min_value=-1e-29, max_value=1e-29)
)
float_tables = hnp.arrays(
    np.float64, st.tuples(st.integers(1, 12), st.integers(1, 5)), elements=finite_floats
)


def header_of(table):
    return tuple(f"c{i}" for i in range(table.shape[1]))


@settings(max_examples=300, deadline=None, database=None)
@given(table=float_tables)
def test_float_table_csv_matches_the_cell_oracle(table):
    with tempfile.TemporaryDirectory() as tmp:
        path = cli._write_table(Path(tmp) / "t", header_of(table), table, "csv")
        assert path.read_bytes() == cell_oracle(header_of(table), table.tolist())


def json_oracle(header, rows):
    """Test oracle of a JSON table: ``cli._dump_json`` of one dict per row."""
    return (cli._dump_json([dict(zip(header, row)) for row in rows]) + "\n").encode()


@settings(max_examples=300, deadline=None, database=None)
@given(table=float_tables)
def test_float_table_json_matches_the_dump_json_oracle(table):
    with tempfile.TemporaryDirectory() as tmp:
        path = cli._write_table(Path(tmp) / "t", header_of(table), table, "json")
        assert path.read_bytes() == json_oracle(header_of(table), table.tolist())


def edge_corpus():
    """Every power of ten in float64 with its neighbours (among them the ``%g`` switches at
    1e-5/1e-4 and 1e16/1e17), exact ties of the 18th digit, subnormals, the largest
    finite value and zero, with both signs."""
    powers = np.array([float(f"1e{k}") for k in range(-307, 309)])
    # m / 2**(k + 1) times 10**k is m 5**k / 2: for odd m < 2**53, a tie at the 18th digit
    odd = [(k, (-(-2 * 10**16 // 5**k) | 1) + j) for k in range(1, 25) for j in (0, 2, 10**6)]
    ties = [m / 2 ** (k + 1) for k, m in odd if m < 2**53]
    subnormals = [5e-324, 1e-323, 1e-310, np.nextafter(2.2250738585072014e-308, 0.0)]
    values = np.concatenate([
        powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf), ties, subnormals,
        [0.0, 2.2250738585072014e-308, np.finfo(np.float64).max, 1000000000000000.25],
    ])
    return np.concatenate([values, -values])


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_the_edge_corpus_matches_the_cell_oracle(tmp_path, fmt):
    table = edge_corpus()[:, None]
    assert len(table) > cli._BLOCK_ROWS
    path = cli._write_table(tmp_path / "t", header_of(table), table, fmt)
    oracle = cell_oracle if fmt == "csv" else json_oracle
    assert path.read_bytes() == oracle(header_of(table), table.tolist())


def layout_classes():
    """A value of each layout of a ``%.17g`` cell, with both signs: each ``%f`` exponent from -4 to 16
    and ``%e`` exponents of two and three digits at both ends of the range, times each count of
    significant digits from 1 to 17.  The digits are the first of all candidates below 4 digits, or of
    1000 random ones, whose nearest float keeps exactly them in Python's own 17 digits; no float has a
    single digit at 1e-5, 1e-274 or 1e99, so those three classes are empty."""
    rng, values = np.random.default_rng(11), []
    for e in [*range(-4, 17), -5, -10, -99, -100, -274, 17, 99, 100, 296]:
        for n in range(1, 18):
            draws = (str(m) for m in range(10 ** (n - 1), 10**n)) if n < 4 else (
                "".join(map(str, rng.integers(0, 10, n))) for _ in range(1000))
            for digits in draws:
                v = float(f"{digits[0]}.{digits[1:]}e{e}")
                mantissa, exponent = f"{v:.16e}".split("e")
                if len(mantissa.replace(".", "").rstrip("0")) == n and int(exponent) == e:
                    values.append(v)
                    break
    assert len(values) == 30 * 17 - 3
    return np.array(values + [-v for v in values])


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_every_layout_class_matches_the_cell_oracle(tmp_path, fmt):
    table = layout_classes().reshape(-1, 6)
    path = cli._write_table(tmp_path / "t", header_of(table), table, fmt)
    oracle = cell_oracle if fmt == "csv" else json_oracle
    assert path.read_bytes() == oracle(header_of(table), table.tolist())


@settings(max_examples=300, deadline=None, database=None)
@given(bits=hnp.arrays(np.uint64, st.tuples(st.integers(1, 12), st.integers(1, 5)), elements=st.integers(0, 2**64 - 1)))
def test_float_tables_of_raw_bit_patterns_match_the_cell_oracle(bits):
    """Any float64 bit pattern, so every exponent and both signs are as likely; rows with a NaN or an
    infinity are left out."""
    table = bits.view(np.float64)
    table = table[np.isfinite(table).all(axis=1)]
    with tempfile.TemporaryDirectory() as tmp:
        path = cli._write_table(Path(tmp) / "t", header_of(table), table, "csv")
        assert path.read_bytes() == cell_oracle(header_of(table), table.tolist())


def test_few_reference_snapshot_cells_reach_the_fallback(tmp_path, monkeypatch):
    """The reference snapshots are written by the fast path: at most 1e-4 of their cells lie within
    ``_MARGIN`` of a tie or a decade edge and go to ``_text``."""
    tables, texts = [], []
    write, text = cli._write_table, cli._text
    monkeypatch.setattr(cli, "_write_table", lambda base, header, rows, fmt: tables.append(rows) or write(
        base, header, rows, fmt))
    assert cli.main(["run", "--config", str(REPO / "configs" / "air_to_glass.ini"), "--out", str(tmp_path)]) == 0
    values = np.concatenate([rows.ravel() for rows in tables if isinstance(rows, np.ndarray)])
    monkeypatch.setattr(cli, "_text", lambda v, null: texts.append(v) or text(v, null))
    cli._cells(values)
    assert values.size == 147456 and len(texts) <= 1e-4 * values.size


def test_a_decade_edge_and_an_exact_power_of_ten_print_as_by_the_cell(tmp_path, monkeypatch):
    """1e-12 lies just below its decade, so its 17 digits start one decade lower;
    1e20 scales to 10**16 within the margin, so ``_text`` writes it."""
    texts = []
    text = cli._text
    monkeypatch.setattr(cli, "_text", lambda v, null: texts.append(v) or text(v, null))
    path = cli._write_table(tmp_path / "t", ("a", "b"), np.array([[1e-12, 1e20]]), "csv")
    assert path.read_bytes() == b"a,b\r\n9.9999999999999998e-13,1e+20\r\n"
    assert texts == [1e20]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_every_cell_on_the_fallback_gives_the_same_bytes(tmp_path, monkeypatch, fmt):
    """With every product reported as a tie, each cell is written by ``_text``."""
    table = np.concatenate([edge_corpus(), np.random.default_rng(7).standard_normal(4000)]).reshape(-1, 4)
    fast = cli._write_table(tmp_path / "fast", header_of(table), table, fmt).read_bytes()
    texts = []
    text, scaled = cli._text, cli._scaled
    monkeypatch.setattr(cli, "_text", lambda v, null: texts.append(v) or text(v, null))
    monkeypatch.setattr(cli, "_scaled", lambda a, e: (scaled(a, e)[0], np.full(a.shape, 0.5)))
    slow = cli._write_table(tmp_path / "slow", header_of(table), table, fmt).read_bytes()
    assert len(texts) == table.size
    assert slow == fast


@settings(max_examples=100, deadline=None, database=None)
@given(
    table=float_tables,
    bad=st.sampled_from((float("nan"), float("inf"), float("-inf"))),
    where=st.integers(min_value=0),
    fmt=st.sampled_from(("csv", "json")),
)
def test_non_finite_float_table_fails_and_places_nothing(table, bad, where, fmt):
    table.flat[where % table.size] = bad
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        with pytest.raises(cli.BlipSimError, match="non-finite"):
            with cli._output_set(str(out)) as stage:
                cli._write_table(stage / "t", header_of(table), table, fmt)
        assert list(out.iterdir()) == []


def test_reference_snapshots_match_the_cell_oracle(tmp_path, monkeypatch):
    tables = {}
    write = cli._write_table

    def capture(base, header, rows, fmt):
        tables[base.name] = (header, rows)
        return write(base, header, rows, fmt)

    monkeypatch.setattr(cli, "_write_table", capture)
    assert cli.main(["run", "--config", str(REPO / "configs" / "air_to_glass.ini"), "--out", str(tmp_path)]) == 0
    names = ("snapshot_position", "snapshot_spectrum", "snapshot_field")
    assert set(names) <= set(tables)
    for name in names:
        header, rows = tables[name]
        assert isinstance(rows, np.ndarray) and rows.shape == (16384, len(header)), name
        assert (tmp_path / f"{name}.csv").read_bytes() == cell_oracle(header, rows.tolist()), name


def test_a_reference_run_with_snapshots_copies_no_packet_array(tmp_path, monkeypatch):
    """Every packet on the run and snapshot path adopts the arrays the library
    built: no ``_freeze_amp`` call copies."""
    copies = []
    freeze = lattice._freeze_amp

    def counting_freeze(grid, amp, copy=True, spans={}):
        copies.append(copy)
        return freeze(grid, amp, copy, spans)

    monkeypatch.setattr(lattice, "_freeze_amp", counting_freeze)
    assert cli.main(["run", "--config", str(REPO / "configs" / "air_to_glass.ini"), "--out", str(tmp_path)]) == 0
    assert (tmp_path / "snapshot_field.csv").exists()
    assert copies and True not in copies


def test_a_reference_run_with_snapshots_copies_no_field_array(tmp_path, monkeypatch):
    """The snapshot field density adopts the profiles ``field_profile`` builds: the
    public constructor, which copies its four arrays, is never called."""
    copies = []
    post_init = fields.FieldProfile.__post_init__

    def counting_post_init(self):
        copies.extend((self.e_y, self.e_z, self.b_y, self.b_z))
        post_init(self)

    monkeypatch.setattr(fields.FieldProfile, "__post_init__", counting_post_init)
    assert cli.main(["run", "--config", str(REPO / "configs" / "air_to_glass.ini"), "--out", str(tmp_path)]) == 0
    assert (tmp_path / "snapshot_field.csv").exists()
    assert len(copies) == 0


def test_a_directory_in_the_way_places_nothing(tmp_path, capsys):
    cfg = write_config(tmp_path / "scenario.ini", {"output": {"snapshots": "true"}})
    names = ("summary.json", "series.csv", "snapshot_position.csv", "snapshot_spectrum.csv",
             "snapshot_field.csv")
    for name in names:
        out = tmp_path / f"out_{name}"
        (out / name).mkdir(parents=True)
        (out / name / "keep.txt").write_text("keep")
        assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 3, name
        assert "a directory of that name is in the way" in capsys.readouterr().err
        assert [p.name for p in out.iterdir()] == [name]
        assert [p.name for p in (out / name).iterdir()] == ["keep.txt"]
        assert (out / name / "keep.txt").read_text() == "keep"


@pytest.mark.parametrize("media", [
    {"n": "2.0", "area": "1e-310"},
    {"left_epsilon": "1e-200", "left_mu": "1e200", "right_epsilon": "4e-200", "right_mu": "1e200", "area": "1e-200"},
])
def test_a_field_prefactor_that_is_not_finite_exits_3_and_writes_nothing(tmp_path, capsys, media):
    """2 hbar c / (epsilon A) overflows, or epsilon A underflows to 0: each value
    is in range, but the snapshot field has no finite weight."""
    cfg = write_config(tmp_path / "scenario.ini", {"media": media, "output": {"snapshots": "true"}}, drop=("media",))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 3
    assert "2 hbar c / (epsilon A) must be positive and finite" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_readme_example_config_runs_strict(tmp_path):
    block = re.search(r"```ini\n(.*?)```", (REPO / "README.md").read_text(), re.S).group(1)
    cfg = tmp_path / "readme.ini"
    cfg.write_text(block)
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out"), "--strict"]) == 0


# ---------------------------------------------------------------------------
# edge sweep: at any value its parser accepts, a command ends with an exit code

def ends_with_an_exit_code(argv):
    """``main`` returns 0-3 and raises nothing, with every warning an error."""
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main([*argv, "--out", str(Path(tmp) / "out")]) in (0, 1, 2, 3), argv


finite_floats = st.floats(allow_nan=False, allow_infinity=False)
positive_floats = finite_floats.filter(lambda v: v > 0)
#: Magnitudes log-uniform over the float range, from the subnormals to 1e308.
magnitudes = st.floats(-323.0, 308.0).map(lambda e: 10.0**e)


@settings(max_examples=50, deadline=None, database=None)
@given(q=finite_floats.filter(lambda v: v >= 0), terms=st.integers(1, 20))
@example(q=1e200, terms=12)
def test_edge_sweep_dyson(q, terms):
    ends_with_an_exit_code(["dyson", "--omega-ratio", repr(q), "--terms", str(terms)])


@settings(max_examples=50, deadline=None, database=None)
@given(n_min=positive_floats, n_max=positive_floats)
@example(n_min=3e307, n_max=1.7976931348623157e308)
def test_edge_sweep_check(n_min, n_max):
    ends_with_an_exit_code(["check", "--n-min", repr(n_min), "--n-max", repr(n_max)])


@settings(max_examples=50, deadline=None, database=None)
@given(area=magnitudes, c0=magnitudes, hbar=magnitudes)
@example(area=1e-310, c0=1.0, hbar=1.0)
def test_edge_sweep_run(area, c0, hbar):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = write_config(Path(tmp) / "scenario.ini", {
            "media": {"area": repr(area), "c0": repr(c0)},
            "units": {"hbar": repr(hbar)},
            "output": {"snapshots": "true"},
        })
        ends_with_an_exit_code(["run", "--config", str(cfg)])
