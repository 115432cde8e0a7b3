"""Op validation: a non-asymptotic run and a byte mismatch are failed ops."""

import io
from contextlib import redirect_stdout

from blipsim import cli
from validate import Tally, check_outputs, compare_digests, output_digests
from workloads import Workload

PARAMS = {"x0": -15.0, "k0": 20.0, "sigma": 1.5, "n": 2.0}


def run_small(tmp_path, times):
    cfg = tmp_path / "small.ini"
    cfg.write_text(
        "[grid]\nx_min = -50\nx_max = 50\nn_points = 2048\n\n"
        "[packet]\ndirection = +1\npolarization = H\nx0 = -15\nk0 = 20\nsigma = 1.5\n\n"
        f"[media]\nn = 2.0\n\n[schedule]\ntimes = {times}\n"
    )
    out = tmp_path / "out"
    with redirect_stdout(io.StringIO()):
        rc = cli.main(["run", "--config", str(cfg), "--out", str(out), "--strict"])
    return rc, out


def test_asymptotic_run_passes(tmp_path):
    w = Workload("small", 2048, (0.0, 45.0), False, 45.0, n_range=(2.0, 2.0))
    rc, out = run_small(tmp_path, "0, 45")
    assert check_outputs(w, PARAMS, rc, out) == []


def test_non_asymptotic_run_fails_although_strict_exits_zero(tmp_path):
    w = Workload("small", 2048, (0.0, 10.0), False, 10.0, n_range=(2.0, 2.0))
    rc, out = run_small(tmp_path, "0, 10")
    assert rc == 0
    reasons = check_outputs(w, PARAMS, rc, out)
    assert "final report is not asymptotic" in reasons
    assert any(r.startswith("guard fraction") for r in reasons)


def test_failed_ops_are_counted(tmp_path):
    w = Workload("small", 2048, (0.0, 10.0), False, 10.0, n_range=(2.0, 2.0))
    rc, out = run_small(tmp_path, "0, 10")
    first = output_digests(out)
    changed = dict(first, **{"series.csv": "0" * 64})

    tally = Tally()
    tally.record("op0", check_outputs(w, PARAMS, rc, out))
    tally.record("op1", compare_digests(first, changed))
    tally.record("op2", compare_digests(first, dict(first)))
    assert (tally.attempted, tally.failed) == (3, 2)
    assert any("op1: rerun not byte-identical: series.csv" == f for f in tally.failures)
