"""Benchmark of ``blipsim run``: seeded configs, checked outputs, end-to-end and per-layer metrics.

Usage, from the root of a checkout (the program is imported from ``src/``)::

    python3 bench/run.py --workload ref_snapshots --seed 1 --seconds 36 --trace 0

Each op is one ``blipsim.cli.main(["run", "--strict", ...])`` on one config
that ``workloads.py`` generates from the seed: a closed loop with one
client, one process and one op at a time.  ``--trace 0`` measures the
end-to-end metrics with nothing wrapped; ``--trace 1`` alternates untraced
and traced ops on the same inputs and reports the per-layer metrics.  Every
op's outputs are checked (``validate.py``); the last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  A run record with the machine, every op time and, when traced,
every span goes to ``bench/.runs/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import fresh
import validate
from tracing import Tracer
from workloads import L2_BYTES, L3_BYTES, WORKLOADS, Workload, write_config

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = BENCH / ".runs"

#: The tail is the highest percentile with at least this many ops beyond it.
TAIL_BEYOND = 10
MIN_WARM_OPS = TAIL_BEYOND + 1
#: Stop adding ops past this, whatever the minimum counts, to end well within 180 s.
DEADLINE_S = 100.0
MIN_COLD_RUNS = 3
SETUP_PROBES = 7
MIN_TRACE_PAIRS = 3

END_TO_END = {
    "run_s.mean": "s",
    "run_s.tail": "s",
    "cold_run_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

PER_LAYER = {
    "cli.write_table.s": "s",
    "cli.write_snapshots.s": "s",
    "cli.cells_written": "count",
    "cli.bytes_written": "B",
    "cli.ns_per_cell": "ns",
    "cli.summarize.s": "s",
    "cli.summarize.self_s": "s",
    "cli.load_config.s": "s",
    "lattice.gaussian_packet.s": "s",
    "propagation.run_scenario.s": "s",
    "propagation.run_scenario.self_s": "s",
    "scattering.interface_scatter.calls": "count",
    "scattering.interface_scatter.s": "s",
    "scattering.interface_scatter.self_s": "s",
    "scattering.beamsplitter_scatter.calls": "count",
    "scattering.beamsplitter_scatter.s": "s",
    "scattering.useful_map_ratio": "ratio",
    "scattering.resampling_drift": "ratio",
    "scattering.guard_fraction": "ratio",
    "spectral.sample_spectrum_scaled.calls": "count",
    "spectral.sample_spectrum_scaled.s": "s",
    "spectral.to_momentum.calls": "count",
    "spectral.to_momentum.s": "s",
    "spectral.to_position.calls": "count",
    "spectral.to_position.s": "s",
    "spectral.fft_calls": "count",
    "spectral.fft_points": "count",
    "spectral.fft_flops_computed": "flop",
    "spectral.fft_bytes_computed": "B",
    "spectral.chirp_max_rel_err": "ratio",
    "observables.branch_expectations.calls": "count",
    "observables.branch_expectations.s": "s",
    "observables.branch_expectations.self_s": "s",
    "observables.conditional_expectations.calls": "count",
    "observables.conditional_expectations.s": "s",
    "fields.field_profile.calls": "count",
    "fields.field_profile.s": "s",
    "observables.unique_state_ratio": "ratio",
    "lattice.packets_built": "count",
    "lattice.bytes_copied_computed": "B",
    "lattice.centroid.calls": "count",
    "lattice.centroid.s": "s",
    "lattice.combine.calls": "count",
    "lattice.combine.s": "s",
    "trace.coverage": "ratio",
    "trace.overhead_ratio": "ratio",
}
def tail(times: list[float]) -> tuple[float, float, int]:
    """Highest percentile with ``TAIL_BEYOND`` ops beyond it: (value, percentile, ops beyond).

    With fewer than ``TAIL_BEYOND + 1`` ops it falls back to the lowest
    value and reports the smaller count beyond.
    """
    ordered = sorted(times)
    rank = max(len(ordered) - TAIL_BEYOND, 1)
    return ordered[rank - 1], 100.0 * rank / len(ordered), len(ordered) - rank


def machine_info(blipsim_version: str) -> dict:
    """Machine and versions; the benchmark sets no affinity, priority or frequency."""
    model = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    caches = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        with contextlib.suppress(OSError):
            caches.append(
                {key: (index / key).read_text().strip() for key in ("level", "type", "size", "shared_cpu_list")}
            )
    affinity = sorted(os.sched_getaffinity(0))
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "caches": caches,
        "affinity": affinity,
        "cpu_pinned": len(affinity) < (os.cpu_count() or 0),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blipsim": blipsim_version,
        "platform": platform.platform(),
    }


def import_program():
    """Import ``blipsim`` from this checkout's ``src/``, or stop with exit code 2."""
    if not (SRC / "blipsim" / "cli.py").is_file():
        print(f"bench: no program at {SRC / 'blipsim'}; run from a checkout that has src/", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import blipsim
    import blipsim.cli

    if Path(blipsim.__file__).resolve().parent != SRC / "blipsim":
        print(f"bench: imported blipsim from {blipsim.__file__}, not from {SRC}", file=sys.stderr)
        raise SystemExit(2)
    return blipsim


class Ops:
    """Generated configs and in-process ops of one workload and seed."""

    def __init__(self, w: Workload, seed: int, work: Path, cli) -> None:
        self.w, self.seed, self.cli = w, seed, cli
        self.cfg_dir = work / "configs"
        self.cfg_dir.mkdir()
        self.out = work / "out"
        self._configs: dict[int, tuple[Path, dict[str, float]]] = {}

    def config(self, index: int) -> tuple[Path, dict[str, float]]:
        if index not in self._configs:
            self._configs[index] = write_config(self.w, self.seed, index, self.cfg_dir)
        return self._configs[index]

    def run(self, index: int) -> tuple[float, int]:
        """One op into an emptied ``self.out``: wall seconds and exit code."""
        path, _ = self.config(index)
        shutil.rmtree(self.out, ignore_errors=True)
        argv = ["run", "--config", str(path), "--out", str(self.out), "--strict"]
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            rc = self.cli.main(argv)
            elapsed = time.perf_counter() - t0
        return elapsed, rc

    def check(self, index: int, rc: int) -> list[str]:
        return validate.check_outputs(self.w, self.config(index)[1], rc, self.out)


def measure_end_to_end(ops: Ops, seconds: float, tally: validate.Tally, record: dict) -> dict[str, float]:
    """Set-up probes, then warm in-process ops interleaved with fresh-process runs."""
    cfg0, _ = ops.config(0)
    setups = [fresh.setup_seconds(SRC, cfg0) for _ in range(SETUP_PROBES)]

    # op 0 warms the process up and is not timed; every op is checked
    _, rc = ops.run(0)
    tally.record("op0", ops.check(0, rc))
    digests = {0: validate.output_digests(ops.out)}
    times: list[float] = []
    cold_times: list[float] = []
    rss: list[float] = []
    # Warm ops and fresh-process runs interleave, the fresh ones taking about a
    # third of the time, so both sample the host over the whole run.
    warm_spent = cold_spent = 0.0
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        short = len(times) < MIN_WARM_OPS or len(cold_times) < MIN_COLD_RUNS
        if elapsed >= DEADLINE_S or (elapsed >= seconds and not short):
            break
        cold_due = len(cold_times) < MIN_COLD_RUNS if elapsed >= seconds else 2 * cold_spent < warm_spent
        if cold_due and len(cold_times) < len(digests):
            # a fresh process reruns an input the warm loop ran; the bytes must match
            c = len(cold_times)
            cfg, params = ops.config(c)
            out = ops.out.parent / f"cold{c}"
            op_s, rc, peak = fresh.cold_run(SRC, cfg, out)
            cold_spent += op_s
            cold_times.append(op_s)
            rss.append(peak)
            reasons = validate.check_outputs(ops.w, params, rc, out)
            if out.is_dir():
                reasons += validate.compare_digests(digests[c], validate.output_digests(out))
                shutil.rmtree(out)
            tally.record(f"cold{c}", reasons)
        else:
            index = len(times) + 1
            op_s, rc = ops.run(index)
            warm_spent += op_s
            times.append(op_s)
            tally.record(f"op{index}", ops.check(index, rc))
            digests[index] = validate.output_digests(ops.out)

    value, pct, beyond = tail(times)
    record.update(
        warm_op_s=times, cold_run_s=cold_times, peak_rss_mib=rss, setup_s=setups,
        tail={"percentile": pct, "ops": len(times), "beyond": beyond},
    )
    return {
        "run_s.mean": statistics.fmean(times),
        "run_s.tail": value,
        "cold_run_s": statistics.fmean(cold_times),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(rss),
    }


def chirp_max_rel_err(ops: Ops) -> float:
    """max |chirp at scale 1 - FFT| / max |FFT| on the workload's first packet."""
    from blipsim.spectral import sample_spectrum_scaled, to_momentum

    cfg, _ = ops.config(0)
    packet = ops.cli._scenario_from_config(ops.cli._load_config(str(cfg))).packet
    (ch,) = packet.amp
    fft = to_momentum(packet).amp[ch]
    return float(np.max(np.abs(sample_spectrum_scaled(packet, ch, 1.0) - fft)) / np.max(np.abs(fft)))


def measure_layers(ops: Ops, seconds: float, tally: validate.Tally, record: dict) -> dict[str, float]:
    """Pairs of untraced and traced ops on the same input; per-layer medians of the traced ones."""
    _, rc = ops.run(0)
    tally.record("op0", ops.check(0, rc))
    tracer = Tracer()
    plain, traced, layers = [], [], []
    start = time.perf_counter()
    index = 1
    while time.perf_counter() - start < seconds or (
        len(traced) < MIN_TRACE_PAIRS and time.perf_counter() - start < DEADLINE_S
    ):
        # alternate which side of the pair runs first; check each side before the next writes
        checked = {}
        for traced_side in ((False, True) if index % 2 else (True, False)):
            if traced_side:
                tracer.op = index
                missing = tracer.install()
                try:
                    elapsed, rc = ops.run(index)
                finally:
                    tracer.uninstall()
                traced.append(elapsed)
                summary = ops.out / "summary.json"
                diag = json.loads(summary.read_text()).get("diagnostics", {}) if summary.is_file() else {}
                layer = tracer.op_layers(index)
                layer.update(
                    wall_s=elapsed,
                    bytes_written=sum(p.stat().st_size for p in ops.out.iterdir()),
                    resampling_drift=diag.get("resampling_drift", math.nan),
                    guard_fraction=diag.get("guard_fraction", math.nan),
                )
                layers.append(layer)
            else:
                elapsed, rc = ops.run(index)
                plain.append(elapsed)
            checked[traced_side] = (ops.check(index, rc), validate.output_digests(ops.out))
        tally.record(f"op{index}", checked[False][0])
        tally.record(
            f"op{index}-traced",
            checked[True][0] + validate.compare_digests(checked[False][1], checked[True][1]),
        )
        index += 1

    def med(key: str) -> float:
        return statistics.median(layer.get(key, 0.0) for layer in layers)

    metrics = {name: med(name) for name in PER_LAYER}
    cells = metrics["cli.cells_written"]
    maps = metrics["scattering.interface_scatter.calls"] + metrics["scattering.beamsplitter_scatter.calls"]
    calls = metrics["observables.branch_expectations.calls"]
    metrics.update(
        {
            "cli.bytes_written": med("bytes_written"),
            "cli.ns_per_cell": 1e9 * metrics["cli.write_table.s"] / cells if cells else 0.0,
            "scattering.useful_map_ratio": 1.0 / maps if maps else 0.0,
            "scattering.resampling_drift": max(layer["resampling_drift"] for layer in layers),
            "scattering.guard_fraction": max(layer["guard_fraction"] for layer in layers),
            "spectral.chirp_max_rel_err": chirp_max_rel_err(ops),
            "observables.unique_state_ratio": med("unique_states") / calls if calls else 0.0,
            "trace.coverage": statistics.median(
                layer["top_level_s"] / layer["wall_s"] for layer in layers
            ),
            "trace.overhead_ratio": statistics.fmean(traced) / statistics.fmean(plain),
        }
    )
    record.update(untraced_op_s=plain, traced_op_s=traced, missing_targets=missing, spans=tracer.spans)
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    blipsim = import_program()
    w = WORKLOADS[args.workload]
    machine = machine_info(blipsim.__version__)
    RUNS.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{w.name}-", dir=RUNS))
    tally = validate.Tally()
    record: dict = {"workload": w.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    try:
        ops = Ops(w, args.seed, work, blipsim.cli)
        if args.trace:
            metrics = measure_layers(ops, args.seconds, tally, record)
            units = PER_LAYER
        else:
            metrics = measure_end_to_end(ops, args.seconds, tally, record)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record.update(machine=machine, metrics=metrics, attempted=tally.attempted,
                  failed=tally.failed, failures=tally.failures)
    (RUNS / f"{w.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record) + "\n")

    mib = 2.0**20
    print(f"{w.name} seed {args.seed} trace {args.trace}: N = {w.n_points}, "
          f"array {w.array_bytes / mib:g} MiB, chirp pad {w.chirp_pad_bytes / mib:g} MiB "
          f"(L2 {L2_BYTES / mib:g} MiB, L3 {L3_BYTES / mib:g} MiB); "
          f"{tally.attempted} ops attempted, {tally.failed} failed")
    for name, unit in units.items():
        note = ""
        if name == "run_s.tail":
            t = record["tail"]
            note = f"  (p{t['percentile']:.1f} of {t['ops']} warm ops, {t['beyond']} beyond)"
        print(f"  {name:<42} {metrics[name]:.6g} {unit}{note}")
    if not args.trace:
        print(f"  {'ops_failed':<42} {tally.failed} count (of {tally.attempted} attempted)")
    for reason in tally.failures:
        print(f"  FAILED {reason}")
    print("machine: " + json.dumps(machine))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
