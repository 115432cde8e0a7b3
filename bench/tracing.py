"""Tracing of ``blipsim`` from outside: wrapped functions record spans and counts.

The tracer replaces each listed function in every ``blipsim`` module that
holds it (``from .spectral import to_momentum`` binds the name separately in
``observables``, ``propagation``, ``scattering`` and ``cli``), plus
``numpy.fft.fft`` and ``numpy.fft.ifft``, and puts the originals back on
``uninstall``.  Spans are kept in memory as ``[name, start, end, parent,
op]`` rows; a span's self time is its duration minus the part of it that
its children cover.  Nothing in ``src/`` changes.
"""

from __future__ import annotations

import functools
import hashlib
import math
import sys
import time
from collections import defaultdict
from typing import Any, Callable

import numpy as np

#: (module, function) pairs recorded as spans.
SPAN_TARGETS = (
    ("blipsim.cli", "_load_config"),
    ("blipsim.cli", "_scenario_from_config"),
    ("blipsim.cli", "_summarize"),
    ("blipsim.cli", "_write_table"),
    ("blipsim.cli", "_write_snapshots"),
    ("blipsim.lattice", "gaussian_packet"),
    ("blipsim.lattice", "centroid"),
    ("blipsim.lattice", "combine"),
    ("blipsim.spectral", "to_momentum"),
    ("blipsim.spectral", "to_position"),
    ("blipsim.spectral", "sample_spectrum_scaled"),
    ("blipsim.fields", "field_profile"),
    ("blipsim.observables", "branch_expectations"),
    ("blipsim.observables", "conditional_expectations"),
    ("blipsim.scattering", "interface_scatter"),
    ("blipsim.scattering", "beamsplitter_scatter"),
    ("blipsim.propagation", "run_scenario"),
)

#: Every STATE_STRIDE-th amplitude of each channel identifies a branch state.
STATE_STRIDE = 64


def span_name(module: str, func: str) -> str:
    """``blipsim.cli._write_table`` -> ``cli.write_table``."""
    return f"{module.split('.')[-1]}.{func.lstrip('_')}"


def self_times(spans: list[list[Any]]) -> list[float]:
    """Duration of each span minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent, op in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = []
    for sid, (name, start, end, parent, op) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children[sid]):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


class Tracer:
    """Spans and counters of one process; ``op`` labels the spans of the current op."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.op: int | None = None
        self.counts: dict[int | None, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.states: dict[int | None, set[bytes]] = defaultdict(set)
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []

    # -- wrappers --------------------------------------------------------

    def _span(self, name: str, fn: Callable, before: Callable | None = None) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            sid = len(spans)
            row = [name, 0.0, 0.0, stack[-1] if stack else None, self.op]
            spans.append(row)
            stack.append(sid)
            row[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                row[2] = time.perf_counter()
                stack.pop()

        return wrapper

    def _counted(self, fn: Callable, count: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            count(args, kwargs, result)
            return result

        return wrapper

    def _count_fft(self, args, kwargs, result) -> None:
        n = result.shape[-1]
        c = self.counts[self.op]
        c["spectral.fft_calls"] += 1
        c["spectral.fft_points"] += n
        c["spectral.fft_flops_computed"] += 5.0 * n * math.log2(n)
        c["spectral.fft_bytes_computed"] += 32.0 * n

    def _count_packet(self, args, kwargs, result) -> None:
        c = self.counts[self.op]
        c["lattice.packets_built"] += 1
        c["lattice.bytes_copied_computed"] += sum(16 * a.size for a in result.values())

    def _count_cells(self, base, header, rows, *args, **kwargs) -> None:
        self.counts[self.op]["cli.cells_written"] += len(header) * len(rows)

    def _record_state(self, p, *args, **kwargs) -> None:
        """Hash a strided sample of the amplitudes: states that differ, differ everywhere."""
        h = hashlib.blake2b(digest_size=16)
        for ch, a in p.amp.items():
            h.update(repr(ch).encode())
            h.update(a[::STATE_STRIDE].tobytes())
        self.states[self.op].add(h.digest())

    # -- install / uninstall --------------------------------------------

    def _patch_everywhere(self, original: Callable, name: str, replacement: Callable) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "blipsim" and getattr(mod, name, None) is original:
                self._patches.append((mod, name, original))
                setattr(mod, name, replacement)

    def install(self) -> list[str]:
        """Wrap every target; returns the targets the program no longer has.

        The ``blipsim`` modules must already be imported.  A missing target
        is skipped, so its layer reads zero instead of breaking the run.
        """
        befores = {
            "cli.write_table": self._count_cells,
            "observables.branch_expectations": self._record_state,
        }
        missing = []
        for module, func in SPAN_TARGETS:
            original = getattr(sys.modules.get(module), func, None)
            if original is None:
                missing.append(f"{module}.{func}")
                continue
            name = span_name(module, func)
            self._patch_everywhere(original, func, self._span(name, original, befores.get(name)))
        freeze = getattr(sys.modules["blipsim.lattice"], "_freeze_amp", None)
        if freeze is None:
            missing.append("blipsim.lattice._freeze_amp")
        else:
            self._patch_everywhere(freeze, "_freeze_amp", self._counted(freeze, self._count_packet))
        for func in ("fft", "ifft"):
            original = getattr(np.fft, func)
            self._patches.append((np.fft, func, original))
            setattr(np.fft, func, self._counted(original, self._count_fft))
        return missing

    def uninstall(self) -> None:
        for mod, name, original in reversed(self._patches):
            setattr(mod, name, original)
        self._patches.clear()

    # -- per-op summaries -------------------------------------------------

    def op_layers(self, op: int) -> dict[str, float]:
        """Per-layer totals of one op: ``<name>.calls``, ``.s``, ``.self_s``, counters."""
        selfs = self_times(self.spans)
        out: dict[str, float] = defaultdict(float)
        top = 0.0
        for (name, start, end, parent, span_op), own in zip(self.spans, selfs):
            if span_op != op:
                continue
            out[f"{name}.calls"] += 1
            out[f"{name}.s"] += end - start
            out[f"{name}.self_s"] += own
            if parent is None:
                top += end - start
        out["top_level_s"] = top
        out.update(self.counts[op])
        out["unique_states"] = len(self.states[op])
        return dict(out)
