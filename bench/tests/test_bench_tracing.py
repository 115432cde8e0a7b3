"""Self-time arithmetic and the external wrapping of blipsim functions."""

import numpy as np
import pytest

import blipsim.cli
import blipsim.observables
import blipsim.propagation
import blipsim.spectral
from tracing import Tracer, self_times


def test_self_time_on_a_hand_built_span_tree():
    spans = [
        ["root", 0.0, 10.0, None, 1],
        ["a", 1.0, 4.0, 0, 1],
        ["a.child", 1.5, 2.0, 1, 1],
        ["a.child", 2.5, 3.5, 1, 1],
        ["b", 6.0, 7.0, 0, 1],
        ["other_op", 20.0, 21.0, None, 2],
    ]
    assert self_times(spans) == pytest.approx([6.0, 1.5, 0.5, 1.0, 1.0, 1.0])


def test_overlapping_children_are_counted_once():
    spans = [["root", 0.0, 10.0, None, 1], ["x", 1.0, 5.0, 0, 1], ["y", 3.0, 12.0, 0, 1]]
    assert self_times(spans)[0] == pytest.approx(1.0)


def test_wrapping_covers_every_importing_module_and_is_undone():
    original, fft = blipsim.spectral.to_momentum, np.fft.fft
    holders = [blipsim.spectral, blipsim.observables, blipsim.propagation, blipsim.cli]
    tracer = Tracer()
    tracer.op = 1
    assert tracer.install() == []
    try:
        assert all(mod.to_momentum is not original for mod in holders)
        grid = blipsim.make_grid(-50.0, 50.0, 2048)
        packet = blipsim.gaussian_packet(grid, (+1, "H"), -15.0, 20.0, 1.5)
        blipsim.observables.branch_expectations(packet, {+1: blipsim.Medium.reference()})
    finally:
        tracer.uninstall()
    assert all(mod.to_momentum is original for mod in holders)
    assert np.fft.fft is fft

    layers = tracer.op_layers(1)
    assert layers["observables.branch_expectations.calls"] == 1
    assert layers["spectral.to_momentum.calls"] == 1
    assert layers["fields.field_profile.calls"] == 1
    # one forward transform for the spectrum, one inverse for the field profile
    assert layers["spectral.fft_calls"] == 2
    assert layers["unique_states"] == 1
    top = layers["lattice.gaussian_packet.s"] + layers["observables.branch_expectations.s"]
    assert layers["top_level_s"] == pytest.approx(top)
