"""The seeded generator and the metric list the benchmark declares."""

import json
from pathlib import Path

import pytest

import run
from workloads import K0_RANGE, SIGMA_RANGE, WORKLOADS, X0_RANGE, config_text, op_params, write_config


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_deterministic_for_a_seed(name, tmp_path):
    w = WORKLOADS[name]
    first = [config_text(w, op_params(w, 7, i)) for i in range(5)]
    again = [config_text(w, op_params(w, 7, i)) for i in range(5)]
    other = [config_text(w, op_params(w, 8, i)) for i in range(5)]
    assert first == again
    assert len(set(first)) == 5
    assert not set(first) & set(other)
    path, params = write_config(w, 7, 3, tmp_path)
    assert path.read_text() == first[3]
    assert params == op_params(w, 7, 3)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_draws_stay_inside_their_ranges(name):
    w = WORKLOADS[name]
    for i in range(200):
        p = op_params(w, 1, i)
        assert X0_RANGE[0] <= p["x0"] <= X0_RANGE[1]
        assert K0_RANGE[0] <= p["k0"] <= K0_RANGE[1]
        assert SIGMA_RANGE[0] <= p["sigma"] <= SIGMA_RANGE[1]
        lo, hi = w.n_range or w.q_range
        assert lo <= p.get("n", p.get("q")) <= hi


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [wl["name"] for wl in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_tail_is_the_highest_percentile_with_ten_ops_beyond():
    assert run.tail([float(v) for v in range(20, 0, -1)]) == (10.0, 50.0, 10)
    value, pct, beyond = run.tail([float(v) for v in range(1, 101)])
    assert (value, pct, beyond) == (90.0, 90.0, 10)
