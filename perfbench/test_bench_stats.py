"""Tests of the benchmark's own helpers. Run from the repository root:

    python3 -m pytest perfbench
"""

import json
import math
from pathlib import Path

import pytest

import bench_stats as bs

HERE = Path(__file__).resolve().parent


def span(sid, start, end, parent=None, name="solver.run"):
    return {"id": sid, "name": name, "start": start, "end": end,
            "parent": parent, "op": "op1"}


def test_tail_is_the_upper_quartile():
    samples = [float(k) for k in (3, 1, 2, 9, 8, 7, 6, 5, 4, 10, 11, 12)]
    # exclusive method: rank 0.75 * (12 + 1) = 9.75, between 9 and 10
    assert bs.tail(samples) == pytest.approx(9.75)
    assert bs.tail([2.0, 7.0, 3.0]) == 7.0  # rank 3 of 3: the maximum
    assert bs.tail([4.0]) == 4.0
    with pytest.raises(ValueError):
        bs.tail([])


def test_tail_moves_when_only_the_slowest_operations_slow_down():
    samples = [1.0 + 0.01 * k for k in range(12)]
    slower = samples[:-3] + [s * 1.5 for s in samples[-3:]]
    assert bs.tail(slower) > 1.3 * bs.tail(samples)
    assert bs.median(slower) == bs.median(samples)


def test_spread():
    assert bs.spread([7.0, 7.5, 6.5]) == 1.0
    assert bs.spread([2.0]) == 0.0


def test_pass_ratio_is_one_minus_failed_ratio():
    assert bs.pass_ratio(4, 4) == 1.0
    assert bs.pass_ratio(3, 4) == 0.75  # one sweep point of four failing
    for bad in ((1, 0), (5, 4), (-1, 4)):
        with pytest.raises(ValueError):
            bs.pass_ratio(*bad)


def test_rel_err():
    assert bs.rel_err(0.101, 0.1) == pytest.approx(0.01)
    assert bs.rel_err(-0.501, -0.5) == pytest.approx(0.002)
    assert math.isnan(bs.rel_err(float("nan"), 0.2))
    with pytest.raises(ValueError):
        bs.rel_err(1.0, 0.0)


def test_covered_merges_overlaps():
    assert bs.covered([]) == 0.0
    assert bs.covered([(0, 2), (1, 3), (5, 6)]) == 4.0
    assert bs.covered([(5, 6), (0, 1)]) == 2.0


def test_self_time_subtracts_children_once():
    spans = [
        span("root", 0.0, 10.0, name="bench.op"),
        span("a", 1.0, 4.0, "root", "solver.run"),
        # two sweep points running at once in two workers
        span("b", 5.0, 8.0, "root", "cli.sweep_point"),
        span("c", 6.0, 9.0, "root", "cli.sweep_point"),
        span("d", 6.0, 7.0, "c", "solver.run"),
    ]
    own = bs.self_times(spans)
    assert own["root"] == pytest.approx(10.0 - 3.0 - 4.0)
    assert own["c"] == pytest.approx(2.0)
    assert (own["a"], own["b"], own["d"]) == pytest.approx((3.0, 3.0, 1.0))
    layers = bs.layer_self_times(spans)
    assert layers == pytest.approx({"bench": 3.0, "solver": 4.0, "cli": 5.0})
    # self times add up to the root's wall time plus the 2 s b and c overlap
    assert sum(own.values()) == pytest.approx(10.0 + 2.0)


def test_self_time_clips_children_to_the_parent():
    spans = [span("p", 0.0, 1.0, name="bench.op"),
             span("k", 0.5, 2.0, "p", "solver.run")]
    assert bs.self_times(spans)["p"] == pytest.approx(0.5)


def test_benchmark_json_matches_run_py():
    import run

    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in doc["workloads"]} == {
        name: wl.why for name, wl in run.WORKLOADS.items()}
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.E2E_UNITS
    assert [m["name"] for m in doc["per_layer"]] == list(run.PER_LAYER)
    assert all(m["unit"] == run.unit_of(m["name"]) for m in doc["per_layer"])
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])
    listed = {name for layer in run.LAYER_MAP["layers"] for name in layer["metrics"]}
    assert listed == set(run.PER_LAYER)
