"""The paired benchmark record of ``tools/bench_pairs.py``."""

import importlib.util
import json
import subprocess
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).parent.parent / "tools" / "bench_pairs.py"
)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

BOUNDS = {"pass_s": 0.15}


def run(pass_s: float) -> dict:
    return {"correct": True, "failed": 0, "metrics": {"pass_s": {"value": pass_s, "unit": "s"}}}


def test_failed_run_is_counted_and_left_out_of_the_quartiles():
    runs = {
        "parent": [run(v) for v in (1.00, 1.02, 0.98, 1.01)],
        "change": [run(0.99), None, run(1.00), run(0.97)],  # pair 2: no result line
    }
    record = bench_pairs.summarize(runs, BOUNDS)
    assert record["failed_runs"] == {"parent": 0, "change": 1}
    assert record["correct"] is False
    change = record["pass_s"]["change"]
    assert change["runs"] == [0.99, None, 1.0, 0.97]
    assert change["median"] == 0.99  # of the three runs that gave a value
    assert record["change_faster_pass_s"] == 2  # pairs 1 and 4; pair 2 has no change value
    # the record is valid JSON: no bare NaN
    json.loads(json.dumps(record, allow_nan=False))


def test_side_without_two_values_is_unresolved():
    runs = {"parent": [run(1.0), run(1.1)], "change": [None, run(0.9)]}
    record = bench_pairs.summarize(runs, BOUNDS)
    assert record["pass_s"]["change"]["median"] is None
    assert record["within_bounds"]["pass_s"] == "unresolved"


def test_claim_needs_nine_tenths_of_the_pairs_and_a_gap_beyond_the_spread():
    parent = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.01, 0.99]
    faster = [v - 0.2 for v in parent]
    record = bench_pairs.summarize(
        {"parent": [run(v) for v in parent], "change": [run(v) for v in faster]}, BOUNDS
    )
    claim = bench_pairs.judge_claim("reference-tables", record)
    assert claim["met"] is True and claim["result"].startswith("met: change faster in 10 of 10")
    # one pair lost of ten still meets the rule; two do not
    for lost, met in ((1, True), (2, False)):
        change = [run(1.1)] * lost + [run(v) for v in faster[lost:]]
        record = bench_pairs.summarize({"parent": [run(v) for v in parent], "change": change},
                                       BOUNDS)
        assert bench_pairs.judge_claim("reference-tables", record)["met"] is met
    # every pair won, by less than the parent's interquartile range
    close = [v - 0.005 for v in parent]
    record = bench_pairs.summarize(
        {"parent": [run(v) for v in parent], "change": [run(v) for v in close]}, BOUNDS
    )
    assert bench_pairs.judge_claim("reference-tables", record)["met"] is False


LAYERS = {
    "substream_us", "draw_two_sample_us_per_rep", "draw_mmrm_us_per_rep",
    "decide_one_df_us_per_entry", "decide_distinct_df_us_per_entry", "fit_visits_us_per_rep",
    "dropout_average_ms_per_call",
}


def test_layer_probe_times_every_call_in_wall_and_cpu_time():
    # a tiny run of the probe in a fresh process on this checkout
    done = subprocess.run(bench_pairs.layer_command(1, repeat=1), cwd=bench_pairs.ROOT,
                          stdout=subprocess.PIPE, text=True, check=True)
    layers = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(layers) == LAYERS
    for call, times in layers.items():
        unit = "ms" if call == "dropout_average_ms_per_call" else "us"
        assert set(times) == {f"wall_{unit}", f"cpu_{unit}"}
        assert all(0.0 <= t < 1e5 for t in times.values())
    assert layers["fit_visits_us_per_rep"]["wall_us"] > 0.0
    assert layers["dropout_average_ms_per_call"]["wall_ms"] > 0.0


def test_layer_record_keeps_the_minimum_over_rounds_and_every_round():
    def probe(scale):
        return {"substream_us": {"wall_us": 0.3 * scale, "cpu_us": 0.29 * scale}}

    record = bench_pairs.layer_record({"parent": [probe(2), probe(1.5)], "change": [probe(1)]})
    assert record["parent"]["substream_us"]["wall_us"] == 0.45
    assert record["parent"]["substream_us"]["cpu_us"] == 0.435
    assert record["parent"]["substream_us"]["rounds"] == [
        {"wall_us": 0.6, "cpu_us": 0.58}, {"wall_us": 0.45, "cpu_us": 0.435}
    ]
    assert record["change"]["substream_us"]["wall_us"] == 0.3
    json.loads(json.dumps(record, allow_nan=False))



def traced(**calls) -> dict:
    """A traced run's result with the given ``<layer>.calls`` counts and one timing."""
    metrics = {f"{layer}.calls": {"value": v, "unit": "count"} for layer, v in calls.items()}
    metrics["dist.t_cdf.us_per_call"] = {"value": 3.1, "unit": "us"}
    return {"correct": True, "failed": 0, "metrics": metrics}


def test_traced_record_names_every_workload_whose_counts_differ():
    runs = {
        "reference-tables": {"parent": traced(integrate=172, t_cdf=144),
                             "change": traced(integrate=172, t_cdf=144)},
        "simulate-exact": {"parent": traced(integrate=172, t_cdf=144),
                           "change": traced(integrate=172, t_cdf=145)},
        "simulate-mmrm": {"parent": traced(integrate=172), "change": None},  # no result line
    }
    record = bench_pairs.traced_record(runs)
    assert record["counts_differ"] == ["simulate-exact", "simulate-mmrm"]
    # only the count metrics are kept, by name
    assert record["workloads"]["reference-tables"]["parent"] == {
        "integrate.calls": 172, "t_cdf.calls": 144
    }
    assert record["workloads"]["simulate-mmrm"]["change"] is None
    json.loads(json.dumps(record, allow_nan=False))
