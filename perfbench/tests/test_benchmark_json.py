"""BENCHMARK.json agrees with what the benchmark prints."""

import json

import analysis
import run
from common import ROOT


def test_benchmark_json_names_every_printed_metric_with_its_unit():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == (
        run.END_TO_END_UNITS
    )
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == (
        analysis.PER_LAYER_UNITS
    )
