"""Smoke test of the benchmark harness at tiny sizes.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_metric_emitted_with_its_unit(name, trace):
    rec = run.run(name, seed=0, seconds=0.01, trace=bool(trace), tiny=True)
    want = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in rec["metrics"].items()} == want
    assert all(isinstance(v["value"], (int, float)) for v in rec["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in rec["metrics"].values())
    # the coverage and reconciliation checks run on traced calls
    assert rec["correct"], rec["problems"]
    assert rec["attempted"] >= 1 and rec["failed"] == 0


def test_tracer_wraps_and_restores_every_binding():
    from ftnetlab import activations, constructions, models, optimize

    original = activations.apply
    with tracing.Tracer():
        wrapped = activations.apply
        assert wrapped is not original
        assert models.apply is wrapped and optimize.apply is wrapped
        assert constructions.apply is wrapped
    assert activations.apply is original and models.apply is original


def test_exception_from_cli_main_fails_every_instance(monkeypatch):
    from ftnetlab import cli

    def boom(argv=None):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "main", boom)
    rec = run.run("probe", seed=0, seconds=0.01, trace=False, tiny=True)
    per_call = workloads.probe_instances(workloads.WORKLOADS["probe"].tiny)
    assert rec["attempted"] == rec["failed"] == per_call * len(rec["calls"])
    assert not rec["correct"]
    assert "RuntimeError: boom" in rec["problems"][0]
