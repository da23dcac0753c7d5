"""Tests of the benchmark itself.

    python3 -m pytest bench

Each workload runs at a tiny size, traced and untraced, and must emit
every metric of ``BENCHMARK.json`` with its unit. An oracle check fed a
shifted reference phase must mark the solve as failed.
"""
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads
from spans import SOLVE, Span, layer_totals

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# The seven end-to-end metrics every untraced run prints, gated or not.
PRINTED = {**run.END_TO_END_UNITS, **run.UNGATED_UNITS}


@pytest.fixture(scope="module")
def mp():
    return run.import_molphase()


def test_spec_matches_the_runner():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.per_layer_units()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
            "--seconds", "0.3", "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    printed = {"fail_frac": "ratio"} if trace else PRINTED
    for name, unit in printed.items():
        assert any(re.fullmatch(rf"{workload} {name} = \S+ {re.escape(unit)}(, .*)?", line)
                   for line in lines), name


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_shifted_reference_phase_fails_the_solve(workload, mp, monkeypatch, tmp_path):
    true_phase = workloads.oracle_phase
    monkeypatch.setattr(workloads, "oracle_phase",
                        lambda mp, h, tau: (true_phase(mp, h, tau) + 2.0**-10) % 1.0)
    wl = workloads.WORKLOADS[workload](mp, 1, tmp_path / "work")
    # cli_cold runs eig first, whose check does not use the phase.
    result = run.measure(wl, 0.05, min_solves=2)
    n = result["attempted"]
    if workload == "pulse_backend":
        # Only zero over-rotation, every third solve, is gated on bits.
        assert result["failed"] == len(range(0, n, 3))
    elif workload == "cli_cold":
        assert result["failed"] == 1 and "ipea" in result["errors"][0]
    else:
        assert result["failed"] == n


@pytest.mark.parametrize("children, closure", [
    ([("a", 1.0, 4.0, 0), ("b", 5.0, 7.0, 0), ("c", 2.0, 3.0, 1)], 0.0),  # well nested
    ([("a", 8.0, 12.0, 0)], -2.0),                                        # child outside its parent
    ([("a", 1.0, 5.0, 0), ("b", 3.0, 7.0, 0)], -2.0),                     # overlapping siblings
])
def test_span_closure_catches_misplaced_spans(children, closure):
    spans = [Span(SOLVE, 0.0, 10.0, -1, 0)] + [Span(*c, 0) for c in children]
    solves, solve_s, _, calls, _, error = layer_totals(spans)
    assert (solves, solve_s, sum(calls.values())) == (1, 10.0, len(children))
    assert error == pytest.approx(closure)
