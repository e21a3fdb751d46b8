"""Self-tests of the benchmark at smoke size.

Each workload runs once untraced and once traced (``--smoke`` inputs,
half a second of ops) through the real command line.  The tests check
that the printed metrics match ``BENCHMARK.json``, that every layer a
workload runs emits spans, that tracing leaves the output unchanged,
and that the command refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import probes  # noqa: E402
import run as bench  # noqa: E402

SEED = 3
HELD_OUT_SEED = 29


def _run(workload: str, trace: int, seed: int = SEED, cwd: Path = ROOT):
    command = [
        sys.executable,
        str(cwd / "perfbench" / "run.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--seconds",
        "0.5",
        "--trace",
        str(trace),
        "--smoke",
    ]
    return subprocess.run(
        command, cwd=cwd, capture_output=True, text=True, timeout=300
    )


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _digest(proc) -> str:
    first = proc.stdout.splitlines()[0]
    return first.rsplit("output digest ", 1)[1].strip()


@pytest.fixture(scope="module")
def runs():
    return {
        (workload, trace): _run(workload, trace)
        for workload in bench.WORKLOADS
        for trace in (0, 1)
    }


@pytest.fixture(scope="module")
def declared():
    return bench.load_benchmark_json()


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_printed_metrics_match_benchmark_json(runs, declared, workload):
    untraced = _result(runs[(workload, 0)])
    traced = _result(runs[(workload, 1)])
    for result in (untraced, traced):
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 2
    assert set(untraced["metrics"]) == {
        m["name"] for m in declared["end_to_end"]
    }
    assert set(traced["metrics"]) == {m["name"] for m in declared["per_layer"]}
    for metric in declared["end_to_end"]:
        value = untraced["metrics"][metric["name"]]
        assert value["unit"] == metric["unit"]
        assert value["value"] > 0
    # All eight end-to-end metrics are printed, each with its unit.
    text = runs[(workload, 0)].stdout
    for name, unit in bench.END_TO_END.items():
        assert any(
            line.split()[:1] == [name] and f" {unit}" in line
            for line in text.splitlines()
        ), name


def test_declared_per_layer_metrics_are_computed(declared):
    assert [m["name"] for m in declared["per_layer"]] == [
        m.name for m in probes.PER_LAYER
    ]


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_every_layer_of_a_workload_emits_spans(runs, workload):
    _result(runs[(workload, 1)])
    table = bench.OUT / "trace" / f"{workload}-seed{SEED}.layers.tsv"
    seen = set()
    for line in table.read_text().splitlines()[1:]:
        if not line:
            break
        seen.add(line.split("\t")[0])
    missing = set(probes.WORKLOAD_LAYERS[workload]) - seen
    assert not missing, f"{workload}: no spans from {sorted(missing)}"
    trace = json.loads(
        (bench.OUT / "trace" / f"{workload}-seed{SEED}.trace.json").read_text()
    )
    assert any(e["ph"] == "X" for e in trace["traceEvents"])
    if workload == "wide_star":
        pids = {e["pid"] for e in trace["traceEvents"] if e["ph"] == "X"}
        assert len(pids) > 1, "no spans from the pool workers"


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_tracing_leaves_the_output_unchanged(runs, workload):
    untraced, traced = runs[(workload, 0)], runs[(workload, 1)]
    _result(untraced)
    _result(traced)
    assert _digest(untraced) == _digest(traced)


def test_held_out_seed_runs_clean():
    proc = _run("census", 0, seed=HELD_OUT_SEED)
    assert _result(proc)["correct"] is True


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        HERE,
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = _run("census", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
