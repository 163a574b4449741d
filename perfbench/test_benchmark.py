"""Self-test of the benchmark, on tiny inputs (``run.py --smoke``).

    python3 -m pytest perfbench -q

Runs every workload untraced and traced, validates each result line
against BENCHMARK.json, checks the counts the program must report for the
smoke inputs, and checks that the benchmark refuses to run without the
program's sources.
"""

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
PATH = re.compile(r"[A-Za-z0-9_./-]{1,200}")
LAYER_GROUPS = ("ingest", "aggregate", "growth", "stats", "model", "cohort", "synth", "cli", "trace")


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
            "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=600)


def parse(proc: subprocess.CompletedProcess) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def validate(result: dict, section: str) -> dict[str, float]:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, result
    assert result["failed"] == 0 and isinstance(result["attempted"], int) and result["attempted"] >= 1
    units = {m["name"]: m["unit"] for m in BENCH[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert all(isinstance(v, (int, float)) and math.isfinite(v) for v in values.values())
    return values


def test_benchmark_json_follows_the_contract():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert BENCH["command"] == ["python3", "perfbench/run.py"]
    assert 1 <= len(BENCH["paths"]) <= 16 and all(PATH.fullmatch(p) for p in BENCH["paths"])
    assert isinstance(BENCH["run_seconds"], int) and 1 <= BENCH["run_seconds"] <= 60
    assert 2 <= len(BENCH["workloads"]) <= 8
    for w in BENCH["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    assert 1 <= len(BENCH["end_to_end"]) <= 16 and 1 <= len(BENCH["per_layer"]) <= 128
    for m in BENCH["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in BENCH["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    names = [m["name"] for section in ("workloads", "end_to_end", "per_layer") for m in BENCH[section]]
    assert all(NAME.fullmatch(n) for n in names)
    metrics = BENCH["end_to_end"] + BENCH["per_layer"]
    assert len({m["name"] for m in metrics}) == len(metrics)
    assert all(UNIT.fullmatch(m["unit"]) and m["better"] in ("lower", "higher") for m in metrics)
    setup = next(m for m in BENCH["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in BENCH["end_to_end"])
    assert {m["name"].split(".")[0] for m in BENCH["per_layer"]} == set(LAYER_GROUPS)
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_run(workload):
    record, result = parse(run_bench(workload, 0))
    values = validate(result, "end_to_end")
    assert all(v > 0 for v in values.values())
    assert record["passes"] and not any(p["traced"] for p in record["passes"])


# counts the seed program gives on the smoke inputs of each workload
SMOKE_COUNTS = {
    "export": {
        "aggregate.aggregate_dataset.calls": 16,  # cohort aggregates W twice
        "growth.class_bins.calls": 24,
        "ingest.rows_rejected": 24,  # every injected defect, nothing else
        "model.draws": 0,
    },
    "generate": {
        # Laplace + Burr: per page-week in synth (8 pages x 26 ISO weeks) and
        # per step in simulate (9 series x 100 runs x 10 steps)
        "model.draws": 2 * 8 * 26 + 2 * 9 * 100 * 10,
        "ingest.rows_read": 0,
        "aggregate.aggregate_dataset.calls": 0,
    },
}
# groups that must show work on each workload
ACTIVE_GROUPS = {
    "export": ("ingest", "aggregate", "growth", "stats", "cohort", "cli", "trace"),
    "generate": ("ingest", "model", "synth", "cli", "trace"),
}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run(workload):
    record, result = parse(run_bench(workload, 1))
    values = validate(result, "per_layer")
    assert record["absent"] == [] and record["probe_errors"] == []
    assert any(p["traced"] for p in record["passes"]) and any(not p["traced"] for p in record["passes"])
    for name, count in SMOKE_COUNTS[workload].items():
        assert values[name] == count, name
    for group in ACTIVE_GROUPS[workload]:
        assert any(v > 0 for k, v in values.items() if k.startswith(group + ".")), group
    assert values["trace.overhead_ratio"] > 0
    assert values["trace.coverage"] >= 0.9
    spans = json.loads((ROOT / record["spans_file"]).read_text())
    assert spans and all({"command", "spans", "main"} <= set(s) for s in spans)


def test_refuses_to_run_without_the_program():
    bare = ROOT / ".bench_build" / "bare-checkout"  # BENCHMARK.json and paths only
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in BENCH["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = run_bench(WORKLOADS[0], 0, cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
