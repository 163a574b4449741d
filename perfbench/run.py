"""pagegrowth benchmark: runs one workload through the CLI, checks it, prints metrics.

    python3 perfbench/run.py --workload export|generate --seed N \\
        --seconds S --trace 0|1 [--smoke]

Each command runs in its own child process (``child.py``) that imports
``pagegrowth`` from this checkout's ``src/``. Commands run one at a time:
a closed loop with one client, because the host has two CPUs. A pass is
one execution of the workload's command sequence; passes repeat until
``--seconds`` is spent (at least one runs, and the last may overrun it by
half a pass). Outputs are checked after each pass, outside the timed region.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones: it alternates untraced and traced passes, so the tracing overhead
is measured in the same run. ``--smoke`` shrinks every input so the
benchmark's self-test (``test_benchmark.py``) finishes quickly.

End-to-end times are divided by the host's speed, measured in the same
run: a reference job (a fresh interpreter importing numpy and the scipy
modules the program uses, none of the program) runs before every command
and after the last. Its median time is the run's host unit, so times read as
seconds on a host where the reference job takes 1 s. Per-layer times are
as measured.

The last line of standard output is the result as one JSON object; the
line before it is the run record (versions, host load, input digests, every
reference job and pass, raw end-to-end values). Spans of traced passes are
written to ``.bench_build/traces/``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from statistics import median
from typing import Callable

import checks
import corpus
import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"
RUN_LIMIT_S = 170  # a command still running then is killed and counts as failed
# Host speed drifts by up to 1.7x over minutes on a shared 2-vCPU host; the
# program's import time tracked it within 4-8%, so the reference job is
# the same kind of work, on libraries no change to the program touches.
REFERENCE_JOB = ("-c", "import numpy, scipy.optimize, scipy.stats")
CLI_COMMANDS = ("aggregate", "analyze", "model", "cohort", "simulate", "synth")
EXPORT_COMMANDS = ("aggregate", "analyze", "model", "cohort")


@dataclass
class Command:
    name: str
    argv: list[str]
    out: Path


@dataclass
class Workload:
    commands: Callable[[Path], list[Command]]
    check: Callable[[Command, str], list[str]]
    work: Callable[[list["CommandRun"]], float]  # throughput items in one pass
    item: str
    inputs: dict[str, str] = field(default_factory=dict)  # input file -> sha256


@dataclass
class CommandRun:
    name: str
    wall_s: float
    import_s: float | None
    rss_mb: float
    stdout: str
    problems: list[str]
    trace: dict | None


@dataclass
class Pass:
    traced: bool
    wall_s: float
    runs: list[CommandRun]
    work: float
    outputs: dict[str, str]  # output file -> sha256


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def export_workload(work_dir: Path, seed: int, smoke: bool) -> Workload:
    # model regresses the Burr shapes at M only with >= 2 bins of >= 50
    # follower samples, which the smoke corpus is too small to give
    if smoke:
        spec = corpus.CorpusSpec(n_pages=20, start="2018-01-01", end="2019-07-01")
        coefficient_scales = ("W",)
    else:
        spec = corpus.CorpusSpec(n_pages=40, start="2018-01-01", end="2020-01-01")
        coefficient_scales = ("W", "M")
    data = corpus.generate(spec, seed, work_dir / "input")

    def commands(out: Path) -> list[Command]:
        return [
            Command(
                name,
                [name, "--input", str(data.posts_path), "--pages", str(data.pages_path), "--out", str(out / name)],
                out / name,
            )
            for name in EXPORT_COMMANDS
        ]

    return Workload(
        commands=commands,
        check=lambda cmd, stdout: checks.check_export(cmd.name, cmd.out, data, coefficient_scales),
        work=lambda runs: data.rows * len(runs),
        item="input post rows x commands",
        inputs=data.sha256,
    )


def generate_workload(work_dir: Path, seed: int, smoke: bool) -> Workload:
    """synth, then simulate with its defaults: the growth law per page-week and per draw.

    The two uses of the growth law share one workload so that each run is long
    enough to be steady; their own times are the ``cli.synth.*`` and
    ``cli.simulate.*`` layer metrics.
    """
    pages, start, end = (8, "2018-01-01", "2018-07-01") if smoke else (40, "2018-01-01", "2020-01-01")
    # the simulate CLI defaults; --smoke passes smaller runs and steps explicitly
    scales, f0_values, e0 = "WMQ", (25_000, 250_000, 1_000_000), 10_000.0
    runs, steps = (100, 10) if smoke else (1000, 20)
    sizes = ["--runs", str(runs), "--steps", str(steps)] if smoke else []
    trajectory_rows = len(scales) * len(f0_values) * runs * (steps + 1)

    def commands(out: Path) -> list[Command]:
        synth = [
            "synth", "--pages-count", str(pages), "--start", start, "--end", end,
            "--seed", str(seed), "--out", str(out / "synth"),
        ]
        simulate = ["simulate", "--seed", str(seed), "--out", str(out / "simulate"), *sizes]
        return [Command("synth", synth, out / "synth"), Command("simulate", simulate, out / "simulate")]

    def check(cmd: Command, stdout: str) -> list[str]:
        if cmd.name == "synth":
            return checks.check_synth(cmd.out, stdout, pages, start, end)
        return checks.check_simulate(cmd.out, scales, f0_values, e0, runs, steps)

    def rows_written(command_runs: list[CommandRun]) -> float:
        match = checks.REPORTED_POSTS.search(command_runs[0].stdout)
        return (float(match.group(1)) if match else 0.0) + trajectory_rows

    return Workload(
        commands=commands,
        check=check,
        work=rows_written,
        item="rows written: synth posts + simulate trajectory rows",
    )


WORKLOADS = {"export": export_workload, "generate": generate_workload}


# ---------------------------------------------------------------------------
# running commands
# ---------------------------------------------------------------------------

def run_child(name: str, mode: str, argv: list[str], logs: Path, deadline: float) -> CommandRun:
    """One child process, start to exit; its problems list is empty when it succeeded."""
    logs.mkdir(parents=True, exist_ok=True)
    result_path = logs / "result.json"
    cmd = [sys.executable, str(HERE / "child.py"), str(result_path), str(SRC), mode, *argv]
    problems = []
    with open(logs / "stdout", "wb") as out, open(logs / "stderr", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=logs)
        try:
            proc.wait(timeout=max(0.0, deadline - start))
        except subprocess.TimeoutExpired:
            problems.append(f"killed at the {RUN_LIMIT_S} s run limit")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        wall_s = time.perf_counter() - start
    stdout = (logs / "stdout").read_text(errors="replace")
    stderr = (logs / "stderr").read_text(errors="replace")
    try:
        result = json.loads(result_path.read_text())
    except (OSError, ValueError):
        result = {}
        problems.append(f"no result, exit code {proc.returncode}: {stderr.strip()[-300:]}")
    module = result.get("module", "")
    if result and not Path(module).resolve().is_relative_to(SRC):
        problems.append(f"imported pagegrowth from {module}, not from {SRC}")
    rc = result.get("rc") or 0
    if rc != 0:
        problems.append(f"exit code {rc}: {stderr.strip()[-300:]}")
    if "Traceback (most recent call last)" in stderr:
        problems.append("traceback on stderr")
    return CommandRun(
        name=name,
        wall_s=wall_s,
        import_s=result.get("import_s"),
        rss_mb=result.get("maxrss_kb", 0) / 1024.0,
        stdout=stdout,
        problems=problems,
        trace=result.get("trace"),
    )


def sha256_tree(root: Path) -> dict[str, str]:
    return {str(p.relative_to(root)): corpus.sha256_file(p) for p in sorted(root.rglob("*")) if p.is_file()}


def reference_job_s(deadline: float) -> float:
    """Wall time of one reference job, process start to exit."""
    start = time.perf_counter()
    subprocess.run([sys.executable, *REFERENCE_JOB], check=True, timeout=max(0.0, deadline - start))
    return time.perf_counter() - start


def run_pass(
    workload: Workload, traced: bool, pass_dir: Path, deadline: float, references: list[float]
) -> Pass:
    """One pass, with a reference job before each command (appended to ``references``).

    The pass's time is the sum of its commands' times, so the reference jobs
    between them are not part of it.
    """
    commands = workload.commands(pass_dir / "out")
    mode = "traced" if traced else "plain"
    runs = []
    for c in commands:
        references.append(reference_job_s(deadline))
        runs.append(run_child(c.name, mode, c.argv, pass_dir / "logs" / c.name, deadline))
    for command, run in zip(commands, runs):
        if not run.problems:
            run.problems = workload.check(command, run.stdout)
    outputs = sha256_tree(pass_dir / "out")
    shutil.rmtree(pass_dir)
    return Pass(traced, sum(r.wall_s for r in runs), runs, workload.work(runs), outputs)


def measure(
    workload: Workload, seconds: float, traced: bool, work_dir: Path, deadline: float
) -> tuple[list[Pass], list[float]]:
    """Untraced passes, or untraced/traced pairs, until ``seconds`` is spent,
    with reference job times from before every command and after the last.

    A round is not started when it would end more than half a round past
    ``seconds``, so the run measures ``seconds`` on average, whatever the
    length of a pass.
    """
    modes = (False, True) if traced else (False,)
    passes: list[Pass] = []
    references: list[float] = []
    start = time.perf_counter()
    while True:
        for mode in modes:
            passes.append(run_pass(workload, mode, work_dir / f"pass{len(passes)}", deadline, references))
        elapsed = time.perf_counter() - start
        rounds = len(passes) // len(modes)
        if elapsed + 0.5 * elapsed / rounds >= seconds:
            references.append(reference_job_s(deadline))
            return passes, references


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def _median(values) -> float:
    """Median, or 0 when nothing was measured (the run is then not correct)."""
    values = list(values)
    return median(values) if values else 0.0


def end_to_end_metrics(passes: list[Pass], imports: list[float], host_s: float = 1.0) -> dict[str, float]:
    """Times in units of ``host_s`` seconds (1: as measured)."""
    # A run holds two to five passes of 10-20 s; the mean over them uses all the
    # time measured, where a median of three would rest on one pass.
    busy_s = sum(p.wall_s for p in passes) / host_s
    return {
        "wall_s": busy_s / len(passes),
        "throughput": sum(p.work for p in passes) / busy_s,
        "setup_s": _median(imports) / host_s,
        "peak_rss_mb": median(max(r.rss_mb for r in p.runs) for p in passes),
    }


def per_layer_metrics(passes: list[Pass], imports: list[float]) -> tuple[dict[str, float], list[str]]:
    plain = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    per_pass, coverage, wrapped = [], [], set()
    for p in traced:
        metrics, cover, names = layers.pass_metrics([r.trace for r in p.runs if r.trace])
        per_pass.append(metrics)
        coverage += cover
        wrapped |= names
    out = {name: median(m[name] for m in per_pass) for name in per_pass[0]}
    out["cli.import_s"] = _median(imports)
    for command in CLI_COMMANDS:
        out[f"cli.{command}.wall_s"] = _median(r.wall_s for p in plain for r in p.runs if r.name == command)
        out[f"cli.{command}.peak_rss_mb"] = _median(r.rss_mb for p in plain for r in p.runs if r.name == command)
    out["trace.overhead_ratio"] = median(p.wall_s for p in traced) / median(p.wall_s for p in plain)
    out["trace.coverage"] = min(coverage) if coverage else 0.0
    absent = [name for name in layers.NAMED_FUNCTIONS if name not in wrapped]
    return out, absent


def _version(package: str) -> str:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return "absent"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the self-test")
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + RUN_LIMIT_S

    if not (SRC / "pagegrowth" / "cli.py").is_file():
        print(f"error: no pagegrowth sources under {SRC}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = bench["per_layer" if args.trace else "end_to_end"]

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "smoke": args.smoke,
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
    }
    work_dir = BUILD / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    try:
        start = time.perf_counter()
        compileall.compile_dir(str(SRC), quiet=1)
        record["build_s"] = time.perf_counter() - start
        start = time.perf_counter()
        workload = WORKLOADS[args.workload](work_dir, args.seed, args.smoke)
        record["input_s"] = time.perf_counter() - start
        record["input_sha256"] = workload.inputs
        record["throughput_item"] = workload.item
        passes, references = measure(workload, args.seconds, bool(args.trace), work_dir, deadline)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    record["reference_job_s"] = references
    record["host_s"] = median(references)
    record["loadavg_end"] = os.getloadavg()

    runs = [r for p in passes for r in p.runs]
    imports = [r.import_s for r in runs if r.import_s is not None]
    failed = sum(1 for r in runs if r.problems)
    if args.trace:
        metrics, record["absent"] = per_layer_metrics(passes, imports)
        record["probe_errors"] = sorted(
            {e for r in runs if r.trace for e in r.trace["probe_errors"]}
        )
        traces = BUILD / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        spans_path = traces / f"{args.workload}-seed{args.seed}.json"
        spans_path.write_text(json.dumps([{"command": r.name, **r.trace} for r in runs if r.trace]))
        record["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        metrics = end_to_end_metrics(passes, imports, record["host_s"])
        record["raw"] = end_to_end_metrics(passes, imports)
    record["passes"] = [
        {
            "traced": p.traced,
            "wall_s": p.wall_s,
            "commands": [
                {"name": r.name, "wall_s": r.wall_s, "import_s": r.import_s, "rss_mb": r.rss_mb,
                 "problems": r.problems}
                for r in p.runs
            ],
        }
        for p in passes
    ]
    record["output_sha256"] = passes[0].outputs

    names = [m["name"] for m in wanted]
    if sorted(metrics) != sorted(names):
        print(f"error: metrics {sorted(set(metrics) ^ set(names))} disagree with BENCHMARK.json", file=sys.stderr)
        return 3
    units = {m["name"]: m["unit"] for m in wanted}
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
