"""Every demo script runs to completion against the package in src/."""

import os
import subprocess
import sys
from datetime import date
from pathlib import Path

import pytest

from pagegrowth.synth import GeneratorConfig, generate, write_files

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    # a child process does not take pytest's filterwarnings, so RuntimeWarnings are made errors in it here
    src = str(ROOT / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(demo)], cwd=tmp_path, env=env, capture_output=True,
        text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip()


def test_readme_library_example_runs(tmp_path, monkeypatch, capsys):
    """README's ```python block under the library-call paragraph, run on a small synth corpus in data/."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    start = readme.index("```python\n", readme.index("The data commands are also library calls")) + len("```python\n")
    block = readme[start:readme.index("```", start)]
    corpus = generate(GeneratorConfig(n_pages=8, end=date(2018, 7, 1), posts_per_day=1.0), seed=3)
    write_files(corpus, tmp_path / "data")
    monkeypatch.chdir(tmp_path)
    exec(compile(block, "README.md", "exec"), {})
    printed = [line.split()[0] for line in capsys.readouterr().out.splitlines() if line.startswith("Timescale.")]
    assert printed == ["Timescale.W", "Timescale.M"]
