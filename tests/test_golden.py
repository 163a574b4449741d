"""Golden pins: the bytes every CLI command writes, on one fixed corpus.

The corpus is frozen in ``golden_corpus/``: a seeded ``synth`` output
(20 pages, 2018, seed 11, the built-in table) with a few malformed post
and page rows appended. It goes through ``aggregate``, ``analyze``,
``model`` and ``cohort`` twice: once with default flags and once with the
flags no other CLI test covers. ``synth`` itself runs with the same
arguments and has its own outputs pinned (with the same rows appended),
so a change to the synthetic stream moves only synth's digests, never the
data commands'. A small ``simulate`` runs too. The sha256 of every output
file, of stdout and of stderr (temporary directory replaced by
``<tmp>``), of the Python warnings raised (category and message) and
each exit code are compared with ``golden_digests.json``.

A refactor must leave every digest unchanged. A change that alters an
output on purpose re-pins the digests and says why::

    PYTHONPATH=src python tests/test_golden.py   # rewrites golden_digests.json

Re-pinning never regenerates ``golden_corpus/``: the data commands keep
reading the same bytes whatever synth writes today.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import sys
import warnings
from pathlib import Path

import numpy as np
import scipy

from pagegrowth.cli import main

GOLDEN = Path(__file__).with_name("golden_digests.json")
CORPUS = Path(__file__).with_name("golden_corpus")  # synth's seed-11 output plus the rows below

# appended to the synthetic files: one row per rejection kind
BAD_POSTS = [
    "page0001,bad-short,2018-03-01T10:00:00Z,1,2,3",
    "page0001,bad-negative,2018-03-01T10:00:00Z,-1,2,3,4,20000",
    "page0002,bad-sum,2018-03-02T10:00:00Z,1,2,3,7,20000",
    "page0002,bad-time,2018-13-02T10:00:00Z,1,2,3,6,20000",
    "page0003,page0003-000001,2018-03-03T10:00:00Z,1,2,3,6,20000",
    "ghost,bad-orphan,2018-03-04T10:00:00Z,1,2,3,6,20000",
]
BAD_PAGES = [
    "late,Late Outlet,not-a-date,70,en",
    "loud,Loud Outlet,2015-01-01,140,en",
]
CLASSES = "label,lower,upper\nsmall,10000,100000\nmid,100000,1000000\nbig,1000000,10000000\n"

DATA = ["--input", "{tmp}/data/posts.csv", "--pages", "{tmp}/data/pages.csv"]
FLAGS = ["--metric", "followers", "--trim-rates", "--quarter-rule", "earliest",
         "--classes", "{tmp}/classes.csv"]

RUNS = [
    ("synth", ["synth", "--out", "{tmp}/data", "--pages-count", "20", "--start", "2018-01-01",
               "--end", "2019-01-01", "--posts-per-day", "1.0", "--seed", "11",
               "--model", "builtin-table1"]),
    ("aggregate", ["aggregate", *DATA]),
    ("analyze", ["analyze", *DATA]),
    ("model", ["model", *DATA]),
    ("cohort", ["cohort", *DATA]),
    ("simulate", ["simulate", "--runs", "20", "--steps", "5", "--seed", "3"]),
    ("aggregate-flags", ["aggregate", *DATA, *FLAGS]),
    ("analyze-flags", ["analyze", *DATA, *FLAGS]),
    ("model-flags", ["model", *DATA, *FLAGS]),
    ("cohort-flags", ["cohort", *DATA, *FLAGS, "--matching", "greedy"]),
]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def observe(tmp: Path) -> dict[str, str]:
    """Run every command under ``tmp``; digest of each output, stream and exit code."""
    (tmp / "classes.csv").write_text(CLASSES)
    digests: dict[str, str] = {}
    for name, template in RUNS:
        out_dir = tmp / "runs" / name
        argv = [arg.format(tmp=tmp) for arg in template]
        if name != "synth":
            argv += ["--out", str(out_dir)]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv)
        digests[f"{name}/exit"] = str(code)
        raised = "".join(f"{w.category.__name__}: {w.message}\n" for w in caught)
        digests[f"{name}/warnings"] = _sha(raised.encode())
        for stream_name, stream in (("stdout", stdout), ("stderr", stderr)):
            text = stream.getvalue().replace(str(tmp), "<tmp>")
            digests[f"{name}/{stream_name}"] = _sha(text.encode())
        if name == "synth":
            with open(tmp / "data" / "posts.csv", "a") as fh:
                fh.write("\n".join(BAD_POSTS) + "\n")
            with open(tmp / "data" / "pages.csv", "a") as fh:
                fh.write("\n".join(BAD_PAGES) + "\n")
            out_dir = tmp / "data"
        for path in sorted(out_dir.iterdir()):
            digests[f"{name}/{path.name}"] = _sha(path.read_bytes())
        if name == "synth":  # the data commands read the frozen corpus at the same paths
            for path in CORPUS.iterdir():
                shutil.copyfile(path, tmp / "data" / path.name)
    return digests


def _versions() -> str:
    return f"numpy {np.__version__}, scipy {scipy.__version__}, python {sys.version.split()[0]}"


def test_outputs_match_golden_digests(tmp_path):
    observed = observe(tmp_path)
    assert observed["model/coefficients.csv"] != _sha(
        b"parameter,timescale,beta0,beta1,beta2\n"
    ), "model wrote no coefficients; the corpus no longer exercises the fits"
    assert "aggregate/rejections.csv" in observed
    expected = json.loads(GOLDEN.read_text())
    differing = sorted(k for k in set(expected) | set(observed) if expected.get(k) != observed.get(k))
    assert not differing, (
        f"{len(differing)} golden digests differ ({_versions()}): {differing}\n"
        f"observed digests:\n{json.dumps(observed, indent=1, sort_keys=True)}"
    )


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        pins = observe(Path(tmp))
    GOLDEN.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(pins)} digests to {GOLDEN} ({_versions()})")
