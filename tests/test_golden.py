"""Golden pins: the bytes every CLI command writes, on one fixed corpus.

The corpus is frozen in ``golden_corpus/``: a seeded ``synth`` output
(20 pages, 2018, seed 11, the built-in table) with a few malformed post
and page rows appended. It goes through ``aggregate``, ``analyze``,
``model`` and ``cohort`` twice: once with default flags and once with
non-default values of the flags each takes that no other CLI test covers
(``FLAGS`` for ``analyze``, the part of it the command takes for
``aggregate`` and ``model``, ``--matching greedy`` for ``cohort``).
``synth`` itself runs with the same arguments and has its own outputs
pinned (with the same rows appended), so a change to the synthetic stream
moves only synth's digests, never the data commands'. A small ``simulate`` runs too.
No post of the corpus lacks ``followers_at_posting``, so ``aggregate``,
``analyze``, ``model`` and ``cohort`` also run with default flags on a
copy (``absent_corpus``) where that field is blank for every post of one
page and for every 7th post of another: blank counts, cells, windows and
samples without one, and a page left out of matching. The sha256 of every output
file, of stdout and of stderr (temporary directory replaced by
``<tmp>``), of the Python warnings raised (category and message) and
each exit code are compared with ``golden_digests.json``.

A refactor must leave every digest unchanged. A change that alters an
output on purpose re-pins the digests and says why::

    PYTHONPATH=src python tests/test_golden.py   # rewrites golden_digests.json

Re-pinning never regenerates ``golden_corpus/``: the data commands keep
reading the same bytes whatever synth writes today. It records the numpy
version and SIMD level it pinned under as ``_pinned_under``.

Nine digests hold Burr fits or values regressed on them (``FIT_DIGESTS``):
``fits.csv`` of ``analyze``, ``analyze-flags`` and ``absent-analyze``, and
``coefficients.csv`` and ``regression_details.csv`` of ``model``,
``model-flags`` and ``absent-model``. Their last digits depend on the SIMD
level numpy dispatches ``exp``, ``log1p`` and ``expm1`` to. They are pinned
under numpy 2.4.6 at X86_V4 (AVX-512); under ``NPY_DISABLE_CPU_FEATURES=X86_V4``
exactly these nine differ. The comparison stays exact, and when one of the
nine differs its message names the level pinned under and the level observed.
``test_fits_agree_below_x86_v4`` checks that the two levels give the same fits
and coefficients within ``tests.test_stats.BURR_FIT_REL``, for all of them but
``absent-model/regression_details.csv``: its ``c``/W row prints r_squared to
six significant digits (0.255399 at X86_V4, 0.255398 below), so a last-digit
flip there is 4e-6 relative.

The runs above share this process, which loads numpy before the CLI and so
keeps OpenBLAS's default thread pool. A command starts with one OpenBLAS
thread instead, so ``test_model_outputs_unchanged_under_one_blas_thread``
runs the three ``model`` runs, the only BLAS users, in a fresh interpreter
that starts as a command does, against the same digests.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import warnings
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest
import scipy

try:
    from numpy._core._multiarray_umath import __cpu_baseline__, __cpu_dispatch__, __cpu_features__
except ImportError:  # numpy 1.x
    from numpy.core._multiarray_umath import __cpu_baseline__, __cpu_dispatch__, __cpu_features__

from pagegrowth.cli import main
from pagegrowth.stats import BurrParams, burr_cdf, burr_ppf

GOLDEN = Path(__file__).with_name("golden_digests.json")
CORPUS = Path(__file__).with_name("golden_corpus")  # synth's seed-11 output plus the rows below
PINNED_UNDER = "_pinned_under"  # the key of the level the digests were pinned under
LEVEL_CHECKED_DIGESTS = (  # test_fits_agree_below_x86_v4 compares these across SIMD levels
    "analyze/fits.csv",
    "analyze-flags/fits.csv",
    "model/coefficients.csv",
    "model-flags/coefficients.csv",
    "model/regression_details.csv",
    "model-flags/regression_details.csv",
    "absent-analyze/fits.csv",
    "absent-model/coefficients.csv",
)
# absent-model's regression details print an r_squared whose sixth digit differs below X86_V4
FIT_DIGESTS = (*LEVEL_CHECKED_DIGESTS, "absent-model/regression_details.csv")

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
ABSENT_DATA = ["--input", "{tmp}/absent/posts.csv", "--pages", "{tmp}/absent/pages.csv"]
# absent_corpus blanks followers_at_posting for every post of a reliable page matched in the golden cohort run,
# and for every 7th post of a questionable one
NO_FOLLOWERS, SOME_FOLLOWERS = "page0009", "page0005"
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
    ("aggregate-flags", ["aggregate", *DATA, "--quarter-rule", "earliest"]),
    ("analyze-flags", ["analyze", *DATA, *FLAGS]),
    ("model-flags", ["model", *DATA, "--metric", "followers", "--quarter-rule", "earliest"]),
    ("cohort-flags", ["cohort", *DATA, "--matching", "greedy"]),
    ("absent-aggregate", ["aggregate", *ABSENT_DATA]),
    ("absent-analyze", ["analyze", *ABSENT_DATA]),
    ("absent-model", ["model", *ABSENT_DATA]),
    ("absent-cohort", ["cohort", *ABSENT_DATA]),
]


def absent_corpus(source: Path, target: Path) -> None:
    """The corpus in ``source`` copied to ``target``, with followers_at_posting blanked for every post of
    NO_FOLLOWERS and for every 7th post (in file order) of SOME_FOLLOWERS."""
    target.mkdir(parents=True, exist_ok=True)
    shutil.copyfile(source / "pages.csv", target / "pages.csv")
    lines, seen = [], 0
    for line in (source / "posts.csv").read_text().splitlines(keepends=True):
        fields = line.split(",")
        if fields[0] == SOME_FOLLOWERS:
            seen += 1
        if len(fields) == 8 and (fields[0] == NO_FOLLOWERS or (fields[0] == SOME_FOLLOWERS and seen % 7 == 0)):
            line = ",".join(fields[:7]) + ",\n"
        lines.append(line)
    (target / "posts.csv").write_text("".join(lines))


def stage_corpus(tmp: Path) -> None:
    """The frozen corpus at ``tmp/data`` and its copy without some follower counts at ``tmp/absent``."""
    shutil.copytree(CORPUS, tmp / "data", dirs_exist_ok=True)
    absent_corpus(CORPUS, tmp / "absent")


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
            stage_corpus(tmp)
    return digests


def _versions() -> str:
    return f"numpy {np.__version__}, scipy {scipy.__version__}, python {sys.version.split()[0]}"


def simd_level() -> str:
    """numpy's version, its baseline and the dispatch targets this host enables."""
    enabled = " ".join(t for t in __cpu_dispatch__ if __cpu_features__.get(t)) or "none"
    return f"numpy {np.__version__}, SIMD baseline {' '.join(__cpu_baseline__)}, dispatch {enabled}"


def test_outputs_match_golden_digests(tmp_path):
    observed = observe(tmp_path)
    assert observed["model/coefficients.csv"] != _sha(
        b"parameter,timescale,beta0,beta1,beta2\n"
    ), "model wrote no coefficients; the corpus no longer exercises the fits"
    assert "aggregate/rejections.csv" in observed
    expected = json.loads(GOLDEN.read_text())
    pinned_under = expected.pop(PINNED_UNDER, "an unrecorded level")
    differing = sorted(k for k in set(expected) | set(observed) if expected.get(k) != observed.get(k))
    levels = ""
    if set(differing) & set(FIT_DIGESTS):
        levels = f"Burr fit digests pinned under {pinned_under}, observed under {simd_level()}\n"
    assert not differing, (
        f"{len(differing)} golden digests differ ({_versions()}): {differing}\n{levels}"
        f"observed digests:\n{json.dumps(observed, indent=1, sort_keys=True)}"
    )


# runs each argv given as a JSON list, then prints whether numpy dispatches to X86_V4
_RUN_SCRIPT = """
import json, sys
try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:
    from numpy.core._multiarray_umath import __cpu_features__
from pagegrowth.cli import main
for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, argv
print(bool(__cpu_features__.get("X86_V4")))
"""
_BURR_U = np.linspace(0.01, 0.99, 99)  # the probabilities at which two fitted Burr laws are compared


def _read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _assert_cells_close(here: list[str], below: list[str], bound: float) -> None:
    assert len(here) == len(below)
    for a, b in zip(here, below):
        if a != b:
            assert float(a) == pytest.approx(float(b), rel=bound), (here, below)


def _assert_fits_close(here: list[list[str]], below: list[list[str]], bound: float) -> None:
    """Laplace rows equal; each Burr fit's CDF within the bound of the other's.

    For c in the thousands the objective is nearly flat along a valley of
    (c, k), so the optimizer stops at points that give the same law but
    differ in c and k by up to 2e-3.
    """
    assert [row[:4] for row in here] == [row[:4] for row in below]
    burr: dict[tuple, list[dict]] = defaultdict(lambda: [{}, {}])
    for a, b in zip(here[1:], below[1:]):
        if a[2] == "burr":
            burr[tuple(a[:2])][0][a[3]] = float(a[4])
            burr[tuple(a[:2])][1][b[3]] = float(b[4])
        else:
            assert a == b
    assert burr, "the golden fits hold no Burr row"
    for key, (p, q) in burr.items():
        gap = np.max(np.abs(burr_cdf(burr_ppf(_BURR_U, BurrParams(**p)), BurrParams(**q)) - _BURR_U))
        assert gap <= bound, (key, p, q, gap)


@pytest.mark.skipif(not __cpu_features__.get("X86_V4"), reason="numpy reports no X86_V4 on this host")
def test_fits_agree_below_x86_v4(tmp_path):
    """The golden ``analyze`` and ``model`` runs, here and in a child process
    with ``NPY_DISABLE_CPU_FEATURES=X86_V4``: their fits and coefficients
    differ in the last digits but agree within the bound."""
    from tests.test_stats import BURR_FIT_REL  # not importable when this file runs as a script

    (tmp_path / "classes.csv").write_text(CLASSES)
    stage_corpus(tmp_path)
    names = {digest.split("/")[0] for digest in LEVEL_CHECKED_DIGESTS}
    runs = {name: [arg.format(tmp=tmp_path) for arg in t] for name, t in RUNS if name in names}
    for name, argv in runs.items():
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main([*argv, "--out", str(tmp_path / "v4" / name)]) == 0
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {
        **os.environ,
        "NPY_DISABLE_CPU_FEATURES": "X86_V4",
        "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
    }
    argvs = [[*argv, "--out", str(tmp_path / "below" / name)] for name, argv in runs.items()]
    proc = subprocess.run(
        [sys.executable, "-c", _RUN_SCRIPT, json.dumps(argvs)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[-1] == "False", "the child still dispatched to X86_V4"
    for digest in LEVEL_CHECKED_DIGESTS:
        here, below = _read_csv(tmp_path / "v4" / digest), _read_csv(tmp_path / "below" / digest)
        if digest.endswith("fits.csv"):
            _assert_fits_close(here, below, BURR_FIT_REL)
        else:
            assert len(here) == len(below) > 1
            for a, b in zip(here, below):
                _assert_cells_close(a, b, BURR_FIT_REL)


# runs each argv given as a JSON list after importing the CLI before numpy, as a command starts
_ONE_THREAD_SCRIPT = """
import json, os, sys
assert "numpy" not in sys.modules
from pagegrowth.cli import main
assert os.environ["OPENBLAS_NUM_THREADS"] == "1"
for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, argv
"""


def test_model_outputs_unchanged_under_one_blas_thread(tmp_path):
    """The golden ``model`` runs in a fresh interpreter where the CLI starts
    OpenBLAS with one thread: their least-squares fits are the only BLAS calls,
    and their outputs keep the pinned digests (this test module imports numpy
    before the CLI, so the other golden runs keep numpy's default pool)."""
    stage_corpus(tmp_path)
    names = ("model", "model-flags", "absent-model")
    argvs = [[*(arg.format(tmp=tmp_path) for arg in t), "--out", str(tmp_path / "runs" / name)]
             for name, t in RUNS if name in names]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _ONE_THREAD_SCRIPT, json.dumps(argvs)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    expected = json.loads(GOLDEN.read_text())
    for name in names:
        for file in ("coefficients.csv", "regression_details.csv"):
            digest = f"{name}/{file}"
            assert _sha((tmp_path / "runs" / digest).read_bytes()) == expected[digest], (
                f"{digest} pinned under {expected[PINNED_UNDER]}, observed under {simd_level()}")


# runs each argv given as a JSON list in a fresh interpreter, then prints whether numpy.ma was loaded
_NO_MA_SCRIPT = """
import json, sys
from pagegrowth.cli import main
for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, argv
print("numpy.ma" in sys.modules)
"""


def test_analyze_and_model_do_not_load_numpy_ma(tmp_path):
    """The golden ``analyze`` and ``model`` runs in a fresh interpreter: their
    percentiles, medians and distinct counts do not load ``numpy.ma``, which
    numpy's own ``np.percentile``, ``np.median`` and ``np.unique`` import."""
    (tmp_path / "classes.csv").write_text(CLASSES)
    shutil.copytree(CORPUS, tmp_path / "data")
    names = ("analyze", "model", "analyze-flags", "model-flags")
    argvs = [[*(arg.format(tmp=tmp_path) for arg in t), "--out", str(tmp_path / "runs" / name)]
             for name, t in RUNS if name in names]
    assert len(argvs) == len(names)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", _NO_MA_SCRIPT, json.dumps(argvs)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[-1] == "False", "numpy.ma was imported"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        pins = observe(Path(tmp))
    level = simd_level()
    GOLDEN.write_text(json.dumps({PINNED_UNDER: level, **pins}, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(pins)} digests to {GOLDEN} ({_versions()}; {level})")
