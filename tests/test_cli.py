"""CLI subcommands: formats, exit codes, determinism, pipeline composition."""

import argparse
import ast
import csv
import inspect
import json
import math
import os
import subprocess
import sys
import warnings
from datetime import date
from pathlib import Path

import pytest

import pagegrowth
from pagegrowth import model, pipeline
from pagegrowth.aggregate import Timescale
from pagegrowth.cli import build_parser, main
from pagegrowth.growth import DegenerateBinningError
from pagegrowth.ingest import (ABSENT, PAGES_HEADER, POSTS_HEADER, NumericalError, build_dataset, parse_pages,
                               parse_posts)
from pagegrowth.model import COEFFS_HEADER, CollinearCovariatesError, published_coefficients
from pagegrowth.stats import DegenerateSampleError, FitConvergenceError
from pagegrowth.synth import GeneratorConfig, generate, write_files


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    """A small synthetic dataset shared by the pipeline tests."""
    out = tmp_path_factory.mktemp("synthdata")
    code = main(
        [
            "synth",
            "--out", str(out),
            "--pages-count", "24",
            "--start", "2018-01-01",
            "--end", "2019-01-01",
            "--posts-per-day", "1.5",
            "--seed", "5",
        ]
    )
    assert code == 0
    return out


class TestSynth:
    def test_files_parse_cleanly(self, synth_dir):
        with open(synth_dir / "posts.csv", "rb") as fh:
            posts, report = parse_posts(fh)
        assert len(report) == 0 and posts
        with open(synth_dir / "pages.csv", "rb") as fh:
            pages, page_report = parse_pages(fh)
        assert len(page_report) == 0
        dataset, join_report = build_dataset(posts, pages)
        assert len(join_report) == 0
        assert len(dataset.pages) == 24

    def test_truth_written(self, synth_dir):
        truth = json.loads((synth_dir / "truth.json").read_text())
        assert truth["seed"] == 5
        assert "coefficients" in truth and "mu/W" in truth["coefficients"]

    def test_byte_identical_for_fixed_seed(self, tmp_path):
        config = GeneratorConfig(n_pages=6, start=date(2018, 1, 1), end=date(2018, 7, 1))
        for sub in ("a", "b"):
            write_files(generate(config, seed=9), tmp_path / sub)
        for name in ("posts.csv", "pages.csv", "truth.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_different_seed_differs(self, tmp_path):
        config = GeneratorConfig(n_pages=4, start=date(2018, 1, 1), end=date(2018, 4, 1))
        write_files(generate(config, seed=1), tmp_path / "a")
        write_files(generate(config, seed=2), tmp_path / "b")
        assert (tmp_path / "a" / "posts.csv").read_bytes() != (tmp_path / "b" / "posts.csv").read_bytes()

    def test_zero_pages_exit_2(self, tmp_path):
        code = main(["synth", "--out", str(tmp_path), "--pages-count", "0"])
        assert code == 2

    @pytest.mark.parametrize("flag, value, message", [
        pytest.param("--questionable-frac", "2", "questionable_fraction must lie in [0, 1]", id="frac=2"),
        pytest.param("--questionable-frac", "-1", "questionable_fraction must lie in [0, 1]", id="frac=-1"),
        # nan is refused by the number grammar when the flag is parsed; 1e999 reads as inf
        pytest.param("--questionable-frac", "nan", "argument --questionable-frac: must be a number, got 'nan'",
                     id="frac=nan"),
        pytest.param("--posts-per-day", "nan", "argument --posts-per-day: must be a number, got 'nan'", id="rate=nan"),
        pytest.param("--posts-per-day", "1e999", "posts_per_day must be finite and positive", id="rate=inf"),
    ])
    def test_numeric_flags_checked_before_writing(self, tmp_path, capsys, flag, value, message):
        out = tmp_path / "out"
        try:
            code = main(["synth", "--out", str(out), "--pages-count", "2", flag, value])
        except SystemExit as exc:  # a flag argparse refuses
            code = exc.code
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("start, end", [("0001-01-01", "0001-02-01"), ("9999-12-20", "9999-12-31")])
    def test_dates_outside_years_1_to_9999_exit_2(self, tmp_path, capsys, start, end):
        # once exit 3 (a created_at before year 1), once exit 0 with posts dated in year 10000
        out = tmp_path / "out"
        assert main(["synth", "--out", str(out), "--pages-count", "2", "--start", start, "--end", end]) == 2
        assert "generator dates must lie from 0005-02-08 to 9999-12-27" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--start", "--end"])
    @pytest.mark.parametrize("value", ["20180101", "2018-W10-1"])
    def test_date_flags_take_only_yyyy_mm_dd(self, tmp_path, capsys, flag, value):
        # date.fromisoformat reads both forms from Python 3.11 on, and neither before
        dates = {"--start": "2018-01-01", "--end": "2019-01-01", flag: value}
        out = tmp_path / "out"
        code = main(["synth", "--out", str(out), "--pages-count", "2",
                     "--start", dates["--start"], "--end", dates["--end"]])
        assert code == 2
        assert f"unparsable {flag} {value!r}" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("bad, message", [
    pytest.param("nan", "coefficients line 2: beta0 is not a number: 'nan'", id="nan"),  # the number grammar
    pytest.param("1e999", "mu/W beta0 is not finite: inf", id="inf"),
    pytest.param("-1e999", "mu/W beta0 is not finite: -inf", id="-inf"),
])
@pytest.mark.parametrize("command", ["synth", "simulate"])
def test_non_finite_coefficients_exit_2_before_writing(tmp_path, capsys, command, bad, message):
    coeffs = tmp_path / "coeffs.csv"
    coeffs.write_text(
        "parameter,timescale,beta0,beta1,beta2\n"
        f"mu,W,{bad},0,0\n"
        "b,W,0.2,0,0\n"
        "c,W,500,0,\n"
        "k,W,0.5,0,\n"
    )
    out = tmp_path / "out"
    if command == "synth":
        argv = ["synth", "--model", str(coeffs), "--pages-count", "2", "--end", "2018-03-01"]
    else:
        argv = ["simulate", "--coefficients", str(coeffs), "--timescales", "W", "--runs", "2", "--steps", "2"]
    assert main([*argv, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["synth", "simulate"])
def test_duplicate_coefficient_row_names_both_lines(tmp_path, capsys, command):
    coeffs = tmp_path / "coeffs.csv"
    coeffs.write_text(
        "parameter,timescale,beta0,beta1,beta2\n"
        "mu,W,0.01,0,0\n"
        "b,W,0.2,0,0\n"
        "c,W,500,0,\n"
        "k,W,0.5,0,\n"
        "mu,w,5,0,0\n"
    )
    out = tmp_path / "out"
    if command == "synth":
        argv = ["synth", "--model", str(coeffs), "--pages-count", "2", "--end", "2018-03-01"]
    else:
        argv = ["simulate", "--coefficients", str(coeffs), "--timescales", "W", "--runs", "2", "--steps", "2"]
    assert main([*argv, "--out", str(out)]) == 2
    assert "coefficients line 6: mu/W already given on line 2" in capsys.readouterr().err
    assert not out.exists()


def test_short_coefficients_row_reported_by_line(tmp_path, capsys):
    coeffs = tmp_path / "coeffs.csv"
    coeffs.write_text("parameter,timescale,beta0,beta1,beta2\nmu,W,0.01,0,0\n\nb,W,0.2\n")
    assert main(["synth", "--model", str(coeffs), "--out", str(tmp_path / "out")]) == 2
    assert "coefficients line 4: expected 5 fields, got 3" in capsys.readouterr().err


# Every CSV input goes through one reader. Per kind of file: its header, a good
# row with a quoted field over two lines, a bad row that also spans two lines,
# the other good rows, and the flags of a command that reads it ({file}; {posts}
# is a small posts file).
_CSV_INPUTS = {
    "posts": (POSTS_HEADER, 'p1,"x\ny",2018-01-03T00:00:00Z,,,,5,', 'p1,"z\nq",yesterday,,,,5,',
              ["p1,w,2018-01-04T00:00:00Z,,,,7,"], ["aggregate", "--input", "{file}"]),
    "pages": (PAGES_HEADER, 'p1,"Outlet\none",2017-01-01,80,en', 'p2,"Two\nlines",someday,,', [],
              ["aggregate", "--input", "{posts}", "--pages", "{file}"]),
    "size-class": (["label", "lower", "upper"], '"small\nones",10,150', '"big\nger",150,', ["big,150,1000"],
                   ["analyze", "--input", "{posts}", "--classes", "{file}"]),
    "coefficients": (COEFFS_HEADER, 'mu,W,"0.01\n",0,0', 'b,W,"0.2\n",0', ["b,W,0.2,0,0", "c,W,500,0,", "k,W,0.5,0,"],
                     ["simulate", "--coefficients", "{file}", "--timescales", "W", "--runs", "2", "--steps", "2"]),
}


@pytest.mark.parametrize("case", ["byte-order-mark", "wrong-header", "not-utf-8", "line-of-bad-row"])
@pytest.mark.parametrize("kind", list(_CSV_INPUTS))
def test_one_reader_for_every_csv_input(tmp_path, capsys, kind, case):
    header, two_line, bad, rest, argv = _CSV_INPUTS[kind]
    posts = tmp_path / "posts.csv"
    posts.write_text(",".join(POSTS_HEADER) + "\n"
                     "p1,a,2018-01-02T00:00:00Z,,,,5,100\np1,b,2018-01-09T00:00:00Z,,,,6,200\n")
    rows = [",".join(header), two_line, *([bad] if case == "line-of-bad-row" else []), *rest]
    if case == "wrong-header":
        rows[0] = "wrong,header"
    data = "\n".join(rows).encode() + b"\n"
    if case == "byte-order-mark":
        data = "\ufeff".encode() + data
    if case == "not-utf-8":
        data += b"\xff\n"
    path = tmp_path / "input.csv"
    path.write_bytes(data)
    out = tmp_path / "out"
    code = main([a.format(file=path, posts=posts) for a in argv] + ["--out", str(out)])
    err = capsys.readouterr().err
    if case == "byte-order-mark":
        assert code == 0, err
    elif case == "wrong-header":
        assert code == 2 and f"malformed {kind} header: expected {','.join(header)}, got wrong,header" in err
    elif case == "not-utf-8":
        assert code == 2 and f"unreadable {kind} file" in err
    elif kind in ("posts", "pages"):  # quarantined: the bad row is the third record, on lines 4 and 5
        assert code == 0, err
        with open(out / "rejections.csv") as fh:
            assert [r[:2] for r in csv.reader(fh)][1:] == [[kind, "4"]]
    else:
        assert code == 2 and "line 4: " in err


@pytest.mark.parametrize("row, message", [
    pytest.param("small,1_000,2000", "lower is not an integer: '1_000'", id="underscore"),
    pytest.param("small,\u0661,2000", "lower is not an integer: '\u0661'", id="arabic-indic-digit"),
    pytest.param("small,-5,2000", "lower is negative", id="negative"),
    pytest.param("small,+5,2000", "lower is not an integer: '+5'", id="plus-sign"),
    pytest.param("small,10,", "upper is missing", id="empty-bound"),
    pytest.param("small,10,2000,x", "expected label,lower,upper, got ['small', '10', '2000', 'x']", id="fourth-field"),
    pytest.param("small,2000,10", "size class small: lower must be below upper", id="reversed"),
])
def test_bad_class_bound_exit_2_with_line(synth_dir, tmp_path, capsys, row, message):
    classes = tmp_path / "classes.csv"
    classes.write_text(f"label,lower,upper\n{row}\n", encoding="utf-8")
    out = tmp_path / "out"
    code = main(["analyze", "--input", str(synth_dir / "posts.csv"), "--classes", str(classes), "--out", str(out)])
    assert code == 2
    assert f"size-class file line 2: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    pytest.param(["aggregate", "--input", "{tmp}/missing.csv"], "input file not found", id="missing-posts"),
    pytest.param(["analyze"], "missing --input", id="no-input"),
    pytest.param(["model", "--input", "{tmp}/header.csv"], "malformed posts header", id="bad-header"),
    pytest.param(["aggregate", "--input", "{tmp}/rejected.csv"], "no usable data", id="all-rejected"),
    pytest.param(["cohort", "--input", "{tmp}/rejected.csv"], "cohort requires --pages", id="cohort-no-pages"),
    pytest.param(["cohort", "--input", "{synth}/posts.csv", "--pages", "{tmp}/missing.csv"], "pages file not found",
                 id="missing-pages"),
    pytest.param(["analyze", "--input", "{synth}/posts.csv", "--trim", "5,9_5"], "error: --trim must be a number, got '9_5'",
                 id="trim-underscore"),
])
def test_refused_data_command_leaves_no_out(tmp_path, capsys, synth_dir, argv, message):
    (tmp_path / "header.csv").write_text("page_id,post_id\n")
    (tmp_path / "rejected.csv").write_text(",".join(POSTS_HEADER) + "\np1,a,yesterday,,,,5,\n")
    out = tmp_path / "out"
    assert main([a.format(tmp=tmp_path, synth=synth_dir) for a in argv] + ["--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.fixture(scope="module")
def two_year_dir(tmp_path_factory):
    """60 pages over 2018-2019, enough for model to fit Q (40 are not), plus a post
    of a page that only --pages refuses, a two-class scheme and a header-only one."""
    out = tmp_path_factory.mktemp("twoyears")
    assert main(["synth", "--out", str(out), "--pages-count", "60", "--start", "2018-01-01",
                 "--end", "2020-01-01", "--posts-per-day", "0.5", "--seed", "2"]) == 0
    with open(out / "posts.csv", "a") as fh:
        fh.write("ghost,orphan,2018-03-04T10:00:00Z,1,2,3,6,20000\n")
    (out / "classes.csv").write_text("label,lower,upper\nsmall,10000,200000\nbig,200000,100000000\n")
    (out / "no-classes.csv").write_text("label,lower,upper\n")
    return out


# every flag a data command takes besides --input and --out, at a value other than
# its default (cohort also needs --pages, for the scores)
_LIVE_FLAGS = {
    "aggregate": [["--pages", "{data}/pages.csv"], ["--timescales", "W"], ["--quarter-rule", "earliest"]],
    "analyze": [["--pages", "{data}/pages.csv"], ["--timescales", "W"], ["--classes", "{data}/classes.csv"],
                ["--trim", "10,90"], ["--trim-rates"], ["--metric", "followers"], ["--quarter-rule", "earliest"]],
    "model": [["--pages", "{data}/pages.csv"], ["--timescales", "W"], ["--trim", "10,90"],
              ["--metric", "followers"], ["--quarter-rule", "earliest"]],
    "cohort": [["--timescales", "W"], ["--matching", "greedy"]],
}


def _actions(command: str) -> list[argparse.Action]:
    (subparsers,) = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return subparsers.choices[command]._actions


def _flags_taken(command: str) -> set[str]:
    return {flag for a in _actions(command) for flag in a.option_strings} - {"-h", "--help"}


_LIBRARY_CALLS = {"aggregate": pipeline.aggregate, "analyze": pipeline.analyze, "model": pipeline.model,
                  "cohort": pipeline.cohort, "simulate": pipeline.simulate}


@pytest.mark.parametrize("command", [*_LIBRARY_CALLS, "synth"])
def test_setting_flags_are_the_library_keywords_without_a_default(command):
    # a flag not given leaves its setting to the library: the CLI holds no copy of a default;
    # synth's --seed alone keeps one, since synth.generate takes no default seed
    kept = {"help", "input", "pages", "out", *(["seed"] if command == "synth" else [])}
    settings = [a for a in _actions(command) if a.dest not in kept]
    if command == "synth":
        assert {a.dest for a in settings} <= set(GeneratorConfig._fields)
    else:
        params = inspect.signature(_LIBRARY_CALLS[command]).parameters.values()
        assert {a.dest for a in settings} == {p.name for p in params if p.kind is p.KEYWORD_ONLY}
    assert [a.default for a in settings] == [argparse.SUPPRESS] * len(settings)


@pytest.mark.parametrize("command", ["aggregate", "analyze", "model", "simulate", "cohort", "synth"])
def test_help_exits_0(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: pagegrowth {command} ")


@pytest.mark.parametrize("command", list(_LIVE_FLAGS))
def test_every_flag_of_a_data_command_is_read(two_year_dir, tmp_path, capsys, command):
    pages = ["--pages", str(two_year_dir / "pages.csv")] if command == "cohort" else []
    base = [command, "--input", str(two_year_dir / "posts.csv"), *pages]
    assert _flags_taken(command) == {"--input", "--out", *pages[:1], *(flag for flag, *_ in _LIVE_FLAGS[command])}

    def run(argv, out):
        assert main([*argv, "--out", str(out)]) == 0
        stdout = capsys.readouterr().out.replace(str(out), "<out>")
        return stdout, {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    default = run(base, tmp_path / "default")
    for i, flag in enumerate(_LIVE_FLAGS[command]):
        assert run([*base, *(a.format(data=two_year_dir) for a in flag)], tmp_path / str(i)) != default, flag


@pytest.mark.parametrize("command, flag", [
    ("aggregate", "--classes"), ("aggregate", "--trim"), ("aggregate", "--trim-rates"), ("aggregate", "--metric"),
    ("model", "--classes"), ("model", "--trim-rates"),
    ("cohort", "--classes"), ("cohort", "--trim"), ("cohort", "--trim-rates"), ("cohort", "--metric"),
    ("cohort", "--quarter-rule"),
])
def test_flag_the_command_does_not_read_is_unrecognized(tmp_path, capsys, command, flag):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([command, "--input", str(tmp_path / "posts.csv"), "--out", str(out), flag])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not out.exists()


def test_model_refuses_daily_before_writing(synth_dir, tmp_path, capsys):
    # D was dropped from D,W without a word
    out = tmp_path / "out"
    assert main(["model", "--input", str(synth_dir / "posts.csv"), "--timescales", "D,W", "--out", str(out)]) == 2
    assert "error: model supports W, M, Q timescales, not D\n" in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(ValueError, match="model supports W, M, Q timescales, not D"):
        next(pipeline.model(None, print, timescales=(Timescale.D, Timescale.W)))


@pytest.mark.parametrize("argv, message", [
    pytest.param(["synth", "--model", "{tmp}/monthly.csv"], "error: coefficient table lacks timescale W\n",
                 id="synth-model-without-weekly-rows"),
    pytest.param(["synth", "--seed", "-1"], "argument --seed: must be a non-negative integer, got '-1'\n",
                 id="synth-negative-seed"),
    pytest.param(["simulate", "--seed", "-1"], "argument --seed: must be a non-negative integer, got '-1'\n",
                 id="simulate-negative-seed"),
    pytest.param(["synth", "--model", "{tmp}/missing.csv", "--start", "2018-13-01"],
                 "error: unparsable --start '2018-13-01'\n", id="settings-checked-in-parser-order"),
    # int() and float() read 1_0 as 10 and the Arabic-Indic ٣ as 3, and refused abc naming no flag; int()
    # read +5 and " 5", float() read " 5" and inf, and -3 steps were refused only by simulate
    *(pytest.param([command, flag, value], f"argument {flag}: must be {kind}, got {value!r}\n",
                   id=f"{command}{flag}={value}")
      for command, flag, kind, values in [
          ("simulate", "--e0", "a number", [" 5"]), ("simulate", "--steps", "a non-negative integer", ["2.5", "-3"]),
          ("simulate", "--runs", "a non-negative integer", ["+5", " 5"]),
          ("synth", "--pages-count", "a non-negative integer", ["+3"]),
          ("synth", "--posts-per-day", "a number", ["inf"]), ("synth", "--questionable-frac", "a number", []),
      ]
      for value in ("1_0", "٣", "abc", *values)),
    pytest.param(["analyze", "--trim", "5,nan"], "error: --trim must be a number, got 'nan'\n",
                 id="analyze--trim=5,nan"),
])
def test_refusal_names_what_it_refuses(tmp_path, capsys, argv, message):
    # they exited 2 with a KeyError repr and with numpy's message, which names no flag
    (tmp_path / "monthly.csv").write_text("parameter,timescale,beta0,beta1,beta2\n"
                                          "mu,M,0.01,0,0\nb,M,0.2,0,0\nc,M,500,0,\nk,M,0.5,0,\n")
    out = tmp_path / "out"
    try:
        code = main([a.format(tmp=tmp_path) for a in argv] + ["--out", str(out)])
    except SystemExit as exc:  # a flag argparse refuses
        code = exc.code
    assert code == 2
    assert capsys.readouterr().err.endswith(message)
    assert not out.exists()


@pytest.mark.parametrize("argv, writes", [
    pytest.param(["aggregate", "--input", "{dir}"], False, id="input-dir"),
    pytest.param(["aggregate", "--input", "{data}/posts.csv", "--pages", "{dir}"], False, id="pages-dir"),
    pytest.param(["analyze", "--input", "{data}/posts.csv", "--classes", "{dir}"], False, id="classes-dir"),
    pytest.param(["simulate", "--coefficients", "{dir}"], False, id="coefficients-dir"),
    pytest.param(["synth", "--model", "{dir}"], False, id="synth-model-dir"),
    pytest.param(["aggregate", "--input", "{data}/posts.csv"], True, id="aggregate-out-file"),
    pytest.param(["simulate", "--runs", "2", "--steps", "2"], True, id="simulate-out-file"),
    pytest.param(["synth", "--pages-count", "2", "--end", "2018-03-01"], True, id="synth-out-file"),
])
def test_os_error_exit_2(synth_dir, tmp_path, capsys, argv, writes):
    # each ended in a traceback; --out names an existing file where the command gets as far as writing
    out = tmp_path / "out"
    if writes:
        out.write_text("kept\n")
    assert main([a.format(dir=tmp_path, data=synth_dir) for a in argv] + ["--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: [Errno ")
    assert out.read_text() == "kept\n" if writes else not out.exists()


class TestAggregateCmd:
    def test_series_emitted(self, synth_dir, tmp_path):
        code = main(
            [
                "aggregate",
                "--input", str(synth_dir / "posts.csv"),
                "--pages", str(synth_dir / "pages.csv"),
                "--timescales", "W,Q",
                "--out", str(tmp_path),
            ]
        )
        assert code == 0
        for scale in ("W", "Q"):
            path = tmp_path / f"series_{scale}.csv"
            assert path.exists()
            with open(path) as fh:
                rows = list(csv.reader(fh))
            assert rows[0] == [
                "page_id", "timescale", "window_start", "engagement",
                "mean_engagement", "post_count", "followers",
            ]
            assert len(rows) > 1

    def test_missing_input_exit_2(self, tmp_path):
        code = main(
            ["aggregate", "--input", str(tmp_path / "nope.csv"), "--out", str(tmp_path)]
        )
        assert code == 2

    def test_no_usable_data_exit_2(self, tmp_path):
        bad = tmp_path / "posts.csv"
        bad.write_text(
            "page_id,post_id,timestamp,likes,comments,shares,total_interactions,followers_at_posting\n"
            "p1,a,not-a-time,,,,5,\n"
        )
        code = main(["aggregate", "--input", str(bad), "--out", str(tmp_path)])
        assert code == 2

    def test_duplicate_class_label_exit_2(self, synth_dir, tmp_path, capsys):
        # two bands under one label used to be merged into one bin
        classes = tmp_path / "classes.csv"
        classes.write_text("label,lower,upper\nA,10000,50000\nA,500000,5000000\n")
        code = main(
            [
                "analyze",
                "--input", str(synth_dir / "posts.csv"),
                "--classes", str(classes),
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 2
        assert "size class label 'A' appears more than once" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_idempotent_outputs(self, synth_dir, tmp_path):
        args = [
            "aggregate",
            "--input", str(synth_dir / "posts.csv"),
            "--pages", str(synth_dir / "pages.csv"),
            "--timescales", "M",
        ]
        assert main(args + ["--out", str(tmp_path / "one")]) == 0
        assert main(args + ["--out", str(tmp_path / "two")]) == 0
        assert (tmp_path / "one" / "series_M.csv").read_bytes() == (
            tmp_path / "two" / "series_M.csv"
        ).read_bytes()

    def test_jsonl_lone_surrogate_rows_rejected(self, synth_dir, tmp_path, capsys):
        # aggregate exited 2 on writing series_D.csv, naming no file or line, and left it behind
        with open(synth_dir / "posts.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        rows[0]["page_id"] = "p\ud800"
        rows[1]["post_id"] += "\udfff"
        posts = tmp_path / "posts.jsonl"
        posts.write_text("".join(json.dumps(row) + "\n" for row in rows))  # escaped: the file is ASCII
        out = tmp_path / "out"
        assert main(["aggregate", "--input", str(posts), "--out", str(out)]) == 0
        with open(out / "rejections.csv", newline="") as fh:
            assert list(csv.reader(fh))[1:] == [
                ["posts", "1", "page_id is not valid Unicode (lone surrogate)"],
                ["posts", "2", "post_id is not valid Unicode (lone surrogate)"],
            ]
        assert sorted(p.name for p in out.iterdir()) == [
            "rejections.csv", *(f"series_{scale}.csv" for scale in "DMQW")
        ]


class TestAnalyzeCmd:
    def test_short_classes_row_exit_2(self, synth_dir, tmp_path, capsys):
        classes = tmp_path / "classes.csv"
        classes.write_text("label,lower,upper\nbig,100\n")
        code = main(
            [
                "analyze",
                "--input", str(synth_dir / "posts.csv"),
                "--classes", str(classes),
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 2
        assert "size-class file line 2" in capsys.readouterr().err

    def test_header_only_classes_exit_2(self, two_year_dir, tmp_path, capsys):
        # the empty scheme once ran and wrote no class matrix
        out = tmp_path / "out"
        classes = two_year_dir / "no-classes.csv"
        code = main(["analyze", "--input", str(two_year_dir / "posts.csv"), "--classes", str(classes), "--out", str(out)])
        assert code == 2
        assert f"error: size-class file {classes} lists no size class" in capsys.readouterr().err
        assert not out.exists()

    def test_outputs_written(self, synth_dir, tmp_path):
        code = main(
            [
                "analyze",
                "--input", str(synth_dir / "posts.csv"),
                "--pages", str(synth_dir / "pages.csv"),
                "--timescales", "W",
                "--out", str(tmp_path),
            ]
        )
        assert code == 0
        with open(tmp_path / "matrices.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [
            "metric", "size_by", "timescale", "row_class", "col_class",
            "alternative", "u", "p", "method",
        ]
        alternatives = {r[5] for r in rows[1:]}
        assert alternatives == {"greater", "two-sided"}
        metrics = {r[0] for r in rows[1:]}
        assert "mean_engagement" in metrics  # variant emitted alongside
        assert (tmp_path / "fits.csv").exists()
        assert (tmp_path / "detailed_balance.csv").exists()
        with open(tmp_path / "growth_samples_W.csv") as fh:
            header = next(csv.reader(fh))
        assert header == [
            "page_id", "timescale", "window_start", "metric",
            "gross_growth", "log_growth", "prior_followers", "prior_engagement",
        ]

    def test_single_size_class_warns_and_empties_matrix(self, tmp_path, capsys):
        from pagegrowth.synth import GeneratorConfig, generate, write_files

        config = GeneratorConfig(
            n_pages=6,
            start=date(2018, 1, 1),
            end=date(2018, 7, 1),
            followers_range=(12_000.0, 40_000.0),  # all pages in 10K-50K
        )
        write_files(generate(config, seed=4), tmp_path / "data")
        code = main(
            [
                "analyze",
                "--input", str(tmp_path / "data" / "posts.csv"),
                "--pages", str(tmp_path / "data" / "pages.csv"),
                "--timescales", "W",
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 0
        err = capsys.readouterr().err
        assert "fewer than 2 follower classes" in err
        with open(tmp_path / "out" / "matrices.csv") as fh:
            rows = list(csv.reader(fh))
        assert not any(r[1] == "followers_class" for r in rows[1:])

    def test_small_trimmed_bins_warn_on_stderr(self, synth_dir, tmp_path, capsys, recwarn):
        code = main(
            [
                "analyze",
                "--input", str(synth_dir / "posts.csv"),
                "--pages", str(synth_dir / "pages.csv"),
                "--timescales", "Q",
                "--trim-rates",
                "--out", str(tmp_path),
            ]
        )
        assert code == 0
        trim_lines = [l for l in capsys.readouterr().err.splitlines() if l.startswith("warning: trim ")]
        assert trim_lines and all(l.endswith("values (< 20); passing through") for l in trim_lines)
        assert not [w for w in recwarn if issubclass(w.category, UserWarning)]

    def test_floored_p_in_stdout(self, synth_dir, tmp_path, capsys):
        main(
            [
                "analyze",
                "--input", str(synth_dir / "posts.csv"),
                "--pages", str(synth_dir / "pages.csv"),
                "--timescales", "W",
                "--out", str(tmp_path),
            ]
        )
        out = capsys.readouterr().out
        assert "one-sided p" in out


class TestSimulateCmd:
    def test_outputs(self, tmp_path):
        code = main(
            [
                "simulate",
                "--out", str(tmp_path),
                "--timescales", "W",
                "--f0", "25000,1000000",
                "--steps", "5",
                "--runs", "10",
                "--seed", "3",
            ]
        )
        assert code == 0
        for f0 in ("25000", "1000000"):
            with open(tmp_path / f"trajectories_W_{f0}.csv") as fh:
                rows = list(csv.reader(fh))
            assert rows[0] == ["run", "step", "followers", "engagement"]
            assert len(rows) == 1 + 10 * 6  # header + runs * (steps+1)
            assert (tmp_path / f"summary_W_{f0}.csv").exists()

    def test_deterministic(self, tmp_path):
        args = [
            "simulate", "--timescales", "M", "--f0", "50000",
            "--steps", "4", "--runs", "5", "--seed", "11",
        ]
        assert main(args + ["--out", str(tmp_path / "x")]) == 0
        assert main(args + ["--out", str(tmp_path / "y")]) == 0
        assert (tmp_path / "x" / "trajectories_M_50000.csv").read_bytes() == (
            tmp_path / "y" / "trajectories_M_50000.csv"
        ).read_bytes()

    def test_custom_coefficients_file(self, tmp_path):
        coeffs = tmp_path / "coeffs.csv"
        coeffs.write_text(
            "parameter,timescale,beta0,beta1,beta2\n"
            "mu,W,0.01,0,0\n"
            "b,W,0.2,0,0\n"
            "c,W,500,0,\n"
            "k,W,0.5,0,\n"
        )
        code = main(
            [
                "simulate", "--coefficients", str(coeffs), "--timescales", "W",
                "--f0", "10000", "--steps", "3", "--runs", "2", "--seed", "0",
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 0

    @pytest.mark.parametrize("flags, message", [
        *(pytest.param(["--f0", f0], "--f0", id=f0) for f0 in ["25000,25000.5", ",", "inf", "nan", "25000,0",
                                                                "25000,-3"]),
        pytest.param(["--e0", "-5"], "finite and positive", id="e0=-5"),
        pytest.param(["--e0", "nan"], "argument --e0: must be a number, got 'nan'", id="e0=nan"),
        pytest.param(["--steps", "0"], "at least 1", id="steps=0"),
        pytest.param(["--runs", "0"], "at least 1", id="runs=0"),
        *(pytest.param(["--f0", f0], f"error: --f0 must be a number, got {bad!r}", id=f0)
          for f0, bad in [("1_0", "1_0"), ("25000,٣", "٣"), ("abc", "abc")]),
    ])
    def test_bad_f0_list_exits_2_before_writing(self, tmp_path, capsys, flags, message):
        out = tmp_path / "out"
        try:
            code = main(["simulate", "--runs", "2", "--steps", "1", *flags, "--out", str(out)])
        except SystemExit as exc:  # a flag argparse refuses
            code = exc.code
        assert code == 2
        assert not out.exists()
        assert message in capsys.readouterr().err

    def test_f0_printed_as_its_file_tag(self, tmp_path, capsys):
        code = main(
            ["simulate", "--timescales", "W", "--f0", "25000.7", "--runs", "2", "--steps", "1",
             "--out", str(tmp_path)]
        )
        assert code == 0
        assert capsys.readouterr().out.startswith("W f0=25000: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "summary_W_25000.csv", "trajectories_W_25000.csv"
        ]

    @pytest.mark.parametrize("e0", [pytest.param("1e999", id="inf"), "0"])  # 1e999 reads as inf
    def test_bad_e0_exits_2_without_numpy_warning(self, tmp_path, capsys, e0):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["simulate", "--e0", e0, "--runs", "2", "--steps", "1", "--out", str(tmp_path)])
        assert code == 2 and not caught
        assert "finite and positive" in capsys.readouterr().err

    def test_infinite_state_exits_2_without_numpy_warning(self, tmp_path, capsys):
        # c floored to 1e-3 raises the Burr draw to the power 1000: with seed 1 the
        # one run's followers overflow to inf in the first step
        coeffs = tmp_path / "coeffs.csv"
        coeffs.write_text("parameter,timescale,beta0,beta1,beta2\n"
                          "mu,W,0.01,0,0\nb,W,0.2,0,0\nc,W,1e-4,0,\nk,W,0.5,0,\n")
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["simulate", "--coefficients", str(coeffs), "--timescales", "W", "--f0", "25000",
                         "--steps", "1", "--runs", "1", "--seed", "1", "--out", str(out)])
        assert code == 2 and not caught
        assert "simulation state must stay finite and positive" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_timescale_exits_2_before_writing(self, tmp_path, capsys):
        coeffs = tmp_path / "coeffs.csv"
        coeffs.write_text("parameter,timescale,beta0,beta1,beta2\n"
                          "mu,W,0.01,0,0\nb,W,0.2,0,0\nc,W,500,0,\nk,W,0.5,0,\n")
        out = tmp_path / "out"
        code = main(["simulate", "--coefficients", str(coeffs), "--timescales", "W,M,Q", "--f0", "25000",
                     "--steps", "2", "--runs", "2", "--out", str(out)])
        assert code == 2
        assert "error: coefficient table lacks timescale M, Q\n" in capsys.readouterr().err
        assert not out.exists()

    def test_later_pair_leaving_the_state_writes_nothing(self, tmp_path, capsys):
        # the W pair runs cleanly; M's c of 1e-4 overflows followers as in the test above
        coeffs = tmp_path / "coeffs.csv"
        coeffs.write_text("parameter,timescale,beta0,beta1,beta2\n"
                          "mu,W,0.01,0,0\nb,W,0.2,0,0\nc,W,500,0,\nk,W,0.5,0,\n"
                          "mu,M,0.01,0,0\nb,M,0.2,0,0\nc,M,1e-4,0,\nk,M,0.5,0,\n")
        out = tmp_path / "out"
        code = main(["simulate", "--coefficients", str(coeffs), "--timescales", "W,M", "--f0", "25000",
                     "--steps", "1", "--runs", "1", "--seed", "1", "--out", str(out)])
        assert code == 2
        assert "simulation state must stay finite and positive" in capsys.readouterr().err
        assert not out.exists()

    def test_daily_not_supported(self, tmp_path):
        code = main(
            ["simulate", "--timescales", "D", "--out", str(tmp_path), "--runs", "1", "--steps", "1"]
        )
        assert code == 2

    def test_gibrat_null_table_runs(self, tmp_path, capsys):
        # one reader serves simulate --coefficients and synth --model; simulate took gibrat-null for a path
        assert main(["simulate", "--coefficients", "gibrat-null", "--timescales", "Q", "--f0", "25000",
                     "--steps", "2", "--runs", "2", "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().out.startswith("Q f0=25000: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["summary_Q_25000.csv", "trajectories_Q_25000.csv"]

    def test_daily_beside_weekly_refused_before_writing(self, tmp_path, capsys):
        # D is refused by name, not dropped, and before the coefficient table is asked for it
        out = tmp_path / "out"
        code = main(["simulate", "--timescales", "D,W", "--out", str(out), "--runs", "1", "--steps", "1"])
        assert code == 2
        assert "error: simulate supports W, M, Q timescales, not D\n" in capsys.readouterr().err
        assert not out.exists()


def test_pipeline_simulate_runs_every_pair_in_order():
    runs = pipeline.simulate(steps=2, runs=2)
    pairs = [(scale, f0) for scale in (Timescale.W, Timescale.M, Timescale.Q) for f0 in (25_000, 250_000, 1_000_000)]
    assert list(runs) == pairs
    for (scale, f0), trajectories in runs.items():
        alone = model.simulate(published_coefficients(), scale, f0, 10_000.0, 2, 2, 0)
        assert [(t.followers.tolist(), t.engagement.tolist(), t.run_index, t.clamps) for t in trajectories] == [
            (t.followers.tolist(), t.engagement.tolist(), t.run_index, t.clamps) for t in alone]


# Runs the command in argv[1:] in a fresh interpreter whose address space is capped at 4 GiB.
_CAPPED_RUN = """
import resource, sys
hard = resource.getrlimit(resource.RLIMIT_AS)[1]
resource.setrlimit(resource.RLIMIT_AS, (4 << 30 if hard == resource.RLIM_INFINITY else min(4 << 30, hard), hard))
from pagegrowth.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize("argv", [
    ["simulate", "--runs", "1000000000000", "--steps", "20"],  # 291 TiB of uniforms
    ["synth", "--pages-count", "1", "--start", "2018-01-01", "--end", "2018-01-08", "--posts-per-day", "1e12"],
], ids=["simulate", "synth"])
def test_size_no_host_can_allocate_exits_2(tmp_path, argv):
    # each ended in numpy's _ArrayMemoryError traceback with exit 1 (291 TiB and 50.9 TiB); the cap
    # makes numpy's request fail at once on any host, whatever its memory overcommit policy
    src = str(Path(pagegrowth.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = tmp_path / "out"
    proc = subprocess.run([sys.executable, "-c", _CAPPED_RUN, *argv, "--out", str(out)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: Unable to allocate ") and "Traceback" not in proc.stderr
    assert not out.exists()


class TestCohortCmd:
    def test_outputs(self, synth_dir, tmp_path):
        code = main(
            [
                "cohort",
                "--input", str(synth_dir / "posts.csv"),
                "--pages", str(synth_dir / "pages.csv"),
                "--timescales", "W,M",
                "--out", str(tmp_path),
            ]
        )
        assert code == 0
        with open(tmp_path / "labels.csv") as fh:
            labels = list(csv.DictReader(fh))
        assert {l["label"] for l in labels} <= {"reliable", "questionable"}
        with open(tmp_path / "matches.csv") as fh:
            matches = list(csv.DictReader(fh))
        q_count = sum(1 for l in labels if l["label"] == "questionable")
        assert len(matches) == q_count
        reliable_ids = {m["reliable_id"] for m in matches}
        assert len(reliable_ids) == len(matches)  # pairwise distinct
        assert (tmp_path / "reliability_tests.csv").exists()
        assert (tmp_path / "cohort_summary.csv").exists()

    def test_requires_pages(self, synth_dir, tmp_path):
        code = main(
            [
                "cohort",
                "--input", str(synth_dir / "posts.csv"),
                "--out", str(tmp_path),
            ]
        )
        assert code == 2

    def test_greedy_flag(self, synth_dir, tmp_path):
        code = main(
            [
                "cohort",
                "--input", str(synth_dir / "posts.csv"),
                "--pages", str(synth_dir / "pages.csv"),
                "--timescales", "W",
                "--matching", "greedy",
                "--out", str(tmp_path),
            ]
        )
        assert code == 0


def _relabel(src: Path, dst: Path, reliable: int, blank: str | None) -> None:
    """src's corpus in dst with its first `reliable` pages scored reliable and the rest
    questionable; the posts of the pages labelled `blank` lose their follower counts."""
    dst.mkdir()
    with open(src / "pages.csv", newline="") as fh:
        pages = list(csv.reader(fh))
    for i, row in enumerate(pages[1:]):
        row[3] = "80" if i < reliable else "30"
    blanked = {row[0] for i, row in enumerate(pages[1:]) if blank == ("reliable" if i < reliable else "questionable")}
    with open(src / "posts.csv", newline="") as fh:
        posts = list(csv.reader(fh))
    for row in posts[1:]:
        if row[0] in blanked:
            row[7] = ""
    for name, rows in (("pages.csv", pages), ("posts.csv", posts)):
        with open(dst / name, "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)


@pytest.mark.parametrize("reliable, blank, code, message", [
    pytest.param(0, None, 3, "numerical error: need both questionable and reliable pages", id="no-reliable-page"),
    pytest.param(12, "questionable", 3, "numerical error: need both questionable and reliable pages with follower "
                 "observations", id="no-questionable-observed"),
    pytest.param(12, "reliable", 3, "numerical error: need both questionable and reliable pages with follower "
                 "observations", id="no-reliable-observed"),
    pytest.param(1, None, 2, "error: reliable pool (1) smaller than questionable cohort (23)", id="pool-smaller"),
])
def test_cohort_exit_code_names_an_empty_cohort(synth_dir, tmp_path, capsys, reliable, blank, code, message):
    # an empty cohort is a degenerate sample however it came about; a non-empty
    # pool too small to match is a refused configuration
    _relabel(synth_dir, tmp_path / "data", reliable, blank)
    out = tmp_path / "out"
    argv = ["cohort", "--input", str(tmp_path / "data/posts.csv"), "--pages", str(tmp_path / "data/pages.csv")]
    assert main([*argv, "--out", str(out)]) == code
    assert message in capsys.readouterr().err
    assert not (out / "matches.csv").exists()


def test_numerical_failures_share_one_base_and_keep_their_own():
    # main exits 3 on a NumericalError; each is still caught as its old base by library callers
    cases = {DegenerateSampleError: ValueError, DegenerateBinningError: ValueError,
             CollinearCovariatesError: ValueError, FitConvergenceError: RuntimeError}
    for cls, base in cases.items():
        error = cls("degenerate")
        assert isinstance(error, NumericalError) and isinstance(error, base), cls.__name__


class TestModelCmd:
    def test_table_shaped_output(self, tmp_path_factory):
        data = tmp_path_factory.mktemp("modeldata")
        # a larger corpus so per-bin fits have enough samples
        assert main(
            [
                "synth", "--out", str(data), "--pages-count", "60",
                "--start", "2018-01-01", "--end", "2020-01-01",
                "--posts-per-day", "1.0", "--seed", "7",
                "--model", "builtin-table1",
            ]
        ) == 0
        out = tmp_path_factory.mktemp("modelout")
        code = main(
            [
                "model",
                "--input", str(data / "posts.csv"),
                "--pages", str(data / "pages.csv"),
                "--timescales", "W",
                "--out", str(out),
            ]
        )
        assert code == 0
        with open(out / "coefficients.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["parameter", "timescale", "beta0", "beta1", "beta2"]
        params = {r[0] for r in rows[1:]}
        assert {"mu", "b"} <= params
        burr_rows = [r for r in rows[1:] if r[0] in ("c", "k")]
        assert all(r[4] == "" for r in burr_rows)
        assert (out / "regression_details.csv").exists()

    @pytest.mark.parametrize("metric", ["engagement", "followers"])
    def test_zero_covariates_are_left_out(self, tmp_path, capsys, metric):
        # 5 of 40 pages report 0 followers and 5 more 0 engagement: zeros are then more
        # than 5% of the samples, survive the percentile trim, and a bin's mean log
        # covariate was -inf (a RuntimeWarning, then exit 3 with collinear covariates)
        result = generate(GeneratorConfig(n_pages=40, start=date(2018, 1, 1), end=date(2019, 7, 1)), seed=5)
        posts = result.posts
        posts.followers[(posts.page < 5) & (posts.followers != ABSENT)] = 0
        for count in (posts.total, posts.likes, posts.comments, posts.shares):
            count[(posts.page >= 5) & (posts.page < 10) & (count != ABSENT)] = 0
        write_files(result, tmp_path / "data")
        argv = ["model", "--input", str(tmp_path / "data/posts.csv"), "--pages", str(tmp_path / "data/pages.csv"),
                "--metric", metric, "--out", str(tmp_path / "out")]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == 0
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert "RuntimeWarning" not in capsys.readouterr().err
        with open(tmp_path / "out/coefficients.csv") as fh:
            rows = list(csv.reader(fh))[1:]
        assert {r[0] for r in rows} == {"mu", "b", "c", "k"}
        assert all(math.isfinite(float(v)) for r in rows for v in r[2:] if v)

    def test_collinear_regressions_are_skipped_with_a_warning(self, tmp_path, capsys):
        # every page at 50,000 followers: each bin's mean ln followers is the same, so the
        # Laplace regressions are collinear, and the Burr side has a single follower bin
        result = generate(GeneratorConfig(n_pages=40, start=date(2018, 1, 1), end=date(2019, 7, 1)), seed=5)
        result.posts.followers[result.posts.followers != ABSENT] = 50_000
        write_files(result, tmp_path / "data")
        argv = ["model", "--input", str(tmp_path / "data/posts.csv"), "--pages", str(tmp_path / "data/pages.csv"),
                "--out", str(tmp_path / "out")]
        assert main(argv) == 3
        err = capsys.readouterr().err.splitlines()
        assert [line for line in err if "collinear" in line] == [
            f"warning: {p}/{s}: collinear covariates" for s in "WMQ" for p in ("mu", "b")]
        assert err[-1] == "numerical error: no parameter regressions could be fitted"
        assert not (tmp_path / "out/coefficients.csv").exists()


# Runs in a fresh interpreter: imports pagegrowth.cli, runs all six commands,
# and records which scipy modules are loaded before and after.
_STARTUP_SCRIPT = """
import json, sys
from pagegrowth import cli

out, result = sys.argv[1], {}
data = ["--input", out + "/data/posts.csv", "--pages", out + "/data/pages.csv", "--timescales", "W"]

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

result["import"] = scipy_modules()
result["codes"] = [
    cli.main(["synth", "--out", out + "/data", "--pages-count", "24", "--start", "2018-01-01",
              "--end", "2019-01-01", "--posts-per-day", "1.5", "--seed", "5"]),
    cli.main(["aggregate", *data, "--out", out + "/aggregate"]),
    cli.main(["simulate", "--runs", "5", "--steps", "3", "--out", out + "/simulate"]),
    *[cli.main([command, *data, "--out", out + "/" + command]) for command in ("analyze", "model", "cohort")],
]
result["after"] = scipy_modules()
with open(out + "/result.json", "w") as fh:
    json.dump(result, fh)
"""


def test_numpy_only_commands_load_no_scipy(tmp_path):
    src = str(Path(pagegrowth.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", _STARTUP_SCRIPT, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads((tmp_path / "result.json").read_text())
    assert result["import"] == []
    assert result["codes"] == [0] * 6
    assert result["after"] == []

    def rows(path):
        with open(tmp_path / path) as fh:
            return list(csv.DictReader(fh))

    # the Burr fits, the regressions and the matching ran
    assert any(r["distribution"] == "burr" for r in rows("analyze/fits.csv"))
    assert {"c", "k"} <= {r["parameter"] for r in rows("model/coefficients.csv")}
    assert rows("cohort/matches.csv")


def test_importing_the_cli_compiles_no_dataclasses():
    # every record takes its methods from ingest._Record, compiled once with the module;
    # a dataclass would compile its generated methods from source text at every start
    src = str(Path(pagegrowth.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", "import sys, pagegrowth.cli; print('dataclasses' in sys.modules)"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.split() == ["False"]


def test_no_module_imports_csv():
    # ingest's own tokenizer reads every CSV input, so acceptance does not depend on
    # the csv module of the Python version; ingest also writes every CSV output
    importers = []
    for path in sorted(Path(pagegrowth.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name == "csv" or name.startswith("csv.") for name in names):
                importers.append(path.name)
    assert importers == []


# Runs in a fresh interpreter: imports the module named in argv[1] and prints
# OPENBLAS_NUM_THREADS as it stood when numpy was first imported.
_BLAS_PIN_SCRIPT = """
import importlib, json, os, sys

seen = []

class FirstNumpyImport:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.append(os.environ.get("OPENBLAS_NUM_THREADS"))
        return None

sys.meta_path.insert(0, FirstNumpyImport())
importlib.import_module(sys.argv[1])
print(json.dumps(seen))
"""


@pytest.mark.parametrize("module, preset, expected", [
    pytest.param("pagegrowth.cli", None, "1", id="cli-pins-one-thread"),
    pytest.param("pagegrowth.cli", "2", "2", id="cli-keeps-the-users-value"),
    pytest.param("pagegrowth.pipeline", None, None, id="library-leaves-it-unset"),
])
def test_blas_thread_pin_precedes_numpy(module, preset, expected):
    # numpy's OpenBLAS sizes its thread pool when it loads; a later setting does nothing
    src = str(Path(pagegrowth.__file__).resolve().parent.parent)
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    proc = subprocess.run([sys.executable, "-c", _BLAS_PIN_SCRIPT, module],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert json.loads(proc.stdout) == [expected]
