"""The text rules give the same verdicts on every installed CPython from 3.10 on.

One table of inputs goes through every rule in ``pagegrowth.rules``, in
this interpreter and in each other CPython 3.10+ under
``~/.pyenv/versions``, started isolated (``-I``) with only ``src`` on its
path, and in this interpreter under the lowest and no int digit limit.
Those interpreters need not have numpy, and ``rules`` must not need it.
"""

import inspect
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

from pagegrowth import rules
from pagegrowth.ingest import POSTS_HEADER

SRC = Path(__file__).resolve().parent.parent / "src"
# digit counts around the lowest (640) and the default (4,300) int digit limits
LONG = ["1" * n for n in (641, 1_000, 4_300, 4_301, 5_000)]

TEXTS = [
    "5", "0", "007", "+5", " 5", "5 ", "-0", "-5", "-00", "٣", "１", "1" * 30, *LONG, "0" * 4301, "", " ",
    "inf", "-inf", "nan", "infinity", "1e999", "-1e999", ".5", "5.", "1e5", "+.5e+3", "1e", ".", "0x10", "1_0",
    "20190101", "2019-W01-1", "2019-001", "2019-02-30", "2019-02-28", "2020-02-29", "0000-01-01", "9999-12-31",
]
TIMESTAMPS = [
    "2019-01-01T00:00:00Z", "2019-01-01t00:00:00z", "2019-01-01T00:00:00.5Z", "2019-01-01T00:00:00,5Z",
    "2019-01-01T00:00:00.123456789+05:30", "2016-12-31T23:59:60Z", "2019-01-01T24:00:00Z",
    "2019-01-01T00:00:00+24:00", "2019-01-01T00:00:00", "2019-01-01 00:00:00Z", "2019-01-01T00:00Z",
    "2019-01-01T00:00:00+0100", " 2019-01-01T00:00:00Z ", "0000-01-01T00:00:00Z", "0001-01-01T00:00:00Z",
    "0001-01-01T00:00:00+00:01", "9999-12-31T23:59:59Z", "9999-12-31T23:59:59-00:01", "２０１９-01-01T00:00:00Z",
]


def _nested(depth: int) -> str:
    return '{"likes": ' + "[" * (depth - 1) + "]" * (depth - 1) + "}"


JSON_LINES = [
    '{"page_id": "p1", "total_interactions": 7}', *('{"likes": ' + digits + "}" for digits in LONG),
    '{"likes": -' + "1" * 4_301 + "}", '{"page_id": "p\\ud800"}',
    '{"page_id": "p\ud800"}', '{"post_id": "\\ud83d\\ude00"}', '{"likes": NaN}', '{"extra": 1}', "[]", "{",
    *map(_nested, (2, 100, 101, 975, 1_100, 5_000)),
]
CASES = [
    *(["integer", [text, "n"]] for text in TEXTS + TIMESTAMPS + JSON_LINES),
    *(["number", [text, "x"]] for text in TEXTS + TIMESTAMPS + JSON_LINES),
    *(["date", [text, "d"]] for text in TEXTS + TIMESTAMPS + JSON_LINES),
    *(["timestamp", [text]] for text in TEXTS + TIMESTAMPS + JSON_LINES),
    *(["json_object", [text, POSTS_HEADER]] for text in TEXTS + TIMESTAMPS + JSON_LINES),
]


def _verdicts(rules, cases):
    """("accepted", repr of the value) or ("refused", reason) per (rule, arguments). The reprs are
    written with no int digit limit, which would otherwise refuse to write a long accepted int."""
    out = []
    for name, args in cases:
        try:
            out.append(["accepted", getattr(rules, name)(*args)])
        except ValueError as exc:
            out.append(["refused", str(exc)])
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return [[verdict, repr(value) if verdict == "accepted" else value] for verdict, value in out]
    finally:
        sys.set_int_max_str_digits(limit)


_CHILD = "\n".join([
    "import json, sys",
    "sys.path.insert(0, sys.argv[1])",
    "from pagegrowth import rules",
    inspect.getsource(_verdicts),
    "print(json.dumps(['numpy' in sys.modules, _verdicts(rules, json.load(sys.stdin))]))",
])


def _other_interpreters() -> list[Path]:
    running = Path(sys.executable).resolve()
    found = []
    for python in sorted(Path("~/.pyenv/versions").expanduser().glob("3.1*/bin/python")):
        version = re.match(r"(\d+)\.(\d+)", python.parent.parent.name)
        if version and (int(version[1]), int(version[2])) >= (3, 10) and python.resolve() != running:
            found.append(python)
    return found


def _run_child(python, *options) -> tuple[bool, list]:
    done = subprocess.run([str(python), "-I", *options, "-c", _CHILD, str(SRC)], input=json.dumps(CASES),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    numpy_loaded, verdicts = json.loads(done.stdout)
    return numpy_loaded, verdicts


def _assert_child_agrees(python, *options) -> None:
    numpy_loaded, verdicts = _run_child(python, *options)
    assert not numpy_loaded
    expected = _verdicts(rules, json.loads(json.dumps(CASES)))
    differ = [(case, got, want) for case, got, want in zip(CASES, verdicts, expected) if got != want]
    assert not differ, differ[:5]
    assert len(verdicts) == len(CASES)


@pytest.mark.parametrize("python", _other_interpreters() or [None],
                         ids=lambda python: python.parent.parent.name if python else "none")
def test_verdicts_match_every_other_cpython(python):
    if python is None:
        pytest.skip("no other CPython 3.10 or later under ~/.pyenv/versions")
    _assert_child_agrees(python)


@pytest.mark.parametrize("limit", [0, 640])
def test_verdicts_match_under_any_int_digit_limit(limit):
    # with no limit a 5,000-digit count was accepted, and at 640 a 1,000-digit one was refused
    _assert_child_agrees(sys.executable, "-X", f"int_max_str_digits={limit}")


def test_rules_load_without_numpy():
    numpy_loaded, verdicts = _run_child(sys.executable)
    assert not numpy_loaded and len(verdicts) == len(CASES)


@pytest.mark.parametrize("raw, value", [("5", 5), ("007", 7), ("1" * 30, int("1" * 30)),
                                        pytest.param("1" * 4_300, int("1" * 4_300), id="4300-digits")])
def test_integer_takes_ascii_digits(raw, value):
    assert rules.integer(raw, "n") == value


@pytest.mark.parametrize("raw, reason", [
    *((raw, f"n is not an integer: {raw!r}") for raw in ["+5", " 5", "-0", "-00", "٣", "1_0", ""]),
    *(pytest.param(raw, f"n is not an integer: {raw!r}", id=f"{len(raw)}-digits")  # past the 4,300-digit limit
      for raw in ["1" * 4_301, "1" * 5_000]),
    ("-5", "n is negative"),
])
def test_integer_refusals(raw, reason):
    with pytest.raises(ValueError, match=f"^{re.escape(reason)}$"):
        rules.integer(raw, "n")


@pytest.mark.parametrize("raw, value", [(".5", 0.5), ("5.", 5.0), ("+.5e+3", 500.0), ("-0", -0.0),
                                        ("1e999", math.inf), ("-1e999", -math.inf)])
def test_number_takes_ascii_decimals(raw, value):
    assert rules.number(raw, "x") == value


@pytest.mark.parametrize("raw", ["inf", "nan", "infinity", " 5", "1_0", "٣", "1e", ".", "0x10", ""])
def test_number_refusals(raw):
    with pytest.raises(ValueError, match=f"^x is not a number: {re.escape(repr(raw))}$"):
        rules.number(raw, "x")
