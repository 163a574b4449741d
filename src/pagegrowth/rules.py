"""The one grammar of each kind of input text, from a file or a flag.

``integer`` takes ASCII digits, not ``int()``'s ``+5``, ``-0``, `` 5``,
``5_000`` or non-ASCII digits. ``number`` takes an ASCII decimal with
optional sign and exponent (every ``format(x, "g")`` of a finite x), not
``6_0``, ``nan`` or ``inf``; ``1e999`` reads as inf. ``date`` takes
``YYYY-MM-DD`` only, ``timestamp`` an RFC 3339 date-time (section 5.6)
with an explicit offset, and ``json_object`` gives a JSONL line's verdict.
Only ``timestamp`` strips its text. Range and finiteness checks stay with
the callers. The standard library alone is used, so the verdicts can be
checked on each CPython from 3.10 on, with or without numpy.
"""

from __future__ import annotations

import datetime as dt
import json
import re

_NUMBER = re.compile(r"[+-]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")
_YMD = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")
# RFC 3339 section 5.6 date-time; "T" and "Z" may be lower case
_RFC3339 = re.compile(rf"({_YMD.pattern})[Tt]([0-9]{{2}}:[0-9]{{2}}:[0-9]{{2}})(?:\.[0-9]+)?"
                      r"([Zz]|[+-](?:[01][0-9]|2[0-3]):[0-5][0-9])?")
_LONE_HALF = re.compile("[\ud800-\udfff]")  # UTF-8 cannot encode one, so no output could hold it
MAX_DEPTH = 100  # the deepest a JSONL line may nest arrays and objects
MAX_DIGITS = 4_300  # CPython's default int digit limit, held whatever limit the interpreter has
_DIGIT_RUN = re.compile("[0-9]{641}")  # the shortest run of digits an int digit limit can refuse


def _int(text: str) -> int:
    """ASCII digits, after an optional "-", as an int; int() reads 640 at a time, which no digit limit refuses."""
    digits, value = text.lstrip("-"), 0
    if len(digits) > MAX_DIGITS:
        raise ValueError(f"more than {MAX_DIGITS} digits")
    for i in range(0, len(digits), 640):
        value = value * 10 ** len(digits[i:i + 640]) + int(digits[i:i + 640])
    return -value if text[:1] == "-" else value


def integer(raw: str, what: str) -> int:
    if raw.isascii() and raw.isdigit():
        try:
            return _int(raw)
        except ValueError:  # more than MAX_DIGITS digits
            pass
    elif raw[:1] == "-" and raw[1:].isascii() and raw[1:].isdigit() and raw[1:].strip("0"):
        raise ValueError(f"{what} is negative")
    raise ValueError(f"{what} is not an integer: {raw!r}")


def number(raw: str, what: str) -> float:
    if _NUMBER.fullmatch(raw):
        return float(raw)
    raise ValueError(f"{what} is not a number: {raw!r}")


def date(raw: str, what: str) -> dt.date:
    try:
        if _YMD.fullmatch(raw):
            return dt.date.fromisoformat(raw)
    except ValueError:  # the form is right but the day does not exist, such as 2019-02-30
        pass
    raise ValueError(f"unparsable {what} {raw!r}")


def timestamp(raw: str) -> dt.datetime:
    """UTC, truncated to seconds. ``fromisoformat`` checks the field ranges on a canonical
    form every Python version reads alike; offsets are whole minutes, so the fraction is dropped first."""
    match = _RFC3339.fullmatch(raw.strip())
    if match is None:
        raise ValueError(f"unparsable timestamp {raw!r}")
    day, clock, offset = match.groups()
    try:
        ts = dt.datetime.fromisoformat(f"{day}T{clock}{'+00:00' if offset in ('Z', 'z') else offset or ''}")
        utc = ts.astimezone(dt.timezone.utc) if ts.tzinfo else None
    except (ValueError, OverflowError) as exc:  # OverflowError: the UTC instant leaves years 1-9999
        raise ValueError(f"unparsable timestamp {raw!r}") from exc
    if utc is None:
        raise ValueError(f"timestamp {raw!r} lacks a UTC offset")
    return utc


def json_object(raw: str, names: list[str]) -> dict:
    """The object on one JSONL line, with only fields in ``names`` and valid Unicode text. Nesting past
    MAX_DEPTH is invalid JSON, as deep nesting json refuses is: how deep json reads depends on the Python
    version and on the caller's stack, so the depth is measured after, without recursion."""
    try:
        obj = json.loads(raw, parse_int=_int) if _DIGIT_RUN.search(raw) else json.loads(raw)
    except (ValueError, RecursionError):
        raise ValueError("invalid JSON") from None
    if raw.count("[") + raw.count("{") > MAX_DEPTH:  # each level opens with a bracket
        level = [obj]
        for _ in range(MAX_DEPTH):  # one level deeper each pass, without recursion
            level = [v for c in level if isinstance(c, (dict, list))
                     for v in (c.values() if isinstance(c, dict) else c)]
        if any(isinstance(v, (dict, list)) for v in level):
            raise ValueError("invalid JSON")
    if not isinstance(obj, dict):
        raise ValueError("not a JSON object")
    unknown = set(obj).difference(names)
    if unknown:
        raise ValueError(f"unknown fields: {sorted(unknown)}")
    if "\\u" in raw or not raw.isascii():  # a lone surrogate comes from a \u escape or from str input
        for name in names:
            if isinstance(obj.get(name), str) and _LONE_HALF.search(obj[name]):
                raise ValueError(f"{name} is not valid Unicode (lone surrogate)")
    return obj
