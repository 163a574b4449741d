"""The CSV tokenizer against the csv module: records, start lines, fatal input.

``ingest`` reads every CSV input with one tokenizer over the file's bytes.
The oracle is ``csv.reader`` over the same bytes read as text the way the
package once read them: UTF-8, a byte order mark dropped, line ends left
as they are. Both must give the same non-blank records with the same start
lines, or both must refuse the input. The block size is patched small, so
that blocks end between a CR and its LF, inside quoted fields, inside
``""`` escapes and inside multi-byte characters.
"""

import csv
import io
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from pagegrowth import ingest, pipeline
from pagegrowth.ingest import POSTS_HEADER, FatalParseError, parse_pages, parse_posts
from tests.test_parse_columns import oracle_parse

HEADER = b"a,b\n"
BOM = b"\xef\xbb\xbf"
LIMIT = 131_072  # the csv module's default field size limit
BLOCK_BYTES = st.sampled_from([1, 2, 3, 5, 8, 13, 64, ingest._BLOCK_BYTES])


def csv_module_rows(data: bytes):
    """(line, row) per non-blank record after the ``a,b`` header, as csv.reader reads
    ``data``; None when it refuses the input."""
    reader = csv.reader(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig", newline=""))
    try:
        assert next(reader) == ["a", "b"]
        rows, line = [], reader.line_num + 1
        for row in reader:
            if row:
                rows.append((line, row))
            line = reader.line_num + 1
    except (UnicodeDecodeError, csv.Error):
        return None
    return rows


def tokenized_rows(data: bytes, block_bytes: int):
    """(line, row) per non-blank record as the tokenizer finds it, fields unstripped; None when it refuses."""
    rows = []
    with mock.patch.object(ingest, "_BLOCK_BYTES", block_bytes):
        try:
            for fields, lines, widths in ingest._csv_blocks(data, ["a", "b"], "test"):
                values, k = fields.strings(slice(None)), 0
                for line, width in zip(lines.tolist(), widths.tolist()):
                    if width:
                        rows.append((line, values[k:k + width]))
                    k += width
        except FatalParseError:
            return None
    return rows


# é and U+00A0 are two bytes each in UTF-8; a lone 0xA0 or 0xC3 byte is not UTF-8
CHARS = [b",", b'"', b"\r", b"\n", b" ", b"\t", b"\x00", b"a", "é".encode(), "\xa0".encode()]
TEXT = st.lists(st.sampled_from(CHARS), max_size=60).map(b"".join)


@st.composite
def csv_bytes(draw):
    body = draw(TEXT)
    if draw(st.integers(0, 5)) == 0:  # a stray byte: the input is not UTF-8
        at = draw(st.integers(0, len(body)))
        body = body[:at] + draw(st.sampled_from([b"\xa0", b"\xc3"])) + body[at:]
    return (BOM if draw(st.booleans()) else b"") + HEADER + body


@given(csv_bytes(), BLOCK_BYTES)
@example(HEADER + b'"ab"c"d,a"b\r\n', 1)  # non-strict quotes: abc"d and a"b
@example(HEADER + b'x,"open\r\nquote', 2)  # the input ends inside quotes: the field keeps the rest
@example(HEADER + b"x\ry\r\n\r\nz", 1)  # a lone CR ends a line; a blank record is skipped
@example(HEADER + b'"a""b",""""\n"",\n', 3)  # escapes, cut by blocks of 3
@example(HEADER + "é,ü\n".encode(), 1)  # blocks end inside a character
@example(HEADER + b'"\xc3"\xa9\n', 64)  # not UTF-8, though it would be without the quotes
@example(BOM + HEADER + b'"\n",x\n\n"y\r\n",z', 5)  # quoted line breaks count as lines
@settings(max_examples=600, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_records_match_the_csv_module(data, block_bytes):
    expected = csv_module_rows(data)
    assert tokenized_rows(data, block_bytes) == expected
    if expected is not None:  # every CSV input but posts is read as these rows, each field stripped
        stripped = [(line, [v.strip() for v in row]) for line, row in expected]
        assert list(ingest._csv_rows(data, ["a", "b"], "test")) == stripped


# posts files of 8-field rows whose fields are good values, odd bytes, or either quoted
GOOD = [st.sampled_from(["p1", "p2"]), st.sampled_from(["a", "b", "c", "d"]),
        st.sampled_from(["2019-01-01T00:00:00Z", "2019-06-01T10:00:00+02:00"]),
        *[st.sampled_from(["", "0", "1", "12"])] * 5]
ODD = st.lists(st.sampled_from(CHARS), max_size=6).map(b"".join)


def posts_field(good):
    plain = st.one_of(good.map(str.encode), good.map(str.encode), ODD)
    quoted = plain.map(lambda v: b'"' + v.replace(b'"', b'""') + b'"')
    return st.one_of(plain, plain, quoted)


ROW = st.tuples(*map(posts_field, GOOD)).map(b",".join)


@given(st.lists(st.one_of(ROW, ROW, ROW, ODD), max_size=12), st.sampled_from([b"\n", b"\r\n", b"\r"]),
       BLOCK_BYTES, st.sampled_from([1, 2, ingest._CHUNK_ROWS]))
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_posts_skeletons_match_the_row_oracle(lines, terminator, block_bytes, chunk_rows):
    data = terminator.join([",".join(POSTS_HEADER).encode(), *lines])
    try:
        expected = oracle_parse(data, "csv")
    except (UnicodeDecodeError, csv.Error):
        expected = None
    with mock.patch.object(ingest, "_BLOCK_BYTES", block_bytes), mock.patch.object(ingest, "_CHUNK_ROWS", chunk_rows):
        try:
            posts, report = parse_posts(data)
            got = list(posts), [(r.line, r.reason) for r in report.rows]
        except FatalParseError:
            got = None
    assert got == expected


@pytest.mark.parametrize("length", [LIMIT, LIMIT + 1])
@pytest.mark.parametrize("field", [
    lambda n: b"a" * n,  # one byte a character
    lambda n: "é".encode() * n,  # two bytes a character: the limit counts characters
    lambda n: b'"' + b'""' * (n - 1) + b'x"',  # quoted, each escape counting one
])
def test_field_limit_in_characters(field, length):
    data = HEADER + b"x," + field(length) + b"\ny,z\n"
    expected = csv_module_rows(data)
    assert (expected is None) == (length > LIMIT)
    assert tokenized_rows(data, ingest._BLOCK_BYTES) == expected
    if length > LIMIT:
        with pytest.raises(FatalParseError, match=r"^unreadable test file: field larger than field limit \(131072\)$"):
            list(ingest._csv_rows(data, ["a", "b"], "test"))


def test_an_unclosed_quote_fails_at_the_limit_without_reading_on():
    reads = []

    class Stream(io.BytesIO):
        def read(self, size=-1):
            reads.append(size)
            return super().read(size)

    stream = Stream(HEADER + b'x,"' + b"a" * (50 * LIMIT))
    with pytest.raises(FatalParseError, match="field larger than field limit"):
        list(ingest._csv_rows(stream, ["a", "b"], "test"))
    assert stream.tell() < 10 * LIMIT and max(reads) < 10 * LIMIT


def test_nul_is_an_ordinary_character(tmp_path):
    # Python 3.10's csv module refused a line holding NUL; the rows' own checks judge it now
    pages, report = parse_pages(b"page_id,name,created_at,newsguard_score,language\np1,a\x00b,2019-01-01,,\n")
    assert pages["p1"].name == "a\x00b" and len(report) == 0
    posts, report = parse_posts((",".join(POSTS_HEADER) + "\np1,a\x00,2019-01-01T00:00:00Z,,,,5\x00,\n").encode())
    assert len(posts) == 0 and [r.reason for r in report.rows] == ["total_interactions is not an integer: '5\\x00'"]
    (tmp_path / "classes.csv").write_bytes(b"label,lower,upper\nsmall\x00,0,10\nlarge,10,100\n")
    assert [c.label for c in pipeline.load_classes(tmp_path / "classes.csv")] == ["small\x00", "large"]
