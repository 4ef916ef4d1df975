"""The block reader of `ebmix bound --data`, which parses a block in one
JSON call, against the line-by-line reader it replaced: the same values,
bit for bit, or the same InputError, for files that mix line ends,
comments, padding and refused tokens, with blocks small enough that lines
and '\\r\\n' pairs straddle the cuts."""

import itertools
import os
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from ebmix import cli
from ebmix.errors import InputError


def _text_read_values(path: str) -> np.ndarray:
    """The text-mode reader: blocks of ``_BLOCK_LINES`` lines from a file
    opened with universal newlines."""
    blocks, start = [], 1
    try:
        with open(path, encoding="utf-8") as f:
            while block := list(itertools.islice(f, cli._BLOCK_LINES)):
                blocks.append(_text_parse_block(path, block, start))
                start += len(block)
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read data file {path}: {exc}") from exc
    array = np.concatenate(blocks) if blocks else np.empty(0)
    if array.size == 0:
        raise InputError(f"{path}: no numeric data found")
    return array


def _text_parse_block(path: str, block: list[str], start: int) -> np.ndarray:
    head = 0
    while head < len(block) and (not block[head].strip() or block[head].lstrip().startswith("#")):
        head += 1
    data = block[head:] if head else block
    text = "".join(data)
    if not text.isascii() or "_" in text:
        return cli._parse_lines(path, block, start)
    try:
        array = np.fromiter(map(float, data), dtype=float, count=len(data))
    except ValueError:
        return cli._parse_lines(path, block, start)
    return array if np.isfinite(array).all() else cli._parse_lines(path, block, start)


def _outcome(read, path):
    """The value bits ``read`` gives for ``path``, or its error message."""
    try:
        return read(path).view(np.uint64).tolist()
    except InputError as exc:
        return str(exc)


_PAD = st.sampled_from(["", " ", "\t", "\x0b", "\x0c", " \t"])
_NUMBER = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**30, 10**30).map(str),
    st.sampled_from(["-0", "-0.0", "-0e0", "0", "5e-324", "1e308", ".5", "1.", "+2", "1E3",
                     "007", "18446744073709551616", "-9223372036854775809"]),
)
_VALUE = st.tuples(_PAD, _NUMBER, _PAD).map("".join)
_QUIET = st.sampled_from(["", "  ", "\t", "# note", "  # \u00b5 = \u00bd \u2713",
                          '# truth: {"long_run_var": 1}', "#"])
# Lines that are refused, or that take the line loop: '\x1c' is whitespace
# to str.strip() but not to bytes.strip(), and JSON reads the tokens from
# 'true' on, which float() refuses.
_TRICKY = st.sampled_from(["1_000", "\u0661\u0662", "\uff11", "nan", " inf", "-inf",
                            "1\x00", "abc", "0.5 # x", "1 2", "\ufeff0.5", "\x1c0.5", "1e500",
                            "true", "false", "null", '"0.5"', "[1]", "{}", "1,2"])
_LINE_END = st.sampled_from([b"\n", b"\r\n", b"\r"])
_NOT_UTF8 = st.sampled_from([b"\xff0.25", b"# \xff", b"0.5\xc3", b"# \xed\xa0\x80"])


@st.composite
def _data_files(draw):
    """File bytes: a head of blank and '#' lines, then values, blank and '#'
    lines, with either up to three tricky lines and perhaps a byte-order
    mark, or one line that is not UTF-8 and nothing else refused, placed
    anywhere, each line with its own end."""
    text = draw(st.lists(_QUIET, max_size=4))
    text += draw(st.lists(st.one_of(_VALUE, _QUIET), max_size=30))
    lines = [s.encode("utf-8") for s in text]
    not_utf8 = draw(st.booleans())
    if not_utf8:
        extra = [draw(_NOT_UTF8)]
    else:
        extra = [s.encode("utf-8") for s in draw(st.lists(_TRICKY, max_size=3))]
    for line in extra:
        lines.insert(draw(st.integers(0, len(lines))), line)
    if lines and not not_utf8 and draw(st.booleans()):
        lines[0] = b"\xef\xbb\xbf" + lines[0]  # a byte-order mark, refused on a value line
    ends = [draw(_LINE_END) for _ in lines]
    if ends and draw(st.booleans()):
        ends[-1] = b""  # no final line end
    return b"".join(line + end for line, end in zip(lines, ends))


@pytest.fixture(scope="module")
def data_path(tmp_path_factory):
    return str(tmp_path_factory.mktemp("parity") / "data.txt")


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(raw=_data_files())
@example(raw=b"# \xff\n0.5\n")
@example(raw=b'# truth: {"a_b": 1}\r\n0.5\r\n0.25')
@example(raw=b"# a\r0.5\n0.25\n")
@example(raw=b"0.5\r\r\n0.25\r\rabc\r")
@example(raw=b"# a\r\n# b\r\n# \xc2\xb5\r\n0.5\r\n")
@example(raw=b"0.5\ntrue\n")
@example(raw=b'0.25\r\n"0.5"\r\n[1]\r\n')
@example(raw=b"0.5\n-0\n 1e-0 \n")
@example(raw=b"# a\r\n\r\n" + b"0.5\r\n" * 20 + b"abc\r\n")  # the head is counted
def test_binary_reader_matches_the_text_reader(raw, data_path):
    with open(data_path, "wb") as f:
        f.write(raw)
    want = _outcome(_text_read_values, data_path)
    for size in (1, 7, 64, cli._BLOCK_BYTES):
        with mock.patch.object(cli, "_BLOCK_BYTES", size):
            got = _outcome(cli.read_values, data_path)
        if isinstance(want, str) and want.startswith("cannot read data file"):
            # The byte offset in a decoding error depends on where the read
            # was cut, so only the refusal itself is compared.
            assert isinstance(got, str) and got.startswith(f"cannot read data file {data_path}: ")
        else:
            assert got == want, size


@pytest.mark.parametrize(
    "raw, values",
    [(b"# a\r0.5\n0.25\n", [0.5, 0.25]),
     (b"0.5\r0.25\r" * 40 + b"10", [0.5, 0.25] * 40 + [10.0]),
     (b"0.5\r\n0.25\r\n" * 40, [0.5, 0.25] * 40),
     (b'# truth: {"long_run_var": 1}\n# \xc2\xb5\n0.5\n', [0.5])],
    ids=["lone-cr-in-a-head-comment", "cr-only", "crlf", "utf8-head-with-underscore"],
)
@pytest.mark.parametrize("size", [1, 7, 64])
def test_binary_reader_cuts_at_every_line_end(tmp_path, raw, values, size):
    data = tmp_path / "data.txt"
    data.write_bytes(raw)
    with mock.patch.object(cli, "_BLOCK_BYTES", size):
        assert cli.read_values(str(data)).tolist() == values


def test_binary_reader_reads_a_pipe_in_small_blocks(tmp_path):
    values = np.random.default_rng(11).normal(size=300).tolist()
    ends = itertools.cycle([b"\n", b"\r\n", b"\r"])
    payload = b"# head \xe2\x9c\x93\n" + b"".join(repr(v).encode() + next(ends) for v in values)
    r, w = os.pipe()

    def feed():
        with open(w, "wb") as sink:
            sink.write(payload)

    writer = threading.Thread(target=feed)
    writer.start()
    try:
        with mock.patch.object(cli, "_BLOCK_BYTES", 7):
            piped = cli.read_values(f"/dev/fd/{r}")
    finally:
        writer.join(timeout=60)
        os.close(r)
    assert not writer.is_alive()
    assert piped.view(np.uint64).tolist() == np.array(values).view(np.uint64).tolist()


def test_binary_reader_carries_a_line_longer_than_a_block(tmp_path):
    data = tmp_path / "data.txt"
    data.write_bytes(b"0.5\n" + b" " * 5000 + b"0.25\n" + b"1e-3")
    with mock.patch.object(cli, "_BLOCK_BYTES", 64):
        assert cli.read_values(str(data)).tolist() == [0.5, 0.25, 1e-3]
