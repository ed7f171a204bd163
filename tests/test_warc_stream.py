"""The streaming (W)ARC member iterator (``sources/warc.py``).

Every archive read goes through ``iter_archive_records``, from bytes or
from a binary stream. These tests shrink ``READ_CHUNK`` to a few bytes so
gzip magics, member ends, header terminators and record blocks straddle
read boundaries, and check that the stream gives exactly the rows of the
in-memory ``parse_archive_bytes`` and of the independent sequential
oracle. They also pin the memory bound (ROADMAP item 1): iterating a
file 10x larger does not raise the peak, and the reader's output tables
stay under Ray Data's block-size target.
"""

import gzip
import io
import random
import tracemalloc

import pyarrow as pa
import pytest

from webarchive_discovery_ray.oracle.warc_oracle import (
    build_synthetic_warc_gz,
    oracle_parse_archive,
)
from webarchive_discovery_ray.schema import PAGES_SCHEMA
from webarchive_discovery_ray.sources import warc
from webarchive_discovery_ray.sources.warc import (
    build_response_member,
    iter_archive_rows,
    parse_archive_bytes,
    split_gzip_members,
)


def _record(i: int) -> bytes:
    body = f"HTTP/1.1 200 OK\r\nContent-Type: text/html\r\n\r\n<p>page {i}</p>".encode()
    return (
        b"WARC/1.0\r\nWARC-Type: response\r\n"
        + f"WARC-Target-URI: http://ex.org/{i}\r\n".encode()
        + b"WARC-Date: 2016-01-01T00:00:00Z\r\n"
        + f"Content-Length: {len(body)}\r\n\r\n".encode()
        + body
        + b"\r\n\r\n"
    )


def _arc_records(n: int) -> list[bytes]:
    head = b"1 0 t\nURL IP-address Archive-date Content-type Archive-length"
    out = [
        b"filedesc://t.arc 0.0.0.0 20080430204825 text/plain "
        + str(len(head)).encode() + b"\n" + head + b"\n"
    ]
    for i in range(n):
        body = f"HTTP/1.1 200 OK\r\nContent-Type: text/html\r\n\r\n<p>{i}</p>".encode()
        out.append(
            f"http://h{i}.org/p 1.2.3.4 20080430204825 text/html {len(body)}\n".encode()
            + body + b"\n"
        )
    return out


def _gz(raw: bytes) -> bytes:
    return gzip.compress(raw, mtime=0)


MEMBERS = [_gz(_record(i)) for i in range(5)]


def _streamed(data: bytes, tmp_path, name: str) -> list[dict]:
    """The rows of ``data`` from a BytesIO and from a real file, which
    must agree; returns one of them."""
    rows = list(iter_archive_rows(io.BytesIO(data), name))
    path = tmp_path / name
    path.write_bytes(data)
    with open(path, "rb") as fh:
        assert list(iter_archive_rows(fh, name)) == rows
    with warc.open_archive(str(path)) as fh:
        assert list(iter_archive_rows(fh, name)) == rows
    return rows


@pytest.fixture(params=[1, 3, 7])
def tiny_chunks(request, monkeypatch):
    monkeypatch.setattr(warc, "READ_CHUNK", request.param)
    return request.param


def _check(data: bytes, tmp_path, name: str, oracle_bytes: bytes | None = None):
    """Stream rows == in-memory rows == oracle rows (over ``oracle_bytes``,
    the part of ``data`` the oracle can read, when given)."""
    rows = _streamed(data, tmp_path, name)
    assert rows == parse_archive_bytes(data, name)
    want = oracle_parse_archive(data if oracle_bytes is None else oracle_bytes, name)
    assert rows == want
    pa.Table.from_pylist(rows, schema=PAGES_SCHEMA)
    return rows


def test_member_offsets_same_from_stream(tiny_chunks):
    data = b"".join(MEMBERS)
    from_bytes = list(split_gzip_members(data))
    assert list(split_gzip_members(io.BytesIO(data))) == from_bytes
    offsets = [off for off, _ in from_bytes]
    assert offsets == [sum(map(len, MEMBERS[:i])) for i in range(len(MEMBERS))]
    assert [m for _, m in from_bytes] == [_record(i) for i in range(5)]


def test_truncated_final_member_keeps_partial_output(tiny_chunks, tmp_path):
    data = b"".join(MEMBERS)
    # the gzip trailer (CRC32 + size) cut off: the member's output is
    # whole, so its record survives
    rows = _check(data[:-6], tmp_path, "trailer.warc.gz")
    assert [r["url"] for r in rows] == [f"http://ex.org/{i}" for i in range(5)]
    # cut inside the deflate data: the partial output ends mid-block,
    # the truncated record is dropped and everything before it survives
    # (the oracle keeps a short block, so it reads the members before it)
    rows = _check(data[:-30], tmp_path, "deflate.warc.gz",
                  oracle_bytes=b"".join(MEMBERS[:4]))
    assert [r["url"] for r in rows] == [f"http://ex.org/{i}" for i in range(4)]


def test_corrupt_middle_member_ends_the_file(tiny_chunks, tmp_path):
    bad = MEMBERS[2][:10] + b"\xff" * (len(MEMBERS[2]) - 10)  # reserved block type
    prefix = b"".join(MEMBERS[:2])
    data = prefix + bad + b"".join(MEMBERS[3:])
    rows = _check(data, tmp_path, "corrupt.warc.gz", oracle_bytes=prefix)
    assert [r["url"] for r in rows] == ["http://ex.org/0", "http://ex.org/1"]


def test_non_gzip_garbage_after_members(tiny_chunks, tmp_path):
    valid = b"".join(MEMBERS)
    for tail in (b"not gzip at all\r\n", b"\x1f", b"\x00" * 40):
        rows = _check(valid + tail, tmp_path, "tail.warc.gz", oracle_bytes=valid)
        assert len(rows) == 5


def test_bad_members_follow_the_two_failure_rule(tiny_chunks, tmp_path):
    junk = _gz(b"GARBAGE NOT A WARC RECORD\r\n\r\n")
    skipped = MEMBERS[0] + junk + MEMBERS[1]
    rows = _streamed(skipped, tmp_path, "skip.warc.gz")
    assert rows == parse_archive_bytes(skipped, "skip.warc.gz")
    assert [r["url"] for r in rows] == ["http://ex.org/0", "http://ex.org/1"]
    abandoned = MEMBERS[0] + junk + junk + MEMBERS[1]
    rows = _streamed(abandoned, tmp_path, "abandon.warc.gz")
    assert [r["url"] for r in rows] == ["http://ex.org/0"]


def test_plain_warc(tiny_chunks, tmp_path):
    data = b"".join(_record(i) for i in range(5))
    rows = _check(data, tmp_path, "plain.warc")
    assert [r["source_offset"] for r in rows] == [
        sum(len(_record(j)) for j in range(i)) for i in range(5)
    ]
    # a truncated final record drops only that record
    rows = _streamed(data[:-20], tmp_path, "cut.warc")
    assert rows == parse_archive_bytes(data[:-20], "cut.warc")
    assert len(rows) == 4


def test_plain_arc_and_arc_gz(tiny_chunks, tmp_path):
    recs = _arc_records(4)
    plain = b"".join(recs)
    rows = _check(plain, tmp_path, "t.arc")
    assert rows[0]["url"].startswith("filedesc://") and len(rows) == 5
    per_record = b"".join(_gz(r) for r in recs)
    assert len(_check(per_record, tmp_path, "t.arc.gz")) == 5
    assert len(_check(_gz(plain), tmp_path, "one.arc.gz")) == 5


def test_synthetic_fixture(tiny_chunks, tmp_path):
    data = build_synthetic_warc_gz(n_pages=4, seed=7)
    assert len(_check(data, tmp_path, "syn.warc.gz")) > 4


def test_empty_file(tiny_chunks, tmp_path):
    assert _check(b"", tmp_path, "empty.warc.gz") == []


def test_negative_length_is_a_bad_record():
    head = b"WARC/1.0\r\nWARC-Type: resource\r\nContent-Length: -40\r\n\r\n"
    data = b"".join(MEMBERS[:2]) + _gz(head + b"x" * 50) + MEMBERS[2]
    rows = parse_archive_bytes(data, "neg.warc.gz")
    assert [r["url"] for r in rows] == [f"http://ex.org/{i}" for i in range(3)]
    assert parse_archive_bytes(b"http://a/ 1.2.3.4 20080430204825 t/h -3\nxx", "n.arc") == []


# --------------------------------------------------------------------------
# bounded memory
# --------------------------------------------------------------------------


def _synthetic_warc(n: int, gz: bool) -> bytes:
    rnd = random.Random(n)
    words = "alpha beta gamma delta html body page link text data".split()
    members = []
    for i in range(n):
        payload = " ".join(rnd.choice(words) for _ in range(150)).encode()
        member = build_response_member(
            f"http://h{i % 7}.org/p{i}", "20200101000000", 200, "text/html", payload
        )
        members.append(member if gz else gzip.decompress(member))
    return b"".join(members)


def _peak_while_iterating(path) -> int:
    tracemalloc.start()
    try:
        with open(path, "rb") as fh:
            n = sum(1 for _ in iter_archive_rows(fh, "m.warc"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert n > 0
    return peak


@pytest.mark.parametrize("gz", [True, False], ids=["warc.gz", "warc"])
def test_iteration_memory_flat_as_file_grows_10x(tmp_path, gz):
    """The Python heap peak while streaming a file's rows follows the
    record and ``READ_CHUNK``, not the file: 10x the records stays within
    2x the peak (a whole-file read gives about 5-10x)."""
    small, large = tmp_path / "small", tmp_path / "large"
    small.write_bytes(_synthetic_warc(300, gz))
    large.write_bytes(_synthetic_warc(3000, gz))
    assert small.stat().st_size > 2 * warc.READ_CHUNK
    peak_small = _peak_while_iterating(small)
    peak_large = _peak_while_iterating(large)
    assert peak_large <= 2 * peak_small, (peak_small, peak_large)
    assert peak_large < large.stat().st_size / 2


def test_reader_tables_capped_at_block_target(tmp_path, monkeypatch):
    from ray.data import DataContext

    path = tmp_path / "capped.warc.gz"
    data = _synthetic_warc(200, True)
    path.write_bytes(data)
    cap = 16 << 10
    monkeypatch.setattr(DataContext.get_current(), "target_max_block_size", cap)
    tables = list(warc._ArchiveToPages()(pa.table({"path": [str(path)]})))
    assert len(tables) > 5
    largest_row = max(sum(len(v) for v in r.values() if isinstance(v, (str, bytes)))
                      for r in parse_archive_bytes(data, "capped.warc.gz"))
    for t in tables:
        assert t.schema == PAGES_SCHEMA
        assert sum(len(p) for p in t["payload"].to_pylist()) < cap + largest_row
    assert pa.concat_tables(tables).to_pylist() == parse_archive_bytes(
        data, "capped.warc.gz"
    )


def test_reader_empty_file_gives_one_empty_table(tmp_path):
    path = tmp_path / "empty.warc.gz"
    path.write_bytes(b"")
    tables = list(warc._ArchiveToPages()(pa.table({"path": [str(path)]})))
    assert len(tables) == 1 and tables[0].num_rows == 0
    assert tables[0].schema == PAGES_SCHEMA
