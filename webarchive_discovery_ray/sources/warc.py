"""From-scratch WARC/ARC binary record readers (the real S1/S2 input path).

No warcio / JWAT / heritrix: WARC (ISO 28500, any ``WARC/x.y`` version
line — the fixtures span 0.17 and 1.0) and ARC v1/v2 are parsed directly
from bytes, and gzip *multi-member* archives are split with ``zlib`` so
every record keeps its **compressed member offset** (the CDX offset
contract). Reference behaviour mirrored (semantics, not code):

* ``ArchiveReaderFactory.get`` format sniffing + streaming record
  iteration, one file per task
  (warc-hadoop-recordreaders/src/main/java/uk/bl/wa/hadoop/
  ArchiveFileRecordReader.java:140-160; the indexer's one-record-at-a-time
  loop, WARCIndexerCommand.java:202-221);
* the 2-consecutive-failure skip rule: a record that fails to parse is
  skipped once (resync to the next record boundary); a second consecutive
  failure abandons the rest of the file
  (warc-indexer/src/main/java/uk/bl/wa/indexer/WARCIndexerCommand.java:211-236);
* per-record-type HTTP handling (WARCIndexer.java:655-706
  ``processWARCHTTPHeaders``): ``resource`` records get a synthetic
  status 200 ("cheating a bit here for tool compatibility"), ``request``
  records get no status, ``response``/``revisit`` records parse the
  status line only when the block starts with ``HTTP``;
* ARC records carry no ``WARC-Type`` header so they are never
  record-type-filtered (WARCIndexer.java:305-312 — the type check is
  skipped for ARC); they surface as ``record_type="response"`` with the
  HTTP status parsed from the record content
  (ARCRecord.getStatusCode semantics).

Output rows conform to ``schema.PAGES_SCHEMA`` so the whole existing
extraction chain (``stages/extract.py``) runs unchanged on real archives.

Scale notes: a (W)ARC file is the natural parallel unit — gzip members are
not splittable without an external index — so ``read_archive_pages`` maps
one file to one task (exactly the reference's one-file-per-split), and the
downstream extract stage re-batches to its own ``batch_size``. Every
archive read goes through one member iterator, :func:`iter_archive_records`:
it takes bytes or a binary stream, feeds gzip input to zlib in
``READ_CHUNK`` pieces (linear in the file size) and holds one member — or,
for a plain (W)ARC, one record — at a time, so a task's memory follows the
largest record, not the file. The reader yields PAGES tables of at most
Ray Data's ``target_max_block_size``. Payload bytes ride Arrow
``large_binary`` blocks; nothing is held on the driver.
"""

from __future__ import annotations

import re
import zlib
from collections import Counter
from typing import Iterator

import pyarrow as pa

from ..schema import PAGES_SCHEMA

__all__ = [
    "split_gzip_members",
    "iter_warc_records",
    "iter_archive_records",
    "iter_archive_rows",
    "open_archive",
    "parse_archive_bytes",
    "parse_archive_stats",
    "record_stats_items",
    "read_archive_pages",
    "build_response_member",
    "build_revisit_member",
    "write_warc",
]

GZIP_MAGIC = b"\x1f\x8b"
_WARC_VERSION_RE = re.compile(rb"^WARC/\d+\.\d+\r?\n")
_CRLF_SET = b"\r\n"
# bytes per stream read and per zlib feed: what a reader holds beyond the
# record it is on
READ_CHUNK = 1 << 16


def _chunks(source) -> Iterator:
    """``source`` (bytes or a binary stream) as pieces of at most
    ``READ_CHUNK`` bytes; in-memory bytes are sliced without copying."""
    if isinstance(source, (bytes, bytearray, memoryview)):
        view = memoryview(source)
        for i in range(0, len(view), READ_CHUNK):
            yield view[i : i + READ_CHUNK]
        return
    while chunk := source.read(READ_CHUNK):
        yield chunk


def split_gzip_members(source) -> Iterator[tuple[int, bytes]]:
    """Yield ``(compressed_offset, decompressed_member)`` for each gzip
    member of a multi-member gzip file (one member per record is the
    (W)ARC-gz convention; offsets are what CDX records).

    ``source`` is bytes or a binary stream. It is fed to one
    ``zlib.decompressobj`` per member in ``READ_CHUNK`` pieces, so the
    pass is linear in the file size and holds one member's output at a
    time. A member cut short by the end of the input yields its partial
    output; a missing gzip magic raises ``ValueError`` and a corrupt
    member ``zlib.error``, each before that member is yielded."""
    chunks = _chunks(source)
    pending = b""
    pos = 0
    while True:
        while len(pending) < 2 and (more := next(chunks, None)) is not None:
            pending = bytes(pending) + bytes(more)
        if not pending:
            return
        if pending[:2] != GZIP_MAGIC:
            raise ValueError(f"not a gzip member at offset {pos}")
        start, d, parts = pos, zlib.decompressobj(wbits=31), []
        while pending is not None:
            parts.append(d.decompress(pending))
            if d.eof:
                pos += len(pending) - len(d.unused_data)
                pending = d.unused_data
                break
            pos += len(pending)
            pending = next(chunks, None)
        else:  # the input ended inside this member
            parts.append(d.flush())
            pending = b""
        yield start, b"".join(parts)


class _Window:
    """Bytes, or a binary stream read on demand, addressed by absolute
    position. Everything before the last :meth:`release` point is dropped
    at the next read, so a plain (W)ARC stream is held one record at a
    time; a read is at least as large as what is kept, which keeps one
    record larger than ``READ_CHUNK`` linear to assemble."""

    def __init__(self, source):
        if isinstance(source, (bytes, bytearray, memoryview)):
            self._buf, self._read = bytes(source), None
        else:
            self._buf, self._read = b"", source.read
        self._base = 0  # absolute position of _buf[0]
        self._keep = 0  # nothing before this is read again

    def _more(self) -> bool:
        if self._read is None:
            return False
        drop = self._keep - self._base
        chunk = self._read(max(READ_CHUNK, len(self._buf) - drop))
        if not chunk:
            self._read = None
            return False
        self._buf = self._buf[drop:] + chunk
        self._base = self._keep
        return True

    def fill(self, end: int) -> bool:
        """Read until ``end`` is in the window; False if the source ends
        first."""
        while self._base + len(self._buf) < end:
            if not self._more():
                return False
        return True

    def byte(self, pos: int) -> int | None:
        return self._buf[pos - self._base] if self.fill(pos + 1) else None

    def get(self, start: int, end: int) -> bytes:
        """Bytes ``start:end``, cut short where the source ends."""
        self.fill(end)
        return self._buf[start - self._base : end - self._base]

    def find(self, pos: int, *subs: bytes) -> list[int]:
        """Absolute position of each of ``subs`` at or after ``pos`` (-1
        when absent), reading on until one is found or the source ends.
        The caller takes the earliest found; for the header terminators
        no absent one can start before it and end past the window."""
        scan = pos
        while True:
            found = [self._buf.find(s, scan - self._base) for s in subs]
            if any(f != -1 for f in found):
                return [f if f == -1 else f + self._base for f in found]
            scan = max(pos, self._base + len(self._buf) - max(map(len, subs)) + 1)
            if not self._more():
                return found

    def release(self, pos: int) -> None:
        self._keep = pos


def _parse_header_lines(blob: bytes) -> dict[str, str]:
    """Parse a WARC/HTTP ``Key: value`` header block (continuation lines
    folded with a single space, keys case-folded)."""
    headers: dict[str, str] = {}
    last_key: str | None = None
    for raw_line in blob.split(b"\n"):
        line = raw_line.rstrip(b"\r")
        if not line:
            continue
        if line[:1] in (b" ", b"\t") and last_key is not None:
            headers[last_key] += " " + line.strip().decode("latin1")
            continue
        if b":" not in line:
            continue
        key, _, value = line.partition(b":")
        last_key = key.strip().decode("latin1").lower()
        headers[last_key] = value.strip().decode("latin1")
    return headers


def _length(value) -> int:
    """A record's declared length; a negative one is malformed (it would
    step the cursor back into the record)."""
    length = int(value)
    if length < 0:
        raise ValueError(f"negative record length {length}")
    return length


def iter_warc_records(
    data: bytes, *, offset: int = 0
) -> Iterator[tuple[int, dict[str, str], bytes]]:
    """Iterate WARC records in a plain (decompressed) byte buffer.

    Yields ``(record_offset, warc_headers, block)``; ``record_offset`` is
    relative to the buffer start plus ``offset`` (callers pass the gzip
    member offset so offsets always address the on-disk file). Raises
    ``ValueError`` on a malformed record — the caller applies the
    2-consecutive-failure policy.
    """
    return _warc_records(_Window(data), offset)


def _warc_records(
    w: _Window, offset: int
) -> Iterator[tuple[int, dict[str, str], bytes]]:
    pos = 0
    while True:
        # tolerate inter-record CRLF padding (records are terminated by
        # two CRLFs that are not counted in Content-Length)
        while (c := w.byte(pos)) is not None and c in _CRLF_SET:
            pos += 1
        if c is None:
            return
        rec_start = pos
        if not _WARC_VERSION_RE.match(w.get(pos, pos + 16)):
            raise ValueError(f"no WARC version line at offset {offset + pos}")
        hdr_end, alt = w.find(pos, b"\r\n\r\n", b"\n\n")
        sep = 4
        if hdr_end == -1 or (alt != -1 and alt < hdr_end):
            hdr_end, sep = alt, 2
        if hdr_end == -1:
            raise ValueError(f"unterminated WARC header at offset {offset + pos}")
        headers = _parse_header_lines(w.get(pos, hdr_end))
        try:
            length = _length(headers["content-length"])
        except (KeyError, ValueError) as exc:
            raise ValueError(
                f"bad/missing Content-Length at offset {offset + pos}"
            ) from exc
        body_start = hdr_end + sep
        if not w.fill(body_start + length):
            raise ValueError(f"truncated WARC block at offset {offset + pos}")
        yield offset + rec_start, headers, w.get(body_start, body_start + length)
        pos = body_start + length
        w.release(pos)


_ARC_DATE_RE = re.compile(rb"^\d{14}$")


def _parse_arc_header_line(line: bytes) -> tuple[str, str, str, int]:
    """Parse an ARC v1/v2 record header line.

    v1: ``url ip date content-type length``; v2 inserts result-code,
    checksum, location, offset and filename before the length. URL is
    always first, date third, content-type fourth, length last
    (the published ARC file-format spec)."""
    parts = line.split(b" ")
    if len(parts) < 5 or not _ARC_DATE_RE.match(parts[2]):
        raise ValueError(f"not an ARC header line: {line[:80]!r}")
    url = parts[0].decode("latin1")
    date14 = parts[2].decode("ascii")
    mime = parts[3].decode("latin1")
    return url, date14, mime, _length(parts[-1])


def _arc_records(
    w: _Window, offset: int
) -> Iterator[tuple[int, dict[str, str], bytes]]:
    """ARC records in the shape of :func:`_warc_records`: the header line
    maps onto pseudo-WARC headers (the ``arc`` key marks the origin), and
    the ``filedesc://`` version record is yielded too (the protocol filter
    drops it downstream, as the reference does)."""
    pos = 0
    while True:
        while (c := w.byte(pos)) is not None and c in _CRLF_SET:
            pos += 1
        if c is None:
            return
        rec_start = pos
        (eol,) = w.find(pos, b"\n")
        if eol == -1:
            raise ValueError(f"unterminated ARC header line at offset {offset + pos}")
        url, date14, mime, length = _parse_arc_header_line(w.get(pos, eol).rstrip(b"\r"))
        body_start = eol + 1
        if not w.fill(body_start + length):
            raise ValueError(f"truncated ARC block at offset {offset + pos}")
        headers = {
            "arc": "1",
            "warc-target-uri": url,
            "warc-date": date14,
            "content-type": mime,
            "content-length": str(length),
        }
        yield offset + rec_start, headers, w.get(body_start, body_start + length)
        pos = body_start + length
        w.release(pos)


_HTTP_STATUS_RE = re.compile(rb"^HTTP/\S+[ \t]+(\d{3})")


def _parse_http_block(block: bytes) -> tuple[int | None, dict[str, str], bytes]:
    """Split an ``application/http`` block into (status, headers, payload).

    Mirrors WARCIndexer.java:672-683: the status line must start with
    ``HTTP``; otherwise no status and the whole block is the payload."""
    m = _HTTP_STATUS_RE.match(block)
    if not m:
        return None, {}, block
    hdr_end = block.find(b"\r\n\r\n")
    sep = 4
    alt = block.find(b"\n\n")
    if hdr_end == -1 or (alt != -1 and alt < hdr_end):
        hdr_end, sep = alt, 2
    if hdr_end == -1:
        # headers never terminated — status line only, empty payload
        return int(m.group(1)), {}, b""
    first_eol = block.find(b"\n")
    headers = _parse_header_lines(block[first_eol + 1 : hdr_end])
    return int(m.group(1)), headers, block[hdr_end + sep :]


def _iso_to_ts14(value: str) -> str:
    """``2008-04-30T20:48:25Z`` / ``20080430204825`` -> 14 digits."""
    digits = re.sub(r"[^0-9]", "", value)
    return digits[:14]


def _strip_digest_prefix(value: str | None) -> str | None:
    if not value:
        return None
    return value.split(":", 1)[1] if ":" in value else value


def _sanitise_header_value(value: str | None) -> str | None:
    """``<http://x>`` -> ``http://x`` (Normalisation.java:58-71
    sanitiseWARCHeaderValue — some writers angle-bracket WARC-Target-URI)."""
    if value and value.startswith("<") and value.endswith(">"):
        return value[1:-1]
    return value


def warc_record_to_page(
    rec_offset: int, headers: dict[str, str], block: bytes, source_file: str
) -> dict:
    """Project one parsed archive record onto a PAGES_SCHEMA row."""
    is_arc = "arc" in headers
    record_type = "response" if is_arc else headers.get("warc-type", "")
    url = _sanitise_header_value(headers.get("warc-target-uri"))
    status: int | None = None
    mime_served: str | None = None
    location = None
    content_encoding = None
    transfer_encoding = None
    payload = block
    is_http_url = bool(url) and url.startswith("http")
    if record_type == "resource":
        # WARCIndexer.java:660-663: resources get a synthetic 200
        if is_http_url:
            status = 200
        mime_served = headers.get("content-type")
    elif record_type in ("response", "revisit") and is_http_url:
        status, http_headers, payload = _parse_http_block(block)
        mime_served = http_headers.get("content-type")
        location = http_headers.get("location")
        content_encoding = http_headers.get("content-encoding")
        transfer_encoding = http_headers.get("transfer-encoding")
    elif record_type == "warcinfo":
        mime_served = headers.get("content-type")
    return {
        "url": url,
        "timestamp14": _iso_to_ts14(headers.get("warc-date", "")),
        "record_type": record_type,
        "status": status,
        "mime_served": mime_served or "",
        "location": location or "",
        "content_encoding": content_encoding or "",
        "transfer_encoding": transfer_encoding or "",
        "payload": payload,
        "payload_sha1": _strip_digest_prefix(headers.get("warc-payload-digest")) or "",
        "source_file": source_file,
        "source_offset": rec_offset,
    }


class _Unread:
    """A binary stream with its first bytes (read to sniff the format)
    handed back by the first ``read``."""

    def __init__(self, head: bytes, stream):
        self._head, self._stream = head, stream

    def read(self, n: int) -> bytes:
        if self._head:
            head, self._head = self._head, b""
            return head
        return self._stream.read(n)


def _safe_members(source) -> Iterator[tuple[int, bytes]]:
    """``split_gzip_members`` that treats a corrupt member as EOF: once a
    member fails to decompress, the following byte ranges are not
    addressable as records (the next member boundary is unknown), so the
    file ends there — everything parsed before it survives, mirroring
    the truncated-final-record behaviour."""
    it = split_gzip_members(source)  # the module global: tracing patches it
    while True:
        try:
            item = next(it)
        except StopIteration:
            return
        except (ValueError, zlib.error):
            return
        yield item


def iter_archive_rows(source, source_file: str) -> Iterator[dict]:
    """PAGES rows of one (W)ARC file, in file order, one record at a time
    from bytes or a binary stream (see :func:`iter_archive_records`)."""
    for rec_offset, headers, block in iter_archive_records(source):
        yield warc_record_to_page(rec_offset, headers, block, source_file)


def iter_archive_records(source) -> Iterator[tuple[int, dict[str, str], bytes]]:
    """The member iterator every archive read goes through: raw
    ``(offset, headers, block)`` records of one (possibly gzip) (W)ARC
    file, from bytes or a binary stream, applying the
    2-consecutive-failure skip rule per segment (gzip member, or the
    whole plain file). Holds one member (plain: one record) plus
    ``READ_CHUNK`` of input at a time."""
    if isinstance(source, (bytes, bytearray, memoryview)):
        head = bytes(source[:2])
    else:
        head = source.read(2)
        source = _Unread(head, source)
    if head == GZIP_MAGIC:
        segments = (
            (off, _Window(member)) for off, member in _safe_members(source)
        )
    else:
        segments = [(0, _Window(source))]
    is_arc: bool | None = None
    last_failed = -1
    index = 0
    for seg_offset, seg in segments:
        if is_arc is None:
            is_arc = seg.get(0, 11).startswith(b"filedesc://")
        it = (_arc_records if is_arc else _warc_records)(seg, seg_offset)
        while True:
            index += 1
            try:
                item = next(it, None)
            except ValueError:
                # WARCIndexerCommand.java:211-236: skip one bad record,
                # abandon the file on two consecutive failures
                if last_failed != index - 1:
                    last_failed = index
                    break  # resync at the next gzip member / segment
                return
            if item is None:
                break
            yield item


def parse_archive_bytes(data: bytes, source_file: str) -> list[dict]:
    """Parse one (W)ARC file's bytes into PAGES rows (file order)."""
    return list(iter_archive_rows(data, source_file))


def record_stats_items(headers: dict[str, str]) -> list[tuple[str, str]]:
    """One archive record's raw-stats (category, item) emissions — the
    WARCStatsTool mapper semantics
    (warc-hadoop-recordreaders/.../warcstats/WARCStatsMapper.java:57-104),
    including its quirks:

    * ``WARC-RECORD-TYPE`` concatenates the raw WARC-Type header value;
      ARC records have none, which Java string-concats as ``"null"``;
    * the host row fires when the scheme is a SUBSTRING of ``"https"``
      (the mapper tests ``"https".contains(scheme)``, not membership in
      {http, https});
    * a record with no URL at all counts ``NULL-URI-TOTAL`` instead.
    """
    from urllib.parse import urlsplit

    is_arc = "arc" in headers
    wt = None if is_arc else headers.get("warc-type")
    items = [
        ("record-total", "RECORD-TOTAL"),
        ("record-type", "WARC-RECORD-TYPE\t" + (wt if wt is not None else "null")),
        ("record-type", "RECORD-TYPE-ARC" if is_arc else "RECORD-TYPE-WARC"),
        ("content-types", "CONTENT-TYPE\t" + (headers.get("content-type") or "null")),
    ]
    date = headers.get("warc-date")
    if date is not None and len(date) > 4:
        items.append(("content-types", "YEAR\t" + date[:4]))
    else:
        items.append(("malformed-date", "MALFORMED-DATE"))
    url = headers.get("warc-target-uri")
    if url is not None:
        try:
            parts = urlsplit(url)
            scheme, authority = parts.scheme, parts.netloc
        except ValueError:
            scheme, authority = "", ""
        if scheme and scheme in "https":
            items.append(("record-hosts", "HOSTS\t" + authority))
    else:
        items.append(("record-hosts", "NULL-URI-TOTAL"))
    return items


def parse_archive_stats(source, source_file: str) -> Counter:
    """Header-level raw-stats census of one (W)ARC file, bytes or a
    binary stream: emissions per (category, item), counted as the
    records stream, so memory grows with the distinct items, not the
    record count (payloads are never inspected — this is the cheap
    whole-collection census)."""
    counts: Counter = Counter()
    for _, headers, _ in iter_archive_records(source):
        counts.update(record_stats_items(headers))
    return counts


def _basename(path: str) -> str:
    return path.rsplit("/", 1)[-1]


def open_archive(path: str):
    """A raw binary stream over one archive file (local path or URI).
    ``pyarrow.fs`` with compression disabled, because
    ``read_binary_files`` transparently gunzips by extension — the RAW
    bytes keep compressed member offsets CDX-addressable."""
    from pyarrow import fs as pafs

    filesystem, fs_path = pafs.FileSystem.from_uri(path)
    return filesystem.open_input_stream(fs_path, compression=None)


class _ArchiveToPages:
    """map_batches callable: path rows -> PAGES_SCHEMA tables, streamed
    record by record and yielded whenever the rows reach Ray Data's
    ``target_max_block_size``, so a task never holds a whole file."""

    def __call__(self, batch: pa.Table) -> Iterator[pa.Table]:
        from ray.data import DataContext

        cap = DataContext.get_current().target_max_block_size
        rows: list[dict] = []
        size = tables = 0
        for path in batch["path"].to_pylist():
            with open_archive(path) as fh:
                for row in iter_archive_rows(fh, _basename(path)):
                    rows.append(row)
                    size += sum(
                        len(v) for v in row.values() if isinstance(v, (str, bytes))
                    )
                    if cap is not None and size >= cap:
                        yield pa.Table.from_pylist(rows, schema=PAGES_SCHEMA)
                        rows, size, tables = [], 0, tables + 1
        if rows or not tables:
            yield pa.Table.from_pylist(rows, schema=PAGES_SCHEMA)


def read_archive_pages(paths: list[str]) -> "ray.data.Dataset":  # noqa: F821
    """Read (W)ARC/(W)ARC.gz files into a PAGES_SCHEMA Dataset.

    One file per input block (= per task), matching the reference's
    one-file-per-split contract (ArchiveFileRecordReader.java:140-160);
    gzip members are not splittable so the file is the parallel unit.
    Only paths ride the initial Dataset — each task streams its own file
    one record at a time (:func:`iter_archive_records`) and emits PAGES
    tables of at most ``DataContext.target_max_block_size`` (one table
    for a file below it), so file bytes never pass through the driver
    and a task's memory does not grow with the file."""
    import os

    import ray

    items = [{"path": os.path.abspath(p) if "://" not in p else p} for p in paths]
    ds = ray.data.from_items(items, override_num_blocks=len(items))
    return ds.map_batches(
        _ArchiveToPages(), batch_format="pyarrow", batch_size=None
    )


def _ts14_to_iso(ts14: str | None) -> str:
    """14-digit wayback instant -> WARC-Date (ISO-8601 Z)."""
    if ts14 and len(ts14) == 14 and ts14.isdigit():
        return (
            f"{ts14[0:4]}-{ts14[4:6]}-{ts14[6:8]}"
            f"T{ts14[8:10]}:{ts14[10:12]}:{ts14[12:14]}Z"
        )
    return "1970-01-01T00:00:00Z"


def build_conversion_member(url: str, ts14: str | None, text: str) -> bytes:
    """ONE deterministic gzip member holding ONE WARC/1.0 ``conversion``
    record (ISO-28500 §6.8) — the WET serialisation unit: ``.wet.gz``
    files are multi-member gzip, one member per record, exactly the
    layout :func:`split_gzip_members` reads back. Deterministic bytes:
    record id is a urn:sha1 of (uri, date) — not a uuid — and the gzip
    header carries mtime=0/no name, so a retried task re-writes
    identical bytes."""
    import gzip
    import hashlib
    import io

    from ..functions.hashing import sha1_b32

    body = text.encode("utf-8")
    iso = _ts14_to_iso(ts14)
    rid = hashlib.sha1(f"{url} {iso}".encode("utf-8")).hexdigest()
    headers = (
        "WARC/1.0\r\n"
        "WARC-Type: conversion\r\n"
        f"WARC-Target-URI: {url}\r\n"
        f"WARC-Date: {iso}\r\n"
        f"WARC-Record-ID: <urn:sha1:{rid}>\r\n"
        f"WARC-Block-Digest: {sha1_b32(body)}\r\n"
        "Content-Type: text/plain\r\n"
        f"Content-Length: {len(body)}\r\n"
        "\r\n"
    ).encode("utf-8")
    raw = headers + body + b"\r\n\r\n"
    buf = io.BytesIO()
    with gzip.GzipFile(fileobj=buf, mode="wb", mtime=0) as gz:
        gz.write(raw)
    return buf.getvalue()


def write_wet(
    ds,
    path: str,
    url_col: str = "url",
    ts_col: str = "wayback_date",
    text_col: str = "content",
) -> int:
    """WET sink: serialise a documents Dataset's extracted text as
    ``part-<digest>.warc.wet.gz`` files (multi-member gzip of
    ``conversion`` records), one file per block — the write-side
    complement of the binary reader (S1/S4 family; the reference ships
    text through Solr docs instead, ``WARCIndexer.java:471-490``).
    Rows without text are skipped. Deterministic content-hash names +
    tmp/rename, so retried tasks never duplicate a block. Returns the
    record count written."""
    import hashlib
    import os
    import uuid

    os.makedirs(path, exist_ok=True)

    def dump(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        keep = pc.and_(
            pc.is_valid(batch[text_col]),
            pc.greater(pc.utf8_length(pc.fill_null(batch[text_col], "")), 0),
        )
        batch = batch.filter(keep)
        members = [
            build_conversion_member(u, t, x)
            for u, t, x in zip(
                batch[url_col].to_pylist(),
                batch[ts_col].to_pylist(),
                batch[text_col].to_pylist(),
            )
        ]
        blob = b"".join(members)
        if members:
            digest = hashlib.md5(blob).hexdigest()[:16]
            name = os.path.join(path, f"part-{digest}.warc.wet.gz")
            tmp = name + f".tmp-{uuid.uuid4().hex}"
            with open(tmp, "wb") as fh:
                fh.write(blob)
            os.replace(tmp, name)
        return pa.table({"n": pa.array([len(members)], pa.int64())})

    counts = ds.map_batches(dump, batch_format="pyarrow", batch_size=None)
    return int(counts.sum("n") or 0)


_REASONS = {
    200: "OK", 301: "Moved Permanently", 302: "Found", 304: "Not Modified",
    404: "Not Found", 403: "Forbidden", 500: "Internal Server Error",
    503: "Service Unavailable",
}


def build_response_member(
    url: str,
    ts14: str | None,
    status: int,
    mime: str | None,
    payload: bytes,
    location: str | None = None,
) -> bytes:
    """ONE deterministic gzip member holding ONE WARC/1.0 ``response``
    record (ISO-28500 §6.3: WARC headers + an ``application/http``
    block re-synthesised from the row's status/mime/payload) — the
    write-side unit of :func:`write_warc`, exactly the layout
    :func:`split_gzip_members` + :func:`iter_warc_records` read back.
    Deterministic bytes: urn:sha1 record id over (uri, date), gzip
    mtime=0 — a retried task re-writes identical bytes."""
    import gzip
    import hashlib
    import io

    from ..functions.hashing import sha1_b32

    # ARC-style partial/overlong instants: >=8 digits zero-pad/truncate
    # to exactly 14 — WARC-Date needs seconds (shorter/non-digit falls
    # back to the epoch inside _ts14_to_iso)
    if ts14 and len(ts14) >= 8 and ts14.isdigit():
        ts14 = ts14[:14].ljust(14, "0")
    iso = _ts14_to_iso(ts14)
    rid = hashlib.sha1(f"{url} {iso}".encode("utf-8")).hexdigest()
    if url.startswith("http"):
        reason = _REASONS.get(int(status), "")
        body = (
            f"HTTP/1.1 {int(status)} {reason}\r\n"
            + (f"Content-Type: {mime}\r\n" if mime else "")
            + (f"Location: {location}\r\n" if location else "")
            + f"Content-Length: {len(payload)}\r\n\r\n"
        ).encode("utf-8") + payload
        wtype, ctype = "response", "application/http; msgtype=response"
    else:
        # non-http(s) capture: the indexer's rule never parses an HTTP
        # block for these (WARCIndexer.java:660-663 resource path), so
        # serialise the raw body as a ``resource`` record
        body = payload
        wtype, ctype = "resource", (mime or "application/octet-stream")
    headers = (
        "WARC/1.0\r\n"
        f"WARC-Type: {wtype}\r\n"
        f"WARC-Target-URI: {url}\r\n"
        f"WARC-Date: {iso}\r\n"
        f"WARC-Record-ID: <urn:sha1:{rid}>\r\n"
        f"WARC-Payload-Digest: {sha1_b32(payload)}\r\n"
        f"Content-Type: {ctype}\r\n"
        f"Content-Length: {len(body)}\r\n"
        "\r\n"
    ).encode("utf-8")
    raw = headers + body + b"\r\n\r\n"
    buf = io.BytesIO()
    with gzip.GzipFile(fileobj=buf, mode="wb", mtime=0) as gz:
        gz.write(raw)
    return buf.getvalue()


def build_revisit_member(
    url: str,
    ts14: str | None,
    status: int,
    mime: str | None,
    payload_sha1: str,
    payload_len: int,
    location: str | None = None,
) -> bytes:
    """ONE deterministic gzip member holding ONE WARC/1.0 ``revisit``
    record (ISO-28500 §6.7.2, identical-payload-digest profile): the
    HTTP response HEADERS are retained, the payload is NOT — the record
    links to the stored copy solely by ``WARC-Payload-Digest``, which is
    exactly the join key the reference's reduplication plane resolves
    revisits with (WARCIndexer.java revisit path / MDX reduplicate,
    M13/J3). Same determinism contract as
    :func:`build_response_member` (urn:sha1 record id, gzip mtime=0)."""
    import gzip
    import hashlib
    import io

    if ts14 and len(ts14) >= 8 and ts14.isdigit():
        ts14 = ts14[:14].ljust(14, "0")
    iso = _ts14_to_iso(ts14)
    rid = hashlib.sha1(f"revisit:{url} {iso}".encode("utf-8")).hexdigest()
    reason = _REASONS.get(int(status), "")
    body = (
        f"HTTP/1.1 {int(status)} {reason}\r\n"
        + (f"Content-Type: {mime}\r\n" if mime else "")
        + (f"Location: {location}\r\n" if location else "")
        + f"Content-Length: {int(payload_len)}\r\n\r\n"
    ).encode("utf-8")
    headers = (
        "WARC/1.0\r\n"
        "WARC-Type: revisit\r\n"
        "WARC-Profile: http://netpreservation.org/warc/1.0/revisit/"
        "identical-payload-digest\r\n"
        f"WARC-Target-URI: {url}\r\n"
        f"WARC-Date: {iso}\r\n"
        f"WARC-Record-ID: <urn:sha1:{rid}>\r\n"
        f"WARC-Payload-Digest: {payload_sha1}\r\n"
        "Content-Type: application/http; msgtype=response\r\n"
        f"Content-Length: {len(body)}\r\n"
        "\r\n"
    ).encode("utf-8")
    raw = headers + body + b"\r\n\r\n"
    buf = io.BytesIO()
    with gzip.GzipFile(fileobj=buf, mode="wb", mtime=0) as gz:
        gz.write(raw)
    return buf.getvalue()


def write_warc(
    ds,
    path: str,
    url_col: str = "url",
    ts_col: str = "timestamp14",
    status_col: str = "status",
    mime_col: str = "mime_served",
    payload_col: str = "payload",
    location_col: str | None = "location",
) -> int:
    """WARC sink: serialise a PAGES-shaped Dataset as
    ``part-<digest>.warc.gz`` files (multi-member gzip of ``response``
    records), one file per block — closes the loop with the from-scratch
    binary reader (a crawler that can WRITE the archives it indexes;
    the reference consumes WARCs that Heritrix wrote). Deterministic
    content-hash names + tmp/rename, so retried tasks never duplicate a
    block. Returns the record count written."""
    import hashlib
    import os
    import uuid

    os.makedirs(path, exist_ok=True)

    def dump(batch: "pa.Table") -> "pa.Table":
        cols = [url_col, ts_col, status_col, mime_col, payload_col]
        if location_col and location_col in batch.column_names:
            cols.append(location_col)
        members = []
        for r in batch.select(cols).to_pylist():
            members.append(
                build_response_member(
                    r[url_col],
                    r[ts_col],
                    int(r[status_col] or 0),
                    r[mime_col],
                    r[payload_col] or b"",
                    r.get(location_col) if location_col else None,
                )
            )
        blob = b"".join(members)
        if members:
            digest = hashlib.md5(blob).hexdigest()[:16]
            name = os.path.join(path, f"part-{digest}.warc.gz")
            tmp = name + f".tmp-{uuid.uuid4().hex}"
            with open(tmp, "wb") as fh:
                fh.write(blob)
            os.replace(tmp, name)
        return pa.table({"n": pa.array([len(members)], pa.int64())})

    import pyarrow.compute as pc  # noqa: F401  (parity with write_wet)

    parts = ds.map_batches(dump, batch_format="pyarrow").to_pandas()
    return int(parts["n"].sum()) if len(parts) else 0
