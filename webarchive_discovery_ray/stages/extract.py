"""The extraction stage: pages -> documents (interleaved span records).

Ray-Data-native decomposition of the reference's per-record map
``WARCIndexer.extract()``
(``warc-indexer/src/main/java/uk/bl/wa/indexer/WARCIndexer.java:299-469``):

* cheap filters (M1-M5) run **vectorised** over the Arrow batch with
  ``pyarrow.compute`` before any per-record work;
* the per-record analyser chain (header projection M8-M12, payload analysis
  M16-M28, HTML features M21-M22, content-type reconciliation M20, revisit
  short-circuit M13) runs as a Python loop over the surviving rows — this is
  the hot actor-pool stage, equivalent to the reference's per-record Tika
  chain. ``ExtractStage.__init__`` only stores the config; the module's
  regexes are compiled at import;
* derivations whose inputs repeat across a batch's records are computed
  once per distinct input per batch, in one :class:`BatchMemo` that
  ``extract_batch`` makes and drops with the batch: host -> canonical host,
  host SURTs, domain and public suffix (the record host and every link
  host); URL -> host; resolved link -> canonical link; and (sniffed type,
  served type, empty payload) -> reconciled content type. Everything read
  from one record's own bytes — URL projections, timestamps, hashes, MIME
  sniffing, HTML tokenizing and features, and the field policy — stays
  per record.

Usage::

    ds.map_batches(ExtractStage(cfg), batch_format="pyarrow",
                   batch_size=256, concurrency=8)

Span-assembly rules are pinned in SPAN_SPEC below; the sequential oracle
(``oracle/extract_oracle.py``) implements the same spec independently.
"""

from __future__ import annotations

import re

import pyarrow as pa
import pyarrow.compute as pc

from ..config import IndexConfig
from ..functions.fieldpolicy import DEFAULT_POLICY, DERIVED_IDENTITY_FIELDS
from ..functions.hashing import md5_b64, sha1_b32
from ..functions.htmlscan import parse_srcset, tokenize_html
from ..functions.mime import ContentTypeResult, detect_mime, reconcile_content_type
from ..functions.payload import maybe_dechunk, maybe_decompress
from ..functions.normalisation import (
    canonicalise_host,
    canonicalise_url,
    resolve_relative,
    sanitise_warc_header_value,
)
from ..functions.suffix import (
    MALFORMED_HOST,
    all_levels,
    extract_host,
    extract_private_suffix_from_host,
    extract_public_suffix_from_host,
)
from ..functions.surt import host_to_surt, surt_of_canonical
from ..functions.text import space_trim, truncate_text
from ..functions.timestamps import (
    extract_year,
    format_iso,
    parse_wayback_date,
    strip_non_digits,
    to_wayback14,
)
from ..functions.urls import (
    parse_extension,
    parse_resource_name,
    url_path,
    url_type,
)
from ..functions.xmlns import is_xml_type as _is_xml_type, xml_root_namespace
from ..schema import DOCUMENTS_SCHEMA

__all__ = ["BatchMemo", "ExtractStage", "extract_batch"]

SPAN_SPEC = """Pinned span-assembly spec (shared with the oracle):
kind=title : first <title> with non-empty trimmed text; offset = tag offset.
kind=text  : each <p> whose text (to </p> / next <p> / </body>) trims
             non-empty; offset = tag offset. text/plain payloads emit one
             text span at offset 0. js/css emit no text spans.
kind=link  : each a[href], resolved + canonicalised; offset = tag offset.
kind=image : img[src], img[srcset] (each candidate), picture>source[srcset],
             body/table/td[background]; resolved + canonicalised.
kind=media : non-HTML/text payloads emit one span with media_ref =
             sha1:<base32 digest>; offset = 0.
Spans are emitted in document order (stable sort by offset); duplicates are
kept in spans but deduped (first occurrence) in the links/links_images
fields; host-derived link fields are sorted unique."""

_MEDIA_NORMS = {"image", "audio", "video", "pdf"}


class _HtmlFeatures:
    __slots__ = (
        "title", "first_paragraph", "paragraphs", "links", "images",
        "license_urls", "elements", "pub_date", "text",
    )

    def __init__(self) -> None:
        self.title: tuple[int, str] | None = None
        self.paragraphs: list[tuple[int, str]] = []
        self.links: list[tuple[int, str]] = []
        self.images: list[tuple[int, str]] = []
        self.license_urls: list[str] = []
        self.elements: set[str] = set()
        self.pub_date: str | None = None
        self.text: str = ""


class BatchMemo:
    """The derivations that repeat across the records of one batch, each
    computed once per distinct input and kept until the batch is done.

    One memo serves one batch (``extract_batch``) or one fetch call (the
    crawl's ``FetchExtractStage``) and is dropped with it: workers outlive
    jobs, so a process-wide cache would serve a job from the one before."""

    __slots__ = ("_hosts", "_url_hosts", "_canonical", "_content_types")

    def __init__(self) -> None:
        self._hosts: dict[str, tuple[str, tuple[str, ...], str | None, str | None]] = {}
        self._url_hosts: dict[str, str] = {}
        self._canonical: dict[str, str] = {}
        self._content_types: dict[tuple, ContentTypeResult] = {}

    def host_fields(self, host: str) -> tuple[str, tuple[str, ...], str | None, str | None]:
        """Raw host -> (canonical host, host SURTs root-first, domain,
        public suffix); ``MALFORMED_HOST`` is kept as it is."""
        got = self._hosts.get(host)
        if got is None:
            canon = host if host == MALFORMED_HOST else canonicalise_host(host)
            got = self._hosts[host] = (
                canon,
                tuple(host_to_surt(level) for level in all_levels(canon)),
                extract_private_suffix_from_host(canon),
                extract_public_suffix_from_host(canon),
            )
        return got

    def host_of(self, url: str) -> str:
        """``extract_host(url)``."""
        got = self._url_hosts.get(url)
        if got is None:
            got = self._url_hosts[url] = extract_host(url)
        return got

    def canonical(self, url: str) -> str:
        """``canonicalise_url(url)``; raises as it does."""
        got = self._canonical.get(url)
        if got is None:
            got = self._canonical[url] = canonicalise_url(url)
        return got

    def content_type(self, tika: str | None, served: str | None, length: int) -> ContentTypeResult:
        """The non-revisit ``reconcile_content_type`` of a payload of
        ``length`` bytes, which it reads only as ``length == 0`` (the
        frozen result is shared)."""
        key = (tika, served, length == 0)
        got = self._content_types.get(key)
        if got is None:
            got = self._content_types[key] = reconcile_content_type(
                tika, served=served, warc_mimetype=served, content_length=length, revisit=False
            )
        return got


def _resolve(base: str, href: str, normalise: bool, memo: BatchMemo) -> str | None:
    try:
        resolved = resolve_relative(base, href, False)
        return memo.canonical(resolved) if normalise else resolved
    except Exception:
        return None


def parse_html_features(
    html: str, base_url: str, cfg: IndexConfig, memo: BatchMemo | None = None
) -> _HtmlFeatures:
    """Single-pass feature extraction over the token stream (M21-M22);
    ``memo`` as in :func:`extract_record`."""
    if memo is None:
        memo = BatchMemo()
    f = _HtmlFeatures()
    tokens = tokenize_html(html)
    in_title_at = -1
    title_buf: list[str] = []
    in_p_at = -1
    p_buf: list[str] = []
    picture_depth = 0
    body_seen_at = -1
    text_buf: list[str] = []

    def close_paragraph() -> None:
        nonlocal in_p_at
        if in_p_at >= 0:
            txt = space_trim("".join(p_buf))
            if txt:
                f.paragraphs.append((in_p_at, txt))
            in_p_at = -1
            p_buf.clear()

    for tok in tokens:
        if tok.kind == "text":
            if in_title_at >= 0:
                title_buf.append(tok.text)
            if in_p_at >= 0:
                p_buf.append(tok.text)
            if body_seen_at >= 0:
                text_buf.append(tok.text)
            continue
        name = tok.name
        if tok.kind == "start":
            # tokenize_html's _TAG guarantees name matches
            # [a-zA-Z][a-zA-Z0-9]* (the fullmatch this used to re-check
            # was provably always true on this token stream)
            f.elements.add(name[:100])
            if name == "body":
                body_seen_at = tok.offset
            elif name == "title" and f.title is None and in_title_at < 0:
                # a nested <title> start inside an open title must NOT
                # re-anchor the span offset (the oracle anchors at the
                # first opening tag; fuzz-found parity case)
                in_title_at = tok.offset
            elif name == "p":
                close_paragraph()
                in_p_at = tok.offset
            elif name == "picture":
                picture_depth += 1
            elif name == "a":
                href = tok.attrs.get("href")
                if href is not None:
                    resolved = _resolve(base_url, href, cfg.normalise_links, memo)
                    if resolved is not None:
                        f.links.append((tok.offset, resolved))
                        if tok.attrs.get("rel", "").lower() == "license":
                            f.license_urls.append(href)
            elif name == "img":
                src = tok.attrs.get("src")
                if src is not None:
                    resolved = _resolve(base_url, src, cfg.normalise_links, memo)
                    if resolved is not None:
                        f.images.append((tok.offset, resolved))
                srcset = tok.attrs.get("srcset")
                if srcset:
                    for cand in parse_srcset(srcset):
                        resolved = _resolve(base_url, cand, cfg.normalise_links, memo)
                        if resolved is not None:
                            f.images.append((tok.offset, resolved))
            elif name == "source" and picture_depth > 0:
                srcset = tok.attrs.get("srcset")
                if srcset:
                    for cand in parse_srcset(srcset):
                        resolved = _resolve(base_url, cand, cfg.normalise_links, memo)
                        if resolved is not None:
                            f.images.append((tok.offset, resolved))
            if name in ("body", "table", "td") and tok.attrs.get("background"):
                resolved = _resolve(base_url, tok.attrs["background"], cfg.normalise_links, memo)
                if resolved is not None:
                    f.images.append((tok.offset, resolved))
            if name == "link":
                rel = tok.attrs.get("rel")
                if rel is not None:
                    f.elements.add("link/@rel=" + rel.lower())
                if rel is not None and rel.lower() == "license" and tok.attrs.get("href"):
                    f.license_urls.append(tok.attrs["href"])
            elif name == "meta":
                mname = tok.attrs.get("name")
                if mname is not None:
                    f.elements.add("meta/@name=" + mname.lower())
                if mname == "OriginalPublicationDate" or (
                    mname is not None and mname.lower() == "originalpublicationdate"
                ):
                    f.pub_date = tok.attrs.get("content", "")
            elif name == "area" and tok.attrs.get("rel", "").lower() == "license":
                if tok.attrs.get("href"):
                    f.license_urls.append(tok.attrs["href"])
        else:  # end tag
            if name == "title" and in_title_at >= 0:
                txt = space_trim("".join(title_buf))
                if txt:
                    f.title = (in_title_at, txt)
                in_title_at = -1
                title_buf.clear()
            elif name == "p":
                close_paragraph()
            elif name == "body":
                close_paragraph()
            elif name == "picture" and picture_depth > 0:
                picture_depth -= 1
    close_paragraph()
    if body_seen_at < 0:
        text_buf = [t.text for t in tokens if t.kind == "text"]
    f.text = truncate_text(space_trim(" ".join(text_buf)), cfg.max_text_length)
    if f.paragraphs:
        f.first_paragraph = f.paragraphs[0][1]
    else:
        f.first_paragraph = None
    return f


def _first_dedupe(values: list[str]) -> list[str]:
    seen: set[str] = set()
    out = []
    for v in values:
        if v not in seen:
            seen.add(v)
            out.append(v)
    return out


def _link_host_fields(
    urls: list[str], memo: BatchMemo
) -> tuple[list[str], list[str], list[str], list[str]]:
    hosts: set[str] = set()
    domains: set[str] = set()
    suffixes: set[str] = set()
    surts: set[str] = set()
    for u in urls:
        raw = memo.host_of(u)
        if raw == MALFORMED_HOST:
            # HTMLAnalyser.java:147-149: malformed hosts are skipped
            # entirely — no host, domain, suffix or SURT entry
            continue
        host, host_surts, d, s = memo.host_fields(raw)
        hosts.add(host)
        if d:
            domains.add(d)
        if s:
            suffixes.add(s)
        surts.update(host_surts)
    return sorted(hosts), sorted(domains), sorted(suffixes), sorted(surts)


def extract_record(rec: dict, cfg: IndexConfig, memo: BatchMemo | None = None) -> dict | None:
    """Per-record extraction; None when a filter rejects the record.

    Mirrors ``WARCIndexer.extract()``'s chain order: record-type filter,
    URL sanitise + truncate, protocol filter, url_exclude, response filter,
    SURT exclusion, then projections + payload analysis. ``memo`` is the
    batch's :class:`BatchMemo` (a fresh one when None)."""
    if memo is None:
        memo = BatchMemo()
    if rec["record_type"] not in cfg.record_type_include:
        return None
    url = sanitise_warc_header_value(rec["url"]) or ""
    if len(url) > cfg.max_url_length:
        url = url[: cfg.max_url_length]
    if cfg.protocol_include and not any(url.startswith(p) for p in cfg.protocol_include):
        return None
    for exclude in cfg.url_exclude:
        if exclude and re.search(exclude, url):
            return None
    status = rec["status"]
    if cfg.response_include and not any(
        str(status).startswith(p) for p in cfg.response_include
    ):
        return None
    canonical = canonicalise_url(url)
    surt = surt_of_canonical(canonical)
    for prefix in cfg.surt_exclusions:
        if surt.startswith(prefix):
            return None

    wayback_digits = strip_non_digits(rec["timestamp14"])
    dt = parse_wayback_date(wayback_digits)
    parse_errors: list[str] = []
    if dt is None:
        parse_errors.append("when parsing timestamp")
    doc_id = wayback_digits + "/" + md5_b64(url)
    url_norm = canonical if cfg.add_normalised_url else None
    path = url_path(url)
    utype = url_type(path)
    resource_name = parse_resource_name(url)
    ext = parse_extension(resource_name)
    host, host_surts, domain, public_suffix = memo.host_fields(memo.host_of(url))
    crawl_date = format_iso(dt) if dt else None
    crawl_year = extract_year(rec["timestamp14"])
    wayback_date = to_wayback14(dt) if dt else None
    redirect_to_norm = None
    if rec.get("location"):
        redirect_to_norm = _resolve(url, rec["location"], True, memo)

    out = {
        "doc_id": doc_id,
        "spans": [],
        "url": url,
        "url_norm": url_norm,
        "surt": surt,
        "url_path": path,
        "url_type": utype,
        "resource_name": resource_name,
        "content_type_ext": ext,
        "host": host,
        "host_surt": list(host_surts),
        "domain": domain,
        "public_suffix": public_suffix,
        "crawl_date": crawl_date,
        "crawl_year": crawl_year,
        "wayback_date": wayback_date,
        "record_type": rec["record_type"],
        "status": status,
        "content_type_served": rec["mime_served"] or None,
        "content_type_tika": None,
        "content_type": None,
        "content_type_full": None,
        "content_type_norm": None,
        "solr_type": None,
        "content_type_version": None,
        "xml_root_ns": None,
        "content_ffb": None,
        "content_first_bytes": None,
        "hash": None,
        "hash_mismatch": False,
        "content_length": None,
        "redirect_to_norm": redirect_to_norm,
        "title": None,
        "first_paragraph": None,
        "elements_used": [],
        "links": [],
        "links_images": [],
        "links_hosts": [],
        "links_domains": [],
        "links_public_suffixes": [],
        "links_hosts_surts": [],
        "license_url": [],
        "pub_date": None,
        "content": None,
        "content_text_length": None,
        "parse_error": None,
        "plugin_fields": None,  # §2.10: populated only when plugins run
        "source_file": rec["source_file"],
        "source_offset": rec["source_offset"],
    }

    if rec["record_type"] == "revisit":
        # M13: revisit short-circuit — served type becomes content_type,
        # no content_length, digest carried from the header, no analysis.
        served = rec["mime_served"] or None
        out["content_type"] = served.split(";")[0] if served else None
        out["content_type_full"] = served
        out["hash"] = rec["payload_sha1"] or None
        out["parse_error"] = "; ".join(parse_errors) if parse_errors else None
        if cfg.apply_field_policy:
            apply_field_policy(out)
        return out

    raw: bytes = rec["payload"] or b""
    out["content_length"] = len(raw)
    # M14: dechunk before hashing (default hash stage is
    # after_dechunk_before_decompression, InputStreamUtils.java:54-76);
    # framing probed only when Transfer-Encoding hints chunked (:243-259)
    payload, _ = maybe_dechunk(raw, rec.get("transfer_encoding"))
    digest = sha1_b32(payload)
    out["hash"] = digest
    header_digest = rec.get("payload_sha1") or ""
    if header_digest and header_digest != digest:
        out["hash_mismatch"] = True
        parse_errors.append("Digest validation failed")
    # M15: decompress for analysis — a present Content-Encoding hint wins;
    # '' in the synthetic schema means header-absent -> None (auto-sniff)
    payload, _ = maybe_decompress(payload, rec.get("content_encoding") or None)
    if len(payload) >= 4:
        hexbytes = payload[: cfg.first_bytes_length].hex()
        out["content_ffb"] = hexbytes[:8]
        if cfg.extract_content_first_bytes:
            out["content_first_bytes"] = payload[: cfg.first_bytes_length].hex(" ")
    tika = detect_mime(payload[:512], name_hint=resource_name)
    out["content_type_tika"] = tika
    ct = memo.content_type(tika, rec["mime_served"] or None, len(payload))
    out["content_type"] = ct.content_type
    out["content_type_full"] = ct.content_type_full
    out["content_type_norm"] = ct.content_type_norm
    out["solr_type"] = ct.solr_type
    out["content_type_version"] = ct.content_type_version

    spans: list[dict] = []
    norm = ct.content_type_norm
    if norm == "html" and payload:
        html = payload.decode("utf-8", errors="replace")
        f = parse_html_features(html, url, cfg, memo)
        if f.title:
            out["title"] = f.title[1]
            spans.append({"kind": "title", "text": f.title[1], "media_ref": "", "offset": f.title[0]})
        for off, txt in f.paragraphs:
            spans.append({"kind": "text", "text": txt, "media_ref": "", "offset": off})
        for off, link in f.links:
            spans.append({"kind": "link", "text": "", "media_ref": link, "offset": off})
        for off, img in f.images:
            spans.append({"kind": "image", "text": "", "media_ref": img, "offset": off})
        spans.sort(key=lambda s: s["offset"])
        out["first_paragraph"] = f.first_paragraph
        out["elements_used"] = sorted(f.elements)
        out["links"] = _first_dedupe([u for _, u in f.links])
        out["links_images"] = _first_dedupe([u for _, u in f.images])
        hosts_, domains_, suffixes_, surts_ = _link_host_fields(out["links"], memo)
        out["links_hosts"] = hosts_
        out["links_domains"] = domains_
        out["links_public_suffixes"] = suffixes_
        out["links_hosts_surts"] = surts_
        out["license_url"] = _first_dedupe(f.license_urls)
        out["pub_date"] = f.pub_date
        out["content"] = f.text
        out["content_text_length"] = len(f.text)
    elif norm == "text" and payload:
        txt = truncate_text(space_trim(payload.decode("utf-8", errors="replace")), cfg.max_text_length)
        spans.append({"kind": "text", "text": txt, "media_ref": "", "offset": 0})
        out["content"] = txt
        out["content_text_length"] = len(txt)
    elif norm in _MEDIA_NORMS and payload:
        spans.append({"kind": "media", "text": "", "media_ref": digest, "offset": 0})
    if _is_xml_type(ct.content_type) and payload:
        # M25: root-element namespace (XMLAnalyser.java:77-93)
        out["xml_root_ns"] = xml_root_namespace(payload)
    if ct.strip_text:
        spans = [s for s in spans if s["kind"] not in ("text", "title")]
        out["content"] = None
        out["content_text_length"] = None
    # the extracted text is the TEXT-ANALYSER input regardless of whether
    # the content field is stored (the reference's analysers run on the
    # Tika text, not the Solr field) — capture before the M35 nulling
    extracted_text = out.get("content")
    if not cfg.store_content:
        out["content"] = None  # M35: index-only text (length retained)
    out["spans"] = spans
    out["parse_error"] = "; ".join(parse_errors) if parse_errors else None
    # §2.10 plugin analysers (instances cached per process; the reference
    # runs its ServiceLoader plugin set after the core chain)
    if cfg.payload_analysers or cfg.text_analysers:
        from .analysers import build_analysers

        pas, tas = build_analysers(cfg.payload_analysers, cfg.text_analysers)
        for a in pas:
            if a.should_process(out.get("content_type") or ""):
                a.analyse(rec, payload, out)
        if tas and extracted_text:
            for a in tas:
                a.analyse_text(extracted_text, out)
    if cfg.apply_field_policy:
        apply_field_policy(out)
    return out


def apply_field_policy(out: dict) -> None:
    """Run the output string fields through the field-adjustment policy
    (``SolrRecord.addField`` -> ``adjust``, SolrRecord.java:135-188) —
    control-char strip, UTF-8 sanitise, whitespace collapse, per-field
    rewrites and max_length, empty -> None. ``spans`` are exempt (the
    payload-parity surface, not a Solr field) and DERIVED_IDENTITY_FIELDS
    are skipped (the policy is provably the identity on kernel-derived
    values — asserted over the corpus in tests). ``content_text_length``
    keeps the pre-policy extracted length (the reference records text
    length as its own field before adjustment)."""
    for k, v in out.items():
        if k == "spans":
            continue
        if k in DERIVED_IDENTITY_FIELDS:
            if v == "":
                out[k] = None  # the one policy effect on derived values
            continue
        if isinstance(v, str):
            out[k] = DEFAULT_POLICY.adjust(k, v)
        elif isinstance(v, list):
            out[k] = DEFAULT_POLICY.adjust_many(k, v)
        elif isinstance(v, dict):
            # plugin_fields: every plugin value passes the policy under its
            # OWN field name (the reference's arbitrary Solr adds all go
            # through SolrRecord.adjust); dropped-empty values vanish
            adjusted = {
                ik: av
                for ik, iv in v.items()
                if (av := DEFAULT_POLICY.adjust(ik, iv)) is not None
            }
            out[k] = adjusted or None


def _vector_prefilter(batch: pa.Table, cfg: IndexConfig) -> pa.Table:
    """Vectorised M1/M2/M4 filters — cut rows before the per-record loop.

    Only filters whose semantics are exactly replicated in
    :func:`extract_record` (which re-checks on the sanitised URL) may appear
    here; this is a bandwidth optimisation, not the source of truth."""
    mask = pc.is_in(batch["record_type"], value_set=pa.array(cfg.record_type_include))
    if cfg.response_include:
        status_str = pc.cast(batch["status"], pa.string())
        resp = None
        for p in cfg.response_include:
            m = pc.starts_with(status_str, p)
            resp = m if resp is None else pc.or_(resp, m)
        mask = pc.and_(mask, resp)
    return batch.filter(mask)


def extract_batch(batch: pa.Table, cfg: IndexConfig) -> pa.Table:
    """pages batch -> documents batch (Arrow in / Arrow out)."""
    batch = _vector_prefilter(batch, cfg)
    rows = batch.to_pylist()
    memo = BatchMemo()
    out_rows = [r for r in (extract_record(rec, cfg, memo) for rec in rows) if r is not None]
    if not out_rows:
        return DOCUMENTS_SCHEMA.empty_table()
    return pa.Table.from_pylist(out_rows, schema=DOCUMENTS_SCHEMA)


class ExtractStage:
    """Callable class for ``map_batches`` actor pools: the config is held
    once per actor, and each call extracts one batch with its own
    :class:`BatchMemo` (reference analogue: the per-JVM ``WARCIndexer``
    instance, ``WARCIndexerMapper.java:137-146``)."""

    def __init__(self, cfg: IndexConfig | None = None):
        self.cfg = cfg or IndexConfig()

    def __call__(self, batch: pa.Table) -> pa.Table:
        return extract_batch(batch, self.cfg)
