"""Sequential single-thread extraction oracle.

Independent implementation of the pinned extraction spec
(``stages/extract.py`` SPAN_SPEC) in a deliberately different style —
multi-pass over a materialised token list instead of the stage's single-pass
state machine — so the parity tests (span-sequence equality per row,
BASELINE.json input_hint invariant) exercise genuinely duplicated logic
rather than one shared function. Shares only the golden-tested scalar
kernels and the ``Token`` type: its HTML tokenizer is a generator of its
own under the rules pinned in ``functions/htmlscan.py``, written apart
from the stage's one-loop ``tokenize_html`` so the parity suites test
that tokenizer against an independent one.

Models the reference's single-threaded ``WARCIndexerCommand`` loop
(``warc-indexer/src/main/java/uk/bl/wa/indexer/WARCIndexerCommand.java:194-255``).
"""

from __future__ import annotations

import re
from typing import Iterator

from ..config import IndexConfig
from ..functions.hashing import md5_b64, sha1_b32
from ..functions.htmlscan import Token, parse_srcset
from ..functions.mime import detect_mime, reconcile_content_type
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
from ..functions.surt import host_to_surt, surt_key
from ..functions.text import space_trim, truncate_text
from ..functions.payload import maybe_dechunk, maybe_decompress
from ..functions.xmlns import is_xml_type as _is_xml_type, xml_root_namespace
from ..functions.timestamps import (
    extract_year,
    format_iso,
    parse_wayback_date,
    strip_non_digits,
    to_wayback14,
)
from ..functions.urls import parse_extension, parse_resource_name, url_path, url_type

__all__ = ["oracle_extract_record", "oracle_extract_all"]


_TAG = re.compile(r"<(/?)([a-zA-Z][a-zA-Z0-9]*)((?:[^>\"']|\"[^\"]*\"|'[^']*')*)>")
_ATTR = re.compile(r"([a-zA-Z_][\w:-]*)\s*(?:=\s*(\"[^\"]*\"|'[^']*'|[^\s\"'>]+))?")
_COMMENT = re.compile(r"<!--.*?-->", re.DOTALL)
_DOCTYPE = re.compile(r"<![^>]*>")
_RAWTEXT_CLOSE = {"script": re.compile(r"</script\s*>", re.IGNORECASE),
                  "style": re.compile(r"</style\s*>", re.IGNORECASE)}


def _parse_attrs(raw: str) -> dict[str, str]:
    attrs: dict[str, str] = {}
    for m in _ATTR.finditer(raw):
        name = m.group(1).lower()
        value = m.group(2)
        if value is None:
            value = ""
        elif value[:1] in ("'", '"'):
            value = value[1:-1]
        if name not in attrs:  # first occurrence wins
            attrs[name] = value
    return attrs


def _tokenize_html(html: str) -> Iterator[Token]:
    """Yield tokens in document order with character offsets, under the
    tokenization rules pinned in ``functions/htmlscan.py``."""
    i, n = 0, len(html)
    text_start = -1

    def flush_text(end: int) -> Iterator[Token]:
        nonlocal text_start
        if text_start >= 0 and end > text_start:
            chunk = html[text_start:end]
            if chunk:
                yield Token("text", "", {}, chunk, text_start)
        text_start = -1

    while i < n:
        lt = html.find("<", i)
        if lt < 0:
            if text_start < 0:
                text_start = i
            yield from flush_text(n)
            return
        if text_start < 0 and lt > i:
            text_start = i
        elif text_start < 0:
            text_start = i
        # comment / doctype?
        if html.startswith("<!--", lt):
            m = _COMMENT.match(html, lt)
            yield from flush_text(lt)
            i = m.end() if m else lt + 4
            continue
        if html.startswith("<!", lt):
            m = _DOCTYPE.match(html, lt)
            yield from flush_text(lt)
            i = m.end() if m else lt + 2
            continue
        m = _TAG.match(html, lt)
        if not m:
            # not a real tag ("<3", "< a", stray '<'): treat as text
            i = lt + 1
            continue
        yield from flush_text(lt)
        closing, name, rawattrs = m.group(1), m.group(2).lower(), m.group(3)
        if closing:
            yield Token("end", name, {}, "", lt)
        else:
            attrs = _parse_attrs(rawattrs) if rawattrs.strip(" /") else {}
            yield Token("start", name, attrs, "", lt)
            if name in _RAWTEXT_CLOSE and not rawattrs.rstrip().endswith("/"):
                close = _RAWTEXT_CLOSE[name].search(html, m.end())
                if close:
                    yield Token("end", name, {}, "", close.start())
                    i = close.end()
                    continue
                i = n
                continue
        i = m.end()
    yield from flush_text(n)


def _try_resolve(base: str, ref: str, normalise: bool) -> str | None:
    try:
        return resolve_relative(base, ref, normalise)
    except Exception:
        return None


def _paragraphs(tokens: list[Token]) -> list[tuple[int, str]]:
    """Each <p>: text up to </p> / next <p> / </body>, trimmed, non-empty."""
    out = []
    for i, t in enumerate(tokens):
        if t.kind == "start" and t.name == "p":
            buf = []
            for u in tokens[i + 1 :]:
                if u.kind == "text":
                    buf.append(u.text)
                elif (u.kind == "start" and u.name == "p") or (
                    u.kind == "end" and u.name in ("p", "body")
                ):
                    break
            txt = space_trim("".join(buf))
            if txt:
                out.append((t.offset, txt))
    return out


def _title(tokens: list[Token]) -> tuple[int, str] | None:
    for i, t in enumerate(tokens):
        if t.kind == "start" and t.name == "title":
            buf = []
            closed = False
            for u in tokens[i + 1 :]:
                if u.kind == "text":
                    buf.append(u.text)
                elif u.kind == "end" and u.name == "title":
                    closed = True
                    break
            if closed:
                txt = space_trim("".join(buf))
                if txt:
                    return (t.offset, txt)
    return None


def _body_text(tokens: list[Token], max_length: int) -> str:
    body_at = None
    for t in tokens:
        if t.kind == "start" and t.name == "body":
            body_at = t.offset
            break
    texts = [
        t.text
        for t in tokens
        if t.kind == "text" and (body_at is None or t.offset > body_at)
    ]
    return truncate_text(space_trim(" ".join(texts)), max_length)


def _links(tokens: list[Token], base: str, normalise: bool) -> list[tuple[int, str]]:
    out = []
    for t in tokens:
        if t.kind == "start" and t.name == "a" and "href" in t.attrs:
            r = _try_resolve(base, t.attrs["href"], normalise)
            if r is not None:
                out.append((t.offset, r))
    return out


def _images(tokens: list[Token], base: str, normalise: bool) -> list[tuple[int, str]]:
    out = []
    picture = 0
    for t in tokens:
        if t.kind == "end" and t.name == "picture":
            picture = max(0, picture - 1)
            continue
        if t.kind != "start":
            continue
        if t.name == "picture":
            picture += 1
        candidates: list[str] = []
        if t.name == "img":
            if "src" in t.attrs:
                candidates.append(t.attrs["src"])
            if t.attrs.get("srcset"):
                candidates.extend(parse_srcset(t.attrs["srcset"]))
        elif t.name == "source" and picture > 0 and t.attrs.get("srcset"):
            candidates.extend(parse_srcset(t.attrs["srcset"]))
        if t.name in ("body", "table", "td") and t.attrs.get("background"):
            candidates.append(t.attrs["background"])
        for c in candidates:
            r = _try_resolve(base, c, normalise)
            if r is not None:
                out.append((t.offset, r))
    return out


def _license_urls(tokens: list[Token]) -> list[str]:
    out = []
    for t in tokens:
        if (
            t.kind == "start"
            and t.name in ("a", "link", "area")
            and t.attrs.get("rel", "").lower() == "license"
            and t.attrs.get("href")
        ):
            out.append(t.attrs["href"])
    return out


def _elements(tokens: list[Token]) -> list[str]:
    de: set[str] = set()
    for t in tokens:
        if t.kind != "start":
            continue
        if re.fullmatch(r"[a-zA-Z0-9]+", t.name):
            de.add(t.name[:100])
        if t.name == "link" and "rel" in t.attrs:
            de.add("link/@rel=" + t.attrs["rel"].lower())
        if t.name == "meta" and "name" in t.attrs:
            de.add("meta/@name=" + t.attrs["name"].lower())
    return sorted(de)


def _pub_date(tokens: list[Token]) -> str | None:
    value = None
    for t in tokens:
        if (
            t.kind == "start"
            and t.name == "meta"
            and t.attrs.get("name", "").lower() == "originalpublicationdate"
        ):
            value = t.attrs.get("content", "")
    return value


def _dedupe_keep_first(values: list[str]) -> list[str]:
    out: dict[str, None] = {}
    for v in values:
        out.setdefault(v)
    return list(out)


def oracle_extract_record(rec: dict, cfg: IndexConfig) -> dict | None:
    """Sequential reference implementation; same contract as
    ``stages.extract.extract_record``."""
    if rec["record_type"] not in cfg.record_type_include:
        return None
    url = sanitise_warc_header_value(rec["url"]) or ""
    url = url[: cfg.max_url_length]
    if cfg.protocol_include and not any(url.startswith(p) for p in cfg.protocol_include):
        return None
    if any(e and re.search(e, url) for e in cfg.url_exclude):
        return None
    if cfg.response_include and not any(
        str(rec["status"]).startswith(p) for p in cfg.response_include
    ):
        return None
    surt = surt_key(url)
    if any(surt.startswith(p) for p in cfg.surt_exclusions):
        return None

    digits = strip_non_digits(rec["timestamp14"])
    dt = parse_wayback_date(digits)
    errors = [] if dt is not None else ["when parsing timestamp"]
    host = extract_host(url)
    host = canonicalise_host(host) if host != MALFORMED_HOST else host
    resource_name = parse_resource_name(url)
    doc = {
        "doc_id": digits + "/" + md5_b64(url),
        "spans": [],
        "url": url,
        "url_norm": canonicalise_url(url) if cfg.add_normalised_url else None,
        "surt": surt,
        "url_path": url_path(url),
        "url_type": url_type(url_path(url)),
        "resource_name": resource_name,
        "content_type_ext": parse_extension(resource_name),
        "host": host,
        "host_surt": [host_to_surt(x) for x in all_levels(host)],
        "domain": extract_private_suffix_from_host(host),
        "public_suffix": extract_public_suffix_from_host(host),
        "crawl_date": format_iso(dt) if dt else None,
        "crawl_year": extract_year(rec["timestamp14"]),
        "wayback_date": to_wayback14(dt) if dt else None,
        "record_type": rec["record_type"],
        "status": rec["status"],
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
        "redirect_to_norm": _try_resolve(url, rec["location"], True) if rec.get("location") else None,
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
        "parse_error": "; ".join(errors) if errors else None,
        "source_file": rec["source_file"],
        "source_offset": rec["source_offset"],
        "plugin_fields": None,  # §2.10 plugins are stage-side extensions
    }

    def _finish(d: dict) -> dict:
        # independent policy application (same contract as the stage's
        # apply_field_policy; shared DEFAULT_POLICY table, separate loop)
        if cfg.apply_field_policy:
            from ..functions.fieldpolicy import (
                DEFAULT_POLICY,
                DERIVED_IDENTITY_FIELDS,
            )

            for k, v in d.items():
                if k == "spans":
                    continue
                if k in DERIVED_IDENTITY_FIELDS:
                    if v == "":
                        d[k] = None
                    continue
                if isinstance(v, str):
                    d[k] = DEFAULT_POLICY.adjust(k, v)
                elif isinstance(v, list):
                    d[k] = DEFAULT_POLICY.adjust_many(k, v)
        return d

    if rec["record_type"] == "revisit":
        served = rec["mime_served"] or None
        doc["content_type"] = served.split(";")[0] if served else None
        doc["content_type_full"] = served
        doc["hash"] = rec["payload_sha1"] or None
        return _finish(doc)

    raw: bytes = rec["payload"] or b""
    doc["content_length"] = len(raw)
    payload, _ = maybe_dechunk(raw, rec.get("transfer_encoding"))  # M14
    doc["hash"] = sha1_b32(payload)
    if rec.get("payload_sha1") and rec["payload_sha1"] != doc["hash"]:
        doc["hash_mismatch"] = True
        errors.append("Digest validation failed")
        doc["parse_error"] = "; ".join(errors)
    payload, _ = maybe_decompress(payload, rec.get("content_encoding") or None)  # M15
    if len(payload) >= 4:
        hx = payload[: cfg.first_bytes_length].hex()
        doc["content_ffb"] = hx[:8]
        if cfg.extract_content_first_bytes:
            doc["content_first_bytes"] = " ".join(re.findall("..", hx))
    tika = detect_mime(payload[:512], name_hint=resource_name)
    doc["content_type_tika"] = tika
    ct = reconcile_content_type(
        tika,
        served=rec["mime_served"] or None,
        warc_mimetype=rec["mime_served"] or None,
        content_length=len(payload),
    )
    doc["content_type"] = ct.content_type
    doc["content_type_full"] = ct.content_type_full
    doc["content_type_norm"] = ct.content_type_norm
    doc["solr_type"] = ct.solr_type
    doc["content_type_version"] = ct.content_type_version

    spans: list[dict] = []
    if ct.content_type_norm == "html" and payload:
        tokens = list(_tokenize_html(payload.decode("utf-8", errors="replace")))
        title = _title(tokens)
        paras = _paragraphs(tokens)
        links = _links(tokens, url, cfg.normalise_links)
        images = _images(tokens, url, cfg.normalise_links)
        if title:
            doc["title"] = title[1]
            spans.append({"kind": "title", "text": title[1], "media_ref": "", "offset": title[0]})
        spans.extend({"kind": "text", "text": p, "media_ref": "", "offset": o} for o, p in paras)
        spans.extend({"kind": "link", "text": "", "media_ref": u, "offset": o} for o, u in links)
        spans.extend({"kind": "image", "text": "", "media_ref": u, "offset": o} for o, u in images)
        spans.sort(key=lambda s: s["offset"])
        doc["first_paragraph"] = paras[0][1] if paras else None
        doc["elements_used"] = _elements(tokens)
        doc["links"] = _dedupe_keep_first([u for _, u in links])
        doc["links_images"] = _dedupe_keep_first([u for _, u in images])
        link_hosts = []
        for u in doc["links"]:
            h = extract_host(u)
            if h == MALFORMED_HOST:
                continue  # HTMLAnalyser.java:147-149: skipped entirely
            link_hosts.append(canonicalise_host(h))
        doc["links_hosts"] = sorted(set(link_hosts))
        doc["links_domains"] = sorted(
            {d for d in (extract_private_suffix_from_host(h) for h in link_hosts) if d}
        )
        doc["links_public_suffixes"] = sorted(
            {s for s in (extract_public_suffix_from_host(h) for h in link_hosts) if s}
        )
        doc["links_hosts_surts"] = sorted(
            {host_to_surt(level) for h in link_hosts for level in all_levels(h)}
        )
        doc["license_url"] = _dedupe_keep_first(_license_urls(tokens))
        doc["pub_date"] = _pub_date(tokens)
        doc["content"] = _body_text(tokens, cfg.max_text_length)
        doc["content_text_length"] = len(doc["content"])
    elif ct.content_type_norm == "text" and payload:
        txt = truncate_text(
            space_trim(payload.decode("utf-8", errors="replace")), cfg.max_text_length
        )
        spans.append({"kind": "text", "text": txt, "media_ref": "", "offset": 0})
        doc["content"] = txt
        doc["content_text_length"] = len(txt)
    elif ct.content_type_norm in ("image", "audio", "video", "pdf") and payload:
        spans.append({"kind": "media", "text": "", "media_ref": doc["hash"], "offset": 0})
    if _is_xml_type(ct.content_type) and payload:
        doc["xml_root_ns"] = xml_root_namespace(payload)  # M25
    if ct.strip_text:
        spans = [s for s in spans if s["kind"] not in ("text", "title")]
        doc["content"] = None
        doc["content_text_length"] = None
    if not cfg.store_content:
        doc["content"] = None  # M35: index-only text (length retained)
    doc["spans"] = spans
    return _finish(doc)


def oracle_extract_all(records: list[dict], cfg: IndexConfig) -> list[dict]:
    """The whole fixture, sequentially, in input order (nulls dropped)."""
    out = []
    for rec in records:
        doc = oracle_extract_record(rec, cfg)
        if doc is not None:
            out.append(doc)
    return out
