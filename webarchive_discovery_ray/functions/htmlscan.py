"""Minimal deterministic HTML tokenizer of the extraction stage.

This replaces the reference's JSoup parse (``HtmlFeatureParser.java:154-250``)
with a pinned, dependency-free scan, golden-tested in
``tests/test_kernels.py``. The sequential oracle (``oracle/extract_oracle.py``)
tokenizes with its own generator under the same rules, and implements the
span/link **assembly** logic independently, so parity tests exercise real
duplicated logic (SURVEY.md §5 test plan).

Pinned tokenization rules:
* a tag starts at ``<`` immediately followed by a letter or ``/`` + letter,
  and ends at the next ``>``; anything else (``<3``, ``< a``) is text —
  matching the reference's ELEMENT_NAME false-positive rule
  (``HtmlFeatureParser.java:215-222``);
* ``<script>``/``<style>`` content is skipped up to the matching close tag
  (all of the rest when there is none; a self-closing tag has none);
* comments and doctypes are skipped;
* attribute values may be double-quoted, single-quoted or bare.
"""

from __future__ import annotations

import re
from typing import NamedTuple

__all__ = ["Token", "tokenize_html", "parse_srcset", "anchor_texts"]


class Token(NamedTuple):
    kind: str  # "start" | "end" | "text"
    name: str  # tag name (lowercase) for start/end; "" for text
    attrs: dict[str, str]  # {} for end/text
    text: str  # raw text for text tokens; "" otherwise
    offset: int  # char offset in the source document


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


def tokenize_html(html: str) -> list[Token]:
    """Tokens in document order with character offsets."""
    out: list[Token] = []
    append = out.append
    i, n = 0, len(html)
    text_start = -1  # start of the pending text run; -1 when none
    while i < n:
        lt = html.find("<", i)
        if lt < 0:
            break
        if text_start < 0:
            text_start = i
        if html.startswith("<!", lt):  # comment or doctype: skipped
            if lt > text_start:
                append(Token("text", "", {}, html[text_start:lt], text_start))
            text_start = -1
            if html.startswith("<!--", lt):
                m = _COMMENT.match(html, lt)
                i = m.end() if m else lt + 4
            else:
                m = _DOCTYPE.match(html, lt)
                i = m.end() if m else lt + 2
            continue
        m = _TAG.match(html, lt)
        if m is None:  # not a real tag ("<3", "< a", stray '<'): text
            i = lt + 1
            continue
        if lt > text_start:
            append(Token("text", "", {}, html[text_start:lt], text_start))
        text_start = -1
        i = m.end()
        closing, name, rawattrs = m.groups()
        name = name.lower()
        if closing:
            append(Token("end", name, {}, "", lt))
            continue
        append(Token("start", name, _parse_attrs(rawattrs) if rawattrs.strip(" /") else {}, "", lt))
        if name in _RAWTEXT_CLOSE and not rawattrs.rstrip().endswith("/"):
            close = _RAWTEXT_CLOSE[name].search(html, i)
            if close is None:  # unterminated: the rest is raw text
                return out
            append(Token("end", name, {}, "", close.start()))
            i = close.end()
    if text_start < 0:
        text_start = i
    if n > text_start:
        append(Token("text", "", {}, html[text_start:], text_start))
    return out


def parse_srcset(srcset: str) -> list[str]:
    """``"a.jpg 1x, b.jpg 2x"`` -> ``["a.jpg", "b.jpg"]``
    (HtmlFeatureParser.normaliseSrcsetLinks semantics: first token of each
    comma-separated candidate)."""
    out = []
    for cand in srcset.split(","):
        cand = cand.strip()
        if cand:
            out.append(cand.split()[0])
    return out


_WS_RUN = re.compile(r"\s+")


def anchor_texts(html: str) -> list[tuple[str, str]]:
    """(href, anchor text) per ``<a href=...>`` element, in document
    order — the anchor-text signal web-corpus pipelines aggregate per
    target URL (the reference exposes the link itself via
    ``HtmlFeatureParser.java:154-250``; the enclosed text is this
    engine's addition).

    Pinned assembly rules (deterministic, mirrored by the pytest
    recompute): a ``start a`` with a non-empty ``href`` opens an anchor;
    text tokens inside accumulate; ``end a`` emits; a new ``start a``
    closes any open anchor first (HTML forbids nesting); an anchor still
    open at document end emits. The emitted text is
    whitespace-collapsed (runs -> one space) and stripped; empty text
    emits as ''."""
    out: list[tuple[str, str]] = []
    href: str | None = None
    buf: list[str] = []

    def flush() -> None:
        nonlocal href, buf
        if href is not None:
            out.append((href, _WS_RUN.sub(" ", "".join(buf)).strip()))
        href, buf = None, []

    for tok in tokenize_html(html):
        if tok.kind == "start" and tok.name == "a":
            flush()
            h = tok.attrs.get("href", "")
            if h:
                href = h
        elif tok.kind == "end" and tok.name == "a":
            flush()
        elif tok.kind == "text" and href is not None:
            buf.append(tok.text)
    flush()
    return out
