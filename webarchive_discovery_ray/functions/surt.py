"""SURT (Sort-friendly URI Reordering Transform) conversions.

The reference uses ``org.archive.url.SURT.toSURT`` (webarchive-commons) at
``warc-indexer/src/main/java/uk/bl/wa/indexer/WARCIndexer.java:620-624`` and
``HTMLAnalyser.java:192`` for host SURTs, and wayback URL keys for CDX / seen
keys. Those exact libraries are not reimplemented here; the forms below are
*pinned conventions* shared by the Ray pipeline and the sequential oracle
(SURVEY.md §7.4 — ordering pinned where the reference leaves it undefined):

* host SURT:  ``bbc.co.uk``      -> ``(uk,co,bbc,``
* URL key:    ``http://bbc.co.uk/news?q=1`` -> ``uk,co,bbc)/news?q=1``
  (aggressive canonicalisation applied first; scheme dropped; host reversed).
"""

from __future__ import annotations

import re

from .normalisation import canonicalise_url

__all__ = ["host_to_surt", "surt_key", "surt_of_canonical"]

_IPV4 = re.compile(r"(?:\d{1,3}\.){3}\d{1,3}$")
_SCHEME = re.compile(r"^[a-z][a-z0-9+.-]*://")


def host_to_surt(host: str) -> str:
    """``bbc.co.uk`` -> ``(uk,co,bbc,`` — classic SURT host form.

    IP addresses are not reordered: ``192.168.0.1`` -> ``(192.168.0.1)``.
    """
    if _IPV4.fullmatch(host):
        return f"({host})"
    return "(" + ",".join(reversed(host.split("."))) + ","


def surt_key(url: str) -> str:
    """Canonicalised, sort-friendly URL key used for CDX global order, the
    URL-seen set and frontier partitioning.

    ``https://www.BBC.co.uk/News/`` -> ``uk,co,bbc)/news``.
    Non-URL inputs (no scheme) are keyed as-is after canonicalisation.
    """
    return surt_of_canonical(canonicalise_url(url))


def surt_of_canonical(canonical: str) -> str:
    """:func:`surt_key` of a URL that ``canonicalise_url`` already
    returned (a caller that keeps the canonical URL canonicalises once)."""
    without_scheme = _SCHEME.sub("", canonical)
    if "/" in without_scheme:
        host, _, rest = without_scheme.partition("/")
    else:
        host, rest = without_scheme, ""
    if "@" in host:
        host = host.rsplit("@", 1)[1]
    port = ""
    if ":" in host:
        host, _, port = host.partition(":")
        port = ":" + port
    if _IPV4.fullmatch(host):
        surt_host = host
    else:
        surt_host = ",".join(reversed(host.split(".")))
    return f"{surt_host}{port})/{rest}"
