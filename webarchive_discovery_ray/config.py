"""Typed configuration tree for the engine.

Mirrors the reference's HOCON config surface
(``warc-indexer/src/main/resources/reference.conf``) as plain dataclasses:
every extraction toggle the tests exercise (record_type_include,
protocol_include, url_exclude, response_include, SURT exclusions, text caps)
plus the crawl-plane knobs that are new construction (BASELINE.json
north_rule: politeness budget, hop limit, seen-set sharding, waves).
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["IndexConfig", "CrawlConfig", "SyntheticConfig"]


@dataclass(frozen=True)
class IndexConfig:
    """Extraction-plane configuration (reference.conf `warc.index.extract`)."""

    record_type_include: tuple[str, ...] = ("response", "resource", "revisit")
    protocol_include: tuple[str, ...] = ("http", "https")
    url_exclude: tuple[str, ...] = ()  # regex fragments, matched `.*X.*`
    response_include: tuple[str, ...] = ("2",)  # status-prefix allowlist
    surt_exclusions: tuple[str, ...] = ()  # SURT-prefix reject list (M5)
    max_url_length: int = 2000  # WARCIndexer.java:330-331
    max_text_length: int = 512 * 1024  # tika.max_text_length
    extract_image_links: bool = True
    normalise_links: bool = True
    add_normalised_url: bool = True
    first_bytes_length: int = 32  # FirstBytesAnalyser default
    extract_content_first_bytes: bool = True
    # M35 (WARCIndexer.java:471-490): when False the extracted text is not
    # stored in the output `content` column (length is still recorded)
    store_content: bool = True
    # §2.10 plugin surface (AbstractPayloadAnalyser / AbstractTextAnalyser
    # ServiceLoader analogue): names from stages/analysers.py registries,
    # instantiated once per actor, outputs land in `plugin_fields`
    payload_analysers: tuple[str, ...] = ()
    text_analysers: tuple[str, ...] = ()
    # field-adjustment policy (SolrRecord.addField -> adjust pipeline,
    # SolrRecord.java:135-188): every output string field passes through
    # functions/fieldpolicy.DEFAULT_POLICY (control-char strip, UTF-8
    # sanitise, whitespace collapse, per-field rewrites + max_length).
    # Spans are exempt — they are the payload-parity surface, not a Solr
    # field
    apply_field_policy: bool = True


@dataclass(frozen=True)
class CrawlConfig:
    """Crawl-plane configuration (new construction, BASELINE.json north_rule).

    The sequential oracle and the Ray frontier share these rules exactly:
    * BFS by wave; seeds in list order are wave 0;
    * per-host FIFO queues keyed by SURT; at most ``politeness_budget``
      fetches per host per wave (the per-host token bucket);
    * global fetch order within a wave pinned to (host_surt, enqueue slot);
    * per-page outlinks deduped (first occurrence) then sorted
      lexicographically by canonical URL before enqueue (pinned ordering,
      SURVEY.md §7.0);
    * hop limit on link depth; robots.txt disallow prefixes apply to hosts
      from the wave after the robots fetch;
    * robots ``Crawl-delay: d`` (d > 1) shrinks that host's per-wave
      budget to ``max(1, politeness_budget // d)`` (the token bucket
      refills d-times slower), same effective-from-next-wave timing as
      the Disallow prefixes (state/robots.effective_budget);
    * 5xx backoff (backoff_503): a host serving any status>=500 response
      in wave W fetches at ``max(1, effective_budget // 2)`` in wave W+1
      only — the transient-overload half of the token bucket (the
      backoff host set is a field of the crawl's one per-host policy
      state, pipelines/crawl.PolicyState);
    * robots ``Allow:`` prefixes (RFC 9309 §2.2.2) participate in a
      longest-match verdict against the Disallow prefixes (tie → Allow;
      no match → allowed) — with no Allow lines this is exactly the old
      any-Disallow-prefix rule (state/robots.is_disallowed);
    * robots ``Sitemap:`` URLs (follow_sitemaps) are injected as
      implicit priority=-1 fetches from the wave after the robots fetch
      (first time their SURT is unseen); a 200 sitemap's ``<loc>`` URLs
      are canonicalised and join that fetch's candidate set; candidates
      discovered by ANY fetch enqueue at ``max(parent priority, 0)`` so
      injected (-1) fetches discover at the default priority; within a
      host queue the drain order is (priority, seq, surt) — the surt
      tie-break only ever distinguishes same-wave injected rows. ``seq``
      is the enqueue order WITHIN a host: the oracle counts over the
      whole crawl, the Ray frontier per host block from the same running
      count (state/checkpoint.FRONTIER_SCHEMA), which orders each host's
      rows identically;
    * rel=nofollow / meta-robots-nofollow (respect_nofollow): anchors
      with a ``rel`` nofollow token don't enqueue their target; a page
      with a meta robots nofollow contributes no extraction links
      (redirect Location and sitemap locs are unaffected);
    * duplicate-content gate (dedup_content): a status-200 fetch whose
      extraction payload hash was seen by an earlier fetch (global
      (wave, host, slot) order) contributes NO candidates at all.

    Hot-host skew needs no knob: all of a host's rows sit in one block,
    the budget bounds what the host fetches per wave, and the rest of
    its queue is the block's carry, which never enters the per-row fetch
    loop.
    """

    politeness_budget: int = 4  # fetch tokens per host per wave
    max_waves: int = 4
    hop_limit: int = 8
    seen_shards: int = 8
    respect_robots: bool = True
    # follow robots 'Sitemap:' URLs (injected like robots fetches; only
    # meaningful when respect_robots is on — rules carry the sitemaps)
    follow_sitemaps: bool = True
    # 5xx backoff: a host that served >=1 status>=500 response in wave W
    # fetches at max(1, effective_budget // 2) in wave W+1 ONLY (recovers
    # after one clean wave); applied after the Crawl-delay shrink.
    # Default OFF so pre-existing fixtures stay byte-identical.
    backoff_503: bool = False
    # rel=nofollow / meta-robots-nofollow link gating
    # (state/robots.nofollow_scan): a fetched page's candidate set drops
    # every extraction link whose anchor carries a rel "nofollow" token
    # (resolved with the extraction chain's own resolve rule); a page
    # with <meta name="robots" content="... nofollow ..."> contributes
    # NO extraction links at all. HTTP-level targets (redirect Location)
    # and sitemap <loc> entries are NOT anchors and are unaffected.
    # Default ON is byte-safe: the scan is gated on the literal
    # "nofollow" appearing in the payload, which no default fixture emits.
    respect_nofollow: bool = True
    # duplicate-content gate (Heritrix-style content digest dedup, the
    # crawl-side sibling of the reference's revisit/reduplication plane
    # M13/J3): when ON, a fetched status-200 response whose extraction
    # payload hash was already seen by an EARLIER fetch (global pinned
    # order: wave, then host, slot) contributes NO candidates — links,
    # sitemap locs, everything; robots RULES still parse and the doc is
    # still logged/written. State is a second key space of content
    # hashes in the same seen-set shard actors (same spill tier +
    # checkpoint-delta machinery as the URL-seen set, separate keys).
    # Default OFF: fixtures byte-identical.
    dedup_content: bool = False
    # adaptive politeness (Heritrix DispositionProcessor delayFactor /
    # minDelayMs / maxDelayMs mapped onto the wave model): a host whose
    # LAST fetch of wave W took d ms has earned a per-fetch delay of
    # clamp(d x delay_factor, min, max); with the wave as a fixed
    # adaptive_wave_window_ms time window the host's wave-W+1 budget is
    # additionally capped at max(1, window // delay). Applied AFTER the
    # Crawl-delay shrink and the 5xx halving, BEFORE the quota cap
    # (pinned order, mirrored in the oracle). Fetch durations come from
    # state/robots.fetch_duration_ms (the synthetic world's
    # deterministic clock). Last-duration state is a per-host dict in
    # pipelines/crawl.PolicyState (bounded by |hosts|). Default OFF:
    # fixtures byte-identical.
    # 5xx fetch retries (the Heritrix fetch-retry schedule mapped onto
    # waves): a SELECTED fetch that returns status >= 500 re-enters the
    # NEXT wave's frontier with its original (priority, hop, seq) — the
    # only path that ever re-fetches a seen URL — up to retry_5xx
    # additional attempts per surt. Retries drain under the normal
    # politeness chain (incl. the 5xx backoff halving, if on), consume
    # per-host quota (a fetch is a fetch) and log one fetch-log row per
    # attempt. Pending retry rows + per-surt attempt counts live in
    # pipelines/crawl.PolicyState (checkpointed with it). Default None:
    # fixtures byte-identical.
    retry_5xx: int | None = None
    adaptive_politeness: bool = False
    adaptive_delay_factor_permil: int = 5000  # Heritrix delayFactor 5.0
    adaptive_min_delay_ms: int = 3000  # Heritrix minDelayMs
    adaptive_max_delay_ms: int = 30000  # Heritrix maxDelayMs
    adaptive_wave_window_ms: int = 240_000
    max_urls: int | None = None  # overall stop condition (None = unbounded)
    # seen-set spill tier (state/seen.py SpilledRuns): once a shard's hot
    # set reaches seen_spill_threshold keys it is persisted to sorted
    # parquet runs (under seen_spill_dir, or a tempdir) and membership
    # probes go hot set -> per-run filter -> fence-indexed row-group
    # reads. None
    # keeps the whole set resident (small crawls / tests); at the
    # 10^10-URL design point set this to the per-shard RAM budget.
    seen_spill_threshold: int | None = None
    seen_spill_dir: str | None = None
    # crawl scope (the Heritrix SurtPrefixedDecideRule): when set, a
    # CANDIDATE enqueues only if its SURT starts with one of these
    # prefixes (e.g. "com,example)" keeps the crawl on that host;
    # "com,example)/docs" pins a subtree). Seeds and infrastructure
    # fetches (robots, advertised sitemaps) are in scope by definition —
    # the gate sits in candidate_ok, the single discovery choke point
    # shared verbatim by pipeline and oracle. None = unscoped.
    scope_surt_prefixes: tuple[str, ...] | None = None
    # per-host total crawl quota (the Heritrix queue-total-budget rule):
    # once a host has been FETCHED max_pages_per_host times across the
    # whole crawl (robots/sitemap fetches count — a fetch is a fetch),
    # the host retires — its queued rows are DROPPED at the next drain
    # (not carried), and a wave's effective budget is capped at the
    # host's remaining quota. Quota state is a per-host counter in
    # pipelines/crawl.PolicyState (bounded by |hosts|). Default None:
    # fixtures byte-identical.
    max_pages_per_host: int | None = None
    # crawl-end fragment compaction (sources/sinks.maybe_compact_fragments):
    # when docs_dir holds more than this many parquet fragments at crawl
    # end, fold them into few large files via the resumable compactor and
    # delete the sources once the round completes. None disables.
    compact_fragments_threshold: int | None = None
    compact_target_bytes: int = 128 << 20
    # WARC sink (the write-side close of the reader loop, S1 family):
    # when set, every SELECTED fetch of a wave is serialised into
    # warc_dir/wave_{W}/part_{P}.warc.gz fragments — multi-member gzip of
    # ISO-28500 `response` records, one member per fetch in the pinned
    # block order, deterministic bytes (retried tasks rewrite identical
    # files). With dedup_content ON, the content gate's losers are minted
    # as `revisit` records (WARC-Profile identical-payload-digest,
    # payload dropped, linked to the stored copy by WARC-Payload-Digest)
    # — exactly the storage dedup whose read side the reference's
    # reduplication plane consumes (WARCIndexer revisit path M13/J3).
    # Payload bytes ride the fetch blocks through the object store to a
    # per-block writer task; traffic is fetched-bounded per wave.
    warc_dir: str | None = None


@dataclass(frozen=True)
class SyntheticConfig:
    """Deterministic pseudo-web generator parameters (FIXTURES.md §2-3).

    ``seed`` drives every choice through sha1-based hashing — no RNG state,
    so any worker can regenerate any page independently (the fetch
    simulator's contract)."""

    seed: int = 42
    n_hosts: int = 20
    hot_host_share: float = 0.30  # hot host owns ~30% of link targets
    max_fanout: int = 8
    media_ratio: float = 0.25  # fraction of URLs that are media objects
    robots_disallow_ratio: float = 0.5  # hosts with a /private/ disallow
    # fraction of hosts whose robots.txt serves a Crawl-delay line
    # (default 0.0: every pre-existing fixture stays byte-identical)
    robots_crawl_delay_ratio: float = 0.0
    # fraction of hosts whose robots.txt advertises Sitemap: URLs
    # (default 0.0: every pre-existing fixture stays byte-identical)
    robots_sitemap_ratio: float = 0.0
    # fraction of ADVERTISED sitemaps that serve a <sitemapindex> of
    # child sitemaps instead of a <urlset> (default 0.0: fixtures with
    # robots_sitemap_ratio set but no index knob stay byte-identical)
    sitemap_index_ratio: float = 0.0
    # fraction of Disallow-carrying hosts whose robots.txt also serves an
    # Allow carve-out under the first Disallow prefix (RFC 9309
    # longest-match; default 0.0: pre-existing fixtures byte-identical)
    robots_allow_ratio: float = 0.0
    # fraction of outlink anchors emitted with rel="nofollow", and
    # fraction of HTML pages carrying <meta name="robots"
    # content="noindex, nofollow"> (defaults 0.0: pre-existing fixtures
    # byte-identical — the hash draws only happen when a ratio is set)
    link_nofollow_ratio: float = 0.0
    meta_nofollow_ratio: float = 0.0
    # fraction of HTML pages that serve one GLOBAL mirror body verbatim
    # (duplicate-content-gate fixture; its relative links resolve against
    # each mirroring host; default 0.0: pre-existing fixtures
    # byte-identical)
    duplicate_content_ratio: float = 0.0
    pages_per_host: int = 400  # URL id space per host
    uk_host_ratio: float = 0.3
