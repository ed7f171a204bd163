"""Command-line entry points (the reference's command surface, Ray-native).

Mirrors the warc-indexer CLI family:

* ``extract`` — ``WARCIndexerCommand`` (``warc-indexer/src/main/java/uk/bl/
  wa/indexer/WARCIndexerCommand.java:194-255``): input records table ->
  extracted documents, parquet/JSONL/XML output;
* ``crawl`` — the new frontier/scheduler plane (north rule): seed list ->
  per-(wave, partition) document fragments + streamed fetch log +
  checkpoints, resumable;
* ``cdx`` — ``ArchiveCDXGenerator``: records -> globally sorted captures.

Run via ``python -m webarchive_discovery_ray.cli <cmd> ...`` locally, or on
a cluster through ``ray job submit --working-dir . --
python -m webarchive_discovery_ray.cli <cmd> ...`` (the driver contract
lives in ``__ray_entry__.py``; only this CLI owns a Ray session).
"""

from __future__ import annotations

import argparse
import json
import sys


def _init_ray(num_cpus: int | None) -> None:
    import ray

    if not ray.is_initialized():  # driver-contract guard
        kwargs = {"include_dashboard": False, "logging_level": "ERROR"}
        if num_cpus is not None:
            kwargs["num_cpus"] = num_cpus
        ray.init(**kwargs)
    import ray.data as rd

    rd.DataContext.get_current().enable_progress_bars = False


def _cmd_extract(args: argparse.Namespace) -> dict:
    import ray.data as rd

    from .config import IndexConfig
    from .stages.extract import ExtractStage

    cfg = IndexConfig(
        store_content=not args.no_store_content,
        extract_content_first_bytes=not args.no_first_bytes,
    )
    ds = rd.read_parquet(args.input)
    docs = ds.map_batches(
        ExtractStage(cfg), batch_format="pyarrow", batch_size=args.batch_size
    )
    if args.format == "parquet":
        docs.write_parquet(args.output)
        n = None
    elif args.format == "jsonl":
        from .sources.sinks import write_jsonl

        n = write_jsonl(docs, args.output, compress=args.gzip)
    else:  # xml
        from .sources.sinks import write_xml

        n = write_xml(docs, args.output, compress=args.gzip)
    return {"cmd": "extract", "output": args.output, "format": args.format,
            "rows": n}


def _expand_inputs(patterns: list[str]) -> list[str]:
    import glob as _glob
    import os

    paths: list[str] = []
    for pat in patterns:
        hits = sorted(_glob.glob(pat))
        paths.extend(hits if hits else [pat])
    return [os.path.abspath(p) if "://" not in p else p for p in paths]


def _cmd_warc_write(args: argparse.Namespace) -> dict:
    """Pages -> real .warc.gz archives through the from-scratch response
    writer (the inverse of the ``warc`` subcommand; roundtrips through
    our own reader)."""
    import ray.data as rd

    from .config import SyntheticConfig
    from .sources.warc import write_warc

    if args.input:
        ds = rd.read_parquet(args.input)
    else:
        import pyarrow as pa

        from .schema import PAGES_SCHEMA
        from .sources.synthetic import fixture_pages

        ds = rd.from_arrow(
            pa.Table.from_pylist(
                fixture_pages(args.n_pages, SyntheticConfig()),
                schema=PAGES_SCHEMA,
            )
        )
    n = write_warc(ds, args.output)
    import glob as _g

    return {
        "cmd": "warc-write",
        "records": n,
        "files": len(_g.glob(f"{args.output}/part-*.warc.gz")),
        "output": args.output,
    }


def _cmd_warc(args: argparse.Namespace) -> dict:
    """(W)ARC files -> extracted documents — the WARCIndexerCommand
    one-liner a warc-indexer user reaches for first (``-i <warcs> -o
    <out>``), on the binary read path (one file per task)."""
    from .config import IndexConfig
    from .sources.warc import read_archive_pages
    from .stages.extract import ExtractStage

    paths = _expand_inputs(args.inputs)
    cfg = IndexConfig(
        store_content=not args.no_store_content,
        extract_content_first_bytes=not args.no_first_bytes,
    )
    docs = read_archive_pages(paths).map_batches(
        ExtractStage(cfg), batch_format="pyarrow", batch_size=args.batch_size
    )
    if args.format == "parquet":
        docs.write_parquet(args.output)
        n = None
    elif args.format == "jsonl":
        from .sources.sinks import write_jsonl

        n = write_jsonl(docs, args.output, compress=args.gzip)
    else:  # xml
        from .sources.sinks import write_xml

        n = write_xml(docs, args.output, compress=args.gzip)
    return {
        "cmd": "warc",
        "inputs": len(paths),
        "output": args.output,
        "format": args.format,
        "rows": n,
    }


def _cmd_warc_cdx(args: argparse.Namespace) -> dict:
    """(W)ARC files -> globally sorted CDX captures (ArchiveCDXGenerator
    end to end on the binary read path)."""
    from .pipelines.cdx import warc_cdx

    paths = _expand_inputs(args.inputs)
    caps = warc_cdx(paths)
    caps.write_parquet(args.output)
    return {"cmd": "warc-cdx", "inputs": len(paths), "output": args.output}


def _cmd_crawl(args: argparse.Namespace) -> dict:
    from .config import CrawlConfig, SyntheticConfig
    from .pipelines.crawl import run_crawl
    from .sources.synthetic import seed_urls

    scfg = SyntheticConfig(n_hosts=args.hosts, pages_per_host=args.pages_per_host)
    if args.seeds:
        seeds = [
            (line.strip(), 0)
            for line in open(args.seeds, encoding="utf-8")
            if line.strip()
        ]
    else:
        seeds = seed_urls(scfg, args.n_seeds)
    ccfg = CrawlConfig(
        politeness_budget=args.budget,
        max_waves=args.waves,
        seen_shards=args.seen_shards,
        respect_robots=not args.no_robots,
        respect_nofollow=not args.no_nofollow,
        dedup_content=args.dedup_content,
        seen_spill_threshold=args.seen_spill_threshold,
        seen_spill_dir=args.seen_spill_dir,
        warc_dir=args.warc_dir,
        max_pages_per_host=args.max_pages_per_host,
        scope_surt_prefixes=(
            tuple(args.scope_surt) if args.scope_surt else None
        ),
    )
    res = run_crawl(
        seeds,
        ccfg,
        scfg,
        checkpoint_dir=args.checkpoint_dir,
        docs_dir=args.docs_dir,
        resume=args.resume,
        fetch_concurrency=args.fetch_concurrency,
    )
    return {
        "cmd": "crawl",
        "fetched": res.total_fetched,
        "waves": [
            {k: s[k] for k in ("wave", "frontier", "fetched", "carryover", "new_urls")}
            for s in res.wave_stats
        ],
        "docs_dir": args.docs_dir,
        "checkpoint_dir": args.checkpoint_dir,
    }


def _cmd_cdx(args: argparse.Namespace) -> dict:
    import ray.data as rd

    from .config import IndexConfig
    from .pipelines.cdx import captures_from_pages_batch

    icfg = IndexConfig(response_include=())
    caps = (
        rd.read_parquet(args.input)
        .map_batches(
            lambda b: captures_from_pages_batch(b, icfg),
            batch_format="pyarrow",
            batch_size=None,
        )
        .sort(["surt_key", "timestamp14"])
    )
    caps.write_parquet(args.output)
    return {"cmd": "cdx", "output": args.output}


def _cmd_export(args: argparse.Namespace) -> dict:
    import ray.data as rd

    from .sources.sinks import export_partitioned

    ds = rd.read_parquet(args.input)
    res = export_partitioned(
        ds, args.output, args.key, n_partitions=args.partitions
    )
    return {"cmd": "export", "output": args.output, **res}


def _cmd_compact(args: argparse.Namespace) -> dict:
    from .sources.sinks import compact_parquet_dir

    res = compact_parquet_dir(
        args.input, args.output, target_bytes=args.target_mb << 20
    )
    return {"cmd": "compact", "output": args.output, **res}


def _cmd_split(args: argparse.Namespace) -> dict:
    from .pipelines.curation import dataset_split

    ds = dataset_split(args.sf_dir, pct_test=args.pct_test, pct_val=args.pct_val)
    ds.write_parquet(args.output)
    return {"cmd": "split", "output": args.output}


def _cmd_bpe(args: argparse.Namespace) -> dict:
    from .pipelines.textops import bpe_train

    df = bpe_train(args.sf_dir, n_merges=args.merges).to_pandas()
    df.to_json(args.output, orient="records", lines=True)
    return {"cmd": "bpe", "output": args.output, "merges": len(df)}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="webarchive_discovery_ray")
    ap.add_argument("--num-cpus", type=int, default=None)
    sub = ap.add_subparsers(dest="cmd", required=True)

    ex = sub.add_parser("extract", help="records table -> extracted documents")
    ex.add_argument("input", help="pages/records parquet path or dir")
    ex.add_argument("output", help="output dir")
    ex.add_argument("--format", choices=("parquet", "jsonl", "xml"), default="parquet")
    ex.add_argument("--gzip", action="store_true")
    ex.add_argument("--batch-size", type=int, default=128)
    ex.add_argument("--no-store-content", action="store_true")
    ex.add_argument("--no-first-bytes", action="store_true")
    ex.set_defaults(fn=_cmd_extract)

    wa = sub.add_parser("warc", help="(W)ARC files -> extracted documents")
    wa.add_argument("inputs", nargs="+", help="(W)ARC paths or globs")
    wa.add_argument("output", help="output dir")
    wa.add_argument("--format", choices=("parquet", "jsonl", "xml"), default="parquet")
    wa.add_argument("--gzip", action="store_true")
    wa.add_argument("--batch-size", type=int, default=64)
    wa.add_argument("--no-store-content", action="store_true")
    wa.add_argument("--no-first-bytes", action="store_true")
    wa.set_defaults(fn=_cmd_warc)

    ww = sub.add_parser(
        "warc-write",
        help="pages parquet (or synthetic fixture) -> .warc.gz archives",
    )
    ww.add_argument("output", help="output dir for part-*.warc.gz")
    ww.add_argument("--input", help="pages-schema parquet dir/file "
                                    "(default: synthetic fixture)")
    ww.add_argument("--n-pages", type=int, default=500)
    ww.set_defaults(fn=_cmd_warc_write)

    wc = sub.add_parser("warc-cdx", help="(W)ARC files -> globally sorted CDX")
    wc.add_argument("inputs", nargs="+", help="(W)ARC paths or globs")
    wc.add_argument("output", help="output dir")
    wc.set_defaults(fn=_cmd_warc_cdx)

    cr = sub.add_parser("crawl", help="seed list -> resumable crawl run")
    cr.add_argument("--seeds", help="file with one URL per line (default: synthetic)")
    cr.add_argument("--n-seeds", type=int, default=100)
    cr.add_argument("--hosts", type=int, default=1000)
    cr.add_argument("--pages-per-host", type=int, default=50)
    cr.add_argument("--budget", type=int, default=8)
    cr.add_argument("--waves", type=int, default=4)
    cr.add_argument("--seen-shards", type=int, default=8)
    cr.add_argument("--fetch-concurrency", type=int, default=8,
                    help="fetch slots a wave is sized for (>= 1): each "
                         "wave runs 4 host blocks per slot")
    cr.add_argument("--no-robots", action="store_true")
    cr.add_argument("--no-nofollow", action="store_true",
                    help="ignore rel=nofollow / meta robots nofollow")
    cr.add_argument("--dedup-content", action="store_true",
                    help="duplicate-content gate: a 200 whose payload "
                         "hash was already fetched discovers nothing")
    cr.add_argument("--seen-spill-threshold", type=int,
                    help="per-shard hot-set cap before spilling to "
                         "sorted parquet runs")
    cr.add_argument("--seen-spill-dir")
    cr.add_argument("--docs-dir")
    cr.add_argument("--scope-surt", action="append",
                    help="SURT scope prefix (repeatable): candidates "
                         "outside every prefix never enqueue")
    cr.add_argument("--max-pages-per-host", type=int,
                    help="total crawl quota per host (Heritrix "
                         "queue-total-budget): host retires once reached")
    cr.add_argument("--warc-dir",
                    help="write wave_*/part_*.warc.gz response/revisit "
                         "fragments (revisits minted for content-gate "
                         "losers when --dedup-content is on)")
    cr.add_argument("--checkpoint-dir")
    cr.add_argument("--resume", action="store_true")
    cr.set_defaults(fn=_cmd_crawl)

    cx = sub.add_parser("cdx", help="records table -> globally sorted captures")
    cx.add_argument("input")
    cx.add_argument("output")
    cx.set_defaults(fn=_cmd_cdx)

    xp = sub.add_parser(
        "export", help="table -> resumable hash-partitioned parquet"
    )
    xp.add_argument("input")
    xp.add_argument("output")
    xp.add_argument("--key", required=True, help="partition key column")
    xp.add_argument("--partitions", type=int, default=64)
    xp.set_defaults(fn=_cmd_export)

    cp = sub.add_parser(
        "compact", help="fragment dir -> few large parquet files (resumable)"
    )
    cp.add_argument("input")
    cp.add_argument("output")
    cp.add_argument("--target-mb", type=int, default=128)
    cp.set_defaults(fn=_cmd_compact)

    sp = sub.add_parser(
        "split", help="documents table -> deterministic train/val/test split"
    )
    sp.add_argument("sf_dir")
    sp.add_argument("output")
    sp.add_argument("--pct-test", type=int, default=10)
    sp.add_argument("--pct-val", type=int, default=10)
    sp.set_defaults(fn=_cmd_split)

    bp = sub.add_parser(
        "bpe", help="documents table -> learned BPE merge rules (jsonl)"
    )
    bp.add_argument("sf_dir")
    bp.add_argument("output")
    bp.add_argument("--merges", type=int, default=8)
    bp.set_defaults(fn=_cmd_bpe)

    args = ap.parse_args(argv)
    _init_ray(args.num_cpus)
    out = args.fn(args)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
