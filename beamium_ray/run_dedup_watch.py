"""Watch-mode incremental dedup daemon over a parquet landing dir.

    python -m beamium_ray.run_dedup_watch --input landing/ --store st/ \
        --mode exact|minhash|semantic|span [--scan-period S] \
        [--max-ticks N] [--idle-exit K] [--num-cpus N] \
        [--store-ttl-ticks T] [--compact-every K] [--output out/]

The training-data sibling of ``run_watch``: the same scan-period
directory loop, durable seen-set, and two-phase pending/seen
exactly-once protocol (the reference daemon's shape,
``src/lib/asynch/fs.rs:29-145``), but each tick folds the new parquet
files into one of the durable incremental dedup stores
(``datapipe/incdedup.py``) instead of the rollup block store. The
tick's ``batch_key`` is the file batch's fingerprint, so a crash
between the store's manifest promotion and the watcher's own
seen-promotion replays as a NO-OP (the stores' committed-replay
contract) — exactly-once end to end.

Per tick it prints one JSON line; ``--store-ttl-ticks`` /
``--compact-every`` run the store lifecycle (``state/storegc.py``
semantics) inside the loop like ``run_watch`` does for block
retention.

Modes: ``exact`` (128-bit content hash), ``minhash`` (near-dup,
``--threshold``), ``semantic`` (embedding SemDeDup, ``--vec-col``),
``span`` (ExactSubstr duplicate-window removal over a tokens column —
the one mode with a REWRITTEN payload, landed per tick under
``--output/shard=<fp>/``, swept + rewritten on replay).
"""

from __future__ import annotations

import argparse
import json
import sys


def _semantic_params(args) -> dict:
    """The store-committed dedup parameters: a restart with DIFFERENT
    values would silently mix incompatible semantics into one durable
    store (a span store with mixed window widths stops matching; a
    threshold change can't un-merge committed clusters), so they are
    recorded at first run and verified on every restart — the same
    refusal the watcher's hot reload and run_clean --shards apply."""
    keep = {
        "exact": ("mode", "text_col", "id_col"),
        "minhash": ("mode", "text_col", "id_col", "threshold"),
        "semantic": ("mode", "vec_col", "id_col", "threshold"),
        "span": ("mode", "tokens_col", "id_col", "window"),
    }[args.mode]
    return {k: getattr(args, k) for k in keep}


def _check_store_params(args) -> None:
    import os

    want = _semantic_params(args)
    p = os.path.join(args.store, "_cli.json")
    if not os.path.exists(p):
        # first run: create the file EXCLUSIVELY (link fails when the
        # name exists), so of two daemons starting on one fresh store
        # the loser re-reads the winner's parameters below and is
        # refused on a mismatch instead of silently overwriting them
        os.makedirs(args.store, exist_ok=True)
        tmp = f"{p}.tmp.{os.getpid()}"
        with open(tmp, "w") as f:
            json.dump(want, f, sort_keys=True)
        try:
            os.link(tmp, p)
        except FileExistsError:
            pass
        finally:
            os.unlink(tmp)
    try:
        with open(p) as f:
            have = json.load(f)
    except (json.JSONDecodeError, OSError):
        have = None
    if have != want:
        raise SystemExit(
            f"config error: store {args.store!r} was committed with "
            f"{have} but this run has {want} — restarting with "
            "different dedup semantics would corrupt the durable "
            "store; use a fresh --store (or restore the original "
            "parameters)"
        )


def _build(args):
    from beamium_ray.datapipe.incdedup import (
        IncrementalExactDedup,
        IncrementalMinHashDedup,
        IncrementalSemanticDedup,
        IncrementalSpanDedup,
    )

    if args.mode == "exact":
        return IncrementalExactDedup(
            args.store, text_col=args.text_col, id_col=args.id_col
        )
    if args.mode == "minhash":
        return IncrementalMinHashDedup(
            args.store,
            threshold=args.threshold,
            text_col=args.text_col,
            id_col=args.id_col,
        )
    if args.mode == "semantic":
        return IncrementalSemanticDedup(
            args.store,
            threshold=args.threshold,
            vec_col=args.vec_col,
            id_col=args.id_col,
        )
    return IncrementalSpanDedup(
        args.store, list_col=args.tokens_col, id_col=args.id_col,
        window=args.window,
    )


def main(argv: list[str] | None = None) -> int:
    from beamium_ray.cli import add_daemon_args, run_daemon

    ap = argparse.ArgumentParser(prog="beamium_ray.run_dedup_watch")
    ap.add_argument("--input", required=True,
                    help="landing dir of *.parquet document batches")
    ap.add_argument("--store", required=True,
                    help="durable incremental store dir (also holds the "
                         "watcher state under _run/)")
    ap.add_argument("--mode", required=True,
                    choices=["exact", "minhash", "semantic", "span"])
    ap.add_argument("--output", default=None,
                    help="span mode: dir for the cleaned per-tick output "
                         "(shard=<batch fp>/ parquet)")
    ap.add_argument("--text-col", default="text")
    ap.add_argument("--id-col", default="doc_id")
    ap.add_argument("--vec-col", default="embedding")
    ap.add_argument("--tokens-col", default="tokens")
    # None = the mode's own library default (minhash 0.8, semantic
    # 0.95) — one shared CLI default would silently override SemDeDup's
    # 0.95 contract and bake the wrong threshold into the store forever
    ap.add_argument("--threshold", type=float, default=None)
    ap.add_argument("--window", type=int, default=50)
    add_daemon_args(ap)
    ap.add_argument("--seen-prune", action="store_true",
                    help="bound the durable seen-set by the live landing "
                         "dir (consumed files tombstoned)")
    ap.add_argument("--store-ttl-ticks", type=int, default=None,
                    help="expire store partitions older than T ticks")
    ap.add_argument("--compact-every", type=int, default=None,
                    help="compact the store every K committed ticks")
    args = ap.parse_args(argv)
    if args.threshold is None:
        args.threshold = {"minhash": 0.8, "semantic": 0.95}.get(
            args.mode, 0.8
        )
    if args.mode == "span" and not args.output:
        print("config error: span mode needs --output for the cleaned "
              "batches", file=sys.stderr)
        return 2
    # the scan is a recursive *.parquet glob: a store/output nested
    # under --input would be re-ingested as fresh batches every tick —
    # a self-ingestion feedback loop
    import os

    inp_real = os.path.realpath(args.input)
    for name, path in (("--store", args.store), ("--output", args.output)):
        if path and os.path.commonpath(
            [os.path.realpath(path), inp_real]
        ) == inp_real:
            print(f"config error: {name} {path!r} is inside --input "
                  f"{args.input!r}; the daemon would re-ingest its own "
                  "files — point it outside the landing dir",
                  file=sys.stderr)
            return 2
    try:
        _check_store_params(args)
    except SystemExit as ex:
        print(ex, file=sys.stderr)
        return 2

    import ray.data

    from beamium_ray.config import EngineConfig
    from beamium_ray.pipelines.watch import DirectoryWatcher

    dd = _build(args)

    def appender(ds, files):
        # the INTENT-TIME fingerprint from the watcher's pending record
        # (FileBatch) — recomputing from the files could diverge if a
        # producer touched one in the intent→append window, and a crash
        # replay would then re-ingest the committed batch
        key = files.fingerprint
        out = dd.tick(ds, batch_key=key)
        run = {"batch_key": key}
        if args.mode == "span":
            import shutil

            sdir = os.path.join(args.output, f"shard={key}")
            if os.path.isdir(sdir):  # crash residue: deterministic redo
                shutil.rmtree(sdir)
            out.write_parquet(sdir)
            run["rows_out"] = (
                ray.data.read_parquet(sdir).count()
                if os.path.isdir(sdir) and os.listdir(sdir)
                else 0
            )
            run["output"] = sdir
        else:
            # assignments() is None before the first manifest commit
            # (e.g. a zero-row first batch): 0, not a crash that would
            # wedge the pending record permanently
            run["assignments"] = 0 if out is None else out.count()
        run["store_tick"] = dd.store.committed_tick()
        return run

    w = DirectoryWatcher(
        args.input,
        EngineConfig(),
        args.store,
        file_extension="parquet",
        loader=lambda files: ray.data.read_parquet(files),
        appender=appender,
        seen_prune=args.seen_prune,
    )

    skip_totals = {"files_ttl_evicted": 0, "compacted": 0}
    live = {"ticks": 0, "files_applied": 0, "files_replayed": 0}

    def provider():
        return {"watch_ticks": live["ticks"],
                "dedup_files_applied": live["files_applied"],
                # crash-heal replays are committed no-ops, not applies
                "dedup_files_replayed": live["files_replayed"],
                "store_files_ttl_evicted": skip_totals["files_ttl_evicted"],
                "store_files_compacted": skip_totals["compacted"]}

    def on_tick(res, ticks):
        live["ticks"] = ticks
        if not (res["applied"] or res["replayed"]):
            return
        live["files_applied"] += len(res["applied"])
        live["files_replayed"] += len(res["replayed"])
        if args.store_ttl_ticks is not None:
            gc = dd.retention(max_ticks=args.store_ttl_ticks)
            skip_totals["files_ttl_evicted"] += gc.get("files_deleted", 0)
        tick_no = dd.store.committed_tick()
        if args.compact_every and tick_no and (
            tick_no % args.compact_every == 0
        ):
            skip_totals["compacted"] += dd.compact()
        print(json.dumps({"tick": ticks, **res["run"],
                          "applied_files": len(res["applied"]),
                          "replayed_files": len(res["replayed"])}),
              flush=True)

    return run_daemon(
        args, w.tick, on_tick, provider,
        lambda res: {"ticks": res["ticks"], "mode": args.mode, **skip_totals},
        "parquet",
    )


if __name__ == "__main__":
    sys.exit(main())
