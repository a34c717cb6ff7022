"""Incremental dedup tick latency against store age.

Drives ``IncrementalExactDedup`` / ``IncrementalMinHashDedup.tick``
directly over a fresh store, one batch of the same size per tick,
with ``--dup-frac`` of each batch exact copies of earlier docs, in a
one-CPU Ray session. Times every tick and, inside it,
the store's committed-partition reads (``_read_hash_rows``, or
``_read_band_rows`` + ``_read_docs``) and the commit (``_commit_tick``:
assignment rewrite, partition writes, manifest switch).

    python tools/soak_dedup_tick.py [--mode exact|minhash] [--ticks 40]
        [--docs-per-tick 2000] [--dup-frac 0.1]

Prints one JSON line: seconds per tick, read and commit at ticks 1,
10, 20 and 40 (those within ``--ticks``), and the final assignment
check (exact mode: one cluster per distinct text).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

REPORT_TICKS = (1, 10, 20, 40)


def batch(tick: int, n: int, dup_frac: float, earlier):
    """(ids, source ids) of tick ``tick``: doc ``tick * n + j`` has the
    text of its source id; a ``dup_frac`` share of the batch copies the
    text of a random earlier doc (``earlier`` holds every earlier
    doc's source id; on tick 0, doc 0's)."""
    import numpy as np

    rng = np.random.default_rng(tick)
    ids = np.arange(tick * n, (tick + 1) * n, dtype=np.int64)
    src = ids.copy()
    n_dup = int(round(n * dup_frac))
    if n_dup:
        pos = rng.choice(np.arange(1, n), size=n_dup, replace=False)
        pool = earlier if len(earlier) else ids[:1]
        src[pos] = pool[rng.integers(0, len(pool), size=n_dup)]
    return ids, src


def text_of(i: int) -> str:
    """Deterministic 40-word text per source id."""
    x = (i * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    words = []
    for _ in range(40):
        x = (x * 6364136223846793005 + 1442695040888963407) & (2**64 - 1)
        words.append(format(x >> 40, "x"))
    return " ".join(words)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="soak_dedup_tick")
    ap.add_argument("--mode", choices=["exact", "minhash"], default="exact")
    ap.add_argument("--ticks", type=int, default=40)
    ap.add_argument("--docs-per-tick", type=int, default=2000)
    ap.add_argument("--dup-frac", type=float, default=0.1)
    args = ap.parse_args(argv)

    import numpy as np
    import pyarrow as pa

    from beamium_ray.cli import ray_session
    from beamium_ray.datapipe.incdedup import (
        IncrementalExactDedup,
        IncrementalMinHashDedup,
    )

    cls = {"exact": IncrementalExactDedup,
           "minhash": IncrementalMinHashDedup}[args.mode]
    reads = ("_read_hash_rows",) if args.mode == "exact" else (
        "_read_band_rows", "_read_docs",
    )
    spent = {"read": 0.0, "commit": 0.0}

    def timed(fn, key):
        def run(*a, **kw):
            t0 = time.perf_counter()
            try:
                return fn(*a, **kw)
            finally:
                spent[key] += time.perf_counter() - t0

        return run

    for name in reads:
        setattr(cls, name, timed(getattr(cls, name), "read"))
    cls._commit_tick = timed(cls._commit_tick, "commit")

    root = tempfile.mkdtemp(prefix="soak_dedup_tick_")
    try:
        with ray_session(1):
            import ray.data

            def ds(ids, src):
                return ray.data.from_arrow(
                    pa.table(
                        {
                            "doc_id": pa.array(ids, pa.int64()),
                            "text": pa.array([text_of(int(s)) for s in src]),
                        }
                    )
                )

            # warm-up on a throwaway store: worker start and imports
            # are not store age
            cls(os.path.join(root, "warm")).tick(
                ds(np.arange(8, dtype=np.int64), np.arange(8) % 4)
            )
            dd = cls(os.path.join(root, "store"))
            per_tick = []
            srcs = np.zeros(0, np.int64)
            for t in range(args.ticks):
                ids, src = batch(t, args.docs_per_tick, args.dup_frac, srcs)
                srcs = np.concatenate([srcs, src])
                new = ds(ids, src)
                spent["read"] = spent["commit"] = 0.0
                t0 = time.perf_counter()
                out = dd.tick(new, batch_key=f"b{t}")
                per_tick.append(
                    (time.perf_counter() - t0, spent["read"], spent["commit"])
                )
            rows = out.count()
            clusters = out.select_columns(["cluster"]).unique("cluster")
    finally:
        shutil.rmtree(root, ignore_errors=True)

    at = [k for k in REPORT_TICKS if k <= args.ticks]
    res = {
        "mode": args.mode,
        "ticks": args.ticks,
        "docs_per_tick": args.docs_per_tick,
        "dup_frac": args.dup_frac,
        "num_cpus": 1,
        "tick_s": {k: round(per_tick[k - 1][0], 4) for k in at},
        "read_s": {k: round(per_tick[k - 1][1], 4) for k in at},
        "commit_s": {k: round(per_tick[k - 1][2], 4) for k in at},
        "total_tick_s": round(sum(p[0] for p in per_tick), 3),
        "assign_rows": rows,
        "clusters": len(clusters),
    }
    if args.mode == "exact":
        res["distinct_texts"] = len(np.unique(srcs))
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
