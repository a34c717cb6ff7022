"""sf1-scale soak of verified MinHash dedup at two parallelism levels.

Synthesizes a documents-shaped table (deterministic: content is a pure
function of doc_id; ~`--docs` rows with planted near-duplicate groups)
then runs ``minhash_dedup(verify_threshold=0.8)`` end-to-end in TWO
fresh Ray sessions (``--cpus-lo`` and ``--cpus-hi``) over the same
parquet input, reporting docs/sec at both plus the scaling efficiency
(the north-rule two-cluster-size criterion, evidenced via the
CPU-count proxy — same protocol as ``bench.py --scaling``).

    python tools/soak_minhash.py [--docs 200000] [--cpus-lo 8]
                                 [--cpus-hi 32]

Prints one JSON line.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

# words are 5 pseudo-random LETTERS (26^5 ≈ 11.8M vocab): digit-heavy
# tokens ("w12345") share so many character shingles that LSH banding
# emits ~2M false candidate pairs at 200k docs — an artifact of the
# fixture, not the engine; alphabetic tokens give realistic shingle
# diversity so only the PLANTED near-dups collide
WORD_LEN = 5

DATA_ROOT = "/tmp/beamium_bench"


def synth_docs(out_dir: str, n_docs: int, dup_every: int = 10) -> None:
    """Deterministic corpus: every ``dup_every``-th doc gets a planted
    near-duplicate (one word substituted) so verified dedup does real
    work. Content is a pure function of doc_id — idempotent, and any
    two runs (or processes) agree byte-for-byte. Fully vectorized
    (60-word docs built as one (n, 60, 6) byte tensor) so multi-million
    -doc fixtures synthesize in seconds, not minutes."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    os.makedirs(out_dir, exist_ok=True)

    N_WORDS = 60

    def chars_for(ids: np.ndarray) -> np.ndarray:
        """(len(ids), N_WORDS*6) uint8 text bytes (word + space each)."""
        # splitmix64-style mix per (doc, position): uncorrelated draws
        with np.errstate(over="ignore"):
            x = (ids.astype(np.uint64)[:, None]
                 * np.uint64(0x9E3779B97F4A7C15)
                 + np.arange(N_WORDS, dtype=np.uint64)[None, :]
                 * np.uint64(0xBF58476D1CE4E5B9))
            x = (x ^ (x >> np.uint64(31))) * np.uint64(0x94D049BB133111EB)
            x = x ^ (x >> np.uint64(29))
        out = np.full((len(ids), N_WORDS, WORD_LEN + 1), ord(" "), np.uint8)
        div = np.uint64(1)
        for j in range(WORD_LEN):
            out[:, :, j] = (97 + (x // div) % np.uint64(26)).astype(np.uint8)
            div *= np.uint64(26)
        return out.reshape(len(ids), N_WORDS * (WORD_LEN + 1))

    per_file = 50_000
    for fidx, start in enumerate(range(0, n_docs, per_file)):
        path = os.path.join(out_dir, f"documents-{fidx:05d}.parquet")
        if os.path.exists(path):
            continue
        n = min(per_file, n_docs - start)
        ids = np.arange(start, start + n, dtype=np.int64)
        chars = chars_for(ids)
        # near-dups: doc did (did%dup_every==1, did>0) = copy of did-1
        # with word 7 replaced by "mutnt" (one-word substitution keeps
        # 5-gram Jaccard ~0.93 > the 0.8 verify threshold)
        dup = (ids % dup_every == 1) & (ids > 0)
        chars[dup] = chars_for(ids[dup] - 1)
        w7 = 7 * (WORD_LEN + 1)
        chars[dup, w7: w7 + WORD_LEN] = np.frombuffer(b"mutnt", np.uint8)
        # drop each row's trailing space, view as fixed-width bytes
        body = chars[:, :-1].copy()
        texts = pa.array(
            body.view(f"S{body.shape[1]}").ravel()
        ).cast(pa.string())
        # small row groups so read_parquet(override_num_blocks=...) can
        # split a file into many scan tasks — with one row group per
        # file the whole soak caps at 4-way parallelism and the 32-cpu
        # leg measures the INPUT layout, not the engine (profiled:
        # sig stage 50 s of 58 s, 4 tasks on 32 cpus). 1,250 rows/group
        # gives 40 groups/file (160 total at 200k docs) so the hi leg's
        # ~96 requested blocks are actually satisfiable — at 5,000 the
        # 40 total groups ran as 2 uneven task waves on 32 cpus and the
        # sig stage measured 37% parallel efficiency.
        pq.write_table(
            pa.table({"doc_id": pa.array(ids), "text": texts}),
            path,
            row_group_size=1_250,
        )


def run_once(data_dir: str, ncpu: int, distributed: bool | None = None) -> dict:
    import ray

    ray.init(address="local", num_cpus=ncpu, include_dashboard=False,
             logging_level="ERROR")
    import ray.data

    ray.data.DataContext.get_current().enable_progress_bars = False
    from beamium_ray.datapipe.dedup import minhash_dedup

    ds = ray.data.read_parquet(data_dir, override_num_blocks=ncpu * 3)
    # max_broadcast_pairs=0 forces the distributed verification route
    route = {"max_broadcast_pairs": 0} if distributed else {}
    # warm-up: worker spawn + imports on a slice
    minhash_dedup(ds.limit(2_000), verify_threshold=0.8, **route).count()

    metrics: dict = {}
    t0 = time.perf_counter()
    out = minhash_dedup(ds, verify_threshold=0.8, metrics=metrics, **route)
    n_docs = out.count()
    # distinct-cluster count over the narrow materialized labelling,
    # driver-side: a Ray groupby on this 200k-row table costs ~15 s of
    # pure shuffle overhead (measured) and would be charged to the
    # engine; the labelling is (int64, int64) so streaming it is cheap
    import numpy as np

    parts = [np.unique(b["cluster"].to_numpy())
             for b in out.iter_batches(batch_format="pyarrow")]
    clusters = int(len(np.unique(np.concatenate(parts)))) if parts else 0
    sec = time.perf_counter() - t0
    ray.shutdown()
    return {"sec": round(sec, 3), "docs": n_docs, "clusters": clusters,
            "docs_per_sec": int(n_docs / sec), "num_cpus": ncpu,
            "path": metrics.get("path"),
            "phase_seconds": metrics.get("phase_seconds")}


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--docs", type=int, default=200_000)
    ap.add_argument("--cpus-lo", type=int, default=8)
    ap.add_argument("--cpus-hi", type=int, default=32)
    ap.add_argument("--distributed", action="store_true",
                    help="force the distributed verification path (the "
                         "100 TB mode: pairs/payloads never touch the "
                         "driver)")
    ap.add_argument("--_leg", type=int, default=None, help="internal")
    args = ap.parse_args()

    # v3: vectorized generator ("mutnt" substitution word) + 1,250-row
    # groups — new dir so stale fixtures don't mix generations
    data_dir = os.path.join(DATA_ROOT, f"docs_{args.docs}_v3")
    dist = True if args.distributed else None
    if args._leg is not None:
        synth_docs(data_dir, args.docs)
        print(json.dumps(run_once(data_dir, args._leg, dist)))
        return

    synth_docs(data_dir, args.docs)

    def leg(ncpu: int) -> dict:
        cmd = [sys.executable, os.path.abspath(__file__),
               "--docs", str(args.docs), "--_leg", str(ncpu)]
        if args.distributed:
            cmd.append("--distributed")
        out = subprocess.run(
            cmd, capture_output=True, text=True, check=True,
        ).stdout
        return json.loads(out.strip().splitlines()[-1])

    lo, hi = leg(args.cpus_lo), leg(args.cpus_hi)
    speedup = lo["sec"] / hi["sec"]
    eff = speedup / (args.cpus_hi / args.cpus_lo)
    print(json.dumps({
        "metric": "minhash_verified_scaling",
        "docs": args.docs,
        "clusters": hi["clusters"],
        "sec_lo": lo["sec"], "sec_hi": hi["sec"],
        "docs_per_sec_lo": lo["docs_per_sec"],
        "docs_per_sec_hi": hi["docs_per_sec"],
        "cpus_lo": args.cpus_lo, "cpus_hi": args.cpus_hi,
        "speedup": round(speedup, 3),
        "scaling_efficiency": round(eff, 3),
        "path": hi["path"],
        "phase_seconds_lo": lo["phase_seconds"],
        "phase_seconds_hi": hi["phase_seconds"],
    }))


if __name__ == "__main__":
    main()
