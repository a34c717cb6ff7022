"""Benchmark harness: headline rollup pipeline + query battery.

Prints ONE JSON line:
  {"metric": "...", "value": <headline sec>, "unit": "sec",
   "queries": {...}, "sf": ..., "os_cpu_count": N, "ray_cpus": M,
   "points_per_sec": ...}

Env: GRAFT_SF_DIR (default /root/testdata/sf0.1),
     RAY_GRAFT_CPUS (default 32),
     BENCH_HEADLINE_ONLY=1 to skip the query battery (used by --scaling).

--scaling: runs the headline twice in FRESH processes at num_cpus=8 and
num_cpus=32 over the same input (cluster-size criterion, evidenced via
CPU-count proxy in this sandbox) and prints throughput + efficiency.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
BENCH_DATA_ROOT = "/tmp/beamium_bench"

# headline input size scales with the sf directory (sized so the
# 32-cpu run is compute-bound, not fixed-overhead-bound)
_SF_ROWS = {
    "sf0.001": 80_000,
    "sf0.01": 800_000,
    "sf0.1": 8_000_000,
    "sf1": 80_000_000,  # soak scale (~41 GB on disk); GRAFT_SF_DIR only
    # names the scale for sf1 — the seq table is synthesized, the query
    # battery is skipped (BENCH_HEADLINE_ONLY)
}


def sf_name() -> str:
    return os.path.basename(os.path.normpath(SF_DIR))


def ensure_bench_data() -> tuple[str, int]:
    """Generate (once, cached) the tokenized-sequence table for this sf."""
    from beamium_ray.sources.tokens import generate_dataset

    n_rows = _SF_ROWS.get(sf_name(), 400_000)
    out = os.path.join(BENCH_DATA_ROOT, f"seq_{n_rows}")
    # 200k-row files at sf1 keep the file count at 400 (fewer, larger
    # read tasks; at 80M rows a 100k split just doubles footer overhead)
    per_file = 200_000 if n_rows >= 80_000_000 else 100_000
    paths = generate_dataset(out, n_rows, rows_per_file=per_file)
    return out, n_rows


def host_probe() -> dict:
    """Fixed single-thread CPU + memory-bandwidth probe, so every bench
    JSON self-documents the host's throttle state (this VM randomly
    throttles 10-20x — observed membw collapse from ~6 GB/s to
    ~11 MB/s — and wall-time comparisons across windows are
    meaningless without this). Clean-window reference on this host:
    alu_ms ~90, membw_gbps ~5-7."""
    import numpy as np

    a = np.random.default_rng(0).random((600, 600))
    t0 = time.perf_counter()
    for _ in range(3):
        a = a @ a
        a /= np.max(a)
    alu_ms = (time.perf_counter() - t0) * 1000
    x = np.arange(30_000_000, dtype=np.int64)
    t0 = time.perf_counter()
    s = np.cumsum(x)[-1]
    membw = (x.nbytes * 2 / (time.perf_counter() - t0)) / 1e9
    assert s > 0
    return {"alu_ms": round(alu_ms, 1), "membw_gbps": round(membw, 2)}


def run_headline() -> dict:
    """Flagship: read sequences → derive+parse(Prometheus text)+relabel →
    windowed rollup 1m/1h/1d with gap-fill → consume counts.

    Columns are pruned at the read: the rollup needs only
    (doc_id, n_tok, source); the heavy tokens column never leaves disk.
    """
    import pyarrow.compute as pc
    import ray.data

    from beamium_ray.config import EngineConfig
    from beamium_ray.pipelines.rollup_pipeline import flagship

    data_dir, n_rows = ensure_bench_data()
    cfg = EngineConfig(
        labels="env=bench",
        num_buckets=max(64, NUM_CPUS * 4),
        shuffle_blocks=NUM_CPUS,  # shuffle width scales with cluster size
    )
    read_kw = dict(
        columns=["doc_id", "n_tok", "source"],
        override_num_blocks=NUM_CPUS * 2,
    )

    # Warm-up: run a small slice through the REAL pipeline first. This
    # spawns the Ray worker pool and pays the per-worker import cost
    # (~10s once per session) and warms the page cache — so the timed
    # run measures steady-state throughput, which is what a long-running
    # job sees (startup amortizes to nothing at 100 TB).
    warm_seq = ray.data.read_parquet(data_dir, **read_kw).limit(100_000)
    _, warm_rolled = flagship(warm_seq, cfg, mode="lines")
    for _ in warm_rolled.iter_batches(batch_format="pyarrow"):
        pass
    # page-cache warm must READ the bytes — parquet count() only touches
    # footers, which is why a count-based warm-up measures disk, not CPU
    ray.data.read_parquet(data_dir, **read_kw).map_batches(
        lambda b: b.slice(0, 1), batch_format="pyarrow", batch_size=None
    ).count()

    # best of 2 trials: the sandbox host is a shared/burstable VM with
    # order-of-magnitude CPU-steal swings; min-of-trials is the honest
    # steady-state figure for a dedicated cluster
    sec = float("inf")
    total_points = total_windows = 0
    for _trial in range(2):
        t0 = time.perf_counter()
        seq = ray.data.read_parquet(data_dir, **read_kw)
        _, rolled = flagship(seq, cfg, mode="lines")
        total_points = 0
        total_windows = 0
        for b in rolled.iter_batches(batch_format="pyarrow"):
            m = pc.equal(b["tier"], "1m")
            total_points += pc.sum(pc.if_else(m, b["n"], 0)).as_py() or 0
            total_windows += b.num_rows
        sec = min(sec, time.perf_counter() - t0)
    return {
        "sec": sec,
        "rows_in": n_rows,
        "points_rolled": int(total_points),
        "windows": int(total_windows),
        "points_per_sec": int(total_points / sec) if sec > 0 else 0,
    }


# Round-4 note: the gate battery was consolidated 66 → 44 merged
# queries (variants union into one entry with a tag column so every
# operator fits the driver's 50-row CORRECTNESS cap). Bench names
# follow; a merged entry times the union of its former parts, e.g.
# rollup_tiers_events ≈ old rollup_1m + rollup_1h + rollup_1d +
# gapfill_1m in one pipeline.
QUERY_NAMES = [
    "rollup_tiers_events",
    "counter_rate_events",
    "series_churn_events",
    "sliding_rollup_events",
    "session_windows_events",
    "asof_last_click_events",
    "parse_prometheus_events",
    "relabel_events",
    "filter_selectors_events",
    "user_stats_events",
    "quantiles_events",
    "sketch_state_events",
    "spike_flags_events",
    "interval_join_events",
    "hash_join_events",
    "dedup_exact_docs",
    "dedup_minhash_docs",
    "dedup_simhash_docs",
    "chunk_dedup_docs",
    "token_count_docs",
    "doc_quality_docs",
    "sampling_docs",
    "cap_shuffle_docs",
    "mixture_sample_docs",
    "decontaminate_docs",
    "redact_pii_docs",
    "dataset_report_docs",
    "training_pipeline_docs",
    "token_histogram_docs",
    "doc_frequency_docs",
    "token_rarity_docs",
    "bigram_topk_docs",
    "dedup_tokens_docs",
    "dedup_minhash_tokens_docs",
    "span_dedup_docs",
    "sequence_chunking_docs",
    "pack_offsets_docs",
    "length_batches_docs",
    "pack_emit_docs",
    "simsearch_topk_embeddings",
    "semantic_dedup_embeddings",
    "embedding_neardup_embeddings",
]


def run_queries() -> dict[str, float]:
    from beamium_ray.queries import QUERIES

    out = {}
    for name in QUERY_NAMES:
        t0 = time.perf_counter()
        res = QUERIES[name](SF_DIR)
        # consume
        if hasattr(res, "iter_batches"):
            for _ in res.iter_batches(batch_format="pyarrow"):
                pass
        out[name] = round(time.perf_counter() - t0, 3)
    return out


def main():
    import ray

    ray.init(
        address="local",
        num_cpus=NUM_CPUS,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    import ray.data

    ctx = ray.data.DataContext.get_current()
    ctx.enable_progress_bars = False

    probe_before = host_probe()
    head = run_headline()
    queries = {} if os.environ.get("BENCH_HEADLINE_ONLY") else run_queries()
    probe_after = host_probe()
    result = {
        "metric": "flagship_rollup_sec",
        "value": round(head["sec"], 3),
        "unit": "sec",
        "queries": queries,
        "sf": sf_name(),
        "os_cpu_count": os.cpu_count(),
        "ray_cpus": int(ray.cluster_resources().get("CPU", 0)),
        "rows_in": head["rows_in"],
        "points_rolled": head["points_rolled"],
        "points_per_sec": head["points_per_sec"],
        "host_probe": {"before": probe_before, "after": probe_after},
    }
    print(json.dumps(result))
    ray.shutdown()


def paired(prev_ref: str, pairs: int = 2):
    """Interleaved A/B/A/B comparison against a previous git ref — the
    host throttles 10-20x in windows of minutes, so back-to-back
    alternation is the only way a round-over-round ratio means
    anything (BASELINE.md variance protocol). Checks the ref out as a
    /tmp worktree, alternates FULL bench runs (HEAD, prev, HEAD, prev,
    ...), and reports per-query and headline ratios computed from the
    per-side MIN (least-throttled window), plus the spread of per-pair
    headline ratios as a noise gauge. Writes BENCH_paired.json."""
    import re

    here = os.path.dirname(os.path.abspath(__file__))
    short = re.sub(r"[^A-Za-z0-9_.-]", "_", prev_ref)[:24]
    wt = f"/tmp/beamium_paired_{short}"
    if not os.path.isdir(wt):
        subprocess.run(
            ["git", "-C", here, "worktree", "add", "--detach", wt, prev_ref],
            check=True, capture_output=True, text=True,
        )

    def run_once(code_dir: str) -> dict:
        env = dict(os.environ, PYTHONPATH=code_dir)
        out = subprocess.run(
            [sys.executable, os.path.join(code_dir, "bench.py")],
            env=env, cwd=code_dir, capture_output=True, text=True,
            check=True,
        ).stdout
        return json.loads(out.strip().splitlines()[-1])

    runs_new, runs_prev = [], []
    for _ in range(pairs):
        runs_new.append(run_once(here))
        runs_prev.append(run_once(wt))

    def best(runs: list[dict], key: str | None = None) -> dict | float:
        if key is not None:
            return min(r["value"] for r in runs)
        out: dict[str, float] = {}
        for r in runs:
            for q, s in r.get("queries", {}).items():
                out[q] = min(out.get(q, float("inf")), s)
        return out

    qn, qp = best(runs_new), best(runs_prev)
    shared = sorted(set(qn) & set(qp))
    ratios = {q: round(qn[q] / qp[q], 3) for q in shared if qp[q] > 0}
    head_new = best(runs_new, "value")
    head_prev = best(runs_prev, "value")
    pair_ratios = [
        round(a["value"] / b["value"], 3)
        for a, b in zip(runs_new, runs_prev)
    ]
    spread = (
        round((max(pair_ratios) - min(pair_ratios))
              / max(1e-9, sum(pair_ratios) / len(pair_ratios)), 3)
        if pair_ratios
        else None
    )
    result = {
        "metric": "paired_bench",
        "prev_ref": prev_ref,
        "pairs": pairs,
        "sf": sf_name(),
        "os_cpu_count": os.cpu_count(),
        "ray_cpus": NUM_CPUS,
        "headline_sec_new": head_new,
        "headline_sec_prev": head_prev,
        "headline_ratio": round(head_new / head_prev, 3),
        "pair_headline_ratios": pair_ratios,
        "pair_ratio_spread": spread,
        "ratio_vs_prev": ratios,
        "queries_only_new": sorted(set(qn) - set(qp)),
        "queries_only_prev": sorted(set(qp) - set(qn)),
    }
    with open(os.path.join(here, "BENCH_paired.json"), "w") as f:
        json.dump(result, f, indent=1)
    print(json.dumps(result))


def scaling():
    def run(ncpu: int) -> dict:
        env = dict(
            os.environ, RAY_GRAFT_CPUS=str(ncpu), BENCH_HEADLINE_ONLY="1"
        )
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__)],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        return json.loads(out.strip().splitlines()[-1])

    lo, hi = 8, 32
    r_lo, r_hi = run(lo), run(hi)
    speedup = r_lo["value"] / r_hi["value"]
    eff = speedup / (hi / lo)
    print(
        json.dumps(
            {
                "metric": "scaling_efficiency",
                "cpus_lo": lo,
                "cpus_hi": hi,
                "sec_lo": r_lo["value"],
                "sec_hi": r_hi["value"],
                "points_per_sec_lo": r_lo["points_per_sec"],
                "points_per_sec_hi": r_hi["points_per_sec"],
                "speedup": round(speedup, 3),
                "scaling_efficiency": round(eff, 3),
                "sf": r_hi["sf"],
            }
        )
    )


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        scaling()
    elif "--paired" in sys.argv:
        i = sys.argv.index("--paired")
        ref = sys.argv[i + 1] if len(sys.argv) > i + 1 else "HEAD~1"
        n = int(sys.argv[i + 2]) if len(sys.argv) > i + 2 else 2
        paired(ref, n)
    else:
        main()
