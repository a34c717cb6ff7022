"""Seeded, cached input generators for the three benchmark workloads.

Every input is a pure function of the seed, so two checkouts (an A/B
pair) given the same seed read byte-identical files; the sha256 of the
bytes is returned with the inputs and printed with every result.

Inputs are built once per (workload, seed) under ``.bench_cache/`` in
the checkout (tmp dir + rename, so a killed build is never reused) and
only the most recent few seeds per workload are kept on disk.
Generation is never inside a timed region.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil

import numpy as np

# Bump when the generated bytes change for a given seed.
GEN_VERSION = 1
KEEP_SEEDS = 10

# ingest: sequences through derive/parse/relabel/rollup into a fresh
# store. 100k rows keep one pass near 2 s on one core, so a run gets
# several passes to take a median over.
INGEST_ROWS = 100_000
INGEST_ROWS_PER_FILE = 50_000

# watch: SERIES series scraped every 15 s. The store starts with
# PREFILL_SCRAPES scrapes (two hours); each tick lands TICK_SCRAPES
# more (one minute). STAGED files cover the longest run.
WATCH_SERIES = 500
WATCH_PREFILL_SCRAPES = 480
WATCH_PREFILL_FILES = 8
WATCH_TICK_SCRAPES = 4
WATCH_STAGED = 64
SCRAPE_MS = 15_000
# 2023-11-14T22:13:00Z, minute-aligned, so every 1m window of a series
# holds exactly 4 scrapes
WATCH_BASE_MS = 1_699_999_980_000

# clean: synthetic docs, every 10th doc followed by a planted
# near-duplicate (one word of 60 substituted).
CLEAN_DOCS = 10_000
CLEAN_DUP_EVERY = 10
CLEAN_WORDS = 60
CLEAN_WORD_LEN = 5


def _rng(seed: int, salt: int) -> np.random.Generator:
    return np.random.default_rng([seed, salt])


def _digest(paths: list[str]) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(os.path.basename(p).encode())
        with open(p, "rb") as f:
            for chunk in iter(lambda: f.read(1 << 20), b""):
                h.update(chunk)
    return h.hexdigest()


def _cached(cache_root: str, workload: str, seed: int, build) -> dict:
    """Return the cached input description for (workload, seed),
    building it with ``build(dir) -> dict`` on a miss."""
    name = f"{workload}-s{seed}-v{GEN_VERSION}"
    final = os.path.join(cache_root, name)
    desc_path = os.path.join(final, "inputs.json")
    if not os.path.exists(desc_path):
        os.makedirs(cache_root, exist_ok=True)
        tmp = f"{final}.tmp{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        os.makedirs(tmp)
        desc = build(tmp)
        # paths are stored relative to the cache dir so the rename
        # below does not invalidate them
        with open(os.path.join(tmp, "inputs.json"), "w") as f:
            json.dump(desc, f, sort_keys=True)
        shutil.rmtree(final, ignore_errors=True)
        os.replace(tmp, final)
        _evict(cache_root, workload, keep=final)
    os.utime(final)  # most recently used
    with open(desc_path) as f:
        desc = json.load(f)
    for key in ("files", "prefill", "staged"):
        if key in desc:
            desc[key] = [os.path.join(final, p) for p in desc[key]]
    desc["dir"] = final
    return desc


def _evict(cache_root: str, workload: str, keep: str) -> None:
    mine = [
        os.path.join(cache_root, d)
        for d in os.listdir(cache_root)
        if d.startswith(f"{workload}-s")
    ]
    mine.sort(key=os.path.getmtime, reverse=True)
    for d in mine[KEEP_SEEDS:]:
        if d != keep:
            shutil.rmtree(d, ignore_errors=True)


# ---------------------------------------------------------------- ingest

def ingest_offset(seed: int) -> int:
    """First row index for ``seed``. Rows without a timestamp are
    stamped with the parser's ``now``; the row range is chosen so that
    ``now`` falls inside the data, which keeps gap-fill work (and so
    the cost of a pass) the same for every seed."""
    from beamium_ray.stages.derive import DEFAULT_NOW_US, STEP_US, T0_US

    now_row = (DEFAULT_NOW_US - T0_US) // STEP_US
    jitter = int(_rng(seed, 1).integers(0, INGEST_ROWS // 2))
    return now_row - (3 * INGEST_ROWS) // 4 + jitter


def ingest_inputs(cache_root: str, seed: int) -> dict:
    def build(d: str) -> dict:
        import pyarrow.parquet as pq

        from beamium_ray.sources.tokens import make_chunk

        off = ingest_offset(seed)
        files = []
        for i, start in enumerate(range(0, INGEST_ROWS, INGEST_ROWS_PER_FILE)):
            n = min(INGEST_ROWS_PER_FILE, INGEST_ROWS - start)
            name = f"sequences-{i:05d}.parquet"
            pq.write_table(make_chunk(off + start, n), os.path.join(d, name))
            files.append(name)
        return {
            "files": files,
            "rows": INGEST_ROWS,
            "row_offset": off,
            "sha256": _digest([os.path.join(d, f) for f in files]),
        }

    return _cached(cache_root, "ingest", seed, build)


# ----------------------------------------------------------------- watch

def watch_series(seed: int) -> list[str]:
    rng = _rng(seed, 2)
    hosts = rng.choice(10**6, size=WATCH_SERIES, replace=False)
    return [
        f'app.requests{{host="h{h:06d}",dc="dc{h % 5}"}}' for h in hosts
    ]


def watch_base_ms(seed: int) -> int:
    """Timestamp of scrape 0: whole hours after WATCH_BASE_MS, so every
    seed keeps the minute alignment."""
    return WATCH_BASE_MS + int(_rng(seed, 3).integers(0, 1000)) * 3_600_000


def _write_scrapes(path: str, series: list[str], base_ms: int, first: int,
                   count: int, rng: np.random.Generator) -> None:
    vals = rng.integers(0, 400_000, size=(count, len(series)))
    lines = []
    for k in range(count):
        ts = base_ms + (first + k) * SCRAPE_MS
        lines.extend(
            f"{s} {v // 4}.{(v % 4) * 25:02d} {ts}"
            for s, v in zip(series, vals[k].tolist())
        )
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def watch_inputs(cache_root: str, seed: int) -> dict:
    def build(d: str) -> dict:
        series = watch_series(seed)
        base = watch_base_ms(seed)
        rng = _rng(seed, 4)
        per = WATCH_PREFILL_SCRAPES // WATCH_PREFILL_FILES
        prefill, staged = [], []
        for i in range(WATCH_PREFILL_FILES):
            name = f"prefill-{i:04d}.metrics"
            _write_scrapes(os.path.join(d, name), series, base, i * per, per, rng)
            prefill.append(name)
        for i in range(WATCH_STAGED):
            name = f"tick-{i:04d}.metrics"
            first = WATCH_PREFILL_SCRAPES + i * WATCH_TICK_SCRAPES
            _write_scrapes(os.path.join(d, name), series, base, first,
                           WATCH_TICK_SCRAPES, rng)
            staged.append(name)
        return {
            "prefill": prefill,
            "staged": staged,
            "series": len(series),
            "base_ms": base,
            "sha256": _digest([os.path.join(d, f) for f in prefill + staged]),
        }

    return _cached(cache_root, "watch", seed, build)


def watch_last_hour_start_us(base_ms: int, ticks_landed: int) -> int:
    """``min_window`` of the last-hour query once ``ticks_landed`` tick
    files are in: the newest 1m window and the 59 before it."""
    newest_scrape = (
        WATCH_PREFILL_SCRAPES + ticks_landed * WATCH_TICK_SCRAPES - 1
    )
    newest_us = (base_ms + newest_scrape * SCRAPE_MS) * 1000
    return newest_us - newest_us % 60_000_000 - 59 * 60_000_000


# ----------------------------------------------------------------- clean

def _doc_chars(ids: np.ndarray) -> np.ndarray:
    """(len(ids), WORDS*(LEN+1)) text bytes: pseudo-random 5-letter
    words, a pure function of the doc id."""
    with np.errstate(over="ignore"):
        x = (ids.astype(np.uint64)[:, None] * np.uint64(0x9E3779B97F4A7C15)
             + np.arange(CLEAN_WORDS, dtype=np.uint64)[None, :]
             * np.uint64(0xBF58476D1CE4E5B9))
        x = (x ^ (x >> np.uint64(31))) * np.uint64(0x94D049BB133111EB)
        x = x ^ (x >> np.uint64(29))
    out = np.full((len(ids), CLEAN_WORDS, CLEAN_WORD_LEN + 1), ord(" "), np.uint8)
    div = np.uint64(1)
    for j in range(CLEAN_WORD_LEN):
        out[:, :, j] = (97 + (x // div) % np.uint64(26)).astype(np.uint8)
        div *= np.uint64(26)
    return out.reshape(len(ids), CLEAN_WORDS * (CLEAN_WORD_LEN + 1))


def clean_id_offset(seed: int) -> int:
    # a multiple of CLEAN_DUP_EVERY, so every planted duplicate's
    # original is in the corpus
    return CLEAN_DUP_EVERY * int(_rng(seed, 5).integers(0, 10**8))


def clean_planted_keep(seed: int) -> np.ndarray:
    """Doc ids a correct near-dup clean keeps: all but the planted
    duplicates."""
    ids = np.arange(CLEAN_DOCS, dtype=np.int64) + clean_id_offset(seed)
    return ids[ids % CLEAN_DUP_EVERY != 1]


def clean_inputs(cache_root: str, seed: int) -> dict:
    def build(d: str) -> dict:
        import pyarrow as pa
        import pyarrow.parquet as pq

        ids = np.arange(CLEAN_DOCS, dtype=np.int64) + clean_id_offset(seed)
        chars = _doc_chars(ids)
        # doc id%10==1 is a copy of doc id-1 with word 7 replaced
        # (5-gram Jaccard ~0.93, above the 0.8 verify threshold)
        dup = ids % CLEAN_DUP_EVERY == 1
        chars[dup] = _doc_chars(ids[dup] - 1)
        w7 = 7 * (CLEAN_WORD_LEN + 1)
        chars[dup, w7: w7 + CLEAN_WORD_LEN] = np.frombuffer(b"mutnt", np.uint8)
        body = chars[:, :-1].copy()
        texts = pa.array(body.view(f"S{body.shape[1]}").ravel()).cast(pa.string())
        # a directory of its own: run_clean reads every file in it
        name = os.path.join("docs", "documents-00000.parquet")
        os.makedirs(os.path.join(d, "docs"))
        pq.write_table(pa.table({"doc_id": pa.array(ids), "text": texts}),
                       os.path.join(d, name), row_group_size=2_500)
        return {
            "files": [name],
            "docs": CLEAN_DOCS,
            "id_offset": int(ids[0]),
            "sha256": _digest([os.path.join(d, name)]),
        }

    return _cached(cache_root, "clean", seed, build)
