"""Deterministic tokenized-sequence table (the primary input shape).

BASELINE.json ``input_hint``: Parquet of pre-tokenized training
sequences ``(doc_id:string, tokens:list<int32>, n_tok:int32,
source:string)``. Synthesized with fixed-seed splitmix64 mixing so any
row is reproducible from its global index alone (FIXTURES.md §1) — no
RNG state, so generation parallelizes trivially and a row's content
never depends on batching.

Scale posture: files are written in bounded row-chunks so a 10^12-row
table is just more files; readers get enough blocks for any
parallelism level.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from beamium_ray.functions.hashing import splitmix64

VOCAB = 50257
SOURCES = np.array(["web", "books", "code", "wiki"])
# Zipf-ish with one hot source to exercise skew handling (web ≥ 70%)
_SOURCE_CUM = np.array([70, 85, 95, 100])

_NTOK_SALT = np.uint64(0x5EED_0001)
_SRC_SALT = np.uint64(0x5EED_0002)


def make_chunk(start: int, n: int) -> pa.Table:
    """Rows [start, start+n) of the canonical synthetic table."""
    i = np.arange(start, start + n, dtype=np.uint64)
    n_tok = (16 + (splitmix64(i ^ _NTOK_SALT) % np.uint64(497))).astype(np.int32)
    pct = (splitmix64(i ^ _SRC_SALT) % np.uint64(100)).astype(np.int64)
    src_idx = np.searchsorted(_SOURCE_CUM, pct, side="right")
    source = SOURCES[src_idx]

    total = int(n_tok.sum(dtype=np.int64))
    rid = np.repeat(i, n_tok)
    off = np.concatenate(([0], np.cumsum(n_tok, dtype=np.int64)))
    row_of = np.repeat(np.arange(n, dtype=np.int64), n_tok)
    j = (np.arange(total, dtype=np.int64) - off[row_of]).astype(np.uint64)
    toks = (splitmix64((rid << np.uint64(20)) ^ j) % np.uint64(VOCAB)).astype(
        np.int32
    )
    tokens = pa.ListArray.from_arrays(
        pa.array(off, pa.int32()), pa.array(toks, pa.int32())
    )
    doc_id = pa.array([f"doc-{k:012d}" for k in i.tolist()], pa.string())
    return pa.table(
        {
            "doc_id": doc_id,
            "tokens": tokens,
            "n_tok": pa.array(n_tok, pa.int32()),
            "source": pa.array(source, pa.string()),
        }
    )


def _write_chunk(out_dir: str, fidx: int, start: int, n: int) -> str:
    path = os.path.join(out_dir, f"sequences-{fidx:05d}.parquet")
    if not os.path.exists(path):
        tmp = f"{path}.tmp.{os.getpid()}"
        pq.write_table(make_chunk(start, n), tmp)
        os.replace(tmp, path)  # atomic finalize (ref scraper.rs:253-265)
    return path


def generate_dataset(
    out_dir: str, n_rows: int, rows_per_file: int = 100_000
) -> list[str]:
    """Write the synthetic table as parquet files; idempotent (chunk
    content is a pure function of the row range). Parallelized with Ray
    tasks when a Ray session is up."""
    os.makedirs(out_dir, exist_ok=True)
    jobs = []
    for fidx, start in enumerate(range(0, n_rows, rows_per_file)):
        jobs.append((fidx, start, min(rows_per_file, n_rows - start)))
    try:
        import ray

        use_ray = ray.is_initialized()
    except ImportError:  # pragma: no cover
        use_ray = False
    todo = [
        j
        for j in jobs
        if not os.path.exists(
            os.path.join(out_dir, f"sequences-{j[0]:05d}.parquet")
        )
    ]
    if use_ray and len(todo) > 1:
        import ray

        w = ray.remote(num_cpus=1)(_write_chunk)
        ray.get([w.remote(out_dir, f, s, n) for f, s, n in todo])
    else:
        for f, s, n in todo:
            _write_chunk(out_dir, f, s, n)
    return [
        os.path.join(out_dir, f"sequences-{f:05d}.parquet") for f, _, _ in jobs
    ]


def _count_files(paths: str | list[str]) -> int:
    """Files a parquet read of ``paths`` lists: a directory counts its
    files (recursively, skipping ``.``/``_`` names as Ray does), any
    other path counts one."""
    n = 0
    for p in [paths] if isinstance(paths, str) else paths:
        if os.path.isdir(p):
            n += sum(
                not f.startswith((".", "_"))
                for _, _, names in os.walk(p)
                for f in names
            )
        else:
            n += 1
    return n


def read_sequences(paths: str | list[str], columns: list[str] | None = None):
    """Bounded source: read the tokenized-sequence table as a Dataset
    (replaces the reference's HTTP scrape + dir scan, SURVEY.md S1-S3).
    One block per file (``sources.lines.file_read_blocks``), so the
    read fuses with the derive/parse/combiner map that follows."""
    import ray.data

    from beamium_ray.sources.lines import file_read_blocks

    return ray.data.read_parquet(
        paths, columns=columns,
        override_num_blocks=file_read_blocks(_count_files(paths)),
    )
