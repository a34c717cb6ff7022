"""Text-line ingest: the reference's native input formats.

Beamium scrapes Prometheus text or reads Sensision ``.metrics``
files-of-lines (SURVEY.md §2.1 S2/S3). Here that becomes
``ray.data.read_text`` over a directory of line files feeding the
scraper stage (``stages/process.py``) — one bounded batch job replaces
the periodic scanner; the resume manifest replaces "only new files"
incremental logic (SURVEY.md S2 mapping).
"""

from __future__ import annotations

import os

import pyarrow as pa

# Input bytes per read task of a listed spool batch. Parsing holds tens
# of times its input in memory (a 1.8 MB Sensision file peaks at about
# 100 MB), and Ray sizes read tasks at ~1 MB of input, which puts two
# large files in one task once a batch lists more files than it has MB.
READ_TASK_BYTES = 1 << 19


def file_read_blocks(n_files: int) -> int:
    """Read blocks for a table of ``n_files`` files: one per file, and
    more (Ray splits a file's output) only to give every CPU a block.
    Ray's default cuts each file into many small blocks, which keeps the
    read from fusing with the map after it and runs that map as many
    small tasks, each paying the kernels' fixed cost."""
    from beamium_ray.functions.cluster import cluster_cpus

    return max(n_files, cluster_cpus())


def read_metric_lines(paths: str | list[str], file_extension: str | None = "metrics"):
    """Dataset with a ``line`` column from ``*.metrics`` text files.

    Only the configured extension is scanned (ref ``src/constants.rs:7``,
    enforced at ``src/lib/asynch/fs.rs:83``); zero-length files are
    simply empty (the reference deletes them, ``fs.rs:120-132`` — a
    batch read has nothing to clean up).
    """
    import ray.data

    kwargs = {}
    if file_extension:
        kwargs["file_extensions"] = [file_extension]
    ds = ray.data.read_text(paths, **kwargs)
    return ds.map_batches(
        lambda b: pa.table({"line": b["text"]}),
        batch_format="pyarrow",
        batch_size=None,
    )


def read_metric_lines_whole_files(
    paths: str | list[str], file_extension: str | None = "metrics"
):
    """Like :func:`read_metric_lines` but NEVER splits a file across
    blocks AND tags every line with its file (``file_id`` column).
    Required for Warp10 '='-continuation inheritance: the reference's
    writer keeps a continuation glued to its parent within one file
    (``src/scraper.rs:239``); ``read_text`` may split a file mid-stream
    and orphan a continuation, while whole-file blocks can JOIN several
    files — pass ``file_id`` as ``parse_warp10_batch(groups=…)`` so
    inheritance never crosses a file boundary either way."""
    import ray.data

    import numpy as np

    from beamium_ray.functions.hashing import hash64

    kwargs = {"include_paths": True}
    if file_extension:
        kwargs["file_extensions"] = [file_extension]
    if isinstance(paths, list) and paths:
        # one task per READ_TASK_BYTES of input and never more than one
        # per file, so a batch of many small files still gets a task or
        # two (each task costs ~15 ms)
        total = sum(os.path.getsize(p) for p in paths)
        kwargs["override_num_blocks"] = max(1, min(len(paths), -(-total // READ_TASK_BYTES)))
    ds = ray.data.read_binary_files(paths, **kwargs)

    def split(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        txt = pc.cast(b["bytes"], pa.string())
        ll = pc.split_pattern(txt, "\n").combine_chunks()
        counts = np.diff(ll.offsets.to_numpy().astype(np.int64))
        lines = ll.flatten()
        # file_id per LINE (path hash): a block can hold several whole
        # files, and '='-continuation inheritance must not cross a file
        # boundary — a continuation at the start of one file would
        # otherwise inherit the PREVIOUS file's last series
        fid = np.repeat(
            hash64(b["path"].combine_chunks()
                   if isinstance(b["path"], pa.ChunkedArray)
                   else b["path"]).astype(np.int64),
            counts,
        )
        keep = pc.invert(pc.equal(lines, "")).to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "line": lines.filter(pa.array(keep)),
                "file_id": pa.array(fid[keep], pa.int64()),
            }
        )

    return ds.map_batches(split, batch_format="pyarrow", batch_size=None)
