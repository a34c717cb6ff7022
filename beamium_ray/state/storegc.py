"""The tick store: the one on-disk contract of the incremental stores
(the four dedup stores in ``datapipe/incdedup.py`` and
``stages/rate.py:IncrementalRate``). Each store describes its
partitions and generations to a :class:`TickStore`; the decisions
below live only here.

Layout under a store dir (every file tmp+renamed):

- ``<sub>/<key>=<part>/tick-<n>.parquet`` — what tick ``n`` appended to
  one partition of a partitioned subdir (``bands/ docs/ hashes/ cells/
  windows/``), and ``compact-<lo>-<hi>.parquet`` once compacted;
- ``<meta>/<gen>-<n>[-gc[b]]/`` — generation dirs, each a whole table
  rewritten per tick or per sweep (``assign-``, ``state-``, ``out-``);
- ``<meta>/MANIFEST.json`` — {tick, last_batch, <gen>: <dir>}. Its
  rename is the ONLY pointer switch: a tick writes its partition files
  and generations first, commits the manifest LAST, and only then
  removes superseded generations. A crashed tick is invisible, and its
  replay overwrites the same deterministic names.

Reads of committed partitions take files of ticks STRICTLY BEFORE the
reading tick, so a replay never reads its own crashed writes back. A
tick first sweeps every partition's ``tick-<n>`` file, so a crashed
attempt's files for a different batch cannot outlive it. A missing
manifest is a fresh store; one that exists but does not parse raises
before anything is written or deleted (read as a fresh store, the next
tick's sweep and generation GC would delete the store's history).

**Retention.** The reference daemon bounds every sink directory with
a TTL (delete files whose mtime age exceeds ``ttl``) and a size cap
(delete OLDEST files until the directory fits), ``src/sink.rs:102-221``.
The partitioned subdirs grow O(ever-seen corpus) without the same
bound; this module re-expresses that retention at store-partition
granularity:

- **TTL** — either reference-parity wall-clock (``ttl_seconds`` vs file
  mtime) or deterministic **tick-age** (``max_ticks`` vs the tick number
  embedded in the file name — the testable form: a daemon that ticks on
  a fixed cadence gets the same semantics without clock dependence).
- **Size cap** — oldest surviving ticks dropped until the store's total
  bytes fit ``max_bytes`` (the reference's pop-oldest loop).
- Expiry is decided per TICK-RANGE GROUP, not per file: one tick's
  files span several subdirs (band index + doc payload), and dropping
  an index row while keeping its payload (or vice versa) would let a
  candidate pair form that cannot be verified. Files whose tick ranges
  intersect are expired or kept TOGETHER (a maximal chain of
  intersecting ranges forms one group) — after compaction different
  partitions cover different (lo, hi) ranges, and per-``hi`` expiry
  would drop a docs compact while the same ticks' band rows survive
  inside a younger bands compact. A group's age is its newest evidence
  (max mtime / max tick), so retention never drops more than promised;
  for an uncompacted store every range is [n, n] and this reduces to
  exact per-tick expiry.

**Compaction** merges every parquet file of one partition directory
into a single ``compact-<lo>-<hi>.parquet`` (full-row distinct, so a
crash between the atomic rename and the input deletions — which would
leave duplicate rows — heals on the next compaction instead of
compounding). For tick-age purposes a compacted file is as YOUNG as its
newest merged tick (``hi``): retention of a compacted store is coarser,
never shorter, than promised. Callers MUST bound compaction to
committed ticks (``max_hi``): folding an uncommitted crashed tick's
file into a compact file would put rows beyond the reach of the
name-based crashed-tick sweep, and folding the CURRENT committed tick
breaks any reader that must exclude that tick's own rows on replay
(IncrementalSpanDedup reads strictly-before-tick windows, so it
compacts with ``max_hi = tick - 1``).

Deletions happen strictly BEFORE any assignment-table rewrite the
caller does: a crash mid-retention leaves index rows gone but
assignment rows present (harmless — nothing can collide with a dropped
index row; the next sweep re-prunes), never the reverse.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

_TICK_RE = re.compile(r"^tick-(\d+)\.parquet$")
_COMPACT_RE = re.compile(r"^compact-(\d+)-(\d+)\.parquet$")


def parse_ticks(filename: str) -> tuple[int, int] | None:
    """(lo, hi) tick range a store file covers, or None if not a store
    file (manifests, centroids, tmp leftovers)."""
    m = _TICK_RE.match(filename)
    if m:
        n = int(m.group(1))
        return n, n
    m = _COMPACT_RE.match(filename)
    if m:
        return int(m.group(1)), int(m.group(2))
    return None


def _committed_files(d: str, before_tick: int) -> list[str]:
    """Store files in partition dir ``d`` written by ticks STRICTLY
    BEFORE ``before_tick``. The manifest rename is the only commit
    point, so a tick that crashed after its store writes leaves
    ``tick-<before_tick>`` files on disk; a replay must not read them
    back as committed state (the distributed minhash route tags rows
    old/new by FILE origin, and a new doc's stale copy tagged old
    would let its candidate pairs be dropped as old-old)."""
    out: list[str] = []
    for f in sorted(os.listdir(d)):
        rng = parse_ticks(f)
        if rng is not None and rng[1] < before_tick:
            out.append(os.path.join(d, f))
    return out


def scan(roots: list[str]) -> list[dict]:
    """Every store file under the given subdir roots (each holding
    ``bkt=*/`` / ``cell=*/`` partition dirs):
    {path, lo, hi, mtime, size}."""
    out: list[dict] = []
    for root in roots:
        if not os.path.isdir(root):
            continue
        for part in sorted(os.listdir(root)):
            d = os.path.join(root, part)
            if not os.path.isdir(d):
                continue
            for f in sorted(os.listdir(d)):
                rng = parse_ticks(f)
                if rng is None:
                    continue
                p = os.path.join(d, f)
                st = os.stat(p)
                out.append(
                    {
                        "path": p,
                        "lo": rng[0],
                        "hi": rng[1],
                        "mtime": st.st_mtime,
                        "size": st.st_size,
                    }
                )
    return out


def select_expired(
    files: list[dict],
    current_tick: int,
    max_ticks: int | None = None,
    ttl_seconds: float | None = None,
    max_bytes: int | None = None,
    now: float | None = None,
) -> list[dict]:
    """The files retention must delete, per the module-docstring rules.
    Group-granular: files whose tick ranges intersect expire together
    (for an uncompacted store — all ranges [n, n] — this is exact
    per-tick expiry; for misaligned compact files it keeps the
    index/payload coupling by expiring coarser, never shorter)."""
    if not files:
        return []
    now = time.time() if now is None else now
    # merge intersecting (lo, hi) ranges into groups; a group's age key
    # is its newest tick, its evidence the newest mtime / summed size
    ordered = sorted(files, key=lambda f: (f["lo"], f["hi"]))
    groups: list[dict] = []
    for f in ordered:
        if groups and f["lo"] <= groups[-1]["hi"]:
            g = groups[-1]
            g["hi"] = max(g["hi"], f["hi"])
            g["mtime"] = max(g["mtime"], f["mtime"])
            g["size"] += f["size"]
            g["files"].append(f)
        else:
            groups.append(
                {
                    "hi": f["hi"],
                    "mtime": f["mtime"],
                    "size": f["size"],
                    "files": [f],
                }
            )
    dead: list[dict] = []
    alive: list[dict] = []
    for g in groups:
        if max_ticks is not None and current_tick - g["hi"] >= max_ticks:
            dead.append(g)
        elif ttl_seconds is not None and now - g["mtime"] > ttl_seconds:
            dead.append(g)
        else:
            alive.append(g)
    if max_bytes is not None:
        total = sum(g["size"] for g in alive)
        # oldest group first, the reference's pop-back loop
        for g in sorted(alive, key=lambda g: g["hi"]):
            if total <= max_bytes:
                break
            dead.append(g)
            total -= g["size"]
    return [f for g in dead for f in g["files"]]


def compact_dir(
    d: str, key_cols: list[str] | None = None, max_hi: int | None = None
) -> int:
    """Merge every store file in one partition dir into a single
    ``compact-<lo>-<hi>.parquet``, distinct rows. Returns the number of
    input files merged away (0 = nothing to do).

    ``max_hi`` bounds the merge to files whose newest tick is
    ``<= max_hi`` — callers pass their committed manifest tick (or
    ``tick - 1`` when replays must re-read strictly-before-tick rows,
    see the module docstring) so a crashed uncommitted tick's files
    stay under their sweepable ``tick-<n>`` names.

    Distinctness heals duplicate rows a crashed prior compaction left
    behind: full-row by default (group_by over every column ==
    DISTINCT *); pass ``key_cols`` (first copy kept) for tables whose
    payload columns Arrow can't group by (the cells store's vector
    column)."""
    inputs: list[tuple[str, int, int]] = []
    for f in sorted(os.listdir(d)):
        # a crash between write_table and os.replace leaves a
        # .tmp.<pid> orphan that parse_ticks ignores — nothing else
        # ever sweeps it and it can be partition-sized, silently
        # blowing the size cap; one compactor per store (the module
        # contract), so any tmp here is dead
        if ".parquet.tmp." in f:
            try:
                os.remove(os.path.join(d, f))
            except OSError:
                pass
            continue
        rng = parse_ticks(f)
        if rng is not None and (max_hi is None or rng[1] <= max_hi):
            inputs.append((os.path.join(d, f), rng[0], rng[1]))
    if len(inputs) < 2:
        return 0
    t = pa.concat_tables([pq.read_table(p) for p, _, _ in inputs])
    if key_cols:
        # factorize each key column to integer codes first: np.unique
        # (axis=0) rejects object arrays, so raw string keys would
        # crash — dictionary codes make any Arrow key type uniquable
        codes = [
            pc.fill_null(
                t[c].combine_chunks().dictionary_encode().indices, -1
            )
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
            for c in key_cols
        ]
        _, first_idx = np.unique(
            np.stack(codes, axis=1), axis=0, return_index=True
        )
        t = t.take(pa.array(np.sort(first_idx)))
    else:
        t = t.group_by(t.column_names, use_threads=False).aggregate([])
    lo = min(x[1] for x in inputs)
    hi = max(x[2] for x in inputs)
    final = os.path.join(d, f"compact-{lo:05d}-{hi:05d}.parquet")
    tmp = f"{final}.tmp.{os.getpid()}"
    pq.write_table(t, tmp)
    os.replace(tmp, final)
    n = 0
    for p, _, _ in inputs:
        if p != final:
            os.remove(p)
            n += 1
    return n


class TickStore:
    """One incremental store on disk, per the module docstring.

    ``parts`` maps each partitioned subdir to its partition key
    (``{"bands": "bkt", "docs": "bkt"}``); ``meta`` is the subdir that
    holds the manifest and the generation dirs (``""`` = the store dir
    itself); ``gens`` names the manifest keys whose values are
    generation dirs (``"assign"`` → ``assign-<n>``). Plain strings
    only, so a Ray task can carry it to write partitions itself."""

    def __init__(
        self,
        root: str,
        meta: str = "",
        parts: dict[str, str] | None = None,
        gens: tuple[str, ...] = (),
    ):
        self.root = root
        self.meta = os.path.join(root, meta)
        self.parts = dict(parts or {})
        self.gens = tuple(gens)
        self.manifest_path = os.path.join(self.meta, "MANIFEST.json")
        os.makedirs(self.meta, exist_ok=True)

    # -- manifest ----------------------------------------------------------
    def manifest(self) -> dict:
        """The committed manifest, or a fresh store's when none was
        ever committed. Raises ``ValueError`` naming the path when the
        file exists but does not parse."""
        try:
            with open(self.manifest_path) as f:
                man = json.load(f)
        except FileNotFoundError:
            return {"tick": 0, "last_batch": None, **dict.fromkeys(self.gens)}
        except ValueError as ex:
            raise ValueError(
                f"unreadable store manifest {self.manifest_path}: {ex}"
            ) from ex
        if not isinstance(man, dict) or "tick" not in man:
            raise ValueError(
                f"unreadable store manifest {self.manifest_path}: {man!r}"
            )
        return man

    def committed_tick(self) -> int:
        return self.manifest()["tick"]

    def begin(self, batch_key: str | None) -> tuple[int, bool]:
        """(tick number, replay) for a batch: the batch whose
        ``batch_key`` the manifest committed replays its committed
        tick; any other batch is the next tick."""
        man = self.manifest()
        if batch_key is not None and man.get("last_batch") == batch_key:
            return man["tick"], True
        return man["tick"] + 1, False

    def commit(self, man: dict, retain=lambda name: False) -> list[str]:
        """The pointer switch: atomically replace the manifest with
        ``man``, then remove every generation dir it no longer names
        unless ``retain(name)``. Returns the removed names."""
        # looked up per call, so a crash at the switch can be simulated
        from beamium_ray.state.manifest import atomic_write_bytes

        atomic_write_bytes(
            self.manifest_path, json.dumps(man, sort_keys=True).encode()
        )
        live = {man[k] for k in self.gens}
        gone = []
        for d in sorted(os.listdir(self.meta)):
            gen, sep, _ = d.partition("-")
            if sep and gen in self.gens and d not in live and not retain(d):
                shutil.rmtree(os.path.join(self.meta, d), ignore_errors=True)
                gone.append(d)
        return gone

    # -- generations -------------------------------------------------------
    def generation(
        self, name: str, write, schema: pa.Schema | None = None
    ) -> str:
        """Write generation dir ``name`` through ``write(path)`` and
        return its path. A crashed replay's copy is removed first; with
        ``schema``, a write that produced no file (Ray writes none for
        an empty Dataset) is seeded with an empty file, since a
        manifest must never name a parquet-less dir. The generation is
        live only once :meth:`commit` names it."""
        from beamium_ray.state.manifest import ensure_parquet_dir

        p = os.path.join(self.meta, name)
        if os.path.isdir(p):
            shutil.rmtree(p)
        write(p)
        if schema is not None:
            ensure_parquet_dir(p, schema)
        return p

    def rewrite(
        self, key: str, write, schema: pa.Schema, retain=lambda name: False
    ) -> None:
        """Between-ticks rewrite of generation ``key`` (a retention
        sweep): ``<key>-<tick>-gc``, or ``-gcb`` when that is the live
        one, then the pointer switch."""
        man = self.manifest()
        name = f"{key}-{man['tick']:05d}-gc"
        if man[key] == name:
            name += "b"
        self.generation(name, write, schema)
        self.commit({**man, key: name}, retain)

    def dataset(self, key: str):
        """The committed generation ``key`` as a Dataset (None before
        the first commit)."""
        import ray.data

        name = self.manifest()[key]
        if name is None:
            return None
        return ray.data.read_parquet(os.path.join(self.meta, name))

    # -- partitions --------------------------------------------------------
    def _part_dir(self, sub: str, part) -> str:
        return os.path.join(self.root, sub, f"{self.parts[sub]}={part}")

    def write(self, sub: str, part, tick: int, t: pa.Table) -> None:
        """Tick ``tick``'s rows of one partition, tmp+renamed to the
        deterministic name a replay overwrites."""
        path = os.path.join(
            self._part_dir(sub, part), f"tick-{tick:05d}.parquet"
        )
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = f"{path}.tmp.{os.getpid()}"
        pq.write_table(t, tmp)
        os.replace(tmp, path)

    def files(self, sub: str, parts, before_tick: int) -> list[str]:
        """Committed files of the given partitions: ticks strictly
        before ``before_tick``."""
        out: list[str] = []
        for p in sorted(parts):
            d = self._part_dir(sub, p)
            if os.path.isdir(d):
                out.extend(_committed_files(d, before_tick))
        return out

    def read(
        self, sub: str, parts, before_tick: int,
        schema: pa.Schema | None = None, where=None,
    ) -> pa.Table | None:
        """The committed rows of the given partitions as one table,
        each file filtered through ``where`` when given. With no file,
        ``schema``'s empty table (None without a schema)."""
        tables = [] if schema is None else [schema.empty_table()]
        for p in self.files(sub, parts, before_tick):
            t = pq.read_table(p)
            tables.append(t if where is None else where(t))
        return pa.concat_tables(tables) if tables else None

    def sweep(self, tick: int) -> None:
        """Remove every partition's ``tick-<tick>`` file: a crashed
        attempt of this tick may have written them for a DIFFERENT
        batch (the watcher replays the same batch, but an operator who
        moves the files aside feeds another), and files the new batch
        does not overwrite would look committed to later ticks."""
        name = f"tick-{tick:05d}.parquet"
        for sub in self.parts:
            root = os.path.join(self.root, sub)
            if not os.path.isdir(root):
                continue
            for d in os.listdir(root):
                p = os.path.join(root, d, name)
                if os.path.isfile(p):
                    os.remove(p)

    # -- lifecycle ---------------------------------------------------------
    def expire(
        self,
        max_ticks: int | None = None,
        ttl_seconds: float | None = None,
        max_bytes: int | None = None,
        now: float | None = None,
        ids: tuple[str, str] | None = None,
    ) -> tuple[dict, np.ndarray]:
        """Delete the partition files :func:`select_expired` picks.
        Returns counters {files_deleted, bytes_deleted, ticks_dropped}
        (the reference's ``beamium_skip_ttl``/``beamium_skip_max_size``
        analogs) and, for ``ids=(sub, col)``, the distinct ``col``
        values the deleted files of ``sub`` held, read before the
        deletion."""
        files = scan([os.path.join(self.root, s) for s in self.parts])
        drop = select_expired(
            files, self.committed_tick(), max_ticks, ttl_seconds,
            max_bytes, now,
        )
        expired = np.zeros(0, np.int64)
        if ids is not None:
            sub, col = ids
            root = os.path.join(self.root, sub) + os.sep
            got = [
                pq.read_table(f["path"], columns=[col])[col].to_numpy()
                for f in drop
                if f["path"].startswith(root)
            ]
            if got:
                expired = np.unique(np.concatenate(got).astype(np.int64))
        for f in drop:
            os.remove(f["path"])
        counters = {
            "files_deleted": len(drop),
            "bytes_deleted": sum(f["size"] for f in drop),
            "ticks_dropped": sorted({f["hi"] for f in drop}),
        }
        return counters, expired

    def compact(self, lag: int = 0, key_cols: dict | None = None) -> int:
        """:func:`compact_dir` over every partition, bounded to
        ``max_hi = committed tick - lag`` (``lag=1`` for a store whose
        replay reads strictly-before-tick rows of the committed tick).
        ``key_cols`` maps a subdir to its distinct-key columns. Returns
        the number of files merged away."""
        max_hi = self.committed_tick() - lag
        n = 0
        for sub in self.parts:
            root = os.path.join(self.root, sub)
            if not os.path.isdir(root):
                continue
            keys = (key_cols or {}).get(sub)
            for part in sorted(os.listdir(root)):
                d = os.path.join(root, part)
                if os.path.isdir(d):
                    n += compact_dir(d, keys, max_hi=max_hi)
        return n
