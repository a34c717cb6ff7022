"""Incremental MinHash-LSH dedup: a DURABLE band index + doc store +
cluster assignment that new document batches dedup against without
re-shingling the committed corpus (the watch-mode companion of
:func:`dedup.minhash_dedup` — reference daemons ingest forever, so the
index must outlive a tick).

Store layout under ``store_dir`` (the tick store,
:class:`state.storegc.TickStore`: every file tmp+renamed, the manifest
rename is the ONLY pointer switch):

- ``bands/bkt=<band_hash % B>/tick-<n>.parquet`` — (band, band_hash,
  doc_id) LSH index rows, hash-bucketed so a tick reads only the
  partitions its new band hashes touch;
- ``docs/bkt=<doc_id % B>/tick-<n>.parquet`` — (doc_id, text) payload,
  read back ONLY for the committed docs that collide with a new batch
  (exact-Jaccard verification needs both texts);
- ``assign/assign-<n>/`` — the full (doc_id, cluster) table, rewritten
  per tick as a Ray pass (cluster merges relabel via a tiny broadcast
  root-remap, never per-row Python);
- the ``assign/`` manifest — {tick, assign dir, last_batch}; promoted
  LAST, so a crashed tick is invisible and a replay overwrites the same
  deterministic tick-<n> files idempotently.

Per-tick cost ∝ new docs (shingling, distributed) + the stored index
rows in TOUCHED partitions (narrow 20-byte rows, filtered parquet
read) + one narrow pass over the assignment table. The committed
corpus text is only read for collision partners.

Semantics match the one-shot verified ``minhash_dedup`` (the gate
unions both under the same exact-Jaccard SQL oracle): candidate pairs
from band collisions, exact k-gram Jaccard ≥ τ verification, clusters
labeled by component-min doc_id. Cross-tick merges relabel the
committed members of every absorbed cluster.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from beamium_ray.functions.cluster import bucket_apply
from beamium_ray.functions.hashing import splitmix64
from beamium_ray.state.storegc import TickStore


class _IncrementalDedupBase:
    """Shared durable-assignment machinery for incremental dedup
    stores: the manifest (pointer-switch commit), the full (id,
    cluster) table, and the per-tick component merge + committed-root
    remap. Subclasses implement candidate generation + verification
    and write their own index/payload partitions inside the commit.

    Also hosts the store LIFECYCLE (``retention``/``compact``,
    state/storegc.py): without it the index/payload partitions and the
    assignment table grow O(ever-seen corpus) — the reference daemon
    bounds every sink dir with TTL + size-cap retention
    (src/sink.rs:102-221) and these stores need the same."""

    # subclasses: partitioned store subdirs (subdir → partition key);
    # the subdir whose files carry ``id_col`` (drives assignment
    # pruning); the subdir needing key-column compaction (vector
    # payloads Arrow can't full-row group)
    _PARTS: dict[str, str] = {}
    _GC_ID_SUBDIR: str | None = None
    _GC_VEC_SUBDIR: str | None = None

    def __init__(self, store_dir: str, id_col: str):
        self.dir = store_dir
        self.id_col = id_col
        self.store = TickStore(store_dir, "assign", self._PARTS, ("assign",))

    # -- manifest ---------------------------------------------------------
    @property
    def _manifest_path(self) -> str:
        return self.store.manifest_path

    def assignments(self):
        """Current full (id, cluster) Dataset (None before tick 1)."""
        return self.store.dataset("assign")

    # -- store lifecycle ---------------------------------------------------
    def retention(
        self,
        *,
        max_ticks: int | None = None,
        ttl_seconds: float | None = None,
        max_bytes: int | None = None,
        prune_assignments: bool = True,
        now: float | None = None,
    ) -> dict:
        """Reference-parity retention over the index/payload stores
        (sink.rs:102-221 re-expressed, see state/storegc.py): expired
        ticks' partition files are deleted — TTL by deterministic
        tick-age (``max_ticks``) or wall-clock file age
        (``ttl_seconds``) — then the size cap drops the OLDEST
        surviving ticks until the store fits ``max_bytes``. Assignment
        rows of the expired docs are pruned through the same
        manifest-pointer switch every tick uses, so durable state is
        O(retained corpus).

        Run BETWEEN ticks (single-owner daemon contract, like the
        reference's scanner loop). Crash-safe by ordering: index and
        payload files are deleted BEFORE the assignment rewrite — a
        crash leaves assignment rows whose index is gone (inert; the
        next sweep re-prunes), never index rows whose assignment
        vanished. Retained docs keep their cluster LABEL even when the
        labeling root doc expired — labels are ids, not references.

        Returns counters {files_deleted, bytes_deleted, ticks_dropped,
        ids_pruned} (the reference's ``beamium_skip_ttl`` /
        ``beamium_skip_max_size`` analogs)."""
        prune = prune_assignments and self._GC_ID_SUBDIR is not None
        counters, expired_ids = self.store.expire(
            max_ticks, ttl_seconds, max_bytes, now,
            ids=(self._GC_ID_SUBDIR, self.id_col) if prune else None,
        )
        if len(expired_ids):
            self._prune_assignments(expired_ids)
        return {**counters, "ids_pruned": int(len(expired_ids))}

    def compact(self) -> int:
        """Merge each store partition's tick files into one
        ``compact-<lo>-<hi>.parquet`` (storegc.compact_dir) so per-tick
        read cost stays O(partitions), not O(partitions × ticks).
        Bounded to the committed manifest tick: a crashed uncommitted
        tick's files must keep their ``tick-<n>`` names so the replay
        overwrite (and any sweep) still reaches them. Returns the
        number of files merged away."""
        vec = self._GC_VEC_SUBDIR
        return self.store.compact(
            key_cols={vec: [self.id_col]} if vec else None
        )

    def _prune_assignments(self, expired_ids: np.ndarray) -> None:
        """Drop the expired ids from the assignment table via a new
        generation + manifest-pointer switch (the tick commit
        protocol; superseded generations GC'd after the switch)."""
        import ray

        prev = self.assignments()
        if prev is None:
            return
        ref = ray.put(np.sort(expired_ids))
        idc = self.id_col

        def drop_rows(t: pa.Table, _r=ref) -> pa.Table:
            import ray as _ray

            bad = _ray.get(_r)
            ids = t[idc].to_numpy()
            if len(bad) == 0 or len(ids) == 0:
                return t
            pos = np.clip(np.searchsorted(bad, ids), 0, len(bad) - 1)
            return t.filter(pa.array(bad[pos] != ids))

        # a sweep that pruned EVERY row writes zero files; the schema
        # that seeds the generation comes from the already-open `prev`
        # Dataset (id type varies by store), not a re-glob of the old
        # generation
        psch = prev.schema()
        self.store.rewrite(
            "assign",
            prev.map_batches(
                drop_rows, batch_format="pyarrow", batch_size=None
            ).write_parquet,
            pa.schema(list(zip(psch.names, psch.types))),
        )

    # -- shared commit -----------------------------------------------------
    def _commit_tick(
        self,
        tick: int,
        new_id_set: set[int],
        edges_a,
        edges_b,
        write_store,
        batch_key: str | None,
    ):
        """Components over (verified edges ∪ committed-root binding
        edges) → new assignments + a broadcast root-remap over the
        committed table; then the subclass's ``write_store(tick)``
        appends its index/payload partitions; the manifest rename is
        LAST so a crashed tick is invisible and its deterministic
        files overwrite on replay. Returns the new assignment
        Dataset.

        ``new_id_set`` may be a Python set (small-tick callers) or an
        int64 numpy array (the distributed mega-tick route) — label
        assignment is vectorized either way, so the per-tick driver
        cost here is O(new ids + verified edges), never a Python loop
        over the batch."""
        import ray
        import ray.data

        from beamium_ray.datapipe.dedup import _numpy_components

        if isinstance(new_id_set, np.ndarray):
            new_arr = np.unique(new_id_set.astype(np.int64))
        else:
            new_arr = np.unique(
                np.fromiter(new_id_set, np.int64, len(new_id_set))
            )
        prev = self.assignments()
        remap: dict[int, int] = {}
        graph_a = np.asarray(edges_a, np.int64)
        graph_b = np.asarray(edges_b, np.int64)
        if prev is not None and len(graph_a):
            # bind each committed partner to its current cluster root
            part = np.unique(np.concatenate([graph_a, graph_b]))
            part = part[~np.isin(part, new_arr)]
            if len(part):
                rows = [
                    b
                    for b in prev.map_batches(
                        lambda t, _w=pa.array(part, pa.int64()): t.filter(
                            pc.is_in(t[self.id_col], value_set=_w)
                        ),
                        batch_format="pyarrow",
                        batch_size=None,
                    ).iter_batches(batch_format="pyarrow", batch_size=None)
                ]
                if rows:
                    bt = pa.concat_tables(rows)
                    graph_a = np.concatenate(
                        [graph_a, bt[self.id_col].to_numpy()]
                    )
                    graph_b = np.concatenate(
                        [graph_b, bt["cluster"].to_numpy()]
                    )
        nn = nl = np.zeros(0, np.int64)
        if len(graph_a):
            nodes, labels = _numpy_components(graph_a, graph_b)
            is_new = np.isin(nodes, new_arr)
            nn, nl = nodes[is_new], labels[is_new]
            for n, lb in zip(
                nodes[~is_new].tolist(), labels[~is_new].tolist()
            ):
                if n != lb:
                    # a committed node relabeled; if it was a cluster
                    # ROOT, its whole cluster follows via the remap
                    remap[n] = lb
        # vectorized label assignment for the new ids: default own-id,
        # overridden where the id appears in a component
        cl = new_arr.copy()
        if len(nn):
            o = np.argsort(nn)
            nn, nl = nn[o], nl[o]
            pos = np.clip(np.searchsorted(nn, new_arr), 0, len(nn) - 1)
            hit = nn[pos] == new_arr
            cl[hit] = nl[pos[hit]]
        assign_new = pa.table(
            {
                self.id_col: pa.array(new_arr, pa.int64()),
                "cluster": pa.array(cl, pa.int64()),
            }
        )

        if prev is not None:
            rref = ray.put(remap)

            def relabel(t: pa.Table, _r=rref) -> pa.Table:
                import ray as _ray

                rm = _ray.get(_r)
                if not rm or t.num_rows == 0:
                    return t
                cl = t["cluster"].to_numpy(zero_copy_only=False).copy()
                ks = np.array(sorted(rm), np.int64)
                vs = np.array([rm[k] for k in ks.tolist()], np.int64)
                pos = np.clip(np.searchsorted(ks, cl), 0, len(ks) - 1)
                hit = ks[pos] == cl
                cl[hit] = vs[pos[hit]]
                return t.set_column(
                    t.column_names.index("cluster"),
                    "cluster",
                    pa.array(cl, pa.int64()),
                )

            full = prev.map_batches(
                relabel, batch_format="pyarrow", batch_size=None
            ).union(ray.data.from_arrow(assign_new))
        else:
            full = ray.data.from_arrow(assign_new)
        assign_name = f"assign-{tick:05d}"
        self.store.generation(assign_name, full.write_parquet)
        self.store.sweep(tick)
        write_store(tick)
        self.store.commit(
            {"tick": tick, "assign": assign_name, "last_batch": batch_key}
        )
        return self.assignments()


class IncrementalMinHashDedup(_IncrementalDedupBase):
    _PARTS = {"bands": "bkt", "docs": "bkt"}
    _GC_ID_SUBDIR = "docs"

    def __init__(
        self,
        store_dir: str,
        *,
        num_perm: int = 128,
        bands: int = 32,
        k: int = 5,
        threshold: float = 0.8,
        num_buckets: int = 64,
        bucket_cap: int = 256,
        text_col: str = "text",
        id_col: str = "doc_id",
        max_tick_rows: int = 100_000,
        num_partitions: int | None = None,
    ):
        super().__init__(store_dir, id_col)
        self.num_perm = num_perm
        self.bands = bands
        self.k = k
        self.threshold = threshold
        self.B = num_buckets
        self.bucket_cap = bucket_cap
        self.text_col = text_col
        self.max_tick_rows = max_tick_rows
        self.num_partitions = num_partitions

    # -- stored-index access ----------------------------------------------
    def _read_band_rows(
        self, buckets: set[int], before_tick: int
    ) -> pa.Table:
        """Committed band rows in the touched hash buckets (narrow) —
        ticks strictly before ``before_tick`` only, so a crashed
        tick's replay never reads its own store writes back."""
        return self.store.read(
            "bands", buckets, before_tick,
            pa.schema(
                [
                    ("band", pa.int32()),
                    ("band_hash", pa.int64()),
                    (self.id_col, pa.int64()),
                ]
            ),
        )

    def _read_docs(self, ids: np.ndarray, before_tick: int) -> pa.Table:
        """(doc_id, text) of the requested COMMITTED docs — reads only
        the doc partitions those ids hash to, filtered."""
        want = pa.array(np.unique(ids), pa.int64())
        return self.store.read(
            "docs", {int(i) % self.B for i in want.to_pylist()}, before_tick,
            pa.schema(
                [(self.id_col, pa.int64()), (self.text_col, pa.string())]
            ),
            lambda t: t.filter(pc.is_in(t[self.id_col], value_set=want)),
        )

    # -- one tick ----------------------------------------------------------
    def tick(
        self,
        new_ds,
        batch_key: str | None = None,
        distributed: bool | None = None,
    ):
        """Fold one batch of new documents in; returns the updated full
        (doc_id, cluster) assignment Dataset.

        ``batch_key`` (e.g. a fingerprint of the input file list) makes
        a replayed tick a NO-OP once its manifest committed — required
        when a watcher's two-phase pending protocol may re-run the same
        batch after a crash that happened between this manifest's
        promotion and the watcher's own seen-promotion.

        TWO routes, auto-picked by tick size (``distributed`` forces):

        - **driver** (≤ ``max_tick_rows`` new docs — the watch-mode
          contract of small frequent ticks): band rows of the new batch
          + touched store partitions are collected and collided on the
          driver, candidate pairs verified with exact k-gram Jaccard
          (committed partner texts via a filtered doc-store read).
        - **distributed** (above the cap — backfill replays / mega
          ticks, VERDICT r4 item 1): candidate pairs are generated by
          the same bucketed-groupby machinery as one-shot
          ``minhash_dedup`` (``candidate_pair_ds``), old/new tagged via
          the pair payload channel, and exact verification runs as
          Bloom-pruned pair↔text bucket joins (``verify_pairs``) —
          neither band rows nor texts ever land on the driver; the
          only per-tick driver terms left are the new-id array
          (8 B/doc), the verified-edge list and the ≤ num_buckets
          touched-partition ids.

        Both routes produce the identical verified edge set (the same
        (band, band_hash) candidate semantics, the same exact-Jaccard
        decision), so assignments are route-independent — enforced by
        the route-equality test in tests/test_incdedup.py."""
        tick, replay = self.store.begin(batch_key)
        if replay:
            return self.assignments()  # committed replay → no-op
        mat = new_ds.materialize()
        n_new = mat.count()
        if n_new == 0:
            # a legitimately empty batch (scraper tick that matched
            # nothing) must not wedge the watch loop: iter_batches
            # yields ZERO batches for an empty Dataset and the concats
            # below would raise. Nothing to fold in → no-op.
            return self.assignments()
        if distributed is None:
            distributed = n_new > self.max_tick_rows
        if distributed:
            return self._tick_distributed(mat, tick, batch_key)
        return self._tick_driver(mat, tick, batch_key)

    def _tick_driver(self, mat, tick: int, batch_key: str | None):
        from beamium_ray.datapipe.dedup import (
            _segment_pair_indices,
            minhash_bands_batch,
        )
        from beamium_ray.datapipe.pairjoin import jaccard_metric, verify_pairs

        # 1. band rows for the new docs (distributed; narrow result)
        band_ds = mat.map_batches(
            lambda b: minhash_bands_batch(
                b, self.text_col, self.id_col, self.num_perm,
                self.bands, self.k,
            ),
            batch_format="pyarrow",
            batch_size=None,
        )
        new_rows = pa.concat_tables(
            list(band_ds.iter_batches(batch_format="pyarrow",
                                      batch_size=None))
        )
        nb = new_rows["band"].to_numpy().astype(np.uint64)
        nh = new_rows["band_hash"].to_numpy().astype(np.uint64)
        n_ids = new_rows[self.id_col].to_numpy()
        new_id_set = set(
            pa.concat_tables(
                list(
                    mat.select_columns([self.id_col]).iter_batches(
                        batch_format="pyarrow", batch_size=None
                    )
                )
            )[self.id_col].to_pylist()
        )

        # 2. stored rows in touched partitions only
        touched = {int(h) % self.B for h in nh.tolist()}
        old_rows = self._read_band_rows(touched, tick)
        ob = old_rows["band"].to_numpy().astype(np.uint64)
        oh = old_rows["band_hash"].to_numpy().astype(np.uint64)
        o_ids = old_rows[self.id_col].to_numpy()

        # 3. candidate pairs within (band, band_hash) buckets, vectorized
        key = splitmix64(
            np.concatenate([nh, oh]) ^ splitmix64(np.concatenate([nb, ob]))
        )
        ids = np.concatenate([n_ids, o_ids]).astype(np.int64)
        order, ai, bi, _star = _segment_pair_indices(
            key, ids, self.bucket_cap
        )
        sa, sb = ids[order][ai], ids[order][bi]
        # only pairs touching a new doc are NEW information (old-old
        # pairs were found in their own tick)
        new_arr = np.array(sorted(new_id_set), np.int64)
        m = np.isin(sa, new_arr) | np.isin(sb, new_arr)
        pairs = np.unique(np.stack([sa[m], sb[m]], axis=1), axis=0) \
            if m.any() else np.zeros((0, 2), np.int64)

        # 4. exact-Jaccard verification against the new batch's texts
        # plus the committed texts of the old endpoints
        doc_t = pa.concat_tables(
            list(
                mat.select_columns([self.id_col, self.text_col])
                .iter_batches(batch_format="pyarrow", batch_size=None)
            )
        )
        edges_a: list[int] = []
        edges_b: list[int] = []
        if len(pairs):
            need_old = np.unique(pairs[~np.isin(pairs, new_arr)])
            ver = verify_pairs(
                pa.table({"a": pairs[:, 0], "b": pairs[:, 1]}),
                pa.concat_tables(
                    [doc_t, self._read_docs(need_old, tick)],
                    promote_options="permissive",
                ),
                self.id_col, self.text_col, jaccard_metric(self.k),
                self.threshold, "jaccard",
            )
            edges_a = ver["a"].to_pylist()
            edges_b = ver["b"].to_pylist()

        # 5-8. shared merge + commit; the store writer appends the new
        # batch's band + doc rows, bucketed, before the manifest switch
        def write_store(t: int) -> None:
            # UNSIGNED modulo, matching `touched` above and
            # _read_band_rows: nh is the uint64 view, and signed vs
            # unsigned modulo disagree for hashes ≥ 2^63 whenever B
            # does not divide 2^64 (np.uint64(B) also keeps numpy from
            # upcasting the mix to float64).
            for b in sorted({int(h) % self.B for h in nh.tolist()}):
                sel = (nh % np.uint64(self.B)).astype(np.int64) == b
                self.store.write(
                    "bands", b, t,
                    new_rows.select(["band", "band_hash", self.id_col])
                    .filter(pa.array(sel)),
                )
            d_ids = doc_t[self.id_col].to_numpy()
            for b in sorted({int(i) % self.B for i in d_ids.tolist()}):
                sel = (d_ids % self.B) == b
                self.store.write("docs", b, t, doc_t.filter(pa.array(sel)))

        return self._commit_tick(
            tick, new_id_set, edges_a, edges_b, write_store, batch_key
        )

    # -- distributed mega-tick route ---------------------------------------
    def _tick_distributed(self, mat, tick: int, batch_key: str | None):
        """Mega-tick route: identical semantics to ``_tick_driver`` with
        every O(tick-size) term Dataset-resident. Candidate pairs come
        from ``candidate_pair_ds`` over the UNION of new band rows
        (tagged ``is_new=1``) and the touched store partitions
        (``is_new=0``) — the old/new tag rides the pair payload channel,
        so the old-old filter (pairs already found in their own tick)
        is one vectorized mask, no id broadcast. Exact-Jaccard
        verification is the Bloom-pruned ``verify_pairs`` join against
        new texts ∪ the doc-store partitions holding committed
        endpoints. Store appends are bucketed ``map_groups`` writes to
        the same deterministic ``tick-<n>.parquet`` names the driver
        route uses (atomic per file; manifest promotion stays LAST)."""
        import ray.data as rd

        from beamium_ray.datapipe.dedup import (
            candidate_pair_ds,
            minhash_bands_batch,
        )
        from beamium_ray.datapipe.pairjoin import (
            jaccard_metric,
            pair_schema,
            to_table,
            verify_pairs,
        )
        from beamium_ray.functions.cluster import default_partitions

        P = self.num_partitions or default_partitions()
        B = self.B
        idc, txc = self.id_col, self.text_col

        # narrow band rows, reused by touched-scan, pairgen and store
        # write — materialized so shingling runs exactly once
        band_ds = mat.map_batches(
            lambda b: minhash_bands_batch(
                b, txc, idc, self.num_perm, self.bands, self.k
            ),
            batch_format="pyarrow",
            batch_size=None,
        ).materialize()

        # touched store partitions: ≤ B distinct values leave each block
        def _bkts(t: pa.Table) -> pa.Table:
            h = t["band_hash"].to_numpy().astype(np.uint64)
            u = np.unique((h % np.uint64(B)).astype(np.int64))
            return pa.table({"bkt": pa.array(u, pa.int64())})

        touched: set[int] = set()
        for b in band_ds.map_batches(
            _bkts, batch_format="pyarrow", batch_size=None
        ).iter_batches(batch_format="pyarrow", batch_size=None):
            touched.update(b["bkt"].to_pylist())

        def _flag(val: int):
            def f(t: pa.Table) -> pa.Table:
                return t.append_column(
                    "is_new",
                    pa.array(np.full(t.num_rows, val, np.int64), pa.int64()),
                )

            return f

        index = band_ds.map_batches(
            _flag(1), batch_format="pyarrow", batch_size=None
        )
        # committed files only: the old/new pair tag comes from file
        # origin, so a crashed tick's own files read back as old would
        # mis-tag a new doc's band rows and let ``_new_touch`` drop
        # real candidate pairs
        old_files = self.store.files("bands", touched, tick)
        if old_files:
            index = index.union(
                rd.read_parquet(old_files).map_batches(
                    _flag(0), batch_format="pyarrow", batch_size=None
                )
            )

        def _new_touch(t: pa.Table) -> pa.Table:
            keep = pc.or_(
                pc.equal(t["pa"], 1), pc.equal(t["pb"], 1)
            )
            return t.filter(keep).select(["a", "b", "pa", "pb"])

        pairs = (
            candidate_pair_ds(
                index,
                ["band", "band_hash"],
                idc,
                payload_col="is_new",
                bucket_cap=self.bucket_cap,
                num_partitions=P,
            )
            .map_batches(_new_touch, batch_format="pyarrow", batch_size=None)
            .materialize()
        )
        n_pairs = pairs.count()

        edges_a = np.zeros(0, np.int64)
        edges_b = np.zeros(0, np.int64)
        if n_pairs:
            # doc-store partitions holding committed pair endpoints
            def _doc_bkts(t: pa.Table) -> pa.Table:
                ids = np.concatenate(
                    [
                        t["a"].to_numpy()[t["pa"].to_numpy() == 0],
                        t["b"].to_numpy()[t["pb"].to_numpy() == 0],
                    ]
                )
                u = np.unique(ids.astype(np.int64) % B)
                return pa.table({"bkt": pa.array(u, pa.int64())})

            doc_bkts: set[int] = set()
            for b in pairs.map_batches(
                _doc_bkts, batch_format="pyarrow", batch_size=None
            ).iter_batches(batch_format="pyarrow", batch_size=None):
                doc_bkts.update(b["bkt"].to_pylist())

            payload = mat.map_batches(
                lambda t: t.select([idc, txc]),
                batch_format="pyarrow",
                batch_size=None,
            )
            doc_files = self.store.files("docs", doc_bkts, tick)
            if doc_files:
                payload = payload.union(rd.read_parquet(doc_files))
            et = to_table(
                verify_pairs(
                    pairs, payload, idc, txc, jaccard_metric(self.k),
                    self.threshold, "jaccard", P,
                ),
                pair_schema("jaccard"),
            )
            edges_a = et["a"].to_numpy()
            edges_b = et["b"].to_numpy()

        new_arr = np.unique(
            np.concatenate(
                [
                    b[idc].to_numpy()
                    for b in mat.select_columns([idc]).iter_batches(
                        batch_format="pyarrow", batch_size=None
                    )
                ]
            ).astype(np.int64)
        )

        def write_store(t: int) -> None:
            self._write_bands_distributed(band_ds, t)
            self._write_docs_distributed(mat, t)

        return self._commit_tick(
            tick, new_arr, edges_a, edges_b, write_store, batch_key
        )

    def _write_bands_distributed(self, band_ds, tick: int) -> None:
        """Append the tick's band rows, hash-bucketed, WITHOUT driver
        collection: one groupby(store-bucket) whose groups each write
        their single deterministic ``tick-<n>.parquet`` atomically (same
        names as the driver route — replay overwrites idempotently)."""
        B, idc, store = self.B, self.id_col, self.store

        def tag(t: pa.Table) -> pa.Table:
            h = t["band_hash"].to_numpy().astype(np.uint64)
            sb = (h % np.uint64(B)).astype(np.int32)
            return t.append_column("sbkt", pa.array(sb, pa.int32()))

        def w(g: pa.Table) -> pa.Table:
            store.write(
                "bands", int(g["sbkt"][0].as_py()), tick,
                g.select(["band", "band_hash", idc]),
            )
            return pa.table({"n": pa.array([g.num_rows], pa.int64())})

        bucket_apply(band_ds, w, by="sbkt", prep=tag).count()

    def _write_docs_distributed(self, mat, tick: int) -> None:
        """Append the tick's (id, text) payload, bucketed by id % B.
        This is the ONE documented payload-bucketed shuffle of the
        route (its OUTPUT is the doc store itself, per the engine's
        payload-shuffle invariant)."""
        B, idc, txc, store = self.B, self.id_col, self.text_col, self.store

        def tag(t: pa.Table) -> pa.Table:
            ids = t[idc].to_numpy().astype(np.int64)
            return pa.table(
                {
                    idc: t[idc],
                    txc: t[txc],
                    "sbkt": pa.array((ids % B).astype(np.int32), pa.int32()),
                }
            )

        def w(g: pa.Table) -> pa.Table:
            store.write(
                "docs", int(g["sbkt"][0].as_py()), tick, g.select([idc, txc])
            )
            return pa.table({"n": pa.array([g.num_rows], pa.int64())})

        bucket_apply(mat, w, by="sbkt", prep=tag).count()


def _unit_rows(col) -> np.ndarray:
    """float64 rows of a vector column, scaled to unit length."""
    V = np.stack(col.to_numpy(zero_copy_only=False)).astype(np.float64)
    return V / np.maximum(np.linalg.norm(V, axis=1, keepdims=True), 1e-30)


class IncrementalSemanticDedup(_IncrementalDedupBase):
    """SemDeDup across watch ticks: a durable k-means cell index so new
    embedding batches dedup against the committed corpus without
    re-reading it.

    The centroids are trained ONCE (first tick, per-block-head sample —
    or passed in) and persisted: cells must stay FIXED or the committed
    per-cell vector store stops being a valid candidate index. Per
    tick: assign the new vectors to cells, read back only the TOUCHED
    cells' committed vectors, verify exact cosine ≥ τ within cells
    (new×new and new×committed; committed×committed pairs were found in
    their own tick), and merge components with the shared committed-root
    remap. Store layout: ``cells/cell=<c>/tick-<n>.parquet`` (id + the
    float vector), same manifest/commit rules as the minhash store.

    Semantics match the one-shot :func:`dedup.semantic_dedup` under the
    same fixed centroids (equality pinned by the tests)."""

    _PARTS = {"cells": "cell"}
    _GC_ID_SUBDIR = "cells"
    _GC_VEC_SUBDIR = "cells"

    def __init__(
        self,
        store_dir: str,
        *,
        n_clusters: int = 64,
        threshold: float = 0.95,
        cell_cap: int = 4096,
        vec_col: str = "embedding",
        id_col: str = "vec_id",
        centroids: np.ndarray | None = None,
        sample_size: int = 4096,
        seed: int = 42,
    ):
        super().__init__(store_dir, id_col)
        self.n_clusters = n_clusters
        self.threshold = threshold
        self.cell_cap = cell_cap
        self.vec_col = vec_col
        self.sample_size = sample_size
        self.seed = seed
        self._centroids = (
            None if centroids is None else np.asarray(centroids, float)
        )

    @property
    def _centroids_path(self) -> str:
        return os.path.join(self.dir, "centroids.npy")

    def _load_or_train_centroids(self, mat) -> np.ndarray:
        if self._centroids is not None:
            cent = self._centroids
        elif os.path.exists(self._centroids_path):
            cent = np.load(self._centroids_path)
        else:
            from beamium_ray.datapipe.similarity import (
                _block_head_sample, train_pq_codebooks,
            )

            cent = train_pq_codebooks(
                _block_head_sample(mat, self.vec_col, self.sample_size),
                1,
                self.n_clusters,
                self.seed,
            )[0]
        if not os.path.exists(self._centroids_path):
            # np.save appends .npy when missing — keep the suffix so the
            # tmp name is exactly what lands on disk
            tmp = self._centroids_path.replace(
                ".npy", f".tmp.{os.getpid()}.npy"
            )
            np.save(tmp, cent)
            os.replace(tmp, self._centroids_path)
        self._centroids = cent
        return cent

    def tick(self, new_ds, batch_key: str | None = None):
        """Fold one batch of new vectors in; returns the updated full
        (id, cluster) assignment Dataset."""
        from beamium_ray.datapipe.dedup import _segment_pair_indices
        from beamium_ray.datapipe.pairjoin import cosine_metric, verify_pairs
        from beamium_ray.datapipe.similarity import _nearest_centroid

        tick, replay = self.store.begin(batch_key)
        if replay:
            return self.assignments()  # committed replay → no-op
        mat = new_ds.materialize()
        if mat.count() == 0:
            # empty batch → no-op (see the minhash tick: zero batches
            # from iter_batches would crash the concat and wedge the
            # watch loop).
            return self.assignments()
        cent = self._load_or_train_centroids(mat)

        # new batch to the driver (ticks are bounded by the watch
        # contract): ids, vectors, cells
        t = pa.concat_tables(
            list(
                mat.select_columns([self.id_col, self.vec_col])
                .iter_batches(batch_format="pyarrow", batch_size=None)
            )
        )
        n_ids = t[self.id_col].to_numpy().astype(np.int64)
        new_t = pa.table(
            {
                self.id_col: pa.array(n_ids, pa.int64()),
                self.vec_col: t[self.vec_col],
            }
        )
        cells = _nearest_centroid(
            _unit_rows(new_t[self.vec_col]), cent
        ).astype(np.int64)
        # committed rows of the touched cells only — ticks strictly
        # before this one (crash-replay safe)
        old_t = self.store.read(
            "cells", set(cells.tolist()), tick, new_t.schema
        )
        o_ids = old_t[self.id_col].to_numpy()
        o_cells = (
            _nearest_centroid(_unit_rows(old_t[self.vec_col]), cent)
            .astype(np.int64)
            if len(o_ids)
            else np.zeros(0, np.int64)
        )
        new_id_set = set(n_ids.tolist())

        # within-cell candidate pairs touching ≥1 new id, verified with
        # exact cosine against the new and committed vectors
        all_ids = np.concatenate([n_ids, o_ids])
        order, ai, bi, _ = _segment_pair_indices(
            np.concatenate([cells, o_cells]).astype(np.uint64), all_ids,
            self.cell_cap,
        )
        sa, sb = all_ids[order][ai], all_ids[order][bi]
        new_arr = np.array(sorted(new_id_set), np.int64)
        m = np.isin(sa, new_arr) | np.isin(sb, new_arr)
        ver = verify_pairs(
            pa.table({"a": sa[m], "b": sb[m]}),
            pa.concat_tables([new_t, old_t], promote_options="permissive"),
            self.id_col, self.vec_col, cosine_metric(), self.threshold,
            "cosine",
        )
        edges_a = ver["a"].to_pylist()
        edges_b = ver["b"].to_pylist()

        def write_store(tk: int) -> None:
            for c in sorted(set(cells.tolist())):
                self.store.write(
                    "cells", c, tk, new_t.filter(pa.array(cells == c))
                )

        return self._commit_tick(
            tick, new_id_set, edges_a, edges_b, write_store, batch_key
        )


class IncrementalExactDedup(_IncrementalDedupBase):
    """Exact (128-bit content-hash) dedup across watch ticks — the
    incremental sibling of ``exact_dedup(mode="hash128")`` and the
    cheapest member of the family: 128-bit equality needs no text
    verification, so the durable store holds ONLY narrow
    ``hashes/bkt=<h1 % B>/tick-<n>.parquet`` rows of (h1, h2, doc_id),
    deduped to one representative per distinct text per tick (~24 B
    per distinct text — no payload store at all).

    Per tick: hash the new docs (distributed map; the text never
    leaves the mappers), read back only the TOUCHED hash buckets,
    connect every (h1, h2) group that contains a new doc to its min
    id, and run the shared committed-root merge. Same assignment/
    manifest semantics as the minhash store."""

    _PARTS = {"hashes": "bkt"}
    _GC_ID_SUBDIR = "hashes"

    def __init__(
        self,
        store_dir: str,
        *,
        num_buckets: int = 64,
        text_col: str = "text",
        id_col: str = "doc_id",
    ):
        super().__init__(store_dir, id_col)
        self.B = num_buckets
        self.text_col = text_col

    def _read_hash_rows(
        self, buckets: set[int], before_tick: int
    ) -> pa.Table:
        """Committed (h1, h2, id) rows in the touched buckets — ticks
        strictly before ``before_tick`` (crash-replay safe)."""
        return self.store.read(
            "hashes", buckets, before_tick,
            pa.schema(
                [
                    ("h1", pa.int64()),
                    ("h2", pa.int64()),
                    (self.id_col, pa.int64()),
                ]
            ),
        )

    def tick(self, new_ds, batch_key: str | None = None):
        """Fold one batch of new documents in; returns the updated full
        (doc_id, cluster) assignment Dataset (cluster = min id over all
        docs, committed or new, with byte-identical text)."""
        from beamium_ray.functions.hashing import hash64

        tick, replay = self.store.begin(batch_key)
        if replay:
            return self.assignments()  # committed replay → no-op
        mat = new_ds.materialize()
        if mat.count() == 0:
            return self.assignments()  # empty batch → no-op

        def hashes(b: pa.Table) -> pa.Table:
            txt = b[self.text_col].combine_chunks() if isinstance(
                b[self.text_col], pa.ChunkedArray
            ) else b[self.text_col]
            return pa.table(
                {
                    "h1": pa.array(
                        hash64(txt, seed=42).astype(np.int64), pa.int64()
                    ),
                    "h2": pa.array(
                        hash64(txt, seed=1337).astype(np.int64), pa.int64()
                    ),
                    self.id_col: pc.cast(b[self.id_col], pa.int64()),
                }
            )

        new_rows = pa.concat_tables(
            list(
                mat.map_batches(
                    hashes, batch_format="pyarrow", batch_size=None
                ).iter_batches(batch_format="pyarrow", batch_size=None)
            )
        )
        nh1 = new_rows["h1"].to_numpy().astype(np.uint64)
        nh2 = new_rows["h2"].to_numpy().astype(np.uint64)
        n_ids = new_rows[self.id_col].to_numpy()
        new_id_set = set(n_ids.tolist())

        touched = {int(h) % self.B for h in nh1.tolist()}
        old_rows = self._read_hash_rows(touched, tick)
        oh1 = old_rows["h1"].to_numpy().astype(np.uint64)
        oh2 = old_rows["h2"].to_numpy().astype(np.uint64)
        o_ids = old_rows[self.id_col].to_numpy()

        h1 = np.concatenate([nh1, oh1])
        h2 = np.concatenate([nh2, oh2])
        ids = np.concatenate([n_ids, o_ids]).astype(np.int64)
        is_new = np.concatenate(
            [np.ones(len(n_ids), bool), np.zeros(len(o_ids), bool)]
        )
        order = np.lexsort((ids, h2, h1))
        h1s, h2s, ids_s, new_s = h1[order], h2[order], ids[order], is_new[order]
        bound = np.concatenate(
            ([True], (h1s[1:] != h1s[:-1]) | (h2s[1:] != h2s[:-1]))
        )
        grp = np.cumsum(bound) - 1
        n_grp = int(grp[-1]) + 1 if len(grp) else 0
        # per-group min id (ids_s ascending within group) + has-new flag
        starts = np.flatnonzero(bound)
        gmin = ids_s[starts]
        has_new = np.zeros(n_grp, bool)
        np.logical_or.at(has_new, grp, new_s)
        keep = has_new[grp] & (ids_s != gmin[grp])
        edges_a = ids_s[keep].tolist()
        edges_b = gmin[grp][keep].tolist()

        def write_store(t: int) -> None:
            # one representative row per distinct NEW text (the group
            # min over this batch's rows) — the store stays O(distinct)
            norder = np.lexsort((n_ids, nh2, nh1))
            nb = np.concatenate(
                (
                    [True],
                    (nh1[norder][1:] != nh1[norder][:-1])
                    | (nh2[norder][1:] != nh2[norder][:-1]),
                )
            ) if len(norder) else np.zeros(0, bool)
            reps = norder[np.flatnonzero(nb)]
            rh1, rh2, rid = nh1[reps], nh2[reps], n_ids[reps]
            for b in sorted({int(h) % self.B for h in rh1.tolist()}):
                sel = (rh1 % np.uint64(self.B)).astype(np.int64) == b
                self.store.write(
                    "hashes", b, t,
                    pa.table(
                        {
                            "h1": pa.array(
                                rh1[sel].astype(np.int64), pa.int64()
                            ),
                            "h2": pa.array(
                                rh2[sel].astype(np.int64), pa.int64()
                            ),
                            self.id_col: pa.array(rid[sel], pa.int64()),
                        }
                    ),
                )

        return self._commit_tick(
            tick, new_id_set, edges_a, edges_b, write_store, batch_key
        )


class IncrementalSpanDedup:
    """Duplicate-SPAN removal across watch ticks — the ExactSubstr
    sibling of the incremental dedup family (:mod:`spandedup` is the
    one-shot form). A daemon ingests forever; committed content must
    win against every later copy WITHOUT re-hashing the corpus.

    Durable store under ``store_dir`` (the tick store: tmp+rename
    files, manifest pointer last — the family invariant):

    - ``windows/bkt=<h1 % B>/tick-<n>.parquet`` — (h1, h2) of every
      DISTINCT committed window (~16 B each; no payload, no positions:
      membership is all a later tick needs);
    - the ``windows/`` manifest — {tick, last_batch}.

    Per tick: window-hash the new batch (distributed map; tokens never
    leave the mappers), collect the narrow occurrence rows (the
    bounded-tick contract shared with the minhash band store), read
    back ONLY the touched store buckets, then mark (a) every batch
    occurrence of a committed window — the committed copy is globally
    first — and (b) within-batch non-first occurrences (keep='first'
    over the batch). Marks apply via the one-shot broadcast kernel;
    the cleaned batch is returned as a Dataset. Only keep='first'
    composes incrementally (keep='none' would have to retro-edit
    committed output).

    Equivalence contract (pytest + the gate's 'incremental' arm): when
    later ticks carry larger doc ids, tick-wise output equals one-shot
    :func:`spandedup.remove_duplicate_spans` over the union.

    Replay: a ``batch_key`` matching the committed manifest re-runs
    with the SAME tick number, reading only store files from EARLIER
    ticks (its own tick's files are excluded), so the recomputed
    output is byte-identical; the replay writes nothing."""

    def __init__(
        self,
        store_dir: str,
        *,
        window: int = 50,
        num_buckets: int = 64,
        list_col: str = "tokens",
        id_col: str = "doc_id",
    ):
        self.dir = store_dir
        self.window = window
        self.B = num_buckets
        self.list_col = list_col
        self.id_col = id_col
        self.store = TickStore(store_dir, "windows", {"windows": "bkt"})

    def _read_windows(
        self, buckets: set[int], before_tick: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """(h1, h2) of stored windows in the touched buckets written by
        ticks STRICTLY BEFORE ``before_tick`` (excludes a crashed or
        replayed tick's own files)."""
        t = self.store.read(
            "windows", buckets, before_tick,
            pa.schema([("h1", pa.int64()), ("h2", pa.int64())]),
        )
        return (
            t["h1"].to_numpy().astype(np.uint64),
            t["h2"].to_numpy().astype(np.uint64),
        )

    def retention(
        self,
        *,
        max_ticks: int | None = None,
        ttl_seconds: float | None = None,
        max_bytes: int | None = None,
        now: float | None = None,
    ) -> dict:
        """TTL/size-cap retention over the window-hash store (see
        _IncrementalDedupBase.retention — same semantics; this store
        has no assignment table to prune: expired windows simply stop
        marking spans in FUTURE ticks, the TTL'd-dedup contract)."""
        return self.store.expire(max_ticks, ttl_seconds, max_bytes, now)[0]

    def compact(self) -> int:
        """Merge each bucket's tick files into one compact file
        (storegc.compact_dir; _read_windows reads compact names).
        Bounded to ``tick - 1``: a replay of the committed tick reads
        windows STRICTLY BEFORE it (_read_windows excludes any file
        whose range reaches the replayed tick), so folding the current
        tick into a compact file would hide every earlier tick in that
        file from the replay — the tick's own file must stay under its
        ``tick-<n>`` name until the NEXT tick commits (this also keeps
        a crashed uncommitted tick's files sweepable by name)."""
        return self.store.compact(lag=1)

    @staticmethod
    def _pair_hits(
        q1: np.ndarray, q2: np.ndarray, s1: np.ndarray, s2: np.ndarray
    ) -> np.ndarray:
        """Vectorized membership: query pair i present in the store
        pair set? One concat + lexsort; store rows sort FIRST within an
        equal-pair run, so a run's head is a store row iff the run
        contains one."""
        nq = len(q1)
        if nq == 0 or len(s1) == 0:
            return np.zeros(nq, bool)
        a1 = np.concatenate([s1, q1])
        a2 = np.concatenate([s2, q2])
        src = np.concatenate(
            [np.zeros(len(s1), np.int8), np.ones(nq, np.int8)]
        )
        qidx = np.concatenate(
            [np.zeros(len(s1), np.int64), np.arange(nq, dtype=np.int64)]
        )
        o = np.lexsort((src, a2, a1))
        a1s, a2s, srcs, qs = a1[o], a2[o], src[o], qidx[o]
        start = np.concatenate(
            ([True], (a1s[1:] != a1s[:-1]) | (a2s[1:] != a2s[:-1]))
        )
        gi = np.cumsum(start) - 1
        head_is_store = srcs[np.flatnonzero(start)] == 0
        hit = np.zeros(nq, bool)
        qm = srcs == 1
        hit[qs[qm]] = head_is_store[gi[qm]]
        return hit

    def tick(self, new_ds, batch_key: str | None = None):
        """Fold one batch in; returns the CLEANED batch as a Dataset
        (``list_col`` rewritten, ``n_tok`` updated when present,
        ``n_removed`` appended — the one-shot output contract)."""
        import ray

        from beamium_ray.datapipe.spandedup import (
            _BroadcastApply,
            _occurrence_fn,
        )
        from beamium_ray.functions.cluster import cached_stage

        tick, replay = self.store.begin(batch_key)
        mat = new_ds.materialize()
        lc, ic, w = self.list_col, self.id_col, self.window
        if mat.count() == 0:
            # empty batch → no-op commit-wise, but the OUTPUT contract
            # (n_tok rewritten, n_removed appended) must hold so a
            # watch loop can union/append tick outputs across empty
            # ticks without schema drift
            import ray.data

            sch = mat.schema()
            if sch is None:
                return mat
            fields = [
                (n, pa.int64()) if n == "n_removed" else (n, t)
                for n, t in zip(sch.names, sch.types)
            ]
            if "n_removed" not in sch.names:
                fields.append(("n_removed", pa.int64()))
            return ray.data.from_arrow(
                pa.schema(fields).empty_table()
            )

        occ = _occurrence_fn(lc, ic, w, None)
        # bounded-tick contract (the minhash band store's): the NEW
        # batch's narrow occurrence rows come to the driver
        occ_t = pa.concat_tables(
            list(
                mat.map_batches(
                    occ, batch_format="pyarrow", batch_size=None
                ).iter_batches(batch_format="pyarrow", batch_size=None)
            )
        )
        h1 = occ_t["h1"].to_numpy().astype(np.uint64)
        h2 = occ_t["h2"].to_numpy().astype(np.uint64)
        ids = occ_t["id"].to_numpy()
        pos = occ_t["pos"].to_numpy()

        # (a) within-batch keep='first' marks
        o = np.lexsort((pos, ids, h2, h1))
        h1s, h2s = h1[o], h2[o]
        first = np.concatenate(
            ([True], (h1s[1:] != h1s[:-1]) | (h2s[1:] != h2s[:-1]))
        )
        batch_mark = np.zeros(len(h1), bool)
        batch_mark[o[~first]] = True

        # (b) committed-window marks: EVERY batch occurrence hits
        touched = set((h1 % np.uint64(self.B)).astype(np.int64).tolist())
        s1, s2 = self._read_windows(touched, tick)
        store_mark = self._pair_hits(h1, h2, s1, s2)

        mark = batch_mark | store_mark
        mid = ids[mark]
        mpos = pos[mark]
        mo = np.lexsort((mpos, mid))
        marks_ref = ray.put(
            (np.ascontiguousarray(mid[mo]), np.ascontiguousarray(mpos[mo]))
        )
        cleaned = mat.map_batches(
            cached_stage(_BroadcastApply, marks_ref, lc, ic, w),
            batch_format="pyarrow",
            batch_size=None,
        )

        if not replay:
            self.store.sweep(tick)
            # store grows by the batch's distinct windows NOT already
            # committed (O(distinct) forever)
            rep_idx = o[first]
            fresh = rep_idx[~store_mark[rep_idx]]
            r1, r2 = h1[fresh], h2[fresh]
            rbkt = (r1 % np.uint64(self.B)).astype(np.int64)
            for b in sorted(set(rbkt.tolist())):
                sel = rbkt == b
                self.store.write(
                    "windows", b, tick,
                    pa.table(
                        {
                            "h1": pa.array(
                                r1[sel].astype(np.int64), pa.int64()
                            ),
                            "h2": pa.array(
                                r2[sel].astype(np.int64), pa.int64()
                            ),
                        }
                    ),
                )
            self.store.commit({"tick": tick, "last_batch": batch_key})
        return cleaned
