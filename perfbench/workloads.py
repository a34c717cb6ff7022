"""The three workloads: one timed operation each, its output checks,
and its traced replay.

Timed operations go through the engine's public entry points on a Ray
session. The replay runs the same work in this process by calling each
layer's functions directly, inside spans, and must reproduce the
pipeline's output.
"""

from __future__ import annotations

import glob
import os
import shutil
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import inputs
from spans import instrumented

SEQ_COLUMNS = ["doc_id", "n_tok", "source"]
CLEAN_STAGES = [
    {"quality_filter": {}},
    {"dedup_exact": {}},
    {"dedup_minhash": {"verify_threshold": 0.8}},
    {"assign_splits": {}},
]


def _fresh(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def _block_index(out_dir: str) -> dict[str, dict]:
    """path -> block entry, over the committed bucket manifests."""
    from beamium_ray.state.manifest import committed_bucket_manifests

    return {
        b["path"]: b
        for _, m in committed_bucket_manifests(out_dir)
        for b in m.get("blocks") or []
    }


def _store_signature(out_dir: str) -> tuple:
    """What a replay must reproduce: the block content hashes and the
    per-bucket window counts of the committed manifests."""
    from beamium_ray.state.manifest import committed_bucket_manifests

    shas, windows = [], []
    for _, m in committed_bucket_manifests(out_dir):
        shas.extend(b["sha256"] for b in m.get("blocks") or [])
        windows.append((m["bucket"], (m.get("counters") or {}).get("windows")))
    return sorted(shas), sorted(windows)


def _read_rows(ds) -> tuple[int, int]:
    """(rows, sum of n) of a decoded-blocks Dataset."""
    rows = points = 0
    for b in ds.iter_batches(batch_format="pyarrow", batch_size=None):
        if b.num_rows:
            rows += b.num_rows
            points += pc.sum(b["n"]).as_py() or 0
    return rows, points


def _engine_hash() -> str:
    import hashlib

    import beamium_ray

    h = hashlib.sha256()
    pkg = os.path.dirname(beamium_ray.__file__)
    for p in sorted(glob.glob(os.path.join(pkg, "**", "*.py"), recursive=True)):
        h.update(p[len(pkg):].encode())
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def _key_batch(t: pa.Table) -> pa.Table:
    return t.append_column(
        "series_key",
        pc.binary_join_element_wise(t["class"], "{", t["labels"], "}", ""),
    )


def _replay_rollup(tr, batches, cfg, out_dir, fingerprint, order_col,
                   incremental):
    """In-process twin of ``rollup_to_blocks`` / ``append_rollup``
    after the fused map: the combiner per batch, a group-by-bucket in
    place of the shuffle, then the engine's own per-bucket
    merge/encode/commit."""
    from beamium_ray.pipelines.persist import _encode_and_commit
    from beamium_ray.stages.rollup import partial_rollup_batch

    base_us = min(cfg.tiers.values())
    parts = []
    for dp in batches:
        narrow = dp.select([c for c in ("series_key", "ts", "value", order_col) if c])
        with tr.span("stages.rollup.partial"):
            p = partial_rollup_batch(narrow, base_us, order_col=order_col,
                                     num_buckets=cfg.num_buckets)
        tr.count("stages.rollup.partial_rows", p.num_rows)
        parts.append(p)
    allp = pa.concat_tables(parts).sort_by("bucket")
    buckets = allp["bucket"].to_numpy()
    edges = np.flatnonzero(np.diff(buckets)) + 1
    for lo, hi in zip(np.r_[0, edges], np.r_[edges, len(buckets)]):
        with tr.span("pipelines.persist"):
            _encode_and_commit(
                allp.slice(lo, hi - lo), out_dir, dict(cfg.tiers), cfg.gapfill,
                fingerprint, cfg.config_hash(), incremental=incremental,
                gapfill_max_gap=cfg.gapfill_max_gap,
                float_codec=cfg.float_codec, int_codec=cfg.int_codec,
            )


class Workload:
    """One workload. Subclasses provide ``load_inputs`` (untimed),
    ``warm_up`` (the small operation that ends set-up), ``op`` (one
    timed operation plus its checks), ``named_metrics`` (the report's
    named end-to-end metrics) and, for the traced run,
    ``replay_target`` / ``replay`` / ``replay_extra``. ``expected`` is
    what every operation and every replay must reproduce."""

    name = ""
    cfg_extra: dict = {}

    def __init__(self, root: str, seed: int, num_cpus: int):
        from beamium_ray.config import EngineConfig

        self.seed = seed
        self.cache = os.path.join(root, ".bench_cache")
        self.work = os.path.join(root, ".bench_work", self.name)
        # shuffle width follows the core count (bench.py does the same);
        # labels give the relabel stage work to do. Every call passes
        # its own output dir; output_dir only keeps the default out of
        # /tmp.
        self.cfg = EngineConfig(
            labels="env=bench", num_buckets=64, shuffle_blocks=num_cpus,
            output_dir=os.path.join(self.work, "unused"), **self.cfg_extra,
        )

    def prepare(self) -> dict:
        """Untimed, before Ray: inputs, a fresh work dir and the tiny
        warm-up inputs. Returns what to record about the inputs."""
        _fresh(self.work)
        return self.load_inputs()

    def begin(self) -> None:
        """Untimed preparation on the live Ray session."""

    def can_run(self, i: int) -> bool:
        return True

    def finish(self) -> list[str]:
        """Checks on the state the timed operations left behind."""
        return []

    def trace_cycle(self, i: int, tr, null) -> dict:
        """One timed operation, then its replay with spans off and on.
        Returns the operation's result plus the two replay walls and
        the per-layer values that are not spans."""
        res = self.op(i)
        walls = {}
        for label, t in (("off", null), ("on", tr)):
            target = self.replay_target(label)
            t0 = time.perf_counter()
            with instrumented(t), t.span("replay"):
                got = self.replay(t, target)
            walls[label] = time.perf_counter() - t0
            if not self.replay_ok(got):
                res["errors"].append(
                    f"replay (spans {label}) output differs from the pipeline's")
                res["failed"] = res["attempted"]
        res["walls"] = walls
        res["extra"] = self.replay_extra(res)
        return res

    def replay_ok(self, got) -> bool:
        return got == self.expected


# ------------------------------------------------------------------ ingest

class Ingest(Workload):
    """Batch ingest of tokenized sequences into a fresh block store:
    read -> derive -> parse -> relabel -> 3-tier rollup with gap-fill
    -> Gorilla blocks + manifests."""

    name = "ingest"

    def load_inputs(self) -> dict:
        import pyarrow.parquet as pq

        from beamium_ray.sources.tokens import make_chunk

        self.inp = inputs.ingest_inputs(self.cache, self.seed)
        self.expected = None  # the first pass's block hashes
        warm = _fresh(os.path.join(self.work, "warm_in"))
        pq.write_table(make_chunk(inputs.ingest_offset(self.seed), 2_000),
                       os.path.join(warm, "sequences-00000.parquet"))
        return {"rows": self.inp["rows"], "files": len(self.inp["files"]),
                "sha256": self.inp["sha256"]}

    def _ingest(self, files, out):
        from beamium_ray.pipelines.persist import rollup_to_blocks
        from beamium_ray.pipelines.rollup_pipeline import datapoints
        from beamium_ray.sources.tokens import read_sequences

        dp = datapoints(read_sequences(files, columns=SEQ_COLUMNS), self.cfg,
                        mode="lines")
        run, _rows = rollup_to_blocks(dp, self.cfg, files, out)
        return run

    def warm_up(self) -> None:
        from beamium_ray.pipelines.rollup_pipeline import datapoints
        from beamium_ray.sources.tokens import read_sequences

        warm = os.path.join(self.work, "warm_in")
        datapoints(read_sequences(warm, columns=SEQ_COLUMNS), self.cfg,
                   mode="lines").materialize()

    def op(self, i: int) -> dict:
        from beamium_ray.pipelines.persist import read_blocks_dataset
        from beamium_ray.state.fsck import fsck

        out = _fresh(os.path.join(self.work, "out"))
        t0 = time.perf_counter()
        run = self._ingest(self.inp["files"], out)
        op_s = time.perf_counter() - t0
        points = run["counters"]["points_rolled"]
        errors = []
        verdict = fsck(out, num_buckets=self.cfg.num_buckets, use_ray=False)
        if not verdict["ok"]:
            errors.append(f"fsck: {verdict['errors'][:3]}")
        t0 = time.perf_counter()
        _rows, read_points = _read_rows(read_blocks_dataset(out, "1m"))
        read_s = time.perf_counter() - t0
        if read_points != points or points <= 0:
            errors.append(f"1m sum(n)={read_points} != points_rolled={points}")
        sig = _store_signature(out)
        if self.expected is None:
            self.expected = sig
        elif sig != self.expected:
            errors.append("block hashes differ from the first pass")
        return {"op_s": op_s, "read_s": read_s, "items": points,
                "attempted": 1, "failed": int(bool(errors)), "errors": errors,
                "bytes_per_item": run["total_block_bytes"] / max(points, 1),
                "windows": run["counters"]["windows"]}

    def named_metrics(self, ops: list[dict]) -> list[tuple]:
        op_s = float(np.median([o["op_s"] for o in ops]))
        return [
            ("ingest_points_per_s", ops[0]["items"] / op_s, "points/s"),
            ("stored_bytes_per_point", ops[0]["bytes_per_item"], "B/point"),
        ]

    # -- traced replay
    def replay_target(self, label: str) -> str:
        return _fresh(os.path.join(self.work, f"replay_{label}"))

    def replay(self, tr, out: str) -> tuple:
        from beamium_ray.pipelines.persist import merge_run_manifest
        from beamium_ray.pipelines.rollup_pipeline import PAYLOAD_COLS
        from beamium_ray.sources.tokens import read_sequences
        from beamium_ray.stages.derive import DEFAULT_NOW_US, derive_lines_batch
        from beamium_ray.stages.parse import parse_table
        from beamium_ray.stages.relabel import relabel_batch
        from beamium_ray.state.manifest import input_fingerprint

        cfg, now, files = self.cfg, DEFAULT_NOW_US, self.inp["files"]
        with tr.span("sources"):
            # the blocks the Ray read produces, so the combiner sees the
            # same batches as in the pipeline
            batches = list(read_sequences(files, columns=SEQ_COLUMNS)
                           .iter_batches(batch_format="pyarrow", batch_size=None))
        dps = []
        for b in batches:
            # DeriveParseRelabel(mode="lines"), one layer at a time
            with tr.span("stages.derive"):
                lined = derive_lines_batch(b, now)
            keep = [c for c in PAYLOAD_COLS if c in lined.column_names]
            with tr.span("stages.parse"):
                t = parse_table(lined, now, "line", keep, {})
            tr.count("stages.parse.lines_in", lined.num_rows)
            tr.count("stages.parse.points_out", t.num_rows)
            with tr.span("stages.relabel"):
                t = _key_batch(relabel_batch(t, add=cfg.labels,
                                             drop=cfg.filtered_labels))
            dps.append(t)
        fp = input_fingerprint(files)
        _replay_rollup(tr, dps, cfg, out, fp, "order", incremental=False)
        with tr.span("pipelines.persist"):
            merge_run_manifest(out, fp, cfg.config_hash())
        return _store_signature(out)

    def replay_extra(self, res: dict) -> dict:
        # a fresh store: every block is new, and a full-tier read
        # decodes exactly what it returns
        return {"pipelines.persist.rewrite_bytes_per_point": res["bytes_per_item"],
                "pipelines.persist.query_decoded_per_returned": 1.0}


# ------------------------------------------------------------------- watch

class Watch(Workload):
    """Steady-state daemon: a closed loop with one producer that lands
    the next spool file by rename, runs one ``DirectoryWatcher.tick()``
    and then the last-hour query, over a pre-populated store."""

    name = "watch"
    # TTL far beyond the stored history: retention runs on every tick
    cfg_extra = {"ttl_us": {"1m": 6 * 3600 * 10**6}}

    def load_inputs(self) -> dict:
        self.inp = inputs.watch_inputs(self.cache, self.seed)
        self.spool = _fresh(os.path.join(self.work, "spool"))
        self.store = os.path.join(self.work, "store")
        warm = _fresh(os.path.join(self.work, "warm_spool"))
        shutil.copy2(self.inp["staged"][-1], warm)
        return {"series": self.inp["series"],
                "prefill_points": self.inp["series"] * inputs.WATCH_PREFILL_SCRAPES,
                "points_per_tick": self.tick_points(),
                "sha256": self.inp["sha256"]}

    def tick_points(self) -> int:
        return self.inp["series"] * inputs.WATCH_TICK_SCRAPES

    def _watcher(self, spool: str, store: str):
        from beamium_ray.pipelines.watch import DirectoryWatcher

        return DirectoryWatcher(spool, self.cfg, store)

    @staticmethod
    def _query(store: str, min_window: int) -> int:
        from beamium_ray.pipelines.persist import read_blocks_dataset

        return _read_rows(read_blocks_dataset(store, "1m", min_window=min_window))[0]

    def warm_up(self) -> None:
        from beamium_ray.pipelines.watch import metrics_datapoints

        warm = glob.glob(os.path.join(self.work, "warm_spool", "*.metrics"))
        metrics_datapoints(warm, self.cfg).materialize()

    def begin(self) -> None:
        """Land the two hours of history in one tick. The store this
        leaves is cached next to the inputs, keyed by the engine
        source, and copied in on later runs of the same seed."""
        for p in self.inp["prefill"]:
            shutil.copy2(p, self.spool)
        self.w = self._watcher(self.spool, self.store)
        self.landed = 0
        cached = os.path.join(self.inp["dir"], f"store-{_engine_hash()}")
        if os.path.isdir(cached):
            shutil.copytree(cached, self.store)
            return
        res = self.w.tick()
        if res["run"] is None or len(res["applied"]) != len(self.inp["prefill"]):
            raise RuntimeError(f"prefill tick applied {res['applied']}")
        tmp = f"{cached}.tmp{os.getpid()}"
        shutil.copytree(self.store, tmp)
        os.replace(tmp, cached)

    def can_run(self, i: int) -> bool:
        return i < len(self.inp["staged"])

    def op(self, i: int) -> dict:
        src = self.inp["staged"][i]
        path = os.path.join(self.spool, os.path.basename(src))
        tmp = os.path.join(self.work, "landing.tmp")
        shutil.copy2(src, tmp)
        self.before = _block_index(self.store)
        os.replace(tmp, path)
        self.landed = i + 1
        t0 = time.perf_counter()
        res = self.w.tick()
        op_s = time.perf_counter() - t0
        errors, failed = [], 0
        if res["applied"] != [path] or res["run"] is None:
            errors.append(f"tick {i} applied {res['applied']}")
            failed += 1
        self.min_window = inputs.watch_last_hour_start_us(self.inp["base_ms"],
                                                          self.landed)
        t0 = time.perf_counter()
        self.returned = self._query(self.store, self.min_window)
        read_s = time.perf_counter() - t0
        want = self.inp["series"] * 60
        if self.returned != want:
            errors.append(f"last-hour query returned {self.returned} rows, "
                          f"want {want}")
            failed += 1
        run = res["run"] or {}
        points = (run.get("counters") or {}).get("points_rolled", 0)
        return {"op_s": op_s, "read_s": read_s, "items": self.tick_points(),
                "attempted": 2, "failed": failed, "errors": errors,
                "bytes_per_item": run.get("total_block_bytes", 0) / max(points, 1)}

    def finish(self) -> list[str]:
        """After the last tick the 1m tier must equal a one-shot rollup
        over every landed file."""
        from beamium_ray.pipelines.persist import read_blocks, rollup_to_blocks
        from beamium_ray.pipelines.watch import metrics_datapoints

        files = sorted(glob.glob(os.path.join(self.spool, "*.metrics")))
        full = _fresh(os.path.join(self.work, "one_shot"))
        rollup_to_blocks(metrics_datapoints(files, self.cfg), self.cfg, files,
                         full, order_col=None)
        cols = ["series_key", "window_start", "vmin", "vmax", "vsum", "n", "last"]
        order = [(c, "ascending") for c in cols[:2]]
        got = read_blocks(self.store, "1m").select(cols).sort_by(order)
        want = read_blocks(full, "1m").select(cols).sort_by(order)
        if got.num_rows and got.equals(want):
            return []
        return ["1m tier differs from a one-shot rollup of the landed files"]

    def named_metrics(self, ops: list[dict]) -> list[tuple]:
        ticks = sorted(o["op_s"] for o in ops)
        rows = [("tick_s_p50", float(np.median(ticks)), "s")]
        # the highest percentile with at least 10 samples beyond it
        j = len(ticks) - 11
        if j >= 0:
            rows.append(("tick_s_tail", ticks[j],
                         f"s (p{100.0 * (j + 1) / len(ticks):.0f}, n={len(ticks)})"))
        else:
            rows.append(("tick_s_tail", float("nan"),
                         f"s (n={len(ticks)}: no percentile has 10 ticks beyond it)"))
        rows.append(("query_s_p50", float(np.median([o["read_s"] for o in ops])), "s"))
        return rows

    # -- traced replay
    def trace_cycle(self, i: int, tr, null) -> dict:
        # replicas of the store as it is before the tick
        for label in ("off", "on"):
            dst = os.path.join(self.work, f"replay_{label}")
            shutil.rmtree(dst, ignore_errors=True)
            shutil.copytree(self.store, dst)
        return super().trace_cycle(i, tr, null)

    def replay_target(self, label: str) -> str:
        self.expected = _store_signature(self.store)
        return os.path.join(self.work, f"replay_{label}")

    def replay(self, tr, store: str) -> tuple:
        """The same tick on a replica store: the engine's own tick
        protocol, with the append done in this process."""
        from beamium_ray.functions.hashing import hash64
        from beamium_ray.pipelines.persist import merge_run_manifest_any
        from beamium_ray.stages.parse import parse_table
        from beamium_ray.stages.relabel import relabel_batch
        from beamium_ray.state.manifest import input_fingerprint

        cfg, now = self.cfg, self.w.now_us
        w = self._watcher(self.spool, store)

        def append(files):
            tables = []
            with tr.span("sources"):
                # read_metric_lines_whole_files: whole files, one row
                # per non-empty line, file id = path hash
                for p in files:
                    with open(p, "rb") as f:
                        text = f.read().decode()
                    lines = pc.split_pattern(pa.array([text]), "\n").flatten()
                    lines = lines.filter(pc.invert(pc.equal(lines, "")))
                    fid = hash64(pa.array([p])).astype(np.int64)[0]
                    tables.append(pa.table({
                        "line": lines,
                        "file_id": pa.array(np.full(len(lines), fid), pa.int64()),
                    }))
            dps = []
            for t in tables:
                with tr.span("stages.parse"):
                    d = parse_table(t, now, "line", None)
                tr.count("stages.parse.lines_in", t.num_rows)
                tr.count("stages.parse.points_out", d.num_rows)
                with tr.span("stages.relabel"):
                    d = _key_batch(relabel_batch(d, add=cfg.labels,
                                                 drop=cfg.filtered_labels))
                dps.append(d)
            _replay_rollup(tr, dps, cfg, store, input_fingerprint(files), None,
                           incremental=True)
            with tr.span("pipelines.persist"):
                return merge_run_manifest_any(store, cfg.config_hash())

        scan, save = w.scan, w._save_state

        def traced_scan(*a):
            with tr.span("pipelines.watch"):
                return scan(*a)

        def traced_save(st):
            with tr.span("pipelines.watch"):
                return save(st)

        w._append, w.scan, w._save_state = append, traced_scan, traced_save
        with tr.span("pipelines.watch"):
            w.tick()
        return _store_signature(store)

    def replay_extra(self, res: dict) -> dict:
        after = _block_index(self.store)
        rewritten = sum(b["bytes"] for p, b in after.items() if p not in self.before)
        # block pruning keeps only 1m blocks reaching into the last hour
        decoded = sum(b["rows"] for b in after.values()
                      if b["tier"] == "1m" and b["max_window"] >= self.min_window)
        return {"pipelines.persist.rewrite_bytes_per_point": rewritten / res["items"],
                "pipelines.persist.query_decoded_per_returned":
                    decoded / max(self.returned, 1)}


# ------------------------------------------------------------------- clean

class Clean(Workload):
    """Training-data cleaning: quality filter, exact dedup, verified
    MinHash near-dup dedup and split assignment via ``run_clean``."""

    name = "clean"

    def load_inputs(self) -> dict:
        import pyarrow.parquet as pq

        self.inp = inputs.clean_inputs(self.cache, self.seed)
        self.docs = os.path.dirname(self.inp["files"][0])
        self.expected = inputs.clean_planted_keep(self.seed)
        warm = _fresh(os.path.join(self.work, "warm_in"))
        pq.write_table(pq.read_table(self.inp["files"][0]).slice(0, 200),
                       os.path.join(warm, "documents-00000.parquet"))
        return {"docs": self.inp["docs"], "planted_keep": len(self.expected),
                "sha256": self.inp["sha256"]}

    def _clean(self, src: str, out: str) -> dict:
        from beamium_ray.pipelines.clean import CleanConfig, run_clean

        shutil.rmtree(out, ignore_errors=True)
        return run_clean(CleanConfig(input=src, output=out, stages=CLEAN_STAGES))

    def warm_up(self) -> None:
        from beamium_ray.pipelines.clean import CleanConfig, build_clean_pipeline

        build_clean_pipeline(CleanConfig(
            input=os.path.join(self.work, "warm_in"), output="",
            stages=CLEAN_STAGES[:1])).materialize()

    def op(self, i: int) -> dict:
        import ray.data

        out = os.path.join(self.work, "out")
        shutil.rmtree(out, ignore_errors=True)
        t0 = time.perf_counter()
        res = self._clean(self.docs, out)
        op_s = time.perf_counter() - t0
        from beamium_ray.datapipe.textstats import dataset_report

        # the read: the per-split dataset card of the cleaned corpus
        t0 = time.perf_counter()
        card = dataset_report(ray.data.read_parquet(out), strat_col="split").to_pandas()
        read_s = time.perf_counter() - t0
        ids = np.sort(ray.data.read_parquet(out, columns=["doc_id"])
                      .to_pandas()["doc_id"].to_numpy())
        errors = []
        if card["n_docs"].sum() != len(ids) or card["n_keep"].sum() != len(ids):
            errors.append(f"dataset card counts {card.to_dict('list')} "
                          f"for {len(ids)} kept docs")
        if res["rows_in"] != self.inp["docs"]:
            errors.append(f"rows_in {res['rows_in']} != {self.inp['docs']}")
        if not np.array_equal(ids, self.expected):
            errors.append(f"kept {len(ids)} docs; the planted keep-set has "
                          f"{len(self.expected)}")
        size = sum(os.path.getsize(p) for p in
                   glob.glob(os.path.join(out, "**", "*.parquet"), recursive=True))
        return {"op_s": op_s, "read_s": read_s, "items": self.inp["docs"],
                "attempted": 1, "failed": int(bool(errors)), "errors": errors,
                "bytes_per_item": size / max(len(ids), 1)}

    def named_metrics(self, ops: list[dict]) -> list[tuple]:
        op_s = float(np.median([o["op_s"] for o in ops]))
        return [("clean_docs_per_s", ops[0]["items"] / op_s, "docs/s")]

    # -- traced replay
    def replay_target(self, label: str) -> None:
        return None

    def replay(self, tr, _target) -> np.ndarray:
        import pyarrow.parquet as pq
        import ray.data

        from beamium_ray.datapipe.dedup import exact_dedup, minhash_dedup
        from beamium_ray.datapipe.sample import assign_splits
        from beamium_ray.datapipe.textstats import quality_filter_batch

        # dedup and split assignment are Dataset operators: their spans
        # include the Ray Data execution they start
        t = pq.read_table(self.inp["files"][0])
        with tr.span("datapipe.textstats.quality"):
            q = quality_filter_batch(t, text_col="text", id_col="doc_id")
        t = t.filter(pc.equal(q["keep"], 1))
        with tr.span("datapipe.dedup.exact"):
            reps = exact_dedup(ray.data.from_arrow(t), mode="hash128").to_pandas()
        t = t.filter(pc.is_in(t["doc_id"], value_set=pa.array(reps["doc_id"])))
        m: dict = {}
        with tr.span("datapipe.dedup.minhash"):
            labels = minhash_dedup(ray.data.from_arrow(t), verify_threshold=0.8,
                                   metrics=m).to_pandas()
        for ph, secs in (m.get("phase_seconds") or {}).items():
            tr.count(f"datapipe.dedup.minhash.{ph}", secs)
        tr.count("datapipe.dedup.minhash.candidate_pairs", m.get("candidate_pairs", 0))
        tr.count("datapipe.dedup.minhash.verified_edges", m.get("verified_edges", 0))
        reps = labels[labels["doc_id"] == labels["cluster"]]
        t = t.filter(pc.is_in(t["doc_id"], value_set=pa.array(reps["doc_id"])))
        with tr.span("datapipe.sample"):
            split = assign_splits(ray.data.from_arrow(t), key_col="doc_id").to_pandas()
        return np.sort(split["doc_id"].to_numpy())

    def replay_ok(self, got) -> bool:
        return np.array_equal(got, self.expected)

    def replay_extra(self, res: dict) -> dict:
        return {"pipelines.persist.rewrite_bytes_per_point": 0.0,
                "pipelines.persist.query_decoded_per_returned": 0.0}


WORKLOADS = {w.name: w for w in (Ingest, Watch, Clean)}
