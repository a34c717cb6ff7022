"""Counter increase/rate + series churn + interpolated gap-fill."""

import numpy as np
import pyarrow as pa

from beamium_ray.stages.rate import increase_bucket
from beamium_ray.stages.rollup import gapfill_tier

US_1M = 60_000_000
US_1H = 3_600_000_000


def brute_increase(keys, ts, vals, orders, tier_us):
    """Per-series, (ts, order)-ordered adjusted deltas, per-window sums."""
    out = {}
    for s in sorted(set(keys)):
        rows = sorted(
            [(ts[i], orders[i], vals[i]) for i in range(len(keys)) if keys[i] == s]
        )
        for (pt, _, pv), (t, _, v) in zip(rows, rows[1:]):
            w = t - t % tier_us
            adj = v - pv if v >= pv else v
            r = 1 if v < pv else 0
            k = (s, w)
            inc, rst, nd = out.get(k, (0, 0, 0))
            out[k] = (inc + adj, rst + r, nd + 1)
    return out


def _mk_points(rng, n=400, n_series=5, span_us=3 * US_1H):
    keys = rng.choice([f"s{i}" for i in range(n_series)], n).tolist()
    ts = rng.integers(0, span_us, n).astype(np.int64)
    vals = rng.integers(0, 10_000, n).astype(np.int64)
    orders = np.arange(n, dtype=np.int64)
    return keys, ts, vals, orders


def test_increase_bucket_matches_brute_force():
    rng = np.random.default_rng(7)
    keys, ts, vals, orders = _mk_points(rng)
    g = pa.table(
        {
            "series_key": pa.array(keys),
            "ts": pa.array(ts),
            "value": pa.array(vals),
            "order": pa.array(orders),
        }
    )
    for tier_us in (US_1M, US_1H):
        got = increase_bucket(g, {"t": tier_us})
        want = brute_increase(keys, ts, vals, orders, tier_us)
        assert got.num_rows == len(want)
        for row in got.to_pylist():
            k = (row["series_key"], row["window_start"])
            inc, rst, nd = want[k]
            assert (row["increase"], row["resets"], row["n_deltas"]) == (
                inc, rst, nd,
            ), k
            assert row["rate"] == inc / (tier_us / 1e6)


def test_increase_reset_semantics():
    """A drop credits the new value in full (counter restarted at 0)."""
    g = pa.table(
        {
            "series_key": pa.array(["a"] * 4),
            "ts": pa.array(np.array([0, 10, 20, 30], np.int64) * 1_000_000),
            "value": pa.array(np.array([100, 150, 30, 40], np.int64)),
            "order": pa.array(np.arange(4, dtype=np.int64)),
        }
    )
    out = increase_bucket(g, {"1m": US_1M}).to_pylist()
    assert len(out) == 1
    # deltas: +50, reset→+30, +10 = 90; one reset; 3 deltas
    assert out[0]["increase"] == 90
    assert out[0]["resets"] == 1
    assert out[0]["n_deltas"] == 3


def test_increase_ties_break_on_order():
    """Equal timestamps order by the order column (driver-stable)."""
    g = pa.table(
        {
            "series_key": pa.array(["a"] * 3),
            "ts": pa.array(np.zeros(3, np.int64)),
            "value": pa.array(np.array([5, 1, 9], np.int64)),
            "order": pa.array(np.array([2, 0, 1], np.int64)),
        }
    )
    out = increase_bucket(g, {"1m": US_1M}).to_pylist()
    # order 0,1,2 → values 1,9,5: deltas +8, reset→+5 = 13, 1 reset
    assert out[0]["increase"] == 13 and out[0]["resets"] == 1


def test_counter_increase_dataset_split_invariance(ray_session):
    """The Dataset pipeline must not depend on block boundaries, and the
    multi-tier output must equal per-tier brute force."""
    import ray.data

    from beamium_ray.stages.rate import counter_increase_dataset

    rng = np.random.default_rng(13)
    keys, ts, vals, orders = _mk_points(rng, n=600)
    t = pa.table(
        {
            "series_key": pa.array(keys),
            "ts": pa.array(ts),
            "value": pa.array(vals),
            "order": pa.array(orders),
        }
    )
    for nblocks in (1, 7):
        ds = ray.data.from_arrow(t).repartition(nblocks)
        got = pa.Table.from_pandas(
            counter_increase_dataset(
                ds, {"1m": US_1M, "1h": US_1H}, order_col="order",
                num_buckets=4,
            ).to_pandas()
        )
        for tier, tier_us in (("1m", US_1M), ("1h", US_1H)):
            sub = got.filter(pa.compute.equal(got["tier"], tier))
            want = brute_increase(keys, ts, vals, orders, tier_us)
            assert sub.num_rows == len(want), (nblocks, tier)
            for row in sub.to_pylist():
                k = (row["series_key"], row["window_start"])
                assert want[k] == (
                    row["increase"], row["resets"], row["n_deltas"],
                ), (nblocks, tier, k)


def _runs_table(rng, n_series=11):
    """Global per-series ts-ordered counter points (with resets)."""
    parts = []
    for s in range(n_series):
        m = int(rng.integers(200, 900))
        ts = np.sort(rng.integers(0, 10**10, m)).astype(np.int64)
        v = np.cumsum(rng.integers(0, 50, m)).astype(np.int64)
        for r in rng.integers(0, m, 2):
            v[r:] = v[r:] - v[r] + rng.integers(0, 5)
        parts.append((np.repeat(f"s{s:03d}", m), ts, v))
    keys = np.concatenate([p[0] for p in parts])
    ts = np.concatenate([p[1] for p in parts])
    v = np.concatenate([p[2] for p in parts])
    return pa.table(
        {
            "series_key": pa.array(keys),
            "ts": pa.array(ts, pa.int64()),
            "value": pa.array(v, pa.int64()),
            "order": pa.array(np.arange(len(ts), dtype=np.int64)),
        }
    ), parts


def _run_shaped_blocks(rng, full, parts, nb=7):
    """Split every series into contiguous runs, one run per block —
    the combiner's contract shape."""
    blocks = [[] for _ in range(nb)]
    pos = 0
    for _, ts, _v in parts:
        m = len(ts)
        k = int(rng.integers(2, nb))
        cuts = np.sort(
            rng.choice(np.arange(1, m), size=k - 1, replace=False)
        )
        dest = rng.permutation(nb)[:k]
        prev = 0
        for j, c in enumerate(list(cuts) + [m]):
            blocks[dest[j]].append(full.slice(pos + prev, c - prev))
            prev = c
        pos += m
    return [pa.concat_tables(b) for b in blocks if b]


def test_runs_combiner_matches_full_route():
    """merge_runs_bucket over run-shaped partials ≡ increase_bucket over
    the raw points — including state rows (seeded battery)."""
    from beamium_ray.stages.rate import merge_runs_bucket, runs_partial

    tiers = {"1m": US_1M, "1h": US_1H}
    for seed in (7, 42, 1999):
        rng = np.random.default_rng(seed)
        full, parts = _runs_table(rng)
        ref = increase_bucket(full, tiers, emit_state=True)
        blks = _run_shaped_blocks(rng, full, parts)
        merged = merge_runs_bucket(
            pa.concat_tables([runs_partial(b, tiers) for b in blks]),
            tiers,
            emit_state=True,
        )

        def norm(t):
            return t.to_pandas().sort_values(
                ["tier", "series_key", "window_start"]
            ).reset_index(drop=True)

        import pandas as pd

        pd.testing.assert_frame_equal(norm(ref), norm(merged))


def test_runs_combiner_detects_interleaved_blocks():
    """Interleaving one series across blocks must raise, not return
    silently wrong windows (the exact-or-loud contract)."""
    import pytest

    from beamium_ray.stages.rate import merge_runs_bucket, runs_partial

    tiers = {"1m": US_1M}
    rng = np.random.default_rng(3)
    full, _ = _runs_table(rng, n_series=2)
    head = full.slice(0, 100)
    even = head.take(pa.array(list(range(0, 100, 2))))
    odd = head.take(pa.array(list(range(1, 100, 2))))
    p = pa.concat_tables(
        [runs_partial(even, tiers), runs_partial(odd, tiers)]
    )
    with pytest.raises(ValueError, match="interleave"):
        merge_runs_bucket(p, tiers)


def test_runs_combiner_detects_nested_single_point_run():
    """A single-point run nested strictly inside another block's run
    must raise. With per-block synthetic order, both boundary checks
    used to pass via (ts, order) EQUALITY — the k-th-with-k-th pairing
    silently crossed real runs and lost the reset between them — so
    the cross-run check must be strict."""
    import pytest

    from beamium_ray.stages.rate import merge_runs_bucket, runs_partial

    tiers = {"1m": US_1M}

    def blk(ts, v):
        n = len(ts)
        return pa.table(
            {
                "series_key": pa.array(np.repeat("s", n)),
                "ts": pa.array(np.array(ts, np.int64)),
                "value": pa.array(np.array(v, np.int64)),
                # per-block synthetic order, as prep() defaults to
                "order": pa.array(np.arange(n, dtype=np.int64)),
            }
        )

    a = blk([1 * US_1M, 5 * US_1M], [10, 5])  # run with in-block reset
    b = blk([3 * US_1M], [20])  # lone point strictly inside a's span
    p = pa.concat_tables([runs_partial(a, tiers), runs_partial(b, tiers)])
    with pytest.raises(ValueError, match="interleave"):
        merge_runs_bucket(p, tiers)


def test_counter_increase_dataset_runs_route(ray_session):
    """combine='runs' through the Dataset API ≡ combine=None on
    run-shaped blocks (sorted-by-(series, ts) input)."""
    import ray.data

    from beamium_ray.stages.rate import counter_increase_dataset

    rng = np.random.default_rng(77)
    full, parts = _runs_table(rng, n_series=6)
    blks = _run_shaped_blocks(rng, full, parts, nb=5)
    ds = ray.data.from_arrow(blks)
    tiers = {"1m": US_1M, "1h": US_1H}
    want = counter_increase_dataset(
        ds, tiers, order_col="order", num_buckets=4
    ).to_pandas()
    got = counter_increase_dataset(
        ds, tiers, order_col="order", num_buckets=4, combine="runs"
    ).to_pandas()

    def norm(df):
        return df.sort_values(
            ["tier", "series_key", "window_start"]
        ).reset_index(drop=True)

    import pandas as pd

    pd.testing.assert_frame_equal(norm(want), norm(got))


def _merged_fixture(keys, ws, lasts):
    n = len(ws)
    z = np.zeros(n, dtype=np.int64)
    return pa.table(
        {
            "series_key": pa.array(keys),
            "window_start": pa.array(np.array(ws, np.int64)),
            "vmin": pa.array(z),
            "vmax": pa.array(z),
            "vsum": pa.array(z),
            "n": pa.array(np.ones(n, dtype=np.int64)),
            "last": pa.array(np.array(lasts, np.int64)),
            "last_ts": pa.array(np.array(ws, np.int64)),
            "last_order": pa.array(z),
        }
    )


def test_gapfill_interpolate_values():
    """Hole of 3 between last=10 and last=22: floor interp 13, 16, 19."""
    t = _merged_fixture(["a", "a"], [0, 4 * US_1M], [10, 22])
    out = gapfill_tier(t, US_1M, interpolate=True)
    rows = {r["window_start"]: r for r in out.to_pylist()}
    assert [rows[i * US_1M]["last"] for i in range(5)] == [10, 13, 16, 19, 22]
    assert [rows[i * US_1M]["n"] for i in range(5)] == [1, 0, 0, 0, 1]
    # other aggregates keep null-gap semantics
    assert rows[US_1M]["vsum"] is None


def test_gapfill_interpolate_negative_slope_floors():
    """Floor (not truncate-toward-zero) on a falling segment: 10 → 3
    over a 2-hole: exact thirds 10, 7.67→7, 5.33→5, 3."""
    t = _merged_fixture(["a", "a"], [0, 3 * US_1M], [10, 3])
    out = gapfill_tier(t, US_1M, interpolate=True)
    lasts = [r["last"] for r in out.sort_by("window_start").to_pylist()]
    assert lasts == [10, 7, 5, 3]


def test_gapfill_interpolate_series_boundary():
    """No interpolation across different series; per-series ranges only."""
    t = _merged_fixture(
        ["a", "a", "b"], [0, 2 * US_1M, 5 * US_1M], [0, 100, 7]
    )
    out = gapfill_tier(t, US_1M, interpolate=True)
    assert out.num_rows == 4  # a: 0,1m,2m; b: 5m
    rows = {(r["series_key"], r["window_start"]): r for r in out.to_pylist()}
    assert rows[("a", US_1M)]["last"] == 50


def test_series_churn_matches_pandas(ray_session):
    import pandas as pd
    import ray.data

    from beamium_ray.stages.rate import series_churn_dataset

    rng = np.random.default_rng(3)
    n = 800
    W = US_1H
    t = pa.table(
        {
            "cls_in": pa.array(rng.choice(["x", "y"], n)),
            "uid": pa.array(rng.integers(0, 40, n).astype(np.int64)),
            "ts": pa.array(rng.integers(0, 20 * W, n).astype(np.int64)),
        }
    )
    got = (
        series_churn_dataset(
            ray.data.from_arrow(t).repartition(5), W, "cls_in", "uid", "ts",
            num_buckets=4,
        )
        .to_pandas()
        .sort_values(["cls", "window_start"])
        .reset_index(drop=True)
    )
    df = t.to_pandas()
    df["w"] = df["ts"] - df["ts"] % W
    act = (
        df.groupby(["cls_in", "w"])["uid"].nunique().rename("active_users")
    )
    first = df.groupby(["cls_in", "uid"])["w"].min().reset_index()
    new = first.groupby(["cls_in", "w"]).size().rename("new_users")
    want = (
        pd.concat([act, new], axis=1)
        .fillna(0)
        .astype(np.int64)
        .reset_index()
        .rename(columns={"cls_in": "cls", "w": "window_start"})
        .sort_values(["cls", "window_start"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_incremental_rate_two_ticks_equal_one_shot(ray_session, tmp_path):
    """Arbitrary ts split (mid-window): summed per-tick partials must
    equal the one-shot increase rows; a series absent from tick 2
    keeps its state without emitting spurious rows."""
    import ray.data

    from beamium_ray.stages.rate import (
        IncrementalRate, counter_increase_dataset,
    )

    rng = np.random.default_rng(31)
    keys, ts, vals, orders = _mk_points(rng, n=500)
    # one series confined to the first half: absent from tick 2
    keys = ["only1" if i % 97 == 0 and ts[i] < US_1H else k
            for i, k in enumerate(keys)]
    t = pa.table(
        {
            "series_key": pa.array(keys),
            "ts": pa.array(ts),
            "value": pa.array(vals),
            "order": pa.array(orders),
        }
    )
    tiers = {"1m": US_1M, "1h": US_1H}
    one = counter_increase_dataset(
        ray.data.from_arrow(t), tiers, order_col="order", num_buckets=4
    ).to_pandas()
    want = {
        (r.tier, r.series_key, r.window_start): (r.increase, r.resets, r.n_deltas)
        for r in one.itertuples(index=False)
    }

    mid = int(ts.max()) // 2 + 7  # deliberately NOT a window boundary
    inc = IncrementalRate(str(tmp_path / "rate"), tiers, num_buckets=4)
    parts = []
    for lo in (True, False):
        m = ts < mid if lo else ts >= mid
        tick = pa.table(
            {
                "series_key": pa.array([k for k, keep in zip(keys, m) if keep]),
                "ts": pa.array(ts[m]),
                "value": pa.array(vals[m]),
                "order": pa.array(orders[m]),
            }
        )
        parts.append(
            inc.tick(
                ray.data.from_arrow(tick), batch_key=f"t{lo}"
            ).to_pandas()
        )
    import pandas as pd

    both = pd.concat(parts)
    got = (
        both.groupby(["tier", "series_key", "window_start"])[
            ["increase", "resets", "n_deltas"]
        ]
        .sum()
        .to_dict("index")
    )
    got = {k: (v["increase"], v["resets"], v["n_deltas"]) for k, v in got.items()}
    assert got == want


def test_incremental_rate_replay_noop(ray_session, tmp_path):
    import ray.data

    from beamium_ray.stages.rate import IncrementalRate

    t = pa.table(
        {
            "series_key": pa.array(["a", "a"]),
            "ts": pa.array(np.array([0, 70_000_000], np.int64)),
            "value": pa.array(np.array([10, 25], np.int64)),
            "order": pa.array(np.array([0, 1], np.int64)),
        }
    )
    inc = IncrementalRate(str(tmp_path / "rate"), {"1m": US_1M}, num_buckets=2)
    out1 = inc.tick(ray.data.from_arrow(t), batch_key="k1").to_pandas()
    # a watcher replaying the SAME batch after commit must not re-delta
    # against the advanced state (25 -> 10 would count as a reset)
    out2 = inc.tick(ray.data.from_arrow(t), batch_key="k1").to_pandas()
    assert inc._manifest()["tick"] == 1
    key = ["tier", "series_key", "window_start"]
    assert sorted(map(tuple, out1[key].values.tolist())) == sorted(
        map(tuple, out2[key].values.tolist())
    )
    assert out1["resets"].sum() == 0 and out1["increase"].sum() == 15


def test_directory_watcher_incremental_rate(ray_session, tmp_path):
    """DirectoryWatcher with a rate appender: counter samples landing
    across ticks delta against the committed last-point store; a
    crash-replayed pending batch is a no-op (no phantom resets)."""
    import hashlib

    import pyarrow.parquet as pq

    import ray.data

    from beamium_ray.pipelines.watch import DirectoryWatcher
    from beamium_ray.stages.rate import (
        IncrementalRate, counter_increase_dataset,
    )

    landing = tmp_path / "landing"
    landing.mkdir()
    out = tmp_path / "out"
    inc = IncrementalRate(str(out / "rate_state"), {"1m": US_1M},
                          num_buckets=2)

    outs = []

    def appender(ds, files):
        key = hashlib.sha256(
            "\n".join(sorted(files)).encode()
        ).hexdigest()
        outs.append(inc.tick(ds, batch_key=key).to_pandas())
        return {"batch": key}

    w = DirectoryWatcher(
        str(landing), None, str(out), file_extension="parquet",
        loader=ray.data.read_parquet, appender=appender,
    )

    def land(name, rows):
        pq.write_table(
            pa.table(
                {
                    "series_key": pa.array([r[0] for r in rows]),
                    "ts": pa.array([r[1] for r in rows], pa.int64()),
                    "value": pa.array([r[2] for r in rows], pa.int64()),
                    "order": pa.array(
                        list(range(len(rows))), pa.int64()
                    ),
                }
            ),
            landing / name,
        )

    # counter climbs 10→25 in tick 1; tick 2 opens at 5 (a RESET) then 8
    land("t1.parquet", [("a", 0, 10), ("a", 10_000_000, 25)])
    w.tick()
    land("t2.parquet", [("a", 70_000_000, 5), ("a", 80_000_000, 8)])
    w.tick()

    import pandas as pd

    got = (
        pd.concat(outs)
        .groupby(["tier", "series_key", "window_start"])[
            ["increase", "resets", "n_deltas"]
        ]
        .sum()
    )
    # window 0: +15; window 60s: reset→5 then +3 = 8, one reset
    assert got.loc[("1m", "a", 0)].tolist() == [15, 0, 1]
    assert got.loc[("1m", "a", US_1M)].tolist() == [8, 1, 2]

    # crash replay of tick 2 → batch_key no-op, store still at tick 2
    st = w._load_state()
    last = [f for f in st["seen"] if f.endswith("t2.parquet")]
    st["pending"] = {"files": last}
    st["seen"] = [f for f in st["seen"] if f not in last]
    w._save_state(st)
    w.tick()
    assert inc._manifest()["tick"] == 2
    # equivalence with the one-shot over the full stream
    full = pa.table(
        {
            "series_key": pa.array(["a"] * 4),
            "ts": pa.array(
                np.array([0, 10_000_000, 70_000_000, 80_000_000], np.int64)
            ),
            "value": pa.array(np.array([10, 25, 5, 8], np.int64)),
            "order": pa.array(np.array([0, 1, 0, 1], np.int64)),
        }
    )
    one = counter_increase_dataset(
        ray.data.from_arrow(full), {"1m": US_1M}, order_col="order",
        num_buckets=2,
    ).to_pandas()
    want = {
        (r.tier, r.series_key, r.window_start): [r.increase, r.resets, r.n_deltas]
        for r in one.itertuples(index=False)
    }
    assert {k: v.tolist() for k, v in got.iterrows()} == want


def test_incremental_rate_empty_and_single_sample_ticks(ray_session, tmp_path):
    """A first tick of single samples (zero deltas) and a fully EMPTY
    tick must both commit cleanly (no missing-generation wedge) and
    the deltas must surface on the next tick."""
    import ray.data

    from beamium_ray.stages.rate import IncrementalRate

    def tick_tbl(rows):
        return pa.table(
            {
                "series_key": pa.array([r[0] for r in rows], pa.string()),
                "ts": pa.array([r[1] for r in rows], pa.int64()),
                "value": pa.array([r[2] for r in rows], pa.int64()),
                "order": pa.array(list(range(len(rows))), pa.int64()),
            }
        )

    inc = IncrementalRate(str(tmp_path / "rate"), {"1m": US_1M},
                          num_buckets=2, keep_outputs=2)
    # tick 1: the canonical first scrape — one sample per series
    out1 = inc.tick(ray.data.from_arrow(tick_tbl([("a", 0, 10)])),
                    batch_key="k1").to_pandas()
    assert len(out1) == 0
    # tick 2: EMPTY landed batch — state must persist untouched
    out2 = inc.tick(ray.data.from_arrow(tick_tbl([])),
                    batch_key="k2").to_pandas()
    assert len(out2) == 0 and inc._manifest()["tick"] == 2
    # tick 3: the second sample deltas against the tick-1 state
    out3 = inc.tick(
        ray.data.from_arrow(tick_tbl([("a", 10_000_000, 25)])),
        batch_key="k3",
    ).to_pandas()
    assert out3["increase"].tolist() == [15]
    # out-dir retention is bounded when opted in (keep_outputs=2)
    import os

    outs = sorted(d for d in os.listdir(inc.dir) if d.startswith("out-"))
    assert outs == ["out-00002", "out-00003"]


def test_counter_increase_float_values(ray_session):
    """Integral floats cast losslessly; non-integral floats fail with
    guidance (the op is integer-exact by contract), not a bare
    ArrowInvalid (review finding)."""
    import pytest
    import ray
    import ray.data

    from beamium_ray.stages.rate import counter_increase_dataset

    def mk(vals):
        return ray.data.from_arrow(
            pa.table(
                {
                    "series_key": pa.array(["s"] * len(vals)),
                    "ts": pa.array(
                        np.arange(len(vals), dtype=np.int64) * 1_000_000
                    ),
                    "value": pa.array(vals, pa.float64()),
                }
            )
        )

    out = counter_increase_dataset(
        mk([1.0, 3.0, 2.0]), {"1m": 60_000_000}, num_buckets=2
    ).take_all()
    assert sum(r["increase"] for r in out) == 4  # 2 + reset-to-2

    with pytest.raises(ray.exceptions.RayTaskError, match="integer-exact"):
        counter_increase_dataset(
            mk([1.0, 2.5]), {"1m": 60_000_000}, num_buckets=2
        ).take_all()
