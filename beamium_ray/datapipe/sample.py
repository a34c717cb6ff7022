"""Deterministic hash-based corpus sampling (data mixing).

The subsampling step of a training-data pipeline: keep each record
with a per-stratum probability, decided by a salted hash of a stable
key — NOT an RNG — so the sample is

- reproducible (same salt → byte-identical sample on every run and
  every cluster size; resumable runs re-derive the same decisions),
- coordinated-free (a pure map stage: no shuffle, no driver state;
  at 100 TB each block decides its own rows), and
- oracle-checkable (the DuckDB gate recomputes the same splitmix64
  threshold test row by row).

Rates are integer parts-per-million so the comparison is exact
integer math — no float boundary can flip a row between the engine
and the oracle.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from beamium_ray.functions.cluster import bucket_apply
from beamium_ray.functions.hashing import splitmix64

SAMPLE_SALT = 0x452821E638D01377  # pi hex digits, < 2^63 (SQL literal)
# split assignment MUST draw independently of sampling: with a shared
# salt, sampling survivors all satisfy draw < rate and can never land
# in the val/test tail ranges (observed live: 1304/1304 rows → train)
SPLIT_SALT = 0x38D01377452821E6
PPM = 1_000_000


def sample_mask(
    keys: np.ndarray,
    rate_ppm: np.ndarray | int,
    salt: int = SAMPLE_SALT,
) -> np.ndarray:
    """keep[i] = splitmix64(key ^ salt) % 1e6 < rate_ppm[i] — the
    uniform-in-[0,1e6) hash draw every stratum shares."""
    h = splitmix64(keys.astype(np.uint64) ^ np.uint64(salt))
    return (h % np.uint64(PPM)).astype(np.int64) < rate_ppm


def hash_sample(
    ds,
    key_col: str,
    rate_ppm: int = PPM // 2,
    strat_col: str | None = None,
    rates_ppm: dict[str, int] | None = None,
    salt: int = SAMPLE_SALT,
):
    """Filter ``ds`` down to a deterministic sample.

    Flat mode: every row kept with probability ``rate_ppm``/1e6.
    Stratified mode (``strat_col`` + ``rates_ppm``): each stratum value
    gets its own rate (missing strata fall back to ``rate_ppm``) — the
    data-mixing knob (e.g. upsample books, downsample crawl).

    Pure map stage, pyarrow batches, no shuffle."""
    rates = rates_ppm or {}

    def f(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch
        k = batch[key_col].to_numpy(zero_copy_only=False)
        if strat_col is None:
            r = rate_ppm
        else:
            s = batch[strat_col]
            if isinstance(s, pa.ChunkedArray):
                s = s.combine_chunks()
            r = np.full(batch.num_rows, rate_ppm, np.int64)
            for val, ppm in rates.items():  # small dict: strata, not rows
                hit = pc.equal(s, val).to_numpy(zero_copy_only=False)
                r[hit] = ppm
        return batch.filter(pa.array(sample_mask(k, r, salt)))

    return ds.map_batches(f, batch_format="pyarrow", batch_size=None)


def stratum_counts(ds, strat_col: str) -> dict[str, int]:
    """Row count per stratum value: per-block ``value_counts`` partials
    merged on the driver. Contract: strata are FEW (sources/languages,
    not keys) — the driver holds one small dict, never rows; the count
    pass should read only ``strat_col`` (prune at the read)."""
    def f(batch: pa.Table) -> pa.Table:
        s = batch[strat_col]
        if isinstance(s, pa.ChunkedArray):
            s = s.combine_chunks()
        vc = pc.value_counts(s)
        return pa.table(
            {"stratum": vc.field("values"), "n": vc.field("counts")}
        )

    out: dict[str, int] = {}
    parts = ds.map_batches(f, batch_format="pyarrow", batch_size=None)
    for b in parts.iter_batches(batch_format="pyarrow"):
        for v, n in zip(b["stratum"].to_pylist(), b["n"].to_pylist()):
            out[v] = out.get(v, 0) + n
    return out


def temperature_rates_ppm(
    counts: dict[str, int], temperature: float = 2.0
) -> dict[str, int]:
    """Per-stratum keep rates for temperature sampling (the
    multilingual/data-mixing recipe): sampling sources with
    p_s ∝ n_s^(1/T) means keeping each ROW of source s with
    rate_s = (min_n / n_s)^(1 - 1/T), normalized so the smallest
    source is kept whole.

    Exactness contract: at T=2 the exponent is 0.5 and the rate is
    computed as floor(1e6 · sqrt(min_n/n)) — division, sqrt, multiply
    and floor are all IEEE-754 correctly rounded, so DuckDB recomputes
    the identical integer ppm (the gate relies on this). Other
    temperatures use pow(), which carries no cross-engine
    last-ulp guarantee."""
    if temperature < 1.0:
        raise ValueError(
            "temperature < 1 would UPSAMPLE large sources — impossible "
            "by pure subsampling (rates are capped at 1e6 ppm, so the "
            "result silently degrades to keep-everything). Use T >= 1: "
            "T=1 keeps natural proportions, T→∞ equalizes sources."
        )
    if not counts:
        return {}
    mn = min(counts.values())
    rates: dict[str, int] = {}
    for s, n in counts.items():
        x = np.float64(mn) / np.float64(n)
        if temperature == 2.0:
            r = np.floor(1e6 * np.sqrt(x))
        else:
            r = np.floor(1e6 * x ** (1.0 - 1.0 / temperature))
        rates[s] = min(PPM, int(r))
    return rates


def mixture_sample(
    ds,
    key_col: str,
    strat_col: str,
    temperature: float = 2.0,
    salt: int = SAMPLE_SALT,
):
    """Temperature-rebalanced deterministic sample: count rows per
    stratum (small driver dict), derive temperature keep rates, then
    the same salted-hash filter as :func:`hash_sample`. Two passes
    over ``ds`` — the count pass should be fed a read pruned to
    ``strat_col`` + ``key_col``; the filter pass is a pure map."""
    rates = temperature_rates_ppm(
        stratum_counts(ds, strat_col), temperature
    )
    if not rates:
        return ds
    return hash_sample(
        ds, key_col, rate_ppm=PPM, strat_col=strat_col,
        rates_ppm=rates, salt=salt,
    )


def assign_splits(
    ds,
    key_col: str,
    fractions_ppm: dict[str, int] | None = None,
    salt: int = SPLIT_SALT,
):
    """Deterministic DISJOINT train/val/test assignment: the same
    salted-hash draw as :func:`hash_sample`, mapped onto consecutive
    integer ppm ranges — every row gets exactly one ``split`` label,
    reproducible across runs and cluster sizes, pure map (no shuffle).
    ``fractions_ppm`` must sum to exactly 1,000,000 (integer cut points
    — no float boundary can flip a row); insertion order defines the
    ranges, so keep it stable across runs.

    The default salt differs from ``hash_sample``'s on purpose: a
    shared salt CORRELATES the draws, so rows surviving an upstream
    sample (draw < rate) could never land in the val/test tail
    ranges — every survivor would be 'train'."""
    fr = fractions_ppm or {"train": 980_000, "val": 10_000, "test": 10_000}
    if sum(fr.values()) != PPM:
        raise ValueError(
            f"fractions_ppm must sum to exactly {PPM}, got {sum(fr.values())}"
        )
    names = list(fr)
    cuts = np.cumsum([fr[n] for n in names]).astype(np.int64)  # upper bounds

    def f(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch.append_column("split", pa.array([], pa.string()))
        k = batch[key_col].to_numpy(zero_copy_only=False)
        h = splitmix64(k.astype(np.uint64) ^ np.uint64(salt))
        draw = (h % np.uint64(PPM)).astype(np.int64)
        idx = np.searchsorted(cuts, draw, side="right")
        labels = np.array(names, dtype=object)[idx]
        return batch.append_column("split", pa.array(labels, pa.string()))

    return ds.map_batches(f, batch_format="pyarrow", batch_size=None)


# like SAMPLE_SALT: pi-hex-derived, kept < 2^63 so the DuckDB oracle
# can embed them as plain integer literals
CAP_SALT = 0x3EB5466CF34E90C6
SHUFFLE_SALT = 0x5DDC0AC29B7C97C5


def cap_per_key(
    ds,
    key_col: str = "source",
    cap: int = 100,
    id_col: str = "doc_id",
    salt: int = CAP_SALT,
    num_partitions: int | None = None,
):
    """Keep at most ``cap`` docs per ``key_col`` value (domain caps —
    the standard web-corpus balancing step: no single site dominates
    the training mix). Deterministic: within each key, docs rank by
    ``(splitmix64(id ^ salt), id)`` and the first ``cap`` survive — a
    salted-hash lottery, reproducible across runs and cluster sizes.

    Scale shape: the payload NEVER shuffles. Pass 1 sends only narrow
    ``(key, h, id)`` rows through one groupby and reduces each key to
    its cap-th smallest (h, id) pair — the per-key admission THRESHOLD.
    The threshold table is driver-sized by contract (one row per
    distinct key that exceeds the cap: domains/sources, not docs —
    same contract as drop_boilerplate's frequent set). Pass 2
    broadcasts the map once and filters as a pure map stage: keep iff
    (h, id) ≤ the key's threshold.
    """
    import ray

    if cap <= 0:
        raise ValueError(f"cap must be positive, got {cap}")

    def narrow(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_numpy(zero_copy_only=False)
        h = splitmix64(ids.astype(np.uint64) ^ np.uint64(salt))
        return pa.table(
            {
                key_col: t[key_col],
                "h": pa.array(h.astype(np.int64), pa.int64()),
                id_col: pa.array(ids, pa.int64()),
            }
        )

    def threshold(g: pa.Table) -> pa.Table:
        if g.num_rows <= cap:  # whole key survives → no threshold row
            return pa.table(
                {
                    key_col: g[key_col].slice(0, 0),
                    "thr_h": pa.array([], pa.int64()),
                    "thr_id": pa.array([], pa.int64()),
                }
            )
        h = g["h"].to_numpy().astype(np.uint64)
        ids = g[id_col].to_numpy()
        order = np.lexsort((ids, h))
        at = order[cap - 1]
        return pa.table(
            {
                key_col: g[key_col].slice(0, 1),
                "thr_h": pa.array([int(np.int64(h[at]))], pa.int64()),
                "thr_id": pa.array([int(ids[at])], pa.int64()),
            }
        )

    narrowed = bucket_apply(ds, threshold, by=key_col, prep=narrow)
    return _threshold_filter(ds, narrowed, key_col, id_col, salt)


def _threshold_filter(ds, thr_ds, key_col: str, id_col: str, salt: int):
    """Shared pass 2 of the per-key admission family: collect the
    driver-sized (key, thr_h, thr_id) table, broadcast it once, keep a
    row iff its (h, id) ≤ its key's threshold (keys absent from the
    table keep everything). The payload only moves through this one
    pure map stage."""
    import ray

    thr: dict = {}
    for t in thr_ds.iter_batches(batch_format="pyarrow", batch_size=None):
        for k, th, ti in zip(
            t[key_col].to_pylist(), t["thr_h"].to_pylist(),
            t["thr_id"].to_pylist(),
        ):
            thr[k] = (np.uint64(np.int64(th)), ti)
    tref = ray.put(thr)

    def keep(batch: pa.Table, _t=tref) -> pa.Table:
        import ray as _ray

        tm = _ray.get(_t)
        if batch.num_rows == 0 or not tm:
            return batch
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        h = splitmix64(ids.astype(np.uint64) ^ np.uint64(salt))
        kc = batch[key_col]
        if isinstance(kc, pa.ChunkedArray):
            kc = kc.combine_chunks()
        d = kc.dictionary_encode()
        if isinstance(d, pa.ChunkedArray):
            d = d.combine_chunks()
        uniq = d.dictionary.to_pylist()  # distinct keys per block, not rows
        idx = d.indices.to_numpy(zero_copy_only=False)
        m = np.ones(batch.num_rows, dtype=bool)
        for u, kv in enumerate(uniq):
            if kv in tm:
                th, ti = tm[kv]
                rows = idx == u
                hk = h[rows]
                m[rows] = (hk < th) | ((hk == th) & (ids[rows] <= ti))
        return batch.filter(pa.array(m))

    return ds.map_batches(keep, batch_format="pyarrow", batch_size=None)


def token_budget_per_key(
    ds,
    key_col: str = "source",
    budget: int = 1_000_000,
    count_col: str = "n_tok",
    id_col: str = "doc_id",
    salt: int = CAP_SALT,
):
    """Keep docs per key, in salted-hash order, until the key's
    cumulative ``count_col`` would exceed ``budget`` — data mixing by
    TOKEN budget instead of doc count (the cap_per_key generalization:
    "give each source at most N tokens", the unit mixture recipes are
    written in). A doc is admitted iff the running sum INCLUDING it is
    ≤ budget; the doc that crosses the line and everything after it
    (in hash order) drop. Deterministic, reproducible, and exactly
    SQL-replayable as a window sum over the same draws.

    Same two-pass scale shape as :func:`cap_per_key`: narrow
    ``(key, h, id, n)`` rows through one groupby reduce each key to
    the LAST-admitted (h, id) threshold; broadcast; pure-map filter —
    payload never shuffles."""
    if budget <= 0:
        raise ValueError(f"budget must be positive, got {budget}")

    def narrow(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_numpy(zero_copy_only=False)
        h = splitmix64(ids.astype(np.uint64) ^ np.uint64(salt))
        return pa.table(
            {
                key_col: t[key_col],
                "h": pa.array(h.astype(np.int64), pa.int64()),
                id_col: pa.array(ids, pa.int64()),
                "n": pc.cast(
                    pc.fill_null(t[count_col], 0), pa.int64()
                ),
            }
        )

    def threshold(g: pa.Table) -> pa.Table:
        def rows(ks, hs, is_):
            return pa.table(
                {
                    key_col: ks,
                    "thr_h": pa.array(hs, pa.int64()),
                    "thr_id": pa.array(is_, pa.int64()),
                }
            )

        h = g["h"].to_numpy().astype(np.uint64)
        ids = g[id_col].to_numpy()
        n = g["n"].to_numpy()
        order = np.lexsort((ids, h))
        cum = np.cumsum(n[order])
        k = int(np.searchsorted(cum, budget, side="right"))
        if k >= len(ids):  # whole key fits → no threshold row
            return rows(g[key_col].slice(0, 0), [], [])
        if k == 0:
            # nothing fits: an impossible (h, id) threshold — h is a
            # uint64 draw so (h < 0) never holds, and no real id is
            # INT64_MIN
            return rows(
                g[key_col].slice(0, 1), [0], [int(np.iinfo(np.int64).min)]
            )
        at = order[k - 1]
        return rows(
            g[key_col].slice(0, 1),
            [int(np.int64(h[at]))],
            [int(ids[at])],
        )

    narrowed = bucket_apply(ds, threshold, by=key_col, prep=narrow)
    return _threshold_filter(ds, narrowed, key_col, id_col, salt)


def shuffle_order(
    ds,
    id_col: str = "doc_id",
    salt: int = SHUFFLE_SALT,
    num_buckets: int | None = None,
):
    """Dataset of ``(id, shuffle_pos)`` — the DETERMINISTIC global
    training-order permutation: rank every id by
    ``(splitmix64(id ^ salt), id)``. The last step of a training-data
    pipeline needs a global shuffle; a salted-hash rank makes it
    reproducible (same salt → same order on any cluster size),
    resumable (a re-run re-derives identical positions), and
    oracle-checkable — where ``ds.random_shuffle()`` is none of these.

    Scale shape (same distributed prefix-sum as ``pack_offsets``):
    narrow ``(id, h)`` rows range-bucket on h's top bits, per-bucket
    counts prefix-sum on the driver (B integers), then one groupby
    ranks within buckets and adds the bucket base. Payload columns
    never move; consumers either join positions back by id or write
    output partitioned by ``shuffle_pos // rows_per_shard``."""
    from beamium_ray.functions.cluster import default_partitions

    B = 1 << max(int(num_buckets or default_partitions()) - 1, 1).bit_length()
    shift = np.uint64(64 - int(B).bit_length() + 1)

    def narrow(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_numpy(zero_copy_only=False)
        h = splitmix64(ids.astype(np.uint64) ^ np.uint64(salt))
        return pa.table(
            {
                id_col: pa.array(ids, pa.int64()),
                "h": pa.array(h.astype(np.int64), pa.int64()),
                "_bkt": pa.array((h >> shift).astype(np.int64), pa.int64()),
            }
        )

    tagged = ds.map_batches(
        narrow, batch_format="pyarrow", batch_size=None
    ).materialize()
    counts = {
        r["_bkt"]: r["count()"]
        for r in tagged.groupby("_bkt").count().take_all()
    }
    base = {}
    acc = 0
    for k in sorted(counts):
        base[k] = acc
        acc += int(counts[k])

    def rank(g: pa.Table) -> pa.Table:
        ids = g[id_col].to_numpy()
        h = g["h"].to_numpy().astype(np.uint64)
        order = np.lexsort((ids, h))
        pos = np.empty(len(ids), np.int64)
        pos[order] = base[int(g["_bkt"][0].as_py())] + np.arange(
            len(ids), dtype=np.int64
        )
        return pa.table(
            {
                id_col: pa.array(ids, pa.int64()),
                "shuffle_pos": pa.array(pos, pa.int64()),
            }
        )

    return bucket_apply(tagged, rank, by="_bkt")
