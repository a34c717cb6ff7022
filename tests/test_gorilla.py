"""Codec round-trip fuzz tests (FIXTURES.md §3)."""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from beamium_ray.stages.gorilla import (
    decode_block,
    decode_floats,
    decode_ints,
    encode_block,
    encode_floats,
    encode_ints,
)


def rt_ints(a, depth=2):
    out = decode_ints(encode_ints(np.asarray(a, dtype=np.int64), depth))
    assert out.tolist() == list(a)


def rt_floats(a):
    arr = np.asarray(a, dtype=np.float64)
    out = decode_floats(encode_floats(arr))
    assert out.view(np.uint64).tolist() == arr.view(np.uint64).tolist()


def test_ints_regular_spacing():
    rt_ints(np.arange(0, 600_000_000, 60_000_000))
    rt_ints([5])
    rt_ints([])
    rt_ints([7, 7, 7, 7])


def test_ints_jitter_and_negatives():
    rng = np.random.default_rng(42)
    base = np.cumsum(rng.integers(-1000, 100_000, 5000))
    rt_ints(base)
    rt_ints(rng.integers(-(2**62), 2**62, 2000), depth=1)
    rt_ints([0, -1, 2**62, -(2**62), 17], depth=2)


def test_int_extremes():
    rt_ints([np.iinfo(np.int64).min, np.iinfo(np.int64).max, 0], depth=1)


def test_floats_constant_and_random():
    rt_floats(np.full(100, 3.14159))
    rt_floats([])
    rt_floats([1.0])
    rng = np.random.default_rng(7)
    rt_floats(rng.normal(0, 1e6, 5000))
    rt_floats(np.round(rng.normal(100, 30, 5000), 2))
    # sign flips, denormals, inf, nan payloads
    special = np.array(
        [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e308, -1e308]
    )
    rt_floats(special)


def test_compression_ratio_regular_series():
    ts = np.arange(0, 60_000_000 * 10_000, 60_000_000)
    enc = encode_ints(ts, depth=2)
    packed = len(enc["tags"]) + len(enc["payload"])
    assert packed < len(ts) * 8 / 12  # ≥12× on regular spacing

    vals = np.full(10_000, 42.5)
    encf = encode_floats(vals)
    assert len(encf["tags"]) + len(encf["payload"]) < 10_000 * 2


def test_block_roundtrip():
    rng = np.random.default_rng(3)
    nseries, nwin = 40, 30
    rows = []
    for s in range(nseries):
        for w in range(nwin):
            gap = (s + w) % 5 == 0
            rows.append(
                {
                    "series_key": f"seq.web.ntok{{shard={s}}}",
                    "window_start": 1_700_000_000_000_000 + w * 60_000_000,
                    "vmin": None if gap else round(rng.normal(50, 10), 2),
                    "vmax": None if gap else round(rng.normal(150, 10), 2),
                    "vsum": None if gap else round(rng.normal(1000, 100), 3),
                    "n": 0 if gap else int(rng.integers(1, 50)),
                    "last": None if gap else round(rng.normal(100, 10), 2),
                    "last_ts": None if gap else int(rng.integers(0, 2**50)),
                    "last_order": None if gap else int(rng.integers(0, 2**40)),
                }
            )
    t = pa.Table.from_pylist(rows)
    buf = encode_block(t)
    back = decode_block(buf)
    assert back.num_rows == t.num_rows
    for col in t.column_names:
        assert back[col].to_pylist() == t[col].to_pylist(), col
    # honest compression vs raw parquet-ish layout
    raw = t.nbytes
    assert len(buf) < raw


def test_bit_codec_roundtrip_fuzz():
    """Bit-granular float codec: exact round-trip (incl. NaN payloads,
    ±Inf, -0.0, repeats) and smaller-or-equal size on compressible data."""
    import numpy as np

    from beamium_ray.stages.gorilla import (
        decode_floats_bits,
        encode_floats,
        encode_floats_bits,
    )

    rng = np.random.default_rng(7)
    cases = [
        rng.normal(size=5000),
        np.repeat(rng.normal(size=50), 100),
        np.zeros(301),
        np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 1.5, 1.5, -2.25]),
        rng.integers(0, 500, 4000).astype(float),
        np.array([]),
    ]
    for arr in cases:
        back = decode_floats_bits(encode_floats_bits(arr))
        assert (
            np.asarray(arr, float).view(np.uint64).tolist()
            == back.view(np.uint64).tolist()
        )
    # rollup-shaped data (integer-valued, repeated): bit codec wins
    arr = np.repeat(rng.integers(16, 512, 64).astype(float), 50)
    eb = encode_floats_bits(arr)
    eB = encode_floats(arr)
    sz_bits = sum(len(eb[k]) for k in ("payload", "lead", "mlen", "nz"))
    sz_bytes = len(eB["payload"]) + len(eB["tags"])
    assert sz_bits < sz_bytes


def test_int_bit_codec_roundtrip_fuzz():
    """Bit-granular int codec: exact delta^depth+zigzag round-trips and
    a ratio win on regular (timestamp-shaped) streams."""
    import numpy as np

    from beamium_ray.stages.gorilla import (
        decode_ints_bits,
        encode_ints,
        encode_ints_bits,
    )

    rng = np.random.default_rng(11)
    cases = [
        np.sort(rng.integers(0, 10**15, 5000)),
        1_700_000_000_000_000 + np.arange(10_000) * 60_000_000,
        rng.integers(-(2**62), 2**62, 3000),
        np.array([0, -1, 2**62, -(2**62), 7]),
        np.array([], dtype=np.int64),
    ]
    for arr in cases:
        for depth in (1, 2):
            back = decode_ints_bits(encode_ints_bits(arr, depth))
            assert back.tolist() == arr.astype(np.int64).tolist()
    regular = 1_700_000_000_000_000 + np.arange(10_000) * 60_000_000
    eb = encode_ints_bits(regular, 2)
    eB = encode_ints(regular, 2)
    sz_bits = sum(len(eb[k]) for k in ("payload", "lead", "mlen", "nz"))
    sz_bytes = len(eB["payload"]) + len(eB["tags"])
    assert sz_bits < sz_bytes / 2  # ≥2× win on regular windows


def test_block_roundtrip_with_bit_codec(ray_session):
    """encode_block(float_codec='bits') round-trips and self-describes
    (decoder needs no flag)."""
    import numpy as np
    import pyarrow as pa

    from beamium_ray.stages.gorilla import decode_block, encode_block

    rng = np.random.default_rng(3)
    n = 500
    t = pa.table(
        {
            "series_key": pa.array(
                np.sort(rng.choice([f"s{i}" for i in range(5)], n)).tolist()
            ),
            "window_start": pa.array(np.sort(rng.integers(0, 10**6, n)), pa.int64()),
            "vmin": pa.array(rng.normal(size=n), pa.float64()),
            "vmax": pa.array(rng.normal(size=n), pa.float64()),
            "vsum": pa.array(rng.normal(size=n), pa.float64()),
            "n": pa.array(rng.integers(0, 50, n), pa.int64()),
            "last": pa.array(rng.normal(size=n), pa.float64()),
        }
    )
    for codec in ("bytes", "bits"):
        back = decode_block(
            encode_block(t, float_codec=codec, int_codec=codec)
        )
        assert back.num_rows == n
        for c in ["vmin", "vmax", "vsum", "last", "window_start", "n"]:
            assert back[c].to_pylist() == t[c].to_pylist(), (codec, c)


# ---------- golden block bytes ----------

NAN_A = np.array([0x7FF8000000000001], dtype=np.uint64).view(np.float64)[0]
NAN_B = np.array([0xFFF00000DEADBEEF], dtype=np.uint64).view(np.float64)[0]
T0 = 1_700_000_000_000_000
MIN = 60_000_000


def _golden_table(keys, ws, n, vals, last_cols=True):
    """One rolled-tier table; each ``vals`` entry is (vmin, vmax, vsum,
    last), or None for a gap-filled row (n=0, null aggregates)."""
    cols = {
        "series_key": pa.array(keys, pa.string()),
        "window_start": pa.array(ws, pa.int64()),
    }
    for i, name in enumerate(["vmin", "vmax", "vsum"]):
        cols[name] = pa.array([None if v is None else v[i] for v in vals],
                              pa.float64())
    cols["n"] = pa.array(n, pa.int64())
    cols["last"] = pa.array([None if v is None else v[3] for v in vals],
                            pa.float64())
    if last_cols:
        cols["last_ts"] = pa.array(
            [None if v is None else w + 17 * k
             for k, (v, w) in enumerate(zip(vals, ws))], pa.int64())
        cols["last_order"] = pa.array(
            [None if v is None else 3 * k + 1 for k, v in enumerate(vals)],
            pa.int64())
    return pa.table(cols)


def golden_tables() -> dict[str, pa.Table]:
    """Blocks of 1, 2 and 3 rows (the delta-of-delta head cases), several
    series runs (one series in two runs, a non-ASCII key), NaN payloads
    and gap-filled nulls, and a block without last_ts/last_order."""
    out = {
        "one_row": _golden_table(["a{x=1}"], [T0], [3], [(1.5, 2.5, 6.0, 2.0)]),
        "two_rows": _golden_table(
            ["a{x=1}"] * 2, [T0, T0 + MIN], [3, 1],
            [(1.5, 2.5, 6.0, 2.0), (-0.0, -0.0, -0.0, -0.0)]),
        "three_rows": _golden_table(
            ["a{x=1}", "a{x=1}", "b{x=2}"], [T0, T0 + 2 * MIN, T0 - 5 * MIN],
            [1, 2, 7],
            [(0.1, 0.1, 0.1, 0.1), (1e308, np.inf, -np.inf, 5e-324),
             (42.0, 43.0, 300.25, 42.5)]),
    }
    keys, ws, n, vals = [], [], [], []
    runs = [("cpu{h=a}", 7), ("cpu{h=b}", 1), ("mem{h=a}", 12),
            ("cpu{h=a}", 4), ('disk{h="qé"}', 5)]
    for s, (name, nwin) in enumerate(runs):
        for w in range(nwin):
            keys.append(name)
            ws.append(T0 + (w * (s + 1) + (w * w) % 3) * MIN)
            if (s + w) % 4 == 3:
                n.append(0)
                vals.append(None)
            else:
                n.append(1 + (s * 7 + w) % 50)
                base = 100.0 * s + w * 0.25
                vals.append((base - 1.5, base + 2.0 * w, base * (w + 1),
                             NAN_A if (s, w) == (2, 5) else base))
    out["runs_gaps_nan"] = _golden_table(keys, ws, n, vals)
    out["nan_payloads"] = _golden_table(
        ["z"] * 4, [T0 + k * MIN for k in range(4)], [1, 1, 0, 2],
        [(NAN_A, NAN_B, np.nan, NAN_B), (NAN_B, NAN_A, NAN_A, np.nan), None,
         (-np.nan, 0.0, 1.0, NAN_A)])
    out["no_last_cols"] = _golden_table(
        ["m", "m", "n", "n", "n"],
        [T0, T0 + MIN, T0, T0 + 3 * MIN, T0 + 4 * MIN], [1, 0, 2, 5, 9],
        [(1.0, 1.0, 1.0, 1.0), None, (2.0, 3.0, 5.0, 3.0),
         (7.0, 9.0, 40.0, 8.0), (1.0, 2.0, 12.0, 2.0)],
        last_cols=False)
    return out


GOLDEN_SHA256 = {
    ("one_row", "bytes"):
        "1ae9e0678905b11b8d20353e61c3f2b0df48ab65ede13055bbf1aa8611df5ef1",
    ("one_row", "bits"):
        "de41bed7c1ef4685d2612b9665df55a8852b24ea7ea9357493ce7aba6f4bf63c",
    ("two_rows", "bytes"):
        "5a169a111880a153e772004e94f0dd1993ca73cd959aadf44c1b48ce671f4941",
    ("two_rows", "bits"):
        "e0c044510abd7de22043f989cdd55d42d9a71a950ef1cc8f782bdfaa828bec5b",
    ("three_rows", "bytes"):
        "974378a3509fe7d5bf8c78accb9bbbc14b269fe461488151b503450bc71e2e77",
    ("three_rows", "bits"):
        "f6b84a1cd7b9b732cfd1e752de1f8a8770f293a7b6d32d6035ba7cb97fe617fc",
    ("runs_gaps_nan", "bytes"):
        "090b2749743ad8a4fd1ba31f107aed687edab6b4ef10ffec2015dfd79896b002",
    ("runs_gaps_nan", "bits"):
        "624cca6869df6db20a3c5624d920850b4b0be8e54ff0756c5486a30b1e034794",
    ("nan_payloads", "bytes"):
        "c36d647baa7a5e6cdb223761c32886a302bf78f90c0883361bddb41a0908fe9c",
    ("nan_payloads", "bits"):
        "5c8dc16a7666b179fdd316b649eed46fbfd69a70944b53a0f11fa9fa4de28a93",
    ("no_last_cols", "bytes"):
        "9714accbc7c979872b2399a9aa99286960be846363cc4cc772e370c62f14a840",
    ("no_last_cols", "bits"):
        "65691029f964103a4efa3afe9402d8b4c06e8e10b099259b212f24b4fca96b10",
}


def _bits_equal(a: pa.Table, b: pa.Table) -> bool:
    """Table equality that compares floats bit for bit (NaN payloads
    included) and nulls by position."""
    if a.column_names != b.column_names or a.num_rows != b.num_rows:
        return False
    for name in a.column_names:
        x, y = a[name].combine_chunks(), b[name].combine_chunks()
        if x.type != y.type or x.is_valid().to_pylist() != y.is_valid().to_pylist():
            return False
        if pa.types.is_floating(x.type):
            xv = x.fill_null(0.0).to_numpy().view(np.uint64)
            yv = y.fill_null(0.0).to_numpy().view(np.uint64)
            if xv.tolist() != yv.tolist():
                return False
        elif x.to_pylist() != y.to_pylist():
            return False
    return True


def test_golden_block_bytes():
    """The block format is pinned byte for byte: each fixture's
    ``encode_block`` output under both codecs has a fixed sha256, and it
    decodes back to the fixture bit for bit."""
    import hashlib

    seen = {}
    for name, t in golden_tables().items():
        for codec in ("bytes", "bits"):
            buf = encode_block(t, float_codec=codec, int_codec=codec)
            seen[(name, codec)] = hashlib.sha256(buf).hexdigest()
            assert _bits_equal(decode_block(buf), t), (name, codec)
    assert seen == GOLDEN_SHA256


def test_encode_blocks_is_per_table_encode_block():
    """The batched encoder returns exactly the bytes of one
    ``encode_block`` per table, for both codecs and any table order."""
    from beamium_ray.stages.gorilla import encode_blocks

    rng = np.random.default_rng(5)
    tables = list(golden_tables().values())
    for n in (0, 1, 2, 3, 4, 9, 17, 64):  # random segment lengths and nulls
        keys = np.sort(rng.choice(["a", "b", "c"], n)).tolist()
        nulls = rng.random(n) < 0.3
        vals = rng.normal(0, 1e3, n)
        vals[rng.random(n) < 0.1] = np.nan
        tables.append(pa.table({
            "series_key": pa.array(keys, pa.string()),
            "window_start": pa.array(np.sort(rng.integers(-10**12, 10**15, n)),
                                     pa.int64()),
            **{c: pa.array(vals * (i + 1), pa.float64(), mask=nulls)
               for i, c in enumerate(["vmin", "vmax", "vsum", "last"])},
            "n": pa.array(rng.integers(0, 100, n), pa.int64()),
            "last_ts": pa.array(rng.integers(-2**50, 2**50, n), pa.int64(),
                                mask=nulls),
        }))
    for codec in ("bytes", "bits"):
        for order in (tables, tables[::-1], tables[2:3]):
            want = [encode_block(t, float_codec=codec, int_codec=codec)
                    for t in order]
            got = encode_blocks(order, float_codec=codec, int_codec=codec)
            assert got == want, codec
    assert encode_blocks([]) == []


def test_decode_blocks_is_per_block_decode_plus_concat(tmp_path):
    """``decode_blocks`` over several block files equals one
    ``decode_block`` per file concatenated, then the window filter."""
    import pyarrow.compute as pc

    from beamium_ray.stages.gorilla import decode_blocks

    tables = golden_tables()
    paths, parts = [], []
    for codec in ("bytes", "bits"):
        for name in ("one_row", "runs_gaps_nan", "three_rows", "nan_payloads",
                     "two_rows"):
            buf = encode_block(tables[name], float_codec=codec, int_codec=codec)
            p = str(tmp_path / f"{name}-{codec}.bin")
            with open(p, "wb") as f:
                f.write(buf)
            paths.append(p)
            parts.append(decode_block(buf))
    full = pa.concat_tables(parts)
    assert _bits_equal(decode_blocks(paths), full)
    for lo, hi in ((T0 + MIN, None), (None, T0 + 4 * MIN),
                   (T0 + MIN, T0 + 4 * MIN), (T0 + 99 * MIN, None)):
        want = full
        if lo is not None:
            want = want.filter(pc.greater_equal(want["window_start"], lo))
        if hi is not None:
            want = want.filter(pc.less_equal(want["window_start"], hi))
        assert _bits_equal(decode_blocks(paths, lo, hi), want), (lo, hi)
    # a block without last_ts/last_order next to one with them: the
    # missing columns come back null, as from concat with promotion
    mixed = [str(tmp_path / "one_row-bytes.bin"), str(tmp_path / "m.bin")]
    with open(mixed[1], "wb") as f:
        f.write(encode_block(tables["no_last_cols"]))
    want = pa.concat_tables(
        [decode_block(encode_block(tables["one_row"])),
         decode_block(encode_block(tables["no_last_cols"]))],
        promote_options="default")
    assert _bits_equal(decode_blocks(mixed), want)
