"""Gorilla-family compressed block codec: delta-of-delta + XOR, vectorized.

Implements the two ideas of Facebook's Gorilla TSDB paper (Pelkonen et
al., VLDB 2015 — public) as the engine's persisted rollup-block format
(north rule: "delta-of-delta timestamp + Gorilla XOR value compression"):

- timestamps/ints: ``depth`` rounds of differencing (delta-of-delta for
  sorted window starts), zigzag, then variable-width little-endian
  payloads with a 4-bit width-class tag per value (widths 0/1/2/4/8).
- floats: XOR with the previous value, then leading/trailing
  zero-**byte** suppression with a 4-bit offset + 4-bit length tag per
  value.

Deviation from the paper, by design: suppression is byte-granular, not
bit-granular. That keeps BOTH encode and decode pure-numpy array ops
(cumsum + scatter/gather) with no per-point Python or bit loops — the
right trade for a vectorized engine at 10^12 scale; ratio loss vs.
bit-packing is small on rollup outputs. Round-trips are exact
(bit-identical doubles incl. NaN payloads; fuzz-tested).

Blocks (``encode_block``/``decode_block``) serialize a whole rolled
table: dictionary-encoded series keys, DoD window starts, XOR floats,
validity bitmaps for gap-filled nulls. ``decode_blocks`` decodes a
list of block files into one table.
"""

from __future__ import annotations

import json
import struct

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

MAGIC = b"BRGB"
VERSION = 1

_WIDTHS = np.array([0, 1, 2, 4, 8], dtype=np.int64)


def _pack_varbytes(z: np.ndarray) -> tuple[np.ndarray, bytes]:
    """uint64 values → (width-class tags 0..4, concatenated LE payload)."""
    n = len(z)
    cls = np.zeros(n, dtype=np.uint8)
    cls[z > 0] = 1
    cls[z > 0xFF] = 2
    cls[z > 0xFFFF] = 3
    cls[z > 0xFFFFFFFF] = 4
    widths = _WIDTHS[cls]
    le = z.astype("<u8").view(np.uint8).reshape(n, 8)
    col = np.broadcast_to(np.arange(8, dtype=np.int64), (n, 8))
    mask = col < widths[:, None]
    return cls, le[mask].tobytes()


def _unpack_varbytes(cls: np.ndarray, payload: bytes) -> np.ndarray:
    n = len(cls)
    widths = _WIDTHS[cls.astype(np.int64)]
    out = np.zeros((n, 8), dtype=np.uint8)
    col = np.broadcast_to(np.arange(8, dtype=np.int64), (n, 8))
    mask = col < widths[:, None]
    out[mask] = np.frombuffer(payload, dtype=np.uint8)
    return out.view("<u8").ravel()


def _pack_nibbles(a: np.ndarray) -> bytes:
    """two 4-bit values per byte (padded)."""
    if len(a) % 2:
        a = np.concatenate([a, np.zeros(1, dtype=np.uint8)])
    return ((a[0::2] << 4) | a[1::2]).tobytes()


def _unpack_nibbles(b: bytes, n: int) -> np.ndarray:
    packed = np.frombuffer(b, dtype=np.uint8)
    out = np.empty(len(packed) * 2, dtype=np.uint8)
    out[0::2] = packed >> 4
    out[1::2] = packed & 0x0F
    return out[:n]


def encode_ints(arr: np.ndarray, depth: int = 2) -> dict:
    """Delta^depth + zigzag + var-byte. depth=2 = delta-of-delta."""
    a = arr.astype(np.int64)
    heads = []
    for _ in range(depth):
        if len(a) == 0:
            break
        heads.append(int(a[0]))
        a = np.diff(a)
    z = a.astype(np.uint64)
    z = (z << np.uint64(1)) ^ (a >> np.int64(63)).astype(np.uint64)
    cls, payload = _pack_varbytes(z)
    return {
        "n": len(arr),
        "depth": depth,
        "heads": heads,
        "tags": _pack_nibbles(cls),
        "payload": payload,
    }


def decode_ints(blob: dict) -> np.ndarray:
    n, depth, heads = blob["n"], blob["depth"], blob["heads"]
    m = max(0, n - len(heads))
    cls = _unpack_nibbles(blob["tags"], m)
    z = _unpack_varbytes(cls, blob["payload"])
    a = ((z >> np.uint64(1)) ^ (~(z & np.uint64(1)) + np.uint64(1))).astype(
        np.int64
    )
    for h in reversed(heads):
        with np.errstate(over="ignore"):
            a = np.concatenate(([h], a)).cumsum(dtype=np.int64)
    return a[:n]


def encode_floats(arr: np.ndarray) -> dict:
    """XOR-previous + zero-byte suppression (byte-granular Gorilla)."""
    u = np.ascontiguousarray(arr, dtype=np.float64).view(np.uint64)
    x = u.copy()
    x[1:] ^= u[:-1]
    n = len(x)
    if n == 0:
        return {"n": 0, "tags": b"", "payload": b""}
    b = x.astype("<u8").view(np.uint8).reshape(n, 8)
    nz = b != 0
    any_nz = nz.any(axis=1)
    first = np.where(any_nz, nz.argmax(axis=1), 0)
    last = np.where(any_nz, 7 - nz[:, ::-1].argmax(axis=1), -1)
    length = (last - first + 1).clip(min=0)
    tag = ((first.astype(np.uint8) << 4) | length.astype(np.uint8)).astype(
        np.uint8
    )
    col = np.broadcast_to(np.arange(8, dtype=np.int64), (n, 8))
    mask = (col >= first[:, None]) & (col <= last[:, None])
    return {"n": n, "tags": tag.tobytes(), "payload": b[mask].tobytes()}


def decode_floats(blob: dict) -> np.ndarray:
    n = blob["n"]
    if n == 0:
        return np.empty(0, dtype=np.float64)
    tag = np.frombuffer(blob["tags"], dtype=np.uint8)
    first = (tag >> 4).astype(np.int64)
    length = (tag & 0x0F).astype(np.int64)
    out = np.zeros((n, 8), dtype=np.uint8)
    col = np.broadcast_to(np.arange(8, dtype=np.int64), (n, 8))
    mask = (col >= first[:, None]) & (col < (first + length)[:, None])
    out[mask] = np.frombuffer(blob["payload"], dtype=np.uint8)
    x = out.view("<u8").ravel()
    u = np.bitwise_xor.accumulate(x)
    return u.view(np.float64)


def _pack6(a: np.ndarray) -> bytes:
    """Pack 6-bit values (0..63) into a dense bit stream."""
    if len(a) == 0:
        return b""
    bits = np.unpackbits(a.astype(np.uint8)[:, None], axis=1)[:, 2:]  # low 6
    return np.packbits(bits.ravel()).tobytes()


def _unpack6(b: bytes, n: int) -> np.ndarray:
    if n == 0:
        return np.zeros(0, dtype=np.uint8)
    bits = np.unpackbits(np.frombuffer(b, dtype=np.uint8))[: n * 6]
    out = bits.reshape(n, 6)
    return (
        out[:, 0] * 32 + out[:, 1] * 16 + out[:, 2] * 8
        + out[:, 3] * 4 + out[:, 4] * 2 + out[:, 5]
    ).astype(np.uint8)


def _pack_bitwindows(x: np.ndarray) -> dict:
    """BIT-granular zero-window suppression of a uint64 array.

    Per value: 1 control bit (zero); nonzero values add 6-bit leading
    -zero count + 6-bit (meaningful length - 1) in side streams and
    their meaningful BITS in a dense bit payload — three parallel
    streams keep encode AND decode pure-numpy (unpackbits → masked
    gather/scatter → packbits).
    """
    n = len(x)
    if n == 0:
        return {"codec": "bits", "n": 0, "nz": b"", "lead": b"",
                "mlen": b"", "payload": b""}
    bits = np.unpackbits(
        x.astype(">u8").view(np.uint8).reshape(n, 8), axis=1
    )  # (n, 64) MSB-first
    any_nz = bits.any(axis=1)
    first = np.where(any_nz, bits.argmax(axis=1), 0).astype(np.int64)
    last = np.where(any_nz, 63 - bits[:, ::-1].argmax(axis=1), -1).astype(
        np.int64
    )
    mlen = (last - first + 1).clip(min=0)
    col = np.broadcast_to(np.arange(64, dtype=np.int64), (n, 64))
    mask = (col >= first[:, None]) & (col <= last[:, None])
    payload = np.packbits(bits[mask]).tobytes()
    return {
        "codec": "bits",
        "n": n,
        "nz": np.packbits(any_nz).tobytes(),
        "lead": _pack6(first[any_nz].astype(np.uint8)),
        "mlen": _pack6((mlen[any_nz] - 1).astype(np.uint8)),
        "payload": payload,
    }


def _unpack_bitwindows(blob: dict) -> np.ndarray:
    n = blob["n"]
    if n == 0:
        return np.empty(0, dtype=np.uint64)
    any_nz = np.unpackbits(
        np.frombuffer(blob["nz"], dtype=np.uint8), count=n
    ).astype(bool)
    k = int(any_nz.sum())
    lead = np.zeros(n, dtype=np.int64)
    mlen = np.zeros(n, dtype=np.int64)
    lead[any_nz] = _unpack6(blob["lead"], k)
    mlen[any_nz] = _unpack6(blob["mlen"], k).astype(np.int64) + 1
    mlen[~any_nz] = 0
    col = np.broadcast_to(np.arange(64, dtype=np.int64), (n, 64))
    mask = (col >= lead[:, None]) & (col < (lead + mlen)[:, None])
    total = int(mlen.sum())
    pbits = np.unpackbits(np.frombuffer(blob["payload"], dtype=np.uint8))[
        :total
    ]
    grid = np.zeros((n, 64), dtype=np.uint8)
    grid[mask] = pbits
    return np.packbits(grid, axis=1).view(">u8").ravel().astype(np.uint64)


def encode_floats_bits(arr: np.ndarray) -> dict:
    """XOR-previous + BIT-granular suppression (the paper's granularity,
    vectorized; no '10 reuse previous window' mode — that control flow
    is sequential per point). ~10-30% better ratio than the
    byte-granular default on rollup-shaped data."""
    u = np.ascontiguousarray(arr, dtype=np.float64).view(np.uint64)
    x = u.copy()
    x[1:] ^= u[:-1]
    return _pack_bitwindows(x)


def decode_floats_bits(blob: dict) -> np.ndarray:
    x = _unpack_bitwindows(blob)
    u = np.bitwise_xor.accumulate(x)
    return u.view(np.float64)


def encode_ints_bits(arr: np.ndarray, depth: int = 2) -> dict:
    """Delta^depth + zigzag + BIT-granular window packing (the int
    analog of the paper codec; the byte default spends ≥1 byte + a
    nibble tag per nonzero delta, this spends exactly the meaningful
    bits + 13 header bits)."""
    a = arr.astype(np.int64)
    heads = []
    for _ in range(depth):
        if len(a) == 0:
            break
        heads.append(int(a[0]))
        a = np.diff(a)
    z = a.astype(np.uint64)
    z = (z << np.uint64(1)) ^ (a >> np.int64(63)).astype(np.uint64)
    out = _pack_bitwindows(z)
    out["depth"] = depth
    out["heads"] = heads
    out["total_n"] = len(arr)
    return out


def decode_ints_bits(blob: dict) -> np.ndarray:
    z = _unpack_bitwindows(blob)
    a = ((z >> np.uint64(1)) ^ (~(z & np.uint64(1)) + np.uint64(1))).astype(
        np.int64
    )
    for h in reversed(blob["heads"]):
        with np.errstate(over="ignore"):
            a = np.concatenate(([h], a)).cumsum(dtype=np.int64)
    return a[: blob["total_n"]]


def encode_ints_any(arr: np.ndarray, depth: int = 2,
                    codec: str = "bytes") -> dict:
    if codec == "bits":
        return encode_ints_bits(arr, depth)
    return encode_ints(arr, depth)


def decode_ints_any(blob: dict) -> np.ndarray:
    if blob.get("codec") == "bits":
        return decode_ints_bits(blob)
    return decode_ints(blob)


def encode_floats_any(arr: np.ndarray, codec: str = "bytes") -> dict:
    if codec == "bits":
        return encode_floats_bits(arr)
    return encode_floats(arr)


def decode_floats_any(blob: dict) -> np.ndarray:
    if blob.get("codec") == "bits":
        return decode_floats_bits(blob)
    return decode_floats(blob)


# ---------- whole-block serialization ----------

_FLOAT_COLS = ["vmin", "vmax", "vsum", "last"]
_INT_COLS = ["n", "last_ts", "last_order"]


def _col_np(t: pa.Table, name: str):
    a = t[name].combine_chunks() if isinstance(t[name], pa.ChunkedArray) else t[name]
    mask = np.asarray(a.is_valid())
    vals = a.to_numpy(zero_copy_only=False)
    return vals, mask


def encode_block(t: pa.Table, float_codec: str = "bytes",
                 int_codec: str = "bytes") -> bytes:
    """Serialize one rolled-tier table (sorted by series_key, window_start).

    Layout: MAGIC, version, json header (blob directory + row count +
    dictionary of series keys + run lengths), then raw blobs.
    ``float_codec`` / ``int_codec``: "bytes" (default, byte-granular)
    or "bits" (paper-granularity bit packing — up to 4× smaller
    delta-of-delta timestamp streams on regular windows); blocks
    self-describe, so readers decode either transparently.
    """
    n = t.num_rows
    keys = t["series_key"].combine_chunks().dictionary_encode()
    ords = keys.indices.to_numpy().astype(np.int64)
    # run-length encode the (sorted) series ordinals
    change = np.flatnonzero(np.diff(ords) != 0) + 1
    run_starts = np.concatenate(([0], change)) if n else np.empty(0, np.int64)
    run_ords = ords[run_starts] if n else np.empty(0, np.int64)
    run_lens = np.diff(np.concatenate((run_starts, [n]))) if n else np.empty(0, np.int64)

    blobs: dict[str, bytes] = {}
    meta: dict = {
        "rows": n,
        "dictionary": keys.dictionary.to_pylist(),
        "run_ords": encode_ints(run_ords, depth=1),
        "run_lens": encode_ints(run_lens, depth=1),
        "cols": {},
    }
    ws = t["window_start"].to_numpy()
    meta["cols"]["window_start"] = encode_ints_any(ws, depth=2, codec=int_codec)
    for name in _INT_COLS:
        if name not in t.column_names:
            continue
        vals, mask = _col_np(t, name)
        vals = np.where(mask, vals, 0).astype(np.int64)
        enc = encode_ints_any(vals, depth=1, codec=int_codec)
        enc["valid"] = np.packbits(mask).tobytes()
        meta["cols"][name] = enc
    for name in _FLOAT_COLS:
        if name not in t.column_names:
            continue
        vals, mask = _col_np(t, name)
        vals = np.where(mask, vals, 0.0).astype(np.float64)
        enc = encode_floats_any(vals, float_codec)
        enc["valid"] = np.packbits(mask).tobytes()
        meta["cols"][name] = enc

    # pull bytes out of meta into the blob section
    def extract(d: dict, prefix: str):
        for k, v in list(d.items()):
            if isinstance(v, (bytes, bytearray)):
                blobs[f"{prefix}.{k}"] = bytes(v)
                d[k] = {"__blob__": f"{prefix}.{k}", "len": len(v)}
            elif isinstance(v, dict):
                extract(v, f"{prefix}.{k}")

    extract(meta, "m")
    order = sorted(blobs)
    header = json.dumps(
        {"meta": meta, "blobs": [[k, len(blobs[k])] for k in order]}
    ).encode()
    parts = [MAGIC, struct.pack("<HI", VERSION, len(header)), header]
    parts.extend(blobs[k] for k in order)
    return b"".join(parts)


def decode_block(buf: bytes) -> pa.Table:
    assert buf[:4] == MAGIC, "bad magic"
    ver, hlen = struct.unpack("<HI", buf[4:10])
    assert ver == VERSION
    header = json.loads(buf[10 : 10 + hlen].decode())
    meta = header["meta"]
    blobs: dict[str, bytes] = {}
    pos = 10 + hlen
    for k, ln in header["blobs"]:
        blobs[k] = buf[pos : pos + ln]
        pos += ln

    def restore(d: dict):
        for k, v in list(d.items()):
            if isinstance(v, dict):
                if "__blob__" in v:
                    d[k] = blobs[v["__blob__"]]
                else:
                    restore(v)

    restore(meta)
    n = meta["rows"]
    run_ords = decode_ints(meta["run_ords"])
    run_lens = decode_ints(meta["run_lens"])
    dictionary = pa.array(meta["dictionary"], pa.string())
    ords = np.repeat(run_ords, run_lens)
    series = dictionary.take(pa.array(ords, pa.int64()))
    cols: dict = {"series_key": series}
    cols["window_start"] = pa.array(
        decode_ints_any(meta["cols"]["window_start"]), pa.int64()
    )
    for name in _INT_COLS + _FLOAT_COLS:
        enc = meta["cols"].get(name)
        if enc is None:
            continue
        mask = np.unpackbits(
            np.frombuffer(enc["valid"], dtype=np.uint8), count=n
        ).astype(bool)
        if name in _INT_COLS:
            vals = decode_ints_any(enc)
            cols[name] = pa.array(vals, pa.int64(), mask=~mask)
        else:
            vals = decode_floats_any(enc)
            cols[name] = pa.array(vals, pa.float64(), mask=~mask)
    order = ["series_key", "window_start"] + [
        c for c in ["vmin", "vmax", "vsum", "n", "last", "last_ts", "last_order"]
        if c in cols
    ]
    return pa.table({k: cols[k] for k in order})


def decode_blocks(paths: list[str], min_window: int | None = None,
                  max_window: int | None = None) -> pa.Table:
    """Decode block files into one table in ``paths`` order, keeping the
    rows whose ``window_start`` lies in [min_window, max_window]."""
    parts = []
    for path in paths:
        with open(path, "rb") as f:
            parts.append(decode_block(f.read()))
    if not parts:
        return pa.table({})
    t = pa.concat_tables(parts, promote_options="default")
    if min_window is not None:
        t = t.filter(pc.greater_equal(t["window_start"], min_window))
    if max_window is not None:
        t = t.filter(pc.less_equal(t["window_start"], max_window))
    return t
