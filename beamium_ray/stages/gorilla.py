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

Every kernel is SEGMENTED: it runs over the concatenation of many
streams at once (``lens`` gives each stream's length) and keeps each
stream's heads, padding and bit/nibble alignment its own, so a stream
encodes to the same bytes alone or in a batch. Blocks
(``encode_blocks``/``decode_blocks``) serialize whole rolled tables —
dictionary-encoded series keys, DoD window starts, XOR floats,
validity bitmaps for gap-filled nulls — in one pass over all of them;
``encode_block``/``decode_block`` are the one-block case.
"""

from __future__ import annotations

import json
import struct

import numpy as np
import pyarrow as pa

MAGIC = b"BRGB"
VERSION = 1

_WIDTHS = np.array([0, 1, 2, 4, 8], dtype=np.int64)


# ---------- segment plumbing ----------

def _offsets(lens: np.ndarray) -> np.ndarray:
    off = np.zeros(len(lens) + 1, dtype=np.int64)
    np.cumsum(lens, out=off[1:])
    return off


def _positions(lens: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Index of every element when segment k (``lens[k]`` long) is
    placed at ``starts[k]``."""
    lens = np.asarray(lens, dtype=np.int64)
    off = _offsets(lens)
    seg = np.repeat(np.arange(len(lens)), lens)
    return np.asarray(starts, dtype=np.int64)[seg] + (
        np.arange(off[-1], dtype=np.int64) - off[seg]
    )


def _seg_sum(x: np.ndarray, lens: np.ndarray) -> np.ndarray:
    c = np.zeros(len(x) + 1, dtype=np.int64)
    np.cumsum(x, out=c[1:])
    off = _offsets(lens)
    return c[off[1:]] - c[off[:-1]]


def _split(buf: np.ndarray, lens: np.ndarray) -> list[bytes]:
    b = buf.tobytes()
    off = _offsets(lens).tolist()
    return [b[off[k]:off[k + 1]] for k in range(len(lens))]


def _join(blobs: list[bytes]) -> tuple[np.ndarray, np.ndarray]:
    lens = np.array([len(b) for b in blobs], dtype=np.int64)
    return np.frombuffer(b"".join(blobs), dtype=np.uint8), lens


def _pad(a: np.ndarray, lens: np.ndarray, unit: int):
    """Each segment zero-padded to a multiple of ``unit``."""
    pad = -lens % unit
    if not pad.any():
        return a, lens
    off, zeros, pieces = _offsets(lens).tolist(), np.zeros(unit, a.dtype), []
    for k, p in enumerate(pad.tolist()):
        pieces += [a[off[k]:off[k + 1]], zeros[:p]]
    return np.concatenate(pieces), lens + pad


def _unpad(a: np.ndarray, plens: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """The first ``lens[k]`` elements of each ``plens[k]``-long segment."""
    if np.array_equal(plens, lens):
        return a
    off = _offsets(plens).tolist()
    return np.concatenate(
        [a[o:o + n] for o, n in zip(off, lens.tolist())] or [a[:0]]
    )


def _packbits(bits: np.ndarray, lens: np.ndarray) -> list[bytes]:
    """``np.packbits`` per segment (each padded to a whole byte)."""
    padded, plens = _pad(bits.astype(np.uint8), lens, 8)
    return _split(np.packbits(padded), plens // 8)


def _unpackbits(blobs: list[bytes], lens: np.ndarray) -> np.ndarray:
    """The first ``lens[k]`` bits of each blob, concatenated."""
    buf, blens = _join(blobs)
    return _unpad(np.unpackbits(buf), blens * 8, lens)


def _pack_varbytes(z: np.ndarray, lens: np.ndarray):
    """uint64 values → (width-class tags 0..4, per-segment LE payloads)."""
    n = len(z)
    cls = np.zeros(n, dtype=np.uint8)
    cls[z > 0] = 1
    cls[z > 0xFF] = 2
    cls[z > 0xFFFF] = 3
    cls[z > 0xFFFFFFFF] = 4
    widths = _WIDTHS[cls]
    le = z.astype("<u8").view(np.uint8).reshape(n, 8)
    mask = np.arange(8, dtype=np.int64) < widths[:, None]
    return cls, _split(le[mask], _seg_sum(widths, lens))


def _unpack_varbytes(cls: np.ndarray, payload: np.ndarray) -> np.ndarray:
    n = len(cls)
    widths = _WIDTHS[cls.astype(np.int64)]
    out = np.zeros((n, 8), dtype=np.uint8)
    out[np.arange(8, dtype=np.int64) < widths[:, None]] = payload
    return out.view("<u8").ravel()


def _pack_nibbles(a: np.ndarray, lens: np.ndarray) -> list[bytes]:
    """two 4-bit values per byte, each segment padded to a whole byte."""
    padded, plens = _pad(a, lens, 2)
    return _split((padded[0::2] << 4) | padded[1::2], plens // 2)


def _unpack_nibbles(blobs: list[bytes], lens: np.ndarray) -> np.ndarray:
    packed, blens = _join(blobs)
    out = np.empty(len(packed) * 2, dtype=np.uint8)
    out[0::2] = packed >> 4
    out[1::2] = packed & 0x0F
    return _unpad(out, blens * 2, lens)


def _pack6(a: np.ndarray, lens: np.ndarray) -> list[bytes]:
    """6-bit values (0..63) as a dense bit stream per segment."""
    bits = np.unpackbits(a.astype(np.uint8)[:, None], axis=1)[:, 2:]  # low 6
    return _packbits(bits.ravel(), lens * 6)


def _unpack6(blobs: list[bytes], lens: np.ndarray) -> np.ndarray:
    out = _unpackbits(blobs, lens * 6).reshape(-1, 6)
    return (
        out[:, 0] * 32 + out[:, 1] * 16 + out[:, 2] * 8
        + out[:, 3] * 4 + out[:, 4] * 2 + out[:, 5]
    ).astype(np.uint8)


def _xor_prev(arr: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Each float's bits XOR the previous float's in its segment."""
    u = np.ascontiguousarray(arr, dtype=np.float64).view(np.uint64)
    x = u.copy()
    x[1:] ^= u[:-1]
    starts = _offsets(lens)[:-1][lens > 0]
    x[starts] = u[starts]
    return x


def _unxor_prev(x: np.ndarray, lens: np.ndarray) -> np.ndarray:
    acc = np.bitwise_xor.accumulate(x)
    base = np.concatenate((np.zeros(1, np.uint64), acc))[_offsets(lens)[:-1]]
    return (acc ^ np.repeat(base, lens)).view(np.float64)


def _delta_zigzag(arr: np.ndarray, lens: np.ndarray, depth: int):
    """Delta^depth per segment (its heads kept aside), then zigzag."""
    a = np.asarray(arr).astype(np.int64)
    heads: list[list[int]] = [[] for _ in range(len(lens))]
    for _ in range(depth):
        live = np.flatnonzero(lens > 0)
        if not len(live):
            break
        starts = _offsets(lens)[:-1][live]
        for k, h in zip(live.tolist(), a[starts].tolist()):
            heads[k].append(h)
        keep = np.ones(len(a), dtype=bool)
        keep[starts] = False
        a = (a - np.concatenate((np.zeros(1, np.int64), a[:-1])))[keep]
        lens = lens - (lens > 0)
    z = a.astype(np.uint64)
    z = (z << np.uint64(1)) ^ (a >> np.int64(63)).astype(np.uint64)
    return z, lens, heads


def _unzigzag_undelta(z: np.ndarray, lens: np.ndarray,
                      heads: list[list[int]]) -> np.ndarray:
    a = ((z >> np.uint64(1)) ^ (~(z & np.uint64(1)) + np.uint64(1))).astype(
        np.int64
    )
    lens = np.asarray(lens, dtype=np.int64)
    for j in reversed(range(max((len(h) for h in heads), default=0))):
        has = np.array([len(h) > j for h in heads])
        hv = np.array([h[j] for h in heads if len(h) > j], dtype=np.int64)
        off, pieces, i = _offsets(lens).tolist(), [], 0
        for k, h in enumerate(has.tolist()):
            if h:
                pieces.append(hv[i:i + 1])
                i += 1
            pieces.append(a[off[k]:off[k + 1]])
        grown = lens + has
        # a segment without a head at this depth is empty (its stream ran
        # out while differencing), so one running sum serves them all
        cs = np.cumsum(np.concatenate(pieces), dtype=np.int64)
        base = np.concatenate((np.zeros(1, np.int64), cs))[_offsets(grown)[:-1]]
        a = cs - np.repeat(base, grown)
        lens = grown
    return a


# ---------- bit-granular zero-window suppression ----------

def _pack_bitwindows(x: np.ndarray, lens: np.ndarray) -> list[dict]:
    """BIT-granular zero-window suppression of uint64 streams.

    Per value: 1 control bit (zero); nonzero values add 6-bit leading
    -zero count + 6-bit (meaningful length - 1) in side streams and
    their meaningful BITS in a dense bit payload — three parallel
    streams keep encode AND decode pure-numpy (unpackbits → masked
    gather/scatter → packbits).
    """
    n = len(x)
    bits = np.unpackbits(
        x.astype(">u8").view(np.uint8).reshape(n, 8), axis=1
    )  # (n, 64) MSB-first
    any_nz = bits.any(axis=1)
    first = np.where(any_nz, bits.argmax(axis=1), 0).astype(np.int64)
    last = np.where(any_nz, 63 - bits[:, ::-1].argmax(axis=1), -1).astype(
        np.int64
    )
    mlen = (last - first + 1).clip(min=0)
    col = np.arange(64, dtype=np.int64)
    mask = (col >= first[:, None]) & (col <= last[:, None])
    k = _seg_sum(any_nz, lens)
    streams = zip(
        _packbits(any_nz, lens),
        _pack6(first[any_nz], k),
        _pack6(mlen[any_nz] - 1, k),
        _packbits(bits[mask], _seg_sum(mlen, lens)),
    )
    return [
        {"codec": "bits", "n": int(m), "nz": nz, "lead": lead, "mlen": ml,
         "payload": payload}
        for m, (nz, lead, ml, payload) in zip(lens.tolist(), streams)
    ]


def _unpack_bitwindows(blobs: list[dict]) -> np.ndarray:
    lens = np.array([b["n"] for b in blobs], dtype=np.int64)
    any_nz = _unpackbits([b["nz"] for b in blobs], lens).astype(bool)
    k = _seg_sum(any_nz, lens)
    n = int(lens.sum())
    lead = np.zeros(n, dtype=np.int64)
    mlen = np.zeros(n, dtype=np.int64)
    lead[any_nz] = _unpack6([b["lead"] for b in blobs], k)
    mlen[any_nz] = _unpack6([b["mlen"] for b in blobs], k).astype(np.int64) + 1
    col = np.arange(64, dtype=np.int64)
    mask = (col >= lead[:, None]) & (col < (lead + mlen)[:, None])
    grid = np.zeros((n, 64), dtype=np.uint8)
    grid[mask] = _unpackbits([b["payload"] for b in blobs], _seg_sum(mlen, lens))
    return np.packbits(grid, axis=1).view(">u8").ravel().astype(np.uint64)


# ---------- segmented stream codecs ----------

def _encode_ints_seg(arr: np.ndarray, lens: np.ndarray, depth: int,
                     codec: str) -> list[dict]:
    """Delta^depth + zigzag + var-byte ("bytes") or bit windows ("bits")
    per segment. depth=2 = delta-of-delta."""
    z, zlens, heads = _delta_zigzag(arr, lens, depth)
    if codec == "bits":
        out = _pack_bitwindows(z, zlens)
        for d, h, n in zip(out, heads, lens.tolist()):
            d.update(depth=depth, heads=h, total_n=n)
        return out
    cls, payloads = _pack_varbytes(z, zlens)
    return [
        {"n": n, "depth": depth, "heads": h, "tags": t, "payload": p}
        for n, h, t, p in zip(lens.tolist(), heads,
                              _pack_nibbles(cls, zlens), payloads)
    ]


def _by_codec(blobs: list[dict], decode_bytes, decode_bits, zlens):
    """Decode a mix of "bytes" and "bits" streams into one array in
    ``blobs`` order (``zlens``: each stream's decoded length)."""
    bits = np.array([b.get("codec") == "bits" for b in blobs], dtype=bool)
    groups = (bits, ~bits)
    if groups[0].all():
        return decode_bits(blobs)
    if groups[1].all():
        return decode_bytes(blobs)
    out = np.empty(int(zlens.sum()), dtype=np.uint64)
    starts = _offsets(zlens)[:-1]
    for sel, fn in zip(groups, (decode_bits, decode_bytes)):
        sub = [b for b, s in zip(blobs, sel) if s]
        if sub:
            out[_positions(zlens[sel], starts[sel])] = fn(sub)
    return out


def _decode_ints_seg(blobs: list[dict]) -> np.ndarray:
    heads = [b["heads"] for b in blobs]
    zlens = np.array(
        [b["n"] if b.get("codec") == "bits" else max(0, b["n"] - len(h))
         for b, h in zip(blobs, heads)],
        dtype=np.int64,
    )

    def from_bytes(sub):
        lens = np.array(
            [max(0, b["n"] - len(b["heads"])) for b in sub], dtype=np.int64
        )
        cls = _unpack_nibbles([b["tags"] for b in sub], lens)
        payload = np.frombuffer(b"".join(b["payload"] for b in sub), np.uint8)
        return _unpack_varbytes(cls, payload)

    z = _by_codec(blobs, from_bytes, _unpack_bitwindows, zlens)
    return _unzigzag_undelta(z, zlens, heads)


def _encode_floats_seg(arr: np.ndarray, lens: np.ndarray,
                       codec: str) -> list[dict]:
    """XOR-previous, then zero-byte ("bytes", byte-granular Gorilla) or
    zero-bit ("bits", the paper's granularity) suppression per segment."""
    x = _xor_prev(arr, lens)
    if codec == "bits":
        return _pack_bitwindows(x, lens)
    n = len(x)
    b = x.astype("<u8").view(np.uint8).reshape(n, 8)
    nz = b != 0
    any_nz = nz.any(axis=1)
    first = np.where(any_nz, nz.argmax(axis=1), 0)
    last = np.where(any_nz, 7 - nz[:, ::-1].argmax(axis=1), -1)
    length = (last - first + 1).clip(min=0)
    tag = ((first.astype(np.uint8) << 4) | length.astype(np.uint8)).astype(
        np.uint8
    )
    col = np.arange(8, dtype=np.int64)
    mask = (col >= first[:, None]) & (col <= last[:, None])
    return [
        {"n": m, "tags": t, "payload": p}
        for m, t, p in zip(lens.tolist(), _split(tag, lens),
                           _split(b[mask], _seg_sum(length, lens)))
    ]


def _decode_floats_seg(blobs: list[dict]) -> np.ndarray:
    lens = np.array([b["n"] for b in blobs], dtype=np.int64)

    def from_bytes(sub):
        tag = np.frombuffer(b"".join(b["tags"] for b in sub), np.uint8)
        first = (tag >> 4).astype(np.int64)
        length = (tag & 0x0F).astype(np.int64)
        out = np.zeros((len(tag), 8), dtype=np.uint8)
        col = np.arange(8, dtype=np.int64)
        out[(col >= first[:, None]) & (col < (first + length)[:, None])] = (
            np.frombuffer(b"".join(b["payload"] for b in sub), np.uint8)
        )
        return out.view("<u8").ravel()

    x = _by_codec(blobs, from_bytes, _unpack_bitwindows, lens)
    return _unxor_prev(x, lens)


# ---------- one-stream API ----------

def _one(arr) -> tuple[np.ndarray, np.ndarray]:
    arr = np.asarray(arr)
    return arr, np.array([len(arr)], dtype=np.int64)


def encode_ints(arr: np.ndarray, depth: int = 2) -> dict:
    """Delta^depth + zigzag + var-byte. depth=2 = delta-of-delta."""
    return _encode_ints_seg(*_one(arr), depth, "bytes")[0]


def encode_ints_bits(arr: np.ndarray, depth: int = 2) -> dict:
    """Delta^depth + zigzag + BIT-granular window packing (the int
    analog of the paper codec; the byte default spends ≥1 byte + a
    nibble tag per nonzero delta, this spends exactly the meaningful
    bits + 13 header bits)."""
    return _encode_ints_seg(*_one(arr), depth, "bits")[0]


def decode_ints(blob: dict) -> np.ndarray:
    return _decode_ints_seg([blob])


decode_ints_bits = decode_ints


def encode_floats(arr: np.ndarray) -> dict:
    """XOR-previous + zero-byte suppression (byte-granular Gorilla)."""
    return _encode_floats_seg(*_one(arr), "bytes")[0]


def encode_floats_bits(arr: np.ndarray) -> dict:
    """XOR-previous + BIT-granular suppression (the paper's granularity,
    vectorized; no '10 reuse previous window' mode — that control flow
    is sequential per point). ~10-30% better ratio than the
    byte-granular default on rollup-shaped data."""
    return _encode_floats_seg(*_one(arr), "bits")[0]


def decode_floats(blob: dict) -> np.ndarray:
    return _decode_floats_seg([blob])


decode_floats_bits = decode_floats


# ---------- whole-block serialization ----------

_FLOAT_COLS = ["vmin", "vmax", "vsum", "last"]
_INT_COLS = ["n", "last_ts", "last_order"]
_COL_ORDER = ["vmin", "vmax", "vsum", "n", "last", "last_ts", "last_order"]


def _column(tables: list[pa.Table], name: str, typ: pa.DataType, zero):
    """(values with nulls as ``zero``, validity) of one column over
    ``tables``, as numpy."""
    a = pa.chunked_array(
        [c if c.type == typ else c.cast(typ)
         for t in tables for c in t[name].chunks], typ
    ).combine_chunks()
    if not a.null_count:
        return a.to_numpy(), np.ones(len(a), dtype=bool)
    return a.fill_null(zero).to_numpy(), a.is_valid().to_numpy(
        zero_copy_only=False
    )


def _dictionary_runs(tables: list[pa.Table], lens: np.ndarray):
    """Per table: its series-key dictionary (first-appearance order) and
    the run-length encoding of its rows' ordinals into it, computed for
    all tables in one pass. Returns (dictionaries, run ordinals, run
    lengths, runs per table)."""
    keys = pa.chunked_array(
        [c if c.type == pa.string() else c.cast(pa.string())
         for t in tables for c in t["series_key"].chunks],
        pa.string(),
    ).combine_chunks().dictionary_encode()
    gid = keys.indices.to_numpy().astype(np.int64)
    n, nd = len(gid), len(keys.dictionary)
    first = np.zeros(n, dtype=bool)
    first[1:] = gid[1:] != gid[:-1]
    first[_offsets(lens)[:-1][lens > 0]] = True
    rs = np.flatnonzero(first)
    run_blk = np.repeat(np.arange(len(lens)), lens)[rs]
    run_lens = np.diff(np.concatenate((rs, [n])))
    # a table's dictionary lists its keys by first run; ordinals index it
    pairs, first_run, inv = np.unique(
        run_blk * nd + gid[rs], return_index=True, return_inverse=True
    )
    order = np.argsort(first_run, kind="stable")
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order))
    doff = _offsets(np.bincount(pairs // max(nd, 1), minlength=len(lens)))
    run_ords = rank[inv.ravel()] - doff[run_blk]
    words = keys.dictionary.take(pa.array(pairs[order] % max(nd, 1))).to_pylist()
    doff = doff.tolist()
    dicts = [words[doff[k]:doff[k + 1]] for k in range(len(lens))]
    runs = np.bincount(run_blk, minlength=len(lens))
    return dicts, run_ords, run_lens, runs


def _serialize(meta: dict) -> bytes:
    """MAGIC, version, json header (blob directory + ``meta`` with every
    bytes value moved out), then the raw blobs in name order."""
    blobs: dict[str, bytes] = {}

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


def encode_blocks(tables: list[pa.Table], float_codec: str = "bytes",
                  int_codec: str = "bytes") -> list[bytes]:
    """Serialize rolled-tier tables (each sorted by series_key,
    window_start), one block per table, in one pass over all of them.

    Layout per block: MAGIC, version, json header (blob directory + row
    count + dictionary of series keys + run lengths), then raw blobs.
    ``float_codec`` / ``int_codec``: "bytes" (default, byte-granular)
    or "bits" (paper-granularity bit packing — up to 4× smaller
    delta-of-delta timestamp streams on regular windows); blocks
    self-describe, so readers decode either transparently.
    """
    if not tables:
        return []
    lens = np.array([t.num_rows for t in tables], dtype=np.int64)
    dicts, run_ords, run_lens, runs = _dictionary_runs(tables, lens)
    metas = [
        {"rows": n, "dictionary": d, "run_ords": o, "run_lens": r, "cols": {}}
        for n, d, o, r in zip(
            lens.tolist(), dicts,
            _encode_ints_seg(run_ords, runs, 1, "bytes"),
            _encode_ints_seg(run_lens, runs, 1, "bytes"),
        )
    ]
    ws, _ = _column(tables, "window_start", pa.int64(), 0)
    for m, enc in zip(metas, _encode_ints_seg(ws, lens, 2, int_codec)):
        m["cols"]["window_start"] = enc
    names = [set(t.column_names) for t in tables]
    for name in _INT_COLS + _FLOAT_COLS:
        have = [k for k, cols in enumerate(names) if name in cols]
        if not have:
            continue
        sub = lens[have]
        if name in _INT_COLS:
            vals, valid = _column([tables[k] for k in have], name, pa.int64(), 0)
            encs = _encode_ints_seg(vals, sub, 1, int_codec)
        else:
            vals, valid = _column(
                [tables[k] for k in have], name, pa.float64(), 0.0
            )
            encs = _encode_floats_seg(vals, sub, float_codec)
        for k, enc, bits in zip(have, encs, _packbits(valid, sub)):
            enc["valid"] = bits
            metas[k]["cols"][name] = enc
    return [_serialize(m) for m in metas]


def encode_block(t: pa.Table, float_codec: str = "bytes",
                 int_codec: str = "bytes") -> bytes:
    """One block: :func:`encode_blocks` of one table."""
    return encode_blocks([t], float_codec, int_codec)[0]


def _parse(buf: bytes) -> dict:
    """A block's header meta with its blobs put back in place."""
    if buf[:4] != MAGIC:
        raise ValueError("bad magic")
    ver, hlen = struct.unpack("<HI", buf[4:10])
    if ver != VERSION:
        raise ValueError(f"unknown block version {ver}")
    header = json.loads(buf[10 : 10 + hlen].decode())
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

    meta = header["meta"]
    restore(meta)
    return meta


def decode_blocks(blocks: list, min_window: int | None = None,
                  max_window: int | None = None) -> pa.Table:
    """Decode blocks (file paths or raw bytes) into one table in
    ``blocks`` order, keeping the rows whose ``window_start`` lies in
    [min_window, max_window]; one pass over all blocks per column. A
    column some blocks lack is null on their rows."""
    if not blocks:
        return pa.table({})
    bufs = []
    for b in blocks:
        if isinstance(b, (bytes, bytearray, memoryview)):
            bufs.append(bytes(b))
        else:
            with open(b, "rb") as f:
                bufs.append(f.read())
    metas = [_parse(b) for b in bufs]
    lens = np.array([m["rows"] for m in metas], dtype=np.int64)
    off = _offsets(lens)

    dicts = [m["dictionary"] for m in metas]
    runs = _decode_ints_seg([m["run_ords"] for m in metas])
    nruns = np.array([m["run_ords"]["n"] for m in metas], dtype=np.int64)
    runs = runs + np.repeat(_offsets([len(d) for d in dicts])[:-1], nruns)
    ords = np.repeat(runs, _decode_ints_seg([m["run_lens"] for m in metas]))
    ws = _decode_ints_seg([m["cols"]["window_start"] for m in metas])
    keep = np.ones(len(ws), dtype=bool)
    if min_window is not None:
        keep &= ws >= min_window
    if max_window is not None:
        keep &= ws <= max_window
    words = pa.array([w for d in dicts for w in d], pa.string())
    cols: dict = {
        "series_key": words.take(pa.array(ords[keep], pa.int64())),
        "window_start": pa.array(ws[keep], pa.int64()),
    }
    names: list[str] = []
    for m in metas:
        names += [c for c in _COL_ORDER if c in m["cols"] and c not in names]
    for name in names:
        have = np.array([name in m["cols"] for m in metas])
        encs = [m["cols"][name] for m, h in zip(metas, have) if h]
        sub = lens[have]
        decode = _decode_ints_seg if name in _INT_COLS else _decode_floats_seg
        vals = decode(encs)
        valid = _unpackbits([e["valid"] for e in encs], sub).astype(bool)
        if not have.all():  # rows of blocks without the column: null
            at = _positions(sub, off[:-1][have])
            vals_all = np.zeros(off[-1], dtype=vals.dtype)
            valid_all = np.zeros(off[-1], dtype=bool)
            vals_all[at], valid_all[at] = vals, valid
            vals, valid = vals_all, valid_all
        typ = pa.int64() if name in _INT_COLS else pa.float64()
        cols[name] = pa.array(vals[keep], typ, mask=~valid[keep])
    return pa.table(cols)


def decode_block(buf: bytes) -> pa.Table:
    """One block: :func:`decode_blocks` of one buffer."""
    return decode_blocks([buf])
