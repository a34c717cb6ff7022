"""Text analysis stages: token counting, quality scoring, language ID,
document fingerprinting. All vectorized (pyarrow.compute / numpy);
language ID keeps its profiles as per-actor state.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from beamium_ray.functions.cluster import bucket_apply
from beamium_ray.functions.hashing import splitmix64

PUNCT_RE = r"[.,!?;:]"
UPPER_RE = r"[A-Z]"
DIGIT_RE = r"[0-9]"
TOKEN_RE = r"\S+"


# GPT-2-style pre-tokenizer shape: contractions | letter runs | digit
# runs | punct runs | whitespace runs (RE2-compatible — no lookahead, so
# trailing-space handling is approximated by splitting whitespace runs)
BPE_RE = r"'(?:s|t|re|ve|m|ll|d)| ?[A-Za-z]+| ?[0-9]+| ?[^\sA-Za-z0-9]+"


def token_count_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Whitespace token count per document (matches
    ``regexp_split_to_array(trim(text), '\\s+')``)."""
    n = pc.count_substring_regex(batch[text_col], TOKEN_RE)
    return pa.table(
        {"doc_id": batch["doc_id"], "n_tok_ws": pc.cast(n, pa.int64())}
    )


def bpe_token_count_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """BPE-ish token count: number of GPT-2-style pre-tokenizer pieces
    (a proxy for LLM token cost — real BPE merges only within pieces,
    so piece count lower-bounds the true token count)."""
    n = pc.count_substring_regex(batch[text_col], BPE_RE)
    return pa.table(
        {"doc_id": batch["doc_id"], "n_tok_bpe": pc.cast(n, pa.int64())}
    )


def quality_score_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Length / punctuation / case / digit ratios (same formulas as the
    oracle SQL: ratio = count / GREATEST(n_chars, 1) in float64)."""
    text = batch[text_col]
    n_chars = pc.cast(pc.utf8_length(text), pa.int64())
    n_punct = pc.cast(pc.count_substring_regex(text, PUNCT_RE), pa.int64())
    n_upper = pc.cast(pc.count_substring_regex(text, UPPER_RE), pa.int64())
    n_digit = pc.cast(pc.count_substring_regex(text, DIGIT_RE), pa.int64())
    denom = pc.cast(pc.max_element_wise(n_chars, 1), pa.float64())
    return pa.table(
        {
            "doc_id": batch["doc_id"],
            "n_chars": n_chars,
            "n_punct": n_punct,
            "punct_ratio": pc.divide(pc.cast(n_punct, pa.float64()), denom),
            "n_upper": n_upper,
            "upper_ratio": pc.divide(pc.cast(n_upper, pa.float64()), denom),
            "n_digit": n_digit,
            "digit_ratio": pc.divide(pc.cast(n_digit, pa.float64()), denom),
        }
    )


class LangId:
    """Stopword-profile language guesser (n-gram-free heuristic).

    Stateful stage: profiles compiled once per actor (__init__), batch
    work is one regex scan + set membership per language. Use with
    ``map_batches(LangId, batch_format="pyarrow", concurrency=N)``.
    """

    PROFILES = {
        "en": {"the", "and", "of", "to", "in", "is", "that", "it", "for", "with"},
        "fr": {"le", "la", "les", "de", "des", "et", "est", "que", "une", "pour"},
        "de": {"der", "die", "das", "und", "ist", "nicht", "mit", "ein", "zu", "den"},
        "es": {"el", "la", "los", "de", "y", "es", "que", "una", "por", "con"},
    }

    def __init__(self):
        self.langs = sorted(self.PROFILES)
        self.lexicons = [
            pa.array(sorted(self.PROFILES[l]), pa.string()) for l in self.langs
        ]

    def __call__(self, batch: pa.Table) -> pa.Table:
        text = batch["text"]
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        words_list = pc.split_pattern_regex(
            pc.utf8_lower(pc.fill_null(text, "")), "[^a-z]+"
        )
        off = words_list.offsets.to_numpy().astype(np.int64)
        words = words_list.values
        valid = pc.greater(pc.utf8_length(words), 0).to_numpy(
            zero_copy_only=False
        )
        rid = np.repeat(np.arange(len(off) - 1, dtype=np.int64), np.diff(off))
        n_rows = len(off) - 1
        totals = np.bincount(rid[valid], minlength=n_rows).astype(np.float64)
        scores = np.zeros((len(self.langs), n_rows), dtype=np.float64)
        for li, lex in enumerate(self.lexicons):  # loop over 4 languages only
            hit = pc.is_in(words, value_set=lex).to_numpy(zero_copy_only=False)
            scores[li] = np.bincount(rid[hit & valid], minlength=n_rows)
        with np.errstate(invalid="ignore", divide="ignore"):
            scores = scores / totals[None, :]
        best = np.argmax(scores, axis=0)
        best_score = scores[best, np.arange(n_rows)]
        langs = np.array(self.langs, dtype=object)[best]
        langs[~(best_score > 0)] = "und"
        langs[totals == 0] = "und"
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "lang_pred": pa.array(langs.tolist(), pa.string()),
            }
        )


def _poly_hash_rows(data: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Per-row polynomial rolling hash over UTF-8 bytes, mod 2^64.

    hash(row) = Σ b_i · P^(len-1-i)  (wrapping uint64) — vectorized via
    precomputed power table + segmented sums (no per-row Python).
    """
    P = np.uint64(1099511628211)
    lens = np.diff(offsets)
    if len(data) == 0:
        return np.zeros(len(lens), dtype=np.uint64)
    maxlen = int(lens.max()) if len(lens) else 0
    pows = np.ones(maxlen + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        for k in range(1, maxlen + 1):  # tiny loop over max length only
            pows[k] = pows[k - 1] * P
        rid = np.repeat(np.arange(len(lens), dtype=np.int64), lens)
        pos = np.arange(len(data), dtype=np.int64) - offsets[rid]
        exp = (lens[rid] - 1 - pos).astype(np.int64)
        terms = data.astype(np.uint64) * pows[exp]
        out = np.zeros(len(lens), dtype=np.uint64)
        np.add.at(out, rid, terms)
    return out


def fingerprint_batch(
    batch: pa.Table, text_col: str = "text", k: int = 8, sample_mod: int = 4
) -> pa.Table:
    """Document fingerprint: whole-text rolling hash + mod-p-sampled
    k-gram hash sketch (a winnowing-style fingerprint with deterministic
    mod sampling instead of windowed minima — fully vectorizable)."""
    from beamium_ray.functions.encoding import string_bytes

    text = batch[text_col]
    if isinstance(text, pa.ChunkedArray):
        text = text.combine_chunks()
    text = pc.fill_null(text, "")
    data, offsets = string_bytes(text)
    full = _poly_hash_rows(data, offsets)

    # k-gram rolling hashes: hash every k-byte window, keep those ≡0 (mod m)
    lens = np.diff(offsets)
    n_rows = len(lens)
    n_grams = np.maximum(lens - k + 1, 0)
    if len(data) >= k and n_grams.sum() > 0:
        P = np.uint64(1099511628211)
        with np.errstate(over="ignore"):
            # prefix hashes via cumulative Horner within rows is sequential;
            # instead hash each window independently: windows as strided view
            win = np.lib.stride_tricks.sliding_window_view(data, k).astype(
                np.uint64
            )
            powk = np.array(
                [P ** np.uint64(k - 1 - i) for i in range(k)], dtype=np.uint64
            )
            wh = (win * powk[None, :]).sum(axis=1, dtype=np.uint64)
        mixed = splitmix64(wh)
        keep = (mixed % np.uint64(sample_mod)) == 0
        # fully vectorized per-row unique assembly (no Python row loop):
        # gather each row's kept window hashes, lexsort by (row, value),
        # drop adjacent duplicates, build the ListArray from offsets
        new_off = np.concatenate(([0], np.cumsum(n_grams)))
        rid = np.repeat(np.arange(n_rows, dtype=np.int64), n_grams)
        pos = (
            np.arange(int(n_grams.sum()), dtype=np.int64)
            - new_off[rid]
            + offsets[:-1][rid]
        )
        kept = keep[pos]
        rk, rv = rid[kept], mixed[pos][kept]
        o = np.lexsort((rv, rk))
        rk, rv = rk[o], rv[o]
        dup = np.concatenate(
            ([False], (rk[1:] == rk[:-1]) & (rv[1:] == rv[:-1]))
        )
        rk, rv = rk[~dup], rv[~dup]
        counts = np.bincount(rk, minlength=n_rows)
        off2 = np.concatenate(([0], np.cumsum(counts)))
        sketch = pa.ListArray.from_arrays(
            pa.array(off2, pa.int32()),
            pa.array(rv.astype(np.int64), pa.int64()),
        )
    else:
        sketch = pa.ListArray.from_arrays(
            pa.array(np.zeros(n_rows + 1, np.int32), pa.int32()),
            pa.array([], pa.int64()),
        )
    return pa.table(
        {
            "doc_id": batch["doc_id"],
            "fingerprint": pa.array(full.astype(np.int64), pa.int64()),
            "sketch": sketch,
        }
    )


def word_hashes(
    data: np.ndarray, offsets: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-word 64-bit hashes over a flat string buffer: split on every
    single space (SQL ``string_split(text, ' ')`` semantics; empty text
    = one empty word), hash each word's bytes with a polynomial rolling
    hash + splitmix64 finisher — one segmented uint64 reduce, no
    per-word Python. Returns (hash per word, row of each word, word
    count per row). An intra-batch word hash collision (~2^-64 per
    pair) is the accepted exactness risk of every consumer; oracles
    group by the word STRINGS."""
    nrows = len(offsets) - 1
    sp = np.flatnonzero(data == 0x20)
    sp_row = np.searchsorted(offsets, sp, side="right") - 1
    n_words = np.bincount(sp_row, minlength=nrows) + 1
    word_starts = np.sort(np.concatenate([offsets[:-1], sp + 1]))
    word_ends = np.sort(np.concatenate([sp, offsets[1:]]))
    wlen = word_ends - word_starts
    nw_total = len(wlen)
    word_row = np.repeat(np.arange(nrows, dtype=np.int64), n_words)

    # per-word polynomial hash: Σ byte_i · P^(len-1-i), one segmented
    # uint64 reduce over the gathered word bytes
    P = np.uint64(1099511628211)
    maxlen = int(wlen.max()) if nw_total else 0
    powp = np.ones(maxlen + 1, np.uint64)
    with np.errstate(over="ignore"):
        for i in range(1, maxlen + 1):
            powp[i] = powp[i - 1] * P
    woff = np.concatenate(([0], np.cumsum(wlen)))
    tot = int(woff[-1])
    rid2 = np.repeat(np.arange(nw_total, dtype=np.int64), wlen)
    pos_in_word = np.arange(tot, dtype=np.int64) - woff[rid2]
    bidx = word_starts[rid2] + pos_in_word
    with np.errstate(over="ignore"):
        contrib = (
            data[bidx].astype(np.uint64)
            * powp[wlen[rid2] - 1 - pos_in_word]
        )
    h = np.zeros(nw_total, np.uint64)
    nonempty_w = wlen > 0
    if tot:
        st = woff[:-1][nonempty_w]
        with np.errstate(over="ignore"):
            h[nonempty_w] = np.add.reduceat(contrib, st)
    return splitmix64(h), word_row, n_words


def quality_filter_batch(
    batch: pa.Table,
    text_col: str = "text",
    id_col: str = "doc_id",
    min_words: int = 20,
) -> pa.Table:
    """Composite Gopher-style document quality filter — the keep/drop
    pass a training-data pipeline runs before dedup. Emits per doc an
    integer REASONS bitmask and keep = (reasons == 0):

      bit 1  too short            n_words < min_words
      bit 2  mean word length     outside [3, 10] (Gopher bounds)
      bit 4  top-word share       top_word_n / n_words > 1/8
      bit 8  dup-word fraction    (n_words - distinct) / n_words > 5/8
      bit 16 dup-2gram fraction   n_dup_2grams / n_2grams > 1/20

    Every ratio test is cross-multiplied integer math — no float
    boundary can flip a document between the engine and the oracle.
    Pure map stage built on `repetition_stats_batch` (one pass, no
    shuffle)."""
    rep = repetition_stats_batch(batch, text_col=text_col, id_col=id_col)
    text = batch[text_col]
    n_chars = pc.cast(
        pc.utf8_length(pc.fill_null(text, "")), pa.int64()
    ).to_numpy(zero_copy_only=False)
    nw = rep["n_words"].to_numpy()
    nd = rep["n_distinct_words"].to_numpy()
    top = rep["top_word_n"].to_numpy()
    n2 = rep["n_2grams"].to_numpy()
    d2 = rep["n_dup_2grams"].to_numpy()
    # total word bytes = n_chars - (n_words - 1) separator spaces
    wb = n_chars - nw + 1
    reasons = (
        (nw < min_words) * 1
        + ((wb < 3 * nw) | (wb > 10 * nw)) * 2
        + (top * 8 > nw) * 4
        + ((nw - nd) * 8 > nw * 5) * 8
        + (d2 * 20 > n2) * 16
    ).astype(np.int64)
    return pa.table(
        {
            "doc_id": rep["doc_id"],
            "keep": pa.array((reasons == 0).astype(np.int64), pa.int64()),
            "reasons": pa.array(reasons, pa.int64()),
        }
    )


def repetition_stats_batch(
    batch: pa.Table, text_col: str = "text", id_col: str = "doc_id"
) -> pa.Table:
    """Gopher-style within-document repetition counters, all INTEGER so
    an oracle recomputation hash-matches exactly: per doc the word
    count, distinct-word count, the most-frequent word's occurrence
    count, and the (word) 2-gram count with its duplicate count. Users
    derive the published filter fractions (dup-word fraction, top-word
    share, dup-2-gram fraction) from these.

    Splitting matches SQL ``string_split(text, ' ')`` (every single
    space; empty text = one empty word). Fully vectorized: per-word
    64-bit polynomial+splitmix hashes via one segmented reduce — an
    intra-document hash collision (~2^-64 per word pair) is the
    accepted exactness risk; the oracle groups by the word STRINGS.

    Pure map stage — no shuffle; this is the per-doc filter pass a
    100 TB quality pipeline runs before any wide operation."""
    from beamium_ray.functions.encoding import string_bytes

    text = batch[text_col]
    if isinstance(text, pa.ChunkedArray):
        text = text.combine_chunks()
    ids = batch[id_col]
    if isinstance(ids, pa.ChunkedArray):
        ids = ids.combine_chunks()
    data, offsets = string_bytes(pc.fill_null(text, ""))
    nrows = len(offsets) - 1
    if nrows == 0:
        z = pa.array([], pa.int64())
        return pa.table(
            {"doc_id": z, "n_words": z, "n_distinct_words": z,
             "top_word_n": z, "n_2grams": z, "n_dup_2grams": z}
        )
    h, word_row, n_words = word_hashes(data, offsets)

    def _per_row_counts(row_of: np.ndarray, vals: np.ndarray, minl: int):
        """(distinct count per row, max multiplicity per row) of vals
        grouped by row — one lexsort + run-length pass."""
        if len(vals) == 0:
            return (np.zeros(minl, np.int64), np.zeros(minl, np.int64))
        o = np.lexsort((vals, row_of))
        r, v = row_of[o], vals[o]
        first = np.concatenate(
            ([True], (r[1:] != r[:-1]) | (v[1:] != v[:-1]))
        )
        fpos = np.flatnonzero(first)
        run_len = np.diff(np.concatenate((fpos, [len(v)])))
        run_row = r[fpos]
        distinct = np.bincount(run_row, minlength=minl)
        top = np.zeros(minl, np.int64)
        np.maximum.at(top, run_row, run_len)
        return distinct.astype(np.int64), top

    n_distinct, top_n = _per_row_counts(word_row, h, nrows)

    # word 2-grams: adjacent word pairs WITHIN a row
    gmask = np.concatenate(
        (word_row[1:] == word_row[:-1], [False])
    ) if len(word_row) else np.zeros(0, bool)
    gi = np.flatnonzero(gmask)
    with np.errstate(over="ignore"):
        gh = splitmix64(h[gi] ^ (h[gi + 1] * np.uint64(0x9E3779B97F4A7C15)))
    g_distinct, _ = _per_row_counts(word_row[gi], gh, nrows)
    n_2grams = np.maximum(n_words - 1, 0).astype(np.int64)

    return pa.table(
        {
            "doc_id": ids,
            "n_words": pa.array(n_words.astype(np.int64), pa.int64()),
            "n_distinct_words": pa.array(n_distinct, pa.int64()),
            "top_word_n": pa.array(top_n, pa.int64()),
            "n_2grams": pa.array(n_2grams, pa.int64()),
            "n_dup_2grams": pa.array(n_2grams - g_distinct, pa.int64()),
        }
    )


def dataset_report_rows(
    batch: pa.Table,
    strat_col: str = "source",
    text_col: str = "text",
    id_col: str = "doc_id",
) -> pa.Table:
    """Per-block PARTIAL dataset-card rows: per stratum the doc count,
    whitespace-token total, char total and Gopher-quality keep count —
    all integer sums, so partials merge exactly."""
    if batch.num_rows == 0:
        return pa.table({
            strat_col: pa.array([], batch.schema.field(strat_col).type),
            "n_docs": pa.array([], pa.int64()),
            "n_tok_ws": pa.array([], pa.int64()),
            "n_chars": pa.array([], pa.int64()),
            "n_keep": pa.array([], pa.int64()),
        })
    # count tokens directly (token_count_batch hardcodes a doc_id
    # output column — this report must honor any id_col). fill_null so
    # a null-text row counts as 0 tokens/0 chars in the SAME rows that
    # n_docs/n_keep see (quality_filter_batch already fill_nulls).
    text = pc.fill_null(batch[text_col], "")
    tok = pc.cast(pc.count_substring_regex(text, TOKEN_RE), pa.int64())
    keep = quality_filter_batch(batch, text_col, id_col)["keep"]
    chars = pc.cast(pc.utf8_length(text), pa.int64())
    g = pa.table({
        strat_col: batch[strat_col],
        "n_tok_ws": tok,
        "n_chars": chars,
        "n_keep": keep,
    }).group_by([strat_col], use_threads=False).aggregate(
        [("n_tok_ws", "sum"), ("n_chars", "sum"), ("n_keep", "sum"),
         ([], "count_all")]
    )
    g = g.rename_columns(
        [strat_col, "n_tok_ws", "n_chars", "n_keep", "n_docs"]
    )
    return g.select(
        [strat_col, "n_docs", "n_tok_ws", "n_chars", "n_keep"]
    ).set_column(1, "n_docs", pc.cast(g["n_docs"], pa.int64()))


def dataset_report(
    ds,
    strat_col: str = "source",
    text_col: str = "text",
    id_col: str = "doc_id",
):
    """The per-source 'dataset card' summary (docs, tokens, chars,
    quality-keep counts per stratum) — what a corpus release ships
    next to the data. Per-block integer partials (≤ strata rows leave
    a block) → one tiny groupby merge; pure map + a strata-sized
    shuffle."""

    def merge(g: pa.Table) -> pa.Table:
        m = g.group_by([strat_col], use_threads=False).aggregate(
            [("n_docs", "sum"), ("n_tok_ws", "sum"),
             ("n_chars", "sum"), ("n_keep", "sum")]
        )
        return m.rename_columns(
            [strat_col, "n_docs", "n_tok_ws", "n_chars", "n_keep"]
        )

    return bucket_apply(
        ds, merge, by=strat_col,
        prep=lambda b: dataset_report_rows(b, strat_col, text_col, id_col),
    )


# ---------------- PII redaction ----------------

# default scrub rules (C4/CCNet-style hygiene): each is (pattern,
# replacement). Both Arrow's replace_substring_regex and DuckDB's
# regexp_replace(..., 'g') are RE2, so the SAME pattern string yields
# byte-identical redactions in the engine and the oracle.
PII_RULES: tuple[tuple[str, str], ...] = (
    (r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}", "<EMAIL>"),
    (r"\b(?:\d{1,3}\.){3}\d{1,3}\b", "<IP>"),
    (r"\b\d{3}[-.]\d{3}[-.]\d{4}\b", "<PHONE>"),
)


def redact_pii_batch(
    batch: pa.Table,
    text_col: str = "text",
    rules: tuple[tuple[str, str], ...] = PII_RULES,
) -> pa.Table:
    """Replace PII spans in ``text_col`` IN PLACE (emails, IPv4ish
    addresses, phone-shaped numbers by default) — one vectorized RE2
    pass per rule, all other columns untouched. Order matters (rules
    apply sequentially); keep it stable for reproducibility."""
    text = batch[text_col]
    if isinstance(text, pa.ChunkedArray):
        text = text.combine_chunks()
    for pat, repl in rules:
        text = pc.replace_substring_regex(text, pat, repl)
    return batch.set_column(
        batch.column_names.index(text_col), text_col, text
    )


def redact_pii(ds, text_col: str = "text",
               rules: tuple[tuple[str, str], ...] = PII_RULES):
    """Dataset form of :func:`redact_pii_batch` — a pure map stage."""
    return ds.map_batches(
        lambda b: redact_pii_batch(b, text_col, rules),
        batch_format="pyarrow",
        batch_size=None,
    )
