"""Text-analysis operators for large-scale training-data pipelines:
token counting, quality scoring, language ID, document fingerprinting.

All hot paths are vectorized (pyarrow.compute / pandas str kernels).
Scorer classes do their setup (compile patterns, build stopword or
weight tables) once in ``__init__``, when the stage is built; the
instance ships with the stage and runs as stateless tasks. The
operators that need a vocabulary-sized count table (TF-IDF, PMI, the
unigram and bigram LMs) look it up through ``stages/joins.lookup`` /
``lookup_docs``: broadcast when it fits, hash-joined otherwise.
"""

from __future__ import annotations

import hashlib
import re

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from pystreamfs_ray.stages.joins import KeyedSide, lookup, lookup_docs
from pystreamfs_ray.util import RE2_SPACE, byte_class_counts, combine_sum

_F64 = pa.float64()

# tiny per-language stopword tables for the n-gram/stopword heuristic
STOPWORDS = {
    "en": {"the", "and", "of", "to", "a", "in", "is", "it", "that", "for"},
    "de": {"der", "die", "das", "und", "ist", "ein", "eine", "nicht", "mit", "zu"},
    "fr": {"le", "la", "les", "et", "est", "un", "une", "pas", "pour", "que"},
    "es": {"el", "la", "los", "y", "es", "un", "una", "no", "por", "que"},
    "zh": {"的", "是", "了", "在", "我", "有", "和", "就", "不", "人"},
}


def token_stats_batch(t: pa.Table, text_col: str = "text") -> pa.Table:
    """chars / tokens / avg token length / punct & digit ratios —
    pyarrow.compute and byte counts over the text buffers, zero-copy."""
    text = t[text_col]
    chars = pc.cast(pc.utf8_length(text), _F64)
    # RE2-exact byte counts (util.byte_class_counts): \S+ runs, \s,
    # [.,!?;:] and [0-9]; count(\S) == len - count(\s)
    space, runs = byte_class_counts(text, RE2_SPACE)
    tokens = pc.cast(runs, _F64)
    nonspace = pc.subtract(chars, pc.cast(space, _F64))
    punct = pc.cast(byte_class_counts(text, b".,!?;:")[0], _F64)
    digits = pc.cast(byte_class_counts(text, b"0123456789")[0], _F64)
    safe_tokens = pc.max_element_wise(tokens, 1.0)
    safe_chars = pc.max_element_wise(chars, 1.0)
    return (
        t.append_column("n_chars_f", chars)
        .append_column("n_tokens", pc.cast(tokens, pa.int64()))
        .append_column("avg_token_len", pc.divide(nonspace, safe_tokens))
        .append_column("punct_ratio", pc.divide(punct, safe_chars))
        .append_column("digit_ratio", pc.divide(digits, safe_chars))
    )


def token_stats(ds, text_col: str = "text"):
    return ds.map_batches(
        lambda t: token_stats_batch(t, text_col), batch_format="pyarrow",
        zero_copy_batch=True,
    )


# GPT-2-style pre-tokenizer pattern, restricted to RE2-safe constructs
# (no lookahead, explicit ASCII classes): contractions, letter runs,
# digit runs, punctuation runs — each optionally space-prefixed — then
# residual whitespace. pyarrow.compute and DuckDB both run RE2 with
# leftmost-first alternation, so the per-document match COUNT is
# bit-identical between the engine and the SQL oracle.
BPE_TOKEN_RE = r"'(?:s|t|re|ve|m|ll|d)| ?[a-zA-Z]+| ?[0-9]+| ?[^a-zA-Z0-9\s]+|\s+"


def bpe_token_count(ds, text_col: str = "text"):
    """Approximate BPE token count: number of pre-tokenizer segments
    (the upper bound real BPE merges start from). Pure
    ``pyarrow.compute`` regex counting, zero-copy."""

    def fn(t: pa.Table) -> pa.Table:
        n = pc.cast(pc.count_substring_regex(t[text_col], BPE_TOKEN_RE), pa.int64())
        return t.append_column("n_bpe_tokens", n)

    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


class QualityScorer:
    """Quality scorer: length / punctuation / stopword-ratio heuristics
    (regex compiled once per instance)."""

    def __init__(self, text_col: str = "text"):
        self.text_col = text_col
        # explicit class (not \w) so DuckDB regexp_extract_all with the
        # IDENTICAL pattern is an exact oracle
        self.word_re = re.compile(r"[a-z0-9_一-鿿]+")
        self.all_stop = set().union(*STOPWORDS.values())

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        toks = df[self.text_col].str.lower().str.findall(self.word_re)
        counts = toks.str.len().to_numpy(dtype=np.int64)
        # vectorized stopword counting: one explode + isin over ALL
        # tokens of the batch, segment-summed back per document
        flat = toks.explode()
        hit = flat.isin(self.all_stop).to_numpy(dtype=np.float64)
        # explode keeps the source row index → exact segment boundaries
        offsets = np.concatenate(([0], np.cumsum(np.maximum(counts, 1))))
        stop = np.add.reduceat(
            np.concatenate((hit, [0.0])), offsets[:-1]
        ) * (counts > 0)
        n = np.maximum(counts, 1).astype(np.float64)
        df["stopword_ratio"] = stop / n
        length = df[self.text_col].str.len().to_numpy(dtype=np.float64)
        # quality: prefer 200..2000 chars, some stopwords, few repeats
        len_score = np.clip(length / 200.0, 0, 1) * np.clip((4000 - length) / 2000.0, 0, 1)
        df["quality_score"] = np.round(0.6 * len_score + 0.4 * (df["stopword_ratio"].to_numpy()), 6)
        return df


def quality_score(ds, *, batch_size: int = 4096, text_col: str = "text"):
    """Per-document ``stopword_ratio`` and ``quality_score`` columns."""
    return ds.map_batches(QualityScorer(text_col), batch_format="pandas",
                          batch_size=batch_size)


class LangId:
    """Stopword/character n-gram language heuristic over
    {en,de,fr,es,zh} (tables built once per instance)."""

    def __init__(self, text_col: str = "text"):
        self.text_col = text_col
        # explicit class (not \w) → mirrorable in DuckDB regexp functions
        self.word_re = re.compile(r"[a-z0-9_一-鿿]+")
        self.tables = {lang: sw for lang, sw in STOPWORDS.items()}
        self.cjk = re.compile(r"[一-鿿]")

    def _score(self, text: str) -> str:
        """Single-doc reference path (tests)."""
        if self.cjk.search(text):
            return "zh"
        words = set(self.word_re.findall(text.lower()))
        best, best_n = "en", -1
        for lang, sw in self.tables.items():
            if lang == "zh":
                continue
            n = len(words & sw)
            if n > best_n:
                best, best_n = lang, n
        return best

    _LANG_ORDER = ("en", "de", "fr", "es")  # tie → earliest (same as _score)

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        # vectorized: one explode of DISTINCT words per doc, one isin
        # per language, segment-sum per doc, argmax with first-wins tie
        # order — identical to the scalar path (tested)
        toks = df[self.text_col].str.lower().str.findall(self.word_re).map(
            lambda ws: list(dict.fromkeys(ws))
        )
        counts = toks.str.len().to_numpy(dtype=np.int64)
        flat = toks.explode()
        offsets = np.concatenate(([0], np.cumsum(np.maximum(counts, 1))))[:-1]
        scores = np.zeros((len(df), len(self._LANG_ORDER)), dtype=np.int64)
        for j, lang in enumerate(self._LANG_ORDER):
            hit = flat.isin(self.tables[lang]).to_numpy(dtype=np.int64)
            scores[:, j] = np.add.reduceat(np.concatenate((hit, [0])), offsets)[: len(df)]
        best = np.argmax(scores, axis=1)  # argmax → first max (tie order)
        pred = np.array(self._LANG_ORDER, dtype=object)[best]
        is_zh = df[self.text_col].str.contains(self.cjk).to_numpy(dtype=bool)
        df["pred_lang"] = np.where(is_zh, "zh", pred)
        return df


def lang_id(ds, *, batch_size: int = 4096, text_col: str = "text"):
    """Per-document ``pred_lang`` column."""
    return ds.map_batches(LangId(text_col), batch_format="pandas",
                          batch_size=batch_size)


_MOD61 = np.uint64((1 << 61) - 1)  # Mersenne prime 2^61 - 1


def rolling_fingerprint(texts, *, base: int = 257) -> np.ndarray:
    """Deterministic polynomial rolling hash per document:
    ``h = (h*257 + byte) mod (2^61-1)`` over the utf-8 bytes.

    Vectorized across the batch: documents are padded into a byte
    matrix and the recurrence runs column-by-column over character
    positions (numpy ops over all rows at once — no per-character
    Python loop). ``h*257 mod p`` uses the Mersenne fold
    ``(h<<8) mod p = (h >> 53) + ((h & (2^53-1)) << 8)`` so nothing
    overflows uint64."""
    assert base == 257, "the Mersenne-fold shift is specialized to base 257"
    bufs = [s.encode("utf-8") for s in texts]
    n = len(bufs)
    lens = np.fromiter((len(b) for b in bufs), dtype=np.int64, count=n)
    maxlen = int(lens.max()) if n else 0
    mat = np.zeros((n, maxlen), dtype=np.uint64)
    for i, b in enumerate(bufs):  # O(n) memcpys, not O(n·len) Python work
        mat[i, :len(b)] = np.frombuffer(b, dtype=np.uint8)
    h = np.zeros(n, dtype=np.uint64)
    mask53 = np.uint64((1 << 53) - 1)
    for j in range(maxlen):
        m = j < lens
        hm = h[m]
        # h*257 + c = (h<<8) + h + c, with (h<<8) Mersenne-folded
        t = (hm >> np.uint64(53)) + ((hm & mask53) << np.uint64(8)) + hm + mat[m, j]
        t = (t & _MOD61) + (t >> np.uint64(61))
        h[m] = np.where(t >= _MOD61, t - _MOD61, t)
    return h


def fingerprint(ds, text_col: str = "text"):
    """md5 hex digest (matches SQL ``md5(text)``) + rolling hash."""

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        df["md5"] = [hashlib.md5(s.encode("utf-8")).hexdigest() for s in df[text_col]]
        df["rolling_fp"] = rolling_fingerprint(df[text_col]).astype("uint64")
        return df

    return ds.map_batches(fn, batch_format="pandas")


def chunk_documents(ds, *, chunk_tokens: int = 128, overlap: int = 32,
                    id_col: str = "doc_id", text_col: str = "text"):
    """Split documents into overlapping token-window chunks — the
    standard pre-training / retrieval corpus step. One row in, one row
    per chunk out (``flat``-style batch expansion): chunk ``k`` covers
    whitespace tokens ``[k*stride, k*stride + chunk_tokens)`` with
    ``stride = chunk_tokens - overlap``; the final partial chunk is
    kept, empty docs yield one empty chunk. Token join is
    single-space, so the chunk text is a normalized view (byte-exact
    reconstruction is not the contract — token coverage is).

    Vectorized: one split pass, numpy repeat/cumsum for the row→chunk
    expansion, and per-chunk joins over pre-split token lists.
    """
    if overlap >= chunk_tokens:
        raise ValueError("overlap must be smaller than chunk_tokens")
    stride = chunk_tokens - overlap

    def expand(df: pd.DataFrame) -> pd.DataFrame:
        toks = df[text_col].str.split()
        n = toks.str.len().to_numpy(dtype=np.int64)
        n_chunks = (np.maximum(n - overlap, 1) - 1) // stride + 1
        idx = np.repeat(np.arange(len(df)), n_chunks)
        offsets = np.concatenate(([0], np.cumsum(n_chunks)))
        chunk_id = np.arange(int(n_chunks.sum())) - np.repeat(offsets[:-1], n_chunks)
        starts = chunk_id * stride
        tok_lists = toks.to_numpy()
        texts = [
            " ".join(tok_lists[i][s:s + chunk_tokens])
            for i, s in zip(idx, starts)
        ]
        n_tok = np.minimum(n[idx] - starts, chunk_tokens)
        return pd.DataFrame({
            id_col: df[id_col].to_numpy()[idx],
            "chunk_id": chunk_id.astype(np.int64),
            "chunk_text": texts,
            "n_chunk_tokens": np.maximum(n_tok, 0).astype(np.int64),
        })

    return ds.map_batches(expand, batch_format="pandas")


def repetition_stats(ds, *, id_col: str = "doc_id", text_col: str = "text"):
    """Gopher/C4-style repetition signals per document (Rae et al. 2021
    §A1.1 "repetitious text" filters; Raffel et al. 2020 C4 line dedup):
    duplicate-line fraction, duplicate-line CHARACTER fraction, the
    share of word-2-grams taken by the single most frequent 2-gram, and
    the fraction of word-3-gram occurrences whose gram repeats.

    Every signal is doc-local, so this is an embarrassingly parallel
    ``map_batches`` — NO shuffle at any scale. Vectorized: one
    findall/split pass, numpy repeat for the doc index, a grouped-shift
    bigram/trigram construction (no per-row Python loop), and
    pandas groupby reductions per batch.

    ``keep_gopher`` applies the published Gopher thresholds
    (dup_line_frac <= 0.30, dup_line_char_frac <= 0.20,
    top_bigram_frac <= 0.20, dup_trigram_frac <= 0.18 — the paper's
    "duplicate 3-gram character fraction" analog, here occurrence-based).
    """

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        nrows = len(df)
        texts = df[text_col]

        # ---- line duplication (C4-style)
        lines = texts.str.split("\n")
        llen = lines.str.len().to_numpy(dtype=np.int64)
        ldoc = np.repeat(np.arange(nrows), llen)
        lflat = pd.Series(
            np.fromiter((x for sub in lines for x in sub), dtype=object,
                        count=int(llen.sum())))
        lf = pd.DataFrame({"d": ldoc, "line": lflat.to_numpy(),
                           "len": lflat.str.len().to_numpy(dtype=np.int64)})
        lc = lf.groupby(["d", "line"], sort=False).agg(
            c=("len", "size"), len=("len", "first")).reset_index()
        tot_chars = (lc["len"] * lc["c"]).groupby(lc["d"]).sum()
        dup_chars = (lc["len"] * lc["c"]).where(lc["c"] > 1, 0).groupby(lc["d"]).sum()
        n_distinct = lc.groupby("d", sort=False)["c"].size()
        n_lines = lc.groupby("d", sort=False)["c"].sum()
        dup_line_frac = (1.0 - n_distinct / n_lines).reindex(range(nrows), fill_value=0.0)
        dup_line_char_frac = (dup_chars / np.maximum(tot_chars, 1)).reindex(
            range(nrows), fill_value=0.0)
        n_lines = n_lines.reindex(range(nrows), fill_value=0).astype(np.int64)

        # ---- word n-gram repetition (Gopher-style)
        words = texts.str.findall(r"\S+")
        wlen = words.str.len().to_numpy(dtype=np.int64)
        wdoc = np.repeat(np.arange(nrows), wlen)
        wflat = np.fromiter((x for sub in words for x in sub), dtype=object,
                            count=int(wlen.sum()))

        def gram_counts(n: int) -> pd.DataFrame:
            """(doc, gram) -> count for word n-grams, built by shifting
            the flat word array (a gram is valid when all n members share
            the doc id)."""
            if len(wflat) < n:
                return pd.DataFrame({"d": [], "g": [], "c": []})
            valid = wdoc[n - 1:] == wdoc[: len(wdoc) - n + 1]
            parts = [pd.Series(wflat[i: len(wflat) - (n - 1 - i)][valid]) for i in range(n)]
            g = parts[0].str.cat(parts[1:], sep=" ")
            return (pd.DataFrame({"d": wdoc[: len(wdoc) - n + 1][valid], "g": g.to_numpy()})
                    .groupby(["d", "g"], sort=False).size().rename("c").reset_index())

        g2 = gram_counts(2)
        tot2 = g2.groupby("d", sort=False)["c"].sum()
        top_bigram_frac = (g2.groupby("d", sort=False)["c"].max() / tot2).reindex(
            range(nrows), fill_value=0.0)
        g3 = gram_counts(3)
        tot3 = g3.groupby("d", sort=False)["c"].sum()
        dup3 = g3["c"].where(g3["c"] > 1, 0).groupby(g3["d"]).sum()
        dup_trigram_frac = (dup3 / tot3).reindex(range(nrows), fill_value=0.0)

        out = pd.DataFrame({
            id_col: df[id_col].to_numpy(),
            "n_lines": n_lines.to_numpy(),
            "dup_line_frac": np.round(dup_line_frac.to_numpy(dtype=np.float64), 6),
            "dup_line_char_frac": np.round(dup_line_char_frac.to_numpy(dtype=np.float64), 6),
            "top_bigram_frac": np.round(top_bigram_frac.to_numpy(dtype=np.float64), 6),
            "dup_trigram_frac": np.round(dup_trigram_frac.to_numpy(dtype=np.float64), 6),
        })
        out["keep_gopher"] = (
            (out["dup_line_frac"] <= 0.30) & (out["dup_line_char_frac"] <= 0.20)
            & (out["top_bigram_frac"] <= 0.20) & (out["dup_trigram_frac"] <= 0.18)
        )
        return out

    return ds.map_batches(fn, batch_format="pandas")


def tfidf_top_term(ds, *, id_col: str = "doc_id", text_col: str = "text",
                   doc_buckets: int = 64):
    """Per-document top TF-IDF term (smooth idf = ln((N+1)/(df+1)) + 1,
    raw-count tf; deterministic (score desc, term asc) tie-break).

    Scale shape: document frequencies are pre-aggregated inside each
    batch (distinct (doc, term) → per-term partial counts — the
    combiner pattern), so the first shuffle is a vocabulary-sized
    groupby-sum. The scoring pass is a ``stages/joins.lookup_docs``
    over per-doc term counts: when the df table fits it is broadcast
    and scoring is doc-local; otherwise (web-corpus vocab, 10⁸+ terms —
    a driver OOM if pulled) the df table never leaves the cluster: the
    term counts hash-join it and the per-doc top-1 reduces through
    ``doc_buckets`` hash buckets (vectorized across the many docs in
    each bucket — no per-doc Python call)."""
    n_docs = ds.count()

    def df_partials(df: pd.DataFrame) -> pd.DataFrame:
        words = df[text_col].str.findall(r"\S+")
        wlen = words.str.len().to_numpy(dtype=np.int64)
        wdoc = np.repeat(np.arange(len(df)), wlen)
        wflat = np.fromiter((x for sub in words for x in sub), dtype=object,
                            count=int(wlen.sum()))
        pairs = pd.DataFrame({"d": wdoc, "w": wflat}).drop_duplicates()
        vc = pairs["w"].value_counts()
        return pd.DataFrame({"w": vc.index.to_numpy(), "df": vc.to_numpy()})

    def tf_rows(df: pd.DataFrame) -> pd.DataFrame:
        words = df[text_col].str.findall(r"\S+")
        wlen = words.str.len().to_numpy(dtype=np.int64)
        wdoc = np.repeat(np.arange(len(df)), wlen)
        wflat = np.fromiter((x for sub in words for x in sub), dtype=object,
                            count=int(wlen.sum()))
        tf = (pd.DataFrame({"d": wdoc, "w": wflat})
              .groupby(["d", "w"], sort=False).size().rename("tf").reset_index())
        return pd.DataFrame({
            id_col: df[id_col].to_numpy()[tf["d"].to_numpy()],
            "w": tf["w"].to_numpy(),
            "tf": tf["tf"].to_numpy(np.int64),
        })

    def top1(df: pd.DataFrame) -> pd.DataFrame:
        idf = np.log((n_docs + 1.0) / (df["df"].to_numpy(np.float64) + 1.0)) + 1.0
        g = pd.DataFrame({
            id_col: df[id_col].to_numpy(),
            "w": df["w"].to_numpy(),
            "score": np.round(df["tf"].to_numpy(np.float64) * idf, 6),
        })
        # top-1 per doc by (score desc, term asc)
        top = (g.sort_values([id_col, "score", "w"],
                             ascending=[True, False, True], kind="mergesort")
               .groupby(id_col, sort=False).head(1))
        return pd.DataFrame({
            id_col: top[id_col].to_numpy(),
            "top_term": top["w"].to_numpy(),
            "score": top["score"].to_numpy(),
        })

    return lookup_docs(ds, combine_sum(ds, df_partials, "w", ["df"]), "w",
                       tf_rows, top1, doc_col=id_col, buckets=doc_buckets)


def pmi_bigrams(ds, *, text_col: str = "text", min_count: int = 5,
                ndigits: int = 6):
    """Pointwise mutual information of adjacent word pairs — the
    collocation detector ("New York" vs chance co-occurrence) used for
    phrase mining and tokenizer-merge candidates. ``pmi = ln(p(x,y) /
    (p(x)·p(y)))`` with p(x,y) over the M bigram events and p(x) over
    the N token events.

    Scale shape: two combiner aggregations (per-batch bigram and
    unigram ``value_counts`` → groupby-sum), so the shuffles are
    vocab²- and vocab-sized, never corpus-sized. The ``min_count``-
    filtered bigram table looks up the unigram counts of w1, then w2
    (``stages/joins.lookup``: broadcast once when the unigram table
    fits, else two hash joins — web vocab, ~10⁸ terms, nothing
    vocab-sized on the driver), then one vectorized finish."""
    toks = ds.select_columns([text_col])

    def bigram_partial(df: pd.DataFrame) -> pd.DataFrame:
        s = df[text_col].str.findall(r"\S+")
        n = s.map(len).to_numpy(np.int64)
        if n.sum() == 0:
            return pd.DataFrame({"w1": [], "w2": [], "c": pd.Series([], dtype=np.int64)})
        flat = np.concatenate([np.asarray(v, dtype=object) for v in s])
        # all adjacent pairs, then knock out the cross-document seams
        keep = np.ones(len(flat) - 1, dtype=bool)
        seams = np.cumsum(n)[:-1] - 1  # last token of each doc but the final
        keep[seams[(seams >= 0) & (seams < len(keep))]] = False
        t = pd.DataFrame({"w1": flat[:-1][keep], "w2": flat[1:][keep]})
        g = t.groupby(["w1", "w2"], sort=False).size()
        out = g.reset_index(name="c")
        out["c"] = out["c"].astype(np.int64)
        from pystreamfs_ray.util import arrow_block

        return arrow_block(out)

    def unigram_partial(df: pd.DataFrame) -> pd.DataFrame:
        s = df[text_col].str.findall(r"\S+")
        n = s.map(len).to_numpy(np.int64)
        if n.sum() == 0:
            return pd.DataFrame({"w": [], "cu": pd.Series([], dtype=np.int64)})
        flat = np.concatenate([np.asarray(v, dtype=object) for v in s])
        vc = pd.Series(flat).value_counts()
        from pystreamfs_ray.util import arrow_block

        return arrow_block(pd.DataFrame({"w": vc.index,
                                         "cu": vc.to_numpy(np.int64)}))

    uni = KeyedSide(combine_sum(toks, unigram_partial, "w", ["cu"]), "w")
    n_tokens = int(uni.ds.sum("cu") or 0)
    big = combine_sum(toks, bigram_partial, ["w1", "w2"], ["c"])
    # M without a third pass: bigrams = tokens - one seam per non-empty doc
    n_docs_nonempty = int(toks.map_batches(
        lambda df: pd.DataFrame(
            {"ne": [int(df[text_col].str.contains(r"\S", regex=True).sum())]}),
        batch_format="pandas").sum("ne") or 0)
    m_bigrams = n_tokens - n_docs_nonempty

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "c" not in df.columns:
            return pd.DataFrame({"w1": [], "w2": [],
                                 "c": pd.Series([], dtype=np.int64),
                                 "pmi": pd.Series([], dtype=np.float64)})
        c = df["c"].to_numpy(np.int64)
        pmi = np.log(c.astype(np.float64) * n_tokens * n_tokens
                     / (m_bigrams * df["cu1"].to_numpy(np.float64)
                        * df["cu2"].to_numpy(np.float64)))
        return pd.DataFrame({"w1": df["w1"].to_numpy(),
                             "w2": df["w2"].to_numpy(), "c": c,
                             "pmi": np.round(pmi, ndigits)})

    # prune BEFORE the lookups: only bigrams that can appear in the output
    big = big.filter(expr=f"c >= {min_count}")
    big = lookup(big, uni, "w1", rename={"cu": "cu1"})
    big = lookup(big, uni, "w2", rename={"cu": "cu2"})
    return big.map_batches(finish, batch_format="pandas")


class LinearScorer:
    """Batched model-inference stage: a logistic quality score over
    md5-hashed bag-of-words features — the fasttext-style linear
    classifier shape. The weight table is built ONCE in ``__init__``
    (the model-load step of a real classifier; here a seeded integer
    recurrence so DuckDB can mirror it exactly), and each batch is
    scored with one vectorized hash + bincount — no per-row Python.
    Use as ``map_batches(LinearScorer(…))``.

    Weight rule (SQL-mirrorable, exact in int64):
    ``w[b] = ((b·2654435761 + seed) % 1000) / 499.5 − 1`` over
    ``b = md5_number_lower(token) % num_buckets``; the doc logit is the
    token-weight mean and the score its sigmoid (empty doc → 0.5)."""

    def __init__(self, id_col: str = "doc_id", text_col: str = "text",
                 num_buckets: int = 64, seed: int = 1234,
                 ndigits: int = 6):
        self.id_col, self.text_col = id_col, text_col
        self.num_buckets = num_buckets
        self.ndigits = ndigits
        b = np.arange(num_buckets, dtype=np.uint64)
        self.w = ((b * np.uint64(2654435761) + np.uint64(seed))
                  % np.uint64(1000)).astype(np.float64) / 499.5 - 1.0

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        from pystreamfs_ray.stages.dedup import _md5_lower64

        s = df[self.text_col].str.findall(r"\S+")
        n = s.map(len).to_numpy(np.int64)
        logit = np.zeros(len(df))
        if n.sum():
            flat = np.concatenate([np.asarray(v, dtype=object) for v in s])
            uniq, inv = np.unique(flat, return_inverse=True)
            bkt = (_md5_lower64(uniq)
                   % np.uint64(self.num_buckets)).astype(np.int64)
            wsum = np.bincount(np.repeat(np.arange(len(df)), n),
                               weights=self.w[bkt][inv], minlength=len(df))
            logit = wsum / np.maximum(n, 1)
        return pd.DataFrame({
            self.id_col: df[self.id_col].to_numpy(),
            "n_tokens": n,
            "score": np.round(1.0 / (1.0 + np.exp(-logit)), self.ndigits),
        })


def linear_score(ds, *, id_col: str = "doc_id", text_col: str = "text",
                 num_buckets: int = 64, seed: int = 1234):
    """Score every document with :class:`LinearScorer` — doc-local,
    shuffle-free; the weight table is built once, with the stage."""
    return ds.select_columns([id_col, text_col]).map_batches(
        LinearScorer(id_col=id_col, text_col=text_col,
                     num_buckets=num_buckets, seed=seed),
        batch_format="pandas")


def feature_hash(ds, *, id_col: str = "doc_id", text_col: str = "text",
                 num_buckets: int = 32):
    """Hashing-trick bag-of-words: each document's tokens are counted
    into ``num_buckets`` md5-hashed slots — the fixed-dimension text
    featurizer that needs NO vocabulary pass (and therefore no shuffle
    at all: the whole operator is doc-local). Long-form output
    ``(id, bucket, n)`` with empty buckets omitted; md5-low-64 slot
    assignment makes it SQL-mirrorable via ``md5_number_lower``."""
    from pystreamfs_ray.stages.dedup import _md5_lower64

    def hash_batch(df: pd.DataFrame) -> pd.DataFrame:
        s = df[text_col].str.findall(r"\S+")
        n = s.map(len).to_numpy(np.int64)
        if n.sum() == 0:
            return pd.DataFrame({id_col: pd.Series([], dtype=np.int64),
                                 "bucket": pd.Series([], dtype=np.int64),
                                 "n": pd.Series([], dtype=np.int64)})
        flat = np.concatenate([np.asarray(v, dtype=object) for v in s])
        # hash each DISTINCT token once, then gather
        uniq, inv = np.unique(flat, return_inverse=True)
        slots = (_md5_lower64(list(uniq)) % np.uint64(num_buckets)).astype(np.int64)
        t = pd.DataFrame({
            id_col: np.repeat(df[id_col].to_numpy(), n),
            "bucket": slots[inv],
        })
        out = t.groupby([id_col, "bucket"], sort=False).size().reset_index(name="n")
        out["n"] = out["n"].astype(np.int64)
        return out

    return ds.select_columns([id_col, text_col]).map_batches(
        hash_batch, batch_format="pandas")


def normalize_text(ds, *, id_col: str = "doc_id", text_col: str = "text",
                   out_col: str = "text_norm"):
    """Canonical text cleanup — lowercase + collapse whitespace runs to
    single spaces + strip leading/trailing whitespace — the first stage
    of most corpus pipelines (it makes exact dedup catch case/spacing
    variants). Pure ``pyarrow.compute`` RE2 kernels, zero-copy,
    shuffle-free; the same three operations exist verbatim in DuckDB
    (lower / regexp_replace / trim) so the oracle is exact."""

    def fn(t: pa.Table) -> pa.Table:
        s = pc.utf8_lower(t[text_col])
        s = pc.replace_substring_regex(s, r"\s+", " ")
        s = pc.utf8_trim_whitespace(s)
        return pa.table({id_col: t[id_col], out_col: s})

    return ds.select_columns([id_col, text_col]).map_batches(
        fn, batch_format="pyarrow", zero_copy_batch=True)


def unigram_logprob(ds, *, id_col: str = "doc_id", text_col: str = "text",
                    ndigits: int = 6):
    """Per-document mean token negative log-probability under the
    corpus's own unigram LM — the CCNet-style quality proxy
    (Wenzek et al. 2020 rank documents by LM perplexity; the unigram
    form needs no external model): ``nll(d) = -(1/|d|) Σ_w ln(c(w)/N)``.
    Low = common/templated text, high = rare-token noise; both tails
    are filter candidates. Docs with no tokens are omitted.

    Scale shape: one vocab-sized combiner aggregate for the counts,
    then a ``stages/joins.lookup_docs`` of each doc's (term, tf) rows:
    when the count table fits it is broadcast and scoring is doc-local
    (zero further shuffles); otherwise the rows hash-join the count
    Dataset and reduce per doc bucket — nothing vocab-sized on the
    driver (same switch as ``tfidf_top_term``)."""
    def count_partial(df: pd.DataFrame) -> pd.DataFrame:
        s = df[text_col].str.findall(r"\S+")
        n = s.map(len).to_numpy(np.int64)
        if n.sum() == 0:
            return pd.DataFrame({"w": [], "c": pd.Series([], dtype=np.int64)})
        flat = np.concatenate([np.asarray(v, dtype=object) for v in s])
        vc = pd.Series(flat).value_counts()
        return pd.DataFrame({"w": vc.index.to_numpy(),
                             "c": vc.to_numpy(np.int64)})

    counts = KeyedSide(combine_sum(ds.select_columns([text_col]),
                                   count_partial, "w", ["c"]), "w")
    n_total = float(counts.ds.sum("c") or 0)
    if n_total == 0:
        return ds.map_batches(
            lambda df: pd.DataFrame({id_col: df[id_col],
                                     "n_tokens": np.zeros(len(df), np.int64),
                                     "nll": np.zeros(len(df))}).iloc[0:0],
            batch_format="pandas")

    def tf_rows(df: pd.DataFrame) -> pd.DataFrame:
        s = df[text_col].str.findall(r"\S+")
        n = s.map(len).to_numpy(np.int64)
        if n.sum() == 0:
            return pd.DataFrame({id_col: pd.Series([], dtype=df[id_col].dtype),
                                 "w": [], "tf": pd.Series([], dtype=np.int64),
                                 "n_tokens": pd.Series([], dtype=np.int64)})
        wdoc = np.repeat(np.arange(len(df)), n)
        flat = np.concatenate([np.asarray(v, dtype=object) for v in s])
        tf = (pd.DataFrame({"d": wdoc, "w": flat})
              .groupby(["d", "w"], sort=False).size().rename("tf").reset_index())
        return pd.DataFrame({
            id_col: df[id_col].to_numpy()[tf["d"].to_numpy()],
            "w": tf["w"].to_numpy(),
            "tf": tf["tf"].to_numpy(np.int64),
            "n_tokens": n[tf["d"].to_numpy()],
        })

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        # (doc, term) order: the per-doc sums add in the same order
        # whichever path delivered the rows
        df = df.sort_values([id_col, "w"], kind="mergesort")
        df["wl"] = (df["tf"].to_numpy(np.float64)
                    * np.log(df["c"].to_numpy(np.float64) / n_total))
        g = df.groupby(id_col, sort=False)
        wl, n = g["wl"].sum(), g["n_tokens"].first().to_numpy(np.int64)
        return pd.DataFrame({
            id_col: wl.index.to_numpy(),
            "n_tokens": n,
            "nll": np.round(-wl.to_numpy(np.float64) / n, ndigits),
        })

    return lookup_docs(ds, counts, "w", tf_rows, finish, doc_col=id_col)


def bigram_logprob(ds, *, id_col: str = "doc_id", text_col: str = "text",
                   ndigits: int = 6):
    """Per-document mean conditional bigram negative log-probability
    under the corpus's own bigram LM:
    ``nll(d) = -(1/(|d|-1)) Σ_i ln(c(w_i, w_{i+1}) / c(w_i))`` — the
    2-gram sharpening of the unigram CCNet proxy (templated text still
    scores low, but shuffled-word noise now scores HIGH even when every
    individual token is common). The history count is the global
    unigram count (the usual unnormalized shortcut — identical on both
    sides of the oracle). Docs with fewer than two tokens are omitted.

    Scale shape: one unigram- and one bigram-sized combiner aggregate
    (shuffles are vocab- and bigram-vocab-sized, never corpus-sized).
    Both tables are keyed ``w1 SEP w2`` (unigrams ``w1 SEP``), and each
    doc pair becomes a +tf row on its bigram key and a -tf row on its
    w1 key, so the score is one ``stages/joins.lookup_docs``
    ``Σ wt·ln(c)`` per doc: broadcast and doc-local when the count
    table fits, otherwise (web corpus — a driver OOM if pulled) a hash
    join and a per-doc-bucket reduce, same switch as
    ``unigram_logprob``/``tfidf_top_term``."""
    SEP = "\x1f"
    toks = ds.select_columns([id_col, text_col])

    def _pairs(s, n):
        """Adjacent in-doc pairs of the flattened token stream: the PMI
        seam-knockout trick (duplicate seams from empty docs collapse,
        so kept pairs == Σ max(n_i - 1, 0))."""
        flat = np.concatenate([np.asarray(v, dtype=object) for v in s])
        if len(flat) < 2:
            return None
        keep = np.ones(len(flat) - 1, dtype=bool)
        seams = np.cumsum(n)[:-1] - 1
        keep[seams[(seams >= 0) & (seams < len(keep))]] = False
        return flat[:-1][keep], flat[1:][keep]

    def count_partial(df: pd.DataFrame) -> pd.DataFrame:
        """ONE text pass emits BOTH count tables as a tagged union —
        unigram rows carry w2 == "" (tokens are \\S+ runs, never
        empty, so the tag cannot collide) — so the corpus is scanned
        once and the two vocab tables share one aggregate exchange
        instead of two serialized materializations (a measured r5 perf
        pass: the old shape paid the text scan and the shuffle
        barrier twice)."""
        s = df[text_col].str.findall(r"\S+")
        n = s.map(len).to_numpy(np.int64)
        empty = pd.DataFrame({"w1": pd.Series([], dtype=object),
                              "w2": pd.Series([], dtype=object),
                              "cu": pd.Series([], dtype=np.int64),
                              "cb": pd.Series([], dtype=np.int64)})
        if int(n.sum()) == 0:
            return empty
        vc = pd.Series(np.concatenate(
            [np.asarray(v, dtype=object) for v in s])).value_counts()
        parts = [pd.DataFrame({"w1": vc.index.to_numpy(),
                               "w2": "",
                               "cu": vc.to_numpy(np.int64),
                               "cb": np.int64(0)})]
        pr = _pairs(s, n)
        if pr is not None:
            g = (pd.DataFrame({"w1": pr[0], "w2": pr[1]})
                 .groupby(["w1", "w2"], sort=False).size())
            bp = g.rename("cb").reset_index()
            bp["cb"] = bp["cb"].astype(np.int64)
            bp["cu"] = np.int64(0)
            parts.append(bp[["w1", "w2", "cu", "cb"]])
        return pd.concat(parts, ignore_index=True)

    def keyed_counts(t: pa.Table) -> pa.Table:
        return pa.table({"k": pc.binary_join_element_wise(t["w1"], t["w2"], SEP),
                         "c": pc.add(t["cu"], t["cb"])})

    counts = combine_sum(toks, count_partial, ["w1", "w2"], ["cu", "cb"]) \
        .map_batches(keyed_counts, batch_format="pyarrow")

    def rows(df: pd.DataFrame) -> pd.DataFrame:
        s = df[text_col].str.findall(r"\S+")
        n = s.map(len).to_numpy(np.int64)
        npairs = np.maximum(n - 1, 0)
        if int(npairs.sum()) == 0:
            return pd.DataFrame({id_col: pd.Series([], dtype=df[id_col].dtype),
                                 "k": pd.Series([], dtype=object),
                                 "wt": pd.Series([], dtype=np.int64),
                                 "n_tokens": pd.Series([], dtype=np.int64)})
        w1, w2 = (pd.Series(w) for w in _pairs(s, n))
        d = np.repeat(np.arange(len(df)), npairs)
        wt = (pd.DataFrame({"d": np.concatenate([d, d]),
                            "k": np.concatenate([(w1 + SEP + w2).to_numpy(),
                                                 (w1 + SEP).to_numpy()]),
                            "wt": np.repeat(np.array([1, -1], np.int64), len(d))})
              .groupby(["d", "k"], sort=False)["wt"].sum().reset_index())
        d = wt["d"].to_numpy()
        return pd.DataFrame({id_col: df[id_col].to_numpy()[d],
                             "k": wt["k"].to_numpy(),
                             "wt": wt["wt"].to_numpy(np.int64),
                             "n_tokens": n[d]})

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        # (doc, key) order: the per-doc sums add in the same order
        # whichever path delivered the rows
        df = df.sort_values([id_col, "k"], kind="mergesort")
        df["wl"] = (df["wt"].to_numpy(np.float64)
                    * np.log(df["c"].to_numpy(np.float64)))
        g = df.groupby(id_col, sort=False)
        wl, n = g["wl"].sum(), g["n_tokens"].first().to_numpy(np.int64)
        return pd.DataFrame({
            id_col: wl.index.to_numpy(),
            "n_tokens": n,
            "nll": np.round(-wl.to_numpy(np.float64)
                            / (n - 1).astype(np.float64), ndigits),
        })

    return lookup_docs(toks, counts, "k", rows, finish, doc_col=id_col)


def document_frequency(ds, *, id_col: str = "doc_id",
                       text_col: str = "text"):
    """Document frequency per word: in how many distinct documents each
    lowercase word (``[a-z0-9_一-鿿]+`` runs, the package tokenizer
    class) appears. The foundation for corpus-driven stopword mining
    and vocabulary pruning.

    Scale shape: each batch emits the UNIQUE words of each of its
    documents (a doc lives in one batch row, so per-doc uniqueness is
    global), then ONE word groupby counts documents — the shuffle
    carries (word) rows, never text, and is bounded by
    sum-of-per-doc-vocabulary, not token count."""
    from ray.data.aggregate import Count

    word_re = re.compile(r"[a-z0-9_一-鿿]+")

    def explode(df: pd.DataFrame) -> pa.Table:
        toks = df[text_col].str.lower().str.findall(word_re)
        uniq = [np.unique(np.array(t, dtype=object)) for t in toks]
        flat = (np.concatenate(uniq) if uniq
                else np.array([], dtype=object))
        return pa.table({"word": pa.array(flat, type=pa.string())})

    pairs = ds.map_batches(explode, batch_format="pandas")
    return pairs.groupby("word").aggregate(Count(alias_name="df"))


def length_buckets(ds, text_col: str = "text"):
    """Power-of-two token-length bucket profile — the length-bucketed
    batching statistic a training pipeline uses to size packed batches
    (docs in bucket b have ``2^b <= n_tokens < 2^(b+1)``). Zero-token
    docs are excluded (they carry no trainable content).

    Exact integer arithmetic end to end: the bucket is
    ``floor(log2(n_tokens))`` computed via ``frexp`` (exact for any
    int64 < 2^53, no float-boundary risk), and the per-bucket
    ``n_docs/sum_tokens/min/max`` reduce through a per-batch combiner
    partial — the shuffle carries at most ~40 rows per block no matter
    the corpus size. Doc-local otherwise; text never shuffles."""
    from pystreamfs_ray.util import arrow_combiner

    counted = token_stats(ds, text_col)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        n = df["n_tokens"].to_numpy(np.int64)
        n = n[n >= 1]
        if len(n) == 0:
            return pd.DataFrame({
                "bucket": pd.Series([], dtype=np.int64),
                "n_docs": pd.Series([], dtype=np.int64),
                "sum_tokens": pd.Series([], dtype=np.int64),
                "min_tokens": pd.Series([], dtype=np.int64),
                "max_tokens": pd.Series([], dtype=np.int64)})
        # frexp: x = m * 2^e with m in [0.5, 1) → floor(log2 x) = e - 1,
        # exact for every positive int64 below 2^53
        bucket = np.frexp(n.astype(np.float64))[1].astype(np.int64) - 1
        g = (pd.DataFrame({"bucket": bucket, "n": n})
             .groupby("bucket")["n"]
             .agg(n_docs="size", sum_tokens="sum", min_tokens="min",
                  max_tokens="max").reset_index())
        return g.astype({"bucket": np.int64, "n_docs": np.int64,
                         "sum_tokens": np.int64, "min_tokens": np.int64,
                         "max_tokens": np.int64})

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "bucket": [np.int64(g["bucket"].iloc[0])],
            "n_docs": [np.int64(g["n_docs"].sum())],
            "sum_tokens": [np.int64(g["sum_tokens"].sum())],
            "min_tokens": [np.int64(g["min_tokens"].min())],
            "max_tokens": [np.int64(g["max_tokens"].max())]})

    return (counted
            .map_batches(arrow_combiner(partial), batch_format="pyarrow")
            .groupby("bucket").map_groups(merge, batch_format="pandas"))


def nucleus_vocab(ds, *, text_col: str = "text",
                  coverage_num: int = 9, coverage_den: int = 10,
                  num_partitions: int = 32):
    """Top-p (nucleus) vocabulary coverage: the MINIMAL prefix of the
    vocabulary, sorted by (count desc, word asc), whose cumulative
    token count reaches ``coverage_num/coverage_den`` of all tokens
    (default 90%) — the report that sizes a tokenizer vocab or a
    stopword/core-vocab cut. Output: (word, n, cum) with ``cum`` the
    inclusive cumulative count in global nucleus order.

    The coverage test is INTEGER-exact on both sides of the oracle:
    a word is in the nucleus iff ``coverage_den * (cum - n) <
    coverage_num * total`` — no float threshold to diverge on.

    Scale shape: one corpus scan builds vocab-sized (word, count)
    partials (combiner pattern, the shuffle moves vocabulary rows, not
    tokens); the counts table is materialized ONCE (bounded by |vocab|,
    orders of magnitude below the corpus) so the grand total and the
    global cumsum don't re-scan the corpus; the cumulative count uses
    the same two-phase distributed prefix sum as sequence packing
    (stages/packing.py:26) over a zero-padded (max-n, word) composite
    key — Zipf-tail counts spread across range partitions by word, so
    no single partition holds the whole n=1 tail.
    """
    from pystreamfs_ray.stages.packing import distributed_prefix_sum

    def partial_counts(df: pd.DataFrame) -> pd.DataFrame:
        words = (df[text_col].str.lower().str.findall(r"[a-z0-9_]+")
                 .explode().dropna())
        vc = words.value_counts()
        return pd.DataFrame({"word": vc.index.astype(str),
                             "n": vc.to_numpy(np.int64)})

    counts = combine_sum(ds, partial_counts, "word", ["n"]).materialize()
    total = int(counts.sum("n") or 0)
    if total == 0:
        return counts.map_batches(
            lambda df: pd.DataFrame({"word": pd.Series(dtype=str),
                                     "n": pd.Series(dtype=np.int64),
                                     "cum": pd.Series(dtype=np.int64)}),
            batch_format="pandas")

    def okey(t: pa.Table) -> pa.Table:
        n = t["n"].to_numpy(zero_copy_only=False).astype(np.int64)
        w = t["word"].to_numpy(zero_copy_only=False)
        # zero-padded (2^63-1 - n) then word: string order == (n desc,
        # word asc); unique because words are distinct post-aggregate
        inv = (np.int64(2**63 - 1) - n).astype("U19")
        key = np.char.add(np.char.add(np.char.zfill(inv, 19), "|"),
                          w.astype("U"))
        return pa.table({"word": t["word"], "n": pa.array(n),
                         "__okey": pa.array(key)})

    scanned = distributed_prefix_sum(
        counts.map_batches(okey, batch_format="pyarrow"),
        order_col="__okey", value_col="n", out_col="__excl",
        num_partitions=num_partitions)

    num_total, den = coverage_num * total, coverage_den  # closed over

    def nucleus(t: pa.Table) -> pa.Table:
        excl = t["__excl"].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = den * excl < num_total
        n = t["n"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({
            "word": t["word"].filter(pa.array(keep)),
            "n": pa.array(n[keep]),
            "cum": pa.array(excl[keep] + n[keep]),
        })

    return scanned.map_batches(nucleus, batch_format="pyarrow")


def bpe_train(ds, *, text_col: str = "text", num_merges: int = 32,
              min_count: int = 1):
    """BPE tokenizer TRAINING over the corpus — learn the top
    ``num_merges`` byte-pair merges, the way production trainers do it:
    the corpus-sized work is ONE distributed word-count aggregate
    (combiner partials; the shuffle moves vocabulary rows, never
    tokens), and the merge loop runs on the BOUNDED (word, count)
    table — every real BPE trainer (e.g. the published
    sentencepiece/HF algorithm) iterates on word counts, not the
    corpus, because pair statistics are exactly recoverable from them.

    Words are lowercase ``[a-z0-9_]+`` runs (the engine-wide tokenizer
    class); symbols start as single characters, no end-of-word marker.
    Each round picks the (count desc, pair asc) lexicographically
    deterministic best pair, so reruns and partitionings agree exactly.
    ``min_count`` prunes the Zipf tail before the driver pull —
    at 100 TB set it so the pulled vocab stays ~1e6 rows.

    Returns a pandas DataFrame (rank, left, right, pair_count) — the
    ordered merge table a tokenizer ships with. Iterative training has
    no SQL mirror (rows-only driver check); the pytest compares
    against a naive sequential reference.
    """

    def partial_counts(df: pd.DataFrame) -> pd.DataFrame:
        words = (df[text_col].str.lower().str.findall(r"[a-z0-9_]+")
                 .explode().dropna())
        vc = words.value_counts()
        return pd.DataFrame({"word": vc.index.astype(str),
                             "n": vc.to_numpy(np.int64)})

    counts = combine_sum(ds, partial_counts, "word", ["n"]).to_pandas()
    if len(counts):
        counts = counts[counts["n"] >= min_count]
    vocab = [(tuple(w), int(n))
             for w, n in zip(counts.get("word", []), counts.get("n", []))]

    merges = []
    for rank in range(num_merges):
        pair_counts: dict = {}
        for syms, n in vocab:
            for a, b in zip(syms, syms[1:]):
                pair_counts[(a, b)] = pair_counts.get((a, b), 0) + n
        if not pair_counts:
            break
        best = min(pair_counts.items(), key=lambda kv: (-kv[1], kv[0]))
        (a, b), cnt = best
        merged = a + b
        new_vocab = []
        for syms, n in vocab:
            if a in syms:  # cheap containment pre-filter
                out, i, m = [], 0, len(syms)
                while i < m:
                    if i + 1 < m and syms[i] == a and syms[i + 1] == b:
                        out.append(merged)
                        i += 2
                    else:
                        out.append(syms[i])
                        i += 1
                syms = tuple(out)
            new_vocab.append((syms, n))
        vocab = new_vocab
        merges.append((rank, a, b, cnt))

    return pd.DataFrame(merges, columns=["rank", "left", "right",
                                         "pair_count"]).astype(
        {"rank": np.int64, "pair_count": np.int64})


def bpe_apply_word(word: str, ranks: dict) -> int:
    """Sequential-reference BPE application for ONE word: repeatedly
    merge the lowest-rank adjacent pair until none applies; returns the
    token count. ``ranks`` maps (left, right) → merge rank. This is
    the published greedy algorithm (GPT-2 encoder.py shape), kept
    minimal because the distributed path memoizes per distinct word."""
    syms = list(word)
    while len(syms) > 1:
        best_rank, best_i = None, -1
        for i in range(len(syms) - 1):
            r = ranks.get((syms[i], syms[i + 1]))
            if r is not None and (best_rank is None or r < best_rank):
                best_rank, best_i = r, i
        if best_rank is None:
            break
        syms[best_i: best_i + 2] = [syms[best_i] + syms[best_i + 1]]
    return len(syms)


class BpeEncoder:
    """Tokenizer APPLICATION: count true BPE tokens per document under
    a TRAINED merge table (`bpe_train` output) — the second half of the
    tokenizer lifecycle (train once, encode the corpus). The merge
    table is a broadcast-sized model artifact: the ranks dict builds
    once in ``__init__`` (never per batch), and encoding memoizes per
    DISTINCT word — Zipf makes the distinct-word set per batch ≪ the
    token count, and the cache carries across the batches of one task
    (bounded; oldest-insertion eviction at ``cache_cap``). Doc-local,
    zero shuffles; payloads never leave the read task."""

    def __init__(self, merges_records: tuple, text_col: str = "text",
                 cache_cap: int = 1 << 20):
        self.text_col = text_col
        self.ranks = {(l, r): k for k, l, r in merges_records}
        self.cache: dict = {}
        self.cache_cap = cache_cap
        self.word_re = re.compile(r"[a-z0-9_]+")

    def _count(self, word: str) -> int:
        n = self.cache.get(word)
        if n is None:
            n = bpe_apply_word(word, self.ranks)
            if len(self.cache) >= self.cache_cap:
                self.cache.pop(next(iter(self.cache)))
            self.cache[word] = n
        return n

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        toks = df[self.text_col].str.lower().str.findall(self.word_re)
        flat = toks.explode().dropna()
        # batch-level distinct-word encode, then a vectorized gather
        uniq = flat.unique()
        enc = {w: self._count(w) for w in uniq}
        per_tok = flat.map(enc).astype(np.int64)
        n_tokens = per_tok.groupby(level=0).sum()
        n_words = toks.str.len().astype(np.int64)
        out = pd.DataFrame({
            "n_words": n_words.to_numpy(np.int64),
            "n_tokens": n_tokens.reindex(df.index, fill_value=0)
                                .to_numpy(np.int64),
        }, index=df.index)
        keep = [c for c in df.columns if c != self.text_col]
        return pd.concat([df[keep], out], axis=1)


def bpe_encode_counts(ds, merges: pd.DataFrame, *, text_col: str = "text",
                      batch_size: int = 1024):
    """Corpus-wide token accounting under a trained BPE merge table —
    what a pretraining pipeline runs to budget token counts before
    packing. One doc-local pass."""
    records = tuple((int(r), str(l), str(rt)) for r, l, rt in zip(
        merges["rank"], merges["left"], merges["right"]))
    return ds.map_batches(BpeEncoder(records, text_col),
                          batch_format="pandas", batch_size=batch_size)


def span_corrupt(ds, *, id_col: str = "doc_id", text_col: str = "text",
                 every: int = 4, phase: int = 1, sentinel: str = "<mask>"):
    """T5-style denoising-objective preparation, deterministic variant:
    tokenize on whitespace and mask every token whose 0-based position
    is ``phase`` modulo ``every`` (a fixed ~1/``every`` corruption
    rate, reproducible at any parallelism — no RNG to thread through
    workers). Emits ``input_text`` (masked tokens replaced by
    ``sentinel``), ``target_text`` (the masked tokens, space-joined)
    and ``n_masked``; documents with nothing to mask are dropped.
    Doc-local and shuffle-free: the whole operator is one vectorized
    ``map_batches`` over flattened token arrays."""

    def corrupt(df: pd.DataFrame) -> pd.DataFrame:
        toks = df[text_col].str.findall(r"\S+")
        n = toks.map(len).to_numpy(np.int64)
        keep_doc = n > 0
        if not keep_doc.any():
            return pd.DataFrame({
                id_col: pd.Series([], dtype=df[id_col].dtype),
                "input_text": pd.Series([], dtype=str),
                "target_text": pd.Series([], dtype=str),
                "n_masked": pd.Series([], dtype=np.int64),
            })
        ids = df[id_col].to_numpy()[keep_doc]
        toks = toks[keep_doc]
        n = n[keep_doc]
        flat = np.concatenate([np.asarray(v, dtype=object) for v in toks])
        doc_ix = np.repeat(np.arange(len(toks)), n)
        # position within each doc, 0-based
        starts = np.zeros(len(toks), dtype=np.int64)
        starts[1:] = np.cumsum(n)[:-1]
        pos = np.arange(len(flat), dtype=np.int64) - starts[doc_ix]
        masked = (pos % every) == phase
        inp = flat.copy()
        inp[masked] = sentinel
        s_in = pd.Series(inp).groupby(doc_ix, sort=False).agg(" ".join)
        tgt_doc = doc_ix[masked]
        s_tgt = pd.Series(flat[masked]).groupby(
            tgt_doc, sort=False).agg(" ".join)
        n_masked = np.bincount(doc_ix, weights=masked,
                               minlength=len(toks)).astype(np.int64)
        out = pd.DataFrame({
            id_col: ids,
            "input_text": s_in.to_numpy(),
            "n_masked": n_masked,
        })
        out["target_text"] = out.index.map(
            dict(zip(s_tgt.index, s_tgt.to_numpy())))
        out = out[out["n_masked"] > 0]
        return out[[id_col, "input_text", "target_text", "n_masked"]]

    return ds.select_columns([id_col, text_col]).map_batches(
        corrupt, batch_format="pandas")


def compression_ratio(ds, *, id_col: str = "doc_id",
                      text_col: str = "text", level: int = 6):
    """Gopher-style compressibility quality signal: per document, the
    zlib-compressed size over the raw UTF-8 size. Highly repetitive or
    templated text compresses far below ~0.4 and is a standard
    low-quality flag; near-random text sits close to (or above) 1.
    Doc-local and shuffle-free; zlib level fixed so the ratio is
    deterministic across workers and runs. Non-SQL (DuckDB ships no
    zlib) — correctness is pytest-gated by an exact driver-side replay
    and a planted repetitive/random fixture."""
    import zlib

    def ratio(df: pd.DataFrame) -> pd.DataFrame:
        raw = [t.encode("utf-8") for t in df[text_col].astype(str)]
        n_raw = np.array([len(b) for b in raw], dtype=np.int64)
        n_zip = np.array([len(zlib.compress(b, level)) for b in raw],
                         dtype=np.int64)
        return pd.DataFrame({
            id_col: df[id_col].to_numpy(),
            "n_bytes": n_raw,
            "n_zip": n_zip,
            "ratio": np.round(n_zip.astype(np.float64)
                              / np.maximum(n_raw, 1), 6),
        })

    return ds.select_columns([id_col, text_col]).map_batches(
        ratio, batch_format="pandas")
