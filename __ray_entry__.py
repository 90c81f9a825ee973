"""Driver contract for the graft builder (Ray Data target).

``entry()`` runs the flagship pipeline on /root/testdata/sf0.001;
``queries()`` maps operator names → callables(sf_dir); ``oracle_sql()``
gives the DuckDB-equivalent SQL (same column names, same float
rounding) for every SQL-expressible query. Kernel/selector queries are
rows-only here — their numeric contract vs the reference is enforced by
`python -m pytest -x -q` (see tests/test_kernels_parity.py and
tests/test_stages.py).

Ray is initialised by the driver BEFORE this module is imported; nothing
in here (or the library) calls ray.init / ray.shutdown.
"""

from __future__ import annotations

import inspect
from collections.abc import Callable
from typing import Any

# ---------------------------------------------------------------- SQL pieces

_TRANSCRIPTS_CTE = r"""
transcripts AS (
  SELECT CAST(user_id AS VARCHAR) AS conv_id,
         CAST(row_number() OVER (PARTITION BY user_id ORDER BY ts, event_id) - 1 AS BIGINT) AS turn_idx,
         CASE WHEN event_type IN ('click','view') THEN 'user'
              WHEN event_type IN ('purchase','signup') THEN 'assistant'
              WHEN event_type = 'error' THEN 'system'
              ELSE 'tool' END AS role,
         props AS text,
         CASE WHEN event_type = 'purchase' THEN 'search'
              WHEN event_type = 'signup' THEN 'code'
              WHEN event_type = 'error' THEN 'calc'
              ELSE '' END AS tool,
         ts
  FROM events
)
"""

_FEAT_CTE = r"""
feat AS (
  SELECT conv_id, turn_idx, role, text, tool, ts,
    CAST(length(text) AS DOUBLE) AS f_text_chars,
    CASE WHEN trim(text) = '' THEN 0.0
         ELSE CAST(len(regexp_split_to_array(trim(text), '\s+')) AS DOUBLE) END AS f_text_words,
    CAST(length(regexp_replace(text, '\s', '', 'g')) AS DOUBLE) AS f_nonspace,
    CASE WHEN role = 'assistant' AND tool <> '' THEN 1 ELSE 0 END AS label
  FROM transcripts
)
"""


def entry() -> Any:
    """Flagship pipeline on /root/testdata/sf0.001: events-derived
    transcripts → featurize → OFS selector windows → as-of join onto
    purchase-label timestamps. Returns the joined Dataset."""
    from pystreamfs_ray.sources import read_parquet

    from pystreamfs_ray.pipelines.flagship import flagship
    from pystreamfs_ray.pipelines.transcripts import transcripts_from_events

    sf_dir = "/root/testdata/sf0.001"
    trans = transcripts_from_events(sf_dir, num_buckets=16)

    ev = read_parquet(f"{sf_dir}/events.parquet",
                         columns=["user_id", "ts", "event_type", "value"])
    labels = ev.filter(expr="event_type == 'purchase'").map_batches(
        _purchase_labels, batch_format="pandas"
    )
    windows, joined, _summary = flagship(
        trans, labels, kernel="ofs", batch_size=50, num_features=5, num_buckets=16
    )
    return joined


def _purchase_labels(df):
    import numpy as np

    out = df[["ts"]].copy()
    out.insert(0, "conv_id", df["user_id"].astype(str))
    out["label"] = (df["value"] > 100.0).astype(np.int8)
    return out


# The contract sweep runs only the first 50 ``queries()`` entries each
# round, so this window rotates: r6 holds the first 50 (in definition
# order) of the SQL-oracled queries that no CORRECTNESS_r0*.json has
# a row for. Every other query follows in definition order.
DRIVER_WINDOW = (
    "q_dpo_pairs", "q_tool_chains", "q_dedup_convs", "q_dedup_snapshots",
    "q_recency", "q_truncate_context", "q_psi_drift", "q_leakage_corr",
    "q_incremental_minhash", "q_prior_ctr", "q_footer_stats", "q_zorder",
    "q_attribution", "q_range_search", "q_context_window", "q_session_lag",
    "q_rolling_distinct", "q_lang_outliers", "q_frame_plan",
    "q_label_propagate", "q_vocab_growth", "q_peak_rate", "q_ncm_kappa",
    "q_curriculum", "q_needle_scan", "q_tool_loops", "q_alternation",
    "q_collapse_repeats", "q_self_repetition", "q_echo_rate", "q_substr_dup",
    "q_dup_rate_by_source", "q_tool_entropy", "q_len_slope", "q_burstiness",
    "q_tool_cooccur", "q_chi2_cells", "q_profile_events", "q_ewma_value",
    "q_feature_cross", "q_span_corrupt", "q_audience_overlap",
    "q_activity_streak", "q_embedding_diversity", "q_pareto_share",
    "q_user_features", "q_compression", "q_k_anonymity", "q_shard_plan",
    "q_l_diversity",
)


def queries() -> dict[str, Callable[[str], Any]]:
    """Every public ``q*`` function of ``pipelines/queries.py`` by name,
    ``DRIVER_WINDOW`` first."""
    from pystreamfs_ray.pipelines import queries as q

    public = {name: f for name, f in vars(q).items()
              if name.startswith("q") and inspect.isfunction(f)
              and f.__module__ == q.__name__}
    return {**{name: public[name] for name in DRIVER_WINDOW}, **public}


def _minhash_perm_values(num_perm: int = 128) -> str:
    """The engine's seeded permutation constants as SQL VALUES rows —
    same rng/seed as stages/dedup._perm_params, so the oracle replays
    the exact universal-hash family."""
    from pystreamfs_ray.stages.dedup import _perm_params

    a, b = _perm_params(num_perm)
    return ", ".join(
        f"({p}, {int(a[p])}::UBIGINT, {int(b[p])}::UBIGINT)" for p in range(num_perm)
    )


def _sql_word_list(words) -> str:
    return "[" + ", ".join(f"'{w}'" for w in sorted(words)) + "]"


_WORD_CLASS = "[a-z0-9_一-鿿]+"  # mirrors textstats' explicit tokenizer class

_EMBED_PAIRS_SQL = """
    SELECT a.vec_id AS id_a, b.vec_id AS id_b,
           list_cosine_similarity(a.e, b.e) AS cos_raw
    FROM allv a JOIN allv b ON a.vec_id < b.vec_id
    WHERE list_cosine_similarity(a.e, b.e) >= 0.95
"""

_ALLV_CTE = """
    v AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS e FROM embeddings),
    allv AS (SELECT vec_id, e FROM v
             UNION ALL
             SELECT vec_id + 1000000, e FROM v WHERE vec_id < 5)
"""

_NCM_CONF_SQL = """
    WITH u AS (
      SELECT label, unnest(CAST(embedding AS DOUBLE[])) AS v,
             generate_subscripts(embedding, 1) AS dim
      FROM embeddings
    ), cm AS (
      SELECT label, dim, ROUND(AVG(v), 6) AS av
      FROM u GROUP BY label, dim
    ), c AS (
      SELECT label AS plabel, list(av ORDER BY dim) AS cvec
      FROM cm GROUP BY label
    ), d AS (
      SELECT e.vec_id, e.label, c.plabel,
             list_distance(CAST(e.embedding AS DOUBLE[]), c.cvec) AS dist
      FROM embeddings e CROSS JOIN c
    ), a AS (
      SELECT vec_id, label, plabel FROM d
      QUALIFY ROW_NUMBER() OVER (PARTITION BY vec_id
                                 ORDER BY dist, plabel) = 1
    )
    SELECT CAST(label AS BIGINT) AS label,
           CAST(plabel AS BIGINT) AS pred, COUNT(*) AS n
    FROM a GROUP BY label, plabel
"""

_ANN_TOPK_SQL = """
    WITH q AS (
        SELECT vec_id AS query_id, CAST(embedding AS DOUBLE[]) AS qe
        FROM embeddings WHERE vec_id < 10
    ), scored AS (
        SELECT q.query_id, e.vec_id,
               ROUND(list_cosine_similarity(q.qe, CAST(e.embedding AS DOUBLE[])), 6) AS cosine
        FROM q CROSS JOIN embeddings e
    ), ranked AS (
        SELECT query_id, vec_id, cosine,
               row_number() OVER (PARTITION BY query_id
                                  ORDER BY cosine DESC, vec_id) AS rank
        FROM scored
    )
    SELECT query_id, vec_id, cosine, rank FROM ranked WHERE rank <= 10
"""


def _decode_media_oracle() -> str:
    """Independent numpy re-derivation of the deterministic pseudo-decode
    spec (stages/multimodal.py DecodeStub + synth_media_table, seed=21,
    n=500, 2048-byte payloads) rendered as a DuckDB VALUES oracle.  The
    math is re-implemented here — not imported from the engine — so the
    driver compares two separately-written realisations of the same
    published spec.  All floats are repr()-round-trip exact doubles
    (byte means are sums divided by 2**11, so binary-exact)."""
    import hashlib

    import numpy as np

    n, seed, payload_bytes = 500, 21, 2048
    rng = np.random.default_rng(seed)
    kinds = np.array(["image", "audio", "video"], dtype=object)[
        rng.integers(0, 3, size=n)
    ]
    rows = []
    for i in range(n):
        payload = rng.integers(0, 256, size=payload_bytes, dtype=np.uint8)
        h = hashlib.blake2b(payload.tobytes(), digest_size=16).digest()
        width = float(64 + h[0] % 192)
        height = float(64 + h[1] % 192)
        duration = (h[2] % 300) / 10.0 if kinds[i] in ("audio", "video") else 0.0
        mean = float(payload.mean())
        meta = f'{{"src": "synth", "i": {i}}}'
        rows.append(
            f"({i}, '{kinds[i]}', '{meta}', {width!r}, {height!r}, "
            f"{duration!r}, {mean!r})"
        )
    values = ",\n".join(rows)
    return f"""
        SELECT CAST(media_id AS BIGINT) AS media_id, kind, meta,
               CAST(width AS DOUBLE) AS width,
               CAST(height AS DOUBLE) AS height,
               CAST(duration_s AS DOUBLE) AS duration_s,
               CAST(mean_val AS DOUBLE) AS mean_val
        FROM (VALUES {values})
             AS t(media_id, kind, meta, width, height, duration_s, mean_val)
    """


def _compression_oracle(sf_dir: str = "/root/testdata/sf0.01") -> str:
    """zlib-compressibility oracle: DuckDB ships no zlib, but the
    per-doc (n_bytes, n_zip, ratio) triple is deterministic (fixed
    level 6), so an independent sequential re-derivation — read the
    parquet directly, no engine import, no Ray — is inlined as a
    VALUES table. This checks the distributed plumbing (every doc
    present exactly once, ids aligned, rounding identical); the zlib
    math itself is pinned by pytest fixtures (planted repetitive vs
    random text)."""
    import zlib

    import numpy as np
    import pyarrow.parquet as pq

    t = pq.read_table(f"{sf_dir}/documents.parquet",
                      columns=["doc_id", "text"])
    ids = t["doc_id"].to_pylist()
    rows = []
    for i, txt in zip(ids, t["text"].to_pylist()):
        b = str(txt).encode("utf-8")
        nb, nz = len(b), len(zlib.compress(b, 6))
        ratio = np.round(np.float64(nz) / max(nb, 1), 6)
        rows.append(f"({i},{nb},{nz},{ratio!r})")
    return ("SELECT CAST(col0 AS BIGINT) AS doc_id, "
            "CAST(col1 AS BIGINT) AS n_bytes, "
            "CAST(col2 AS BIGINT) AS n_zip, "
            "CAST(col3 AS DOUBLE) AS ratio "
            "FROM (VALUES " + ",".join(rows) + ")")


def _pca_oracle(sf_dir: str = "/root/testdata/sf0.01") -> str:
    """PCA-projection oracle: the eigendecomposition itself is not SQL,
    but the PROJECTION is linear — (x−μ)·w = x·w − μ·w — so an
    independent sequential numpy re-derivation of (μ, W) (read the
    parquet directly, same covariance/eigh/sign-convention spec as
    stages/cluster.pca_project, no engine import, no Ray) is inlined as
    DOUBLE[] literals and the distributed projection is checked by
    DuckDB ``list_inner_product``. Covariance partials are separately
    oracle-checked by ``q_embedding_cov``. The driver compares at
    sf0.01 (the ``sf_dir`` default); pytest passes its own dir. The
    comparison is deterministic: same data, same arithmetic, every
    run."""
    import numpy as np
    import pyarrow.parquet as pq

    t = pq.read_table(f"{sf_dir}/embeddings.parquet", columns=["embedding"])
    X = np.asarray(t["embedding"].to_pylist(), dtype=np.float64)
    n = len(X)
    mu = X.sum(axis=0) / n
    cov = (X.T @ X) / n - np.outer(mu, mu)
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(-evals, kind="stable")[:8]
    W = evecs[:, order]
    flip = np.sign(W[np.argmax(np.abs(W), axis=0), np.arange(W.shape[1])])
    flip[flip == 0] = 1.0
    W = W * flip
    c = mu @ W
    rows = []
    for j in range(W.shape[1]):
        wl = ", ".join(repr(float(x)) for x in W[:, j])
        rows.append(f"({j + 1}, [{wl}]::DOUBLE[], {float(c[j])!r})")
    values = ",\n".join(rows)
    return f"""
        WITH comp AS (
          SELECT * FROM (VALUES {values}) AS t(component, w, c)
        )
        SELECT e.vec_id, CAST(comp.component AS BIGINT) AS component,
               ROUND(list_inner_product(CAST(e.embedding AS DOUBLE[]), comp.w)
                     - comp.c, 6) AS value
        FROM embeddings e CROSS JOIN comp
    """


def oracle_sql(sf_dir: str = "/root/testdata/sf0.01") -> dict[str, str]:
    """``sf_dir`` affects only the PCA oracle's inlined components and
    must match the directory the queries are compared at (the graft
    driver's no-arg call compares at sf0.01)."""
    from pystreamfs_ray.sources import split_cutoffs, temperature_rates
    from pystreamfs_ray.stages.textstats import STOPWORDS

    # identical truncating-int cutoffs as the engine (CAST would round)
    _cut_train, _cut_val = split_cutoffs(
        (("train", 0.8), ("val", 0.1), ("test", 0.1)))

    all_stop = _sql_word_list(set().union(*STOPWORDS.values()))
    lang_lists = {lang: _sql_word_list(sw) for lang, sw in STOPWORDS.items()}
    # q_temperature_mix thresholds: the SAME Python truncation the engine
    # applies (int(rate*65536)) inlined as integer literals — never
    # CAST(rate*N) in SQL, which rounds (see eval_mask_expr)
    _tm_rates = temperature_rates({f"src{i}": 2.0 ** (-i) for i in range(20)},
                                  temperature=2.0, base_rate=1.0)
    _tm_case = " ".join(
        f"WHEN '{s}' THEN {int(r * 65536)}" for s, r in sorted(_tm_rates.items())
    )

    # q_mrr: one ranked-BM25 + both-terms-relevance block per fixed
    # query, UNION ALLed; scores round to 6 BEFORE ranking and ties
    # break on doc_id, identical to q_rrf's proven ordering
    from pystreamfs_ray.pipelines.queries import _MRR_QUERIES

    def _mrr_block(qi: int, t1: str, t2: str) -> str:
        return f"""
            SELECT {qi} AS query_id, '{t1}' AS term_a, '{t2}' AS term_b,
                   CAST(COALESCE(MIN(rnk), 0) AS BIGINT) AS first_rel_rank
            FROM (
              SELECT row_number() OVER (ORDER BY score DESC, doc_id)
                       AS rnk, doc_id
              FROM (
                SELECT t.doc_id,
                       ROUND(SUM(LN((n - df + 0.5) / (df + 0.5) + 1)
                                 * tf * 2.2::DOUBLE
                                 / (tf + 1.2::DOUBLE
                                    * (0.25::DOUBLE
                                       + 0.75::DOUBLE * dl.len / avgdl))), 6)
                         AS score
                FROM (SELECT doc_id, w, CAST(COUNT(*) AS DOUBLE) AS tf
                      FROM toks WHERE w IN ('{t1}', '{t2}')
                      GROUP BY doc_id, w) t
                JOIN (SELECT w, CAST(COUNT(DISTINCT doc_id) AS DOUBLE) AS df
                      FROM toks WHERE w IN ('{t1}', '{t2}')
                      GROUP BY w) USING (w)
                JOIN dl USING (doc_id), stats
                GROUP BY t.doc_id
              ) QUALIFY rnk <= 10
            )
            WHERE doc_id IN (SELECT doc_id FROM toks
                             WHERE w IN ('{t1}', '{t2}')
                             GROUP BY doc_id
                             HAVING COUNT(DISTINCT w) = 2)
        """

    _mrr_sql = """
        WITH toks AS (
          SELECT doc_id, unnest(regexp_extract_all(text, '\\S+')) AS w
          FROM documents
        ), stats AS (
          SELECT CAST((SELECT COUNT(*) FROM documents) AS DOUBLE) AS n,
                 CAST((SELECT COUNT(*) FROM toks) AS DOUBLE)
                   / (SELECT COUNT(*) FROM documents) AS avgdl
        ), dl AS (
          SELECT doc_id, COUNT(*) AS len FROM toks GROUP BY doc_id
        )
        SELECT query_id, term_a, term_b, first_rel_rank,
               CAST(CASE WHEN first_rel_rank = 0 THEN 0
                         ELSE 1000000 // first_rel_rank END AS BIGINT)
                 AS rr_ppm
        FROM (""" + "\n UNION ALL \n".join(
        _mrr_block(qi, a, b) for qi, (a, b) in enumerate(_MRR_QUERIES)
    ) + ")"
    # shared by q_minhash_pairs, q_incremental_minhash, q_lsh_quality
    # and q_neardup_leakage. Variants are built via _minhash_pairs_from
    # with explicit __SRC__ / __PAIR_COND__ slots (NOT post-hoc string
    # replacement of SQL fragments, which silently no-ops if the shared
    # CTE is refactored); the builder asserts every slot was consumed.
    _minhash_pairs_tmpl = r"""
        WITH docs AS (
          SELECT doc_id, regexp_split_to_array(trim(text), '\s+') AS ws FROM __SRC__
        ), sh AS (
          SELECT DISTINCT doc_id,
            CASE WHEN len(ws) < 3 THEN array_to_string(ws, ' ')
                 ELSE array_to_string(ws[i.i:i.i+2], ' ') END AS s
          FROM docs CROSS JOIN LATERAL (
            SELECT unnest(range(1, GREATEST(len(ws) - 2, 1) + 1)) AS i) i
        ),
        perms(p, pa, pb) AS (VALUES __PERM_VALUES__),
        sigs AS (
          SELECT doc_id, p,
            MIN(CAST((CAST(md5_number_lower(s) AS HUGEINT) * pa + pb)
                     % 18446744073709551616 AS UBIGINT)
                % 2305843009213693951) AS v
          FROM sh CROSS JOIN perms GROUP BY doc_id, p
        ),
        per_band AS (
          SELECT a.doc_id AS id_a, b.doc_id AS id_b, a.p // 4 AS band,
                 SUM(CASE WHEN a.v = b.v THEN 1 ELSE 0 END) AS eq
          FROM sigs a JOIN sigs b ON a.p = b.p AND __PAIR_COND__
          GROUP BY 1, 2, 3
        )
        SELECT id_a, id_b, SUM(eq) / 128.0 AS jaccard_est
        FROM per_band
        GROUP BY id_a, id_b
        HAVING MAX(CASE WHEN eq = 4 THEN 1 ELSE 0 END) = 1
           AND SUM(eq) / 128.0 >= 0.2
    """.replace("__PERM_VALUES__", _minhash_perm_values(128))

    def _minhash_pairs_from(
        src: str = "documents",
        pair_cond: str = "a.doc_id < b.doc_id",
    ) -> str:
        sql = (_minhash_pairs_tmpl
               .replace("__SRC__", src)
               .replace("__PAIR_COND__", pair_cond))
        assert "__SRC__" not in sql and "__PAIR_COND__" not in sql
        assert src in sql and pair_cond in sql, "slot substitution no-op"
        return sql

    _minhash_pairs_sql = _minhash_pairs_from()

    def _split_case(idc: str) -> str:
        return (f"CASE WHEN md5_number_lower(CAST({idc} AS VARCHAR)) % 65536"
                f" < {_cut_train} THEN 'train'"
                f" WHEN md5_number_lower(CAST({idc} AS VARCHAR)) % 65536"
                f" < {_cut_val} THEN 'val' ELSE 'test' END")

    return {
        # sums quantized via FLOOR(x*scale + 0.5) → integer, exact and
        # order-independent: hash-equal to the Ray side by construction
        "q1_lineitem_agg": """
            SELECT l_returnflag, l_linestatus,
                   SUM(l_quantity) AS sum_qty,
                   CAST(SUM(CAST(FLOOR(l_extendedprice * 100.0 + 0.5) AS BIGINT)) AS DOUBLE) / 100.0 AS sum_base_price,
                   CAST(SUM(CAST(FLOOR(l_extendedprice * (1 - l_discount) * 10000.0 + 0.5) AS BIGINT)) AS DOUBLE) / 10000.0 AS sum_disc_price,
                   CAST(SUM(CAST(FLOOR(l_extendedprice * (1 - l_discount) * (1 + l_tax) * 1000000.0 + 0.5) AS BIGINT)) AS DOUBLE) / 1000000.0 AS sum_charge,
                   SUM(l_quantity) / CAST(COUNT(*) AS DOUBLE) AS avg_qty,
                   CAST(SUM(CAST(FLOOR(l_discount * 100.0 + 0.5) AS BIGINT)) AS DOUBLE) / 100.0 / CAST(COUNT(*) AS DOUBLE) AS avg_disc,
                   COUNT(*) AS count_order
            FROM lineitem
            WHERE l_shipdate <= TIMESTAMP '1998-09-02 00:00:00'
            GROUP BY l_returnflag, l_linestatus
        """,
        "q_filter_project": """
            SELECT l_orderkey, l_linenumber, l_quantity,
                   l_extendedprice * (1 - l_discount) AS revenue
            FROM lineitem
            WHERE l_quantity > 45 AND l_discount < 0.05
        """,
        "q_topk_orders": """
            SELECT o_orderkey, o_custkey, o_totalprice
            FROM orders
            ORDER BY o_totalprice DESC, o_orderkey
            LIMIT 10
        """,
        "q_join_agg": """
            SELECT c_mktsegment,
                   CAST(SUM(CAST(FLOOR(o_totalprice * 100.0 + 0.5) AS BIGINT)) AS DOUBLE) / 100.0 AS total_price,
                   COUNT(*) AS n_orders
            FROM orders JOIN customer ON o_custkey = c_custkey
            GROUP BY c_mktsegment
        """,
        "q_part_supplier_revenue": """
            SELECT p.p_brand, n.n_name,
                   COUNT(*) AS n_items,
                   CAST(SUM(CAST(FLOOR(l.l_extendedprice * (1 - l.l_discount) * 10000.0 + 0.5) AS BIGINT)) AS DOUBLE) / 10000.0 AS revenue
            FROM lineitem l
            JOIN part p ON p.p_partkey = l.l_partkey
            JOIN supplier s ON s.s_suppkey = l.l_suppkey
            JOIN nation n ON n.n_nationkey = s.s_nationkey
            GROUP BY p.p_brand, n.n_name
        """,
        "q_region_revenue": """
            SELECT r.r_name,
                   COUNT(*) AS n_orders,
                   CAST(SUM(CAST(FLOOR(o.o_totalprice * 100.0 + 0.5) AS BIGINT)) AS DOUBLE) / 100.0 AS revenue
            FROM orders o
            JOIN customer c ON c.c_custkey = o.o_custkey
            JOIN nation n ON n.n_nationkey = c.c_nationkey
            JOIN region r ON r.r_regionkey = n.n_regionkey
            GROUP BY r.r_name
        """,
        "q_semi_join": """
            SELECT l_orderkey, l_linenumber, l_quantity
            FROM lineitem
            WHERE l_orderkey IN (SELECT o_orderkey FROM orders
                                 WHERE o_orderpriority = '1-URGENT')
        """,
        # identical result via Bloom prefilter + exact verify join
        "q_bloom_semi": """
            SELECT l_orderkey, l_linenumber, l_quantity
            FROM lineitem
            WHERE l_orderkey IN (SELECT o_orderkey FROM orders
                                 WHERE o_orderpriority = '1-URGENT')
        """,
        "q_anti_join": """
            SELECT c_custkey, c_name, c_mktsegment
            FROM customer
            WHERE c_custkey NOT IN (SELECT o_custkey FROM orders
                                    WHERE o_orderpriority = '1-URGENT')
        """,
        # native distributed left_semi / left_anti, same oracles
        "q_semi_shuffle": """
            SELECT l_orderkey, l_linenumber, l_quantity
            FROM lineitem
            WHERE l_orderkey IN (SELECT o_orderkey FROM orders
                                 WHERE o_orderpriority = '1-URGENT')
        """,
        "q_anti_shuffle": """
            SELECT c_custkey, c_name, c_mktsegment
            FROM customer
            WHERE c_custkey NOT IN (SELECT o_custkey FROM orders
                                    WHERE o_orderpriority = '1-URGENT')
        """,
        "q_distinct_events": """
            SELECT event_type, COUNT(*) AS n,
                   CAST(SUM(CAST(FLOOR(value * 100.0 + 0.5) AS BIGINT)) AS DOUBLE) / 100.0 AS sum_value
            FROM events GROUP BY event_type
        """,
        "q_grouped_topk": """
            SELECT event_type, event_id, value, rank FROM (
                SELECT event_type, event_id, value,
                       row_number() OVER (PARTITION BY event_type
                                          ORDER BY value DESC, event_id) AS rank
                FROM events
            ) WHERE rank <= 3
        """,
        "q_grouped_quantiles": """
            SELECT event_type,
                   ROUND(quantile_cont(value, 0.5), 6) AS median_value,
                   ROUND(quantile_cont(value, 0.9), 6) AS p90_value,
                   COUNT(value) AS n
            FROM events GROUP BY event_type
        """,
        "q_pivot_events": """
            SELECT user_id,
                   CAST(SUM(CASE WHEN event_type = 'click' THEN 1 ELSE 0 END) AS BIGINT) AS n_click,
                   CAST(SUM(CASE WHEN event_type = 'view' THEN 1 ELSE 0 END) AS BIGINT) AS n_view,
                   CAST(SUM(CASE WHEN event_type = 'purchase' THEN 1 ELSE 0 END) AS BIGINT) AS n_purchase,
                   CAST(SUM(CASE WHEN event_type = 'signup' THEN 1 ELSE 0 END) AS BIGINT) AS n_signup,
                   CAST(SUM(CASE WHEN event_type = 'error' THEN 1 ELSE 0 END) AS BIGINT) AS n_error
            FROM events GROUP BY user_id
        """,
        "q_stratified_sample": """
            SELECT doc_id, source FROM documents
            WHERE md5_number_lower(CAST(doc_id AS VARCHAR)) % 65536 <
                  CASE source WHEN 'src0' THEN 16384
                              WHEN 'src1' THEN 49152
                              ELSE 32768 END
        """,
        "q_transcripts": f"""
            WITH {_TRANSCRIPTS_CTE}
            SELECT conv_id, turn_idx, role, text, tool, ts FROM transcripts
        """,
        # chat-template rendering: ordered role-tagged flattening
        "q_render_chat": f"""
            WITH {_TRANSCRIPTS_CTE}
            SELECT conv_id, COUNT(*) AS n_turns,
                   STRING_AGG(role || ': ' || text, chr(10)
                              ORDER BY turn_idx) AS rendered
            FROM transcripts GROUP BY conv_id
        """,
        # whole-conversation dedup on the canonical rendering
        "q_dedup_convs": f"""
            WITH {_TRANSCRIPTS_CTE}, r AS (
              SELECT conv_id,
                     STRING_AGG(role || ': ' || text, chr(10)
                                ORDER BY turn_idx) AS rendered
              FROM transcripts GROUP BY conv_id
            )
            SELECT MIN(conv_id) AS conv_id, COUNT(*) AS n_dupes, rendered
            FROM r GROUP BY rendered
        """,
        # feature→future-label leakage audit: Pearson corr from exact
        # integer sums; the float expression mirrors the engine
        # op-for-op (double mul/sub, exact BIGINT cross-products,
        # sqrt of the double product), so it is bit-identical
        "q_leakage_corr": f"""
            WITH {_TRANSCRIPTS_CTE}, {_FEAT_CTE},
            l AS (
              SELECT f_text_chars, f_text_words,
                     CASE WHEN role = 'user' THEN 1 ELSE 0 END
                       AS f_role_user,
                     lead(label) OVER (PARTITION BY conv_id
                                       ORDER BY turn_idx) AS y
              FROM feat
            ),
            m AS (SELECT * FROM l WHERE y IS NOT NULL),
            s AS (
              {" UNION ALL ".join(f'''
              SELECT '{c}' AS feature,
                     CAST(COUNT(*) AS BIGINT) AS n,
                     CAST(SUM(CAST({c} AS BIGINT)) AS BIGINT) AS sx,
                     CAST(SUM(CAST(y AS BIGINT)) AS BIGINT) AS sy,
                     CAST(SUM(CAST({c} AS BIGINT) * CAST({c} AS BIGINT))
                          AS BIGINT) AS sxx,
                     CAST(SUM(CAST({c} AS BIGINT) * CAST(y AS BIGINT))
                          AS BIGINT) AS sxy,
                     CAST(SUM(CAST(y AS BIGINT) * CAST(y AS BIGINT))
                          AS BIGINT) AS syy
              FROM m''' for c in ("f_text_chars", "f_text_words",
                                  "f_role_user"))}
            )
            SELECT feature, n,
                   CASE WHEN (n * sxx - sx * sx) = 0
                          OR (n * syy - sy * sy) = 0 THEN 0.0
                        ELSE (CAST(n AS DOUBLE) * CAST(sxy AS DOUBLE)
                              - CAST(sx * sy AS DOUBLE))
                             / sqrt(CAST(n * sxx - sx * sx AS DOUBLE)
                                    * CAST(n * syy - sy * sy AS DOUBLE))
                   END AS leak_corr
            FROM s
        """,
        # shard-planning audit from parquet footers: per-row-group
        # min/max/null stats of plain-int64 columns (physical INT64,
        # no logical type — excludes timestamps), across all tables
        "q_footer_stats": f"""
            SELECT m.file_name,
                   CAST(m.row_group_id AS BIGINT) AS row_group_id,
                   m.path_in_schema AS column_name,
                   CAST(m.num_values AS BIGINT) AS num_values,
                   CAST(m.stats_null_count AS BIGINT) AS null_count,
                   CAST(m.stats_min_value AS BIGINT) AS min_v,
                   CAST(m.stats_max_value AS BIGINT) AS max_v
            FROM parquet_metadata('{sf_dir}/*.parquet') m
            JOIN parquet_schema('{sf_dir}/*.parquet') s
              ON s.file_name = m.file_name AND s.name = m.path_in_schema
            WHERE s.type = 'INT64' AND s.converted_type IS NULL
        """,
        # z-order (Morton) interleave of (user_id low 16 bits,
        # day-of-month low 16 bits) — bit-for-bit vs the engine
        "q_zorder": f"""
            WITH d AS (
              SELECT event_id,
                     CAST(user_id AS BIGINT) & 65535 AS a,
                     CAST(EXTRACT(day FROM ts) AS BIGINT) & 65535 AS b
              FROM events
            )
            SELECT event_id,
                   ({" + ".join(
                       f"(((a >> {i}) & 1) << {2 * i})"
                       f" + (((b >> {i}) & 1) << {2 * i + 1})"
                       for i in range(16))}) AS zkey
            FROM d
        """,
        # expanding causal label mean: purchase rate over the user's
        # strictly-preceding events (-1.0 = no history); the division
        # mirrors the engine (double(sum)/double(cnt))
        "q_prior_ctr": """
            SELECT event_id,
                   CASE WHEN COUNT(*) OVER w_prior IS NULL
                          OR COUNT(*) OVER w_prior = 0 THEN -1.0
                        ELSE CAST(COUNT(CASE WHEN event_type = 'purchase'
                                        THEN 1 END) OVER w_prior AS DOUBLE)
                             / CAST(COUNT(*) OVER w_prior AS DOUBLE)
                   END AS prior_ctr
            FROM events
            WINDOW w_prior AS (PARTITION BY user_id ORDER BY ts, event_id
                               ROWS BETWEEN UNBOUNDED PRECEDING
                                        AND 1 PRECEDING)
        """,
        # strictly-causal recency features: prior-type counts and µs
        # gaps over each user's (ts, event_id)-ordered history
        "q_recency": """
            SELECT event_id,
                   CAST(COUNT(CASE WHEN event_type = 'purchase' THEN 1 END)
                        OVER w_prior AS BIGINT) AS n_prior_purchase,
                   CAST(COALESCE(date_diff('microsecond',
                        MAX(CASE WHEN event_type = 'error' THEN ts END)
                          OVER w_prior, ts), -1) AS BIGINT) AS us_since_error,
                   CAST(COALESCE(date_diff('microsecond',
                        lag(ts) OVER (PARTITION BY user_id
                                      ORDER BY ts, event_id), ts), -1)
                        AS BIGINT) AS us_since_prev
            FROM events
            WINDOW w_prior AS (PARTITION BY user_id ORDER BY ts, event_id
                               ROWS BETWEEN UNBOUNDED PRECEDING
                                        AND 1 PRECEDING)
        """,
        # context-window truncation: longest turn suffix within a
        # 64-token budget per conversation (reverse running sum)
        "q_truncate_context": f"""
            WITH {_TRANSCRIPTS_CTE},
            tok AS (
              SELECT conv_id, turn_idx,
                     CAST(len(regexp_extract_all(text, '\\S+')) AS BIGINT)
                       AS tok
              FROM transcripts
            ),
            r AS (
              SELECT conv_id, turn_idx, tok,
                     SUM(tok) OVER (PARTITION BY conv_id
                                    ORDER BY turn_idx DESC
                                    ROWS UNBOUNDED PRECEDING) AS rcum
              FROM tok
            )
            SELECT conv_id,
                   CAST(MIN(turn_idx) AS BIGINT) AS first_kept_turn,
                   CAST(COUNT(*) AS BIGINT) AS n_kept,
                   CAST(SUM(tok) AS BIGINT) AS tok_kept
            FROM r WHERE rcum <= 64 GROUP BY conv_id
        """,
        # day-over-day PSI of the value histogram (10 cent-bins of
        # width 5000 on [0, 50000), Laplace-smoothed shares)
        "q_psi_drift": """
            WITH e AS (
              SELECT strftime(CAST(ts AS DATE), '%Y-%m-%d') AS day,
                     LEAST(GREATEST(CAST(FLOOR(value * 100.0 + 0.5)
                                    AS BIGINT) // 5000, 0), 9) AS bin
              FROM events
            ),
            grid AS (
              SELECT day, b.bin
              FROM (SELECT DISTINCT day FROM e),
                   (SELECT unnest(range(10)) AS bin) b
            ),
            c AS (
              SELECT g.day, g.bin, COALESCE(x.cnt, 0) AS cnt
              FROM grid g LEFT JOIN (
                SELECT day, bin, COUNT(*) AS cnt FROM e GROUP BY day, bin
              ) x ON g.day = x.day AND g.bin = x.bin
            ),
            p AS (
              SELECT day, bin,
                     CAST(cnt + 1 AS DOUBLE) /
                     (CAST(SUM(cnt) OVER (PARTITION BY day) AS DOUBLE) + 10)
                       AS p
              FROM c
            ),
            pq AS (
              SELECT day, bin, p,
                     lag(p) OVER (PARTITION BY bin ORDER BY day) AS q
              FROM p
            )
            SELECT day, ROUND(SUM((p - q) * ln(p / q)), 6) AS psi
            FROM pq WHERE q IS NOT NULL GROUP BY day
        """,
        # agent-snapshot dedup: keep only snapshots (cumulative per-turn
        # renderings) that are not a strict prefix of any other snapshot;
        # the sorted-distinct-successor test mirrors prefix_dedup's
        # range-partition algorithm (a string is a strict prefix of some
        # member iff it prefixes the smallest member greater than it)
        "q_dedup_snapshots": f"""
            WITH {_TRANSCRIPTS_CTE},
            s AS (
              SELECT conv_id, turn_idx,
                     STRING_AGG(role || ': ' || text, chr(10)) OVER (
                       PARTITION BY conv_id ORDER BY turn_idx
                       ROWS UNBOUNDED PRECEDING) AS snap
              FROM transcripts
            ),
            u AS (SELECT DISTINCT snap FROM s),
            v AS (SELECT snap, lead(snap) OVER (ORDER BY snap) AS nxt
                  FROM u),
            surv AS (
              SELECT snap FROM v
              WHERE nxt IS NULL
                 OR NOT (length(nxt) > length(snap)
                         AND substr(nxt, 1, length(snap)) = snap)
            )
            SELECT s.conv_id, s.turn_idx,
                   CAST(length(s.snap) AS BIGINT) AS snap_len
            FROM s JOIN surv ON s.snap = surv.snap
        """,
        # dedup mined SFT prompts: first pair id per distinct prompt
        "q_dedup_prompts": f"""
            WITH {_TRANSCRIPTS_CTE},
            p AS (
              SELECT a.conv_id || ':' || CAST(a.turn_idx AS VARCHAR)
                       AS pair_id,
                     a.text AS prompt
              FROM transcripts a JOIN transcripts b
                ON a.conv_id = b.conv_id AND b.turn_idx = a.turn_idx + 1
              WHERE a.role = 'user' AND b.role = 'assistant'
            )
            SELECT MIN(pair_id) AS pair_id, COUNT(*) AS n_dupes, prompt
            FROM p GROUP BY prompt
        """,
        # best-of-n: per distinct prompt keep the highest-scoring
        # response (score = response token count), ties to smallest
        # (conv_id, turn_idx); n_candidates = pool size
        "q_best_of_n": f"""
            WITH {_TRANSCRIPTS_CTE},
            p AS (
              SELECT a.conv_id, CAST(a.turn_idx AS BIGINT) AS turn_idx,
                     a.text AS prompt,
                     CAST(len(regexp_extract_all(b.text, '\\S+')) AS BIGINT)
                       AS score
              FROM transcripts a JOIN transcripts b
                ON a.conv_id = b.conv_id AND b.turn_idx = a.turn_idx + 1
              WHERE a.role = 'user' AND b.role = 'assistant'
            )
            SELECT prompt, conv_id, turn_idx, score,
                   CAST(COUNT(*) OVER (PARTITION BY prompt) AS BIGINT)
                     AS n_candidates
            FROM p
            QUALIFY row_number() OVER (
              PARTITION BY prompt
              ORDER BY score DESC, conv_id, turn_idx) = 1
        """,
        # DPO preference pairs: chosen/rejected extremes per prompt
        # pool (>=2 candidates); tie rules mirror the engine exactly
        "q_dpo_pairs": f"""
            WITH {_TRANSCRIPTS_CTE},
            p AS (
              SELECT a.conv_id, CAST(a.turn_idx AS BIGINT) AS turn_idx,
                     a.text AS prompt,
                     CAST(len(regexp_extract_all(b.text, '\\S+')) AS BIGINT)
                       AS score
              FROM transcripts a JOIN transcripts b
                ON a.conv_id = b.conv_id AND b.turn_idx = a.turn_idx + 1
              WHERE a.role = 'user' AND b.role = 'assistant'
            ), ch AS (
              SELECT prompt, conv_id AS chosen_conv_id,
                     turn_idx AS chosen_turn_idx,
                     score AS chosen_score,
                     CAST(COUNT(*) OVER (PARTITION BY prompt) AS BIGINT)
                       AS n_candidates
              FROM p
              QUALIFY row_number() OVER (
                PARTITION BY prompt
                ORDER BY score DESC, conv_id, turn_idx) = 1
            ), rj AS (
              SELECT prompt, conv_id AS rejected_conv_id,
                     turn_idx AS rejected_turn_idx,
                     score AS rejected_score
              FROM p
              QUALIFY row_number() OVER (
                PARTITION BY prompt
                ORDER BY score ASC, conv_id DESC, turn_idx DESC) = 1
            )
            SELECT ch.prompt, chosen_conv_id, chosen_turn_idx,
                   chosen_score, n_candidates, rejected_conv_id,
                   rejected_turn_idx, rejected_score,
                   chosen_score - rejected_score AS margin
            FROM ch JOIN rj ON rj.prompt = ch.prompt
            WHERE n_candidates >= 2
        """,
        # SFT loss-mask spans: exclusive running token count per
        # conversation in turn order; emit assistant turns only
        "q_loss_spans": f"""
            WITH {_TRANSCRIPTS_CTE},
            t2 AS (
              SELECT conv_id, CAST(turn_idx AS BIGINT) AS turn_idx, role,
                     CAST(len(regexp_extract_all(text, '\\S+')) AS BIGINT)
                       AS tok
              FROM transcripts
            ), s AS (
              SELECT conv_id, turn_idx, role, tok,
                     CAST(COALESCE(SUM(tok) OVER (
                       PARTITION BY conv_id ORDER BY turn_idx
                       ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING),
                       0) AS BIGINT) AS tok_start
              FROM t2
            )
            SELECT conv_id, turn_idx, tok_start, tok_start + tok AS tok_end
            FROM s WHERE role = 'assistant'
        """,
        # SFT pair mining: user turn + immediately-following assistant turn
        "q_sft_pairs": f"""
            WITH {_TRANSCRIPTS_CTE}
            SELECT a.conv_id, CAST(a.turn_idx AS BIGINT) AS turn_idx,
                   a.text AS prompt, b.text AS response
            FROM transcripts a JOIN transcripts b
              ON a.conv_id = b.conv_id AND b.turn_idx = a.turn_idx + 1
            WHERE a.role = 'user' AND b.role = 'assistant'
        """,
        "q_featurize": f"""
            WITH {_TRANSCRIPTS_CTE}, {_FEAT_CTE}
            SELECT conv_id, turn_idx, text,
                   f_text_chars, f_text_words,
                   ROUND(CASE WHEN f_text_words = 0 THEN 0.0
                              ELSE f_nonspace / f_text_words END, 6) AS f_text_avg_word_len,
                   CASE WHEN role = 'user' THEN 1.0 ELSE 0.0 END AS f_role_user,
                   CASE WHEN role = 'assistant' THEN 1.0 ELSE 0.0 END AS f_role_assistant,
                   CASE WHEN role = 'system' THEN 1.0 ELSE 0.0 END AS f_role_system,
                   CASE WHEN role = 'tool' THEN 1.0 ELSE 0.0 END AS f_role_tool,
                   CASE WHEN tool = '' THEN 1.0 ELSE 0.0 END AS f_tool_none,
                   CASE WHEN tool = 'search' THEN 1.0 ELSE 0.0 END AS f_tool_search,
                   CASE WHEN tool = 'code' THEN 1.0 ELSE 0.0 END AS f_tool_code,
                   CASE WHEN tool = 'browser' THEN 1.0 ELSE 0.0 END AS f_tool_browser,
                   CASE WHEN tool = 'calc' THEN 1.0 ELSE 0.0 END AS f_tool_calc,
                   ROUND(CAST(turn_idx AS DOUBLE) / (CAST(turn_idx AS DOUBLE) + 50.0), 6) AS f_turn_idx_norm,
                   CAST(label AS TINYINT) AS label,
                   ROUND(COALESCE(CAST(date_diff('microsecond',
                         lag(ts) OVER (PARTITION BY conv_id ORDER BY turn_idx), ts) AS DOUBLE)
                         / 1000000.0, 0.0), 6) AS f_ts_delta_s
            FROM feat
        """,
        "q_tumbling": f"""
            WITH {_TRANSCRIPTS_CTE}, {_FEAT_CTE}
            SELECT conv_id, CAST(turn_idx // 50 AS BIGINT) AS window_id,
                   COUNT(*) AS n_turns,
                   SUM(f_text_words) AS sum_words,
                   CAST(SUM(label) AS BIGINT) AS n_labels,
                   MAX(ts) AS ts_end
            FROM feat
            GROUP BY conv_id, CAST(turn_idx // 50 AS BIGINT)
        """,
        "q_sliding": f"""
            WITH {_TRANSCRIPTS_CTE}, {_FEAT_CTE}
            SELECT conv_id, turn_idx,
                   ROUND(AVG(f_text_chars) OVER (
                       PARTITION BY conv_id ORDER BY turn_idx
                       ROWS BETWEEN 9 PRECEDING AND CURRENT ROW), 6) AS chars_roll10
            FROM feat
        """,
        "q_sliding_stride": f"""
            WITH {_TRANSCRIPTS_CTE}, {_FEAT_CTE},
            starts AS (
                SELECT DISTINCT conv_id, CAST((turn_idx // 4) * 4 AS BIGINT) AS window_start
                FROM feat
            )
            SELECT s.conv_id, s.window_start,
                   COUNT(*) AS n_rows,
                   SUM(f.f_text_chars) AS sum_chars
            FROM starts s JOIN feat f
              ON f.conv_id = s.conv_id
             AND f.turn_idx >= s.window_start
             AND f.turn_idx < s.window_start + 10
            GROUP BY s.conv_id, s.window_start
        """,
        "q_union_counts": """
            SELECT event_type, COUNT(*) AS n FROM (
                SELECT event_id, event_type FROM events WHERE event_type = 'click'
                UNION ALL
                SELECT event_id, event_type FROM events WHERE event_type = 'purchase'
            ) GROUP BY event_type
        """,
        # cum_value sums cent-quantized ints on both sides → order-exact
        "q_window_funcs": """
            SELECT event_id, user_id,
                   ROW_NUMBER() OVER w AS row_number,
                   RANK() OVER (PARTITION BY user_id ORDER BY value DESC) AS rank_value,
                   DENSE_RANK() OVER (PARTITION BY user_id ORDER BY value DESC) AS dense_rank_value,
                   CAST(SUM(CAST(FLOOR(value * 100.0 + 0.5) AS BIGINT))
                        OVER (w ROWS UNBOUNDED PRECEDING) AS DOUBLE) / 100.0 AS cum_value
            FROM events
            WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
        """,
        "q_lag_lead": """
            SELECT event_id, user_id, value,
                   lag(value) OVER w AS value_lag1,
                   lead(value) OVER w AS value_lead1
            FROM events
            WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
        """,
        "q_backfill": """
            SELECT event_id, user_id,
                   last_value(CASE WHEN event_type = 'purchase' THEN value END IGNORE NULLS)
                     OVER (PARTITION BY user_id ORDER BY ts, event_id
                           ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) AS last_purchase_value
            FROM events
        """,
        "q_sessionize": """
            WITH d AS (
                SELECT event_id, user_id, ts,
                       CASE WHEN lag(ts) OVER w IS NULL
                              OR date_diff('microsecond', lag(ts) OVER w, ts) > 1800000000
                            THEN 1 ELSE 0 END AS new_s
                FROM events
                WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
            ), s AS (
                SELECT user_id, ts,
                       SUM(new_s) OVER (PARTITION BY user_id ORDER BY ts, event_id
                                        ROWS UNBOUNDED PRECEDING) - 1 AS session_id
                FROM d
            )
            SELECT user_id, CAST(session_id AS BIGINT) AS session_id,
                   COUNT(*) AS n_events, MIN(ts) AS ts_start, MAX(ts) AS ts_end
            FROM s GROUP BY user_id, session_id
        """,
        # frame-sampling plan from the decode stub's independently
        # re-derived duration spec (video rows only; every_s=1, max 16;
        # FLOOR mirrors Python int() truncation — DuckDB CAST rounds)
        "q_frame_plan": f"""
            WITH m AS ({_decode_media_oracle()}),
            p AS (
              SELECT media_id,
                     LEAST(16, GREATEST(1,
                       CAST(FLOOR(duration_s / 1.0) AS BIGINT)))
                       AS n_frames
              FROM m WHERE kind = 'video'
            )
            SELECT media_id, n_frames,
                   CAST((n_frames - 1) AS DOUBLE) * 1.0 AS last_ts_s
            FROM p
        """,
        # per-source language-consistency audit: majority language
        # (ties to smallest) + deviating doc counts
        "q_lang_outliers": """
            WITH c AS (
              SELECT source, lang, COUNT(*) AS n
              FROM documents GROUP BY source, lang
            ), r AS (
              SELECT source, lang, n,
                     row_number() OVER (PARTITION BY source
                                        ORDER BY n DESC, lang) AS rk,
                     SUM(n) OVER (PARTITION BY source) AS tot
              FROM c
            )
            SELECT source, lang AS majority_lang,
                   CAST(tot AS BIGINT) AS n_docs,
                   CAST(tot - n AS BIGINT) AS n_outliers
            FROM r WHERE rk = 1
        """,
        # windowed distinct count: distinct tools among the previous
        # 4 turns of each conversation (anti-repetition feature)
        "q_rolling_distinct": f"""
            WITH {_TRANSCRIPTS_CTE},
            w AS (
              SELECT conv_id, turn_idx,
                     list(tool) OVER (PARTITION BY conv_id
                                      ORDER BY turn_idx
                                      ROWS BETWEEN 4 PRECEDING
                                               AND 1 PRECEDING) AS prev
              FROM transcripts
            )
            SELECT conv_id, turn_idx,
                   CAST(COALESCE(len(list_distinct(prev)), 0) AS BIGINT)
                     AS n_distinct_tools
            FROM w
        """,
        # session-scoped lag: µs since the previous event within the
        # same 30-min session, -1 at session starts (the lag never
        # leaks across a session boundary)
        "q_session_lag": """
            WITH d AS (
                SELECT event_id, user_id, ts,
                       CASE WHEN lag(ts) OVER w IS NULL
                              OR date_diff('microsecond', lag(ts) OVER w, ts) > 1800000000
                            THEN 1 ELSE 0 END AS new_s
                FROM events
                WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
            ), s AS (
                SELECT event_id, user_id, ts,
                       SUM(new_s) OVER (PARTITION BY user_id
                                        ORDER BY ts, event_id
                                        ROWS UNBOUNDED PRECEDING) - 1
                         AS session_id
                FROM d
            )
            SELECT event_id, CAST(session_id AS BIGINT) AS session_id,
                   CAST(COALESCE(date_diff('microsecond',
                        lag(ts) OVER (PARTITION BY user_id, session_id
                                      ORDER BY ts, event_id), ts), -1)
                        AS BIGINT) AS us_in_session
            FROM s
        """,
        # cosine range search: every pair clearing ROUND(cos,6) >= 0.3
        # — the all-neighbors complement of the top-k oracle
        "q_range_search": """
            WITH q AS (
                SELECT vec_id AS query_id, CAST(embedding AS DOUBLE[]) AS qe
                FROM embeddings WHERE vec_id < 10
            ), scored AS (
                SELECT q.query_id, e.vec_id,
                       ROUND(list_cosine_similarity(
                           q.qe, CAST(e.embedding AS DOUBLE[])), 6) AS cosine
                FROM q CROSS JOIN embeddings e
            )
            SELECT query_id, vec_id, cosine
            FROM scored WHERE cosine >= 0.3
        """,
        # SFT context assembly: previous-4-turn rendered context sizes
        # for each assistant turn (chars incl 'role: ' tags + newline
        # separators, whitespace tokens, turns present)
        "q_context_window": f"""
            WITH {_TRANSCRIPTS_CTE},
            t AS (
              SELECT conv_id, turn_idx, role,
                     CAST(length(role) + 2 + length(text) AS BIGINT)
                       AS line_len,
                     CAST(len(regexp_extract_all(text, '\\S+')) AS BIGINT)
                       AS tok
              FROM transcripts
            ),
            w AS (
              SELECT conv_id, turn_idx, role,
                     COALESCE(SUM(line_len) OVER w4, 0) AS ctx_raw,
                     COALESCE(SUM(tok) OVER w4, 0) AS ctx_tokens,
                     COUNT(*) OVER w4 AS n_ctx_turns
              FROM t
              WINDOW w4 AS (PARTITION BY conv_id ORDER BY turn_idx
                            ROWS BETWEEN 4 PRECEDING AND 1 PRECEDING)
            )
            SELECT conv_id, turn_idx,
                   CAST(ctx_raw + GREATEST(n_ctx_turns - 1, 0) AS BIGINT)
                     AS ctx_chars,
                   CAST(ctx_tokens AS BIGINT) AS ctx_tokens,
                   CAST(n_ctx_turns AS BIGINT) AS n_ctx_turns
            FROM w WHERE role = 'assistant'
        """,
        # first-touch session attribution: the event type that opened
        # each purchase's 30-min gap session + µs from session start
        # (first = smallest (ts, event_id) in session; µs exact)
        "q_attribution": """
            WITH d AS (
                SELECT event_id, user_id, ts, event_type,
                       CASE WHEN lag(ts) OVER w IS NULL
                              OR date_diff('microsecond', lag(ts) OVER w, ts) > 1800000000
                            THEN 1 ELSE 0 END AS new_s
                FROM events
                WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
            ), s AS (
                SELECT event_id, user_id, ts, event_type,
                       SUM(new_s) OVER (PARTITION BY user_id
                                        ORDER BY ts, event_id
                                        ROWS UNBOUNDED PRECEDING) AS sid
                FROM d
            ), f AS (
                SELECT event_id, ts, event_type,
                       FIRST_VALUE(event_type) OVER ws AS src_event_type,
                       FIRST_VALUE(ts) OVER ws AS ts_start
                FROM s
                WINDOW ws AS (PARTITION BY user_id, sid
                              ORDER BY ts, event_id
                              ROWS UNBOUNDED PRECEDING)
            )
            SELECT event_id, src_event_type,
                   CAST(date_diff('microsecond', ts_start, ts) AS BIGINT)
                     AS us_from_start
            FROM f WHERE event_type = 'purchase'
        """,
        "q_interval_join": """
            SELECT l.user_id,
                   l.event_id AS event_id_l, l.ts AS ts_l,
                   l.event_type AS event_type_l,
                   r.event_id AS event_id_r, r.ts AS ts_r,
                   r.event_type AS event_type_r
            FROM events l
            JOIN events r ON r.user_id = l.user_id
                         AND r.ts >= l.ts - INTERVAL 30 MINUTE
                         AND r.ts < l.ts
            WHERE l.event_type = 'purchase'
        """,
        "q_asof_global": """
            WITH l AS (SELECT event_id, ts, value FROM events WHERE event_type = 'purchase'),
                 r AS (SELECT event_id, ts, value FROM events WHERE event_type = 'view')
            SELECT l.event_id, l.ts, l.value,
                   MAX(r.ts) AS ts_matched,
                   arg_max(r.event_id, CAST(epoch_us(r.ts) AS HUGEINT) * 100000000 + r.event_id) AS event_id_r,
                   arg_max(r.value, CAST(epoch_us(r.ts) AS HUGEINT) * 100000000 + r.event_id) AS value_r
            FROM l JOIN r ON r.ts <= l.ts
            GROUP BY l.event_id, l.ts, l.value
        """,
        "q_rolling_1h": """
            SELECT event_id, user_id, ts,
                   CAST(SUM(CAST(FLOOR(value * 100.0 + 0.5) AS BIGINT)) OVER (
                       PARTITION BY user_id ORDER BY ts
                       RANGE BETWEEN INTERVAL 1 HOUR PRECEDING AND CURRENT ROW
                   ) AS DOUBLE) / 100.0 AS sum_1h
            FROM events
        """,
        "q_asof_events": """
            SELECT l.event_id, l.user_id, l.ts, l.value,
                   r.ts AS ts_matched, r.value AS value_r
            FROM (SELECT * FROM events WHERE event_type = 'purchase') l
            ASOF JOIN (SELECT * FROM events WHERE event_type <> 'purchase') r
              ON l.user_id = r.user_id AND l.ts >= r.ts
        """,
        # forward as-of (strict): earliest later event per purchase;
        # (user_id, ts) is tie-free in this data, so arg_min is exact
        "q_asof_forward": """
            WITH l AS (SELECT event_id, user_id, ts, value FROM events
                       WHERE event_type = 'purchase'),
                 r AS (SELECT user_id, ts, value FROM events
                       WHERE event_type <> 'purchase')
            SELECT l.event_id, l.user_id, l.ts, l.value,
                   MIN(r.ts) AS ts_matched,
                   arg_min(r.value, r.ts) AS value_r
            FROM l JOIN r ON r.user_id = l.user_id AND r.ts > l.ts
            GROUP BY l.event_id, l.user_id, l.ts, l.value
        """,
        "q_window_counts": f"""
            WITH {_TRANSCRIPTS_CTE}
            SELECT conv_id, CAST(turn_idx // 50 AS BIGINT) AS window_id,
                   COUNT(*) AS n_rows, MAX(ts) AS ts_end
            FROM transcripts
            GROUP BY conv_id, CAST(turn_idx // 50 AS BIGINT)
        """,
        "q_dedup_exact": """
            SELECT MIN(doc_id) AS doc_id, COUNT(*) AS n_dupes, text
            FROM documents GROUP BY text
        """,
        # keep the preferred-source copy per duplicate group
        "q_dedup_keep_best": """
            SELECT doc_id, source, n_dupes FROM (
              SELECT doc_id, source,
                     COUNT(*) OVER (PARTITION BY text) AS n_dupes,
                     ROW_NUMBER() OVER (PARTITION BY text
                                        ORDER BY source, doc_id) AS rn
              FROM documents) WHERE rn = 1
        """,
        # strictly-less-count rank semantics == SQL PERCENT_RANK
        "q_percent_rank": """
            SELECT c_custkey,
                   ROUND(PERCENT_RANK() OVER (ORDER BY c_acctbal), 6) AS pr
            FROM customer
        """,
        # exact SQL NTILE over a deterministic (value, id) total order
        "q_ntile": """
            SELECT c_custkey,
                   CAST(NTILE(10) OVER (ORDER BY c_acctbal, c_custkey)
                        AS BIGINT) AS bucket
            FROM customer
        """,
        # nearest of the 4 smallest-vec_id centroids, per vector;
        # DOUBLE cast so both sides accumulate in float64
        "q_kmeans_assign": """
            WITH c AS (
              SELECT vec_id AS cid, CAST(embedding AS DOUBLE[]) AS cvec
              FROM embeddings ORDER BY vec_id LIMIT 4
            ), d AS (
              SELECT e.vec_id, c.cid,
                     list_distance(CAST(e.embedding AS DOUBLE[]), c.cvec)
                       AS dist
              FROM embeddings e CROSS JOIN c
            )
            SELECT vec_id, cid FROM d
            QUALIFY ROW_NUMBER() OVER (PARTITION BY vec_id
                                       ORDER BY dist, cid) = 1
        """,
        "q_kmeans": """
            WITH c AS (
              SELECT vec_id AS cid, CAST(embedding AS DOUBLE[]) AS cvec
              FROM embeddings ORDER BY vec_id LIMIT 4
            ), d AS (
              SELECT e.vec_id, c.cid,
                     list_distance(CAST(e.embedding AS DOUBLE[]), c.cvec)
                       AS dist
              FROM embeddings e CROSS JOIN c
            ), a AS (
              SELECT vec_id, cid, dist FROM d
              QUALIFY ROW_NUMBER() OVER (PARTITION BY vec_id
                                         ORDER BY dist, cid) = 1
            )
            SELECT cid, COUNT(*) AS n,
                   ROUND(AVG(ROUND(dist, 6)), 6) AS avg_dist
            FROM a GROUP BY cid
        """,
        # hashing-trick bag-of-words: md5 slot counts per document
        "q_feature_hash": """
            WITH toks AS (
              SELECT doc_id,
                     unnest(regexp_extract_all(text, '\\S+')) AS w
              FROM documents
            )
            SELECT doc_id,
                   CAST(md5_number_lower(w) % 16 AS BIGINT) AS bucket,
                   COUNT(*) AS n
            FROM toks GROUP BY doc_id, bucket
        """,
        # per-user mean imputation of the deterministically-nulled value
        "q_impute_value": """
            WITH e AS (
              SELECT event_id, user_id,
                     CASE WHEN event_type = 'error' THEN NULL
                          ELSE value END AS v
              FROM events
            )
            SELECT event_id,
                   ROUND(COALESCE(v, AVG(v) OVER (PARTITION BY user_id)), 6)
                     AS value_f
            FROM e
        """,
        # leave-one-out categorical mean encoding, fixed-point cents
        # (integer round-half-up; singleton → NULL)
        "q_target_encode": """
            WITH e AS (
              SELECT event_id, user_id,
                     CAST(ROUND(value * 100) AS BIGINT) AS vc
              FROM events
            ), s AS (
              SELECT event_id, vc,
                     CAST(SUM(vc) OVER (PARTITION BY user_id) AS BIGINT)
                       AS sc,
                     COUNT(*) OVER (PARTITION BY user_id) AS n
              FROM e
            )
            SELECT event_id,
                   CASE WHEN n > 1 THEN
                     (2 * (sc - vc) + (n - 1)) // (2 * (n - 1))
                   END AS enc_cents
            FROM s
        """,
        # BM25 (Lucene idf) for a two-term query; avgdl over all docs
        "q_bm25": """
            WITH toks AS (
              SELECT doc_id, unnest(regexp_extract_all(text, '\\S+')) AS w
              FROM documents
            ), stats AS (
              SELECT CAST((SELECT COUNT(*) FROM documents) AS DOUBLE) AS n,
                     CAST((SELECT COUNT(*) FROM toks) AS DOUBLE)
                       / (SELECT COUNT(*) FROM documents) AS avgdl
            ), dl AS (
              SELECT doc_id, COUNT(*) AS len FROM toks GROUP BY doc_id
            ), dfs AS (
              SELECT w, CAST(COUNT(DISTINCT doc_id) AS DOUBLE) AS df
              FROM toks WHERE w IN ('join', 'filter') GROUP BY w
            ), tfs AS (
              SELECT doc_id, w, CAST(COUNT(*) AS DOUBLE) AS tf
              FROM toks WHERE w IN ('join', 'filter') GROUP BY doc_id, w
            )
            SELECT t.doc_id,
                   ROUND(SUM(LN((n - df + 0.5) / (df + 0.5) + 1)
                             * tf * 2.2::DOUBLE
                             / (tf + 1.2::DOUBLE
                                * (0.25::DOUBLE
                                   + 0.75::DOUBLE * dl.len / avgdl))), 6)
                     AS score
            FROM tfs t JOIN dfs USING (w) JOIN dl USING (doc_id), stats
            GROUP BY t.doc_id
        """,
        # reciprocal-rank fusion of the BM25 top-50 and cosine top-50
        # (query vec 0); both rankers round to 6 digits BEFORE ranking,
        # ties break on doc_id — identical to the engine's topn_ranked /
        # brute_force_topk ordering, so ranks (and the ≤2-term double
        # sums) are bit-equal
        "q_rrf": """
            WITH toks AS (
              SELECT doc_id, unnest(regexp_extract_all(text, '\\S+')) AS w
              FROM documents
            ), stats AS (
              SELECT CAST((SELECT COUNT(*) FROM documents) AS DOUBLE) AS n,
                     CAST((SELECT COUNT(*) FROM toks) AS DOUBLE)
                       / (SELECT COUNT(*) FROM documents) AS avgdl
            ), dl AS (
              SELECT doc_id, COUNT(*) AS len FROM toks GROUP BY doc_id
            ), dfs AS (
              SELECT w, CAST(COUNT(DISTINCT doc_id) AS DOUBLE) AS df
              FROM toks WHERE w IN ('join', 'filter') GROUP BY w
            ), tfs AS (
              SELECT doc_id, w, CAST(COUNT(*) AS DOUBLE) AS tf
              FROM toks WHERE w IN ('join', 'filter') GROUP BY doc_id, w
            ), bm AS (
              SELECT t.doc_id,
                     ROUND(SUM(LN((n - df + 0.5) / (df + 0.5) + 1)
                               * tf * 2.2::DOUBLE
                               / (tf + 1.2::DOUBLE
                                  * (0.25::DOUBLE
                                     + 0.75::DOUBLE * dl.len / avgdl))), 6)
                       AS score
              FROM tfs t JOIN dfs USING (w) JOIN dl USING (doc_id), stats
              GROUP BY t.doc_id
            ), bm_rank AS (
              SELECT doc_id,
                     row_number() OVER (ORDER BY score DESC, doc_id) AS rank
              FROM bm QUALIFY rank <= 50
            ), qv AS (
              SELECT CAST(embedding AS DOUBLE[]) AS qe
              FROM embeddings WHERE vec_id = 0
            ), ann AS (
              SELECT e.vec_id AS doc_id,
                     ROUND(list_cosine_similarity(qv.qe,
                           CAST(e.embedding AS DOUBLE[])), 6) AS cosine
              FROM qv CROSS JOIN embeddings e
            ), ann_rank AS (
              SELECT doc_id,
                     row_number() OVER (ORDER BY cosine DESC, doc_id) AS rank
              FROM ann QUALIFY rank <= 50
            ), parts AS (
              SELECT doc_id, 1.0 / (60 + rank) AS r FROM bm_rank
              UNION ALL
              SELECT doc_id, 1.0 / (60 + rank) FROM ann_rank
            ), fused AS (
              SELECT doc_id, ROUND(SUM(r), 6) AS rrf,
                     CAST(COUNT(*) AS BIGINT) AS n_lists
              FROM parts GROUP BY doc_id
            )
            SELECT doc_id, rrf, n_lists,
                   CAST(row_number() OVER (ORDER BY rrf DESC, doc_id)
                        AS BIGINT) AS rank
            FROM fused
            ORDER BY rrf DESC, doc_id LIMIT 10
        """,
        # CCNet-style unigram-LM quality proxy: mean token -ln p(w).
        # Sum order differs between engines but the addends are
        # irrational logs (never exactly on a .5e-6 boundary), so the
        # 6-digit round is stable — unlike exact-decimal quotients,
        # which get fixed-point treatment elsewhere
        "q_unigram_logprob": r"""
            WITH toks AS (
              SELECT doc_id, unnest(regexp_extract_all(text, '\S+')) AS w
              FROM documents
            ), total AS (
              SELECT CAST(COUNT(*) AS DOUBLE) AS n FROM toks
            ), c AS (
              SELECT w, CAST(COUNT(*) AS DOUBLE) AS c FROM toks GROUP BY w
            )
            SELECT t.doc_id,
                   CAST(COUNT(*) AS BIGINT) AS n_tokens,
                   ROUND(-SUM(LN(c.c / total.n)) / COUNT(*), 6) AS nll
            FROM toks t JOIN c USING (w), total
            GROUP BY t.doc_id
        """,
        # per-source duplicate rate: distinct md5 identities vs docs
        "q_dup_rate_by_source": """
            WITH f AS (
              SELECT source, md5(text) AS fp, COUNT(*) AS n
              FROM documents GROUP BY source, md5(text)
            )
            SELECT source, CAST(COUNT(*) AS BIGINT) AS n_distinct,
                   CAST(SUM(n) AS BIGINT) AS n_docs
            FROM f GROUP BY source
        """,
        # longest same-tool consecutive run per conversation
        # (gaps-and-islands; tool-less turns break runs)
        "q_tool_loops": f"""
            WITH {_TRANSCRIPTS_CTE},
            r AS (
              SELECT conv_id, tool, turn_idx,
                     row_number() OVER (PARTITION BY conv_id
                                        ORDER BY turn_idx)
                     - row_number() OVER (PARTITION BY conv_id, tool
                                          ORDER BY turn_idx) AS island
              FROM transcripts
            ),
            runs AS (
              SELECT conv_id, tool, island, COUNT(*) AS n
              FROM r WHERE tool <> '' GROUP BY conv_id, tool, island
            )
            SELECT conv_id, CAST(MAX(n) AS BIGINT) AS max_run
            FROM runs GROUP BY conv_id
        """,
        # adjacent-turn speaker switches per conversation
        # exact-substring duplicate coverage: stride-1 30-char grams,
        # repeated set = corpus count >= 2, covered chars via the
        # equal-length interval-union identity (LEAD gap clamp)
        "q_substr_dup": """
            WITH g AS (
              SELECT doc_id, i.i AS p,
                     md5_number_lower(substr(text, i.i + 1, 30)) AS h
              FROM documents CROSS JOIN LATERAL (
                SELECT UNNEST(range(GREATEST(len(text) - 29, 0)))
                  AS i) i
            ), rep AS (
              SELECT h FROM g GROUP BY h HAVING COUNT(*) >= 2
            ), pos AS (
              SELECT g.doc_id, g.p,
                     LEAD(g.p) OVER (PARTITION BY g.doc_id
                                     ORDER BY g.p) AS np
              FROM g JOIN rep USING (h)
            ), cov AS (
              SELECT doc_id, COUNT(*) AS n_rep,
                     CAST(SUM(CASE WHEN np IS NULL THEN 30
                                   ELSE LEAST(np - p, 30) END)
                          AS BIGINT) AS covered
              FROM pos GROUP BY doc_id
            )
            SELECT d.doc_id,
                   CAST(len(d.text) AS BIGINT) AS n_chars,
                   CAST(COALESCE(c.n_rep, 0) AS BIGINT) AS n_rep_grams,
                   CAST(COALESCE(c.covered, 0) AS BIGINT)
                     AS covered_chars,
                   CAST(CASE WHEN len(d.text) > 0
                        THEN COALESCE(c.covered, 0) * 1000000
                             // len(d.text)
                        ELSE 0 END AS BIGINT) AS dup_ppm
            FROM documents d LEFT JOIN cov c ON c.doc_id = d.doc_id
        """,
        # stutter collapse: turns identical to the IMMEDIATELY
        # preceding turn (same role + text) are the dropped set
        "q_collapse_repeats": f"""
            WITH {_TRANSCRIPTS_CTE},
            l AS (
              SELECT conv_id,
                     CASE WHEN role = LAG(role) OVER w
                           AND text = LAG(text) OVER w
                          THEN 1 ELSE 0 END AS dup
              FROM transcripts
              WINDOW w AS (PARTITION BY conv_id ORDER BY turn_idx)
            )
            SELECT conv_id,
                   CAST(COUNT(*) AS BIGINT) AS n_turns,
                   CAST(SUM(dup) AS BIGINT) AS n_dropped,
                   CAST(COUNT(*) - SUM(dup) AS BIGINT) AS n_kept
            FROM l GROUP BY conv_id
        """,
        # context-rot: exact-text repeats within the conversation's
        # assistant subsequence
        "q_self_repetition": f"""
            WITH {_TRANSCRIPTS_CTE},
            a AS (
              SELECT conv_id, text,
                     row_number() OVER (PARTITION BY conv_id, text
                                        ORDER BY turn_idx) AS occ
              FROM transcripts WHERE role = 'assistant'
            )
            SELECT conv_id,
                   CAST(COUNT(*) AS BIGINT) AS n_assistant,
                   CAST(SUM(CASE WHEN occ > 1 THEN 1 ELSE 0 END)
                        AS BIGINT) AS n_repeats
            FROM a GROUP BY conv_id
        """,
        # parroting: distinct response word-3-grams present in the
        # prompt; gram separator chr(31) mirrors the engine's \\x1f
        "q_echo_rate": f"""
            WITH {_TRANSCRIPTS_CTE},
            p AS (
              SELECT a.conv_id, CAST(a.turn_idx AS BIGINT) AS turn_idx,
                     a.text AS prompt, b.text AS response
              FROM transcripts a JOIN transcripts b
                ON a.conv_id = b.conv_id AND b.turn_idx = a.turn_idx + 1
              WHERE a.role = 'user' AND b.role = 'assistant'
            ), rg AS (
              SELECT DISTINCT conv_id, turn_idx,
                     ws[i.i] || chr(31) || ws[i.i+1] || chr(31)
                       || ws[i.i+2] AS g
              FROM (SELECT conv_id, turn_idx,
                           regexp_split_to_array(trim(response), '\\s+')
                             AS ws FROM p) t
              CROSS JOIN LATERAL (
                SELECT unnest(range(1, GREATEST(len(ws) - 2, 0) + 1))
                  AS i) i
            ), pg AS (
              SELECT DISTINCT conv_id, turn_idx,
                     ws[i.i] || chr(31) || ws[i.i+1] || chr(31)
                       || ws[i.i+2] AS g
              FROM (SELECT conv_id, turn_idx,
                           regexp_split_to_array(trim(prompt), '\\s+')
                             AS ws FROM p) t
              CROSS JOIN LATERAL (
                SELECT unnest(range(1, GREATEST(len(ws) - 2, 0) + 1))
                  AS i) i
            ), cnt AS (
              SELECT conv_id, turn_idx, COUNT(*) AS n_g
              FROM rg GROUP BY 1, 2
            ), hits AS (
              SELECT rg.conv_id, rg.turn_idx, COUNT(*) AS n_hit
              FROM rg JOIN pg ON pg.conv_id = rg.conv_id
                             AND pg.turn_idx = rg.turn_idx
                             AND pg.g = rg.g
              GROUP BY 1, 2
            )
            SELECT p.conv_id, p.turn_idx,
                   CAST(COALESCE(c.n_g, 0) AS BIGINT) AS n_resp_grams,
                   CAST(COALESCE(h.n_hit, 0) AS BIGINT) AS n_echoed,
                   CAST(CASE WHEN COALESCE(c.n_g, 0) > 0
                        THEN COALESCE(h.n_hit, 0) * 1000000 // c.n_g
                        ELSE -1 END AS BIGINT) AS echo_ppm
            FROM p
            LEFT JOIN cnt c ON c.conv_id = p.conv_id
                           AND c.turn_idx = p.turn_idx
            LEFT JOIN hits h ON h.conv_id = p.conv_id
                            AND h.turn_idx = p.turn_idx
        """,
        "q_alternation": f"""
            WITH {_TRANSCRIPTS_CTE},
            d AS (
              SELECT conv_id,
                     CASE WHEN lag(role) OVER w IS NULL THEN NULL
                          WHEN lag(role) OVER w <> role THEN 1
                          ELSE 0 END AS sw
              FROM transcripts
              WINDOW w AS (PARTITION BY conv_id ORDER BY turn_idx)
            )
            SELECT conv_id,
                   CAST(COALESCE(SUM(sw), 0) AS BIGINT) AS n_switches,
                   CAST(COUNT(sw) AS BIGINT) AS n_pairs
            FROM d GROUP BY conv_id
        """,
        # exact-needle contamination scan: docs containing each 20-char
        # probe lifted from the first documents (plain containment)
        "q_needle_scan": """
            WITH needles AS (
              SELECT substr(text, 11, 20) AS needle
              FROM documents WHERE doc_id < 5 AND length(text) >= 30
            )
            SELECT n.needle, CAST(COUNT(*) AS BIGINT) AS n_docs
            FROM needles n JOIN documents d
              ON contains(d.text, n.needle)
            GROUP BY n.needle
        """,
        # curriculum difficulty buckets: NTILE(4) over the unigram NLL
        "q_curriculum": r"""
            WITH toks AS (
              SELECT doc_id, unnest(regexp_extract_all(text, '\S+')) AS w
              FROM documents
            ), total AS (
              SELECT CAST(COUNT(*) AS DOUBLE) AS n FROM toks
            ), c AS (
              SELECT w, CAST(COUNT(*) AS DOUBLE) AS c FROM toks GROUP BY w
            ), nll AS (
              SELECT t.doc_id,
                     ROUND(-SUM(LN(c.c / total.n)) / COUNT(*), 6) AS nll
              FROM toks t JOIN c USING (w), total
              GROUP BY t.doc_id
            )
            SELECT doc_id,
                   CAST(NTILE(4) OVER (ORDER BY nll, doc_id) AS BIGINT)
                     AS bucket
            FROM nll
        """,
        # per-user session rollup (exact sums; means are client-side)
        "q_session_stats": """
            WITH d AS (
                SELECT event_id, user_id, ts,
                       CASE WHEN lag(ts) OVER w IS NULL
                              OR date_diff('microsecond', lag(ts) OVER w, ts) > 1800000000
                            THEN 1 ELSE 0 END AS new_s
                FROM events
                WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
            ), s AS (
                SELECT user_id, ts,
                       SUM(new_s) OVER (PARTITION BY user_id ORDER BY ts, event_id
                                        ROWS UNBOUNDED PRECEDING) - 1 AS session_id
                FROM d
            ), sess AS (
                SELECT user_id, session_id, COUNT(*) AS n_events,
                       date_diff('microsecond', MIN(ts), MAX(ts)) AS dur_us
                FROM s GROUP BY user_id, session_id
            )
            SELECT user_id,
                   CAST(COUNT(*) AS BIGINT) AS n_sessions,
                   CAST(SUM(n_events) AS BIGINT) AS n_events,
                   ROUND(CAST(SUM(dur_us) AS DOUBLE) / 1e6, 6) AS total_dur_s
            FROM sess GROUP BY user_id
        """,
        # time-scoped dedup: first occurrence per (payload, 7-day window)
        "q_dedup_windowed": """
            WITH w AS (
              SELECT event_id, props AS text, ts,
                     CAST(FLOOR(epoch_us(ts) / (7 * 86400 * 1000000.0))
                          AS BIGINT) AS win
              FROM events
            ), r AS (
              SELECT event_id, win,
                     row_number() OVER (PARTITION BY text, win
                                        ORDER BY ts, event_id) AS rn,
                     COUNT(*) OVER (PARTITION BY text, win) AS n_dupes
              FROM w
            )
            SELECT event_id, win, CAST(n_dupes AS BIGINT) AS n_dupes
            FROM r WHERE rn = 1
        """,
        # ROLLUP: (region, nation) grain + subtotals + grand total
        "q_rollup_revenue": """
            SELECT COALESCE(r_name, 'ALL') AS r_name,
                   COALESCE(n_name, 'ALL') AS n_name,
                   ROUND(SUM(CAST(FLOOR(o_totalprice * 100.0 + 0.5) AS BIGINT))
                         / 100.0, 2) AS revenue
            FROM orders
            JOIN customer ON o_custkey = c_custkey
            JOIN nation ON c_nationkey = n_nationkey
            JOIN region ON n_regionkey = r_regionkey
            GROUP BY ROLLUP (r_name, n_name)
        """,
        # native outer joins (pre-aggregated sides, null-filled output)
        "q_left_outer_join": """
            SELECT c.c_custkey, c.c_mktsegment,
                   CAST(COALESCE(o.n_orders, 0) AS BIGINT) AS n_orders,
                   ROUND(COALESCE(o.cents, 0) / 100.0, 2) AS revenue
            FROM customer c LEFT JOIN (
              SELECT o_custkey, COUNT(*) AS n_orders,
                     SUM(CAST(FLOOR(o_totalprice * 100.0 + 0.5) AS BIGINT))
                       AS cents
              FROM orders GROUP BY o_custkey
            ) o ON c.c_custkey = o.o_custkey
        """,
        "q_full_outer_join": """
            WITH b AS (
              SELECT strftime(ts, '%Y-%m-%d') AS day, COUNT(*) AS n_purchases
              FROM events WHERE event_type = 'purchase' GROUP BY day
            ), s AS (
              SELECT strftime(ts, '%Y-%m-%d') AS day, COUNT(*) AS n_signups
              FROM events WHERE event_type = 'signup' GROUP BY day
            )
            SELECT COALESCE(b.day, s.day) AS day,
                   CAST(COALESCE(n_purchases, 0) AS BIGINT) AS n_purchases,
                   CAST(COALESCE(n_signups, 0) AS BIGINT) AS n_signups
            FROM b FULL OUTER JOIN s ON b.day = s.day
        """,
        # per-conversation transcript profile (role mix / tools / duration)
        "q_conv_stats": f"""
            WITH {_TRANSCRIPTS_CTE.strip()}
            SELECT conv_id,
                   CAST(COUNT(*) AS BIGINT) AS n_turns,
                   CAST(SUM(CASE WHEN role = 'user' THEN 1 ELSE 0 END) AS BIGINT) AS n_user,
                   CAST(SUM(CASE WHEN role = 'assistant' THEN 1 ELSE 0 END) AS BIGINT) AS n_assistant,
                   CAST(SUM(CASE WHEN role = 'system' THEN 1 ELSE 0 END) AS BIGINT) AS n_system,
                   CAST(SUM(CASE WHEN role = 'tool' THEN 1 ELSE 0 END) AS BIGINT) AS n_tool,
                   CAST(SUM(CASE WHEN tool <> '' THEN 1 ELSE 0 END) AS BIGINT) AS n_tool_calls,
                   ROUND(date_diff('microsecond', MIN(ts), MAX(ts)) / 1e6, 6) AS duration_s
            FROM transcripts GROUP BY conv_id
        """,
        # as-of with a 1-hour staleness bound (feature-freshness filter)
        "q_asof_tolerance": """
            SELECT l.event_id, l.user_id, l.ts, l.value,
                   r.ts AS ts_matched, r.value AS value_r
            FROM (SELECT * FROM events WHERE event_type = 'purchase') l
            ASOF JOIN (SELECT * FROM events WHERE event_type <> 'purchase') r
              ON l.user_id = r.user_id AND l.ts >= r.ts
            WHERE date_diff('second', r.ts, l.ts) <= 3600
        """,
        # per-day HLL registers (windowed mergeable sketch)
        "q_hll_by_window": """
            WITH h AS (
              SELECT strftime(ts, '%Y-%m-%d') AS day,
                     md5_number_lower(CAST(user_id AS VARCHAR)) AS hv
              FROM events
            ), r AS (
              SELECT day, CAST(hv >> 58 AS BIGINT) AS reg,
                     CAST(CASE WHEN (hv & ((1::UBIGINT << 58) - 1)) = 0 THEN 59
                          ELSE 58 - length(bin(hv & ((1::UBIGINT << 58) - 1))) + 1
                          END AS BIGINT) AS rho
              FROM h
            )
            SELECT day, reg, MAX(rho) AS rho_max
            FROM r GROUP BY day, reg
        """,
        # cross-source overlap matrix on the 2-token prefix fingerprint
        # (template-reuse provenance report)
        "q_dup_matrix": r"""
            WITH d AS (
              SELECT DISTINCT
                array_to_string(regexp_extract_all(text, '\S+')[1:2], ' ')
                  AS fp,
                source
              FROM documents
            )
            SELECT a.source AS source_a, b.source AS source_b,
                   CAST(COUNT(*) AS BIGINT) AS n_texts
            FROM d a JOIN d b ON a.fp = b.fp AND a.source < b.source
            GROUP BY a.source, b.source
        """,
        # temperature-flattened per-source mixing (T=2 over 2^-i weights)
        "q_temperature_mix": f"""
            SELECT doc_id, source FROM documents
            WHERE md5_number_lower(CAST(doc_id AS VARCHAR)) % 65536 <
                  CASE source {_tm_case} ELSE 0 END
        """,
        # deterministic 5-fold split balance (md5-of-key folds)
        "q_kfold": """
            SELECT CAST(md5_number_lower(CAST(doc_id AS VARCHAR)) % 5
                        AS BIGINT) AS fold,
                   COUNT(*) AS n_docs,
                   CAST(SUM(len(regexp_extract_all(text, '\\S+')))
                        AS BIGINT) AS n_tokens
            FROM documents GROUP BY fold
        """,
        # greedy token-budget corpus assembly in md5-of-key order
        "q_budget_sample": """
            WITH t AS (
              SELECT doc_id, source,
                     CAST(len(regexp_extract_all(text, '\\S+')) AS BIGINT)
                       AS n_tokens,
                     md5_number_lower(CAST(doc_id AS VARCHAR)) AS hv
              FROM documents
            )
            SELECT doc_id, source, n_tokens FROM (
              SELECT doc_id, source, n_tokens,
                     SUM(n_tokens) OVER (PARTITION BY source
                                         ORDER BY hv, doc_id
                                         ROWS UNBOUNDED PRECEDING) AS run
              FROM t)
            WHERE run <= 1000
        """,
        # one-row data-quality audit (row/dup-key/null/range + bounds)
        "q_audit_orders": """
            WITH d AS (
              SELECT COUNT(*) AS n_dup_keys FROM (
                SELECT o_orderkey FROM orders
                GROUP BY o_orderkey HAVING COUNT(*) > 1)
            )
            SELECT COUNT(*) AS n_rows,
                   (SELECT n_dup_keys FROM d) AS n_dup_keys,
                   CAST(SUM(CASE WHEN o_orderkey IS NULL THEN 1 ELSE 0 END)
                        AS BIGINT) AS n_null_key,
                   CAST(SUM(CASE WHEN o_totalprice IS NULL THEN 1 ELSE 0 END)
                        AS BIGINT) AS n_null_num,
                   CAST(SUM(CASE WHEN o_totalprice < 0 THEN 1 ELSE 0 END)
                        AS BIGINT) AS n_below_min,
                   ROUND(MIN(o_totalprice), 6) AS min_num,
                   ROUND(MAX(o_totalprice), 6) AS max_num
            FROM orders
        """,
        # per-source Shannon entropy (nats) of the language mix
        "q_lang_entropy": """
            WITH c AS (
              SELECT source, lang, COUNT(*) AS c
              FROM documents GROUP BY source, lang
            ), t AS (
              SELECT source, SUM(c) AS n FROM c GROUP BY source
            )
            SELECT c.source,
                   ROUND(SUM(-(c.c / t.n) * LN(c.c / t.n)), 6) AS h,
                   CAST(MAX(t.n) AS BIGINT) AS n_docs
            FROM c JOIN t USING (source) GROUP BY c.source
        """,
        # per-group min-max scaling; constant groups null out
        "q_minmax_scale": """
            SELECT doc_id,
                   ROUND((n_chars - MIN(n_chars) OVER (PARTITION BY source))
                         / NULLIF(CAST(MAX(n_chars) OVER (PARTITION BY source)
                                       - MIN(n_chars) OVER (PARTITION BY source)
                                       AS DOUBLE), 0), 6) AS mm
            FROM documents
        """,
        # robust z = (v - median) / MAD per group; zero-MAD → NULL
        "q_robust_zscore": """
            WITH m AS (
              SELECT source, MEDIAN(n_chars) AS med
              FROM documents GROUP BY source
            ), a AS (
              SELECT d.source, MEDIAN(ABS(d.n_chars - m.med)) AS mad
              FROM documents d JOIN m USING (source) GROUP BY d.source
            )
            SELECT d.doc_id,
                   ROUND((d.n_chars - m.med) / NULLIF(a.mad, 0), 6) AS rz
            FROM documents d JOIN m USING (source) JOIN a USING (source)
        """,
        # canonical text cleanup: lower + collapse whitespace + trim
        "q_normalize_text": """
            SELECT doc_id,
                   trim(regexp_replace(lower(text), '\\s+', ' ', 'g'))
                     AS text_norm
            FROM documents
        """,
        # nearest-class-mean confusion matrix over 6-digit-rounded
        # class centroids; ties to the smallest predicted label
        "q_ncm_confusion": _NCM_CONF_SQL,
        # Cohen's kappa + accuracy from the same confusion counts:
        # kappa = (D*N - E) / (N*N - E) with D = diagonal, E = sum of
        # row*col marginal products — one float division of exact ints
        "q_ncm_kappa": f"""
            WITH conf AS ({_NCM_CONF_SQL}),
            m AS (
              SELECT CAST(SUM(n) AS BIGINT) AS nn,
                     CAST(SUM(CASE WHEN label = pred THEN n ELSE 0 END)
                          AS BIGINT) AS d
              FROM conf
            ),
            e AS (
              SELECT CAST(SUM(rk * ck) AS BIGINT) AS ee
              FROM (SELECT label AS k, CAST(SUM(n) AS BIGINT) AS rk
                    FROM conf GROUP BY label) r
              JOIN (SELECT pred AS k, CAST(SUM(n) AS BIGINT) AS ck
                    FROM conf GROUP BY pred) c USING (k)
            )
            SELECT m.nn AS n,
                   CAST(m.d AS DOUBLE) / CAST(m.nn AS DOUBLE) AS accuracy,
                   CAST(m.d * m.nn - e.ee AS DOUBLE)
                   / CAST(m.nn * m.nn - e.ee AS DOUBLE) AS kappa
            FROM m, e
        """,
        # population covariance matrix of the embedding space, long form
        "q_embedding_cov": """
            WITH u AS (
              SELECT vec_id, unnest(CAST(embedding AS DOUBLE[])) AS v,
                     generate_subscripts(embedding, 1) AS dim
              FROM embeddings
            )
            SELECT CAST(a.dim AS BIGINT) AS i, CAST(b.dim AS BIGINT) AS j,
                   ROUND(covar_pop(a.v, b.v), 6) AS cov
            FROM u a JOIN u b USING (vec_id)
            GROUP BY a.dim, b.dim
        """,
        # per-group Pearson r (sample corr; zero-variance → NULL)
        "q_grouped_corr": """
            SELECT l_returnflag,
                   ROUND(corr(l_quantity, l_extendedprice), 6) AS r
            FROM lineitem GROUP BY l_returnflag
        """,
        # per-label mean embedding, long form (1-based dim)
        "q_label_centroids": """
            WITH u AS (
              SELECT label, unnest(CAST(embedding AS DOUBLE[])) AS v,
                     generate_subscripts(embedding, 1) AS dim
              FROM embeddings
            )
            SELECT CAST(label AS BIGINT) AS label, CAST(dim AS BIGINT) AS dim,
                   ROUND(AVG(v), 6) AS c
            FROM u GROUP BY label, dim
        """,
        # adjacent-word PMI: p(x,y) over bigram events, p(x) over tokens
        "q_pmi_bigrams": """
            WITH toks AS (
              SELECT doc_id,
                     unnest(regexp_extract_all(text, '\\S+')) AS w,
                     generate_subscripts(regexp_extract_all(text, '\\S+'), 1)
                       AS pos
              FROM documents
            ), bg AS (
              SELECT a.w AS w1, b.w AS w2 FROM toks a
              JOIN toks b ON a.doc_id = b.doc_id AND b.pos = a.pos + 1
            ), bc AS (
              SELECT w1, w2, COUNT(*) AS c FROM bg GROUP BY w1, w2
            ), uc AS (
              SELECT w AS wd, COUNT(*) AS cu FROM toks GROUP BY w
            ), tot AS (
              SELECT (SELECT COUNT(*) FROM toks) AS n,
                     (SELECT COUNT(*) FROM bg) AS m
            )
            SELECT bc.w1, bc.w2, bc.c,
                   ROUND(LN(bc.c * n * n / (m * u1.cu * u2.cu)), 6) AS pmi
            FROM bc, tot, uc u1, uc u2
            WHERE u1.wd = bc.w1 AND u2.wd = bc.w2 AND bc.c >= 5
        """,
        # \S+ tokens, distinct (term, doc), ascending comma-joined postings
        "q_inverted_index": """
            WITH w AS (
              SELECT DISTINCT doc_id,
                     unnest(regexp_extract_all(text, '\\S+')) AS term
              FROM documents
            )
            SELECT term, COUNT(*) AS df,
                   STRING_AGG(CAST(doc_id AS VARCHAR), ','
                              ORDER BY doc_id) AS postings
            FROM w GROUP BY term HAVING COUNT(*) >= 2
        """,
        # exact-5-per-source sample by md5-of-key order (deterministic
        # distributed reservoir)
        "q_group_sample": """
            SELECT doc_id, source FROM documents
            QUALIFY ROW_NUMBER() OVER (
              PARTITION BY source
              ORDER BY md5_number_lower(CAST(doc_id AS VARCHAR)), doc_id
            ) <= 5
        """,
        # population std; zero-variance groups null out
        "q_group_zscore": """
            SELECT doc_id,
                   ROUND((n_chars - AVG(n_chars) OVER (PARTITION BY source))
                         / NULLIF(STDDEV_POP(n_chars) OVER (PARTITION BY source), 0),
                         6) AS z
            FROM documents
        """,
        # strict ordered funnel with earliest-completion reach times
        "q_funnel": """
            WITH s0 AS (
              SELECT user_id, MIN(ts) AS t FROM events
              WHERE event_type = 'view' GROUP BY user_id
            ), s1 AS (
              SELECT e.user_id, MIN(e.ts) AS t FROM events e
              JOIN s0 USING (user_id)
              WHERE e.event_type = 'click' AND e.ts > s0.t GROUP BY e.user_id
            ), s2 AS (
              SELECT e.user_id, MIN(e.ts) AS t FROM events e
              JOIN s1 USING (user_id)
              WHERE e.event_type = 'purchase' AND e.ts > s1.t GROUP BY e.user_id
            )
            SELECT * FROM (
              SELECT CAST(0 AS BIGINT) AS stage_idx, 'view' AS stage,
                     COUNT(*) AS n_users FROM s0
              UNION ALL
              SELECT 1, 'click', COUNT(*) FROM s1
              UNION ALL
              SELECT 2, 'purchase', COUNT(*) FROM s2)
        """,
        "q_new_users": """
            WITH f AS (
              SELECT user_id, MIN(ts) AS fts FROM events GROUP BY user_id
            ), d AS (
              SELECT date_trunc('day', fts) AS day,
                     COUNT(*) AS new_users FROM f GROUP BY day
            )
            SELECT day, new_users,
                   CAST(SUM(new_users) OVER (ORDER BY day) AS BIGINT)
                     AS cum_users
            FROM d
        """,
        "q_sample_docs": """
            SELECT doc_id, source FROM documents
            WHERE md5_number_lower(CAST(doc_id AS VARCHAR)) % 65536
                  < 16384  -- int(0.25 * 65536), truncated exactly as the engine does
        """,
        "q_chunk_docs": r"""
            WITH d AS (
              SELECT doc_id, regexp_split_to_array(trim(text), '\s+') AS toks,
                     CASE WHEN trim(text) = '' THEN 0
                          ELSE len(regexp_split_to_array(trim(text), '\s+')) END AS n
              FROM documents WHERE doc_id < 200
            ), starts AS (
              SELECT doc_id, toks, n,
                     unnest(generate_series(0,
                        CAST(FLOOR((GREATEST(n - 16, 1) - 1) / 48.0) AS BIGINT) * 48, 48)) AS start
              FROM d
            )
            SELECT doc_id, CAST(start / 48 AS BIGINT) AS chunk_id,
                   array_to_string(toks[start + 1 : start + 64], ' ') AS chunk_text,
                   LEAST(n - start, 64) AS n_chunk_tokens
            FROM starts
        """,
        # same chunk CTE as q_chunk_docs, grouped by chunk text
        "q_chunk_dedup": r"""
            WITH d AS (
              SELECT doc_id, regexp_split_to_array(trim(text), '\s+') AS toks,
                     CASE WHEN trim(text) = '' THEN 0
                          ELSE len(regexp_split_to_array(trim(text), '\s+')) END AS n
              FROM documents WHERE doc_id < 200
            ), starts AS (
              SELECT doc_id, toks, n,
                     unnest(generate_series(0,
                        CAST(FLOOR((GREATEST(n - 16, 1) - 1) / 48.0) AS BIGINT) * 48, 48)) AS start
              FROM d
            ), c AS (
              SELECT doc_id * 1048576 + CAST(start / 48 AS BIGINT) AS cid,
                     array_to_string(toks[start + 1 : start + 64], ' ') AS chunk_text
              FROM starts
            )
            SELECT MIN(cid) AS cid,
                   CAST(COUNT(*) AS BIGINT) AS n_dupes,
                   chunk_text
            FROM c GROUP BY chunk_text
        """,
        "q_word_topk": """
            WITH w AS (
              SELECT unnest(regexp_extract_all(lower(text), '[a-z0-9_]+')) AS word
              FROM documents
            )
            SELECT word, COUNT(*) AS n_total
            FROM w GROUP BY word
            ORDER BY n_total DESC, word
            LIMIT 20
        """,
        # nucleus (top-p) vocabulary: minimal (count desc, word asc)
        # prefix covering >= 9/10 of tokens; integer coverage test
        "q_nucleus_vocab": """
            WITH w AS (
              SELECT unnest(regexp_extract_all(lower(text), '[a-z0-9_]+')) AS word
              FROM documents
            ), c AS (
              SELECT word, CAST(COUNT(*) AS BIGINT) AS n
              FROM w GROUP BY word
            ), t AS (
              SELECT CAST(SUM(n) AS BIGINT) AS total FROM c
            ), s AS (
              SELECT word, n,
                     CAST(SUM(n) OVER (
                       ORDER BY n DESC, word
                       ROWS UNBOUNDED PRECEDING) AS BIGINT) AS cum
              FROM c
            )
            SELECT word, n, cum
            FROM s, t WHERE 10 * (cum - n) < 9 * total
        """,
        "q_hll_users": """
            WITH h AS (
              SELECT md5_number_lower(CAST(user_id AS VARCHAR)) AS hv FROM events
            ), r AS (
              SELECT CAST(hv >> 58 AS BIGINT) AS reg,
                     CAST(CASE WHEN (hv & ((1::UBIGINT << 58) - 1)) = 0 THEN 59
                          ELSE 58 - length(bin(hv & ((1::UBIGINT << 58) - 1))) + 1
                          END AS BIGINT) AS rho
              FROM h
            )
            SELECT reg, MAX(rho) AS rho_max FROM r GROUP BY reg
        """,
        # grouped HLL registers: approximate distinct users per type
        "q_hll_by_type": """
            WITH h AS (
              SELECT event_type,
                     md5_number_lower(CAST(user_id AS VARCHAR)) AS hv
              FROM events
            ), r AS (
              SELECT event_type, CAST(hv >> 58 AS BIGINT) AS reg,
                     CAST(CASE WHEN (hv & ((1::UBIGINT << 58) - 1)) = 0 THEN 59
                          ELSE 58 - length(bin(hv & ((1::UBIGINT << 58) - 1))) + 1
                          END AS BIGINT) AS rho
              FROM h
            )
            SELECT event_type, reg, MAX(rho) AS rho_max
            FROM r GROUP BY event_type, reg
        """,
        # top-3 event types per day (count desc, type asc tie-break)
        "q_trending": """
            WITH c AS (
              SELECT date_trunc('day', ts) AS day, event_type,
                     COUNT(*) AS n
              FROM events GROUP BY day, event_type
            )
            SELECT day, event_type, n, CAST(rk AS BIGINT) AS rank FROM (
              SELECT *, ROW_NUMBER() OVER (PARTITION BY day
                        ORDER BY n DESC, event_type) AS rk
              FROM c) WHERE rk <= 3
        """,
        # weekly retention cohorts (Monday-start weeks both sides)
        "q_retention": """
            WITH f AS (
              SELECT user_id, MIN(ts) AS fts FROM events GROUP BY user_id
            ), c AS (
              SELECT user_id, date_trunc('week', fts) AS cohort FROM f
            ), a AS (
              SELECT DISTINCT user_id, date_trunc('week', ts) AS week
              FROM events
            )
            SELECT c.cohort,
                   CAST(date_diff('day', c.cohort, a.week) // 7 AS BIGINT)
                     AS week_offset,
                   COUNT(*) AS n_active
            FROM a JOIN c USING (user_id)
            GROUP BY c.cohort, week_offset
        """,
        # changelog compaction: latest event per user, deterministic
        # (ts DESC, event_id ASC) keep rule
        "q_latest_event": """
            SELECT user_id, event_id, ts, event_type FROM events
            QUALIFY ROW_NUMBER() OVER (PARTITION BY user_id
                                       ORDER BY ts DESC, event_id) = 1
        """,
        # per-source equi-width histogram registers, per-group [min,max]
        # bounds; same left-to-right bin expression as q_hist_value
        "q_hist_by_source": """
            WITH mm AS (
              SELECT source, CAST(MIN(n_chars) AS DOUBLE) AS lo,
                     CASE WHEN MAX(n_chars) <= MIN(n_chars)
                          THEN CAST(MIN(n_chars) AS DOUBLE) + 1
                          ELSE CAST(MAX(n_chars) AS DOUBLE) END AS hi
              FROM documents GROUP BY source
            )
            SELECT d.source,
                   LEAST(GREATEST(CAST(FLOOR((d.n_chars - lo) * 16
                                              / (hi - lo)) AS BIGINT),
                                  0), 15) AS bin,
                   COUNT(*) AS n
            FROM documents d JOIN mm USING (source)
            GROUP BY d.source, bin
        """,
        # grouped CMS registers: same row-salted cell hash, per type
        "q_cms_by_type": """
            WITH h AS (
              SELECT event_type, d.r AS r,
                     CAST(md5_number_lower(CAST(d.r AS VARCHAR) || '|' ||
                          CAST(user_id AS VARCHAR)) % 256 AS BIGINT) AS cell
              FROM events CROSS JOIN (SELECT unnest(range(4)) AS r) d
            )
            SELECT event_type, CAST(r AS BIGINT) AS r, cell,
                   COUNT(*) AS n
            FROM h GROUP BY event_type, r, cell
        """,
        # same row-salted md5 cell hash as sketch.cms_partials
        "q_cms_users": """
            WITH h AS (
              SELECT d.r AS r,
                     CAST(md5_number_lower(CAST(d.r AS VARCHAR) || '|' ||
                          CAST(user_id AS VARCHAR)) % 1024 AS BIGINT) AS cell
              FROM events CROSS JOIN (SELECT unnest(range(4)) AS r) d
            )
            SELECT CAST(r AS BIGINT) AS r, cell, COUNT(*) AS n
            FROM h GROUP BY r, cell
        """,
        # equi-width histogram registers; same left-to-right float
        # expression ((v-lo)*bins)/(hi-lo) as the engine's binify
        "q_hist_value": """
            WITH mm AS (SELECT MIN(value) AS lo, MAX(value) AS hi FROM events)
            SELECT LEAST(GREATEST(CAST(FLOOR((value - lo) * 64 / (hi - lo))
                                       AS BIGINT), 0), 63) AS bin,
                   COUNT(*) AS n
            FROM events, mm GROUP BY 1
        """,
        # snapshot B is derived from A with the same integer-modulus
        # rules on both sides; md5 is the change identity
        "q_snapshot_diff": r"""
            WITH a AS (
                SELECT doc_id, source, md5(text) AS fp FROM documents),
            b AS (
                SELECT doc_id, source,
                       md5(CASE WHEN doc_id % 7 = 0 THEN text || ' v2'
                                ELSE text END) AS fp
                FROM documents WHERE doc_id % 10 != 0
                UNION ALL
                SELECT doc_id + 2000000, source, md5(CASE WHEN doc_id % 7 = 0
                           THEN text || ' v2' ELSE text END)
                FROM documents WHERE doc_id % 10 != 0 AND doc_id % 37 = 0),
            j AS (
                SELECT COALESCE(a.source, b.source) AS source,
                       a.fp AS fa, b.fp AS fb
                FROM a FULL OUTER JOIN b ON a.doc_id = b.doc_id)
            SELECT source,
                   CAST(COUNT(*) FILTER (WHERE fa IS NULL) AS BIGINT)
                       AS n_added,
                   CAST(COUNT(*) FILTER (WHERE fb IS NULL) AS BIGINT)
                       AS n_removed,
                   CAST(COUNT(*) FILTER (WHERE fa IS NOT NULL
                        AND fb IS NOT NULL AND fa != fb) AS BIGINT)
                       AS n_changed,
                   CAST(COUNT(*) FILTER (WHERE fa = fb) AS BIGINT)
                       AS n_unchanged
            FROM j GROUP BY source
        """,
        # arrival order = md5(event_id) on BOTH sides (the fixture is
        # time-ordered; the deterministic scramble makes the audit
        # non-trivial); lateness compares exact integer µs
        "q_late_events": r"""
            WITH e AS (
                SELECT user_id, ts,
                       md5(CAST(event_id AS VARCHAR)) AS arrival
                FROM events),
            w AS (
                SELECT user_id, ts,
                       MAX(ts) OVER (PARTITION BY user_id ORDER BY arrival
                           ROWS BETWEEN UNBOUNDED PRECEDING
                           AND 1 PRECEDING) AS pm
                FROM e)
            SELECT user_id,
                   CAST(COUNT(*) AS BIGINT) AS n_events,
                   CAST(COUNT(*) FILTER (WHERE ts < pm) AS BIGINT) AS n_late,
                   CAST(COALESCE(MAX(CASE WHEN ts < pm
                        THEN epoch_us(pm) - epoch_us(ts) END), 0) AS BIGINT)
                       AS max_late_us
            FROM w GROUP BY user_id
        """,
        # floor(log2(n)) via length(bin(n))-1 — pure integer arithmetic
        # on both sides (the engine uses frexp), no float boundary risk
        "q_length_buckets": r"""
            WITH t AS (
                SELECT CAST(CASE WHEN trim(text) = '' THEN 0
                            ELSE len(regexp_split_to_array(trim(text), '\s+'))
                            END AS BIGINT) AS n_tokens
                FROM documents)
            SELECT CAST(length(bin(n_tokens)) - 1 AS BIGINT) AS bucket,
                   CAST(COUNT(*) AS BIGINT) AS n_docs,
                   CAST(SUM(n_tokens) AS BIGINT) AS sum_tokens,
                   MIN(n_tokens) AS min_tokens,
                   MAX(n_tokens) AS max_tokens
            FROM t WHERE n_tokens >= 1
            GROUP BY 1
        """,
        "q_token_stats": r"""
            SELECT doc_id,
                   CAST(length(text) AS DOUBLE) AS n_chars_f,
                   CAST(CASE WHEN trim(text) = '' THEN 0
                             ELSE len(regexp_split_to_array(trim(text), '\s+')) END AS BIGINT) AS n_tokens,
                   CAST(length(regexp_replace(text, '\s', '', 'g')) AS DOUBLE)
                     / GREATEST(CASE WHEN trim(text) = '' THEN 0.0
                                     ELSE CAST(len(regexp_split_to_array(trim(text), '\s+')) AS DOUBLE) END, 1.0) AS avg_token_len,
                   CAST(length(regexp_replace(text, '[^.,!?;:]', '', 'g')) AS DOUBLE)
                     / GREATEST(CAST(length(text) AS DOUBLE), 1.0) AS punct_ratio,
                   CAST(length(regexp_replace(text, '[^0-9]', '', 'g')) AS DOUBLE)
                     / GREATEST(CAST(length(text) AS DOUBLE), 1.0) AS digit_ratio
            FROM documents
        """,
        "q_fingerprint": """
            SELECT doc_id, md5(text) AS md5 FROM documents
        """,
        # same RE2 pattern as textstats.BPE_TOKEN_RE ('' = escaped quote)
        "q_bpe_tokens": r"""
            SELECT doc_id,
                   CAST(len(regexp_extract_all(text,
                        '''(?:s|t|re|ve|m|ll|d)| ?[a-zA-Z]+| ?[0-9]+| ?[^a-zA-Z0-9\s]+|\s+'
                   )) AS BIGINT) AS n_bpe_tokens
            FROM documents
        """,
        "q_ann_topk": _ANN_TOPK_SQL,
        # IVF at full probe (nprobe = n_cells) scans every cell → exact
        # top-k → shares the brute-force oracle; approximate settings
        # are recall-gated in pytest instead
        "q_ivf_topk": _ANN_TOPK_SQL,
        "q_join_shuffle": """
            SELECT o_orderpriority,
                   CAST(SUM(CAST(FLOOR(l_extendedprice * (1 - l_discount) * 10000.0 + 0.5) AS BIGINT)) AS DOUBLE) / 10000.0 AS revenue,
                   COUNT(*) AS n_items
            FROM lineitem JOIN orders ON l_orderkey = o_orderkey
            GROUP BY o_orderpriority
        """,
        # word hash = md5_number_lower = the engine's _md5_lower64 (last 8
        # digest bytes, little-endian) — bit-identical simhash
        "q_simhash": r"""
            WITH w AS (
              SELECT doc_id, unnest(regexp_split_to_array(trim(text), '\s+')) AS wd
              FROM documents
            ), h AS (SELECT doc_id, md5_number_lower(wd) AS hv FROM w WHERE wd <> ''),
            bits AS (
              SELECT doc_id, b.b AS bit,
                     SUM(CASE WHEN (hv >> b.b) & 1 = 1 THEN 1 ELSE -1 END) AS acc
              FROM h CROSS JOIN (SELECT unnest(range(64)) AS b) b
              GROUP BY doc_id, b.b
            ), agg AS (
              SELECT doc_id,
                     SUM(CASE WHEN acc > 0 THEN CAST(1 AS UBIGINT) << bit ELSE 0 END) AS s
              FROM bits GROUP BY doc_id
            )
            SELECT d.doc_id,
                   CAST(CASE WHEN COALESCE(agg.s, 0) >= 9223372036854775808
                             THEN CAST(COALESCE(agg.s, 0) AS HUGEINT) - 18446744073709551616
                             ELSE CAST(COALESCE(agg.s, 0) AS HUGEINT) END AS BIGINT) AS simhash
            FROM documents d LEFT JOIN agg USING (doc_id)
        """,
        # full signature replay (same md5 shingle hash + seeded permutation
        # constants), pairs sharing >=1 exact band, est = lane-match
        # fraction (exact k/128 double — no rounding on either side)
        "q_minhash_pairs": _minhash_pairs_sql,
        # incremental near-dup ingestion: same signature/banding CTE,
        # but the pair join is cross-side (odd doc_ids = arrivals,
        # even = persisted index) instead of id_a < id_b
        "q_incremental_minhash": f"""
            SELECT id_a AS doc_id, id_b AS dup_of, jaccard_est
            FROM ({_minhash_pairs_from(
                pair_cond="a.doc_id % 2 = 1 AND b.doc_id % 2 = 0")})
        """,
        # hamming <= h implies a shared band over h+1 bands (pigeonhole),
        # so the engine's LSH banding is EXACT for this predicate and the
        # all-pairs SQL below is its oracle
        "q_simhash_pairs": r"""
            WITH w AS (
              SELECT doc_id, unnest(regexp_split_to_array(trim(text), '\s+')) AS wd
              FROM documents
            ), h AS (SELECT doc_id, md5_number_lower(wd) AS hv FROM w WHERE wd <> ''),
            bits AS (
              SELECT doc_id, b.b AS bit,
                     SUM(CASE WHEN (hv >> b.b) & 1 = 1 THEN 1 ELSE -1 END) AS acc
              FROM h CROSS JOIN (SELECT unnest(range(64)) AS b) b
              GROUP BY doc_id, b.b
            ), agg AS (
              SELECT doc_id,
                     SUM(CASE WHEN acc > 0 THEN CAST(1 AS UBIGINT) << bit ELSE 0 END) AS s
              FROM bits GROUP BY doc_id
            ), sig AS (
              SELECT d.doc_id, CAST(COALESCE(agg.s, 0) AS UBIGINT) AS s
              FROM documents d LEFT JOIN agg USING (doc_id)
            )
            SELECT a.doc_id AS id_a, b.doc_id AS id_b,
                   bit_count(xor(a.s, b.s)) AS hamming
            FROM sig a JOIN sig b ON a.doc_id < b.doc_id
            WHERE bit_count(xor(a.s, b.s)) <= 3
        """,
        # smooth idf = ln((N+1)/(df+1)) + 1; both sides round the score
        # to 6 dp BEFORE the (score desc, term asc) tie-broken ranking
        "q_tfidf": r"""
            WITH w AS (
              SELECT doc_id, unnest(regexp_extract_all(text, '\S+')) AS wd
              FROM documents
            ), tf AS (
              SELECT doc_id, wd, COUNT(*) AS tf FROM w GROUP BY doc_id, wd
            ), df AS (
              SELECT wd, COUNT(DISTINCT doc_id) AS df FROM w GROUP BY wd
            ), n AS (SELECT COUNT(*) AS n FROM documents),
            s AS (
              SELECT tf.doc_id, tf.wd,
                     ROUND(tf.tf * (ln((n.n + 1.0) / (df.df + 1.0)) + 1.0), 6) AS score
              FROM tf JOIN df USING (wd) CROSS JOIN n
            )
            SELECT doc_id, wd AS top_term, score FROM (
              SELECT doc_id, wd, score,
                     ROW_NUMBER() OVER (PARTITION BY doc_id
                                        ORDER BY score DESC, wd) AS rn
              FROM s) WHERE rn = 1
        """,
        # true JSON parse on the oracle side vs RE2 extraction engine-side
        "q_json_extract": """
            SELECT event_type,
                   CAST(SUM(CAST(json_extract(props, '$.k') AS BIGINT)) AS BIGINT) AS sum_k,
                   MAX(CAST(json_extract(props, '$.k') AS BIGINT)) AS max_k,
                   COUNT(*) AS n
            FROM events GROUP BY event_type
        """,
        # concat-and-chunk packing layout: global exclusive prefix sum
        # of \S+ token counts in doc_id order, spans cut at 512
        "q_pack_sequences": r"""
            WITH t AS (
              SELECT doc_id,
                     CAST(len(regexp_extract_all(text, '\S+')) AS BIGINT) AS n_tokens
              FROM documents
            ), p AS (
              SELECT doc_id, n_tokens,
                     CAST(COALESCE(SUM(n_tokens) OVER (ORDER BY doc_id
                       ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS BIGINT) AS tok_start
              FROM t
            )
            SELECT doc_id, n_tokens, tok_start,
                   CAST(tok_start + n_tokens AS BIGINT) AS tok_end,
                   CAST(tok_start // 512 AS BIGINT) AS pack_first,
                   CAST(CASE WHEN n_tokens > 0 THEN (tok_start + n_tokens - 1) // 512
                        ELSE tok_start // 512 END AS BIGINT) AS pack_last,
                   CAST(CASE WHEN n_tokens > 0
                        THEN (tok_start + n_tokens - 1) // 512 - tok_start // 512 + 1
                        ELSE 0 END AS BIGINT) AS n_packs
            FROM p
        """,
        # word 4-gram overlap vs the 10%-hash-sampled eval split; the
        # engine joins on md5-low-64 gram hashes = md5_number_lower, so
        # counting DISTINCT grams == counting distinct hashes
        "q_decontaminate": r"""
            WITH w AS (
              SELECT doc_id, regexp_extract_all(text, '\S+') AS ws FROM documents
            ), g AS (
              SELECT DISTINCT doc_id,
                     unnest([ws[i] || ' ' || ws[i+1] || ' ' || ws[i+2] || ' ' || ws[i+3]
                             FOR i IN range(1, len(ws) - 2)]) AS g
              FROM w
            ), ev AS (
              SELECT doc_id FROM documents
              WHERE md5_number_lower(CAST(doc_id AS VARCHAR)) % 65536
                    < 6553  -- int(0.10 * 65536): Python truncates, CAST would round to 6554
            ), eg AS (SELECT DISTINCT g.g FROM g JOIN ev USING (doc_id))
            SELECT g.doc_id, COUNT(*) AS n_shared
            FROM g JOIN eg USING (g)
            WHERE g.doc_id NOT IN (SELECT doc_id FROM ev)
            GROUP BY g.doc_id
        """,
        # Gopher (Rae et al. 2021 §A1.1) / C4 repetition filters; words
        # are \S+ runs and lines are chr(10) splits on BOTH sides
        "q_repetition": r"""
            WITH l AS (
              SELECT doc_id, unnest(string_split(text, chr(10))) AS line FROM documents
            ), lc AS (
              SELECT doc_id, line, COUNT(*) AS c, length(line) AS len
              FROM l GROUP BY doc_id, line
            ), lstat AS (
              SELECT doc_id,
                     CAST(SUM(c) AS BIGINT) AS n_lines,
                     1.0 - CAST(COUNT(*) AS DOUBLE) / SUM(c) AS dup_line_frac,
                     CAST(SUM(CASE WHEN c > 1 THEN len * c ELSE 0 END) AS DOUBLE)
                       / GREATEST(SUM(len * c), 1) AS dup_line_char_frac
              FROM lc GROUP BY doc_id
            ), w AS (
              SELECT doc_id, regexp_extract_all(text, '\S+') AS ws FROM documents
            ), g2 AS (
              SELECT doc_id,
                     unnest([ws[i] || ' ' || ws[i+1] FOR i IN range(1, len(ws))]) AS g
              FROM w
            ), g2c AS (SELECT doc_id, g, COUNT(*) AS c FROM g2 GROUP BY doc_id, g),
            g2s AS (SELECT doc_id, CAST(MAX(c) AS DOUBLE) / SUM(c) AS top_bigram_frac
                    FROM g2c GROUP BY doc_id),
            g3 AS (
              SELECT doc_id,
                     unnest([ws[i] || ' ' || ws[i+1] || ' ' || ws[i+2]
                             FOR i IN range(1, len(ws) - 1)]) AS g
              FROM w
            ), g3c AS (SELECT doc_id, g, COUNT(*) AS c FROM g3 GROUP BY doc_id, g),
            g3s AS (SELECT doc_id,
                           CAST(SUM(CASE WHEN c > 1 THEN c ELSE 0 END) AS DOUBLE)
                             / SUM(c) AS dup_trigram_frac
                    FROM g3c GROUP BY doc_id)
            SELECT d.doc_id, lstat.n_lines,
                   ROUND(COALESCE(dup_line_frac, 0.0), 6) AS dup_line_frac,
                   ROUND(COALESCE(dup_line_char_frac, 0.0), 6) AS dup_line_char_frac,
                   ROUND(COALESCE(top_bigram_frac, 0.0), 6) AS top_bigram_frac,
                   ROUND(COALESCE(dup_trigram_frac, 0.0), 6) AS dup_trigram_frac,
                   (COALESCE(dup_line_frac, 0.0) <= 0.30
                    AND COALESCE(dup_line_char_frac, 0.0) <= 0.20
                    AND COALESCE(top_bigram_frac, 0.0) <= 0.20
                    AND COALESCE(dup_trigram_frac, 0.0) <= 0.18) AS keep_gopher
            FROM documents d
            LEFT JOIN lstat USING (doc_id) LEFT JOIN g2s USING (doc_id)
            LEFT JOIN g3s USING (doc_id)
        """,
        "q_text_quality": f"""
            WITH toks AS (
              SELECT doc_id, text,
                     regexp_extract_all(lower(text), '{_WORD_CLASS}') AS ws
              FROM documents
            ), agg AS (
              SELECT doc_id, text,
                     CAST(GREATEST(len(ws), 1) AS DOUBLE) AS n,
                     CAST(len(list_filter(ws, w -> list_contains({all_stop}, w))) AS DOUBLE) AS stop
              FROM toks
            )
            SELECT doc_id,
                   stop / n AS stopword_ratio,
                   ROUND(0.6 * (LEAST(GREATEST(CAST(length(text) AS DOUBLE) / 200.0, 0), 1)
                                * LEAST(GREATEST((4000.0 - CAST(length(text) AS DOUBLE)) / 2000.0, 0), 1))
                         + 0.4 * (stop / n), 6) AS quality_score
            FROM agg
        """,
        "q_lang_id": f"""
            WITH toks AS (
              SELECT doc_id, lang, text,
                     list_distinct(regexp_extract_all(lower(text), '{_WORD_CLASS}')) AS ws
              FROM documents
            ), cnt AS (
              SELECT doc_id, lang, text,
                len(list_filter(ws, w -> list_contains({lang_lists["en"]}, w))) AS n_en,
                len(list_filter(ws, w -> list_contains({lang_lists["de"]}, w))) AS n_de,
                len(list_filter(ws, w -> list_contains({lang_lists["fr"]}, w))) AS n_fr,
                len(list_filter(ws, w -> list_contains({lang_lists["es"]}, w))) AS n_es
              FROM toks
            )
            SELECT doc_id, lang,
                   CASE WHEN regexp_matches(text, '[一-鿿]') THEN 'zh'
                        WHEN n_en >= n_de AND n_en >= n_fr AND n_en >= n_es THEN 'en'
                        WHEN n_de >= n_fr AND n_de >= n_es THEN 'de'
                        WHEN n_fr >= n_es THEN 'fr'
                        ELSE 'es' END AS pred_lang
            FROM cnt
        """,
        "q_corpus_curation": f"""
            WITH dedup AS (
              SELECT MIN(doc_id) AS doc_id,
                     arg_min(source, doc_id) AS source, text
              FROM documents GROUP BY text
            ), toks AS (
              SELECT doc_id, source, text,
                     regexp_extract_all(lower(text), '{_WORD_CLASS}') AS ws
              FROM dedup
            ), scored AS (
              SELECT doc_id, source, text, ws,
                     ROUND(0.6 * (LEAST(GREATEST(CAST(length(text) AS DOUBLE) / 200.0, 0), 1)
                                  * LEAST(GREATEST((4000.0 - CAST(length(text) AS DOUBLE)) / 2000.0, 0), 1))
                           + 0.4 * (CAST(len(list_filter(ws, w -> list_contains({all_stop}, w))) AS DOUBLE)
                                    / CAST(GREATEST(len(ws), 1) AS DOUBLE)), 6) AS quality_score
              FROM toks
            ), pred AS (
              SELECT doc_id, source, text, quality_score,
                len(list_filter(list_distinct(ws), w -> list_contains({lang_lists["en"]}, w))) AS n_en,
                len(list_filter(list_distinct(ws), w -> list_contains({lang_lists["de"]}, w))) AS n_de,
                len(list_filter(list_distinct(ws), w -> list_contains({lang_lists["fr"]}, w))) AS n_fr,
                len(list_filter(list_distinct(ws), w -> list_contains({lang_lists["es"]}, w))) AS n_es
              FROM scored
            ), kept AS (
              SELECT source, text, quality_score
              FROM pred
              WHERE quality_score >= 0.3
                AND (CASE WHEN regexp_matches(text, '[一-鿿]') THEN 'zh'
                          WHEN n_en >= n_de AND n_en >= n_fr AND n_en >= n_es THEN 'en'
                          WHEN n_de >= n_fr AND n_de >= n_es THEN 'de'
                          WHEN n_fr >= n_es THEN 'fr'
                          ELSE 'es' END) = 'en'
            )
            SELECT source,
                   COUNT(*) AS n_docs,
                   CAST(SUM(CASE WHEN trim(text) = '' THEN 0
                            ELSE len(regexp_split_to_array(trim(text), '\\s+')) END) AS BIGINT) AS total_tokens,
                   CAST(SUM(CAST(FLOOR(quality_score * 1000000.0 + 0.5) AS BIGINT)) AS DOUBLE)
                     / 1000000.0 / COUNT(*) AS avg_quality
            FROM kept
            GROUP BY source
        """,
        "q_embedding_neardup": f"""
            WITH {_ALLV_CTE}
            SELECT id_a, id_b, ROUND(cos_raw, 6) AS cosine
            FROM ({_EMBED_PAIRS_SQL})
        """,
        # keep-first semantic dedup: drop every vector that appears as
        # the HIGHER id of a >=0.95-cosine pair (mirrors the engine's
        # anti-join on pairs.id_b exactly, including chains)
        "q_semantic_dedup": f"""
            WITH {_ALLV_CTE},
            pairs AS ({_EMBED_PAIRS_SQL})
            SELECT vec_id FROM allv
            WHERE vec_id NOT IN (SELECT id_b FROM pairs)
        """,
        "q_dedup_groups": f"""
            WITH RECURSIVE {_ALLV_CTE},
            pairs AS ({_EMBED_PAIRS_SQL}),
            edges AS (SELECT id_a AS s, id_b AS d FROM pairs
                      UNION ALL SELECT id_b, id_a FROM pairs),
            cc(node, comp) AS (
              SELECT DISTINCT s, s FROM edges
              UNION
              SELECT e.d, c.comp FROM cc c JOIN edges e ON e.s = c.node
            )
            SELECT node, MIN(comp) AS component FROM cc GROUP BY node
        """,
        # Heaps-law per-turn vocabulary novelty: tokens first seen at
        # each turn of the conversation
        "q_vocab_growth": f"""
            WITH {_TRANSCRIPTS_CTE},
            tok AS (
              SELECT conv_id, turn_idx, unnest(
                       regexp_extract_all(lower(text), '[a-z0-9_]+')) AS w
              FROM transcripts
            ),
            firsts AS (
              SELECT conv_id, w, MIN(turn_idx) AS turn_idx
              FROM tok GROUP BY conv_id, w
            ),
            newc AS (
              SELECT conv_id, turn_idx, COUNT(*) AS n_new
              FROM firsts GROUP BY conv_id, turn_idx
            )
            SELECT t.conv_id, t.turn_idx,
                   CAST(COALESCE(n.n_new, 0) AS BIGINT) AS n_new_tokens
            FROM transcripts t
            LEFT JOIN newc n ON n.conv_id = t.conv_id
                            AND n.turn_idx = t.turn_idx
        """,
        # busiest 5-minute bucket per user + buckets touched
        "q_peak_rate": """
            WITH b AS (
              SELECT user_id, epoch_us(ts) // 300000000 AS bucket,
                     COUNT(*) AS n
              FROM events GROUP BY user_id, bucket
            )
            SELECT user_id, CAST(MAX(n) AS BIGINT) AS peak_rate,
                   CAST(COUNT(*) AS BIGINT) AS n_buckets
            FROM b GROUP BY user_id
        """,
        # weak-supervision label propagation: component majority label
        # (ties to smallest) assigned to every member
        "q_label_propagate": f"""
            WITH RECURSIVE {_ALLV_CTE},
            pairs AS ({_EMBED_PAIRS_SQL}),
            edges AS (SELECT id_a AS s, id_b AS d FROM pairs
                      UNION ALL SELECT id_b, id_a FROM pairs),
            cc(node, comp) AS (
              SELECT DISTINCT s, s FROM edges
              UNION
              SELECT e.d, c.comp FROM cc c JOIN edges e ON e.s = c.node
            ),
            comp AS (SELECT node, MIN(comp) AS component FROM cc
                     GROUP BY node),
            lab AS (
              SELECT c.node, c.component, e.label
              FROM comp c JOIN embeddings e ON e.vec_id = c.node
            ),
            cnt AS (
              SELECT component, label, COUNT(*) AS n
              FROM lab GROUP BY component, label
            ),
            maj AS (
              SELECT component, label AS prop_label
              FROM (SELECT component, label,
                           row_number() OVER (PARTITION BY component
                                              ORDER BY n DESC, label)
                             AS rk
                    FROM cnt)
              WHERE rk = 1
            )
            SELECT l.node, l.component,
                   CAST(l.label AS INTEGER) AS label,
                   CAST(m.prop_label AS INTEGER) AS prop_label
            FROM lab l JOIN maj m ON m.component = l.component
        """,
        "q_ngram_jaccard": """
            WITH docs AS (
              SELECT doc_id, lower(text) AS s FROM documents
              WHERE doc_id < 100 AND length(text) >= 3
            ),
            grams AS (
              SELECT DISTINCT doc_id, substr(s, i, 3) AS g
              FROM (SELECT doc_id, s,
                           unnest(generate_series(1, length(s) - 2)) AS i
                    FROM docs)
            ),
            pairs AS (
              SELECT a.doc_id AS id_a, b.doc_id AS id_b
              FROM docs a JOIN docs b ON b.doc_id = a.doc_id + 1
              WHERE a.doc_id % 2 = 0
            ),
            inter AS (
              SELECT p.id_a, p.id_b, count(*) AS n_inter
              FROM pairs p
              JOIN grams ga ON ga.doc_id = p.id_a
              JOIN grams gb ON gb.doc_id = p.id_b AND gb.g = ga.g
              GROUP BY p.id_a, p.id_b
            ),
            sizes AS (SELECT doc_id, count(*) AS n FROM grams GROUP BY doc_id)
            SELECT p.id_a, p.id_b,
                   COALESCE(i.n_inter, 0) AS n_inter,
                   sa.n + sb.n - COALESCE(i.n_inter, 0) AS n_union,
                   CAST(COALESCE(i.n_inter, 0) AS DOUBLE)
                     / (sa.n + sb.n - COALESCE(i.n_inter, 0)) AS jaccard
            FROM pairs p
            LEFT JOIN inter i ON i.id_a = p.id_a AND i.id_b = p.id_b
            JOIN sizes sa ON sa.doc_id = p.id_a
            JOIN sizes sb ON sb.doc_id = p.id_b
        """,
        "q_decode_media": _decode_media_oracle(),
        # real-codec round trips: the engine synthesizes GENUINE BMP /
        # RIFF-WAVE containers from these published formulas, parses
        # the bytes back with the pure-numpy decoders, and must
        # reproduce the oracle's formula-only integers bit-exactly —
        # any header/padding/row-order/channel-order parse bug breaks
        # the hash (stages/codecs.py)
        "q_decode_bmp": """
            WITH dims AS (
              SELECT i.i AS media_id,
                     16 + (i.i % 8) * 4 AS w,
                     12 + (i.i % 5) * 4 AS h
              FROM (SELECT UNNEST(range(200)) AS i) i
            ), px AS (
              SELECT media_id, w, h, x.x AS x, y.y AS y
              FROM dims,
                   LATERAL (SELECT UNNEST(range(w)) AS x) x,
                   LATERAL (SELECT UNNEST(range(h)) AS y) y
            )
            SELECT CAST(media_id AS BIGINT) AS media_id,
                   CAST(w AS BIGINT) AS width,
                   CAST(h AS BIGINT) AS height,
                   CAST(SUM((3*x + 5*y + media_id) % 256) AS BIGINT)
                     AS sum_r,
                   CAST(SUM((7*x + 2*y + 2*media_id) % 256) AS BIGINT)
                     AS sum_g,
                   CAST(SUM((x + 11*y + 3*media_id) % 256) AS BIGINT)
                     AS sum_b
            FROM px GROUP BY media_id, w, h
        """,
        "q_decode_wav": """
            WITH spec AS (
              SELECT i.i AS media_id, 4000 + (i.i % 5) * 2000 AS n
              FROM (SELECT UNNEST(range(200)) AS i) i
            ), s AS (
              SELECT media_id, n,
                     ((31*media_id + 7*j.j) % 4001) - 2000 AS v
              FROM spec, LATERAL (SELECT UNNEST(range(n)) AS j) j
            )
            SELECT CAST(media_id AS BIGINT) AS media_id,
                   CAST(16000 AS BIGINT) AS sample_rate,
                   CAST(1 AS BIGINT) AS channels,
                   CAST(n AS BIGINT) AS n_samples,
                   CAST(n * 1000000 // 16000 AS BIGINT) AS duration_us,
                   CAST(SUM(v) AS BIGINT) AS sum_samples,
                   CAST(SUM(v*v) AS BIGINT) AS sum_squares,
                   CAST(MAX(ABS(v)) AS BIGINT) AS peak_abs
            FROM s GROUP BY media_id, n
        """,
        "q_pca_project": _pca_oracle(sf_dir),
        "q_compression": _compression_oracle(sf_dir),
        # --- round-4 operators ---
        "q_heavy_users": """
            WITH c AS (
              SELECT CAST(user_id AS VARCHAR) AS user_id,
                     CAST(COUNT(*) AS BIGINT) AS n
              FROM events GROUP BY user_id
            )
            SELECT user_id, n,
                   CAST(row_number() OVER (ORDER BY n DESC, user_id) AS BIGINT) AS rank
            FROM c ORDER BY n DESC, user_id LIMIT 20
        """,
        "q_mask_pii": r"""
            WITH planted AS (
              SELECT doc_id,
                     text ||
                     CASE WHEN doc_id % 5 = 0
                          THEN ' contact user' || CAST(doc_id AS VARCHAR) || '@example.com now'
                          ELSE '' END ||
                     CASE WHEN doc_id % 7 = 0
                          THEN ' call 555-123-' || CAST(1000 + doc_id % 9000 AS VARCHAR)
                          ELSE '' END AS t
              FROM documents
            ), e AS (
              SELECT doc_id,
                     CAST(len(regexp_extract_all(t, '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}')) AS BIGINT) AS n_emails,
                     regexp_replace(t, '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}', '<EMAIL>', 'g') AS m1
              FROM planted
            )
            SELECT doc_id,
                   regexp_replace(m1, '\d{3}-\d{3}-\d{4}', '<PHONE>', 'g') AS masked,
                   n_emails,
                   CAST(len(regexp_extract_all(m1, '\d{3}-\d{3}-\d{4}')) AS BIGINT) AS n_phones
            FROM e
        """,
        # same planting + patterns as q_mask_pii, rolled up per source
        "q_pii_rate": r"""
            WITH planted AS (
              SELECT doc_id, source,
                     text ||
                     CASE WHEN doc_id % 5 = 0
                          THEN ' contact user' || CAST(doc_id AS VARCHAR) || '@example.com now'
                          ELSE '' END ||
                     CASE WHEN doc_id % 7 = 0
                          THEN ' call 555-123-' || CAST(1000 + doc_id % 9000 AS VARCHAR)
                          ELSE '' END AS t
              FROM documents
            ), e AS (
              SELECT source,
                     CAST(len(regexp_extract_all(t, '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}')) AS BIGINT) AS n_emails,
                     CAST(len(regexp_extract_all(
                         regexp_replace(t, '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}', '<EMAIL>', 'g'),
                         '\d{3}-\d{3}-\d{4}')) AS BIGINT) AS n_phones
              FROM planted
            )
            SELECT source,
                   CAST(COUNT(*) AS BIGINT) AS n_docs,
                   CAST(COUNT(*) FILTER (WHERE n_emails > 0) AS BIGINT)
                       AS n_email_docs,
                   CAST(COUNT(*) FILTER (WHERE n_phones > 0) AS BIGINT)
                       AS n_phone_docs,
                   CAST(SUM(n_emails) AS BIGINT) AS n_emails,
                   CAST(SUM(n_phones) AS BIGINT) AS n_phones
            FROM e GROUP BY source
        """,
        "q_pseudonymize": """
            SELECT event_id,
                   substr(md5('s1:' || CAST(user_id AS VARCHAR)), 1, 16) AS user_id_pseudo
            FROM events WHERE event_type = 'purchase'
        """,
        "q_first_last": """
            WITH f AS (
              SELECT user_id, event_type AS first_event_type, value AS first_value
              FROM events
              QUALIFY row_number() OVER (PARTITION BY user_id ORDER BY ts, event_id) = 1
            ), l AS (
              SELECT user_id, event_type AS last_event_type, value AS last_value
              FROM events
              QUALIFY row_number() OVER (PARTITION BY user_id ORDER BY ts DESC, event_id DESC) = 1
            ), c AS (
              SELECT user_id, CAST(COUNT(*) AS BIGINT) AS n FROM events GROUP BY user_id
            )
            SELECT f.user_id, first_event_type, first_value,
                   last_event_type, last_value, n
            FROM f JOIN l USING (user_id) JOIN c USING (user_id)
        """,
        "q_weighted_sample": """
            SELECT doc_id, source, n_chars
            FROM documents
            WHERE md5_number_lower(CAST(doc_id AS VARCHAR))
                  < CAST(GREATEST(LEAST(n_chars, 1000), 0) AS UBIGINT)
                    * CAST(18014398509481984 AS UBIGINT)  -- 2^54
        """,
        "q_quality_filter": f"""
            WITH toks AS (
              SELECT doc_id, text,
                     regexp_extract_all(lower(text), '{_WORD_CLASS}') AS ws
              FROM documents
            ), agg AS (
              SELECT doc_id, text,
                     CAST(GREATEST(len(ws), 1) AS DOUBLE) AS n,
                     CAST(len(list_filter(ws, w -> list_contains({all_stop}, w))) AS DOUBLE) AS stop
              FROM toks
            ), q AS (
              SELECT doc_id,
                     ROUND(0.6 * (LEAST(GREATEST(CAST(length(text) AS DOUBLE) / 200.0, 0), 1)
                                  * LEAST(GREATEST((4000.0 - CAST(length(text) AS DOUBLE)) / 2000.0, 0), 1))
                           + 0.4 * (stop / n), 6) AS quality_score
              FROM agg
            ), r AS (
              SELECT doc_id,
                     ROUND(PERCENT_RANK() OVER (ORDER BY quality_score), 6) AS pr
              FROM q
            )
            SELECT doc_id, pr FROM r WHERE pr >= 0.25
        """,
        "q_heavy_terms": f"""
            WITH w AS (
              SELECT unnest(regexp_extract_all(lower(text), '{_WORD_CLASS}')) AS word
              FROM documents
            ), c AS (
              SELECT word, CAST(COUNT(*) AS BIGINT) AS n FROM w GROUP BY word
            )
            SELECT word, n,
                   CAST(row_number() OVER (ORDER BY n DESC, word) AS BIGINT) AS rank
            FROM c ORDER BY n DESC, word LIMIT 15
        """,
        "q_split_assign": f"""
            SELECT doc_id, source,
                   CASE WHEN md5_number_lower(CAST(doc_id AS VARCHAR)) % 65536
                             < {_cut_train} THEN 'train'
                        WHEN md5_number_lower(CAST(doc_id AS VARCHAR)) % 65536
                             < {_cut_val} THEN 'val'
                        ELSE 'test' END AS split
            FROM documents
        """,
        "q_dup_ngrams": r"""
            WITH w AS (
              SELECT doc_id, regexp_extract_all(text, '\S+') AS ws FROM documents
            ), g AS (
              SELECT DISTINCT doc_id,
                     unnest([ws[i] || ' ' || ws[i+1] || ' ' || ws[i+2]
                             || ' ' || ws[i+3] || ' ' || ws[i+4]
                             FOR i IN range(1, len(ws) - 3)]) AS g
              FROM w
            ), d AS (SELECT g, COUNT(*) AS nd FROM g GROUP BY g)
            SELECT doc_id, COUNT(*) AS n_grams,
                   CAST(SUM(CASE WHEN nd >= 2 THEN 1 ELSE 0 END) AS BIGINT) AS n_dup
            FROM g JOIN d USING (g) GROUP BY doc_id
        """,
        "q_corpus_stopwords": f"""
            WITH w AS (
              SELECT doc_id,
                     list_distinct(regexp_extract_all(lower(text), '{_WORD_CLASS}')) AS ws
              FROM documents
            ), u AS (
              SELECT doc_id, unnest(ws) AS word FROM w
            ), c AS (SELECT word, COUNT(*) AS df FROM u GROUP BY word)
            SELECT word, df FROM c
            WHERE df >= CAST(CEIL(0.5 * (SELECT COUNT(*) FROM documents)) AS BIGINT)
        """,
        # exact integer order statistics (2x median, lower p90) — the
        # all-BIGINT form; FLOOR(0.9*(n-1)) is the identical IEEE double
        # product on both sides, so the index always agrees
        "q_gap_quantiles": """
            WITH d AS (
              SELECT event_type,
                     date_diff('microsecond',
                               lag(ts) OVER (PARTITION BY user_id
                                             ORDER BY ts, event_id),
                               ts) AS gap_us
              FROM events
            ), s AS (
              SELECT event_type,
                     list_sort(list(gap_us)) AS v,
                     COUNT(gap_us) AS n
              FROM d WHERE gap_us IS NOT NULL GROUP BY event_type
            )
            SELECT event_type,
                   CAST(v[CAST((n - 1) // 2 AS BIGINT) + 1]
                        + v[CAST(n // 2 AS BIGINT) + 1] AS BIGINT)
                     AS median2_gap_us,
                   CAST(v[CAST(FLOOR(0.9 * (n - 1)) AS BIGINT) + 1] AS BIGINT)
                     AS p90lo_gap_us,
                   n
            FROM s
        """,
        # per-group winsorization: clamp to exact integer-cent [p05,p95]
        # lower order stats (FLOOR(p*(n-1)) is the same IEEE product
        # both sides)
        "q_winsorize": """
            WITH v AS (
              SELECT o_orderkey, o_orderpriority,
                     CAST(FLOOR(o_totalprice * 100.0 + 0.5) AS BIGINT) AS c
              FROM orders
            ), b AS (
              SELECT o_orderpriority, list_sort(list(c)) AS s,
                     COUNT(*) AS n
              FROM v GROUP BY o_orderpriority
            ), k AS (
              SELECT o_orderpriority,
                     s[CAST(FLOOR(0.05 * (n - 1)) AS BIGINT) + 1] AS lo,
                     s[CAST(FLOOR(0.95 * (n - 1)) AS BIGINT) + 1] AS hi
              FROM b
            )
            SELECT v.o_orderkey, v.o_orderpriority,
                   CAST(LEAST(GREATEST(v.c, k.lo), k.hi) AS BIGINT)
                     AS w_cents
            FROM v JOIN k USING (o_orderpriority)
        """,
        "q_mad_outliers": """
            WITH c AS (
              SELECT event_type, CAST(FLOOR(value*100.0 + 0.5) AS BIGINT) AS c
              FROM events WHERE value IS NOT NULL
            ), m AS (
              SELECT event_type, CAST(2*median(c) AS BIGINT) AS med2
              FROM c GROUP BY event_type
            ), d AS (
              SELECT c.event_type, ABS(2*c.c - m.med2) AS ad2
              FROM c JOIN m USING (event_type)
            ), md AS (
              SELECT event_type, CAST(2*median(ad2) AS BIGINT) AS mad2x
              FROM d GROUP BY event_type
            )
            SELECT m.event_type,
                   CAST(m.med2 AS DOUBLE)/200.0 AS med,
                   CAST(md.mad2x AS DOUBLE)/400.0 AS mad,
                   CAST(SUM(CASE WHEN 2*d.ad2 > 3*md.mad2x THEN 1 ELSE 0 END) AS BIGINT) AS n_outliers,
                   CAST(COUNT(*) AS BIGINT) AS n
            FROM d JOIN m USING (event_type) JOIN md USING (event_type)
            GROUP BY m.event_type, m.med2, md.mad2x
        """,
        "q_dedup_groups_exact": """
            WITH aug AS (
              SELECT doc_id, text FROM documents
              UNION ALL SELECT doc_id + 1000000, text FROM documents WHERE doc_id < 10
              UNION ALL SELECT doc_id + 2000000, text FROM documents WHERE doc_id < 10
              UNION ALL SELECT doc_id + 3000000, text FROM documents WHERE doc_id < 10
            ), g AS (
              SELECT doc_id, MIN(doc_id) OVER (PARTITION BY text) AS component,
                     COUNT(*) OVER (PARTITION BY text) AS n
              FROM aug
            )
            SELECT doc_id AS node, component FROM g WHERE n >= 2
        """,
        # split rule == q_split_assign's inlined truncating cutoffs;
        # content identity == md5_number_lower (engine _md5_lower64)
        "q_split_leakage": f"""
            WITH aug AS (
              SELECT doc_id, text FROM documents
              UNION ALL
              SELECT doc_id + 1000000, text FROM documents WHERE doc_id < 60
            ), s AS (
              SELECT md5_number_lower(text) AS h,
                     CASE WHEN md5_number_lower(CAST(doc_id AS VARCHAR)) % 65536
                               < {_cut_train} THEN 'train'
                          WHEN md5_number_lower(CAST(doc_id AS VARCHAR)) % 65536
                               < {_cut_val} THEN 'val'
                          ELSE 'test' END AS split
              FROM aug
            ), g AS (
              SELECT h,
                     SUM(CASE WHEN split = 'train' THEN 1 ELSE 0 END) AS n_train,
                     SUM(CASE WHEN split = 'val' THEN 1 ELSE 0 END) AS n_val,
                     SUM(CASE WHEN split = 'test' THEN 1 ELSE 0 END) AS n_test
              FROM s GROUP BY h
            )
            SELECT 'train-val' AS pair,
                   CAST(SUM(CASE WHEN n_train > 0 AND n_val > 0
                            THEN 1 ELSE 0 END) AS BIGINT) AS n_groups,
                   CAST(SUM(CASE WHEN n_train > 0 AND n_val > 0
                            THEN n_val ELSE 0 END) AS BIGINT) AS n_eval_docs
            FROM g
            UNION ALL
            SELECT 'train-test',
                   CAST(SUM(CASE WHEN n_train > 0 AND n_test > 0
                            THEN 1 ELSE 0 END) AS BIGINT),
                   CAST(SUM(CASE WHEN n_train > 0 AND n_test > 0
                            THEN n_test ELSE 0 END) AS BIGINT)
            FROM g
            UNION ALL
            SELECT 'val-test',
                   CAST(SUM(CASE WHEN n_val > 0 AND n_test > 0
                            THEN 1 ELSE 0 END) AS BIGINT),
                   CAST(SUM(CASE WHEN n_val > 0 AND n_test > 0
                            THEN n_test ELSE 0 END) AS BIGINT)
            FROM g
        """,
        # integer-µs order stats (the q_gap_quantiles doubling trick)
        "q_turn_latency": f"""
            WITH {_TRANSCRIPTS_CTE}, l AS (
              SELECT conv_id, role, ts,
                     lag(role) OVER w AS prole,
                     lag(ts) OVER w AS pts
              FROM transcripts
              WINDOW w AS (PARTITION BY conv_id ORDER BY turn_idx)
            ), d AS (
              SELECT conv_id,
                     date_diff('microsecond', pts, ts) AS gap_us
              FROM l WHERE role = 'assistant' AND prole = 'user'
            ), s AS (
              SELECT conv_id, list_sort(list(gap_us)) AS v,
                     COUNT(*) AS n
              FROM d GROUP BY conv_id
            )
            SELECT conv_id, CAST(n AS BIGINT) AS n_responses,
                   CAST(v[CAST((n - 1) // 2 AS BIGINT) + 1]
                        + v[CAST(n // 2 AS BIGINT) + 1] AS BIGINT)
                     AS median2_us,
                   CAST(v[n] AS BIGINT) AS max_us
            FROM s
        """,
        # near-dup contamination: MinHash candidate pairs (same CTE
        # chain as q_minhash_pairs) whose two docs land in different
        # holdout splits (same inlined cutoffs as q_split_assign)
        "q_neardup_leakage": f"""
            SELECT id_a, id_b, jaccard_est, split_a, split_b FROM (
              SELECT id_a, id_b, jaccard_est,
                     {_split_case('id_a')} AS split_a,
                     {_split_case('id_b')} AS split_b
              FROM ({_minhash_pairs_sql}) p
            ) WHERE split_a <> split_b
        """,
        "q_data_card": rf"""
            SELECT split, source, lang,
                   CAST(COUNT(*) AS BIGINT) AS n_docs,
                   CAST(SUM(length(text)) AS BIGINT) AS n_chars,
                   CAST(SUM(len(regexp_extract_all(text, '\S+'))) AS BIGINT)
                     AS n_words
            FROM (SELECT source, lang, text,
                         {_split_case('doc_id')} AS split
                  FROM documents)
            GROUP BY split, source, lang
        """,
        # tool-transition bigrams over the per-conversation tool-call
        # subsequence (non-tool turns skipped)
        "q_tool_chains": f"""
            WITH {_TRANSCRIPTS_CTE}, tc AS (
              SELECT conv_id, tool,
                     lead(tool) OVER (
                       PARTITION BY conv_id ORDER BY turn_idx) AS nxt
              FROM transcripts WHERE tool <> ''
            )
            SELECT tool AS tool_from, nxt AS tool_to,
                   CAST(COUNT(*) AS BIGINT) AS n
            FROM tc WHERE nxt IS NOT NULL
            GROUP BY tool, nxt
        """,
        "q_tool_error_rate": f"""
            WITH {_TRANSCRIPTS_CTE}, l AS (
              SELECT tool,
                     lead(role) OVER (PARTITION BY conv_id
                                      ORDER BY turn_idx) AS nrole
              FROM transcripts
            )
            SELECT tool, CAST(COUNT(*) AS BIGINT) AS n_calls,
                   CAST(SUM(CASE WHEN nrole = 'system' THEN 1 ELSE 0 END)
                        AS BIGINT) AS n_err_next
            FROM l WHERE tool <> '' GROUP BY tool
        """,
        # near-dup canonicalization: components over the MinHash pair
        # graph, keep the longest member (tie-break min doc_id)
        "q_neardup_canonical": f"""
            WITH RECURSIVE pairs AS (SELECT * FROM ({_minhash_pairs_sql})),
            edges AS (SELECT id_a AS s, id_b AS d FROM pairs
                      UNION ALL SELECT id_b, id_a FROM pairs),
            cc(node, comp) AS (
              SELECT DISTINCT s, s FROM edges
              UNION
              SELECT e.d, c.comp FROM cc c JOIN edges e ON e.s = c.node
            ),
            comps AS (SELECT node, MIN(comp) AS component FROM cc
                      GROUP BY node),
            scored AS (
              SELECT c.component, d.doc_id, d.n_chars,
                     row_number() OVER (PARTITION BY c.component
                                        ORDER BY d.n_chars DESC, d.doc_id)
                       AS rn,
                     COUNT(*) OVER (PARTITION BY c.component) AS n_members
              FROM comps c JOIN documents d ON d.doc_id = c.node
            )
            SELECT CAST(component AS BIGINT) AS component,
                   CAST(doc_id AS BIGINT) AS keep_id,
                   CAST(n_chars AS BIGINT) AS best_score,
                   CAST(n_members AS BIGINT) AS n_members
            FROM scored WHERE rn = 1
        """,
        # per-split embedding centroid cosine (lexicographic pairs)
        "q_split_drift": f"""
            WITH e AS (
              SELECT {_split_case('vec_id')} AS split,
                     unnest(CAST(embedding AS DOUBLE[])) AS v,
                     generate_subscripts(embedding, 1) AS dim
              FROM embeddings
            ),
            cent AS (SELECT split, dim, AVG(v) AS c FROM e
                     GROUP BY split, dim),
            cnt AS (SELECT {_split_case('vec_id')} AS split,
                           CAST(COUNT(*) AS BIGINT) AS n
                    FROM embeddings GROUP BY 1)
            SELECT a.split AS split_a, b.split AS split_b,
                   ca.n AS n_a, cb.n AS n_b,
                   ROUND(SUM(a.c * b.c)
                         / (sqrt(SUM(a.c * a.c)) * sqrt(SUM(b.c * b.c))),
                         6) AS cosine
            FROM cent a
            JOIN cent b ON b.dim = a.dim AND a.split < b.split
            JOIN cnt ca ON ca.split = a.split
            JOIN cnt cb ON cb.split = b.split
            GROUP BY a.split, b.split, ca.n, cb.n
        """,
        # linear-model doc scoring: seeded integer weight rule over
        # md5-hashed BoW buckets, logit = token-weight mean, sigmoid
        "q_score_docs": r"""
            WITH toks AS (
              SELECT doc_id,
                     unnest(regexp_extract_all(text, '\S+')) AS w
              FROM documents
            ),
            tw AS (
              SELECT doc_id,
                     ((CAST(md5_number_lower(w) % 64 AS BIGINT)
                       * 2654435761 + 1234) % 1000) / 499.5 - 1.0 AS wt
              FROM toks
            ),
            agg AS (SELECT doc_id, SUM(wt) AS s, COUNT(*) AS n
                    FROM tw GROUP BY doc_id)
            SELECT d.doc_id,
                   CAST(COALESCE(a.n, 0) AS BIGINT) AS n_tokens,
                   ROUND(1.0 / (1.0 + exp(-COALESCE(a.s, 0)
                         / GREATEST(COALESCE(a.n, 0), 1))), 6) AS score
            FROM documents d LEFT JOIN agg a ON a.doc_id = d.doc_id
        """,
        # incremental ingestion: arrivals (val+test) dedup among
        # themselves, then drop texts the train corpus already holds
        "q_incremental_dedup": f"""
            WITH lab AS (
              SELECT doc_id, text, {_split_case('doc_id')} AS split
              FROM documents
            ),
            existing AS (SELECT DISTINCT md5(text) AS fp FROM lab
                         WHERE split = 'train'),
            arrivals AS (SELECT doc_id, text, md5(text) AS fp FROM lab
                         WHERE split <> 'train'),
            fresh AS (SELECT * FROM arrivals
                      WHERE fp NOT IN (SELECT fp FROM existing))
            SELECT MIN(doc_id) AS doc_id,
                   CAST(COUNT(*) AS BIGINT) AS n_dupes, text
            FROM fresh GROUP BY text
        """,
        # mean conditional bigram NLL per doc; history count = global
        # unigram count (the same unnormalized shortcut the engine uses)
        "q_bigram_logprob": r"""
            WITH toks AS (
              SELECT doc_id, unnest(regexp_extract_all(text, '\S+')) AS w,
                     generate_subscripts(regexp_extract_all(text, '\S+'), 1)
                       AS i
              FROM documents
            ),
            uni AS (SELECT w, COUNT(*) AS cu FROM toks GROUP BY w),
            big AS (
              SELECT a.doc_id, a.w AS w1, b.w AS w2
              FROM toks a
              JOIN toks b ON b.doc_id = a.doc_id AND b.i = a.i + 1
            ),
            bc AS (SELECT w1, w2, COUNT(*) AS cb FROM big GROUP BY w1, w2),
            per AS (
              SELECT g.doc_id,
                     ln(CAST(bc.cb AS DOUBLE) / uni.cu) AS lp
              FROM big g
              JOIN bc ON bc.w1 = g.w1 AND bc.w2 = g.w2
              JOIN uni ON uni.w = g.w1
            )
            SELECT doc_id,
                   CAST(COUNT(*) + 1 AS BIGINT) AS n_tokens,
                   ROUND(-SUM(lp) / COUNT(*), 6) AS nll
            FROM per GROUP BY doc_id
        """,
        # per-conversation tool-usage Shannon entropy (nats)
        "q_tool_entropy": f"""
            WITH {_TRANSCRIPTS_CTE},
            c AS (
              SELECT conv_id, tool, CAST(COUNT(*) AS BIGINT) AS c
              FROM transcripts WHERE tool <> '' GROUP BY conv_id, tool
            ),
            n AS (
              SELECT conv_id, CAST(SUM(c) AS BIGINT) AS n
              FROM c GROUP BY conv_id
            )
            SELECT c.conv_id,
                   CAST(SUM(c.c) AS BIGINT) AS n_calls,
                   ROUND(-SUM((CAST(c.c AS DOUBLE) / n.n)
                              * LN(CAST(c.c AS DOUBLE) / n.n)), 6) AS h
            FROM c JOIN n USING (conv_id)
            GROUP BY c.conv_id
        """,
        # per-conversation OLS slope of text length over turn_idx,
        # computed from exact BIGINT moments on both sides
        "q_len_slope": f"""
            WITH {_TRANSCRIPTS_CTE},
            m AS (
              SELECT conv_id,
                     CAST(COUNT(*) AS BIGINT) AS n,
                     CAST(SUM(turn_idx) AS BIGINT) AS sx,
                     CAST(SUM(length(text)) AS BIGINT) AS sy,
                     CAST(SUM(turn_idx * length(text)) AS BIGINT) AS sxy,
                     CAST(SUM(turn_idx * turn_idx) AS BIGINT) AS sxx
              FROM transcripts GROUP BY conv_id
            )
            SELECT conv_id, n AS n_turns,
                   ROUND(CAST(n * sxy - sx * sy AS DOUBLE)
                         / CAST(n * sxx - sx * sx AS DOUBLE), 6) AS slope
            FROM m WHERE n >= 2
        """,
        # per-user Fano factor of hourly event counts over active hours
        "q_burstiness": """
            WITH h AS (
              SELECT user_id,
                     epoch_us(ts) // 3600000000 AS hr,
                     CAST(COUNT(*) AS BIGINT) AS c
              FROM events GROUP BY user_id, hr
            ),
            m AS (
              SELECT user_id,
                     CAST(COUNT(*) AS BIGINT) AS n_hours,
                     CAST(SUM(c) AS BIGINT) AS s,
                     CAST(SUM(c * c) AS BIGINT) AS q
              FROM h GROUP BY user_id
            )
            SELECT user_id, n_hours, s AS n_events,
                   ROUND(CAST(n_hours * q - s * s AS DOUBLE)
                         / CAST(n_hours * s AS DOUBLE), 6) AS fano
            FROM m
        """,
        # unordered distinct-tool pairs co-occurring in a conversation
        "q_tool_cooccur": f"""
            WITH {_TRANSCRIPTS_CTE},
            d AS (
              SELECT DISTINCT conv_id, tool
              FROM transcripts WHERE tool <> ''
            )
            SELECT a.tool AS tool_a, b.tool AS tool_b,
                   CAST(COUNT(*) AS BIGINT) AS n_convs
            FROM d a JOIN d b
              ON a.conv_id = b.conv_id AND a.tool < b.tool
            GROUP BY a.tool, b.tool
        """,
        # chi-squared contingency cells for lang x source, from exact
        # BIGINT marginals with per-cell float math (no cross-cell sum)
        "q_chi2_cells": """
            WITH c AS (
              SELECT lang, source, CAST(COUNT(*) AS BIGINT) AS observed
              FROM documents GROUP BY lang, source
            ),
            r AS (SELECT lang, CAST(SUM(observed) AS BIGINT) AS rt
                  FROM c GROUP BY lang),
            s AS (SELECT source, CAST(SUM(observed) AS BIGINT) AS ct
                  FROM c GROUP BY source),
            n AS (SELECT CAST(SUM(observed) AS BIGINT) AS n FROM c)
            SELECT c.lang, c.source, c.observed,
                   ROUND(CAST(r.rt * s.ct AS DOUBLE)
                         / CAST(n.n AS DOUBLE), 6) AS expected,
                   ROUND((CAST(c.observed AS DOUBLE)
                          - CAST(r.rt * s.ct AS DOUBLE) / CAST(n.n AS DOUBLE))
                         * (CAST(c.observed AS DOUBLE)
                            - CAST(r.rt * s.ct AS DOUBLE) / CAST(n.n AS DOUBLE))
                         / (CAST(r.rt * s.ct AS DOUBLE) / CAST(n.n AS DOUBLE)),
                         6) AS contrib
            FROM c JOIN r USING (lang) JOIN s USING (source), n
        """,
        # per-column null count + exact distinct count over events
        "q_profile_events": """
            SELECT * FROM (
              SELECT 'event_id' AS column,
                     CAST(COUNT(DISTINCT event_id) AS BIGINT) AS n_distinct,
                     CAST(COUNT(*) FILTER (event_id IS NULL) AS BIGINT) AS n_nulls
              FROM events
              UNION ALL SELECT 'ts', COUNT(DISTINCT ts),
                     COUNT(*) FILTER (ts IS NULL) FROM events
              UNION ALL SELECT 'user_id', COUNT(DISTINCT user_id),
                     COUNT(*) FILTER (user_id IS NULL) FROM events
              UNION ALL SELECT 'event_type', COUNT(DISTINCT event_type),
                     COUNT(*) FILTER (event_type IS NULL) FROM events
              UNION ALL SELECT 'value', COUNT(DISTINCT value),
                     COUNT(*) FILTER (value IS NULL) FROM events
              UNION ALL SELECT 'props', COUNT(DISTINCT props),
                     COUNT(*) FILTER (props IS NULL) FROM events
            )
        """,
        # 4-tap renormalized EWMA of value over the user's last events;
        # float expression left-associated identically on both sides
        "q_ewma_value": """
            WITH o AS (
              SELECT user_id, event_id, value,
                     LAG(value, 1) OVER w AS x1,
                     LAG(value, 2) OVER w AS x2,
                     LAG(value, 3) OVER w AS x3
              FROM events
              WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
            )
            SELECT user_id, event_id,
                   ROUND((value + 0.5 * COALESCE(x1, 0)
                                + 0.25 * COALESCE(x2, 0)
                                + 0.125 * COALESCE(x3, 0))
                         / (1 + 0.5 * CASE WHEN x1 IS NULL THEN 0 ELSE 1 END
                              + 0.25 * CASE WHEN x2 IS NULL THEN 0 ELSE 1 END
                              + 0.125 * CASE WHEN x3 IS NULL THEN 0 ELSE 1 END),
                         6) AS ewma
            FROM o
        """,
        # hashed role x tool cross: per-slot turn count + collision audit
        "q_feature_cross": f"""
            WITH {_TRANSCRIPTS_CTE},
            c AS (
              SELECT role, tool, CAST(COUNT(*) AS BIGINT) AS n
              FROM transcripts GROUP BY role, tool
            )
            SELECT CAST(md5_number_lower(role || '|' || tool) % 64
                        AS BIGINT) AS bucket,
                   CAST(SUM(n) AS BIGINT) AS n_turns,
                   CAST(COUNT(*) AS BIGINT) AS n_pairs
            FROM c GROUP BY bucket
        """,
        # deterministic T5-style span corruption (every 4th token,
        # phase 1) into (input, target) denoising pairs
        "q_span_corrupt": r"""
            WITH l AS (
              SELECT doc_id, regexp_extract_all(text, '\S+') AS toks
              FROM documents
            ),
            m AS (
              SELECT doc_id,
                     array_to_string(list_transform(toks, (w, i) ->
                       CASE WHEN (i - 1) % 4 = 1 THEN '<mask>'
                            ELSE w END), ' ') AS input_text,
                     array_to_string(list_filter(toks, (w, i) ->
                       (i - 1) % 4 = 1), ' ') AS target_text,
                     CAST(len(list_filter(toks, (w, i) ->
                       (i - 1) % 4 = 1)) AS BIGINT) AS n_masked
              FROM l
            )
            SELECT doc_id, input_text, target_text, n_masked
            FROM m WHERE n_masked > 0
        """,
        # audience Jaccard between event types from exact BIGINT
        # intersection/union counts
        "q_audience_overlap": """
            WITH d AS (
              SELECT DISTINCT user_id, event_type FROM events
            ),
            i AS (
              SELECT a.event_type AS event_type_a,
                     b.event_type AS event_type_b,
                     CAST(COUNT(*) AS BIGINT) AS n_both
              FROM d a JOIN d b
                ON a.user_id = b.user_id
               AND a.event_type < b.event_type
              GROUP BY a.event_type, b.event_type
            ),
            m AS (
              SELECT event_type, CAST(COUNT(*) AS BIGINT) AS n_users
              FROM d GROUP BY event_type
            )
            SELECT i.event_type_a, i.event_type_b, i.n_both,
                   ma.n_users + mb.n_users - i.n_both AS n_union,
                   ROUND(CAST(i.n_both AS DOUBLE)
                         / CAST(ma.n_users + mb.n_users - i.n_both
                                AS DOUBLE), 6) AS jaccard
            FROM i
            JOIN m ma ON ma.event_type = i.event_type_a
            JOIN m mb ON mb.event_type = i.event_type_b
        """,
        # longest consecutive-day streak per user (gaps-and-islands)
        "q_activity_streak": """
            WITH d AS (
              SELECT DISTINCT user_id,
                     epoch_us(ts) // 86400000000 AS day
              FROM events
            ),
            r AS (
              SELECT user_id, day,
                     day - row_number() OVER (PARTITION BY user_id
                                              ORDER BY day) AS island
              FROM d
            ),
            runs AS (
              SELECT user_id, CAST(COUNT(*) AS BIGINT) AS len
              FROM r GROUP BY user_id, island
            )
            SELECT user_id,
                   CAST(MAX(len) AS BIGINT) AS best_streak,
                   CAST(SUM(len) AS BIGINT) AS n_active_days
            FROM runs GROUP BY user_id
        """,
        # per-label mean pairwise cosine via the sum-vector identity
        "q_embedding_diversity": """
            WITH v AS (
              SELECT label, CAST(embedding AS DOUBLE[]) AS emb
              FROM embeddings
            ),
            nv AS (
              SELECT label,
                     list_transform(emb, x -> x /
                       sqrt(list_sum(list_transform(emb, y -> y * y))))
                       AS ne
              FROM v
            ),
            e AS (
              SELECT label, unnest(ne) AS x,
                     generate_subscripts(ne, 1) AS dim
              FROM nv
            ),
            s AS (SELECT label, dim, SUM(x) AS s FROM e
                  GROUP BY label, dim),
            g AS (SELECT label, SUM(s * s) AS s2 FROM s GROUP BY label),
            c AS (SELECT label, CAST(COUNT(*) AS BIGINT) AS n
                  FROM embeddings GROUP BY label)
            SELECT c.label, c.n AS n_vecs,
                   ROUND((g.s2 - c.n) / (c.n * (c.n - 1.0)), 6)
                     AS diversity
            FROM g JOIN c USING (label)
        """,
        # 80/20 revenue concentration in exact integer cents; the
        # crossing row is included (exclusive-prefix test)
        "q_pareto_share": """
            WITH u AS (
              SELECT user_id,
                     CAST(SUM(CAST(FLOOR(value * 100.0 + 0.5) AS BIGINT))
                          AS BIGINT) AS cents
              FROM events GROUP BY user_id
            ),
            o AS (
              SELECT user_id, cents,
                     COALESCE(SUM(cents) OVER (
                       ORDER BY cents DESC, user_id
                       ROWS BETWEEN UNBOUNDED PRECEDING
                                AND 1 PRECEDING), 0) AS pfx
              FROM u
            ),
            t AS (
              SELECT CAST(SUM(cents) AS BIGINT) AS total,
                     CAST(COUNT(*) AS BIGINT) AS n_users
              FROM u
            )
            SELECT t.n_users,
                   CAST(COUNT(*) AS BIGINT) AS n_top_users,
                   CAST(SUM(o.cents) AS BIGINT) AS top_cents,
                   t.total AS total_cents,
                   ROUND(CAST(SUM(o.cents) AS DOUBLE)
                         / CAST(t.total AS DOUBLE), 6) AS top_share
            FROM o, t
            WHERE 5 * o.pfx < 4 * t.total
            GROUP BY t.n_users, t.total
        """,
        # one-row-per-user feature-store table (engine: single bucket
        # pass; oracle: three-CTE join)
        "q_user_features": """
            WITH h AS (
              SELECT user_id, epoch_us(ts) // 3600000000 AS hr,
                     CAST(COUNT(*) AS BIGINT) AS c
              FROM events GROUP BY user_id, hr
            ),
            mom AS (
              SELECT user_id, CAST(COUNT(*) AS BIGINT) AS n_hours,
                     CAST(SUM(c) AS BIGINT) AS n_events,
                     CAST(SUM(c * c) AS BIGINT) AS q
              FROM h GROUP BY user_id
            ),
            d AS (
              SELECT DISTINCT user_id,
                     epoch_us(ts) // 86400000000 AS day
              FROM events
            ),
            r AS (
              SELECT user_id, day,
                     day - row_number() OVER (PARTITION BY user_id
                                              ORDER BY day) AS island
              FROM d
            ),
            runs AS (
              SELECT user_id, CAST(COUNT(*) AS BIGINT) AS len
              FROM r GROUP BY user_id, island
            ),
            st AS (
              SELECT user_id, CAST(MAX(len) AS BIGINT) AS best_streak,
                     CAST(SUM(len) AS BIGINT) AS n_active_days
              FROM runs GROUP BY user_id
            ),
            tot AS (
              SELECT user_id,
                     CAST(SUM(CAST(FLOOR(value * 100.0 + 0.5) AS BIGINT))
                          AS BIGINT) AS total_cents,
                     CAST(COUNT(DISTINCT event_type) AS BIGINT) AS n_types
              FROM events GROUP BY user_id
            )
            SELECT m.user_id, m.n_events, m.n_hours,
                   ROUND(CAST(m.n_hours * m.q
                              - m.n_events * m.n_events AS DOUBLE)
                         / CAST(m.n_hours * m.n_events AS DOUBLE), 6)
                     AS fano,
                   st.best_streak, st.n_active_days,
                   tot.total_cents, tot.n_types
            FROM mom m
            JOIN st USING (user_id)
            JOIN tot USING (user_id)
        """,
        # k-anonymity audit of the (lang, source) quasi-identifier
        "q_k_anonymity": """
            WITH c AS (
              SELECT lang, source, CAST(COUNT(*) AS BIGINT) AS n
              FROM documents GROUP BY lang, source
            ),
            ks AS (SELECT unnest([2, 5, 10]) AS k)
            SELECT CAST(ks.k AS BIGINT) AS k,
                   CAST(COALESCE(SUM(c.n) FILTER (c.n < ks.k), 0)
                        AS BIGINT) AS n_at_risk,
                   CAST(COUNT(*) AS BIGINT) AS n_classes,
                   CAST(MIN(c.n) AS BIGINT) AS min_class
            FROM ks, c
            GROUP BY ks.k
        """,
        # exact Gini of per-user cents via the rank formula
        "q_gini": """
            WITH u AS (
              SELECT user_id,
                     CAST(SUM(CAST(FLOOR(value * 100.0 + 0.5) AS BIGINT))
                          AS BIGINT) AS cents
              FROM events GROUP BY user_id
            ),
            r AS (
              SELECT cents,
                     row_number() OVER (ORDER BY cents, user_id) AS rk
              FROM u
            ),
            a AS (
              SELECT CAST(SUM(cents) AS BIGINT) AS s1,
                     CAST(SUM(rk * cents) AS BIGINT) AS srk,
                     CAST(COUNT(*) AS BIGINT) AS n
              FROM r
            )
            SELECT n AS n_users, s1 AS total_cents,
                   ROUND(CAST(2 * srk - (n + 1) * s1 AS DOUBLE)
                         / CAST(n * s1 AS DOUBLE), 6) AS gini
            FROM a
        """,
        # per-day top-3 users by events, user_id tiebreak
        "q_window_heavy": """
            WITH c AS (
              SELECT epoch_us(ts) // 86400000000 AS day, user_id,
                     CAST(COUNT(*) AS BIGINT) AS n
              FROM events GROUP BY day, user_id
            ),
            r AS (
              SELECT day, user_id, n,
                     row_number() OVER (PARTITION BY day
                                        ORDER BY n DESC, user_id) AS rk
              FROM c
            )
            SELECT CAST(day AS BIGINT) AS day, CAST(rk AS BIGINT) AS rk,
                   user_id, n
            FROM r WHERE rk <= 3
        """,
        # nearest as-of: closest non-purchase per purchase, past wins ties
        "q_asof_nearest": """
            WITH l AS (
              SELECT event_id, user_id, ts, value FROM events
              WHERE event_type = 'purchase'
            ),
            r AS (
              SELECT user_id, ts, value FROM events
              WHERE event_type <> 'purchase'
            ),
            b AS (
              SELECT l.event_id, r.ts AS bts, r.value AS bval
              FROM l ASOF LEFT JOIN r
                ON l.user_id = r.user_id AND l.ts >= r.ts
            ),
            f AS (
              SELECT l.event_id, r.ts AS fts, r.value AS fval
              FROM l ASOF LEFT JOIN r
                ON l.user_id = r.user_id AND l.ts <= r.ts
            )
            SELECT l.event_id, l.user_id, l.ts, l.value,
                   CASE WHEN bts IS NULL THEN fts
                        WHEN fts IS NULL THEN bts
                        WHEN (l.ts - bts) <= (fts - l.ts) THEN bts
                        ELSE fts END AS ts_matched,
                   CASE WHEN bts IS NULL THEN fval
                        WHEN fts IS NULL THEN bval
                        WHEN (l.ts - bts) <= (fts - l.ts) THEN bval
                        ELSE fval END AS value_r
            FROM l
            JOIN b USING (event_id)
            JOIN f USING (event_id)
            WHERE bts IS NOT NULL OR fts IS NOT NULL
        """,
        # top-10 ordered tool-sequence motifs, sequence tiebreak
        "q_tool_sequences": f"""
            WITH {_TRANSCRIPTS_CTE},
            s AS (
              SELECT conv_id,
                     STRING_AGG(tool, '->' ORDER BY turn_idx) AS seq
              FROM transcripts WHERE tool <> ''
              GROUP BY conv_id
            ),
            c AS (
              SELECT seq, CAST(COUNT(*) AS BIGINT) AS n
              FROM s GROUP BY seq
            ),
            r AS (
              SELECT seq, n,
                     row_number() OVER (ORDER BY n DESC, seq) AS rk
              FROM c
            )
            SELECT CAST(rk AS BIGINT) AS rk, seq, n
            FROM r WHERE rk <= 10
        """,
        # per-doc charset/script-mix profile from exact regex counts
        "q_charset_profile": r"""
            WITH c AS (
              SELECT doc_id,
                     CAST(length(text) AS BIGINT) AS n_chars,
                     CAST(length(text)
                          - length(regexp_replace(text, '[A-Za-z]', '', 'g'))
                          AS BIGINT) AS n_alpha,
                     CAST(length(text)
                          - length(regexp_replace(text, '[0-9]', '', 'g'))
                          AS BIGINT) AS n_digit,
                     CAST(length(text)
                          - length(regexp_replace(text, '\s', '', 'g'))
                          AS BIGINT) AS n_space,
                     CAST(length(text)
                          - length(regexp_replace(text, '[一-鿿]', '', 'g'))
                          AS BIGINT) AS n_cjk
              FROM documents
            )
            SELECT doc_id, n_chars, n_alpha, n_digit, n_space, n_cjk,
                   CAST(FLOOR(CAST(n_alpha AS DOUBLE)
                              / CAST(GREATEST(n_chars, 1) AS DOUBLE)
                              * 1000000.0 + 0.5) AS BIGINT) AS alpha_ppm,
                   CAST(FLOOR(CAST(n_cjk AS DOUBLE)
                              / CAST(GREATEST(n_chars, 1) AS DOUBLE)
                              * 1000000.0 + 0.5) AS BIGINT) AS cjk_ppm
            FROM c
        """,
        # per-source dedup savings measured in whitespace tokens
        "q_dedup_savings": r"""
            WITH f AS (
              SELECT source, md5(text) AS fp,
                     CAST(COUNT(*) AS BIGINT) AS n,
                     CAST(MAX(len(regexp_extract_all(text, '\S+')))
                          AS BIGINT) AS tok
              FROM documents GROUP BY source, md5(text)
            )
            SELECT source,
                   CAST(SUM(n * tok) AS BIGINT) AS total_tokens,
                   CAST(SUM((n - 1) * tok) AS BIGINT) AS saved_tokens,
                   ROUND(CAST(SUM((n - 1) * tok) AS DOUBLE)
                         / CAST(GREATEST(SUM(n * tok), 1) AS DOUBLE), 6)
                     AS saved_frac
            FROM f GROUP BY source
        """,
        # lag-1 Pearson autocorrelation of cent-quantized value per user
        "q_value_autocorr": """
            WITH o AS (
              SELECT user_id,
                     CAST(FLOOR(value * 100.0 + 0.5) AS BIGINT) AS c,
                     LAG(CAST(FLOOR(value * 100.0 + 0.5) AS BIGINT))
                       OVER (PARTITION BY user_id
                             ORDER BY ts, event_id) AS px
              FROM events
            ),
            p AS (
              SELECT user_id, px AS x, c AS y FROM o WHERE px IS NOT NULL
            ),
            m AS (
              SELECT user_id,
                     CAST(COUNT(*) AS BIGINT) AS n,
                     CAST(SUM(x) AS BIGINT) AS sx,
                     CAST(SUM(y) AS BIGINT) AS sy,
                     CAST(SUM(x * y) AS BIGINT) AS sxy,
                     CAST(SUM(x * x) AS BIGINT) AS sxx,
                     CAST(SUM(y * y) AS BIGINT) AS syy
              FROM p GROUP BY user_id
            )
            SELECT user_id, n AS n_pairs,
                   ROUND(CAST(n * sxy - sx * sy AS DOUBLE)
                         / (sqrt(CAST(n * sxx - sx * sx AS DOUBLE))
                            * sqrt(CAST(n * syy - sy * sy AS DOUBLE))),
                         6) AS autocorr
            FROM m
            WHERE n >= 2 AND n * sxx - sx * sx > 0
              AND n * syy - sy * sy > 0
        """,
        # leakage-safe churn training set: features strictly pre-cutoff,
        # label from at-or-after cutoff (corpus max ts - 7 days)
        "q_churn_dataset": """
            WITH mx AS (SELECT MAX(epoch_us(ts)) AS m FROM events),
            cut AS (SELECT m - 7 * 86400000000 AS c FROM mx),
            pre AS (
              SELECT user_id, epoch_us(ts) AS t,
                     CAST(FLOOR(value * 100.0 + 0.5) AS BIGINT) AS cents
              FROM events, cut WHERE epoch_us(ts) < cut.c
            ),
            post AS (
              SELECT DISTINCT user_id FROM events, cut
              WHERE epoch_us(ts) >= cut.c
            ),
            f AS (
              SELECT user_id,
                     CAST(COUNT(*) AS BIGINT) AS n_events,
                     CAST(SUM(cents) AS BIGINT) AS total_cents,
                     CAST(COUNT(DISTINCT t // 86400000000) AS BIGINT)
                       AS n_active_days,
                     CAST(MAX(t) AS BIGINT) AS last_ts
              FROM pre GROUP BY user_id
            )
            SELECT f.user_id, f.n_events, f.total_cents, f.n_active_days,
                   CAST((cut.c - f.last_ts) // 86400000000 AS BIGINT)
                     AS recency_days,
                   CAST(CASE WHEN p.user_id IS NULL THEN 1 ELSE 0 END
                        AS BIGINT) AS churned
            FROM f CROSS JOIN cut
            LEFT JOIN post p ON p.user_id = f.user_id
        """,
        # SCD2 run compression: gaps-and-islands over the per-user
        # ordered state stream; open intervals end at the 9999-12-31
        # high date (253402300799000000 µs) so the column is plain int64
        "q_scd2": """
            WITH e AS (
              SELECT user_id, event_type, epoch_us(ts) AS t, event_id,
                     CASE WHEN LAG(event_type) OVER (
                              PARTITION BY user_id
                              ORDER BY epoch_us(ts), event_id)
                          IS DISTINCT FROM event_type
                          THEN 1 ELSE 0 END AS chg
              FROM events
            ),
            i AS (
              SELECT *, SUM(chg) OVER (PARTITION BY user_id
                                       ORDER BY t, event_id
                                       ROWS UNBOUNDED PRECEDING) AS isl
              FROM e
            ),
            r AS (
              SELECT user_id, isl, ANY_VALUE(event_type) AS event_type,
                     CAST(MIN(t) AS BIGINT) AS valid_from_us,
                     CAST(COUNT(*) AS BIGINT) AS run_len
              FROM i GROUP BY user_id, isl
            )
            SELECT user_id, event_type, valid_from_us,
                   CAST(COALESCE(
                     LEAD(valid_from_us) OVER (PARTITION BY user_id
                                               ORDER BY isl),
                     253402300799000000) AS BIGINT) AS valid_to_us,
                   run_len
            FROM r
        """,
        # daily grid + forward-fill: per-day last value (ties broken by
        # event_id) joined onto a generate_series grid, filled with
        # LAST_VALUE IGNORE NULLS — values pass through bit-exact
        "q_resample_daily": """
            WITH b AS (
              SELECT user_id, epoch_us(ts) // 86400000000 AS day, value,
                     ROW_NUMBER() OVER (
                       PARTITION BY user_id, epoch_us(ts) // 86400000000
                       ORDER BY epoch_us(ts) DESC, event_id DESC) AS rn
              FROM events
            ),
            d AS (SELECT user_id, day, value FROM b WHERE rn = 1),
            s AS (SELECT user_id, MIN(day) AS d0, MAX(day) AS d1
                  FROM d GROUP BY user_id),
            g AS (SELECT user_id, UNNEST(generate_series(d0, d1)) AS day
                  FROM s)
            SELECT g.user_id, CAST(g.day AS BIGINT) AS day,
                   LAST_VALUE(d.value IGNORE NULLS) OVER (
                     PARTITION BY g.user_id ORDER BY g.day) AS value
            FROM g LEFT JOIN d USING (user_id, day)
        """,
        # trailing 1/7/30-day lookback features at the corpus-max-ts
        # cutoff; velocity float division mirrored op-for-op
        "q_multi_horizon": """
            WITH mx AS (SELECT MAX(epoch_us(ts)) AS c FROM events),
            e AS (
              SELECT user_id, event_type, epoch_us(ts) AS t,
                     CAST(FLOOR(value * 100.0 + 0.5) AS BIGINT) AS cents,
                     mx.c AS c
              FROM events, mx
            ),
            f AS (
              SELECT user_id,
                CAST(SUM(CASE WHEN t > c - 86400000000
                              THEN 1 ELSE 0 END) AS BIGINT) AS n_1d,
                CAST(SUM(CASE WHEN t > c - 7 * 86400000000
                              THEN 1 ELSE 0 END) AS BIGINT) AS n_7d,
                CAST(SUM(CASE WHEN t > c - 30 * 86400000000
                              THEN 1 ELSE 0 END) AS BIGINT) AS n_30d,
                CAST(COUNT(DISTINCT CASE WHEN t > c - 7 * 86400000000
                                         THEN event_type END)
                     AS BIGINT) AS d_types_7d,
                CAST(SUM(CASE WHEN t > c - 30 * 86400000000
                              THEN cents ELSE 0 END) AS BIGINT)
                  AS cents_30d
              FROM e GROUP BY user_id
            )
            SELECT user_id, n_1d, n_7d, n_30d, d_types_7d, cents_30d,
                   CASE WHEN n_7d = 0 THEN 0.0
                        ELSE ROUND(CAST(n_1d AS DOUBLE) / n_7d, 6)
                   END AS velocity_ratio
            FROM f WHERE n_30d > 0
        """,
        # first-order Markov transitions over per-user event-type
        # sequences, with the row-conditional probability
        "q_event_transitions": """
            WITH o AS (
              SELECT event_type,
                     LAG(event_type) OVER (PARTITION BY user_id
                                           ORDER BY ts, event_id)
                       AS prev_type
              FROM events
            ),
            c AS (
              SELECT prev_type, event_type,
                     CAST(COUNT(*) AS BIGINT) AS n_trans
              FROM o WHERE prev_type IS NOT NULL
              GROUP BY prev_type, event_type
            )
            SELECT prev_type, event_type, n_trans,
                   ROUND(CAST(n_trans AS DOUBLE)
                         / CAST(SUM(n_trans)
                                OVER (PARTITION BY prev_type) AS DOUBLE),
                         6) AS prob
            FROM c
        """,
        # m-estimate (m=20) target encoding of event_type by mean value
        "q_target_encode_m": """
            WITH c AS (
              SELECT event_type,
                     CAST(FLOOR(value * 100.0 + 0.5) AS BIGINT) AS c
              FROM events
            ),
            g AS (
              SELECT event_type,
                     CAST(SUM(c) AS BIGINT) AS sc,
                     CAST(COUNT(*) AS BIGINT) AS n_events
              FROM c GROUP BY event_type
            ),
            t AS (
              SELECT CAST(SUM(c) AS BIGINT) AS gs,
                     CAST(COUNT(*) AS BIGINT) AS gn
              FROM c
            )
            SELECT event_type, n_events,
                   ROUND((CAST(sc AS DOUBLE)
                          + 20.0 * (CAST(gs AS DOUBLE)
                                    / CAST(gn AS DOUBLE)))
                         / (CAST(n_events AS DOUBLE) + 20.0) / 100.0,
                         6) AS target_enc
            FROM g, t
        """,
        # one-vs-rest two-proportion z per event type (success =
        # value cents > 5000); float math in exact oracle op order
        "q_ab_lift": """
            WITH c AS (
              SELECT event_type,
                     CAST(COUNT(*) AS BIGINT) AS n,
                     CAST(SUM(CASE WHEN CAST(FLOOR(value * 100.0 + 0.5)
                                             AS BIGINT) > 5000
                                   THEN 1 ELSE 0 END) AS BIGINT) AS n_succ
              FROM events GROUP BY event_type
            ),
            t AS (
              SELECT CAST(SUM(n) AS BIGINT) AS tn,
                     CAST(SUM(n_succ) AS BIGINT) AS ts
              FROM c
            )
            SELECT event_type, n, n_succ,
                   ROUND(CAST(n_succ AS DOUBLE) / CAST(n AS DOUBLE), 6)
                     AS rate,
                   ROUND(CAST(n_succ AS DOUBLE) / CAST(n AS DOUBLE)
                         - CAST(ts - n_succ AS DOUBLE)
                           / CAST(tn - n AS DOUBLE), 6) AS lift,
                   ROUND((CAST(n_succ AS DOUBLE) / CAST(n AS DOUBLE)
                          - CAST(ts - n_succ AS DOUBLE)
                            / CAST(tn - n AS DOUBLE))
                         / SQRT((CAST(ts AS DOUBLE) / CAST(tn AS DOUBLE))
                                * (1.0 - CAST(ts AS DOUBLE)
                                         / CAST(tn AS DOUBLE))
                                * (1.0 / CAST(n AS DOUBLE)
                                   + 1.0 / CAST(tn - n AS DOUBLE))),
                         6) AS z
            FROM c, t
        """,
        # Kaplan-Meier risk table: duration days first→last event,
        # churned if last event >30 days before corpus max ts;
        # n_risk is an exact-integer reverse cumulative
        "q_survival": """
            WITH u AS (
              SELECT user_id, MIN(ts) AS f, MAX(ts) AS l
              FROM events GROUP BY user_id
            ),
            g AS (SELECT MAX(l) AS gmax FROM u),
            p AS (
              SELECT (epoch_us(l) - epoch_us(f)) // 86400000000
                       AS dur_days,
                     CASE WHEN epoch_us(l) <= epoch_us(gmax)
                                              - 2592000000000
                          THEN 1 ELSE 0 END AS ch
              FROM u, g
            ),
            a AS (
              SELECT dur_days,
                     CAST(SUM(ch) AS BIGINT) AS n_churned,
                     CAST(SUM(1 - ch) AS BIGINT) AS n_censored
              FROM p GROUP BY dur_days
            ),
            r AS (
              SELECT dur_days, n_churned, n_censored,
                     CAST((SELECT COUNT(*) FROM u) AS BIGINT)
                       - CAST(COALESCE(SUM(n_churned + n_censored)
                                       OVER (ORDER BY dur_days
                                             ROWS BETWEEN UNBOUNDED
                                             PRECEDING AND 1 PRECEDING),
                                       0) AS BIGINT) AS n_risk
              FROM a
            )
            SELECT dur_days, n_risk, n_churned, n_censored,
                   ROUND(CAST(n_churned AS DOUBLE)
                         / CAST(n_risk AS DOUBLE), 6) AS hazard
            FROM r
        """,
        # RFM quintiles with exact NTILE(5) (metric, user_id) order;
        # recency in whole days at corpus max ts, monetary in cents
        "q_rfm": """
            WITH u AS (
              SELECT user_id,
                     CAST(COUNT(*) AS BIGINT) AS freq,
                     CAST(SUM(CAST(FLOOR(value * 100.0 + 0.5)
                                   AS BIGINT)) AS BIGINT) AS m_cents,
                     MAX(ts) AS l
              FROM events GROUP BY user_id
            ),
            g AS (SELECT MAX(l) AS gmax FROM u),
            f AS (
              SELECT user_id, freq, m_cents,
                     (epoch_us(gmax) - epoch_us(l)) // 86400000000
                       AS r_days
              FROM u, g
            )
            SELECT user_id,
                   CAST(NTILE(5) OVER (ORDER BY r_days, user_id)
                        AS BIGINT) AS r_score,
                   CAST(NTILE(5) OVER (ORDER BY freq, user_id)
                        AS BIGINT) AS f_score,
                   CAST(NTILE(5) OVER (ORDER BY m_cents, user_id)
                        AS BIGINT) AS m_score
            FROM f
        """,
        # Benford first-digit audit of cent amounts; digit via the
        # decimal string on both engines, no float-log edge case
        "q_benford": """
            WITH c AS (
              SELECT CAST(FLOOR(value * 100.0 + 0.5) AS BIGINT) AS c
              FROM events
            ),
            d AS (
              SELECT CAST(SUBSTRING(CAST(c AS VARCHAR), 1, 1) AS BIGINT)
                       AS digit,
                     CAST(COUNT(*) AS BIGINT) AS n
              FROM c WHERE c > 0 GROUP BY 1
            ),
            t AS (SELECT CAST(SUM(n) AS BIGINT) AS total FROM d)
            SELECT digit, n,
                   ROUND(CAST(n AS DOUBLE) / CAST(total AS DOUBLE), 6)
                     AS share,
                   ROUND(LOG10(1.0 + 1.0 / CAST(digit AS DOUBLE)), 6)
                     AS expected,
                   ROUND(CAST(n AS DOUBLE) / CAST(total AS DOUBLE)
                         - LOG10(1.0 + 1.0 / CAST(digit AS DOUBLE)), 6)
                     AS dev
            FROM d, t
        """,
        # weekly seasonality: (type, dow) counts + within-type share;
        # dayofweek() is 0=Sunday, matching the engine's epoch-day math
        "q_dow_profile": """
            WITH c AS (
              SELECT event_type,
                     CAST(dayofweek(ts) AS BIGINT) AS dow,
                     CAST(COUNT(*) AS BIGINT) AS n
              FROM events GROUP BY event_type, dayofweek(ts)
            )
            SELECT event_type, dow, n,
                   ROUND(CAST(n AS DOUBLE)
                         / CAST(SUM(n) OVER (PARTITION BY event_type)
                                AS DOUBLE), 6) AS share
            FROM c
        """,
        # conversation-opener prefix sharing (first 8 whitespace
        # tokens of turn 0), prefixes reused by >= 2 conversations
        "q_prefix_cache": f"""
            WITH {_TRANSCRIPTS_CTE},
            p AS (
              SELECT array_to_string(
                       list_slice(regexp_split_to_array(text, '\\s+'),
                                  1, 8), ' ') AS prefix
              FROM transcripts WHERE turn_idx = 0
            )
            SELECT prefix, CAST(COUNT(*) AS BIGINT) AS n_convs
            FROM p GROUP BY prefix HAVING COUNT(*) >= 2
        """,
        # asymmetric char-trigram containment on the consecutive-id
        # candidate pairs (|A∩B|/|A| and /|B|, exact integer counts)
        "q_containment": """
            WITH docs AS (
              SELECT doc_id, lower(text) AS s FROM documents
              WHERE doc_id < 100 AND length(text) >= 3
            ),
            grams AS (
              SELECT DISTINCT doc_id, substr(s, i, 3) AS g
              FROM (SELECT doc_id, s,
                           unnest(generate_series(1, length(s) - 2)) AS i
                    FROM docs)
            ),
            pairs AS (
              SELECT a.doc_id AS id_a, b.doc_id AS id_b
              FROM docs a JOIN docs b ON b.doc_id = a.doc_id + 1
              WHERE a.doc_id % 2 = 0
            ),
            inter AS (
              SELECT p.id_a, p.id_b, count(*) AS n_inter
              FROM pairs p
              JOIN grams ga ON ga.doc_id = p.id_a
              JOIN grams gb ON gb.doc_id = p.id_b AND gb.g = ga.g
              GROUP BY p.id_a, p.id_b
            ),
            sizes AS (SELECT doc_id, count(*) AS n FROM grams GROUP BY doc_id)
            SELECT p.id_a, p.id_b,
                   CAST(COALESCE(i.n_inter, 0) AS BIGINT) AS n_inter,
                   CAST(sa.n AS BIGINT) AS n_a,
                   CAST(sb.n AS BIGINT) AS n_b,
                   CAST(COALESCE(i.n_inter, 0) AS DOUBLE)
                     / CAST(sa.n AS DOUBLE) AS containment_a,
                   CAST(COALESCE(i.n_inter, 0) AS DOUBLE)
                     / CAST(sb.n AS DOUBLE) AS containment_b
            FROM pairs p
            LEFT JOIN inter i ON i.id_a = p.id_a AND i.id_b = p.id_b
            JOIN sizes sa ON sa.doc_id = p.id_a
            JOIN sizes sb ON sb.doc_id = p.id_b
        """,
        # group-aware 5-fold: fold = md5(user) % 5, whole users only
        "q_group_kfold": """
            WITH u AS (
              SELECT user_id, CAST(COUNT(*) AS BIGINT) AS n
              FROM events GROUP BY user_id
            ),
            f AS (
              SELECT CAST(md5_number_lower(CAST(user_id AS VARCHAR)) % 5
                          AS BIGINT) AS fold, n
              FROM u
            ),
            a AS (
              SELECT fold, CAST(COUNT(*) AS BIGINT) AS n_users,
                     CAST(SUM(n) AS BIGINT) AS n_events
              FROM f GROUP BY fold
            ),
            t AS (SELECT CAST(SUM(n_events) AS BIGINT) AS tot FROM a)
            SELECT fold, n_users, n_events,
                   ROUND(CAST(n_events AS DOUBLE) / CAST(tot AS DOUBLE),
                         6) AS pct_events
            FROM a, t
        """,
        # temporal 80/20 split: cutoff day via the exact integer test
        # 5*cum >= 4*total over day-level counts
        "q_time_split": """
            WITH d AS (
              SELECT epoch_us(ts) // 86400000000 AS day,
                     CAST(COUNT(*) AS BIGINT) AS n
              FROM events GROUP BY 1
            ),
            c AS (
              SELECT day, n,
                     CAST(SUM(n) OVER (ORDER BY day) AS BIGINT) AS cum,
                     CAST((SELECT SUM(n) FROM d) AS BIGINT) AS tot
              FROM d
            ),
            k AS (SELECT MIN(day) AS cutoff FROM c
                  WHERE 5 * cum >= 4 * tot)
            SELECT CASE WHEN c.day <= k.cutoff THEN 'train'
                        ELSE 'val' END AS split,
                   CAST(SUM(c.n) AS BIGINT) AS n_events,
                   CAST(MIN(c.day) AS BIGINT) AS min_day,
                   CAST(MAX(c.day) AS BIGINT) AS max_day
            FROM c, k GROUP BY 1
        """,
        # exact-duplicate group-size histogram (groups of >= 2 docs);
        # probes plant dups: docs 0-9 get +1 copy (even) / +2 (odd)
        "q_dup_cluster_hist": """
            WITH aug AS (
              SELECT text FROM documents
              UNION ALL SELECT text FROM documents WHERE doc_id < 10
              UNION ALL SELECT text FROM documents
                        WHERE doc_id < 10 AND doc_id % 2 = 1
            ),
            g AS (
              SELECT text, CAST(COUNT(*) AS BIGINT) AS n
              FROM aug GROUP BY text HAVING COUNT(*) >= 2
            )
            SELECT n AS group_size,
                   CAST(COUNT(*) AS BIGINT) AS n_groups
            FROM g GROUP BY n
        """,
        # packing-efficiency rollup over the 512-token concat-and-chunk
        # layout (docs, tokens, exact pack count, boundary straddlers)
        "q_pack_efficiency": r"""
            WITH t AS (
              SELECT doc_id,
                     CAST(len(regexp_extract_all(text, '\S+'))
                          AS BIGINT) AS n_tokens
              FROM documents
            ),
            p AS (
              SELECT doc_id, n_tokens,
                     CAST(COALESCE(SUM(n_tokens) OVER (ORDER BY doc_id
                       ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING),
                       0) AS BIGINT) AS tok_start
              FROM t
            ),
            s AS (
              SELECT doc_id, n_tokens,
                     CAST(CASE WHEN n_tokens > 0
                          THEN (tok_start + n_tokens - 1) // 512
                               - tok_start // 512 + 1
                          ELSE 0 END AS BIGINT) AS n_packs
              FROM p
            ),
            a AS (
              SELECT CAST(COUNT(*) AS BIGINT) AS n_docs,
                     CAST(SUM(n_tokens) AS BIGINT) AS n_tokens,
                     CAST(SUM(CASE WHEN n_packs > 1 THEN 1 ELSE 0 END)
                          AS BIGINT) AS n_boundary_docs
              FROM s
            )
            SELECT n_docs, n_tokens,
                   CAST((n_tokens + 511) // 512 AS BIGINT) AS n_packs,
                   n_boundary_docs,
                   ROUND(CAST(n_docs AS DOUBLE)
                         / CAST((n_tokens + 511) // 512 AS DOUBLE), 6)
                     AS docs_per_pack
            FROM a
        """,
        # dialog-grammar Markov table over consecutive roles per conv
        "q_role_transitions": f"""
            WITH {_TRANSCRIPTS_CTE}, l AS (
              SELECT conv_id, role,
                     lag(role) OVER (PARTITION BY conv_id
                                     ORDER BY turn_idx) AS prev_role
              FROM transcripts
            ),
            c AS (
              SELECT prev_role, role,
                     CAST(COUNT(*) AS BIGINT) AS n_trans
              FROM l WHERE prev_role IS NOT NULL
              GROUP BY prev_role, role
            )
            SELECT prev_role, role, n_trans,
                   ROUND(CAST(n_trans AS DOUBLE)
                         / CAST(SUM(n_trans)
                                OVER (PARTITION BY prev_role) AS DOUBLE),
                         6) AS prob
            FROM c
        """,
        # per-tool latency order stats (exact integer µs; 2×median =
        # sum of the two central order stats, no interpolation)
        "q_tool_latency": f"""
            WITH {_TRANSCRIPTS_CTE}, l AS (
              SELECT conv_id, tool, ts,
                     lead(ts) OVER (PARTITION BY conv_id
                                    ORDER BY turn_idx) AS nts
              FROM transcripts
            ),
            d AS (
              SELECT tool,
                     date_diff('microsecond', ts, nts) AS gap_us
              FROM l WHERE tool <> '' AND nts IS NOT NULL
            ),
            s AS (
              SELECT tool, list_sort(list(gap_us)) AS v,
                     COUNT(*) AS n
              FROM d GROUP BY tool
            )
            SELECT tool, CAST(n AS BIGINT) AS n_calls,
                   CAST(v[CAST((n - 1) // 2 AS BIGINT) + 1]
                        + v[CAST(n // 2 AS BIGINT) + 1] AS BIGINT)
                     AS median2_us,
                   CAST(v[n] AS BIGINT) AS max_us
            FROM s
        """,
        # CUBE(event_type, dow) with 'ALL' subtotal labels
        "q_cube_counts": """
            SELECT COALESCE(event_type, 'ALL') AS event_type,
                   COALESCE(CAST(dow AS VARCHAR), 'ALL') AS dow,
                   CAST(COUNT(*) AS BIGINT) AS n
            FROM (SELECT event_type,
                         CAST(dayofweek(ts) AS BIGINT) AS dow
                  FROM events)
            GROUP BY CUBE (event_type, dow)
        """,
        # weight-of-evidence encoding: woe/iv are per-row float
        # expressions over exact int64 counts (0.5 Laplace smoothing),
        # written in the engine's operation order — no float sums
        "q_woe_encode": """
            WITH c AS (
              SELECT event_type,
                     SUM(CASE WHEN CAST(FLOOR(value * 100.0 + 0.5)
                              AS BIGINT) > 5000 THEN 1 ELSE 0 END) AS n_pos,
                     SUM(CASE WHEN CAST(FLOOR(value * 100.0 + 0.5)
                              AS BIGINT) > 5000 THEN 0 ELSE 1 END) AS n_neg
              FROM events GROUP BY event_type
            ),
            t AS (SELECT CAST(SUM(n_pos) AS DOUBLE) AS tp,
                         CAST(SUM(n_neg) AS DOUBLE) AS tn FROM c)
            SELECT event_type,
                   CAST(n_pos AS BIGINT) AS n_pos,
                   CAST(n_neg AS BIGINT) AS n_neg,
                   ROUND(LN(((CAST(n_pos AS DOUBLE) + 0.5) / tp)
                            / ((CAST(n_neg AS DOUBLE) + 0.5) / tn)), 6)
                     AS woe,
                   ROUND(((CAST(n_pos AS DOUBLE) + 0.5) / tp
                          - (CAST(n_neg AS DOUBLE) + 0.5) / tn)
                         * LN(((CAST(n_pos AS DOUBLE) + 0.5) / tp)
                              / ((CAST(n_neg AS DOUBLE) + 0.5) / tn)), 6)
                     AS iv
            FROM c, t ORDER BY event_type
        """,
        # MI feature ranking: the summed per-cell terms are each the
        # same float expression as the engine's; the ≤2·|levels|-term
        # SUM's order-of-summation ulps vanish under ROUND(...,6).
        # dow/hour levels only need to partition rows identically on
        # both sides (level names never enter the MI value).
        "q_mi_features": """
            WITH base AS (
              SELECT event_type,
                     CAST(dayofweek(ts) AS VARCHAR) AS dow,
                     CAST(hour(ts) AS VARCHAR) AS hr,
                     CASE WHEN CAST(FLOOR(value * 100.0 + 0.5)
                          AS BIGINT) > 5000 THEN 1 ELSE 0 END AS y
              FROM events
            ),
            melt AS (
              SELECT 'event_type' AS feature, event_type AS level, y
                FROM base
              UNION ALL SELECT 'dow', dow, y FROM base
              UNION ALL SELECT 'hour', hr, y FROM base
            ),
            cells AS (
              SELECT feature, level, y, COUNT(*) AS c
              FROM melt GROUP BY feature, level, y
            ),
            m AS (
              SELECT feature, level, y, CAST(c AS DOUBLE) AS c,
                     CAST(SUM(c) OVER (PARTITION BY feature)
                          AS DOUBLE) AS n,
                     CAST(SUM(c) OVER (PARTITION BY feature, level)
                          AS DOUBLE) AS cx,
                     CAST(SUM(c) OVER (PARTITION BY feature, y)
                          AS DOUBLE) AS cy
              FROM cells
            )
            SELECT feature,
                   CAST(COUNT(DISTINCT level) AS BIGINT) AS n_levels,
                   ROUND(SUM((c / n) * LN((c * n) / (cx * cy))), 6) AS mi
            FROM m GROUP BY feature ORDER BY feature
        """,
        # causal z-score: prior moments are exact BIGINT window sums
        # (order-independent), the z is the same float expression the
        # engine evaluates; NULL until ≥2 priors with nonzero spread
        "q_causal_zscore": """
            WITH b AS (
              SELECT event_id, user_id, ts,
                     CAST(FLOOR(value * 100.0 + 0.5) AS BIGINT) AS c
              FROM events
            ),
            w AS (
              SELECT event_id, c,
                     COUNT(c) OVER (
                       PARTITION BY user_id ORDER BY ts, event_id
                       ROWS BETWEEN UNBOUNDED PRECEDING
                       AND 1 PRECEDING) AS n,
                     SUM(c) OVER (
                       PARTITION BY user_id ORDER BY ts, event_id
                       ROWS BETWEEN UNBOUNDED PRECEDING
                       AND 1 PRECEDING) AS s,
                     SUM(c * c) OVER (
                       PARTITION BY user_id ORDER BY ts, event_id
                       ROWS BETWEEN UNBOUNDED PRECEDING
                       AND 1 PRECEDING) AS ss
              FROM b
            )
            SELECT event_id,
                   CASE WHEN n >= 2 AND
                        (CAST(ss AS DOUBLE)
                         - CAST(s AS DOUBLE) * s / n) > 0
                   THEN ROUND((c - CAST(s AS DOUBLE) / n)
                              / SQRT((CAST(ss AS DOUBLE)
                                      - CAST(s AS DOUBLE) * s / n)
                                     / (n - 1)), 6)
                   ELSE NULL END AS z_prior
            FROM w
        """,
        # out-of-fold target encoding: fold stats are exact BIGINT
        # (count, cent-sum); the encoding is ONE mirrored float
        # division over other-fold totals, NULL for a fold that holds
        # the type's every row
        "q_target_encode_cv": """
            WITH b AS (
              SELECT event_id, event_type,
                     CAST(md5_number_lower(CAST(event_id AS VARCHAR)) % 5
                          AS BIGINT) AS fold,
                     CAST(FLOOR(value * 100.0 + 0.5) AS BIGINT) AS c
              FROM events
            ),
            f AS (
              SELECT event_type, fold, COUNT(*) AS n, SUM(c) AS sc
              FROM b GROUP BY event_type, fold
            ),
            t AS (
              SELECT event_type, SUM(n) AS tn, SUM(sc) AS tsc
              FROM f GROUP BY event_type
            )
            SELECT b.event_id,
                   CASE WHEN (t.tn - f.n) > 0
                   THEN ROUND(CAST(t.tsc - f.sc AS DOUBLE)
                              / (t.tn - f.n) / 100.0, 6)
                   ELSE NULL END AS enc_oof
            FROM b
            JOIN f ON b.event_type = f.event_type AND b.fold = f.fold
            JOIN t ON b.event_type = t.event_type
        """,
        # cyclical encoding: same integer hour/dow derivations as the
        # CUBE/MI oracles; trig expressions in the engine's op order
        "q_cyclical_time": """
            WITH b AS (
              SELECT event_id,
                     CAST(hour(ts) AS DOUBLE) AS h,
                     CAST(dayofweek(ts) AS DOUBLE) AS d
              FROM events
            )
            SELECT event_id,
                   ROUND(SIN(2 * PI() * h / 24), 6) AS hour_sin,
                   ROUND(COS(2 * PI() * h / 24), 6) AS hour_cos,
                   ROUND(SIN(2 * PI() * d / 7), 6) AS dow_sin,
                   ROUND(COS(2 * PI() * d / 7), 6) AS dow_cos
            FROM b
        """,
        # distribution-shape moments from EXACT HUGEINT cent power
        # sums; float chain mirrors the engine's op order exactly
        # (+, -, *, /, sqrt only — no pow)
        "q_grouped_moments": """
            WITH c AS (
              SELECT event_type,
                     CAST(FLOOR(value * 100.0 + 0.5) AS HUGEINT) AS v
              FROM events
            ), s AS (
              SELECT event_type, COUNT(*) AS n, SUM(v) AS s1,
                     SUM(v*v) AS s2, SUM(v*v*v) AS s3,
                     SUM((v*v)*(v*v)) AS s4
              FROM c GROUP BY event_type
            ), f AS (
              SELECT event_type, n,
                     CAST(s1 AS DOUBLE) / CAST(n AS DOUBLE) AS m,
                     CAST(s2 AS DOUBLE) / CAST(n AS DOUBLE) AS r2,
                     CAST(s3 AS DOUBLE) / CAST(n AS DOUBLE) AS r3,
                     CAST(s4 AS DOUBLE) / CAST(n AS DOUBLE) AS r4
              FROM s
            ), g AS (
              SELECT event_type, n, m,
                     r2 - m*m AS q2,
                     r3 - 3.0*m*r2 + 2.0*(m*m*m) AS m3,
                     r4 - 4.0*m*r3 + 6.0*(m*m)*r2
                        - 3.0*((m*m)*(m*m)) AS m4
              FROM f
            )
            SELECT event_type, n,
                   ROUND(m / 100.0, 6) AS mean_value,
                   ROUND(SQRT(q2) / 100.0, 6) AS std_value,
                   ROUND(m3 / (q2 * SQRT(q2)), 6) AS skewness,
                   ROUND(m4 / (q2 * q2) - 3.0, 6) AS kurtosis
            FROM g
        """,
        # frequency encoding: one division of two exact counts
        "q_freq_encode": """
            WITH s AS (SELECT event_type, COUNT(*) AS c
                       FROM events GROUP BY event_type),
                 t AS (SELECT COUNT(*) AS n FROM events)
            SELECT e.event_id, e.event_type, s.c AS type_count,
                   CAST(s.c AS DOUBLE) / CAST(t.n AS DOUBLE) AS freq
            FROM events e JOIN s USING (event_type) CROSS JOIN t
        """,
        # long-format one-hot: n x |distinct categories| indicator rows
        "q_onehot": """
            SELECT e.event_id, t.event_type AS category,
                   CAST(e.event_type = t.event_type AS BIGINT) AS ind
            FROM events e
            CROSS JOIN (SELECT DISTINCT event_type FROM events) t
        """,
        # balanced class weights: w_c = n / (k * n_c) over exact counts
        "q_class_weights": """
            WITH s AS (SELECT label, COUNT(*) AS n_label
                       FROM embeddings GROUP BY label),
                 t AS (SELECT COUNT(*) AS n,
                              COUNT(DISTINCT label) AS k FROM embeddings)
            SELECT CAST(s.label AS BIGINT) AS label, s.n_label,
                   CAST(t.n AS DOUBLE)
                     / (CAST(t.k AS DOUBLE)
                        * CAST(s.n_label AS DOUBLE)) AS weight
            FROM s CROSS JOIN t
        """,
        # ordinal encoding by descending mean value (type tiebreak);
        # the mean is ONE division of exact integer sums
        "q_ordinal_encode": """
            WITH s AS (
              SELECT event_type, COUNT(*) AS n,
                     SUM(CAST(FLOOR(value * 100.0 + 0.5) AS BIGINT)) AS s1
              FROM events GROUP BY event_type
            ), r AS (
              SELECT event_type,
                     DENSE_RANK() OVER (
                       ORDER BY CAST(s1 AS DOUBLE) / CAST(n AS DOUBLE)
                           DESC, event_type ASC) AS ord_code
              FROM s
            )
            SELECT e.event_id, e.event_type, r.ord_code
            FROM events e JOIN r USING (event_type)
        """,
        # one-way ANOVA F: exact HUGEINT sums; the cross-group
        # Σ s1_g²/n_g splits into an exact integer quotient + a <1-per-
        # group float residue (order-insensitive below the ulp)
        "q_anova_f": """
            WITH c AS (
              SELECT event_type,
                     CAST(FLOOR(value * 100.0 + 0.5) AS HUGEINT) AS v
              FROM events
            ), g AS (
              SELECT event_type, COUNT(*) AS n_g, SUM(v) AS s1_g,
                     SUM(v*v) AS s2_g
              FROM c GROUP BY event_type
            ), d AS (
              SELECT n_g, s1_g, s2_g,
                     (s1_g * s1_g) // n_g AS q_g,
                     (s1_g * s1_g) % n_g AS r_g
              FROM g
            ), t AS (
              SELECT COUNT(*) AS k, SUM(n_g) AS n, SUM(s1_g) AS s1,
                     SUM(s2_g) AS s2, SUM(q_g) AS q,
                     SUM(CAST(r_g AS DOUBLE) / CAST(n_g AS DOUBLE)) AS res
              FROM d
            ), f AS (
              SELECT k, n,
                     CAST(s2 AS DOUBLE)
                       - (CAST(q AS DOUBLE) + res) AS ssw,
                     (CAST(q AS DOUBLE) + res)
                       - CAST(s1 * s1 AS DOUBLE) / CAST(n AS DOUBLE) AS ssb
              FROM t
            )
            SELECT CAST(k AS BIGINT) AS k, CAST(n AS BIGINT) AS n,
                   ROUND((ssb / CAST(k - 1 AS DOUBLE))
                         / (ssw / CAST(n - k AS DOUBLE)), 6) AS f_stat,
                   ROUND(ssb / (ssb + ssw), 6) AS eta_sq
            FROM f
        """,
        # Cramér's V: same exact-divmod chi² split as q_anova_f
        "q_cramers_v": """
            WITH c0 AS (
              SELECT lang, source, CAST(COUNT(*) AS BIGINT) AS o
              FROM documents GROUP BY lang, source
            ),
            -- full cross product: observed-0 cells still contribute E
            c AS (
              SELECT l.lang, s2.source, COALESCE(c0.o, 0) AS o
              FROM (SELECT DISTINCT lang FROM documents) l
              CROSS JOIN (SELECT DISTINCT source FROM documents) s2
              LEFT JOIN c0 ON c0.lang = l.lang AND c0.source = s2.source
            ),
            r AS (SELECT lang, CAST(SUM(o) AS BIGINT) AS rt
                  FROM c GROUP BY lang),
            s AS (SELECT source, CAST(SUM(o) AS BIGINT) AS ct
                  FROM c GROUP BY source),
            nn AS (SELECT CAST(SUM(o) AS BIGINT) AS n FROM c),
            d AS (
              SELECT (CAST(c.o AS HUGEINT) * n.n
                      - CAST(r.rt AS HUGEINT) * s.ct)
                     * (CAST(c.o AS HUGEINT) * n.n
                        - CAST(r.rt AS HUGEINT) * s.ct) AS num,
                     CAST(n.n AS HUGEINT) * r.rt * s.ct AS den
              FROM c JOIN r USING (lang) JOIN s USING (source), nn n
            ),
            t AS (SELECT SUM(num // den) AS q,
                         SUM(CAST(num % den AS DOUBLE)
                             / CAST(den AS DOUBLE)) AS res FROM d),
            m AS (SELECT COUNT(DISTINCT lang) AS r_cnt,
                         COUNT(DISTINCT source) AS c_cnt FROM c)
            SELECT n.n AS n,
                   CAST((m.r_cnt - 1) * (m.c_cnt - 1) AS BIGINT) AS dof,
                   ROUND(CAST(t.q AS DOUBLE) + t.res, 6) AS chi2,
                   ROUND(SQRT(((CAST(t.q AS DOUBLE) + t.res)
                               / CAST(n.n AS DOUBLE))
                              / CAST(LEAST(m.r_cnt, m.c_cnt) - 1
                                     AS DOUBLE)), 6) AS cramers_v
            FROM t, m, nn n
        """,
        # equal-width bins: pure integer cent arithmetic, edge-stable
        "q_equal_width_bins": """
            WITH c AS (
              SELECT CAST(FLOOR(value * 100.0 + 0.5) AS BIGINT) AS v
              FROM events
            ), b AS (
              SELECT MIN(v) AS lo, MAX(v) - MIN(v) + 1 AS span FROM c
            ), a AS (
              SELECT (v - b.lo) * 10 // b.span AS bin FROM c, b
            ), g AS (
              SELECT bin, COUNT(*) AS n FROM a GROUP BY bin
            )
            SELECT g.bin, g.n,
                   CAST(b.lo + (g.bin * b.span + 9) // 10 AS DOUBLE)
                     / 100.0 AS lo_value,
                   CAST(b.lo + ((g.bin + 1) * b.span + 9) // 10 - 1
                        AS DOUBLE) / 100.0 AS hi_value
            FROM g, b
        """,
        # per-decile purchase rate (exact NTILE + one count division)
        "q_calibration": """
            WITH t AS (
              SELECT event_type,
                     NTILE(10) OVER (ORDER BY value, event_id) AS decile
              FROM events
            )
            SELECT decile, COUNT(*) AS n,
                   CAST(SUM(CASE WHEN event_type = 'purchase'
                            THEN 1 ELSE 0 END) AS BIGINT) AS purchases,
                   CAST(SUM(CASE WHEN event_type = 'purchase'
                                 THEN 1 ELSE 0 END) AS DOUBLE)
                     / CAST(COUNT(*) AS DOUBLE) AS rate
            FROM t GROUP BY decile
        """,
        # rolling 5-row median on integer cents (interpolated middle
        # pair is an exact half-integer — no float drift)
        "q_rolling_median": """
            SELECT event_id,
                   ROUND(MEDIAN(CAST(FLOOR(value * 100.0 + 0.5)
                                     AS BIGINT)) OVER (
                     PARTITION BY user_id ORDER BY ts, event_id
                     ROWS BETWEEN 4 PRECEDING AND CURRENT ROW)
                     / 100.0, 6) AS roll_med
            FROM events
        """,
        # Welch's t between the md5 train/test splits: exact cent sums
        # per split, float chain mirrored op-for-op
        "q_feature_ttest": f"""
            WITH s AS (
              SELECT CASE WHEN md5_number_lower(CAST(event_id AS VARCHAR))
                               % 65536 < {{ct}} THEN 'train'
                          WHEN md5_number_lower(CAST(event_id AS VARCHAR))
                               % 65536 < {{cv}} THEN 'val'
                          ELSE 'test' END AS split,
                     CAST(FLOOR(value * 100.0 + 0.5) AS BIGINT) AS v
              FROM events
            ), g AS (
              SELECT split, COUNT(*) AS n, SUM(v) AS s1, SUM(v*v) AS s2
              FROM s WHERE split IN ('train', 'test') GROUP BY split
            ), p AS (
              SELECT MAX(CASE WHEN split = 'train' THEN n END) AS n1,
                     MAX(CASE WHEN split = 'train' THEN s1 END) AS a1,
                     MAX(CASE WHEN split = 'train' THEN s2 END) AS b1,
                     MAX(CASE WHEN split = 'test' THEN n END) AS n2,
                     MAX(CASE WHEN split = 'test' THEN s1 END) AS a2,
                     MAX(CASE WHEN split = 'test' THEN s2 END) AS b2
              FROM g
            ), f AS (
              SELECT n1, n2,
                     CAST(a1 AS DOUBLE) / CAST(n1 AS DOUBLE) AS m1,
                     CAST(a2 AS DOUBLE) / CAST(n2 AS DOUBLE) AS m2,
                     (CAST(b1 AS DOUBLE)
                      - CAST(a1 * a1 AS DOUBLE) / CAST(n1 AS DOUBLE))
                       / CAST(n1 - 1 AS DOUBLE)
                       / CAST(n1 AS DOUBLE) AS se1,
                     (CAST(b2 AS DOUBLE)
                      - CAST(a2 * a2 AS DOUBLE) / CAST(n2 AS DOUBLE))
                       / CAST(n2 - 1 AS DOUBLE)
                       / CAST(n2 AS DOUBLE) AS se2
              FROM p
            )
            SELECT CAST(n1 AS BIGINT) AS n_train,
                   CAST(n2 AS BIGINT) AS n_test,
                   ROUND(m1 / 100.0, 6) AS mean_train,
                   ROUND(m2 / 100.0, 6) AS mean_test,
                   ROUND((m1 - m2) / SQRT(se1 + se2), 6) AS t_stat,
                   ROUND((se1 + se2) * (se1 + se2)
                         / (se1 * se1 / CAST(n1 - 1 AS DOUBLE)
                            + se2 * se2 / CAST(n2 - 1 AS DOUBLE)),
                         6) AS welch_dof
            FROM f
        """.format(ct=_cut_train, cv=_cut_val),
        # per-user daily-count OLS slope from exact int64 moments
        "q_activity_slope": """
            WITH d AS (
              SELECT user_id, epoch_us(ts) // 86400000000 AS day,
                     CAST(COUNT(*) AS BIGINT) AS c
              FROM events
              GROUP BY user_id, epoch_us(ts) // 86400000000
            ), m AS (
              SELECT user_id, CAST(COUNT(*) AS BIGINT) AS n_days,
                     SUM(day) AS sx, SUM(c) AS sy,
                     SUM(day * c) AS sxy, SUM(day * day) AS sxx
              FROM d GROUP BY user_id HAVING COUNT(*) >= 2
            )
            SELECT user_id, n_days,
                   ROUND(CAST(n_days * sxy - sx * sy AS DOUBLE)
                         / CAST(n_days * sxx - sx * sx AS DOUBLE),
                         6) AS slope
            FROM m
        """,
        # rare-category consolidation: exact integer 0.5% cutoff
        "q_rare_categories": """
            WITH c AS (SELECT user_id, COUNT(*) AS n
                       FROM events GROUP BY user_id),
                 t AS (SELECT COUNT(*) AS total FROM events)
            SELECT e.event_id,
                   CASE WHEN c.n >= t.total * 5 // 1000
                        THEN CAST(e.user_id AS VARCHAR)
                        ELSE '__other__' END AS user_cat
            FROM events e JOIN c USING (user_id) CROSS JOIN t
        """,
        # global StandardScaler: sample std from exact cent sums
        "q_standard_scale": """
            WITH c AS (
              SELECT event_id, FLOOR(value * 100.0 + 0.5) AS cf,
                     CAST(FLOOR(value * 100.0 + 0.5) AS BIGINT) AS v
              FROM events
            ), s AS (
              SELECT COUNT(*) AS n, SUM(v) AS s1, SUM(v * v) AS s2
              FROM c
            ), f AS (
              SELECT CAST(s1 AS DOUBLE) / CAST(n AS DOUBLE) AS m,
                     SQRT((CAST(s2 AS DOUBLE)
                           - CAST(s1 * s1 AS DOUBLE) / CAST(n AS DOUBLE))
                          / CAST(n - 1 AS DOUBLE)) AS sd
              FROM s
            )
            SELECT c.event_id, ROUND((c.cf - f.m) / f.sd, 6) AS z_value
            FROM c, f
        """,
        # user × type preference profile: share = n / user_total
        "q_user_type_profile": """
            WITH c AS (
              SELECT user_id, event_type, CAST(COUNT(*) AS BIGINT) AS n
              FROM events GROUP BY user_id, event_type
            ), t AS (
              SELECT user_id, CAST(SUM(n) AS BIGINT) AS tot
              FROM c GROUP BY user_id
            )
            SELECT c.user_id, c.event_type, c.n,
                   CAST(c.n AS DOUBLE) / CAST(t.tot AS DOUBLE) AS share
            FROM c JOIN t USING (user_id)
        """,
        # degree-2 polynomial expansion (single IEEE products per row)
        "q_poly_features": """
            SELECT event_id,
                   value * value AS value_sq,
                   value * CAST(hour(ts) AS DOUBLE) AS value_x_hour,
                   CAST(hour(ts) AS DOUBLE)
                     * CAST(hour(ts) AS DOUBLE) AS hour_sq
            FROM events
        """,
        # calendar feature bundle (row-local integer arithmetic)
        "q_date_parts": """
            SELECT event_id,
                   CAST(day(ts) AS BIGINT) AS day,
                   CAST(month(ts) AS BIGINT) AS month,
                   (epoch_us(ts) // 86400000000 + 4) // 7 AS week,
                   CAST(CASE WHEN (epoch_us(ts) // 86400000000 + 4) % 7
                                  IN (0, 6)
                             THEN 1 ELSE 0 END AS BIGINT) AS is_weekend,
                   CAST(day(last_day(ts)) - day(ts) AS BIGINT)
                     AS days_to_month_end
            FROM events
        """,
        # per-user lag-1 percent change on exact cents
        "q_pct_change": """
            WITH w AS (
              SELECT event_id,
                     CAST(FLOOR(value * 100.0 + 0.5) AS BIGINT) AS c,
                     LAG(CAST(FLOOR(value * 100.0 + 0.5) AS BIGINT))
                       OVER (PARTITION BY user_id
                             ORDER BY ts, event_id) AS p
              FROM events
            )
            SELECT event_id,
                   CASE WHEN p IS NULL OR p = 0 THEN NULL
                        ELSE (CAST(c AS DOUBLE) - CAST(p AS DOUBLE))
                             / CAST(p AS DOUBLE)
                   END AS pct_change
            FROM w
        """,
        # per-user exact running total (window SUM of cents)
        "q_running_total": """
            SELECT event_id,
                   CAST(SUM(CAST(FLOOR(value * 100.0 + 0.5) AS BIGINT))
                          OVER (PARTITION BY user_id
                                ORDER BY ts, event_id
                                ROWS BETWEEN UNBOUNDED PRECEDING
                                         AND CURRENT ROW) AS DOUBLE)
                     / 100.0 AS running_total
            FROM events
        """,
        # exact KS over the bounded integer-cent support: per-point
        # float terms on exact cumsums; MAX is order-free
        "q_ks_drift": f"""
            WITH s AS (
              SELECT CASE WHEN md5_number_lower(CAST(event_id AS VARCHAR))
                               % 65536 < {{ct}} THEN 'train'
                          WHEN md5_number_lower(CAST(event_id AS VARCHAR))
                               % 65536 < {{cv}} THEN 'val'
                          ELSE 'test' END AS split,
                     CAST(FLOOR(value * 100.0 + 0.5) AS BIGINT) AS v
              FROM events
            ), f AS (
              SELECT split, v, CAST(COUNT(*) AS BIGINT) AS c
              FROM s WHERE split IN ('train', 'test') GROUP BY split, v
            ), t AS (
              SELECT v,
                     SUM(CASE WHEN split = 'train' THEN c ELSE 0 END) AS ct,
                     SUM(CASE WHEN split = 'test' THEN c ELSE 0 END) AS cs
              FROM f GROUP BY v
            ), n AS (
              SELECT CAST(SUM(ct) AS BIGINT) AS n1,
                     CAST(SUM(cs) AS BIGINT) AS n2 FROM t
            ), cum AS (
              SELECT v,
                     CAST(SUM(ct) OVER (ORDER BY v) AS BIGINT) AS a,
                     CAST(SUM(cs) OVER (ORDER BY v) AS BIGINT) AS b
              FROM t
            )
            SELECT n.n1 AS n_train, n.n2 AS n_test,
                   MAX(ABS(CAST(cum.a AS DOUBLE) / CAST(n.n1 AS DOUBLE)
                           - CAST(cum.b AS DOUBLE)
                             / CAST(n.n2 AS DOUBLE))) AS ks_stat
            FROM cum, n GROUP BY n.n1, n.n2
        """.format(ct=_cut_train, cv=_cut_val),
        # dow × hour seasonality matrix; mean from exact cent sums
        "q_hist2d": """
            WITH c AS (
              SELECT (epoch_us(ts) // 86400000000 + 4) % 7 AS dow,
                     (epoch_us(ts) % 86400000000) // 3600000000 AS hour,
                     CAST(FLOOR(value * 100.0 + 0.5) AS BIGINT) AS v
              FROM events
            )
            SELECT dow, hour, CAST(COUNT(*) AS BIGINT) AS n,
                   ROUND(CAST(SUM(v) AS DOUBLE)
                         / CAST(COUNT(*) AS DOUBLE) / 100.0, 6)
                     AS mean_value
            FROM c GROUP BY dow, hour
        """,
        # pairwise Pearson from exact HUGEINT cross-moments; each term
        # crosses to float with one correctly-rounded cast
        "q_corr_matrix": """
            WITH c AS (
              SELECT CAST(FLOOR(value * 100.0 + 0.5) AS BIGINT) AS x,
                     (epoch_us(ts) % 86400000000) // 3600000000 AS y,
                     (epoch_us(ts) // 86400000000 + 4) % 7 AS z
              FROM events
            ), s AS (
              SELECT CAST(COUNT(*) AS HUGEINT) AS n,
                     CAST(SUM(x) AS HUGEINT) AS sx,
                     CAST(SUM(y) AS HUGEINT) AS sy,
                     CAST(SUM(z) AS HUGEINT) AS sz,
                     CAST(SUM(x*x) AS HUGEINT) AS sxx,
                     CAST(SUM(y*y) AS HUGEINT) AS syy,
                     CAST(SUM(z*z) AS HUGEINT) AS szz,
                     CAST(SUM(x*y) AS HUGEINT) AS sxy,
                     CAST(SUM(x*z) AS HUGEINT) AS sxz,
                     CAST(SUM(y*z) AS HUGEINT) AS syz
              FROM c
            )
            SELECT * FROM (
              SELECT 'value' AS feat_a, 'hour' AS feat_b,
                     CAST(n*sxy - sx*sy AS DOUBLE)
                       / SQRT(CAST(n*sxx - sx*sx AS DOUBLE)
                              * CAST(n*syy - sy*sy AS DOUBLE)) AS corr
              FROM s
              UNION ALL
              SELECT 'value', 'dow',
                     CAST(n*sxz - sx*sz AS DOUBLE)
                       / SQRT(CAST(n*sxx - sx*sx AS DOUBLE)
                              * CAST(n*szz - sz*sz AS DOUBLE))
              FROM s
              UNION ALL
              SELECT 'hour', 'dow',
                     CAST(n*syz - sy*sz AS DOUBLE)
                       / SQRT(CAST(n*syy - sy*sy AS DOUBLE)
                              * CAST(n*szz - sz*sz AS DOUBLE))
              FROM s
            )
        """,
        # VarianceThreshold screen from exact sums (one division each)
        "q_variance_filter": """
            WITH c AS (
              SELECT CAST(FLOOR(value * 100.0 + 0.5) AS BIGINT) AS v,
                     (epoch_us(ts) % 86400000000) // 3600000000 AS h,
                     (epoch_us(ts) // 86400000000 + 4) % 7 AS d
              FROM events
            ), c2 AS (
              SELECT v, h, d,
                     CASE WHEN d IN (0, 6) THEN 1 ELSE 0 END AS w
              FROM c
            ), s AS (
              SELECT CAST(COUNT(*) AS HUGEINT) AS n,
                     CAST(SUM(v) AS HUGEINT) AS sv,
                     CAST(SUM(v*v) AS HUGEINT) AS svv,
                     CAST(SUM(h) AS HUGEINT) AS sh,
                     CAST(SUM(h*h) AS HUGEINT) AS shh,
                     CAST(SUM(d) AS HUGEINT) AS sd,
                     CAST(SUM(d*d) AS HUGEINT) AS sdd,
                     CAST(SUM(w) AS HUGEINT) AS sw,
                     CAST(SUM(w*w) AS HUGEINT) AS sww
              FROM c2
            )
            SELECT * FROM (
              SELECT 'value' AS feature,
                     CAST(n*svv - sv*sv AS DOUBLE)
                       / CAST(n*(n-1) AS DOUBLE) / 10000.0 AS variance,
                     CAST(CAST(n*svv - sv*sv AS DOUBLE)
                          / CAST(n*(n-1) AS DOUBLE) / 10000.0
                          > 0.01 AS BIGINT) AS keep
              FROM s
              UNION ALL
              SELECT 'hour',
                     CAST(n*shh - sh*sh AS DOUBLE)
                       / CAST(n*(n-1) AS DOUBLE),
                     CAST(CAST(n*shh - sh*sh AS DOUBLE)
                          / CAST(n*(n-1) AS DOUBLE) > 0.01 AS BIGINT)
              FROM s
              UNION ALL
              SELECT 'dow',
                     CAST(n*sdd - sd*sd AS DOUBLE)
                       / CAST(n*(n-1) AS DOUBLE),
                     CAST(CAST(n*sdd - sd*sd AS DOUBLE)
                          / CAST(n*(n-1) AS DOUBLE) > 0.01 AS BIGINT)
              FROM s
              UNION ALL
              SELECT 'is_weekend',
                     CAST(n*sww - sw*sw AS DOUBLE)
                       / CAST(n*(n-1) AS DOUBLE),
                     CAST(CAST(n*sww - sw*sw AS DOUBLE)
                          / CAST(n*(n-1) AS DOUBLE) > 0.01 AS BIGINT)
              FROM s
            )
        """,
        # exact Spearman: doubled average ranks over bounded support
        # (integers), Pearson chain on exact HUGEINT moments
        "q_spearman": """
            WITH e AS (
              SELECT CAST(FLOOR(value * 100.0 + 0.5) AS BIGINT) AS v,
                     (epoch_us(ts) % 86400000000) // 3600000000 AS h
              FROM events
            ), rv AS (
              SELECT v, CAST(COUNT(*) AS BIGINT) AS c FROM e GROUP BY v
            ), rv2 AS (
              SELECT v, 2 * (SUM(c) OVER (ORDER BY v) - c) + c + 1 AS r2
              FROM rv
            ), rh AS (
              SELECT h, CAST(COUNT(*) AS BIGINT) AS c FROM e GROUP BY h
            ), rh2 AS (
              SELECT h, 2 * (SUM(c) OVER (ORDER BY h) - c) + c + 1 AS r2
              FROM rh
            ), j AS (
              SELECT rv2.r2 AS x, rh2.r2 AS y
              FROM e JOIN rv2 USING (v) JOIN rh2 USING (h)
            ), s AS (
              SELECT CAST(COUNT(*) AS HUGEINT) AS n,
                     CAST(SUM(x) AS HUGEINT) AS sx,
                     CAST(SUM(y) AS HUGEINT) AS sy,
                     CAST(SUM(x*x) AS HUGEINT) AS sxx,
                     CAST(SUM(y*y) AS HUGEINT) AS syy,
                     CAST(SUM(x*y) AS HUGEINT) AS sxy
              FROM j
            )
            SELECT CAST(n AS BIGINT) AS n,
                   CAST(n*sxy - sx*sy AS DOUBLE)
                     / SQRT(CAST(n*sxx - sx*sx AS DOUBLE)
                            * CAST(n*syy - sy*sy AS DOUBLE)) AS spearman
            FROM s
        """,
        # PSI between the md5 splits: same bins/smoothing as psi_drift
        "q_psi_split": f"""
            WITH e AS (
              SELECT CASE WHEN md5_number_lower(CAST(event_id AS VARCHAR))
                               % 65536 < {{ct}} THEN 'train'
                          WHEN md5_number_lower(CAST(event_id AS VARCHAR))
                               % 65536 < {{cv}} THEN 'val'
                          ELSE 'test' END AS split,
                     LEAST(GREATEST(CAST(FLOOR(value * 100.0 + 0.5)
                                    AS BIGINT) // 5000, 0), 9) AS bin
              FROM events
            ), grid AS (
              SELECT s.split, b.bin
              FROM (SELECT unnest(['train', 'test']) AS split) s,
                   (SELECT unnest(range(10)) AS bin) b
            ), c AS (
              SELECT g.split, g.bin, COALESCE(x.cnt, 0) AS cnt
              FROM grid g LEFT JOIN (
                SELECT split, bin, COUNT(*) AS cnt FROM e
                WHERE split IN ('train', 'test') GROUP BY split, bin
              ) x ON g.split = x.split AND g.bin = x.bin
            ), n AS (
              SELECT CAST(SUM(CASE WHEN split = 'train' THEN cnt
                                   ELSE 0 END) AS BIGINT) AS n1,
                     CAST(SUM(CASE WHEN split = 'test' THEN cnt
                                   ELSE 0 END) AS BIGINT) AS n2
              FROM c
            ), pq AS (
              SELECT c1.bin,
                     CAST(c1.cnt + 1 AS DOUBLE)
                       / CAST(n.n1 + 10 AS DOUBLE) AS p,
                     CAST(c2.cnt + 1 AS DOUBLE)
                       / CAST(n.n2 + 10 AS DOUBLE) AS q
              FROM c c1 JOIN c c2 ON c1.bin = c2.bin, n
              WHERE c1.split = 'train' AND c2.split = 'test'
            )
            SELECT n.n1 AS n_train, n.n2 AS n_test,
                   SUM((q - p) * ln(q / p)) AS psi
            FROM pq, n GROUP BY n.n1, n.n2
        """.format(ct=_cut_train, cv=_cut_val),
        # exact AUC: Mann-Whitney rank sum on doubled average ranks;
        # integer throughout, one float division
        "q_auc": """
            WITH e AS (
              SELECT CAST(FLOOR(value * 100.0 + 0.5) AS BIGINT) AS v,
                     CASE WHEN event_type = 'purchase'
                          THEN 1 ELSE 0 END AS y
              FROM events
            ), c AS (
              SELECT v, CAST(COUNT(*) AS BIGINT) AS c,
                     CAST(SUM(y) AS BIGINT) AS cp
              FROM e GROUP BY v
            ), r AS (
              SELECT v, cp,
                     2 * (SUM(c) OVER (ORDER BY v) - c) + c + 1 AS r2
              FROM c
            ), s AS (
              SELECT CAST(SUM(cp * r2) AS HUGEINT) AS s2,
                     CAST(SUM(cp) AS HUGEINT) AS n1,
                     (SELECT CAST(COUNT(*) AS HUGEINT) FROM e) AS n
              FROM r
            )
            SELECT CAST(n1 AS BIGINT) AS n_pos,
                   CAST(n - n1 AS BIGINT) AS n_neg,
                   CAST(s2 - n1 * (n1 + 1) AS DOUBLE)
                     / CAST(2 * n1 * (n - n1) AS DOUBLE) AS auc
            FROM s
        """,
        # cumulative gains/lift from the top value decile down
        "q_lift_curve": """
            WITH t AS (
              SELECT event_type,
                     NTILE(10) OVER (ORDER BY value, event_id) AS decile
              FROM events
            ), g AS (
              SELECT decile, CAST(COUNT(*) AS BIGINT) AS n,
                     CAST(SUM(CASE WHEN event_type = 'purchase'
                                   THEN 1 ELSE 0 END) AS BIGINT)
                       AS purchases
              FROM t GROUP BY decile
            ), c AS (
              SELECT 11 - decile AS bucket,
                     CAST(SUM(n) OVER (ORDER BY decile DESC)
                          AS BIGINT) AS cum_n,
                     CAST(SUM(purchases) OVER (ORDER BY decile DESC)
                          AS BIGINT) AS cum_purchases
              FROM g
            ), tot AS (
              SELECT CAST(COUNT(*) AS BIGINT) AS tn,
                     CAST(SUM(CASE WHEN event_type = 'purchase'
                                   THEN 1 ELSE 0 END) AS BIGINT) AS tp
              FROM t
            )
            SELECT c.bucket, c.cum_n, c.cum_purchases,
                   CAST(c.cum_purchases AS DOUBLE)
                     / CAST(tot.tp AS DOUBLE) AS gain,
                   (CAST(c.cum_purchases AS DOUBLE)
                      / CAST(tot.tp AS DOUBLE))
                     / (CAST(c.cum_n AS DOUBLE)
                          / CAST(tot.tn AS DOUBLE)) AS lift
            FROM c, tot
        """,
        "q_sorted_neighborhood": """
            WITH ranked AS (
              SELECT doc_id,
                     substr(regexp_replace(lower(text), '[^a-z0-9]', '',
                                           'g'), 1, 12) AS key,
                     row_number() OVER (
                       ORDER BY substr(regexp_replace(lower(text),
                                                      '[^a-z0-9]', '', 'g'),
                                       1, 12), doc_id) - 1 AS r
              FROM documents
            )
            SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
                   CAST(b.r - a.r AS BIGINT) AS gap,
                   CAST(levenshtein(a.key, b.key) AS BIGINT) AS edit
            FROM ranked a JOIN ranked b
              ON b.r > a.r AND b.r - a.r < 8
            WHERE levenshtein(a.key, b.key) <= 2
        """,
        "q_l_diversity": """
            WITH cells AS (
              SELECT lang, source, n_chars // 256 AS sb,
                     CAST(COUNT(*) AS BIGINT) AS n
              FROM documents GROUP BY lang, source, sb
            ), cls AS (
              SELECT lang, source, CAST(COUNT(*) AS BIGINT) AS l,
                     CAST(SUM(n) AS BIGINT) AS n
              FROM cells GROUP BY lang, source
            )
            SELECT CAST(t.l_thr AS BIGINT) AS l_threshold,
                   CAST(COALESCE(SUM(CASE WHEN cls.l < t.l_thr
                                          THEN cls.n END), 0) AS BIGINT)
                     AS n_at_risk,
                   CAST(COUNT(*) AS BIGINT) AS n_classes,
                   CAST(MIN(cls.l) AS BIGINT) AS min_l
            FROM (VALUES (2), (3), (5)) t(l_thr) CROSS JOIN cls
            GROUP BY t.l_thr
        """,
        # t-closeness: ordered-bucket EMD on the exact common
        # denominator n_c·N; the |cum| window sum is over int64 terms
        # and the final emd_ppm is one integer floor division — float-
        # free on both engines
        "q_t_closeness": """
            WITH cells AS (
              SELECT lang, source, n_chars // 256 AS sb,
                     CAST(COUNT(*) AS BIGINT) AS n
              FROM documents GROUP BY lang, source, sb
            ), tot AS (
              SELECT sb, CAST(SUM(n) AS BIGINT) AS nb
              FROM cells GROUP BY sb
            ), consts AS (
              SELECT CAST(SUM(nb) AS BIGINT) AS n_all,
                     CAST(COUNT(*) AS BIGINT) AS b
              FROM tot
            ), cls AS (
              SELECT lang, source, CAST(SUM(n) AS BIGINT) AS nc
              FROM cells GROUP BY lang, source
            ), grid AS (
              SELECT c.lang, c.source, c.nc, t.sb, t.nb,
                     COALESCE(x.n, 0) AS ncb
              FROM cls c CROSS JOIN tot t
              LEFT JOIN cells x
                ON x.lang = c.lang AND x.source = c.source
               AND x.sb = t.sb
            ), cum AS (
              SELECT lang, source, nc,
                     SUM(ncb * (SELECT n_all FROM consts) - nb * nc)
                       OVER (PARTITION BY lang, source
                             ORDER BY sb) AS cd
              FROM grid
            )
            SELECT lang, source,
                   CAST(nc AS BIGINT) AS n_docs,
                   CAST(CASE WHEN (SELECT b FROM consts) <= 1 THEN 0
                        ELSE SUM(ABS(cd)) * 1000000
                             // (nc * (SELECT n_all FROM consts)
                                 * ((SELECT b FROM consts) - 1))
                        END AS BIGINT) AS emd_ppm
            FROM cum GROUP BY lang, source, nc
        """,
        "q_xcorr_daily": """
            WITH bounds AS (
              SELECT CAST(MIN(ts) AS DATE) AS d0,
                     CAST(MAX(ts) AS DATE) AS d1
              FROM events
            ), cal AS (
              SELECT unnest(generate_series(d0, d1,
                                            INTERVAL 1 DAY))::DATE AS day
              FROM bounds
            ), c AS (
              SELECT CAST(ts AS DATE) AS day,
                     SUM(CASE WHEN event_type = 'click'
                              THEN 1 ELSE 0 END) AS nx,
                     SUM(CASE WHEN event_type = 'purchase'
                              THEN 1 ELSE 0 END) AS ny
              FROM events GROUP BY 1
            ), s AS (
              SELECT cal.day,
                     CAST(COALESCE(c.nx, 0) AS DOUBLE) AS x,
                     CAST(COALESCE(c.ny, 0) AS DOUBLE) AS y
              FROM cal LEFT JOIN c ON c.day = cal.day
            )
            SELECT CAST(t.k AS BIGINT) AS lag_days,
                   CAST(COUNT(*) AS BIGINT) AS n_days,
                   ROUND(corr(a.x, b.y), 6) AS xcorr
            FROM (VALUES (0), (1), (2), (3)) t(k)
            JOIN s a ON TRUE
            JOIN s b ON b.day = a.day + t.k
            GROUP BY t.k
        """,
        "q_shard_plan": """
            WITH pre AS (
              SELECT n_chars,
                     (SUM(n_chars) OVER (ORDER BY doc_id
                        ROWS UNBOUNDED PRECEDING) - n_chars) // 4096
                       AS shard
              FROM documents
            )
            SELECT CAST(shard AS BIGINT) AS shard,
                   CAST(COUNT(*) AS BIGINT) AS n_docs,
                   CAST(SUM(n_chars) AS BIGINT) AS total_chars
            FROM pre GROUP BY shard
        """,
        "q_interval_union": """
            WITH iv AS (
              SELECT user_id, event_id, CAST(epoch_us(ts) AS BIGINT) AS s,
                     CAST(epoch_us(ts) AS BIGINT)
                       + CAST(ROUND(value * 1e6) AS BIGINT) AS e
              FROM events
            ), m AS (
              SELECT *, MAX(e) OVER (PARTITION BY user_id
                        ORDER BY s, event_id
                        ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING)
                        AS pme
              FROM iv
            ), isl AS (
              SELECT *, SUM(CASE WHEN pme IS NULL OR s > pme
                                 THEN 1 ELSE 0 END)
                        OVER (PARTITION BY user_id ORDER BY s, event_id)
                        AS island
              FROM m
            ), g AS (
              SELECT user_id, island, MAX(e) - MIN(s) AS len,
                     COUNT(*) AS ne
              FROM isl GROUP BY 1, 2
            )
            SELECT user_id, CAST(SUM(len) AS BIGINT) AS covered_us,
                   CAST(COUNT(*) AS BIGINT) AS n_intervals,
                   CAST(SUM(ne) AS BIGINT) AS n_events
            FROM g GROUP BY 1
        """,
        "q_kmv_distinct": """
            WITH h AS (
              SELECT DISTINCT event_type,
                     md5_number_lower(CAST(user_id AS VARCHAR)) AS hv
              FROM events
            ), r AS (
              SELECT event_type, hv,
                     row_number() OVER (PARTITION BY event_type
                                        ORDER BY hv) AS rn,
                     COUNT(*) OVER (PARTITION BY event_type) AS d
              FROM h
            )
            SELECT event_type,
                   CAST(LEAST(d, 16) AS BIGINT) AS n_kept,
                   ROUND(CAST(MAX(CASE WHEN rn = LEAST(d, 16) THEN hv END)
                              AS DOUBLE) / 18446744073709551616.0, 9)
                     AS kth_norm,
                   CASE WHEN d < 16 THEN CAST(d AS DOUBLE)
                        ELSE ROUND(15.0 /
                          (CAST(MAX(CASE WHEN rn = LEAST(d, 16) THEN hv END)
                                AS DOUBLE) / 18446744073709551616.0), 6)
                   END AS est_distinct
            FROM r GROUP BY event_type, d
        """,
        "q_js_divergence": """
            WITH lohi AS (
              SELECT MIN(n_chars) AS lo,
                     MAX(n_chars) - MIN(n_chars) + 1 AS width
              FROM documents
            ), b AS (
              SELECT source, (n_chars - lo) * 16 // width AS bin,
                     COUNT(*) AS n
              FROM documents, lohi GROUP BY 1, 2
            ), tot AS (
              SELECT source, SUM(n) AS ns FROM b GROUP BY 1
            ), grid AS (
              SELECT s.source, g.bin
              FROM (SELECT DISTINCT source FROM b) s,
                   (SELECT UNNEST(range(16)) AS bin) g
            ), dense AS (
              SELECT grid.source, grid.bin, COALESCE(b.n, 0) AS n
              FROM grid LEFT JOIN b
                ON b.source = grid.source AND b.bin = grid.bin
            ), p AS (
              SELECT dense.source, bin, CAST(n AS DOUBLE) / ns AS pr, ns
              FROM dense JOIN tot ON tot.source = dense.source
            ), pairs AS (
              SELECT a.source AS source_a, b.source AS source_b,
                     a.bin, a.pr AS pa, b.pr AS pb,
                     a.ns AS na, b.ns AS nb
              FROM p a JOIN p b ON a.bin = b.bin AND a.source < b.source
            )
            -- list_sum over an ORDER BY bin list fixes the summation
            -- order to match the engine's sequential ascending-bin
            -- accumulation (plain SUM order is unspecified)
            SELECT source_a, source_b,
                   CAST(MAX(na) AS BIGINT) AS n_a,
                   CAST(MAX(nb) AS BIGINT) AS n_b,
                   ROUND(list_sum(list(
                     CASE WHEN pa > 0
                          THEN 0.5 * pa * log2(pa / (0.5 * (pa + pb)))
                          ELSE 0 END
                   + CASE WHEN pb > 0
                          THEN 0.5 * pb * log2(pb / (0.5 * (pa + pb)))
                          ELSE 0 END ORDER BY bin)), 6) AS js_div
            FROM pairs GROUP BY 1, 2
        """,
        "q_discounted_return": """
            WITH o AS (
              SELECT user_id, CAST(ROUND(value * 100) AS BIGINT) AS vc,
                     row_number() OVER (PARTITION BY user_id
                                        ORDER BY ts, event_id) - 1 AS rn
              FROM events
            )
            SELECT a.user_id, a.rn,
                   CAST(SUM(b.vc
                        * CAST(POW(9, b.rn - a.rn) AS BIGINT)
                        * CAST(POW(10, 7 - (b.rn - a.rn)) AS BIGINT))
                        AS BIGINT) AS ret_scaled
            FROM o a JOIN o b
              ON b.user_id = a.user_id AND b.rn BETWEEN a.rn AND a.rn + 7
            GROUP BY 1, 2
        """,
        # exact largest-remainder stratified sample: allocation and
        # remainder ranking are exact integer arithmetic; in-stratum
        # order is the same full-width md5 used by q_bottomk_sample
        "q_proportional_sample": """
            WITH n AS (
              SELECT source, CAST(COUNT(*) AS BIGINT) AS ns
              FROM documents GROUP BY source
            ), tot AS (
              SELECT CAST(SUM(ns) AS BIGINT) AS n FROM n
            ), base AS (
              SELECT source, ns,
                     ns * 200 // (SELECT n FROM tot) AS b,
                     ns * 200 % (SELECT n FROM tot) AS rem
              FROM n
            ), extra AS (
              SELECT source, b,
                     CASE WHEN row_number() OVER (ORDER BY rem DESC,
                                                  source)
                          <= 200 - (SELECT SUM(b) FROM base)
                          THEN 1 ELSE 0 END AS e
              FROM base
            ), alloc AS (
              SELECT source, b + e AS k_s FROM extra
            ), ranked AS (
              SELECT source, doc_id,
                     row_number() OVER (
                       PARTITION BY source
                       ORDER BY md5_number_lower(CAST(doc_id AS VARCHAR)),
                                doc_id) AS rnk
              FROM documents
            )
            SELECT r.source, r.doc_id,
                   CAST(r.rnk AS BIGINT) AS rank_in_source
            FROM ranked r JOIN alloc a ON a.source = r.source
            WHERE r.rnk <= a.k_s
        """,
        "q_bottomk_sample": """
            SELECT CAST(row_number() OVER (
                     ORDER BY md5_number_lower(CAST(doc_id AS VARCHAR)),
                              doc_id) AS BIGINT) AS rank,
                   doc_id
            FROM documents
            QUALIFY rank <= 64
        """,
        "q_unpivot_metrics": """
            SELECT l_orderkey, l_linenumber, 'l_quantity' AS metric,
                   l_quantity AS value FROM lineitem
            UNION ALL
            SELECT l_orderkey, l_linenumber, 'l_extendedprice',
                   l_extendedprice FROM lineitem
            UNION ALL
            SELECT l_orderkey, l_linenumber, 'l_discount',
                   l_discount FROM lineitem
            UNION ALL
            SELECT l_orderkey, l_linenumber, 'l_tax',
                   l_tax FROM lineitem
        """,
        "q_daily_ffill": """
            WITH d AS (
              SELECT user_id,
                     CAST(epoch_us(ts) // 86400000000 AS BIGINT) AS day,
                     SUM(CAST(ROUND(value * 100) AS BIGINT)) AS cents
              FROM events GROUP BY 1, 2
            ), spans AS (
              SELECT user_id, MIN(day) AS lo, MAX(day) AS hi
              FROM d GROUP BY 1
            ), grid AS (
              SELECT user_id, UNNEST(range(lo, hi + 1)) AS day
              FROM spans
            )
            SELECT grid.user_id, CAST(grid.day AS BIGINT) AS day,
                   CAST(LAST_VALUE(d.cents IGNORE NULLS) OVER (
                     PARTITION BY grid.user_id ORDER BY grid.day
                     ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW)
                     AS BIGINT) AS cents,
                   d.cents IS NOT NULL AS is_observed
            FROM grid LEFT JOIN d
              ON d.user_id = grid.user_id AND d.day = grid.day
        """,
        "q_turns_since_tool": f"""
            WITH {_TRANSCRIPTS_CTE}
            SELECT conv_id, turn_idx,
                   turn_idx - prev_tool AS turns_since_tool
            FROM (
              SELECT conv_id, turn_idx,
                     MAX(CASE WHEN tool <> '' THEN turn_idx END) OVER (
                       PARTITION BY conv_id ORDER BY turn_idx
                       ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING)
                       AS prev_tool
              FROM transcripts
            )
            WHERE prev_tool IS NOT NULL
        """,
        "q_cusum": """
            WITH d AS (
              SELECT user_id,
                     CAST(epoch_us(ts) // 86400000000 AS BIGINT) AS day,
                     SUM(CAST(ROUND(value * 100) AS BIGINT)) AS cents
              FROM events GROUP BY 1, 2
            ), u AS (
              SELECT user_id, CAST(SUM(cents) AS BIGINT) AS total,
                     CAST(COUNT(*) AS BIGINT) AS n
              FROM d GROUP BY 1
            ), c AS (
              SELECT d.user_id, day,
                     CAST(SUM(cents) OVER (PARTITION BY d.user_id
                          ORDER BY day) AS BIGINT) AS pre,
                     CAST(row_number() OVER (PARTITION BY d.user_id
                          ORDER BY day) AS BIGINT) AS t
              FROM d
            ), s AS (
              SELECT c.user_id, day, u.n,
                     ABS(u.n * pre - t * u.total) AS a
              FROM c JOIN u USING (user_id)
            )
            SELECT user_id, n AS n_days, day AS peak_day,
                   CAST(a AS BIGINT) AS cusum_abs_scaled
            FROM (SELECT *, row_number() OVER (PARTITION BY user_id
                           ORDER BY a DESC, day) AS rnk FROM s)
            WHERE rnk = 1
        """,
        "q_embedding_anomaly": """
            WITH q AS (
              SELECT vec_id, t.i,
                     CAST(FLOOR(CAST(embedding[t.i] AS DOUBLE) * 4096)
                          AS BIGINT) AS qv
              FROM embeddings,
                   UNNEST(range(1, len(embedding) + 1)) t(i)
            ), d AS (
              SELECT i, CAST(COUNT(*) AS BIGINT) AS n,
                     CAST(SUM(qv) AS BIGINT) AS s,
                     CAST(SUM(qv * qv) AS BIGINT) AS ss
              FROM q GROUP BY i
            )
            -- per-dim exact integer ppm term (floor of IEEE-identical
            -- double ops); zero-variance dims skipped explicitly; the
            -- cross-dim SUM is over BIGINTs, order-free
            SELECT vec_id,
                   CAST(SUM(CASE WHEN d.n * d.ss - d.s * d.s = 0 THEN 0
                     ELSE CAST(FLOOR(
                       CAST(d.n * q.qv - d.s AS DOUBLE)
                       * CAST(d.n * q.qv - d.s AS DOUBLE)
                       / CAST(d.n * d.ss - d.s * d.s AS DOUBLE)
                       * 1000000) AS BIGINT) END) AS BIGINT)
                     AS anomaly_ppm
            FROM q JOIN d USING (i)
            GROUP BY vec_id
        """,
        "q_markov_baseline": """
            WITH p AS (
              SELECT event_type AS cur,
                     LEAD(event_type) OVER (PARTITION BY user_id
                                            ORDER BY ts, event_id) AS nxt
              FROM events
            ), c AS (
              SELECT cur, nxt, COUNT(*) AS n
              FROM p WHERE nxt IS NOT NULL GROUP BY 1, 2
            ), r AS (
              SELECT cur, nxt, n,
                     row_number() OVER (PARTITION BY cur
                                        ORDER BY n DESC, nxt) AS rnk,
                     SUM(n) OVER (PARTITION BY cur) AS n_total
              FROM c
            )
            SELECT cur AS event_type, nxt AS majority_next,
                   CAST(n AS BIGINT) AS n_correct,
                   CAST(n_total AS BIGINT) AS n_total,
                   CAST(n * 1000000 // n_total AS BIGINT) AS acc_ppm
            FROM r WHERE rnk = 1
        """,
        "q_mrr": _mrr_sql,
        # LSH quality audit: the restricted minhash pipeline vs exact
        # hashed-shingle Jaccard truth on the doc_id<100 audit subset;
        # τ=0.2 as the integer cross-product 5·|∩| ≥ |∪|
        "q_lsh_quality": ("""
            WITH cand AS (SELECT * FROM ("""
            + _minhash_pairs_from(
                src="(SELECT * FROM documents WHERE doc_id < 100)")
            + r""")),
            rdocs AS (
              SELECT doc_id, regexp_split_to_array(trim(text), '\s+') AS ws
              FROM documents WHERE doc_id < 100
            ), rsh AS (
              SELECT DISTINCT doc_id,
                CASE WHEN len(ws) < 3 THEN array_to_string(ws, ' ')
                     ELSE array_to_string(ws[i.i:i.i+2], ' ') END AS s
              FROM rdocs CROSS JOIN LATERAL (
                SELECT unnest(range(1, GREATEST(len(ws) - 2, 1) + 1)) AS i) i
            ), hsh AS (
              SELECT DISTINCT doc_id, md5_number_lower(s) AS h FROM rsh
            ), sizes AS (
              SELECT doc_id, COUNT(*) AS n FROM hsh GROUP BY 1
            ), inter AS (
              SELECT a.doc_id AS ia, b.doc_id AS ib, COUNT(*) AS i
              FROM hsh a JOIN hsh b ON a.h = b.h AND a.doc_id < b.doc_id
              GROUP BY 1, 2
            ), truth AS (
              SELECT ia, ib
              FROM inter
              JOIN sizes sa ON sa.doc_id = ia
              JOIN sizes sb ON sb.doc_id = ib
              WHERE 5 * i >= sa.n + sb.n - i
            ), m AS (
              SELECT (SELECT COUNT(*) FROM cand) AS nc,
                     (SELECT COUNT(*) FROM truth) AS nt,
                     (SELECT COUNT(*) FROM cand JOIN truth
                        ON truth.ia = cand.id_a
                       AND truth.ib = cand.id_b) AS nh
            )
            SELECT CAST(nc AS BIGINT) AS n_candidates,
                   CAST(nt AS BIGINT) AS n_truth,
                   CAST(nh AS BIGINT) AS n_hit,
                   CAST(CASE WHEN nc = 0 THEN 0
                             ELSE nh * 1000000 // nc END AS BIGINT)
                     AS precision_ppm,
                   CAST(CASE WHEN nt = 0 THEN 0
                             ELSE nh * 1000000 // nt END AS BIGINT)
                     AS recall_ppm
            FROM m
        """),
        "q_expanding_minmax": """
            WITH o AS (
              SELECT user_id,
                     CAST(ROUND(value * 100) AS BIGINT) AS vc,
                     row_number() OVER (PARTITION BY user_id
                                        ORDER BY ts, event_id) - 1 AS rn,
                     MIN(CAST(ROUND(value * 100) AS BIGINT)) OVER (
                       PARTITION BY user_id ORDER BY ts, event_id
                       ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW)
                       AS mn,
                     MAX(CAST(ROUND(value * 100) AS BIGINT)) OVER (
                       PARTITION BY user_id ORDER BY ts, event_id
                       ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW)
                       AS mx
              FROM events
            )
            SELECT user_id, rn, vc AS cents,
                   CASE WHEN mx > mn
                        THEN (vc - mn) * 1000000 // (mx - mn)
                        ELSE -1 END AS pos_ppm
            FROM o
        """,
        "q_tail_mean": """
            WITH o AS (
              SELECT user_id,
                     CAST(ROUND(value * 100) AS BIGINT) AS cents,
                     row_number() OVER (
                       PARTITION BY user_id
                       ORDER BY CAST(ROUND(value * 100) AS BIGINT) DESC,
                                event_id) AS rn,
                     COUNT(*) OVER (PARTITION BY user_id) AS n
              FROM events
            )
            SELECT user_id,
                   CAST(COUNT(*) AS BIGINT) AS k,
                   CAST(SUM(cents) AS BIGINT) AS tail_sum_cents,
                   CAST(SUM(cents) AS DOUBLE) / COUNT(*) AS tail_mean_cents
            FROM o WHERE rn <= (n + 9) // 10
            GROUP BY user_id
        """,
        "q_day_overlap": """
            WITH d AS (
              SELECT DISTINCT user_id,
                     CAST(epoch_us(ts) // 86400000000 AS BIGINT) AS day
              FROM events
            ), act AS (
              SELECT day, COUNT(*) AS n FROM d GROUP BY 1
            ), inter AS (
              SELECT a.day, COUNT(*) AS i
              FROM d a JOIN d b
                ON b.user_id = a.user_id AND b.day = a.day + 1
              GROUP BY 1
            )
            SELECT a.day, a.n AS n_day, b.n AS n_next_day,
                   CAST(COALESCE(i.i, 0) AS BIGINT) AS n_both,
                   COALESCE(i.i, 0) * 1000000
                     // (a.n + b.n - COALESCE(i.i, 0)) AS jaccard_ppm
            FROM act a
            JOIN act b ON b.day = a.day + 1
            LEFT JOIN inter i ON i.day = a.day
        """,
        "q_ttr": r"""
            SELECT doc_id,
                   CAST(CASE WHEN trim(text) = '' THEN 0
                        ELSE len(regexp_split_to_array(trim(text), '\s+'))
                        END AS BIGINT) AS n_tokens,
                   CAST(CASE WHEN trim(text) = '' THEN 0
                        ELSE len(list_distinct(
                               regexp_split_to_array(trim(text), '\s+')))
                        END AS BIGINT) AS n_types,
                   CAST(CASE WHEN trim(text) = '' THEN 0
                        ELSE len(list_distinct(
                               regexp_split_to_array(trim(text), '\s+')))
                             * 1000000
                             // len(regexp_split_to_array(trim(text), '\s+'))
                        END AS BIGINT) AS ttr_ppm
            FROM documents
        """,
        "q_ngram_novelty": r"""
            WITH docs AS (
              SELECT doc_id,
                     regexp_split_to_array(trim(text), '\s+') AS ws
              FROM documents
            ), sh AS (
              SELECT DISTINCT doc_id,
                CASE WHEN len(ws) < 3 THEN array_to_string(ws, ' ')
                     ELSE array_to_string(ws[i.i:i.i+2], ' ') END AS s
              FROM docs CROSS JOIN LATERAL (
                SELECT unnest(range(1, GREATEST(len(ws) - 2, 1) + 1))
                  AS i) i
            ), h AS (
              SELECT DISTINCT doc_id, md5_number_lower(s) AS hv FROM sh
            ), first AS (
              SELECT hv, MIN(doc_id) AS first_doc FROM h GROUP BY hv
            ), novel AS (
              SELECT first_doc AS doc_id, COUNT(*) AS n_novel
              FROM first GROUP BY 1
            ), total AS (
              SELECT doc_id, COUNT(*) AS n_grams FROM h GROUP BY 1
            )
            SELECT t.doc_id,
                   CAST(t.n_grams AS BIGINT) AS n_grams,
                   CAST(COALESCE(n.n_novel, 0) AS BIGINT) AS n_novel,
                   CAST(COALESCE(n.n_novel, 0) * 1000000
                        // GREATEST(t.n_grams, 1) AS BIGINT)
                     AS novelty_ppm
            FROM total t LEFT JOIN novel n ON n.doc_id = t.doc_id
        """,
    }
