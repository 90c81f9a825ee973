"""Corpus-curation pipeline: the LLM-training-data composition —
exact dedup → quality scoring → language ID → filter → per-source
token accounting — expressed as ONE streaming Dataset pipeline.

This is the "a user of the reference could run their whole data prep
here" showcase: every stage is an existing operator (dedup.exact_dedup,
textstats.quality_score / lang_id / token_stats), chained lazily so the
streaming executor pipelines them; the only all-to-all ops are the
dedup hash shuffle and the final (tiny) per-source aggregate. Averages
are carried as exact integer micro-unit sums through the aggregate
(order-independent → bit-stable vs the SQL oracle) and divided at the
end.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from ray.data.aggregate import Count, Sum


def curate_corpus(docs, *, lang: str = "en", quality_min: float = 0.3,
                  source_col: str = "source"):
    """docs: (doc_id, text, source). Returns one row per source:
    (source, n_docs, total_tokens, avg_quality) over the deduped,
    language-filtered, quality-filtered corpus."""
    from pystreamfs_ray.stages.dedup import exact_dedup
    from pystreamfs_ray.stages.textstats import lang_id, quality_score, token_stats

    # quality/lang run as stateless task stages, so they fuse with the
    # dedup shuffle's reduce output at full parallelism
    deduped = exact_dedup(docs, extra_cols=(source_col,))
    tagged = lang_id(quality_score(deduped))
    kept = tagged.filter(
        expr=f"pred_lang == '{lang}' and quality_score >= {quality_min}"
    )
    stats = token_stats(kept)

    def prep(df: pd.DataFrame) -> pd.DataFrame:
        # quality is already round-6; micro-units make the sum an exact
        # integer op (order-independent, oracle-identical)
        q = df["quality_score"].to_numpy(dtype=np.float64)
        return pd.DataFrame({
            source_col: df[source_col],
            "n_tokens": df["n_tokens"].astype(np.int64),
            "quality_micro": np.floor(q * 1e6 + 0.5).astype(np.int64),
        })

    agg = (
        stats.map_batches(prep, batch_format="pandas")
        .groupby(source_col)
        .aggregate(
            Count(alias_name="n_docs"),
            Sum("n_tokens", alias_name="total_tokens"),
            Sum("quality_micro", alias_name="_qsum"),
        )
    )

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        df["avg_quality"] = df["_qsum"] / 1e6 / df["n_docs"]
        df["total_tokens"] = df["total_tokens"].astype(np.int64)
        return df[[source_col, "n_docs", "total_tokens", "avg_quality"]]

    return agg.map_batches(finish, batch_format="pandas")
