"""Stateless transcript featurizer — vectorized Arrow, zero-copy batches.

Turns the raw transcript payload (conv_id, turn_idx, role, text, tool,
ts) into the numeric feature vector the selector kernels consume — the
engine analog of the reference's pre-cleaned numeric matrix
(`/root/reference/README.md:96`; projection at
`/root/reference/pystreamfs/pystreamfs.py:23-24`). The raw ``text``
column passes through untouched so per-turn text equality under stable
turn ordering stays checkable (BASELINE.json invariant).

Of the 13 stateless features, the word and average-word-length ones
rest on two counts, RE2 ``\\S+`` runs and RE2 ``\\s`` (the ASCII bytes
``[\\t\\n\\f\\r ]``), which ``util.byte_class_counts`` takes straight
from the text's UTF-8 bytes; everything else uses ``pyarrow.compute``
kernels. The 14th (``f_ts_delta_s``, the per-entity lag-1 timestamp
delta with backfill 0.0) needs entity ordering and is added by
``stages.window.add_lag_delta`` after sessionize.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from pystreamfs_ray.schema import LABEL_COL, STATELESS_FEATURE_COLS
from pystreamfs_ray.util import RE2_SPACE, byte_class_counts

_F64 = pa.float64()


def _onehot(col: pa.ChunkedArray | pa.Array, value: str) -> pa.Array:
    return pc.cast(pc.equal(col, value), _F64)


def featurize_batch(batch: pa.Table) -> pa.Table:
    """Append the 13 stateless features + int8 label to a transcript batch."""
    text = batch["text"]
    chars = pc.cast(pc.utf8_length(text), _F64)
    space, runs = byte_class_counts(text, RE2_SPACE)
    words = pc.cast(runs, _F64)
    # \S and \s partition every codepoint: count(\S) == len - count(\s)
    nonspace = pc.subtract(chars, pc.cast(space, _F64))
    avg_word_len = pc.if_else(
        pc.equal(words, 0.0), pa.scalar(0.0), pc.divide(nonspace, pc.max_element_wise(words, 1.0))
    )

    role, tool = batch["role"], batch["tool"]
    turn = pc.cast(batch["turn_idx"], _F64)
    turn_norm = pc.divide(turn, pc.add(turn, 50.0))

    label = pc.cast(
        pc.and_(pc.equal(role, "assistant"), pc.invert(pc.equal(tool, ""))), pa.int8()
    )

    cols = {
        "f_text_chars": chars,
        "f_text_words": words,
        "f_text_avg_word_len": avg_word_len,
        "f_role_user": _onehot(role, "user"),
        "f_role_assistant": _onehot(role, "assistant"),
        "f_role_system": _onehot(role, "system"),
        "f_role_tool": _onehot(role, "tool"),
        "f_tool_none": _onehot(tool, ""),
        "f_tool_search": _onehot(tool, "search"),
        "f_tool_code": _onehot(tool, "code"),
        "f_tool_browser": _onehot(tool, "browser"),
        "f_tool_calc": _onehot(tool, "calc"),
        "f_turn_idx_norm": turn_norm,
    }
    assert list(cols) == STATELESS_FEATURE_COLS
    out = batch
    for name, arr in cols.items():
        out = out.append_column(name, arr)
    return out.append_column(LABEL_COL, label)


def featurize(ds, *, batch_size: int | None = None):
    """Dataset → Dataset with feature + label columns (stateless tasks).

    ``batch_size=None`` (default) keeps one batch per block: forcing big
    batches coalesces blocks, throttling the task fan-out of this stage
    AND the downstream shuffle (measured 5-10× wall-time difference at
    sf0.1). The block count itself is set at the read:
    ``sources.read_parquet`` derives it from the input bytes and the
    session's CPUs (``util.read_blocks``)."""
    return ds.map_batches(
        featurize_batch, batch_format="pyarrow", zero_copy_batch=True, batch_size=batch_size
    )
