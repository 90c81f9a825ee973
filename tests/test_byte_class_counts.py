"""``util.byte_class_counts`` is pinned to RE2: the featurize, token
stats and packing counts it replaced were RE2 ``count_substring_regex``
calls, and the benchmark's oracle features come from the engine's own
``featurize_batch``, so only these tests catch a wrong count."""

import duckdb
import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pystreamfs_ray.util import RE2_SPACE, byte_class_counts

# RE2 whitespace, the whitespace only Python and Unicode count (\v,
# NBSP, U+0085, U+2028, U+3000), multi-byte letters, punctuation, digits
ALPHABET = [" ", "\t", "\n", "\r", "\f", "\v", "\xa0", "\x85", "\u2028",
            "\u3000", "é", "😀", "a", "Z", ".", ",", "!", "?", ";", ":",
            "0", "9", "-"]

# (byte class, RE2 pattern of its bytes, RE2 pattern of runs outside it)
CLASSES = [
    (RE2_SPACE, r"\s", r"\S+"),
    (b".,!?;:", r"[.,!?;:]", r"[^.,!?;:]+"),
    (b"0123456789", r"[0-9]", r"[^0-9]+"),
]

texts = st.lists(st.one_of(st.none(), st.text(st.sampled_from(ALPHABET), max_size=12)),
                 max_size=25)


def _re2(arr, pattern):
    return pc.cast(pc.count_substring_regex(arr, pattern), pa.int64())


def _assert_matches_re2(arr):
    for cls, in_pat, run_pat in CLASSES:
        got_in, got_runs = byte_class_counts(arr, cls)
        assert isinstance(got_in, pa.ChunkedArray) == isinstance(arr, pa.ChunkedArray)
        assert got_in.equals(_re2(arr, in_pat)), (cls, arr)
        assert got_runs.equals(_re2(arr, run_pat)), (cls, arr)


@given(texts, st.sampled_from([pa.string(), pa.large_string()]),
       st.integers(0, 30), st.integers(0, 30), st.integers(0, 30))
@settings(max_examples=200, deadline=None)
def test_matches_re2_on_random_strings(values, typ, start, length, cut):
    arr = pa.array(values, type=typ)
    _assert_matches_re2(arr)
    sliced = arr.slice(min(start, len(arr)), length)
    _assert_matches_re2(sliced)
    cut = min(cut, len(sliced))
    _assert_matches_re2(pa.chunked_array([sliced.slice(0, cut), sliced.slice(cut)],
                                         type=typ))


@pytest.mark.parametrize("typ", [pa.string(), pa.large_string()])
def test_edge_arrays(typ):
    for arr in (pa.array([], type=typ),
                pa.array([None, None, None], type=typ),
                pa.array(["", "", None], type=typ),
                pa.chunked_array([], type=typ),
                pa.chunked_array([pa.array([], type=typ),
                                  pa.array([" a", None], type=typ)])):
        _assert_matches_re2(arr)
    counts = byte_class_counts(pa.array([None, None], type=typ), RE2_SPACE)
    assert all(c.null_count == 2 for c in counts)


def test_rejects_non_ascii_class_and_non_string_input():
    with pytest.raises(ValueError, match="ASCII"):
        byte_class_counts(pa.array(["a"]), "\xa0".encode())
    with pytest.raises(TypeError, match="string"):
        byte_class_counts(pa.array([1, 2]), RE2_SPACE)


def test_token_counts_match_duckdb():
    """The transcript queries' token counts follow their oracles'
    ``len(regexp_extract_all(x, '\\S+'))`` on NBSP, U+2028 and ``\\v``,
    where Python's ``re`` would split."""
    values = ["a\xa0b", "a\u2028b c", "x\vy", "\xa0", " \t\n\r\f ", "",
              "one two  three", "\xe9\U0001f600 \u3000 z", "\x85\x85 w"]
    con = duckdb.connect()
    con.register("t", pa.table({"i": np.arange(len(values)), "x": values}))
    want = con.execute(
        r"SELECT CAST(len(regexp_extract_all(x, '\S+')) AS BIGINT) "
        "FROM t ORDER BY i").fetchnumpy()
    got = byte_class_counts(pa.array(values), RE2_SPACE)[1].to_numpy()
    assert got.tolist() == next(iter(want.values())).tolist()
    assert got.tolist() == [1, 2, 1, 1, 0, 0, 3, 3, 2]
