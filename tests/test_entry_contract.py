"""Mirror of the driver's correctness gate: run every ``queries()``
entry at sf0.001 and compare against its ``oracle_sql()`` via DuckDB
(row count, column names, order-insensitive values)."""

import ast
import importlib.util
from pathlib import Path

import numpy as np
import pandas as pd
import pytest

SF_DIR = "/root/testdata/sf0.001"
REPO = Path(__file__).resolve().parents[1]


def _load_sweep():
    spec = importlib.util.spec_from_file_location("sweep", REPO / "sweep.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


# one compare implementation: the normalization, DuckDB views and
# registry loader are sweep.py's
_sweep = _load_sweep()
_entry_module, _normalize, _to_pandas = (
    _sweep._entry_module, _sweep._normalize, _sweep._to_pandas)


def assert_frames_match(mine: pd.DataFrame, want: pd.DataFrame, name: str):
    a, b = _normalize(mine), _normalize(want)
    assert list(a.columns) == list(b.columns), f"{name}: columns {list(a.columns)} != {list(b.columns)}"
    assert len(a) == len(b), f"{name}: rows {len(a)} != {len(b)}"
    for c in a.columns:
        # dtype KIND must match (the driver's schema compare would
        # flag an int64 engine column vs a DOUBLE oracle column — a
        # missing CAST in the SQL; caught q_calibration's purchases)
        assert a[c].dtype.kind == b[c].dtype.kind, (
            f"{name}: column {c} dtype {a[c].dtype} != {b[c].dtype}")
        av, bv = a[c].to_numpy(), b[c].to_numpy()
        if a[c].dtype.kind == "f":
            # EXACT float equality — the driver hashes raw values, so
            # the repo float policy (exact integers, or ROUND 6 of
            # bit-identical doubles) must hold to the last bit; an
            # approximate gate here let three unrounded outputs
            # (psi/xcorr/calibration) sit latent until the r4 sweep
            both_nan = np.isnan(av) & np.isnan(bv)
            assert (both_nan | (av == bv)).all(), (
                f"{name}: column {c} float mismatch")
        else:
            assert (pd.isna(av) == pd.isna(bv)).all() and (
                (av == bv) | pd.isna(av)
            ).all(), f"{name}: column {c} mismatch"


_SQL_QUERIES = sorted(
    set(_entry_module().oracle_sql()) & set(_entry_module().queries())
)


@pytest.mark.parametrize("name", _SQL_QUERIES)
def test_query_vs_oracle(ray_session, name):
    mod = _entry_module()
    mine = _to_pandas(mod.queries()[name](SF_DIR))
    # oracle derivations (PCA components) must follow the compare dir
    want = _sweep._duck(SF_DIR).execute(mod.oracle_sql(SF_DIR)[name]).df()
    assert_frames_match(mine, want, name)


def test_all_oracles_have_queries():
    mod = _entry_module()
    assert set(mod.oracle_sql()) <= set(mod.queries())


# the CLOSED set of queries allowed to ship without a DuckDB oracle —
# every entry is a declared non-SQL computation (iterative training,
# probe-set membership, greedy argmax, model evaluation) with its own
# pytest gate. A new rows-only query MUST be added here deliberately,
# so oracle coverage can never erode silently.
ROWS_ONLY_ALLOWLIST = {
    "q_select_ofs", "q_select_efs", "q_select_fsds", "q_select_mcnn",
    "q_select_cancelout",                      # selector kernel folds
    "q_metrics_summary", "q_accuracy_over_time", "q_eval_salted",
    "q_ann_recall", "q_ann_ndcg", "q_ann_int8", "q_ann_ivf_int8",
    "q_ann_pq", "q_ann_matryoshka", "q_ann_lsh",   # ANN recall gates
    "q_bpe_train", "q_bpe_encode",             # iterative merge loops
    "q_mmr_select",                            # greedy argmax
}


def test_rows_only_set_is_closed():
    mod = _entry_module()
    rows_only = set(mod.queries()) - set(mod.oracle_sql())
    assert rows_only == ROWS_ONLY_ALLOWLIST, (
        f"unexpected rows-only queries: {rows_only - ROWS_ONLY_ALLOWLIST}; "
        f"allowlisted but oracled/missing: {ROWS_ONLY_ALLOWLIST - rows_only}")


def test_entry_smoke(ray_session):
    mod = _entry_module()
    res = mod.entry()
    df = _to_pandas(res)
    assert len(df) >= 0
    assert "conv_id" in df.columns


def test_rows_only_queries_run(ray_session):
    """Non-SQL queries must at least execute and return rows at sf0.001."""
    mod = _entry_module()
    non_sql = set(mod.queries()) - set(mod.oracle_sql())
    for name in sorted(non_sql):
        df = _to_pandas(mod.queries()[name](SF_DIR))
        assert len(df) > 0, name


def test_registry_is_the_query_module():
    """``queries()`` holds exactly the public ``q*`` functions defined
    in pipelines/queries.py (read from its source), ``DRIVER_WINDOW``
    first and the rest in definition order; the window is 50 unique
    names, each with an oracle."""
    from pystreamfs_ray.pipelines import queries as q

    tree = ast.parse(Path(q.__file__).read_text())
    defined = [n.name for n in tree.body
               if isinstance(n, ast.FunctionDef) and n.name.startswith("q")]
    mod = _entry_module()
    window = list(mod.DRIVER_WINDOW)
    reg = mod.queries()
    assert list(reg) == window + [n for n in defined if n not in window]
    assert all(reg[n] is getattr(q, n) for n in reg)
    assert len(window) == len(set(window)) == 50
    assert set(window) <= set(mod.oracle_sql())
