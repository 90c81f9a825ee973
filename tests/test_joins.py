"""Broadcast semi/anti joins and the Bloom-filter scale path."""

import numpy as np
import pyarrow as pa
import pytest


def test_bloom_no_false_negatives_and_bounded_fp():
    from pystreamfs_ray.stages.joins import BloomFilter

    rng = np.random.default_rng(3)
    present = rng.choice(10_000_000, size=50_000, replace=False).astype(np.int64)
    bf = BloomFilter(len(present), fp_rate=0.01)
    bf.add(present)
    assert bf.contains(present).all()  # no false negatives, ever

    absent = (present + 10_000_000).astype(np.int64)
    fp = bf.contains(absent).mean()
    assert fp < 0.03  # ~1% target with slack


def test_bloom_string_keys():
    from pystreamfs_ray.stages.joins import BloomFilter

    keys = np.array([f"conv-{i}" for i in range(5000)], dtype=object)
    bf = BloomFilter(len(keys), fp_rate=0.01)
    bf.add(keys)
    assert bf.contains(keys).all()
    other = np.array([f"other-{i}" for i in range(5000)], dtype=object)
    assert bf.contains(other).mean() < 0.03


def test_bloom_semi_join_superset_of_exact(ray_session):
    import ray.data as rd

    from pystreamfs_ray.stages.joins import BloomFilter, semi_join

    ids = np.arange(20_000, dtype=np.int64)
    ds = rd.from_arrow(pa.table({"k": ids, "v": ids * 2})).repartition(4)
    keys = np.arange(0, 20_000, 7, dtype=np.int64)

    exact = semi_join(ds, keys, on="k").to_pandas()
    bf = BloomFilter(len(keys), fp_rate=0.01)
    bf.add(keys)
    bloomed = semi_join(ds, bf, on="k").to_pandas()  # dispatches on type

    # recall-exact: every true match survives; precision approximate
    assert set(exact["k"]) <= set(bloomed["k"])
    extras = len(bloomed) - len(exact)
    assert extras <= 0.03 * (len(ds.to_pandas()) - len(exact))


def test_build_bloom_from_dataset(ray_session):
    import ray.data as rd

    from pystreamfs_ray.stages.joins import build_bloom

    keys = np.arange(1000, dtype=np.int64) * 3
    kds = rd.from_arrow(pa.table({"k": keys})).repartition(3)
    bf = build_bloom(kds, "k", fp_rate=0.01)
    assert bf.contains(keys).all()


def _frames(ds, by):
    return ds.to_pandas().sort_values(by, ignore_index=True)


@pytest.mark.parametrize("how", ["inner", "mark", "semi", "anti"])
def test_lookup_same_rows_and_columns_on_both_paths(ray_session,
                                                   broadcast_paths, how):
    """Broadcast probe and hash join give the same rows and the same
    columns, key in the middle of the probe side, null keys included."""
    import pandas as pd
    import ray.data as rd

    from pystreamfs_ray.stages.joins import lookup

    big = rd.from_arrow(pa.table({
        "a": pa.array(np.arange(8, dtype=np.int64)),
        "k": pa.array(["x", "y", "z", "x", "w", None, "y", "q"]),
        "b": pa.array(np.arange(8) * 0.5)})).repartition(3)
    side = rd.from_arrow(pa.table({"k": ["x", "y", "q", "u"],
                                   "v": [10, 20, 30, 40]})).repartition(2)
    outs = [_frames(lookup(big, side, "k", how=how, rename={"v": "vv"}), "a")
            for _ in broadcast_paths()]
    pd.testing.assert_frame_equal(outs[0], outs[1])
    want = {"inner": [0, 1, 3, 6, 7], "semi": [0, 1, 3, 6, 7],
            "anti": [2, 4, 5], "mark": list(range(8))}[how]
    assert outs[0]["a"].tolist() == want
    if how == "inner":
        assert list(outs[0].columns) == ["a", "k", "b", "vv"]
        assert outs[0]["vv"].tolist() == [10, 20, 10, 20, 30]
    if how == "mark":
        assert outs[0]["__found"].tolist() == [True, True, False, True,
                                               False, False, True, True]


def _gate_spy(monkeypatch):
    from pystreamfs_ray.stages import joins

    gate, taken = joins.fits_broadcast, []

    def spy(nbytes, nrows):
        taken.append((nbytes, gate(nbytes, nrows)))
        return taken[-1][1]

    monkeypatch.setattr(joins, "fits_broadcast", spy)
    return taken


def test_gate_independent_of_block_format(ray_session, monkeypatch):
    """The same rows as pandas blocks and as Arrow blocks measure the
    same bytes at the gate and take the same side. String columns make
    pandas block metadata ~4x the Arrow size, so a gate at twice the
    Arrow size sent a pandas-block side to the join before the gate
    read Arrow bytes."""
    import pandas as pd
    import ray.data as rd

    from pystreamfs_ray.stages import joins
    from pystreamfs_ray.stages.dedup import connected_components

    def arrow_bytes(table):
        ds = rd.from_arrow(table).materialize()
        return sum(m.size_bytes for b in ds.iter_internal_ref_bundles()
                   for _, m in b.blocks)

    n = 20_000
    ids = np.array(["node-%06d" % i for i in range(2 * n)], dtype=object)
    frame = pd.DataFrame({"k": ids[:n], "v": np.arange(n, dtype=np.int64)})
    as_pandas = rd.from_pandas(frame).repartition(4).map_batches(
        lambda df: df, batch_format="pandas").materialize()
    assert not isinstance(as_pandas.schema().base_schema, pa.Schema)
    as_arrow = rd.from_arrow(pa.Table.from_pandas(frame, preserve_index=False)
                             ).repartition(4).materialize()
    monkeypatch.setattr(joins, "BROADCAST_MAX_BYTES",
                        2 * arrow_bytes(pa.Table.from_pandas(frame)))
    taken = _gate_spy(monkeypatch)
    probe = rd.from_arrow(pa.table({"k": ids[: 2 * n: 7]}))
    outs = [_frames(joins.lookup(probe, side, "k"), "k")
            for side in (as_pandas, as_arrow)]
    assert [fits for _, fits in taken] == [True, True]
    assert taken[0][0] == taken[1][0]
    pd.testing.assert_frame_equal(outs[0], outs[1])

    # connected_components gates its (pandas-built) directed edge table
    pairs = pd.DataFrame({"id_a": ids[0::2], "id_b": ids[1::2]})
    edges = pa.table({"src": np.concatenate([ids[0::2], ids[1::2]]),
                      "dst": np.concatenate([ids[1::2], ids[0::2]])})
    monkeypatch.setattr(joins, "BROADCAST_MAX_BYTES", 2 * arrow_bytes(edges))
    taken.clear()
    for ds in (rd.from_pandas(pairs).map_batches(lambda df: df,
                                                 batch_format="pandas"),
               rd.from_arrow(pa.Table.from_pandas(pairs,
                                                  preserve_index=False))):
        assert connected_components(ds).count() == 2 * n
    assert [fits for _, fits in taken] == [True, True]
    assert taken[0][0] == taken[1][0]
