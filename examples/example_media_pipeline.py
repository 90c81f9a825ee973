"""Multimodal ingest walkthrough: REAL container decode + diverse
retrieval — the two round-5 capabilities end to end.

1. Synthesize genuine BMP (BI_RGB 24bpp) and RIFF/WAVE PCM16 payloads
   from published pixel/sample formulas (no codec library involved).
2. Decode them back with the pure-numpy parsers as task
   ``map_batches`` stages (small batches — payload × batch bounded),
   yielding exact integer stats per media.
3. Cross-check a sample against the formulas (the same check the
   DuckDB oracles of q_decode_bmp / q_decode_wav run corpus-wide).
4. Bonus: MMR diversity selection over the embeddings table — pick a
   retrieval set that spans the space instead of k near-duplicates.

Run: ``python examples/example_media_pipeline.py [sf_dir]``
(owns its own local Ray session).
"""
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main(sf_dir: str = "/root/testdata/sf0.001") -> None:
    import numpy as np
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=4, include_dashboard=False)
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False
    import ray.data as rd

    from pystreamfs_ray.sources import read_parquet
    from pystreamfs_ray.stages.codecs import (decode_bmp_features,
                                              decode_wav_features,
                                              synth_bmp_pixels,
                                              synth_codec_table,
                                              synth_wav_samples)
    from pystreamfs_ray.stages.similarity import mmr_select

    # --- 1+2: synthesize real containers, decode them distributed ---
    bmp = (decode_bmp_features(
        rd.from_arrow(synth_codec_table(120, "bmp")).repartition(6),
        batch_size=32).to_pandas()
        .set_index("media_id").sort_index())
    wav = (decode_wav_features(
        rd.from_arrow(synth_codec_table(120, "wav")).repartition(6),
        batch_size=32).to_pandas()
        .set_index("media_id").sort_index())
    print(f"decoded {len(bmp)} BMP images, {len(wav)} WAV clips")

    # --- 3: spot-check the round trip against the formulas ---
    for mid in (0, 17, 63):
        px = synth_bmp_pixels(mid).reshape(-1, 3).astype(np.int64)
        row = bmp.loc[mid]
        assert (row["sum_r"], row["sum_g"], row["sum_b"]) == tuple(
            px.sum(axis=0)), mid
        s, rate = synth_wav_samples(mid)
        w = wav.loc[mid]
        assert w["duration_us"] == len(s) * 1_000_000 // rate
    total_px = int((bmp["width"] * bmp["height"]).sum())
    total_audio_s = wav["duration_us"].sum() / 1e6
    print(f"round-trip spot checks pass; corpus: {total_px} pixels, "
          f"{total_audio_s:.1f}s audio")

    # --- 4: diverse retrieval over the embedding table ---
    emb = read_parquet(os.path.join(sf_dir, "embeddings.parquet"),
                       columns=["vec_id", "embedding"])
    qvec = np.asarray(
        emb.take(1)[0]["embedding"], dtype=np.float64)
    topk = mmr_select(emb, qvec, k=8, lam=1.0)
    diverse = mmr_select(emb, qvec, k=8, lam=0.6)
    overlap = len(set(topk["vec_id"]) & set(diverse["vec_id"]))
    print(f"MMR diverse top-8 vs pure top-8 overlap: {overlap}/8 "
          f"(lambda=0.6 trades relevance for spread)")
    ray.shutdown()


if __name__ == "__main__":
    main(*sys.argv[1:])
