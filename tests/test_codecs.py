"""Real BMP / WAV codec tests: byte-level round trips, format-spec
edge cases (row padding, bottom-up vs top-down, chunk walking,
multi-channel), and error paths."""

import struct

import numpy as np
import pandas as pd
import pytest

from pystreamfs_ray.stages.codecs import (
    decode_bmp,
    decode_wav,
    encode_bmp,
    encode_wav_pcm16,
    synth_bmp_pixels,
    synth_wav_samples,
)


def test_bmp_round_trip_exact_sums():
    rng = np.random.default_rng(3)
    for w, h in [(16, 12), (17, 9), (18, 5), (19, 31), (1, 1)]:
        px = rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)
        got = decode_bmp(encode_bmp(px))
        assert (got["width"], got["height"]) == (w, h)
        sums = px.reshape(-1, 3).astype(np.int64).sum(axis=0)
        assert (got["sum_r"], got["sum_g"], got["sum_b"]) == tuple(
            int(s) for s in sums)


def test_bmp_row_padding_and_order():
    """w=17 → 51-byte rows padded to 52; padding bytes must not leak
    into sums, and the first image row must come from the LAST stored
    row (bottom-up)."""
    w, h = 17, 2
    px = np.zeros((h, w, 3), dtype=np.uint8)
    px[0, 0] = (255, 0, 0)     # top-left red
    data = encode_bmp(px)
    stride = (w * 3 + 3) & ~3
    assert stride == 52
    assert len(data) == 54 + stride * h
    # bottom-up: the stored FIRST row is image row h-1 (all zeros);
    # the red pixel sits at the start of the LAST stored row, in BGR
    row0 = data[54: 54 + stride]
    row1 = data[54 + stride: 54 + 2 * stride]
    assert row0[: w * 3] == b"\x00" * (w * 3)
    assert row1[0:3] == b"\x00\x00\xff"      # B,G,R of red
    got = decode_bmp(data)
    assert (got["sum_r"], got["sum_g"], got["sum_b"]) == (255, 0, 0)


def test_bmp_top_down_variant():
    """Negative height = top-down rows; decode must not flip."""
    w, h = 4, 3
    px = np.arange(w * h * 3, dtype=np.uint8).reshape(h, w, 3)
    data = bytearray(encode_bmp(px[::-1]))  # store rows in image order
    struct.pack_into("<i", data, 14 + 8, -h)  # mark as top-down
    got = decode_bmp(bytes(data))
    sums = px.reshape(-1, 3).astype(np.int64).sum(axis=0)
    assert (got["sum_r"], got["sum_g"], got["sum_b"]) == tuple(
        int(s) for s in sums)


def test_bmp_error_paths():
    with pytest.raises(ValueError, match="not a BMP"):
        decode_bmp(b"PN" + b"\x00" * 60)
    with pytest.raises(ValueError, match="truncated"):
        decode_bmp(b"BM" + b"\x00" * 10)
    px = np.zeros((2, 2, 3), dtype=np.uint8)
    data = bytearray(encode_bmp(px))
    struct.pack_into("<H", data, 14 + 14, 8)  # claim 8bpp
    with pytest.raises(ValueError, match="24bpp"):
        decode_bmp(bytes(data))
    with pytest.raises(ValueError, match="truncated"):
        decode_bmp(encode_bmp(px)[:-3])


def test_wav_round_trip_mono_and_stereo():
    rng = np.random.default_rng(5)
    mono = rng.integers(-32768, 32768, size=1001, dtype=np.int16)
    got = decode_wav(encode_wav_pcm16(mono, 8000))
    s = mono.astype(np.int64)
    assert got == {
        "sample_rate": 8000, "channels": 1, "n_samples": 1001,
        "duration_us": 1001 * 1_000_000 // 8000,
        "sum_samples": int(s.sum()), "sum_squares": int((s * s).sum()),
        "peak_abs": int(np.abs(s).max()),
    }
    stereo = rng.integers(-32768, 32768, size=(500, 2), dtype=np.int16)
    got = decode_wav(encode_wav_pcm16(stereo, 44100))
    s = stereo.astype(np.int64)
    assert got["channels"] == 2 and got["n_samples"] == 500
    assert got["duration_us"] == 500 * 1_000_000 // 44100
    assert got["sum_samples"] == int(s.sum())


def test_wav_chunk_walk_skips_unknown_chunks():
    """A LIST chunk (odd size → word-aligned pad) between fmt and data
    must be skipped by declared size, not parsed as audio."""
    samples = np.array([100, -200, 300], dtype=np.int16)
    base = encode_wav_pcm16(samples, 16000)
    # splice an odd-sized LIST chunk after fmt (offset 12+8+16 = 36)
    extra = b"LIST" + struct.pack("<I", 5) + b"INFOx" + b"\x00"
    patched = bytearray(base[:36] + extra + base[36:])
    struct.pack_into("<I", patched, 4, len(patched) - 8)
    got = decode_wav(bytes(patched))
    assert got["n_samples"] == 3
    assert got["sum_samples"] == 200
    assert got["peak_abs"] == 300


def test_wav_error_paths():
    with pytest.raises(ValueError, match="RIFF"):
        decode_wav(b"OggS" + b"\x00" * 40)
    samples = np.array([1, 2], dtype=np.int16)
    data = bytearray(encode_wav_pcm16(samples, 16000))
    struct.pack_into("<H", data, 20, 3)  # IEEE float fmt tag
    with pytest.raises(ValueError, match="PCM16"):
        decode_wav(bytes(data))
    with pytest.raises(ValueError, match="missing fmt/data"):
        decode_wav(b"RIFF" + struct.pack("<I", 4) + b"WAVE")


def test_wav_truncated_data_chunk():
    """A data chunk whose declared size runs past the buffer raises,
    as a truncated BMP does, instead of summing partial PCM."""
    data = encode_wav_pcm16(np.arange(10, dtype=np.int16), 16000)
    with pytest.raises(ValueError, match="truncated WAV data chunk"):
        decode_wav(data[:-4])   # file cut short
    grown = bytearray(data)
    struct.pack_into("<I", grown, 40, 22)   # data declares 22 of 20 bytes
    with pytest.raises(ValueError, match="declares 22 bytes, have 20"):
        decode_wav(bytes(grown))
    assert decode_wav(data)["n_samples"] == 10


def test_synth_formulas_match_published_spec():
    px = synth_bmp_pixels(7)
    assert px.shape == (12 + (7 % 5) * 4, 16 + (7 % 8) * 4, 3)
    assert px[2, 3, 0] == (3 * 3 + 5 * 2 + 7) % 256
    assert px[2, 3, 1] == (7 * 3 + 2 * 2 + 14) % 256
    assert px[2, 3, 2] == (3 + 11 * 2 + 21) % 256
    s, rate = synth_wav_samples(3)
    assert rate == 16000 and len(s) == 4000 + 3 * 2000
    assert s[10] == ((31 * 3 + 70) % 4001) - 2000


def test_decode_queries_round_trip(ray_session):
    """The driver queries parse REAL container bytes and land exactly
    on the formula-derived stats (mirrors the SQL oracles)."""
    from pystreamfs_ray.pipelines.queries import q_decode_bmp, q_decode_wav

    bmp = (q_decode_bmp("unused").to_pandas()
           .set_index("media_id").sort_index())
    assert len(bmp) == 200
    for mid in (0, 7, 63, 199):
        px = synth_bmp_pixels(mid).reshape(-1, 3).astype(np.int64)
        row = bmp.loc[mid]
        assert (row["sum_r"], row["sum_g"], row["sum_b"]) == tuple(
            px.sum(axis=0))
    wav = (q_decode_wav("unused").to_pandas()
           .set_index("media_id").sort_index())
    assert len(wav) == 200
    for mid in (0, 4, 123):
        s, rate = synth_wav_samples(mid)
        s64 = s.astype(np.int64)
        row = wav.loc[mid]
        assert row["sum_samples"] == s64.sum()
        assert row["sum_squares"] == (s64 * s64).sum()
        assert row["duration_us"] == len(s) * 1_000_000 // rate
