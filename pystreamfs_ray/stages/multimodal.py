"""Multimodal columns: opaque ``binary`` payloads + typed metadata.

Image/audio/video bytes ride as Arrow ``binary`` columns; decode /
feature-extract / resize / frame-sample are task ``map_batches``
stages with SMALL batch sizes (payloads are big — a batch must fit the
worker heap; see the memory notes in SURVEY.md §4).

COMPRESSED formats (JPEG/MP3/MP4) need codec libraries the sandbox
lacks, so that decode step is STUBBED: ``DecodeStub`` produces
deterministic pseudo-decoded features from the payload bytes
(hash-derived width/height/duration, mean byte value). The Ray-side
plumbing — schema, stage signature, batch sizing, output
layout — is real and tested.

UNCOMPRESSED containers decode for REAL: ``stages/codecs.py`` parses
BMP (BI_RGB 24bpp) and RIFF/WAVE PCM16 byte-for-byte with pure
struct+numpy (driver queries ``q_decode_bmp`` / ``q_decode_wav``,
oracle-checked round trips).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

MEDIA_SCHEMA = pa.schema(
    [
        pa.field("media_id", pa.int64()),
        pa.field("kind", pa.string()),  # image | audio | video
        pa.field("payload", pa.binary()),
        pa.field("meta", pa.string()),  # JSON sidecar
    ]
)


def synth_media_table(n: int, seed: int = 21, payload_bytes: int = 2048) -> pa.Table:
    """Deterministic fake media fixture (binary payloads from seeded RNG)."""
    rng = np.random.default_rng(seed)
    kinds = np.array(["image", "audio", "video"], dtype=object)[
        rng.integers(0, 3, size=n)
    ]
    payloads = [rng.integers(0, 256, size=payload_bytes, dtype=np.uint8).tobytes()
                for _ in range(n)]
    meta = [f'{{"src": "synth", "i": {i}}}' for i in range(n)]
    return pa.table(
        {
            "media_id": pa.array(np.arange(n, dtype=np.int64)),
            "kind": pa.array(kinds, type=pa.string()),
            "payload": pa.array(payloads, type=pa.binary()),
            "meta": pa.array(meta, type=pa.string()),
        },
        schema=MEDIA_SCHEMA,
    )


class DecodeStub:
    """Decode stage: deterministic pseudo decode (a real one
    needs Pillow / torchaudio / pyav)."""

    def _decode_one(self, kind: str, payload: bytes) -> tuple[float, float, float, float]:
        h = hashlib.blake2b(payload, digest_size=16).digest()
        width = 64 + h[0] % 192          # pseudo pixel / sample geometry
        height = 64 + h[1] % 192
        duration = (h[2] % 300) / 10.0 if kind in ("audio", "video") else 0.0
        arr = np.frombuffer(payload, dtype=np.uint8)
        return float(width), float(height), float(duration), float(arr.mean())

    def __call__(self, t: pa.Table) -> pa.Table:
        kinds = t["kind"].to_pylist()
        payloads = t["payload"].to_pylist()
        decoded = [self._decode_one(k, p) for k, p in zip(kinds, payloads)]
        w, h, d, m = (np.array(x) for x in zip(*decoded)) if decoded else (
            np.array([]),) * 4
        return (
            t.drop_columns(["payload"])  # bytes don't travel past decode
            .append_column("width", pa.array(w, type=pa.float64()))
            .append_column("height", pa.array(h, type=pa.float64()))
            .append_column("duration_s", pa.array(d, type=pa.float64()))
            .append_column("mean_val", pa.array(m, type=pa.float64()))
        )


def decode_features(ds, *, batch_size: int = 64):
    """Binary payloads → numeric features; small batches on purpose."""
    return ds.map_batches(DecodeStub(), batch_format="pyarrow",
                          batch_size=batch_size)


class ResizeStub:
    """Image-resize stage. Real resize needs Pillow
    (absent); this stage performs a deterministic byte-level
    downsample (strided slice to the target byte budget) so the
    plumbing — binary in, binary out, metadata updated, non-image rows
    passed through untouched — is real and testable."""

    def __init__(self, width: int = 64, height: int = 64):
        self.width, self.height = width, height

    def __call__(self, t: pa.Table) -> pa.Table:
        budget = max(1, (self.width * self.height) // 64)
        kinds = t["kind"].to_pylist()
        payloads = t["payload"].to_pylist()
        out = []
        for k, p in zip(kinds, payloads):
            if k != "image" or len(p) <= budget:
                out.append(p)
            else:
                step = max(1, len(p) // budget)
                out.append(p[::step][:budget])
        return (
            t.drop_columns(["payload"])
            .append_column("payload", pa.array(out, type=pa.binary()))
            .append_column("target_w", pa.array([float(self.width)] * len(t)))
            .append_column("target_h", pa.array([float(self.height)] * len(t)))
        )


def resize_images(ds, *, width: int = 64, height: int = 64,
                  batch_size: int = 64):
    """Image payloads → resized payloads (small batches: payload bytes
    dominate the block)."""
    return ds.map_batches(ResizeStub(width, height), batch_format="pyarrow",
                          batch_size=batch_size)


class FrameSampleStub:
    """Video frame sampler: one input video row →
    one OUTPUT ROW PER SAMPLED FRAME (the flat-map shape real
    pyav-based sampling would have). The stub derives the frame
    count from the stub duration (same hash as DecodeStub) and slices
    the payload per frame; non-video rows are dropped."""

    def __init__(self, every_s: float = 1.0, max_frames: int = 16):
        self.every_s, self.max_frames = every_s, max_frames

    def __call__(self, t: pa.Table) -> pa.Table:
        ids, kinds = t["media_id"].to_pylist(), t["kind"].to_pylist()
        payloads = t["payload"].to_pylist()
        out_id, out_fi, out_ts, out_fp = [], [], [], []
        for mid, k, p in zip(ids, kinds, payloads):
            if k != "video":
                continue
            h = hashlib.blake2b(p, digest_size=16).digest()
            duration = (h[2] % 300) / 10.0  # same stub duration as decode
            n = min(self.max_frames, max(1, int(duration / self.every_s)))
            step = max(1, len(p) // n)
            for fi in range(n):
                out_id.append(mid)
                out_fi.append(fi)
                out_ts.append(fi * self.every_s)
                out_fp.append(p[fi * step:(fi + 1) * step])
        return pa.table({
            "media_id": pa.array(out_id, type=pa.int64()),
            "frame_idx": pa.array(out_fi, type=pa.int32()),
            "frame_ts_s": pa.array(out_ts, type=pa.float64()),
            "frame_payload": pa.array(out_fp, type=pa.binary()),
        })


def sample_frames(ds, *, every_s: float = 1.0, max_frames: int = 16,
                  batch_size: int = 32):
    """Video payloads → per-frame rows (row-expanding stage: batches
    kept SMALL because output bytes ≈ input bytes × frames)."""
    return ds.map_batches(FrameSampleStub(every_s, max_frames),
                          batch_format="pyarrow", batch_size=batch_size)
