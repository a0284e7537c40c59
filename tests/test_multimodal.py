"""Real-decoder multimodal tests: golden-byte decode (hand-built binary,
independent of the payload synthesizer), round-trips, malformed-input
guards, and the end-to-end actor-pool feature stages."""

import numpy as np
import pyarrow as pa
import pytest

from librecatastro_ray.pipelines.multimodal import (
    AudioFeatures,
    ImageFeatures,
    _payload_batch,
    decode_ppm,
    decode_wav,
    encode_ppm,
    encode_wav,
)


def test_ppm_golden_bytes():
    """Decode a hand-assembled P6 byte string (not produced by our encoder)."""
    buf = b"P6\n2 1\n255\n" + bytes([10, 20, 30, 40, 50, 60])
    w, h, rgb = decode_ppm(buf)
    assert (w, h) == (2, 1)
    assert rgb.tolist() == [[[10, 20, 30], [40, 50, 60]]]


def test_ppm_whitespace_tolerant_header():
    buf = b"P6 3\t1\n255 " + bytes(range(9))
    w, h, rgb = decode_ppm(buf)
    assert (w, h) == (3, 1)
    assert rgb.reshape(-1).tolist() == list(range(9))


def test_ppm_roundtrip_and_guards():
    rgb = (np.arange(5 * 4 * 3) % 256).astype(np.uint8)
    w, h, arr = decode_ppm(encode_ppm(5, 4, rgb))
    assert (w, h) == (5, 4) and (arr.reshape(-1) == rgb).all()
    with pytest.raises(ValueError):
        decode_ppm(b"P5\n1 1\n255\n\x00")
    with pytest.raises(ValueError):
        decode_ppm(b"P6\n# c\n1 1\n255\n" + bytes(3))


def test_wav_golden_bytes():
    """Decode a hand-assembled RIFF file with the data chunk BEFORE fmt
    (chunk walking, not offset arithmetic) and an odd-sized padded chunk."""
    import struct

    data = np.array([100, -200, 32767], np.int16).tobytes()
    junk = b"LIST" + struct.pack("<I", 3) + b"abc" + b"\x00"  # odd size → pad
    fmt = struct.pack("<HHIIHH", 1, 1, 22050, 44100, 2, 16)
    body = (b"WAVE" + junk + b"data" + struct.pack("<I", len(data)) + data
            + b"fmt " + struct.pack("<I", len(fmt)) + fmt)
    buf = b"RIFF" + struct.pack("<I", len(body)) + body
    rate, s = decode_wav(buf)
    assert rate == 22050
    assert s.tolist() == [100, -200, 32767]


def test_wav_roundtrip_and_guards():
    s = np.array([0, 1, -1, 32767, -32768], np.int16)
    rate, out = decode_wav(encode_wav(8000, s))
    assert rate == 8000 and (out == s).all()
    with pytest.raises(ValueError):
        decode_wav(b"RIFX" + bytes(20))
    with pytest.raises(ValueError):
        decode_wav(b"RIFF\x04\x00\x00\x00WAVE")  # no fmt/data chunks


def test_png_golden_bytes():
    """Decode a hand-assembled PNG byte string (chunks, CRCs and a filter-0
    scanline built by hand in the test — not produced by our encoder)."""
    import struct
    import zlib

    from librecatastro_ray.pipelines.multimodal import decode_png

    def chunk(ctype, data):
        return (struct.pack(">I", len(data)) + ctype + data
                + struct.pack(">I", zlib.crc32(ctype + data) & 0xFFFFFFFF))

    # 2x1 RGB, one scanline: filter 0 + pixels (10,20,30) (40,50,60)
    ihdr = struct.pack(">IIBBBBB", 2, 1, 8, 2, 0, 0, 0)
    idat = zlib.compress(bytes([0, 10, 20, 30, 40, 50, 60]))
    buf = (b"\x89PNG\r\n\x1a\n" + chunk(b"IHDR", ihdr)
           + chunk(b"IDAT", idat) + chunk(b"IEND", b""))
    w, h, c, img = decode_png(buf)
    assert (w, h, c) == (2, 1, 3)
    assert img.tolist() == [[[10, 20, 30], [40, 50, 60]]]


def test_png_each_filter_type_golden():
    """One image per scanline filter type (0 None, 1 Sub, 2 Up, 3 Average,
    4 Paeth): decode(encode) must reproduce the pixels exactly — each filter
    path is exercised in isolation on a 2-row image (row 2 depends on the
    reconstructed row 1)."""
    from librecatastro_ray.pipelines.multimodal import decode_png, encode_png

    img = (np.arange(2 * 4 * 3, dtype=np.int64) * 37 % 256).astype(
        np.uint8).reshape(2, 4, 3)
    for ft in range(5):
        w, h, c, out = decode_png(encode_png(img, filters=[0, ft]))
        assert (w, h, c) == (4, 2, 3) and (out == img).all(), ft
        # and as the first row too (prev = zeros path)
        _, _, _, out2 = decode_png(encode_png(img, filters=[ft, ft]))
        assert (out2 == img).all(), ft


def test_png_roundtrip_property():
    """Random shapes / channels / per-row filters: encode → decode identity
    (zlib, chunk CRCs, and all five unfilter paths under random data)."""
    from librecatastro_ray.pipelines.multimodal import decode_png, encode_png

    rng = np.random.RandomState(0)
    for trial in range(60):
        h, w = int(rng.randint(1, 11)), int(rng.randint(1, 11))
        c = int(rng.choice([3, 4]))
        img = rng.randint(0, 256, (h, w, c)).astype(np.uint8)
        filters = rng.randint(0, 5, h).tolist()
        w2, h2, c2, out = decode_png(encode_png(img, filters))
        assert (w2, h2, c2) == (w, h, c) and (out == img).all(), (trial, filters)


def test_png_guards():
    import struct
    import zlib

    from librecatastro_ray.pipelines.multimodal import decode_png, encode_png

    img = np.zeros((2, 2, 3), np.uint8)
    buf = bytearray(encode_png(img))
    with pytest.raises(ValueError, match="not a PNG"):
        decode_png(b"JFIF" + bytes(buf[4:]))
    # corrupt one IDAT payload byte → CRC mismatch, loud
    idat_at = bytes(buf).index(b"IDAT")
    corrupted = bytearray(buf)
    corrupted[idat_at + 5] ^= 0xFF
    with pytest.raises(ValueError, match="CRC mismatch"):
        decode_png(bytes(corrupted))
    # 16-bit depth rejected
    def chunk(ctype, data):
        return (struct.pack(">I", len(data)) + ctype + data
                + struct.pack(">I", zlib.crc32(ctype + data) & 0xFFFFFFFF))

    bad_ihdr = struct.pack(">IIBBBBB", 1, 1, 16, 2, 0, 0, 0)
    bad = (b"\x89PNG\r\n\x1a\n" + chunk(b"IHDR", bad_ihdr)
           + chunk(b"IDAT", zlib.compress(bytes(7))) + chunk(b"IEND", b""))
    with pytest.raises(ValueError, match="only 8-bit"):
        decode_png(bad)
    # truncated file (IEND missing, last chunk torn)
    with pytest.raises(ValueError):
        decode_png(bytes(buf[: idat_at + 2]))


def test_png_feature_stage_matches_independent_recompute():
    from librecatastro_ray.pipelines.multimodal import (
        PngFeatures,
        _synth_png,
        decode_png,
    )

    ids = [0, 1, 36, 37, 499]
    t = pa.table({"doc_id": pa.array(ids, pa.int64()),
                  "image_png": pa.array([_synth_png(d) for d in ids], pa.binary())})
    got = PngFeatures()(t)
    for row, d in enumerate(ids):
        w, h, c, img = decode_png(_synth_png(d))
        assert (w, h, c) == (5 + d % 11, 4 + d % 6, 3 + d % 2)
        px = img.astype(np.int64)
        assert got["width"][row].as_py() == w
        assert got["channels"][row].as_py() == c
        assert got["sum_r"][row].as_py() == int(px[:, :, 0].sum())
        assert got["sum_a"][row].as_py() == (int(px[:, :, 3].sum()) if c == 4 else 0)
        sy, sx = (np.arange(8) * h) // 8, (np.arange(8) * w) // 8
        small = px[sy][:, sx]
        luma = (small[:, :, 0] * 299 + small[:, :, 1] * 587
                + small[:, :, 2] * 114).reshape(-1)
        bits = (64 * luma > luma.sum()).astype(np.uint64)
        expect = int((bits << np.arange(64, dtype=np.uint64)).sum()) % (1 << 63)
        assert got["ahash"][row].as_py() == expect


def test_feature_stages_decode_real_bytes():
    """ImageFeatures/AudioFeatures consume the BINARY column: features over
    decoded arrays match an independent recomputation from the same bytes."""
    t = _payload_batch(pa.table({"doc_id": pa.array([3, 44, 200], pa.int64())}))
    imf = ImageFeatures()(t)
    auf = AudioFeatures()(t)
    for row in range(3):
        w, h, rgb = decode_ppm(t["image_ppm"][row].as_py())
        assert imf["width"][row].as_py() == w
        assert imf["height"][row].as_py() == h
        assert imf["sum_r"][row].as_py() == int(rgb[:, :, 0].astype(np.int64).sum())
        rate, s = decode_wav(t["audio_wav"][row].as_py())
        assert auf["sample_rate"][row].as_py() == rate
        assert auf["n_samples"][row].as_py() == len(s)
        v = s.astype(np.int64)
        assert auf["sum_sq"][row].as_py() == int((v * v).sum())
        assert auf["n_zero_cross"][row].as_py() == int((v[:-1] * v[1:] < 0).sum())


def test_image_ahash_resize_identity():
    """An image whose 8x8 resize is constant-luma has ahash 0 (no pixel
    strictly above the mean); a half-bright image sets exactly the bright
    half's bits."""
    flat = np.full(8 * 8 * 3, 7, np.uint8)
    t = pa.table({"doc_id": pa.array([1], pa.int64()),
                  "image_ppm": pa.array([encode_ppm(8, 8, flat)], pa.binary()),
                  "audio_wav": pa.array([b""], pa.binary())})
    assert ImageFeatures()(t)["ahash"][0].as_py() == 0
    half = np.zeros((8, 8, 3), np.uint8)
    half[:, 4:, :] = 255  # right half bright → bits where x >= 4
    t2 = pa.table({"doc_id": pa.array([1], pa.int64()),
                   "image_ppm": pa.array([encode_ppm(8, 8, half.reshape(-1))], pa.binary()),
                   "audio_wav": pa.array([b""], pa.binary())})
    got = ImageFeatures()(t2)["ahash"][0].as_py()
    expect = sum(1 << (y * 8 + x) for y in range(8) for x in range(4, 8)) % (1 << 63)
    assert got == expect


def test_multimodal_pipeline_end_to_end(ray_session):
    from librecatastro_ray.pipelines.multimodal import audio_features, image_features

    imf = image_features("/root/testdata/sf0.001").to_pandas()
    auf = audio_features("/root/testdata/sf0.001").to_pandas()
    assert len(imf) == len(auf) == 500
    assert (imf["width"] == 4 + imf["doc_id"] % 13).all()
    assert (auf["sample_rate"] == 8000 + (auf["doc_id"] % 3) * 4000).all()


def test_audio_frame_sampler_known_values():
    """Frame energies over real decoded PCM: hand-built 5-sample signal with
    frame_len=2 → frames [a²+b², c²+d², e²] and first-max tie-breaking."""
    from librecatastro_ray.pipelines.multimodal import AudioFrameSampler, encode_wav

    s = np.array([3, -4, 5, 0, -5], np.int16)  # frames: 25, 25, 25 → peak 0
    t = pa.table({"doc_id": pa.array([1], pa.int64()),
                  "audio_wav": pa.array([encode_wav(8000, s)], pa.binary())})
    r = AudioFrameSampler(frame_len=2)(t).to_pylist()[0]
    assert r == {"doc_id": 1, "n_frames": 3, "max_frame_energy": 25, "peak_frame": 0}
    s2 = np.array([1, 0, 3, 4], np.int16)  # frames: 1, 25 → peak 1
    t2 = pa.table({"doc_id": pa.array([2], pa.int64()),
                   "audio_wav": pa.array([encode_wav(8000, s2)], pa.binary())})
    r2 = AudioFrameSampler(frame_len=2)(t2).to_pylist()[0]
    assert (r2["n_frames"], r2["max_frame_energy"], r2["peak_frame"]) == (2, 25, 1)
    # empty payload
    t3 = pa.table({"doc_id": pa.array([3], pa.int64()),
                   "audio_wav": pa.array([encode_wav(8000, np.array([], np.int16))],
                                         pa.binary())})
    r3 = AudioFrameSampler(frame_len=2)(t3).to_pylist()[0]
    assert (r3["n_frames"], r3["peak_frame"]) == (0, -1)


def test_decoder_adversarial_headers():
    """Adversarial inputs (torn fmt, truncated payloads/chunks, odd PCM
    data, non-positive dims) fail LOUDLY with ValueError — plus a fuzz pass:
    random truncations/mutations of valid files either decode or raise
    ValueError, never a stray exception type."""
    import struct

    from librecatastro_ray.pipelines.multimodal import (
        decode_png,
        decode_ppm,
        decode_wav,
        encode_png,
        encode_ppm,
        encode_wav,
    )

    # torn fmt chunk (declared 16 bytes, carries 4)
    torn = (b"RIFF" + struct.pack("<I", 16) + b"WAVE"
            + b"fmt " + struct.pack("<I", 16) + b"\x01\x00\x01\x00")
    with pytest.raises(ValueError):
        decode_wav(torn)
    # data chunk whose declared size overruns the buffer
    over = (b"RIFF" + struct.pack("<I", 100) + b"WAVE"
            + b"data" + struct.pack("<I", 1000) + b"\x00\x00")
    with pytest.raises(ValueError, match="truncated"):
        decode_wav(over)
    # odd-length PCM16 data
    fmt = struct.pack("<HHIIHH", 1, 1, 8000, 16000, 2, 16)
    odd = (b"RIFF" + struct.pack("<I", 33) + b"WAVE"
           + b"fmt " + struct.pack("<I", 16) + fmt
           + b"data" + struct.pack("<I", 3) + b"\x00\x01\x02" + b"\x00")
    with pytest.raises(ValueError, match="odd-length"):
        decode_wav(odd)
    # truncated PPM payload + non-positive dims
    with pytest.raises(ValueError, match="truncated"):
        decode_ppm(b"P6\n4 4\n255\n" + bytes(5))
    with pytest.raises(ValueError, match="non-positive"):
        decode_ppm(b"P6\n0 4\n255\n")
    # fuzz: truncations and byte flips of valid files
    rng = np.random.RandomState(9)
    wav = encode_wav(8000, (rng.randint(-100, 100, 64)).astype(np.int16))
    ppm = encode_ppm(4, 3, rng.randint(0, 256, 36).astype(np.uint8))
    png = encode_png(rng.randint(0, 256, (3, 4, 3)).astype(np.uint8))
    for buf, dec in ((wav, decode_wav), (ppm, decode_ppm), (png, decode_png)):
        for _ in range(120):
            b = bytearray(buf)
            if rng.rand() < 0.5:
                b = b[: rng.randint(0, len(b))]  # truncate
            else:
                b[rng.randint(len(b))] ^= 1 << rng.randint(8)  # bit flip
            try:
                dec(bytes(b))
            except ValueError:
                pass  # loud rejection is the contract


def test_scatter_many_queries_stress(built_index):
    """Many-queries scatter-gather: 10⁴ queries through 4 doc ranges —
    every query returns ≤ k rows, ranks are 1..n_i, and a sample matches
    the single-engine result exactly."""
    from librecatastro_ray.pipelines.query import QueryEngine, batch_search_scatter

    index_dir, _ = built_index
    k = 5
    vocab = ["def", "return", "if", "self", "x", "id_00007", "id_00028"]
    queries = [
        {"query_id": i, "kind": "match",
         "text": " ".join(vocab[(i + j) % len(vocab)] for j in range(1 + i % 3)),
         "k": k}
        for i in range(10_000)
    ]
    out = batch_search_scatter(index_dir, queries, n_ranges=4).to_pandas()
    per_q = out.groupby("query_id").size()
    assert (per_q <= k).all()
    ranks = out.groupby("query_id")["rank"].max()
    assert (ranks == per_q.loc[ranks.index]).all()  # ranks are dense 1..n
    eng = QueryEngine(index_dir)
    for i in (0, 137, 4242, 9999):
        exp = eng.match(queries[i]["text"], k=k)
        got = out[out.query_id == i].sort_values("rank")
        assert got["doc_id"].tolist() == exp["doc_id"].to_pylist(), i


def test_audio_suite_equals_features_join_frames():
    """AudioSuite (one decode pass) emits exactly the union of the
    AudioFeatures and AudioFrameSampler columns, value-identical."""
    from librecatastro_ray.pipelines.multimodal import AudioFrameSampler, AudioSuite

    t = _payload_batch(pa.table({"doc_id": pa.array([3, 44, 200], pa.int64())}))
    suite = AudioSuite(frame_len=32)(t)
    feats = AudioFeatures()(t)
    frames = AudioFrameSampler(frame_len=32)(t)
    for col in ("sample_rate", "n_samples", "sum_sq", "n_zero_cross"):
        assert suite[col].to_pylist() == feats[col].to_pylist()
    for col in ("n_frames", "max_frame_energy", "peak_frame"):
        assert suite[col].to_pylist() == frames[col].to_pylist()
