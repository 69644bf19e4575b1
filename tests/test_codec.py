"""Quantization against an independent IEEE oracle; bitstream round trips."""

import dataclasses
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsin import (
    BitstreamError,
    EncodedImage,
    HalfRangeError,
    SirenSpec,
    decompress,
    deserialize,
    mse,
    normalize,
    serialize,
    synth_cube,
)
import hsin.codec
import hsin.nn
from hsin.codec import quantize, reconstruct_normalized
from hsin.cube import ScaleInfo, save_cube
from hsin.nn import mlp_forward
from hsin.sampling import build_grid
from hsin.siren import init_params, param_count
from conftest import half_bits, make_cube


# ----------------------------------------------------------------- quantize

def test_quantize_frozen_bit_patterns():
    # expectations computed with CPython's struct converter, frozen here
    cases = {
        1.0: 0x3C00,
        -2.0: 0xC000,
        0.0: 0x0000,
        65504.0: 0x7BFF,
        2.0**-24: 0x0001,   # smallest subnormal
        1e-8: 0x0000,       # below half of the smallest subnormal: to zero
        1e-5: 0x00A8,       # subnormal, 168 * 2^-24
    }
    for value, bits in cases.items():
        assert half_bits(value) == bits  # oracle agrees with the freeze
        got = quantize(np.array([value], dtype=np.float64))
        assert got.view(np.uint16)[0] == bits


def test_quantize_round_to_nearest_even():
    # exactly halfway between 1.0 and 1.0+2^-10: tie goes to the even
    # mantissa (1.0); three halves up rounds to 1.0 + 2*2^-10
    tie_down = 1.0 + 2.0**-11
    tie_up = 1.0 + 3.0 * 2.0**-11
    assert quantize(np.array([tie_down])).view(np.uint16)[0] == 0x3C00
    assert quantize(np.array([tie_up])).view(np.uint16)[0] == 0x3C02
    assert half_bits(tie_down) == 0x3C00
    assert half_bits(tie_up) == 0x3C02


def test_quantize_matches_struct_oracle_randomly():
    rng = np.random.default_rng(31)
    vals = np.concatenate([
        rng.uniform(-65504, 65504, 200),
        rng.uniform(-1, 1, 200),
        rng.uniform(-1e-6, 1e-6, 100),
    ])
    ours = quantize(vals).view(np.uint16)
    theirs = np.array([half_bits(v) for v in vals], dtype=np.uint16)
    assert np.array_equal(ours, theirs)


def test_quantize_rejects_overflow_and_non_finite():
    with pytest.raises(HalfRangeError, match="parameter 2"):
        quantize(np.array([0.0, 1.0, 65505.0]))
    with pytest.raises(HalfRangeError, match="parameter 1"):
        quantize(np.array([0.0, np.nan]))
    with pytest.raises(HalfRangeError):
        quantize(np.array([np.inf]))
    with pytest.raises(HalfRangeError):
        quantize(np.array([-70000.0]))


def test_round_trip_error_bound():
    # |quantize(v) - v| <= 2^-11 * |v| for normal-range values
    rng = np.random.default_rng(33)
    vals = rng.uniform(0.01, 1000.0, 1000) * rng.choice([-1.0, 1.0], 1000)
    back = quantize(vals).astype(np.float64)
    assert np.all(np.abs(back - vals) <= 2.0**-11 * np.abs(vals))


# ---------------------------------------------------------------- bitstream

def random_encoded(rng, quantized):
    spec = SirenSpec(
        n_hidden=int(rng.integers(1, 5)),
        hidden_width=int(rng.integers(1, 17)),
        out_dim=int(rng.integers(1, 21)),
    )
    params = rng.normal(0, 0.3, param_count(spec)).astype(np.float32)
    if quantized:
        params = params.astype(np.float16)
    lo = float(np.float32(rng.uniform(-100, 100)))
    return EncodedImage(
        width=int(rng.integers(1, 51)),
        height=int(rng.integers(1, 51)),
        spec=spec,
        scale=ScaleInfo(lo, lo + float(np.float32(rng.uniform(0, 50)))),
        params=params,
    )


def assert_same_encoded(a: EncodedImage, b: EncodedImage):
    assert (a.width, a.height, a.spec, a.quantized) == (b.width, b.height, b.spec, b.quantized)
    assert a.scale == b.scale
    assert a.params.dtype == b.params.dtype
    assert a.params.tobytes() == b.params.tobytes()


def test_header_layout_byte_for_byte():
    spec = SirenSpec(n_hidden=15, hidden_width=40, out_dim=220)
    n = param_count(spec)
    assert n == 32100
    enc = EncodedImage(
        width=145, height=145, spec=spec, scale=ScaleInfo(0.25, 1.5),
        params=np.zeros(n, dtype=np.float32),
    )
    blob = serialize(enc)
    assert len(blob) == 25 + n * 4
    assert blob[:4] == b"HSIN"
    assert blob[4] == 1  # version
    assert struct.unpack_from("<HHH", blob, 5) == (145, 145, 220)
    assert blob[11] == 15 and blob[12] == 40 and blob[13] == 0
    assert blob[14:17] == b"\x00\x00\x00"  # reserved
    assert struct.unpack_from("<ff", blob, 17) == (0.25, 1.5)


def test_round_trip_random_images_both_precisions():
    rng = np.random.default_rng(34)
    for quantized in (False, True):
        for _ in range(40):
            enc = random_encoded(rng, quantized)
            blob = serialize(enc)
            assert len(blob) == 25 + enc.params.size * (2 if quantized else 4)
            assert enc.quantized == quantized and blob[13] == quantized  # precision from the payload
            back = deserialize(blob)
            assert_same_encoded(enc, back)
            assert serialize(back) == blob  # bytes are a fixed point too


def test_deserialize_error_cases():
    rng = np.random.default_rng(35)
    enc = random_encoded(rng, False)
    blob = serialize(enc)

    with pytest.raises(BitstreamError, match="magic"):
        deserialize(b"JUNK" + blob[4:])
    with pytest.raises(BitstreamError, match="version"):
        deserialize(blob[:4] + b"\x09" + blob[5:])
    with pytest.raises(BitstreamError, match="truncated"):
        deserialize(blob[:10])
    with pytest.raises(BitstreamError, match="expected"):
        deserialize(blob[:-4])  # truncated payload
    with pytest.raises(BitstreamError, match="expected"):
        deserialize(blob + b"\x00\x00\x00\x00")  # trailing garbage
    # flipping q claims a half payload: length no longer fits
    flipped = bytearray(blob)
    flipped[13] = 1
    with pytest.raises(BitstreamError, match="expected"):
        deserialize(bytes(flipped))
    # precision flag outside {0, 1}
    flipped[13] = 7
    with pytest.raises(BitstreamError, match="precision"):
        deserialize(bytes(flipped))
    # zero width
    zeroed = bytearray(blob)
    zeroed[5] = zeroed[6] = 0
    with pytest.raises(BitstreamError, match="zero"):
        deserialize(bytes(zeroed))
    # raw range (bytes 17-24): a NaN or inf bound, or raw_max < raw_min
    for raw_min, raw_max, message in [(np.nan, 1.0, "finite"), (0.0, np.inf, "finite"),
                                      (2.0, 1.0, "raw_max")]:
        bad = bytearray(blob)
        bad[17:25] = struct.pack("<ff", raw_min, raw_max)
        with pytest.raises(BitstreamError, match=message):
            deserialize(bytes(bad))


def test_deserialize_rejects_non_finite_weights():
    rng = np.random.default_rng(38)
    full = bytearray(serialize(random_encoded(rng, False)))
    full[25:29] = struct.pack("<f", float("nan"))  # first float32 weight
    with pytest.raises(BitstreamError, match="parameter 0 is nan"):
        deserialize(bytes(full))
    half = bytearray(serialize(random_encoded(rng, True)))
    half[27:29] = struct.pack("<H", 0x7C00)  # second float16 weight: +inf
    with pytest.raises(BitstreamError, match="parameter 1 is inf"):
        deserialize(bytes(half))


@pytest.mark.parametrize("half", [False, True], ids=["full32", "half16"])
@pytest.mark.parametrize("bad, i", [(np.nan, 0), (np.inf, 1), (-np.inf, 26)])
def test_encoded_image_rejects_non_finite_weights(half, bad, i):
    # a library-built image is checked as a parsed one is: one NaN or inf
    # weight would otherwise serialize, and decode to non-finite samples
    spec = SirenSpec(n_hidden=1, hidden_width=4, out_dim=3)
    params = init_params(spec, seed=0)
    params[i] = bad
    if half:
        params = params.astype(np.float16)
    with pytest.raises(ValueError, match=f"parameter {i} is {float(bad)}; weights must be finite"):
        EncodedImage(4, 4, spec, ScaleInfo(0.0, 1.0), params)


def _fuzz_base(quantized: bool) -> bytes:
    spec = SirenSpec(n_hidden=2, hidden_width=3, out_dim=2)
    params = init_params(spec, seed=1)
    return serialize(EncodedImage(
        width=3, height=2, spec=spec,
        scale=ScaleInfo(-1.0, 2.0), params=quantize(params) if quantized else params,
    ))


_FUZZ_BASES = (_fuzz_base(False), _fuzz_base(True))


@settings(max_examples=300, deadline=None)
@given(
    base=st.sampled_from(_FUZZ_BASES),
    flips=st.lists(st.tuples(st.integers(0, 200), st.integers(1, 255)), max_size=4),
    cut=st.just(0) | st.integers(1, 200),
    tail=st.binary(max_size=8),
)
def test_deserialize_fuzz_mutated_streams(base, flips, cut, tail):
    # byte flips, truncation and extension of a valid stream: either a clean
    # BitstreamError or a fully finite, self-consistent image
    blob = bytearray(base)
    for pos, mask in flips:
        blob[pos % len(blob)] ^= mask
    blob = bytes(blob[: max(0, len(blob) - cut)]) + tail
    try:
        enc = deserialize(blob)
    except BitstreamError:
        return
    assert np.isfinite(enc.params).all()
    assert len(blob) == 25 + enc.params.size * enc.params.itemsize


def test_reserved_bytes_ignored_on_read():
    rng = np.random.default_rng(36)
    enc = random_encoded(rng, True)
    blob = bytearray(serialize(enc))
    blob[14:17] = b"\xAA\xBB\xCC"
    back = deserialize(bytes(blob))
    assert_same_encoded(enc, back)


def test_encoded_image_validation():
    spec = SirenSpec(n_hidden=1, hidden_width=4, out_dim=3)
    good = np.zeros(param_count(spec), dtype=np.float32)
    with pytest.raises(ValueError, match="expected 27"):
        EncodedImage(4, 4, spec, ScaleInfo(0, 1), np.zeros(26, dtype=np.float32))
    # the payload's dtype is the precision: only float16 and float32 have a flag
    with pytest.raises(ValueError, match="float16 or float32 vector, got float64"):
        EncodedImage(4, 4, spec, ScaleInfo(0, 1), good.astype(np.float64))
    with pytest.raises(ValueError, match="width"):
        EncodedImage(0, 4, spec, ScaleInfo(0, 1), good)
    deep = SirenSpec(n_hidden=256, hidden_width=4, out_dim=3)
    with pytest.raises(ValueError, match="n_hidden"):
        EncodedImage(4, 4, deep, ScaleInfo(0, 1), np.zeros(param_count(deep), dtype=np.float32))


@pytest.mark.parametrize("field", ["params", "spec", "scale"])
def test_encoded_image_fields_cannot_be_reassigned(field):
    # no field can be swapped once the constructor has checked it: a
    # float64 vector with a NaN, assigned after the fact, would otherwise
    # serialize to a file that deserialize refuses
    spec = SirenSpec(n_hidden=1, hidden_width=4, out_dim=2)
    enc = EncodedImage(4, 4, spec, ScaleInfo(0.0, 1.0), init_params(spec, seed=0))
    blob = serialize(enc)
    bad = {"params": np.full(param_count(spec), np.nan),
           "spec": SirenSpec(n_hidden=2, hidden_width=4, out_dim=2),
           "scale": ScaleInfo(0.1, 1.0)}[field]
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(enc, field, bad)
    assert serialize(enc) == blob


def test_encoded_image_weights_cannot_be_written():
    # the image keeps a read-only copy of the weights: a NaN written into
    # them would skip the finite check, and serialize would write a file
    # that deserialize refuses
    spec = SirenSpec(n_hidden=1, hidden_width=4, out_dim=2)
    weights = init_params(spec, seed=0)
    enc = EncodedImage(4, 4, spec, ScaleInfo(0.0, 1.0), weights)
    blob = serialize(enc)
    with pytest.raises(ValueError, match="read-only"):
        enc.params[0] = np.nan
    assert serialize(enc) == blob
    weights[0] = np.nan  # the caller's array is not the image's, and stays writable
    assert serialize(enc) == blob
    assert deserialize(blob).params.tobytes() == enc.params.tobytes()


# --------------------------------------------------------------- decompress

def test_decompress_shape_scale_and_determinism():
    rng = np.random.default_rng(37)
    spec = SirenSpec(n_hidden=2, hidden_width=8, out_dim=3)
    enc = EncodedImage(
        width=6, height=5, spec=spec, scale=ScaleInfo(10.0, 30.0),
        params=init_params(spec, seed=8),
    )
    cube = decompress(enc)
    assert (cube.width, cube.height, cube.bands) == (6, 5, 3)
    # clipped to [0,1] before denormalization
    assert cube.data.min() >= 10.0 and cube.data.max() <= 30.0
    again = decompress(enc)
    assert np.array_equal(cube.data, again.data)


def test_decompress_inverts_normalize(monkeypatch):
    # with a net that reproduces the normalized cube exactly, decompress
    # restores raw units up to float32 rounding of the scale and the output
    rng = np.random.default_rng(4)
    cube = make_cube(6, 6, 2, rng.uniform(-3.0, 7.0, 6 * 6 * 2))
    norm, scale = normalize(cube)
    # 36 pixels are one row tile, so the patched net answers the whole grid
    monkeypatch.setattr(hsin.codec, "mlp_forward",
                        lambda *args: norm.band_matrix().T.astype(np.float32))
    spec = SirenSpec(n_hidden=1, hidden_width=1, out_dim=2)
    enc = EncodedImage(6, 6, spec, scale, init_params(spec, seed=0))
    back = decompress(enc)
    span = scale.raw_max - scale.raw_min
    assert np.abs(back.data - cube.data).max() <= 1e-6 * span


def test_decompress_half_equals_dequantized_full32_eval():
    # half payload scores exactly like its widened parameters run in 32-bit
    spec = SirenSpec(n_hidden=2, hidden_width=8, out_dim=2)
    params = init_params(spec, seed=9)
    half = quantize(params)
    enc_h = EncodedImage(5, 5, spec, ScaleInfo(0.0, 1.0), half)
    enc_f = EncodedImage(5, 5, spec, ScaleInfo(0.0, 1.0), half.astype(np.float32))
    assert np.array_equal(decompress(enc_h).data, decompress(enc_f).data)


@pytest.mark.parametrize("width, height, tiles", [(2, 3, 1), (7, 3, 3), (5, 4, 2), (11, 2, 3)],
                         ids=["under-one-tile", "whole-tiles", "ragged-last-tile", "one-row-left"])
def test_tiled_decode_equals_untiled_evaluation(monkeypatch, width, height, tiles):
    # 6, 21, 20 and 22 pixels in 7-row tiles; the tiled grid evaluation and
    # the raw-unit fill must match one untiled evaluation bitwise (a lone
    # one-row tile would round differently, through gemv)
    monkeypatch.setattr(hsin.nn, "TILE_ROWS", 7)
    spec = SirenSpec(n_hidden=2, hidden_width=16, out_dim=32)
    params = init_params(spec, seed=1)
    params[-32:] = 0.5  # output biases: keep outputs inside [0, 1], clear of the clip
    untiled = mlp_forward(spec, params, build_grid(width, height).astype(np.float32))
    assert 0.0 < untiled.min() and untiled.max() < 1.0
    calls = []

    def counted_forward(spec_, params_, inputs):
        calls.append(inputs.shape[0])
        return mlp_forward(spec_, params_, inputs)

    monkeypatch.setattr(hsin.codec, "mlp_forward", counted_forward)
    unit = EncodedImage(width, height, spec, ScaleInfo(0.0, 1.0), params)
    recon = decompress(unit).band_matrix().T  # pixel-major, as untiled
    assert len(calls) == tiles and sum(calls) == width * height
    assert min(calls) >= min(7, width * height)  # the remainder joined the last tile
    assert recon.dtype == np.float32
    assert np.array_equal(recon, untiled)

    enc = EncodedImage(width, height, spec, ScaleInfo(-3.7, 1234.56), params)
    span = enc.scale.raw_max - enc.scale.raw_min
    want = (recon.T.astype(np.float64) * span + enc.scale.raw_min).ravel()
    assert np.array_equal(decompress(enc).data, want.astype(np.float32))


@pytest.mark.parametrize("half", [False, True], ids=["full32", "half16"])
@pytest.mark.parametrize("width, height", [(2, 3), (5, 4), (11, 2), (9, 5)],
                         ids=["under-one-tile", "ragged-last-tile", "one-row-left", "7-tiles"])
def test_eval_score_is_the_mse_of_the_unit_scale_decode(monkeypatch, width, height, half):
    # the eval scores tile by tile and holds no reconstruction; its MSE is
    # bitwise that of the decode the compress report scores
    monkeypatch.setattr(hsin.nn, "TILE_ROWS", 7)
    spec = SirenSpec(n_hidden=2, hidden_width=16, out_dim=6)
    params = init_params(spec, seed=width)
    if half:
        params = quantize(params)
    cube, _ = normalize(synth_cube("band-sinusoid", width, height, 6, seed=height))
    recon = decompress(EncodedImage(width, height, spec, ScaleInfo(0.0, 1.0), params))
    score = reconstruct_normalized(spec, params, cube)
    assert score > 0
    assert score == mse(cube.band_matrix(), recon.band_matrix())


def test_decode_peak_memory(tmp_path):
    # decompress holds the float32 cube, the grid's coordinates and one
    # tile (5 B per sample at most); save_cube writes the samples as held
    spec = SirenSpec(n_hidden=2, hidden_width=16, out_dim=64)
    enc = EncodedImage(200, 150, spec, ScaleInfo(0.0, 1000.0), init_params(spec, seed=2))
    samples = 200 * 150 * 64
    path = tmp_path / "r.raw"
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        cube = decompress(enc)
        decode_peak = tracemalloc.get_traced_memory()[1] - base
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        save_cube(cube, path)
        save_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert decode_peak <= 5 * samples
    assert save_peak <= 1 * samples
    assert path.read_bytes() == cube.data.astype("<f4").tobytes()
