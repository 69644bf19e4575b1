"""Cube I/O, normalization, and synthetic generators."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsin import CubeFormatError, HyperCube, normalize, open_cube, save_cube, synth_cube
from hsin.cube import CubeHeader, read_header, write_header
from conftest import make_cube


# ---------------------------------------------------------------- structure

def test_bsq_layout_and_band_views():
    # band 0 then band 1, each row-major
    data = [0, 1, 2, 3, 10, 11, 12, 13]
    cube = make_cube(2, 2, 2, data)
    assert cube.band_matrix().tolist() == [[0, 1, 2, 3], [10, 11, 12, 13]]
    # row 1, col 0 of band 1
    assert cube.band_matrix()[1].reshape(cube.height, cube.width)[1, 0] == 12


def test_dimension_validation():
    with pytest.raises(ValueError):
        HyperCube(0, 4, 2, np.zeros(0))
    with pytest.raises(ValueError):
        make_cube(2, 2, 2, np.zeros(7))  # wrong sample count


# ---------------------------------------------------------------- save/load

def test_save_load_round_trip_bitwise(tmp_path):
    cube = synth_cube("random", 5, 4, 3, seed=7)
    path = tmp_path / "cube.raw"
    save_cube(cube, path)
    again = open_cube(path)
    assert (again.width, again.height, again.bands) == (5, 4, 3)
    assert np.array_equal(again.data, cube.data)
    assert again.value_range == cube.value_range


def test_load_size_mismatch(tmp_path):
    cube = synth_cube("random", 4, 4, 2, seed=0)
    path = tmp_path / "cube.raw"
    save_cube(cube, path)
    path.write_bytes(path.read_bytes()[:-4])  # truncate one sample
    with pytest.raises(CubeFormatError, match="expected"):
        open_cube(path)


def test_wrong_size_file_is_rejected_before_it_is_read(tmp_path):
    # a sparse 1 GiB file under a 32x32x8 header: only its size is looked at
    path = tmp_path / "big.raw"
    with open(path, "wb") as fh:
        fh.truncate(1 << 30)
    write_header(CubeHeader(32, 32, 8), tmp_path / "big.hdr")
    tracemalloc.start()
    try:
        with pytest.raises(CubeFormatError, match="expected 32768 bytes"):
            open_cube(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_loaded_cube_is_writable_float32(tmp_path):
    save_cube(synth_cube("random", 3, 2, 2, seed=0), tmp_path / "c.raw")
    data = open_cube(tmp_path / "c.raw").data
    assert data.dtype == np.float32 and data.flags.writeable
    data[0] = 2.0


def test_float64_samples_are_rounded_once():
    vals = np.random.default_rng(4).uniform(-40.0, 90.0, 3 * 2 * 5)
    cube = HyperCube(3, 2, 5, vals)
    assert cube.data.dtype == np.float32
    assert np.array_equal(cube.data, vals.astype(np.float32))


def test_save_rejects_non_finite_samples_before_writing(tmp_path):
    with np.errstate(over="ignore"):
        cube = HyperCube(2, 2, 1, [0.0, np.nan, 1e39, 1.0])  # 1e39 overflows float32
    with pytest.raises(ValueError, match=r"sample 1 \(band 0, row 0, col 1\) is nan"):
        save_cube(cube, tmp_path / "c.raw")
    cube.data[1] = 0.0
    with pytest.raises(ValueError, match=r"sample 2 \(band 0, row 1, col 0\) is inf"):
        save_cube(cube, tmp_path / "c.raw")
    assert list(tmp_path.iterdir()) == []


def test_load_missing_file(tmp_path):
    # the sidecar is there, so it is the data file's read that fails
    write_header(CubeHeader(2, 2, 2), tmp_path / "nope.hdr")
    with pytest.raises(CubeFormatError, match="cannot read"):
        open_cube(tmp_path / "nope.raw")


def test_header_round_trip_and_errors(tmp_path):
    cube = synth_cube("random", 3, 2, 4, seed=1)
    save_cube(cube, tmp_path / "c.raw")
    hdr = read_header(tmp_path / "c.hdr")
    assert (hdr.width, hdr.height, hdr.bands) == (3, 2, 4)
    assert "interleave=bsq\ndtype=f32le\n" in (tmp_path / "c.hdr").read_text()

    bad = tmp_path / "bad.hdr"
    bad.write_text("width=3\nheight=2\n")  # bands missing
    with pytest.raises(CubeFormatError, match="bands"):
        read_header(bad)
    bad.write_text("width=3\nheight=2\nbands=x\n")
    with pytest.raises(CubeFormatError):
        read_header(bad)
    bad.write_text("width 3\n")
    with pytest.raises(CubeFormatError, match="key=value"):
        read_header(bad)
    with pytest.raises(CubeFormatError):
        CubeHeader(3, 0, 4)
    bad.write_text("width=3\nheight=2\nbands=4\ninterleave=bil\n")
    with pytest.raises(CubeFormatError, match="interleave 'bil'"):
        read_header(bad)
    bad.write_text("width=3\nheight=2\nbands=4\ndtype=f64le\n")
    with pytest.raises(CubeFormatError, match="dtype"):
        read_header(bad)


def test_load_rejects_non_finite_samples(tmp_path):
    for bad_value, shown in ((np.nan, "nan"), (-np.inf, "-inf")):
        cube = synth_cube("random", 3, 2, 2, seed=0)
        save_cube(cube, tmp_path / "c.raw")
        data = cube.data.astype("<f4")
        data[8] = bad_value  # band 1, row 0, col 2
        (tmp_path / "c.raw").write_bytes(data.tobytes())
        with pytest.raises(CubeFormatError, match=f"sample 8 \\(band 1, row 0, col 2\\) is {shown}"):
            open_cube(tmp_path / "c.raw")


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet=st.characters(blacklist_categories=("Cs",))))
def test_read_header_fuzz_text(tmp_path_factory, text):
    # arbitrary text either parses into a valid header or fails cleanly
    path = tmp_path_factory.mktemp("hdr") / "c.hdr"
    path.write_text(text, encoding="utf-8")
    try:
        hdr = read_header(path)
    except CubeFormatError:
        return
    assert min(hdr.width, hdr.height, hdr.bands) >= 1


@settings(max_examples=100, deadline=None)
@given(st.binary())
def test_read_header_fuzz_bytes(tmp_path_factory, blob):
    path = tmp_path_factory.mktemp("hdr") / "c.hdr"
    path.write_bytes(b"width=2\nheight=2\nbands=2\n" + blob)
    try:
        hdr = read_header(path)
    except CubeFormatError:
        return
    assert min(hdr.width, hdr.height, hdr.bands) >= 1


def test_header_comments_and_blank_lines(tmp_path):
    p = tmp_path / "c.hdr"
    p.write_text("# comment\n\nwidth=2\nheight=3\nbands=4\n")
    hdr = read_header(p)
    assert (hdr.width, hdr.height, hdr.bands) == (2, 3, 4)


# ------------------------------------------------------------ normalization

def test_normalize_exact_values():
    cube = make_cube(3, 1, 1, [10.0, 20.0, 30.0])
    norm, scale = normalize(cube)
    assert norm.data.tolist() == [0.0, 0.5, 1.0]
    assert (scale.raw_min, scale.raw_max) == (10.0, 30.0)


def test_normalize_rounds_float64_arithmetic_once():
    # 0.1 and 0.7 are inexact in float32, so float32 arithmetic would differ
    cube = make_cube(5, 1, 1, [0.1, 0.2, 0.3, 0.5, 0.7])
    norm, scale = normalize(cube)
    x = cube.data.astype(np.float64)
    want = ((x - scale.raw_min) / (scale.raw_max - scale.raw_min)).astype(np.float32)
    assert norm.data.dtype == np.float32
    assert np.array_equal(norm.data, want)


def test_normalize_constant_cube():
    cube = make_cube(2, 1, 1, [5.0, 5.0])
    norm, scale = normalize(cube)
    assert norm.data.tolist() == [0.0, 0.0]
    assert (scale.raw_min, scale.raw_max) == (5.0, 5.0)


def test_normalize_range_and_monotone():
    rng = np.random.default_rng(3)
    vals = rng.uniform(-40.0, 90.0, 4 * 5 * 6)
    cube = make_cube(4, 5, 6, vals)
    norm, _ = normalize(cube)
    assert norm.data.min() == 0.0
    assert norm.data.max() == 1.0
    assert np.all(norm.data >= 0.0) and np.all(norm.data <= 1.0)
    # order of samples is preserved
    order = np.argsort(vals, kind="stable")
    assert np.all(np.diff(norm.data[order]) >= 0)


def _traced_peak(fn):
    """fn's result and the most traced bytes it held above what was held before."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


# 1,996,800 samples: several normalize chunks, the last one short
MEMORY_SCENE = (130, 120, 128)


def test_normalize_peak_memory_is_its_result_and_one_chunk():
    # the float32 result is 4 B per sample; a whole-cube float64 quotient
    # beside it peaked at 12 B per sample
    cube = synth_cube("band-sinusoid", *MEMORY_SCENE)
    (norm, scale), peak = _traced_peak(lambda: normalize(cube))
    assert peak <= 4.5 * cube.data.size
    x = cube.data.astype(np.float64)
    want = ((x - scale.raw_min) / (scale.raw_max - scale.raw_min)).astype(np.float32)
    assert np.array_equal(norm.data, want)


# -------------------------------------------------------------------- synth

def test_synth_smooth_gradient_hand_values():
    cube = synth_cube("smooth-gradient", 2, 1, 1)
    assert cube.data[0] == 0.0
    assert abs(cube.data[1] - 1.0 / 3.0) < 1e-7  # rounded through float32


def test_synth_determinism_and_kinds():
    a = synth_cube("random", 6, 5, 3, seed=9)
    b = synth_cube("random", 6, 5, 3, seed=9)
    c = synth_cube("random", 6, 5, 3, seed=10)
    assert np.array_equal(a.data, b.data)
    assert not np.array_equal(a.data, c.data)
    for kind in ("smooth-gradient", "band-sinusoid", "random"):
        cube = synth_cube(kind, 4, 3, 2, seed=1)
        assert cube.data.min() >= 0.0 and cube.data.max() <= 1.0
    with pytest.raises(ValueError, match="kind"):
        synth_cube("checkerboard", 2, 2, 2)
    with pytest.raises(ValueError):
        synth_cube("random", 0, 2, 2)


def _synth_oracle(kind: str, width: int, height: int, bands: int, seed: int) -> np.ndarray:
    # the whole cube in float64 at once, rounded to float32 once
    if kind == "random":
        return np.random.default_rng(seed).random(bands * height * width).astype(np.float32)
    x = (np.arange(width) / max(width - 1, 1))[None, None, :]
    y = (np.arange(height) / max(height - 1, 1))[None, :, None]
    t = (np.arange(bands) / bands)[:, None, None]
    phase = x + y + t
    if kind == "smooth-gradient":
        vals = np.clip(phase / 3.0, 0.0, 1.0)
    else:
        vals = 0.5 + 0.5 * np.sin(2.0 * np.pi * phase)
    return vals.astype(np.float32).ravel()


@pytest.mark.parametrize("dims", [(37, 23, 9), (1, 5, 3), (6, 1, 1)])
@pytest.mark.parametrize("kind", ["smooth-gradient", "band-sinusoid", "random"])
def test_synth_equals_a_whole_cube_float64_oracle(kind, dims):
    # synth_cube works one band at a time; random then draws its stream
    # band by band, which must be the stream one whole-cube draw gives
    assert np.array_equal(synth_cube(kind, *dims, seed=5).data, _synth_oracle(kind, *dims, 5))


def test_synth_peak_memory_is_its_cube_and_one_band():
    synth_cube("random", 2, 2, 2)  # numpy loads np.random lazily, on first use
    cube, peak = _traced_peak(lambda: synth_cube("band-sinusoid", *MEMORY_SCENE))
    # the float32 cube is 4 B per sample; the broadcast float64 phase and its
    # sine peaked at 24 B per sample
    assert peak <= 4.5 * cube.data.size


def test_synth_survives_disk_round_trip(tmp_path):
    for kind in ("smooth-gradient", "band-sinusoid", "random"):
        cube = synth_cube(kind, 7, 3, 2, seed=2)
        save_cube(cube, tmp_path / "s.raw")
        again = open_cube(tmp_path / "s.raw")
        assert np.array_equal(again.data, cube.data)
