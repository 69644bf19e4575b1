"""Bitstream serialization and decoding.

File layout (little-endian, 25-byte fixed prefix, see FORMAT.md):

    offset  size  field
    0       4     magic "HSIN"
    4       1     format version (1)
    5       2     width   (uint16)
    7       2     height  (uint16)
    9       2     bands   (uint16)
    11      1     n_hidden      (uint8)
    12      1     hidden_width  (uint8)
    13      1     precision flag: 0 = float32 payload, 1 = float16
    14      3     reserved, written as zero, ignored on read
    17      4     raw_min (float32)
    21      4     raw_max (float32)
    25      ...   parameter payload, canonical flat order

The architecture plus the band count fully determine the parameter count, so
the payload length is implied and checked. The sine frequency is a constant
of format version 1 (w0 = 30); it is not stored. Every decision about what
the payload holds (its dtype per precision, the shapes the header can store)
is made in this module.
"""

from __future__ import annotations

import errno
import os
import struct
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .cube import CubeHeader, HyperCube, ScaleInfo, create_cube
from .nn import mlp_forward, row_tiles
from .sampling import build_grid
from .siren import SirenSpec, param_count

MAGIC = b"HSIN"
VERSION = 1

_HEADER = struct.Struct("<4sBHHHBBB3x")
_SCALE = struct.Struct("<ff")
HEADER_BYTES = _HEADER.size + _SCALE.size  # 25

HALF_MAX = 65504.0

# Bytes decompress_to buffers per write. A 512x512x224 decode (2 cores, 1
# BLAS thread) took 1.35 s writing every tile on its own, 0.9-1.25 s with
# this; 16 MiB was as fast, but glibc then kept about 8 MB more heap resident.
WRITE_BUFFER_BYTES = 8 << 20

class BitstreamError(Exception):
    """Raised for malformed, truncated, or inconsistent bitstreams."""


class HalfRangeError(ValueError):
    """Raised when a parameter cannot be represented in float16."""


def quantize(params: np.ndarray) -> np.ndarray:
    """Round-to-nearest-even conversion of a parameter vector to float16.

    Every value must be finite and within +-65504; numpy would silently
    overflow to inf otherwise, so the range is checked up front and the
    error names the offending parameter.
    """
    arr = np.asarray(params)
    bad = ~np.isfinite(arr)
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        raise HalfRangeError(f"parameter {i} is {arr[i]!r}; only finite values can be quantized")
    over = np.abs(arr) > HALF_MAX
    if over.any():
        i = int(np.flatnonzero(over)[0])
        raise HalfRangeError(
            f"parameter {i} = {arr[i]!r} exceeds the half-precision range +-{HALF_MAX:.0f}"
        )
    return arr.astype(np.float16)


def payload_dtype(half: bool) -> np.dtype:
    """On-disk dtype of the weights: float16 for a half payload, else float32."""
    return np.dtype("<f2" if half else "<f4")


def payload_bits(half: bool) -> int:
    """Bits one stored parameter takes, for rate (bpppb) arithmetic."""
    return 8 * payload_dtype(half).itemsize


def check_format(width: int, height: int, spec: SirenSpec) -> None:
    """Raise ValueError unless format version 1 can store this scene and net.

    The header holds width, height and bands as uint16 and the net's depth
    and width as uint8.
    """
    for name, value, hi in (("width", width, 65535), ("height", height, 65535),
                            ("bands", spec.out_dim, 65535), ("n_hidden", spec.n_hidden, 255),
                            ("hidden_width", spec.hidden_width, 255)):
        if not isinstance(value, int) or not 1 <= value <= hi:
            raise ValueError(f"{name} must be an integer in [1, {hi}], got {value!r}")


@dataclass(frozen=True, eq=False)
class EncodedImage:
    """A .hsin file in memory: shape, net, scale, finite weights; their dtype is the precision."""

    width: int
    height: int
    spec: SirenSpec
    scale: ScaleInfo
    params: np.ndarray

    def __post_init__(self) -> None:
        check_format(self.width, self.height, self.spec)
        if self.params.ndim != 1 or self.params.dtype != payload_dtype(self.quantized):
            raise ValueError(
                "params must be a 1-D float16 or float32 vector, "
                f"got {self.params.dtype} with shape {self.params.shape}"
            )
        expected = param_count(self.spec)
        if self.params.size != expected:
            raise ValueError(f"expected {expected} parameters, got {self.params.size}")
        bad = ~np.isfinite(self.params)
        if bad.any():
            i = int(np.flatnonzero(bad)[0])
            raise ValueError(f"parameter {i} is {float(self.params[i])}; weights must be finite")
        # the wire format stores the scale at float32 precision; canonicalize
        # now so a serialize round trip reproduces this object bitwise
        object.__setattr__(self, "scale", ScaleInfo(
            float(np.float32(self.scale.raw_min)), float(np.float32(self.scale.raw_max))
        ))

    @property
    def quantized(self) -> bool:
        """True for a float16 payload (precision flag 1), False for float32 (flag 0)."""
        return self.params.dtype == payload_dtype(True)


def serialize(enc: EncodedImage) -> bytes:
    head = _HEADER.pack(MAGIC, VERSION, enc.width, enc.height, enc.spec.out_dim,
                        enc.spec.n_hidden, enc.spec.hidden_width, int(enc.quantized))
    scale = _SCALE.pack(enc.scale.raw_min, enc.scale.raw_max)
    return head + scale + enc.params.tobytes()


def deserialize(blob: bytes) -> EncodedImage:
    if len(blob) < HEADER_BYTES:
        raise BitstreamError(f"stream truncated: {len(blob)} bytes, header needs {HEADER_BYTES}")
    magic, version, width, height, bands, n_hidden, hidden_width, qflag = _HEADER.unpack_from(blob, 0)
    if magic != MAGIC:
        raise BitstreamError(f"bad magic {magic!r}")
    if version != VERSION:
        raise BitstreamError(f"unsupported format version {version}")
    if qflag not in (0, 1):
        raise BitstreamError(f"bad precision flag {qflag}")
    if min(width, height, bands, n_hidden, hidden_width) < 1:
        raise BitstreamError("header contains a zero dimension")
    raw_min, raw_max = _SCALE.unpack_from(blob, _HEADER.size)
    spec = SirenSpec(n_hidden=n_hidden, hidden_width=hidden_width, out_dim=bands)
    count = param_count(spec)
    dtype = payload_dtype(bool(qflag))
    expected = HEADER_BYTES + count * dtype.itemsize
    if len(blob) != expected:
        raise BitstreamError(f"expected {expected} bytes for {count} parameters, got {len(blob)}")
    params = np.frombuffer(blob, dtype=dtype, offset=HEADER_BYTES).copy()
    try:
        return EncodedImage(width, height, spec, ScaleInfo(raw_min, raw_max), params)
    except ValueError as exc:
        raise BitstreamError(f"inconsistent stream: {exc}") from exc


def tile_net(spec: SirenSpec, params: np.ndarray, width: int,
             height: int) -> Callable[..., np.ndarray]:
    """net(rows, out=None): one hsin.nn.row_tiles tile's float32 output, clipped to [0, 1].

    The one normalized decode step, shared by the encoder's evals and report
    and both decoders; a float16 payload is widened exactly to float32. The
    grid's float32 coordinates (8 B per pixel) are made now, so a scene too
    large for memory fails before a decoder opens its output.
    """
    coords = build_grid(width, height)
    params = np.asarray(params, dtype=np.float32)

    def net(rows: slice, out: np.ndarray | None = None) -> np.ndarray:
        y = mlp_forward(spec, params, coords[rows])
        return np.clip(y, 0.0, 1.0, out=y if out is None else out)

    return net


def reconstruct_normalized(spec: SirenSpec, params: np.ndarray, width: int, height: int) -> np.ndarray:
    """Evaluate the net on the full grid; (n_pixels, bands) float32 in [0, 1].

    tile_net's tiles held whole, for the compress report's SSIM and its
    decompress_seconds only: the encoder scores each eval tile by tile.
    Every row is bitwise equal to one untiled evaluation of the whole grid.
    """
    net = tile_net(spec, params, width, height)
    out = np.empty((width * height, spec.out_dim), dtype=np.float32)
    for rows in row_tiles(out.shape[0]):
        net(rows, out[rows])
    return out


def tile_decoder(enc: EncodedImage) -> Callable[[slice, np.ndarray], None]:
    """decode(rows, out): one hsin.nn.row_tiles tile of pixels in raw units.

    `out` is a float32 (bands, len(rows)) array; it gets tile_net's output
    times (raw_max - raw_min) plus raw_min, computed in a float64 tile and
    rounded once. decompress and decompress_to both decode through it.
    """
    net = tile_net(enc.spec, enc.params, enc.width, enc.height)
    span = enc.scale.raw_max - enc.scale.raw_min

    def decode(rows: slice, out: np.ndarray) -> None:
        # dtype: against a python float numpy would multiply in float32 and
        # only widen the product (NEP 50)
        tile = np.multiply(net(rows).T, span, dtype=np.float64)
        tile += enc.scale.raw_min
        out[...] = tile

    return decode


def decompress(enc: EncodedImage) -> HyperCube:
    """Decode to a float32 cube in raw units: the samples decompress_to writes."""
    decode = tile_decoder(enc)
    raw = np.empty((enc.spec.out_dim, enc.width * enc.height), dtype=np.float32)
    for rows in row_tiles(raw.shape[1]):
        decode(rows, raw[:, rows])
    return HyperCube(enc.width, enc.height, enc.spec.out_dim, raw)


def decompress_to(enc: EncodedImage, data_path: str | Path) -> CubeHeader:
    """Write save_cube(decompress(enc), data_path)'s bytes without holding the cube.

    Tiles are decoded into one band-major buffer of at most
    WRITE_BUFFER_BYTES (always at least one tile); a full buffer goes out as
    one positioned write per band, at the band's offset in the file.
    Returns the CubeHeader written to the .hdr sidecar.
    """
    header = CubeHeader(enc.width, enc.height, enc.spec.out_dim)
    decode = tile_decoder(enc)
    n = enc.width * enc.height
    tiles = row_tiles(n)
    longest = max(rows.stop - rows.start for rows in tiles)
    buf = np.empty((header.bands, max(min(WRITE_BUFFER_BYTES // (4 * header.bands), n), longest)),
                   dtype="<f4")
    with create_cube(data_path, header) as fh:
        if not fh.seekable():
            raise OSError(errno.ESPIPE, f"cannot write {data_path}: bands are written at their "
                          "offsets, so the output must be a seekable file, not a pipe")
        first = filled = 0  # the buffer holds pixels first .. first + filled
        for rows in tiles:
            k = rows.stop - rows.start
            if filled + k > buf.shape[1]:
                _write_bands(fh.fileno(), buf[:, :filled], n, first)
                first, filled = rows.start, 0
            decode(rows, buf[:, filled:filled + k])
            filled += k
        _write_bands(fh.fileno(), buf[:, :filled], n, first)
    return header


def _write_bands(fd: int, block: np.ndarray, n_pixels: int, first: int) -> None:
    # block is (bands, k) samples of pixels first .. first + k; band b of the
    # BSQ file starts at sample b * n_pixels
    for band, samples in enumerate(block):
        view = memoryview(samples).cast("B")
        offset = 4 * (band * n_pixels + first)
        while view:  # a short write (at a file size limit) is retried, so it raises
            done = os.pwrite(fd, view, offset)
            view, offset = view[done:], offset + done
