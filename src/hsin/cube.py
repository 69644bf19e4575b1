"""Hyperspectral cube I/O and scaling.

Cubes live on disk as raw band-sequential (BSQ) little-endian float32 with a
plain-text sidecar header, and are held in memory as the same float32
samples, so save followed by load is bitwise lossless. Normalization runs
in float64 and rounds its result once to float32.
"""

from __future__ import annotations

import contextlib
import math
import os
import stat
from dataclasses import dataclass
from pathlib import Path

import numpy as np

_INTERLEAVE = "bsq"
_DTYPE = "f32le"
_SYNTH_KINDS = ("smooth-gradient", "band-sinusoid", "random")
NORMALIZE_CHUNK = 1 << 15  # samples normalize widens to float64 at a time (256 KiB)


class CubeFormatError(Exception):
    """Raised for unreadable, truncated, or inconsistent cube files."""


@dataclass(frozen=True)
class CubeHeader:
    """Sidecar description of a raw cube file."""

    width: int
    height: int
    bands: int

    def __post_init__(self) -> None:
        for name in ("width", "height", "bands"):
            v = getattr(self, name)
            if not isinstance(v, int) or v < 1:
                raise CubeFormatError(f"{name} must be a positive integer, got {v!r}")


@dataclass(frozen=True)
class ScaleInfo:
    """Affine range captured before normalization, needed to undo it."""

    raw_min: float
    raw_max: float

    def __post_init__(self) -> None:
        if not (np.isfinite(self.raw_min) and np.isfinite(self.raw_max)):
            raise ValueError("scale bounds must be finite")
        if self.raw_max < self.raw_min:
            raise ValueError(f"raw_max {self.raw_max} < raw_min {self.raw_min}")


@dataclass(eq=False)
class HyperCube:
    """A width x height x bands cube: a flat BSQ float32 array, other dtypes rounded once."""

    width: int
    height: int
    bands: int
    data: np.ndarray

    def __post_init__(self) -> None:
        if min(self.width, self.height, self.bands) < 1:
            raise ValueError("cube dimensions must be >= 1")
        self.data = np.ascontiguousarray(self.data, dtype=np.float32).ravel()
        expected = self.width * self.height * self.bands
        if self.data.size != expected:
            raise ValueError(f"expected {expected} samples, got {self.data.size}")

    @property
    def value_range(self) -> tuple[float, float]:
        """(min, max) over every sample, scanned on each access."""
        return float(self.data.min()), float(self.data.max())

    @property
    def n_pixels(self) -> int:
        return self.width * self.height

    def band_matrix(self) -> np.ndarray:
        """View of the data as (bands, n_pixels), one row per band."""
        return self.data.reshape(self.bands, self.n_pixels)


def read_header(path: str | Path) -> CubeHeader:
    """Parse a key=value sidecar header."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise CubeFormatError(f"cannot read header {path}: {exc}") from exc
    fields: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise CubeFormatError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        fields[key.strip()] = value.strip()
    for key, only in (("interleave", _INTERLEAVE), ("dtype", _DTYPE)):
        if fields.get(key, only) != only:
            raise CubeFormatError(f"{path}: unsupported {key} {fields[key]!r}; only {only} is read")
    try:
        return CubeHeader(
            width=int(fields["width"]),
            height=int(fields["height"]),
            bands=int(fields["bands"]),
        )
    except KeyError as exc:
        raise CubeFormatError(f"{path}: missing header field {exc.args[0]}") from exc
    except ValueError as exc:
        raise CubeFormatError(f"{path}: bad header value: {exc}") from exc


def write_header(header: CubeHeader, path: str | Path) -> None:
    lines = [
        f"width={header.width}",
        f"height={header.height}",
        f"bands={header.bands}",
        f"interleave={_INTERLEAVE}",
        f"dtype={_DTYPE}",
    ]
    Path(path).write_text("\n".join(lines) + "\n")


def load_cube(data_path: str | Path, header: CubeHeader) -> HyperCube:
    """Read a raw BSQ float32 file described by `header`.

    The file's size is checked before any sample is read, and the samples
    are read straight into the cube's own (writable) array.
    """
    data_path = Path(data_path)
    expected = header.width * header.height * header.bands * 4
    try:
        with open(data_path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            if size == expected:
                data = np.empty(expected // 4, dtype="<f4")
                size = fh.readinto(data)
    except OSError as exc:
        raise CubeFormatError(f"cannot read {data_path}: {exc}") from exc
    if size != expected:
        raise CubeFormatError(
            f"{data_path}: expected {expected} bytes for "
            f"{header.width}x{header.height}x{header.bands} float32, got {size}"
        )
    cube = HyperCube(header.width, header.height, header.bands, data)
    _check_finite(cube, data_path, CubeFormatError)
    return cube


def _check_finite(cube: HyperCube, data_path: str | Path, error: type[Exception]) -> None:
    # a float64 sum of float32 samples cannot overflow, so it is finite
    # exactly when every sample is, and it needs no cube-sized array of flags
    if math.isfinite(cube.data.sum(dtype=np.float64)):
        return
    i = int(np.flatnonzero(~np.isfinite(cube.data))[0])
    band, pixel = divmod(i, cube.n_pixels)
    row, col = divmod(pixel, cube.width)
    raise error(f"{data_path}: sample {i} (band {band}, row {row}, col {col}) is "
                f"{float(cube.data[i])}; cube samples must be finite")


def header_path(data_path: str | Path) -> Path:
    """The .hdr sidecar next to a raw cube file."""
    return Path(data_path).with_suffix(".hdr")


def open_cube(data_path: str | Path) -> HyperCube:
    """Load a cube given its data file, reading the .hdr sidecar next to it."""
    return load_cube(data_path, read_header(header_path(data_path)))


@contextlib.contextmanager
def removed_on_failure(*paths: str | Path):
    """If the block fails, remove each of `paths` that is a regular file.

    Never a FIFO or device named as an output, and a removal that fails
    leaves the block's own error to rise. Open a file before entering, so
    a file that cannot be opened is never removed.
    """
    try:
        yield
    except BaseException:
        for path in map(Path, paths):
            with contextlib.suppress(OSError):
                if path.is_file():
                    path.unlink()
        raise


@contextlib.contextmanager
def create_cube(data_path: str | Path, header: CubeHeader):
    """Open `data_path` for the block to write, then write its .hdr sidecar.

    An existing data file is overwritten in place and cut to the cube's size
    after the block: truncating it first would make the kernel free its pages
    and extents, only to allocate them again. Its .hdr is removed before any
    data is written, so a write cut short, even by a kill, leaves no cube
    that opens. (No sidecar guards a .hsin that way, so compress still
    truncates its output.) If the block or the sidecar fails, the data file
    and any sidecar at its path are removed (removed_on_failure), so a failed
    write leaves no partial or stale cube.
    """
    hdr = header_path(data_path)
    # the mode open(..., "wb") uses, so the umask applies the same way
    fh = os.fdopen(os.open(data_path, os.O_WRONLY | os.O_CREAT, 0o666), "wb")
    with removed_on_failure(data_path, hdr):
        with fh:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(hdr)
            yield fh
            fh.flush()
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                os.ftruncate(fh.fileno(), 4 * header.width * header.height * header.bands)
        write_header(header, hdr)


def save_cube(cube: HyperCube, data_path: str | Path) -> None:
    """Write raw little-endian float32 BSQ plus the .hdr sidecar next to it.

    The cube's samples are written as they are held. A non-finite sample
    raises ValueError before any file is created, as open_cube would reject
    the file.
    """
    _check_finite(cube, data_path, ValueError)
    with create_cube(data_path, CubeHeader(cube.width, cube.height, cube.bands)) as fh:
        fh.write(cube.data.astype("<f4", copy=False))


def normalize(cube: HyperCube) -> tuple[HyperCube, ScaleInfo]:
    """Min-max scale all samples into [0, 1], in float64, rounded once to float32.

    Float64 is held for one NORMALIZE_CHUNK; a constant cube maps to all zeros.
    The returned ScaleInfo restores raw units: v * (raw_max - raw_min) + raw_min.
    """
    lo, hi = cube.value_range
    scaled = np.zeros_like(cube.data)
    if hi > lo:
        for i in range(0, scaled.size, NORMALIZE_CHUNK):
            # dtype: against a python float numpy would subtract in float32 (NEP 50)
            chunk = np.subtract(cube.data[i:i + NORMALIZE_CHUNK], lo, dtype=np.float64)
            chunk /= hi - lo
            scaled[i:i + NORMALIZE_CHUNK] = chunk
    return HyperCube(cube.width, cube.height, cube.bands, scaled), ScaleInfo(lo, hi)


def _axis_unit(n: int) -> np.ndarray:
    # evenly spaced in [0, 1]; a single sample sits at 0
    if n == 1:
        return np.zeros(1)
    return np.arange(n, dtype=np.float64) / (n - 1)


def synth_cube(kind: str, width: int, height: int, bands: int, seed: int = 0) -> HyperCube:
    """Deterministic synthetic cubes for tests and demos.

    smooth-gradient: (x + y + band_frac) / 3, low frequency everywhere.
    band-sinusoid:   0.5 + 0.5*sin(2*pi*(x + y + band_frac)).
    random:          uniform noise in [0, 1).

    x and y are the unit-normalized pixel coordinates and band_frac is
    band_index / bands. Float64 is held for one band, each rounded once.
    """
    if kind not in _SYNTH_KINDS:
        raise ValueError(f"unknown synth kind {kind!r}; expected one of {_SYNTH_KINDS}")
    if min(width, height, bands) < 1:
        raise ValueError("cube dimensions must be >= 1")
    out = np.empty((bands, width * height), dtype=np.float32)
    rng = np.random.default_rng(seed)
    xy = (_axis_unit(width)[None, :] + _axis_unit(height)[:, None]).ravel()
    t = np.arange(bands, dtype=np.float64) / bands
    for b in range(bands):
        if kind == "random":
            out[b] = rng.random(out.shape[1])
        elif kind == "smooth-gradient":
            out[b] = np.clip((xy + t[b]) / 3.0, 0.0, 1.0)
        else:
            out[b] = 0.5 + 0.5 * np.sin(2.0 * np.pi * (xy + t[b]))
    return HyperCube(width, height, bands, out)
