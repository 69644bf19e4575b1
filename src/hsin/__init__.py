"""hsin: hyperspectral image compression with coordinate networks.

A small MLP with sine activations is overfit to one cube, mapping pixel
coordinates to spectral signatures; its weights, optionally stored at half
precision, are the compressed file. Decompression evaluates the network on
the full coordinate grid and restores raw units.
"""

import os as _os
import sys as _sys
import warnings as _warnings

# BLAS backends read their thread-count variables when numpy loads, so this
# must happen before numpy loads anywhere; if it already has, say so.
_threads = _os.environ.get("HSIN_THREADS")
if _threads and not (_threads.strip().isascii() and _threads.strip().isdigit()
                     and int(_threads) >= 1):
    _warnings.warn(f"HSIN_THREADS={_threads!r} pins no BLAS threads: it is not a positive "
                   "integer, so no thread variable was set", RuntimeWarning, stacklevel=2)
    _threads = None
if _threads:
    _threads = _threads.strip()
    _unset = [v for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
              if v not in _os.environ]
    if _unset and "numpy" in _sys.modules:
        _warnings.warn(f"HSIN_THREADS={_threads} does not pin BLAS threads: numpy was imported "
                       f"before hsin, so {', '.join(_unset)} came too late; import hsin first "
                       "or set them yourself", RuntimeWarning, stacklevel=2)
    _os.environ.update(dict.fromkeys(_unset, _threads))
    del _unset
del _os, _sys, _warnings, _threads

from .adam import TrainingDiverged
from .codec import (
    BitstreamError,
    EncodedImage,
    HalfRangeError,
    decompress,
    deserialize,
    serialize,
)
from .cube import CubeFormatError, HyperCube, normalize, open_cube, save_cube, synth_cube
from .encoder import TrainConfig, architecture_search, compress
from .metrics import QualityReport, bpppb, mse, psnr, ssim_mean
from .sampling import SampleConfig
from .siren import SirenSpec

__version__ = "0.1.0"

# The pipeline the CLI drives, plus its error types. Lower-level pieces are
# imported from their submodules: hsin.nn, hsin.siren, hsin.adam,
# hsin.sampling, hsin.codec, hsin.cube, hsin.encoder, hsin.metrics.
__all__ = [
    "synth_cube", "open_cube", "save_cube", "normalize", "HyperCube",
    "SirenSpec", "TrainConfig", "SampleConfig", "compress", "architecture_search",
    "EncodedImage", "serialize", "deserialize", "decompress",
    "QualityReport", "mse", "psnr", "ssim_mean", "bpppb",
    "CubeFormatError", "BitstreamError", "HalfRangeError", "TrainingDiverged",
    "__version__",
]
