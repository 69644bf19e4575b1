"""hsin: hyperspectral image compression with coordinate networks.

A small MLP with sine activations is overfit to one cube, mapping pixel
coordinates to spectral signatures; its weights, optionally stored at half
precision, are the compressed file. Decompression evaluates the network on
the full coordinate grid and restores raw units.
"""

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
