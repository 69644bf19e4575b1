"""Fixed-seed reference outputs: the .hsin bytes, the decoded cube and the eval history.

Two compress-and-decode runs at one BLAS thread must write the bytes
recorded here. Those bytes depend on the numpy build, the BLAS kernels and
the SIMD set, so they are keyed by an environment fingerprint; on any other
fingerprint the test skips and names the one it found.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hsin

BASE = ["--layers", "3", "--width", "32", "--iters", "200"]
# run name -> compress flags
RUNS = {"full32": BASE,
        "sampled-half16": [*BASE, "--sample-window", "3", "--sample-rate", "0.25", "--half"]}

# fingerprint -> {run: (.hsin sha256, decoded .raw sha256, --history-csv sha256)},
# both runs on the band-sinusoid 32x32x8 cube
REFERENCE = {
    ("numpy 2.4.6",
     "OpenBLAS 0.3.31.188.0  USE64BITINT DYNAMIC_ARCH NO_AFFINITY Haswell MAX_THREADS=64",
     "AVX AVX2 AVX512BF16 AVX512BITALG AVX512BW AVX512CD AVX512DQ AVX512F AVX512FP16 "
     "AVX512IFMA AVX512VBMI AVX512VBMI2 AVX512VL AVX512VNNI AVX512VPOPCNTDQ AVX512_CLX "
     "AVX512_CNL AVX512_ICL AVX512_SKX AVX512_SPR BMI BMI2 CX16 F16C FMA3 GFNI LAHF LZCNT "
     "MMX MOVBE POPCNT SSE SSE2 SSE3 SSE41 SSE42 SSSE3 VAES VPCLMULQDQ X86_V2 X86_V3 X86_V4"): {
        "full32": ("68d370c74cbe5861c6171b641d3f0c809c0d1c69b6453db7dd2a7ca17eafd2c5",
                   "027717101d17dd3e43a9ef4c60579704fb944fb8fdedb30d829729ef185eab2c",
                   "5996f98d4845aa81a8a1debf4d7c7bf0d79966a912d1c69f3ea58f6fa1fe93ec"),
        "sampled-half16": ("dab2f079f57d14d1517af10f433f5ea1bc41a1ab02466a6d64d035fa78b7a6b1",
                           "5f5745de5b2bb8e0cb697156eb2bbdcd55d2f9dc37e91a62738aa428a962a1ca",
                           "7853c33d2c5f0bc9de2b073a19639d6bd670e05afd9ff9e087db016f8f379199"),
    },
}

# runs in a fresh process, so HSIN_THREADS=1 reaches the BLAS before numpy
# loads; argv: work directory, then one run name and its flags per argument
_SCRIPT = """
import contextlib, hashlib, io, sys
from pathlib import Path
import hsin.cli as cli
work = Path(sys.argv[1])
raw = work / "c.raw"
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.run(["synth", "--kind", "band-sinusoid", "--dims", "32x32x8", "--out", str(raw)]) == 0
for spec in sys.argv[2:]:
    name, *flags = spec.split()
    enc, dec, hist = work / f"{name}.hsin", work / f"{name}.raw", work / f"{name}.csv"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.run(["compress", "--input", str(raw), *flags, "--history-csv", str(hist),
                        "--out", str(enc)]) == 0
        assert cli.run(["decompress", "--in", str(enc), "--out", str(dec)]) == 0
    print(name, *(hashlib.sha256(p.read_bytes()).hexdigest() for p in (enc, dec, hist)))
"""


def fingerprint() -> tuple[str, str, str]:
    """numpy version, OpenBLAS build string and enabled SIMD features."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        from numpy._core._multiarray_umath import __cpu_features__
    except (ImportError, KeyError, TypeError):
        return (f"numpy {np.__version__}", "unknown BLAS build", "unknown SIMD set")
    return (f"numpy {np.__version__}", str(blas.get("openblas configuration")),
            " ".join(sorted(k for k, on in __cpu_features__.items() if on)))


def test_reference_runs_write_the_recorded_bytes(tmp_path):
    env_key = fingerprint()
    if env_key not in REFERENCE:
        pytest.skip(f"no reference outputs for this environment: {' | '.join(env_key)}")
    want = REFERENCE[env_key]
    src = str(Path(hsin.__file__).resolve().parent.parent)
    env = {k: v for k, v in os.environ.items() if not k.startswith(("OMP_", "OPENBLAS_", "MKL_"))}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    env["HSIN_THREADS"] = "1"
    runs = [" ".join([name, *flags]) for name, flags in RUNS.items()]
    proc = subprocess.run([sys.executable, "-c", _SCRIPT, str(tmp_path), *runs], env=env,
                          check=True, capture_output=True, text=True, timeout=300)
    got = {name: tuple(hashes) for name, *hashes in
           (line.split() for line in proc.stdout.splitlines())}
    assert got == want
