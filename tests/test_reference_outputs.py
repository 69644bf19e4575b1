"""Fixed-seed reference outputs: the .hsin bytes, the decoded cube, the eval history, the reports.

Two compress-and-decode runs at one BLAS thread must write the bytes and
print the reports recorded here. Those depend on the numpy build, the BLAS
kernels and the SIMD set, so they are keyed by an environment fingerprint;
on any other fingerprint the tests skip and name the one they found.
"""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import fresh_env

BASE = ["--layers", "3", "--width", "32", "--iters", "200"]
# run name -> compress flags
RUNS = {"full32": BASE,
        "sampled-half16": [*BASE, "--sample-window", "3", "--sample-rate", "0.25", "--half"]}

_NUMPY_2_4_AVX512 = (
    "numpy 2.4.6",
    "OpenBLAS 0.3.31.188.0  USE64BITINT DYNAMIC_ARCH NO_AFFINITY Haswell MAX_THREADS=64",
    "AVX AVX2 AVX512BF16 AVX512BITALG AVX512BW AVX512CD AVX512DQ AVX512F AVX512FP16 "
    "AVX512IFMA AVX512VBMI AVX512VBMI2 AVX512VL AVX512VNNI AVX512VPOPCNTDQ AVX512_CLX "
    "AVX512_CNL AVX512_ICL AVX512_SKX AVX512_SPR BMI BMI2 CX16 F16C FMA3 GFNI LAHF LZCNT "
    "MMX MOVBE POPCNT SSE SSE2 SSE3 SSE41 SSE42 SSSE3 VAES VPCLMULQDQ X86_V2 X86_V3 X86_V4")

# fingerprint -> {run: (.hsin sha256, decoded .raw sha256, --history-csv sha256)},
# both runs on the band-sinusoid 32x32x8 cube
REFERENCE = {
    _NUMPY_2_4_AVX512: {
        "full32": ("68d370c74cbe5861c6171b641d3f0c809c0d1c69b6453db7dd2a7ca17eafd2c5",
                   "027717101d17dd3e43a9ef4c60579704fb944fb8fdedb30d829729ef185eab2c",
                   "5996f98d4845aa81a8a1debf4d7c7bf0d79966a912d1c69f3ea58f6fa1fe93ec"),
        "sampled-half16": ("dab2f079f57d14d1517af10f433f5ea1bc41a1ab02466a6d64d035fa78b7a6b1",
                           "5f5745de5b2bb8e0cb697156eb2bbdcd55d2f9dc37e91a62738aa428a962a1ca",
                           "7853c33d2c5f0bc9de2b073a19639d6bd670e05afd9ff9e087db016f8f379199"),
    },
}

# runs in a fresh process at one BLAS thread; argv: work directory, then one
# run name and its flags per argument
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


# fingerprint -> {run: sha256 of the stdout of (compress, decompress, metrics --orig <input>
# --recon <decoded>)}, without the lines of _TIMED_OR_PATH; same runs and cube as REFERENCE
REPORTS = {
    _NUMPY_2_4_AVX512: {
        "full32": ("86285b3de2245462b5a16c091901b702c2703093782fb8c9df7e40fdeb25c457",
                   "6377c517ebce8af6c4de46c9ce19d38bfb762d30032586e4028919db1cbafac0",
                   "b780f276ee450a8a3e168dc06563da6ecbd864646187a87f1e25ae8beca56e2d"),
        "sampled-half16": ("69facefd926ec1e79e5eb873c8fcca3231d16f0fc9ec015e302aa04fa5651194",
                           "6377c517ebce8af6c4de46c9ce19d38bfb762d30032586e4028919db1cbafac0",
                           "c0fb8ab3dbbddea11cb344194cdc4d3c4960e350e2dcdaa7fdda13ad68640b2b"),
    },
}

_TIMED_OR_PATH = ("compress_seconds=", "decompress_seconds=", "out=")

_REPORT_SCRIPT = """
import contextlib, hashlib, io, sys
from pathlib import Path
import hsin.cli as cli
drop = %r
def report(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.run(argv) == 0
    kept = "".join(line for line in out.getvalue().splitlines(True) if not line.startswith(drop))
    return hashlib.sha256(kept.encode()).hexdigest()
work = Path(sys.argv[1])
raw = work / "c.raw"
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.run(["synth", "--kind", "band-sinusoid", "--dims", "32x32x8", "--out", str(raw)]) == 0
for spec in sys.argv[2:]:
    name, *flags = spec.split()
    enc, dec = work / f"{name}.hsin", work / f"{name}.raw"
    print(name, report(["compress", "--input", str(raw), *flags, "--out", str(enc)]),
          report(["decompress", "--in", str(enc), "--out", str(dec)]),
          report(["metrics", "--orig", str(raw), "--recon", str(dec)]))
""" % (_TIMED_OR_PATH,)


def fingerprint() -> tuple[str, str, str]:
    """numpy version, OpenBLAS build string and enabled SIMD features."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        from numpy._core._multiarray_umath import __cpu_features__
    except (ImportError, KeyError, TypeError):
        return (f"numpy {np.__version__}", "unknown BLAS build", "unknown SIMD set")
    return (f"numpy {np.__version__}", str(blas.get("openblas configuration")),
            " ".join(sorted(k for k, on in __cpu_features__.items() if on)))


def _recorded(table: dict) -> dict:
    env_key = fingerprint()
    if env_key not in table:
        pytest.skip(f"no reference outputs for this environment: {' | '.join(env_key)}")
    return table[env_key]


def _run_reference(script: str, work: Path) -> dict:
    """{run name: the hashes the script prints}, both runs at one BLAS thread."""
    runs = [" ".join([name, *flags]) for name, flags in RUNS.items()]
    proc = subprocess.run([sys.executable, "-c", script, str(work), *runs],
                          env=fresh_env(threads=1), check=True, capture_output=True, text=True,
                          timeout=300)
    return {name: tuple(hashes) for name, *hashes in
            (line.split() for line in proc.stdout.splitlines())}


def test_reference_runs_write_the_recorded_bytes(tmp_path):
    want = _recorded(REFERENCE)
    got = _run_reference(_SCRIPT, tmp_path)
    assert got == want


def test_reference_runs_print_the_recorded_reports(tmp_path):
    # every printed digit but the timings and paths: mse, psnr, ssim_mean,
    # bpppb and file_bytes from compress, the shape from decompress, and the
    # scores metrics gives the decoded file
    want = _recorded(REPORTS)
    got = _run_reference(_REPORT_SCRIPT, tmp_path)
    assert got == want
