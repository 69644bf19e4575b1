"""End-to-end benchmark of the hsin codec, driven through its public CLI.

    python3 bench/run.py --workload paper-full --seed 1 --seconds 27 --trace 0

Each workload writes its own synthetic inputs during set-up, then runs a
closed loop (one caller, one CLI call at a time) of sessions until the next
session would overrun the measuring time. Every CLI call is checked; a
nonzero exit or a failed check counts as one failed operation. The last line
of stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 sessions
alternate between untraced and traced, and the metrics are the per-layer
ones read from the traced sessions' spans. A full record, with the
environment, goes to .bench_work/results/. `--workload all` runs every
workload, each in its own process. See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import ctypes.util
import io
import json
import os
import platform
import resource
import shutil
import statistics
import struct
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".bench_work"

# One BLAS/OpenMP thread: at the paper shape two threads measured no faster
# (the sin/cos work is single-threaded numpy), and one thread is steadier on
# a shared machine. Set before numpy is imported anywhere.
THREADS = "1"
THREAD_VARS = ("HSIN_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = THREADS

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))
import numpy as np  # noqa: E402
from tracing import Tracer, summarize  # noqa: E402

try:
    import hsin.cli as hsin_cli
    import hsin.metrics as hsin_metrics
except ImportError:  # not a checkout of the repository: main() refuses to run
    hsin_cli = hsin_metrics = None

SETUP_REPEATS = 5
# run in a fresh interpreter: the import cost a user pays before the first call
IMPORT_PROBE = ("import sys, time; t = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
                "import numpy, hsin.cli, hsin.metrics; print(time.perf_counter() - t)")
# compress reports PSNR from the float32 reconstruction in normalized units;
# the decoded file is that reconstruction in raw units rounded to float32,
# so the two PSNRs differ by rounding only (observed: below 1e-8 dB)
PSNR_TOL_DB = 1e-4
# decode-large: decoded values against an independent float64 forward pass,
# as a share of the raw value span (observed: about 1e-6)
DECODE_TOL = 1e-4
CHECK_PIXELS = 2048
DECODE_RANGE = (0.0, 1000.0)
LADDER = [(n_h, w_h) for n_h in (5, 10, 15, 20, 25) for w_h in (20, 40, 60, 100)]
HEADER = struct.Struct("<4sBHHHBBB3xff")


def _heap_trimmer():
    """glibc's malloc_trim, or None where the C library has none."""
    name = ctypes.util.find_library("c")
    fn = getattr(ctypes.CDLL(name), "malloc_trim", None) if name else None
    if fn is not None:
        fn.argtypes = [ctypes.c_size_t]
        fn.restype = ctypes.c_int
    return fn


# Each CLI call starts from a trimmed heap, as a fresh `hsin` process would:
# without it, what the previous call left in the allocator moved a call's
# time by up to 40% between sessions of one run.
MALLOC_TRIM = _heap_trimmer()


@dataclass(frozen=True)
class Workload:
    """The inputs and CLI calls of one session.

    kind is the synthetic cube kind, or None to decode a generated .hsin
    only; net is the fixed (layers, width), or None when search picks it.
    """

    kind: str | None
    dims: tuple[int, int, int]
    net: tuple[int, int] | None
    compress: tuple[str, ...] = ()
    search: tuple[str, ...] = ()
    budget: float = 0.0
    decodes: int = 1


WORKLOADS = {
    "paper-full": Workload(
        "band-sinusoid", (145, 145, 220), (15, 40),
        compress=("--iters", "12", "--eval-every", "4"), decodes=3),
    "paper-sampled-half": Workload(
        "band-sinusoid", (145, 145, 220), (15, 40),
        compress=("--iters", "60", "--eval-every", "20", "--sample-window", "3",
                  "--sample-rate", "0.25", "--half"), decodes=3),
    "search-small": Workload(
        "smooth-gradient", (64, 64, 32), None, compress=("--iters", "120", "--eval-every", "40"),
        search=("--probe-iters", "30"), budget=2.0, decodes=10),
    "decode-large": Workload(None, (512, 512, 224), (15, 40), decodes=1),
}

# the same flows at a size that runs in seconds, for the smoke test
TOY = {
    "paper-full": Workload(
        "band-sinusoid", (24, 20, 16), (3, 16), compress=("--iters", "6", "--eval-every", "2"),
        decodes=2),
    "paper-sampled-half": Workload(
        "band-sinusoid", (24, 20, 16), (3, 16),
        compress=("--iters", "12", "--eval-every", "4", "--sample-window", "3",
                  "--sample-rate", "0.25", "--half"), decodes=2),
    "search-small": Workload(
        "smooth-gradient", (16, 16, 8), None, compress=("--iters", "6", "--eval-every", "3"),
        search=("--probe-iters", "8"), budget=65.0, decodes=2),
    "decode-large": Workload(None, (48, 40, 24), (3, 16), decodes=2),
}

END_TO_END_UNITS = {
    "setup_s": "s", "session_s": "s", "decompress_s": "s", "peak_rss_mb": "MB",
    "ok_frac": "frac", "file_bytes": "B", "psnr_db": "dB", "ssim_mean": "1",
}


class CheckFailed(Exception):
    """An output check of one CLI call failed."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def n_params(layers: int, width: int, bands: int) -> int:
    """Parameter count of a (layers, width) net, from FORMAT.md."""
    return 2 * width + (layers - 1) * width * width + width * bands + layers * width + bands


def parse_fields(text: str) -> dict[str, str]:
    fields = {}
    for line in text.splitlines():
        key, sep, value = line.partition("=")
        if sep:
            fields[key.strip()] = value.strip()
    return fields


def read_cube(path: Path, dims: tuple[int, int, int]) -> np.ndarray:
    """(bands, n_pixels) float32 array of a raw BSQ cube, after checking its sidecar."""
    w, h, c = dims
    hdr = parse_fields(path.with_suffix(".hdr").read_text())
    expect((int(hdr["width"]), int(hdr["height"]), int(hdr["bands"])) == dims,
           f"{path.name}: header says {hdr}, expected {w}x{h}x{c}")
    size = path.stat().st_size
    expect(size == w * h * c * 4, f"{path.name}: {size} bytes, expected {w * h * c * 4}")
    return np.fromfile(path, dtype="<f4").reshape(c, w * h)


def grid(width: int, height: int, pixels: np.ndarray) -> np.ndarray:
    """FORMAT.md coordinates of flat row-major pixel indices, float64 (n, 2)."""
    def axis(n, j):
        return np.zeros(j.shape) if n == 1 else -1.0 + 2.0 * j / (n - 1)
    return np.stack([axis(width, pixels % width), axis(height, pixels // width)], axis=1)


def forward64(params: np.ndarray, layers: int, width: int, bands: int,
              coords: np.ndarray) -> np.ndarray:
    """Independent float64 forward pass of the FORMAT.md network."""
    dims = [2] + [width] * layers + [bands]
    p = params.astype(np.float64)
    a = coords
    off = 0
    for i in range(len(dims) - 1):
        fi, fo = dims[i], dims[i + 1]
        w = p[off:off + fi * fo].reshape(fo, fi)
        off += fi * fo
        b = p[off:off + fo]
        off += fo
        a = a @ w.T + b
        if i < len(dims) - 2:
            a = np.sin(30.0 * a)
    return a


def init_weights(layers: int, width: int, bands: int, seed: int) -> np.ndarray:
    """Seeded SIREN-style float16 weights; output bias 0.5 keeps decoded values mid-range."""
    rng = np.random.default_rng([seed, 2024])
    dims = [2] + [width] * layers + [bands]
    parts = []
    for i in range(len(dims) - 1):
        fi, fo = dims[i], dims[i + 1]
        bound = 1.0 / fi if i == 0 else np.sqrt(6.0 / fi) / 30.0
        parts.append(rng.uniform(-bound, bound, fi * fo))
        parts.append(np.full(fo, 0.5) if i == len(dims) - 2 else rng.uniform(-bound, bound, fo))
    return np.concatenate(parts).astype(np.float16)


class Bench:
    """One workload in one process: set-up, sessions, checks, counters."""

    def __init__(self, wl: Workload, seed: int, workdir: Path) -> None:
        self.wl = wl
        self.seed = seed
        self.cube = workdir / "input.raw"
        self.hsin = workdir / "input.hsin"
        self.recon = workdir / "recon.raw"
        self.tracer: Tracer | None = None  # set while a traced session runs
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.seconds: dict[str, list[float]] = {}  # wall time of passed calls, per command
        self.outputs: dict[str, object] = {}  # outputs that must repeat, and check margins

    def setup(self) -> float:
        """Write the inputs; returns the seconds taken. Raises on failure."""
        t0 = time.perf_counter()
        w, h, c = self.wl.dims
        if self.wl.kind is not None:
            code, _, err = self._cli(["synth", "--kind", self.wl.kind, "--dims", f"{w}x{h}x{c}",
                                      "--out", str(self.cube)])
            if code != 0:
                raise RuntimeError(f"synth exited {code}: {err.strip()}")
            self.orig = read_cube(self.cube, self.wl.dims).astype(np.float64)
            self.peak = float(self.orig.max() - self.orig.min())
        else:
            layers, width = self.wl.net
            lo, hi = DECODE_RANGE
            params = init_weights(layers, width, c, self.seed)
            head = HEADER.pack(b"HSIN", 1, w, h, c, layers, width, 1, lo, hi)
            self.hsin.write_bytes(head + params.astype("<f2").tobytes())
            self.outputs["file_bytes"] = self.hsin.stat().st_size
            rng = np.random.default_rng([self.seed, 7])
            self.pixels = np.sort(rng.choice(w * h, min(CHECK_PIXELS, w * h), replace=False))
            ref = forward64(params, layers, width, c, grid(w, h, self.pixels))
            self.ref = np.clip(ref, 0.0, 1.0).T * (hi - lo) + lo  # (bands, pixels)
            self.peak = hi - lo
        return time.perf_counter() - t0

    def _cli(self, argv: list[str]) -> tuple[int, str, str]:
        if MALLOC_TRIM is not None:
            MALLOC_TRIM(0)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = hsin_cli.run(argv)
        return code, out.getvalue(), err.getvalue()

    def call(self, argv: list[str], check) -> dict | None:
        """Run one CLI call and its output check; None if either failed."""
        cmd = argv[0]
        self.attempted += 1
        attrs: dict = {}
        span = self.tracer.operation(f"cli.{cmd}", attrs) if self.tracer else contextlib.nullcontext()
        with span:
            t0 = time.perf_counter()
            code, out, err = self._cli(argv)
            dt = time.perf_counter() - t0
            attrs["exit"] = code
        try:
            expect(code == 0, f"exit {code}: {err.strip()}")
            fields = parse_fields(out)
            check(fields)
        except (CheckFailed, KeyError, ValueError, OSError) as exc:
            self.failed += 1
            self.problems.append(f"{cmd}: {type(exc).__name__}: {exc}")
            return None
        self.seconds.setdefault(cmd, []).append(dt)
        return fields

    def same_as_before(self, key: str, value) -> None:
        first = self.outputs.setdefault(key, value)
        expect(first == value, f"{key} changed between sessions: {first!r} then {value!r}")

    def check_search(self, fields: dict) -> None:
        w, h, c = self.wl.dims
        shape = (int(fields["n_hidden"]), int(fields["hidden_width"]))
        feasible = [s for s in LADDER if n_params(*s, c) * 32 / (w * h * c) <= self.wl.budget]
        expect(shape in feasible, f"winner {shape} is not a feasible ladder shape {feasible}")
        n = n_params(*shape, c)
        expect(int(fields["n_params"]) == n, f"n_params {fields['n_params']} != {n}")
        expect(float(fields["bpppb"]) <= self.wl.budget, f"bpppb {fields['bpppb']} over budget")
        self.same_as_before("winner", shape)
        self.outputs["feasible_shapes"] = len(feasible)

    def check_compress(self, fields: dict, shape: tuple[int, int]) -> None:
        c = self.wl.dims[2]
        expect((int(fields["n_hidden"]), int(fields["hidden_width"])) == shape,
               f"compressed shape {fields['n_hidden']}x{fields['hidden_width']} != {shape}")
        law = 25 + n_params(*shape, c) * (2 if "--half" in self.wl.compress else 4)
        size = self.hsin.stat().st_size
        expect(int(fields["file_bytes"]) == size == law,
               f"file_bytes {fields['file_bytes']}, on disk {size}, size law {law}")
        self.same_as_before("file_bytes", size)
        self.same_as_before("compress_psnr", float(fields["psnr"]))

    def check_decode(self, fields: dict) -> None:
        recon = read_cube(self.recon, self.wl.dims)
        for band in recon:  # one band at a time keeps the check's memory small
            expect(bool(np.isfinite(band).all()), "decoded cube holds non-finite values")
        if self.wl.kind is not None:
            score = hsin_metrics.psnr(self.orig, recon, peak=self.peak)
            gap = abs(score - self.outputs["compress_psnr"])
            expect(gap <= PSNR_TOL_DB,
                   f"decoded psnr {score!r} vs compress psnr {self.outputs['compress_psnr']!r}")
            self.outputs["max_psnr_gap_db"] = max(gap, self.outputs.get("max_psnr_gap_db", 0.0))
            ssim = hsin_metrics.ssim_mean(self.orig, recon, dynamic_range=self.peak)
        else:
            got = recon[:, self.pixels].astype(np.float64)
            err = float(np.max(np.abs(got - self.ref))) / self.peak
            expect(err <= DECODE_TOL, f"decoded values off the float64 forward pass by {err!r}")
            self.outputs["max_decode_err_frac"] = max(
                err, self.outputs.get("max_decode_err_frac", 0.0))
            score = hsin_metrics.psnr(self.ref, got, peak=self.peak)
            ssim = hsin_metrics.ssim_mean(self.ref, got, dynamic_range=self.peak)
        self.same_as_before("psnr_db", score)
        self.same_as_before("ssim_mean", ssim)

    def busy(self) -> float:
        return sum(sum(v) for v in self.seconds.values())

    def session(self) -> float:
        """Run the workload's CLI calls once; returns their summed wall time."""
        start = self.busy()
        seed = str(self.seed)
        shape = self.wl.net
        if self.wl.search:
            fields = self.call(["search", "--input", str(self.cube), "--budget-bpppb",
                                str(self.wl.budget), *self.wl.search, "--seed", seed],
                               self.check_search)
            if fields is None:
                return self.busy() - start
            shape = (int(fields["n_hidden"]), int(fields["hidden_width"]))
        if self.wl.kind is not None:
            fields = self.call(["compress", "--input", str(self.cube), "--out", str(self.hsin),
                                "--layers", str(shape[0]), "--width", str(shape[1]),
                                *self.wl.compress, "--seed", seed],
                               lambda f: self.check_compress(f, shape))
            if fields is None:
                return self.busy() - start
        for _ in range(self.wl.decodes):
            self.call(["decompress", "--in", str(self.hsin), "--out", str(self.recon)],
                      self.check_decode)
        return self.busy() - start


def environment(seed: int) -> dict:
    blas = {}
    with contextlib.suppress(TypeError, KeyError):
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps["blas"].get(k) for k in ("name", "version", "openblas configuration")}
    commit = "unknown (not a git checkout)"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        commit = head.read_text().strip()
        ref = ROOT / ".git" / commit.removeprefix("ref: ")
        if commit.startswith("ref: ") and ref.is_file():
            commit = ref.read_text().strip()
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "machine": platform.machine(),
        "heap_trimmed_between_calls": MALLOC_TRIM is not None,
        "commit": commit,
        "seed": seed,
    }


def import_seconds() -> list[float]:
    """Import time of numpy and hsin, once per fresh interpreter."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src")],
                              capture_output=True, text=True, check=True)
        times.append(float(proc.stdout))
    return times


def run_workload(name: str, seed: int, seconds: float, trace: bool, toy: bool) -> dict:
    workdir = WORK / f"{name}-{seed}-{int(trace)}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    bench = Bench((TOY if toy else WORKLOADS)[name], seed, workdir)
    tracer = Tracer() if trace else None
    plain: list[float] = []
    traced: list[float] = []
    try:
        imports = import_seconds()
        setups = [bench.setup() for _ in range(SETUP_REPEATS)]
        walls: list[float] = []
        t_begin = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            if tracer is not None and len(walls) % 2 == 1:
                tracer.install()
                bench.tracer = tracer
                try:
                    traced.append(bench.session())
                finally:
                    bench.tracer = None
                    tracer.uninstall()
            else:
                plain.append(bench.session())
            walls.append(time.perf_counter() - t0)
            elapsed = time.perf_counter() - t_begin
            if len(walls) >= (2 if trace else 1) and elapsed + median(walls) > seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record = {
        "workload": name, "toy": toy, "trace": trace, "seconds": seconds,
        "environment": environment(seed),
        "setup": {"import_s": imports, "inputs_s": setups},
        "sessions": {"untraced_s": plain, "traced_s": traced},
        "cli_seconds": bench.seconds,
        "outputs": bench.outputs,
        "problems": bench.problems,
    }
    if trace:
        layer, record["layers"] = summarize(tracer.spans)
        layer["trace.overhead_frac"] = (median(traced) / median(plain) - 1.0, "frac")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
        record["unwrapped"] = tracer.missing
    else:
        o = bench.outputs
        e2e = {
            "setup_s": median(imports) + median(setups),
            "session_s": median(plain),
            "decompress_s": median(bench.seconds.get("decompress", [])),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": (bench.attempted - bench.failed) / bench.attempted,
            "file_bytes": float(o.get("file_bytes", 0)),
            "psnr_db": float(o.get("psnr_db", 0.0)),
            "ssim_mean": float(o.get("ssim_mean", 0.0)),
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()}
    record["result"] = {"correct": bench.failed == 0, "attempted": bench.attempted,
                        "failed": bench.failed, "metrics": metrics}

    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{name}{'-toy' if toy else ''}_seed{seed}_trace{int(trace)}"
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str) + "\n")
    if trace:
        tracer.write(results / f"{stem}_spans.jsonl")
    return record


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS belongs to one workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--toy"] if args.toy else [])
        proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, m in result["metrics"].items():
            print(f"  {key} = {m['value']!r} {m['unit']}")
            combined["metrics"][f"{name}.{key}"] = m
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=27.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="tiny shapes, for the smoke test")
    args = parser.parse_args(argv)
    src = ROOT / "src"
    if hsin_cli is None or not Path(hsin_cli.__file__).resolve().is_relative_to(src):
        print(f"error: no hsin sources under {src}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    record = run_workload(args.workload, args.seed % 2**31, args.seconds, bool(args.trace),
                          args.toy)
    for problem in record["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
