"""Command-line front end for the codec pipeline.

Exit codes: 0 success, 1 usage error, 2 unreadable/malformed input, output
I/O failure or out of memory, 3 numeric failure (divergence, quantization
overflow).
Reports go to stdout as key=value lines; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import ctypes
import sys
from pathlib import Path

from .adam import TrainingDiverged
from .codec import BitstreamError, HalfRangeError, deserialize, payload_bits, serialize
# the CLI decodes straight to disk, under the name the bench traces
from .codec import decompress_to as decompress
from .cube import (SYNTH_KINDS, CubeFormatError, header_path, normalize, open_cube,
                   removed_on_failure, save_cube, synth_cube)
from .encoder import (DEFAULT_PROBE_ITERATIONS, PROBE_MARGIN_DB, PROBE_SAMPLE, TrainConfig,
                      architecture_search, compress)
from .metrics import QualityReport, bpppb, mse, psnr_from_mse, ssim_mean
from .sampling import SampleConfig
from .siren import SirenSpec, param_count

EXIT_USAGE = 1
EXIT_IO = 2
EXIT_NUMERIC = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse normally calls sys.exit(2); route through our exit-code map
    def error(self, message):
        raise _UsageError(message)


def _parse_dims(text: str) -> tuple[int, int, int]:
    parts = text.lower().split("x")
    if len(parts) != 3:
        raise _UsageError(f"--dims expects WxHxC, got {text!r}")
    try:
        w, h, c = (int(p) for p in parts)
    except ValueError:
        raise _UsageError(f"--dims expects integers, got {text!r}") from None
    if min(w, h, c) < 1:
        raise _UsageError("--dims values must be >= 1")
    return w, h, c


def _check_outputs(reads: list[tuple[str, str | Path]],
                   writes: list[tuple[str, str | Path | None]]) -> None:
    # fail before any work, not after it, when an output cannot be written
    # or would overwrite an input or another output (resolved paths compared)
    taken = {Path(path).resolve(): name for name, path in reads}
    for name, path in writes:
        if path is None:
            continue
        if not Path(path).parent.is_dir():
            raise FileNotFoundError(f"cannot write {path}: its directory does not exist")
        if Path(path).is_dir():
            raise IsADirectoryError(f"cannot write {path}: it is a directory")
        key = Path(path).resolve()
        if key in taken:
            raise OSError(f"cannot write {path}: {name} is the same file as {taken[key]}")
        taken[key] = name


def _build_parser() -> _Parser:
    parser = _Parser(prog="hsin", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compress", help="train on a cube and write a .hsin file")
    p.add_argument("--input", required=True, help="raw BSQ float32 cube (.hdr sidecar)")
    p.add_argument("--out", required=True, help="output .hsin path")
    p.add_argument("--layers", type=int, help="hidden layer count (with --width)")
    p.add_argument("--width", type=int, help="hidden layer width (with --layers)")
    p.add_argument("--budget-bpppb", type=float, help="rate budget; triggers architecture search")
    p.add_argument("--iters", type=int, default=10000, help="training iterations (default 10000)")
    p.add_argument("--half", action="store_true", help="store weights as float16")
    p.add_argument("--sample-window", type=int, help="sampling block side length")
    p.add_argument("--sample-rate", type=float, help="fraction of pixels per block")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--eval-every", type=int, default=100, help="epochs between PSNR checks")
    p.add_argument("--history-csv", dest="history", metavar="HISTORY_CSV",
                   help="optional epoch,psnr CSV output")
    p.set_defaults(func=_cmd_compress)

    p = sub.add_parser("decompress", help="reconstruct a cube from a .hsin file")
    p.add_argument("--in", dest="input", required=True, help="input .hsin path")
    p.add_argument("--out", required=True, help="output raw cube path (.hdr written beside)")
    p.set_defaults(func=_cmd_decompress)

    p = sub.add_parser("metrics", help="compare two cubes")
    p.add_argument("--orig", required=True)
    p.add_argument("--recon", required=True)
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("search", help="pick an architecture under a bpppb budget")
    p.add_argument("--input", required=True)
    p.add_argument("--budget-bpppb", type=float, required=True)
    p.add_argument("--probe-iters", type=int, default=DEFAULT_PROBE_ITERATIONS,
                   help=f"iterations per probe: every candidate on a window-{PROBE_SAMPLE.window}, "
                        f"rate-{PROBE_SAMPLE.rate:g} pixel sample, those within "
                        f"{PROBE_MARGIN_DB:g} dB of the best again full batch")
    p.add_argument("--half", action="store_true",
                   help="rate and probe candidates as float16 weights, as compress --half does")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("synth", help="write a synthetic test cube")
    p.add_argument("--kind", required=True, choices=SYNTH_KINDS)
    p.add_argument("--dims", required=True, help="WxHxC, e.g. 32x32x8")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output raw cube path (.hdr written beside)")
    p.set_defaults(func=_cmd_synth)

    return parser


def _cmd_compress(args) -> int:
    explicit = args.layers is not None or args.width is not None
    if explicit and args.budget_bpppb is not None:
        raise _UsageError("--layers/--width and --budget-bpppb are mutually exclusive")
    if explicit and (args.layers is None or args.width is None):
        raise _UsageError("--layers and --width must be given together")
    if not explicit and args.budget_bpppb is None:
        raise _UsageError("either --layers/--width or --budget-bpppb is required")
    if (args.sample_window is None) != (args.sample_rate is None):
        raise _UsageError("--sample-window and --sample-rate must be given together")

    _check_outputs([("--input", args.input), ("the --input .hdr", header_path(args.input))],
                   [("--out", args.out), ("--history-csv", args.history)])

    cube = open_cube(args.input)
    sample = None
    if args.sample_window is not None:
        sample = SampleConfig(window=args.sample_window, rate=args.sample_rate)
    cfg = TrainConfig(
        iterations=args.iters,
        eval_every=args.eval_every,
        sample=sample,
        seed=args.seed,
        half=args.half,
    )
    if explicit:
        spec_or_budget = SirenSpec(n_hidden=args.layers, hidden_width=args.width, out_dim=cube.bands)
    else:
        spec_or_budget = args.budget_bpppb
    enc, report = compress(cube, spec_or_budget, cfg)
    blob = serialize(enc)
    # a failed write removes what this run wrote: no partial or lone output
    fh = open(args.out, "wb")
    with removed_on_failure(args.out):
        with fh:
            fh.write(blob)
        if args.history is not None:
            fh = open(args.history, "w", newline="")
            with removed_on_failure(args.history), fh:
                csv.writer(fh).writerows(
                    [("epoch", "psnr")] + [(e, repr(float(s))) for e, s in report.history])
    print(report.to_text())
    print(f"n_hidden={enc.spec.n_hidden}")
    print(f"hidden_width={enc.spec.hidden_width}")
    print(f"n_params={enc.params.size}")
    print(f"file_bytes={len(blob)}")
    print(f"out={args.out}")
    return 0


def _cmd_decompress(args) -> int:
    _check_outputs([("--in", args.input)],
                   [("--out", args.out), ("the --out .hdr", header_path(args.out))])
    try:
        blob = Path(args.input).read_bytes()
    except OSError as exc:
        raise BitstreamError(f"cannot read {args.input}: {exc}") from exc
    header = decompress(deserialize(blob), args.out)
    print(f"width={header.width}")
    print(f"height={header.height}")
    print(f"bands={header.bands}")
    print(f"out={args.out}")
    return 0


def _cmd_metrics(args) -> int:
    orig = open_cube(args.orig)
    recon = open_cube(args.recon)
    da = (orig.width, orig.height, orig.bands)
    db = (recon.width, recon.height, recon.bands)
    if da != db:
        raise ValueError(f"cube dimensions differ: {da} vs {db}")
    lo, hi = orig.value_range
    peak = hi - lo if hi > lo else 1.0
    x, y = orig.band_matrix(), recon.band_matrix()
    m = mse(x, y)
    report = QualityReport(mse=m, psnr=psnr_from_mse(m, peak),
                           ssim_mean=ssim_mean(x, y, dynamic_range=peak))
    print(report.to_text())
    return 0


def _cmd_search(args) -> int:
    cube = open_cube(args.input)
    normalized, _ = normalize(cube)
    spec = architecture_search(normalized, args.budget_bpppb, args.probe_iters,
                               seed=args.seed, half=args.half)
    n = param_count(spec)
    print(f"n_hidden={spec.n_hidden}")
    print(f"hidden_width={spec.hidden_width}")
    print(f"n_params={n}")
    print(f"bpppb={bpppb(n, payload_bits(args.half), cube.width, cube.height, cube.bands)!r}")
    return 0


def _cmd_synth(args) -> int:
    w, h, c = _parse_dims(args.dims)
    _check_outputs([], [("--out", args.out), ("the --out .hdr", header_path(args.out))])
    cube = synth_cube(args.kind, w, h, c, seed=args.seed)
    save_cube(cube, args.out)
    print(f"out={args.out}")
    return 0


def run(argv: list[str] | None = None) -> int:
    # glibc maps each 0.1-4 MB row-tile array afresh above 128 KiB and trims its heap top: 255k
    # faults, not 5k, per search-small session; 341k, not 5k, in a fresh 145x145x220 compress
    with contextlib.suppress(AttributeError, OSError, TypeError):
        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(-3, 4 << 20), mallopt(-1, 32 << 20)  # M_MMAP_THRESHOLD, M_TRIM_THRESHOLD
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # --help prints its usage, then argparse exits 0
        return exc.code
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (TrainingDiverged, HalfRangeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (CubeFormatError, BitstreamError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        # bad argument values that slipped past argparse (e.g. no feasible
        # candidate under the requested budget)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
