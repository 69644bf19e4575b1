"""Outside-in span recorder for the traced benchmark run.

Timing wrappers are installed on the public names each hsin layer looks up
at call time (a module global), so a call made anywhere inside the pipeline
is caught without editing the package. Spans stay in memory as tuples and
are summarized, and optionally written out, when the run ends. With no
Tracer installed nothing is wrapped and the package runs untouched.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import math
import time

import numpy as np

_PERCENTILES = (99.9, 99.0, 90.0, 50.0)


def _loss_and_grad(args, result):
    spec, rows = args[0], int(args[2].inputs.shape[0])
    dims = [spec.in_dim] + [spec.hidden_width] * spec.n_hidden + [spec.out_dim]
    return {"rows": rows, "flop": gemm_flop(dims, rows)}


def _gather(args, result):
    return {
        "rows": int(result.inputs.shape[0]),
        "pixels": int(args[0].n_pixels),
        "bytes": int(result.inputs.nbytes + result.targets.nbytes),
    }


def _overfit(args, result):
    best = -math.inf
    updates = 0
    for _, score in result.history:
        if score > best:
            best = score
            updates += 1
    return {
        "shape": (int(args[1].n_hidden), int(args[1].hidden_width)),
        "evals": len(result.history),
        "updates": updates,
    }


def _search(args, result):
    return {"shape": (int(result.n_hidden), int(result.hidden_width))}


def _decoded(args, result):
    return {"bytes": int(result.width * result.height * result.bands * 4)}


# (module, attribute, span name, attribute extractor). Each attribute is the
# name under which the calling module looks the function up; an extractor
# gets the call's positional arguments and its result.
TARGETS = [
    ("hsin.cli", "open_cube", "cube.load", None),
    ("hsin.cli", "save_cube", "cube.save", None),
    ("hsin.cli", "normalize", "cube.normalize", None),
    ("hsin.encoder", "normalize", "cube.normalize", None),
    ("hsin.cli", "compress", "encoder.compress", None),
    ("hsin.cli", "architecture_search", "encoder.search", _search),
    ("hsin.encoder", "overfit", "encoder.overfit", _overfit),
    ("hsin.encoder", "mlp_loss_and_grad", "nn.loss_and_grad", _loss_and_grad),
    ("hsin.codec", "mlp_forward", "nn.forward", None),
    ("hsin.nn", "unflatten", "siren.unflatten", None),
    ("hsin.encoder", "sample_indices", "sampling.indices", None),
    ("hsin.encoder", "gather_batch", "sampling.gather", _gather),
    ("hsin.encoder", "adam_step", "adam.step", None),
    ("hsin.encoder", "reconstruct_normalized", "codec.reconstruct", None),
    ("hsin.codec", "reconstruct_normalized", "codec.reconstruct", None),
    ("hsin.encoder", "quantize", "codec.quantize", None),
    ("hsin.cli", "serialize", "codec.serialize", None),
    ("hsin.cli", "deserialize", "codec.deserialize", None),
    ("hsin.cli", "decompress", "codec.decompress", _decoded),
    ("hsin.encoder", "ssim_mean", "metrics.ssim_mean", None),
    ("hsin.metrics", "psnr", "metrics.psnr", None),
]


def gemm_flop(dims: list[int], rows: int) -> int:
    """Matrix-multiply flops of one loss+grad call on `rows` rows (computed).

    Per layer of fan_in x fan_out: 2*rows*fan_in*fan_out for the forward
    product and as much for the weight gradient, plus as much again for the
    input gradient on every layer but the first. Elementwise sin/cos work is
    not counted.
    """
    total = 0
    for i in range(len(dims) - 1):
        mac = rows * dims[i] * dims[i + 1]
        total += (4 if i == 0 else 6) * mac
    return total


class Tracer:
    """Span recorder; spans are (name, start, end, parent, op, attrs)."""

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.op = 0
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def install(self) -> None:
        for module_name, attr, name, describe in TARGETS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._patches.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, describe))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patches):
            setattr(module, attr, fn)
        self._patches.clear()

    @contextlib.contextmanager
    def operation(self, name: str, attrs: dict):
        """Root span of one operation; `attrs` may be filled in by the block."""
        self.op += 1
        sid = self._open()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(sid, name, t0, attrs)

    def _open(self) -> int:
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append(sid)
        return sid

    def _close(self, sid: int, name: str, t0: float, attrs) -> None:
        t1 = time.perf_counter()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[sid] = (name, t0, t1, parent, self.op, attrs)

    def _wrap(self, fn, name, describe):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._open()
            t0 = time.perf_counter()
            attrs = None
            try:
                result = fn(*args, **kwargs)
                if describe is not None:
                    try:
                        attrs = describe(args, result)
                    except (AttributeError, IndexError, TypeError):
                        attrs = None
                return result
            finally:
                self._close(sid, name, t0, attrs)

        return wrapper

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for sid, (name, t0, t1, parent, op, attrs) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "start": t0, "end": t1,
                                     "parent": parent, "op": op, "attrs": attrs}) + "\n")


def tail(values: list[float]) -> tuple[float, str]:
    """Highest of p99.9/p99/p90/p50 with at least ten samples beyond it.

    With fewer than 20 samples no such percentile exists and the maximum is
    returned, labelled as such.
    """
    n = len(values)
    for p in _PERCENTILES:
        if n * (1.0 - p / 100.0) >= 10:
            return float(np.percentile(values, p)), f"p{p:g}"
    return (max(values), "max") if values else (0.0, "none")


def summarize(spans: list[tuple]) -> tuple[dict, dict]:
    """Per-layer metrics and the per-span table from one run's spans.

    Returns (metrics, table): metrics maps names to (value, unit); table has
    one row per span name with calls, median, tail, total and self time.
    """
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]
    names = [s[0] for s in spans]

    def ancestor(i: int, name: str) -> int:
        p = spans[i][3]
        while p >= 0 and names[p] != name:
            p = spans[p][3]
        return p

    by_name: dict[str, list[int]] = {}
    for i, name in enumerate(names):
        by_name.setdefault(name, []).append(i)

    table = {}
    for name, idx in sorted(by_name.items()):
        d = [dur[i] for i in idx]
        t, label = tail(d)
        table[name] = {
            "calls": len(idx), "median_s": float(np.median(d)), "tail_s": t, "tail": label,
            "total_s": sum(d), "self_s": sum(dur[i] - child[i] for i in idx),
        }

    m: dict[str, tuple[float, str]] = {}

    def timing(span: str, metric: str, unit: str, scale: float, calls: str | None = None) -> None:
        row = table.get(span)
        m[f"{metric}_{unit}"] = (row["median_s"] * scale if row else 0.0, unit)
        m[f"{metric}_tail_{unit}"] = (row["tail_s"] * scale if row else 0.0, unit)
        m[calls or f"{metric}_calls"] = (float(row["calls"]) if row else 0.0, "count")

    timing("cube.load", "cube.load", "ms", 1e3)
    timing("cube.save", "cube.save", "ms", 1e3)
    timing("cube.normalize", "cube.normalize", "ms", 1e3)
    timing("siren.unflatten", "siren.unflatten", "us", 1e6)
    timing("nn.loss_and_grad", "nn.loss_and_grad", "ms", 1e3)
    timing("nn.forward", "nn.forward", "ms", 1e3)
    timing("sampling.indices", "sampling.indices", "ms", 1e3)
    timing("sampling.gather", "sampling.gather", "ms", 1e3)
    timing("adam.step", "adam.step", "ms", 1e3, calls="adam.steps")
    timing("codec.reconstruct", "codec.reconstruct", "ms", 1e3)
    timing("codec.quantize", "codec.quantize", "ms", 1e3)
    timing("codec.serialize", "codec.serialize", "ms", 1e3)
    timing("codec.deserialize", "codec.deserialize", "ms", 1e3)
    timing("codec.decompress", "codec.decompress", "ms", 1e3)
    timing("metrics.ssim_mean", "metrics.ssim_mean", "ms", 1e3)
    timing("metrics.psnr", "metrics.psnr", "ms", 1e3)
    timing("encoder.compress", "encoder.compress", "s", 1.0)
    timing("encoder.search", "encoder.search", "s", 1.0)
    timing("encoder.overfit", "encoder.overfit", "s", 1.0)

    m["cli.exit_nonzero"] = (float(sum(
        1 for s in spans if s[0].startswith("cli.") and s[5] and s[5].get("exit", 0) != 0
    )), "count")

    overfit = by_name.get("encoder.overfit", [])
    overfit_s = sum(dur[i] for i in overfit)
    under_overfit = {name: [i for i in idx if ancestor(i, "encoder.overfit") >= 0]
                     for name, idx in by_name.items()}

    def share(name: str, use_self: bool = False) -> float:
        if overfit_s <= 0:
            return 0.0
        return sum(dur[i] - (child[i] if use_self else 0.0)
                   for i in under_overfit.get(name, [])) / overfit_s

    lag = [i for i in by_name.get("nn.loss_and_grad", []) if spans[i][5]]
    rows = [spans[i][5]["rows"] for i in lag]
    flop = [spans[i][5]["flop"] for i in lag]
    lag_s = sum(dur[i] for i in lag)
    m["nn.rows_per_call"] = (float(np.median(rows)) if rows else 0.0, "count")
    m["nn.computed_flop_per_call"] = (float(np.median(flop)) if flop else 0.0, "flop")
    m["nn.gflop_per_s"] = (sum(flop) / lag_s / 1e9 if lag_s > 0 else 0.0, "GFLOP/s")
    m["nn.loss_and_grad_share"] = (share("nn.loss_and_grad", use_self=True), "frac")

    gathers = [spans[i][5] for i in by_name.get("sampling.gather", []) if spans[i][5]]
    m["sampling.keep_frac"] = (
        float(np.median([g["rows"] / g["pixels"] for g in gathers])) if gathers else 0.0, "frac")
    m["sampling.computed_bytes_per_batch"] = (
        float(np.median([g["bytes"] for g in gathers])) if gathers else 0.0, "B")
    m["sampling.share"] = (share("sampling.indices") + share("sampling.gather"), "frac")

    decodes = [spans[i][5]["bytes"] for i in by_name.get("codec.decompress", []) if spans[i][5]]
    m["codec.computed_bytes_per_decode"] = (float(np.median(decodes)) if decodes else 0.0, "B")

    fits = [spans[i][5] for i in overfit if spans[i][5]]
    evals = sum(f["evals"] for f in fits)
    m["encoder.evals"] = (float(evals), "count")
    m["encoder.eval_share"] = (share("codec.reconstruct"), "frac")
    m["encoder.snapshot_update_frac"] = (
        sum(f["updates"] for f in fits) / evals if evals else 0.0, "frac")
    m["encoder.iters_per_s"] = (
        len(under_overfit.get("nn.loss_and_grad", [])) / overfit_s if overfit_s > 0 else 0.0, "1/s")

    # probe iterations: loss+grad calls inside overfit runs made by the search
    probe = [i for i in by_name.get("nn.loss_and_grad", []) if ancestor(i, "encoder.search") >= 0]
    useful = 0
    for i in probe:
        fit = ancestor(i, "encoder.overfit")
        search = ancestor(i, "encoder.search")
        if spans[fit][5] and spans[search][5] and spans[fit][5]["shape"] == spans[search][5]["shape"]:
            useful += 1
    m["encoder.probe_iters"] = (float(len(probe)), "count")
    m["encoder.useful_probe_frac"] = (useful / len(probe) if probe else 0.0, "frac")
    return m, table
