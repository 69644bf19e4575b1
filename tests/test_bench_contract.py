"""The traced benchmark hooks hsin functions by (module, attribute) name.

A refactor that renames or removes one of those names would silently drop
a per-layer span from the traced run; this keeps every hook resolvable.
The tracer also swallows an extractor's AttributeError, so a renamed field
would silently zero a per-layer count; the second test runs each extractor
on the arguments and result of a real call. The third checks that every
eval of a traced compress is timed as codec.reconstruct.
"""

import importlib
import importlib.util
from pathlib import Path

import hsin.cli as cli
from hsin import save_cube, synth_cube

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def _counts(value):
    if isinstance(value, dict):
        return [c for v in value.values() for c in _counts(v)]
    if isinstance(value, tuple):
        return [c for v in value for c in _counts(v)]
    return [value]


def test_every_trace_target_resolves_to_a_callable():
    tracing = _load_tracing()
    assert tracing.TARGETS
    for module_name, attr, span, _ in tracing.TARGETS:
        fn = getattr(importlib.import_module(module_name), attr, None)
        assert callable(fn), f"{module_name}.{attr} (span {span}) does not resolve"


def test_every_extractor_reads_a_real_call(tmp_path, capsys, monkeypatch):
    tracing = _load_tracing()
    calls = {}

    def recorder(key, fn):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            calls.setdefault(key, (args, result))
            return result
        return wrapper

    described = [t for t in tracing.TARGETS if t[3] is not None]
    assert described
    for module_name, attr, span, _ in described:
        module = importlib.import_module(module_name)
        monkeypatch.setattr(module, attr, recorder(span, getattr(module, attr)))

    raw = tmp_path / "c.raw"
    hsn = tmp_path / "c.hsin"
    save_cube(synth_cube("smooth-gradient", 6, 6, 2), raw)
    assert cli.run(["compress", "--input", str(raw), "--layers", "1", "--width", "4",
                    "--iters", "4", "--eval-every", "2", "--sample-window", "3",
                    "--sample-rate", "0.5", "--out", str(hsn)]) == 0
    # only the smallest default candidate, (5,20) at 792 bpppb, fits
    assert cli.run(["search", "--input", str(raw), "--budget-bpppb", "800"]) == 0
    assert cli.run(["decompress", "--in", str(hsn), "--out", str(tmp_path / "r.raw")]) == 0
    capsys.readouterr()

    for _, _, span, describe in described:
        assert span in calls, f"no call reached {span}"
        args, result = calls[span]
        attrs = describe(args, result)
        counts = _counts(attrs)
        assert counts and all(c > 0 for c in counts), f"{span}: {attrs}"


def test_every_eval_is_traced_as_codec_reconstruct(tmp_path, capsys):
    tracing = _load_tracing()
    raw = tmp_path / "c.raw"
    save_cube(synth_cube("band-sinusoid", 8, 6, 3), raw)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.run(["compress", "--input", str(raw), "--layers", "1", "--width", "4",
                        "--iters", "6", "--eval-every", "2", "--out", str(tmp_path / "c.hsin")]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()

    metrics, _ = tracing.summarize(tracer.spans)
    assert metrics["encoder.evals"][0] == 3
    assert metrics["codec.reconstruct_calls"][0] == metrics["encoder.evals"][0]
    assert metrics["encoder.eval_share"][0] > 0
