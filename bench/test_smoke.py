"""Smoke test of the benchmark itself, at toy sizes.

    python3 -m pytest -q bench/test_smoke.py
"""

from __future__ import annotations

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 5


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.fixture(scope="module")
def toy_runs() -> dict:
    """Every workload at toy size, untraced and traced: {(name, trace): result}."""
    results = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = _run(ROOT, "--workload", name, "--seed", str(SEED), "--seconds", "0.5",
                        "--trace", str(trace), "--toy")
            assert proc.returncode == 0, proc.stderr
            results[name, trace] = json.loads(proc.stdout.strip().splitlines()[-1])
    return results


def _spans(name: str) -> list[dict]:
    path = ROOT / ".bench_work" / "results" / f"{name}-toy_seed{SEED}_trace1_spans.jsonl"
    return [json.loads(line) for line in path.read_text().splitlines()]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", WORKLOADS)
def test_every_metric_printed_with_unit(toy_runs, name, trace):
    result = toy_runs[name, trace]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]
    if trace:
        assert result["metrics"]["cli.exit_nonzero"]["value"] == 0
    else:
        assert result["metrics"]["ok_frac"]["value"] == 1.0
        for m in wanted:
            assert result["metrics"][m["name"]]["value"] != 0, m["name"]


@pytest.mark.parametrize("name", ["paper-full", "paper-sampled-half", "search-small"])
def test_spans_nest(toy_runs, name):
    spans = _spans(name)
    by_id = {s["id"]: s for s in spans}

    def parents(span_name: str) -> set[str]:
        found = [s for s in spans if s["name"] == span_name]
        assert found, span_name
        for s in found:
            p = by_id[s["parent"]]
            assert p["start"] <= s["start"] <= s["end"] <= p["end"]
            assert p["op"] == s["op"]
        return {by_id[s["parent"]]["name"] for s in found}

    assert parents("nn.loss_and_grad") == {"encoder.overfit"}
    if name == "search-small":
        assert parents("encoder.overfit") == {"encoder.compress", "encoder.search"}
    else:
        assert parents("encoder.overfit") == {"encoder.compress"}
    assert parents("encoder.compress") == {"cli.compress"}


def test_layer_shares_match_the_workloads(toy_runs):
    full = toy_runs["paper-full", 1]["metrics"]
    assert full["sampling.indices_calls"]["value"] == 0
    assert full["sampling.gather_calls"]["value"] == 0
    sampled = toy_runs["paper-sampled-half", 1]["metrics"]
    assert sampled["sampling.indices_calls"]["value"] == sampled["nn.loss_and_grad_calls"]["value"]
    assert sampled["sampling.share"]["value"] > 0
    decode = toy_runs["decode-large", 1]["metrics"]
    assert decode["nn.loss_and_grad_calls"]["value"] == 0
    assert decode["adam.steps"]["value"] == 0
    search = toy_runs["search-small", 1]["metrics"]
    assert search["encoder.probe_iters"]["value"] > 0
    assert 0 < search["encoder.useful_probe_frac"]["value"] <= 1


def test_corrupt_magic_is_one_failed_operation(tmp_path):
    spec = importlib.util.spec_from_file_location("hsin_bench_run", BENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = run  # dataclasses resolve annotations through it
    spec.loader.exec_module(run)
    bench = run.Bench(run.TOY["decode-large"], SEED, tmp_path)
    bench.setup()
    blob = bytearray(bench.hsin.read_bytes())
    blob[:4] = b"HSIX"
    bench.hsin.write_bytes(bytes(blob))
    out = bench.call(["decompress", "--in", str(bench.hsin), "--out", str(bench.recon)],
                     bench.check_decode)
    assert out is None
    assert (bench.attempted, bench.failed) == (1, 1)
    assert "exit 2" in bench.problems[0]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
