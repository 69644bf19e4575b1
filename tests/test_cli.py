"""Command-line pipeline: dispatch, exit codes, and the end-to-end flow."""

import errno
import os
import platform
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import hsin
import hsin.cli as cli
import hsin.codec
import hsin.encoder
import hsin.nn
from hsin import (HalfRangeError, SirenSpec, TrainingDiverged, bpppb, decompress, mse, open_cube,
                  psnr, save_cube, ssim_mean, synth_cube)
from hsin.codec import EncodedImage, quantize, serialize
from hsin.cube import ScaleInfo
from hsin.siren import init_params, param_count
from conftest import fresh_env


def parse_report(captured: str) -> dict:
    out = {}
    for line in captured.strip().splitlines():
        if "=" in line:
            key, _, value = line.partition("=")
            out[key] = value
    return out


def test_end_to_end_smoke(tmp_path, capsys):
    # synth -> compress -> decompress -> metrics, PSNR printed and high
    raw = tmp_path / "cube.raw"
    hsn = tmp_path / "cube.hsin"
    recon = tmp_path / "recon.raw"

    assert cli.run(["synth", "--kind", "smooth-gradient", "--dims", "32x32x8",
                    "--out", str(raw)]) == 0
    assert cli.run(["compress", "--input", str(raw), "--layers", "3", "--width", "32",
                    "--iters", "3000", "--out", str(hsn)]) == 0
    compress_out = parse_report(capsys.readouterr().out)
    assert float(compress_out["psnr"]) >= 40.0
    assert int(compress_out["n_params"]) == 2472  # (3,32) heads onto 8 bands
    assert int(compress_out["file_bytes"]) == hsn.stat().st_size

    assert cli.run(["decompress", "--in", str(hsn), "--out", str(recon)]) == 0
    capsys.readouterr()
    assert cli.run(["metrics", "--orig", str(raw), "--recon", str(recon)]) == 0
    report = parse_report(capsys.readouterr().out)
    assert float(report["psnr"]) >= 40.0
    assert 0.9 <= float(report["ssim_mean"]) <= 1.0


def test_half_flag_shrinks_file_by_two_bytes_per_param(tmp_path, capsys):
    raw = tmp_path / "c.raw"
    save_cube(synth_cube("band-sinusoid", 10, 10, 3), raw)
    full = tmp_path / "f.hsin"
    half = tmp_path / "h.hsin"
    args = ["compress", "--input", str(raw), "--layers", "1", "--width", "8",
            "--iters", "60", "--eval-every", "30"]
    assert cli.run(args + ["--out", str(full)]) == 0
    n_params = int(parse_report(capsys.readouterr().out)["n_params"])
    assert cli.run(args + ["--half", "--out", str(half)]) == 0
    capsys.readouterr()
    assert full.stat().st_size - half.stat().st_size == 2 * n_params


def test_identical_invocations_identical_files(tmp_path, capsys):
    raw = tmp_path / "c.raw"
    save_cube(synth_cube("smooth-gradient", 8, 8, 2), raw)
    outs = []
    for name in ("a.hsin", "b.hsin"):
        out = tmp_path / name
        assert cli.run(["compress", "--input", str(raw), "--layers", "1", "--width", "8",
                        "--iters", "80", "--seed", "5", "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    capsys.readouterr()
    assert outs[0] == outs[1]


def test_search_command(tmp_path, capsys):
    raw = tmp_path / "c.raw"
    save_cube(synth_cube("smooth-gradient", 16, 16, 4), raw)
    # on a 16x16x4 cube only the smallest default candidate (5,20) fits
    # under 60 bpppb, so the search returns it without probing
    assert cli.run(["search", "--input", str(raw), "--budget-bpppb", "60",
                    "--probe-iters", "40"]) == 0
    out = parse_report(capsys.readouterr().out)
    assert float(out["bpppb"]) <= 60.0
    assert (int(out["n_hidden"]), int(out["hidden_width"])) == (5, 20)


def test_search_half_picks_what_compress_half_picks(tmp_path, capsys):
    # at 30 bpppb on a 16x16x4 cube, (5,20) fits only at 16 bits per weight
    # (28.5 bpppb); both commands must rate candidates the same way
    raw = tmp_path / "c.raw"
    save_cube(synth_cube("smooth-gradient", 16, 16, 4), raw)
    budget = ["--input", str(raw), "--budget-bpppb", "30"]
    assert cli.run(["search", *budget]) == 1
    assert "fits" in capsys.readouterr().err
    assert cli.run(["search", *budget, "--half"]) == 0
    searched = parse_report(capsys.readouterr().out)
    assert cli.run(["compress", *budget, "--half", "--iters", "10",
                    "--out", str(tmp_path / "c.hsin")]) == 0
    compressed = parse_report(capsys.readouterr().out)
    for key in ("n_hidden", "hidden_width", "n_params", "bpppb"):
        assert searched[key] == compressed[key]
    assert (int(searched["n_hidden"]), int(searched["hidden_width"])) == (5, 20)
    assert float(searched["bpppb"]) == 28.5


def test_search_picks_what_compress_picks_whatever_its_training_flags(tmp_path, capsys):
    # compress's probes are search's probes: its --eval-every and --sample-*
    # set how the chosen net trains, not which net is chosen
    raw = tmp_path / "r.raw"
    save_cube(synth_cube("random", 16, 12, 8, seed=1), raw)
    budget = ["--input", str(raw), "--budget-bpppb", "100", "--seed", "0"]
    assert cli.run(["search", *budget]) == 0
    searched = parse_report(capsys.readouterr().out)
    assert cli.run(["compress", *budget, "--iters", "1", "--eval-every", "3",
                    "--sample-window", "3", "--sample-rate", "0.25",
                    "--out", str(tmp_path / "r.hsin")]) == 0
    compressed = parse_report(capsys.readouterr().out)
    for key in ("n_hidden", "hidden_width"):
        assert searched[key] == compressed[key]


def test_sampled_compress_flags(tmp_path, capsys):
    raw = tmp_path / "c.raw"
    save_cube(synth_cube("smooth-gradient", 12, 12, 2), raw)
    out = tmp_path / "s.hsin"
    assert cli.run(["compress", "--input", str(raw), "--layers", "1", "--width", "8",
                    "--iters", "60", "--eval-every", "60", "--sample-window", "3",
                    "--sample-rate", "0.5", "--out", str(out)]) == 0
    capsys.readouterr()
    assert out.exists()


@pytest.mark.parametrize("half", [False, True])
def test_compress_writes_history_csv(tmp_path, capsys, monkeypatch, half):
    # the CSV is the run's evaluation history, and its best row is the
    # printed psnr (both are written at full round-trip precision)
    raw = tmp_path / "c.raw"
    save_cube(synth_cube("smooth-gradient", 8, 8, 2), raw)
    reports = []

    def keep(*args, **kwargs):
        enc, report = hsin.compress(*args, **kwargs)
        reports.append(report)
        return enc, report

    monkeypatch.setattr(cli, "compress", keep)
    path = tmp_path / "history.csv"
    assert cli.run(["compress", "--input", str(raw), "--layers", "1", "--width", "8",
                    "--iters", "120", "--eval-every", "40", "--history-csv", str(path),
                    "--out", str(tmp_path / "c.hsin")] + (["--half"] if half else [])) == 0
    printed = float(parse_report(capsys.readouterr().out)["psnr"])
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "epoch,psnr"
    rows = [(int(e), float(v)) for e, v in (line.split(",") for line in lines[1:])]
    assert rows == reports[0].history
    assert [e for e, _ in rows] == [40, 80, 120]
    assert max(v for _, v in rows) == printed


# ----------------------------------------------------------------- failures

@pytest.mark.parametrize("layers, width, out, csv, code, needle", [
    ("1", "256", "x.hsin", None, 1, "hidden_width"),  # wider than the uint8 field
    ("256", "4", "x.hsin", None, 1, "n_hidden"),      # deeper than the uint8 field
    ("1", "4", "missing/x.hsin", None, 2, "does not exist"),
    ("1", "4", "x.hsin", "missing/h.csv", 2, "does not exist"),
    ("1", "4", "adir", None, 2, "is a directory"),
    ("1", "4", "x.hsin", "adir", 2, "is a directory"),
], ids=["width-256", "layers-256", "out-dir-missing", "csv-dir-missing",
        "out-is-dir", "csv-is-dir"])
def test_compress_fails_before_training(tmp_path, capsys, monkeypatch,
                                        layers, width, out, csv, code, needle):
    raw = tmp_path / "c.raw"
    save_cube(synth_cube("random", 4, 4, 2, seed=7), raw)

    def no_training(*args, **kwargs):
        raise AssertionError("overfit must not run")

    monkeypatch.setattr(hsin.encoder, "overfit", no_training)
    old = tmp_path / "x.hsin"
    old.write_bytes(b"old")
    (tmp_path / "adir").mkdir()
    argv = ["compress", "--input", str(raw), "--layers", layers, "--width", width,
            "--iters", "3000", "--out", str(tmp_path / out)]
    if csv is not None:
        argv += ["--history-csv", str(tmp_path / csv)]
    assert cli.run(argv) == code
    assert needle in capsys.readouterr().err
    assert old.read_bytes() == b"old"  # a failed run leaves --out untouched
    assert not (tmp_path / "missing").exists()
    assert not any((tmp_path / "adir").iterdir())


@pytest.mark.parametrize("out, needle", [
    ("missing/r.raw", "does not exist"),
    ("adir", "is a directory"),
    ("r.raw", "r.hdr: it is a directory"),
    ("x.hdr", "x.hdr: the --out .hdr is the same file as --out"),
], ids=["out-dir-missing", "out-is-dir", "hdr-is-dir", "out-is-hdr"])
def test_decompress_fails_before_decoding(tmp_path, capsys, monkeypatch, out, needle):
    raw = tmp_path / "c.raw"
    save_cube(synth_cube("random", 4, 4, 2, seed=8), raw)
    hsn = tmp_path / "c.hsin"
    assert cli.run(["compress", "--input", str(raw), "--layers", "1", "--width", "4",
                    "--iters", "10", "--out", str(hsn)]) == 0
    capsys.readouterr()

    def no_decoding(*args, **kwargs):
        raise AssertionError("decompress must not run")

    monkeypatch.setattr(cli, "decompress", no_decoding)
    (tmp_path / "adir").mkdir()
    (tmp_path / "r.hdr").mkdir()
    assert cli.run(["decompress", "--in", str(hsn), "--out", str(tmp_path / out)]) == 2
    assert needle in capsys.readouterr().err
    assert not (tmp_path / "missing").exists()
    assert not (tmp_path / "r.raw").exists()
    assert not (tmp_path / "x.hdr").exists()
    assert not any((tmp_path / "adir").iterdir())
    assert not any((tmp_path / "r.hdr").iterdir())


@pytest.mark.parametrize("out, csv, needle", [
    ("x.hsin", "x.hsin", "--history-csv is the same file as --out"),
    ("c.raw", None, "--out is the same file as --input"),
    ("c.hdr", None, "--out is the same file as the --input .hdr"),
    ("sub/../c.raw", None, "--out is the same file as --input"),
    ("y.hsin", "c.raw", "--history-csv is the same file as --input"),
    ("y.hsin", "c.hdr", "--history-csv is the same file as the --input .hdr"),
], ids=["out-is-csv", "out-is-input", "out-is-input-hdr", "out-resolves-to-input",
        "csv-is-input", "csv-is-input-hdr"])
def test_compress_refuses_to_overwrite_its_own_files(tmp_path, capsys, monkeypatch,
                                                     out, csv, needle):
    raw = tmp_path / "c.raw"
    save_cube(synth_cube("random", 4, 4, 2, seed=7), raw)
    (tmp_path / "sub").mkdir()
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()}

    def no_training(*args, **kwargs):
        raise AssertionError("overfit must not run")

    monkeypatch.setattr(hsin.encoder, "overfit", no_training)
    argv = ["compress", "--input", str(raw), "--layers", "1", "--width", "4",
            "--iters", "10", "--out", str(tmp_path / out)]
    if csv is not None:
        argv += ["--history-csv", str(tmp_path / csv)]
    assert cli.run(argv) == 2
    assert needle in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()} == before


@pytest.mark.parametrize("src, out, needle", [
    ("c.hsin", "c.hsin", "--out is the same file as --in"),
    ("r.hdr", "r.raw", "the --out .hdr is the same file as --in"),
    ("c.hsin", "sub/../c.hsin", "--out is the same file as --in"),
], ids=["out-is-in", "out-hdr-is-in", "out-resolves-to-in"])
def test_decompress_refuses_to_overwrite_its_input(tmp_path, capsys, monkeypatch,
                                                   src, out, needle):
    raw = tmp_path / "c.raw"
    save_cube(synth_cube("random", 4, 4, 2, seed=8), raw)
    hsn = tmp_path / src
    assert cli.run(["compress", "--input", str(raw), "--layers", "1", "--width", "4",
                    "--iters", "10", "--out", str(hsn)]) == 0
    capsys.readouterr()
    (tmp_path / "sub").mkdir()
    blob = hsn.read_bytes()

    def no_decoding(*args, **kwargs):
        raise AssertionError("decompress must not run")

    monkeypatch.setattr(cli, "decompress", no_decoding)
    assert cli.run(["decompress", "--in", str(hsn), "--out", str(tmp_path / out)]) == 2
    assert needle in capsys.readouterr().err
    assert hsn.read_bytes() == blob
    assert not (tmp_path / "r.raw").exists()


def test_python_dash_m_runs_the_cli(tmp_path):
    # a checkout runs the CLI as `python -m hsin` (and `python -m hsin.cli`)
    env = fresh_env()
    for module, name in (("hsin", "a.raw"), ("hsin.cli", "b.raw")):
        out = tmp_path / name
        proc = subprocess.run([sys.executable, "-m", module, "synth", "--kind", "random",
                               "--dims", "3x2x2", "--out", str(out)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == f"out={out}"
        assert open_cube(out).data.size == 12
    proc = subprocess.run([sys.executable, "-m", "hsin", "synth"], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1 and "error:" in proc.stderr


def test_cli_keeps_tile_arrays_in_the_heap(tmp_path):
    # each row tile makes and frees arrays above glibc's default 128 KiB mmap
    # threshold, which maps them afresh, so every tile faulted its pages in
    # again: cli.run raises the threshold. The same compress through the
    # library keeps glibc's defaults: 6k page faults against 41k here
    resource = pytest.importorskip("resource")
    if platform.libc_ver()[0] != "glibc":
        pytest.skip("the allocator thresholds are glibc's")
    raw = tmp_path / "c.raw"
    save_cube(synth_cube("band-sinusoid", 64, 64, 64), raw)
    env = fresh_env(threads=1)
    library = ("import sys, hsin; cube = hsin.open_cube(sys.argv[1]); hsin.compress(cube, "
               "hsin.SirenSpec(5, 40, cube.bands), hsin.TrainConfig(20, eval_every=20))")
    faults = []
    for argv in (["-m", "hsin", "compress", "--input", str(raw), "--layers", "5", "--width", "40",
                  "--iters", "20", "--eval-every", "20", "--out", str(tmp_path / "c.hsin")],
                 ["-c", library, str(raw)]):
        before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
        subprocess.run([sys.executable, *argv], env=env, check=True, capture_output=True,
                       timeout=120)
        faults.append(resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before)
    assert 3 * faults[0] < faults[1], faults


def test_decompress_out_of_memory_exits_2(tmp_path):
    # a 45-byte file whose header claims a 65535x65535x1 scene: its grid
    # alone is 32 GiB. The child's address space is capped, so the request
    # fails there; uncapped, an overcommitting host would grant it and the
    # decoder would then fill it
    resource = pytest.importorskip("resource")
    enc = EncodedImage(width=65535, height=65535,
                       spec=SirenSpec(n_hidden=1, hidden_width=1, out_dim=1),
                       scale=ScaleInfo(0.0, 1.0), params=np.full(5, 0.5, dtype=np.float32))
    hsn = tmp_path / "huge.hsin"
    hsn.write_bytes(serialize(enc))
    assert hsn.stat().st_size == 45
    out = tmp_path / "r.raw"
    # one BLAS thread, so the thread buffers fit well under the cap
    env = fresh_env(threads=1)

    def cap_address_space():
        _, hard = resource.getrlimit(resource.RLIMIT_AS)
        cap = 4 << 30 if hard == resource.RLIM_INFINITY else min(4 << 30, hard)
        resource.setrlimit(resource.RLIMIT_AS, (cap, hard))

    proc = subprocess.run([sys.executable, "-m", "hsin", "decompress", "--in", str(hsn),
                           "--out", str(out)], env=env, preexec_fn=cap_address_space,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: out of memory"), proc.stderr
    assert proc.stdout == ""
    assert not out.exists() and not (tmp_path / "r.hdr").exists()


def _run_under_file_size_cap(argv: list[str], cap: int) -> subprocess.CompletedProcess:
    """`python -m hsin *argv` from this checkout, with RLIMIT_FSIZE at `cap` bytes."""
    resource = pytest.importorskip("resource")

    def cap_file_size():
        _, hard = resource.getrlimit(resource.RLIMIT_FSIZE)
        limit = cap if hard == resource.RLIM_INFINITY else min(cap, hard)
        resource.setrlimit(resource.RLIMIT_FSIZE, (limit, hard))

    return subprocess.run([sys.executable, "-m", "hsin", *argv], env=fresh_env(),
                          preexec_fn=cap_file_size, capture_output=True, text=True, timeout=120)


def test_failed_write_leaves_no_output(tmp_path):
    # a 64 KiB file size limit stops the 512 KiB cube that decompress or
    # synth writes partway, over a small cube written before: one error
    # line, and neither the data file nor a .hdr is left behind
    spec = SirenSpec(n_hidden=1, hidden_width=4, out_dim=32)
    enc = EncodedImage(64, 64, spec, ScaleInfo(0.0, 1.0), init_params(spec, seed=0))
    hsn = tmp_path / "c.hsin"
    hsn.write_bytes(serialize(enc))
    out = tmp_path / "r.raw"
    for argv in (["decompress", "--in", str(hsn), "--out", str(out)],
                 ["synth", "--kind", "random", "--dims", "64x64x32", "--out", str(out)]):
        save_cube(synth_cube("random", 2, 2, 1), out)
        proc = _run_under_file_size_cap(argv, 64 << 10)
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr
        assert proc.stdout == ""
        assert not out.exists() and not (tmp_path / "r.hdr").exists()


def test_failed_compress_write_leaves_no_output(tmp_path):
    # the 469 KB .hsin of a (2,255) net over 200 bands stops partway under a
    # 100 000-byte file size limit: one error line, and no --out is left,
    # neither the partial file nor the earlier one it truncated
    raw = tmp_path / "c.raw"
    save_cube(synth_cube("random", 16, 16, 200), raw)
    out = tmp_path / "x.hsin"
    out.write_bytes(b"an earlier .hsin")
    proc = _run_under_file_size_cap(
        ["compress", "--input", str(raw), "--layers", "2", "--width", "255", "--iters", "1",
         "--out", str(out)], 100_000)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr
    assert proc.stdout == ""
    assert not out.exists()


def test_failed_history_write_leaves_no_output(tmp_path, capsys, monkeypatch):
    # the .hsin is written first; a --history-csv that then fails takes both
    # files with it, so a failed compress leaves neither
    raw = tmp_path / "c.raw"
    save_cube(synth_cube("random", 4, 4, 2, seed=3), raw)

    def full_disk(fh):
        fh.write("epoch")
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(cli.csv, "writer", full_disk)
    out, history = tmp_path / "x.hsin", tmp_path / "h.csv"
    assert cli.run(["compress", "--input", str(raw), "--layers", "1", "--width", "4",
                    "--iters", "2", "--history-csv", str(history), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "No space left" in captured.err
    assert captured.out == ""
    assert not out.exists() and not history.exists()


def test_decompress_to_a_pipe_is_refused_and_the_pipe_kept(tmp_path, capsys):
    # positioned writes need a seekable file: a FIFO --out is refused with
    # one error line, and the cleanup of the failed write leaves it in place
    if not hasattr(os, "mkfifo"):
        pytest.skip("no FIFOs on this platform")
    spec = SirenSpec(n_hidden=1, hidden_width=4, out_dim=2)
    hsn = tmp_path / "c.hsin"
    hsn.write_bytes(serialize(EncodedImage(4, 4, spec, ScaleInfo(0.0, 1.0),
                                           init_params(spec, seed=0))))
    fifo = tmp_path / "r.raw"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)  # so opening to write does not block
    try:
        assert cli.run(["decompress", "--in", str(hsn), "--out", str(fifo)]) == 2
    finally:
        os.close(reader)
    err = capsys.readouterr().err
    assert err.startswith("error:") and "seekable" in err and len(err.splitlines()) == 1
    assert fifo.exists() and not (tmp_path / "r.hdr").exists()


def test_failed_cleanup_reports_the_write_error(tmp_path, capsys, monkeypatch):
    # when removing the partial output fails too, the write's own error is
    # the one reported
    spec = SirenSpec(n_hidden=1, hidden_width=4, out_dim=2)
    hsn = tmp_path / "c.hsin"
    hsn.write_bytes(serialize(EncodedImage(4, 4, spec, ScaleInfo(0.0, 1.0),
                                           init_params(spec, seed=0))))

    def full_disk(fd, data, offset):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def denied(self, missing_ok=False):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES))

    monkeypatch.setattr(os, "pwrite", full_disk)
    monkeypatch.setattr(Path, "unlink", denied)
    assert cli.run(["decompress", "--in", str(hsn), "--out", str(tmp_path / "r.raw")]) == 2
    err = capsys.readouterr().err
    assert os.strerror(errno.ENOSPC) in err and len(err.splitlines()) == 1


@pytest.mark.parametrize("command", ["decompress", "synth"])
@pytest.mark.parametrize("old_dims", [(32, 32, 8), (16, 12, 8), (2, 2, 1)],
                         ids=["larger", "same-size", "smaller"])
def test_overwritten_output_equals_a_fresh_one(tmp_path, capsys, command, old_dims):
    # an existing --out is written in place and cut to size: whatever it
    # held, and a stale .hdr of another shape (same-size: of the same one),
    # the data file and .hdr end up byte for byte what a new path gets
    spec = SirenSpec(n_hidden=1, hidden_width=4, out_dim=8)
    hsn = tmp_path / "c.hsin"
    hsn.write_bytes(serialize(EncodedImage(16, 12, spec, ScaleInfo(-2.0, 5.0),
                                           init_params(spec, seed=4))))
    argv = {"decompress": ["decompress", "--in", str(hsn)],
            "synth": ["synth", "--kind", "random", "--dims", "16x12x8", "--seed", "7"]}[command]
    fresh, old = tmp_path / "fresh.raw", tmp_path / "old.raw"
    assert cli.run([*argv, "--out", str(fresh)]) == 0
    save_cube(synth_cube("band-sinusoid", *old_dims, seed=1), old)
    assert cli.run([*argv, "--out", str(old)]) == 0
    capsys.readouterr()
    assert old.stat().st_size == fresh.stat().st_size == 4 * 16 * 12 * 8
    assert old.read_bytes() == fresh.read_bytes()
    assert (tmp_path / "old.hdr").read_bytes() == (tmp_path / "fresh.hdr").read_bytes()


@pytest.mark.parametrize("command", ["decompress", "synth"])
def test_new_output_has_the_mode_open_wb_gives(tmp_path, capsys, command):
    # a new --out is created with the permission bits open(path, "wb")
    # gives under the same umask
    spec = SirenSpec(n_hidden=1, hidden_width=4, out_dim=2)
    hsn = tmp_path / "c.hsin"
    hsn.write_bytes(serialize(EncodedImage(4, 4, spec, ScaleInfo(0.0, 1.0),
                                           init_params(spec, seed=0))))
    argv = {"decompress": ["decompress", "--in", str(hsn)],
            "synth": ["synth", "--kind", "random", "--dims", "4x4x2"]}[command]
    for mask in (0o022, 0o077, 0o002):
        out, probe = tmp_path / f"r{mask:o}.raw", tmp_path / f"p{mask:o}"
        previous = os.umask(mask)
        try:
            with open(probe, "wb"):
                pass
            assert cli.run([*argv, "--out", str(out)]) == 0
        finally:
            os.umask(previous)
        assert out.stat().st_mode == probe.stat().st_mode
    capsys.readouterr()


# Decodes sys.argv[1] to sys.argv[2] and dies after the first band's
# positioned write, skipping all Python cleanup as a SIGKILL would
_DIE_AFTER_FIRST_BAND = """
import os, sys
import hsin.cli
pwrite, writes = os.pwrite, []

def pwrite_then_die(fd, data, offset):
    if writes:
        os._exit(1)
    writes.append(offset)
    return pwrite(fd, data, offset)

os.pwrite = pwrite_then_die
hsin.cli.run(["decompress", "--in", sys.argv[1], "--out", sys.argv[2]])
"""


def test_killed_decode_over_a_cube_leaves_no_cube_that_opens(tmp_path):
    # a decode killed partway over a valid cube of the same shape leaves a
    # mix of old and new samples; open_cube must refuse what is left
    spec = SirenSpec(n_hidden=1, hidden_width=4, out_dim=4)
    hsn = tmp_path / "c.hsin"
    hsn.write_bytes(serialize(EncodedImage(8, 6, spec, ScaleInfo(0.0, 1.0),
                                           init_params(spec, seed=2))))
    out = tmp_path / "r.raw"
    save_cube(synth_cube("random", 8, 6, 4), out)
    proc = subprocess.run([sys.executable, "-c", _DIE_AFTER_FIRST_BAND, str(hsn), str(out)],
                          env=fresh_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == ""
    with pytest.raises(hsin.CubeFormatError):
        open_cube(out)


@pytest.mark.parametrize("width, height, bands, half, buffer_bytes, buffers", [
    (1, 1, 1, False, None, 1),
    (60, 50, 3, False, None, 1),
    (37, 11, 5, True, None, 1),
    (80, 70, 4, False, 1, 5),
    (80, 70, 4, True, 1, 5),
], ids=["1x1x1", "remainder-joins-last-tile", "width-not-height", "buffer-per-tile",
        "buffer-per-tile-half16"])
def test_decompress_writes_what_save_cube_writes(tmp_path, capsys, monkeypatch, width, height,
                                                 bands, half, buffer_bytes, buffers):
    # the streamed decode writes the bytes of save_cube(decompress(enc)):
    # 3000 pixels make two tiles, the second 1976 rows long; a write buffer
    # shrunk to one tile sends 5600 pixels out in 5 buffers
    spec = SirenSpec(n_hidden=2, hidden_width=8, out_dim=bands)
    params = init_params(spec, seed=width + bands)
    enc = EncodedImage(width, height, spec, ScaleInfo(-3.7, 1234.56),
                       quantize(params) if half else params)
    hsn = tmp_path / "c.hsin"
    hsn.write_bytes(serialize(enc))
    if buffer_bytes is not None:
        monkeypatch.setattr(hsin.codec, "WRITE_BUFFER_BYTES", buffer_bytes)
    writes = []
    pwrite = os.pwrite

    def counted_pwrite(fd, data, offset):
        writes.append(offset)
        return pwrite(fd, data, offset)

    monkeypatch.setattr(os, "pwrite", counted_pwrite)
    out = tmp_path / "r.raw"
    assert cli.run(["decompress", "--in", str(hsn), "--out", str(out)]) == 0
    assert capsys.readouterr().out == (
        f"width={width}\nheight={height}\nbands={bands}\nout={out}\n")
    assert len(writes) == bands * buffers
    monkeypatch.undo()
    want = tmp_path / "w.raw"
    cube = decompress(enc)
    save_cube(cube, want)
    assert out.read_bytes() == want.read_bytes()
    # one decode result: the library's cube holds the file's samples
    assert cube.data.dtype == np.float32
    assert out.read_bytes() == cube.data.tobytes()
    assert (tmp_path / "r.hdr").read_bytes() == (tmp_path / "w.hdr").read_bytes()


@pytest.mark.parametrize("bands", [8, 256])
def test_decompress_memory_is_bounded_by_the_write_buffer(tmp_path, capsys, monkeypatch, bands):
    # with 64-row tiles and a 64 KiB write buffer (one tile at 256 bands),
    # the decode holds the 64x64 grid's coordinates and a few buffers'
    # worth, whatever the band count; the 256-band cube alone is 4 MiB
    monkeypatch.setattr(hsin.nn, "TILE_ROWS", 64)
    monkeypatch.setattr(hsin.codec, "WRITE_BUFFER_BYTES", 64 << 10)
    spec = SirenSpec(n_hidden=2, hidden_width=16, out_dim=bands)
    enc = EncodedImage(64, 64, spec, ScaleInfo(0.0, 1000.0), init_params(spec, seed=3))
    hsn = tmp_path / "c.hsin"
    hsn.write_bytes(serialize(enc))
    out = tmp_path / "r.raw"
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        assert cli.run(["decompress", "--in", str(hsn), "--out", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    grid = 24 * 64 * 64
    assert peak <= grid + 8 * (64 << 10)
    assert out.stat().st_size == 4 * 64 * 64 * bands


def test_usage_errors_exit_1(tmp_path, capsys):
    raw = tmp_path / "c.raw"
    save_cube(synth_cube("random", 4, 4, 2, seed=0), raw)
    cases = [
        ["frobnicate"],                                           # unknown verb
        ["compress", "--input", str(raw), "--out", "x.hsin"],     # no arch, no budget
        ["compress", "--input", str(raw), "--layers", "1", "--width", "8",
         "--budget-bpppb", "1.0", "--out", "x.hsin"],             # both given
        ["compress", "--input", str(raw), "--layers", "1",
         "--out", "x.hsin"],                                      # width missing
        ["compress", "--input", str(raw), "--layers", "1", "--width", "8",
         "--sample-window", "3", "--out", "x.hsin"],              # rate missing
        ["synth", "--kind", "random", "--dims", "4x4", "--out", "y.raw"],
        ["synth", "--kind", "random", "--dims", "axbxc", "--out", "y.raw"],
        ["synth", "--kind", "random", "--dims", "0x4x4", "--out", "y.raw"],
    ]
    for argv in cases:
        assert cli.run(argv) == 1, argv
        assert capsys.readouterr().err != ""


@pytest.mark.parametrize("command", ["", "compress", "decompress", "metrics", "search", "synth"])
def test_help_returns_0(capsys, command):
    # run returns every exit code, --help's included, and raises none
    assert cli.run([*command.split(), "--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: hsin")


def test_io_errors_exit_2(tmp_path, capsys):
    missing = tmp_path / "missing.raw"
    assert cli.run(["compress", "--input", str(missing), "--layers", "1",
                    "--width", "8", "--out", str(tmp_path / "x.hsin")]) == 2
    assert cli.run(["metrics", "--orig", str(missing), "--recon", str(missing)]) == 2
    capsys.readouterr()
    assert cli.run(["decompress", "--in", str(tmp_path / "missing.hsin"),
                    "--out", str(tmp_path / "r.raw")]) == 2
    assert "cannot read" in capsys.readouterr().err

    # corrupted magic in a .hsin
    raw = tmp_path / "c.raw"
    save_cube(synth_cube("random", 4, 4, 2, seed=1), raw)
    hsn = tmp_path / "c.hsin"
    assert cli.run(["compress", "--input", str(raw), "--layers", "1", "--width", "4",
                    "--iters", "20", "--out", str(hsn)]) == 0
    capsys.readouterr()
    blob = bytearray(hsn.read_bytes())
    blob[:4] = b"JUNK"
    hsn.write_bytes(bytes(blob))
    assert cli.run(["decompress", "--in", str(hsn), "--out", str(tmp_path / "r.raw")]) == 2
    assert "magic" in capsys.readouterr().err

    # a bad raw range (bytes 17-24) is refused before any output is written
    for raw_min, raw_max, message in [(np.nan, 1.0, "finite"), (0.0, np.inf, "finite"),
                                      (2.0, 1.0, "raw_max")]:
        blob[:4] = b"HSIN"
        blob[17:25] = struct.pack("<ff", raw_min, raw_max)
        hsn.write_bytes(bytes(blob))
        assert cli.run(["decompress", "--in", str(hsn), "--out", str(tmp_path / "r.raw")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "r.raw").exists() and not (tmp_path / "r.hdr").exists()


def test_truncated_cube_exits_2(tmp_path, capsys):
    raw = tmp_path / "c.raw"
    save_cube(synth_cube("random", 4, 4, 2, seed=2), raw)
    raw.write_bytes(raw.read_bytes()[:-8])
    assert cli.run(["metrics", "--orig", str(raw), "--recon", str(raw)]) == 2
    assert "expected" in capsys.readouterr().err


def test_metrics_scores_band_matrices(tmp_path, capsys):
    # cubes whose dims differ exit 1 before any score is printed, also when
    # only width and height are swapped (the same sample count); a matching
    # pair prints the scores of the two band matrices, peak = orig's range
    paths = {}
    for name, kind, dims in [("orig", "random", (4, 6, 2)), ("swapped", "random", (6, 4, 2)),
                             ("deeper", "random", (4, 6, 3)), ("recon", "band-sinusoid", (4, 6, 2))]:
        paths[name] = tmp_path / f"{name}.raw"
        save_cube(synth_cube(kind, *dims, seed=1), paths[name])
    for other in ("swapped", "deeper"):
        assert cli.run(["metrics", "--orig", str(paths["orig"]), "--recon", str(paths[other])]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "cube dimensions differ" in captured.err
    assert cli.run(["metrics", "--orig", str(paths["orig"]), "--recon", str(paths["recon"])]) == 0
    report = parse_report(capsys.readouterr().out)
    orig, recon = open_cube(paths["orig"]), open_cube(paths["recon"])
    lo, hi = orig.value_range
    x, y = orig.band_matrix(), recon.band_matrix()
    assert float(report["mse"]) == mse(x, y)
    assert float(report["psnr"]) == psnr(x, y, peak=hi - lo)
    assert float(report["ssim_mean"]) == ssim_mean(x, y, dynamic_range=hi - lo)


def test_non_finite_cube_samples_exit_2(tmp_path, capsys):
    for name, bad in (("nan", np.nan), ("inf", np.inf)):
        raw = tmp_path / f"{name}.raw"
        save_cube(synth_cube("random", 4, 4, 2, seed=5), raw)
        data = np.fromfile(raw, dtype="<f4")
        data[21] = bad  # band 1, row 1, col 1
        data.tofile(raw)
        assert cli.run(["compress", "--input", str(raw), "--layers", "1", "--width", "4",
                        "--iters", "10", "--out", str(tmp_path / "x.hsin")]) == 2
        assert f"sample 21 (band 1, row 1, col 1) is {name}" in capsys.readouterr().err
        assert cli.run(["metrics", "--orig", str(raw), "--recon", str(raw)]) == 2
        assert "finite" in capsys.readouterr().err
        assert not (tmp_path / "x.hsin").exists()


def test_non_finite_weights_exit_2(tmp_path, capsys):
    raw = tmp_path / "c.raw"
    save_cube(synth_cube("random", 4, 4, 2, seed=6), raw)
    # first payload weight: float32 NaN, or float16 +inf (0x7C00)
    for flag, patch, shown in (([], struct.pack("<f", np.nan), "nan"),
                               (["--half"], struct.pack("<H", 0x7C00), "inf")):
        hsn = tmp_path / "c.hsin"
        assert cli.run(["compress", "--input", str(raw), "--layers", "1", "--width", "4",
                        "--iters", "20", "--out", str(hsn)] + flag) == 0
        capsys.readouterr()
        blob = bytearray(hsn.read_bytes())
        blob[25:25 + len(patch)] = patch
        hsn.write_bytes(bytes(blob))
        assert cli.run(["decompress", "--in", str(hsn), "--out", str(tmp_path / "r.raw")]) == 2
        assert f"parameter 0 is {shown}" in capsys.readouterr().err
        assert not (tmp_path / "r.raw").exists()


def test_output_bytes_independent_of_thread_count(tmp_path):
    # the same compress in two fresh processes, with one and two BLAS threads
    raw = tmp_path / "c.raw"
    save_cube(synth_cube("band-sinusoid", 64, 64, 32), raw)
    outs = []
    for threads in (1, 2):
        out = tmp_path / f"t{threads}.hsin"
        subprocess.run(
            [sys.executable, "-c", "import sys, hsin.cli; sys.exit(hsin.cli.run(sys.argv[1:]))",
             "compress", "--input", str(raw), "--layers", "5", "--width", "40",
             "--iters", "60", "--out", str(out)],
            env=fresh_env(threads), check=True, capture_output=True,
        )
        outs.append(out.read_bytes())
    assert len(outs[0]) == 25 + 4 * 7992
    assert outs[0] == outs[1]


# One float32 training step on the first batch that window-3, rate-0.25
# sampling draws from a 64x64 grid (925 rows), in a fresh process; prints
# the loss and a digest of every bias gradient.
_SAMPLED_STEP = """
import hashlib
from hsin import SampleConfig, SirenSpec, normalize, synth_cube
import numpy as np
from hsin.nn import Batch, mlp_loss_and_grad
from hsin.sampling import build_grid, sample_indices
from hsin.siren import init_params, unflatten
cube, _ = normalize(synth_cube("band-sinusoid", 64, 64, 32))
idx = sample_indices(64, 64, SampleConfig(window=3, rate=0.25), 0, 1)
batch = Batch(build_grid(64, 64).astype(np.float32)[idx],
              cube.band_matrix().T.astype(np.float32)[idx])
spec = SirenSpec(n_hidden=5, hidden_width=40, out_dim=32)
loss, grads = mlp_loss_and_grad(spec, init_params(spec, seed=0), batch)
biases = b"".join(gb.tobytes() for _, gb in unflatten(spec, grads))
print(len(idx), repr(loss), hashlib.sha256(biases).hexdigest())
"""


def test_sampled_step_loss_and_bias_gradients_independent_of_thread_count():
    # the vdot loss and the GEMV bias gradients of a sampled batch are the
    # same at one and two BLAS threads. The weight gradients dy.T @ x are
    # not (at 925 rows OpenBLAS's two-thread GEMM rounds them differently),
    # so a sampled compress writes other bytes at two threads
    outs = [subprocess.run([sys.executable, "-c", _SAMPLED_STEP], env=fresh_env(threads),
                           check=True, capture_output=True, text=True).stdout
            for threads in (1, 2)]
    assert outs[0].startswith("925 ")
    assert outs[0] == outs[1]


@pytest.mark.parametrize("budget, n_fits, n_full", [(2.0, 4, 0), (4.0, 7, 2)])
def test_search_picks_the_same_shape_at_one_and_two_threads(tmp_path, monkeypatch, budget,
                                                            n_fits, n_full):
    # the sampled probes' bytes may differ with the BLAS thread count (here the
    # (5,40) probe's weights do); the pick must not. At 2.0 bpppb the best sampled
    # probe leads by over 2 dB and decides alone; at 4.0 (5,40) and (10,40) lie
    # within 0.2 dB of each other and full-batch probes rank them
    cube = synth_cube("smooth-gradient", 64, 64, 32)
    raw = tmp_path / "c.raw"
    save_cube(cube, raw)
    fits = [s for s in hsin.encoder.DEFAULT_CANDIDATES
            if bpppb(param_count(SirenSpec(*s, out_dim=32)), 32, 64, 64, 32) <= budget]
    assert len(fits) == n_fits
    real, full = hsin.encoder.overfit, []

    def spy(cube, spec, cfg):
        if cfg.sample is None:
            full.append(spec)
        return real(cube, spec, cfg)

    monkeypatch.setattr(hsin.encoder, "overfit", spy)
    hsin.architecture_search(hsin.normalize(cube)[0], budget, 30)
    assert len(full) == n_full
    outs = [subprocess.run([sys.executable, "-m", "hsin", "search", "--input", str(raw),
                            "--budget-bpppb", str(budget), "--probe-iters", "30"],
                           env=fresh_env(threads), check=True, capture_output=True,
                           text=True).stdout
            for threads in (1, 2)]
    assert parse_report(outs[0])["hidden_width"]
    assert outs[0] == outs[1]


def test_import_leaves_the_environment_alone():
    # a thread count is the BLAS's own variable: importing hsin, even after
    # numpy, sets none, reads no variable of its own and warns of nothing
    code = ("import os; before = dict(os.environ); import numpy, hsin; "
            "assert dict(os.environ) == before, set(os.environ.items()) ^ set(before.items())")
    proc = subprocess.run([sys.executable, "-c", code], env={**fresh_env(), "HSIN_THREADS": "1"},
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


def test_numeric_failures_exit_3(tmp_path, capsys, monkeypatch):
    raw = tmp_path / "c.raw"
    save_cube(synth_cube("random", 4, 4, 2, seed=3), raw)

    def diverge(*args, **kwargs):
        raise TrainingDiverged("loss became nan at iteration 7")

    monkeypatch.setattr(cli, "compress", diverge)
    argv = ["compress", "--input", str(raw), "--layers", "1", "--width", "4",
            "--iters", "10", "--out", str(tmp_path / "x.hsin")]
    assert cli.run(argv) == 3
    assert "nan" in capsys.readouterr().err

    def overflow(*args, **kwargs):
        raise HalfRangeError("parameter 3 = 1e9 exceeds the half-precision range")

    monkeypatch.setattr(cli, "compress", overflow)
    assert cli.run(argv) == 3
    assert "half" in capsys.readouterr().err


def test_infeasible_budget_exits_1(tmp_path, capsys):
    raw = tmp_path / "c.raw"
    save_cube(synth_cube("random", 4, 4, 2, seed=4), raw)
    assert cli.run(["search", "--input", str(raw), "--budget-bpppb", "1e-9"]) == 1
    assert "fits" in capsys.readouterr().err


def test_synth_fails_before_writing(tmp_path, capsys):
    # save_cube writes r.raw and then r.hdr; a blocked sidecar must stop
    # synth before r.raw exists
    (tmp_path / "r.hdr").mkdir()
    out = tmp_path / "r.raw"
    assert cli.run(["synth", "--kind", "random", "--dims", "4x4x2", "--out", str(out)]) == 2
    assert "r.hdr: it is a directory" in capsys.readouterr().err
    assert not out.exists()
    # a data file named *.hdr is its own sidecar: the header would replace
    # the samples
    out = tmp_path / "s.hdr"
    assert cli.run(["synth", "--kind", "random", "--dims", "4x4x2", "--out", str(out)]) == 2
    assert "s.hdr: the --out .hdr is the same file as --out" in capsys.readouterr().err
    assert not out.exists()


def test_synth_writes_loadable_cube(tmp_path, capsys):
    out = tmp_path / "s.raw"
    assert cli.run(["synth", "--kind", "band-sinusoid", "--dims", "6x5x3",
                    "--seed", "2", "--out", str(out)]) == 0
    capsys.readouterr()
    cube = open_cube(out)
    assert (cube.width, cube.height, cube.bands) == (6, 5, 3)
    direct = synth_cube("band-sinusoid", 6, 5, 3, seed=2)
    assert np.array_equal(cube.data, direct.data)
