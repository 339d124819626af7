import gc
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import spindisk
from spindisk.cli import main

PI = math.pi


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def model_file(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"theta": [0.5, 1.0, 1.5, 2.0]}))
    return str(path)


@pytest.fixture
def triangle_file(tmp_path):
    path = tmp_path / "triangle.json"
    path.write_text(json.dumps({"theta": []}))
    return str(path)


def parse_curve(text):
    rows = [
        line.split(",")
        for line in text.splitlines()
        if line and (line[0].isdigit() or line[0] == "-")
    ]
    return np.array(rows, dtype=float)


class TestCorr:
    def test_triangle_rho_equals_reference(self, runner, triangle_file):
        result = runner.invoke(main, ["corr", triangle_file, "--grid", "181"])
        assert result.exit_code == 0
        data = parse_curve(result.output)
        assert np.max(np.abs(data[:, 1] - data[:, 3])) < 1e-12

    def test_starts_at_minus_one(self, runner, model_file):
        result = runner.invoke(main, ["corr", model_file])
        data = parse_curve(result.output)
        assert data[0, 1] == -1.0

    def test_matches_library(self, runner, model_file):
        from spindisk import exact_correlation, new_colouring

        result = runner.invoke(main, ["corr", model_file, "--grid", "721"])
        data = parse_curve(result.output)
        pl = exact_correlation(new_colouring([0.5, 1.0, 1.5, 2.0]))
        assert np.max(np.abs(pl.sample(data[:, 0]) - data[:, 1])) < 1e-12

    def test_writes_file_with_header(self, runner, model_file, tmp_path):
        out = str(tmp_path / "curve.csv")
        result = runner.invoke(main, ["corr", model_file, "--out", out])
        assert result.exit_code == 0
        text = Path(out).read_text()
        assert text.startswith("# spindisk")

    @pytest.mark.parametrize("umask", [0o022, 0o027], ids=["022", "027"])
    def test_out_file_mode_follows_umask(self, runner, model_file, tmp_path, umask):
        out = tmp_path / "curve.csv"
        old = os.umask(umask)
        try:
            result = runner.invoke(main, ["corr", model_file, "--grid", "5", "--out", str(out)])
        finally:
            os.umask(old)
        assert result.exit_code == 0
        assert out.stat().st_mode & 0o777 == 0o666 & ~umask

    def test_parse_error_exit_code(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        result = runner.invoke(main, ["corr", str(bad)])
        assert result.exit_code == 2
        assert "error:" in result.output or "error:" in (result.stderr or "")


class TestDemoFigure:
    def test_default_panel_count(self, runner, tmp_path):
        outdir = str(tmp_path / "panels")
        result = runner.invoke(main, ["demo-figure", "--outdir", outdir, "--grid", "181"])
        assert result.exit_code == 0
        files = sorted(os.listdir(outdir))
        assert len(files) == 12

    def test_panels_satisfy_invariants(self, runner, tmp_path):
        outdir = str(tmp_path / "panels")
        runner.invoke(main, ["demo-figure", "--outdir", outdir, "--panels", "3", "--grid", "721"])
        for name in sorted(os.listdir(outdir)):
            data = parse_curve(Path(outdir, name).read_text())
            rho = data[:, 1]
            assert np.all(np.abs(rho) <= 1 + 1e-12)
            assert rho[0] == pytest.approx(-1, abs=1e-12)
            assert rho[360] == pytest.approx(1, abs=1e-12)  # gamma = pi
            assert np.max(np.abs(rho[1:-1] - rho[-2:0:-1])) < 1e-9  # evenness

    def test_nswitch_zero_gives_triangles(self, runner, tmp_path):
        outdir = str(tmp_path / "panels")
        runner.invoke(
            main,
            ["demo-figure", "--outdir", outdir, "--nswitch", "0", "--panels", "2", "--grid", "181"],
        )
        d1 = parse_curve(Path(outdir, "panel_01.csv").read_text())
        d2 = parse_curve(Path(outdir, "panel_02.csv").read_text())
        assert np.array_equal(d1[:, 1], d2[:, 1])
        assert np.max(np.abs(d1[:, 1] - d1[:, 3])) < 1e-12

    def test_deterministic_per_seed(self, runner, tmp_path):
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        for out in (out1, out2):
            runner.invoke(
                main,
                ["demo-figure", "--outdir", out, "--panels", "2", "--seed", "5", "--grid", "91"],
            )
        assert Path(out1, "panel_02.csv").read_text() == Path(out2, "panel_02.csv").read_text()

    def test_odd_nswitch_rejected(self, runner, tmp_path):
        result = runner.invoke(main, ["demo-figure", "--nswitch", "3", "--outdir", str(tmp_path)])
        assert result.exit_code == 2


class TestSim:
    def test_quantum_certainty(self, runner):
        result = runner.invoke(
            main, ["sim", "--quantum", "--alpha", "0", "--beta", "0", "--runs", "1000"]
        )
        assert result.exit_code == 0
        data = [l for l in result.output.splitlines() if not l.startswith(("#", "alpha"))]
        _, _, npp, npm, nmp, nmm, corr, _ = data[0].split(",")
        assert npp == "0" and nmm == "0"
        assert float(corr) == -1.0

    def test_deterministic(self, runner, model_file):
        args = ["sim", model_file, "--grid", "4", "--runs", "2000", "--seed", "8"]
        r1 = runner.invoke(main, args)
        r2 = runner.invoke(main, args)
        assert r1.output == r2.output

    def test_requires_model_or_quantum(self, runner):
        result = runner.invoke(main, ["sim", "--runs", "10"])
        assert result.exit_code == 2


class TestSpectrum:
    def test_triangle_a1(self, runner, triangle_file, tmp_path):
        out = str(tmp_path / "spec.csv")
        rep = str(tmp_path / "report.json")
        result = runner.invoke(
            main, ["spectrum", triangle_file, "--nmax", "9", "--out", out, "--report", rep]
        )
        assert result.exit_code == 0
        data = parse_curve(Path(out).read_text())
        assert data[1, 3] == pytest.approx(-8 / PI**2, abs=1e-12)
        assert np.max(np.abs(data[2::2, 3])) < 1e-12
        report = json.loads(Path(rep).read_text())
        assert report["gull"]["nonzero_count"] >= 2
        assert report["first_harmonic"]["holds"] is True


class TestOptimize:
    def test_k0(self, runner):
        result = runner.invoke(main, ["optimize", "--k", "0"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["distance"] == pytest.approx(math.sqrt(5 / 6 - 8 / PI**2), abs=1e-9)
        assert payload["model"]["components"][0]["theta"] == []

    def test_monotone_k0(self, runner):
        result = runner.invoke(main, ["optimize", "--k", "0", "--monotone"])
        payload = json.loads(result.output)
        assert payload["constraint"] == "monotone"

    def test_k_and_pool_conflict(self, runner):
        result = runner.invoke(main, ["optimize", "--k", "0", "--pool", "0,2"])
        assert result.exit_code == 2


class TestChsh:
    def test_triangle(self, runner, triangle_file):
        result = runner.invoke(main, ["chsh", triangle_file, "--scan-step", str(PI / 180)])
        payload = json.loads(result.output)
        assert payload["max_abs_S"] == pytest.approx(2.0, abs=1e-9)

    def test_quantum(self, runner):
        result = runner.invoke(main, ["chsh", "--quantum", "--scan-step", str(PI / 90)])
        payload = json.loads(result.output)
        assert payload["max_abs_S"] >= 2 * math.sqrt(2) - 1e-3


@pytest.mark.parametrize("args", [
    ["chsh", "--quantum", "--scan-step", "0"],
    ["chsh", "--quantum", "--scan-step", "-1"],
    ["sim", "--quantum", "--runs", "0"],
    ["sim", "--quantum", "--grid", "4", "--alpha", "0.5"],
    ["sim", "MODEL", "--grid", "4", "--beta", "0"],
    ["sim", "MODEL", "--alpha", "nan"],
    ["sim", "--quantum", "--beta", "inf"],
    ["spectrum", "MODEL", "--nmax", "0"],
    ["spectrum", "MODEL", "--nmax", "-1"],
    ["optimize", "--pool", "0,x"],
    ["optimize", "--pool", "0,2", "--iterations", "0"],
    ["optimize", "--pool", "0,2", "--metric", "sup"],
    ["optimize", "--pool", "0,2", "--starts", "0"],
    ["optimize", "--k", "2", "--starts", "0"],
    ["optimize", "--k", "2", "--starts", "-3"],
    ["optimize", "--k", "2", "--monotone", "--starts", "0"],
    ["corr", "MODEL", "--grid", "0"],
    ["corr", "MODEL", "--grid", "-1"],
    ["demo-figure", "--grid", "0", "--outdir", "DIR"],
    ["optimize", "--pool", ""],
    ["optimize", "--pool", " , "],
    ["sim", "--quantum", "--seed", "-1"],
    ["optimize", "--k", "2", "--seed", "-1"],
    ["demo-figure", "--seed", "-1", "--outdir", "DIR"],
])
def test_invalid_flag_exits_2_with_one_error_line(runner, model_file, tmp_path, args):
    placeholders = {"MODEL": model_file, "DIR": str(tmp_path / "panels")}
    result = runner.invoke(main, [placeholders.get(a, a) for a in args])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.startswith("error: ValidationError: ")
    assert result.stderr.count("\n") == 1


@pytest.mark.parametrize("content", [
    b'{"theta": ["x"]}',
    b'{"theta": 5}',
    b'{"components": [{"theta": []}]}',
    b'{"components": "x"}',
    b'{"components": [{"w": NaN, "theta": []}]}',
    b"\xff\xfe",
    b"[" * 100_000 + b"]" * 100_000,
])
def test_malformed_model_file_exits_2_with_one_error_line(runner, tmp_path, content):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    result = runner.invoke(main, ["corr", str(path)])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.startswith("error: ValidationError: ")
    assert result.stderr.count("\n") == 1


def _traced_growth(invoke, times):
    invoke()  # first-call caches
    gc.collect()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        for _ in range(times):
            invoke()
        gc.collect()
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return after - before


def test_discarded_invocations_do_not_keep_their_output(model_file, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")

    def corr(path, status):
        def invoke():
            assert CliRunner().invoke(main, ["corr", path]).exit_code == status
        return invoke

    # A kept stream holds its output twice: ~120 KB per corr output, and
    # ~1.7 KB per error line with its stream's buffers.
    assert _traced_growth(corr(model_file, 0), 50) < 2**20
    assert _traced_growth(corr(str(bad), 2), 200) < 100 * 2**10


def test_cli_import_loads_no_scipy():
    # scipy is imported only when an optimiser runs: with it, the import's RSS was 78 MB, not 29
    code = "import sys, spindisk.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    src = os.path.dirname(os.path.dirname(spindisk.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert result.stdout == "[]\n"
