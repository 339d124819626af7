"""Tests of the benchmark itself: tiny runs pass, corrupted outputs fail.

Run from the repository root with

    python -m pytest -q bench/test_bench.py

They are not part of the package test suite (pytest collects `tests/` by
default) and assert nothing about timings.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run._prepare_imports()

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from click.testing import CliRunner  # noqa: E402

from spindisk.circle import new_colouring  # noqa: E402
from spindisk.cli import main as cli  # noqa: E402
from spindisk.correlation import exact_correlation, l2_distance_to_cosine  # noqa: E402


BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _declared(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


def _printed(result: dict) -> dict[str, str]:
    return {name: m["unit"] for name, m in result["metrics"].items()}


@pytest.fixture
def in_tmp(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path / "out")
    monkeypatch.chdir(tmp_path)
    return tmp_path


def _tiny(workload, trace=False, seed=3):
    return run.run_workload(workload, seed, 0.0, trace, tiny=True, probes=0)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_passes_its_checks(in_tmp, workload):
    result, record = _tiny(workload)
    assert result["correct"], record["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert _printed(result) == _declared("end_to_end")


def test_inputs_and_outputs_repeat_for_a_seed(in_tmp):
    _, first = _tiny("analyse")
    _, second = _tiny("analyse")
    _, other = _tiny("analyse", seed=4)
    assert first["input_digest"] == second["input_digest"] != other["input_digest"]
    assert first["output_digest"] == second["output_digest"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_reports_every_layer_metric(in_tmp, workload):
    result, record = _tiny(workload, trace=True)
    assert result["correct"], record["failures"]
    assert _printed(result) == _declared("per_layer")
    assert result["metrics"]["layer_share_total"]["value"] > 0.5
    again, _ = _tiny(workload, trace=True)
    for key in ("cli.bytes_out", "optimize.objective_evals", "correlation.curve.calls"):
        assert again["metrics"][key] == result["metrics"][key]


def test_tracer_uninstall_restores_the_package():
    import spindisk.cli
    import spindisk.correlation

    before = (spindisk.correlation.exact_correlation, spindisk.cli.mixture_correlation,
              spindisk.cli.main.commands["corr"].callback)
    tracer = tracing.Tracer()
    tracer.install()
    assert spindisk.cli.mixture_correlation is not before[1]
    tracer.uninstall()
    after = (spindisk.correlation.exact_correlation, spindisk.cli.mixture_correlation,
             spindisk.cli.main.commands["corr"].callback)
    assert after == before


def test_self_time_subtracts_children():
    tracer = tracing.Tracer()
    tracer.spans[:] = [["cli", 0.0, 10.0, -1, 0], ["bell", 1.0, 4.0, 0, 0],
                       ["correlation.curve", 2.0, 3.0, 1, 0]]
    m = tracer.layer_metrics(10.0)
    assert m["cli.self_s"] == 7.0 and m["bell.self_s"] == 2.0
    assert m["correlation.curve.self_s"] == 1.0
    assert m["layer_share_total"] == 1.0


def test_latencies_are_scaled_by_the_reference_loops_around_them():
    ref = run.REF_NOMINAL_S
    # the machine runs at nominal speed for three items, then at half speed
    phase = run.Phase([], [1.0] * 6, 6.0, [3, 3], [ref] * 3 + [2 * ref] * 3)
    scaled = phase.scaled_latencies()
    assert scaled == [1.0, 1.0, 1.0, 0.5, 0.5, 0.5]
    assert phase.block_rates(scaled) == [1.0, 2.0]
    assert phase.block_rates(phase.latencies) == [1.0, 1.0]


def _item_outputs(item):
    runner = CliRunner()
    outputs, error = run._run_item(runner.invoke, cli, item)
    assert error is None
    return outputs


def _first(workload, kind, tmp_path):
    inputs = workloads.generate(workload, 5, str(tmp_path), tiny=True)
    return next(it for it in inputs.blocks[0] if it.kind == kind)


def _data_rows(lines: list[str]) -> list[int]:
    return [i for i, ln in enumerate(lines) if ln[:1].isdigit() or ln[:1] == "-"]


def _csv_field(text: str, row: int, col: int) -> str:
    lines = text.splitlines()
    return lines[_data_rows(lines)[row]].split(",")[col]


def _replace_csv_value(text: str, row: int, col: int, value: str) -> str:
    lines = text.splitlines(keepends=True)
    i = _data_rows(lines)[row]
    fields = lines[i].rstrip("\n").split(",")
    fields[col] = value
    lines[i] = ",".join(fields) + "\n"
    return "".join(lines)


def test_flipped_rho_value_fails(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    item = _first("analyse", "small", tmp_path)
    outputs = _item_outputs(item)
    assert checks.check_analyse(item, outputs) is None
    corr = outputs[0].decode()
    rho = float(_csv_field(corr, 220, 1))
    bad = _replace_csv_value(corr, 220, 1, repr(-rho if abs(rho) > 1e-6 else 0.5))
    assert checks.check_analyse(item, [bad.encode(), *outputs[1:]]) is not None


def test_lattice_oracle_catches_a_shifted_curve(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    item = _first("analyse", "small_lattice", tmp_path)
    outputs = _item_outputs(item)
    assert checks.check_analyse(item, outputs) is None
    item.meta["lattice"] = [j + 1 for j in item.meta["lattice"]]
    assert "lattice" in checks.check_analyse(item, outputs)


def test_altered_count_fails(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    item = _first("simulate", "classical", tmp_path)
    outputs = _item_outputs(item)
    assert checks.check_simulate(item, outputs) is None
    text = outputs[0].decode()
    n = int(_csv_field(text, 3, 2))
    bad = _replace_csv_value(text, 3, 2, str(n + 1))
    assert "sum" in checks.check_simulate(item, [bad.encode()])


def test_altered_distance_and_rising_trace_fail(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    item = _first("optimise", "l2_k2", tmp_path)
    outputs = _item_outputs(item)
    assert checks.check_optimise(item, outputs) is None
    payload = json.loads(outputs[0])
    payload["distance"] += 1e-6
    assert checks.check_optimise(item, [json.dumps(payload).encode()]) is not None
    payload = json.loads(outputs[0])
    payload["trace"].append([99, payload["trace"][-1][1] + 1e-3])
    assert "trace" in checks.check_optimise(item, [json.dumps(payload).encode()])


def test_monotone_check(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    item = workloads.Item(0, "monotone_k2", [["optimize", "--k", "2", "--monotone", "--seed", "0"]])
    outputs = _item_outputs(item)
    assert checks.check_optimise(item, outputs) is None
    # a k=2 colouring with a short middle segment oscillates on (0, pi)
    theta = [0.3, 0.35]
    payload = json.loads(outputs[0])
    payload["model"] = {"theta": theta}
    payload["distance"] = l2_distance_to_cosine(exact_correlation(new_colouring(theta)))
    reason = checks.check_optimise(item, [json.dumps(payload).encode()])
    assert reason is not None and "monotone" in reason


def test_no_sources_exits_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "analyse", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
