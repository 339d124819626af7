"""Seed reproducibility: `sim` output bytes pinned per seed.

Each case's SHA-256 was recorded from the mask-per-pair tabulation and the
per-component colour loop that the index-based Monte Carlo replaced.  Any
change to the random stream, the count table or the output format shows
up here as a changed digest.
"""
import hashlib
import json
import math

import pytest
from click.testing import CliRunner

from spindisk import GridSampler, Mixture, UniformSampler, new_colouring, run_experiment
from spindisk.cli import main

PI = math.pi

COLOURING = {"theta": [0.5, 1.0, 1.5, 2.0]}
MIXTURE = {
    "components": [
        {"w": 0.5, "theta": []},
        {"w": 0.3, "theta": [0.4, 2.2]},
        {"w": 0.2, "theta": [PI * j / 720 for j in (100, 250, 400, 600)]},
    ]
}

SIM_CASES = {
    "colouring_grid16": (
        COLOURING, ["--grid", "16", "--runs", "50000", "--seed", "3"],
        "2156596d55520666c8932039eb045d587a44d3c32900227800c7bb573566eeed",
    ),
    "mixture_grid16": (
        MIXTURE, ["--grid", "16", "--runs", "200000", "--seed", "4"],
        "8d561bf4af766b43f3dce3f2a3395f2d7cf2ef004da28a1492fff30596fdf3cf",
    ),
    "quantum_grid16": (
        None, ["--quantum", "--grid", "16", "--runs", "50000", "--seed", "5"],
        "d9412d9e0315d74b20eabeabf15acd4dcacb40a16d8e871a9267f1b7853e4b87",
    ),
    "fixed_pair": (
        MIXTURE, ["--alpha", "0.3", "--beta", "1.1", "--runs", "20000", "--seed", "6"],
        "eebafa9d219a27ff2ec4d3b86fe05787007f03028f02d5152a36566fab8dcca1",
    ),
    "sparse_grid4": (
        COLOURING, ["--grid", "4", "--runs", "3", "--seed", "2"],
        "0582aec556fe9146fbe44da6096ff54093f25678cb0cc5ca5e75b4a4eb892577",
    ),
}

#: Recorded from the sharded run_experiment at its default of one shard.
SHARDED_DIGEST = "00c4204fa1eebcd6ce6107e2be15f78ac2f9dfbc0f9d1fa6f5b258390ef9009b"

#: UniformSampler tables of 10_001 runs (MIXTURE at seed 12, quantum at seed
#: 13), recorded from the whole-array run_experiment before the blocked one.
UNIFORM_DIGESTS = {
    "mixture": (12, "801a1c8a8d5cf2246b0ec4951bb57ad2673a11a63172c9202cd8b9fcf24d88b0"),
    "quantum": (13, "5bfdb651fa5c3133774ccbae4fe66f284f3d17dadc7ec706379417019ca98deb"),
}


def _sim_stdout(tmp_path, monkeypatch, model, args) -> bytes:
    monkeypatch.chdir(tmp_path)  # the header names the model file; keep it relative
    cmd = ["sim"]
    if model is not None:
        (tmp_path / "model.json").write_text(json.dumps(model))
        cmd.append("model.json")
    result = CliRunner().invoke(main, cmd + args)
    assert result.exit_code == 0, result.output
    return result.stdout_bytes


@pytest.mark.parametrize("case", sorted(SIM_CASES))
def test_sim_stdout_digest(case, tmp_path, monkeypatch):
    model, args, digest = SIM_CASES[case]
    out = _sim_stdout(tmp_path, monkeypatch, model, args)
    assert hashlib.sha256(out).hexdigest() == digest


def test_sparse_grid_omits_pairs_without_runs(tmp_path, monkeypatch):
    model, args, _ = SIM_CASES["sparse_grid4"]
    out = _sim_stdout(tmp_path, monkeypatch, model, args).decode()
    rows = [line for line in out.splitlines() if line[0].isdigit()]
    assert 1 <= len(rows) < 4
    assert sum(sum(int(x) for x in row.split(",")[2:6]) for row in rows) == 3


def test_sharded_table_digest():
    model = Mixture(tuple(
        (c["w"], new_colouring(c["theta"])) for c in MIXTURE["components"]
    ))
    sampler = GridSampler([(0.0, 2 * PI * j / 8) for j in range(8)] + [(0.0, 0.0)])
    table = run_experiment(model=model, sampler=sampler, n_runs=10_001, seed=9)
    rows = [[alpha, beta, *(int(x) for x in table.counts[(alpha, beta)])]
            for alpha, beta in table.pairs()]
    assert table.n_runs() == 10_001
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == SHARDED_DIGEST


@pytest.mark.parametrize("case", sorted(UNIFORM_DIGESTS))
def test_uniform_sampler_table_digest(case):
    seed, digest = UNIFORM_DIGESTS[case]
    model = None
    if case == "mixture":
        model = Mixture(tuple((c["w"], new_colouring(c["theta"])) for c in MIXTURE["components"]))
    table = run_experiment(model, sampler=UniformSampler(), n_runs=10_001, seed=seed)
    rows = [[alpha, beta, *(int(x) for x in table.counts[(alpha, beta)])]
            for alpha, beta in table.pairs()]
    assert table.n_runs() == 10_001 and len(rows) == 360
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == digest
