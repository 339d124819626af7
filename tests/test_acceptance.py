"""End-to-end acceptance gate.

One test per release criterion; each prints a PASS line with its timing so
the gate can be audited from the pytest -s output.
"""
import json
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from scipy.integrate import quad

from spindisk import (
    CHSHSettings,
    MIN_L2_DISTANCE,
    chsh,
    chsh_scan,
    empirical_correlation,
    exact_correlation,
    first_harmonic_bound_check,
    lattice_correlation,
    lift_to_continuous,
    mixture_correlation,
    optimise_fixed_k,
    optimise_mixture,
    quantum_correlation,
    run_experiment,
    spectrum,
    triangle_colouring,
)
from spindisk.cli import main as cli_main
from spindisk.lattice import LatticeColouring
from spindisk.montecarlo import classical_outcomes, quantum_outcomes
from spindisk.spectral import gull_diagnostic, pl_cosine_coeffs

from conftest import random_colouring, random_mixture

PI = math.pi
TWO_PI = 2 * math.pi


def _report(name, elapsed, limit, detail=""):
    print(f"ACCEPTANCE {name}: PASS ({elapsed:.2f}s < {limit}s) {detail}")
    assert elapsed < limit


def test_criterion_01_certainty_relations():
    t0 = time.time()
    rng = np.random.default_rng(1)
    for i in range(200):
        if i % 2 == 0:
            pl = exact_correlation(random_colouring(rng, int(rng.choice([0, 2, 4, 6]))))
        else:
            pl = mixture_correlation(random_mixture(rng))
        assert abs(pl.evaluate(0.0) + 1.0) <= 1e-12
        assert abs(pl.evaluate(PI) - 1.0) <= 1e-12
    model = random_mixture(rng)
    alpha = rng.uniform(0, TWO_PI)
    a, b = classical_outcomes(
        model, np.array([alpha]), np.array([alpha]), np.zeros(10_000, np.intp), rng
    )
    assert np.all(a == -b), "equal settings must give opposite outcomes in every run"
    _report("1 certainty relations", time.time() - t0, 10)


def test_criterion_02_triangle_wave():
    t0 = time.time()
    pl = exact_correlation(triangle_colouring())
    g = np.linspace(0.0, PI, 721)
    assert np.max(np.abs(pl.sample(g) - (2 * g / PI - 1.0))) <= 1e-12
    _report("2 triangle wave", time.time() - t0, 1)


def test_criterion_03_quantum_reference():
    t0 = time.time()
    rng = np.random.default_rng(3)
    n = 10**6
    deltas = TWO_PI * np.arange(8) / 8 + 0.1
    for delta in deltas:
        a, b = quantum_outcomes(np.zeros(1), np.array([delta]), np.zeros(n, np.intp), rng)
        est = float(np.mean(a * b))
        assert abs(est - (-math.cos(delta))) < 0.005, f"delta={delta}"
    _report("3 quantum reference", time.time() - t0, 30)


def test_criterion_04_montecarlo_vs_exact():
    t0 = time.time()
    rng = np.random.default_rng(4)
    n = 10**5
    tol = 4 / math.sqrt(n)
    for i in range(20):
        c = random_colouring(rng, int(rng.choice([2, 4, 6])))
        pl = exact_correlation(c)
        betas = rng.uniform(0, TWO_PI, 8)
        a, b = classical_outcomes(c, np.zeros(8), betas, np.repeat(np.arange(8), n), rng)
        prods = (a * b).reshape(8, n)
        for beta, est in zip(betas, prods.mean(axis=1)):
            assert abs(est - pl.evaluate(beta)) < tol, f"model {i}, beta={beta}"
    _report("4 Monte Carlo vs exact", time.time() - t0, 120)


def test_criterion_05_lattice_oracle():
    t0 = time.time()
    rng = np.random.default_rng(5)
    d = np.arange(720)
    for _ in range(50):
        k = int(rng.choice([0, 2, 4, 6, 8]))
        idx = np.sort(rng.choice(np.arange(1, 360), size=k, replace=False))
        lc = LatticeColouring(720, tuple(int(j) for j in idx))
        rho = lattice_correlation(lc)
        pl = exact_correlation(lift_to_continuous(lc))
        assert np.max(np.abs(pl.sample(TWO_PI * d / 720) - rho)) <= 1e-12
    _report("5 lattice oracle equivalence", time.time() - t0, 60)


def test_criterion_06_wiener_khinchin():
    t0 = time.time()
    rng = np.random.default_rng(6)
    for _ in range(50):
        c = random_colouring(rng, int(rng.choice([0, 2, 4, 6])))
        via_power = spectrum(c, 25).cosine_coeffs
        via_curve = pl_cosine_coeffs(exact_correlation(c), 25)
        assert np.max(np.abs(via_power - via_curve)) <= 1e-10
        assert np.max(np.abs(via_power[0::2])) <= 1e-12
    _report("6 Wiener-Khinchin", time.time() - t0, 60)


def test_criterion_07_gull_impossibility():
    t0 = time.time()
    rng = np.random.default_rng(7)
    for i in range(1000):
        if i % 3 == 0:
            model = random_mixture(rng)
        else:
            model = random_colouring(rng, int(rng.choice([0, 2, 4, 6])))
        s = spectrum(model, 25)
        report = gull_diagnostic(s)
        assert report.nonzero_count >= 2, "classical model with < 2 harmonics"
        check = first_harmonic_bound_check(s)
        assert check.a1 >= check.bound - 1e-12
    _report("7 Gull impossibility", time.time() - t0, 120)


def test_criterion_08_chsh_bound():
    t0 = time.time()
    rng = np.random.default_rng(8)
    for _ in range(100):
        pl = mixture_correlation(random_mixture(rng))
        max_s, _ = chsh_scan(pl, PI / 90)
        assert max_s <= 2.0 + 1e-9
    tri = exact_correlation(triangle_colouring())
    canonical = CHSHSettings(0.0, PI / 2, PI / 4, 3 * PI / 4)
    assert abs(chsh(tri, canonical)) == pytest.approx(2.0, abs=1e-12)
    max_q, _ = chsh_scan(quantum_correlation, PI / 90)
    assert max_q >= 2 * math.sqrt(2) - 1e-3
    _report("8 CHSH bound", time.time() - t0, 300)


def test_criterion_09_optimizer_sanity():
    t0 = time.time()
    oracle_sq, _ = quad(
        lambda g: (2 * g / PI - 1 + math.cos(g)) ** 2, 0.0, PI, limit=200
    )
    oracle = math.sqrt(2 * oracle_sq / TWO_PI)

    res0 = optimise_fixed_k(0, metric="L2")
    assert abs(res0.distance - oracle) < 1e-6

    res_mix = optimise_mixture(
        [0, 2, 4], n_iterations=50, seed=9, subproblem_starts=32
    )
    assert res_mix.distance <= 0.150945 + 1e-6
    assert res_mix.distance >= 0.133966
    vals = [v for _, v in res_mix.trace]
    assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))

    improvement = res0.distance - res_mix.distance
    detail = (
        f"D_triangle={res0.distance:.9f} D_mixture={res_mix.distance:.9f} "
        f"strict improvement found: {improvement > 1e-9} (delta={improvement:.3e})"
    )
    _report("9 optimizer sanity", time.time() - t0, 600, detail)


def test_criterion_10_demo_figure(tmp_path):
    t0 = time.time()
    outdir = str(tmp_path / "panels")
    result = CliRunner().invoke(
        cli_main, ["demo-figure", "--outdir", outdir, "--seed", "10", "--grid", "721"]
    )
    assert result.exit_code == 0
    files = sorted(os.listdir(outdir))
    assert len(files) == 12
    for name in files:
        rows = [
            line.split(",")
            for line in Path(outdir, name).read_text().splitlines()
            if not line.startswith(("#", "gamma"))
        ]
        data = np.array(rows, dtype=float)
        rho = data[:, 1]
        assert np.all(np.abs(rho) <= 1.0 + 1e-12)
        assert abs(rho[0] + 1.0) <= 1e-12
        assert abs(rho[360] - 1.0) <= 1e-9  # gamma = pi
        assert np.max(np.abs(rho[1:-1] - rho[-2:0:-1])) <= 1e-9  # evenness
        assert np.max(np.abs(rho[360:] + rho[:361])) <= 1e-9  # antiperiodicity
    _report("10 demo figure", time.time() - t0, 10)
