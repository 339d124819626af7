import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from spindisk import (
    CountTable,
    GridSampler,
    InvalidSampler,
    UniformSampler,
    empirical_correlation,
    exact_correlation,
    new_colouring,
    run_experiment,
    triangle_colouring,
)
from spindisk.circle import ANGLE_TOL, Mixture
from spindisk.montecarlo import _BINS_PER_SWITCH, _RUN_BLOCK, classical_outcomes, quantum_outcomes

from colour_oracle import concatenated_classical_outcomes, masked_classical_outcomes
from conftest import mixtures, random_colouring, random_mixture
from experiment_oracle import whole_array_run_experiment

PI = math.pi
TWO_PI = 2 * math.pi
B = _RUN_BLOCK


def _at(alpha, beta, n):
    """One setting pair read by all n runs: (alphas, betas, pair_idx)."""
    return np.array([alpha]), np.array([beta]), np.zeros(n, np.intp)


class TestClassicalRun:
    def test_equal_settings_always_opposite(self, rng):
        model = random_mixture(rng)
        alpha = rng.uniform(0, 2 * PI)
        a, b = classical_outcomes(model, *_at(alpha, alpha, 10_000), rng)
        assert np.all(a == -b)

    def test_opposed_settings_always_equal(self, rng):
        model = random_mixture(rng)
        alpha = rng.uniform(0, PI)
        a, b = classical_outcomes(model, *_at(alpha, alpha + PI, 10_000), rng)
        assert np.all(a == b)

    def test_triangle_at_right_angle_uncorrelated(self, rng):
        n = 10**6
        a, b = classical_outcomes(triangle_colouring(), *_at(0.0, PI / 2, n), rng)
        assert abs(np.mean(a * b)) < 4 / math.sqrt(n)

    def test_marginal_fairness(self, rng):
        n = 10**5
        model = random_mixture(rng)
        a, _ = classical_outcomes(model, *_at(1.3, 0.2, n), rng)
        assert abs(np.mean(a)) < 4 / math.sqrt(n)


class TestColourLookup:
    @settings(max_examples=150, deadline=None)
    @given(mixtures(max_k=16), st.integers(0, 2**32 - 1), st.booleans(),
           st.sampled_from([2000, B + 1]))
    @example(model=Mixture(((0.6, triangle_colouring()), (0.4, new_colouring([0.4, 2.2])))),
             seed=11, on_lattice=True, n_runs=B + 1)
    def test_matches_masked_oracle(self, model, seed, on_lattice, n_runs):
        setting_rng = np.random.default_rng(seed)
        if on_lattice:
            alphas, betas = TWO_PI * setting_rng.integers(720, size=(2, n_runs)) / 720
        else:
            alphas, betas = setting_rng.uniform(0.0, TWO_PI, size=(2, n_runs))
        rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        a, b = classical_outcomes(model, alphas, betas, np.arange(n_runs), rng)
        a_ref, b_ref = masked_classical_outcomes(model, alphas, betas, oracle_rng)
        assert np.array_equal(a, a_ref) and np.array_equal(b, b_ref)
        assert rng.random() == oracle_rng.random()  # same draws consumed


def _nudged(s):
    """s and its neighbouring floats on either side."""
    return (s, np.nextafter(s, -np.inf), np.nextafter(s, np.inf))


def _pick_colouring(candidates, k, rng):
    """A colouring with k switches: valid candidates first, random fill after."""
    chosen = []
    for s in (*candidates, *rng.uniform(0.01, PI - 0.01, 4 * k + 8)):
        if len(chosen) == k:
            break
        if 2 * ANGLE_TOL < s < PI - 2 * ANGLE_TOL and all(abs(s - t) > 2 * ANGLE_TOL for t in chosen):
            chosen.append(float(s))
    assert len(chosen) == k
    return new_colouring(chosen)


def _half_turn(r):
    """The switch angle in (0, pi) whose full switch set holds angle r."""
    return r - PI if r >= PI else r


def _settings(mode, u, edges, rng):
    """One station's settings; `edges` holds each run's bin-edge targets."""
    n = u.size
    if mode == "lattice":
        return TWO_PI * rng.integers(720, size=n) / 720
    if mode == "outside":
        x = rng.uniform(-20.0, 20.0, n)
        special = [TWO_PI, -TWO_PI, -0.0, 7.0, -1e-300]
        x[: min(n, 5)] = special[: min(n, 5)]
        return rng.permutation(x)
    x = rng.uniform(0.0, TWO_PI, n)
    if mode == "targeted":
        # component boundaries: x - u is 0 (q = 2*pi*c) or one ulp below 0
        # (read as 2*pi); then queries a few ulps from bin edges
        kind = rng.integers(4, size=n)
        x = np.where(kind == 1, u, x)
        x = np.where((kind == 2) & (u > 0), np.nextafter(u, -np.inf), x)
        t = np.array([rng.choice(e) for e in edges]) if n else np.empty(0)
        shifted = u + t
        shifted = np.where(shifted >= TWO_PI, shifted - TWO_PI, shifted)
        x = np.where(kind == 3, shifted, x)
    return x


class TestBinTableLookup:
    """The bin-table lookup is bit for bit the concatenated searchsorted."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([1, 2, 3, 8, 40, 200]),
        st.integers(0, 400),
        st.sampled_from(["uniform", "lattice", "targeted", "outside"]),
        st.sampled_from(["uniform", "lattice", "targeted", "outside"]),
    )
    @example(seed=7, n_comp=3, n_runs=B + 1, alpha_mode="targeted", beta_mode="outside")
    @example(seed=8, n_comp=200, n_runs=2 * B + 5, alpha_mode="targeted", beta_mode="targeted")
    def test_matches_concatenated_oracle(self, seed, n_comp, n_runs, alpha_mode, beta_mode):
        data = np.random.default_rng(seed)
        weights = data.uniform(0.05, 1.0, n_comp)
        weights = (weights / weights.sum()).tolist()
        ks = 2 * data.integers(0, 9 if n_comp <= 8 else 3, size=n_comp)
        # the library's bins: edges at b / scale, b an integer
        scale = _BINS_PER_SWITCH * int(np.sum(2 * ks + 2)) / (TWO_PI * n_comp)
        edges = []
        for c in range(n_comp):
            lo, hi = math.ceil(TWO_PI * c * scale), math.floor(TWO_PI * (c + 1) * scale)
            local = data.integers(lo, hi, size=3) / scale - TWO_PI * c
            edges.append([v for e in local for v in _nudged(e)])

        # replay the library's draws: the rotation, then the component
        replay = np.random.default_rng(seed + 1)
        u = replay.uniform(0.0, TWO_PI, n_runs)
        w = np.array(weights)
        comp = (replay.choice(n_comp, size=n_runs, p=w / w.sum())
                if n_comp > 1 else np.zeros(n_runs, dtype=int))
        run_edges = [edges[c] for c in comp]
        alphas = _settings(alpha_mode, u, run_edges, data)
        betas = _settings(beta_mode, u, run_edges, data)

        # switches exactly at some queries, one ulp either side, and on bin edges
        candidates = [[_half_turn(e) for e in edges[c]] for c in range(n_comp)]
        for x in (alphas, betas):
            r = np.remainder(x - u, TWO_PI)
            for i in data.permutation(n_runs)[: 2 * n_comp]:
                candidates[comp[i]][:0] = _nudged(_half_turn(r[i]))
        for c in range(n_comp):
            data.shuffle(candidates[c])
        model = Mixture(tuple(
            (w, _pick_colouring(candidates[c], int(ks[c]), data))
            for c, w in enumerate(weights)
        ))

        rng, oracle_rng = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
        a, b = classical_outcomes(model, alphas, betas, np.arange(n_runs), rng)
        a_ref, b_ref = concatenated_classical_outcomes(model, alphas, betas, oracle_rng)
        assert np.array_equal(a, a_ref) and np.array_equal(b, b_ref)
        assert rng.bit_generator.state == oracle_rng.bit_generator.state


class TestQuantumRun:
    def test_equal_settings_always_opposite(self, rng):
        a, b = quantum_outcomes(*_at(0.0, 0.0, 10_000), rng)
        assert np.all(a == -b)

    def test_right_angle_all_four_cells(self, rng):
        n = 10**5
        a, b = quantum_outcomes(*_at(0.0, PI / 2, n), rng)
        for sa in (1, -1):
            for sb in (1, -1):
                frac = np.mean((a == sa) & (b == sb))
                assert frac == pytest.approx(0.25, abs=0.01)

    def test_cosine_correlation(self, rng):
        n = 10**6
        a, b = quantum_outcomes(*_at(0.0, PI / 4, n), rng)
        assert np.mean(a * b) == pytest.approx(-math.cos(PI / 4), abs=4 / math.sqrt(n))


class TestRunExperiment:
    def test_classical_certainty_counts(self):
        table = run_experiment(
            model=triangle_colouring(), sampler=GridSampler([(0.0, 0.0)]),
            n_runs=1000, seed=7,
        )
        cells = table.counts[(0.0, 0.0)]
        assert cells[0] == 0 and cells[3] == 0
        assert cells.sum() == 1000

    def test_quantum_certainty_counts(self):
        table = run_experiment(None, sampler=GridSampler([(0.0, 0.0)]), n_runs=1000, seed=7)
        cells = table.counts[(0.0, 0.0)]
        assert cells[0] == 0 and cells[3] == 0

    def test_seed_determinism(self):
        kwargs = dict(
            model=new_colouring([0.5, 1.0]),
            sampler=GridSampler([(0.0, 0.5), (0.0, 1.5)]),
            n_runs=5000,
            seed=42,
        )
        t1 = run_experiment(**kwargs)
        t2 = run_experiment(**kwargs)
        assert t1.pairs() == t2.pairs()
        for key in t1.pairs():
            assert np.array_equal(t1.counts[key], t2.counts[key])

    def test_sharded_determinism_and_totals(self):
        kwargs = dict(
            model=triangle_colouring(),
            sampler=GridSampler([(0.3, 1.1)]),
            n_runs=9001,
            seed=5,
        )
        t1 = run_experiment(**kwargs)
        t2 = run_experiment(**kwargs)
        assert np.array_equal(t1.counts[(0.3, 1.1)], t2.counts[(0.3, 1.1)])
        assert t1.n_runs() == 9001

    def test_empirical_matches_exact(self, rng):
        c = random_colouring(rng, 4)
        pl = exact_correlation(c)
        n = 10**5
        for beta in (0.4, 1.2, 2.5):
            table = run_experiment(
                model=c, sampler=GridSampler([(0.0, beta)]), n_runs=n, seed=11
            )
            est, _ = empirical_correlation(table)[(0.0, beta)]
            assert est == pytest.approx(pl.evaluate(beta), abs=4 / math.sqrt(n))

    def test_uniform_sampler_runs(self):
        table = run_experiment(
            model=triangle_colouring(), sampler=UniformSampler(), n_runs=50, seed=3
        )
        assert table.n_runs() == 50

    def test_duplicate_grid_pairs_share_a_row(self):
        table = run_experiment(
            model=triangle_colouring(), sampler=GridSampler([(0.0, 1.0), (0.0, 1.0)]),
            n_runs=500, seed=1,
        )
        assert table.pairs() == [(0.0, 1.0)] and table.n_runs() == 500

    def test_bad_arguments(self):
        with pytest.raises(TypeError):
            run_experiment(sampler=GridSampler([(0, 0)]), n_runs=10, seed=0)
        with pytest.raises(ValueError):
            run_experiment(None, sampler=GridSampler([(0, 0)]), n_runs=0, seed=0)

    def test_empty_grid_sampler(self):
        with pytest.raises(InvalidSampler):
            GridSampler([])

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_non_finite_settings_rejected(self, x):
        # the colour lookup has no colour for them
        with pytest.raises(InvalidSampler, match="finite"):
            GridSampler([(x, 0.0)])
        with pytest.raises(InvalidSampler, match="finite"):
            GridSampler([(0.0, 1.0), (0.0, x)])


class _Recording:
    """A sampler that keeps the generator `run_experiment` hands it."""

    def __init__(self, sampler):
        self.keys, self._sampler = sampler.keys, sampler

    def draw(self, n, rng):
        self.rng = rng
        return self._sampler.draw(n, rng)


def _many_components(n):
    rng = np.random.default_rng(60)
    w = rng.uniform(0.05, 1.0, n)
    return Mixture(tuple(
        (float(wi), random_colouring(rng, int(rng.choice([0, 2, 4, 6])))) for wi in w / w.sum()
    ))


_MIXTURE3 = Mixture((
    (0.5, triangle_colouring()),
    (0.3, new_colouring([0.4, 2.2])),
    (0.2, new_colouring([PI * j / 720 for j in (100, 250, 400, 600)])),
))
_GRID16 = [(0.0, TWO_PI * j / 16) for j in range(16)]
_BLOCK_CASES = {
    "colouring": (new_colouring([0.5, 1.0, 1.5, 2.0]), GridSampler(_GRID16)),
    "mixture3": (_MIXTURE3, GridSampler(_GRID16)),
    "mixture3_outside": (
        _MIXTURE3, GridSampler([(-0.5, 7.0), (0.3, 1.1), (TWO_PI, -TWO_PI), (0.0, 0.0)])
    ),
    "mixture60": (_many_components(60), GridSampler(_GRID16)),
    "quantum": (None, GridSampler(_GRID16)),
    "uniform_mixture3": (_MIXTURE3, UniformSampler()),
    "uniform_quantum": (None, UniformSampler()),
}


class TestBlockedKernel:
    """Run counts on either side of block boundaries give the whole-array tables."""

    @pytest.mark.parametrize("n_runs", [1, B - 1, B, B + 1, 3 * B + 5])
    @pytest.mark.parametrize("case", sorted(_BLOCK_CASES))
    def test_matches_whole_array_oracle(self, case, n_runs):
        model, sampler = _BLOCK_CASES[case]
        recording = _Recording(sampler)
        table = run_experiment(model, sampler=recording, n_runs=n_runs, seed=n_runs)
        ref, ref_rng = whole_array_run_experiment(model, sampler, n_runs, seed=n_runs)
        assert table.pairs() == ref.pairs() and table.n_runs() == n_runs
        for key in ref.pairs():
            assert np.array_equal(table.counts[key], ref.counts[key])
        assert recording.rng.bit_generator.state == ref_rng.bit_generator.state


class TestUniformSampler:
    def test_keys_are_gamma_bins(self):
        n = 10**5
        table = run_experiment(
            model=triangle_colouring(), sampler=UniformSampler(), n_runs=n, seed=3
        )
        assert len(table.counts) <= 360
        assert table.n_runs() == n
        assert all(alpha == 0.0 and 0.0 < gamma < TWO_PI for alpha, gamma in table.pairs())

    def test_bin_estimates_follow_triangle(self):
        n_bins = 360
        table = run_experiment(
            model=triangle_colouring(), sampler=UniformSampler(),
            n_runs=2 * 10**5, seed=4,
        )
        pl = exact_correlation(triangle_colouring())
        max_slope = 2 / PI
        assert len(table.counts) == n_bins
        for (_, gamma), (est, _) in empirical_correlation(table).items():
            n_bin = int(table.counts[(0.0, gamma)].sum())
            bound = 5 / math.sqrt(n_bin) + (TWO_PI / n_bins) * max_slope
            assert abs(est - pl.evaluate(gamma)) <= bound


class TestEmpiricalCorrelation:
    def test_perfect_anticorrelation(self):
        table = CountTable()
        table.add(0.0, 0.0, np.array([0, 500, 500, 0]))
        est, se = empirical_correlation(table)[(0.0, 0.0)]
        assert est == -1.0 and se == 0.0

    def test_uncorrelated(self):
        table = CountTable()
        table.add(0.0, PI / 2, np.array([250, 250, 250, 250]))
        est, se = empirical_correlation(table)[(0.0, PI / 2)]
        assert est == 0.0
        assert se == pytest.approx(1 / math.sqrt(1000))
