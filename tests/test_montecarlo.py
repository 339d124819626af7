import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.stats import chi2

from spindisk import (
    CountTable,
    empirical_correlation,
    exact_correlation,
    mixture_correlation,
    new_colouring,
    run_experiment,
    triangle_colouring,
)
from spindisk.circle import ANGLE_TOL, WEIGHT_TOL, Mixture, ValidationError, as_mixture, full_switch_set
from spindisk import montecarlo
from spindisk.montecarlo import (
    _BINS_PER_SWITCH, _MARK, _RUN_BLOCK, _ClassicalLookup, _bin_table, classical_outcomes, quantum_outcomes,
)

from colour_oracle import concatenated_classical_outcomes, concatenated_outcomes_at, masked_classical_outcomes
from conftest import mixtures, outcomes, random_colouring, random_mixture
from experiment_oracle import _quantum_outcomes, per_key_correlation, whole_array_run_experiment

PI = math.pi
TWO_PI = 2 * math.pi
B = _RUN_BLOCK


def _at(alpha, beta, n):
    """One setting pair read by all n runs: (pairs, pair_idx)."""
    return np.array([[alpha, beta]]), np.zeros(n, np.intp)


def _pairs(alphas, betas):
    """The kernels' (P, 2) settings array, row j = (alphas[j], betas[j])."""
    return np.column_stack([alphas, betas])


def _one_hot_cells(counts):
    """Each run's cell from the counts of a call that lists one pair per run (pair_idx = arange(n))."""
    assert np.array_equal(counts.sum(axis=1), np.ones(len(counts)))
    return counts.argmax(axis=1)


def _run_cells(lookup, idx, u, comp):
    """Cells through the lookup's per-block entry point, a marked run's from the exact pass."""
    cell = lookup.cells(idx, u, comp)
    late = np.flatnonzero(cell == _MARK)
    cell[late] = lookup.exact(idx[late], u[late], comp[late])
    return cell


class TestClassicalRun:
    def test_equal_settings_always_opposite(self, rng):
        model = random_mixture(rng)
        alpha = rng.uniform(0, 2 * PI)
        (npp, npm, nmp, nmm), = classical_outcomes(model, *_at(alpha, alpha, 10_000), rng)
        assert npp == nmm == 0 and npm + nmp == 10_000  # a = -b in every run

    def test_opposed_settings_always_equal(self, rng):
        model = random_mixture(rng)
        alpha = rng.uniform(0, PI)
        (npp, npm, nmp, nmm), = classical_outcomes(model, *_at(alpha, alpha + PI, 10_000), rng)
        assert npm == nmp == 0 and npp + nmm == 10_000  # a = b in every run

    def test_triangle_at_right_angle_uncorrelated(self, rng):
        n = 10**6
        (npp, npm, nmp, nmm), = classical_outcomes(triangle_colouring(), *_at(0.0, PI / 2, n), rng)
        assert abs((npp + nmm - npm - nmp) / n) < 4 / math.sqrt(n)  # the mean of a * b

    def test_marginal_fairness(self, rng):
        n = 10**5
        model = random_mixture(rng)
        (npp, npm, nmp, nmm), = classical_outcomes(model, *_at(1.3, 0.2, n), rng)
        assert abs((npp + npm - nmp - nmm) / n) < 4 / math.sqrt(n)  # the mean of a

    @settings(max_examples=50, deadline=None)
    @given(mixtures(max_k=8), st.integers(0, 2**32 - 1))
    def test_raw_settings_give_the_outcomes_of_reduced_ones(self, model, seed):
        data = np.random.default_rng(seed)
        x = data.choice([-1.0, 1.0], (2, 40)) * 10.0 ** data.uniform(-3.0, 308.0, (2, 40))
        x[:, :4] = [[TWO_PI, 7.0, -0.0, 1e17], [-TWO_PI, -7.0, 1e15, -1e308]]
        # a setting just below a multiple of 2*pi reduces to 2*pi, and that again to 0
        alphas, betas = x[:, (np.remainder(x, TWO_PI) < TWO_PI).all(axis=0)]
        reduced = np.remainder(alphas, TWO_PI), np.remainder(betas, TWO_PI)
        pair_idx = data.integers(alphas.size, size=B + 5)
        rng, reduced_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        counts = classical_outcomes(model, _pairs(alphas, betas), pair_idx, rng)
        assert np.array_equal(counts, classical_outcomes(model, _pairs(*reduced), pair_idx, reduced_rng))
        assert rng.bit_generator.state == reduced_rng.bit_generator.state
        # run by run: one listed pair per run, and the cell table's per-block entry point
        rng, reduced_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        runs = np.arange(pair_idx.size)
        cells = _one_hot_cells(classical_outcomes(model, _pairs(alphas, betas)[pair_idx], runs, rng))
        ref = _one_hot_cells(classical_outcomes(model, _pairs(*reduced)[pair_idx], runs, reduced_rng))
        assert np.array_equal(cells, ref)
        assert rng.bit_generator.state == reduced_rng.bit_generator.state
        raw_lookup, lookup = (_ClassicalLookup(model, _pairs(*x), 10**12) for x in ((alphas, betas), reduced))
        u, comp = data.uniform(0.0, TWO_PI, runs.size), lookup.values[data.integers(lookup.n_comp, size=runs.size)]
        assert np.array_equal(_run_cells(raw_lookup, pair_idx, u, comp), _run_cells(lookup, pair_idx, u, comp))


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
        a, b = outcomes(_one_hot_cells(classical_outcomes(model, _pairs(alphas, betas), np.arange(n_runs), rng)))
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
            r = np.remainder(np.remainder(x, TWO_PI) - u, TWO_PI)
            for i in data.permutation(n_runs)[: 2 * n_comp]:
                candidates[comp[i]][:0] = _nudged(_half_turn(r[i]))
        for c in range(n_comp):
            data.shuffle(candidates[c])
        model = Mixture(tuple(
            (w, _pick_colouring(candidates[c], int(ks[c]), data))
            for c, w in enumerate(weights)
        ))

        rng, oracle_rng = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
        a, b = outcomes(_one_hot_cells(classical_outcomes(model, _pairs(alphas, betas), np.arange(n_runs), rng)))
        a_ref, b_ref = concatenated_classical_outcomes(model, alphas, betas, oracle_rng)
        assert np.array_equal(a, a_ref) and np.array_equal(b, b_ref)
        assert rng.bit_generator.state == oracle_rng.bit_generator.state


def _choice_cdf(model):
    """The cdf that `rng.choice(n_comp, p=weights / weights.sum())` searches."""
    w = np.array([w for w, _ in as_mixture(model).components])
    cdf = (w / w.sum()).cumsum()
    return cdf / cdf[-1]


def _concatenated_switches(model):
    return np.concatenate([
        np.array(full_switch_set(c)) + TWO_PI * ci
        for ci, (_, c) in enumerate(as_mixture(model).components)
    ])


def _crafted_queries(points, scale, n_bins, rng):
    """Each point and one ulp either side, bin edges and their neighbours, 0 and 1 - 2**-53, random fill."""
    edges = np.arange(n_bins + 1) / scale
    x = np.concatenate([
        *_nudged(points), *_nudged(edges), [0.0, np.nextafter(1.0, 0.0)],
        rng.uniform(0.0, n_bins / scale, 1000),
    ])
    return x[(x >= 0.0) & (x * scale < n_bins + 1)]


def _table_lookup(points, scale, n_bins, x):
    """searchsorted(points, x, side="right") through a `_bin_table` of counts."""
    table = _bin_table(points, scale, n_bins, np.arange(points.size + 1), -1)
    count = table[(x * scale).astype(np.intp)]
    late = count < 0
    count[late] = points.searchsorted(x[late], side="right")
    return count


def _weights(n_comp, rng):
    w = rng.uniform(0.05, 1.0, n_comp)
    return (w / w.sum()).tolist()


# each case's weights, from a seed; the last one has weights near WEIGHT_TOL
_WEIGHT_CASES = {
    "1": lambda rng: [1.0],
    "2": lambda rng: _weights(2, rng),
    "3": lambda rng: _weights(3, rng),
    "200": lambda rng: _weights(200, rng),
    "near_weight_tol": lambda rng: [WEIGHT_TOL, 1.0 - 3 * WEIGHT_TOL, WEIGHT_TOL, WEIGHT_TOL],
}


class TestBinTable:
    """`_bin_table` lookups with crafted queries equal plain searchsorted(side="right")."""

    @pytest.mark.parametrize("case", sorted(_WEIGHT_CASES))
    def test_component_cdf(self, case):
        rng = np.random.default_rng(17)
        weights = _WEIGHT_CASES[case](rng)
        cdf = _choice_cdf(Mixture(tuple((w, triangle_colouring()) for w in weights)))
        m = _BINS_PER_SWITCH * len(weights)
        x = _crafted_queries(cdf, m, m, rng)
        assert np.nextafter(1.0, 0.0) in x and 0.0 in x
        # the largest pick stays below bin m, which only cdf[-1] = 1 reaches
        assert int(np.nextafter(1.0, 0.0) * m) == m - 1 and int(cdf[-1] * m) == m
        assert np.array_equal(_table_lookup(cdf, m, m, x), cdf.searchsorted(x, side="right"))

    @pytest.mark.parametrize("n_comp", [1, 2, 200])
    def test_colour_switches(self, n_comp):
        rng = np.random.default_rng(n_comp)
        model = Mixture(tuple(
            (w, random_colouring(rng, int(rng.choice([0, 2, 8])))) for w in _weights(n_comp, rng)
        ))
        switches = _concatenated_switches(model)
        n_bins = _BINS_PER_SWITCH * switches.size
        scale = n_bins / (TWO_PI * n_comp)
        x = _crafted_queries(switches, scale, n_bins, rng)
        assert np.array_equal(_table_lookup(switches, scale, n_bins, x),
                              switches.searchsorted(x, side="right"))

    @pytest.mark.parametrize("by_cell", [False, True], ids=["station", "cell"])
    @pytest.mark.parametrize("case", sorted(_WEIGHT_CASES))
    def test_crafted_picks_through_the_component_lookup(self, case, by_cell):
        # the component of each run is cdf.searchsorted(pick, "right"), as
        # rng.choice(p=) places it, and its cells come from that component's
        # switches in the concatenated switch sets
        rng = np.random.default_rng(29)
        model = Mixture(tuple(
            (w, random_colouring(rng, int(rng.choice([0, 2, 4])))) for w in _WEIGHT_CASES[case](rng)
        ))
        cdf = _choice_cdf(model)
        m = _BINS_PER_SWITCH * cdf.size
        pick = _crafted_queries(cdf, m, m, rng)
        pick = rng.permutation(pick[pick < 1.0])
        alphas, betas = rng.uniform(0.0, TWO_PI, (2, 4))
        idx, u = rng.integers(4, size=pick.size), rng.uniform(0.0, TWO_PI, pick.size)
        lookup = _ClassicalLookup(model, _pairs(alphas, betas), 10**12 if by_cell else 0)
        assert lookup.by_cell == by_cell
        comp = cdf.searchsorted(pick, side="right")
        want = (lookup.row if by_cell else TWO_PI) * comp  # the component's offset or shift
        assert np.array_equal(lookup.components(pick), want)
        a, b = outcomes(_run_cells(lookup, idx, u, lookup.components(pick)))
        a_ref, b_ref = concatenated_outcomes_at(model, alphas[idx], betas[idx], u, comp)
        assert np.array_equal(a, a_ref) and np.array_equal(b, b_ref)

    @pytest.mark.parametrize("n_comp", [1, 3])
    def test_no_runs(self, n_comp):
        model = Mixture(tuple((1 / n_comp, triangle_colouring()) for _ in range(n_comp)))
        rng, oracle_rng = np.random.default_rng(3), np.random.default_rng(3)
        counts = classical_outcomes(model, np.array([[0.5, 1.0]]), np.zeros(0, np.intp), rng)
        assert counts.dtype == np.int64 and np.array_equal(counts, np.zeros((1, 4)))
        concatenated_classical_outcomes(model, np.zeros(0), np.zeros(0), oracle_rng)
        assert rng.bit_generator.state == oracle_rng.bit_generator.state


class TestStreams:
    """The numpy stream identities that the blocked draws rely on."""

    def test_blocked_random_times_two_pi_is_uniform(self):
        n = 3 * B + 5
        rng, ref = np.random.default_rng(1), np.random.default_rng(1)
        u = np.concatenate([rng.random(min(B, n - i)) * TWO_PI for i in range(0, n, B)])
        assert u.tobytes() == ref.uniform(0.0, TWO_PI, n).tobytes()
        assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("n", [0, 1, B + 3])
    def test_advanced_copy_draws_the_picks_after_n_doubles(self, n):
        rng = np.random.default_rng(2)
        rng.integers(7, size=3, dtype=np.int32)  # leaves a buffered 32-bit half
        bits = np.random.PCG64(0)
        bits.state = rng.bit_generator.state
        picks = np.random.Generator(bits.advance(n)).random(n)
        rng.random(n)
        assert picks.tobytes() == rng.random(n).tobytes()
        assert bits.state["state"] == rng.bit_generator.state["state"]

    @pytest.mark.parametrize("n_pairs", [1, 7, 16, 1000, 3**19])
    def test_int32_pair_draws_equal_int64(self, n_pairs):
        for n in (1, B + 1):
            rng, ref = np.random.default_rng(n_pairs), np.random.default_rng(n_pairs)
            assert np.array_equal(rng.integers(n_pairs, size=n, dtype=np.int32), ref.integers(n_pairs, size=n))
            assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("n", [1, 2, B + 1])
    def test_integers_0_2_are_the_indices_choice_draws(self, n):
        rng, ref = np.random.default_rng(n), np.random.default_rng(n)
        neg = rng.integers(0, 2, n, dtype=np.int32)
        assert np.array_equal(1 - 2 * neg, ref.choice(np.array([1, -1]), size=n))
        assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("model", [
        triangle_colouring(), Mixture(((0.6, triangle_colouring()), (0.4, new_colouring([0.4, 2.2])))),
    ])
    def test_classical_draws_keep_a_buffered_half(self, model):
        rng, oracle_rng = np.random.default_rng(4), np.random.default_rng(4)
        for g in (rng, oracle_rng):
            g.integers(5, size=3, dtype=np.int32)
        alphas, betas = np.array([0.3, 7.0]), np.array([1.1, -2.0])
        pair_idx = np.arange(2 * B + 1) % 2
        counts = classical_outcomes(model, _pairs(alphas, betas), pair_idx, rng)
        assert np.array_equal(counts, _oracle_counts(model, alphas, betas, pair_idx, oracle_rng))
        assert rng.bit_generator.state == oracle_rng.bit_generator.state
        for g in (rng, oracle_rng):
            g.integers(5, size=3, dtype=np.int32)
        runs = np.arange(pair_idx.size)  # one listed pair per run
        a, b = outcomes(_one_hot_cells(classical_outcomes(model, _pairs(alphas, betas)[pair_idx], runs, rng)))
        a_ref, b_ref = concatenated_classical_outcomes(model, alphas[pair_idx], betas[pair_idx], oracle_rng)
        assert np.array_equal(a, a_ref) and np.array_equal(b, b_ref)
        assert rng.bit_generator.state == oracle_rng.bit_generator.state

    @pytest.mark.parametrize("halves", [0, 3])
    @pytest.mark.parametrize("n", [0, 1, 2, B + 1])
    def test_quantum_draws_follow_the_int32_halves(self, n, halves):
        # the int32 draws take a buffered half first; the random() draws follow them
        rng, oracle_rng = np.random.default_rng(6), np.random.default_rng(6)
        for g in (rng, oracle_rng):
            g.integers(5, size=halves, dtype=np.int32)
        alphas, betas = np.array([0.3, 7.0, 2.0]), np.array([1.1, -2.0, 2.0])
        pair_idx = np.arange(n) % 3
        a, b = outcomes(_one_hot_cells(quantum_outcomes(_pairs(alphas, betas)[pair_idx], np.arange(n), rng)))
        a_ref, b_ref = _quantum_outcomes(alphas[pair_idx], betas[pair_idx], oracle_rng)
        assert np.array_equal(a, a_ref) and np.array_equal(b, b_ref)
        assert rng.bit_generator.state == oracle_rng.bit_generator.state


def _settings_near_switches(model, rng, n_pairs):
    """Settings on switches, one ulp beside them, at +-pi and +-2*pi, at -0.0, or past 2*pi."""
    f = np.concatenate([full_switch_set(c) for _, c in as_mixture(model).components])
    special = np.concatenate([f, f + PI, f - TWO_PI, [PI, -PI, TWO_PI, -TWO_PI, -0.0, -1e-300, 1e-300]])
    special = np.concatenate([special, np.nextafter(special, np.inf), np.nextafter(special, -np.inf)])
    return np.where(rng.random((2, n_pairs)) < 0.8, rng.choice(special, (2, n_pairs)),
                    rng.uniform(-20.0, 20.0, (2, n_pairs)))


def _breakpoint_runs(model, alphas, betas):
    """(pair, rotation, component) runs at each rotation breakpoint (x - s) mod 2*pi.

    Its copies at +-2*pi and 1-4 ulps either side of each are included.
    """
    runs = []
    for p, x in enumerate(np.remainder([alphas, betas], TWO_PI).T):
        for ci, (_, c) in enumerate(as_mixture(model).components):
            t = np.remainder(x[:, None] - np.array(full_switch_set(c)), TWO_PI).ravel()
            t = np.concatenate([t, t - TWO_PI, t + TWO_PI])  # a breakpoint near 0 also acts near 2*pi
            near = [t]
            for direction in (-np.inf, np.inf):
                v = t
                for _ in range(4):
                    v = np.nextafter(v, direction)
                    near.append(v)
            u = np.concatenate(near)
            # where x - u rounds to 2*pi (x reduced to 2*pi, u below ulp(2*pi)/2)
            # the oracle's remainder reads 0 and the kernel's add-wrap 2*pi
            u = u[(u >= 0.0) & (u < TWO_PI) & (x[:, None] - u < TWO_PI).all(axis=0)]
            runs.append((np.full(u.size, p), u, np.full(u.size, ci)))
    return (np.concatenate(r) for r in zip(*runs))


class TestCellTable:
    """Both paths of the classical lookup give the exact rule's cells at every rotation breakpoint."""

    @settings(max_examples=120, deadline=None)
    @given(mixtures(max_k=16), st.integers(0, 2**32 - 1), st.integers(1, 6))
    def test_breakpoints_match_concatenated_oracle(self, model, seed, n_pairs):
        alphas, betas = _settings_near_switches(model, np.random.default_rng(seed), n_pairs)
        idx, u, comp = _breakpoint_runs(model, alphas, betas)
        a_ref, b_ref = concatenated_outcomes_at(model, alphas[idx], betas[idx], u, comp)
        for n_runs in (0, 10**12):
            lookup = _ClassicalLookup(model, _pairs(alphas, betas), n_runs)
            assert lookup.by_cell == (n_runs > 0)
            if lookup.by_cell:  # within a few ulps of a breakpoint, every run's bin is marked
                assert np.all(lookup.cells(idx, u, lookup.values[comp]) == _MARK)
            a, b = outcomes(_run_cells(lookup, idx, u, lookup.values[comp]))
            assert np.array_equal(a, a_ref) and np.array_equal(b, b_ref)

    def test_size_rule_sides_match_whole_array_oracle(self):
        model, pairs = _BLOCK_CASES["mixture3_outside"]
        zeros = np.zeros(len(pairs))
        entries = _ClassicalLookup(model, _pairs(zeros, zeros), 0).stride * len(pairs)
        for n_runs, by_cell in ((entries - 1, False), (entries, True)):
            assert _ClassicalLookup(model, _pairs(zeros, zeros), n_runs).by_cell == by_cell
            table = run_experiment(model, pairs, n_runs=n_runs, seed=n_runs)
            assert_oracle_table(table, whole_array_run_experiment(model, pairs, n_runs, seed=n_runs))


class TestQuantumRun:
    def test_equal_settings_always_opposite(self, rng):
        (npp, npm, nmp, nmm), = quantum_outcomes(*_at(0.0, 0.0, 10_000), rng)
        assert npp == nmm == 0 and npm + nmp == 10_000  # a = -b in every run

    def test_right_angle_all_four_cells(self, rng):
        n = 10**5
        (row,) = quantum_outcomes(*_at(0.0, PI / 2, n), rng)
        for frac in row / n:  # ++, +-, -+, --
            assert frac == pytest.approx(0.25, abs=0.01)

    def test_cosine_correlation(self, rng):
        n = 10**6
        (npp, npm, nmp, nmm), = quantum_outcomes(*_at(0.0, PI / 4, n), rng)
        assert (npp + nmm - npm - nmp) / n == pytest.approx(-math.cos(PI / 4), abs=4 / math.sqrt(n))

    @pytest.mark.parametrize("n", [0, 1, 3 * B + 5])
    def test_matches_per_run_oracle_and_its_generator_state(self, n):
        alphas, betas = np.array([0.0, 1.0, 5.5, -0.5]), np.array([0.3, 0.0, 7.0, 1e308])
        pair_idx = np.random.default_rng(n).integers(4, size=n)
        rng, oracle_rng = np.random.default_rng(n), np.random.default_rng(n)
        runs = np.arange(n)  # one listed pair per run
        a, b = outcomes(_one_hot_cells(quantum_outcomes(_pairs(alphas, betas)[pair_idx], runs, rng)))
        ref_a, ref_b = _quantum_outcomes(alphas[pair_idx], betas[pair_idx], oracle_rng)
        assert np.array_equal(a, ref_a) and np.array_equal(b, ref_b)
        assert rng.bit_generator.state == oracle_rng.bit_generator.state
        rng, oracle_rng = np.random.default_rng(n), np.random.default_rng(n)
        counts = quantum_outcomes(_pairs(alphas, betas), pair_idx, rng)
        assert np.array_equal(counts, _oracle_counts(None, alphas, betas, pair_idx, oracle_rng))
        assert rng.bit_generator.state == oracle_rng.bit_generator.state


class TestRunExperiment:
    def test_classical_certainty_counts(self):
        table = run_experiment(model=triangle_colouring(), pairs=[(0.0, 0.0)], n_runs=1000, seed=7)
        cells = table.counts[0]
        assert cells[0] == 0 and cells[3] == 0
        assert cells.sum() == 1000

    def test_quantum_certainty_counts(self):
        table = run_experiment(None, [(0.0, 0.0)], n_runs=1000, seed=7)
        cells = table.counts[0]
        assert cells[0] == 0 and cells[3] == 0

    def test_seed_determinism(self):
        kwargs = dict(
            model=new_colouring([0.5, 1.0]),
            pairs=[(0.0, 0.5), (0.0, 1.5)],
            n_runs=5000,
            seed=42,
        )
        t1 = run_experiment(**kwargs)
        t2 = run_experiment(**kwargs)
        assert np.array_equal(t1.pairs, t2.pairs)
        assert np.array_equal(t1.counts, t2.counts)

    def test_sharded_determinism_and_totals(self):
        kwargs = dict(
            model=triangle_colouring(),
            pairs=[(0.3, 1.1)],
            n_runs=9001,
            seed=5,
        )
        t1 = run_experiment(**kwargs)
        t2 = run_experiment(**kwargs)
        assert np.array_equal(t1.counts, t2.counts)
        assert t1.counts.sum() == 9001

    def test_empirical_matches_exact(self, rng):
        c = random_colouring(rng, 4)
        pl = exact_correlation(c)
        n = 10**5
        for beta in (0.4, 1.2, 2.5):
            table = run_experiment(model=c, pairs=[(0.0, beta)], n_runs=n, seed=11)
            (est,), _ = empirical_correlation(table)
            assert est == pytest.approx(pl.sample(beta), abs=4 / math.sqrt(n))

    def test_duplicate_grid_pairs_share_a_row(self):
        table = run_experiment(triangle_colouring(), [(0.0, 1.0), (0.0, 1.0)], n_runs=500, seed=1)
        assert list(map(tuple, table.pairs.tolist())) == [(0.0, 1.0)] and table.counts.sum() == 500

    def test_unsorted_grid_with_duplicates_gives_sorted_merged_rows(self):
        keys = [(0.5, 1.0), (0.0, 2.0), (0.5, 1.0), (-0.0, 2.0), (0.0, 1.0)]
        kwargs = dict(model=new_colouring([0.5, 1.0]), n_runs=5000, seed=2)
        table = run_experiment(pairs=keys, **kwargs)
        assert list(map(tuple, table.pairs.tolist())) == sorted(set(keys)) == [(0.0, 1.0), (0.0, 2.0), (0.5, 1.0)]
        assert math.copysign(1.0, table.pairs[1][0]) == 1.0  # listed before -0.0
        assert_oracle_table(table, whole_array_run_experiment(pairs=keys, **kwargs))

    @pytest.mark.parametrize("seed", range(4))
    def test_duplicate_key_row_takes_first_listing_with_runs(self, seed):
        kwargs = dict(model=triangle_colouring(), pairs=[(-0.0, 2.0), (0.0, 2.0)], n_runs=1, seed=seed)
        assert_oracle_table(run_experiment(**kwargs), whole_array_run_experiment(**kwargs))

    def test_duplicate_key_rows_name_both_listings_across_seeds(self):
        kwargs = dict(model=triangle_colouring(), pairs=[(-0.0, 2.0), (0.0, 2.0)], n_runs=1)
        signs = {math.copysign(1.0, run_experiment(seed=seed, **kwargs).pairs[0][0]) for seed in range(4)}
        assert signs == {-1.0, 1.0}

    def test_bad_arguments(self):
        with pytest.raises(TypeError):
            run_experiment(pairs=[(0, 0)], n_runs=10, seed=0)
        with pytest.raises(TypeError):
            run_experiment(None, n_runs=10, seed=0)
        with pytest.raises(ValueError):
            run_experiment(None, [(0, 0)], n_runs=0, seed=0)

    def test_input_errors_are_validation_errors(self):
        with pytest.raises(ValidationError, match="empty"):
            run_experiment(None, [], n_runs=10, seed=0)
        with pytest.raises(ValidationError, match="n_runs"):
            run_experiment(None, [(0, 0)], n_runs=0, seed=0)
        # ragged, bool, numeric-string, complex, object, three-column and past-float input
        for pairs in ([(0, 1), (2,)], [(True, False)], [("0", "1")], [(1j, 0)], [(None, 0)], [(0, 1, 2)],
                      [(10**400, 0)], 0.5, None):
            with pytest.raises(ValidationError, match="pairs of real numbers"):
                run_experiment(None, pairs, n_runs=10, seed=0)
        table = run_experiment(None, [(10**30, 0)], n_runs=10, seed=0)  # a Python int past int64 is a number
        assert table.pairs.tolist() == [[1e30, 0.0]]

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_non_finite_settings_rejected(self, x):
        # the colour lookup has no colour for them
        with pytest.raises(ValidationError, match="finite"):
            run_experiment(triangle_colouring(), [(x, 0.0)], n_runs=10)
        with pytest.raises(ValidationError, match="finite"):
            run_experiment(None, [(0.0, 1.0), (0.0, x)], n_runs=10)

    def test_classical_settings_far_from_zero(self):
        # at |alpha| >= 1e15, alpha - u loses u to rounding; each setting is reduced mod 2*pi first
        model, n = new_colouring([0.5, 1.0]), 100_000
        pl = mixture_correlation(model)
        for alpha in (1e15, 1e17):
            (est,), _ = empirical_correlation(run_experiment(model, [(alpha, 0.0)], n_runs=n, seed=3))
            want = float(pl.sample(np.remainder(alpha, TWO_PI)))
            assert abs(est - want) <= 4 * math.sqrt((1 - want * want) / n)

    def test_quantum_settings_whose_difference_overflows(self):
        # 1e308 - (-1e308) is inf; each setting is reduced mod 2*pi first
        n = 100_000
        table = run_experiment(None, [(1e308, -1e308)], n_runs=n, seed=3)
        (est,), _ = empirical_correlation(table)
        want = -math.cos(np.remainder(1e308, TWO_PI) - np.remainder(-1e308, TWO_PI))
        assert abs(est - want) <= 4 * math.sqrt((1 - want * want) / n)


def assert_oracle_table(table, ref):
    """table holds the oracle's rows, sorted, each named as the oracle names it (the sign of -0.0 too)."""
    pairs = sorted(ref)
    assert table.pairs.tobytes() == np.array(pairs, float).tobytes()
    assert np.array_equal(table.counts, [ref[key] for key in pairs])


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
    "colouring": (new_colouring([0.5, 1.0, 1.5, 2.0]), _GRID16),
    "mixture3": (_MIXTURE3, _GRID16),
    "mixture3_outside": (_MIXTURE3, [(-0.5, 7.0), (0.3, 1.1), (TWO_PI, -TWO_PI), (0.0, 0.0)]),
    "mixture60": (_many_components(60), _GRID16),
    "quantum": (None, _GRID16),
}


class TestBlockedKernel:
    """Run counts on either side of block boundaries give the whole-array tables."""

    @pytest.mark.parametrize("n_runs", [1, B - 1, B, B + 1, 3 * B + 5], ids=["1", "B-1", "B", "B+1", "3B+5"])
    @pytest.mark.parametrize("case", sorted(_BLOCK_CASES))
    def test_matches_whole_array_oracle(self, case, n_runs):
        model, pairs = _BLOCK_CASES[case]
        table = run_experiment(model, pairs, n_runs=n_runs, seed=n_runs)
        assert table.counts.sum() == n_runs
        assert_oracle_table(table, whole_array_run_experiment(model, pairs, n_runs, seed=n_runs))


def _oracle_counts(model, alphas, betas, pair_idx, rng):
    """(pairs, 4) counts of the whole-array oracles' runs at settings (alphas, betas)[pair_idx]."""
    if model is None:
        a, b = _quantum_outcomes(alphas[pair_idx], betas[pair_idx], rng)
    else:
        a, b = concatenated_classical_outcomes(model, alphas[pair_idx], betas[pair_idx], rng)
    return np.bincount(4 * pair_idx + 2 * (a < 0) + (b < 0), minlength=4 * alphas.size).reshape(-1, 4)


_COUNT_MODELS = {
    "1": triangle_colouring(),
    "2": Mixture(((0.6, triangle_colouring()), (0.4, new_colouring([0.4, 2.2])))),
    "48": Mixture(tuple((w, triangle_colouring()) for w in _weights(48, np.random.default_rng(48)))),
    "quantum": None,
}


class TestCountingKernel:
    """Each kernel's counts and the generator's end state equal the whole-array oracle's."""

    @pytest.mark.parametrize("n_pairs", [1, 200], ids=["1pair", "200pairs"])
    @pytest.mark.parametrize("n", [1, B - 1, B, B + 1, 3 * B + 5], ids=["1", "B-1", "B", "B+1", "3B+5"])
    @pytest.mark.parametrize("case, coarse", [
        pytest.param(case, coarse, id=f"{case}-{'coarse' if coarse else 'bins'}")
        for case in sorted(_COUNT_MODELS) for coarse in (False, True)
        if not (coarse and _COUNT_MODELS[case] is None)  # the singlet law has no tables
    ])
    def test_matches_whole_array_oracle(self, case, coarse, n, n_pairs, monkeypatch):
        model = _COUNT_MODELS[case]
        if coarse:  # one bin per switch: a large share of the rotations land in a marked bin
            monkeypatch.setattr(montecarlo, "_BINS_PER_SWITCH", 1)
        marked = []
        exact = _ClassicalLookup.exact
        monkeypatch.setattr(_ClassicalLookup, "exact", lambda self, *r: marked.append(r[0].size) or exact(self, *r))
        data = np.random.default_rng(n)
        # settings on switches, beside them, or outside [0, 2*pi)
        alphas, betas = _settings_near_switches(model or triangle_colouring(), data, n_pairs)
        pair_idx = data.integers(n_pairs, size=n, dtype=np.int32)
        rng, oracle_rng = np.random.default_rng(n), np.random.default_rng(n)
        kernel = quantum_outcomes if model is None else lambda *a: classical_outcomes(model, *a)
        counts = kernel(_pairs(alphas, betas), pair_idx, rng)
        assert np.array_equal(counts, _oracle_counts(model, alphas, betas, pair_idx, oracle_rng))
        assert rng.bit_generator.state == oracle_rng.bit_generator.state
        if model is not None:
            by_cell = _ClassicalLookup(model, _pairs(alphas, betas), n).by_cell
            if not coarse:
                assert by_cell == (n_pairs == 1 and n > 1)
            if by_cell:  # one exact pass; on coarse bins it resolves a large share of the runs
                assert len(marked) == 1 and marked[0] > (n / 4 if coarse else 0)


class TestRowMerge:
    """Count rows merge as the dict of pairs with runs did, in order and sign."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.tuples(st.sampled_from([0.0, -0.0, 1.5, -2.0]), st.sampled_from([0.0, -0.0, 3.0])),
                 min_size=1, max_size=40),
        st.integers(1, 80), st.integers(0, 2**32 - 1), st.booleans(),
    )
    @example(pairs=[(-0.0, 0.0), (0.0, -0.0), (0.0, 0.0), (1.5, -0.0)], n_runs=30, seed=0, quantum=False)
    def test_matches_the_dict_policy(self, pairs, n_runs, seed, quantum):
        model = None if quantum else new_colouring([0.5, 1.0])
        table = run_experiment(model, pairs, n_runs=n_runs, seed=seed)
        assert_oracle_table(table, whole_array_run_experiment(model, pairs, n_runs, seed=seed))
        assert all(type(a) is float and type(b) is float for a, b in table.pairs.tolist())


#: Family-wise false-alarm rate of the three tests of the four-cell law below, split evenly among them.
_LAW_ALPHA = 1e-6
_LAW_PAIRS = [
    (TWO_PI, -TWO_PI), (-PI, TWO_PI),  # rho = -1 and +1: two cells count 0
    (0.4, 2.2),  # on switches of every model below
    (-0.5, 7.0), (1e15, 0.3),  # outside [0, 2*pi)
    (PI * 250 / 720, 1.3), (0.0, PI / 2), (5.0, 2.2 + PI),
]
_LAW_SEEDS = range(3)
_LAW_RUNS = {"station": 2000, "cell": 300_000}  # each model's lookup path at these run counts


def _law_models():
    """A 3-component mixture, a k = 64 colouring and a 48-component mixture, all with switches at 0.4 and 2.2."""
    rng = np.random.default_rng(64)
    k64 = new_colouring(np.sort(np.r_[0.4, 2.2, rng.uniform(0.01, PI - 0.01, 62)]).tolist())
    w = rng.uniform(0.05, 1.0, 48)
    w /= w.sum()
    many = Mixture(((float(w[0]), new_colouring([0.4, 2.2])),) + tuple(
        (float(wi), random_colouring(rng, int(rng.choice([0, 2])))) for wi in w[1:]
    ))
    return [_MIXTURE3, k64, many]


def _four_cell_g(model, rho, n_runs):
    """Pooled (G, df) of run_experiment's rows at _LAW_PAIRS, one table per seed, against the law of rho.

    A row with n runs at reduced alpha - beta = x is multinomial with
    p = ((1 + r)/4, (1 - r)/4, (1 - r)/4, (1 + r)/4), r = rho(x).  A cell
    with p = 0 must count 0; every other cell must expect >= 5 counts, so
    that G is close to chi2 with one degree of freedom fewer than such cells.
    """
    g = df = 0
    for seed in _LAW_SEEDS:
        table = run_experiment(model, _LAW_PAIRS, n_runs=n_runs, seed=seed)
        r = rho(np.subtract(*np.remainder(table.pairs, TWO_PI).T))[:, None]
        p = np.hstack([1 + r, 1 - r, 1 - r, 1 + r]) / 4
        expect = table.counts.sum(axis=1, keepdims=True) * p
        assert np.all(table.counts[p == 0] == 0) and np.all(expect[p > 0] >= 5)
        seen = table.counts > 0
        g += 2 * np.sum(table.counts[seen] * np.log(table.counts[seen] / expect[seen]))
        df += np.count_nonzero(p > 0) - len(p)
    return g, df


class TestFourCellLaw:
    """Counts follow the four-cell law that rho fixes for every classical model, and -cos for the singlet.

    The shift u -> u + pi keeps the rotation uniform and, by
    antiperiodicity, flips both stations' colours, so P(++) = P(--) and
    P(+-) = P(-+); E[ab] = rho(alpha - beta) gives the rest.  At fixed
    seeds each test below is deterministic; over seeds, a correct simulator
    fails one of the three null tests with probability at most _LAW_ALPHA.
    """

    @pytest.mark.parametrize("path", sorted(_LAW_RUNS))
    def test_classical_counts_follow_the_law_of_rho(self, path):
        g = df = 0
        for model in _law_models():
            assert _ClassicalLookup(model, np.array(_LAW_PAIRS), _LAW_RUNS[path]).by_cell == (path == "cell")
            g_model, df_model = _four_cell_g(model, mixture_correlation(model).sample, _LAW_RUNS[path])
            g, df = g + g_model, df + df_model
        assert g < chi2.isf(_LAW_ALPHA / 3, df)

    def test_quantum_counts_follow_the_law_of_minus_cos(self):
        g, df = _four_cell_g(None, lambda x: -np.cos(x), 300_000)
        assert g < chi2.isf(_LAW_ALPHA / 3, df)

    @pytest.mark.parametrize("path", sorted(_LAW_RUNS))
    def test_rejects_the_triangle_law_for_a_k6_colouring(self, path):
        model = random_colouring(np.random.default_rng(6), 6)
        g, df = _four_cell_g(model, exact_correlation(triangle_colouring()).sample, _LAW_RUNS[path])
        assert g > chi2.isf(_LAW_ALPHA / 3, df)


class TestEmpiricalCorrelation:
    def test_matches_per_key_formula(self, rng):
        for _ in range(500):
            n_rows = int(rng.integers(1, 20))
            counts = rng.integers(0, 10 ** rng.integers(1, 10, size=(n_rows, 4)))
            counts *= rng.random((n_rows, 4)) < 0.7  # rows with est = +-1 too
            counts[counts.sum(axis=1) == 0, 0] = 1
            table = CountTable(np.array([(0.0, float(j)) for j in range(n_rows)]), counts)
            want = np.array([per_key_correlation(cells) for cells in counts])
            assert np.stack(empirical_correlation(table), axis=1).tobytes() == want.tobytes()

    def test_perfect_anticorrelation(self):
        table = CountTable(np.array([(0.0, 0.0)]), np.array([[0, 500, 500, 0]]))
        (est,), (se,) = empirical_correlation(table)
        assert est == -1.0 and se == 0.0

    def test_uncorrelated(self):
        table = CountTable(np.array([(0.0, PI / 2)]), np.array([[250, 250, 250, 250]]))
        (est,), (se,) = empirical_correlation(table)
        assert est == 0.0
        assert se == pytest.approx(1 / math.sqrt(1000))
