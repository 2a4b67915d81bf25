import math

import numpy as np
import pytest

from modkit import (
    Partition,
    bounds,
    build_q,
    exact_cut,
    exact_full,
    hyperplane_round,
    round_cut,
    round_full,
    select_k_star,
    solve_cut_sdp,
    solve_full_sdp,
)
from modkit.rounding import _TRIAL_BLOCK, _best_of_trials, _trial_blocks

import fixtures

CROSSOVER = math.cos((3 - math.sqrt(5)) / 4 * math.pi)


class TestSelectKStar:
    def test_midpoint_small_n(self):
        # g_1 = 1/3, g_2 ~ 0.30556, g_3 ~ 0.32870
        assert select_k_star(0.5, 8) == 2

    def test_high_mass_large_n(self):
        # k scan reaches ceil(log2 1024) = 10; minimum at k = 3
        assert select_k_star(0.95, 1024) == 3

    def test_crossover_tie_breaks_low(self):
        for n in (2, 8, 1024):
            assert select_k_star(CROSSOVER, n) == 2

    def test_domain(self):
        with pytest.raises(ValueError):
            select_k_star(-0.1, 4)
        with pytest.raises(ValueError):
            select_k_star(1.1, 4)
        with pytest.raises(ValueError):
            select_k_star(0.5, 0)


class TestHyperplaneRound:
    def test_identical_vectors_stay_together(self):
        qm = build_q(fixtures.cycle_graph(4))
        vectors = np.ones((4, 1))
        for k in (1, 2, 5):
            out = hyperplane_round(qm, vectors, k, seed=3, trial=k)
            assert out.partition.k == 1
            assert out.score == pytest.approx(0.0, abs=1e-12)
            assert out.k_used == k

    def test_cluster_count_bound(self):
        qm = build_q(fixtures.petersen())
        sol = solve_full_sdp(qm)
        vectors = sol.factor
        for k in (1, 2, 3, 4):
            for t in range(20):
                out = hyperplane_round(qm, vectors, k, seed=17, trial=t)
                assert out.partition.k <= min(2**k, qm.graph.n)

    def test_same_seed_same_outcome(self):
        qm = build_q(fixtures.two_triangle_bridge())
        vectors = solve_full_sdp(qm).factor
        a = hyperplane_round(qm, vectors, 3, seed=5, trial=9)
        b = hyperplane_round(qm, vectors, 3, seed=5, trial=9)
        assert a.partition == b.partition
        assert a.score == b.score
        c = hyperplane_round(qm, vectors, 3, seed=5, trial=10)
        assert a.trial_seed != c.trial_seed

    def test_rejects_bad_k(self):
        qm = build_q(fixtures.k2())
        vectors = np.ones((2, 1))
        with pytest.raises(ValueError):
            hyperplane_round(qm, vectors, 0, seed=0)

    def test_separation_law_pi_third_two_planes(self):
        # pair at angle pi/3 with two hyperplanes stays together with
        # probability (2/3)^2 = 4/9
        qm = build_q(fixtures.k2())
        vecs = np.array([[1.0, 0.0], [0.5, math.sqrt(3.0) / 2.0]])
        trials = 100_000
        together = sum(
            int((codes[:, 0] == codes[:, 1]).sum())
            for _, codes, _ in _trial_blocks(qm, vecs, 2, trials, seed=123)
        )
        assert together / trials == pytest.approx(4.0 / 9.0, abs=0.01)


class TestRoundFull:
    def test_two_triangle_attains_optimum(self):
        qm = build_q(fixtures.two_triangle_bridge())
        sol = solve_full_sdp(qm)
        best, report = round_full(qm, sol, trials=200, seed=42)
        opt = exact_full(qm).opt_value
        assert best.score == pytest.approx(opt, abs=1e-9)
        assert report.best_score == best.score
        assert report.upper_bound >= best.score - 1e-9
        assert report.k_star == select_k_star(
            float(np.clip(sol.z_plus, 0.0, 1.0)), qm.graph.n
        )

    def test_k2_scores_zero(self):
        qm = build_q(fixtures.k2())
        sol = solve_full_sdp(qm)
        best, report = round_full(qm, sol, trials=50, seed=0)
        assert best.score == pytest.approx(0.0, abs=1e-9)
        assert report.additive_certificate <= best.score + 1e-9

    def test_zero_trials_rejected(self):
        qm = build_q(fixtures.k2())
        sol = solve_full_sdp(qm)
        with pytest.raises(ValueError):
            round_full(qm, sol, trials=0, seed=0)

    def test_kind_mismatch_rejected(self):
        qm = build_q(fixtures.cycle_graph(4))
        cut_sol = solve_cut_sdp(qm)
        with pytest.raises(ValueError):
            round_full(qm, cut_sol, trials=10, seed=0)

    def test_seed_reproducibility(self):
        qm = build_q(fixtures.two_triangle_bridge())
        sol = solve_full_sdp(qm)
        a_best, a_rep = round_full(qm, sol, trials=60, seed=7)
        b_best, b_rep = round_full(qm, sol, trials=60, seed=7)
        assert a_best.partition == b_best.partition
        assert a_rep == b_rep

    def test_expectation_floor_holds(self):
        # sample mean over many trials sits above the guaranteed floor
        qm = build_q(fixtures.two_triangle_bridge())
        sol = solve_full_sdp(qm)
        vectors = sol.factor
        k_star = select_k_star(float(np.clip(sol.z_plus, 0, 1)), qm.graph.n)
        scores = np.concatenate(
            [s for _, _, s in _trial_blocks(qm, vectors, k_star, 10_000, seed=2024)]
        )
        _, report = round_full(qm, sol, trials=1, seed=2024)
        slack = 3.0 * scores.std(ddof=1) / math.sqrt(scores.size)
        assert scores.mean() >= report.expectation_floor - slack


class TestRoundCut:
    def test_p3_attains_trivial_optimum(self):
        qm = build_q(fixtures.path_graph(3))
        sol = solve_cut_sdp(qm)
        best, report = round_cut(qm, sol, trials=100, seed=5)
        opt = exact_cut(qm).opt_value
        assert best.score == pytest.approx(opt, abs=1e-9)
        assert best.partition.k <= 2
        assert report.k_star == 1

    def test_c4_attains_optimum(self):
        qm = build_q(fixtures.cycle_graph(4))
        sol = solve_cut_sdp(qm)
        best, _ = round_cut(qm, sol, trials=100, seed=9)
        assert best.score == pytest.approx(0.0, abs=1e-9)

    def test_identical_embedding_single_cluster(self):
        qm = build_q(fixtures.cycle_graph(4))
        vectors = np.ones((4, 1))
        out = hyperplane_round(qm, vectors, 1, seed=0)
        assert out.partition.k == 1
        assert out.score == pytest.approx(0.0, abs=1e-12)

    def test_kind_mismatch_rejected(self):
        qm = build_q(fixtures.cycle_graph(4))
        sol = solve_full_sdp(qm)
        with pytest.raises(ValueError):
            round_cut(qm, sol, trials=10, seed=0)

    def test_certificate_uses_published_budget(self):
        qm = build_q(fixtures.path_graph(4))
        sol = solve_cut_sdp(qm)
        _, report = round_cut(qm, sol, trials=10, seed=0)
        assert report.additive_certificate == pytest.approx(
            sol.objective - 0.16598, abs=1e-15
        )

    def test_expectation_floor_holds(self):
        qm = build_q(fixtures.path_graph(4))
        sol = solve_cut_sdp(qm)
        vectors = sol.factor
        scores = np.concatenate(
            [s for _, _, s in _trial_blocks(qm, vectors, 1, 10_000, seed=77)]
        )
        _, report = round_cut(qm, sol, trials=1, seed=77)
        slack = 3.0 * scores.std(ddof=1) / math.sqrt(scores.size)
        assert scores.mean() >= report.expectation_floor - slack

    def test_floor_matches_envelopes(self):
        qm = build_q(fixtures.cycle_graph(4))
        sol = solve_cut_sdp(qm)
        _, report = round_cut(qm, sol, trials=5, seed=1)
        plus, _ = bounds.cut_envelopes(float(np.clip(2 * sol.z_plus - 1, -1, 1)))
        _, minus = bounds.cut_envelopes(float(np.clip(-1 - 2 * sol.z_minus, -1, 1)))
        assert report.expectation_floor == pytest.approx(plus + minus, abs=1e-15)


# Trial counts around the block boundary of the batched best-of-trials path.
BLOCK_COUNTS = (1, _TRIAL_BLOCK - 1, _TRIAL_BLOCK, _TRIAL_BLOCK + 1)
SEEDS = (0, 5, 2**64 - 1)


def _loop_bests(qm, vectors, k, seed, counts):
    """Per-trial reference: the best of the first c hyperplane_round trials
    for each c in ``counts``, a later trial winning only on a strictly
    greater score."""
    bests = {}
    best = None
    for t in range(max(counts)):
        out = hyperplane_round(qm, vectors, k, seed, trial=t)
        if best is None or out.score > best.score:
            best = out
        if t + 1 in counts:
            bests[t + 1] = best
    return bests


def _same_outcome(got, want):
    assert got.partition == want.partition
    assert got.score == want.score
    assert got.trial_seed == want.trial_seed
    assert got.k_used == want.k_used


FIXTURES = {
    "tri2": fixtures.two_triangle_bridge,
    "petersen": fixtures.petersen,
    "w_path": fixtures.weighted_two_path,
    "d_cycle": fixtures.directed_cycle,
    "b_path4": fixtures.bipartite_path4,
    "c4": lambda: fixtures.cycle_graph(4),
}
SOLVERS = {"full": solve_full_sdp, "cut": solve_cut_sdp}


def _relaxed(name, kind):
    # the vectors both rounding entry points cut: the solver's own factor
    qm = build_q(FIXTURES[name]())
    sol = SOLVERS[kind](qm)
    return qm, sol, sol.factor


class TestBatchedMatchesPerTrial:
    @pytest.mark.parametrize(
        "name, kind", [(name, "full") for name in FIXTURES] + [("c4", "cut")]
    )
    def test_block_boundaries_every_k(self, name, kind):
        qm, _, vectors = _relaxed(name, kind)
        for k in (1, 2, 3, 4):
            for seed in SEEDS:
                want = _loop_bests(qm, vectors, k, seed, BLOCK_COUNTS)
                for trials in BLOCK_COUNTS:
                    got = _best_of_trials(qm, vectors, k, trials, seed)
                    _same_outcome(got, want[trials])

    def test_trial_blocks_round_every_trial(self):
        qm, _, vectors = _relaxed("petersen", "full")
        trials = _TRIAL_BLOCK + 44
        # the two score sums differ only in summation order
        tol = 4.0 * qm.graph.n * qm.graph.n * np.finfo(float).eps
        for k in (1, 2, 3, 4):
            blocks = list(_trial_blocks(qm, vectors, k, trials, seed=5))
            assert [start for start, _, _ in blocks] == [0, _TRIAL_BLOCK]
            codes = np.concatenate([c for _, c, _ in blocks])
            scores = np.concatenate([s for _, _, s in blocks])
            assert codes.shape == (trials, qm.graph.n)
            for t in range(trials):
                want = hyperplane_round(qm, vectors, k, seed=5, trial=t)
                assert Partition.from_labels(codes[t]) == want.partition
                assert abs(scores[t] - want.score) <= tol

    def test_winners_past_the_first_block(self):
        qm, _, vectors = _relaxed("petersen", "full")
        late = 0
        for k in (1, 2, 3, 4):
            for seed in SEEDS:
                want = _loop_bests(qm, vectors, k, seed, (2000,))[2000]
                _same_outcome(_best_of_trials(qm, vectors, k, 2000, seed), want)
                late += want.trial_seed[1] >= _TRIAL_BLOCK
        # later blocks must draw their own trials' streams, so some winner
        # has to come from one of them for this test to check that
        assert late > 0

    def test_identical_vectors_keep_the_first_trial(self):
        # every trial yields the single cluster, so every later trial ties
        qm = build_q(fixtures.cycle_graph(4))
        vectors = np.ones((4, 1))
        for k in (1, 2, 3, 4):
            for seed in SEEDS:
                for trials in BLOCK_COUNTS + (2000,):
                    best = _best_of_trials(qm, vectors, k, trials, seed)
                    assert best.trial_seed == (seed, 0)
                    assert best.partition.k == 1

    @pytest.mark.parametrize("name", FIXTURES)
    def test_round_full(self, name):
        qm, sol, vectors = _relaxed(name, "full")
        k_star = select_k_star(float(np.clip(sol.z_plus, 0.0, 1.0)), qm.graph.n)
        counts = BLOCK_COUNTS + (2000,)
        for seed in SEEDS:
            want = _loop_bests(qm, vectors, k_star, seed, counts)
            for trials in counts:
                best, report = round_full(qm, sol, trials=trials, seed=seed)
                _same_outcome(best, want[trials])
                assert report.best_score == want[trials].score

    @pytest.mark.parametrize("name", ["tri2", "petersen", "w_path", "c4"])
    def test_round_cut(self, name):
        qm, sol, vectors = _relaxed(name, "cut")
        counts = BLOCK_COUNTS + (2000,)
        for seed in SEEDS:
            want = _loop_bests(qm, vectors, 1, seed, counts)
            for trials in counts:
                best, report = round_cut(qm, sol, trials=trials, seed=seed)
                _same_outcome(best, want[trials])
                assert report.best_score == want[trials].score
