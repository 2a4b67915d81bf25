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
from modkit import rounding
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

    def test_rejects_bad_trial(self):
        qm = build_q(fixtures.k2())
        vectors = np.ones((2, 1))
        for trial in (True, 1.5, "3", None):
            with pytest.raises(TypeError):
                hyperplane_round(qm, vectors, 1, seed=0, trial=trial)
        # the last trial of block 2**64 - 1 is the last one there is
        last = (1 << 64) * _TRIAL_BLOCK - 1
        assert hyperplane_round(qm, vectors, 1, 0, trial=last).trial_seed == (0, last)
        for trial in (-1, last + 1, 2**80):
            with pytest.raises(ValueError):
                hyperplane_round(qm, vectors, 1, seed=0, trial=trial)

    def test_numpy_int_trial_reported_as_int(self):
        qm = build_q(fixtures.k2())
        vectors = np.array([[1.0, 0.0], [0.0, 1.0]])
        out = hyperplane_round(qm, vectors, 2, seed=4, trial=np.int64(300))
        assert out.trial_seed == (4, 300) and type(out.trial_seed[1]) is int
        assert out == hyperplane_round(qm, vectors, 2, seed=4, trial=300)

    @pytest.mark.parametrize("seed, error", [
        (1.5, TypeError), (True, TypeError), (-1, ValueError), (2**64, ValueError),
    ])
    def test_rejects_bad_seed(self, seed, error):
        # the seeds `modkit --seed` accepts, from every entry point
        qm = build_q(fixtures.cycle_graph(4))
        full, cut = solve_full_sdp(qm), solve_cut_sdp(qm)
        with pytest.raises(error):
            hyperplane_round(qm, full.factor, 1, seed=seed)
        with pytest.raises(error):
            round_full(qm, full, trials=5, seed=seed)
        with pytest.raises(error):
            round_cut(qm, cut, trials=5, seed=seed)

    @pytest.mark.parametrize("trials, error", [
        (True, TypeError), (2.0, TypeError), (0, ValueError),
    ])
    def test_rejects_bad_trials(self, trials, error):
        # the trial counts `modkit --trials` accepts, from both round_*
        qm = build_q(fixtures.cycle_graph(4))
        full, cut = solve_full_sdp(qm), solve_cut_sdp(qm)
        with pytest.raises(error):
            round_full(qm, full, trials=trials, seed=0)
        with pytest.raises(error):
            round_cut(qm, cut, trials=trials, seed=0)

    def test_numpy_int_seed_reported_as_int(self):
        qm = build_q(fixtures.cycle_graph(4))
        sol = solve_full_sdp(qm)
        last = 2**64 - 1
        out = hyperplane_round(qm, sol.factor, 2, seed=np.uint64(last), trial=3)
        assert out.trial_seed == (last, 3) and type(out.trial_seed[0]) is int
        assert out == hyperplane_round(qm, sol.factor, 2, seed=last, trial=3)
        best, report = round_full(qm, sol, trials=np.int64(5), seed=np.uint64(last))
        assert type(report.seed) is int and type(best.trial_seed[0]) is int
        assert type(report.trials) is int
        assert (best, report) == round_full(qm, sol, trials=5, seed=last)

    def test_separation_law_pi_third_two_planes(self):
        # pair at angle pi/3 with two hyperplanes stays together with
        # probability (2/3)^2 = 4/9
        qm = build_q(fixtures.k2())
        vecs = np.array([[1.0, 0.0], [0.5, math.sqrt(3.0) / 2.0]])
        trials = 100_000
        together = sum(
            int((codes[:, 0] == codes[:, 1]).sum())
            for codes, _ in _trial_blocks(qm, vecs, 2, trials, seed=123)
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
            [s for _, s in _trial_blocks(qm, vectors, k_star, 10_000, seed=2024)]
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
            [s for _, s in _trial_blocks(qm, vectors, 1, 10_000, seed=77)]
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


def _same_trials(qm, vectors, k, blocks, trials):
    """The (codes, scores) ``blocks`` round trials 0..trials-1 of seed 5
    as ``hyperplane_round`` does, each score with the same bits."""
    codes = np.concatenate([c for c, _ in blocks])
    scores = np.concatenate([s for _, s in blocks])
    assert codes.shape == (trials, qm.graph.n)
    for t in range(trials):
        want = hyperplane_round(qm, vectors, k, seed=5, trial=t)
        assert Partition.from_labels(codes[t]) == want.partition
        # one scorer: the same bits in a block as for one trial
        assert scores[t] == want.score


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
        for k in (1, 2, 3, 4):
            blocks = list(_trial_blocks(qm, vectors, k, trials, seed=5))
            assert [len(c) for c, _ in blocks] == [_TRIAL_BLOCK, 44]
            _same_trials(qm, vectors, k, blocks, trials)

    def test_byte_budget_sizes_the_blocks(self, monkeypatch):
        # a block's mask may take _TRIAL_BYTES, one byte per vertex pair
        # and trial, with at least one trial per block
        qm, _, vectors = _relaxed("petersen", "full")
        pairs = qm.graph.n ** 2
        want = {k: _best_of_trials(qm, vectors, k, 300, seed=5) for k in (1, 3)}
        # the largest power of two within the budget: 7 blocks' worth makes 4
        for budget, size in ((1, 1), (7 * pairs + 1, 4), (10**9, _TRIAL_BLOCK)):
            monkeypatch.setattr(rounding, "_TRIAL_BYTES", budget)
            for k in (1, 3):
                blocks = list(_trial_blocks(qm, vectors, k, 300, seed=5))
                sizes = [len(codes) for codes, _ in blocks]
                assert sizes[:-1] == [size] * (len(sizes) - 1) and 0 < sizes[-1] <= size
                _same_outcome(_best_of_trials(qm, vectors, k, 300, seed=5), want[k])

    def test_blocks_tile_the_draws(self, monkeypatch):
        # a block of a power of two trials divides a draw of 256, so no
        # block spans two draws, and every trial is the one it would be alone
        qm, _, vectors = _relaxed("petersen", "full")
        monkeypatch.setattr(rounding, "_TRIAL_BYTES", 7 * qm.graph.n ** 2 + 1)
        for k in (1, 3):
            blocks = list(_trial_blocks(qm, vectors, k, 300, seed=5))
            sizes = [len(codes) for codes, _ in blocks]
            ends = np.cumsum(sizes)
            starts = ends - sizes
            assert (starts // _TRIAL_BLOCK == (ends - 1) // _TRIAL_BLOCK).all()
            _same_trials(qm, vectors, k, blocks, 300)

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


class TestTrialStream:
    """Trial t of seed s is row t % 256 of the (256, k, r) standard normals
    drawn from Philox key s, counter (0, 0, 0, t // 256), built here
    without the module's helpers."""

    @staticmethod
    def _directions(seed, k, width, t):
        block = np.random.Philox(key=seed, counter=[0, 0, 0, t // 256])
        return np.random.Generator(block).standard_normal((256, k, width))[t % 256]

    @pytest.mark.parametrize("width", [3, 7])
    @pytest.mark.parametrize("k", [1, 3])
    def test_hyperplane_round_reads_its_row(self, k, width):
        qm = build_q(fixtures.petersen())
        vectors = np.random.default_rng(width).standard_normal((qm.graph.n, width))
        for seed in (0, 2**64 - 1):
            for t in (0, 255, 256, 257, 511, 2000):
                dirs = self._directions(seed, k, width, t)
                codes = ((vectors @ dirs.T) >= 0.0) @ (1 << np.arange(k))
                got = hyperplane_round(qm, vectors, k, seed, trial=t)
                assert got.partition == Partition.from_labels(codes)
                assert got.trial_seed == (seed, t)

    def test_last_block_keeps_its_counter(self):
        # a block index past 2**63 is drawn at that exact counter
        qm = build_q(fixtures.petersen())
        vectors = np.random.default_rng(0).standard_normal((qm.graph.n, 4))
        for block in (2**63 + 5, 2**64 - 1):
            counter = np.array([0, 0, 0, block], dtype=np.uint64)
            gen = np.random.Generator(np.random.Philox(key=9, counter=counter))
            dirs = gen.standard_normal((256, 3, 4))[255]
            codes = ((vectors @ dirs.T) >= 0.0) @ (1 << np.arange(3))
            got = hyperplane_round(qm, vectors, 3, 9, trial=block * 256 + 255)
            assert got.partition == Partition.from_labels(codes)

    def test_one_draw_per_block_of_trials(self, monkeypatch):
        # the rounding hot spot: one standard_normal call per 256 trials,
        # not one per trial. Generator is an immutable extension type, so a
        # subclass stands in for it to count the calls.
        qm, _, vectors = _relaxed("petersen", "full")
        calls = []

        class Counted(np.random.Generator):
            def standard_normal(self, *args, **kwargs):
                calls.append(args)
                return super().standard_normal(*args, **kwargs)

        monkeypatch.setattr(np.random, "Generator", Counted)
        for trials in (1, 255, 256, 257, 2000):
            calls.clear()
            for _ in _trial_blocks(qm, vectors, 3, trials, seed=5):
                pass
            assert len(calls) == -(-trials // 256)
        assert len(calls) == 8
