import itertools

import numpy as np
import pytest

from modkit import (
    Graph,
    build_q,
    exact_cut,
    exact_full,
    modularity,
    round_cut,
    round_full,
    solve_cut_sdp,
    solve_full_sdp,
)
from modkit import exact
from modkit.exact import _dive, _filter_margin, _rgs_blocks, _rgs_leaves, bell_number
from modkit.modularity import Partition, code_scores

import fixtures


def _set_partitions(n):
    """Every set partition of range(n) as labels, each at most one above
    every label before it, in lexicographic order."""
    rows = [[]]
    for _ in range(n):
        rows = [row + [c] for row in rows for c in range(max(row, default=-1) + 2)]
    return rows


def _bipartitions(n):
    """Every unordered bipartition of range(n), vertex n-1 on side 0."""
    return [[(mask >> v) & 1 for v in range(n)] for mask in range(2 ** (n - 1))]


def _kept_places(plain, blocks):
    """The place in ``plain``, an enumeration as lists of labels, of each
    row of the (codes, scores) ``blocks``, in the order the blocks give."""
    place = {tuple(row): i for i, row in enumerate(plain)}
    return [place[tuple(row)] for codes, _ in blocks for row in codes.tolist()]


def _score(q, labels):
    """The partition score summed pair by pair, without the package."""
    n = len(labels)
    return sum(q[i][j] for i in range(n) for j in range(n) if labels[i] == labels[j])


def _complete_bipartite(a, b):
    return Graph(n=a + b, edges=tuple((i, j, 1.0) for i in range(a) for j in range(a, a + b)),
                 variant="undirected")


def _small_graphs(max_n):
    return [(name, g) for name, g in fixtures.named_fixtures() + fixtures.random_corpus()
            if g.n <= max_n]


class TestBellNumber:
    def test_known_values(self):
        assert [bell_number(n) for n in range(6)] == [1, 1, 2, 5, 15, 52]
        assert bell_number(8) == 4140
        assert bell_number(12) == 4213597


class TestExactFull:
    def test_k2(self):
        res = exact_full(build_q(fixtures.k2()))
        assert res.opt_value == pytest.approx(0.0, abs=1e-15)
        assert res.opt_partition.k == 1
        assert res.enumerated == 2

    def test_two_triangle_bridge(self):
        res = exact_full(build_q(fixtures.two_triangle_bridge()))
        assert res.opt_value == pytest.approx(0.357142857142857, abs=1e-12)
        assert res.opt_partition.assign == (0, 0, 0, 1, 1, 1)
        assert res.enumerated == 203  # Bell(6)

    def test_k4_clique_stays_whole(self):
        res = exact_full(build_q(fixtures.complete_graph(4)))
        assert res.opt_value == pytest.approx(0.0, abs=1e-12)
        assert res.opt_partition.k == 1
        assert res.enumerated == 15  # Bell(4)

    def test_limit_guard(self):
        qm = build_q(fixtures.cycle_graph(13))
        with pytest.raises(ValueError, match="Bell"):
            exact_full(qm)
        res = exact_full(build_q(fixtures.cycle_graph(4)), limit=4)
        assert res.enumerated == 15

    def test_optimum_is_achieved_by_reported_partition(self):
        for name, g in fixtures.random_corpus(count=8):
            qm = build_q(g)
            res = exact_full(qm)
            assert modularity(qm, res.opt_partition) == pytest.approx(
                res.opt_value, abs=1e-12
            ), name
            assert res.enumerated == bell_number(g.n)


class TestExactCut:
    def test_k2(self):
        res = exact_cut(build_q(fixtures.k2()))
        assert res.opt_value == pytest.approx(0.0, abs=1e-15)
        assert res.enumerated == 2

    def test_c4(self):
        res = exact_cut(build_q(fixtures.cycle_graph(4)))
        assert res.opt_value == pytest.approx(0.0, abs=1e-12)
        assert res.enumerated == 8

    def test_p3_trivial_bipartition_wins(self):
        # both proper cuts of the 3-path score below zero; the whole-set
        # bipartition (empty second side) is optimal at 0
        res = exact_cut(build_q(fixtures.path_graph(3)))
        assert res.opt_value == pytest.approx(0.0, abs=1e-15)
        assert res.opt_partition.k == 1

    def test_p4_middle_split(self):
        res = exact_cut(build_q(fixtures.path_graph(4)))
        assert res.opt_value == pytest.approx(1.0 / 6.0, abs=1e-12)
        assert res.opt_partition.assign == (0, 0, 1, 1)

    def test_limit_guard(self):
        qm = build_q(fixtures.cycle_graph(21))
        with pytest.raises(ValueError, match="bipartitions"):
            exact_cut(qm)

    def test_cut_below_full_and_nonnegative(self):
        for name, g in fixtures.random_corpus(count=10):
            qm = build_q(g)
            full = exact_full(qm)
            cut = exact_cut(qm)
            assert 0.0 <= cut.opt_value <= full.opt_value + 1e-12, name
            assert cut.opt_value <= 0.5 + 1e-12, name
            assert modularity(qm, cut.opt_partition) == pytest.approx(
                cut.opt_value, abs=1e-12
            )

    def test_opt_below_one_minus_inverse_n(self):
        for name, g in fixtures.named_fixtures():
            if g.variant != "undirected":
                continue
            res = exact_full(build_q(g))
            assert res.opt_value <= 1.0 - 1.0 / g.n + 1e-12, name


class TestAgainstPlainEnumeration:
    """The oracles share the package's scorer, so they are checked here
    against an enumeration and a pair sum of their own."""

    @pytest.mark.parametrize("oracle, candidates, count", [
        (exact_full, _set_partitions, bell_number),
        (exact_cut, _bipartitions, lambda n: 2 ** (n - 1)),
    ], ids=["full", "cut"])
    def test_optimum_and_count(self, oracle, candidates, count):
        for name, g in _small_graphs(7):
            q = build_q(g).entries.tolist()
            rows = candidates(g.n)
            want = max(_score(q, row) for row in rows)
            res = oracle(build_q(g))
            assert abs(res.opt_value - want) <= 1e-12, name
            assert abs(_score(q, res.opt_partition.assign) - want) <= 1e-12, name
            assert res.enumerated == len(rows) == count(g.n), name

    def test_blocks_list_every_candidate_in_order(self):
        for n in range(2, 8):
            qm = build_q(fixtures.path_graph(n))
            # full: all labels over the vertices in order; cut: two labels
            # over the reversed order, so that a string's place is its mask
            for labels, step, want, budgets in (
                (n, 1, _set_partitions(n), (1, 3, bell_number(n) + 1)),
                (2, -1, _bipartitions(n), (1, 3, 2 ** n)),
            ):
                for budget in budgets:
                    # before the filter: every string once, in order, in
                    # chunks of at most max(budget, n)
                    chunks = list(_rgs_leaves(qm.entries[::step, ::step], budget, labels))
                    assert all(len(label) <= max(budget, n) for _, _, label, _ in chunks)
                    rows = np.concatenate([np.column_stack([prefixes[parent], label])
                                           for prefixes, parent, label, _ in chunks])
                    assert rows[:, ::step].tolist() == want, (n, labels, budget)
                    # after it: the rows kept, each once and in that order
                    places = _kept_places(want, _rgs_blocks(qm, budget, labels, step, len(want)))
                    assert (np.diff(places) > 0).all(), (n, labels, budget)


class TestBlockSizeInvariance:
    @pytest.mark.parametrize("size", ["one", "n"])
    def test_same_answer_for_any_block(self, size, monkeypatch):
        graphs = _small_graphs(8)
        want = {name: (exact_full(build_q(g)), exact_cut(build_q(g)))
                for name, g in graphs}
        for name, g in graphs:
            block = 1 if size == "one" else g.n
            monkeypatch.setattr(exact, "_ROWS", block)
            got = (exact_full(build_q(g)), exact_cut(build_q(g)))
            assert got == want[name], name

    @pytest.mark.parametrize("rows", [1, 2, 5, 64])
    def test_chunks_fit_and_join_to_one_chunk(self, rows):
        # parents go in slices of rows // min(v + 1, labels), at least one,
        # so every chunk holds at most max(rows, n) strings; with or without
        # a fixed floor, the chunks join to the one-chunk enumeration, scores
        # bit for bit
        rng = np.random.default_rng(3)
        for full, sizes in ((True, range(1, 9)), (False, range(1, 11))):
            for n in sizes:
                q = rng.standard_normal((n, n))
                q += q.T
                labels = n if full else 2
                _, _, _, score = _one_chunk(q, labels)
                for floor in (None, lambda: np.median(score)):
                    chunks = list(_rgs_leaves(q, rows, labels, floor))
                    assert all(len(label) <= max(rows, n) for _, _, label, _ in chunks)
                    prefixes, parent, label, want = _one_chunk(q, labels, floor)
                    got = np.concatenate([np.column_stack([p[i], c]) for p, i, c, _ in chunks])
                    assert np.array_equal(got, np.column_stack([prefixes[parent], label]))
                    assert np.concatenate([s for *_, s in chunks]).tobytes() == want.tobytes()


def _one_chunk(q, labels, floor=None):
    """The strings of ``_rgs_leaves`` at a budget that takes each level in one
    chunk, as that chunk."""
    chunk, = _rgs_leaves(q, 1 << 20, labels, floor)
    return chunk


class TestIncrementalFilter:
    """Both oracles sum each string's score vertex by vertex and re-score
    with ``code_scores`` only the strings within the filter margin of the
    best sum so far."""

    def test_incremental_scores_within_half_the_margin(self):
        graphs = _small_graphs(8) + [("w10", fixtures.planted_weighted(10, 2, seed=5))]
        cases = [(name, g, labels, step) for name, g in graphs
                 for labels, step in ((g.n, 1), (2, -1))]
        cases.append(("w16", fixtures.planted_weighted(16, 2, seed=5), 2, -1))
        for name, g, labels, step in cases:
            qm = build_q(g)
            half = _filter_margin(qm.entries) / 2
            for prefixes, parent, label, score in _rgs_leaves(
                    qm.entries[::step, ::step], 4096, labels):
                codes = np.column_stack([prefixes[parent], label])[:, ::step]
                assert np.abs(score - code_scores(qm, codes)).max() <= half, (name, labels)

    @pytest.mark.parametrize("oracle, graph", [
        ("full", fixtures.cycle_graph(8)),
        ("full", Graph(n=8, edges=tuple((i + s, j + s, 1.0) for s in (0, 4)
                                        for i in range(4) for j in range(i + 1, 4)),
                       variant="undirected")),
        ("full", _complete_bipartite(3, 3)),
        ("cut", fixtures.cycle_graph(8)),
        ("cut", _complete_bipartite(3, 3)),
        ("cut", _complete_bipartite(4, 4)),
    ], ids=["c8", "two_k4", "k33", "cut_c8", "cut_k33", "cut_k44"])
    def test_ties_keep_the_first_best_string(self, oracle, graph, monkeypatch):
        # C8 and K3,3 tie at the top (8 and 15 strings with the same bits);
        # on the two cliques the filter passes 7 strings at a budget of 1.
        # Among bipartitions C8, K3,3 and K4,4 tie 4, 9 and 35 ways; on K3,3
        # the first in mask order is not the first over the vertices in order
        qm = build_q(graph)
        search, rows, labels, step = {
            "full": (exact_full, _set_partitions(graph.n), graph.n, 1),
            "cut": (exact_cut, _bipartitions(graph.n), 2, -1),
        }[oracle]
        scores = code_scores(qm, np.array(rows))
        first = int(np.argmax(scores))
        ties = int((scores == scores[first]).sum())
        for budget in (1, exact._ROWS):
            monkeypatch.setattr(exact, "_ROWS", budget)
            res = search(qm)
            assert res.opt_partition == Partition.from_labels(rows[first]), budget
            assert res.opt_value == scores[first], budget
            kept = sum(len(s) for _, s in _rgs_blocks(qm, budget, labels, step, len(rows)))
            assert kept >= ties, budget


def _keys(codes):
    """Each row of ``codes`` as one integer, its labels read as base-16
    digits, so that rows of labels below 16 sort lexicographically as
    their keys sort."""
    return codes.astype(np.int64) @ 16 ** np.arange(codes.shape[1] - 1, -1, -1)


def _every_string(q, labels):
    """Every restricted-growth string over ``q``'s vertices, as codes in
    enumeration order, with its incremental score."""
    chunks = list(_rgs_leaves(q, exact._ROWS, labels))
    codes = np.concatenate([np.column_stack([p[parent], label]) for p, parent, label, _ in chunks])
    return codes, np.concatenate([score for *_, score in chunks])


class TestBranchAndBound:
    """A search of more strings than ``rows`` starts from the dive's score
    and does not expand a prefix that cannot come within the margin of the
    best score so far; every string it skips is one the margin drops."""

    GRAPHS = _small_graphs(8) + [(f"w{n}", fixtures.planted_weighted(n, 2, seed=5))
                                 for n in (10, 11)]

    @pytest.mark.parametrize("oracle", ["full", "cut"])
    def test_keeps_every_string_near_the_best(self, oracle):
        for name, g in self.GRAPHS:
            qm = build_q(g)
            labels, step, count = ((g.n, 1, bell_number(g.n)) if oracle == "full"
                                   else (2, -1, 2 ** (g.n - 1)))
            q = qm.entries[::step, ::step]
            codes, score = _every_string(q, labels)
            keys = _keys(codes)
            # every string once, in lexicographic order
            assert len(keys) == count and (np.diff(keys) > 0).all(), name
            floor = score.max() - _filter_margin(q)
            near = keys[score >= floor]
            # the blocks, bounded at a budget of one string and not at n
            for rows in (1, g.n):
                kept = np.concatenate([_keys(c[:, ::step])
                                       for c, _ in _rgs_blocks(qm, rows, labels, step, count)])
                assert (np.diff(kept) > 0).all(), (name, rows)
                assert np.isin(near, kept).all(), (name, rows)
            # the enumeration at the highest floor the margin allows
            reached = [np.column_stack([p[parent], label])
                       for p, parent, label, _ in _rgs_leaves(q, exact._ROWS, labels, lambda: floor)]
            reached = np.concatenate(reached)
            assert np.isin(near, _keys(reached)).all(), name
            if g.n >= 10:
                assert len(reached) < len(codes) // 10, name

    def test_dive_score_has_the_enumeration_bits(self):
        for name, g in self.GRAPHS:
            for labels, step in ((g.n, 1), (2, -1)):
                q = build_q(g).entries[::step, ::step]
                codes, score = _every_string(q, labels)
                dive, dive_score = _dive(q, labels)
                k, = np.flatnonzero((codes == dive).all(1))
                assert score[k].hex() == dive_score.hex(), (name, labels)


def _triangle_lp(q):
    """A maximizer of sum_(i != j) q_ij x_ij over 0 <= x <= 1 and the
    triangle inequalities x_ab + x_bc - x_ac <= 1, by scipy's HiGHS, as a
    symmetric 0/1-or-fractional array with a zero diagonal."""
    from scipy.optimize import linprog
    from scipy.sparse import csr_matrix

    n = len(q)
    i, j = np.triu_indices(n, 1)
    pair = np.zeros((n, n), int)
    pair[i, j] = pair[j, i] = np.arange(len(i))
    a, b, c = np.array(list(itertools.combinations(range(n), 3))).reshape(-1, 3).T
    ab, ac, bc = pair[a, b], pair[a, c], pair[b, c]
    # each triangle's three rows: two pairs together force the third
    cols = np.concatenate([ab, ab, ac, bc, ac, bc, ac, bc, ab])
    count = 3 * len(a)
    rows = np.tile(np.arange(count), 3)
    signs = np.repeat([1.0, 1.0, -1.0], count)
    bounds = csr_matrix((signs, (rows, cols)), shape=(count, len(i)))
    res = linprog(-(q + q.T)[i, j], A_ub=bounds, b_ub=np.ones(count), bounds=(0, 1),
                  method="highs")
    assert res.status == 0, res.message
    x = np.zeros((n, n))
    x[i, j] = x[j, i] = res.x
    return x


class TestSoundnessPastTheOracles:
    """Past the default limits each bound still holds, with no tolerance: a
    failure is a soundness finding about the graph it names. The graphs
    were fixed before any result was seen."""

    @pytest.mark.parametrize("variant, n", [
        ("undirected", 21), ("weighted", 22), ("undirected", 23), ("weighted", 24),
    ])
    def test_cut_optimum_between_best_and_bound(self, variant, n):
        qm = build_q(fixtures.planted(variant, n, 2, seed=n))
        opt = exact_cut(qm, limit=24).opt_value
        _, report = round_cut(qm, solve_cut_sdp(qm), trials=200, seed=1)
        assert report.best_score <= opt <= report.upper_bound

    @pytest.mark.parametrize("variant, n", [
        ("undirected", 13), ("weighted", 14), ("directed", 15), ("bipartite", 16),
        ("undirected", 17), ("weighted", 18), ("directed", 19), ("bipartite", 20),
    ])
    def test_full_bound_above_the_lp_partition(self, variant, n):
        # The triangle LP is integral on all but directed n = 15, where some
        # x_ij are 1/2; its pairs above 1/2 give a feasible partition either
        # way, and where the LP is integral that partition is an optimum
        from scipy.sparse.csgraph import connected_components

        qm = build_q(fixtures.planted(variant, n, 3, seed=n))
        _, labels = connected_components(_triangle_lp(qm.entries) > 0.5, directed=False)
        assert solve_full_sdp(qm).upper_bound >= code_scores(qm, labels[None])[0]


def test_rounding_at_the_optimum_reports_its_bits():
    # one scorer: where 2000 rounding trials reach the optimum, best_score
    # and the oracle's opt are the same bits
    pairs = []
    for name, g in fixtures.named_fixtures() + fixtures.random_corpus():
        qm = build_q(g)
        _, full = round_full(qm, solve_full_sdp(qm), trials=2000, seed=1)
        pairs.append((name, "full", full.best_score, exact_full(qm).opt_value))
        if g.variant in ("undirected", "weighted"):
            _, cut = round_cut(qm, solve_cut_sdp(qm), trials=2000, seed=1)
            pairs.append((name, "cut", cut.best_score, exact_cut(qm).opt_value))
    reached = [p for p in pairs if abs(p[2] - p[3]) <= 1e-12]
    assert len(reached) > len(pairs) // 2
    assert [p for p in reached if p[2] != p[3]] == []
