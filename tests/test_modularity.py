import numpy as np
import pytest

from modkit import Partition, build_q, degrees, modularity
from modkit.modularity import first_best

import fixtures


def definitional_modularity(g, part: Partition) -> float:
    """Independent oracle: sum over communities of m_C/m - (D_C/(2m))^2."""
    m = g.m
    inside = [0.0] * part.k
    deg_sum = [0.0] * part.k
    d = degrees(g)
    for v in range(g.n):
        deg_sum[part.assign[v]] += d[v]
    for i, j, _ in g.edges:
        if part.assign[i] == part.assign[j]:
            inside[part.assign[i]] += 1.0
    return sum(
        inside[c] / m - (deg_sum[c] / (2.0 * m)) ** 2 for c in range(part.k)
    )


def random_partition(rng, n: int) -> Partition:
    k = int(rng.integers(1, n + 1))
    labels = rng.integers(0, k, size=n)
    return Partition.from_labels(labels)


class TestPartition:
    def test_from_labels_compacts(self):
        p = Partition.from_labels([7, 7, 2, 9, 2])
        assert p.assign == (0, 0, 1, 2, 1)
        assert p.k == 3

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            Partition(assign=(0, 2), k=2)  # id 1 missing
        with pytest.raises(ValueError):
            Partition(assign=(), k=0)

    def test_communities(self):
        p = Partition.from_labels([0, 1, 0])
        assert p.communities() == [[0, 2], [1]]


class TestBuildQ:
    def test_k2_matrix(self):
        qm = build_q(fixtures.k2())
        assert np.allclose(
            qm.entries, [[-0.25, 0.25], [0.25, -0.25]], atol=1e-15
        )
        assert qm.q_mass == pytest.approx(0.5, abs=1e-15)

    def test_c4_positive_mass(self):
        qm = build_q(fixtures.cycle_graph(4))
        assert qm.q_mass == pytest.approx(0.5, abs=1e-12)

    def test_k4_positive_mass(self):
        qm = build_q(fixtures.complete_graph(4))
        assert qm.q_mass == pytest.approx(0.25, abs=1e-12)

    def test_regular_graph_identity(self):
        # d-regular with m = (alpha/2) n^2 has positive mass 1 - alpha
        for g in [
            fixtures.cycle_graph(4),
            fixtures.cycle_graph(6),
            fixtures.complete_graph(4),
            fixtures.complete_graph(6),
            fixtures.petersen(),
        ]:
            qm = build_q(g)
            alpha = 2.0 * g.m / (g.n * g.n)
            assert qm.q_mass == pytest.approx(1.0 - alpha, abs=1e-12)

    def test_entries_sum_to_zero(self):
        for name, g in fixtures.named_fixtures():
            qm = build_q(g)
            assert abs(qm.entries.sum()) <= 1e-12 * g.n * g.n, name
            assert np.array_equal(qm.entries, qm.entries.T), name

    def test_undirected_diagonal_nonpositive(self):
        g = fixtures.two_triangle_bridge()
        qm = build_q(g)
        d = degrees(g)
        assert np.all(np.diag(qm.entries) <= 0)
        assert np.allclose(
            np.diag(qm.entries), -(d**2) / (4.0 * g.m**2), atol=1e-15
        )

    def test_entries_read_only(self):
        qm = build_q(fixtures.k2())
        with pytest.raises(ValueError):
            qm.entries[0, 0] = 1.0

    def test_weighted_formula(self):
        g = fixtures.weighted_two_path()
        qm = build_q(g)
        s = degrees(g)
        w_total = g.total_weight
        want_01 = 2.5 / (2 * w_total) - s[0] * s[1] / (4 * w_total**2)
        assert qm.entries[0, 1] == pytest.approx(want_01, abs=1e-15)
        assert qm.scale == pytest.approx(3.0)

    def test_directed_symmetrized(self):
        g = fixtures.directed_cycle(3)
        qm = build_q(g)
        # arc 0->1 contributes 1/3 at (0,1); no arc 1->0; null term 1/9 both ways
        assert qm.entries[0, 1] == pytest.approx(
            0.5 * ((1 / 3 - 1 / 9) + (0 - 1 / 9)), abs=1e-15
        )
        assert np.allclose(np.diag(qm.entries), -1.0 / 9.0, atol=1e-15)

    def test_degenerate_instances_rejected(self):
        # a bipartite star and a directed out-star both produce an
        # identically-zero coefficient matrix
        from modkit import Graph

        b_star = Graph(
            n=3,
            edges=((0, 1, 1.0), (0, 2, 1.0)),
            variant="bipartite",
            part=("left", "right", "right"),
        )
        with pytest.raises(ValueError, match="degenerate"):
            build_q(b_star)
        with pytest.raises(ValueError, match="degenerate"):
            build_q(fixtures.directed_star())

    def test_bipartite_within_side_zero(self):
        qm = build_q(fixtures.bipartite_path4())
        # sides are {0, 2} and {1, 3}: within-side pairs carry no coefficient
        assert qm.entries[0, 2] == 0.0
        assert qm.entries[1, 3] == 0.0
        assert np.all(np.diag(qm.entries) == 0.0)
        assert qm.q_mass == pytest.approx(2.0 / 9.0, abs=1e-12)


class TestModularity:
    def test_single_cluster_scores_zero(self):
        for name, g in fixtures.named_fixtures():
            qm = build_q(g)
            p = Partition.from_labels([0] * g.n)
            assert modularity(qm, p) == pytest.approx(0.0, abs=1e-12), name

    def test_k2_split(self):
        qm = build_q(fixtures.k2())
        p = Partition.from_labels([0, 1])
        assert modularity(qm, p) == pytest.approx(-0.5, abs=1e-15)

    def test_two_triangle_split(self):
        qm = build_q(fixtures.two_triangle_bridge())
        p = Partition.from_labels([0, 0, 0, 1, 1, 1])
        assert modularity(qm, p) == pytest.approx(0.357142857142857, abs=1e-12)

    def test_dimension_mismatch_rejected(self):
        qm = build_q(fixtures.k2())
        with pytest.raises(ValueError):
            modularity(qm, Partition.from_labels([0, 1, 2]))

    def test_matches_definitional_formula(self):
        rng = np.random.default_rng(4)
        graphs = [g for _, g in fixtures.random_corpus(count=12)]
        graphs += [fixtures.two_triangle_bridge(), fixtures.petersen()]
        for g in graphs:
            qm = build_q(g)
            for _ in range(5):
                p = random_partition(rng, g.n)
                assert modularity(qm, p) == pytest.approx(
                    definitional_modularity(g, p), abs=1e-10
                )

    def test_directed_matches_raw_double_sum(self):
        g = fixtures.directed_cycle(3)
        qm = build_q(g)
        d_out, d_in = degrees(g)
        raw = np.zeros((3, 3))
        for i, j, _ in g.edges:
            raw[i, j] += 1.0
        raw = raw / g.m - np.outer(d_out, d_in) / g.m**2
        p = Partition.from_labels([0, 0, 1])
        want = sum(
            raw[i, j]
            for i in range(3)
            for j in range(3)
            if p.assign[i] == p.assign[j]
        )
        assert modularity(qm, p) == pytest.approx(want, abs=1e-15)
        assert want == pytest.approx(-2.0 / 9.0, abs=1e-15)

    def test_always_below_one(self):
        rng = np.random.default_rng(11)
        for _, g in fixtures.random_corpus(count=20):
            qm = build_q(g)
            for _ in range(10):
                assert modularity(qm, random_partition(rng, g.n)) < 1.0


class TestQSplit:
    def test_masses_balance(self):
        for name, g in fixtures.named_fixtures():
            qm = build_q(g)
            pos = qm.entries >= 0
            tol = 1e-12 * g.n * g.n
            pos_sum = qm.entries[pos].sum()
            neg_sum = qm.entries[~pos].sum()
            assert abs(pos_sum - qm.q_mass) <= tol, name
            assert abs(neg_sum + qm.q_mass) <= tol, name

    def test_star_positive_mass(self):
        qm = build_q(fixtures.star_graph(3))
        assert qm.q_mass == pytest.approx(0.5, abs=1e-12)


class TestFirstBest:
    """first_best numbers each row by its position among all rows given,
    keeps the first of equal scores and returns its own copy of the row."""

    @staticmethod
    def _blocks(*scores):
        # row i of the whole sequence has codes [i, i]
        start = 0
        for block in scores:
            numbers = np.arange(start, start + len(block))
            yield np.column_stack([numbers, numbers]), np.array(block, float)
            start += len(block)

    def test_number_is_the_position_across_uneven_blocks(self):
        number, codes, score = first_best(self._blocks([0.1], [0.2, 0.5, 0.3], [0.4, 0.0]))
        assert (number, codes.tolist(), score) == (2, [2, 2], 0.5)
        number, _, score = first_best(self._blocks([0.1, 0.2], [0.3], [0.0, 0.0, 0.9]))
        assert (number, score) == (5, 0.9)

    def test_a_tie_in_a_block_keeps_the_earlier_row(self):
        number, codes, _ = first_best(self._blocks([0.1, 0.7, 0.2, 0.7]))
        assert number == 1 and codes.tolist() == [1, 1]

    def test_a_later_block_wins_only_on_a_greater_score(self):
        assert first_best(self._blocks([0.1, 0.7], [0.7, 0.2]))[0] == 1
        assert first_best(self._blocks([0.1, 0.7], [0.2, np.nextafter(0.7, 1.0)]))[0] == 3

    def test_codes_are_a_copy(self):
        first = np.array([[1, 2], [3, 4]])
        blocks = [(first, np.array([0.9, 0.1])), (np.array([[5, 6]]), np.array([0.5]))]

        def overwritten():
            for codes, scores in blocks:
                yield codes, scores
                codes[:] = -1  # a producer may reuse its buffer

        _, codes, _ = first_best(overwritten())
        assert codes.tolist() == [1, 2]
