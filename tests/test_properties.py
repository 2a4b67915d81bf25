"""Property tests of the reported certificates and of the solvers' unit-row
factors on random graphs."""

import numpy as np
from hypothesis import assume, given, reject, settings
from hypothesis import strategies as st

from modkit import (
    Graph,
    SolverOptions,
    build_q,
    round_cut,
    round_full,
    solve_cut_sdp,
    solve_full_sdp,
)

PROPERTY_SETTINGS = settings(max_examples=75, deadline=None, derandomize=True)


@st.composite
def graphs(draw, variants=("undirected", "weighted", "directed", "bipartite")):
    variant = draw(st.sampled_from(variants))
    n = draw(st.integers(2, 8))
    part = None
    if variant == "bipartite":
        part = tuple(draw(st.lists(st.sampled_from(["left", "right"]),
                                   min_size=n, max_size=n)))
    if variant == "directed":
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    else:
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if part is None or part[i] != part[j]]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    weights = draw(st.lists(st.integers(1, 16), min_size=len(pairs),
                            max_size=len(pairs)))
    edges = tuple(
        (i, j, w / 4.0 if variant == "weighted" else 1.0)
        for (i, j), kept, w in zip(pairs, keep, weights)
        if kept
    )
    assume(edges)
    return Graph(n=n, edges=edges, variant=variant, part=part)


MAX_ITERS = st.sampled_from([1, 5, 20, 50000])


def _coefficients(g):
    """build_q(g), or reject a graph whose coefficients all vanish: build_q
    refuses it, since every partition of it scores 0."""
    try:
        return build_q(g)
    except ValueError as exc:
        if "degenerate instance" not in str(exc):
            raise
        reject()


def _unit_rows(sol, n):
    """Assert that the factor has one unit row per vertex, and return the
    largest entry of |V V^T - gram|."""
    assert sol.factor.shape[0] == n
    assert np.abs(np.linalg.norm(sol.factor, axis=1) - 1.0).max() <= 1e-9
    return np.abs(sol.factor @ sol.factor.T - sol.gram).max()


@PROPERTY_SETTINGS
@given(g=graphs(), max_iters=MAX_ITERS, seed=st.integers(0, 2**64 - 1))
def test_full_upper_bound_dominates(g, max_iters, seed):
    qm = _coefficients(g)
    sol = solve_full_sdp(qm, SolverOptions(max_iters=max_iters))
    drift = _unit_rows(sol, g.n)
    # normalizing the rows moves no entry by more than the largest diagonal
    # entry's excess over 1, which the solver's convergence test keeps small
    assert drift <= sol.gram.diagonal().max() - 1.0 + 1e-12
    if sol.converged:
        assert drift <= 2.0 * SolverOptions().tol_feas
    best, report = round_full(qm, sol, trials=20, seed=seed)
    assert report.relaxation_value == sol.objective
    assert report.upper_bound >= report.best_score == best.score
    assert report.upper_bound >= report.relaxation_value
    assert report.expectation_floor >= report.additive_certificate - 1e-12


@PROPERTY_SETTINGS
@given(g=graphs(("undirected", "weighted")), max_iters=MAX_ITERS,
       seed=st.integers(0, 2**64 - 1))
def test_cut_upper_bound_dominates(g, max_iters, seed):
    qm = _coefficients(g)
    sol = solve_cut_sdp(qm, SolverOptions(max_iters=max_iters))
    assert _unit_rows(sol, g.n) == 0.0
    best, report = round_cut(qm, sol, trials=20, seed=seed)
    assert report.relaxation_value == sol.objective
    assert report.upper_bound >= report.best_score == best.score
    assert report.upper_bound >= report.relaxation_value
    assert report.expectation_floor >= report.additive_certificate - 1e-12
    assert best.partition.k <= 2
