"""Property tests of the reported certificates and of the solvers' unit-row
factors on random graphs."""

import numpy as np
from hypothesis import assume, example, given, reject, settings
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


def _factor_is_solution(qm, sol):
    """Assert that the factor V has one unit row per vertex and that the
    reported objective is that of V V^T."""
    assert sol.factor.shape[0] == qm.graph.n
    assert np.abs(np.linalg.norm(sol.factor, axis=1) - 1.0).max() <= 1e-9
    x = sol.factor @ sol.factor.T
    if sol.kind == "cut":
        objective = float((qm.entries * (x + 1.0)).sum()) / 2.0
    else:
        objective = float((qm.entries * x).sum())
    assert abs(sol.objective - objective) <= 1e-12


@PROPERTY_SETTINGS
@given(g=graphs(), max_iters=MAX_ITERS, seed=st.integers(0, 2**64 - 1))
# stopped early, V V^T has negative entries where Q < 0, so z_minus > 0
@example(
    g=Graph(n=8, edges=((0, 6, 1.0), (0, 7, 1.0), (1, 3, 1.0), (1, 6, 1.0),
                        (1, 7, 1.0), (3, 5, 1.0), (5, 7, 1.0)),
            variant="bipartite",
            part=("left", "left", "left", "right", "left", "left", "right", "right")),
    max_iters=20,
    seed=0,
)
def test_full_upper_bound_dominates(g, max_iters, seed):
    qm = _coefficients(g)
    sol = solve_full_sdp(qm, SolverOptions(max_iters=max_iters))
    _factor_is_solution(qm, sol)
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
    _factor_is_solution(qm, sol)
    best, report = round_cut(qm, sol, trials=20, seed=seed)
    assert report.relaxation_value == sol.objective
    assert report.upper_bound >= report.best_score == best.score
    assert report.upper_bound >= report.relaxation_value
    assert report.expectation_floor >= report.additive_certificate - 1e-12
    assert best.partition.k <= 2
