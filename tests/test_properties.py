"""Property tests of the reported certificates on random graphs."""

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


@PROPERTY_SETTINGS
@given(g=graphs(), max_iters=MAX_ITERS, seed=st.integers(0, 2**64 - 1))
def test_full_upper_bound_dominates(g, max_iters, seed):
    qm = _coefficients(g)
    sol = solve_full_sdp(qm, SolverOptions(max_iters=max_iters))
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
    best, report = round_cut(qm, sol, trials=20, seed=seed)
    assert report.relaxation_value == sol.objective
    assert report.upper_bound >= report.best_score == best.score
    assert report.upper_bound >= report.relaxation_value
    assert report.expectation_floor >= report.additive_certificate - 1e-12
    assert best.partition.k <= 2
