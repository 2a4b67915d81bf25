import functools
import re

import numpy as np
import pytest

from modkit import (
    Graph,
    GraphFormatError,
    SolverOptions,
    bounds,
    build_q,
    degrees,
    exact_cut,
    exact_full,
    hyperplane_round,
    parse_edge_list,
    render_edge_list,
    round_cut,
    round_full,
    select_k_star,
    solve_cut_sdp,
    solve_full_sdp,
)
from modkit.cli import main

import fixtures


class TestParse:
    def test_triangle(self):
        g = parse_edge_list("0 1\n1 2\n2 0", "undirected")
        assert g.n == 3 and g.m == 3
        assert g.variant == "undirected"

    def test_self_loop_rejected_with_line(self):
        with pytest.raises(GraphFormatError, match="line 1: self-loop"):
            parse_edge_list("0 0", "undirected")
        with pytest.raises(GraphFormatError, match="line 3: self-loop"):
            parse_edge_list("0 1\n1 2\n2 2", "undirected")
        with pytest.raises(GraphFormatError, match=r"line 2: edge \(-1, 2\) out of"):
            parse_edge_list("0 1\n-1 2", "undirected")
        with pytest.raises(GraphFormatError, match=r"line 3: edge \(1, -2\) out of"):
            parse_edge_list("# n: 3\n0 1\n1 -2", "directed")

    def test_weighted_total(self):
        g = parse_edge_list("0 1 2.5\n1 2 0.5", "weighted")
        assert g.total_weight == pytest.approx(3.0)

    def test_duplicate_undirected_rejected(self):
        with pytest.raises(
            GraphFormatError,
            match=r"^line 2: duplicate edge \(1, 0\), first seen on line 1$",
        ):
            parse_edge_list("0 1\n1 0", "undirected")
        with pytest.raises(
            GraphFormatError,
            match=r"^line 6: duplicate edge \(2, 1\), first seen on line 2$",
        ):
            parse_edge_list("0 1\n1 2\n\n# note\n2 3\n2 1", "undirected")

    def test_duplicate_directed_arc_rejected(self):
        with pytest.raises(
            GraphFormatError,
            match=r"^line 3: duplicate edge \(0, 1\), first seen on line 1$",
        ):
            parse_edge_list("0 1\n1 0\n0 1", "directed")

    def test_antiparallel_arcs_allowed(self):
        g = parse_edge_list("0 1\n1 0", "directed")
        assert g.m == 2

    def test_non_positive_weight_rejected(self):
        with pytest.raises(GraphFormatError, match="line 1: .*non-positive"):
            parse_edge_list("0 1 0.0", "weighted")
        with pytest.raises(GraphFormatError, match="line 2: .*non-positive"):
            parse_edge_list("0 1 1.0\n1 2 -1.5", "weighted")
        # non-finite weights are rejected as well
        for weight in ("nan", "inf", "-inf", "Infinity"):
            with pytest.raises(GraphFormatError, match="line 2: .*non-finite"):
                parse_edge_list(f"0 1 1.0\n1 2 {weight}", "weighted")

    def test_weight_on_unweighted_variant_rejected(self):
        with pytest.raises(GraphFormatError, match="line 1: .*weight 2.0"):
            parse_edge_list("0 1 2.0", "undirected")
        with pytest.raises(GraphFormatError, match="line 2: .*weight 0.5"):
            parse_edge_list("0 1 1\n1 2 0.5", "directed")
        with pytest.raises(GraphFormatError, match="line 3: .*weight 3.0"):
            parse_edge_list("# bipartite-left: 0\n0 1\n0 2 3", "bipartite")

    def test_empty_edge_set_rejected(self):
        with pytest.raises(GraphFormatError, match="m >= 1"):
            parse_edge_list("# just a comment\n\n", "undirected")

    def test_n_header_allows_isolated_vertices(self):
        g = parse_edge_list("# n: 5\n0 1", "undirected")
        assert g.n == 5
        d = degrees(g)
        assert list(d) == [1, 1, 0, 0, 0]

    def test_inconsistent_n_header_rejected(self):
        with pytest.raises(GraphFormatError, match="inconsistent"):
            parse_edge_list("# n: 2\n0 3", "undirected")

    def test_bipartite_needs_header(self):
        with pytest.raises(GraphFormatError, match="bipartite-left"):
            parse_edge_list("0 1", "bipartite")

    def test_bipartite_side_labels(self):
        g = parse_edge_list("# bipartite-left: 0 2\n0 1\n1 2\n2 3", "bipartite")
        assert g.part == ("left", "right", "left", "right")

    def test_bipartite_within_side_rejected(self):
        with pytest.raises(
            GraphFormatError, match=r"line 2: edge \(0, 1\) joins two left"
        ):
            parse_edge_list("# bipartite-left: 0 1\n0 1", "bipartite")
        with pytest.raises(
            GraphFormatError, match=r"line 3: edge \(3, 1\) joins two right"
        ):
            parse_edge_list("0 1\n0 3\n3 1\n# bipartite-left: 0", "bipartite")

    def test_unknown_variant_rejected(self):
        with pytest.raises(GraphFormatError, match="variant"):
            parse_edge_list("0 1", "mixed")

    def test_garbage_tokens_rejected(self):
        with pytest.raises(GraphFormatError, match="line 1"):
            parse_edge_list("a b", "undirected")
        with pytest.raises(GraphFormatError, match="line 1"):
            parse_edge_list("0 1 x", "weighted")
        with pytest.raises(GraphFormatError, match="line 2"):
            parse_edge_list("0 1\n1 2 3 4", "undirected")


class TestDegrees:
    def test_path(self):
        assert list(degrees(fixtures.path_graph(3))) == [1, 2, 1]

    def test_weighted_sums(self):
        s = degrees(fixtures.weighted_two_path())
        assert np.allclose(s, [2.5, 3.0, 0.5])

    def test_directed_star(self):
        d_out, d_in = degrees(fixtures.directed_star())
        assert list(d_out) == [2, 0, 0]
        assert list(d_in) == [0, 1, 1]

    def test_degree_sum_identity(self):
        for name, g in fixtures.named_fixtures():
            if g.variant == "directed":
                d_out, d_in = degrees(g)
                assert d_out.sum() == d_in.sum() == g.m, name
            else:
                total = 2.0 * g.total_weight
                assert degrees(g).sum() == pytest.approx(total, abs=1e-12), name


class TestRoundTrip:
    def test_named_fixtures(self):
        for name, g in fixtures.named_fixtures():
            assert parse_edge_list(render_edge_list(g), g.variant) == g, name

    def test_random_graphs(self):
        for name, g in fixtures.random_corpus(count=10):
            assert parse_edge_list(render_edge_list(g), g.variant) == g, name

    def test_weighted_precision(self):
        g = Graph(
            n=2, edges=((0, 1, 0.1 + 0.2),), variant="weighted"
        )
        back = parse_edge_list(render_edge_list(g), "weighted")
        assert back.edges[0][2] == g.edges[0][2]


class TestGraphType:
    def test_immutable(self):
        g = fixtures.k2()
        with pytest.raises(AttributeError):
            g.n = 5

    def test_direct_construction_validates(self):
        with pytest.raises(GraphFormatError):
            Graph(n=2, edges=(), variant="undirected")
        with pytest.raises(GraphFormatError):
            Graph(n=2, edges=((0, 1, 1.0),), variant="bipartite")
        sides = ("left", "right", "right")
        # (n, edges, variant, part, message, indices of the offending edges)
        bad = [
            (2, ((0, 0, 1.0),), "undirected", None, "self-loop", (0,)),
            (1, ((0, 1, 1.0),), "undirected", None, "out of range", (0,)),
            (3, ((0, 1, 1.0), (-1, 2, 1.0)), "directed", None, "out of range", (1,)),
            (3, ((0, 1, 1.0), (1, 2, 0.0)), "weighted", None, "non-positive", (1,)),
            (2, ((0, 1, -2.0),), "weighted", None, "non-positive", (0,)),
            (3, ((0, 1, 1.0), (1, 2, np.nan)), "weighted", None, "non-finite", (1,)),
            (2, ((0, 1, np.inf),), "weighted", None, "non-finite", (0,)),
            (3, ((0, 1, 1.0), (1, 2, 2.0)), "undirected", None, "weight 2.0", (1,)),
            (3, ((0, 1, 1.0), (1, 2, 1.0), (2, 1, 1.0)), "undirected", None,
             "duplicate", (1, 2)),
            (3, ((0, 1, 1.0), (0, 1, 1.0)), "directed", None, "duplicate", (0, 1)),
            (3, ((0, 1, 1.0), (1, 2, 1.0)), "bipartite", sides, "two right", (1,)),
        ]
        for n, edges, variant, part, message, where in bad:
            with pytest.raises(GraphFormatError, match=message) as exc:
                Graph(n=n, edges=edges, variant=variant, part=part)
            assert not str(exc.value).startswith("line"), message
            assert exc.value.edges == where, message

    def test_endpoints_must_be_ints(self):
        # int() would truncate a float and read a bool as vertex 0 or 1
        for value in (1.7, True, "1", None):
            for edge in ((0, value, 1.0), (value, 2, 1.0)):
                with pytest.raises(TypeError, match="^edge endpoint must be an int, not "):
                    Graph(n=3, edges=((0, 2, 1.0), edge), variant="undirected")
        g = Graph(n=3, edges=((np.int64(0), np.uint8(2), 1.0),), variant="undirected")
        assert g.edges == ((0, 2, 1.0),)
        assert [type(v) for v in g.edges[0][:2]] == [int, int]

    def test_weights_must_be_real(self):
        # float() would read "2.5" as 2.5 and a bool as 0.0 or 1.0
        for variant in ("weighted", "undirected"):
            for value in ("2.5", "1", True, np.True_, None):
                with pytest.raises(TypeError, match="^edge weight must be a real number, not "):
                    Graph(n=3, edges=((0, 2, 1.0), (1, 2, value)), variant=variant)
        g = Graph(n=3, edges=((0, 1, 2), (1, 2, np.float32(0.5))), variant="weighted")
        assert g.edges == ((0, 1, 2.0), (1, 2, 0.5))
        assert [type(e[2]) for e in g.edges] == [float, float]

    def test_edges_must_be_triples(self):
        # unpacking a pair failed with Python's own "not enough values"
        for edge in ((1, 2), (1, 2, 1.0, 1.0), 7, None):
            with pytest.raises(GraphFormatError, match=r"^edge 1 is not an \(i, j, w\) triple$") as exc:
                Graph(n=3, edges=((0, 1, 1.0), edge), variant="undirected")
            assert exc.value.edges == (1,)


@pytest.mark.parametrize("source, variant, message", [
    ("# n: x\n0 1\n", "undirected", "line 1: bad vertex count header"),
    ("# bipartite-left: a\n0 1\n", "bipartite", "line 1: bad bipartite-left header"),
    ("# bipartite-left: 0 2\n0 1\n", "bipartite",
     "bipartite-left header lists an out-of-range vertex"),
    (("left", "middle"), "bipartite", "side labels must be 'left' or 'right'"),
    (("left", "right"), "undirected", "side labels are only valid for bipartite graphs"),
], ids=["n_header", "left_header", "left_out_of_range", "unknown_side", "sides_not_bipartite"])
def test_header_and_side_label_errors(tmp_path, capsys, source, variant, message):
    # a header is read from edge-list text, which the CLI rejects with exit
    # code 2; side labels are given to Graph directly
    exact = f"^{re.escape(message)}$"
    if isinstance(source, tuple):
        with pytest.raises(GraphFormatError, match=exact):
            Graph(n=2, edges=((0, 1, 1.0),), variant=variant, part=source)
        return
    with pytest.raises(GraphFormatError, match=exact):
        parse_edge_list(source, variant)
    path = tmp_path / "g.txt"
    path.write_text(source)
    assert main(["solve", "--input", str(path), "--variant", variant]) == 2
    assert capsys.readouterr().err == f"modkit: error: {message}\n"


@functools.cache
def _c4():
    qm = build_q(fixtures.cycle_graph(4))
    return qm, solve_full_sdp(qm), solve_cut_sdp(qm)


def _round(kind, **kwargs):
    qm, full, cut = _c4()
    args = {"trials": 5, "seed": 0} | kwargs
    if kind == "full":
        return round_full(qm, full, **args)[1]
    return round_cut(qm, cut, **args)[1]


def _round_vertices(**kwargs):
    qm, full, _ = _c4()
    args = {"k": 2, "seed": 0, "trial": 0} | kwargs
    return hyperplane_round(qm, full.factor, **args)


# Every entry point that takes a count: (argument name in the message, the
# least value accepted, a valid value, the call on a value, and the value
# echoed back by the call, or None when the call stores none).
COUNTS = {
    "Graph-n": ("n", 1, 2,
                lambda v: Graph(n=v, edges=((0, 1, 1.0),), variant="undirected"),
                lambda g: g.n),
    "SolverOptions-max_iters": ("max_iters", 1, 5,
                                lambda v: SolverOptions(max_iters=v),
                                lambda o: o.max_iters),
    "f_k-k": ("k", 1, 2, lambda v: bounds.f_k(0.5, v), None),
    "h_k-k": ("k", 1, 2, lambda v: bounds.h_k(0.5, v), None),
    "g_k-k": ("k", 1, 2, lambda v: bounds.g_k(0.5, v), None),
    "g_table-k_hi": ("k_hi", 1, 3, lambda v: bounds.g_table(0.5, v).tolist(), None),
    "full_lower_bound_curve-k_max": (
        "k_max", 1, 3, lambda v: bounds.full_lower_bound_curve(0.5, k_max=v), None),
    "select_k_star-n": ("n", 1, 8, lambda v: select_k_star(0.5, v), None),
    "hyperplane_round-k": ("k", 1, 2, lambda v: _round_vertices(k=v),
                           lambda out: out.k_used),
    "hyperplane_round-trial": ("trial", 0, 3, lambda v: _round_vertices(trial=v),
                               lambda out: out.trial_seed[1]),
    "round_full-trials": ("trials", 1, 5, lambda v: _round("full", trials=v),
                          lambda report: report.trials),
    "round_cut-trials": ("trials", 1, 5, lambda v: _round("cut", trials=v),
                         lambda report: report.trials),
    "round_full-seed": ("seed", 0, 7, lambda v: _round("full", seed=v),
                        lambda report: report.seed),
    "round_cut-seed": ("seed", 0, 7, lambda v: _round("cut", seed=v),
                       lambda report: report.seed),
    "exact_full-limit": ("limit", 0, 12, lambda v: exact_full(_c4()[0], limit=v), None),
    "exact_cut-limit": ("limit", 0, 20, lambda v: exact_cut(_c4()[0], limit=v), None),
    "verify_auxiliary_bounds-n_range": (
        "n_range item", 1, 4, lambda v: bounds.verify_auxiliary_bounds([v], grid=10),
        lambda out: next(iter(out["worst_argmin"]))),
    "verify_auxiliary_bounds-grid": (
        "grid", 1, 10, lambda v: bounds.verify_auxiliary_bounds([4], grid=v), None),
}


class TestCheckedInt:
    """One integer check for every count: an int or a numpy integer, never
    a bool, float or string, and at least the entry point's least value."""

    @pytest.mark.parametrize("entry", COUNTS)
    def test_non_int_rejected_by_name(self, entry):
        name, _, _, call, _ = COUNTS[entry]
        for value in (True, 2.0, "3", None):
            with pytest.raises(TypeError, match=f"^{name} must be an int, not "):
                call(value)

    @pytest.mark.parametrize("entry", COUNTS)
    def test_numpy_integer_accepted_as_int(self, entry):
        _, _, good, call, echo = COUNTS[entry]
        out = call(np.int64(good))
        assert out == call(good)
        if echo is not None:
            assert type(echo(out)) is int and echo(out) == good

    @pytest.mark.parametrize("entry", COUNTS)
    def test_below_least_rejected(self, entry):
        name, least, _, call, _ = COUNTS[entry]
        # Graph keeps its own message for a vertex count below 1
        message = "vertex count" if entry == "Graph-n" else name
        with pytest.raises(ValueError, match=f"^{message} must be"):
            call(least - 1)
