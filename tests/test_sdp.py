import dataclasses
import json

import numpy as np
import pytest

from modkit import (
    Graph,
    SolverOptions,
    build_q,
    exact_cut,
    exact_full,
    render_edge_list,
    round_cut,
    round_full,
    solve_cut_sdp,
    solve_full_sdp,
)
from modkit import rounding
from modkit.cli import main as cli_main
from modkit.modularity import summands
from modkit.sdp import _psd_factor

import fixtures

CORPUS = (
    fixtures.named_fixtures() + fixtures.random_corpus() + fixtures.cut_extra_corpus()
)
CUT_CORPUS = [(name, g) for name, g in CORPUS if g.variant in ("undirected", "weighted")]


def feasibility_residuals(sol, nonneg: bool):
    x = sol.factor @ sol.factor.T
    diag_err = float(np.abs(np.diag(x) - 1.0).max())
    min_eig = float(np.linalg.eigvalsh(x).min())
    neg_entry = float(x.min()) if nonneg else 0.0
    return diag_err, min_eig, neg_entry


class TestSolverOptions:
    def test_defaults(self):
        opts = SolverOptions()
        assert opts.tol_obj == 1e-6
        assert opts.max_iters == 50000
        assert [f.name for f in dataclasses.fields(SolverOptions)] == [
            "tol_obj", "max_iters"
        ]

    def test_validation(self):
        with pytest.raises(ValueError):
            SolverOptions(tol_obj=0.0)
        with pytest.raises(ValueError):
            SolverOptions(max_iters=0)
        # ADMM's penalty is a module constant and its residual threshold is
        # derived from tol_obj; neither is a knob
        for knob in ("penalty", "tol_feas"):
            with pytest.raises(TypeError):
                SolverOptions(**{knob: 1.0})

    def test_frozen(self):
        # a field set after validation would skip it: a NaN tol_obj made the
        # solve run max_iters unconverged iterations
        opts = SolverOptions(max_iters=50)
        with pytest.raises(dataclasses.FrozenInstanceError):
            opts.tol_obj = float("nan")
        assert opts.tol_obj == 1e-6

    @pytest.mark.parametrize("value", [2.5, 50.0, "50", True])
    def test_max_iters_must_be_int(self, value):
        with pytest.raises(TypeError, match="max_iters must be an int"):
            SolverOptions(max_iters=value)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("field", ["tol_obj"])
    def test_non_finite_tolerance_rejected(self, field, value):
        with pytest.raises(ValueError, match="finite and positive"):
            SolverOptions(**{field: value})

    @pytest.mark.parametrize("solve", [solve_full_sdp, solve_cut_sdp], ids=["full", "cut"])
    def test_history_grows_with_iterations(self, solve):
        # the iterate record is not preallocated to max_iters rows
        sol = solve(build_q(fixtures.k2()), SolverOptions(max_iters=10**12))
        assert sol.converged
        assert len(sol.history) == sol.iterations


class TestSdpSolution:
    @pytest.mark.parametrize("solve", [solve_full_sdp, solve_cut_sdp], ids=["full", "cut"])
    def test_iterate_facts_read_from_history(self, solve):
        sol = solve(build_q(fixtures.petersen()), SolverOptions(max_iters=7))
        assert sol.iterations == len(sol.history) == 7
        assert (sol.primal_residual, sol.dual_residual) == tuple(sol.history[-1, 1:])
        shorter = dataclasses.replace(sol, history=np.array(sol.history[:3]))
        assert shorter.iterations == 3
        assert shorter.dual_residual == sol.history[2, 2]

    @pytest.mark.parametrize("row", [[0.6, 0.0], [0.8, 0.8], [0.0, 0.0],
                                     [float("nan"), 0.0], [float("inf"), 0.0]])
    def test_factor_rows_must_be_unit(self, row):
        # the rounding guarantees hold for unit vectors; a NaN norm fails too
        sol = solve_cut_sdp(build_q(fixtures.k2()))
        dataclasses.replace(sol, factor=np.eye(2))
        factor = np.eye(2)
        factor[1] = row
        with pytest.raises(ValueError, match="rows must be unit vectors"):
            dataclasses.replace(sol, factor=factor)


class TestFullSolve:
    def test_k2_objective_zero(self):
        qm = build_q(fixtures.k2())
        sol = solve_full_sdp(qm)
        assert sol.converged
        assert sol.objective == pytest.approx(0.0, abs=1e-8)
        assert (sol.factor @ sol.factor.T)[0, 1] == pytest.approx(1.0, abs=1e-6)
        # with the whole positive (negative) mass at entry value 1 the two
        # averages sit at their extremes
        assert sol.z_plus == pytest.approx(1.0, abs=1e-6)
        assert sol.z_minus == pytest.approx(-1.0, abs=1e-6)

    def test_feasibility(self):
        tol = SolverOptions().tol_obj / 10
        for name, g in fixtures.random_corpus(count=6):
            sol = solve_full_sdp(build_q(g))
            diag_err, min_eig, neg_entry = feasibility_residuals(sol, nonneg=True)
            assert diag_err <= tol, name
            assert min_eig >= -tol, name
            assert neg_entry >= -tol, name
            assert 0.0 - tol <= sol.z_plus <= 1.0 + tol, name
            assert -1.0 - tol <= sol.z_minus <= 0.0 + tol, name

    def test_dominates_exact_optimum(self):
        for name, g in fixtures.random_corpus(count=8):
            qm = build_q(g)
            sol = solve_full_sdp(qm)
            opt = exact_full(qm).opt_value
            assert sol.objective >= opt - 1e-6, name

    def test_objective_reconstruction_identity(self):
        qm = build_q(fixtures.two_triangle_bridge())
        sol = solve_full_sdp(qm)
        assert sol.objective == pytest.approx(
            qm.q_mass * (sol.z_plus + sol.z_minus), abs=1e-9
        )

    def test_all_variants_accepted(self):
        for g in [
            fixtures.weighted_two_path(),
            fixtures.directed_cycle(3),
            fixtures.bipartite_path4(),
        ]:
            sol = solve_full_sdp(build_q(g))
            assert sol.converged
            assert sol.objective >= -1e-9

    def test_deterministic_bitwise(self):
        qm = build_q(fixtures.two_triangle_bridge())
        sol_a = solve_full_sdp(qm)
        sol_b = solve_full_sdp(qm)
        assert np.array_equal(sol_a.factor, sol_b.factor)
        assert sol_a.iterations == sol_b.iterations
        assert sol_a.objective == sol_b.objective
        assert np.array_equal(sol_a.history, sol_b.history)

    def test_iterate_log_shape(self):
        sol = solve_full_sdp(build_q(fixtures.cycle_graph(4)))
        assert sol.history.shape == (sol.iterations, 3)
        assert not sol.history.flags.writeable
        assert tuple(sol.history[-1, 1:]) == (sol.primal_residual, sol.dual_residual)

    def test_dual_gap_within_tolerance(self):
        tol = SolverOptions().tol_obj
        for name, g in fixtures.named_fixtures() + fixtures.random_corpus(count=10):
            sol = solve_full_sdp(build_q(g))
            assert sol.converged, name
            assert sol.upper_bound - sol.objective <= tol * max(1.0, abs(sol.objective)), name

    @pytest.mark.parametrize("max_iters", [1, 5, 20, 50])
    def test_early_stop_solution_nonnegative(self, max_iters):
        # the expectation floor holds for entries of V V^T in [0, 1]; an
        # early stop must not hand the rounding a negative entry
        opts = SolverOptions(max_iters=max_iters)
        stopped = 0
        for name, g in fixtures.named_fixtures() + fixtures.random_corpus():
            sol = solve_full_sdp(build_q(g), opts)
            if not sol.converged:
                stopped += 1
                assert (sol.factor @ sol.factor.T).min() >= 0.0, name
        assert stopped > 0

    def test_non_convergence_flagged(self):
        qm = build_q(fixtures.two_triangle_bridge())
        sol = solve_full_sdp(qm, SolverOptions(max_iters=3))
        assert not sol.converged
        assert sol.iterations == 3
        # best iterate is still repaired to near-feasibility
        diag_err, min_eig, _ = feasibility_residuals(sol, nonneg=False)
        assert diag_err <= 1e-6
        assert min_eig >= -1e-9


class TestCutSolve:
    def test_k2_objective_zero(self):
        qm = build_q(fixtures.k2())
        sol = solve_cut_sdp(qm)
        assert sol.converged
        assert sol.objective == pytest.approx(0.0, abs=1e-8)

    def test_rejects_directed_and_bipartite(self):
        with pytest.raises(ValueError, match="undirected/weighted"):
            solve_cut_sdp(build_q(fixtures.directed_cycle(3)))
        with pytest.raises(ValueError, match="undirected/weighted"):
            solve_cut_sdp(build_q(fixtures.bipartite_path4()))

    def test_weighted_accepted(self):
        sol = solve_cut_sdp(build_q(fixtures.weighted_two_path()))
        assert sol.converged

    def test_objective_splits_into_z_terms(self):
        for g in [fixtures.cycle_graph(4), fixtures.two_triangle_bridge()]:
            sol = solve_cut_sdp(build_q(g))
            assert sol.objective == pytest.approx(
                sol.z_plus + sol.z_minus, abs=1e-9
            )

    def test_z_terms_split_bit_for_bit(self):
        # z_plus and z_minus are the coupling and null-model terms of the
        # objective, built here from the edge list, to the last bit
        for name, g in fixtures.named_fixtures():
            if g.variant not in ("undirected", "weighted"):
                continue
            a = np.zeros((g.n, g.n))
            d = np.zeros(g.n)
            for i, j, w in g.edges:
                a[i, j] += w
                a[j, i] += w
                d[i] += w
                d[j] += w
            total = g.total_weight
            sol = solve_cut_sdp(build_q(g))
            shifted = sol.factor @ sol.factor.T + 1.0
            coupling = a / (2.0 * total)
            null = np.outer(d, d) / (4.0 * total * total)
            assert sol.z_plus == float((coupling * shifted).sum()) / 2.0, name
            assert sol.z_minus == -float((null * shifted).sum()) / 2.0, name

    def test_z_bounds(self):
        for name, g in fixtures.random_corpus(count=6):
            sol = solve_cut_sdp(build_q(g))
            assert 0.5 - 1e-6 <= sol.z_plus <= 1.0 + 1e-6, name
            assert -1.0 - 1e-6 <= sol.z_minus <= -0.5 + 1e-6, name

    def test_dominates_exact_cut(self):
        for name, g in fixtures.random_corpus(count=8):
            qm = build_q(g)
            sol = solve_cut_sdp(qm)
            opt = exact_cut(qm).opt_value
            assert sol.objective >= opt - 1e-6, name


class TestMixingSolver:
    def test_deterministic_bitwise(self):
        qm = build_q(fixtures.petersen())
        sol_a = solve_cut_sdp(qm)
        sol_b = solve_cut_sdp(qm)
        assert np.array_equal(sol_a.factor, sol_b.factor)
        assert sol_a.iterations == sol_b.iterations
        assert sol_a.upper_bound == sol_b.upper_bound
        assert np.array_equal(sol_a.history, sol_b.history)

    def test_factor_has_unit_rows_and_rank(self):
        for name, g in CUT_CORPUS:
            sol = solve_cut_sdp(build_q(g))
            assert sol.factor.shape == (g.n, int(np.ceil(np.sqrt(2 * g.n))) + 1)
            assert np.abs(np.linalg.norm(sol.factor, axis=1) - 1.0).max() <= 1e-15, name

    def test_dual_gap_within_tolerance(self):
        tol = SolverOptions().tol_obj
        for name, g in CUT_CORPUS:
            sol = solve_cut_sdp(build_q(g))
            assert sol.converged, name
            assert 0.0 <= sol.upper_bound - sol.objective, name
            assert sol.upper_bound - sol.objective <= tol * max(1.0, abs(sol.objective)), name
            # the stop test measures the gap on the objective reported
            assert sol.dual_residual == sol.upper_bound - sol.objective, name

    def test_one_sweep_not_converged_but_sound(self):
        for name in ("p3", "star3", "petersen", "w_path"):
            qm = build_q(dict(fixtures.named_fixtures())[name])
            sol = solve_cut_sdp(qm, SolverOptions(max_iters=1))
            assert not sol.converged, name
            assert sol.iterations == 1
            assert sol.upper_bound >= exact_cut(qm).opt_value, name
            assert sol.upper_bound >= sol.objective, name

    def test_isolated_vertex(self):
        # vertex 4 has no edge, so its row of Q is zero and it is never moved
        g = Graph(n=5, edges=((0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0), (2, 3, 1.0)),
                  variant="undirected")
        qm = build_q(g)
        assert not qm.entries[4].any()
        sol = solve_cut_sdp(qm)
        first = solve_cut_sdp(qm, SolverOptions(max_iters=1))
        assert sol.converged
        assert np.all(np.isfinite(sol.factor @ sol.factor.T))
        assert np.array_equal(sol.factor[4], first.factor[4])
        assert sol.upper_bound >= exact_cut(qm).opt_value
        best, _ = round_cut(qm, sol, trials=50, seed=0)
        assert best.score == pytest.approx(exact_cut(qm).opt_value, abs=1e-12)

    def test_cut_iterate_log(self, tmp_path):
        # the CLI writes the solver's record, one numbered row per counted
        # iteration, ending at the residuals it reports; checked for the
        # full solver too
        graph = tmp_path / "g.txt"
        graph.write_text(render_edge_list(fixtures.petersen()))
        for command in ("solve", "cut"):
            log = tmp_path / f"{command}.csv"
            out = tmp_path / f"{command}.json"
            code = cli_main([command, "--input", str(graph), "--iterate-log", str(log),
                             "--output", str(out)])
            assert code == 0
            payload = json.loads(out.read_text())
            lines = log.read_text().strip().splitlines()
            assert lines[0] == "iteration,objective,primal_residual,dual_residual"
            rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
            assert len(rows) == payload["solver"]["iterations"] > 1, command
            assert np.array_equal(rows[:, 0], np.arange(1, len(rows) + 1))
            last = rows[-1]
            assert last[2] == payload["solver"]["primal_residual"], command
            assert last[3] == payload["solver"]["dual_residual"], command
        # for cut (the last command), primal residual max_i |v_i . v_i - 1|,
        # dual residual the gap
        assert rows[:, 2].max() <= 1e-15
        report = payload["report"]
        assert last[1] == pytest.approx(report["relaxation_value"], abs=1e-12)
        assert last[3] == pytest.approx(
            report["upper_bound"] - report["relaxation_value"], abs=1e-12
        )
        assert np.all(rows[:-1, 3] > SolverOptions().tol_obj)


@pytest.fixture(scope="module")
def exact_optima():
    """Exact full optima for n <= 10 and exact bipartition optima for the
    undirected/weighted graphs of the corpus."""
    full, cut = {}, {}
    for name, g in CORPUS:
        qm = build_q(g)
        if g.n <= 10:
            full[name] = (qm, exact_full(qm).opt_value)
        if g.variant in ("undirected", "weighted"):
            cut[name] = (qm, exact_cut(qm).opt_value)
    return full, cut


def rounded_figures(qm, sol):
    """(objective, z_plus, z_minus) of V V^T for the factor V that the
    rounding cuts, by the formulas of the solver of ``sol.kind``."""
    x = sol.factor @ sol.factor.T
    if sol.kind == "cut":
        coupling, null, _ = summands(qm.graph)
        shifted = x + 1.0
        z_plus = float((coupling * shifted).sum()) / 2.0
        z_minus = -float((null * shifted).sum()) / 2.0
        return float((qm.entries * shifted).sum()) / 2.0, z_plus, z_minus
    weighted = qm.entries * x
    pos = qm.entries >= 0
    return (
        float(weighted.sum()),
        float(weighted[pos].sum()) / qm.q_mass,
        float(weighted[~pos].sum()) / qm.q_mass,
    )


class TestReportedBoundIsSound:
    @pytest.mark.parametrize("max_iters", [5, 20, 50, None])
    def test_upper_bound_dominates_exact_optimum(self, exact_optima, max_iters):
        # the reported bound must hold however early the solver stopped; the
        # rounding guarantee holds for the solution that was rounded, so the
        # certificate may not exceed that solution's expectation floor, and
        # every figure behind it must be that of V V^T for the factor V cut
        opts = SolverOptions() if max_iters is None else SolverOptions(max_iters=max_iters)
        full, cut = exact_optima
        below, above, off_factor = [], [], []
        for problem, solve, round_, optima in (
            ("full", solve_full_sdp, round_full, full),
            ("cut", solve_cut_sdp, round_cut, cut),
        ):
            for name, (qm, opt) in optima.items():
                sol = solve(qm, opts)
                _, report = round_(qm, sol, trials=1, seed=0)
                if report.upper_bound < opt:
                    below.append((problem, name, report.upper_bound, opt))
                if report.additive_certificate > report.expectation_floor + 1e-12:
                    above.append((problem, name, report.additive_certificate,
                                  report.expectation_floor))
                reported = (report.relaxation_value, report.z_plus, report.z_minus)
                recomputed = rounded_figures(qm, sol)
                if np.abs(np.subtract(reported, recomputed)).max() > 1e-12:
                    off_factor.append((problem, name, reported, recomputed))
        assert len(full) + len(cut) == 130
        assert not below
        assert not above
        assert not off_factor


class TestGramVectors:
    # _psd_factor is the one place a Gram factor is computed: the full
    # solver's repair projection returns it as the solution's factor

    def test_identity_gives_orthonormal_vectors(self):
        factor = _psd_factor(np.eye(3))
        assert factor.shape == (3, 3)
        assert np.allclose(factor @ factor.T, np.eye(3), atol=1e-12)

    def test_all_ones_gives_identical_vectors(self):
        factor = _psd_factor(np.ones((3, 3)))
        assert factor.shape == (3, 1)
        assert np.allclose(factor @ factor.T, 1.0, atol=1e-12)

    def test_random_unit_diag_psd_reconstruction(self):
        rng = np.random.default_rng(99)
        v = rng.standard_normal((5, 3))
        v /= np.linalg.norm(v, axis=1)[:, None]
        x = v @ v.T
        factor = _psd_factor(x)
        assert np.abs(factor @ factor.T - x).max() <= 1e-7

    @pytest.mark.parametrize("name", [name for name, _ in fixtures.named_fixtures()])
    def test_solver_output_reconstruction(self, name):
        qm = build_q(dict(fixtures.named_fixtures())[name])
        sol = solve_full_sdp(qm)
        x = sol.factor @ sol.factor.T
        assert np.allclose(np.linalg.norm(sol.factor, axis=1), 1.0, atol=1e-9)
        assert sol.objective == pytest.approx(float((qm.entries * x).sum()), abs=1e-12)
        assert sol.converged
        assert x.min() >= -2.0 * (SolverOptions().tol_obj / 10)

    def test_rounding_factors_nothing(self, monkeypatch):
        # both rounding entry points cut the solver's own factor; neither
        # decomposes the solution again
        qm = build_q(fixtures.two_triangle_bridge())
        sols = {"full": solve_full_sdp(qm), "cut": solve_cut_sdp(qm)}
        calls = []

        def counting(attr):
            fn = getattr(np.linalg, attr)

            def wrapped(*args, **kwargs):
                calls.append(attr)
                return fn(*args, **kwargs)

            return wrapped

        for attr in ("eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, attr, counting(attr))
        round_full(qm, sols["full"], trials=20, seed=0)
        round_cut(qm, sols["cut"], trials=20, seed=0)
        for sol in sols.values():
            assert rounding.gram_vectors(sol) is sol.factor
        assert calls == []
