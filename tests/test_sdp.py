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
from modkit import rounding, sdp
from modkit.cli import main as cli_main
from modkit.modularity import summands
from modkit.sdp import _gmres, _reflect, _residual_jacobian

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


def count_full_eighs(monkeypatch, n):
    """A list that gains an entry at each numpy.linalg.eigh call on an
    n x n matrix from here on."""
    calls = []
    eigh = np.linalg.eigh

    def counting(a, *args, **kwargs):
        if a.shape[0] == n:
            calls.append(None)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    return calls


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

    @pytest.mark.parametrize("value", [True, None, "1e-6", 1e-6j])
    def test_tol_obj_must_be_real(self, value):
        with pytest.raises(TypeError, match="^tol_obj must be a real number, not "):
            SolverOptions(tol_obj=value)

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


class TestNonnegStart:
    # the full solver's warm start steps V <- rownormalize(max(0, m V)) for
    # the shifted m of the power method, and gives an isolated vertex a
    # coordinate of its own

    GRAPHS = fixtures.named_fixtures() + fixtures.random_corpus()

    @staticmethod
    def start(qm, max_iters=None):
        opts = SolverOptions() if max_iters is None else SolverOptions(max_iters=max_iters)
        return sdp._nonneg_start(qm.entries, opts)

    @staticmethod
    def objective(qm, v):
        return float(np.vdot(qm.entries, v @ v.T))

    def test_rows_unit_and_nonnegative(self):
        for name, g in self.GRAPHS:
            v = self.start(build_q(g))
            assert v.min() >= 0.0, name
            assert np.abs(np.linalg.norm(v, axis=1) - 1.0).max() <= 1e-15, name

    def test_capped_start_is_a_prefix(self, monkeypatch):
        # record V after every step of the uncapped start; a start capped at
        # k steps is the k-th of them, to the bit, on the rows that move
        steps = []
        normalize = sdp._normalize_rows

        def recording(g, v):
            normalize(g, v)
            steps.append(v.copy())

        monkeypatch.setattr(sdp, "_normalize_rows", recording)
        for name, g in self.GRAPHS:
            qm = build_q(g)
            steps.clear()
            full = self.start(qm)
            trajectory = list(steps)
            moving = np.flatnonzero(qm.entries.any(axis=1))
            rank = trajectory[0].shape[1]
            assert np.array_equal(full[moving, :rank], trajectory[-1][moving]), name
            for k in (1, 2, 3, 5, 8, 13, 21, 34, 55):
                capped = self.start(qm, k)
                step = trajectory[min(k, len(trajectory)) - 1]
                assert np.array_equal(capped[moving, :rank], step[moving]), (name, k)
            assert np.array_equal(self.start(qm, len(trajectory)), full), name

    def test_objective_never_decreases(self):
        # m is positive semidefinite, so each clipped step raises <Q, V V^T>;
        # the values differ from that only by rounding
        for name, g in self.GRAPHS:
            qm = build_q(g)
            values = [self.objective(qm, self.start(qm, 2**e)) for e in range(7)]
            assert np.diff(values).min() >= -1e-15, (name, values)

    @pytest.mark.parametrize("name, graph, ceiling", [
        # triangle 0-1-2 with a pendant 3, and the two-triangle bridge, each
        # plus an isolated vertex: 23 and 17 iterations; rand05 (vertex 2
        # isolated) takes 121, and 1401 without a coordinate of its own
        ("tri_pendant", Graph(n=5, edges=((0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0),
                                          (2, 3, 1.0)), variant="undirected"), 50),
        ("bridge", Graph(n=7, edges=fixtures.two_triangle_bridge().edges,
                         variant="undirected"), 50),
        ("rand05", dict(fixtures.random_corpus())["rand05"], 250),
    ])
    def test_isolated_vertex_keeps_its_own_coordinate(self, name, graph, ceiling):
        qm = build_q(graph)
        isolated = np.flatnonzero(~qm.entries.any(axis=1))
        assert isolated.size == 1
        sol = solve_full_sdp(qm)
        assert sol.converged
        assert sol.iterations <= ceiling
        x = sol.factor @ sol.factor.T
        i = int(isolated[0])
        assert np.abs(np.delete(x[i], i)).max() <= 1e-12


class TestNewtonSteps:
    # ADMM also tries semismooth Newton steps on its fixed-point residual
    # F(t) = B(t) - P+(2 B(t) - t + c / rho); attempts are not iterations

    @staticmethod
    def residual(t, c_rho):
        # F computed from scratch: B clips to >= 0 and sets the diagonal
        # to 1, P+ drops the negative eigenvalues
        bt = np.clip(t, 0.0, None)
        np.fill_diagonal(bt, 1.0)
        lam, vecs = np.linalg.eigh(2.0 * bt - t + c_rho)
        return bt - (vecs * np.clip(lam, 0.0, None)) @ vecs.T

    def test_jacobian_matches_central_differences(self):
        # at a point where F is differentiable (no zero entry of t, no zero
        # eigenvalue of the reflected matrix) the matvec is its derivative
        rng = np.random.default_rng(5)
        t, c_rho, h = ((a + a.T) / 2.0 for a in rng.standard_normal((3, 12, 12)))
        bt = np.clip(t, 0.0, None)
        np.fill_diagonal(bt, 1.0)
        x, lam, vecs = _reflect(t, bt, c_rho)
        assert np.abs(x - (bt - self.residual(t, c_rho))).max() <= 1e-12
        assert np.abs(t).min() > 1e-3 and np.abs(lam).min() > 1e-3
        eps = 1e-7
        numeric = (self.residual(t + eps * h, c_rho)
                   - self.residual(t - eps * h, c_rho)) / (2.0 * eps)
        analytic = _residual_jacobian(t, lam, vecs)(h)
        assert np.linalg.norm(analytic - numeric) <= 1e-6 * np.linalg.norm(numeric)

    def test_unconverged_solve_past_the_warm_up(self, monkeypatch):
        # stopped after Newton attempts at iterations 101 and later: the
        # count, the factor's domain and the bound's soundness all hold,
        # and each attempt, at most one per _NEWTON_WAIT iterations, costs
        # at most one extra n x n eigendecomposition per step size it tries
        # (the tracked projection's r x r ones are not counted)
        qm = build_q(fixtures.planted_weighted(60, 4, seed=1))
        converged = solve_full_sdp(qm)
        # the capped solve repeats the converged one's iterations, one short
        cap = converged.iterations - 1
        assert converged.converged and cap > sdp._NEWTON_WARMUP + 20
        calls = count_full_eighs(monkeypatch, qm.graph.n)
        attempts = []
        direction = sdp._newton_direction

        def counting_direction(*args):
            attempts.append(None)
            return direction(*args)

        monkeypatch.setattr(sdp, "_newton_direction", counting_direction)
        sol = solve_full_sdp(qm, SolverOptions(max_iters=cap))
        assert not sol.converged
        assert sol.iterations == cap == len(sol.history)
        assert (sol.factor @ sol.factor.T).min() >= 0.0
        assert sol.upper_bound >= converged.objective
        iterations = sol.iterations
        # the factor is read from the last iteration's eigenpairs, so no
        # eigendecomposition follows the loop
        first = sdp._NEWTON_WARMUP + 1
        assert 0 < len(attempts) <= (iterations - first) // sdp._NEWTON_WAIT + 1
        assert len(calls) <= iterations + len(sdp._NEWTON_STEPS) * len(attempts)

    def test_fewer_iterations_than_plain_admm(self, monkeypatch):
        # the same seeded graph without Newton attempts needs 1432
        # iterations and with them 165; demand at most half
        qm = build_q(fixtures.planted_weighted(30, 4, seed=1))
        newton = solve_full_sdp(qm)
        monkeypatch.setattr(sdp, "_NEWTON_WARMUP", SolverOptions().max_iters)
        plain = solve_full_sdp(qm)
        assert newton.converged and plain.converged
        assert newton.iterations <= plain.iterations // 2
        assert newton.iterations <= 700
        assert newton.objective == pytest.approx(plain.objective, abs=1e-5)

    def test_backtracking_saves_iterations(self, monkeypatch):
        # with the full step only, the seeded graph needs 364 iterations,
        # and 143 when shorter steps along the same direction are tried
        qm = build_q(fixtures.planted_weighted(60, 4, seed=1))
        backtracked = solve_full_sdp(qm)
        monkeypatch.setattr(sdp, "_NEWTON_STEPS", (1.0,))
        full_step = solve_full_sdp(qm)
        assert backtracked.converged and full_step.converged
        assert full_step.iterations >= 1.25 * backtracked.iterations
        assert backtracked.objective == pytest.approx(full_step.objective, abs=1e-5)

    @pytest.mark.parametrize(
        "name, graph, max_iters, warmup, first",
        [
            # both residuals first reach 10 tol_obj at iteration 39
            ("petersen", fixtures.petersen(), 50000, 100, 40),
            # not before iteration 123: the warm-up ends first
            ("planted", fixtures.planted_weighted(30, 4, seed=1), 50000, 100, 101),
            # a warm-up of max_iters or more turns the attempts off
            ("petersen_off", fixtures.petersen(), 50000, 50000, None),
            ("petersen_capped", fixtures.petersen(), 100, 100, None),
        ],
    )
    def test_first_attempt_when_admm_is_close(self, monkeypatch, name, graph,
                                              max_iters, warmup, first):
        # the first attempt follows the warm-up, or comes on the iteration
        # after both residuals first reach 10 tol_obj; every ADMM iteration
        # projects once before its attempt, so the projections made before
        # the first attempt number its iteration
        reflects, attempts = [], []
        reflect, direction = sdp._reflect, sdp._newton_direction

        def counting_reflect(*args):
            reflects.append(None)
            return reflect(*args)

        def recording_direction(*args):
            attempts.append(len(reflects))
            return direction(*args)

        monkeypatch.setattr(sdp, "_reflect", counting_reflect)
        monkeypatch.setattr(sdp, "_newton_direction", recording_direction)
        monkeypatch.setattr(sdp, "_NEWTON_WARMUP", warmup)
        opts = SolverOptions(max_iters=max_iters)
        sol = solve_full_sdp(build_q(graph), opts)
        if first is None:
            assert attempts == [], name
            return
        assert sol.converged
        close = 10.0 * opts.tol_obj
        rows = np.flatnonzero((sol.history[:, 1] <= close) & (sol.history[:, 2] <= close))
        assert attempts[0] == first == min(rows[0] + 2, warmup + 1), name


class TestTrackedProjection:
    # from n = _TRACK_MIN_N on, a plain ADMM step refines the previous
    # projection's eigenspace split instead of running a full eigh, and
    # keeps the result only when the split is certified

    @staticmethod
    def projection(w):
        lam, vecs = np.linalg.eigh(w)
        k = int(np.searchsorted(lam, 0.0, side="right"))
        return (vecs[:, k:] * lam[k:]) @ vecs[:, k:].T, lam[k:]

    @staticmethod
    def with_spectrum(lam, seed):
        q = np.linalg.qr(np.random.default_rng(seed).standard_normal((lam.size,) * 2))[0]
        return (q * lam) @ q.T

    def test_certified_steps_match_the_full_eigh(self, monkeypatch):
        # every tracked step of a recorded run: x = P+(w) and the positive
        # eigenvalues as the full eigh gives them, on an orthonormal basis
        qm = build_q(fixtures.planted_weighted(60, 4, seed=1))
        n = qm.graph.n
        assert n >= sdp._TRACK_MIN_N
        reflect = sdp._reflect
        errors = []

        def checking(t, bt, c_rho, prev=None):
            x, lam, vecs = reflect(t, bt, c_rho, prev)
            if lam.size < n:
                w = 2.0 * bt - t + c_rho
                ref, lp = self.projection(w)
                scale = max(1.0, float(np.abs(w).max()))
                assert lam.size == lp.size
                errors.append((float(np.abs(x - ref).max()) / scale,
                               float(np.abs(lam - lp).max()) / scale,
                               float(np.abs(vecs.T @ vecs - np.eye(n)).max())))
            return x, lam, vecs

        monkeypatch.setattr(sdp, "_reflect", checking)
        sol = solve_full_sdp(qm)
        assert sol.converged
        assert len(errors) >= sol.iterations // 2
        x_err, lam_err, orth_err = np.max(errors, axis=0)
        assert x_err <= 1e-11 and lam_err <= 1e-11 and orth_err <= 1e-12

    def test_most_steps_skip_the_full_eigh(self, monkeypatch):
        # a plain step is an iteration without a Newton attempt. Every
        # attempt's own projection and every trial step run the full eigh,
        # and a trial is a projection beyond the one per iteration, so the
        # plain steps' n x n eigendecompositions are the rest; a tracked
        # step that silently fell back on every plain step would run one
        # per plain step
        qm = build_q(fixtures.planted_weighted(60, 4, seed=1))
        calls = count_full_eighs(monkeypatch, qm.graph.n)
        reflects, attempts = [], []
        reflect, direction = sdp._reflect, sdp._newton_direction

        def counting_reflect(*args):
            reflects.append(None)
            return reflect(*args)

        def counting_direction(*args):
            attempts.append(None)
            return direction(*args)

        monkeypatch.setattr(sdp, "_reflect", counting_reflect)
        monkeypatch.setattr(sdp, "_newton_direction", counting_direction)
        sol = solve_full_sdp(qm)
        assert sol.converged and attempts
        trials = len(reflects) - sol.iterations
        plain = sol.iterations - len(attempts)
        assert len(calls) - len(attempts) - trials <= plain // 4

    def spectrum_and_move(self, n):
        # a projection at w0, whose eigenvalues nearest 0 are -1e-3 and
        # 1e-3, and a move of 1e-7 from w0
        lam = np.sort(np.append(np.linspace(-3.0, 2.0, n - 2), [-1e-3, 1e-3]))
        w0 = self.with_spectrum(lam, 0)
        move = 1e-7 * self.with_spectrum(np.linspace(-1.0, 1.0, n), 1)
        return lam, w0, move

    def test_small_move_is_tracked(self):
        n = sdp._TRACK_MIN_N
        _, w0, move = self.spectrum_and_move(n)
        zero = np.zeros((n, n))
        x, lp, _ = _reflect(zero, zero, w0 + move, _reflect(zero, zero, w0)[1:])
        ref, lp_ref = self.projection(w0 + move)
        assert lp.size == lp_ref.size < n
        assert np.abs(x - ref).max() <= 1e-11 * max(1.0, np.abs(w0).max())
        assert np.abs(lp - lp_ref).max() <= 1e-11 * max(1.0, np.abs(w0).max())

    @pytest.mark.parametrize("case", [
        "crossing_up", "crossing_down", "r_zero", "r_n", "jump", "new_basis",
        "below_floor",
    ])
    def test_refusals_run_the_full_eigh(self, case):
        # where test_small_move_is_tracked's move is tracked, these are
        # not: an eigenvalue crosses 0 either way (-1e-3 to 5e-4, caught
        # by the negative block's Cholesky; 1e-3 to -5e-4, by the Ritz
        # values), the previous projection has no positive or no
        # nonpositive eigenvalue, w moves 3e4 times as far (the sweeps do
        # not converge) or to another eigenbasis, or n is below the floor.
        # Each returns the full eigh's result, bit for bit
        n = sdp._TRACK_MIN_N - (case == "below_floor")
        lam, w0, move = self.spectrum_and_move(n)
        if case in ("r_zero", "r_n"):
            lam = np.abs(lam) * (-1.0 if case == "r_zero" else 1.0)
            w0 = self.with_spectrum(lam, 0)
        zero = np.zeros((n, n))
        prev = _reflect(zero, zero, w0)[1:]
        w1 = w0 + move
        if case == "crossing_up":
            w1 += self.with_spectrum(np.where(lam == -1e-3, 1.5e-3, 0.0), 0)
        elif case == "crossing_down":
            w1 -= self.with_spectrum(np.where(lam == 1e-3, 1.5e-3, 0.0), 0)
        elif case == "jump":
            w1 = w0 + 3e4 * move
        elif case == "new_basis":
            w1 = self.with_spectrum(lam, 2)
        got, ref = _reflect(zero, zero, w1, prev), _reflect(zero, zero, w1)
        assert got[1].size == n
        for a, b in zip(got, ref):
            assert np.array_equal(a, b)

    def test_newton_attempts_get_exact_eigenpairs(self, monkeypatch):
        # the Jacobian needs every eigenpair, so an attempt's own iteration
        # runs the full eigh
        qm = build_q(fixtures.planted_weighted(60, 4, seed=1))
        n = qm.graph.n
        reflect, jacobian = sdp._reflect, sdp._residual_jacobian
        last, checked = {}, []

        def recording(t, bt, c_rho, prev=None):
            last["w"] = 2.0 * bt - t + c_rho
            return reflect(t, bt, c_rho, prev)

        def checking(t, lam, vecs):
            w = last["w"]
            checked.append((lam.size, float(np.abs(w @ vecs - vecs * lam).max())))
            return jacobian(t, lam, vecs)

        monkeypatch.setattr(sdp, "_reflect", recording)
        monkeypatch.setattr(sdp, "_residual_jacobian", checking)
        assert solve_full_sdp(qm).converged
        assert len(checked) >= 5
        assert all(size == n for size, _ in checked)
        assert max(err for _, err in checked) <= 1e-10


class TestGmres:
    @staticmethod
    def system(dim):
        # well conditioned: the identity plus a small random part
        rng = np.random.default_rng(3)
        a = np.eye(dim) + 0.3 * rng.standard_normal((dim, dim)) / np.sqrt(dim)
        return a, rng.standard_normal(dim)

    @pytest.mark.parametrize("m", [30, 40])
    def test_full_space_solves_the_system(self, m):
        a, b = self.system(30)
        x = _gmres(lambda v: a @ v, b, m)
        assert np.linalg.norm(a @ x - b) <= 1e-10 * np.linalg.norm(b)

    @pytest.mark.parametrize("m", [1, 3, 6])
    def test_minimal_residual_over_the_krylov_space(self, m):
        a, b = self.system(30)
        x = _gmres(lambda v: a @ v, b, m)
        assert np.linalg.norm(x - self.krylov_minimizer(a, b, m)) <= 1e-10 * np.linalg.norm(x)

    @staticmethod
    def krylov_minimizer(a, r, m):
        # the dense least-squares minimizer of |r - a z| over z in K_m(a, r)
        krylov = np.empty((r.size, m))
        krylov[:, 0] = r
        for j in range(1, m):
            krylov[:, j] = a @ krylov[:, j - 1]
        return krylov @ np.linalg.lstsq(a @ krylov, r, rcond=None)[0]

    @pytest.mark.parametrize("m", [1, 3, 6])
    def test_start_adds_the_minimal_residual_correction(self, m):
        # from x0 the cycle searches x0 + K_m(A, b - A x0)
        a, b = self.system(30)
        x0 = np.linalg.solve(a, b) + 0.3 * np.random.default_rng(4).standard_normal(30)
        r0 = b - a @ x0
        assert np.linalg.norm(r0) < np.linalg.norm(b)
        x = _gmres(lambda v: a @ v, b, m, x0)
        expected = x0 + self.krylov_minimizer(a, r0, m)
        assert np.linalg.norm(x - expected) <= 1e-10 * np.linalg.norm(x)

    def test_start_with_a_larger_residual_is_ignored(self):
        a, b = self.system(30)
        x0 = 10.0 * np.random.default_rng(4).standard_normal(30)
        assert np.linalg.norm(b - a @ x0) > np.linalg.norm(b)
        got = _gmres(lambda v: a @ v, b, 6, x0)
        assert np.array_equal(got, _gmres(lambda v: a @ v, b, 6))

    def test_second_pass_when_the_first_cancels_most(self):
        # A = I + 1e-6 R maps each basis vector almost onto itself, so the
        # first Gram-Schmidt pass leaves about 1e-6 of A q_j, and its
        # rounding error, relative to what is left, would cost a single
        # pass about 1e-10 of orthogonality; the second pass keeps it
        dim, m = 60, 20
        rng = np.random.default_rng(8)
        a = np.eye(dim) + 1e-6 * rng.standard_normal((dim, dim))
        b = rng.standard_normal(dim)
        seen = []

        def matvec(v):
            seen.append(v.copy())
            return a @ v

        _gmres(matvec, b, m)
        basis = np.array(seen)
        assert len(basis) == m
        for j in range(m):
            w = a @ basis[j]
            first = w - basis[: j + 1].T @ (basis[: j + 1] @ w)
            assert np.linalg.norm(first) <= 0.5 * np.linalg.norm(w)
        assert np.abs(basis @ basis.T - np.eye(m)).max() <= 1e-12

    def test_zero_right_hand_side(self):
        a, _ = self.system(5)
        assert not _gmres(lambda v: a @ v, np.zeros(5), 3).any()

    def test_breakdown_stops_the_cycle(self):
        # b lies in a 2-dimensional invariant subspace, so the cycle stops
        # after two steps with the exact solution
        a = np.diag([2.0, 3.0, 5.0, 7.0])
        b = np.array([1.0, 1.0, 0.0, 0.0])
        x = _gmres(lambda v: a @ v, b, 4)
        assert np.abs(x - [0.5, 1.0 / 3.0, 0.0, 0.0]).max() <= 1e-14


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


def two_block_graph(n: int, seed: int) -> Graph:
    """Seeded unweighted 2-block planted graph: vertex i in block i % 2,
    pairs joined with probability 12 / n inside a block and 1.5 / n
    between blocks, as the benchmark's cut graphs are drawn."""
    rng = np.random.default_rng(seed)
    edges = tuple(
        (i, j, 1.0)
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < (12.0 / n if i % 2 == j % 2 else 1.5 / n)
    )
    return Graph(n=n, edges=edges, variant="undirected")


class TestPowerStep:
    # the bipartition solver steps V <- rownormalize((C0 + sigma I) V) and
    # evaluates its dual bound only on a schedule; the gap column carries
    # the last measured gap

    GRAPHS = [
        ("petersen", fixtures.petersen()),
        ("planted_40", fixtures.planted_weighted(40, 2, seed=1)),
        ("two_block_60", two_block_graph(60, seed=2)),
    ]

    @staticmethod
    def spy_bounds(monkeypatch):
        calls = []
        bound = sdp._dual_bound

        def spy(c, y, N=None):
            calls.append((y.copy(), bound(c, y, N)))
            return calls[-1][1]

        monkeypatch.setattr(sdp, "_dual_bound", spy)
        return calls

    @staticmethod
    def measured_rows(history):
        gap = history[:, 2]
        return np.flatnonzero(gap != np.concatenate(([np.inf], gap[:-1])))

    def test_objective_never_decreases(self):
        # C0 + sigma I is positive semidefinite, so each step raises
        # <Q, V V^T>; the rows differ from that only by rounding
        for name, g in CUT_CORPUS + self.GRAPHS:
            sol = solve_cut_sdp(build_q(g))
            assert np.diff(sol.history[:, 0]).min() >= -1e-15, name

    def test_stops_only_on_an_evaluated_row(self, monkeypatch):
        calls = self.spy_bounds(monkeypatch)
        tol = SolverOptions().tol_obj
        for name, g in self.GRAPHS:
            calls.clear()
            qm = build_q(g)
            sol = solve_cut_sdp(qm)
            rows = self.measured_rows(sol.history)
            assert sol.converged, name
            assert len(calls) == rows.size >= 2, name
            assert rows[-1] == sol.iterations - 1, name
            shift = float(qm.entries.sum())
            for (_, bound), row in zip(calls, rows):
                objective, _, gap = sol.history[row]
                assert gap == (bound + shift) / 2.0 - objective, name
                assert (gap <= tol * max(1.0, abs(objective))) == (row == rows[-1]), name

    @pytest.mark.parametrize("max_iters", [3, 40])
    def test_gap_column_carries_the_last_measured_gap(self, monkeypatch, max_iters):
        # +inf before the first evaluation, then the gap last measured
        calls = self.spy_bounds(monkeypatch)
        sol = solve_cut_sdp(build_q(fixtures.petersen()), SolverOptions(max_iters=max_iters))
        gap = sol.history[:, 2]
        rows = self.measured_rows(sol.history)
        assert len(calls) == rows.size
        assert np.all(np.isinf(gap[: rows[0]]))
        assert np.all(np.isfinite(gap[rows[0]:]))
        for start, stop in zip(rows, np.append(rows[1:], len(gap))):
            assert np.all(gap[start:stop] == gap[start])
        if max_iters == 40:
            assert rows.size >= 2 and rows[0] > 0

    @pytest.mark.parametrize("max_iters", [1, 2, 5, 30])
    def test_last_row_measured_on_the_returned_factor(self, monkeypatch, max_iters):
        calls = self.spy_bounds(monkeypatch)
        qm = build_q(fixtures.petersen())
        sol = solve_cut_sdp(qm, SolverOptions(max_iters=max_iters))
        assert not sol.converged and sol.iterations == max_iters
        v = sol.factor
        y, bound = calls[-1]
        assert np.array_equal(y, np.einsum("ij,ij->i", qm.entries @ v, v))
        objective = float((qm.entries * (v @ v.T + 1.0)).sum()) / 2.0
        assert sol.objective == objective == sol.history[-1, 0]
        assert sol.upper_bound == (bound + float(qm.entries.sum())) / 2.0
        assert sol.dual_residual == sol.upper_bound - sol.objective
        # the rows before are those of the uncapped solve
        uncapped = solve_cut_sdp(qm)
        assert np.array_equal(sol.history[:-1], uncapped.history[: max_iters - 1])

    def test_zero_row_is_bitwise_fixed(self):
        # vertices 4 and 5 have no edge: their rows of C0 are zero and take
        # no shift, so they keep the seeded start to the bit
        g = Graph(n=6, edges=((0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0), (2, 3, 1.0)),
                  variant="undirected")
        qm = build_q(g)
        start = sdp._seeded_start(g.n)
        for max_iters in (1, 2, 10, None):
            opts = SolverOptions() if max_iters is None else SolverOptions(max_iters=max_iters)
            sol = solve_cut_sdp(qm, opts)
            assert np.array_equal(sol.factor[4:], start[4:]), max_iters
            assert not np.array_equal(sol.factor[:4], start[:4]), max_iters
        assert sol.converged

    def test_two_block_n150_converges_within_the_default_cap(self):
        qm = build_q(two_block_graph(150, seed=2))
        sol = solve_cut_sdp(qm)
        assert sol.converged
        assert sol.iterations < SolverOptions().max_iters
        assert sol.upper_bound - sol.objective <= SolverOptions().tol_obj


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
    # the full solver's factor comes from the eigenpairs of ADMM's last PSD
    # projection, the bipartition solver's from the power method; the
    # rounding cuts either as it is

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
