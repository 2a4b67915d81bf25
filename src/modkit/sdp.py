"""Semidefinite relaxation solvers for modularity objectives.

Two problems, one solver each:

* full relaxation: maximize <Q, X> over PSD X with unit diagonal and
  entrywise nonnegative entries; its optimum upper-bounds the best
  achievable modularity over all partitions. It is solved by operator
  splitting (ADMM): alternating projections onto the PSD cone (one
  symmetric eigendecomposition per iteration) and onto the nonnegative
  unit-diagonal matrices, with scaled dual updates and a penalty that
  self-tunes by residual balancing. ADMM starts warm, primal and dual,
  from the mixing method below run with the rows of V kept >= 0: X = V V^T
  is then feasible, and often close to the optimum, though V >= 0 confines
  it to the completely positive matrices. A last PSD projection repairs
  the final iterate, and its eigenpairs, rows normalized, give the factor.
  When ADMM stopped early and that factor's V V^T has a negative entry,
  the nonnegative start is returned instead, so the solution stays in the
  relaxation's domain.
* bipartition relaxation: maximize <Q, (X+1)/2> over PSD X with unit
  diagonal (entries may be negative); its optimum upper-bounds the best
  modularity over bipartitions. It is solved by the mixing method (Wang,
  Chang & Kolter 2017): X = V V^T with V of rank ceil(sqrt(2n)) + 1 and unit
  rows, each sweep setting every row in turn to the normalized Q-weighted
  sum of the others. The updates need no eigendecomposition; each sweep
  runs one symmetric eigenvalue solve (eigvalsh) for its dual bound.

Both solvers return their solution as a unit-row factor V: the solution is
X = V V^T, every reported figure is evaluated on it, and the rounding cuts
V itself. Each also returns a dual upper bound that holds at any iterate,
converged or not (Jansson, Chaykowski & Keil 2007): for any vector y and
any symmetric N >= 0 with zero diagonal, every feasible X has
<Q, X> <= sum(y) + n * max(0, lambda_max(Q + N - Diag y)). The full solver
takes y and N from its last dual iterate; the mixing method takes
y = diag(Q V V^T), and stops when this bound is within ``tol_obj`` of the
objective it reports. Each also returns its iterate record, one row per
iteration, as data; the iteration count and the final residuals are read
from it. The module does no I/O. Iteration order and the mixing
method's starting point are fixed, so a solve is bit-reproducible for
identical inputs and options.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np

from .modularity import QMatrix, summands

__all__ = [
    "SolverOptions",
    "SdpSolution",
    "solve_full_sdp",
    "solve_cut_sdp",
]


# Seed of the mixing method's Gaussian start, so that a solve depends only
# on its graph.
_MIXING_SEED = 0

# ADMM's initial penalty (splitting step size); residual balancing retunes
# it. From the warm start, 1 saves iterations on small graphs but needs
# 1.6 times as many on the hardest benchmark graph (weighted, n = 69:
# 15.1k against 9.1k), whose solve dominates the full path's time.
_INITIAL_PENALTY = 0.125

# The nonnegative mixing method that starts ADMM stops when a sweep changes
# its objective by at most this much, relative. Its tail is slow, so a
# per-sweep change of tol_obj = 1e-6 leaves the start further from its
# optimum: on the test corpus, ADMM then needs 1.5 times the iterations.
_START_TOL = 1e-9


@dataclass(frozen=True)
class SolverOptions:
    """Solver knobs, the same for both relaxations. ``tol_obj`` bounds the
    dual gap (bipartition) or the relative objective change (full) at
    convergence; ADMM also needs both residuals at most ``tol_obj / 40``.
    It must be finite and positive. ``max_iters``, a positive int, caps the
    mixing sweeps of either solver and, separately, the full solver's ADMM
    iterations, so a full solve can run up to twice that many steps; its
    ``iterations`` count ADMM iterations only."""

    tol_obj: float = 1e-6
    max_iters: int = 50000

    def __post_init__(self):
        if not (math.isfinite(self.tol_obj) and self.tol_obj > 0):
            raise ValueError("tolerances must be finite and positive")
        if isinstance(self.max_iters, bool) or not isinstance(self.max_iters, int):
            raise TypeError("max_iters must be an int")
        if self.max_iters <= 0:
            raise ValueError("max_iters must be positive")


@dataclass(frozen=True)
class SdpSolution:
    """Solution of one relaxation.

    The solution is V V^T for the ``factor`` V, the factor that the
    rounding cuts; its rows must be unit vectors. For kind="full" the
    entries of V V^T are nonnegative, within ``tol_obj / 40`` once the solve
    converged and exactly when it did not.
    ``objective`` and ``z_plus``/``z_minus``, the positive- and
    negative-mass averages that the rounding guarantees consume, are
    evaluated on V V^T. ``upper_bound`` is the dual bound on the relaxation
    optimum, and so on the best partition's score; it holds whether or not
    the solve converged. ``history`` has one row (objective,
    primal_residual, dual_residual) per iteration: per ADMM iteration for
    kind="full", per sweep for kind="cut". ``iterations`` is its row count,
    and ``primal_residual`` and ``dual_residual`` are its last row's.
    """

    factor: np.ndarray
    objective: float
    upper_bound: float
    z_plus: float
    z_minus: float
    kind: str
    converged: bool
    history: np.ndarray

    def __post_init__(self):
        self.factor.setflags(write=False)
        self.history.setflags(write=False)
        # written so that a NaN norm fails it
        if not np.all(np.abs(np.linalg.norm(self.factor, axis=1) - 1.0) <= 1e-9):
            raise ValueError("solution factor rows must be unit vectors")

    @property
    def iterations(self) -> int:
        return len(self.history)

    @property
    def primal_residual(self) -> float:
        return float(self.history[-1, 1])

    @property
    def dual_residual(self) -> float:
        return float(self.history[-1, 2])


def _psd_eig(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs (w, u) of the PSD projection u Diag(w) u^T of ``mat``:
    those of ``mat``, with negative eigenvalues clipped to 0."""
    w, u = np.linalg.eigh(mat)
    np.clip(w, 0.0, None, out=w)
    return w, u


def _psd_project(mat: np.ndarray) -> np.ndarray:
    w, u = _psd_eig(mat)
    return (u * w) @ u.T


def _psd_factor(mat: np.ndarray) -> np.ndarray:
    """The factor of ``_psd_project(mat)`` from its eigenpairs, with each
    row normalized to unit length."""
    w, u = _psd_eig(mat)
    factor = (u * np.sqrt(w))[:, w > 0.0]
    factor /= np.linalg.norm(factor, axis=1)[:, None]
    return factor


def _box_project(mat: np.ndarray) -> np.ndarray:
    out = mat.copy()
    np.fill_diagonal(out, 1.0)
    np.clip(out, 0.0, None, out=out)
    return out


def _dual_bound(c: np.ndarray, y: np.ndarray, N: np.ndarray | None = None) -> float:
    """Upper bound on <c, X> over PSD X with unit diagonal, and X >= 0 when
    ``N`` is given: sum(y) + n * max(0, lambda_max(c + N - Diag y)). It
    holds for any y and any symmetric N >= 0 with zero diagonal. The
    eigenvalue is raised by 4 n^2 eps max|M|, more than the rounding error
    of forming M and of its symmetric eigensolve, so the bound holds in
    floating point too."""
    n = c.shape[0]
    m = c - np.diag(y)
    if N is not None:
        m += N
    margin = 4.0 * n * n * np.finfo(float).eps * float(np.abs(m).max())
    lam = float(np.linalg.eigvalsh(m)[-1])
    return float(y.sum()) + n * max(0.0, lam + margin)


def _admm(c: np.ndarray, opts: SolverOptions, v: np.ndarray):
    """Maximize <c, X> over PSD X >= 0 with unit diagonal, starting from
    the feasible point X = V V^T for a unit-row V >= 0. Returns (X,
    converged, upper_bound, history), the last with one row (objective,
    primal_res, dual_res) per iteration. It stops when both residuals are
    at most tol_obj / 40 and the objective changed by at most tol_obj,
    relative. The start is primal and dual: z = V V^T, and rho * u =
    Diag(y) with y_i = (c V V^T)_ii, the multiplier of X_ii = 1 at a
    stationary V. Residual balancing keeps the two projection sequences in
    step: every 10 iterations the penalty rho is doubled (halved) when the
    primal (dual) residual exceeds 10 times the other, and u is rescaled to
    match."""
    rho = _INITIAL_PENALTY
    z = _box_project(v @ v.T)
    u = np.diag(np.einsum("ij,ij->i", c @ v, v) / rho)
    stop_tol = opts.tol_obj / 40.0
    obj_prev = None
    x = z
    converged = False
    history = array("d")

    for it in range(1, opts.max_iters + 1):
        x = _psd_project(z - u + c / rho)
        z_new = _box_project(x + u)
        r_inf = float(np.abs(x - z_new).max())
        s_inf = float(rho * np.abs(z_new - z).max())
        z = z_new
        u += x - z

        obj = float((c * x).sum())
        history.extend((obj, r_inf, s_inf))

        if (
            r_inf <= stop_tol
            and s_inf <= stop_tol
            and obj_prev is not None
            and abs(obj - obj_prev) <= opts.tol_obj * max(1.0, abs(obj))
        ):
            converged = True
            break
        obj_prev = obj

        if it % 10 == 0:
            if r_inf > 10.0 * s_inf:
                rho *= 2.0
                u /= 2.0
            elif s_inf > 10.0 * r_inf:
                rho /= 2.0
                u *= 2.0

    # rho * u tends to the box constraint's multiplier Diag(y) - N; its
    # negation gives another (y, N). Both bounds are valid, so keep the
    # smaller: on the 68 graphs of the test corpus the negation's bound is
    # the smaller one on 2 to 10 of them at every iteration limit from 1 to
    # the default.
    dual = rho * u
    off = dual - np.diag(np.diag(dual))
    bound = min(
        _dual_bound(c, s * np.diag(dual), np.clip(-s * off, 0.0, None))
        for s in (1.0, -1.0)
    )
    return x, converged, bound, np.frombuffer(history).reshape(-1, 3)


def _mixing_start(n: int) -> np.ndarray:
    """The mixing method's seeded starting factor: n Gaussian unit rows of
    rank ceil(sqrt(2n)) + 1."""
    rank = math.ceil(math.sqrt(2 * n)) + 1
    v = np.random.default_rng(_MIXING_SEED).standard_normal((n, rank))
    v /= np.linalg.norm(v, axis=1)[:, None]
    return v


def _mixing_sweep(c: np.ndarray, v: np.ndarray, nonneg: bool) -> None:
    """One sweep of the mixing method, in place: in index order, row i
    becomes g / |g| for g = sum_{j != i} c_ij v_j, with g clipped to >= 0
    when ``nonneg``; a row whose g is zero is left unchanged. Any other
    update maximizes <c, V V^T> over row i alone among unit (nonnegative)
    rows."""
    for i in range(c.shape[0]):
        g = c[i] @ v - c[i, i] * v[i]
        if nonneg:
            np.clip(g, 0.0, None, out=g)
        norm = math.sqrt(g @ g)
        if norm > 0.0:
            v[i] = g / norm


def _mixing(c: np.ndarray, opts: SolverOptions):
    """Maximize <c, (X+1)/2> over PSD X with unit diagonal as X = V V^T.
    Returns (V, converged, upper_bound, history), the last with one row
    (objective, primal_res, gap) per sweep; the gap is measured against that
    objective, evaluated on V V^T as ``solve_cut_sdp`` reports it."""
    n = c.shape[0]
    v = _mixing_start(n)
    shift = float(c.sum())
    bound = np.inf
    converged = False
    history = array("d")

    for _ in range(opts.max_iters):
        _mixing_sweep(c, v, nonneg=False)
        # y_i = (Q V V^T)_ii, the multiplier of the constraint X_ii = 1
        y = np.einsum("ij,ij->i", c @ v, v)
        objective = float((c * (v @ v.T + 1.0)).sum()) / 2.0
        bound = (_dual_bound(c, y) + shift) / 2.0
        gap = bound - objective
        primal = float(np.abs(np.einsum("ij,ij->i", v, v) - 1.0).max())
        history.extend((objective, primal, gap))
        if gap <= opts.tol_obj * max(1.0, abs(objective)):
            converged = True
            break
    return v, converged, bound, np.frombuffer(history).reshape(-1, 3)


def _nonneg_mixing(c: np.ndarray, opts: SolverOptions) -> np.ndarray:
    """Maximize <c, V V^T> over unit-row V >= 0 by the mixing method, so
    that V V^T is feasible for the full relaxation. V >= 0 confines X to
    the completely positive matrices, so this is a starting point for
    ADMM, not a solve: it stops when a sweep changes <c, V V^T> by at most
    ``_START_TOL`` relative, or after ``max_iters`` sweeps.

    A vertex whose row of c is zero (an isolated vertex) leaves the
    objective unchanged wherever it goes, but its seeded row couples it to
    the others, and ADMM is slow to settle those entries (13.8k against
    0.7k iterations on a 7-vertex test graph). So it gets a coordinate of
    its own, X_ij = 0 for j != i: ADMM's iterates then stay block diagonal
    and never move that row."""
    n = c.shape[0]
    v = np.abs(_mixing_start(n))
    obj_prev = None
    for _ in range(opts.max_iters):
        _mixing_sweep(c, v, nonneg=True)
        obj = float(np.einsum("ij,ij->", c @ v, v))
        if obj_prev is not None and abs(obj - obj_prev) <= _START_TOL * max(1.0, abs(obj)):
            break
        obj_prev = obj
    isolated = np.flatnonzero(~c.any(axis=1))
    if isolated.size:
        v[isolated] = 0.0
        own = np.zeros((n, isolated.size))
        own[isolated, np.arange(isolated.size)] = 1.0
        v = np.hstack([v, own])
    return v


def _repair(x: np.ndarray) -> np.ndarray:
    """Rescale an iterate's diagonal to exactly 1, clamp negatives and return
    the unit-row factor V of the PSD projection. V V^T keeps residual-sized
    negative entries, within tol_obj / 40 once ADMM converged."""
    dg = np.sqrt(np.clip(np.diag(x), 1e-12, None))
    out = x / np.outer(dg, dg)
    np.clip(out, 0.0, None, out=out)
    return _psd_factor((out + out.T) / 2.0)


def solve_full_sdp(qm: QMatrix, opts: SolverOptions | None = None) -> SdpSolution:
    """Solve the full relaxation and report the repaired solution.

    z_plus (in [0, 1]) and z_minus (in [-1, 0], or above 0 by no more than
    the negative entries a converged repair keeps) are the entry averages
    of the solution weighted by the positive and negative coefficient mass.
    A solve that exhausts max_iters returns its repaired last iterate, or
    the nonnegative start when that has a negative entry, flagged
    converged=False; the caller decides what to do with it.
    """
    opts = opts or SolverOptions()
    start = _nonneg_mixing(qm.entries, opts)
    x, converged, bound, history = _admm(qm.entries, opts, start)
    factor = _repair(x)
    gram = factor @ factor.T
    if not converged and gram.min() < 0.0:
        # an early-stopped repair can leave negative entries, outside the
        # domain [0, 1] on which the rounding floor holds; the start is
        # feasible, so the floor holds for it exactly
        factor = start
        gram = factor @ factor.T

    weighted = qm.entries * gram
    pos = qm.entries >= 0
    z_plus = float(weighted[pos].sum()) / qm.q_mass
    z_minus = float(weighted[~pos].sum()) / qm.q_mass
    objective = float(weighted.sum())
    return SdpSolution(
        factor=factor,
        objective=objective,
        upper_bound=bound,
        z_plus=z_plus,
        z_minus=z_minus,
        kind="full",
        converged=converged,
        history=history,
    )


def solve_cut_sdp(qm: QMatrix, opts: SolverOptions | None = None) -> SdpSolution:
    """Solve the bipartition relaxation (no nonnegativity constraint) by the
    mixing method.

    Only undirected and weighted inputs are meaningful here; other variants
    are rejected. z_plus is the coupling term of the objective and z_minus
    the null-model term, so objective == z_plus + z_minus. The residuals
    are max_i |v_i . v_i - 1| and the dual gap.
    """
    if qm.graph.variant not in ("undirected", "weighted"):
        raise ValueError(
            f"bipartition relaxation is defined for undirected/weighted "
            f"graphs, not {qm.graph.variant!r}"
        )
    opts = opts or SolverOptions()
    v, converged, bound, history = _mixing(qm.entries, opts)

    coupling, null, _ = summands(qm.graph)
    shifted = v @ v.T + 1.0
    z_plus = float((coupling * shifted).sum()) / 2.0
    z_minus = -float((null * shifted).sum()) / 2.0
    return SdpSolution(
        factor=v,
        objective=float(history[-1, 0]),
        upper_bound=bound,
        z_plus=z_plus,
        z_minus=z_minus,
        kind="cut",
        converged=converged,
        history=history,
    )

