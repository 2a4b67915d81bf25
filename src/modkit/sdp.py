"""Semidefinite relaxation solvers for modularity objectives.

Two problems, one solver each:

* full relaxation: maximize <Q, X> over PSD X with unit diagonal and
  entrywise nonnegative entries; its optimum upper-bounds the best
  achievable modularity over all partitions. It is solved by operator
  splitting (ADMM): alternating projections onto the PSD cone and onto
  the nonnegative unit-diagonal matrices, with scaled dual updates and a
  penalty that self-tunes by residual balancing. A PSD projection splits
  the spectrum at 0. On graphs of 40 or more vertices a plain step
  refines the previous step's split by a few matrix products, a Riccati
  equation for the rotation between the two eigenspaces (Stewart 1973;
  Demmel 1987) and eigendecompositions of order r, the positive count;
  it keeps the result only when it certifies the new split, and runs the
  full symmetric eigendecomposition otherwise, after a penalty change, at
  least once per 200 iterations and wherever all eigenpairs are
  needed. ADMM starts warm, primal and dual,
  from the power step of the bipartition solver below clipped to the
  nonnegative orthant: each step sets V to the row-normalized
  max(0, (C0 + sigma I) V). X = V V^T is then feasible, and often close
  to the optimum, though V >= 0 confines it to the completely positive
  matrices. ADMM is run as Douglas-Rachford splitting on one matrix, and
  after a warm-up, which ends early once both residuals reach 10 tol_obj,
  it also tries, as often as every other iteration, a safeguarded
  semismooth Newton step on the map's fixed-point residual (Ali, Wong &
  Kolter 2017), with the closed-form generalized Jacobian of the PSD
  projection (Zhao, Sun & Toh 2010) and one cycle of an in-module GMRES
  (Saad & Schultz 1986) started from the previous attempt's direction.
  The step is backtracked along its direction until it shrinks the
  residual enough, and dropped if no step size does; after a failed
  attempt the wait before the next one doubles. Past the warm-up these
  attempts, not the plain steps, do most of the converging; the stop
  test is made on plain ADMM steps. The eigenpairs of the last PSD
  projection, rows normalized, give the factor. When ADMM stopped early
  and that factor's V V^T has a negative entry, the nonnegative start is
  returned instead, so the solution stays in the relaxation's domain.
* bipartition relaxation: maximize <Q, (X+1)/2> over PSD X with unit
  diagonal (entries may be negative); its optimum upper-bounds the best
  modularity over bipartitions. It is solved as X = V V^T with V of rank
  ceil(sqrt(2n)) + 1 and unit rows by the generalized power method
  (Journee, Nesterov, Richtarik & Sepulchre 2010): each step sets V to the
  row-normalized product (C0 + sigma I) V, one matrix product, where C0 is
  Q off its diagonal and the shift sigma, from one symmetric eigenvalue
  solve (eigvalsh) at the start, makes every step raise the objective. The
  dual bound, one more eigvalsh, is evaluated only on a schedule: when a
  step stalls, with a doubling wait between evaluations, and on the last
  step that max_iters permits.

Both solvers return their solution as a unit-row factor V: the solution is
X = V V^T, every reported figure is evaluated on it, and the rounding cuts
V itself. Each also returns a dual upper bound that holds at any iterate,
converged or not (Jansson, Chaykowski & Keil 2007): for any vector y and
any symmetric N >= 0 with zero diagonal, every feasible X has
<Q, X> <= sum(y) + n * max(0, lambda_max(Q + N - Diag y)). The full solver
takes y and N from its last dual iterate; the bipartition solver takes
y = diag(Q V V^T), and stops only on an evaluation where this bound is
within ``tol_obj`` of the objective it reports. Each also returns its
iterate record, one row per iteration, as data; the iteration count and
the final residuals are read from it. The module does no I/O. Iteration
order and the seeded starting point are fixed, so a solve is
bit-reproducible for identical inputs and options.
"""

from __future__ import annotations

import math
import numbers
from array import array
from dataclasses import dataclass

import numpy as np

from .graph import _checked_int
from .modularity import QMatrix, summands

__all__ = [
    "SolverOptions",
    "SdpSolution",
    "solve_full_sdp",
    "solve_cut_sdp",
]


# Seed of the Gaussian start of both ascents, so that a solve depends only
# on its graph.
_START_SEED = 0

# ADMM's initial penalty (splitting step size); residual balancing retunes
# it. From the warm start, 1 saves iterations on small graphs but needs
# 1.6 times as many on the hardest benchmark graph (weighted, n = 69:
# 15.1k against 9.1k), whose solve dominates the full path's time.
_INITIAL_PENALTY = 0.125

# The clipped power steps that start ADMM stop when a step changes their
# objective by at most this much, relative. On the test corpus's 68 graphs
# 1e-6 leaves ADMM 1.16 times the iterations (4476 against 3872); 1e-12
# saves 7% of them but takes 6 times the steps (102k against 16.6k), which
# cost more time than the ADMM iterations saved.
_START_TOL = 1e-9

# The bipartition solver evaluates its dual bound (one eigvalsh) only when a
# step stalls, and at least this many steps after the previous evaluation
# once the wait, doubled at each evaluation from 1, reaches it.
_BOUND_MAX_WAIT = 64

# Semismooth Newton steps on ADMM's fixed-point residual: the first attempt
# follows a warm-up of _NEWTON_WARMUP iterations, or comes sooner, on the
# iteration after both residuals first reach _NEWTON_CLOSE * tol_obj; a
# warm-up of max_iters or more turns the attempts off. Many small graphs
# are within 1e-7 at iteration 100, and the first attempt finishes them.
# The next attempts wait between _NEWTON_WAIT and _NEWTON_MAX_WAIT
# iterations, and the linear system gets one GMRES cycle of _NEWTON_KRYLOV
# iterations. Along the direction d the steps t + alpha d are tried for
# alpha in _NEWTON_STEPS, in order, and the first that shrinks the residual
# by 1 - (1 - _NEWTON_DECREASE) alpha is taken. A plain step shrinks the
# residual by about 0.5% on the hardest benchmark graph (weighted, n = 69),
# so the attempts do the converging there: with a wait of 2 it stops after
# 345 iterations, against 1441 with a wait of 20 (391 with a wait of 2 and
# every GMRES cycle started from 0).
_NEWTON_WARMUP = 100
_NEWTON_CLOSE = 10.0
_NEWTON_WAIT = 2
_NEWTON_MAX_WAIT = 200
_NEWTON_DECREASE = 0.9
_NEWTON_KRYLOV = 20
_NEWTON_STEPS = (1.0, 0.25, 0.0625, 0.015625)

# On graphs of at least _TRACK_MIN_N vertices a plain ADMM step refines the
# previous projection's eigenspace split (``_tracked``) instead of running
# a full eigh, with at most _TRACK_SWEEPS Riccati sweeps. Below that size
# a tracked step costs as much as the full eigh or more (1.2 to 1.5 times
# at n = 24 to 30, 0.94 to 1.1 times at n = 42 to 48, on a 2-vCPU VM).
_TRACK_MIN_N = 40
_TRACK_SWEEPS = 8


@dataclass(frozen=True)
class SolverOptions:
    """Solver knobs, the same for both relaxations. ``tol_obj`` bounds the
    dual gap (bipartition) or the relative objective change (full) at
    convergence; ADMM also needs both residuals at most ``tol_obj / 40``.
    It must be a finite, positive real number, not a bool. ``max_iters``, a
    positive int (a numpy integer is stored as an int, a bool is rejected),
    caps the bipartition solver's power steps, the full solver's clipped
    power steps (its warm start) and, separately, its ADMM iterations, so a
    full solve can run up to twice that many steps; its ``iterations``
    count ADMM iterations only. The full solver's Newton attempts, at most
    one per 2 ADMM iterations with up to four trial eigendecompositions
    each, are not iterations: they add no row to the solution's
    ``history``. They make an iteration dearer than a plain ADMM step, so
    a large solve that exhausts ``max_iters`` takes longer per iteration,
    though it ends nearer the optimum."""

    tol_obj: float = 1e-6
    max_iters: int = 50000

    def __post_init__(self):
        if isinstance(self.tol_obj, bool) or not isinstance(self.tol_obj, numbers.Real):
            raise TypeError(
                f"tol_obj must be a real number, not {type(self.tol_obj).__name__}"
            )
        if not (math.isfinite(self.tol_obj) and self.tol_obj > 0):
            raise ValueError("tolerances must be finite and positive")
        object.__setattr__(
            self, "max_iters", _checked_int("max_iters", self.max_iters, 1)
        )


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
    kind="full", per power step for kind="cut". For kind="cut" the
    dual_residual column is the dual gap last measured, +inf before the
    first measurement; the last row's is always measured on ``factor``,
    against the reported ``objective``. ``iterations`` is its row count, and
    ``primal_residual`` and ``dual_residual`` are its last row's.
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


def _box_project(mat: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The nearest nonnegative matrix with unit diagonal, written to ``out``
    when given."""
    out = np.maximum(mat, 0.0, out=out)
    out.flat[:: out.shape[0] + 1] = 1.0
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


def _reflect(t: np.ndarray, bt: np.ndarray, c_rho: np.ndarray, prev=None):
    """The PSD half of the Douglas-Rachford step at t, given bt = B(t):
    (x, lam, vecs) with x = P+(w) for w = 2 B(t) - t + c / rho. vecs is an
    orthonormal basis whose last lam.size columns are eigenvectors of w
    with the eigenvalues lam, ascending, and whose first n - r columns, for
    the r positive eigenvalues, span w's nonpositive eigenspace.

    Without ``prev`` this is the full eigendecomposition w = vecs Diag(lam)
    vecs^T, all n eigenvalues. Given ``prev``, the (lam, vecs) of a
    projection at a nearby point, and n >= ``_TRACK_MIN_N``, the split of
    prev's basis is first refined to w (``_tracked``); then lam holds the r
    positive eigenvalues only. The full eigendecomposition runs whenever
    the refinement cannot certify its split."""
    w = 2.0 * bt
    w -= t
    w += c_rho
    if prev is not None and w.shape[0] >= _TRACK_MIN_N:
        tracked = _tracked(w, *prev)
        if tracked is not None:
            return tracked
    lam, vecs = np.linalg.eigh(w)
    # x is built from the positive eigenpairs only: the iterates have low rank
    k = int(np.searchsorted(lam, 0.0, side="right"))
    x = (vecs[:, k:] * lam[k:]) @ vecs[:, k:].T
    return x, lam, vecs


def _tracked(w: np.ndarray, lam: np.ndarray, vecs: np.ndarray):
    """P+(w) from the basis vecs = [U- | U+] of a projection at a nearby
    point, split at its r positive eigenvalues (the tail of lam): (x, lam,
    vecs) as ``_reflect`` returns them, with lam the r positive eigenvalues
    of w, or None when the split cannot be refined and certified.

    In that basis w is M = [[A, Z^T], [Z, B]], with the coupling Z small.
    The columns of [Y; I] span an invariant subspace of M when Y solves the
    Riccati equation A Y + Z^T - Y (B + Z Y) = 0 (Stewart 1973; Demmel
    1987). Diagonally preconditioned sweeps Y <- Y - R / (a_i - b_j), for
    the residual R and the diagonals a of A and b of B, every a_i below
    every b_j, solve it: at most ``_TRACK_SWEEPS`` of them, stopped as soon
    as |R| grows, must bring |R| to 16 n eps max|diag M|. The orthonormal
    bases [Y; I] (I + Y^T Y)^(-1/2) and [I; -Y^T] (I + Y Y^T)^(-1/2), both
    from one r x r eigh of Y^T Y, rotate the blocks apart, leaving them
    coupled by R alone. As P+ is nonexpansive, x then differs from P+(w)
    by at most sqrt(2) |R|_F. One r x r eigh of the rotated positive block
    gives its eigenpairs. The split is certified, and the result returned,
    only when all r eigenvalues are positive and the negative block, or
    N^T M N for N = [I; -Y^T], which is congruent to it, is negative
    definite: by Weyl's bound max diag + |off-diagonal|_F < 0, else by a
    Cholesky factorization of its negation. The negative block is rotated
    but never diagonalized, so its diagonal drifts from its eigenvalues
    until a full eigh resets the basis."""
    n = w.shape[0]
    r = lam.size - int(np.searchsorted(lam, 0.0, side="right"))
    k = n - r
    if r == 0 or r == n:
        return None
    m = vecs.T @ (w @ vecs)
    a, zt, b = m[:k, :k], m[:k, k:], m[k:, k:]
    d = m.diagonal()
    gap = d[:k, None] - d[None, k:]
    if gap.max() >= 0.0:
        return None
    tol = 16.0 * n * np.finfo(float).eps * float(np.abs(d).max())
    y, h, zy = np.zeros((k, r)), zt, 0.0
    res = zt
    size = float(np.abs(res).max())
    for sweep in range(_TRACK_SWEEPS + 1):
        if size <= tol:
            break
        if sweep == _TRACK_SWEEPS:
            return None
        y -= res / gap
        h = a @ y + zt
        zy = zt.T @ y
        res = h - y @ (b + zy)
        size, last = float(np.abs(res).max()), size
        if size >= last:
            return None

    # (I + Y^T Y)^(-1/2) = g = v Diag(1 / root) v^T and (I + Y Y^T)^(-1/2)
    # = I - Y v Diag(f) v^T Y^T for Y^T Y = v Diag(s) v^T
    s, v = np.linalg.eigh(y.T @ y)
    root = np.sqrt(1.0 + np.maximum(s, 0.0))
    g = (v / root) @ v.T
    f = 1.0 / (root * (1.0 + root))
    # [Y; I]^T M [Y; I] = Y^T (A Y + Z^T) + Z Y + B
    bp = y.T @ h + zy + b
    bp = g @ (bp + bp.T) @ g / 2.0
    lp, vb = np.linalg.eigh(bp)
    if lp[0] <= 0.0:
        return None
    # [I; -Y^T]^T M [I; -Y^T] = A + q Y^T + Y q^T for q = Y B / 2 - Z^T
    neg = (y @ (b / 2.0) - zt) @ y.T
    neg += neg.T
    neg += a
    dn = neg.diagonal().copy()
    neg.flat[:: k + 1] = 0.0
    if dn.max() + np.linalg.norm(neg) >= 0.0:
        neg.flat[:: k + 1] = dn
        try:
            np.linalg.cholesky(-neg)
        except np.linalg.LinAlgError:
            return None

    # U- and U+ rotated: (U- - U+ Y^T) (I + Y Y^T)^(-1/2), where
    # (U- - U+ Y^T) Y v = U- Y v - U+ v Diag(s), and (U- Y + U+) g vb
    um, upos = vecs[:, :k], vecs[:, k:]
    uy = um @ y
    basis = np.empty_like(vecs)
    lower = ((uy @ v - upos @ v * s) * f) @ v.T + upos
    np.subtract(um, lower @ y.T, out=basis[:, :k])
    upper = basis[:, k:]
    np.matmul(uy + upos, g @ vb, out=upper)
    x = (upper * lp) @ upper.T
    return x, lp, basis


def _residual_jacobian(t: np.ndarray, lam: np.ndarray, vecs: np.ndarray):
    """h -> J h for the generalized Jacobian J at t of the fixed-point
    residual F(t) = B(t) - P+(2 B(t) - t + c / rho), given the eigenpairs
    (lam, vecs) of 2 B(t) - t + c / rho, eigenvalues ascending: with
    U = vecs, J h = m o h - U (Omega o (U^T (2 m o h - h) U)) U^T. The 0/1
    mask m marks the off-diagonal entries with t_ij > 0, where B is the
    identity. Omega holds the divided differences
    (max(l_i, 0) - max(l_j, 0)) / (l_i - l_j) of the eigenvalues l (Zhao,
    Sun & Toh 2010): 1 between two positive ones, 0 between two
    nonpositive ones. As Omega is symmetric and vanishes off the rows and
    columns of the r positive eigenvalues, U (Omega o M) U^T = A + A^T for
    an A built from those r rows alone, halved on the positive columns;
    J h then costs four matrix products with an r x n factor instead of
    four n x n ones."""
    mask = t > 0.0
    np.fill_diagonal(mask, False)
    mask = mask.astype(float)
    k = int(np.searchsorted(lam, 0.0, side="right"))
    up, lp = vecs[:, k:], lam[k:]
    omega = np.full((lp.size, lam.size), 0.5)
    omega[:, :k] = lp[:, None] / (lp[:, None] - lam[None, :k])

    def apply(h: np.ndarray) -> np.ndarray:
        mh = mask * h
        a = up @ ((omega * (up.T @ (2.0 * mh - h) @ vecs)) @ vecs.T)
        return mh - a - a.T

    return apply


def _gmres(matvec, b: np.ndarray, m: int, x0: np.ndarray | None = None) -> np.ndarray:
    """One GMRES cycle (Saad & Schultz 1986): x0 + z for the z in the
    Krylov space span(r, A r, ..., A^(m-1) r), r = b - A x0, of A =
    ``matvec`` that minimizes |b - A (x0 + z)|. The start x0 is used only
    when |r| < |b|; otherwise, and without one, the cycle starts from 0.
    Each Arnoldi vector is orthogonalized by a classical Gram-Schmidt pass,
    a pair of matrix products against the basis, and by a second pass only
    when the first leaves at most half of its norm (Daniel, Gragg, Kaufman
    & Stewart 1976). The cycle stops early when the new basis vector
    vanishes (breakdown: the space is invariant and holds the exact
    solution). The small least-squares problem on the Hessenberg matrix
    gives z."""
    r = b
    if x0 is not None:
        r = b - matvec(x0)
        if np.linalg.norm(r) >= np.linalg.norm(b):
            r, x0 = b, None
    beta = float(np.linalg.norm(r))
    if beta == 0.0:
        return np.zeros_like(b) if x0 is None else x0
    basis = np.empty((m + 1, b.size))
    hess = np.zeros((m + 1, m))
    basis[0] = r / beta
    k = m
    for j in range(m):
        w = matvec(basis[j])
        scale = size = float(np.linalg.norm(w))
        for _ in range(2):
            h = basis[: j + 1] @ w
            w -= h @ basis[: j + 1]
            hess[: j + 1, j] += h
            size, last = float(np.linalg.norm(w)), size
            if size > 0.5 * last:
                break
        hess[j + 1, j] = size
        if size <= 1e-14 * scale:
            k = j + 1
            break
        basis[j + 1] = w / size
    rhs = np.zeros(k + 1)
    rhs[0] = beta
    y = np.linalg.lstsq(hess[: k + 1, :k], rhs, rcond=None)[0]
    z = y @ basis[:k]
    return z if x0 is None else x0 + z


def _newton_direction(f: np.ndarray, jac, d_prev: np.ndarray | None = None) -> np.ndarray:
    """Approximate solution d of (J + mu I) d = -f, mu = |f|, for the
    residual f = F(t) and ``jac`` = h -> J h at t, by one ``_gmres`` cycle
    of ``_NEWTON_KRYLOV`` iterations started from ``d_prev``, the previous
    attempt's direction, when given; symmetrized."""
    n = f.shape[0]
    mu = float(np.linalg.norm(f))

    def matvec(vec: np.ndarray) -> np.ndarray:
        h = vec.reshape(n, n)
        return (jac(h) + mu * h).ravel()

    x0 = None if d_prev is None else d_prev.ravel()
    d = _gmres(matvec, -f.ravel(), _NEWTON_KRYLOV, x0).reshape(n, n)
    return (d + d.T) / 2.0


def _admm(c: np.ndarray, opts: SolverOptions, v: np.ndarray):
    """Maximize <c, X> over PSD X >= 0 with unit diagonal, starting from
    the feasible point X = V V^T for a unit-row V >= 0. Returns (factor,
    converged, upper_bound, history). The factor is that of the last PSD
    projection x, built from its positive eigenpairs with rows normalized,
    so its Gram matrix is x with the diagonal scaled to 1; history has one
    row (objective, primal_res, dual_res) per iteration. It stops when both
    residuals are at most tol_obj / 40 and the objective changed by at most
    tol_obj, relative.

    Each plain step's projection starts from the previous one's basis
    (``_reflect``), which on graphs of at least ``_TRACK_MIN_N`` vertices
    skips the full eigendecomposition whenever the refined split is
    certified. The full one runs on the first iteration, after a change
    of rho (which moves w by far more than a step), on a Newton attempt's
    own iteration, whose Jacobian needs every eigenpair, on its trial
    steps, and at least once every ``_NEWTON_MAX_WAIT`` iterations, which
    bounds how far the tracked basis drifts from orthonormal.

    ADMM with scaled dual u is run as Douglas-Rachford on the one matrix
    t = x + u: z = B(t) and u = t - B(t) for the box projection B, and one
    iteration is t <- T(t) = t + P+(2 B(t) - t + c / rho) - B(t). The
    start is primal and dual: z = V V^T, and rho * u = Diag(y) with
    y_i = (c V V^T)_ii, the multiplier of X_ii = 1 at a stationary V.
    Residual balancing keeps the two projection sequences in step: every
    10 iterations the penalty rho is doubled (halved) when the primal
    (dual) residual exceeds 10 times the other, and u is rescaled to
    match.

    ADMM's tail is linear and slow, so after a warm-up, cut short when both
    residuals reach ``_NEWTON_CLOSE * tol_obj``, the loop also tries
    semismooth Newton steps on the fixed-point residual F(t) = t - T(t)
    (Ali, Wong & Kolter 2017), every ``_NEWTON_WAIT`` iterations while
    they succeed; see ``_newton_direction``. Its GMRES cycle starts from
    the previous attempt's direction, which a change of rho discards. Far
    from a solution the full step t + d can leave the region where the
    generalized Jacobian models F, so the step is backtracked, as in that
    scheme's line search: t + alpha d is taken for the first alpha in
    ``_NEWTON_STEPS`` with |F(t + alpha d)| <= (1 - (1 -
    ``_NEWTON_DECREASE``) alpha) |F(t)|, each try costing one
    eigendecomposition. The tries start one step size longer than the last
    accepted one, and at the full step after a failed attempt. When no
    alpha qualifies the wait before the next attempt doubles, up to
    ``_NEWTON_MAX_WAIT`` iterations; an acceptance resets it to
    ``_NEWTON_WAIT``. An attempt is not an iteration and adds no history
    row; the stop test is always made on a genuine ADMM step."""
    rho = _INITIAL_PENALTY
    c_rho = c / rho
    bt = _box_project(v @ v.T)
    t = bt + np.diag(np.einsum("ij,ij->i", c @ v, v) / rho)
    bt_new = np.empty_like(bt)
    stop_tol = opts.tol_obj / 40.0
    obj_prev = None
    converged = False
    history = array("d")
    wait = _NEWTON_WAIT
    next_newton = _NEWTON_WARMUP + 1
    close = _NEWTON_CLOSE * opts.tol_obj
    early = _NEWTON_WARMUP < opts.max_iters
    n = c.shape[0]
    # the last projection's (lam, vecs), when the next may start from it
    prev, full_at = None, 0
    # the last attempt's direction, and the index in _NEWTON_STEPS at which
    # the next attempt's backtracking starts
    d, first = None, 0

    for it in range(1, opts.max_iters + 1):
        attempt = it >= next_newton
        x, lam, vecs = _reflect(t, bt, c_rho, None if attempt else prev)
        if lam.size == n:
            full_at = it
        prev = (lam, vecs) if it - full_at < _NEWTON_MAX_WAIT - 1 else None
        if attempt:
            early = False
            f = bt - x
            f_norm = np.linalg.norm(f)
            d = _newton_direction(f, _residual_jacobian(t, lam, vecs), d)
            for i, alpha in enumerate(_NEWTON_STEPS[first:], first):
                t_try = t + alpha * d
                bt_try = _box_project(t_try)
                x_try, lam_try, vecs_try = _reflect(t_try, bt_try, c_rho)
                decrease = 1.0 - (1.0 - _NEWTON_DECREASE) * alpha
                if np.linalg.norm(bt_try - x_try) <= decrease * f_norm:
                    t, bt, x = t_try, bt_try, x_try
                    lam, vecs = lam_try, vecs_try
                    prev = (lam, vecs)
                    wait, first = _NEWTON_WAIT, max(i - 1, 0)
                    break
            else:
                wait, first = min(2 * wait, _NEWTON_MAX_WAIT), 0
            next_newton = it + wait

        t += x
        t -= bt
        _box_project(t, out=bt_new)
        r_inf = float(np.abs(x - bt_new).max())
        s_inf = float(rho * np.abs(bt_new - bt).max())
        bt, bt_new = bt_new, bt

        obj = float(np.vdot(c, x))
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
        if early and r_inf <= close and s_inf <= close:
            next_newton, early = it + 1, False

        if it % 10 == 0 and max(r_inf, s_inf) > 10.0 * min(r_inf, s_inf):
            # u = t - B(t) is rescaled against rho; B(t) does not move
            scale = 0.5 if r_inf > s_inf else 2.0
            rho /= scale
            c_rho = c / rho
            prev = d = None
            t -= bt
            t *= scale
            t += bt

    # rho * u tends to the box constraint's multiplier Diag(y) - N; its
    # negation gives another (y, N). Both bounds are valid, so keep the
    # smaller: on the 68 graphs of the test corpus the negation's bound is
    # the smaller one on 2 to 10 of them at every iteration limit from 1 to
    # the default.
    dual = rho * (t - bt)
    off = dual - np.diag(np.diag(dual))
    bound = min(
        _dual_bound(c, s * np.diag(dual), np.clip(-s * off, 0.0, None))
        for s in (1.0, -1.0)
    )
    lp = lam[int(np.searchsorted(lam, 0.0, side="right")):]
    factor = vecs[:, n - lp.size:] * np.sqrt(lp)
    factor /= np.linalg.norm(factor, axis=1)[:, None]
    return factor, converged, bound, np.frombuffer(history).reshape(-1, 3)


def _seeded_start(n: int) -> np.ndarray:
    """The seeded starting factor of both ascents: n Gaussian unit rows of
    rank ceil(sqrt(2n)) + 1."""
    rank = math.ceil(math.sqrt(2 * n)) + 1
    v = np.random.default_rng(_START_SEED).standard_normal((n, rank))
    v /= np.linalg.norm(v, axis=1)[:, None]
    return v


def _shifted(c: np.ndarray):
    """(m, offset): m = C0 + sigma D is positive semidefinite for C0 = c off
    its diagonal, sigma = max(0, -lambda_min(C0)) from one eigvalsh and D
    the 0/1 diagonal of C0's nonzero rows, and <c, V V^T> = <m, V V^T> +
    offset for unit rows V. An isolated vertex gets no shift, so its
    product (m V)_i stays zero and ``_normalize_rows`` never moves it."""
    n = c.shape[0]
    m = c.copy()
    m.flat[:: n + 1] = 0.0
    sigma = max(0.0, -float(np.linalg.eigvalsh(m)[0]))
    moving = m.any(axis=1)
    m.flat[:: n + 1] = sigma * moving
    # sum_i (c_ii - sigma [i moves]) |v_i|^2, read with unit rows
    offset = float(np.trace(c)) - sigma * int(moving.sum())
    return m, offset


def _normalize_rows(g: np.ndarray, v: np.ndarray) -> None:
    """Write the rows of g, normalized, to v; where a row of g is zero, the
    row of v is left unchanged."""
    norm = np.sqrt(np.einsum("ij,ij->i", g, g))[:, None]
    np.divide(g, norm, out=v, where=norm > 0.0)


def _power_method(c: np.ndarray, opts: SolverOptions):
    """Maximize <c, (X+1)/2> over PSD X with unit diagonal as X = V V^T,
    by the generalized power method (Journee, Nesterov, Richtarik &
    Sepulchre 2010): each step sets V <- rownormalize(m V) for the m of
    ``_shifted``, one matrix product, and never lowers <c, V V^T>.

    Returns (V, converged, upper_bound, history), the last with one row
    (objective, primal_res, gap) per step. A step's objective is read from
    the product of the next step. The dual bound, and the objective as
    ``solve_cut_sdp`` reports it, are evaluated only when a step changes
    the objective by at most ``tol_obj``, relative, at least ``wait`` steps
    after the last evaluation (``wait`` doubles from 1 to
    ``_BOUND_MAX_WAIT``), and on the last step ``max_iters`` permits. The
    solve stops only on an evaluated step whose gap is at most ``tol_obj``
    times max(1, |objective|). The gap column holds the most recent
    measured gap, +inf before the first, so the last row's gap is always
    measured on the returned V."""
    v = _seeded_start(c.shape[0])
    m, offset = _shifted(c)
    shift = float(c.sum())
    constant = offset + shift
    bound = gap = np.inf
    converged = False
    history = array("d")
    wait, evaluated = 1, 0
    g = m @ v
    obj_prev = (float(np.vdot(g, v)) + constant) / 2.0

    for it in range(1, opts.max_iters + 1):
        _normalize_rows(g, v)
        g = m @ v
        objective = (float(np.vdot(g, v)) + constant) / 2.0
        primal = float(np.abs(np.einsum("ij,ij->i", v, v) - 1.0).max())
        stalled = abs(objective - obj_prev) <= opts.tol_obj * max(1.0, abs(objective))
        obj_prev = objective
        if (stalled and it - evaluated >= wait) or it == opts.max_iters:
            # y_i = (Q V V^T)_ii, the multiplier of the constraint X_ii = 1
            y = np.einsum("ij,ij->i", c @ v, v)
            objective = float((c * (v @ v.T + 1.0)).sum()) / 2.0
            bound = (_dual_bound(c, y) + shift) / 2.0
            gap = bound - objective
            converged = bool(gap <= opts.tol_obj * max(1.0, abs(objective)))
            wait, evaluated = min(2 * wait, _BOUND_MAX_WAIT), it
        history.extend((objective, primal, gap))
        if converged:
            break
    return v, converged, bound, np.frombuffer(history).reshape(-1, 3)


def _nonneg_start(c: np.ndarray, opts: SolverOptions) -> np.ndarray:
    """Maximize <c, V V^T> over unit-row V >= 0, so that V V^T is feasible
    for the full relaxation, by ``_power_method``'s step clipped to the
    nonnegative orthant: V <- rownormalize(max(0, m V)). As <m, V V^T> is
    convex, each clipped row maximizes its linearization over unit rows
    >= 0, so <c, V V^T> never decreases; the fixed points are those of the
    nonnegative mixing method (Wang, Chang & Kolter 2017). V >= 0 confines
    X to the completely positive matrices, so this starts ADMM and is no
    solve: it stops when a step changes <c, V V^T> by at most
    ``_START_TOL``, relative, or after ``max_iters`` steps.

    An isolated vertex (a zero row of c) leaves the objective unchanged
    wherever it goes, but its seeded row couples it to the others, and
    ADMM is slow to settle those entries (1401 against 121 iterations on a
    7-vertex test graph). So it gets a coordinate of its own, X_ij = 0 for
    j != i: ADMM's iterates then stay block diagonal and never move it."""
    v = np.abs(_seeded_start(c.shape[0]))
    m, offset = _shifted(c)
    g = m @ v
    obj_prev = float(np.vdot(g, v)) + offset
    for _ in range(opts.max_iters):
        np.maximum(g, 0.0, out=g)
        _normalize_rows(g, v)
        g = m @ v
        obj = float(np.vdot(g, v)) + offset
        if abs(obj - obj_prev) <= _START_TOL * max(1.0, abs(obj)):
            break
        obj_prev = obj
    isolated = ~c.any(axis=1)
    v[isolated] = 0.0
    return np.hstack([v, np.eye(len(c))[:, isolated]])


def solve_full_sdp(qm: QMatrix, opts: SolverOptions | None = None) -> SdpSolution:
    """Solve the full relaxation and report the factor of ADMM's last PSD
    projection.

    z_plus (in [0, 1]) and z_minus (in [-1, 0], or above 0 by no more than
    the residual-sized negative entries a converged solve keeps) are the
    entry averages of the solution weighted by the positive and negative
    coefficient mass. A solve that exhausts max_iters returns its last
    projection, or the nonnegative start when that has a negative entry,
    flagged converged=False; the caller decides what to do with it.
    """
    opts = opts or SolverOptions()
    start = _nonneg_start(qm.entries, opts)
    factor, converged, bound, history = _admm(qm.entries, opts, start)
    gram = factor @ factor.T
    if not converged and gram.min() < 0.0:
        # an early-stopped projection can leave negative entries, outside
        # the domain [0, 1] on which the rounding floor holds; the start is
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
    generalized power method.

    Only undirected and weighted inputs are meaningful here; other variants
    are rejected. z_plus is the coupling term of the objective and z_minus
    the null-model term, so objective == z_plus + z_minus. The residuals
    are max_i |v_i . v_i - 1| and the dual gap last measured.
    """
    if qm.graph.variant not in ("undirected", "weighted"):
        raise ValueError(
            f"bipartition relaxation is defined for undirected/weighted "
            f"graphs, not {qm.graph.variant!r}"
        )
    opts = opts or SolverOptions()
    v, converged, bound, history = _power_method(qm.entries, opts)

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

