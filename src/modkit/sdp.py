"""Semidefinite relaxation solvers for modularity objectives.

Two problems, one solver each:

* full relaxation: maximize <Q, X> over PSD X with unit diagonal and
  entrywise nonnegative entries; its optimum upper-bounds the best
  achievable modularity over all partitions. It is solved by operator
  splitting (ADMM): alternating projections onto the PSD cone (one
  symmetric eigendecomposition per iteration) and onto the nonnegative
  unit-diagonal matrices, with scaled dual updates and a penalty that
  self-tunes by residual balancing. A last PSD projection repairs the
  final iterate, and its eigenpairs, rows normalized, give the factor.
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
objective it reports. Iteration order and the mixing method's starting
point are fixed, so a solve is bit-reproducible for identical inputs and
options.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass

import numpy as np

from .modularity import QMatrix, summands

__all__ = [
    "SolverOptions",
    "SdpSolution",
    "VectorEmbedding",
    "solve_full_sdp",
    "solve_cut_sdp",
    "gram_vectors",
]


# Seed of the mixing method's Gaussian start, so that a cut solve depends
# only on its graph.
_MIXING_SEED = 0

# ADMM's initial penalty (splitting step size); residual balancing retunes it.
_INITIAL_PENALTY = 1.0


@dataclass
class SolverOptions:
    """Solver knobs. ``tol_obj`` bounds the relative objective change (full)
    or dual gap (bipartition) at convergence, and ``max_iters`` counts ADMM
    iterations or mixing sweeps. ``tol_feas`` drives ADMM only and has no
    effect on ``solve_cut_sdp``. Both tolerances must be finite and
    positive. ``iterate_log`` optionally names a CSV file receiving one row
    per iteration (iteration, objective, primal_residual, dual_residual)."""

    tol_feas: float = 1e-7
    tol_obj: float = 1e-6
    max_iters: int = 50000
    iterate_log: str | None = None

    def __post_init__(self):
        for tol in (self.tol_feas, self.tol_obj):
            if not (math.isfinite(tol) and tol > 0):
                raise ValueError("tolerances must be finite and positive")
        if self.max_iters <= 0:
            raise ValueError("max_iters must be positive")


@dataclass(frozen=True)
class SdpSolution:
    """Solution of one relaxation.

    The solution is V V^T for the unit-row ``factor`` V, the factor that
    the rounding cuts; for kind="full" its entries are nonnegative within
    the feasibility tolerance once the solve converged. ``objective`` and
    ``z_plus``/``z_minus``, the positive- and negative-mass averages that
    the rounding guarantees consume, are evaluated on V V^T.
    ``upper_bound`` is the dual bound on the relaxation optimum, and so on
    the best partition's score; it holds whether or not the solve converged.
    """

    factor: np.ndarray
    objective: float
    upper_bound: float
    z_plus: float
    z_minus: float
    kind: str
    iterations: int
    primal_residual: float
    dual_residual: float
    converged: bool

    def __post_init__(self):
        self.factor.setflags(write=False)


@dataclass(frozen=True)
class VectorEmbedding:
    """Unit-vector Gram factor: row i is the vector of vertex i."""

    vectors: np.ndarray

    def __post_init__(self):
        self.vectors.setflags(write=False)
        norms = np.linalg.norm(self.vectors, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-9):
            raise ValueError("embedding rows must be unit vectors")

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


def _psd_project(mat: np.ndarray) -> np.ndarray:
    w, u = np.linalg.eigh(mat)
    np.clip(w, 0.0, None, out=w)
    return (u * w) @ u.T


def _psd_factor(mat: np.ndarray) -> np.ndarray:
    """The factor of ``_psd_project(mat)`` from its eigenpairs, with each
    row normalized to unit length."""
    w, u = np.linalg.eigh(mat)
    np.clip(w, 0.0, None, out=w)
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


@contextlib.contextmanager
def _iterate_log(path: str | None):
    """Yield a function writing one CSV row per iteration to ``path``, or
    one doing nothing when there is no path."""
    if not path:
        yield lambda *row: None
        return
    with open(path, "w") as log:
        log.write("iteration,objective,primal_residual,dual_residual\n")
        yield lambda it, obj, r, s: log.write(f"{it},{obj:.17g},{r:.17g},{s:.17g}\n")


def _admm(c: np.ndarray, opts: SolverOptions):
    """Maximize <c, X> over PSD X >= 0 with unit diagonal. Returns (X,
    iterations, primal_res, dual_res, converged, upper_bound). Residual
    balancing keeps the two projection sequences in step: every 10
    iterations the penalty rho is doubled (halved) when the primal (dual)
    residual exceeds 10 times the other, and u is rescaled to match."""
    n = c.shape[0]
    rho = _INITIAL_PENALTY
    z = np.eye(n)
    u = np.zeros((n, n))
    stop_tol = opts.tol_feas / 4.0
    obj_prev = None
    x = z
    r_inf = s_inf = np.inf
    converged = False

    it = 0
    with _iterate_log(opts.iterate_log) as log:
        for it in range(1, opts.max_iters + 1):
            x = _psd_project(z - u + c / rho)
            z_new = _box_project(x + u)
            r_inf = float(np.abs(x - z_new).max())
            s_inf = float(rho * np.abs(z_new - z).max())
            z = z_new
            u += x - z

            obj = float((c * x).sum())
            log(it, obj, r_inf, s_inf)

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
    return x, it, r_inf, s_inf, converged, bound


def _mixing(c: np.ndarray, opts: SolverOptions):
    """Maximize <c, (X+1)/2> over PSD X with unit diagonal as X = V V^T.
    Returns (V, sweeps, objective, primal_res, gap, converged, upper_bound);
    the gap is measured against the objective returned, evaluated on
    V V^T as ``solve_cut_sdp`` reports it."""
    n = c.shape[0]
    rank = math.ceil(math.sqrt(2 * n)) + 1
    v = np.random.default_rng(_MIXING_SEED).standard_normal((n, rank))
    v /= np.linalg.norm(v, axis=1)[:, None]
    shift = float(c.sum())
    objective = primal = gap = bound = np.inf
    converged = False

    it = 0
    with _iterate_log(opts.iterate_log) as log:
        for it in range(1, opts.max_iters + 1):
            for i in range(n):
                g = c[i] @ v - c[i, i] * v[i]
                norm = math.sqrt(g @ g)
                if norm > 0.0:
                    v[i] = g / norm
            # y_i = (Q V V^T)_ii, the multiplier of the constraint X_ii = 1
            y = np.einsum("ij,ij->i", c @ v, v)
            objective = float((c * (v @ v.T + 1.0)).sum()) / 2.0
            bound = (_dual_bound(c, y) + shift) / 2.0
            gap = bound - objective
            primal = float(np.abs(np.einsum("ij,ij->i", v, v) - 1.0).max())
            log(it, objective, primal, gap)
            if gap <= opts.tol_obj * max(1.0, abs(objective)):
                converged = True
                break
    return v, it, objective, primal, gap, converged, bound


def _repair(x: np.ndarray) -> np.ndarray:
    """Rescale an iterate's diagonal to exactly 1, clamp negatives and return
    the unit-row factor V of the PSD projection. V V^T keeps residual-sized
    negative entries, within tol_feas once ADMM converged."""
    dg = np.sqrt(np.clip(np.diag(x), 1e-12, None))
    out = x / np.outer(dg, dg)
    np.clip(out, 0.0, None, out=out)
    return _psd_factor((out + out.T) / 2.0)


def solve_full_sdp(qm: QMatrix, opts: SolverOptions | None = None) -> SdpSolution:
    """Solve the full relaxation and report the repaired solution.

    z_plus (in [0, 1]) and z_minus (in [-1, 0] once converged; an early
    stop can leave it slightly above 0) are the entry averages of the
    solution weighted by the positive and negative coefficient mass.
    A solve that exhausts max_iters returns its best iterate flagged
    converged=False; the caller decides what to do with it.
    """
    opts = opts or SolverOptions()
    x, iters, r_inf, s_inf, converged, bound = _admm(qm.entries, opts)
    factor = _repair(x)

    weighted = qm.entries * (factor @ factor.T)
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
        iterations=iters,
        primal_residual=r_inf,
        dual_residual=s_inf,
        converged=converged,
    )


def solve_cut_sdp(qm: QMatrix, opts: SolverOptions | None = None) -> SdpSolution:
    """Solve the bipartition relaxation (no nonnegativity constraint) by the
    mixing method; ``tol_feas`` plays no part.

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
    v, sweeps, objective, primal, gap, converged, bound = _mixing(qm.entries, opts)

    coupling, null, _ = summands(qm.graph)
    shifted = v @ v.T + 1.0
    z_plus = float((coupling * shifted).sum()) / 2.0
    z_minus = -float((null * shifted).sum()) / 2.0
    return SdpSolution(
        factor=v,
        objective=objective,
        upper_bound=bound,
        z_plus=z_plus,
        z_minus=z_minus,
        kind="cut",
        iterations=sweeps,
        primal_residual=primal,
        dual_residual=gap,
        converged=converged,
    )


def gram_vectors(sol: SdpSolution) -> VectorEmbedding:
    """The solution's unit-row factor as the embedding that the rounding
    cuts: row i is the vector of vertex i, and the pairwise dot products
    are the solution's entries."""
    return VectorEmbedding(sol.factor)
