"""Semidefinite relaxation solvers for modularity objectives.

Two problem shapes are solved, both by the same operator-splitting scheme
(alternating projections with scaled dual updates):

* full relaxation: maximize <Q, X> over PSD X with unit diagonal and
  entrywise nonnegative entries; its optimum upper-bounds the best
  achievable modularity over all partitions.
* bipartition relaxation: maximize <Q, (X+1)/2> over PSD X with unit
  diagonal (entries may be negative); its optimum upper-bounds the best
  modularity over bipartitions.

The per-iteration kernel is a single symmetric eigendecomposition (the
projection onto the PSD cone); the diagonal/nonnegativity constraints
project entrywise. The penalty parameter self-tunes by residual balancing.
Iteration order is fixed, so a solve is bit-reproducible for identical
inputs and options.
"""

from __future__ import annotations

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


@dataclass
class SolverOptions:
    """Solver knobs. ``penalty`` is the initial splitting step size; it is
    rescaled automatically when the primal/dual residual ratio drifts past
    10. ``iterate_log`` optionally names a CSV file receiving one row per
    iteration (iteration, objective, primal_residual, dual_residual)."""

    tol_feas: float = 1e-7
    tol_obj: float = 1e-6
    max_iters: int = 50000
    penalty: float = 1.0
    iterate_log: str | None = None

    def __post_init__(self):
        if self.tol_feas <= 0 or self.tol_obj <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_iters <= 0:
            raise ValueError("max_iters must be positive")
        if self.penalty <= 0:
            raise ValueError("penalty must be positive")


@dataclass(frozen=True)
class SdpSolution:
    """Feasibility-repaired solution of one relaxation.

    ``gram`` is PSD with unit diagonal (within the feasibility tolerance)
    and, for kind="full", entrywise nonnegative. ``z_plus``/``z_minus`` are
    the positive- and negative-mass averages of the solution entries; the
    rounding guarantees consume them. ``objective`` is evaluated on
    ``gram`` itself, so it is certified by a feasible point.
    """

    gram: np.ndarray
    objective: float
    z_plus: float
    z_minus: float
    kind: str
    iterations: int
    primal_residual: float
    dual_residual: float
    converged: bool

    def __post_init__(self):
        self.gram.setflags(write=False)


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
    def n(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


def _psd_project(mat: np.ndarray) -> np.ndarray:
    w, u = np.linalg.eigh(mat)
    np.clip(w, 0.0, None, out=w)
    return (u * w) @ u.T


def _box_project(mat: np.ndarray, nonneg: bool) -> np.ndarray:
    out = mat.copy()
    np.fill_diagonal(out, 1.0)
    if nonneg:
        np.clip(out, 0.0, None, out=out)
    return out


def _admm(c: np.ndarray, nonneg: bool, opts: SolverOptions):
    """Maximize <c, X> over PSD X with unit diagonal (and X >= 0 if
    ``nonneg``). Returns (X, iterations, primal_res, dual_res, converged)."""
    n = c.shape[0]
    rho = opts.penalty
    z = np.eye(n)
    u = np.zeros((n, n))
    stop_tol = opts.tol_feas / 4.0
    obj_prev = None
    x = z
    r_inf = s_inf = np.inf
    converged = False

    log = open(opts.iterate_log, "w") if opts.iterate_log else None
    if log:
        log.write("iteration,objective,primal_residual,dual_residual\n")

    it = 0
    try:
        for it in range(1, opts.max_iters + 1):
            x = _psd_project(z - u + c / rho)
            z_new = _box_project(x + u, nonneg)
            r_inf = float(np.abs(x - z_new).max())
            s_inf = float(rho * np.abs(z_new - z).max())
            z = z_new
            u += x - z

            obj = float((c * x).sum())
            if log:
                log.write(f"{it},{obj:.17g},{r_inf:.17g},{s_inf:.17g}\n")

            if (
                r_inf <= stop_tol
                and s_inf <= stop_tol
                and obj_prev is not None
                and abs(obj - obj_prev) <= opts.tol_obj * max(1.0, abs(obj))
            ):
                converged = True
                break
            obj_prev = obj

            # Residual balancing keeps the two projection sequences in step.
            if it % 10 == 0:
                if r_inf > 10.0 * s_inf:
                    rho *= 2.0
                    u /= 2.0
                elif s_inf > 10.0 * r_inf:
                    rho /= 2.0
                    u *= 2.0
    finally:
        if log:
            log.close()

    return x, it, r_inf, s_inf, converged


def _repair(x: np.ndarray, nonneg: bool) -> np.ndarray:
    """Pull an iterate back to the feasible set: rescale the diagonal to
    exactly 1, clamp negatives (full problem only), then one PSD projection.
    The residual-sized drift this leaves is covered by tol_feas."""
    dg = np.sqrt(np.clip(np.diag(x), 1e-12, None))
    out = x / np.outer(dg, dg)
    if nonneg:
        np.clip(out, 0.0, None, out=out)
    out = _psd_project((out + out.T) / 2.0)
    return out


def solve_full_sdp(qm: QMatrix, opts: SolverOptions | None = None) -> SdpSolution:
    """Solve the full relaxation and report the repaired solution.

    z_plus (in [0, 1]) and z_minus (in [-1, 0]) are the entry averages of
    the solution weighted by the positive and negative coefficient mass.
    A solve that exhausts max_iters returns its best iterate flagged
    converged=False; the caller decides what to do with it.
    """
    opts = opts or SolverOptions()
    x, iters, r_inf, s_inf, converged = _admm(qm.entries, nonneg=True, opts=opts)
    x = _repair(x, nonneg=True)

    pos = qm.entries >= 0
    z_plus = float((qm.entries * x)[pos].sum()) / qm.q_mass
    z_minus = float((qm.entries * x)[~pos].sum()) / qm.q_mass
    objective = float((qm.entries * x).sum())
    return SdpSolution(
        gram=x,
        objective=objective,
        z_plus=z_plus,
        z_minus=z_minus,
        kind="full",
        iterations=iters,
        primal_residual=r_inf,
        dual_residual=s_inf,
        converged=converged,
    )


def solve_cut_sdp(qm: QMatrix, opts: SolverOptions | None = None) -> SdpSolution:
    """Solve the bipartition relaxation (no nonnegativity constraint).

    Only undirected and weighted inputs are meaningful here; other variants
    are rejected. z_plus is the coupling term of the objective and z_minus
    the null-model term, so objective == z_plus + z_minus.
    """
    if qm.graph.variant not in ("undirected", "weighted"):
        raise ValueError(
            f"bipartition relaxation is defined for undirected/weighted "
            f"graphs, not {qm.graph.variant!r}"
        )
    opts = opts or SolverOptions()
    # <Q, (X+1)/2> and <Q, X> differ by the constant sum(Q)/2 = 0, so the
    # same linear term drives the iteration.
    x, iters, r_inf, s_inf, converged = _admm(qm.entries, nonneg=False, opts=opts)
    x = _repair(x, nonneg=False)

    coupling, null, _ = summands(qm.graph)
    shifted = x + 1.0
    z_plus = float((coupling * shifted).sum()) / 2.0
    z_minus = -float((null * shifted).sum()) / 2.0
    objective = float((qm.entries * shifted).sum()) / 2.0
    return SdpSolution(
        gram=x,
        objective=objective,
        z_plus=z_plus,
        z_minus=z_minus,
        kind="cut",
        iterations=iters,
        primal_residual=r_inf,
        dual_residual=s_inf,
        converged=converged,
    )


def gram_vectors(sol: SdpSolution) -> VectorEmbedding:
    """Factor the solution into unit vectors with pairwise dot products
    matching the solution entries (within twice the feasibility tolerance).

    Eigenvalues are clamped at zero, so the factorization is total; the
    embedding dimension is the rank that survives clamping.
    """
    w, u = np.linalg.eigh(sol.gram)
    np.clip(w, 0.0, None, out=w)
    keep = w > 0.0
    vectors = u[:, keep] * np.sqrt(w[keep])
    norms = np.linalg.norm(vectors, axis=1)
    vectors = vectors / np.clip(norms, 1e-300, None)[:, None]
    return VectorEmbedding(vectors=vectors)
