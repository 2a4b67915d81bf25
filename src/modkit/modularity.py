"""Modularity coefficient matrices and partition scoring.

The modularity of a partition is the sum of a coefficient q_ij over all
same-cluster vertex pairs (diagonal included). The coefficient couples the
adjacency structure against a degree-product null model:

    undirected:  q_ij = A_ij/(2m)  - d_i d_j/(4 m^2)
    weighted:    q_ij = w_ij/(2W)  - s_i s_j/(4 W^2)
    directed:    q_ij = A_ij/m     - dout_i din_j/m^2
    bipartite:   q_ij = A_ij/m     - d_i d_j/m^2     (cross-side pairs only)

Only ``summands`` evaluates these formulas. It symmetrizes each term,
(q_ij + q_ji)/2, which leaves every partition score unchanged because
same-cluster membership is a symmetric relation; ``build_q`` stores only
the difference of the two terms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graph import Graph, degrees

__all__ = ["QMatrix", "Partition", "build_q", "summands", "code_scores",
           "first_best", "modularity"]

# Entry sums of a valid coefficient matrix vanish; tolerance scales with n^2.
_SUM_TOL = 1e-12


@dataclass(frozen=True)
class Partition:
    """Cluster assignment with contiguous ids 0..k-1, every cluster nonempty."""

    assign: tuple[int, ...]
    k: int

    def __post_init__(self):
        object.__setattr__(self, "assign", tuple(int(c) for c in self.assign))
        if len(self.assign) == 0:
            raise ValueError("partition of an empty vertex set")
        used = set(self.assign)
        if used != set(range(self.k)):
            raise ValueError(
                f"cluster ids must be exactly 0..{self.k - 1} with none empty"
            )

    @classmethod
    def from_labels(cls, labels) -> "Partition":
        """Compact arbitrary labels to contiguous ids in first-appearance order."""
        remap = {}
        assign = []
        for lab in labels:
            lab = int(lab)
            if lab not in remap:
                remap[lab] = len(remap)
            assign.append(remap[lab])
        return cls(assign=tuple(assign), k=len(remap))

    @classmethod
    def single_cluster(cls, n: int) -> "Partition":
        return cls(assign=(0,) * n, k=1)

    def communities(self) -> list[list[int]]:
        out = [[] for _ in range(self.k)]
        for v, c in enumerate(self.assign):
            out[c].append(v)
        return out


@dataclass(frozen=True)
class QMatrix:
    """Dense symmetric coefficient matrix of ``graph`` plus its positive mass.

    ``entries`` sums to zero; ``q_mass`` is the total of its nonnegative
    entries (equal to minus the total of its negative entries, and < 1 on
    every instance). ``scale`` records the normalizing denominator (m, or W
    for the weighted variant). The two summands of ``entries`` are not
    stored: ``summands(graph)`` recomputes them bit for bit.
    """

    graph: Graph = field(repr=False)
    entries: np.ndarray
    q_mass: float
    scale: float

    def __post_init__(self):
        self.entries.setflags(write=False)


def _adjacency(g: Graph) -> np.ndarray:
    a = np.zeros((g.n, g.n))
    for i, j, w in g.edges:
        a[i, j] += w
        if g.variant != "directed":
            a[j, i] += w
    return a


def summands(g: Graph) -> tuple[np.ndarray, np.ndarray, float]:
    """The symmetrized coupling and null-model terms of ``g``'s coefficient
    matrix, and its scale. Both terms are bitwise symmetric (floating-point
    + and * commute), so their difference is too."""
    a = _adjacency(g)
    if g.variant in ("undirected", "weighted"):
        d = degrees(g)
        scale = g.total_weight
        coupling = a / (2.0 * scale)
        null = np.outer(d, d) / (4.0 * scale * scale)
    elif g.variant == "directed":
        d_out, d_in = degrees(g)
        scale = float(g.m)
        coupling = a / scale
        null = np.outer(d_out, d_in) / (scale * scale)
    else:  # bipartite
        d = degrees(g)
        scale = float(g.m)
        left = np.array([s == "left" for s in g.part])
        cross = np.outer(left, ~left)
        coupling = np.where(cross, a, 0.0) / scale
        null = np.where(cross, np.outer(d, d), 0.0) / (scale * scale)
    return (coupling + coupling.T) / 2.0, (null + null.T) / 2.0, scale


def build_q(g: Graph) -> QMatrix:
    """Build the coefficient matrix for ``g`` per its variant's formula."""
    # out-of-range weights give inf or nan entries, rejected here unwarned
    with np.errstate(all="ignore"):
        coupling, null, scale = summands(g)
        entries = coupling - null
    if not np.isfinite(entries).all():
        raise ValueError("edge weights out of float64 range: the coefficient "
                         "matrix is not finite")

    total = float(entries.sum())
    if abs(total) > _SUM_TOL * g.n * g.n:
        raise AssertionError(f"coefficient entries sum to {total}, expected 0")
    q_mass = float(entries[entries >= 0].sum())
    if q_mass <= 0.0:
        # possible for degenerate variants (e.g. a bipartite or directed
        # star whose coupling exactly cancels the null model): every
        # partition scores 0 and there is nothing to optimize
        raise ValueError(
            "degenerate instance: the coefficient matrix vanishes, so the "
            "score of every partition is 0"
        )
    if q_mass >= 1.0:
        raise AssertionError(f"positive mass {q_mass} outside (0, 1)")

    return QMatrix(graph=g, entries=entries, q_mass=q_mass, scale=scale)


def code_scores(qm: QMatrix, codes: np.ndarray) -> np.ndarray:
    """Scores of the partitions given as rows of cluster codes, one integer
    per vertex (equal codes share a cluster): per row, the sum of q_ij over
    same-cluster pairs. The one scorer of the package. A plain ``einsum``
    sums each row on its own, so a row's score has the same bits in a batch
    of any size."""
    same = codes[:, :, None] == codes[:, None, :]
    return np.einsum("tij,ij->t", same, qm.entries)


def first_best(blocks) -> tuple[int, np.ndarray, float]:
    """(number, codes, score) of the first row with the greatest score in
    ``blocks`` of (codes, scores), ``number`` being the row's position
    among all the rows given, counted from 0 across the blocks in order.
    A tie keeps the earlier row, and ``codes`` is a copy. The one search
    behind every best partition of the package."""
    best = None
    start = 0
    for codes, scores in blocks:
        # argmax keeps a block's first top score; a later block must beat it
        i = int(np.argmax(scores))
        if best is None or scores[i] > best[2]:
            best = (start + i, codes[i].copy(), float(scores[i]))
        start += len(scores)
    return best


def modularity(qm: QMatrix, p: Partition) -> float:
    """Score of a partition: sum of q_ij over same-cluster pairs."""
    if len(p.assign) != qm.graph.n:
        raise ValueError(
            f"partition covers {len(p.assign)} vertices, matrix has {qm.graph.n}"
        )
    return float(code_scores(qm, np.asarray([p.assign]))[0])
