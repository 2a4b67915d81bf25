"""Brute-force oracles: exact optima over all partitions and bipartitions.

They certify the relaxation and rounding at desk scale. Both enumerate
restricted-growth strings (vertex v may open at most one new cluster) in
lexicographic order, with at most n labels for partitions and 2, over the
reversed vertex order, for bipartitions. Each string's score is first
summed vertex by vertex from its prefix's; only the strings that this
sum, up to a rigorous rounding margin, leaves in the running are scored
with ``code_scores``, and ``first_best`` keeps the first best of those,
as rounding does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .modularity import Partition, QMatrix, code_scores, first_best

__all__ = ["ExactResult", "exact_full", "exact_cut", "bell_number"]

FULL_LIMIT = 12
CUT_LIMIT = 20

# Both oracles expand at most _ROWS strings at once at each level.
_ROWS = 4096


def bell_number(n: int) -> int:
    """Number of set partitions of n elements (Bell triangle recurrence)."""
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]


@dataclass(frozen=True)
class ExactResult:
    """Enumerated optimum: value, one optimal partition, and the number of
    candidates examined. Ties go to the first partition in enumeration
    order."""

    opt_value: float
    opt_partition: Partition
    enumerated: int


def _rgs_leaves(q: np.ndarray, rows: int, labels: int):
    """All restricted-growth strings of length n = len(q) with at most
    ``labels`` labels, in lexicographic order, with their incremental
    scores, in chunks of at most max(rows, n) strings.

    A chunk is (prefixes, parent, label, score): its string i is
    ``prefixes[parent[i]]`` followed by ``label[i]``, so a caller builds
    codes only for the strings it keeps. The prefixes are expanded depth
    first, one level per vertex, and no level holds more than one chunk.
    Vertex v adds its own row against its cluster to its parent's score,
    q_vv + 2 * A[x_v], where A[c] sums q_vu over the u < v labelled c and a
    new label has A = 0; the sum is the partition score up to rounding.
    """
    n = len(q)

    def expand(codes, top, score):
        # codes holds the first v labels of each row, top its largest label;
        # a level keeps only these while the next is expanded
        first = 0
        while first < len(codes):
            # the most parents, at least one, whose children fit in a chunk;
            # each has a child, so no more than `rows` parents fit
            grow = np.minimum(top[first:first + rows] + 2, labels)
            fit = np.searchsorted(np.cumsum(grow), rows, "right")
            last = first + max(1, int(fit))
            parents = codes[first:last], top[first:last], score[first:last]
            if codes.shape[1] + 1 == n:
                yield _children(q, *parents, labels)
            else:
                yield from expand(*_grown(q, *parents, labels))
            first = last

    yield from expand(np.zeros((1, 0), np.int8), np.full(1, -1, np.int8), np.zeros(1))


def _children(q, codes, top, score, labels):
    """(codes, parent, label, score) of the children of the rows of
    ``codes``, the labels of vertices 0..v-1 with largest label ``top`` and
    incremental score ``score``: child i is row ``parent[i]`` followed by
    ``label[i]``, one of 0..top+1 below ``labels``."""
    v = codes.shape[1]
    # A[c] of parent p at p * (v + 1) + c, summed over u in order
    slot = np.arange(len(codes)) * (v + 1)
    cluster = np.bincount((slot[:, None] + codes).ravel(),
                          np.tile(q[v, :v], len(codes)), len(codes) * (v + 1))
    # each parent grows by every label it allows, in order
    grow = np.minimum(top + 2, labels)
    parent = np.repeat(np.arange(len(codes)), grow)
    label = np.arange(len(parent)) - np.repeat(np.cumsum(grow) - grow, grow)
    child = score[parent] + q[v, v] + 2.0 * cluster[slot[parent] + label]
    return codes, parent, label.astype(np.int8), child


def _grown(q, codes, top, score, labels):
    """The children of the rows of ``codes`` as (codes, top, score)."""
    codes, parent, label, score = _children(q, codes, top, score, labels)
    return np.column_stack([codes[parent], label]), np.maximum(top[parent], label), score


def _filter_margin(q: np.ndarray) -> float:
    """How far below the best incremental score a string's own may lie and
    still be the first best by ``code_scores``.

    Both scores add the same n**2 or fewer real terms (q_vv and 2 q_vu,
    or q_ij times a 0/1 mask), whose magnitudes sum to at most
    S = sum |q_ij|, only in other orders. Any order of summing N terms
    errs by at most gamma_(N-1) * (their magnitudes' sum), with
    gamma_N = N u / (1 - N u) and u = eps / 2 (Higham, Accuracy and
    Stability of Numerical Algorithms, sec. 4.2), so the two scores of one
    string differ by at most 2 gamma_(n**2) S. A string whose incremental
    score is below another's by more than 4 gamma_(n**2) S therefore has a
    strictly smaller ``code_scores``. At n <= CUT_LIMIT, n**2 u is below
    5e-14, so 8 n**2 eps S is about 4 times that, which also covers the
    rounding of S and of the subtraction that forms the threshold.
    """
    return 8.0 * len(q) ** 2 * np.finfo(float).eps * float(np.abs(q).sum())


def _rgs_blocks(qm: QMatrix, rows: int, labels: int, step: int):
    """The restricted-growth strings of at most ``labels`` labels that may
    be the first best, in (numbers, codes, scores) blocks for
    ``first_best``: each string whose incremental score is at least the
    greatest so far less the filter margin, numbered in enumeration order
    and re-scored by ``code_scores``. The strings dropped score strictly
    below some other string, so the first best of all and its bits survive.

    The strings run over the vertices in order for ``step`` 1 and in
    reverse for -1. Codes come back in vertex order and are scored against
    ``qm`` itself: an einsum over the reversed matrix can round otherwise.
    """
    q = qm.entries[::step, ::step]
    margin = _filter_margin(q)
    best, count = -np.inf, 0
    for prefixes, parent, label, score in _rgs_leaves(q, rows, labels):
        best = max(best, score.max())
        keep = np.flatnonzero(score >= best - margin)
        if keep.size:
            codes = np.column_stack([prefixes[parent[keep]], label[keep]])[:, ::step]
            yield count + keep, codes, code_scores(qm, codes)
        count += len(score)


def exact_full(qm: QMatrix, limit: int = FULL_LIMIT) -> ExactResult:
    """Maximize the partition score over all set partitions by exhaustive
    enumeration. Rejects n > limit with the Bell-number count that made it
    unreasonable."""
    n = qm.graph.n
    if n > limit:
        raise ValueError(
            f"n={n} exceeds the enumeration limit {limit} "
            f"(Bell({n}) = {bell_number(n)} partitions)"
        )
    _, codes, score = first_best(_rgs_blocks(qm, _ROWS, n, 1))
    return ExactResult(score, Partition.from_labels(codes), bell_number(n))


def exact_cut(qm: QMatrix, limit: int = CUT_LIMIT) -> ExactResult:
    """Maximize the partition score over all 2**(n-1) unordered
    bipartitions, the single-cluster split included. Two-label strings
    over the reversed vertex order put vertex n-1 on side 0 and come in
    mask order, bit v of a string's place giving vertex v's side."""
    n = qm.graph.n
    if n > limit:
        raise ValueError(
            f"n={n} exceeds the enumeration limit {limit} "
            f"(2**{n - 1} = {2 ** (n - 1)} bipartitions)"
        )
    _, codes, score = first_best(_rgs_blocks(qm, _ROWS, 2, -1))
    return ExactResult(score, Partition.from_labels(codes), 1 << (n - 1))
