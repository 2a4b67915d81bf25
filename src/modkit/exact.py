"""Brute-force oracles: exact optima over all partitions and bipartitions.

They certify the relaxation and rounding at desk scale. Both enumerate
restricted-growth strings (vertex v may open at most one new cluster) in
lexicographic order, with at most n labels for partitions and 2, over the
reversed vertex order, for bipartitions. Each string's score is first
summed vertex by vertex from its prefix's; only the strings that this
sum, up to a rigorous rounding margin, leaves in the running are scored
with ``code_scores``, and ``first_best`` keeps the first best of those,
as rounding does.

A search of more strings than one chunk holds is a branch and bound: a
greedy dive gives the first best sum, and a prefix is not expanded when
no completion of it can come within the margin of the best sum so far.
Every string it skips is one that the margin would drop, so the answer,
its bits and its place among ties are those of the full enumeration, and
``enumerated`` still counts every candidate, the set the optimum is
certified over.
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
    """Optimum: value, one optimal partition, and the number of candidates
    it is certified over, Bell(n) or 2**(n-1); branch and bound scores
    only some of them. Ties go to the first partition in enumeration
    order."""

    opt_value: float
    opt_partition: Partition
    enumerated: int


def _root():
    """The empty prefix as (codes, top, score), the one row every search
    starts from."""
    return np.zeros((1, 0), np.int8), np.full(1, -1, np.int8), np.zeros(1)


def _rgs_leaves(q: np.ndarray, rows: int, labels: int, floor=None):
    """All restricted-growth strings of length n = len(q) with at most
    ``labels`` labels, in lexicographic order, with their incremental
    scores, in chunks of at most max(rows, n) strings; given a ``floor``,
    only the strings under prefixes that may still reach it.

    A chunk is (prefixes, parent, label, score): its string i is
    ``prefixes[parent[i]]`` followed by ``label[i]``, so a caller builds
    codes only for the strings it keeps. The prefixes are expanded depth
    first, one level per vertex, and no level holds more than one chunk.
    Vertex v adds its own row against its cluster to its parent's score,
    q_vv + 2 * A[x_v], where A[c] sums q_vu over the u < v labelled c and a
    new label has A = 0; the sum is the partition score up to rounding.

    ``floor``, if given, is called each time a level is entered and
    returns the least score a string must reach. A prefix of length d
    whose score plus ``_reach(q)[d]`` is below it is dropped with every
    string under it, none of which can reach it (see ``_reach``).
    """
    n = len(q)
    reach = None if floor is None else _reach(q)

    def expand(codes, top, score):
        # codes holds the first v labels of each row, top its largest label;
        # a level keeps only these while the next is expanded
        v = codes.shape[1]
        if floor is not None:
            live = score + reach[v] >= floor()
            codes, top, score = codes[live], top[live], score[live]
        first = 0
        while first < len(codes):
            if (len(codes) - first) * min(v + 1, labels) <= rows:
                last = len(codes)  # every child fits
            else:
                # the most parents, at least one, whose children fit in a
                # chunk; each has a child, so no more than `rows` parents fit
                grow = np.minimum(top[first:first + rows] + 2, labels)
                fit = np.searchsorted(np.cumsum(grow), rows, "right")
                last = first + max(1, int(fit))
            parents = codes[first:last], top[first:last], score[first:last]
            if v + 1 == n:
                yield _children(q, *parents, labels)
            else:
                yield from expand(*_grown(q, *parents, labels))
            first = last

    yield from expand(*_root())


def _children(q, codes, top, score, labels):
    """(codes, parent, label, score) of the children of the rows of
    ``codes``, the labels of vertices 0..v-1 with largest label ``top`` and
    incremental score ``score``: child i is row ``parent[i]`` followed by
    ``label[i]``, one of 0..top+1 below ``labels``. A row's children and
    their score bits do not depend on the other rows."""
    v, rows = codes.shape[1], len(codes)
    width = min(v + 1, labels)  # the labels a child can take
    # A[c] of row p at p * width + c, summed over u in order
    cluster = np.bincount((codes + np.arange(0, rows * width, width)[:, None]).ravel(),
                          q[None, v, :v].repeat(rows, 0).ravel(),
                          rows * width).reshape(rows, width)
    # row p grows by every label it allows, in order
    allowed = np.arange(width) <= top[:, None] + 1
    parent, label = allowed.nonzero()
    child = (score[:, None] + q[v, v] + 2.0 * cluster)[allowed]
    return codes, parent, label.astype(np.int8), child


def _grown(q, codes, top, score, labels):
    """The children of the rows of ``codes`` as (codes, top, score)."""
    codes, parent, label, score = _children(q, codes, top, score, labels)
    return (np.concatenate([codes[parent], label[:, None]], 1),
            np.maximum(top[parent], label), score)


def _dive(q: np.ndarray, labels: int):
    """The greedy string and its incremental score: each vertex in turn
    takes the label that gives the greatest score, the first on a tie. The
    children come from ``_children``, so the score has the bits that the
    enumeration gives the same string."""
    codes, top, score = _root()
    for _ in range(len(q)):
        codes, top, score = _grown(q, codes, top, score, labels)
        i = score.argmax()
        codes, top, score = codes[i:i + 1], top[i:i + 1], score[i:i + 1]
    return codes[0], score[0]


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


def _reach(q: np.ndarray) -> np.ndarray:
    """reach[d], d = 0..n: the most that vertices d..n-1 can add to the
    incremental score of a prefix of length d, plus a rounding slack, so
    that no string under a prefix with score s reaches a floor f when
    s + reach[d] < f in floating point.

    In exact arithmetic vertex v adds q_vv + 2 A[x_v], and A[x_v] is at
    most the sum of max(q_uv, 0) over u < v, so vertices d..n-1 add at
    most U[d] = sum over v >= d of (q_vv + 2 sum_(u<v) max(q_uv, 0)).

    The slack is the filter margin M = 8 n**2 eps S of ``_filter_margin``,
    with u = eps / 2, gamma = gamma_(n**2) <= 1.01 n**2 u and
    S = sum |q_ij|. A string's score s_n is the floating-point sum of its
    prefix's score s and the terms q_vv and 2 q_uv of v >= d. The
    magnitudes of all the string's terms sum to at most S, and s lies
    within gamma S of its own terms' sum, so s_n exceeds s plus the exact
    sum of the later terms, itself at most U[d], by at most
    gamma (1 + gamma) S. The computed U[d] is short of U[d] by at most
    gamma S, and forming U[d] + M and then s + reach[d] loses at most
    2 u (|s| + |U[d]| + M) < 6 u S more. So the computed s + reach[d] is
    at least s_n + M - 2.1 n**2 u S - 6 u S, and M = 16 n**2 u S exceeds
    both losses together at every n >= 1: the computed sum is above s_n,
    so s_n is below f whenever it is.
    """
    gain = q.diagonal() + 2.0 * np.tril(np.maximum(q, 0.0), -1).sum(1)
    return np.append(np.cumsum(gain[::-1])[::-1], 0.0) + _filter_margin(q)


def _rgs_blocks(qm: QMatrix, rows: int, labels: int, step: int, strings: int):
    """The restricted-growth strings of at most ``labels`` labels that may
    be the first best, in (codes, scores) blocks for ``first_best``, in
    enumeration order: each string whose incremental score is at least the
    greatest so far less the filter margin, re-scored by ``code_scores``.
    The strings dropped score strictly below some other string, so the
    first best of all and its bits survive.

    ``strings`` is how many strings there are, Bell(n) or 2**(n-1). A
    search of more than ``rows`` of them is bounded: the greatest score
    starts at ``_dive``'s, and a subtree that cannot reach the threshold
    is not expanded, its strings being ones the threshold drops. A
    smaller search takes one chunk, one ``_children`` call, per level
    whatever is pruned, so it neither dives nor prunes.

    The strings run over the vertices in order for ``step`` 1 and in
    reverse for -1. Codes come back in vertex order and are scored against
    ``qm`` itself: an einsum over the reversed matrix can round otherwise.
    """
    q = qm.entries[::step, ::step]
    margin = _filter_margin(q)
    bounded = strings > rows
    best = _dive(q, labels)[1] if bounded else -np.inf

    def floor():
        return best - margin

    for prefixes, parent, label, score in _rgs_leaves(q, rows, labels,
                                                      floor if bounded else None):
        best = max(best, score.max())
        keep = np.flatnonzero(score >= best - margin)
        if keep.size:
            codes = np.column_stack([prefixes[parent[keep]], label[keep]])[:, ::step]
            yield codes, code_scores(qm, codes)


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
    strings = bell_number(n)
    _, codes, score = first_best(_rgs_blocks(qm, _ROWS, n, 1, strings))
    return ExactResult(score, Partition.from_labels(codes), strings)


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
    strings = 1 << (n - 1)
    _, codes, score = first_best(_rgs_blocks(qm, _ROWS, 2, -1, strings))
    return ExactResult(score, Partition.from_labels(codes), strings)
