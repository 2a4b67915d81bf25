"""Brute-force oracles: exact optima over all partitions and bipartitions.

They certify the relaxation and rounding at desk scale. Both score blocks
of cluster-code rows with ``code_scores`` and keep the first best row with
``first_best``, as rounding does: full enumeration in the lexicographic
order of restricted-growth strings (vertex v may open at most one new
cluster), the bipartition oracle in mask order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .modularity import Partition, QMatrix, code_scores, first_best

__all__ = ["ExactResult", "exact_full", "exact_cut", "bell_number"]

FULL_LIMIT = 12
CUT_LIMIT = 20

# Full enumeration scores the strings that share all labels but the last
# _FULL_TAIL at once (fewer than n**3), the bipartition oracle _CUT_CHUNK masks.
_FULL_TAIL = 3
_CUT_CHUNK = 1 << 14


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


def _rgs_blocks(qm: QMatrix, tail: int):
    """All restricted-growth strings of n labels in lexicographic order, in
    (start, codes, scores) blocks of the strings that share their first
    n - tail labels; ``start`` numbers a block's first string."""
    n = qm.graph.n
    prefix, start = [0] * (n - tail), 0
    while True:
        codes = np.array([prefix], dtype=np.int64)
        for _ in range(tail):
            # each row grows by every label it allows, 0..max+1, in order
            width = codes.max(axis=1, initial=-1) + 2
            label = np.arange(width.sum()) - np.repeat(np.cumsum(width) - width, width)
            codes = np.column_stack([np.repeat(codes, width, axis=0), label])
        yield start, codes, code_scores(qm, codes)
        start += len(codes)
        # next prefix: grow the last label that may grow, zero those after it
        i = n - tail - 1
        while i > 0 and prefix[i] > max(prefix[:i]):
            i -= 1
        if i < 1:
            return
        prefix[i] += 1
        prefix[i + 1:] = [0] * (n - tail - 1 - i)


def _mask_blocks(qm: QMatrix):
    """The 2**(n-1) bipartitions in (start, codes, scores) blocks of
    ``_CUT_CHUNK`` masks, bit v of a mask giving vertex v's side. Masks stay
    below 2**(n-1): vertex n-1 is on side 0, and each appears once."""
    n_masks = 1 << (qm.graph.n - 1)
    bits = np.arange(qm.graph.n)
    for start in range(0, n_masks, _CUT_CHUNK):
        masks = np.arange(start, min(start + _CUT_CHUNK, n_masks))
        codes = (masks[:, None] >> bits) & 1
        yield start, codes, code_scores(qm, codes)


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
    _, codes, score = first_best(_rgs_blocks(qm, min(_FULL_TAIL, n)))
    return ExactResult(score, Partition.from_labels(codes), bell_number(n))


def exact_cut(qm: QMatrix, limit: int = CUT_LIMIT) -> ExactResult:
    """Maximize the partition score over all 2**(n-1) unordered
    bipartitions, the single-cluster split included."""
    n = qm.graph.n
    if n > limit:
        raise ValueError(
            f"n={n} exceeds the enumeration limit {limit} "
            f"(2**{n - 1} = {2 ** (n - 1)} bipartitions)"
        )
    _, codes, score = first_best(_mask_blocks(qm))
    return ExactResult(score, Partition.from_labels(codes), 1 << (n - 1))
