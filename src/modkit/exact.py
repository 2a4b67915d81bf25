"""Brute-force oracles: exact optima over all partitions and bipartitions.

These exist to certify the relaxation and rounding machinery at desk
scale. Full enumeration walks restricted-growth strings (vertex v may
open at most one new cluster), updating the score incrementally: moving a
vertex into a cluster changes the score by its diagonal coefficient plus
twice its coupling to the cluster's members.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .modularity import Partition, QMatrix

__all__ = ["ExactResult", "exact_full", "exact_cut", "bell_number"]

FULL_LIMIT = 12
CUT_LIMIT = 20

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
    q = qm.entries.tolist()

    labels = [0] * n
    members: list[list[int]] = []
    state = {"best": -np.inf, "best_labels": None, "count": 0}

    def descend(v: int, score: float):
        if v == n:
            state["count"] += 1
            if score > state["best"]:
                state["best"] = score
                state["best_labels"] = labels[:]
            return
        row = q[v]
        for c in range(len(members) + 1):
            fresh = c == len(members)
            if fresh:
                members.append([])
            bucket = members[c]
            delta = row[v] + 2.0 * sum(row[u] for u in bucket)
            labels[v] = c
            bucket.append(v)
            descend(v + 1, score + delta)
            bucket.pop()
            if fresh:
                members.pop()

    descend(0, 0.0)
    return ExactResult(
        opt_value=float(state["best"]),
        opt_partition=Partition.from_labels(state["best_labels"]),
        enumerated=state["count"],
    )


def exact_cut(qm: QMatrix, limit: int = CUT_LIMIT) -> ExactResult:
    """Maximize the partition score over all 2**(n-1) unordered
    bipartitions, the single-cluster split included.

    With sign vector s in {-1, +1}^n the score is (sum(q) + s q s) / 2;
    masks are evaluated in vectorized chunks with vertex n-1 pinned to one
    side so each unordered bipartition appears once.
    """
    n = qm.graph.n
    if n > limit:
        raise ValueError(
            f"n={n} exceeds the enumeration limit {limit} "
            f"(2**{n - 1} = {2 ** (n - 1)} bipartitions)"
        )
    q = qm.entries
    total = float(q.sum())
    n_masks = 1 << (n - 1)
    bits = np.arange(n - 1, dtype=np.int64)

    best_val = -np.inf
    best_mask = 0
    for start in range(0, n_masks, _CUT_CHUNK):
        masks = np.arange(start, min(start + _CUT_CHUNK, n_masks), dtype=np.int64)
        signs = np.ones((masks.size, n))
        signs[:, :-1] -= 2.0 * ((masks[:, None] >> bits) & 1)
        vals = 0.5 * (total + np.einsum("bi,ij,bj->b", signs, q, signs))
        top = int(np.argmax(vals))
        if vals[top] > best_val:
            best_val = float(vals[top])
            best_mask = start + top

    side = [(best_mask >> v) & 1 if v < n - 1 else 0 for v in range(n)]
    return ExactResult(
        opt_value=best_val,
        opt_partition=Partition.from_labels(side),
        enumerated=n_masks,
    )
