"""Output checks, written against the benchmark's own numpy code.

Every report is re-scored here from the edge list, so a check never trusts
the coefficient matrix or the scoring of the package under test.
"""

from __future__ import annotations

import numpy as np

RESCORE_TOL = 1e-9
BOUND_TOL = 1e-6
# Worst-case additive errors of the two rounding schemes (paper constants,
# rounded up at the fifth decimal).
FULL_ERROR = 0.42084
CUT_ERROR = 0.16598


def q_matrix(n: int, edges, variant: str, left=None) -> np.ndarray:
    """Symmetric modularity coefficients q_ij for one graph.

    undirected/weighted: A/(2W) - d d^T/(4W^2); directed: the symmetric
    part of A/m - d_out d_in^T/m^2; bipartite: (A/m - d d^T/m^2)/2 on
    cross-side pairs and 0 elsewhere.
    """
    ij = np.array([(i, j) for i, j, _ in edges], dtype=np.int64)
    w = np.array([w for _, _, w in edges], dtype=float)
    a = np.zeros((n, n))
    np.add.at(a, (ij[:, 0], ij[:, 1]), w)
    if variant == "directed":
        m = float(len(edges))
        q = a / m - np.outer(a.sum(axis=1), a.sum(axis=0)) / m**2
        return (q + q.T) / 2.0
    a = a + a.T
    d = a.sum(axis=1)
    if variant == "bipartite":
        m = float(len(edges))
        side = np.array([v in left for v in range(n)])
        cross = side[:, None] != side[None, :]
        return np.where(cross, a / m - np.outer(d, d) / m**2, 0.0) / 2.0
    total = w.sum()
    return a / (2.0 * total) - np.outer(d, d) / (4.0 * total**2)


def score(q: np.ndarray, assign) -> float:
    """Sum of q_ij over same-cluster pairs."""
    labels = np.asarray(assign, dtype=np.int64)
    onehot = np.zeros((labels.size, int(labels.max()) + 1))
    onehot[np.arange(labels.size), labels] = 1.0
    return float(np.einsum("ij,ic,jc->", q, onehot, onehot))


def check_rounding_report(doc: dict, q: np.ndarray, command: str,
                          planted: np.ndarray | None) -> list[str]:
    """Checks one solve/cut report on its own; returns the problems found."""
    rep = doc["report"]
    assign = doc["partition"]["assign"]
    best, ub = rep["best_score"], rep["upper_bound"]
    problems = []
    if len(assign) != q.shape[0]:
        return [f"partition covers {len(assign)} of {q.shape[0]} vertices"]
    if command == "cut" and max(assign) > 1:
        problems.append(f"cut partition has {max(assign) + 1} clusters")
    rescored = score(q, assign)
    if abs(rescored - best) > RESCORE_TOL:
        problems.append(f"best_score {best!r} but partition scores {rescored!r}")
    if best > ub + BOUND_TOL:
        problems.append(f"best_score {best!r} above upper_bound {ub!r}")
    if planted is not None:
        ref = score(q, planted)
        if ub < ref - BOUND_TOL:
            problems.append(f"upper_bound {ub!r} below planted score {ref!r}")
    return problems


def check_exact_report(doc: dict, q: np.ndarray) -> list[str]:
    rescored = score(q, doc["partition"])
    if abs(rescored - doc["opt"]) > RESCORE_TOL:
        return [f"opt {doc['opt']!r} but partition scores {rescored!r}"]
    return []


def check_sandwich(rounding_doc: dict, exact_doc: dict, command: str) -> list[str]:
    """best <= opt <= upper_bound, and best within the scheme's additive
    error of opt."""
    rep = rounding_doc["report"]
    best, ub, opt = rep["best_score"], rep["upper_bound"], exact_doc["opt"]
    error = FULL_ERROR if command == "solve" else CUT_ERROR
    problems = []
    if best > opt + BOUND_TOL:
        problems.append(f"best_score {best!r} above exact opt {opt!r}")
    if opt > ub + BOUND_TOL:
        problems.append(f"exact opt {opt!r} above upper_bound {ub!r}")
    if best < opt - error:
        problems.append(f"best_score {best!r} more than {error} below opt {opt!r}")
    return problems
