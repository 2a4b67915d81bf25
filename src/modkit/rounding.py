"""Random-hyperplane rounding of relaxation solutions.

Each trial draws k standard-normal directions and assigns every vertex the
sign pattern of its vector against them (row i of the solution's unit-row
``factor``, for either relaxation), giving at most 2**k
clusters (k = 1 for the bipartition scheme). The hyperplane count for the
full scheme is chosen adaptively from the solution's positive-mass average
so that the guaranteed expectation floor is as high as possible. The
rounding reads the solution's factor and figures only; its iteration count
and residuals, read from ``SdpSolution.history``, play no part.

Trial randomness comes from counter-derived streams: trial t of master
seed s draws from the Philox stream with key s and counter (0, 0, 0, t).
Best-of-trials runs score the trials in fixed-size blocks, and since each
trial's draws depend only on (s, t), the outcome does not depend on the
block size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bounds
from .modularity import Partition, QMatrix, modularity
from .sdp import SdpSolution

__all__ = [
    "RoundingOutcome",
    "GuaranteeReport",
    "select_k_star",
    "hyperplane_round",
    "round_full",
    "round_cut",
]

# Published error budget certified for single-hyperplane bipartitions;
# rounds the exact worst case (cut_worst_error ~ 0.1659732) up at the
# fifth decimal.
CUT_ERROR_BUDGET = 0.16598

# Minimizers of the per-k error within this much of the minimum count as
# ties; the smallest such k wins. The k=2/k=3 curves cross at an exactly
# representable crossing, so exact ties do occur.
_TIE_TOL = 1e-12

# Best-of-trials rounding scores this many trials at once. A block's
# same-cluster mask takes _TRIAL_BLOCK * n**2 bytes (1.3 MiB at n = 72), so
# memory does not grow with the trial count.
_TRIAL_BLOCK = 256

# Block scores sum the coefficients in another order than ``modularity``.
# Either sum is within 2 * n**2 * eps of the exact score (the absolute
# entries sum to below 2), so the winning trial's block score lies within
# 8 * n**2 * eps of the top one. Trials within this many n**2 of the top
# block score are re-scored with ``modularity`` before the winner is picked.
_RESCORE_TOL = 1e-12


@dataclass(frozen=True)
class RoundingOutcome:
    """One rounded partition with its score and provenance."""

    partition: Partition
    score: float
    k_used: int
    trial_seed: tuple[int, int]


@dataclass(frozen=True)
class GuaranteeReport:
    """Certificate bundle for a best-of-trials rounding run.

    ``upper_bound`` is the solver's dual bound on the relaxation optimum, so
    it bounds the relevant partition optimum from above whether or not the
    solve converged. ``relaxation_value`` is the primal objective of the
    returned solution V V^T; it sits at or below ``upper_bound``, by the dual gap.
    ``z_plus``/``z_minus`` are that solution's mass averages, from which
    ``expectation_floor``, the guaranteed expected score of a single trial,
    is computed. ``additive_certificate`` is the guaranteed score floor,
    ``relaxation_value`` minus the applicable error term: the rounding
    guarantee holds for the solution that was rounded, so the certificate
    sits at or below ``expectation_floor`` however early the solve stopped.
    The returned best score always sits above the expectation floor's
    long-run average, and max >= mean keeps every certificate valid for it.
    """

    upper_bound: float
    relaxation_value: float
    q_mass: float
    z_plus: float
    z_minus: float
    k_star: int
    expectation_floor: float
    additive_certificate: float
    best_score: float
    trials: int
    seed: int


def _trial_rng(seed: int, trial: int) -> np.random.Generator:
    # Counter-based stream: independent per trial, reproducible per seed.
    return np.random.Generator(np.random.Philox(key=seed, counter=[0, 0, 0, trial]))


def gram_vectors(sol: SdpSolution) -> np.ndarray:
    """The unit-row factor that both ``round_*`` functions cut:
    ``sol.factor`` itself. It exists only because ``perfbench/spans.py``
    rebinds this name to time the ``sdp.embed`` span, and a traced run
    fails without it; it goes with that span in the next benchmark
    change."""
    return sol.factor


def select_k_star(z_plus: float, n: int) -> int:
    """Smallest hyperplane count minimizing the per-k error at ``z_plus``
    over k in {1, ..., max(3, ceil(log2 n))}."""
    values = bounds.g_table(z_plus, bounds.k_cap_for(n))
    return int(np.argmax(values <= values.min() + _TIE_TOL)) + 1


def hyperplane_round(
    qm: QMatrix, vectors: np.ndarray, k: int, seed: int, trial: int = 0
) -> RoundingOutcome:
    """Cut the vertex vectors, the rows of ``vectors``, with k independent
    random hyperplanes.

    Vertices sharing the sign pattern of all k projections share a
    cluster; a zero projection counts as positive. Labels are compacted to
    contiguous ids and the partition scored against ``qm``.
    """
    if k < 1:
        raise ValueError("k must be positive")
    rng = _trial_rng(seed, trial)
    dirs = rng.standard_normal((k, vectors.shape[1]))
    signs = (vectors @ dirs.T) >= 0.0
    _, labels = np.unique(signs, axis=0, return_inverse=True)
    part = Partition.from_labels(labels.ravel())
    return RoundingOutcome(
        partition=part,
        score=modularity(qm, part),
        k_used=k,
        trial_seed=(seed, trial),
    )


def _trial_blocks(qm, vectors, k, trials, seed):
    """Round trials 0..trials-1 as ``hyperplane_round(qm, vectors, k, seed,
    trial)`` would, in blocks of at most ``_TRIAL_BLOCK``.

    Yields each block's first trial, its cluster codes (one row per trial,
    one integer per vertex; equal codes share a cluster) and its scores,
    each within 2 * n**2 * eps of the ``modularity`` of its partition.
    """
    # One generator, reset to trial t's counter with an empty buffer, draws
    # what _trial_rng(seed, t) would, without building a generator per trial.
    bitgen = np.random.Philox(key=seed)
    gen = np.random.Generator(bitgen)
    state = bitgen.state
    counter = state["state"]["counter"]
    bits = 1 << np.arange(k)
    for start in range(0, trials, _TRIAL_BLOCK):
        size = min(_TRIAL_BLOCK, trials - start)
        dirs = np.empty((size, k, vectors.shape[1]))
        for i in range(size):
            counter[3] = start + i
            bitgen.state = state
            gen.standard_normal(out=dirs[i])
        # one matrix product per trial, the same one hyperplane_round makes
        signs = (vectors @ dirs.transpose(0, 2, 1)) >= 0.0
        # a vertex's k sign bits as one integer: its cluster code
        codes = signs @ bits
        same = codes[:, :, None] == codes[:, None, :]
        yield start, codes, np.einsum("tij,ij->t", same, qm.entries)


def _best_of_trials(qm, vectors, k, trials, seed):
    """The first of trials 0..trials-1 with the greatest score, each trial
    as ``hyperplane_round(qm, vectors, k, seed, trial)`` would round it."""
    if trials < 1:
        raise ValueError("trials must be at least 1")
    tol = _RESCORE_TOL * qm.graph.n * qm.graph.n
    best = None
    top = -np.inf
    for start, codes, scores in _trial_blocks(qm, vectors, k, trials, seed):
        top = max(top, scores.max())
        near = np.flatnonzero(scores >= top - tol)
        _, first = np.unique(codes[near], axis=0, return_index=True)
        for i in near[np.sort(first)]:
            part = Partition.from_labels(codes[i])
            score = modularity(qm, part)
            if best is None or score > best.score:
                best = RoundingOutcome(
                    partition=part,
                    score=score,
                    k_used=k,
                    trial_seed=(seed, start + int(i)),
                )
    return best


def round_full(
    qm: QMatrix, sol: SdpSolution, trials: int, seed: int
) -> tuple[RoundingOutcome, GuaranteeReport]:
    """Best of ``trials`` adaptive-count hyperplane roundings.

    The report carries the expectation floor q * (f_k(z+) + h_k(-z-)) and
    the additive certificate relaxation_value - q * g_k(z+), both at the
    chosen hyperplane count and with z- clipped to [-1, 0] (the negative
    entries a converged solve keeps within its feasibility tolerance can
    leave it above 0), so the certificate stays at or below the floor.
    """
    if sol.kind != "full":
        raise ValueError("round_full needs a full-relaxation solution")
    z_plus = float(np.clip(sol.z_plus, 0.0, 1.0))
    z_minus = float(np.clip(sol.z_minus, -1.0, 0.0))
    k_star = select_k_star(z_plus, qm.graph.n)
    best = _best_of_trials(qm, gram_vectors(sol), k_star, trials, seed)

    q = qm.q_mass
    floor = q * (bounds.f_k(z_plus, k_star) + bounds.h_k(-z_minus, k_star))
    certificate = sol.objective - q * (
        sol.z_minus - z_minus + bounds.g_k(z_plus, k_star)
    )
    report = GuaranteeReport(
        upper_bound=sol.upper_bound,
        relaxation_value=sol.objective,
        q_mass=q,
        z_plus=sol.z_plus,
        z_minus=sol.z_minus,
        k_star=k_star,
        expectation_floor=floor,
        additive_certificate=certificate,
        best_score=best.score,
        trials=trials,
        seed=seed,
    )
    return best, report


def round_cut(
    qm: QMatrix, sol: SdpSolution, trials: int, seed: int
) -> tuple[RoundingOutcome, GuaranteeReport]:
    """Best of ``trials`` single-hyperplane bipartitions.

    The report carries the envelope floor p+(2z+ - 1) + p-(-1 - 2z-) and
    the additive certificate relaxation_value - 0.16598. A draw that leaves
    every vector on one side yields the single-cluster partition (score 0),
    which is a valid bipartition with an empty side.
    """
    if sol.kind != "cut":
        raise ValueError("round_cut needs a bipartition-relaxation solution")
    best = _best_of_trials(qm, gram_vectors(sol), 1, trials, seed)

    plus_arg = float(np.clip(2.0 * sol.z_plus - 1.0, -1.0, 1.0))
    minus_arg = float(np.clip(-1.0 - 2.0 * sol.z_minus, -1.0, 1.0))
    p_plus, _ = bounds.cut_envelopes(plus_arg)
    _, p_minus = bounds.cut_envelopes(minus_arg)
    report = GuaranteeReport(
        upper_bound=sol.upper_bound,
        relaxation_value=sol.objective,
        q_mass=qm.q_mass,
        z_plus=sol.z_plus,
        z_minus=sol.z_minus,
        k_star=1,
        expectation_floor=p_plus + p_minus,
        additive_certificate=sol.objective - CUT_ERROR_BUDGET,
        best_score=best.score,
        trials=trials,
        seed=seed,
    )
    return best, report
