"""Random-hyperplane rounding of relaxation solutions.

Each trial draws k standard-normal directions and assigns every vertex the
sign pattern of its vector against them (row i of the solution's unit-row
``factor``, for either relaxation), giving at most 2**k
clusters (k = 1 for the bipartition scheme). The hyperplane count for the
full scheme is chosen adaptively from the solution's positive-mass average
so that the guaranteed expectation floor is as high as possible. The
rounding reads the solution's factor and figures only; its iteration count
and residuals, read from ``SdpSolution.history``, play no part.

Trial randomness comes from counter-derived streams, one per block of
``_TRIAL_BLOCK`` = 256 trials: trial t of master seed s takes row t mod 256
of the (256, k, r) standard-normal array, r the factor's column count, that
the Philox stream with key s and counter (0, 0, 0, floor(t / 256)) draws.
A draw of fewer rows gives the first rows of that array, bit for bit, so
a partial block draws only the rows it needs. Best-of-trials runs make one
draw per 256 trials and score each draw in whole blocks, a power of two
sized by n that never straddles two draws; since each trial's draws depend
only on (s, t), the outcome does not depend on the scoring block size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bounds
from .modularity import Partition, QMatrix, code_scores, first_best
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

# Trials draw their directions _TRIAL_BLOCK at a time, one Philox stream per
# block. Best-of-trials rounding scores them in blocks of the largest power
# of two, at most _TRIAL_BLOCK, whose same-cluster mask, one byte per vertex
# pair and trial, fits within _TRIAL_BYTES, or of one trial: all 256 up to
# n = 181, 4 at n = 1200. Such a block divides _TRIAL_BLOCK, so every draw
# splits into whole blocks, and memory grows with neither the trial count
# nor trials * n**2.
_TRIAL_BLOCK = 256
_TRIAL_BYTES = 8 << 20


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


def _as_int(name: str, value) -> int:
    """``value`` as a Python int; a bool or a non-integer is a TypeError."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an int, not {type(value).__name__}")
    return int(value)


def _checked_seed(seed) -> int:
    """``seed`` as a Python int, if it is one that ``modkit --seed``
    accepts: an integer from 0 to 2**64 - 1, one Philox key."""
    seed = _as_int("seed", seed)
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must be an unsigned 64-bit value, got {seed}")
    return seed


def _checked_trials(trials) -> int:
    """``trials`` as a Python int, if it is one that ``modkit --trials``
    accepts: at least 1."""
    trials = _as_int("trials", trials)
    if trials < 1:
        raise ValueError("trials must be at least 1")
    return trials


def _trial_rng(seed: int, block: int) -> np.random.Generator:
    # Counter-based stream of trials block * _TRIAL_BLOCK onwards: independent
    # per block, reproducible per seed, each trial one row of its draw. A
    # plain list would pass a block of 2**63 or more through float64.
    counter = np.array([0, 0, 0, block], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=seed, counter=counter))


def _trial_draws(seed: int, k: int, width: int, trials: int):
    """The directions of trials 0..trials-1, as one (rows, k, width) draw per
    block of ``_TRIAL_BLOCK`` trials; the last block draws only its rows."""
    for block, start in enumerate(range(0, trials, _TRIAL_BLOCK)):
        rows = min(_TRIAL_BLOCK, trials - start)
        yield _trial_rng(seed, block).standard_normal((rows, k, width))


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

    The k directions are row t mod 256 of trial t's block draw: the first
    t mod 256 + 1 rows of ``(256, k, r)`` standard normals from the Philox
    stream with key ``seed`` and counter (0, 0, 0, t // 256). Vertices
    sharing the sign pattern of all k projections share a cluster; a zero
    projection counts as positive. The pattern, read as k bits, is a
    vertex's cluster code; codes are compacted to contiguous ids and the
    partition scored against ``qm``. ``seed`` must be an int from 0 to
    2**64 - 1, and ``trial`` one from 0 to 2**72 - 1, so that its block
    index fits the counter's 64-bit word.
    """
    if k < 1:
        raise ValueError("k must be positive")
    seed = _checked_seed(seed)
    trial = _as_int("trial", trial)
    if trial < 0:
        raise ValueError(f"trial must be nonnegative, got {trial}")
    block, row = divmod(trial, _TRIAL_BLOCK)
    if block >= 1 << 64:
        raise ValueError(f"trial {trial} is past the last block of trials")
    dirs = _trial_rng(seed, block).standard_normal((row + 1, k, vectors.shape[1]))[row]
    codes = ((vectors @ dirs.T) >= 0.0) @ (1 << np.arange(k))
    return RoundingOutcome(
        partition=Partition.from_labels(codes),
        score=float(code_scores(qm, codes[None])[0]),
        k_used=k,
        trial_seed=(seed, trial),
    )


def _trial_blocks(qm, vectors, k, trials, seed):
    """Round trials 0..trials-1 as ``hyperplane_round(qm, vectors, k, seed,
    trial)`` would, in order, in blocks of a power of two trials, at most
    ``_TRIAL_BLOCK`` and at most ``_TRIAL_BYTES`` of same-cluster mask.

    Yields each block's cluster codes (one row per trial, one integer per
    vertex; equal codes share a cluster) and their ``code_scores``, the
    same bits as each trial's ``hyperplane_round`` score. The directions
    come from one draw per ``_TRIAL_BLOCK`` trials, which splits into whole
    blocks; only the last block of the last draw may be short.
    """
    fit = max(1, min(_TRIAL_BLOCK, _TRIAL_BYTES // qm.graph.n ** 2))
    size = 1 << (fit.bit_length() - 1)
    bits = 1 << np.arange(k)
    for draw in _trial_draws(seed, k, vectors.shape[1], trials):
        for start in range(0, len(draw), size):
            dirs = draw[start:start + size]
            # one matrix product per trial, the same one hyperplane_round makes
            signs = (vectors @ dirs.transpose(0, 2, 1)) >= 0.0
            # a vertex's k sign bits as one integer: its cluster code
            codes = signs @ bits
            yield codes, code_scores(qm, codes)


def _best_of_trials(qm, vectors, k, trials, seed):
    """The first of trials 0..trials-1 with the greatest score, each trial
    as ``hyperplane_round(qm, vectors, k, seed, trial)`` would round it."""
    trial, codes, score = first_best(_trial_blocks(qm, vectors, k, trials, seed))
    return RoundingOutcome(Partition.from_labels(codes), score, k, (seed, trial))


def round_full(
    qm: QMatrix, sol: SdpSolution, trials: int, seed: int
) -> tuple[RoundingOutcome, GuaranteeReport]:
    """Best of ``trials`` (an int, at least 1) adaptive-count hyperplane
    roundings, trials 0..trials-1 of ``seed``, an int from 0 to 2**64 - 1.

    The report carries the expectation floor q * (f_k(z+) + h_k(-z-)) and
    the additive certificate relaxation_value - q * g_k(z+), both at the
    chosen hyperplane count and with z- clipped to [-1, 0] (the negative
    entries a converged solve keeps within its feasibility tolerance can
    leave it above 0), so the certificate stays at or below the floor.
    """
    if sol.kind != "full":
        raise ValueError("round_full needs a full-relaxation solution")
    seed = _checked_seed(seed)
    trials = _checked_trials(trials)
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
    """Best of ``trials`` (an int, at least 1) single-hyperplane
    bipartitions, trials 0..trials-1 of ``seed``, an int from 0 to 2**64 - 1.

    The report carries the envelope floor p+(2z+ - 1) + p-(-1 - 2z-) and
    the additive certificate relaxation_value - 0.16598. A draw that leaves
    every vector on one side yields the single-cluster partition (score 0),
    which is a valid bipartition with an empty side.
    """
    if sol.kind != "cut":
        raise ValueError("round_cut needs a bipartition-relaxation solution")
    seed = _checked_seed(seed)
    trials = _checked_trials(trials)
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
