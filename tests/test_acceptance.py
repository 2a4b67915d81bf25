"""Acceptance suite.

Runs every published guarantee at its stated tolerance and prints one
pass/fail line per criterion (run with ``pytest -v -s`` to see them).
Criteria:

 1. worst-case constants and tangency constants
 2. guarantee-curve spot value at optimum 0.999 (two sub-checks)
 3. oracle sandwich: brute-force optima never exceed relaxation objectives
 4. full-scheme additive certificate and expectation floors
 5. bipartition-scheme additive certificate and expectation floors
 6. hyperplane separation law
 7. regular-graph positive-mass identity
 8. auxiliary numeric verification (k-cap, Jordan bound, geometric sums)
 9. bipartition relaxation mass bounds
10. byte-identical reports for identical configuration
"""

import json
import math

import numpy as np
import pytest

from modkit import (
    bounds,
    build_q,
    exact_cut,
    exact_full,
    gram_vectors,
    round_cut,
    round_full,
    select_k_star,
    solve_cut_sdp,
    solve_full_sdp,
)
from modkit.bounds import CONSTANTS
from modkit.cli import main as cli_main
from modkit.rounding import _trial_blocks

import fixtures

SEEDS = list(range(10))
FULL_ERROR_BUDGET = 0.42084
CUT_ERROR_BUDGET = 0.16598
SANDWICH_TOL = 1e-6

# statistical-floor fixtures, chosen with comfortable slack over the
# 3-standard-error allowance
FLOOR_FIXTURES_FULL = ["k2", "p4", "c6", "tri2", "star3"]
FLOOR_FIXTURES_CUT = ["p4", "c4", "c6", "tri2", "petersen"]


def _report(num: str, ok: bool, detail: str):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def solved_full():
    """Full relaxation + exact optimum over the whole corpus."""
    records = []
    for name, g in fixtures.named_fixtures() + fixtures.random_corpus():
        qm = build_q(g)
        sol = solve_full_sdp(qm)
        opt = exact_full(qm).opt_value
        records.append((name, g, qm, sol, opt))
    return records


@pytest.fixture(scope="module")
def solved_cut():
    """Bipartition relaxation + exact bipartition optimum, n <= 14."""
    pool = [
        (name, g)
        for name, g in fixtures.named_fixtures()
        if g.variant in ("undirected", "weighted") and g.n <= 14
    ]
    pool += fixtures.random_corpus() + fixtures.cut_extra_corpus()
    records = []
    for name, g in pool:
        qm = build_q(g)
        sol = solve_cut_sdp(qm)
        opt = exact_cut(qm).opt_value
        records.append((name, g, qm, sol, opt))
    return records


def test_c01_constants():
    checks = [
        0.42082 < CONSTANTS.full_worst_error < 0.42084,
        0.16597 < CONSTANTS.cut_worst_error < 0.16598,
        abs(CONSTANTS.cut_alpha - 0.8785672) < 1e-6,
        abs(CONSTANTS.cut_beta - 0.6891577) < 1e-6,
        abs(CONSTANTS.cut_argmax - 0.885589) < 1e-6,
        abs(CONSTANTS.cut_threshold - 0.385589) < 1e-6,
        abs(
            bounds.g_k(CONSTANTS.full_crossover, 2)
            - bounds.g_k(CONSTANTS.full_crossover, 3)
        )
        < 1e-9,
    ]
    ok = all(checks)
    _report(
        "1",
        ok,
        f"full_worst={CONSTANTS.full_worst_error:.10f} "
        f"cut_worst={CONSTANTS.cut_worst_error:.10f} "
        f"alpha={CONSTANTS.cut_alpha:.7f} beta={CONSTANTS.cut_beta:.7f}",
    )
    assert ok


def test_c02a_spot_value_inequality():
    value = bounds.full_lower_bound_curve(0.99900)
    ok = value > 0.90193
    _report("2a", ok, f"curve(0.99900)={value:.10f} > 0.90193")
    assert ok


def test_c02b_spot_value_clearance():
    """Clearance check for the 0.999 spot value: requires the curve to sit
    at least 1e-5 above the 0.90193 floor.

    The exact curve value is 0.901939422750276631... (checked with 50-digit
    arithmetic; the minimizing hyperplane count is 6), so the clearance is
    9.4228e-6. The floor inequality itself holds comfortably at float
    precision, but the 1e-5 clearance is short by 5.8e-7 and is therefore
    not attainable by any correct implementation. This test states the
    requirement literally and documents the shortfall instead of hiding it;
    the likely origin of the 1e-5 figure is the curve value rounded to five
    decimals (0.90194) minus the floor.
    """
    value = bounds.full_lower_bound_curve(0.99900)
    clearance = value - 0.90193
    ok = clearance >= 1e-5
    _report(
        "2b",
        ok,
        f"clearance={clearance:.4e} (requirement 1e-5; floor inequality "
        f"itself holds, see criterion 2a)",
    )
    assert ok, (
        f"clearance {clearance:.6e} < 1e-5: the exact value "
        f"0.9019394227502766 leaves at most 9.4228e-6 of clearance"
    )


def test_c03_oracle_sandwich(solved_full, solved_cut):
    worst_gap_full = min(sol.objective - opt for _, _, _, sol, opt in solved_full)
    worst_gap_cut = min(sol.objective - opt for _, _, _, sol, opt in solved_cut)
    fact2 = all(
        opt <= 1.0 - 1.0 / g.n + SANDWICH_TOL for _, g, _, _, opt in solved_full
    )
    ok = (
        worst_gap_full >= -SANDWICH_TOL
        and worst_gap_cut >= -SANDWICH_TOL
        and fact2
    )
    _report(
        "3",
        ok,
        f"{len(solved_full)} full + {len(solved_cut)} cut instances; "
        f"worst relaxation gap full={worst_gap_full:+.2e} "
        f"cut={worst_gap_cut:+.2e}; opt <= 1-1/n: {fact2}",
    )
    assert ok


def test_c04_full_additive_certificate(solved_full):
    worst_slack = math.inf
    for name, g, qm, sol, opt in solved_full:
        for seed in SEEDS:
            best, _ = round_full(qm, sol, trials=200, seed=seed)
            slack = best.score - (opt - FULL_ERROR_BUDGET)
            worst_slack = min(worst_slack, slack)
            assert slack >= 0, f"{name} seed={seed}: best={best.score} opt={opt}"
    ok = worst_slack >= 0
    _report(
        "4",
        ok,
        f"best-of-200 >= opt - {FULL_ERROR_BUDGET} on "
        f"{len(solved_full)} instances x {len(SEEDS)} seeds "
        f"(worst slack {worst_slack:+.4f})",
    )
    assert ok


def test_c04_full_expectation_floors(solved_full):
    by_name = {name: rec for name, *rec in solved_full}
    failures = []
    for name in FLOOR_FIXTURES_FULL:
        g, qm, sol, _ = by_name[name]
        emb = gram_vectors(sol)
        k_star = select_k_star(float(np.clip(sol.z_plus, 0.0, 1.0)), qm.graph.n)
        scores = np.concatenate(
            [s for _, _, s in _trial_blocks(qm, emb, k_star, 10_000, seed=2024)]
        )
        _, rep = round_full(qm, sol, trials=1, seed=2024)
        slack = 3.0 * scores.std(ddof=1) / 100.0
        if scores.mean() < rep.expectation_floor - slack:
            failures.append(name)
    ok = not failures
    _report(
        "4s",
        ok,
        f"10^4-trial means clear the guaranteed floor on "
        f"{FLOOR_FIXTURES_FULL} (failures: {failures or 'none'})",
    )
    assert ok


def test_c05_cut_additive_certificate(solved_cut):
    worst_slack = math.inf
    for name, g, qm, sol, opt in solved_cut:
        for seed in SEEDS:
            best, _ = round_cut(qm, sol, trials=200, seed=seed)
            slack = best.score - (opt - CUT_ERROR_BUDGET)
            worst_slack = min(worst_slack, slack)
            assert slack >= 0, f"{name} seed={seed}: best={best.score} opt={opt}"
    ok = worst_slack >= 0
    _report(
        "5",
        ok,
        f"best-of-200 bipartition >= opt_cut - {CUT_ERROR_BUDGET} on "
        f"{len(solved_cut)} instances x {len(SEEDS)} seeds "
        f"(worst slack {worst_slack:+.4f})",
    )
    assert ok


def test_c05_cut_expectation_floors(solved_cut):
    by_name = {name: rec for name, *rec in solved_cut}
    failures = []
    for name in FLOOR_FIXTURES_CUT:
        g, qm, sol, _ = by_name[name]
        emb = gram_vectors(sol)
        scores = np.concatenate(
            [s for _, _, s in _trial_blocks(qm, emb, 1, 10_000, seed=909)]
        )
        _, rep = round_cut(qm, sol, trials=1, seed=909)
        slack = 3.0 * scores.std(ddof=1) / 100.0
        if scores.mean() < rep.expectation_floor - slack:
            failures.append(name)
    ok = not failures
    _report(
        "5s",
        ok,
        f"10^4-trial bipartition means clear the envelope floor on "
        f"{FLOOR_FIXTURES_CUT} (failures: {failures or 'none'})",
    )
    assert ok


def test_c06_hyperplane_law():
    rng = np.random.default_rng(606)
    samples = 100_000
    worst = 0.0
    for theta in (math.pi / 6, math.pi / 4, math.pi / 3, math.pi / 2):
        pair = np.array([[1.0, 0.0], [math.cos(theta), math.sin(theta)]])
        for k in (1, 2, 3):
            dirs = rng.standard_normal((samples, k, 2))
            sides = np.einsum("ski,vi->svk", dirs, pair) >= 0.0
            together = (sides[:, 0, :] == sides[:, 1, :]).all(axis=1)
            freq = together.mean()
            want = (1.0 - theta / math.pi) ** k
            worst = max(worst, abs(freq - want))
    ok = worst <= 0.01
    _report("6", ok, f"max |frequency - law| = {worst:.4f} over 10^5 samples")
    assert ok


def test_c07_regular_identity():
    graphs = [
        fixtures.cycle_graph(4),
        fixtures.cycle_graph(6),
        fixtures.complete_graph(4),
        fixtures.complete_graph(6),
        fixtures.petersen(),
    ]
    worst = max(
        abs(build_q(g).q_mass - (1.0 - 2.0 * g.m / (g.n * g.n))) for g in graphs
    )
    ok = worst <= 1e-12
    _report("7", ok, f"regular-graph mass identity, worst deviation {worst:.2e}")
    assert ok


def test_c08_appendix_suite():
    report = bounds.verify_auxiliary_bounds([2, 3, 4, 8, 64, 1024], grid=1000)
    ok = report["all_ok"]
    _report(
        "8",
        ok,
        f"k-cap={report['k_cap']} jordan={report['jordan']} "
        f"l_k={report['l_k']} (worst argmin per n: {report['worst_argmin']})",
    )
    assert ok


def test_c09_cut_mass_bounds(solved_cut):
    ok = all(
        0.5 - 1e-6 <= sol.z_plus <= 1.0 + 1e-6
        and -1.0 - 1e-6 <= sol.z_minus <= -0.5 + 1e-6
        for _, _, _, sol, _ in solved_cut
    )
    lo = min(sol.z_plus for _, _, _, sol, _ in solved_cut)
    hi = max(sol.z_minus for _, _, _, sol, _ in solved_cut)
    _report(
        "9",
        ok,
        f"z_plus >= {lo:.6f}, z_minus <= {hi:.6f} over "
        f"{len(solved_cut)} bipartition solves",
    )
    assert ok


def test_c10_report_determinism(tmp_path):
    graph_file = tmp_path / "tri2.txt"
    graph_file.write_text("0 1\n1 2\n2 0\n3 4\n4 5\n5 3\n2 3\n")
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    args = ["solve", "--input", str(graph_file), "--trials", "200",
            "--seed", "42"]
    assert cli_main(args + ["--output", str(out_a)]) == 0
    assert cli_main(args + ["--output", str(out_b)]) == 0
    ok = out_a.read_bytes() == out_b.read_bytes()
    payload = json.loads(out_a.read_text())
    _report(
        "10",
        ok,
        f"two identically configured runs agree byte-for-byte "
        f"({len(out_a.read_bytes())} bytes, best={payload['report']['best_score']})",
    )
    assert ok
