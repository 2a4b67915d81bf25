import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import modkit
from modkit import bounds
from modkit.bounds import CONSTANTS, f_k, g_k, h_k, l_k
from modkit.rounding import select_k_star

CROSSOVER = math.cos((3 - math.sqrt(5)) / 4 * math.pi)
GOLDEN_QUARTER = (1 + math.sqrt(5)) / 4  # value of f_1 at the crossover


class TestConstants:
    def test_full_worst_error_window(self):
        assert 0.42082 < CONSTANTS.full_worst_error < 0.42084
        assert CONSTANTS.full_worst_error == pytest.approx(
            CROSSOVER - (1 + math.sqrt(5)) / 8, abs=1e-15
        )

    def test_full_crossover(self):
        assert CONSTANTS.full_crossover == pytest.approx(CROSSOVER, abs=1e-15)

    def test_cut_tangency_constants(self):
        assert abs(CONSTANTS.cut_alpha - 0.8785672) < 1e-6
        assert abs(CONSTANTS.cut_beta - 0.6891577) < 1e-6

    def test_cut_worst_error_window(self):
        assert 0.16597 < CONSTANTS.cut_worst_error < 0.16598
        closed_form = (
            math.sqrt(math.pi**2 - 4) / (2 * math.pi)
            + math.acos(math.sqrt(math.pi**2 - 4) / math.pi) / math.pi
            - CONSTANTS.cut_alpha / 2
        )
        assert CONSTANTS.cut_worst_error == pytest.approx(closed_form, abs=1e-15)

    def test_cut_argmax_and_threshold(self):
        assert abs(CONSTANTS.cut_argmax - 0.885589) < 1e-6
        assert abs(CONSTANTS.cut_threshold - 0.385589) < 1e-6
        assert CONSTANTS.cut_argmax == pytest.approx(
            0.5 + CONSTANTS.cut_threshold, abs=1e-15
        )

    def test_golden_section_matches_scipy_bit_for_bit(self):
        from scipy.optimize import minimize_scalar

        res = minimize_scalar(
            bounds._chord_ratio,
            bracket=(0.0, 0.7, 0.999),
            method="golden",
            options={"xtol": 1e-13},
        )
        assert CONSTANTS.cut_beta == float(res.x)
        assert CONSTANTS.cut_alpha == float(res.fun)


def test_cli_imports_no_scipy():
    # the constants are computed at import time without scipy, so the
    # command line loads none of it
    env = dict(os.environ)
    src = str(Path(modkit.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys, modkit.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


class TestFK:
    def test_at_one(self):
        for k in range(1, 9):
            assert f_k(1.0, k) == pytest.approx(1.0, abs=1e-15)

    def test_at_zero(self):
        for k in range(1, 9):
            assert f_k(0.0, k) == pytest.approx(0.5**k, abs=1e-15)

    def test_crossover_value(self):
        # f_1 at the crossover hits (1 + sqrt(5))/4
        assert f_k(CROSSOVER, 1) == pytest.approx(GOLDEN_QUARTER, abs=1e-12)

    def test_domain_rejected(self):
        with pytest.raises(ValueError):
            f_k(-0.01, 2)
        with pytest.raises(ValueError):
            f_k(1.01, 2)
        with pytest.raises(ValueError):
            f_k(0.5, 0)


class TestHK:
    def test_endpoints(self):
        assert h_k(0.0, 1) == pytest.approx(-0.5, abs=1e-15)
        for k in range(1, 9):
            assert h_k(1.0, k) == pytest.approx(-1.0, abs=1e-15)

    def test_envelope_below_negated_probability(self):
        xs = np.linspace(0.0, 1.0, 1000)
        for k in range(1, 9):
            assert np.all(h_k(xs, k) <= -f_k(xs, k) + 1e-12)


class TestGK:
    def test_k2_k3_agree_at_crossover(self):
        v2 = g_k(CROSSOVER, 2)
        v3 = g_k(CROSSOVER, 3)
        assert abs(v2 - v3) < 1e-9
        assert v2 == pytest.approx(CONSTANTS.full_worst_error, abs=1e-12)

    def test_g1_midpoint(self):
        assert g_k(0.5, 1) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_strict_concavity_second_differences(self):
        xs = np.linspace(0.01, 0.99, 500)
        h = xs[1] - xs[0]
        for k in range(1, 9):
            vals = g_k(xs, k)
            second = vals[2:] - 2 * vals[1:-1] + vals[:-2]
            assert np.all(second < 0), f"k={k}"

    def test_worst_case_over_grid(self):
        # A 10^4-point grid with the crossover included: the max of the
        # k-wise minimum is the worst-case constant, attained at the kink.
        xs = np.union1d(np.linspace(0.0, 1.0, 10000), [CROSSOVER])
        per_k = np.array([g_k(xs, k) for k in range(1, 9)])
        lower = per_k.min(axis=0)
        top = int(np.argmax(lower))
        assert lower[top] == pytest.approx(CONSTANTS.full_worst_error, abs=1e-6)
        assert abs(xs[top] - CROSSOVER) < 1e-4
        # the two-count scheme (k in {2, 3}) shares the same worst case
        pair = per_k[1:3].min(axis=0)
        assert pair.max() == pytest.approx(CONSTANTS.full_worst_error, abs=1e-6)

    def test_crossover_floor_for_all_k(self):
        equal = []
        for k in range(1, 65):
            v = g_k(CROSSOVER, k)
            assert v >= CONSTANTS.full_worst_error - 1e-12
            if abs(v - CONSTANTS.full_worst_error) < 1e-9:
                equal.append(k)
        assert equal == [2, 3]


class TestFullLowerBoundCurve:
    def test_spot_value(self):
        # exceeds the published floor for near-perfect instances
        assert bounds.full_lower_bound_curve(0.99900) > 0.90193

    def test_at_zero(self):
        # g_k(0) = 0 for every k, so the clamped error vanishes
        assert bounds.full_lower_bound_curve(0.0) == pytest.approx(0.0, abs=1e-15)

    def test_at_crossover(self):
        want = CROSSOVER - CONSTANTS.full_worst_error
        assert bounds.full_lower_bound_curve(CROSSOVER) == pytest.approx(
            want, abs=1e-12
        )

    def test_domain(self):
        with pytest.raises(ValueError):
            bounds.full_lower_bound_curve(1.0)
        with pytest.raises(ValueError):
            bounds.full_lower_bound_curve(-0.1)


class TestCutEnvelopes:
    def test_continuity_at_tangency(self):
        b = CONSTANTS.cut_beta
        lo, _ = bounds.cut_envelopes(np.nextafter(b, -1))
        hi, _ = bounds.cut_envelopes(np.nextafter(b, 2))
        assert abs(lo - hi) < 1e-9

    def test_endpoints(self):
        plus_at_1, _ = bounds.cut_envelopes(1.0)
        _, minus_at_m1 = bounds.cut_envelopes(-1.0)
        assert plus_at_1 == pytest.approx(1.0, abs=1e-12)
        assert minus_at_m1 == pytest.approx(0.0, abs=1e-12)

    def test_envelopes_below_their_functions(self):
        xs = np.linspace(-1.0, 1.0, 1000)
        prob = 1.0 - np.arccos(xs) / np.pi
        plus, minus = bounds.cut_envelopes(xs)
        assert np.all(plus <= prob + 1e-12)
        assert np.all(minus <= -prob + 1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            bounds.cut_envelopes(1.5)


class TestCutErrorCurve:
    def test_at_threshold(self):
        t = CONSTANTS.cut_threshold
        assert bounds.cut_error_curve(t) == pytest.approx(
            t - CONSTANTS.cut_worst_error, abs=1e-9
        )
        assert bounds.cut_error_curve(t) == pytest.approx(0.21961569318236914, abs=1e-9)

    def test_at_half(self):
        want = 0.5 - (1.0 - CONSTANTS.cut_alpha) / 2.0
        assert bounds.cut_error_curve(0.5) == pytest.approx(want, abs=1e-12)
        assert bounds.cut_error_function(1.0) == pytest.approx(
            (1.0 - CONSTANTS.cut_alpha) / 2.0, abs=1e-12
        )

    def test_linear_branch(self):
        a, b = CONSTANTS.cut_alpha, CONSTANTS.cut_beta
        xs = np.linspace(0.5, (b + 1.0) / 2.0, 200)
        want = (1.0 - a) * (xs + 0.5)
        assert np.allclose(bounds.cut_error_function(xs), want, atol=1e-12)

    def test_worst_case_over_grid(self):
        xs = np.linspace(0.5, 1.0, 10000)
        vals = bounds.cut_error_function(xs)
        top = int(np.argmax(vals))
        assert vals[top] == pytest.approx(CONSTANTS.cut_worst_error, abs=1e-6)
        assert abs(xs[top] - CONSTANTS.cut_argmax) < 1e-4

    def test_domain(self):
        with pytest.raises(ValueError):
            bounds.cut_error_curve(0.6)


# Every function that takes a point of a bound curve: the call on one value.
CURVE_ARGUMENTS = {
    "f_k": lambda x: f_k(x, 2),
    "h_k": lambda x: h_k(x, 2),
    "g_k": lambda x: g_k(x, 2),
    "g_table": lambda x: bounds.g_table(x, 3),
    "l_k": lambda x: l_k(x, 2),
    "full_lower_bound_curve": bounds.full_lower_bound_curve,
    "cut_envelopes": bounds.cut_envelopes,
    "cut_error_function": bounds.cut_error_function,
    "cut_error_curve": bounds.cut_error_curve,
    "select_k_star": lambda x: select_k_star(x, 10),
}


@pytest.mark.parametrize("value", [math.nan, None, np.array([0.5, math.nan])],
                         ids=["nan", "None", "array-with-nan"])
@pytest.mark.parametrize("call", CURVE_ARGUMENTS.values(), ids=CURVE_ARGUMENTS.keys())
def test_nan_argument_rejected(call, value):
    # NaN compares false both ways, so a range check must fail on it, not
    # pass it; None reaches the check as NaN
    with pytest.raises(ValueError, match=r"must lie in \["):
        call(value)


class TestVerifyAppendix:
    def test_small_n(self):
        report = bounds.verify_auxiliary_bounds([2], grid=1000)
        assert report["all_ok"]
        assert report["worst_argmin"][2] <= 3

    def test_large_n(self):
        report = bounds.verify_auxiliary_bounds([1024], grid=1000)
        assert report["all_ok"]
        assert report["worst_argmin"][1024] <= 10

    def test_jordan_inequality_endpoint(self):
        # equality case at x = 0: sqrt(0) = arccos(1) = 0
        assert math.sqrt(0.0) <= math.acos(1.0)

    def test_l_k_examples(self):
        assert l_k(0.0, 3) == pytest.approx(0.25, abs=1e-15)  # (1/4) * (2x)^0
        xs = np.linspace(0.0, GOLDEN_QUARTER, 500, endpoint=False)
        for k in range(3, 11):
            assert np.all(l_k(xs, k) < xs + 0.5)

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            bounds.verify_auxiliary_bounds([])
