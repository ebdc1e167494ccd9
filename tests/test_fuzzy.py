import numpy as np
import pytest
from hypothesis import given, strategies as st

from civitas import fuzzy
from civitas.fuzzy import (DEFAULT_RULES, FuzzyParams, ParamRow, control, fuzzify,
                           membership_grid, surface)
from tests.replay import (FuzzyOutputSet, LampFeedback, defuzzify_centroid, infer,
                          lcu_update, rule_activations)

ROW = ParamRow(0.5, 1.0, 1.2)
PARAMS = FuzzyParams.uniform(0.5, 1.0, 1.2)

# Max-min aggregation has an intrinsic centroid ripple where the M/B (or
# S/M) memberships cross; bounded well under this for the canonical
# parameters (worst measured 0.0049).
MONOTONE_SLACK = 0.01


class TestFuzzify:
    def test_left_endpoint_pure_small(self):
        d = fuzzify(0.0, ROW)
        assert (d.mu_s, d.mu_m, d.mu_b) == (1.0, 0.0, 0.0)

    def test_medium_peak(self):
        d = fuzzify(0.5, ROW)
        assert (d.mu_s, d.mu_m, d.mu_b) == (0.0, 1.0, 0.0)

    def test_linear_ramps_midpoint(self):
        d = fuzzify(0.75, ROW)
        assert (d.mu_s, d.mu_m, d.mu_b) == (0.0, 0.5, 0.5)

    def test_saturation_beyond_maximum(self):
        d = fuzzify(1.1, ROW)
        assert (d.mu_s, d.mu_m, d.mu_b) == (0.0, 0.0, 1.0)

    def test_outside_universe_rejected(self):
        with pytest.raises(ValueError):
            fuzzify(1.3, ROW)
        with pytest.raises(ValueError):
            fuzzify(-0.1, ROW)

    @given(st.floats(0.0, 1.0))
    def test_partition_sums_to_one_exactly(self, x):
        d = fuzzify(x, ROW)
        assert d.mu_s + d.mu_m + d.mu_b == 1.0

    @given(st.floats(0.01, 0.99), st.floats(0.0, 1.0))
    def test_partition_exact_for_generic_rows(self, m_frac, x_frac):
        row = ParamRow(m_frac, 1.0, 1.25)
        x = x_frac * row.M
        d = fuzzify(x, row)
        assert d.mu_s + d.mu_m + d.mu_b == 1.0

    def test_beyond_maximum_only_big(self):
        for x in np.linspace(1.0, 1.2, 21):
            d = fuzzify(float(x), ROW)
            assert (d.mu_s, d.mu_m, d.mu_b) == (0.0, 0.0, 1.0)


class TestRuleBase:
    def test_default_matches_authored_table(self):
        # rows i = B, M, S over columns d = S, M, B
        assert DEFAULT_RULES.cells == (("S", "S", "S"),
                                       ("S", "M", "M"),
                                       ("M", "B", "B"))

    def test_pure_labels_activate_single_cell(self):
        pure = {"S": 0.0, "M": 0.5, "B": 1.0}
        for i_label, i_val in pure.items():
            for d_label, d_val in pure.items():
                acts = rule_activations(fuzzify(i_val, ROW), fuzzify(d_val, ROW),
                                        DEFAULT_RULES)
                hot = [(i, d, w) for i, d, _, w in acts if w > 0]
                assert hot == [(i_label, d_label, 1.0)]

    def test_incomplete_table_rejected(self):
        with pytest.raises(ValueError):
            fuzzy.RuleBase((("S", "S"),) * 3)


class TestInfer:
    def test_single_rule_emits_its_output_term(self):
        out = infer(fuzzify(1.0, ROW), fuzzify(0.0, ROW), DEFAULT_RULES, ROW)
        # cell (B, S) -> S: singleton at 0 with full activation
        assert out.values[0] == 1.0
        assert np.sum(out.values) == 1.0

    def test_all_zero_degrees_give_zero_set(self):
        zero = fuzzy.MembershipDegrees(0.0, 0.0, 0.0)
        out = infer(zero, zero, DEFAULT_RULES, ROW)
        assert not np.any(out.values)

    def test_medium_medium_rule(self):
        out = infer(fuzzify(0.5, ROW), fuzzify(0.5, ROW), DEFAULT_RULES, ROW)
        assert defuzzify_centroid(out) == pytest.approx(0.5, abs=1e-9)


class TestDefuzzify:
    def test_symmetric_triangle_centroid(self):
        grid = np.linspace(0.0, 1.0, 1001)
        tri = np.maximum(0.0, 1.0 - np.abs(grid - 0.5) / 0.2)
        out = FuzzyOutputSet(grid, tri)
        assert defuzzify_centroid(out) == pytest.approx(0.5, abs=1e-12)

    def test_zero_set_returns_universe_midpoint(self):
        grid = np.linspace(0.0, 1.2, 1201)
        out = FuzzyOutputSet(grid, np.zeros_like(grid))
        assert defuzzify_centroid(out) == pytest.approx(0.6, abs=1e-12)

    def test_shoulder_ramp_against_fine_grid_oracle(self):
        # centroid of the S input ramp on [0, 1.2] with m = 0.5
        coarse = np.linspace(0.0, 1.2, 1201)
        fine = np.linspace(0.0, 1.2, 12001)
        ramp_c = membership_grid(ROW, coarse)["S"]
        ramp_f = membership_grid(ROW, fine)["S"]
        got = defuzzify_centroid(FuzzyOutputSet(coarse, ramp_c))
        oracle = defuzzify_centroid(FuzzyOutputSet(fine, ramp_f))
        assert got == pytest.approx(oracle, abs=1e-3)


class TestControl:
    def test_bright_empty_street_dims(self):
        # rule (B, S) -> S dominates
        assert control(1.0, 0.0, PARAMS) == pytest.approx(0.0, abs=1e-9)

    def test_dark_heavy_traffic_brightens(self):
        # rule (S, B) -> B dominates
        assert control(0.0, 1.2, PARAMS) == pytest.approx(1.0, abs=1e-9)

    def test_medium_point_lands_mid_range(self):
        assert 0.4 <= control(0.5, 0.5, PARAMS) <= 0.6

    def test_output_always_within_universe(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            i = float(rng.uniform(0, 1.2))
            d = float(rng.uniform(0, 1.2))
            assert 0.0 <= control(i, d, PARAMS) <= 1.2


class TestSurface:
    def test_small_grid_matches_pointwise_control(self):
        s = surface(PARAMS, n=2)
        for a, i in enumerate((0.0, 1.2)):
            for b, d in enumerate((0.0, 1.2)):
                assert s[a, b] == pytest.approx(control(i, d, PARAMS), abs=1e-12)

    def test_monotone_trend_canonical(self):
        s = surface(PARAMS, n=121)
        for j in range(121):
            col = s[:, j]
            assert np.all(np.diff(col) <= MONOTONE_SLACK)
            assert col[0] >= col[-1]
        for i in range(121):
            row = s[i, :]
            assert np.all(np.diff(row) >= -MONOTONE_SLACK)
            assert row[0] <= row[-1]

    def test_resolution_refinement_stable(self):
        coarse = surface(PARAMS, n=31)
        fine = surface(PARAMS, n=31, resolution=12001)
        assert np.abs(coarse - fine).max() < 1e-3

    def test_rejects_degenerate_grid(self):
        with pytest.raises(ValueError):
            surface(PARAMS, n=1)


class TestLcuUpdate:
    def test_zero_error_keeps_params(self):
        fb = LampFeedback(0.6, 0.6)
        assert lcu_update(PARAMS, fb) == PARAMS

    def test_under_illumination_raises_medium_until_sign_flip(self):
        # closed loop against a linear lamp: illumination = 0.9 * u
        params = PARAMS
        target = 0.7
        history = []
        flipped = False
        for _ in range(60):
            u = control(0.3, 0.6, params)
            achieved = 0.9 * u
            history.append(params.u.m)
            if achieved >= target:
                flipped = True
                break
            params = lcu_update(params, LampFeedback(target, achieved))
        assert flipped
        assert all(b >= a for a, b in zip(history, history[1:]))
        assert params.u.m > PARAMS.u.m

    def test_step_clamped_to_five_percent(self):
        fb = LampFeedback(1.0, 0.0)  # 100% error
        out = lcu_update(PARAMS, fb)
        assert out.u.m <= PARAMS.u.m * 1.05 + 1e-12

    def test_ordering_invariant_clamped_never_broken(self):
        params = PARAMS
        for _ in range(200):
            params = lcu_update(params, LampFeedback(1.0, 0.0))
        assert 0 < params.u.m < params.u.M <= params.u.MI

    def test_over_budget_never_pushes_brighter(self):
        fb = LampFeedback(1.0, 0.2, over_energy_budget=True)
        assert lcu_update(PARAMS, fb) == PARAMS


class TestParamValidation:
    def test_row_ordering_enforced(self):
        with pytest.raises(ValueError):
            ParamRow(1.0, 0.5, 1.2)
        with pytest.raises(ValueError):
            ParamRow(0.0, 1.0, 1.2)


class TestSurfaceAcrossParameterSets:
    def test_monotone_trend_for_random_rows(self):
        # the crossover ripple scales with the universe; 3% covers the
        # measured worst case over broad random parameter draws
        rng = np.random.default_rng(99)
        for _ in range(6):
            m = float(rng.uniform(0.2, 0.7))
            M = float(rng.uniform(m + 0.1, 1.2))
            MI = float(rng.uniform(M, 1.5))
            p = FuzzyParams.uniform(m, M, MI)
            s = surface(p, n=41)
            slack = 0.03 * MI
            for j in range(41):
                assert np.all(np.diff(s[:, j]) <= slack)
                assert s[0, j] >= s[-1, j]
            for i in range(41):
                assert np.all(np.diff(s[i, :]) >= -slack)
                assert s[i, 0] <= s[i, -1]
