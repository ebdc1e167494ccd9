import numpy as np
import pytest

from civitas.metrics import (CurvePair, EffortField, SpecBox, autonomy,
                             efficiency, flexibility, predictability, scalability)

BOX2 = SpecBox.from_dict({"x": (0.0, 1.0), "y": (0.0, 1.0)})


class TestFlexibility:
    def test_always_true_is_one(self):
        assert flexibility(lambda p: True, BOX2, n=1000, seed=1) == 1.0

    def test_always_false_is_zero(self):
        assert flexibility(lambda p: False, BOX2, n=1000, seed=1) == 0.0

    def test_half_box_predicate(self):
        got = flexibility(lambda p: p["x"] < 0.5, BOX2, n=100_000, seed=7)
        assert got == pytest.approx(0.5, abs=0.02)

    def test_deterministic_per_seed(self):
        a = flexibility(lambda p: p["x"] + p["y"] < 1.0, BOX2, n=5000, seed=3)
        b = flexibility(lambda p: p["x"] + p["y"] < 1.0, BOX2, n=5000, seed=3)
        assert a == b

    def test_monotone_in_predicate_on_same_samples(self):
        weak = flexibility(lambda p: p["x"] < 0.8, BOX2, n=20_000, seed=11)
        strong = flexibility(lambda p: p["x"] < 0.4, BOX2, n=20_000, seed=11)
        assert strong <= weak

    def test_degenerate_box_rejected(self):
        with pytest.raises(ValueError):
            SpecBox.from_dict({"x": (1.0, 1.0)})

    @pytest.mark.parametrize("ranges, message", [
        ({}, "need at least one attribute"),
        ({"x": (-1e308, 1e308)}, "attribute 'x': high - low is not finite"),
    ])
    def test_box_without_finite_volume_rejected(self, ranges, message):
        with pytest.raises(ValueError, match=message):
            SpecBox.from_dict(ranges)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be an int >= 0, got -1"):
            flexibility(lambda p: True, BOX2, n=10, seed=-1)


class TestScalability:
    def test_identity_case(self):
        for p, c in ((1.0, 1.0), (17.3, 0.2), (1e6, 3.0)):
            assert scalability(p, c, p, c) == 1.0

    def test_linear_scaling(self):
        assert scalability(10, 1, 20, 2) == 1.0

    def test_superlinear_cost(self):
        assert scalability(10, 1, 20, 4) == 2.0

    def test_non_positive_rejected(self):
        with pytest.raises(ValueError):
            scalability(0, 1, 1, 1)


class TestAutonomy:
    def test_zero_effort(self):
        f = EffortField.from_function(lambda p, a, t: 0.0, (0, 1), (0, 1), (0, 1),
                                      (4, 4, 4))
        assert autonomy(f) == 0.0

    def test_constant_effort_over_unit_volume(self):
        f = EffortField.from_function(lambda p, a, t: 3.5, (0, 1), (0, 1), (0, 1),
                                      (5, 5, 5))
        assert autonomy(f) == pytest.approx(3.5, abs=1e-9)

    def test_separable_polynomial_against_closed_form(self):
        # f = p^2 * 2a * 3t^2 over the unit cube: integral = 1/3 * 1 * 1
        f = EffortField.from_function(lambda p, a, t: p * p * 2 * a * 3 * t * t,
                                      (0, 1), (0, 1), (0, 1), (50, 50, 50))
        assert autonomy(f) == pytest.approx(1.0 / 3.0, rel=0.01)

    def test_halving_step_converges(self):
        def f(p, a, t):
            return (p + 1) * (a + 2) * (t + 3)
        coarse = autonomy(EffortField.from_function(f, (0, 1), (0, 1), (0, 1),
                                                    (10, 10, 10)))
        fine = autonomy(EffortField.from_function(f, (0, 1), (0, 1), (0, 1),
                                                  (20, 20, 20)))
        assert abs(fine - coarse) / abs(fine) < 0.01

    def test_degenerate_axis_rejected(self):
        with pytest.raises(ValueError):
            EffortField(np.array([0.0]), np.array([0.0, 1.0]),
                        np.array([0.0, 1.0]), np.zeros((0, 1, 1)))


class TestEfficiency:
    def test_identical_curves_zero(self):
        grid = np.linspace(0.0, 1.0, 11)
        c = CurvePair(grid, grid ** 2, grid ** 2)
        assert efficiency(c) == 0.0

    def test_constant_overhead(self):
        grid = np.linspace(2.0, 4.0, 21)
        c = CurvePair(grid, grid + 0.75, grid)
        assert efficiency(c) == pytest.approx(0.75, abs=1e-12)

    def test_linear_overhead_half(self):
        grid = np.linspace(0.0, 1.0, 11)
        c = CurvePair(grid, 3.0 * grid, np.zeros_like(grid))
        assert efficiency(c) == pytest.approx(1.5, abs=1e-9)

    def test_grid_mismatch_rejected(self):
        with pytest.raises(ValueError):
            CurvePair(np.linspace(0, 1, 5), np.zeros(5), np.zeros(4))


class TestPredictability:
    def test_perfect_estimates(self):
        rep = predictability([(10.0, 10.0), (5.0, 5.0)], limit=0.1)
        assert (rep.max_abs_error, rep.rmse, rep.within_limit) == (0.0, 0.0, True)

    def test_single_pair_outside_limit(self):
        rep = predictability([(10.0, 12.0)], limit=1.0)
        assert rep.max_abs_error == 2.0
        assert rep.rmse == 2.0
        assert not rep.within_limit

    def test_rmse_mixes_errors(self):
        rep = predictability([(0.0, 3.0), (0.0, 4.0)], limit=10.0)
        assert rep.rmse == pytest.approx((12.5) ** 0.5, abs=1e-12)
        assert rep.within_limit

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            predictability([], limit=1.0)
