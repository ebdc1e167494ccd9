import itertools

import numpy as np
import pytest

from civitas import simplex
from civitas.simplex import LinearProgram, solve
from tests.replay import linear_program


def brute_force_lp(c, A_eq, b_eq, A_ge, b_ge):
    """Vertex-enumeration oracle for tiny LPs in the solver's own format.

    Converts >= rows to equalities with surplus variables, then tries every
    basis subset; the optimum of a bounded feasible LP sits on a vertex.
    """
    c = np.asarray(c, dtype=float)
    n_x = len(c)
    m = len(b_eq) + len(b_ge)
    A = np.zeros((m, n_x + len(b_ge)))
    b = np.concatenate([b_eq, b_ge]) if m else np.zeros(0)
    if len(b_eq):
        A[:len(b_eq), :n_x] = A_eq
    if len(b_ge):
        A[len(b_eq):, :n_x] = A_ge
        A[len(b_eq):, n_x:] = -np.eye(len(b_ge))
    cost = np.concatenate([c, np.zeros(len(b_ge))])
    best = None
    rank = np.linalg.matrix_rank(A) if m else 0
    for cols in itertools.combinations(range(A.shape[1]), rank):
        B = A[:, cols]
        if np.linalg.matrix_rank(B) < rank:
            continue
        x_b, *_ = np.linalg.lstsq(B, b, rcond=None)
        x = np.zeros(A.shape[1])
        x[list(cols)] = x_b
        if np.any(x < -1e-9) or np.max(np.abs(A @ x - b)) > 1e-7:
            continue
        value = cost @ x
        if best is None or value > best:
            best = value
    return best


class TestBasics:
    def test_textbook_corner(self):
        lp = linear_program([1.0, 2.0], eq=[([1.0, 1.0], 1.0)])
        sol = solve(lp)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(2.0, abs=1e-12)
        assert sol.x == pytest.approx([0.0, 1.0])

    def test_infeasible_detected(self):
        lp = linear_program([1.0], eq=[([1.0], 1.0)], ge=[([1.0], 2.0)])
        assert solve(lp).status == "infeasible"

    def test_unbounded_detected(self):
        lp = linear_program([1.0, 0.0], ge=[([1.0, -1.0], 0.0)])
        assert solve(lp).status == "unbounded"

    def test_iteration_budget_is_explicit(self):
        lp = linear_program([1.0, 2.0, 3.0],
                            eq=[([1.0, 1.0, 1.0], 1.0)],
                            ge=[([1.0, 0.0, 0.0], 0.1)])
        assert solve(lp, max_iters=1).status == "iteration_limit"

    def test_redundant_rows_handled(self):
        lp = linear_program([1.0, 1.0],
                            eq=[([1.0, 1.0], 1.0), ([2.0, 2.0], 2.0)])
        sol = solve(lp)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(1.0, abs=1e-9)

    def test_redundant_row_behind_a_tiny_pivot(self):
        # Row 3 = row 1 - 2 * row 2.  Phase 1 pivots on the 1e-6 entry, so
        # the redundant row's entries carry rounding noise of about 1e-10;
        # pivoting on that noise would leave a singular basis.
        lp = linear_program(
            [0.0] * 6,
            eq=[([-1.0, 0.0, 1.0, 3.0, 0.0, 0.0], 0.0),
                ([2.0, 0.0, 0.0, 0.0, 0.0, 0.0], 1.0),
                ([-5.0, 0.0, 1.0, 3.0, 0.0, 0.0], -2.0)],
            ge=[([0.0] * 6, 0.0), ([0.0] * 6, 0.0),
                ([0.0, 0.0, 1e-6, 0.0, 0.0, 0.0], 0.0)])
        sol = solve(lp)
        assert sol.status == "optimal"
        assert sol.x[0] == pytest.approx(0.5)

    def test_basic_column_noise_does_not_enter_twice(self, monkeypatch):
        # Row 2 = 2 * row 1.  Under Bland's rule phase 1 ends with an
        # artificial basic in one of them, and rounding leaves a basic
        # column's entry in that artificial's row above PIVOT_TOL.
        # Pivoting that column in would put it in the basis twice.
        lp = linear_program([-1.0, -1.0],
                            eq=[([-3.0, 1.0], 1.0), ([-6.0, 2.0], 2.0)],
                            ge=[([2.0, -5e-6], -1e-9)])
        noise = []
        optimize = simplex._optimize

        def phase1_noise(basis, costs, iterations, max_iters):
            out = optimize(basis, costs, iterations, max_iters)
            if not noise:
                n_total = basis.a.shape[1] - basis.a.shape[0]
                real = basis.columns[basis.columns < n_total]
                noise.extend(np.abs(basis.inverse[i] @ basis.a[:, real]).max()
                             for i, col in enumerate(basis.columns) if col >= n_total)
            return out

        monkeypatch.setattr(simplex, "BLAND_AFTER", 0)
        monkeypatch.setattr(simplex, "_optimize", phase1_noise)
        sol = solve(lp)
        assert max(noise) > simplex.PIVOT_TOL
        assert sol.status == "optimal"
        # x1 = 1 + 3 x0 and the >= row binds: x0 = (5e-6 - 1e-9) / (2 - 1.5e-5)
        assert sol.objective == pytest.approx(-1.0 - 4 * (5e-6 - 1e-9) / (2 - 1.5e-5),
                                              rel=1e-12)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_dependent_row_after_a_tiny_phase1_pivot(self, sign):
        # Row 2 = 2 * row 1.  Phase 1 pivots on a 3.3e-10 entry, and the
        # eta-updated inverse then carries noise of about 1e-7 in the
        # dependent row's artificial; pivoting a surplus column in on that
        # noise would leave a singular basis.
        A_eq = np.array([[-3.0, 1.0], [-6.0, 2.0]])
        b_eq = np.array([1.0, 2.0])
        A_ge = np.array([[0.0, 3.0], [2.0, -1e-9]])
        b_ge = np.array([0.0, -1e-11])
        c = [2.0 * sign, 0.0]
        sol = solve(linear_program(c, eq=list(zip(A_eq, b_eq)),
                                   ge=list(zip(A_ge, b_ge))))
        if sign > 0:  # x1 = 1 + 3 x0 lets x0 grow without bound
            assert sol.status == "unbounded"
            return
        assert sol.status == "optimal"
        oracle = brute_force_lp(c, A_eq, b_eq, A_ge, b_ge)
        assert sol.objective == pytest.approx(oracle, abs=1e-7)

    def test_negative_rhs_rows(self):
        # x1 - x2 = -1, x1 + x2 = 3 -> x = (1, 2)
        lp = linear_program([1.0, 0.0],
                            eq=[([1.0, -1.0], -1.0), ([1.0, 1.0], 3.0)])
        sol = solve(lp)
        assert sol.status == "optimal"
        assert sol.x == pytest.approx([1.0, 2.0])


class TestRandomAgainstVertexOracle:
    def test_random_equality_lps(self):
        rng = np.random.default_rng(99)
        checked = 0
        for _ in range(60):
            n, m = int(rng.integers(2, 5)), int(rng.integers(1, 3))
            A = rng.uniform(0.1, 2.0, size=(m, n))
            x_feas = rng.uniform(0.1, 1.0, size=n)
            b = A @ x_feas  # feasible by construction, bounded (A > 0)
            c = rng.uniform(-1.0, 2.0, size=n)
            lp = linear_program(c, eq=list(zip(A, b)))
            sol = solve(lp)
            assert sol.status == "optimal"
            oracle = brute_force_lp(c, A, b, np.zeros((0, n)), np.zeros(0))
            assert sol.objective == pytest.approx(oracle, abs=1e-7)
            checked += 1
        assert checked == 60

    def test_random_mixed_lps(self):
        rng = np.random.default_rng(123)
        for _ in range(40):
            n = int(rng.integers(2, 4))
            A_eq = rng.uniform(0.1, 1.5, size=(1, n))
            x_feas = rng.uniform(0.1, 1.0, size=n)
            b_eq = A_eq @ x_feas
            A_ge = rng.uniform(0.1, 1.0, size=(1, n))
            b_ge = (A_ge @ x_feas) * 0.5
            c = rng.uniform(-1.0, 1.0, size=n)
            lp = linear_program(c, eq=list(zip(A_eq, b_eq)),
                                ge=list(zip(A_ge, b_ge)))
            sol = solve(lp)
            assert sol.status == "optimal"
            oracle = brute_force_lp(c, A_eq, b_eq, A_ge, b_ge)
            assert sol.objective == pytest.approx(oracle, abs=1e-7)


class TestDuality:
    def test_gap_reported_and_tiny(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            n, m = int(rng.integers(2, 6)), int(rng.integers(1, 4))
            A = rng.uniform(0.1, 2.0, size=(m, n))
            b = A @ rng.uniform(0.1, 1.0, size=n)
            c = rng.uniform(-1.0, 2.0, size=n)
            sol = solve(linear_program(c, eq=list(zip(A, b))))
            assert sol.status == "optimal"
            assert sol.duality_gap is not None
            assert sol.duality_gap <= 1e-8

    def test_solution_nonnegative(self):
        rng = np.random.default_rng(29)
        for _ in range(30):
            n = int(rng.integers(2, 5))
            A = rng.uniform(0.1, 2.0, size=(2, n))
            b = A @ rng.uniform(0.1, 1.0, size=n)
            c = rng.uniform(-1.0, 2.0, size=n)
            sol = solve(linear_program(c, eq=list(zip(A, b))))
            assert np.all(sol.x >= -1e-9)


class TestValidation:
    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            LinearProgram(np.array([1.0]), np.zeros((1, 2)), np.zeros(1),
                          np.zeros((0, 1)), np.zeros(0))
