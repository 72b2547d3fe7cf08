"""Root isolation for decaying exponential sums."""

import numpy as np
import pytest

from reluflow import expsum
from reluflow.errors import NumericalError
from reluflow.expsum import ExpSum

from oracles import grid_sign_changes


class TestSingleTerm:
    def test_closed_form_root(self):
        # 1 - 2 exp(-t) = 0  at  t = ln 2
        f = ExpSum(1.0, [-2.0], [1.0])
        roots = f.roots()
        assert len(roots) == 1
        np.testing.assert_allclose(roots[0].t, np.log(2.0), rtol=1e-14)
        assert (roots[0].before, roots[0].after) == (-1, 1)

    def test_no_root_when_signs_agree(self):
        assert ExpSum(1.0, [2.0], [1.0]).roots() == []
        assert ExpSum(0.0, [2.0], [1.0]).roots() == []

    def test_root_below_range_is_dropped(self):
        f = ExpSum(1.0, [-2.0], [1.0])
        assert f.roots(lo=1.0) == []


class TestKnownSums:
    def test_double_dip_two_roots(self):
        # f(t) = 1 - 5 e^{-t} + 5 e^{-3t}: positive, dips negative, recovers
        f = ExpSum(1.0, [-5.0, 5.0], [1.0, 3.0])
        roots = f.roots()
        assert len(roots) == 2
        assert roots[0].after == -1 and roots[1].after == 1
        for r in roots:
            assert abs(f.value(r.t)) <= 1e-12

    def test_touch_reports_equal_signs(self):
        # (e^{-t} - e^{-2t}) peaks at ln 2; shift so the max exactly touches 0
        peak = 0.25  # max of e^{-t} - e^{-2t}
        f = ExpSum(-peak, [1.0, -1.0], [1.0, 2.0])
        roots = f.roots()
        assert len(roots) >= 1
        touch = min(roots, key=lambda r: abs(r.t - np.log(2.0)))
        assert touch.before == touch.after == -1
        assert not touch.is_crossing

    def test_prescribed_roots_via_vandermonde(self):
        # place roots exactly at t = 0, 1, 2 by solving for the coefficients
        rates = np.array([1.0, 2.0, 3.0])
        u = np.exp(-rates)
        powers = np.vander(u, 3, increasing=True).T  # rows: u^0, u^1, u^2
        coeffs = np.linalg.solve(powers, np.ones(3))
        f = ExpSum(-1.0, coeffs, rates)
        roots = f.roots()
        np.testing.assert_allclose([r.t for r in roots], [0.0, 1.0, 2.0], atol=1e-9)
        assert all(r.is_crossing for r in roots)
        assert len(roots) <= f.n_terms


class TestRandomSums:
    def test_matches_dense_grid_and_respects_root_bound(self, rng):
        for _ in range(300):
            m = int(rng.integers(1, 6))
            rates = np.sort(rng.uniform(0.2, 5.0, m))
            coeffs = rng.normal(size=m) * 10.0 ** rng.integers(-2, 3)
            const = float(rng.normal())
            f = ExpSum(const, coeffs, rates)
            roots = f.roots()
            assert len(roots) <= f.n_terms  # at most one zero per exponential term
            crossings = sum(1 for r in roots if r.is_crossing)
            t_hi = 60.0 / rates[0]
            grid = grid_sign_changes(f.value, t_hi, points=40000)
            # the dense grid can only miss crossings, never invent them
            assert grid <= crossings
            for r in roots:
                envelope = abs(const) + float(np.sum(np.abs(coeffs)))
                assert abs(f.value(r.t)) <= 1e-10 * max(1.0, envelope)

    def test_roots_sorted_and_deduplicated(self, rng):
        for _ in range(100):
            m = int(rng.integers(2, 5))
            f = ExpSum(
                float(rng.normal()),
                rng.normal(size=m),
                np.sort(rng.uniform(0.1, 4.0, m)),
            )
            ts = [r.t for r in f.roots()]
            assert all(b > a for a, b in zip(ts, ts[1:]))


class TestEdgeCases:
    def test_constant_sum_has_no_roots(self):
        assert ExpSum(3.0, [], []).roots() == []
        assert ExpSum(0.0, [], []).roots() == []

    def test_negligible_coefficients_are_dropped(self):
        f = ExpSum(1.0, [1e-20, -2.0], [1.0, 2.0])
        assert f.n_terms == 1

    def test_equal_rates_merge(self):
        f = ExpSum(1.0, [1.0, -3.0], [2.0, 2.0 + 1e-15])
        assert f.n_terms == 1
        np.testing.assert_allclose(f.coeffs[0], -2.0)

    def test_rates_must_be_positive(self):
        with pytest.raises(ValueError):
            ExpSum(0.0, [1.0], [-1.0])

    def test_derivative_matches_finite_differences(self, rng):
        f = ExpSum(0.5, rng.normal(size=3), np.sort(rng.uniform(0.2, 3.0, 3)))
        df = f.derivative()
        for t in rng.uniform(0.0, 5.0, 20):
            fd = (f.value(t + 1e-7) - f.value(t - 1e-7)) / 2e-7
            np.testing.assert_allclose(df.value(t), fd, atol=1e-6)

    def test_unbracketed_tail_root_raises(self, monkeypatch):
        # the sum falls from 1.49 to its limit -0.01 through one root near
        # t = 4.6; a bracket step that never grows cannot reach it, and the
        # root must not be dropped silently
        monkeypatch.setattr(expsum, "BRACKET_FACTOR", 1.0)
        with pytest.raises(NumericalError):
            ExpSum(-0.01, [1.0, 0.5], [1.0, 2.0]).roots()
