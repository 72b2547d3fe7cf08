"""Root isolation for decaying exponential sums."""

import numpy as np
import pytest

from reluflow.errors import NumericalError
from reluflow.expsum import ExpSum, Root, tied

from oracles import assert_matches_oracle


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
            assert_matches_oracle(f)
            for r in roots:
                envelope = abs(const) + float(np.sum(np.abs(coeffs)))
                assert abs(f.value(r.t)) <= 1e-10 * max(1.0, envelope)

    def test_high_rank_sums_match_the_oracle(self):
        # 16 to 20 terms with rates spread over 0.05-100 and coefficients
        # over six decades: a derivative recursion loses critical points here
        rng = np.random.default_rng(2024)
        for _ in range(120):
            m = int(rng.integers(16, 21))
            rates = np.geomspace(0.05, 100.0, m) * np.exp(rng.uniform(-0.1, 0.1, m))
            coeffs = rng.normal(size=m) * 10.0 ** rng.uniform(-3.0, 3.0, m)
            f = ExpSum(float(rng.normal()) * 10.0 ** rng.uniform(-3.0, 1.0), coeffs, rates)
            assert f.n_terms >= 16
            assert_matches_oracle(f)

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

    def test_a_negligible_coefficient_leaves_the_roots(self):
        f = ExpSum(1.0, [1e-20, -2.0], [1.0, 2.0])
        assert f.roots() == ExpSum(1.0, [-2.0], [2.0]).roots()

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

    def test_an_undecidable_cell_raises(self):
        # (e^{-t} - e^{-1})^3 has a triple zero at t = 1, where f, f' and f''
        # all vanish: no enclosure can decide the cells around it, and the
        # isolator names the interval instead of guessing
        u = np.exp(-1.0)
        f = ExpSum(-(u**3), [3.0 * u**2, -3.0 * u, 1.0], [1.0, 2.0, 3.0])
        with pytest.raises(NumericalError, match=r"no certified root isolation on \[0\.99"):
            f.roots()


class TestTies:
    def test_the_sentinels(self):
        # -inf ties with no instant and no instant with inf, but inf with every instant
        for t in (0.0, 0.5, 1e300):
            assert not tied(-np.inf, t)
            assert not tied(t, np.inf)
            assert tied(np.inf, t)

    def test_the_window_is_anchored_on_the_earlier_instant(self):
        # 1e-12 absolute up to t = 1, then 1e-12 relative to the earlier instant
        assert tied(1e-3, 1e-3 + 0.9e-12) and not tied(1e-3, 1e-3 + 1.1e-12)
        assert tied(1e6, 1e6 + 0.9e-6) and not tied(1e6, 1e6 + 1.1e-6)


class TestConventions:
    def test_a_run_of_zeros_at_lo_is_one_root(self):
        # (1 - e^{-t})^2 has a double zero at t = 0, so |f| is within
        # ZERO_RTOL of the envelope on a run of instants from 0
        f = ExpSum(1.0, [-2.0, 1.0], [1.0, 2.0])
        assert f.roots() == [Root(0.0, 0, 1)]

    def test_a_zero_limit_has_no_crossing_into_it(self):
        # the limit -2.2e-16 is zero to within ZERO_RTOL of the t = 0 scale
        assert ExpSum(-2.2e-16, [1.0, -0.5], [1.0, 2.0]).roots() == []
        assert ExpSum(-2.2e-16, [1.0], [1.0]).roots() == []

    def test_a_zero_at_lo_is_a_root_for_one_term_and_many(self):
        # f(0) = -3.5e-18 lies within ZERO_RTOL of the envelope: a root at
        # lo with before 0 and after the sign that follows, whatever the rank
        one = ExpSum(-0.0035, [0.0035 * (1.0 - 1e-15)], [1.0])
        many = ExpSum(-0.0035, [0.0035 * (1.0 - 1e-15) - 1e-3, 1e-3], [1.0, 2.0])
        assert one.roots() == [Root(0.0, 0, -1)]
        assert many.roots() == [Root(0.0, 0, -1)]

    def test_a_crossing_hidden_in_a_run_of_zeros_is_polished(self):
        # e^{-t} - e^{-t*} with t* = 1e-6 * 2^19 a grid edge: the cut at t*
        # reads sign 0, and the signs around it, + then -, make it a crossing
        t_star = 1e-6 * 2**19
        f = ExpSum(-np.exp(-t_star), [1.0], [1.0])
        assert f.roots() == [Root(t_star, 1, -1)]
        assert_matches_oracle(f)

    def test_scales_that_underflow_are_isolated(self):
        # coefficients near the smallest normal double: the isolator works
        # on the unit-mass sum, so its slack cannot underflow
        f = ExpSum(-1e-308, [2.2e-308, 3e-309], [1.0, 2.0])
        assert [(r.before, r.after) for r in f.roots()] == [(1, -1)]
        assert_matches_oracle(f)
