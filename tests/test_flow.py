"""Event-driven exact flow: segments, events, terminals, and crossings."""

import numpy as np
import pytest

from reluflow.dataset import Dataset
from reluflow.errors import PreconditionError
from reluflow.flow import (
    FlowConfig,
    count_hyperplane_crossings,
    linear_loss,
    norm_profile,
    revisit_report,
    sample_trajectory,
    segment_root_counts,
    simulate_flow,
    simulate_gd,
    simulate_linear_flow,
)
from reluflow.geometry import pattern_of

from oracles import lstsq_minnorm


def small_cube_start(rng, d):
    return 1e-4 * rng.uniform(0.0, 1.0, d)


def random_a1a2a3(rng, d, n):
    while True:
        x = rng.uniform(0.05, 1.0, size=(d, n))
        s = np.linalg.svd(x, compute_uv=False)
        if s[-1] > 1e-6 * s[0]:
            return Dataset(x=x, y=rng.uniform(0.1, 3.0, n))


class TestSingleDatum:
    def test_converges_to_solution_hyperplane(self):
        ds = Dataset(x=np.array([[1.0]]), y=np.array([1.0]))
        tr = simulate_flow(ds, np.array([0.001]))
        assert tr.events == ()
        assert tr.terminal == "converged"
        np.testing.assert_allclose(tr.terminal_point, [1.0], atol=1e-12)

    def test_zero_start_is_stationary(self, ds_deactivation):
        tr = simulate_flow(ds_deactivation, np.zeros(3))
        assert tr.events == ()
        assert tr.terminal == "converged"
        np.testing.assert_array_equal(tr.terminal_point, np.zeros(3))


@pytest.fixture(scope="module")
def runs(ds_deactivation):
    rng = np.random.default_rng(7)
    w0 = small_cube_start(rng, 3)
    return (
        ds_deactivation,
        w0,
        simulate_flow(ds_deactivation, w0),
        simulate_linear_flow(ds_deactivation, w0),
    )


@pytest.fixture(scope="module")
def reactivation_runs(ds_reactivation):
    rng = np.random.default_rng(3)
    w0 = small_cube_start(rng, 3)
    return (
        ds_reactivation,
        simulate_flow(ds_reactivation, w0),
        simulate_linear_flow(ds_reactivation, w0),
    )


@pytest.fixture(scope="module")
def trajectory(ds_reactivation):
    rng = np.random.default_rng(3)
    return simulate_flow(ds_reactivation, small_cube_start(rng, 3))


class TestDeactivationShowcase:
    def test_exactly_one_deactivation_of_first_datum(self, runs):
        _, _, tr, _ = runs
        assert [(e.kind, e.index) for e in tr.events] == [("deactivation", 0)]
        assert revisit_report(tr) == ()

    def test_terminal_matches_anchored_least_squares(self, runs):
        ds, _, tr, _ = runs
        assert tr.terminal == "converged"
        active = [1, 2]
        point = lstsq_minnorm(ds.x[:, active], ds.y[active])
        # the third coordinate is frozen at the event, not at the
        # minimum-norm value
        u, s, _ = np.linalg.svd(ds.x[:, active], full_matrices=True)
        null = u[:, 2:]
        oracle = point + null @ (null.T @ tr.events[0].point)
        assert float(np.linalg.norm(tr.terminal_point - oracle)) <= 1e-6

    def test_linear_terminal_is_direct_solve(self, runs):
        ds, _, _, lin = runs
        oracle = np.linalg.solve(ds.x @ ds.x.T, ds.x @ ds.y)
        assert float(np.linalg.norm(lin.terminal_point - oracle)) <= 1e-8
        np.testing.assert_allclose(lin.terminal_point, [0.25, 2.875, -0.1], atol=1e-9)

    def test_flows_coincide_then_bifurcate(self, runs):
        _, _, tr, lin = runs
        t_ev = tr.events[0].t
        for t in np.linspace(0.0, t_ev * (1 - 1e-12), 50):
            assert np.linalg.norm(tr.at(t) - lin.at(t)) <= 1e-8
        assert np.linalg.norm(tr.terminal_point - lin.terminal_point) > 0.05

    def test_event_point_is_on_its_boundary(self, runs):
        ds, _, tr, _ = runs
        ev = tr.events[0]
        gap = abs(float(ds.x[:, ev.index] @ ev.point))
        scale = np.linalg.norm(ds.x[:, ev.index]) * max(1.0, np.linalg.norm(ev.point))
        assert gap <= 1e-12 * scale


class TestReactivationShowcase:
    def test_fourth_datum_leaves_and_returns(self, reactivation_runs):
        _, tr, _ = reactivation_runs
        sig = [(e.kind, e.index) for e in tr.events]
        assert ("deactivation", 3) in sig
        assert ("activation", 3) in sig
        assert sig.index(("deactivation", 3)) < sig.index(("activation", 3))
        assert revisit_report(tr) == (3,)

    def test_terminals_coincide_with_all_data_solution(self, reactivation_runs):
        ds, tr, lin = reactivation_runs
        oracle = lstsq_minnorm(ds.x, ds.y)
        assert np.linalg.norm(tr.terminal_point - oracle) <= 1e-6
        assert np.linalg.norm(tr.terminal_point - lin.terminal_point) <= 1e-6


class TestLinearFlow:
    def test_zero_start_reaches_minimum_norm_solution(self, rng):
        x = rng.uniform(0.05, 1.0, size=(4, 2))  # rank deficient on purpose
        ds = Dataset(x=x, y=rng.uniform(0.1, 2.0, 2))
        tr = simulate_linear_flow(ds, np.zeros(4))
        oracle = lstsq_minnorm(ds.x, ds.y)
        assert np.linalg.norm(tr.terminal_point - oracle) <= 1e-8
        norms = [p[1] for p in norm_profile(tr, 100)]
        assert all(b >= a - 1e-9 for a, b in zip(norms, norms[1:]))
        assert norms[-1] > norms[0]

    def test_stationary_start_never_moves(self, ds_deactivation):
        w_star = np.linalg.solve(
            ds_deactivation.x @ ds_deactivation.x.T, ds_deactivation.x @ ds_deactivation.y
        )
        tr = simulate_linear_flow(ds_deactivation, w_star)
        profile = norm_profile(tr, 20)
        norms = [p[1] for p in profile]
        assert max(norms) - min(norms) <= 1e-12
        np.testing.assert_allclose(tr.terminal_point, w_star, atol=1e-12)

    def test_null_component_is_conserved(self, rng):
        x = rng.uniform(0.05, 1.0, size=(3, 1))
        ds = Dataset(x=x, y=np.array([1.0]))
        w0 = rng.normal(size=3)
        tr = simulate_linear_flow(ds, w0)
        xhat = x[:, 0] / np.linalg.norm(x[:, 0])
        perp0 = w0 - xhat * (xhat @ w0)
        perp_end = tr.terminal_point - xhat * (xhat @ tr.terminal_point)
        np.testing.assert_allclose(perp_end, perp0, atol=1e-12)


class TestNormProfile:
    def test_small_norm_d2_flow_grows(self, rng):
        for _ in range(5):
            ds = random_a1a2a3(rng, 2, 5)
            delta = 1e-4 * float(np.min(ds.y / np.linalg.norm(ds.x, axis=0)))
            tr = simulate_flow(ds, delta * rng.uniform(0.2, 1.0, 2))
            norms = [p[1] for p in norm_profile(tr, 150)]
            assert all(b >= a - 1e-9 for a, b in zip(norms, norms[1:]))

    def test_stationary_start_constant_profile(self, ds_deactivation):
        from reluflow.landscape import minima_census

        census = minima_census(ds_deactivation)
        w = census.global_minimum().point
        tr = simulate_flow(ds_deactivation, w)
        norms = [p[1] for p in norm_profile(tr, 30)]
        assert max(norms) - min(norms) <= 1e-10

    def test_g_matches_norm_slope(self, ds_reactivation, rng):
        w0 = small_cube_start(rng, 3)
        tr = simulate_flow(ds_reactivation, w0)
        profile = norm_profile(tr, 400)
        # g < 0 exactly where the squared norm grows, up to sampling noise
        for (t1, n1, _, g1), (t2, n2, _, _) in zip(profile, profile[1:]):
            if t2 - t1 <= 0 or abs(g1) < 1e-12:
                continue
            slope = (n2**2 - n1**2) / (2 * (t2 - t1))
            if abs(slope) > 1e-8:
                assert np.sign(slope) == -np.sign(g1)

    def test_requires_two_samples(self, ds_deactivation):
        tr = simulate_flow(ds_deactivation, np.zeros(3))
        with pytest.raises(PreconditionError):
            norm_profile(tr, 1)


class TestAllActivatedEntry:
    def test_small_positive_pull_activates_everything_first(self, rng):
        # before any deactivation can happen, a small-norm start with
        # positive pull must visit the all-activated pattern
        for _ in range(20):
            d = int(rng.integers(2, 4))
            n = int(rng.integers(d, 7))
            ds = random_a1a2a3(rng, d, n)
            delta = 1e-4 * float(np.min(ds.y / np.linalg.norm(ds.x, axis=0)))
            direction = rng.uniform(0.1, 1.0, d)
            tr = simulate_flow(ds, delta * direction / np.linalg.norm(direction))
            full = tuple([1] * n)
            entered = None
            for seg in tr.segments:
                if seg.pattern.bits == full:
                    entered = seg.t_start
                    break
            assert entered is not None
            first_drop = next(
                (e.t for e in tr.events if e.kind == "deactivation"), np.inf
            )
            assert entered <= first_drop


class TestLossMonotone:
    def test_rectified_and_linear_runs(self, rng):
        for _ in range(10):
            d = int(rng.integers(1, 4))
            n = int(rng.integers(d, 7))
            ds = random_a1a2a3(rng, d, n)
            w0 = rng.normal(size=d)
            for tr in (simulate_flow(ds, w0), simulate_linear_flow(ds, w0)):
                losses = [p[2] for p in norm_profile(tr, 120)]
                assert all(
                    b <= a + 1e-10 * max(1.0, abs(a)) for a, b in zip(losses, losses[1:])
                )


class TestCrossings:
    def test_never_vanishing_offset_counts_zero(self, ds_deactivation, rng):
        w0 = small_cube_start(rng, 3)
        tr = simulate_linear_flow(ds_deactivation, w0)
        # a hyperplane far from the whole bounded trajectory
        v = np.array([1.0, 0.0, 0.0])
        assert count_hyperplane_crossings(tr, v, 1e6) == 0

    def test_vandermonde_instance_crosses_three_times(self):
        # rig a diagonal system so the offset vanishes exactly at t = 0, 1, 2
        rates = np.array([1.0, 2.0, 3.0])
        ds = Dataset(x=np.diag(np.sqrt(rates)), y=np.array([1.0, 1.0, 1.0]))
        w_star = np.linalg.solve(ds.x @ ds.x.T, ds.x @ ds.y)
        u = np.exp(-rates)
        powers = np.vander(u, 3, increasing=True).T
        coeffs = np.linalg.solve(powers, np.ones(3))
        w0 = w_star + coeffs  # with v = (1,1,1): offsets are the rigged sum
        v = np.ones(3)
        c = float(v @ w_star) + 1.0
        tr = simulate_linear_flow(ds, w0)
        assert count_hyperplane_crossings(tr, v, c) == 3
        for found, terms in segment_root_counts(tr, v, c):
            assert found <= terms + 1

    def test_random_probes_never_exceed_dimension(self, rng):
        for _ in range(100):
            d = int(rng.integers(2, 5))
            n = int(rng.integers(d, 8))
            ds = random_a1a2a3(rng, d, n)
            tr = simulate_linear_flow(ds, rng.normal(size=d))
            v = rng.normal(size=d)
            c = float(rng.normal())
            assert count_hyperplane_crossings(tr, v, c) <= d


class TestTrajectoryStructure:
    def test_segments_chain_continuously(self, trajectory):
        for a, b in zip(trajectory.segments, trajectory.segments[1:]):
            end = a.value_local(a.t_end - a.t_start)
            assert np.linalg.norm(end - b.w_start) <= 1e-10

    def test_consecutive_patterns_differ_at_event_index(self, trajectory):
        for i, ev in enumerate(trajectory.events):
            p = trajectory.segments[i].pattern.bits
            q = trajectory.segments[i + 1].pattern.bits
            diff = [k for k in range(len(p)) if p[k] != q[k]]
            assert diff == [ev.index]

    def test_events_sit_on_their_boundaries(self, trajectory, ds_reactivation):
        for ev in trajectory.events:
            xk = ds_reactivation.x[:, ev.index]
            gap = abs(float(xk @ ev.point))
            assert gap <= 1e-12 * np.linalg.norm(xk) * max(1.0, np.linalg.norm(ev.point))

    def test_pattern_constant_inside_segments(self, trajectory, ds_reactivation):
        for seg in trajectory.segments:
            horizon = seg.local_horizon()
            for tau in np.linspace(horizon * 1e-3, horizon * 0.999, 7):
                w = seg.value_local(tau)
                assert pattern_of(ds_reactivation, w).bits == seg.pattern.bits

    def test_ode_residual_inside_segments(self, trajectory, ds_reactivation):
        from reluflow.geometry import active_matrices

        rng = np.random.default_rng(0)
        for seg in trajectory.segments:
            h, q = active_matrices(ds_reactivation, seg.pattern)
            scale_h = np.linalg.norm(h, 2)
            horizon = seg.local_horizon()
            for tau in rng.uniform(0.0, horizon, 100):
                w = seg.value_local(tau)
                dw = seg.derivative_local(tau)
                resid = np.linalg.norm(dw + h @ w - q)
                bound = 1e-9 * (scale_h * np.linalg.norm(w) + np.linalg.norm(q))
                assert resid <= bound


class TestGuards:
    def test_config_requires_positive_entries(self):
        with pytest.raises(PreconditionError):
            FlowConfig(converge_tol=0.0)
        with pytest.raises(PreconditionError):
            FlowConfig(t_max=-1.0)
        with pytest.raises(PreconditionError):
            FlowConfig(max_events=0)

    def test_horizon_termination_is_flagged(self, ds_deactivation, rng):
        w0 = small_cube_start(rng, 3)
        tr = simulate_flow(ds_deactivation, w0, FlowConfig(t_max=1e-3))
        assert tr.terminal == "horizon"
        assert tr.segments[-1].t_end == pytest.approx(1e-3)

    def test_event_cap_is_flagged(self, ds_reactivation, rng):
        w0 = small_cube_start(rng, 3)
        tr = simulate_flow(ds_reactivation, w0, FlowConfig(max_events=1))
        assert tr.terminal == "event-cap"
        assert len(tr.events) == 1

    def test_non_finite_start_is_rejected(self, ds_deactivation):
        with pytest.raises(PreconditionError):
            simulate_flow(ds_deactivation, np.array([np.nan, 0.0, 0.0]))


class TestSliding:
    def test_negative_label_boundary_slides(self):
        # one negative-label datum makes both one-sided fields point at its
        # boundary: the flow must ride the boundary instead of crossing
        ds = Dataset(
            x=np.array([[1.0, 1.0], [0.0, 1.0]]), y=np.array([-3.0, 1.0])
        )
        tr = simulate_flow(ds, np.array([0.4, 0.1]))
        kinds = [e.kind for e in tr.events]
        assert "sliding" in kinds
        slide = tr.events[kinds.index("sliding")]
        assert slide.index == 0
        # the constrained flow settles on the boundary at the projected optimum
        np.testing.assert_allclose(tr.terminal_point, [0.0, 1.0], atol=1e-8)
        seg = tr.segments[-1]
        assert seg.sliding_index == 0
        # the sliding segment stays on the boundary
        for tau in np.linspace(0.0, seg.local_horizon(), 9):
            w = seg.value_local(tau)
            assert abs(w @ ds.x[:, 0]) <= 1e-10

    def test_positive_labels_never_slide(self, rng):
        for _ in range(20):
            ds = random_a1a2a3(rng, 2, int(rng.integers(2, 7)))
            tr = simulate_flow(ds, rng.normal(size=2))
            assert all(e.kind in ("activation", "deactivation") for e in tr.events)


class TestDescentProxy:
    def test_gd_reproduces_the_event_sequence(self, ds_deactivation):
        rng = np.random.default_rng(7)
        w0 = small_cube_start(rng, 3)
        exact = simulate_flow(ds_deactivation, w0)
        proxy = simulate_gd(ds_deactivation, w0, lr=0.005, iters=10000)
        assert [(e.kind, e.index) for e in proxy.events] == [
            (e.kind, e.index) for e in exact.events
        ]
        assert np.linalg.norm(proxy.terminal_point - exact.terminal_point) <= 1e-2

    def test_engines_agree_on_random_problems(self):
        # pinned draws: the small-step proxy must replay the exact engine's
        # event sequence and land near its terminal
        rng = np.random.default_rng(42)
        for _ in range(6):
            d = int(rng.integers(2, 4))
            ds = random_a1a2a3(rng, d, int(rng.integers(d, 7)))
            w0 = rng.normal(size=d)
            exact = simulate_flow(ds, w0)
            proxy = simulate_gd(ds, w0, lr=0.002, iters=40000)
            assert [(e.kind, e.index) for e in proxy.events] == [
                (e.kind, e.index) for e in exact.events
            ]
            gap = np.linalg.norm(proxy.terminal_point - exact.terminal_point)
            assert gap <= 1e-2 * max(1.0, np.linalg.norm(exact.terminal_point))


class TestSampling:
    def test_rows_are_time_ordered_and_finite(self, ds_reactivation, rng):
        tr = simulate_flow(ds_reactivation, small_cube_start(rng, 3))
        rows = sample_trajectory(tr, 100)
        ts = [t for t, _ in rows]
        assert all(b >= a for a, b in zip(ts, ts[1:]))
        assert all(np.all(np.isfinite(w)) for _, w in rows)

    def test_linear_loss_helper(self, ds_deactivation):
        w = np.array([1.0, 2.0, 3.0])
        r = ds_deactivation.x.T @ w - ds_deactivation.y
        assert linear_loss(ds_deactivation, w) == pytest.approx(0.5 * float(r @ r))
