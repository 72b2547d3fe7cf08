"""Event-driven exact flow: segments, events, terminals, and crossings."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reluflow.flow as flow_engine
from reluflow.campaigns import random_dataset, small_norm_start
from reluflow.criteria import crossing_context
from reluflow.dataset import Dataset
from reluflow.errors import NumericalError, PreconditionError, ReluFlowError, StructuralError
from reluflow.expsum import BOUND_SLACK_RTOL, _SLACKS, ExpSum, RootBatch, _clearance, _grid, _merge
from reluflow.flow import (
    count_hyperplane_crossings,
    norm_certificate,
    revisit_report,
    sample_trajectory,
    segment_root_counts,
    simulate_flow,
    simulate_gd,
    simulate_linear_flow,
    trajectory_to_csv,
)
from reluflow.geometry import ActivationPattern, g_value, pattern_of
from reluflow.landscape import linear_loss, loss

from oracles import assert_matches_oracle, clearance_both_forms, lstsq_minnorm, next_event_exhaustive
from oracles import norm_growth_mp, segment_certificate, trajectory_csv
from snapshot_outputs import stress_draw


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

    def test_a_datum_let_go_off_its_boundary_and_active_again_is_revisited(self):
        # stress draw 467: datum 1 is held, released to off ("sliding", not "deactivation")
        # and activated later; its state is read from the faces, not from the kinds
        x, y, w0 = stress_draw(467)
        tr = simulate_flow(Dataset(x=x, y=y), w0)

        def state(face):
            return "on" if face[0].bits[1] else "held" if 1 in face[1] else "off"

        steps = [(e.kind, state(e.before), state(e.after)) for e in tr.events if e.index == 1]
        assert steps == [("sliding", "on", "held"), ("sliding", "held", "off"), ("activation", "off", "on")]
        assert revisit_report(tr) == (1,)

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
        assert norm_certificate(tr) is None

    def test_stationary_start_never_moves(self, ds_deactivation):
        w_star = np.linalg.solve(
            ds_deactivation.x @ ds_deactivation.x.T, ds_deactivation.x @ ds_deactivation.y
        )
        tr = simulate_linear_flow(ds_deactivation, w_star)
        norms = [float(np.linalg.norm(w)) for _, w in sample_trajectory(tr, 20)]
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


def assert_norm_certificate_matches_oracle(tr):
    """norm_certificate and the 50-digit oracle flag the same segment, at the same time to 1e-9."""
    got, want = norm_certificate(tr), norm_growth_mp(tr)
    assert (got is None) == (want is None), (got, want)
    if got is not None:
        assert got[0] == want[0] and abs(got[1] - want[1]) <= 1e-9 * max(1.0, want[1]), (got, want)


class TestNormProfile:
    def test_small_norm_d2_flow_grows(self, rng):
        for _ in range(5):
            ds = random_a1a2a3(rng, 2, 5)
            delta = 1e-4 * float(np.min(ds.y / np.linalg.norm(ds.x, axis=0)))
            tr = simulate_flow(ds, delta * rng.uniform(0.2, 1.0, 2))
            assert norm_certificate(tr) is None

    def test_stationary_start_constant_profile(self, ds_deactivation):
        from reluflow.landscape import minima_census

        census = minima_census(ds_deactivation)
        w = census.global_minimum().point
        tr = simulate_flow(ds_deactivation, w)
        norms = [float(np.linalg.norm(p)) for _, p in sample_trajectory(tr, 30)]
        assert max(norms) - min(norms) <= 1e-10
        # a flow that never moves (g = 0 throughout) does not grow
        assert norm_certificate(tr) == (0, 0.0)
        assert_norm_certificate_matches_oracle(tr)

    def test_a_zero_length_segment_is_skipped(self):
        # the flow of TestFaceRule::test_simultaneous_arrivals_log_one_event_each:
        # its two events at one instant leave no segment of zero length, and
        # the instant between them is not a stop
        ds = Dataset(
            x=np.array([[-0.9, 1.8, 0.7], [1.8, -0.9, 0.7], [-0.5, -0.5, 1.0]]),
            y=np.array([0.8, 0.8, 3.5]),
        )
        tr = simulate_flow(ds, np.array([0.3, 0.3, 0.7]))
        assert tr.events[0].t == tr.events[1].t
        assert [seg.duration > 0.0 for seg in tr.segments] == [True, True]
        assert norm_certificate(tr) is None
        assert_norm_certificate_matches_oracle(tr)

    def test_g_matches_norm_slope(self, ds_reactivation, rng):
        w0 = small_cube_start(rng, 3)
        tr = simulate_flow(ds_reactivation, w0)
        rows = sample_trajectory(tr, 400)
        gs = [g_value(ds_reactivation, w) for _, w in rows]
        # the certificate's exact g is g_value wherever the flow is sampled
        for (t, w), g in zip(rows, gs):
            seg = next(s for s in tr.segments if t <= s.t_end)
            exact = seg.norm_slope().value(t - seg.t_start)
            assert abs(exact - g) <= 1e-12 * max(1.0, float(np.linalg.norm(w)) ** 2)
        # g < 0 exactly where the squared norm grows, up to sampling noise
        for (t1, w1), (t2, w2), g1 in zip(rows, rows[1:], gs):
            if t2 - t1 <= 0 or abs(g1) < 1e-12:
                continue
            slope = (w2 @ w2 - w1 @ w1) / (2 * (t2 - t1))
            if abs(slope) > 1e-8:
                assert np.sign(slope) == -np.sign(g1)

    def test_requires_two_samples(self, ds_deactivation):
        tr = simulate_flow(ds_deactivation, np.zeros(3))
        with pytest.raises(PreconditionError):
            sample_trajectory(tr, 1)


class TestNormCertificate:
    @pytest.fixture(scope="class")
    def dip(self):
        # a single converged segment whose norm falls from 1.697 to 1.013 at
        # t = 6.81 and then rises to 12.03
        rng = np.random.default_rng((9, 59))
        ds = random_dataset(rng, 2, int(rng.integers(2, 9)))
        return simulate_flow(ds, rng.normal(size=2))

    def test_dip_between_samples_is_flagged(self, dip):
        assert dip.terminal == "converged" and len(dip.segments) == 1
        assert float(np.linalg.norm(dip.segments[0].w_start)) == pytest.approx(1.697, abs=1e-3)
        assert float(np.linalg.norm(dip.at(6.8088))) == pytest.approx(1.013, abs=1e-3)
        assert float(np.linalg.norm(dip.terminal_point)) == pytest.approx(12.03, abs=1e-2)
        assert norm_certificate(dip) == (0, 0.0)
        assert_norm_certificate_matches_oracle(dip)

    def test_sampled_norms_miss_the_dip(self, dip):
        # 160 samples lie about 24.8 apart, and the dip is over by t = 6.81
        rows = sample_trajectory(dip, 160)
        assert rows[1][0] == pytest.approx(24.8, abs=0.05)
        norms = [float(np.linalg.norm(w)) for _, w in rows]
        assert all(b >= a for a, b in zip(norms, norms[1:])) and norms[-1] > norms[0]

    def test_small_norm_d2_flows_match_the_oracle(self):
        for s in range(100):
            rng = np.random.default_rng((9, s))
            ds = random_dataset(rng, 2, int(rng.integers(2, 9)))
            tr = simulate_flow(ds, small_norm_start(rng, ds))
            assert norm_certificate(tr) is None, s
            assert_norm_certificate_matches_oracle(tr)

    def test_zero_start_linear_flows_match_the_oracle(self):
        for s in range(100):
            rng = np.random.default_rng((9, s))
            d, n = int(rng.integers(1, 5)), int(rng.integers(1, 9))
            ds = Dataset(x=rng.uniform(0.05, 1.0, size=(d, n)), y=rng.uniform(0.1, 3.0, size=n))
            tr = simulate_linear_flow(ds, np.zeros(d))
            assert norm_certificate(tr) is None, s
            assert_norm_certificate_matches_oracle(tr)

    def test_normal_starts_match_the_oracle(self):
        # draws 59 and 75 dip between samples; 75 only for 0.05 time units
        verdicts = []
        for s in range(150):
            rng = np.random.default_rng((9, s))
            ds = random_dataset(rng, 2, int(rng.integers(2, 9)))
            tr = simulate_flow(ds, rng.normal(size=2))
            assert_norm_certificate_matches_oracle(tr)
            verdicts.append(norm_certificate(tr) is None)
        assert not verdicts[59] and not verdicts[75]
        assert 0 < sum(verdicts) < 150

    @pytest.mark.parametrize(
        "x, y, w0",
        [
            ([[1.0, 1.0], [0.0, 1.0]], [-3.0, 1.0], [0.4, 0.1]),
            ([[-2.187, -0.384], [0.273, 0.313]], [-0.519, 2.199], [-0.136, 1.496]),
            (
                [[1.0, 0.0, 1.0, 1.0], [0.0, 1.0, 1.0, 1.0], [0.0, 0.0, 1.0, 2.0]],
                [-3.0, -3.0, 2.0, 1.0],
                [0.4, 0.2, 0.5],
            ),
        ],
        ids=["one-held", "alignment-rounds-positive", "two-held"],
    )
    def test_held_segments_match_the_oracle(self, x, y, w0):
        tr = simulate_flow(Dataset(x=np.array(x), y=np.array(y)), np.array(w0))
        assert tr.segments[-1].held
        assert_norm_certificate_matches_oracle(tr)

    @pytest.mark.parametrize("name", ["ds_deactivation", "ds_reactivation"])
    def test_a_start_at_the_limit_up_to_roundoff_does_not_grow(self, name, request):
        # the solved normal equations miss the lstsq limit by about 3e-15,
        # and the norm's roundoff-level motion must not read as growth
        ds = request.getfixturevalue(name)
        tr = simulate_linear_flow(ds, np.linalg.solve(ds.x @ ds.x.T, ds.x @ ds.y))
        assert 0.0 < float(np.linalg.norm(tr.segments[0].delta)) < 1e-14
        assert norm_certificate(tr) == (0, 0.0)


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
            for tr, f in ((simulate_flow(ds, w0), loss), (simulate_linear_flow(ds, w0), linear_loss)):
                losses = [f(ds, w) for _, w in sample_trajectory(tr, 120)]
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

    def test_a_crossing_on_a_segment_boundary_counts_once(self):
        # datum 1 activates at t = 0.470, where one segment ends and the next
        # starts: both isolate the same crossing of its hyperplane
        ds = Dataset(x=np.array([[1.0, 1.0], [0.0, 1.0]]), y=np.array([1.0, 1.0]))
        tr = simulate_flow(ds, np.array([0.2, -0.5]))
        assert [(e.index, e.kind) for e in tr.events] == [(1, "activation")]
        assert tr.events[0].t == pytest.approx(0.470, abs=1e-3)
        assert count_hyperplane_crossings(tr, ds.x[:, 1], 0.0) == 1

    def test_a_touch_does_not_count(self):
        # H = diag(1, 2) exactly, so v . w(t) - c = (e^{-t} - 1/2)^2 + (3.75 - c):
        # c = 3.75 touches the hyperplane at t = ln 2, a larger c crosses it twice
        ds = Dataset(x=np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]]), y=np.array([2.0, 2.0, 2.0]))
        tr = simulate_flow(ds, np.array([1.0, 3.0]))
        v = np.array([1.0, 1.0])
        (touch,) = tr.segments[0].observable(v, offset=3.75).roots()
        assert not touch.is_crossing and touch.t == pytest.approx(np.log(2.0), rel=1e-6)
        assert [count_hyperplane_crossings(tr, v, c) for c in (3.7, 3.75, 3.8)] == [0, 0, 2]

    def test_a_root_past_a_segment_end_does_not_count(self):
        # x_0 . w falls from 0.52 towards y_0 = -1 but stops at 0, where datum 0
        # deactivates: the first segment's sum crosses -0.5 only past its end
        ds = Dataset(x=np.array([[1.0, 0.3], [0.2, 1.0]]), y=np.array([-1.0, 1.0]))
        tr = simulate_flow(ds, np.array([0.72, -1.0]))
        first = tr.segments[0]
        (past,) = first.observable(ds.x[:, 0], offset=-0.5).roots()
        assert past.is_crossing and not first.covers(past.t)
        assert [count_hyperplane_crossings(tr, ds.x[:, 0], c) for c in (0.25, -0.5)] == [1, 0]

    def test_a_short_segment_covers_the_tie_window_past_its_end(self, ds_deactivation):
        # below a duration of 1 the window is 1e-12 absolute, as every tie of instants is
        (seg,) = simulate_flow(ds_deactivation, np.array([1e-4, 5e-5, 8e-5]), t_max=1e-3).segments
        assert seg.duration == 1e-3
        assert seg.covers(seg.duration + 5e-13)
        assert not seg.covers(seg.duration + 2e-12)

    @pytest.mark.parametrize("v, c, error, message", [
        ([1.0, 1.0], 0.5, StructuralError, r"v must have length 3, got shape \(2,\)"),
        (1.0, 0.5, StructuralError, r"v must have length 3, got shape \(\)"),
        ([1.0, np.inf, 0.0], 0.5, PreconditionError, "v must be finite"),
        ([1.0, 1.0, 0.0], np.nan, PreconditionError, "c must be finite, got nan"),
        ([1.0, 1.0, 0.0], -np.inf, PreconditionError, "c must be finite, got -inf"),
    ])
    def test_a_malformed_hyperplane_is_refused(self, ds_deactivation, v, c, error, message):
        # a hyperplane of the wrong dimension, or not finite, is a typed error before any root search
        tr = simulate_linear_flow(ds_deactivation, np.full(3, 1e-4))
        for count in (count_hyperplane_crossings, segment_root_counts):
            with pytest.raises(error, match=message):
                count(tr, v, c)


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

    def test_events_chain_the_faces_of_the_segments(self):
        # stress draws 0-299 include events at one instant, at t = 0 and on
        # held faces: each segment runs on the face its last event entered
        for s in range(300):
            x, y, w0 = stress_draw(s)
            try:
                tr = simulate_flow(Dataset(x=x, y=y), w0)
            except ReluFlowError:  # a refused flow has no trajectory
                continue
            for a, b in zip(tr.events, tr.events[1:]):
                assert a.after == b.before, s
            for seg in tr.segments:
                assert seg.duration > 0.0, s
                if tr.events:
                    entered = [tr.events[0].before] + [ev.after for ev in tr.events if ev.t <= seg.t_start]
                    assert entered[-1] == (seg.pattern, seg.held), s

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
    def test_horizon_must_be_positive(self, ds_deactivation):
        for t_max in (0.0, -1.0, np.nan):
            with pytest.raises(PreconditionError):
                simulate_flow(ds_deactivation, np.zeros(3), t_max=t_max)

    def test_horizon_termination_is_flagged(self, ds_deactivation, rng):
        w0 = small_cube_start(rng, 3)
        tr = simulate_flow(ds_deactivation, w0, t_max=1e-3)
        assert tr.terminal == "horizon"
        assert tr.segments[-1].t_end == pytest.approx(1e-3)

    def test_a_run_stopped_by_t_max_has_no_terminal_face(self, ds_deactivation):
        # without the horizon this start converges on the face 011
        w0 = np.array([1e-4, 5e-5, 8e-5])
        assert simulate_flow(ds_deactivation, w0).terminal_face == (ActivationPattern.from_string("011"), ())
        tr = simulate_flow(ds_deactivation, w0, t_max=1e-3)
        assert tr.terminal == "horizon" and tr.terminal_face is None

    def test_a_slow_scaled_flow_is_not_cut_short(self):
        # x scaled by about 1e-3 slows the flow to rates near 1e-6, and its
        # one event falls at t = 2.1e6: only an absolute horizon would end it
        rng = np.random.default_rng((31, 57))
        d, n = int(rng.integers(2, 6)), int(rng.integers(2, 10))
        x, y, w0 = rng.normal(size=(d, n)), rng.normal(size=n), rng.normal(size=d)
        x = x * 10.0 ** rng.uniform(-3.0, 3.0)
        tr = simulate_flow(Dataset(x=x, y=y), w0)
        assert [(e.index, e.kind) for e in tr.events] == [(2, "activation")]
        assert tr.events[0].t == pytest.approx(2.1123e6, rel=1e-4)
        assert tr.terminal == "converged"

    def test_event_cap_is_flagged(self, ds_reactivation, rng, monkeypatch):
        one_event = 1 / (ds_reactivation.n * ds_reactivation.d)
        monkeypatch.setattr(flow_engine, "EVENT_CAP_FACTOR", one_event)
        w0 = small_cube_start(rng, 3)
        tr = simulate_flow(ds_reactivation, w0)
        assert tr.terminal == "event-cap"
        assert len(tr.events) == 1

    def test_a_run_capped_before_it_moves_keeps_one_segment(self, monkeypatch):
        # lattice draw 3 (positive labels) starts with datum 2 on its
        # boundary, so its first event is at t = 0; capped there, the run
        # keeps the segment it closed, of zero length, and does not grow
        rng = np.random.default_rng((91, 3))
        d = int(rng.integers(2, 5))
        n = int(rng.integers(d, 10))
        x, y, w0 = rng.integers(-2, 3, (d, n)), rng.integers(1, 4, n), rng.integers(-2, 3, d)
        ds = Dataset(x=x.astype(float), y=y.astype(float))
        monkeypatch.setattr(flow_engine, "EVENT_CAP_FACTOR", 1 / (n * d))
        tr = simulate_flow(ds, w0.astype(float))
        assert tr.terminal == "event-cap" and [(e.t, e.index) for e in tr.events] == [(0.0, 2)]
        assert [seg.duration for seg in tr.segments] == [0.0]
        assert norm_certificate(tr) == (0, 0.0)

    def test_non_finite_start_is_rejected(self, ds_deactivation):
        with pytest.raises(PreconditionError):
            simulate_flow(ds_deactivation, np.array([np.nan, 0.0, 0.0]))

    def test_nan_time_is_rejected(self, ds_deactivation, rng):
        tr = simulate_flow(ds_deactivation, small_cube_start(rng, 3))
        with pytest.raises(PreconditionError, match="nonnegative"):
            tr.at(np.nan)

    def test_a_stopped_run_has_no_point_past_its_end(self):
        # the run stops at t = 0.2, before datum 0 deactivates at t = 0.40:
        # past its end it would extrapolate a segment the full flow leaves
        ds = Dataset(x=np.array([[1.0, 0.3], [0.2, 1.0]]), y=np.array([-1.0, 1.0]))
        w0 = np.array([0.72, -1.0])
        tr = simulate_flow(ds, w0, t_max=0.2)
        full = simulate_flow(ds, w0)
        assert tr.terminal == "horizon"
        np.testing.assert_allclose(full.at(1.0), [0.22, -1.1], atol=1e-12)
        np.testing.assert_array_equal(tr.at(0.2), tr.terminal_point)
        # within the 1e-12 widening of its end, the last segment still answers
        np.testing.assert_array_equal(tr.at(0.2 * (1 + 1e-13)), tr.segments[-1].value_local(0.2 * (1 + 1e-13)))
        for t in (1.0, np.inf):
            with pytest.raises(PreconditionError, match="past the end of a run that ended horizon"):
                tr.at(t)
        # a run whose last segment is open to infinity reaches its limit
        np.testing.assert_array_equal(full.at(np.inf), full.terminal_point)

    def test_a_horizon_before_the_limit_stops_a_run_with_no_event(self):
        # x = I, y = (1, 2): from (0.5, 0.5) no datum ever reaches its boundary
        ds = Dataset(x=np.eye(2), y=np.array([1.0, 2.0]))
        w0 = np.array([0.5, 0.5])
        assert simulate_flow(ds, w0).terminal == "converged"
        tr = simulate_flow(ds, w0, t_max=1e-3)
        assert tr.terminal == "horizon" and tr.events == ()
        (seg,) = tr.segments
        assert seg.t_end == 1e-3
        np.testing.assert_array_equal(tr.terminal_point, seg.value_local(1e-3))
        np.testing.assert_allclose(tr.terminal_point, [1.0, 2.0] - np.array([0.5, 1.5]) * np.exp(-1e-3), rtol=1e-14)
        with pytest.raises(PreconditionError, match="past the end of a run that ended horizon"):
            tr.at(50.0)


class TestConvergenceBound:
    def test_rescaled_data_keep_a_stationary_limit_converged(self):
        # x scaled by 800 leaves roundoff of 2e-10 in the field at the limit,
        # 3e-17 of the data's scale: an absolute 1e-10 called it degenerate
        rng = np.random.default_rng(2)
        ds0 = random_dataset(rng, 3, 6)
        w0 = rng.normal(size=3)
        assert simulate_flow(ds0, w0).terminal == "converged"
        ds = Dataset(x=800.0 * ds0.x, y=ds0.y)
        tr = simulate_flow(ds, w0)
        assert tr.terminal == "converged"
        assert tr.segments[-1].held == ()
        xs = ds.x[:, tr.segments[-1].pattern.as_bool()]
        ys = ds.y[tr.segments[-1].pattern.as_bool()]
        field = np.linalg.norm(xs @ (xs.T @ tr.terminal_point - ys))
        assert 1e-10 < field <= flow_engine._converge_bound(ds, tr.terminal_point)


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
        assert seg.held == (0,)
        # the sliding segment stays on the boundary
        for tau in np.linspace(0.0, seg.local_horizon(), 9):
            w = seg.value_local(tau)
            assert abs(w @ ds.x[:, 0]) <= 1e-10

    @pytest.mark.parametrize(
        "x, y, w0, limit",
        [
            # zero gradient on the sliding boundary: only datum 0's exemption
            # from the clearance test certifies the limit
            ([[1.0, 1.0], [0.0, 1.0]], [-3.0, 1.0], [0.4, 0.1], [0.0, 1.0]),
            # the field with datum 0 excluded vanishes at the limit, and its
            # alignment rounds to +1e-15 instead of 0
            ([[-2.187, -0.384], [0.273, 0.313]], [-0.519, 2.199], [-0.136, 1.496], None),
        ],
        ids=["zero-gradient", "alignment-rounds-positive"],
    )
    def test_stationary_sliding_limit_is_converged(self, x, y, w0, limit):
        tr = simulate_flow(Dataset(x=np.array(x), y=np.array(y)), np.array(w0))
        assert tr.segments[-1].held == (0,)
        if limit is not None:
            np.testing.assert_allclose(tr.terminal_point, limit, atol=1e-8)
        assert tr.terminal == "converged"

    def test_sliding_limit_pushed_off_its_boundary_is_degenerate(self):
        # on the boundary of datum 0 the projected flow settles at (0, 0.88),
        # where the field with datum 0 excluded points off the boundary
        # (gm = 0.12 > 0): that limit is not held, so it is not certified
        ds = Dataset(
            x=np.array([[1.0, 1.0, 1.0], [0.0, 1.0, 0.5]]), y=np.array([-3.0, 1.0, 0.2])
        )
        seg = flow_engine._segment_from(ds, pattern_of(ds, [0.0, 0.5]), [0.0, 0.5], 0.0, (0,))
        np.testing.assert_allclose(seg.target, [0.0, 0.88], atol=1e-12)
        assert flow_engine._classify_limit(ds, seg) == "degenerate"

    @pytest.mark.parametrize(
        "x2, verdict",
        [((1.0, -1.0), "converged"), ((1.0, 1.0), "degenerate")],
        ids=["signs-agree", "datum-2-active-at-the-limit"],
    )
    def test_sliding_limit_must_match_the_segment_pattern(self, x2, verdict):
        # sliding on datum 0's boundary with only datum 1 active, the flow
        # settles at (0, 1), where the field of that pattern vanishes; a
        # datum 2 that is clearly active there makes the pattern wrong
        ds = Dataset(
            x=np.array([[1.0, 0.0, x2[0]], [0.0, 1.0, x2[1]]]), y=np.array([-1.0, 1.0, 0.0])
        )
        pattern = ActivationPattern((0, 1, 0))
        seg = flow_engine._segment_from(ds, pattern, np.array([0.0, 0.5]), 0.0, (0,))
        np.testing.assert_allclose(seg.target, [0.0, 1.0], atol=1e-12)
        assert flow_engine._classify_limit(ds, seg) == verdict

    def test_positive_labels_never_slide(self, rng):
        for _ in range(20):
            ds = random_a1a2a3(rng, 2, int(rng.integers(2, 7)))
            tr = simulate_flow(ds, rng.normal(size=2))
            assert all(e.kind in ("activation", "deactivation") for e in tr.events)


def mixed_sign_probe(seed, count=400):
    """Seeded flows with labels of both signs: d in [2, 4], n in [2, 7], normal x, y, w0."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        d, n = int(rng.integers(2, 5)), int(rng.integers(2, 8))
        x, y, w0 = rng.normal(size=(d, n)), rng.normal(size=n), rng.normal(size=d)
        yield Dataset(x=x, y=y), w0


class TestFaceRule:
    def test_two_data_held_at_once(self):
        # data 0 and 1 (y = -3) push w onto their boundaries, where the
        # field of data 2 and 3 pushes back: the flow holds one face, then both
        ds = Dataset(
            x=np.array([[1.0, 0.0, 1.0, 1.0], [0.0, 1.0, 1.0, 1.0], [0.0, 0.0, 1.0, 2.0]]),
            y=np.array([-3.0, -3.0, 2.0, 1.0]),
        )
        tr = simulate_flow(ds, np.array([0.4, 0.2, 0.5]))
        assert [(e.index, e.kind) for e in tr.events] == [(1, "sliding"), (0, "sliding")]
        assert tr.segments[-1].held == (0, 1)
        assert tr.terminal == "converged"
        # on the face w1 = w2 = 0 the limit minimizes (w3 - 2)^2 + (2 w3 - 1)^2
        np.testing.assert_allclose(tr.terminal_point, [0.0, 0.0, 0.8], atol=1e-12)
        assert segment_certificate(tr) == []

    def test_simultaneous_arrivals_log_one_event_each(self):
        # data 0 and 1 mirror each other across w1 = w2, so a start on that
        # plane brings both to their boundaries at one instant
        ds = Dataset(
            x=np.array([[-0.9, 1.8, 0.7], [1.8, -0.9, 0.7], [-0.5, -0.5, 1.0]]),
            y=np.array([0.8, 0.8, 3.5]),
        )
        tr = simulate_flow(ds, np.array([0.3, 0.3, 0.7]))
        assert [(e.index, e.kind) for e in tr.events] == [(0, "activation"), (1, "activation")]
        assert tr.events[0].t == tr.events[1].t
        # the instant between them is the face 101, which the flow never moves on
        faces = [(ev.before[0].to_string(), ev.after[0].to_string()) for ev in tr.events]
        assert faces == [("001", "101"), ("101", "111")]
        assert tr.events[0].after == tr.events[1].before
        assert [seg.pattern.to_string() for seg in tr.segments] == ["001", "111"]
        for pos, ev in enumerate(tr.events):
            ctx = crossing_context(ds, tr, pos)
            assert (ctx.index, ctx.rank_post) == (ev.index, ctx.rank_pre + 1)
        assert tr.terminal == "converged"
        assert pattern_of(ds, tr.terminal_point).bits == (1, 1, 1)
        assert segment_certificate(tr) == []

    def test_last_deactivation_into_the_dead_cone_converges(self):
        # datum 0 (y = -1) pulls w across its own boundary, where nothing is
        # active any more; the limit's clearance on datum 0 rounds to +5e-17
        ds = Dataset(x=np.array([[1.0, 0.3], [0.2, 1.0]]), y=np.array([-1.0, 1.0]))
        tr = simulate_flow(ds, np.array([0.72, -1.0]))
        assert [(e.index, e.kind) for e in tr.events] == [(0, "deactivation")]
        assert tr.segments[-1].pattern.bits == (0, 0)
        np.testing.assert_allclose(tr.terminal_point, [0.22, -1.1], atol=1e-12)
        assert tr.terminal == "converged"

    def test_a_dependent_held_set_is_refused(self):
        # data 0 and 1 are parallel with y = -1 and reach their common boundary
        # together; holding both would be a dependent face, so one is held
        ds = Dataset(
            x=np.array([[1.0, 2.0, 0.0, 1.0], [0.0, 0.0, 1.0, 1.0]]),
            y=np.array([-1.0, -1.0, 1.0, 2.0]),
        )
        tr = simulate_flow(ds, np.array([0.5, 0.2]))
        last = tr.segments[-1]
        assert len(last.held) == 1 and last.pattern.bits[:2] == (0, 0)
        assert tr.terminal == "converged"
        np.testing.assert_allclose(tr.terminal_point, [0.0, 1.5], atol=1e-12)
        assert segment_certificate(tr) == []

    def test_nine_negative_labels_meet_at_the_origin(self):
        # the flow holds datum 3's boundary, a line through the origin, down
        # to the origin, where all nine boundaries meet: too many data to try
        # every assignment, the preferred one is inconsistent, all go off
        rng = np.random.default_rng((31, 99))
        d, n = int(rng.integers(2, 6)), int(rng.integers(2, 10))
        x, y, w0 = rng.normal(size=(d, n)), rng.normal(size=n), rng.normal(size=d)
        ds = Dataset(x=x, y=-np.abs(y))
        tr = simulate_flow(ds, w0)
        assert (ds.d, ds.n) == (2, 9)
        assert tr.segments[3].held == (3,)
        # datum 3 stays held until the events at the origin let it go
        assert [ev.before[1] for ev in tr.events[3:5]] == [(3,), (3,)]
        assert (tr.events[4].index, tr.events[4].after[1]) == (3, ())
        np.testing.assert_allclose(tr.events[3].point, [0.0, 0.0], atol=1e-12)
        assert tr.segments[-1].pattern.bits == (0,) * 9 and tr.segments[-1].held == ()
        assert tr.terminal == "converged"
        np.testing.assert_allclose(tr.terminal_point, [0.0, 0.0], atol=1e-12)
        assert segment_certificate(tr) == []

    def test_a_tangency_with_no_consistent_change_raises(self):
        # datum 1 (y < 0) is parallel to datum 0 and reaches its boundary
        # from the active side with that side's field tangent to it: staying
        # on is consistent, but an event that changes nothing would repeat,
        # and neither going off nor being held is consistent
        rng = np.random.default_rng((31, 1781))
        d, n = int(rng.integers(2, 6)), int(rng.integers(2, 10))
        x, y, w0 = rng.normal(size=(d, n)), rng.normal(size=n), rng.normal(size=d)
        x[:, 1] = x[:, 0] * rng.uniform(-2, 2)
        with pytest.raises(NumericalError, match=r"no consistent state for data \[1\]"):
            simulate_flow(Dataset(x=x, y=y), w0)

    def test_mixed_sign_probe_is_certified(self):
        # labels of both signs make flows hold faces, pass the origin and
        # release in the middle of a segment; draws 22, 93, 286 and 347 once
        # dropped simultaneous events, rode a boundary against the field or
        # crossed a boundary unseen
        verdicts = {}
        for i, (ds, w0) in enumerate(mixed_sign_probe(5)):
            tr = simulate_flow(ds, w0)
            verdicts.setdefault(tr.terminal, []).append(i)
            assert segment_certificate(tr) == [], i
        assert len(verdicts.get("degenerate", [])) <= 3
        assert {22, 93, 286, 347} <= set(verdicts["converged"])


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

    def test_descent_events_are_the_pattern_flips_of_its_iterates(self, ds_reactivation):
        run = simulate_gd(ds_reactivation, np.array([1e-4, 5e-5, 8e-5]), lr=0.005, iters=6000)
        bits = [pattern_of(ds_reactivation, w).bits for w in run.iterates]
        flips = [
            (k * 0.005, j, "activation" if b[j] else "deactivation")
            for k, (a, b) in enumerate(zip(bits, bits[1:]), start=1)
            for j in range(len(a))
            if a[j] != b[j]
        ]
        assert [(e.t, e.index, e.kind) for e in run.events] == flips
        assert [e.kind for e in run.events] == ["deactivation", "activation"]
        # each event joins the strict-sign faces of the iterates before and after its step
        for ev in run.events:
            k = round(ev.t / 0.005)
            assert ev.before == (pattern_of(ds_reactivation, run.iterates[k - 1]), ())
            assert ev.after == (pattern_of(ds_reactivation, run.iterates[k]), ())
            np.testing.assert_array_equal(ev.point, run.iterates[k])
        assert revisit_report(run) == (3,)

    def test_a_descent_is_sampled_up_to_its_last_iterate(self, ds_reactivation):
        w0 = np.array([1e-4, 5e-5, 8e-5])
        # 3,000 is no multiple of the stride 3001 // 400 = 7: the last iterate is appended
        run = simulate_gd(ds_reactivation, w0, lr=0.005, iters=3000)
        rows = sample_trajectory(run, 400)
        assert [t for t, _ in rows] == [k * 0.005 for k in range(0, 3000, 7)] + [15.0]
        assert rows[-1][0] == 15.0 and np.array_equal(rows[-1][1], run.terminal_point)
        # 2,800 is a multiple of its stride 7: its last sampled iterate is the last, and is not repeated
        run = simulate_gd(ds_reactivation, w0, lr=0.005, iters=2800)
        assert [t for t, _ in sample_trajectory(run, 400)] == [k * 0.005 for k in range(0, 2801, 7)]

    def test_descent_start_is_checked_like_the_exact_engines(self, ds_deactivation):
        with pytest.raises(PreconditionError):
            simulate_gd(ds_deactivation, [np.nan, 1.0, 0.0], 0.01, 5)
        with pytest.raises(StructuralError):
            simulate_gd(ds_deactivation, [1.0, 0.0], 0.01, 5)
        for lr in (0.0, -0.01, np.inf):
            with pytest.raises(PreconditionError):
                simulate_gd(ds_deactivation, [1.0, 0.0, 0.0], lr, 5)
        with pytest.raises(StructuralError):
            simulate_gd(ds_deactivation, [1.0, 0.0, 0.0], 0.01, -1)
        assert len(simulate_gd(ds_deactivation, [1.0, 0.0, 0.0], 0.01, 0).iterates) == 1

    def test_a_descent_that_overflows_is_refused(self, ds_showcase):
        # a step of 1e300 overflows at the second iterate: a typed error, with no
        # numpy warning and no run of inf and nan iterates
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="^descent left the finite range at iteration 2$"):
                simulate_gd(ds_showcase, [0.3, 0.3], 1e300, 50)

    def test_negative_time_is_rejected_like_the_exact_engine(self, ds_deactivation):
        run = simulate_gd(ds_deactivation, [1.0, 0.0, 0.0], 0.01, 20)
        np.testing.assert_array_equal(run.at(0.0), run.iterates[0])
        with pytest.raises(PreconditionError, match="nonnegative"):
            run.at(-0.1)

    def test_nan_time_is_rejected(self, ds_deactivation):
        run = simulate_gd(ds_deactivation, [1.0, 0.0, 0.0], 0.01, 20)
        with pytest.raises(PreconditionError, match="nonnegative"):
            run.at(np.nan)

    def test_infinite_time_is_the_last_iterate(self, ds_deactivation):
        # as Trajectory.at(inf) is the limit
        run = simulate_gd(ds_deactivation, [1.0, 0.0, 0.0], 0.01, 20)
        np.testing.assert_array_equal(run.at(np.inf), run.iterates[-1])
        np.testing.assert_array_equal(run.at(1e308), run.iterates[-1])

    def test_fractional_iteration_count_is_rejected(self, ds_deactivation):
        for iters in (True, 2.5, "3"):
            with pytest.raises(StructuralError, match="iters must be a nonnegative integer"):
                simulate_gd(ds_deactivation, [1.0, 0.0, 0.0], 0.01, iters)
        assert len(simulate_gd(ds_deactivation, [1.0, 0.0, 0.0], 0.01, np.int64(3)).iterates) == 4


class TestTrajectoryCsv:
    """The batched writer against the per-row oracle, byte for byte.

    The writer's stacked ``matmul`` products must round exactly as the
    per-row products do; a numpy whose stacked kernels sum in another
    order fails here first.
    """

    @staticmethod
    def assert_matches_oracle(tr):
        text = trajectory_to_csv(tr)
        assert text == trajectory_csv(tr)
        return [line.rsplit(",", 1)[1] for line in text.splitlines()[1:]]

    def test_exact_flow_with_pattern_changes(self, ds_reactivation):
        tr = simulate_flow(ds_reactivation, np.array([1e-4, 5e-5, 8e-5]))
        assert [e.kind for e in tr.events] == ["deactivation", "activation"]
        assert {"1111", "1110"} <= set(self.assert_matches_oracle(tr))

    def test_mixed_sign_flow_with_held_segments(self):
        ds = Dataset(
            x=np.array([[1.0, 0.0, 1.0, 1.0], [0.0, 1.0, 1.0, 1.0], [0.0, 0.0, 1.0, 2.0]]),
            y=np.array([-3.0, -3.0, 2.0, 1.0]),
        )
        tr = simulate_flow(ds, np.array([0.4, 0.2, 0.5]))
        assert [seg.held for seg in tr.segments] == [(), (1,), (0, 1)]
        self.assert_matches_oracle(tr)

    def test_simultaneous_events_write_no_row_between_them(self):
        # the flow of TestFaceRule::test_simultaneous_arrivals_log_one_event_each
        # passes the face 101 in no time, so no row lies on it
        ds = Dataset(
            x=np.array([[-0.9, 1.8, 0.7], [1.8, -0.9, 0.7], [-0.5, -0.5, 1.0]]),
            y=np.array([0.8, 0.8, 3.5]),
        )
        pats = self.assert_matches_oracle(simulate_flow(ds, np.array([0.3, 0.3, 0.7])))
        assert set(pats) == {"001", "111"}

    def test_flow_cut_by_the_horizon(self, ds_reactivation):
        tr = simulate_flow(ds_reactivation, np.array([1e-4, 5e-5, 8e-5]), t_max=10.0)
        assert tr.terminal == "horizon" and len(tr.segments) == 2
        self.assert_matches_oracle(tr)

    def test_linear_flow(self, ds_deactivation):
        tr = simulate_linear_flow(ds_deactivation, np.array([1e-4, 5e-5, 8e-5]))
        assert set(self.assert_matches_oracle(tr)) == {"111"}

    def test_descent_run(self, ds_deactivation):
        run = simulate_gd(ds_deactivation, np.array([1e-4, 5e-5, 8e-5]), lr=0.005, iters=3000)
        assert run.events
        self.assert_matches_oracle(run)

    def test_flow_into_the_all_inactive_pattern(self):
        # each coordinate decays to -1 and stops at 0, where its datum turns off
        ds = Dataset(x=np.eye(2), y=np.array([-1.0, -1.0]))
        tr = simulate_flow(ds, np.array([1.0, 3.0]))
        assert [seg.pattern.to_string() for seg in tr.segments] == ["11", "01", "00"]
        np.testing.assert_array_equal(tr.terminal_point, [0.0, 0.0])
        assert self.assert_matches_oracle(tr)[-1] == "00"

    def test_rows_read_their_segment_not_the_roundoff_sign(self):
        # after t = 0.403 datum 0 sits on its boundary with x_0 . w = +5e-17
        # of roundoff; its strict sign reads 10, the segment is 00
        ds = Dataset(x=np.array([[1.0, 0.3], [0.2, 1.0]]), y=np.array([-1.0, 1.0]))
        tr = simulate_flow(ds, np.array([0.72, -1.0]))
        assert [seg.pattern.to_string() for seg in tr.segments] == ["10", "00"]
        pats = self.assert_matches_oracle(tr)
        assert len(pats) == 401
        assert pats == ["10"] * 200 + ["00"] * 201
        assert pattern_of(ds, tr.terminal_point).to_string() == "10"


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


def adversarial_flow(rng, kind):
    """A seeded (dataset, start) pair of one kind of the event-search mix."""
    d = int(rng.integers(2, 6))
    n = int(rng.integers(2, 10))
    x = rng.uniform(0.05, 1.0, size=(d, n))
    y = rng.uniform(0.1, 3.0, n)
    w0 = rng.normal(size=d)
    if kind == "mixed-sign":
        x, y = rng.normal(size=(d, n)), rng.normal(size=n)
    elif kind == "scaled":
        scale = 10.0 ** rng.uniform(-6.0, 6.0)
        x, w0 = x * scale, w0 / scale
    elif kind == "column-scales":
        x = x * 10.0 ** rng.uniform(-3.0, 3.0, n)
    elif kind in ("parallel", "near-parallel"):
        x[:, 1] = x[:, 0] * rng.uniform(0.5, 2.0)
        if kind == "near-parallel":
            x[:, 1] += 1e-9 * rng.normal(size=d)
    return Dataset(x=x, y=y), w0


def flow_outcome(ds, w0):
    """Events, verdict and terminal point of a flow, or the error type it raised."""
    try:
        tr = simulate_flow(ds, w0)
    except ReluFlowError as err:
        return type(err)
    events = [(e.index, e.kind, e.t, e.point.tolist()) for e in tr.events]
    return events, tr.terminal, tr.terminal_point.tolist()


class TestBoundedEventSearch:
    @staticmethod
    def both_ways(monkeypatch, cases):
        bounded = [flow_outcome(ds, w0) for ds, w0 in cases]
        with monkeypatch.context() as patch:
            patch.setattr(flow_engine, "_next_event", next_event_exhaustive)
            exhaustive = [flow_outcome(ds, w0) for ds, w0 in cases]
        return bounded, exhaustive

    def test_matches_the_exhaustive_scan(self, monkeypatch):
        # the pruned search must pick bitwise the same events as isolating
        # every datum in full, on every kind of degenerate input, and on
        # batches of 32 and 80 gaps, where no row may depend on the others
        rng = np.random.default_rng(11)
        kinds = ("positive", "mixed-sign", "scaled", "column-scales", "parallel", "near-parallel")
        cases = [adversarial_flow(rng, kind) for kind in kinds for _ in range(12)]
        for seed in range(3):
            wide = np.random.default_rng((19, 8, 32, seed))
            cases.append((random_dataset(wide, 8, 32), wide.normal(size=8)))
        wide = np.random.default_rng((19, 20, 80))
        cases.append((random_dataset(wide, 20, 80), wide.normal(size=20)))
        bounded, exhaustive = self.both_ways(monkeypatch, cases)
        assert bounded == exhaustive
        kinds_seen = {e[1] for out in bounded if isinstance(out, tuple) for e in out[0]}
        assert "sliding" in kinds_seen
        assert sum(len(out[0]) for out in bounded[-4:]) >= 80

    @pytest.mark.parametrize("draw, missed", [(746, (1, "deactivation")), (1561, (0, "deactivation"))])
    def test_a_gap_that_cancels_to_roundoff_is_not_missed(self, monkeypatch, draw, missed):
        # a datum parallel to a held one has a gap of about 1e-15: its bound
        # must come from the same bits as its isolation, or its crossing is lost
        x, y, w0 = stress_draw(draw)
        bounded, exhaustive = self.both_ways(monkeypatch, [(Dataset(x=x, y=y), w0)])
        assert bounded == exhaustive
        events, terminal, _ = bounded[0]
        assert terminal == "converged"
        assert missed in [(index, kind) for index, kind, *_ in events]

    def test_isolates_far_fewer_gaps(self, monkeypatch):
        rng = np.random.default_rng(5)
        ds = Dataset(x=rng.uniform(0.05, 1.0, size=(6, 24)), y=rng.uniform(0.1, 3.0, 24))
        w0 = rng.normal(size=6)
        calls = {"n": 0}
        isolate = RootBatch.roots

        def counted(batch, k):
            calls["n"] += 1
            return isolate(batch, k)

        monkeypatch.setattr(RootBatch, "roots", counted)
        tr = simulate_flow(ds, w0)
        assert tr.terminal == "converged"
        # the exhaustive scan isolates all n gaps in every segment
        assert calls["n"] < 0.5 * ds.n * len(tr.segments)

    def test_batched_gaps_are_bitwise_the_observables(self):
        rng = np.random.default_rng((19, 20, 80))
        ds = random_dataset(rng, 20, 80)
        tr = simulate_flow(ds, rng.normal(size=20))
        for seg in tr.segments[:6]:
            consts, coeffs = seg.observables(ds.x.T)
            batch = RootBatch(seg.eigenvalues, coeffs, consts)
            for k in range(ds.n):
                f = seg.observable(ds.x[:, k])
                assert consts[k] == f.c
                if np.all(batch.coeffs[k]):
                    np.testing.assert_array_equal(batch.coeffs[k], f.coeffs)
                    assert batch.lower[k] == RootBatch(f.rates, f.coeffs, [f.c]).lower[0]
                assert batch.roots(k) == f.roots()


class TestHighRankEvents:
    """Crossings of 16-term gaps with rates spread over three decades.

    A derivative recursion loses critical points on such gaps, and with
    them crossings: these flows once went on with a datum on the wrong
    side of its boundary and ended ``degenerate``.
    """

    @staticmethod
    def crossing(tr, k):
        ev = tr.events[k]
        return ev.index, ev.kind, ev.t - tr.segments[k].t_start

    def test_a_crossing_early_in_a_short_segment(self):
        # datum 17 crosses 0.0012 into a segment that lasts 0.0013
        rng = np.random.default_rng((41, 20, 80))
        for _ in range(5):
            ds = random_dataset(rng, 20, 80)
            w0 = rng.normal(size=20)
        tr = simulate_flow(ds, w0)
        assert tr.terminal == "converged"
        index, kind, tau = self.crossing(tr, 12)
        assert (index, kind) == (17, "activation")
        assert tau == pytest.approx(0.0011951850, rel=1e-6)
        assert segment_certificate(tr) == []

    def test_a_crossing_near_the_segment_start(self):
        ds = random_dataset(np.random.default_rng(0), 20, 80)
        starts = np.random.default_rng(1)
        for _ in range(5):
            w0 = starts.normal(size=20)
        tr = simulate_flow(ds, w0)
        assert tr.terminal == "converged"
        index, kind, tau = self.crossing(tr, 4)
        assert (index, kind) == (1, "activation")
        assert tau == pytest.approx(2.0174687e-4, rel=1e-6)
        assert segment_certificate(tr) == []

    def test_survey_keeps_every_datum_on_its_side(self):
        rng = np.random.default_rng((41, 20, 40))
        for draw in range(30):
            ds = random_dataset(rng, 20, 40)
            tr = simulate_flow(ds, rng.normal(size=20))
            assert segment_certificate(tr) == [], draw


@st.composite
def ill_conditioned_sums(draw):
    """Rows sharing near-equal rates, near-cancelling terms and c near -sum(a)."""
    r = draw(st.integers(1, 4))
    base = draw(st.floats(1e-3, 1e3))
    spread = draw(st.sampled_from([1e-10, 1e-8, 1e-4, 1.0]))
    rates = base * (1.0 + np.array(draw(st.lists(st.floats(0.0, spread), min_size=r, max_size=r))))
    # a fast rate far above the cluster makes ExpSum merge the cluster's rates
    rates[-1] *= draw(st.sampled_from([1.0, 1.0, 1e4, 1e6]))
    rows = draw(st.integers(1, 4))
    unit = st.floats(-1.0, 1.0)
    coeffs = np.array(draw(st.lists(unit, min_size=rows * r, max_size=rows * r))).reshape(rows, r)
    if r > 1 and draw(st.booleans()):
        coeffs[:, 1] = -coeffs[:, 0] * (1.0 + draw(st.floats(-1e-8, 1e-8)))
    consts = -coeffs.sum(axis=1)
    consts += np.array(draw(st.lists(st.floats(-1e-12, 1e-12), min_size=rows, max_size=rows)))
    consts += draw(st.sampled_from([0.0, 0.0, 0.3, -0.7])) * np.array(
        draw(st.lists(unit, min_size=rows, max_size=rows))
    )
    return rates, coeffs, consts


@st.composite
def wide_ill_conditioned_batches(draw):
    """96 to 128 rows over up to 20 shared rates, of the kinds of
    ``ill_conditioned_sums``: near-equal rates, near-cancelling terms,
    c near -sum(a), and every fifth row with c == 0."""
    r = draw(st.integers(1, 20))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spread = draw(st.sampled_from([1e-10, 1e-8, 1e-4, 1.0]))
    rates = draw(st.floats(1e-3, 1e3)) * (1.0 + spread * rng.uniform(size=r))
    rates[-1] *= draw(st.sampled_from([1.0, 1.0, 1e4, 1e6]))
    rows = draw(st.integers(96, 128))
    coeffs = rng.uniform(-1.0, 1.0, (rows, r))
    if r > 1:
        coeffs[::2, 1] = -coeffs[::2, 0] * (1.0 + rng.uniform(-1e-8, 1e-8, coeffs[::2].shape[0]))
    consts = -coeffs.sum(axis=1) + rng.uniform(-1e-12, 1e-12, rows)
    consts += draw(st.sampled_from([0.0, 0.3, -0.7])) * rng.uniform(-1.0, 1.0, rows)
    consts[::5] = 0.0
    return rates, coeffs, consts


class TestGapBounds:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(ill_conditioned_sums())
    def test_bound_never_passes_the_first_root(self, case):
        rates, coeffs, consts = case
        batch = RootBatch(rates, coeffs, consts)
        for k, (bound, a, c) in enumerate(zip(batch.lower, coeffs, consts)):
            roots = ExpSum(c, a, rates).roots()
            if roots:
                assert bound <= roots[0].t
            if np.isinf(bound):
                assert roots == []
            assert batch.roots(k) == roots

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(ill_conditioned_sums())
    def test_roots_match_the_oracle(self, case):
        rates, coeffs, consts = case
        for a, c in zip(coeffs, consts):
            assert_matches_oracle(ExpSum(c, a, rates))

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.one_of(ill_conditioned_sums(), wide_ill_conditioned_batches()))
    def test_each_row_is_bitwise_its_own_batch(self, case):
        # a row's enclosure, cells and bound are the same whether it is alone
        # or one of a hundred: a plain gemm would differ in the last bits
        rates, coeffs = _merge(*case[:2])
        consts = case[2]
        edges = _grid(rates)
        clear = _clearance(rates, coeffs, consts, edges)
        batch = RootBatch(*case)
        for k in range(consts.size):
            row, c = coeffs[k : k + 1].copy(), consts[k : k + 1].copy()
            np.testing.assert_array_equal(_clearance(rates, row, c, edges), clear[k : k + 1])
            single = RootBatch(case[0], case[1][k : k + 1].copy(), c)
            np.testing.assert_array_equal(single.free[0], batch.free[k])
            assert single.lower[0] == batch.lower[k]

    @staticmethod
    def assert_flags_are_the_oracles(rates, coeffs, consts):
        # each row in turn as an f, f' and f'' row against its slack, and the
        # batch's own rows; the oracle takes the nested form on every cell
        batch = RootBatch(rates, coeffs, consts)
        rates, coeffs = _merge(np.asarray(rates, dtype=float), np.asarray(coeffs, dtype=float))
        consts = np.asarray(consts, dtype=float)
        edges = _grid(rates)
        slacks = np.resize(_SLACKS, (consts.size, 1))
        want = clearance_both_forms(rates, coeffs, consts, edges) > slacks
        np.testing.assert_array_equal(_clearance(rates, coeffs, consts, edges) > slacks, want)
        rows, row_consts = batch.rows.reshape(-1, rates.size), batch.row_consts.ravel()
        want = clearance_both_forms(rates, rows, row_consts, edges).reshape(consts.size, 3, -1) > _SLACKS
        np.testing.assert_array_equal(batch.free, want)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.one_of(ill_conditioned_sums(), wide_ill_conditioned_batches()))
    def test_flags_are_the_two_form_oracles(self, case):
        self.assert_flags_are_the_oracles(*case)

    @pytest.mark.parametrize(
        "rates, coeffs, consts",
        [
            ([2.0], [[1.0], [-1.0], [0.5], [1e-3]], [-0.5, 1.0, 0.0, -1e-3]),  # r = 1
            ([1.0, 1.0 + 1e-9, 3.0], [[1.0, -1.0, 0.2], [-0.3, 0.3, 1e-6], [0.5, 0.5, -2.0]], [0.0, 0.0, 0.0]),
            ([1.0, 2.0], [[1.0, 1.0], [-1.0, 0.5], [0.2, -0.1]], [0.5, 2.0, 1.0]),  # no pair for the nested form
        ],
        ids=["one-rate", "zero-constants", "no-open-pair"],
    )
    def test_flags_are_the_oracles_at_one_rate_and_zero_constants(self, rates, coeffs, consts):
        self.assert_flags_are_the_oracles(rates, coeffs, consts)

    def test_the_nested_form_decides_a_cell_the_term_by_term_bound_leaves_in_the_slack(self):
        # 5e-6 + e^{-t} - 1.000001 e^{-1.0001 t} > 0: on cell 3 the term-by-term
        # bound clears 0 by only 8.3e-10, within the slack; the nested form by 4e-6
        rates, coeffs, consts = np.array([1.0, 1.0001]), np.array([[1.0, -1.000001]]), np.array([5e-6])
        edges = _grid(rates)
        right, left = np.exp(-np.multiply.outer(rates, edges[1:])), np.exp(-np.multiply.outer(rates, edges[:-1]))
        pos, neg = np.maximum(coeffs, 0.0), np.minimum(coeffs, 0.0)
        term_by_term = np.maximum(consts + pos @ right + neg @ left, -(consts + pos @ left + neg @ right))[0, 3]
        assert 0.0 < term_by_term <= BOUND_SLACK_RTOL
        assert _clearance(rates, coeffs, consts, edges)[0, 3] > BOUND_SLACK_RTOL
        self.assert_flags_are_the_oracles(rates, coeffs, consts)

    def test_a_row_with_a_vanishing_term_is_isolated_on_its_own_grid(self):
        # without its fastest term row 0's grid starts later, so its cells,
        # and the last bits of its polished root, differ from the shared grid's
        rates = [0.3131566165480873, 0.9176186079075358, 3.748695896449923, 7.0725813055996785]
        coeffs = [
            [-0.291720232439864, 0.8825389674564839, 0.5803500161908991, 0.0],
            [0.6701043548284794, -2.8281623068437627, 1.02130681750008, -0.9596447598081417],
        ]
        consts = [-0.8343099213279848, 0.13822287976049982]
        batch = RootBatch(rates, coeffs, consts)
        for k in range(2):
            assert batch.roots(k) == ExpSum(consts[k], coeffs[k], rates).roots()
        assert [r.t for r in batch.roots(0)] == [pytest.approx(0.143150994657348, rel=1e-13)]

    def test_bound_is_infinite_when_the_sign_never_changes(self):
        bounds = RootBatch([2.0, 1.0], [[1.0, 1.0], [-1.0, 0.5]], [0.5, 2.0]).lower
        assert np.all(np.isinf(bounds))

    def test_bound_brackets_a_known_root(self):
        # 1 - 2 exp(-t) vanishes at log 2; the bound is the left end of the
        # doubling cell that holds it
        bound = RootBatch([1.0], [[-2.0]], [1.0]).lower[0]
        assert np.log(2.0) / 2.0 < bound <= np.log(2.0)

    def test_no_rates_means_no_zeros(self):
        batch = RootBatch(np.zeros(0), np.zeros((3, 0)), [1.0, 0.0, -1.0])
        assert np.isinf(batch.lower).all()
        assert [batch.roots(k) for k in range(3)] == [[], [], []]
