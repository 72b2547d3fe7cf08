"""Initialization certificates: scaling thresholds, activation protection,
minimum exclusion, and the boundary-crossing condition reports."""

import dataclasses
import json

import numpy as np
import pytest

from reluflow.campaigns import realizable_dataset
from reluflow.criteria import (
    alpha_star,
    bad_minimum_exclusion,
    check_B_conditions,
    cosine_form,
    crossing_context,
    no_deactivation_certificate,
)
from reluflow.dataset import Dataset
from reluflow.errors import DegenerateDirectionError, PreconditionError, ReluFlowError, StructuralError
from reluflow.flow import simulate_flow, simulate_linear_flow
from reluflow.geometry import active_matrices, pattern_of
from reluflow.landscape import gradient, linear_least_squares, minima_census

from oracles import lstsq_minnorm
from snapshot_outputs import stress_draw


def realizable(rng, d=3, n=5):
    w_gm = rng.uniform(0.2, 1.5, d)
    x = rng.uniform(0.05, 1.0, size=(d, n))
    return Dataset(x=x, y=x.T @ w_gm), w_gm


class TestAlphaStar:
    def test_single_datum_threshold_is_one(self):
        ds = Dataset(x=np.array([[2.0], [1.0]]), y=np.array([5.0]))
        w0 = np.array([2.0, 1.0])  # x . w0 = 5 = y
        assert alpha_star(ds, w0, 0) == pytest.approx(1.0, rel=1e-12)

    def test_gradient_alignment_vanishes_at_threshold(self, ds_showcase):
        w0 = np.array([0.3, 0.4])  # inside the all-activated cone
        for j in range(ds_showcase.n):
            a = alpha_star(ds_showcase, w0, j)
            xj = ds_showcase.x[:, j]
            value = float(gradient(ds_showcase, a * w0) @ xj)
            assert abs(value) <= 1e-10 * max(1.0, abs(a))

    def test_sign_scan_around_threshold(self, ds_showcase):
        # oracle: directly scan the gradient alignment on both sides
        w0 = np.array([0.5, 0.2])
        for j in range(ds_showcase.n):
            a_star = alpha_star(ds_showcase, w0, j)
            xj = ds_showcase.x[:, j]
            for alpha in np.linspace(0.5 * a_star, 2.0 * a_star, 21):
                if abs(alpha - a_star) <= 1e-10 * max(1.0, a_star):
                    continue
                aligned = float(gradient(ds_showcase, alpha * w0) @ xj) >= 0.0
                # the pattern must not change along the scanned ray
                if pattern_of(ds_showcase, alpha * w0) != pattern_of(ds_showcase, w0):
                    continue
                assert aligned == (alpha >= a_star)

    def test_iff_contract_on_random_probes(self, rng):
        checked = 0
        while checked < 200:
            ds, _ = realizable(rng)
            w0 = rng.uniform(0.1, 1.0, 3)  # positive orthant: all activated
            j = int(rng.integers(ds.n))
            hmat, _ = active_matrices(ds, pattern_of(ds, w0))
            if float(ds.x[:, j] @ (hmat @ w0)) <= 1e-8:
                continue
            a_star = alpha_star(ds, w0, j)
            alpha = float(rng.uniform(0.1, 3.0) * max(a_star, 0.1))
            if abs(alpha - a_star) <= 1e-10 * max(1.0, a_star):
                continue
            if pattern_of(ds, alpha * w0) != pattern_of(ds, w0):
                continue
            aligned = float(gradient(ds, alpha * w0) @ ds.x[:, j]) >= 0.0
            assert aligned == (alpha >= a_star)
            checked += 1

    def test_degenerate_direction_is_rejected(self):
        ds = Dataset(x=np.array([[1.0, 0.0], [0.0, 1.0]]), y=np.array([1.0, 1.0]))
        w0 = np.array([0.0, -1.0])  # only the second datum is... none active
        with pytest.raises(DegenerateDirectionError):
            alpha_star(ds, w0, 0)

    def test_threshold_scales_with_the_data(self):
        # x scaled by s and y by s^2 scale the threshold by s exactly; at
        # s = 1e-5 the denominator x_0 . H w0 is 2e-15, small but not zero
        x = np.array([[1.0, 0.2, 0.5], [0.3, 1.0, 0.4]])
        y, w0, s = np.array([1.0, 2.0, 0.5]), np.array([0.7, 0.9]), 1e-5
        unit = alpha_star(Dataset(x=x, y=y), w0, 0)
        assert alpha_star(Dataset(x=s * x, y=s**2 * y), w0, 0) == pytest.approx(s * unit, rel=1e-12)


class TestNoDeactivationCertificate:
    def test_reference_start_certifies_everything(self, rng):
        ds, w_gm = realizable(rng)
        for j in range(ds.n):
            assert no_deactivation_certificate(ds, w_gm, w_gm, j)

    def test_zero_start_reduces_to_reference_norm(self, rng):
        ds, w_gm = realizable(rng)
        # at w0 = 0 no datum is strictly activated, so the certificate's
        # activation precondition fails; the norm comparison itself is
        # exposed through a start infinitesimally inside the cone
        w0 = 1e-12 * w_gm
        for j in range(ds.n):
            expected = float(ds.y[j]) / float(np.linalg.norm(ds.x[:, j])) > float(
                np.linalg.norm(w0 - w_gm)
            )
            assert no_deactivation_certificate(ds, w0, w_gm, j) == expected

    @pytest.mark.parametrize("scale", [1e-6, 1e6])
    def test_interpolation_is_judged_relative_to_the_labels(self, scale):
        # three data in d = 2 have no interpolant: at every scale the least-squares
        # reference keeps 3.4% of the loss at the origin, 0.5 |y|^2, and is refused
        x = np.array([[1.0, 0.2, 0.5], [0.3, 1.0, 0.4]])
        ds = Dataset(x=x, y=scale * np.array([1.0, 2.0, 0.5]))
        w_gm, _ = linear_least_squares(ds)
        with pytest.raises(PreconditionError, match="not interpolating"):
            no_deactivation_certificate(ds, w_gm + 1e-9, w_gm, 0)
        # the first two data are interpolated, and still are by a point 1e-7 off relative
        two = Dataset(x=x[:, :2], y=ds.y[:2])
        w_two = np.linalg.solve(x[:, :2].T, two.y) * (1 + 1e-7)
        assert no_deactivation_certificate(two, w_two, w_two, 0)

    def test_certified_data_never_deactivate(self, rng):
        for _ in range(25):
            ds, w_gm = realizable(rng)
            radius = float(np.max(ds.y / np.linalg.norm(ds.x, axis=0)))
            w0 = w_gm + radius * rng.uniform(0.0, 2.0) * rng.normal(size=3)
            certified = [
                j
                for j in range(ds.n)
                if float(ds.x[:, j] @ w0) > 0.0
                and no_deactivation_certificate(ds, w0, w_gm, j)
            ]
            tr = simulate_flow(ds, w0)
            dropped = {e.index for e in tr.events if e.kind == "deactivation"}
            assert not (dropped & set(certified))

    def test_all_certified_implies_linear_coincidence(self, rng):
        for _ in range(10):
            ds, w_gm = realizable(rng)
            ball = 0.5 * float(np.min(ds.y / np.linalg.norm(ds.x, axis=0)))
            w0 = w_gm + ball * rng.uniform(0.0, 0.9) * rng.normal(size=3) / np.sqrt(3)
            if not all(
                float(ds.x[:, j] @ w0) > 0.0
                and no_deactivation_certificate(ds, w0, w_gm, j)
                for j in range(ds.n)
            ):
                continue
            tr = simulate_flow(ds, w0)
            lin = simulate_linear_flow(ds, w0)
            assert tr.events == ()
            horizon = tr.segments[-1].t_start + tr.segments[-1].local_horizon()
            for t in np.linspace(0.0, horizon, 40):
                assert np.linalg.norm(tr.at(t) - lin.at(t)) <= 1e-8

    def test_preconditions(self, rng):
        ds, w_gm = realizable(rng)
        with pytest.raises(PreconditionError):
            no_deactivation_certificate(ds, w_gm, w_gm + 1.0, 0)  # not interpolating
        assert no_deactivation_certificate(ds, -w_gm, w_gm, 0) is None  # datum not activated


class TestBadMinimumExclusion:
    def test_reference_start_excludes_every_partial_minimum(self, rng):
        ds, w_gm = realizable(rng)
        census = minima_census(ds)
        excluded = set(bad_minimum_exclusion(ds, w_gm, w_gm, census))
        for i, support in enumerate(census.support_sets):
            if len(support) < ds.n:
                assert i in excluded
            else:
                assert i not in excluded  # vacuous: nothing outside the support

    def test_a_ratio_equal_to_the_distance_protects_nothing(self):
        # datum 0's ratio 1 ties the distance |w0 - w_gm| = 1; datum 1's ratio 2 exceeds it
        ds = Dataset(x=np.eye(2), y=np.array([1.0, 2.0]))
        w_gm, w0 = np.array([1.0, 2.0]), np.array([1.0, 1.0])
        assert not no_deactivation_certificate(ds, w0, w_gm, 0)
        assert no_deactivation_certificate(ds, w0, w_gm, 1)
        census = minima_census(ds)
        assert [m.pattern.to_string() for m in census.minima] == ["01", "10", "11"]
        assert bad_minimum_exclusion(ds, w0, w_gm, census) == (1,)

    def test_exclusion_is_a_certified_datum_outside_the_support(self, rng):
        for _ in range(25):
            ds, w_gm = realizable(rng)
            census = minima_census(ds)
            spread = float(np.max(ds.y / np.linalg.norm(ds.x, axis=0)))
            w0 = w_gm + spread * rng.uniform(0.0, 2.0) * rng.normal(size=3)
            certified = {j for j in range(ds.n)
                         if ds.x[:, j] @ w0 > 0.0 and no_deactivation_certificate(ds, w0, w_gm, j)}
            expected = tuple(i for i, support in enumerate(census.support_sets) if certified - set(support))
            assert bad_minimum_exclusion(ds, w0, w_gm, census) == expected

    def test_flow_avoids_excluded_minima(self, rng):
        for _ in range(25):
            ds, w_gm = realizable(rng)
            census = minima_census(ds)
            spread = float(np.max(ds.y / np.linalg.norm(ds.x, axis=0)))
            w0 = w_gm + spread * rng.uniform(0.0, 2.0) * rng.normal(size=3)
            excluded = bad_minimum_exclusion(ds, w0, w_gm, census)
            tr = simulate_flow(ds, w0)
            assert tr.terminal == "converged"
            assert census.index_of(tr.terminal_face) not in excluded


class TestCosineForm:
    def test_parallel_datum_has_unit_cosine(self):
        w_gm = np.array([1.0, 1.0]) / np.sqrt(2.0)
        x = np.stack([w_gm * 2.0, np.array([1.0, 0.0])], axis=1)
        ds = Dataset(x=x, y=x.T @ w_gm)
        form = cosine_form(ds, w_gm, w_gm, support=[1])
        assert form.lhs == pytest.approx(1.0, rel=1e-12)
        assert form.rhs == 0.0
        assert form.holds

    def test_norm_and_cosine_forms_agree(self, rng):
        # with interpolation the label ratio equals the cosine scaled by the
        # reference norm, making the two condition forms identical
        for _ in range(50):
            ds, w_gm = realizable(rng)
            support = [int(j) for j in rng.choice(ds.n, 2, replace=False)]
            w0 = w_gm + rng.normal(size=3)
            form = cosine_form(ds, w0, w_gm, support)
            complement = [j for j in range(ds.n) if j not in support]
            norm_lhs = max(
                float(ds.y[j]) / float(np.linalg.norm(ds.x[:, j])) for j in complement
            )
            gm_norm = float(np.linalg.norm(w_gm))
            assert abs(form.lhs * gm_norm - norm_lhs) <= 1e-12 * max(1.0, norm_lhs)
            assert form.rhs == pytest.approx(
                float(np.linalg.norm(w0 - w_gm)) / gm_norm, rel=1e-12
            )

    def test_empty_complement_reports_vacuous(self, rng):
        ds, w_gm = realizable(rng)
        form = cosine_form(ds, w_gm, w_gm, support=range(ds.n))
        assert form.vacuous
        assert not form.holds


class TestMalformedInputs:
    @pytest.fixture
    def case(self):
        ds, w_gm = realizable_dataset(np.random.default_rng(0), 3, 5)
        return ds, w_gm, minima_census(ds)

    @pytest.mark.parametrize("w0, error, message", [
        ([5.0], StructuralError, "w0 must have length 3"),
        ([np.nan, 1.0, 1.0], PreconditionError, "w0 must be finite"),
    ])
    def test_a_malformed_start_is_refused(self, case, w0, error, message):
        ds, w_gm, census = case
        calls = (
            lambda: alpha_star(ds, w0, 0),
            lambda: no_deactivation_certificate(ds, w0, w_gm, 0),
            lambda: bad_minimum_exclusion(ds, w0, w_gm, census),
            lambda: cosine_form(ds, w0, w_gm, (0,)),
        )
        for call in calls:
            with pytest.raises(error, match=message):
                call()

    @pytest.mark.parametrize("j", [-1, 5, 7, 1.0])
    def test_a_datum_index_outside_the_data_is_refused(self, case, j):
        ds, w_gm, _ = case  # every datum is active at the positive reference
        with pytest.raises(StructuralError, match=r"datum index must be an integer in 0\.\.4"):
            alpha_star(ds, w_gm, j)
        with pytest.raises(StructuralError, match=r"datum index must be an integer in 0\.\.4"):
            no_deactivation_certificate(ds, w_gm, w_gm, j)
        assert no_deactivation_certificate(ds, w_gm, w_gm, np.int64(4))


def stress_flow(s):
    """Dataset and flow of stress draw ``s``."""
    x, y, w0 = stress_draw(s)
    ds = Dataset(x=x, y=y)
    return ds, simulate_flow(ds, w0)


def crossing_grams(ds, tr, pos):
    """The active Gram matrices of the faces event ``pos`` leaves and enters."""
    ev = tr.events[pos]
    return [active_matrices(ds, face[0])[0] for face in (ev.before, ev.after)]


@pytest.fixture(scope="module")
def context(ds_deactivation):
    rng = np.random.default_rng(7)
    w0 = 1e-4 * rng.uniform(0.0, 1.0, 3)
    tr = simulate_flow(ds_deactivation, w0)
    return ds_deactivation, tr, crossing_context(ds_deactivation, tr, 0)


class TestCrossingContext:
    def test_invariants(self, context):
        ds, tr, ctx = context
        assert abs(float(ctx.w0 @ ctx.x0)) <= 1e-10 * max(1.0, float(np.linalg.norm(ctx.w0)))
        h_pre, h_post = crossing_grams(ds, tr, 0)
        np.testing.assert_allclose(h_post, h_pre - np.outer(ctx.x0, ctx.x0), atol=1e-12)
        # post eigenvectors are aligned to the pre basis
        overlaps = np.sum(ctx.evecs_pre * ctx.evecs_post, axis=0)
        assert np.all(overlaps >= 0.0)
        # pre basis is signed so the pre minimizer has nonnegative coordinates
        assert np.all(ctx.extents_pre >= -1e-12)

    def test_b_conditions_on_the_rank_dropping_crossing(self, context):
        _, _, ctx = context
        report = check_B_conditions(ctx)
        # dropping the first datum loses a rank: third condition fails
        assert not report.b3
        # the pre-side minimizer interpolates, so its alignment with the
        # crossing datum is the (positive) label: fourth condition fails
        assert report.b4_value == pytest.approx(0.05, abs=1e-9)
        assert not report.b4
        assert np.isfinite(report.b2_lhs) and np.isfinite(report.b2_rhs)
        assert len(report.b1_lhs) == 3
        assert not report.all_hold

    def test_b2_tie_up_to_roundoff_does_not_hold(self, ds_deactivation):
        # here b2's right side equals the label 0.05 in exact arithmetic, so
        # a last-digit perturbation of w* must not decide the condition
        tr = simulate_flow(ds_deactivation, np.array([1e-4, 5e-5, 8e-5]))
        ctx = crossing_context(ds_deactivation, tr, 0)
        bumped = dataclasses.replace(ctx, w_star_pre=ctx.w_star_pre * (1 + 1e-13))
        report = check_B_conditions(bumped)
        assert report.b2_rhs == pytest.approx(report.b2_lhs, abs=1e-12)
        assert report.b2_rhs > report.b2_lhs
        assert not report.b2

    def test_activation_crossing_adds_the_outer_product(self, ds_reactivation):
        rng = np.random.default_rng(3)
        w0 = 1e-4 * rng.uniform(0.0, 1.0, 3)
        tr = simulate_flow(ds_reactivation, w0)
        pos = next(
            i for i, e in enumerate(tr.events) if e.kind == "activation" and e.index == 3
        )
        ctx = crossing_context(ds_reactivation, tr, pos)
        h_pre, h_post = crossing_grams(ds_reactivation, tr, pos)
        np.testing.assert_allclose(h_post, h_pre + np.outer(ctx.x0, ctx.x0), atol=1e-12)
        report = check_B_conditions(ctx)
        assert report.b3  # all four data active afterwards: full rank

    def test_a_held_side_reads_its_projected_system(self):
        # stress draw 4 sheds datum 5 at event 6 while datum 7 is held: both
        # sides run their active columns projected off x_7, and the pre side
        # would read (1.0708, 0.0625) from the unprojected columns
        ds, tr = stress_flow(4)
        ev = tr.events[6]
        assert (ev.index, ev.before[1], ev.after[1]) == (5, (7,), (7,))
        ctx = crossing_context(ds, tr, 6)
        u = ds.x[:, 7] / np.linalg.norm(ds.x[:, 7])
        active = ev.before[0].as_bool()
        cols = ds.x[:, active] - np.outer(u, u @ ds.x[:, active])
        np.testing.assert_allclose(ctx.evals_pre, np.linalg.eigvalsh(cols @ cols.T)[::-1], atol=1e-12)
        np.testing.assert_allclose(ctx.w_star_pre, lstsq_minnorm(cols, ds.y[active]), atol=1e-12)
        assert ctx.evals_pre[0] == pytest.approx(0.92924369, abs=1e-8)
        assert (ctx.rank_pre, ctx.rank_post) == (1, 1)

    def test_only_a_crossing_event_has_a_context(self):
        # stress draw 4 holds datum 7 at event 5 and lets it go at event 8, its last
        ds, tr = stress_flow(4)
        assert [(e.kind, e.index) for e in (tr.events[5], tr.events[8])] == [("sliding", 7)] * 2
        with pytest.raises(StructuralError, match="^event 5 is a sliding transition, not a crossing$"):
            crossing_context(ds, tr, 5)
        for pos in (-1, 9):
            with pytest.raises(StructuralError, match=f"^trajectory has no event {pos}$"):
                crossing_context(ds, tr, pos)

    def test_a_rank_zero_pre_side_leaves_b1_and_b2_undefined(self):
        # stress draw 56 activates datum 1 at event 2 from the all-off sliding
        # segment: the pre side has no modes, so there is no ratio to read
        ds, tr = stress_flow(56)
        assert (tr.events[2].index, tr.events[2].kind) == (1, "activation")
        ctx = crossing_context(ds, tr, 2)
        assert ctx.rank_pre == 0
        assert np.all(ctx.evals_pre == 0.0) and np.all(ctx.w_star_pre == 0.0)
        report = check_B_conditions(ctx)
        assert (report.b1, report.b1_rhs, report.b2, report.b2_rhs) == (False, None, False, None)
        assert (report.b3, report.b4_value, report.b4) == (False, 0.0, False)
        assert len(report.b1_lhs) == ds.d

    def test_a_crossing_through_the_origin_leaves_b1_and_b2_undefined(self):
        # stress draw 294 passes through the origin at events 2-5: no direction
        ds, tr = stress_flow(294)
        ctx = crossing_context(ds, tr, 2)
        assert np.all(ctx.w0 == 0.0) and ctx.rank_pre == 1
        report = check_B_conditions(ctx)
        assert (report.b1, report.b1_rhs, report.b2, report.b2_rhs) == (False, None, False, None)
        assert report.b4_value == float(ctx.x0 @ ctx.w_star_pre) < 0.0 and report.b4
        assert '"b2_rhs": null' in json.dumps(report.to_json(), allow_nan=False)

    def test_every_stress_crossing_has_a_strict_json_report(self):
        crossings = undefined = 0
        for s in range(300):
            try:
                ds, tr = stress_flow(s)
            except ReluFlowError:  # a refused flow has no trajectory
                continue
            for i, ev in enumerate(tr.events):
                if ev.kind in ("activation", "deactivation"):
                    report = check_B_conditions(crossing_context(ds, tr, i)).to_json()
                    json.dumps(report, allow_nan=False)
                    crossings += 1
                    undefined += report["b2_rhs"] is None
        assert crossings > 600 and undefined > 20

    def test_conditions_are_recorded_not_asserted(self, rng):
        # norm growth can survive violated conditions: record the reports
        # alongside the norm certificate and never fail on the implication's converse
        from reluflow.flow import norm_certificate

        ds, w_gm = realizable(rng, d=2, n=4)
        delta = 1e-4 * float(np.min(ds.y / np.linalg.norm(ds.x, axis=0)))
        tr = simulate_flow(ds, delta * rng.uniform(0.2, 1.0, 2))
        reports = [
            check_B_conditions(crossing_context(ds, tr, i))
            for i, e in enumerate(tr.events)
            if e.kind in ("activation", "deactivation")
        ]
        assert norm_certificate(tr) is None  # d=2 small-norm flows grow regardless of the reports
        for rep in reports:
            assert isinstance(rep.all_hold, bool)
