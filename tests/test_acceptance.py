"""Acceptance suite: every shipping criterion at its stated tolerance.

Each criterion prints one ``[PASS]``/``[FAIL]`` line (run with ``-s`` to
see them live) and asserts both the numeric claims and its runtime
budget.  Three clauses are marked as strict expected failures: they
restate the nested-support loss ordering (and the resulting
"small-norm flows reach the lowest-loss minimum" identification), which
the bundled d=2 showcase dataset itself refutes; see
``test_landscape.py::TestSupportOrdering::test_showcase_data_is_a_counterexample``
for the concrete inversion.  Everything those clauses quantify is still
computed and recorded; only the ordering claim itself is false.
"""

import time

import numpy as np
import pytest

from reluflow.campaigns import (
    realizable_dataset,
    run_campaign,
    small_norm_start,
)
from reluflow.criteria import alpha_star, cosine_form
from reluflow.dataset import Dataset
from reluflow.flow import (
    count_hyperplane_crossings,
    revisit_report,
    segment_root_counts,
    simulate_flow,
    simulate_linear_flow,
)
from reluflow.geometry import active_matrices, g_value, pattern_of
from reluflow.landscape import gradient, minima_census
from reluflow.scenarios import builtin_scenario, fixture_dataset, run_scenario

from oracles import finite_diff_gradient, lstsq_minnorm, off_boundary

ORDERING_DEFECT = (
    "restates the nested-support loss ordering, which the bundled d=2 "
    "showcase dataset refutes: its support-{3,4} minimum (loss 2.3756) "
    "undercuts the all-activated minimum (loss 2.9962)"
)


def _report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] {name}{suffix}")
    assert ok, f"{name}{suffix}"


def _within(budget: float, start: float, name: str) -> None:
    elapsed = time.perf_counter() - start
    _report(f"{name} runtime", elapsed < budget, f"{elapsed:.2f}s of {budget:.0f}s")


class TestAcceptance01DeactivationShowcase:
    def test_criterion(self, tmp_path):
        start = time.perf_counter()
        ds = fixture_dataset("example-5-2")
        rng = np.random.default_rng(0)  # pinned seed of the built-in scenario
        w0 = 1e-4 * rng.uniform(0.0, 1.0, 3)
        tr = simulate_flow(ds, w0)
        lin = simulate_linear_flow(ds, w0)
        _report(
            "1a exactly one deactivation of index 0",
            [(e.kind, e.index) for e in tr.events] == [("deactivation", 0)],
        )
        _report("1b no reactivation", revisit_report(tr) == ())
        active = [1, 2]
        point = lstsq_minnorm(ds.x[:, active], ds.y[active])
        u, s, _ = np.linalg.svd(ds.x[:, active], full_matrices=True)
        null = u[:, 2:]
        oracle = point + null @ (null.T @ tr.events[0].point)
        err = float(np.linalg.norm(tr.terminal_point - oracle))
        _report("1c terminal within 1e-6 of reduced least squares", err <= 1e-6, f"{err:.2e}")
        lin_err = float(
            np.linalg.norm(lin.terminal_point - lstsq_minnorm(ds.x, ds.y))
        )
        _report("1d linear terminal within 1e-8 of direct solve", lin_err <= 1e-8, f"{lin_err:.2e}")
        t_ev = tr.events[0].t
        gap = max(
            float(np.linalg.norm(tr.at(t) - lin.at(t)))
            for t in np.linspace(0.0, t_ev * (1 - 1e-12), 64)
        )
        _report("1e pre-event coincidence within 1e-8", gap <= 1e-8, f"{gap:.2e}")
        _within(1.0, start, "criterion 1")


class TestAcceptance02ReactivationShowcase:
    def test_criterion(self):
        start = time.perf_counter()
        ds = fixture_dataset("example-5-3")
        rng = np.random.default_rng(0)
        w0 = 1e-4 * rng.uniform(0.0, 1.0, 3)
        tr = simulate_flow(ds, w0)
        lin = simulate_linear_flow(ds, w0)
        sig = [(e.kind, e.index) for e in tr.events]
        has_pair = ("deactivation", 3) in sig and ("activation", 3) in sig and sig.index(
            ("deactivation", 3)
        ) < sig.index(("activation", 3))
        _report("2a deactivation then reactivation of index 3", has_pair, f"{sig}")
        agree = float(np.linalg.norm(tr.terminal_point - lin.terminal_point))
        _report("2b rectified and linear terminals within 1e-6", agree <= 1e-6, f"{agree:.2e}")
        err = float(np.linalg.norm(tr.terminal_point - lstsq_minnorm(ds.x, ds.y)))
        _report("2c terminal equals all-data least squares", err <= 1e-6, f"{err:.2e}")
        _within(1.0, start, "criterion 2")


class TestAcceptance03NormShowcase:
    def test_criterion(self, tmp_path):
        start = time.perf_counter()
        result = run_scenario(builtin_scenario("example-5-1"), tmp_path)
        for name, ok, detail in result.checks:
            _report(f"3 {name}", ok, detail)
        _within(5.0, start, "criterion 3")

    @pytest.mark.xfail(strict=True, reason="the 'census global' identification " + ORDERING_DEFECT)
    def test_small_norm_reaches_lowest_loss_entry(self):
        ds = fixture_dataset("example-5-1")
        census = minima_census(ds)
        tr = simulate_flow(ds, np.array([1e-4, 1e-4]))
        ok = census.index_of(tr.terminal_face) == census.global_index
        _report("3x small-norm run reaches the lowest-loss census entry", ok)


class TestAcceptance04PlanarConvergenceCampaign:
    def test_criterion(self):
        start = time.perf_counter()
        report = run_campaign("d2-global-convergence", seed=2024, trials=200)
        _report(
            "4 planar campaign: converge to a census minimum, norm up, no revisit",
            report.passed,
            f"{report.trials} trials, {len(report.failures)} failures",
        )
        _within(60.0, start, "criterion 4")

    @pytest.mark.xfail(strict=True, reason="the 'census global' identification " + ORDERING_DEFECT)
    def test_every_terminal_is_the_lowest_loss_entry(self):
        report = run_campaign("d2-global-convergence", seed=2024, trials=200)
        misses = [r for r in report.results if "not the lowest-loss" in r.detail]
        _report(
            "4x every planar terminal is the lowest-loss census entry",
            report.passed and not misses,
            f"{len(misses)} flows settled in a higher-loss census minimum",
        )


class TestAcceptance05LinearFlows:
    def test_criterion(self):
        start = time.perf_counter()
        report = run_campaign("norm-monotone-linear", seed=2024, trials=100)
        _report(
            "5 linear flows: minimum-norm terminal, monotone norm and loss",
            report.passed,
            f"{report.trials} trials, {len(report.failures)} failures",
        )
        _within(10.0, start, "criterion 5")


class TestAcceptance06CensusTheorems:
    def test_criterion(self):
        start = time.perf_counter()
        report = run_campaign("census-orderings", seed=2024, trials=100)
        _report(
            "6 census: rectified beats linear, size bound, interior margins",
            report.passed,
            f"{report.trials} trials, {len(report.failures)} failures",
        )
        _within(60.0, start, "criterion 6")

    @pytest.mark.xfail(strict=True, reason="this clause " + ORDERING_DEFECT)
    def test_nested_support_losses_are_ordered(self):
        report = run_campaign("census-orderings", seed=2024, trials=100)
        violations = [r for r in report.results if "ordering violated" in r.detail]
        _report(
            "6x nested supports order the losses on every census",
            report.passed and not violations,
            f"{len(violations)} censuses with inverted nested-support losses",
        )


class TestAcceptance07Certificates:
    def test_alpha_threshold_contract(self):
        start = time.perf_counter()
        rng = np.random.default_rng(2024)
        checked = 0
        while checked < 500:
            ds, _ = realizable_dataset(rng, 3, 5)
            w0 = rng.uniform(0.1, 1.0, 3)
            j = int(rng.integers(ds.n))
            hmat, _ = active_matrices(ds, pattern_of(ds, w0))
            if float(ds.x[:, j] @ (hmat @ w0)) <= 1e-8:
                continue
            a_star = alpha_star(ds, w0, j)
            alpha = float(rng.uniform(0.05, 3.0) * max(a_star, 0.1))
            if abs(alpha - a_star) <= 1e-10 * max(1.0, a_star):
                continue  # dead band around the threshold
            if pattern_of(ds, alpha * w0) != pattern_of(ds, w0):
                continue
            aligned = float(gradient(ds, alpha * w0) @ ds.x[:, j]) >= 0.0
            assert aligned == (alpha >= a_star)
            checked += 1
        _report("7a threshold sign-flip contract", checked == 500, "500 probes")
        _within(60.0, start, "criterion 7a")

    def test_certificate_campaigns(self):
        start = time.perf_counter()
        protect = run_campaign("no-deactivation", seed=2024, trials=100)
        _report(
            "7b certified data never deactivate; full certification matches linear",
            protect.passed,
            f"{len(protect.failures)} failures",
        )
        exclude = run_campaign("bad-min-exclusion", seed=2024, trials=100)
        _report(
            "7c no terminal matches an excluded minimum",
            exclude.passed,
            f"{len(exclude.failures)} failures",
        )
        _within(60.0, start, "criterion 7bc")


class TestAcceptance08CrossingBounds:
    def test_criterion(self):
        start = time.perf_counter()
        rates = np.array([1.0, 2.0, 3.0])
        ds = Dataset(x=np.diag(np.sqrt(rates)), y=np.ones(3))
        w_star = np.linalg.solve(ds.x @ ds.x.T, ds.x @ ds.y)
        powers = np.vander(np.exp(-rates), 3, increasing=True).T
        coeffs = np.linalg.solve(powers, np.ones(3))
        tr = simulate_linear_flow(ds, w_star + coeffs)
        v = np.ones(3)
        c = float(v @ w_star) + 1.0
        crossings = count_hyperplane_crossings(tr, v, c)
        _report("8a rigged instance crosses exactly three times", crossings == 3, f"{crossings}")
        ok_bound = all(found <= terms + 1 for found, terms in segment_root_counts(tr, v, c))
        _report("8b root isolation respects the exponential-zeros bound", ok_bound)
        report = run_campaign("crossing-bound", seed=2024, trials=500)
        _report(
            "8c random crossings never exceed the dimension",
            report.passed,
            f"{report.trials} trials, {len(report.failures)} failures",
        )
        _within(30.0, start, "criterion 8")


class TestAcceptance09Decomposition:
    def test_criterion(self):
        start = time.perf_counter()
        report = run_campaign("backprop-equivalence", seed=2024, trials=100)
        _report(
            "9 layer problems reproduce deep gradients; each step keeps the balancedness identity",
            report.passed,
            f"{report.trials} trials, {len(report.failures)} failures",
        )
        _within(30.0, start, "criterion 9")


class TestAcceptance10NumericalHygiene:
    def test_ode_residual(self):
        rng = np.random.default_rng(2024)
        for name in ("example-5-2", "example-5-3"):
            ds = fixture_dataset(name)
            tr = simulate_flow(ds, small_norm_start(rng, ds))
            worst = 0.0
            for seg in tr.segments:
                h, q = active_matrices(ds, seg.pattern)
                scale_h = np.linalg.norm(h, 2)
                for tau in rng.uniform(0.0, seg.local_horizon(), 100):
                    w = seg.value_local(tau)
                    resid = np.linalg.norm(seg.derivative_local(tau) + h @ w - q)
                    bound = 1e-9 * (scale_h * np.linalg.norm(w) + np.linalg.norm(q))
                    worst = max(worst, resid / bound if bound > 0 else 0.0)
            _report(f"10a segment residual scaled by 1e-9 ({name})", worst <= 1.0, f"{worst:.2e}")

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(2024)
        ds = fixture_dataset("example-5-3")
        worst = 0.0
        checked = 0
        while checked < 200:
            w = rng.normal(size=3) * rng.uniform(0.2, 3.0)
            if not off_boundary(ds, w):
                continue
            err = float(np.max(np.abs(finite_diff_gradient(ds, w) - gradient(ds, w))))
            worst = max(worst, err)
            checked += 1
        _report("10b gradient vs central differences within 1e-4", worst <= 1e-4, f"{worst:.2e}")

    def test_norm_derivative_continuity(self):
        rng = np.random.default_rng(2024)
        worst = 0.0
        for _ in range(60):
            ds, _ = realizable_dataset(rng, 3, 5)
            j = int(rng.integers(5))
            x0 = ds.x[:, j]
            w = rng.normal(size=3)
            w -= x0 * (x0 @ w) / (x0 @ x0)
            if np.linalg.norm(w) < 1e-6:
                continue
            w *= 3.0 / np.linalg.norm(w)
            probe = 1e-7 * x0
            gap = abs(g_value(ds, w + probe) - g_value(ds, w - probe))
            worst = max(worst, gap / max(1.0, abs(g_value(ds, w))))
        _report("10c norm-derivative continuity across boundaries", worst <= 1e-5, f"{worst:.2e}")

    def test_norm_and_cosine_forms_identical(self):
        rng = np.random.default_rng(2024)
        worst = 0.0
        for _ in range(100):
            ds, w_gm = realizable_dataset(rng, 3, 5)
            support = {int(j) for j in rng.choice(5, 2, replace=False)}
            w0 = w_gm + rng.normal(size=3)
            form = cosine_form(ds, w0, w_gm, support)
            ratios = [
                float(ds.y[j]) / float(np.linalg.norm(ds.x[:, j]))
                for j in range(5)
                if j not in support
            ]
            lhs_norm_form = max(ratios)
            scaled = form.lhs * float(np.linalg.norm(w_gm))
            worst = max(worst, abs(scaled - lhs_norm_form) / max(1.0, lhs_norm_form))
        _report("10d norm-form and cosine-form conditions agree", worst <= 1e-12, f"{worst:.2e}")
