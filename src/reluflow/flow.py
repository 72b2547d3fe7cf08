"""Event-driven exact simulation of the piecewise gradient flow.

Inside one partition the flow obeys a constant-coefficient linear ODE
whose solution is known in closed spectral form, so each segment is
integrated exactly: no time stepping ever happens.  Every datum's
boundary gap along a segment is a decaying exponential sum, and the
isolator in :mod:`reluflow.expsum` certifies its earliest admissible
zero.  At a boundary hit the strict-indicator gradient (the boundary
term excluded) decides the outcome:

- a falling gap with nonnegative excluded-gradient alignment exits into
  the deactivated side (a deactivation event), and symmetrically for a
  rising gap (an activation event);
- if both one-sided fields point at the boundary (possible only with
  nonpositive labels) the flow slides: the segment continues under the
  field projected onto the boundary, flagged ``sliding`` in the event
  log, until one side releases it.

Terminal classification is also exact: a segment with no admissible
roots converges to its analytic limit, which is certified interior (or
inside the all-deactivated stationary cone) before being reported.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .dataset import Dataset
from .errors import NumericalError, PreconditionError, StructuralError
from .expsum import ExpSum
from .geometry import ActivationPattern, active_matrices, g_value, pattern_of, pattern_system
from .landscape import gradient, loss

# A converged limit must clear every boundary by this geometric margin
# (or sit inside the all-deactivated cone).
INTERIOR_MARGIN = 1e-9

# Local sampling horizon of a terminal segment, in units of the slowest
# positive decay: exp(-50) is far below double precision.
TERMINAL_HORIZON_RATES = 50.0


@dataclass(frozen=True)
class FlowConfig:
    """Tolerances and guards of the simulator, all positive.

    - ``converge_tol``: gradient norm below which a limit counts as converged.
    - ``t_max``: hard time horizon.
    - ``max_events``: event cap; ``None`` means ``10 * n * d`` at simulation time.
    """

    converge_tol: float = 1e-10
    t_max: float = 1e6
    max_events: int | None = None

    def __post_init__(self):
        for name in ("converge_tol", "t_max"):
            if not getattr(self, name) > 0.0:
                raise PreconditionError(f"{name} must be positive")
        if self.max_events is not None and self.max_events <= 0:
            raise PreconditionError("max_events must be positive")


@dataclass(frozen=True)
class FlowSegment:
    """One exact piece of the flow: spectral data plus its time span.

    The solution is ``w(t) = target + sum_k exp(-lam_k (t - t_start)) *
    delta_k * e_k`` where only strictly positive rates appear; null
    coordinates of the generator are conserved and folded into ``target``.
    ``t_end`` is ``inf`` on a terminal segment.
    """

    t_start: float
    t_end: float
    w_start: np.ndarray
    pattern: ActivationPattern
    eigenvalues: np.ndarray  # (r,) strictly positive, descending
    eigenvectors: np.ndarray  # (d, r) orthonormal columns
    target: np.ndarray  # analytic limit of this segment's dynamics
    delta: np.ndarray  # (r,) eigen-coordinates of w_start - target
    sliding_index: int | None = None

    def __post_init__(self):
        for name in ("w_start", "eigenvalues", "eigenvectors", "target", "delta"):
            a = np.array(getattr(self, name), dtype=float)
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start

    def value_local(self, tau):
        """Flow point(s) at local time(s) ``tau`` since ``t_start``."""
        tau = np.asarray(tau, dtype=float)
        decay = np.exp(-np.multiply.outer(tau, self.eigenvalues))
        out = self.target + (decay * self.delta) @ self.eigenvectors.T
        return out if tau.ndim else np.asarray(out)

    def derivative_local(self, tau):
        tau = np.asarray(tau, dtype=float)
        decay = np.exp(-np.multiply.outer(tau, self.eigenvalues))
        coeff = -(self.eigenvalues * self.delta)
        out = (decay * coeff) @ self.eigenvectors.T
        return out if tau.ndim else np.asarray(out)

    def observable(self, v, offset: float = 0.0) -> ExpSum:
        """The exponential sum ``v . w(tau) - offset`` along the segment."""
        v = np.asarray(v, dtype=float)
        constant = float(v @ self.target) - offset
        coeffs = (v @ self.eigenvectors) * self.delta
        return ExpSum(constant, coeffs, self.eigenvalues)

    @property
    def min_positive_rate(self) -> float | None:
        return float(self.eigenvalues[-1]) if self.eigenvalues.size else None

    def local_horizon(self) -> float:
        """Finite sampling horizon: the duration, or the decay horizon if infinite."""
        if np.isfinite(self.t_end):
            return self.duration
        rate = self.min_positive_rate
        return TERMINAL_HORIZON_RATES / rate if rate else 1.0


@dataclass(frozen=True)
class FlowEvent:
    t: float
    index: int
    kind: str  # "activation" | "deactivation" | "sliding"
    point: np.ndarray

    def __post_init__(self):
        p = np.array(self.point, dtype=float)
        p.setflags(write=False)
        object.__setattr__(self, "point", p)

    def to_json(self) -> dict:
        return {"t": self.t, "index": self.index, "kind": self.kind, "point": self.point.tolist()}


@dataclass(frozen=True)
class Trajectory:
    """Ordered exact segments, the event log, and the terminal verdict.

    ``terminal`` is one of ``converged`` (limit certified), ``horizon``
    (t_max reached), ``event-cap`` (too many events), or ``degenerate``
    (the limit exists but could not be certified interior/stationary).
    ``terminal_point`` is the analytic limit when available, otherwise
    the last computed point.
    """

    dataset: Dataset
    segments: tuple[FlowSegment, ...]
    events: tuple[FlowEvent, ...]
    terminal: str
    terminal_point: np.ndarray
    linear: bool = False

    def __post_init__(self):
        p = np.array(self.terminal_point, dtype=float)
        p.setflags(write=False)
        object.__setattr__(self, "terminal_point", p)

    def at(self, t: float) -> np.ndarray:
        """Exact flow point at absolute time ``t``."""
        if t < 0.0:
            raise PreconditionError("time must be nonnegative")
        for seg in self.segments:
            if t <= seg.t_end:
                return seg.value_local(max(t - seg.t_start, 0.0))
        last = self.segments[-1]
        return last.value_local(t - last.t_start)


def _segment_from(
    ds: Dataset,
    pattern: ActivationPattern,
    w_start: np.ndarray,
    t_start: float,
    sliding_index: int | None = None,
) -> FlowSegment:
    """Exact spectral segment for the current active set.

    A sliding segment replaces the active columns by their projections
    onto the sliding datum's boundary; the conserved-null machinery then
    keeps the flow on the boundary exactly.
    """
    system = pattern_system(ds, pattern, slide=sliding_index)
    w_start = np.asarray(w_start, dtype=float)
    if sliding_index is not None:
        xs = ds.x[:, sliding_index] / np.linalg.norm(ds.x[:, sliding_index])
        w_start = w_start - xs * (xs @ w_start)
    target = system.point
    if system.rank < ds.d:
        null = system.null_basis
        target = target + null @ (null.T @ w_start)
    delta = system.basis.T @ (w_start - target)
    seg = FlowSegment(
        t_start=t_start,
        t_end=np.inf,
        w_start=w_start,
        pattern=pattern,
        eigenvalues=system.eigenvalues,
        eigenvectors=system.basis,
        target=target,
        delta=delta,
        sliding_index=sliding_index,
    )
    if not (np.all(np.isfinite(target)) and np.all(np.isfinite(delta))):
        raise NumericalError("non-finite spectral data in flow segment")
    return seg


@dataclass(frozen=True)
class _Candidate:
    tau: float
    index: int
    kind: str  # "boundary" | "release-down" | "release-up"


def _boundary_candidates(ds: Dataset, seg: FlowSegment) -> list[_Candidate]:
    out = []
    for k in range(ds.n):
        if k == seg.sliding_index:
            continue
        want = -1 if seg.pattern.bits[k] else 1
        f = seg.observable(ds.x[:, k])
        for root in f.roots(0.0):
            if root.is_crossing and root.after == want:
                out.append(_Candidate(tau=root.t, index=k, kind="boundary"))
                break
    return out


def _release_candidates(ds: Dataset, seg: FlowSegment) -> list[_Candidate]:
    k = seg.sliding_index
    xk = ds.x[:, k]
    hmat, qvec = active_matrices(ds, seg.pattern)
    gm = seg.observable(hmat @ xk, offset=float(xk @ qvec))
    gp = ExpSum(gm.c - float(ds.y[k]) * float(xk @ xk), gm.coeffs, gm.rates)
    out = []
    for root in gm.roots(0.0):
        # excluded-term gradient turns nonnegative: the lower side releases
        if root.is_crossing and root.after == 1:
            out.append(_Candidate(tau=root.t, index=k, kind="release-down"))
            break
    for root in gp.roots(0.0):
        # included-term gradient turns nonpositive: the upper side releases
        if root.is_crossing and root.after == -1:
            out.append(_Candidate(tau=root.t, index=k, kind="release-up"))
            break
    return out


def _decide_boundary(ds: Dataset, pattern: ActivationPattern, k: int, w_ev: np.ndarray):
    """Outcome of a transversal boundary hit at datum k.

    Returns ``("deactivation" | "activation" | "sliding", new_pattern)``
    following the strict-indicator test: the boundary term is excluded
    from the gradient, and the flow exits to the side whose one-sided
    field is self-consistent.
    """
    xk = ds.x[:, k]
    p_minus = pattern.flip(k) if pattern.bits[k] else pattern
    hm, qm = active_matrices(ds, p_minus)
    gm = float(xk @ (hm @ w_ev - qm))
    gp = gm + (float(xk @ w_ev) - ds.y[k]) * float(xk @ xk)
    if pattern.bits[k]:  # arriving from the active side, gap falling
        if gm >= 0.0:
            return "deactivation", p_minus
        return "sliding", p_minus
    # arriving from the inactive side, gap rising
    if gp <= 0.0:
        return "activation", pattern.flip(k)
    return "sliding", pattern


def simulate_flow(ds: Dataset, w0, cfg: FlowConfig | None = None) -> Trajectory:
    """Exact event-driven trajectory of the rectified gradient flow from w0."""
    cfg = cfg or FlowConfig()
    w0 = np.asarray(w0, dtype=float)
    if w0.shape != (ds.d,):
        raise StructuralError(f"w0 must have length {ds.d}")
    if not np.all(np.isfinite(w0)):
        raise PreconditionError("w0 must be finite")
    max_events = cfg.max_events if cfg.max_events is not None else 10 * ds.n * ds.d
    t = 0.0
    w = w0
    pattern = pattern_of(ds, w0)
    sliding_on: int | None = None
    segments: list[FlowSegment] = []
    events: list[FlowEvent] = []
    terminal = None
    terminal_point = w0

    while terminal is None:
        seg = _segment_from(ds, pattern, w, t, sliding_on)
        candidates = _boundary_candidates(ds, seg)
        if sliding_on is not None:
            candidates.extend(_release_candidates(ds, seg))
        event = None
        if candidates:
            tau_min = min(c.tau for c in candidates)
            window = 1e-12 * max(1.0, tau_min)
            event = min(
                (c for c in candidates if c.tau <= tau_min + window),
                key=lambda c: c.index,
            )
        if event is None:
            limit = seg.target
            if not np.all(np.isfinite(limit)):
                raise NumericalError("non-finite limit point")
            segments.append(seg)
            terminal = _classify_limit(ds, limit, cfg)
            terminal_point = limit
            break
        if t + event.tau > cfg.t_max:
            segments.append(replace(seg, t_end=cfg.t_max))
            terminal = "horizon"
            terminal_point = seg.value_local(cfg.t_max - t)
            break
        w_ev = seg.value_local(event.tau)
        if not np.all(np.isfinite(w_ev)):
            raise NumericalError("non-finite event point")
        t_ev = t + event.tau
        if event.kind == "boundary":
            verdict, new_pattern = _decide_boundary(ds, pattern, event.index, w_ev)
            if verdict == "sliding" and sliding_on is not None:
                raise NumericalError("nested sliding boundaries are not supported")
            new_sliding = event.index if verdict == "sliding" else sliding_on
        elif event.kind == "release-down":
            verdict, new_pattern, new_sliding = "sliding", pattern, None
        else:  # release-up
            verdict, new_pattern, new_sliding = "activation", pattern.flip(event.index), None
        segments.append(replace(seg, t_end=t_ev))
        events.append(FlowEvent(t=t_ev, index=event.index, kind=verdict, point=w_ev))
        pattern, sliding_on, t, w = new_pattern, new_sliding, t_ev, w_ev
        terminal_point = w_ev
        if len(events) >= max_events:
            terminal = "event-cap"
            break

    return Trajectory(
        dataset=ds,
        segments=tuple(segments),
        events=tuple(events),
        terminal=terminal,
        terminal_point=terminal_point,
    )


def _classify_limit(ds: Dataset, limit: np.ndarray, cfg: FlowConfig) -> str:
    grad_norm = float(np.linalg.norm(gradient(ds, limit)))
    h = ds.x.T @ limit
    scale = np.linalg.norm(ds.x, axis=0) * max(1.0, float(np.linalg.norm(limit)))
    interior = bool(np.min(np.abs(h) / scale) >= INTERIOR_MARGIN)
    in_dead_cone = bool(np.all(h <= INTERIOR_MARGIN * scale))
    if grad_norm < cfg.converge_tol and (interior or in_dead_cone):
        return "converged"
    return "degenerate"


def simulate_linear_flow(ds: Dataset, w0, cfg: FlowConfig | None = None) -> Trajectory:
    """Single-segment exact flow of the unrectified least-squares problem.

    The terminal point is the minimum-norm solution plus the conserved
    null component of ``w0``.  The segment carries the all-ones pattern
    label since every datum contributes throughout.
    """
    cfg = cfg or FlowConfig()
    w0 = np.asarray(w0, dtype=float)
    if w0.shape != (ds.d,):
        raise StructuralError(f"w0 must have length {ds.d}")
    if not np.all(np.isfinite(w0)):
        raise PreconditionError("w0 must be finite")
    pattern = ActivationPattern(tuple([1] * ds.n))
    seg = _segment_from(ds, pattern, w0, 0.0)
    if not np.all(np.isfinite(seg.target)):
        raise NumericalError("non-finite limit point")
    grad_norm = float(np.linalg.norm(ds.x @ (ds.x.T @ seg.target - ds.y)))
    terminal = "converged" if grad_norm < cfg.converge_tol else "degenerate"
    return Trajectory(
        dataset=ds,
        segments=(seg,),
        events=(),
        terminal=terminal,
        terminal_point=seg.target,
        linear=True,
    )


@dataclass(frozen=True)
class GDRun:
    """Small-step descent proxy of a flow run (qualitative cross-check).

    It shares the exact trajectory's artifact interface: ``events`` are
    ``FlowEvent`` records and :func:`trajectory_to_csv` samples the iterates.
    """

    dataset: Dataset
    lr: float
    iterates: np.ndarray  # (iters + 1, d)
    events: tuple
    terminal_point: np.ndarray

    linear = False  # the proxy descends the rectified loss

    def at(self, t: float) -> np.ndarray:
        k = min(int(round(t / self.lr)), len(self.iterates) - 1)
        return self.iterates[k]


def simulate_gd(ds: Dataset, w0, lr: float, iters: int) -> GDRun:
    """Fixed-step descent with the strict-indicator gradient.

    Pattern flips between iterates are logged as events at pseudo-time
    ``iteration * lr`` so event sequences are comparable with the exact
    engine's.
    """
    w = np.asarray(w0, dtype=float).copy()
    iterates = [w.copy()]
    events = []
    bits = pattern_of(ds, w).bits
    for k in range(iters):
        w = w - lr * gradient(ds, w)
        iterates.append(w.copy())
        new_bits = pattern_of(ds, w).bits
        if new_bits != bits:
            for j, (a, b) in enumerate(zip(bits, new_bits)):
                if a != b:
                    kind = "activation" if b else "deactivation"
                    events.append(FlowEvent(t=(k + 1) * lr, index=j, kind=kind, point=w.copy()))
            bits = new_bits
    return GDRun(
        dataset=ds,
        lr=lr,
        iterates=np.array(iterates),
        events=tuple(events),
        terminal_point=w,
    )


def linear_loss(ds: Dataset, w) -> float:
    r = ds.x.T @ np.asarray(w, dtype=float) - ds.y
    return 0.5 * float(r @ r)


def _g_along(ds: Dataset, w: np.ndarray, linear: bool) -> float:
    if linear:
        h = ds.x @ (ds.x.T @ w - ds.y)
        return float(w @ h)
    return g_value(ds, w)


def sample_trajectory(tr: Trajectory | GDRun, samples: int) -> list[tuple[float, np.ndarray]]:
    """Uniform-in-segment-local-time sample points (t, w(t)).

    Infinite terminal segments are sampled up to their decay horizon and
    the analytic limit is appended as the final row.  A descent run is
    sampled at every ``len(iterates) // samples``-th iterate instead.
    """
    if samples < 2:
        raise PreconditionError("need at least 2 samples")
    if isinstance(tr, GDRun):
        stride = max(1, len(tr.iterates) // samples)
        return [(k * tr.lr, tr.iterates[k]) for k in range(0, len(tr.iterates), stride)]
    n_seg = len(tr.segments)
    base = max(2, samples // n_seg)
    rows: list[tuple[float, np.ndarray]] = []
    for i, seg in enumerate(tr.segments):
        horizon = seg.local_horizon()
        count = base if i < n_seg - 1 else max(2, samples - base * (n_seg - 1))
        taus = np.linspace(0.0, horizon, count)
        points = seg.value_local(taus)
        for tau, p in zip(taus, points):
            rows.append((seg.t_start + float(tau), np.asarray(p)))
    if not np.isfinite(tr.segments[-1].t_end):
        rows.append((tr.segments[-1].t_start + tr.segments[-1].local_horizon(), tr.terminal_point))
    return rows


def norm_profile(tr: Trajectory | GDRun, samples: int) -> list[tuple[float, float, float, float]]:
    """(t, |w|, loss, g) along the trajectory, for monotonicity audits."""
    ds = tr.dataset
    out = []
    for t, w in sample_trajectory(tr, samples):
        value = linear_loss(ds, w) if tr.linear else loss(ds, w)
        out.append((t, float(np.linalg.norm(w)), value, _g_along(ds, w, tr.linear)))
    return out


def count_hyperplane_crossings(tr: Trajectory, v, c: float) -> int:
    """Sign changes of ``v . w(t) - c`` along the whole trajectory.

    Uses per-segment root isolation of the exponential sum; touches do
    not count, a start exactly on the hyperplane counts once when the
    flow immediately leaves it.
    """
    v = np.asarray(v, dtype=float)
    total = 0
    last_t = -np.inf
    for seg in tr.segments:
        f = seg.observable(v, offset=float(c))
        for root in f.roots(0.0):
            if not root.is_crossing:
                continue
            if np.isfinite(seg.t_end) and root.t > seg.duration * (1 + 1e-12) + 1e-300:
                continue
            t_abs = seg.t_start + root.t
            if t_abs - last_t <= 1e-12 * max(1.0, abs(t_abs)):
                continue
            total += 1
            last_t = t_abs
    return total


def segment_root_counts(tr: Trajectory, v, c: float) -> list[tuple[int, int]]:
    """(number of isolated roots, number of exponential terms) per segment."""
    v = np.asarray(v, dtype=float)
    out = []
    for seg in tr.segments:
        f = seg.observable(v, offset=float(c))
        out.append((len(f.roots(0.0)), f.n_terms))
    return out


def revisit_report(tr: Trajectory) -> tuple[int, ...]:
    """Data indices deactivated and later activated again (empty = no revisit)."""
    deactivated_at: dict[int, float] = {}
    revisited: set[int] = set()
    for ev in tr.events:
        if ev.kind == "deactivation":
            deactivated_at.setdefault(ev.index, ev.t)
        elif ev.kind == "activation" and ev.index in deactivated_at:
            revisited.add(ev.index)
    return tuple(sorted(revisited))


def events_to_jsonl(tr: Trajectory | GDRun) -> str:
    """One JSON line per event, keys sorted."""
    import json

    return "".join(json.dumps(ev.to_json(), sort_keys=True) + "\n" for ev in tr.events)


def trajectory_to_csv(tr: Trajectory | GDRun, samples: int = 200) -> str:
    """Plot-ready CSV of an exact, linear or descent run: t, w_1..w_d, loss, norm, g, pattern bits."""
    ds = tr.dataset
    d = ds.d
    header = ["t"] + [f"w_{i + 1}" for i in range(d)] + ["loss", "norm", "g", "pattern"]
    lines = [",".join(header)]
    for t, w in sample_trajectory(tr, samples):
        value = linear_loss(ds, w) if tr.linear else loss(ds, w)
        g = _g_along(ds, w, tr.linear)
        pat = "1" * ds.n if tr.linear else pattern_of(ds, w).to_string()
        cells = [repr(float(t))] + [repr(float(x)) for x in w]
        cells += [repr(float(value)), repr(float(np.linalg.norm(w))), repr(float(g)), pat]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
