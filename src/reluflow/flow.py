"""Event-driven exact simulation of the piecewise gradient flow.

Inside one partition the flow obeys a constant-coefficient linear ODE
whose solution is known in closed spectral form, so each segment is
integrated exactly: no time stepping ever happens.  Every datum's
boundary gap along a segment, like the norm's slope that
:func:`norm_certificate` checks, is a decaying exponential sum over the
segment's shared decay rates, and the next event is the earliest
admissible zero among the gaps and the held multipliers.  One
:class:`reluflow.expsum.RootBatch` pass over all of them bounds each first
zero from below; rows are then isolated in order of that bound until the
next bound no longer ties with the best zero found, so no row that could
win or tie is skipped.  Every tie of instants is :func:`reluflow.expsum.tied`.

At an event the data on their boundaries decide together (Filippov,
*Differential Equations with Discontinuous Righthand Sides*, 1988).  B
is the held data plus every datum whose event ties with the earliest.
With g0 the gradient of the pattern without B, the field is
``g = g0 - sum_{j in B} alpha_j y_j x_j``, and each datum of B is off
(alpha_j = 0, ``x_j . g >= 0``), on (alpha_j = 1, ``x_j . g <= 0``) or
held (0 < alpha_j < 1, ``x_j . g = 0``, held columns independent).  The
first consistent assignment in order of preference is taken; at an event
that would change nothing no arrival may keep its state, and no
consistent assignment raises ``NumericalError``.  A held segment projects the
active columns off the held data's span, and a release is a held
multiplier alpha_j(t), an exponential sum of the segment, crossing 0
(off) or 1 (on).  When every label is positive no datum is ever held.

Terminal classification is also exact: a segment with no admissible
event converges to its analytic limit, which is ``converged`` when the
segment's field there, projected on its face, is within roundoff of the
data's scale (:data:`CONVERGE_RTOL`), each held multiplier lies in [0, 1],
and the pattern matches the limit's signs on every datum that clears its
boundary.
"""

from __future__ import annotations

import itertools
import json
import math
import re
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .dataset import Dataset, check_count, check_point, freeze_fields, matrix_rank
from .errors import NumericalError, PreconditionError
from .expsum import TERMINAL_HORIZON_RATES, TIE_RTOL, ExpSum, RootBatch, tied
from .geometry import BOUNDARY_MARGIN, ActivationPattern, active_matrices, clearance
from .geometry import pattern_system
from .landscape import gradient

# The face rule tries all 3^|B| assignments of at most FACE_MAX_DATA data.
FACE_MAX_DATA = 8

OFF, ON, HELD = 0, 1, 2  # a datum's state at an event; off and on are its bit

# Every trajectory CSV asks sample_trajectory for CSV_SAMPLES points.
CSV_SAMPLES = 400

# A limit is stationary when its field is at most CONVERGE_RTOL * |X|_F *
# (|X|_F |w| + |y|), the roundoff scale of X (X^T w - y): a backward error,
# so the verdict does not change when the data are only rescaled.
CONVERGE_RTOL = 1e-12

# A flow ends "event-cap" after EVENT_CAP_FACTOR * n * d events.
EVENT_CAP_FACTOR = 10

# The descent proxy's step and iteration count where none is given (the CLI and the scenarios).
DESCENT_LR = 0.005
DESCENT_ITERS = 20000


@dataclass(frozen=True)
class FlowSegment:
    """One exact piece of the flow: spectral data plus its time span.

    The solution is ``w(t) = target + sum_k exp(-lam_k (t - t_start)) *
    delta_k * e_k`` where only strictly positive rates appear; null
    coordinates of the generator are conserved and folded into ``target``.
    ``t_end`` is ``inf`` on a terminal segment; ``held`` lists the data held on their boundaries.
    """

    t_start: float
    t_end: float
    w_start: np.ndarray
    pattern: ActivationPattern
    eigenvalues: np.ndarray  # (r,) strictly positive, descending
    eigenvectors: np.ndarray  # (d, r) orthonormal columns
    target: np.ndarray  # analytic limit of this segment's dynamics
    delta: np.ndarray  # (r,) eigen-coordinates of w_start - target
    held: tuple[int, ...] = ()

    def __post_init__(self):
        freeze_fields(self, "w_start", "eigenvalues", "eigenvectors", "target", "delta")

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start

    def value_local(self, tau):
        """Flow point(s) at local time(s) ``tau`` since ``t_start``."""
        tau = np.asarray(tau, dtype=float)
        decay = np.exp(-np.multiply.outer(tau, self.eigenvalues))
        return self.target + (decay * self.delta) @ self.eigenvectors.T

    def derivative_local(self, tau):
        tau = np.asarray(tau, dtype=float)
        decay = np.exp(-np.multiply.outer(tau, self.eigenvalues))
        coeff = -(self.eigenvalues * self.delta)
        return (decay * coeff) @ self.eigenvectors.T

    def observable(self, v, offset: float = 0.0) -> ExpSum:
        """The exponential sum ``v . w(tau) - offset`` along the segment."""
        consts, coeffs = self.observables(np.asarray(v, dtype=float)[None], offset)
        return ExpSum(consts[0], coeffs[0], self.eigenvalues)

    def observables(self, vs: np.ndarray, offsets=0.0) -> tuple[np.ndarray, np.ndarray]:
        """Constants (m,) and coefficients (m, r) of ``vs[i] . w(tau) - offsets[i]``: stacked
        per-row products, each row bitwise that of ``observable(vs[i])`` with the same strides."""
        consts = np.matmul(vs[:, None, :], self.target[:, None])[:, 0, 0] - offsets
        return consts, np.matmul(vs[:, None, :], self.eigenvectors)[:, 0] * self.delta

    def norm_slope(self) -> ExpSum:
        """``g = -w . dw/dt`` along the segment: with orthonormal ``e_k``, the sum
        ``sum_k lam_k delta_k (target . e_k) e^{-lam_k tau} + lam_k delta_k^2 e^{-2 lam_k tau}``."""
        lam = self.eigenvalues
        coeffs = np.concatenate([lam * self.delta * (self.target @ self.eigenvectors), lam * self.delta**2])
        return ExpSum(0.0, coeffs, np.concatenate([lam, 2.0 * lam]))

    def covers(self, tau: float) -> bool:
        """Whether local time ``tau`` lies on the segment or ties with its end (:func:`~reluflow.expsum.tied`)."""
        return not np.isfinite(self.t_end) or tied(self.duration, tau)

    def local_horizon(self) -> float:
        """Finite sampling horizon: the duration, or the decay horizon if infinite."""
        if np.isfinite(self.t_end):
            return self.duration
        return TERMINAL_HORIZON_RATES / float(self.eigenvalues[-1]) if self.eigenvalues.size else 1.0


@dataclass(frozen=True)
class FlowEvent:
    """One datum changing state; ``before`` and ``after`` are the ``(pattern, held)`` faces it
    leaves and enters, as in :attr:`Trajectory.terminal_face`."""

    t: float
    index: int
    point: np.ndarray
    before: tuple[ActivationPattern, tuple[int, ...]]
    after: tuple[ActivationPattern, tuple[int, ...]]

    def __post_init__(self):
        freeze_fields(self, "point")

    def states(self) -> tuple[int, int]:
        """The datum's state (OFF, ON or HELD) on the ``before`` face and on the ``after`` face."""
        j = self.index
        return tuple(ON if p.bits[j] else HELD if j in held else OFF for p, held in (self.before, self.after))

    @property
    def kind(self) -> str:
        """Read off :meth:`states`: "activation" (turns on), "deactivation" (on to off) or "sliding"
        (held or let go)."""
        old, new = self.states()
        return "activation" if new == ON else "deactivation" if (old, new) == (ON, OFF) else "sliding"

    def to_json(self) -> dict:
        return {"t": self.t, "index": self.index, "kind": self.kind, "point": self.point.tolist()}


@dataclass(frozen=True)
class Trajectory:
    """Ordered exact segments, the event log, and the terminal verdict.

    Only segments the flow moves on are kept (a run capped before it moves
    keeps its one closed segment); each event records the faces it joins.
    ``terminal`` is one of ``converged`` (limit certified stationary on its
    face, with the segment's pattern), ``horizon`` (t_max reached),
    ``event-cap`` (too many events), or ``degenerate`` (the limit exists
    but could not be certified).  ``terminal_point`` is the analytic limit when available,
    otherwise the last computed point.  A converged terminal is identified by
    its face key, ``terminal_face``, not by its distance to a minimizer set.
    """

    dataset: Dataset
    segments: tuple[FlowSegment, ...]
    events: tuple[FlowEvent, ...]
    terminal: str
    terminal_point: np.ndarray
    linear: bool = False

    def __post_init__(self):
        freeze_fields(self, "terminal_point")

    @property
    def terminal_face(self) -> tuple[ActivationPattern, tuple[int, ...]] | None:
        """The last segment's ``(pattern, held)`` when the run converged, else None."""
        if self.terminal != "converged":
            return None
        last = self.segments[-1]
        return last.pattern, last.held

    def at(self, t: float) -> np.ndarray:
        """Exact flow point at absolute time ``t``; at ``inf``, the limit.  A run that
        stopped (``horizon``, ``event-cap``) has no point past its last segment."""
        if not t >= 0.0:
            raise PreconditionError(f"time must be nonnegative, got {t}")
        for seg in self.segments:
            if t <= seg.t_end:
                return seg.value_local(max(t - seg.t_start, 0.0))
        last = self.segments[-1]
        if not last.covers(t - last.t_start):
            raise PreconditionError(f"time {t} is past the end of a run that ended {self.terminal} at {last.t_end}")
        return last.value_local(t - last.t_start)


def _segment_from(
    ds: Dataset,
    pattern: ActivationPattern,
    w_start: np.ndarray,
    t_start: float,
    held: tuple[int, ...] = (),
) -> FlowSegment:
    """Exact spectral segment for the current active set.

    A held segment runs the active columns projected off the held data's
    span; the held gaps are conserved null coordinates, zero to roundoff.
    """
    system = pattern_system(ds, pattern, held)
    w_start = np.asarray(w_start, dtype=float)
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
        held=held,
    )
    if not (np.all(np.isfinite(target)) and np.all(np.isfinite(delta))):
        raise NumericalError("non-finite spectral data in flow segment")
    return seg


def _next_event(ds: Dataset, seg: FlowSegment) -> tuple[float, dict[int, int]]:
    """``(tau, heading)``: the next event's local time and the side (OFF or ON) each datum in it heads to.

    Rows, each datum's gap crossing to the side it is not on (held data's skipped) and each held
    multiplier less 0 (off) and less 1 (on), are isolated in order of their batch bounds until the
    next bound no longer ties with the best zero.  The earliest zeros that tie with it are the event;
    the lowest index among them sets its time.  With no event the result is ``(inf, {})``."""
    consts, coeffs = seg.observables(ds.x.T)
    rows = [(k, 1 - bit, 1 if bit == OFF else -1) for k, bit in enumerate(seg.pattern.bits)]
    if seg.held:
        alphas, alpha_coeffs = _multipliers(ds, seg)
        consts = np.concatenate((consts, alphas, alphas - 1.0))
        coeffs = np.concatenate((coeffs, alpha_coeffs, alpha_coeffs))
        rows += [(j, OFF, -1) for j in seg.held] + [(j, ON, 1) for j in seg.held]
    batch = RootBatch(seg.eigenvalues, coeffs, consts)
    lower = batch.lower.copy()
    lower[list(seg.held)] = np.inf
    found, best = [], np.inf
    for i in np.argsort(lower, kind="stable").tolist():
        if np.isinf(lower[i]) or not tied(best, lower[i]):
            break
        index, side, after = rows[i]
        root = next((r for r in batch.roots(i) if r.is_crossing and r.after == after), None)
        if root is not None:
            found.append((root.t, index, side))
            best = min(best, root.t)
    event = [c for c in found if tied(best, c[0])]
    return min(event, key=lambda c: c[1], default=(math.inf,))[0], {index: side for _, index, side in event}


def _multipliers(ds: Dataset, seg: FlowSegment) -> tuple[np.ndarray, np.ndarray]:
    """Each held datum's multiplier along the segment, as :meth:`FlowSegment.observables`
    rows: the field ``g_p(w) - X_S diag(y_S) alpha`` stays on the face for
    ``alpha = diag(y_S)^-1 (X_S^T X_S)^-1 X_S^T g_p(w)``, linear in w."""
    held = list(seg.held)
    xs = ds.x[:, held]
    rows = np.linalg.solve(xs.T @ xs, xs.T) / ds.y[held][:, None]
    hmat, qvec = active_matrices(ds, seg.pattern)
    return seg.observables(np.array([hmat @ row for row in rows]), np.array([float(row @ qvec) for row in rows]))


def _face_states(ds: Dataset, state: np.ndarray, b: list[int], heading: dict, w) -> np.ndarray | None:
    """The states (OFF, ON or HELD) of the data ``b`` of B after an event at ``w``, or None.

    ``state`` holds every datum's state before the event; ``heading`` maps
    each datum that reached its boundary, or whose multiplier left [0, 1],
    to the side it heads to.  The first consistent assignment by total
    preference rank (ties in index order) is taken; if it changes nothing
    (a tangency), the first with no such datum keeping its old state.  With
    more than FACE_MAX_DATA data in B only the preferred assignment is
    tried, then every datum off (the rest state wherever g0 = 0, as at the
    origin).  An alignment within ``TIE_RTOL`` of ``|x_j| (|g0| + sum_B
    |y_l| |x_l|)`` counts as zero.
    """
    rest = state == ON
    rest[b] = False
    xa = ds.x[:, rest]
    g0 = xa @ xa.T @ w - xa @ ds.y[rest]
    xb, yb = ds.x[:, b], ds.y[b]
    norms = np.linalg.norm(xb, axis=0)
    tie = TIE_RTOL * norms * (np.linalg.norm(g0) + float(np.abs(yb) @ norms))

    def consistent(states: np.ndarray) -> bool:
        on, hold = states == ON, states == HELD
        g = g0 - xb[:, on] @ yb[on]
        if hold.any():
            xs, ys = xb[:, hold], yb[hold]
            if matrix_rank(xs / norms[hold]) < hold.sum() or not np.all(ys):
                return False  # dependent columns, or a term that vanishes on its boundary
            alpha = np.linalg.solve(xs.T @ xs, xs.T @ g) / ys
            if not np.all((alpha > 0.0) & (alpha < 1.0)):
                return False
            g = g - xs @ (ys * alpha)
        align = xb.T @ g
        return bool(np.all(hold | (on & (align <= tie)) | (~on & (align >= -tie))))

    before = state[b]
    for stay in (True, False):
        prefs = [
            [s for s in (heading[j], HELD, 1 - heading[j]) if stay or s != old] if j in heading else (HELD, OFF, ON)
            for j, old in zip(b, before.tolist())
        ]
        if len(b) <= FACE_MAX_DATA:
            ranked = sorted(itertools.product(*(range(len(p)) for p in prefs)), key=sum)
            tries = [tuple(p[r] for p, r in zip(prefs, ranks)) for ranks in ranked]
        else:
            tries = [tuple(p[0] for p in prefs)]
            if all(OFF in p for p in prefs):
                tries.append((OFF,) * len(b))
        found = next((s for s in map(np.array, tries) if consistent(s)), None)
        if found is None or not stay or not np.array_equal(found, before):
            return found


def simulate_flow(ds: Dataset, w0, t_max: float = math.inf) -> Trajectory:
    """Exact event-driven trajectory of the rectified gradient flow from w0 up to ``t_max``."""
    if not t_max > 0.0:
        raise PreconditionError("t_max must be positive")
    w0 = check_point(ds, w0)
    t = 0.0
    w = w0
    state = (ds.x.T @ w0 > 0.0).astype(int)  # OFF, ON or HELD per datum
    face = (ActivationPattern(state == ON), ())  # no datum starts held
    segments: list[FlowSegment] = []
    events: list[FlowEvent] = []
    terminal = None
    terminal_point = w0

    while terminal is None:
        seg = _segment_from(ds, face[0], w, t, face[1])
        tau, heading = _next_event(ds, seg)
        if t + tau > t_max:
            segments.append(replace(seg, t_end=t_max))
            terminal = "horizon"
            terminal_point = seg.value_local(t_max - t)
            break
        if not heading:
            segments.append(seg)
            terminal = _classify_limit(ds, seg)
            terminal_point = seg.target
            break
        w_ev = seg.value_local(tau)
        if not np.all(np.isfinite(w_ev)):
            raise NumericalError("non-finite event point")
        t_ev = t + tau
        b = sorted(set(seg.held) | set(heading))
        states = _face_states(ds, state, b, heading, w_ev)
        if states is None:
            raise NumericalError(f"no consistent state for data {b} at t = {t_ev!r}")
        closed = replace(seg, t_end=t_ev)
        if t_ev > t:  # only a segment the flow moves on is kept
            segments.append(closed)
        # one event per changed datum in index order, each entering its own face
        for j, s in [(j, s) for j, s in zip(b, states.tolist()) if s != state[j]]:
            state[j] = s
            before, face = face, (ActivationPattern(state == ON), tuple(np.flatnonzero(state == HELD).tolist()))
            events.append(FlowEvent(t=t_ev, index=j, point=w_ev, before=before, after=face))
        t = t_ev
        w = w_ev
        terminal_point = w_ev
        if len(events) >= EVENT_CAP_FACTOR * ds.n * ds.d:
            terminal = "event-cap"
            if not segments:  # a run that never moved keeps its last segment
                segments.append(closed)
            break

    return Trajectory(
        dataset=ds,
        segments=tuple(segments),
        events=tuple(events),
        terminal=terminal,
        terminal_point=terminal_point,
    )


def _converge_bound(ds: Dataset, w) -> float:
    """The largest field norm at ``w`` that counts as stationary (CONVERGE_RTOL)."""
    scale = np.linalg.norm(ds.x)
    return CONVERGE_RTOL * scale * (scale * np.linalg.norm(w) + np.linalg.norm(ds.y))


def _classify_limit(ds: Dataset, seg: FlowSegment) -> str:
    """A limit converges when the segment's field there, projected on its
    face, is within :func:`_converge_bound`, each held multiplier lies in
    [0, 1] up to an alignment of that bound, and the pattern matches the
    limit's signs on every datum that clears its boundary by BOUNDARY_MARGIN
    (a datum on its boundary off the face has multiplier 0 or 1 by its bit).
    """
    limit = seg.target
    bits = seg.pattern.as_bool()
    held = list(seg.held)
    h = ds.x.T @ limit
    alpha = _multipliers(ds, seg)[0] if held else np.empty(0)
    field = ds.x[:, bits] @ (h[bits] - ds.y[bits]) - ds.x[:, held] @ (ds.y[held] * alpha)
    outside = np.maximum(np.maximum(-alpha, alpha - 1.0), 0.0)
    push = outside * np.abs(ds.y[held]) * np.linalg.norm(ds.x[:, held], axis=0)
    c = clearance(ds, limit)
    clear = np.abs(c) >= BOUNDARY_MARGIN
    bound = _converge_bound(ds, limit)
    ok = np.linalg.norm(field) <= bound and np.all(push <= bound)
    return "converged" if ok and np.all((c[clear] > 0.0) == bits[clear]) else "degenerate"


def simulate_linear_flow(ds: Dataset, w0) -> Trajectory:
    """Single-segment exact flow of the unrectified least-squares problem.

    The terminal point is the minimum-norm solution plus the conserved
    null component of ``w0``.  The segment carries the all-ones pattern
    label since every datum contributes throughout.
    """
    w0 = check_point(ds, w0)
    pattern = ActivationPattern(tuple([1] * ds.n))
    seg = _segment_from(ds, pattern, w0, 0.0)
    grad_norm = float(np.linalg.norm(ds.x @ (ds.x.T @ seg.target - ds.y)))
    terminal = "converged" if grad_norm <= _converge_bound(ds, seg.target) else "degenerate"
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

    It shares the exact trajectory's artifact interface: ``events`` are ``FlowEvent`` records
    between the strict-sign faces of two iterates, and :func:`trajectory_to_csv` samples the iterates.
    """

    dataset: Dataset
    lr: float
    iterates: np.ndarray  # (iters + 1, d)
    events: tuple[FlowEvent, ...]

    linear = False  # the proxy descends the rectified loss

    def __post_init__(self):
        freeze_fields(self, "iterates")

    @property
    def terminal_point(self) -> np.ndarray:
        """The last iterate."""
        return self.iterates[-1]

    def at(self, t: float) -> np.ndarray:
        """The iterate nearest pseudo-time ``t``; past the run, the last one."""
        if not t >= 0.0:
            raise PreconditionError(f"time must be nonnegative, got {t}")
        return self.iterates[round(min(t / self.lr, len(self.iterates) - 1))]


def simulate_gd(ds: Dataset, w0, lr: float, iters: int) -> GDRun:
    """Fixed-step descent with the strict-indicator gradient.

    Each sign flip between two iterates is an event at pseudo-time ``iteration * lr``
    (by step, then by data index) between their strict-sign faces, so event sequences
    are comparable with the exact engine's.  The start is checked as the exact engines
    check it; a run whose iterate leaves the finite range raises ``NumericalError``.
    """
    w0 = check_point(ds, w0)
    if not (np.isfinite(lr) and lr > 0.0):
        raise PreconditionError("lr must be positive and finite")
    iters = check_count(iters, "iters")
    iterates = np.empty((iters + 1, ds.d))
    iterates[0] = w0
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(iters):
            iterates[k + 1] = iterates[k] - lr * gradient(ds, iterates[k])
    finite = np.isfinite(iterates).all(axis=1)
    if not finite.all():
        raise NumericalError(f"descent left the finite range at iteration {int(np.argmin(finite))}")
    on = _row_products(ds.x.T, iterates) > 0.0
    steps, data = np.nonzero(on[1:] != on[:-1])
    events = tuple(
        FlowEvent(t=(k + 1) * lr, index=j, point=iterates[k + 1],
                  before=(ActivationPattern(on[k]), ()), after=(ActivationPattern(on[k + 1]), ()))
        for k, j in zip(steps.tolist(), data.tolist())
    )
    return GDRun(dataset=ds, lr=lr, iterates=iterates, events=events)


def sample_trajectory(tr: Trajectory | GDRun, samples: int) -> list[tuple[float, np.ndarray]]:
    """Uniform-in-segment-local-time sample points (t, w(t)).

    Infinite terminal segments are sampled up to their decay horizon and
    the analytic limit is appended as the final row.  A descent run is
    sampled at every ``len(iterates) // samples``-th iterate, ending at its last.
    """
    return _sample_rows(tr, samples)[0]


def _sample_rows(tr: Trajectory | GDRun, samples: int) -> tuple[list[tuple[float, np.ndarray]], list[int]]:
    """``sample_trajectory``'s rows and the segment each lies on (none for a descent run)."""
    if samples < 2:
        raise PreconditionError("need at least 2 samples")
    if isinstance(tr, GDRun):
        last = len(tr.iterates) - 1
        stride = max(1, len(tr.iterates) // samples)
        return [(k * tr.lr, tr.iterates[k]) for k in [*range(0, last, stride), last]], []
    n_seg = len(tr.segments)
    base = max(2, samples // n_seg)
    rows, on = [], []
    for i, seg in enumerate(tr.segments):
        horizon = seg.local_horizon()
        count = base if i < n_seg - 1 else max(2, samples - base * (n_seg - 1))
        taus = np.linspace(0.0, horizon, count)
        rows.extend(zip((seg.t_start + taus).tolist(), seg.value_local(taus)))
        on += [i] * count
    if not np.isfinite(tr.segments[-1].t_end):
        rows.append((tr.segments[-1].t_start + tr.segments[-1].local_horizon(), tr.terminal_point))
        on.append(n_seg - 1)
    return rows, on


def norm_certificate(tr: Trajectory) -> tuple[int, float] | None:
    """First (segment index, local time) from which |w| stops growing strictly, or None.

    |w| grows on a segment iff its :meth:`FlowSegment.norm_slope` g is below 0 there,
    but for touches from below and a zero at tau = 0 that g leaves downwards (as from
    the origin); g identically 0 is not growth, nor is a segment that starts at its
    limit to within ``TIE_RTOL``.  Every segment is read, the zero-length one kept by
    a run that reached ``event-cap`` without moving too.
    """
    for i, seg in enumerate(tr.segments):
        if np.linalg.norm(seg.delta) <= TIE_RTOL * max(1.0, float(np.linalg.norm(seg.target))):
            return i, 0.0
        g = seg.norm_slope()
        roots = g.roots()
        # g >= 0 before its first root (whose 'before' is 0 only at tau = 0), or throughout
        if roots[0].before == 1 if roots else g.value(0.0) >= 0.0:
            return i, 0.0
        stop = next((r.t for r in roots if r.after != -1 and seg.covers(r.t)), None)
        if stop is not None:
            return i, stop
    return None


def count_hyperplane_crossings(tr: Trajectory, v, c: float) -> int:
    """Sign changes of ``v . w(t) - c`` along the whole trajectory.

    Uses per-segment root isolation of the exponential sum; touches do
    not count, a start exactly on the hyperplane counts once when the
    flow immediately leaves it.
    """
    total = 0
    last_t = -np.inf
    for seg, f in zip(tr.segments, _observables(tr, v, c)):
        for root in f.roots():
            if not (root.is_crossing and seg.covers(root.t)):
                continue
            t_abs = seg.t_start + root.t
            if tied(last_t, t_abs):
                continue
            total += 1
            last_t = t_abs
    return total


def segment_root_counts(tr: Trajectory, v, c: float) -> list[tuple[int, int]]:
    """(number of isolated roots, number of exponential terms) per segment."""
    return [(len(f.roots()), f.n_terms) for f in _observables(tr, v, c)]


def _observables(tr: Trajectory, v, c: float) -> list[ExpSum]:
    """``v . w(tau) - c`` on each segment, ``v`` a finite point of the dataset's dimension and ``c`` finite."""
    v = check_point(tr.dataset, v, "v")
    if not math.isfinite(c := float(c)):
        raise PreconditionError(f"c must be finite, got {c!r}")
    return [seg.observable(v, offset=c) for seg in tr.segments]


def revisit_report(tr: Trajectory | GDRun) -> tuple[int, ...]:
    """Data indices that are active, later off (neither active nor held) and later active again
    (empty = no revisit), each datum's states read from its events' ``before`` and ``after`` faces."""
    states: dict[int, str] = {}  # each datum's states in order: 1 on, 0 off, 2 held
    for ev in tr.events:
        states[ev.index] = states.get(ev.index, "") + "".join(map(str, ev.states()))
    return tuple(sorted(j for j, seq in states.items() if re.search("1.*0.*1", seq)))


def events_to_jsonl(tr: Trajectory | GDRun) -> str:
    """One JSON line per event, keys sorted."""
    return "".join(json.dumps(ev.to_json(), sort_keys=True) + "\n" for ev in tr.events)


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a[i] @ b[i]`` for every row as one stacked matmul, bitwise each row's dot product."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _row_products(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``m @ v[i]`` for every row as one stacked matmul, bitwise each row's product."""
    return np.matmul(m[None], v[:, :, None])[:, :, 0]


def trajectory_to_csv(tr: Trajectory | GDRun) -> str:
    """Plot-ready CSV of an exact, linear or descent run: t, w_1..w_d, loss, norm, g, pattern bits.

    ``pattern`` and ``g`` are those of the segment a row lies on, or of a descent
    iterate's strict signs.  All rows are evaluated in one pass of stacked
    ``matmul`` products, which numpy computes slice by slice with the kernel of
    the per-row product, so each cell is bitwise its per-row definition;
    ``X_a X_a^T`` and ``X_a y_a`` are built once per distinct pattern.
    """
    ds = tr.dataset
    samples, on = _sample_rows(tr, CSV_SAMPLES)
    ts, ws = zip(*samples)
    w = np.array(ws)
    h = _row_products(ds.x.T, w)
    if tr.linear:
        r = h - ds.y
        g = _row_dots(w, _row_products(ds.x, r))
        masks, which = np.ones((1, ds.n), dtype=bool), np.zeros(len(w), dtype=int)
    else:
        r = np.maximum(h, 0.0) - ds.y
        g = np.empty(len(w))
        signs = np.array([seg.pattern.bits for seg in tr.segments], dtype=bool) if on else h > 0.0
        masks, which = np.unique(signs, axis=0, return_inverse=True)
        which = which.ravel()[on] if on else which.ravel()
        for k, mask in enumerate(masks):
            rows = which == k
            xa = ds.x[:, mask]
            g[rows] = _row_dots(w[rows], _row_products(xa @ xa.T, w[rows]) - xa @ ds.y[mask])
    pats = ["".join("1" if b else "0" for b in mask.tolist()) for mask in masks]
    cells = np.column_stack([ts, w, 0.5 * _row_dots(r, r), np.sqrt(_row_dots(w, w)), g]).tolist()
    header = ["t"] + [f"w_{i + 1}" for i in range(ds.d)] + ["loss", "norm", "g", "pattern"]
    lines = [",".join(header)]
    lines += [",".join(map(repr, row)) + "," + pats[k] for row, k in zip(cells, which.tolist())]
    return "\n".join(lines) + "\n"


def write_run(out_dir, stem: str, tr: Trajectory | GDRun) -> tuple[str, str]:
    """Write a run's ``{stem}.csv`` and ``{stem}-events.jsonl`` into ``out_dir``;
    return the two file names."""
    csv_name, events_name = f"{stem}.csv", f"{stem}-events.jsonl"
    (Path(out_dir) / csv_name).write_text(trajectory_to_csv(tr), encoding="utf-8")
    (Path(out_dir) / events_name).write_text(events_to_jsonl(tr), encoding="utf-8")
    return csv_name, events_name
