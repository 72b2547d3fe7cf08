"""Loss surface of rectified single-neuron regression.

On each partition the loss is a convex quadratic in the active data, plus
a constant from the labels of deactivated data.  Every partition has a
virtual minimizer (the minimum-norm least-squares point of its active
data), which may or may not lie inside the partition; the census below
collects exactly the partitions that do contain theirs, which are the
only candidates for interior local minima.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from .dataset import Dataset, RANK_RTOL
from .errors import GeometryError
from .geometry import ActivationPattern, enumerate_partitions, pattern_system

# Strictness margin for deciding that a minimizer clears its boundaries.
CONTAINMENT_MARGIN = 1e-9


def loss(ds: Dataset, w) -> float:
    """Half the summed squared residuals of the rectified responses."""
    w = np.asarray(w, dtype=float)
    r = np.maximum(ds.x.T @ w, 0.0) - ds.y
    return 0.5 * float(r @ r)


def gradient(ds: Dataset, w) -> np.ndarray:
    """Strict-indicator (sub)gradient; boundary terms are excluded."""
    w = np.asarray(w, dtype=float)
    h = ds.x.T @ w
    mask = h > 0.0
    return ds.x[:, mask] @ (h[mask] - ds.y[mask])


@dataclass(frozen=True)
class VirtualMinimizer:
    """Minimizer data of one partition's quadratic loss.

    ``point`` is the minimum-norm minimizer; when the active Gram matrix
    is rank deficient the full minimizer set is ``point + span(null_basis)``
    and ``witness`` is a member of that set lying in the partition closure
    (``witness is None`` when the set misses the partition).  ``loss`` is
    the total loss of the quadratic piece, including the squared labels of
    the deactivated data, so it equals the true loss at any contained point.
    """

    pattern: ActivationPattern
    point: np.ndarray
    null_basis: np.ndarray
    rank: int
    contained: bool
    loss: float
    witness: np.ndarray | None

    def __post_init__(self):
        for name in ("point", "null_basis", "witness"):
            a = getattr(self, name)
            if a is None:
                continue
            a = np.array(a, dtype=float)
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    @property
    def support(self) -> tuple[int, ...]:
        return self.pattern.active_indices

    def set_distance(self, w) -> float:
        """Euclidean distance from ``w`` to the full minimizer set."""
        delta = np.asarray(w, dtype=float) - self.point
        if self.null_basis.size:
            delta = delta - self.null_basis @ (self.null_basis.T @ delta)
        return float(np.linalg.norm(delta))

    def matches(self, ds: Dataset, w, tol: float = 1e-6) -> bool:
        """Whether ``w`` is this minimum: on the minimizer set and in the
        partition closure.

        The set test alone is not an identification: with interpolatable
        labels one point can minimize many patterns' quadratics at once,
        but it is a given pattern's local minimum only where that
        pattern's activation signs actually hold.
        """
        w = np.asarray(w, dtype=float)
        if self.set_distance(w) > tol:
            return False
        h = ds.x.T @ w
        scale = np.linalg.norm(ds.x, axis=0) * max(1.0, float(np.linalg.norm(w)))
        active = self.pattern.as_bool()
        band = 1e-9 * scale
        return bool(np.all(h[active] >= -band[active]) and np.all(h[~active] <= band[~active]))


def _containment_full_rank(ds: Dataset, pattern: ActivationPattern, p: np.ndarray):
    scale = np.linalg.norm(ds.x, axis=0) * max(1.0, float(np.linalg.norm(p)))
    h = ds.x.T @ p
    active = pattern.as_bool()
    ok_active = np.all(h[active] > CONTAINMENT_MARGIN * scale[active])
    ok_inactive = np.all(h[~active] <= 1e-12 * scale[~active])
    return (bool(ok_active and ok_inactive), p if (ok_active and ok_inactive) else None)


def _affine_margin_lp(ds, pattern, p, null_basis, push_inactive: bool):
    """Maximize boundary clearance over the minimizer set's free coordinates.

    Active data must clear their boundaries by the objective value t; with
    ``push_inactive`` the deactivated data must clear by t as well,
    otherwise they are merely held at or below zero.
    """
    norms = np.linalg.norm(ds.x, axis=0)
    unit = ds.x / norms
    active = pattern.as_bool()
    k = null_basis.shape[1]
    rows_a = unit[:, active].T
    rows_i = unit[:, ~active].T
    a_ub = []
    b_ub = []
    if rows_a.size:
        a_ub.append(np.hstack([-(rows_a @ null_basis), np.ones((rows_a.shape[0], 1))]))
        b_ub.append(rows_a @ p)
    if rows_i.size:
        t_col = np.ones((rows_i.shape[0], 1)) if push_inactive else np.zeros((rows_i.shape[0], 1))
        a_ub.append(np.hstack([rows_i @ null_basis, t_col]))
        b_ub.append(-(rows_i @ p))
    c = np.zeros(k + 1)
    c[-1] = -1.0
    cap = 1.0 + float(np.linalg.norm(p))
    bounds = [(None, None)] * k + [(None, cap)]
    res = linprog(
        c,
        A_ub=np.vstack(a_ub),
        b_ub=np.concatenate(b_ub),
        bounds=bounds,
        method="highs",
    )
    if res.status != 0:
        return None, -np.inf
    return p + null_basis @ res.x[:k], float(res.x[-1])


def _containment_affine(ds: Dataset, pattern: ActivationPattern, p, null_basis):
    """Search the affine minimizer set for a point satisfying the pattern.

    Containment itself follows the weak conditions (strict on active data,
    at-most-zero on deactivated data); the returned witness additionally
    maximizes the clearance of all boundaries so downstream margin checks
    see a strictly interior point whenever one exists.
    """
    scale = max(1.0, float(np.linalg.norm(p)))
    weak_point, weak_t = _affine_margin_lp(ds, pattern, p, null_basis, push_inactive=False)
    if weak_point is None or weak_t <= CONTAINMENT_MARGIN * scale:
        return False, None
    interior_point, interior_t = _affine_margin_lp(
        ds, pattern, p, null_basis, push_inactive=True
    )
    if interior_point is not None and interior_t > 0.0:
        return True, interior_point
    return True, weak_point


def virtual_minimizer(
    ds: Dataset, pattern: ActivationPattern, *, check_feasible: bool = True
) -> VirtualMinimizer:
    """Minimum-norm minimizer of the pattern's quadratic, with containment.

    Containment follows the strict/weak sign conditions on active and
    inactive data; for rank-deficient patterns the whole affine minimizer
    set is searched, since any member inside the partition suffices.
    """
    if check_feasible:
        cells = {c.pattern.bits for c in enumerate_partitions(ds)}
        if pattern.bits not in cells:
            raise GeometryError(f"pattern {pattern} is not a feasible partition")
    active = pattern.as_bool()
    n_active = int(np.sum(active))
    total_inactive = 0.5 * float(np.sum(ds.y[~active] ** 2))
    if n_active == 0:
        return VirtualMinimizer(
            pattern=pattern,
            point=np.zeros(ds.d),
            null_basis=np.eye(ds.d),
            rank=0,
            contained=True,
            loss=total_inactive,
            witness=np.zeros(ds.d),
        )
    system = pattern_system(ds, pattern)
    point = system.point
    resid = ds.x[:, active].T @ point - ds.y[active]
    total = 0.5 * float(resid @ resid) + total_inactive
    if system.rank == ds.d:
        contained, witness = _containment_full_rank(ds, pattern, point)
    else:
        contained, witness = _containment_affine(ds, pattern, point, system.null_basis)
    return VirtualMinimizer(
        pattern=pattern,
        point=point,
        null_basis=system.null_basis,
        rank=system.rank,
        contained=contained,
        loss=total,
        witness=witness,
    )


@dataclass(frozen=True)
class MinimaCensus:
    """All partitions that contain their own minimizer.

    Entries are ordered by pattern string.  The all-deactivated cone is a
    flat stationary region rather than a point-like minimum, so it is kept
    out of ``minima`` and recorded separately in ``stationary_cone``.
    """

    minima: tuple[VirtualMinimizer, ...]
    global_index: int | None
    support_sets: tuple[tuple[int, ...], ...]
    stationary_cone: VirtualMinimizer | None

    def global_minimum(self) -> VirtualMinimizer:
        if self.global_index is None:
            raise GeometryError("census has no interior minima")
        return self.minima[self.global_index]


def minima_census(ds: Dataset) -> MinimaCensus:
    """Exhaustive census of contained minimizers over all feasible patterns."""
    cells = enumerate_partitions(ds)
    minima: list[VirtualMinimizer] = []
    cone: VirtualMinimizer | None = None
    for cell in cells:
        vm = virtual_minimizer(ds, cell.pattern, check_feasible=False)
        if not any(cell.pattern.bits):
            cone = vm
        elif vm.contained:
            minima.append(vm)
    minima.sort(key=lambda m: m.pattern.to_string())
    gi = None
    if minima:
        gi = min(
            range(len(minima)),
            key=lambda i: (
                minima[i].loss,
                len(minima[i].support),
                minima[i].pattern.to_string(),
            ),
        )
    return MinimaCensus(
        minima=tuple(minima),
        global_index=gi,
        support_sets=tuple(m.support for m in minima),
        stationary_cone=cone,
    )


@dataclass(frozen=True)
class NestedPair:
    outer: int  # index of the minimum with the larger support set
    inner: int  # index of the minimum whose support is a strict subset
    loss_outer: float
    loss_inner: float

    @property
    def margin(self) -> float:
        return self.loss_inner - self.loss_outer


@dataclass(frozen=True)
class SupportOrderingReport:
    pairs: tuple[NestedPair, ...]
    holds: bool

    def to_json(self) -> dict:
        return {
            "pairs": [
                {
                    "outer": p.outer,
                    "inner": p.inner,
                    "loss_outer": p.loss_outer,
                    "loss_inner": p.loss_inner,
                    "margin": p.margin,
                }
                for p in self.pairs
            ],
            "holds": self.holds,
        }


def compare_support_losses(census: MinimaCensus, slack: float = 1e-9) -> SupportOrderingReport:
    """Check that nested supports order the losses: fewer vectors, more loss."""
    pairs = []
    holds = True
    supports = [set(s) for s in census.support_sets]
    for i, s_outer in enumerate(supports):
        for j, s_inner in enumerate(supports):
            if i == j or not (s_inner < s_outer):
                continue
            pair = NestedPair(
                outer=i,
                inner=j,
                loss_outer=census.minima[i].loss,
                loss_inner=census.minima[j].loss,
            )
            pairs.append(pair)
            if pair.margin < -slack * max(1.0, abs(pair.loss_outer)):
                holds = False
    return SupportOrderingReport(pairs=tuple(pairs), holds=holds)


def linear_least_squares(ds: Dataset) -> tuple[np.ndarray, float]:
    """Minimum-norm least-squares weights over all data and their loss."""
    w, *_ = np.linalg.lstsq(ds.x.T, ds.y, rcond=RANK_RTOL)
    r = ds.x.T @ w - ds.y
    return w, 0.5 * float(r @ r)


def relu_vs_linear_gap(ds: Dataset) -> tuple[float, float]:
    """(rectified global loss, linear least-squares loss); the first never exceeds the second."""
    census = minima_census(ds)
    candidates = [m.loss for m in census.minima]
    if census.stationary_cone is not None:
        candidates.append(census.stationary_cone.loss)
    if not candidates:
        raise GeometryError("no interior stationary candidates in the census")
    _, lin = linear_least_squares(ds)
    return min(candidates), lin


def census_to_jsonl(census: MinimaCensus) -> str:
    """One JSON line per census entry (pattern, point, loss, support, contained)."""
    lines = []
    for m in census.minima:
        lines.append(
            json.dumps(
                {
                    "kind": "minimum",
                    "pattern": m.pattern.to_string(),
                    "point": m.point.tolist(),
                    "loss": m.loss,
                    "support": list(m.support),
                    "contained": m.contained,
                },
                sort_keys=True,
            )
        )
    if census.stationary_cone is not None:
        m = census.stationary_cone
        lines.append(
            json.dumps(
                {
                    "kind": "stationary-cone",
                    "pattern": m.pattern.to_string(),
                    "point": m.point.tolist(),
                    "loss": m.loss,
                    "support": [],
                    "contained": m.contained,
                },
                sort_keys=True,
            )
        )
    return "\n".join(lines) + "\n"
