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

from .dataset import Dataset, RANK_RTOL, freeze_fields
from .errors import GeometryError, StructuralError
from .geometry import BOUNDARY_MARGIN, ActivationPattern, clearance, enumerate_partitions
from .geometry import pattern_feasible, pattern_system

# A point interpolates the data when its loss is at most INTERPOLATION_TOL.
INTERPOLATION_TOL = 1e-10

# One loss undercuts another only when it is lower by more than
# LOSS_ORDER_RTOL * max(1, |other loss|).
LOSS_ORDER_RTOL = 1e-9

# A point is a census minimum when it lies within MATCH_TOL of that
# minimum's minimizer set (and in its partition's closure).
MATCH_TOL = 1e-6


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
        freeze_fields(self, "point", "null_basis", "witness")

    @property
    def support(self) -> tuple[int, ...]:
        return self.pattern.active_indices

    def set_distance(self, w) -> float:
        """Euclidean distance from ``w`` to the full minimizer set."""
        delta = np.asarray(w, dtype=float) - self.point
        if self.null_basis.size:
            delta = delta - self.null_basis @ (self.null_basis.T @ delta)
        return float(np.linalg.norm(delta))

    def matches(self, ds: Dataset, w) -> bool:
        """Whether ``w`` is this minimum: within ``MATCH_TOL`` of the
        minimizer set and in the partition closure.

        The set test alone is not an identification: with interpolatable
        labels one point can minimize many patterns' quadratics at once,
        but it is a given pattern's local minimum only where that
        pattern's activation signs actually hold.
        """
        w = np.asarray(w, dtype=float)
        if self.set_distance(w) > MATCH_TOL:
            return False
        c = clearance(ds, w)
        active = self.pattern.as_bool()
        return bool(np.all(c[active] >= -BOUNDARY_MARGIN) and np.all(c[~active] <= BOUNDARY_MARGIN))


def _affine_margin_lp(ds, pattern, p, null_basis, push_inactive: bool):
    """Maximize boundary clearance over the minimizer set's free coordinates.

    Active data must clear their boundaries by the objective value t; with
    ``push_inactive`` the deactivated data must clear by t as well,
    otherwise they are merely held at or below zero.
    """
    unit = ds.x / np.linalg.norm(ds.x, axis=0)
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
    res = linprog(c, A_ub=np.vstack(a_ub), b_ub=np.concatenate(b_ub), bounds=bounds, method="highs")
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
    weak_point, weak_t = _affine_margin_lp(ds, pattern, p, null_basis, push_inactive=False)
    if weak_point is None or weak_t <= BOUNDARY_MARGIN * max(1.0, float(np.linalg.norm(p))):
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
    With ``check_feasible`` the pattern must be a cell of the partition
    (:func:`geometry.pattern_feasible`).
    """
    if len(pattern) != ds.n:
        raise StructuralError("pattern length does not match dataset")
    if check_feasible and not pattern_feasible(ds, pattern):
        raise GeometryError(f"pattern {pattern} is not a feasible partition")
    active = pattern.as_bool()
    total_inactive = 0.5 * float(np.sum(ds.y[~active] ** 2))
    if not np.any(active):
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
        # active data clear their boundaries; deactivated data may sit on theirs up to 1e-12
        c = clearance(ds, point)
        contained = bool(np.all(c[active] > BOUNDARY_MARGIN) and np.all(c[~active] <= 1e-12))
        witness = point if contained else None
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


def compare_support_losses(census: MinimaCensus) -> SupportOrderingReport:
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
            if pair.margin < -LOSS_ORDER_RTOL * max(1.0, abs(pair.loss_outer)):
                holds = False
    return SupportOrderingReport(pairs=tuple(pairs), holds=holds)


def linear_least_squares(ds: Dataset) -> tuple[np.ndarray, float]:
    """Minimum-norm least-squares weights over all data and their loss."""
    w, *_ = np.linalg.lstsq(ds.x.T, ds.y, rcond=RANK_RTOL)
    r = ds.x.T @ w - ds.y
    return w, 0.5 * float(r @ r)


def relu_vs_linear_gap(ds: Dataset, census: MinimaCensus) -> tuple[float, float]:
    """(rectified global loss of ``ds``'s census, linear least-squares loss).

    The first never exceeds the second.
    """
    candidates = [m.loss for m in census.minima]
    if census.stationary_cone is not None:
        candidates.append(census.stationary_cone.loss)
    if not candidates:
        raise GeometryError("no interior stationary candidates in the census")
    _, lin = linear_least_squares(ds)
    return min(candidates), lin


def census_to_jsonl(census: MinimaCensus) -> str:
    """One JSON line per census entry (pattern, point, loss, support, contained)."""
    entries = [("minimum", m) for m in census.minima]
    if census.stationary_cone is not None:
        entries.append(("stationary-cone", census.stationary_cone))
    records = (
        {
            "kind": kind,
            "pattern": m.pattern.to_string(),
            "point": m.point.tolist(),
            "loss": m.loss,
            "support": list(m.support),
            "contained": m.contained,
        }
        for kind, m in entries
    )
    return "\n".join(json.dumps(r, sort_keys=True) for r in records) + "\n"
