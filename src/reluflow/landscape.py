"""Loss surface of rectified single-neuron regression.

On each partition the loss is a convex quadratic in the active data, plus
a constant from the labels of deactivated data.  Every partition has a
virtual minimizer (the minimum-norm least-squares point of its active
data), which may or may not lie inside the partition; the census below
collects exactly the partitions that do contain theirs, which are the
only candidates for interior local minima.  The census groups its
patterns by active count: one stacked spectral kernel call per group
gives every point and null basis, and one clearance product decides the
group's full-rank containment.  A rank-deficient pattern contains its
minimizer when its affine minimizer set meets the open cell, which is
whether one open polyhedral cone is nonempty: a least-distance program
(a single NNLS solve) decides it, and its max-margin direction gives the
witness; one ``geometry.cone_witness`` call takes every such cone of an
(active count, rank) group.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset, RANK_RTOL, freeze_fields
from .errors import GeometryError, StructuralError
from .expsum import TIE_RTOL
from .geometry import BOUNDARY_MARGIN, ActivationPattern, partition_rows
from .geometry import clearance, cone_witness, pattern_spectra

# A point interpolates the data when its loss is at most INTERPOLATION_RTOL * 0.5 |y|^2, the loss at 0.
INTERPOLATION_RTOL = 1e-10

# A loss undercuts another only when lower by more than LOSS_ORDER_RTOL * max(1, |other loss|).
LOSS_ORDER_RTOL = 1e-9


def loss(ds: Dataset, w) -> float:
    """Half the summed squared residuals of the rectified responses."""
    w = np.asarray(w, dtype=float)
    r = np.maximum(ds.x.T @ w, 0.0) - ds.y
    return 0.5 * float(r @ r)


def interpolates(ds: Dataset, w) -> bool:
    """Whether ``w``'s loss is at most ``INTERPOLATION_RTOL`` times the loss at the origin."""
    return loss(ds, w) <= INTERPOLATION_RTOL * 0.5 * float(ds.y @ ds.y)


def undercuts(a: float, b: float) -> bool:
    """Whether loss ``a`` is lower than loss ``b`` by more than ``LOSS_ORDER_RTOL * max(1, |b|)``."""
    return b - a > LOSS_ORDER_RTOL * max(1.0, abs(b))


def linear_loss(ds: Dataset, w) -> float:
    r = ds.x.T @ np.asarray(w, dtype=float) - ds.y
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


def _virtual_minimizers(ds: Dataset, masks: np.ndarray, keep_all: bool = False) -> list[VirtualMinimizer]:
    """Each boolean row of ``masks`` (m, n) as a pattern's minimum-norm minimizer and
    containment, by active count: one :func:`pattern_spectra` call and one clearance
    product per group.  The witness is ``point`` at full rank, else a member of the
    minimizer set ``p + N z`` strictly on the deactivated side of every datum off, read
    from one :func:`cone_witness` call per rank of a group: active data clear every member
    as they clear ``p``, and in homogeneous coordinates ``(z, s)``, ``p`` scaled by
    ``1 / max(1, |p|)``, the set meets the cell exactly when the open cone "s positive,
    every deactivated datum negative" is nonempty (a datum whose column vanishes there is
    zeroed, so absent); its max-margin direction is the member, found when it clears every
    other column by more than ``BOUNDARY_MARGIN``.  It is contained when its active data clear their boundaries by
    more than ``BOUNDARY_MARGIN`` and its deactivated data sit at a relative clearance of at
    most ``TIE_RTOL``.  Rows neither contained nor all-off are left out, unless ``keep_all``.
    """
    counts = masks.sum(axis=1)
    out: list[VirtualMinimizer | None] = [None] * len(masks)
    for k in set(counts.tolist()):
        rows = np.flatnonzero(counts == k)
        group = masks[rows]
        active = np.nonzero(group)[1].reshape(len(rows), k)
        u, _, ranks, points = pattern_spectra(ds, active)
        resid = np.matmul(ds.x[:, active].transpose(1, 2, 0), points[:, :, None])[:, :, 0] - ds.y[active]
        inactive = ds.y[np.nonzero(~group)[1].reshape(len(rows), ds.n - k)]
        losses = 0.5 * np.matmul(resid[:, None, :], resid[:, :, None])[:, 0, 0] + 0.5 * np.sum(inactive**2, axis=1)
        witnesses = points.copy()
        for r in set(ranks[ranks < ds.d].tolist()):
            sel = np.flatnonzero(ranks == r)
            x = ds.x[:, np.nonzero(~group[sel])[1].reshape(len(sel), ds.n - k)].transpose(1, 0, 2)
            unit, null, p = x / np.linalg.norm(x, axis=1)[:, None, :], u[sel][:, :, r:], points[sel]
            scale = np.maximum(1.0, np.linalg.norm(p, axis=1))
            cols = np.zeros((len(sel), ds.d - r + 1, ds.n - k + 1))  # column 0 is the s axis, the last row s
            cols[:, -1, 0], cols[:, :-1, 1:] = 1.0, np.matmul(null.transpose(0, 2, 1), unit)
            cols[:, -1, 1:] = np.matmul(p[:, None, :], unit)[:, 0] / scale[:, None]
            cols[:, :, 1:] *= -1.0  # the cone's normals: s positive, every deactivated datum negative
            cols *= (np.linalg.norm(cols, axis=1) > RANK_RTOL)[:, None, :]  # a vanished column is absent
            v = cone_witness(cols)  # a NaN row: the set misses its cell, and NaN fails both tests
            witnesses[sel] = p + np.matmul(null, (scale[:, None] * v[:, :-1] / v[:, -1:])[:, :, None])[:, :, 0]
        c = clearance(ds, witnesses.T)
        contained = np.all(np.where(group.T, c > BOUNDARY_MARGIN, c <= TIE_RTOL), axis=0)
        for i in np.flatnonzero(contained | keep_all | (k == 0)):
            witness = witnesses[i] if contained[i] else None
            out[rows[i]] = VirtualMinimizer(ActivationPattern(group[i].tolist()), points[i], u[i, :, ranks[i]:],
                                            int(ranks[i]), bool(contained[i]), float(losses[i]), witness)
    return [vm for vm in out if vm is not None]


def virtual_minimizer(ds: Dataset, pattern: ActivationPattern) -> VirtualMinimizer:
    """Minimum-norm minimizer of the pattern's quadratic, with containment: :func:`_virtual_minimizers` of one."""
    if len(pattern) != ds.n:
        raise StructuralError("pattern length does not match dataset")
    return _virtual_minimizers(ds, pattern.as_bool()[None], keep_all=True)[0]


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

    def index_of(self, face) -> int | None:
        """Index of the entry whose pattern is the ``(pattern, held)`` face, such as
        ``Trajectory.terminal_face``.  None for no face, for a face that holds data
        (entries have no held set), and for a pattern with no entry."""
        if face is None or face[1]:
            return None
        return next((i for i, m in enumerate(self.minima) if m.pattern == face[0]), None)


def minima_census(ds: Dataset) -> MinimaCensus:
    """Exhaustive census of contained minimizers over the sign rows of
    ``partition_rows``, in their pattern order."""
    entries = _virtual_minimizers(ds, partition_rows(ds)[0])
    cone = next((vm for vm in entries if not any(vm.pattern.bits)), None)
    minima = [vm for vm in entries if vm is not cone]
    gi = min(range(len(minima)), default=None,
             key=lambda i: (minima[i].loss, len(minima[i].support), minima[i].pattern.to_string()))
    return MinimaCensus(tuple(minima), gi, tuple(m.support for m in minima), cone)


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
            if undercuts(pair.loss_inner, pair.loss_outer):
                holds = False
    return SupportOrderingReport(pairs=tuple(pairs), holds=holds)


def linear_least_squares(ds: Dataset) -> tuple[np.ndarray, float]:
    """Minimum-norm least-squares weights over all data and their loss."""
    w, *_ = np.linalg.lstsq(ds.x.T, ds.y, rcond=RANK_RTOL)
    return w, linear_loss(ds, w)


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
