"""Initialization-dependent certificates for the rectified flow.

These operations turn the qualitative picture (small initializations keep
data active, large ones shed data) into checkable numbers: the scaling
threshold at which a datum's gradient alignment flips sign, the
interpolation-ball condition that keeps a datum activated forever, the
resulting exclusion of minima missing protected data, and the four-part
spectral condition under which norm growth survives a boundary crossing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .dataset import Dataset
from .errors import (
    DegenerateDirectionError,
    NumericalError,
    PreconditionError,
    StructuralError,
)
from .flow import Trajectory
from .geometry import ActivationPattern, active_matrices, pattern_of, pattern_system
from .landscape import MinimaCensus, loss

INTERPOLATION_TOL = 1e-10


def alpha_star(ds: Dataset, w0, j: int) -> float:
    """Scaling threshold for datum j along the ray through ``w0``.

    With the pattern of ``w0`` held fixed, the gradient alignment
    ``grad L(a w0) . x_j`` is nonnegative exactly for ``a`` at or above
    the returned value, provided the denominator ``x_j . H w0`` is
    positive (it is whenever A1 data are all activated at ``w0``).
    """
    w0 = np.asarray(w0, dtype=float)
    xj = ds.x[:, j]
    hmat, qvec = active_matrices(ds, pattern_of(ds, w0))
    denom = float(xj @ (hmat @ w0))
    if abs(denom) < 1e-12:
        raise DegenerateDirectionError(
            f"x_{j} . H w0 = {denom:.3e} is numerically zero"
        )
    return float(xj @ qvec) / denom


def _require_interpolating(ds: Dataset, w_gm: np.ndarray) -> None:
    value = loss(ds, w_gm)
    if value > INTERPOLATION_TOL:
        raise PreconditionError(
            f"reference point is not interpolating: loss = {value:.3e}"
        )


def no_deactivation_certificate(ds: Dataset, w0, w_gm, j: int) -> bool:
    """True iff datum j is provably activated along the whole flow from w0.

    Requires an interpolating reference point and an initially activated
    datum; the certificate compares the datum's label-to-norm ratio with
    the initialization's distance to the reference.
    """
    w0 = np.asarray(w0, dtype=float)
    w_gm = np.asarray(w_gm, dtype=float)
    _require_interpolating(ds, w_gm)
    xj = ds.x[:, j]
    if float(xj @ w0) <= 0.0:
        raise PreconditionError(f"datum {j} is not activated at w0")
    return float(ds.y[j]) / float(np.linalg.norm(xj)) > float(np.linalg.norm(w0 - w_gm))


def bad_minimum_exclusion(ds: Dataset, w0, w_gm, census: MinimaCensus) -> tuple[int, ...]:
    """Indices of census minima the flow from ``w0`` provably avoids.

    A minimum is excluded when some datum outside its support is
    protected by the activation certificate.  Minima supported by all
    data are vacuously never excluded.
    """
    w0 = np.asarray(w0, dtype=float)
    w_gm = np.asarray(w_gm, dtype=float)
    _require_interpolating(ds, w_gm)
    dist = float(np.linalg.norm(w0 - w_gm))
    ratios = ds.y / np.linalg.norm(ds.x, axis=0)
    excluded = []
    for i, support in enumerate(census.support_sets):
        complement = [j for j in range(ds.n) if j not in support]
        if not complement:
            continue  # vacuous: no datum outside the support
        if float(np.max(ratios[complement])) >= dist:
            excluded.append(i)
    return tuple(excluded)


@dataclass(frozen=True)
class CosineForm:
    """Angular form of the exclusion condition: holds iff lhs > rhs."""

    lhs: float  # max cosine between excluded data and the reference
    rhs: float  # relative distance of the initialization to the reference
    vacuous: bool

    @property
    def holds(self) -> bool:
        return (not self.vacuous) and self.lhs > self.rhs


def cosine_form(ds: Dataset, w0, w_gm, support) -> CosineForm:
    """Angle-based reading of the exclusion condition for a support set."""
    w0 = np.asarray(w0, dtype=float)
    w_gm = np.asarray(w_gm, dtype=float)
    _require_interpolating(ds, w_gm)
    gm_norm = float(np.linalg.norm(w_gm))
    if gm_norm == 0.0:
        raise PreconditionError("reference point must be nonzero")
    complement = [j for j in range(ds.n) if j not in set(support)]
    rhs = float(np.linalg.norm(w0 - w_gm)) / gm_norm
    if not complement:
        return CosineForm(lhs=-np.inf, rhs=rhs, vacuous=True)
    cosines = [
        float(ds.x[:, j] @ w_gm) / (float(np.linalg.norm(ds.x[:, j])) * gm_norm)
        for j in complement
    ]
    return CosineForm(lhs=max(cosines), rhs=rhs, vacuous=False)


def _spectral(ds: Dataset, pattern: ActivationPattern):
    """Full eigenbasis of the pattern's Gram matrix, its rank and minimum-norm point.

    Eigenvalues are descending, padded with exact zeros to length d.
    """
    system = pattern_system(ds, pattern)
    lam = np.zeros(ds.d)
    lam[: system.rank] = system.eigenvalues
    return lam, np.hstack([system.basis, system.null_basis]), system.rank, system.point


@dataclass(frozen=True)
class BoundaryCrossingContext:
    """Spectral data on both sides of one boundary-crossing event.

    Pre-crossing eigenvectors are signed so the pre-side minimizer
    coordinates are nonnegative; post-crossing eigenvectors are paired to
    the pre basis by nearest subspace (largest absolute overlap) and then
    signed to have nonnegative overlap, which pins down the eigenvector
    differences even when eigenvalue order changes across the crossing.
    """

    w0: np.ndarray  # the crossing point
    x0: np.ndarray  # boundary datum
    y0: float
    index: int
    kind: str
    h_pre: np.ndarray
    h_post: np.ndarray
    evals_pre: np.ndarray
    evecs_pre: np.ndarray
    evals_post: np.ndarray
    evecs_post: np.ndarray
    rank_pre: int
    rank_post: int
    w_star_pre: np.ndarray
    w_star_post: np.ndarray

    def __post_init__(self):
        for name in (
            "w0",
            "x0",
            "h_pre",
            "h_post",
            "evals_pre",
            "evecs_pre",
            "evals_post",
            "evecs_post",
            "w_star_pre",
            "w_star_post",
        ):
            a = np.array(getattr(self, name), dtype=float)
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    @property
    def coords_pre(self) -> np.ndarray:
        return self.evecs_pre.T @ self.w0

    @property
    def extents_pre(self) -> np.ndarray:
        return self.evecs_pre.T @ self.w_star_pre

    @property
    def eigvec_deltas(self) -> np.ndarray:
        return self.evecs_post - self.evecs_pre


def crossing_context(ds: Dataset, tr: Trajectory, event_pos: int) -> BoundaryCrossingContext:
    """Build the spectral crossing context for one trajectory event."""
    if not 0 <= event_pos < len(tr.events):
        raise StructuralError(f"trajectory has no event {event_pos}")
    ev = tr.events[event_pos]
    if ev.kind not in ("activation", "deactivation"):
        raise StructuralError(f"event {event_pos} is a {ev.kind} transition, not a crossing")
    # one segment closes per event, so segments and events align positionally
    if event_pos + 1 >= len(tr.segments):
        raise StructuralError("event has no post-crossing segment")
    seg_pre = tr.segments[event_pos]
    seg_post = tr.segments[event_pos + 1]
    if seg_pre.t_end != ev.t:
        raise StructuralError("segment/event alignment broken")
    p_pre, p_post = seg_pre.pattern, seg_post.pattern
    lam_pre, vec_pre, r_pre, w_star_pre = _spectral(ds, p_pre)
    lam_post, vec_post, r_post, w_star_post = _spectral(ds, p_post)
    if r_pre == 0 or lam_pre[0] == 0.0:
        raise NumericalError("pre-crossing Gram matrix is zero; no spectral context")
    # sign convention: nonnegative pre-side minimizer coordinates
    sign_pre = np.where(vec_pre.T @ w_star_pre < 0.0, -1.0, 1.0)
    vec_pre = vec_pre * sign_pre
    # nearest-subspace pairing of the post basis to the pre basis
    overlap = np.abs(vec_pre.T @ vec_post)
    rows, cols = linear_sum_assignment(-overlap)
    perm = np.empty(ds.d, dtype=int)
    perm[rows] = cols
    vec_post = vec_post[:, perm]
    lam_post = lam_post[perm]
    sign_post = np.where(np.sum(vec_pre * vec_post, axis=0) < 0.0, -1.0, 1.0)
    vec_post = vec_post * sign_post
    h_pre, _ = active_matrices(ds, p_pre)
    h_post, _ = active_matrices(ds, p_post)
    return BoundaryCrossingContext(
        w0=ev.point,
        x0=ds.x[:, ev.index],
        y0=float(ds.y[ev.index]),
        index=ev.index,
        kind=ev.kind,
        h_pre=h_pre,
        h_post=h_post,
        evals_pre=lam_pre,
        evecs_pre=vec_pre,
        evals_post=lam_post,
        evecs_post=vec_post,
        rank_pre=r_pre,
        rank_post=r_post,
        w_star_pre=w_star_pre,
        w_star_post=w_star_post,
    )


@dataclass(frozen=True)
class BConditionReport:
    """Numeric evaluation of the four norm-growth crossing conditions.

    These are sufficient conditions only: a trajectory may grow in norm
    with some of them violated, so campaigns record rather than assert.
    """

    b1_lhs: tuple[float, ...]  # eigenvector drift per mode
    b1_rhs: tuple[float, ...]
    b1: bool
    b2_lhs: float  # label of the crossing datum
    b2_rhs: float
    b2: bool
    b3: bool  # post-crossing Gram matrix has full rank
    b4_value: float  # alignment of the crossing datum with the pre minimizer
    b4: bool

    @property
    def all_hold(self) -> bool:
        return self.b1 and self.b2 and self.b3 and self.b4

    def to_json(self) -> dict:
        return {
            "b1_lhs": list(self.b1_lhs),
            "b1_rhs": list(self.b1_rhs),
            "b1": self.b1,
            "b2_lhs": self.b2_lhs,
            "b2_rhs": self.b2_rhs,
            "b2": self.b2,
            "b3": self.b3,
            "b4_value": self.b4_value,
            "b4": self.b4,
            "all_hold": self.all_hold,
        }


def check_B_conditions(ctx: BoundaryCrossingContext) -> BConditionReport:
    """Evaluate the four crossing conditions with both sides' numbers.

    The second condition's per-mode term is evaluated in the equivalent
    product form ``lam_k (c*_k - c_k) - r lam_k^2 c_k / lam_max`` which
    avoids dividing by vanishing coordinates.
    """
    d = ctx.w0.shape[0]
    lam = ctx.evals_pre
    lam_max = float(lam[0])
    lam_min_pos = float(lam[ctx.rank_pre - 1])
    if not np.all(np.isfinite(lam)) or lam_max <= 0.0:
        raise NumericalError("invalid pre-crossing spectrum")
    w0_norm = float(np.linalg.norm(ctx.w0))
    c = ctx.coords_pre
    c_star = ctx.extents_pre
    deltas = ctx.eigvec_deltas
    b1_lhs = tuple(float(np.linalg.norm(deltas[:, k])) for k in range(d))
    with np.errstate(divide="ignore", invalid="ignore"):
        b1_rhs = tuple(
            float((lam_min_pos / lam_max) * (c[k] / w0_norm)) if w0_norm > 0 else np.inf
            for k in range(d)
        )
    b1 = all(l < r for l, r in zip(b1_lhs, b1_rhs))

    x0 = ctx.x0
    x0_norm = float(np.linalg.norm(x0))
    # x0^T H^{-1} x0 through the spectral data (pseudo-inverse if rank deficient)
    proj = ctx.evecs_pre.T @ x0
    inv_terms = np.zeros(d)
    inv_terms[: ctx.rank_pre] = proj[: ctx.rank_pre] ** 2 / lam[: ctx.rank_pre]
    x0_hinv_x0 = float(np.sum(inv_terms))
    ratio = float(np.linalg.norm(ctx.w_star_post - ctx.w0)) / w0_norm if w0_norm > 0 else np.inf
    per_mode = lam * (c_star - c) - ratio * (lam**2) * c / lam_max
    b2_rhs = float(x0 @ ctx.w_star_pre) + (1.0 - x0_hinv_x0) / x0_norm * float(
        np.min(per_mode)
    )
    b2_lhs = ctx.y0
    b2 = b2_lhs < b2_rhs

    b3 = ctx.rank_post == d
    b4_value = float(x0 @ ctx.w_star_pre)
    b4 = b4_value < 0.0
    return BConditionReport(
        b1_lhs=b1_lhs,
        b1_rhs=b1_rhs,
        b1=b1,
        b2_lhs=b2_lhs,
        b2_rhs=b2_rhs,
        b2=b2,
        b3=b3,
        b4_value=b4_value,
        b4=b4,
    )
