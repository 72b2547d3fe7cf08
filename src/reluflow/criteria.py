"""Initialization-dependent certificates for the rectified flow.

These operations turn the qualitative picture (small initializations keep
data active, large ones shed data) into checkable numbers: the scaling
threshold at which a datum's gradient alignment flips sign, the
interpolation-ball condition that keeps a datum activated forever, the
resulting exclusion of minima missing protected data, and the four-part
spectral condition under which norm growth survives a boundary crossing.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .dataset import Dataset, check_point, freeze_fields
from .errors import DegenerateDirectionError, PreconditionError, StructuralError
from .expsum import TIE_RTOL
from .flow import Trajectory
from .geometry import active_matrices, pattern_of, pattern_system
from .landscape import MinimaCensus, interpolates, loss


def alpha_star(ds: Dataset, w0, j: int) -> float:
    """Scaling threshold for datum j along the ray through ``w0``.

    With the pattern of ``w0`` held fixed, the gradient alignment
    ``grad L(a w0) . x_j`` is nonnegative exactly for ``a`` at or above
    the returned value, provided the denominator ``x_j . H w0`` is
    positive (it is whenever A1 data are all activated at ``w0``); one within
    ``TIE_RTOL * |x_j| |H w0|`` of zero is refused.
    """
    w0 = check_point(ds, w0)
    xj = ds.x[:, _datum(ds, j)]
    hmat, qvec = active_matrices(ds, pattern_of(ds, w0))
    hw0 = hmat @ w0
    denom = float(xj @ hw0)
    if abs(denom) <= TIE_RTOL * float(np.linalg.norm(xj) * np.linalg.norm(hw0)):
        raise DegenerateDirectionError(f"x_{j} . H w0 = {denom:.3e} is numerically zero")
    return float(xj @ qvec) / denom


def _datum(ds: Dataset, j) -> int:
    """``j`` as a datum index, refused unless it is an integer in ``0..n-1``."""
    if not (isinstance(j, (int, np.integer)) and 0 <= j < ds.n):
        raise StructuralError(f"datum index must be an integer in 0..{ds.n - 1}, got {j!r}")
    return int(j)


def _require_interpolating(ds: Dataset, w_gm) -> np.ndarray:
    """``w_gm`` as a checked point of zero loss up to ``INTERPOLATION_RTOL``."""
    w_gm = check_point(ds, w_gm, "reference point")
    if not interpolates(ds, w_gm):
        raise PreconditionError(f"reference point is not interpolating: loss = {loss(ds, w_gm):.3e}")
    return w_gm


def _protected(ds: Dataset, w0: np.ndarray, w_gm: np.ndarray) -> np.ndarray:
    """Which data the flow from ``w0`` keeps activated: those whose
    label-to-norm ratio strictly exceeds the distance from ``w0`` to the
    interpolating reference ``w_gm``."""
    w_gm = _require_interpolating(ds, w_gm)
    return ds.y / np.linalg.norm(ds.x, axis=0) > float(np.linalg.norm(w0 - w_gm))


def no_deactivation_certificate(ds: Dataset, w0, w_gm, j: int) -> bool | None:
    """True iff datum j is provably activated along the whole flow from w0.

    Requires an interpolating reference point; the certificate compares the
    datum's label-to-norm ratio with the initialization's distance to the
    reference.  It speaks only of data activated at w0: for any other it is None.
    """
    w0, j = check_point(ds, w0), _datum(ds, j)
    protected = _protected(ds, w0, w_gm)
    if float(ds.x[:, j] @ w0) <= 0.0:
        return None
    return bool(protected[j])


def bad_minimum_exclusion(ds: Dataset, w0, w_gm, census: MinimaCensus) -> tuple[int, ...]:
    """Indices of census minima the flow from ``w0`` provably avoids.

    A minimum is excluded when some datum outside its support is
    protected by the activation certificate, under that certificate's
    strict comparison: a ratio equal to the distance protects nothing.
    Minima supported by all data are vacuously never excluded.
    """
    protected = _protected(ds, check_point(ds, w0), w_gm)
    return tuple(i for i, m in enumerate(census.minima) if np.any(protected & ~m.pattern.as_bool()))


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
    w0, w_gm = check_point(ds, w0), _require_interpolating(ds, w_gm)
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
    evals_pre: np.ndarray
    evecs_pre: np.ndarray
    evecs_post: np.ndarray
    rank_pre: int
    rank_post: int
    w_star_pre: np.ndarray
    w_star_post: np.ndarray

    def __post_init__(self):
        freeze_fields(self, "w0", "x0", "evals_pre", "evecs_pre", "evecs_post", "w_star_pre", "w_star_post")

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
    """Build the spectral crossing context for one trajectory event from the
    faces it leaves and enters; a held side's system is projected off the held data."""
    if not 0 <= event_pos < len(tr.events):
        raise StructuralError(f"trajectory has no event {event_pos}")
    ev = tr.events[event_pos]
    if ev.kind not in ("activation", "deactivation"):
        raise StructuralError(f"event {event_pos} is a {ev.kind} transition, not a crossing")
    pre = pattern_system(ds, *ev.before)
    post = pattern_system(ds, *ev.after)
    # the B conditions read d modes: the null space's eigenvalues are exact zeros
    lam_pre = np.concatenate([pre.eigenvalues, np.zeros(ds.d - pre.rank)])
    vec_pre = np.hstack([pre.basis, pre.null_basis])
    vec_post = np.hstack([post.basis, post.null_basis])
    # sign convention: nonnegative pre-side minimizer coordinates
    sign_pre = np.where(vec_pre.T @ pre.point < 0.0, -1.0, 1.0)
    vec_pre = vec_pre * sign_pre
    # nearest-subspace pairing of the post basis to the pre basis
    overlap = np.abs(vec_pre.T @ vec_post)
    _, perm = linear_sum_assignment(-overlap)  # a square problem's rows come back in order
    vec_post = vec_post[:, perm]
    sign_post = np.where(np.sum(vec_pre * vec_post, axis=0) < 0.0, -1.0, 1.0)
    vec_post = vec_post * sign_post
    return BoundaryCrossingContext(
        w0=ev.point,
        x0=ds.x[:, ev.index],
        y0=float(ds.y[ev.index]),
        index=ev.index,
        kind=ev.kind,
        evals_pre=lam_pre,
        evecs_pre=vec_pre,
        evecs_post=vec_post,
        rank_pre=pre.rank,
        rank_post=post.rank,
        w_star_pre=pre.point,
        w_star_post=post.point,
    )


@dataclass(frozen=True)
class BConditionReport:
    """Numeric evaluation of the four norm-growth crossing conditions.

    These are sufficient conditions only: a trajectory may grow in norm
    with some of them violated, so campaigns record rather than assert.
    Where b1 and b2 are undefined they do not hold, with None right sides.
    """

    b1_lhs: tuple[float, ...]  # eigenvector drift per mode
    b1_rhs: tuple[float, ...] | None
    b1: bool
    b2_lhs: float  # label of the crossing datum
    b2_rhs: float | None
    b2: bool
    b3: bool  # post-crossing Gram matrix has full rank
    b4_value: float  # alignment of the crossing datum with the pre minimizer
    b4: bool

    @property
    def all_hold(self) -> bool:
        return self.b1 and self.b2 and self.b3 and self.b4

    def to_json(self) -> dict:
        return {**asdict(self), "all_hold": self.all_hold}


def check_B_conditions(ctx: BoundaryCrossingContext) -> BConditionReport:
    """Evaluate the four crossing conditions with both sides' numbers.

    b1 and b2 read the direction ``w0 / |w0|`` and the pre side's ratio
    ``lam_min+ / lam_max``, so they are evaluated only where both exist; b3
    and b4 at every crossing.  b2's per-mode term is the product form
    ``lam_k (c*_k - c_k) - r lam_k^2 c_k / lam_max``, free of coordinate division.
    """
    d, r = ctx.w0.shape[0], ctx.rank_pre
    b1_lhs = tuple(float(np.linalg.norm(col)) for col in ctx.eigvec_deltas.T)
    b4_value = float(ctx.x0 @ ctx.w_star_pre)
    b1_rhs = b2_rhs = None
    w0_norm = float(np.linalg.norm(ctx.w0))
    if w0_norm > 0 and r > 0:
        lam, c = ctx.evals_pre, ctx.coords_pre
        b1_rhs = tuple(float((float(lam[r - 1]) / float(lam[0])) * (c[k] / w0_norm)) for k in range(d))
        # x0^T H^{-1} x0 through the spectral data (pseudo-inverse if rank deficient)
        proj = ctx.evecs_pre.T @ ctx.x0
        inv_terms = np.zeros(d)
        inv_terms[:r] = proj[:r] ** 2 / lam[:r]
        x0_hinv_x0 = float(np.sum(inv_terms))
        ratio = float(np.linalg.norm(ctx.w_star_post - ctx.w0)) / w0_norm
        per_mode = lam * (ctx.extents_pre - c) - ratio * (lam**2) * c / float(lam[0])
        b2_rhs = b4_value + (1.0 - x0_hinv_x0) / float(np.linalg.norm(ctx.x0)) * float(np.min(per_mode))
    return BConditionReport(
        b1_lhs=b1_lhs,
        b1_rhs=b1_rhs,
        b1=b1_rhs is not None and all(lhs < rhs for lhs, rhs in zip(b1_lhs, b1_rhs)),
        b2_lhs=ctx.y0,
        b2_rhs=b2_rhs,
        # a tie up to roundoff does not satisfy the strict inequality
        b2=b2_rhs is not None and b2_rhs - ctx.y0 > TIE_RTOL * max(1.0, abs(ctx.y0), abs(b2_rhs)),
        b3=ctx.rank_post == d,
        b4_value=b4_value,
        b4=b4_value < 0.0,
    )
