"""Activation patterns and the conic partition of parameter space.

Each datum ``x_i`` splits parameter space by the central hyperplane
``w . x_i = 0``.  A partition is a maximal open cone on which the vector
of strict activation indicators is constant; points on a boundary belong
to no partition and are mapped to the deactivated side by convention.
This module enumerates the nonempty cones with certified strict-interior
witnesses, orders them on the circle for d = 2, and builds the spectral
box and norm-derivative quantities used by the flow analysis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from .dataset import Dataset, RANK_RTOL
from .errors import DimensionError, GeometryError, SizeError, StructuralError

# A pattern is feasible iff a unit witness clears every boundary by this
# geometric margin (inner products taken against unit-normalized data).
FEASIBILITY_MARGIN = 1e-9

# Enumeration guard: 2^n candidate patterns beyond this is refused.
ENUMERATION_MAX_N = 24

# Eigenvalues below EIG_RTOL * lambda_max count as zero when only a Gram
# matrix (and not its factor) is available.
EIG_RTOL = 1e-12


@dataclass(frozen=True)
class ActivationPattern:
    """Length-n bit sequence; bit i is 1 iff datum i is strictly activated."""

    bits: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "bits", tuple(int(b) for b in self.bits))
        if any(b not in (0, 1) for b in self.bits):
            raise StructuralError("pattern bits must be 0 or 1")

    @classmethod
    def from_string(cls, s: str) -> "ActivationPattern":
        return cls(tuple(int(ch) for ch in s))

    def to_string(self) -> str:
        """Bit string with the most significant character at data index 0."""
        return "".join(str(b) for b in self.bits)

    def __len__(self) -> int:
        return len(self.bits)

    def __str__(self) -> str:
        return self.to_string()

    @property
    def active_indices(self) -> tuple[int, ...]:
        return tuple(i for i, b in enumerate(self.bits) if b)

    @property
    def inactive_indices(self) -> tuple[int, ...]:
        return tuple(i for i, b in enumerate(self.bits) if not b)

    def flip(self, i: int) -> "ActivationPattern":
        bits = list(self.bits)
        bits[i] = 1 - bits[i]
        return ActivationPattern(tuple(bits))

    def as_bool(self) -> np.ndarray:
        return np.array(self.bits, dtype=bool)


def pattern_of(ds: Dataset, w) -> ActivationPattern:
    """Strict activation indicators at ``w``; boundary points deactivate."""
    w = np.asarray(w, dtype=float)
    if w.shape != (ds.d,):
        raise StructuralError(f"w must have length {ds.d}, got shape {w.shape}")
    return ActivationPattern(tuple(int(v > 0.0) for v in ds.x.T @ w))


def active_matrices(ds: Dataset, pattern: ActivationPattern) -> tuple[np.ndarray, np.ndarray]:
    """Gram matrix and moment vector restricted to the pattern's active data."""
    if len(pattern) != ds.n:
        raise StructuralError("pattern length does not match dataset")
    mask = pattern.as_bool()
    xa = ds.x[:, mask]
    return xa @ xa.T, xa @ ds.y[mask]


@dataclass(frozen=True)
class PatternSystem:
    """Spectral data of one pattern's active columns ``X_a``.

    The Gram matrix ``X_a X_a^T`` has the positive eigenvalues
    ``eigenvalues`` (descending) on the orthonormal columns of ``basis``;
    ``null_basis`` completes them to an orthonormal basis of R^d.
    ``point`` is the minimum-norm minimizer of ``|X_a^T w - y_a|^2``.
    """

    eigenvalues: np.ndarray  # (r,)
    basis: np.ndarray  # (d, r)
    null_basis: np.ndarray  # (d, d - r)
    point: np.ndarray  # (d,)

    @property
    def rank(self) -> int:
        return int(self.eigenvalues.size)


def pattern_system(ds: Dataset, pattern: ActivationPattern, slide: int | None = None) -> PatternSystem:
    """Spectrum, null space and minimum-norm point of the pattern's active data.

    With ``slide = k`` the active columns are first projected onto the
    boundary of datum k, which is the system of a segment sliding there.
    Singular values at or below ``max(RANK_RTOL * s_max, 1e-13 * max |x_i|)``
    count as zero: the absolute floor, tied to the data scale, drops
    columns that a projection has left as pure roundoff.
    """
    if len(pattern) != ds.n:
        raise StructuralError("pattern length does not match dataset")
    mask = pattern.as_bool()
    cols = ds.x[:, mask]
    if slide is not None:
        xs = ds.x[:, slide] / np.linalg.norm(ds.x[:, slide])
        cols = cols - np.outer(xs, xs @ cols)
    d = ds.d
    if cols.size == 0 or not np.any(np.linalg.norm(cols, axis=0) > 0.0):
        return PatternSystem(np.empty(0), np.empty((d, 0)), np.eye(d), np.zeros(d))
    u, s, _ = np.linalg.svd(cols, full_matrices=True)
    floor = max(RANK_RTOL * s[0], 1e-13 * float(np.max(np.linalg.norm(ds.x, axis=0))))
    r = int(np.sum(s > floor))
    lam = s[:r] ** 2
    basis = u[:, :r]
    point = basis @ ((basis.T @ (cols @ ds.y[mask])) / lam)
    return PatternSystem(eigenvalues=lam, basis=basis, null_basis=u[:, r:], point=point)


def partition_count_bound(n: int, d: int) -> int:
    """Upper bound on the number of nonempty cones cut by n central hyperplanes."""
    return 2 * sum(math.comb(n - 1, k) for k in range(min(d, n)))


@dataclass(frozen=True)
class PartitionCell:
    """A feasible pattern together with a certified strict-interior witness."""

    pattern: ActivationPattern
    witness: np.ndarray
    margin: float

    def __post_init__(self):
        w = np.array(self.witness, dtype=float)
        w.setflags(write=False)
        object.__setattr__(self, "witness", w)


def _signed_margin(unit_cols: np.ndarray, signs: np.ndarray, w: np.ndarray) -> float:
    return float(np.min(signs * (unit_cols.T @ w)))


def _margin_lp(unit_cols: np.ndarray, signs: np.ndarray) -> tuple[np.ndarray, float]:
    """Maximize the minimum signed margin over the max-norm unit box.

    Returns a unit-norm witness and its geometric margin (which may be
    nonpositive for an empty cone).
    """
    d, m = unit_cols.shape
    # variables (w_1..w_d, t): minimize -t  s.t.  t - s_i x_i.w <= 0
    a_ub = np.hstack([-(signs[:, None] * unit_cols.T), np.ones((m, 1))])
    c = np.zeros(d + 1)
    c[-1] = -1.0
    bounds = [(-1.0, 1.0)] * d + [(None, 1.0)]
    res = linprog(c, A_ub=a_ub, b_ub=np.zeros(m), bounds=bounds, method="highs")
    if res.status != 0:
        raise GeometryError(f"margin LP failed with status {res.status}")
    w = np.asarray(res.x[:d], dtype=float)
    norm = np.linalg.norm(w)
    if norm == 0.0:
        return w, -math.inf
    w = w / norm
    return w, _signed_margin(unit_cols, signs, w)


def _enumerate_1d(ds: Dataset) -> list[PartitionCell]:
    # a single coordinate axis: the two rays are the only cells
    return [
        PartitionCell(pattern=pattern_of(ds, w), witness=w, margin=1.0)
        for w in (np.array([1.0]), np.array([-1.0]))
    ]


def _boundary_angles(ds: Dataset, dedupe: float = 1e-12) -> list[float]:
    """Angles in [0, 2pi) where some activation boundary meets the circle."""
    angles = []
    for i in range(ds.n):
        theta = math.atan2(ds.x[1, i], ds.x[0, i])
        for phi in (theta + math.pi / 2.0, theta - math.pi / 2.0):
            angles.append(phi % (2.0 * math.pi))
    angles.sort()
    out: list[float] = []
    for a in angles:
        if not out or a - out[-1] > dedupe:
            out.append(a)
    # wrap-around duplicate (an angle within tolerance of out[0] + 2pi)
    if len(out) > 1 and (out[0] + 2.0 * math.pi) - out[-1] <= dedupe:
        out.pop()
    return out


def _arcs_2d(ds: Dataset, angles: list[float]):
    """Walk the arcs between consecutive boundary angles counterclockwise.

    Yields ``(a, b, w, margin)``: the arc's end angles (the last arc wraps
    past 2pi), its unit midpoint ``w`` and the midpoint's smallest
    distance to a boundary.
    """
    unit = ds.x / np.linalg.norm(ds.x, axis=0)
    k = len(angles)
    for j in range(k):
        a, b = angles[j], angles[(j + 1) % k]
        if j == k - 1:
            b += 2.0 * math.pi
        mid = 0.5 * (a + b)
        w = np.array([math.cos(mid), math.sin(mid)])
        yield a, b, w, float(np.min(np.abs(unit.T @ w)))


def _enumerate_2d(ds: Dataset) -> list[PartitionCell]:
    cells: list[PartitionCell] = []
    seen = set()
    for _, _, w, margin in _arcs_2d(ds, _boundary_angles(ds)):
        if margin <= FEASIBILITY_MARGIN:
            continue
        pat = pattern_of(ds, w)
        if pat.bits in seen:
            continue
        seen.add(pat.bits)
        cells.append(PartitionCell(pattern=pat, witness=w, margin=margin))
    return cells


def _enumerate_general(ds: Dataset) -> list[PartitionCell]:
    """Incremental insertion of boundaries, one datum at a time.

    Cells of the first k hyperplanes carry witnesses; inserting hyperplane
    k+1 keeps the side the witness certifies for free and runs the margin
    program only for the flipped side, so no infeasible sign vector is ever
    expanded.
    """
    unit = ds.x / np.linalg.norm(ds.x, axis=0)
    first = unit[:, 0]
    cells = [(np.array([1.0]), first.copy(), 1.0), (np.array([-1.0]), -first, 1.0)]
    for k in range(1, ds.n):
        cols = unit[:, : k + 1]
        grown: list[tuple[np.ndarray, np.ndarray, float]] = []
        for signs, w, margin in cells:
            gap = float(unit[:, k] @ w)
            candidates = []
            if abs(gap) > FEASIBILITY_MARGIN:
                side = 1.0 if gap > 0 else -1.0
                grown.append(
                    (np.append(signs, side), w, min(margin, abs(gap)))
                )
                candidates.append(-side)
            else:
                candidates.extend([1.0, -1.0])
            for side in candidates:
                s_new = np.append(signs, side)
                w_new, m_new = _margin_lp(cols, s_new)
                if m_new > FEASIBILITY_MARGIN:
                    grown.append((s_new, w_new, m_new))
        cells = grown
    out = []
    for signs, w, margin in cells:
        pat = ActivationPattern(tuple(int(s > 0) for s in signs))
        out.append(PartitionCell(pattern=pat, witness=w, margin=margin))
    return out


def enumerate_partitions(ds: Dataset) -> list[PartitionCell]:
    """All feasible activation patterns, each with an interior witness.

    The count never exceeds ``partition_count_bound(ds.n, ds.d)``.  Refuses
    datasets with more than ``ENUMERATION_MAX_N`` samples.
    """
    if ds.n > ENUMERATION_MAX_N:
        raise SizeError(f"enumeration guard: n = {ds.n} > {ENUMERATION_MAX_N}")
    if ds.d == 1:
        cells = _enumerate_1d(ds)
    elif ds.d == 2:
        cells = _enumerate_2d(ds)
    else:
        cells = _enumerate_general(ds)
    cells.sort(key=lambda c: c.pattern.to_string())
    return cells


@dataclass(frozen=True)
class PartitionOrdering:
    """Cyclic order of the d=2 partitions around the unit circle.

    ``ordered_patterns`` walks the circle counterclockwise starting from
    the arc just above the smallest boundary angle; consecutive entries
    differ in exactly one bit.  ``nesting_holds`` records whether, for
    every pair of cells strictly inside the 2nd (or 4th) open quadrant,
    one active set contains the other.
    """

    ordered_patterns: tuple[ActivationPattern, ...]
    boundary_angles: tuple[float, ...]
    nested_pairs_checked: int
    nesting_holds: bool


def _arc_in_quadrant(a: float, b: float, q_lo: float, q_hi: float) -> bool:
    return q_lo <= a and b <= q_hi


def partition_order_2d(ds: Dataset) -> PartitionOrdering:
    """Order the feasible patterns by boundary angle and verify nesting."""
    if ds.d != 2:
        raise DimensionError(f"partition ordering requires d = 2, got d = {ds.d}")
    angles = _boundary_angles(ds)
    ordered: list[ActivationPattern] = []
    arcs: list[tuple[float, float]] = []
    for a, b, w, margin in _arcs_2d(ds, angles):
        if margin <= FEASIBILITY_MARGIN:
            raise GeometryError(
                "coincident activation boundaries; the circular order is degenerate"
            )
        ordered.append(pattern_of(ds, w))
        arcs.append((a, b))
    for p, q in zip(ordered, ordered[1:] + ordered[:1]):
        ndiff = sum(b1 != b2 for b1, b2 in zip(p.bits, q.bits))
        if ndiff != 1:
            raise GeometryError(
                f"adjacent partitions differ in {ndiff} bits; boundaries coincide"
            )
    half_pi, pi, three_half_pi, two_pi = (
        math.pi / 2.0,
        math.pi,
        1.5 * math.pi,
        2.0 * math.pi,
    )
    checked = 0
    holds = True
    for quad in ((half_pi, pi), (three_half_pi, two_pi)):
        idx = [i for i, (a, b) in enumerate(arcs) if _arc_in_quadrant(a, b, *quad)]
        for ii in range(len(idx)):
            for jj in range(ii + 1, len(idx)):
                s1 = set(ordered[idx[ii]].active_indices)
                s2 = set(ordered[idx[jj]].active_indices)
                checked += 1
                if not (s1 <= s2 or s2 <= s1):
                    holds = False
    return PartitionOrdering(
        ordered_patterns=tuple(ordered),
        boundary_angles=tuple(angles),
        nested_pairs_checked=checked,
        nesting_holds=holds,
    )


@dataclass(frozen=True)
class Hyperrectangle:
    """Spectral box between the origin and a target point.

    Eigenvectors of the Gram matrix are signed so every target coordinate
    ``extents[k] = e_k . w_star`` is nonnegative; the box is the set of
    points whose coordinates lie in ``[0, extents[k]]``.  Rank-deficient
    matrices are handled inside their range: only eigenvectors with a
    positive eigenvalue are kept, so ``eigenvectors`` is d x r.
    """

    eigenvalues: np.ndarray  # (r,), descending, strictly positive
    eigenvectors: np.ndarray  # (d, r), orthonormal columns
    extents: np.ndarray  # (r,), nonnegative

    def __post_init__(self):
        for name in ("eigenvalues", "eigenvectors", "extents"):
            a = np.array(getattr(self, name), dtype=float)
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    @property
    def rank(self) -> int:
        return int(self.eigenvalues.size)

    def coordinates(self, w) -> np.ndarray:
        return self.eigenvectors.T @ np.asarray(w, dtype=float)

    def contains(self, w, tol: float = 1e-12) -> bool:
        """Closure membership test on the spectral coordinates."""
        c = self.coordinates(w)
        scale = max(1.0, float(np.max(self.extents, initial=0.0)))
        return bool(np.all(c >= -tol * scale) and np.all(c <= self.extents + tol * scale))

    def vertices(self) -> np.ndarray:
        """All 2^r corner points (rows), in the ambient space."""
        if self.rank > 20:
            raise SizeError("too many vertices to enumerate")
        corners = np.array(
            [[(i >> k) & 1 for k in range(self.rank)] for i in range(2**self.rank)],
            dtype=float,
        )
        return (corners * self.extents) @ self.eigenvectors.T

    def point(self, coords) -> np.ndarray:
        return self.eigenvectors @ np.asarray(coords, dtype=float)


def hyperrectangle_of(H, w_star) -> Hyperrectangle:
    """Spectral box of a symmetric PSD matrix toward its target point.

    Rank-deficient matrices are reduced to their range first; the target
    is projected there, matching the conserved-null-component picture of
    the flow.
    """
    H = np.asarray(H, dtype=float)
    w_star = np.asarray(w_star, dtype=float)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise StructuralError(f"H must be square, got shape {H.shape}")
    scale = max(1.0, float(np.max(np.abs(H))))
    if np.max(np.abs(H - H.T)) > 1e-9 * scale:
        raise StructuralError("H must be symmetric")
    if w_star.shape != (H.shape[0],):
        raise StructuralError("w_star length must match H")
    evals, evecs = np.linalg.eigh(0.5 * (H + H.T))
    lam_max = float(evals[-1]) if evals.size else 0.0
    if evals.size and float(evals[0]) < -1e-9 * max(1.0, lam_max):
        raise StructuralError("H must be positive semidefinite")
    order = np.argsort(evals)[::-1]
    evals, evecs = evals[order], evecs[:, order]
    keep = evals > EIG_RTOL * max(lam_max, 0.0)
    evals, evecs = evals[keep], evecs[:, keep]
    coords = evecs.T @ w_star
    signs = np.where(coords < 0.0, -1.0, 1.0)
    evecs = evecs * signs
    extents = np.abs(coords)
    return Hyperrectangle(eigenvalues=evals, eigenvectors=evecs, extents=extents)


def gform(H, w, w_star) -> float:
    """Quadratic witness ``w . H (w - w_star)``; zero on the box vertices."""
    H = np.asarray(H, dtype=float)
    w = np.asarray(w, dtype=float)
    w_star = np.asarray(w_star, dtype=float)
    return float(w @ (H @ (w - w_star)))


def g_value(ds: Dataset, w) -> float:
    """Negative half-derivative of the squared norm along the flow at ``w``.

    Uses the strict-indicator pattern at ``w``; negative values mean the
    flow is instantaneously growing in norm.
    """
    w = np.asarray(w, dtype=float)
    H, q = active_matrices(ds, pattern_of(ds, w))
    return float(w @ (H @ w - q))
