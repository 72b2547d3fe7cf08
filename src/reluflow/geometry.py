"""Activation patterns and the conic partition of parameter space.

Each datum ``x_i`` splits parameter space by the central hyperplane
``w . x_i = 0``.  A partition is a maximal open cone on which the vector
of strict activation indicators is constant; points on a boundary belong
to no partition and are mapped to the deactivated side by convention.
This module enumerates the nonempty cones with certified strict-interior
witnesses and counts them on one breadth-first deletion-restriction tree,
checks the one against the other, decides whether one open polyhedral cone
is nonempty by its max-margin direction (a least-distance program), and
builds the per-pattern spectral kernel and norm-derivative quantities used
by the flow analysis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import nnls

from .dataset import Dataset, RANK_RTOL, check_point, freeze_fields
from .errors import GeometryError, NumericalError, SizeError, StructuralError

# A point clears a datum's boundary when its relative clearance (see
# ``clearance``) is at least BOUNDARY_MARGIN in size.  It decides feasible
# patterns, converged limits and contained minimizers, and which data share
# one hyperplane (``hyperplane_classes``).
BOUNDARY_MARGIN = 1e-9

# Enumeration guard: datasets whose partition_count_bound exceeds this are refused.
MAX_CELLS = 100_000


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

    def as_bool(self) -> np.ndarray:
        return np.array(self.bits, dtype=bool)


def pattern_of(ds: Dataset, w) -> ActivationPattern:
    """Strict activation indicators at ``w``; boundary points deactivate."""
    w = check_point(ds, w, "w")
    return ActivationPattern(tuple(int(v > 0.0) for v in ds.x.T @ w))


def clearance(ds: Dataset, w) -> np.ndarray:
    """Each datum's signed relative clearance ``(x_i . w) / (|x_i| max(1, |w|))``: (n,) at one
    point ``w`` (d,), and (n, m) at the columns of a stack ``w`` (d, m), each column bitwise that
    of its own point, as the products are stacked one per contiguous point.

    Positive on the active side of a boundary, negative on the deactivated
    side; scaling a datum, or a ``w`` of norm at least 1, leaves it unchanged.
    A NaN point has NaN clearances; one whose norm overflows raises ``NumericalError``.
    """
    w = np.asarray(w, dtype=float)
    points = np.ascontiguousarray(w.T).reshape(-1, ds.d, 1)
    with np.errstate(over="ignore", invalid="ignore"):
        h = np.matmul(ds.x.T[None], points)[:, :, 0]
        sizes = np.sqrt(np.matmul(points.transpose(0, 2, 1), points)[:, 0, 0])
    if np.isinf(sizes).any():
        raise NumericalError("clearance: a point's norm overflows")
    c = h / np.multiply.outer(np.maximum(1.0, sizes), np.linalg.norm(ds.x, axis=0))
    return c.T.reshape(ds.n, *w.shape[1:])


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
    rank: int  # r


def pattern_spectra(ds: Dataset, active: np.ndarray, held=()):
    """The per-pattern spectral kernel of g patterns with k active data each,
    ``active`` (g, k) their ascending indices: each one's left singular vectors
    (g, d, d), singular values (g, min(d, k)), rank (g,) and minimum-norm point
    (g, d), bitwise those of its own SVD and products, after projecting the
    active columns off the ``held`` data's span (a segment held on their face).
    Singular values at or below ``max(RANK_RTOL * s_max, 1e-13 * max |x_i|)``
    count as zero; the absolute floor drops columns a projection left as roundoff.
    """
    cols, ys = ds.x[:, active].transpose(1, 0, 2), ds.y[active]
    if held:
        q = np.linalg.qr(ds.x[:, list(held)])[0]
        cols = cols - q @ (q.T @ cols)
    u, s = np.linalg.svd(cols, full_matrices=True)[:2]
    floor = np.maximum(RANK_RTOL * s[:, :1], 1e-13 * float(np.max(np.linalg.norm(ds.x, axis=0))))
    ranks = np.sum(s > floor, axis=1)
    points, moments = np.zeros(u.shape[:2]), np.matmul(cols, ys[:, :, None])
    for r in set(ranks.tolist()) - {0}:
        rows = ranks == r
        basis = u[rows][:, :, :r]
        coef = np.matmul(basis.transpose(0, 2, 1), moments[rows]) / (s[rows, :r] ** 2)[:, :, None]
        points[rows] = np.matmul(basis, coef)[:, :, 0]
    return u, s, ranks, points


def pattern_system(ds: Dataset, pattern: ActivationPattern, held=()) -> PatternSystem:
    """:func:`pattern_spectra` of one pattern, its active data projected off the ``held`` data."""
    if len(pattern) != ds.n:
        raise StructuralError("pattern length does not match dataset")
    u, s, ranks, points = pattern_spectra(ds, np.flatnonzero(pattern.bits)[None], held)
    r = int(ranks[0])
    return PatternSystem(s[0, :r] ** 2, u[0, :, :r], u[0, :, r:], points[0], r)


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
        freeze_fields(self, "witness")


def _near_parallel(gram: np.ndarray) -> np.ndarray:
    """True where a unit columns' Gram entry has ``|u_i . u_j| >= 1 - 1e-12``.  A pair within
    2 BOUNDARY_MARGIN has ``|u_i . u_j| >= 1 - 1e-15``, so this is a necessary condition, not a
    tolerance: only its pairs take ``hyperplane_classes``' chord test."""
    return np.abs(gram) >= 1.0 - 1e-12


def hyperplane_classes(unit: np.ndarray) -> tuple[list[int], list[tuple[int, bool]]]:
    """Each class's first column, and each column's (class, antiparallel).

    A unit column within ``2 BOUNDARY_MARGIN`` of a class's first column,
    or of its negative, joins the first such class (so membership is not
    transitive): every cell between the two is thinner than the margin.
    """
    near = _near_parallel(gram := unit.T @ unit)
    reps, classes = [], []
    for j in range(unit.shape[1]):
        for i, rep in enumerate(reps):
            sign = math.copysign(1.0, gram[rep, j])
            if near[rep, j] and np.linalg.norm(unit[:, j] - sign * unit[:, rep]) <= 2.0 * BOUNDARY_MARGIN:
                classes.append((i, sign < 0.0))
                break
        else:
            classes.append((len(reps), False))
            reps.append(j)
    return reps, classes


def _hyperplane_bases(unit: np.ndarray) -> np.ndarray:
    """(k, d, d-1): an orthonormal basis of each unit column's hyperplane, bitwise the single-column SVD's."""
    return np.linalg.svd(unit.T[:, :, None])[0][:, :, 1:]


def _sweep_2d(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The exact d=2 sweep of g stacks of k distinct hyperplanes (g, 2, k): the (g, 2, 2k) arc
    midpoints between consecutive boundary angles, each arc's (g, 2k, k) sign vector, and (g, 2k)
    True where its clearance is above BOUNDARY_MARGIN."""
    unit = x / np.linalg.norm(x, axis=1)[:, None, :]
    thetas = np.arctan2(x[:, 1], x[:, 0])
    angles = np.sort(np.hstack([(thetas + half) % (2.0 * math.pi) for half in (math.pi / 2.0, -math.pi / 2.0)]))
    mids = 0.5 * (angles + np.hstack([angles[:, 1:], angles[:, :1] + 2.0 * math.pi]))
    w = np.stack([np.cos(mids), np.sin(mids)], axis=1)
    ok = np.min(np.abs(np.matmul(unit.transpose(0, 2, 1), w)), axis=1) > BOUNDARY_MARGIN
    return np.matmul(x.transpose(0, 2, 1), w).transpose(0, 2, 1) > 0.0, w, ok


def _split(least: np.ndarray, uk: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Columns ``v`` on uk's hyperplane, each moved off it by half its ``least`` clearance on
    the earlier columns: the True sides, then the False sides, as unit columns (stacked alike)."""
    step = 0.5 * least * uk[..., None]
    sides = np.concatenate([v + step, v - step], axis=-1)
    return sides / np.linalg.norm(sides, axis=-2, keepdims=True)


def _cells(level: list) -> dict:
    """Each ``level`` matrix's (witnesses, cells): (d, m) unit witnesses of the cells of its columns' central
    arrangement and their number, on one deletion-restriction tree (Zaslavsky) built breadth first, this depth
    grouped by (dim, width) and the next depth in one call.  A node whose classes merge has its class columns'
    cells, a rank-deficient one its columns' on their span, lifted; a plane node is swept; a full-rank
    one of width K has 2 + the cells of column k's hyperplane restriction of columns 0..k-1, k < K (``_insert``)."""
    found, lifts, full, shapes = {}, [], [], np.array([m.shape for m in level]) @ [1 << 32, 1]
    for key in dict.fromkeys(shapes.tolist()):
        (dim, wd), ids = divmod(key, 1 << 32), np.flatnonzero(shapes == key)
        unit = (stack := np.stack([level[i] for i in ids])) / np.linalg.norm(stack, axis=1)[:, None, :]
        near = np.count_nonzero(_near_parallel(np.matmul(unit.transpose(0, 2, 1), unit)), axis=(1, 2))
        reps = {j: r for j in np.flatnonzero(near > wd).tolist() if len(r := hyperplane_classes(unit[j])[0]) < wd}
        lifts += [(ids[j], None, stack[j][:, r]) for j, r in reps.items()]
        rest = np.array([j for j in range(len(ids)) if j not in reps], dtype=int)
        if rest.size and dim == 2:
            found.update(zip(ids[rest].tolist(), ((a[:, ok], 2 * wd) for a, ok in zip(*_sweep_2d(stack[rest])[1:]))))
        elif rest.size:
            u, s, _ = np.linalg.svd(unit[rest], full_matrices=False)
            ranks = np.sum(s > RANK_RTOL * s[:, :1], axis=1)
            lifts += [(ids[j], b[:, :r], b[:, :r].T @ unit[j]) for j, r, b in zip(rest, ranks, u) if r < dim]
            full += [(dim, ids[f], unit[f])] if (f := rest[ranks == dim]).size else []
    nxt, groups = [child for *_, child in lifts], []
    for dim in dict.fromkeys(d for d, *_ in full):  # one SVD for all hyperplane bases, one product for all restrictions
        parts = [(i, u) for d, i, u in full if d == dim]
        k, nodes = max(u.shape[2] for _, u in parts), np.concatenate([i for i, _ in parts]).tolist()  # pad to k
        unit = np.concatenate([np.concatenate([u, np.zeros((*u.shape[:2], k - u.shape[2]))], 2) for _, u in parts])
        wds = [u.shape[2] for i, u in parts for _ in i]
        bases = _hyperplane_bases(np.hstack(unit)).reshape(len(nodes), k, dim, -1)
        groups.append((nodes, len(nxt), (unit, bases, wds)))
        nxt += [c[j, :, :j].copy() for c, wd in zip(np.matmul(bases.transpose(0, 1, 3, 2), unit[:, None]), wds)
                for j in range(1, wd)]  # copied out of the padding, which is then freed
    below = _cells(nxt) if nxt else {}
    for i, (node, basis, _) in enumerate(lifts):
        found[node] = (below[i][0] if basis is None else basis @ below[i][0], below[i][1])
    for nodes, first, data in groups:
        found.update(zip(nodes, _insert(*data, below, first)))
    return found


def _insert(unit: np.ndarray, bases: np.ndarray, wds: list, below: dict, first: int):
    """The (witnesses, cells) of g full-rank nodes, zero-padded to (g, dim, k) unit columns (``wds`` each) with
    hyperplane bases (g, k, dim, dim-1), from their children's, ``below[first:]`` node by node.  Each child's
    witness is lifted onto its birth column's hyperplane and ``_split`` by half its least clearance on the
    earlier columns; of each sign row only the last-born witness is kept, the one that inserting the columns
    one at a time keeps: a witness born at column c goes at the first later column whose restriction holds
    its row, and that split has the same final row and a later birth.  Products run in blocks of 4096."""
    g, dim, k = unit.shape
    start = np.cumsum([first - 1, *(wd - 1 for wd in wds)])  # node i's child j is below[start[i] + j]
    slots = [(i, j) for j in range(k - 1, -1, -1) for i in range(g) if j < wds[i]]  # the last-born first
    kids = [below[start[i] + j] if j else (np.zeros((dim - 1, 1)), 2) for i, j in slots]  # 0: column 0's sides
    owner, birth = np.repeat(np.array(slots).T, [z.shape[1] for z, _ in kids], axis=1)
    z, sides, rows = np.hstack([z for z, _ in kids]).T[:, :, None], np.empty((len(owner), 2, dim)), []
    for b in range(0, len(z), 4096):
        o, c, uo = owner[b:b + 4096], birth[b:b + 4096], unit[owner[b:b + 4096]]
        v = np.matmul(bases[o, c], z[b:b + 4096])
        least = np.min(np.abs(v.transpose(0, 2, 1) @ uo), axis=2, initial=2.0, where=np.arange(k) < c[:, None, None])
        sides[b:b + 4096] = _split(least[:, :, None], unit[o, :, c], v).transpose(0, 2, 1)
        rows.append(np.packbits(sides[b:b + 4096] @ uo > 0.0, axis=2).reshape(2 * len(o), -1))
    keys = np.concatenate([(owner := np.repeat(owner, 2)).astype(">u4")[:, None].view(np.uint8), np.vstack(rows)], 1)
    kept = np.unique(keys.view(f"V{keys.shape[1]}").ravel(), return_index=True)[1]  # the first of each: last-born
    found = np.split(sides.reshape(-1, dim)[kept].T, np.cumsum(np.bincount(owner[kept], minlength=g))[:-1], axis=1)
    return zip(found, np.bincount(np.array(slots)[:, 0], [n for _, n in kids], g).astype(int).tolist())


def region_count(cols: np.ndarray) -> int:
    """The number of cells of the columns' central arrangement, read off ``_cells``' tree, not its witnesses."""
    return _cells([cols])[0][1]


def cone_witness(normals: np.ndarray) -> np.ndarray:
    """The (g, k) unit max-margin directions ``w`` of a (g, k, m) stack of open cones, each
    ``normals[i, :, j] . w > 0`` for its nonzero columns, with a NaN row where ``w`` clears some unit
    column by at most BOUNDARY_MARGIN, so no direction clears them all by more: each row bitwise its
    cone's alone.  It is Lawson and Hanson's least-distance program (Solving Least Squares Problems,
    ch. 23): one NNLS solve per cone, of the unit columns over a row of ones (a zero column left zero,
    so never weighted) against e_{k+1}, picks the support columns, those ``w`` clears by the least
    margin, and ``w`` is along the minimum-norm ``x`` with ``support . x = 1``, one stacked SVD-based
    pseudoinverse.  The NNLS residual points along ``w`` too, but only to about 1e-16 / margin radians,
    which loses cones thinner than about 3e-8; this solve keeps working accuracy."""
    kept = (sizes := np.linalg.norm(normals, axis=1)) > 0.0
    if not np.all(np.any(kept, axis=1)):
        raise StructuralError("a cone needs a nonzero normal")
    lifted = np.concatenate([unit := normals / np.where(kept, sizes, 1.0)[:, None, :], kept[:, None]], axis=1)
    try:
        support = np.array([nnls(a, np.eye(len(a))[-1])[0] > 0.0 for a in lifted], bool).reshape(kept.shape)
    except RuntimeError as exc:
        raise NumericalError(f"least-distance program: {exc}") from None
    x = np.matmul(np.linalg.pinv(unit.transpose(0, 2, 1) * support[:, :, None]), support[:, :, None].astype(float))
    w = x[:, :, 0] / np.where((size := np.linalg.norm(x, axis=1)) > 0.0, size, 1.0)  # 0 if support . x = 1 contradicts
    least = np.min(np.matmul(w[:, None, :], unit)[:, 0], axis=1, initial=np.inf, where=kept)
    return np.where((least > BOUNDARY_MARGIN)[:, None], w, np.nan)


def partition_rows(ds: Dataset) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All feasible activation patterns as (m, n) sign rows, True where a datum is
    active, in pattern order, with (d, m) witnesses that clear every datum's
    boundary by their (m,) margins, each more than BOUNDARY_MARGIN.

    Refuses, before enumerating, datasets whose ``partition_count_bound``
    exceeds ``MAX_CELLS``.  The number of cells must equal the count read
    off the same tree (``region_count``), or a ``GeometryError`` names both.
    """
    if (bound := partition_count_bound(ds.n, ds.d)) > MAX_CELLS:
        raise SizeError(f"enumeration guard: up to {bound} cells at (d, n) = ({ds.d}, {ds.n}) > {MAX_CELLS}")
    w, expected = _cells([ds.x])[0]
    h = (ds.x / np.linalg.norm(ds.x, axis=0)).T @ w
    ok = (margins := np.min(np.abs(h), axis=0)) > BOUNDARY_MARGIN
    if len(rows := (h > 0.0)[:, ok].T) != expected:
        raise GeometryError(f"enumeration found {len(rows)} cells, the arrangement has {expected}")
    order = np.lexsort(rows.T[::-1])  # datum 0 is the most significant bit, as in to_string
    return rows[order], w[:, ok][:, order], margins[ok][order]


def enumerate_partitions(ds: Dataset) -> list[PartitionCell]:
    """:func:`partition_rows` as one ``PartitionCell`` per feasible pattern."""
    rows, w, margins = partition_rows(ds)
    return [PartitionCell(ActivationPattern(tuple(bits)), witness, margin)
            for bits, witness, margin in zip(rows.tolist(), w.T, margins.tolist())]


def g_value(ds: Dataset, w) -> float:
    """Negative half-derivative of the squared norm along the flow at ``w``.

    Uses the strict-indicator pattern at ``w``; negative values mean the
    flow is instantaneously growing in norm.
    """
    w = np.asarray(w, dtype=float)
    H, q = active_matrices(ds, pattern_of(ds, w))
    return float(w @ (H @ w - q))
