"""Independent oracles used by the tests.

Everything here deliberately avoids the package's computational paths:
least squares go through numpy's lstsq/pinv, pattern counts through dense
angular sweeps and margin linear programs, cell counts through Whitney's
sum over all subsets of the normals, minimizer containment through
an affine margin linear program, which census minimum a point is through
its distance to each minimizer set, gradients through central finite
differences, deep gradients through a direct forward/backward pass, and
the zeros of exponential sums and the sign of the norm's slope through a
dense grid whose sign changes are bisected in 50-digit mpmath arithmetic.
Expected values in the tests are produced by these routines (or frozen
from them), never by the code under test.  Four exceptions share package
code.  ``next_event_exhaustive`` shares the flow's root isolator
and is the reference for the flow's pruned, batched event search, from
which it differs by isolating every gap and held multiplier alone.
``trajectory_csv`` is the per-row writer that the batched
``flow.trajectory_to_csv`` replaced: it evaluates each row through the
package's ``loss``, ``active_matrices``, ``g_value`` and ``pattern_of``, the
definitions of the CSV columns, on the package's samples.  ``census_loop`` is the per-pattern
census that the grouped one replaced, and shares the package's enumeration
(``geometry.partition_rows``, one breadth-first deletion-restriction tree);
``pattern_system_single`` is its one SVD per pattern, and ``minimizer_in_cell``
its rank-deficient containment search.  That search, ``aimed_cell`` (one
arrangement, one target sign vector, one witness), is a deletion-restriction
walk aimed at one cell; it shares the package's ``hyperplane_classes`` but
none of ``geometry.cone_witness``, the least-distance program that decides
containment in the package.  The tests hold the two to the same cells and
to the same witness sign rows wherever the walk's row is nonzero (its
all-off cone witness is the origin), and both to the margin program
``_margin_lp``.  Witness floats are never compared: their last bits follow
the library's rounding of each product.  ``clearance_both_forms`` is the event search's
enclosure before it took the nested form only on the cells that the
term-by-term bound leaves open; the tests hold the two to the same flags.
"""

from __future__ import annotations

import itertools
import math

import mpmath
import numpy as np
from scipy.optimize import linprog
from sympy import QQ
from sympy.polys.matrices import DomainMatrix

from reluflow.dataset import RANK_RTOL
from reluflow.geometry import BOUNDARY_MARGIN, hyperplane_classes

# Working precision of the exponential-sum oracles, in decimal digits.
MP_DPS = 50

# A point is a census minimum when it lies within MATCH_TOL of that
# minimum's minimizer set (and in its partition's closure).
MATCH_TOL = 1e-6


def sweep_patterns_2d(ds, directions: int = 10000) -> set:
    """Distinct strict activation patterns seen on a dense circle sweep."""
    angles = np.linspace(0.0, 2.0 * np.pi, directions, endpoint=False)
    ws = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    signs = ws @ ds.x  # (directions, n)
    patterns = set()
    for row in signs:
        if np.min(np.abs(row)) / np.max(np.abs(row)) < 1e-9:
            continue  # too close to a boundary to trust
        patterns.add(tuple(int(v > 0.0) for v in row))
    return patterns


def lstsq_minnorm(cols: np.ndarray, ys: np.ndarray) -> np.ndarray:
    w, *_ = np.linalg.lstsq(cols.T, ys, rcond=1e-10)
    return w


def lstsq_loss(cols: np.ndarray, ys: np.ndarray) -> float:
    w = lstsq_minnorm(cols, ys)
    r = cols.T @ w - ys
    return 0.5 * float(r @ r)


def relu_loss_direct(ds, w) -> float:
    total = 0.0
    for i in range(ds.n):
        total += 0.5 * (max(float(ds.x[:, i] @ w), 0.0) - float(ds.y[i])) ** 2
    return total


def finite_diff_gradient(ds, w, step: float = 1e-6) -> np.ndarray:
    w = np.asarray(w, dtype=float)
    grad = np.zeros_like(w)
    for k in range(w.size):
        e = np.zeros_like(w)
        e[k] = step
        grad[k] = (relu_loss_direct(ds, w + e) - relu_loss_direct(ds, w - e)) / (2 * step)
    return grad


def off_boundary(ds, w, clearance: float = 1e-3) -> bool:
    h = ds.x.T @ np.asarray(w, dtype=float)
    scale = np.linalg.norm(ds.x, axis=0) * max(1.0, float(np.linalg.norm(w)))
    return bool(np.min(np.abs(h) / scale) > clearance)


def set_distance(vm, w) -> float:
    """Euclidean distance from ``w`` to a virtual minimizer's full minimizer set."""
    delta = np.asarray(w, dtype=float) - vm.point
    if vm.null_basis.size:
        delta = delta - vm.null_basis @ (vm.null_basis.T @ delta)
    return float(np.linalg.norm(delta))


def matches(ds, vm, w) -> bool:
    """Whether ``w`` is the census minimum ``vm``: within ``MATCH_TOL`` of its
    minimizer set and in its partition's closure, each datum's relative
    clearance within ``BOUNDARY_MARGIN`` of its side.

    The set test alone is not an identification: with interpolatable
    labels one point can minimize many patterns' quadratics at once, but
    it is a given pattern's local minimum only where that pattern's
    activation signs actually hold.
    """
    if set_distance(vm, w) > MATCH_TOL:
        return False
    w = np.asarray(w, dtype=float)
    c = (ds.x.T @ w) / (np.linalg.norm(ds.x, axis=0) * max(1.0, float(np.linalg.norm(w))))
    active = np.array(vm.pattern.bits, dtype=bool)
    return bool(np.all(c[active] >= -BOUNDARY_MARGIN) and np.all(c[~active] <= BOUNDARY_MARGIN))


def deep_forward(weights, x):
    cur = np.asarray(x, dtype=float)
    pres = []
    acts = [cur]
    for m, w in enumerate(weights):
        pre = w @ cur
        pres.append(pre)
        cur = pre if m == len(weights) - 1 else np.maximum(pre, 0.0)
        acts.append(cur)
    return pres, acts


def deep_gradients(weights, x, y):
    """Plain reverse-mode pass over the stack, no label construction."""
    pres, acts = deep_forward(weights, x)
    upstream = acts[-1] - np.asarray(y, dtype=float)
    grads = [None] * len(weights)
    for m in range(len(weights) - 1, -1, -1):
        grads[m] = np.outer(upstream, acts[m])
        if m > 0:
            upstream = weights[m].T @ upstream
            upstream = upstream * (pres[m - 1] > 0.0)
    return grads


def deep_loss(weights, x, y) -> float:
    _, acts = deep_forward(weights, x)
    return 0.5 * float(np.sum((acts[-1] - np.asarray(y, dtype=float)) ** 2))


def fd_layer_gradient(weights, x, y, layer: int, step: float = 1e-6) -> np.ndarray:
    base = [np.array(w, dtype=float) for w in weights]
    grad = np.zeros_like(base[layer])
    it = np.nditer(grad, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        plus = [w.copy() for w in base]
        minus = [w.copy() for w in base]
        plus[layer][idx] += step
        minus[layer][idx] -= step
        grad[idx] = (deep_loss(plus, x, y) - deep_loss(minus, x, y)) / (2 * step)
        it.iternext()
    return grad


def next_event_exhaustive(ds, seg):
    """The next event, as ``flow._next_event``'s ``(tau, heading)``, from every gap and held
    multiplier's earliest admissible zero, each isolated in full.

    The flow's bounded search must select the same event as this scan,
    which isolates every root of every datum's gap and of every held
    multiplier less 0 and less 1 on [0, inf), one ``ExpSum`` at a time,
    with no pruning, and then takes the candidates that tie with the
    earliest, the lowest index setting the time.
    """
    from reluflow.expsum import ExpSum, tied
    from reluflow.flow import OFF, ON, _multipliers

    out = []
    for k in range(ds.n):
        if k in seg.held:
            continue
        want = -1 if seg.pattern.bits[k] else 1
        for root in seg.observable(ds.x[:, k]).roots():
            if root.is_crossing and root.after == want:
                out.append((root.t, k, 1 - seg.pattern.bits[k]))
                break
    if seg.held:
        alphas, coeffs = _multipliers(ds, seg)
        for j, alpha, a in zip(seg.held, alphas, coeffs):
            for side, level, after in ((OFF, 0.0, -1), (ON, 1.0, 1)):
                roots = ExpSum(alpha - level, a, seg.eigenvalues).roots()
                root = next((r for r in roots if r.is_crossing and r.after == after), None)
                if root is not None:
                    out.append((root.t, j, side))
    if not out:
        return math.inf, {}
    best = min(c[0] for c in out)
    event = [c for c in out if tied(best, c[0])]
    return min(event, key=lambda c: c[1])[0], {j: side for _, j, side in event}


def trajectory_csv(tr) -> str:
    """The trajectory CSV built row by row from the column definitions: an
    exact row's pattern and g are its segment's, a descent iterate's its own."""
    from reluflow.flow import CSV_SAMPLES, GDRun, _sample_rows
    from reluflow.geometry import active_matrices, g_value, pattern_of
    from reluflow.landscape import linear_loss, loss

    ds = tr.dataset
    header = ["t"] + [f"w_{i + 1}" for i in range(ds.d)] + ["loss", "norm", "g", "pattern"]
    lines = [",".join(header)]
    rows, on = _sample_rows(tr, CSV_SAMPLES)
    for row, (t, w) in enumerate(rows):
        value = linear_loss(ds, w) if tr.linear else loss(ds, w)
        if tr.linear:
            g, pat = float(w @ (ds.x @ (ds.x.T @ w - ds.y))), "1" * ds.n
        elif isinstance(tr, GDRun):
            g, pat = g_value(ds, w), pattern_of(ds, w).to_string()
        else:
            pattern = tr.segments[on[row]].pattern
            h, q = active_matrices(ds, pattern)
            g, pat = float(w @ (h @ w - q)), pattern.to_string()
        cells = [repr(float(t))] + [repr(float(x)) for x in w]
        cells += [repr(float(value)), repr(float(np.linalg.norm(w))), repr(float(g)), pat]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _margin_lp(unit_cols: np.ndarray, signs: np.ndarray) -> tuple[np.ndarray, float]:
    """Maximize the minimum signed margin over the max-norm unit box.

    Returns a unit-norm witness and its margin, nonpositive for an empty cone.
    """
    d, m = unit_cols.shape
    # variables (w_1..w_d, t): minimize -t  s.t.  t - s_i x_i.w <= 0
    a_ub = np.hstack([-(signs[:, None] * unit_cols.T), np.ones((m, 1))])
    c = np.zeros(d + 1)
    c[-1] = -1.0
    bounds = [(-1.0, 1.0)] * d + [(None, 1.0)]
    res = linprog(c, A_ub=a_ub, b_ub=np.zeros(m), bounds=bounds, method="highs")
    assert res.status == 0, f"margin LP failed with status {res.status}"
    w = np.asarray(res.x[:d], dtype=float)
    norm = np.linalg.norm(w)
    if norm == 0.0:
        return w, -np.inf
    w = w / norm
    return w, float(np.min(signs * (unit_cols.T @ w)))


def enumerate_partitions_lp(ds, margin: float = 1e-9) -> set:
    """Bit tuples of the cells whose margin program clears every boundary by
    more than ``margin``, by incremental insertion of the hyperplanes.

    A cell of the first k hyperplanes keeps the side of hyperplane k+1 its
    witness already clears and runs the margin program for the other side
    (for both when the witness is on the boundary), so no empty sign vector
    is ever expanded.
    """
    unit = ds.x / np.linalg.norm(ds.x, axis=0)
    first = unit[:, 0]
    cells = [(np.array([1.0]), first.copy()), (np.array([-1.0]), -first)]
    for k in range(1, ds.n):
        grown = []
        for signs, w in cells:
            gap = float(unit[:, k] @ w)
            sides = [1.0, -1.0]
            if abs(gap) > margin:
                side = 1.0 if gap > 0 else -1.0
                grown.append((np.append(signs, side), w))
                sides = [-side]
            for side in sides:
                s_new = np.append(signs, side)
                w_new, m_new = _margin_lp(unit[:, : k + 1], s_new)
                if m_new > margin:
                    grown.append((s_new, w_new))
        cells = grown
    return {tuple(int(s > 0) for s in signs) for signs, _ in cells}


def region_count_whitney(ds) -> int:
    """Number of cells of the data's central arrangement, from its matroid alone.

    Whitney's formula with Zaslavsky's theorem: the sum over subsets S of
    the ``hyperplane_classes`` normals of ``(-1)^(|S| - rank S)``, ranks
    decided by ``RANK_RTOL``.  That is 2^k rank tests for k classes.
    """
    unit = ds.x / np.linalg.norm(ds.x, axis=0)
    unit = unit[:, hyperplane_classes(unit)[0]]
    total = 1  # the empty subset
    for m in range(1, unit.shape[1] + 1):
        subsets = np.array(list(itertools.combinations(range(unit.shape[1]), m)))
        s = np.linalg.svd(unit[:, subsets].transpose(1, 0, 2), compute_uv=False)
        rank = np.sum(s > RANK_RTOL * s[:, :1], axis=1)
        total += int(np.sum((-1) ** (m - rank)))
    return total


def region_count_exact(x) -> int:
    """Whitney's subset sum on integer columns, with ranks over the rationals.

    Columns that are exactly parallel, up to sign, are one hyperplane; no
    tolerance enters anywhere.
    """
    x = np.asarray(x)
    assert np.array_equal(x, np.round(x)), "the exact count needs integer data"
    m = DomainMatrix([[QQ(int(v)) for v in row] for row in x], x.shape, QQ)
    rows = list(range(x.shape[0]))
    normals: list[int] = []
    for j in range(x.shape[1]):
        if all(m.extract(rows, [i, j]).rank() == 2 for i in normals):
            normals.append(j)
    total = 0
    for k in range(len(normals) + 1):
        for subset in itertools.combinations(normals, k):
            total += (-1) ** (k - (m.extract(rows, list(subset)).rank() if subset else 0))
    return total


def containment_lp(ds, pattern) -> bool:
    """Weak containment of a pattern's minimizer set, by a margin program.

    The set ``p + N z`` comes from numpy's lstsq and SVD.  The program
    maximizes ``t`` with every active datum's unit vector at least ``t``
    from its boundary and every deactivated one at or below zero, ``t``
    capped at ``1 + |p|``; the pattern holds its minimizer when the optimum
    beats ``1e-9 * max(1, |p|)``.  A set that only touches the cell's
    closure counts as contained.
    """
    active = np.array(pattern.bits, dtype=bool)
    cols = ds.x[:, active]
    p = lstsq_minnorm(cols, ds.y[active])
    u, s, _ = np.linalg.svd(cols, full_matrices=True)
    null_basis = u[:, int(np.sum(s > 1e-10 * s[0])) :]
    unit = ds.x / np.linalg.norm(ds.x, axis=0)
    k = null_basis.shape[1]
    rows_a = unit[:, active].T
    rows_i = unit[:, ~active].T
    # variables (z_1..z_k, t): minimize -t
    a_ub = np.vstack(
        [
            np.hstack([-(rows_a @ null_basis), np.ones((rows_a.shape[0], 1))]),
            np.hstack([rows_i @ null_basis, np.zeros((rows_i.shape[0], 1))]),
        ]
    )
    b_ub = np.concatenate([rows_a @ p, -(rows_i @ p)])
    c = np.zeros(k + 1)
    c[-1] = -1.0
    cap = 1.0 + float(np.linalg.norm(p))
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=[(None, None)] * k + [(None, cap)], method="highs")
    return res.status == 0 and float(res.x[-1]) > 1e-9 * max(1.0, float(np.linalg.norm(p)))


def pattern_system_single(ds, pattern, held=()):
    """The per-pattern spectral kernel that ``geometry.pattern_spectra``
    stacked: one SVD of the pattern's active columns, projected off the held
    data, as (eigenvalues, basis, null_basis, point)."""
    mask = pattern.as_bool()
    cols = ds.x[:, mask]
    if held:
        q = np.linalg.qr(ds.x[:, list(held)])[0]
        cols = cols - q @ (q.T @ cols)
    d = ds.d
    if cols.size == 0 or not np.any(np.linalg.norm(cols, axis=0) > 0.0):
        return np.empty(0), np.empty((d, 0)), np.eye(d), np.zeros(d)
    u, s, _ = np.linalg.svd(cols, full_matrices=True)
    floor = max(RANK_RTOL * s[0], 1e-13 * float(np.max(np.linalg.norm(ds.x, axis=0))))
    r = int(np.sum(s > floor))
    lam = s[:r] ** 2
    basis = u[:, :r]
    point = basis @ ((basis.T @ (cols @ ds.y[mask])) / lam)
    return lam, basis, u[:, r:], point


def _sweep_single(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The per-arrangement d=2 sweep that ``geometry._sweep_2d`` stacked: arc
    midpoints by ``math.atan2``/``cos``/``sin``, kept above BOUNDARY_MARGIN."""
    unit = x / np.linalg.norm(x, axis=0)
    thetas = [math.atan2(x[1, i], x[0, i]) for i in range(x.shape[1])]
    angles = sorted((t + half) % (2.0 * math.pi) for t in thetas for half in (math.pi / 2.0, -math.pi / 2.0))
    mids = [0.5 * (a + b) for a, b in zip(angles, angles[1:] + [angles[0] + 2.0 * math.pi])]
    w = np.array([[math.cos(mid) for mid in mids], [math.sin(mid) for mid in mids]])
    w = w[:, np.min(np.abs(unit.T @ w), axis=0) > BOUNDARY_MARGIN]
    return (x.T @ w > 0.0).T, w


def _split_single(earlier: np.ndarray, uk: np.ndarray, v: np.ndarray) -> np.ndarray:
    step = 0.5 * np.min(np.abs(earlier.T @ v), axis=0) * uk[:, None]
    sides = np.hstack([v + step, v - step])
    return sides / np.linalg.norm(sides, axis=0)


def aimed_cell(cols: np.ndarray, target: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The one cell of the columns' central arrangement with the boolean ``target``
    sign vector, by a deletion-restriction walk aimed at it:
    ((1, k) sign rows, (d, 1) unit witness), or zero rows when the cell is empty."""
    unit = cols / np.linalg.norm(cols, axis=0)
    reps, classes = hyperplane_classes(unit)
    if len(reps) < len(classes):
        keys, w = aimed_cell(cols[:, reps], target[reps])
        keys = keys[:, [c for c, _ in classes]] != np.array([flip for _, flip in classes])
    elif unit.shape[0] == 2:
        keys, w = _sweep_single(cols)
    else:
        u, s, _ = np.linalg.svd(unit, full_matrices=False)
        if (r := int(np.sum(s > RANK_RTOL * s[0]))) < unit.shape[0]:
            keys, w = aimed_cell(u[:, :r].T @ unit, target)
            return keys, u[:, :r] @ w
        return _walk_to(unit, target)
    hit = np.all(keys == target, axis=1)
    return keys[hit], w[:, hit]


def _walk_to(unit: np.ndarray, target: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Deletion-restriction aimed at one cell, with one witness: one product finds the first
    later column it lies on the wrong side of, where the target's cell restricted to that
    column's hyperplane, split, gives the next witness; when that restriction is empty, so is
    the cell."""
    w, k = unit[:, 0] if target[0] else -unit[:, 0], 0
    while (wrong := np.flatnonzero((unit[:, k + 1:].T @ w > 0.0) != target[k + 1:])).size:
        k += 1 + int(wrong[0])
        basis = np.linalg.svd(unit[:, k:k + 1].T[:, :, None])[0][0, :, 1:]
        if not (z := aimed_cell(basis.T @ unit[:, :k], target[:k])[1]).size:
            return np.zeros((0, len(target)), dtype=bool), unit[:, :0]
        w = _split_single(unit[:, :k], unit[:, k], basis @ z)[:, 0 if target[k] else 1]
    return target[None, :], w[:, None]


def minimizer_in_cell(ds, active: np.ndarray, p, null_basis):
    """A member of the minimizer set ``p + N z`` strictly on the deactivated side of
    every datum off in the boolean row ``active``, or None, searched for one pattern
    alone: the homogeneous arrangement ``(z, s)`` of the deactivated data, with ``p``
    scaled by ``1 / max(1, |p|)`` and the extra column ``s``, has the cell "every
    deactivated datum negative, ``s`` positive" (``aimed_cell``) exactly when the set
    meets the pattern's cell; a datum whose column vanishes there is dropped."""
    x = ds.x[:, ~active]
    unit = x / np.linalg.norm(x, axis=0)
    scale = max(1.0, float(np.linalg.norm(p)))
    cols = np.vstack([null_basis.T @ unit, (p @ unit)[None, :] / scale])
    cols = cols[:, np.linalg.norm(cols, axis=0) > RANK_RTOL]
    s_axis = np.eye(len(cols))[:, -1:]
    target = np.arange(cols.shape[1] + 1) == 0
    v = aimed_cell(np.hstack([s_axis, cols]), target)[1]
    return p + null_basis @ (scale * v[:-1, 0] / v[-1, 0]) if v.size else None


def census_loop(ds) -> tuple[list[tuple], tuple | None]:
    """The census one pattern at a time, as the grouped census replaced it:
    one ``pattern_system_single`` and one containment decision per
    enumerated pattern.  Returns the contained entries and the all-off cone,
    each as (pattern string, point, null_basis, rank, loss, witness or None)."""
    from reluflow.geometry import clearance, enumerate_partitions

    minima, cone = [], None
    for cell in enumerate_partitions(ds):
        pattern = cell.pattern
        active = pattern.as_bool()
        total_inactive = 0.5 * float(np.sum(ds.y[~active] ** 2))
        _, _, null_basis, point = pattern_system_single(ds, pattern)
        rank = ds.d - null_basis.shape[1]
        resid = ds.x[:, active].T @ point - ds.y[active]
        total = 0.5 * float(resid @ resid) + total_inactive
        witness = point if rank == ds.d else minimizer_in_cell(ds, active, point, null_basis)
        if witness is not None:
            c = clearance(ds, witness)
            if not (np.all(c[active] > BOUNDARY_MARGIN) and np.all(c[~active] <= 1e-12)):
                witness = None
        entry = (pattern.to_string(), point, null_basis, rank, total, witness)
        if not active.any():
            cone = entry
        elif witness is not None:
            minima.append(entry)
    return minima, cone


def _interval_mul(e_lo, e_hi, h_lo, h_hi):
    """[e_lo, e_hi] * [h_lo, h_hi] for 0 <= e_lo <= e_hi."""
    return np.minimum(e_lo * h_lo, e_hi * h_lo), np.maximum(e_lo * h_hi, e_hi * h_hi)


def clearance_both_forms(rates, coeffs, consts, edges) -> np.ndarray:
    """How far the enclosure of each row clears 0 on each cell: the larger of
    the term-by-term and the nested bound, both taken on every cell, and for
    a row with ``c == 0`` its nested bracket too.  This is the enclosure that
    ``expsum._clearance`` replaced, which takes the nested form only where
    the term-by-term bound is within ``BOUND_SLACK_RTOL``; the flags the two
    give against ``expsum._SLACKS`` must agree."""
    r = rates.size
    steps = np.concatenate(([rates[0]], np.diff(rates)))
    decay = np.exp(-np.multiply.outer(np.concatenate((rates, steps)), edges))
    right, left = decay[:, 1:], decay[:, :-1]
    ends = np.concatenate((np.hstack((right[:r], left[:r])), np.hstack((left[:r], right[:r]))))
    signed = np.concatenate((np.maximum(coeffs, 0.0), np.minimum(coeffs, 0.0)), axis=1)
    lo, hi = np.split(np.matmul(signed[:, None, :], ends)[:, 0], 2, axis=1)
    h_lo = h_hi = coeffs[:, -1:]
    for k in range(r - 1, 0, -1):
        h_lo, h_hi = _interval_mul(right[r + k], left[r + k], h_lo, h_hi)
        h_lo = h_lo + coeffs[:, k - 1 : k]
        h_hi = h_hi + coeffs[:, k - 1 : k]
    c = consts[:, None]
    bracket = np.where(c == 0.0, np.maximum(h_lo, -h_hi), -np.inf)
    h_lo, h_hi = _interval_mul(right[r], left[r], h_lo, h_hi)
    return np.maximum(np.maximum(np.maximum(c + lo, -(c + hi)), np.maximum(c + h_lo, -(c + h_hi))), bracket)


def _mp_value(c, coeffs, rates, t):
    """``c + sum a exp(-mu t)`` in MP_DPS-digit arithmetic (t may be inf)."""
    t = mpmath.mpf(t)
    terms = (mpmath.mpf(a) * mpmath.exp(-mpmath.mpf(mu) * t) for a, mu in zip(coeffs, rates))
    return mpmath.mpf(c) + mpmath.fsum(terms)


def _mp_signs(consts, coeffs, rates, taus) -> np.ndarray:
    """Signs (rows, instants) of the sums ``consts[k] + coeffs[k] . exp(-rates t)``.

    ``taus`` may end with inf, where a sum is its constant.  A sample
    whose double-precision value is within 1e-12 of the sum's envelope is
    evaluated again in MP_DPS digits.
    """
    consts = np.asarray(consts, dtype=float)[:, None]
    expo = np.exp(-np.multiply.outer(rates, taus))
    v = consts + coeffs @ expo
    envelope = np.abs(consts) + np.abs(coeffs) @ expo
    signs = np.sign(v).astype(int)
    with mpmath.workdps(MP_DPS):
        for k, i in zip(*np.nonzero(np.abs(v) <= 1e-12 * envelope)):
            signs[k, i] = mpmath.sign(_mp_value(consts[k, 0], coeffs[k], rates, taus[i]))
    return signs


def _mp_sign_changes(c, coeffs, rates, taus, signs) -> list[tuple[float, int, int]]:
    """Each sign change between consecutive nonzero ``signs`` at ``taus``,
    bisected in MP_DPS digits to 1e-20 relative width, as ``(t, before, after)``.
    A change towards a sample at inf is first bracketed by doubling."""
    nonzero = np.flatnonzero(signs)
    out = []
    with mpmath.workdps(MP_DPS):
        for i, j in zip(nonzero, nonzero[1:]):
            if signs[i] == signs[j]:
                continue
            a, b = mpmath.mpf(taus[i]), mpmath.mpf(taus[j])
            while b == mpmath.inf:
                b = 2 * a + 1
                if mpmath.sign(_mp_value(c, coeffs, rates, b)) == signs[i]:
                    a, b = b, mpmath.inf
            while b - a > mpmath.mpf("1e-20") * max(1, abs(a)):
                m = (a + b) / 2
                if mpmath.sign(_mp_value(c, coeffs, rates, m)) == signs[i]:
                    a = m
                else:
                    b = m
            out.append((float((a + b) / 2), int(signs[i]), int(signs[j])))
    return out


def expsum_roots_mp(f, points: int = 1000) -> list[tuple[float, int, int]]:
    """Crossings ``(t, before, after)`` of an exponential sum on [0, inf).

    The sum's own coefficients are taken as exact.  Past a horizon H no
    sign change is possible: with ``c != 0`` the terms sum to less than
    ``|c| / 2`` beyond ``log(2 sum |a| / |c|) / mu_1``, and with ``c == 0``
    the slowest term outweighs the rest beyond
    ``log(2 sum_{k>1} |a_k| / |a_1|) / (mu_2 - mu_1)``.  On [0, H] the
    sum is sampled on a linear and a geometric grid of ``points`` instants
    each, and every sign change is bisected in MP_DPS digits.  As in
    ``ExpSum.roots``, a limit within ``expsum.ZERO_RTOL`` of the t = 0
    scale counts as exactly zero.
    """
    from reluflow.expsum import ZERO_RTOL

    c, a, mu = float(f.c), np.asarray(f.coeffs), np.asarray(f.rates)
    if a.size == 0:
        return []
    if abs(c) <= ZERO_RTOL * (abs(c) + float(np.sum(np.abs(a)))):
        c = 0.0
    if c != 0.0:
        horizon = np.log(2.0 * np.sum(np.abs(a)) / abs(c)) / mu[0]
    elif a.size > 1:
        horizon = np.log(2.0 * np.sum(np.abs(a[1:])) / abs(a[0])) / (mu[1] - mu[0])
    else:
        return []
    span = 1.01 * max(horizon, 0.0) + 1.0 / mu[-1]
    taus = np.union1d(np.linspace(0.0, span, points), span * np.geomspace(1e-15, 1.0, points))
    return _mp_sign_changes(c, a, mu, taus, _mp_signs([c], a[None, :], mu, taus)[0])


def assert_matches_oracle(f):
    """The crossings of ``f.roots()`` are the 50-digit oracle's, to 1e-9.

    A crossing at 0 with ``before`` 0 is the package's zero at the left
    end: the oracle may see it just past 0, or not at all when the sum
    only touches zero there.
    """
    got = [r for r in f.roots() if r.is_crossing]
    want = expsum_roots_mp(f)
    if got and got[0].t == 0.0 and got[0].before == 0:
        if want and abs(want[0][0]) <= 1e-9 and want[0][2] == got[0].after:
            want = want[1:]
        got = got[1:]
    assert len(got) == len(want), (got, want)
    for r, (t, before, after) in zip(got, want):
        assert abs(r.t - t) <= 1e-9 * max(1.0, t), (r, t)
        assert (r.before, r.after) == (before, after)


def segment_certificate(tr, points: int = 800) -> list[str]:
    """Problems with an exact flow's segments; empty when every one holds.

    On each segment, with ``tau_end`` its duration (infinite for the last)
    and ``tol`` 1e-9 relative to the segment's scale:

    - the gap of every datum off the face stays on the side of its pattern
      bit, or within ``tol`` of its boundary, on all of ``(0, tau_end)``;
    - the gap of every held datum vanishes identically, to ``tol``;
    - every held multiplier stays in [-1e-9, 1 + 1e-9] on ``(0, tau_end)``;
      a zero-length segment, where the flow does not move, is exempt from this one.

    Each function is built from the segment's spectral data directly (no
    merged or dropped terms) and sampled at ``points`` linear and
    ``points // 4`` geometric instants of ``[0, tau_end]`` (of the decay
    horizon, and the limit, on the last segment).  A bound fails when a
    sample inside ``(edge, tau_end - edge)`` is below it, or a sign change,
    bisected in MP_DPS digits, lies there; ``edge`` is 1e-12 relative, so
    zeros at either end are the segment's own events.  The multipliers
    solve ``X_S diag(y_S) alpha = g_p(w)`` with numpy's pinv, not the
    flow's formula.  No ``ExpSum`` is used.
    """
    ds = tr.dataset
    problems = []
    for i, seg in enumerate(tr.segments):
        end = seg.t_end - seg.t_start
        edge = 1e-12 * max(1.0, end if np.isfinite(end) else 1.0)
        horizon = seg.local_horizon()
        taus = np.union1d(np.linspace(0.0, horizon, points), horizon * np.geomspace(1e-12, 1.0, points // 4))
        if not np.isfinite(end):
            taus = np.append(taus, np.inf)
        inside = (taus > edge) & (taus < end - edge)
        ws = seg.value_local(taus[np.isfinite(taus)])
        scale = max(1.0, float(np.max(np.linalg.norm(ws, axis=1))))
        scale = max(scale, float(np.linalg.norm(seg.w_start)))

        def failures(vs, offsets, levels):
            """Rows k with ``vs[k] . w(tau) - offsets[k] < levels[k]`` somewhere, as described above."""
            consts = vs @ seg.target - offsets - levels
            coeffs = (vs @ seg.eigenvectors) * seg.delta
            signs = _mp_signs(consts, coeffs, seg.eigenvalues, taus)
            out = set(np.flatnonzero(np.any(signs[:, inside] < 0, axis=1)).tolist())
            for k in np.flatnonzero(np.any(signs[:, 1:] != signs[:, :-1], axis=1)):
                changes = _mp_sign_changes(consts[k], coeffs[k], seg.eigenvalues, taus, signs[k])
                if any(edge < t < end - edge for t, _, _ in changes):
                    out.add(int(k))
            return out

        mask = seg.pattern.as_bool()
        tol = 1e-9 * np.linalg.norm(ds.x, axis=0) * scale
        off = [k for k in range(ds.n) if k not in seg.held]
        side = np.where(mask, 1.0, -1.0)
        for k in sorted(failures((ds.x * side).T[off], np.zeros(len(off)), -tol[off])):
            problems.append(f"segment {i}: datum {off[k]} leaves the side of bit {int(mask[off[k]])}")
        held = list(seg.held)
        both = np.concatenate([ds.x[:, held], -ds.x[:, held]], axis=1).T
        away = failures(both, np.zeros(2 * len(held)), -np.concatenate([tol[held], tol[held]]))
        for j, k in enumerate(held):
            if j in away or j + len(held) in away:
                problems.append(f"segment {i}: held datum {k} leaves its boundary")
        if not held or end == 0.0:
            continue
        m = np.linalg.pinv(ds.x[:, held] * ds.y[held])
        xa = ds.x[:, mask]
        h, q = xa @ xa.T, xa @ ds.y[mask]
        # alpha >= 0 and -alpha >= -1
        rows = np.concatenate([m @ h, -(m @ h)])
        offsets = np.concatenate([m @ q, -(m @ q)])
        levels = np.concatenate([np.full(len(held), -1e-9), np.full(len(held), -1.0 - 1e-9)])
        outside = failures(rows, offsets, levels)
        for j, k in enumerate(held):
            if j in outside or j + len(held) in outside:
                problems.append(f"segment {i}: held datum {k} has a multiplier outside [0, 1]")
    return problems


def _mp_w_dot_dw(seg, tau) -> mpmath.mpf:
    """``w(tau) . dw/dtau`` in MP_DPS digits, from the segment's raw spectral data."""
    with mpmath.workdps(MP_DPS):
        decay = [mpmath.exp(-mpmath.mpf(lam) * mpmath.mpf(tau)) for lam in seg.eigenvalues]
        total = mpmath.mpf(0)
        for row, t in zip(seg.eigenvectors, seg.target):
            parts = [mpmath.mpf(e) * mpmath.mpf(dk) * f for e, dk, f in zip(row, seg.delta, decay)]
            w = mpmath.mpf(t) + mpmath.fsum(parts)
            dw = -mpmath.fsum(mpmath.mpf(lam) * q for lam, q in zip(seg.eigenvalues, parts))
            total += w * dw
        return total


def norm_growth_mp(tr, points: int = 4000) -> tuple[int, float] | None:
    """First (segment index, local time) from which |w| stops growing strictly, or None.

    On each segment of positive length, ``s = w . dw/dtau`` (positive while
    |w| grows) is evaluated from ``target``, ``delta``, ``eigenvalues`` and
    ``eigenvectors`` directly, with no ``ExpSum`` and no orthonormality
    assumed, at ``points`` linear and ``points`` geometric instants of
    ``[0, horizon]`` (and at 2, 4 and 8 horizons on the last segment).  A
    sample whose double-precision value is within 1e-12 of its envelope
    ``sum_i (|t_i| + sum_k |e_ik delta_k| f_k) (sum_k |e_ik lam_k delta_k| f_k)``
    is evaluated again in MP_DPS digits.  Samples within ``edge``, 1e-12
    relative, of either end are the segment's own events and are skipped.
    A segment fails at 0 when s is identically 0 or not positive at its first
    sample past ``edge``, and otherwise at its first sign change from positive,
    bisected in MP_DPS digits to 1e-20 relative width.
    """
    for i, seg in enumerate(tr.segments):
        end = seg.t_end - seg.t_start
        if end == 0.0:
            continue
        horizon = seg.local_horizon()
        taus = np.union1d(np.linspace(0.0, horizon, points), horizon * np.geomspace(1e-12, 1.0, points))
        if not np.isfinite(end):
            taus = np.append(taus, horizon * np.array([2.0, 4.0, 8.0]))
        edge = 1e-12 * max(1.0, end if np.isfinite(end) else 1.0)
        taus = taus[(taus > edge) & (taus < end - edge)]
        if taus.size == 0:
            continue  # no instant of the segment lies off its end events
        lam, e, delta = seg.eigenvalues, seg.eigenvectors, seg.delta
        decay = np.exp(-np.multiply.outer(taus, lam))  # (instants, r)
        w = seg.target + (decay * delta) @ e.T
        dw = -(decay * (lam * delta)) @ e.T
        env = (np.abs(seg.target) + decay @ np.abs(e * delta).T) * (decay @ np.abs(e * (lam * delta)).T)
        env = env.sum(axis=1)
        if not np.any(env):
            return i, 0.0  # every term of s vanishes: the flow does not move
        s = np.einsum("ij,ij->i", w, dw)
        signs = np.sign(s).astype(int)
        for k in np.flatnonzero(np.abs(s) <= 1e-12 * env):
            signs[k] = int(mpmath.sign(_mp_w_dot_dw(seg, taus[k])))
        if signs[0] != 1:
            return i, 0.0
        if np.all(signs == 1):
            continue
        j = int(np.argmax(signs != 1))
        with mpmath.workdps(MP_DPS):
            a, b = mpmath.mpf(taus[j - 1]), mpmath.mpf(taus[j])
            while b - a > mpmath.mpf("1e-20") * max(1, abs(a)):
                m = (a + b) / 2
                if _mp_w_dot_dw(seg, m) > 0:
                    a = m
                else:
                    b = m
            return i, float((a + b) / 2)
    return None
