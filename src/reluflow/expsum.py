"""Root isolation for decaying exponential sums.

Linear observables of the piecewise flows (boundary gaps, hyperplane
offsets, norm derivatives) all have the form

    f(t) = c + sum_k a_k * exp(-mu_k * t),   mu_k > 0 distinct.

Zeros are isolated by interval branch-and-bound (Moore, *Interval
Analysis*, 1966) on one grid: ``[0, BOUND_T0_RATES / mu_max]``,
doubling cells up to ``TERMINAL_HORIZON_RATES / mu_min``, then a tail to
infinity split by doubling.  A cell where the enclosure of f clears 0
has no root.  Where that of f' does, f is monotone: the end signs decide,
and Brent's method polishes the root.  Where that of f'' does, Brent's
method on f' splits the cell at the extremum into two monotone halves,
and a zero there is a touch.  Other cells are bisected; one whose ends
tie (:func:`tied`) that is still undecided raises NumericalError.
Enclosures are taken term by term and, sharp on near-equal rates, in the
nested form ``c + e^{-mu_1 t}(a_1 + e^{-(mu_2 - mu_1) t}(a_2 + ...))``,
the latter only on the cells that the former leaves within
``BOUND_SLACK_RTOL`` of 0, where no flag is yet decided.
:class:`RootBatch` decides the cells of many sums with shared rates in one
pass, each row bitwise as alone; ``ExpSum.roots`` is its one-row case.

A run of instants with ``|f|`` within ``ZERO_RTOL`` of the envelope is
one root (at 0 with ``before`` 0 when the run starts there), and a
limit within ``ZERO_RTOL`` of the t = 0 scale is exactly zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .errors import NumericalError

# |f(t)| below ZERO_RTOL times the decay envelope counts as an exact zero.
ZERO_RTOL = 1e-13

# Exponential rates closer than MERGE_RTOL (relative to the largest rate)
# are combined into one term; a term whose coefficient sums to exactly 0 goes.
MERGE_RTOL = 1e-12

# Two instants tie when the later is within TIE_RTOL * max(1, t) of the
# earlier t (:func:`tied`); values tie on scales of their own.
TIE_RTOL = 1e-12

# The grid ends at TERMINAL_HORIZON_RATES / mu_min, where exp(-50) is far
# below double precision; terminal segments are sampled up to there too.
TERMINAL_HORIZON_RATES = 50.0

# The grid starts with [0, BOUND_T0_RATES / mu_max] and doubles from
# there.  A sum is zero-free on a cell only when its enclosure clears 0 by
# BOUND_SLACK_RTOL * (|c| + sum |a|): 1e4 above ZERO_RTOL, so the zeros
# the isolator reports, and roundoff-level terms, stay inside the slack.
# f' and f'', which decide a cell's shape, need only exclude 0 (_SLACKS).
BOUND_T0_RATES = 1e-6
BOUND_SLACK_RTOL = 1e-9
_SLACKS = np.array([[BOUND_SLACK_RTOL], [0.0], [0.0]])

_BRENTQ_RTOL = 4 * np.finfo(float).eps
_BRENTQ_XTOL = 1e-30  # absolute term must not mask the machine-relative target


def tied(a: float, b: float) -> bool:
    """Whether instant ``b``, at or after ``a``, ties with ``a``: the one rule for instants, anchored on ``a``."""
    return b - a <= TIE_RTOL * max(1.0, a)


@dataclass(frozen=True)
class Root:
    """An isolated zero of the sum, with signs on either side.

    ``before``/``after`` are -1, 0, +1; a transversal crossing has
    ``before != after`` and both nonzero, a touch has ``before == after``.
    ``before`` is 0 when the root sits at the left end of the search range.
    """

    t: float
    before: int
    after: int

    @property
    def is_crossing(self) -> bool:
        return self.after != 0 and self.before != self.after


def _merge(rates: np.ndarray, coeffs: np.ndarray):
    """Rates ascending, each run within MERGE_RTOL * max(rates) of its first
    rate merged into that rate, and the columns of ``coeffs`` (rows, r)
    summed to match."""
    order = np.argsort(rates, kind="stable")
    rates = rates[order]
    starts = [0]
    for k in range(1, rates.size):
        if rates[k] - rates[starts[-1]] > MERGE_RTOL * rates[-1]:
            starts.append(k)
    return rates[starts], np.add.reduceat(coeffs[:, order], starts, axis=1)


def _grid(rates: np.ndarray) -> np.ndarray:
    """Cell edges: 0, then t0 * 2^k up to the horizon, then infinity."""
    t0 = BOUND_T0_RATES / rates[-1]
    doublings = int(np.ceil(np.log2(TERMINAL_HORIZON_RATES / rates[0] / t0)))
    return np.concatenate(([0.0], t0 * 2.0 ** np.arange(doublings + 1), [np.inf]))


def _interval_mul(e_lo, e_hi, h_lo, h_hi):
    """[e_lo, e_hi] * [h_lo, h_hi] for 0 <= e_lo <= e_hi."""
    return np.minimum(e_lo * h_lo, e_hi * h_lo), np.maximum(e_lo * h_hi, e_hi * h_hi)


def _clearance(rates, coeffs, consts, edges) -> np.ndarray:
    """How far the enclosure of row k clears 0 on each cell between ``edges``
    (negative where it holds 0); ``rates`` ascend and are distinct.

    A decaying term is least on a cell at its right end if its coefficient
    is positive, else at its left end: the term-by-term bounds are ``c +
    pos . E_right + neg . E_left`` and its mirror, as stacked per-row
    products so that no row depends on the others.  Where that bound clears
    0 by more than the largest of ``_SLACKS``, it is the value and decides
    every flag.  The other (row, cell) pairs are
    gathered and also bounded in the nested form, from the factors of the
    same ``exp`` table, and a row with ``c == 0`` by its nested bracket
    alone, which has its sign; there the value is the largest of the three.
    """
    r = rates.size
    steps = np.concatenate(([rates[0]], np.diff(rates)))
    decay = np.exp(-np.multiply.outer(np.concatenate((rates, steps)), edges))
    right, left = decay[:, 1:], decay[:, :-1]  # each factor's least and greatest value on a cell
    ends = np.concatenate((np.hstack((right[:r], left[:r])), np.hstack((left[:r], right[:r]))))
    signed = np.concatenate((np.maximum(coeffs, 0.0), np.minimum(coeffs, 0.0)), axis=1)
    lo, hi = np.split(np.matmul(signed[:, None, :], ends)[:, 0], 2, axis=1)
    c = consts[:, None]
    clear = np.maximum(c + lo, -(c + hi))
    i, j = np.nonzero(clear <= _SLACKS.max())
    a, e_lo, e_hi, c = coeffs.T[:, i], right[r:, j], left[r:, j], consts[i]
    h_lo = h_hi = a[-1]
    for k in range(r - 1, 0, -1):
        h_lo, h_hi = _interval_mul(e_lo[k], e_hi[k], h_lo, h_hi)
        h_lo, h_hi = h_lo + a[k - 1], h_hi + a[k - 1]
    bracket = np.where(c == 0.0, np.maximum(h_lo, -h_hi), -np.inf)
    h_lo, h_hi = _interval_mul(e_lo[0], e_hi[0], h_lo, h_hi)
    clear[i, j] = np.maximum(np.maximum(clear[i, j], np.maximum(c + h_lo, -(c + h_hi))), bracket)
    return clear


def _polish(f: "ExpSum", t_a: float, t_b: float) -> float:
    """The zero of f between instants where its signs differ, by Brent's method."""
    return float(brentq(f.value, t_a, t_b, xtol=_BRENTQ_XTOL, rtol=_BRENTQ_RTOL, maxiter=200))


class ExpSum:
    """Immutable ``c + sum a_k exp(-mu_k t)`` with positive rates."""

    __slots__ = ("c", "coeffs", "rates")

    def __init__(self, constant: float, coeffs, rates):
        coeffs = np.atleast_1d(np.asarray(coeffs, dtype=float))
        rates = np.atleast_1d(np.asarray(rates, dtype=float))
        if coeffs.shape != rates.shape:
            raise ValueError("coefficients and rates must align")
        if np.any(rates <= 0.0):
            raise ValueError("rates must be strictly positive")
        if coeffs.size:
            rates, (coeffs,) = _merge(rates, coeffs[None, :])
            rates, coeffs = rates[coeffs != 0.0], coeffs[coeffs != 0.0]
        self.c, self.coeffs, self.rates = float(constant), coeffs, rates
        self.coeffs.setflags(write=False)
        self.rates.setflags(write=False)

    @property
    def n_terms(self) -> int:
        return int(self.coeffs.size)

    def value(self, t):
        t = np.asarray(t, dtype=float)
        expo = np.exp(-np.multiply.outer(t, self.rates))
        out = self.c + expo @ self.coeffs
        return float(out) if t.ndim == 0 else out

    def derivative(self) -> "ExpSum":
        return ExpSum(0.0, -self.rates * self.coeffs, self.rates)

    def _signs(self, ts: np.ndarray) -> np.ndarray:
        """Sign at each instant, 0 where |f| is within ZERO_RTOL of the envelope."""
        expo = np.exp(-np.multiply.outer(ts, self.rates))
        v = self.c + expo @ self.coeffs
        envelope = abs(self.c) + expo @ np.abs(self.coeffs)
        return np.where(np.abs(v) <= ZERO_RTOL * envelope, 0, np.sign(v)).astype(int)

    @classmethod
    def _merged(cls, constant: float, coeffs: np.ndarray, rates: np.ndarray) -> "ExpSum":
        """The sum with rates that are already merged, taken as it is."""
        f = cls.__new__(cls)
        f.c, f.coeffs, f.rates = float(constant), coeffs, rates
        return f

    def roots(self) -> list[Root]:
        """All isolated zeros in [0, infinity), earliest first: the one-row case of :class:`RootBatch`."""
        return RootBatch(self.rates, self.coeffs, [self.c]).roots(0)


class RootBatch:
    """The isolator over rows ``consts[k] + sum_j coeffs[k, j] exp(-rates[j] t)``.

    One pass scales every row to unit mass, takes its limit sign and finds
    the cells of the merged rates' grid where its f, f' and f'' clear 0;
    ``lower[k]`` is the left end of row k's first cell where f may vanish
    (``inf`` if none).  :meth:`roots` resumes from the cells, bisecting the
    undecided ones, bitwise as ``ExpSum(consts[k], coeffs[k], rates).roots()``,
    which isolates a row with an exact 0 merged coefficient on its own grid.
    """

    def __init__(self, rates, coeffs, consts):
        self.consts, rates = np.asarray(consts, dtype=float), np.asarray(rates, dtype=float)
        self.lower = np.full(self.consts.size, np.inf)
        if rates.size == 0:
            return
        self.rates, self.coeffs = _merge(rates, np.reshape(coeffs, (self.consts.size, rates.size)).astype(float))
        # unit mass keeps tiny scales from underflowing; a zero limit is exact
        scale = np.abs(self.consts) + np.abs(self.coeffs).sum(axis=1)
        scale[scale == 0.0] = 1.0
        self.limits = np.where(np.abs(self.consts) <= ZERO_RTOL * scale, 0, np.sign(self.consts)).astype(int)
        unit = self.coeffs / scale[:, None]
        self.rows = np.stack((unit, -self.rates * unit, self.rates**2 * unit), axis=1)  # f, f', f''
        self.row_consts = np.outer(np.where(self.limits != 0, self.consts / scale, 0.0), [1.0, 0.0, 0.0])
        self.edges = _grid(self.rates)
        clear = _clearance(self.rates, self.rows.reshape(-1, self.rates.size), self.row_consts.ravel(), self.edges)
        self.free = clear.reshape(scale.size, 3, -1) > _SLACKS
        self.lower = np.where(self.free[:, 0].all(axis=1), np.inf, self.edges[np.argmin(self.free[:, 0], axis=1)])

    def roots(self, k: int) -> list[Root]:
        """All isolated zeros of row k in [0, infinity), earliest first."""
        if np.isinf(self.lower[k]):
            return []
        if not np.all(self.coeffs[k]):
            return ExpSum(self.consts[k], self.coeffs[k], self.rates).roots()
        rows, consts, limit = self.rows[k], self.row_consts[k], int(self.limits[k])
        f, df = ExpSum._merged(consts[0], rows[0], self.rates), ExpSum._merged(0.0, rows[1], self.rates)

        def cells(edges, free):
            return list(zip(edges[:-1].tolist(), edges[1:].tolist(), free.T.tolist()))

        # cut f into cells on which it is zero-free or monotone, earliest first
        cuts = [0.0]
        todo = cells(self.edges, self.free[k])[::-1]
        while todo:
            t_a, t_b, (f_free, monotone, unimodal) = todo.pop()
            finite = t_b < np.inf
            if f_free or monotone and (finite or f._signs(t_a) * limit >= 0):
                cuts.append(t_b)
                continue
            if unimodal and finite:
                s_a, s_b = df._signs(np.array([t_a, t_b]))
                if s_a * s_b < 0:
                    cuts.append(_polish(df, t_a, t_b))
                cuts.append(t_b)
                continue
            mid = 0.5 * (t_a + t_b) if finite else 2.0 * t_a
            if tied(t_a, t_b) or mid == np.inf:
                raise NumericalError(f"no certified root isolation on [{t_a!r}, {t_b!r}]")
            edges = np.array([t_a, mid, t_b])
            todo.extend(cells(edges, _clearance(self.rates, rows, consts, edges) > _SLACKS)[::-1])

        signs = f._signs(np.array(cuts[:-1])).tolist()
        found: list[Root] = []
        # a run reaching the last cut keeps 'after' 0, its limit: past 50 / mu_min only a 0 limit vanishes
        run: int | None = None  # the root of a run of zeros, awaiting its 'after' sign
        last = -1  # the cut of the last nonzero sign
        for i, (t, s) in enumerate(zip(cuts, signs)):
            if s == 0:
                if run is None:
                    found.append(Root(t, signs[last] if last >= 0 else 0, 0))
                    run = len(found) - 1
                continue
            if run is not None:
                t_run = found[run].t
                if found[run].before == -s:  # a run that hides a crossing: polish it
                    t_run = _polish(f, cuts[last], t)
                found[run] = Root(t_run, found[run].before, s)
                run = None
            elif last == i - 1 >= 0 and signs[last] == -s:
                found.append(Root(_polish(f, cuts[last], t), signs[last], s))
            last = i
        # tied roots are one root
        return [r for i, r in enumerate(found) if not i or not tied(found[i - 1].t, r.t)]
