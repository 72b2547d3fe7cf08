"""Root isolation for decaying exponential sums.

Linear observables of the piecewise flows (boundary gaps, hyperplane
offsets, norm derivatives) all have the form

    f(t) = c + sum_k a_k * exp(-mu_k * t),   mu_k > 0 distinct.

A sum with m exponential terms has at most m real zeros.  Its derivative
is a sum of the same class with one term fewer once the slowest decay is
factored out, so critical points can be isolated recursively; between
consecutive critical points f is strictly monotone and a sign change
brackets exactly one root, which Brent's method then polishes to machine
precision.  This gives certified root lists on [lo, infinity), including
the sign of f on both sides of every root (touches report equal signs).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .errors import NumericalError

# |f(t)| below ZERO_RTOL times the decay envelope counts as an exact zero.
ZERO_RTOL = 1e-13

# Exponential rates closer than MERGE_RTOL (relative to the largest rate)
# are combined into one term; coefficients below DROP_RTOL of the total
# coefficient mass are discarded.
MERGE_RTOL = 1e-12
DROP_RTOL = 5e-15

# Two instants, or two values, within TIE_RTOL * max(1, |t|) of each other
# tie: they count as the same root, event or value.
TIE_RTOL = 1e-12

# The tail bracket's step grows by this factor until the limit sign shows;
# a tail without that sign after 200 steps raises NumericalError.
BRACKET_FACTOR = 2.0

_BRENTQ_RTOL = 4 * np.finfo(float).eps
_BRENTQ_XTOL = 1e-30  # absolute term must not mask the machine-relative target


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
        c = float(constant)
        if coeffs.size:
            order = np.argsort(rates)
            coeffs, rates = coeffs[order], rates[order]
            # merge near-identical rates (degenerate eigenvalues)
            tol = MERGE_RTOL * rates[-1]
            merged_c, merged_r = [], []
            for a, mu in zip(coeffs, rates):
                if merged_r and mu - merged_r[-1] <= tol:
                    merged_c[-1] += a
                else:
                    merged_c.append(a)
                    merged_r.append(mu)
            coeffs = np.array(merged_c)
            rates = np.array(merged_r)
            scale = abs(c) + np.sum(np.abs(coeffs))
            keep = np.abs(coeffs) > DROP_RTOL * scale
            coeffs, rates = coeffs[keep], rates[keep]
        self.c = c
        self.coeffs = coeffs
        self.rates = rates
        self.coeffs.setflags(write=False)
        self.rates.setflags(write=False)

    @property
    def n_terms(self) -> int:
        return int(self.coeffs.size)

    def value(self, t):
        t = np.asarray(t, dtype=float)
        if self.n_terms == 0:
            return np.full(t.shape, self.c) if t.ndim else float(self.c)
        expo = np.exp(-np.multiply.outer(t, self.rates))
        out = self.c + expo @ self.coeffs
        return float(out) if t.ndim == 0 else out

    def derivative(self) -> "ExpSum":
        return ExpSum(0.0, -self.rates * self.coeffs, self.rates)

    def _derivative_factored(self) -> "ExpSum":
        """Derivative with the slowest decay factored out (same zeros)."""
        a = -self.rates * self.coeffs
        return ExpSum(a[0], a[1:], self.rates[1:] - self.rates[0])

    def _envelope(self, t: float) -> float:
        if self.n_terms == 0:
            return abs(self.c)
        return abs(self.c) + float(np.sum(np.abs(self.coeffs) * np.exp(-self.rates * t)))

    def _sgn(self, t: float) -> int:
        v = self.value(t)
        if abs(v) <= ZERO_RTOL * self._envelope(t):
            return 0
        return 1 if v > 0.0 else -1

    def _limit_sgn(self) -> int:
        scale = abs(self.c) + float(np.sum(np.abs(self.coeffs)))
        if scale == 0.0 or abs(self.c) <= ZERO_RTOL * scale:
            return 0
        return 1 if self.c > 0.0 else -1

    def roots(self, lo: float = 0.0) -> list[Root]:
        """All isolated zeros in [lo, infinity), earliest first."""
        if self.n_terms == 0:
            return []
        if self.n_terms == 1:
            return self._roots_single(lo)

        crit = [r.t for r in self._derivative_factored().roots(lo)]
        nodes = [lo]
        for t in crit:
            if t > nodes[-1] * (1 + 1e-12) + 1e-300:
                nodes.append(t)
        signs = [self._sgn(t) for t in nodes]
        limit = self._limit_sgn()

        found: list[Root] = []
        pending: list[int] = []  # indices into found awaiting an 'after' sign

        def emit(t: float, before: int) -> None:
            if found and t - found[-1].t <= TIE_RTOL * max(1.0, abs(t)):
                return
            found.append(Root(t, before, 0))
            pending.append(len(found) - 1)

        def settle(sign: int) -> None:
            while pending:
                i = pending.pop()
                found[i] = Root(found[i].t, found[i].before, sign)

        prev_nonzero = 0
        for i, (t_i, s_i) in enumerate(zip(nodes, signs)):
            if s_i == 0:
                emit(t_i, prev_nonzero)
                continue
            settle(s_i)
            prev_nonzero = s_i
            s_next = signs[i + 1] if i + 1 < len(nodes) else limit
            if s_next != 0 and s_next != s_i:
                if i + 1 < len(nodes):
                    t_root = brentq(
                        self.value, t_i, nodes[i + 1], xtol=_BRENTQ_XTOL, rtol=_BRENTQ_RTOL, maxiter=200
                    )
                else:
                    t_root = self._tail_root(t_i, s_i)
                emit(float(t_root), s_i)
        settle(limit)
        return found

    def _roots_single(self, lo: float) -> list[Root]:
        a, mu = float(self.coeffs[0]), float(self.rates[0])
        if self.c == 0.0 or a == 0.0:
            return []
        ratio = -self.c / a
        if ratio <= 0.0:
            return []
        t = -np.log(ratio) / mu
        if not np.isfinite(t) or t < lo:
            return []
        before = 0 if t <= lo else self._sgn(lo)
        return [Root(float(t), before, self._limit_sgn())]

    def _tail_root(self, t_last: float, s_last: int):
        """Bracket the single root on the monotone tail [t_last, inf)."""
        limit = self._limit_sgn()
        step = max(1.0 / self.rates[0], 1e-6)
        t_lo, t_hi = t_last, t_last + step
        for _ in range(200):
            s = self._sgn(t_hi)
            if s == limit:
                return brentq(self.value, t_lo, t_hi, xtol=_BRENTQ_XTOL, rtol=_BRENTQ_RTOL, maxiter=200)
            if s == s_last:
                t_lo = t_hi
            step *= BRACKET_FACTOR
            t_hi = t_last + step
        raise NumericalError(f"tail root after t = {t_last!r} not bracketed in 200 steps")
