"""Training data container, assumption checking, and rank reduction.

A dataset is a fixed matrix of input columns ``x`` (shape ``d x n``) and a
label vector ``y`` (length ``n``).  Three named data assumptions are used
throughout the package:

- ``A1``: every input entry is nonnegative (and no column is zero),
- ``A2``: every label is strictly positive,
- ``A3``: the input matrix has full row rank ``d``.

Rank decisions use a scale-free cutoff: singular values below
``RANK_RTOL`` times the largest singular value count as zero.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import StructuralError

ASSUMPTIONS = ("A1", "A2", "A3")

# Singular values below RANK_RTOL * s_max count as zero.
RANK_RTOL = 1e-10


def _as_readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


def matrix_rank(x: np.ndarray) -> int:
    """Rank of ``x`` under the package-wide singular-value cutoff."""
    s = np.linalg.svd(np.asarray(x, dtype=float), compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > RANK_RTOL * s[0]))


def _assumption_failures(x: np.ndarray, y: np.ndarray) -> dict[str, tuple[int, ...]]:
    """Offending column indices per assumption (A3 reports no indices)."""
    d = x.shape[0]
    a1 = tuple(int(i) for i in np.nonzero(np.any(x < 0.0, axis=0))[0])
    a2 = tuple(int(i) for i in np.nonzero(~(y > 0.0))[0])
    a3 = () if matrix_rank(x) == d else None  # None marks a rank failure
    return {"A1": a1, "A2": a2, "A3": a3}


def detect_assumptions(x: np.ndarray, y: np.ndarray) -> frozenset[str]:
    """The subset of A1/A2/A3 that actually holds for (x, y)."""
    fails = _assumption_failures(np.asarray(x, float), np.asarray(y, float))
    held = set()
    if not fails["A1"]:
        held.add("A1")
    if not fails["A2"]:
        held.add("A2")
    if fails["A3"] == ():
        held.add("A3")
    return frozenset(held)


@dataclass(frozen=True)
class Dataset:
    """Immutable training set: ``x`` holds inputs as columns, ``y`` labels.

    ``assumptions`` lists the data assumptions the caller asserts; asserted
    assumptions are verified at construction time.  Columns must be nonzero
    regardless of flags.
    """

    x: np.ndarray
    y: np.ndarray
    assumptions: frozenset[str] = field(default_factory=frozenset)

    def __post_init__(self):
        x = _as_readonly(self.x)
        y = _as_readonly(self.y)
        if x.ndim != 2:
            raise StructuralError(f"x must be a 2-d matrix, got ndim={x.ndim}")
        if y.ndim != 1:
            raise StructuralError(f"y must be a 1-d vector, got ndim={y.ndim}")
        if x.shape[1] != y.shape[0]:
            raise StructuralError(
                f"x has {x.shape[1]} columns but y has {y.shape[0]} entries"
            )
        if x.shape[1] < 1:
            raise StructuralError("need at least one sample")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise StructuralError("non-finite entries in dataset")
        norms = np.linalg.norm(x, axis=0)
        if np.any(norms == 0.0):
            bad = np.nonzero(norms == 0.0)[0].tolist()
            raise StructuralError(f"zero input column(s) at indices {bad}")
        flags = frozenset(self.assumptions)
        unknown = flags - set(ASSUMPTIONS)
        if unknown:
            raise StructuralError(f"unknown assumption flags: {sorted(unknown)}")
        fails = _assumption_failures(x, y)
        for flag in sorted(flags):
            bad = fails[flag]
            if flag == "A3":
                if bad is None:
                    raise StructuralError(
                        f"A3 asserted but rank(x) = {matrix_rank(x)} < d = {x.shape[0]}"
                    )
            elif bad:
                raise StructuralError(f"{flag} asserted but violated at indices {list(bad)}")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "assumptions", flags)

    @property
    def d(self) -> int:
        return self.x.shape[0]

    @property
    def n(self) -> int:
        return self.x.shape[1]


@dataclass(frozen=True)
class ValidationReport:
    """Per-assumption outcome of :func:`validate_dataset`.

    ``failures`` maps each checked assumption to the offending column
    indices (``A3`` failures carry the deficient rank instead, in ``rank``).
    """

    required: tuple[str, ...]
    held: dict[str, bool]
    failures: dict[str, tuple[int, ...]]
    rank: int
    d: int
    passed: bool

    def to_json(self) -> dict:
        return {
            "required": list(self.required),
            "held": dict(self.held),
            "failures": {k: list(v) for k, v in self.failures.items()},
            "rank": self.rank,
            "d": self.d,
            "passed": self.passed,
        }


def validate_dataset(ds: Dataset, require=ASSUMPTIONS) -> ValidationReport:
    """Check the required assumption flags against the data.

    Passes iff every required assumption holds.  Structural problems (shape
    mismatch, zero columns) are rejected by the :class:`Dataset` constructor
    itself and never reach this report.
    """
    require = tuple(sorted(set(require)))
    unknown = set(require) - set(ASSUMPTIONS)
    if unknown:
        raise StructuralError(f"unknown assumption flags: {sorted(unknown)}")
    fails = _assumption_failures(ds.x, ds.y)
    rank = matrix_rank(ds.x)
    # A3 failures carry no column indices; the deficient rank is reported instead.
    failures = {flag: (fails[flag] or ()) if flag != "A3" else () for flag in require}
    held = {flag: (fails[flag] == () if flag == "A3" else not fails[flag]) for flag in require}
    return ValidationReport(
        required=require,
        held=held,
        failures=failures,
        rank=rank,
        d=ds.d,
        passed=all(held.values()),
    )


@dataclass(frozen=True)
class ReductionMap:
    """Orthogonal projection onto the span of the data columns.

    ``projector`` is the ``d x d`` orthogonal projector onto range(x);
    ``basis`` is a ``d x r`` orthonormal basis of that range, so
    ``projector = basis @ basis.T`` and ``rank = r``.
    """

    projector: np.ndarray
    basis: np.ndarray
    rank: int

    def __post_init__(self):
        object.__setattr__(self, "projector", _as_readonly(self.projector))
        object.__setattr__(self, "basis", _as_readonly(self.basis))


def reduction_map(ds: Dataset) -> ReductionMap:
    """Projection onto the span of the data, from an SVD of ``x``.

    The basis consists of the left singular vectors whose singular value is
    above the rank cutoff; overparameterized problems (rank < d) project to
    a full-rank problem in ``r`` dimensions without changing the loss.
    """
    u, s, _ = np.linalg.svd(ds.x, full_matrices=False)
    r = int(np.sum(s > RANK_RTOL * s[0]))
    basis = u[:, :r]
    projector = basis @ basis.T
    return ReductionMap(projector=projector, basis=basis, rank=r)


def reduce_dataset(ds: Dataset, rmap: ReductionMap) -> Dataset:
    """Re-express the data in the reduced coordinates ``basis.T @ x``.

    Labels are unchanged.  The result has full row rank by construction;
    assumption flags are re-detected on the reduced data (a rotation can
    destroy entrywise nonnegativity).
    """
    x_new = rmap.basis.T @ ds.x
    return Dataset(x=x_new, y=ds.y, assumptions=detect_assumptions(x_new, ds.y))


def augment_bias(ds: Dataset) -> Dataset:
    """Append a constant-1 input coordinate so a bias term becomes a weight."""
    x_new = np.vstack([ds.x, np.ones(ds.n)])
    return Dataset(x=x_new, y=ds.y, assumptions=detect_assumptions(x_new, ds.y))


def dataset_to_json(ds: Dataset) -> dict:
    """JSON object with column-major inputs: x is a list of n length-d columns."""
    return {
        "d": ds.d,
        "n": ds.n,
        "x": [ds.x[:, i].tolist() for i in range(ds.n)],
        "y": ds.y.tolist(),
        "assumptions": sorted(ds.assumptions),
    }


def dataset_from_json(obj: dict) -> Dataset:
    try:
        cols = [np.asarray(c, dtype=float) for c in obj["x"]]
        y = np.asarray(obj["y"], dtype=float)
        flags = frozenset(obj.get("assumptions", []))
    except (KeyError, TypeError, ValueError) as exc:
        raise StructuralError(f"malformed dataset JSON: {exc}") from exc
    if not cols:
        raise StructuralError("dataset JSON has no input columns")
    lengths = {c.shape for c in cols}
    if len(lengths) != 1 or cols[0].ndim != 1:
        raise StructuralError("dataset JSON columns must share one length")
    x = np.stack(cols, axis=1)
    if "d" in obj and int(obj["d"]) != x.shape[0]:
        raise StructuralError(f"declared d={obj['d']} but columns have length {x.shape[0]}")
    if "n" in obj and int(obj["n"]) != x.shape[1]:
        raise StructuralError(f"declared n={obj['n']} but got {x.shape[1]} columns")
    return Dataset(x=x, y=y, assumptions=flags)


def canonical_json(obj: dict) -> str:
    """Deterministic serialization used for fixture hashing and artifacts."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def save_dataset(ds: Dataset, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(dataset_to_json(ds)))
        fh.write("\n")


def load_dataset(path) -> Dataset:
    with open(path, "r", encoding="utf-8") as fh:
        return dataset_from_json(json.load(fh))
