"""Training data container, assumption checking, bias augmentation and JSON I/O.

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
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import NumericalError, PreconditionError, StructuralError

ASSUMPTIONS = ("A1", "A2", "A3")

# Singular values below RANK_RTOL * s_max count as zero.
RANK_RTOL = 1e-10


def as_readonly(a: np.ndarray) -> np.ndarray:
    """A read-only float copy of ``a``."""
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


def freeze_fields(obj, *names: str) -> None:
    """Replace each named field of a frozen dataclass, unless None, by a read-only float copy."""
    for name in names:
        value = getattr(obj, name)
        if value is not None:
            object.__setattr__(obj, name, as_readonly(value))


def matrix_rank(x: np.ndarray) -> int:
    """Rank of ``x`` under the package-wide singular-value cutoff."""
    s = np.linalg.svd(np.asarray(x, dtype=float), compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > RANK_RTOL * s[0]))


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
        x = as_readonly(self.x)
        y = as_readonly(self.y)
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
        report = _assumption_report(x, y, flags)
        for flag in report.required:
            if report.held[flag]:
                continue
            if flag == "A3":
                raise StructuralError(f"A3 asserted but rank(x) = {report.rank} < d = {report.d}")
            raise StructuralError(f"{flag} asserted but violated at indices {list(report.failures[flag])}")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "assumptions", flags)

    @property
    def d(self) -> int:
        return self.x.shape[0]

    @property
    def n(self) -> int:
        return self.x.shape[1]


def check_point(ds: Dataset, w, name: str = "w0") -> np.ndarray:
    """``w`` as a float vector of length ``ds.d`` with finite entries, else a typed error naming it."""
    w = np.asarray(w, dtype=float)
    if w.shape != (ds.d,):
        raise StructuralError(f"{name} must have length {ds.d}, got shape {w.shape}")
    if not np.all(np.isfinite(w)):
        raise PreconditionError(f"{name} must be finite")
    return w


def check_count(value, name: str) -> int:
    """``value`` as an ``int`` when it is a nonnegative integer (a bool is not), else a
    ``StructuralError`` naming it."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 0:
        raise StructuralError(f"{name} must be a nonnegative integer, got {value!r}")
    return int(value)


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
        return asdict(self)


def _assumption_report(x: np.ndarray, y: np.ndarray, require) -> ValidationReport:
    """Check the assumption flags ``require`` against inputs ``x`` and labels ``y``."""
    unknown = set(require) - set(ASSUMPTIONS)
    if unknown:  # sorted by text, so that a non-string flag from JSON is named, not compared
        raise StructuralError(f"unknown assumption flags: {sorted(unknown, key=str)}")
    require = tuple(sorted(set(require)))
    rank = matrix_rank(x)
    # A3 failures carry no column indices; the deficient rank is reported instead.
    offending = {
        "A1": tuple(np.flatnonzero(np.any(x < 0.0, axis=0)).tolist()),
        "A2": tuple(np.flatnonzero(~(y > 0.0)).tolist()),
        "A3": (),
    }
    held = {flag: rank == x.shape[0] if flag == "A3" else not offending[flag] for flag in require}
    return ValidationReport(
        required=require,
        held=held,
        failures={flag: offending[flag] for flag in require},
        rank=rank,
        d=x.shape[0],
        passed=all(held.values()),
    )


def validate_dataset(ds: Dataset, require=ASSUMPTIONS) -> ValidationReport:
    """Check the required assumption flags against the data.

    Passes iff every required assumption holds.  Structural problems (shape
    mismatch, zero columns) are rejected by the :class:`Dataset` constructor
    itself and never reach this report.
    """
    return _assumption_report(ds.x, ds.y, require)


def augment_bias(ds: Dataset) -> Dataset:
    """Append a constant-1 input coordinate so a bias term becomes a weight."""
    x_new = np.vstack([ds.x, np.ones(ds.n)])
    held = _assumption_report(x_new, ds.y, ASSUMPTIONS).held
    return Dataset(x=x_new, y=ds.y, assumptions=frozenset(flag for flag, ok in held.items() if ok))


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
        declared = {key: float(obj[key]) for key in ("d", "n") if key in obj}
        if not all(size.is_integer() for size in declared.values()):
            raise ValueError(f"declared sizes {declared} are not integers")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise StructuralError(f"malformed dataset JSON: {exc}") from exc
    if not cols:
        raise StructuralError("dataset JSON has no input columns")
    lengths = {c.shape for c in cols}
    if len(lengths) != 1 or cols[0].ndim != 1:
        raise StructuralError("dataset JSON columns must share one length")
    x = np.stack(cols, axis=1)
    if declared.get("d", x.shape[0]) != x.shape[0]:
        raise StructuralError(f"declared d={obj['d']} but columns have length {x.shape[0]}")
    if declared.get("n", x.shape[1]) != x.shape[1]:
        raise StructuralError(f"declared n={obj['n']} but got {x.shape[1]} columns")
    return Dataset(x=x, y=y, assumptions=flags)


def save_dataset(ds: Dataset, path) -> None:
    """Write ``ds`` as compact JSON with sorted keys and one trailing newline."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(dataset_to_json(ds), sort_keys=True, separators=(",", ":")) + "\n")


def write_json(path, obj) -> str:
    """Write ``obj`` to ``path`` as the package's JSON report text (indented,
    keys sorted, one trailing newline) and return that text.  A NaN or
    infinite number is not JSON: it raises ``NumericalError`` and nothing is
    written."""
    try:
        text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise NumericalError(f"cannot write {path}: {exc}") from exc
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return text


def load_json(path):
    """The JSON value in the file at ``path``; an unreadable file or malformed
    JSON is a ``StructuralError``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise StructuralError(f"cannot read {path}: {exc.strerror}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise StructuralError(f"malformed JSON in {path}: {exc}") from exc


def load_dataset(path) -> Dataset:
    return dataset_from_json(load_json(path))
