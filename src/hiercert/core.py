"""Label-space domain types and the elementary margin operations.

Labels are 0-indexed everywhere, including file formats and reports.
Probability vectors are plain float arrays validated at the boundaries;
label subsets are normalized to sorted tuples so that ties and iteration
order are deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

from .errors import ValidationError

#: Sentinel label for a certifier that declines to certify.
ABSTAIN = -1

#: Absolute tolerance on the sum of a probability vector. File-ingested
#: probabilities carry rounding error; strict equality would reject them.
PROB_SUM_TOL = 1e-9


def checked_labels(y, n_labels: int) -> np.ndarray:
    """True labels as int64, each in 0..n_labels-1."""
    y = np.asarray(y, dtype=np.int64)
    if y.size and not (0 <= y.min() and y.max() < n_labels):
        raise ValidationError(f"labels must lie in 0..{n_labels - 1}")
    return y


@dataclass(frozen=True)
class LabelPartition:
    """Disjoint, nonempty label-index classes covering {0, ..., m-1}."""

    classes: tuple[tuple[int, ...], ...]
    n_labels: int = field(default=0)

    def __post_init__(self):
        bad = [i for c in self.classes for i in c
               if isinstance(i, bool) or not isinstance(i, (int, np.integer))]
        if bad:
            raise ValidationError(f"partition labels must be integers, got {bad[0]!r}")
        classes = tuple(tuple(sorted(int(i) for i in c)) for c in self.classes)
        object.__setattr__(self, "classes", classes)
        n = self.n_labels or (max((c[-1] for c in classes if c), default=-1) + 1)
        object.__setattr__(self, "n_labels", n)
        seen: set[int] = set()
        for c in classes:
            if not c:
                raise ValidationError("partition classes must be nonempty")
            for i in c:
                if not 0 <= i < n:
                    raise ValidationError(f"label {i} outside 0..{n - 1}")
                if i in seen:
                    raise ValidationError(f"label {i} appears in more than one class")
                seen.add(i)
        if len(seen) != n:
            missing = sorted(set(range(n)) - seen)
            raise ValidationError(f"partition does not cover labels {missing}")


@dataclass(frozen=True)
class CertifiedPrediction:
    """Outcome of one certification: label, certified radius, and provenance.

    `radius` is None exactly when the certifier abstained; it is +inf only
    for singleton label subsets or degenerate exact-probability inputs.
    """

    label: int
    radius: Optional[float]
    p_a_lower: float
    sigma: float
    n_samples: int = 0

    def __post_init__(self):
        if self.label == ABSTAIN:
            if self.radius is not None:
                raise ValidationError("abstaining prediction must not carry a radius")
        else:
            if self.radius is None or self.radius < 0:
                raise ValidationError("certified radius must be nonnegative")
        if not 0.0 <= self.p_a_lower <= 1.0:
            raise ValidationError("p_a_lower must lie in [0, 1]")

    @property
    def abstained(self) -> bool:
        return self.label == ABSTAIN


def as_probability_vector(p) -> np.ndarray:
    """Coerce to a 1-D float64 array and check the simplex invariants."""
    v = np.asarray(p, dtype=np.float64)
    if v.ndim != 1 or v.size == 0:
        raise ValidationError("probability vector must be 1-D and nonempty")
    total = float(np.add.reduce(v))
    # Python's min and max over a list: on the short vectors of the
    # callers, two numpy reductions cost more than the list conversion.
    values = v.tolist()
    lo, hi = min(values), max(values)
    # A NaN entry makes the total NaN, which fails `total == total`;
    # +-inf entries fail the range test.
    if not (lo >= 0.0 and hi <= 1.0 and total == total):
        raise ValidationError("probabilities must be finite and lie in [0, 1]")
    if abs(total - 1.0) > PROB_SUM_TOL:
        raise ValidationError(f"probabilities sum to {total!r}, expected 1")
    return v


def as_probability_matrix(p) -> np.ndarray:
    """p as a float64 array; it must be 2-D, and its rows probability vectors.

    One min, one max and one row-sum pass; the message of a failure names
    the first bad row. A row must lie in [0, 1] (so NaN and +-inf are
    rejected) and sum to 1 within PROB_SUM_TOL, as in `as_probability_vector`.
    """
    P = np.asarray(p, dtype=np.float64)
    if P.ndim != 2:
        raise ValidationError("probability matrix must be 2-D")
    # NaN propagates through min and max and fails both comparisons.
    if P.size and not (P.min() >= 0.0 and P.max() <= 1.0):
        row = int(np.argmin(((P >= 0.0) & (P <= 1.0)).all(axis=1)))
        raise ValidationError(f"probability row {row}: entries must be finite "
                              "and lie in [0, 1]")
    sums = P.sum(axis=1)
    bad = np.abs(sums - 1.0) > PROB_SUM_TOL
    if bad.any():
        row = int(np.argmax(bad))
        raise ValidationError(f"probability row {row} sums to {float(sums[row])!r}, "
                              f"expected 1 within {PROB_SUM_TOL}")
    return P


def normalize_subset(subset: Iterable[int], m: int) -> tuple[int, ...]:
    """Sorted, validated, duplicate-free label subset."""
    s = tuple(sorted({int(i) for i in subset}))
    if not s:
        raise ValidationError("label subset must be nonempty")
    if s[0] < 0 or s[-1] >= m:
        raise ValidationError(f"subset {s} not contained in 0..{m - 1}")
    return s


def hinge_gap(alpha, c: int, competitors: Iterable[int]) -> float:
    """Top-class probability of c minus the best competitor within a label set.

    Returns +inf when the competitor set minus {c} is empty (a singleton
    equivalence class cannot be attacked within itself). Shrinking the
    competitor set can only widen the gap.
    """
    v = as_probability_vector(alpha)
    if not 0 <= int(c) < v.size:
        raise ValidationError(f"label {c} outside 0..{v.size - 1}")
    subset = normalize_subset(competitors, v.size)
    values = v.tolist()
    others = [values[i] for i in subset if i != int(c)]
    if not others:
        return math.inf
    return values[int(c)] - max(others)
