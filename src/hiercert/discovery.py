"""Data-driven equivalence-class generation.

Label partitions come from two sources: clustering embedding vectors and
reading the block structure out of a confusion matrix. Both paths are
deterministic given a seed; the repartition rule is total, so any
clustering whatsoever yields a valid partition.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import rng
from .core import LabelPartition
from .errors import (
    DegeneratePartitionError,
    UndefinedSeparationError,
    ValidationError,
)


@dataclass(frozen=True)
class KmeansResult:
    assignment: np.ndarray
    centroids: np.ndarray
    inertia: float
    n_iter: int
    inertia_history: tuple[float, ...]
    reseeds: int


#: Mean silhouette at or above which a clustering passes the separation check.
SEPARATION_THRESHOLD = 0.1


def _sq_distances(X: np.ndarray, C: np.ndarray) -> np.ndarray:
    d2 = (X * X).sum(1)[:, None] + (C * C).sum(1)[None, :] - 2.0 * X @ C.T
    return np.maximum(d2, 0.0)


def _assigned_sq_distances(X: np.ndarray, C: np.ndarray, assign: np.ndarray) -> np.ndarray:
    """Squared distance of each point to its assigned centroid, from exact
    differences: the expanded form above is fine for the argmin but leaves
    ~1e-16 residues where a point coincides with its centroid."""
    return ((X - C[assign]) ** 2).sum(axis=1)


def _plus_plus_init(X: np.ndarray, k: int, seed: int) -> np.ndarray:
    n = X.shape[0]
    first = int(rng.integers(seed, rng.STREAM_KMEANS, 0, 1, n)[0])
    chosen = [first]
    d2 = _sq_distances(X, X[[first]])[:, 0]
    for j in range(1, k):
        total = float(d2.sum())
        if total <= 0.0:
            # all remaining points coincide with a centroid; take lowest unused
            chosen.append(next(i for i in range(n) if i not in chosen))
        else:
            u = float(rng.uniforms(seed, rng.STREAM_KMEANS, j, 1)[0])
            idx = int(np.searchsorted(np.cumsum(d2), u * total, side="right"))
            chosen.append(min(idx, n - 1))
        d2 = np.minimum(d2, _sq_distances(X, X[[chosen[-1]]])[:, 0])
    return X[chosen].copy()


def kmeans(embeddings, k: int, seed: int = 0,
           max_iter: int = 100, tol: float = 1e-8) -> KmeansResult:
    """Lloyd's iteration from seeded k-means++ starts.

    Stops when the largest centroid movement drops below tol or after
    max_iter rounds; clusters that empty out are re-seeded to the point
    farthest from its current centroid, unless that point sits on it
    (coincident points). The returned assignment is a fixed point of the
    assignment step for the returned centroids.
    """
    X = np.atleast_2d(np.asarray(embeddings, dtype=np.float64))
    n = X.shape[0]
    if not 1 <= k <= n:
        raise ValidationError(f"k must lie in 1..{n}, got {k}")

    C = _plus_plus_init(X, k, seed)
    history: list[float] = []
    reseeds = 0
    it = 0
    for it in range(1, max_iter + 1):
        assign = np.argmin(_sq_distances(X, C), axis=1)
        own = _assigned_sq_distances(X, C, assign)
        history.append(float(own.sum()))
        newC = C.copy()
        reseeded = False
        taken: set[int] = set()
        for j in range(k):
            members = assign == j
            if members.any():
                newC[j] = X[members].mean(axis=0)
            else:
                order = np.argsort(-own, kind="stable")
                pick = next(int(i) for i in order if int(i) not in taken)
                if own[pick] > 0:
                    taken.add(pick)
                    newC[j] = X[pick]
                    reseeded = True
                    reseeds += 1
        move = float(np.sqrt(((newC - C) ** 2).sum(axis=1)).max())
        C = newC
        if move < tol and not reseeded:
            break
    assign = np.argmin(_sq_distances(X, C), axis=1)
    inertia = float(_assigned_sq_distances(X, C, assign).sum())
    return KmeansResult(assignment=assign, centroids=C, inertia=inertia,
                        n_iter=it, inertia_history=tuple(history), reseeds=reseeds)


def derive_partition(assignment, labels, k: int,
                     n_labels: Optional[int] = None) -> LabelPartition:
    """Turn a clustering into disjoint label classes.

    Each observed label goes to the cluster holding the majority of its
    points (ties to the lower cluster index); when the per-cluster label
    sets are already disjoint this reproduces them exactly. Clusters left
    without any label are dropped; labels absent from the data are appended
    to the first class so the partition always covers the label space.
    """
    assign = np.asarray(assignment, dtype=np.int64)
    y = np.asarray(labels, dtype=np.int64)
    if assign.shape != y.shape or assign.ndim != 1 or assign.size == 0:
        raise ValidationError("assignment and labels must be equal-length 1-D arrays")
    if assign.min() < 0 or assign.max() >= k:
        raise ValidationError(f"cluster ids must lie in 0..{k - 1}")
    m = int(n_labels) if n_labels is not None else int(y.max()) + 1
    if y.min() < 0 or y.max() >= m:
        raise ValidationError(f"labels must lie in 0..{m - 1}")

    counts = np.zeros((m, k), dtype=np.int64)
    np.add.at(counts, (y, assign), 1)
    observed = counts.sum(axis=1) > 0
    home = np.argmax(counts, axis=1)  # ties resolve to the lower cluster

    classes: list[list[int]] = [[] for _ in range(k)]
    for label in range(m):
        if observed[label]:
            classes[home[label]].append(label)
    nonempty = [c for c in classes if c]
    missing = [label for label in range(m) if not observed[label]]
    nonempty[0].extend(missing)
    return LabelPartition(tuple(tuple(sorted(c)) for c in nonempty), n_labels=m)


@dataclass(frozen=True)
class SeparationReport:
    silhouette: float
    passed: bool
    n_singletons: int


def cluster_separation_check(assignment, embeddings) -> SeparationReport:
    """Mean silhouette coefficient of a clustering; pass iff it is at least
    SEPARATION_THRESHOLD.

    Points in singleton clusters score 0 by convention and trigger a
    warning; a single-cluster assignment has no defined separation.
    """
    X = np.atleast_2d(np.asarray(embeddings, dtype=np.float64))
    assign = np.asarray(assignment, dtype=np.int64)
    ids, cluster, sizes = np.unique(assign, return_inverse=True, return_counts=True)
    if ids.size < 2:
        raise UndefinedSeparationError("separation needs at least 2 clusters")

    n_singletons = int((sizes == 1).sum())
    if n_singletons:
        warnings.warn(f"{n_singletons} singleton cluster(s); scoring their points 0")
    # Columns sorted by cluster, so each cluster's distances form one
    # contiguous run that reduceat sums. A block of rows holds one
    # `rng.PIECE` of distances, but at least 2 rows: a one-row block goes
    # through BLAS's matrix-vector product, which rounds differently. The
    # blocks reuse two buffers, so that no block's arrays are freed to the
    # system and faulted back; the distances are `_sq_distances`'s, each
    # operation in its order.
    Xs = X[np.argsort(cluster, kind="stable")]
    starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    n = X.shape[0]
    scores = np.zeros(n)
    step = max(2, rng.PIECE // n)
    x_sq, xs_sq = (X * X).sum(1), (Xs * Xs).sum(1)
    dist_buf, prod_buf = np.empty(min(step, n) * n), np.empty(min(step, n) * n)
    for start in range(0, n, step):
        rows = slice(start, min(start + step, n))
        count = rows.stop - start
        dist = dist_buf[:count * n].reshape(count, n)
        prod = prod_buf[:count * n].reshape(count, n)
        np.add(x_sq[rows, None], xs_sq[None, :], out=dist)
        np.matmul(2.0 * X[rows], Xs.T, out=prod)
        dist -= prod
        np.maximum(dist, 0.0, out=dist)
        sums = np.add.reduceat(np.sqrt(dist, out=dist), starts, axis=1)
        own = cluster[rows]
        local = np.arange(own.size)
        own_size = sizes[own]
        a = sums[local, own] / np.maximum(own_size - 1, 1)
        means = sums / sizes
        means[local, own] = np.inf
        b = means.min(axis=1)
        denom = np.maximum(a, b)
        scored = (own_size > 1) & (denom != 0.0)
        scores[rows] = np.where(scored, (b - a) / np.where(scored, denom, 1.0), 0.0)
    sil = float(scores.mean())
    return SeparationReport(silhouette=sil, passed=sil >= SEPARATION_THRESHOLD,
                            n_singletons=n_singletons)


def partition_from_confusion(counts, k: int) -> LabelPartition:
    """Group labels by greedy agglomeration of symmetrized confusion mass.

    Starting from singletons, repeatedly merge the pair of groups with the
    largest total cross-confusion until k groups remain; ties go to the
    lexicographically first pair of groups (by smallest member label).

    The cross-confusion of every pair of groups is kept in one group x group
    matrix, whose rows and columns are added together on a merge: O(m^2) work
    per merge. Integer counts keep every mass exact.
    """
    A = np.asarray(counts, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValidationError("confusion matrix must be square")
    if np.any(A < 0):
        raise ValidationError("confusion counts must be nonnegative")
    m = A.shape[0]
    if not 1 <= k <= m:
        raise ValidationError(f"k must lie in 1..{m}")
    S = A + A.T
    np.fill_diagonal(S, 0.0)
    if S.sum() == 0.0 and 1 < k < m:
        raise DegeneratePartitionError("no off-diagonal confusion mass to cluster on")

    # Groups stay ordered by smallest member: merging b into a < b keeps a's.
    groups: list[list[int]] = [[i] for i in range(m)]
    pairs = np.triu(np.ones((m, m), dtype=bool), 1)
    while len(groups) > k:
        g = len(groups)
        # First maximum in row-major order over the pairs a < b.
        a, b = divmod(int(np.argmax(np.where(pairs[:g, :g], S, -1.0))), g)
        groups[a] = sorted(groups[a] + groups[b])
        del groups[b]
        S[a] += S[b]
        S[:, a] += S[:, b]
        S[a, a] = 0.0
        S = np.delete(np.delete(S, b, axis=0), b, axis=1)
    return LabelPartition(tuple(tuple(g) for g in groups), n_labels=m)
