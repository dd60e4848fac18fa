import warnings

import numpy as np
import pytest

from hiercert import discovery, rng
from hiercert.core import LabelPartition
from hiercert.discovery import (
    cluster_separation_check,
    derive_partition,
    kmeans,
    partition_from_confusion,
)
from hiercert.errors import (
    DegeneratePartitionError,
    UndefinedSeparationError,
    ValidationError,
)
from hiercert.hierarchy import _label_index

from helpers import confusion_levels_oracle, make_blobs, peak_traced_bytes, silhouette_oracle


class TestKmeans:
    def test_two_blobs_recovered(self):
        X, y = make_blobs(50, 80, [(-5.0, 0.0), (5.0, 0.0)], spread=0.5)
        result = kmeans(X, 2, seed=1)
        # cluster ids are arbitrary; compare as a two-set partition of points
        side = result.assignment[: 80]
        other = result.assignment[80:]
        assert len(set(side.tolist())) == 1
        assert len(set(other.tolist())) == 1
        assert side[0] != other[0]

    def test_k_equal_one(self):
        X, _ = make_blobs(51, 30, [(1.0, 2.0)])
        result = kmeans(X, 1, seed=2)
        assert np.allclose(result.centroids[0], X.mean(axis=0))

    def test_k_equal_n_zero_inertia(self):
        X = rng.normals(3, 700, 0, 20).reshape(10, 2)
        result = kmeans(X, 10, seed=3)
        assert result.inertia == pytest.approx(0.0, abs=1e-20)
        assert result.reseeds == 0

    @pytest.mark.parametrize("points, k, assignment", [
        ([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [5.0, 5.0]], 4, [2, 2, 0, 1]),
        (np.zeros((5, 2)), 3, [0, 0, 0, 0, 0]),
    ], ids=["two-coincident", "all-coincident"])
    def test_coincident_points_stop_without_reseeding(self, points, k, assignment):
        # an empty cluster whose farthest unused point sits on its centroid
        # keeps its centroid, so the first round is already a fixed point
        result = kmeans(points, k, seed=1)
        assert (result.n_iter, result.reseeds, result.inertia) == (1, 0, 0.0)
        assert result.assignment.tolist() == assignment

    def test_empty_cluster_reseeded_to_the_farthest_point(self, monkeypatch):
        # a start no point is nearest to empties its cluster in the first round
        monkeypatch.setattr(discovery, "_plus_plus_init",
                            lambda X, k, seed: np.array([[0.0, 0.0], [100.0, 100.0]]))
        result = kmeans([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]], 2, seed=0)
        assert result.reseeds == 1
        assert result.assignment.tolist() == [0, 0, 1]
        assert result.centroids.tolist() == [[0.5, 0.0], [2.0, 0.0]]

    def test_k_larger_than_n_rejected(self):
        X = np.zeros((3, 2))
        with pytest.raises(ValidationError):
            kmeans(X, 4, seed=0)

    def test_inertia_nonincreasing_and_fixed_point(self):
        X, _ = make_blobs(52, 60, [(-2.0, 0.0), (2.0, 0.0), (0.0, 3.0)], spread=0.8)
        result = kmeans(X, 3, seed=4)
        assert result.reseeds == 0
        hist = result.inertia_history
        assert all(b <= a + 1e-9 for a, b in zip(hist, hist[1:]))
        # one more assignment round with the final centroids changes nothing
        d2 = ((X[:, None, :] - result.centroids[None, :, :]) ** 2).sum(-1)
        assert np.array_equal(np.argmin(d2, axis=1), result.assignment)

    def test_deterministic(self):
        X, _ = make_blobs(53, 50, [(-1.0, 0.0), (1.0, 0.0)], spread=1.5)
        a = kmeans(X, 2, seed=7)
        b = kmeans(X, 2, seed=7)
        assert np.array_equal(a.assignment, b.assignment)
        assert np.array_equal(a.centroids, b.centroids)


class TestDerivePartition:
    def test_disjoint_clusters_pass_through(self):
        assignment = np.array([0, 0, 0, 1, 1])
        labels = np.array([0, 1, 2, 3, 4])
        part = derive_partition(assignment, labels, 2)
        assert part.classes == ((0, 1, 2), (3, 4))

    def test_contested_label_goes_to_majority(self):
        # label 2 split 70/30 between clusters 0 and 1; brute-force majority
        assignment = np.array([0] * 7 + [1] * 3 + [0, 1])
        labels = np.array([2] * 10 + [0, 1])
        class_of = _label_index(derive_partition(assignment, labels, 2).classes, 3)
        assert class_of[2] == class_of[0]
        assert class_of[1] != class_of[2]

    def test_tie_goes_to_lower_cluster(self):
        assignment = np.array([0, 1, 0, 1])
        labels = np.array([3, 3, 0, 1])
        class_of = _label_index(derive_partition(assignment, labels, 2, n_labels=4).classes, 4)
        assert class_of[3] == class_of[0]

    def test_unobserved_labels_append_to_first_class(self):
        assignment = np.array([0, 1])
        labels = np.array([1, 3])
        part = derive_partition(assignment, labels, 2, n_labels=5)
        first = part.classes[0]
        assert 1 in first and 0 in first and 2 in first and 4 in first
        assert part.classes[1] == (3,)

    def test_fuzz_always_valid(self):
        for t in range(1000):
            u = rng.uniforms(61, 701, t * 3, 3)
            n = 1 + int(u[0] * 40)
            m = 2 + int(u[1] * 6)
            k = 1 + int(u[2] * 5)
            labels = rng.integers(61, 702, t * 64, n, m)
            assignment = rng.integers(61, 703, t * 64, n, k)
            part = derive_partition(assignment, labels, k, n_labels=m)
            assert isinstance(part, LabelPartition)  # validity enforced on build


class TestSeparation:
    def test_far_blobs_pass(self):
        X, _ = make_blobs(54, 40, [(-8.0, 0.0), (8.0, 0.0)], spread=0.5)
        result = kmeans(X, 2, seed=1)
        report = cluster_separation_check(result.assignment, X)
        assert report.silhouette > 0.8
        assert report.passed

    def test_overlapping_blobs_fail(self):
        X, _ = make_blobs(55, 60, [(0.0, 0.0), (0.0, 0.0)], spread=1.0)
        assignment = rng.integers(55, 704, 0, X.shape[0], 2)
        report = cluster_separation_check(assignment, X)
        assert abs(report.silhouette) < 0.1
        assert not report.passed

    def test_singleton_cluster_scores_zero_with_warning(self):
        X = np.array([[0.0, 0.0], [0.1, 0.0], [5.0, 5.0]])
        assignment = np.array([0, 0, 1])
        with pytest.warns(UserWarning):
            report = cluster_separation_check(assignment, X)
        assert report.n_singletons == 1

    def test_single_cluster_undefined(self):
        X = np.zeros((4, 2))
        with pytest.raises(UndefinedSeparationError):
            cluster_separation_check(np.zeros(4, dtype=int), X)

    @pytest.mark.parametrize("block", [2, 7, None])
    def test_matches_per_point_oracle(self, monkeypatch, block):
        # Singleton clusters, coincident points inside and across clusters,
        # and blocks of 2 rows, of rows that do not divide n, and the default.
        # A one-row block goes through BLAS's matrix-vector product, which
        # rounds x.y differently; between coincident points the square root
        # turns that rounding into distances near 1e-8 that differ between the
        # two products, so one-row blocks agree only to about 1e-10. Block 2
        # asks for one row's distances per block, which the 2-row floor
        # turns into blocks of 2 rows.
        for t in range(6):
            n, d, k = 40 + 17 * t, 2 + t, 2 + t
            X = rng.normals(63, 706, t * 4096, n * d).reshape(n, d) * (1 + t)
            assignment = rng.integers(63, 707, t * 4096, n, k)
            X[5:9] = X[4]
            X[n - 3:] = X[0]
            assignment[n - 2] = k      # singleton at a point shared with others
            assignment[n - 1] = k + 1  # second singleton, same point
            if block is not None:
                monkeypatch.setattr(rng, "PIECE", n if block == 2 else block * n)
            with pytest.warns(UserWarning, match="2 singleton"):
                report = cluster_separation_check(assignment, X)
            assert report.n_singletons == 2
            assert report.silhouette == pytest.approx(silhouette_oracle(assignment, X),
                                                      rel=1e-12)

    def test_working_memory_is_about_two_pieces_of_distances(self):
        # At the casestudy shape, 2000 x 32 in 10 clusters, the sorted copy of
        # the points and the two block buffers of one rng.PIECE each peak at
        # about 1.7 MB; blocks of 1M distances peaked at 16.7 MB.
        X = rng.normals(5, 708, 0, 2000 * 32).reshape(2000, 32)
        assignment = rng.integers(5, 709, 0, 2000, 10)
        peak = peak_traced_bytes(lambda: cluster_separation_check(assignment, X))
        assert peak < 5 << 19, peak

    def test_zero_denominator_scores_zero(self):
        # Both clusters sit on one point: a = b = 0 for every point.
        X = np.ones((6, 3))
        assignment = np.array([0, 0, 0, 1, 1, 2])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            report = cluster_separation_check(assignment, X)
        assert report.silhouette == 0.0 == silhouette_oracle(assignment, X)


class TestConfusionPartition:
    def test_block_diagonal_recovered(self):
        cm = np.zeros((5, 5), dtype=int)
        blocks = [(0, 1), (2, 3, 4)]
        for block in blocks:
            for i in block:
                for j in block:
                    cm[i, j] = 10 if i != j else 50
        part = partition_from_confusion(cm, 2)
        assert {frozenset(c) for c in part.classes} == {frozenset(b) for b in blocks}

    def test_k_equals_m_gives_singletons(self):
        cm = np.full((4, 4), 3, dtype=int)
        part = partition_from_confusion(cm, 4)
        assert part.classes == ((0,), (1,), (2,), (3,))

    def test_zero_off_diagonal_degenerate(self):
        with pytest.raises(DegeneratePartitionError):
            partition_from_confusion(np.diag([5, 5, 5]), 2)

    def test_matches_pairwise_rescan_oracle(self):
        # Entries in 0..3 plant many tied masses; every k of every m is checked
        # against the groups the old rescan-every-pair loop gives.
        for m in range(2, 41):
            cm = rng.integers(64, 708, m * m, m * m, 4).reshape(m, m)
            if m % 5 == 0:
                cm[m // 2] = 0     # a label nobody confuses with anything
            if m % 7 == 0:
                cm = np.ones((m, m), dtype=np.int64)  # every pair tied
            levels = confusion_levels_oracle(cm)
            for k in range(1, m + 1):
                assert partition_from_confusion(cm, k).classes == levels[k], (m, k)

    def test_permutation_equivariance(self):
        u = rng.uniforms(62, 705, 0, 36).reshape(6, 6)
        cm = (u * 20).astype(int)
        np.fill_diagonal(cm, 100)
        part = partition_from_confusion(cm, 3)
        perm = np.array([3, 5, 0, 1, 4, 2])
        cm_p = cm[np.ix_(perm, perm)]
        part_p = partition_from_confusion(cm_p, 3)
        # relabeling: position i in the permuted matrix is label perm[i]
        inv = np.argsort(perm)
        mapped = {frozenset(int(inv[i]) for i in c) for c in part.classes}
        got = {frozenset(c) for c in part_p.classes}
        assert mapped == got


class TestIngestedEmbeddingFixture:
    def test_two_cluster_digit_style_split(self, tmp_path):
        # integration fixture: ten labels whose embeddings form two clusters,
        # labels {0,2,3,5,6,8} in one and {1,4,7,9} in the other; the
        # partition is recovered through the csv ingest path end to end
        from hiercert import io

        group_a = (0, 2, 3, 5, 6, 8)
        group_b = (1, 4, 7, 9)
        vectors, labels = [], []
        for li, label in enumerate(sorted(group_a + group_b)):
            center = (-6.0, 0.0) if label in group_a else (6.0, 0.0)
            pts = rng.normals(90, 710 + li, 0, 60).reshape(30, 2) * 0.8
            vectors.append(pts + np.asarray(center))
            labels.append(np.full(30, label))
        X = np.vstack(vectors)
        y = np.concatenate(labels)
        path = tmp_path / "embeddings.csv"
        io.write_features(path, [f"s{i}" for i in range(len(y))], y, X)

        ids, labels2, vectors2 = io.read_features(path)
        result = kmeans(vectors2, 2, seed=3)
        report = cluster_separation_check(result.assignment, vectors2)
        assert report.passed
        part = derive_partition(result.assignment, labels2, 2, n_labels=10)
        got = {frozenset(c) for c in part.classes}
        assert got == {frozenset(group_a), frozenset(group_b)}
