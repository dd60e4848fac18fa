import dataclasses
import math
import os

import numpy as np
import pytest

from hiercert import hierarchy, rng, split
from hiercert.core import LabelPartition
from hiercert.errors import CapabilityError, RoutingMismatchError, ValidationError
from hiercert.hierarchy import (
    Hierarchy,
    Intermediate,
    Leaf,
    build_renormalize_hierarchy,
    evaluate_adversarial,
    flat_hierarchy,
    hierarchy_certificate,
    infer_batch,
    leaf_certificate_renormalized,
    renormalization_report,
    retrain_leaf,
    subset_radius_sweep,
    _class_radii,
    _runner_table,
    _sample_subsets,
    _set_radii,
)
from hiercert.models import LinearSoftmax, MaskedModel, PgdParams, SmallMlp, softmax, train

from helpers import (
    baseline_radii_oracle,
    evaluate_adversarial_oracle,
    failing_send,
    forks,  # noqa: F401 (a fixture)
    make_blobs,
    margin_radius_oracle,
    quantile_oracle,
    sample_subsets_oracle,
    sweep_oracle,
    synth_prob_dataset,
)


def linear(W, b=None):
    W = np.asarray(W, dtype=np.float64)
    return LinearSoftmax(W=W, b=np.zeros(W.shape[0]) if b is None else np.asarray(b))


def axis_router():
    """Binary routing: class 1 iff x-coordinate > 0."""
    return linear([[0.0, 0.0], [1.0, 0.0]])


class TestStructure:
    def test_leaf_validation(self):
        Leaf((3,))
        with pytest.raises(ValidationError):
            Leaf((3,), classifier=linear([[0.0, 0.0]]))
        with pytest.raises(ValidationError):
            Leaf((1, 2))  # multi-label needs a classifier
        with pytest.raises(ValidationError, match="must select the leaf's labels"):
            Leaf((0, 1), MaskedModel(linear(np.eye(4)[:, :2]), (2, 3)))

    def test_a_mask_of_a_mask_is_checked_against_the_base_labels(self):
        base = linear(np.eye(4)[:, :2])
        nested = MaskedModel(MaskedModel(base, (2, 3, 0, 1)), (0, 1))  # base labels 2, 3
        Leaf((2, 3), nested)
        with pytest.raises(ValidationError, match="must select the leaf's labels"):
            Leaf((0, 1), nested)

    def test_intermediate_label_subset_is_the_union_below_it(self):
        def union(node):
            if isinstance(node, Leaf):
                return set(node.label_subset)
            return set().union(*map(union, node.children))

        # acceptance 9's hierarchy, then one whose children list labels out of order
        acceptance_9 = Intermediate(axis_router(), (Leaf((0, 1), linear(np.eye(2))),
                                                    Leaf((2, 3), linear(np.eye(2)))))
        deep = Intermediate(axis_router(), (
            Leaf((4,)),
            Intermediate(axis_router(), (Leaf((3, 0), linear(np.eye(2))),
                                         Intermediate(axis_router(), (Leaf((2,)),
                                                                      Leaf((1,))))))))
        for root in (acceptance_9, deep):
            h = Hierarchy(root=root, n_labels=len(union(root)))
            for _, node in h.nodes():
                if isinstance(node, Intermediate):
                    assert node.label_subset == tuple(sorted(union(node)))

    def test_hierarchy_partition_check(self):
        base = linear(np.eye(3))
        with pytest.raises(ValidationError):
            Hierarchy(root=Leaf((0, 1), classifier=MaskedModel(base, (0, 1))),
                      n_labels=3)

    def test_node_ids(self):
        base = linear(np.eye(4)[:, :2])
        part = LabelPartition(((0, 1), (2, 3)))
        h = build_renormalize_hierarchy(part, axis_router(), base)
        assert [nid for nid, _ in h.nodes()] == ["root", "root.0", "root.1"]


class TestInfer:
    def test_singleton_leaf_needs_no_classifier(self):
        root = Intermediate(classifier=axis_router(),
                            children=(Leaf((0, 1), classifier=MaskedModel(linear(np.eye(3)[:, :2]), (0, 1))),
                                      Leaf((2,))))
        h = Hierarchy(root=root, n_labels=3)
        assert infer_batch(h, np.array([[5.0, 0.0]])).tolist() == [2]

    def test_flat_hierarchy_equals_base(self):
        base = train(LinearSoftmax.init(3, 2, seed=1), *make_blobs(8, 40, [(-2, 0), (2, 0), (0, 2)]),
                     epochs=200, learning_rate=0.5)
        h = flat_hierarchy(base)
        X = rng.normals(5, 400, 0, 200).reshape(100, 2) * 3.0
        assert np.array_equal(infer_batch(h, X), np.argmax(base.logits(X), axis=1))

    def test_blob_routing_accuracy(self):
        # 3-label toy: blobs at (-3,-1),(-3,1) route left, (3,0) routes right
        X, y = make_blobs(9, 100, [(-3.0, -1.5), (-3.0, 1.5), (3.0, 0.0)])
        base = train(LinearSoftmax.init(3, 2, seed=2), X, y, epochs=300, learning_rate=0.5)
        root = train(LinearSoftmax.init(2, 2, seed=3), X, (y == 2).astype(int),
                     epochs=300, learning_rate=0.5)
        part = LabelPartition(((0, 1), (2,)))
        h = build_renormalize_hierarchy(part, root, base)
        routed = np.argmax(root.logits(X), axis=1)
        assert np.mean(routed == (y == 2).astype(int)) >= 0.95
        assert np.mean(infer_batch(h, X) == y) >= 0.95


class TestLeafCertificate:
    def test_full_subset_reproduces_baseline(self):
        cert = leaf_certificate_renormalized([0.5, 0.3, 0.2], {0, 1, 2}, 0.5)
        expected = 0.25 * (quantile_oracle(0.5) - quantile_oracle(0.3))
        assert cert.radius == pytest.approx(expected, abs=1e-9)
        assert cert.radius == pytest.approx(0.1311, abs=1e-4)

    def test_dropping_runner_up_grows_radius(self):
        cert = leaf_certificate_renormalized([0.5, 0.3, 0.2], {0, 2}, 0.5)
        expected = 0.25 * (quantile_oracle(0.5) - quantile_oracle(0.2))
        assert cert.radius == pytest.approx(expected, abs=1e-9)
        assert cert.radius == pytest.approx(0.2104, abs=1e-4)

    def test_singleton_subset_is_infinite(self):
        cert = leaf_certificate_renormalized([0.5, 0.3, 0.2], {0}, 0.5)
        assert cert.radius == math.inf

    def test_argmax_outside_subset_is_routing_mismatch(self):
        with pytest.raises(RoutingMismatchError):
            leaf_certificate_renormalized([0.5, 0.3, 0.2], {1, 2}, 0.5)

    def test_renormalization_never_hurts(self):
        # random vectors and random subsets containing the argmax
        m = 10
        trials = 10_000
        strict_checked = 0
        for t in range(trials):
            u = rng.uniforms(77, 410, t * m, m)
            p = -np.log(u)
            p /= p.sum()
            g = int(np.argmax(p))
            mask = rng.uniforms(77, 411, t * m, m) < 0.5
            subset = {i for i in range(m) if mask[i]} | {g}
            full = leaf_certificate_renormalized(p, set(range(m)), 0.5)
            sub = leaf_certificate_renormalized(p, subset, 0.5)
            assert sub.radius >= full.radius
            runner = int(np.argsort(p)[-2])
            if runner not in subset:
                assert sub.radius > full.radius
                strict_checked += 1
        assert strict_checked > 100


class TestComposition:
    def test_minimum(self):
        assert hierarchy_certificate([0.4, 0.7, 0.3]) == 0.3

    def test_infinite_entries(self):
        assert hierarchy_certificate([math.inf, 0.5]) == 0.5
        assert hierarchy_certificate([math.inf, math.inf]) == math.inf

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            hierarchy_certificate([])


class TestSweep:
    def test_full_size_matches_baseline_certificates(self):
        P = synth_prob_dataset(21, 300, 6)
        stats = subset_radius_sweep(P, 0.5, sizes=[6], mode="all")
        direct = np.array([
            leaf_certificate_renormalized(P[i], set(range(6)), 0.5).radius
            for i in range(P.shape[0])
        ])
        assert stats[6].n_finite == 300
        assert stats[6].mean == pytest.approx(direct.mean(), abs=1e-12)
        assert stats[6].std == pytest.approx(direct.std(), abs=1e-12)

    def test_singletons_are_a_separate_bucket(self):
        P = synth_prob_dataset(22, 200, 6)
        stats = subset_radius_sweep(P, 0.5, sizes=[1], mode="all")
        assert stats[1].n_finite == 0
        assert stats[1].n_infinite == 200
        assert math.isnan(stats[1].mean)

    def test_mean_radius_decreases_with_size(self):
        P = synth_prob_dataset(23, 500, 8)
        stats = subset_radius_sweep(P, 0.5, sizes=list(range(2, 9)), mode="all")
        means = [stats[s].mean for s in range(2, 9)]
        assert all(a > b for a, b in zip(means, means[1:]))

    def test_all_subsets_guard(self):
        P = synth_prob_dataset(24, 2000, 30)
        with pytest.raises(ValidationError, match="sampled"):
            subset_radius_sweep(P, 0.5, sizes=[15], mode="all")

    def test_sampled_mode_is_deterministic(self):
        P = synth_prob_dataset(25, 100, 12)
        a = subset_radius_sweep(P, 0.5, [4], mode="sampled", sample_count=50, seed=3)
        b = subset_radius_sweep(P, 0.5, [4], mode="sampled", sample_count=50, seed=3)
        assert a == b

    @pytest.mark.parametrize("case", ["random", "planted", "argmax_in_two_labels"])
    @pytest.mark.parametrize("mode", ["all", "sampled"])
    def test_matches_per_subset_oracle(self, case, mode):
        m = 6 if mode == "all" else 12
        if case == "random":
            P = synth_prob_dataset(26, 150, m)
        elif case == "planted":
            # Rows with an exact 1.0, all-equal entries, a tied top pair, and
            # zeros beside a tied top pair.
            P = synth_prob_dataset(27, 150, m)
            P[:4] = 0.0
            P[:4, 2] = 1.0
            P[4:8] = 1.0 / m
            P[8:12] = 0.4 / (m - 2)
            P[8:12, [1, 3]] = 0.3
            P[12:16] = 0.0
            P[12:16, 0] = P[12:16, 4] = 0.5
        else:
            # Every argmax is label 0 or 1: most subsets hold no row at all.
            P = synth_prob_dataset(28, 150, m)
            P[:, 0] += 1.0
            P[::2, [0, 1]] = P[::2, [1, 0]]
            P /= P.sum(axis=1, keepdims=True)
        sizes = list(range(1, m + 1))
        got = subset_radius_sweep(P, 0.5, sizes, mode=mode, sample_count=40, seed=5)
        want = sweep_oracle(P, 0.5, sizes, mode=mode, sample_count=40, seed=5)
        assert list(got) == sizes
        for s in sizes:
            assert np.array_equal(dataclasses.astuple(got[s]), dataclasses.astuple(want[s]),
                                  equal_nan=True), s
        if case == "planted":
            assert got[m].n_infinite == 4   # the exact 1.0 rows
        if case == "argmax_in_two_labels":
            assert got[1].n_infinite == 150 and got[1].n_finite == 0


    def test_rows_validated_as_probability_vectors(self):
        P = [[0.6, 0.3, 0.1], [0.2, 0.1, 0.9], [0.5, 0.25, 0.25]]
        with pytest.raises(ValidationError, match="row 1 sums to"):
            subset_radius_sweep(P, 0.5, [3])

    @pytest.mark.parametrize("m,size,count,seed", [(6, 3, 19, 0), (6, 3, 19, 9), (12, 4, 40, 5),
                                                   (30, 2, 100, 1), (100, 50, 7, 2)])
    def test_sampled_subsets_match_one_draw_per_candidate_oracle(self, m, size, count, seed):
        # m=6, size=3, count=19: 19 of the 20 subsets, so most candidates are
        # duplicates and several batches are drawn.
        got = _sample_subsets(m, size, count, seed)
        assert got == sample_subsets_oracle(m, size, count, seed)
        assert len(got) == count

    def test_sampled_subsets_stop_at_the_candidate_cutoff(self, monkeypatch):
        # Only two distinct candidates ever appear, so 64 * count candidates
        # are drawn and two subsets returned.
        m, count, drawn = 6, 19, []

        def two_patterns(seed, stream, start, n):
            drawn.append(n)
            idx = np.arange(start, start + n)
            u = (idx % m + 1.0) / (m + 1)
            return np.where(idx // m % 2 == 0, u, 1.0 - u)

        monkeypatch.setattr(rng, "uniforms", two_patterns)
        got = _sample_subsets(m, 3, count, 0)
        assert sum(drawn) == 64 * count * m
        drawn.clear()
        assert sample_subsets_oracle(m, 3, count, 0) == got == [(0, 1, 2), (3, 4, 5)]
        assert sum(drawn) == 64 * count * m


class TestRunnerTable:
    @pytest.mark.parametrize("layout", ["n_by_1", "1_by_m", "fortran"])
    def test_callers_matrix_left_unchanged(self, layout):
        # P.T of each of these is already C-contiguous, so only an explicit
        # copy keeps the table's -inf mask out of the caller's matrix.
        if layout == "n_by_1":
            P = np.ones((5, 1))
        elif layout == "1_by_m":
            P = synth_prob_dataset(46, 1, 6)
        else:
            P = np.asfortranarray(synth_prob_dataset(46, 40, 6))
        before = P.copy(order="A")
        m = P.shape[1]
        part = LabelPartition(((0, 2, 4), (1, 3, 5)) if m == 6 else ((0,),))
        subset_radius_sweep(P, 0.5, list(range(1, m + 1)), mode="all")
        renormalization_report(P, np.argmax(P, axis=1), part, 0.5, [0.25])
        assert P.flags.f_contiguous == before.flags.f_contiguous
        assert P.tobytes(order="A") == before.tobytes(order="A")


def set_radii_by_rows(P, labels, sigma):
    """Rows whose argmax lies in `labels` and their `margin_radius_oracle`
    against the largest other entry among `labels`, one row at a time (0 if
    none)."""
    labels = sorted(set(labels))
    g = np.argmax(P, axis=1)
    rows = np.flatnonzero(np.isin(g, labels))
    p_top = P[rows, g[rows]]
    runner = np.array([max((P[r, j] for j in labels if j != g[r]), default=0.0)
                       for r in rows])
    return rows, margin_radius_oracle(sigma, p_top, runner)


class TestSetRadii:
    # Row 0: top probability exactly 1. Row 1: runner-up among {0, 2} exactly
    # 0. Row 2: top and runner-up tied. Rows 3-4: ordinary rows whose top
    # labels are 3 and 1.
    P = np.array([[1.0, 0.0, 0.0, 0.0],
                  [0.6, 0.4, 0.0, 0.0],
                  [0.4, 0.4, 0.2, 0.0],
                  [0.1, 0.2, 0.3, 0.4],
                  [0.05, 0.7, 0.15, 0.1]])

    @pytest.mark.parametrize("labels", [
        [0], [1], [3], [0, 1], [0, 2], [1, 3], [2, 3], [0, 1, 2], [3, 0, 2],
        [2, 0, 2], [1, 1], [3, 2, 1, 0], [0, 1, 2, 3]])
    @pytest.mark.parametrize("sigma", [0.25, 1.0])
    def test_equals_margin_radius_bit_for_bit(self, labels, sigma):
        rows, radii = _set_radii(_runner_table(self.P), labels, sigma)
        want_rows, want = set_radii_by_rows(self.P, labels, sigma)
        assert np.array_equal(rows, want_rows)
        assert radii.dtype == want.dtype and radii.tobytes() == want.tobytes()

    def test_degenerate_rows_are_infinite_and_a_tie_is_zero(self):
        table = _runner_table(self.P)
        assert np.isinf(_set_radii(table, [0, 1, 2, 3], 0.5)[1][0])     # p_top == 1
        rows, radii = _set_radii(table, [0, 2], 0.5)
        assert rows.tolist() == [0, 1, 2] and np.isinf(radii[1])       # runner-up 0
        assert np.isfinite(radii[2])
        rows, radii = _set_radii(table, [0, 1], 0.5)
        assert rows.tolist() == [0, 1, 2, 4] and radii[2] == 0.0       # tie
        rows, radii = _set_radii(table, [1], 0.5)
        assert rows.tolist() == [4] and np.isinf(radii).all()          # singleton

    def test_matches_by_rows_on_a_random_matrix(self):
        P = synth_prob_dataset(47, 300, 9)
        P[:4] = 0.0
        P[:4, 5] = 1.0
        P[4:8] = 1.0 / 9
        table = _runner_table(P)
        for labels in ([5], [8, 5], [5, 4, 3, 5], list(range(9))[::-1], [0, 2, 4, 6, 8]):
            rows, radii = _set_radii(table, labels, 0.5)
            want_rows, want = set_radii_by_rows(P, labels, 0.5)
            assert np.array_equal(rows, want_rows)
            assert radii.tobytes() == want.tobytes()

    def test_one_label_matrix(self):
        P = np.ones((4, 1))
        for labels in ([0], [0, 0], range(1)):
            rows, radii = _set_radii(_runner_table(P), labels, 0.5)
            assert rows.tolist() == [0, 1, 2, 3]
            assert radii.tobytes() == np.full(4, math.inf).tobytes()

    def test_all_labels_range_equals_baseline_oracle(self):
        rows, radii = _set_radii(_runner_table(self.P), range(self.P.shape[1]), 0.5)
        assert np.array_equal(rows, np.arange(self.P.shape[0]))
        assert radii.tobytes() == baseline_radii_oracle(self.P, 0.5).tobytes()


def toy_three_label_hierarchy():
    """Labels 0,1 live at x=-4 (split by y-axis at distance 1); label 2 at x=+4.

    All decision boundaries are axis-aligned, so per-classifier minimal
    l-inf perturbations are |coordinate| distances.
    """
    root = axis_router()
    leaf_clf = linear([[0.0, 0.0], [0.0, 1.0]])  # label 1 iff y > 0
    h = Hierarchy(
        root=Intermediate(classifier=root,
                          children=(Leaf((0, 1), classifier=leaf_clf), Leaf((2,)))),
        n_labels=3)
    X = np.array([[-4.0, -1.0], [-4.0, 1.0], [4.0, 0.0]] * 20)
    y = np.array([0, 1, 2] * 20)
    return h, X, y


class TestAdversarial:
    def test_zero_epsilon_equals_natural(self):
        h, X, y = toy_three_label_hierarchy()
        rep = evaluate_adversarial(h, X, y, PgdParams(epsilon=0.0, step=0.01, iters=5))
        assert rep.adv_acc == rep.natural_acc == 1.0

    def test_flat_hierarchy_equals_plain_pgd(self):
        X, y = make_blobs(40, 60, [(-1.0, 0.0), (1.0, 0.0)], spread=0.8)
        base = train(LinearSoftmax.init(2, 2, seed=5), X, y, epochs=200, learning_rate=0.5)
        h = flat_hierarchy(base)
        params = PgdParams(epsilon=0.6, step=0.2, iters=10, restarts=1)
        rep = evaluate_adversarial(h, X, y, params, seed=9)
        from hiercert.models import pgd_attack
        adv = pgd_attack(base, X, y, params, seed=9)
        plain = float(np.mean(np.argmax(base.logits(adv), axis=1) == y))
        assert rep.adv_acc == pytest.approx(plain, abs=1e-12)

    def test_small_epsilon_below_margins_cannot_attack(self):
        h, X, y = toy_three_label_hierarchy()
        # closed-form minimal perturbations: root distance 4, leaf distance 1
        rep = evaluate_adversarial(h, X, y, PgdParams(epsilon=0.9, step=0.3, iters=20))
        assert rep.adv_acc == 1.0

    def test_worst_case_breaks_weakest_classifier(self):
        h, X, y = toy_three_label_hierarchy()
        # epsilon 2: the 0|1 leaf (distance 1) falls, the root (distance 4) holds
        rep = evaluate_adversarial(h, X, y, PgdParams(epsilon=2.0, step=0.5, iters=20))
        assert rep.adv_acc == pytest.approx(1.0 / 3.0)

    def test_budgeted_attack_per_node(self):
        h, X, y = toy_three_label_hierarchy()
        params = PgdParams(epsilon=2.0, step=0.5, iters=20)
        rep = evaluate_adversarial(h, X, y, params, "worst")
        assert rep.per_node["root"] == 1.0       # root survives epsilon 2
        assert rep.per_node["root.0"] == pytest.approx(1.0 / 3.0)
        assert rep.per_node["root.1"] == 1.0     # singleton leaf, unattackable
        assert rep.budget_acc == pytest.approx(1.0 / 3.0)
        single = evaluate_adversarial(h, X, y, params, "root.0")
        assert single.budget_acc == pytest.approx(1.0 / 3.0)

    @pytest.mark.parametrize("mode,target", [("worst_case", None), ("budgeted", "root"),
                                             ("budgeted", "root.0"), ("budgeted", "root.2"),
                                             ("budgeted", "worst")])
    def test_matches_per_target_oracle(self, mode, target):
        base = SmallMlp.init(6, 4, 8, seed=51)
        part = LabelPartition(((0, 1, 2), (3, 4), (5,)))
        h = build_renormalize_hierarchy(part, SmallMlp.init(3, 4, 8, seed=52), base)
        X = rng.normals(53, 330, 0, 900 * 4).reshape(900, 4)
        y = infer_batch(h, X)
        y[::7] = (y[::7] + 1) % 6
        attack = PgdParams(epsilon=0.3, step=0.1, iters=5, restarts=2)
        got = evaluate_adversarial(h, X, y, attack, target, seed=3)
        assert got == evaluate_adversarial_oracle(h, X, y, attack, target, seed=3)
        attacked = got.adv_acc if mode == "worst_case" else got.budget_acc
        assert 0.0 < attacked < got.natural_acc < 1.0 or target == "root.2"

    @pytest.mark.parametrize("mode,target,calls", [("worst_case", None, 5),
                                                   ("budgeted", "worst", 5),
                                                   ("budgeted", "root.2", 1)])
    def test_one_pgd_call_per_attacked_multi_label_node(self, monkeypatch, mode, target,
                                                        calls):
        rows, original = [], hierarchy.pgd_attack

        def counted(model, X, y, params, seed, start, total):
            rows.append(len(y))
            return original(model, X, y, params, seed, start, total)

        monkeypatch.setattr(hierarchy, "pgd_attack", counted)
        part = LabelPartition(((0, 1), (2, 3), (4, 5), (6, 7), (8,)))
        h = build_renormalize_hierarchy(part, SmallMlp.init(5, 3, 4, seed=54),
                                        SmallMlp.init(9, 3, 4, seed=55))
        X = rng.normals(56, 331, 0, 180 * 3).reshape(180, 3)
        y = np.arange(180) % 9
        evaluate_adversarial(h, X, y, PgdParams(epsilon=0.1, step=0.05, iters=2), target)
        # the root sees all 180 rows, each two-label leaf the 40 rows of its labels
        assert rows == ([180, 40, 40, 40, 40] if calls == 5 else [40])

    def test_labels_outside_the_hierarchy_rejected(self):
        h, X, y = toy_three_label_hierarchy()
        attack = PgdParams(epsilon=0.1, step=0.1)
        for bad in (3, -1):
            y[0] = bad
            with pytest.raises(ValidationError, match="labels must lie in 0..2"):
                evaluate_adversarial(h, X, y, attack)

    @pytest.mark.parametrize("mode", ["worst_case", "budgeted"])
    def test_no_rows_rejected(self, mode):
        h = flat_hierarchy(linear([[1.0, 0.0], [0.0, 1.0]]))
        target = "root" if mode == "budgeted" else None
        with pytest.raises(ValidationError, match="no data rows"):
            evaluate_adversarial(h, np.empty((0, 2)), np.empty(0, dtype=np.int64),
                                 PgdParams(epsilon=0.1, step=0.1), target)

    def test_budgeted_needs_valid_target(self):
        h, X, y = toy_three_label_hierarchy()
        params = PgdParams(epsilon=0.5, step=0.2, iters=5)
        with pytest.raises(ValidationError):
            evaluate_adversarial(h, X, y, params, "nope")


def two_process_case():
    """A hierarchy and rows, most of them labelled as it infers them, in
    which leaf root.0 (labels 0-2) has one row, leaf root.1 (labels 3, 4)
    none, and leaf root.2 is a singleton."""
    part = LabelPartition(((0, 1, 2), (3, 4), (5,), (6, 7), (8, 9)))
    h = build_renormalize_hierarchy(part, SmallMlp.init(5, 4, 8, seed=61),
                                    SmallMlp.init(10, 4, 8, seed=62))
    X = rng.normals(63, 332, 0, 301 * 4).reshape(301, 4)
    y = infer_batch(h, X)
    low = np.flatnonzero(y < 5)  # two rows; keep the first in labels 0-4
    y[low[1:]] = 5
    y[::7] = 5 + (y[::7] - 4) % 5
    return h, X, y


TWO_PROCESS_PGD = PgdParams(epsilon=0.3, step=0.1, iters=4, restarts=2)


class TestTwoProcessAttack:
    """With the work cut-off at 0, a forked child attacks the first half of
    every attacked node's rows and this process the rest: the report must be
    the one-process report, also when the child or the fork fails."""

    #: The budget target of each scenario; None attacks every node at once.
    SCENARIOS = {"worst_case": None, "single": "root.3", "one-row": "root.0", "worst": "worst"}
    # The rows of each node attacked, in `Hierarchy.nodes()` order: root,
    # root.0, root.1, root.3 and root.4 (root.2 is a singleton).
    ROWS = {"worst_case": [301, 1, 0, 103, 160], "single": [103], "one-row": [1],
            "worst": [301, 1, 0, 103, 160]}

    @pytest.fixture(autouse=True)
    def split_every_call(self, monkeypatch, forks):
        monkeypatch.setattr(split, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(hierarchy, "SPLIT_MIN_PGD_WORK", 0)

    def reports(self, monkeypatch, name="worst"):
        """(report, (start, rows, total) of each range attacked here) of the
        split call and of one process."""
        h, X, y = two_process_case()
        target = self.SCENARIOS[name]
        original, ranges = hierarchy.pgd_attack, []

        def recorded(model, X, y, params, seed, start, total):
            ranges.append((start, len(X), total))
            return original(model, X, y, params, seed, start, total)

        monkeypatch.setattr(hierarchy, "pgd_attack", recorded)
        got = evaluate_adversarial(h, X, y, TWO_PROCESS_PGD, target, seed=3), ranges[:]
        ranges.clear()
        with monkeypatch.context() as m:
            m.setattr(hierarchy, "SPLIT_MIN_PGD_WORK", 1 << 62)
            want = evaluate_adversarial(h, X, y, TWO_PROCESS_PGD, target, seed=3), ranges[:]
        return got, want

    @staticmethod
    def halves(whole):
        """The (head, tail) ranges of each whole-node range."""
        return ([(0, n // 2, n) for _, n, _ in whole],
                [(n // 2, n - n // 2, n) for _, n, _ in whole])

    @pytest.mark.parametrize("name", list(SCENARIOS))
    def test_split_report_equals_one_process_report(self, monkeypatch, forks, name):
        (got, here), (want, whole) = self.reports(monkeypatch, name)
        assert got == want
        h, X, y = two_process_case()
        assert want == evaluate_adversarial_oracle(h, X, y, TWO_PROCESS_PGD,
                                                   self.SCENARIOS[name], seed=3)
        assert [n for _, n, _ in whole] == self.ROWS[name]
        assert len(forks) == 1 and here == self.halves(whole)[1]

    @pytest.mark.parametrize("how", ["exit-3", "sigkill", "truncated"])
    def test_failed_child_falls_back_to_the_same_report(self, monkeypatch, forks, how):
        monkeypatch.setattr(split, "_send", failing_send(how))
        (got, here), (want, whole) = self.reports(monkeypatch)
        head, tail = self.halves(whole)
        assert got == want and len(forks) == 1 and here == tail + head

    @pytest.mark.parametrize("broken", ["fork", "pipe"])
    def test_fork_or_pipe_oserror_falls_back_to_the_same_report(self, monkeypatch, forks,
                                                                broken):
        def fail(*args, **kwargs):
            raise OSError("unavailable")

        monkeypatch.setattr(os, broken, fail)
        (got, here), (want, whole) = self.reports(monkeypatch)
        assert got == want and not forks and here == whole

    @pytest.mark.parametrize("host", ["one-cpu", "no-fork", "no-blas-control"])
    def test_attacks_in_one_process_where_it_cannot_split(self, monkeypatch, forks, host):
        if host == "one-cpu":
            monkeypatch.setattr(split, "_usable_cpus", lambda: 1)
        elif host == "no-fork":
            monkeypatch.delattr(os, "fork")
        else:
            monkeypatch.setattr(split, "_openblas", lambda: None)
        (got, here), (want, whole) = self.reports(monkeypatch)
        assert got == want and not forks and here == whole

    def test_leaf_model_without_the_fused_pass_is_rejected_before_any_fork(self, forks):
        # Public logits and input gradients are not enough: the attack runs
        # `_forward`/`_backward`, which a built-in model has.
        class PublicGradients:
            def __init__(self, model):
                self.model, self.n_labels = model, model.n_labels

            def logits(self, X):
                return self.model.logits(X)

            def input_grad_from_dlogits(self, X, G):
                return self.model.input_grad_from_dlogits(X, G)

        _, X, y = two_process_case()
        part = LabelPartition(((0, 1, 2), (3, 4), (5,), (6, 7), (8, 9)))
        h = build_renormalize_hierarchy(part, SmallMlp.init(5, 4, 8, seed=61),
                                        PublicGradients(SmallMlp.init(10, 4, 8, seed=62)))
        with pytest.raises(CapabilityError, match="node 'root.0': a PublicGradients cannot"):
            evaluate_adversarial(h, X, y, TWO_PROCESS_PGD, seed=3)
        assert not forks


def test_attack_forks_only_where_two_cpus_are_usable(monkeypatch, forks):
    # The host's own CPU affinity decides; one CPU (taskset -c 0) never forks.
    monkeypatch.setattr(hierarchy, "SPLIT_MIN_PGD_WORK", 0)
    h, X, y = two_process_case()
    got = evaluate_adversarial(h, X, y, TWO_PROCESS_PGD, seed=3)
    assert len(forks) == int(split._can_split())
    monkeypatch.setattr(hierarchy, "SPLIT_MIN_PGD_WORK", 1 << 62)
    assert got == evaluate_adversarial(h, X, y, TWO_PROCESS_PGD, seed=3)


def test_attack_below_the_cut_off_does_not_fork(monkeypatch, forks):
    monkeypatch.setattr(split, "_usable_cpus", lambda: 2)
    h, X, y = two_process_case()
    report = evaluate_adversarial(h, X, y, TWO_PROCESS_PGD, seed=3)
    # 565 attacked rows x 4 steps x 2 restarts x d = 4: far below the cut-off
    assert report.pgd_steps == 565 * 4 * 2 and not forks


@pytest.mark.parametrize("mode,target", [("worst_case", None), ("budgeted", "root.3"),
                                         ("budgeted", "worst")])
def test_every_figure_reads_one_clean_pass_per_node(monkeypatch, mode, target):
    # Natural accuracy is read from the per-node clean passes on each row's
    # true path, which every mode makes exactly once per node, and not from
    # a walk down the predicted paths.
    h, X, y = two_process_case()
    natural = float(np.mean(infer_batch(h, X) == y))
    adversarial, clean = [], []
    original_pgd, original_decide = hierarchy.pgd_attack, hierarchy._decide

    def walk(*args):
        raise AssertionError("evaluate_adversarial called infer_batch")

    def attacked(*args):
        adversarial.append(original_pgd(*args))
        return adversarial[-1]

    def checked(node, X):
        if not any(X is adv for adv in adversarial):
            clean.append(node)
        return original_decide(node, X)

    monkeypatch.setattr(hierarchy, "SPLIT_MIN_PGD_WORK", 1 << 62)  # no call in a child
    monkeypatch.setattr(hierarchy, "infer_batch", walk)
    monkeypatch.setattr(hierarchy, "pgd_attack", attacked)
    monkeypatch.setattr(hierarchy, "_decide", checked)
    report = evaluate_adversarial(h, X, y, TWO_PROCESS_PGD, target, seed=3)
    assert [id(node) for node in clean] == [id(node) for _, node in h.nodes()]
    assert len(adversarial) == (1 if target == "root.3" else 5)
    assert report.natural_acc == natural and 0.0 < natural < 1.0


class TestRetrainLeaf:
    def test_singleton_directive(self):
        X, y = make_blobs(11, 20, [(-1.0, 0.0), (1.0, 0.0)])
        assert retrain_leaf(X, y, (0,)) is None

    def test_separable_subset_reaches_full_accuracy(self):
        X, y = make_blobs(12, 80, [(-3, -3), (-3, 3), (3, -3), (3, 3)], spread=1.0)
        from helpers import linearly_separable
        sub = np.isin(y, [0, 1])
        assert linearly_separable(X[sub], y[sub])
        leaf = retrain_leaf(X, y, (0, 1), epochs=400, learning_rate=0.5, seed=1)
        local = np.argmax(leaf.logits(X[sub]), axis=1)
        assert np.mean(local == y[sub]) == 1.0

    def test_retrained_certificates_can_move_both_ways(self):
        # renormalization can only widen margins; retraining carries no such
        # guarantee, and an accurate but less confident leaf shows both signs
        X, y = make_blobs(12, 80, [(-3, -3), (-3, 3), (3, -3), (3, 3)], spread=1.0)
        base = train(LinearSoftmax.init(4, 2, seed=0), X, y, epochs=400, learning_rate=0.5)
        leaf = retrain_leaf(X, y, (0, 1), epochs=60, learning_rate=0.5, seed=1)
        sub = np.isin(y, [0, 1])
        Xs = X[sub]
        assert np.mean(np.argmax(leaf.logits(Xs), axis=1) == y[sub]) == 1.0
        Pb = softmax(base.logits(Xs))
        Pl = softmax(leaf.logits(Xs))
        g = np.argmax(Pb, axis=1)
        keep = np.isin(g, [0, 1])
        idx = np.arange(int(keep.sum()))
        base_r = margin_radius_oracle(0.5, Pb[keep][idx, g[keep]], Pb[keep][idx, 1 - g[keep]])
        gl = np.argmax(Pl[keep], axis=1)
        leaf_r = margin_radius_oracle(0.5, Pl[keep][idx, gl], Pl[keep][idx, 1 - gl])
        assert int(np.sum(leaf_r < base_r)) >= 1
        assert int(np.sum(leaf_r > base_r)) >= 1


class TestRenormalizationReport:
    def test_hierarchy_radius_dominates_baseline(self):
        P = synth_prob_dataset(41, 400, 10)
        labels = np.argmax(P, axis=1)  # perfectly labeled for a clean check
        part = LabelPartition(((0, 1, 2, 3, 4), (5, 6, 7, 8, 9)))
        reports = renormalization_report(P, labels, part, 0.5, thresholds=[0.25, 0.5])
        assert len(reports) == 2
        for r in reports:
            assert r.hierarchy_cr_mean >= r.baseline_cr_mean
            for b, hh in zip(r.baseline_ca, r.hierarchy_ca):
                assert hh >= b

    def test_identity_partition_reproduces_baseline(self):
        P = synth_prob_dataset(42, 200, 6)
        labels = np.argmax(P, axis=1)
        part = LabelPartition((tuple(range(6)),))
        r = renormalization_report(P, labels, part, 0.5, thresholds=[0.25])[0]
        assert r.hierarchy_cr_mean == pytest.approx(r.baseline_cr_mean, abs=1e-12)
        assert r.hierarchy_ca == pytest.approx(r.baseline_ca)

    @pytest.mark.parametrize("bad", [-1, 6])
    def test_labels_outside_the_partition_rejected(self, bad):
        P = synth_prob_dataset(43, 20, 6)
        labels = np.argmax(P, axis=1)
        labels[3] = bad
        part = LabelPartition(((0, 1, 2), (3, 4, 5)))
        with pytest.raises(ValidationError, match="labels must lie in 0..5"):
            renormalization_report(P, labels, part, 0.5, thresholds=[0.25])

    @pytest.mark.parametrize("m", [1, 2, 7])
    def test_baseline_matches_argsort_oracle(self, m):
        if m == 1:
            P = np.ones((60, 1))
            part = LabelPartition(((0,),))
        else:
            P = synth_prob_dataset(45, 300, m)
            P[:3] = 0.0
            P[:3, m - 1] = 1.0          # exact top probability: +inf radius
            P[3:6] = 1.0 / m            # ties everywhere
            part = LabelPartition(((0, 2, 4), (1, 3), (5, 6)) if m == 7 else ((0,), (1,)))
        want = baseline_radii_oracle(P, 0.5)
        rows, radii = _set_radii(_runner_table(P), range(m), 0.5)
        assert np.array_equal(rows, np.arange(P.shape[0]))
        assert np.array_equal(radii, want)

        y = np.argmax(P, axis=1)
        y[::4] = (y[::4] + 1) % m
        thresholds = [0.0, 0.25, 1.0]
        ok_all = np.argmax(P, axis=1) == y
        for r in renormalization_report(P, y, part, 0.5, thresholds):
            sel = np.flatnonzero(np.isin(y, r.labels))
            ok = ok_all[sel]
            finite = want[sel][ok]
            finite = finite[np.isfinite(finite)]
            stats = [float(finite.mean()), float(finite.std())] if finite.size else [math.nan] * 2
            ca = [float(np.mean(ok & (want[sel] >= t))) for t in thresholds]
            assert np.array_equal([r.baseline_cr_mean, r.baseline_cr_std, *r.baseline_ca],
                                  stats + ca, equal_nan=True)


class TestRenormalizedRadii:
    def test_equal_to_per_row_leaf_certificates_bit_for_bit(self):
        P = synth_prob_dataset(43, 600, 12)
        P[:5] = 0.0
        P[:5, 4] = 1.0                  # exact top probability: +inf radius
        P[5:10] = 1.0 / 12              # ties everywhere
        part = LabelPartition(((0, 3, 7), (1,), (2, 5, 6, 8, 9, 11), (4,), (10,)))
        got = _class_radii(_runner_table(P), part, 0.75)
        leaf_of = {label: c for c in part.classes for label in c}
        want = np.array([leaf_certificate_renormalized(
            row, leaf_of[int(np.argmax(row))], 0.75).radius for row in P])
        assert np.array_equal(got, want)
        assert np.isinf(got).any() and np.isfinite(got).any()

    @pytest.mark.parametrize("row", [[0.5, 0.6, -0.1], [0.5, 0.5, 0.1],
                                     [0.5, math.nan, 0.5], [1.5, -0.25, -0.25]])
    def test_rows_validated_as_probability_vectors(self, row):
        P = synth_prob_dataset(44, 5, 3)
        P[2] = row
        with pytest.raises(ValidationError):
            renormalization_report(P, [0] * 5, LabelPartition(((0, 1), (2,))), 0.5, [0.25])
