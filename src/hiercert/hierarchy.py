"""Hierarchical classifiers over label equivalence classes.

A hierarchy is a tree: intermediate nodes route an input to the
equivalence class it belongs to, leaves predict a label within their
class. Certification composes by taking the minimum certified radius
along the root-to-leaf path; a leaf over a reduced label set can only
widen the top-vs-runner-up margin, which is where the robustness gain
comes from.

Leaf classifiers always speak the local label space (index i means
label_subset[i]). A leaf whose classifier is a `MaskedModel` renormalizes
the base classifier over its subset; any other leaf classifier is a model
of the subset's own labels, such as one fit by `retrain_leaf`.

Every node is a unit of work: `_label_index` maps each true label onto a
node's local target (the child holding it, or its index in a leaf), and
`evaluate_adversarial` attacks a node once, over every row whose true
root-to-leaf path passes through it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence, Union

import numpy as np
from scipy import special

from . import rng, split
from .core import (
    CertifiedPrediction,
    LabelPartition,
    as_probability_matrix,
    as_probability_vector,
    checked_labels,
    normalize_subset,
)
from .errors import CapabilityError, RoutingMismatchError, ValidationError
from .models import LinearSoftmax, MaskedModel, PgdParams, SmallMlp, _pgd_rows, _unmask, train
from .smoothing import margin_radius

#: An attack of at least this much work (Σ rows·d·iters·restarts) runs in two
#: processes. Measured on two cores from a 96 MB process with a many-inputs
#: hierarchy (d = 16, 40 steps, 4 restarts), the split lost at 0.5M (101 ms
#: split against 68 ms in one process), varied either way from 1M to 2.6M
#: and won from 4.1M on (109 against 129 ms; 312 against 561 ms at 20.5M).
SPLIT_MIN_PGD_WORK = 1 << 21

WORST_CASE = "worst_case"
BUDGETED = "budgeted"

#: Cap on (subsets x rows) of an all-subsets sweep; larger ones must sample.
MAX_SWEEP_EVALUATIONS = 10_000_000


@dataclass(frozen=True)
class Leaf:
    """Terminal node predicting within one equivalence class."""

    label_subset: tuple[int, ...]
    classifier: Optional[object] = None

    def __post_init__(self):
        object.__setattr__(self, "label_subset", tuple(int(i) for i in self.label_subset))
        if len(self.label_subset) == 1:
            if self.classifier is not None:
                raise ValidationError("singleton leaves carry no classifier")
        else:
            if self.classifier is None:
                raise ValidationError("multi-label leaves need a classifier")
            if self.classifier.n_labels != len(self.label_subset):
                raise ValidationError("leaf classifier arity must match its label subset")
            if (isinstance(self.classifier, MaskedModel)
                    and self.classifier.subset != self.label_subset):
                raise ValidationError("a masked leaf classifier must select the leaf's labels")


@dataclass(frozen=True)
class Intermediate:
    """Routing node; child i handles the i-th equivalence class below it.
    `label_subset` is the sorted union of the children's label subsets."""

    classifier: object
    children: tuple["Node", ...]
    label_subset: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "children", tuple(self.children))
        if len(self.children) < 2:
            raise ValidationError("intermediate nodes need at least 2 children")
        if self.classifier.n_labels != len(self.children):
            raise ValidationError("routing arity must equal the child count")
        object.__setattr__(self, "label_subset",
                           tuple(sorted(i for c in self.children for i in c.label_subset)))


Node = Union[Leaf, Intermediate]


@dataclass(frozen=True)
class Hierarchy:
    """A finite routing tree whose leaf subsets partition the label space."""

    root: Node
    n_labels: int

    def __post_init__(self):
        if self.root.label_subset != tuple(range(self.n_labels)):
            raise ValidationError(
                "leaf subsets must partition the label space "
                f"0..{self.n_labels - 1}, got {self.root.label_subset}"
            )

    def leaves(self) -> list[Leaf]:
        return [node for _, node in self.nodes() if isinstance(node, Leaf)]

    def partition(self) -> LabelPartition:
        return LabelPartition(tuple(l.label_subset for l in self.leaves()),
                             n_labels=self.n_labels)

    def nodes(self) -> list[tuple[str, Node]]:
        """(id, node) pairs; ids are 'root', 'root.0', 'root.0.1', ..."""
        out: list[tuple[str, Node]] = []

        def walk(node: Node, nid: str):
            out.append((nid, node))
            if isinstance(node, Intermediate):
                for i, child in enumerate(node.children):
                    walk(child, f"{nid}.{i}")

        walk(self.root, "root")
        return out


def build_renormalize_hierarchy(partition: LabelPartition, root_classifier,
                                base_classifier) -> Hierarchy:
    """Two-level hierarchy: route by partition class, renormalize the base model."""
    children = []
    for subset in partition.classes:
        if len(subset) == 1:
            children.append(Leaf(subset))
        else:
            children.append(Leaf(subset, MaskedModel(base_classifier, subset)))
    root = Intermediate(classifier=root_classifier, children=tuple(children))
    return Hierarchy(root=root, n_labels=partition.n_labels)


def flat_hierarchy(classifier) -> Hierarchy:
    """Degenerate one-leaf hierarchy: identical to the flat base classifier."""
    subset = tuple(range(classifier.n_labels))
    return Hierarchy(root=Leaf(subset, MaskedModel(classifier, subset)),
                     n_labels=classifier.n_labels)


def _label_index(groups: Iterable[Iterable[int]], n_labels: int) -> np.ndarray:
    """Position of the group holding each label 0..n_labels-1, or -1 for a
    label in no group."""
    index = np.full(n_labels, -1, dtype=np.int64)
    for i, group in enumerate(groups):
        index[list(group)] = i
    return index


def infer_batch(h: Hierarchy, X: np.ndarray) -> np.ndarray:
    """Root-to-leaf inference for a batch; returns global label indices."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    out = np.empty(X.shape[0], dtype=np.int64)

    def walk(node: Node, idx: np.ndarray):
        if idx.size == 0:
            return
        if isinstance(node, Leaf):
            if len(node.label_subset) == 1:
                out[idx] = node.label_subset[0]
            else:
                local = np.argmax(node.classifier.logits(X[idx]), axis=1)
                out[idx] = np.asarray(node.label_subset)[local]
            return
        branch = np.argmax(node.classifier.logits(X[idx]), axis=1)
        for i, child in enumerate(node.children):
            walk(child, idx[branch == i])

    walk(h.root, np.arange(X.shape[0]))
    return out


def _runner_table(P: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Label-major runner-up table of a probability matrix, built once.

    Returns each row's top label g, q_top = Phi^-1(p_top) of its top
    probability (+inf where p_top == 1), and PT, a C-ordered copy of P.T with
    PT[g[r], r] = -inf, so the max over any label set's rows of PT is every
    row's runner-up within that set. PT is always a fresh copy: for an n x 1
    or 1 x m matrix P.T is already contiguous, and a view would carry the
    mask into the caller's matrix.
    """
    g = np.argmax(P, axis=1)
    rows = np.arange(P.shape[0])
    PT = P.T.copy()
    PT[g, rows] = -np.inf
    return g, special.ndtri(P[rows, g]), PT


def _set_radii(table, labels, sigma: float) -> tuple[np.ndarray, np.ndarray]:
    """Two-sided radius of every row whose top label lies in `labels`, against
    its runner-up among `labels`.

    `labels` is a nonempty list of labels, in any order and possibly
    repeated, or a slice. Returns the rows, ascending, and their radii. The
    runner-up is a running column-wise max over the label set's rows of the
    table, made in place with no gather copy (one max over the view for a
    slice); it is -inf where no competitor is left, as in a singleton set,
    and is floored to 0. The radius takes the operations of the array path
    of `margin_radius` in its order, so its bits are the same; the ranges
    were checked when P was validated. Its +inf entries come from
    Phi^-1(1) = +inf at p_top == 1 and Phi^-1(0) = -inf at a runner-up of 0.
    """
    g, q_top, PT = table
    allowed = np.zeros(PT.shape[0], dtype=bool)
    allowed[labels] = True
    rows = np.flatnonzero(allowed[g])
    if isinstance(labels, slice):
        runner = PT[labels].max(axis=0)
    else:
        runner = PT[labels[0]].copy()
        for label in labels[1:]:
            np.maximum(runner, PT[label], out=runner)
    q_runner = special.ndtri(np.maximum(runner[rows], 0.0))
    return rows, 0.5 * sigma * np.maximum(q_top[rows] - q_runner, 0.0)


def leaf_certificate_renormalized(smoothed_probs, subset: Iterable[int],
                                  sigma: float) -> CertifiedPrediction:
    """Two-sided certificate of the top label within a subset.

    The probability estimates are the baseline classifier's; estimates
    outside the subset are discarded and the margin is taken between the
    top and runner-up that remain (the estimates themselves are not
    rescaled, which is what makes the bound valid). The global argmax must
    lie inside the subset; otherwise the sample was routed wrong and is a
    misclassification, not a certificate. With no competitor left the
    runner-up is 0, for which `margin_radius` gives +inf.
    """
    probs = as_probability_vector(smoothed_probs)
    s = normalize_subset(subset, probs.size)
    g = int(np.argmax(probs))
    if g not in s:
        raise RoutingMismatchError(f"argmax {g} outside routed subset {s}")
    p_top = float(probs[g])
    p_runner = max((float(probs[i]) for i in s if i != g), default=0.0)
    return CertifiedPrediction(label=g, radius=margin_radius(sigma, p_top, p_runner),
                               p_a_lower=p_top, sigma=sigma)


def hierarchy_certificate(node_radii: Sequence[float]) -> float:
    """Composed certificate of a root-to-leaf path: the minimum entry."""
    radii = list(node_radii)
    if not radii:
        raise ValidationError("need at least one per-classifier radius")
    for r in radii:
        if not (r >= 0.0):
            raise ValidationError(f"radii must be nonnegative, got {r!r}")
    return min(radii)


@dataclass(frozen=True)
class SizeStats:
    """Radius statistics for one subset size in a sweep."""

    size: int
    n_finite: int
    n_infinite: int
    mean: float
    std: float
    q25: float
    median: float
    q75: float


def _sample_subsets(m: int, size: int, count: int, seed: int) -> list[tuple[int, ...]]:
    total = math.comb(m, size)
    if total <= count:
        return [tuple(c) for c in itertools.combinations(range(m), size)]
    # Candidate t is the `size` smallest of the m uniforms at counters
    # t*m .. t*m + m - 1; candidates are drawn `count` at a time and kept in
    # order of first appearance, up to 64 * count candidates in all.
    seen: set[tuple[int, ...]] = set()
    out: list[tuple[int, ...]] = []
    t, limit = 0, 64 * count
    while len(out) < count and t < limit:
        batch = min(count, limit - t)
        u = rng.uniforms(seed, rng.STREAM_SUBSETS, t * m, batch * m).reshape(batch, m)
        picks = np.sort(np.argsort(u, axis=1, kind="stable")[:, :size], axis=1)
        for subset in map(tuple, picks.tolist()):
            if subset not in seen:
                seen.add(subset)
                out.append(subset)
                if len(out) == count:
                    break
        t += batch
    return out


def subset_radius_sweep(probs_dataset, sigma: float, sizes: Sequence[int],
                        mode: str = "all", sample_count: int = 500,
                        seed: int = 0) -> dict[int, SizeStats]:
    """Renormalized-radius statistics over label subsets of each size.

    For every subset (all of them, or a seeded sample of `sample_count`
    per size) and every datapoint whose argmax lies in the subset, the
    two-sided within-subset radius is computed. Singleton subsets yield
    +inf radii, which are counted separately and excluded from the
    statistics. Shrinking the subset size can only grow the mean radius.
    The rows must be probability vectors (`as_probability_matrix`).
    """
    P = as_probability_matrix(probs_dataset)
    n, m = P.shape
    if mode not in ("all", "sampled"):
        raise ValidationError(f"unknown sweep mode {mode!r}")
    sizes = [int(s) for s in sizes]
    for s in sizes:
        if not 1 <= s <= m:
            raise ValidationError(f"subset size {s} outside 1..{m}")
        if mode == "all" and math.comb(m, s) * n > MAX_SWEEP_EVALUATIONS:
            raise ValidationError(
                f"all-subsets sweep at size {s} needs {math.comb(m, s) * n} "
                f"evaluations (> {MAX_SWEEP_EVALUATIONS}); use mode='sampled'"
            )

    table = _runner_table(P)
    out: dict[int, SizeStats] = {}
    for s in sizes:
        if mode == "all":
            subsets = [tuple(c) for c in itertools.combinations(range(m), s)]
        else:
            subsets = _sample_subsets(m, s, sample_count, seed + s)
        finite: list[np.ndarray] = []
        n_inf = 0
        for subset in subsets:
            _, radii = _set_radii(table, list(subset), sigma)
            inf_mask = np.isinf(radii)
            n_inf += int(inf_mask.sum())
            finite.append(radii[~inf_mask])
        values = np.concatenate(finite) if finite else np.empty(0)
        if values.size:
            q25, med, q75 = np.percentile(values, [25, 50, 75])
            stats = SizeStats(size=s, n_finite=values.size, n_infinite=n_inf,
                              mean=float(values.mean()), std=float(values.std()),
                              q25=float(q25), median=float(med), q75=float(q75))
        else:
            stats = SizeStats(size=s, n_finite=0, n_infinite=n_inf,
                              mean=math.nan, std=math.nan,
                              q25=math.nan, median=math.nan, q75=math.nan)
        out[s] = stats
    return out


@dataclass(frozen=True)
class AttackScenario:
    """Which classifiers the adversary may perturb, and with what budget."""

    mode: str
    attack: PgdParams
    budget_target: Optional[str] = None

    def __post_init__(self):
        if self.mode not in (WORST_CASE, BUDGETED):
            raise ValidationError(f"unknown attack mode {self.mode!r}")
        if self.mode == BUDGETED and not self.budget_target:
            raise ValidationError("budgeted attacks need a target node id (or 'worst')")


@dataclass(frozen=True)
class AdversarialReport:
    natural_acc: float
    adv_acc: Optional[float] = None
    budget_acc: Optional[float] = None
    per_node: Optional[dict] = None
    pgd_steps: int = 0


def _node_correct(node: Node, X: np.ndarray, targets: np.ndarray,
                  attack: Optional[PgdParams] = None, seed: int = 0,
                  start: int = 0, total: Optional[int] = None) -> np.ndarray:
    """Per row: does the node still produce its local target, on the clean
    input or, given `attack`, after PGD? X holds rows start.. of the node's
    `total` rows (default: all of them), attacked as that one `pgd_attack`
    call over all the node's rows would attack them (`_pgd_rows`).

    Singleton leaves have no classifier and cannot be attacked."""
    if node.classifier is None:
        return np.ones(X.shape[0], dtype=bool)
    if attack is not None:
        X = _pgd_rows(node.classifier, X, targets, attack, seed, start,
                      X.shape[0] if total is None else total)
    return np.argmax(node.classifier.logits(X), axis=1) == targets


def _attacked_correct(jobs, X: np.ndarray, attack: PgdParams, seed: int,
                      steps: int) -> list[np.ndarray]:
    """`_node_correct` under attack of each (node, rows, targets) of jobs,
    which take `steps` PGD row steps in all.

    With at least `SPLIT_MIN_PGD_WORK` of work (steps·d) and where
    `split.can_hold_blas`, one forked child attacks the first half of every
    node's rows while this process attacks the second half (`split.both`);
    only the booleans cross the pipe. Every row is attacked as in the whole
    call, so the concatenated halves are the one-process result."""
    def part(a: int, b: int) -> list[np.ndarray]:
        """Rows n·a//2 to n·b//2 of each node's n rows."""
        out = []
        for node, rows, targets in jobs:
            lo, hi = len(rows) * a // 2, len(rows) * b // 2
            out.append(_node_correct(node, X[rows[lo:hi]], targets[lo:hi], attack, seed,
                                     lo, len(rows)))
        return out

    if steps * X.shape[1] < SPLIT_MIN_PGD_WORK or not split.can_hold_blas():
        return part(0, 2)
    heads, tails = split.both(lambda: part(0, 1), lambda: part(1, 2))
    return [np.concatenate(pair) for pair in zip(heads, tails)]


def evaluate_adversarial(h: Hierarchy, X, y, scenario: AttackScenario,
                         seed: int = 0) -> AdversarialReport:
    """Natural and adversarial accuracy of a hierarchy of built-in models.

    Worst case: every classifier on a sample's true path is attacked
    independently from the clean input; the sample counts as correct only
    if all of them still decide correctly. Budgeted: only the designated
    node is attacked, every other classifier sees the clean input; the
    target 'worst' tries each node and reports the most damaging one.

    X needs at least one row. Each node's rows are those whose true path
    passes through it. A node is checked clean at most once and attacked at
    most once, its rows attacked as by one `pgd_attack` call over all of
    them. The attack takes `pgd_steps` = Σ attacked rows·iters·restarts row
    steps, each one forward and one backward pass. From `SPLIT_MIN_PGD_WORK` of work (pgd_steps·d)
    on, where numpy's OpenBLAS can be held to one thread, one forked child
    attacks the first half of every attacked node's rows while this process
    attacks the second half; a child that fails costs time, never a result,
    and the report is the one-process report bit for bit
    (`_attacked_correct`).
    """
    for nid, node in h.nodes():
        # The attack runs `_fused_step`, which needs a built-in model's `_backward`.
        model = _unmask(node.classifier)[0]
        if model is not None and not hasattr(model, "_backward"):
            raise CapabilityError(
                f"node {nid!r}: a {type(model).__name__} cannot be run or attacked on input "
                "features; attacks need built-in linear or mlp classifiers at every node")
    node_ids = [nid for nid, _ in h.nodes()]
    if scenario.mode == BUDGETED and scenario.budget_target not in node_ids + ["worst"]:
        raise ValidationError(f"no node named {scenario.budget_target!r}; "
                              f"known ids: {node_ids}")
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    y = checked_labels(y, h.n_labels)
    if not X.shape[0]:
        raise ValidationError("no data rows; an attack needs at least one input")
    natural = float(np.mean(infer_batch(h, X) == y))

    every_node = scenario.mode == WORST_CASE or scenario.budget_target == "worst"
    jobs, clean = {}, {}
    for nid, node in h.nodes():
        # The local target of each row: its label's child, or its index in a leaf.
        groups = ([(label,) for label in node.label_subset] if isinstance(node, Leaf)
                  else (child.label_subset for child in node.children))
        local = _label_index(groups, h.n_labels)[y]
        rows = np.flatnonzero(local >= 0)
        if every_node or nid == scenario.budget_target:
            jobs[nid] = node, rows, local[rows]
        # A single budgeted target never needs its own clean correctness.
        if scenario.mode == BUDGETED and nid != scenario.budget_target:
            clean[nid] = rows, _node_correct(node, X[rows], local[rows])
    # One forward and backward pass per attacked row, step and restart.
    steps = sum(len(rows) for node, rows, _ in jobs.values() if node.classifier is not None)
    steps *= scenario.attack.iters * scenario.attack.restarts
    goods = _attacked_correct(list(jobs.values()), X, scenario.attack, seed, steps)
    attacked = {nid: (rows, good) for (nid, (_, rows, _)), good in zip(jobs.items(), goods)}

    def accuracy(target_id: Optional[str]) -> float:
        """Share of rows correct at every node: attacked at every node when
        target_id is None, else attacked at target_id and clean elsewhere."""
        ok = np.ones(X.shape[0], dtype=bool)
        for nid in node_ids:
            rows, good = attacked[nid] if target_id in (None, nid) else clean[nid]
            ok[rows] &= good
        return float(np.mean(ok))

    if scenario.mode == WORST_CASE:
        return AdversarialReport(natural_acc=natural, adv_acc=accuracy(None), pgd_steps=steps)
    if scenario.budget_target == "worst":
        per_node = {nid: accuracy(nid) for nid in node_ids}
        return AdversarialReport(natural_acc=natural, budget_acc=min(per_node.values()),
                                 per_node=per_node, pgd_steps=steps)
    return AdversarialReport(natural_acc=natural, budget_acc=accuracy(scenario.budget_target),
                             pgd_steps=steps)


def retrain_leaf(X, y, subset: Iterable[int], hidden: int = 0, epochs: int = 500,
                 learning_rate: float = 0.5, noise_sigma: float | None = None,
                 seed: int = 0):
    """Fit a fresh leaf model on the samples of one equivalence class.

    Labels are re-indexed to the subset; the returned model speaks the
    local label space. Returns None when fewer than two distinct labels
    are present (the singleton-leaf directive: no classifier is needed).
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    y = np.asarray(y, dtype=np.int64)
    n_labels = int(y.max()) + 1 if y.size else 1
    s = normalize_subset(subset, n_labels)
    local = _label_index([(label,) for label in s], n_labels)[y]
    member = (y >= 0) & (local >= 0)  # a negative label would wrap around `local`
    Xs, y_local = X[member], local[member]
    if np.unique(y_local).size < 2:
        return None
    if hidden > 0:
        model = SmallMlp.init(len(s), X.shape[1], hidden, seed)
    else:
        model = LinearSoftmax.init(len(s), X.shape[1], seed)
    return train(model, Xs, y_local, epochs=epochs, learning_rate=learning_rate,
                 noise_sigma=noise_sigma, seed=seed)


@dataclass(frozen=True)
class ClassReport:
    """Baseline-vs-hierarchy certificate summary for one equivalence class."""

    class_index: int
    labels: tuple[int, ...]
    n_samples: int
    routing_acc: float
    baseline_cr_mean: float
    baseline_cr_std: float
    hierarchy_cr_mean: float
    hierarchy_cr_std: float
    baseline_ca: tuple[float, ...]
    hierarchy_ca: tuple[float, ...]


def renormalized_radii(probs, partition: LabelPartition, sigma: float) -> np.ndarray:
    """Radius of `leaf_certificate_renormalized` for every row, routed to the
    class of the row's argmax.

    The rows are validated once, by `as_probability_matrix`. One runner-up
    table (`_runner_table`) serves every class: `_set_radii` takes the radii
    of the rows routed to each class in turn. The radius is +inf for a row
    of a one-label class or with no competitor left above 0 (its runner-up
    is 0, and Phi^-1(0) = -inf), and for a row whose top probability is 1
    (Phi^-1(1) = +inf).
    """
    return _class_radii(_runner_table(as_probability_matrix(probs)), partition, sigma)


def _class_radii(table, partition: LabelPartition, sigma: float) -> np.ndarray:
    """`renormalized_radii` from a runner-up table."""
    g, _, PT = table
    if partition.n_labels != PT.shape[0]:
        raise ValidationError("partition does not match probability width")
    radii = np.empty(g.size)
    for c in partition.classes:
        rows, class_radii = _set_radii(table, list(c), sigma)
        radii[rows] = class_radii
    return radii


def renormalization_report(probs, labels, partition: LabelPartition, sigma: float,
                           thresholds: Sequence[float]) -> list[ClassReport]:
    """Per-class certified radius and accuracy, baseline vs renormalized leaf.

    Baseline certificates use the global runner-up; hierarchy certificates
    use the runner-up within the routed class (the class of the predicted
    label). A sample routed outside its true class is a misclassification
    and contributes no certificate. Mean/std exclude infinite radii.
    """
    table = _runner_table(as_probability_matrix(probs))
    y = checked_labels(labels, partition.n_labels)
    hier_radius = _class_radii(table, partition, sigma)
    _, base_radius = _set_radii(table, slice(None), sigma)
    g = table[0]

    class_of = _label_index(partition.classes, partition.n_labels)
    true_class = class_of[y]
    correct = g == y
    routed = class_of[g] == true_class

    def _stats(vals: np.ndarray) -> tuple[float, float]:
        finite = vals[np.isfinite(vals)]
        if finite.size == 0:
            return math.nan, math.nan
        return float(finite.mean()), float(finite.std())

    reports = []
    for ci, c in enumerate(partition.classes):
        sel = np.flatnonzero(true_class == ci)
        if sel.size == 0:
            continue
        ok = correct[sel]
        b_mean, b_std = _stats(base_radius[sel][ok])
        h_mean, h_std = _stats(hier_radius[sel][ok])
        base_ca = tuple(float(np.mean(ok & (base_radius[sel] >= t))) for t in thresholds)
        hier_ca = tuple(float(np.mean(ok & (hier_radius[sel] >= t))) for t in thresholds)
        reports.append(ClassReport(
            class_index=ci, labels=c, n_samples=int(sel.size),
            routing_acc=float(np.mean(routed[sel])),
            baseline_cr_mean=b_mean, baseline_cr_std=b_std,
            hierarchy_cr_mean=h_mean, hierarchy_cr_std=h_std,
            baseline_ca=base_ca, hierarchy_ca=hier_ca,
        ))
    return reports
