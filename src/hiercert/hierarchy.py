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
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from . import rng
from .core import (
    CertifiedPrediction,
    LabelPartition,
    as_probability_matrix,
    as_probability_vector,
    normalize_subset,
)
from .errors import CapabilityError, RoutingMismatchError, ValidationError
from .models import LinearSoftmax, MaskedModel, PgdParams, SmallMlp, pgd_attack, train
from .smoothing import margin_radius

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
    """Routing node; child i handles the i-th equivalence class below it."""

    classifier: object
    children: tuple["Node", ...]

    def __post_init__(self):
        object.__setattr__(self, "children", tuple(self.children))
        if len(self.children) < 2:
            raise ValidationError("intermediate nodes need at least 2 children")
        if self.classifier.n_labels != len(self.children):
            raise ValidationError("routing arity must equal the child count")


Node = Union[Leaf, Intermediate]


def node_label_set(node: Node) -> tuple[int, ...]:
    if isinstance(node, Leaf):
        return node.label_subset
    out: list[int] = []
    for child in node.children:
        out.extend(node_label_set(child))
    return tuple(sorted(out))


@dataclass(frozen=True)
class Hierarchy:
    """A finite routing tree whose leaf subsets partition the label space."""

    root: Node
    n_labels: int

    def __post_init__(self):
        labels = node_label_set(self.root)
        if labels != tuple(range(self.n_labels)):
            raise ValidationError(
                "leaf subsets must partition the label space "
                f"0..{self.n_labels - 1}, got {labels}"
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


def checked_labels(y, n_labels: int) -> np.ndarray:
    """True labels as int64, each in 0..n_labels-1."""
    y = np.asarray(y, dtype=np.int64)
    if y.size and not (0 <= y.min() and y.max() < n_labels):
        raise ValidationError(f"labels must lie in 0..{n_labels - 1}")
    return y


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

    Returns each row's top label g, its probability p_top, and PT, a C-ordered
    copy of P.T with PT[g[r], r] = -inf, so the max over any label set's rows
    of PT is every row's runner-up within that set. PT is always a fresh
    copy: for an n x 1 or 1 x m matrix P.T is already contiguous, and a view
    would carry the mask into the caller's matrix.
    """
    g = np.argmax(P, axis=1)
    rows = np.arange(P.shape[0])
    PT = P.T.copy()
    PT[g, rows] = -np.inf
    return g, P[rows, g], PT


def _set_radii(table, labels, sigma: float) -> tuple[np.ndarray, np.ndarray]:
    """Two-sided radius of every row whose top label lies in `labels`, against
    its runner-up among `labels`; +inf where no competitor is left.

    `labels` is a list of labels or a slice. Returns the rows, ascending, and
    their radii. The runner-up is one column-wise max over the label set's
    contiguous rows of the table.
    """
    g, p_top, PT = table
    allowed = np.zeros(PT.shape[0], dtype=bool)
    allowed[labels] = True
    rows = np.flatnonzero(allowed[g])
    runner = PT[labels].max(axis=0)[rows]
    paired = runner > -np.inf
    radii = np.full(rows.size, np.inf)
    radii[paired] = margin_radius(sigma, p_top[rows][paired], runner[paired])
    return rows, radii


def leaf_certificate_renormalized(smoothed_probs, subset: Iterable[int],
                                  sigma: float) -> CertifiedPrediction:
    """Two-sided certificate of the top label within a subset.

    The probability estimates are the baseline classifier's; estimates
    outside the subset are discarded and the margin is taken between the
    top and runner-up that remain (the estimates themselves are not
    rescaled, which is what makes the bound valid). The global argmax must
    lie inside the subset; otherwise the sample was routed wrong and is a
    misclassification, not a certificate.
    """
    probs = as_probability_vector(smoothed_probs)
    s = normalize_subset(subset, probs.size)
    g = int(np.argmax(probs))
    if g not in s:
        raise RoutingMismatchError(f"argmax {g} outside routed subset {s}")
    if len(s) == 1:
        return CertifiedPrediction(label=g, radius=math.inf,
                                   p_a_lower=float(probs[g]), sigma=sigma)
    competitors = [i for i in s if i != g]
    p_top = float(probs[g])
    p_runner = float(probs[competitors].max())
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


def _node_correct(node: Node, X: np.ndarray, targets: np.ndarray,
                  attack: Optional[PgdParams] = None, seed: int = 0) -> np.ndarray:
    """Per row: does the node still produce its local target, on the clean
    input or, given `attack`, after one `pgd_attack` call over all rows?

    Singleton leaves have no classifier and cannot be attacked."""
    if node.classifier is None:
        return np.ones(X.shape[0], dtype=bool)
    if attack is not None:
        X = pgd_attack(node.classifier, X, targets, attack, seed=seed)
    return np.argmax(node.classifier.logits(X), axis=1) == targets


def evaluate_adversarial(h: Hierarchy, X, y, scenario: AttackScenario,
                         seed: int = 0) -> AdversarialReport:
    """Natural and adversarial accuracy of a hierarchy of built-in models.

    Worst case: every classifier on a sample's true path is attacked
    independently from the clean input; the sample counts as correct only
    if all of them still decide correctly. Budgeted: only the designated
    node is attacked, every other classifier sees the clean input; the
    target 'worst' tries each node and reports the most damaging one.

    Each node's rows are those whose true path passes through it. A node is
    checked clean at most once and attacked at most once, by one
    `pgd_attack` call over all its rows.
    """
    for nid, node in h.nodes():
        model = node.classifier
        while isinstance(model, MaskedModel):
            model = model.base
        if model is not None and not hasattr(model, "input_grad_from_dlogits"):
            raise CapabilityError(
                f"node {nid!r}: a {type(model).__name__} cannot be run or attacked on input "
                "features; attacks need built-in linear or mlp classifiers at every node")
    node_ids = [nid for nid, _ in h.nodes()]
    if scenario.mode == BUDGETED and scenario.budget_target not in node_ids + ["worst"]:
        raise ValidationError(f"no node named {scenario.budget_target!r}; "
                              f"known ids: {node_ids}")
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    y = checked_labels(y, h.n_labels)
    natural = float(np.mean(infer_batch(h, X) == y))

    every_node = scenario.mode == WORST_CASE or scenario.budget_target == "worst"
    attacked, clean = {}, {}
    for nid, node in h.nodes():
        # The local target of each row: its label's child, or its index in a leaf.
        groups = ([(label,) for label in node.label_subset] if isinstance(node, Leaf)
                  else map(node_label_set, node.children))
        local = _label_index(groups, h.n_labels)[y]
        rows = np.flatnonzero(local >= 0)
        if every_node or nid == scenario.budget_target:
            attacked[nid] = rows, _node_correct(node, X[rows], local[rows],
                                                scenario.attack, seed)
        # A single budgeted target never needs its own clean correctness.
        if scenario.mode == BUDGETED and nid != scenario.budget_target:
            clean[nid] = rows, _node_correct(node, X[rows], local[rows])

    def accuracy(target_id: Optional[str]) -> float:
        """Share of rows correct at every node: attacked at every node when
        target_id is None, else attacked at target_id and clean elsewhere."""
        ok = np.ones(X.shape[0], dtype=bool)
        for nid in node_ids:
            rows, good = attacked[nid] if target_id in (None, nid) else clean[nid]
            ok[rows] &= good
        return float(np.mean(ok))

    if scenario.mode == WORST_CASE:
        return AdversarialReport(natural_acc=natural, adv_acc=accuracy(None))
    if scenario.budget_target == "worst":
        per_node = {nid: accuracy(nid) for nid in node_ids}
        return AdversarialReport(natural_acc=natural, budget_acc=min(per_node.values()),
                                 per_node=per_node)
    return AdversarialReport(natural_acc=natural,
                             budget_acc=accuracy(scenario.budget_target))


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
    of the rows routed to each class in turn. A class of one label gives +inf.
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
