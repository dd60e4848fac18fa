"""Spans and counters around hiercert's public functions, installed from outside.

`Tracer.install` wraps every public function of every hiercert module, and
the `logits` and `input_grad_from_dlogits` methods of the built-in models.
A wrapper is installed under every name that binds the function: a
`from x import y` import copies the binding into the importing module
(`hiercert.cli.certify`, `hiercert.smoothing.normal_quantile`,
`hiercert.hierarchy.margin_radius`, ...), and patching only the defining
module would miss those callers.

Each call records one span (name, start, end, parent) in memory. Counters
(draws, rows, bytes, iterations, ...) are taken from arguments and results at
the same boundaries. A span's self time is its duration minus the time its
child spans cover.
"""

from __future__ import annotations

import collections
import functools
import importlib
import inspect
import os
from pathlib import Path
from time import perf_counter_ns

import numpy as np

PACKAGE = "hiercert"
MODULES = ("rng", "numerics", "models", "smoothing", "core", "hierarchy",
           "discovery", "io", "toymodels", "cli")
# Called once per CSV cell; a span each would swamp the trace.
SKIP = {"io.parse_float", "io.format_float"}
MODEL_CLASSES = ("LinearSoftmax", "SmallMlp")
MODEL_METHODS = {"logits": "models.logits", "input_grad_from_dlogits": "models.input_grad"}


def _arg(args, kwargs, i: int, name: str, default=None):
    if len(args) > i:
        return args[i]
    return kwargs.get(name, default)


def _rows(x) -> int:
    return int(np.shape(x)[0]) if np.ndim(x) >= 1 else 1


def _file_bytes(path) -> int:
    return os.path.getsize(path) if path is not None and os.path.exists(path) else 0


def _read_hook(key: str):
    def hook(a, k, r):
        size = _file_bytes(_arg(a, k, 0, "path"))
        return [("io.read.bytes", size), (f"{key}.bytes", size)]
    return hook


def _write_csv_hook(a, k, r):
    rows = _arg(a, k, 2, "rows")
    return [("io.write.rows", len(rows) if hasattr(rows, "__len__") else 0),
            ("io.write.bytes", _file_bytes(_arg(a, k, 0, "path")))]


def _merges(a, k, r):
    m = _rows(_arg(a, k, 0, "counts"))
    return [("discovery.partition_from_confusion.merges", m - int(_arg(a, k, 1, "k")))]


def _beta(a, k, r):
    s, n = int(_arg(a, k, 0, "successes")), int(_arg(a, k, 1, "total"))
    return [("smoothing.clopper_pearson_lower.beta", int(0 < s < n))]


# Counter hooks: span name -> f(args, kwargs, result) -> [(counter, increment)].
HOOKS = {
    "rng.normals": lambda a, k, r: [("rng.normals.draws", int(_arg(a, k, 3, "count")))],
    "numerics.normal_quantile": lambda a, k, r: [
        ("numerics.normal_quantile.elems", int(np.size(_arg(a, k, 0, "q"))))],
    "models.logits": lambda a, k, r: [("models.logits.rows", _rows(_arg(a, k, 1, "X")))],
    "models.input_grad": lambda a, k, r: [("models.input_grad.rows", _rows(_arg(a, k, 1, "X")))],
    "smoothing.certify": lambda a, k, r: [("smoothing.certify.certified", int(not r.abstained))],
    "smoothing.clopper_pearson_lower": _beta,
    "discovery.kmeans": lambda a, k, r: [("discovery.kmeans.iters", int(r.n_iter)),
                                         ("discovery.kmeans.reseeds", int(r.reseeds))],
    "discovery.partition_from_confusion": _merges,
    "io.read_features": _read_hook("io.read_features"),
    "io.read_logits": _read_hook("io.read_logits"),
    "io.read_probs": _read_hook("io.read_probs"),
    "io.read_confusion": _read_hook("io.read_confusion"),
    "io.read_json": _read_hook("io.read_json"),
    "io.write_csv": _write_csv_hook,
}


class Tracer:
    """In-memory span and counter recorder; `install` patches, `uninstall` restores."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._depth: list[int] = []
        self._stack: list[int] = []
        # (name id, start ns, end ns, parent index or -1, nested in a same-name span)
        self.spans: list[tuple] = []
        self.counters: collections.Counter = collections.Counter()
        self._undo: list[tuple] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self._name_id(name)
        hook = HOOKS.get(name)
        spans, stack, depth, counters = self.spans, self._stack, self._depth, self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            nested = depth[nid] > 0
            spans.append(None)
            stack.append(idx)
            depth[nid] += 1
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                depth[nid] -= 1
                spans[idx] = (nid, t0, t1, parent, nested)
            if hook is not None:
                for key, value in hook(args, kwargs, result):
                    counters[key] += value
            return result

        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        if isinstance(owner, dict):
            self._undo.append((owner, attr, owner[attr]))
            owner[attr] = value
        else:
            self._undo.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, value)

    def install(self) -> None:
        modules = [importlib.import_module(PACKAGE)]
        modules += [importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES]
        wrappers = {}
        for mod in modules[1:]:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, fn in vars(mod).items():
                name = f"{short}.{attr}"
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not attr.startswith("_") and name not in SKIP):
                    wrappers[id(fn)] = self.wrap(name, fn)
        # Rebind every name (and every module-level dict entry, such as the
        # CLI's command table) that refers to a wrapped function.
        for mod in modules:
            namespace = vars(mod)
            for attr, value in list(namespace.items()):
                if id(value) in wrappers:
                    self._set(mod, attr, wrappers[id(value)])
                elif isinstance(value, dict):
                    for key, entry in list(value.items()):
                        if id(entry) in wrappers:
                            self._set(value, key, wrappers[id(entry)])
        models = importlib.import_module(f"{PACKAGE}.models")
        for cls_name in MODEL_CLASSES:
            cls = getattr(models, cls_name)
            for method, name in MODEL_METHODS.items():
                self._set(cls, method, self.wrap(name, cls.__dict__[method]))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._undo.clear()

    def mark(self) -> int:
        """Index of the next span, to delimit one iteration's spans."""
        return len(self.spans)

    def take_counters(self) -> dict:
        out = dict(self.counters)
        self.counters.clear()
        return out

    def span_stats(self, start: int, stop: int) -> dict[str, list]:
        """name -> [calls, inclusive s, self s] over spans[start:stop].

        Inclusive time counts only the outermost of nested same-name spans.
        """
        arr = np.array(self.spans[start:stop], dtype=np.int64).reshape(-1, 5)
        nid, t0, t1, parent, nested = arr.T
        dur = t1 - t0
        child = np.zeros(len(arr), dtype=np.int64)
        has_parent = parent >= start
        np.add.at(child, parent[has_parent] - start, dur[has_parent])
        self_ns = dur - child
        out = {}
        for i, name in enumerate(self.names):
            sel = nid == i
            if sel.any():
                out[name] = [int(sel.sum()), float(dur[sel & (nested == 0)].sum()) / 1e9,
                             float(self_ns[sel].sum()) / 1e9]
        return out

    def write(self, path: Path, iterations: list[tuple[int, int]]) -> None:
        """One line per span: iteration, index, parent, root, name, start_ns, end_ns."""
        with open(path, "w") as fh:
            fh.write("iteration,span,parent,root,name,start_ns,end_ns\n")
            for it, (start, stop) in enumerate(iterations):
                roots: dict[int, int] = {}
                for i in range(start, stop):
                    nid, t0, t1, parent, _ = self.spans[i]
                    root = i if parent < 0 else roots[parent]
                    roots[i] = root
                    fh.write(f"{it},{i},{parent},{root},{self.names[nid]},{t0},{t1}\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# Per-layer metrics of one traced iteration: name -> unit. Names ending in
# .calls/.s/.self_s come from spans, the rest from counters or DERIVED.
LAYER_UNITS = {
    "rng.normals.calls": "count", "rng.normals.draws": "count", "rng.normals.s": "s",
    "rng.normals.ns_per_draw": "ns", "rng.uniforms.self_s": "s", "rng.raw64.self_s": "s",
    "numerics.normal_quantile.calls": "count", "numerics.normal_quantile.elems": "count",
    "numerics.normal_quantile.s": "s", "numerics.normal_quantile.ns_per_elem": "ns",
    "models.logits.calls": "count", "models.logits.rows": "count", "models.logits.s": "s",
    "models.pgd_attack.calls": "count", "models.pgd_attack.s": "s",
    "models.input_grad.rows": "count",
    "smoothing.certify.calls": "count", "smoothing.certify.s": "s",
    "smoothing.certify.certified_frac": "ratio",
    "smoothing.sample_under_noise.calls": "count", "smoothing.sample_under_noise.s": "s",
    "smoothing.sample_under_noise.self_s": "s",
    "smoothing.clopper_pearson_lower.calls": "count", "smoothing.clopper_pearson_lower.s": "s",
    "smoothing.clopper_pearson_lower.us_per_call": "us",
    "smoothing.clopper_pearson_lower.beta_frac": "ratio",
    "smoothing.margin_radius.calls": "count", "smoothing.margin_radius.s": "s",
    "core.as_probability_vector.calls": "count", "core.as_probability_vector.s": "s",
    "hierarchy.renormalization_report.s": "s", "hierarchy.renormalization_report.self_s": "s",
    "hierarchy.leaf_certificate_renormalized.calls": "count",
    "hierarchy.leaf_certificate_renormalized.s": "s",
    "hierarchy.subset_radius_sweep.s": "s", "hierarchy.subset_radius_sweep.self_s": "s",
    "hierarchy.evaluate_adversarial.s": "s", "hierarchy.evaluate_adversarial.self_s": "s",
    "discovery.kmeans.s": "s", "discovery.kmeans.iters": "count",
    "discovery.kmeans.reseeds": "count", "discovery.cluster_separation_check.s": "s",
    "discovery.partition_from_confusion.s": "s",
    "discovery.partition_from_confusion.merges": "count",
    "io.read_logits.s": "s", "io.read_logits.mb_per_s": "MB/s", "io.read_features.s": "s",
    "io.read_confusion.s": "s", "io.read.bytes": "bytes",
    "io.write_csv.calls": "count", "io.write_csv.s": "s", "io.write.rows": "count",
    "io.write.bytes": "bytes",
    "toymodels.gauss_experiment.s": "s", "toymodels.gauss_experiment.self_s": "s",
    "toymodels.tradeoff_experiment.s": "s",
    "cli.self_s": "s",
}

DERIVED = {
    "rng.normals.ns_per_draw": lambda v: _ratio(v["rng.normals.s"] * 1e9,
                                                v["rng.normals.draws"]),
    "numerics.normal_quantile.ns_per_elem": lambda v: _ratio(
        v["numerics.normal_quantile.s"] * 1e9, v["numerics.normal_quantile.elems"]),
    "smoothing.certify.certified_frac": lambda v: _ratio(
        v["smoothing.certify.certified"], v["smoothing.certify.calls"]),
    "smoothing.clopper_pearson_lower.us_per_call": lambda v: _ratio(
        v["smoothing.clopper_pearson_lower.s"] * 1e6, v["smoothing.clopper_pearson_lower.calls"]),
    "smoothing.clopper_pearson_lower.beta_frac": lambda v: _ratio(
        v["smoothing.clopper_pearson_lower.beta"], v["smoothing.clopper_pearson_lower.calls"]),
    "io.read_logits.mb_per_s": lambda v: _ratio(v["io.read_logits.bytes"] / 1e6,
                                                v["io.read_logits.s"]),
    "cli.self_s": lambda v: v["module.cli.self_s"],
}


def layer_metrics(stats: dict[str, list], counters: dict) -> dict[str, float]:
    """Per-layer metrics of one iteration from `span_stats` and its counters."""
    values = collections.defaultdict(float, counters)
    for name, (calls, incl, own) in stats.items():
        values[f"{name}.calls"] = calls
        values[f"{name}.s"] = incl
        values[f"{name}.self_s"] = own
        values[f"module.{name.split('.', 1)[0]}.self_s"] += own
    return {name: (DERIVED[name](values) if name in DERIVED else values[name])
            for name in LAYER_UNITS}
